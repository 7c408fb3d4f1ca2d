//! Latency: per-packet deltas between two tracepoints.
//!
//! "Based on the packet ID …, we track two packets for the same packet ID
//! at two tracepoints and record the system time through tracing scripts.
//! … the latency between the two tracepoints is treated as ΔT = t2 − t1.
//! If the two tracepoints are located on two different nodes, the latency
//! can be calculated as ΔT = t2 − t1 + ΔT_skew." (§III-D)

use serde::{Deserialize, Serialize};
use vnet_tsdb::TraceDb;

use super::first_seen;
use crate::clock_sync::SkewEstimate;

/// Summary statistics over a latency sample set, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Mean.
    pub mean_ns: f64,
    /// Minimum.
    pub min_ns: u64,
    /// Maximum.
    pub max_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile — the tail the paper's case studies focus on.
    pub p999_ns: u64,
}

impl LatencyStats {
    /// Mean in microseconds (the unit the paper plots).
    pub fn mean_us(&self) -> f64 {
        self.mean_ns / 1e3
    }

    /// 99.9th percentile in microseconds.
    pub fn p999_us(&self) -> f64 {
        self.p999_ns as f64 / 1e3
    }
}

/// Computes summary statistics; `None` for an empty sample set.
pub fn stats_from_ns(samples: &[u64]) -> Option<LatencyStats> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let pct = |q: f64| -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    };
    let sum: u128 = sorted.iter().map(|&v| u128::from(v)).sum();
    Some(LatencyStats {
        count: sorted.len(),
        mean_ns: sum as f64 / sorted.len() as f64,
        min_ns: sorted[0],
        max_ns: *sorted.last().expect("non-empty"),
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        p999_ns: pct(0.999),
    })
}

/// Per-packet latency between tracepoint tables `from` and `to`, joining
/// records by trace ID. `skew` (if given) aligns `to`'s node clock onto
/// `from`'s before subtraction. Deltas that come out negative (clock
/// inversion beyond the skew estimate) are dropped, as data cleaning
/// would.
///
/// Reads sealed segments as well as the hot tail; a table that does not
/// exist (or cannot be scanned) counts as empty.
pub fn latency_between(
    db: &TraceDb,
    from: &str,
    to: &str,
    skew: Option<&SkewEstimate>,
) -> Vec<u64> {
    first_seen(db, from)
        .join(&first_seen(db, to))
        .into_iter()
        .filter_map(|(t1, t2)| {
            let t2 = match skew {
                Some(s) => s.align_remote_ns(t2),
                None => t2,
            };
            t2.checked_sub(t1)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::testutil::db_of;
    use vnet_tsdb::CompactRecord;

    #[test]
    fn stats_basics() {
        let s = stats_from_ns(&[10, 20, 30, 40, 50]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean_ns, 30.0);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 50);
        assert_eq!(s.p50_ns, 30);
        assert_eq!(s.p999_ns, 50);
        assert!(stats_from_ns(&[]).is_none());
    }

    #[test]
    fn tail_percentile_catches_outlier() {
        // Nearest-rank: with 500 samples, p99.9 ranks at ceil(0.999*500)
        // = 500, the maximum — one outlier in 500 shows in the tail.
        let mut samples = vec![100u64; 499];
        samples.push(10_000);
        let s = stats_from_ns(&samples).unwrap();
        assert_eq!(s.p50_ns, 100);
        assert_eq!(s.p999_ns, 10_000);
        assert_eq!(s.p999_us(), 10.0);
        assert_eq!(s.mean_us(), s.mean_ns / 1e3);
        // With 1000 samples, a single outlier sits exactly past the
        // 99.9th rank.
        let mut samples = vec![100u64; 999];
        samples.push(10_000);
        let s = stats_from_ns(&samples).unwrap();
        assert_eq!(s.p999_ns, 100);
        assert_eq!(s.max_ns, 10_000);
    }

    fn db_with_pair(id: u32, t1: u64, t2: u64) -> TraceDb {
        let seen = |timestamp_ns| CompactRecord {
            timestamp_ns,
            trace_id: id,
            flags: 1,
            ..Default::default()
        };
        db_of([("a", "n", seen(t1)), ("b", "n", seen(t2))])
    }

    #[test]
    fn latency_join_same_node() {
        let db = db_with_pair(7, 1_000, 1_750);
        assert_eq!(latency_between(&db, "a", "b", None), vec![750]);
    }

    #[test]
    fn latency_join_with_skew_alignment() {
        // Remote clock leads by 500ns: raw t2 = 1_750 includes the lead.
        let db = db_with_pair(7, 1_000, 1_750);
        let skew = SkewEstimate {
            one_way_ns: 0,
            offset_ns: 500,
            skew_ns: 500,
            samples: 100,
        };
        assert_eq!(latency_between(&db, "a", "b", Some(&skew)), vec![250]);
    }

    #[test]
    fn negative_deltas_dropped() {
        let db = db_with_pair(7, 2_000, 1_000);
        assert!(latency_between(&db, "a", "b", None).is_empty());
    }
}
