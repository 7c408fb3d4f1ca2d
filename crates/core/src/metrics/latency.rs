//! Latency: per-packet deltas between two tracepoints.
//!
//! "Based on the packet ID …, we track two packets for the same packet ID
//! at two tracepoints and record the system time through tracing scripts.
//! … the latency between the two tracepoints is treated as ΔT = t2 − t1.
//! If the two tracepoints are located on two different nodes, the latency
//! can be calculated as ΔT = t2 − t1 + ΔT_skew." (§III-D)

use vnet_tsdb::TraceDb;

use super::first_seen;
use crate::clock_sync::SkewEstimate;

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
