//! End-to-end latency decomposition across an ordered tracepoint chain.
//!
//! The "advanced" metric of §III-D (Fig. 6) and the workhorse of all
//! three case studies: given tracepoints along a packet's path (e.g.
//! application socket → OVS ingress → OVS egress → receiver socket), the
//! per-packet time spent in each segment is the timestamp difference
//! between consecutive tracepoints, joined by trace ID.

use serde::{Deserialize, Serialize};
use vnet_tsdb::TraceDb;

use super::first_seen_by_trace_id;
use super::latency::{stats_from_ns, LatencyStats};

/// Latency statistics for one segment of the path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SegmentStats {
    /// Upstream tracepoint (table name).
    pub from: String,
    /// Downstream tracepoint (table name).
    pub to: String,
    /// Statistics over all packets observed at both ends.
    pub stats: LatencyStats,
}

/// Decomposes latency across consecutive pairs of `tracepoints`.
/// Segments with no joinable packets are omitted.
pub fn decompose(db: &TraceDb, tracepoints: &[&str]) -> Vec<SegmentStats> {
    tracepoints
        .windows(2)
        .filter_map(|w| {
            let deltas = super::latency::latency_between(db, w[0], w[1], None);
            stats_from_ns(&deltas).map(|stats| SegmentStats {
                from: w[0].to_owned(),
                to: w[1].to_owned(),
                stats,
            })
        })
        .collect()
}

/// Per-packet segment latencies, for Fig. 11-style per-packet plots:
/// returns, for each trace ID seen at the *first* tracepoint and ordered
/// by its timestamp there, the latency of every segment (or `None` where
/// the packet was not observed downstream).
pub fn per_packet_segments(db: &TraceDb, tracepoints: &[&str]) -> Vec<(String, Vec<Option<u64>>)> {
    let first_seen: Vec<_> = tracepoints
        .iter()
        .map(|t| first_seen_by_trace_id(db, t))
        .collect();
    let Some(first) = first_seen.first() else {
        return Vec::new();
    };
    // Trace IDs ordered by first-tracepoint timestamp.
    let mut ids: Vec<(u64, &String)> = first.iter().map(|(id, &ts)| (ts, id)).collect();
    ids.sort();
    ids.into_iter()
        .map(|(_, id)| {
            let segs: Vec<Option<u64>> = first_seen
                .windows(2)
                .map(|w| match (w[0].get(id), w[1].get(id)) {
                    (Some(&a), Some(&b)) => b.checked_sub(a),
                    _ => None,
                })
                .collect();
            (id.clone(), segs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_tsdb::{DataPoint, TRACE_ID_TAG};

    /// Three tracepoints; packet `i` takes 100ns in segment 1 and
    /// `50*i` ns in segment 2.
    fn chain_db(n: u64) -> TraceDb {
        let mut db = TraceDb::new();
        for i in 0..n {
            let id = format!("{i:08x}");
            let t0 = i * 10_000;
            db.insert(DataPoint::new("tp0", t0).tag(TRACE_ID_TAG, &id));
            db.insert(DataPoint::new("tp1", t0 + 100).tag(TRACE_ID_TAG, &id));
            db.insert(DataPoint::new("tp2", t0 + 100 + 50 * i).tag(TRACE_ID_TAG, &id));
        }
        db
    }

    #[test]
    fn decompose_reports_per_segment_stats() {
        let db = chain_db(5);
        let segs = decompose(&db, &["tp0", "tp1", "tp2"]);
        assert_eq!(segs.len(), 2);
        assert_eq!(segs[0].from, "tp0");
        assert_eq!(segs[0].stats.mean_ns, 100.0);
        assert_eq!(segs[1].stats.min_ns, 0);
        assert_eq!(segs[1].stats.max_ns, 200);
        assert_eq!(segs[1].stats.mean_ns, 100.0);
    }

    #[test]
    fn per_packet_segments_ordered_by_arrival() {
        let db = chain_db(3);
        let rows = per_packet_segments(&db, &["tp0", "tp1", "tp2"]);
        assert_eq!(rows.len(), 3);
        let seg2: Vec<Option<u64>> = rows.iter().map(|(_, s)| s[1]).collect();
        assert_eq!(seg2, vec![Some(0), Some(50), Some(100)]);
    }

    #[test]
    fn missing_downstream_observation_is_none() {
        let mut db = chain_db(2);
        // A third packet only seen at tp0 (lost).
        db.insert(DataPoint::new("tp0", 1_000_000).tag(TRACE_ID_TAG, "deadbeef"));
        let rows = per_packet_segments(&db, &["tp0", "tp1"]);
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[2].0, "deadbeef");
        assert_eq!(rows[2].1, vec![None]);
        // decompose simply skips the unjoinable packet.
        let segs = decompose(&db, &["tp0", "tp1"]);
        assert_eq!(segs[0].stats.count, 2);
    }

    #[test]
    fn empty_inputs() {
        let db = TraceDb::new();
        assert!(decompose(&db, &["a", "b"]).is_empty());
        assert!(per_packet_segments(&db, &["a", "b"]).is_empty());
        assert!(per_packet_segments(&db, &[]).is_empty());
    }

    #[test]
    fn per_packet_segments_survive_a_cold_reopen() {
        use vnet_tsdb::{CompactRecord, RecordBatch};
        let mut batch = RecordBatch::new();
        for i in 0..100u32 {
            let record = |ts: u64| CompactRecord {
                timestamp_ns: ts,
                trace_id: i,
                flags: 1,
                ..Default::default()
            };
            let t0 = u64::from(i) * 10_000;
            batch.push("tp0", "vm1", record(t0));
            batch.push("tp1", "vm1", record(t0 + 100));
            if i % 5 != 0 {
                batch.push("tp2", "vm2", record(t0 + 100 + 50 * u64::from(i)));
            }
        }
        let (mem, cold) = crate::metrics::testutil::mem_and_cold("segments", &batch);
        let rows = per_packet_segments(&cold.db, &["tp0", "tp1", "tp2"]);
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[0], ("00000000".to_owned(), vec![Some(100), None]));
        assert_eq!(rows[7], ("00000007".to_owned(), vec![Some(100), Some(350)]));
        assert_eq!(rows, per_packet_segments(&mem, &["tp0", "tp1", "tp2"]));
    }
}
