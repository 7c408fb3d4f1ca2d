//! End-to-end latency decomposition across an ordered tracepoint chain.
//!
//! The "advanced" metric of §III-D (Fig. 6) and the workhorse of all
//! three case studies: given tracepoints along a packet's path (e.g.
//! application socket → OVS ingress → OVS egress → receiver socket), the
//! per-packet time spent in each segment is the timestamp difference
//! between consecutive tracepoints, joined by trace ID.

use serde::{Deserialize, Serialize};
use vnet_tsdb::TraceDb;

use super::first_seen;
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

/// Decomposes latency across consecutive pairs of `tracepoints`, reading
/// each tracepoint's table once. Segments with no joinable packets are
/// omitted.
pub fn decompose(db: &TraceDb, tracepoints: &[&str]) -> Vec<SegmentStats> {
    let first_seen: Vec<_> = tracepoints.iter().map(|t| first_seen(db, t)).collect();
    tracepoints
        .windows(2)
        .zip(first_seen.windows(2))
        .filter_map(|(w, seen)| {
            let pairs = seen[0].join(&seen[1]);
            let deltas: Vec<u64> = pairs
                .iter()
                .filter_map(|(t1, t2)| t2.checked_sub(*t1))
                .collect();
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
    let first_seen: Vec<_> = tracepoints.iter().map(|t| first_seen(db, t)).collect();
    let Some(first) = first_seen.first() else {
        return Vec::new();
    };
    // Trace IDs ordered by first-tracepoint timestamp, then by name.
    let mut ids: Vec<_> = first
        .iter()
        .map(|(key, ts)| (ts, key.to_string(), key))
        .collect();
    ids.sort_unstable_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
    ids.into_iter()
        .map(|(_, id, key)| {
            let segs: Vec<Option<u64>> = first_seen
                .windows(2)
                .map(|w| match (w[0].get(key), w[1].get(key)) {
                    (Some(a), Some(b)) => b.checked_sub(a),
                    _ => None,
                })
                .collect();
            (id, segs)
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

    #[test]
    fn an_unreadable_table_counts_as_empty() {
        use vnet_tsdb::segment::ColumnId;
        use vnet_tsdb::{CompactRecord, RecordBatch, Segment, StoreError};
        let mut batch = RecordBatch::new();
        for i in 0..100u32 {
            let record = |ts: u64| CompactRecord {
                timestamp_ns: ts,
                trace_id: i,
                flags: 1,
                ..Default::default()
            };
            batch.push("tp0", "vm1", record(u64::from(i) * 10_000));
            batch.push("tp1", "vm2", record(u64::from(i) * 10_000 + 100));
        }
        let (_mem, cold) = crate::metrics::testutil::mem_and_cold("unreadable", &batch);
        assert_eq!(decompose(&cold.db, &["tp0", "tp1"])[0].stats.count, 100);

        // Damage a lane the join projects in one of tp1's segments.
        let damaged = std::fs::read_dir(cold.db.dir().unwrap())
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "col"))
            .find(|p| Segment::open(p).unwrap().meta().measurement == "tp1")
            .unwrap();
        let chunk = Segment::open(&damaged).unwrap().meta().blocks[0].chunks[ColumnId::Ts as usize];
        let mut bytes = std::fs::read(&damaged).unwrap();
        bytes[chunk.offset as usize] ^= 0x40;
        std::fs::write(&damaged, bytes).unwrap();

        let joined = cold.db.join_timestamps("tp0", "tp1");
        assert!(matches!(joined, Err(StoreError::Segment(_))));
        assert!(decompose(&cold.db, &["tp0", "tp1"]).is_empty());
        assert!(crate::metrics::latency_between(&cold.db, "tp0", "tp1", None).is_empty());
        let rows = per_packet_segments(&cold.db, &["tp0", "tp1"]);
        assert_eq!(rows.len(), 100);
        assert!(rows.iter().all(|(_, segs)| segs == &[None]));
    }
}
