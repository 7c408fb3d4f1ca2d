//! End-to-end latency decomposition across an ordered tracepoint chain.
//!
//! The "advanced" metric of §III-D (Fig. 6) and the workhorse of all
//! three case studies: given tracepoints along a packet's path (e.g.
//! application socket → OVS ingress → OVS egress → receiver socket), the
//! per-packet time spent in each segment is the timestamp difference
//! between consecutive tracepoints, joined by trace ID.

use vnet_tsdb::{stats_from_ns, trace_id_tag, LatencyStats, TraceDb};

use super::first_seen;

/// Latency statistics for one segment of the path.
#[derive(Debug, Clone, PartialEq)]
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
/// returns, for each trace ID (as its `trace_id` tag value) seen at the
/// *first* tracepoint and ordered by its timestamp there, the latency of
/// every segment (or `None` where the packet was not observed
/// downstream).
pub fn per_packet_segments(db: &TraceDb, tracepoints: &[&str]) -> Vec<(String, Vec<Option<u64>>)> {
    let first_seen: Vec<_> = tracepoints.iter().map(|t| first_seen(db, t)).collect();
    let Some(first) = first_seen.first() else {
        return Vec::new();
    };
    // Trace IDs ordered by first-tracepoint timestamp, then by ID (which
    // is the order of their zero-padded tag values too).
    let mut ids: Vec<(u64, u32)> = first.iter().map(|(id, ts)| (ts, id)).collect();
    ids.sort_unstable();
    ids.into_iter()
        .map(|(_, id)| {
            let segs: Vec<Option<u64>> = first_seen
                .windows(2)
                .map(|w| match (w[0].get(id), w[1].get(id)) {
                    (Some(a), Some(b)) => b.checked_sub(a),
                    _ => None,
                })
                .collect();
            (trace_id_tag(id), segs)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::testutil::db_of;
    use vnet_tsdb::{CompactRecord, RecordBatch};

    fn seen(trace_id: u32, timestamp_ns: u64) -> CompactRecord {
        CompactRecord {
            timestamp_ns,
            trace_id,
            flags: 1,
            ..Default::default()
        }
    }

    /// Three tracepoints; packet `i` takes 100ns in segment 1 and
    /// `50*i` ns in segment 2. `lost` are seen at `tp0` only.
    fn chain_db(n: u32, lost: &[(u32, u64)]) -> TraceDb {
        let mut rows = Vec::new();
        for i in 0..n {
            let t0 = u64::from(i) * 10_000;
            rows.push(("tp0", "n", seen(i, t0)));
            rows.push(("tp1", "n", seen(i, t0 + 100)));
            rows.push(("tp2", "n", seen(i, t0 + 100 + 50 * u64::from(i))));
        }
        rows.extend(lost.iter().map(|&(id, ts)| ("tp0", "n", seen(id, ts))));
        db_of(rows)
    }

    #[test]
    fn decompose_reports_per_segment_stats() {
        let db = chain_db(5, &[]);
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
        let db = chain_db(3, &[]);
        let rows = per_packet_segments(&db, &["tp0", "tp1", "tp2"]);
        assert_eq!(rows.len(), 3);
        let seg2: Vec<Option<u64>> = rows.iter().map(|(_, s)| s[1]).collect();
        assert_eq!(seg2, vec![Some(0), Some(50), Some(100)]);
    }

    #[test]
    fn missing_downstream_observation_is_none() {
        // A third packet only seen at tp0 (lost).
        let db = chain_db(2, &[(0xdead_beef, 1_000_000)]);
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
        let mut batch = RecordBatch::new();
        for i in 0..100u32 {
            let t0 = u64::from(i) * 10_000;
            batch.push("tp0", "vm1", seen(i, t0));
            batch.push("tp1", "vm1", seen(i, t0 + 100));
            if i % 5 != 0 {
                batch.push("tp2", "vm2", seen(i, t0 + 100 + 50 * u64::from(i)));
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
        use vnet_tsdb::{Segment, StoreError};
        let mut batch = RecordBatch::new();
        for i in 0..100u32 {
            batch.push("tp0", "vm1", seen(i, u64::from(i) * 10_000));
            batch.push("tp1", "vm2", seen(i, u64::from(i) * 10_000 + 100));
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
