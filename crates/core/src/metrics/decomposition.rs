//! Latency between tracepoints joined by trace ID, and its end-to-end
//! decomposition along a packet's path (§III-D, Fig. 6; all three case
//! studies): "we track two packets for the same packet ID at two
//! tracepoints … the latency between the two tracepoints is treated as
//! ΔT = t2 − t1", on clocks aligned by
//! [`crate::clock_sync::align_timestamps`] (§III-C).

use std::collections::BTreeSet;

use vnet_tsdb::{stats_from_ns, FirstSeen, LatencyStats, TraceDb};

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

/// ΔT = t2 − t1 per trace ID seen at both ends of one hop, in join
/// order; negative deltas (clock inversion) are dropped as cleaning would.
fn hop_deltas(from: &FirstSeen, to: &FirstSeen) -> Vec<u64> {
    from.join(to)
        .into_iter()
        .filter_map(|(t1, t2)| t2.checked_sub(t1))
        .collect()
}

/// Per-packet latency between tracepoint tables `from` and `to`. Reads
/// sealed segments as well as the hot tail; a table that does not exist
/// (or cannot be scanned) counts as empty.
pub fn latency_between(db: &TraceDb, from: &str, to: &str) -> Vec<u64> {
    hop_deltas(&first_seen(db, from), &first_seen(db, to))
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
            stats_from_ns(&hop_deltas(&seen[0], &seen[1])).map(|stats| SegmentStats {
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
pub fn per_packet_segments(db: &TraceDb, tracepoints: &[&str]) -> Vec<(u32, Vec<Option<u64>>)> {
    let first_seen: Vec<_> = tracepoints.iter().map(|t| first_seen(db, t)).collect();
    let Some(first) = first_seen.first() else {
        return Vec::new();
    };
    // Trace IDs ordered by first-tracepoint timestamp, then by ID.
    let mut ids: Vec<(u64, u32)> = first.iter().map(|(id, ts)| (ts, id)).collect();
    ids.sort_unstable();
    ids.into_iter()
        .map(|(_, id)| {
            let segs: Vec<Option<u64>> = first_seen
                .windows(2)
                .map(|w| w[1].get(id)?.checked_sub(w[0].get(id)?))
                .collect();
            (id, segs)
        })
        .collect()
}

/// Trace IDs observed at the first tracepoint but missing from at least
/// one later tracepoint — the incomplete records (lost packets, truncated
/// traces) that data cleaning flags before end-to-end analysis (§III-C).
pub fn incomplete_ids(db: &TraceDb, tracepoints: &[&str]) -> BTreeSet<u32> {
    let first_seen: Vec<_> = tracepoints.iter().map(|t| first_seen(db, t)).collect();
    let Some((first, later)) = first_seen.split_first() else {
        return BTreeSet::new();
    };
    first
        .iter()
        .map(|(id, _)| id)
        .filter(|&id| later.iter().any(|seen| seen.get(id).is_none()))
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
    fn latency_join_same_node() {
        let db = db_of([("a", "n", seen(7, 1_000)), ("b", "n", seen(7, 1_750))]);
        assert_eq!(latency_between(&db, "a", "b"), vec![750]);
    }

    #[test]
    fn negative_deltas_dropped() {
        let db = db_of([("a", "n", seen(7, 2_000)), ("b", "n", seen(7, 1_000))]);
        assert!(latency_between(&db, "a", "b").is_empty());
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
        assert_eq!(rows[2], (0xdead_beef, vec![None]));
        // decompose simply skips the unjoinable packet.
        let segs = decompose(&db, &["tp0", "tp1"]);
        assert_eq!(segs[0].stats.count, 2);
    }

    #[test]
    fn incomplete_ids_are_those_missing_downstream() {
        let mut rows = Vec::new();
        rows.extend([0xa, 0xb, 0xc].map(|id| ("tp0", "n", seen(id, 1))));
        rows.extend([0xa, 0xb].map(|id| ("tp1", "n", seen(id, 2))));
        rows.push(("tp2", "n", seen(0xa, 3)));
        let db = db_of(rows);
        let incomplete = incomplete_ids(&db, &["tp0", "tp1", "tp2"]);
        assert_eq!(incomplete.into_iter().collect::<Vec<_>>(), [0xb, 0xc]);
        // A missing table leaves every ID incomplete.
        assert_eq!(incomplete_ids(&db, &["tp2", "absent"]).len(), 1);
    }

    #[test]
    fn empty_inputs() {
        let db = TraceDb::new();
        assert!(decompose(&db, &["a", "b"]).is_empty());
        assert!(per_packet_segments(&db, &["a", "b"]).is_empty());
        assert!(per_packet_segments(&db, &[]).is_empty());
        assert!(incomplete_ids(&db, &["a", "b"]).is_empty());
        assert!(incomplete_ids(&db, &[]).is_empty());
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
        assert!(latency_between(&cold.db, "tp0", "tp1").is_empty());
        let rows = per_packet_segments(&cold.db, &["tp0", "tp1"]);
        assert_eq!(rows.len(), 100);
        assert!(rows.iter().all(|(_, segs)| segs == &[None]));
        assert_eq!(incomplete_ids(&cold.db, &["tp0", "tp1"]).len(), 100);
    }
}
