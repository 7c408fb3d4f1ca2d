//! Property-based tests for the trace store and its aggregations.

use proptest::prelude::*;
use vnet_tsdb::query::{aggregate, percentile, Query};
use vnet_tsdb::{CompactRecord, DataPoint, FirstSeen, RecordBatch, TraceDb, TRACE_ID_TAG};

/// The distinct trace IDs of one table, as tag values, sorted.
fn trace_ids(db: &TraceDb, table: &str) -> Vec<String> {
    let seen = FirstSeen::scan(db, table).unwrap();
    let mut ids: Vec<String> = seen.iter().map(|(key, _)| key.to_string()).collect();
    ids.sort();
    ids
}

prop_compose! {
    fn arb_record()(
        timestamp_ns in 0u64..1_000_000,
        trace_id in 0u32..4096,
        pkt_len in 0u32..65_536,
        saddr in any::<u32>(),
        daddr in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        cpu in 0u16..64,
        direction in 0u8..2,
        flags in 0u8..2,
    ) -> CompactRecord {
        CompactRecord {
            timestamp_ns, trace_id, pkt_len, saddr, daddr,
            sport, dport, cpu, direction, flags,
        }
    }
}

proptest! {
    /// Percentiles are order statistics: within [min, max], monotone in q.
    #[test]
    fn percentile_properties(values in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut db = TraceDb::new();
        for (i, v) in values.iter().enumerate() {
            db.insert(DataPoint::new("m", i as u64).field("v", *v));
        }
        let pts = Query::new("m").run(&db);
        let p50 = percentile(&pts, "v", 0.5).unwrap();
        let p99 = percentile(&pts, "v", 0.99).unwrap();
        let p0 = percentile(&pts, "v", 0.0).unwrap();
        let p100 = percentile(&pts, "v", 1.0).unwrap();
        let min = *values.iter().min().unwrap() as f64;
        let max = *values.iter().max().unwrap() as f64;
        prop_assert_eq!(p0, min);
        prop_assert_eq!(p100, max);
        prop_assert!(p50 <= p99);
        prop_assert!((min..=max).contains(&p50));
        // Every percentile is an actual sample value.
        prop_assert!(values.iter().any(|&v| v as f64 == p99));
    }

    /// Aggregate sum/mean/min/max are mutually consistent.
    #[test]
    fn aggregate_consistency(values in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut db = TraceDb::new();
        for (i, v) in values.iter().enumerate() {
            db.insert(DataPoint::new("m", i as u64).field("v", *v));
        }
        let pts = Query::new("m").run(&db);
        let agg = aggregate(&pts, "v");
        prop_assert_eq!(agg.count, values.len());
        prop_assert!((agg.mean - agg.sum / agg.count as f64).abs() < 1e-9);
        prop_assert!(agg.min <= agg.mean && agg.mean <= agg.max);
    }

    /// Time-range queries return exactly the points in range, in
    /// insertion order.
    #[test]
    fn time_range_partition(
        stamps in proptest::collection::vec(0u64..10_000, 1..100),
        lo in 0u64..10_000,
        width in 0u64..5_000,
    ) {
        let hi = lo + width;
        let mut db = TraceDb::new();
        for t in &stamps {
            db.insert(DataPoint::new("m", *t));
        }
        let inside = Query::new("m").time_range(lo, hi).run(&db);
        let expected: Vec<u64> =
            stamps.iter().copied().filter(|t| (lo..=hi).contains(t)).collect();
        let got: Vec<u64> = inside.iter().map(|e| e.timestamp_ns()).collect();
        prop_assert_eq!(got, expected);
    }

    /// join_timestamps pairs exactly the trace IDs present in both
    /// tables.
    #[test]
    fn join_is_an_intersection(ids_a in proptest::collection::btree_set(0u32..64, 0..32),
                               ids_b in proptest::collection::btree_set(0u32..64, 0..32)) {
        let mut db = TraceDb::new();
        for id in &ids_a {
            db.insert(DataPoint::new("a", u64::from(*id)).tag(TRACE_ID_TAG, format!("{id:08x}")));
        }
        for id in &ids_b {
            db.insert(DataPoint::new("b", u64::from(*id) + 1000).tag(TRACE_ID_TAG, format!("{id:08x}")));
        }
        let joined = db.join_timestamps("a", "b").unwrap();
        let expected: Vec<(u64, u64)> = ids_a
            .intersection(&ids_b)
            .map(|&id| (u64::from(id), u64::from(id) + 1000))
            .collect();
        prop_assert_eq!(joined, expected);
    }

    /// Batched ingestion is observationally equivalent to the old
    /// materialize-per-record path, modulo grouping: a batch reorders a
    /// table's records by (node) group, so the invariant is that each
    /// per-(table, node) stream keeps its order and nothing is lost,
    /// gained or altered.
    #[test]
    fn batched_ingest_equivalent_to_single(
        records in proptest::collection::vec(arb_record(), 0..100),
        tables in proptest::collection::vec(0u8..3, 0..100),
        nodes in proptest::collection::vec(0u8..3, 0..100),
    ) {
        let table_names = ["tp_a", "tp_b", "tp_c"];
        let node_names = ["n0", "n1", "n2"];
        let routed: Vec<(&str, &str, CompactRecord)> = records
            .iter()
            .enumerate()
            .map(|(i, r)| {
                let t = table_names[usize::from(*tables.get(i).unwrap_or(&0)) % 3];
                let n = node_names[usize::from(*nodes.get(i).unwrap_or(&0)) % 3];
                (t, n, *r)
            })
            .collect();

        let mut batch = RecordBatch::new();
        let mut batched = TraceDb::new();
        let mut single = TraceDb::new();
        for (t, n, r) in &routed {
            batch.push(t, n, *r);
            single.insert(r.to_point(t, n));
        }
        let n = batched.insert_batch(&batch);
        prop_assert_eq!(n as usize, routed.len());
        prop_assert_eq!(batched.len(), single.len());
        for t in table_names {
            match (batched.table(t), single.table(t)) {
                (None, None) => {}
                (Some(b), Some(s)) => {
                    prop_assert_eq!(trace_ids(&batched, t), trace_ids(&single, t));
                    for node in node_names {
                        let filter = Query::new(t).tag_eq("node", node);
                        let bp: Vec<DataPoint> =
                            filter.run_table(b).iter().map(|e| e.to_point()).collect();
                        let sp: Vec<DataPoint> =
                            filter.run_table(s).iter().map(|e| e.to_point()).collect();
                        prop_assert_eq!(bp, sp, "stream ({}, {}) diverged", t, node);
                    }
                }
                (b, s) => prop_assert!(false, "table presence differs: {:?} vs {:?}",
                                       b.is_some(), s.is_some()),
            }
        }
    }
}
