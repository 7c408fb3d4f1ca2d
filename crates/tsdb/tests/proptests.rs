//! Property-based tests for the trace store and its aggregations.

use proptest::prelude::*;
use vnet_tsdb::query::{aggregate, percentiles, Query};
use vnet_tsdb::{CompactRecord, RecordBatch, TraceDb};

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

/// One table `m` holding `records` in order.
fn table_of(records: impl IntoIterator<Item = CompactRecord>) -> TraceDb {
    let mut batch = RecordBatch::new();
    for record in records {
        batch.push("m", "n", record);
    }
    let mut db = TraceDb::new();
    db.insert_batch(&batch);
    db
}

/// `values` as the packet lengths of one table's records.
fn lengths(values: &[u32]) -> TraceDb {
    table_of(
        values
            .iter()
            .zip(0u64..)
            .map(|(&pkt_len, timestamp_ns)| CompactRecord {
                timestamp_ns,
                pkt_len,
                ..Default::default()
            }),
    )
}

proptest! {
    /// Percentiles are order statistics: within [min, max], monotone in q.
    #[test]
    fn percentile_properties(values in proptest::collection::vec(0u32..1_000_000, 1..200)) {
        let db = lengths(&values);
        let scan = Query::new("m").scan(&db).unwrap();
        let pts = scan.entries();
        let p = percentiles(&pts, "pkt_len", &[0.5, 0.99, 0.0, 1.0]).unwrap();
        let (p50, p99, p0, p100) = (p[0], p[1], p[2], p[3]);
        let min = f64::from(*values.iter().min().unwrap());
        let max = f64::from(*values.iter().max().unwrap());
        prop_assert_eq!(p0, min);
        prop_assert_eq!(p100, max);
        prop_assert!(p50 <= p99);
        prop_assert!((min..=max).contains(&p50));
        // Every percentile is an actual sample value.
        prop_assert!(values.iter().any(|&v| f64::from(v) == p99));
    }

    /// Aggregate count/mean/min/max are mutually consistent.
    #[test]
    fn aggregate_consistency(values in proptest::collection::vec(0u32..1_000_000, 1..200)) {
        let db = lengths(&values);
        let scan = Query::new("m").scan(&db).unwrap();
        let agg = aggregate(&scan.entries(), "pkt_len");
        prop_assert_eq!(agg.count, values.len());
        let sum: f64 = values.iter().map(|&v| f64::from(v)).sum();
        prop_assert!((agg.mean - sum / agg.count as f64).abs() < 1e-9);
        prop_assert!(agg.min <= agg.mean && agg.mean <= agg.max);
    }

    /// Time-range queries return exactly the records in range, in
    /// insertion order.
    #[test]
    fn time_range_partition(
        stamps in proptest::collection::vec(0u64..10_000, 1..100),
        lo in 0u64..10_000,
        width in 0u64..5_000,
    ) {
        let hi = lo + width;
        let db = table_of(stamps.iter().map(|&timestamp_ns| CompactRecord {
            timestamp_ns,
            ..Default::default()
        }));
        let inside = Query::new("m").time_range(lo, hi).scan(&db).unwrap();
        let expected: Vec<u64> =
            stamps.iter().copied().filter(|t| (lo..=hi).contains(t)).collect();
        let got: Vec<u64> = inside.entries().iter().map(|e| e.record().timestamp_ns).collect();
        prop_assert_eq!(got, expected);
    }

    /// join_timestamps pairs exactly the trace IDs present in both
    /// tables.
    #[test]
    fn join_is_an_intersection(ids_a in proptest::collection::btree_set(0u32..64, 0..32),
                               ids_b in proptest::collection::btree_set(0u32..64, 0..32)) {
        let seen = |id: u32, timestamp_ns| CompactRecord {
            timestamp_ns,
            trace_id: id,
            flags: 1,
            ..Default::default()
        };
        let mut batch = RecordBatch::new();
        for &id in &ids_a {
            batch.push("a", "n", seen(id, u64::from(id)));
        }
        for &id in &ids_b {
            batch.push("b", "n", seen(id, u64::from(id) + 1000));
        }
        let mut db = TraceDb::new();
        db.insert_batch(&batch);
        let joined = db.join_timestamps("a", "b").unwrap();
        let expected: Vec<(u64, u64)> = ids_a
            .intersection(&ids_b)
            .map(|&id| (u64::from(id), u64::from(id) + 1000))
            .collect();
        prop_assert_eq!(joined, expected);
    }

    /// A batch reorders a table's records by (node) group and does
    /// nothing else: each per-(table, node) stream keeps its order, and
    /// nothing is lost, gained or altered.
    #[test]
    fn batched_ingest_keeps_every_stream_in_order(
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
        for (t, n, r) in &routed {
            batch.push(t, n, *r);
        }
        let mut db = TraceDb::new();
        prop_assert_eq!(db.insert_batch(&batch) as usize, routed.len());
        prop_assert_eq!(db.len(), routed.len());
        for t in table_names {
            for node in node_names {
                let stream: Vec<CompactRecord> = routed
                    .iter()
                    .filter(|row| (row.0, row.1) == (t, node))
                    .map(|row| row.2)
                    .collect();
                let scan = Query::new(t).scan(&db).unwrap();
                let stored: Vec<CompactRecord> = scan
                    .entries()
                    .iter()
                    .filter(|e| e.node() == node)
                    .map(|e| *e.record())
                    .collect();
                prop_assert_eq!(stored, stream, "stream ({}, {}) diverged", t, node);
            }
        }
    }
}
