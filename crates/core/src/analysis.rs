//! Offline data cleaning and timestamp alignment (§III-C).
//!
//! "After the data cleaning and recomputation, such as identifying
//! incomplete records, timestamp alignment for the clock skew, etc., one
//! then can query the database to perform customized analysis."

use std::collections::{BTreeSet, HashMap};

use vnet_tsdb::{trace_id_tag, RecordBatch, TraceDb};

use crate::clock_sync::SkewEstimate;
use crate::metrics::{first_seen, scan_table};

/// The trace IDs observed at the first tracepoint, split by whether they
/// were (`complete`) or were not observed at every later one.
fn ids_by_completeness(db: &TraceDb, tracepoints: &[&str], complete: bool) -> BTreeSet<String> {
    let mut tables = tracepoints.iter().map(|tp| first_seen(db, tp));
    let Some(first) = tables.next() else {
        return BTreeSet::new();
    };
    let later: Vec<_> = tables.collect();
    first
        .iter()
        .filter(|&(id, _)| later.iter().all(|seen| seen.get(id).is_some()) == complete)
        .map(|(id, _)| trace_id_tag(id))
        .collect()
}

/// Trace IDs (as `trace_id` tag values) observed at **every** tracepoint
/// in `tracepoints` — the "complete" records safe for end-to-end
/// analysis.
pub fn complete_ids(db: &TraceDb, tracepoints: &[&str]) -> BTreeSet<String> {
    ids_by_completeness(db, tracepoints, true)
}

/// Trace IDs observed at the first tracepoint but missing from at least
/// one later tracepoint — incomplete records (lost packets, truncated
/// traces).
pub fn incomplete_ids(db: &TraceDb, tracepoints: &[&str]) -> BTreeSet<String> {
    ids_by_completeness(db, tracepoints, false)
}

/// Rebuilds the database with every record's timestamp aligned onto the
/// master clock, using each node's skew estimate (records from nodes
/// without an estimate pass through unchanged — e.g. the master itself).
/// Each table keeps its record order.
pub fn align_timestamps(db: &TraceDb, skew_by_node: &HashMap<String, SkewEstimate>) -> TraceDb {
    let mut out = TraceDb::new();
    let mut batch = RecordBatch::new();
    for measurement in db.measurements() {
        let scan = scan_table(db, measurement);
        // A batch numbers a table's records node by node, so each run of
        // one node's records goes in as a batch of its own.
        for run in scan.entries().chunk_by(|a, b| a.node() == b.node()) {
            let skew = skew_by_node.get(run[0].node());
            batch.clear();
            for e in run {
                let mut record = *e.record();
                if let Some(skew) = skew {
                    record.timestamp_ns = skew.align_remote_ns(record.timestamp_ns);
                }
                batch.push(measurement, e.node(), record);
            }
            out.insert_batch(&batch);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::testutil::db_of;
    use vnet_tsdb::CompactRecord;

    type Row = (&'static str, &'static str, CompactRecord);

    fn tagged(m: &'static str, ts: u64, id: u32, node: &'static str) -> Row {
        let record = CompactRecord {
            timestamp_ns: ts,
            trace_id: id,
            flags: 1,
            ..Default::default()
        };
        (m, node, record)
    }

    #[test]
    fn complete_and_incomplete_partition() {
        let mut rows = Vec::new();
        rows.extend([0xa, 0xb, 0xc].map(|id| tagged("tp0", 1, id, "n0")));
        rows.extend([0xa, 0xb].map(|id| tagged("tp1", 2, id, "n0")));
        rows.push(tagged("tp2", 3, 0xa, "n0"));
        let db = db_of(rows);
        let complete = complete_ids(&db, &["tp0", "tp1", "tp2"]);
        assert_eq!(
            complete.into_iter().collect::<Vec<_>>(),
            vec!["0000000a".to_owned()]
        );
        let incomplete = incomplete_ids(&db, &["tp0", "tp1", "tp2"]);
        assert_eq!(
            incomplete.into_iter().collect::<Vec<_>>(),
            vec!["0000000b".to_owned(), "0000000c".to_owned()]
        );
    }

    #[test]
    fn missing_table_means_nothing_complete() {
        let db = db_of([tagged("tp0", 1, 0xa, "n0")]);
        assert!(complete_ids(&db, &["tp0", "absent"]).is_empty());
        assert!(complete_ids(&TraceDb::new(), &["tp0"]).is_empty());
    }

    #[test]
    fn alignment_applies_per_node_offsets() {
        let db = db_of([
            tagged("tp0", 1_000, 0xa, "master"),
            tagged("tp1", 2_000, 0xa, "remote"),
        ]);
        let mut skews = HashMap::new();
        skews.insert(
            "remote".to_owned(),
            SkewEstimate {
                one_way_ns: 0,
                offset_ns: 700,
                skew_ns: 700,
                samples: 100,
            },
        );
        let aligned = align_timestamps(&db, &skews);
        assert_eq!(
            aligned.table("tp0").unwrap().entries()[0].timestamp_ns(),
            1_000
        );
        assert_eq!(
            aligned.table("tp1").unwrap().entries()[0].timestamp_ns(),
            1_300
        );
        // Join now reflects true latency.
        assert_eq!(
            aligned.join_timestamps("tp0", "tp1").unwrap(),
            vec![(1_000, 1_300)]
        );
    }

    #[test]
    fn alignment_keeps_records_and_their_order() {
        // One table fed by two nodes in turn, then twice by the same one.
        let nodes = ["master", "remote", "master", "remote", "remote", "master"];
        let rows = nodes.iter().zip(0u32..);
        let db = db_of(rows.map(|(&node, i)| tagged("tp", 1_000 * u64::from(i), i, node)));
        let mut skews = HashMap::new();
        skews.insert(
            "remote".to_owned(),
            SkewEstimate {
                one_way_ns: 0,
                offset_ns: 10,
                skew_ns: 10,
                samples: 100,
            },
        );
        let aligned = align_timestamps(&db, &skews);
        let table = aligned.table("tp").unwrap();
        let mut names: Vec<&str> = table.entries().iter().map(|e| e.node()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names, ["master", "remote"], "records from both nodes");
        let got: Vec<_> = table
            .entries()
            .iter()
            .map(|e| (e.node(), *e.record()))
            .collect();
        let want: Vec<_> = db
            .table("tp")
            .unwrap()
            .entries()
            .iter()
            .map(|e| {
                let mut record = *e.record();
                record.timestamp_ns -= if e.node() == "remote" { 10 } else { 0 };
                (e.node(), record)
            })
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn align_then_decompose_pipeline() {
        let mut rows = Vec::new();
        for (id, t0, t1) in [(0xa, 100u64, 900u64), (0xb, 200, 1_000)] {
            rows.push(tagged("tp0", t0, id, "master"));
            rows.push(tagged("tp1", t1, id, "remote"));
        }
        let db = db_of(rows);
        let mut skews = HashMap::new();
        skews.insert(
            "remote".to_owned(),
            SkewEstimate {
                one_way_ns: 0,
                offset_ns: 300,
                skew_ns: 300,
                samples: 100,
            },
        );
        let aligned = align_timestamps(&db, &skews);
        let segs = crate::metrics::decompose(&aligned, &["tp0", "tp1"]);
        assert_eq!(segs.len(), 1);
        // Raw delta is 800ns; aligned is 500ns.
        assert_eq!(segs[0].stats.mean_ns, 500.0);
    }

    #[test]
    fn cleaning_and_alignment_survive_a_cold_reopen() {
        let mut batch = RecordBatch::new();
        for i in 0..100u32 {
            let record = |ts: u64| CompactRecord {
                timestamp_ns: ts,
                trace_id: i,
                flags: 1,
                ..Default::default()
            };
            batch.push("tp0", "master", record(u64::from(i) * 1_000));
            if i % 4 != 0 {
                batch.push("tp1", "remote", record(u64::from(i) * 1_000 + 900));
            }
        }
        let (mem, cold) = crate::metrics::testutil::mem_and_cold("analysis", &batch);
        let chain = ["tp0", "tp1"];
        let complete = complete_ids(&cold.db, &chain);
        assert_eq!(complete.len(), 75);
        assert_eq!(complete, complete_ids(&mem, &chain));
        let incomplete = incomplete_ids(&cold.db, &chain);
        assert_eq!(incomplete.len(), 25);
        assert!(incomplete.contains("00000004"));
        assert_eq!(incomplete, incomplete_ids(&mem, &chain));

        let mut skews = HashMap::new();
        skews.insert(
            "remote".to_owned(),
            SkewEstimate {
                one_way_ns: 0,
                offset_ns: 400,
                skew_ns: 400,
                samples: 100,
            },
        );
        let aligned = align_timestamps(&cold.db, &skews);
        assert_eq!(aligned.len(), 175);
        let joined = aligned.join_timestamps("tp0", "tp1").unwrap();
        assert_eq!(joined[0], (1_000, 1_500));
        let mem_aligned = align_timestamps(&mem, &skews);
        assert_eq!(joined, mem_aligned.join_timestamps("tp0", "tp1").unwrap());
    }
}
