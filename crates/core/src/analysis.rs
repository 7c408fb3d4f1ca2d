//! Offline data cleaning and timestamp alignment (§III-C).
//!
//! "After the data cleaning and recomputation, such as identifying
//! incomplete records, timestamp alignment for the clock skew, etc., one
//! then can query the database to perform customized analysis."

use std::collections::{BTreeSet, HashMap};

use vnet_tsdb::{DataPoint, TraceDb};

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
        .filter(|&(key, _)| later.iter().all(|seen| seen.get(key).is_some()) == complete)
        .map(|(key, _)| key.to_string())
        .collect()
}

/// Trace IDs observed at **every** tracepoint in `tracepoints` — the
/// "complete" records safe for end-to-end analysis.
pub fn complete_ids(db: &TraceDb, tracepoints: &[&str]) -> BTreeSet<String> {
    ids_by_completeness(db, tracepoints, true)
}

/// Trace IDs observed at the first tracepoint but missing from at least
/// one later tracepoint — incomplete records (lost packets, truncated
/// traces).
pub fn incomplete_ids(db: &TraceDb, tracepoints: &[&str]) -> BTreeSet<String> {
    ids_by_completeness(db, tracepoints, false)
}

/// Rebuilds the database with every point's timestamp aligned onto the
/// master clock, using each node's skew estimate (points from nodes
/// without an estimate pass through unchanged — e.g. the master itself).
pub fn align_timestamps(db: &TraceDb, skew_by_node: &HashMap<String, SkewEstimate>) -> TraceDb {
    let mut out = TraceDb::new();
    for measurement in db.measurements() {
        for e in scan_table(db, measurement).entries() {
            let mut p: DataPoint = e.to_point();
            if let Some(skew) = p.tag_value("node").and_then(|n| skew_by_node.get(n)) {
                p.timestamp_ns = skew.align_remote_ns(p.timestamp_ns);
            }
            out.insert(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_tsdb::TRACE_ID_TAG;

    fn tagged(m: &str, ts: u64, id: &str, node: &str) -> DataPoint {
        DataPoint::new(m, ts)
            .tag(TRACE_ID_TAG, id)
            .tag("node", node)
    }

    #[test]
    fn complete_and_incomplete_partition() {
        let mut db = TraceDb::new();
        for id in ["a", "b", "c"] {
            db.insert(tagged("tp0", 1, id, "n0"));
        }
        for id in ["a", "b"] {
            db.insert(tagged("tp1", 2, id, "n0"));
        }
        db.insert(tagged("tp2", 3, "a", "n0"));
        let complete = complete_ids(&db, &["tp0", "tp1", "tp2"]);
        assert_eq!(
            complete.into_iter().collect::<Vec<_>>(),
            vec!["a".to_owned()]
        );
        let incomplete = incomplete_ids(&db, &["tp0", "tp1", "tp2"]);
        assert_eq!(
            incomplete.into_iter().collect::<Vec<_>>(),
            vec!["b".to_owned(), "c".to_owned()]
        );
    }

    #[test]
    fn missing_table_means_nothing_complete() {
        let mut db = TraceDb::new();
        db.insert(tagged("tp0", 1, "a", "n0"));
        assert!(complete_ids(&db, &["tp0", "absent"]).is_empty());
        assert!(complete_ids(&TraceDb::new(), &["tp0"]).is_empty());
    }

    #[test]
    fn alignment_applies_per_node_offsets() {
        let mut db = TraceDb::new();
        db.insert(tagged("tp0", 1_000, "a", "master"));
        db.insert(tagged("tp1", 2_000, "a", "remote"));
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
    fn align_then_decompose_pipeline() {
        let mut db = TraceDb::new();
        for (id, t0, t1) in [("a", 100u64, 900u64), ("b", 200, 1_000)] {
            db.insert(tagged("tp0", t0, id, "master"));
            db.insert(tagged("tp1", t1, id, "remote"));
        }
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
        use vnet_tsdb::{CompactRecord, RecordBatch};
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
