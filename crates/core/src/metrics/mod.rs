//! Network performance metrics computed from raw trace data (§III-D).
//!
//! All metrics are *offline* computations over the trace database:
//! throughput, latency (two-tracepoint deltas joined by trace ID) and its
//! end-to-end decomposition, incomplete records, jitter, packet loss,
//! per-flow breakdowns and drop reasons.

pub mod decomposition;
pub mod drops;
pub mod flow;
pub mod jitter;
pub mod loss;
pub mod throughput;

pub use decomposition::{
    decompose, incomplete_ids, latency_between, per_packet_segments, SegmentStats,
};
pub use drops::{drop_breakdown, drop_breakdown_all};
pub use flow::{per_flow_loss, per_flow_throughput};
pub use jitter::{jitter_range, JitterTracker};
pub use loss::{packet_loss, PacketLoss};
pub use throughput::{throughput_at, throughput_bps, ThroughputWindow, TRACE_ID_WIRE_BYTES};
pub use vnet_tsdb::{stats_from_ns, LatencyStats};

use vnet_tsdb::{FirstSeen, Query, ScanResult, TraceDb};

/// Everything stored under `measurement`: sealed segments as well as the
/// hot tail, so offline metrics answer the same on a reopened disk-backed
/// store. A table that does not exist (or cannot be scanned) counts as
/// empty.
pub(crate) fn scan_table(db: &TraceDb, measurement: &str) -> ScanResult {
    Query::new(measurement).scan(db).unwrap_or_default()
}

/// Timestamp of the first record (in ingest order) of each trace ID seen
/// at `measurement`; empty under [`scan_table`]'s conditions.
pub(crate) fn first_seen(db: &TraceDb, measurement: &str) -> FirstSeen {
    FirstSeen::scan(db, measurement).unwrap_or_default()
}

#[cfg(test)]
pub(crate) mod testutil {
    use vnet_tsdb::{CompactRecord, RecordBatch, StoreOptions, TraceDb};

    /// An in-memory store holding `(table, node, record)` rows, each
    /// table's in the order given.
    pub(crate) fn db_of<'a>(
        rows: impl IntoIterator<Item = (&'a str, &'a str, CompactRecord)>,
    ) -> TraceDb {
        let mut db = TraceDb::new();
        let mut batch = RecordBatch::new();
        for (table, node, record) in rows {
            batch.clear();
            batch.push(table, node, record);
            db.insert_batch(&batch);
        }
        db
    }

    /// A disk-backed store reopened cold, and the directory it lives in
    /// (removed on drop).
    pub(crate) struct ColdDb {
        pub(crate) db: TraceDb,
        dir: std::path::PathBuf,
    }

    impl Drop for ColdDb {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.dir);
        }
    }

    /// Stores `batch` twice: in memory, and on disk under a directory
    /// named after `test` — sealed in several segments, flushed, dropped
    /// and reopened, so the cold twin's hot tail is empty.
    pub(crate) fn mem_and_cold(test: &str, batch: &RecordBatch) -> (TraceDb, ColdDb) {
        let dir = std::env::temp_dir().join(format!("vnt-{test}-cold-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = StoreOptions {
            seal_threshold: 40,
            fsync: false,
            ..StoreOptions::default()
        };
        let mut mem = TraceDb::new();
        mem.insert_batch(batch);
        let mut disk = TraceDb::open_with(&dir, options.clone()).unwrap();
        disk.insert_batch(batch);
        disk.flush().unwrap();
        drop(disk);
        let db = TraceDb::open_with(&dir, options).unwrap();
        for m in db.measurements() {
            assert!(db.table(m).is_none_or(|t| t.is_empty()), "no hot tail");
        }
        (mem, ColdDb { db, dir })
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use vnet_tsdb::{CompactRecord, RecordBatch, TraceDb};

    use super::*;
    use crate::clock_sync::{align_timestamps, SkewEstimate};

    /// One offline answer.
    type Answer = fn(&TraceDb) -> Box<dyn std::fmt::Debug>;

    /// Every public offline function over the trace database, once each.
    const ANSWERS: [(&str, Answer); 11] = [
        ("latency_between", |db| {
            Box::new(latency_between(db, "tp0", "tp2"))
        }),
        ("decompose", |db| Box::new(decompose(db, &CHAIN))),
        ("per_packet_segments", |db| {
            Box::new(per_packet_segments(db, &CHAIN))
        }),
        ("incomplete_ids", |db| Box::new(incomplete_ids(db, &CHAIN))),
        ("packet_loss", |db| Box::new(packet_loss(db, "tp0", "tp2"))),
        ("per_flow_loss", |db| {
            Box::new(per_flow_loss(db, "tp0", "tp2"))
        }),
        ("throughput_at", |db| Box::new(throughput_at(db, "tp0"))),
        ("per_flow_throughput", |db| {
            Box::new(per_flow_throughput(db, "tp0"))
        }),
        ("drop_breakdown", |db| {
            Box::new(drop_breakdown(db, "vm2_drops"))
        }),
        ("drop_breakdown_all", |db| Box::new(drop_breakdown_all(db))),
        ("align_timestamps", |db| {
            let skew = SkewEstimate {
                one_way_ns: 0,
                offset_ns: 400,
                skew_ns: 400,
                samples: 100,
            };
            let aligned = align_timestamps(db, &HashMap::from([("vm2".to_owned(), skew)]));
            Box::new((aligned.len(), aligned.join_timestamps("tp1", "tp2")))
        }),
    ];

    const CHAIN: [&str; 3] = ["tp0", "tp1", "tp2"];

    /// Three flows through a three-tracepoint chain, the last hop on
    /// another node; a quarter of the packets never reach it and are
    /// dropped there for one of three reasons, and one packet in seven
    /// carries no trace ID.
    fn batch() -> RecordBatch {
        let mut batch = RecordBatch::new();
        for i in 0..120u32 {
            let record = |timestamp_ns: u64, flags: u8| CompactRecord {
                timestamp_ns,
                trace_id: i,
                pkt_len: 100 + (i % 3) * 400,
                saddr: 0x0a00_0001,
                daddr: 0x0a00_0002,
                sport: 1_000 + (i % 3) as u16,
                dport: 7,
                flags,
                ..Default::default()
            };
            let t0 = u64::from(i) * 1_000;
            batch.push("tp0", "vm1", record(t0, u8::from(i % 7 != 0)));
            batch.push("tp1", "vm1", record(t0 + 100, 1));
            if i % 4 == 0 {
                batch.push("vm2_drops", "vm2", record(t0 + 200, 2 << (i % 3)));
            } else {
                batch.push("tp2", "vm2", record(t0 + 900 + 50 * u64::from(i), 1));
            }
        }
        batch
    }

    #[test]
    fn every_offline_answer_survives_a_cold_reopen() {
        let (mem, cold) = testutil::mem_and_cold("metrics", &batch());
        for (name, answer) in ANSWERS {
            let [want, got, none] =
                [&mem, &cold.db, &TraceDb::new()].map(|db| format!("{:?}", answer(db)));
            assert_ne!(want, none, "{name}: the batch answers something");
            assert_eq!(got, want, "{name}: cold == memory");
        }
    }
}
