//! Network performance metrics computed from raw trace data (§III-D).
//!
//! All metrics are *offline* computations over the trace database:
//! throughput, latency (two-tracepoint deltas joined by trace ID), jitter,
//! packet loss, per-flow breakdowns and end-to-end latency decomposition.

pub mod decomposition;
pub mod drops;
pub mod flow;
pub mod jitter;
pub mod latency;
pub mod loss;
pub mod throughput;

pub use decomposition::{decompose, per_packet_segments, SegmentStats};
pub use drops::{drop_breakdown, drop_breakdown_all};
pub use flow::{per_flow_loss, per_flow_throughput};
pub use jitter::{jitter_range, JitterTracker};
pub use latency::latency_between;
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
