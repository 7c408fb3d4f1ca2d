//! # vnet-tsdb — an embedded time-series trace store
//!
//! Stand-in for the InfluxDB instance vNetTracer uses for offline storage
//! (§III-E: "We adopt InfluxDB for the offline storage and create tables
//! for each tracepoint"). The collector dumps trace records here; offline
//! analysis restricts a table to a time window, joins records across
//! tracepoints by packet trace ID, and aggregates fields.
//!
//! One ingest path, [`TraceDb::insert_batch`], feeds the store, and it
//! stores one row form from hot tail to segment: agents drain perf rings
//! into a reusable [`RecordBatch`] of fixed-size [`CompactRecord`]s, whole
//! groups are appended to their table's hot tail as `(node index,
//! record)` rows in ingest order — no per-record allocation or name
//! hashing — and a seal transposes those rows into a columnar segment as
//! they stand. Reads go through
//! [`Query::scan`] (or the streaming [`Query::walk`] under it) and see
//! [`Entry`] views: a record and its node's name. The JSON-lines dump
//! ([`write_json_lines`], [`import_json_lines`]) writes and reads the
//! record directly, so there is one record form from the eBPF stack to
//! the dump.
//!
//! ## Example
//!
//! ```
//! use vnet_tsdb::{CompactRecord, RecordBatch, TraceDb};
//! use vnet_tsdb::query::{aggregate, Query};
//!
//! let seen = |ts| CompactRecord { timestamp_ns: ts, trace_id: 42, pkt_len: 60, flags: 1, ..Default::default() };
//! let mut batch = RecordBatch::new();
//! batch.push("flannel1", "node1", seen(100));
//! batch.push("flannel2", "node2", seen(190));
//! let mut db = TraceDb::new();
//! db.insert_batch(&batch);
//! // Latency between the two VXLAN devices for packet 42:
//! let pairs = db.join_timestamps("flannel1", "flannel2").unwrap();
//! assert_eq!(pairs, vec![(100, 190)]);
//! let scan = Query::new("flannel1").scan(&db).unwrap();
//! assert_eq!(aggregate(&scan.entries(), "pkt_len").mean, 60.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod codec;
pub mod compact;
pub mod join;
mod ordered;
pub mod persist;
pub mod query;
pub mod record;
pub mod segment;
pub mod sketch;
pub mod store;
pub mod table;
pub mod trace_id_map;
pub mod wal;

pub use batch::{BatchGroup, RecordBatch};
pub use join::FirstSeen;
pub use persist::{
    import_json_lines, read_json_lines, write_json_lines, PersistError, DROP_REASON_TAG,
    TRACE_ID_TAG,
};
pub use query::{
    aggregate, percentiles, stats_from_ns, Aggregate, LatencyStats, Query, Rows, ScanResult,
    ScanStats,
};
pub use record::{
    drop_reason_code, drop_reason_name, trace_id_tag, CompactRecord, COMPACT_RECORD_BYTES,
};
pub use segment::{columns, ColumnId, ColumnSet, Segment, SegmentMeta};
pub use sketch::{LogHistogram, DEFAULT_SKETCH_ERROR};
pub use store::{MeasurementStorage, StorageStats, StoreError, StoreOptions, TraceDb};
pub use table::{Entry, Table};
pub use trace_id_map::TraceIdMap;
