//! # vnet-tsdb — an embedded time-series trace store
//!
//! Stand-in for the InfluxDB instance vNetTracer uses for offline storage
//! (§III-E: "We adopt InfluxDB for the offline storage and create tables
//! for each tracepoint"). The collector dumps trace records here; offline
//! analysis filters by tags and time, joins records across tracepoints by
//! packet trace ID, and aggregates fields.
//!
//! Two ingest paths feed the store. Hand-built [`DataPoint`]s go through
//! [`TraceDb::insert`]. The hot path is [`TraceDb::insert_batch`]: agents
//! drain perf rings into a reusable [`RecordBatch`] of fixed-size
//! [`CompactRecord`]s, and whole groups are appended into per-(table,
//! node) shards keyed by interned [`Symbol`]s — no per-record allocation
//! or name hashing. Reads see both paths uniformly through
//! [`Entry`] views.
//!
//! ## Example
//!
//! ```
//! use vnet_tsdb::{DataPoint, TraceDb};
//! use vnet_tsdb::query::{aggregate, Query};
//!
//! let mut db = TraceDb::new();
//! db.insert(DataPoint::new("flannel1", 100).tag("trace_id", "42").field("len", 60u64));
//! db.insert(DataPoint::new("flannel2", 190).tag("trace_id", "42").field("len", 60u64));
//! // Latency between the two VXLAN devices for packet 42:
//! let pairs = db.join_timestamps("flannel1", "flannel2").unwrap();
//! assert_eq!(pairs, vec![(100, 190)]);
//! let entries = Query::new("flannel1").run(&db);
//! assert_eq!(aggregate(&entries, "len").mean, 60.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod batch;
pub mod codec;
pub mod compact;
pub mod join;
pub mod persist;
pub mod point;
pub mod query;
pub mod record;
pub mod segment;
pub mod sketch;
pub mod store;
pub mod symbol;
pub mod table;
pub mod wal;

pub use batch::{BatchGroup, RecordBatch};
pub use join::{FirstSeen, TraceKey};
pub use persist::{read_json_lines, write_json_lines, PersistError};
pub use point::{DataPoint, FieldValue};
pub use query::{
    aggregate, percentile, percentiles, Aggregate, Query, Rows, ScanResult, ScanStats,
};
pub use record::{drop_reason_code, drop_reason_name, CompactRecord, COMPACT_RECORD_BYTES};
pub use segment::{columns, ColumnId, ColumnSet, Segment, SegmentMeta};
pub use sketch::{LogHistogram, DEFAULT_SKETCH_ERROR};
pub use store::{MeasurementStorage, StorageStats, StoreError, StoreOptions, TraceDb};
pub use symbol::{Symbol, SymbolTable};
pub use table::{Entry, RecordShard, Table, DROP_REASON_TAG, TRACE_ID_TAG};
