//! Per-measurement tables: point storage plus per-node record shards,
//! unified behind the [`Entry`] read view.
//!
//! A table holds two kinds of data. Hand-built [`DataPoint`]s (offline
//! analysis artifacts, persisted files) keep the old row form. Records
//! arriving through the batched ingest path stay in compact integer form
//! inside one [`RecordShard`] per originating node — no tags or fields
//! are materialized at ingest. Read paths see both uniformly as
//! [`Entry`] values, ordered by insertion sequence.

use std::borrow::Cow;

use crate::join::TraceKey;
use crate::point::DataPoint;
use crate::record::CompactRecord;
use crate::symbol::Symbol;

/// The tag key under which vNetTracer stores the per-packet trace ID, by
/// which records for one packet are joined across tracepoints ("records
/// are indexed by their packet IDs", §III-C; see [`crate::join`]).
pub const TRACE_ID_TAG: &str = "trace_id";

/// The tag key under which drop records carry their typed drop reason
/// (derived from record flag bits 1–3; absent on non-drop records).
pub const DROP_REASON_TAG: &str = "drop_reason";

/// All compact records one node contributed to a table. Shards are
/// append-only and keyed by the node's interned [`Symbol`]; the resolved
/// name is cached once per shard for read-side materialization.
#[derive(Debug, Clone)]
pub struct RecordShard {
    node: Symbol,
    node_name: String,
    records: Vec<(u64, CompactRecord)>,
}

impl RecordShard {
    /// The owning node's name.
    pub fn node_name(&self) -> &str {
        &self.node_name
    }

    /// Number of records in the shard.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the shard is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The shard's `(sequence, record)` pairs, in ingest order.
    pub(crate) fn seq_records(&self) -> &[(u64, CompactRecord)] {
        &self.records
    }
}

/// A borrowed view of one stored entry — either a materialized
/// [`DataPoint`] or a compact record in a shard. Tag and field accessors
/// present both identically, so queries and metrics need not know how an
/// entry is stored.
#[derive(Debug, Clone, Copy)]
pub enum Entry<'a> {
    /// A point inserted in row form.
    Point(&'a DataPoint),
    /// A compact record in a per-node shard.
    Record {
        /// The table (measurement) name.
        measurement: &'a str,
        /// The shard's node name.
        node: &'a str,
        /// The record itself.
        record: &'a CompactRecord,
    },
}

impl<'a> Entry<'a> {
    /// The entry's timestamp in nanoseconds.
    pub fn timestamp_ns(&self) -> u64 {
        match self {
            Entry::Point(p) => p.timestamp_ns,
            Entry::Record { record, .. } => record.timestamp_ns,
        }
    }

    /// The entry's measurement (table) name.
    pub fn measurement(&self) -> &'a str {
        match self {
            Entry::Point(p) => &p.measurement,
            Entry::Record { measurement, .. } => measurement,
        }
    }

    /// A tag's value. Record-backed entries derive `node`, `flow`,
    /// `direction` and [`TRACE_ID_TAG`] from the compact form.
    pub fn tag(&self, key: &str) -> Option<Cow<'a, str>> {
        match self {
            Entry::Point(p) => p.tag_value(key).map(Cow::Borrowed),
            Entry::Record { node, record, .. } => match key {
                "node" => Some(Cow::Borrowed(*node)),
                "flow" => Some(Cow::Owned(record.flow())),
                "direction" => Some(Cow::Borrowed(record.direction_str())),
                TRACE_ID_TAG if record.has_trace_id() => Some(Cow::Owned(record.trace_id_hex())),
                DROP_REASON_TAG => record.drop_reason().map(Cow::Borrowed),
                _ => None,
            },
        }
    }

    /// The entry's trace ID as a join key, if it carries one.
    pub fn trace_key(&self) -> Option<TraceKey<'a>> {
        match self {
            Entry::Point(p) => p.tag_value(TRACE_ID_TAG).map(TraceKey::parse),
            Entry::Record { record, .. } => record
                .has_trace_id()
                .then_some(TraceKey::Id(record.trace_id)),
        }
    }

    /// A numeric field as `u64`. Record-backed entries expose `pkt_len`
    /// and `cpu`.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self {
            Entry::Point(p) => p.field_value(key).and_then(|v| v.as_u64()),
            Entry::Record { record, .. } => match key {
                "pkt_len" => Some(u64::from(record.pkt_len)),
                "cpu" => Some(u64::from(record.cpu)),
                _ => None,
            },
        }
    }

    /// A numeric field as `f64`.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        match self {
            Entry::Point(p) => p.field_value(key).and_then(|v| v.as_f64()),
            Entry::Record { .. } => self.field_u64(key).map(|v| v as f64),
        }
    }

    /// Materializes the entry as an owned [`DataPoint`] (cloning for
    /// point-backed entries).
    pub fn to_point(&self) -> DataPoint {
        match self {
            Entry::Point(p) => (*p).clone(),
            Entry::Record {
                measurement,
                node,
                record,
            } => record.to_point(measurement, node),
        }
    }
}

/// All entries of one measurement (one table per tracepoint).
#[derive(Debug, Default, Clone)]
pub struct Table {
    name: String,
    next_seq: u64,
    points: Vec<(u64, DataPoint)>,
    shards: Vec<RecordShard>,
}

impl Table {
    /// Creates an empty table named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            ..Default::default()
        }
    }

    /// The table's measurement name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a point.
    pub fn insert(&mut self, point: DataPoint) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.points.push((seq, point));
    }

    /// Appends a slice of compact records into `node`'s shard (created on
    /// demand) — the batched ingest path. Records are copied as-is; no
    /// tags or fields are materialized.
    pub fn insert_records(&mut self, node: Symbol, node_name: &str, records: &[CompactRecord]) {
        let at = self.shards.iter().position(|s| s.node == node);
        let at = at.unwrap_or_else(|| {
            self.shards.push(RecordShard {
                node,
                node_name: node_name.to_owned(),
                records: Vec::new(),
            });
            self.shards.len() - 1
        });
        let shard = &mut self.shards[at];
        for &record in records {
            shard.records.push((self.next_seq, record));
            self.next_seq += 1;
        }
    }

    /// The table's per-node record shards.
    pub fn shards(&self) -> &[RecordShard] {
        &self.shards
    }

    /// All entries — points and shard records — in insertion order.
    pub fn entries(&self) -> Vec<Entry<'_>> {
        self.seq_entries().into_iter().map(|(_, e)| e).collect()
    }

    /// All entries with their insertion sequence numbers, in sequence
    /// order. The store uses this to merge the hot tail with sealed
    /// segments by sequence.
    pub(crate) fn seq_entries(&self) -> Vec<(u64, Entry<'_>)> {
        let mut out: Vec<(u64, Entry<'_>)> = Vec::with_capacity(self.len());
        for (seq, p) in &self.points {
            out.push((*seq, Entry::Point(p)));
        }
        for shard in &self.shards {
            for (seq, record) in &shard.records {
                out.push((
                    *seq,
                    Entry::Record {
                        measurement: &self.name,
                        node: &shard.node_name,
                        record,
                    },
                ));
            }
        }
        out.sort_by_key(|(seq, _)| *seq);
        out
    }

    /// Moves all record shards out of the table (sealing); the sequence
    /// counter and point storage are untouched, so future inserts keep
    /// numbering after the sealed records.
    pub(crate) fn take_shards(&mut self) -> Vec<RecordShard> {
        std::mem::take(&mut self.shards)
    }

    /// Raises the sequence counter to at least `seq` — used on reopen so
    /// hot-tail inserts number after the records already sealed on disk.
    pub(crate) fn reserve_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Whether the table holds hand-inserted points.
    pub(crate) fn has_points(&self) -> bool {
        !self.points.is_empty()
    }

    /// Number of shard records currently resident in memory.
    pub(crate) fn hot_records(&self) -> usize {
        self.shards.iter().map(RecordShard::len).sum()
    }

    /// Number of entries (points plus shard records).
    pub fn len(&self) -> usize {
        self.points.len() + self.shards.iter().map(RecordShard::len).sum::<usize>()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::SymbolTable;

    #[test]
    fn points_keep_insertion_order_and_their_trace_keys() {
        let mut t = Table::new("m");
        t.insert(
            DataPoint::new("m", 1)
                .tag(TRACE_ID_TAG, "a")
                .field("v", 1u64),
        );
        t.insert(
            DataPoint::new("m", 2)
                .tag(TRACE_ID_TAG, "b")
                .field("v", 2u64),
        );
        t.insert(
            DataPoint::new("m", 3)
                .tag(TRACE_ID_TAG, "a")
                .field("v", 3u64),
        );
        t.insert(DataPoint::new("m", 4).field("v", 4u64)); // no id
        assert_eq!(t.len(), 4);
        let keys: Vec<_> = t.entries().iter().map(Entry::trace_key).collect();
        let (a, b) = (Some(TraceKey::Tag("a")), Some(TraceKey::Tag("b")));
        assert_eq!(keys, vec![a, b, a, None]);
    }

    #[test]
    fn empty_table() {
        let t = Table::new("m");
        assert!(t.is_empty());
        assert!(t.entries().is_empty());
        assert!(t.shards().is_empty());
    }

    fn rec(ts: u64, trace_id: u32) -> CompactRecord {
        CompactRecord {
            timestamp_ns: ts,
            trace_id,
            pkt_len: 60,
            flags: 1,
            ..Default::default()
        }
    }

    #[test]
    fn records_shard_by_node_and_merge_in_sequence_order() {
        let mut syms = SymbolTable::new();
        let n1 = syms.intern("n1");
        let n2 = syms.intern("n2");
        let mut t = Table::new("m");
        t.insert(DataPoint::new("m", 5).tag(TRACE_ID_TAG, "00000001"));
        t.insert_records(n1, "n1", &[rec(10, 2), rec(20, 3)]);
        t.insert_records(n2, "n2", &[rec(30, 4)]);
        t.insert_records(n1, "n1", &[rec(40, 5)]);
        assert_eq!(t.len(), 5);
        assert_eq!(t.shards().len(), 2, "one shard per node");
        assert_eq!(t.shards()[0].node_name(), "n1");
        assert_eq!(t.shards()[0].len(), 3);
        let stamps: Vec<u64> = t.entries().iter().map(Entry::timestamp_ns).collect();
        assert_eq!(stamps, vec![5, 10, 20, 30, 40], "insertion order");
    }

    #[test]
    fn entry_views_unify_points_and_records() {
        let mut syms = SymbolTable::new();
        let n1 = syms.intern("server1");
        let mut t = Table::new("m");
        t.insert_records(n1, "server1", &[rec(10, 0xab)]);
        let entries = t.entries();
        let e = &entries[0];
        assert_eq!(e.measurement(), "m");
        assert_eq!(e.tag("node").as_deref(), Some("server1"));
        assert_eq!(e.tag(TRACE_ID_TAG).as_deref(), Some("000000ab"));
        assert_eq!(e.tag("direction").as_deref(), Some("rx"));
        assert_eq!(e.field_u64("pkt_len"), Some(60));
        assert_eq!(e.field_f64("cpu"), Some(0.0));
        assert_eq!(e.field_u64("absent"), None);
        // Materialization matches the compact record's own view.
        assert_eq!(e.to_point(), rec(10, 0xab).to_point("m", "server1"));
        // The padded hex tag names the record's key; a non-padded or
        // upper-case one does not.
        assert_eq!(e.trace_key(), Some(TraceKey::Id(0xab)));
        assert_eq!(TraceKey::parse("000000ab"), TraceKey::Id(0xab));
        assert_eq!(TraceKey::parse("ab"), TraceKey::Tag("ab"));
        assert_eq!(TraceKey::parse("000000AB"), TraceKey::Tag("000000AB"));
        assert_eq!(TraceKey::Id(0xab).to_string(), "000000ab");
    }
}
