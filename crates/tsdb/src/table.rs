//! Per-measurement tables: one append-only shard of compact records per
//! originating node. Records stay in the integer form they arrive in
//! ([`CompactRecord`]); read paths see them as [`Entry`] values, ordered
//! by insertion sequence, which derive tags and fields on demand.

use std::borrow::Cow;

use crate::point::DataPoint;
use crate::record::{trace_id_tag, CompactRecord};
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

/// A borrowed view of one stored record with the names it is stored
/// under. The tag and field accessors derive the string view
/// ([`DataPoint`]'s) from the compact form on demand.
#[derive(Debug, Clone, Copy)]
pub enum Entry<'a> {
    /// A compact record in a per-node shard or a sealed segment.
    Record {
        /// The table (measurement) name.
        measurement: &'a str,
        /// The originating node's name.
        node: &'a str,
        /// The record itself.
        record: &'a CompactRecord,
    },
    // Uninhabited: a table stores records and nothing else. Kept only so
    // that the one match on it outside this crate, `bench_e2e/src/rack.rs:587`
    // (frozen for every non-`benchmark` PR), still compiles; ROADMAP item 2's
    // unlock `benchmark` PR removes that arm and this variant together.
    #[doc(hidden)]
    Point(core::convert::Infallible),
}

impl<'a> Entry<'a> {
    fn parts(&self) -> (&'a str, &'a str, &'a CompactRecord) {
        match *self {
            Entry::Record {
                measurement,
                node,
                record,
            } => (measurement, node, record),
            Entry::Point(never) => match never {},
        }
    }

    /// The record itself.
    pub fn record(&self) -> &'a CompactRecord {
        self.parts().2
    }

    /// The name of the node the record came from.
    pub fn node(&self) -> &'a str {
        self.parts().1
    }

    /// The entry's timestamp in nanoseconds.
    pub fn timestamp_ns(&self) -> u64 {
        self.record().timestamp_ns
    }

    /// A tag's value: `node`, `flow`, `direction`, [`TRACE_ID_TAG`] (when
    /// the packet carried an ID) and [`DROP_REASON_TAG`] (on drop
    /// records), derived from the compact form.
    pub fn tag(&self, key: &str) -> Option<Cow<'a, str>> {
        let (_, node, record) = self.parts();
        match key {
            "node" => Some(Cow::Borrowed(node)),
            "flow" => Some(Cow::Owned(record.flow())),
            "direction" => Some(Cow::Borrowed(record.direction_str())),
            TRACE_ID_TAG if record.has_trace_id() => {
                Some(Cow::Owned(trace_id_tag(record.trace_id)))
            }
            DROP_REASON_TAG => record.drop_reason().map(Cow::Borrowed),
            _ => None,
        }
    }

    /// A numeric field as `u64`: `pkt_len` or `cpu`.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match key {
            "pkt_len" => Some(u64::from(self.record().pkt_len)),
            "cpu" => Some(u64::from(self.record().cpu)),
            _ => None,
        }
    }

    /// A numeric field as `f64`.
    pub fn field_f64(&self, key: &str) -> Option<f64> {
        self.field_u64(key).map(|v| v as f64)
    }

    /// Materializes the entry as an owned [`DataPoint`], the JSON-lines
    /// interchange form.
    pub fn to_point(&self) -> DataPoint {
        let (measurement, node, record) = self.parts();
        record.to_point(measurement, node)
    }
}

/// All records of one measurement (one table per tracepoint).
#[derive(Debug, Default, Clone)]
pub struct Table {
    name: String,
    next_seq: u64,
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

    /// Appends a slice of compact records into `node`'s shard (created on
    /// demand). Records are copied as-is; no tags or fields are
    /// materialized.
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

    /// All entries in insertion order.
    pub fn entries(&self) -> Vec<Entry<'_>> {
        let mut out: Vec<(u64, Entry<'_>)> = Vec::with_capacity(self.len());
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
        out.into_iter().map(|(_, e)| e).collect()
    }

    /// Drops all record shards once a seal has committed them; the
    /// sequence counter is untouched, so future inserts keep numbering
    /// after the sealed records.
    pub(crate) fn clear_shards(&mut self) {
        self.shards.clear();
    }

    /// Raises the sequence counter to at least `seq` — used on reopen so
    /// hot-tail inserts number after the records already sealed on disk.
    pub(crate) fn reserve_seq(&mut self, seq: u64) {
        self.next_seq = self.next_seq.max(seq);
    }

    /// Number of records currently resident in memory (the hot tail on a
    /// disk-backed database).
    pub fn len(&self) -> usize {
        self.shards.iter().map(RecordShard::len).sum()
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
        t.insert_records(n1, "n1", &[rec(10, 2), rec(20, 3)]);
        t.insert_records(n2, "n2", &[rec(30, 4)]);
        t.insert_records(n1, "n1", &[rec(40, 5)]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.shards().len(), 2, "one shard per node");
        assert_eq!(t.shards()[0].node_name(), "n1");
        assert_eq!(t.shards()[0].len(), 3);
        let stamps: Vec<u64> = t.entries().iter().map(Entry::timestamp_ns).collect();
        assert_eq!(stamps, vec![10, 20, 30, 40], "insertion order");
    }

    #[test]
    fn entry_views_derive_tags_and_fields_from_the_record() {
        let mut syms = SymbolTable::new();
        let n1 = syms.intern("server1");
        let mut t = Table::new("m");
        t.insert_records(n1, "server1", &[rec(10, 0xab)]);
        let entries = t.entries();
        let e = &entries[0];
        assert_eq!(e.node(), "server1");
        assert_eq!(e.record(), &rec(10, 0xab));
        assert_eq!(e.tag("node").as_deref(), Some("server1"));
        assert_eq!(e.tag(TRACE_ID_TAG).as_deref(), Some("000000ab"));
        assert_eq!(e.tag("direction").as_deref(), Some("rx"));
        assert_eq!(e.tag(DROP_REASON_TAG), None);
        assert_eq!(e.tag("absent"), None);
        assert_eq!(e.field_u64("pkt_len"), Some(60));
        assert_eq!(e.field_f64("cpu"), Some(0.0));
        assert_eq!(e.field_u64("absent"), None);
        // Materialization matches the compact record's own view.
        assert_eq!(e.to_point(), rec(10, 0xab).to_point("m", "server1"));
    }
}
