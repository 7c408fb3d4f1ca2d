//! Per-measurement tables: the hot tail of compact records in ingest
//! order, in the row form a sealed segment holds — `(node index, record)`
//! against a node dictionary in first-seen order. Records stay in the
//! integer form they arrive in ([`CompactRecord`]); read paths see them
//! as [`Entry`] values: a record and the name of its node.

use crate::record::CompactRecord;
use crate::segment::dict_index;

/// A borrowed view of one stored record with the name of the node it
/// came from.
#[derive(Debug, Clone, Copy)]
pub enum Entry<'a> {
    /// A compact record in a hot tail or a sealed segment.
    Record {
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
    fn parts(&self) -> (&'a str, &'a CompactRecord) {
        match *self {
            Entry::Record { node, record } => (node, record),
            Entry::Point(never) => match never {},
        }
    }

    /// The record itself.
    pub fn record(&self) -> &'a CompactRecord {
        self.parts().1
    }

    /// The name of the node the record came from.
    pub fn node(&self) -> &'a str {
        self.parts().0
    }

    /// The entry's timestamp in nanoseconds.
    pub fn timestamp_ns(&self) -> u64 {
        self.record().timestamp_ns
    }
}

/// `(node index, record)` rows against the `nodes` dictionary, as
/// entries in row order.
pub(crate) fn entries<'a>(nodes: &'a [String], rows: &'a [(u32, CompactRecord)]) -> Vec<Entry<'a>> {
    let rows = rows.iter();
    rows.map(|(node, record)| Entry::Record {
        node: &nodes[*node as usize],
        record,
    })
    .collect()
}

/// All records of one measurement (one table per tracepoint) since the
/// last seal: one row per record in ingest order, the node dictionary
/// its rows index, and the sequence number of its first row (row `i`
/// holds sequence number `first_seq + i`).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    first_seq: u64,
    nodes: Vec<String>,
    rows: Vec<(u32, CompactRecord)>,
}

impl Table {
    /// Creates an empty table named `name`.
    pub(crate) fn new(name: impl Into<String>) -> Self {
        Table {
            name: name.into(),
            first_seq: 0,
            nodes: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// The table's measurement name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a slice of compact records from `node`. Records are copied
    /// as-is; no tags or fields are materialized.
    pub(crate) fn insert_records(&mut self, node: &str, records: &[CompactRecord]) {
        let node = dict_index(&mut self.nodes, node);
        self.rows
            .extend(records.iter().map(|&record| (node, record)));
    }

    /// The node dictionary the rows index, in first-seen order.
    pub(crate) fn nodes(&self) -> &[String] {
        &self.nodes
    }

    /// The `(node index, record)` rows, in ingest order.
    pub(crate) fn rows(&self) -> &[(u32, CompactRecord)] {
        &self.rows
    }

    /// The sequence number of the first row.
    pub(crate) fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> Vec<Entry<'_>> {
        entries(&self.nodes, &self.rows)
    }

    /// Drops the rows and the dictionary once a seal has committed them;
    /// future inserts keep numbering after the sealed rows.
    pub(crate) fn clear_sealed(&mut self) {
        self.first_seq += self.rows.len() as u64;
        self.rows.clear();
        self.nodes.clear();
    }

    /// Raises the first sequence number to at least `seq` — used on
    /// reopen, before the WAL replays into the empty tail, so it numbers
    /// after the records already sealed on disk.
    pub(crate) fn reserve_seq(&mut self, seq: u64) {
        self.first_seq = self.first_seq.max(seq);
    }

    /// Number of records currently resident in memory (the hot tail on a
    /// disk-backed database).
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table() {
        let t = Table::new("m");
        assert!(t.is_empty());
        assert!(t.entries().is_empty());
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
    fn rows_keep_ingest_order_against_a_first_seen_dictionary() {
        let mut t = Table::new("m");
        t.insert_records("n1", &[rec(10, 2), rec(20, 3)]);
        t.insert_records("n2", &[rec(30, 4)]);
        t.insert_records("n1", &[rec(40, 5)]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.nodes(), ["n1", "n2"], "one dictionary entry per node");
        let nodes: Vec<u32> = t.rows().iter().map(|&(node, _)| node).collect();
        assert_eq!(nodes, [0, 0, 1, 0]);
        let stamps: Vec<u64> = t.entries().iter().map(Entry::timestamp_ns).collect();
        assert_eq!(stamps, vec![10, 20, 30, 40], "insertion order");
        let names: Vec<&str> = t.entries().iter().map(Entry::node).collect();
        assert_eq!(names, ["n1", "n1", "n2", "n1"]);
        // A seal numbers on: the next row is the fifth, under a fresh
        // dictionary.
        t.clear_sealed();
        t.insert_records("n2", &[rec(50, 6)]);
        assert_eq!((t.first_seq(), t.nodes()), (4, &["n2".to_owned()][..]));
    }

    #[test]
    fn an_entry_is_its_record_and_node_name() {
        let mut t = Table::new("m");
        t.insert_records("server1", &[rec(10, 0xab)]);
        let entries = t.entries();
        let e = &entries[0];
        assert_eq!(e.node(), "server1");
        assert_eq!(e.record(), &rec(10, 0xab));
        assert_eq!(e.timestamp_ns(), 10);
    }
}
