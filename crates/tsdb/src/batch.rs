//! Reusable record batches: the unit of transfer between agents and the
//! collector.
//!
//! An agent drains its per-CPU perf rings directly into a
//! [`RecordBatch`], grouped by (table, node). The batch is handed to
//! [`TraceDb::insert_batch`](crate::store::TraceDb::insert_batch) which
//! appends each group to its table's hot tail in one go, then
//! [`RecordBatch::clear`]ed and reused for the next collection cycle —
//! no per-record allocation anywhere on the path.

use crate::record::CompactRecord;

/// Records for one (measurement, node) pair within a batch.
#[derive(Debug, Default, Clone)]
pub struct BatchGroup {
    /// Destination table (tracepoint) name.
    pub measurement: String,
    /// Originating node name.
    pub node: String,
    /// The records, in drain order.
    pub records: Vec<CompactRecord>,
}

/// A reusable batch of compact records grouped by (measurement, node).
#[derive(Debug, Default, Clone)]
pub struct RecordBatch {
    groups: Vec<BatchGroup>,
}

impl RecordBatch {
    /// Creates an empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The batch's groups (including any empty, reused ones).
    pub fn groups(&self) -> &[BatchGroup] {
        &self.groups
    }

    /// Borrows (creating on demand) the group for `(measurement, node)`.
    /// Cleared groups left over from a previous cycle are reused so their
    /// record buffers keep their capacity.
    pub fn group_mut(&mut self, measurement: &str, node: &str) -> &mut BatchGroup {
        // Exact match first (the common case after the first cycle).
        if let Some(i) = self
            .groups
            .iter()
            .position(|g| g.measurement == measurement && g.node == node)
        {
            return &mut self.groups[i];
        }
        // Otherwise recycle an empty group's buffer, or append.
        if let Some(i) = self.groups.iter().position(|g| g.records.is_empty()) {
            let g = &mut self.groups[i];
            g.measurement.clear();
            g.measurement.push_str(measurement);
            g.node.clear();
            g.node.push_str(node);
            return g;
        }
        self.groups.push(BatchGroup {
            measurement: measurement.to_owned(),
            node: node.to_owned(),
            records: Vec::new(),
        });
        self.groups.last_mut().expect("just pushed")
    }

    /// Appends one record to its group.
    pub fn push(&mut self, measurement: &str, node: &str, record: CompactRecord) {
        self.group_mut(measurement, node).records.push(record);
    }

    /// Empties every group, retaining the allocated capacity for reuse.
    pub fn clear(&mut self) {
        for g in &mut self.groups {
            g.records.clear();
        }
    }

    /// Total number of records across all groups.
    pub fn len(&self) -> usize {
        self.groups.iter().map(|g| g.records.len()).sum()
    }

    /// Whether the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.groups.iter().all(|g| g.records.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ts: u64) -> CompactRecord {
        CompactRecord {
            timestamp_ns: ts,
            ..Default::default()
        }
    }

    #[test]
    fn push_groups_by_measurement_and_node() {
        let mut b = RecordBatch::new();
        b.push("tp_a", "n1", rec(1));
        b.push("tp_a", "n1", rec(2));
        b.push("tp_b", "n1", rec(3));
        b.push("tp_a", "n2", rec(4));
        let nonempty: Vec<_> = b
            .groups()
            .iter()
            .filter(|g| !g.records.is_empty())
            .collect();
        assert_eq!(nonempty.len(), 3);
        assert_eq!(b.len(), 4);
    }

    #[test]
    fn clear_retains_capacity_and_reuses_groups() {
        let mut b = RecordBatch::new();
        for i in 0..100 {
            b.push("tp", "n", rec(i));
        }
        let cap_before = b.groups()[0].records.capacity();
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.groups()[0].records.capacity(), cap_before);
        // A different table name after clear() reuses the same buffer.
        b.push("other", "n", rec(0));
        assert_eq!(b.groups().len(), 1);
        assert_eq!(b.groups()[0].measurement, "other");
        assert_eq!(b.groups()[0].records.capacity(), cap_before);
    }
}
