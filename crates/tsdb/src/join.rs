//! The trace-ID join: the first record of every packet at a tracepoint,
//! keyed by the packet's numeric trace ID (§III-D). "First" is first in
//! ingest (sequence) order, which is the order [`Query::walk`] hands rows
//! over in (DESIGN.md §12).

use crate::query::{Query, Rows, ScanStats};
use crate::segment::{columns, ColumnId};
use crate::store::{StoreError, TraceDb};
use crate::trace_id_map::TraceIdMap;

/// Timestamp of the first record (in ingest order) of every trace ID
/// seen in one table.
#[derive(Debug, Clone, Default)]
pub struct FirstSeen {
    first: TraceIdMap<u64>,
    stats: ScanStats,
}

impl FirstSeen {
    /// Reads `measurement` — sealed segments and hot tail — decoding only
    /// the timestamp, trace-ID and flag lanes. A table that does not
    /// exist is empty.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from reading sealed segments.
    pub fn scan(db: &TraceDb, measurement: &str) -> Result<FirstSeen, StoreError> {
        let project = columns(&[ColumnId::Ts, ColumnId::TraceId, ColumnId::Flags]);
        // One record per packet is the common table, so the row count —
        // sealed rows from the segment footers plus the hot tail — is the
        // map's final size: reserve it once instead of rehashing up to it.
        let sealed: u64 = db
            .sealed_segments_for(measurement)
            .iter()
            .map(|s| s.meta().records)
            .sum();
        let rows = sealed as usize + db.table(measurement).map_or(0, |t| t.len());
        let mut first = TraceIdMap::with_capacity_and_hasher(rows, Default::default());
        let stats = Query::new(measurement).walk(db, &project, |rows| {
            match rows {
                Rows::Sealed { block, matched, .. } => {
                    let ts = block.col(ColumnId::Ts);
                    let ids = block.col(ColumnId::TraceId);
                    let flags = block.col(ColumnId::Flags);
                    for &i in matched.iter().filter(|&&i| flags[i] & 1 != 0) {
                        first.entry(ids[i] as u32).or_insert(ts[i]);
                    }
                }
                Rows::Hot { record, .. } => {
                    if record.has_trace_id() {
                        first.entry(record.trace_id).or_insert(record.timestamp_ns);
                    }
                }
            }
            Ok(())
        })?;
        Ok(FirstSeen { first, stats })
    }

    /// What reading the table touched and skipped.
    pub fn stats(&self) -> &ScanStats {
        &self.stats
    }

    /// Whether no record carried a trace ID.
    pub fn is_empty(&self) -> bool {
        self.first.is_empty()
    }

    /// When trace ID `id` was first seen, if ever.
    pub fn get(&self, id: u32) -> Option<u64> {
        self.first.get(&id).copied()
    }

    /// Every trace ID with its first timestamp, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, u64)> + '_ {
        self.first.iter().map(|(&id, &ts)| (id, ts))
    }

    /// `(t_self, t_downstream)` for every trace ID seen in both tables,
    /// sorted — the primitive behind vNetTracer's two-tracepoint latency.
    pub fn join(&self, downstream: &FirstSeen) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .iter()
            .filter_map(|(id, t1)| downstream.get(id).map(|t2| (t1, t2)))
            .collect();
        out.sort_unstable();
        out
    }
}
