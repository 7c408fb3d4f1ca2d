//! The trace-ID join: the first record of every packet at a tracepoint,
//! keyed by the packet's numeric trace ID (§III-D). "First" is first in
//! ingest (sequence) order, which is the order [`Query::walk`] hands rows
//! over in — except for hand-inserted points, which never seal and keep
//! their numbers: only while a table holds some is the `Seq` lane read
//! too, and the lower number wins (DESIGN.md §12).

use std::collections::{BTreeMap, HashMap};

use crate::query::{Query, Rows, ScanStats};
use crate::segment::{columns, ColumnId};
use crate::store::{StoreError, TraceDb};
use crate::table::Table;

/// A packet's trace ID as a join key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKey<'a> {
    /// A numeric ID: what a record carries, and what a point's tag means
    /// in the records' canonical form (eight lower-case hex digits).
    Id(u32),
    /// A point's tag in any other form; only another point can carry it.
    Tag(&'a str),
}

impl<'a> TraceKey<'a> {
    /// The key a `trace_id` tag value stands for.
    pub fn parse(tag: &'a str) -> Self {
        let canonical =
            tag.len() == 8 && tag.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f'));
        match u32::from_str_radix(tag, 16) {
            Ok(id) if canonical => TraceKey::Id(id),
            _ => TraceKey::Tag(tag),
        }
    }
}

/// Prints the key as its `trace_id` tag value.
impl core::fmt::Display for TraceKey<'_> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TraceKey::Id(id) => write!(f, "{id:08x}"),
            TraceKey::Tag(tag) => f.write_str(tag),
        }
    }
}

/// Timestamp of the first entry (in ingest order) of every trace ID seen
/// in one table.
#[derive(Debug, Clone, Default)]
pub struct FirstSeen {
    /// Numeric ID -> `(sequence, timestamp)` of its first entry.
    ids: HashMap<u32, (u64, u64)>,
    /// Non-canonical point tag -> timestamp of its first point.
    tags: BTreeMap<String, u64>,
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
        let mut project = columns(&[ColumnId::Ts, ColumnId::TraceId, ColumnId::Flags]);
        project[ColumnId::Seq as usize] = db.table(measurement).is_some_and(Table::has_points);
        let mut first = FirstSeen::default();
        first.stats = Query::new(measurement).walk(db, &project, |rows| {
            match rows {
                Rows::Sealed { block, matched, .. } => {
                    let ts = block.col(ColumnId::Ts);
                    let ids = block.col(ColumnId::TraceId);
                    let flags = block.col(ColumnId::Flags);
                    // Not loaded when arrival order decides: zero then,
                    // which nothing arriving later can undercut.
                    let seqs = block.col(ColumnId::Seq);
                    for &i in matched.iter().filter(|&&i| flags[i] & 1 != 0) {
                        first.offer(ids[i] as u32, seqs.get(i).copied().unwrap_or(0), ts[i]);
                    }
                }
                Rows::Hot(seq, entry) => match entry.trace_key() {
                    Some(TraceKey::Id(id)) => first.offer(id, seq, entry.timestamp_ns()),
                    // Hot entries arrive in sequence order.
                    Some(TraceKey::Tag(tag)) => {
                        let ts = entry.timestamp_ns();
                        first.tags.entry(tag.to_owned()).or_insert(ts);
                    }
                    None => {}
                },
            }
            Ok(())
        })?;
        Ok(first)
    }

    fn offer(&mut self, id: u32, seq: u64, ts: u64) {
        let first = self.ids.entry(id).or_insert((seq, ts));
        if seq < first.0 {
            *first = (seq, ts);
        }
    }

    /// What reading the table touched and skipped.
    pub fn stats(&self) -> &ScanStats {
        &self.stats
    }

    /// Whether no entry carried a trace ID.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty() && self.tags.is_empty()
    }

    /// When `key` was first seen, if ever.
    pub fn get(&self, key: TraceKey<'_>) -> Option<u64> {
        match key {
            TraceKey::Id(id) => self.ids.get(&id).map(|&(_, ts)| ts),
            TraceKey::Tag(tag) => self.tags.get(tag).copied(),
        }
    }

    /// Every key with its first timestamp, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (TraceKey<'_>, u64)> {
        let ids = self
            .ids
            .iter()
            .map(|(&id, &(_, ts))| (TraceKey::Id(id), ts));
        let tags = self.tags.iter().map(|(t, &ts)| (TraceKey::Tag(t), ts));
        ids.chain(tags)
    }

    /// `(t_self, t_downstream)` for every trace ID seen in both tables,
    /// sorted — the primitive behind vNetTracer's two-tracepoint latency.
    pub fn join(&self, downstream: &FirstSeen) -> Vec<(u64, u64)> {
        let mut out: Vec<(u64, u64)> = self
            .iter()
            .filter_map(|(key, t1)| downstream.get(key).map(|t2| (t1, t2)))
            .collect();
        out.sort_unstable();
        out
    }
}
