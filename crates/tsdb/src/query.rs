//! Queries: filter, select and aggregate over a table.
//!
//! Covers the operations vNetTracer's offline analysis performs: select a
//! tracepoint's table, filter by tags (flow, node, device) and time range,
//! and aggregate a field (count, mean, min/max, percentiles). Queries run
//! over [`Entry`] views, so point-backed and record-backed data answer
//! identically.

use crate::join::TraceKey;
use crate::point::DataPoint;
use crate::record::CompactRecord;
use crate::segment::{dict_index, Block, ColumnId, ColumnSet, SegmentError, ALL_COLUMNS};
use crate::store::{StoreError, TraceDb};
use crate::table::{Entry, Table, TRACE_ID_TAG};

/// A query over one measurement.
///
/// # Examples
///
/// ```
/// use vnet_tsdb::{DataPoint, TraceDb};
/// use vnet_tsdb::query::Query;
///
/// let mut db = TraceDb::new();
/// for i in 0..10u64 {
///     db.insert(DataPoint::new("rx", i * 100).tag("node", "n1").field("len", i));
/// }
/// let entries = Query::new("rx").tag_eq("node", "n1").time_range(200, 500).run(&db);
/// assert_eq!(entries.len(), 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Query {
    measurement: String,
    tag_filters: Vec<(String, String)>,
    time_start: Option<u64>,
    time_end: Option<u64>,
}

impl Query {
    /// Starts a query over `measurement`.
    pub fn new(measurement: impl Into<String>) -> Self {
        Query {
            measurement: measurement.into(),
            ..Default::default()
        }
    }

    /// Requires tag `key` to equal `value`.
    pub fn tag_eq(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.tag_filters.push((key.into(), value.into()));
        self
    }

    /// Restricts to `start..=end` (inclusive), in nanoseconds.
    pub fn time_range(mut self, start: u64, end: u64) -> Self {
        self.time_start = Some(start);
        self.time_end = Some(end);
        self
    }

    fn matches(&self, e: &Entry<'_>) -> bool {
        if let Some(s) = self.time_start {
            if e.timestamp_ns() < s {
                return false;
            }
        }
        if let Some(end) = self.time_end {
            if e.timestamp_ns() > end {
                return false;
            }
        }
        self.tag_filters
            .iter()
            .all(|(k, v)| e.tag(k).as_deref() == Some(v.as_str()))
    }

    /// Runs the query, returning matching entries in insertion order.
    ///
    /// On a disk-backed database this covers only the in-memory hot
    /// tail; use [`Query::scan`] to include sealed segments.
    pub fn run<'a>(&self, db: &'a TraceDb) -> Vec<Entry<'a>> {
        match db.table(&self.measurement) {
            Some(t) => self.run_table(t),
            None => Vec::new(),
        }
    }

    /// Runs the query against a single table.
    pub fn run_table<'a>(&self, table: &'a Table) -> Vec<Entry<'a>> {
        table
            .entries()
            .into_iter()
            .filter(|e| self.matches(e))
            .collect()
    }

    /// Runs the query over the *whole* database — sealed segments and
    /// the in-memory hot tail — returning an owned result set:
    /// [`Query::walk`] projecting every column, with the matched rows
    /// materialized. Memory is O(block + result). On an in-memory
    /// database it is equivalent to [`Query::run`].
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from reading sealed segments.
    pub fn scan(&self, db: &TraceDb) -> Result<ScanResult, StoreError> {
        let mut out = ScanResult {
            measurement: self.measurement.clone(),
            ..Default::default()
        };
        // Segment dictionary index -> scan dictionary index, rebuilt when
        // the walk moves to another segment's dictionary.
        let (mut remap, mut remap_of) = (Vec::new(), std::ptr::null());
        out.stats = self.walk(db, &ALL_COLUMNS, |rows| {
            match rows {
                Rows::Sealed {
                    block,
                    matched,
                    nodes,
                } => {
                    if remap_of != nodes.as_ptr() {
                        remap_of = nodes.as_ptr();
                        remap = nodes
                            .iter()
                            .map(|name| dict_index(&mut out.nodes, name))
                            .collect();
                    }
                    let (seqs, dicts) = (block.col(ColumnId::Seq), block.col(ColumnId::Node));
                    for &i in matched {
                        let node = *remap.get(dicts[i] as usize).ok_or_else(|| {
                            let index = dicts[i];
                            SegmentError::Corrupt(format!("node index {index} outside dictionary"))
                        })?;
                        out.rows.push((seqs[i], node, block.record(i)));
                    }
                }
                Rows::Hot(seq, Entry::Point(p)) => out.points.push((seq, p.clone())),
                Rows::Hot(seq, Entry::Record { node, record, .. }) => {
                    let idx = dict_index(&mut out.nodes, node);
                    out.rows.push((seq, idx, *record));
                }
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// The one read path over the *whole* database: hands `visit` the
    /// matching rows of every sealed block, then every matching hot-tail
    /// entry, each in sequence order, and returns what it touched.
    ///
    /// Tag filters are compiled to integer predicates once; segments are
    /// pruned by footer time range and node dictionary without touching
    /// their data; inside a surviving segment every row block whose own
    /// `[min_ts, max_ts]` misses the window is skipped on the footer too
    /// (no sortedness assumed); a surviving block decodes its predicate
    /// columns first and, only if a row matched, the `project`ed ones —
    /// with no predicate and nothing projected, rows are counted off the
    /// block index. One decoded block is resident at a time.
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from reading sealed segments (a chunk's CRC is
    /// checked before it is decoded), or the first error from `visit`.
    pub fn walk(
        &self,
        db: &TraceDb,
        project: &ColumnSet,
        mut visit: impl FnMut(Rows<'_>) -> Result<(), StoreError>,
    ) -> Result<ScanStats, StoreError> {
        let preds: Vec<TagPred> = self
            .tag_filters
            .iter()
            .map(|(k, v)| TagPred::compile(k, v))
            .collect();
        // A predicate no compact record can satisfy (unknown tag key,
        // malformed value) rules out every sealed row up front — but
        // not hot points, which carry arbitrary tags.
        let record_possible = !preds.iter().any(|p| matches!(p, TagPred::Never));
        let lo = self.time_start.unwrap_or(0);
        let hi = self.time_end.unwrap_or(u64::MAX);
        let mut pred_cols: ColumnSet = [false; ColumnId::ALL.len()];
        pred_cols[ColumnId::Ts as usize] = self.time_start.is_some() || self.time_end.is_some();
        for p in &preds {
            let touched: &[ColumnId] = match p {
                TagPred::Never => &[],
                TagPred::Node(_) => &[ColumnId::Node],
                TagPred::Direction { .. } => &[ColumnId::Direction],
                TagPred::TraceId(_) => &[ColumnId::TraceId, ColumnId::Flags],
                TagPred::Flow(_) => &FLOW_COLUMNS,
            };
            for &id in touched {
                pred_cols[id as usize] = true;
            }
        }

        let mut stats = ScanStats::default();

        for seg in db.sealed_segments_for(&self.measurement) {
            let meta = seg.meta();
            let block_count = meta.blocks.len() as u64;
            stats.segments_total += 1;
            stats.blocks_total += block_count;
            // Footer-only segment pruning: time range, impossible
            // predicate, or a node the dictionary does not hold.
            let mut pruned = !record_possible || meta.max_ts < lo || meta.min_ts > hi;
            let mut node_idx: Vec<u64> = Vec::new();
            for p in &preds {
                if let TagPred::Node(name) = p {
                    match meta.nodes.iter().position(|n| n == name) {
                        Some(i) => node_idx.push(i as u64),
                        None => pruned = true,
                    }
                }
            }
            if pruned {
                stats.segments_pruned += 1;
                stats.blocks_pruned += block_count;
                continue;
            }
            let row_matches = |blk: &Block, i: usize| {
                if pred_cols[ColumnId::Ts as usize] {
                    let t = blk.col(ColumnId::Ts)[i];
                    if t < lo || t > hi {
                        return false;
                    }
                }
                node_idx.iter().all(|&w| blk.col(ColumnId::Node)[i] == w)
                    && preds.iter().all(|p| match p {
                        TagPred::Node(_) => true,
                        TagPred::Never => false,
                        TagPred::Direction { tx } => (blk.col(ColumnId::Direction)[i] != 0) == *tx,
                        TagPred::TraceId(id) => {
                            blk.col(ColumnId::Flags)[i] & 1 != 0
                                && blk.col(ColumnId::TraceId)[i] == u64::from(*id)
                        }
                        TagPred::Flow(want) => FLOW_COLUMNS
                            .iter()
                            .zip(want)
                            .all(|(&column, &value)| blk.col(column)[i] == value),
                    })
            };
            let scanned_before = stats.blocks_scanned;
            for (b, block_meta) in meta.blocks.iter().enumerate() {
                if block_meta.max_ts < lo || block_meta.min_ts > hi {
                    stats.blocks_pruned += 1;
                    continue;
                }
                stats.blocks_scanned += 1;
                // Phase 1: decode only the columns the predicates touch.
                let mut blk = Block::default();
                stats.bytes_read += seg.read_block(b, &pred_cols, &mut blk)?;
                let matched: Vec<usize> = (0..block_meta.rows as usize)
                    .filter(|&i| row_matches(&blk, i))
                    .collect();
                if !matched.is_empty() {
                    stats.rows_matched += matched.len() as u64;
                    // Phase 2: decode what the caller projected.
                    stats.bytes_read += seg.read_block(b, project, &mut blk)?;
                    visit(Rows::Sealed {
                        block: &blk,
                        matched: &matched,
                        nodes: &meta.nodes,
                    })?;
                }
                stats.peak_decoded_rows = stats.peak_decoded_rows.max(blk.rows() as u64);
            }
            // A segment whose blocks were all skipped was pruned on the
            // footer just the same.
            if stats.blocks_scanned == scanned_before {
                stats.segments_pruned += 1;
            } else {
                stats.segments_scanned += 1;
                stats.sealed_rows_total += meta.records;
            }
        }

        // The hot tail: points and not-yet-sealed shard records.
        if let Some(table) = db.table(&self.measurement) {
            for (seq, e) in table.seq_entries() {
                if self.matches(&e) {
                    stats.hot_entries += 1;
                    visit(Rows::Hot(seq, e))?;
                }
            }
        }
        Ok(stats)
    }
}

/// One step of [`Query::walk`].
#[derive(Debug)]
pub enum Rows<'a> {
    /// The matching rows of one sealed block.
    Sealed {
        /// The block: projected and predicate lanes loaded, others empty.
        block: &'a Block,
        /// Ascending indices of the matching rows.
        matched: &'a [usize],
        /// The dictionary the block's `Node` lane indexes.
        nodes: &'a [String],
    },
    /// One matching hot-tail entry and its insertion sequence number.
    Hot(u64, Entry<'a>),
}

/// The lanes a `flow` tag is derived from, in the tag's order.
const FLOW_COLUMNS: [ColumnId; 4] = [
    ColumnId::Saddr,
    ColumnId::Daddr,
    ColumnId::Sport,
    ColumnId::Dport,
];

/// A tag filter compiled against the compact record form: what
/// [`Entry::tag`] derives lazily per row, evaluated as a plain integer
/// comparison on decoded columns.
#[derive(Debug, Clone, PartialEq, Eq)]
enum TagPred {
    /// `node == name`, resolved to a dictionary index per segment.
    Node(String),
    /// `direction == "rx"` (stored 0) or `"tx"` (stored non-zero).
    Direction {
        /// Which of the two.
        tx: bool,
    },
    /// `trace_id == id`, requires the trace-ID flag bit.
    TraceId(u32),
    /// `flow == "src:sport->dst:dport"`: the values [`FLOW_COLUMNS`] must
    /// all hold.
    Flow([u64; 4]),
    /// No compact record can satisfy this filter (unknown key or a
    /// value the derived tag can never take).
    Never,
}

impl TagPred {
    fn compile(key: &str, value: &str) -> TagPred {
        match key {
            "node" => TagPred::Node(value.to_owned()),
            "direction" => match value {
                "rx" => TagPred::Direction { tx: false },
                "tx" => TagPred::Direction { tx: true },
                _ => TagPred::Never,
            },
            // Only the derived tag's own form (see `TraceKey`) can match.
            TRACE_ID_TAG => match TraceKey::parse(value) {
                TraceKey::Id(id) => TagPred::TraceId(id),
                TraceKey::Tag(_) => TagPred::Never,
            },
            "flow" => match CompactRecord::parse_flow(value) {
                Some((s, d, sp, dp)) => TagPred::Flow([s.into(), d.into(), sp.into(), dp.into()]),
                None => TagPred::Never,
            },
            _ => TagPred::Never,
        }
    }
}

/// Counters describing what a [`Query::scan`] touched — how much
/// pruning saved and how many bytes actually left the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Sealed segments belonging to the queried measurement.
    pub segments_total: u64,
    /// Segments skipped on footer metadata alone (time range, node
    /// dictionary, impossible predicate, or every block skipped).
    pub segments_pruned: u64,
    /// Segments with at least one block decoded.
    pub segments_scanned: u64,
    /// Rows in the scanned segments.
    pub sealed_rows_total: u64,
    /// Sealed rows matching the query.
    pub rows_matched: u64,
    /// Hot-tail entries (points + shard records) matching the query.
    pub hot_entries: u64,
    /// Encoded chunk bytes read from disk (not footers).
    pub bytes_read: u64,
    /// Row blocks in the queried measurement's segments.
    pub blocks_total: u64,
    /// Blocks skipped on the footer: with their segment, or because
    /// their own time range misses the window.
    pub blocks_pruned: u64,
    /// Blocks whose predicate columns were decoded.
    pub blocks_scanned: u64,
    /// Most sealed rows held in decoded form at once (one block's).
    pub peak_decoded_rows: u64,
}

/// An owned result set from [`Query::scan`]: matched sealed rows plus
/// matched hot-tail entries, viewable as [`Entry`] values in insertion
/// order.
#[derive(Debug, Clone, Default)]
pub struct ScanResult {
    measurement: String,
    nodes: Vec<String>,
    rows: Vec<(u64, u32, CompactRecord)>,
    points: Vec<(u64, DataPoint)>,
    stats: ScanStats,
}

impl ScanResult {
    /// What the scan touched and skipped.
    pub fn stats(&self) -> &ScanStats {
        &self.stats
    }

    /// Number of matched entries.
    pub fn len(&self) -> usize {
        self.rows.len() + self.points.len()
    }

    /// Whether nothing matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The matched entries in insertion order — the same view
    /// [`Query::run`] yields, but owned by the scan.
    pub fn entries(&self) -> Vec<Entry<'_>> {
        let mut out: Vec<(u64, Entry<'_>)> = Vec::with_capacity(self.len());
        for (seq, p) in &self.points {
            out.push((*seq, Entry::Point(p)));
        }
        for (seq, node, record) in &self.rows {
            out.push((
                *seq,
                Entry::Record {
                    measurement: &self.measurement,
                    node: &self.nodes[*node as usize],
                    record,
                },
            ));
        }
        out.sort_by_key(|(seq, _)| *seq);
        out.into_iter().map(|(_, e)| e).collect()
    }
}

/// Aggregate statistics over one numeric field of an entry set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Aggregate {
    /// Number of entries carrying the field.
    pub count: usize,
    /// Sum of values.
    pub sum: f64,
    /// Mean value (0 when empty).
    pub mean: f64,
    /// Minimum value (0 when empty).
    pub min: f64,
    /// Maximum value (0 when empty).
    pub max: f64,
}

/// Computes aggregate statistics of `field` over `entries`.
pub fn aggregate(entries: &[Entry<'_>], field: &str) -> Aggregate {
    let values: Vec<f64> = entries.iter().filter_map(|e| e.field_f64(field)).collect();
    if values.is_empty() {
        return Aggregate::default();
    }
    let sum: f64 = values.iter().sum();
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Aggregate {
        count: values.len(),
        sum,
        mean: sum / values.len() as f64,
        min,
        max,
    }
}

/// Nearest-rank selection of the `q`-quantile on an unsorted buffer via
/// `select_nth_unstable_by` — O(n) per quantile instead of a full sort.
fn select_quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in 0..=1, got {q}"
    );
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    let (_, v, _) = values.select_nth_unstable_by(rank - 1, f64::total_cmp);
    *v
}

/// Computes the `q`-quantile (0.0..=1.0) of `field` over `entries` using
/// nearest-rank selection (no full sort). Returns `None` when no values.
///
/// # Panics
///
/// Panics if `q` is outside `0.0..=1.0`.
pub fn percentile(entries: &[Entry<'_>], field: &str, q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in 0..=1, got {q}"
    );
    percentiles(entries, field, &[q]).map(|values| values[0])
}

/// Computes several quantiles of `field` over `entries` in one pass:
/// the values are extracted once and each quantile is selected with
/// nearest rank, so callers printing p50/p95/p99 tables don't re-extract
/// (or re-sort) the field per quantile. Returns one value per requested
/// quantile, or `None` when no entry carries the field.
///
/// # Panics
///
/// Panics if any quantile is outside `0.0..=1.0`.
pub fn percentiles(entries: &[Entry<'_>], field: &str, qs: &[f64]) -> Option<Vec<f64>> {
    let mut values: Vec<f64> = entries.iter().filter_map(|e| e.field_f64(field)).collect();
    if values.is_empty() {
        return None;
    }
    Some(
        qs.iter()
            .map(|&q| select_quantile(&mut values, q))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::RecordBatch;
    use crate::point::DataPoint;
    use crate::record::CompactRecord;
    use crate::store::TraceDb;

    fn db() -> TraceDb {
        let mut db = TraceDb::new();
        for i in 0..100u64 {
            let node = if i % 2 == 0 { "n0" } else { "n1" };
            db.insert(
                DataPoint::new("lat", i * 10)
                    .tag("node", node)
                    .field("us", i),
            );
        }
        db
    }

    #[test]
    fn tag_filter_and_time_range() {
        let db = db();
        let pts = Query::new("lat").tag_eq("node", "n0").run(&db);
        assert_eq!(pts.len(), 50);
        let pts = Query::new("lat").time_range(100, 190).run(&db);
        assert_eq!(pts.len(), 10);
        let pts = Query::new("lat")
            .tag_eq("node", "n1")
            .time_range(0, 50)
            .run(&db);
        assert_eq!(pts.len(), 3); // t=10,30,50
        assert!(Query::new("absent").run(&db).is_empty());
    }

    #[test]
    fn aggregate_statistics() {
        let db = db();
        let pts = Query::new("lat").run(&db);
        let agg = aggregate(&pts, "us");
        assert_eq!(agg.count, 100);
        assert_eq!(agg.min, 0.0);
        assert_eq!(agg.max, 99.0);
        assert!((agg.mean - 49.5).abs() < 1e-9);
        assert_eq!(aggregate(&pts, "missing").count, 0);
    }

    #[test]
    fn percentiles_single() {
        let db = db();
        let pts = Query::new("lat").run(&db);
        assert_eq!(percentile(&pts, "us", 0.5), Some(49.0));
        assert_eq!(percentile(&pts, "us", 0.999), Some(99.0));
        assert_eq!(percentile(&pts, "us", 0.0), Some(0.0));
        assert_eq!(percentile(&pts, "us", 1.0), Some(99.0));
        assert_eq!(percentile(&[], "us", 0.5), None);
    }

    #[test]
    fn percentiles_batch_matches_single() {
        let db = db();
        let pts = Query::new("lat").run(&db);
        let qs = [0.0, 0.5, 0.95, 0.999, 1.0];
        let batch = percentiles(&pts, "us", &qs).unwrap();
        for (&q, &got) in qs.iter().zip(batch.iter()) {
            assert_eq!(Some(got), percentile(&pts, "us", q), "q={q}");
        }
        assert_eq!(percentiles(&[], "us", &qs), None);
        assert_eq!(percentiles(&pts, "missing", &qs), None);
        assert_eq!(percentiles(&pts, "us", &[]), Some(vec![]));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn percentile_rejects_bad_quantile() {
        let _ = percentile(&[], "us", 1.5);
    }

    fn record_db() -> TraceDb {
        let mut db = TraceDb::new();
        let mut batch = RecordBatch::new();
        for i in 0..40u32 {
            batch.push(
                "rx",
                if i % 2 == 0 { "n0" } else { "n1" },
                CompactRecord {
                    timestamp_ns: u64::from(i) * 100,
                    trace_id: i / 4,
                    pkt_len: 60 + i,
                    direction: (i % 3 == 0) as u8,
                    flags: u8::from(i % 5 != 0),
                    sport: 1000,
                    dport: 2000,
                    ..Default::default()
                },
            );
        }
        db.insert_batch(&batch);
        db.insert(
            DataPoint::new("rx", 150)
                .tag("node", "n0")
                .field("pkt_len", 99u64),
        );
        db
    }

    #[test]
    fn scan_matches_run_on_memory_db() {
        let db = record_db();
        let queries = [
            Query::new("rx"),
            Query::new("rx").tag_eq("node", "n0"),
            Query::new("rx").tag_eq("direction", "tx"),
            Query::new("rx")
                .tag_eq("direction", "rx")
                .time_range(500, 2500),
            Query::new("rx").tag_eq(TRACE_ID_TAG, "00000003"),
            Query::new("rx").tag_eq("flow", "0.0.0.0:1000->0.0.0.0:2000"),
            Query::new("rx").tag_eq("unknown_tag", "x"),
            Query::new("rx").tag_eq(TRACE_ID_TAG, "not-hex!"),
            Query::new("absent"),
        ];
        for q in queries {
            let run: Vec<_> = q.run(&db).iter().map(|e| e.to_point()).collect();
            let scan = q.scan(&db).unwrap();
            let scanned: Vec<_> = scan.entries().iter().map(|e| e.to_point()).collect();
            assert_eq!(scanned, run, "{q:?}");
            assert_eq!(scan.len(), run.len());
            assert_eq!(scan.stats().segments_total, 0, "memory db has no segments");
        }
    }

    #[test]
    fn scan_hot_points_survive_impossible_record_predicates() {
        // A tag no record derives can still match a hand-built point.
        let mut db = TraceDb::new();
        db.insert(DataPoint::new("m", 5).tag("custom", "yes"));
        let scan = Query::new("m").tag_eq("custom", "yes").scan(&db).unwrap();
        assert_eq!(scan.len(), 1);
        assert_eq!(scan.stats().hot_entries, 1);
    }

    #[test]
    fn queries_see_batched_records() {
        let mut db = TraceDb::new();
        let mut batch = RecordBatch::new();
        for i in 0..10u32 {
            batch.push(
                "rx",
                if i % 2 == 0 { "n0" } else { "n1" },
                CompactRecord {
                    timestamp_ns: u64::from(i) * 100,
                    pkt_len: 60 + i,
                    direction: 0,
                    ..Default::default()
                },
            );
        }
        db.insert_batch(&batch);
        let hits = Query::new("rx")
            .tag_eq("node", "n0")
            .time_range(0, 400)
            .run(&db);
        assert_eq!(hits.len(), 3); // t=0,200,400
        let agg = aggregate(&hits, "pkt_len");
        assert_eq!(agg.count, 3);
        assert_eq!(agg.min, 60.0);
        assert_eq!(agg.max, 64.0);
        assert_eq!(percentile(&hits, "pkt_len", 0.5), Some(62.0));
    }
}
