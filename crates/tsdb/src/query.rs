//! Queries: select and aggregate over a table.
//!
//! Covers the operations vNetTracer's offline analysis performs: select a
//! tracepoint's table, restrict it to a time window, and aggregate a
//! field (count, mean, min/max, percentiles). Packets are then joined
//! across tables on their trace ID ([`crate::join`]). The window is the
//! one filter, and it decides sealed and hot-tail rows alike off their
//! timestamp.

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::OnceLock;
use std::thread;

use crate::record::CompactRecord;
use crate::segment::{
    dict_index, Block, ColumnId, ColumnSet, Segment, SegmentError, ALL_COLUMNS, BLOCK_ROWS,
};
use crate::store::{StoreError, TraceDb};
use crate::table::{entries, Entry};

/// A query over one measurement.
///
/// # Examples
///
/// ```
/// use vnet_tsdb::{CompactRecord, RecordBatch, TraceDb};
/// use vnet_tsdb::query::Query;
///
/// let mut batch = RecordBatch::new();
/// for i in 0..10u64 {
///     let record = CompactRecord { timestamp_ns: i * 100, ..Default::default() };
///     batch.push("rx", if i % 2 == 0 { "n1" } else { "n2" }, record);
/// }
/// let mut db = TraceDb::new();
/// db.insert_batch(&batch);
/// let scan = Query::new("rx").time_range(200, 500).scan(&db).unwrap();
/// assert_eq!(scan.len(), 4); // t = 200, 300, 400, 500
/// ```
#[derive(Debug, Clone, Default)]
pub struct Query {
    measurement: String,
    time: Option<(u64, u64)>,
}

impl Query {
    /// Starts a query over `measurement`.
    pub fn new(measurement: impl Into<String>) -> Self {
        Query {
            measurement: measurement.into(),
            ..Default::default()
        }
    }

    /// Restricts to `start..=end` (inclusive), in nanoseconds.
    pub fn time_range(mut self, start: u64, end: u64) -> Self {
        self.time = Some((start, end));
        self
    }

    /// Runs the query over the *whole* database — sealed segments and
    /// the in-memory hot tail — returning an owned result set:
    /// [`Query::walk`] projecting every column, with the matched rows
    /// materialized in the order it hands them over. Memory is O(block +
    /// result).
    ///
    /// # Errors
    ///
    /// Any [`StoreError`] from reading sealed segments.
    pub fn scan(&self, db: &TraceDb) -> Result<ScanResult, StoreError> {
        let mut out = ScanResult::default();
        // Segment dictionary index -> scan dictionary index, rebuilt when
        // the walk moves to another segment's dictionary.
        let (mut remap, mut remap_of) = (Vec::new(), std::ptr::null());
        // Every column, `Seq` too, though the walk's order makes it
        // redundant here: `bytes_read` is a count the benchmark pins, so
        // dropping the lane is a change to measure on its own.
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
                    let dicts = block.col(ColumnId::Node);
                    for &i in matched {
                        let node = *remap.get(dicts[i] as usize).ok_or_else(|| {
                            let index = dicts[i];
                            SegmentError::Corrupt(format!("node index {index} outside dictionary"))
                        })?;
                        out.rows.push((node, block.record(i)));
                    }
                }
                Rows::Hot { node, record } => {
                    out.rows.push((dict_index(&mut out.nodes, node), *record));
                }
            }
            Ok(())
        })?;
        Ok(out)
    }

    /// The one read path over the *whole* database: hands `visit` the
    /// rows in the time window of every sealed block, then every such
    /// hot-tail record, each in sequence order, and returns what it
    /// touched.
    ///
    /// Segments are pruned by footer time range without touching their
    /// data; inside a surviving segment every row block whose own
    /// `[min_ts, max_ts]` misses the window is skipped on the footer too
    /// (no sortedness assumed). A surviving block decodes its `Ts` lane
    /// first when a window is set and, only if a row matched, the
    /// `project`ed ones — with no window and nothing projected, rows are
    /// counted off the block index. The surviving blocks decode on the
    /// calling thread and, when the host runs two threads at once and
    /// they hold at least four whole blocks' worth of values to decode,
    /// on one scoped helper thread too. `visit` runs on the calling
    /// thread, one block at a time and in block order; at most three
    /// decoded blocks are resident at once. Hot-tail records are decided
    /// by the same window, read off the record.
    ///
    /// # Errors
    ///
    /// The first error in block order: a [`StoreError`] from reading a
    /// sealed block (a chunk's CRC is checked before it is decoded), or
    /// one from `visit`, after which no further block is visited.
    pub fn walk(
        &self,
        db: &TraceDb,
        project: &ColumnSet,
        mut visit: impl FnMut(Rows<'_>) -> Result<(), StoreError>,
    ) -> Result<ScanStats, StoreError> {
        let (lo, hi) = self.time.unwrap_or((0, u64::MAX));
        let mut ts_lane: ColumnSet = [false; ColumnId::ALL.len()];
        ts_lane[ColumnId::Ts as usize] = self.time.is_some();
        let mut plan = Plan {
            window: lo..=hi,
            ts_lane,
            project,
            lanes: std::array::from_fn(|c| ts_lane[c] || project[c]),
            largest_rows: 0,
            largest_bytes: 0,
        };

        let mut stats = ScanStats::default();

        // Pass 1, footers only: the blocks that survive pruning, and
        // every count that needs no block data.
        let segments = db.sealed_segments_for(&self.measurement);
        let mut blocks = Vec::with_capacity(segments.iter().map(|s| s.meta().blocks.len()).sum());
        let mut surviving_rows = 0;
        for seg in segments {
            let meta = seg.meta();
            let block_count = meta.blocks.len() as u64;
            stats.segments_total += 1;
            stats.blocks_total += block_count;
            // Footer-only segment pruning on the time range.
            if meta.max_ts < lo || meta.min_ts > hi {
                stats.segments_pruned += 1;
                stats.blocks_pruned += block_count;
                continue;
            }
            let surviving_before = blocks.len();
            for (b, block_meta) in meta.blocks.iter().enumerate() {
                if block_meta.max_ts < lo || block_meta.min_ts > hi {
                    stats.blocks_pruned += 1;
                } else {
                    blocks.push((seg, b));
                    surviving_rows += block_meta.rows;
                    plan.largest_rows = plan.largest_rows.max(block_meta.rows as usize);
                    let bytes = block_meta.encoded_bytes() as usize;
                    plan.largest_bytes = plan.largest_bytes.max(bytes);
                }
            }
            // A segment whose blocks were all skipped was pruned on the
            // footer just the same.
            if blocks.len() == surviving_before {
                stats.segments_pruned += 1;
            } else {
                stats.segments_scanned += 1;
                stats.sealed_rows_total += meta.records;
            }
        }
        stats.blocks_scanned = blocks.len() as u64;

        // Pass 2: decode the survivors, visit them in order.
        let lanes = plan.lanes.iter().filter(|&&lane| lane).count();
        let helper = surviving_rows * lanes as u64 >= HELPER_MIN_VALUES && parallel_host();
        decode_in_order(&blocks, &plan, helper, &mut |seg, d| {
            stats.bytes_read += d.bytes_read;
            stats.peak_decoded_rows = stats.peak_decoded_rows.max(d.block.rows() as u64);
            if d.matched.is_empty() {
                return Ok(());
            }
            stats.rows_matched += d.matched.len() as u64;
            visit(Rows::Sealed {
                block: &d.block,
                matched: &d.matched,
                nodes: &seg.meta().nodes,
            })
        })?;

        // The hot tail: rows in ingest order, after every sealed one.
        if let Some(table) = db.table(&self.measurement) {
            for (node, record) in table.rows() {
                if plan.window.contains(&record.timestamp_ns) {
                    stats.hot_entries += 1;
                    let node = &table.nodes()[*node as usize];
                    visit(Rows::Hot { node, record })?;
                }
            }
        }
        Ok(stats)
    }
}

/// A walk starts the helper only if its surviving blocks hold at least
/// this many values (rows times lanes to decode), four whole blocks'
/// worth: below it, the helper was measured to cost about what it saves,
/// or more (DESIGN.md §12, "Two decode threads"). A walk of fewer than
/// four blocks never starts it, and neither does a walk that decodes
/// nothing.
const HELPER_MIN_VALUES: u64 = 4 * (BLOCK_ROWS * ColumnId::ALL.len()) as u64;

/// Decoded blocks the helper owns: one it fills while the calling thread
/// visits the other.
const HELPER_BLOCKS: usize = 2;

/// What a walk reads of each surviving block.
struct Plan<'p> {
    window: RangeInclusive<u64>,
    /// `Ts` under a window; nothing without one, when every row matches.
    ts_lane: ColumnSet,
    project: &'p ColumnSet,
    /// Every lane a block may load: `ts_lane` and `project`.
    lanes: ColumnSet,
    /// Rows and encoded bytes of the largest surviving blocks. The
    /// calling thread's buffers have room for them from the start, so
    /// none grows in the middle of a walk: a late growth lands on top of
    /// the heap, above a caller's growing result, and fragments it.
    largest_rows: usize,
    largest_bytes: usize,
}

/// One sealed block as a walk decodes it. The buffers are pooled: a walk
/// reuses a few of these for all its blocks.
#[derive(Debug, Default)]
struct Decoded {
    block: Block,
    /// Ascending indices of the rows in the window.
    matched: Vec<usize>,
    /// Encoded bytes read for this block.
    bytes_read: u64,
}

impl Decoded {
    /// Buffers with room for the largest block `plan` reads.
    fn for_plan(plan: &Plan<'_>) -> Self {
        let mut d = Decoded::default();
        d.block
            .reserve(&plan.lanes, plan.largest_rows, plan.largest_bytes);
        d.matched.reserve(plan.largest_rows);
        d
    }

    /// Decodes block `b` of `seg` in two phases: the plan's `ts_lane`,
    /// then — only if a row is in the window — its projected lanes.
    fn read(&mut self, seg: &Segment, b: usize, plan: &Plan<'_>) -> Result<(), SegmentError> {
        self.block.clear();
        self.matched.clear();
        self.bytes_read = seg.read_block(b, &plan.ts_lane, &mut self.block)?;
        let ts = self.block.col(ColumnId::Ts);
        let rows = seg.meta().blocks[b].rows as usize;
        let in_window = (0..rows).filter(|&i| ts.get(i).is_none_or(|t| plan.window.contains(t)));
        self.matched.extend(in_window);
        if !self.matched.is_empty() {
            self.bytes_read += seg.read_block(b, plan.project, &mut self.block)?;
        }
        Ok(())
    }
}

/// A block the helper decoded: its position in the walk, its buffers and
/// how the decode went.
type Done = (usize, Decoded, Result<(), SegmentError>);

/// Decodes `blocks` (segment, block index) as `plan` says and hands each
/// to `visit` on the calling thread, in order.
///
/// With `helper`, one scoped helper thread decodes beside the calling
/// one. Both claim the next undecoded block from one counter, so the
/// split follows what each thread's share costs. The calling thread
/// visits a block the helper has finished before it claims another, and
/// claims none while it holds one decoded ahead of its turn; the helper
/// owns [`HELPER_BLOCKS`] buffers and waits for one to come back. Without
/// a helper (or if it cannot be started) the calling thread claims every
/// block in turn, which is the same loop.
///
/// Returns the first error in block order, a decode's or `visit`'s. On
/// it the helper's channels close, it stops after the block in hand, and
/// the scope joins it before this returns.
fn decode_in_order<'a>(
    blocks: &[(&'a Segment, usize)],
    plan: &Plan<'_>,
    helper: bool,
    visit: &mut dyn FnMut(&'a Segment, &Decoded) -> Result<(), StoreError>,
) -> Result<(), StoreError> {
    // The next block to decode. `Relaxed` is enough: the counter only
    // hands out block numbers, and decoded blocks travel over channels,
    // which synchronise.
    let claim = AtomicUsize::new(0);
    let decode = |d: &mut Decoded, k: usize| {
        let (seg, b) = blocks[k];
        d.read(seg, b, plan)
    };
    thread::scope(|s| {
        let helper = if helper {
            spawn_helper(s, blocks.len(), &claim, &decode)
        } else {
            None
        };
        let mut own = Decoded::for_plan(plan);
        let mut own_result = Ok(());
        // The block `own` holds, decoded ahead of its turn.
        let mut own_at = None;
        for (v, &(seg, _)) in blocks.iter().enumerate() {
            loop {
                if own_at == Some(v) {
                    own_at = None;
                    std::mem::replace(&mut own_result, Ok(()))?;
                    visit(seg, &own)?;
                    break;
                }
                if let Some((done, free)) = &helper {
                    // Block `v` is the helper's if it claimed it: surely
                    // so while `own` is ahead or nothing is left to claim.
                    let theirs = own_at.is_some() || claim.load(Ordering::Relaxed) >= blocks.len();
                    let ready = match theirs {
                        true => Some(done.recv().expect("the helper sends every block it claims")),
                        false => done.try_recv().ok(),
                    };
                    if let Some((k, d, result)) = ready {
                        assert_eq!(k, v, "the helper's blocks arrive in order");
                        result?;
                        visit(seg, &d)?;
                        // Fails only once the helper has stopped.
                        let _ = free.send(d);
                        break;
                    }
                }
                let k = claim.fetch_add(1, Ordering::Relaxed);
                if k < blocks.len() {
                    own_result = decode(&mut own, k);
                    own_at = Some(k);
                }
            }
        }
        Ok(())
    })
}

/// Starts [`decode_in_order`]'s helper on `s`: it claims blocks below `n`
/// off `claim` and decodes each into a buffer it owns, until none is
/// left, a decode fails, or the calling thread hangs up. Returns the
/// channel its blocks arrive on and the one that gives the buffers back;
/// `None` if the thread could not be started.
fn spawn_helper<'scope, 'env>(
    s: &'scope thread::Scope<'scope, 'env>,
    n: usize,
    claim: &'env AtomicUsize,
    decode: &'env (impl Fn(&mut Decoded, usize) -> Result<(), SegmentError> + Sync),
) -> Option<(Receiver<Done>, SyncSender<Decoded>)> {
    let (done_tx, done_rx) = sync_channel(HELPER_BLOCKS);
    let (free_tx, free_rx) = sync_channel(HELPER_BLOCKS);
    // The buffers grow on the helper, in its own heap arena. Allocated
    // on the calling thread instead, they went back to the calling
    // thread's heap at the end of each walk, which handed their pages
    // back, and the next walk faulted them in again.
    for _ in 0..HELPER_BLOCKS {
        free_tx
            .send(Decoded::default())
            .expect("the channel holds every buffer");
    }
    thread::Builder::new()
        .name("vnt-scan".into())
        .spawn_scoped(s, move || {
            while let Ok(mut d) = free_rx.recv() {
                let k = claim.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let result = decode(&mut d, k);
                let failed = result.is_err();
                if done_tx.send((k, d, result)).is_err() || failed {
                    break;
                }
            }
        })
        .ok()?;
    Some((done_rx, free_tx))
}

/// Whether this host runs two threads at once; asked once per process.
fn parallel_host() -> bool {
    static PARALLEL: OnceLock<bool> = OnceLock::new();
    *PARALLEL.get_or_init(|| thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// One step of [`Query::walk`].
#[derive(Debug)]
pub enum Rows<'a> {
    /// The matching rows of one sealed block.
    Sealed {
        /// The block: projected lanes (and `Ts` under a window) loaded,
        /// others empty.
        block: &'a Block,
        /// Ascending indices of the matching rows.
        matched: &'a [usize],
        /// The dictionary the block's `Node` lane indexes.
        nodes: &'a [String],
    },
    /// One matching hot-tail record.
    Hot {
        /// The node it came from.
        node: &'a str,
        /// The record.
        record: &'a CompactRecord,
    },
}

/// Counters describing what a [`Query::scan`] touched — how much
/// pruning saved and how many bytes actually left the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Sealed segments belonging to the queried measurement.
    pub segments_total: u64,
    /// Segments skipped on footer metadata alone (their time range, or
    /// every block's).
    pub segments_pruned: u64,
    /// Segments with at least one block decoded.
    pub segments_scanned: u64,
    /// Rows in the scanned segments.
    pub sealed_rows_total: u64,
    /// Sealed rows in the window.
    pub rows_matched: u64,
    /// Hot-tail records in the window.
    pub hot_entries: u64,
    /// Encoded chunk bytes read from disk (not footers).
    pub bytes_read: u64,
    /// Row blocks in the queried measurement's segments.
    pub blocks_total: u64,
    /// Blocks skipped on the footer: with their segment, or because
    /// their own time range misses the window.
    pub blocks_pruned: u64,
    /// Blocks that survived the footer (their `Ts` lane decoded when a
    /// window is set).
    pub blocks_scanned: u64,
    /// Most sealed rows decoded in one block: the largest block the
    /// walk decoded, not the sum over the (at most three) blocks its two
    /// decode threads hold at once.
    pub peak_decoded_rows: u64,
}

/// An owned result set from [`Query::scan`]: matched sealed rows plus
/// matched hot-tail records, viewable as [`Entry`] values in insertion
/// order.
#[derive(Debug, Clone, Default)]
pub struct ScanResult {
    nodes: Vec<String>,
    /// `(index into nodes, record)`, in insertion order.
    rows: Vec<(u32, CompactRecord)>,
    stats: ScanStats,
}

impl ScanResult {
    /// What the scan touched and skipped.
    pub fn stats(&self) -> &ScanStats {
        &self.stats
    }

    /// Number of matched entries.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether nothing matched.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The matched entries in insertion order.
    pub fn entries(&self) -> Vec<Entry<'_>> {
        entries(&self.nodes, &self.rows)
    }
}

/// Aggregate statistics over one numeric field of an entry set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Aggregate {
    /// Number of entries carrying the field.
    pub count: usize,
    /// Mean value (0 when empty).
    pub mean: f64,
    /// Minimum value (0 when empty).
    pub min: f64,
    /// Maximum value (0 when empty).
    pub max: f64,
}

/// The values of a record's numeric field, `pkt_len` or `cpu`, over
/// `entries`; empty for any other name.
fn field_values(entries: &[Entry<'_>], field: &str) -> Vec<f64> {
    let value: fn(&CompactRecord) -> u64 = match field {
        "pkt_len" => |r| r.pkt_len.into(),
        "cpu" => |r| r.cpu.into(),
        _ => return Vec::new(),
    };
    entries.iter().map(|e| value(e.record()) as f64).collect()
}

/// Computes aggregate statistics of `field` (`pkt_len` or `cpu`) over
/// `entries`.
pub fn aggregate(entries: &[Entry<'_>], field: &str) -> Aggregate {
    let values = field_values(entries, field);
    if values.is_empty() {
        return Aggregate::default();
    }
    let sum: f64 = values.iter().sum();
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Aggregate {
        count: values.len(),
        mean: sum / values.len() as f64,
        min,
        max,
    }
}

/// The 1-based nearest rank of the `q`-quantile among `len > 0` sorted
/// values: `⌈q·len⌉`, and at least 1.
fn nearest_rank(q: f64, len: usize) -> usize {
    ((q * len as f64).ceil() as usize).clamp(1, len)
}

/// Nearest-rank selection of the `q`-quantile on an unsorted buffer via
/// `select_nth_unstable_by` — O(n) per quantile instead of a full sort.
fn select_quantile(values: &mut [f64], q: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in 0..=1, got {q}"
    );
    let rank = nearest_rank(q, values.len());
    let (_, v, _) = values.select_nth_unstable_by(rank - 1, f64::total_cmp);
    *v
}

/// Computes several quantiles of `field` (`pkt_len` or `cpu`) over
/// `entries` in one pass: the values are extracted once and each
/// quantile is selected with nearest rank, so callers printing
/// p50/p95/p99 tables don't re-extract (or re-sort) the field per
/// quantile. Returns one value per requested quantile, or `None` when no
/// entry carries the field.
///
/// # Panics
///
/// Panics if any quantile is outside `0.0..=1.0`.
pub fn percentiles(entries: &[Entry<'_>], field: &str, qs: &[f64]) -> Option<Vec<f64>> {
    let mut values = field_values(entries, field);
    if values.is_empty() {
        return None;
    }
    Some(
        qs.iter()
            .map(|&q| select_quantile(&mut values, q))
            .collect(),
    )
}

/// Summary statistics over a latency sample set, in nanoseconds
/// (percentiles by nearest rank).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyStats {
    /// Number of samples.
    pub count: usize,
    /// Mean.
    pub mean_ns: f64,
    /// Minimum.
    pub min_ns: u64,
    /// Maximum.
    pub max_ns: u64,
    /// Median.
    pub p50_ns: u64,
    /// 99th percentile.
    pub p99_ns: u64,
    /// 99.9th percentile — the tail the paper's case studies focus on.
    pub p999_ns: u64,
}

impl LatencyStats {
    /// Mean in microseconds (the unit the paper plots).
    pub fn mean_us(&self) -> f64 {
        self.mean_ns / 1e3
    }

    /// 99.9th percentile in microseconds.
    pub fn p999_us(&self) -> f64 {
        self.p999_ns as f64 / 1e3
    }
}

/// Computes summary statistics; `None` for an empty sample set.
pub fn stats_from_ns(samples: &[u64]) -> Option<LatencyStats> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let pct = |q: f64| sorted[nearest_rank(q, sorted.len()) - 1];
    let sum: u128 = sorted.iter().map(|&v| u128::from(v)).sum();
    Some(LatencyStats {
        count: sorted.len(),
        mean_ns: sum as f64 / sorted.len() as f64,
        min_ns: sorted[0],
        max_ns: *sorted.last().expect("non-empty"),
        p50_ns: pct(0.50),
        p99_ns: pct(0.99),
        p999_ns: pct(0.999),
    })
}

#[cfg(test)]
mod tests {
    use std::path::PathBuf;

    use super::*;
    use crate::batch::RecordBatch;
    use crate::codec::{crc32, CodecError};
    use crate::record::CompactRecord;
    use crate::segment::tests::write_rows;
    use crate::store::TraceDb;

    /// 100 records in `lat`, `pkt_len` = i at t = 10 i, alternating nodes.
    fn db() -> TraceDb {
        let mut batch = RecordBatch::new();
        for i in 0..100u32 {
            let record = CompactRecord {
                timestamp_ns: u64::from(i) * 10,
                pkt_len: i,
                ..Default::default()
            };
            batch.push("lat", if i % 2 == 0 { "n0" } else { "n1" }, record);
        }
        let mut db = TraceDb::new();
        db.insert_batch(&batch);
        db
    }

    fn scan(db: &TraceDb, q: Query) -> ScanResult {
        q.scan(db).unwrap()
    }

    #[test]
    fn time_range_is_inclusive() {
        let db = db();
        assert_eq!(scan(&db, Query::new("lat")).len(), 100);
        assert_eq!(scan(&db, Query::new("lat").time_range(100, 190)).len(), 10);
        assert_eq!(scan(&db, Query::new("lat").time_range(0, 50)).len(), 6);
        assert!(scan(&db, Query::new("lat").time_range(50, 0)).is_empty());
        assert!(scan(&db, Query::new("absent")).is_empty());
    }

    #[test]
    fn aggregate_statistics() {
        let db = db();
        let all = scan(&db, Query::new("lat"));
        let pts = all.entries();
        let agg = aggregate(&pts, "pkt_len");
        assert_eq!(agg.count, 100);
        assert_eq!(agg.min, 0.0);
        assert_eq!(agg.max, 99.0);
        assert!((agg.mean - 49.5).abs() < 1e-9);
        assert_eq!(aggregate(&pts, "missing").count, 0);
    }

    #[test]
    fn percentiles_single() {
        let db = db();
        let all = scan(&db, Query::new("lat"));
        let pts = all.entries();
        let one = |q| percentiles(&pts, "pkt_len", &[q]);
        assert_eq!(one(0.5), Some(vec![49.0]));
        assert_eq!(one(0.999), Some(vec![99.0]));
        assert_eq!(one(0.0), Some(vec![0.0]));
        assert_eq!(one(1.0), Some(vec![99.0]));
        assert_eq!(percentiles(&[], "pkt_len", &[0.5]), None);
    }

    #[test]
    fn percentiles_batch_matches_single() {
        let db = db();
        let all = scan(&db, Query::new("lat"));
        let pts = all.entries();
        let qs = [0.0, 0.5, 0.95, 0.999, 1.0];
        let batch = percentiles(&pts, "pkt_len", &qs).unwrap();
        for (&q, &got) in qs.iter().zip(batch.iter()) {
            assert_eq!(Some(vec![got]), percentiles(&pts, "pkt_len", &[q]), "q={q}");
        }
        assert_eq!(percentiles(&[], "pkt_len", &qs), None);
        assert_eq!(percentiles(&pts, "missing", &qs), None);
        assert_eq!(percentiles(&pts, "pkt_len", &[]), Some(vec![]));
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn percentiles_reject_a_bad_quantile() {
        let db = db();
        let all = scan(&db, Query::new("lat"));
        let _ = percentiles(&all.entries(), "pkt_len", &[1.5]);
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
        db
    }

    /// Each window beside the same condition written on the typed
    /// timestamp.
    #[test]
    fn scan_matches_a_typed_window_on_memory_db() {
        let db = record_db();
        let windows = [
            None,
            Some((500, 2_500)),
            Some((0, 0)),
            Some((3_900, u64::MAX)),
            Some((2_500, 500)),
        ];
        let all = Query::new("rx").scan(&db).unwrap();
        for window in windows {
            let (lo, hi) = window.unwrap_or((0, u64::MAX));
            let expected: Vec<_> = all
                .entries()
                .iter()
                .filter(|e| (lo..=hi).contains(&e.record().timestamp_ns))
                .map(|e| (e.node(), *e.record()))
                .collect();
            let q = Query::new("rx");
            let q = window.map_or(q.clone(), |(lo, hi)| q.time_range(lo, hi));
            let scan = q.scan(&db).unwrap();
            let entries = scan.entries();
            let scanned: Vec<_> = entries.iter().map(|e| (e.node(), *e.record())).collect();
            assert_eq!(scanned, expected, "{q:?}");
            assert_eq!(scan.len(), expected.len());
            assert_eq!(scan.stats().hot_entries, expected.len() as u64);
            assert_eq!(scan.stats().segments_total, 0, "memory db has no segments");
        }
        assert!(Query::new("absent").scan(&db).unwrap().is_empty());
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
        let q = Query::new("rx").time_range(0, 400);
        let scan = q.scan(&db).unwrap();
        let hits = scan.entries();
        assert_eq!(hits.len(), 5); // t=0,100,200,300,400
        let agg = aggregate(&hits, "pkt_len");
        assert_eq!(agg.count, 5);
        assert_eq!(agg.min, 60.0);
        assert_eq!(agg.max, 64.0);
        assert_eq!(percentiles(&hits, "pkt_len", &[0.5]), Some(vec![62.0]));
        let nodes: Vec<&str> = hits.iter().map(Entry::node).collect();
        assert_eq!(nodes, ["n0", "n0", "n0", "n1", "n1"], "batch group order");
    }

    /// Ten full blocks of table `m` written as one segment: row `i` at
    /// t = 1 000 i, with `dport` = 80 + its block, so every block's `Dport`
    /// chunk (one byte a row) differs from the others'.
    fn ten_block_segment(tag: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("vnt-walk-{tag}-{}", std::process::id()));
        let rows: Vec<(u32, CompactRecord)> = (0..10 * BLOCK_ROWS as u64)
            .map(|i| {
                let record = CompactRecord {
                    timestamp_ns: i * 1_000,
                    trace_id: i as u32,
                    pkt_len: 60 + (i % 1_000) as u32,
                    saddr: i.wrapping_mul(0x9e37_79b9) as u32,
                    dport: 80 + (i / BLOCK_ROWS as u64) as u16,
                    flags: 1,
                    ..Default::default()
                };
                (0, record)
            })
            .collect();
        write_rows(&path, "m", &["vm1"], 0, &rows).unwrap();
        path
    }

    /// Walks `blocks` of `seg` projecting every column, with or without
    /// the helper, failing the visit of block `fail_at`. Returns the
    /// outcome and the blocks visited, in visiting order.
    fn visit_blocks(
        seg: &Segment,
        blocks: std::ops::Range<usize>,
        helper: bool,
        fail_at: Option<usize>,
    ) -> (Result<(), StoreError>, Vec<usize>) {
        let blocks: Vec<_> = blocks.map(|b| (seg, b)).collect();
        let plan = Plan {
            window: 0..=u64::MAX,
            ts_lane: [false; ColumnId::ALL.len()],
            project: &ALL_COLUMNS,
            lanes: ALL_COLUMNS,
            largest_rows: 0,
            largest_bytes: 0,
        };
        let mut visited = Vec::new();
        let outcome = decode_in_order(&blocks, &plan, helper, &mut |_, d| {
            let b = (d.block.col(ColumnId::Ts)[0] / 1_000) as usize / BLOCK_ROWS;
            assert_eq!(d.matched.len(), BLOCK_ROWS, "block {b}");
            assert!(ColumnId::ALL
                .iter()
                .all(|&c| d.block.col(c).len() == BLOCK_ROWS));
            visited.push(b);
            match fail_at == Some(b) {
                true => Err(StoreError::Manifest(format!("visit failed at {b}"))),
                false => Ok(()),
            }
        });
        (outcome, visited)
    }

    /// Two damaged blocks: block 3 fails its `Saddr` chunk's CRC, and
    /// block 7's `Dport` chunk holds a non-canonical varint under a
    /// recomputed CRC. Block 3's error is the walk's, with the helper and
    /// without, whichever thread decodes which block; blocks 0–2 are
    /// visited, nothing after. From block 4 on, block 7's is.
    #[test]
    fn the_first_error_in_block_order_wins() {
        let path = ten_block_segment("error-order");
        let meta = Segment::open(&path).unwrap().meta().clone();
        let mut bytes = std::fs::read(&path).unwrap();
        let saddr = meta.blocks[3].chunks[ColumnId::Saddr as usize];
        bytes[(saddr.offset + saddr.len / 2) as usize] ^= 0x10;
        // Two one-byte values 87, 87 become one value spelled 0xd7 0x00.
        let dport = meta.blocks[7].chunks[ColumnId::Dport as usize];
        let chunk = dport.offset as usize..(dport.offset + dport.len) as usize;
        bytes[chunk.start] |= 0x80;
        bytes[chunk.start + 1] = 0;
        let crc = crc32(&bytes[chunk]);
        let trailer = bytes.len() - 16;
        let footer_len = u32::from_le_bytes(bytes[trailer + 4..trailer + 8].try_into().unwrap());
        let footer = trailer - footer_len as usize;
        let old = dport.crc.to_le_bytes();
        let at: Vec<usize> = (footer..trailer - 3)
            .filter(|&i| bytes[i..i + 4] == old)
            .collect();
        assert_eq!(at.len(), 1, "block 7's Dport CRC is unique in the footer");
        bytes[at[0]..at[0] + 4].copy_from_slice(&crc.to_le_bytes());
        let footer_crc = crc32(&bytes[footer..trailer]);
        bytes[trailer..trailer + 4].copy_from_slice(&footer_crc.to_le_bytes());
        std::fs::write(&path, bytes).unwrap();
        let seg = Segment::open(&path).expect("the footer is intact");
        for helper in [false, true] {
            for _ in 0..20 {
                let (outcome, visited) = visit_blocks(&seg, 0..10, helper, None);
                assert!(
                    matches!(&outcome, Err(StoreError::Segment(SegmentError::Corrupt(m)))
                        if m.contains("block 3 column Saddr CRC")),
                    "helper {helper}: {outcome:?}"
                );
                assert_eq!(visited, [0, 1, 2], "helper {helper}");
                let (outcome, visited) = visit_blocks(&seg, 4..10, helper, None);
                assert!(
                    matches!(
                        outcome,
                        Err(StoreError::Segment(SegmentError::Codec(
                            CodecError::NonCanonical
                        )))
                    ),
                    "helper {helper}: {outcome:?}"
                );
                assert_eq!(visited, [4, 5, 6], "helper {helper}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    /// A visit that fails at block `k` ends the walk with its error: no
    /// block after `k` is visited, and the helper stops and is joined.
    #[test]
    fn a_failing_visit_stops_the_walk() {
        let path = ten_block_segment("visit-stop");
        let seg = Segment::open(&path).unwrap();
        for helper in [false, true] {
            let (outcome, visited) = visit_blocks(&seg, 0..10, helper, None);
            assert!(outcome.is_ok());
            assert_eq!(visited, (0..10).collect::<Vec<_>>());
            for k in [0, 1, 4, 9] {
                let (outcome, visited) = visit_blocks(&seg, 0..10, helper, Some(k));
                assert!(
                    matches!(&outcome, Err(StoreError::Manifest(m)) if *m == format!("visit failed at {k}")),
                    "helper {helper}, k {k}: {outcome:?}"
                );
                assert_eq!(visited, (0..=k).collect::<Vec<_>>(), "helper {helper}");
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn stats_basics() {
        let s = stats_from_ns(&[10, 20, 30, 40, 50]).unwrap();
        assert_eq!(s.count, 5);
        assert_eq!(s.mean_ns, 30.0);
        assert_eq!(s.min_ns, 10);
        assert_eq!(s.max_ns, 50);
        assert_eq!(s.p50_ns, 30);
        assert_eq!(s.p999_ns, 50);
        assert!(stats_from_ns(&[]).is_none());
    }

    #[test]
    fn tail_percentile_catches_outlier() {
        // Nearest-rank: with 500 samples, p99.9 ranks at ceil(0.999*500)
        // = 500, the maximum — one outlier in 500 shows in the tail.
        let mut samples = vec![100u64; 499];
        samples.push(10_000);
        let s = stats_from_ns(&samples).unwrap();
        assert_eq!(s.p50_ns, 100);
        assert_eq!(s.p999_ns, 10_000);
        assert_eq!(s.p999_us(), 10.0);
        assert_eq!(s.mean_us(), s.mean_ns / 1e3);
        // With 1000 samples, a single outlier sits exactly past the
        // 99.9th rank.
        let mut samples = vec![100u64; 999];
        samples.push(10_000);
        let s = stats_from_ns(&samples).unwrap();
        assert_eq!(s.p999_ns, 100);
        assert_eq!(s.max_ns, 10_000);
    }
}
