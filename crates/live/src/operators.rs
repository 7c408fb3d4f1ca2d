//! Incremental per-window operators: throughput, latency, loss.
//!
//! Each operator maintains O(1)-per-window state updated record by
//! record — no buffering of raw samples. Latency and loss pair records
//! across two tracepoints by trace ID; a tracepoint pair is paired once,
//! by one [`PairOp`] feeding both metrics from a single [`PairTracker`]
//! whose pending set is bounded two ways: entries older than the pair
//! timeout are evicted as the watermark passes them (an unmatched
//! upstream becomes a loss), and a hard capacity cap force-evicts the
//! oldest entry under overload, so state cannot grow with trace size even
//! if the watermark stalls.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use vnet_tsdb::sketch::LogHistogram;
use vnet_tsdb::TraceIdMap;
use vnettracer::metrics::{JitterTracker, ThroughputWindow};

use crate::window::{OpenWindows, WindowSpec};

/// One side of a trace-ID pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The upstream (`from`) tracepoint.
    Up,
    /// The downstream (`to`) tracepoint.
    Down,
}

/// A completed (upstream, downstream) timestamp pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairedSample {
    /// Upstream event timestamp (aligned).
    pub up_ts: u64,
    /// Downstream event timestamp (aligned).
    pub down_ts: u64,
}

/// An entry evicted unmatched: only one side ever arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The side that did arrive.
    pub side: Side,
    /// Its event timestamp (aligned).
    pub ts: u64,
}

/// Bounded trace-ID pairing state for one tracepoint pair. Either side
/// may arrive first; the first record per (id, side) wins, matching the
/// offline join's first-record rule.
#[derive(Debug, Default)]
pub struct PairTracker {
    /// The one side seen so far of each unmatched trace ID, and when.
    pending: TraceIdMap<(Side, u64)>,
    /// `(id, first arrival)` in arrival order — the eviction queue. Slots
    /// of completed pairs stay behind and are skipped when reached.
    fifo: VecDeque<(u32, u64)>,
    max_pending: usize,
}

impl PairTracker {
    /// Creates a tracker holding at most `max_pending` unmatched entries.
    pub fn new(max_pending: usize) -> Self {
        PairTracker {
            pending: TraceIdMap::default(),
            fifo: VecDeque::new(),
            max_pending: max_pending.max(1),
        }
    }

    /// Number of unmatched entries currently held.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Slots in the eviction queue, stale ones included.
    pub fn resident(&self) -> usize {
        self.fifo.len()
    }

    /// Feeds one record; returns the completed pair when this record
    /// matched the opposite side. `overflow` collects entries
    /// force-evicted by the capacity cap.
    pub fn observe(
        &mut self,
        trace_id: u32,
        side: Side,
        ts: u64,
        overflow: &mut Vec<Evicted>,
    ) -> Option<PairedSample> {
        match self.pending.entry(trace_id) {
            Entry::Occupied(first) => {
                let (first_side, first_ts) = *first.get();
                if first_side == side {
                    // A duplicate of the already-seen side: first wins.
                    return None;
                }
                first.remove();
                Some(match side {
                    Side::Up => PairedSample {
                        up_ts: ts,
                        down_ts: first_ts,
                    },
                    Side::Down => PairedSample {
                        up_ts: first_ts,
                        down_ts: ts,
                    },
                })
            }
            Entry::Vacant(slot) => {
                slot.insert((side, ts));
                self.fifo.push_back((trace_id, ts));
                while self.pending.len() > self.max_pending {
                    match self.pop_oldest(u64::MAX) {
                        Some(e) => overflow.push(e),
                        None => break,
                    }
                }
                None
            }
        }
    }

    /// Pops the oldest still-pending entry whose first arrival is at or
    /// below `threshold_ts`, discarding the stale fifo slots before it.
    fn pop_oldest(&mut self, threshold_ts: u64) -> Option<Evicted> {
        while let Some(&(id, ts)) = self.fifo.front() {
            if ts > threshold_ts {
                break;
            }
            self.fifo.pop_front();
            if let Entry::Occupied(e) = self.pending.entry(id) {
                if e.get().1 == ts {
                    let (side, ts) = e.remove();
                    return Some(Evicted { side, ts });
                }
            }
        }
        None
    }

    /// Evicts every entry whose first arrival is at or below
    /// `threshold_ts` — called as the watermark passes the pair timeout.
    pub fn evict_older_than(&mut self, threshold_ts: u64, out: &mut Vec<Evicted>) {
        out.extend(std::iter::from_fn(|| self.pop_oldest(threshold_ts)));
    }
}

/// Streaming throughput at one tracepoint: per-window accumulators plus
/// exact running totals (which reproduce the offline whole-table
/// computation without a scan).
#[derive(Debug)]
pub struct ThroughputOp {
    /// The traced tracepoint (table) name.
    pub measurement: String,
    pub(crate) windows: OpenWindows<ThroughputWindow>,
}

impl ThroughputOp {
    pub(crate) fn new(measurement: String) -> Self {
        ThroughputOp {
            measurement,
            windows: OpenWindows::new(ThroughputWindow::default()),
        }
    }

    pub(crate) fn push(&mut self, spec: &WindowSpec, ts: u64, pkt_len: u32, has_trace_id: bool) {
        self.windows
            .update(spec, ts, |w| w.push(ts, pkt_len, has_trace_id));
    }
}

/// Summary of one window's latency distribution, extracted from the
/// window's sketch and jitter tracker at close time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of paired samples.
    pub count: u64,
    /// Median, within the sketch's relative error.
    pub p50_ns: u64,
    /// 95th percentile, within the sketch's relative error.
    pub p95_ns: u64,
    /// 99th percentile, within the sketch's relative error.
    pub p99_ns: u64,
    /// Exact mean.
    pub mean_ns: f64,
    /// Exact (min, max) successive-difference jitter range; `None`
    /// before two samples.
    pub jitter: Option<(i64, i64)>,
    /// RFC 3550 smoothed jitter.
    pub smoothed_jitter_ns: f64,
}

#[derive(Debug, Clone)]
pub(crate) struct LatencyWindow {
    sketch: LogHistogram,
    jitter: JitterTracker,
}

impl LatencyWindow {
    fn new(sketch_error: f64) -> Self {
        LatencyWindow {
            sketch: LogHistogram::with_relative_error(sketch_error),
            jitter: JitterTracker::new(),
        }
    }

    fn record(&mut self, delta_ns: u64) {
        self.sketch.record(delta_ns);
        self.jitter.push(delta_ns);
    }

    fn summary(&self) -> LatencySummary {
        LatencySummary {
            count: self.sketch.count(),
            p50_ns: self.sketch.quantile(0.50).unwrap_or(0),
            p95_ns: self.sketch.quantile(0.95).unwrap_or(0),
            p99_ns: self.sketch.quantile(0.99).unwrap_or(0),
            mean_ns: self.sketch.mean(),
            jitter: self.jitter.range(),
            smoothed_jitter_ns: self.jitter.smoothed_ns(),
        }
    }
}

/// What a pair's completed samples feed when its latency is tracked: one
/// log-bucketed sketch and jitter tracker per window (plus cumulative
/// ones), assigned to the window containing the *downstream* timestamp.
#[derive(Debug)]
pub(crate) struct LatencyWindows {
    pub(crate) windows: OpenWindows<LatencyWindow>,
    /// Pairs whose delta came out negative (clock inversion beyond the
    /// skew estimate) — dropped, as offline data cleaning would.
    negative_dropped: u64,
    /// Pairs evicted unmatched (no latency sample possible).
    pub(crate) unmatched: u64,
}

impl LatencyWindows {
    fn record_pair(&mut self, spec: &WindowSpec, pair: PairedSample) {
        let Some(delta) = pair.down_ts.checked_sub(pair.up_ts) else {
            self.negative_dropped += 1;
            return;
        };
        self.windows.update(spec, pair.down_ts, |w| w.record(delta));
    }

    /// Cumulative latency summary since the engine started, within the
    /// sketch's documented error for percentiles and exact for the
    /// jitter range (same [`JitterTracker`] as the offline path).
    pub(crate) fn total(&self) -> Option<LatencySummary> {
        let total = &self.windows.total;
        (total.sketch.count() > 0).then(|| total.summary())
    }
}

/// Per-window loss accumulator: upstream arrivals against completed and
/// timed-out pairings, keyed by the *upstream* timestamp's window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LossWindow {
    /// Upstream records seen (`N_i`, window-local).
    pub seen: u64,
    /// Upstream records matched downstream.
    pub delivered: u64,
    /// Upstream records evicted unmatched after the pair timeout.
    pub lost: u64,
}

impl LossWindow {
    /// `R_loss = N_loss / N_i`, 0 when nothing was seen.
    pub fn rate(&self) -> f64 {
        if self.seen == 0 {
            0.0
        } else {
            self.lost as f64 / self.seen as f64
        }
    }
}

/// Streaming trace-ID pairing across one `(from, to)` tracepoint pair:
/// a single [`PairTracker`] whose completed samples feed the latency
/// windows and whose arrivals, completions and timeouts feed the loss
/// windows — whichever of the two the configuration asked for. An
/// upstream record that outlives the pair timeout without a downstream
/// match is a loss; downstream-only entries evict silently.
#[derive(Debug)]
pub struct PairOp {
    /// Upstream tracepoint name.
    pub from: String,
    /// Downstream tracepoint name.
    pub to: String,
    /// The pair's stream label in a finalized window: `from->to`.
    pub label: String,
    tracker: PairTracker,
    pub(crate) latency: Option<LatencyWindows>,
    /// Keyed by the *upstream* timestamp's window. `total.lost` counts
    /// only finalized (timed-out) pairs; entries still inside the pair
    /// timeout are neither delivered nor lost yet.
    pub(crate) loss: Option<OpenWindows<LossWindow>>,
}

impl PairOp {
    /// A pair feeding nothing yet; see [`PairOp::track_latency`] and
    /// [`PairOp::track_loss`].
    pub(crate) fn new(from: &str, to: &str, max_pending: usize) -> Self {
        PairOp {
            from: from.to_owned(),
            to: to.to_owned(),
            label: format!("{from}->{to}"),
            tracker: PairTracker::new(max_pending),
            latency: None,
            loss: None,
        }
    }

    pub(crate) fn track_latency(&mut self, sketch_error: f64) {
        self.latency.get_or_insert_with(|| LatencyWindows {
            windows: OpenWindows::new(LatencyWindow::new(sketch_error)),
            negative_dropped: 0,
            unmatched: 0,
        });
    }

    pub(crate) fn track_loss(&mut self) {
        self.loss
            .get_or_insert_with(|| OpenWindows::new(LossWindow::default()));
    }

    /// Feeds one trace-ID-carrying record seen at `side` of the pair.
    /// `scratch` is overwritten.
    pub(crate) fn push(
        &mut self,
        spec: &WindowSpec,
        side: Side,
        trace_id: u32,
        ts: u64,
        scratch: &mut Vec<Evicted>,
    ) {
        if let (Side::Up, Some(loss)) = (side, &mut self.loss) {
            loss.update(spec, ts, |w| w.seen += 1);
        }
        scratch.clear();
        if let Some(pair) = self.tracker.observe(trace_id, side, ts, scratch) {
            if let Some(latency) = &mut self.latency {
                latency.record_pair(spec, pair);
            }
            if let Some(loss) = &mut self.loss {
                loss.update(spec, pair.up_ts, |w| w.delivered += 1);
            }
        }
        self.account_evictions(spec, scratch);
    }

    /// Evicts pairings whose first arrival is at or below `threshold_ts`.
    /// `scratch` is overwritten.
    pub(crate) fn evict(
        &mut self,
        spec: &WindowSpec,
        threshold_ts: u64,
        scratch: &mut Vec<Evicted>,
    ) {
        scratch.clear();
        self.tracker.evict_older_than(threshold_ts, scratch);
        self.account_evictions(spec, scratch);
    }

    fn account_evictions(&mut self, spec: &WindowSpec, evicted: &[Evicted]) {
        if let Some(latency) = &mut self.latency {
            latency.unmatched += evicted.len() as u64;
        }
        if let Some(loss) = &mut self.loss {
            // Only an unmatched *upstream* is a lost packet; an orphan
            // downstream record has no upstream baseline to count against
            // (the offline N_i − N_j clamps these to zero too).
            for e in evicted.iter().filter(|e| e.side == Side::Up) {
                loss.update(spec, e.ts, |w| w.lost += 1);
            }
        }
    }

    /// Finalizes the window starting at `start` on both sides.
    pub(crate) fn close(&mut self, start: u64) -> (Option<LatencySummary>, Option<LossWindow>) {
        (
            self.latency
                .as_mut()
                .and_then(|l| l.windows.close(start))
                .map(|w| w.summary()),
            self.loss.as_mut().and_then(|l| l.close(start)),
        )
    }

    /// Starts of this pair's open latency and loss windows.
    pub(crate) fn open_starts(&self) -> impl Iterator<Item = u64> + '_ {
        let latency = self.latency.iter().flat_map(|l| l.windows.open_starts());
        latency.chain(self.loss.iter().flat_map(|l| l.open_starts()))
    }

    pub(crate) fn open_count(&self) -> usize {
        self.latency.as_ref().map_or(0, |l| l.windows.open_count())
            + self.loss.as_ref().map_or(0, |l| l.open_count())
    }

    pub(crate) fn pending_len(&self) -> usize {
        self.tracker.pending_len()
    }

    pub(crate) fn resident(&self) -> usize {
        self.tracker.resident()
    }

    pub(crate) fn bucket_count(&self) -> usize {
        let sketches = self.latency.iter().flat_map(|l| l.windows.values());
        sketches.map(|w| w.sketch.bucket_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WindowSpec {
        WindowSpec::tumbling(1_000)
    }

    #[test]
    fn pair_tracker_matches_either_order() {
        let mut t = PairTracker::new(16);
        let mut ov = Vec::new();
        assert_eq!(t.observe(1, Side::Up, 100, &mut ov), None);
        assert_eq!(
            t.observe(1, Side::Down, 150, &mut ov),
            Some(PairedSample {
                up_ts: 100,
                down_ts: 150
            })
        );
        // Downstream first (cross-agent drain order).
        assert_eq!(t.observe(2, Side::Down, 300, &mut ov), None);
        assert_eq!(
            t.observe(2, Side::Up, 250, &mut ov),
            Some(PairedSample {
                up_ts: 250,
                down_ts: 300
            })
        );
        assert_eq!(t.pending_len(), 0);
        assert!(ov.is_empty());
    }

    #[test]
    fn pair_tracker_first_record_wins() {
        let mut t = PairTracker::new(16);
        let mut ov = Vec::new();
        t.observe(1, Side::Up, 100, &mut ov);
        t.observe(1, Side::Up, 120, &mut ov); // duplicate upstream
        let pair = t.observe(1, Side::Down, 150, &mut ov).unwrap();
        assert_eq!(pair.up_ts, 100);
    }

    #[test]
    fn timeout_eviction_reports_unmatched() {
        let mut t = PairTracker::new(16);
        let mut ov = Vec::new();
        t.observe(1, Side::Up, 100, &mut ov);
        t.observe(2, Side::Up, 500, &mut ov);
        t.observe(1, Side::Down, 140, &mut ov); // 1 completes
        let mut evicted = Vec::new();
        t.evict_older_than(400, &mut evicted);
        assert!(evicted.is_empty(), "2 is newer than the threshold");
        t.evict_older_than(500, &mut evicted);
        assert_eq!(
            evicted,
            vec![Evicted {
                side: Side::Up,
                ts: 500
            }]
        );
        assert_eq!(t.pending_len(), 0);
    }

    #[test]
    fn capacity_cap_force_evicts_oldest() {
        let mut t = PairTracker::new(2);
        let mut ov = Vec::new();
        t.observe(1, Side::Up, 100, &mut ov);
        t.observe(2, Side::Up, 200, &mut ov);
        t.observe(3, Side::Up, 300, &mut ov);
        assert_eq!(t.pending_len(), 2);
        assert_eq!(
            ov,
            vec![Evicted {
                side: Side::Up,
                ts: 100
            }]
        );
    }

    #[test]
    fn ids_sharing_one_bucket_pair_exactly_and_stay_capped() {
        // Under `TraceIdMap`'s one-multiply hash, IDs that differ only
        // above bit 20 all probe from bucket 0 of a table this small.
        let ids: Vec<u32> = (0..4_096u32).map(|i| i << 20).collect();
        let mut t = PairTracker::new(1_024);
        let mut ov = Vec::new();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(t.observe(id, Side::Up, i as u64, &mut ov), None);
            assert!(t.pending_len() <= 1_024);
        }
        // The cap evicted the oldest 3 072, oldest first.
        let evicted: Vec<u64> = ov.iter().map(|e| e.ts).collect();
        assert_eq!(evicted, (0..3_072).collect::<Vec<u64>>());
        // Every survivor pairs with its own upstream and no other.
        for (i, &id) in ids.iter().enumerate().skip(3_072) {
            let i = i as u64;
            let pair = t.observe(id, Side::Down, 10_000 + i, &mut ov);
            assert_eq!(
                pair,
                Some(PairedSample {
                    up_ts: i,
                    down_ts: 10_000 + i
                })
            );
        }
        assert_eq!(t.pending_len(), 0);
        // An evicted ID's downstream finds nothing to pair with.
        assert_eq!(t.observe(ids[0], Side::Down, 20_000, &mut ov), None);
        assert_eq!(t.pending_len(), 1);
    }

    #[test]
    fn throughput_windows_and_totals() {
        let mut op = ThroughputOp::new("rx".into());
        // Two windows: [0,1000) and [1000,2000); 104-byte tagged packets.
        for ts in [0u64, 500, 999, 1_000, 1_500] {
            op.push(&spec(), ts, 104, true);
        }
        let w0 = op.windows.close(0).unwrap();
        assert_eq!(w0.count, 3);
        assert_eq!(w0.bytes, 300);
        assert_eq!(w0.first_ts, 0);
        assert_eq!(w0.last_ts, 999);
        let expected = (300.0 * 8.0) / (999.0 / 1e9);
        assert!((w0.bps() - expected).abs() < 1e-6);
        let total = op.windows.total;
        assert_eq!(total.count, 5);
        assert_eq!(total.bytes, 500);
        assert_eq!(total.first_ts, 0);
        assert_eq!(total.last_ts, 1_500);
    }

    fn latency_pair() -> PairOp {
        let mut op = PairOp::new("a", "b", 1024);
        op.track_latency(0.01);
        op
    }

    fn loss_pair() -> PairOp {
        let mut op = PairOp::new("a", "b", 1024);
        op.track_loss();
        op
    }

    #[test]
    fn latency_pairs_into_downstream_window() {
        let mut op = latency_pair();
        let mut scratch = Vec::new();
        op.push(&spec(), Side::Up, 7, 900, &mut scratch);
        op.push(&spec(), Side::Down, 7, 1_100, &mut scratch); // delta 200, window 1000
        op.push(&spec(), Side::Up, 8, 950, &mut scratch);
        op.push(&spec(), Side::Down, 8, 1_250, &mut scratch); // delta 300, window 1000
        assert_eq!(op.close(0), (None, None), "samples land in the down window");
        let (s, loss) = op.close(1_000);
        let s = s.unwrap();
        assert_eq!(loss, None, "loss was not asked for");
        assert_eq!(s.count, 2);
        assert_eq!(s.jitter, Some((100, 100)));
        assert!((s.mean_ns - 250.0).abs() < 1e-9);
        let total = op.latency.as_ref().unwrap().total().unwrap();
        assert_eq!(total.count, 2);
    }

    #[test]
    fn latency_negative_deltas_dropped() {
        let mut op = latency_pair();
        let mut scratch = Vec::new();
        op.push(&spec(), Side::Up, 7, 2_000, &mut scratch);
        op.push(&spec(), Side::Down, 7, 1_500, &mut scratch);
        let latency = op.latency.as_ref().unwrap();
        assert_eq!(latency.negative_dropped, 1);
        assert!(latency.total().is_none());
    }

    #[test]
    fn loss_counts_seen_delivered_lost() {
        let mut op = loss_pair();
        let s = spec();
        let mut scratch = Vec::new();
        op.push(&s, Side::Up, 1, 100, &mut scratch);
        op.push(&s, Side::Up, 2, 200, &mut scratch);
        op.push(&s, Side::Up, 3, 300, &mut scratch);
        op.push(&s, Side::Down, 1, 150, &mut scratch);
        op.evict(&s, 400, &mut scratch);
        let (latency, w) = op.close(0);
        let w = w.unwrap();
        assert_eq!(latency, None, "latency was not asked for");
        assert_eq!(w.seen, 3);
        assert_eq!(w.delivered, 1);
        assert_eq!(w.lost, 2);
        assert!((w.rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(op.loss.as_ref().unwrap().total.lost, 2);
    }

    #[test]
    fn loss_orphan_downstream_is_not_a_loss() {
        let mut op = loss_pair();
        let s = spec();
        let mut scratch = Vec::new();
        op.push(&s, Side::Down, 9, 100, &mut scratch);
        op.evict(&s, 1_000, &mut scratch);
        assert_eq!(op.loss.as_ref().unwrap().total, LossWindow::default());
        assert_eq!(op.close(0), (None, None));
    }

    #[test]
    fn one_tracker_feeds_both_metrics() {
        let mut op = PairOp::new("a", "b", 1024);
        op.track_latency(0.01);
        op.track_loss();
        let s = spec();
        let mut scratch = Vec::new();
        op.push(&s, Side::Up, 1, 100, &mut scratch);
        op.push(&s, Side::Up, 2, 200, &mut scratch);
        assert_eq!(op.pending_len(), 2, "each trace ID is held once");
        op.push(&s, Side::Down, 1, 150, &mut scratch);
        op.evict(&s, 400, &mut scratch);
        assert_eq!(op.pending_len(), 0);
        let (latency, loss) = op.close(0);
        assert_eq!(latency.unwrap().count, 1);
        assert_eq!(
            loss.unwrap(),
            LossWindow {
                seen: 2,
                delivered: 1,
                lost: 1
            }
        );
        assert_eq!(op.latency.as_ref().unwrap().unmatched, 1);
    }
}
