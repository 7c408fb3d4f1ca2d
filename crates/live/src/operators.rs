//! Incremental per-window operators: throughput, latency, loss.
//!
//! Each operator maintains O(1)-per-window state updated record by
//! record — no buffering of raw samples. Latency and loss pair records
//! across two tracepoints by trace ID. All pairs share one
//! `PendingTable`: a record is one *sighting* of its trace ID at its
//! tracepoint, entered once however many pairs the tracepoint is in, and
//! a [`PairOp`] is only a pair's windows and counters.
//!
//! # Sightings
//!
//! A sighting is `{trace ID, tracepoint, when, open}`, where `open` has
//! one bit per pair the tracepoint is a side of, set while that pairing
//! still waits for the pair's other side. Sightings sit in one ring in
//! arrival order; each links to the next older open sighting of its ID
//! and a map finds an ID's newest. A new record walks its ID's chain —
//! relinking it past sightings that have settled, so it is as long as the
//! ID has open sightings: one or two on every shipped profile — and, per
//! pair:
//!
//! * the *opposite* side is open there: the pair completes, that bit is
//!   cleared and this record opens nothing for the pair;
//! * its *own* side is open there: this record is a duplicate and is
//!   dropped for the pair — the first record per side wins, as in the
//!   offline join;
//! * neither: this record opens its side.
//!
//! It is appended only if it opened something. Per pair that is the whole
//! state machine: at most one side of an ID is open at a time, either
//! side may arrive first, an ID pairs again after completing, and a
//! self-pair (its records are the upstream side only) never completes.
//!
//! # Bounds
//!
//! An open pairing leaves in one of three ways: completed; *timed out* —
//! `PendingTable::evict` settles every open sighting at or below
//! `watermark − pair_timeout`, wherever it sits in the ring, so a
//! window's counts are final when it closes; or *forced out* — the ring
//! never holds more than `max_pending_pairs × pairs` sightings, the
//! oldest is settled like a timeout to make room. Settled sightings are
//! popped as soon as they reach the front, so with the watermark stalled
//! the ring is bounded by that cap alone, and the map holds an entry only
//! for IDs with a resident sighting.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use vnet_tsdb::sketch::LogHistogram;
use vnettracer::metrics::{JitterTracker, ThroughputWindow};

use crate::window::{OpenWindows, WindowSpec};

/// One side of a trace-ID pairing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    /// The upstream (`from`) tracepoint.
    Up = 0,
    /// The downstream (`to`) tracepoint.
    Down = 1,
}

/// What a tracepoint is to one of the pairs it belongs to.
#[derive(Debug)]
struct Link {
    /// Index of the pair's [`PairOp`].
    pair: usize,
    /// The side of the pair this tracepoint is.
    side: Side,
    /// The tracepoint on the pair's other side…
    opposite: u32,
    /// …and this pair's bit in a sighting there (0 for a self-pair, which
    /// has no other side to wait for).
    opposite_bit: u64,
}

/// One record seen at one tracepoint, for as long as it is resident.
#[derive(Debug)]
struct Sighting {
    id: u32,
    tracepoint: u32,
    /// Sequence number of the next older sighting of the same ID that was
    /// still open when a walk last passed here; one below
    /// `PendingTable::base` has left the ring.
    prev: u64,
    /// Bit `k` set: the pairing of `links[k]` still waits.
    open: u64,
    ts: u64,
}

/// No sighting: a sequence number below every `base`.
const NO_SEQ: u64 = 0;
/// Sightings per [`PendingTable::floors`] entry.
const BLOCK: u64 = 256;
/// Pair links one tracepoint can hold: the bits of [`Sighting::open`]. A
/// measurement in more pairs is split over several tracepoints.
const MAX_LINKS: usize = 64;

/// The engine-wide pending set of trace-ID pairings; see the module docs.
#[derive(Debug)]
pub(crate) struct PendingTable {
    /// Tracepoint index → its links; a sighting's bit `k` is `links[k]`.
    tracepoints: Vec<Vec<Link>>,
    /// Trace ID → sequence number of its newest resident sighting.
    newest: vnet_tsdb::TraceIdMap<u64>,
    /// Resident sightings in arrival order; the front one is never
    /// settled.
    ring: VecDeque<Sighting>,
    /// Sequence number of `ring[0]` (of the next sighting when empty).
    base: u64,
    /// Per block of `BLOCK` consecutive sequence numbers still (partly)
    /// resident: a lower bound on the `ts` of its open sightings, so
    /// eviction scans only blocks the threshold has entered.
    floors: VecDeque<u64>,
    /// Set bits over all resident sightings.
    open_pairings: usize,
    max_resident: usize,
}

impl PendingTable {
    /// The table for `pairs`, holding at most `max_pending_pairs`
    /// sightings per pair, and the tracepoints each measurement's records
    /// are sightings at (one, unless it is in more than `MAX_LINKS` pairs).
    pub(crate) fn new(
        pairs: &[PairOp],
        max_pending_pairs: usize,
    ) -> (Self, Vec<(String, Vec<usize>)>) {
        // Measurement → the (pair, side)s it is, in pair order.
        let mut sides: Vec<(&str, Vec<(usize, Side)>)> = Vec::new();
        let mut side_of = |name, pair, side| match sides.iter_mut().find(|(n, _)| *n == name) {
            Some((_, s)) => s.push((pair, side)),
            None => sides.push((name, vec![(pair, side)])),
        };
        for (i, op) in pairs.iter().enumerate() {
            side_of(op.from.as_str(), i, Side::Up);
            // A self-pair's records are its upstream side only.
            if op.to != op.from {
                side_of(op.to.as_str(), i, Side::Down);
            }
        }
        // Where each side of each pair lives: (tracepoint, bit).
        let mut homes = vec![[None; 2]; pairs.len()];
        let mut routes = Vec::new();
        let mut groups = Vec::new();
        for (name, sides) in &sides {
            let mut tracepoints = Vec::new();
            for group in sides.chunks(MAX_LINKS) {
                for (k, &(pair, side)) in group.iter().enumerate() {
                    homes[pair][side as usize] = Some((groups.len() as u32, 1u64 << k));
                }
                tracepoints.push(groups.len());
                groups.push(group);
            }
            routes.push(((*name).to_owned(), tracepoints));
        }
        let tracepoints = groups
            .iter()
            .zip(0u32..)
            .map(|(group, own)| {
                let link = |&(pair, side): &(usize, Side)| {
                    let other = match side {
                        Side::Up => Side::Down,
                        Side::Down => Side::Up,
                    };
                    let (opposite, opposite_bit) = homes[pair][other as usize].unwrap_or((own, 0));
                    Link {
                        pair,
                        side,
                        opposite,
                        opposite_bit,
                    }
                };
                group.iter().map(link).collect()
            })
            .collect();
        let table = PendingTable {
            tracepoints,
            newest: Default::default(),
            ring: VecDeque::new(),
            base: NO_SEQ + 1,
            floors: VecDeque::new(),
            open_pairings: 0,
            max_resident: max_pending_pairs.max(1).saturating_mul(pairs.len().max(1)),
        };
        (table, routes)
    }

    /// Pairings waiting for their other side.
    pub(crate) fn open_pairings(&self) -> usize {
        self.open_pairings
    }

    /// Sightings in the ring, settled ones behind the front included.
    pub(crate) fn resident(&self) -> usize {
        self.ring.len()
    }

    /// Feeds one trace-ID-carrying record seen at `tracepoint`,
    /// accounting what it completes — and what the cap forces out — to
    /// `pairs`.
    pub(crate) fn observe(
        &mut self,
        pairs: &mut [PairOp],
        spec: &WindowSpec,
        tracepoint: usize,
        id: u32,
        ts: u64,
    ) {
        let links = &self.tracepoints[tracepoint];
        let tracepoint = tracepoint as u32;
        for link in links.iter().filter(|l| l.side == Side::Up) {
            pairs[link.pair].saw_upstream(spec, ts);
        }
        // Bits this record opens, and those of them no older sighting has
        // decided yet.
        let mut open = u64::MAX >> (MAX_LINKS - links.len());
        let mut undecided = open;
        let newest = self.newest.entry(id);
        let mut cur = match &newest {
            Entry::Occupied(seq) => *seq.get(),
            Entry::Vacant(_) => NO_SEQ,
        };
        // The chain is relinked as it is walked so that it runs through
        // sightings still open only: `prev` is where it continues behind
        // this record, `relink` the open sighting last passed.
        let mut prev = NO_SEQ;
        let mut relink = None;
        let mut settled = false;
        while cur >= self.base && undecided != 0 {
            let at = (cur - self.base) as usize;
            let seen = &mut self.ring[at];
            if seen.tracepoint == tracepoint {
                // The same side of every pair still open there.
                open &= !seen.open;
                undecided &= !seen.open;
            } else {
                let mut bits = undecided;
                while bits != 0 {
                    let bit = bits & bits.wrapping_neg();
                    bits ^= bit;
                    let link = &links[bit.trailing_zeros() as usize];
                    if link.opposite == seen.tracepoint && seen.open & link.opposite_bit != 0 {
                        seen.open &= !link.opposite_bit;
                        open &= !bit;
                        undecided &= !bit;
                        settled = true;
                        self.open_pairings -= 1;
                        let (up_ts, down_ts) = match link.side {
                            Side::Up => (ts, seen.ts),
                            Side::Down => (seen.ts, ts),
                        };
                        pairs[link.pair].paired(spec, up_ts, down_ts);
                    }
                }
            }
            let (still_open, next) = (seen.open != 0, seen.prev);
            if still_open {
                match relink.replace(at) {
                    Some(newer) => self.ring[newer].prev = cur,
                    None => prev = cur,
                }
            }
            cur = next;
        }
        match relink {
            Some(newer) => self.ring[newer].prev = cur,
            None => prev = cur,
        }
        if open != 0 {
            let seq = self.base + self.ring.len() as u64;
            let block = (seq / BLOCK - self.base / BLOCK) as usize;
            match self.floors.get_mut(block) {
                Some(floor) => *floor = (*floor).min(ts),
                None => self.floors.push_back(ts),
            }
            self.ring.push_back(Sighting {
                id,
                tracepoint,
                prev,
                open,
                ts,
            });
            match newest {
                Entry::Occupied(mut older) => *older.get_mut() = seq,
                Entry::Vacant(none) => {
                    none.insert(seq);
                }
            }
            self.open_pairings += open.count_ones() as usize;
            if self.ring.len() > self.max_resident {
                self.settle(0, pairs, spec);
                settled = true;
            }
        }
        if settled {
            self.pop_settled();
        }
    }

    /// Times out every open sighting at or below `threshold_ts`.
    pub(crate) fn evict(&mut self, pairs: &mut [PairOp], spec: &WindowSpec, threshold_ts: u64) {
        let first_block = self.base / BLOCK;
        for block in 0..self.floors.len() {
            if self.floors[block] > threshold_ts {
                continue;
            }
            let start = ((first_block + block as u64) * BLOCK).saturating_sub(self.base) as usize;
            let end = (((first_block + block as u64 + 1) * BLOCK - self.base) as usize)
                .min(self.ring.len());
            let mut floor = u64::MAX;
            for at in start..end {
                let seen = &self.ring[at];
                if seen.open == 0 {
                    continue;
                }
                if seen.ts <= threshold_ts {
                    self.settle(at, pairs, spec);
                } else {
                    floor = floor.min(seen.ts);
                }
            }
            self.floors[block] = floor;
        }
        self.pop_settled();
    }

    /// Closes every pairing `ring[at]` still waits for as unmatched.
    fn settle(&mut self, at: usize, pairs: &mut [PairOp], spec: &WindowSpec) {
        let seen = &mut self.ring[at];
        let links = &self.tracepoints[seen.tracepoint as usize];
        self.open_pairings -= seen.open.count_ones() as usize;
        while seen.open != 0 {
            let link = &links[seen.open.trailing_zeros() as usize];
            seen.open &= seen.open - 1;
            pairs[link.pair].unmatched(spec, link.side, seen.ts);
        }
    }

    /// Restores "the front sighting waits for something".
    fn pop_settled(&mut self) {
        while let Some(&Sighting { id, open: 0, .. }) = self.ring.front() {
            self.ring.pop_front();
            if let Entry::Occupied(newest) = self.newest.entry(id) {
                if *newest.get() == self.base {
                    newest.remove();
                }
            }
            self.base += 1;
            if self.base.is_multiple_of(BLOCK) {
                self.floors.pop_front();
            }
        }
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
    fn new() -> Self {
        LatencyWindow {
            sketch: LogHistogram::default(),
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
    /// Pairs evicted unmatched (no latency sample possible).
    pub(crate) unmatched: u64,
}

impl LatencyWindows {
    fn record_pair(&mut self, spec: &WindowSpec, up_ts: u64, down_ts: u64) {
        // A negative delta (clock inversion beyond the skew estimate) is
        // dropped, as offline data cleaning would.
        let Some(delta) = down_ts.checked_sub(up_ts) else {
            return;
        };
        self.windows.update(spec, down_ts, |w| w.record(delta));
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

/// The windows and counters of one `(from, to)` tracepoint pair. The
/// `PendingTable` does the pairing and reports here: completed samples
/// feed the latency windows; upstream arrivals, completions and unmatched
/// upstreams feed the loss windows — whichever of the two the
/// configuration asked for. An upstream record that outlives the pair
/// timeout without a downstream match is a loss; downstream-only
/// sightings leave silently.
#[derive(Debug)]
pub struct PairOp {
    /// Upstream tracepoint name.
    pub from: String,
    /// Downstream tracepoint name.
    pub to: String,
    /// The pair's stream label in a finalized window: `from->to`.
    pub label: String,
    pub(crate) latency: Option<LatencyWindows>,
    /// Keyed by the *upstream* timestamp's window. `total.lost` counts
    /// only finalized (timed-out) pairs; entries still inside the pair
    /// timeout are neither delivered nor lost yet.
    pub(crate) loss: Option<OpenWindows<LossWindow>>,
}

impl PairOp {
    /// A pair feeding nothing yet; see [`PairOp::track_latency`] and
    /// [`PairOp::track_loss`].
    pub(crate) fn new(from: &str, to: &str) -> Self {
        PairOp {
            from: from.to_owned(),
            to: to.to_owned(),
            label: format!("{from}->{to}"),
            latency: None,
            loss: None,
        }
    }

    pub(crate) fn track_latency(&mut self) {
        self.latency.get_or_insert_with(|| LatencyWindows {
            windows: OpenWindows::new(LatencyWindow::new()),
            unmatched: 0,
        });
    }

    pub(crate) fn track_loss(&mut self) {
        self.loss
            .get_or_insert_with(|| OpenWindows::new(LossWindow::default()));
    }

    /// A record arrived at the upstream tracepoint, first of its ID or
    /// not.
    fn saw_upstream(&mut self, spec: &WindowSpec, ts: u64) {
        if let Some(loss) = &mut self.loss {
            loss.update(spec, ts, |w| w.seen += 1);
        }
    }

    /// An ID's upstream and downstream records met.
    fn paired(&mut self, spec: &WindowSpec, up_ts: u64, down_ts: u64) {
        if let Some(latency) = &mut self.latency {
            latency.record_pair(spec, up_ts, down_ts);
        }
        if let Some(loss) = &mut self.loss {
            loss.update(spec, up_ts, |w| w.delivered += 1);
        }
    }

    /// The record seen at `side` at `ts` left without its other half.
    fn unmatched(&mut self, spec: &WindowSpec, side: Side, ts: u64) {
        if let Some(latency) = &mut self.latency {
            latency.unmatched += 1;
        }
        // Only an unmatched *upstream* is a lost packet; an orphan
        // downstream record has no upstream baseline to count against
        // (the offline N_i − N_j clamps these to zero too).
        if let (Side::Up, Some(loss)) = (side, &mut self.loss) {
            loss.update(spec, ts, |w| w.lost += 1);
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

    /// The pair `a->b` over a table of its own.
    struct OnePair {
        table: PendingTable,
        pairs: Vec<PairOp>,
    }

    impl OnePair {
        fn new(latency: bool, loss: bool) -> Self {
            let mut op = PairOp::new("a", "b");
            if latency {
                op.track_latency();
            }
            if loss {
                op.track_loss();
            }
            let pairs = vec![op];
            let (table, routes) = PendingTable::new(&pairs, 1024);
            assert_eq!(
                routes,
                [("a".to_owned(), vec![0]), ("b".to_owned(), vec![1])]
            );
            OnePair { table, pairs }
        }

        fn push(&mut self, side: Side, trace_id: u32, ts: u64) {
            self.table
                .observe(&mut self.pairs, &spec(), side as usize, trace_id, ts);
        }

        fn evict(&mut self, threshold_ts: u64) {
            self.table.evict(&mut self.pairs, &spec(), threshold_ts);
        }

        fn op(&mut self) -> &mut PairOp {
            &mut self.pairs[0]
        }
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

    #[test]
    fn latency_pairs_into_downstream_window() {
        let mut p = OnePair::new(true, false);
        p.push(Side::Up, 7, 900);
        p.push(Side::Down, 7, 1_100); // delta 200, window 1000
        p.push(Side::Up, 8, 950);
        p.push(Side::Down, 8, 1_250); // delta 300, window 1000
        assert_eq!(
            p.op().close(0),
            (None, None),
            "samples land in the down window"
        );
        let (s, loss) = p.op().close(1_000);
        let s = s.unwrap();
        assert_eq!(loss, None, "loss was not asked for");
        assert_eq!(s.count, 2);
        assert_eq!(s.jitter, Some((100, 100)));
        assert!((s.mean_ns - 250.0).abs() < 1e-9);
        let total = p.op().latency.as_ref().unwrap().total().unwrap();
        assert_eq!(total.count, 2);
    }

    #[test]
    fn latency_negative_deltas_dropped() {
        let mut p = OnePair::new(true, false);
        p.push(Side::Up, 7, 2_000);
        p.push(Side::Down, 7, 1_500);
        let latency = p.op().latency.as_ref().unwrap();
        assert!(latency.total().is_none());
    }

    #[test]
    fn loss_counts_seen_delivered_lost() {
        let mut p = OnePair::new(false, true);
        p.push(Side::Up, 1, 100);
        p.push(Side::Up, 2, 200);
        p.push(Side::Up, 3, 300);
        p.push(Side::Down, 1, 150);
        p.evict(400);
        let (latency, w) = p.op().close(0);
        let w = w.unwrap();
        assert_eq!(latency, None, "latency was not asked for");
        assert_eq!(w.seen, 3);
        assert_eq!(w.delivered, 1);
        assert_eq!(w.lost, 2);
        assert!((w.rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(p.op().loss.as_ref().unwrap().total.lost, 2);
    }

    #[test]
    fn loss_orphan_downstream_is_not_a_loss() {
        let mut p = OnePair::new(false, true);
        p.push(Side::Down, 9, 100);
        p.evict(1_000);
        assert_eq!(p.op().loss.as_ref().unwrap().total, LossWindow::default());
        assert_eq!(p.op().close(0), (None, None));
    }

    #[test]
    fn one_sighting_feeds_both_metrics() {
        let mut p = OnePair::new(true, true);
        p.push(Side::Up, 1, 100);
        p.push(Side::Up, 2, 200);
        assert_eq!(p.table.open_pairings(), 2, "each trace ID is held once");
        p.push(Side::Down, 1, 150);
        p.evict(400);
        assert_eq!(p.table.open_pairings(), 0);
        assert_eq!(p.table.resident(), 0);
        let (latency, loss) = p.op().close(0);
        assert_eq!(latency.unwrap().count, 1);
        assert_eq!(
            loss.unwrap(),
            LossWindow {
                seen: 2,
                delivered: 1,
                lost: 1
            }
        );
        assert_eq!(p.op().latency.as_ref().unwrap().unmatched, 1);
    }

    /// What `observe` leaves behind, case by case: a settled front is
    /// popped at once, a settled sighting behind an open one waits for
    /// it, and the map forgets an ID with its last resident sighting.
    #[test]
    fn settled_sightings_leave_from_the_front() {
        let mut p = OnePair::new(true, true);
        p.push(Side::Up, 1, 100);
        p.push(Side::Up, 2, 200);
        p.push(Side::Down, 2, 250); // settles the second sighting only
        assert_eq!((p.table.resident(), p.table.open_pairings()), (2, 1));
        assert_eq!(p.table.newest.len(), 2);
        p.push(Side::Down, 1, 150); // settles the front: both pop
        assert_eq!((p.table.resident(), p.table.open_pairings()), (0, 0));
        assert!(p.table.newest.is_empty());
        // The ID pairs again after completing, either side first.
        p.push(Side::Down, 1, 400);
        p.push(Side::Up, 1, 350);
        assert_eq!(p.table.resident(), 0);
        let total = p.op().latency.as_ref().unwrap().total().unwrap();
        assert_eq!(total.count, 3);
    }

    /// An ID reused while older sightings of it are still resident — here
    /// alternating between two pairs, so that each new sighting is
    /// appended while the one before it is still open. A walk relinks the
    /// chain past what has settled, so it stays as short as the ID's open
    /// pairings however often the ID recurs.
    #[test]
    fn chains_run_through_open_sightings_only() {
        let mut pairs = vec![PairOp::new("a", "b"), PairOp::new("c", "d")];
        pairs.iter_mut().for_each(|p| p.track_latency());
        let (mut table, _) = PendingTable::new(&pairs, 1 << 20);
        let (a, b, c, d) = (0, 1, 2, 3);
        let mut see = |table: &mut PendingTable, tracepoint, id, ts| {
            table.observe(&mut pairs, &spec(), tracepoint, id, ts);
        };
        see(&mut table, a, 9, 10); // stays open at the front, holding the ring
        see(&mut table, a, 1, 100);
        for round in 1..=500u64 {
            let ts = 100 + 10 * round;
            see(&mut table, c, 1, ts); // opened while `a`'s is open
            see(&mut table, b, 1, ts + 1); // settles `a`'s
            see(&mut table, a, 1, ts + 2); // opened while `c`'s is open
            see(&mut table, d, 1, ts + 3); // settles `c`'s
        }
        assert_eq!(table.resident(), 1_002);
        assert_eq!(table.open_pairings(), 2);
        let mut chain = 0;
        let mut cur = table.newest[&1];
        while cur >= table.base {
            chain += 1;
            cur = table.ring[(cur - table.base) as usize].prev;
        }
        assert_eq!(chain, 1, "999 settled sightings of ID 1 are resident");
        let total = |p: &PairOp| p.latency.as_ref().unwrap().total().unwrap().count;
        assert_eq!((total(&pairs[0]), total(&pairs[1])), (500, 500));
    }
}
