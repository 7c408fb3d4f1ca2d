//! The streaming engine: batches in, finalized windows and alerts out.
//!
//! [`LiveEngine`] implements [`IngestSubscriber`], so attaching it to a
//! collector (`tracer.subscribe(...)`) makes every collection cycle flow
//! through the operators as it is ingested — the trace database keeps
//! growing, but the engine's resident state stays bounded by the number
//! of *open* windows, the pairing caps and the closed-window ring, all
//! independent of how many records have ever passed through.
//!
//! Per batch the engine: advances the source agent's watermark frontier
//! from the heartbeat, aligns each record timestamp through the agent's
//! skew estimate, drops-and-counts records below the watermark, routes
//! the rest to its throughput operators and — once, whatever the number
//! of pairs its tracepoint is in — to the pending table, then times out
//! every pairing at or below `watermark − pair_timeout` and finalizes
//! windows. A window `[s, s+width)` finalizes only once
//! `watermark ≥ s + width + pair_timeout`: by then every pairing whose
//! loss would land in the window has either completed or been evicted,
//! so the emitted counts are final and each window is emitted once.

use std::collections::{BTreeSet, HashMap, VecDeque};

use vnet_sim::time::SimTime;
use vnet_tsdb::RecordBatch;
use vnettracer::clock_sync::SkewEstimate;
use vnettracer::metrics::ThroughputWindow;
use vnettracer::IngestSubscriber;

use crate::alert::{Alert, AnomalyDetector, STALL_TIMEOUT_NS};
use crate::operators::{LatencySummary, LossWindow, PairOp, PendingTable, ThroughputOp};
use crate::window::{WatermarkTracker, WindowSpec};

/// What to compute and how tightly to bound state.
#[derive(Debug, Clone)]
pub struct LiveConfig {
    /// The event-time window scheme shared by every operator.
    pub window: WindowSpec,
    /// Tracepoints to compute windowed throughput for.
    pub throughput: Vec<String>,
    /// `(from, to)` tracepoint pairs to compute windowed latency for.
    pub latency: Vec<(String, String)>,
    /// `(upstream, downstream)` tracepoint pairs to compute loss for.
    pub loss: Vec<(String, String)>,
    /// How long an unmatched pairing may wait for its other half before
    /// being finalized as a loss.
    pub pair_timeout_ns: u64,
    /// Hard cap on the pairing state, per tracepoint pair: the engine
    /// keeps at most this many records times the number of pairs waiting
    /// for their other half, and force-evicts the oldest beyond that.
    pub max_pending_pairs: usize,
    /// Finalized windows retained for the caller (oldest dropped first).
    pub max_closed_windows: usize,
}

impl LiveConfig {
    /// A config computing nothing yet over the given window scheme, with
    /// conservative defaults for the state bounds.
    pub fn new(window: WindowSpec) -> Self {
        LiveConfig {
            window,
            throughput: Vec::new(),
            latency: Vec::new(),
            loss: Vec::new(),
            pair_timeout_ns: 10_000_000,
            max_pending_pairs: 65_536,
            max_closed_windows: 256,
        }
    }

    /// Adds a windowed-throughput tracepoint.
    pub fn track_throughput(mut self, tracepoint: &str) -> Self {
        self.throughput.push(tracepoint.to_owned());
        self
    }

    /// Adds a windowed-latency (and jitter) tracepoint pair.
    pub fn track_latency(mut self, from: &str, to: &str) -> Self {
        self.latency.push((from.to_owned(), to.to_owned()));
        self
    }

    /// Adds a windowed-loss tracepoint pair.
    pub fn track_loss(mut self, upstream: &str, downstream: &str) -> Self {
        self.loss.push((upstream.to_owned(), downstream.to_owned()));
        self
    }

    /// Builds the operator set a module profile contributes: each
    /// [`vnettracer::MetricSpec`] becomes the matching `track_*` call.
    /// This is how `ModuleRegistry::metrics` output turns into a running
    /// engine.
    pub fn from_metric_specs(window: WindowSpec, specs: &[vnettracer::MetricSpec]) -> Self {
        let mut cfg = LiveConfig::new(window);
        for spec in specs {
            cfg = match spec {
                vnettracer::MetricSpec::Latency { from, to } => cfg.track_latency(from, to),
                vnettracer::MetricSpec::Throughput { table } => cfg.track_throughput(table),
                vnettracer::MetricSpec::Loss {
                    upstream,
                    downstream,
                } => cfg.track_loss(upstream, downstream),
            };
        }
        cfg
    }
}

/// Every metric of one finalized window, labelled by stream.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowResult {
    /// Window start (inclusive), aligned master nanoseconds.
    pub start_ns: u64,
    /// Window end (exclusive).
    pub end_ns: u64,
    /// Per-tracepoint throughput accumulators.
    pub throughput: Vec<(String, ThroughputWindow)>,
    /// Per-pair (`from->to`) latency summaries.
    pub latency: Vec<(String, LatencySummary)>,
    /// Per-pair (`up->down`) loss counters.
    pub loss: Vec<(String, LossWindow)>,
}

/// A point-in-time accounting of everything the engine keeps resident —
/// the quantities that must stay bounded regardless of trace size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineState {
    /// Open (not yet finalized) windows, summed across operators.
    pub open_windows: usize,
    /// Sketch buckets alive across all open-window and total sketches.
    pub sketch_buckets: usize,
    /// Unmatched pairings waiting for their other half. A tracepoint pair
    /// tracked for both latency and loss holds each pairing once.
    pub pending_pairs: usize,
    /// Records resident in the pending table — each waiting on one or
    /// more pairings, or settled and not yet at the front of the ring.
    /// Never above `max_pending_pairs` × the number of pairs.
    pub resident_sightings: usize,
    /// Finalized windows retained in the ring.
    pub closed_windows: usize,
    /// Records dropped (and counted) for arriving below the watermark.
    pub late_records: u64,
    /// Records routed into at least one operator.
    pub records_processed: u64,
}

/// The operators one measurement's records feed.
#[derive(Debug, Default)]
struct Route {
    /// Indices into `LiveEngine::throughput`.
    throughput: Vec<usize>,
    /// The pending table's tracepoints this measurement's trace-ID
    /// records are sightings at: one, however many pairs it is in (more
    /// only past 64 pairs).
    tracepoints: Vec<usize>,
}

/// The streaming analysis engine. See the module docs for the lifecycle.
#[derive(Debug)]
pub struct LiveEngine {
    cfg: LiveConfig,
    watermark: WatermarkTracker,
    throughput: Vec<ThroughputOp>,
    /// One operator per distinct `(from, to)` named by `cfg.latency` or
    /// `cfg.loss`.
    pairs: Vec<PairOp>,
    /// The one pairing state behind all of `pairs`.
    pending: PendingTable,
    /// Measurement name → the operators it feeds, resolved once here so
    /// ingest does one lookup per record group.
    routes: HashMap<String, Route>,
    /// The pair operator behind each `cfg.latency` entry, in that order —
    /// the order of [`WindowResult::latency`].
    latency_order: Vec<usize>,
    /// Likewise for `cfg.loss` and [`WindowResult::loss`].
    loss_order: Vec<usize>,
    detector: AnomalyDetector,
    closed: VecDeque<WindowResult>,
    alerts: Vec<Alert>,
    records_processed: u64,
    now_ns: u64,
    /// The watermark the last advance ran at.
    advanced_to: Option<u64>,
}

impl LiveEngine {
    /// Builds the operator set described by `cfg`.
    pub fn new(cfg: LiveConfig) -> Self {
        let throughput: Vec<ThroughputOp> = cfg
            .throughput
            .iter()
            .map(|tp| ThroughputOp::new(tp.clone()))
            .collect();
        let mut pairs: Vec<PairOp> = Vec::new();
        let mut pair_index = |from: &str, to: &str| {
            pairs
                .iter()
                .position(|p| p.from == from && p.to == to)
                .unwrap_or_else(|| {
                    pairs.push(PairOp::new(from, to));
                    pairs.len() - 1
                })
        };
        let latency_order: Vec<usize> = cfg.latency.iter().map(|(f, t)| pair_index(f, t)).collect();
        let loss_order: Vec<usize> = cfg.loss.iter().map(|(u, d)| pair_index(u, d)).collect();
        for &i in &latency_order {
            pairs[i].track_latency();
        }
        for &i in &loss_order {
            pairs[i].track_loss();
        }

        let mut routes: HashMap<String, Route> = HashMap::new();
        for (i, op) in throughput.iter().enumerate() {
            let route = routes.entry(op.measurement.clone()).or_default();
            route.throughput.push(i);
        }
        let (pending, tracepoints) = PendingTable::new(&pairs, cfg.max_pending_pairs);
        for (measurement, tracepoints) in tracepoints {
            routes.entry(measurement).or_default().tracepoints = tracepoints;
        }

        LiveEngine {
            cfg,
            watermark: WatermarkTracker::new(),
            throughput,
            pairs,
            pending,
            routes,
            latency_order,
            loss_order,
            detector: AnomalyDetector::default(),
            closed: VecDeque::new(),
            alerts: Vec::new(),
            records_processed: 0,
            now_ns: 0,
            advanced_to: None,
        }
    }

    /// Registers an agent the watermark must wait for, with the skew
    /// estimate used to align its timestamps (None for the local node).
    pub fn register_agent(&mut self, node: &str, skew: Option<SkewEstimate>) {
        self.watermark.register_agent(node, skew);
    }

    /// Feeds one collection cycle's batch, attributing frontier movement
    /// to the heartbeat embedded in the cycle (`now_ns`, master clock).
    pub fn ingest(&mut self, batch: &RecordBatch, now_ns: u64) {
        self.now_ns = self.now_ns.max(now_ns);
        // Frontiers move on heartbeats only, so one read serves the batch.
        let watermark = self.watermark.watermark_ns();
        let mut late = 0u64;
        for group in batch.groups() {
            if group.records.is_empty() {
                continue;
            }
            let Some(route) = self.routes.get(group.measurement.as_str()) else {
                continue;
            };
            let skew = self.watermark.skew(&group.node);
            for r in &group.records {
                let ts = skew.map_or(r.timestamp_ns, |s| s.align_remote_ns(r.timestamp_ns));
                if ts < watermark {
                    late += 1;
                    continue;
                }
                self.records_processed += 1;
                for &i in &route.throughput {
                    self.throughput[i].push(&self.cfg.window, ts, r.pkt_len, r.has_trace_id());
                }
                if r.has_trace_id() {
                    for &tracepoint in &route.tracepoints {
                        self.pending.observe(
                            &mut self.pairs,
                            &self.cfg.window,
                            tracepoint,
                            r.trace_id,
                            ts,
                        );
                    }
                }
            }
        }
        self.watermark.note_late(late);
        self.advance();
    }

    /// Advances `node`'s watermark frontier from a heartbeat at master
    /// time `now_ns`, finalizing any windows that became complete.
    pub fn heartbeat(&mut self, node: &str, now_ns: u64) {
        self.now_ns = self.now_ns.max(now_ns);
        self.watermark.heartbeat(node, now_ns);
        self.advance();
        // Who lags whom changes with heartbeats and nothing else.
        let stalled = self.watermark.stalled_agents(STALL_TIMEOUT_NS);
        self.detector
            .on_stall_report(&stalled, self.now_ns, &mut self.alerts);
    }

    /// Forces every frontier far past all data and finalizes everything
    /// still open — call once at the end of a run. Uses a sentinel well
    /// below `u64::MAX` so window-end arithmetic cannot wrap.
    pub fn finish(&mut self) {
        self.watermark.advance_all(u64::MAX / 4);
        self.advance();
    }

    /// Evicts timed-out pairings, finalizes complete windows, and runs
    /// the anomaly detectors over each newly closed window.
    ///
    /// Returns at once when the watermark has not moved since the last
    /// run and the pair timeout is positive: records since then sit at or
    /// above the watermark, so each window they opened ends past it and a
    /// pairing they touched is younger than `watermark − pair_timeout`;
    /// the pairings and windows that were already there were settled by
    /// that run. With a zero timeout a record at the watermark is evictable
    /// at once, so every call runs.
    fn advance(&mut self) {
        let watermark = self.watermark.watermark_ns();
        if self.cfg.pair_timeout_ns > 0 && self.advanced_to == Some(watermark) {
            return;
        }
        self.advanced_to = Some(watermark);
        // checked_sub: until a full timeout has elapsed no entry can have
        // timed out, not even one keyed at t=0.
        if let Some(evict_before) = watermark.checked_sub(self.cfg.pair_timeout_ns) {
            self.pending
                .evict(&mut self.pairs, &self.cfg.window, evict_before);
        }

        // A window is final once even its slowest pairing has resolved.
        let mut to_close: BTreeSet<u64> = BTreeSet::new();
        let (window, pair_timeout_ns) = (self.cfg.window, self.cfg.pair_timeout_ns);
        let complete = |start: u64| window.end(start).saturating_add(pair_timeout_ns) <= watermark;
        for op in &self.throughput {
            to_close.extend(op.windows.open_starts().filter(|&s| complete(s)));
        }
        for op in &self.pairs {
            to_close.extend(op.open_starts().filter(|&s| complete(s)));
        }
        for start in to_close {
            let pairs = &mut self.pairs;
            let closed: Vec<_> = pairs.iter_mut().map(|op| op.close(start)).collect();
            let result = WindowResult {
                start_ns: start,
                end_ns: self.cfg.window.end(start),
                throughput: self
                    .throughput
                    .iter_mut()
                    .filter_map(|op| op.windows.close(start).map(|w| (op.measurement.clone(), w)))
                    .collect(),
                latency: self
                    .latency_order
                    .iter()
                    .filter_map(|&i| closed[i].0.map(|w| (pairs[i].label.clone(), w)))
                    .collect(),
                loss: self
                    .loss_order
                    .iter()
                    .filter_map(|&i| closed[i].1.map(|w| (pairs[i].label.clone(), w)))
                    .collect(),
            };
            self.detector.on_window(&result, &mut self.alerts);
            self.closed.push_back(result);
            while self.closed.len() > self.cfg.max_closed_windows {
                self.closed.pop_front();
            }
        }
    }

    /// Removes and returns all finalized windows, oldest first.
    pub fn drain_closed(&mut self) -> Vec<WindowResult> {
        self.closed.drain(..).collect()
    }

    /// Removes and returns all pending alerts, in emission order.
    pub fn drain_alerts(&mut self) -> Vec<Alert> {
        std::mem::take(&mut self.alerts)
    }

    /// The current global watermark.
    pub fn watermark_ns(&self) -> u64 {
        self.watermark.watermark_ns()
    }

    fn pair(&self, from: &str, to: &str) -> Option<&PairOp> {
        self.pairs.iter().find(|op| op.from == from && op.to == to)
    }

    /// Cumulative latency totals for the `(from, to)` pair, if tracked
    /// and non-empty.
    pub fn latency_total(&self, from: &str, to: &str) -> Option<LatencySummary> {
        self.pair(from, to)?.latency.as_ref()?.total()
    }

    /// Cumulative throughput totals for `tracepoint`, if tracked.
    pub fn throughput_total(&self, tracepoint: &str) -> Option<ThroughputWindow> {
        self.throughput
            .iter()
            .find(|op| op.measurement == tracepoint)
            .map(|op| op.windows.total)
    }

    /// Cumulative loss totals for the `(upstream, downstream)` pair, if
    /// tracked. Pairings still inside the timeout are in neither bucket.
    pub fn loss_total(&self, upstream: &str, downstream: &str) -> Option<LossWindow> {
        let loss = self.pair(upstream, downstream)?.loss.as_ref()?;
        Some(loss.total)
    }

    /// Unmatched pairings evicted for the `(upstream, downstream)`
    /// latency pair (no sample could be produced for them).
    pub fn latency_unmatched(&self, from: &str, to: &str) -> Option<u64> {
        let latency = self.pair(from, to)?.latency.as_ref()?;
        Some(latency.unmatched)
    }

    /// Snapshot of all resident state, for bound checks and debugging.
    pub fn state(&self) -> EngineState {
        let throughput_windows: usize =
            self.throughput.iter().map(|o| o.windows.open_count()).sum();
        EngineState {
            open_windows: throughput_windows
                + self.pairs.iter().map(|o| o.open_count()).sum::<usize>(),
            sketch_buckets: self.pairs.iter().map(|o| o.bucket_count()).sum(),
            pending_pairs: self.pending.open_pairings(),
            resident_sightings: self.pending.resident(),
            closed_windows: self.closed.len(),
            late_records: self.watermark.late_records(),
            records_processed: self.records_processed,
        }
    }
}

impl IngestSubscriber for LiveEngine {
    fn on_batch(
        &mut self,
        node: &str,
        _heartbeat_seq: u64,
        batch: &RecordBatch,
        _lost_records: u64,
        now: SimTime,
    ) {
        self.ingest(batch, now.as_nanos());
        // The collector forwards the batch-borne heartbeat right after
        // this call; advancing here too (idempotent — frontiers only
        // move forward) keeps the engine correct when driven directly.
        self.heartbeat(node, now.as_nanos());
    }

    fn on_heartbeat(&mut self, node: &str, _seq: u64, now: SimTime) {
        self.heartbeat(node, now.as_nanos());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_tsdb::record::CompactRecord;

    fn rec(ts: u64, trace_id: u32, pkt_len: u32) -> CompactRecord {
        CompactRecord {
            timestamp_ns: ts,
            trace_id,
            pkt_len,
            flags: 1,
            ..Default::default()
        }
    }

    fn engine() -> LiveEngine {
        let cfg = LiveConfig::new(WindowSpec::tumbling(1_000_000))
            .track_throughput("tx")
            .track_latency("tx", "rx")
            .track_loss("tx", "rx");
        let mut e = LiveEngine::new(cfg);
        e.register_agent("n1", None);
        e
    }

    fn feed(e: &mut LiveEngine, table: &str, recs: &[CompactRecord], now: u64) {
        let mut b = RecordBatch::new();
        for r in recs {
            b.push(table, "n1", *r);
        }
        e.ingest(&b, now);
        e.heartbeat("n1", now);
    }

    #[test]
    fn windows_close_after_pair_timeout_and_report_all_metrics() {
        let mut e = engine();
        feed(
            &mut e,
            "tx",
            &[
                rec(100_000, 1, 100),
                rec(200_000, 2, 100),
                rec(300_000, 3, 100),
            ],
            100_000,
        );
        feed(
            &mut e,
            "rx",
            &[rec(150_000, 1, 100), rec(260_000, 2, 100)],
            500_000,
        );
        assert!(e.closed.iter().next().is_none(), "window still open");
        // Watermark must pass end (1ms) + pair timeout (10ms).
        e.heartbeat("n1", 12_000_000);
        let closed = e.drain_closed();
        assert_eq!(closed.len(), 1);
        let w = &closed[0];
        assert_eq!(w.start_ns, 0);
        assert_eq!(w.throughput[0].1.count, 3);
        let (_, lat) = &w.latency[0];
        assert_eq!(lat.count, 2);
        assert_eq!(lat.jitter, Some((10_000, 10_000)));
        let (_, loss) = &w.loss[0];
        assert_eq!(loss.seen, 3);
        assert_eq!(loss.delivered, 2);
        assert_eq!(loss.lost, 1, "trace 3 timed out unmatched");
    }

    /// DESIGN §7: "the emitted counts are final". An upstream that timed
    /// out must be evicted — and its loss counted — before its window
    /// closes, even when a newer arrival sits in front of it in arrival
    /// order; else the eviction re-opens a window already emitted.
    #[test]
    fn a_window_is_emitted_once_with_its_final_loss() {
        let mut cfg = LiveConfig::new(WindowSpec::tumbling(1_000)).track_loss("up", "down");
        cfg.pair_timeout_ns = 1_000;
        let mut e = LiveEngine::new(cfg);
        e.register_agent("n1", None);
        e.register_agent("n2", None);
        let mut b = RecordBatch::new();
        b.push("down", "n2", rec(4_900, 1, 100));
        e.ingest(&b, 5_000);
        e.heartbeat("n2", 5_000);
        b.clear();
        b.push("up", "n1", rec(3_000, 2, 100));
        b.push("up", "n1", rec(4_800, 1, 100));
        e.ingest(&b, 5_000);
        e.heartbeat("n1", 5_000);
        e.heartbeat("n1", 9_000);
        e.heartbeat("n2", 9_000);
        e.finish();
        let closed = e.drain_closed();
        let starts: Vec<u64> = closed.iter().map(|w| w.start_ns).collect();
        assert_eq!(starts, [3_000, 4_000], "each window start exactly once");
        let lost = LossWindow {
            seen: 1,
            delivered: 0,
            lost: 1,
        };
        assert_eq!(closed[0].loss, [("up->down".to_owned(), lost)]);
    }

    /// One step of a stream fed to an engine: a batch of one table from
    /// one agent with its heartbeat, or a bare heartbeat.
    enum Step<'a> {
        Batch(&'a str, &'a str, &'a [CompactRecord], u64),
        Heartbeat(&'a str, u64),
    }

    /// Feeds `steps` to an engine on `cfg` with agents `n1` and `n2`, and
    /// to one made to run every advance in full (its last watermark
    /// forgotten before each call). After each step both must have
    /// emitted the same windows and alerts and hold the same state; the
    /// engine's windows are returned step by step.
    fn against_full_advances(cfg: LiveConfig, steps: &[Step]) -> Vec<Vec<WindowResult>> {
        let [mut e, mut full] = [(); 2].map(|()| {
            let mut e = LiveEngine::new(cfg.clone());
            e.register_agent("n1", None);
            e.register_agent("n2", None);
            e
        });
        let apply = |e: &mut LiveEngine, step: &Step, forget: bool| {
            let forget = |e: &mut LiveEngine| {
                if forget {
                    e.advanced_to = None;
                }
            };
            match *step {
                Step::Batch(table, node, recs, now) => {
                    let mut b = RecordBatch::new();
                    for r in recs {
                        b.push(table, node, *r);
                    }
                    forget(e);
                    e.ingest(&b, now);
                    forget(e);
                    e.heartbeat(node, now);
                }
                Step::Heartbeat(node, now) => {
                    forget(e);
                    e.heartbeat(node, now);
                }
            }
        };
        let mut emitted = Vec::new();
        for step in steps {
            apply(&mut e, step, false);
            apply(&mut full, step, true);
            let closed = e.drain_closed();
            assert_eq!(closed, full.drain_closed());
            assert_eq!(e.drain_alerts(), full.drain_alerts());
            assert_eq!(e.state(), full.state());
            emitted.push(closed);
        }
        emitted
    }

    /// While one agent lags, the other's batches and heartbeats leave the
    /// watermark where it was: those advances return at once, closing no
    /// window and evicting no pairing. The lagging agent's heartbeat then
    /// moves it, and the windows and alerts come out as from an engine
    /// that ran every advance in full.
    #[test]
    fn an_advance_at_an_unmoved_watermark_changes_nothing() {
        let cfg = LiveConfig::new(WindowSpec::tumbling(1_000))
            .track_throughput("tx")
            .track_latency("tx", "rx")
            .track_loss("tx", "rx");
        let tx = [rec(2_100, 1, 100), rec(2_200, 2, 100), rec(2_300, 3, 100)];
        let rx = [rec(2_150, 1, 100), rec(2_600, 2, 100)];
        let emitted = against_full_advances(
            LiveConfig {
                pair_timeout_ns: 500,
                ..cfg
            },
            &[
                Step::Heartbeat("n2", 2_000),
                Step::Batch("tx", "n1", &tx, 3_000),
                Step::Batch("rx", "n1", &rx, 9_000),
                Step::Heartbeat("n1", 20_000),
                Step::Heartbeat("n2", 20_000),
            ],
        );
        let windows: Vec<usize> = emitted.iter().map(Vec::len).collect();
        assert_eq!(windows, [0, 0, 0, 0, 1], "only the moving heartbeat closes");
        let loss = &emitted[4][0].loss[0].1;
        assert_eq!((loss.seen, loss.delivered, loss.lost), (3, 2, 1));
    }

    /// With no pair timeout a record at the watermark is evictable as
    /// soon as it is seen, so the engine advances on every call even
    /// where the watermark has not moved: the upstream at the watermark
    /// is evicted by its own batch's advance, before the downstream
    /// that would have matched it arrives, as in an engine that runs
    /// every advance in full.
    #[test]
    fn with_no_pair_timeout_every_advance_runs() {
        let mut cfg = LiveConfig::new(WindowSpec::tumbling(1_000)).track_loss("tx", "rx");
        cfg.pair_timeout_ns = 0;
        let emitted = against_full_advances(
            cfg,
            &[
                Step::Heartbeat("n1", 2_000),
                Step::Heartbeat("n2", 2_000),
                Step::Batch("tx", "n1", &[rec(2_000, 1, 100)], 3_000),
                Step::Batch("rx", "n1", &[rec(2_500, 1, 100)], 3_000),
                Step::Heartbeat("n2", 5_000),
            ],
        );
        let loss = &emitted[4][0].loss[0].1;
        assert_eq!(
            (loss.seen, loss.delivered, loss.lost),
            (1, 0, 1),
            "evicted at once"
        );
    }

    /// One pair `tx->rx`, both metrics, windows of `width_ns`; until its
    /// one agent heartbeats the watermark stays at 0 and only the cap
    /// evicts.
    fn one_pair(width_ns: u64, max_pending_pairs: usize) -> LiveEngine {
        let mut cfg = LiveConfig::new(WindowSpec::tumbling(width_ns))
            .track_latency("tx", "rx")
            .track_loss("tx", "rx");
        cfg.max_pending_pairs = max_pending_pairs;
        let mut e = LiveEngine::new(cfg);
        e.register_agent("n1", None);
        e
    }

    fn ingest(e: &mut LiveEngine, table: &str, recs: &[CompactRecord]) {
        let mut b = RecordBatch::new();
        for r in recs {
            b.push(table, "n1", *r);
        }
        e.ingest(&b, 0);
    }

    #[test]
    fn pairs_match_in_either_arrival_order() {
        let mut e = one_pair(1_000, 16);
        ingest(&mut e, "tx", &[rec(100, 1, 100)]);
        ingest(&mut e, "rx", &[rec(150, 1, 100)]);
        // Downstream first (cross-agent drain order).
        ingest(&mut e, "rx", &[rec(300, 2, 100)]);
        ingest(&mut e, "tx", &[rec(250, 2, 100)]);
        let lat = e.latency_total("tx", "rx").unwrap();
        assert_eq!(
            (lat.count, lat.mean_ns, lat.jitter),
            (2, 50.0, Some((0, 0)))
        );
        let s = e.state();
        assert_eq!((s.pending_pairs, s.resident_sightings), (0, 0));
        assert_eq!(e.latency_unmatched("tx", "rx"), Some(0));
    }

    #[test]
    fn first_record_per_side_wins() {
        let mut e = one_pair(1_000, 16);
        // The second upstream is a duplicate: seen, but not the one paired.
        ingest(&mut e, "tx", &[rec(100, 1, 100), rec(120, 1, 100)]);
        assert_eq!(e.state().resident_sightings, 1);
        ingest(&mut e, "rx", &[rec(150, 1, 100)]);
        assert_eq!(e.latency_total("tx", "rx").unwrap().mean_ns, 50.0);
        let l = e.loss_total("tx", "rx").unwrap();
        assert_eq!((l.seen, l.delivered, l.lost), (2, 1, 0));
    }

    #[test]
    fn timeout_eviction_reports_unmatched() {
        let mut e = one_pair(1_000, 16);
        e.cfg.pair_timeout_ns = 1_000;
        ingest(&mut e, "tx", &[rec(100, 1, 100), rec(500, 2, 100)]);
        ingest(&mut e, "rx", &[rec(140, 1, 100)]); // 1 completes
        e.heartbeat("n1", 1_499);
        assert_eq!(e.state().pending_pairs, 1, "2 is newer than the threshold");
        e.heartbeat("n1", 1_500);
        assert_eq!(e.state().pending_pairs, 0);
        assert_eq!(e.latency_unmatched("tx", "rx"), Some(1));
        let l = e.loss_total("tx", "rx").unwrap();
        assert_eq!((l.seen, l.delivered, l.lost), (2, 1, 1));
    }

    #[test]
    fn capacity_cap_force_evicts_oldest() {
        let mut e = one_pair(1_000, 2);
        ingest(
            &mut e,
            "tx",
            &[rec(100, 1, 100), rec(1_200, 2, 100), rec(2_300, 3, 100)],
        );
        let s = e.state();
        assert_eq!((s.pending_pairs, s.resident_sightings), (2, 2));
        // Accounted exactly like a timeout: a loss and an unmatched.
        assert_eq!(e.latency_unmatched("tx", "rx"), Some(1));
        e.finish();
        let lost: Vec<u64> = e.closed.iter().map(|w| w.loss[0].1.lost).collect();
        assert_eq!(lost, [1, 1, 1]);
    }

    #[test]
    fn ids_sharing_one_bucket_pair_exactly_and_stay_capped() {
        // Under `TraceIdMap`'s one-multiply hash, IDs that differ only
        // above bit 20 all probe from bucket 0 of a table this small.
        let ids: Vec<u32> = (0..4_096u32).map(|i| i << 20).collect();
        let mut e = one_pair(1_024, 1_024);
        for (i, &id) in ids.iter().enumerate() {
            ingest(&mut e, "tx", &[rec(i as u64, id, 100)]);
            assert!(e.state().resident_sightings <= 1_024);
        }
        assert_eq!(e.state().pending_pairs, 1_024);
        // Every survivor pairs with its own upstream and no other.
        for (i, &id) in ids.iter().enumerate().skip(3_072) {
            ingest(&mut e, "rx", &[rec(10_000 + i as u64, id, 100)]);
        }
        let s = e.state();
        assert_eq!((s.pending_pairs, s.resident_sightings), (0, 0));
        let lat = e.latency_total("tx", "rx").unwrap();
        assert_eq!(
            (lat.count, lat.mean_ns, lat.jitter),
            (1_024, 10_000.0, Some((0, 0)))
        );
        // An evicted ID's downstream finds nothing to pair with.
        ingest(&mut e, "rx", &[rec(20_000, ids[0], 100)]);
        assert_eq!(e.state().pending_pairs, 1);
        e.finish();
        // The cap evicted the oldest 3 072, oldest first.
        let loss: Vec<(u64, u64)> = e
            .closed
            .iter()
            .filter(|w| !w.loss.is_empty())
            .map(|w| (w.loss[0].1.lost, w.loss[0].1.delivered))
            .collect();
        assert_eq!(loss, [(1_024, 0), (1_024, 0), (1_024, 0), (0, 1_024)]);
        assert_eq!(e.latency_unmatched("tx", "rx"), Some(3_073));
    }

    #[test]
    fn late_records_counted_not_crashing() {
        let mut e = engine();
        e.heartbeat("n1", 5_000_000);
        feed(&mut e, "tx", &[rec(1_000_000, 1, 100)], 5_100_000);
        let s = e.state();
        assert_eq!(s.late_records, 1);
        assert_eq!(s.records_processed, 0);
    }

    #[test]
    fn finish_flushes_everything() {
        let mut e = engine();
        feed(&mut e, "tx", &[rec(100, 1, 100)], 100);
        feed(&mut e, "rx", &[rec(150, 1, 100)], 300);
        assert!(e.closed.iter().next().is_none());
        e.finish();
        let closed = e.drain_closed();
        assert_eq!(closed.len(), 1);
        assert_eq!(closed[0].loss[0].1.delivered, 1);
        assert_eq!(e.state().open_windows, 0);
        assert_eq!(e.state().pending_pairs, 0);
    }

    #[test]
    fn closed_ring_is_bounded() {
        let mut cfg = LiveConfig::new(WindowSpec::tumbling(1_000)).track_throughput("tx");
        cfg.max_closed_windows = 4;
        let mut e = LiveEngine::new(cfg);
        e.register_agent("n1", None);
        for k in 0..100u64 {
            feed(
                &mut e,
                "tx",
                &[rec(k * 1_000, 0, 100), rec(k * 1_000 + 500, 0, 100)],
                k * 1_000 + 600,
            );
        }
        e.finish();
        assert_eq!(e.state().closed_windows, 4);
        let oldest = e.closed.iter().next().unwrap().start_ns;
        assert_eq!(oldest, 96_000, "oldest windows were dropped");
    }

    #[test]
    fn totals_match_cumulative_stream() {
        let mut e = engine();
        for k in 0..10u64 {
            let ts = k * 100_000;
            feed(&mut e, "tx", &[rec(ts, k as u32 + 1, 100)], ts + 1_000);
            feed(
                &mut e,
                "rx",
                &[rec(ts + 5_000, k as u32 + 1, 100)],
                ts + 6_000,
            );
        }
        e.finish();
        let t = e.throughput_total("tx").unwrap();
        assert_eq!(t.count, 10);
        assert_eq!(t.bytes, 10 * 96);
        let l = e.loss_total("tx", "rx").unwrap();
        assert_eq!((l.seen, l.delivered, l.lost), (10, 10, 0));
        let lat = e.latency_total("tx", "rx").unwrap();
        assert_eq!(lat.count, 10);
        assert_eq!(lat.jitter, Some((0, 0)), "constant 5us delay");
    }

    /// A run with some pairings left unmatched mid-stream: `k` packets
    /// leave `tx`, all but every third arrive at `rx`.
    fn lossy_stream(e: &mut LiveEngine) -> EngineState {
        for k in 0..9u64 {
            let ts = k * 100_000;
            feed(e, "tx", &[rec(ts, k as u32 + 1, 100)], ts + 1_000);
            if k % 3 != 0 {
                feed(e, "rx", &[rec(ts + 5_000, k as u32 + 1, 100)], ts + 6_000);
            }
        }
        e.state()
    }

    #[test]
    fn a_pair_tracked_twice_is_paired_once() {
        let latency_only =
            LiveConfig::new(WindowSpec::tumbling(1_000_000)).track_latency("tx", "rx");
        let mut a = LiveEngine::new(latency_only);
        a.register_agent("n1", None);
        let mut b = engine(); // latency + loss on the same pair
        let (sa, sb) = (lossy_stream(&mut a), lossy_stream(&mut b));
        assert_eq!(sa.pending_pairs, 3, "the three unmatched upstreams");
        assert_eq!(sb.pending_pairs, sa.pending_pairs);
        a.finish();
        b.finish();
        assert_eq!(a.latency_total("tx", "rx"), b.latency_total("tx", "rx"));
        assert_eq!(a.latency_unmatched("tx", "rx"), Some(3));
        assert_eq!(b.latency_unmatched("tx", "rx"), Some(3));
        let l = b.loss_total("tx", "rx").unwrap();
        assert_eq!((l.seen, l.delivered, l.lost), (9, 6, 3));
        assert_eq!(a.loss_total("tx", "rx"), None, "loss was not asked for");
    }

    #[test]
    fn results_keep_track_call_order() {
        let cfg = LiveConfig::new(WindowSpec::tumbling(1_000_000))
            .track_loss("a", "b")
            .track_latency("c", "d")
            .track_latency("a", "b")
            .track_loss("c", "d");
        let mut e = LiveEngine::new(cfg);
        e.register_agent("n1", None);
        feed(&mut e, "a", &[rec(100, 1, 100)], 100);
        feed(&mut e, "b", &[rec(150, 1, 100)], 150);
        feed(&mut e, "c", &[rec(200, 1, 100)], 200);
        feed(&mut e, "d", &[rec(250, 1, 100)], 250);
        e.finish();
        let closed = e.drain_closed();
        assert_eq!(closed.len(), 1);
        let labels = |v: Vec<&String>| v.into_iter().cloned().collect::<Vec<_>>();
        assert_eq!(
            labels(closed[0].latency.iter().map(|(l, _)| l).collect()),
            ["c->d", "a->b"]
        );
        assert_eq!(
            labels(closed[0].loss.iter().map(|(l, _)| l).collect()),
            ["a->b", "c->d"]
        );
        assert_eq!(closed[0].latency[1].1.count, 1);
        assert_eq!(closed[0].loss[0].1.delivered, 1);
    }

    #[test]
    fn unrouted_groups_are_not_processed() {
        let mut e = engine();
        feed(
            &mut e,
            "elsewhere",
            &[rec(100, 1, 100), rec(200, 2, 100)],
            300,
        );
        assert_eq!(e.state().records_processed, 0);
        assert_eq!(e.state().late_records, 0);
        feed(&mut e, "rx", &[rec(350, 1, 100)], 400);
        assert_eq!(e.state().records_processed, 1);
    }
}
