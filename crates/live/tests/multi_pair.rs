//! Multi-pair suite: the engine's one pending table must behave, for
//! every pair, exactly like a pending map of that pair's own.
//!
//! The engine enters a record once, however many `(from, to)` pairs its
//! tracepoint belongs to. The model here is the obvious thing instead:
//! one `HashMap` per pair, a record pushed into every pair it is a side
//! of, timeout eviction a full scan for `ts ≤ threshold`. Both see the
//! same batches and heartbeats — per-agent batches in shuffled agent
//! order, so downstream records arrive first as often as not, with
//! duplicate records, trace IDs reused after (and before) completion,
//! packets lost from any hop on and timeouts short enough that late
//! downstream records find their upstream already evicted — and must
//! agree exactly: per pair and window start the latency summary (count,
//! exact mean, jitter range and smoothed jitter, which together pin the
//! sample sequence) and the loss counters, per pair the cumulative
//! latency, `unmatched` and loss totals, after every cycle the number of
//! waiting pairings, and each window start emitted exactly once.
//!
//! Shapes: one upstream with several downstreams (the rack profile), a
//! chain plus its end-to-end pair (`request-trace`), and a self-pair
//! sharing its tracepoint with an ordinary pair; every pair is tracked
//! for both latency and loss. A fixed case with 70 downstreams shows a
//! tracepoint is not limited to 64 pairs.

use std::collections::{BTreeMap, HashMap};

use proptest::prelude::*;
use vnet_live::{LatencySummary, LiveConfig, LiveEngine, LossWindow, WindowSpec};
use vnet_tsdb::record::CompactRecord;
use vnet_tsdb::sketch::LogHistogram;
use vnet_tsdb::RecordBatch;
use vnettracer::metrics::JitterTracker;

/// Agents the tracepoints are spread over, round robin.
const AGENTS: [&str; 3] = ["n0", "n1", "n2"];
/// Packets per collection cycle.
const CYCLE: usize = 8;

/// Tracepoint names and the `(from, to)` index pairs tracked over them.
#[derive(Debug, Clone)]
struct Topology {
    tracepoints: Vec<String>,
    pairs: Vec<(usize, usize)>,
}

impl Topology {
    /// One upstream, `k` downstreams.
    fn rack(k: usize) -> Self {
        let downs = (0..k).map(|i| format!("down{i}"));
        Topology {
            tracepoints: std::iter::once("up".to_owned()).chain(downs).collect(),
            pairs: (1..=k).map(|d| (0, d)).collect(),
        }
    }

    /// `a→b→c→d` hop by hop, plus `a→d` end to end.
    fn chain() -> Self {
        Topology {
            tracepoints: ["a", "b", "c", "d"].map(str::to_owned).to_vec(),
            pairs: vec![(0, 1), (1, 2), (2, 3), (0, 3)],
        }
    }

    /// `x→x`, whose records are its upstream side only, and `x→y`.
    fn self_pair() -> Self {
        Topology {
            tracepoints: ["x", "y"].map(str::to_owned).to_vec(),
            pairs: vec![(0, 0), (0, 1)],
        }
    }

    fn label(&self, pair: usize) -> String {
        let (from, to) = self.pairs[pair];
        format!("{}->{}", self.tracepoints[from], self.tracepoints[to])
    }
}

/// One generated packet: inter-arrival gap, trace ID (drawn from a small
/// pool, so IDs recur) and the bits its per-tracepoint fate derives from.
#[derive(Debug, Clone, Copy)]
struct Pkt {
    gap_ns: u64,
    id: u32,
    noise: u64,
}

prop_compose! {
    fn arb_pkt()(gap_ns in 1u64..400, id in 1u32..=12, noise in any::<u64>()) -> Pkt {
        Pkt { gap_ns, id, noise }
    }
}

/// splitmix64's finalizer: independent-looking bits per (packet, hop).
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn rec(ts: u64, trace_id: u32) -> CompactRecord {
    CompactRecord {
        timestamp_ns: ts,
        trace_id,
        pkt_len: 100,
        flags: 1,
        ..Default::default()
    }
}

/// A latency accumulator built the way the engine builds a window's.
#[derive(Debug, Clone)]
struct Samples {
    sketch: LogHistogram,
    jitter: JitterTracker,
}

impl Samples {
    fn new() -> Self {
        Samples {
            sketch: LogHistogram::default(),
            jitter: JitterTracker::new(),
        }
    }

    fn record(&mut self, delta_ns: u64) {
        self.sketch.record(delta_ns);
        self.jitter.push(delta_ns);
    }

    fn summary(&self) -> Option<LatencySummary> {
        (self.sketch.count() > 0).then(|| LatencySummary {
            count: self.sketch.count(),
            p50_ns: self.sketch.quantile(0.50).unwrap_or(0),
            p95_ns: self.sketch.quantile(0.95).unwrap_or(0),
            p99_ns: self.sketch.quantile(0.99).unwrap_or(0),
            mean_ns: self.sketch.mean(),
            jitter: self.jitter.range(),
            smoothed_jitter_ns: self.jitter.smoothed_ns(),
        })
    }
}

/// Everything one pair accumulates in the model.
#[derive(Debug)]
struct ModelPair {
    from: String,
    to: String,
    /// Trace ID → (is upstream, timestamp) of the one side seen so far.
    pending: HashMap<u32, (bool, u64)>,
    latency: BTreeMap<u64, Samples>,
    latency_total: Samples,
    unmatched: u64,
    loss: BTreeMap<u64, LossWindow>,
    loss_total: LossWindow,
}

/// One pending map per pair; see the module docs.
#[derive(Debug)]
struct Model {
    window: WindowSpec,
    pair_timeout_ns: u64,
    frontiers: BTreeMap<String, u64>,
    pairs: Vec<ModelPair>,
    late: u64,
}

impl ModelPair {
    fn update_loss(&mut self, window: &WindowSpec, ts: u64, update: impl Fn(&mut LossWindow)) {
        update(self.loss.entry(ts - ts % window.width_ns).or_default());
        update(&mut self.loss_total);
    }

    fn observe(&mut self, window: &WindowSpec, up: bool, id: u32, ts: u64) {
        if up {
            self.update_loss(window, ts, |w| w.seen += 1);
        }
        match self.pending.get(&id).copied() {
            Some((first_up, _)) if first_up == up => {}
            Some((_, first_ts)) => {
                self.pending.remove(&id);
                let (up_ts, down_ts) = if up { (ts, first_ts) } else { (first_ts, ts) };
                self.update_loss(window, up_ts, |w| w.delivered += 1);
                if let Some(delta) = down_ts.checked_sub(up_ts) {
                    self.latency
                        .entry(down_ts - down_ts % window.width_ns)
                        .or_insert_with(Samples::new)
                        .record(delta);
                    self.latency_total.record(delta);
                }
            }
            None => {
                self.pending.insert(id, (up, ts));
            }
        }
    }

    fn evict(&mut self, window: &WindowSpec, threshold_ts: u64) {
        let timed_out: Vec<u32> = self
            .pending
            .iter()
            .filter(|(_, &(_, ts))| ts <= threshold_ts)
            .map(|(&id, _)| id)
            .collect();
        for id in timed_out {
            let (up, ts) = self.pending.remove(&id).unwrap();
            self.unmatched += 1;
            if up {
                self.update_loss(window, ts, |w| w.lost += 1);
            }
        }
    }
}

impl Model {
    fn new(cfg: &LiveConfig, topology: &Topology) -> Self {
        let pair = |&(from, to): &(usize, usize)| ModelPair {
            from: topology.tracepoints[from].clone(),
            to: topology.tracepoints[to].clone(),
            pending: HashMap::new(),
            latency: BTreeMap::new(),
            latency_total: Samples::new(),
            unmatched: 0,
            loss: BTreeMap::new(),
            loss_total: LossWindow::default(),
        };
        Model {
            window: cfg.window,
            pair_timeout_ns: cfg.pair_timeout_ns,
            frontiers: AGENTS.iter().map(|&a| (a.to_owned(), 0)).collect(),
            pairs: topology.pairs.iter().map(pair).collect(),
            late: 0,
        }
    }

    fn watermark(&self) -> u64 {
        self.frontiers.values().copied().min().unwrap_or(0)
    }

    fn ingest(&mut self, batch: &RecordBatch) {
        let watermark = self.watermark();
        for group in batch.groups() {
            for r in &group.records {
                if r.timestamp_ns < watermark {
                    self.late += 1;
                    continue;
                }
                for p in &mut self.pairs {
                    // A self-pair's records are its upstream side only.
                    let up = p.from == group.measurement;
                    if up || p.to == group.measurement {
                        p.observe(&self.window, up, r.trace_id, r.timestamp_ns);
                    }
                }
            }
        }
        self.advance();
    }

    fn heartbeat(&mut self, node: &str, now_ns: u64) {
        let frontier = self.frontiers.get_mut(node).unwrap();
        *frontier = (*frontier).max(now_ns);
        self.advance();
    }

    fn advance(&mut self) {
        if let Some(threshold) = self.watermark().checked_sub(self.pair_timeout_ns) {
            for p in &mut self.pairs {
                p.evict(&self.window, threshold);
            }
        }
    }

    fn finish(&mut self) {
        for p in &mut self.pairs {
            p.evict(&self.window, u64::MAX);
        }
    }

    fn pending_pairs(&self) -> usize {
        self.pairs.iter().map(|p| p.pending.len()).sum()
    }
}

/// Drives the engine and the model with the same stream and compares
/// everything the engine reports.
fn run_both(topology: &Topology, pkts: &[Pkt], window_ns: u64, pair_timeout_ns: u64) {
    let mut cfg = LiveConfig::new(WindowSpec::tumbling(window_ns));
    for &(from, to) in &topology.pairs {
        let (from, to) = (&topology.tracepoints[from], &topology.tracepoints[to]);
        cfg = cfg.track_latency(from, to).track_loss(from, to);
    }
    cfg.pair_timeout_ns = pair_timeout_ns;
    cfg.max_closed_windows = usize::MAX;
    let mut model = Model::new(&cfg, topology);
    let mut engine = LiveEngine::new(cfg);
    for agent in AGENTS {
        engine.register_agent(agent, None);
    }

    let hops = topology.tracepoints.len() as u64;
    let mut closed = Vec::new();
    let mut t = 0u64;
    for cycle in pkts.chunks(CYCLE) {
        let mut batches = AGENTS.map(|_| RecordBatch::new());
        for p in cycle {
            t += p.gap_ns;
            // The packet dies at hop `lost_from` (at none, one time in
            // three); a tracepoint it does reach misses it one time in
            // eight and records it twice one time in five.
            let lost_from = mix(p.noise) % (hops + hops / 2 + 1);
            for (hop, name) in topology.tracepoints.iter().enumerate() {
                let fate = mix(p.noise ^ (hop as u64 + 1));
                if hop as u64 >= lost_from || fate.is_multiple_of(8) {
                    continue;
                }
                // Jitter wider than the hop spacing: some downstream
                // timestamps precede their upstream's.
                let ts = t + hop as u64 * 100 + (fate >> 8) % 3_000;
                let agent = hop % AGENTS.len();
                batches[agent].push(name, AGENTS[agent], rec(ts, p.id));
                if (fate >> 32).is_multiple_of(5) {
                    batches[agent].push(name, AGENTS[agent], rec(ts + 7, p.id));
                }
            }
        }
        // No record of a later cycle is below `t`, so none is late.
        let mut order = [0, 1, 2];
        order.rotate_left(cycle[0].noise as usize % 3);
        if (cycle[0].noise >> 8).is_multiple_of(2) {
            order.swap(1, 2);
        }
        for agent in order {
            engine.ingest(&batches[agent], t);
            model.ingest(&batches[agent]);
            engine.heartbeat(AGENTS[agent], t);
            model.heartbeat(AGENTS[agent], t);
            assert_eq!(engine.state().pending_pairs, model.pending_pairs());
        }
        closed.extend(engine.drain_closed());
    }
    engine.finish();
    model.finish();
    closed.extend(engine.drain_closed());

    let state = engine.state();
    assert_eq!(state.late_records, model.late);
    assert_eq!(state.late_records, 0);
    assert_eq!(state.pending_pairs, 0);
    assert_eq!(state.resident_sightings, 0);
    assert_eq!(state.open_windows, 0);

    let starts: Vec<u64> = closed.iter().map(|w| w.start_ns).collect();
    let mut once = starts.clone();
    once.sort_unstable();
    once.dedup();
    assert_eq!(once.len(), starts.len(), "a window start emitted twice");

    let mut latency = BTreeMap::new();
    let mut loss = BTreeMap::new();
    for w in closed {
        for (label, summary) in w.latency {
            latency.insert((label, w.start_ns), summary);
        }
        for (label, counters) in w.loss {
            loss.insert((label, w.start_ns), counters);
        }
    }
    for (i, p) in model.pairs.iter().enumerate() {
        let label = topology.label(i);
        for (&start, samples) in &p.latency {
            let live = latency.remove(&(label.clone(), start));
            assert_eq!(live, samples.summary(), "{label} latency @{start}");
        }
        for (&start, counters) in &p.loss {
            let live = loss.remove(&(label.clone(), start));
            assert_eq!(live, Some(*counters), "{label} loss @{start}");
        }
        assert_eq!(
            engine.latency_total(&p.from, &p.to),
            p.latency_total.summary(),
            "{label} latency total"
        );
        assert_eq!(
            engine.latency_unmatched(&p.from, &p.to),
            Some(p.unmatched),
            "{label} unmatched"
        );
        assert_eq!(
            engine.loss_total(&p.from, &p.to),
            Some(p.loss_total),
            "{label} loss total"
        );
    }
    assert!(latency.is_empty(), "windows the model has not: {latency:?}");
    assert!(loss.is_empty(), "windows the model has not: {loss:?}");
}

/// Window widths (1 ns makes every sample its own window, so the
/// per-window comparison is the sample multiset itself) and pair
/// timeouts from well below to well above the delay spread.
fn arb_scales() -> impl Strategy<Value = (u64, u64)> {
    (
        prop_oneof![Just(1u64), Just(1_000)],
        prop_oneof![Just(300u64), Just(2_000), Just(20_000)],
    )
}

proptest! {
    #[test]
    fn one_upstream_many_downstreams(
        k in 1usize..6,
        pkts in proptest::collection::vec(arb_pkt(), 1..150),
        (window_ns, pair_timeout_ns) in arb_scales(),
    ) {
        run_both(&Topology::rack(k), &pkts, window_ns, pair_timeout_ns);
    }

    #[test]
    fn chain_with_end_to_end_pair(
        pkts in proptest::collection::vec(arb_pkt(), 1..150),
        (window_ns, pair_timeout_ns) in arb_scales(),
    ) {
        run_both(&Topology::chain(), &pkts, window_ns, pair_timeout_ns);
    }

    #[test]
    fn self_pair_beside_an_ordinary_pair(
        pkts in proptest::collection::vec(arb_pkt(), 1..150),
        (window_ns, pair_timeout_ns) in arb_scales(),
    ) {
        run_both(&Topology::self_pair(), &pkts, window_ns, pair_timeout_ns);
    }
}

/// One upstream in 70 pairs: its records open more pairings than one
/// sighting has bits for, and the last downstreams pair like the first.
#[test]
fn seventy_downstreams_of_one_upstream() {
    let topology = Topology::rack(70);
    let pkts: Vec<Pkt> = (0..60u64)
        .map(|i| Pkt {
            gap_ns: 50 + mix(i) % 300,
            id: 1 + (mix(i) >> 32) as u32 % 40,
            noise: mix(!i),
        })
        .collect();
    run_both(&topology, &pkts, 1_000, 2_000);

    // And directly: every downstream pairs with the upstream.
    let mut cfg = LiveConfig::new(WindowSpec::tumbling(1_000));
    for down in &topology.tracepoints[1..] {
        cfg = cfg.track_latency("up", down);
    }
    let mut engine = LiveEngine::new(cfg);
    engine.register_agent("n0", None);
    let mut batch = RecordBatch::new();
    batch.push("up", "n0", rec(100, 9));
    for (i, down) in topology.tracepoints[1..].iter().enumerate() {
        batch.push(down, "n0", rec(200 + i as u64, 9));
    }
    engine.ingest(&batch, 300);
    assert_eq!(engine.state().pending_pairs, 0);
    for (i, down) in topology.tracepoints[1..].iter().enumerate() {
        let total = engine.latency_total("up", down).unwrap();
        assert_eq!(
            (total.count, total.mean_ns),
            (1, 100.0 + i as f64),
            "{down}"
        );
    }
}
