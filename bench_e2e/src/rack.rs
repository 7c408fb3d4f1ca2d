//! The three `rack_*` workloads: one shared rack, stepped in 1 ms of
//! simulated time, with nothing attached (`rack_untraced`), with 160
//! single-flow scripts that almost never match (`rack_filtered`), or with
//! the match-all default profile feeding a disk-backed collector, the
//! live engine and a cold analysis child (`rack_traced`).

use std::cell::RefCell;
use std::collections::HashMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use vnet_live::{LiveConfig, LiveEngine, WindowSpec};
use vnet_sim::time::{SimDuration, SimTime};
use vnet_testbed::rack::RackTestbed;
use vnet_tsdb::{Entry, Query, RecordBatch, StoreOptions, TraceDb};
use vnet_workloads::datacenter_rack::{RackConfig, BASE_DST_PORT, BASE_SRC_PORT};
use vnettracer::config::{FilterRule, GlobalConfig};
use vnettracer::metrics;
use vnettracer::modules::{ModuleRegistry, ModuleScope, TapSpec};
use vnettracer::{Agent, IngestSubscriber, VNetTracer};

use crate::spans::{Section, Tracer};
use crate::util::{
    median, quantile, run_child, Checks, ChildReport, Iteration, Scratch, SplitMix64,
};

/// Which rack workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Untraced,
    Filtered,
    Traced,
}

/// Simulated time between collection cycles. One cycle per millisecond
/// keeps every 64 KiB perf ring far from full, so ring loss is exactly 0.
const STEP: SimDuration = SimDuration::from_millis(1);

/// Single-flow scripts per tap on `rack_filtered`.
const SCRIPTS_PER_TAP: usize = 4;

/// Paths the offline suite decomposes: one per host at full size. All 32
/// VM paths would cost more than tracing the rack does.
const ANALYSIS_PATHS: usize = 8;

/// The rack every `rack_*` workload shares, so their numbers divide
/// cleanly. A 40 µs send interval keeps the fabric below saturation:
/// `delivered == offered` is then an exact check, and tracing cannot
/// change which packets are dropped.
pub fn rack_config(seed: u64, fast: bool) -> RackConfig {
    if fast {
        RackConfig {
            seed,
            ..RackConfig::small()
        }
    } else {
        RackConfig {
            seed,
            hosts: 8,
            vms_per_host: 4,
            apps_per_vm: 4,
            flows_per_app: 32,
            packets_per_app: 2_400,
            send_interval: SimDuration::from_micros(40),
            payload: 256,
        }
    }
}

/// The store settings every disk-backed store in the benchmark uses.
/// Inline compaction makes segment layout, bytes per record and scan
/// counts repeat exactly; fsync off measures encode and merge cost, not
/// the sandbox's flush latency.
pub fn store_options() -> StoreOptions {
    StoreOptions {
        seal_threshold: 128 * 1024,
        fsync: false,
        background_compaction: false,
        ..StoreOptions::default()
    }
}

fn bridge_table(h: usize) -> String {
    format!("h{h}_ovs_br")
}

fn port_table(h: usize, v: usize) -> String {
    format!("vm{h}_{v}_ens3")
}

/// The tap set of `rack_filtered`: on every bridge and VM port,
/// [`SCRIPTS_PER_TAP`] scripts that each match one seeded flow crossing
/// that tap. Returns the scope and how many records they must emit.
fn filtered_scope(cfg: &RackConfig) -> (ModuleScope, u64) {
    let mut rng = SplitMix64(cfg.seed);
    let mut scope = ModuleScope::default();
    let mut expected = 0u64;
    let mut pick = |src_host: usize, v: usize, expected: &mut u64| {
        let j = rng.below(cfg.apps_per_vm as u64) as usize;
        let k = rng.below(cfg.flows_per_app as u64);
        let flows = cfg.flows_per_app as u64;
        *expected += cfg.packets_per_app / flows + u64::from(k < cfg.packets_per_app % flows);
        let sport = BASE_SRC_PORT + (j as u64 * flows + k) as u16;
        FilterRule::udp_flow(
            (RackConfig::vm_ip(src_host, v), sport),
            (
                RackConfig::vm_ip((src_host + 1) % cfg.hosts, v),
                BASE_DST_PORT + j as u16,
            ),
        )
    };
    for h in 0..cfg.hosts {
        let prev = (h + cfg.hosts - 1) % cfg.hosts;
        for s in 0..SCRIPTS_PER_TAP {
            let v = (cfg.seed as usize + s) % cfg.vms_per_host;
            scope.packet_taps.push(TapSpec::rx(
                &format!("f{s}_{}", bridge_table(h)),
                &format!("host{h}"),
                "ovs-br",
                pick(h, v, &mut expected),
            ));
        }
        for v in 0..cfg.vms_per_host {
            for s in 0..SCRIPTS_PER_TAP {
                scope.packet_taps.push(TapSpec::rx(
                    &format!("f{s}_{}", port_table(h, v)),
                    &format!("vm{h}-{v}"),
                    "ens3",
                    pick(prev, v, &mut expected),
                ));
            }
        }
    }
    (scope, expected)
}

/// The harness's own subscriber: times each `on_batch` of the live
/// engine it wraps and, for the traced run, keeps a clone of every batch
/// so the store's share of `collect` can be replayed afterwards.
#[derive(Debug)]
struct Tap {
    live: Option<LiveEngine>,
    tr: Tracer,
    step: u32,
    on_batch_s: f64,
    captured: Option<Vec<RecordBatch>>,
    capture_s: f64,
}

impl IngestSubscriber for Tap {
    fn on_batch(
        &mut self,
        node: &str,
        heartbeat_seq: u64,
        batch: &RecordBatch,
        lost_records: u64,
        now: SimTime,
    ) {
        if let Some(live) = &mut self.live {
            let ((), s) = self.tr.timed("live.on_batch", self.step, || {
                live.on_batch(node, heartbeat_seq, batch, lost_records, now)
            });
            self.on_batch_s += s;
        }
        if let Some(captured) = &mut self.captured {
            let ((), s) = self.tr.timed("harness.capture", self.step, || {
                if !batch.is_empty() {
                    captured.push(batch.clone());
                }
            });
            self.capture_s += s;
        }
    }

    fn on_heartbeat(&mut self, node: &str, seq: u64, now: SimTime) {
        if let Some(live) = &mut self.live {
            live.on_heartbeat(node, seq, now);
        }
    }
}

/// A rack ready to run: everything `setup_s` pays for.
struct Setup {
    tb: RackTestbed,
    tracer: Option<VNetTracer>,
    tap: Option<Rc<RefCell<Tap>>>,
    programs: usize,
    /// Records the deployed scripts must emit (closed form).
    expected_records: u64,
    load_s: f64,
}

fn setup(kind: Kind, cfg: &RackConfig, store: &Path, tr: &Tracer, capture: bool) -> Setup {
    let mut tb = RackTestbed::build(cfg);
    tb.scenario.world.set_parallelism(1);
    let mut out = Setup {
        tb,
        tracer: None,
        tap: None,
        programs: 0,
        expected_records: 0,
        load_s: 0.0,
    };
    if kind == Kind::Untraced {
        return out;
    }
    let mut tap = Tap {
        live: None,
        tr: tr.clone(),
        step: 0,
        on_batch_s: 0.0,
        captured: capture.then(Vec::new),
        capture_s: 0.0,
    };
    let (mut tracer, scope) = if kind == Kind::Filtered {
        let (scope, expected) = filtered_scope(cfg);
        out.expected_records = expected;
        (out.tb.make_tracer(), scope)
    } else {
        // Every delivered packet crosses its source bridge, its
        // destination bridge and its destination port.
        out.expected_records = 3 * cfg.total_packets();
        let db = TraceDb::open_with(store, store_options()).expect("open fresh rack store");
        let mut tracer = VNetTracer::with_db(db);
        // Agents as `RackTestbed::make_tracer` registers them.
        let mut live = LiveConfig::new(WindowSpec::tumbling(STEP.as_nanos()));
        live.max_closed_windows = usize::MAX;
        let mut agents = vec![(out.tb.scenario.tor, "tor".to_owned(), 8)];
        for (h, &node) in out.tb.scenario.host_nodes.iter().enumerate() {
            agents.push((node, format!("host{h}"), 16));
            live = live.track_throughput(&bridge_table(h));
            for v in 0..cfg.vms_per_host {
                let node = out.tb.scenario.vm_nodes[h * cfg.vms_per_host + v];
                agents.push((node, format!("vm{h}-{v}"), 4));
                live = live.track_latency(&bridge_table(h), &port_table(h, v));
            }
        }
        let mut engine = LiveEngine::new(live);
        for (node, name, cpus) in agents {
            engine.register_agent(&name, None);
            tracer.add_agent(Agent::new(node, name, cpus));
        }
        tap.live = Some(engine);
        (tracer, out.tb.module_scope())
    };
    if tap.live.is_some() || tap.captured.is_some() {
        let tap = Rc::new(RefCell::new(tap));
        tracer.subscribe(tap.clone() as Rc<RefCell<dyn IngestSubscriber>>);
        out.tap = Some(tap);
    }
    let (deployed, load_s) = tr.timed("ebpf.load", 0, || {
        let pkg = ModuleRegistry::builtin()
            .package("default", &scope, GlobalConfig::default())
            .expect("builtin default profile resolves");
        tracer
            .deploy(&mut out.tb.scenario.world, &pkg)
            .expect("deploy trace programs")
            .len()
    });
    out.programs = deployed;
    out.load_s = load_s;
    out.tracer = Some(tracer);
    out
}

/// Sets the rack up once and drops it; returns what that took.
pub fn setup_only(kind: Kind, cfg: &RackConfig, scratch: &Scratch, tr: &Tracer) -> Section {
    let store = scratch.fresh("rack-store");
    tr.normalised("harness.setup", || setup(kind, cfg, &store, tr, false))
        .1
}

/// Runs one iteration of a rack workload: set-up, then the timed section
/// (every step, collect and flush, the cold analysis child, the checks).
pub fn run(
    kind: Kind,
    cfg: &RackConfig,
    fast: bool,
    scratch: &Scratch,
    tr: &Tracer,
    capture: bool,
) -> Iteration {
    let store = scratch.fresh("rack-store");
    let (mut s, setup) = tr.normalised("harness.setup", || setup(kind, cfg, &store, tr, capture));
    let mut out = Iteration::after(setup);
    let ((), wall) = tr.normalised("iteration", || {
        let phase = trace_phase(cfg, tr, &mut s);
        sim_counters(cfg, &s, &phase, &mut out);
        if s.tracer.is_some() {
            probe_counters(cfg, &mut s, &phase, &mut out);
        }
        if kind == Kind::Traced {
            store_and_live_counters(cfg, &mut s, &phase, &mut out);
            let report = run_child("analysis", &store, cfg.seed, fast, tr);
            check_live_against(cfg, &s, &report, &mut out.checks);
            out.checks.merge(report.checks);
            out.values.extend(report.values);
        }
    });
    out.values.extend(wall.values());
    out.values.insert("ebpf.load_s".into(), s.load_s);
    out
}

/// Host-time samples of the trace phase.
#[derive(Debug, Default)]
struct Phase {
    /// Everything from the first step to the end of flush and finish.
    wall_s: f64,
    step_us: Vec<f64>,
    collect_us: Vec<f64>,
    drained: u64,
    flush_s: f64,
    finish_s: f64,
}

/// Steps the world to the end of the run in [`STEP`]s, collecting after
/// each one when a tracer is deployed, then flushes the store and
/// finishes the live engine.
fn trace_phase(cfg: &RackConfig, tr: &Tracer, s: &mut Setup) -> Phase {
    // As `RackScenario::run`: the send phase plus a drain margin.
    let end = SimTime::ZERO
        + SimDuration::from_nanos(cfg.send_interval.as_nanos() * (cfg.packets_per_app + 2))
        + SimDuration::from_millis(10);
    let mut p = Phase::default();
    let start = Instant::now();
    let yard_before = tr.yardstick().0;
    let mut step = 0u32;
    while s.tb.scenario.world.now() < end {
        step += 1;
        let until = (s.tb.scenario.world.now() + STEP).min(end);
        let ((), secs) = tr.timed("sim.run_until", step, || {
            s.tb.scenario.world.run_until(until)
        });
        p.step_us.push(secs * 1e6);
        if let Some(tracer) = &mut s.tracer {
            if let Some(tap) = &s.tap {
                tap.borrow_mut().step = step;
            }
            let (n, secs) = tr.timed("core.collect", step, || {
                tracer.collect(&s.tb.scenario.world)
            });
            p.drained += n as u64;
            p.collect_us.push(secs * 1e6);
        }
        tr.catch_up();
    }
    if let (Some(tracer), Some(tap)) = (&mut s.tracer, &s.tap) {
        if let Some(live) = &mut tap.borrow_mut().live {
            let (flushed, secs) = tr.timed("tsdb.flush", 0, || tracer.flush_db());
            flushed.expect("flush rack store");
            p.flush_s = secs;
            p.finish_s = tr.timed("live.finish", 0, || live.finish()).1;
        }
    }
    p.wall_s = start.elapsed().as_secs_f64() - (tr.yardstick().0 - yard_before);
    p
}

/// Event-loop counters and the delivery check (every rack workload).
fn sim_counters(cfg: &RackConfig, s: &Setup, p: &Phase, out: &mut Iteration) {
    let world = &s.tb.scenario.world;
    let events = world.events_processed();
    let offered = cfg.total_packets();
    let delivered = s.tb.scenario.delivered_packets();
    out.checks.ops(
        offered,
        offered.saturating_sub(delivered),
        "packets delivered",
    );
    // No drops, so every VM's server saw exactly its clients' packets,
    // traced or not.
    let per_vm = cfg.apps_per_vm as u64 * cfg.packets_per_app;
    let share = (per_vm, per_vm * cfg.payload as u64);
    out.checks.equal(
        "every VM received its share",
        s.tb.scenario
            .delivery_fingerprint()
            .iter()
            .all(|&f| f == share),
        true,
    );
    let run_s = p.step_us.iter().sum::<f64>() / 1e6;
    let v = &mut out.values;
    v.insert("sim_events_per_s".into(), events as f64 / p.wall_s);
    v.insert("sim.events".into(), events as f64);
    v.insert("sim.packets_offered".into(), offered as f64);
    v.insert("sim.packets_delivered".into(), delivered as f64);
    v.insert("sim.probes_fired".into(), world.probes_fired() as f64);
    v.insert("sim.run_s".into(), run_s);
    v.insert("sim.ns_per_event".into(), run_s * 1e9 / events as f64);
    v.insert("sim.step_p50_us".into(), median(&p.step_us));
    v.insert("sim.step_p95_us".into(), quantile(&p.step_us, 0.95));
}

/// eBPF and collector counters and the record-conservation checks
/// (`rack_filtered` and `rack_traced`).
fn probe_counters(cfg: &RackConfig, s: &mut Setup, p: &Phase, out: &mut Iteration) {
    let tracer = s.tracer.as_ref().expect("caller checked");
    let (mut exec, mut matched, mut errors) = (0u64, 0u64, 0u64);
    let (mut retired, mut eliminated, mut sim_cost_ns) = (0u64, 0u64, 0u64);
    for r in tracer.run_stats() {
        exec += r.stats.executions;
        matched += r.stats.matched;
        errors += r.stats.errors;
        retired += r.stats.insns_retired;
        eliminated += r.stats.insns_eliminated;
        sim_cost_ns += r.stats.run_time_ns;
    }
    let cstats = tracer.stats(&s.tb.scenario.world);
    let lost = cstats.lost_records;
    let c = &mut out.checks;
    c.ops(matched, lost, "records lost in the perf rings");
    c.equal("records emitted (closed form)", matched, s.expected_records);
    c.equal("records drained", p.drained + lost, matched);
    c.equal("records ingested", cstats.totals.records, p.drained);
    c.equal("script runtime errors", errors, 0);
    let v = &mut out.values;
    v.insert(
        "probe_cost_sim_ns_per_pkt".into(),
        sim_cost_ns as f64 / cfg.total_packets() as f64,
    );
    v.insert(
        "record_loss_share".into(),
        lost as f64 / (p.drained + lost).max(1) as f64,
    );
    v.insert("ebpf.programs_loaded".into(), s.programs as f64);
    v.insert("ebpf.executions".into(), exec as f64);
    v.insert("ebpf.matched".into(), matched as f64);
    v.insert(
        "ebpf.match_share".into(),
        matched as f64 / exec.max(1) as f64,
    );
    v.insert("ebpf.insns_retired".into(), retired as f64);
    v.insert("ebpf.errors".into(), errors as f64);
    v.insert("ebpf.insns_eliminated".into(), eliminated as f64);
    v.insert(
        "ebpf.sim_cost_ns_per_exec".into(),
        sim_cost_ns as f64 / exec.max(1) as f64,
    );
    v.insert("core.records_drained".into(), p.drained as f64);
    v.insert("core.records_lost".into(), lost as f64);
    v.insert("core.batches".into(), cstats.totals.batches as f64);
    v.insert(
        "core.collect_total_s".into(),
        p.collect_us.iter().sum::<f64>() / 1e6,
    );
    v.insert("core.collect_p50_us".into(), median(&p.collect_us));
    v.insert("core.collect_p95_us".into(), quantile(&p.collect_us, 0.95));
    if let Some(tap) = &s.tap {
        let mut tap = tap.borrow_mut();
        v.insert("live.on_batch_s".into(), tap.on_batch_s);
        v.insert("harness.capture_s".into(), tap.capture_s);
        out.captured = tap.captured.take().unwrap_or_default();
    }
}

/// Store and live-engine counters with their checks (`rack_traced`).
fn store_and_live_counters(cfg: &RackConfig, s: &mut Setup, p: &Phase, out: &mut Iteration) {
    let tracer = s.tracer.as_ref().expect("rack_traced has a tracer");
    let st = tracer
        .stats(&s.tb.scenario.world)
        .storage
        .expect("rack_traced store is disk-backed");
    let mut tap = s.tap.as_ref().expect("rack_traced has a tap").borrow_mut();
    let on_batch_s = tap.on_batch_s;
    let live = tap.live.as_mut().expect("rack_traced has a live engine");
    let state = live.state();
    let c = &mut out.checks;
    c.equal("records sealed after flush", st.sealed_records, p.drained);
    c.equal("WAL backlog after flush", st.wal_records, 0);
    c.equal(
        "live engine saw every record",
        state.records_processed,
        p.drained,
    );
    c.equal("live engine late records", state.late_records, 0);
    // Ground truth from the simulator: every delivered packet was seen
    // at its destination bridge and then at its destination port.
    let per_vm = cfg.apps_per_vm as u64 * cfg.packets_per_app;
    for h in 0..cfg.hosts {
        for vm in 0..cfg.vms_per_host {
            let (t, port) = (bridge_table(h), port_table(h, vm));
            c.equal(
                &format!("live latency pairs {t}->{port}"),
                live.latency_total(&t, &port).map_or(0, |l| l.count),
                per_vm,
            );
        }
    }
    let v = &mut out.values;
    v.insert("trace_records_per_s".into(), p.drained as f64 / p.wall_s);
    v.insert(
        "bytes_per_record".into(),
        st.encoded_bytes as f64 / p.drained.max(1) as f64,
    );
    v.insert("tsdb.records_stored".into(), st.sealed_records as f64);
    v.insert("tsdb.encoded_bytes".into(), st.encoded_bytes as f64);
    v.insert("tsdb.segments".into(), st.segments as f64);
    v.insert("tsdb.seals".into(), st.seals as f64);
    v.insert("tsdb.compactions".into(), st.compactions as f64);
    v.insert("tsdb.segments_merged".into(), st.segments_merged as f64);
    v.insert("tsdb.bytes_reclaimed".into(), st.bytes_reclaimed as f64);
    v.insert("tsdb.flush_s".into(), p.flush_s);
    v.insert("live.records".into(), state.records_processed as f64);
    v.insert("live.late_records".into(), state.late_records as f64);
    v.insert("live.windows_closed".into(), state.closed_windows as f64);
    v.insert("live.alerts".into(), live.drain_alerts().len() as f64);
    v.insert("live.pending_pairs_end".into(), state.pending_pairs as f64);
    v.insert(
        "live.ns_per_record".into(),
        on_batch_s * 1e9 / state.records_processed.max(1) as f64,
    );
    v.insert("live.finish_s".into(), p.finish_s);
}

/// The live engine's cumulative totals must equal what the cold child
/// recomputed from the store through `Query::scan`.
fn check_live_against(cfg: &RackConfig, s: &Setup, report: &ChildReport, c: &mut Checks) {
    let tap = s.tap.as_ref().expect("rack_traced has a tap").borrow();
    let live = tap.live.as_ref().expect("rack_traced has a live engine");
    let answer = |name: String| report.values.get(&name).map(|&x| x as u64);
    let drained = live.state().records_processed;
    c.equal(
        "records visible after cold reopen",
        answer("visible_records".into()),
        Some(drained),
    );
    for h in 0..cfg.hosts {
        let t = bridge_table(h);
        let total = live.throughput_total(&t).expect("tracked bridge");
        c.equal(
            &format!("live throughput at {t} against the scan"),
            (Some(total.count), Some(total.bytes)),
            (answer(format!("count.{t}")), answer(format!("bytes.{t}"))),
        );
    }
    for h in 0..cfg.hosts.min(ANALYSIS_PATHS) {
        let (t, port) = (bridge_table(h), port_table(h, 0));
        c.equal(
            &format!("live latency pairs {t}->{port} against the scan"),
            live.latency_total(&t, &port).map(|l| l.count),
            answer(format!("paired.{t}.{port}")),
        );
    }
}

/// Replays captured batches into a fresh store of the same kind the run
/// used, to estimate the store's share of `collect`. Returns `(insert
/// seconds, records)` and the yardstick the replay ran against.
pub fn replay(
    kind: Kind,
    batches: &[RecordBatch],
    scratch: &Scratch,
    tr: &Tracer,
) -> ((f64, u64), Section) {
    let mut db = if kind == Kind::Traced {
        TraceDb::open_with(scratch.fresh("replay-store"), store_options())
            .expect("open replay store")
    } else {
        TraceDb::new()
    };
    tr.normalised("harness.replay", || {
        let mut secs = 0.0;
        let mut records = 0;
        for (i, b) in batches.iter().enumerate() {
            let (n, s) = tr.timed("tsdb.insert", i as u32, || db.insert_batch(b));
            secs += s;
            records += n;
            tr.catch_up();
        }
        (secs, records)
    })
}

/// `(timestamp, packet length, carries a trace ID, trace ID)` of every
/// record of `table`, through `Query::scan`.
fn scan_table(db: &TraceDb, table: &str) -> Vec<(u64, u32, bool, u32)> {
    let scan = Query::new(table).scan(db).expect("table scan");
    scan.entries()
        .iter()
        .filter_map(|e| match e {
            Entry::Record { record: r, .. } => {
                Some((r.timestamp_ns, r.pkt_len, r.has_trace_id(), r.trace_id))
            }
            Entry::Point(_) => None,
        })
        .collect()
}

/// The cold child of `rack_traced`: reopens the store and runs the
/// offline suite — per host one three-hop latency decomposition, one
/// seeded time-range scan with percentiles, and loss and throughput
/// recomputed through `Query::scan`.
pub fn analysis_child(dir: &Path, cfg: &RackConfig, tr: &Tracer) -> ChildReport {
    let mut report = ChildReport::default();
    let v = &mut report.values;
    let c = &mut report.checks;
    let (db, open_s) = tr.timed("tsdb.open", 0, || {
        TraceDb::open_with(dir, store_options()).expect("reopen rack store")
    });
    // Cold open plus every call of the suite; the yardstick passes in
    // between are not the suite's.
    let mut analysis_s = open_s;
    let paths = cfg.hosts.min(ANALYSIS_PATHS);
    let path = |h: usize| {
        let next = (h + 1) % cfg.hosts;
        [bridge_table(h), bridge_table(next), port_table(next, 0)]
    };
    let mut decompose_ms = Vec::new();
    let mut joined: Vec<u64> = Vec::new();
    for h in 0..paths {
        let path = path(h);
        let refs: Vec<&str> = path.iter().map(String::as_str).collect();
        let (segs, s) = tr.timed("core.metrics.decompose", h as u32, || {
            metrics::decompose(&db, &refs)
        });
        decompose_ms.push(s * 1e3);
        analysis_s += s;
        tr.catch_up();
        c.equal("decomposed segments", segs.len(), 2);
        joined.extend(segs.iter().map(|seg| seg.stats.count as u64));
    }

    // One seeded window per bridge table: a tenth of the send phase.
    let span_ns = cfg.send_interval.as_nanos() * cfg.packets_per_app;
    let mut rng = SplitMix64(cfg.seed ^ 0x77);
    let mut scan_ms = Vec::new();
    let mut scan_s = 0.0;
    for h in 0..paths {
        let lo = rng.below(span_ns - span_ns / 10);
        let (answered, s) = tr.timed("core.metrics.scan_percentile", h as u32, || {
            let (scan, s) = tr.timed("tsdb.scan", h as u32, || {
                Query::new(bridge_table(h))
                    .time_range(lo, lo + span_ns / 10)
                    .scan(&db)
                    .expect("window scan")
            });
            scan_s += s;
            let entries = scan.entries();
            let p = vnet_tsdb::percentiles(&entries, "pkt_len", &[0.5, 0.95, 0.99]);
            !entries.is_empty() && p.is_some()
        });
        scan_ms.push(s * 1e3);
        analysis_s += s;
        tr.catch_up();
        c.equal("window scan answered", answered, true);
    }

    // Loss and throughput through `Query::scan`; `metrics::packet_loss`
    // and `metrics::throughput_at` read only the hot tail, which a cold
    // store does not have.
    let mut bridges = Vec::new();
    let mut bps = Vec::new();
    for h in 0..cfg.hosts {
        let (rows, s) = tr.timed("tsdb.scan", h as u32, || scan_table(&db, &bridge_table(h)));
        scan_s += s;
        analysis_s += s;
        tr.catch_up();
        let samples: Vec<(u64, u32, bool)> = rows.iter().map(|r| (r.0, r.1, r.2)).collect();
        bps.push(metrics::throughput_bps(&samples));
        let bytes: u64 = rows
            .iter()
            .map(|r| u64::from(r.1) - if r.2 { metrics::TRACE_ID_WIRE_BYTES } else { 0 })
            .sum();
        v.insert(format!("count.{}", bridge_table(h)), rows.len() as f64);
        v.insert(format!("bytes.{}", bridge_table(h)), bytes as f64);
        bridges.push(rows);
    }
    let lost = bridges[0].len().saturating_sub(bridges[1].len()) as u64;
    let scan_loss = metrics::PacketLoss {
        upstream: bridges[0].len() as u64,
        downstream: bridges[1].len() as u64,
        lost,
        rate: lost as f64 / bridges[0].len().max(1) as f64,
    };
    c.equal("bridge throughput is positive", bps[0] > 0.0, true);
    c.equal("no loss between neighbouring bridges", lost, 0);

    // How many `metrics::*` functions disagree with the scan on a cold
    // store. Surfaced as a count, not as a failed operation.
    let (b0, b1) = (bridge_table(0), bridge_table(1));
    let mismatch = u32::from(metrics::packet_loss(&db, &b0, &b1) != scan_loss)
        + u32::from(metrics::throughput_at(&db, &b0) != bps[0]);

    // Reference joins from the scans. Trace IDs are random 32-bit
    // values, so a few collide: the offline join keeps the first record
    // per ID (the reference below does the same), while the live engine
    // pairs every downstream record (`paired.*`, checked by the parent).
    tr.timed("harness.check", 0, || {
        let first_seen = |rows: &[(u64, u32, bool, u32)]| {
            let mut first: HashMap<u32, u64> = HashMap::new();
            for r in rows.iter().filter(|r| r.2) {
                let ts = first.entry(r.3).or_insert(r.0);
                *ts = (*ts).min(r.0);
            }
            first
        };
        let join = |up: &HashMap<u32, u64>, down: &HashMap<u32, u64>| {
            down.iter()
                .filter(|(id, &t2)| up.get(id).is_some_and(|&t1| t1 <= t2))
                .count() as u64
        };
        let firsts: Vec<_> = bridges.iter().map(|b| first_seen(b)).collect();
        for h in 0..paths {
            let next = (h + 1) % cfg.hosts;
            let port = scan_table(&db, &port_table(next, 0));
            let paired = port
                .iter()
                .filter(|r| r.2 && firsts[next].contains_key(&r.3))
                .count();
            v.insert(
                format!("paired.{}.{}", bridge_table(next), port_table(next, 0)),
                paired as f64,
            );
            c.equal(
                &format!("decompose pairs on path {h}"),
                (joined[2 * h], joined[2 * h + 1]),
                (
                    join(&firsts[h], &firsts[next]),
                    join(&firsts[next], &first_seen(&port)),
                ),
            );
        }
    });

    v.insert("visible_records".into(), db.len() as f64);
    v.insert("analysis_s".into(), analysis_s);
    v.insert("query_peak_rss_mb".into(), crate::util::peak_rss_mb());
    v.insert("tsdb.open_s".into(), open_s);
    v.insert("tsdb.scan_s".into(), scan_s);
    v.insert("core.metrics.paths".into(), paths as f64);
    v.insert(
        "core.metrics.pairs_joined".into(),
        joined.iter().sum::<u64>() as f64,
    );
    v.insert(
        "core.metrics.decompose_ms_per_path".into(),
        median(&decompose_ms),
    );
    v.insert("core.metrics.scan_percentile_ms".into(), median(&scan_ms));
    v.insert("core.metrics.cold_mismatch".into(), f64::from(mismatch));
    tr.catch_up();
    report.spans = tr.spans();
    report.yardstick = tr.yardstick();
    report
}
