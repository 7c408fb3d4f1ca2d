//! Trace-driven link emulation: adversarial network conditions replayed
//! against the prebuilt testbeds, with a `vnet-live` engine attached and
//! its alerts scored against the generators' ground truth.
//!
//! Each [`AdversarialProfile`] builds one of the `vnet-sim` condition
//! generators (LEO handover steps, congested-WAN rate dips, flapping
//! links, asymmetric-route skew, Gilbert–Elliott burst loss), attaches
//! it to the scenario's physical links, runs the workload with the
//! streaming anomaly detector subscribed to the collector, and matches
//! every emitted [`Alert`] against the exact condition-active windows
//! the generator recorded. The result is a per-condition
//! precision/recall score — the detector-validation number the
//! `detector-validation` CI step and `vnt emulate` report.
//!
//! ## Matching rule
//!
//! An alert *matches* an episode when its event time falls inside the
//! episode widened by a slack of one window width plus the pair timeout
//! ([`match_slack`](AdversarialProfile::match_slack)) — windowed alerts
//! carry the *window start* as their timestamp, latency samples land in
//! the window of their downstream record, and loss is only final once
//! the pairing timeout has elapsed, so a detection of a real condition
//! can be stamped up to `window + pair_timeout` away from the episode
//! boundary. The congested-WAN condition additionally gets a longer
//! trailing slack: a rate dip leaves a serialization backlog that keeps
//! the receiver's throughput collapsed while the queue drains, and
//! alerts raised during that drain are still true detections of the dip.
//!
//! Only alerts of the condition's *characteristic kind on its
//! characteristic stream* (see
//! [`is_expected`](AdversarialProfile::is_expected)) are scored;
//! everything else the detector raised is reported separately in
//! [`EmulationReport::other_alerts`]. Precision is the fraction of
//! expected-kind alerts that match an episode; recall is the fraction of
//! episodes with at least one matching alert.

use std::cell::RefCell;
use std::rc::Rc;
use std::str::FromStr;

use vnet_live::{Alert, AlertKind, LiveConfig, LiveEngine, WindowSpec};
use vnet_sim::profile::{
    asymmetric_skew, congested_wan, flapping, gilbert_elliott, leo_handover, Episode,
};
use vnet_sim::time::{SimDuration, SimTime};
use vnet_sim::{DeviceId, World};
use vnet_tsdb::TraceDb;
use vnet_workloads::datacenter_rack::{RackConfig, RackScenario};
use vnettracer::config::{FilterRule, GlobalConfig, Proto};
use vnettracer::modules::{ModuleRegistry, ModuleScope, TapSpec};
use vnettracer::{IngestSubscriber, VNetTracer};

use crate::two_host::{
    TwoHostConfig, TwoHostScenario, SOCKPERF_CLIENT_PORT, SOCKPERF_SERVER_PORT, VM1_IP, VM2_IP,
};

/// Tumbling analysis window width.
pub const WINDOW: SimDuration = SimDuration::from_millis(5);
/// Collection interval: how often the simulated world is stepped and
/// the collector drained into the engine.
pub const COLLECT: SimDuration = SimDuration::from_millis(1);
/// Pairing timeout for the latency/loss operators.
pub const PAIR_TIMEOUT: SimDuration = SimDuration::from_millis(20);
/// Clean traffic before the first episode, so every EWMA baseline is
/// warmed up (3 windows) with margin before conditions start.
pub const WARMUP: SimDuration = SimDuration::from_millis(50);
/// Episode spacing for the periodic conditions.
pub const PERIOD: SimDuration = SimDuration::from_millis(80);
/// Episode length for the delay-step conditions.
pub const DWELL: SimDuration = SimDuration::from_millis(20);
/// Outage length for the flapping-link condition.
pub const FLAP_DOWNTIME: SimDuration = SimDuration::from_millis(10);
/// Dip length for the congested-WAN condition (kept short so the
/// serialization backlog drains well before the next episode).
pub const CW_DWELL: SimDuration = SimDuration::from_millis(5);
/// Elevated one-way delay during LEO-handover / asymmetric-skew
/// episodes (~10x the two-host wire's 30us base).
pub const STEP_DELAY: SimDuration = SimDuration::from_micros(300);
/// Congested-WAN healthy link rate.
pub const CW_BASE_BPS: u64 = 100_000_000;
/// Congested-WAN dipped link rate.
pub const CW_DIP_BPS: u64 = 1_000_000;
/// Gilbert–Elliott loss rate in the bad state.
pub const GE_LOSS_BAD: f64 = 0.4;
/// Gilbert–Elliott per-step probability of entering the bad state.
pub const GE_P_ENTER: f64 = 0.08;
/// Gilbert–Elliott per-step probability of leaving the bad state.
pub const GE_P_EXIT: f64 = 0.5;
/// Gilbert–Elliott chain step (one analysis window, so bad runs align
/// with whole windows).
pub const GE_STEP: SimDuration = SimDuration::from_millis(5);

/// The library of adversarial link conditions the harness can replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversarialProfile {
    /// LEO-handover delay steps on both directions of the link.
    LeoHandover,
    /// Congested-WAN rate dips on the forward direction.
    CongestedWan,
    /// Periodic administrative up/down flaps of the receiving NIC.
    Flapping,
    /// Delay skew on the *reverse* direction only; the forward path
    /// must stay clean.
    AsymmetricSkew,
    /// Bursty Gilbert–Elliott loss on the forward direction.
    GilbertElliott,
}

impl AdversarialProfile {
    /// All five conditions, in reporting order.
    pub fn all() -> [AdversarialProfile; 5] {
        [
            AdversarialProfile::LeoHandover,
            AdversarialProfile::CongestedWan,
            AdversarialProfile::Flapping,
            AdversarialProfile::AsymmetricSkew,
            AdversarialProfile::GilbertElliott,
        ]
    }

    /// Stable CLI/report name.
    pub fn name(&self) -> &'static str {
        match self {
            AdversarialProfile::LeoHandover => "leo-handover",
            AdversarialProfile::CongestedWan => "congested-wan",
            AdversarialProfile::Flapping => "flapping",
            AdversarialProfile::AsymmetricSkew => "asymmetric-skew",
            AdversarialProfile::GilbertElliott => "gilbert-elliott",
        }
    }

    /// The matching tolerance `(before, after)` around each episode.
    ///
    /// Both sides get `WINDOW + PAIR_TIMEOUT` (see the module docs); the
    /// congested-WAN condition's trailing slack is extended to cover the
    /// serialization-backlog drain after each dip.
    pub fn match_slack(&self) -> (SimDuration, SimDuration) {
        let slack = WINDOW + PAIR_TIMEOUT;
        match self {
            AdversarialProfile::CongestedWan => (slack, SimDuration::from_millis(45)),
            _ => (slack, slack),
        }
    }

    /// Whether `kind` is this condition's characteristic alert on the
    /// scenario's characteristic stream.
    pub fn is_expected(&self, kind: &AlertKind, labels: &StreamLabels) -> bool {
        match (self, kind) {
            (AdversarialProfile::LeoHandover, AlertKind::LatencySpike { pair, .. }) => {
                pair == &labels.forward_pair || Some(pair) == labels.reverse_pair.as_ref()
            }
            (AdversarialProfile::AsymmetricSkew, AlertKind::LatencySpike { pair, .. }) => {
                // Reverse-only skew must be caught on the reverse pair
                // (the rack variant has no reverse flow and applies the
                // skew to the downlink leg of the forward route).
                match &labels.reverse_pair {
                    Some(rev) => pair == rev,
                    None => pair == &labels.forward_pair,
                }
            }
            (
                AdversarialProfile::CongestedWan,
                AlertKind::ThroughputCollapse { tracepoint, .. },
            ) => tracepoint == &labels.throughput,
            (
                AdversarialProfile::Flapping | AdversarialProfile::GilbertElliott,
                AlertKind::LossBurst { pair, .. },
            ) => pair == &labels.forward_pair,
            _ => false,
        }
    }
}

impl FromStr for AdversarialProfile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        AdversarialProfile::all()
            .into_iter()
            .find(|p| p.name() == s)
            .ok_or_else(|| {
                format!(
                    "unknown profile `{s}` (expected one of: {})",
                    AdversarialProfile::all().map(|p| p.name()).join(", ")
                )
            })
    }
}

/// The stream names a scenario's detector operates on, used to scope
/// [`AdversarialProfile::is_expected`] to the degraded path.
#[derive(Debug, Clone)]
pub struct StreamLabels {
    /// Latency/loss pair label covering the forward (degraded) path.
    pub forward_pair: String,
    /// Latency pair label covering the reverse path, if the scenario
    /// has reply traffic.
    pub reverse_pair: Option<String>,
    /// Throughput tracepoint downstream of the degraded link.
    pub throughput: String,
}

/// Knobs for one emulated validation run.
#[derive(Debug, Clone)]
pub struct EmulationConfig {
    /// World RNG seed (also seeds the Gilbert–Elliott chain).
    pub seed: u64,
    /// Messages per sender app; the condition schedule spans
    /// `messages x 100us`.
    pub messages: u64,
}

impl Default for EmulationConfig {
    fn default() -> Self {
        EmulationConfig {
            seed: 7,
            messages: 3_500,
        }
    }
}

impl EmulationConfig {
    /// The span the condition schedules cover: the workload send phase.
    pub fn condition_span(&self) -> SimDuration {
        SimDuration::from_nanos(self.messages * 100_000)
    }

    fn ge_seed(&self) -> u64 {
        // Decorrelate the loss chain from the world's own RNG streams.
        self.seed ^ 0x9E37_79B9_7F4A_7C15
    }
}

/// One emulated run, scored against ground truth.
#[derive(Debug, Clone)]
pub struct EmulationReport {
    /// The replayed condition; `None` for a clean run.
    pub profile: Option<AdversarialProfile>,
    /// Exact condition-active windows from the generator.
    pub episodes: Vec<Episode>,
    /// Alerts of the condition's characteristic kind (none on a clean
    /// run).
    pub expected_alerts: Vec<Alert>,
    /// Every other alert the detector raised (not scored) — on a clean
    /// run, every alert.
    pub other_alerts: Vec<Alert>,
    /// Expected-kind alerts that matched an episode.
    pub matched_alerts: usize,
    /// Episodes with at least one matching alert.
    pub detected_episodes: usize,
    /// Events processed by the simulator (a determinism fingerprint).
    pub events_processed: u64,
}

impl EmulationReport {
    /// Fraction of expected-kind alerts that hit a ground-truth episode
    /// (1.0 when the detector stayed silent).
    pub fn precision(&self) -> f64 {
        if self.expected_alerts.is_empty() {
            1.0
        } else {
            self.matched_alerts as f64 / self.expected_alerts.len() as f64
        }
    }

    /// Fraction of ground-truth episodes detected; `None` when the run
    /// was too short for the generator to schedule an episode — with no
    /// ground truth there is nothing to score recall against.
    pub fn recall(&self) -> Option<f64> {
        if self.episodes.is_empty() {
            None
        } else {
            Some(self.detected_episodes as f64 / self.episodes.len() as f64)
        }
    }
}

fn score(
    profile: Option<AdversarialProfile>,
    labels: &StreamLabels,
    episodes: Vec<Episode>,
    alerts: Vec<Alert>,
    events_processed: u64,
) -> EmulationReport {
    let (pre, post) = profile.map_or_else(Default::default, |p| p.match_slack());
    let (expected_alerts, other_alerts): (Vec<Alert>, Vec<Alert>) = alerts
        .into_iter()
        .partition(|a| profile.is_some_and(|p| p.is_expected(&a.kind, labels)));
    let in_episode = |ep: &Episode, at_ns: u64| {
        let lo = ep.start.as_nanos().saturating_sub(pre.as_nanos());
        let hi = ep.end.as_nanos().saturating_add(post.as_nanos());
        (lo..hi).contains(&at_ns)
    };
    let matched_alerts = expected_alerts
        .iter()
        .filter(|a| episodes.iter().any(|ep| in_episode(ep, a.at_ns)))
        .count();
    let detected_episodes = episodes
        .iter()
        .filter(|ep| expected_alerts.iter().any(|a| in_episode(ep, a.at_ns)))
        .count();
    EmulationReport {
        profile,
        episodes,
        expected_alerts,
        other_alerts,
        matched_alerts,
        detected_episodes,
        events_processed,
    }
}

/// Sender pacing of both testbeds' workloads.
const SEND_INTERVAL: SimDuration = SimDuration::from_micros(100);

/// One testbed as the harness sees it: where each condition attaches,
/// what the detector watches, and the tracer that feeds it. Everything
/// else about a run is the same on every testbed.
struct Bed<'a> {
    world: &'a mut World,
    tracer: VNetTracer,
    /// Healthy one-way delay of the degraded cables.
    base_delay: SimDuration,
    /// Congested-WAN `(healthy, dipped)` link rates, bits/second.
    cw_bps: (u64, u64),
    /// The forward leg: a device and the outgoing port of its cable.
    forward: (DeviceId, usize),
    /// The reverse leg the LEO and asymmetric-skew conditions also (or
    /// only) degrade.
    reverse: (DeviceId, usize),
    /// The NIC the flapping condition takes down and up.
    flap_victim: DeviceId,
    /// The taps and pairs the `default` profile attaches and tracks.
    scope: ModuleScope,
    /// The nodes whose agents the engine's watermark waits for.
    agents: [&'static str; 2],
    /// The streams each condition's characteristic alerts are scored on.
    labels: StreamLabels,
}

/// Attaches `profile`'s condition (none for a clean run) to `bed`, runs
/// the workload with a live engine subscribed to the collector, and
/// scores the engine's alerts against the generator's episodes.
fn run_testbed(
    bed: Bed<'_>,
    profile: Option<AdversarialProfile>,
    cfg: &EmulationConfig,
) -> EmulationReport {
    let (world, base_delay, fwd, rev) = (bed.world, bed.base_delay, bed.forward, bed.reverse);
    let span = cfg.condition_span();
    let episodes = match profile {
        None => Vec::new(),
        Some(AdversarialProfile::LeoHandover) => {
            let (p, eps) = leo_handover(base_delay, STEP_DELAY, WARMUP, PERIOD, DWELL, span);
            world.attach_link_profile(fwd.0, fwd.1, p.clone());
            world.attach_link_profile(rev.0, rev.1, p);
            eps
        }
        Some(AdversarialProfile::CongestedWan) => {
            let (p, eps) = congested_wan(
                base_delay,
                bed.cw_bps.0,
                bed.cw_bps.1,
                WARMUP,
                PERIOD,
                CW_DWELL,
                span,
            );
            world.attach_link_profile(fwd.0, fwd.1, p);
            eps
        }
        Some(AdversarialProfile::Flapping) => {
            let (schedule, eps) = flapping(WARMUP, PERIOD, FLAP_DOWNTIME, span);
            for (at, down) in schedule {
                world.schedule_device_down(bed.flap_victim, at, down);
            }
            eps
        }
        Some(AdversarialProfile::AsymmetricSkew) => {
            let (p, eps) = asymmetric_skew(base_delay, STEP_DELAY, WARMUP, PERIOD, DWELL, span);
            world.attach_link_profile(rev.0, rev.1, p);
            eps
        }
        Some(AdversarialProfile::GilbertElliott) => {
            let (p, eps) = gilbert_elliott(
                base_delay,
                GE_LOSS_BAD,
                cfg.ge_seed(),
                GE_P_ENTER,
                GE_P_EXIT,
                GE_STEP,
                WARMUP,
                span,
            );
            world.attach_link_profile(fwd.0, fwd.1, p);
            eps
        }
    };

    // The live config comes from the scope's module metrics — the same
    // declarations that drive `vnt live` — with the harness's pairing
    // timeout applied.
    let registry = ModuleRegistry::builtin();
    let package = registry
        .package("default", &bed.scope, GlobalConfig::default())
        .expect("builtin default profile resolves");
    let specs = registry
        .metrics("default", &bed.scope)
        .expect("builtin default profile resolves");
    let mut live = LiveConfig::from_metric_specs(WindowSpec::tumbling(WINDOW.as_nanos()), &specs);
    live.pair_timeout_ns = PAIR_TIMEOUT.as_nanos();
    let mut engine = LiveEngine::new(live);
    for agent in bed.agents {
        engine.register_agent(agent, None);
    }
    let engine = Rc::new(RefCell::new(engine));
    let mut tracer = bed.tracer;
    tracer.subscribe(engine.clone() as Rc<RefCell<dyn IngestSubscriber>>);
    tracer.deploy(world, &package).expect("deploy");

    // Every message sent plus 50 ms to drain, stepped in COLLECT slices
    // with the collector drained into the engine after each.
    let total_ns =
        SEND_INTERVAL.as_nanos() * (cfg.messages + 2) + SimDuration::from_millis(50).as_nanos();
    let mut t = 0u64;
    while t < total_ns {
        t = (t + COLLECT.as_nanos()).min(total_ns);
        world.run_until(SimTime::from_nanos(t));
        tracer.collect(world);
    }
    engine.borrow_mut().finish();
    let alerts = engine.borrow_mut().drain_alerts();
    score(
        profile,
        &bed.labels,
        episodes,
        alerts,
        world.events_processed(),
    )
}

/// Runs one adversarial condition — or none, the false-positive check —
/// against the two-host Sockperf testbed and scores the streaming
/// detector's alerts against ground truth.
///
/// The condition degrades the physical wire between the two servers
/// (forward = server1 -> server2; the flapping condition instead flaps
/// server2's `eth0-rx`). The live engine watches the paper's four trace
/// scripts plus one extra reverse-direction tap at server2's bridge, so
/// the reply path is observable for the asymmetric-skew condition.
pub fn run_two_host(profile: Option<AdversarialProfile>, cfg: &EmulationConfig) -> EmulationReport {
    let mut s = TwoHostScenario::build(&TwoHostConfig {
        seed: cfg.seed,
        messages: cfg.messages,
        interval: SEND_INTERVAL,
        background_mbps: 0.0,
    });
    let device = |node, name| s.world.find_device(node, name).expect(name);
    let (forward, reverse) = (device(s.server1, "eth0-tx"), device(s.server2, "eth0-tx"));
    let flap_victim = device(s.server2, "eth0-rx");

    // The paper's four taps plus a reverse-direction tap at server2's
    // bridge, so reply-path latency is measurable end to end.
    let req = FilterRule::udp_flow(
        (VM1_IP, SOCKPERF_CLIENT_PORT),
        (VM2_IP, SOCKPERF_SERVER_PORT),
    );
    let mut scope = s.module_scope();
    scope.packet_taps.push(TapSpec::rx(
        "s2_ovs_br1_rev",
        "server2",
        "ovs-br1",
        req.reversed(),
    ));
    scope
        .latency_pairs
        .push(("s2_ovs_br1_rev".into(), "s1_ens3".into()));

    let tracer = VNetTracer::for_world(&s.world, TraceDb::new());
    let bed = Bed {
        world: &mut s.world,
        tracer,
        base_delay: SimDuration::from_micros(30),
        cw_bps: (CW_BASE_BPS, CW_DIP_BPS),
        forward: (forward, 0),
        reverse: (reverse, 0),
        flap_victim,
        scope,
        agents: ["server1", "server2"],
        labels: StreamLabels {
            forward_pair: "s1_ovs_br1->s2_ovs_br1".into(),
            reverse_pair: Some("s2_ovs_br1_rev->s1_ens3".into()),
            throughput: "s2_ovs_br1".into(),
        },
    };
    run_testbed(bed, profile, cfg)
}

/// Runs one adversarial condition — or none, the clean-rack
/// false-positive check — against a small datacenter rack.
///
/// The condition degrades host0's uplink cable to the ToR (the
/// flapping condition flaps host1's `eth0-rx`; the LEO and skew
/// conditions also/only touch the ToR -> host1 downlink). The detector
/// watches the `vm0-0 -> vm1-0` flow at the two host bridges, which
/// brackets the degraded cables.
pub fn run_rack(profile: Option<AdversarialProfile>, cfg: &EmulationConfig) -> EmulationReport {
    let mut s = RackScenario::build(&RackConfig {
        seed: cfg.seed,
        hosts: 4,
        vms_per_host: 2,
        apps_per_vm: 2,
        flows_per_app: 8,
        packets_per_app: cfg.messages,
        send_interval: SEND_INTERVAL,
        payload: 128,
    });
    // host0's uplink NIC: its only outgoing port (0) is the cable to the
    // ToR. The ToR's port h is its cable down to host h.
    let device = |node, name| s.world.find_device(node, name).expect(name);
    let uplink = device(s.host_nodes[0], "eth0-tx");
    let tor_sw = device(s.tor, "tor-sw");
    let flap_victim = device(s.host_nodes[1], "eth0-rx");

    // Bracket the degraded cables with taps on the vm0-0 -> vm1-0 flow:
    // at host0's bridge before VXLAN encap, at host1's bridge after
    // decap.
    let filter = FilterRule {
        ether_type: Some(0x0800),
        protocol: Some(Proto::Udp),
        src_ip: Some(RackConfig::vm_ip(0, 0)),
        dst_ip: Some(RackConfig::vm_ip(1, 0)),
        ..FilterRule::any()
    };
    let scope = ModuleScope {
        packet_taps: vec![
            TapSpec::rx("emu_up", "host0", "ovs-br", filter),
            TapSpec::rx("emu_down", "host1", "ovs-br", filter),
        ],
        latency_pairs: vec![("emu_up".into(), "emu_down".into())],
        throughput_tables: vec!["emu_down".into()],
        ..Default::default()
    };

    let mut tracer = VNetTracer::new();
    tracer.add_agent(vnettracer::Agent::new(s.host_nodes[0], "host0", 16));
    tracer.add_agent(vnettracer::Agent::new(s.host_nodes[1], "host1", 16));
    let bed = Bed {
        world: &mut s.world,
        tracer,
        base_delay: SimDuration::from_micros(5),
        cw_bps: (1_000_000_000, 10_000_000),
        forward: (uplink, 0),
        // Only the downlink leg to host1: the skew condition leaves the
        // uplink on its base profile — an asymmetric route through the
        // fabric.
        reverse: (tor_sw, 1),
        flap_victim,
        scope,
        agents: ["host0", "host1"],
        // No reverse flow: the skew lands on the forward pair.
        labels: StreamLabels {
            forward_pair: "emu_up->emu_down".into(),
            reverse_pair: None,
            throughput: "emu_down".into(),
        },
    };
    run_testbed(bed, profile, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A run too short for the generator to schedule an episode is a
    /// report with nothing to score, not a panic.
    #[test]
    fn run_without_episodes_has_no_recall() {
        let cfg = EmulationConfig {
            messages: 0,
            ..Default::default()
        };
        let r = run_two_host(Some(AdversarialProfile::LeoHandover), &cfg);
        assert!(r.episodes.is_empty());
        assert_eq!(r.recall(), None);
        assert_eq!(r.precision(), 1.0, "no alerts, none of them wrong");
    }
}
