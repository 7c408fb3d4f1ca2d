//! The Case Study II testbed (Figs. 10–11): long tail latency from the
//! Xen credit2 context-switch rate limit.
//!
//! A server VM (1 vCPU) runs the latency-sensitive workload inside a
//! container; a CPU-bound VM shares the same physical CPU. The client
//! runs on a separate physical server. Under the default credit2
//! rate limit (1000 µs), a packet arriving while the CPU-hog runs cannot
//! be delivered to the guest until the hog has used up its rate-limit
//! window — the 99.9th-percentile latency inflates ~22× (Sockperf) and
//! the scheduling delay traces out the sawtooth of Fig. 11(b). Setting
//! the rate limit to 0 restores near-baseline latency.
//!
//! The tracepoints mirror the paper's: `eth0` on the client, `xenbr0`
//! and `vif1.0` in Dom0, `eth1` in the server VM and `veth684a1d9`
//! inside the container.

use std::cell::RefCell;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::rc::Rc;

use vnet_sim::device::{DeviceConfig, Forwarding, Gate, ServiceModel, TraceIdRole};
use vnet_sim::node::NodeClock;
use vnet_sim::packet::FlowKey;
use vnet_sim::sched::{Credit2Scheduler, CreditScheduler, HyperScheduler};
use vnet_sim::time::SimDuration;
use vnet_sim::world::World;
use vnet_sim::{CpuId, VcpuId};
use vnet_workloads::stats::LatencyRecorder;
use vnet_workloads::{DataCachingClient, DataCachingServer, SockperfClient, SockperfServer};
use vnettracer::config::{Action, ControlPackage, FilterRule, HookSpec, TraceSpec};

use crate::Testbed;

/// Which latency workload drives the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XenWorkload {
    /// Sockperf UDP ping-pong (Figs. 10a, 11).
    Sockperf,
    /// CloudSuite Data Caching at 5000 rps (Fig. 10b).
    DataCaching,
}

/// Which Xen scheduler generation runs the host (the paper notes the
/// rate-limit issue and its fix apply to both).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Xen credit1 (BOOST priorities + rate limit).
    Credit1,
    /// Xen credit2 (pure credit order + rate limit).
    Credit2,
}

/// Scheduler contention configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Consolidation {
    /// The I/O VM runs alone on its pCPU (baseline).
    Alone,
    /// A CPU-hog VM shares the pCPU, default 1000 µs rate limit.
    SharedDefaultRatelimit,
    /// A CPU-hog VM shares the pCPU, rate limit tuned to zero (the fix).
    SharedNoRatelimit,
}

/// World RNG seed: every run of this scenario is the one run its
/// figures and tests pin.
const SEED: u64 = 17;

/// Configuration for the Xen scenario.
#[derive(Debug, Clone)]
pub struct XenConfig {
    /// The workload.
    pub workload: XenWorkload,
    /// The contention configuration.
    pub consolidation: Consolidation,
    /// Number of requests.
    pub requests: u64,
    /// Request interval (Sockperf; Data Caching uses its 5000 rps rate).
    pub interval: SimDuration,
    /// Clock offset of the Xen host relative to the client, in ns
    /// (exercises cross-machine skew handling).
    pub xen_clock_offset_ns: i64,
    /// Overrides the scheduler rate limit in shared configurations
    /// (`None` keeps the consolidation default) — the sweep knob of the
    /// ratelimit ablation.
    pub ratelimit: Option<SimDuration>,
    /// Scheduler generation.
    pub scheduler: SchedulerKind,
}

impl Default for XenConfig {
    fn default() -> Self {
        XenConfig {
            workload: XenWorkload::Sockperf,
            consolidation: Consolidation::Alone,
            requests: 500,
            interval: SimDuration::from_micros(100),
            xen_clock_offset_ns: 0,
            ratelimit: None,
            scheduler: SchedulerKind::Credit2,
        }
    }
}

/// The built scenario.
#[derive(Debug)]
pub struct XenScenario {
    /// The simulated world.
    pub world: World,
    /// Workload latency samples (as the application reports them).
    pub latency: Rc<RefCell<LatencyRecorder>>,
}

/// Client address.
pub const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 1);
/// Server (container) address.
pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 2, 0, 2);
const CLIENT_PORT: u16 = 40000;
const SERVER_PORT: u16 = 11211;

/// The I/O VM's vCPU.
pub const IO_VCPU: VcpuId = VcpuId(1);
/// The CPU-hog VM's vCPU.
pub const HOG_VCPU: VcpuId = VcpuId(2);

impl XenScenario {
    /// Builds the topology, scheduler and workload.
    pub fn build(cfg: &XenConfig) -> Self {
        let mut w = World::new(SEED);
        let client = w.add_node("client", 20, NodeClock::perfect());
        let xen = w.add_node(
            "xenhost",
            20,
            NodeClock::with_offset_ns(cfg.xen_clock_offset_ns),
        );

        // Hypervisor scheduler on the Xen host.
        let mut sched: Box<dyn HyperScheduler> = match cfg.scheduler {
            SchedulerKind::Credit1 => Box::new(CreditScheduler::new()),
            SchedulerKind::Credit2 => Box::new(Credit2Scheduler::new()),
        };
        sched.add_vcpu(IO_VCPU, CpuId(0), 256, false);
        match cfg.consolidation {
            Consolidation::Alone => {}
            Consolidation::SharedDefaultRatelimit => {
                sched.add_vcpu(HOG_VCPU, CpuId(0), 256, true);
            }
            Consolidation::SharedNoRatelimit => {
                sched.add_vcpu(HOG_VCPU, CpuId(0), 256, true);
                sched.set_ratelimit(SimDuration::ZERO);
            }
        }
        if let Some(rl) = cfg.ratelimit {
            sched.set_ratelimit(rl);
        }
        w.set_scheduler(xen, sched);

        // --- client devices ---
        let c_stack_tx = w.add_device(
            DeviceConfig::new("em-c", client)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                .trace_id(TraceIdRole::Inject),
        );
        let c_eth0 =
            w.add_device(DeviceConfig::new("eth0", client).service(ServiceModel::nic_gbps(1.0)));
        let c_rx = w.add_device(
            DeviceConfig::new("em-c-rx", client)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(500)))
                .forwarding(Forwarding::Deliver)
                .trace_id(TraceIdRole::StripUdpTrailer),
        );

        // --- xen host devices (request path) ---
        let x_eth0 = w.add_device(
            DeviceConfig::new("eth0", xen)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(300))),
        );
        let xenbr0 = w.add_device(
            DeviceConfig::new("xenbr0", xen)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(500))),
        );
        let vif = w.add_device(
            DeviceConfig::new("vif1.0", xen)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(700)))
                .queue_capacity(2048),
        );
        // The guest frontend: arrival requires the I/O VM's vCPU.
        let eth1 = w.add_device(
            DeviceConfig::new("eth1", xen)
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .gate(Gate::Vcpu(IO_VCPU))
                .queue_capacity(2048),
        );
        let veth = w.add_device(
            DeviceConfig::new("veth684a1d9", xen)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(500)))
                .forwarding(Forwarding::Deliver)
                .trace_id(TraceIdRole::StripUdpTrailer),
        );
        // Reply path.
        let guest_tx = w.add_device(
            DeviceConfig::new("guest-tx", xen)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(500)))
                .trace_id(TraceIdRole::Inject),
        );
        let x_eth0_tx =
            w.add_device(DeviceConfig::new("eth0-tx", xen).service(ServiceModel::nic_gbps(1.0)));

        // Wiring.
        let wire = SimDuration::from_micros(15);
        w.connect(c_stack_tx, c_eth0, SimDuration::ZERO);
        w.connect(c_eth0, x_eth0, wire);
        w.connect(x_eth0, xenbr0, SimDuration::ZERO);
        w.connect_routes(
            xenbr0,
            SimDuration::ZERO,
            [(SERVER_IP, vif), (CLIENT_IP, x_eth0_tx)],
            None,
        );
        w.connect(vif, eth1, SimDuration::ZERO);
        w.connect(eth1, veth, SimDuration::ZERO);
        w.connect(guest_tx, xenbr0, SimDuration::ZERO);
        w.connect(x_eth0_tx, c_rx, wire);

        // Workload.
        let flow = FlowKey::udp(
            SocketAddrV4::new(CLIENT_IP, CLIENT_PORT),
            SocketAddrV4::new(SERVER_IP, SERVER_PORT),
        );
        let latency = LatencyRecorder::shared();
        let client_app: vnet_sim::AppId;
        match cfg.workload {
            XenWorkload::Sockperf => {
                client_app = w.add_app(
                    client,
                    c_stack_tx,
                    Box::new(SockperfClient::new(
                        flow,
                        vnet_workloads::sockperf::DEFAULT_MSG_SIZE,
                        cfg.interval,
                        cfg.requests,
                        Rc::clone(&latency),
                    )),
                );
                let server = w.add_app(xen, guest_tx, Box::new(SockperfServer::new()));
                w.bind_app(veth, SERVER_PORT, server);
            }
            XenWorkload::DataCaching => {
                client_app = w.add_app(
                    client,
                    c_stack_tx,
                    Box::new(DataCachingClient::new(
                        flow,
                        vnet_workloads::memcached::DEFAULT_RPS,
                        cfg.requests,
                        Rc::clone(&latency),
                    )),
                );
                let server = w.add_app(xen, guest_tx, Box::new(DataCachingServer::new()));
                w.bind_app(veth, SERVER_PORT, server);
            }
        }
        w.bind_app(c_rx, CLIENT_PORT, client_app);

        XenScenario { world: w, latency }
    }

    /// The paper's five tracepoints for the Fig. 11 decomposition,
    /// filtered to the request flow.
    pub fn control_package(&self) -> ControlPackage {
        let req = FilterRule::udp_flow((CLIENT_IP, CLIENT_PORT), (SERVER_IP, SERVER_PORT));
        let spec = |name: &str, node: &str, hook: HookSpec| TraceSpec {
            name: name.into(),
            node: node.into(),
            hook,
            filter: req,
            action: Action::RecordPacketInfo,
        };
        ControlPackage::new(vec![
            spec("tp_eth0", "client", HookSpec::DeviceRx("eth0".into())),
            spec("tp_xenbr0", "xenhost", HookSpec::DeviceRx("xenbr0".into())),
            spec("tp_vif", "xenhost", HookSpec::DeviceRx("vif1.0".into())),
            spec("tp_eth1", "xenhost", HookSpec::DeviceRx("eth1".into())),
            spec(
                "tp_veth",
                "xenhost",
                HookSpec::DeviceRx("veth684a1d9".into()),
            ),
        ])
    }

    /// The tracepoint chain for the Fig. 11 per-packet decomposition.
    pub fn decomposition_chain() -> [&'static str; 5] {
        ["tp_eth0", "tp_xenbr0", "tp_vif", "tp_eth1", "tp_veth"]
    }

    /// Runs to completion.
    pub fn run(&mut self, cfg: &XenConfig) {
        let interval_ns = match cfg.workload {
            XenWorkload::Sockperf => cfg.interval.as_nanos(),
            XenWorkload::DataCaching => 1_000_000_000 / vnet_workloads::memcached::DEFAULT_RPS,
        };
        let total = SimDuration::from_nanos(interval_ns * (cfg.requests + 2))
            + SimDuration::from_millis(20);
        self.world.run_for(total);
    }
}

impl Testbed for XenScenario {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }
}

/// Runs `cfg` end-to-end and returns the application latency summary.
pub fn run_latency(cfg: &XenConfig) -> vnet_tsdb::LatencyStats {
    let mut s = XenScenario::build(cfg);
    s.run(cfg);
    let summary = s
        .latency
        .borrow_mut()
        .summary()
        .expect("workload produced samples");
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `workload` under `consolidation` at the default rate limit.
    fn latency(
        workload: XenWorkload,
        consolidation: Consolidation,
        requests: u64,
    ) -> vnet_tsdb::LatencyStats {
        run_latency(&XenConfig {
            workload,
            consolidation,
            requests,
            ..Default::default()
        })
    }
    use vnet_tsdb::TraceDb;
    use vnettracer::VNetTracer;

    #[test]
    fn consolidation_inflates_tail_latency() {
        let alone = latency(XenWorkload::Sockperf, Consolidation::Alone, 400);
        let shared = latency(
            XenWorkload::Sockperf,
            Consolidation::SharedDefaultRatelimit,
            400,
        );
        let inflation = shared.p999_ns as f64 / alone.p999_ns as f64;
        assert!(
            inflation > 8.0,
            "99.9p must inflate by an order of magnitude: alone {} shared {} ({inflation:.1}x)",
            alone.p999_ns,
            shared.p999_ns
        );
    }

    #[test]
    fn zero_ratelimit_restores_latency() {
        let alone = latency(XenWorkload::Sockperf, Consolidation::Alone, 400);
        let fixed = latency(XenWorkload::Sockperf, Consolidation::SharedNoRatelimit, 400);
        let ratio = fixed.mean_ns / alone.mean_ns;
        assert!(
            ratio < 1.5,
            "ratelimit=0 must be close to baseline: alone {} fixed {} ({ratio:.2}x)",
            alone.mean_ns,
            fixed.mean_ns
        );
    }

    #[test]
    fn data_caching_shows_same_problem() {
        let alone = latency(XenWorkload::DataCaching, Consolidation::Alone, 300);
        let shared = latency(
            XenWorkload::DataCaching,
            Consolidation::SharedDefaultRatelimit,
            300,
        );
        assert!(
            shared.mean_ns > 2.0 * alone.mean_ns,
            "avg inflates (paper: 4.7x)"
        );
        assert!(
            shared.p999_ns > 4 * alone.p999_ns,
            "tail inflates (paper: 7.5x)"
        );
        let fixed = latency(
            XenWorkload::DataCaching,
            Consolidation::SharedNoRatelimit,
            300,
        );
        assert!(fixed.mean_ns < 1.5 * alone.mean_ns);
    }

    #[test]
    fn decomposition_attributes_delay_to_vif_eth1_segment() {
        let cfg = XenConfig {
            consolidation: Consolidation::SharedDefaultRatelimit,
            requests: 300,
            ..Default::default()
        };
        let mut s = XenScenario::build(&cfg);
        let pkg = s.control_package();
        let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
        tracer.deploy(&mut s.world, &pkg).unwrap();
        s.run(&cfg);
        tracer.collect(&s.world);
        let segs = vnettracer::metrics::decompose(tracer.db(), &XenScenario::decomposition_chain());
        assert_eq!(segs.len(), 4);
        let total_mean: f64 = segs.iter().map(|s| s.stats.mean_ns).sum();
        let vif_eth1 = segs
            .iter()
            .find(|s| s.from == "tp_vif" && s.to == "tp_eth1")
            .unwrap();
        assert!(
            vif_eth1.stats.mean_ns / total_mean > 0.8,
            "vif->eth1 (scheduling) must dominate: {} of {}",
            vif_eth1.stats.mean_ns,
            total_mean
        );
    }

    #[test]
    fn sawtooth_scheduling_delay_visible_per_packet() {
        let cfg = XenConfig {
            consolidation: Consolidation::SharedDefaultRatelimit,
            requests: 300,
            ..Default::default()
        };
        let mut s = XenScenario::build(&cfg);
        let pkg = s.control_package();
        let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
        tracer.deploy(&mut s.world, &pkg).unwrap();
        s.run(&cfg);
        tracer.collect(&s.world);
        let rows = vnettracer::metrics::per_packet_segments(
            tracer.db(),
            &XenScenario::decomposition_chain(),
        );
        // Segment index 2 = vif -> eth1.
        let delays: Vec<u64> = rows.iter().filter_map(|(_, segs)| segs[2]).collect();
        assert!(delays.len() > 100);
        let max = *delays.iter().max().unwrap();
        assert!(
            (800_000..1_100_000).contains(&max),
            "peak scheduling delay near the 1000us ratelimit, got {max}ns"
        );
        // Sawtooth: within a burst the delay descends by one send
        // interval (100us) per packet, then resets near the full
        // ratelimit once the vCPU has run and slept again.
        let descents = delays
            .windows(2)
            .filter(|w| w[0] > 500_000 && w[0].saturating_sub(w[1]) > 90_000)
            .count();
        assert!(
            descents > 20,
            "expected many descending steps, got {descents}"
        );
        let resets = delays.windows(2).filter(|w| w[1] > w[0] + 500_000).count();
        assert!(resets > 3, "expected periodic resets, got {resets}");
    }

    #[test]
    fn credit1_shows_the_same_problem_and_fix() {
        // "Such a solution also works for the same issue in credit1
        // scheduler inside Xen."
        let run = |consolidation, ratelimit| {
            let cfg = XenConfig {
                consolidation,
                requests: 300,
                ratelimit,
                scheduler: SchedulerKind::Credit1,
                ..Default::default()
            };
            run_latency(&cfg)
        };
        let alone = run(Consolidation::Alone, None);
        let shared = run(Consolidation::SharedDefaultRatelimit, None);
        let fixed = run(Consolidation::SharedNoRatelimit, None);
        assert!(
            shared.p999_ns > 8 * alone.p999_ns,
            "credit1 tail inflates too"
        );
        assert!(
            fixed.mean_ns < 1.5 * alone.mean_ns,
            "ratelimit=0 fixes credit1 too"
        );
    }

    #[test]
    fn jitter_range_grows_under_consolidation() {
        let cfg_alone = XenConfig {
            requests: 300,
            ..Default::default()
        };
        let mut a = XenScenario::build(&cfg_alone);
        a.run(&cfg_alone);
        let alone_range =
            vnettracer::metrics::jitter_range(a.latency.borrow_mut().samples()).unwrap();
        let cfg_shared = XenConfig {
            consolidation: Consolidation::SharedDefaultRatelimit,
            requests: 300,
            ..Default::default()
        };
        let mut b = XenScenario::build(&cfg_shared);
        b.run(&cfg_shared);
        let shared_range =
            vnettracer::metrics::jitter_range(b.latency.borrow_mut().samples()).unwrap();
        let alone_span = alone_range.1 - alone_range.0;
        let shared_span = shared_range.1 - shared_range.0;
        assert!(
            shared_span > 10 * alone_span,
            "jitter range must blow up: alone {alone_span} vs shared {shared_span}"
        );
    }
}
