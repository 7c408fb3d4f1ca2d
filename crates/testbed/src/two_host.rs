//! The Fig. 7(a) overhead testbed: Sockperf between two KVM VMs on two
//! servers connected by OVS bridges and a physical link.
//!
//! "We created two VMs using KVM on two servers … executed Sockperf
//! client side on one VM and sent UDP requests to the Sockperf server
//! side on another VM … executed four tracing scripts and attached them
//! into the Open vSwitch port ovs-br1 in the hypervisor and virtual
//! ethernet port ens3 in the VM on the two physical servers." (§IV-B)
//!
//! A light background iPerf flow shares the OVS bridges and NICs so the
//! Sockperf latency distribution has a realistic tail.

use std::cell::RefCell;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::rc::Rc;

use vnet_sim::device::{DeviceConfig, Forwarding, ServiceModel, TraceIdRole};
use vnet_sim::node::NodeClock;
use vnet_sim::packet::FlowKey;
use vnet_sim::time::SimDuration;
use vnet_sim::world::World;
use vnet_sim::{DeviceId, NodeId};
use vnet_workloads::stats::LatencyRecorder;
use vnet_workloads::{IperfClient, IperfServer, SockperfClient, SockperfServer};
use vnettracer::config::{ControlPackage, FilterRule, GlobalConfig};
use vnettracer::modules::{ModuleRegistry, ModuleScope, TapSpec};

use crate::Testbed;

/// Configuration of the two-host overhead scenario.
#[derive(Debug, Clone)]
pub struct TwoHostConfig {
    /// RNG seed.
    pub seed: u64,
    /// Number of Sockperf messages.
    pub messages: u64,
    /// Sockperf send interval.
    pub interval: SimDuration,
    /// Background iPerf rate in Mbps (0 disables it).
    pub background_mbps: f64,
}

impl Default for TwoHostConfig {
    fn default() -> Self {
        TwoHostConfig {
            seed: 7,
            messages: 2_000,
            interval: SimDuration::from_micros(100),
            background_mbps: 300.0,
        }
    }
}

/// The built scenario.
#[derive(Debug)]
pub struct TwoHostScenario {
    /// The simulated world.
    pub world: World,
    /// First server (Sockperf client VM).
    pub server1: NodeId,
    /// Second server (Sockperf server VM).
    pub server2: NodeId,
    /// Sockperf latency samples.
    pub latency: Rc<RefCell<LatencyRecorder>>,
}

/// VM1 (client) address.
pub const VM1_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// VM2 (server) address.
pub const VM2_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// Sockperf client UDP source port (the request flow's `src_port`).
pub const SOCKPERF_CLIENT_PORT: u16 = 40000;
/// Sockperf server UDP destination port.
pub const SOCKPERF_SERVER_PORT: u16 = 11111;
const IPERF_CLIENT_PORT: u16 = 50000;
const IPERF_SERVER_PORT: u16 = 5201;

/// The devices of one server that the wire between the servers and the
/// workloads attach to: the VM's transmit tap and receive port, and the
/// NIC's two sides.
struct Server {
    ens3_tx: DeviceId,
    eth_tx: DeviceId,
    eth_rx: DeviceId,
    ens3: DeviceId,
}

/// Adds one server's devices to `node` (VM transmit tap, OVS bridge
/// `ovs-br1`, NIC pair, VM receive port, in that id order) and wires
/// them: the VM and the NIC's receive side feed the bridge, which routes
/// `local` to the VM and `remote` out the NIC.
fn add_server(w: &mut World, node: NodeId, local: Ipv4Addr, remote: Ipv4Addr) -> Server {
    let ens3_tx = w.add_device(
        DeviceConfig::new("ens3-tx", node)
            .service(ServiceModel::Fixed(SimDuration::from_nanos(500)))
            .trace_id(TraceIdRole::Inject),
    );
    let ovs_br = w.add_device(
        DeviceConfig::new("ovs-br1", node)
            .service(ServiceModel::Fixed(SimDuration::from_nanos(1_500)))
            .queue_capacity(1024),
    );
    let eth_tx =
        w.add_device(DeviceConfig::new("eth0-tx", node).service(ServiceModel::nic_gbps(1.0)));
    let eth_rx = w.add_device(
        DeviceConfig::new("eth0-rx", node)
            .service(ServiceModel::Fixed(SimDuration::from_nanos(300))),
    );
    let ens3 = w.add_device(
        DeviceConfig::new("ens3", node)
            .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
            .forwarding(Forwarding::Deliver)
            .trace_id(TraceIdRole::StripUdpTrailer),
    );
    w.connect(ens3_tx, ovs_br, SimDuration::ZERO);
    w.connect_routes(
        ovs_br,
        SimDuration::ZERO,
        [(remote, eth_tx), (local, ens3)],
        None,
    );
    w.connect(eth_rx, ovs_br, SimDuration::ZERO);
    Server {
        ens3_tx,
        eth_tx,
        eth_rx,
        ens3,
    }
}

impl TwoHostScenario {
    /// Builds the topology and workloads.
    pub fn build(cfg: &TwoHostConfig) -> Self {
        let mut w = World::new(cfg.seed);
        let s1 = w.add_node("server1", 20, NodeClock::perfect());
        let s2 = w.add_node("server2", 20, NodeClock::perfect());
        let vm1 = add_server(&mut w, s1, VM1_IP, VM2_IP);
        let vm2 = add_server(&mut w, s2, VM2_IP, VM1_IP);
        // VM1 out -> OVS1 -> NIC1 -> wire -> NIC2-rx -> OVS2 -> VM2, and back.
        let wire = SimDuration::from_micros(30);
        w.connect(vm1.eth_tx, vm2.eth_rx, wire);
        w.connect(vm2.eth_tx, vm1.eth_rx, wire);

        // --- workloads ---
        let flow = FlowKey::udp(
            SocketAddrV4::new(VM1_IP, SOCKPERF_CLIENT_PORT),
            SocketAddrV4::new(VM2_IP, SOCKPERF_SERVER_PORT),
        );
        let latency = LatencyRecorder::shared();
        let client = w.add_app(
            s1,
            vm1.ens3_tx,
            Box::new(SockperfClient::new(
                flow,
                vnet_workloads::sockperf::DEFAULT_MSG_SIZE,
                cfg.interval,
                cfg.messages,
                Rc::clone(&latency),
            )),
        );
        let server = w.add_app(s2, vm2.ens3_tx, Box::new(SockperfServer::new()));
        w.bind_app(vm2.ens3, SOCKPERF_SERVER_PORT, server);
        w.bind_app(vm1.ens3, SOCKPERF_CLIENT_PORT, client);

        if cfg.background_mbps > 0.0 {
            let bg_flow = FlowKey::udp(
                SocketAddrV4::new(VM1_IP, IPERF_CLIENT_PORT),
                SocketAddrV4::new(VM2_IP, IPERF_SERVER_PORT),
            );
            // Run background traffic for the whole experiment.
            let duration_ns = cfg.interval.as_nanos() * cfg.messages;
            let pkt_size = 1470;
            let count = (cfg.background_mbps * 1e6 / 8.0 * (duration_ns as f64 / 1e9)
                / pkt_size as f64) as u64;
            w.add_app(
                s1,
                vm1.ens3_tx,
                Box::new(IperfClient::with_rate_mbps(
                    bg_flow,
                    pkt_size,
                    cfg.background_mbps,
                    count,
                )),
            );
            let bg_tput = vnet_workloads::stats::ThroughputRecorder::shared();
            let bg_server = w.add_app(s2, vm2.ens3_tx, Box::new(IperfServer::new(bg_tput)));
            w.bind_app(vm2.ens3, IPERF_SERVER_PORT, bg_server);
        }

        TwoHostScenario {
            world: w,
            server1: s1,
            server2: s2,
            latency,
        }
    }

    /// Where the module profiles attach on this topology: the paper's
    /// four packet taps (OVS port and VM ethernet port on both servers,
    /// filtered to the Sockperf flow) plus a drop tap per server for the
    /// `skb-drop` module.
    pub fn module_scope(&self) -> ModuleScope {
        let req = FilterRule::udp_flow(
            (VM1_IP, SOCKPERF_CLIENT_PORT),
            (VM2_IP, SOCKPERF_SERVER_PORT),
        );
        ModuleScope {
            packet_taps: vec![
                TapSpec::rx("s1_ovs_br1", "server1", "ovs-br1", req),
                TapSpec::rx("s1_ens3", "server1", "ens3", req.reversed()),
                TapSpec::rx("s2_ovs_br1", "server2", "ovs-br1", req),
                TapSpec::rx("s2_ens3", "server2", "ens3", req),
            ],
            latency_pairs: vec![("s1_ovs_br1".into(), "s2_ovs_br1".into())],
            throughput_tables: vec!["s2_ovs_br1".into()],
            drop_taps: vec![
                TapSpec::drops("s1_drops", "server1", FilterRule::any()),
                TapSpec::drops("s2_drops", "server2", FilterRule::any()),
            ],
            ..Default::default()
        }
    }

    /// The paper's four trace scripts — the registry's `default` profile
    /// over this scenario's [`TwoHostScenario::module_scope`].
    pub fn control_package(&self) -> ControlPackage {
        ModuleRegistry::builtin()
            .package("default", &self.module_scope(), GlobalConfig::default())
            .expect("builtin default profile resolves")
    }

    /// Runs to completion: total duration plus drain time.
    pub fn run(&mut self, cfg: &TwoHostConfig) {
        let total = SimDuration::from_nanos(cfg.interval.as_nanos() * (cfg.messages + 2))
            + SimDuration::from_millis(50);
        self.world.run_for(total);
    }
}

impl Testbed for TwoHostScenario {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_sim::time::SimTime;
    use vnet_tsdb::TraceDb;
    use vnettracer::VNetTracer;

    #[test]
    fn sockperf_runs_and_reports_latency() {
        let cfg = TwoHostConfig {
            messages: 200,
            ..Default::default()
        };
        let mut s = TwoHostScenario::build(&cfg);
        s.run(&cfg);
        let summary = s.latency.borrow_mut().summary().unwrap();
        assert_eq!(summary.count, 200);
        // One-way ~ 36us (0.5+1.5+~1 NIC+30 wire+0.3+1.5+1).
        assert!(
            (30_000..55_000).contains(&summary.p50_ns),
            "median one-way {}ns",
            summary.p50_ns
        );
        // Background traffic produces a tail above the median.
        assert!(
            summary.p999_ns > summary.p50_ns,
            "tail {} vs median {}",
            summary.p999_ns,
            summary.p50_ns
        );
    }

    #[test]
    fn tracing_adds_under_one_percent_latency() {
        let cfg = TwoHostConfig {
            messages: 500,
            ..Default::default()
        };
        // Untraced run.
        let mut base = TwoHostScenario::build(&cfg);
        base.run(&cfg);
        let base_summary = base.latency.borrow_mut().summary().unwrap();
        // Traced run: 4 eBPF scripts.
        let mut traced = TwoHostScenario::build(&cfg);
        let pkg = traced.control_package();
        let mut tracer = VNetTracer::for_world(&traced.world, TraceDb::new());
        tracer.deploy(&mut traced.world, &pkg).unwrap();
        traced.run(&cfg);
        tracer.collect(&traced.world);
        let traced_summary = traced.latency.borrow_mut().summary().unwrap();
        // Pinned: a hook that stops firing, or fires twice, moves this
        // count before it moves any latency.
        assert_eq!(traced.world.probes_fired(), 6825);
        let overhead = (traced_summary.mean_ns - base_summary.mean_ns) / base_summary.mean_ns;
        assert!(
            overhead.abs() < 0.01,
            "vNetTracer overhead must stay under 1%: base {} traced {} ({:+.3}%)",
            base_summary.mean_ns,
            traced_summary.mean_ns,
            overhead * 100.0
        );
        // And the tracer actually captured the flow at all 4 points.
        for table in ["s1_ovs_br1", "s2_ovs_br1", "s2_ens3", "s1_ens3"] {
            assert!(
                tracer.db().table(table).is_some_and(|t| !t.is_empty()),
                "table {table} should have records"
            );
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = TwoHostConfig {
            messages: 100,
            ..Default::default()
        };
        let mut a = TwoHostScenario::build(&cfg);
        a.run(&cfg);
        let mut b = TwoHostScenario::build(&cfg);
        b.run(&cfg);
        assert_eq!(
            a.latency.borrow_mut().samples(),
            b.latency.borrow_mut().samples()
        );
        assert!(a.world.now() > SimTime::ZERO);
    }
}
