//! The Fig. 7(b) testbed: Netperf TCP into a Xen VM, tracing
//! `tcp_recvmsg` with vNetTracer or SystemTap.
//!
//! "We built a VM which had one vCPU and 4GB memory on Xen and executed
//! the Netperf server inside the VM. A Netperf client was sending TCP
//! packets on another physical server. We wrote a SystemTap script
//! attached at tcp_recvmsg … In comparison, we used vNetTracer to attach
//! the same kernel function" (§IV-B). The paper measures ~10% throughput
//! loss under SystemTap on 1 GbE and 26.5% on 10 GbE, while vNetTracer's
//! impact is marginal.
//!
//! Calibration: the VM's receive stack costs 10 µs/segment. On 1 GbE the
//! wire (12 µs/segment) is the bottleneck; on 10 GbE the stack is. Any
//! per-packet probe cost at `tcp_recvmsg` adds to the stack service time,
//! so a ~3.6 µs SystemTap handler pushes the stack past the wire on 1 GbE
//! (≈10% loss) and inflates the already-binding stack on 10 GbE (≈26%).

use std::cell::RefCell;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::rc::Rc;

use vnet_baselines::SystemTapProbe;
use vnet_sim::device::{DeviceConfig, Forwarding, KernelFunctions, ServiceModel};
use vnet_sim::node::NodeClock;
use vnet_sim::packet::FlowKey;
use vnet_sim::probe::Hook;
use vnet_sim::time::SimDuration;
use vnet_sim::world::World;
use vnet_workloads::stats::ThroughputRecorder;
use vnet_workloads::{NetperfClient, NetperfServer};
use vnettracer::config::{Action, ControlPackage, FilterRule, HookSpec, Proto, TraceSpec};
use vnettracer::{Agent, VNetTracer};

/// Which tracer (if any) is attached at `tcp_recvmsg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TracerKind {
    /// No tracing: the baseline.
    None,
    /// vNetTracer (eBPF) script.
    VNetTracer,
    /// The SystemTap cost model.
    SystemTap,
}

/// World RNG seed: every run of this scenario is the one run its
/// figures and tests pin.
const SEED: u64 = 11;

/// Configuration for the Netperf/Xen scenario.
#[derive(Debug, Clone)]
pub struct NetperfXenConfig {
    /// Link rate in Gbit/s (the paper uses 1 and 10).
    pub link_gbps: f64,
    /// Segments to stream.
    pub segments: u64,
    /// Which tracer to attach.
    pub tracer: TracerKind,
}

/// The built scenario.
pub struct NetperfXenScenario {
    /// The simulated world.
    pub world: World,
    /// Server-side goodput recorder.
    pub throughput: Rc<RefCell<ThroughputRecorder>>,
    /// The tracer, when [`TracerKind::VNetTracer`] was requested.
    pub tracer: Option<VNetTracer>,
    /// The SystemTap probe, when [`TracerKind::SystemTap`] was requested.
    pub systemtap: Option<Rc<RefCell<SystemTapProbe>>>,
}

impl std::fmt::Debug for NetperfXenScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetperfXenScenario")
            .field("world", &self.world)
            .finish()
    }
}

/// Client address.
pub const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 1);
/// Server VM address.
pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 1, 0, 2);
const NETPERF_PORT: u16 = 12865;
const CLIENT_PORT: u16 = 40000;

/// Receive-stack service time per segment inside the VM (calibrated; see
/// module docs).
pub const STACK_SERVICE: SimDuration = SimDuration::from_micros(10);

impl NetperfXenScenario {
    /// Builds the topology, workload and requested tracer.
    pub fn build(cfg: &NetperfXenConfig) -> Self {
        let mut w = World::new(SEED);
        let client_host = w.add_node("client", 20, NodeClock::perfect());
        let xen_host = w.add_node("xenhost", 20, NodeClock::perfect());

        // Client: NIC serializes at the link rate.
        let c_nic = w.add_device(
            DeviceConfig::new("eth0", client_host)
                .service(ServiceModel::nic_gbps(cfg.link_gbps))
                .queue_capacity(4096),
        );
        let c_rx = w.add_device(
            DeviceConfig::new("stack-rx", client_host)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(200)))
                .forwarding(Forwarding::Deliver),
        );

        // Xen host: NIC -> vif -> guest stack (tcp_recvmsg lives here).
        let x_nic = w.add_device(
            DeviceConfig::new("eth0", xen_host)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                .queue_capacity(4096),
        );
        let vif = w.add_device(
            DeviceConfig::new("vif1.0", xen_host)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(500)))
                .queue_capacity(4096),
        );
        let stack = w.add_device(
            DeviceConfig::new("tcp-stack", xen_host)
                .service(ServiceModel::Fixed(STACK_SERVICE))
                .queue_capacity(4096)
                .kernel_functions(KernelFunctions::new(&["tcp_recvmsg"], &[]))
                .forwarding(Forwarding::Deliver),
        );
        // Ack return path (fast, never the bottleneck).
        let guest_tx = w.add_device(
            DeviceConfig::new("guest-tx", xen_host)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                .queue_capacity(4096),
        );

        let wire = SimDuration::from_micros(10);
        w.connect(c_nic, x_nic, wire);
        w.connect(x_nic, vif, SimDuration::ZERO);
        w.connect(vif, stack, SimDuration::ZERO);
        w.connect(guest_tx, c_rx, wire);

        // Workload.
        let flow = FlowKey::tcp(
            SocketAddrV4::new(CLIENT_IP, CLIENT_PORT),
            SocketAddrV4::new(SERVER_IP, NETPERF_PORT),
        );
        let throughput = ThroughputRecorder::shared();
        let server = w.add_app(
            xen_host,
            guest_tx,
            Box::new(NetperfServer::new(Rc::clone(&throughput))),
        );
        w.bind_app(stack, NETPERF_PORT, server);
        let client = w.add_app(
            client_host,
            c_nic,
            Box::new(NetperfClient::new(
                flow,
                vnet_workloads::netperf::DEFAULT_MSS,
                vnet_workloads::netperf::DEFAULT_WINDOW,
                cfg.segments,
            )),
        );
        w.bind_app(c_rx, CLIENT_PORT, client);

        // Tracer.
        let mut tracer = None;
        let mut systemtap = None;
        match cfg.tracer {
            TracerKind::None => {}
            TracerKind::VNetTracer => {
                let mut t = VNetTracer::new();
                t.add_agent(Agent::new(xen_host, "xenhost", 20));
                let pkg = ControlPackage::new(vec![TraceSpec {
                    name: "tcp_recvmsg".into(),
                    node: "xenhost".into(),
                    hook: HookSpec::Kprobe("tcp_recvmsg".into()),
                    filter: FilterRule {
                        protocol: Some(Proto::Tcp),
                        dst_port: Some(NETPERF_PORT),
                        ..FilterRule::any()
                    },
                    action: Action::RecordPacketInfo,
                }]);
                t.deploy(&mut w, &pkg).expect("tcp_recvmsg script deploys");
                tracer = Some(t);
            }
            TracerKind::SystemTap => {
                let probe = Rc::new(RefCell::new(SystemTapProbe::new()));
                w.attach_probe(xen_host, Hook::kprobe("tcp_recvmsg"), probe.clone());
                systemtap = Some(probe);
            }
        }

        NetperfXenScenario {
            world: w,
            throughput,
            tracer,
            systemtap,
        }
    }

    /// Runs until the stream drains.
    pub fn run(&mut self, cfg: &NetperfXenConfig) {
        // Worst-case per segment is stack + tracer ~ 15us.
        let budget = SimDuration::from_nanos(cfg.segments * 20_000 + 10_000_000);
        self.world.run_for(budget);
    }

    /// Measured goodput in Mbit/s.
    pub fn goodput_mbps(&self) -> f64 {
        self.throughput.borrow_mut().throughput_mbps()
    }
}

/// Runs the scenario for a tracer kind and returns goodput in Mbit/s.
pub fn run_netperf(link_gbps: f64, segments: u64, tracer: TracerKind) -> f64 {
    let cfg = NetperfXenConfig {
        link_gbps,
        segments,
        tracer,
    };
    let mut s = NetperfXenScenario::build(&cfg);
    s.run(&cfg);
    if let Some(t) = s.tracer.as_mut() {
        t.collect(&s.world);
    }
    s.goodput_mbps()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_reaches_line_rate_on_1g() {
        let mbps = run_netperf(1.0, 2_000, TracerKind::None);
        assert!((900.0..980.0).contains(&mbps), "got {mbps}");
    }

    #[test]
    fn baseline_is_stack_bound_on_10g() {
        let mbps = run_netperf(10.0, 2_000, TracerKind::None);
        // 1448B / 10us ≈ 1158 Mbps: a 1-vCPU Xen VM cannot fill 10G.
        assert!((1050.0..1250.0).contains(&mbps), "got {mbps}");
    }

    #[test]
    fn vnettracer_loss_is_marginal() {
        let base = run_netperf(1.0, 2_000, TracerKind::None);
        let traced = run_netperf(1.0, 2_000, TracerKind::VNetTracer);
        let loss = (base - traced) / base;
        assert!(
            loss < 0.02,
            "vNetTracer 1G loss {:.1}% must be <2%",
            loss * 100.0
        );
        let base10 = run_netperf(10.0, 2_000, TracerKind::None);
        let traced10 = run_netperf(10.0, 2_000, TracerKind::VNetTracer);
        let loss10 = (base10 - traced10) / base10;
        assert!(
            loss10 < 0.03,
            "vNetTracer 10G loss {:.1}% must be small",
            loss10 * 100.0
        );
    }

    #[test]
    fn systemtap_loss_reproduces_fig7b() {
        let base = run_netperf(1.0, 2_000, TracerKind::None);
        let stap = run_netperf(1.0, 2_000, TracerKind::SystemTap);
        let loss_1g = (base - stap) / base;
        assert!(
            (0.05..0.18).contains(&loss_1g),
            "SystemTap 1G loss {:.1}% should be around 10%",
            loss_1g * 100.0
        );
        let base10 = run_netperf(10.0, 2_000, TracerKind::None);
        let stap10 = run_netperf(10.0, 2_000, TracerKind::SystemTap);
        let loss_10g = (base10 - stap10) / base10;
        assert!(
            (0.20..0.33).contains(&loss_10g),
            "SystemTap 10G loss {:.1}% should be around 26.5%",
            loss_10g * 100.0
        );
        assert!(loss_10g > loss_1g, "loss grows with link speed");
    }
}
