//! The Case Study III testbed (Figs. 12–13): bottlenecks of the container
//! overlay network.
//!
//! Two KVM VMs (4 vCPUs each) on one host. In **VM mode** applications
//! talk VM-to-VM through virtio and the host bridge. In **overlay mode**
//! they run in containers connected by a Docker overlay network: packets
//! traverse veth → docker0 → VXLAN encapsulation before even reaching the
//! VM's own stack, and the mirror chain on the receive side — every layer
//! processed in softirq context. Because all those softirqs stem from one
//! interrupt source (and RPS cannot split a single connection), they
//! serialize on few CPUs: `net_rx_action` runs ~4–5× as often per
//! delivered packet, concentrated on CPU 0, and container throughput
//! collapses to a fraction of the VM-to-VM number (Fig. 12b).

use std::cell::RefCell;
use std::net::Ipv4Addr;
use std::rc::Rc;

use vnet_sim::device::{
    DeviceConfig, Forwarding, Gate, KernelFunctions, ServiceModel, Steering, TraceIdRole, Transform,
};
use vnet_sim::node::NodeClock;
use vnet_sim::packet::{FlowKey, IpProtocol};
use vnet_sim::time::SimDuration;
use vnet_sim::world::World;
use vnet_sim::NodeId;
use vnet_workloads::stats::ThroughputRecorder;
use vnet_workloads::{IperfClient, IperfServer, NetperfClient, NetperfServer};
use vnettracer::config::{Action, ControlPackage, FilterRule, HookSpec, TraceSpec};

use crate::Testbed;

/// VM-to-VM or container-overlay networking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetMode {
    /// Direct VM networking (virtio + host bridge).
    VmDirect,
    /// Docker overlay network (veth + bridge + VXLAN) on top of the VM
    /// network.
    Overlay,
}

/// Transport driving the throughput measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Netperf TCP_STREAM (closed loop, window 32).
    NetperfTcp,
    /// Netperf UDP_STREAM (open loop above capacity).
    NetperfUdp,
    /// iPerf TCP (closed loop, window 64).
    IperfTcp,
}

/// World RNG seed: every run of this scenario is the one run its
/// figures and tests pin.
const SEED: u64 = 19;

/// Configuration for the container scenario.
#[derive(Debug, Clone)]
pub struct ContainerConfig {
    /// Networking mode.
    pub mode: NetMode,
    /// Transport.
    pub transport: Transport,
    /// Number of data packets/segments.
    pub count: u64,
}

/// The built scenario.
#[derive(Debug)]
pub struct ContainerScenario {
    /// The simulated world.
    pub world: World,
    /// Receiver VM.
    pub vm2: NodeId,
    /// Server-side goodput recorder.
    pub throughput: Rc<RefCell<ThroughputRecorder>>,
}

/// VM1 underlay address.
pub const VM1_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// VM2 underlay address.
pub const VM2_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// Container on VM1 (overlay address).
pub const C1_IP: Ipv4Addr = Ipv4Addr::new(172, 17, 0, 2);
/// Container on VM2 (overlay address).
pub const C2_IP: Ipv4Addr = Ipv4Addr::new(172, 17, 0, 3);
const SERVER_PORT: u16 = 5201;
/// The overlay VNI.
pub const VNI: u32 = 256;

/// Picks a client port whose flow RPS-hashes off CPU 0 on a 4-CPU VM, so
/// the post-decapsulation softirqs (steered by the *inner* flow) land on
/// a different core than the IRQ-affine outer processing — the partial
/// spread of Fig. 13(a).
fn pick_client_port(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProtocol) -> u16 {
    (50_000..50_200u16)
        .find(|&p| {
            let f = FlowKey {
                src_ip: src,
                dst_ip: dst,
                src_port: p,
                dst_port: SERVER_PORT,
                protocol: proto,
            };
            !f.rps_hash().is_multiple_of(4)
        })
        .expect("some port hashes off cpu0")
}

impl ContainerScenario {
    /// Builds the topology and workload.
    pub fn build(cfg: &ContainerConfig) -> Self {
        let mut w = World::new(SEED);
        let host = w.add_node("host", 20, NodeClock::perfect());
        let vm1 = w.add_node("vm1", 4, NodeClock::perfect());
        let vm2 = w.add_node("vm2", 4, NodeClock::perfect());

        let softirq_fns = KernelFunctions::new(&["net_rx_action", "get_rps_cpu"], &[]);

        // --- vm1 transmit side ---
        let stack_tx = w.add_device(
            DeviceConfig::new("stack-tx", vm1)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                .trace_id(TraceIdRole::Inject),
        );
        let veth_c1 = w.add_device(
            DeviceConfig::new("veth-c1", vm1)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(400))),
        );
        let docker0_1 = w.add_device(
            DeviceConfig::new("docker0", vm1)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(500))),
        );
        let flannel_tx = w.add_device(
            DeviceConfig::new("flannel.1", vm1)
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .transform(Transform::VxlanEncap {
                    vni: VNI,
                    src: VM1_IP,
                    dst: VM2_IP,
                    src_port: 51_823,
                }),
        );
        let eth0_tx_1 = w.add_device(
            DeviceConfig::new("eth0-tx", vm1)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                .queue_capacity(4096),
        );
        // vm1 receive side (acks / replies).
        let eth0_1 = w.add_device(
            DeviceConfig::new("eth0", vm1)
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .gate(Gate::Softirq(Steering::IrqAffinity(0)))
                .kernel_functions(softirq_fns.clone())
                .queue_capacity(4096)
                .forwarding(match cfg.mode {
                    NetMode::VmDirect => Forwarding::Deliver,
                    NetMode::Overlay => Forwarding::Port(0),
                })
                .trace_id(TraceIdRole::StripUdpTrailer),
        );
        let ov_rx_1 = w.add_device(
            DeviceConfig::new("ov-rx", vm1)
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .gate(Gate::Softirq(Steering::IrqAffinity(0)))
                .kernel_functions(softirq_fns.clone())
                .queue_capacity(4096)
                .transform(Transform::VxlanDecap)
                .forwarding(Forwarding::Deliver)
                .trace_id(TraceIdRole::StripUdpTrailer),
        );
        w.connect(eth0_1, ov_rx_1, SimDuration::ZERO);

        // --- host fabric ---
        let vhost1 = w.add_device(
            DeviceConfig::new("vhost1", host)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                .queue_capacity(4096),
        );
        let br_host = w.add_device(
            DeviceConfig::new("br-host", host)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                .queue_capacity(4096),
        );
        let vhost2 = w.add_device(
            DeviceConfig::new("vhost2", host)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                .queue_capacity(4096),
        );

        // --- vm2 receive side ---
        let eth0_2 = w.add_device(
            DeviceConfig::new("eth0", vm2)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(1_500)))
                .gate(Gate::Softirq(Steering::IrqAffinity(0)))
                .kernel_functions(softirq_fns.clone())
                .queue_capacity(4096)
                .forwarding(match cfg.mode {
                    NetMode::VmDirect => Forwarding::Deliver,
                    NetMode::Overlay => Forwarding::Port(0),
                })
                .trace_id(TraceIdRole::StripUdpTrailer),
        );
        let flannel_rx = w.add_device(
            DeviceConfig::new("flannel.1", vm2)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(4_500)))
                .gate(Gate::Softirq(Steering::IrqAffinity(0)))
                .kernel_functions(softirq_fns.clone())
                .queue_capacity(4096)
                .transform(Transform::VxlanDecap),
        );
        let docker0_2 = w.add_device(
            DeviceConfig::new("docker0", vm2)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(2_000)))
                .gate(Gate::Softirq(Steering::IrqAffinity(0)))
                .kernel_functions(softirq_fns.clone())
                .queue_capacity(4096),
        );
        let veth_c2 = w.add_device(
            DeviceConfig::new("veth-c2", vm2)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(1_500)))
                .gate(Gate::Softirq(Steering::Rps))
                .kernel_functions(softirq_fns.clone())
                .queue_capacity(4096)
                .forwarding(Forwarding::Deliver)
                .trace_id(TraceIdRole::StripUdpTrailer),
        );
        // vm2 transmit side (acks).
        let c2_tx = w.add_device(
            DeviceConfig::new("c2-tx", vm2)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                .trace_id(TraceIdRole::Inject),
        );
        let flannel_tx_2 = w.add_device(
            DeviceConfig::new("flannel-tx", vm2)
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .gate(Gate::Softirq(Steering::IrqAffinity(0)))
                .kernel_functions(softirq_fns)
                .queue_capacity(4096)
                .transform(Transform::VxlanEncap {
                    vni: VNI,
                    src: VM2_IP,
                    dst: VM1_IP,
                    src_port: 51_824,
                }),
        );
        let eth0_tx_2 = w.add_device(
            DeviceConfig::new("eth0-tx", vm2)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                .queue_capacity(4096),
        );

        // --- wiring ---
        match cfg.mode {
            NetMode::VmDirect => {
                w.connect(stack_tx, eth0_tx_1, SimDuration::ZERO);
                w.connect(c2_tx, eth0_tx_2, SimDuration::ZERO);
            }
            NetMode::Overlay => {
                w.connect(stack_tx, veth_c1, SimDuration::ZERO);
                w.connect(veth_c1, docker0_1, SimDuration::ZERO);
                w.connect(docker0_1, flannel_tx, SimDuration::ZERO);
                w.connect(flannel_tx, eth0_tx_1, SimDuration::ZERO);
                w.connect(c2_tx, flannel_tx_2, SimDuration::ZERO);
                w.connect(flannel_tx_2, eth0_tx_2, SimDuration::ZERO);
            }
        }
        w.connect(eth0_tx_1, vhost1, SimDuration::ZERO);
        w.connect(vhost1, br_host, SimDuration::ZERO);
        w.connect_routes(
            br_host,
            SimDuration::ZERO,
            [(VM2_IP, eth0_2), (VM1_IP, eth0_1)],
            None,
        );
        w.connect(eth0_tx_2, vhost2, SimDuration::ZERO);
        w.connect(vhost2, br_host, SimDuration::ZERO);
        w.connect(eth0_2, flannel_rx, SimDuration::ZERO);
        w.connect(flannel_rx, docker0_2, SimDuration::ZERO);
        w.connect(docker0_2, veth_c2, SimDuration::ZERO);

        // --- workload ---
        let (src_ip, dst_ip) = match cfg.mode {
            NetMode::VmDirect => (VM1_IP, VM2_IP),
            NetMode::Overlay => (C1_IP, C2_IP),
        };
        let proto = match cfg.transport {
            Transport::NetperfUdp => IpProtocol::Udp,
            _ => IpProtocol::Tcp,
        };
        let cport = pick_client_port(src_ip, dst_ip, proto);
        let flow = FlowKey {
            src_ip,
            dst_ip,
            src_port: cport,
            dst_port: SERVER_PORT,
            protocol: proto,
        };
        let server_rx = match cfg.mode {
            NetMode::VmDirect => eth0_2,
            NetMode::Overlay => veth_c2,
        };
        let client_rx = match cfg.mode {
            NetMode::VmDirect => eth0_1,
            NetMode::Overlay => ov_rx_1,
        };
        let throughput = ThroughputRecorder::shared();
        match cfg.transport {
            Transport::NetperfTcp | Transport::IperfTcp => {
                let window = if cfg.transport == Transport::NetperfTcp {
                    32
                } else {
                    64
                };
                let server = w.add_app(
                    vm2,
                    c2_tx,
                    Box::new(NetperfServer::new(Rc::clone(&throughput))),
                );
                w.bind_app(server_rx, SERVER_PORT, server);
                let client = w.add_app(
                    vm1,
                    stack_tx,
                    Box::new(NetperfClient::new(
                        flow,
                        vnet_workloads::netperf::DEFAULT_MSS,
                        window,
                        cfg.count,
                    )),
                );
                w.bind_app(client_rx, cport, client);
            }
            Transport::NetperfUdp => {
                let server = w.add_app(
                    vm2,
                    c2_tx,
                    Box::new(IperfServer::new(Rc::clone(&throughput))),
                );
                w.bind_app(server_rx, SERVER_PORT, server);
                // Open loop above the fastest capacity (1.5us/pkt): one
                // packet every 1.2us.
                w.add_app(
                    vm1,
                    stack_tx,
                    Box::new(IperfClient::new(
                        flow,
                        1470,
                        SimDuration::from_nanos(1_200),
                        cfg.count,
                    )),
                );
            }
        }

        ContainerScenario {
            world: w,
            vm2,
            throughput,
        }
    }

    /// Runs to completion.
    pub fn run(&mut self, cfg: &ContainerConfig) {
        // Worst-case overlay TCP: ~10us per segment.
        let budget = SimDuration::from_nanos(cfg.count * 15_000 + 20_000_000);
        self.world.run_for(budget);
    }

    /// Goodput in Mbit/s.
    pub fn goodput_mbps(&self) -> f64 {
        self.throughput.borrow_mut().throughput_mbps()
    }

    /// `net_rx_action` executions on the receiver VM, per CPU.
    pub fn vm2_net_rx_per_cpu(&self) -> Vec<u64> {
        self.world
            .softirq_engine(self.vm2)
            .all_counters()
            .iter()
            .map(|c| c.net_rx_actions)
            .collect()
    }

    /// The softirq concentration statistic on the receiver VM.
    pub fn vm2_concentration(&self) -> f64 {
        self.world.softirq_engine(self.vm2).concentration()
    }

    /// The device chain a data packet traverses, in order (Fig. 13b).
    pub fn data_path(mode: NetMode) -> Vec<&'static str> {
        match mode {
            NetMode::VmDirect => {
                vec!["stack-tx", "eth0-tx", "vhost1", "br-host", "eth0"]
            }
            NetMode::Overlay => vec![
                "stack-tx",
                "veth-c1",
                "docker0",
                "flannel.1",
                "eth0-tx",
                "vhost1",
                "br-host",
                "eth0",
                "flannel.1(rx)",
                "docker0(rx)",
                "veth-c2",
            ],
        }
    }

    /// A control package counting `net_rx_action` and `get_rps_cpu`
    /// executions per CPU on the receiver VM (the Fig. 13a scripts).
    pub fn control_package(&self) -> ControlPackage {
        ControlPackage::new(vec![
            TraceSpec {
                name: "net_rx_action".into(),
                node: "vm2".into(),
                hook: HookSpec::Kprobe("net_rx_action".into()),
                filter: FilterRule::any(),
                action: Action::CountPerCpu,
            },
            TraceSpec {
                name: "get_rps_cpu".into(),
                node: "vm2".into(),
                hook: HookSpec::Kprobe("get_rps_cpu".into()),
                filter: FilterRule::any(),
                action: Action::CountPerCpu,
            },
        ])
    }
}

impl Testbed for ContainerScenario {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }
}

/// Runs one configuration and returns `(goodput_mbps, net_rx_per_packet,
/// concentration)` on the receiver VM.
pub fn run_throughput(mode: NetMode, transport: Transport, count: u64) -> (f64, f64, f64) {
    let cfg = ContainerConfig {
        mode,
        transport,
        count,
    };
    let mut s = ContainerScenario::build(&cfg);
    s.run(&cfg);
    let delivered = s.throughput.borrow_mut().packets().max(1);
    let net_rx: u64 = s.vm2_net_rx_per_cpu().iter().sum();
    (
        s.goodput_mbps(),
        net_rx as f64 / delivered as f64,
        s.vm2_concentration(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_tsdb::TraceDb;
    use vnettracer::VNetTracer;

    #[test]
    fn overlay_tcp_throughput_collapses() {
        let (vm, vm_rx, _) = run_throughput(NetMode::VmDirect, Transport::NetperfTcp, 1_000);
        let (ov, ov_rx, conc) = run_throughput(NetMode::Overlay, Transport::NetperfTcp, 1_000);
        let ratio = ov / vm;
        assert!(
            (0.10..0.30).contains(&ratio),
            "overlay TCP should be ~17% of VM (paper 16.8%): vm={vm:.0} ov={ov:.0} ratio={ratio:.3}"
        );
        // net_rx_action per delivered packet multiplies (paper: 4.54x).
        let rx_ratio = ov_rx / vm_rx;
        assert!(
            (3.0..6.5).contains(&rx_ratio),
            "net_rx_action ratio {rx_ratio:.2} (vm {vm_rx:.2}/pkt, overlay {ov_rx:.2}/pkt)"
        );
        // Softirqs concentrate on few CPUs but not all on one (RPS moves
        // post-decap processing of the inner flow).
        assert!(
            (0.5..1.0).contains(&conc),
            "overlay concentration {conc:.3} should be high but split"
        );
    }

    #[test]
    fn overlay_udp_ratio_slightly_higher_than_tcp() {
        let (vm_t, _, _) = run_throughput(NetMode::VmDirect, Transport::NetperfTcp, 1_000);
        let (ov_t, _, _) = run_throughput(NetMode::Overlay, Transport::NetperfTcp, 1_000);
        let (vm_u, _, _) = run_throughput(NetMode::VmDirect, Transport::NetperfUdp, 1_000);
        let (ov_u, _, _) = run_throughput(NetMode::Overlay, Transport::NetperfUdp, 1_000);
        let tcp_ratio = ov_t / vm_t;
        let udp_ratio = ov_u / vm_u;
        assert!(
            udp_ratio > tcp_ratio,
            "UDP ratio {udp_ratio:.3} should exceed TCP ratio {tcp_ratio:.3} (paper: 22.9% vs 16.8%)"
        );
    }

    #[test]
    fn vm_mode_concentrates_everything_on_cpu0() {
        let (_, _, conc) = run_throughput(NetMode::VmDirect, Transport::NetperfTcp, 500);
        assert!(conc > 0.99, "VM-mode concentration {conc}");
    }

    #[test]
    fn data_path_is_much_longer_for_containers() {
        let vm = ContainerScenario::data_path(NetMode::VmDirect);
        let ov = ContainerScenario::data_path(NetMode::Overlay);
        assert!(ov.len() >= vm.len() * 2, "{} vs {}", ov.len(), vm.len());
    }

    #[test]
    fn tracer_counts_net_rx_action_per_cpu() {
        let cfg = ContainerConfig {
            mode: NetMode::Overlay,
            transport: Transport::NetperfUdp,
            count: 300,
        };
        let mut s = ContainerScenario::build(&cfg);
        let pkg = s.control_package();
        let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
        tracer.deploy(&mut s.world, &pkg).unwrap();
        s.run(&cfg);
        let counts = tracer.counter_per_cpu("net_rx_action").unwrap();
        let total: u64 = counts.iter().sum();
        let engine_total: u64 = s.vm2_net_rx_per_cpu().iter().sum();
        assert_eq!(
            total, engine_total,
            "eBPF per-CPU counters must agree with ground truth: {counts:?}"
        );
        assert!(counts[0] > 0, "CPU0 handles the IRQ-affine softirqs");
    }
}
