//! The Case Study I testbed (Figs. 8–9): network delay inside Open
//! vSwitch.
//!
//! Three (plus one) VMs on a single host, all connected through OVS:
//! Sockperf and iPerf clients on VM0, another iPerf client on VM1 (and,
//! for Case III+, VM3), with the Sockperf server and iPerf servers on
//! VM2 (Fig. 8a). The experiment cases:
//!
//! * **Case I** — Sockperf alone (uncongested baseline);
//! * **Case II** — plus an iPerf client on VM0: the *ingress queue* of
//!   `vnet0` saturates, adding queueing delay;
//! * **Case II+** — more iPerf clients on VM0: the queue is already
//!   saturated, so the delay does *not* grow;
//! * **Case III** — plus iPerf from VM1 (`vnet1`): the OVS fabric now
//!   switches flows from more ingress ports, adding processing delay;
//! * **Case III+** — iPerf from an additional VM (`vnet3`): more ports,
//!   more processing delay.
//!
//! Fig. 9(b)'s mitigation sets OVS ingress policing
//! (`rate 1e5 kbps, burst 1e4 kb`) on `vnet0`/`vnet1`, which drops the
//! iPerf load at admission and restores Sockperf latency.

use std::cell::RefCell;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::rc::Rc;

use vnet_sim::device::{
    DeviceConfig, Forwarding, HtbConfig, PolicerConfig, ServiceModel, TraceIdRole,
};
use vnet_sim::node::NodeClock;
use vnet_sim::packet::FlowKey;
use vnet_sim::time::SimDuration;
use vnet_sim::world::World;
use vnet_sim::NodeId;
use vnet_workloads::stats::{LatencyRecorder, ThroughputRecorder};
use vnet_workloads::{
    IperfClient, IperfServer, NetperfServer, SockperfClient, SockperfServer, TcpStreamClient,
    TcpStreamStats,
};
use vnettracer::config::{ControlPackage, FilterRule, GlobalConfig};
use vnettracer::modules::{ModuleRegistry, ModuleScope, OvsTap, TapSpec};

use crate::Testbed;

/// The experiment case (Fig. 8/9 terminology).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OvsCase {
    /// Sockperf alone.
    I,
    /// One iPerf client on VM0.
    II,
    /// Three iPerf clients on VM0.
    IIPlus,
    /// Case II plus an iPerf client on VM1.
    III,
    /// Case III plus an iPerf client on VM3.
    IIIPlus,
}

impl OvsCase {
    /// All cases in figure order.
    pub const ALL: [OvsCase; 5] = [
        OvsCase::I,
        OvsCase::II,
        OvsCase::IIPlus,
        OvsCase::III,
        OvsCase::IIIPlus,
    ];

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            OvsCase::I => "Case I",
            OvsCase::II => "Case II",
            OvsCase::IIPlus => "Case II+",
            OvsCase::III => "Case III",
            OvsCase::IIIPlus => "Case III+",
        }
    }
}

/// What transport the congesting iPerf clients run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CongestionTransport {
    /// Open-loop UDP at a fixed rate: sustained overload, the queue
    /// stays pinned at capacity (the default used for the figures).
    #[default]
    Udp,
    /// AIMD TCP (iPerf's default transport): the offered load breathes
    /// with congestion control, so the shared queue oscillates and the
    /// latency probes see a tail well above the average — the avg ≪
    /// p99.9 structure of the paper's Fig. 8(b).
    Tcp,
}

/// The mitigation applied at the OVS ingress ports (Fig. 9b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mitigation {
    /// No mitigation.
    #[default]
    None,
    /// Ingress policing (`ingress_policing_rate` 1e5 kbps,
    /// `ingress_policing_burst` 1e4 kb): excess packets are dropped.
    Policing,
    /// HTB QoS at the virtual port: the bulk class is shaped to the same
    /// rate but queued rather than dropped ("the effect was similar as
    /// the results using rate limit").
    Htb,
}

/// World RNG seed: every run of this scenario is the one run its
/// figures and tests pin.
const SEED: u64 = 13;

/// Configuration for the OVS scenario.
#[derive(Debug, Clone)]
pub struct OvsConfig {
    /// The experiment case.
    pub case: OvsCase,
    /// Mitigation on vnet0/vnet1 (Fig. 9b).
    pub mitigation: Mitigation,
    /// Transport of the congesting clients.
    pub transport: CongestionTransport,
    /// Sockperf messages.
    pub messages: u64,
    /// Sockperf send interval.
    pub interval: SimDuration,
}

impl Default for OvsConfig {
    fn default() -> Self {
        OvsConfig {
            case: OvsCase::I,
            mitigation: Mitigation::None,
            transport: CongestionTransport::Udp,
            messages: 1_000,
            interval: SimDuration::from_micros(500),
        }
    }
}

/// The built scenario.
#[derive(Debug)]
pub struct OvsScenario {
    /// The simulated world.
    pub world: World,
    /// The single host.
    pub host: NodeId,
    /// Sockperf latency samples.
    pub latency: Rc<RefCell<LatencyRecorder>>,
    /// Each TCP iPerf client's counters, in the order the case adds
    /// them (empty under UDP congestion).
    pub iperf_tcp: Vec<Rc<RefCell<TcpStreamStats>>>,
}

/// VM0 address (Sockperf + iPerf clients).
pub const VM0_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// VM1 address (iPerf client, Case III).
pub const VM1_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// VM2 address (servers).
pub const VM2_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
/// VM3 address (iPerf client, Case III+).
pub const VM3_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 4);
const SOCKPERF_CPORT: u16 = 40000;
const SOCKPERF_SPORT: u16 = 11111;
const IPERF_SPORT: u16 = 5201;

/// Per-packet admission service at an OVS ingress port (vnet*).
const VNET_SERVICE: SimDuration = SimDuration::from_micros(4);
/// Ingress queue capacity in packets.
const VNET_QUEUE: usize = 256;

/// Packets each iPerf client sends: one per 2 µs over the Sockperf run
/// plus 10 ms.
fn iperf_packets(cfg: &OvsConfig) -> u64 {
    (cfg.interval.as_nanos() * cfg.messages + 10_000_000) / 2_000
}

impl OvsScenario {
    /// Builds the topology and workloads for `cfg`.
    pub fn build(cfg: &OvsConfig) -> Self {
        let mut w = World::new(SEED);
        let host = w.add_node("server1", 20, NodeClock::perfect());

        let vnet = |w: &mut World, name: &str, mitigation: Mitigation| {
            let mut cfg_dev = DeviceConfig::new(name, host)
                .service(ServiceModel::Fixed(VNET_SERVICE))
                .queue_capacity(VNET_QUEUE);
            match mitigation {
                Mitigation::None => {}
                Mitigation::Policing => {
                    cfg_dev = cfg_dev.policer(PolicerConfig {
                        rate_kbps: 100_000,
                        burst_kb: 10_000,
                    });
                }
                Mitigation::Htb => {
                    // Same rate as the policer; the size filter puts the
                    // 1470-byte iPerf bulk frames in the shaped class and
                    // leaves the 56-byte Sockperf probes in the latency
                    // class.
                    cfg_dev = cfg_dev.htb(HtbConfig {
                        rate_kbps: 100_000,
                        burst_kb: 10_000,
                        shape_min_len: 500,
                    });
                }
            }
            w.add_device(cfg_dev)
        };

        // Guest socket layers.
        let guest_tx = |w: &mut World, name: &str| {
            w.add_device(
                DeviceConfig::new(name, host)
                    .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                    .trace_id(TraceIdRole::Inject),
            )
        };
        let em0 = guest_tx(&mut w, "em0");
        let em1 = guest_tx(&mut w, "em1");
        let em3 = guest_tx(&mut w, "em3");
        let em2_tx = guest_tx(&mut w, "em2-tx");
        // OVS ingress ports.
        let vnet0 = vnet(&mut w, "vnet0", cfg.mitigation);
        let vnet1 = vnet(&mut w, "vnet1", cfg.mitigation);
        let vnet2 = vnet(&mut w, "vnet2", Mitigation::None);
        let vnet3 = vnet(&mut w, "vnet3", Mitigation::None);
        // The switching fabric: processing cost grows with the number of
        // ingress ports active in the last millisecond.
        let ovs_br = w.add_device(
            DeviceConfig::new("ovs-br", host)
                .service(ServiceModel::OvsFabric {
                    base: SimDuration::from_nanos(500),
                    per_extra_port: SimDuration::from_nanos(800),
                    port_active_window: SimDuration::from_millis(1),
                })
                .queue_capacity(512),
        );
        // Receive stacks.
        let em2 = w.add_device(
            DeviceConfig::new("em2", host)
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .queue_capacity(1024)
                .forwarding(Forwarding::Deliver)
                .trace_id(TraceIdRole::StripUdpTrailer),
        );
        // Each client VM's own receive stack, so the acks of VM1's and
        // VM3's TCP senders reach them without loading VM0's.
        let guest_rx = |w: &mut World, name: &str| {
            w.add_device(
                DeviceConfig::new(name, host)
                    .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                    .forwarding(Forwarding::Deliver)
                    .trace_id(TraceIdRole::StripUdpTrailer),
            )
        };
        let em0_rx = guest_rx(&mut w, "em0-rx");
        let em1_rx = guest_rx(&mut w, "em1-rx");
        let em3_rx = guest_rx(&mut w, "em3-rx");

        // Wiring.
        w.connect(em0, vnet0, SimDuration::ZERO);
        w.connect(em1, vnet1, SimDuration::ZERO);
        w.connect(em3, vnet3, SimDuration::ZERO);
        w.connect(em2_tx, vnet2, SimDuration::ZERO);
        for v in [vnet0, vnet1, vnet2, vnet3] {
            w.connect(v, ovs_br, SimDuration::ZERO);
        }
        w.connect_routes(
            ovs_br,
            SimDuration::ZERO,
            [
                (VM2_IP, em2),
                (VM0_IP, em0_rx),
                (VM1_IP, em1_rx),
                (VM3_IP, em3_rx),
            ],
            None,
        );

        // Sockperf.
        let flow = FlowKey::udp(
            SocketAddrV4::new(VM0_IP, SOCKPERF_CPORT),
            SocketAddrV4::new(VM2_IP, SOCKPERF_SPORT),
        );
        let latency = LatencyRecorder::shared();
        let sock_client = w.add_app(
            host,
            em0,
            Box::new(SockperfClient::new(
                flow,
                vnet_workloads::sockperf::DEFAULT_MSG_SIZE,
                cfg.interval,
                cfg.messages,
                Rc::clone(&latency),
            )),
        );
        let sock_server = w.add_app(host, em2_tx, Box::new(SockperfServer::new()));
        w.bind_app(em2, SOCKPERF_SPORT, sock_server);
        w.bind_app(em0_rx, SOCKPERF_CPORT, sock_client);

        // iPerf congestion per case.
        let iperf_count = iperf_packets(cfg);
        let mut iperf_port = 50_000u16;
        let transport = cfg.transport;
        let mut iperf_tcp = Vec::new();
        let mut add_iperf = |w: &mut World, src_dev, rx_dev, src_ip: Ipv4Addr| {
            iperf_port += 1;
            match transport {
                CongestionTransport::Udp => {
                    let f = FlowKey::udp(
                        SocketAddrV4::new(src_ip, iperf_port),
                        SocketAddrV4::new(VM2_IP, IPERF_SPORT),
                    );
                    w.add_app(
                        host,
                        src_dev,
                        Box::new(IperfClient::new(
                            f,
                            vnet_workloads::iperf::DEFAULT_PKT_SIZE,
                            SimDuration::from_micros(2),
                            iperf_count,
                        )),
                    );
                }
                CongestionTransport::Tcp => {
                    let f = FlowKey::tcp(
                        SocketAddrV4::new(src_ip, iperf_port),
                        SocketAddrV4::new(VM2_IP, IPERF_SPORT),
                    );
                    let stats = Rc::new(RefCell::new(TcpStreamStats::default()));
                    let app = w.add_app(
                        host,
                        src_dev,
                        Box::new(TcpStreamClient::new(
                            f,
                            vnet_workloads::netperf::DEFAULT_MSS,
                            iperf_count,
                            SimDuration::from_millis(2),
                            Rc::clone(&stats),
                        )),
                    );
                    // Acks are delivered at the sending VM's receive stack.
                    w.bind_app(rx_dev, iperf_port, app);
                    iperf_tcp.push(stats);
                }
            }
        };
        match cfg.case {
            OvsCase::I => {}
            OvsCase::II => add_iperf(&mut w, em0, em0_rx, VM0_IP),
            OvsCase::IIPlus => {
                for _ in 0..3 {
                    add_iperf(&mut w, em0, em0_rx, VM0_IP);
                }
            }
            OvsCase::III => {
                add_iperf(&mut w, em0, em0_rx, VM0_IP);
                add_iperf(&mut w, em1, em1_rx, VM1_IP);
            }
            OvsCase::IIIPlus => {
                add_iperf(&mut w, em0, em0_rx, VM0_IP);
                add_iperf(&mut w, em1, em1_rx, VM1_IP);
                add_iperf(&mut w, em3, em3_rx, VM3_IP);
            }
        }
        let iperf_server: vnet_sim::AppId = match cfg.transport {
            CongestionTransport::Udp => w.add_app(
                host,
                em2_tx,
                Box::new(IperfServer::new(ThroughputRecorder::shared())),
            ),
            CongestionTransport::Tcp => w.add_app(
                host,
                em2_tx,
                Box::new(NetperfServer::new(ThroughputRecorder::shared())),
            ),
        };
        w.bind_app(em2, IPERF_SPORT, iperf_server);

        OvsScenario {
            world: w,
            host,
            latency,
            iperf_tcp,
        }
    }

    /// Where the module profiles attach on this testbed: packet taps at
    /// the application socket, the OVS ingress port, and the receiving
    /// stack's entry and delivery points (all filtered to the Sockperf
    /// request flow), plus a host drop tap for `skb-drop` and an OVS tap
    /// for `ovs-flow`.
    pub fn module_scope(&self) -> ModuleScope {
        let req = FilterRule::udp_flow((VM0_IP, SOCKPERF_CPORT), (VM2_IP, SOCKPERF_SPORT));
        ModuleScope {
            packet_taps: vec![
                TapSpec::rx("sock_em0", "server1", "em0", req),
                TapSpec::rx("sock_vnet0", "server1", "vnet0", req),
                TapSpec::rx("sock_em2_in", "server1", "em2", req),
                TapSpec::tx("sock_em2_out", "server1", "em2", req),
            ],
            latency_pairs: vec![("sock_em0".into(), "sock_em2_out".into())],
            throughput_tables: vec!["sock_em2_out".into()],
            drop_taps: vec![TapSpec::drops("host_drops", "server1", FilterRule::any())],
            ovs_taps: vec![OvsTap {
                prefix: "ovs_br".into(),
                node: "server1".into(),
                filter: req,
            }],
            ..Default::default()
        }
    }

    /// The trace scripts used for the Fig. 9(a) decomposition — the
    /// registry's `default` profile over [`OvsScenario::module_scope`].
    pub fn control_package(&self) -> ControlPackage {
        ModuleRegistry::builtin()
            .package("default", &self.module_scope(), GlobalConfig::default())
            .expect("builtin default profile resolves")
    }

    /// The tracepoint chain for [`vnettracer::metrics::decompose`],
    /// giving the sender-stack / OVS / receiver-stack segments.
    pub fn decomposition_chain() -> [&'static str; 4] {
        ["sock_em0", "sock_vnet0", "sock_em2_in", "sock_em2_out"]
    }

    /// Runs to completion.
    pub fn run(&mut self, cfg: &OvsConfig) {
        let total = SimDuration::from_nanos(cfg.interval.as_nanos() * (cfg.messages + 2))
            + SimDuration::from_millis(100);
        self.world.run_for(total);
    }
}

impl Testbed for OvsScenario {
    fn world(&mut self) -> &mut World {
        &mut self.world
    }
}

/// Runs `cfg` end-to-end and returns the Sockperf latency summary.
pub fn sockperf_latency(cfg: &OvsConfig) -> vnet_tsdb::LatencyStats {
    let mut s = OvsScenario::build(cfg);
    s.run(cfg);
    let summary = s
        .latency
        .borrow_mut()
        .summary()
        .expect("sockperf produced samples");
    summary
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Case `case` under `mitigation`, with UDP congestion.
    fn latency(case: OvsCase, mitigation: Mitigation, messages: u64) -> vnet_tsdb::LatencyStats {
        sockperf_latency(&OvsConfig {
            case,
            mitigation,
            messages,
            ..Default::default()
        })
    }

    #[test]
    fn case_ordering_matches_fig8b() {
        let i = latency(OvsCase::I, Mitigation::None, 300);
        let ii = latency(OvsCase::II, Mitigation::None, 300);
        let iii = latency(OvsCase::III, Mitigation::None, 300);
        // Uncongested baseline is microseconds; congestion is 100s of us.
        assert!(i.p999_ns < 20_000, "Case I tail {}ns", i.p999_ns);
        assert!(
            ii.p999_ns > 10 * i.p999_ns,
            "Case II tail {} must dwarf Case I {}",
            ii.p999_ns,
            i.p999_ns
        );
        assert!(
            iii.p999_ns > ii.p999_ns,
            "Case III {} adds processing delay over II {}",
            iii.p999_ns,
            ii.p999_ns
        );
    }

    #[test]
    fn saturated_ingress_makes_ii_plus_equal_ii() {
        let ii = latency(OvsCase::II, Mitigation::None, 300);
        let ii_plus = latency(OvsCase::IIPlus, Mitigation::None, 300);
        let ratio = ii_plus.mean_ns / ii.mean_ns;
        assert!(
            (0.8..1.25).contains(&ratio),
            "II+ ({}) should track II ({}): the queue is already saturated",
            ii_plus.mean_ns,
            ii.mean_ns
        );
    }

    #[test]
    fn more_ingress_ports_grow_the_processing_delay() {
        let iii = latency(OvsCase::III, Mitigation::None, 300);
        let iii_plus = latency(OvsCase::IIIPlus, Mitigation::None, 300);
        assert!(
            iii_plus.mean_ns > iii.mean_ns,
            "III+ ({}) must exceed III ({})",
            iii_plus.mean_ns,
            iii.mean_ns
        );
    }

    #[test]
    fn rate_limiting_restores_latency() {
        let congested = latency(OvsCase::II, Mitigation::None, 300);
        let policed = latency(OvsCase::II, Mitigation::Policing, 300);
        assert!(
            policed.mean_ns < congested.mean_ns / 5.0_f64,
            "policing ({}) must cut Case II latency ({}) drastically",
            policed.mean_ns,
            congested.mean_ns
        );
        let policed3 = latency(OvsCase::III, Mitigation::Policing, 300);
        assert!(policed3.mean_ns < latency(OvsCase::III, Mitigation::None, 300).mean_ns / 5.0);
    }

    #[test]
    fn every_packet_has_a_route_and_every_tcp_stream_completes() {
        // `ovs-br` routes every VM, so no case under either transport
        // drops a packet for want of a route, and each TCP client's acks
        // reach it at its own VM's receive stack: run until the streams
        // drain, every client has its whole stream acknowledged.
        for case in OvsCase::ALL {
            for transport in [CongestionTransport::Udp, CongestionTransport::Tcp] {
                let cfg = OvsConfig {
                    case,
                    transport,
                    messages: 20,
                    ..Default::default()
                };
                let mut s = OvsScenario::build(&cfg);
                s.world.run_for(SimDuration::from_secs(2));
                let ovs_br = s.world.find_device(s.host, "ovs-br").unwrap();
                let counters = s.world.device_counters(ovs_br);
                assert_eq!(counters.dropped_no_route, 0, "{case:?} {transport:?}");
                let clients = match (transport, case) {
                    (CongestionTransport::Udp, _) | (_, OvsCase::I) => 0,
                    (_, OvsCase::II) => 1,
                    (_, OvsCase::IIPlus | OvsCase::IIIPlus) => 3,
                    (_, OvsCase::III) => 2,
                };
                assert_eq!(s.iperf_tcp.len(), clients, "{case:?} {transport:?}");
                for stats in &s.iperf_tcp {
                    assert_eq!(stats.borrow().acked, iperf_packets(&cfg), "{case:?}");
                }
            }
        }
    }

    #[test]
    fn tcp_congestion_produces_a_latency_tail_above_the_average() {
        // With AIMD congestion (iPerf's default TCP), the ingress queue
        // oscillates: probes see Fig. 8(b)'s avg << p99.9 structure
        // instead of the flat delay of sustained UDP overload.
        let s = sockperf_latency(&OvsConfig {
            case: OvsCase::II,
            transport: CongestionTransport::Tcp,
            messages: 400,
            ..Default::default()
        });
        assert!(
            s.p999_ns as f64 > 1.5 * s.mean_ns,
            "tail {} should be well above avg {}",
            s.p999_ns,
            s.mean_ns
        );
        // And still clearly congested relative to Case I.
        let base = latency(OvsCase::I, Mitigation::None, 200);
        assert!(s.p999_ns as f64 > 5.0 * base.p999_ns as f64);
    }

    #[test]
    fn htb_qos_has_a_similar_effect_to_rate_limiting() {
        // "In addition to the rate limit, we also tried setting QoS
        // policy with HTB at the virtual port of OVS … The effect was
        // similar as the results using rate limit."
        let congested = latency(OvsCase::II, Mitigation::None, 300);
        let htb = latency(OvsCase::II, Mitigation::Htb, 300);
        assert!(
            htb.mean_ns < congested.mean_ns / 5.0,
            "HTB ({}) must cut Case II latency ({}) like policing does",
            htb.mean_ns,
            congested.mean_ns
        );
        // Unlike policing, shaping never drops the latency-class probes:
        // every Sockperf message gets an answer.
        assert_eq!(htb.count, 300, "no sockperf losses under HTB");
    }
}
