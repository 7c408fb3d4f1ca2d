//! The `datacenter_rack` scale scenario: a rack of virtualization hosts
//! behind one ToR switch, each host running VMs whose containerized apps
//! exchange traffic through OVS bridges and VXLAN tunnels.
//!
//! This is the "hundreds of VMs, millions of flows" regime the
//! vNetTracer evaluation targets: every VM and every host is its own
//! node, joined by the VM↔host virtual wires (2 µs) and the host↔ToR
//! cables (5 µs).
//!
//! Traffic is a ring: the apps on the VMs of host *h* fan their flows
//! out to the matching VM on host *h+1*. Each client app cycles through
//! `flows_per_app` distinct 5-tuples (one source port per flow), so the
//! number of concurrent flows is `hosts · vms_per_host · apps_per_vm ·
//! flows_per_app` — ≥1M at the default scale. Packets leave a VM
//! through its virtual ethernet port, cross the host's OVS bridge,
//! are VXLAN-encapsulated toward the next host's VTEP, switched by
//! the ToR on the *outer* header, decapsulated, bridged again and
//! delivered — the container-overlay data path of the paper's Fig. 12.

use std::cell::RefCell;
use std::net::{Ipv4Addr, SocketAddrV4};
use std::rc::Rc;

use vnet_sim::app::{App, AppCtx};
use vnet_sim::device::{DeviceConfig, Forwarding, ServiceModel, TraceIdRole, Transform};
use vnet_sim::node::NodeClock;
use vnet_sim::packet::{FlowKey, Packet, PacketBuilder};
use vnet_sim::time::SimDuration;
use vnet_sim::world::World;
use vnet_sim::NodeId;

use crate::stats::ThroughputRecorder;
use crate::IperfServer;

/// First destination port; client app `j` on a VM targets `BASE_DST_PORT + j`.
pub const BASE_DST_PORT: u16 = 20_000;
/// First source port; flow `k` of client `j` uses
/// `BASE_SRC_PORT + j * flows_per_app + k`.
pub const BASE_SRC_PORT: u16 = 1_024;

const UNVALIDATED: &str = "RackConfig::validate() passed: packet count and run length fit u64";

/// Scale knobs for the rack.
#[derive(Debug, Clone)]
pub struct RackConfig {
    /// RNG seed.
    pub seed: u64,
    /// Virtualization hosts in the rack.
    pub hosts: usize,
    /// VMs per host (each VM is its own simulation node).
    pub vms_per_host: usize,
    /// Client apps ("containers") per VM; each VM also runs one server.
    pub apps_per_vm: usize,
    /// Distinct flows each client app cycles through.
    pub flows_per_app: usize,
    /// Packets each client app sends in total (round-robin over its
    /// flows — equal to `flows_per_app` touches every flow once).
    pub packets_per_app: u64,
    /// Interval between a client's sends.
    pub send_interval: SimDuration,
    /// UDP payload bytes per packet.
    pub payload: usize,
}

impl Default for RackConfig {
    /// The full-scale rack: 40 hosts × 6 VMs = 240 VM nodes, 2 160
    /// apps, and 1 920 · 576 = 1 105 920 concurrent flows.
    fn default() -> Self {
        RackConfig {
            seed: 42,
            hosts: 40,
            vms_per_host: 6,
            apps_per_vm: 8,
            flows_per_app: 576,
            packets_per_app: 576,
            send_interval: SimDuration::from_micros(50),
            payload: 256,
        }
    }
}

impl RackConfig {
    /// A miniature rack for tests and smoke benches: 4 hosts × 2 VMs,
    /// 128 flows, 256 packets total.
    pub fn small() -> Self {
        RackConfig {
            seed: 42,
            hosts: 4,
            vms_per_host: 2,
            apps_per_vm: 2,
            flows_per_app: 8,
            packets_per_app: 16,
            send_interval: SimDuration::from_micros(20),
            payload: 128,
        }
    }

    /// Total apps: clients plus one server per VM.
    pub fn apps(&self) -> usize {
        self.hosts * self.vms_per_host * (self.apps_per_vm + 1)
    }

    /// Number of distinct concurrent flows the clients cycle through.
    pub fn concurrent_flows(&self) -> u64 {
        (self.hosts * self.vms_per_host * self.apps_per_vm * self.flows_per_app) as u64
    }

    /// Total packets offered across all clients.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u64`; [`RackConfig::validate`]
    /// rejects such a configuration up front.
    pub fn total_packets(&self) -> u64 {
        self.checked_total_packets().expect(UNVALIDATED)
    }

    fn checked_total_packets(&self) -> Option<u64> {
        ((self.hosts * self.vms_per_host * self.apps_per_vm) as u64)
            .checked_mul(self.packets_per_app)
    }

    /// The simulated time [`RackScenario::run`] covers: the send phase
    /// (`packets_per_app + 2` intervals) plus a drain margin.
    fn checked_run_span(&self) -> Option<SimDuration> {
        let sends = self.packets_per_app.checked_add(2)?;
        let send_phase = self.send_interval.as_nanos().checked_mul(sends)?;
        let span = send_phase.checked_add(SimDuration::from_millis(10).as_nanos())?;
        Some(SimDuration::from_nanos(span))
    }

    /// Checks that the run can be counted: neither the packets offered
    /// nor the run's length in nanoseconds may overflow `u64`. Front ends
    /// call this on a user-supplied `packets_per_app` before building.
    pub fn validate(&self) -> Result<(), String> {
        match (self.checked_total_packets(), self.checked_run_span()) {
            (Some(_), Some(_)) => Ok(()),
            _ => Err(format!(
                "{} packets per app overflow the rack's packet count or run length",
                self.packets_per_app
            )),
        }
    }

    /// The overlay (inner) address of VM `v` on host `h`.
    pub fn vm_ip(h: usize, v: usize) -> Ipv4Addr {
        Ipv4Addr::new(10, h as u8, v as u8, 2)
    }

    /// The underlay VTEP address of host `h`.
    pub fn vtep_ip(h: usize) -> Ipv4Addr {
        Ipv4Addr::new(192, 168, (h >> 8) as u8, (h & 0xff) as u8)
    }
}

/// A client app cycling one UDP packet per tick through a fixed set of
/// flows — the "thousands of containers, millions of flows" generator.
#[derive(Debug)]
pub struct FlowFanClient {
    flows: Vec<FlowKey>,
    payload: usize,
    interval: SimDuration,
    remaining: u64,
    next: usize,
}

impl FlowFanClient {
    /// Creates a client sending `count` packets round-robin over `flows`.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is empty.
    pub fn new(flows: Vec<FlowKey>, payload: usize, interval: SimDuration, count: u64) -> Self {
        assert!(!flows.is_empty(), "a flow fan needs at least one flow");
        FlowFanClient {
            flows,
            payload,
            interval,
            remaining: count,
            next: 0,
        }
    }

    fn send_next(&mut self, ctx: &mut AppCtx<'_>) {
        if self.remaining == 0 {
            return;
        }
        let flow = self.flows[self.next];
        self.next = (self.next + 1) % self.flows.len();
        ctx.send(PacketBuilder::udp(flow, vec![0xCD; self.payload]).build());
        self.remaining -= 1;
        if self.remaining > 0 {
            ctx.set_timer(self.interval, 0);
        }
    }
}

impl App for FlowFanClient {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.send_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, _tag: u64) {
        self.send_next(ctx);
    }

    fn on_packet(&mut self, _ctx: &mut AppCtx<'_>, _pkt: Packet) {}
}

/// The built rack.
#[derive(Debug)]
pub struct RackScenario {
    /// The simulated world.
    pub world: World,
    /// The top-of-rack switch node.
    pub tor: NodeId,
    /// Host nodes, by host index.
    pub host_nodes: Vec<NodeId>,
    /// VM nodes, flattened as `h * vms_per_host + v`.
    pub vm_nodes: Vec<NodeId>,
    /// Per-VM delivery recorders (same flattening as `vm_nodes`).
    pub delivered: Vec<Rc<RefCell<ThroughputRecorder>>>,
}

impl RackScenario {
    /// Builds the rack topology and workloads.
    pub fn build(cfg: &RackConfig) -> Self {
        assert!(cfg.hosts >= 2, "the traffic ring needs at least 2 hosts");
        let mut w = World::new(cfg.seed);

        let tor = w.add_node("tor", 8, NodeClock::perfect());
        let tor_sw = w.add_device(
            DeviceConfig::new("tor-sw", tor)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(200)))
                .queue_capacity(65_536),
        );

        let host_nodes: Vec<NodeId> = (0..cfg.hosts)
            .map(|h| w.add_node(format!("host{h}"), 16, NodeClock::perfect()))
            .collect();
        let mut vm_nodes = Vec::with_capacity(cfg.hosts * cfg.vms_per_host);
        for h in 0..cfg.hosts {
            for v in 0..cfg.vms_per_host {
                vm_nodes.push(w.add_node(format!("vm{h}-{v}"), 4, NodeClock::perfect()));
            }
        }

        let vm_link = SimDuration::from_micros(2);
        let tor_link = SimDuration::from_micros(5);

        // Per-host fabric: OVS bridge, VXLAN VTEP toward the next host,
        // and the physical NIC pair up to the ToR.
        let mut bridges = Vec::with_capacity(cfg.hosts);
        let mut tunnels = Vec::with_capacity(cfg.hosts);
        let mut eth_rx = Vec::with_capacity(cfg.hosts);
        for (h, &host) in host_nodes.iter().enumerate() {
            let br = w.add_device(
                DeviceConfig::new("ovs-br", host)
                    .service(ServiceModel::Fixed(SimDuration::from_nanos(800)))
                    .queue_capacity(8_192),
            );
            let next = (h + 1) % cfg.hosts;
            let encap = w.add_device(
                DeviceConfig::new("vxlan0", host)
                    .service(ServiceModel::Fixed(SimDuration::from_nanos(400)))
                    .transform(Transform::VxlanEncap {
                        vni: h as u32,
                        src: RackConfig::vtep_ip(h),
                        dst: RackConfig::vtep_ip(next),
                        src_port: 49_152,
                    }),
            );
            let decap = w.add_device(
                DeviceConfig::new("vxlan-rx", host)
                    .service(ServiceModel::Fixed(SimDuration::from_nanos(400)))
                    .transform(Transform::VxlanDecap),
            );
            let tx = w.add_device(
                DeviceConfig::new("eth0-tx", host)
                    .service(ServiceModel::nic_gbps(10.0))
                    .queue_capacity(8_192),
            );
            let rx = w.add_device(
                DeviceConfig::new("eth0-rx", host)
                    .service(ServiceModel::Fixed(SimDuration::from_nanos(300)))
                    .queue_capacity(8_192),
            );
            w.connect(encap, tx, SimDuration::ZERO);
            w.connect(tx, tor_sw, tor_link);
            w.connect(rx, decap, SimDuration::ZERO);
            w.connect(decap, br, SimDuration::ZERO);
            bridges.push(br);
            tunnels.push(encap);
            eth_rx.push(rx);
        }

        // The ToR switches on the *outer* (VTEP) destination address.
        let vteps = eth_rx.iter().enumerate();
        w.connect_routes(
            tor_sw,
            tor_link,
            vteps.map(|(h, &rx)| (RackConfig::vtep_ip(h), rx)),
            None,
        );

        // VM virtual ethernet ports, bridge routing, apps.
        let mut delivered = Vec::with_capacity(vm_nodes.len());
        let mut vm_tx = Vec::with_capacity(vm_nodes.len());
        let mut vm_rx = Vec::with_capacity(cfg.vms_per_host);
        for h in 0..cfg.hosts {
            vm_rx.clear();
            for v in 0..cfg.vms_per_host {
                let vm = vm_nodes[h * cfg.vms_per_host + v];
                let tx = w.add_device(
                    DeviceConfig::new("ens3-tx", vm)
                        .service(ServiceModel::Fixed(SimDuration::from_nanos(500)))
                        .trace_id(TraceIdRole::Inject),
                );
                let rx = w.add_device(
                    DeviceConfig::new("ens3", vm)
                        .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                        .forwarding(Forwarding::Deliver)
                        .trace_id(TraceIdRole::StripUdpTrailer),
                );
                w.connect(tx, bridges[h], vm_link);
                vm_rx.push((RackConfig::vm_ip(h, v), rx));

                let tput = ThroughputRecorder::shared();
                let server = w.add_named_app(
                    vm,
                    tx,
                    format!("server{h}-{v}"),
                    Box::new(IperfServer::new(Rc::clone(&tput))),
                );
                for j in 0..cfg.apps_per_vm {
                    w.bind_app(rx, BASE_DST_PORT + j as u16, server);
                }
                delivered.push(tput);
                vm_tx.push(tx);
            }
            // Unknown inner destinations leave through the VXLAN tunnel.
            w.connect_routes(
                bridges[h],
                vm_link,
                vm_rx.iter().copied(),
                Some((tunnels[h], SimDuration::ZERO)),
            );
        }

        // Client apps: VM (h, v) fans out to VM (h+1, v).
        for h in 0..cfg.hosts {
            for v in 0..cfg.vms_per_host {
                let vm = vm_nodes[h * cfg.vms_per_host + v];
                let tx = vm_tx[h * cfg.vms_per_host + v];
                let dst_ip = RackConfig::vm_ip((h + 1) % cfg.hosts, v);
                let src_ip = RackConfig::vm_ip(h, v);
                for j in 0..cfg.apps_per_vm {
                    let flows: Vec<FlowKey> = (0..cfg.flows_per_app)
                        .map(|k| {
                            let sport = BASE_SRC_PORT + (j * cfg.flows_per_app + k) as u16;
                            FlowKey::udp(
                                SocketAddrV4::new(src_ip, sport),
                                SocketAddrV4::new(dst_ip, BASE_DST_PORT + j as u16),
                            )
                        })
                        .collect();
                    w.add_named_app(
                        vm,
                        tx,
                        format!("client{h}-{v}-{j}"),
                        Box::new(FlowFanClient::new(
                            flows,
                            cfg.payload,
                            cfg.send_interval,
                            cfg.packets_per_app,
                        )),
                    );
                }
            }
        }

        RackScenario {
            world: w,
            tor,
            host_nodes,
            vm_nodes,
            delivered,
        }
    }

    /// Runs the configured send phase plus a drain margin.
    ///
    /// # Panics
    ///
    /// Panics if the run's length overflows `u64` nanoseconds; see
    /// [`RackConfig::validate`].
    pub fn run(&mut self, cfg: &RackConfig) {
        self.world
            .run_for(cfg.checked_run_span().expect(UNVALIDATED));
    }

    /// Total packets delivered to server apps, across all VMs.
    pub fn delivered_packets(&self) -> u64 {
        self.delivered
            .iter()
            .map(|t| t.borrow_mut().packets())
            .sum()
    }

    /// Per-VM `(packets, bytes)` in VM order — a deterministic
    /// fingerprint of where traffic landed.
    pub fn delivery_fingerprint(&self) -> Vec<(u64, u64)> {
        self.delivered
            .iter()
            .map(|t| {
                let t = t.borrow_mut();
                (t.packets(), t.bytes())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_sim::time::SimTime;

    #[test]
    fn default_config_hits_the_paper_scale() {
        let cfg = RackConfig::default();
        assert!(cfg.hosts * cfg.vms_per_host >= 200, "hundreds of VM nodes");
        assert!(cfg.apps() >= 2_000, "thousands of container apps");
        assert!(cfg.concurrent_flows() >= 1_000_000, "a million flows");
    }

    #[test]
    fn small_rack_delivers_every_packet() {
        let cfg = RackConfig::small();
        let mut s = RackScenario::build(&cfg);
        s.run(&cfg);
        assert_eq!(s.delivered_packets(), cfg.total_packets());
        assert_eq!(
            s.delivery_fingerprint()
                .iter()
                .map(|&(_, b)| b)
                .sum::<u64>(),
            cfg.total_packets() * cfg.payload as u64
        );
        assert!(s.world.now() > SimTime::ZERO);
        // Every VM's server saw its share.
        assert!(s
            .delivery_fingerprint()
            .iter()
            .all(|&(pkts, _)| pkts == (cfg.apps_per_vm as u64) * cfg.packets_per_app));
    }

    /// Exact fingerprints of two seed-42 racks. The event count moves if
    /// any handler schedules one event more or fewer, or if equal-time
    /// events pop in another order and a queue fills differently.
    #[test]
    fn rack_event_counts_are_pinned() {
        let small = RackConfig {
            packets_per_app: 2_000,
            ..RackConfig::small()
        };
        // The shape `bench_e2e` runs as `rack_untraced`.
        let bench = RackConfig {
            seed: 42,
            hosts: 8,
            vms_per_host: 4,
            apps_per_vm: 4,
            flows_per_app: 32,
            packets_per_app: 2_400,
            send_interval: SimDuration::from_micros(40),
            payload: 256,
        };
        for (cfg, events) in [(small, 925_984), (bench, 8_906_272)] {
            let mut s = RackScenario::build(&cfg);
            s.run(&cfg);
            assert_eq!(s.world.events_processed(), events);
            assert_eq!(s.delivered_packets(), cfg.total_packets());
            let per_vm = cfg.apps_per_vm as u64 * cfg.packets_per_app;
            let bytes = per_vm * cfg.payload as u64;
            assert!(s
                .delivery_fingerprint()
                .iter()
                .all(|&f| f == (per_vm, bytes)));
        }
    }

    #[test]
    fn flow_fan_cycles_through_all_flows() {
        let flows: Vec<FlowKey> = (0..4)
            .map(|k| {
                FlowKey::udp(
                    SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 1), 1000 + k),
                    SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 2), 2000),
                )
            })
            .collect();
        let mut client = FlowFanClient::new(flows.clone(), 64, SimDuration::from_micros(1), 6);
        assert_eq!(client.flows.len(), 4);
        // Simulate the round-robin cursor without a world.
        let mut seen = Vec::new();
        for _ in 0..6 {
            seen.push(client.flows[client.next]);
            client.next = (client.next + 1) % client.flows.len();
        }
        assert_eq!(seen[0], flows[0]);
        assert_eq!(seen[4], flows[0], "wraps around");
        assert_eq!(seen[5], flows[1]);
    }
}
