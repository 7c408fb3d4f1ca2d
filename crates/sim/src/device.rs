//! Network device models.
//!
//! Every device in the simulated virtualized network — physical NICs,
//! Open vSwitch ports and fabric, Linux bridges, veth pairs, VXLAN
//! endpoints, guest network stacks — is a *store-and-forward queue with a
//! serving process*, differing in:
//!
//! * its **service model** (how long serving one packet takes),
//! * its **gate** (whether service needs a vCPU to be scheduled, or runs in
//!   a CPU's softirq context),
//! * its **transform** (VXLAN encapsulation/decapsulation),
//! * its **forwarding** decision (fixed port, route by destination IP, or
//!   delivery to a bound application), and
//! * optional **ingress policing** (the OVS rate-limit knob of Case
//!   Study I).
//!
//! The [`crate::world::World`] drives these models from the event loop.

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use crate::ids::{AppId, DeviceId, NodeId, VcpuId};
use crate::packet::Packet;
use crate::probe::{Direction, Hook, HookId, ProbeRegistry};
use crate::time::{SimDuration, SimTime};

/// How long a device takes to serve one packet.
#[derive(Debug, Clone)]
pub enum ServiceModel {
    /// A constant per-packet service time.
    Fixed(SimDuration),
    /// A per-packet cost plus wire-serialization at a link rate, as on a
    /// NIC: `per_packet + len * 8 / bits_per_sec`.
    Bandwidth {
        /// Fixed per-packet cost.
        per_packet: SimDuration,
        /// Link rate in bits per second.
        bits_per_sec: u64,
    },
    /// The Open vSwitch forwarding fabric: a base cost that grows with the
    /// number of *distinct ingress ports active* within a recent window,
    /// modelling flow-table and cache contention when flows from more
    /// ports are switched simultaneously (the Case II → Case III growth of
    /// Fig. 9a).
    OvsFabric {
        /// Cost with a single active ingress port.
        base: SimDuration,
        /// Additional cost per extra active ingress port.
        per_extra_port: SimDuration,
        /// How recently a port must have sent traffic to count as active.
        port_active_window: SimDuration,
    },
}

impl ServiceModel {
    /// A convenience constructor for NIC-style service at `gbps` gigabits
    /// per second.
    pub fn nic_gbps(gbps: f64) -> ServiceModel {
        ServiceModel::Bandwidth {
            per_packet: SimDuration::from_nanos(300),
            bits_per_sec: (gbps * 1e9) as u64,
        }
    }
}

/// What must be available for the device to serve packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// The device has its own dedicated server (hardware or host context).
    None,
    /// Packets become visible only when this vCPU is scheduled: the
    /// device's *arrival* is deferred until the hypervisor scheduler runs
    /// the vCPU (Case Study II).
    Vcpu(VcpuId),
    /// Packets are served in softirq context on a CPU of the device's
    /// node; all softirq-gated devices on the same CPU share one server
    /// (Case Study III).
    Softirq(Steering),
}

/// How a softirq-gated device's packets are steered to a CPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Steering {
    /// All packets go to the CPU handling the device's IRQ (no RPS): the
    /// kernel keeps softirqs from one source on one core for cache
    /// locality.
    IrqAffinity(u16),
    /// Receive Packet Steering: the CPU is chosen by hashing the packet's
    /// five-tuple, so *one connection always lands on one CPU*.
    Rps,
}

/// Byte-level packet rewriting applied after service, before forwarding.
#[derive(Debug, Clone)]
pub enum Transform {
    /// Forward the packet unchanged.
    None,
    /// Encapsulate in VXLAN toward an underlay endpoint (a `flannel`/
    /// `vxlan` TX device).
    VxlanEncap {
        /// VXLAN network identifier.
        vni: u32,
        /// Underlay source IP.
        src: Ipv4Addr,
        /// Underlay destination IP.
        dst: Ipv4Addr,
        /// Underlay UDP source port.
        src_port: u16,
    },
    /// Strip a VXLAN envelope (a `vxlan` RX device). Non-VXLAN packets
    /// pass through unchanged.
    VxlanDecap,
}

/// How the device decides where a served packet goes.
#[derive(Debug, Clone)]
pub enum Forwarding {
    /// Always out the given port index.
    Port(usize),
    /// Route by the packet's (post-transform) destination IP, with an
    /// optional default port.
    ByDstIp {
        /// Destination IP → output port index.
        routes: BTreeMap<Ipv4Addr, usize>,
        /// Port used when no route matches.
        default: Option<usize>,
    },
    /// Deliver to the application bound to the packet's destination port
    /// (the receive side of a network stack).
    Deliver,
}

/// The kernel functions a device's processing path invokes, where kprobes
/// can attach.
#[derive(Debug, Clone, Default)]
pub struct KernelFunctions {
    /// Functions invoked on the receive path.
    pub rx: Vec<String>,
    /// Functions invoked on the transmit path.
    pub tx: Vec<String>,
}

impl KernelFunctions {
    /// Builds the function lists from string slices.
    pub fn new(rx: &[&str], tx: &[&str]) -> Self {
        KernelFunctions {
            rx: rx.iter().map(|s| (*s).to_owned()).collect(),
            tx: tx.iter().map(|s| (*s).to_owned()).collect(),
        }
    }
}

/// The trace-ID role a device plays (the paper's "tens of lines" kernel
/// patch, §III-B/III-E).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TraceIdRole {
    /// No trace-ID handling.
    #[default]
    None,
    /// Sender-side stack: write a 4-byte ID into outgoing packets — into
    /// the TCP options at `tcp_options_write`, or appended to the UDP
    /// payload at `udp_send_skb` (via `__skb_put`), depending on the
    /// packet's protocol.
    Inject,
    /// Receiver-side stack: remove the UDP trailer before the payload is
    /// copied to the application (via `pskb_trim_rcsum`), preserving
    /// application transparency.
    StripUdpTrailer,
}

/// Configuration for an ingress policer (OVS `ingress_policing_rate` /
/// `ingress_policing_burst`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicerConfig {
    /// Sustained rate in kilobits per second.
    pub rate_kbps: u64,
    /// Burst size in kilobits.
    pub burst_kb: u64,
}

/// Configuration for an HTB-style egress shaper on a device (the OVS
/// "QoS policy with Hierarchy Token Bucket" alternative the paper tried
/// in Case Study I: "the effect was similar as the results using rate
/// limit").
///
/// Packets whose frame length is at least `shape_min_len` are classified
/// into the shaped (rate-limited) class and *queued* until tokens are
/// available; smaller packets (the latency-sensitive class) bypass the
/// shaper entirely — a two-class HTB with a size-based filter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HtbConfig {
    /// Sustained rate of the shaped class in kilobits per second.
    pub rate_kbps: u64,
    /// Burst size in kilobits.
    pub burst_kb: u64,
    /// Minimum frame length classified into the shaped class.
    pub shape_min_len: usize,
}

/// A token bucket enforcing a [`PolicerConfig`].
#[derive(Debug, Clone)]
pub struct TokenBucket {
    rate_bits_per_ns: f64,
    capacity_bits: f64,
    tokens: f64,
    last_refill: SimTime,
}

impl TokenBucket {
    /// Creates a full bucket.
    pub fn new(cfg: PolicerConfig) -> Self {
        let capacity_bits = (cfg.burst_kb * 1000) as f64;
        TokenBucket {
            rate_bits_per_ns: cfg.rate_kbps as f64 * 1000.0 / 1e9,
            capacity_bits,
            tokens: capacity_bits,
            last_refill: SimTime::ZERO,
        }
    }

    /// Creates a bucket from a shaper configuration.
    pub fn from_htb(cfg: HtbConfig) -> Self {
        Self::new(PolicerConfig {
            rate_kbps: cfg.rate_kbps,
            burst_kb: cfg.burst_kb,
        })
    }

    /// The earliest instant at which a packet of `len` bytes could be
    /// admitted, without consuming tokens.
    pub fn earliest_admit(&self, len: usize, now: SimTime) -> SimTime {
        let elapsed = now.saturating_since(self.last_refill).as_nanos() as f64;
        let tokens = (self.tokens + elapsed * self.rate_bits_per_ns).min(self.capacity_bits);
        let need = (len * 8) as f64;
        if tokens >= need {
            now
        } else if self.rate_bits_per_ns <= 0.0 {
            SimTime::MAX
        } else {
            now + crate::time::SimDuration::from_nanos(
                ((need - tokens) / self.rate_bits_per_ns).ceil() as u64,
            )
        }
    }

    /// Attempts to admit a packet of `len` bytes at time `now`.
    /// Returns `true` if admitted, `false` if it must be dropped.
    pub fn admit(&mut self, len: usize, now: SimTime) -> bool {
        let elapsed = now.saturating_since(self.last_refill).as_nanos() as f64;
        self.tokens = (self.tokens + elapsed * self.rate_bits_per_ns).min(self.capacity_bits);
        self.last_refill = now;
        let need = (len * 8) as f64;
        if self.tokens >= need {
            self.tokens -= need;
            true
        } else {
            false
        }
    }
}

/// Why a device dropped a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DropReason {
    /// The device queue was full.
    QueueFull,
    /// The ingress policer rejected the packet.
    Policed,
    /// The device was down (failure injection).
    Down,
    /// The packet could not be routed (no matching port).
    NoRoute,
    /// The packet was lost on the wire by a link profile's loss model.
    Link,
}

impl DropReason {
    /// All reasons, in stable reporting order.
    pub const ALL: [DropReason; 5] = [
        DropReason::QueueFull,
        DropReason::Policed,
        DropReason::Down,
        DropReason::NoRoute,
        DropReason::Link,
    ];

    /// The non-zero wire code carried in probe events and trace-record
    /// flags (0 means "not a drop record"). Must stay within 3 bits.
    pub fn code(&self) -> u32 {
        match self {
            DropReason::QueueFull => 1,
            DropReason::Policed => 2,
            DropReason::Down => 3,
            DropReason::NoRoute => 4,
            DropReason::Link => 5,
        }
    }
}

/// Per-device counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeviceCounters {
    /// Packets accepted at ingress.
    pub rx_packets: u64,
    /// Packets forwarded or delivered.
    pub tx_packets: u64,
    /// Packets dropped because the queue was full.
    pub dropped_queue_full: u64,
    /// Packets dropped by the ingress policer.
    pub dropped_policed: u64,
    /// Packets dropped for lack of a route.
    pub dropped_no_route: u64,
    /// Packets dropped because the device was administratively down or
    /// had failed.
    pub dropped_down: u64,
    /// Packets lost on the wire by a link profile's loss model
    /// (counted at the transmitting device).
    pub dropped_link: u64,
}

impl DeviceCounters {
    /// Total packets dropped for any reason.
    pub fn dropped_total(&self) -> u64 {
        self.dropped_queue_full
            + self.dropped_policed
            + self.dropped_no_route
            + self.dropped_down
            + self.dropped_link
    }
}

/// Static configuration of a device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Device name, e.g. `"eth0"`, `"vnet0"`, `"ovs-br1"`, `"docker0"`.
    pub name: String,
    /// Node hosting the device.
    pub node: NodeId,
    /// Ingress queue capacity in packets.
    pub queue_capacity: usize,
    /// Service-time model.
    pub service: ServiceModel,
    /// Scheduling gate.
    pub gate: Gate,
    /// Kernel functions on this device's paths.
    pub kernel_functions: KernelFunctions,
    /// Optional ingress policer.
    pub policer: Option<PolicerConfig>,
    /// Optional HTB-style two-class shaper.
    pub htb: Option<HtbConfig>,
    /// Packet transform applied after service.
    pub transform: Transform,
    /// Forwarding decision.
    pub forwarding: Forwarding,
    /// Trace-ID patch role.
    pub trace_id: TraceIdRole,
}

impl DeviceConfig {
    /// Starts a config with sensible defaults: 512-packet queue, 500 ns
    /// fixed service, no gate, no policer, forward out port 0.
    pub fn new(name: impl Into<String>, node: NodeId) -> Self {
        DeviceConfig {
            name: name.into(),
            node,
            queue_capacity: 512,
            service: ServiceModel::Fixed(SimDuration::from_nanos(500)),
            gate: Gate::None,
            kernel_functions: KernelFunctions::default(),
            policer: None,
            htb: None,
            transform: Transform::None,
            forwarding: Forwarding::Port(0),
            trace_id: TraceIdRole::None,
        }
    }

    /// Sets the service model.
    pub fn service(mut self, service: ServiceModel) -> Self {
        self.service = service;
        self
    }

    /// Sets the scheduling gate.
    pub fn gate(mut self, gate: Gate) -> Self {
        self.gate = gate;
        self
    }

    /// Sets the queue capacity in packets.
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Sets the kernel functions.
    pub fn kernel_functions(mut self, funcs: KernelFunctions) -> Self {
        self.kernel_functions = funcs;
        self
    }

    /// Sets the ingress policer.
    pub fn policer(mut self, cfg: PolicerConfig) -> Self {
        self.policer = Some(cfg);
        self
    }

    /// Sets the HTB-style shaper.
    pub fn htb(mut self, cfg: HtbConfig) -> Self {
        self.htb = Some(cfg);
        self
    }

    /// Sets the transform.
    pub fn transform(mut self, transform: Transform) -> Self {
        self.transform = transform;
        self
    }

    /// Sets the forwarding decision.
    pub fn forwarding(mut self, forwarding: Forwarding) -> Self {
        self.forwarding = forwarding;
        self
    }

    /// Sets the trace-ID role.
    pub fn trace_id(mut self, role: TraceIdRole) -> Self {
        self.trace_id = role;
        self
    }
}

/// An output port: the peer device and the propagation latency to it.
#[derive(Debug, Clone, Copy)]
pub struct Port {
    /// Device at the other end.
    pub peer: DeviceId,
    /// One-way propagation latency (the base latency; replaced by the
    /// active segment's delay when a link profile is attached).
    pub latency: SimDuration,
    /// Index into the world's link-profile table, if a time-varying
    /// [`crate::profile::LinkProfile`] drives this link.
    pub profile: Option<u32>,
    /// When the wire finishes serializing the last frame sent through a
    /// rate-limited profile segment; later frames queue behind it.
    pub wire_busy_until: SimTime,
}

impl Port {
    /// A port toward `peer` with the given base latency and no profile.
    pub fn new(peer: DeviceId, latency: SimDuration) -> Port {
        Port {
            peer,
            latency,
            profile: None,
            wire_busy_until: SimTime::ZERO,
        }
    }
}

/// A packet waiting in or being served by a device, with the probe
/// overhead charged to it so far.
#[derive(Debug)]
pub(crate) struct QueuedPacket {
    pub pkt: Packet,
    pub overhead: SimDuration,
    pub from: Option<DeviceId>,
}

/// The probe slots a device fires, resolved against its node's registry
/// when the device is created and again if the registry was idle then.
#[derive(Debug)]
pub(crate) struct DeviceHooks {
    pub(crate) rx_tap: HookId,
    pub(crate) tx_tap: HookId,
    /// `(entry, return)` per [`KernelFunctions::rx`] name, in order.
    rx_fns: Vec<(HookId, HookId)>,
    /// `(entry, return)` per [`KernelFunctions::tx`] name, in order.
    tx_fns: Vec<(HookId, HookId)>,
}

impl DeviceHooks {
    pub(crate) fn resolve(cfg: &DeviceConfig, probes: &mut ProbeRegistry) -> Self {
        let mut pair = |f: &String| {
            let entry = probes.resolve(|| Hook::kprobe(f));
            (entry, probes.resolve(|| Hook::kretprobe(f)))
        };
        let rx_fns = cfg.kernel_functions.rx.iter().map(&mut pair).collect();
        let tx_fns = cfg.kernel_functions.tx.iter().map(&mut pair).collect();
        DeviceHooks {
            rx_tap: probes.resolve(|| Hook::device_rx(&cfg.name)),
            tx_tap: probes.resolve(|| Hook::device_tx(&cfg.name)),
            rx_fns,
            tx_fns,
        }
    }

    /// The `(entry, return)` pairs of the receive (`Direction::Rx`) or
    /// transmit path's kernel functions.
    pub(crate) fn kernel_functions(&self, direction: Direction) -> &[(HookId, HookId)] {
        match direction {
            Direction::Rx => &self.rx_fns,
            Direction::Tx => &self.tx_fns,
        }
    }
}

/// Runtime state of a device.
#[derive(Debug)]
pub struct Device {
    /// The device's id in the world table.
    pub id: DeviceId,
    /// Static configuration.
    pub cfg: DeviceConfig,
    /// Wired output ports.
    pub ports: Vec<Port>,
    /// Applications bound to destination ports (for [`Forwarding::Deliver`]).
    pub bindings: BTreeMap<u16, AppId>,
    /// Counters.
    pub counters: DeviceCounters,
    pub(crate) queue: std::collections::VecDeque<QueuedPacket>,
    pub(crate) shaped_queue: std::collections::VecDeque<QueuedPacket>,
    pub(crate) busy: bool,
    pub(crate) in_service: Option<QueuedPacket>,
    pub(crate) policer: Option<TokenBucket>,
    pub(crate) shaper: Option<TokenBucket>,
    pub(crate) port_last_seen: HashMap<DeviceId, SimTime>,
    pub(crate) down: bool,
    pub(crate) hooks: DeviceHooks,
}

impl Device {
    /// Creates device runtime state from its configuration, resolving
    /// the hooks it fires against `probes`, its node's registry.
    pub fn new(id: DeviceId, cfg: DeviceConfig, probes: &mut ProbeRegistry) -> Self {
        let policer = cfg.policer.map(TokenBucket::new);
        let shaper = cfg.htb.map(TokenBucket::from_htb);
        let hooks = DeviceHooks::resolve(&cfg, probes);
        Device {
            id,
            cfg,
            ports: Vec::new(),
            bindings: BTreeMap::new(),
            counters: DeviceCounters::default(),
            queue: std::collections::VecDeque::new(),
            shaped_queue: std::collections::VecDeque::new(),
            busy: false,
            in_service: None,
            policer,
            shaper,
            port_last_seen: HashMap::new(),
            down: false,
            hooks,
        }
    }

    /// Current queue depth in packets (both classes).
    pub fn queue_len(&self) -> usize {
        self.queue.len() + self.shaped_queue.len()
    }

    /// Whether the device starts serving in the context that hands it
    /// work, as Linux transmits at once on an idle device with an empty
    /// FIFO qdisc (`TCQ_F_CAN_BYPASS`): true unless a vCPU gate may defer
    /// the start or an HTB shaper, which has no bypass, paces it. Such a
    /// device's start is a scheduled `StartService` event instead.
    /// Softirq-gated devices are served by their CPU's softirq and never
    /// ask.
    pub(crate) fn starts_at_once(&self) -> bool {
        matches!(self.cfg.gate, Gate::None) && self.cfg.htb.is_none()
    }

    /// For an [`ServiceModel::OvsFabric`] device, whether serving a packet
    /// from `from` at `now` would hit the megaflow cache: the ingress port
    /// already counted as active within the window, so the flow-table
    /// lookup resolves without an upcall. `None` for other service models.
    ///
    /// Must be consulted *before* [`Device::service_time`], which marks
    /// the port active.
    pub fn ovs_lookup_hit(&self, from: Option<DeviceId>, now: SimTime) -> Option<bool> {
        let ServiceModel::OvsFabric {
            port_active_window, ..
        } = &self.cfg.service
        else {
            return None;
        };
        let Some(src) = from else { return Some(false) };
        Some(
            self.port_last_seen
                .get(&src)
                .is_some_and(|&t| now.saturating_since(t) <= *port_active_window),
        )
    }

    /// Computes the service time for `pkt` arriving from `from` at `now`.
    pub fn service_time(
        &mut self,
        pkt: &Packet,
        from: Option<DeviceId>,
        now: SimTime,
    ) -> SimDuration {
        match &self.cfg.service {
            ServiceModel::Fixed(d) => *d,
            ServiceModel::Bandwidth {
                per_packet,
                bits_per_sec,
            } => {
                let wire_ns =
                    (pkt.len() as u128 * 8 * 1_000_000_000 / *bits_per_sec as u128) as u64;
                *per_packet + SimDuration::from_nanos(wire_ns)
            }
            ServiceModel::OvsFabric {
                base,
                per_extra_port,
                port_active_window,
            } => {
                if let Some(src) = from {
                    self.port_last_seen.insert(src, now);
                }
                let window = *port_active_window;
                let active = self
                    .port_last_seen
                    .values()
                    .filter(|&&t| now.saturating_since(t) <= window)
                    .count()
                    .max(1);
                *base + per_extra_port.mul_u64((active - 1) as u64)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_bucket_admits_within_burst_then_drops() {
        // 1000 kbps, 1 kb burst = 125 bytes of burst.
        let mut tb = TokenBucket::new(PolicerConfig {
            rate_kbps: 1000,
            burst_kb: 1,
        });
        assert!(tb.admit(100, SimTime::ZERO), "within burst");
        assert!(!tb.admit(100, SimTime::ZERO), "burst exhausted");
        // After 1 ms at 1 Mbps, 1000 bits = 125 bytes have refilled.
        assert!(tb.admit(100, SimTime::from_millis(1)));
    }

    #[test]
    fn token_bucket_caps_at_burst() {
        let mut tb = TokenBucket::new(PolicerConfig {
            rate_kbps: 1_000_000,
            burst_kb: 1,
        });
        // A long idle period must not accumulate more than the burst.
        assert!(
            !tb.admit(200, SimTime::from_secs(10)),
            "200B > 125B burst cap"
        );
        assert!(tb.admit(125, SimTime::from_secs(10)));
    }

    #[test]
    fn bandwidth_service_scales_with_length() {
        let mut dev = Device::new(
            DeviceId(0),
            DeviceConfig::new("nic", NodeId(0)).service(ServiceModel::Bandwidth {
                per_packet: SimDuration::ZERO,
                bits_per_sec: 1_000_000_000,
            }),
            &mut ProbeRegistry::new(),
        );
        let short = Packet::from_bytes(vec![0u8; 125]); // 1000 bits at 1G = 1us
        let long = Packet::from_bytes(vec![0u8; 1250]);
        assert_eq!(
            dev.service_time(&short, None, SimTime::ZERO),
            SimDuration::from_micros(1)
        );
        assert_eq!(
            dev.service_time(&long, None, SimTime::ZERO),
            SimDuration::from_micros(10)
        );
    }

    #[test]
    fn ovs_fabric_cost_grows_with_active_ports() {
        let mut dev = Device::new(
            DeviceId(9),
            DeviceConfig::new("ovs-br1", NodeId(0)).service(ServiceModel::OvsFabric {
                base: SimDuration::from_micros(1),
                per_extra_port: SimDuration::from_micros(2),
                port_active_window: SimDuration::from_millis(1),
            }),
            &mut ProbeRegistry::new(),
        );
        let pkt = Packet::from_bytes(vec![0u8; 64]);
        let t0 = SimTime::from_micros(0);
        assert_eq!(
            dev.service_time(&pkt, Some(DeviceId(1)), t0),
            SimDuration::from_micros(1)
        );
        // Second ingress port becomes active: cost rises.
        let t1 = SimTime::from_micros(10);
        assert_eq!(
            dev.service_time(&pkt, Some(DeviceId(2)), t1),
            SimDuration::from_micros(3)
        );
        // After the window expires, port 1 no longer counts.
        let t2 = SimTime::from_millis(3);
        assert_eq!(
            dev.service_time(&pkt, Some(DeviceId(2)), t2),
            SimDuration::from_micros(1)
        );
    }

    #[test]
    fn nic_gbps_constructor() {
        match ServiceModel::nic_gbps(10.0) {
            ServiceModel::Bandwidth { bits_per_sec, .. } => {
                assert_eq!(bits_per_sec, 10_000_000_000)
            }
            other => panic!("unexpected model {other:?}"),
        }
    }

    #[test]
    fn config_builder_sets_fields() {
        let cfg = DeviceConfig::new("vnet0", NodeId(1))
            .queue_capacity(64)
            .gate(Gate::Softirq(Steering::IrqAffinity(0)))
            .policer(PolicerConfig {
                rate_kbps: 100_000,
                burst_kb: 10_000,
            })
            .trace_id(TraceIdRole::Inject);
        assert_eq!(cfg.queue_capacity, 64);
        assert_eq!(cfg.gate, Gate::Softirq(Steering::IrqAffinity(0)));
        assert!(cfg.policer.is_some());
        assert_eq!(cfg.trace_id, TraceIdRole::Inject);
    }

    #[test]
    fn drop_reason_codes_fit_in_three_bits() {
        for r in DropReason::ALL {
            assert!(r.code() >= 1 && r.code() <= 7, "code fits in 3 bits");
        }
    }

    #[test]
    fn ovs_lookup_hit_tracks_port_activity() {
        let mut dev = Device::new(
            DeviceId(9),
            DeviceConfig::new("ovs-br", NodeId(0)).service(ServiceModel::OvsFabric {
                base: SimDuration::from_micros(1),
                per_extra_port: SimDuration::from_micros(2),
                port_active_window: SimDuration::from_millis(1),
            }),
            &mut ProbeRegistry::new(),
        );
        let pkt = Packet::from_bytes(vec![0u8; 64]);
        let t0 = SimTime::from_micros(0);
        // First packet from a port: megaflow miss.
        assert_eq!(dev.ovs_lookup_hit(Some(DeviceId(1)), t0), Some(false));
        dev.service_time(&pkt, Some(DeviceId(1)), t0);
        // Port is now active within the window: hit.
        let t1 = SimTime::from_micros(10);
        assert_eq!(dev.ovs_lookup_hit(Some(DeviceId(1)), t1), Some(true));
        // A different port still misses.
        assert_eq!(dev.ovs_lookup_hit(Some(DeviceId(2)), t1), Some(false));
        // After the window expires the flow must be reinstalled.
        let t2 = SimTime::from_millis(3);
        assert_eq!(dev.ovs_lookup_hit(Some(DeviceId(1)), t2), Some(false));
        // Non-fabric devices have no flow table.
        let mut fixed = Device::new(
            DeviceId(0),
            DeviceConfig::new("eth0", NodeId(0)),
            &mut ProbeRegistry::new(),
        );
        assert_eq!(fixed.ovs_lookup_hit(Some(DeviceId(1)), t0), None);
        fixed.service_time(&pkt, Some(DeviceId(1)), t0);
        assert_eq!(fixed.ovs_lookup_hit(Some(DeviceId(1)), t1), None);
    }

    #[test]
    fn counters_total() {
        let c = DeviceCounters {
            dropped_queue_full: 2,
            dropped_policed: 3,
            dropped_no_route: 1,
            ..Default::default()
        };
        assert_eq!(c.dropped_total(), 6);
    }
}
