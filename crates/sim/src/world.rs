//! The simulation driver: nodes, devices, schedulers, softirq engines,
//! applications and the event loop that ties them together.
//!
//! There is one event loop and it runs on the calling thread: pop the
//! earliest event, advance `now` to it, run its handler (the `handlers`
//! submodule), repeat. Events at equal times pop in push-key order
//! ([`crate::event::PushKey`]: push time, pushing node, that node's push
//! counter) and everything random inside a run draws from the stream of
//! the node it happens on, so a simulation is a function of its seed —
//! bit for bit, whether it is run in one call or stepped in a thousand.
//!
//! # Example
//!
//! ```
//! use vnet_sim::world::World;
//! use vnet_sim::device::{DeviceConfig, Forwarding};
//! use vnet_sim::node::NodeClock;
//! use vnet_sim::time::{SimDuration, SimTime};
//!
//! let mut world = World::new(42);
//! let node = world.add_node("server1", 4, NodeClock::perfect());
//! let tx = world.add_device(DeviceConfig::new("eth0", node));
//! let rx = world
//!     .add_device(DeviceConfig::new("eth1", node).forwarding(Forwarding::Deliver));
//! world.connect(tx, rx, SimDuration::from_micros(5));
//! world.run_until(SimTime::from_millis(1));
//! ```

use std::collections::{BTreeMap, HashMap};
use std::net::Ipv4Addr;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::app::{App, AppAction};
use crate::device::{Device, DeviceConfig, DeviceCounters, DeviceHooks, Forwarding, Gate};
use crate::event::{Event, EventQueue, PushKey};
use crate::ids::{AppId, DeviceId, NodeId};
use crate::node::{Node, NodeClock};
use crate::packet::{Packet, PacketUid};
use crate::probe::{Hook, HookId, ProbeId, ProbeRegistry, SharedSink};
use crate::profile::LinkProfile;
use crate::sched::HyperScheduler;
use crate::softirq::SoftirqEngine;
use crate::time::{SimDuration, SimTime};

mod handlers;

/// Derives the seed of a node's private RNG stream from the world seed.
///
/// Streams are keyed by node index (splitmix64-style finalizer), so
/// adding a node never perturbs the draws of existing nodes — topology
/// growth keeps per-node randomness stable.
fn node_stream_seed(world_seed: u64, node_index: usize) -> u64 {
    let mut z = world_seed ^ (node_index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A registered application and the state needed to dispatch to it.
struct AppSlot {
    node: NodeId,
    tx_dev: DeviceId,
    name: String,
    /// What `Hook::Uprobe(name)` resolves to in the node's registry.
    uprobe: HookId,
    app: Box<dyn App>,
}

/// The simulated world.
///
/// All entities live in flat tables indexed by their typed ids. The world
/// is fully deterministic for a given seed.
pub struct World {
    now: SimTime,
    queue: EventQueue,
    nodes: Vec<Node>,
    devices: Vec<Device>,
    device_names: HashMap<(NodeId, String), DeviceId>,
    /// Trace-driven link models, referenced by index from device ports.
    link_profiles: Vec<LinkProfile>,
    apps: Vec<AppSlot>,
    /// The action list every application callback queues on; empty
    /// between callbacks, and never shrunk.
    actions: Vec<AppAction>,
    /// One registry per node: a hook id is an index into its own
    /// node's attachment lists.
    probes: Vec<ProbeRegistry>,
    next_probe_id: u64,
    /// One slot per node; `Some` where a hypervisor scheduler is installed.
    schedulers: Vec<Option<Box<dyn HyperScheduler>>>,
    /// One softirq engine per node.
    softirq: Vec<SoftirqEngine>,
    seed: u64,
    /// Per-node RNG streams used by everything that runs *inside* the
    /// simulation (apps, trace-id injection).
    node_rngs: Vec<SmallRng>,
    /// Per-node event push counters — the `seq` of minted [`PushKey`]s.
    push_seq: Vec<u64>,
    /// Per-node packet-uid counters.
    uid_seq: Vec<u64>,
    events_processed: u64,
    started_apps: usize,
}

impl World {
    /// Creates an empty world seeded for deterministic randomness.
    pub fn new(seed: u64) -> Self {
        World {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            devices: Vec::new(),
            device_names: HashMap::new(),
            link_profiles: Vec::new(),
            apps: Vec::new(),
            actions: Vec::new(),
            probes: Vec::new(),
            next_probe_id: 0,
            schedulers: Vec::new(),
            softirq: Vec::new(),
            seed,
            node_rngs: Vec::new(),
            push_seq: Vec::new(),
            uid_seq: Vec::new(),
            events_processed: 0,
            started_apps: 0,
        }
    }

    /// Current simulation (ground-truth) time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    // Does nothing: the event loop is single-threaded. Its one caller is
    // `bench_e2e/src/rack.rs:196`, a file only a `benchmark` PR may edit;
    // that PR drops the call and this shim together (ROADMAP item 2).
    #[doc(hidden)]
    pub fn set_parallelism(&mut self, _threads: usize) {}

    // ------------------------------------------------------------------
    // Construction
    // ------------------------------------------------------------------

    /// Adds a node with `num_cpus` CPUs and the given clock; creates its
    /// softirq engine, probe registry and RNG stream.
    pub fn add_node(&mut self, name: impl Into<String>, num_cpus: u16, clock: NodeClock) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node::new(id, name, num_cpus, clock));
        self.softirq.push(SoftirqEngine::new(num_cpus));
        self.probes.push(ProbeRegistry::new());
        self.schedulers.push(None);
        self.node_rngs
            .push(SmallRng::seed_from_u64(node_stream_seed(
                self.seed,
                id.index(),
            )));
        self.push_seq.push(0);
        self.uid_seq.push(0);
        id
    }

    /// Installs a hypervisor scheduler on `node`.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist.
    pub fn set_scheduler(&mut self, node: NodeId, sched: Box<dyn HyperScheduler>) {
        self.schedulers[node.index()] = Some(sched);
    }

    /// Adds a device from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the node does not exist or a device with the same name
    /// already exists on the node.
    pub fn add_device(&mut self, cfg: DeviceConfig) -> DeviceId {
        assert!(
            cfg.node.index() < self.nodes.len(),
            "unknown node {}",
            cfg.node
        );
        assert!(
            !(cfg.htb.is_some() && matches!(cfg.gate, Gate::Softirq(_))),
            "HTB shaping is not supported on softirq-gated devices"
        );
        let id = DeviceId(self.devices.len() as u32);
        let key = (cfg.node, cfg.name.clone());
        assert!(
            self.device_names.insert(key, id).is_none(),
            "device {} already exists on {}",
            cfg.name,
            cfg.node
        );
        let probes = &mut self.probes[cfg.node.index()];
        self.devices.push(Device::new(id, cfg, probes));
        id
    }

    /// Wires an output port on `from` toward `to` with the given one-way
    /// latency. Returns the port index on `from`.
    pub fn connect(&mut self, from: DeviceId, to: DeviceId, latency: SimDuration) -> usize {
        let dev = &mut self.devices[from.index()];
        dev.ports.push(crate::device::Port::new(to, latency));
        dev.ports.len() - 1
    }

    /// Wires `dev` like a switch or bridge: an output port toward each
    /// route's target in the order given, each with one-way `latency`,
    /// then one toward `default`'s target, if any, with its own latency.
    /// `dev` then forwards by destination IP over those ports
    /// ([`Forwarding::ByDstIp`]), the default port taking what no route
    /// matches.
    pub fn connect_routes(
        &mut self,
        dev: DeviceId,
        latency: SimDuration,
        routes: impl IntoIterator<Item = (Ipv4Addr, DeviceId)>,
        default: Option<(DeviceId, SimDuration)>,
    ) {
        let mut table = BTreeMap::new();
        for (ip, to) in routes {
            table.insert(ip, self.connect(dev, to, latency));
        }
        let default = default.map(|(to, latency)| self.connect(dev, to, latency));
        self.devices[dev.index()].cfg.forwarding = Forwarding::ByDstIp {
            routes: table,
            default,
        };
    }

    /// Registers a trace-driven link model in the world's profile table;
    /// returns its id for [`World::set_port_profile`].
    pub fn add_link_profile(&mut self, profile: LinkProfile) -> u32 {
        self.link_profiles.push(profile);
        (self.link_profiles.len() - 1) as u32
    }

    /// Drives the given output port of `dev` with a registered link
    /// profile: the active segment's delay replaces the port's base
    /// latency, its loss model may drop frames on the wire, and its rate
    /// serializes frames through the link.
    ///
    /// # Panics
    ///
    /// Panics if the port or profile id does not exist.
    pub fn set_port_profile(&mut self, dev: DeviceId, port_idx: usize, profile_id: u32) {
        assert!(
            (profile_id as usize) < self.link_profiles.len(),
            "unknown link profile {profile_id}"
        );
        self.devices[dev.index()].ports[port_idx].profile = Some(profile_id);
    }

    /// Registers `profile` and attaches it to the given port in one
    /// step; returns the profile id.
    pub fn attach_link_profile(
        &mut self,
        dev: DeviceId,
        port_idx: usize,
        profile: LinkProfile,
    ) -> u32 {
        let id = self.add_link_profile(profile);
        self.set_port_profile(dev, port_idx, id);
        id
    }

    /// Schedules an administrative up/down flip of `dev` at simulated
    /// time `at` (the flapping-link condition generator): the event loop
    /// calls [`World::set_device_down`] when it reaches `at`, so the flip
    /// lands between the same two events however the run is stepped. A
    /// flip scheduled in the past applies at once: an `at` before
    /// [`World::now`] is taken as `now`.
    pub fn schedule_device_down(&mut self, dev: DeviceId, at: SimTime, down: bool) {
        let node = self.devices[dev.index()].cfg.node;
        self.push_event(node, at, Event::SetDeviceDown { dev, down });
    }

    /// Fails or restores a device (failure injection): a down device
    /// drops every arriving packet — one of the packet-loss causes the
    /// paper's loss metric is built to expose ("network disconnection,
    /// device failure", §III-D). Queued packets are kept and resume when
    /// the device comes back up.
    pub fn set_device_down(&mut self, dev: DeviceId, down: bool) {
        let d = &mut self.devices[dev.index()];
        d.down = down;
        if !down && !d.busy && d.queue_len() > 0 {
            let node = d.cfg.node;
            self.push_event(node, self.now, Event::StartService { dev });
        }
    }

    /// Whether a device is currently down.
    pub fn device_is_down(&self, dev: DeviceId) -> bool {
        self.devices[dev.index()].down
    }

    /// Registers an application on `node`, transmitting through `tx_dev`,
    /// with an auto-generated name.
    pub fn add_app(&mut self, node: NodeId, tx_dev: DeviceId, app: Box<dyn App>) -> AppId {
        let name = format!("app{}", self.apps.len());
        self.add_named_app(node, tx_dev, name, app)
    }

    /// Registers a *named* application; user-level probes
    /// ([`Hook::Uprobe`]) attach by this name and fire whenever a packet
    /// is delivered to the application.
    pub fn add_named_app(
        &mut self,
        node: NodeId,
        tx_dev: DeviceId,
        name: impl Into<String>,
        app: Box<dyn App>,
    ) -> AppId {
        let id = AppId(self.apps.len() as u32);
        let name = name.into();
        let uprobe = self.probes[node.index()].resolve(|| Hook::uprobe(&name));
        self.apps.push(AppSlot {
            node,
            tx_dev,
            name,
            uprobe,
            app,
        });
        id
    }

    /// Binds `app` to receive packets delivered at `rx_dev` with the given
    /// destination port.
    pub fn bind_app(&mut self, rx_dev: DeviceId, dst_port: u16, app: AppId) {
        self.devices[rx_dev.index()].bindings.insert(dst_port, app);
    }

    /// Every node, in id order, as [`World::add_node`] made it.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a device by node and name.
    pub fn find_device(&self, node: NodeId, name: &str) -> Option<DeviceId> {
        self.device_names.get(&(node, name.to_owned())).copied()
    }

    // ------------------------------------------------------------------
    // Probes
    // ------------------------------------------------------------------

    /// Attaches a probe sink at `(node, hook)`; returns a handle for
    /// detaching. Works at any time, including mid-run — the
    /// reconfigurability vNetTracer builds on.
    pub fn attach_probe(&mut self, node: NodeId, hook: Hook, sink: SharedSink) -> ProbeId {
        let id = ProbeId(self.next_probe_id);
        self.next_probe_id += 1;
        let probes = &mut self.probes[node.index()];
        let first_on_node = probes.is_idle();
        probes.attach_with_id(id, hook, sink);
        if first_on_node {
            // What is already on the node was added while its registry
            // was idle; whatever is added from now on resolves as it is.
            for dev in self.devices.iter_mut().filter(|d| d.cfg.node == node) {
                dev.hooks = DeviceHooks::resolve(&dev.cfg, probes);
            }
            for app in self.apps.iter_mut().filter(|a| a.node == node) {
                app.uprobe = probes.resolve(|| Hook::uprobe(&app.name));
            }
        }
        id
    }

    /// Detaches a probe. Returns `true` if it was attached.
    pub fn detach_probe(&mut self, id: ProbeId) -> bool {
        self.probes.iter_mut().any(|reg| reg.detach(id))
    }

    /// Total probe executions so far, across all nodes.
    pub fn probes_fired(&self) -> u64 {
        self.probes.iter().map(ProbeRegistry::fired_count).sum()
    }

    // ------------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------------

    /// A device's counters.
    pub fn device_counters(&self, dev: DeviceId) -> DeviceCounters {
        self.devices[dev.index()].counters
    }

    /// A device's current queue depth.
    pub fn device_queue_len(&self, dev: DeviceId) -> usize {
        self.devices[dev.index()].queue_len()
    }

    /// A node's softirq engine (Fig. 13a statistics).
    pub fn softirq_engine(&self, node: NodeId) -> &SoftirqEngine {
        &self.softirq[node.index()]
    }

    // ------------------------------------------------------------------
    // Running
    // ------------------------------------------------------------------

    /// Delivers `on_start` to every app that has not been started yet,
    /// in registration order. Called automatically by the run methods, so
    /// apps added mid-run are started when the simulation next advances.
    pub fn start(&mut self) {
        while self.started_apps < self.apps.len() {
            let app = AppId(self.started_apps as u32);
            self.started_apps += 1;
            self.dispatch_app(app, |a, ctx| a.on_start(ctx));
        }
    }

    /// Runs the event loop until simulated time `t` (inclusive of events
    /// at `t`); advances `now` to `t`. A `t` before `now` runs nothing and
    /// leaves the clock where it is.
    pub fn run_until(&mut self, t: SimTime) {
        self.run_events(t);
        self.now = self.now.max(t);
    }

    /// Runs for `d` of simulated time from the current instant.
    pub fn run_for(&mut self, d: SimDuration) {
        self.run_until(self.now + d);
    }

    /// The event loop: starts pending apps, then handles every event with
    /// `at <= bound` in `(at, push key)` order, leaving `now` at the last
    /// one handled.
    fn run_events(&mut self, bound: SimTime) {
        self.start();
        while let Some((at, event)) = self.queue.pop_at_or_before(bound) {
            debug_assert!(at >= self.now, "push_event schedules nothing before now");
            self.now = at;
            self.events_processed += 1;
            self.handle(event);
        }
    }

    /// Schedules `event` at `at` under `pusher`'s next push key — the
    /// only way an event enters the queue. The key is what orders events
    /// at equal times, and it is made of nothing but the push instant
    /// and the pushing node's own counter. Nothing is scheduled before
    /// `now` (an earlier `at` means "at once"), so the times the loop pops
    /// never decrease.
    fn push_event(&mut self, pusher: NodeId, at: SimTime, event: Event) {
        let seq = &mut self.push_seq[pusher.index()];
        let key = PushKey {
            time: self.now,
            node: pusher.0,
            seq: *seq,
        };
        *seq += 1;
        self.queue.push(at.max(self.now), key, event);
    }

    /// Allocates a packet uid from `node`'s counter; the node index in
    /// the high bits keeps uids unique across nodes.
    fn next_uid(&mut self, node: NodeId) -> PacketUid {
        let c = &mut self.uid_seq[node.index()];
        *c += 1;
        PacketUid(((u64::from(node.0) + 1) << 40) | *c)
    }

    // ------------------------------------------------------------------
    // Injection
    // ------------------------------------------------------------------

    /// Injects `pkt` at `dev` as if it arrived from outside the modelled
    /// topology (no trace-ID handling).
    pub fn inject(&mut self, dev: DeviceId, mut pkt: Packet) {
        let node = self.devices[dev.index()].cfg.node;
        pkt.set_uid(self.next_uid(node));
        self.push_event(
            node,
            self.now,
            Event::Arrive {
                dev,
                from: None,
                pkt,
            },
        );
    }
}

/// The world's structure, table by table in id order: nodes, devices
/// (whole config, ports as `(peer, latency, profile)`, bindings), apps as
/// `(node, tx device, name)`, link profiles and each node's scheduler.
/// Two worlds built alike print alike, so a digest of this pins a
/// topology builder.
impl core::fmt::Debug for World {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let devices: Vec<_> = self
            .devices
            .iter()
            .map(|d| {
                let ports: Vec<_> = d
                    .ports
                    .iter()
                    .map(|p| (p.peer, p.latency, p.profile))
                    .collect();
                (d.id, &d.cfg, ports, &d.bindings)
            })
            .collect();
        let apps: Vec<_> = self
            .apps
            .iter()
            .map(|a| (a.node, a.tx_dev, &a.name))
            .collect();
        let schedulers: Vec<_> = self
            .schedulers
            .iter()
            .map(|s| s.as_ref().map(|s| s.name()))
            .collect();
        f.debug_struct("World")
            .field("now", &self.now)
            .field("events_processed", &self.events_processed)
            .field("nodes", &self.nodes)
            .field("devices", &devices)
            .field("apps", &apps)
            .field("link_profiles", &self.link_profiles)
            .field("schedulers", &schedulers)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::AppCtx;
    use crate::device::{
        Gate, KernelFunctions, PolicerConfig, ServiceModel, Steering, TraceIdRole, Transform,
    };
    use crate::ids::{CpuId, VcpuId};
    use crate::packet::{FlowKey, PacketBuilder, SocketAddrV4Ext};
    use crate::probe::{ProbeEvent, ProbeOutcome, ProbeSink};
    use std::cell::RefCell;
    use std::net::SocketAddrV4;
    use std::rc::Rc;

    fn flow() -> FlowKey {
        FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 1000),
            SocketAddrV4::sock("10.0.0.2", 2000),
        )
    }

    fn udp_packet(payload_len: usize) -> Packet {
        PacketBuilder::udp(flow(), vec![0xab; payload_len]).build()
    }

    /// A sink recording (monotonic_ns, packet length) per firing.
    struct Recorder {
        seen: Vec<(u64, usize)>,
        cost: SimDuration,
    }

    impl ProbeSink for Recorder {
        fn handle(&mut self, ev: &ProbeEvent<'_>) -> ProbeOutcome {
            self.seen
                .push((ev.monotonic_ns, ev.packet.map_or(0, |p| p.len())));
            ProbeOutcome::with_cost(self.cost)
        }
    }

    /// Receiver app that counts deliveries.
    struct Counter {
        got: Rc<RefCell<Vec<(SimTime, Packet)>>>,
    }

    impl App for Counter {
        fn on_packet(&mut self, ctx: &mut AppCtx<'_>, pkt: Packet) {
            self.got
                .borrow_mut()
                .push((SimTime::from_nanos(ctx.monotonic_ns()), pkt));
        }
    }

    /// Builds a 2-device pipeline: src NIC -> dst stack (Deliver).
    type Deliveries = Rc<RefCell<Vec<(SimTime, Packet)>>>;

    fn pipeline() -> (World, DeviceId, DeviceId, Deliveries) {
        let mut w = World::new(1);
        let n = w.add_node("host", 4, NodeClock::perfect());
        let tx = w.add_device(
            DeviceConfig::new("eth0", n)
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .kernel_functions(KernelFunctions::new(&["dev_queue_xmit"], &[])),
        );
        let rx = w.add_device(
            DeviceConfig::new("stack-rx", n)
                .service(ServiceModel::Fixed(SimDuration::from_micros(2)))
                .forwarding(Forwarding::Deliver),
        );
        w.connect(tx, rx, SimDuration::from_micros(10));
        let got = Rc::new(RefCell::new(Vec::new()));
        let app = w.add_app(
            n,
            tx,
            Box::new(Counter {
                got: Rc::clone(&got),
            }),
        );
        w.bind_app(rx, 2000, app);
        (w, tx, rx, got)
    }

    #[test]
    fn packet_traverses_pipeline_with_correct_timing() {
        let (mut w, tx, rx, got) = pipeline();
        w.inject(tx, udp_packet(56));
        w.run_until(SimTime::from_millis(1));
        // 1us service + 10us link + 2us service = 13us delivery.
        let deliveries = got.borrow_mut();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(deliveries[0].0, SimTime::from_micros(13));
        assert_eq!(w.device_counters(tx).tx_packets, 1);
        assert_eq!(w.device_counters(rx).rx_packets, 1);
    }

    #[test]
    fn queueing_delays_second_packet() {
        let (mut w, tx, _, got) = pipeline();
        w.inject(tx, udp_packet(56));
        w.inject(tx, udp_packet(56));
        w.run_until(SimTime::from_millis(1));
        let deliveries = got.borrow_mut();
        assert_eq!(deliveries.len(), 2);
        // The receive stack (2us service) is the bottleneck: the second
        // packet is delivered one RX service time after the first.
        assert_eq!(
            deliveries[1].0 - deliveries[0].0,
            SimDuration::from_micros(2)
        );
    }

    /// `schedule_device_down` takes any `at`. One in the past must not
    /// become the loop's `now`: the flip applies at the instant of the
    /// call, and no node's clock ever reads less than it already has.
    #[test]
    fn flip_scheduled_in_the_past_applies_at_once() {
        let (mut w, tx, rx, got) = pipeline();
        let sink = Rc::new(RefCell::new(Recorder {
            seen: Vec::new(),
            cost: SimDuration::ZERO,
        }));
        w.attach_probe(NodeId(0), Hook::device_tx("eth0"), sink.clone());
        w.attach_probe(NodeId(0), Hook::device_rx("stack-rx"), sink.clone());
        // eth0 fails with one packet in service and one queued behind it:
        // the first is delivered, the second is held.
        w.inject(tx, udp_packet(10));
        w.inject(tx, udp_packet(20));
        w.schedule_device_down(tx, SimTime::from_nanos(500), true);
        w.run_until(SimTime::from_millis(1));
        assert_eq!(got.borrow().len(), 1);
        assert_eq!(w.device_queue_len(tx), 1);
        // A firing at 1 ms, for the clock to be compared against.
        w.inject(rx, udp_packet(30));
        w.run_until(SimTime::from_micros(1_100));
        assert_eq!(got.borrow().len(), 2);
        // Restore eth0 "at 10 us" — more than a millisecond ago.
        w.schedule_device_down(tx, SimTime::from_micros(10), false);
        w.run_until(SimTime::from_millis(2));
        assert!(!w.device_is_down(tx));
        let deliveries = got.borrow();
        assert_eq!(deliveries.len(), 3, "the held packet resumes");
        // Service resumed when the flip was asked for, at 1.1 ms: 1 us
        // service + 10 us link + 2 us service later it is delivered.
        assert_eq!(deliveries[2].0, SimTime::from_micros(1_113));
        // Neither does running "until" an instant already passed.
        w.run_until(SimTime::from_micros(5));
        assert_eq!(w.now(), SimTime::from_millis(2));
        let clock: Vec<u64> = sink.borrow().seen.iter().map(|s| s.0).collect();
        assert_eq!(clock.len(), 5);
        assert!(
            clock.windows(2).all(|w| w[0] <= w[1]),
            "monotonic_ns ran backwards across firings: {clock:?}"
        );
    }

    #[test]
    fn probe_cost_perturbs_service() {
        let (mut w, tx, _, got) = pipeline();
        let sink = Rc::new(RefCell::new(Recorder {
            seen: Vec::new(),
            cost: SimDuration::from_micros(5),
        }));
        w.attach_probe(NodeId(0), Hook::device_rx("eth0"), sink.clone());
        w.inject(tx, udp_packet(56));
        w.run_until(SimTime::from_millis(1));
        // Tracing added 5us to the first hop: 13 + 5 = 18us.
        assert_eq!(got.borrow_mut()[0].0, SimTime::from_micros(18));
        assert_eq!(sink.borrow_mut().seen.len(), 1);
    }

    #[test]
    fn kernel_function_probes_fire_entry_and_return() {
        let (mut w, tx, _, _) = pipeline();
        let sink = Rc::new(RefCell::new(Recorder {
            seen: Vec::new(),
            cost: SimDuration::ZERO,
        }));
        w.attach_probe(NodeId(0), Hook::kprobe("dev_queue_xmit"), sink.clone());
        w.attach_probe(NodeId(0), Hook::kretprobe("dev_queue_xmit"), sink.clone());
        w.inject(tx, udp_packet(56));
        w.run_until(SimTime::from_millis(1));
        assert_eq!(sink.borrow_mut().seen.len(), 2);
    }

    #[test]
    fn detach_and_reattach_between_runs_apply_at_the_next_firing() {
        let (mut w, tx, _, _) = pipeline();
        let sink = Rc::new(RefCell::new(Recorder {
            seen: Vec::new(),
            cost: SimDuration::ZERO,
        }));
        let id = w.attach_probe(NodeId(0), Hook::device_rx("eth0"), sink.clone());
        w.inject(tx, udp_packet(10));
        w.run_until(SimTime::from_micros(100));
        assert!(w.detach_probe(id));
        w.inject(tx, udp_packet(20));
        w.run_until(SimTime::from_micros(200));
        w.attach_probe(NodeId(0), Hook::device_rx("eth0"), sink.clone());
        w.inject(tx, udp_packet(30));
        w.run_until(SimTime::from_micros(300));
        let lens: Vec<usize> = sink.borrow_mut().seen.iter().map(|s| s.1).collect();
        assert_eq!(
            lens,
            vec![14 + 20 + 8 + 10, 14 + 20 + 8 + 30],
            "the packet sent while detached is not seen"
        );
    }

    #[test]
    fn probe_attached_before_its_device_exists_fires() {
        let mut w = World::new(1);
        let n = w.add_node("host", 1, NodeClock::perfect());
        let sink = Rc::new(RefCell::new(Recorder {
            seen: Vec::new(),
            cost: SimDuration::ZERO,
        }));
        w.attach_probe(n, Hook::device_rx("late0"), sink.clone());
        w.attach_probe(n, Hook::kretprobe("late_fn"), sink.clone());
        let d = w.add_device(
            DeviceConfig::new("late0", n)
                .forwarding(Forwarding::Deliver)
                .kernel_functions(KernelFunctions::new(&["late_fn"], &[])),
        );
        w.inject(d, udp_packet(10));
        w.run_until(SimTime::from_micros(100));
        assert_eq!(sink.borrow_mut().seen.len(), 2, "tap and kretprobe");
        assert_eq!(w.probes_fired(), 2);
    }

    #[test]
    fn probe_on_a_name_nothing_fires_is_accepted_and_silent() {
        let (mut w, tx, _, got) = pipeline();
        let other = w.add_node("other", 1, NodeClock::perfect());
        let sink = Rc::new(RefCell::new(Recorder {
            seen: Vec::new(),
            cost: SimDuration::from_micros(5),
        }));
        // No such function, no such app, and `eth0` lives on node 0 only.
        let ids = [
            w.attach_probe(NodeId(0), Hook::kprobe("no_such_fn"), sink.clone()),
            w.attach_probe(NodeId(0), Hook::uprobe("no_such_app"), sink.clone()),
            w.attach_probe(other, Hook::device_rx("eth0"), sink.clone()),
        ];
        w.inject(tx, udp_packet(56));
        w.run_until(SimTime::from_millis(1));
        assert_eq!(got.borrow_mut()[0].0, SimTime::from_micros(13));
        assert!(sink.borrow_mut().seen.is_empty());
        assert_eq!(w.probes_fired(), 0);
        assert!(ids.into_iter().all(|id| w.detach_probe(id)));
    }

    #[test]
    fn queue_overflow_drops() {
        let mut w = World::new(2);
        let n = w.add_node("host", 1, NodeClock::perfect());
        let d = w.add_device(
            DeviceConfig::new("tiny", n)
                .queue_capacity(2)
                .service(ServiceModel::Fixed(SimDuration::from_millis(10)))
                .forwarding(Forwarding::Deliver),
        );
        for _ in 0..5 {
            w.inject(d, udp_packet(10));
        }
        w.run_until(SimTime::from_micros(1));
        // All five arrive in the same instant, before service can drain
        // the queue: two fit, three are tail-dropped.
        assert_eq!(w.device_counters(d).dropped_queue_full, 3);
    }

    #[test]
    fn policer_drops_excess() {
        let mut w = World::new(3);
        let n = w.add_node("host", 1, NodeClock::perfect());
        let d = w.add_device(
            DeviceConfig::new("vnet0", n)
                // 8 kbps, burst 1 kb = 125 bytes: one 100B packet fits.
                .policer(PolicerConfig {
                    rate_kbps: 8,
                    burst_kb: 1,
                })
                .forwarding(Forwarding::Deliver),
        );
        w.inject(d, udp_packet(60));
        w.inject(d, udp_packet(60));
        w.run_until(SimTime::from_micros(10));
        let c = w.device_counters(d);
        assert_eq!(c.rx_packets, 1);
        assert_eq!(c.dropped_policed, 1);
    }

    #[test]
    fn by_dst_ip_routing() {
        let mut w = World::new(4);
        let n = w.add_node("host", 1, NodeClock::perfect());
        let sink_a = w.add_device(DeviceConfig::new("a", n).forwarding(Forwarding::Deliver));
        let sink_b = w.add_device(DeviceConfig::new("b", n).forwarding(Forwarding::Deliver));
        let mut routes = std::collections::BTreeMap::new();
        routes.insert("10.0.0.2".parse().unwrap(), 0usize);
        routes.insert("10.0.0.9".parse().unwrap(), 1usize);
        let sw = w.add_device(DeviceConfig::new("br", n).forwarding(Forwarding::ByDstIp {
            routes,
            default: None,
        }));
        w.connect(sw, sink_a, SimDuration::ZERO);
        w.connect(sw, sink_b, SimDuration::ZERO);
        w.inject(sw, udp_packet(10)); // dst 10.0.0.2 -> port 0
        let other = PacketBuilder::udp(
            FlowKey::udp(
                SocketAddrV4::sock("10.0.0.1", 1),
                SocketAddrV4::sock("10.0.0.9", 2),
            ),
            vec![0; 10],
        )
        .build();
        w.inject(sw, other); // -> port 1
        let third = PacketBuilder::udp(
            FlowKey::udp(
                SocketAddrV4::sock("10.0.0.1", 1),
                SocketAddrV4::sock("10.9.9.9", 2),
            ),
            vec![0; 10],
        )
        .build();
        w.inject(sw, third); // no route -> dropped
        w.run_until(SimTime::from_millis(1));
        assert_eq!(w.device_counters(sink_a).rx_packets, 1);
        assert_eq!(w.device_counters(sink_b).rx_packets, 1);
        assert_eq!(w.device_counters(sw).dropped_no_route, 1);
    }

    #[test]
    fn softirq_gate_serializes_on_one_cpu() {
        let mut w = World::new(5);
        let n = w.add_node("vm", 4, NodeClock::perfect());
        let d = w.add_device(
            DeviceConfig::new("virtio-rx", n)
                .gate(Gate::Softirq(Steering::IrqAffinity(0)))
                .service(ServiceModel::Fixed(SimDuration::from_micros(10)))
                .forwarding(Forwarding::Deliver)
                .kernel_functions(KernelFunctions::new(&["net_rx_action"], &[])),
        );
        let got = Rc::new(RefCell::new(Vec::new()));
        let app = w.add_app(
            n,
            d,
            Box::new(Counter {
                got: Rc::clone(&got),
            }),
        );
        w.bind_app(d, 2000, app);
        for _ in 0..3 {
            w.inject(d, udp_packet(10));
        }
        w.run_until(SimTime::from_millis(1));
        let times: Vec<_> = got.borrow_mut().iter().map(|(t, _)| *t).collect();
        assert_eq!(
            times,
            vec![
                SimTime::from_micros(10),
                SimTime::from_micros(20),
                SimTime::from_micros(30)
            ]
        );
        let eng = w.softirq_engine(n);
        assert_eq!(eng.all_counters()[0].net_rx_actions, 3);
        assert_eq!(eng.concentration(), 1.0);
    }

    #[test]
    fn rps_steering_spreads_flows_not_connections() {
        let mut w = World::new(6);
        let n = w.add_node("vm", 4, NodeClock::perfect());
        let d = w.add_device(
            DeviceConfig::new("rps-dev", n)
                .gate(Gate::Softirq(Steering::Rps))
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .forwarding(Forwarding::Deliver),
        );
        // Same connection repeatedly: must land on one CPU.
        for _ in 0..10 {
            w.inject(d, udp_packet(10));
        }
        w.run_until(SimTime::from_millis(1));
        let eng = w.softirq_engine(n);
        assert_eq!(eng.concentration(), 1.0, "one connection -> one CPU");
        assert_eq!(eng.total_net_rx_actions(), 10);
    }

    #[test]
    fn trace_id_injected_on_app_send_and_stripped_on_delivery() {
        let mut w = World::new(7);
        let n = w.add_node("host", 1, NodeClock::perfect());
        let tx = w.add_device(DeviceConfig::new("stack-tx", n).trace_id(TraceIdRole::Inject));
        let rx = w.add_device(
            DeviceConfig::new("stack-rx", n)
                .forwarding(Forwarding::Deliver)
                .trace_id(TraceIdRole::StripUdpTrailer),
        );
        w.connect(tx, rx, SimDuration::ZERO);

        // Tap between the stacks to observe the on-wire packet.
        let sink = Rc::new(RefCell::new(Recorder {
            seen: Vec::new(),
            cost: SimDuration::ZERO,
        }));
        w.attach_probe(n, Hook::device_tx("stack-tx"), sink.clone());

        struct Sender;
        impl App for Sender {
            fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
                let flow = FlowKey::udp(
                    SocketAddrV4::sock("10.0.0.1", 1000),
                    SocketAddrV4::sock("10.0.0.2", 2000),
                );
                ctx.send(PacketBuilder::udp(flow, vec![7u8; 56]).build());
            }
            fn on_packet(&mut self, _ctx: &mut AppCtx<'_>, _pkt: Packet) {}
        }
        w.add_app(n, tx, Box::new(Sender));
        let got = Rc::new(RefCell::new(Vec::new()));
        let rx_app = w.add_app(
            n,
            tx,
            Box::new(Counter {
                got: Rc::clone(&got),
            }),
        );
        w.bind_app(rx, 2000, rx_app);
        w.run_until(SimTime::from_millis(1));

        // On the wire: payload carries the 4-byte trailer.
        assert_eq!(sink.borrow_mut().seen[0].1, 14 + 20 + 8 + 56 + 4);
        // At the application: trailer stripped, original 56 bytes.
        let deliveries = got.borrow_mut();
        assert_eq!(deliveries.len(), 1);
        let parsed = deliveries[0].1.parse().unwrap();
        assert_eq!(parsed.payload.len(), 56);
        assert!(
            parsed.payload.iter().all(|&b| b == 7),
            "payload bytes intact"
        );
    }

    #[test]
    fn monotonic_uses_node_clock() {
        let mut w = World::new(8);
        let n = w.add_node("skewed", 1, NodeClock::with_offset_ns(1_000_000));
        w.run_until(SimTime::from_micros(10));
        assert_eq!(
            w.nodes[n.index()].clock.monotonic_ns(w.now()),
            1_000_000 + 10_000
        );
    }

    #[test]
    fn vcpu_gate_defers_arrival_until_scheduled() {
        use crate::sched::Credit2Scheduler;
        let mut w = World::new(9);
        let host = w.add_node("xen-host", 1, NodeClock::perfect());
        let mut sched = Credit2Scheduler::new();
        sched.add_vcpu(VcpuId(0), CpuId(0), 256, false); // io VM
        sched.add_vcpu(VcpuId(1), CpuId(0), 256, true); // hog VM
        w.set_scheduler(host, Box::new(sched));
        let vif = w.add_device(
            DeviceConfig::new("vif1.0", host)
                .service(ServiceModel::Fixed(SimDuration::from_micros(1))),
        );
        let eth1 = w.add_device(
            DeviceConfig::new("eth1", host)
                .gate(Gate::Vcpu(VcpuId(0)))
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .forwarding(Forwarding::Deliver),
        );
        w.connect(vif, eth1, SimDuration::ZERO);
        let got = Rc::new(RefCell::new(Vec::new()));
        let app = w.add_app(
            host,
            vif,
            Box::new(Counter {
                got: Rc::clone(&got),
            }),
        );
        w.bind_app(eth1, 2000, app);
        w.inject(vif, udp_packet(56));
        w.run_until(SimTime::from_millis(5));
        let t = got.borrow_mut()[0].0;
        // The hog holds the pCPU for the 1000us ratelimit window; delivery
        // cannot occur much before that.
        assert!(
            t >= SimTime::from_micros(1000),
            "delivery at {t} should be deferred by the ratelimit"
        );
        // With the ratelimit disabled, a fresh run delivers in ~2us.
        let mut w2 = World::new(9);
        let host2 = w2.add_node("xen-host", 1, NodeClock::perfect());
        let mut sched2 = Credit2Scheduler::new();
        sched2.add_vcpu(VcpuId(0), CpuId(0), 256, false);
        sched2.add_vcpu(VcpuId(1), CpuId(0), 256, true);
        sched2.set_ratelimit(SimDuration::ZERO);
        w2.set_scheduler(host2, Box::new(sched2));
        let vif2 = w2.add_device(
            DeviceConfig::new("vif1.0", host2)
                .service(ServiceModel::Fixed(SimDuration::from_micros(1))),
        );
        let eth1b = w2.add_device(
            DeviceConfig::new("eth1", host2)
                .gate(Gate::Vcpu(VcpuId(0)))
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .forwarding(Forwarding::Deliver),
        );
        w2.connect(vif2, eth1b, SimDuration::ZERO);
        let got2 = Rc::new(RefCell::new(Vec::new()));
        let app2 = w2.add_app(
            host2,
            vif2,
            Box::new(Counter {
                got: Rc::clone(&got2),
            }),
        );
        w2.bind_app(eth1b, 2000, app2);
        w2.inject(vif2, udp_packet(56));
        w2.run_until(SimTime::from_millis(5));
        let t2 = got2.borrow_mut()[0].0;
        assert!(
            t2 < SimTime::from_micros(20),
            "no ratelimit -> prompt delivery, got {t2}"
        );
    }

    #[test]
    fn find_device_by_name() {
        let (w, tx, rx, _) = pipeline();
        assert_eq!(w.find_device(NodeId(0), "eth0"), Some(tx));
        assert_eq!(w.find_device(NodeId(0), "stack-rx"), Some(rx));
        assert_eq!(w.find_device(NodeId(0), "nope"), None);
        assert_eq!(w.devices[tx.index()].cfg.name, "eth0");
    }

    #[test]
    fn vxlan_encap_decap_through_devices() {
        let mut w = World::new(10);
        let n = w.add_node("host", 1, NodeClock::perfect());
        let encap = w.add_device(DeviceConfig::new("flannel-tx", n).transform(
            Transform::VxlanEncap {
                vni: 1,
                src: "192.168.0.1".parse().unwrap(),
                dst: "192.168.0.2".parse().unwrap(),
                src_port: 49152,
            },
        ));
        let decap = w.add_device(
            DeviceConfig::new("flannel-rx", n)
                .transform(Transform::VxlanDecap)
                .forwarding(Forwarding::Deliver),
        );
        w.connect(encap, decap, SimDuration::ZERO);
        let got = Rc::new(RefCell::new(Vec::new()));
        let app = w.add_app(
            n,
            encap,
            Box::new(Counter {
                got: Rc::clone(&got),
            }),
        );
        w.bind_app(decap, 2000, app);
        let original = udp_packet(30);
        let original_bytes = original.bytes().to_vec();
        w.inject(encap, original);
        w.run_until(SimTime::from_millis(1));
        let deliveries = got.borrow_mut();
        assert_eq!(deliveries.len(), 1);
        assert_eq!(
            deliveries[0].1.bytes(),
            &original_bytes[..],
            "inner frame restored"
        );
    }

    #[test]
    fn world_debug_nonempty() {
        let w = World::new(0);
        assert!(!format!("{w:?}").is_empty());
    }
}

#[cfg(test)]
mod htb_tests {
    use super::*;
    use crate::device::{DeviceConfig, Forwarding, HtbConfig, ServiceModel};
    use crate::packet::{FlowKey, PacketBuilder, SocketAddrV4Ext};
    use std::cell::RefCell;
    use std::net::SocketAddrV4;
    use std::rc::Rc;

    struct Sink {
        got: Rc<RefCell<Vec<(SimTime, usize)>>>,
    }

    impl crate::app::App for Sink {
        fn on_packet(&mut self, ctx: &mut crate::app::AppCtx<'_>, pkt: Packet) {
            self.got
                .borrow_mut()
                .push((SimTime::from_nanos(ctx.monotonic_ns()), pkt.len()));
        }
    }

    type Seen = Rc<RefCell<Vec<(SimTime, usize)>>>;

    fn shaped_world(htb: HtbConfig) -> (World, DeviceId, Seen) {
        let mut w = World::new(99);
        let n = w.add_node("host", 1, NodeClock::perfect());
        let port = w.add_device(
            DeviceConfig::new("vnet0", n)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(100)))
                .htb(htb),
        );
        let sink = w.add_device(DeviceConfig::new("sink", n).forwarding(Forwarding::Deliver));
        w.connect(port, sink, SimDuration::ZERO);
        let got = Rc::new(RefCell::new(Vec::new()));
        let app = w.add_app(
            n,
            port,
            Box::new(Sink {
                got: Rc::clone(&got),
            }),
        );
        w.bind_app(sink, 7, app);
        (w, port, got)
    }

    fn pkt(payload: usize) -> Packet {
        let flow = FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 1),
            SocketAddrV4::sock("10.0.0.2", 7),
        );
        PacketBuilder::udp(flow, vec![0; payload]).build()
    }

    #[test]
    fn shaped_class_is_paced_small_packets_bypass() {
        // 8 Mbps, tiny burst: a 1000-byte frame needs ~1ms of tokens.
        let (mut w, port, got) = shaped_world(HtbConfig {
            rate_kbps: 8_000,
            burst_kb: 9, // ~1125 bytes: one large frame up front
            shape_min_len: 500,
        });
        // Three large (shaped) frames and one small (bypass) frame.
        for _ in 0..3 {
            w.inject(port, pkt(1_000)); // 1042B frames
        }
        w.inject(port, pkt(20));
        w.run_until(SimTime::from_millis(10));
        let deliveries = got.borrow_mut();
        assert_eq!(deliveries.len(), 4);
        // The small frame is served first (latency class bypasses).
        assert!(deliveries[0].1 < 100, "small frame first: {deliveries:?}");
        assert!(deliveries[0].0 < SimTime::from_micros(1));
        // Large frames are paced at ~8Mbps: 1042B = 8336 bits ≈ 1.04ms
        // apart after the burst allowance covers the first.
        let large: Vec<SimTime> = deliveries[1..].iter().map(|d| d.0).collect();
        let gap = large[2] - large[1];
        assert!(
            (SimDuration::from_micros(950)..SimDuration::from_micros(1_150)).contains(&gap),
            "pacing gap {gap}"
        );
        // Nothing was dropped: shaping queues instead of dropping.
        assert_eq!(w.device_counters(port).dropped_total(), 0);
    }

    #[test]
    #[should_panic(expected = "HTB shaping is not supported")]
    fn htb_on_softirq_device_rejected() {
        let mut w = World::new(1);
        let n = w.add_node("host", 1, NodeClock::perfect());
        w.add_device(
            DeviceConfig::new("bad", n)
                .gate(Gate::Softirq(crate::device::Steering::IrqAffinity(0)))
                .htb(HtbConfig {
                    rate_kbps: 1,
                    burst_kb: 1,
                    shape_min_len: 1,
                }),
        );
    }
}
