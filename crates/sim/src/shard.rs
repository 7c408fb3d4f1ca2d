//! Sharded, conservatively synchronized execution of the event loop.
//!
//! The world's nodes are partitioned into *shards*, each with its own
//! event queue, RNG streams, probe registries and entity tables. Shards
//! advance in lock-step windows: at a barrier every shard publishes the
//! timestamp of its earliest pending event; the global minimum plus the
//! *lookahead* — the smallest latency of any link between two different
//! shards — bounds how far every shard may safely run before the next
//! barrier, because nothing a neighbour does at time `t` can reach this
//! shard before `t + lookahead`. Cross-shard packet hand-offs travel
//! through per-shard mailboxes stamped with their arrival time and the
//! sender's canonical [`PushKey`], so the receiving heap restores the
//! exact global order no matter when the message physically arrives.
//!
//! Determinism is structural, not incidental:
//!
//! * every handler touches only state owned by the node it runs for
//!   (the partitioner merges nodes that share zero-latency links, app
//!   bindings, or an app/tx-device relationship, so this invariant
//!   holds by construction);
//! * every scheduled event carries a key minted from the pushing node's
//!   own deterministic counter, making heap tie-breaks identical at any
//!   shard count;
//! * every random draw comes from a per-node stream derived from the
//!   world seed and the node index.
//!
//! Running with one shard therefore produces bit-for-bit the same
//! simulation as running with eight — the golden e2e snapshots and the
//! determinism test pin this.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use rand::rngs::SmallRng;
use rand::Rng;

use crate::app::{App, AppAction, AppCtx};
use crate::device::{Device, DropReason, Gate, Steering, TraceIdRole, Transform};
use crate::event::{Event, EventQueue, PushKey};
use crate::ids::{AppId, CpuId, DeviceId, NodeId, VcpuId};
use crate::node::Node;
use crate::packet::{
    trace_id, vxlan_decapsulate, vxlan_encapsulate, IpProtocol, Packet, PacketUid,
};
use crate::probe::{Direction, HookId, ProbeEvent, ProbeRegistry};
use crate::profile::LinkProfile;
use crate::sched::HyperScheduler;
use crate::softirq::SoftirqEngine;
use crate::time::{SimDuration, SimTime};

/// A registered application and the state needed to dispatch to it.
pub(crate) struct AppSlot {
    pub(crate) node: NodeId,
    pub(crate) tx_dev: DeviceId,
    pub(crate) name: String,
    /// What `Hook::Uprobe(name)` resolves to in the node's registry.
    pub(crate) uprobe: HookId,
    pub(crate) app: Option<Box<dyn App>>,
}

/// Immutable per-device facts shared read-only by every shard, so a
/// shard can route to and gate on devices it does not own.
#[derive(Debug, Clone, Copy)]
pub(crate) struct DevMeta {
    pub(crate) node: NodeId,
    pub(crate) vcpu: Option<VcpuId>,
}

impl DevMeta {
    pub(crate) fn of(dev: &Device) -> DevMeta {
        DevMeta {
            node: dev.cfg.node,
            vcpu: match dev.cfg.gate {
                Gate::Vcpu(v) => Some(v),
                _ => None,
            },
        }
    }
}

/// An event handed from one shard to another, carrying its canonical key.
pub(crate) struct RemoteEvent {
    pub(crate) at: SimTime,
    pub(crate) key: PushKey,
    pub(crate) event: Event,
}

/// The node whose shard must process `event`.
pub(crate) fn owner_node(event: &Event, dev_meta: &[DevMeta], app_nodes: &[NodeId]) -> NodeId {
    match event {
        Event::Arrive { dev, .. }
        | Event::StartService { dev }
        | Event::FinishService { dev }
        | Event::SetDeviceDown { dev, .. } => dev_meta[dev.index()].node,
        Event::SoftirqStart { node, .. } | Event::SoftirqFinish { node, .. } => *node,
        Event::AppTimer { app, .. } => app_nodes[app.index()],
    }
}

// ----------------------------------------------------------------------
// Partitioning
// ----------------------------------------------------------------------

/// How the world's nodes are split across shards for one run.
pub(crate) struct Partition {
    /// Shard index for each node.
    pub(crate) node_shard: Vec<usize>,
    /// Number of shards actually used (≤ requested parallelism).
    pub(crate) num_shards: usize,
    /// Minimum latency of any link between nodes in different groups —
    /// the conservative synchronization horizon.
    pub(crate) lookahead: SimDuration,
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller root wins.
            let (lo, hi) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent[hi] = lo;
        }
    }
}

/// Groups nodes that must share a shard and spreads the groups over at
/// most `max_shards` shards, balancing by device count.
///
/// Nodes are merged when separating them could let one shard touch the
/// other's state mid-window: zero-latency links (no lookahead), an app
/// and its TX device, and a delivering device and its bound apps.
///
/// For a link driven by a [`LinkProfile`] the effective latency bound is
/// the *minimum delay across every scheduled segment*, never the port's
/// base latency: a profile may shrink the link's delay mid-run, and a
/// lookahead derived from the initial latency would let a cross-shard
/// packet arrive inside an already-closed window.
pub(crate) fn partition_world(
    num_nodes: usize,
    devices: &[Device],
    apps: &[AppSlot],
    max_shards: usize,
    profiles: &[LinkProfile],
) -> Partition {
    let min_latency = |port: &crate::device::Port| match port.profile {
        Some(pid) => profiles[pid as usize].min_delay(),
        None => port.latency,
    };
    let mut uf = UnionFind::new(num_nodes);
    for dev in devices {
        for port in &dev.ports {
            if min_latency(port) == SimDuration::ZERO {
                uf.union(
                    dev.cfg.node.index(),
                    devices[port.peer.index()].cfg.node.index(),
                );
            }
        }
        for app in dev.bindings.values() {
            uf.union(dev.cfg.node.index(), apps[app.index()].node.index());
        }
    }
    for slot in apps {
        uf.union(
            slot.node.index(),
            devices[slot.tx_dev.index()].cfg.node.index(),
        );
    }

    // Weight nodes by device count — a rough proxy for event volume.
    let mut node_weight = vec![1u64; num_nodes];
    for dev in devices {
        node_weight[dev.cfg.node.index()] += 1;
    }

    // Collect groups in order of first appearance (deterministic).
    let mut group_of_root: HashMap<usize, usize> = HashMap::new();
    let mut groups: Vec<Vec<usize>> = Vec::new();
    for node in 0..num_nodes {
        let root = uf.find(node);
        let g = *group_of_root.entry(root).or_insert_with(|| {
            groups.push(Vec::new());
            groups.len() - 1
        });
        groups[g].push(node);
    }

    // Largest group first; greedy assignment to the least-loaded shard.
    let mut order: Vec<usize> = (0..groups.len()).collect();
    let weight_of = |g: &Vec<usize>| g.iter().map(|&n| node_weight[n]).sum::<u64>();
    order.sort_by_key(|&g| (std::cmp::Reverse(weight_of(&groups[g])), groups[g][0]));

    let num_shards = max_shards.min(groups.len()).max(1);
    let mut shard_load = vec![0u64; num_shards];
    let mut node_shard = vec![0usize; num_nodes];
    for g in order {
        let target = (0..num_shards)
            .min_by_key(|&s| (shard_load[s], s))
            .expect("at least one shard");
        shard_load[target] += weight_of(&groups[g]);
        for &n in &groups[g] {
            node_shard[n] = target;
        }
    }

    // Lookahead: the smallest latency between *groups* (a lower bound on
    // the smallest cross-shard latency for any assignment of groups).
    let mut lookahead = SimDuration::from_nanos(u64::MAX);
    for dev in devices {
        for port in &dev.ports {
            let a = uf.find(dev.cfg.node.index());
            let b = uf.find(devices[port.peer.index()].cfg.node.index());
            let lat = min_latency(port);
            if a != b && lat < lookahead {
                lookahead = lat;
            }
        }
    }

    Partition {
        node_shard,
        num_shards,
        lookahead,
    }
}

// ----------------------------------------------------------------------
// Shard
// ----------------------------------------------------------------------

/// One shard: a subset of nodes with their devices, apps, probes, RNG
/// streams, schedulers and softirq engines, plus a private event queue.
///
/// Entity tables keep the world's global indexing (full-length vectors
/// of `Option`), so device and app ids work unchanged; a shard only ever
/// touches the `Some` entries it owns.
pub(crate) struct Shard<'w> {
    pub(crate) id: usize,
    pub(crate) now: SimTime,
    pub(crate) queue: EventQueue,
    pub(crate) events_processed: u64,
    pub(crate) nodes: &'w [Node],
    pub(crate) dev_meta: &'w [DevMeta],
    pub(crate) app_nodes: &'w [NodeId],
    pub(crate) node_shard: &'w [usize],
    pub(crate) link_profiles: &'w [LinkProfile],
    pub(crate) devices: Vec<Option<Device>>,
    pub(crate) apps: Vec<Option<AppSlot>>,
    pub(crate) probes: Vec<Option<ProbeRegistry>>,
    pub(crate) node_rngs: Vec<Option<SmallRng>>,
    pub(crate) schedulers: HashMap<NodeId, Box<dyn HyperScheduler>>,
    pub(crate) softirq: HashMap<NodeId, SoftirqEngine>,
    pub(crate) push_seq: Vec<u64>,
    pub(crate) uid_seq: Vec<u64>,
    outbox: Vec<Vec<RemoteEvent>>,
}

impl<'w> Shard<'w> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        now: SimTime,
        num_shards: usize,
        nodes: &'w [Node],
        dev_meta: &'w [DevMeta],
        app_nodes: &'w [NodeId],
        node_shard: &'w [usize],
        link_profiles: &'w [LinkProfile],
        num_devices: usize,
        num_apps: usize,
    ) -> Self {
        Shard {
            id,
            now,
            queue: EventQueue::new(),
            events_processed: 0,
            nodes,
            dev_meta,
            app_nodes,
            node_shard,
            link_profiles,
            devices: (0..num_devices).map(|_| None).collect(),
            apps: (0..num_apps).map(|_| None).collect(),
            probes: (0..nodes.len()).map(|_| None).collect(),
            node_rngs: (0..nodes.len()).map(|_| None).collect(),
            schedulers: HashMap::new(),
            softirq: HashMap::new(),
            push_seq: vec![0; nodes.len()],
            uid_seq: vec![0; nodes.len()],
            outbox: (0..num_shards).map(|_| Vec::new()).collect(),
        }
    }

    fn dev(&self, i: usize) -> &Device {
        self.devices[i].as_ref().expect("device owned by shard")
    }

    fn dev_mut(&mut self, i: usize) -> &mut Device {
        self.devices[i].as_mut().expect("device owned by shard")
    }

    /// Mints the canonical push key for an event pushed now by `node`.
    fn mint_key(&mut self, node: NodeId) -> PushKey {
        let c = &mut self.push_seq[node.index()];
        let key = PushKey {
            time: self.now,
            node: node.0,
            seq: *c,
        };
        *c += 1;
        key
    }

    /// Allocates a packet uid from `node`'s stream. Uids are namespaced
    /// by node so allocation is independent of shard layout.
    fn next_uid(&mut self, node: NodeId) -> PacketUid {
        let c = &mut self.uid_seq[node.index()];
        *c += 1;
        PacketUid(((u64::from(node.0) + 1) << 40) | *c)
    }

    /// Schedules `event` at `at`, minting its key from `pusher`; events
    /// owned by another shard go to that shard's outbox.
    fn route(&mut self, pusher: NodeId, at: SimTime, event: Event) {
        let key = self.mint_key(pusher);
        let owner = owner_node(&event, self.dev_meta, self.app_nodes);
        let dest = self.node_shard[owner.index()];
        if dest == self.id {
            self.queue.push(at, key, event);
        } else {
            self.outbox[dest].push(RemoteEvent { at, key, event });
        }
    }

    // ------------------------------------------------------------------
    // Event handling (the former single-threaded World loop, verbatim in
    // behaviour; only state access and event scheduling changed)
    // ------------------------------------------------------------------

    fn handle(&mut self, event: Event) {
        match event {
            Event::Arrive { dev, from, pkt } => self.handle_arrive(dev, from, pkt),
            Event::StartService { dev } => self.handle_start(dev),
            Event::FinishService { dev } => self.handle_finish(dev),
            Event::SoftirqStart { node, cpu } => self.handle_softirq_start(node, cpu),
            Event::SoftirqFinish { node, cpu, dev } => self.handle_softirq_finish(node, cpu, dev),
            Event::AppTimer { app, tag } => {
                self.dispatch_app(app, |a, ctx| a.on_timer(ctx, tag));
            }
            Event::SetDeviceDown { dev, down } => self.handle_set_down(dev, down),
        }
    }

    /// Applies a scheduled administrative up/down flip to a device this
    /// shard owns — the event-loop form of
    /// [`crate::world::World::set_device_down`], identical in behaviour:
    /// a revived device with queued packets resumes service.
    fn handle_set_down(&mut self, dev_id: DeviceId, down: bool) {
        let i = dev_id.index();
        let now = self.now;
        self.dev_mut(i).down = down;
        if !down && !self.dev(i).busy && self.dev(i).queue_len() > 0 {
            let node = self.dev(i).cfg.node;
            self.route(node, now, Event::StartService { dev: dev_id });
        }
    }

    /// Fires `hook` on `node`, returning the cost of the probes attached
    /// there — zero, and nothing else done, when none are. Every hook a
    /// device or application fires goes through here, with an id that
    /// was resolved before the run.
    #[allow(clippy::too_many_arguments)]
    fn fire(
        &mut self,
        node: NodeId,
        hook: HookId,
        cpu: CpuId,
        device: Option<DeviceId>,
        direction: Direction,
        pkt: &Packet,
        monotonic_ns: u64,
        aux: u32,
    ) -> SimDuration {
        let probes = self.probes[node.index()]
            .as_mut()
            .expect("probes owned by shard");
        if probes.is_empty(hook) {
            return SimDuration::ZERO;
        }
        probes.fire(
            hook,
            &ProbeEvent {
                node,
                cpu,
                device,
                direction,
                packet: Some(pkt),
                monotonic_ns,
                aux,
            },
        )
    }

    /// Where and when device `i` fires a hook now: its node, itself, and
    /// the node's clock reading.
    fn firing_site(&self, i: usize) -> (NodeId, Option<DeviceId>, u64) {
        let dev = self.dev(i);
        let node = dev.cfg.node;
        let mono = self.nodes[node.index()].clock.monotonic_ns(self.now);
        (node, Some(dev.id), mono)
    }

    /// Fires the entry and return hooks of each kernel function on device
    /// `i`'s receive (`Direction::Rx`) or transmit path, in order.
    fn kernel_function_hooks(
        &mut self,
        i: usize,
        direction: Direction,
        pkt: &Packet,
        cpu: CpuId,
    ) -> SimDuration {
        let (node, dev, mono) = self.firing_site(i);
        let mut cost = SimDuration::ZERO;
        for k in 0..self.dev(i).hooks.kernel_functions(direction).len() {
            let (entry, ret) = self.dev(i).hooks.kernel_functions(direction)[k];
            cost += self.fire(node, entry, cpu, dev, direction, pkt, mono, 0);
            cost += self.fire(node, ret, cpu, dev, direction, pkt, mono, 0);
        }
        cost
    }

    /// Fires the `kfree_skb` kprobe when device `i` drops a packet, so
    /// tracers can observe and attribute drops exactly as on a real
    /// kernel: the event's `aux` word carries the typed [`DropReason`]
    /// code, mirroring the kernel's `kfree_skb_reason` argument. The
    /// cost is charged nowhere — the packet is gone.
    fn drop_hook(&mut self, i: usize, pkt: &Packet, reason: DropReason) {
        let (node, dev, mono) = self.firing_site(i);
        let (hook, rx) = (HookId::KFREE_SKB, Direction::Rx);
        self.fire(node, hook, CpuId(0), dev, rx, pkt, mono, reason.code());
    }

    /// Fires the OVS datapath hooks when fabric device `i` serves a
    /// packet: `ovs_flow_tbl_lookup` entry (aux = megaflow-hit flag) and
    /// return (stamped after the lookup cost, so entry/return latency
    /// *is* the fabric's flow-table time), plus `ovs_dp_upcall` on a
    /// megaflow miss — the slow path that punts the flow to userspace.
    /// Returns the probe cost, charged to the packet's service like any
    /// other hook.
    fn ovs_hooks(
        &mut self,
        i: usize,
        pkt: &Packet,
        cpu: CpuId,
        hit: bool,
        lookup_cost: SimDuration,
    ) -> SimDuration {
        let (node, dev, entry) = self.firing_site(i);
        let ret = self.nodes[node.index()]
            .clock
            .monotonic_ns(self.now + lookup_cost);
        let rx = Direction::Rx;
        let aux = u32::from(hit);
        let mut cost = self.fire(node, HookId::OVS_LOOKUP, cpu, dev, rx, pkt, entry, aux);
        cost += self.fire(node, HookId::OVS_LOOKUP_RETURN, cpu, dev, rx, pkt, ret, aux);
        if !hit {
            cost += self.fire(node, HookId::OVS_UPCALL, cpu, dev, rx, pkt, entry, 0);
        }
        cost
    }

    /// Fires the TX-side hooks when device `i` finishes serving `pkt`:
    /// its transmit-path kernel functions, then its TX tap.
    fn tx_hooks(&mut self, i: usize, pkt: &Packet, cpu: CpuId) -> SimDuration {
        let (node, dev, mono) = self.firing_site(i);
        let tap = self.dev(i).hooks.tx_tap;
        let cost = self.kernel_function_hooks(i, Direction::Tx, pkt, cpu);
        cost + self.fire(node, tap, cpu, dev, Direction::Tx, pkt, mono, 0)
    }

    fn handle_arrive(&mut self, dev_id: DeviceId, from: Option<DeviceId>, pkt: Packet) {
        let i = dev_id.index();
        let irq_cpu = match self.dev(i).cfg.gate {
            Gate::Softirq(Steering::IrqAffinity(c)) => CpuId(c),
            _ => CpuId(0),
        };
        // The RX tap fires on arrival; a softirq-gated device's
        // kernel-function hooks fire later, when the softirq runs.
        let (node, dev, mono) = self.firing_site(i);
        let (tap, rx) = (self.dev(i).hooks.rx_tap, Direction::Rx);
        let mut overhead = self.fire(node, tap, irq_cpu, dev, rx, &pkt, mono, 0);
        if !matches!(self.dev(i).cfg.gate, Gate::Softirq(_)) {
            overhead += self.kernel_function_hooks(i, rx, &pkt, irq_cpu);
        }
        let now = self.now;
        let dev = self.dev_mut(i);
        if dev.down {
            dev.counters.dropped_down += 1;
            self.drop_hook(i, &pkt, DropReason::Down);
            return;
        }
        let dev = self.dev_mut(i);
        // Ingress policing (OVS rate limiting, Case Study I).
        if let Some(tb) = dev.policer.as_mut() {
            if !tb.admit(pkt.len(), now) {
                dev.counters.dropped_policed += 1;
                self.drop_hook(i, &pkt, DropReason::Policed);
                return;
            }
        }
        let dev = self.dev_mut(i);
        // Each HTB class has its own queue limit, as real qdisc classes
        // do — a saturated bulk class must not starve the latency class
        // at admission.
        let shaped_class = dev
            .cfg
            .htb
            .map(|h| pkt.len() >= h.shape_min_len)
            .unwrap_or(false);
        let class_depth = if shaped_class {
            dev.shaped_queue.len()
        } else {
            dev.queue.len()
        };
        if class_depth >= dev.cfg.queue_capacity {
            dev.counters.dropped_queue_full += 1;
            self.drop_hook(i, &pkt, DropReason::QueueFull);
            return;
        }
        let dev = self.dev_mut(i);
        dev.counters.rx_packets += 1;
        dev.counters.rx_bytes += pkt.len() as u64;
        let gate = dev.cfg.gate;
        let node_id = dev.cfg.node;
        // For RPS steering we need the flow before the packet is queued.
        let steer_cpu = match gate {
            Gate::Softirq(Steering::Rps) => {
                let ncpu = self.nodes[node_id.index()].num_cpus;
                let cpu = pkt
                    .parse()
                    .map(|p| (p.flow().rps_hash() % u32::from(ncpu)) as u16)
                    .unwrap_or(0);
                Some(CpuId(cpu))
            }
            Gate::Softirq(Steering::IrqAffinity(c)) => Some(CpuId(c)),
            _ => None,
        };
        let dev = self.dev_mut(i);
        let qp = crate::device::QueuedPacket {
            pkt,
            overhead,
            from,
        };
        if shaped_class {
            dev.shaped_queue.push_back(qp);
        } else {
            dev.queue.push_back(qp);
        }
        match gate {
            Gate::Softirq(_) => {
                let cpu = steer_cpu.expect("softirq gate computed a cpu");
                let engine = self
                    .softirq
                    .get_mut(&node_id)
                    .expect("node has softirq engine");
                if engine.raise(cpu, dev_id) {
                    self.route(node_id, now, Event::SoftirqStart { node: node_id, cpu });
                }
            }
            _ => {
                if !self.dev(i).busy {
                    self.route(node_id, now, Event::StartService { dev: dev_id });
                }
            }
        }
    }

    fn handle_start(&mut self, dev_id: DeviceId) {
        let i = dev_id.index();
        let now = self.now;
        if self.dev(i).busy || self.dev(i).queue_len() == 0 || self.dev(i).down {
            return;
        }
        let node = self.dev(i).cfg.node;
        // vCPU-gated devices can only serve while their vCPU is scheduled.
        if let Gate::Vcpu(vcpu) = self.dev(i).cfg.gate {
            let gate_at = self
                .schedulers
                .get_mut(&node)
                .map(|s| s.run_gate(vcpu, now))
                .unwrap_or(now);
            if gate_at > now {
                self.route(node, gate_at, Event::StartService { dev: dev_id });
                return;
            }
        }
        let dev = self.dev_mut(i);
        // The unshaped (latency) class is served first; the shaped class
        // only when its token bucket permits.
        let qp = if let Some(qp) = dev.queue.pop_front() {
            qp
        } else {
            let len = dev
                .shaped_queue
                .front()
                .expect("queue_len checked")
                .pkt
                .len();
            let shaper = dev.shaper.as_mut().expect("shaped queue implies shaper");
            let ready = shaper.earliest_admit(len, now);
            if ready > now {
                self.route(node, ready, Event::StartService { dev: dev_id });
                return;
            }
            let dev = self.dev_mut(i);
            let shaper = dev.shaper.as_mut().expect("shaped queue implies shaper");
            shaper.admit(len, now);
            dev.shaped_queue.pop_front().expect("checked non-empty")
        };
        let dev = self.dev_mut(i);
        dev.busy = true;
        let ovs_hit = dev.ovs_lookup_hit(qp.from, now);
        let lookup_cost = dev.service_time(&qp.pkt, qp.from, now);
        let probe_cost = match ovs_hit {
            Some(hit) => self.ovs_hooks(i, &qp.pkt, CpuId(0), hit, lookup_cost),
            None => SimDuration::ZERO,
        };
        let service = lookup_cost + qp.overhead + probe_cost;
        self.dev_mut(i).in_service = Some(qp);
        self.route(node, now + service, Event::FinishService { dev: dev_id });
    }

    fn handle_finish(&mut self, dev_id: DeviceId) {
        let i = dev_id.index();
        let now = self.now;
        let mut qp = self
            .dev_mut(i)
            .in_service
            .take()
            .expect("finish without service");
        self.dev_mut(i).busy = false;
        // Transform before the TX tap fires: what leaves a VXLAN device
        // is the encapsulated frame.
        qp.pkt = self.apply_transform(i, qp.pkt);
        let tx_cost = self.tx_hooks(i, &qp.pkt, CpuId(0));
        {
            let dev = self.dev_mut(i);
            dev.counters.tx_packets += 1;
            dev.counters.tx_bytes += qp.pkt.len() as u64;
        }
        let queue_empty = self.dev(i).queue_len() == 0;
        let node = self.dev(i).cfg.node;
        if let Gate::Vcpu(vcpu) = self.dev(i).cfg.gate {
            if queue_empty {
                if let Some(s) = self.schedulers.get_mut(&node) {
                    s.sleep(vcpu, now);
                }
            }
        }
        if !queue_empty {
            self.route(node, now, Event::StartService { dev: dev_id });
        }
        self.complete_packet(dev_id, qp.pkt, tx_cost);
    }

    fn handle_softirq_start(&mut self, node: NodeId, cpu: CpuId) {
        let now = self.now;
        let Some(dev_id) = self
            .softirq
            .get_mut(&node)
            .expect("engine exists")
            .start(cpu)
        else {
            return;
        };
        let i = dev_id.index();
        // The work item pairs with exactly one queued packet.
        if self.dev(i).queue.front().is_none() {
            // Defensive: work item without a packet (e.g. dropped by a
            // policer after raise) — finish immediately.
            if self
                .softirq
                .get_mut(&node)
                .expect("engine exists")
                .finish(cpu)
            {
                self.route(node, now, Event::SoftirqStart { node, cpu });
            }
            return;
        }
        let qp = self
            .dev_mut(i)
            .queue
            .pop_front()
            .expect("checked non-empty");
        let fn_cost = self.kernel_function_hooks(i, Direction::Rx, &qp.pkt, cpu);
        let dev = self.dev_mut(i);
        let ovs_hit = dev.ovs_lookup_hit(qp.from, now);
        let lookup_cost = dev.service_time(&qp.pkt, qp.from, now);
        let probe_cost = match ovs_hit {
            Some(hit) => self.ovs_hooks(i, &qp.pkt, cpu, hit, lookup_cost),
            None => SimDuration::ZERO,
        };
        let service = lookup_cost + qp.overhead + fn_cost + probe_cost;
        self.dev_mut(i).in_service = Some(qp);
        self.route(
            node,
            now + service,
            Event::SoftirqFinish {
                node,
                cpu,
                dev: dev_id,
            },
        );
    }

    fn handle_softirq_finish(&mut self, node: NodeId, cpu: CpuId, dev_id: DeviceId) {
        let now = self.now;
        let i = dev_id.index();
        let mut qp = self
            .dev_mut(i)
            .in_service
            .take()
            .expect("softirq finish without service");
        qp.pkt = self.apply_transform(i, qp.pkt);
        let tx_cost = self.tx_hooks(i, &qp.pkt, cpu);
        {
            let dev = self.dev_mut(i);
            dev.counters.tx_packets += 1;
            dev.counters.tx_bytes += qp.pkt.len() as u64;
        }
        if self
            .softirq
            .get_mut(&node)
            .expect("engine exists")
            .finish(cpu)
        {
            self.route(node, now, Event::SoftirqStart { node, cpu });
        }
        self.complete_packet(dev_id, qp.pkt, tx_cost);
    }

    /// Applies a device's byte-level transform to a served packet.
    fn apply_transform(&self, dev_idx: usize, pkt: Packet) -> Packet {
        match &self.dev(dev_idx).cfg.transform {
            Transform::None => pkt,
            Transform::VxlanEncap {
                vni,
                src,
                dst,
                src_port,
            } => vxlan_encapsulate(&pkt, *vni, *src, *dst, *src_port),
            Transform::VxlanDecap => match vxlan_decapsulate(&pkt) {
                Ok((_vni, inner)) => inner,
                Err(_) => pkt,
            },
        }
    }

    /// Forwards or delivers a served (already transformed) packet.
    fn complete_packet(&mut self, dev_id: DeviceId, pkt: Packet, extra_delay: SimDuration) {
        let i = dev_id.index();
        let now = self.now;
        let node = self.dev(i).cfg.node;
        let mut pkt = pkt;
        // Forward.
        let decision = match &self.dev(i).cfg.forwarding {
            crate::device::Forwarding::Port(p) => Some(*p),
            crate::device::Forwarding::ByDstIp { routes, default } => match pkt.parse() {
                Ok(parsed) => routes.get(&parsed.ipv4.dst).copied().or(*default),
                Err(_) => *default,
            },
            crate::device::Forwarding::Deliver => None,
        };
        match (
            matches!(
                self.dev(i).cfg.forwarding,
                crate::device::Forwarding::Deliver
            ),
            decision,
        ) {
            (true, _) => {
                if self.dev(i).cfg.trace_id == TraceIdRole::StripUdpTrailer {
                    let _ = trace_id::strip_udp_trailer(&mut pkt);
                }
                let dst_port = pkt.parse().ok().map(|p| p.flow().dst_port);
                let app = dst_port.and_then(|p| self.dev(i).bindings.get(&p).copied());
                match app {
                    Some(app) => {
                        // The application's uprobe. Its cost is charged
                        // nowhere: user-space probe overhead affects the
                        // application, which in this model reacts
                        // instantaneously.
                        let slot = self.apps[app.index()].as_ref().expect("app owned by shard");
                        let (app_node, uprobe) = (slot.node, slot.uprobe);
                        let mono = self.nodes[app_node.index()].clock.monotonic_ns(now);
                        let rx = Direction::Rx;
                        self.fire(app_node, uprobe, CpuId(0), None, rx, &pkt, mono, 0);
                        self.dispatch_app(app, |a, ctx| a.on_packet(ctx, pkt))
                    }
                    None => {
                        self.dev_mut(i).counters.dropped_no_route += 1;
                        self.drop_hook(i, &pkt, DropReason::NoRoute);
                    }
                }
            }
            (false, Some(port_idx)) => {
                let Some(port) = self.dev(i).ports.get(port_idx).copied() else {
                    self.dev_mut(i).counters.dropped_no_route += 1;
                    self.drop_hook(i, &pkt, DropReason::NoRoute);
                    return;
                };
                // A link profile overrides the wire's behaviour with the
                // segment active *now* (when the frame enters the wire):
                // its delay replaces the base latency, its loss model may
                // drop the frame, and its rate serializes frames through
                // the shared wire, queueing them behind each other.
                let mut link_delay = port.latency;
                if let Some(pid) = port.profile {
                    let seg = *self.link_profiles[pid as usize].segment_at(now);
                    if seg.loss_rate > 0.0 {
                        // loss_rate = 1.0 drops unconditionally — no draw,
                        // so a certain loss never perturbs the RNG stream.
                        let lost = seg.loss_rate >= 1.0 || {
                            let rng = self.node_rngs[node.index()]
                                .as_mut()
                                .expect("rng owned by shard");
                            rng.gen_bool(seg.loss_rate)
                        };
                        if lost {
                            self.dev_mut(i).counters.dropped_link += 1;
                            self.drop_hook(i, &pkt, DropReason::Link);
                            return;
                        }
                    }
                    link_delay = seg.delay;
                    if let Some(rate) = seg.rate_bps {
                        let ser = SimDuration::from_nanos(
                            (pkt.len() as u128 * 8 * 1_000_000_000 / rate as u128) as u64,
                        );
                        let wire = &mut self.dev_mut(i).ports[port_idx];
                        let start = wire.wire_busy_until.max(now);
                        let done = start + ser;
                        wire.wire_busy_until = done;
                        link_delay = (done - now) + seg.delay;
                    }
                }
                let mut arrive_at = now + link_delay + extra_delay;
                // Arrival into a vCPU-gated device on the *same node* is
                // deferred until the guest's vCPU is scheduled: the guest
                // cannot see the packet before then (Case Study II). For
                // cross-node links the arrival is not gated at the sender —
                // the receiver's own StartService gate defers the service
                // instead, keeping the decision local to the owning shard.
                let peer_meta = self.dev_meta[port.peer.index()];
                if peer_meta.node == node {
                    if let Some(vcpu) = peer_meta.vcpu {
                        if let Some(s) = self.schedulers.get_mut(&peer_meta.node) {
                            let gate_at = s.run_gate(vcpu, arrive_at);
                            if gate_at > arrive_at {
                                arrive_at = gate_at;
                            }
                        }
                    }
                }
                self.route(
                    node,
                    arrive_at,
                    Event::Arrive {
                        dev: port.peer,
                        from: Some(dev_id),
                        pkt,
                    },
                );
            }
            (false, None) => {
                self.dev_mut(i).counters.dropped_no_route += 1;
                self.drop_hook(i, &pkt, DropReason::NoRoute);
            }
        }
    }

    // ------------------------------------------------------------------
    // App dispatch
    // ------------------------------------------------------------------

    fn dispatch_app<F>(&mut self, app_id: AppId, f: F)
    where
        F: FnOnce(&mut dyn App, &mut AppCtx<'_>),
    {
        let slot = self.apps[app_id.index()]
            .as_mut()
            .expect("app owned by shard");
        let node = slot.node;
        let Some(mut app) = slot.app.take() else {
            panic!("re-entrant dispatch of {app_id}");
        };
        let mono = self.nodes[node.index()].clock.monotonic_ns(self.now);
        let rng = self.node_rngs[node.index()]
            .as_mut()
            .expect("rng owned by shard");
        let mut ctx = AppCtx::new(app_id, node, self.now, mono, rng);
        f(app.as_mut(), &mut ctx);
        let actions = ctx.take_actions();
        self.apps[app_id.index()].as_mut().expect("slot exists").app = Some(app);
        for action in actions {
            match action {
                AppAction::Send(pkt) => self.send_from_app(app_id, pkt),
                AppAction::Timer { delay, tag } => {
                    self.route(node, self.now + delay, Event::AppTimer { app: app_id, tag });
                }
            }
        }
    }

    /// Sends a packet from an app through its bound TX device, applying
    /// the node's trace-ID patch if the device carries one.
    fn send_from_app(&mut self, app_id: AppId, mut pkt: Packet) {
        let slot = self.apps[app_id.index()]
            .as_ref()
            .expect("app owned by shard");
        let node = slot.node;
        let tx = slot.tx_dev;
        if self.dev(tx.index()).cfg.trace_id == TraceIdRole::Inject {
            let rng = self.node_rngs[node.index()]
                .as_mut()
                .expect("rng owned by shard");
            let id: u32 = rng.gen();
            let proto = pkt.parse().map(|p| p.ipv4.protocol);
            match proto {
                Ok(IpProtocol::Tcp) => {
                    let _ = trace_id::inject_tcp_option(&mut pkt, id);
                }
                Ok(IpProtocol::Udp) => {
                    let _ = trace_id::inject_udp_trailer(&mut pkt, id);
                }
                _ => {}
            }
        }
        let uid = self.next_uid(node);
        pkt.set_uid(uid);
        self.route(
            node,
            self.now,
            Event::Arrive {
                dev: tx,
                from: None,
                pkt,
            },
        );
    }

    // ------------------------------------------------------------------
    // Running
    // ------------------------------------------------------------------

    /// Delivers `on_start` to the listed apps that this shard owns, in
    /// registration order.
    pub(crate) fn dispatch_starts(&mut self, unstarted: &[AppId]) {
        for &app in unstarted {
            if self.apps[app.index()].is_some() {
                self.dispatch_app(app, |a, ctx| a.on_start(ctx));
            }
        }
    }

    /// Processes every pending event strictly before `end_exclusive`.
    fn process_window(&mut self, end_exclusive: SimTime) {
        while let Some(at) = self.queue.peek_time() {
            if at >= end_exclusive {
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked event exists");
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_processed += 1;
            self.handle(event);
        }
    }

    /// Moves every pending outbox entry into the destination shards'
    /// mailboxes.
    fn flush_outbox(&mut self, sync: &SharedSync) {
        for (dest, buf) in self.outbox.iter_mut().enumerate() {
            if buf.is_empty() {
                continue;
            }
            sync.inboxes[dest].lock().expect("inbox lock").append(buf);
        }
    }

    /// The single-shard (sequential) loop: exactly the legacy event loop.
    /// Processes events with `at <= bound`; panics when `max_events` is
    /// exceeded.
    pub(crate) fn run_sequential(&mut self, bound: SimTime, max_events: Option<u64>) {
        while let Some(at) = self.queue.peek_time() {
            if at > bound {
                break;
            }
            let (at, event) = self.queue.pop().expect("peeked event exists");
            debug_assert!(at >= self.now, "time went backwards");
            self.now = at;
            self.events_processed += 1;
            if let Some(max) = max_events {
                assert!(self.events_processed <= max, "exceeded event budget {max}");
            }
            self.handle(event);
        }
    }

    /// The parallel worker loop: conservative global windows between
    /// barriers (see the module docs for the protocol and safety
    /// argument).
    pub(crate) fn run_parallel(
        mut self,
        sync: &SharedSync,
        bound: SimTime,
        lookahead: SimDuration,
        max_events: Option<u64>,
        unstarted: &[AppId],
    ) -> Self {
        self.dispatch_starts(unstarted);
        // Start dispatch only touches shard-local state (an app's sends
        // and timers land on its own node), so no flush is needed here;
        // keep one anyway as a guard against future start-time exports.
        self.flush_outbox(sync);
        let bound_ns = bound.as_nanos();
        loop {
            // Publish this shard's next event time, then agree on the
            // global minimum at the barrier.
            let nt = self.queue.peek_time().map_or(u64::MAX, SimTime::as_nanos);
            sync.next_times[self.id].store(nt, Ordering::Relaxed);
            sync.barrier.wait();
            if let Some(max) = max_events {
                // `processed` is stable here: increments happen before the
                // post-window barrier of the previous iteration. Every
                // shard reads the same value and takes the same branch.
                if sync.processed.load(Ordering::Relaxed) > max {
                    sync.over_budget.store(true, Ordering::Relaxed);
                    break;
                }
            }
            let gmin = sync
                .next_times
                .iter()
                .map(|t| t.load(Ordering::Relaxed))
                .min()
                .unwrap_or(u64::MAX);
            if gmin == u64::MAX || gmin > bound_ns {
                break;
            }
            // Anything a neighbour emits at or after `gmin` arrives no
            // earlier than `gmin + lookahead`, so events strictly before
            // that are safe to process now.
            let window_end = bound_ns
                .saturating_add(1)
                .min(gmin.saturating_add(lookahead.as_nanos()));
            let before = self.events_processed;
            self.process_window(SimTime::from_nanos(window_end));
            self.flush_outbox(sync);
            sync.processed
                .fetch_add(self.events_processed - before, Ordering::Relaxed);
            sync.barrier.wait();
            // Import: only this shard reads its own inbox, and the next
            // iteration's barrier orders the import before anyone trusts
            // our published next-event time.
            let imports: Vec<RemoteEvent> = {
                let mut inbox = sync.inboxes[self.id].lock().expect("inbox lock");
                inbox.drain(..).collect()
            };
            for ev in imports {
                debug_assert!(
                    ev.at.as_nanos() >= window_end,
                    "import inside closed window"
                );
                self.queue.push(ev.at, ev.key, ev.event);
            }
        }
        self
    }
}

/// Shared synchronization state for one parallel run.
pub(crate) struct SharedSync {
    barrier: Barrier,
    next_times: Vec<AtomicU64>,
    inboxes: Vec<Mutex<Vec<RemoteEvent>>>,
    processed: AtomicU64,
    over_budget: AtomicBool,
}

impl SharedSync {
    pub(crate) fn new(num_shards: usize) -> Self {
        SharedSync {
            barrier: Barrier::new(num_shards),
            next_times: (0..num_shards).map(|_| AtomicU64::new(u64::MAX)).collect(),
            inboxes: (0..num_shards).map(|_| Mutex::new(Vec::new())).collect(),
            processed: AtomicU64::new(0),
            over_budget: AtomicBool::new(false),
        }
    }

    /// Whether the run stopped because the event budget was exhausted.
    pub(crate) fn over_budget(&self) -> bool {
        self.over_budget.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;

    fn dev(id: u32, node: u32) -> Device {
        Device::new(
            DeviceId(id),
            DeviceConfig::new(format!("d{id}"), NodeId(node)),
            &mut ProbeRegistry::new(),
        )
    }

    fn link(devices: &mut [Device], from: usize, to: u32, latency_ns: u64) {
        devices[from].ports.push(crate::device::Port::new(
            DeviceId(to),
            SimDuration::from_nanos(latency_ns),
        ));
    }

    #[test]
    fn zero_latency_links_merge_nodes() {
        let mut devices = vec![dev(0, 0), dev(1, 1), dev(2, 2)];
        link(&mut devices, 0, 1, 0); // node0 -- node1, zero latency
        link(&mut devices, 1, 2, 5_000); // node1 -- node2, 5us
        let p = partition_world(3, &devices, &[], 8, &[]);
        assert_eq!(p.node_shard[0], p.node_shard[1], "zero link merges");
        assert_ne!(p.node_shard[0], p.node_shard[2], "latency link splits");
        assert_eq!(p.num_shards, 2);
        assert_eq!(p.lookahead, SimDuration::from_micros(5));
    }

    #[test]
    fn lookahead_is_min_cross_group_latency() {
        let mut devices = vec![dev(0, 0), dev(1, 1), dev(2, 2)];
        link(&mut devices, 0, 1, 30_000);
        link(&mut devices, 1, 2, 2_000);
        link(&mut devices, 2, 0, 7_000);
        let p = partition_world(3, &devices, &[], 8, &[]);
        assert_eq!(p.num_shards, 3);
        assert_eq!(p.lookahead, SimDuration::from_micros(2));
    }

    #[test]
    fn lookahead_uses_min_profile_delay_not_base_latency() {
        use crate::profile::{LinkProfile, LinkSegment};
        // Base latency 30us, but the profile schedules a later segment
        // that shrinks the delay to 1us: lookahead must use 1us.
        let mut devices = vec![dev(0, 0), dev(1, 1)];
        link(&mut devices, 0, 1, 30_000);
        devices[0].ports[0].profile = Some(0);
        let profile = LinkProfile::new(vec![
            LinkSegment {
                start: SimTime::ZERO,
                delay: SimDuration::from_micros(30),
                loss_rate: 0.0,
                rate_bps: None,
            },
            LinkSegment {
                start: SimTime::from_millis(1),
                delay: SimDuration::from_micros(1),
                loss_rate: 0.0,
                rate_bps: None,
            },
        ])
        .unwrap();
        let p = partition_world(2, &devices, &[], 8, std::slice::from_ref(&profile));
        assert_eq!(p.num_shards, 2);
        assert_eq!(p.lookahead, SimDuration::from_micros(1));
    }

    #[test]
    fn profile_with_zero_min_delay_merges_nodes() {
        use crate::profile::{LinkProfile, LinkSegment};
        let mut devices = vec![dev(0, 0), dev(1, 1)];
        link(&mut devices, 0, 1, 30_000);
        devices[0].ports[0].profile = Some(0);
        let profile = LinkProfile::new(vec![
            LinkSegment {
                start: SimTime::ZERO,
                delay: SimDuration::from_micros(30),
                loss_rate: 0.0,
                rate_bps: None,
            },
            LinkSegment {
                start: SimTime::from_millis(1),
                delay: SimDuration::ZERO,
                loss_rate: 0.0,
                rate_bps: None,
            },
        ])
        .unwrap();
        let p = partition_world(2, &devices, &[], 8, std::slice::from_ref(&profile));
        assert_eq!(
            p.node_shard[0], p.node_shard[1],
            "a link that can hit zero delay gives no lookahead — merge"
        );
    }

    #[test]
    fn parallelism_caps_shard_count() {
        let devices: Vec<Device> = (0..10).map(|i| dev(i, i)).collect();
        let p = partition_world(10, &devices, &[], 4, &[]);
        assert_eq!(p.num_shards, 4);
        // Balanced: 10 singleton groups over 4 shards -> loads 3/3/2/2.
        let mut loads = vec![0usize; 4];
        for &s in &p.node_shard {
            loads[s] += 1;
        }
        loads.sort_unstable();
        assert_eq!(loads, vec![2, 2, 3, 3]);
    }

    #[test]
    fn app_binding_merges_nodes() {
        let devices = vec![dev(0, 0), dev(1, 1)];
        let apps = vec![AppSlot {
            node: NodeId(0),
            tx_dev: DeviceId(1),
            name: "a".into(),
            uprobe: HookId::UNRESOLVED,
            app: None,
        }];
        let p = partition_world(2, &devices, &apps, 8, &[]);
        assert_eq!(
            p.node_shard[0], p.node_shard[1],
            "app and its tx device share a shard"
        );
    }
}
