//! Tracepoints and probe dispatch.
//!
//! This is the boundary between the simulated kernel and any tracing tool.
//! Devices and the softirq engine fire [`ProbeEvent`]s at named *hooks*
//! (kernel functions, their returns, and raw device taps — mirroring the
//! kprobe/kretprobe/tracepoint/raw-socket attach types of §III-B). A
//! tracer registers a [`ProbeSink`] at a hook; each time the hook fires the
//! sink runs and reports the CPU time it consumed, which the simulator
//! charges to the packet being processed. That charge is how tracing
//! overhead perturbs the traced system — the effect the paper measures in
//! Figure 7.
//!
//! `vnet-sim` deliberately knows nothing about eBPF: the eBPF runtime in
//! `vnet-ebpf` and the SystemTap cost model in `vnet-baselines` both plug in
//! through this one trait.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use serde::{Deserialize, Serialize};

use crate::ids::{CpuId, DeviceId, NodeId};
use crate::packet::Packet;
use crate::time::SimDuration;

/// A place where a probe can attach.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Hook {
    /// Entry of a named kernel function (a `kprobe`).
    FunctionEntry(String),
    /// Return of a named kernel function (a `kretprobe`).
    FunctionReturn(String),
    /// A device's receive tap (raw-socket style attachment).
    DeviceRx(String),
    /// A device's transmit tap.
    DeviceTx(String),
    /// A user-level probe on a named application's receive function
    /// (`uprobe`/`uretprobe`-style application tracing, §III-B).
    Uprobe(String),
}

impl Hook {
    /// Convenience constructor for a kprobe hook.
    pub fn kprobe(function: &str) -> Hook {
        Hook::FunctionEntry(function.to_owned())
    }

    /// Convenience constructor for a kretprobe hook.
    pub fn kretprobe(function: &str) -> Hook {
        Hook::FunctionReturn(function.to_owned())
    }

    /// Convenience constructor for a device RX tap.
    pub fn device_rx(device: &str) -> Hook {
        Hook::DeviceRx(device.to_owned())
    }

    /// Convenience constructor for a device TX tap.
    pub fn device_tx(device: &str) -> Hook {
        Hook::DeviceTx(device.to_owned())
    }

    /// Convenience constructor for an application-level uprobe.
    pub fn uprobe(app: &str) -> Hook {
        Hook::Uprobe(app.to_owned())
    }
}

impl core::fmt::Display for Hook {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Hook::FunctionEntry(s) => write!(f, "kprobe:{s}"),
            Hook::FunctionReturn(s) => write!(f, "kretprobe:{s}"),
            Hook::DeviceRx(s) => write!(f, "rx:{s}"),
            Hook::DeviceTx(s) => write!(f, "tx:{s}"),
            Hook::Uprobe(s) => write!(f, "uprobe:{s}"),
        }
    }
}

/// Direction of the packet relative to the device firing the probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Direction {
    /// The packet is being received.
    Rx,
    /// The packet is being transmitted.
    Tx,
}

/// The context handed to a probe when its hook fires.
#[derive(Debug)]
pub struct ProbeEvent<'a> {
    /// Node on which the hook fired.
    pub node: NodeId,
    /// CPU on which the hook fired.
    pub cpu: CpuId,
    /// Device associated with the event, if any.
    pub device: Option<DeviceId>,
    /// Packet direction at the firing point.
    pub direction: Direction,
    /// The packet, if the hook carries one.
    pub packet: Option<&'a Packet>,
    /// The node's `CLOCK_MONOTONIC` reading at the instant the hook fired,
    /// in nanoseconds — what `bpf_ktime_get_ns()` returns.
    pub monotonic_ns: u64,
    /// Hook-specific auxiliary word, mirroring the probed function's
    /// argument registers: the typed [`crate::device::DropReason`] code at
    /// `kfree_skb`, the flow-table hit flag at `ovs_flow_tbl_lookup`, and
    /// zero everywhere else.
    pub aux: u32,
}

/// What a probe reports back after running.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProbeOutcome {
    /// CPU time the probe consumed; charged to the packet's processing.
    pub cost: SimDuration,
}

impl ProbeOutcome {
    /// A probe execution that consumed `cost` of CPU time.
    pub fn with_cost(cost: SimDuration) -> Self {
        ProbeOutcome { cost }
    }
}

/// A handler invoked when a hook fires.
///
/// Implementations: the eBPF program runner in `vnet-ebpf` (via
/// `vnettracer`), and the SystemTap cost model in `vnet-baselines`.
pub trait ProbeSink {
    /// Handles one firing of the hook and reports the CPU time consumed.
    fn handle(&mut self, event: &ProbeEvent<'_>) -> ProbeOutcome;
}

/// Shared handle to a probe sink.
///
/// `Rc<RefCell<_>>` lets the tracer keep a handle to its own sink (to read
/// maps and buffers between runs) while the registry drives it. The
/// registry borrows a sink only for the duration of one firing, and the
/// tracer reads between `run_until` calls, so the two never overlap.
pub type SharedSink = Rc<RefCell<dyn ProbeSink>>;

/// Identifies an attached probe so it can be detached at runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProbeId(pub(crate) u64);

struct Attachment {
    id: ProbeId,
    sink: SharedSink,
}

/// A [`Hook`] resolved against one node's [`ProbeRegistry`]: the index of
/// the hook's attachment list. Whatever fires a hook resolves it once
/// and fires by id from then on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HookId(u32);

impl HookId {
    /// `kfree_skb` entry, fired by every device that drops a packet.
    pub(crate) const KFREE_SKB: HookId = HookId(0);
    /// `ovs_flow_tbl_lookup` entry, fired by OVS fabric devices.
    pub(crate) const OVS_LOOKUP: HookId = HookId(1);
    /// `ovs_flow_tbl_lookup` return.
    pub(crate) const OVS_LOOKUP_RETURN: HookId = HookId(2);
    /// `ovs_dp_upcall` entry, fired on a megaflow miss.
    pub(crate) const OVS_UPCALL: HookId = HookId(3);
    /// What a device or application holds while no probe has ever
    /// attached on its node: a slot that does not exist, hence is empty.
    pub(crate) const UNRESOLVED: HookId = HookId(u32::MAX);
}

/// One node's registry of attached probes.
///
/// Hooks are interned by name into dense slots, from both sides: the
/// tracer's [`attach`](ProbeRegistry::attach) and the device or
/// application that fires the hook each resolve the same name to the
/// same [`HookId`], in either order — so a probe may attach before the
/// device it names exists, or to a name nothing ever fires. Multiple
/// probes may share a hook and run in attach order. Attach and detach
/// are runtime operations — the programmability the paper emphasises
/// (§III-D).
///
/// Interning starts with the node's first probe. Until then the registry
/// is [idle](ProbeRegistry::is_idle) and holds nothing, so building a
/// node nobody traces allocates no names.
#[derive(Default)]
pub struct ProbeRegistry {
    ids: HashMap<Hook, HookId>,
    slots: Vec<Vec<Attachment>>,
    next_id: u64,
    fired: u64,
}

impl ProbeRegistry {
    /// Creates a registry with no probes attached.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether no hook has been interned yet — no probe has ever attached
    /// on this node.
    pub fn is_idle(&self) -> bool {
        self.ids.is_empty()
    }

    /// Resolves `hook` to its slot, creating an empty one on first sight.
    pub fn intern(&mut self, hook: Hook) -> HookId {
        if self.is_idle() {
            // The hooks every node fires whatever its devices are take
            // the first slots, in the order of the `HookId` constants.
            for fixed in [
                Hook::kprobe("kfree_skb"),
                Hook::kprobe("ovs_flow_tbl_lookup"),
                Hook::kretprobe("ovs_flow_tbl_lookup"),
                Hook::kprobe("ovs_dp_upcall"),
            ] {
                self.slot_of(fixed);
            }
        }
        self.slot_of(hook)
    }

    fn slot_of(&mut self, hook: Hook) -> HookId {
        let next = HookId(self.slots.len() as u32);
        let id = *self.ids.entry(hook).or_insert(next);
        if id == next {
            self.slots.push(Vec::new());
        }
        id
    }

    /// What a device or application added to this node fires for `hook`:
    /// its slot, or [`HookId::UNRESOLVED`] (and `hook` is never built)
    /// while the registry is idle — the world resolves again when the
    /// node's first probe attaches.
    pub(crate) fn resolve(&mut self, hook: impl FnOnce() -> Hook) -> HookId {
        if self.is_idle() {
            HookId::UNRESOLVED
        } else {
            self.intern(hook())
        }
    }

    /// Attaches `sink` at `hook`, returning a handle for detaching.
    pub fn attach(&mut self, hook: Hook, sink: SharedSink) -> ProbeId {
        let id = ProbeId(self.next_id);
        self.attach_with_id(id, hook, sink);
        id
    }

    /// Attaches `sink` under a caller-allocated id. The world uses this to
    /// keep probe ids unique across its per-node registries.
    pub(crate) fn attach_with_id(&mut self, id: ProbeId, hook: Hook, sink: SharedSink) {
        self.next_id = self.next_id.max(id.0 + 1);
        let slot = self.intern(hook);
        self.slots[slot.0 as usize].push(Attachment { id, sink });
    }

    /// Detaches a previously attached probe. Returns `true` if it was
    /// attached.
    pub fn detach(&mut self, id: ProbeId) -> bool {
        for list in &mut self.slots {
            if let Some(pos) = list.iter().position(|a| a.id == id) {
                list.remove(pos);
                return true;
            }
        }
        false
    }

    /// Whether nothing is attached at `hook` — firing it would do nothing.
    pub fn is_empty(&self, hook: HookId) -> bool {
        self.slots.get(hook.0 as usize).is_none_or(Vec::is_empty)
    }

    /// Runs every probe attached at `hook`, in attach order, summing
    /// their costs.
    pub fn fire(&mut self, hook: HookId, event: &ProbeEvent<'_>) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for a in &self.slots[hook.0 as usize] {
            self.fired += 1;
            total += a.sink.borrow_mut().handle(event).cost;
        }
        total
    }

    /// Total number of probe executions so far.
    pub fn fired_count(&self) -> u64 {
        self.fired
    }

    /// Number of currently attached probes.
    pub fn attached_count(&self) -> usize {
        self.slots.iter().map(Vec::len).sum()
    }
}

impl core::fmt::Debug for ProbeRegistry {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ProbeRegistry")
            .field("attached", &self.attached_count())
            .field("fired", &self.fired)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counting {
        hits: u64,
        cost: SimDuration,
    }

    impl ProbeSink for Counting {
        fn handle(&mut self, _event: &ProbeEvent<'_>) -> ProbeOutcome {
            self.hits += 1;
            ProbeOutcome::with_cost(self.cost)
        }
    }

    fn counting(cost_ns: u64) -> Rc<RefCell<Counting>> {
        Rc::new(RefCell::new(Counting {
            hits: 0,
            cost: SimDuration::from_nanos(cost_ns),
        }))
    }

    fn event() -> ProbeEvent<'static> {
        ProbeEvent {
            node: NodeId(0),
            cpu: CpuId(0),
            device: None,
            direction: Direction::Rx,
            packet: None,
            monotonic_ns: 42,
            aux: 0,
        }
    }

    #[test]
    fn attach_fire_detach() {
        let mut reg = ProbeRegistry::new();
        let sink = counting(5);
        let hook = Hook::kprobe("net_rx_action");
        let slot = reg.intern(hook.clone());
        assert!(reg.is_empty(slot));
        let id = reg.attach(hook.clone(), sink.clone());
        assert_eq!(reg.intern(hook), slot, "both sides resolve to one slot");
        assert!(!reg.is_empty(slot));
        assert_eq!(reg.fire(slot, &event()), SimDuration::from_nanos(5));
        assert_eq!(sink.borrow_mut().hits, 1);
        assert!(reg.detach(id));
        assert!(!reg.detach(id), "double detach reports false");
        assert!(reg.is_empty(slot));
        assert_eq!(reg.fire(slot, &event()), SimDuration::ZERO);
        assert_eq!(sink.borrow_mut().hits, 1);
    }

    #[test]
    fn idle_registry_resolves_to_the_null_slot() {
        let mut reg = ProbeRegistry::new();
        let slot = reg.resolve(|| unreachable!("no name is built while idle"));
        assert!(reg.is_idle());
        assert!(reg.is_empty(slot) && reg.is_empty(HookId::KFREE_SKB));
        let hook = Hook::device_rx("eth0");
        reg.attach(hook.clone(), counting(0));
        assert!(!reg.is_idle());
        let slot = reg.resolve(|| hook.clone());
        assert_eq!(slot, reg.intern(hook));
        assert!(!reg.is_empty(slot));
    }

    #[test]
    fn multiple_probes_costs_sum() {
        let mut reg = ProbeRegistry::new();
        let hook = Hook::device_rx("eth0");
        for _ in 0..3 {
            reg.attach(hook.clone(), counting(10));
        }
        assert_eq!(reg.attached_count(), 3);
        let slot = reg.intern(hook);
        assert_eq!(reg.fire(slot, &event()), SimDuration::from_nanos(30));
        assert_eq!(reg.fired_count(), 3);
    }

    /// A sink appending its tag to a log shared by every probe at a hook.
    struct Tagged {
        tag: char,
        log: Rc<RefCell<Vec<char>>>,
    }

    impl ProbeSink for Tagged {
        fn handle(&mut self, _event: &ProbeEvent<'_>) -> ProbeOutcome {
            self.log.borrow_mut().push(self.tag);
            ProbeOutcome::default()
        }
    }

    #[test]
    fn probes_run_in_attach_order_across_a_detach() {
        let mut reg = ProbeRegistry::new();
        let hook = Hook::device_tx("eth0");
        let log = Rc::new(RefCell::new(Vec::new()));
        let ids: Vec<ProbeId> = ['a', 'b', 'c']
            .into_iter()
            .map(|tag| {
                let log = Rc::clone(&log);
                reg.attach(hook.clone(), Rc::new(RefCell::new(Tagged { tag, log })))
            })
            .collect();
        let slot = reg.intern(hook);
        reg.fire(slot, &event());
        assert!(reg.detach(ids[1]));
        reg.fire(slot, &event());
        assert_eq!(*log.borrow_mut(), vec!['a', 'b', 'c', 'a', 'c']);
    }

    #[test]
    fn fixed_hooks_are_attachable_by_name() {
        let mut reg = ProbeRegistry::new();
        let sink = counting(0);
        reg.attach(Hook::kprobe("kfree_skb"), sink.clone());
        assert!(!reg.is_empty(HookId::KFREE_SKB));
        assert!(reg.is_empty(HookId::OVS_UPCALL));
        reg.fire(HookId::KFREE_SKB, &event());
        assert_eq!(sink.borrow_mut().hits, 1);
    }

    #[test]
    fn hook_display() {
        assert_eq!(Hook::kprobe("f").to_string(), "kprobe:f");
        assert_eq!(Hook::kretprobe("f").to_string(), "kretprobe:f");
        assert_eq!(Hook::device_rx("eth0").to_string(), "rx:eth0");
        assert_eq!(Hook::device_tx("eth0").to_string(), "tx:eth0");
        assert_eq!(Hook::uprobe("sockperf").to_string(), "uprobe:sockperf");
    }
}
