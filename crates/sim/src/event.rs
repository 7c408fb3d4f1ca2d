//! The discrete-event queue.
//!
//! Every scheduled event carries a [`PushKey`] — `(push time, pushing
//! node, per-node sequence)` — minted by the node whose handler pushed
//! it. Events pop in `(event time, push key)` order. The key is a
//! *canonical* tie-break: it is made of the push instant and the pushing
//! node's own counter, never of insertion order or of how many events
//! other nodes happened to push, so the order of equal-time events is a
//! property of the simulation, not of the loop running it. Together with
//! the seeded per-node RNG streams this makes every run bit-for-bit
//! reproducible.
//!
//! That order is the contract; the structure behind it is not. Today it
//! is this:
//!
//! * The heaps hold small `Copy` keys with a slot number in their lowest
//!   bits. The [`Event`] itself (56 bytes, it owns the packet) waits in a
//!   slot table and moves twice: in at `push`, out when its key pops. A
//!   sift level moves a key.
//! * There are two heaps. Half of what a [`crate::world::World`] pushes is
//!   scheduled for the very instant it is pushed at (a `StartService` on
//!   an idle device, a zero-latency hop); such a push goes to the small
//!   *current-instant* heap as long as that heap is empty or already
//!   holds that instant, and everything else goes to the *future* heap.
//!   The future heap holds 32-byte `HeapKey`s, the whole ordering key
//!   packed into two `u128`s: comparing two is one equality test and one
//!   `u128` compare. In the current-instant heap event time and push time
//!   are the same instant for every key, kept once beside the heap, so it
//!   holds only the 16-byte `Who` below them and compares one `u128`.
//!   `pop` compares the two heads under the **full** key and takes the
//!   smaller, so which heap a key sits in never decides the order: a
//!   same-instant push cannot be overtaken by a key in the future heap,
//!   nor overtake one, because the minimum of the union is the smaller of
//!   the two minima whatever the split. The split only decides cost — an
//!   event that is popped next anyway sifts through a handful of
//!   same-instant keys, not through everything pending — and the queue is
//!   correct for any push sequence (keys stamped by hand, events scheduled
//!   before their push instant, a current heap still holding an instant
//!   the clock has left), merely fastest for the one a `World` produces.
//!   The property test below is the proof.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::ids::{AppId, CpuId, DeviceId, NodeId};
use crate::packet::Packet;
use crate::time::SimTime;

/// Canonical ordering stamp for a scheduled event: when it was pushed,
/// by which node, and that node's push sequence number at the time.
///
/// Ordering by `(time, node, seq)` is a total order over all pushes:
/// within one node the sequence is the node's own deterministic push
/// order, and across nodes the ground-truth push time decides, with the
/// node id as tie-break.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PushKey {
    /// Simulation time at which the push happened.
    pub time: SimTime,
    /// Raw id of the node whose handler pushed the event.
    pub node: u32,
    /// The pushing node's sequence counter at push time.
    pub seq: u64,
}

/// A scheduled simulation event.
#[derive(Debug)]
pub enum Event {
    /// A packet arrives at a device's ingress.
    Arrive {
        /// Receiving device.
        dev: DeviceId,
        /// Upstream device it came from (`None` for app injection).
        from: Option<DeviceId>,
        /// The packet.
        pkt: Packet,
    },
    /// A device (with its own server) begins serving its head-of-line
    /// packet.
    StartService {
        /// The device.
        dev: DeviceId,
    },
    /// A device finishes serving the packet in service.
    FinishService {
        /// The device.
        dev: DeviceId,
    },
    /// A CPU's softirq context begins serving the next queued item.
    SoftirqStart {
        /// Node owning the CPU.
        node: NodeId,
        /// The CPU.
        cpu: CpuId,
    },
    /// A CPU's softirq context finishes serving an item for `dev`.
    SoftirqFinish {
        /// Node owning the CPU.
        node: NodeId,
        /// The CPU.
        cpu: CpuId,
        /// Device whose packet was served.
        dev: DeviceId,
    },
    /// An application timer fires.
    AppTimer {
        /// The application.
        app: AppId,
        /// Caller-chosen tag distinguishing timers.
        tag: u64,
    },
    /// A scheduled administrative state change: fail or restore a device
    /// mid-run (the flapping-link condition generator). The event loop
    /// applies it with [`crate::world::World::set_device_down`] at its
    /// scheduled instant, which a caller could only do between runs.
    SetDeviceDown {
        /// The device.
        dev: DeviceId,
        /// `true` to fail the device, `false` to restore it.
        down: bool,
    },
}

/// `(pushing node, that node's sequence, slot)`, most significant first:
/// the part of an event's ordering key below its two times. The slot sits
/// below every key bit; it can only break a tie between two equal keys,
/// which a `World` never mints.
///
/// Ordered in reverse: `std`'s heap hands out its greatest element and
/// the queue wants the earliest key, so the earlier key is the greater
/// one. This alone is what the current-instant heap holds and compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Who(u128);

impl Who {
    fn new(key: PushKey, slot: u32) -> Self {
        Who(u128::from(key.node) << 96 | u128::from(key.seq) << 32 | u128::from(slot))
    }

    fn slot(self) -> u32 {
        self.0 as u32
    }
}

impl Ord for Who {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}
impl PartialOrd for Who {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// What the future heap holds: one scheduled event's full ordering key,
/// packed, and the slot its [`Event`] waits in.
///
/// `when` is `(event time, push time)`, most significant first, so
/// comparing `(when, who)` is comparing `(at, PushKey)` field by field.
/// Reversed like [`Who`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct HeapKey {
    when: u128,
    who: Who,
}

impl HeapKey {
    fn new(at: SimTime, push_time: SimTime, who: Who) -> Self {
        HeapKey {
            when: u128::from(at.as_nanos()) << 64 | u128::from(push_time.as_nanos()),
            who,
        }
    }

    fn at(self) -> SimTime {
        SimTime::from_nanos((self.when >> 64) as u64)
    }
}

impl Ord for HeapKey {
    fn cmp(&self, other: &Self) -> Ordering {
        if self.when == other.when {
            self.who.cmp(&other.who)
        } else {
            other.when.cmp(&self.when)
        }
    }
}
impl PartialOrd for HeapKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue with canonical (push-key) tie-breaking.
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Keys pushed for their own push instant, `current_at`: every one
    /// has the same `when`, so only `who` is kept and compared.
    current: BinaryHeap<Who>,
    /// The one instant the keys in `current` were pushed at and for.
    /// Stale, and never read, while `current` is empty.
    current_at: SimTime,
    /// Every other key.
    future: BinaryHeap<HeapKey>,
    /// The events of the keys in the two heaps, by `Who::slot`.
    slots: Vec<Option<Event>>,
    /// Vacant entries of `slots`, most recently vacated last.
    free: Vec<u32>,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `event` at time `at` with the given push key.
    ///
    /// Marked `#[inline]` because its one caller, `World::push_event`,
    /// stores the `Event` just before the call: out of line, one 16-byte
    /// load reading it back waited on those stores and took half of this
    /// function's samples on an untraced rack (EXPERIMENTS.md, "The
    /// packet path: one buffer per packet").
    #[inline]
    pub fn push(&mut self, at: SimTime, key: PushKey, event: Event) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(event);
                slot
            }
            None => {
                let slot = u32::try_from(self.slots.len())
                    .expect("fewer than 2^32 events are pending at once");
                self.slots.push(Some(event));
                slot
            }
        };
        let who = Who::new(key, slot);
        if at == key.time && (self.current.is_empty() || self.current_at == at) {
            self.current_at = at;
            self.current.push(who);
        } else {
            self.future.push(HeapKey::new(at, key.time, who));
        }
    }

    /// Removes and returns the earliest event if it is scheduled at or
    /// before `bound`.
    pub fn pop_at_or_before(&mut self, bound: SimTime) -> Option<(SimTime, Event)> {
        // The current head's full key is rebuilt only to be compared with
        // the future head's. Both orders are reversed: the greater head is
        // the earlier.
        let current = self
            .current
            .peek()
            .map(|&who| HeapKey::new(self.current_at, self.current_at, who));
        let (head, in_current) = match (current, self.future.peek()) {
            (Some(current), Some(future)) if current < *future => (*future, false),
            (Some(current), _) => (current, true),
            (None, future) => (*future?, false),
        };
        let at = head.at();
        if at > bound {
            return None;
        }
        if in_current {
            self.current.pop();
        } else {
            self.future.pop();
        }
        let slot = head.who.slot();
        let event = self.slots[slot as usize]
            .take()
            .expect("a key's slot holds its event until the key pops");
        self.free.push(slot);
        Some((at, event))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    impl EventQueue {
        /// Removes and returns the earliest event, if any.
        pub(crate) fn pop(&mut self) -> Option<(SimTime, Event)> {
            self.pop_at_or_before(SimTime::MAX)
        }

        /// Whether no events are pending.
        pub(crate) fn is_empty(&self) -> bool {
            self.current.is_empty() && self.future.is_empty()
        }
    }

    fn timer(tag: u64) -> Event {
        Event::AppTimer { app: AppId(0), tag }
    }

    fn key(seq: u64) -> PushKey {
        PushKey {
            time: SimTime::ZERO,
            node: 0,
            seq,
        }
    }

    fn tag_of(e: Event) -> u64 {
        match e {
            Event::AppTimer { tag, .. } => tag,
            other => panic!("unexpected event {other:?}"),
        }
    }

    /// The slot table moves whole events, so neither a `Packet` nor an
    /// `Event` may grow unnoticed.
    #[test]
    fn an_event_is_56_bytes() {
        assert_eq!(std::mem::size_of::<Packet>(), 40);
        assert_eq!(std::mem::size_of::<Event>(), 56);
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(30), key(0), timer(3));
        q.push(SimTime::from_nanos(10), key(1), timer(1));
        q.push(SimTime::from_nanos(20), key(2), timer(2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn equal_times_pop_in_key_order() {
        let mut q = EventQueue::new();
        // Insert in scrambled order; keys define the canonical order.
        for tag in (0..100).rev() {
            q.push(SimTime::from_nanos(5), key(tag), timer(tag));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(e))
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn equal_times_order_by_push_time_then_node() {
        let mut q = EventQueue::new();
        let at = SimTime::from_nanos(50);
        let k = |t: u64, node: u32, seq: u64| PushKey {
            time: SimTime::from_nanos(t),
            node,
            seq,
        };
        q.push(at, k(10, 2, 0), timer(2));
        q.push(at, k(10, 1, 7), timer(1));
        q.push(at, k(5, 9, 3), timer(0));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(e))
            .collect();
        assert_eq!(order, vec![0, 1, 2], "push time first, then node id");
    }

    #[test]
    fn pop_at_or_before_stops_at_the_bound() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.pop_at_or_before(SimTime::MAX).is_none());
        let at = |ns| SimTime::from_nanos(ns);
        // One key in each heap: 7 is pushed for its own push instant.
        q.push(at(9), key(0), timer(9));
        q.push(
            at(7),
            PushKey {
                time: at(7),
                node: 0,
                seq: 1,
            },
            timer(7),
        );
        assert!(q.pop_at_or_before(at(6)).is_none());
        assert_eq!(
            q.pop_at_or_before(at(7)).map(|(t, e)| (t, tag_of(e))),
            Some((at(7), 7))
        );
        assert!(q.pop_at_or_before(at(8)).is_none());
        assert!(!q.is_empty());
        assert_eq!(
            q.pop_at_or_before(at(9)).map(|(t, e)| (t, tag_of(e))),
            Some((at(9), 9))
        );
        assert!(q.is_empty());
    }

    /// An [`EventQueue`] and its specification side by side. The
    /// specification is the sentence in the module doc: events pop in
    /// `(at, push key)` order — a `BTreeSet` of exactly that tuple (the
    /// tag rides along to identify the event). Whatever is inside the
    /// queue, every pop must be the set's first element.
    struct Modelled {
        queue: EventQueue,
        model: BTreeSet<(SimTime, PushKey, u64)>,
        /// The instant pushes are stamped with, as `World::now` would be.
        now: u64,
        /// Per-node push counters, as `World::push_seq`.
        seq: [u64; 4],
        next_tag: u64,
    }

    impl Modelled {
        fn new() -> Self {
            Modelled {
                queue: EventQueue::new(),
                model: BTreeSet::new(),
                now: 1_000,
                seq: [0; 4],
                next_tag: 0,
            }
        }

        /// Pushes a fresh event for `at`, stamped `(push_time, node, that
        /// node's next seq)`, into both.
        fn push(&mut self, at: u64, push_time: u64, node: u32) {
            let seq = &mut self.seq[node as usize];
            let key = PushKey {
                time: SimTime::from_nanos(push_time),
                node,
                seq: *seq,
            };
            *seq += 1;
            let tag = self.next_tag;
            self.next_tag += 1;
            let at = SimTime::from_nanos(at);
            self.queue.push(at, key, timer(tag));
            assert!(self.model.insert((at, key, tag)), "keys are unique");
        }

        /// Pops both and checks they agree; returns the popped time.
        fn pop(&mut self) -> Option<u64> {
            let got = self.queue.pop().map(|(at, e)| (at, tag_of(e)));
            let want = self.model.pop_first().map(|(at, _, tag)| (at, tag));
            assert_eq!(got, want, "pop order departs from (at, key) order");
            assert_eq!(self.queue.is_empty(), self.model.is_empty());
            got.map(|(at, _)| at.as_nanos())
        }

        fn drain(&mut self) {
            while self.pop().is_some() {}
            assert!(self.queue.is_empty());
        }

        /// One step of a random interleaving; `a`, `b`, `c` parameterise
        /// it. The mix leans toward what `World` does (pop, then push for
        /// the popped instant) but keeps every push sequence the queue's
        /// interface admits in play.
        fn step(&mut self, kind: u8, a: u8, b: u8, c: u8) {
            let node = u32::from(a % 4);
            let now = self.now;
            match kind {
                // Scheduled for the very instant it is pushed at.
                0..=5 => self.push(now, now, node),
                // A little or a lot later; few distinct offsets, so many
                // pushes from different instants land on one `at`.
                6..=8 => self.push(now + [0, 1, 2, 5, 40, 1_000][b as usize % 6], now, node),
                // Scheduled in the past of its own push instant.
                9 => self.push(now.saturating_sub(u64::from(b % 8) * 3), now, node),
                // A standalone key: stamped with an instant that has
                // nothing to do with the clock, before or after `at`.
                10 => self.push(now + u64::from(b % 4), u64::from(c) * 9, node),
                // Pop and move the clock to the popped event, as the loop
                // does — backwards too, if that event was in the past.
                11 | 12 => {
                    if let Some(at) = self.pop() {
                        self.now = at;
                    }
                }
                // Pop without moving the clock.
                13 => {
                    self.pop();
                }
                // The clock moves on with same-instant events still
                // pending: the next same-instant push is for another
                // instant than the ones already waiting.
                14 => self.now += u64::from(b % 16),
                // Rarely: a burst of >= 1 000 same-instant pushes.
                _ if c < 16 => {
                    for i in 0..1_000 + 2 * u32::from(b) {
                        self.push(now, now, (node + i) % 4);
                    }
                }
                _ => {
                    self.pop();
                }
            }
        }
    }

    proptest! {
        /// Random interleavings of push and pop — clustered times,
        /// `at == key.time`, `at < key.time`, equal `at` under differing
        /// push time / node / seq, same-instant bursts, the clock moving
        /// on over pending same-instant events, slots freed and reused —
        /// pop exactly as the sorted model does.
        #[test]
        fn pops_in_at_then_key_order_under_any_interleaving(
            ops in proptest::collection::vec((0u8..16, any::<u8>(), any::<u8>(), any::<u8>()), 0..400),
        ) {
            let mut m = Modelled::new();
            for (kind, a, b, c) in ops {
                m.step(kind, a, b, c);
            }
            m.drain();
        }
    }

    /// The bursts of the property above, at a size where a quadratic path
    /// (a sorted vector for the current instant, say) would not finish:
    /// 100 000 same-instant pushes arriving in descending key order with a
    /// pop after every fourth, over a background of future events, then a
    /// second instant's burst on top of what the first left behind.
    #[test]
    fn same_instant_bursts_pop_in_key_order() {
        let mut m = Modelled::new();
        for i in 0..1_000 {
            m.push(m.now + 1 + i % 7, m.now, (i % 4) as u32);
        }
        for round in 0..2 {
            m.now += round;
            // Descending seq within the burst: hand the counter out
            // backwards.
            m.seq = [200_000 * (round + 1); 4];
            for i in 0..100_000u64 {
                let node = (i % 4) as usize;
                m.seq[node] -= 2;
                m.push(m.now, m.now, node as u32);
                if i % 4 == 3 {
                    m.pop();
                }
            }
        }
        m.drain();
    }
}
