//! What each event does: the handlers the world's event loop dispatches
//! to, and the probe firing and application dispatch they share.
//!
//! A handler runs on behalf of one node — the node of the device, CPU or
//! application the event names — and every event it schedules is keyed
//! by that node's push counter ([`World::push_event`]). That, and drawing
//! randomness only from the node's own stream, is what keeps the order
//! of equal-time events a function of the seed alone.
//!
//! A step that Linux runs in the context that causes it runs inside the
//! handler that causes it here, not as an event of its own: a device that
//! starts at once (`Device::starts_at_once`: no vCPU gate, no HTB shaper)
//! takes a packet into service in the arrive or finish handler, and a hop
//! that takes no time over a wire without a link profile, like an
//! application's send, arrives in the sender's handler. Each such chain
//! ends in a pushed event, a queued packet or a drop, so the recursion is
//! bounded, and every delayed event still goes through `push_event`.
//! DESIGN.md §8 states the rule and its exceptions.

use rand::Rng;

use super::World;
use crate::app::{App, AppAction, AppCtx};
use crate::device::{DropReason, Forwarding, Gate, QueuedPacket, Steering, TraceIdRole, Transform};
use crate::event::Event;
use crate::ids::{AppId, CpuId, DeviceId, NodeId};
use crate::packet::{trace_id, vxlan_decapsulate, vxlan_encapsulate, IpProtocol, Packet};
use crate::probe::{Direction, HookId, ProbeEvent};
use crate::time::{SimDuration, SimTime};

impl World {
    pub(super) fn handle(&mut self, event: Event) {
        match event {
            Event::Arrive { dev, from, pkt } => self.handle_arrive(dev, from, pkt),
            Event::StartService { dev } => self.handle_start(dev),
            Event::FinishService { dev } => self.handle_finish(dev),
            Event::SoftirqStart { node, cpu } => self.handle_softirq_start(node, cpu),
            Event::SoftirqFinish { node, cpu, dev } => self.handle_softirq_finish(node, cpu, dev),
            Event::AppTimer { app, tag } => {
                self.dispatch_app(app, |a, ctx| a.on_timer(ctx, tag));
            }
            Event::SetDeviceDown { dev, down } => self.set_device_down(dev, down),
        }
    }

    /// Fires `hook` on `node` at ground-truth instant `at`, returning the
    /// cost of the probes attached there — zero, and nothing else done
    /// (not even a clock reading), when none are. Every hook a device or
    /// application fires goes through here, with an id that was resolved
    /// before the run.
    #[allow(clippy::too_many_arguments)]
    fn fire(
        &mut self,
        node: NodeId,
        hook: HookId,
        cpu: CpuId,
        device: Option<DeviceId>,
        direction: Direction,
        pkt: &Packet,
        at: SimTime,
        aux: u32,
    ) -> SimDuration {
        let probes = &mut self.probes[node.index()];
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
                monotonic_ns: self.nodes[node.index()].clock.monotonic_ns(at),
                aux,
            },
        )
    }

    /// Where device `i` fires a hook: its node, and itself.
    fn firing_site(&self, i: usize) -> (NodeId, Option<DeviceId>) {
        let dev = &self.devices[i];
        (dev.cfg.node, Some(dev.id))
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
        let (node, dev) = self.firing_site(i);
        let mut cost = SimDuration::ZERO;
        for k in 0..self.devices[i].hooks.kernel_functions(direction).len() {
            let (entry, ret) = self.devices[i].hooks.kernel_functions(direction)[k];
            cost += self.fire(node, entry, cpu, dev, direction, pkt, self.now, 0);
            cost += self.fire(node, ret, cpu, dev, direction, pkt, self.now, 0);
        }
        cost
    }

    /// Fires the `kfree_skb` kprobe when device `i` drops a packet, so
    /// tracers can observe and attribute drops exactly as on a real
    /// kernel: the event's `aux` word carries the typed [`DropReason`]
    /// code, mirroring the kernel's `kfree_skb_reason` argument. The
    /// cost is charged nowhere — the packet is gone.
    fn drop_hook(&mut self, i: usize, pkt: &Packet, reason: DropReason) {
        let (node, dev) = self.firing_site(i);
        let (hook, rx) = (HookId::KFREE_SKB, Direction::Rx);
        self.fire(node, hook, CpuId(0), dev, rx, pkt, self.now, reason.code());
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
        let (node, dev) = self.firing_site(i);
        let (entry, ret) = (self.now, self.now + lookup_cost);
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
        let (node, dev) = self.firing_site(i);
        let tap = self.devices[i].hooks.tx_tap;
        let cost = self.kernel_function_hooks(i, Direction::Tx, pkt, cpu);
        cost + self.fire(node, tap, cpu, dev, Direction::Tx, pkt, self.now, 0)
    }

    fn handle_arrive(&mut self, dev_id: DeviceId, from: Option<DeviceId>, pkt: Packet) {
        let i = dev_id.index();
        let gate = self.devices[i].cfg.gate;
        let irq_cpu = match gate {
            Gate::Softirq(Steering::IrqAffinity(c)) => CpuId(c),
            _ => CpuId(0),
        };
        // The RX tap fires on arrival; a softirq-gated device's
        // kernel-function hooks fire later, when the softirq runs.
        let (node, dev) = self.firing_site(i);
        let (tap, rx) = (self.devices[i].hooks.rx_tap, Direction::Rx);
        let mut overhead = self.fire(node, tap, irq_cpu, dev, rx, &pkt, self.now, 0);
        if !matches!(gate, Gate::Softirq(_)) {
            overhead += self.kernel_function_hooks(i, rx, &pkt, irq_cpu);
        }
        let now = self.now;
        let dev = &mut self.devices[i];
        if dev.down {
            dev.counters.dropped_down += 1;
            self.drop_hook(i, &pkt, DropReason::Down);
            return;
        }
        // Ingress policing (OVS rate limiting, Case Study I).
        if let Some(tb) = dev.policer.as_mut() {
            if !tb.admit(pkt.len(), now) {
                dev.counters.dropped_policed += 1;
                self.drop_hook(i, &pkt, DropReason::Policed);
                return;
            }
        }
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
        dev.counters.rx_packets += 1;
        // The CPU whose softirq serves the packet, if the device is
        // softirq-gated. RPS steers on the flow, so it is worked out
        // before the packet is queued.
        let softirq_cpu = match gate {
            Gate::Softirq(Steering::Rps) => {
                let ncpu = self.nodes[node.index()].num_cpus;
                let cpu = pkt
                    .flow()
                    .map_or(0, |f| (f.rps_hash() % u32::from(ncpu)) as u16);
                Some(CpuId(cpu))
            }
            Gate::Softirq(Steering::IrqAffinity(c)) => Some(CpuId(c)),
            _ => None,
        };
        let qp = QueuedPacket {
            pkt,
            overhead,
            from,
        };
        if shaped_class {
            dev.shaped_queue.push_back(qp);
        } else {
            dev.queue.push_back(qp);
        }
        match softirq_cpu {
            Some(cpu) => {
                if self.softirq[node.index()].raise(cpu, dev_id) {
                    self.push_event(node, now, Event::SoftirqStart { node, cpu });
                }
            }
            None if dev.busy => {}
            None if dev.starts_at_once() => self.handle_start(dev_id),
            None => self.push_event(node, now, Event::StartService { dev: dev_id }),
        }
    }

    fn handle_start(&mut self, dev_id: DeviceId) {
        let i = dev_id.index();
        let now = self.now;
        let dev = &mut self.devices[i];
        if dev.busy || dev.queue_len() == 0 || dev.down {
            return;
        }
        let node = dev.cfg.node;
        // vCPU-gated devices can only serve while their vCPU is scheduled.
        if let Gate::Vcpu(vcpu) = dev.cfg.gate {
            let gate_at = self.schedulers[node.index()]
                .as_mut()
                .map_or(now, |s| s.run_gate(vcpu, now));
            if gate_at > now {
                self.push_event(node, gate_at, Event::StartService { dev: dev_id });
                return;
            }
        }
        // The unshaped (latency) class is served first; the shaped class
        // only when its token bucket permits.
        let qp = if let Some(qp) = dev.queue.pop_front() {
            qp
        } else {
            let head = dev.shaped_queue.pop_front().expect(
                "queue_len() > 0 with the latency class empty: the shaped class holds a packet",
            );
            let shaper = dev
                .shaper
                .as_mut()
                .expect("only an HTB device queues into the shaped class, and it has a shaper");
            let ready = shaper.earliest_admit(head.pkt.len(), now);
            if ready > now {
                dev.shaped_queue.push_front(head);
                self.push_event(node, ready, Event::StartService { dev: dev_id });
                return;
            }
            shaper.admit(head.pkt.len(), now);
            head
        };
        dev.busy = true;
        let ovs_hit = dev.ovs_lookup_hit(qp.from, now);
        let lookup_cost = dev.service_time(&qp.pkt, qp.from, now);
        let probe_cost = match ovs_hit {
            Some(hit) => self.ovs_hooks(i, &qp.pkt, CpuId(0), hit, lookup_cost),
            None => SimDuration::ZERO,
        };
        let service = lookup_cost + qp.overhead + probe_cost;
        self.devices[i].in_service = Some(qp);
        self.push_event(node, now + service, Event::FinishService { dev: dev_id });
    }

    fn handle_finish(&mut self, dev_id: DeviceId) {
        let i = dev_id.index();
        let now = self.now;
        let dev = &mut self.devices[i];
        let mut qp = dev.in_service.take().expect(
            "FinishService is pushed only by handle_start, after it put the packet in service",
        );
        dev.busy = false;
        // Transform before the TX tap fires: what leaves a VXLAN device
        // is the encapsulated frame.
        self.apply_transform(i, &mut qp.pkt);
        let tx_cost = self.tx_hooks(i, &qp.pkt, CpuId(0));
        let dev = &mut self.devices[i];
        dev.counters.tx_packets += 1;
        let queue_empty = dev.queue_len() == 0;
        let node = dev.cfg.node;
        if let Gate::Vcpu(vcpu) = dev.cfg.gate {
            if queue_empty {
                if let Some(s) = &mut self.schedulers[node.index()] {
                    s.sleep(vcpu, now);
                }
            }
        }
        // A device that starts at once takes its next packet only after
        // this one has gone on, so the downstream `Arrive` is pushed ahead
        // of the next `FinishService`, the order a scheduled start gives
        // them; the others schedule the start first.
        if dev.starts_at_once() {
            self.complete_packet(dev_id, qp.pkt, tx_cost);
            self.handle_start(dev_id);
        } else {
            if !queue_empty {
                self.push_event(node, now, Event::StartService { dev: dev_id });
            }
            self.complete_packet(dev_id, qp.pkt, tx_cost);
        }
    }

    fn handle_softirq_start(&mut self, node: NodeId, cpu: CpuId) {
        let now = self.now;
        let Some(dev_id) = self.softirq[node.index()].start(cpu) else {
            return;
        };
        let i = dev_id.index();
        // The work item pairs with exactly one queued packet.
        let Some(qp) = self.devices[i].queue.pop_front() else {
            // Defensive: work item without a packet (e.g. dropped by a
            // policer after raise) — finish immediately.
            if self.softirq[node.index()].finish(cpu) {
                self.push_event(node, now, Event::SoftirqStart { node, cpu });
            }
            return;
        };
        let fn_cost = self.kernel_function_hooks(i, Direction::Rx, &qp.pkt, cpu);
        let dev = &mut self.devices[i];
        let ovs_hit = dev.ovs_lookup_hit(qp.from, now);
        let lookup_cost = dev.service_time(&qp.pkt, qp.from, now);
        let probe_cost = match ovs_hit {
            Some(hit) => self.ovs_hooks(i, &qp.pkt, cpu, hit, lookup_cost),
            None => SimDuration::ZERO,
        };
        let service = lookup_cost + qp.overhead + fn_cost + probe_cost;
        self.devices[i].in_service = Some(qp);
        self.push_event(
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
        let mut qp = self.devices[i].in_service.take().expect(
            "SoftirqFinish is pushed only by handle_softirq_start, after it put the packet in service",
        );
        self.apply_transform(i, &mut qp.pkt);
        let tx_cost = self.tx_hooks(i, &qp.pkt, cpu);
        let dev = &mut self.devices[i];
        dev.counters.tx_packets += 1;
        if self.softirq[node.index()].finish(cpu) {
            self.push_event(node, now, Event::SoftirqStart { node, cpu });
        }
        self.complete_packet(dev_id, qp.pkt, tx_cost);
    }

    /// Applies a device's byte-level transform to a served packet, in
    /// place. A frame a decapsulating device cannot unwrap passes on as
    /// it came.
    fn apply_transform(&self, dev_idx: usize, pkt: &mut Packet) {
        match &self.devices[dev_idx].cfg.transform {
            Transform::None => {}
            Transform::VxlanEncap {
                vni,
                src,
                dst,
                src_port,
            } => vxlan_encapsulate(pkt, *vni, *src, *dst, *src_port),
            Transform::VxlanDecap => {
                let _ = vxlan_decapsulate(pkt);
            }
        }
    }

    /// Forwards or delivers a served (already transformed) packet.
    fn complete_packet(&mut self, dev_id: DeviceId, pkt: Packet, extra_delay: SimDuration) {
        let i = dev_id.index();
        let now = self.now;
        let dev = &self.devices[i];
        let node = dev.cfg.node;
        let mut pkt = pkt;
        // Forward.
        let decision = match &dev.cfg.forwarding {
            Forwarding::Port(p) => Some(*p),
            Forwarding::ByDstIp { routes, default } => pkt
                .flow()
                .and_then(|f| routes.get(&f.dst_ip).copied())
                .or(*default),
            Forwarding::Deliver => None,
        };
        match (matches!(dev.cfg.forwarding, Forwarding::Deliver), decision) {
            (true, _) => {
                if dev.cfg.trace_id == TraceIdRole::StripUdpTrailer {
                    let _ = trace_id::strip_udp_trailer(&mut pkt);
                }
                let app = pkt
                    .flow()
                    .and_then(|f| dev.bindings.get(&f.dst_port).copied());
                match app {
                    Some(app) => {
                        // The application's uprobe. Its cost is charged
                        // nowhere: user-space probe overhead affects the
                        // application, which in this model reacts
                        // instantaneously.
                        let slot = &self.apps[app.index()];
                        let (app_node, uprobe) = (slot.node, slot.uprobe);
                        let rx = Direction::Rx;
                        self.fire(app_node, uprobe, CpuId(0), None, rx, &pkt, now, 0);
                        self.dispatch_app(app, |a, ctx| a.on_packet(ctx, pkt))
                    }
                    None => {
                        self.devices[i].counters.dropped_no_route += 1;
                        self.drop_hook(i, &pkt, DropReason::NoRoute);
                    }
                }
            }
            (false, Some(port_idx)) => {
                let Some(port) = dev.ports.get(port_idx).copied() else {
                    self.devices[i].counters.dropped_no_route += 1;
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
                        let lost = seg.loss_rate >= 1.0
                            || self.node_rngs[node.index()].gen_bool(seg.loss_rate);
                        if lost {
                            self.devices[i].counters.dropped_link += 1;
                            self.drop_hook(i, &pkt, DropReason::Link);
                            return;
                        }
                    }
                    link_delay = seg.delay;
                    if let Some(rate) = seg.rate_bps {
                        let ser = SimDuration::from_nanos(
                            (pkt.len() as u128 * 8 * 1_000_000_000 / rate as u128) as u64,
                        );
                        let wire = &mut self.devices[i].ports[port_idx];
                        let start = wire.wire_busy_until.max(now);
                        let done = start + ser;
                        wire.wire_busy_until = done;
                        link_delay = (done - now) + seg.delay;
                    }
                }
                let mut arrive_at = now + link_delay + extra_delay;
                // Arrival into a vCPU-gated device on the *same node* is
                // deferred until the guest's vCPU is scheduled: the guest
                // cannot see the packet before then (Case Study II). Across
                // a link between nodes the arrival is not gated here — the
                // receiving device's own StartService gate defers the
                // service instead, so a handler only ever asks its own
                // node's scheduler. Every pinned output was recorded under
                // this rule; gating cross-node arrivals too would move them.
                let peer = &self.devices[port.peer.index()];
                if let Gate::Vcpu(vcpu) = peer.cfg.gate {
                    if peer.cfg.node == node {
                        if let Some(s) = &mut self.schedulers[node.index()] {
                            arrive_at = arrive_at.max(s.run_gate(vcpu, arrive_at));
                        }
                    }
                }
                // A hop that takes no time over a plain wire arrives in the
                // sender's context, as `dev_queue_xmit` runs in it.
                if arrive_at == now && port.profile.is_none() {
                    self.handle_arrive(port.peer, Some(dev_id), pkt);
                    return;
                }
                self.push_event(
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
                self.devices[i].counters.dropped_no_route += 1;
                self.drop_hook(i, &pkt, DropReason::NoRoute);
            }
        }
    }

    // ------------------------------------------------------------------
    // App dispatch
    // ------------------------------------------------------------------

    /// Runs one callback of `app_id` and then carries out, in order, the
    /// sends and timers it queued on its context.
    pub(super) fn dispatch_app<F>(&mut self, app_id: AppId, f: F)
    where
        F: FnOnce(&mut dyn App, &mut AppCtx<'_>),
    {
        let slot = &mut self.apps[app_id.index()];
        let node = slot.node;
        let mono = self.nodes[node.index()].clock.monotonic_ns(self.now);
        let mut ctx = AppCtx::new(mono, &mut self.actions);
        f(slot.app.as_mut(), &mut ctx);
        // Taken out while the actions run, which need `self`, and put
        // back empty with its capacity.
        let mut actions = std::mem::take(&mut self.actions);
        for action in actions.drain(..) {
            match action {
                AppAction::Send(pkt) => self.send_from_app(app_id, pkt),
                AppAction::Timer { delay, tag } => {
                    self.push_event(node, self.now + delay, Event::AppTimer { app: app_id, tag });
                }
            }
        }
        self.actions = actions;
    }

    /// Sends a packet from an app through its bound TX device, applying
    /// the node's trace-ID patch if the device carries one.
    fn send_from_app(&mut self, app_id: AppId, mut pkt: Packet) {
        let slot = &self.apps[app_id.index()];
        let node = slot.node;
        let tx = slot.tx_dev;
        if self.devices[tx.index()].cfg.trace_id == TraceIdRole::Inject {
            let id: u32 = self.node_rngs[node.index()].gen();
            match pkt.flow().map(|f| f.protocol) {
                Some(IpProtocol::Tcp) => {
                    let _ = trace_id::inject_tcp_option(&mut pkt, id);
                }
                Some(IpProtocol::Udp) => {
                    let _ = trace_id::inject_udp_trailer(&mut pkt, id);
                }
                _ => {}
            }
        }
        pkt.set_uid(self.next_uid(node));
        self.handle_arrive(tx, None, pkt);
    }
}
