//! Sockperf-style UDP latency workload.
//!
//! Mirrors the Sockperf under-load mode the paper uses for every latency
//! experiment: the client sends fixed-size UDP requests at a fixed rate,
//! the server echoes them, and the client reports the one-way latency as
//! half the measured round trip (Sockperf's convention). The default
//! message size is 56 bytes — "the default Sockperf packet size was just
//! 56 bytes" (§IV-C).

use std::cell::RefCell;
use std::rc::Rc;

use vnet_sim::app::{App, AppCtx};
use vnet_sim::packet::{FlowKey, Packet, PacketBuilder};
use vnet_sim::time::SimDuration;

use crate::stats::LatencyRecorder;
use crate::wire::{self, Op};

/// Sockperf's default payload size in bytes.
pub const DEFAULT_MSG_SIZE: usize = 56;

/// The Sockperf client in under-load mode: a fixed-rate UDP sender that
/// does not wait for replies (the mode the paper's experiments run, so
/// congestion cannot stall the probe stream).
#[derive(Debug)]
pub struct SockperfClient {
    flow: FlowKey,
    msg_size: usize,
    interval: SimDuration,
    count: u64,
    sent: u64,
    latency: Rc<RefCell<LatencyRecorder>>,
}

impl SockperfClient {
    /// Creates a client sending `count` messages of `msg_size` bytes on
    /// `flow` (client → server), one every `interval`. Latency samples
    /// land in `latency`.
    ///
    /// # Panics
    ///
    /// Panics if `msg_size` cannot hold the probe header (17 bytes).
    pub fn new(
        flow: FlowKey,
        msg_size: usize,
        interval: SimDuration,
        count: u64,
        latency: Rc<RefCell<LatencyRecorder>>,
    ) -> Self {
        assert!(
            msg_size >= wire::PROBE_HEADER_LEN,
            "message too small for probe header"
        );
        SockperfClient {
            flow,
            msg_size,
            interval,
            count,
            sent: 0,
            latency,
        }
    }

    fn send_next(&mut self, ctx: &mut AppCtx<'_>) {
        if self.sent >= self.count {
            return;
        }
        let payload = wire::encode(Op::Echo, self.sent, ctx.monotonic_ns(), self.msg_size);
        ctx.send(PacketBuilder::udp(self.flow, payload).build());
        self.sent += 1;
        if self.sent < self.count {
            ctx.set_timer(self.interval, self.sent - 1);
        }
    }
}

impl App for SockperfClient {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.send_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, _tag: u64) {
        self.send_next(ctx);
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<'_>, pkt: Packet) {
        let Ok(parsed) = pkt.parse() else { return };
        let Some((Op::Response, _, t_send)) = wire::decode(parsed.payload) else {
            return;
        };
        let rtt = ctx.monotonic_ns().saturating_sub(t_send);
        self.latency.borrow_mut().record(rtt / 2);
    }
}

/// The Sockperf server: echoes each request back to its sender.
#[derive(Debug, Default)]
pub struct SockperfServer {
    echoed: u64,
}

impl SockperfServer {
    /// Creates a server.
    pub fn new() -> Self {
        Self::default()
    }
}

impl App for SockperfServer {
    fn on_packet(&mut self, ctx: &mut AppCtx<'_>, pkt: Packet) {
        let Ok(parsed) = pkt.parse() else { return };
        let Some((Op::Echo, seq, t_send)) = wire::decode(parsed.payload) else {
            return;
        };
        let reply_flow = parsed.flow().reversed();
        let payload = wire::encode(Op::Response, seq, t_send, parsed.payload.len());
        ctx.send(PacketBuilder::udp(reply_flow, payload).build());
        self.echoed += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddrV4;
    use vnet_sim::device::{DeviceConfig, Forwarding, ServiceModel};
    use vnet_sim::node::NodeClock;
    use vnet_sim::packet::SocketAddrV4Ext;
    use vnet_sim::time::SimTime;
    use vnet_sim::world::World;

    /// Client and server on one node, connected both ways through fixed
    /// 5us devices (10us one-way path).
    fn ping_pong_world() -> (World, Rc<RefCell<LatencyRecorder>>) {
        let mut w = World::new(21);
        let n = w.add_node("host", 2, NodeClock::perfect());
        let c_tx = w.add_device(
            DeviceConfig::new("c-tx", n).service(ServiceModel::Fixed(SimDuration::from_micros(5))),
        );
        let s_rx = w.add_device(
            DeviceConfig::new("s-rx", n)
                .service(ServiceModel::Fixed(SimDuration::from_micros(5)))
                .forwarding(Forwarding::Deliver),
        );
        let s_tx = w.add_device(
            DeviceConfig::new("s-tx", n).service(ServiceModel::Fixed(SimDuration::from_micros(5))),
        );
        let c_rx = w.add_device(
            DeviceConfig::new("c-rx", n)
                .service(ServiceModel::Fixed(SimDuration::from_micros(5)))
                .forwarding(Forwarding::Deliver),
        );
        w.connect(c_tx, s_rx, SimDuration::ZERO);
        w.connect(s_tx, c_rx, SimDuration::ZERO);

        let flow = FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 40000),
            SocketAddrV4::sock("10.0.0.2", 11111),
        );
        let latency = LatencyRecorder::shared();
        let client = w.add_app(
            n,
            c_tx,
            Box::new(SockperfClient::new(
                flow,
                DEFAULT_MSG_SIZE,
                SimDuration::from_micros(100),
                50,
                Rc::clone(&latency),
            )),
        );
        let server = w.add_app(n, s_tx, Box::new(SockperfServer::new()));
        w.bind_app(s_rx, 11111, server);
        w.bind_app(c_rx, 40000, client);
        (w, latency)
    }

    #[test]
    fn measures_half_round_trip() {
        let (mut w, latency) = ping_pong_world();
        w.run_until(SimTime::from_millis(20));
        let summary = latency.borrow_mut().summary().unwrap();
        assert_eq!(summary.count, 50);
        // RTT = 4 hops x 5us = 20us; reported latency = 10us.
        assert_eq!(summary.p50_ns, 10_000);
        assert_eq!(summary.min_ns, 10_000);
        assert_eq!(summary.max_ns, 10_000);
    }

    #[test]
    fn stops_after_count() {
        let (mut w, latency) = ping_pong_world();
        w.run_until(SimTime::from_millis(100));
        assert_eq!(latency.borrow_mut().summary().unwrap().count, 50);
        let events = w.events_processed();
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.events_processed(), events, "no timers left");
    }

    #[test]
    #[should_panic(expected = "message too small")]
    fn rejects_tiny_messages() {
        let flow = FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 1),
            SocketAddrV4::sock("10.0.0.2", 2),
        );
        let _ = SockperfClient::new(
            flow,
            8,
            SimDuration::from_micros(1),
            1,
            LatencyRecorder::shared(),
        );
    }
}
