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

/// Sending discipline of the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SockperfMode {
    /// Under-load mode: send at a fixed rate regardless of replies (the
    /// mode the paper's experiments run, so congestion cannot stall the
    /// probe stream).
    UnderLoad,
    /// Classic ping-pong: send the next request only when the previous
    /// reply arrives (or a retransmit timer fires, so loss cannot stall
    /// the measurement forever).
    PingPong,
}

/// The Sockperf client: fixed-rate UDP ping-pong sender.
#[derive(Debug)]
pub struct SockperfClient {
    flow: FlowKey,
    msg_size: usize,
    interval: SimDuration,
    count: u64,
    sent: u64,
    mode: SockperfMode,
    awaiting: Option<u64>,
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
            mode: SockperfMode::UnderLoad,
            awaiting: None,
            latency,
        }
    }

    /// Switches to classic ping-pong mode; `interval` becomes the
    /// retransmit timeout for lost exchanges.
    pub fn ping_pong(mut self) -> Self {
        self.mode = SockperfMode::PingPong;
        self
    }

    fn send_next(&mut self, ctx: &mut AppCtx<'_>) {
        if self.sent >= self.count {
            return;
        }
        let payload = wire::encode(Op::Echo, self.sent, ctx.monotonic_ns(), self.msg_size);
        ctx.send(PacketBuilder::udp(self.flow, payload).build());
        self.awaiting = Some(self.sent);
        self.sent += 1;
        if self.sent < self.count || self.mode == SockperfMode::PingPong {
            // Under-load: the next send. Ping-pong: the retransmit
            // timeout for this exchange (tagged with its sequence).
            ctx.set_timer(self.interval, self.sent - 1);
        }
    }
}

impl App for SockperfClient {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.send_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, tag: u64) {
        match self.mode {
            SockperfMode::UnderLoad => self.send_next(ctx),
            SockperfMode::PingPong => {
                // Only the timer of the exchange still awaited counts as
                // a timeout; stale timers (answered exchanges) are inert.
                if self.awaiting == Some(tag) {
                    self.send_next(ctx);
                }
            }
        }
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<'_>, pkt: Packet) {
        let Ok(parsed) = pkt.parse() else { return };
        let Some((Op::Response, seq, t_send)) = wire::decode(parsed.payload) else {
            return;
        };
        let rtt = ctx.monotonic_ns().saturating_sub(t_send);
        self.latency.borrow_mut().record(rtt / 2);
        if self.mode == SockperfMode::PingPong && self.awaiting == Some(seq) {
            self.awaiting = None;
            self.send_next(ctx);
        }
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
        assert!(w.queue_is_empty(), "no timers left");
    }

    #[test]
    fn ping_pong_mode_paces_by_rtt_not_interval() {
        // In ping-pong mode with a long timeout, 50 exchanges complete in
        // ~50 RTTs (20us each), far faster than 50 x 100us intervals.
        let (mut w, latency) = ping_pong_world_with(|c| c.ping_pong());
        w.run_until(SimTime::from_millis(5));
        let summary = latency.borrow_mut().summary().unwrap();
        assert_eq!(summary.count, 50);
        assert_eq!(summary.p50_ns, 10_000);
        // All 50 round trips fit in ~1.1ms of simulated time.
        assert!(w.queue_is_empty() || w.now() <= SimTime::from_millis(5));
    }

    fn ping_pong_world_with(
        f: impl Fn(SockperfClient) -> SockperfClient,
    ) -> (World, Rc<RefCell<LatencyRecorder>>) {
        let mut w = World::new(22);
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
        let client = f(SockperfClient::new(
            flow,
            DEFAULT_MSG_SIZE,
            SimDuration::from_micros(100),
            50,
            Rc::clone(&latency),
        ));
        let client = w.add_app(n, c_tx, Box::new(client));
        let server = w.add_app(n, s_tx, Box::new(SockperfServer::new()));
        w.bind_app(s_rx, 11111, server);
        w.bind_app(c_rx, 40000, client);
        (w, latency)
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
