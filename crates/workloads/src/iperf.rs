//! iPerf-style open-loop UDP throughput workload.
//!
//! The congestion generator of Case Study I: clients blast fixed-size UDP
//! datagrams at a configured rate regardless of loss, saturating the OVS
//! ingress; the server counts delivered bytes.

use std::cell::RefCell;
use std::rc::Rc;

use vnet_sim::app::{App, AppCtx};
use vnet_sim::packet::{FlowKey, Packet, PacketBuilder};
use vnet_sim::time::SimDuration;

use crate::stats::ThroughputRecorder;
use crate::wire::{self, Op};

/// iPerf's default UDP payload size in bytes.
pub const DEFAULT_PKT_SIZE: usize = 1470;

/// The iPerf client: sends `count` datagrams of `pkt_size` bytes, one
/// every `interval`, never waiting for replies.
#[derive(Debug)]
pub struct IperfClient {
    flow: FlowKey,
    pkt_size: usize,
    interval: SimDuration,
    count: u64,
    sent: u64,
}

impl IperfClient {
    /// Creates a client.
    ///
    /// # Panics
    ///
    /// Panics if `pkt_size` cannot hold the probe header (17 bytes).
    pub fn new(flow: FlowKey, pkt_size: usize, interval: SimDuration, count: u64) -> Self {
        assert!(
            pkt_size >= wire::PROBE_HEADER_LEN,
            "packet too small for probe header"
        );
        IperfClient {
            flow,
            pkt_size,
            interval,
            count,
            sent: 0,
        }
    }

    /// A client whose send rate is expressed in megabits/second of
    /// payload.
    pub fn with_rate_mbps(flow: FlowKey, pkt_size: usize, rate_mbps: f64, count: u64) -> Self {
        let interval_ns = (pkt_size as f64 * 8.0 / (rate_mbps * 1e6) * 1e9).round() as u64;
        Self::new(
            flow,
            pkt_size,
            SimDuration::from_nanos(interval_ns.max(1)),
            count,
        )
    }

    fn send_next(&mut self, ctx: &mut AppCtx<'_>) {
        if self.sent >= self.count {
            return;
        }
        let payload = wire::encode(Op::Echo, self.sent, ctx.monotonic_ns(), self.pkt_size);
        ctx.send(PacketBuilder::udp(self.flow, payload).build());
        self.sent += 1;
        if self.sent < self.count {
            ctx.set_timer(self.interval, 0);
        }
    }
}

impl App for IperfClient {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.send_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, _tag: u64) {
        self.send_next(ctx);
    }

    fn on_packet(&mut self, _ctx: &mut AppCtx<'_>, _pkt: Packet) {}
}

/// The iPerf server: a sink recording delivered bytes.
#[derive(Debug)]
pub struct IperfServer {
    throughput: Rc<RefCell<ThroughputRecorder>>,
}

impl IperfServer {
    /// Creates a server reporting into `throughput`.
    pub fn new(throughput: Rc<RefCell<ThroughputRecorder>>) -> Self {
        IperfServer { throughput }
    }
}

impl App for IperfServer {
    fn on_packet(&mut self, ctx: &mut AppCtx<'_>, pkt: Packet) {
        if let Ok(parsed) = pkt.parse() {
            self.throughput
                .borrow_mut()
                .record(parsed.payload.len(), ctx.monotonic_ns());
        }
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

    fn flow() -> FlowKey {
        FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 5001),
            SocketAddrV4::sock("10.0.0.2", 5201),
        )
    }

    fn build(
        interval: SimDuration,
        service: SimDuration,
        count: u64,
        queue: usize,
    ) -> (World, Rc<RefCell<ThroughputRecorder>>, vnet_sim::DeviceId) {
        let mut w = World::new(31);
        let n = w.add_node("host", 2, NodeClock::perfect());
        let tx = w.add_device(
            DeviceConfig::new("tx", n).service(ServiceModel::Fixed(SimDuration::from_nanos(100))),
        );
        let rx = w.add_device(
            DeviceConfig::new("rx", n)
                .service(ServiceModel::Fixed(service))
                .queue_capacity(queue)
                .forwarding(Forwarding::Deliver),
        );
        w.connect(tx, rx, SimDuration::ZERO);
        let tput = ThroughputRecorder::shared();
        let server = w.add_app(n, tx, Box::new(IperfServer::new(Rc::clone(&tput))));
        w.bind_app(rx, 5201, server);
        w.add_app(
            n,
            tx,
            Box::new(IperfClient::new(flow(), 1470, interval, count)),
        );
        (w, tput, rx)
    }

    #[test]
    fn delivers_at_offered_rate_when_uncongested() {
        // 1470B every 100us = 117.6 Mbps payload.
        let (mut w, tput, _) = build(
            SimDuration::from_micros(100),
            SimDuration::from_micros(10),
            100,
            512,
        );
        w.run_until(SimTime::from_millis(20));
        let t = tput.borrow_mut();
        assert_eq!(t.packets(), 100);
        // 100 packets over 99 inter-arrival gaps: 1470*8*100/(99*100us).
        let mbps = t.throughput_mbps();
        let expected = 1470.0 * 8.0 * 100.0 / (99.0 * 100e-6) / 1e6;
        assert!(
            (mbps - expected).abs() < 0.5,
            "got {mbps}, expected {expected}"
        );
    }

    #[test]
    fn overload_drops_at_bottleneck() {
        // Offered every 5us, served every 10us, queue of 8: steady drops.
        let (mut w, tput, rx) = build(
            SimDuration::from_micros(5),
            SimDuration::from_micros(10),
            200,
            8,
        );
        w.run_until(SimTime::from_millis(10));
        let c = w.device_counters(rx);
        assert!(c.dropped_queue_full > 50, "bottleneck must drop, got {c:?}");
        assert!(tput.borrow_mut().packets() < 200);
    }

    #[test]
    fn rate_constructor_computes_interval() {
        let c = IperfClient::with_rate_mbps(flow(), 1470, 117.6, 10);
        // 1470*8 bits / 117.6Mbps = 100us.
        assert_eq!(c.interval, SimDuration::from_nanos(100_000));
    }
}
