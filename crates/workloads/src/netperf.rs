//! Netperf-style TCP stream workload (closed loop).
//!
//! Models `TCP_STREAM`: the sender keeps a window of segments in flight
//! and sends the next segment when an acknowledgement returns. Because
//! the loop is closed, anything that slows the receive path — like a
//! per-packet SystemTap probe at `tcp_recvmsg` — directly reduces
//! throughput, which is exactly the comparison of Fig. 7(b).

use std::cell::RefCell;
use std::rc::Rc;

use vnet_sim::app::{App, AppCtx};
use vnet_sim::packet::{FlowKey, Packet, PacketBuilder, TcpFlags};

use crate::stats::ThroughputRecorder;

/// Default TCP payload per segment (MSS on a 1500-byte MTU).
pub const DEFAULT_MSS: usize = 1448;
/// Default window in segments.
pub const DEFAULT_WINDOW: u32 = 32;

/// The Netperf sender.
#[derive(Debug)]
pub struct NetperfClient {
    flow: FlowKey,
    mss: usize,
    window: u32,
    total_segments: u64,
    sent: u64,
    acked: u64,
}

impl NetperfClient {
    /// Creates a sender streaming `total_segments` segments of `mss`
    /// payload bytes over the TCP `flow`, with `window` segments in
    /// flight.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(flow: FlowKey, mss: usize, window: u32, total_segments: u64) -> Self {
        assert!(window > 0, "window must be positive");
        NetperfClient {
            flow,
            mss,
            window,
            total_segments,
            sent: 0,
            acked: 0,
        }
    }

    fn fill_window(&mut self, ctx: &mut AppCtx<'_>) {
        while self.sent < self.total_segments && self.sent - self.acked < u64::from(self.window) {
            let seq = (self.sent as u32).wrapping_mul(self.mss as u32);
            let pkt = PacketBuilder::tcp(
                self.flow,
                seq,
                0,
                TcpFlags::ACK | TcpFlags::PSH,
                vec![0u8; self.mss],
            )
            .build();
            ctx.send(pkt);
            self.sent += 1;
        }
    }
}

impl App for NetperfClient {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.fill_window(ctx);
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<'_>, pkt: Packet) {
        // Any pure-ack segment from the server acknowledges one segment
        // (count-based window; sequence bookkeeping is not needed for
        // throughput fidelity).
        let Ok(parsed) = pkt.parse() else { return };
        if parsed.flow() != self.flow.reversed() {
            return;
        }
        if self.acked < self.sent {
            self.acked += 1;
        }
        if self.acked >= self.total_segments {
            return;
        }
        self.fill_window(ctx);
    }
}

/// The Netperf receiver: records goodput and acknowledges every segment.
#[derive(Debug)]
pub struct NetperfServer {
    throughput: Rc<RefCell<ThroughputRecorder>>,
}

impl NetperfServer {
    /// Creates a receiver reporting into `throughput`.
    pub fn new(throughput: Rc<RefCell<ThroughputRecorder>>) -> Self {
        NetperfServer { throughput }
    }
}

impl App for NetperfServer {
    fn on_packet(&mut self, ctx: &mut AppCtx<'_>, pkt: Packet) {
        let Ok(parsed) = pkt.parse() else { return };
        if parsed.payload.is_empty() {
            return; // ignore stray acks
        }
        self.throughput
            .borrow_mut()
            .record(parsed.payload.len(), ctx.monotonic_ns());
        let ack_flow = parsed.flow().reversed();
        let seq_end = match &parsed.transport {
            vnet_sim::packet::TransportHeader::Tcp(t) => {
                t.seq.wrapping_add(parsed.payload.len() as u32)
            }
            _ => 0,
        };
        let ack = PacketBuilder::tcp(ack_flow, 0, seq_end, TcpFlags::ACK, Vec::new()).build();
        ctx.send(ack);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::SocketAddrV4;
    use vnet_sim::device::{DeviceConfig, Forwarding, ServiceModel};
    use vnet_sim::node::NodeClock;
    use vnet_sim::packet::SocketAddrV4Ext;
    use vnet_sim::time::{SimDuration, SimTime};
    use vnet_sim::world::World;

    fn flow() -> FlowKey {
        FlowKey::tcp(
            SocketAddrV4::sock("10.0.0.1", 40000),
            SocketAddrV4::sock("10.0.0.2", 12865),
        )
    }

    /// Data path with a bandwidth-limited NIC and a fixed-cost receive
    /// stack; ack path is fast.
    fn build(
        stack_service: SimDuration,
        gbps: f64,
        segments: u64,
    ) -> (World, Rc<RefCell<ThroughputRecorder>>) {
        let mut w = World::new(41);
        let n = w.add_node("host", 2, NodeClock::perfect());
        let nic = w.add_device(
            DeviceConfig::new("nic", n).service(ServiceModel::Bandwidth {
                per_packet: SimDuration::ZERO,
                bits_per_sec: (gbps * 1e9) as u64,
            }),
        );
        let stack = w.add_device(
            DeviceConfig::new("stack", n)
                .service(ServiceModel::Fixed(stack_service))
                .queue_capacity(4096)
                .forwarding(Forwarding::Deliver),
        );
        let ack_path = w.add_device(
            DeviceConfig::new("ackpath", n)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(200)))
                .forwarding(Forwarding::Deliver),
        );
        w.connect(nic, stack, SimDuration::from_micros(5));
        let tput = ThroughputRecorder::shared();
        let server = w.add_app(n, ack_path, Box::new(NetperfServer::new(Rc::clone(&tput))));
        w.bind_app(stack, 12865, server);
        let client = w.add_app(
            n,
            nic,
            Box::new(NetperfClient::new(flow(), DEFAULT_MSS, 32, segments)),
        );
        w.bind_app(ack_path, 40000, client);
        (w, tput)
    }

    #[test]
    fn link_bound_stream_reaches_line_rate() {
        // Stack (2us) faster than the 1G wire (~12us/segment).
        let (mut w, tput) = build(SimDuration::from_micros(2), 1.0, 2_000);
        w.run_until(SimTime::from_millis(100));
        let mbps = tput.borrow_mut().throughput_mbps();
        // Payload goodput at 1G line rate: 1448/1502 * 1000 ≈ 964 Mbps.
        assert!((930.0..980.0).contains(&mbps), "got {mbps}");
    }

    #[test]
    fn stack_bound_stream_limited_by_service_time() {
        // Stack 10us becomes the bottleneck on a 10G wire.
        let (mut w, tput) = build(SimDuration::from_micros(10), 10.0, 2_000);
        w.run_until(SimTime::from_millis(100));
        let mbps = tput.borrow_mut().throughput_mbps();
        // 1448B / 10us = 1158 Mbps.
        assert!((1100.0..1200.0).contains(&mbps), "got {mbps}");
    }

    #[test]
    fn stream_completes_and_stops() {
        let (mut w, tput) = build(SimDuration::from_micros(1), 10.0, 100);
        w.run_until(SimTime::from_millis(50));
        assert_eq!(tput.borrow_mut().packets(), 100);
        let events = w.events_processed();
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.events_processed(), events, "the stream finished");
    }

    #[test]
    #[should_panic(expected = "window")]
    fn zero_window_rejected() {
        let _ = NetperfClient::new(flow(), DEFAULT_MSS, 0, 1);
    }
}
