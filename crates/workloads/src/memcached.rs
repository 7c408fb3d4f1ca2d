//! CloudSuite Data Caching (memcached) workload.
//!
//! Mirrors the Case Study II configuration: "the server side of Data
//! Caching executed Memcached … On the client side, we set up 4 worker
//! threads executing 20 connections to send the requests and the ratio of
//! GET/SET requests was configured as 4:1. We set a fixed request rate as
//! 5000 rps" (§IV-D). Requests run over memcached's UDP protocol; the
//! response latency of every request is recorded.

use std::cell::RefCell;
use std::rc::Rc;

use vnet_sim::app::{App, AppCtx};
use vnet_sim::packet::{FlowKey, Packet, PacketBuilder};
use vnet_sim::time::SimDuration;

use crate::stats::LatencyRecorder;
use crate::wire::{self, Op};

/// Default fixed request rate (requests/second) from the paper.
pub const DEFAULT_RPS: u64 = 5000;
/// GET:SET ratio from the paper.
pub const GET_SET_RATIO: u64 = 4;
/// GET request payload size (key).
pub const GET_REQUEST_SIZE: usize = 64;
/// SET request payload size (key + value).
pub const SET_REQUEST_SIZE: usize = 1024;
/// GET response payload size (value, Twitter-dataset-scale objects).
pub const GET_RESPONSE_SIZE: usize = 512;
/// SET response payload size (status).
pub const SET_RESPONSE_SIZE: usize = 24;

/// The Data Caching client: fixed-rate open-loop GET/SET mix.
#[derive(Debug)]
pub struct DataCachingClient {
    flow: FlowKey,
    interval: SimDuration,
    count: u64,
    sent: u64,
    latency: Rc<RefCell<LatencyRecorder>>,
}

impl DataCachingClient {
    /// Creates a client issuing `count` requests at `rps` requests per
    /// second on `flow`, recording response latencies into `latency`.
    ///
    /// # Panics
    ///
    /// Panics if `rps` is zero.
    pub fn new(flow: FlowKey, rps: u64, count: u64, latency: Rc<RefCell<LatencyRecorder>>) -> Self {
        assert!(rps > 0, "request rate must be positive");
        DataCachingClient {
            flow,
            interval: SimDuration::from_nanos(1_000_000_000 / rps),
            count,
            sent: 0,
            latency,
        }
    }

    fn send_next(&mut self, ctx: &mut AppCtx<'_>) {
        if self.sent >= self.count {
            return;
        }
        // Every (GET_SET_RATIO + 1)-th request is a SET.
        let is_set = self.sent % (GET_SET_RATIO + 1) == GET_SET_RATIO;
        let (op, size) = if is_set {
            (Op::Set, SET_REQUEST_SIZE)
        } else {
            (Op::Get, GET_REQUEST_SIZE)
        };
        let payload = wire::encode(op, self.sent, ctx.monotonic_ns(), size);
        ctx.send(PacketBuilder::udp(self.flow, payload).build());
        self.sent += 1;
        if self.sent < self.count {
            ctx.set_timer(self.interval, 0);
        }
    }
}

impl App for DataCachingClient {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.send_next(ctx);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, _tag: u64) {
        self.send_next(ctx);
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<'_>, pkt: Packet) {
        let Ok(parsed) = pkt.parse() else { return };
        let Some((Op::Response, _seq, t_send)) = wire::decode(parsed.payload) else {
            return;
        };
        self.latency
            .borrow_mut()
            .record(ctx.monotonic_ns().saturating_sub(t_send));
    }
}

/// A memcached proxy tier (mcrouter-style): forwards client requests to
/// an upstream backend and relays responses back, keeping a pending map
/// from sequence number to the originating client flow.
///
/// The proxy forwards the request *payload verbatim* — including the
/// 4-byte trace-ID trailer a sender-side `TraceIdRole::Inject` device
/// appended — so the in-band context crosses the tier boundary and the
/// `request-trace` module can join the client-side and backend-side
/// observations of one request into a single chain. For that to work the
/// proxy's devices must neither strip (`StripUdpTrailer` on ingress) nor
/// re-inject (`Inject` on egress) trace IDs.
#[derive(Debug)]
pub struct MemcachedProxy {
    upstream: FlowKey,
    pending: std::collections::HashMap<u64, FlowKey>,
}

impl MemcachedProxy {
    /// Creates a proxy forwarding requests on `upstream`
    /// (proxy → backend).
    pub fn new(upstream: FlowKey) -> Self {
        MemcachedProxy {
            upstream,
            pending: std::collections::HashMap::new(),
        }
    }
}

impl App for MemcachedProxy {
    fn on_packet(&mut self, ctx: &mut AppCtx<'_>, pkt: Packet) {
        let Ok(parsed) = pkt.parse() else { return };
        let Some((op, seq, _)) = wire::decode(parsed.payload) else {
            return;
        };
        match op {
            Op::Get | Op::Set => {
                self.pending.insert(seq, parsed.flow().reversed());
                let fwd = PacketBuilder::udp(self.upstream, parsed.payload.to_vec()).build();
                ctx.send(fwd);
            }
            Op::Response => {
                let Some(client) = self.pending.remove(&seq) else {
                    return;
                };
                let reply = PacketBuilder::udp(client, parsed.payload.to_vec()).build();
                ctx.send(reply);
            }
            Op::Echo => {}
        }
    }
}

/// The memcached server: answers GETs with values and SETs with a status.
#[derive(Debug, Default)]
pub struct DataCachingServer;

impl DataCachingServer {
    /// Creates a server.
    pub fn new() -> Self {
        DataCachingServer
    }
}

impl App for DataCachingServer {
    fn on_packet(&mut self, ctx: &mut AppCtx<'_>, pkt: Packet) {
        let Ok(parsed) = pkt.parse() else { return };
        let Some((op, seq, t_send)) = wire::decode(parsed.payload) else {
            return;
        };
        let size = match op {
            Op::Get => GET_RESPONSE_SIZE,
            Op::Set => SET_RESPONSE_SIZE,
            _ => return,
        };
        let reply = wire::encode(Op::Response, seq, t_send, size);
        ctx.send(PacketBuilder::udp(parsed.flow().reversed(), reply).build());
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

    #[test]
    fn get_set_ratio_and_latency() {
        let mut w = World::new(51);
        let n = w.add_node("host", 2, NodeClock::perfect());
        let c_tx = w.add_device(
            DeviceConfig::new("c-tx", n).service(ServiceModel::Fixed(SimDuration::from_micros(3))),
        );
        let s_rx = w.add_device(
            DeviceConfig::new("s-rx", n)
                .service(ServiceModel::Fixed(SimDuration::from_micros(3)))
                .forwarding(Forwarding::Deliver),
        );
        let s_tx = w.add_device(
            DeviceConfig::new("s-tx", n).service(ServiceModel::Fixed(SimDuration::from_micros(3))),
        );
        let c_rx = w.add_device(
            DeviceConfig::new("c-rx", n)
                .service(ServiceModel::Fixed(SimDuration::from_micros(3)))
                .forwarding(Forwarding::Deliver),
        );
        w.connect(c_tx, s_rx, SimDuration::ZERO);
        w.connect(s_tx, c_rx, SimDuration::ZERO);
        let flow = FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 30000),
            SocketAddrV4::sock("10.0.0.2", 11211),
        );
        let latency = LatencyRecorder::shared();
        let client = w.add_app(
            n,
            c_tx,
            Box::new(DataCachingClient::new(
                flow,
                DEFAULT_RPS,
                100,
                Rc::clone(&latency),
            )),
        );
        let server_app = DataCachingServer::new();
        let server = w.add_app(n, s_tx, Box::new(server_app));
        w.bind_app(s_rx, 11211, server);
        w.bind_app(c_rx, 30000, client);
        w.run_until(SimTime::from_millis(100));
        let s = latency.borrow_mut().summary().unwrap();
        assert_eq!(s.count, 100);
        // RTT through four 3us devices = 12us.
        assert_eq!(s.p50_ns, 12_000);
        // Requests spaced at 1/5000s = 200us; none is left in flight.
        let events = w.events_processed();
        w.run_for(SimDuration::from_secs(1));
        assert_eq!(w.events_processed(), events);
    }

    #[test]
    #[should_panic(expected = "request rate")]
    fn zero_rps_rejected() {
        let flow = FlowKey::udp(
            SocketAddrV4::sock("10.0.0.1", 1),
            SocketAddrV4::sock("10.0.0.2", 2),
        );
        let _ = DataCachingClient::new(flow, 0, 1, LatencyRecorder::shared());
    }
}
