//! A TCP bulk sender with AIMD congestion control.
//!
//! The paper's iPerf runs TCP by default: its offered load breathes with
//! congestion control instead of holding a fixed rate. This client
//! implements classic Reno-style behaviour — slow start, congestion
//! avoidance, per-segment retransmission timers, multiplicative decrease
//! on loss — which is what makes a congested queue *oscillate* (and
//! latency probes sharing it see a tail rather than a constant delay).
//!
//! Pairs with [`crate::NetperfServer`], which acks every data segment.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use vnet_sim::app::{App, AppCtx};
use vnet_sim::packet::{FlowKey, Packet, PacketBuilder, TcpFlags, TransportHeader};
use vnet_sim::time::SimDuration;

/// Initial slow-start threshold in segments.
const INITIAL_SSTHRESH: f64 = 64.0;
/// Minimum congestion window in segments.
const MIN_CWND: f64 = 1.0;

/// Counters exposed for tests and reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TcpStreamStats {
    /// Segments acknowledged (goodput, in segments).
    pub acked: u64,
    /// Retransmissions sent.
    pub retransmits: u64,
    /// Multiplicative-decrease events (loss episodes).
    pub md_events: u64,
}

/// The AIMD bulk sender.
pub struct TcpStreamClient {
    flow: FlowKey,
    mss: usize,
    total_segments: u64,
    rto: SimDuration,
    cwnd: f64,
    ssthresh: f64,
    next_seq: u64,
    inflight: BTreeMap<u64, u32>, // seq -> send epoch (stale-timer guard)
    stats: Rc<RefCell<TcpStreamStats>>,
    epoch: u32,
}

impl std::fmt::Debug for TcpStreamClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpStreamClient")
            .field("flow", &self.flow)
            .field("cwnd", &self.cwnd)
            .field("inflight", &self.inflight.len())
            .finish()
    }
}

impl TcpStreamClient {
    /// Creates a sender streaming `total_segments` of `mss` payload bytes
    /// over the TCP `flow`, with retransmission timeout `rto`.
    ///
    /// # Panics
    ///
    /// Panics if `total_segments` is zero.
    pub fn new(
        flow: FlowKey,
        mss: usize,
        total_segments: u64,
        rto: SimDuration,
        stats: Rc<RefCell<TcpStreamStats>>,
    ) -> Self {
        assert!(total_segments > 0, "stream needs at least one segment");
        TcpStreamClient {
            flow,
            mss,
            total_segments,
            rto,
            cwnd: 2.0,
            ssthresh: INITIAL_SSTHRESH,
            next_seq: 0,
            inflight: BTreeMap::new(),
            stats,
            epoch: 0,
        }
    }

    fn send_segment(&mut self, ctx: &mut AppCtx<'_>, seq: u64) {
        let pkt = PacketBuilder::tcp(
            self.flow,
            (seq as u32).wrapping_mul(self.mss as u32),
            0,
            TcpFlags::ACK | TcpFlags::PSH,
            vec![(seq & 0xff) as u8; self.mss],
        )
        .build();
        ctx.send(pkt);
        self.inflight.insert(seq, self.epoch);
        // Timer tag encodes (epoch, seq) so stale timers are ignored.
        ctx.set_timer(self.rto, (u64::from(self.epoch) << 40) | seq);
    }

    fn fill_window(&mut self, ctx: &mut AppCtx<'_>) {
        while self.next_seq < self.total_segments && (self.inflight.len() as f64) < self.cwnd {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.send_segment(ctx, seq);
        }
    }

    fn on_ack(&mut self, ctx: &mut AppCtx<'_>, acked_seq: u64) {
        if self.inflight.remove(&acked_seq).is_none() {
            return; // duplicate or late ack
        }
        self.stats.borrow_mut().acked += 1;
        if self.cwnd < self.ssthresh {
            self.cwnd += 1.0; // slow start
        } else {
            self.cwnd += 1.0 / self.cwnd; // congestion avoidance
        }
        self.fill_window(ctx);
    }
}

impl App for TcpStreamClient {
    fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
        self.fill_window(ctx);
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<'_>, pkt: Packet) {
        let Ok(parsed) = pkt.parse() else { return };
        if parsed.flow() != self.flow.reversed() {
            return;
        }
        let TransportHeader::Tcp(tcp) = &parsed.transport else {
            return;
        };
        // The server acks with ack = seq_end = (seq+mss); recover the
        // segment index.
        let seq = u64::from(tcp.ack.wrapping_sub(self.mss as u32)) / self.mss as u64
            % (u64::from(u32::MAX) / self.mss as u64 + 1);
        // 32-bit wraparound makes exact recovery ambiguous for very long
        // streams; resolve against the oldest matching inflight seq.
        let candidate = self
            .inflight
            .keys()
            .copied()
            .find(|s| s % (u64::from(u32::MAX) / self.mss as u64 + 1) == seq);
        if let Some(seq) = candidate {
            self.on_ack(ctx, seq);
        }
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<'_>, tag: u64) {
        let (epoch, seq) = ((tag >> 40) as u32, tag & ((1 << 40) - 1));
        // Only a timer from the segment's *current* transmission counts.
        if self.inflight.get(&seq) != Some(&epoch) {
            return;
        }
        // Loss: multiplicative decrease and retransmit.
        {
            let mut st = self.stats.borrow_mut();
            st.retransmits += 1;
            st.md_events += 1;
        }
        self.ssthresh = (self.cwnd / 2.0).max(MIN_CWND);
        self.cwnd = self.ssthresh.max(MIN_CWND);
        self.epoch = self.epoch.wrapping_add(1);
        self.send_segment(ctx, seq);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ThroughputRecorder;
    use crate::NetperfServer;
    use std::net::SocketAddrV4;
    use vnet_sim::device::{DeviceConfig, Forwarding, ServiceModel};
    use vnet_sim::node::NodeClock;
    use vnet_sim::packet::SocketAddrV4Ext;
    use vnet_sim::time::SimTime;
    use vnet_sim::world::World;

    fn flow() -> FlowKey {
        FlowKey::tcp(
            SocketAddrV4::sock("10.0.0.1", 40000),
            SocketAddrV4::sock("10.0.0.2", 5201),
        )
    }

    /// Bottleneck with a small queue so AIMD must kick in.
    fn build(
        queue: usize,
        segments: u64,
    ) -> (
        World,
        Rc<RefCell<TcpStreamStats>>,
        Rc<RefCell<ThroughputRecorder>>,
    ) {
        let mut w = World::new(71);
        let n = w.add_node("host", 2, NodeClock::perfect());
        let bottleneck = w.add_device(
            DeviceConfig::new("bottleneck", n)
                .service(ServiceModel::Fixed(SimDuration::from_micros(10)))
                .queue_capacity(queue),
        );
        let stack = w.add_device(
            DeviceConfig::new("stack", n)
                .service(ServiceModel::Fixed(SimDuration::from_micros(1)))
                .queue_capacity(4096)
                .forwarding(Forwarding::Deliver),
        );
        let ack_path = w.add_device(
            DeviceConfig::new("ack", n)
                .service(ServiceModel::Fixed(SimDuration::from_nanos(200)))
                .queue_capacity(4096)
                .forwarding(Forwarding::Deliver),
        );
        w.connect(bottleneck, stack, SimDuration::from_micros(20));
        let tput = ThroughputRecorder::shared();
        let server = w.add_app(n, ack_path, Box::new(NetperfServer::new(Rc::clone(&tput))));
        w.bind_app(stack, 5201, server);
        let stats = Rc::new(RefCell::new(TcpStreamStats::default()));
        let client = w.add_app(
            n,
            bottleneck,
            Box::new(TcpStreamClient::new(
                flow(),
                1448,
                segments,
                SimDuration::from_millis(2),
                Rc::clone(&stats),
            )),
        );
        w.bind_app(ack_path, 40000, client);
        (w, stats, tput)
    }

    #[test]
    fn lossless_stream_completes_and_grows_cwnd() {
        let (mut w, stats, tput) = build(4096, 500);
        w.run_until(SimTime::from_millis(200));
        let st = stats.borrow_mut();
        assert_eq!(st.acked, 500, "all segments acknowledged");
        assert_eq!(st.retransmits, 0, "no loss on a deep queue");
        assert_eq!(tput.borrow_mut().packets(), 500);
    }

    #[test]
    fn small_queue_forces_aimd_oscillation() {
        let (mut w, stats, _) = build(8, 2_000);
        w.run_until(SimTime::from_secs(2));
        let st = stats.borrow_mut();
        assert_eq!(st.acked, 2_000, "stream still completes despite drops");
        assert!(st.md_events > 3, "AIMD must back off repeatedly: {st:?}");
        assert!(st.retransmits > 3);
    }

    #[test]
    fn throughput_approaches_bottleneck_rate() {
        // 10us per segment = 1158 Mbps payload ceiling.
        let (mut w, _, tput) = build(64, 2_000);
        w.run_until(SimTime::from_secs(1));
        let mbps = tput.borrow_mut().throughput_mbps();
        assert!(
            (900.0..1_200.0).contains(&mbps),
            "AIMD should keep the bottleneck busy: {mbps}"
        );
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn zero_segments_rejected() {
        let _ = TcpStreamClient::new(
            flow(),
            1448,
            0,
            SimDuration::from_millis(1),
            Rc::new(RefCell::new(TcpStreamStats::default())),
        );
    }
}
