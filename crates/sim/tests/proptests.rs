//! Property-based tests for the packet codecs and trace-ID operations.

use proptest::prelude::*;
use std::net::{Ipv4Addr, SocketAddrV4};
use vnet_sim::packet::{
    trace_id, vxlan_decapsulate, vxlan_encapsulate, FlowKey, Ipv4Header, PacketBuilder, TcpFlags,
    TcpOption, ETHERNET_HEADER_LEN,
};

prop_compose! {
    fn arb_ip()(a in 1u8..=254, b in 0u8..=255, c in 0u8..=255, d in 1u8..=254) -> Ipv4Addr {
        Ipv4Addr::new(a, b, c, d)
    }
}

prop_compose! {
    fn arb_udp_flow()(src in arb_ip(), dst in arb_ip(), sp in 1u16..=65535, dp in 1u16..=65535)
        -> FlowKey
    {
        FlowKey::udp(SocketAddrV4::new(src, sp), SocketAddrV4::new(dst, dp))
    }
}

prop_compose! {
    fn arb_tcp_flow()(src in arb_ip(), dst in arb_ip(), sp in 1u16..=65535, dp in 1u16..=65535)
        -> FlowKey
    {
        FlowKey::tcp(SocketAddrV4::new(src, sp), SocketAddrV4::new(dst, dp))
    }
}

proptest! {
    /// Any built UDP frame parses back to its flow and payload, with a
    /// valid IP checksum.
    #[test]
    fn udp_build_parse_round_trip(flow in arb_udp_flow(), payload in proptest::collection::vec(any::<u8>(), 0..1400)) {
        let pkt = PacketBuilder::udp(flow, payload.clone()).build();
        let parsed = pkt.parse().expect("parses");
        prop_assert_eq!(parsed.flow(), flow);
        prop_assert_eq!(parsed.payload, &payload[..]);
        prop_assert!(Ipv4Header::checksum_valid(&pkt.bytes()[ETHERNET_HEADER_LEN..]));
    }

    /// Any built TCP frame parses back, including its options.
    #[test]
    fn tcp_build_parse_round_trip(
        flow in arb_tcp_flow(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
        with_mss in any::<bool>(),
        id in any::<u32>(),
    ) {
        let mut b = PacketBuilder::tcp(flow, seq, ack, TcpFlags::ACK, payload.clone());
        if with_mss {
            b = b.tcp_option(TcpOption::Mss(1460));
        }
        let pkt = b.tcp_option(TcpOption::TraceId(id)).build();
        let parsed = pkt.parse().expect("parses");
        prop_assert_eq!(parsed.flow(), flow);
        prop_assert_eq!(parsed.payload, &payload[..]);
        prop_assert_eq!(parsed.tcp_trace_id(), Some(id));
    }

    /// UDP trace-ID inject → strip restores the exact original bytes
    /// (application transparency), for any payload and ID.
    #[test]
    fn udp_trace_id_transparency(
        flow in arb_udp_flow(),
        payload in proptest::collection::vec(any::<u8>(), 0..1400),
        id in any::<u32>(),
    ) {
        let original = PacketBuilder::udp(flow, payload).build();
        let mut pkt = original.clone();
        trace_id::inject_udp_trailer(&mut pkt, id).expect("inject");
        prop_assert_eq!(trace_id::read_udp_trailer(&pkt), Some(id));
        let recovered = trace_id::strip_udp_trailer(&mut pkt).expect("strip");
        prop_assert_eq!(recovered, id);
        prop_assert_eq!(pkt.bytes(), original.bytes());
    }

    /// TCP trace-ID injection preserves payload, flow and checksum.
    #[test]
    fn tcp_trace_id_preserves_frame(
        flow in arb_tcp_flow(),
        payload in proptest::collection::vec(any::<u8>(), 0..1000),
        id in any::<u32>(),
    ) {
        let mut pkt = PacketBuilder::tcp(flow, 5, 6, TcpFlags::PSH, payload.clone()).build();
        trace_id::inject_tcp_option(&mut pkt, id).expect("inject");
        let parsed = pkt.parse().expect("still parses");
        prop_assert_eq!(parsed.tcp_trace_id(), Some(id));
        prop_assert_eq!(parsed.payload, &payload[..]);
        prop_assert_eq!(parsed.flow(), flow);
        prop_assert!(Ipv4Header::checksum_valid(&pkt.bytes()[ETHERNET_HEADER_LEN..]));
    }

    /// VXLAN encapsulation round-trips any inner frame bit-exactly.
    #[test]
    fn vxlan_round_trip(
        flow in arb_udp_flow(),
        payload in proptest::collection::vec(any::<u8>(), 0..1300),
        vni in 0u32..(1 << 24),
        outer_src in arb_ip(),
        outer_dst in arb_ip(),
        sport in 1u16..=65535,
    ) {
        let inner = PacketBuilder::udp(flow, payload).build();
        let mut pkt = inner.clone();
        vxlan_encapsulate(&mut pkt, vni, outer_src, outer_dst, sport);
        let got_vni = vxlan_decapsulate(&mut pkt).expect("decaps");
        prop_assert_eq!(got_vni, vni);
        prop_assert_eq!(pkt.bytes(), inner.bytes());
    }

    /// The parser never panics on arbitrary bytes.
    #[test]
    fn parser_total_on_garbage(bytes in proptest::collection::vec(any::<u8>(), 0..200)) {
        let pkt = vnet_sim::packet::Packet::from_bytes(&bytes[..]);
        let _ = pkt.parse(); // must not panic
    }

    /// RPS hashing is deterministic and direction-sensitive.
    #[test]
    fn rps_hash_properties(flow in arb_udp_flow()) {
        prop_assert_eq!(flow.rps_hash(), flow.rps_hash());
        prop_assert_eq!(flow.reversed().reversed(), flow);
    }
}

mod sched_props {
    use proptest::prelude::*;
    use vnet_sim::ids::{CpuId, VcpuId};
    use vnet_sim::sched::{
        Credit2Scheduler, CreditScheduler, HyperScheduler, DEFAULT_CONTEXT_SWITCH_COST,
    };
    use vnet_sim::time::{SimDuration, SimTime};

    /// Drives a scheduler through an arbitrary wake/run/sleep trace and
    /// checks the core guarantees:
    /// * a wake never promises a time in the past;
    /// * the wake delay never exceeds the rate limit plus two context
    ///   switches (the hog's switch-in after the previous sleep delays
    ///   the start of its window, and the preemption pays one more);
    /// * repeated wakes before the promise keep the same promise.
    fn drive(mut sched: Box<dyn HyperScheduler>, gaps: Vec<u32>, ratelimit_us: u32) {
        sched.set_ratelimit(SimDuration::from_micros(u64::from(ratelimit_us)));
        let io = VcpuId(0);
        let hog = VcpuId(1);
        sched.add_vcpu(io, CpuId(0), 256, false);
        sched.add_vcpu(hog, CpuId(0), 256, true);
        let bound = SimDuration::from_micros(u64::from(ratelimit_us))
            + DEFAULT_CONTEXT_SWITCH_COST
            + DEFAULT_CONTEXT_SWITCH_COST;
        let mut now = SimTime::ZERO;
        for gap in gaps {
            now += SimDuration::from_micros(u64::from(gap) + 1);
            let runs_at = sched.wake(io, now);
            assert!(runs_at >= now, "promise {runs_at} before wake time {now}");
            assert!(
                runs_at - now <= bound,
                "delay {} exceeds ratelimit bound {}",
                runs_at - now,
                bound
            );
            let again = sched.wake(io, now);
            assert_eq!(again, runs_at, "re-wake must keep the promise");
            // Run briefly, then sleep.
            let done = runs_at + SimDuration::from_micros(2);
            sched.sleep(io, done);
            now = done;
        }
    }

    proptest! {
        #[test]
        fn credit2_wake_promises_bounded(
            gaps in proptest::collection::vec(0u32..3_000, 1..50),
            ratelimit_us in 0u32..2_000,
        ) {
            drive(Box::new(Credit2Scheduler::new()), gaps, ratelimit_us);
        }

        #[test]
        fn credit1_wake_promises_bounded(
            gaps in proptest::collection::vec(0u32..3_000, 1..50),
            ratelimit_us in 0u32..2_000,
        ) {
            drive(Box::new(CreditScheduler::new()), gaps, ratelimit_us);
        }

        /// The token-bucket policer never admits more than burst +
        /// rate * elapsed bytes.
        #[test]
        fn policer_never_over_admits(
            arrivals in proptest::collection::vec((1u32..100, 1usize..2_000), 1..200),
            rate_kbps in 1u64..1_000_000,
            burst_kb in 1u64..10_000,
        ) {
            use vnet_sim::device::{PolicerConfig, TokenBucket};
            let cfg = PolicerConfig { rate_kbps, burst_kb };
            let mut tb = TokenBucket::new(cfg);
            let mut now_ns: u64 = 0;
            let mut admitted_bits: u64 = 0;
            for (gap_us, len) in arrivals {
                now_ns += u64::from(gap_us) * 1_000;
                if tb.admit(len, SimTime::from_nanos(now_ns)) {
                    admitted_bits += (len as u64) * 8;
                }
            }
            let budget = burst_kb * 1_000
                + (rate_kbps as u128 * 1_000 * now_ns as u128 / 1_000_000_000) as u64
                // one packet of slack for the boundary admission
                + 2_000 * 8;
            prop_assert!(
                admitted_bits <= budget,
                "admitted {admitted_bits} bits exceeds budget {budget}"
            );
        }
    }
}

mod conservation {
    use proptest::prelude::*;
    use std::cell::RefCell;
    use std::net::SocketAddrV4;
    use std::rc::Rc;
    use vnet_sim::device::{DeviceConfig, Forwarding, Gate, HtbConfig, ServiceModel};
    use vnet_sim::ids::{CpuId, DeviceId, VcpuId};
    use vnet_sim::node::NodeClock;
    use vnet_sim::packet::{FlowKey, PacketBuilder, SocketAddrV4Ext};
    use vnet_sim::sched::{Credit2Scheduler, HyperScheduler};
    use vnet_sim::time::{SimDuration, SimTime};
    use vnet_sim::world::World;

    struct Counter(Rc<RefCell<u64>>);
    impl vnet_sim::app::App for Counter {
        fn on_packet(&mut self, _: &mut vnet_sim::app::AppCtx<'_>, _: vnet_sim::packet::Packet) {
            *self.0.borrow_mut() += 1;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Packet conservation: every injected packet is either delivered,
        /// dropped (with a counted reason), or still queued/in flight —
        /// across random loads, queue sizes and a mid-run device failure.
        ///
        /// The world is one chain from an injection device to a delivering
        /// sink: random ungated devices, each wired to the next with no
        /// latency (the hop and the start run inline in the sender's
        /// handler) or with 1 µs, plus one HTB-shaped device and one
        /// vCPU-gated device at random places, whose starts stay scheduled
        /// events. Bursts arrive in one instant at the idle head of the
        /// chain, and any device of it may fail for a while. `plain` is
        /// each ungated device's service time in ns, its queue capacity and
        /// whether the wire to the next device takes no time.
        #[test]
        fn injected_equals_delivered_plus_dropped_plus_queued(
            bursts in proptest::collection::vec((0u64..400, 1usize..40), 1..6),
            plain in proptest::collection::vec((50u64..20_000, 1usize..64, any::<bool>()), 1..5),
            htb_at in 0usize..6,
            vcpu_at in 0usize..6,
            htb_rate_mbps in 1u64..100,
            shape_all in any::<bool>(),
            hog in any::<bool>(),
            fail in proptest::option::of((0usize..8, 0u64..2_000, 1u64..2_000)),
        ) {
            let mut w = World::new(7);
            let n = w.add_node("host", 1, NodeClock::perfect());
            let mut sched = Credit2Scheduler::new();
            sched.add_vcpu(VcpuId(0), CpuId(0), 256, false);
            if hog {
                sched.add_vcpu(VcpuId(1), CpuId(0), 256, true);
            }
            w.set_scheduler(n, Box::new(sched));
            let stage = |name: String, service_ns: u64, queue_cap: usize| {
                DeviceConfig::new(name, n)
                    .service(ServiceModel::Fixed(SimDuration::from_nanos(service_ns)))
                    .queue_capacity(queue_cap)
            };
            let mut chain: Vec<(DeviceConfig, bool)> = plain
                .iter()
                .enumerate()
                .map(|(i, &(service_ns, cap, zero_hop))| {
                    (stage(format!("plain{i}"), service_ns, cap), zero_hop)
                })
                .collect();
            let htb = HtbConfig {
                rate_kbps: htb_rate_mbps * 1_000,
                burst_kb: 2,
                shape_min_len: if shape_all { 0 } else { 1_500 },
            };
            let shaped = stage("htb".into(), 300, 32).htb(htb);
            chain.insert(htb_at % (chain.len() + 1), (shaped, true));
            let gated = stage("vcpu".into(), 500, 32).gate(Gate::Vcpu(VcpuId(0)));
            chain.insert(vcpu_at % (chain.len() + 1), (gated, true));
            let src = w.add_device(stage("src".into(), 200, 10_000));
            let mut devices = vec![src];
            let mut zero_hop = true;
            for (cfg, zero_next) in chain {
                let dev = w.add_device(cfg);
                let latency = if zero_hop { 0 } else { 1 };
                w.connect(*devices.last().unwrap(), dev, SimDuration::from_micros(latency));
                devices.push(dev);
                zero_hop = zero_next;
            }
            let sink = w.add_device(
                stage("sink".into(), 100, 10_000).forwarding(Forwarding::Deliver),
            );
            w.connect(*devices.last().unwrap(), sink, SimDuration::ZERO);
            devices.push(sink);
            let delivered = Rc::new(RefCell::new(0u64));
            let app = w.add_app(n, src, Box::new(Counter(Rc::clone(&delivered))));
            w.bind_app(sink, 7, app);

            let flow = FlowKey::udp(
                SocketAddrV4::sock("10.0.0.1", 1),
                SocketAddrV4::sock("10.0.0.2", 7),
            );
            let mut injected = 0u64;
            let mut clock = SimTime::ZERO;
            for (gap_us, count) in &bursts {
                clock += SimDuration::from_micros(*gap_us);
                w.run_until(clock);
                for _ in 0..*count {
                    w.inject(src, PacketBuilder::udp(flow, vec![0u8; 40]).build());
                    injected += 1;
                }
            }
            if let Some((at, down_at, dur)) = fail {
                let dev: DeviceId = devices[at % devices.len()];
                let down = SimTime::from_micros(down_at.min(clock.as_micros()));
                if down > w.now() {
                    w.run_until(down);
                }
                w.set_device_down(dev, true);
                w.run_for(SimDuration::from_micros(dur));
                w.set_device_down(dev, false);
            }
            // Drain for long enough that nothing can still be in flight
            // unless it is queued behind the failed window: the shaper
            // paces at least 1 Mbps, and the vCPU waits out a hog's
            // ratelimit at most once per wake.
            w.run_for(SimDuration::from_millis(500));

            let dropped: u64 = devices
                .iter()
                .map(|&d| w.device_counters(d).dropped_total())
                .sum();
            let queued: u64 = devices.iter().map(|&d| w.device_queue_len(d) as u64).sum();
            prop_assert_eq!(
                injected,
                *delivered.borrow_mut() + dropped + queued,
                "conservation violated: injected {} delivered {} dropped {} queued {}",
                injected,
                delivered.borrow_mut(),
                dropped,
                queued
            );
            prop_assert_eq!(queued, 0, "everything drains after recovery");
        }
    }
}
