//! Determinism: a run is a function of its seed.
//!
//! For a fixed seed, the simulation — including everything the tracer
//! observes and records — is bit-for-bit identical across repeated runs
//! and however the run is stepped. The canonical push-key event ordering
//! and the per-node RNG streams are what make this hold; these tests are
//! the tripwire if either regresses.

use vnet_sim::time::SimTime;
use vnet_testbed::rack::RackTestbed;
use vnet_tsdb::persist::write_json_lines;
use vnet_tsdb::TraceDb;
use vnet_workloads::datacenter_rack::RackConfig;
use vnettracer::VNetTracer;

/// One traced small-rack run to 10.36 ms (the span `RackTestbed::run`
/// covers), advanced in `steps` equal `run_until` calls and reduced to a
/// comparable fingerprint: serialized trace DB bytes, probe firings,
/// events processed, and the workload's own delivery counts.
fn traced_run(steps: u64) -> (Vec<u8>, u64, u64, Vec<(u64, u64)>) {
    const HORIZON_NS: u64 = 10_360_000;
    let cfg = RackConfig::small();
    let mut tb = RackTestbed::build(&cfg);
    let pkg = tb.control_package();
    let mut tracer = VNetTracer::for_world(&tb.scenario.world, TraceDb::new());
    tracer.deploy(&mut tb.scenario.world, &pkg).unwrap();
    for k in 1..=steps {
        let until = SimTime::from_nanos(HORIZON_NS / steps * k);
        tb.scenario.world.run_until(until);
    }
    assert_eq!(tb.scenario.world.now().as_nanos(), HORIZON_NS);
    tracer.collect(&tb.scenario.world);
    let mut db = Vec::new();
    write_json_lines(tracer.db(), &mut db).unwrap();
    (
        db,
        tb.scenario.world.probes_fired(),
        tb.scenario.world.events_processed(),
        tb.scenario.delivery_fingerprint(),
    )
}

/// Stopping and resuming the loop must not be observable: between two
/// `run_until` calls the world hands over its queue, clock, counters and
/// RNG streams to itself, and a thousand hand-overs change nothing.
#[test]
fn stepped_run_equals_one_shot() {
    let (db1, fired1, events1, delivery1) = traced_run(1);
    assert!(!db1.is_empty(), "the trace DB must not be empty");
    assert!(fired1 > 0, "probes must fire");
    assert_eq!(delivery1.iter().map(|d| d.0).sum::<u64>(), 256);
    let (db, fired, events, delivery) = traced_run(1_000);
    assert_eq!(fired, fired1, "probes_fired");
    assert_eq!(events, events1, "events_processed");
    assert_eq!(delivery, delivery1, "deliveries");
    assert_eq!(db, db1, "trace DB must be byte-identical");
}

#[test]
fn same_seed_identical_output_across_repeated_runs() {
    let (db_a, fired_a, events_a, delivery_a) = traced_run(1);
    let (db_b, fired_b, events_b, delivery_b) = traced_run(1);
    assert_eq!(fired_a, fired_b);
    assert_eq!(events_a, events_b);
    assert_eq!(delivery_a, delivery_b);
    assert_eq!(db_a, db_b, "repeated runs must be byte-identical");
}

/// Determinism and exactness of trace-driven link profiles.
///
/// Random `LinkProfile` schedules must never violate the simulator's
/// invariants: a packet experiences exactly the delay of the segment
/// active when it enters the wire (so "reordering" can only come from
/// the schedule itself), `loss_rate = 1.0` drops every frame,
/// and `loss_rate = 0.0` drops none.
mod profiled_links {
    use std::cell::RefCell;
    use std::net::SocketAddrV4;
    use std::rc::Rc;

    use proptest::prelude::*;
    use vnet_sim::app::{App, AppCtx};
    use vnet_sim::device::{DeviceConfig, Forwarding, ServiceModel};
    use vnet_sim::node::NodeClock;
    use vnet_sim::packet::{FlowKey, Packet, PacketBuilder, SocketAddrV4Ext};
    use vnet_sim::profile::{LinkProfile, LinkSegment};
    use vnet_sim::time::{SimDuration, SimTime};
    use vnet_sim::world::World;
    use vnet_sim::DeviceId;

    /// Base port latency the profile replaces.
    const BASE_LATENCY: SimDuration = SimDuration::from_micros(25);
    /// Send spacing.
    const INTERVAL: SimDuration = SimDuration::from_micros(50);
    /// Packets per sender.
    const PACKETS: u64 = 40;

    /// Sends `count` sequence-stamped UDP packets at [`INTERVAL`],
    /// starting at t = 0.
    struct SeqSender {
        flow: FlowKey,
        next: u64,
        count: u64,
    }

    impl SeqSender {
        fn tick(&mut self, ctx: &mut AppCtx<'_>) {
            if self.next == self.count {
                return;
            }
            let payload = self.next.to_le_bytes().to_vec();
            ctx.send(PacketBuilder::udp(self.flow, payload).build());
            self.next += 1;
            if self.next < self.count {
                ctx.set_timer(INTERVAL, 0);
            }
        }
    }

    impl App for SeqSender {
        fn on_start(&mut self, ctx: &mut AppCtx<'_>) {
            self.tick(ctx);
        }

        fn on_timer(&mut self, ctx: &mut AppCtx<'_>, _tag: u64) {
            self.tick(ctx);
        }

        fn on_packet(&mut self, _ctx: &mut AppCtx<'_>, _pkt: Packet) {}
    }

    /// A shared `(seq, arrival_ns)` delivery log.
    type DeliveryLog = Rc<RefCell<Vec<(u64, u64)>>>;

    /// Records `(seq, arrival_ns)` for every delivered packet.
    struct Recorder {
        log: DeliveryLog,
    }

    impl App for Recorder {
        fn on_packet(&mut self, ctx: &mut AppCtx<'_>, pkt: Packet) {
            let parsed = pkt.parse().expect("well-formed test packet");
            let seq = u64::from_le_bytes(parsed.payload[..8].try_into().unwrap());
            // Every node's clock is perfect, so it reads ground truth.
            self.log.borrow_mut().push((seq, ctx.monotonic_ns()));
        }
    }

    /// `pairs` sender/receiver node pairs, each joined by one profiled
    /// wire. Zero-cost devices on both ends, so a packet's send time is
    /// its wire-entry time and its delivery time is its wire-exit time:
    /// the recorder observes the link model and nothing else.
    fn profiled_world(
        profile: &LinkProfile,
        pairs: usize,
        seed: u64,
    ) -> (World, Vec<DeliveryLog>, Vec<DeviceId>) {
        let mut w = World::new(seed);
        let mut logs = Vec::new();
        let mut tx_devs = Vec::new();
        for i in 0..pairs {
            let s = w.add_node(format!("s{i}"), 1, NodeClock::perfect());
            let r = w.add_node(format!("r{i}"), 1, NodeClock::perfect());
            let tx = w.add_device(
                DeviceConfig::new("tx", s)
                    .service(ServiceModel::Fixed(SimDuration::ZERO))
                    .forwarding(Forwarding::Port(0)),
            );
            let rx = w.add_device(
                DeviceConfig::new("rx", r)
                    .service(ServiceModel::Fixed(SimDuration::ZERO))
                    .forwarding(Forwarding::Deliver),
            );
            let port = w.connect(tx, rx, BASE_LATENCY);
            w.attach_link_profile(tx, port, profile.clone());
            let flow = FlowKey::udp(
                SocketAddrV4::sock(&format!("10.{i}.0.1"), 1000),
                SocketAddrV4::sock(&format!("10.{i}.0.2"), 2000),
            );
            w.add_app(
                s,
                tx,
                Box::new(SeqSender {
                    flow,
                    next: 0,
                    count: PACKETS,
                }),
            );
            let log = Rc::new(RefCell::new(Vec::new()));
            let rcv = w.add_app(r, rx, Box::new(Recorder { log: log.clone() }));
            w.bind_app(rx, 2000, rcv);
            logs.push(log);
            tx_devs.push(tx);
        }
        (w, logs, tx_devs)
    }

    fn drain(logs: &[DeliveryLog]) -> Vec<Vec<(u64, u64)>> {
        logs.iter().map(|l| l.borrow_mut().clone()).collect()
    }

    /// The arrival times the link model promises: send time plus the
    /// delay of the segment active at wire entry.
    fn expected_arrivals(profile: &LinkProfile) -> Vec<(u64, u64)> {
        (0..PACKETS)
            .map(|k| {
                let sent = SimTime::from_nanos(k * INTERVAL.as_nanos());
                let seg = profile.segment_at(sent);
                (k, sent.as_nanos() + seg.delay.as_nanos())
            })
            .collect()
    }

    prop_compose! {
        /// A random delay-only schedule: 1–5 segments with strictly
        /// increasing starts, delays 1–400us over a span comparable to
        /// the 2ms send phase.
        fn arb_delay_profile()(
            delays in proptest::collection::vec(1u64..400, 1..6),
            gaps in proptest::collection::vec(50u64..600, 5),
        ) -> LinkProfile {
            let mut t = 0u64;
            let segments = delays
                .iter()
                .enumerate()
                .map(|(i, d)| {
                    let seg = LinkSegment {
                        start: SimTime::from_micros(t),
                        delay: SimDuration::from_micros(*d),
                        loss_rate: 0.0,
                        rate_bps: None,
                    };
                    t += gaps[i];
                    seg
                })
                .collect();
            LinkProfile::new(segments).expect("generated schedule is valid")
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Lossless, rate-free schedules deliver every packet at exactly
        /// `send + segment_at(send).delay` — no extra queueing, no
        /// reordering beyond what the schedule itself implies.
        #[test]
        fn random_delay_profiles_deliver_exactly_on_schedule(
            profile in arb_delay_profile(),
            seed in 1u64..1_000,
        ) {
            let (mut w, logs, txs) = profiled_world(&profile, 2, seed);
            w.run_until(SimTime::from_millis(20));
            let mut expected = expected_arrivals(&profile);
            expected.sort_unstable();
            for log in drain(&logs) {
                let mut got = log;
                got.sort_unstable();
                prop_assert_eq!(&got, &expected);
            }
            for tx in txs {
                prop_assert_eq!(w.device_counters(tx).dropped_link, 0);
            }
        }

        /// `loss_rate = 1.0` drops every frame at the wire — nothing is
        /// delivered, and the drop counter accounts for all of it.
        #[test]
        fn full_loss_drops_everything(
            delay_us in 1u64..400,
            seed in 1u64..1_000,
        ) {
            let profile = LinkProfile::new(vec![LinkSegment {
                start: SimTime::ZERO,
                delay: SimDuration::from_micros(delay_us),
                loss_rate: 1.0,
                rate_bps: None,
            }])
            .unwrap();
            let (mut w, logs, txs) = profiled_world(&profile, 2, seed);
            w.run_until(SimTime::from_millis(20));
            for log in drain(&logs) {
                prop_assert!(log.is_empty(), "delivered through a 100%-loss link: {log:?}");
            }
            for tx in txs {
                prop_assert_eq!(w.device_counters(tx).dropped_link, PACKETS);
            }
        }
    }

    /// A profile that *shrinks* the link delay mid-run (25us -> 2us at
    /// t = 1ms): on both sides of the step every packet must arrive
    /// exactly on the schedule's terms.
    #[test]
    fn delay_shrink_mid_run_is_sound() {
        let profile = LinkProfile::new(vec![
            LinkSegment {
                start: SimTime::ZERO,
                delay: SimDuration::from_micros(25),
                loss_rate: 0.0,
                rate_bps: None,
            },
            LinkSegment {
                start: SimTime::from_millis(1),
                delay: SimDuration::from_micros(2),
                loss_rate: 0.0,
                rate_bps: None,
            },
        ])
        .unwrap();
        let (mut w, logs, _) = profiled_world(&profile, 4, 11);
        w.run_until(SimTime::from_millis(20));
        let mut expected = expected_arrivals(&profile);
        expected.sort_unstable();
        for log in drain(&logs) {
            let mut got = log;
            got.sort_unstable();
            assert_eq!(got, expected, "run deviates from the schedule");
        }
    }
}

/// The order itself, pinned.
///
/// The tests above compare a run with another run of the same build, so
/// a change that reorders equal-time events consistently passes them.
/// Here every probe firing of two traced testbeds — which node, which
/// hook, which packet, at what node-clock reading — is folded in firing
/// order into an FNV-1a digest, and the digest is a recorded constant: a
/// different event order anywhere a probe can see it is a different
/// number. The values were recorded at commit `39f9c30`, before the event
/// queue was restructured; a change that moves them has changed what the
/// simulation computes, not how fast.
mod firing_order {
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::rc::Rc;

    use vnet_sim::probe::{ProbeEvent, ProbeOutcome, ProbeSink};
    use vnet_sim::world::World;
    use vnet_sim::NodeId;
    use vnet_testbed::rack::RackTestbed;
    use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
    use vnet_tsdb::TraceDb;
    use vnet_workloads::datacenter_rack::RackConfig;
    use vnettracer::config::ControlPackage;
    use vnettracer::VNetTracer;

    /// FNV-1a over the firings seen so far, and how many there were.
    #[derive(Default)]
    struct Digest {
        hash: u64,
        firings: u64,
    }

    impl Digest {
        fn fold(&mut self, word: u64) {
            for b in word.to_le_bytes() {
                self.hash ^= u64::from(b);
                self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }

    /// A free (zero-cost) probe that folds each firing into the shared
    /// digest; `hook` is the index of the trace script whose hook it
    /// shares.
    struct DigestSink {
        hook: u64,
        digest: Rc<RefCell<Digest>>,
    }

    impl ProbeSink for DigestSink {
        fn handle(&mut self, ev: &ProbeEvent<'_>) -> ProbeOutcome {
            let mut d = self.digest.borrow_mut();
            d.firings += 1;
            d.fold(u64::from(ev.node.0));
            d.fold(self.hook);
            d.fold(ev.packet.map_or(0, |p| p.uid().0));
            d.fold(ev.monotonic_ns);
            ProbeOutcome::default()
        }
    }

    /// Attaches a [`DigestSink`] beside every script of `pkg` (which the
    /// caller has deployed, so the probe costs that shape the timing are
    /// the real ones).
    fn attach_digest(
        world: &mut World,
        pkg: &ControlPackage,
        nodes: &HashMap<String, NodeId>,
    ) -> Rc<RefCell<Digest>> {
        let digest = Rc::new(RefCell::new(Digest {
            hash: 0xcbf2_9ce4_8422_2325,
            firings: 0,
        }));
        for (hook, spec) in pkg.traces.iter().enumerate() {
            let sink = Rc::new(RefCell::new(DigestSink {
                hook: hook as u64,
                digest: Rc::clone(&digest),
            }));
            world.attach_probe(nodes[&spec.node], spec.hook.to_sim_hook(), sink);
        }
        digest
    }

    fn rack_digest(cfg: &RackConfig) -> (u64, u64) {
        let mut tb = RackTestbed::build(cfg);
        let pkg = tb.control_package();
        let mut tracer = VNetTracer::for_world(&tb.scenario.world, TraceDb::new());
        tracer.deploy(&mut tb.scenario.world, &pkg).unwrap();
        let mut nodes = HashMap::from([("tor".to_owned(), tb.scenario.tor)]);
        for h in 0..cfg.hosts {
            nodes.insert(format!("host{h}"), tb.scenario.host_nodes[h]);
            for v in 0..cfg.vms_per_host {
                let vm = tb.scenario.vm_nodes[h * cfg.vms_per_host + v];
                nodes.insert(format!("vm{h}-{v}"), vm);
            }
        }
        let digest = attach_digest(&mut tb.scenario.world, &pkg, &nodes);
        tb.run();
        let d = digest.borrow();
        (d.firings, d.hash)
    }

    /// `RackConfig::small()` as it is, and with the 2 000 packets per app
    /// of `traced_rack_counts_are_pinned`, where queues build and equal
    /// times are common.
    #[test]
    fn small_rack_under_match_all_profile() {
        let small = RackConfig::small();
        assert_eq!(rack_digest(&small), (768, 5_676_252_196_696_940_769));
        let busy = RackConfig {
            packets_per_app: 2_000,
            ..small
        };
        assert_eq!(rack_digest(&busy), (96_000, 14_083_848_961_596_111_911));
    }

    #[test]
    fn two_host_testbed() {
        let cfg = TwoHostConfig {
            messages: 500,
            ..Default::default()
        };
        let mut s = TwoHostScenario::build(&cfg);
        let pkg = s.control_package();
        let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
        tracer.deploy(&mut s.world, &pkg).unwrap();
        let nodes = HashMap::from([
            ("server1".to_owned(), s.server1),
            ("server2".to_owned(), s.server2),
        ]);
        let digest = attach_digest(&mut s.world, &pkg, &nodes);
        s.run(&cfg);
        let d = digest.borrow();
        assert_eq!((d.firings, d.hash), (6_825, 15_771_272_282_727_405_944));
    }
}
