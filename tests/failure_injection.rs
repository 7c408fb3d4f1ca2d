//! Failure injection: vNetTracer's loss metric localizes a failed
//! device ("packet loss is usually caused by network congestion, network
//! disconnection, device failure, etc.", §III-D), and the `vnet-live`
//! anomaly detector is validated against the trace-driven adversarial
//! condition suite with ground-truth precision/recall
//! (`detector_validation` module below).

use vnet_sim::SimDuration;
use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
use vnet_tsdb::TraceDb;
use vnettracer::metrics;
use vnettracer::VNetTracer;

#[test]
fn device_failure_shows_up_as_localized_loss() {
    let cfg = TwoHostConfig {
        messages: 600,
        background_mbps: 0.0,
        ..Default::default()
    };
    let mut s = TwoHostScenario::build(&cfg);
    let pkg = s.control_package();
    let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
    tracer.deploy(&mut s.world, &pkg).unwrap();

    // Run a third, fail server2's NIC receive side for a third, recover.
    let third = SimDuration::from_nanos(cfg.interval.as_nanos() * cfg.messages / 3);
    let victim = s.world.find_device(s.server2, "eth0-rx").unwrap();
    s.world.run_for(third);
    s.world.set_device_down(victim, true);
    assert!(s.world.device_is_down(victim));
    s.world.run_for(third);
    s.world.set_device_down(victim, false);
    s.world.run_for(third + SimDuration::from_millis(10));
    tracer.collect(&s.world);

    // The tracer sees every request leave server1's bridge but only the
    // surviving ones reach server2's bridge: the loss sits between the
    // two bridges — i.e. on the wire/NIC segment where the failure was.
    let loss = metrics::packet_loss(tracer.db(), "s1_ovs_br1", "s2_ovs_br1");
    assert_eq!(loss.upstream, 600, "all requests traced at the sender side");
    assert!(
        (150..=250).contains(&loss.lost),
        "about a third of the requests lost, got {}",
        loss.lost
    );
    // Ground truth agrees exactly.
    let dropped = s.world.device_counters(victim).dropped_down;
    assert_eq!(
        loss.lost, dropped,
        "traced loss equals the device's drop counter"
    );
    // No loss before the bridge: the sender stack segment is clean.
    assert_eq!(
        metrics::packet_loss(tracer.db(), "s1_ovs_br1", "s1_ovs_br1").lost,
        0
    );
    // The application view matches: exactly the surviving requests got
    // replies.
    let replies = s.latency.borrow_mut().samples().len() as u64;
    assert_eq!(replies, 600 - loss.lost);
    // Incomplete-record detection lists exactly the lost trace IDs.
    let incomplete = metrics::incomplete_ids(tracer.db(), &["s1_ovs_br1", "s2_ovs_br1"]);
    assert_eq!(incomplete.len() as u64, loss.lost);
    // Per-flow loss pins it on the sockperf request flow.
    let per_flow = metrics::per_flow_loss(tracer.db(), "s1_ovs_br1", "s2_ovs_br1");
    assert_eq!(per_flow.len(), 1);
    assert_eq!(per_flow[0].1.lost, loss.lost);
}

#[test]
fn recovery_resumes_queued_service() {
    // Packets queued *inside* a device when it goes down resume when it
    // comes back (only new arrivals are dropped while down).
    use std::net::SocketAddrV4;
    use vnet_sim::device::{DeviceConfig, Forwarding, ServiceModel};
    use vnet_sim::node::NodeClock;
    use vnet_sim::packet::{FlowKey, PacketBuilder, SocketAddrV4Ext};
    use vnet_sim::time::SimTime;
    use vnet_sim::world::World;

    let mut w = World::new(5);
    let n = w.add_node("host", 1, NodeClock::perfect());
    let d = w.add_device(
        DeviceConfig::new("dev", n)
            .service(ServiceModel::Fixed(SimDuration::from_millis(10)))
            .forwarding(Forwarding::Deliver),
    );
    let flow = FlowKey::udp(
        SocketAddrV4::sock("10.0.0.1", 1),
        SocketAddrV4::sock("10.0.0.2", 2),
    );
    // Three packets arrive while the device is up: one enters service
    // (10ms), two wait in the queue.
    for _ in 0..3 {
        w.inject(d, PacketBuilder::udp(flow, vec![0; 8]).build());
    }
    w.run_until(SimTime::from_micros(1));
    assert_eq!(w.device_queue_len(d), 2);
    // The device fails: a fourth arrival is dropped, the queued two are
    // held.
    w.set_device_down(d, true);
    w.inject(d, PacketBuilder::udp(flow, vec![0; 8]).build());
    w.run_until(SimTime::from_millis(5));
    assert_eq!(w.device_counters(d).dropped_down, 1);
    assert_eq!(w.device_queue_len(d), 2, "queued packets held while down");
    // Recovery drains the queue.
    w.set_device_down(d, false);
    w.run_until(SimTime::from_millis(50));
    assert_eq!(w.device_queue_len(d), 0);
    // (They are "delivered" to an unbound port and counted as no-route,
    // which is fine — the point is the queue drained after recovery.)
    assert_eq!(w.device_counters(d).tx_packets, 3);
}

/// Detector validation against the adversarial condition suite.
///
/// Each test replays one [`AdversarialProfile`] through the emulation
/// harness and scores the `vnet-live` alerts against the generator's
/// exact condition-active windows. The matching tolerance is
/// `window + pair_timeout` on both sides of every episode (the
/// congested-WAN condition gets a longer trailing slack covering the
/// serialization-backlog drain) — see `vnet_testbed::emulate` and
/// DESIGN.md §9 for the derivation. Fixture seed: 7 (the
/// `EmulationConfig` default). Measured scores at this seed are
/// 1.000/1.000 for every profile on both scenarios; the assertions
/// use the issue's acceptance floors so small detector-tuning changes
/// don't need a fixture refresh.
mod detector_validation {
    use vnet_live::{Alert, AlertKind};
    use vnet_testbed::emulate::{
        run_rack, run_two_host, AdversarialProfile, EmulationConfig, EmulationReport,
    };

    /// Acceptance floor: at least 90% of characteristic alerts must fall
    /// inside a ground-truth episode (plus slack).
    const MIN_PRECISION: f64 = 0.9;
    /// Acceptance floor: at least 80% of episodes must be detected.
    const MIN_RECALL: f64 = 0.8;

    /// One line per alert, its `Display`, under `label`.
    fn alert_lines(label: &str, alerts: &[Alert]) -> String {
        alerts.iter().map(|a| format!("{label} {a}\n")).collect()
    }

    /// CRC-32 over everything a report shows: its episodes, every
    /// alert's `Display`, the matched/detected counts and the simulator's
    /// event count.
    fn report_crc(r: &EmulationReport) -> u32 {
        let mut text: String = r
            .episodes
            .iter()
            .map(|e| format!("episode {}..{}\n", e.start.as_nanos(), e.end.as_nanos()))
            .collect();
        text += &alert_lines("expected", &r.expected_alerts);
        text += &alert_lines("other", &r.other_alerts);
        text += &format!(
            "matched {} detected {} events {}\n",
            r.matched_alerts, r.detected_episodes, r.events_processed
        );
        vnet_tsdb::codec::crc32(text.as_bytes())
    }

    fn assert_validated(r: &EmulationReport, want_crc: u32) {
        let name = r.profile.map_or("clean", |p| p.name());
        assert!(
            r.episodes.len() >= 3,
            "{name}: want >=3 ground-truth episodes, got {}",
            r.episodes.len()
        );
        assert!(
            !r.expected_alerts.is_empty(),
            "{name}: the detector raised no characteristic alerts at all"
        );
        assert!(
            r.precision() >= MIN_PRECISION,
            "{name}: precision {:.3} < {MIN_PRECISION} ({}/{} alerts matched; other: {:?})",
            r.precision(),
            r.matched_alerts,
            r.expected_alerts.len(),
            r.other_alerts
        );
        let recall = r.recall().expect("the default run spans several episodes");
        assert!(
            recall >= MIN_RECALL,
            "{name}: recall {recall:.3} < {MIN_RECALL} ({}/{} episodes detected)",
            r.detected_episodes,
            r.episodes.len()
        );
        let crc = report_crc(r);
        assert_eq!(crc, want_crc, "{name}: report crc32 {crc:#010x}");
    }

    // ---- two-host scenario, one test per profile -------------------

    #[test]
    fn two_host_leo_handover_detected() {
        assert_validated(
            &run_two_host(
                Some(AdversarialProfile::LeoHandover),
                &EmulationConfig::default(),
            ),
            0x26db_af58,
        );
    }

    #[test]
    fn two_host_congested_wan_detected() {
        assert_validated(
            &run_two_host(
                Some(AdversarialProfile::CongestedWan),
                &EmulationConfig::default(),
            ),
            0x7a6f_47f7,
        );
    }

    #[test]
    fn two_host_flapping_detected() {
        assert_validated(
            &run_two_host(
                Some(AdversarialProfile::Flapping),
                &EmulationConfig::default(),
            ),
            0xcd0f_16bf,
        );
    }

    #[test]
    fn two_host_asymmetric_skew_detected_on_reverse_only() {
        let r = run_two_host(
            Some(AdversarialProfile::AsymmetricSkew),
            &EmulationConfig::default(),
        );
        assert_validated(&r, 0xc109_cd8b);
        // The skew is applied to the reply direction only: the forward
        // pair must stay quiet, or the detector is mislocalizing.
        let fwd_spikes = r
            .other_alerts
            .iter()
            .filter(|a| {
                matches!(&a.kind,
                    AlertKind::LatencySpike { pair, .. } if pair == "s1_ovs_br1->s2_ovs_br1")
            })
            .count();
        assert_eq!(
            fwd_spikes, 0,
            "reverse-only skew must not raise latency spikes on the forward pair"
        );
    }

    #[test]
    fn two_host_gilbert_elliott_detected() {
        assert_validated(
            &run_two_host(
                Some(AdversarialProfile::GilbertElliott),
                &EmulationConfig::default(),
            ),
            0x4cc6_1b13,
        );
    }

    // ---- rack scenario, one test per profile -----------------------

    #[test]
    fn rack_leo_handover_detected() {
        assert_validated(
            &run_rack(
                Some(AdversarialProfile::LeoHandover),
                &EmulationConfig::default(),
            ),
            0x3ded_fede,
        );
    }

    #[test]
    fn rack_congested_wan_detected() {
        assert_validated(
            &run_rack(
                Some(AdversarialProfile::CongestedWan),
                &EmulationConfig::default(),
            ),
            0xd8f7_32a8,
        );
    }

    #[test]
    fn rack_flapping_detected() {
        assert_validated(
            &run_rack(
                Some(AdversarialProfile::Flapping),
                &EmulationConfig::default(),
            ),
            0x8288_834f,
        );
    }

    #[test]
    fn rack_asymmetric_skew_detected() {
        assert_validated(
            &run_rack(
                Some(AdversarialProfile::AsymmetricSkew),
                &EmulationConfig::default(),
            ),
            0x9569_6161,
        );
    }

    #[test]
    fn rack_gilbert_elliott_detected() {
        assert_validated(
            &run_rack(
                Some(AdversarialProfile::GilbertElliott),
                &EmulationConfig::default(),
            ),
            0xc057_27ca,
        );
    }

    // ---- false positives -------------------------------------------

    /// A clean run (no profile attached) must raise zero alerts under the
    /// detector's fixed thresholds. Fixture seed: 7.
    #[test]
    fn clean_two_host_emits_no_alerts() {
        let alerts = run_two_host(None, &EmulationConfig::default()).other_alerts;
        assert!(
            alerts.is_empty(),
            "clean two-host run raised false alerts: {alerts:?}"
        );
        let crc = vnet_tsdb::codec::crc32(alert_lines("other", &alerts).as_bytes());
        assert_eq!(crc, 0x0000_0000, "alerts crc32 {crc:#010x}");
    }

    /// Same for the rack: healthy fabric, default detector, no alerts.
    /// Fixture seed: 7.
    #[test]
    fn clean_rack_emits_no_alerts() {
        let alerts = run_rack(None, &EmulationConfig::default()).other_alerts;
        assert!(
            alerts.is_empty(),
            "clean rack run raised false alerts: {alerts:?}"
        );
        let crc = vnet_tsdb::codec::crc32(alert_lines("other", &alerts).as_bytes());
        assert_eq!(crc, 0x0000_0000, "alerts crc32 {crc:#010x}");
    }
}
