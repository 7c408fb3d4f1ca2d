//! Tracing packet drops through the `kfree_skb` kprobe: a trace script
//! at the kernel's drop point sees every discarded packet, with the flow
//! information needed to attribute the loss.

use vnet_sim::SimDuration;
use vnet_testbed::ovs::{Mitigation, OvsCase, OvsConfig, OvsScenario};
use vnettracer::config::{Action, ControlPackage, FilterRule, HookSpec, TraceSpec};

fn drop_spec(name: &str, filter: FilterRule) -> TraceSpec {
    TraceSpec {
        name: name.into(),
        node: "server1".into(),
        hook: HookSpec::Kprobe("kfree_skb".into()),
        filter,
        action: Action::RecordPacketInfo,
    }
}

#[test]
fn kfree_skb_script_counts_congestion_drops() {
    // A 499us probe interval is co-prime with the 4us ingress service
    // slot, so the probe phase drifts across the queue cycle and samples
    // both surviving and dropped slots (500us would phase-lock).
    let cfg = OvsConfig {
        case: OvsCase::II,
        messages: 200,
        interval: SimDuration::from_micros(499),
        ..Default::default()
    };
    let mut s = OvsScenario::build(&cfg);
    // Two drop scripts: one for everything, one filtered to the sockperf
    // request flow.
    let sock_filter = FilterRule::udp_flow(
        (vnet_testbed::ovs::VM0_IP, 40000),
        (vnet_testbed::ovs::VM2_IP, 11111),
    );
    let pkg = ControlPackage::new(vec![
        drop_spec("drops_all", FilterRule::any()),
        drop_spec("drops_sockperf", sock_filter),
    ]);
    let mut tracer = s.make_tracer();
    tracer.deploy(&mut s.world, &pkg).unwrap();
    s.run(&cfg);
    tracer.collect(&s.world);

    // Ground truth: drops at the congested devices.
    let vnet0 = s.world.find_device(s.host, "vnet0").unwrap();
    let ovs = s.world.find_device(s.host, "ovs-br").unwrap();
    let true_drops: u64 = [vnet0, ovs]
        .iter()
        .map(|&d| s.world.device_counters(d).dropped_total())
        .sum();
    assert!(
        true_drops > 1_000,
        "Case II congestion drops plenty, got {true_drops}"
    );

    // Congestion drops tens of thousands of packets; a 64 KiB perf
    // buffer holds 2048 records between collections, so the surplus is
    // counted as lost (§III-C: size buffers for the collection cadence).
    let traced_all = tracer.db().table("drops_all").map_or(0, |t| t.len()) as u64;
    let lost = tracer.lost_records("drops_all");
    assert_eq!(traced_all + lost, true_drops, "every drop fires kfree_skb");
    assert_eq!(
        traced_all, 2_048,
        "buffer capacity bounds what one dump returns"
    );

    // The filtered script isolates the sockperf victims, and its count
    // matches the app-level outcome (requests without replies).
    let traced_sock = tracer.db().table("drops_sockperf").map_or(0, |t| t.len()) as u64;
    let replies = s.latency.borrow_mut().samples().len() as u64;
    assert_eq!(traced_sock, 200 - replies);
    assert!(traced_sock > 0, "congestion must hit the probe flow too");
    assert!(traced_sock < traced_all, "most drops are iperf bulk");
}

#[test]
fn policer_drops_are_traceable_too() {
    let cfg = OvsConfig {
        case: OvsCase::II,
        mitigation: Mitigation::Policing,
        messages: 100,
        ..Default::default()
    };
    let mut s = OvsScenario::build(&cfg);
    let pkg = ControlPackage::new(vec![drop_spec("drops_all", FilterRule::any())]);
    let mut tracer = s.make_tracer();
    tracer.deploy(&mut s.world, &pkg).unwrap();
    // Short run is enough: the policer drops from the first second on.
    s.world.run_for(SimDuration::from_millis(20));
    tracer.collect(&s.world);
    let vnet0 = s.world.find_device(s.host, "vnet0").unwrap();
    let policed = s.world.device_counters(vnet0).dropped_policed;
    assert!(policed > 0);
    let traced = tracer.db().table("drops_all").map_or(0, |t| t.len()) as u64;
    let lost = tracer.lost_records("drops_all");
    let ovs = s.world.find_device(s.host, "ovs-br").unwrap();
    let all_true = s.world.device_counters(vnet0).dropped_total()
        + s.world.device_counters(ovs).dropped_total();
    assert_eq!(traced + lost, all_true);
}
