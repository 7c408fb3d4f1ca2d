//! Cross-crate integration tests: the full dispatcher → agent →
//! collector → metrics pipeline over realistic topologies.

use vnet_testbed::ovs::{OvsCase, OvsConfig, OvsScenario};
use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
use vnettracer::metrics;

/// The complete Fig. 7(a)-style flow: deploy 4 scripts on 2 hosts, run,
/// collect, and check that every metric family is computable and
/// consistent.
#[test]
fn full_pipeline_two_hosts() {
    let cfg = TwoHostConfig {
        messages: 400,
        ..Default::default()
    };
    let mut s = TwoHostScenario::build(&cfg);
    let pkg = s.control_package();
    let mut tracer = s.make_tracer();
    let deployed = tracer.deploy(&mut s.world, &pkg).unwrap();
    assert_eq!(deployed.len(), 4);
    s.run(&cfg);
    let n = tracer.collect(&s.world);
    assert!(n > 0, "collected records");

    // Latency between OVS bridges spans the wire: ~30us + NIC time.
    let wire = metrics::latency_between(tracer.db(), "s1_ovs_br1", "s2_ovs_br1");
    assert_eq!(wire.len(), 400, "every request observed at both bridges");
    let stats = metrics::stats_from_ns(&wire).unwrap();
    assert!(
        (30_000..60_000).contains(&stats.p50_ns),
        "bridge-to-bridge median {}ns",
        stats.p50_ns
    );

    // No loss along the traced path.
    let loss = metrics::packet_loss(tracer.db(), "s1_ovs_br1", "s2_ens3");
    assert_eq!(loss.lost, 0);

    // Per-flow throughput separates sockperf from nothing else (the
    // background flow is filtered out by the rules).
    let flows = metrics::per_flow_throughput(tracer.db(), "s2_ovs_br1");
    assert_eq!(
        flows.len(),
        1,
        "only the filtered sockperf flow recorded: {flows:?}"
    );

    // Data cleaning: all request ids complete across the three
    // request-direction tracepoints.
    let incomplete = metrics::incomplete_ids(tracer.db(), &["s1_ovs_br1", "s2_ovs_br1", "s2_ens3"]);
    assert!(
        incomplete.is_empty(),
        "unexpected incomplete ids: {incomplete:?}"
    );

    // Agent health: both agents heartbeated during collect.
    assert_eq!(tracer.collector().last_heartbeat("server1"), Some(1));
    assert_eq!(tracer.collector().last_heartbeat("server2"), Some(1));
    assert!(tracer
        .collector()
        .silent_agents(s.world.now(), vnet_sim::SimDuration::from_secs(1))
        .is_empty());
}

/// Tracer-measured packet loss must agree with the simulator's ground
/// truth drop counters under OVS congestion.
#[test]
fn measured_loss_matches_ground_truth() {
    let cfg = OvsConfig {
        case: OvsCase::II,
        messages: 300,
        ..Default::default()
    };
    let mut s = OvsScenario::build(&cfg);
    let pkg = s.control_package();
    let mut tracer = s.make_tracer();
    tracer.deploy(&mut s.world, &pkg).unwrap();
    s.run(&cfg);
    tracer.collect(&s.world);
    // Sockperf packets seen at the socket but not delivered were dropped
    // in the congested OVS (vnet0 tail-drop + fabric).
    let loss = metrics::packet_loss(tracer.db(), "sock_em0", "sock_em2_out");
    assert_eq!(loss.upstream, 300);
    assert!(loss.lost > 0, "congestion must drop some sockperf packets");
    // Ground truth: every loss the tracer saw corresponds to real drops.
    let vnet0 = s.world.find_device(s.host, "vnet0").unwrap();
    let ovs = s.world.find_device(s.host, "ovs-br").unwrap();
    let dropped_total = s.world.device_counters(vnet0).dropped_total()
        + s.world.device_counters(ovs).dropped_total();
    assert!(
        dropped_total >= loss.lost,
        "device drops {dropped_total} must cover traced loss {}",
        loss.lost
    );
    // And the incomplete-record detector flags exactly the lost packets.
    let incomplete = metrics::incomplete_ids(tracer.db(), &["sock_em0", "sock_em2_out"]);
    assert_eq!(incomplete.len() as u64, loss.lost);
}

/// Attaching and detaching scripts mid-run must not disturb the traced
/// system and must bound what gets recorded.
#[test]
fn runtime_attach_detach_mid_run() {
    let cfg = TwoHostConfig {
        messages: 600,
        background_mbps: 0.0,
        ..Default::default()
    };
    let mut s = TwoHostScenario::build(&cfg);
    let mut tracer = s.make_tracer();

    // First third: untraced.
    s.world.run_for(vnet_sim::SimDuration::from_millis(20));
    // Second third: traced.
    let pkg = s.control_package();
    tracer.deploy(&mut s.world, &pkg).unwrap();
    s.world.run_for(vnet_sim::SimDuration::from_millis(20));
    tracer.undeploy_all(&mut s.world);
    // Final third: untraced again.
    s.world.run_for(vnet_sim::SimDuration::from_millis(25));

    let recorded = tracer.db().table("s1_ovs_br1").map_or(0, |t| t.len());
    assert!(recorded > 0, "middle window produced records");
    // Roughly a third of the messages (one window of three).
    assert!(
        (100..=300).contains(&recorded),
        "recorded {recorded} of 600; only the traced window should appear"
    );
    // The workload itself never noticed: all messages completed.
    let total = s.latency.borrow_mut().samples().len();
    assert_eq!(total, 600);
}

/// Identical seeds give bit-identical traces — the property that makes
/// every experiment in this repository reproducible.
#[test]
fn tracing_is_deterministic() {
    let run = || {
        let cfg = TwoHostConfig {
            messages: 150,
            ..Default::default()
        };
        let mut s = TwoHostScenario::build(&cfg);
        let pkg = s.control_package();
        let mut tracer = s.make_tracer();
        tracer.deploy(&mut s.world, &pkg).unwrap();
        s.run(&cfg);
        tracer.collect(&s.world);
        let mut lat = metrics::latency_between(tracer.db(), "s1_ovs_br1", "s2_ovs_br1");
        lat.sort_unstable();
        (tracer.db().len(), lat)
    };
    let (len_a, lat_a) = run();
    let (len_b, lat_b) = run();
    assert_eq!(len_a, len_b);
    assert_eq!(lat_a, lat_b);
}
