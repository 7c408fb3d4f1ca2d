//! Diagnosing packet loss with vNetTracer (§III-D's loss metric plus
//! `kfree_skb` drop tracing).
//!
//! Two loss mechanisms from the paper's list ("network congestion,
//! network disconnection, device failure") are staged and then diagnosed
//! purely from trace data:
//!
//! 1. **Congestion** — iPerf overruns an OVS ingress queue; the filtered
//!    drop script shows *where* and *whose* packets die.
//! 2. **Device failure** — a NIC goes down mid-run; the two-tracepoint
//!    loss metric localizes the gap and the incomplete-record detector
//!    lists the missing packets.
//!
//! Run with: `cargo run --release --example loss_diagnosis`

use vnet_sim::SimDuration;
use vnet_testbed::ovs::{OvsCase, OvsConfig, OvsScenario, VM0_IP, VM2_IP};
use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
use vnet_tsdb::trace_id_tag;
use vnettracer::config::{Action, ControlPackage, FilterRule, HookSpec, TraceSpec};
use vnettracer::metrics;

fn congestion() {
    println!("=== 1. congestion loss inside OVS (Case II setup) ===");
    let cfg = OvsConfig {
        case: OvsCase::II,
        messages: 400,
        interval: SimDuration::from_micros(499),
        ..Default::default()
    };
    let mut s = OvsScenario::build(&cfg);
    let sock = FilterRule::udp_flow((VM0_IP, 40000), (VM2_IP, 11111));
    let pkg = ControlPackage::new(vec![
        TraceSpec {
            name: "drops_all".into(),
            node: "server1".into(),
            hook: HookSpec::Kprobe("kfree_skb".into()),
            filter: FilterRule::any(),
            action: Action::RecordPacketInfo,
        },
        TraceSpec {
            name: "drops_sockperf".into(),
            node: "server1".into(),
            hook: HookSpec::Kprobe("kfree_skb".into()),
            filter: sock,
            action: Action::RecordPacketInfo,
        },
    ]);
    let mut tracer = s.make_tracer();
    tracer
        .deploy(&mut s.world, &pkg)
        .expect("drop scripts deploy");
    s.run(&cfg);
    tracer.collect(&s.world);
    let all = tracer.db().table("drops_all").map_or(0, |t| t.len()) as u64
        + tracer.lost_records("drops_all");
    let sockperf = tracer.db().table("drops_sockperf").map_or(0, |t| t.len());
    println!("kfree_skb fired {all} times (incl. perf-ring overflow accounting)");
    println!("of which {sockperf} were latency-probe packets — the congested ingress");
    println!("queue is shared, so the bulk flow's overload takes probes with it.\n");
}

fn failure() {
    println!("=== 2. device failure between two hosts ===");
    let cfg = TwoHostConfig {
        messages: 400,
        background_mbps: 0.0,
        ..Default::default()
    };
    let mut s = TwoHostScenario::build(&cfg);
    let pkg = s.control_package();
    let mut tracer = s.make_tracer();
    tracer.deploy(&mut s.world, &pkg).expect("scripts deploy");
    let third = SimDuration::from_nanos(cfg.interval.as_nanos() * cfg.messages / 3);
    let victim = s.world.find_device(s.server2, "eth0-rx").unwrap();
    s.world.run_for(third);
    s.world.set_device_down(victim, true);
    s.world.run_for(third);
    s.world.set_device_down(victim, false);
    s.world.run_for(third + SimDuration::from_millis(10));
    tracer.collect(&s.world);

    // Walk the tracepoint chain: the segment where counts fall is where
    // the packets die.
    let chain = ["s1_ovs_br1", "s2_ovs_br1", "s2_ens3"];
    println!("records per tracepoint along the request path:");
    for tp in chain {
        let n = tracer.db().table(tp).map_or(0, |t| t.len());
        println!("  {tp:<12} {n}");
    }
    let loss = metrics::packet_loss(tracer.db(), "s1_ovs_br1", "s2_ovs_br1");
    println!(
        "loss between the two bridges: {} of {} ({:.1}%) -> the wire/NIC segment failed",
        loss.lost,
        loss.upstream,
        loss.rate * 100.0
    );
    let per_flow = metrics::per_flow_loss(tracer.db(), "s1_ovs_br1", "s2_ovs_br1");
    for (flow, l) in per_flow {
        println!("  victim flow {flow}: {} lost", l.lost);
    }
    let incomplete = metrics::incomplete_ids(tracer.db(), &chain);
    let first: Vec<String> = incomplete
        .iter()
        .take(5)
        .map(|&id| trace_id_tag(id))
        .collect();
    let n = incomplete.len();
    println!("incomplete trace IDs (first 5 of {n}): {first:?}");
}

fn main() {
    congestion();
    failure();
}
