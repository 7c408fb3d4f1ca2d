//! Golden end-to-end regression: a fixed-seed simulated run must keep
//! producing these exact numbers.
//!
//! The simulator is deterministic by construction (seeded RNG, no wall
//! clock), so any drift in the snapshot below means a behavioural change
//! somewhere in the inject → trace → batch → ingest → query pipeline —
//! exactly the kind of silent regression a refactor of the ingestion
//! path could introduce. Update the snapshot only after confirming the
//! new numbers are intended.
//!
//! Each program pays a one-time compile charge on its first firing, as a
//! JIT-compiled kernel program does (DESIGN.md §5), and the snapshots
//! include it. The charge delays the first packet at each traced hook,
//! and every packet queued behind it, so it moves record counts,
//! throughput and latency alike.

use vnet_testbed::ovs::{OvsCase, OvsConfig, OvsScenario};
use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
use vnettracer::metrics;

/// Renders the run's observable outputs into one comparable string:
/// per-table record counts and throughput, the latency decomposition,
/// and the collector's ingest counters.
fn snapshot(tracer: &vnettracer::VNetTracer, world: &vnet_sim::World, chain: &[&str]) -> String {
    let mut out = String::new();
    let mut names: Vec<&str> = tracer.db().measurements().collect();
    names.sort_unstable();
    for name in &names {
        let len = tracer.db().table(name).map_or(0, |t| t.len());
        let bps = metrics::throughput_at(tracer.db(), name);
        out.push_str(&format!("table {name}: {len} records, {bps:.0} bps\n"));
    }
    for seg in metrics::decompose(tracer.db(), chain) {
        out.push_str(&format!(
            "segment {} -> {}: count {} min {} p50 {} max {} mean {:.1}\n",
            seg.from,
            seg.to,
            seg.stats.count,
            seg.stats.min_ns,
            seg.stats.p50_ns,
            seg.stats.max_ns,
            seg.stats.mean_ns,
        ));
    }
    let stats = tracer.stats(world);
    out.push_str(&format!(
        "collector: {} records in {} batches, {} bytes, {} lost\n",
        stats.totals.records, stats.totals.batches, stats.totals.bytes, stats.lost_records,
    ));
    for a in &stats.agents {
        out.push_str(&format!(
            "agent {}: seq {} records {} lost {}\n",
            a.node, a.last_seq, a.stats.records, a.lost_records,
        ));
    }
    out
}

#[test]
fn golden_ovs_case_iii() {
    let cfg = OvsConfig {
        seed: 13,
        case: OvsCase::III,
        messages: 200,
        ..Default::default()
    };
    let mut s = OvsScenario::build(&cfg);
    let pkg = s.control_package();
    let mut tracer = s.make_tracer();
    tracer.deploy(&mut s.world, &pkg).unwrap();
    s.run(&cfg);
    tracer.collect(&s.world);
    let got = snapshot(&tracer, &s.world, &OvsScenario::decomposition_chain());
    let want = "\
table sock_em0: 200 records, 1575879 bps
table sock_em2_in: 93 records, 725237 bps
table sock_em2_out: 93 records, 725237 bps
table sock_vnet0: 200 records, 1575893 bps
segment sock_em0 -> sock_vnet0: count 200 min 445 p50 445 max 1285 mean 449.2
segment sock_vnet0 -> sock_em2_in: count 93 min 6285 p50 1101655 max 1248755 mean 1086218.9
segment sock_em2_in -> sock_em2_out: count 93 min 1145 p50 1145 max 1145 mean 1145.0
collector: 586 records in 1 batches, 18752 bytes, 0 lost
agent server1: seq 1 records 586 lost 0
";
    assert_eq!(got, want, "golden OVS snapshot drifted:\n{got}");
}

#[test]
fn golden_two_host() {
    let cfg = TwoHostConfig {
        seed: 7,
        messages: 250,
        ..Default::default()
    };
    let mut s = TwoHostScenario::build(&cfg);
    let pkg = s.control_package();
    let mut tracer = s.make_tracer();
    tracer.deploy(&mut s.world, &pkg).unwrap();
    s.run(&cfg);
    tracer.collect(&s.world);
    let got = snapshot(&tracer, &s.world, &["s1_ovs_br1", "s2_ovs_br1", "s2_ens3"]);
    let want = "\
table s1_ens3: 250 records, 7870773 bps
table s1_ovs_br1: 250 records, 7871486 bps
table s2_ens3: 250 records, 7870508 bps
table s2_ovs_br1: 250 records, 7870381 bps
segment s1_ovs_br1 -> s2_ovs_br1: count 250 min 33061 p50 33061 max 44598 mean 34896.2
segment s2_ovs_br1 -> s2_ens3: count 250 min 1645 p50 1645 max 2485 mean 1783.3
collector: 1000 records in 2 batches, 32000 bytes, 0 lost
agent server1: seq 1 records 500 lost 0
agent server2: seq 1 records 500 lost 0
";
    assert_eq!(got, want, "golden two-host snapshot drifted:\n{got}");
}
