//! Every offline answer pinned as one CRC-32.
//!
//! Two fixed-seed scenarios — the two-host testbed with server2's NIC
//! failed for the middle third of the run (as in
//! `tests/failure_injection.rs`) and the memcached request chain — are
//! traced, and every offline metric over their tracepoint chains is
//! rendered as text (trace IDs as 8 lower-case hex digits) and folded
//! into one checksum. A change to how the offline side joins, subtracts,
//! counts or aligns moves these bytes.

use std::collections::HashMap;
use std::fmt::Write as _;

use vnet_sim::SimDuration;
use vnet_testbed::memcached_chain::{ChainConfig, MemcachedChain};
use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
use vnet_tsdb::TraceDb;
use vnettracer::clock_sync::align_timestamps;
use vnettracer::config::GlobalConfig;
use vnettracer::modules::ModuleRegistry;
use vnettracer::{metrics, SkewEstimate};

/// A skew estimate whose remote clock leads the master by `offset_ns`.
fn skew(offset_ns: i64) -> SkewEstimate {
    SkewEstimate {
        one_way_ns: 0,
        offset_ns,
        skew_ns: offset_ns.unsigned_abs(),
        samples: 100,
    }
}

/// Renders every offline metric over `chain` (and its first and last
/// tracepoints as one pair) as text, then again for latency after
/// aligning the nodes in `skews`.
fn render(db: &TraceDb, chain: &[&str], skews: &[(&str, i64)]) -> String {
    let mut out = String::new();
    let (first, last) = (chain[0], chain[chain.len() - 1]);
    for pair in chain.windows(2).chain([[first, last].as_slice()]) {
        let (up, down) = (pair[0], pair[1]);
        writeln!(
            out,
            "latency {up} {down} {:?}",
            metrics::latency_between(db, up, down)
        )
        .unwrap();
        writeln!(
            out,
            "loss {up} {down} {:?}",
            metrics::packet_loss(db, up, down)
        )
        .unwrap();
        writeln!(
            out,
            "flow-loss {up} {down} {:?}",
            metrics::per_flow_loss(db, up, down)
        )
        .unwrap();
    }
    for tp in chain {
        writeln!(out, "throughput {tp} {:?}", metrics::throughput_at(db, tp)).unwrap();
        writeln!(
            out,
            "flow-throughput {tp} {:?}",
            metrics::per_flow_throughput(db, tp)
        )
        .unwrap();
    }
    for seg in metrics::decompose(db, chain) {
        writeln!(out, "decompose {seg:?}").unwrap();
    }
    for (id, segs) in metrics::per_packet_segments(db, chain) {
        writeln!(out, "packet {id:08x} {segs:?}").unwrap();
    }
    for id in metrics::incomplete_ids(db, chain) {
        writeln!(out, "incomplete {id:08x}").unwrap();
    }
    let skews: HashMap<String, SkewEstimate> = skews
        .iter()
        .map(|&(node, offset)| (node.to_owned(), skew(offset)))
        .collect();
    let aligned = align_timestamps(db, &skews);
    for pair in chain.windows(2) {
        let (up, down) = (pair[0], pair[1]);
        let lat = metrics::latency_between(&aligned, up, down);
        writeln!(out, "aligned {up} {down} {lat:?}").unwrap();
    }
    out
}

/// The two-host testbed with server2's NIC receive side down for the
/// middle third of 600 requests.
fn lossy_two_host() -> String {
    let cfg = TwoHostConfig {
        messages: 600,
        background_mbps: 0.0,
        ..Default::default()
    };
    let mut s = TwoHostScenario::build(&cfg);
    let pkg = s.control_package();
    let mut tracer = s.make_tracer();
    tracer.deploy(&mut s.world, &pkg).unwrap();
    let third = SimDuration::from_nanos(cfg.interval.as_nanos() * cfg.messages / 3);
    let victim = s.world.find_device(s.server2, "eth0-rx").unwrap();
    s.world.run_for(third);
    s.world.set_device_down(victim, true);
    s.world.run_for(third);
    s.world.set_device_down(victim, false);
    s.world.run_for(third + SimDuration::from_millis(10));
    tracer.collect(&s.world);
    render(
        tracer.db(),
        &["s1_ovs_br1", "s2_ovs_br1", "s2_ens3"],
        &[("server2", 1_500)],
    )
}

/// The memcached chain's four request taps.
fn memcached_chain() -> String {
    let mut chain = MemcachedChain::build(&ChainConfig::default());
    let pkg = ModuleRegistry::builtin()
        .package("requests", &chain.module_scope(), GlobalConfig::default())
        .unwrap();
    let mut tracer = chain.make_tracer();
    tracer.deploy(&mut chain.world, &pkg).unwrap();
    chain.run();
    tracer.collect(&chain.world);
    render(
        tracer.db(),
        &MemcachedChain::decomposition_chain(),
        &[("proxy", -700), ("backend", 2_300)],
    )
}

#[test]
fn offline_answers_fold_to_one_crc() {
    let two_host = lossy_two_host();
    assert!(
        two_host.contains("incomplete "),
        "the failure loses requests"
    );
    let chain = memcached_chain();
    assert!(chain.contains("decompose "), "the chain decomposes");
    let crc = vnet_tsdb::codec::crc32(format!("{two_host}{chain}").as_bytes());
    assert_eq!(crc, 0xa8e3_a903, "offline answers crc32 {crc:#010x}");
}
