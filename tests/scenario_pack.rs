//! The module scenario pack: end-to-end checks for the three first-class
//! modules (`skb-drop`, `ovs-flow`, `request-trace`) attached through the
//! module registry's named profiles.
//!
//! * the drop lab's per-reason breakdown must match the simulator's own
//!   drop counters *exactly* (ground truth, no tolerance);
//! * the memcached chain's per-tier latency decomposition must sum to the
//!   end-to-end latency per request, joined by the in-band trace ID;
//! * profile resolution errors must carry did-you-mean suggestions;
//! * attach/detach must be idempotent and re-attachable;
//! * drop records must round-trip through sealed on-disk segments;
//! * the `vnt modules` listing is a golden artifact.

use std::collections::HashSet;

use vnet_testbed::drop_lab::{DropLab, DropLabConfig, DROP_TABLE};
use vnet_testbed::memcached_chain::{ChainConfig, MemcachedChain};
use vnet_tsdb::{StoreOptions, TraceDb, DROP_REASON_TAG};
use vnettracer::config::GlobalConfig;
use vnettracer::metrics;
use vnettracer::modules::{ModuleRegistry, ModuleScope};

/// The scenario-pack CI check: every typed drop reason the lab engineers
/// is counted by the `skb-drop` module with the exact injected
/// multiplicity — the trace-derived breakdown equals the simulator's own
/// per-device counters, reason for reason.
#[test]
fn drop_breakdown_matches_injected_ground_truth() {
    let mut lab = DropLab::build(&DropLabConfig::default());
    let pkg = lab.control_package("drops");
    let mut tracer = lab.make_tracer();
    tracer.deploy(&mut lab.world, &pkg).unwrap();
    lab.run();
    tracer.collect(&lab.world);

    let truth = lab.ground_truth();
    assert_eq!(truth.len(), 5, "all five causes must fire: {truth:?}");
    let breakdown = metrics::drop_breakdown(tracer.db(), DROP_TABLE);
    assert_eq!(breakdown, truth, "traced breakdown must equal ground truth");
    // The whole-world rollup sees the same single drop table.
    assert_eq!(metrics::drop_breakdown_all(tracer.db()), truth);
}

/// The `ovs-flow` module on the same lab: the fabric lane's flow-table
/// lookups are traced entry and return, and cold lookups (outside the
/// megaflow port-active window) raise upcalls.
#[test]
fn ovs_lookups_and_upcalls_are_traced() {
    let mut lab = DropLab::build(&DropLabConfig::default());
    let pkg = lab.control_package("ovs");
    let mut tracer = lab.make_tracer();
    tracer.deploy(&mut lab.world, &pkg).unwrap();
    lab.run();
    tracer.collect(&lab.world);

    let lookups = tracer
        .db()
        .table("lab_ovs_lookup")
        .expect("lookup table exists")
        .len();
    assert!(lookups > 0, "fabric lane must record flow-table lookups");
    let upcalls = tracer
        .db()
        .table("lab_ovs_upcall")
        .expect("upcall table exists")
        .len();
    assert!(upcalls >= 1, "first cold lookup must raise an upcall");
    assert!(
        upcalls < lookups,
        "megaflow cache must absorb warm lookups ({upcalls} upcalls, {lookups} lookups)"
    );
}

/// The `request-trace` module across the memcached tiers: every request
/// is observed at all four taps under one in-band trace ID, and the
/// per-tier segment latencies sum exactly to the end-to-end latency.
#[test]
fn request_decomposition_sums_to_end_to_end() {
    let cfg = ChainConfig::default();
    let mut chain = MemcachedChain::build(&cfg);
    let pkg = chain.control_package();
    let mut tracer = chain.make_tracer();
    tracer.deploy(&mut chain.world, &pkg).unwrap();
    chain.run();
    tracer.collect(&chain.world);

    let tables = MemcachedChain::decomposition_chain();
    let per_packet = metrics::per_packet_segments(tracer.db(), &tables);
    assert_eq!(
        per_packet.len(),
        cfg.requests as usize,
        "every request observed at the first tap"
    );
    let ids: HashSet<u32> = per_packet.iter().map(|&(id, _)| id).collect();
    assert_eq!(
        ids.len(),
        per_packet.len(),
        "in-band trace IDs must be distinct per request"
    );

    // Telescoping: the segments of each request are all observed and sum
    // to that request's end-to-end client-egress -> backend-ingress
    // latency, computed independently by joining the two end tables.
    let mut summed: Vec<u64> = Vec::new();
    for (id, segs) in &per_packet {
        let total: u64 = segs
            .iter()
            .map(|s| s.unwrap_or_else(|| panic!("request {id:08x} missing a segment: {segs:?}")))
            .sum();
        summed.push(total);
    }
    let mut e2e = metrics::latency_between(tracer.db(), tables[0], tables[tables.len() - 1]);
    assert_eq!(e2e.len(), cfg.requests as usize);
    summed.sort_unstable();
    e2e.sort_unstable();
    assert_eq!(summed, e2e, "segment sums must equal end-to-end latencies");
}

/// Unknown profile names fail with did-you-mean suggestions through
/// both the `package` and the `metrics` plumbing.
#[test]
fn profile_resolution_errors_carry_suggestions() {
    let registry = ModuleRegistry::builtin();
    let scope = ModuleScope::default();

    let err = registry
        .package("dorps", &scope, GlobalConfig::default())
        .unwrap_err()
        .to_string();
    assert!(err.contains("dorps"), "error names the bad profile: {err}");
    assert!(err.contains("drops"), "error suggests `drops`: {err}");

    let err = registry.metrics("requets", &scope).unwrap_err().to_string();
    assert!(err.contains("requests"), "error suggests `requests`: {err}");

    // A hopelessly wrong name gets no bogus suggestion.
    let err = registry
        .package("zzzzzzzzzz", &scope, GlobalConfig::default())
        .unwrap_err()
        .to_string();
    assert!(
        !err.contains("did you mean"),
        "no suggestion for a distant name: {err}"
    );
}

/// Deploy/undeploy through the registry path is idempotent: detaching a
/// profile's handles twice is a no-op, and the same package re-attaches
/// cleanly and captures a full run afterwards.
#[test]
fn attach_detach_is_idempotent() {
    let mut lab = DropLab::build(&DropLabConfig::default());
    let pkg = lab.control_package("drops");
    let mut tracer = lab.make_tracer();

    let handles = tracer.deploy(&mut lab.world, &pkg).unwrap();
    assert!(!handles.is_empty());
    assert_eq!(tracer.deployed().len(), handles.len());

    tracer.undeploy(&mut lab.world, &handles);
    assert!(tracer.deployed().is_empty(), "all handles detached");
    // Detaching the same (now stale) handles again is ignored.
    tracer.undeploy(&mut lab.world, &handles);
    assert!(tracer.deployed().is_empty());

    // Re-attach and run: the full ground truth is captured, so the
    // attach/detach cycle left no residue in the world or the agents.
    let handles = tracer.deploy(&mut lab.world, &pkg).unwrap();
    assert_eq!(tracer.deployed().len(), handles.len());
    lab.run();
    tracer.collect(&lab.world);
    assert_eq!(
        metrics::drop_breakdown(tracer.db(), DROP_TABLE),
        lab.ground_truth()
    );
}

/// The `skb-drop` record schema round-trips through the columnar on-disk
/// store: drop records written through a disk-backed collector — sealed
/// into segments and reopened cold — keep their typed reasons, and the
/// breakdown over the reopened store, and over a JSON-lines export of it
/// imported into a fresh store, still matches ground truth.
#[test]
fn drop_records_round_trip_through_disk_segments() {
    let dir = std::env::temp_dir().join(format!("vnt-scenario-pack-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // Aggressive sealing so the run exercises segments, not just the
    // WAL-backed hot tail.
    let options = StoreOptions {
        seal_threshold: 32,
        fsync: false,
        ..Default::default()
    };

    let truth = {
        let mut lab = DropLab::build(&DropLabConfig::default());
        let pkg = lab.control_package("drops");
        let db = TraceDb::open_with(&dir, options).unwrap();
        let mut tracer = lab.make_tracer_with_db(db);
        tracer.deploy(&mut lab.world, &pkg).unwrap();
        lab.run();
        tracer.collect(&lab.world);
        tracer.flush_db().unwrap();
        let truth = lab.ground_truth();
        assert_eq!(metrics::drop_breakdown(tracer.db(), DROP_TABLE), truth);
        truth
    };

    let reopened = TraceDb::open(&dir).unwrap();
    assert_eq!(
        metrics::drop_breakdown(&reopened, DROP_TABLE),
        truth,
        "breakdown over the reopened store matches ground truth"
    );
    // Export -> import into a fresh store keeps the tag.
    let mut dump = Vec::new();
    vnet_tsdb::write_json_lines(&reopened, &mut dump).unwrap();
    let dump = String::from_utf8(dump).unwrap();
    let table = format!(r#""measurement":"{DROP_TABLE}""#);
    let mut round_tripped = 0u64;
    for line in dump.lines().filter(|l| l.contains(&table)) {
        assert!(
            line.contains(&format!(r#""{DROP_REASON_TAG}":"#)),
            "exported drop record keeps its reason tag: {line}"
        );
        round_tripped += 1;
    }
    assert_eq!(round_tripped, truth.iter().map(|&(_, n)| n).sum::<u64>());
    let copy = vnet_tsdb::read_json_lines(dump.as_bytes()).expect("drop records import");
    assert_eq!(metrics::drop_breakdown(&copy, DROP_TABLE), truth);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden `vnt modules` listing: the registry's rendered module/profile
/// inventory is part of the CLI contract.
#[test]
fn modules_listing_is_golden() {
    let expected = "\
modules:
  packet-path    per-device packet records along the datapath (the built-in probe set)
                   schema packet-record: tags [node, flow, direction, trace_id?], fields [pkt_len, cpu]
                   alerts [latency-spike, loss-burst, throughput-collapse]
  skb-drop       drop tracing at kfree_skb with typed reasons (queue-full, policed, ...)
                   schema drop-record: tags [node, flow, direction, trace_id?, drop_reason], fields [pkt_len, cpu]
                   alerts [throughput-collapse]
  ovs-flow       OVS flow-table lookup latency and upcall-rate tracing
                   schema packet-record: tags [node, flow, direction, trace_id?], fields [pkt_len, cpu]
                   alerts [latency-spike, throughput-collapse]
  request-trace  in-band request-chain tracing with per-tier latency decomposition
                   schema packet-record: tags [node, flow, direction, trace_id?], fields [pkt_len, cpu]
                   alerts [latency-spike, loss-burst]
profiles:
  default        packet-path
  drops          skb-drop
  full           packet-path + skb-drop + ovs-flow + request-trace
  ovs            ovs-flow
  requests       request-trace
";
    assert_eq!(ModuleRegistry::builtin().render_listing(), expected);
}
