//! Cross-machine clock skew: Cristian's algorithm end-to-end, plus the
//! streaming engine's watermark behaviour under skewed and stalled
//! agent clocks.

use std::collections::HashMap;
use vnet_tsdb::TraceDb;
use vnettracer::VNetTracer;

use vnet_testbed::xen::{XenConfig, XenScenario, CLIENT_IP, SERVER_IP};
use vnettracer::clock_sync::{align_timestamps, estimate_skew, SkewSample};
use vnettracer::config::{Action, ControlPackage, FilterRule, HookSpec, TraceSpec};
use vnettracer::metrics;

fn probe_package() -> ControlPackage {
    let req = FilterRule::udp_flow((CLIENT_IP, 40000), (SERVER_IP, 11211));
    let spec = |name: &str, node: &str, hook: HookSpec, filter| TraceSpec {
        name: name.into(),
        node: node.into(),
        hook,
        filter,
        action: Action::RecordPacketInfo,
    };
    ControlPackage::new(vec![
        spec("t1", "client", HookSpec::DeviceTx("eth0".into()), req),
        spec("t2", "xenhost", HookSpec::DeviceRx("eth0".into()), req),
        spec(
            "t3",
            "xenhost",
            HookSpec::DeviceTx("eth0-tx".into()),
            req.reversed(),
        ),
        spec(
            "t4",
            "client",
            HookSpec::DeviceRx("em-c-rx".into()),
            req.reversed(),
        ),
    ])
}

fn measure(offset_ns: i64) -> (i64, Vec<u64>, Vec<u64>) {
    let cfg = XenConfig {
        requests: 100,
        interval: vnet_sim::SimDuration::from_millis(1),
        xen_clock_offset_ns: offset_ns,
        ..Default::default()
    };
    let mut s = XenScenario::build(&cfg);
    let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
    tracer.deploy(&mut s.world, &probe_package()).unwrap();
    s.run(&cfg);
    tracer.collect(&s.world);
    let t12 = tracer.db().join_timestamps("t1", "t2").unwrap();
    let t34 = tracer.db().join_timestamps("t3", "t4").unwrap();
    let samples: Vec<SkewSample> = t12
        .iter()
        .zip(t34.iter())
        .map(|(&(t1, t2), &(t3, t4))| SkewSample { t1, t2, t3, t4 })
        .collect();
    assert_eq!(samples.len(), 100, "paper-sized sample set");
    let est = estimate_skew(&samples).unwrap();
    let raw = metrics::latency_between(tracer.db(), "t1", "t2");
    let mut skews = HashMap::new();
    skews.insert("xenhost".to_owned(), est);
    let aligned_db = align_timestamps(tracer.db(), &skews);
    let aligned = metrics::latency_between(&aligned_db, "t1", "t2");
    (est.offset_ns, raw, aligned)
}

#[test]
fn positive_offset_recovered_exactly_on_symmetric_path() {
    let (est, raw, aligned) = measure(3_700);
    assert_eq!(est, 3_700, "symmetric path recovers the offset exactly");
    // Raw latency includes the skew; aligned latency does not.
    let mean = |v: &[u64]| v.iter().sum::<u64>() / v.len() as u64;
    assert_eq!(mean(&raw) - mean(&aligned), 3_700);
}

#[test]
fn negative_offset_recovered() {
    let (est, _, aligned) = measure(-5_200);
    assert_eq!(est, -5_200);
    // Alignment still yields positive, sane latencies.
    assert!(!aligned.is_empty());
    assert!(aligned.iter().all(|&l| l > 5_000 && l < 100_000));
}

#[test]
fn skew_free_clocks_estimate_zero() {
    let (est, raw, aligned) = measure(0);
    assert_eq!(est, 0);
    assert_eq!(raw, aligned);
}

// --- streaming watermarks under skew and stalls -------------------------

use vnet_live::{AlertKind, LiveConfig, LiveEngine, WindowSpec};
use vnet_tsdb::record::CompactRecord;
use vnet_tsdb::RecordBatch;
use vnettracer::clock_sync::SkewEstimate;

fn tagged(ts: u64, trace_id: u32) -> CompactRecord {
    CompactRecord {
        timestamp_ns: ts,
        trace_id,
        pkt_len: 100,
        flags: 1,
        ..Default::default()
    }
}

/// A remote agent whose clock leads the master by a known offset: the
/// engine must align its record timestamps through the skew estimate
/// (so streamed latencies match ground truth) and widen that agent's
/// watermark slack by the estimate's residual error, so the alignment
/// itself never makes records late.
#[test]
fn watermark_aligns_skewed_agent_records() {
    const OFFSET_NS: u64 = 2_000;
    const DELAY_NS: u64 = 500;
    let skew = SkewEstimate {
        one_way_ns: 400,
        offset_ns: OFFSET_NS as i64,
        skew_ns: OFFSET_NS,
        samples: 100,
    };
    let mut engine =
        LiveEngine::new(LiveConfig::new(WindowSpec::tumbling(1_000)).track_latency("up", "down"));
    engine.register_agent("local", None);
    engine.register_agent("remote", Some(skew));

    let mut batch = RecordBatch::new();
    for i in 0..50u64 {
        let t = i * 100;
        batch.clear();
        batch.push("up", "local", tagged(t, i as u32 + 1));
        // The remote tap stamps on its own (leading) clock.
        batch.push(
            "down",
            "remote",
            tagged(t + DELAY_NS + OFFSET_NS, i as u32 + 1),
        );
        engine.ingest(&batch, t);
        engine.heartbeat("local", t);
        engine.heartbeat("remote", t);
    }
    engine.finish();

    let state = engine.state();
    assert_eq!(state.late_records, 0, "alignment must not strand records");
    let total = engine.latency_total("up", "down").expect("pairs completed");
    assert_eq!(total.count, 50);
    // Every pair has the same true delay once aligned; the sketch's
    // relative error bound still applies to the point estimate.
    assert_eq!(total.jitter, Some((0, 0)));
    let p50 = total.p50_ns as f64;
    assert!(
        (p50 - DELAY_NS as f64).abs() <= DELAY_NS as f64 * 0.02,
        "aligned p50 {p50} vs true delay {DELAY_NS}"
    );
}

/// One silent agent must hold every window open (its un-heard-from
/// frontier pins the global watermark) and raise a StalledAgent alert —
/// and once it resumes, the held-back windows finalize with nothing
/// having been dropped as late.
#[test]
fn stalled_heartbeats_hold_windows_open() {
    // 10 ms windows and records 1 ms apart: agent a is a stall timeout
    // (50 ms) ahead of the silent b after 50 records.
    let mut cfg = LiveConfig::new(WindowSpec::tumbling(10_000_000)).track_throughput("up");
    cfg.pair_timeout_ns = 10_000_000;
    let mut engine = LiveEngine::new(cfg);
    engine.register_agent("a", None);
    engine.register_agent("b", None);

    // Agent a streams 20 windows' worth of data; b never heartbeats.
    let mut batch = RecordBatch::new();
    for i in 0..200u64 {
        let t = i * 1_000_000;
        batch.clear();
        batch.push("up", "a", tagged(t, 0));
        engine.ingest(&batch, t);
        engine.heartbeat("a", t);
    }
    assert_eq!(
        engine.watermark_ns(),
        0,
        "the silent agent pins the watermark"
    );
    assert_eq!(
        engine.state().closed_windows,
        0,
        "no window may finalize while an agent is unaccounted for"
    );
    let alerts = engine.drain_alerts();
    assert!(
        alerts
            .iter()
            .any(|a| matches!(&a.kind, AlertKind::StalledAgent { node, .. } if node == "b")),
        "stall must be surfaced: {alerts:?}"
    );

    // b comes back: the watermark jumps, held windows close, and the
    // stall did not cost any records.
    engine.heartbeat("b", 200 * 1_000_000);
    assert!(engine.state().closed_windows > 10);
    assert_eq!(engine.state().late_records, 0);
    let count: u64 = engine.throughput_total("up").unwrap().count;
    assert_eq!(count, 200);
}

/// Records below the watermark are counted as late and excluded from
/// the operators, never silently dropped.
#[test]
fn late_records_are_counted_and_excluded() {
    let mut engine =
        LiveEngine::new(LiveConfig::new(WindowSpec::tumbling(1_000)).track_throughput("up"));
    engine.register_agent("a", None);
    engine.heartbeat("a", 10_000);

    let mut batch = RecordBatch::new();
    batch.push("up", "a", tagged(9_999, 0)); // below the watermark
    batch.push("up", "a", tagged(10_001, 0)); // at the frontier
    engine.ingest(&batch, 10_000);
    engine.finish();

    let state = engine.state();
    assert_eq!(state.late_records, 1);
    assert_eq!(state.records_processed, 1);
    assert_eq!(engine.throughput_total("up").unwrap().count, 1);
}
