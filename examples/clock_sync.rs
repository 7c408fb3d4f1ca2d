//! Cross-machine clock synchronization (§III-B, Fig. 4).
//!
//! The client's and the Xen host's `CLOCK_MONOTONIC` disagree (here by a
//! configured 3.7 µs plus what the wire hides). vNetTracer measures the
//! relative skew with Cristian's algorithm: trace scripts at the NIC
//! interfaces of both machines record `t1..t4` for 100 probe exchanges,
//! the minimum one-way sample wins, and the resulting offset aligns all
//! remote timestamps for offline analysis.
//!
//! Run with: `cargo run --release --example clock_sync`

use std::collections::HashMap;
use vnet_tsdb::TraceDb;
use vnettracer::VNetTracer;

use vnet_testbed::xen::{XenConfig, XenScenario, CLIENT_IP, SERVER_IP};
use vnettracer::clock_sync::{align_timestamps, estimate_skew, SkewSample, DEFAULT_SAMPLES};
use vnettracer::config::{Action, ControlPackage, FilterRule, HookSpec, TraceSpec};
use vnettracer::metrics;

const TRUE_OFFSET_NS: i64 = 3_700;

fn main() {
    // The Xen host's clock leads the client's by 3.7us.
    let cfg = XenConfig {
        requests: DEFAULT_SAMPLES as u64,
        interval: vnet_sim::SimDuration::from_millis(1), // sequential probes
        xen_clock_offset_ns: TRUE_OFFSET_NS,
        ..Default::default()
    };
    let mut s = XenScenario::build(&cfg);

    // Probe tracepoints at the NIC interfaces of both machines (Fig. 4):
    // t1: request leaves the client NIC      (client clock)
    // t2: request arrives at the Xen host NIC (xen clock)
    // t3: reply leaves the Xen host NIC       (xen clock)
    // t4: reply arrives back at the client    (client clock)
    let req = FilterRule::udp_flow((CLIENT_IP, 40000), (SERVER_IP, 11211));
    let spec = |name: &str, node: &str, hook: HookSpec, filter| TraceSpec {
        name: name.into(),
        node: node.into(),
        hook,
        filter,
        action: Action::RecordPacketInfo,
    };
    let pkg = ControlPackage::new(vec![
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
    ]);
    let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
    tracer
        .deploy(&mut s.world, &pkg)
        .expect("probe scripts deploy");
    s.run(&cfg);
    tracer.collect(&s.world);

    // Requests and replies carry different trace IDs; the ping-pong is
    // strictly sequential, so pair the i-th request with the i-th reply.
    let t12 = tracer.db().join_timestamps("t1", "t2").unwrap();
    let t34 = tracer.db().join_timestamps("t3", "t4").unwrap();
    let samples: Vec<SkewSample> = t12
        .iter()
        .zip(t34.iter())
        .map(|(&(t1, t2), &(t3, t4))| SkewSample { t1, t2, t3, t4 })
        .collect();
    println!(
        "collected {} probe samples (paper uses {})",
        samples.len(),
        DEFAULT_SAMPLES
    );

    let est = estimate_skew(&samples).expect("samples available");
    println!(
        "minimum one-way transmission time: {:.2} us",
        est.one_way_ns as f64 / 1e3
    );
    println!("estimated offset (xen - client):   {} ns", est.offset_ns);
    println!("estimated |skew|:                  {} ns", est.skew_ns);
    println!("configured true offset:            {TRUE_OFFSET_NS} ns");
    let err = (est.offset_ns - TRUE_OFFSET_NS).unsigned_abs();
    println!("estimation error:                  {err} ns");

    // Apply the estimate: align the Xen host's timestamps and compare the
    // cross-machine t1->t2 latency before and after.
    let raw = metrics::latency_between(tracer.db(), "t1", "t2");
    let mut skews = HashMap::new();
    skews.insert("xenhost".to_owned(), est);
    let aligned_db = align_timestamps(tracer.db(), &skews);
    let aligned = metrics::latency_between(&aligned_db, "t1", "t2");
    let mean = |v: &[u64]| v.iter().sum::<u64>() as f64 / v.len().max(1) as f64 / 1e3;
    println!("\ncross-machine t1->t2 latency:");
    println!("  raw (skewed clocks):  {:.2} us", mean(&raw));
    println!("  after alignment:      {:.2} us", mean(&aligned));
}
