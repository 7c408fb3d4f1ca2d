//! Ablation studies on the design choices DESIGN.md calls out.
//!
//! The paper motivates several design decisions qualitatively; these
//! runners quantify them on the same testbeds used for the figures:
//!
//! * **offline vs online collection** (§III-C) — shipping every record
//!   immediately "could consume additional CPU and network bandwidth";
//! * **kernel buffer sizing** (§III-C footnote) — the buffer must be
//!   large enough "to make the data be stored and collected
//!   infrequently" or records are lost;
//! * **number of trace scripts** — overhead scales with attached probes
//!   (the reason per-probe cost must be nanoseconds);
//! * **scheduler rate-limit sweep** — Case Study II's fix, swept from 0
//!   to 2000 µs, showing tail latency tracks the rate limit linearly.

use vnet_sim::time::SimDuration;
use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
use vnet_testbed::xen::{run_latency, Consolidation, XenConfig, XenWorkload};
use vnet_tsdb::TraceDb;
use vnettracer::config::{CollectionMode, ControlPackage};
use vnettracer::VNetTracer;

use crate::figures::Scale;
use crate::report::{us, Table};

/// Runs the Fig. 7(a) scenario with an optionally modified control
/// package; returns (mean latency ns, lost records at `s1_ovs_br1`).
fn overhead_run(
    scale: Scale,
    mutate: impl FnOnce(&mut ControlPackage),
    deploy: bool,
) -> (f64, u64) {
    let cfg = TwoHostConfig {
        messages: scale.messages,
        ..Default::default()
    };
    let mut s = TwoHostScenario::build(&cfg);
    let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
    let mut lost = 0;
    if deploy {
        let mut pkg = s.control_package();
        mutate(&mut pkg);
        tracer.deploy(&mut s.world, &pkg).expect("deploys");
    }
    s.run(&cfg);
    if deploy {
        lost = tracer.lost_records("s1_ovs_br1");
        tracer.collect(&s.world);
    }
    let mean = s.latency.borrow_mut().summary().expect("samples").mean_ns;
    (mean, lost)
}

/// Offline vs online collection: the latency cost of shipping every
/// record to user space immediately.
pub fn collection_mode(scale: Scale) -> Table {
    let (base, _) = overhead_run(scale, |_| {}, false);
    let (offline, _) = overhead_run(scale, |_| {}, true);
    let (online, _) = overhead_run(scale, |pkg| pkg.global.mode = CollectionMode::Online, true);
    let mut t = Table::new(
        "Ablation: collection mode (Sockperf mean latency, us)",
        &["mode", "latency", "overhead"],
    );
    let pct = |v: f64| format!("{:+.2}%", 100.0 * (v - base) / base);
    t.row(&["no tracing".into(), us(base), "-".into()]);
    t.row(&["offline (buffered)".into(), us(offline), pct(offline)]);
    t.row(&["online (per-record ship)".into(), us(online), pct(online)]);
    t.note("§III-C: offline collection keeps tracing cheap; online costs CPU per record");
    t
}

/// Kernel buffer sizing: small buffers overflow between (end-of-run)
/// collections and lose records.
pub fn buffer_size(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation: kernel buffer size vs lost records (s1_ovs_br1)",
        &["buffer (bytes)", "records kept", "records lost", "loss"],
    );
    for size in [64u32, 512, 4096, 65_536] {
        let cfg = TwoHostConfig {
            messages: scale.messages,
            ..Default::default()
        };
        let mut s = TwoHostScenario::build(&cfg);
        let mut pkg = s.control_package();
        pkg.global.buffer_size = size;
        let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
        tracer.deploy(&mut s.world, &pkg).expect("deploys");
        s.run(&cfg);
        let lost = tracer.lost_records("s1_ovs_br1");
        tracer.collect(&s.world);
        let kept = tracer.db().table("s1_ovs_br1").map_or(0, |tb| tb.len()) as u64;
        t.row(&[
            size.to_string(),
            kept.to_string(),
            lost.to_string(),
            format!("{:.1}%", 100.0 * lost as f64 / (kept + lost).max(1) as f64),
        ]);
    }
    t.note("paper footnote 1: buffers range 32B..128k-16; size them so collection is infrequent");
    t
}

/// Overhead as a function of the number of attached trace scripts.
pub fn probe_count(scale: Scale) -> Table {
    let (base, _) = overhead_run(scale, |_| {}, false);
    let mut t = Table::new(
        "Ablation: trace-script count vs Sockperf latency",
        &["scripts", "latency (us)", "overhead"],
    );
    t.row(&["0".into(), us(base), "-".into()]);
    for k in [1usize, 2, 4, 8] {
        let (mean, _) = overhead_run(
            scale,
            |pkg| {
                // Duplicate the s1 OVS script k-1 extra times under
                // fresh names: every copy runs on every matched packet.
                let template = pkg.traces[0].clone();
                for i in 1..k {
                    let mut extra = template.clone();
                    extra.name = format!("{}_{i}", template.name);
                    pkg.traces.push(extra);
                }
            },
            true,
        );
        t.row(&[
            format!("{}", 3 + k),
            us(mean),
            format!("{:+.2}%", 100.0 * (mean - base) / base),
        ]);
    }
    t.note("per-script cost is ~100ns per matched packet: overhead grows linearly and slowly");
    t
}

/// Sweeps the credit2 context-switch rate limit (Case Study II's knob).
pub fn ratelimit_sweep(scale: Scale) -> Table {
    let mut t = Table::new(
        "Ablation: Xen credit2 ratelimit vs Sockperf latency (us)",
        &["ratelimit (us)", "avg", "p99.9"],
    );
    for rl_us in [0u64, 100, 250, 500, 1000, 2000] {
        let s = run_latency(&XenConfig {
            workload: XenWorkload::Sockperf,
            consolidation: Consolidation::SharedDefaultRatelimit,
            requests: scale.messages,
            ratelimit: Some(SimDuration::from_micros(rl_us)),
            ..Default::default()
        });
        t.row(&[rl_us.to_string(), us(s.mean_ns), us(s.p999_ns as f64)]);
    }
    t.note("tail latency tracks the rate limit almost exactly: the woken I/O vCPU");
    t.note("waits out the hog's remaining window (Case Study II mechanism)");
    t
}

/// All ablations.
pub fn all(scale: Scale) -> Vec<Table> {
    vec![
        collection_mode(scale),
        buffer_size(scale),
        probe_count(scale),
        ratelimit_sweep(scale),
    ]
}
