//! Case Study II (§IV-D): tuning the hypervisor scheduler.
//!
//! Reproduces the diagnosis of the Xen credit2 long-tail-latency problem:
//! Sockperf latency explodes when the I/O VM shares a physical CPU with a
//! CPU-bound VM (Fig. 10a); vNetTracer's cross-boundary decomposition
//! pins >90% of the one-way latency on the Dom0-backend → guest-frontend
//! segment (Fig. 11a), whose per-packet trace shows the sawtooth
//! signature of the 1000 µs context-switch rate limit (Fig. 11b); setting
//! the rate limit to zero restores baseline latency.
//!
//! Run with: `cargo run --release --example xen_scheduler`

use vnet_testbed::xen::{Consolidation, XenConfig, XenScenario, XenWorkload};
use vnet_tsdb::TraceDb;
use vnettracer::metrics;
use vnettracer::VNetTracer;

fn latency(workload: XenWorkload, consolidation: Consolidation) -> (f64, f64) {
    let s = vnet_testbed::xen::run_latency(&XenConfig {
        workload,
        consolidation,
        requests: 500,
        ..Default::default()
    });
    (s.mean_us(), s.p999_us())
}

fn main() {
    println!("=== Fig. 10(a): Sockperf latency (us) ===");
    let (a_avg, a_tail) = latency(XenWorkload::Sockperf, Consolidation::Alone);
    let (s_avg, s_tail) = latency(XenWorkload::Sockperf, Consolidation::SharedDefaultRatelimit);
    let (f_avg, f_tail) = latency(XenWorkload::Sockperf, Consolidation::SharedNoRatelimit);
    println!("{:<28} {:>10} {:>12}", "configuration", "avg", "p99.9");
    println!(
        "{:<28} {:>10.1} {:>12.1}",
        "I/O VM alone (baseline)", a_avg, a_tail
    );
    println!(
        "{:<28} {:>10.1} {:>12.1}",
        "shared pCPU, ratelimit 1ms", s_avg, s_tail
    );
    println!(
        "{:<28} {:>10.1} {:>12.1}",
        "shared pCPU, ratelimit 0", f_avg, f_tail
    );
    println!(
        "-> tail inflation {:.1}x under the default rate limit (paper: 22x)",
        s_tail / a_tail
    );

    println!("\n=== Fig. 10(b): Data Caching (memcached) latency (us) ===");
    let (a_avg, a_tail) = latency(XenWorkload::DataCaching, Consolidation::Alone);
    let (s_avg, s_tail) = latency(
        XenWorkload::DataCaching,
        Consolidation::SharedDefaultRatelimit,
    );
    let (f_avg, f_tail) = latency(XenWorkload::DataCaching, Consolidation::SharedNoRatelimit);
    println!("baseline      avg {a_avg:8.1}  p99.9 {a_tail:8.1}");
    println!("consolidated  avg {s_avg:8.1}  p99.9 {s_tail:8.1}  (paper: avg 4.7x, tail 7.5x)");
    println!("ratelimit=0   avg {f_avg:8.1}  p99.9 {f_tail:8.1}");

    // Fig. 11: decomposition with the tracer deployed across both hosts.
    println!("\n=== Fig. 11: one-way latency decomposition (mean us per segment) ===");
    for (label, consolidation) in [
        ("I/O VM alone", Consolidation::Alone),
        ("I/O + CPU VM shared", Consolidation::SharedDefaultRatelimit),
    ] {
        let cfg = XenConfig {
            consolidation,
            requests: 500,
            ..Default::default()
        };
        let mut s = XenScenario::build(&cfg);
        let pkg = s.control_package();
        let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
        tracer.deploy(&mut s.world, &pkg).expect("scripts deploy");
        s.run(&cfg);
        tracer.collect(&s.world);
        println!("{label}:");
        let segs = metrics::decompose(tracer.db(), &XenScenario::decomposition_chain());
        let total: f64 = segs.iter().map(|x| x.stats.mean_ns).sum();
        for seg in &segs {
            println!(
                "  {:>9} -> {:<9} {:10.1} us  ({:4.1}%)",
                seg.from.trim_start_matches("tp_"),
                seg.to.trim_start_matches("tp_"),
                seg.stats.mean_ns / 1e3,
                100.0 * seg.stats.mean_ns / total
            );
        }
        if consolidation == Consolidation::SharedDefaultRatelimit {
            // Fig. 11(b): the per-packet sawtooth in the vif->eth1 segment.
            let rows =
                metrics::per_packet_segments(tracer.db(), &XenScenario::decomposition_chain());
            let delays: Vec<u64> = rows.iter().filter_map(|(_, segs)| segs[2]).collect();
            let preview: Vec<String> = delays
                .iter()
                .take(24)
                .map(|d| format!("{}", d / 1000))
                .collect();
            println!("  vif->eth1 per-packet delay (us), first 24 packets:");
            println!("    {}", preview.join(" "));
            println!("    -> the sawtooth climbs to ~1000us and descends: the credit2");
            println!("       context-switch rate limit (1000us default) at work.");
        }
    }
}
