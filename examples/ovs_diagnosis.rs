//! Case Study I (§IV-C): diagnosing network delay inside Open vSwitch.
//!
//! Reproduces the paper's workflow: measure Sockperf latency as
//! congestion grows (Cases I → III+, Fig. 8b), use vNetTracer to
//! decompose the end-to-end latency into sender-stack / OVS /
//! receiver-stack segments (Fig. 9a) to localize the bottleneck, then
//! apply OVS ingress rate limiting and show the recovery (Fig. 9b).
//!
//! Run with: `cargo run --release --example ovs_diagnosis`

use vnet_testbed::ovs::{Mitigation, OvsCase, OvsConfig, OvsScenario};
use vnettracer::metrics;

fn run_case(case: OvsCase, mitigation: Mitigation) -> (f64, f64, Vec<(String, f64)>) {
    let cfg = OvsConfig {
        case,
        mitigation,
        messages: 500,
        ..Default::default()
    };
    let mut s = OvsScenario::build(&cfg);
    let pkg = s.control_package();
    let mut tracer = s.make_tracer();
    tracer.deploy(&mut s.world, &pkg).expect("scripts deploy");
    s.run(&cfg);
    tracer.collect(&s.world);
    let summary = s.latency.borrow_mut().summary().expect("sockperf samples");
    let segments = metrics::decompose(tracer.db(), &OvsScenario::decomposition_chain())
        .into_iter()
        .map(|seg| {
            let label = match (seg.from.as_str(), seg.to.as_str()) {
                ("sock_em0", "sock_vnet0") => "sender stack".to_owned(),
                ("sock_vnet0", "sock_em2_in") => "OVS".to_owned(),
                ("sock_em2_in", "sock_em2_out") => "receiver stack".to_owned(),
                (a, b) => format!("{a}->{b}"),
            };
            (label, seg.stats.mean_ns / 1e3)
        })
        .collect();
    (summary.mean_us(), summary.p999_us(), segments)
}

fn main() {
    println!("=== Fig. 8(b): Sockperf latency under growing OVS congestion ===");
    println!("{:<10} {:>12} {:>12}", "case", "avg (us)", "p99.9 (us)");
    for case in OvsCase::ALL {
        let (avg, tail, _) = run_case(case, Mitigation::None);
        println!("{:<10} {:>12.1} {:>12.1}", case.label(), avg, tail);
    }

    println!("\n=== Fig. 9(a): latency decomposition along the data path ===");
    for case in OvsCase::ALL {
        let (_, _, segs) = run_case(case, Mitigation::None);
        print!("{:<10}", case.label());
        for (label, us) in &segs {
            print!("  {label}: {us:9.1}us");
        }
        println!();
    }
    println!("-> the time spent inside the OVS dominates and grows with congestion,");
    println!("   while the sender/receiver stacks stay flat (the paper's conclusion).");

    println!("\n=== Fig. 9(b): OVS ingress policing (1e5 kbps / 1e4 kb burst) ===");
    println!(
        "{:<10} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "case", "avg", "p99.9", "avg+police", "p99.9+police", "avg+HTB", "p99.9+HTB"
    );
    for case in [OvsCase::II, OvsCase::III] {
        let (avg, tail, _) = run_case(case, Mitigation::None);
        let (avg_p, tail_p, _) = run_case(case, Mitigation::Policing);
        let (avg_h, tail_h, _) = run_case(case, Mitigation::Htb);
        println!(
            "{:<10} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1} {:>12.1}",
            case.label(),
            avg,
            tail,
            avg_p,
            tail_p,
            avg_h,
            tail_h
        );
    }
    println!("-> rate limiting (or HTB QoS) at the ingress ports restores near-baseline latency.");
}
