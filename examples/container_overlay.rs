//! Case Study III (§IV-E): bottlenecks of the container overlay network.
//!
//! Reproduces the diagnosis: container-overlay throughput collapses to a
//! fraction of VM-to-VM throughput (Fig. 12b); tracing `net_rx_action`
//! shows several times more softirq executions per delivered packet,
//! concentrated on few CPUs (Fig. 13a); and per-device tracing exposes
//! the far deeper data path of the overlay (Fig. 13b).
//!
//! Run with: `cargo run --release --example container_overlay`

use vnet_testbed::container::{
    run_throughput, ContainerConfig, ContainerScenario, NetMode, Transport,
};
use vnet_tsdb::TraceDb;
use vnettracer::VNetTracer;

fn main() {
    println!("=== Fig. 12(b): VM vs container throughput (Mbps) ===");
    println!(
        "{:<14} {:>10} {:>12} {:>8}",
        "transport", "VM", "container", "ratio"
    );
    for (label, transport) in [
        ("netperf TCP", Transport::NetperfTcp),
        ("netperf UDP", Transport::NetperfUdp),
        ("iperf TCP", Transport::IperfTcp),
    ] {
        let (vm, _, _) = run_throughput(NetMode::VmDirect, transport, 1_500);
        let (ov, _, _) = run_throughput(NetMode::Overlay, transport, 1_500);
        println!(
            "{:<14} {:>10.0} {:>12.0} {:>7.1}%",
            label,
            vm,
            ov,
            100.0 * ov / vm
        );
    }
    println!("-> paper: container netperf TCP/UDP = 16.8% / 22.9% of VM throughput");

    println!("\n=== Fig. 13(a): net_rx_action rate and softirq distribution ===");
    let (_, vm_rx, vm_conc) = run_throughput(NetMode::VmDirect, Transport::NetperfTcp, 1_500);
    let (_, ov_rx, ov_conc) = run_throughput(NetMode::Overlay, Transport::NetperfTcp, 1_500);
    println!("net_rx_action per delivered packet: VM {vm_rx:.2}, container {ov_rx:.2} ({:.2}x; paper: 4.54x)", ov_rx / vm_rx);
    println!(
        "softirq share on the busiest CPU:   VM {:.1}%, container {:.1}% (paper: 99.7% / 62.9%)",
        vm_conc * 100.0,
        ov_conc * 100.0
    );

    // Per-CPU counters through vNetTracer's own eBPF counting scripts.
    let cfg = ContainerConfig {
        mode: NetMode::Overlay,
        transport: Transport::NetperfUdp,
        count: 1_000,
    };
    let mut s = ContainerScenario::build(&cfg);
    let pkg = s.control_package();
    let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
    tracer
        .deploy(&mut s.world, &pkg)
        .expect("counting scripts deploy");
    s.run(&cfg);
    let rx = tracer
        .counter_per_cpu("net_rx_action")
        .expect("per-cpu counter");
    let rps = tracer
        .counter_per_cpu("get_rps_cpu")
        .expect("per-cpu counter");
    println!("\nper-CPU counters on the receiving VM (kprobe scripts, overlay UDP):");
    println!("  cpu        : {:>8} {:>8} {:>8} {:>8}", 0, 1, 2, 3);
    println!(
        "  net_rx     : {:>8} {:>8} {:>8} {:>8}",
        rx[0], rx[1], rx[2], rx[3]
    );
    println!(
        "  get_rps_cpu: {:>8} {:>8} {:>8} {:>8}",
        rps[0], rps[1], rps[2], rps[3]
    );

    println!("\n=== Fig. 13(b): data path depth ===");
    let vm_path = ContainerScenario::data_path(NetMode::VmDirect);
    let ov_path = ContainerScenario::data_path(NetMode::Overlay);
    println!(
        "VM path        ({} hops): {}",
        vm_path.len(),
        vm_path.join(" -> ")
    );
    println!(
        "container path ({} hops): {}",
        ov_path.len(),
        ov_path.join(" -> ")
    );
    println!("-> packets in the overlay traverse the network layers repeatedly,");
    println!("   explaining the softirq volume above.");
}
