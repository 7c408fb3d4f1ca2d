//! Quickstart: the paper's §III-A walkthrough.
//!
//! "Suppose we need to measure the network latency between two VXLAN
//! layers in the multiple host container network." The user feeds the
//! control-data dispatcher (1) filter rules, (2) tracepoint information
//! (the `flannel.1` VXLAN devices), (3) the record action and (4) global
//! configuration; agents attach the generated eBPF scripts; the raw-data
//! collector gathers records; and the latency between the two VXLAN
//! devices falls out of a trace-ID join.
//!
//! Run with: `cargo run --example quickstart`

use vnet_testbed::container::{
    ContainerConfig, ContainerScenario, NetMode, Transport, VM1_IP, VM2_IP,
};
use vnet_tsdb::TraceDb;
use vnettracer::config::{Action, ControlPackage, FilterRule, HookSpec, Proto, TraceSpec};
use vnettracer::metrics;
use vnettracer::VNetTracer;

fn main() {
    // A container overlay network between two VMs; a netperf stream runs
    // from the container on vm1 to the container on vm2.
    // UDP keeps the per-packet trace ID at the very tail of the frame,
    // where it stays readable even through the VXLAN envelope.
    let cfg = ContainerConfig {
        mode: NetMode::Overlay,
        transport: Transport::NetperfUdp,
        count: 500,
    };
    let mut scenario = ContainerScenario::build(&cfg);

    // (1) The filter rule: the VXLAN-encapsulated flow between the two
    //     hosts (outer UDP to port 4789). The per-packet trace ID of the
    //     inner frame sits at the tail of the outer payload, so the same
    //     scripts correlate packets across the encapsulation boundary.
    let filter = FilterRule {
        ether_type: Some(0x0800),
        protocol: Some(Proto::Udp),
        src_ip: Some(VM1_IP),
        dst_ip: Some(VM2_IP),
        dst_port: Some(4789),
        ..FilterRule::any()
    };

    // (2)+(3) Tracepoints and actions: record packet info where the
    //     encapsulated frame leaves flannel.1 on vm1 and where it arrives
    //     at flannel.1 on vm2.
    let package = ControlPackage::new(vec![
        TraceSpec {
            name: "flannel1".into(),
            node: "vm1".into(),
            hook: HookSpec::DeviceTx("flannel.1".into()),
            filter,
            action: Action::RecordPacketInfo,
        },
        TraceSpec {
            name: "flannel2".into(),
            node: "vm2".into(),
            hook: HookSpec::DeviceRx("flannel.1".into()),
            filter,
            action: Action::RecordPacketInfo,
        },
    ]);
    println!("--- control package the dispatcher ships as JSON ---");
    println!("{}\n", package.to_json());

    // (4) Deploy into the live network — no application changes, no
    //     restarts — then run the workload and collect.
    let mut tracer = VNetTracer::for_world(&scenario.world, TraceDb::new());
    tracer
        .deploy(&mut scenario.world, &package)
        .expect("scripts verify and attach");
    scenario.run(&cfg);
    let records = tracer.collect(&scenario.world);
    println!("collected {records} trace records from the agents\n");

    // Offline analysis: join the two tables by packet trace ID.
    let samples = metrics::latency_between(tracer.db(), "flannel1", "flannel2");
    let stats = metrics::stats_from_ns(&samples).expect("traced packets");
    println!("latency between the two VXLAN devices (flannel.1 -> flannel.1):");
    println!("  packets  : {}", stats.count);
    println!("  mean     : {:8.2} us", stats.mean_us());
    println!("  p50      : {:8.2} us", stats.p50_ns as f64 / 1e3);
    println!("  p99.9    : {:8.2} us", stats.p999_us());
    println!(
        "  min..max : {:.2}..{:.2} us",
        stats.min_ns as f64 / 1e3,
        stats.max_ns as f64 / 1e3
    );

    let tput = metrics::throughput_at(tracer.db(), "flannel2");
    println!(
        "\nthroughput observed at the receiving VXLAN device: {:.1} Mbps",
        tput / 1e6
    );
    let loss = metrics::packet_loss(tracer.db(), "flannel1", "flannel2");
    println!(
        "packet loss across the underlay: {} of {} ({:.2}%)",
        loss.lost,
        loss.upstream,
        loss.rate * 100.0
    );
}
