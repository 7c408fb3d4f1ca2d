//! Application-level tracing through uprobes (§III-B: "Application
//! monitoring could be traced through user level tracepoints such as
//! uprobe and uretprobe").

use std::net::{Ipv4Addr, SocketAddrV4};
use std::rc::Rc;

use vnet_sim::device::{DeviceConfig, Forwarding, ServiceModel, TraceIdRole};
use vnet_sim::node::NodeClock;
use vnet_sim::packet::FlowKey;
use vnet_sim::time::{SimDuration, SimTime};
use vnet_sim::world::World;
use vnet_workloads::stats::LatencyRecorder;
use vnet_workloads::{SockperfClient, SockperfServer};
use vnettracer::config::{Action, ControlPackage, FilterRule, HookSpec, TraceSpec};
use vnettracer::{Agent, VNetTracer};

const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

#[test]
fn uprobe_traces_application_deliveries() {
    let mut w = World::new(91);
    let n = w.add_node("host", 2, NodeClock::perfect());
    let c_tx = w.add_device(
        DeviceConfig::new("c-tx", n)
            .service(ServiceModel::Fixed(SimDuration::from_micros(2)))
            .trace_id(TraceIdRole::Inject),
    );
    let s_rx = w.add_device(
        DeviceConfig::new("s-rx", n)
            .service(ServiceModel::Fixed(SimDuration::from_micros(3)))
            .forwarding(Forwarding::Deliver)
            .trace_id(TraceIdRole::StripUdpTrailer),
    );
    let s_tx = w.add_device(
        DeviceConfig::new("s-tx", n)
            .service(ServiceModel::Fixed(SimDuration::from_micros(2)))
            .trace_id(TraceIdRole::Inject),
    );
    let c_rx = w.add_device(
        DeviceConfig::new("c-rx", n)
            .service(ServiceModel::Fixed(SimDuration::from_micros(3)))
            .forwarding(Forwarding::Deliver)
            .trace_id(TraceIdRole::StripUdpTrailer),
    );
    w.connect(c_tx, s_rx, SimDuration::ZERO);
    w.connect(s_tx, c_rx, SimDuration::ZERO);

    let flow = FlowKey::udp(
        SocketAddrV4::new(CLIENT_IP, 40000),
        SocketAddrV4::new(SERVER_IP, 11111),
    );
    let latency = LatencyRecorder::shared();
    let client = w.add_named_app(
        n,
        c_tx,
        "sockperf-client",
        Box::new(SockperfClient::new(
            flow,
            vnet_workloads::sockperf::DEFAULT_MSG_SIZE,
            SimDuration::from_micros(100),
            50,
            Rc::clone(&latency),
        )),
    );
    let server = w.add_named_app(n, s_tx, "sockperf-server", Box::new(SockperfServer::new()));
    w.bind_app(s_rx, 11111, server);
    w.bind_app(c_rx, 40000, client);

    // Uprobe on the *server application*: fires when the request reaches
    // user space (after the kernel stripped the UDP trailer, so no trace
    // ID is visible up there), plus a kernel-side tap for comparison.
    let mut tracer = VNetTracer::new();
    tracer.add_agent(Agent::new(n, "host", 2));
    let pkg = ControlPackage::new(vec![
        TraceSpec {
            name: "server_uprobe".into(),
            node: "host".into(),
            hook: HookSpec::Uprobe("sockperf-server".into()),
            filter: FilterRule::udp_flow((CLIENT_IP, 40000), (SERVER_IP, 11111)),
            action: Action::RecordPacketInfo,
        },
        TraceSpec {
            name: "kernel_rx".into(),
            node: "host".into(),
            hook: HookSpec::DeviceRx("s-rx".into()),
            filter: FilterRule::udp_flow((CLIENT_IP, 40000), (SERVER_IP, 11111)),
            action: Action::RecordPacketInfo,
        },
    ]);
    tracer.deploy(&mut w, &pkg).unwrap();
    w.run_until(SimTime::from_millis(20));
    tracer.collect(&w);

    let uprobe_table = tracer.db().table("server_uprobe").expect("uprobe records");
    assert_eq!(uprobe_table.len(), 50, "one firing per delivered request");
    let kernel_table = tracer.db().table("kernel_rx").expect("kernel records");
    assert_eq!(kernel_table.len(), 50);
    // The uprobe sees the request after kernel processing: its timestamps
    // trail the kernel tap by the stack service time (3us).
    let k0 = kernel_table.entries()[0].timestamp_ns();
    let u0 = uprobe_table.entries()[0].timestamp_ns();
    assert!(
        u0 > k0,
        "user space sees the packet after the kernel ({u0} vs {k0})"
    );
    // The kernel-side records carry the real (distinct, random) trace
    // IDs. At the uprobe the kernel has already stripped the trailer, so
    // the positional extractor reads the application payload's zero
    // padding instead — evidence the ID is gone from the user-space view.
    let trace_id = |e: &vnet_tsdb::Entry<'_>| {
        let r = e.record();
        r.has_trace_id().then_some(r.trace_id)
    };
    let kernel_ids: std::collections::BTreeSet<u32> =
        kernel_table.entries().iter().filter_map(trace_id).collect();
    assert_eq!(
        kernel_ids.len(),
        50,
        "50 distinct random IDs in the kernel view"
    );
    let uprobe_ids: std::collections::BTreeSet<u32> =
        uprobe_table.entries().iter().filter_map(trace_id).collect();
    assert_eq!(
        uprobe_ids.into_iter().collect::<Vec<_>>(),
        vec![0],
        "the stripped user-space view shows only payload padding"
    );
    // The workload itself is unperturbed.
    assert_eq!(latency.borrow_mut().summary().unwrap().count, 50);
}
