//! Every testbed's world, as built, is pinned: its `Debug` form (nodes,
//! devices with their whole config, ports, routes and bindings, apps,
//! link profiles, schedulers; see `impl Debug for World`) folds into one
//! CRC-32 per builder and configuration. A change to how a testbed is
//! written that is meant to build the same world must leave every digest
//! here unchanged, down to the order of device ids and ports.
//!
//! The tracer each traced testbed's front ends use is pinned the same
//! way: a fresh tracer's `Debug` form lists its agents (node id, name,
//! CPU count) and nothing that a run has filled in.

use vnet_sim::time::SimDuration;
use vnet_sim::World;
use vnet_testbed::container::{ContainerConfig, ContainerScenario, NetMode, Transport};
use vnet_testbed::drop_lab::{DropLab, DropLabConfig};
use vnet_testbed::memcached_chain::{ChainConfig, MemcachedChain};
use vnet_testbed::netperf_xen::{NetperfXenConfig, NetperfXenScenario, TracerKind};
use vnet_testbed::ovs::{CongestionTransport, Mitigation, OvsCase, OvsConfig, OvsScenario};
use vnet_testbed::rack::RackTestbed;
use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
use vnet_testbed::xen::{Consolidation, SchedulerKind, XenConfig, XenScenario, XenWorkload};
use vnet_testbed::Testbed;
use vnet_tsdb::codec::crc32;
use vnet_tsdb::TraceDb;
use vnet_workloads::datacenter_rack::{RackConfig, RackScenario};
use vnettracer::VNetTracer;

fn digest(x: &impl std::fmt::Debug) -> u32 {
    crc32(format!("{x:?}").as_bytes())
}

/// One world digest and, for a traced testbed, one agent-set digest.
struct Pin {
    label: String,
    world: u32,
    agents: Option<u32>,
}

fn traced(label: &str, bed: &mut impl Testbed) -> Pin {
    let agents = digest(&VNetTracer::for_world(bed.world(), TraceDb::new()));
    Pin {
        label: label.into(),
        world: digest(bed.world()),
        agents: Some(agents),
    }
}

fn untraced(label: &str, world: &World) -> Pin {
    Pin {
        label: label.into(),
        world: digest(world),
        agents: None,
    }
}

/// Every builder at its defaults and at one variant each.
fn pins() -> Vec<Pin> {
    let mut pins = Vec::new();

    pins.push(traced(
        "two-host",
        &mut TwoHostScenario::build(&TwoHostConfig::default()),
    ));
    pins.push(traced(
        "two-host no background",
        &mut TwoHostScenario::build(&TwoHostConfig {
            background_mbps: 0.0,
            ..Default::default()
        }),
    ));

    for case in OvsCase::ALL {
        let cfg = OvsConfig {
            case,
            ..Default::default()
        };
        pins.push(traced(
            &format!("ovs {}", case.label()),
            &mut OvsScenario::build(&cfg),
        ));
    }
    pins.push(traced(
        "ovs Case III+ policed, tcp",
        &mut OvsScenario::build(&OvsConfig {
            case: OvsCase::IIIPlus,
            mitigation: Mitigation::Policing,
            transport: CongestionTransport::Tcp,
            ..Default::default()
        }),
    ));
    pins.push(traced(
        "ovs Case II htb",
        &mut OvsScenario::build(&OvsConfig {
            case: OvsCase::II,
            mitigation: Mitigation::Htb,
            ..Default::default()
        }),
    ));

    pins.push(traced(
        "xen",
        &mut XenScenario::build(&XenConfig::default()),
    ));
    pins.push(traced(
        "xen data caching, shared, credit1, skewed",
        &mut XenScenario::build(&XenConfig {
            workload: XenWorkload::DataCaching,
            consolidation: Consolidation::SharedDefaultRatelimit,
            scheduler: SchedulerKind::Credit1,
            xen_clock_offset_ns: 25_000,
            ..Default::default()
        }),
    ));

    for (mode, transport) in [
        (NetMode::VmDirect, Transport::NetperfTcp),
        (NetMode::Overlay, Transport::NetperfTcp),
        (NetMode::Overlay, Transport::NetperfUdp),
    ] {
        pins.push(traced(
            &format!("container {mode:?} {transport:?}"),
            &mut ContainerScenario::build(&ContainerConfig {
                mode,
                transport,
                count: 100,
            }),
        ));
    }

    pins.push(traced(
        "rack small",
        &mut RackTestbed::build(&RackConfig::small()),
    ));
    pins.push(traced(
        "rack 3x3",
        &mut RackTestbed::build(&RackConfig {
            hosts: 3,
            vms_per_host: 3,
            apps_per_vm: 1,
            ..RackConfig::small()
        }),
    ));

    // The drop lab's and the chain's knobs change what runs, not what is
    // built: each variant digests as its default does.
    pins.push(traced(
        "drop lab",
        &mut DropLab::build(&DropLabConfig::default()),
    ));
    pins.push(traced(
        "drop lab 5 per lane",
        &mut DropLab::build(&DropLabConfig {
            packets_per_lane: 5,
        }),
    ));

    pins.push(traced(
        "memcached chain",
        &mut MemcachedChain::build(&ChainConfig::default()),
    ));
    pins.push(traced(
        "memcached chain seed 5",
        &mut MemcachedChain::build(&ChainConfig {
            seed: 5,
            requests: 10,
        }),
    ));

    for (gbps, tracer) in [(1.0, TracerKind::None), (10.0, TracerKind::SystemTap)] {
        let s = NetperfXenScenario::build(&NetperfXenConfig {
            link_gbps: gbps,
            segments: 100,
            tracer,
        });
        pins.push(untraced(
            &format!("netperf-xen {gbps} {tracer:?}"),
            &s.world,
        ));
    }

    // The two worlds `vnet_testbed::emulate` builds at its defaults:
    // the two-host testbed without background load, and a 4 x 2 rack,
    // both sending every 100 us.
    let emulation = vnet_testbed::emulate::EmulationConfig::default();
    let interval = SimDuration::from_micros(100);
    let s = TwoHostScenario::build(&TwoHostConfig {
        seed: emulation.seed,
        messages: emulation.messages,
        interval,
        background_mbps: 0.0,
    });
    pins.push(untraced("emulation two-host", &s.world));
    let s = RackScenario::build(&RackConfig {
        seed: emulation.seed,
        hosts: 4,
        vms_per_host: 2,
        apps_per_vm: 2,
        flows_per_app: 8,
        packets_per_app: emulation.messages,
        send_interval: interval,
        payload: 128,
    });
    pins.push(untraced("emulation rack", &s.world));
    pins
}

#[test]
fn every_testbed_builds_its_pinned_world() {
    let want: &[(&str, u32, Option<u32>)] = &[
        ("two-host", 0x0e90ad34, Some(0x98029215)),
        ("two-host no background", 0xf488c5a8, Some(0x98029215)),
        ("ovs Case I", 0xa1d58a08, Some(0xe59c8738)),
        ("ovs Case II", 0x27f1a0d1, Some(0xe59c8738)),
        ("ovs Case II+", 0xf4f7e35d, Some(0xe59c8738)),
        ("ovs Case III", 0x8f03e492, Some(0xe59c8738)),
        ("ovs Case III+", 0x988e613c, Some(0xe59c8738)),
        ("ovs Case III+ policed, tcp", 0xe8077c12, Some(0xe59c8738)),
        ("ovs Case II htb", 0xe896bafa, Some(0xe59c8738)),
        ("xen", 0x0266afc2, Some(0x05400c9f)),
        (
            "xen data caching, shared, credit1, skewed",
            0x9b25f666,
            Some(0x05400c9f),
        ),
        (
            "container VmDirect NetperfTcp",
            0xbf027d5f,
            Some(0x0fc468e0),
        ),
        ("container Overlay NetperfTcp", 0xd9f14c67, Some(0x0fc468e0)),
        ("container Overlay NetperfUdp", 0xb2e2e8e1, Some(0x0fc468e0)),
        ("rack small", 0xe2ea610c, Some(0x7c4f8900)),
        ("rack 3x3", 0xb677bcde, Some(0x1f9a6d32)),
        ("drop lab", 0xd770a7b7, Some(0xf770dd09)),
        ("drop lab 5 per lane", 0xd770a7b7, Some(0xf770dd09)),
        ("memcached chain", 0x234c1fcb, Some(0x53196084)),
        ("memcached chain seed 5", 0x234c1fcb, Some(0x53196084)),
        ("netperf-xen 1 None", 0x033002ca, None),
        ("netperf-xen 10 SystemTap", 0x3c125d76, None),
        ("emulation two-host", 0xf488c5a8, None),
        ("emulation rack", 0xe2ea610c, None),
    ];
    let got = pins();
    let mut report = String::new();
    for p in &got {
        let agents = p
            .agents
            .map_or("None".into(), |a| format!("Some({a:#010x})"));
        report.push_str(&format!(
            "(\"{}\", {:#010x}, {agents}),\n",
            p.label, p.world
        ));
    }
    assert_eq!(got.len(), want.len(), "\n{report}");
    for (p, &(label, world, agents)) in got.iter().zip(want) {
        assert_eq!(p.label, label, "\n{report}");
        assert_eq!(p.world, world, "{label}: world\n{report}");
        assert_eq!(p.agents, agents, "{label}: agents\n{report}");
    }
}

/// The digest sees what it is meant to: a world that differs in one
/// port's latency, or in the order two ports were wired, digests
/// differently.
#[test]
fn the_digest_sees_ports_and_their_order() {
    use vnet_sim::device::DeviceConfig;
    use vnet_sim::node::NodeClock;
    let build = |swap: bool, latency: u64| {
        let mut w = World::new(1);
        let n = w.add_node("n", 1, NodeClock::perfect());
        let a = w.add_device(DeviceConfig::new("a", n));
        let b = w.add_device(DeviceConfig::new("b", n));
        let c = w.add_device(DeviceConfig::new("c", n));
        let (x, y) = if swap { (c, b) } else { (b, c) };
        w.connect(a, x, SimDuration::from_nanos(latency));
        w.connect(a, y, SimDuration::ZERO);
        digest(&w)
    };
    assert_eq!(build(false, 5), build(false, 5));
    assert_ne!(build(false, 5), build(true, 5));
    assert_ne!(build(false, 5), build(false, 6));
}
