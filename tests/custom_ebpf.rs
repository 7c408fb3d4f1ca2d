//! Programmability beyond the canned actions: a hand-written eBPF
//! program (a packet-size histogram) deployed through an agent's raw
//! install path — what a vNetTracer user would write for a bespoke
//! metric.

use std::net::SocketAddrV4;
use vnet_ebpf::asm::{reg::*, AluOp, Asm, Cond, Size};
use vnet_ebpf::map::MapDef;
use vnet_ebpf::vm::helper_ids;
use vnet_sim::device::{DeviceConfig, Forwarding, ServiceModel};
use vnet_sim::node::NodeClock;
use vnet_sim::packet::{FlowKey, PacketBuilder, SocketAddrV4Ext};
use vnet_sim::time::{SimDuration, SimTime};
use vnet_sim::world::World;
use vnettracer::config::{GlobalConfig, HookSpec};
use vnettracer::Agent;

/// Builds a histogram program: bucket = min(pkt_len / 256, 7); then
/// `hist[bucket] += 1` in an 8-slot array map.
fn histogram_program(hist_fd: i32) -> Vec<vnet_ebpf::Insn> {
    Asm::new()
        // r2 = ctx->pkt_len; bucket = r2 >> 8, clamped to 7.
        .ldx(Size::W, R2, R1, vnet_ebpf::context::CTX_OFF_PKT_LEN)
        .alu64_imm(AluOp::Rsh, R2, 8)
        .jmp_imm(Cond::Le, R2, 7, "in_range")
        .mov64_imm(R2, 7)
        .label("in_range")
        // key on stack.
        .stx(Size::W, R10, R2, -4)
        .ld_map_fd(R1, hist_fd)
        .mov64(R2, R10)
        .add64_imm(R2, -4)
        .call(helper_ids::MAP_LOOKUP_ELEM)
        .jmp_imm(Cond::Eq, R0, 0, "miss")
        .ldx(Size::DW, R2, R0, 0)
        .add64_imm(R2, 1)
        .stx(Size::DW, R0, R2, 0)
        .mov64_imm(R0, 1)
        .exit()
        .label("miss")
        .mov64_imm(R0, 0)
        .exit()
        .build()
        .expect("histogram program assembles")
}

#[test]
fn custom_histogram_program_counts_packet_sizes() {
    let mut w = World::new(77);
    let n = w.add_node("host", 4, NodeClock::perfect());
    let dev = w.add_device(
        DeviceConfig::new("eth0", n)
            .service(ServiceModel::Fixed(SimDuration::from_nanos(100)))
            .forwarding(Forwarding::Deliver),
    );

    let mut agent = Agent::new(n, "host", 4);
    // The user creates the map, references its fd from the program, and
    // reads it back after the run.
    let hist_fd = agent
        .maps()
        .borrow_mut()
        .create(MapDef::array(8, 8), 4)
        .unwrap();
    let id = agent
        .install_raw(
            &mut w,
            "size_histogram",
            &HookSpec::DeviceRx("eth0".into()),
            histogram_program(hist_fd),
            &GlobalConfig::default(),
        )
        .unwrap();

    // 5 tiny packets (bucket 0), 3 mid-size (bucket 2), 2 jumbo-ish
    // (clamped to bucket 7).
    let flow = FlowKey::udp(
        SocketAddrV4::sock("10.0.0.1", 1),
        SocketAddrV4::sock("10.0.0.2", 2),
    );
    for _ in 0..5 {
        w.inject(dev, PacketBuilder::udp(flow, vec![0; 20]).build()); // 62B
    }
    for _ in 0..3 {
        w.inject(dev, PacketBuilder::udp(flow, vec![0; 600]).build()); // 642B
    }
    for _ in 0..2 {
        w.inject(dev, PacketBuilder::udp(flow, vec![0; 2500]).build()); // 2542B
    }
    w.run_until(SimTime::from_millis(1));

    let stats = agent.stats(id).unwrap();
    assert_eq!(stats.executions, 10);
    assert_eq!(stats.errors, 0);

    let maps = agent.maps();
    let mut maps = maps.borrow_mut();
    let map = maps.get_mut(hist_fd).unwrap();
    let bucket = |map: &mut vnet_ebpf::map::Map, i: u32| -> u64 {
        u64::from_le_bytes(map.lookup(&i.to_le_bytes(), 0).unwrap().try_into().unwrap())
    };
    assert_eq!(bucket(map, 0), 5);
    assert_eq!(bucket(map, 2), 3);
    assert_eq!(bucket(map, 7), 2);
    assert_eq!(bucket(map, 1), 0);
}

#[test]
fn broken_custom_program_rejected_at_install() {
    let mut w = World::new(78);
    let n = w.add_node("host", 1, NodeClock::perfect());
    w.add_device(DeviceConfig::new("eth0", n));
    let mut agent = Agent::new(n, "host", 1);
    // A looping program must be rejected by the verifier at install time.
    let looping = Asm::new()
        .label("top")
        .mov64_imm(R0, 0)
        .jump("top")
        .exit()
        .build()
        .unwrap();
    let err = agent
        .install_raw(
            &mut w,
            "bad",
            &HookSpec::DeviceRx("eth0".into()),
            looping,
            &GlobalConfig::default(),
        )
        .unwrap_err();
    assert!(
        matches!(err, vnettracer::TracerError::Load(_)),
        "got {err:?}"
    );
    // A program using a non-existent map fd is rejected too.
    let bad_map = Asm::new()
        .mov64_imm(R2, 0)
        .stx(Size::W, R10, R2, -4)
        .ld_map_fd(R1, 42)
        .mov64(R2, R10)
        .add64_imm(R2, -4)
        .call(helper_ids::MAP_LOOKUP_ELEM)
        .mov64_imm(R0, 0)
        .exit()
        .build()
        .unwrap();
    let err = agent
        .install_raw(
            &mut w,
            "bad2",
            &HookSpec::DeviceRx("eth0".into()),
            bad_map,
            &GlobalConfig::default(),
        )
        .unwrap_err();
    assert!(matches!(err, vnettracer::TracerError::Load(_)));
}
