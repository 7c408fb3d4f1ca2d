//! Execution-tier comparison: the threaded-code tier versus the
//! interpreter on the standard trace programs the dispatcher compiles
//! (filter + record, filter miss, and a counter workload), plus the
//! one-time compile cost. The filter miss has a third arm, `decided`:
//! the walk of the program's check table that the probe sink makes in
//! place of a run, on the same frame.
//!
//! The headline claim this backs: on the hot match-and-record path the
//! pre-decoded tier runs the same program at least 2x faster than the
//! instruction-at-a-time interpreter, because decode, jump resolution
//! and helper lookup have been paid once at load time and the common
//! load/compare/branch and map-lookup/null-check sequences dispatch as
//! single fused ops. Each instruction has one lowering (DESIGN.md §5),
//! so there is one compiled arm.
//!
//! Set `VNT_BENCH_FAST=1` for a smoke run (CI): minimal sample count,
//! no timing claims — it only proves both tiers compile and run.

use std::net::{Ipv4Addr, SocketAddrV4};

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use vnet_ebpf::context::TraceContext;
use vnet_ebpf::map::{MapDef, MapRegistry};
use vnet_ebpf::program::load;
use vnet_ebpf::vm::{standard_helpers, FixedEnv, Vm};
use vnet_sim::packet::{trace_id, FlowKey, PacketBuilder};
use vnettracer::compile::{compile, Check};
use vnettracer::config::{Action, FilterRule, HookSpec, TraceSpec};

fn udp_flow() -> FlowKey {
    FlowKey::udp(
        SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 1), 9000),
        SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 2), 7),
    )
}

/// Compiles and loads one of the dispatcher's standard trace scripts,
/// handed out beside its filter's check table.
fn script(action: Action) -> (vnet_ebpf::LoadedProgram, MapRegistry, Vec<Check>) {
    let mut maps = MapRegistry::new();
    let perf_fd = maps.create(MapDef::perf(65536), 1).unwrap();
    let counter_fd = maps.create(MapDef::per_cpu_array(8, 16), 4).unwrap();
    let spec = TraceSpec {
        name: "bench".into(),
        node: "n".into(),
        hook: HookSpec::DeviceRx("eth0".into()),
        filter: FilterRule::udp_flow(
            (Ipv4Addr::new(10, 0, 0, 1), 9000),
            (Ipv4Addr::new(10, 0, 0, 2), 7),
        ),
        action,
    };
    let (prog, checks) = compile(&spec, Some(perf_fd), Some(counter_fd)).unwrap();
    (
        load(prog, &maps, &standard_helpers()).unwrap(),
        maps,
        checks,
    )
}

fn sample_size() -> usize {
    if std::env::var_os("VNT_BENCH_FAST").is_some() {
        2
    } else {
        20
    }
}

/// Benches one (program, packet) pair on both tiers under `group`.
///
/// Record actions publish to the perf ring, which the harness drains
/// (allocation-free) each firing so it never overflows; the drain cost
/// is identical in both arms.
fn bench_pair(c: &mut Criterion, group: &str, action: Action, matching: bool) {
    let drains_ring = matches!(action, Action::RecordPacketInfo);
    let (loaded, mut maps, checks) = script(action);
    let flow = if matching {
        udp_flow()
    } else {
        udp_flow().reversed()
    };
    let mut pkt = PacketBuilder::udp(flow, vec![0u8; 56]).build();
    trace_id::inject_udp_trailer(&mut pkt, 7).unwrap();
    let ctx = TraceContext {
        pkt_len: pkt.len() as u32,
        ..Default::default()
    };

    let mut g = c.benchmark_group(group);
    g.sample_size(sample_size());
    let vm = Vm::new();
    let mut env = FixedEnv::default();
    let mut drained = 0usize;
    g.bench_function("interp", |b| {
        b.iter(|| {
            let out = vm
                .execute(black_box(&loaded), &ctx, pkt.bytes(), &mut maps, &mut env)
                .unwrap();
            if drains_ring && out.ret == 1 {
                drained += maps.get_mut(0).unwrap().perf_drain_with(0, |_| {});
            }
            out.ret
        })
    });
    let compiled = vnet_ebpf::jit::compile(&loaded);
    g.bench_function("jit", |b| {
        b.iter(|| {
            let out = compiled
                .execute(black_box(&ctx), pkt.bytes(), &mut maps, &mut env)
                .unwrap();
            if drains_ring && out.ret == 1 {
                drained += maps.get_mut(0).unwrap().perf_drain_with(0, |_| {});
            }
            out.ret
        })
    });
    if !matching {
        // The sink's miss decision: the first row the frame fails.
        g.bench_function("decided", |b| {
            b.iter(|| {
                let frame = black_box(pkt.bytes());
                black_box(&checks)
                    .iter()
                    .position(|check| !check.passes(frame))
            })
        });
    }
    black_box(drained);
    g.finish();
}

fn bench_match_and_record(c: &mut Criterion) {
    bench_pair(c, "record_match", Action::RecordPacketInfo, true);
}

fn bench_filter_miss(c: &mut Criterion) {
    bench_pair(c, "record_miss", Action::RecordPacketInfo, false);
}

fn bench_counter(c: &mut Criterion) {
    bench_pair(c, "count_match", Action::CountPerCpu, true);
}

/// The price of admission: one ahead-of-time lowering pass per program.
fn bench_compile_once(c: &mut Criterion) {
    let (loaded, _maps, _) = script(Action::RecordPacketInfo);
    let mut g = c.benchmark_group("lowering");
    g.sample_size(sample_size());
    g.bench_function("compile", |b| {
        b.iter(|| vnet_ebpf::jit::compile(black_box(&loaded)).op_count())
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_match_and_record, bench_filter_miss, bench_counter, bench_compile_once
}
criterion_main!(benches);
