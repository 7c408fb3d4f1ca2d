//! Criterion microbenchmarks backing the paper's point performance
//! claims:
//!
//! * **trace-ID add/remove costs tens of nanoseconds** (§III-B: "the
//!   above additional operations only involve tens of nanoseconds
//!   overhead") — measured on real frame buffers;
//! * **eBPF trace-script execution** (filter + record) through the
//!   verifier-approved interpreter, versus the simulated SystemTap
//!   per-event cost;
//! * **verifier throughput** over compiler-generated scripts;
//! * **simulator event rate**, which bounds how much virtual traffic the
//!   reproduction can push.

use std::net::{Ipv4Addr, SocketAddrV4};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use std::hint::black_box;
use vnet_ebpf::context::TraceContext;
use vnet_ebpf::map::{MapDef, MapRegistry};
use vnet_ebpf::program::load;
use vnet_ebpf::vm::{standard_helpers, FixedEnv, Vm};
use vnet_sim::device::{DeviceConfig, Forwarding, ServiceModel};
use vnet_sim::node::NodeClock;
use vnet_sim::packet::{trace_id, FlowKey, PacketBuilder, TcpFlags};
use vnet_sim::time::{SimDuration, SimTime};
use vnet_sim::world::World;
use vnet_tsdb::{CompactRecord, RecordBatch, TraceDb};
use vnettracer::compile::compile;
use vnettracer::config::{Action, FilterRule, HookSpec, TraceSpec};

fn udp_flow() -> FlowKey {
    FlowKey::udp(
        SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 1), 9000),
        SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 2), 7),
    )
}

fn bench_packet_id(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet_id");
    let udp = PacketBuilder::udp(udp_flow(), vec![0u8; 56]).build();
    g.bench_function("udp_inject_trailer", |b| {
        b.iter_batched(
            || udp.clone(),
            |mut pkt| trace_id::inject_udp_trailer(black_box(&mut pkt), 0xabcd).unwrap(),
            BatchSize::SmallInput,
        )
    });
    let mut injected = udp.clone();
    trace_id::inject_udp_trailer(&mut injected, 0xabcd).unwrap();
    g.bench_function("udp_strip_trailer", |b| {
        b.iter_batched(
            || injected.clone(),
            |mut pkt| trace_id::strip_udp_trailer(black_box(&mut pkt)).unwrap(),
            BatchSize::SmallInput,
        )
    });
    let tcp_flow = FlowKey::tcp(
        SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 1), 9000),
        SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 2), 7),
    );
    let tcp = PacketBuilder::tcp(tcp_flow, 1, 2, TcpFlags::ACK, vec![0u8; 512]).build();
    g.bench_function("tcp_inject_option", |b| {
        b.iter_batched(
            || tcp.clone(),
            |mut pkt| trace_id::inject_tcp_option(black_box(&mut pkt), 0xabcd).unwrap(),
            BatchSize::SmallInput,
        )
    });
    g.finish();
}

fn compiled_script() -> (vnet_ebpf::LoadedProgram, MapRegistry) {
    let mut maps = MapRegistry::new();
    let perf_fd = maps.create(MapDef::perf(65536), 1).unwrap();
    let spec = TraceSpec {
        name: "bench".into(),
        node: "n".into(),
        hook: HookSpec::DeviceRx("eth0".into()),
        filter: FilterRule::udp_flow(
            (Ipv4Addr::new(10, 0, 0, 1), 9000),
            (Ipv4Addr::new(10, 0, 0, 2), 7),
        ),
        action: Action::RecordPacketInfo,
    };
    let (prog, _) = compile(&spec, Some(perf_fd), None).unwrap();
    (load(prog, &maps, &standard_helpers()).unwrap(), maps)
}

fn bench_ebpf(c: &mut Criterion) {
    let mut g = c.benchmark_group("ebpf");
    let (loaded, mut maps) = compiled_script();
    let mut pkt = PacketBuilder::udp(udp_flow(), vec![0u8; 56]).build();
    trace_id::inject_udp_trailer(&mut pkt, 7).unwrap();
    let ctx = TraceContext {
        pkt_len: pkt.len() as u32,
        ..Default::default()
    };
    let vm = Vm::new();
    let mut env = FixedEnv::default();
    g.bench_function("trace_script_match_and_record", |b| {
        b.iter(|| {
            let out = vm
                .execute(black_box(&loaded), &ctx, pkt.bytes(), &mut maps, &mut env)
                .unwrap();
            // Drain to keep the perf ring from overflowing.
            if out.ret == 1 {
                maps.get_mut(0).unwrap().perf_drain(0);
            }
            out.ret
        })
    });
    // Non-matching packet: the early-exit filter path.
    let other = PacketBuilder::udp(udp_flow().reversed(), vec![0u8; 56]).build();
    let ctx2 = TraceContext {
        pkt_len: other.len() as u32,
        ..Default::default()
    };
    g.bench_function("trace_script_filtered_out", |b| {
        b.iter(|| {
            vm.execute(
                black_box(&loaded),
                &ctx2,
                other.bytes(),
                &mut maps,
                &mut env,
            )
            .unwrap()
            .ret
        })
    });
    g.finish();
}

fn bench_verifier(c: &mut Criterion) {
    let mut maps = MapRegistry::new();
    let perf_fd = maps.create(MapDef::perf(65536), 1).unwrap();
    let spec = TraceSpec {
        name: "bench".into(),
        node: "n".into(),
        hook: HookSpec::DeviceRx("eth0".into()),
        filter: FilterRule::udp_flow(
            (Ipv4Addr::new(10, 0, 0, 1), 9000),
            (Ipv4Addr::new(10, 0, 0, 2), 7),
        ),
        action: Action::RecordPacketInfo,
    };
    let (prog, _) = compile(&spec, Some(perf_fd), None).unwrap();
    c.bench_function("verifier/trace_script", |b| {
        b.iter(|| vnet_ebpf::verify(black_box(&prog.insns), &standard_helpers()).unwrap())
    });
}

fn bench_sim_events(c: &mut Criterion) {
    c.bench_function("sim/pipeline_1000_packets", |b| {
        b.iter_batched(
            || {
                let mut w = World::new(1);
                let n = w.add_node("host", 2, NodeClock::perfect());
                let a = w.add_device(
                    DeviceConfig::new("a", n)
                        .service(ServiceModel::Fixed(SimDuration::from_nanos(500))),
                );
                let d = w.add_device(
                    DeviceConfig::new("b", n)
                        .service(ServiceModel::Fixed(SimDuration::from_nanos(500)))
                        .forwarding(Forwarding::Deliver),
                );
                w.connect(a, d, SimDuration::from_micros(1));
                let pkt = PacketBuilder::udp(udp_flow(), vec![0u8; 64]).build();
                for _ in 0..1000 {
                    w.inject(a, pkt.clone());
                }
                w
            },
            |mut w| {
                w.run_until(SimTime::from_millis(10));
                w.events_processed()
            },
            BatchSize::SmallInput,
        )
    });
}

/// Batched ingest: one whole [`RecordBatch`] appended to a table's hot
/// tail of integer records.
fn bench_ingest(c: &mut Criterion) {
    const RECORDS: u64 = 1_000_000;
    let mut batch = RecordBatch::new();
    for i in 0..RECORDS {
        let record = CompactRecord {
            timestamp_ns: i * 1_000,
            trace_id: i as u32,
            pkt_len: 104,
            saddr: u32::from(Ipv4Addr::new(10, 0, 0, 1)),
            daddr: u32::from(Ipv4Addr::new(10, 0, 0, 2)),
            sport: 9000,
            dport: 7,
            cpu: (i % 4) as u16,
            direction: 0,
            flags: 1,
        };
        batch.push("tp0", "server1", record);
    }
    let mut g = c.benchmark_group("ingest_1m");
    g.sample_size(10).throughput(Throughput::Elements(RECORDS));
    g.bench_function("batched", |b| {
        b.iter_batched(
            TraceDb::new,
            |mut db| {
                db.insert_batch(black_box(&batch));
                db.len()
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_packet_id, bench_ebpf, bench_verifier, bench_sim_events, bench_ingest
}
criterion_main!(benches);
