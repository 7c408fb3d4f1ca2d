//! Writes `BENCH_SIM.json`: the headline numbers the perf trajectory
//! tracks across PRs.
//!
//! - `sim_scale`: the `datacenter_rack` scenario run end-to-end at 1, 2,
//!   4 and 8 worker threads — wall-clock seconds and simulation events
//!   per second for each. The speedup column is relative to the
//!   single-threaded run; `host_cpus` records how many CPUs the machine
//!   actually had, because on a one-core box the parallel arms pay
//!   barrier and channel cost with nothing to overlap and the honest
//!   speedup is below 1.
//! - `emulated_rack`: the same rack with a trace-driven link profile
//!   (LEO-handover delay steps) attached to every host uplink, versus
//!   the plain rack — the event-loop cost of the emulation layer
//!   (per-crossing segment lookup, wire-serialization bookkeeping and
//!   scheduled segment transitions).
//! - `ingest_1m`: one million trace records into `TraceDb` as one
//!   batch (records/sec).
//! - `jit_vs_interp`: the hot match-and-record trace program on the
//!   threaded-code tier versus the interpreter (executions/sec).
//!
//! Usage: `bench_sim [--fast] [--out PATH]`. `--fast` (or
//! `VNT_BENCH_FAST=1`) uses the miniature rack and fewer repetitions —
//! for CI smoke only; committed numbers come from the full run.

use std::net::{Ipv4Addr, SocketAddrV4};
use std::time::Instant;

use serde_json::{object, Value};
use vnet_ebpf::context::TraceContext;
use vnet_ebpf::map::{MapDef, MapRegistry};
use vnet_ebpf::program::load;
use vnet_ebpf::vm::{standard_helpers, FixedEnv, Vm};
use vnet_sim::packet::{trace_id, FlowKey, PacketBuilder};
use vnet_sim::profile::leo_handover;
use vnet_sim::time::SimDuration;
use vnet_tsdb::{RecordBatch, TraceDb};
use vnet_workloads::datacenter_rack::{RackConfig, RackScenario};
use vnettracer::compile::compile;
use vnettracer::config::{Action, FilterRule, HookSpec, TraceSpec};
use vnettracer::record::TraceRecord;

/// The rack the scale rows measure — the same mid-size config as the
/// `sim_scale` criterion bench (the million-flow default rack is the
/// `vnt rack --full` CLI run; it would take minutes per row here).
fn rack_config(fast: bool) -> RackConfig {
    if fast {
        RackConfig::small()
    } else {
        RackConfig {
            seed: 42,
            hosts: 8,
            vms_per_host: 4,
            apps_per_vm: 4,
            flows_per_app: 32,
            packets_per_app: 96,
            send_interval: SimDuration::from_micros(20),
            payload: 256,
        }
    }
}

/// Best-of-N wall clock for one rack run; returns (seconds, events).
fn time_rack(cfg: &RackConfig, threads: usize, reps: usize) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..reps {
        let mut s = RackScenario::build(cfg);
        s.world.set_parallelism(threads);
        let start = Instant::now();
        s.run(cfg);
        let secs = start.elapsed().as_secs_f64();
        events = s.world.events_processed();
        if secs < best {
            best = secs;
        }
    }
    (best, events)
}

/// Best-of-N rack run with a LEO-handover link profile on every host
/// uplink versus the unprofiled baseline; returns
/// `((baseline_secs, baseline_events), (profiled_secs, profiled_events))`.
fn time_emulated_rack(cfg: &RackConfig, reps: usize) -> ((f64, u64), (f64, u64)) {
    let run = |profiled: bool| {
        let mut best = f64::INFINITY;
        let mut events = 0;
        for _ in 0..reps {
            let mut s = RackScenario::build(cfg);
            if profiled {
                let span =
                    SimDuration::from_nanos(cfg.send_interval.as_nanos() * cfg.packets_per_app);
                let (profile, _episodes) = leo_handover(
                    SimDuration::from_micros(5),
                    SimDuration::from_micros(300),
                    SimDuration::from_micros(200),
                    SimDuration::from_micros(500),
                    SimDuration::from_micros(100),
                    span,
                );
                for h in 0..cfg.hosts {
                    let uplink = s.world.find_device(s.host_nodes[h], "eth0-tx").unwrap();
                    s.world.attach_link_profile(uplink, 0, profile.clone());
                }
            }
            let start = Instant::now();
            s.run(cfg);
            let secs = start.elapsed().as_secs_f64();
            events = s.world.events_processed();
            if secs < best {
                best = secs;
            }
        }
        (best, events)
    };
    (run(false), run(true))
}

/// Best-of-N for the 1M-record batched ingest.
fn time_ingest(reps: usize) -> (f64, u64) {
    const RECORDS: u64 = 1_000_000;
    let mut batch = RecordBatch::new();
    for i in 0..RECORDS {
        let record = TraceRecord {
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
        batch.push("tp0", "server1", record.to_compact());
    }
    let mut batched = f64::INFINITY;
    for _ in 0..reps {
        let mut db = TraceDb::new();
        let start = Instant::now();
        db.insert_batch(&batch);
        batched = batched.min(start.elapsed().as_secs_f64());
        assert_eq!(db.len() as u64, RECORDS);
    }
    (batched, RECORDS)
}

/// Executions/sec of the match-and-record program on both tiers.
fn time_tiers(iters: u64) -> (f64, f64) {
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
        action: Action::RecordPacketInfo,
    };
    let prog = compile(&spec, Some(perf_fd), Some(counter_fd)).unwrap();
    let loaded = load(prog, &maps, &standard_helpers()).unwrap();
    let flow = FlowKey::udp(
        SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 1), 9000),
        SocketAddrV4::new(Ipv4Addr::new(10, 0, 0, 2), 7),
    );
    let mut pkt = PacketBuilder::udp(flow, vec![0u8; 56]).build();
    trace_id::inject_udp_trailer(&mut pkt, 7).unwrap();
    let ctx = TraceContext {
        pkt_len: pkt.len() as u32,
        ..Default::default()
    };
    let vm = Vm::new();
    let mut env = FixedEnv::default();

    let start = Instant::now();
    for _ in 0..iters {
        let out = vm
            .execute(&loaded, &ctx, pkt.bytes(), &mut maps, &mut env)
            .unwrap();
        if out.ret == 1 {
            maps.get_mut(0).unwrap().perf_drain_with(0, |_| {});
        }
    }
    let interp = iters as f64 / start.elapsed().as_secs_f64();

    let compiled = vnet_ebpf::jit::compile(&loaded);
    let start = Instant::now();
    for _ in 0..iters {
        let out = compiled
            .execute(&ctx, pkt.bytes(), &mut maps, &mut env)
            .unwrap();
        if out.ret == 1 {
            maps.get_mut(0).unwrap().perf_drain_with(0, |_| {});
        }
    }
    let jit = iters as f64 / start.elapsed().as_secs_f64();
    (interp, jit)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let fast = std::env::var_os("VNT_BENCH_FAST").is_some() || args.iter().any(|a| a == "--fast");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_SIM.json".to_string());

    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let reps = if fast { 1 } else { 3 };
    let cfg = rack_config(fast);
    eprintln!(
        "bench_sim: rack {} hosts x {} VMs, {} flows, {} packets, {} CPUs",
        cfg.hosts,
        cfg.vms_per_host,
        cfg.concurrent_flows(),
        cfg.total_packets(),
        host_cpus
    );

    let mut scale = Vec::new();
    let (base_secs, base_events) = time_rack(&cfg, 1, reps);
    for threads in [1usize, 2, 4, 8] {
        let (secs, events) = if threads == 1 {
            (base_secs, base_events)
        } else {
            time_rack(&cfg, threads, reps)
        };
        assert_eq!(events, base_events, "event count must not drift");
        let eps = events as f64 / secs;
        eprintln!(
            "  {threads} threads: {secs:.3}s, {eps:.0} events/sec (speedup {:.2}x)",
            base_secs / secs
        );
        scale.push(object([
            ("threads", Value::UInt(threads as u64)),
            ("wall_clock_secs", Value::Float(secs)),
            ("events", Value::UInt(events)),
            ("events_per_sec", Value::Float(eps)),
            ("speedup_vs_1thread", Value::Float(base_secs / secs)),
        ]));
    }

    let ((base_secs_e, base_events_e), (prof_secs, prof_events)) = time_emulated_rack(&cfg, reps);
    eprintln!(
        "  emulated_rack: baseline {:.0} events/sec, profiled {:.0} events/sec ({:.1}% overhead)",
        base_events_e as f64 / base_secs_e,
        prof_events as f64 / prof_secs,
        (prof_secs / base_secs_e - 1.0) * 100.0
    );

    let (batched, records) = time_ingest(reps);
    eprintln!("  ingest_1m: batched {:.0} rec/s", records as f64 / batched);

    let iters = if fast { 20_000 } else { 2_000_000 };
    let (interp, jit) = time_tiers(iters);
    eprintln!(
        "  jit_vs_interp: jit {jit:.0}/s vs interp {interp:.0}/s ({:.2}x)",
        jit / interp
    );

    let doc = object([
        ("host_cpus", Value::UInt(host_cpus as u64)),
        ("fast_mode", Value::Bool(fast)),
        (
            "sim_scale",
            object([
                ("scenario", Value::String("datacenter_rack".into())),
                ("hosts", Value::UInt(cfg.hosts as u64)),
                ("vms_per_host", Value::UInt(cfg.vms_per_host as u64)),
                ("concurrent_flows", Value::UInt(cfg.concurrent_flows())),
                ("total_packets", Value::UInt(cfg.total_packets())),
                (
                    "note",
                    Value::String(
                        "speedup_vs_1thread only reflects parallel capacity when \
                         host_cpus covers the thread count; on fewer cores the \
                         barrier-synchronized shards serialize and the overhead \
                         dominates."
                            .into(),
                    ),
                ),
                ("runs", Value::Array(scale)),
            ]),
        ),
        (
            "emulated_rack",
            object([
                (
                    "profile",
                    Value::String("leo-handover on every host uplink".into()),
                ),
                ("baseline_events", Value::UInt(base_events_e)),
                (
                    "baseline_events_per_sec",
                    Value::Float(base_events_e as f64 / base_secs_e),
                ),
                ("profiled_events", Value::UInt(prof_events)),
                (
                    "profiled_events_per_sec",
                    Value::Float(prof_events as f64 / prof_secs),
                ),
                (
                    "overhead_pct",
                    Value::Float((prof_secs / base_secs_e - 1.0) * 100.0),
                ),
            ]),
        ),
        (
            "ingest_1m",
            object([
                ("records", Value::UInt(records)),
                (
                    "batched_records_per_sec",
                    Value::Float(records as f64 / batched),
                ),
            ]),
        ),
        (
            "jit_vs_interp",
            object([
                ("program", Value::String("match_and_record".into())),
                ("iterations", Value::UInt(iters)),
                ("jit_execs_per_sec", Value::Float(jit)),
                ("interp_execs_per_sec", Value::Float(interp)),
                ("jit_speedup", Value::Float(jit / interp)),
            ]),
        ),
    ]);
    std::fs::write(&out, serde_json::to_string_pretty(&doc).unwrap() + "\n").unwrap();
    eprintln!("wrote {out}");
}
