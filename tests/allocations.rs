//! The allocation census as a fence. Once a run has reached its working
//! size, a delivered packet costs at most two heap allocations: the payload the
//! application builds and the frame `PacketBuilder::build` writes from it.
//! Everything else on the packet path — encapsulation, trailers, the
//! event queue, the application's action list — reuses memory it already
//! holds.
//!
//! The tracing path is fenced the same way, with no allowance: once a
//! perf ring has grown to the records it holds between drains, a probe
//! firing that emits a record allocates nothing, and neither does a
//! collection cycle that finds the rings empty.
//!
//! An attached script is fenced by the bytes it keeps: the program it
//! runs, its maps and its bookkeeping, not the verifier's state that
//! admitted it. Loading one is fenced by its allocation count, and by
//! how that count grows with the program's length: the loader's walk
//! records no register state per instruction and keeps reusing its
//! pending-state buffers. A deploy walks each distinct program once,
//! and a load that reuses an earlier walk makes a fixed handful of
//! allocations.
//!
//! The store's seal is fenced by bytes rather than calls: sealing a
//! table holds the one block it is encoding, not a transposed copy of
//! the whole table.
//!
//! A walk over sealed blocks is fenced by its allocation count too: it
//! reuses its block buffers, so a long walk allocates what a short one
//! does.
//!
//! This is its own test binary because it installs a counting global
//! allocator. The counts are per thread, so nothing the test harness does
//! on its other threads lands in them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::{Ipv4Addr, SocketAddrV4};
use vnettracer::VNetTracer;

use vnet_ebpf::asm::{reg::R0, Asm};
use vnet_ebpf::context::TraceContext;
use vnet_ebpf::map::{MapDef, MapRegistry};
use vnet_ebpf::program::{load, Loader, Program};
use vnet_ebpf::vm::{standard_helpers, FixedEnv};
use vnet_ebpf::MAX_INSNS;
use vnet_sim::device::{DeviceConfig, Forwarding};
use vnet_sim::node::NodeClock;
use vnet_sim::packet::{FlowKey, PacketBuilder, SocketAddrV4Ext};
use vnet_sim::time::SimDuration;
use vnet_sim::world::World;
use vnet_testbed::rack::RackTestbed;
use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
use vnet_testbed::Testbed;
use vnet_tsdb::segment::ALL_COLUMNS;
use vnet_tsdb::{CompactRecord, Query, RecordBatch, Rows, StoreOptions, TraceDb};
use vnet_workloads::datacenter_rack::{RackConfig, RackScenario};
use vnettracer::config::Proto;
use vnettracer::{Action, Agent, FilterRule, GlobalConfig, HookSpec, TraceSpec};

thread_local! {
    /// Allocations and reallocations made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread has allocated less the bytes it has freed (a
    /// block freed on another thread than the one that allocated it moves
    /// its bytes between the two threads' counts).
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE_BYTES` has held since the last [`reset_peak`].
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// Counts one call that hands out a block and moves this thread's live
/// bytes by `delta`.
fn count(delta: i64) {
    // `try_with`: the allocator may run while the thread-locals are being
    // torn down, and must not panic then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    resize(delta);
}

/// Moves this thread's live bytes by `delta`, raising the peak with it.
fn resize(delta: i64) {
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn live_bytes() -> i64 {
    LIVE_BYTES.with(Cell::get)
}

/// This thread's live heap bytes; starts a new peak there.
fn reset_peak() -> i64 {
    let live = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(live));
    live
}

fn peak_bytes() -> i64 {
    PEAK_BYTES.with(Cell::get)
}

/// `System`, counting every call that hands out a block.
struct Counting;

// SAFETY: every method passes its arguments unchanged to the same method
// of `System` and returns its result, so this allocator keeps exactly
// `System`'s guarantees. Counting touches thread-local `Cell`s with
// `const` initializers and no destructors, which neither allocate nor
// unwind.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        resize(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: the caller meets `GlobalAlloc::realloc`'s contract, and
        // `ptr` came from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `cfg`'s rack and returns the allocations the run made and the
/// packets it delivered.
fn census(cfg: &RackConfig) -> (u64, u64) {
    let mut rack = RackScenario::build(cfg);
    let before = allocations();
    rack.run(cfg);
    let made = allocations() - before;
    let delivered = rack.delivered_packets();
    assert_eq!(delivered, cfg.total_packets());
    (made, delivered)
}

/// A run also allocates once while the event queue's slot table and
/// heaps, the device queues and the world's action list grow to their
/// working size. Both racks send at the same rate, so they reach the
/// same working size: the longer run's extra allocations are the extra
/// packets' alone.
#[test]
fn a_delivered_packet_costs_two_allocations() {
    let short = RackConfig::small();
    let long = RackConfig {
        packets_per_app: 2 * short.packets_per_app,
        ..RackConfig::small()
    };
    let (short_made, short_delivered) = census(&short);
    let (long_made, long_delivered) = census(&long);
    let (made, delivered) = (long_made - short_made, long_delivered - short_delivered);
    assert!(
        made <= 2 * delivered,
        "{made} allocations for {delivered} more delivered packets: more than 2 per packet"
    );
}

/// Executions between whole drains in [`a_recorded_firing_allocates_nothing`].
const FIRINGS_PER_DRAIN: u64 = 100;

/// A record program as the trace compiler emits it, run through the
/// threaded tier: each execution copies its 32-byte record from the
/// stack into the current CPU's ring, and every hundredth the ring is
/// drained whole. The first cycle grows the ring to a hundred records;
/// every cycle after it allocates nothing.
#[test]
fn a_recorded_firing_allocates_nothing() {
    let mut maps = MapRegistry::new();
    let perf_fd = maps.create(MapDef::perf(64 * 1024), 4).unwrap();
    let spec = TraceSpec {
        name: "rx".into(),
        node: "n".into(),
        hook: HookSpec::DeviceRx("eth0".into()),
        filter: FilterRule::any(),
        action: Action::RecordPacketInfo,
    };
    let (prog, _) = vnettracer::compile::compile(&spec, Some(perf_fd), None).unwrap();
    let loaded = load(prog, &maps, &standard_helpers()).unwrap();
    let compiled = vnet_ebpf::jit::compile(&loaded);
    let flow = FlowKey::udp(
        SocketAddrV4::sock("10.0.0.1", 9000),
        SocketAddrV4::sock("10.0.0.2", 7),
    );
    let pkt = PacketBuilder::udp(flow, vec![7u8; 56]).build();
    let ctx = TraceContext {
        pkt_len: pkt.len() as u32,
        cpu: 1,
        ..TraceContext::default()
    };
    let mut env = FixedEnv {
        cpu: 1,
        ..FixedEnv::default()
    };
    let mut cycle = |maps: &mut MapRegistry| {
        let before = allocations();
        for _ in 0..FIRINGS_PER_DRAIN {
            let out = compiled.execute(&ctx, pkt.bytes(), maps, &mut env).unwrap();
            assert_eq!(out.ret, 1, "the record path ran");
        }
        let ring = maps.get_mut(perf_fd).unwrap();
        assert_eq!(ring.perf_drain_with(1, |_| {}), FIRINGS_PER_DRAIN as usize);
        allocations() - before
    };
    cycle(&mut maps);
    for n in 1..=10 {
        let made = cycle(&mut maps);
        assert_eq!(
            made, 0,
            "cycle {n}: {made} allocations for {FIRINGS_PER_DRAIN} recorded firings"
        );
    }
}

/// A compiled one-flow record script fires on a thousand frames of
/// another flow, one delivery at a time: each is a miss its check table
/// decides (the source address differs), and after one warm-up delivery
/// the thousand firings, with the deliveries around them, allocate
/// nothing.
#[test]
fn a_missed_firing_allocates_nothing() {
    let mut world = World::new(7);
    let node = world.add_node("n", 2, NodeClock::perfect());
    let dev = world.add_device(DeviceConfig::new("eth0", node).forwarding(Forwarding::Deliver));
    let mut agent = Agent::new(node, "n", 2);
    let spec = TraceSpec {
        name: "rx".into(),
        node: "n".into(),
        hook: HookSpec::DeviceRx("eth0".into()),
        filter: FilterRule::udp_flow(
            (Ipv4Addr::new(10, 0, 0, 1), 9000),
            (Ipv4Addr::new(10, 0, 0, 2), 7),
        ),
        action: Action::RecordPacketInfo,
    };
    let id = agent
        .install(&mut world, &spec, &GlobalConfig::default())
        .unwrap();
    let other = FlowKey::udp(
        SocketAddrV4::sock("10.0.0.9", 9000),
        SocketAddrV4::sock("10.0.0.2", 7),
    );
    let mut frames: Vec<_> = (0..1_001)
        .map(|_| PacketBuilder::udp(other, vec![7u8; 56]).build())
        .collect();
    let deliver = |world: &mut World, frame| {
        world.inject(dev, frame);
        let next = world.now() + SimDuration::from_millis(1);
        world.run_until(next);
    };
    deliver(&mut world, frames.pop().unwrap());
    let before = allocations();
    for frame in frames {
        deliver(&mut world, frame);
    }
    let made = allocations() - before;
    let stats = agent.stats(id).unwrap();
    assert_eq!((stats.executions, stats.matched), (1_001, 0));
    assert_eq!(made, 0, "{made} allocations for 1 000 missed firings");
}

/// Heap allocations one `load` of a compiled one-flow record program
/// may make. The 258-slot TCP flow recorder, which carries the unrolled
/// TCP option scan, makes 39: the walk's per-program tables (the lddw
/// map, the live masks, the pending-state slots and a handful of reused
/// buffers, the reachability bits), the certificate's rows, the error
/// lists, and the loader's copy of the stream and its table. The
/// 70-slot UDP flow recorder, without the scan, makes 14.
/// The loader's walk records no register state; when it joined
/// one into a box per reachable instruction, a load made 294. A walk that
/// grew a fresh pending-state vector at every instruction, instead of
/// reusing the buffers of instructions already walked, made 1 074.
const LOAD_ALLOCATIONS: u64 = 48;

/// How many more allocations a load of a [`MAX_INSNS`]-slot program may
/// make than one of the TCP flow record program.
const LOAD_GROWTH: u64 = 4;

/// The compiled one-flow record script for `protocol` writing to
/// `perf_fd`, and its slot count: 258 for TCP, whose trace ID the
/// program scans the options for, and 70 for UDP, which reads it from
/// the datagram's trailer and carries no scan.
fn record_program(perf_fd: i32, protocol: Proto) -> Program {
    let spec = TraceSpec {
        name: "rx".into(),
        node: "n".into(),
        hook: HookSpec::DeviceRx("eth0".into()),
        filter: FilterRule {
            protocol: Some(protocol),
            ..FilterRule::udp_flow(
                (Ipv4Addr::new(10, 0, 0, 1), 9000),
                (Ipv4Addr::new(10, 0, 0, 2), 7),
            )
        },
        action: Action::RecordPacketInfo,
    };
    let (prog, _) = vnettracer::compile::compile(&spec, Some(perf_fd), None).unwrap();
    let slots = match protocol {
        Proto::Tcp => 258,
        Proto::Udp => 70,
    };
    assert_eq!(prog.insns.len(), slots, "{protocol:?}");
    prog
}

/// Allocations made by one successful `load` of `prog`.
fn load_allocations(prog: Program, maps: &MapRegistry) -> u64 {
    let helpers = standard_helpers();
    let before = allocations();
    load(prog, maps, &helpers).unwrap();
    allocations() - before
}

/// Loading a compiled one-flow record script — verify, certify,
/// relocate — makes at most [`LOAD_ALLOCATIONS`] heap allocations, with
/// the TCP option scan and without it.
#[test]
fn a_load_allocates_a_bounded_number_of_times() {
    let mut maps = MapRegistry::new();
    let perf_fd = maps.create(MapDef::perf(64 * 1024), 4).unwrap();
    for protocol in [Proto::Tcp, Proto::Udp] {
        let made = load_allocations(record_program(perf_fd, protocol), &maps);
        assert!(
            made <= LOAD_ALLOCATIONS,
            "{protocol:?}: {made} allocations in one load, more than {LOAD_ALLOCATIONS}"
        );
    }
}

/// A load's allocation count does not grow with the program: loading
/// the longest program the verifier admits, every slot reachable, makes
/// at most [`LOAD_GROWTH`] more than loading the TCP record script. A
/// record kept per instruction would add thousands.
#[test]
fn a_load_allocates_the_same_for_a_longer_program() {
    let mut maps = MapRegistry::new();
    let perf_fd = maps.create(MapDef::perf(64 * 1024), 4).unwrap();
    let short = load_allocations(record_program(perf_fd, Proto::Tcp), &maps);
    let mut asm = Asm::new();
    for i in 0..MAX_INSNS - 1 {
        asm = asm.mov64_imm(R0, i as i32);
    }
    let long = asm.exit().build().unwrap();
    assert_eq!(long.len(), MAX_INSNS);
    let long = load_allocations(Program::new("long", long), &maps);
    assert!(
        long <= short + LOAD_GROWTH,
        "{long} allocations to load {MAX_INSNS} slots, {short} for 258"
    );
}

/// Heap allocations a load may make when its [`Loader`] has accepted
/// the same stream before: the certificate's two rows, and no walk.
const HIT_ALLOCATIONS: u64 = 2;

/// Deploying the default package of a rack of 8 hosts × 4 VMs (the
/// shape `rack_traced` traces), the same match-all record script on each
/// of its 40 bridges and VM ports, runs the verifier's walk once: the
/// first script's load walks it, and the other 39 are admitted on that
/// verdict (`verified_insns` 0).
#[test]
fn a_deploy_walks_each_distinct_program_once() {
    let mut tb = RackTestbed::build(&RackConfig {
        hosts: 8,
        vms_per_host: 4,
        ..RackConfig::small()
    });
    let pkg = tb.control_package();
    let mut tracer = VNetTracer::for_world(&tb.scenario.world, TraceDb::new());
    let deployed = tracer.deploy(tb.world(), &pkg).unwrap();
    assert_eq!(deployed.len(), 40);
    let walked: Vec<_> = tracer
        .run_stats()
        .iter()
        .map(|s| s.stats.verified_insns)
        .filter(|&n| n > 0)
        .collect();
    assert_eq!(walked.len(), 1, "walks in one deploy: {walked:?}");
}

/// Loading the rack's match-all record script 40 times through one
/// [`Loader`], as a deploy of its default package does: the first load
/// makes at most [`LOAD_ALLOCATIONS`], and each of the other 39 at most
/// [`HIT_ALLOCATIONS`].
#[test]
fn a_repeated_load_allocates_a_fixed_handful() {
    let mut maps = MapRegistry::new();
    let perf_fd = maps.create(MapDef::perf(64 * 1024), 4).unwrap();
    let spec = TraceSpec {
        name: "rx".into(),
        node: "n".into(),
        hook: HookSpec::DeviceRx("eth0".into()),
        filter: FilterRule::any(),
        action: Action::RecordPacketInfo,
    };
    let (prog, _) = vnettracer::compile::compile(&spec, Some(perf_fd), None).unwrap();
    let helpers = standard_helpers();
    let mut loader = Loader::new(&helpers);
    for n in 0..40 {
        let prog = prog.clone();
        let before = allocations();
        let loaded = loader.load(prog, &maps).unwrap();
        let made = allocations() - before;
        let bound = if n == 0 {
            LOAD_ALLOCATIONS
        } else {
            HIT_ALLOCATIONS
        };
        assert!(
            made <= bound,
            "load {n}: {made} allocations, more than {bound}"
        );
        assert_eq!(loaded.verified_insns() > 0, n == 0, "load {n}");
    }
}

/// The two-host testbed's four scripts traced and collected; then, with
/// nothing new in the rings, one more collection cycle — every agent
/// drains every ring of every script, heartbeats and reports its losses
/// — allocates nothing. Records, when there are some, add only the
/// store's amortized growth.
#[test]
fn a_warm_collect_allocates_nothing() {
    let cfg = TwoHostConfig {
        messages: 50,
        ..TwoHostConfig::default()
    };
    let mut s = TwoHostScenario::build(&cfg);
    let pkg = s.control_package();
    let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
    tracer.deploy(&mut s.world, &pkg).unwrap();
    s.run(&cfg);
    assert!(tracer.collect(&s.world) > 0, "the run was traced");
    assert_eq!(tracer.collect(&s.world), 0, "the rings were drained");
    let before = allocations();
    let collected = tracer.collect(&s.world);
    let made = allocations() - before;
    assert_eq!(collected, 0);
    assert_eq!(made, 0, "{made} allocations in a collect with empty rings");
}

/// Deploying the two-host testbed's control package leaves under 16 KiB
/// of live heap per script: each keeps its threaded code, its maps and
/// its agent's bookkeeping. The verifier's walk (its pending states and
/// reachability bits) is freed when the load returns, and so is the
/// relocated instruction stream the threaded code was lowered from.
#[test]
fn an_attached_script_keeps_only_what_it_runs() {
    let cfg = TwoHostConfig::default();
    let mut s = TwoHostScenario::build(&cfg);
    let pkg = s.control_package();
    let mut tracer = VNetTracer::for_world(&s.world, TraceDb::new());
    let before = live_bytes();
    let deployed = tracer.deploy(&mut s.world, &pkg).unwrap();
    let per_script = (live_bytes() - before) / deployed.len() as i64;
    assert_eq!(deployed.len(), pkg.traces.len());
    assert!(
        per_script < 16 * 1024,
        "{per_script} bytes kept per attached script"
    );
}

/// Rows of the table [`sealing_a_table_holds_one_block_not_the_table`]
/// seals: what the `store_sweep` benchmark's store seals at a time.
const SEAL_ROWS: u64 = 128 * 1024;

/// Sealing a 128 Ki-row table into a segment raises the sealing thread's
/// live heap by less than 1 MiB over what it held just before. A seal
/// that transposed the whole table into its twelve column lanes before
/// writing a block would hold 12 MiB of them; one that streams holds the
/// open 2 048-row block (twelve 16 KiB lanes), its encoded bytes and the
/// block index.
#[test]
fn sealing_a_table_holds_one_block_not_the_table() {
    let dir = std::env::temp_dir().join(format!("vnt-alloc-seal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = StoreOptions {
        seal_threshold: usize::MAX,
        fsync: false,
        ..StoreOptions::default()
    };
    let mut db = TraceDb::open_with(&dir, options).unwrap();
    let mut batch = RecordBatch::new();
    for i in 0..SEAL_ROWS {
        let record = CompactRecord {
            timestamp_ns: i * 1_000,
            trace_id: i as u32,
            pkt_len: 64 + (i % 1400) as u32,
            sport: 9_000 + (i % 64) as u16,
            flags: 1,
            ..CompactRecord::default()
        };
        batch.push(
            "tp0",
            ["vm1", "vm2", "vm3", "vm4"][(i % 4) as usize],
            record,
        );
    }
    db.insert_batch(&batch);
    drop(batch);
    let before = reset_peak();
    db.flush().unwrap();
    let grew = peak_bytes() - before;
    assert_eq!(db.storage_stats().unwrap().sealed_records, SEAL_ROWS);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        grew < 1 << 20,
        "sealing {SEAL_ROWS} rows raised the live heap by {grew} bytes"
    );
}

/// Rows per segment block (`segment::BLOCK_ROWS`).
const BLOCK_ROWS: u64 = 2_048;

/// A cold walk allocates on the calling thread what a walk of eight
/// blocks does, whatever its length: it reuses a few block buffers (its
/// own and the decode helper's) for every block, rather than allocating
/// a block and a row list per block. The 128-block table is sealed,
/// flushed and reopened, and both walks project every column.
#[test]
fn a_walk_reuses_its_block_buffers() {
    let dir = std::env::temp_dir().join(format!("vnt-alloc-walk-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = StoreOptions {
        seal_threshold: usize::MAX,
        fsync: false,
        ..StoreOptions::default()
    };
    let mut db = TraceDb::open_with(&dir, options.clone()).unwrap();
    let mut batch = RecordBatch::new();
    for i in 0..128 * BLOCK_ROWS {
        let mix = i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let record = CompactRecord {
            timestamp_ns: i * 1_000,
            trace_id: (mix >> 32) as u32,
            pkt_len: 64 + (i % 1400) as u32,
            saddr: mix as u32,
            flags: 1,
            ..CompactRecord::default()
        };
        batch.push("tp0", ["vm1", "vm2"][(i % 2) as usize], record);
    }
    db.insert_batch(&batch);
    drop(batch);
    db.flush().unwrap();
    drop(db);
    let db = TraceDb::open_with(&dir, options).unwrap();
    let walk = |blocks: u64| {
        let q = Query::new("tp0").time_range(0, (blocks * BLOCK_ROWS - 1) * 1_000);
        let mut rows = 0;
        let before = allocations();
        let stats = q
            .walk(&db, &ALL_COLUMNS, |step| {
                if let Rows::Sealed { matched, .. } = step {
                    rows += matched.len() as u64;
                }
                Ok(())
            })
            .unwrap();
        let made = allocations() - before;
        assert_eq!((stats.blocks_scanned, rows), (blocks, blocks * BLOCK_ROWS));
        made
    };
    let (short, long) = (walk(8), walk(128));
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        long <= short + 8,
        "a 128-block walk made {long} allocations, an 8-block walk {short}"
    );
}
