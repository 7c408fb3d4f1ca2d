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
//! This is its own test binary because it installs a counting global
//! allocator. The counts are per thread, so nothing the test harness does
//! on its other threads lands in them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::SocketAddrV4;

use vnet_ebpf::context::TraceContext;
use vnet_ebpf::map::{MapDef, MapRegistry};
use vnet_ebpf::program::load;
use vnet_ebpf::vm::{standard_helpers, FixedEnv};
use vnet_sim::packet::{FlowKey, PacketBuilder, SocketAddrV4Ext};
use vnet_testbed::two_host::{TwoHostConfig, TwoHostScenario};
use vnet_workloads::datacenter_rack::{RackConfig, RackScenario};
use vnettracer::{Action, FilterRule, HookSpec, TraceSpec};

thread_local! {
    /// Allocations and reallocations made on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator may run while the thread-local is being
    // torn down, and must not panic then.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// `System`, counting every call that hands out a block.
struct Counting;

// SAFETY: every method passes its arguments unchanged to the same method
// of `System` and returns its result, so this allocator keeps exactly
// `System`'s guarantees. Counting touches one thread-local `Cell` with a
// `const` initializer and no destructor, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller meets `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller meets `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
    let prog = vnettracer::compile::compile(&spec, Some(perf_fd), None).unwrap();
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
    let mut tracer = s.make_tracer();
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
