//! The allocation census as a fence. Once a run has reached its working
//! size, a delivered packet costs at most two heap allocations: the payload the
//! application builds and the frame `PacketBuilder::build` writes from it.
//! Everything else on the packet path — encapsulation, trailers, the
//! event queue, the application's action list — reuses memory it already
//! holds.
//!
//! This is its own test binary because it installs a counting global
//! allocator. The counts are per thread, so nothing the test harness does
//! on its other threads lands in them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use vnet_workloads::datacenter_rack::{RackConfig, RackScenario};

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
