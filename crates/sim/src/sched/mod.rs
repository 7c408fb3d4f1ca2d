//! Hypervisor vCPU schedulers.
//!
//! Case Study II of the paper traces a long-tail-latency problem to the
//! *context-switch rate limit* of Xen's credit schedulers: a woken
//! I/O-bound vCPU, even with higher credit, may not preempt the running
//! CPU-bound vCPU until that vCPU has run for `ratelimit_us` (1000 µs by
//! default). This module implements both generations of the scheduler —
//! [`credit::CreditScheduler`] (credit1, with BOOST priority) and
//! [`credit2::Credit2Scheduler`] (ordered purely by credit) — faithfully
//! enough to reproduce the sawtooth scheduling delay of Fig. 11(b) and its
//! disappearance when the rate limit is set to zero (Fig. 10).

pub mod credit;
pub mod credit2;
mod pcpu;

pub use credit::CreditScheduler;
pub use credit2::Credit2Scheduler;
pub use pcpu::{PcpuState, VcpuState};

use crate::ids::{CpuId, VcpuId};
use crate::time::{SimDuration, SimTime};

/// Default Xen context-switch rate limit (1000 µs), introduced in Xen 4.2.
pub const DEFAULT_RATELIMIT: SimDuration = SimDuration::from_micros(1000);

/// Default cost of a vCPU context switch charged on every switch.
pub const DEFAULT_CONTEXT_SWITCH_COST: SimDuration = SimDuration::from_nanos(1_500);

/// A hypervisor scheduler multiplexing vCPUs onto physical CPUs.
///
/// The simulator calls [`HyperScheduler::wake`] when work (a packet)
/// arrives for a sleeping vCPU and [`HyperScheduler::sleep`] when the vCPU
/// runs out of work; the returned instants gate when vCPU-bound devices may
/// start serving packets.
pub trait HyperScheduler {
    /// The scheduler's name (`"credit"` or `"credit2"`).
    fn name(&self) -> &str;

    /// Registers a vCPU pinned to `pcpu` with the given scheduling weight.
    /// `always_runnable` marks CPU-hog vCPUs that never sleep.
    fn add_vcpu(&mut self, vcpu: VcpuId, pcpu: CpuId, weight: u32, always_runnable: bool);

    /// Reports that `vcpu` has work as of `now`; returns the instant it
    /// will actually be running on its pCPU.
    fn wake(&mut self, vcpu: VcpuId, now: SimTime) -> SimTime;

    /// Reports that `vcpu` has no more work as of `now`.
    fn sleep(&mut self, vcpu: VcpuId, now: SimTime);

    /// The instant at which `vcpu` can process work arriving at `now`
    /// (equals `now` if it is already running).
    fn run_gate(&mut self, vcpu: VcpuId, now: SimTime) -> SimTime;

    /// The configured context-switch rate limit.
    fn ratelimit(&self) -> SimDuration;

    /// Reconfigures the context-switch rate limit (the tuning knob of Case
    /// Study II; `SimDuration::ZERO` disables it).
    fn set_ratelimit(&mut self, ratelimit: SimDuration);

    /// Number of vCPU context switches performed so far.
    fn context_switches(&self) -> u64;

    /// Current credit of `vcpu`, if known. Exposed so trace scripts can
    /// observe scheduler state, as the authors did when diagnosing Case
    /// Study II ("we traced vCPU credit").
    fn credit_of(&self, vcpu: VcpuId) -> Option<i64>;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(mut s: Box<dyn HyperScheduler>) {
        let io = VcpuId(0);
        let hog = VcpuId(1);
        s.add_vcpu(io, CpuId(0), 256, false);
        s.add_vcpu(hog, CpuId(0), 256, true);

        // Hog owns the CPU from t=0. A wake at 100us is deferred by the
        // ratelimit (until 1000us) plus the context-switch cost.
        let t = s.wake(io, SimTime::from_micros(100));
        assert_eq!(
            t,
            SimTime::from_micros(1000) + DEFAULT_CONTEXT_SWITCH_COST,
            "wake deferred to end of ratelimit window"
        );
        s.sleep(io, t + SimDuration::from_micros(5));

        // Second cycle: the hog restarted (one switch cost after the io
        // vCPU slept); the next wake is deferred by a fresh ratelimit.
        let restart = t + SimDuration::from_micros(5) + DEFAULT_CONTEXT_SWITCH_COST;
        let t2 = s.wake(io, restart + SimDuration::from_micros(10));
        assert_eq!(
            t2,
            restart + DEFAULT_RATELIMIT + DEFAULT_CONTEXT_SWITCH_COST
        );
        s.sleep(io, t2);

        // Disable the rate limit: wake is immediate (modulo switch cost).
        s.set_ratelimit(SimDuration::ZERO);
        let restart2 = t2 + DEFAULT_CONTEXT_SWITCH_COST;
        let t3 = s.wake(io, restart2 + SimDuration::from_micros(10));
        assert_eq!(
            t3,
            restart2 + SimDuration::from_micros(10) + DEFAULT_CONTEXT_SWITCH_COST
        );
        assert!(s.context_switches() >= 3);
    }

    #[test]
    fn credit2_ratelimit_defers_wakeups() {
        exercise(Box::new(Credit2Scheduler::new()));
    }

    #[test]
    fn credit1_ratelimit_defers_wakeups() {
        // The paper notes the same issue (and fix) applies to credit1.
        exercise(Box::new(CreditScheduler::new()));
    }
}
