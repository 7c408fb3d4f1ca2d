//! The Xen credit1 scheduler.

use crate::ids::{CpuId, VcpuId};
use crate::time::{SimDuration, SimTime};

use super::pcpu::{Flavor, SchedCore};
use super::HyperScheduler;

/// Xen's first-generation credit scheduler.
///
/// Credit1 places woken vCPUs with remaining credit in a BOOST priority
/// band so they preempt lower bands immediately — *except* that since Xen
/// 4.2 the context-switch rate limit still defers the preemption. The paper
/// notes the long-tail-latency issue of Case Study II "also works for the
/// same issue in credit1".
///
/// # Examples
///
/// ```
/// use vnet_sim::sched::{CreditScheduler, HyperScheduler};
/// use vnet_sim::ids::{CpuId, VcpuId};
/// use vnet_sim::time::{SimDuration, SimTime};
///
/// let mut sched = CreditScheduler::new();
/// sched.add_vcpu(VcpuId(0), CpuId(0), 256, false);
/// let runs_at = sched.wake(VcpuId(0), SimTime::ZERO);
/// assert!(runs_at >= SimTime::ZERO);
/// ```
#[derive(Debug)]
pub struct CreditScheduler {
    core: SchedCore,
}

impl CreditScheduler {
    /// Creates a credit1 scheduler with the default 1000 µs rate limit.
    pub fn new() -> Self {
        CreditScheduler {
            core: SchedCore::new(Flavor::Credit1),
        }
    }
}

impl Default for CreditScheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl HyperScheduler for CreditScheduler {
    fn name(&self) -> &str {
        "credit"
    }

    fn add_vcpu(&mut self, vcpu: VcpuId, pcpu: CpuId, weight: u32, always_runnable: bool) {
        self.core.add_vcpu(vcpu, pcpu, weight, always_runnable);
    }

    fn wake(&mut self, vcpu: VcpuId, now: SimTime) -> SimTime {
        self.core.wake(vcpu, now)
    }

    fn sleep(&mut self, vcpu: VcpuId, now: SimTime) {
        self.core.sleep(vcpu, now)
    }

    fn run_gate(&mut self, vcpu: VcpuId, now: SimTime) -> SimTime {
        self.core.run_gate(vcpu, now)
    }

    fn ratelimit(&self) -> SimDuration {
        self.core.ratelimit()
    }

    fn set_ratelimit(&mut self, ratelimit: SimDuration) {
        self.core.set_ratelimit(ratelimit);
    }

    fn context_switches(&self) -> u64 {
        self.core.context_switches()
    }

    fn credit_of(&self, vcpu: VcpuId) -> Option<i64> {
        self.core.credit_of(vcpu)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boost_is_granted_on_wake_and_cleared_on_sleep() {
        let mut s = CreditScheduler::new();
        s.add_vcpu(VcpuId(0), CpuId(0), 256, false);
        s.add_vcpu(VcpuId(1), CpuId(0), 256, true);
        let t = s.wake(VcpuId(0), SimTime::from_micros(10));
        assert!(s.core.vcpu_state(VcpuId(0)).unwrap().boosted);
        s.sleep(VcpuId(0), t);
        assert!(!s.core.vcpu_state(VcpuId(0)).unwrap().boosted);
    }

    #[test]
    fn name_and_default() {
        assert_eq!(CreditScheduler::default().name(), "credit");
    }
}
