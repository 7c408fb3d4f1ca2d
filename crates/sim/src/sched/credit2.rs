//! The Xen credit2 scheduler.

use crate::ids::{CpuId, VcpuId};
use crate::time::{SimDuration, SimTime};

use super::pcpu::{Flavor, SchedCore};
use super::HyperScheduler;

/// Xen's second-generation credit scheduler, designed for fairness,
/// responsiveness and scalability.
///
/// As the paper observes when diagnosing Case Study II, credit2 removed the
/// OVER/UNDER/BOOST priority bands of credit1 — "all the vCPUs were just
/// ordered by their credit". A woken I/O vCPU always has more credit than a
/// CPU-hog, so scheduling *order* is never the problem; the context-switch
/// **rate limit** (default 1000 µs) is: the hog may not be preempted until
/// it has run a full rate-limit window, which delays packet delivery by up
/// to that window. Setting the rate limit to zero restores near-baseline
/// latency, the fix the authors reported to the Xen community.
///
/// # Examples
///
/// ```
/// use vnet_sim::sched::{Credit2Scheduler, HyperScheduler};
/// use vnet_sim::time::SimDuration;
///
/// let mut sched = Credit2Scheduler::new();
/// assert_eq!(sched.ratelimit(), SimDuration::from_micros(1000));
/// sched.set_ratelimit(SimDuration::ZERO); // the Case Study II fix
/// ```
#[derive(Debug)]
pub struct Credit2Scheduler {
    core: SchedCore,
}

impl Credit2Scheduler {
    /// Creates a credit2 scheduler with the default 1000 µs rate limit.
    pub fn new() -> Self {
        Credit2Scheduler {
            core: SchedCore::new(Flavor::Credit2),
        }
    }
}

impl Default for Credit2Scheduler {
    fn default() -> Self {
        Self::new()
    }
}

impl HyperScheduler for Credit2Scheduler {
    fn name(&self) -> &str {
        "credit2"
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
    fn sawtooth_delay_pattern_under_periodic_arrivals() {
        // Reproduce the mechanism behind Fig. 11(b): packets arriving every
        // 100 µs while a hog shares the pCPU see scheduling delays that
        // jump to ~1 ms and descend back toward zero.
        let mut s = Credit2Scheduler::new();
        s.add_vcpu(VcpuId(0), CpuId(0), 256, false);
        s.add_vcpu(VcpuId(1), CpuId(0), 256, true);
        let mut delays = Vec::new();
        let mut sleeping = true;
        let mut run_until = SimTime::ZERO;
        for i in 0..40u64 {
            let arrive = SimTime::from_micros(100 * (i + 1));
            if !sleeping && arrive > run_until {
                s.sleep(VcpuId(0), run_until);
                sleeping = true;
                let _ = sleeping;
            }
            let runs = s.run_gate(VcpuId(0), arrive);
            delays.push((runs - arrive).as_micros());
            sleeping = false;
            run_until = runs + SimDuration::from_micros(1);
        }
        let max = *delays.iter().max().unwrap();
        assert!(
            max >= 800,
            "peak delay near the 1000us ratelimit, got {max}"
        );
        // Descending runs: within a burst the delay decreases by ~period.
        let has_descent = delays.windows(2).any(|w| w[0] >= 100 && w[0] - w[1] >= 90);
        assert!(has_descent, "expected sawtooth descent, delays={delays:?}");
        let has_low = delays.iter().any(|&d| d < 100);
        assert!(has_low, "sawtooth must reach near zero, delays={delays:?}");
    }

    #[test]
    fn name_and_default() {
        assert_eq!(Credit2Scheduler::default().name(), "credit2");
    }
}
