//! Shared per-pCPU scheduling core used by both credit schedulers.
//!
//! The two Xen schedulers differ in how they *order* runnable vCPUs
//! (credit1 uses BOOST/UNDER/OVER priority bands, credit2 orders purely by
//! credit), but the mechanism behind Case Study II — the context-switch
//! rate limit that defers preemption by a freshly woken vCPU — is common to
//! both. This module implements that mechanism once.

use std::collections::HashMap;

use crate::ids::{CpuId, VcpuId};
use crate::time::{SimDuration, SimTime};

use super::{DEFAULT_CONTEXT_SWITCH_COST, DEFAULT_RATELIMIT};

/// Initial credit grant, in credit units (1 unit = 1 ns of weighted run
/// time at the reference weight 256).
const CREDIT_INIT: i64 = 10_000_000;

/// Which scheduler flavour the core is emulating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flavor {
    /// Xen credit1: woken vCPUs receive BOOST priority.
    Credit1,
    /// Xen credit2: vCPUs are ordered purely by credit.
    Credit2,
}

/// Per-vCPU scheduling state.
#[derive(Debug, Clone)]
pub struct VcpuState {
    /// The vCPU id.
    pub vcpu: VcpuId,
    /// Physical CPU this vCPU is pinned to.
    pub pcpu: CpuId,
    /// Scheduling weight (Xen default 256).
    pub weight: u32,
    /// Remaining credit.
    pub credit: i64,
    /// Whether the vCPU never sleeps (a CPU-hog).
    pub always_runnable: bool,
    /// Whether the vCPU is currently asleep (no pending work).
    pub asleep: bool,
    /// credit1 BOOST flag, set on wake while credit remains.
    pub boosted: bool,
    /// Total time this vCPU has spent running.
    pub total_runtime: SimDuration,
}

/// Per-pCPU run state.
#[derive(Debug, Clone)]
pub struct PcpuState {
    /// The physical CPU.
    pub cpu: CpuId,
    /// Currently running vCPU, if any.
    pub running: Option<VcpuId>,
    /// When the current vCPU started running.
    pub running_since: SimTime,
    /// vCPUs that have woken and are waiting for the rate limit to expire,
    /// with the instant each is promised the CPU.
    pub waiting: Vec<(VcpuId, SimTime)>,
}

/// The shared scheduling engine.
#[derive(Debug)]
pub struct SchedCore {
    flavor: Flavor,
    vcpus: HashMap<VcpuId, VcpuState>,
    pcpus: HashMap<CpuId, PcpuState>,
    ratelimit: SimDuration,
    switches: u64,
}

impl SchedCore {
    /// Creates a core for the given flavour with Xen's default rate limit.
    pub fn new(flavor: Flavor) -> Self {
        SchedCore {
            flavor,
            vcpus: HashMap::new(),
            pcpus: HashMap::new(),
            ratelimit: DEFAULT_RATELIMIT,
            switches: 0,
        }
    }

    /// The configured rate limit.
    pub fn ratelimit(&self) -> SimDuration {
        self.ratelimit
    }

    /// Sets the rate limit (zero disables it).
    pub fn set_ratelimit(&mut self, ratelimit: SimDuration) {
        self.ratelimit = ratelimit;
    }

    /// Number of context switches performed.
    pub fn context_switches(&self) -> u64 {
        self.switches
    }

    /// Current credit of `vcpu`.
    pub fn credit_of(&self, vcpu: VcpuId) -> Option<i64> {
        self.vcpus.get(&vcpu).map(|v| v.credit)
    }

    /// Registers a vCPU pinned to `pcpu`.
    ///
    /// # Panics
    ///
    /// Panics if the vCPU was already registered.
    pub fn add_vcpu(&mut self, vcpu: VcpuId, pcpu: CpuId, weight: u32, always_runnable: bool) {
        let state = VcpuState {
            vcpu,
            pcpu,
            weight: weight.max(1),
            credit: CREDIT_INIT,
            always_runnable,
            asleep: !always_runnable,
            boosted: false,
            total_runtime: SimDuration::ZERO,
        };
        assert!(
            self.vcpus.insert(vcpu, state).is_none(),
            "vCPU {vcpu} registered twice"
        );
        let p = self.pcpus.entry(pcpu).or_insert_with(|| PcpuState {
            cpu: pcpu,
            running: None,
            running_since: SimTime::ZERO,
            waiting: Vec::new(),
        });
        if always_runnable && p.running.is_none() {
            p.running = Some(vcpu);
            p.running_since = SimTime::ZERO;
        }
    }

    /// Charges `who` for running during `[from, to)` and updates credits.
    fn burn(&mut self, who: VcpuId, from: SimTime, to: SimTime) {
        if to <= from {
            return;
        }
        let ran = to - from;
        let v = self.vcpus.get_mut(&who).expect("burn for unknown vcpu");
        v.total_runtime += ran;
        // Burn rate scales inversely with weight (reference weight 256).
        v.credit -= (ran.as_nanos() as i64) * 256 / i64::from(v.weight);
        if v.credit <= 0 {
            // Credit reset epoch: replenish everyone on this pCPU, as
            // credit2 does when the next-to-run vCPU would be negative.
            let pcpu = v.pcpu;
            for other in self.vcpus.values_mut() {
                if other.pcpu == pcpu {
                    other.credit += CREDIT_INIT;
                }
            }
        }
    }

    /// Applies any promised switch whose time has arrived.
    fn materialize(&mut self, cpu: CpuId, now: SimTime) {
        loop {
            // Promote the earliest-due waiter whose promise time has
            // passed. Each iteration re-borrows the pCPU entry because
            // `burn` needs exclusive access to the vCPU table.
            let Some(p) = self.pcpus.get_mut(&cpu) else {
                return;
            };
            let Some(pos) = p.waiting.iter().position(|&(_, t)| t <= now) else {
                return;
            };
            let (v, t) = p.waiting.remove(pos);
            let prev = p.running;
            let since = p.running_since;
            p.running = Some(v);
            p.running_since = t;
            self.switches += 1;
            if let Some(prev) = prev {
                self.burn(prev, since, t);
            }
        }
    }

    /// Highest-priority runnable vCPU on `cpu` other than `excluding`.
    fn pick_next(&self, cpu: CpuId, excluding: VcpuId) -> Option<VcpuId> {
        self.vcpus
            .values()
            .filter(|v| v.pcpu == cpu && !v.asleep && v.vcpu != excluding)
            .max_by_key(|v| match self.flavor {
                // credit1: BOOST band outranks credit order.
                Flavor::Credit1 => (v.boosted as i64, v.credit),
                Flavor::Credit2 => (0, v.credit),
            })
            .map(|v| v.vcpu)
    }

    /// Wakes `vcpu` at `now`; returns when it will be running.
    pub fn wake(&mut self, vcpu: VcpuId, now: SimTime) -> SimTime {
        let pcpu = self.vcpus.get(&vcpu).expect("wake of unknown vcpu").pcpu;
        self.materialize(pcpu, now);
        {
            let v = self.vcpus.get_mut(&vcpu).expect("vcpu exists");
            v.asleep = false;
            if self.flavor == Flavor::Credit1 && v.credit > 0 {
                v.boosted = true;
            }
        }
        let p = self.pcpus.get_mut(&pcpu).expect("pcpu exists");
        if p.running == Some(vcpu) {
            return now;
        }
        if let Some(&(_, promised)) = p.waiting.iter().find(|&&(w, _)| w == vcpu) {
            return promised;
        }
        match p.running {
            None => {
                let run_at = now + DEFAULT_CONTEXT_SWITCH_COST;
                p.running = Some(vcpu);
                p.running_since = run_at;
                self.switches += 1;
                run_at
            }
            Some(_current) => {
                // The woken vCPU has higher effective priority (it barely
                // consumes credit; in credit1 it is BOOSTed), so it will
                // preempt — but not before the current vCPU has run for
                // the rate-limit window.
                let earliest = p.running_since + self.ratelimit;
                let run_at = if now >= earliest {
                    now + DEFAULT_CONTEXT_SWITCH_COST
                } else {
                    earliest + DEFAULT_CONTEXT_SWITCH_COST
                };
                p.waiting.push((vcpu, run_at));
                run_at
            }
        }
    }

    /// Puts `vcpu` to sleep at `now` and hands the pCPU to the next
    /// runnable vCPU.
    pub fn sleep(&mut self, vcpu: VcpuId, now: SimTime) {
        let pcpu = self.vcpus.get(&vcpu).expect("sleep of unknown vcpu").pcpu;
        self.materialize(pcpu, now);
        {
            let v = self.vcpus.get_mut(&vcpu).expect("vcpu exists");
            v.asleep = true;
            v.boosted = false;
        }
        let p = self.pcpus.get_mut(&pcpu).expect("pcpu exists");
        p.waiting.retain(|&(w, _)| w != vcpu);
        if p.running == Some(vcpu) {
            let since = p.running_since;
            let next = self.pick_next(pcpu, vcpu);
            let p = self.pcpus.get_mut(&pcpu).expect("pcpu exists");
            p.running = next;
            p.running_since = now + DEFAULT_CONTEXT_SWITCH_COST;
            if next.is_some() {
                self.switches += 1;
            }
            self.burn(vcpu, since, now);
        }
    }

    /// When work arriving at `now` for `vcpu` can be processed.
    pub fn run_gate(&mut self, vcpu: VcpuId, now: SimTime) -> SimTime {
        let pcpu = self.vcpus.get(&vcpu).expect("gate for unknown vcpu").pcpu;
        self.materialize(pcpu, now);
        let p = self.pcpus.get(&pcpu).expect("pcpu exists");
        if p.running == Some(vcpu) {
            return now;
        }
        self.wake(vcpu, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl SchedCore {
        /// Read-only view of a vCPU's state.
        pub(crate) fn vcpu_state(&self, vcpu: VcpuId) -> Option<&VcpuState> {
            self.vcpus.get(&vcpu)
        }
    }

    fn core() -> SchedCore {
        let mut c = SchedCore::new(Flavor::Credit2);
        c.add_vcpu(VcpuId(0), CpuId(0), 256, false); // io
        c.add_vcpu(VcpuId(1), CpuId(0), 256, true); // hog
        c
    }

    #[test]
    fn hog_owns_idle_cpu_from_start() {
        let c = core();
        assert!(!c.vcpu_state(VcpuId(1)).unwrap().asleep);
        assert_eq!(c.pcpus[&CpuId(0)].running, Some(VcpuId(1)));
    }

    #[test]
    fn wake_on_idle_cpu_is_immediate_plus_switch_cost() {
        let mut c = SchedCore::new(Flavor::Credit2);
        c.add_vcpu(VcpuId(0), CpuId(0), 256, false);
        let t = c.wake(VcpuId(0), SimTime::from_micros(50));
        assert_eq!(t, SimTime::from_micros(50) + DEFAULT_CONTEXT_SWITCH_COST);
        assert_eq!(c.context_switches(), 1);
    }

    #[test]
    fn repeated_wake_returns_same_promise() {
        let mut c = core();
        let t1 = c.wake(VcpuId(0), SimTime::from_micros(100));
        let t2 = c.wake(VcpuId(0), SimTime::from_micros(200));
        assert_eq!(t1, t2, "second wake before the promise must not move it");
    }

    #[test]
    fn wake_after_ratelimit_expiry_preempts_immediately() {
        let mut c = core();
        // Hog has been running since t=0; wake at 5 ms > 1 ms ratelimit.
        let t = c.wake(VcpuId(0), SimTime::from_micros(5_000));
        assert_eq!(t, SimTime::from_micros(5_000) + DEFAULT_CONTEXT_SWITCH_COST);
    }

    #[test]
    fn sleep_hands_cpu_back_to_hog() {
        let mut c = core();
        let t = c.wake(VcpuId(0), SimTime::from_micros(100));
        // Promise materializes once time passes.
        c.sleep(VcpuId(0), t + SimDuration::from_micros(3));
        assert_eq!(c.pcpus[&CpuId(0)].running, Some(VcpuId(1)));
        // Next wake is again deferred by a full ratelimit from hog restart.
        let restart = t + SimDuration::from_micros(3) + DEFAULT_CONTEXT_SWITCH_COST;
        let t2 = c.wake(VcpuId(0), restart + SimDuration::from_micros(1));
        assert_eq!(
            t2,
            restart + DEFAULT_RATELIMIT + DEFAULT_CONTEXT_SWITCH_COST
        );
    }

    #[test]
    fn run_gate_is_now_when_running() {
        let mut c = SchedCore::new(Flavor::Credit2);
        c.add_vcpu(VcpuId(0), CpuId(0), 256, false);
        let t = c.wake(VcpuId(0), SimTime::ZERO);
        assert_eq!(
            c.run_gate(VcpuId(0), t + SimDuration::from_micros(1)),
            t + SimDuration::from_micros(1)
        );
    }

    #[test]
    fn io_vcpu_credit_stays_above_hog() {
        let mut c = core();
        let mut now = SimTime::ZERO;
        for _ in 0..50 {
            now += SimDuration::from_micros(1_500);
            let t = c.wake(VcpuId(0), now);
            c.sleep(VcpuId(0), t + SimDuration::from_micros(5));
            now = t + SimDuration::from_micros(5);
        }
        let io = c.credit_of(VcpuId(0)).unwrap();
        let hog = c.credit_of(VcpuId(1)).unwrap();
        assert!(
            io > hog,
            "I/O vCPU must retain more credit (io={io}, hog={hog})"
        );
    }

    #[test]
    fn credit1_boost_flag_set_on_wake() {
        let mut c = SchedCore::new(Flavor::Credit1);
        c.add_vcpu(VcpuId(0), CpuId(0), 256, false);
        c.add_vcpu(VcpuId(1), CpuId(0), 256, true);
        c.wake(VcpuId(0), SimTime::from_micros(10));
        assert!(c.vcpu_state(VcpuId(0)).unwrap().boosted);
        c.sleep(VcpuId(0), SimTime::from_micros(2_000));
        assert!(!c.vcpu_state(VcpuId(0)).unwrap().boosted);
    }

    #[test]
    fn zero_ratelimit_removes_deferral() {
        let mut c = core();
        c.set_ratelimit(SimDuration::ZERO);
        let t = c.wake(VcpuId(0), SimTime::from_micros(100));
        assert_eq!(t, SimTime::from_micros(100) + DEFAULT_CONTEXT_SWITCH_COST);
    }

    #[test]
    fn two_hogs_ordered_by_credit() {
        let mut c = SchedCore::new(Flavor::Credit2);
        c.add_vcpu(VcpuId(0), CpuId(0), 256, false);
        c.add_vcpu(VcpuId(1), CpuId(0), 256, true);
        c.add_vcpu(VcpuId(2), CpuId(0), 256, true);
        // Run the io vcpu briefly so hog 1 burns credit.
        let t = c.wake(VcpuId(0), SimTime::from_micros(2_000));
        c.sleep(VcpuId(0), t + SimDuration::from_micros(10));
        // After hog1 burned credit, pick_next should favour hog2.
        let next = c.pick_next(CpuId(0), VcpuId(0));
        assert_eq!(next, Some(VcpuId(2)));
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_vcpu_rejected() {
        let mut c = SchedCore::new(Flavor::Credit2);
        c.add_vcpu(VcpuId(0), CpuId(0), 256, false);
        c.add_vcpu(VcpuId(0), CpuId(0), 256, false);
    }
}
