//! The per-CPU softirq processing model (Case Study III substrate).
//!
//! On real Linux, packet reception is completed in `NET_RX` softirq
//! context: the NIC's hardware interrupt raises a softirq on one CPU, and
//! `net_rx_action` (or `ksoftirqd` under load) drains the per-CPU backlog.
//! Two properties of this design drive the container-overlay bottleneck
//! the paper diagnoses:
//!
//! 1. **Serialization** — every softirq-gated device on a CPU shares that
//!    CPU's single softirq server, so per-packet costs add up serially.
//! 2. **Concentration** — softirqs from one interrupt source stay on one
//!    core (cache locality), and RPS cannot spread a single connection
//!    because its five-tuple hashes to one CPU.
//!
//! The overlay data path traverses several softirq-processed layers per
//! packet (bridge, veth, VXLAN, backlog re-injection), multiplying the
//! number of `net_rx_action` executions (the paper measures 4.54× the VM
//! rate) while concentration pins them to few CPUs.

use std::collections::VecDeque;

use crate::ids::{CpuId, DeviceId};

/// Counters for one CPU's softirq activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuSoftirqCounters {
    /// Number of softirq work items processed (≈ `net_rx_action` runs).
    pub net_rx_actions: u64,
    /// Number of `ksoftirqd` wakeups (a sleeping CPU receiving work).
    pub ksoftirqd_wakeups: u64,
}

/// Per-node softirq engine: one FIFO work queue and one server per CPU.
#[derive(Debug)]
pub struct SoftirqEngine {
    queues: Vec<VecDeque<DeviceId>>,
    busy: Vec<bool>,
    counters: Vec<CpuSoftirqCounters>,
}

impl SoftirqEngine {
    /// Creates an engine for a node with `num_cpus` CPUs.
    ///
    /// # Panics
    ///
    /// Panics if `num_cpus` is zero.
    pub fn new(num_cpus: u16) -> Self {
        assert!(num_cpus > 0, "a node needs at least one CPU");
        let n = usize::from(num_cpus);
        SoftirqEngine {
            queues: vec![VecDeque::new(); n],
            busy: vec![false; n],
            counters: vec![CpuSoftirqCounters::default(); n],
        }
    }

    /// Enqueues a work item (a pending packet at `dev`) on `cpu`.
    /// Returns `true` if the CPU was idle with an empty queue — i.e. the
    /// caller must schedule a `SoftirqStart` event (a `ksoftirqd` wakeup);
    /// otherwise the running server will chain to this item.
    pub fn raise(&mut self, cpu: CpuId, dev: DeviceId) -> bool {
        let i = cpu.index() % self.queues.len();
        let needs_start = !self.busy[i] && self.queues[i].is_empty();
        self.queues[i].push_back(dev);
        if needs_start {
            self.counters[i].ksoftirqd_wakeups += 1;
        }
        needs_start
    }

    /// Begins processing on `cpu`: pops the next work item and marks the
    /// CPU busy. Returns the device whose packet should be served, or
    /// `None` if the queue is empty (a stale start event).
    pub fn start(&mut self, cpu: CpuId) -> Option<DeviceId> {
        let i = cpu.index() % self.queues.len();
        if self.busy[i] {
            return None;
        }
        let dev = self.queues[i].pop_front()?;
        self.busy[i] = true;
        self.counters[i].net_rx_actions += 1;
        Some(dev)
    }

    /// Finishes the current item on `cpu`. Returns `true` if more work is
    /// queued (caller should schedule another `SoftirqStart`).
    pub fn finish(&mut self, cpu: CpuId) -> bool {
        let i = cpu.index() % self.queues.len();
        debug_assert!(self.busy[i], "finish without start on {cpu}");
        self.busy[i] = false;
        !self.queues[i].is_empty()
    }

    /// Counters for every CPU, indexed by CPU number.
    pub fn all_counters(&self) -> &[CpuSoftirqCounters] {
        &self.counters
    }

    /// Total `net_rx_action` executions across all CPUs.
    pub fn total_net_rx_actions(&self) -> u64 {
        self.counters.iter().map(|c| c.net_rx_actions).sum()
    }

    /// Fraction of `net_rx_action` executions that ran on the busiest CPU,
    /// the concentration statistic of Fig. 13(a).
    pub fn concentration(&self) -> f64 {
        let total = self.total_net_rx_actions();
        if total == 0 {
            return 0.0;
        }
        let max = self
            .counters
            .iter()
            .map(|c| c.net_rx_actions)
            .max()
            .unwrap_or(0);
        max as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_reports_idle_cpu_once() {
        let mut e = SoftirqEngine::new(4);
        assert!(
            e.raise(CpuId(0), DeviceId(1)),
            "idle CPU needs a start event"
        );
        assert!(
            !e.raise(CpuId(0), DeviceId(2)),
            "queued work, server will chain"
        );
        assert_eq!(e.all_counters()[0].ksoftirqd_wakeups, 1);
    }

    #[test]
    fn start_finish_cycle_drains_fifo() {
        let mut e = SoftirqEngine::new(2);
        e.raise(CpuId(1), DeviceId(10));
        e.raise(CpuId(1), DeviceId(11));
        assert_eq!(e.start(CpuId(1)), Some(DeviceId(10)));
        assert_eq!(e.start(CpuId(1)), None, "busy CPU rejects second start");
        assert!(e.finish(CpuId(1)), "more work queued");
        assert_eq!(e.start(CpuId(1)), Some(DeviceId(11)));
        assert!(!e.finish(CpuId(1)));
        assert_eq!(e.all_counters()[1].net_rx_actions, 2);
    }

    #[test]
    fn concentration_statistic() {
        let mut e = SoftirqEngine::new(4);
        for _ in 0..9 {
            e.raise(CpuId(0), DeviceId(0));
            e.start(CpuId(0));
            e.finish(CpuId(0));
        }
        e.raise(CpuId(3), DeviceId(0));
        e.start(CpuId(3));
        e.finish(CpuId(3));
        assert_eq!(e.total_net_rx_actions(), 10);
        assert!((e.concentration() - 0.9).abs() < 1e-9);
    }

    #[test]
    fn cpu_index_wraps_defensively() {
        let mut e = SoftirqEngine::new(2);
        assert!(e.raise(CpuId(5), DeviceId(0)));
        assert_eq!(e.start(CpuId(5)), Some(DeviceId(0)));
        assert_eq!(e.all_counters()[1].net_rx_actions, 1);
    }

    #[test]
    #[should_panic(expected = "at least one CPU")]
    fn zero_cpus_rejected() {
        let _ = SoftirqEngine::new(0);
    }

    #[test]
    fn empty_engine_concentration_is_zero() {
        assert_eq!(SoftirqEngine::new(4).concentration(), 0.0);
    }
}
