//! A SystemTap-style tracer cost model.
//!
//! The paper's Fig. 7(b) comparison attaches a SystemTap script at
//! `tcp_recvmsg` (run with `STP_NO_OVERLOAD`) and measures ~10% Netperf
//! throughput loss on a 1 GbE network and 26.5% on 10 GbE, attributing it
//! to "the frequency of traces and the continual data copies between the
//! kernel space and user space" (§IV-B).
//!
//! This probe reproduces that cost structure instead of the eBPF one:
//! every firing pays a kprobe trap + SystemTap runtime handler cost plus
//! a per-byte relay copy toward user space — orders of magnitude more
//! than a JIT-compiled eBPF program's in-kernel map write. The cost is
//! calibrated so the Fig. 7(b) crossover reproduces (see
//! `EXPERIMENTS.md`).

use vnet_sim::probe::{ProbeEvent, ProbeOutcome, ProbeSink};
use vnet_sim::time::SimDuration;

/// What one SystemTap firing costs: a kprobe int3 trap plus the SystemTap
/// runtime's entry and exit (2 600 ns), then a relay-channel copy of the
/// 64-byte record toward user space at 16 ns per byte.
///
/// Calibration: 2600 + 64*16 = 3624 ns per event — the value that
/// reproduces the paper's ~10% (1G) / 26.5% (10G) Netperf losses against
/// a 10 µs receive-stack service time.
pub const EVENT_COST: SimDuration = SimDuration::from_nanos(2_600 + 64 * 16);

/// A [`ProbeSink`] charging SystemTap-scale costs per firing.
#[derive(Debug, Default)]
pub struct SystemTapProbe;

impl SystemTapProbe {
    /// Creates a probe with the calibrated cost.
    pub fn new() -> Self {
        SystemTapProbe
    }
}

impl ProbeSink for SystemTapProbe {
    fn handle(&mut self, _event: &ProbeEvent<'_>) -> ProbeOutcome {
        ProbeOutcome::with_cost(EVENT_COST)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_sim::ids::{CpuId, NodeId};
    use vnet_sim::probe::Direction;

    #[test]
    fn every_firing_costs_the_calibrated_3624_ns() {
        let ev = ProbeEvent {
            node: NodeId(0),
            cpu: CpuId(0),
            device: None,
            direction: Direction::Rx,
            packet: None,
            monotonic_ns: 0,
            aux: 0,
        };
        let out = SystemTapProbe::new().handle(&ev);
        assert_eq!(out.cost.as_nanos(), 3_624);
    }
}
