//! A zero-cost counting probe: the "no tracing" control arm.
//!
//! Useful to verify that probe *attachment* itself adds nothing — only
//! probe execution cost perturbs the system — and to count events without
//! influencing the experiment.

use vnet_sim::probe::{ProbeEvent, ProbeOutcome, ProbeSink};

/// A probe that counts firings at zero simulated cost.
#[derive(Debug, Default)]
pub struct CountingProbe {
    events: u64,
    bytes: u64,
}

impl CountingProbe {
    /// Creates a counting probe.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of events observed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Total packet bytes observed.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

impl ProbeSink for CountingProbe {
    fn handle(&mut self, event: &ProbeEvent<'_>) -> ProbeOutcome {
        self.events += 1;
        self.bytes += event.packet.map_or(0, |p| p.len() as u64);
        ProbeOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vnet_sim::ids::{CpuId, NodeId};
    use vnet_sim::probe::Direction;

    #[test]
    fn counts_without_cost() {
        let mut p = CountingProbe::new();
        let ev = ProbeEvent {
            node: NodeId(0),
            cpu: CpuId(0),
            device: None,
            direction: Direction::Rx,
            packet: None,
            monotonic_ns: 0,
            aux: 0,
        };
        let out = p.handle(&ev);
        assert_eq!(out.cost, vnet_sim::SimDuration::ZERO);
        assert_eq!(p.events(), 1);
        assert_eq!(p.bytes(), 0);
    }
}
