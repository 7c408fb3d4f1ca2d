//! Nodes (physical machines) and their clocks.

use crate::ids::NodeId;
use crate::time::SimTime;

/// A per-node monotonic clock, possibly skewed relative to simulation
/// ground truth.
///
/// Real machines' `CLOCK_MONOTONIC` sources differ by an offset (they booted
/// at different times). vNetTracer measures the *relative* skew between
/// nodes with Cristian's algorithm (paper §III-B, Fig. 4); this clock model
/// is what makes that measurement meaningful in the simulator.
///
/// # Examples
///
/// ```
/// use vnet_sim::node::NodeClock;
/// use vnet_sim::time::SimTime;
///
/// let clock = NodeClock::with_offset_ns(1_000);
/// assert_eq!(clock.monotonic_ns(SimTime::from_nanos(500)), 1_500);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeClock {
    /// Offset added to ground-truth time, in nanoseconds.
    offset_ns: i64,
}

impl NodeClock {
    /// A perfectly synchronised clock.
    pub fn perfect() -> Self {
        Self::default()
    }

    /// A clock whose monotonic reading leads ground truth by `offset_ns`
    /// (negative values lag).
    pub fn with_offset_ns(offset_ns: i64) -> Self {
        NodeClock { offset_ns }
    }

    /// The node's `CLOCK_MONOTONIC` reading at ground-truth instant `t`,
    /// in nanoseconds. Saturates at zero rather than going negative.
    pub fn monotonic_ns(&self, t: SimTime) -> u64 {
        (t.as_nanos() as i64 + self.offset_ns).max(0) as u64
    }
}

/// A physical machine in the simulated world.
#[derive(Debug)]
pub struct Node {
    /// The node's id.
    pub id: NodeId,
    /// Human-readable name (e.g. `"server1"`).
    pub name: String,
    /// Number of physical CPUs.
    pub num_cpus: u16,
    /// The node's monotonic clock.
    pub clock: NodeClock,
}

impl Node {
    /// Creates a node description.
    pub fn new(id: NodeId, name: impl Into<String>, num_cpus: u16, clock: NodeClock) -> Self {
        Node {
            id,
            name: name.into(),
            num_cpus,
            clock,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_clock_tracks_ground_truth() {
        let c = NodeClock::perfect();
        assert_eq!(c.monotonic_ns(SimTime::from_micros(5)), 5_000);
    }

    #[test]
    fn offset_applies() {
        let ahead = NodeClock::with_offset_ns(250);
        let behind = NodeClock::with_offset_ns(-250);
        let t = SimTime::from_nanos(1_000);
        assert_eq!(ahead.monotonic_ns(t), 1_250);
        assert_eq!(behind.monotonic_ns(t), 750);
    }

    #[test]
    fn negative_reading_saturates_to_zero() {
        let c = NodeClock::with_offset_ns(-1_000_000);
        assert_eq!(c.monotonic_ns(SimTime::from_nanos(10)), 0);
    }
}
