//! Shared result recorders for workload generators.
//!
//! Workloads run inside the simulation as [`vnet_sim::app::App`]s; the
//! harness keeps an `Rc<RefCell<…>>` handle to these recorders to read
//! results after the run, the way one reads Sockperf/Netperf output.

use std::cell::RefCell;
use std::rc::Rc;

use vnet_tsdb::{stats_from_ns, LatencyStats};

/// Collects latency samples from a workload.
#[derive(Debug, Default)]
pub struct LatencyRecorder {
    samples_ns: Vec<u64>,
}

impl LatencyRecorder {
    /// Creates an empty recorder behind a shared handle.
    pub fn shared() -> Rc<RefCell<LatencyRecorder>> {
        Rc::new(RefCell::new(LatencyRecorder::default()))
    }

    /// Records one latency sample.
    pub fn record(&mut self, latency_ns: u64) {
        self.samples_ns.push(latency_ns);
    }

    /// The raw samples, in arrival order.
    pub fn samples(&self) -> &[u64] {
        &self.samples_ns
    }

    /// Summary statistics; `None` if no samples were recorded.
    pub fn summary(&self) -> Option<LatencyStats> {
        stats_from_ns(&self.samples_ns)
    }
}

/// Collects received bytes over time for throughput measurement.
#[derive(Debug, Default)]
pub struct ThroughputRecorder {
    bytes: u64,
    packets: u64,
    first_ns: Option<u64>,
    last_ns: u64,
}

impl ThroughputRecorder {
    /// Creates an empty recorder behind a shared handle.
    pub fn shared() -> Rc<RefCell<ThroughputRecorder>> {
        Rc::new(RefCell::new(ThroughputRecorder::default()))
    }

    /// Records a received payload of `bytes` at monotonic time `now_ns`.
    pub fn record(&mut self, bytes: usize, now_ns: u64) {
        self.bytes += bytes as u64;
        self.packets += 1;
        if self.first_ns.is_none() {
            self.first_ns = Some(now_ns);
        }
        self.last_ns = now_ns;
    }

    /// Total payload bytes received.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Total packets received.
    pub fn packets(&self) -> u64 {
        self.packets
    }

    /// Goodput in bits/second over the first..last window; 0.0 with
    /// fewer than two packets.
    pub fn throughput_bps(&self) -> f64 {
        let Some(first) = self.first_ns else {
            return 0.0;
        };
        if self.last_ns <= first {
            return 0.0;
        }
        (self.bytes * 8) as f64 / ((self.last_ns - first) as f64 / 1e9)
    }

    /// Goodput in megabits/second.
    pub fn throughput_mbps(&self) -> f64 {
        self.throughput_bps() / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_summary_percentiles() {
        let mut r = LatencyRecorder::default();
        for v in 1..=100u64 {
            r.record(v * 1_000);
        }
        let s = r.summary().unwrap();
        assert_eq!(s.count, 100);
        assert_eq!(s.min_ns, 1_000);
        assert_eq!(s.max_ns, 100_000);
        assert_eq!(s.p50_ns, 50_000);
        assert_eq!(s.p99_ns, 99_000);
        assert_eq!(s.p999_ns, 100_000);
        assert!((s.mean_ns - 50_500.0).abs() < 1e-9);
        assert_eq!(s.mean_us(), 50.5);
    }

    #[test]
    fn empty_recorder_has_no_summary() {
        assert!(LatencyRecorder::default().summary().is_none());
    }

    #[test]
    fn throughput_window() {
        let mut r = ThroughputRecorder::default();
        r.record(1_000, 0);
        r.record(1_000, 1_000_000); // 2000B over 1ms
        assert_eq!(r.bytes(), 2_000);
        assert_eq!(r.packets(), 2);
        assert!((r.throughput_bps() - 16_000_000.0).abs() < 1.0);
        assert!((r.throughput_mbps() - 16.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_degenerate() {
        let mut r = ThroughputRecorder::default();
        assert_eq!(r.throughput_bps(), 0.0);
        r.record(100, 5);
        assert_eq!(r.throughput_bps(), 0.0, "single packet has no window");
    }
}
