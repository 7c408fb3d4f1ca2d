//! Jitter: variability of packet latency.
//!
//! "We calculate the network jitter as ΔT_{i+1} − ΔT_i, where ΔT_i refers
//! to the i-th network latency of traced packet." (§III-D) The paper
//! reports jitter as a range, e.g. "(−7.2 µs, 9.2 µs)" growing to
//! "(−117.8 µs, 1041.4 µs)" under CPU contention (Case Study II).
//!
//! Both the offline path ([`jitter_range`]) and the live streaming
//! operator feed the same [`JitterTracker`], so the two computations
//! cannot drift: the tracker keeps the successive-difference extremes
//! plus the RFC 3550 smoothed interarrival-jitter estimate
//! (`J ← J + (|D| − J)/16`) in O(1) state per latency stream.

/// Streaming jitter state over a latency sample stream: successive
/// differences' min/max plus the RFC 3550 smoothed estimate. One latency
/// sample at a time via [`JitterTracker::push`]; constant memory.
///
/// # Examples
///
/// ```
/// use vnettracer::metrics::JitterTracker;
///
/// let mut t = JitterTracker::new();
/// for l in [100u64, 150, 120, 300] {
///     t.push(l);
/// }
/// assert_eq!(t.range(), Some((-30, 180)));
/// assert!(t.smoothed_ns() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JitterTracker {
    last_ns: Option<u64>,
    min_ns: i64,
    max_ns: i64,
    smoothed_ns: f64,
    diffs: u64,
}

impl JitterTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds the next latency sample (in arrival order).
    pub fn push(&mut self, latency_ns: u64) {
        if let Some(last) = self.last_ns {
            let d = latency_ns as i64 - last as i64;
            if self.diffs == 0 {
                self.min_ns = d;
                self.max_ns = d;
            } else {
                self.min_ns = self.min_ns.min(d);
                self.max_ns = self.max_ns.max(d);
            }
            self.diffs += 1;
            // RFC 3550 §6.4.1: J += (|D| − J) / 16.
            self.smoothed_ns += (d.unsigned_abs() as f64 - self.smoothed_ns) / 16.0;
        }
        self.last_ns = Some(latency_ns);
    }

    /// The (min, max) successive-difference range in signed nanoseconds;
    /// `None` before two samples.
    pub fn range(&self) -> Option<(i64, i64)> {
        (self.diffs > 0).then_some((self.min_ns, self.max_ns))
    }

    /// The RFC 3550 smoothed jitter estimate, 0 before two samples.
    pub fn smoothed_ns(&self) -> f64 {
        self.smoothed_ns
    }

    /// Number of successive differences observed (samples − 1).
    pub fn diff_count(&self) -> u64 {
        self.diffs
    }
}

/// The (min, max) jitter range, in signed nanoseconds. `None` with fewer
/// than two latency samples.
pub fn jitter_range(latencies_ns: &[u64]) -> Option<(i64, i64)> {
    let mut tracker = JitterTracker::new();
    for &l in latencies_ns {
        tracker.push(l);
    }
    tracker.range()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn range_captures_extremes() {
        assert_eq!(jitter_range(&[100, 150, 120, 300]), Some((-30, 180)));
        assert_eq!(jitter_range(&[5]), None);
        assert_eq!(jitter_range(&[]), None);
    }

    #[test]
    fn steady_latency_has_zero_jitter() {
        assert_eq!(jitter_range(&[77, 77, 77]), Some((0, 0)));
    }

    #[test]
    fn tracker_matches_series_on_any_stream() {
        let latencies: Vec<u64> = (0..200u64).map(|i| (i * 7919) % 10_000).collect();
        let series: Vec<i64> = latencies
            .windows(2)
            .map(|w| w[1] as i64 - w[0] as i64)
            .collect();
        let mut t = JitterTracker::new();
        for &l in &latencies {
            t.push(l);
        }
        assert_eq!(t.range().unwrap().0, *series.iter().min().unwrap());
        assert_eq!(t.range().unwrap().1, *series.iter().max().unwrap());
        assert_eq!(t.diff_count(), series.len() as u64);
    }

    #[test]
    fn smoothed_follows_rfc3550_recurrence() {
        let mut t = JitterTracker::new();
        let mut expect = 0.0f64;
        let latencies = [1_000u64, 1_400, 900, 2_000, 2_000];
        for (i, &l) in latencies.iter().enumerate() {
            t.push(l);
            if i > 0 {
                let d = (l as i64 - latencies[i - 1] as i64).unsigned_abs() as f64;
                expect += (d - expect) / 16.0;
            }
        }
        assert!((t.smoothed_ns() - expect).abs() < 1e-9);
        // Steady stream decays toward zero.
        let mut steady = JitterTracker::new();
        for _ in 0..100 {
            steady.push(500);
        }
        assert_eq!(steady.smoothed_ns(), 0.0);
    }
}
