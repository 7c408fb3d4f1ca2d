//! Mergeable log-bucketed histogram sketch for streaming quantiles.
//!
//! The offline percentile path sorts every sample on every query; a
//! long-running collector needs quantiles whose memory and update cost
//! are independent of how many records ever flowed through. A
//! [`LogHistogram`] keeps one counter per geometric bucket (DDSketch-style
//! boundaries `(γ^{i−1}, γ^i]` with `γ = (1+α)/(1−α)`), so any reported
//! quantile of the values recorded so far carries a *relative* error of
//! at most `α`, and the bucket count is bounded by
//! `⌈64·ln 2 / ln γ⌉ + 1` no matter how many values are recorded —
//! ~1500 buckets at α = 1.5 % over the full `u64` nanosecond range.
//!
//! Sketches over disjoint streams (per-window, per-shard) merge exactly:
//! bucket counts add, and the merged sketch answers quantiles with the
//! same `α` bound as if it had seen the concatenated stream.

use std::collections::BTreeMap;

/// Default relative accuracy of latency sketches: 1.5 %.
pub const DEFAULT_SKETCH_ERROR: f64 = 0.015;

/// A mergeable log-bucketed quantile sketch over `u64` samples
/// (nanoseconds, byte counts, …) with bounded relative error.
///
/// # Examples
///
/// ```
/// use vnet_tsdb::sketch::LogHistogram;
///
/// let mut h = LogHistogram::with_relative_error(0.01);
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((p50 as f64 - 500.0).abs() / 500.0 <= 0.01);
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
    alpha: f64,
    gamma: f64,
    ln_gamma: f64,
    /// Counts per bucket index `i`, the bucket covering `(γ^{i−1}, γ^i]`.
    buckets: BTreeMap<i32, u64>,
    /// Zero values get their own exact bucket.
    zero_count: u64,
    count: u64,
    sum: f64,
    min: u64,
    max: u64,
}

impl LogHistogram {
    /// Creates a sketch whose quantile estimates carry at most `alpha`
    /// relative error (`0 < alpha < 1`).
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `(0, 1)`.
    pub fn with_relative_error(alpha: f64) -> Self {
        assert!(
            alpha > 0.0 && alpha < 1.0,
            "relative error must be in (0, 1), got {alpha}"
        );
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        LogHistogram {
            alpha,
            gamma,
            ln_gamma: gamma.ln(),
            buckets: BTreeMap::new(),
            zero_count: 0,
            count: 0,
            sum: 0.0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Creates a sketch with the crate's default accuracy
    /// ([`DEFAULT_SKETCH_ERROR`]).
    pub fn new() -> Self {
        Self::with_relative_error(DEFAULT_SKETCH_ERROR)
    }

    fn index_of(&self, value: u64) -> i32 {
        ((value as f64).ln() / self.ln_gamma).ceil() as i32
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum += value as f64;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        if value == 0 {
            self.zero_count += 1;
        } else {
            *self.buckets.entry(self.index_of(value)).or_insert(0) += 1;
        }
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples (as `f64`).
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact mean of recorded samples, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Exact minimum recorded sample; `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded sample; `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Resident buckets — the sketch's memory footprint, bounded by
    /// [`LogHistogram::max_bucket_count`] regardless of sample count.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len() + usize::from(self.zero_count > 0)
    }

    /// The hard cap on [`LogHistogram::bucket_count`] for `u64` samples:
    /// `⌈64·ln 2 / ln γ⌉ + 1` (every representable magnitude, plus the
    /// zero bucket).
    pub fn max_bucket_count(&self) -> usize {
        (64.0 * std::f64::consts::LN_2 / self.ln_gamma).ceil() as usize + 1
    }

    /// The `q`-quantile (`0.0..=1.0`) by nearest rank, within `α`
    /// relative error of the exact order statistic. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `0.0..=1.0`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!(
            (0.0..=1.0).contains(&q),
            "quantile must be in 0..=1, got {q}"
        );
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.zero_count;
        if rank <= seen {
            return Some(0);
        }
        for (&i, &n) in &self.buckets {
            seen += n;
            if rank <= seen {
                // Representative 2γ^i/(γ+1): at most α off anywhere in
                // the bucket (γ^{i−1}, γ^i]; the exact min/max clamp
                // keeps extreme quantiles honest.
                let rep = 2.0 * self.gamma.powi(i) / (self.gamma + 1.0);
                return Some((rep.round() as u64).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges `other` into `self`. Both sketches must have been built
    /// with the same relative error.
    ///
    /// # Panics
    ///
    /// Panics if the two sketches' `α` differ.
    pub fn merge(&mut self, other: &LogHistogram) {
        assert!(
            (self.alpha - other.alpha).abs() < 1e-12,
            "cannot merge sketches with different error bounds ({} vs {})",
            self.alpha,
            other.alpha
        );
        for (&i, &n) in &other.buckets {
            *self.buckets.entry(i).or_insert(0) += n;
        }
        self.zero_count += other.zero_count;
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_rank(sorted: &[u64], q: f64) -> u64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantiles_within_relative_error() {
        let alpha = 0.01;
        let mut h = LogHistogram::with_relative_error(alpha);
        let mut values: Vec<u64> = (0..5000u64).map(|i| (i * 37 + 1) % 1_000_000 + 1).collect();
        for &v in &values {
            h.record(v);
        }
        values.sort_unstable();
        for q in [0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0] {
            let exact = exact_rank(&values, q) as f64;
            let est = h.quantile(q).unwrap() as f64;
            assert!(
                (est - exact).abs() / exact <= alpha + 1e-9,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn empty_and_degenerate() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), 0.0);

        let mut h = LogHistogram::new();
        h.record(42);
        assert_eq!(h.quantile(0.0), Some(42));
        assert_eq!(h.quantile(1.0), Some(42));
        assert_eq!(h.min(), Some(42));
        assert_eq!(h.max(), Some(42));
    }

    #[test]
    fn zeros_have_their_own_bucket() {
        let mut h = LogHistogram::new();
        for _ in 0..10 {
            h.record(0);
        }
        h.record(1_000);
        assert_eq!(h.quantile(0.5), Some(0));
        assert_eq!(h.quantile(1.0), Some(1_000));
        assert_eq!(h.bucket_count(), 2);
    }

    #[test]
    fn bucket_count_is_bounded() {
        let mut h = LogHistogram::with_relative_error(0.015);
        // A stream spanning the entire magnitude range.
        let mut v = 1u64;
        for _ in 0..100_000 {
            h.record(v);
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        assert!(h.bucket_count() <= h.max_bucket_count());
        assert_eq!(h.count(), 100_000);
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        let mut whole = LogHistogram::new();
        for i in 0..1000u64 {
            let v = i * 97 + 3;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for q in [0.1, 0.5, 0.9, 0.99] {
            assert_eq!(a.quantile(q), whole.quantile(q));
        }
    }

    #[test]
    #[should_panic(expected = "different error bounds")]
    fn merge_rejects_mismatched_error() {
        let mut a = LogHistogram::with_relative_error(0.01);
        let b = LogHistogram::with_relative_error(0.02);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "relative error")]
    fn rejects_bad_alpha() {
        let _ = LogHistogram::with_relative_error(1.5);
    }
}
