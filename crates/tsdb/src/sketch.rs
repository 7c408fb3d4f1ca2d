//! Log-bucketed histogram sketch for streaming quantiles.
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
//! Every sketch uses that α.

use std::collections::BTreeMap;

/// Relative accuracy of every latency sketch: 1.5 %.
pub const DEFAULT_SKETCH_ERROR: f64 = 0.015;

/// A log-bucketed quantile sketch over `u64` samples
/// (nanoseconds, byte counts, …) with bounded relative error.
///
/// # Examples
///
/// ```
/// use vnet_tsdb::sketch::{LogHistogram, DEFAULT_SKETCH_ERROR};
///
/// let mut h = LogHistogram::default();
/// for v in 1..=1000u64 {
///     h.record(v);
/// }
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((p50 as f64 - 500.0).abs() / 500.0 <= DEFAULT_SKETCH_ERROR);
/// ```
#[derive(Debug, Clone)]
pub struct LogHistogram {
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

impl Default for LogHistogram {
    /// An empty sketch whose quantile estimates carry at most
    /// [`DEFAULT_SKETCH_ERROR`] relative error.
    fn default() -> Self {
        let gamma = (1.0 + DEFAULT_SKETCH_ERROR) / (1.0 - DEFAULT_SKETCH_ERROR);
        LogHistogram {
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
}

impl LogHistogram {
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

    /// Exact mean of recorded samples, 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Resident buckets — the sketch's memory footprint, at most
    /// `⌈64·ln 2 / ln γ⌉ + 1` for `u64` samples (every representable
    /// magnitude, plus the zero bucket) regardless of sample count.
    pub fn bucket_count(&self) -> usize {
        self.buckets.len() + usize::from(self.zero_count > 0)
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
        let alpha = DEFAULT_SKETCH_ERROR;
        let mut h = LogHistogram::default();
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
        let h = LogHistogram::default();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);

        let mut h = LogHistogram::default();
        h.record(42);
        assert_eq!(h.quantile(0.0), Some(42));
        assert_eq!(h.quantile(1.0), Some(42));
        assert_eq!(h.mean(), 42.0);
    }

    #[test]
    fn zeros_have_their_own_bucket() {
        let mut h = LogHistogram::default();
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
        let mut h = LogHistogram::default();
        // A stream spanning the entire magnitude range.
        let mut v = 1u64;
        for _ in 0..100_000 {
            h.record(v);
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        }
        let cap = (64.0 * std::f64::consts::LN_2 / h.ln_gamma).ceil() as usize + 1;
        assert!(h.bucket_count() <= cap);
        assert_eq!(h.count(), 100_000);
    }
}
