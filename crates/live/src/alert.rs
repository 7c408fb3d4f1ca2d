//! Anomaly detection over closed windows.
//!
//! Detectors keep an EWMA baseline per metric stream and compare each
//! finalized window against it, so an alert means "this window deviates
//! from this pair's own recent history", not "this window crossed a
//! global constant". Baselines need a short warm-up before they are
//! trusted; the stalled-agent detector instead watches heartbeat lag
//! directly and fires on the transition into the stalled state.

use std::collections::{HashMap, HashSet};
use std::fmt;

use crate::engine::WindowResult;

/// What went wrong, with enough context to act on.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertKind {
    /// A latency pair's p99 jumped well above its EWMA baseline.
    LatencySpike {
        /// `from->to` tracepoint pair.
        pair: String,
        /// The window's p99 latency.
        p99_ns: u64,
        /// The EWMA baseline it was judged against.
        baseline_ns: f64,
    },
    /// A loss pair's window loss rate crossed the configured threshold.
    LossBurst {
        /// `upstream->downstream` tracepoint pair.
        pair: String,
        /// Packets lost in the window.
        lost: u64,
        /// Upstream packets seen in the window.
        seen: u64,
    },
    /// A tracepoint's window throughput collapsed below a fraction of
    /// its EWMA baseline.
    ThroughputCollapse {
        /// The tracepoint name.
        tracepoint: String,
        /// The window's throughput in bits/second.
        bps: f64,
        /// The EWMA baseline it was judged against.
        baseline_bps: f64,
    },
    /// An agent's heartbeats lag far behind the other agents', holding
    /// the watermark (and every open window) back.
    StalledAgent {
        /// The silent agent.
        node: String,
        /// How far its last heartbeat lags the leader, in nanoseconds.
        lag_ns: u64,
    },
}

/// A typed alert emitted by the [`AnomalyDetector`].
#[derive(Debug, Clone, PartialEq)]
pub struct Alert {
    /// Event time the alert refers to: the window start for windowed
    /// detectors, the ingest time for stall detection.
    pub at_ns: u64,
    /// The anomaly.
    pub kind: AlertKind,
}

impl fmt::Display for Alert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            AlertKind::LatencySpike {
                pair,
                p99_ns,
                baseline_ns,
            } => write!(
                f,
                "[{:>12}ns] latency spike    {pair}: p99 {p99_ns}ns vs baseline {baseline_ns:.0}ns",
                self.at_ns
            ),
            AlertKind::LossBurst { pair, lost, seen } => write!(
                f,
                "[{:>12}ns] loss burst       {pair}: {lost}/{seen} packets lost",
                self.at_ns
            ),
            AlertKind::ThroughputCollapse {
                tracepoint,
                bps,
                baseline_bps,
            } => write!(
                f,
                "[{:>12}ns] tput collapse    {tracepoint}: {bps:.0}bps vs baseline {baseline_bps:.0}bps",
                self.at_ns
            ),
            AlertKind::StalledAgent { node, lag_ns } => write!(
                f,
                "[{:>12}ns] stalled agent    {node}: heartbeat lags leader by {lag_ns}ns",
                self.at_ns
            ),
        }
    }
}

/// EWMA smoothing factor for baselines (weight of the newest window).
const EWMA_ALPHA: f64 = 0.3;
/// Windows a baseline must absorb before its stream can alert.
const WARMUP_WINDOWS: u64 = 3;
/// Latency spike fires when window p99 > factor × baseline.
const LATENCY_SPIKE_FACTOR: f64 = 3.0;
/// Throughput collapse fires when window bps < factor × baseline.
const COLLAPSE_FACTOR: f64 = 0.3;
/// Loss burst fires when window loss rate ≥ this…
const LOSS_RATE_THRESHOLD: f64 = 0.05;
/// …and at least this many packets were actually lost.
const MIN_LOST: u64 = 3;
/// Heartbeat lag behind the leading agent that counts as stalled.
pub(crate) const STALL_TIMEOUT_NS: u64 = 50_000_000;

/// An EWMA baseline with a warm-up counter.
#[derive(Debug, Clone, Copy, Default)]
struct Ewma {
    value: f64,
    windows: u64,
}

impl Ewma {
    /// Folds in a new observation; returns the baseline *before* the
    /// update if the stream is warmed up.
    fn observe(&mut self, x: f64) -> Option<f64> {
        let baseline = (self.windows >= WARMUP_WINDOWS).then_some(self.value);
        if self.windows == 0 {
            self.value = x;
        } else {
            self.value += EWMA_ALPHA * (x - self.value);
        }
        self.windows += 1;
        baseline
    }
}

/// Runs every detector over each finalized window and over heartbeat
/// stalls, accumulating [`Alert`]s for the caller to drain.
#[derive(Debug, Default)]
pub struct AnomalyDetector {
    latency: HashMap<String, Ewma>,
    throughput: HashMap<String, Ewma>,
    /// Agents currently in the stalled state, to alert only on entry.
    stalled: HashSet<String>,
}

impl AnomalyDetector {
    /// Judges one finalized window against the per-stream baselines.
    pub fn on_window(&mut self, w: &WindowResult, out: &mut Vec<Alert>) {
        for (pair, s) in &w.latency {
            if s.count == 0 {
                continue;
            }
            let obs = s.p99_ns as f64;
            if let Some(baseline) = self.latency.entry(pair.clone()).or_default().observe(obs) {
                if baseline > 0.0 && obs > LATENCY_SPIKE_FACTOR * baseline {
                    out.push(Alert {
                        at_ns: w.start_ns,
                        kind: AlertKind::LatencySpike {
                            pair: pair.clone(),
                            p99_ns: s.p99_ns,
                            baseline_ns: baseline,
                        },
                    });
                }
            }
        }
        for (tp, t) in &w.throughput {
            let obs = t.bps();
            if obs <= 0.0 {
                continue;
            }
            if let Some(baseline) = self.throughput.entry(tp.clone()).or_default().observe(obs) {
                if baseline > 0.0 && obs < COLLAPSE_FACTOR * baseline {
                    out.push(Alert {
                        at_ns: w.start_ns,
                        kind: AlertKind::ThroughputCollapse {
                            tracepoint: tp.clone(),
                            bps: obs,
                            baseline_bps: baseline,
                        },
                    });
                }
            }
        }
        for (pair, l) in &w.loss {
            if l.lost >= MIN_LOST && l.rate() >= LOSS_RATE_THRESHOLD {
                out.push(Alert {
                    at_ns: w.start_ns,
                    kind: AlertKind::LossBurst {
                        pair: pair.clone(),
                        lost: l.lost,
                        seen: l.seen,
                    },
                });
            }
        }
    }

    /// Updates the stalled-agent state machine from the current lag
    /// report, alerting once per stall episode.
    pub fn on_stall_report(
        &mut self,
        stalled: &[(String, u64)],
        now_ns: u64,
        out: &mut Vec<Alert>,
    ) {
        if stalled.is_empty() && self.stalled.is_empty() {
            return;
        }
        let current: HashSet<&str> = stalled.iter().map(|(n, _)| n.as_str()).collect();
        for (node, lag_ns) in stalled {
            if self.stalled.insert(node.clone()) {
                out.push(Alert {
                    at_ns: now_ns,
                    kind: AlertKind::StalledAgent {
                        node: node.clone(),
                        lag_ns: *lag_ns,
                    },
                });
            }
        }
        self.stalled.retain(|n| current.contains(n.as_str()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::{LatencySummary, LossWindow};
    use crate::ThroughputWindow;

    fn lat(p99: u64) -> LatencySummary {
        LatencySummary {
            count: 10,
            p50_ns: p99 / 2,
            p95_ns: p99,
            p99_ns: p99,
            mean_ns: p99 as f64 / 2.0,
            jitter: Some((-5, 5)),
            smoothed_jitter_ns: 1.0,
        }
    }

    fn window(start: u64, p99: u64) -> WindowResult {
        WindowResult {
            start_ns: start,
            end_ns: start + 1_000,
            throughput: Vec::new(),
            latency: vec![("a->b".to_owned(), lat(p99))],
            loss: Vec::new(),
        }
    }

    #[test]
    fn latency_spike_needs_warmup_then_fires() {
        let mut d = AnomalyDetector::default();
        let mut out = Vec::new();
        d.on_window(&window(0, 100_000), &mut out);
        d.on_window(&window(1_000, 50_000), &mut out); // huge jump, still warming
        d.on_window(&window(2_000, 100_000), &mut out);
        assert!(out.is_empty(), "no alerts during warm-up");
        d.on_window(&window(3_000, 1_000_000), &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(
            out[0].kind,
            AlertKind::LatencySpike {
                p99_ns: 1_000_000,
                ..
            }
        ));
        // A normal window afterwards stays quiet.
        out.clear();
        d.on_window(&window(4_000, 90_000), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn loss_burst_respects_min_lost_and_rate() {
        let mut d = AnomalyDetector::default();
        let mut out = Vec::new();
        let mut w = window(0, 1);
        w.latency.clear();
        w.loss = vec![(
            "a->b".to_owned(),
            LossWindow {
                seen: 100,
                delivered: 98,
                lost: 2,
            },
        )];
        d.on_window(&w, &mut out);
        assert!(out.is_empty(), "2 lost is under min_lost");
        w.loss[0].1 = LossWindow {
            seen: 100,
            delivered: 90,
            lost: 10,
        };
        d.on_window(&w, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].kind, AlertKind::LossBurst { lost: 10, .. }));
    }

    #[test]
    fn throughput_collapse_fires_below_baseline_fraction() {
        let mut d = AnomalyDetector::default();
        let mut out = Vec::new();
        let steady = ThroughputWindow {
            count: 100,
            bytes: 100_000,
            first_ts: 0,
            last_ts: 999_999,
        };
        let trickle = ThroughputWindow {
            count: 2,
            bytes: 200,
            first_ts: 0,
            last_ts: 999_999,
        };
        let mut w = window(0, 1);
        w.latency.clear();
        w.throughput = vec![("rx".to_owned(), steady)];
        for _ in 0..WARMUP_WINDOWS {
            d.on_window(&w, &mut out);
        }
        assert!(out.is_empty());
        w.throughput = vec![("rx".to_owned(), trickle)];
        d.on_window(&w, &mut out);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0].kind, AlertKind::ThroughputCollapse { .. }));
    }

    #[test]
    fn stall_alerts_once_per_episode() {
        let mut d = AnomalyDetector::default();
        let mut out = Vec::new();
        let lag = vec![("b".to_owned(), 80_000_000u64)];
        d.on_stall_report(&lag, 1_000, &mut out);
        d.on_stall_report(&lag, 2_000, &mut out);
        assert_eq!(out.len(), 1, "repeated reports do not re-alert");
        // Recovery then a second stall re-alerts.
        d.on_stall_report(&[], 3_000, &mut out);
        d.on_stall_report(&lag, 4_000, &mut out);
        assert_eq!(out.len(), 2);
    }
}
