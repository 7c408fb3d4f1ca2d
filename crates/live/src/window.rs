//! Event-time windows and watermarks.
//!
//! Records arrive out of order: per-CPU perf rings interleave, agents
//! drain on independent schedules, and each node stamps records on its
//! own (skewed) clock. The window runtime assigns every record to the
//! event-time windows covering its *aligned* timestamp, and a
//! [`WatermarkTracker`] decides when a window's input is complete enough
//! to finalize. The watermark is derived from per-agent heartbeats: an
//! agent heartbeating at master time `t` has drained everything it will
//! ever emit below `t − slack`, where the slack is the residual error of
//! that agent's [`SkewEstimate`] alignment (Cristian's bound: at most the
//! one-way estimate). The global watermark is the minimum frontier over all
//! registered agents — one stalled agent holds every window open rather
//! than letting its records be dropped as late.

use std::collections::{BTreeMap, HashMap};

use vnettracer::clock_sync::SkewEstimate;

/// An event-time window scheme: fixed-width windows every `slide_ns`.
/// `slide_ns == width_ns` gives tumbling windows; `slide_ns < width_ns`
/// gives overlapping sliding windows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    /// Window width in nanoseconds.
    pub width_ns: u64,
    /// Distance between consecutive window starts, in nanoseconds.
    pub slide_ns: u64,
}

impl WindowSpec {
    /// Non-overlapping windows of `width_ns`.
    ///
    /// # Panics
    ///
    /// Panics if `width_ns` is zero.
    pub fn tumbling(width_ns: u64) -> Self {
        assert!(width_ns > 0, "window width must be non-zero");
        WindowSpec {
            width_ns,
            slide_ns: width_ns,
        }
    }

    /// Overlapping windows of `width_ns` starting every `slide_ns`.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero or `slide_ns > width_ns`.
    pub fn sliding(width_ns: u64, slide_ns: u64) -> Self {
        assert!(
            width_ns > 0 && slide_ns > 0,
            "window sizes must be non-zero"
        );
        assert!(slide_ns <= width_ns, "slide must not exceed width");
        WindowSpec { width_ns, slide_ns }
    }

    /// Start timestamps of every window containing event time `ts` —
    /// at most `⌈width/slide⌉` of them, in ascending order.
    pub fn windows(&self, ts: u64) -> impl Iterator<Item = u64> + '_ {
        // Window [k·slide, k·slide + width) contains ts iff
        // k ≤ ts/slide and k·slide > ts − width.
        let last = ts / self.slide_ns;
        let first = if ts < self.width_ns {
            0
        } else {
            (ts - self.width_ns) / self.slide_ns + 1
        };
        (first..=last).map(move |k| k * self.slide_ns)
    }

    /// End (exclusive) of the window starting at `start_ns`.
    pub fn end(&self, start_ns: u64) -> u64 {
        start_ns.saturating_add(self.width_ns)
    }
}

/// One operator's accumulators `W`: one per open (not yet finalized)
/// window, keyed by window start, plus the running total since the engine
/// started.
#[derive(Debug)]
pub(crate) struct OpenWindows<W> {
    open: BTreeMap<u64, W>,
    pub(crate) total: W,
    /// What a window (and the total) starts as.
    empty: W,
}

impl<W: Clone> OpenWindows<W> {
    /// No open windows; every accumulator starts as a copy of `empty`.
    pub(crate) fn new(empty: W) -> Self {
        OpenWindows {
            open: BTreeMap::new(),
            total: empty.clone(),
            empty,
        }
    }

    /// Applies `update` to every window covering event time `ts` —
    /// opening those this operator has not touched yet — and to the
    /// running total.
    pub(crate) fn update(&mut self, spec: &WindowSpec, ts: u64, update: impl Fn(&mut W)) {
        for start in spec.windows(ts) {
            update(self.open.entry(start).or_insert_with(|| self.empty.clone()));
        }
        update(&mut self.total);
    }

    /// Finalizes the window starting at `start`, if this operator has it.
    pub(crate) fn close(&mut self, start: u64) -> Option<W> {
        self.open.remove(&start)
    }

    /// Starts of the open windows, ascending.
    pub(crate) fn open_starts(&self) -> impl Iterator<Item = u64> + '_ {
        self.open.keys().copied()
    }

    pub(crate) fn open_count(&self) -> usize {
        self.open.len()
    }

    /// Every accumulator: the open windows', then the total.
    pub(crate) fn values(&self) -> impl Iterator<Item = &W> {
        self.open.values().chain([&self.total])
    }
}

/// Per-agent completeness frontiers and the global watermark they imply.
#[derive(Debug, Clone, Default)]
pub struct WatermarkTracker {
    /// Per-agent: (frontier_ns, slack_ns, skew, last_heartbeat_now_ns).
    agents: HashMap<String, AgentFrontier>,
    /// The minimum frontier over `agents`, kept as frontiers move so a
    /// read costs nothing.
    watermark_ns: u64,
    late_records: u64,
}

#[derive(Debug, Clone, Copy)]
struct AgentFrontier {
    frontier_ns: u64,
    slack_ns: u64,
    skew: Option<SkewEstimate>,
    last_seen_ns: u64,
}

impl WatermarkTracker {
    /// Creates a tracker with no agents (watermark pinned at 0 until the
    /// first registration).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers an agent the watermark must wait for. `skew` aligns the
    /// agent's record timestamps onto the master base, and its residual
    /// error bound (`one_way_ns`) is the agent's slack.
    pub fn register_agent(&mut self, node: &str, skew: Option<SkewEstimate>) {
        self.agents.insert(
            node.to_owned(),
            AgentFrontier {
                frontier_ns: 0,
                slack_ns: skew.map_or(0, |s| s.one_way_ns),
                skew,
                last_seen_ns: 0,
            },
        );
        self.watermark_ns = 0;
    }

    /// The estimate that aligns `node`'s record timestamps onto the
    /// master time base; `None` (timestamps pass through unaligned) for
    /// the master itself and for unregistered nodes.
    pub fn skew(&self, node: &str) -> Option<SkewEstimate> {
        self.agents.get(node).and_then(|a| a.skew)
    }

    /// Advances `node`'s frontier from a heartbeat at master time
    /// `now_ns`. Frontiers never move backwards.
    pub fn heartbeat(&mut self, node: &str, now_ns: u64) {
        if let Some(a) = self.agents.get_mut(node) {
            a.last_seen_ns = a.last_seen_ns.max(now_ns);
            let frontier = now_ns.saturating_sub(a.slack_ns);
            if frontier > a.frontier_ns {
                // Only an agent that was at the minimum can raise it.
                let held_watermark = a.frontier_ns == self.watermark_ns;
                a.frontier_ns = frontier;
                if held_watermark {
                    self.watermark_ns = self.min_frontier();
                }
            }
        }
    }

    /// Forces every frontier up to `ts_ns` — used at shutdown to flush
    /// all remaining windows once no more data can arrive.
    pub fn advance_all(&mut self, ts_ns: u64) {
        for a in self.agents.values_mut() {
            a.frontier_ns = a.frontier_ns.max(ts_ns);
        }
        self.watermark_ns = self.min_frontier();
    }

    fn min_frontier(&self) -> u64 {
        let frontiers = self.agents.values().map(|a| a.frontier_ns);
        frontiers.min().unwrap_or(0)
    }

    /// The global watermark: the minimum agent frontier (0 with no
    /// agents). Windows ending at or below it are input-complete.
    pub fn watermark_ns(&self) -> u64 {
        self.watermark_ns
    }

    /// Counts `n` records that arrived late — aligned below the
    /// watermark, destined for windows already finalized.
    pub fn note_late(&mut self, n: u64) {
        self.late_records += n;
    }

    /// Total records that arrived below the watermark.
    pub fn late_records(&self) -> u64 {
        self.late_records
    }

    /// Agents whose last heartbeat is more than `stall_ns` behind the
    /// most recent heartbeat seen from any agent, sorted by name.
    pub fn stalled_agents(&self, stall_ns: u64) -> Vec<(String, u64)> {
        let lead = self.agents.values().map(|a| a.last_seen_ns).max();
        let Some(lead) = lead else {
            return Vec::new();
        };
        let mut out: Vec<(String, u64)> = self
            .agents
            .iter()
            .filter(|(_, a)| lead.saturating_sub(a.last_seen_ns) > stall_ns)
            .map(|(n, a)| (n.clone(), lead.saturating_sub(a.last_seen_ns)))
            .collect();
        out.sort();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tumbling_assignment_is_unique() {
        let w = WindowSpec::tumbling(1_000);
        assert_eq!(w.windows(0).collect::<Vec<_>>(), vec![0]);
        assert_eq!(w.windows(999).collect::<Vec<_>>(), vec![0]);
        assert_eq!(w.windows(1_000).collect::<Vec<_>>(), vec![1_000]);
        assert_eq!(w.windows(5_500).collect::<Vec<_>>(), vec![5_000]);
        assert_eq!(w.end(5_000), 6_000);
    }

    #[test]
    fn sliding_assignment_covers_overlaps() {
        let w = WindowSpec::sliding(1_000, 250);
        // ts=1100 is inside windows starting at 250, 500, 750, 1000.
        assert_eq!(
            w.windows(1_100).collect::<Vec<_>>(),
            vec![250, 500, 750, 1_000]
        );
        // Early timestamps clamp at window 0.
        assert_eq!(w.windows(100).collect::<Vec<_>>(), vec![0]);
        // Every returned window actually contains the timestamp.
        for ts in [0u64, 1, 249, 250, 999, 1_000, 10_137] {
            for start in w.windows(ts) {
                assert!(start <= ts && ts < w.end(start), "ts={ts} start={start}");
            }
        }
    }

    /// A remote agent's estimate whose residual error bound is
    /// `one_way_ns`, the agent's watermark slack.
    fn skew_with_slack(one_way_ns: u64) -> SkewEstimate {
        SkewEstimate {
            one_way_ns,
            offset_ns: 0,
            skew_ns: 0,
            samples: 100,
        }
    }

    #[test]
    fn watermark_is_minimum_frontier() {
        let mut wm = WatermarkTracker::new();
        assert_eq!(wm.watermark_ns(), 0);
        wm.register_agent("a", Some(skew_with_slack(100)));
        wm.register_agent("b", Some(skew_with_slack(100)));
        wm.heartbeat("a", 1_000);
        assert_eq!(wm.watermark_ns(), 0, "b has not reported");
        wm.heartbeat("b", 600);
        assert_eq!(wm.watermark_ns(), 500);
        wm.heartbeat("a", 2_000);
        assert_eq!(wm.watermark_ns(), 500, "still held by b");
        wm.heartbeat("b", 2_000);
        assert_eq!(wm.watermark_ns(), 1_900);
        // Heartbeats never regress the frontier.
        wm.heartbeat("b", 1_000);
        assert_eq!(wm.watermark_ns(), 1_900);
    }

    #[test]
    fn skew_widens_slack_and_aligns() {
        let skew = SkewEstimate {
            one_way_ns: 400,
            offset_ns: 2_000,
            skew_ns: 2_000,
            samples: 100,
        };
        let mut wm = WatermarkTracker::new();
        wm.register_agent("local", None);
        wm.register_agent("remote", Some(skew));
        wm.heartbeat("local", 10_000);
        wm.heartbeat("remote", 10_000);
        // The local agent has no slack; the remote one waits out its
        // one-way bound of 400.
        assert_eq!(wm.watermark_ns(), 9_600);
        // Remote clocks lead by 2us; alignment removes the lead.
        assert_eq!(wm.skew("remote").unwrap().align_remote_ns(12_000), 10_000);
        assert!(wm.skew("unknown").is_none());
    }

    #[test]
    fn late_records_are_counted() {
        let mut wm = WatermarkTracker::new();
        wm.register_agent("a", None);
        wm.note_late(1);
        wm.note_late(2);
        assert_eq!(wm.late_records(), 3);
    }

    #[test]
    fn stalled_agents_lag_the_leader() {
        let mut wm = WatermarkTracker::new();
        wm.register_agent("a", None);
        wm.register_agent("b", None);
        wm.heartbeat("a", 10_000);
        wm.heartbeat("b", 2_000);
        assert_eq!(wm.stalled_agents(5_000), vec![("b".to_owned(), 8_000)]);
        assert!(wm.stalled_agents(10_000).is_empty());
    }
}
