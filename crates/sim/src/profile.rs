//! Trace-driven, time-varying link models.
//!
//! A [`LinkProfile`] replays a per-link schedule of
//! `(time, delay, loss_rate, rate)` segments over an output port: during
//! a segment the link's propagation delay is *replaced* by the segment's
//! delay, packets are dropped on the wire with the segment's loss
//! probability (drawn from the sending node's seeded RNG stream, so runs
//! stay bit-identical for a seed), and an optional link rate
//! serializes frames through a shared wire — back-to-back frames queue
//! behind each other exactly as on a rate-limited pipe.
//!
//! Profiles are built from validated segments ([`LinkProfile::new`]) and
//! attach to ports via [`crate::world::World::attach_link_profile`]. The
//! module also ships a library of *adversarial condition generators* — LEO-handover delay
//! steps, congested-WAN rate dips, flapping links, asymmetric-route delay
//! skew, and bursty Gilbert–Elliott loss. Every generator returns the
//! exact [`Episode`] windows in which its condition is active, which is
//! the ground truth the detector-validation harness scores emitted
//! alerts against.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::time::{SimDuration, SimTime};

/// One segment of a link schedule: from `start` (inclusive) until the
/// next segment's start, the link behaves as described here.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSegment {
    /// When this segment becomes active.
    pub start: SimTime,
    /// One-way propagation delay during the segment (replaces the port's
    /// base latency).
    pub delay: SimDuration,
    /// Probability in `[0, 1]` that a frame entering the wire during
    /// this segment is lost.
    pub loss_rate: f64,
    /// Optional link rate in bits/second; frames serialize through the
    /// wire at this rate and queue behind each other. `None` means the
    /// wire is infinitely fast (propagation delay only).
    pub rate_bps: Option<u64>,
}

/// A time-indexed schedule of [`LinkSegment`]s replayed over a link.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProfile {
    segments: Vec<LinkSegment>,
}

impl LinkProfile {
    /// Builds a profile from segments, validating the schedule: it must
    /// be non-empty, start at time zero, have strictly increasing
    /// segment starts, finite loss rates in `[0, 1]`, and positive rates.
    pub fn new(segments: Vec<LinkSegment>) -> Result<LinkProfile, String> {
        if segments.is_empty() {
            return Err("profile needs at least one segment".into());
        }
        if segments[0].start != SimTime::ZERO {
            return Err(format!(
                "first segment must start at t=0, not {}",
                segments[0].start
            ));
        }
        for pair in segments.windows(2) {
            if pair[1].start <= pair[0].start {
                return Err(format!(
                    "segment starts must strictly increase ({} then {})",
                    pair[0].start, pair[1].start
                ));
            }
        }
        for seg in &segments {
            if !seg.loss_rate.is_finite() || !(0.0..=1.0).contains(&seg.loss_rate) {
                return Err(format!("loss_rate {} outside [0, 1]", seg.loss_rate));
            }
            if seg.rate_bps == Some(0) {
                return Err("rate must be positive".into());
            }
        }
        Ok(LinkProfile { segments })
    }

    /// A single-segment profile: constant delay, no loss, no rate limit.
    pub fn constant(delay: SimDuration) -> LinkProfile {
        LinkProfile {
            segments: vec![LinkSegment {
                start: SimTime::ZERO,
                delay,
                loss_rate: 0.0,
                rate_bps: None,
            }],
        }
    }

    /// The validated schedule.
    pub fn segments(&self) -> &[LinkSegment] {
        &self.segments
    }

    /// The segment active at instant `t` (the last segment whose start
    /// is at or before `t`).
    pub fn segment_at(&self, t: SimTime) -> &LinkSegment {
        match self.segments.partition_point(|s| s.start <= t) {
            0 => &self.segments[0],
            n => &self.segments[n - 1],
        }
    }
}

/// A ground-truth window during which an adversarial condition is
/// active, as recorded by the generator that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Episode {
    /// When the condition starts.
    pub start: SimTime,
    /// When the condition ends (exclusive).
    pub end: SimTime,
}

/// Emits periodic episodes `[s, s+dwell)` starting at `warmup`, spaced
/// `period` apart, entirely inside `[0, run)`.
fn periodic_episodes(
    warmup: SimDuration,
    period: SimDuration,
    dwell: SimDuration,
    run: SimDuration,
) -> Vec<Episode> {
    assert!(dwell < period, "episodes must not overlap");
    let mut eps = Vec::new();
    let mut s = SimTime::ZERO + warmup;
    while (s + dwell).as_nanos() <= run.as_nanos() {
        eps.push(Episode {
            start: s,
            end: s + dwell,
        });
        s += period;
    }
    eps
}

/// Builds a delay-step schedule: `base` delay outside the episodes,
/// `elevated` delay inside them.
fn delay_step_profile(
    base: SimDuration,
    elevated: SimDuration,
    episodes: &[Episode],
) -> LinkProfile {
    let seg = |start: SimTime, delay: SimDuration| LinkSegment {
        start,
        delay,
        loss_rate: 0.0,
        rate_bps: None,
    };
    let mut segments = vec![seg(SimTime::ZERO, base)];
    for ep in episodes {
        segments.push(seg(ep.start, elevated));
        segments.push(seg(ep.end, base));
    }
    LinkProfile::new(segments).expect("generated schedule is valid")
}

/// LEO-handover delay steps: every `period` after `warmup` the
/// constellation hands the link to another satellite and one-way delay
/// jumps from `base` to `step_delay` for `dwell`. Returns the profile
/// and the exact handover windows.
pub fn leo_handover(
    base: SimDuration,
    step_delay: SimDuration,
    warmup: SimDuration,
    period: SimDuration,
    dwell: SimDuration,
    run: SimDuration,
) -> (LinkProfile, Vec<Episode>) {
    let episodes = periodic_episodes(warmup, period, dwell, run);
    (delay_step_profile(base, step_delay, &episodes), episodes)
}

/// Asymmetric-route delay skew: one direction of a link detours through
/// a longer route (`skewed` delay) during each episode while the reverse
/// direction keeps its base profile. Attach the returned profile to
/// *one* direction only.
pub fn asymmetric_skew(
    base: SimDuration,
    skewed: SimDuration,
    warmup: SimDuration,
    period: SimDuration,
    dwell: SimDuration,
    run: SimDuration,
) -> (LinkProfile, Vec<Episode>) {
    let episodes = periodic_episodes(warmup, period, dwell, run);
    (delay_step_profile(base, skewed, &episodes), episodes)
}

/// Congested-WAN rate dips: the link serializes at `base_rate_bps`
/// normally and collapses to `dip_rate_bps` during each episode, so
/// offered load queues behind the wire and receiver throughput dips.
pub fn congested_wan(
    delay: SimDuration,
    base_rate_bps: u64,
    dip_rate_bps: u64,
    warmup: SimDuration,
    period: SimDuration,
    dwell: SimDuration,
    run: SimDuration,
) -> (LinkProfile, Vec<Episode>) {
    assert!(
        base_rate_bps > 0 && dip_rate_bps > 0,
        "rates must be positive"
    );
    let episodes = periodic_episodes(warmup, period, dwell, run);
    let seg = |start: SimTime, rate: u64| LinkSegment {
        start,
        delay,
        loss_rate: 0.0,
        rate_bps: Some(rate),
    };
    let mut segments = vec![seg(SimTime::ZERO, base_rate_bps)];
    for ep in &episodes {
        segments.push(seg(ep.start, dip_rate_bps));
        segments.push(seg(ep.end, base_rate_bps));
    }
    (
        LinkProfile::new(segments).expect("generated schedule is valid"),
        episodes,
    )
}

/// Flapping link: the device at the receiving end of a link goes
/// administratively down for `downtime` every `period` after `warmup`.
/// Returns the `(when, down?)` schedule to feed
/// [`crate::world::World::schedule_device_down`] plus the outage
/// windows. Realized as scheduled events, flaps land between the same
/// two events however the run is stepped.
pub fn flapping(
    warmup: SimDuration,
    period: SimDuration,
    downtime: SimDuration,
    run: SimDuration,
) -> (Vec<(SimTime, bool)>, Vec<Episode>) {
    let episodes = periodic_episodes(warmup, period, downtime, run);
    let schedule = episodes
        .iter()
        .flat_map(|ep| [(ep.start, true), (ep.end, false)])
        .collect();
    (schedule, episodes)
}

/// Bursty Gilbert–Elliott loss: a two-state Markov chain (good/bad)
/// advanced every `step`, with per-step transition probabilities
/// `p_enter_bad` and `p_exit_bad` and loss rate `loss_bad` while in the
/// bad state (lossless in the good state). The chain is expanded into an
/// explicit segment schedule at generation time using a [`SmallRng`]
/// seeded with `seed`, so the ground-truth bad windows are exact and the
/// replay is deterministic. The chain starts
/// after `warmup` (good until then) and a final good segment closes the
/// schedule at `run`.
#[allow(clippy::too_many_arguments)] // a chain spec, not a call-site burden
pub fn gilbert_elliott(
    delay: SimDuration,
    loss_bad: f64,
    seed: u64,
    p_enter_bad: f64,
    p_exit_bad: f64,
    step: SimDuration,
    warmup: SimDuration,
    run: SimDuration,
) -> (LinkProfile, Vec<Episode>) {
    assert!(step.as_nanos() > 0, "step must be positive");
    assert!((0.0..=1.0).contains(&loss_bad), "loss_bad outside [0, 1]");
    let mut rng = SmallRng::seed_from_u64(seed);
    let seg = |start: SimTime, loss: f64| LinkSegment {
        start,
        delay,
        loss_rate: loss,
        rate_bps: None,
    };
    let mut segments = vec![seg(SimTime::ZERO, 0.0)];
    let mut episodes = Vec::new();
    let mut bad = false;
    let mut bad_since = SimTime::ZERO;
    let mut t = SimTime::ZERO + warmup;
    while t.as_nanos() < run.as_nanos() {
        let flip = if bad {
            rng.gen_bool(p_exit_bad)
        } else {
            rng.gen_bool(p_enter_bad)
        };
        if flip {
            bad = !bad;
            if bad {
                bad_since = t;
                segments.push(seg(t, loss_bad));
            } else {
                episodes.push(Episode {
                    start: bad_since,
                    end: t,
                });
                segments.push(seg(t, 0.0));
            }
        }
        t += step;
    }
    if bad {
        episodes.push(Episode {
            start: bad_since,
            end: t,
        });
        segments.push(seg(t, 0.0));
    }
    (
        LinkProfile::new(segments).expect("generated schedule is valid"),
        episodes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimDuration {
        SimDuration::from_micros(v)
    }

    #[test]
    fn segment_lookup() {
        let p = LinkProfile::new(vec![
            LinkSegment {
                start: SimTime::ZERO,
                delay: us(30),
                loss_rate: 0.0,
                rate_bps: None,
            },
            LinkSegment {
                start: SimTime::from_micros(100),
                delay: us(5),
                loss_rate: 0.5,
                rate_bps: Some(1_000_000),
            },
        ])
        .unwrap();
        assert_eq!(p.segment_at(SimTime::ZERO).delay, us(30));
        assert_eq!(p.segment_at(SimTime::from_micros(99)).delay, us(30));
        assert_eq!(p.segment_at(SimTime::from_micros(100)).delay, us(5));
        assert_eq!(p.segment_at(SimTime::from_secs(1)).loss_rate, 0.5);
    }

    #[test]
    fn validation_rejects_bad_schedules() {
        assert!(LinkProfile::new(vec![]).is_err(), "empty");
        let seg = |start_us: u64, loss: f64| LinkSegment {
            start: SimTime::from_micros(start_us),
            delay: us(1),
            loss_rate: loss,
            rate_bps: None,
        };
        assert!(
            LinkProfile::new(vec![seg(5, 0.0)]).is_err(),
            "must start at zero"
        );
        assert!(
            LinkProfile::new(vec![seg(0, 0.0), seg(0, 0.0)]).is_err(),
            "strictly increasing starts"
        );
        assert!(LinkProfile::new(vec![seg(0, 1.5)]).is_err(), "loss > 1");
        assert!(LinkProfile::new(vec![seg(0, -0.1)]).is_err(), "loss < 0");
    }

    #[test]
    fn leo_handover_episodes_match_profile_steps() {
        let (p, eps) = leo_handover(
            us(30),
            us(300),
            SimDuration::from_millis(20),
            SimDuration::from_millis(60),
            SimDuration::from_millis(20),
            SimDuration::from_millis(200),
        );
        assert_eq!(eps.len(), 3);
        for ep in &eps {
            assert_eq!(p.segment_at(ep.start).delay, us(300));
            assert_eq!(p.segment_at(ep.end).delay, us(30));
        }
    }

    #[test]
    fn flapping_schedule_pairs_with_episodes() {
        let (sched, eps) = flapping(
            SimDuration::from_millis(10),
            SimDuration::from_millis(40),
            SimDuration::from_millis(10),
            SimDuration::from_millis(100),
        );
        // Episodes at 10, 50 and 90ms; the last ends exactly at the run
        // bound and still counts.
        assert_eq!(eps.len(), 3);
        assert_eq!(sched.len(), 6);
        assert_eq!(sched[0], (SimTime::from_millis(10), true));
        assert_eq!(sched[1], (SimTime::from_millis(20), false));
    }

    #[test]
    fn gilbert_elliott_is_seed_deterministic() {
        let args = (
            us(30),
            0.5,
            99u64,
            0.2,
            0.4,
            SimDuration::from_millis(5),
            SimDuration::from_millis(20),
            SimDuration::from_millis(400),
        );
        let (p1, e1) = gilbert_elliott(
            args.0, args.1, args.2, args.3, args.4, args.5, args.6, args.7,
        );
        let (p2, e2) = gilbert_elliott(
            args.0, args.1, args.2, args.3, args.4, args.5, args.6, args.7,
        );
        assert_eq!(p1, p2);
        assert_eq!(e1, e2);
        assert!(!e1.is_empty(), "chain must enter the bad state");
        for ep in &e1 {
            assert_eq!(p1.segment_at(ep.start).loss_rate, 0.5);
            assert!(ep.end > ep.start);
            assert!(ep.start.as_nanos() >= SimDuration::from_millis(20).as_nanos());
        }
    }
}
