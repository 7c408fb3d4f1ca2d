//! Differential suite: the streaming engine must agree with the offline
//! pipeline once watermarks have passed all data.
//!
//! Each case generates a random paired packet stream, feeds the same
//! records to (a) a `TraceDb` analyzed by the offline
//! `vnettracer::metrics` functions and (b) a `LiveEngine` driven batch
//! by batch with heartbeats, then compares after `finish()`:
//!
//! * throughput and loss — exactly (same integer arithmetic);
//! * the jitter range and RFC 3550 smoothed jitter — exactly (both
//!   sides feed the same `JitterTracker` in the same sample order);
//! * latency percentiles — within the sketch's relative error bound
//!   against the exact nearest-rank values.

use proptest::prelude::*;
use vnet_live::{LiveConfig, LiveEngine, WindowSpec};
use vnet_tsdb::record::CompactRecord;
use vnet_tsdb::{RecordBatch, TraceDb};
use vnettracer::metrics;

/// One generated packet: inter-arrival gap, one-way delay, whether the
/// downstream tracepoint sees it, and its size.
#[derive(Debug, Clone, Copy)]
struct Pkt {
    gap_ns: u64,
    delay_ns: u64,
    delivered: bool,
    pkt_len: u32,
}

prop_compose! {
    fn arb_pkt()(
        gap_ns in 1u64..5_000,
        delay_ns in 0u64..50_000,
        deliver_roll in 0u8..100,
        pkt_len in 50u32..1_500,
    ) -> Pkt {
        // ~85% of packets make it to the downstream tracepoint.
        Pkt { gap_ns, delay_ns, delivered: deliver_roll < 85, pkt_len }
    }
}

fn rec(ts: u64, trace_id: u32, pkt_len: u32) -> CompactRecord {
    CompactRecord {
        timestamp_ns: ts,
        trace_id,
        pkt_len,
        flags: 1,
        ..Default::default()
    }
}

/// Exact nearest-rank percentile over a sorted slice.
fn exact_pct(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Feeds the stream to both pipelines: cycles of up to 16 packets, each
/// cycle one `RecordBatch` (ups then downs, generation order) followed
/// by heartbeats at the cycle's last upstream timestamp — a frontier no
/// future record can undercut.
fn run_both(pkts: &[Pkt], sketch_error: f64) -> (TraceDb, LiveEngine) {
    let cfg = LiveConfig {
        sketch_error,
        ..LiveConfig::new(WindowSpec::tumbling(20_000))
            .track_throughput("up")
            .track_throughput("down")
            .track_latency("up", "down")
            .track_loss("up", "down")
    };
    let mut engine = LiveEngine::new(cfg);
    engine.register_agent("n1", None);
    engine.register_agent("n2", None);

    let mut db = TraceDb::new();
    let mut batch = RecordBatch::new();
    let mut t1 = 0u64;
    for (cycle_idx, cycle) in pkts.chunks(16).enumerate() {
        batch.clear();
        let mut last_t1 = t1;
        for (j, p) in cycle.iter().enumerate() {
            t1 += p.gap_ns;
            last_t1 = t1;
            let id = (cycle_idx * 16 + j) as u32 + 1;
            batch.push("up", "n1", rec(t1, id, p.pkt_len));
            if p.delivered {
                batch.push("down", "n2", rec(t1 + p.delay_ns, id, p.pkt_len));
            }
        }
        db.insert_batch(&batch);
        engine.ingest(&batch, last_t1);
        engine.heartbeat("n1", last_t1);
        engine.heartbeat("n2", last_t1);
    }
    engine.finish();
    (db, engine)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Throughput and loss totals match the offline scan exactly.
    #[test]
    fn throughput_and_loss_exact(pkts in proptest::collection::vec(arb_pkt(), 2..300)) {
        let (db, engine) = run_both(&pkts, 0.01);

        for table in ["up", "down"] {
            let offline = metrics::throughput_at(&db, table);
            let live = engine.throughput_total(table).unwrap().bps();
            prop_assert!(
                (offline - live).abs() <= offline.abs() * 1e-12,
                "throughput at {}: offline {} vs live {}", table, offline, live
            );
        }

        let offline = metrics::packet_loss(&db, "up", "down");
        let live = engine.loss_total("up", "down").unwrap();
        prop_assert_eq!(live.seen, offline.upstream);
        prop_assert_eq!(live.lost, offline.lost);
        prop_assert_eq!(live.seen - live.delivered, offline.lost);
        // No record was dropped as late and none is still pending.
        let state = engine.state();
        prop_assert_eq!(state.late_records, 0);
        prop_assert_eq!(state.pending_pairs, 0);
    }

    /// The jitter range and smoothed jitter match exactly: the offline
    /// join yields samples in the same order the engine completes them.
    #[test]
    fn jitter_exact(pkts in proptest::collection::vec(arb_pkt(), 2..300)) {
        let (db, engine) = run_both(&pkts, 0.01);
        let samples = metrics::latency_between(&db, "up", "down");
        let offline = metrics::jitter_range(&samples);
        match engine.latency_total("up", "down") {
            Some(live) => {
                prop_assert_eq!(live.jitter, offline);
                // Same f64 recurrence over the same sequence.
                let mut tracker = metrics::JitterTracker::new();
                for &s in &samples {
                    tracker.push(s);
                }
                prop_assert_eq!(live.smoothed_jitter_ns, tracker.smoothed_ns());
                prop_assert_eq!(live.count, samples.len() as u64);
            }
            None => prop_assert!(samples.is_empty()),
        }
    }

    /// Latency percentiles agree with the exact nearest-rank values
    /// within the sketch's relative-error bound.
    #[test]
    fn latency_percentiles_within_sketch_error(
        pkts in proptest::collection::vec(arb_pkt(), 10..300),
        alpha_mil in 5u64..50,
    ) {
        let alpha = alpha_mil as f64 / 1_000.0;
        let (db, engine) = run_both(&pkts, alpha);
        let mut samples = metrics::latency_between(&db, "up", "down");
        samples.sort_unstable();
        if !samples.is_empty() {
            let live = engine.latency_total("up", "down").unwrap();
            for (q, est) in [(0.50, live.p50_ns), (0.95, live.p95_ns), (0.99, live.p99_ns)] {
                let exact = exact_pct(&samples, q);
                let bound = alpha * exact as f64 + 1.0;
                prop_assert!(
                    (est as f64 - exact as f64).abs() <= bound,
                    "q={}: sketch {} vs exact {} (alpha {})", q, est, exact, alpha
                );
            }
        }
    }

    /// Tumbling windows partition the stream: per-window counts sum to
    /// the totals, so nothing is dropped or double-counted on the way
    /// from open state to finalized windows.
    #[test]
    fn closed_windows_partition_the_stream(
        pkts in proptest::collection::vec(arb_pkt(), 2..300),
    ) {
        let (_db, mut engine) = run_both(&pkts, 0.01);
        let totals = engine.loss_total("up", "down").unwrap();
        let up_total = engine.throughput_total("up").unwrap();
        let closed = engine.drain_closed();
        let mut seen = 0u64;
        let mut delivered = 0u64;
        let mut lost = 0u64;
        let mut up_count = 0u64;
        for w in &closed {
            for (_, l) in &w.loss {
                seen += l.seen;
                delivered += l.delivered;
                lost += l.lost;
            }
            for (name, t) in &w.throughput {
                if name == "up" {
                    up_count += t.count;
                }
            }
        }
        prop_assert_eq!(seen, totals.seen);
        prop_assert_eq!(delivered, totals.delivered);
        prop_assert_eq!(lost, totals.lost);
        prop_assert_eq!(up_count, up_total.count);
        prop_assert_eq!(seen, delivered + lost, "every packet resolves");
    }
}
