//! Memory-bound check: a million-record stream must not grow the
//! engine's resident state.
//!
//! The whole point of the streaming tier is that the trace database can
//! keep growing while the analysis state does not. This test pushes
//! over a million records through a fully loaded engine (throughput ×2,
//! latency, loss) cycle by cycle — the same drive pattern the collector
//! produces — sampling the [`EngineState`] accounting after every cycle
//! and asserting each component stays under a fixed cap that does not
//! depend on how much has been ingested. A second stream runs with one
//! registered agent silent, so the watermark never moves and nothing ever
//! times out: the pairing state must then be bounded by configuration
//! alone.

use vnet_live::{EngineState, LiveConfig, LiveEngine, WindowSpec};
use vnet_tsdb::record::CompactRecord;
use vnet_tsdb::RecordBatch;

/// Packets per collection cycle (2 records each: up + down).
const CYCLE: u64 = 512;
/// Cycles to run: > 1M records in total (each packet yields an upstream
/// record and, for 9 in 10, a downstream one).
const CYCLES: u64 = 1_100;
/// Event-time gap between packets.
const STEP_NS: u64 = 100;

fn rec(ts: u64, trace_id: u32) -> CompactRecord {
    CompactRecord {
        timestamp_ns: ts,
        trace_id,
        pkt_len: 100,
        flags: 1,
        ..Default::default()
    }
}

#[test]
fn million_records_bounded_state() {
    let mut cfg = LiveConfig::new(WindowSpec::tumbling(100_000))
        .track_throughput("up")
        .track_throughput("down")
        .track_latency("up", "down")
        .track_loss("up", "down");
    // A tight pair timeout keeps windows finalizing close behind the
    // stream; the ring and pending caps are the hard backstops.
    cfg.pair_timeout_ns = 200_000;
    cfg.max_closed_windows = 32;
    cfg.max_pending_pairs = 8_192;
    let max_sketch_buckets = 4 * 512; // few open windows + totals, each bounded

    let mut engine = LiveEngine::new(cfg);
    engine.register_agent("n1", None);
    engine.register_agent("n2", None);

    let mut batch = RecordBatch::new();
    let mut peak = EngineState {
        open_windows: 0,
        sketch_buckets: 0,
        pending_pairs: 0,
        resident_sightings: 0,
        closed_windows: 0,
        late_records: 0,
        records_processed: 0,
    };
    let mut closed_total = 0usize;
    for cycle in 0..CYCLES {
        batch.clear();
        let base = cycle * CYCLE;
        for j in 0..CYCLE {
            let i = base + j;
            let ts = i * STEP_NS;
            let id = (i % u64::from(u32::MAX)) as u32;
            batch.push("up", "n1", rec(ts, id));
            // Every 10th packet is lost upstream of the second tap.
            if !i.is_multiple_of(10) {
                batch.push("down", "n2", rec(ts + 50, id));
            }
        }
        let now = (base + CYCLE) * STEP_NS;
        engine.ingest(&batch, now);
        engine.heartbeat("n1", now);
        engine.heartbeat("n2", now);
        closed_total += engine.drain_closed().len();

        let s = engine.state();
        peak.open_windows = peak.open_windows.max(s.open_windows);
        peak.sketch_buckets = peak.sketch_buckets.max(s.sketch_buckets);
        peak.pending_pairs = peak.pending_pairs.max(s.pending_pairs);
        peak.resident_sightings = peak.resident_sightings.max(s.resident_sightings);
        peak.closed_windows = peak.closed_windows.max(s.closed_windows);
    }
    engine.finish();
    closed_total += engine.drain_closed().len();
    let end = engine.state();

    // Volume: the stream really was > 1M records, none dropped as late.
    assert!(
        end.records_processed > 1_000_000,
        "processed {} records",
        end.records_processed
    );
    assert_eq!(end.late_records, 0);
    // ~560 windows span the stream; nearly all must finalize in flight
    // rather than pile up until the end.
    assert!(closed_total > 500, "only {closed_total} windows finalized");

    // The caps: every resident component stayed bounded at its peak,
    // independent of the million records that flowed through.
    assert!(
        peak.open_windows <= 64,
        "peak open windows {}",
        peak.open_windows
    );
    assert!(
        peak.sketch_buckets <= max_sketch_buckets,
        "peak sketch buckets {}",
        peak.sketch_buckets
    );
    assert!(
        peak.pending_pairs <= 8_192,
        "peak pending pairs {}",
        peak.pending_pairs
    );
    assert!(
        peak.resident_sightings <= 8_192,
        "peak resident sightings {}",
        peak.resident_sightings
    );
    assert!(
        peak.closed_windows <= 32,
        "peak closed ring {}",
        peak.closed_windows
    );

    // And the stream still resolved correctly: 1 in 10 packets lost.
    let loss = engine.loss_total("up", "down").unwrap();
    assert_eq!(loss.seen, CYCLE * CYCLES);
    assert_eq!(loss.lost, loss.seen / 10 + (loss.seen % 10).min(1));
    assert_eq!(loss.seen, loss.delivered + loss.lost);
}

/// One registered agent never heartbeats, so the watermark stays at 0,
/// no pairing ever times out and no window ever closes (one wide window
/// keeps that part of the state out of the picture). Fifteen packets in
/// sixteen pair at once; the sixteenth's upstream waits for ever. What
/// the pairing state keeps resident must stay under
/// `max_pending_pairs × pairs` after every cycle all the same.
#[test]
fn stalled_watermark_bounded_pairing_state() {
    const CAP: usize = 1_024;
    let mut cfg = LiveConfig::new(WindowSpec::tumbling(1 << 40))
        .track_latency("up", "down")
        .track_loss("up", "down");
    cfg.max_pending_pairs = CAP;
    let mut engine = LiveEngine::new(cfg);
    engine.register_agent("n1", None);
    engine.register_agent("n2", None);
    engine.register_agent("silent", None);

    let mut batch = RecordBatch::new();
    let mut waiting = 0u64;
    for cycle in 0..CYCLES {
        batch.clear();
        let base = cycle * CYCLE;
        for j in 0..CYCLE {
            let i = base + j;
            let ts = i * STEP_NS;
            batch.push("up", "n1", rec(ts, i as u32));
            if i.is_multiple_of(16) {
                waiting += 1;
            } else {
                batch.push("down", "n2", rec(ts + 50, i as u32));
            }
        }
        let now = (base + CYCLE) * STEP_NS;
        engine.ingest(&batch, now);
        engine.heartbeat("n1", now);
        engine.heartbeat("n2", now);

        let s = engine.state();
        assert_eq!(engine.watermark_ns(), 0);
        assert!(
            s.resident_sightings <= CAP,
            "cycle {cycle}: {} resident sightings",
            s.resident_sightings
        );
        assert!(s.pending_pairs <= s.resident_sightings);
    }
    let s = engine.state();
    assert!(s.records_processed > 1_000_000);
    assert_eq!(s.late_records, 0);
    assert_eq!(s.closed_windows, 0);

    // Everything that paired was counted; every waiting upstream is
    // either still resident or was force-evicted — and counted as lost
    // and unmatched exactly like a timeout.
    let loss = engine.loss_total("up", "down").unwrap();
    assert_eq!(loss.seen, CYCLE * CYCLES);
    assert_eq!(loss.delivered, loss.seen - waiting);
    assert_eq!(loss.lost + s.pending_pairs as u64, waiting);
    assert_eq!(engine.latency_unmatched("up", "down"), Some(loss.lost));
    assert_eq!(
        engine.latency_total("up", "down").unwrap().count,
        loss.delivered
    );
}
