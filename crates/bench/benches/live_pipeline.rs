//! Streaming versus offline analysis cost as the trace grows.
//!
//! The claim the `vnet-live` engine backs: keeping the paper's metric
//! suite (throughput, latency percentiles, jitter, loss) up to date
//! costs the same per collection cycle whether the run has ingested ten
//! thousand records or a million, because the engine folds each batch
//! into bounded per-window state. The offline pipeline answers the same
//! questions by rescanning the trace database, so its per-refresh cost
//! grows linearly with everything collected so far.
//!
//! Two arms per pre-ingested size N:
//!
//! * `live_update/N` — an engine that already absorbed N records
//!   processes one more collection cycle (a fixed-size batch): flat in N;
//! * `offline_recompute/N` — the equivalent dashboard refresh against a
//!   `TraceDb` holding those same N records, using the offline
//!   `metrics::{throughput_at, latency_between, jitter_range,
//!   packet_loss}`: linear in N.
//!
//! Set `VNT_BENCH_FAST=1` for a smoke run (CI): small sizes, minimal
//! samples, no timing claims.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use vnet_live::{LiveConfig, LiveEngine, WindowSpec};
use vnet_tsdb::record::CompactRecord;
use vnet_tsdb::{RecordBatch, TraceDb};
use vnettracer::metrics;

/// Records per collection cycle — the unit of live work.
const CYCLE: u64 = 256;
/// Event-time gap between consecutive packets.
const STEP_NS: u64 = 1_000;
/// One-way delay from `up` to `down`.
const DELAY_NS: u64 = 500;

fn sizes() -> Vec<u64> {
    if std::env::var_os("VNT_BENCH_FAST").is_some() {
        vec![2_000, 8_000]
    } else {
        vec![20_000, 80_000, 320_000]
    }
}

fn sample_size() -> usize {
    if std::env::var_os("VNT_BENCH_FAST").is_some() {
        2
    } else {
        20
    }
}

fn rec(ts: u64, trace_id: u32) -> CompactRecord {
    CompactRecord {
        timestamp_ns: ts,
        trace_id,
        pkt_len: 100,
        flags: 1,
        ..Default::default()
    }
}

/// Fills `batch` with one cycle's worth of paired up/down records
/// starting at packet index `base`.
fn fill_cycle(batch: &mut RecordBatch, base: u64) {
    batch.clear();
    for i in base..base + CYCLE {
        let ts = i * STEP_NS;
        batch.push("up", "n1", rec(ts, i as u32));
        batch.push("down", "n2", rec(ts + DELAY_NS, i as u32));
    }
}

fn engine() -> LiveEngine {
    let cfg = LiveConfig::new(WindowSpec::tumbling(100_000))
        .track_throughput("down")
        .track_latency("up", "down")
        .track_loss("up", "down");
    let mut e = LiveEngine::new(cfg);
    e.register_agent("n1", None);
    e.register_agent("n2", None);
    e
}

/// Ingests `n` packets (2·n records) into the engine, cycle by cycle,
/// heartbeating both agents so windows keep closing behind the stream.
fn preload_engine(e: &mut LiveEngine, n: u64) -> u64 {
    let mut batch = RecordBatch::new();
    let mut base = 0;
    while base < n {
        fill_cycle(&mut batch, base);
        let now = (base + CYCLE) * STEP_NS;
        e.ingest(&batch, now);
        e.heartbeat("n1", now);
        e.heartbeat("n2", now);
        // The closed-window ring is bounded; a dashboard would drain it
        // every cycle, so the bench does too.
        e.drain_closed();
        base += CYCLE;
    }
    base
}

/// Loads the same stream into a trace database for the offline arm.
fn preload_db(n: u64) -> TraceDb {
    let mut db = TraceDb::new();
    let mut batch = RecordBatch::new();
    let mut base = 0;
    while base < n {
        fill_cycle(&mut batch, base);
        db.insert_batch(&batch);
        base += CYCLE;
    }
    db
}

fn bench_live_vs_offline(c: &mut Criterion) {
    let mut g = c.benchmark_group("live_pipeline");
    g.sample_size(sample_size());
    for n in sizes() {
        let mut e = engine();
        let mut base = preload_engine(&mut e, n);
        let mut batch = RecordBatch::new();
        g.bench_function(&format!("live_update/{n}"), |b| {
            b.iter(|| {
                // One collection cycle: a fresh batch at the stream head,
                // ingested and folded into the open windows.
                fill_cycle(&mut batch, base);
                let now = (base + CYCLE) * STEP_NS;
                e.ingest(black_box(&batch), now);
                e.heartbeat("n1", now);
                e.heartbeat("n2", now);
                base += CYCLE;
                e.drain_closed().len()
            })
        });

        let db = preload_db(n);
        g.bench_function(&format!("offline_recompute/{n}"), |b| {
            b.iter(|| {
                // The equivalent dashboard refresh: rescan the whole
                // database for every metric the engine keeps hot.
                let tput = metrics::throughput_at(black_box(&db), "down");
                let samples = metrics::latency_between(&db, "up", "down");
                let jitter = metrics::jitter_range(&samples);
                let stats = metrics::stats_from_ns(&samples);
                let loss = metrics::packet_loss(&db, "up", "down");
                (tput, jitter, stats.map(|s| s.p50_ns), loss.lost)
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_live_vs_offline
}
criterion_main!(benches);
