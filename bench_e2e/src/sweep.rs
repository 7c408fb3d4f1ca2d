//! `store_sweep`: `vnet-tsdb` alone. A seeded `tsdb_scale`-style stream is
//! ingested in large batches into one table of a fresh store, then a cold
//! child answers time-range scans at three selectivities. Writes beside
//! reads on one layer, and the opposite batch shape to `rack_traced`
//! (few large batches into one table, not many small ones into forty).

use std::net::Ipv4Addr;
use std::path::Path;

use vnet_tsdb::{CompactRecord, Query, RecordBatch, TraceDb};

use crate::rack::store_options;
use crate::spans::{Section, Tracer};
use crate::util::{median, run_child, ChildReport, Iteration, Scratch, SplitMix64};

/// Records per ingest batch, as `tsdb_scale` uses.
const BATCH: u64 = 65_536;

/// Nodes the synthetic records rotate through.
const NODES: [&str; 4] = ["vm1", "vm2", "vm3", "vm4"];

/// The one table the stream lands in.
const TABLE: &str = "tp0";

/// Nanoseconds between consecutive records: the closed form behind every
/// expected row count.
const TICK_NS: u64 = 1_000;

/// Seeded window positions per selectivity. A median of seven; too few
/// for a tail percentile.
const POSITIONS: usize = 7;

/// `(metric infix, share of rows as 1/n)`: 0.01 %, 1 % and 25 % of rows.
const SELECTIVITIES: [(&str, u64); 3] = [("narrow", 10_000), ("mid", 100), ("wide", 4)];

/// Records per run. Four million, not ten: on this sandbox scans of
/// stores of eight million records and more are bimodal (1 s or 2–5 s
/// for identical work), and four million repeats within a few percent.
pub fn records(fast: bool) -> u64 {
    if fast {
        50_000
    } else {
        1_000_000
    }
}

/// Fills `batch` with records `start..start + n` of the stream for
/// `seed`: timestamps advance [`TICK_NS`] per record, nodes rotate, every
/// sixteenth record carries a trace ID, and the seed sets the other
/// field values.
pub fn fill_batch(batch: &mut RecordBatch, seed: u64, start: u64, n: u64) {
    batch.clear();
    for i in start..start + n {
        let r = SplitMix64(seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64();
        let node = NODES[(i % NODES.len() as u64) as usize];
        batch.push(
            TABLE,
            node,
            CompactRecord {
                timestamp_ns: i * TICK_NS,
                trace_id: (i % 16 == 0) as u32 * (r as u32 | 1),
                pkt_len: 64 + ((r >> 32) % 1400) as u32,
                saddr: u32::from(Ipv4Addr::new(10, 0, 0, 1)),
                daddr: u32::from(Ipv4Addr::new(10, 0, (r >> 48) as u8 % 8, 2)),
                sport: 9_000 + ((r >> 56) % 64) as u16,
                dport: 7,
                cpu: (i % 8) as u16,
                direction: (i % 2) as u8,
                flags: (i % 16 == 0) as u8,
            },
        );
    }
}

/// Set-up: a fresh store and the first generated batch.
fn setup(seed: u64, total: u64, dir: &Path) -> (TraceDb, RecordBatch) {
    let db = TraceDb::open_with(dir, store_options()).expect("open fresh sweep store");
    let mut batch = RecordBatch::new();
    fill_batch(&mut batch, seed, 0, BATCH.min(total));
    (db, batch)
}

/// Sets the store up once and drops it; returns what that took.
pub fn setup_only(seed: u64, fast: bool, scratch: &Scratch, tr: &Tracer) -> Section {
    let dir = scratch.fresh("sweep-store");
    tr.normalised("harness.setup", || setup(seed, records(fast), &dir))
        .1
}

/// Runs one iteration: open a fresh store (set-up), ingest and flush,
/// then the cold scan child.
pub fn run(seed: u64, fast: bool, scratch: &Scratch, tr: &Tracer) -> Iteration {
    let total = records(fast);
    let dir = scratch.fresh("sweep-store");
    let ((mut db, mut batch), setup) = tr.normalised("harness.setup", || setup(seed, total, &dir));
    let mut out = Iteration::after(setup);
    let ((), wall) = tr.normalised("iteration", || {
        let v = &mut out.values;
        let mut insert_s = 0.0;
        let mut written = 0u64;
        while written < total {
            let n = BATCH.min(total - written);
            if written > 0 {
                tr.timed("harness.generate", 0, || {
                    fill_batch(&mut batch, seed, written, n)
                });
            }
            let (stored, s) = tr.timed("tsdb.insert", (written / BATCH) as u32, || {
                db.insert_batch(&batch)
            });
            insert_s += s;
            written += stored;
            tr.catch_up();
        }
        let (flushed, flush_s) = tr.timed("tsdb.flush", 0, || db.flush());
        flushed.expect("flush sweep store");
        let st = db.storage_stats().expect("sweep store is disk-backed");
        out.checks.ops(
            total,
            total - st.sealed_records,
            "records sealed after flush",
        );
        v.insert(
            "store_ingest_records_per_s".into(),
            total as f64 / (insert_s + flush_s),
        );
        v.insert(
            "bytes_per_record".into(),
            st.encoded_bytes as f64 / total as f64,
        );
        v.insert("tsdb.records_stored".into(), st.sealed_records as f64);
        v.insert("tsdb.encoded_bytes".into(), st.encoded_bytes as f64);
        v.insert("tsdb.segments".into(), st.segments as f64);
        v.insert("tsdb.seals".into(), st.seals as f64);
        v.insert("tsdb.compactions".into(), st.compactions as f64);
        v.insert("tsdb.segments_merged".into(), st.segments_merged as f64);
        v.insert("tsdb.bytes_reclaimed".into(), st.bytes_reclaimed as f64);
        v.insert("tsdb.insert_s".into(), insert_s);
        v.insert(
            "tsdb.insert_ns_per_record".into(),
            insert_s * 1e9 / total as f64,
        );
        v.insert("tsdb.flush_s".into(), flush_s);
        drop(db);

        let report = run_child("scans", &dir, seed, fast, tr);
        out.checks.merge(report.checks);
        v.extend(report.values);
    });
    out.values.extend(wall.values());
    out
}

/// The cold child: reopens the store and runs [`POSITIONS`] seeded
/// time-range scans at each selectivity, checking every row count
/// against the generator's closed form.
pub fn scan_child(dir: &Path, seed: u64, fast: bool, tr: &Tracer) -> ChildReport {
    let total = records(fast);
    let mut report = ChildReport::default();
    let v = &mut report.values;
    let (db, open_s) = tr.timed("tsdb.open", 0, || {
        TraceDb::open_with(dir, store_options()).expect("reopen sweep store")
    });
    report
        .checks
        .equal("records visible after cold reopen", db.len() as u64, total);
    let mut rng = SplitMix64(seed ^ 0x5ca9);
    let mut scan_s = 0.0;
    for (name, share) in SELECTIVITIES {
        let rows = total / share;
        let mut ms = Vec::new();
        let mut stats = Vec::new();
        for p in 0..POSITIONS {
            // Inclusive range over `rows` ticks: rows + 1 records.
            let first = rng.below(total - rows);
            let (scan, s) = tr.timed("tsdb.scan", p as u32, || {
                Query::new(TABLE)
                    .time_range(first * TICK_NS, (first + rows) * TICK_NS)
                    .scan(&db)
                    .expect("time-range scan")
            });
            scan_s += s;
            ms.push(s * 1e3);
            tr.catch_up();
            report.checks.equal(
                &format!("{name} scan rows at record {first}"),
                scan.len() as u64,
                rows + 1,
            );
            stats.push(*scan.stats());
        }
        // Counters are per scan; positions differ in which segments they
        // touch, so report the median position.
        let med = |f: fn(&vnet_tsdb::ScanStats) -> u64| {
            median(&stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
        };
        let bytes_read = med(|s| s.bytes_read);
        let matched = med(|s| s.rows_matched + s.hot_entries);
        v.insert(format!("scan_{name}_ms"), median(&ms));
        v.insert(format!("tsdb.scan.{name}.bytes_read"), bytes_read);
        v.insert(
            format!("tsdb.scan.{name}.segments_scanned"),
            med(|s| s.segments_scanned),
        );
        v.insert(
            format!("tsdb.scan.{name}.segments_pruned"),
            med(|s| s.segments_pruned),
        );
        v.insert(format!("tsdb.scan.{name}.rows_matched"), matched);
        v.insert(
            format!("tsdb.scan.{name}.bytes_read_per_row"),
            bytes_read / matched.max(1.0),
        );
    }
    v.insert("query_peak_rss_mb".into(), crate::util::peak_rss_mb());
    v.insert("tsdb.open_s".into(), open_s);
    v.insert("tsdb.scan_s".into(), scan_s);
    tr.catch_up();
    report.spans = tr.spans();
    report.yardstick = tr.yardstick();
    report
}
