//! `bench_e2e`: one layer-attributed benchmark for "trace a rack, persist
//! it, answer a query". See `README.md` beside `Cargo.toml` for the
//! metric tables, the fixed harness settings and how to read a trace.
//!
//! Everything here drives the public APIs of the workspace crates from
//! outside; no library file knows the benchmark exists.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod compare;
pub mod rack;
pub mod spans;
pub mod sweep;
pub mod util;

use std::path::Path;
use std::time::Instant;

use catalog::Kind;
use spans::{Section, Tracer};
use util::{median, Checks, ChildReport, Iteration, Scratch, Values};

/// `setup_s` is a median of at least this many set-ups, even when few
/// iterations fill the run (one is enough at `--fast` sizes).
fn setup_reps(fast: bool) -> usize {
    if fast {
        1
    } else {
        8
    }
}

/// What the driver asked for.
#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    /// Keep starting iterations until this much time has been measured.
    pub seconds: f64,
    pub trace: bool,
    /// Miniature sizes, for tests.
    pub fast: bool,
}

/// The result of one run: the metrics to print and the operation counts.
#[derive(Debug)]
pub struct Outcome {
    pub metrics: Values,
    pub checks: Checks,
    /// Spans of the traced iteration (empty with `--trace 0`).
    pub spans: Vec<spans::Span>,
}

fn rack_kind(workload: &str) -> Option<rack::Kind> {
    match workload {
        "rack_untraced" => Some(rack::Kind::Untraced),
        "rack_filtered" => Some(rack::Kind::Filtered),
        "rack_traced" => Some(rack::Kind::Traced),
        _ => None,
    }
}

fn iterate(args: &RunArgs, scratch: &Scratch, tr: &Tracer, capture: bool) -> Iteration {
    match rack_kind(&args.workload) {
        Some(kind) => {
            let cfg = rack::rack_config(args.seed, args.fast);
            rack::run(kind, &cfg, args.fast, scratch, tr, capture)
        }
        None => sweep::run(args.seed, args.fast, scratch, tr),
    }
}

fn setup_only(args: &RunArgs, scratch: &Scratch, tr: &Tracer) -> Section {
    match rack_kind(&args.workload) {
        Some(kind) => {
            let cfg = rack::rack_config(args.seed, args.fast);
            rack::setup_only(kind, &cfg, scratch, tr)
        }
        None => sweep::setup_only(args.seed, args.fast, scratch, tr),
    }
}

/// Checks that every exact metric reads the same in `a` and `b`: two
/// iterations at one seed must agree bit for bit.
fn check_exact(checks: &mut Checks, a: &Values, b: &Values) {
    for m in catalog::METRICS.iter().filter(|m| m.kind == Kind::Exact) {
        if let (Some(x), Some(y)) = (a.get(m.name), b.get(m.name)) {
            checks.equal(
                &format!("{} repeats across iterations", m.name),
                x.to_bits(),
                y.to_bits(),
            );
        }
    }
}

/// Runs a workload as the driver asks and returns what to print.
///
/// # Panics
///
/// Panics if the workload is unknown or the scratch directory cannot be
/// created; the caller has validated the former.
pub fn run(args: &RunArgs) -> Outcome {
    assert!(
        catalog::WORKLOADS.contains(&args.workload.as_str()),
        "unknown workload {}",
        args.workload
    );
    let scratch = Scratch::new(&args.workload).expect("create scratch directory");
    if args.trace {
        run_traced(args, &scratch)
    } else {
        run_plain(args, &scratch)
    }
}

/// `--trace 0`: iterate with timing off until `--seconds` have been
/// measured, then report medians over the iterations. `setup_s` is the
/// median of every iteration's set-up, topped up to [`setup_reps`].
fn run_plain(args: &RunArgs, scratch: &Scratch) -> Outcome {
    let off = Tracer::new(false);
    let mut setups = Vec::new();
    let mut walls = Vec::new();
    let mut checks = Checks::default();
    let mut first: Option<Values> = None;
    let start = Instant::now();
    while walls.is_empty() || start.elapsed().as_secs_f64() < args.seconds {
        let it = iterate(args, scratch, &off, false);
        eprintln!(
            "iteration {}: set-up {:.6} s, wall {:.6} s, yardstick {:.4} ms",
            walls.len() + 1,
            it.setup.raw_s,
            it.values["wall_raw_s"],
            it.values["harness.yardstick_ms"]
        );
        setups.push(it.setup.norm_s());
        walls.push(it.values["wall_s"]);
        checks.merge(it.checks);
        match &first {
            Some(f) => check_exact(&mut checks, f, &it.values),
            None => first = Some(it.values),
        }
    }
    while setups.len() < setup_reps(args.fast) {
        setups.push(setup_only(args, scratch, &off).norm_s());
    }
    let metrics = Values::from([
        ("setup_s".to_owned(), median(&setups)),
        ("wall_s".to_owned(), median(&walls)),
        ("peak_rss_mb".to_owned(), util::peak_rss_mb()),
    ]);
    Outcome {
        metrics,
        checks,
        spans: Vec::new(),
    }
}

/// `--trace 1`: one timing-off iteration for the per-workload metrics
/// and the overhead base, one iteration with spans for the layer times,
/// then (rack workloads with a tracer) an untraced twin and a replay of
/// the captured batches to see inside `run_until` and `collect`.
fn run_traced(args: &RunArgs, scratch: &Scratch) -> Outcome {
    let plain = iterate(args, scratch, &Tracer::new(false), false);
    let on = Tracer::new(true);
    let traced = iterate(args, scratch, &on, true);
    let mut checks = plain.checks;
    checks.merge(traced.checks);
    check_exact(&mut checks, &plain.values, &traced.values);

    // Per-workload figures from the timing-off iteration, layer figures
    // (dotted names) from the one with spans.
    let mut v: Values = plain
        .values
        .iter()
        .filter(|(k, _)| !k.contains('.'))
        .chain(traced.values.iter().filter(|(k, _)| k.contains('.')))
        .map(|(k, x)| (k.clone(), *x))
        .collect();

    let kind = rack_kind(&args.workload);
    if let Some(kind) = kind.filter(|&k| k != rack::Kind::Untraced) {
        let cfg = rack::rack_config(args.seed, args.fast);
        let twin = rack::run(
            rack::Kind::Untraced,
            &cfg,
            args.fast,
            scratch,
            &Tracer::new(false),
            false,
        );
        checks.merge(twin.checks);
        // The twin and the replay run at other moments: rescale them to
        // the machine speed the traced iteration saw before subtracting.
        let yardstick_ms = v["harness.yardstick_ms"];
        let twin_run_s =
            twin.values["sim.run_s"] * yardstick_ms / twin.values["harness.yardstick_ms"];
        let fired = v["sim.probes_fired"].max(1.0);
        v.insert(
            "sim.tracing_ns_per_firing".into(),
            (v["sim.run_s"] - twin_run_s) * 1e9 / fired,
        );

        let ((insert_s, records), replay) = rack::replay(kind, &traced.captured, scratch, &on);
        let insert_s = insert_s * yardstick_ms / replay.yardstick_ms;
        checks.equal(
            "replayed records",
            records,
            v["core.records_drained"] as u64,
        );
        let collect_s = v["core.collect_total_s"]
            - v.get("live.on_batch_s").copied().unwrap_or(0.0)
            - v["harness.capture_s"]
            - insert_s;
        v.insert("tsdb.insert_s".into(), insert_s);
        v.insert(
            "tsdb.insert_ns_per_record".into(),
            insert_s * 1e9 / records.max(1) as f64,
        );
        v.insert("core.collect_s".into(), collect_s);
        v.insert(
            "core.collect_ns_per_record".into(),
            collect_s * 1e9 / records.max(1) as f64,
        );
    }

    let all = on.spans();
    if let Err(e) = spans::check_tree(&all) {
        checks.equal(&format!("span tree well-formed ({e})"), false, true);
    }
    let plain_wall = plain.values["wall_s"];
    v.insert(
        "trace.overhead_pct".into(),
        (traced.values["wall_s"] - plain_wall) / plain_wall * 100.0,
    );
    v.insert("setup_raw_s".into(), plain.setup.raw_s);
    v.insert(
        "trace.attributed_pct".into(),
        spans::attributed_share(&all, "iteration") * 100.0,
    );
    v.insert("trace.spans".into(), all.len() as f64);

    // Host times and rates at the yardstick's nominal speed, each against
    // the iteration it was taken in. Layers a workload leaves idle read 0.
    let (plain_ms, traced_ms) = (
        plain.values["harness.yardstick_ms"],
        traced.values["harness.yardstick_ms"],
    );
    catalog::normalise(&mut v, |name| {
        if name.contains('.') {
            traced_ms
        } else {
            plain_ms
        }
    });
    let metrics = catalog::printed(true)
        .map(|m| (m.name.to_owned(), v.get(m.name).copied().unwrap_or(0.0)))
        .collect();
    Outcome {
        metrics,
        checks,
        spans: all,
    }
}

/// A cold child's entry point: `phase` is `analysis` (after
/// `rack_traced`) or `scans` (after `store_sweep`).
///
/// # Panics
///
/// Panics on an unknown phase.
pub fn child(phase: &str, dir: &Path, seed: u64, fast: bool, trace: bool) -> ChildReport {
    let tr = Tracer::new(trace);
    match phase {
        "analysis" => rack::analysis_child(dir, &rack::rack_config(seed, fast), &tr),
        "scans" => sweep::scan_child(dir, seed, fast, &tr),
        other => panic!("unknown phase {other}"),
    }
}
