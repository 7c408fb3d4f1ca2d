//! The benchmark's vocabulary: its workloads and every metric it can
//! print, with unit, direction, regression bound and the workloads the
//! metric is measured on. `bench_e2e list` prints this table and fails
//! if `BENCHMARK.json` says anything else.

use serde_json::Value;

/// Workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = [
    "rack_untraced",
    "rack_filtered",
    "rack_traced",
    "store_sweep",
];

const ALL: &[&str] = &WORKLOADS;
const RACK: &[&str] = &["rack_untraced", "rack_filtered", "rack_traced"];
const PROBED: &[&str] = &["rack_filtered", "rack_traced"];
const TRACED: &[&str] = &["rack_traced"];
const STORED: &[&str] = &["rack_traced", "store_sweep"];
const SWEEP: &[&str] = &["store_sweep"];

/// How a metric is compared between two commits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// Printed by `--trace 0` on every workload; the driver gates on it.
    EndToEnd,
    /// A host-time (or memory) measurement of one layer or one workload.
    Measured,
    /// A count or simulated-time figure that must repeat bit for bit at
    /// a fixed seed: the "simulated statistics unchanged" guard.
    Exact,
    /// About the harness or the machine; reported, never compared.
    Info,
}

/// One metric the benchmark prints.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    pub kind: Kind,
    /// Share of the baseline median the metric may worsen by before
    /// `compare` calls it worse (0 for exact metrics).
    pub bound: f64,
    /// Workloads that measure it; it reads 0 on the others.
    pub workloads: &'static [&'static str],
}

const fn m(
    name: &'static str,
    unit: &'static str,
    higher_is_better: bool,
    kind: Kind,
    bound: f64,
    workloads: &'static [&'static str],
) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
        kind,
        bound,
        workloads,
    }
}

use Kind::{EndToEnd as E, Exact as X, Info as I, Measured as T};

/// Every metric, end-to-end first. Layer names are crate/module names.
pub const METRICS: &[Metric] = &[
    // --- end to end: every workload prints these with `--trace 0` ---
    m("setup_s", "s", false, E, 0.25, ALL),
    m("wall_s", "s", false, E, 0.25, ALL),
    m("peak_rss_mb", "MiB", false, E, 0.10, ALL),
    // --- per workload: printed with `--trace 1`, from its timing-off iteration ---
    m("wall_raw_s", "s/iter", false, I, 0.0, ALL),
    m("setup_raw_s", "s/setup", false, I, 0.0, ALL),
    m("sim_events_per_s", "events/s", true, T, 0.25, RACK),
    m("trace_records_per_s", "records/s", true, T, 0.25, TRACED),
    m("analysis_s", "s/iter", false, T, 0.25, TRACED),
    m(
        "store_ingest_records_per_s",
        "records/s",
        true,
        T,
        0.25,
        SWEEP,
    ),
    m("scan_narrow_ms", "ms/scan", false, T, 0.25, SWEEP),
    m("scan_mid_ms", "ms/scan", false, T, 0.25, SWEEP),
    m("scan_wide_ms", "ms/scan", false, T, 0.25, SWEEP),
    m("bytes_per_record", "B", false, X, 0.01, STORED),
    m("query_peak_rss_mb", "MiB", false, T, 0.10, STORED),
    m("probe_cost_sim_ns_per_pkt", "sim_ns", false, X, 0.0, PROBED),
    m("record_loss_share", "fraction", false, X, 0.0, PROBED),
    // --- sim ---
    m("sim.events", "count", false, X, 0.0, RACK),
    m("sim.packets_offered", "count", true, X, 0.0, RACK),
    m("sim.packets_delivered", "count", true, X, 0.0, RACK),
    m("sim.probes_fired", "count", false, X, 0.0, RACK),
    m("sim.run_s", "s/iter", false, T, 0.25, RACK),
    m("sim.ns_per_event", "ns/event", false, T, 0.25, RACK),
    m("sim.step_p50_us", "us/step", false, T, 0.25, RACK),
    m("sim.step_p95_us", "us/step", false, T, 0.25, RACK),
    m(
        "sim.tracing_ns_per_firing",
        "ns/firing",
        false,
        T,
        0.25,
        PROBED,
    ),
    // --- ebpf ---
    m("ebpf.programs_loaded", "count", false, X, 0.0, PROBED),
    m("ebpf.executions", "count", false, X, 0.0, PROBED),
    m("ebpf.matched", "count", true, X, 0.0, PROBED),
    m("ebpf.match_share", "fraction", true, X, 0.0, PROBED),
    m("ebpf.insns_retired", "count", false, X, 0.0, PROBED),
    m("ebpf.errors", "count", false, X, 0.0, PROBED),
    m("ebpf.insns_eliminated", "count", true, X, 0.0, PROBED),
    m("ebpf.sim_cost_ns_per_exec", "sim_ns", false, X, 0.0, PROBED),
    m("ebpf.load_s", "s/setup", false, T, 0.25, PROBED),
    // --- core.agent / core.collector ---
    m("core.records_drained", "count", true, X, 0.0, PROBED),
    m("core.records_lost", "count", false, X, 0.0, PROBED),
    m("core.batches", "count", false, X, 0.0, PROBED),
    m("core.collect_s", "s/iter", false, T, 0.25, PROBED),
    m(
        "core.collect_ns_per_record",
        "ns/record",
        false,
        T,
        0.25,
        PROBED,
    ),
    m("core.collect_p50_us", "us/collect", false, T, 0.25, PROBED),
    m("core.collect_p95_us", "us/collect", false, T, 0.25, PROBED),
    // --- live ---
    m("live.records", "count", true, X, 0.0, TRACED),
    m("live.late_records", "count", false, X, 0.0, TRACED),
    m("live.windows_closed", "count", true, X, 0.0, TRACED),
    m("live.alerts", "count", false, X, 0.0, TRACED),
    m("live.pending_pairs_end", "count", false, X, 0.0, TRACED),
    m("live.on_batch_s", "s/iter", false, T, 0.25, TRACED),
    m("live.ns_per_record", "ns/record", false, T, 0.25, TRACED),
    m("live.finish_s", "s/iter", false, T, 0.25, TRACED),
    // --- tsdb.ingest ---
    m("tsdb.records_stored", "count", true, X, 0.0, STORED),
    m("tsdb.encoded_bytes", "B", false, X, 0.0, STORED),
    m("tsdb.segments", "count", false, X, 0.0, STORED),
    m("tsdb.seals", "count", false, X, 0.0, STORED),
    m("tsdb.compactions", "count", false, X, 0.0, STORED),
    m("tsdb.segments_merged", "count", false, X, 0.0, STORED),
    m("tsdb.bytes_reclaimed", "B", true, X, 0.0, STORED),
    m("tsdb.insert_s", "s/iter", false, T, 0.25, STORED),
    m(
        "tsdb.insert_ns_per_record",
        "ns/record",
        false,
        T,
        0.25,
        STORED,
    ),
    m("tsdb.flush_s", "s/iter", false, T, 0.25, STORED),
    // --- tsdb.query ---
    m("tsdb.open_s", "s/iter", false, T, 0.25, STORED),
    m("tsdb.scan_s", "s/iter", false, T, 0.25, STORED),
    m("tsdb.scan.narrow.bytes_read", "B", false, X, 0.0, SWEEP),
    m(
        "tsdb.scan.narrow.segments_scanned",
        "count",
        false,
        X,
        0.0,
        SWEEP,
    ),
    m(
        "tsdb.scan.narrow.segments_pruned",
        "count",
        true,
        X,
        0.0,
        SWEEP,
    ),
    m(
        "tsdb.scan.narrow.rows_matched",
        "count",
        true,
        X,
        0.0,
        SWEEP,
    ),
    m(
        "tsdb.scan.narrow.bytes_read_per_row",
        "B",
        false,
        X,
        0.0,
        SWEEP,
    ),
    m("tsdb.scan.mid.bytes_read", "B", false, X, 0.0, SWEEP),
    m(
        "tsdb.scan.mid.segments_scanned",
        "count",
        false,
        X,
        0.0,
        SWEEP,
    ),
    m(
        "tsdb.scan.mid.segments_pruned",
        "count",
        true,
        X,
        0.0,
        SWEEP,
    ),
    m("tsdb.scan.mid.rows_matched", "count", true, X, 0.0, SWEEP),
    m(
        "tsdb.scan.mid.bytes_read_per_row",
        "B",
        false,
        X,
        0.0,
        SWEEP,
    ),
    m("tsdb.scan.wide.bytes_read", "B", false, X, 0.0, SWEEP),
    m(
        "tsdb.scan.wide.segments_scanned",
        "count",
        false,
        X,
        0.0,
        SWEEP,
    ),
    m(
        "tsdb.scan.wide.segments_pruned",
        "count",
        true,
        X,
        0.0,
        SWEEP,
    ),
    m("tsdb.scan.wide.rows_matched", "count", true, X, 0.0, SWEEP),
    m(
        "tsdb.scan.wide.bytes_read_per_row",
        "B",
        false,
        X,
        0.0,
        SWEEP,
    ),
    // --- core.metrics ---
    m("core.metrics.paths", "count", true, X, 0.0, TRACED),
    m("core.metrics.pairs_joined", "count", true, X, 0.0, TRACED),
    m(
        "core.metrics.decompose_ms_per_path",
        "ms/path",
        false,
        T,
        0.25,
        TRACED,
    ),
    m(
        "core.metrics.scan_percentile_ms",
        "ms/scan",
        false,
        T,
        0.25,
        TRACED,
    ),
    m("core.metrics.cold_mismatch", "count", false, X, 0.0, TRACED),
    // --- the harness itself ---
    m("harness.yardstick_ms", "ms/pass", false, I, 0.0, ALL),
    m("trace.overhead_pct", "%", false, I, 0.0, ALL),
    m("trace.attributed_pct", "%", true, I, 0.0, ALL),
    m("trace.spans", "count", false, I, 0.0, ALL),
];

/// Why each workload exists, as `BENCHMARK.json` records it.
pub const WHY: [&str; 4] = [
    "rack with nothing attached: the event loop and the untraced probe path alone; every other layer is idle",
    "rack plus 160 single-flow scripts: 3.7 M probe firings, 12 k records; probe dispatch and eBPF exec on the miss path, no ingest noise",
    "rack plus match-all profile into disk-backed collector, live engine and a cold analysis child: every layer works (0.9 M records)",
    "vnet-tsdb alone: 1 M records in big batches into one table, then cold time-range scans at 0.01/1/25 % of rows; shows the query cliff",
];

/// The metrics a run prints: end-to-end ones for `--trace 0`, all the
/// others for `--trace 1`.
pub fn printed(trace: bool) -> impl Iterator<Item = &'static Metric> {
    METRICS
        .iter()
        .filter(move |m| (m.kind == Kind::EndToEnd) != trace)
}

fn better(m: &Metric) -> &'static str {
    if m.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// Puts every measured host time and rate in `values` at the
/// yardstick's nominal speed (see `spans`): a time taken while the mean
/// yardstick pass was `yardstick_ms(name)` milliseconds is divided by
/// it, a rate is multiplied. Memory sizes are left alone.
pub fn normalise(values: &mut crate::util::Values, yardstick_ms: impl Fn(&str) -> f64) {
    for m in METRICS.iter().filter(|m| m.kind == Kind::Measured) {
        let Some(x) = values.get_mut(m.name) else {
            continue;
        };
        if m.unit.ends_with("/s") {
            *x *= yardstick_ms(m.name);
        } else if ["s/", "ms/", "us/", "ns/"]
            .iter()
            .any(|t| m.unit.starts_with(t))
        {
            *x /= yardstick_ms(m.name);
        }
    }
}

/// A metric's bound as `list` and a run print it.
pub fn bound_text(m: &Metric) -> String {
    match m.kind {
        Kind::Info => "-".to_owned(),
        Kind::Exact if m.bound == 0.0 => "exact".to_owned(),
        _ => format!("{:.0}%", m.bound * 100.0),
    }
}

/// The table `bench_e2e list` prints.
pub fn render() -> String {
    let mut out = format!(
        "{:<40} {:<10} {:<7} {:<9} {:<6} workloads\n",
        "metric", "unit", "better", "kind", "bound"
    );
    for m in METRICS {
        let kind = match m.kind {
            Kind::EndToEnd => "end2end",
            Kind::Measured => "measured",
            Kind::Exact => "exact",
            Kind::Info => "info",
        };
        out.push_str(&format!(
            "{:<40} {:<10} {:<7} {:<9} {:<6} {}\n",
            m.name,
            m.unit,
            better(m),
            kind,
            bound_text(m),
            m.workloads.join(",")
        ));
    }
    out
}

/// Checks that `BENCHMARK.json` (parsed) names exactly the catalog's
/// workloads and metrics, with the same units, directions and bounds.
pub fn check_manifest(manifest: &Value) -> Result<(), String> {
    let list = |key: &str| {
        manifest
            .get(key)
            .and_then(Value::as_array)
            .ok_or(format!("BENCHMARK.json: no {key} list"))
    };
    let text = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_owned)
            .ok_or(format!("BENCHMARK.json: entry without {key}"))
    };
    let workloads: Vec<(String, String)> = list("workloads")?
        .iter()
        .map(|w| Ok((text(w, "name")?, text(w, "why")?)))
        .collect::<Result<_, String>>()?;
    let want = WORKLOADS
        .iter()
        .zip(WHY)
        .map(|(n, w)| ((*n).to_owned(), w.to_owned()));
    if !workloads.iter().cloned().eq(want) {
        return Err(format!(
            "workloads differ from {WORKLOADS:?} and their reasons"
        ));
    }
    for (key, trace) in [("end_to_end", false), ("per_layer", true)] {
        let want: Vec<&Metric> = printed(trace).collect();
        let got = list(key)?;
        if got.len() != want.len() {
            return Err(format!(
                "{key}: {} metrics in BENCHMARK.json, {} in the catalog",
                got.len(),
                want.len()
            ));
        }
        for (g, w) in got.iter().zip(want) {
            let same = text(g, "name")? == w.name
                && text(g, "unit")? == w.unit
                && text(g, "better")? == better(w)
                && (trace || g.get("bound").and_then(Value::as_f64) == Some(w.bound));
            if !same {
                return Err(format!("{key}: {} differs from BENCHMARK.json", w.name));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalise_divides_times_multiplies_rates_and_leaves_the_rest() {
        let mut v: crate::util::Values = [
            ("sim.run_s", 3.0),
            ("sim_events_per_s", 100.0),
            ("query_peak_rss_mb", 50.0),
            ("sim.events", 7.0),
            ("wall_raw_s", 3.0),
        ]
        .into_iter()
        .map(|(k, x)| (k.to_owned(), x))
        .collect();
        normalise(&mut v, |_| 1.5);
        assert_eq!(v["sim.run_s"], 2.0);
        assert_eq!(v["sim_events_per_s"], 150.0);
        assert_eq!(v["query_peak_rss_mb"], 50.0);
        assert_eq!(v["sim.events"], 7.0);
        assert_eq!(v["wall_raw_s"], 3.0);
    }

    #[test]
    fn names_are_unique_and_fit_the_manifest_limits() {
        for (i, m) in METRICS.iter().enumerate() {
            assert!(m.name.len() <= 64 && m.unit.len() <= 16, "{}", m.name);
            assert!(METRICS[..i].iter().all(|o| o.name != m.name), "{}", m.name);
        }
        assert!(WHY.iter().all(|w| w.len() <= 200 && !w.contains('\n')));
    }
}
