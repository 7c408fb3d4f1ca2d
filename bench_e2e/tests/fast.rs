//! Runs the real binary at `--fast` sizes (miniature rack, 50 k store
//! records) and checks what it prints against the catalog.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use bench_e2e::catalog::{self, Kind};
use bench_e2e::spans;
use serde_json::Value;

const BIN: &str = env!("CARGO_BIN_EXE_bench_e2e");

/// Runs one workload at fast sizes; returns the metrics of its result line.
fn run(workload: &str, seed: u64, trace: bool) -> BTreeMap<String, (f64, String)> {
    let out = Command::new(BIN)
        .args(["--workload", workload, "--fast", "--seconds", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("start bench_e2e");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8(out.stdout).expect("utf-8 output");
    let result = serde_json::parse_value(text.lines().last().expect("a result line"))
        .expect("result line is JSON");
    let keys: Vec<&str> = result
        .as_object()
        .expect("result object")
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
    assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
    result
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            let value = m.get("value").and_then(Value::as_f64).expect("value");
            let unit = m.get("unit").and_then(Value::as_str).expect("unit");
            (name.clone(), (value, unit.to_owned()))
        })
        .collect()
}

fn assert_prints_the_catalog(metrics: &BTreeMap<String, (f64, String)>, trace: bool) {
    let mut want: Vec<(&str, &str)> = catalog::printed(trace).map(|m| (m.name, m.unit)).collect();
    want.sort_unstable();
    let got: Vec<(&str, &str)> = metrics
        .iter()
        .map(|(n, (_, u))| (n.as_str(), u.as_str()))
        .collect();
    assert_eq!(got, want);
}

#[test]
fn timing_off_runs_print_every_end_to_end_metric() {
    for w in catalog::WORKLOADS {
        let metrics = run(w, 42, false);
        assert_prints_the_catalog(&metrics, false);
        for (name, (value, _)) in &metrics {
            assert!(*value > 0.0, "{w} {name} must never read 0");
        }
    }
}

/// All `--trace 1` runs live in one test: each writes its spans beside
/// the binary, under a name fixed by the workload.
#[test]
fn traced_runs_repeat_exactly_and_record_a_well_formed_span_tree() {
    let exact: Vec<&str> = catalog::METRICS
        .iter()
        .filter(|m| m.kind == Kind::Exact)
        .map(|m| m.name)
        .collect();
    for w in catalog::WORKLOADS {
        let first = run(w, 42, true);
        assert_prints_the_catalog(&first, true);

        let file = Path::new(BIN).with_file_name(format!("bench_e2e-spans-{w}.json"));
        let text = std::fs::read_to_string(&file).expect("spans file beside the binary");
        let tree = spans::from_json(&serde_json::parse_value(&text).expect("spans are JSON"))
            .expect("spans parse");
        spans::check_tree(&tree).expect("every child inside its parent, no sibling overlap");
        assert_eq!(first["trace.spans"].0, tree.len() as f64);
        assert!(spans::self_times(&tree).values().all(|&s| s >= 0.0));
        let share = spans::attributed_share(&tree, "iteration");
        assert!(share > 0.0 && share <= 1.0, "{w}: attributed share {share}");

        let second = run(w, 42, true);
        for name in &exact {
            assert_eq!(
                first[*name].0.to_bits(),
                second[*name].0.to_bits(),
                "{w}: {name} must repeat bit for bit at one seed"
            );
        }
    }
}

#[test]
fn another_seed_generates_another_store_stream() {
    let batch = |seed| {
        let mut b = vnet_tsdb::RecordBatch::new();
        bench_e2e::sweep::fill_batch(&mut b, seed, 0, 64);
        format!("{:?}", b.groups())
    };
    assert_eq!(batch(42), batch(42));
    assert_ne!(batch(42), batch(7));
}

#[test]
fn benchmark_json_names_the_catalog() {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&manifest).expect("BENCHMARK.json at the repo root");
    catalog::check_manifest(&serde_json::parse_value(&text).expect("BENCHMARK.json is JSON"))
        .expect("BENCHMARK.json and `bench_e2e list` agree");
    let listed = Command::new(BIN)
        .arg("list")
        .arg(&manifest)
        .output()
        .expect("start bench_e2e list");
    assert!(listed.status.success());
}

#[test]
fn compare_reads_what_out_appends() {
    let dir = Path::new(BIN).with_file_name(format!("bench_e2e-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("test directory");
    let set = dir.join("set.jsonl");
    for _ in 0..3 {
        let ok = Command::new(BIN)
            .args([
                "--workload",
                "store_sweep",
                "--fast",
                "--seconds",
                "0",
                "--out",
            ])
            .arg(&set)
            .output()
            .expect("start bench_e2e")
            .status
            .success();
        assert!(ok);
    }
    let out = Command::new(BIN)
        .arg("compare")
        .arg(&set)
        .arg(&set)
        .output()
        .expect("start bench_e2e compare");
    let table = String::from_utf8_lossy(&out.stdout).into_owned();
    std::fs::remove_dir_all(&dir).expect("remove test directory");
    // A set compared with itself is never worse or better; at these
    // sizes a timing may still be too noisy to resolve.
    assert!(
        table.contains("store_sweep") && table.contains("wall_s"),
        "{table}"
    );
    assert!(table.contains("worse 0, better 0"), "{table}");
}
