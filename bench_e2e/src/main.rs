//! Command line of the benchmark.
//!
//! ```text
//! bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--fast] [--out FILE]
//! bench_e2e list [BENCHMARK.json]
//! bench_e2e compare A.jsonl B.jsonl
//! ```
//!
//! A run prints every metric by name with its unit and bound, then one
//! JSON object on the last line of standard output. `--phase` is the
//! internal protocol of the cold-query children.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::process::ExitCode;

use bench_e2e::catalog;
use bench_e2e::{compare, spans, RunArgs};
use serde_json::Value;

fn flag(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: cannot read {text:?}")),
        None => Ok(default),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("list") => list(args.get(1).map_or("BENCHMARK.json", String::as_str)),
        Some("compare") => match (args.get(1), args.get(2)) {
            (Some(a), Some(b)) => compare_sets(a, b),
            _ => Err("usage: bench_e2e compare A.jsonl B.jsonl".into()),
        },
        _ if flag(&args, "--phase").is_some() => child(&args),
        _ => run(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn list(manifest: &str) -> Result<ExitCode, String> {
    print!("{}", catalog::render());
    for (w, why) in catalog::WORKLOADS.iter().zip(catalog::WHY) {
        println!("workload {w}: {why}");
    }
    let text = std::fs::read_to_string(manifest).map_err(|e| format!("{manifest}: {e}"))?;
    let json = serde_json::parse_value(&text).map_err(|e| format!("{manifest}: {e}"))?;
    catalog::check_manifest(&json)?;
    println!("{manifest} names the same workloads and metrics");
    Ok(ExitCode::SUCCESS)
}

fn compare_sets(a: &str, b: &str) -> Result<ExitCode, String> {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| compare::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (table, [worse, better, unresolved]) = compare::render(&read(a)?, &read(b)?)?;
    print!("{table}");
    println!("worse {worse}, better {better}, unresolved {unresolved}");
    Ok(if worse + unresolved == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn child(args: &[String]) -> Result<ExitCode, String> {
    let phase = flag(args, "--phase").expect("checked by the caller");
    let dir = flag(args, "--dir").ok_or("--phase needs --dir")?;
    let report = bench_e2e::child(
        &phase,
        Path::new(&dir),
        parsed(args, "--seed", 42)?,
        args.iter().any(|a| a == "--fast"),
        parsed(args, "--trace", 0u8)? != 0,
    );
    println!("{}", report.to_json());
    Ok(ExitCode::SUCCESS)
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let workload = flag(args, "--workload").ok_or(
        "usage: bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--fast] \
         [--out FILE] | list | compare A B",
    )?;
    if !catalog::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {:?}",
            catalog::WORKLOADS
        ));
    }
    let run_args = RunArgs {
        workload,
        seed: parsed(args, "--seed", 42)?,
        seconds: parsed(args, "--seconds", 15.0)?,
        trace: parsed(args, "--trace", 0u8)? != 0,
        fast: args.iter().any(|a| a == "--fast"),
    };
    let outcome = bench_e2e::run(&run_args);

    let mut metrics = BTreeMap::new();
    for m in catalog::printed(run_args.trace) {
        let value = outcome.metrics[m.name];
        let measured_here = m.workloads.contains(&run_args.workload.as_str());
        println!(
            "{:<40} {:>18.6} {:<10} {}",
            m.name,
            value,
            m.unit,
            if measured_here {
                format!(
                    "{} is better, bound {}",
                    if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    },
                    catalog::bound_text(m)
                )
            } else {
                "(layer idle on this workload)".to_owned()
            }
        );
        metrics.insert(
            m.name.to_owned(),
            serde_json::object([
                ("value", Value::Float(value)),
                ("unit", Value::String(m.unit.into())),
            ]),
        );
    }
    for line in &outcome.checks.messages {
        eprintln!("check failed: {line}");
    }
    let correct = outcome.checks.failed == 0;
    let result = serde_json::object([
        ("correct", Value::Bool(correct)),
        ("attempted", Value::UInt(outcome.checks.attempted)),
        ("failed", Value::UInt(outcome.checks.failed)),
        ("metrics", Value::Object(metrics)),
    ]);

    if run_args.trace {
        let path = std::env::current_exe()
            .map_err(|e| format!("own path: {e}"))?
            .with_file_name(format!("bench_e2e-spans-{}.json", run_args.workload));
        std::fs::write(&path, spans::to_json(&outcome.spans).to_string())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!(
            "{} spans written to {}",
            outcome.spans.len(),
            path.display()
        );
    }
    if let Some(out) = flag(args, "--out") {
        let mut line = result.clone();
        if let Value::Object(o) = &mut line {
            o.insert("workload".into(), Value::String(run_args.workload.clone()));
            o.insert("seed".into(), Value::UInt(run_args.seed));
            o.insert("trace".into(), Value::Bool(run_args.trace));
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&out)
            .map_err(|e| format!("{out}: {e}"))?;
        writeln!(file, "{line}").map_err(|e| format!("{out}: {e}"))?;
    }
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
