//! Small helpers shared by the workloads: order statistics, the seeded
//! generator, peak RSS, the scratch directory and the child-process call.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

use serde_json::Value;

use crate::spans::{self, Section, Span, Tracer};

/// Metric name → value for one iteration.
pub type Values = BTreeMap<String, f64>;

/// Operations attempted and failed, with one line per failure.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub messages: Vec<String>,
}

impl Checks {
    /// Counts `n` operations, `bad` of which failed because of `what`.
    pub fn ops(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        if bad > 0 {
            self.failed += bad;
            self.messages.push(format!("{what}: {bad} of {n} failed"));
        }
    }

    /// Counts one answer compared against its reference.
    pub fn equal<T: PartialEq + std::fmt::Debug>(&mut self, what: &str, got: T, want: T) {
        self.attempted += 1;
        if got != want {
            self.failed += 1;
            self.messages
                .push(format!("{what}: got {got:?}, want {want:?}"));
        }
    }

    pub fn merge(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.messages.extend(other.messages);
    }
}

/// What one iteration of a workload measured.
#[derive(Debug)]
pub struct Iteration {
    /// The set-up before the timed section.
    pub setup: Section,
    /// Everything measured, by metric name (plus a few intermediate
    /// figures the traced run combines).
    pub values: Values,
    pub checks: Checks,
    /// Batches the rack's tap captured for the store replay.
    pub captured: Vec<vnet_tsdb::RecordBatch>,
}

impl Iteration {
    pub fn after(setup: Section) -> Self {
        Iteration {
            setup,
            values: Values::new(),
            checks: Checks::default(),
            captured: Vec::new(),
        }
    }
}

/// `(first quartile, median, third quartile)` as Python's
/// `statistics.quantiles(values, n=4)` computes them, so the spreads
/// printed here are the ones the driver sees.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Median of `xs`; 0 if empty.
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// Nearest-rank quantile `q` in `0..=1` of `xs`; 0 if empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// SplitMix64: the benchmark's only source of randomness, so the same
/// `--seed` always generates the same inputs.
#[derive(Debug, Clone)]
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Peak resident set of this process in MiB (`VmHWM`); 0 without procfs.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// A scratch directory beside the benchmark executable — inside the
/// build output, so inside the checkout — removed when dropped.
#[derive(Debug)]
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let dir = exe
            .parent()
            .unwrap_or(Path::new("."))
            .join(format!("bench_e2e-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(Scratch(dir))
    }

    /// A fresh, empty sub-directory.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let dir = self.0.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What a cold-query child hands back on its standard output.
#[derive(Debug, Default)]
pub struct ChildReport {
    pub values: Values,
    pub checks: Checks,
    pub spans: Vec<Span>,
    /// `(seconds, passes)` of the yardstick the child ran.
    pub yardstick: (f64, u64),
}

impl ChildReport {
    pub fn to_json(&self) -> Value {
        let values = self
            .values
            .iter()
            .map(|(k, v)| (k.clone(), Value::Float(*v)))
            .collect();
        let messages = self
            .checks
            .messages
            .iter()
            .map(|m| Value::String(m.clone()))
            .collect();
        Value::Object(BTreeMap::from([
            ("values".to_owned(), Value::Object(values)),
            ("attempted".to_owned(), Value::UInt(self.checks.attempted)),
            ("failed".to_owned(), Value::UInt(self.checks.failed)),
            ("messages".to_owned(), Value::Array(messages)),
            ("spans".to_owned(), spans::to_json(&self.spans)),
            ("yardstick_s".to_owned(), Value::Float(self.yardstick.0)),
            ("yardstick_passes".to_owned(), Value::UInt(self.yardstick.1)),
        ]))
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let values = v
            .get("values")
            .and_then(Value::as_object)
            .ok_or("child report: values")?
            .iter()
            .map(|(k, v)| Ok((k.clone(), v.as_f64().ok_or("child report: value")?)))
            .collect::<Result<Values, &str>>()?;
        let checks = Checks {
            attempted: v
                .get("attempted")
                .and_then(Value::as_u64)
                .ok_or("child report: attempted")?,
            failed: v
                .get("failed")
                .and_then(Value::as_u64)
                .ok_or("child report: failed")?,
            messages: v
                .get("messages")
                .and_then(Value::as_array)
                .ok_or("child report: messages")?
                .iter()
                .filter_map(|m| m.as_str().map(str::to_owned))
                .collect(),
        };
        let spans = spans::from_json(v.get("spans").ok_or("child report: spans")?)?;
        let yardstick = (
            v.get("yardstick_s")
                .and_then(Value::as_f64)
                .ok_or("child report: yardstick_s")?,
            v.get("yardstick_passes")
                .and_then(Value::as_u64)
                .ok_or("child report: yardstick_passes")?,
        );
        Ok(ChildReport {
            values,
            checks,
            spans,
            yardstick,
        })
    }
}

/// Re-executes this binary as a cold child for `phase` over the store
/// at `dir`, waits for it, and returns its report (the last line of its
/// output). The child's spans are adopted under a `harness.child` span
/// and its yardstick passes count as the caller's.
///
/// # Panics
///
/// Panics if the child cannot be started, fails, or prints no report.
pub fn run_child(phase: &str, dir: &Path, seed: u64, fast: bool, tr: &Tracer) -> ChildReport {
    let (report, _) = tr.timed("harness.child", 0, || {
        let exe = std::env::current_exe().expect("own path");
        let out = Command::new(exe)
            .args(["--phase", phase, "--dir"])
            .arg(dir)
            .args(["--seed", &seed.to_string()])
            .args(["--trace", &u8::from(tr.is_on()).to_string()])
            .args(fast.then_some("--fast"))
            .output()
            .unwrap_or_else(|e| panic!("spawn {phase} child: {e}"));
        assert!(
            out.status.success(),
            "{phase} child failed ({}):\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        let report = text
            .lines()
            .last()
            .ok_or("child printed nothing".to_owned())
            .and_then(|l| serde_json::parse_value(l).map_err(|e| e.to_string()))
            .and_then(|v| ChildReport::from_json(&v))
            .unwrap_or_else(|e| panic!("{phase} child report: {e}"));
        let mut report = report;
        tr.adopt(std::mem::take(&mut report.spans));
        tr.absorb_yardstick(report.yardstick.0, report.yardstick.1);
        report
    });
    report
}
