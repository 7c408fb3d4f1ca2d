//! `bench_e2e compare A B`: the verdict every later change is read by.
//!
//! A result set is a file of result lines as `--out FILE` appends them,
//! at least three runs per workload. For each metric and workload the
//! tool prints both sides' median and quartiles and calls the pair
//! `same`, `worse`, `better`, or `unresolved` when either side's own
//! quartile spread is wider than the metric's bound.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::catalog::{Kind, Metric, METRICS};
use crate::util::quartiles;

/// Runs per workload a result set needs before a median means anything.
const MIN_RUNS: usize = 3;

/// `(workload, metric)` → one value per run.
pub type ResultSet = BTreeMap<(String, String), Vec<f64>>;

/// Parses a result-set file: one JSON object per line with `workload`
/// and `metrics`.
pub fn parse(text: &str) -> Result<ResultSet, String> {
    let mut set = ResultSet::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = serde_json::parse_value(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or(format!("line {}: no workload", n + 1))?;
        let metrics = v
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or(format!("line {}: no metrics", n + 1))?;
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("line {}: {name} has no value", n + 1))?;
            set.entry((workload.to_owned(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// The verdict for one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

/// Compares the runs of `b` against the baseline runs `a` for metric `m`.
pub fn verdict(m: &Metric, a: &[f64], b: &[f64]) -> Verdict {
    let (a1, am, a3) = quartiles(a);
    let (b1, bm, b3) = quartiles(b);
    let spread = |q1: f64, med: f64, q3: f64| {
        if med == 0.0 {
            q3 - q1
        } else {
            (q3 - q1) / med.abs()
        }
    };
    if spread(a1, am, a3) > m.bound || spread(b1, bm, b3) > m.bound {
        return Verdict::Unresolved;
    }
    let worse_by = if m.higher_is_better { am - bm } else { bm - am };
    let limit = m.bound * am.abs();
    if worse_by > limit {
        Verdict::Worse
    } else if -worse_by > limit {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Renders the comparison table and counts the verdicts that are not
/// `same`, in `(worse, better, unresolved)` order.
pub fn render(a: &ResultSet, b: &ResultSet) -> Result<(String, [usize; 3]), String> {
    let mut out = format!(
        "{:<16} {:<38} {:>38} {:>38}  verdict\n",
        "workload", "metric", "A: q1 / median / q3", "B: q1 / median / q3"
    );
    let mut counts = [0usize; 3];
    for m in METRICS.iter().filter(|m| m.kind != Kind::Info) {
        for w in m.workloads {
            let key = ((*w).to_owned(), m.name.to_owned());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            if va.len() < MIN_RUNS || vb.len() < MIN_RUNS {
                return Err(format!(
                    "{w} {}: {} and {} runs, need {MIN_RUNS} on each side",
                    m.name,
                    va.len(),
                    vb.len()
                ));
            }
            let v = verdict(m, va, vb);
            match v {
                Verdict::Same => {}
                Verdict::Worse => counts[0] += 1,
                Verdict::Better => counts[1] += 1,
                Verdict::Unresolved => counts[2] += 1,
            }
            let cell = |x: &[f64]| {
                let (q1, med, q3) = quartiles(x);
                format!("{q1:.6} / {med:.6} / {q3:.6}")
            };
            out.push_str(&format!(
                "{:<16} {:<38} {:>38} {:>38}  {}{}\n",
                w,
                m.name,
                cell(va),
                cell(vb),
                format!("{v:?}").to_lowercase(),
                if m.kind == Kind::Exact {
                    " (exact)"
                } else {
                    ""
                },
            ));
        }
    }
    Ok((out, counts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing() -> Metric {
        *METRICS.iter().find(|m| m.name == "wall_s").expect("wall_s")
    }

    #[test]
    fn quartiles_match_pythons_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_direction() {
        let m = timing();
        let base = [1.00, 1.01, 0.99];
        let shift = |f: f64| base.map(|x| x * f);
        assert_eq!(
            verdict(&m, &base, &shift(1.0 + m.bound / 2.0)),
            Verdict::Same
        );
        assert_eq!(
            verdict(&m, &base, &shift(1.0 + m.bound * 2.0)),
            Verdict::Worse
        );
        assert_eq!(
            verdict(&m, &base, &shift(1.0 - m.bound * 2.0)),
            Verdict::Better
        );
        let noisy = [1.0, 1.0 + m.bound * 2.0, 1.0 - m.bound * 2.0];
        assert_eq!(verdict(&m, &base, &noisy), Verdict::Unresolved);

        let exact = *METRICS
            .iter()
            .find(|m| m.name == "sim.events")
            .expect("sim.events");
        assert_eq!(verdict(&exact, &[7.0; 3], &[7.0; 3]), Verdict::Same);
        assert_eq!(verdict(&exact, &[7.0; 3], &[8.0; 3]), Verdict::Worse);
        assert_eq!(
            verdict(&exact, &[7.0, 7.0, 8.0], &[7.0; 3]),
            Verdict::Unresolved
        );
    }
}
