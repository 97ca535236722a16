//! `compare` and `noise`: the decision rules of the choosing-metrics guide
//! (§8) applied to result files written by `--out`.
//!
//! A row per (workload, end-to-end metric) shows each side's median and
//! quartiles. A **regression** is a change median worse than the parent's
//! by more than the metric's bound (relative, from `BENCHMARK.json`) or its
//! absolute floor (from `benchmark/noise.json`), whichever is larger. A row
//! whose parent runs spread wider than the bound is **unresolved** unless
//! every change run beats every parent run. A **gain** needs at least 10
//! paired runs, the change winning at least 9 in 10 of them (ties count for
//! neither), and the medians to differ by more than the parent's quartile
//! spread.

use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::stats::quartiles;
use crate::workload::WORKLOADS;
use srtw_core::Json;
use std::collections::BTreeMap;
use std::process::ExitCode;

const BENCHMARK_JSON: &str = "BENCHMARK.json";
const NOISE_JSON: &str = "benchmark/noise.json";

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `values[workload][metric]` = one value per run file, in file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn collect(paths: &[String]) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for path in paths {
        let doc = load(path)?;
        let workloads = doc
            .get("workloads")
            .ok_or_else(|| format!("{path}: not a result file (no \"workloads\")"))?;
        for (w, entry) in workloads.members() {
            for (m, v) in entry.get("metrics").into_iter().flat_map(Value::members) {
                if let Some(x) = v.num() {
                    runs.entry(w.clone())
                        .or_default()
                        .entry(m.clone())
                        .or_default()
                        .push(x);
                }
            }
        }
    }
    Ok(runs)
}

/// Relative bounds by metric name from `BENCHMARK.json`; the constant
/// correctness metrics are not listed there and get a bound of 0.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let doc = load(BENCHMARK_JSON)?;
    Ok(doc
        .get("end_to_end")
        .map(Value::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| Some((m.get("name")?.str()?.to_string(), m.get("bound")?.num()?)))
        .collect())
}

/// Absolute floors `floors[workload][metric]` from the noise record, if
/// one has been written.
fn floors() -> BTreeMap<(String, String), f64> {
    let Ok(doc) = load(NOISE_JSON) else {
        return BTreeMap::new();
    };
    let mut out = BTreeMap::new();
    for (w, metrics) in doc.get("baseline").into_iter().flat_map(Value::members) {
        for (m, row) in metrics.members() {
            if let Some(f) = row.get("floor").and_then(Value::num) {
                out.insert((w.clone(), m.clone()), f);
            }
        }
    }
    out
}

#[derive(Debug, PartialEq, Eq)]
enum Verdict {
    Same,
    Gain,
    Regression,
    Unresolved,
}

/// Applies the decision rules to one row. `lower` is the metric's
/// direction; `tolerance` the larger of bound·|parent median| and the floor.
fn judge(parent: &[f64], change: &[f64], lower: bool, bound: f64, tolerance: f64) -> Verdict {
    let (pq1, pm, pq3) = quartiles(parent);
    let (_, cm, _) = quartiles(change);
    // Positive when the change is worse.
    let worse = if lower { cm - pm } else { pm - cm };
    if worse > tolerance {
        return Verdict::Regression;
    }
    let better = |c: f64, p: f64| if lower { c < p } else { c > p };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    let spread = if pm != 0.0 {
        (pq3 - pq1) / pm.abs()
    } else {
        0.0
    };
    if spread > bound && !all_better {
        return Verdict::Unresolved;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&p, &c)| better(c, p))
        .count();
    if pairs >= 10 && wins * 10 >= pairs * 9 && -worse > pq3 - pq1 {
        return Verdict::Gain;
    }
    Verdict::Same
}

pub fn compare_cmd(args: &[String]) -> ExitCode {
    let Some(split) = args.iter().position(|a| a == "--") else {
        eprintln!("usage: srtw-benchmark compare PARENT.json... -- CHANGE.json...");
        return ExitCode::from(2);
    };
    let (parent_files, change_files) = (&args[..split], &args[split + 1..]);
    if parent_files.is_empty() || change_files.is_empty() {
        eprintln!("usage: srtw-benchmark compare PARENT.json... -- CHANGE.json...");
        return ExitCode::from(2);
    }
    let loaded = collect(parent_files).and_then(|p| Ok((p, collect(change_files)?, bounds()?)));
    let (parent, change, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("srtw-benchmark compare: {e}");
            return ExitCode::from(2);
        }
    };
    let floors = floors();
    let mut regressions = 0;
    println!(
        "{:<12} {:<15} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict",
        "workload", "metric", "parent", "[q1, q3]", "change", "[q1, q3]", "delta", "bound"
    );
    for w in WORKLOADS.iter().map(|w| w.name) {
        let (Some(pw), Some(cw)) = (parent.get(w), change.get(w)) else {
            continue;
        };
        for m in &END_TO_END {
            let (Some(p), Some(c)) = (pw.get(m.name), cw.get(m.name)) else {
                continue;
            };
            let bound = bounds.get(m.name).copied().unwrap_or(0.0);
            let floor = floors
                .get(&(w.to_string(), m.name.to_string()))
                .copied()
                .unwrap_or(0.0);
            let (pq1, pm, pq3) = quartiles(p);
            let (cq1, cm, cq3) = quartiles(c);
            let tolerance = (bound * pm.abs()).max(floor);
            let verdict = judge(p, c, m.better == "lower", bound, tolerance);
            if verdict == Verdict::Regression {
                regressions += 1;
            }
            let delta = if pm != 0.0 {
                format!("{:+.1}%", 100.0 * (cm - pm) / pm.abs())
            } else {
                "-".into()
            };
            println!(
                "{w:<12} {:<15} {pm:>12.4} [{pq1:>11.4}, {pq3:>11.4}] {cm:>12.4} [{cq1:>11.4}, {cq3:>11.4}] {delta:>8} {:>5.0}%  {}",
                m.name,
                100.0 * bound,
                format!("{verdict:?}").to_lowercase()
            );
        }
    }
    if regressions > 0 {
        println!("{regressions} regression(s)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

pub fn noise_cmd(files: &[String]) -> ExitCode {
    let loaded = collect(files).and_then(|runs| Ok((runs, bounds()?)));
    let (runs, bounds) = match loaded {
        Ok(x) => x,
        Err(e) => {
            eprintln!("srtw-benchmark noise: {e}");
            return ExitCode::from(2);
        }
    };
    let cmd = "cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml --";
    let mut baseline = Vec::new();
    for w in WORKLOADS.iter().map(|w| w.name) {
        let Some(metrics) = runs.get(w) else { continue };
        let mut rows = Vec::new();
        for m in &END_TO_END {
            let Some(values) = metrics.get(m.name) else {
                continue;
            };
            let (q1, med, q3) = quartiles(values);
            let spread = if med != 0.0 {
                (q3 - q1) / med.abs()
            } else {
                0.0
            };
            let bound = bounds.get(m.name).copied().unwrap_or(0.0);
            if spread > bound && m.name != "setup_s" {
                eprintln!(
                    "warning: {w} {}: spread {:.1}% exceeds the {:.0}% bound",
                    m.name,
                    100.0 * spread,
                    100.0 * bound
                );
            }
            rows.push((
                m.name,
                Json::object(vec![
                    ("median", Json::Float(med)),
                    ("q1", Json::Float(q1)),
                    ("q3", Json::Float(q3)),
                    ("spread", Json::Float(spread)),
                    ("floor", Json::Float(q3 - q1)),
                ]),
            ));
        }
        baseline.push((w, Json::object(rows)));
    }
    let doc = Json::object(vec![
        ("schema", Json::str("srtw-benchmark-noise-v1")),
        ("paths", Json::Array(vec![Json::str("benchmark")])),
        (
            "commands",
            Json::object(vec![
                ("run", Json::str(format!("{cmd} --seed 1 --out RUN.json"))),
                (
                    "trace",
                    Json::str(format!("{cmd} --seed 1 --trace --out RUN.json")),
                ),
                (
                    "compare",
                    Json::str(format!("{cmd} compare PARENT.json... -- CHANGE.json...")),
                ),
                ("noise", Json::str(format!("{cmd} noise RUN.json..."))),
            ]),
        ),
        (
            "seeds",
            Json::object(vec![
                ("development", Json::Int(1)),
                ("claims", Json::Int(2)),
            ]),
        ),
        (
            "workloads",
            Json::Array(
                WORKLOADS
                    .iter()
                    .map(|w| {
                        Json::object(vec![
                            ("name", Json::str(w.name)),
                            ("traffic", Json::str(w.traffic)),
                            ("why", Json::str(w.why)),
                            ("clients", Json::Int(crate::run::CLIENTS as i128)),
                            (
                                "requests",
                                Json::Int((w.rate as f64 * crate::DEFAULT_SECONDS) as i128),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Array(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::object(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            (
                                "bound",
                                Json::Float(bounds.get(m.name).copied().unwrap_or(0.0)),
                            ),
                            (
                                "floor",
                                Json::str("baseline.<workload>.<metric>.floor (q3 - q1)"),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Array(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::object(vec![
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("layer", Json::str(m.layer)),
                            ("moves", Json::str(m.moves)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("runs", Json::Int(files.len() as i128)),
        ("baseline", Json::object(baseline)),
    ]);
    println!("{doc}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regressions_gains_and_unresolved_rows() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        let slower: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        let faster: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        let same: Vec<f64> = parent.iter().rev().copied().collect();
        assert_eq!(
            judge(&parent, &slower, true, 0.1, 10.0),
            Verdict::Regression
        );
        assert_eq!(judge(&parent, &faster, true, 0.1, 10.0), Verdict::Gain);
        assert_eq!(judge(&parent, &same, true, 0.1, 10.0), Verdict::Same);
        // Higher-is-better flips the direction.
        assert_eq!(judge(&parent, &slower, false, 0.1, 10.0), Verdict::Gain);
        // A parent spread wider than the bound cannot call "same".
        let noisy = [
            50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0,
        ];
        assert_eq!(judge(&noisy, &noisy, true, 0.1, 10.0), Verdict::Unresolved);
        // A zero bound flags any worsening of a correctness gate.
        assert_eq!(
            judge(&[0.0, 0.0], &[0.0, 0.01], true, 0.0, 0.0),
            Verdict::Regression
        );
    }
}
