//! The `srtw-benchmark` command line: run, compare, noise.

use srtw_benchmark::json::{self, Value};
use srtw_benchmark::metrics::{self, END_TO_END};
use srtw_benchmark::workload::{self, Workload, WORKLOADS};
use srtw_benchmark::{compare, run, DEFAULT_SECONDS};
use srtw_core::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

const USAGE: &str = "\
usage:
  srtw-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
                 [--requests N] [--out FILE]
      Runs one workload (or all four) and prints every metric. With
      --workload the last stdout line is the machine-readable result:
      end-to-end metrics, or per-layer metrics with --trace 1.
  srtw-benchmark compare PARENT.json... -- CHANGE.json...
      Compares result files (--out) of two commits; exits 1 on a regression.
  srtw-benchmark noise RUN.json...
      Prints the noise-floor record (baseline quartiles per workload and
      metric) of result files of one commit.";

struct RunArgs {
    /// `None`: all four workloads, each pass in a process of its own.
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    requests: Option<usize>,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut r = RunArgs {
        workload: None,
        seed: 1,
        seconds: DEFAULT_SECONDS,
        requests: None,
        trace: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let number = |v: String| {
            v.parse::<f64>()
                .map_err(|_| format!("bad value for {flag}: {v}"))
        };
        match flag {
            "--workload" => {
                let name = value()?;
                r.workload =
                    Some(workload::find(&name).ok_or_else(|| format!("unknown workload {name}"))?);
            }
            "--seed" => r.seed = number(value()?)? as u64,
            "--seconds" => r.seconds = number(value()?)?,
            "--requests" => r.requests = Some(number(value()?)? as usize),
            "--out" => r.out = Some(PathBuf::from(value()?)),
            "--trace" => {
                // `--trace` alone, or `--trace 0|1`.
                r.trace = match args.get(i + 1).map(String::as_str) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        i -= 1;
                        true
                    }
                };
                i += 1;
            }
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    if r.seconds.is_nan() || r.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(r)
}

/// Scratch space inside the checkout: the cargo target directory.
fn work_root() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("target"))
        .join("srtw-benchmark")
}

fn values_json(values: &[(&'static str, f64)], with_units: bool) -> Json {
    Json::Object(
        values
            .iter()
            .map(|&(name, v)| {
                let value = if with_units {
                    Json::object(vec![
                        ("value", Json::Float(v)),
                        ("unit", Json::str(metrics::unit(name))),
                    ])
                } else {
                    Json::Float(v)
                };
                (name.to_string(), value)
            })
            .collect(),
    )
}

fn print_table(title: &str, rows: &[(&'static str, f64)]) {
    println!("  {title}");
    for &(name, v) in rows {
        println!("    {name:<24} {v:>14.4} {}", metrics::unit(name));
    }
}

fn result_file(a: &RunArgs, workloads: Vec<(String, Json)>) -> Json {
    Json::object(vec![
        ("schema", Json::str("srtw-benchmark-v1")),
        ("seed", Json::Int(a.seed as i128)),
        ("seconds", Json::Float(a.seconds)),
        ("workloads", Json::Object(workloads)),
    ])
}

fn write(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs one pass of one workload in this process: prints its tables and,
/// last, the result line. Returns whether it was correct.
fn run_one(a: &RunArgs, w: &'static Workload) -> Result<bool, String> {
    let requests = a
        .requests
        .unwrap_or_else(|| (w.rate as f64 * a.seconds).round().max(1.0) as usize);
    let root = work_root();
    std::fs::create_dir_all(root.join("spans")).map_err(|e| format!("{}: {e}", root.display()))?;
    let opts = run::Options {
        workload: w,
        seed: a.seed,
        requests,
        trace: a.trace,
        work: root.join(format!("run-{}-{}", std::process::id(), w.name)),
        spans: root
            .join("spans")
            .join(format!("{}-seed{}.jsonl", w.name, a.seed)),
    };
    let o = run::run(&opts)?;
    let correct = o.failed == 0;
    println!(
        "{}: seed {} {}attempted {} failed {} timed {:.2} s",
        w.name,
        a.seed,
        if a.trace { "traced, " } else { "" },
        o.attempted,
        o.failed,
        o.timed_secs
    );
    for p in o.problems.iter().take(10) {
        eprintln!("  problem: {p}");
    }
    if o.problems.len() > 10 {
        eprintln!("  … {} more problems", o.problems.len() - 10);
    }
    print_table("end to end", &o.metrics);
    let mut entry = vec![
        ("requests", Json::Int(requests as i128)),
        ("attempted", Json::Int(o.attempted as i128)),
        ("failed", Json::Int(o.failed as i128)),
        ("timed_secs", Json::Float(o.timed_secs)),
        ("metrics", values_json(&o.metrics, false)),
    ];
    if a.trace {
        print_table("per layer", &o.layers);
        println!("  self time (median us per span)");
        for (name, us) in &o.self_us {
            println!("    {name:<24} {us:>14.1}");
        }
        let within = o.within_rtt.unwrap_or(0.0);
        println!(
            "  in-process spans within the round trip: {:.1}% of sampled requests; spans in {}",
            100.0 * within,
            opts.spans.display()
        );
        let self_us: Vec<(&'static str, f64)> = o.self_us.iter().map(|(k, v)| (*k, *v)).collect();
        entry.extend([
            ("layers", values_json(&o.layers, false)),
            ("self_us", values_json(&self_us, false)),
            ("within_rtt", Json::Float(within)),
        ]);
    }
    if let Some(path) = &a.out {
        let entry = Json::object(entry);
        let entry = if a.trace {
            Json::object(vec![("traced", entry)])
        } else {
            entry
        };
        write(path, &result_file(a, vec![(w.name.to_string(), entry)]))?;
    }
    let values: Vec<(&'static str, f64)> = if a.trace {
        o.layers.clone()
    } else {
        o.metrics
            .iter()
            .copied()
            .filter(|(name, _)| END_TO_END.iter().any(|m| m.name == *name && !m.constant))
            .collect()
    };
    let line = Json::object(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(o.attempted as i128)),
        ("failed", Json::Int(o.failed as i128)),
        ("metrics", values_json(&values, true)),
    ]);
    println!("{line}");
    Ok(correct)
}

/// A parsed JSON value back as a writer tree.
fn to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Num(x) => Json::Float(*x),
        Value::Str(s) => Json::str(s.as_str()),
        Value::Array(xs) => Json::Array(xs.iter().map(to_json).collect()),
        Value::Object(m) => Json::Object(m.iter().map(|(k, v)| (k.clone(), to_json(v))).collect()),
    }
}

/// Runs every workload, each pass in a fresh process of this binary, so
/// no pass inherits another's memory (`rss_mb`) or warm state.
fn run_all(a: &RunArgs) -> Result<bool, String> {
    let root = work_root();
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut correct = true;
    let mut workloads = Vec::new();
    for w in &WORKLOADS {
        let mut entries: Vec<Value> = Vec::new();
        for trace in [false, true].into_iter().take(1 + usize::from(a.trace)) {
            let part = root.join(format!(
                "part-{}-{}-{trace}.json",
                std::process::id(),
                w.name
            ));
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", w.name, "--seed", &a.seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(&part);
            if let Some(n) = a.requests {
                cmd.args(["--requests", &n.to_string()]);
            }
            let status = cmd
                .status()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            correct &= status.success();
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("{}: {} produced no result ({e})", w.name, status))?;
            let _ = std::fs::remove_file(&part);
            let doc = json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
            entries.push(
                doc.get("workloads")
                    .and_then(|ws| ws.get(w.name))
                    .cloned()
                    .ok_or_else(|| format!("{}: result lacks the workload", part.display()))?,
            );
        }
        // The traced pass's end-to-end metrics next to the plain ones:
        // their difference is the tracing overhead.
        if let [plain, traced] = &entries[..] {
            println!("{}: end to end, plain vs traced", w.name);
            let value = |entry: Option<&Value>, name: &str| {
                entry
                    .and_then(|e| e.get("metrics"))
                    .and_then(|m| m.get(name))
                    .and_then(Value::num)
                    .unwrap_or(f64::NAN)
            };
            for m in &END_TO_END {
                let (p, t) = (
                    value(Some(plain), m.name),
                    value(traced.get("traced"), m.name),
                );
                println!("    {:<24} {p:>14.4} {t:>14.4} {}", m.name, m.unit);
            }
        }
        let merged = entries
            .iter()
            .flat_map(|e| e.members().map(|(k, v)| (k.clone(), to_json(v))))
            .collect();
        workloads.push((w.name.to_string(), Json::Object(merged)));
    }
    if let Some(path) = &a.out {
        write(path, &result_file(a, workloads))?;
    }
    Ok(correct)
}

fn run_cmd(args: &[String]) -> ExitCode {
    let a = match parse_run_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("srtw-benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match a.workload {
        Some(w) => run_one(&a, w),
        None => run_all(&a),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("srtw-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("compare") => compare::compare_cmd(&args[1..]),
        Some("noise") => compare::noise_cmd(&args[1..]),
        Some("-h" | "--help") => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        _ => run_cmd(&args),
    }
}
