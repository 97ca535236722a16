//! Smoke test of the benchmark harness: every workload at 20 requests,
//! plain and traced, must answer correctly, emit every metric
//! `BENCHMARK.json` names with a finite value, and write spans whose
//! parents all exist.

use srtw_benchmark::json::{self, Value};
use std::collections::{BTreeMap, HashSet};
use std::path::{Path, PathBuf};
use std::process::Command;

fn benchmark_json() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    json::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"))
        .expect("parse BENCHMARK.json")
}

/// `name → unit` of the metrics listed under `key` in `BENCHMARK.json`.
fn listed(key: &str) -> BTreeMap<String, String> {
    benchmark_json()
        .get(key)
        .expect("BENCHMARK.json lists the metrics")
        .items()
        .iter()
        .map(|m| {
            (
                m.get("name")
                    .and_then(Value::str)
                    .expect("name")
                    .to_string(),
                m.get("unit")
                    .and_then(Value::str)
                    .expect("unit")
                    .to_string(),
            )
        })
        .collect()
}

fn scratch(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("srtw-benchmark-smoke-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the benchmark with its scratch space under `dir`; returns stdout.
fn bench(dir: &Path, args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_srtw-benchmark"))
        .args(args)
        .env("CARGO_TARGET_DIR", dir)
        .output()
        .expect("run srtw-benchmark");
    assert!(
        out.status.success(),
        "srtw-benchmark {args:?} failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 output")
}

fn finite(section: &Value, name: &str, context: &str) -> f64 {
    let v = section
        .get(name)
        .and_then(Value::num)
        .unwrap_or_else(|| panic!("{context}: {name} missing"));
    assert!(v.is_finite(), "{context}: {name} = {v}");
    v
}

#[test]
fn every_workload_emits_every_metric_plain_and_traced() {
    let dir = scratch("all");
    let out = dir.join("run.json");
    std::fs::create_dir_all(&dir).unwrap();
    let out_arg = out.display().to_string();
    bench(
        &dir,
        &[
            "--seed",
            "1",
            "--requests",
            "20",
            "--trace",
            "--out",
            &out_arg,
        ],
    );
    let doc = json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    let end_to_end = listed("end_to_end");
    let per_layer = listed("per_layer");
    for w in ["cold_random", "warm_repeat", "incremental", "durable"] {
        let entry = doc
            .get("workloads")
            .and_then(|ws| ws.get(w))
            .expect("workload entry");
        let traced = entry.get("traced").expect("traced run");
        for (pass, metrics) in [
            ("plain", entry.get("metrics")),
            ("traced", traced.get("metrics")),
        ] {
            let metrics = metrics.expect("metrics");
            let context = format!("{w} {pass}");
            for name in end_to_end.keys() {
                let v = finite(metrics, name, &context);
                // CPU time is counted in 10 ms ticks: 20 cache hits may
                // not reach one.
                assert!(
                    v > 0.0 || name == "cpu_ms_per_req" && v == 0.0,
                    "{context}: {name} = {v}"
                );
            }
            assert_eq!(finite(metrics, "error_rate", &context), 0.0, "{context}");
            assert_eq!(finite(metrics, "exact_share", &context), 1.0, "{context}");
        }
        let layers = traced.get("layers").expect("per-layer metrics");
        for name in per_layer.keys() {
            finite(layers, name, w);
        }

        let spans = dir
            .join("srtw-benchmark/spans")
            .join(format!("{w}-seed1.jsonl"));
        let text = std::fs::read_to_string(&spans).expect("spans written");
        let mut ids = HashSet::new();
        let mut requests = 0;
        for line in text.lines() {
            let span = json::parse(line).expect("span is JSON");
            let id = span.get("id").and_then(Value::num).expect("span id");
            match span.get("parent") {
                Some(Value::Null) => {}
                Some(p) => {
                    let p = p.num().expect("numeric parent");
                    assert!(
                        ids.contains(&(p as u64)),
                        "{w}: span {id} has no parent {p}"
                    );
                }
                None => panic!("{w}: span {id} lacks a parent field"),
            }
            requests += usize::from(span.get("name").and_then(Value::str) == Some("request"));
            ids.insert(id as u64);
        }
        assert_eq!(requests, 20, "{w}: one request span per completed request");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn single_workload_mode_prints_the_result_line() {
    let dir = scratch("one");
    for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
        let stdout = bench(
            &dir,
            &[
                "--workload",
                "incremental",
                "--seed",
                "2",
                "--requests",
                "20",
                "--trace",
                trace,
            ],
        );
        let line =
            json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON");
        assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(line.get("attempted").and_then(Value::num), Some(20.0));
        assert_eq!(line.get("failed").and_then(Value::num), Some(0.0));
        let metrics = line.get("metrics").expect("metrics");
        let emitted: BTreeMap<String, String> = metrics
            .members()
            .map(|(name, m)| {
                finite(m, "value", name);
                (
                    name.clone(),
                    m.get("unit").and_then(Value::str).unwrap_or("").to_string(),
                )
            })
            .collect();
        assert_eq!(emitted, listed(key), "--trace {trace}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
