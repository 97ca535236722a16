//! A minimal wall-clock benchmark harness (no external crates).
//!
//! Each measurement warms the code path up, calibrates an iteration count
//! so one sample lasts roughly [`Timer::target_sample`], then takes
//! [`Timer::samples`] timed samples with [`std::time::Instant`] and reports
//! the **median** per-iteration time — the median is robust against the
//! scheduler preempting individual samples, which is the dominant noise
//! source for sub-millisecond code under a non-realtime OS.
//!
//! Results serialize to the `BENCH_1.json` document at the workspace root
//! via [`write_json`]; regenerate it with
//! `cargo run -p srtw-bench --release --bin experiments`.

use srtw_core::Json;
use std::path::Path;
use std::time::{Duration, Instant};

/// One benchmark measurement (per-iteration times in nanoseconds).
#[derive(Debug, Clone)]
pub struct Sample {
    /// Suite the measurement belongs to (`"convolution"`, `"rbf"`, …).
    pub group: &'static str,
    /// Benchmark id within the group, parameters included (`"conv_upto/50"`).
    pub name: String,
    /// Median per-iteration wall-clock time.
    pub median_ns: f64,
    /// Fastest sample's per-iteration time.
    pub min_ns: f64,
    /// Slowest sample's per-iteration time.
    pub max_ns: f64,
    /// Number of timed samples the statistics are over.
    pub samples: usize,
    /// Iterations per sample chosen by calibration.
    pub iters: u64,
}

/// Benchmark configuration: warmup budget, sample count, and the target
/// duration of one calibrated sample.
#[derive(Debug, Clone)]
pub struct Timer {
    /// Minimum time spent running the closure before any sample is timed.
    pub warmup: Duration,
    /// Number of timed samples (odd counts give an unambiguous median).
    pub samples: usize,
    /// Calibration target: one sample should last about this long.
    pub target_sample: Duration,
}

impl Default for Timer {
    fn default() -> Timer {
        Timer {
            warmup: Duration::from_millis(60),
            samples: 11,
            target_sample: Duration::from_millis(25),
        }
    }
}

impl Timer {
    /// A drastically shortened configuration for smoke tests.
    pub fn fast() -> Timer {
        Timer {
            warmup: Duration::from_micros(200),
            samples: 3,
            target_sample: Duration::from_micros(500),
        }
    }

    /// Default configuration, or [`Timer::fast`] when `SRTW_BENCH_FAST` is
    /// set (so CI can exercise every bench path cheaply).
    pub fn from_env() -> Timer {
        if std::env::var_os("SRTW_BENCH_FAST").is_some() {
            Timer::fast()
        } else {
            Timer::default()
        }
    }

    /// Measures `f`, returning the median/min/max per-iteration times.
    ///
    /// `f` should already contain a `std::hint::black_box` around the
    /// computed value so the optimizer cannot delete the work.
    pub fn bench<F: FnMut()>(&self, group: &'static str, name: impl Into<String>, mut f: F) -> Sample {
        // Warmup: run until the budget is spent (at least once).
        let warm_start = Instant::now();
        let mut warm_iters: u64 = 0;
        loop {
            f();
            warm_iters += 1;
            if warm_start.elapsed() >= self.warmup {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Calibration: enough iterations that one sample hits the target;
        // slow benchmarks degrade to a single iteration per sample.
        let iters = ((self.target_sample.as_secs_f64() / per_iter).round() as u64).max(1);

        let mut per_iter_ns: Vec<f64> = (0..self.samples.max(1))
            .map(|_| {
                let t0 = Instant::now();
                for _ in 0..iters {
                    f();
                }
                t0.elapsed().as_nanos() as f64 / iters as f64
            })
            .collect();
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let median_ns = per_iter_ns[per_iter_ns.len() / 2];

        Sample {
            group,
            name: name.into(),
            median_ns,
            min_ns: per_iter_ns[0],
            max_ns: per_iter_ns[per_iter_ns.len() - 1],
            samples: per_iter_ns.len(),
            iters,
        }
    }
}

/// Renders a duration in nanoseconds with a human-friendly unit.
pub fn human_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Prints one aligned line per sample, criterion-style.
pub fn print_samples(samples: &[Sample]) {
    let width = samples
        .iter()
        .map(|s| s.group.len() + 1 + s.name.len())
        .max()
        .unwrap_or(0);
    for s in samples {
        let id = format!("{}/{}", s.group, s.name);
        println!(
            "{id:<width$}  median {:>12}   range [{} .. {}]   ({} samples × {} iters)",
            human_ns(s.median_ns),
            human_ns(s.min_ns),
            human_ns(s.max_ns),
            s.samples,
            s.iters,
        );
    }
}

/// The samples as the `BENCH_1.json` document: benchmarks grouped by
/// suite, with per-iteration times in nanoseconds.
pub fn to_json(samples: &[Sample]) -> Json {
    let mut groups: Vec<(&'static str, Vec<Json>)> = Vec::new();
    for s in samples {
        let entry = Json::object(vec![
            ("name", Json::str(&s.name)),
            ("median_ns", Json::Float(s.median_ns)),
            ("min_ns", Json::Float(s.min_ns)),
            ("max_ns", Json::Float(s.max_ns)),
            ("samples", Json::Int(s.samples as i128)),
            ("iters", Json::Int(s.iters as i128)),
        ]);
        match groups.iter_mut().find(|(g, _)| *g == s.group) {
            Some((_, v)) => v.push(entry),
            None => groups.push((s.group, vec![entry])),
        }
    }
    Json::object(vec![
        ("schema", Json::str("srtw-bench-v1")),
        (
            "groups",
            Json::Object(
                groups
                    .into_iter()
                    .map(|(g, v)| (g.to_owned(), Json::Array(v)))
                    .collect(),
            ),
        ),
    ])
}

/// Writes [`to_json`] to `path` (pretty enough for diffing: one document,
/// trailing newline).
pub fn write_json(samples: &[Sample], path: &Path) -> std::io::Result<()> {
    std::fs::write(path, format!("{}\n", to_json(samples).render()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_measures_something_positive() {
        let t = Timer::fast();
        let mut acc = 0u64;
        let s = t.bench("test", "spin", || {
            for i in 0..100u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
        });
        assert!(s.median_ns > 0.0);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
        assert_eq!(s.samples, 3);
        assert!(s.iters >= 1);
    }

    #[test]
    fn json_groups_by_suite() {
        let samples = vec![
            Sample {
                group: "a",
                name: "x".into(),
                median_ns: 10.0,
                min_ns: 9.0,
                max_ns: 11.0,
                samples: 3,
                iters: 100,
            },
            Sample {
                group: "b",
                name: "y".into(),
                median_ns: 20.0,
                min_ns: 19.0,
                max_ns: 21.0,
                samples: 3,
                iters: 50,
            },
            Sample {
                group: "a",
                name: "z".into(),
                median_ns: 30.0,
                min_ns: 29.0,
                max_ns: 31.0,
                samples: 3,
                iters: 10,
            },
        ];
        let doc = to_json(&samples).render();
        assert!(doc.contains("\"schema\":\"srtw-bench-v1\""));
        assert!(doc.contains("\"groups\""));
        // Group "a" holds both of its entries, in insertion order.
        let a_pos = doc.find("\"a\":[").unwrap();
        let b_pos = doc.find("\"b\":[").unwrap();
        assert!(a_pos < b_pos);
        assert!(doc.find("\"x\"").unwrap() < doc.find("\"z\"").unwrap());
    }

    #[test]
    fn human_units() {
        assert_eq!(human_ns(500.0), "500 ns");
        assert_eq!(human_ns(1500.0), "1.500 µs");
        assert_eq!(human_ns(2.5e6), "2.500 ms");
        assert_eq!(human_ns(3.0e9), "3.000 s");
    }
}
