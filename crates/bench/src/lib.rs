//! # srtw-bench — experiment harness
//!
//! Regenerates every table and figure of the evaluation (see
//! `EXPERIMENTS.md` at the workspace root for the per-experiment index and
//! the recorded outputs). Each experiment is a pure function printing a
//! plain-text table; the `experiments` binary dispatches on experiment ids
//! and additionally runs the in-house benchmark [`suites`] (timed by
//! [`timing`]) to produce `BENCH_1.json`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod gate;
pub mod suites;
pub mod timing;

use srtw_core::{
    backlog_bound, fifo_rtc, fifo_structural, rtc_delay, structural_delay,
    structural_delay_with, AnalysisConfig,
};
use srtw_gen::{generate_drt, generate_task_set, DrtGenConfig};
use srtw_minplus::{q, Curve, Q};
use srtw_resource::{Server, TdmaServer};
use srtw_sim::{earliest_random_walk, simulate_fifo, ServiceProcess};
use srtw_workload::{DrtTask, DrtTaskBuilder};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One experiment's output: a titled table that can be printed and/or
/// exported as CSV.
#[derive(Debug, Clone)]
pub struct Table {
    /// Experiment id (`e1`…), used as the CSV file stem.
    pub id: &'static str,
    /// Human-readable description (setup parameters included).
    pub title: String,
    /// Column names.
    pub header: Vec<&'static str>,
    /// Row-major cells, already formatted.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    fn new(id: &'static str, title: impl Into<String>, header: Vec<&'static str>) -> Table {
        Table {
            id,
            title: title.into(),
            header,
            rows: Vec::new(),
        }
    }

    fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.header.len());
        self.rows.push(cells);
    }

    /// Prints the table with aligned columns.
    pub fn print(&self) {
        println!("{}: {}", self.id.to_uppercase(), self.title);
        let widths: Vec<usize> = self
            .header
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r[i].len())
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let fmt_row = |cells: Vec<&str>| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(self.header.to_vec()));
        for r in &self.rows {
            println!("{}", fmt_row(r.iter().map(String::as_str).collect()));
        }
    }

    /// Writes the table as `<dir>/<id>.csv`, returning the path.
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.csv", self.id));
        let mut f = std::fs::File::create(&path)?;
        writeln!(f, "# {}", self.title)?;
        writeln!(f, "{}", self.header.join(","))?;
        for r in &self.rows {
            writeln!(f, "{}", r.join(","))?;
        }
        Ok(path)
    }
}

/// Mean of rational values as `f64` (display only).
fn mean(values: &[Q]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().map(|v| v.to_f64()).sum::<f64>() / values.len() as f64
}

/// Average per-vertex structural bound of one analysis.
fn avg_vertex_bound(a: &srtw_core::DelayAnalysis) -> Q {
    let sum: Q = a
        .per_vertex
        .iter()
        .map(|b| b.bound)
        .fold(Q::ZERO, |x, y| x + y);
    sum / Q::int(a.per_vertex.len() as i128)
}

/// Worst simulated delay of a task over `runs` random earliest traces on a
/// fluid server of the given `rate` (which dominates every lower service
/// curve of that rate used in the analyses).
fn simulated_max(task: &DrtTask, rate: Q, runs: u64, horizon: Q) -> Q {
    let service = ServiceProcess::fluid(rate);
    let mut worst = Q::ZERO;
    for seed in 0..runs {
        let trace = earliest_random_walk(task, horizon, None, seed);
        let out = simulate_fifo(
            std::slice::from_ref(task),
            std::slice::from_ref(&trace),
            &service,
        );
        worst = worst.max(out.max_delay());
    }
    worst
}

fn batch_cfg(vertices: usize, u: Q) -> DrtGenConfig {
    DrtGenConfig {
        vertices,
        extra_edges: vertices,
        separation_range: (5, 40),
        wcet_range: (1, 9),
        target_utilization: Some(u),
        deadline_factor: None,
    }
}

/// E1 — delay bounds vs server bandwidth (figure).
///
/// Random 8-vertex graphs at U = 0.6 on rate-latency servers with
/// decreasing bandwidth: the gap between the RTC bound and the average
/// per-type structural bound widens as the server tightens, and the
/// simulated maximum stays below both.
pub fn e1_bounds_vs_bandwidth() -> Table {
    let mut t = Table::new(
        "e1",
        "delay bounds vs server bandwidth (n=8, U=3/5, latency=5, 20 graphs/point)",
        vec!["rate", "RTC", "structural-avg", "RTC/struct", "sim-max"],
    );
    for rnum in [13i128, 14, 15, 16, 17, 18, 20] {
        let rate = q(rnum, 20);
        let beta = Curve::rate_latency(rate, Q::int(5));
        let mut rtcs = Vec::new();
        let mut savg = Vec::new();
        let mut sims = Vec::new();
        for seed in 0..20 {
            let task = generate_drt(&batch_cfg(8, q(3, 5)), 100 + seed);
            let s = structural_delay(&task, &beta).expect("stable");
            let r = rtc_delay(&task, &beta).expect("stable");
            rtcs.push(r.bound);
            savg.push(avg_vertex_bound(&s));
            sims.push(simulated_max(&task, rate, 10, Q::int(300)));
        }
        t.row(vec![
            format!("{rnum}/20"),
            format!("{:.2}", mean(&rtcs)),
            format!("{:.2}", mean(&savg)),
            format!("{:.2}", mean(&rtcs) / mean(&savg)),
            format!("{:.2}", mean(&sims)),
        ]);
    }
    t
}

/// E2 — tightness ratio vs graph size (figure).
pub fn e2_ratio_vs_size() -> Table {
    let mut t = Table::new(
        "e2",
        "attribution gain (RTC / structural-avg) vs graph size (U=3/5, rate=4/5, 30 graphs/point)",
        vec!["vertices", "RTC", "structural-avg", "ratio"],
    );
    let beta = Curve::rate_latency(q(4, 5), Q::int(4));
    for n in [2usize, 4, 6, 8, 12, 16, 20] {
        let mut rtcs = Vec::new();
        let mut savg = Vec::new();
        for seed in 0..30 {
            let task = generate_drt(&batch_cfg(n, q(3, 5)), 200 + seed);
            let s = structural_delay(&task, &beta).expect("stable");
            let r = rtc_delay(&task, &beta).expect("stable");
            rtcs.push(r.bound);
            savg.push(avg_vertex_bound(&s));
        }
        t.row(vec![
            n.to_string(),
            format!("{:.2}", mean(&rtcs)),
            format!("{:.2}", mean(&savg)),
            format!("{:.2}", mean(&rtcs) / mean(&savg)),
        ]);
    }
    t
}

/// E3 — analysis runtime and pruning effectiveness vs graph size (figure).
pub fn e3_runtime_vs_size() -> Table {
    let mut t = Table::new(
        "e3",
        "structural analysis runtime vs graph size (U=3/5, rate=4/5, 10 graphs/point)",
        vec!["vertices", "ms/graph", "paths", "generated", "pruned-ratio"],
    );
    let beta = Curve::rate_latency(q(4, 5), Q::int(4));
    for n in [5usize, 10, 15, 20, 30, 40, 50] {
        let mut total_ms = 0.0;
        let mut paths = 0usize;
        let mut generated = 0usize;
        let mut pruned = 0usize;
        for seed in 0..10 {
            let task = generate_drt(&batch_cfg(n, q(3, 5)), 300 + seed);
            let t0 = Instant::now();
            let s = structural_delay(&task, &beta).expect("stable");
            total_ms += t0.elapsed().as_secs_f64() * 1000.0;
            paths += s.paths_retained;
            generated += s.paths_generated;
            pruned += s.paths_pruned;
        }
        t.row(vec![
            n.to_string(),
            format!("{:.2}", total_ms / 10.0),
            (paths / 10).to_string(),
            (generated / 10).to_string(),
            format!("{:.3}", pruned as f64 / generated.max(1) as f64),
        ]);
    }
    t
}

/// E4 — ablation: bound quality and effort vs abstraction horizon (figure).
pub fn e4_ablation_fraction() -> Table {
    let mut t = Table::new(
        "e4",
        "abstraction-horizon ablation (n=10, U=7/10, rate=4/5, 15 graphs)",
        vec!["fraction", "structural-avg", "paths", "ms/graph"],
    );
    let beta = Curve::rate_latency(q(4, 5), Q::int(5));
    let tasks: Vec<DrtTask> = (0..15)
        .map(|seed| generate_drt(&batch_cfg(10, q(7, 10)), 400 + seed))
        .collect();
    for k in 0..=8i128 {
        let cfg = AnalysisConfig {
            horizon_fraction: Some(q(k, 8)),
            ..Default::default()
        };
        let mut avgs = Vec::new();
        let mut paths = 0usize;
        let mut ms = 0.0;
        for task in &tasks {
            let t0 = Instant::now();
            let a = structural_delay_with(task, &beta, &cfg).expect("stable");
            ms += t0.elapsed().as_secs_f64() * 1000.0;
            paths += a.paths_retained;
            avgs.push(avg_vertex_bound(&a));
        }
        t.row(vec![
            format!("{k}/8"),
            format!("{:.2}", mean(&avgs)),
            (paths / tasks.len()).to_string(),
            format!("{:.2}", ms / tasks.len() as f64),
        ]);
    }
    t
}

/// The hand-built video-decoder case-study task (shared with E5 and docs).
pub fn video_decoder() -> DrtTask {
    let mut b = DrtTaskBuilder::new("video-decoder");
    let i = b.vertex_with_deadline("I-frame", Q::int(12), Q::int(60));
    let p = b.vertex_with_deadline("P-frame", Q::int(6), Q::int(35));
    let bb = b.vertex_with_deadline("B-frame", Q::int(3), Q::int(25));
    let period = Q::int(15);
    b.edge(i, bb, period);
    b.edge(bb, bb, period);
    b.edge(bb, p, period);
    b.edge(p, bb, period);
    b.edge(p, i, Q::int(45));
    b.build().expect("valid decoder graph")
}

/// E5 — case study (table): the video decoder on a TDMA accelerator slot.
pub fn e5_case_study() -> Table {
    let task = video_decoder();
    let server = TdmaServer::new(Q::int(9), Q::int(16), Q::ONE).expect("valid tdma");
    let beta = server.beta_lower();
    let s = structural_delay(&task, &beta).expect("stable");
    let r = rtc_delay(&task, &beta).expect("stable");
    // Simulated per-type maxima on the concrete worst-offset TDMA process.
    let service = ServiceProcess::tdma(Q::int(9), Q::int(16), Q::ONE, Q::int(7));
    let mut sim_per_vertex = vec![Q::ZERO; task.num_vertices()];
    for seed in 0..40 {
        let trace = earliest_random_walk(&task, Q::int(600), None, seed);
        let out = simulate_fifo(
            std::slice::from_ref(&task),
            std::slice::from_ref(&trace),
            &service,
        );
        for v in task.vertex_ids() {
            sim_per_vertex[v.index()] = sim_per_vertex[v.index()].max(out.max_delay_of(0, v));
        }
    }
    let rtc_ok = s
        .per_vertex
        .iter()
        .all(|vb| r.bound <= task.deadline(vb.vertex).expect("deadline"));
    let mut t = Table::new(
        "e5",
        format!(
            "video decoder on TDMA(slot=9, cycle=16): per-frame-type bounds              (schedulable: structural={}, RTC={})",
            s.schedulable(&task),
            rtc_ok
        ),
        vec!["type", "wcet", "deadline", "structural", "RTC", "sim-max"],
    );
    for vb in &s.per_vertex {
        t.row(vec![
            vb.label.clone(),
            task.wcet(vb.vertex).to_string(),
            task.deadline(vb.vertex).expect("deadline").to_string(),
            vb.bound.to_string(),
            r.bound.to_string(),
            sim_per_vertex[vb.vertex.index()].to_string(),
        ]);
    }
    t
}

/// E6 — acceptance ratio vs utilization (figure).
pub fn e6_acceptance_ratio() -> Table {
    let mut t = Table::new(
        "e6",
        "acceptance ratio vs utilization (n=6, deadlines=3×min-in-sep, rate=1, latency=2, 100 sets/point)",
        vec!["U", "structural", "RTC"],
    );
    let beta = Curve::rate_latency(Q::ONE, Q::int(2));
    for unum in 1..=9i128 {
        let u = q(unum, 10);
        let mut acc_s = 0usize;
        let mut acc_r = 0usize;
        const SETS: u64 = 100;
        for seed in 0..SETS {
            let cfg = DrtGenConfig {
                deadline_factor: Some(Q::int(3)),
                ..batch_cfg(6, u)
            };
            let task = generate_drt(&cfg, 500 + seed);
            let (s, r) = match (structural_delay(&task, &beta), rtc_delay(&task, &beta)) {
                (Ok(s), Ok(r)) => (s, r),
                _ => continue, // unstable: rejected by both
            };
            if s.schedulable(&task) {
                acc_s += 1;
            }
            if task
                .vertex_ids()
                .all(|v| r.bound <= task.deadline(v).expect("deadline set"))
            {
                acc_r += 1;
            }
        }
        t.row(vec![
            format!("{unum}/10"),
            format!("{:.2}", acc_s as f64 / SETS as f64),
            format!("{:.2}", acc_r as f64 / SETS as f64),
        ]);
    }
    t
}

/// E7 — backlog bound vs bandwidth (figure).
pub fn e7_backlog_vs_bandwidth() -> Table {
    let mut t = Table::new(
        "e7",
        "backlog bound vs server bandwidth (n=8, U=3/5, 20 graphs/point)",
        vec!["rate", "backlog-bound", "sim-max"],
    );
    for rnum in [13i128, 15, 17, 20] {
        let rate = q(rnum, 20);
        let beta = Curve::rate_latency(rate, Q::int(5));
        let mut bounds = Vec::new();
        let mut sims = Vec::new();
        for seed in 0..20 {
            let task = generate_drt(&batch_cfg(8, q(3, 5)), 100 + seed);
            bounds.push(backlog_bound(std::slice::from_ref(&task), &beta).expect("stable"));
            let service = ServiceProcess::fluid(rate);
            let mut worst = Q::ZERO;
            for ts in 0..10 {
                let trace = earliest_random_walk(&task, Q::int(300), None, ts);
                let out = simulate_fifo(
                    std::slice::from_ref(&task),
                    std::slice::from_ref(&trace),
                    &service,
                );
                worst = worst.max(out.max_backlog);
            }
            sims.push(worst);
        }
        t.row(vec![
            format!("{rnum}/20"),
            format!("{:.2}", mean(&bounds)),
            format!("{:.2}", mean(&sims)),
        ]);
    }
    t
}

/// E8 — FIFO gateway (table): per-stream structural bounds vs the
/// stream-agnostic FIFO-RTC bound.
pub fn e8_fifo_gateway() -> Table {
    let beta = Curve::rate_latency(Q::ONE, Q::int(2));
    let tasks = generate_task_set(&batch_cfg(5, Q::ONE), 3, q(3, 5), 7);
    let rtc = fifo_rtc(&tasks, &beta).expect("stable");
    let per = fifo_structural(&tasks, &beta, &AnalysisConfig::default()).expect("stable");
    let mut t = Table::new(
        "e8",
        format!(
            "3-stream FIFO gateway (total U=3/5, rate=1, latency=2); FIFO-RTC bound = {}",
            rtc.bound
        ),
        vec!["stream", "vertices", "struct-max", "struct-avg"],
    );
    for (i, a) in per.iter().enumerate() {
        let max = a.per_vertex.iter().map(|b| b.bound).fold(Q::ZERO, Q::max);
        t.row(vec![
            i.to_string(),
            a.per_vertex.len().to_string(),
            format!("{:.2}", max.to_f64()),
            format!("{:.2}", avg_vertex_bound(a).to_f64()),
        ]);
    }
    t
}

/// E9 — tandem analysis (figure): pay bursts only once.
pub fn e9_tandem_pboo() -> Table {
    let mut t = Table::new(
        "e9",
        "tandem of k rate-latency hops: end-to-end vs per-hop bounds (15 graphs, n=6, U=2/5)",
        vec!["hops", "end-to-end", "per-hop-sum", "ratio"],
    );
    let tasks: Vec<DrtTask> = (0..15)
        .map(|seed| generate_drt(&batch_cfg(6, q(2, 5)), 900 + seed))
        .collect();
    for k in 1..=4usize {
        let hops: Vec<Curve> = (0..k)
            .map(|i| Curve::rate_latency(q(4, 5), Q::int(2 + i as i128)))
            .collect();
        let mut e2e = Vec::new();
        let mut phs = Vec::new();
        for task in &tasks {
            let r = srtw_core::tandem_delay(task, &hops).expect("stable tandem");
            e2e.push(r.end_to_end);
            phs.push(r.per_hop_sum);
        }
        t.row(vec![
            k.to_string(),
            format!("{:.2}", mean(&e2e)),
            format!("{:.2}", mean(&phs)),
            format!("{:.2}", mean(&phs) / mean(&e2e)),
        ]);
    }
    t
}

/// E10 — EDF vs FIFO-structural vs RTC acceptance ratio (figure).
pub fn e10_edf_acceptance() -> Table {
    let mut t = Table::new(
        "e10",
        "acceptance ratio vs utilization under three analyses (n=6, deadlines=3×min-in-sep, rate=1, latency=2, 100 sets/point)",
        vec!["U", "EDF", "structural", "RTC"],
    );
    let beta = Curve::rate_latency(Q::ONE, Q::int(2));
    for unum in [4i128, 5, 6, 7, 8, 9] {
        let u = q(unum, 10);
        let mut acc_e = 0usize;
        let mut acc_s = 0usize;
        let mut acc_r = 0usize;
        const SETS: u64 = 100;
        for seed in 0..SETS {
            let cfg = DrtGenConfig {
                deadline_factor: Some(Q::int(3)),
                ..batch_cfg(6, u)
            };
            let task = generate_drt(&cfg, 500 + seed);
            if let Ok(r) = srtw_core::edf_schedulable(std::slice::from_ref(&task), &beta) {
                if r.schedulable {
                    acc_e += 1;
                }
            }
            if let Ok(a) = structural_delay(&task, &beta) {
                if a.schedulable(&task) {
                    acc_s += 1;
                }
            }
            if let Ok(r) = rtc_delay(&task, &beta) {
                if task
                    .vertex_ids()
                    .all(|v| r.bound <= task.deadline(v).expect("deadline set"))
                {
                    acc_r += 1;
                }
            }
        }
        t.row(vec![
            format!("{unum}/10"),
            format!("{:.2}", acc_e as f64 / SETS as f64),
            format!("{:.2}", acc_s as f64 / SETS as f64),
            format!("{:.2}", acc_r as f64 / SETS as f64),
        ]);
    }
    t
}

/// All experiment ids, in order.
pub const ALL_EXPERIMENTS: [&str; 10] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10",
];

/// Builds one experiment's table by id. Returns `None` for an unknown id.
pub fn build_experiment(id: &str) -> Option<Table> {
    Some(match id {
        "e1" => e1_bounds_vs_bandwidth(),
        "e2" => e2_ratio_vs_size(),
        "e3" => e3_runtime_vs_size(),
        "e4" => e4_ablation_fraction(),
        "e5" => e5_case_study(),
        "e6" => e6_acceptance_ratio(),
        "e7" => e7_backlog_vs_bandwidth(),
        "e8" => e8_fifo_gateway(),
        "e9" => e9_tandem_pboo(),
        "e10" => e10_edf_acceptance(),
        _ => return None,
    })
}

/// Runs one experiment by id (or `"all"`), printing its table and writing
/// a CSV next to it when `csv_dir` is given. Returns `false` for an
/// unknown id.
pub fn run_experiment_to(id: &str, csv_dir: Option<&Path>) -> bool {
    if id == "all" {
        for id in ALL_EXPERIMENTS {
            run_experiment_to(id, csv_dir);
            println!();
        }
        return true;
    }
    match build_experiment(id) {
        Some(t) => {
            t.print();
            if let Some(dir) = csv_dir {
                match t.write_csv(dir) {
                    Ok(path) => println!("(csv written to {})", path.display()),
                    Err(e) => eprintln!("csv write failed: {e}"),
                }
            }
            true
        }
        None => false,
    }
}

/// Runs one experiment by id (`"e1"`–`"e10"`) or `"all"`, printing to
/// stdout. Returns `false` for an unknown id.
pub fn run_experiment(id: &str) -> bool {
    run_experiment_to(id, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn video_decoder_is_valid_and_stable() {
        let t = video_decoder();
        assert_eq!(t.num_vertices(), 3);
        let server = TdmaServer::new(Q::int(9), Q::int(16), Q::ONE).unwrap();
        assert!(structural_delay(&t, &server.beta_lower()).is_ok());
    }

    #[test]
    fn unknown_experiment_rejected() {
        assert!(!run_experiment("nope"));
    }

    #[test]
    fn small_experiment_smoke() {
        // E5 and E8 are cheap enough for the unit-test suite.
        let t5 = build_experiment("e5").unwrap();
        assert_eq!(t5.rows.len(), 3);
        assert_eq!(t5.header.len(), 6);
        let t8 = build_experiment("e8").unwrap();
        assert_eq!(t8.rows.len(), 3);
        assert!(run_experiment("e5"));
    }

    #[test]
    fn csv_export_roundtrip() {
        let t = build_experiment("e8").unwrap();
        let dir = std::env::temp_dir().join("srtw-bench-test");
        let path = t.write_csv(&dir).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("# 3-stream FIFO gateway"));
        assert!(text.lines().count() >= 5); // title + header + 3 rows
        assert!(text.contains("stream,vertices,struct-max,struct-avg"));
        let _ = std::fs::remove_file(path);
    }
}
