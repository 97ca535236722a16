//! Golden answer digests: a fixed corpus of systems under a fixed set of
//! analysis configurations, each answer pinned by the FNV-1a digest
//! (`srtw_supervisor::journal::digest64`) of its FIFO report body — the
//! `srtw analyze --json` document with every `runtime_secs` zeroed.
//!
//! A change that is meant to leave every answer byte-identical (a
//! speed-up, a refactor) must leave `results/golden.tsv` unchanged. A
//! change that is meant to move answers regenerates the file with
//!
//! ```sh
//! cargo test --test golden -- --ignored regenerate_golden_digests
//! ```
//!
//! and the diff of the file shows which systems and configurations moved.

use srtw::supervisor::journal::digest64;
use srtw::textfmt::{parse_system, ServerSpec};
use srtw::Rng;
use srtw::{
    fifo_report, generate_task_set, AnalysisConfig, Budget, Curve, DrtGenConfig, DrtTask,
    DrtTaskBuilder, Q,
};
use std::time::Duration;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/results/golden.tsv");

/// The analysis configurations, in column order: the exact analysis,
/// none, half and three quarters of the busy window explored exactly,
/// the analysis without dominance pruning, and a ladder of path budgets
/// that degrade most bodies. Unpruned exploration explodes on a few
/// 3-stream systems (≈35 s of the debug profile on five of them), so
/// `no_prune_4k` runs under a 4,000-path budget: 209 of its 218 cells
/// are exact, the other 9 pin the unpruned route's degraded bodies.
fn configs() -> Vec<(&'static str, AnalysisConfig)> {
    let fraction = |f: Q| AnalysisConfig {
        horizon_fraction: Some(f),
        ..Default::default()
    };
    let paths = |n: u64| AnalysisConfig {
        budget: Budget::default().with_max_paths(n),
        ..Default::default()
    };
    let no_prune = AnalysisConfig {
        no_prune: true,
        ..paths(4_000)
    };
    vec![
        ("exact", AnalysisConfig::default()),
        ("zero", fraction(Q::ZERO)),
        ("half", fraction(Q::new(1, 2))),
        ("three_quarters", fraction(Q::new(3, 4))),
        ("no_prune_4k", no_prune),
        ("paths_1", paths(1)),
        ("paths_8", paths(8)),
        ("paths_64", paths(64)),
        ("paths_512", paths(512)),
    ]
}

/// A server of `kind` (0 rate-latency, 1 TDMA, 2 periodic resource), as
/// the benchmark workloads draw them: rate 1 or 9/10.
fn server(kind: usize, rng: &mut Rng) -> ServerSpec {
    let cycle = Q::int(rng.random_range(1i128..=2) * 10);
    let slot = cycle * Q::new(9, 10);
    match kind {
        0 => ServerSpec::RateLatency {
            rate: Q::ONE,
            latency: Q::int(rng.random_range(1i128..=8)),
        },
        1 => ServerSpec::Tdma {
            slot,
            cycle,
            capacity: Q::ONE,
        },
        _ => ServerSpec::PeriodicResource {
            period: cycle,
            budget: slot,
        },
    }
}

/// The corpus: the shipped decoder system, a system with tied
/// candidates, a system whose names need JSON escapes, then 1–3 generated streams of
/// 5, 10 and 20 vertices on each server kind, eight seeds each (216
/// systems). The generator rescales WCETs to the drawn utilization, so
/// they carry the rational denominators real requests carry.
fn corpus() -> Vec<(String, Vec<DrtTask>, Curve)> {
    let decoder = parse_system(include_str!("../systems/decoder.srtw")).expect("decoder parses");
    let beta = decoder
        .server
        .expect("decoder declares a server")
        .beta_lower();
    let mut out = vec![("decoder".to_owned(), decoder.tasks, beta.unwrap())];
    // The paths `b` and `a → b` give `b` the same candidate: the first of
    // them in the arena must stay the witness.
    let tie = parse_system(
        "task tie\nvertex a wcet=2\nvertex b wcet=2\nedge a b sep=2\nedge b a sep=20\n\
         server rate-latency rate=1 latency=2\n",
    )
    .expect("tie parses");
    let beta = tie.server.expect("tie declares a server").beta_lower();
    out.push(("tie".to_owned(), tie.tasks, beta.unwrap()));
    // Names the report must escape: a quote, a backslash, control bytes
    // and non-ASCII text, in the task name and in vertex labels.
    let mut b = DrtTaskBuilder::new("q\"uote\\back\u{1}\tβ→");
    let x = b.vertex_with_deadline("x\"\u{7f}", Q::int(2), Q::int(30));
    let y = b.vertex("y\\\n\u{1f}é", Q::new(3, 2));
    let z = b.vertex("😀\r\u{8}\u{c}", Q::ONE);
    b.edge(x, y, Q::int(7));
    b.edge(y, z, Q::new(15, 2));
    b.edge(z, x, Q::int(9));
    b.edge(y, x, Q::int(11));
    let escaped = b.build().expect("escaping system builds");
    out.push((
        "escaping".to_owned(),
        vec![escaped],
        Curve::rate_latency(Q::ONE, Q::int(3)),
    ));
    for vertices in [5usize, 10, 20] {
        for streams in 1..=3usize {
            for kind in 0..3usize {
                for seed in 0..8u64 {
                    let mut rng = Rng::seed_from_u64(
                        seed * 1000 + (vertices * 10 + streams * 3 + kind) as u64,
                    );
                    let cfg = DrtGenConfig {
                        vertices,
                        extra_edges: vertices,
                        separation_range: (5, 40),
                        wcet_range: (1, 9),
                        target_utilization: None,
                        deadline_factor: Some(Q::int(3)),
                    };
                    let u = Q::new(rng.random_range(50i128..=80), 100);
                    let tasks = generate_task_set(&cfg, streams, u, rng.next_u64());
                    let beta = server(kind, &mut rng).beta_lower().expect("valid server");
                    let name = format!("gen_v{vertices}_s{streams}_k{kind}_{seed}");
                    out.push((name, tasks, beta));
                }
            }
        }
    }
    out
}

/// The digest of one answer: the report body with runtimes zeroed, or
/// the error the analysis ended in.
fn answer(tasks: &[DrtTask], beta: &Curve, cfg: &AnalysisConfig) -> u64 {
    let body = match fifo_report(tasks, beta, cfg) {
        Ok(mut report) => {
            for a in &mut report.per {
                a.runtime = Duration::ZERO;
            }
            report.to_json().render()
        }
        Err(e) => format!("error: {e}"),
    };
    digest64(body.as_bytes())
}

/// The table: a header line, then one line per system holding its name
/// and one hex digest per configuration.
fn table() -> String {
    let configs = configs();
    let mut out = String::from("system");
    for (name, _) in &configs {
        out.push('\t');
        out.push_str(name);
    }
    out.push('\n');
    for (name, tasks, beta) in corpus() {
        out.push_str(&name);
        for (_, cfg) in &configs {
            out.push_str(&format!("\t{:016x}", answer(&tasks, &beta, cfg)));
        }
        out.push('\n');
    }
    out
}

#[test]
fn answers_match_the_golden_digests() {
    let want = std::fs::read_to_string(GOLDEN).expect("results/golden.tsv is committed");
    let got = table();
    if got == want {
        return;
    }
    let header: Vec<&str> = want.lines().next().unwrap_or("").split('\t').collect();
    let mut diffs = Vec::new();
    for (w, g) in want.lines().zip(got.lines()) {
        let (wc, gc): (Vec<&str>, Vec<&str>) = (w.split('\t').collect(), g.split('\t').collect());
        for (i, (a, b)) in wc.iter().zip(&gc).enumerate() {
            if a != b {
                let column = header.get(i).copied().unwrap_or("?");
                diffs.push(format!("{} / {column}: golden {a}, now {b}", gc[0]));
            }
        }
        if wc.len() != gc.len() {
            diffs.push(format!("{}: {} cells, now {}", gc[0], wc.len(), gc.len()));
        }
    }
    let (wl, gl) = (want.lines().count(), got.lines().count());
    if wl != gl {
        diffs.push(format!("golden has {wl} lines, now {gl}"));
    }
    let shown: Vec<&String> = diffs.iter().take(12).collect();
    panic!(
        "{} golden cell(s) differ; first ones:\n{}",
        diffs.len(),
        shown
            .iter()
            .map(|s| format!("  {s}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
#[ignore = "rewrites results/golden.tsv; run only when answers are meant to change"]
fn regenerate_golden_digests() {
    std::fs::write(GOLDEN, table()).expect("write results/golden.tsv");
}
