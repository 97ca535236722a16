//! The FIFO report runs one busy-window fixpoint and takes its RTC
//! baseline from it. This suite pins that the result is byte-identical
//! to the public composition that runs the fixpoint twice —
//! `fifo_structural` for the streams and `fifo_rtc_with` for the
//! baseline, each on its own meter — under every kind of budget that
//! replays deterministically: unlimited, path caps, and injected
//! budget trips and overflows at a sweep of metered operations. It also
//! pins that an exact report explores each stream once: its path ticks
//! are exactly the candidates of one exploration per stream to the
//! busy-window bound.

use srtw::textfmt::{parse_system, ServerSpec};
use srtw::{
    busy_window, explore, fifo_report, fifo_rtc_with, fifo_structural, generate_task_set, q,
    AnalysisConfig, AnalysisError, Budget, Curve, DrtGenConfig, DrtTask, ExploreConfig, FaultKind,
    FaultPlan, FifoReport, Q,
};

/// Fault-injection points: the first few metered operations one by one,
/// then a sparser sweep into the exploration.
const FAULT_OPS: [u64; 9] = [1, 2, 3, 5, 8, 13, 21, 40, 100];
const MAX_PATHS: [u64; 8] = [0, 1, 2, 4, 8, 16, 64, 256];

fn max_paths_budgets() -> Vec<Budget> {
    MAX_PATHS
        .iter()
        .map(|&n| Budget::default().with_max_paths(n))
        .collect()
}

fn all_budgets() -> Vec<Budget> {
    let mut out = vec![Budget::default()];
    out.extend(max_paths_budgets());
    for kind in [FaultKind::TripBudget, FaultKind::Overflow] {
        for &op in &FAULT_OPS {
            out.push(Budget::default().with_fault(FaultPlan::new(op, kind)));
        }
    }
    out
}

/// The rendered document with every `"runtime_secs":<number>` value
/// replaced by `0`, or the error's debug form.
fn normalised(result: Result<FifoReport, srtw::AnalysisError>) -> String {
    let doc = match result {
        Ok(report) => report.to_json().render(),
        Err(e) => return format!("error: {e:?}"),
    };
    const KEY: &str = "\"runtime_secs\":";
    let mut out = String::with_capacity(doc.len());
    let mut rest = doc.as_str();
    while let Some(at) = rest.find(KEY) {
        let (head, tail) = rest.split_at(at + KEY.len());
        out.push_str(head);
        out.push('0');
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// Compares the one-fixpoint report against the two-fixpoint composition
/// under each budget; returns the normalised outcomes.
fn assert_one_fixpoint_matches(
    name: &str,
    tasks: &[DrtTask],
    beta: &Curve,
    budgets: &[Budget],
) -> Vec<String> {
    let mut outcomes = Vec::new();
    for budget in budgets {
        let cfg = AnalysisConfig {
            budget: budget.clone(),
            ..AnalysisConfig::default()
        };
        let shared = normalised(fifo_report(tasks, beta, &cfg));
        let composed = normalised(fifo_structural(tasks, beta, &cfg).and_then(|per| {
            let rtc = fifo_rtc_with(tasks, beta, budget)?;
            Ok(FifoReport { per, rtc })
        }));
        assert_eq!(shared, composed, "{name} under {budget:?}");
        outcomes.push(shared);
    }
    outcomes
}

/// How many outcomes are exact documents, degraded documents and errors.
fn tally(outcomes: &[String]) -> (usize, usize, usize) {
    let count = |p: &dyn Fn(&String) -> bool| outcomes.iter().filter(|o| p(o)).count();
    (
        count(&|o| o.contains("\"degraded\":false")),
        count(&|o| o.contains("\"degraded\":true")),
        count(&|o| o.starts_with("error:")),
    )
}

fn shipped(file: &str) -> (Vec<DrtTask>, Curve) {
    let path = format!("{}/systems/{file}", env!("CARGO_MANIFEST_DIR"));
    let sys = parse_system(&std::fs::read_to_string(path).unwrap()).unwrap();
    let beta = sys.server.expect("server declared").beta_lower().unwrap();
    (sys.tasks, beta)
}

/// Seeded systems cycling through the four server kinds, with one to
/// three streams loading the server to between 30 % and 80 % of its rate.
fn generated(seed: u64) -> (Vec<DrtTask>, Curve) {
    let server = match seed % 4 {
        0 => ServerSpec::RateLatency {
            rate: Q::ONE,
            latency: Q::int(1 + (seed as i128 % 5)),
        },
        1 => ServerSpec::Tdma {
            slot: Q::int(3),
            cycle: Q::int(5),
            capacity: Q::ONE,
        },
        2 => ServerSpec::PeriodicResource {
            period: Q::int(10),
            budget: Q::int(7),
        },
        _ => ServerSpec::Fluid { rate: q(9, 10) },
    };
    let beta = server.beta_lower().unwrap();
    let cfg = DrtGenConfig {
        vertices: 3 + (seed as usize % 3),
        extra_edges: 2 + (seed as usize % 4),
        ..DrtGenConfig::default()
    };
    let load = q(3 + (seed as i128 % 6), 10) * beta.rate();
    let tasks = generate_task_set(&cfg, 1 + (seed as usize % 3), load, seed);
    (tasks, beta)
}

#[test]
fn one_fixpoint_report_matches_the_two_fixpoint_composition() {
    let budgets = all_budgets();
    let (tasks, beta) = shipped("decoder.srtw");
    let mut outcomes = assert_one_fixpoint_matches("decoder.srtw", &tasks, &beta, &budgets);
    for seed in 0..64 {
        let (tasks, beta) = generated(seed);
        outcomes.extend(assert_one_fixpoint_matches(
            &format!("seed {seed}"),
            &tasks,
            &beta,
            &budgets,
        ));
    }
    // The sweep must reach every kind of outcome, or it proves little.
    let (exact, degraded, errors) = tally(&outcomes);
    assert_eq!(exact + degraded + errors, 65 * budgets.len());
    assert!(
        exact > 0 && degraded > 0 && errors > 0,
        "{exact}/{degraded}/{errors}"
    );
}

#[test]
fn adversarial_system_matches_under_path_caps() {
    let (tasks, beta) = shipped("adversarial.srtw");
    assert_one_fixpoint_matches("adversarial.srtw", &tasks, &beta, &max_paths_budgets());
}

/// The exact report needs exactly `G` path ticks, where `G` counts the
/// candidates one exploration per stream to the busy-window bound
/// generates: with `G` it is exact (and equals the unbudgeted document),
/// with `G − 1` it is not. The missing pop lands inside the fixpoint's
/// last iteration, so the window is finished on the coarse demand lines:
/// a degraded document, or `BudgetExhausted` where those lines saturate
/// the service.
#[test]
fn exact_report_ticks_one_exploration_per_stream() {
    let systems = std::iter::once(shipped("decoder.srtw")).chain((0..64).map(generated));
    for (k, (tasks, beta)) in systems.enumerate() {
        let bound = busy_window(&tasks, &beta).unwrap().bound;
        let g: usize = tasks
            .iter()
            .map(|t| explore(t, &ExploreConfig::new(bound)).generated)
            .sum();
        let capped = |n: usize| {
            let cfg = AnalysisConfig {
                budget: Budget::default().with_max_paths(n as u64),
                ..AnalysisConfig::default()
            };
            fifo_report(&tasks, &beta, &cfg)
        };
        let exact = normalised(fifo_report(&tasks, &beta, &AnalysisConfig::default()));
        assert_eq!(
            normalised(capped(g)),
            exact,
            "system {k}: exact under {g} paths"
        );
        match capped(g - 1) {
            Ok(short) => assert!(short.degraded(), "system {k}: exact under {} paths", g - 1),
            Err(AnalysisError::BudgetExhausted { .. }) => {}
            Err(e) => panic!("system {k}: {e}"),
        }
    }
}
