//! Integration tests for the CLI exit-code contract and the
//! machine-readable degradation status:
//!
//! * `0` — success: exact bounds, or degraded bounds plus a stderr warning;
//! * `2` — input error (unreadable file, parse error, bad flags, a vertex
//!   without a deadline under `--scheduler edf`);
//! * `3` — internal (analysis failure, arithmetic overflow included, or a
//!   caught panic, which is a bug);
//! * `4` — batch: some jobs failed every rung of the retry/degrade ladder.
//!
//! With `--json`, exits 2 and 3 additionally emit a machine-readable
//! `{"error": …}` document on stdout.

use std::process::Command;

/// Runs the compiled `srtw` binary, returning `(code, stdout, stderr)`.
fn run_srtw(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_srtw"))
        .args(args)
        .output()
        .expect("spawn srtw");
    (
        out.status.code().expect("exit code (not signal-killed)"),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn sample_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/systems/decoder.srtw")
}

fn temp_file(name: &str, content: &str) -> String {
    let dir = std::env::temp_dir().join("srtw-cli-exit-codes");
    std::fs::create_dir_all(&dir).unwrap();
    let p = dir.join(name);
    std::fs::write(&p, content).unwrap();
    p.to_str().unwrap().to_owned()
}

#[test]
fn exact_run_exits_zero_without_warning() {
    let (code, out, err) = run_srtw(&["analyze", sample_path(), "--json"]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(err.is_empty(), "no warning expected: {err}");
    assert!(out.contains("\"degraded\":false"), "{out}");
    assert!(out.contains("\"quality\":{\"exact\":true}"), "{out}");
}

#[test]
fn budget_tripped_run_exits_zero_with_warning_and_degraded_json() {
    // A tiny path cap trips on the decoder system; its coarse packing
    // rates (12/15 + 1/25) stay below the unit service rate, so the
    // analysis degrades gracefully instead of failing.
    let (code, out, err) = run_srtw(&[
        "analyze",
        sample_path(),
        "--json",
        "--max-paths",
        "3",
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(
        err.contains("degraded"),
        "stderr must warn about degradation: {err}"
    );
    assert!(out.contains("\"degraded\":true"), "{out}");
    assert!(out.contains("\"exact\":false"), "{out}");
    assert!(out.contains("\"fallback\""), "{out}");
    assert!(out.contains("\"degradations\":["), "{out}");
}

#[test]
fn budget_tripped_text_output_marks_degradation() {
    let (code, out, err) = run_srtw(&["analyze", sample_path(), "--max-paths", "3"]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("DEGRADED"), "{out}");
    assert!(err.contains("sound but degraded"), "{err}");
}

#[test]
fn malformed_file_exits_two() {
    let p = temp_file("bad.srtw", "task t\nvertex a wcet=oops\n");
    let (code, _, err) = run_srtw(&["analyze", &p]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("line 2"), "{err}");
}

#[test]
fn missing_file_exits_two() {
    let (code, _, err) = run_srtw(&["analyze", "/nonexistent/nope.srtw"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("cannot read"), "{err}");
}

#[test]
fn bad_flag_value_exits_two() {
    let (code, _, err) = run_srtw(&["analyze", sample_path(), "--max-paths", "many"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("bad --max-paths"), "{err}");
    let (code, _, err) = run_srtw(&["analyze", sample_path(), "--budget-ms", "-5"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("bad --budget-ms"), "{err}");
}

#[test]
fn unknown_command_and_scheduler_exit_two() {
    let (code, _, _) = run_srtw(&["frobnicate", sample_path()]);
    assert_eq!(code, 2);
    let (code, _, err) = run_srtw(&["analyze", sample_path(), "--scheduler", "lottery"]);
    assert_eq!(code, 2, "stderr: {err}");
}

#[test]
fn unstable_system_exits_three() {
    // Utilization 5/4 on a unit-rate server: an analysis error, not an
    // input error — the file itself is well-formed.
    let p = temp_file(
        "unstable.srtw",
        "task hot\nvertex v wcet=5\nedge v v sep=4\nserver fluid rate=1\n",
    );
    let (code, _, err) = run_srtw(&["analyze", &p]);
    assert_eq!(code, 3, "stderr: {err}");
    assert!(err.contains("unstable"), "{err}");
}

/// ROADMAP item 12's ring: its exact utilization's terms leave `i128`.
const RING: &str = "task big
vertex a wcet=1/1099511627791
vertex b wcet=1/1099511627803
vertex c wcet=1/1099511627831
vertex d wcet=1/1099511627839
edge a b sep=1/1099511627877
edge b c sep=1/1099511627879
edge c d sep=1/1099511627913
edge d a sep=1/1099511627919
server rate-latency rate=1 latency=2
";

/// Two streams whose utilizations fit `i128` but whose sum does not.
const SUMMED: &str = "task s1
vertex x wcet=1/18446744073709551617
edge x x sep=1
task s2
vertex y wcet=1/18446744073709551619
edge y y sep=1
server rate-latency rate=1 latency=2
";

/// Two WCETs near 2^70/2^70, whose comparison's cross products leave
/// `i128`.
const NEAR_ONE: &str = "task big
vertex x wcet=1180591620717411303425/1180591620717411303427
vertex y wcet=1180591620717411303431/1180591620717411303433
edge x y sep=10
edge y x sep=10
server rate-latency rate=1 latency=2
";

#[test]
fn exact_arithmetic_overflow_exits_three_as_internal_not_panic() {
    for (name, text) in [("ring", RING), ("summed", SUMMED), ("near-one", NEAR_ONE)] {
        // EDF needs a deadline on every vertex; the other schedulers
        // read the system as written.
        let with_deadlines: String = text
            .lines()
            .map(|l| match l.starts_with("vertex") {
                true => format!("{l} deadline=100\n"),
                false => format!("{l}\n"),
            })
            .collect();
        for (scheduler, text) in [("fifo", text), ("fp", text), ("edf", &*with_deadlines)] {
            let p = temp_file(&format!("overflow-{name}-{scheduler}.srtw"), text);
            let (code, out, err) = run_srtw(&["analyze", &p, "--json", "--scheduler", scheduler]);
            assert_eq!(code, 3, "{name} under {scheduler}: {out} {err}");
            assert!(
                out.contains("\"kind\":\"internal\""),
                "{name} under {scheduler}: {out}"
            );
            assert!(out.contains("overflow"), "{name} under {scheduler}: {out}");
            assert!(
                !out.contains("panic") && !err.contains("panic"),
                "{name}: {out} {err}"
            );
        }
    }
    // `srtw rbf` grows the same search as the analyses.
    let p = temp_file("overflow-ring-rbf.srtw", RING);
    let (code, out, err) = run_srtw(&["rbf", &p, "--json"]);
    assert_eq!(code, 3, "{out} {err}");
    assert!(out.contains("\"kind\":\"internal\""), "{out}");
}

#[test]
fn edf_without_deadlines_is_an_input_error_found_before_analysis() {
    // Exact analysis of this system does not finish; the missing deadline
    // must be reported without starting it.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/systems/adversarial.srtw");
    let t0 = std::time::Instant::now();
    let (code, out, err) = run_srtw(&["analyze", path, "--json", "--scheduler", "edf"]);
    let elapsed = t0.elapsed();
    assert_eq!(code, 2, "stderr: {err}");
    assert!(out.contains("\"kind\":\"input\""), "{out}");
    assert!(err.contains("has no deadline"), "{err}");
    assert!(
        elapsed < std::time::Duration::from_millis(500),
        "the deadline check must precede the analysis: {elapsed:?}"
    );
}

#[test]
fn adversarial_system_degrades_within_wall_budget() {
    // `systems/adversarial.srtw` is constructed so that exact exploration
    // does not finish (its Pareto frontier grows exponentially over a deep
    // busy window); a 1 s wall budget must still produce a sound bound,
    // flagged as degraded, with exit code 0.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/systems/adversarial.srtw");
    let t0 = std::time::Instant::now();
    let (code, out, err) = run_srtw(&["analyze", path, "--json", "--budget-ms", "1000"]);
    assert!(
        t0.elapsed() < std::time::Duration::from_secs(60),
        "budgeted run overran: {:?}",
        t0.elapsed()
    );
    assert_eq!(code, 0, "stderr: {err}");
    assert!(err.contains("sound but degraded"), "{err}");
    assert!(out.contains("\"degraded\":true"), "{out}");
    assert!(out.contains("\"fallback\""), "{out}");
    assert!(out.contains("wall_clock"), "degradation record names the wall budget: {out}");
}

/// A directory of system files for `srtw batch` tests.
fn temp_batch_dir(name: &str, files: &[(&str, &str)]) -> String {
    let dir = std::env::temp_dir().join("srtw-cli-exit-codes").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    for (fname, content) in files {
        std::fs::write(dir.join(fname), content).unwrap();
    }
    dir.to_str().unwrap().to_owned()
}

const SMALL_A: &str = "task a\nvertex v wcet=1\nedge v v sep=8\nserver fluid rate=1\n";
const SMALL_B: &str = "task b\nvertex v wcet=2\nedge v v sep=9\nserver rate-latency rate=1 latency=1\n";

#[test]
fn json_error_object_on_exit_two_and_three() {
    // Exit 2: parse error — stdout carries {"error": …} alongside stderr.
    let p = temp_file("bad-json.srtw", "task t\nvertex a wcet=oops\n");
    let (code, out, err) = run_srtw(&["analyze", &p, "--json"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(out.contains("\"error\""), "{out}");
    assert!(out.contains("\"kind\":\"input\""), "{out}");
    assert!(out.contains("\"code\":2"), "{out}");
    assert!(out.contains("line 2"), "the message keeps the span: {out}");

    // Exit 3: analysis failure (unstable system).
    let p = temp_file(
        "unstable-json.srtw",
        "task hot\nvertex v wcet=5\nedge v v sep=4\nserver fluid rate=1\n",
    );
    let (code, out, err) = run_srtw(&["analyze", &p, "--json"]);
    assert_eq!(code, 3, "stderr: {err}");
    assert!(out.contains("\"kind\":\"internal\""), "{out}");
    assert!(out.contains("\"code\":3"), "{out}");

    // Without --json, stdout stays clean.
    let (code, out, _) = run_srtw(&["analyze", &p]);
    assert_eq!(code, 3);
    assert!(out.is_empty(), "{out}");
}

#[test]
fn batch_all_exact_exits_zero_silently() {
    let dir = temp_batch_dir("all-exact", &[("a.srtw", SMALL_A), ("b.srtw", SMALL_B)]);
    let (code, out, err) = run_srtw(&["batch", &dir, "--jobs", "2"]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(err.is_empty(), "no warning expected: {err}");
    assert!(out.contains("2 exact"), "{out}");
    // Input order (sorted by file name), not completion order.
    let a_pos = out.find("a [").unwrap();
    let b_pos = out.find("b [").unwrap();
    assert!(a_pos < b_pos, "{out}");
}

#[test]
fn batch_manifest_preserves_listed_order() {
    let dir = temp_batch_dir("manifest", &[("x.srtw", SMALL_A), ("y.srtw", SMALL_B)]);
    let manifest = temp_file("manifest.txt", &format!("# queue\n{dir}/y.srtw\n{dir}/x.srtw\n"));
    let (code, out, err) = run_srtw(&["batch", &manifest, "--json"]);
    assert_eq!(code, 0, "stderr: {err}");
    let y_pos = out.find("\"name\":\"y\"").unwrap();
    let x_pos = out.find("\"name\":\"x\"").unwrap();
    assert!(y_pos < x_pos, "manifest order kept: {out}");
    assert!(out.contains("\"status\":\"all_exact\""), "{out}");
}

#[test]
fn batch_degraded_exits_zero_with_warning_and_provenance() {
    // An injected budget trip at the 3rd metered op: the exact rung
    // *completes* with a sound degraded bound — the cancellation path, on
    // purpose, is not a failure. (The trip must land early: the rbf memo
    // leaves this one-vertex system only a handful of metered ops.)
    let dir = temp_batch_dir("degraded", &[("a.srtw", SMALL_A)]);
    let (code, out, err) = run_srtw(&["batch", &dir, "--fault", "trip@3", "--json"]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(err.contains("degraded"), "{err}");
    assert!(out.contains("\"status\":\"some_degraded\""), "{out}");
    assert!(out.contains("\"rung\":{\"kind\":\"exact\"}"), "{out}");
    assert!(out.contains("\"degradations\":["), "{out}");
}

#[test]
fn batch_failed_jobs_exit_four_with_full_ladder_provenance() {
    let dir = temp_batch_dir("failed", &[("a.srtw", SMALL_A), ("b.srtw", SMALL_B)]);
    let (code, out, err) = run_srtw(&["batch", &dir, "--fault", "overflow@1", "--json"]);
    assert_eq!(code, 4, "stderr: {err}");
    assert!(err.contains("failed every rung"), "{err}");
    assert!(out.contains("\"status\":\"some_failed\""), "{out}");
    // Every job descended the whole default ladder: exact, 2 budgeted, rtc.
    assert!(out.contains("\"kind\":\"rtc\""), "{out}");
    assert!(out.contains("overflow"), "{out}");
}

#[test]
fn batch_parse_failure_is_a_job_failure_not_an_input_error() {
    let dir = temp_batch_dir(
        "mixed",
        &[("a_bad.srtw", "task t\nvertex a wcet=nope\n"), ("b_good.srtw", SMALL_B)],
    );
    let (code, out, err) = run_srtw(&["batch", &dir]);
    assert_eq!(code, 4, "stderr: {err}");
    assert!(out.contains("failed"), "{out}");
    assert!(out.contains("1 exact"), "the good job still ran: {out}");
    assert!(out.contains("line 2"), "parse failures keep their span: {out}");
}

#[test]
fn batch_fail_fast_skips_the_rest_of_the_queue() {
    let dir = temp_batch_dir(
        "fail-fast",
        &[("a_bad.srtw", "task t\nvertex a wcet=nope\n"), ("b_good.srtw", SMALL_B)],
    );
    let (code, out, _) = run_srtw(&["batch", &dir, "--fail-fast"]);
    assert_eq!(code, 4);
    assert!(out.contains("skipped"), "{out}");
    assert!(out.contains("0 exact"), "the good job never started: {out}");

    // --keep-going (the default, spelled out) runs everything.
    let (code, out, _) = run_srtw(&["batch", &dir, "--keep-going"]);
    assert_eq!(code, 4);
    assert!(out.contains("1 exact"), "{out}");
}

#[test]
fn batch_input_errors_exit_two() {
    let (code, _, err) = run_srtw(&["batch", "/nonexistent-dir-or-manifest"]);
    assert_eq!(code, 2, "stderr: {err}");

    let empty = temp_batch_dir("empty", &[]);
    let (code, _, err) = run_srtw(&["batch", &empty]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("no .srtw files"), "{err}");

    let dir = temp_batch_dir("flags", &[("a.srtw", SMALL_A)]);
    let (code, _, err) = run_srtw(&["batch", &dir, "--fault", "meteor@now"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("bad fault spec"), "{err}");
    let (code, _, err) = run_srtw(&["batch", &dir, "--fail-fast", "--keep-going"]);
    assert_eq!(code, 2, "stderr: {err}");
    assert!(err.contains("mutually exclusive"), "{err}");
}

#[test]
fn wall_clock_budget_still_succeeds_on_fast_system() {
    // A generous wall budget on a small system: must finish exactly.
    let (code, out, err) = run_srtw(&[
        "analyze",
        sample_path(),
        "--json",
        "--budget-ms",
        "60000",
    ]);
    assert_eq!(code, 0, "stderr: {err}");
    assert!(out.contains("\"degraded\":false"), "{out}");
}
