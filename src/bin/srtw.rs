//! `srtw` — command-line front end for the structural delay analysis.
//!
//! ```text
//! srtw analyze  <system.srtw> [--scheduler fifo|fp|edf] [--json]
//!               [--budget-ms MS] [--max-paths N] [--max-segments N]
//! srtw rbf      <system.srtw> [--horizon H]
//! srtw dot      <system.srtw>
//! srtw simulate <system.srtw> [--seeds N] [--horizon H]
//! srtw batch    <dir|manifest> [--jobs N] [--timeout-ms MS]
//!               [--grace-ms MS] [--budget-ms MS] [--retries N]
//!               [--fail-fast|--keep-going] [--journal PATH [--resume]]
//!               [--fault trip@N|overflow@N|clockjump@N:MS|panic@N
//!                        |torn@N|jcorrupt@N] [--json]
//! srtw serve    [--addr HOST:PORT] [--replicas N] [--admin-addr HOST:PORT]
//!               [--workers N] [--queue N] [--max-conns N]
//!               [--drain-ms MS] [--grace-ms MS] [--read-timeout-ms MS]
//!               [--header-timeout-ms MS] [--deadline-ms MS]
//!               [--journal PREFIX] [--cache-bytes N] [--persist DIR]
//!               [--fault SPEC|abort@N|stall@N:MS|closefd@N|torn@N|jcorrupt@N
//!                        |pers-torn@N|pers-corrupt@N|pers-enospc@N]
//! srtw flood    <addr> [--count N] [--concurrency N] [--analyze FILE]
//!               [--batch MANIFEST] [--prewarm N]
//! ```
//!
//! System files use the text format documented in [`srtw::textfmt`].
//! `--json` switches `analyze` and `batch` to a machine-readable
//! single-document output (see [`srtw::Json`]) that includes each
//! report's `quality` object and a top-level `degraded` flag.
//!
//! # Budgets
//!
//! `--budget-ms`, `--max-paths` and `--max-segments` cap the analysis
//! effort. When a cap trips, the analysis does not fail: it degrades
//! gracefully to sound (possibly pessimistic) bounds, prints a warning on
//! stderr and still exits 0.
//!
//! # Batch mode
//!
//! `srtw batch` runs every `.srtw` system of a directory (sorted by file
//! name) or of a manifest (one path per line, `#` comments, resolved
//! relative to the manifest) on a pool of `--jobs` supervised workers.
//! Each job runs behind `catch_unwind` (on its own thread under a watchdog
//! that enforces `--timeout-ms` by hard cancellation, when given), and
//! retries down the degrade ladder exact → budgeted (halving
//! `--budget-ms`, `--retries` times) → RTC baseline. Per-job provenance (attempts, rung, degradation
//! records, wall time) lands in the batch report. `--fault` injects a
//! deterministic fault into every attempt (testing the failure paths).
//!
//! `--journal PATH` makes the batch crash-recoverable: every finished job
//! is appended to an fsync'd write-ahead journal before the batch moves
//! on, and `--resume` replays the journal, skipping already-completed
//! jobs while producing a report byte-identical to an uninterrupted run.
//! The journal fault specs `torn@N` (truncate the Nth record mid-write)
//! and `jcorrupt@N` (flip a byte in it) exercise the recovery path
//! deterministically.
//!
//! # Service mode
//!
//! `srtw serve` runs the resilient analysis service ([`srtw::serve`]):
//! `POST /analyze` answers with the same JSON document as
//! `analyze --json`, behind bounded admission (503 + `Retry-After` when
//! the queue is full), per-request deadlines (`X-Deadline-Ms` → sound
//! degradation to the RTC bound), crash isolation, and a graceful drain
//! on `SIGINT`/`SIGTERM` or `POST /shutdown` (exit 0; a stderr warning if
//! stragglers had to be cancelled). Repeats answer from a bounded
//! content-addressed result cache (`--cache-bytes`, keyed on the parsed
//! system as presented, byte-identical replay), and `POST /analyze/delta` (base
//! system + `@delta` edit script) answers as `/analyze` of the edited
//! system would.
//!
//! `--persist DIR` makes the result cache crash-safe: every stored
//! result is also spilled to an append-only, CRC-framed shard file
//! under `DIR`, and a (re)started server warm-loads the shards before
//! accepting traffic, so warm hits survive restarts byte-identically.
//! Replicas share `DIR` (each writes only its own shard files, reads
//! all), so a respawned replica inherits the fleet's cache. Any
//! persistence failure — `ENOSPC`, `EACCES`, a torn or corrupt spill —
//! degrades to a cold in-memory cache with a typed `srtw-persist:`
//! stderr warning; it never changes an HTTP status or a result byte.
//! The `pers-torn@N` / `pers-corrupt@N` / `pers-enospc@N` fault specs
//! break the Nth spill append deterministically to exercise that
//! degradation.
//!
//! # Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0 | success — bounds exact, or degraded with a stderr warning |
//! | 2 | input error — unreadable file, parse error, bad flags, a vertex without a deadline under `--scheduler edf` |
//! | 3 | internal — analysis failure (unstable system, arithmetic overflow, exhausted budget with no sound fallback); a panic (a bug) also exits 3, with `"kind":"panic"` |
//! | 4 | batch — some jobs failed every rung of the ladder (or were skipped by `--fail-fast`) |
//!
//! With `--json`, exits 2 and 3 still produce a machine-readable document
//! on stdout: `{"error": {"code": …, "kind": "input"|"internal"|"panic",
//! "message": …}}`. A batch failure (exit 4) is not an error document —
//! the batch report itself, listing the failed jobs, is the document.

use srtw::supervisor::journal;
use srtw::supervisor::{
    manifest_lines, BatchConfig, BatchEntry, BatchJournal, BatchPlan, BatchStatus, FaultLog,
    JournalPolicy, RestartPolicy, WriteFault,
};
use srtw::textfmt::{parse_system, SystemSpec};
use srtw::serve::{signal, ProcessFault, ReplicaConfig, ServeConfig, Server, Supervisor};
use srtw::{
    earliest_random_walk, edf_schedulable, fifo_report, fifo_structural,
    fixed_priority_structural_with, simulate_fifo, AnalysisConfig, AnalysisError, Budget,
    BudgetMeter, Curve, DelayAnalysis, FaultPlan, Json, Q, Rbf, ServiceProcess, SupervisorConfig,
};
use std::panic::catch_unwind;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// CLI failure, split by exit code.
enum CliError {
    /// Unreadable/malformed input or bad flags — exit code 2.
    Input(String),
    /// Analysis failure or residual panic — exit code 3.
    Internal(String),
}

fn input(msg: impl Into<String>) -> CliError {
    CliError::Input(msg.into())
}

/// Renders an error as the machine-readable stdout document the `--json`
/// contract promises on exits 2 and 3.
fn json_error(code: u8, kind: &str, msg: &str) -> Json {
    Json::object(vec![(
        "error",
        Json::object(vec![
            ("code", Json::Int(code as i128)),
            ("kind", Json::str(kind)),
            ("message", Json::str(msg)),
        ]),
    )])
}

fn fail(json: bool, code: u8, kind: &str, prefix: &str, msg: &str) -> ExitCode {
    if json {
        println!("{}", json_error(code, kind, msg));
    }
    eprintln!("{prefix}{msg}");
    ExitCode::from(code)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    // Residual panics (library bugs) must not abort with a backtrace dump:
    // silence the default hook and convert them to exit code 3. Budget and
    // arithmetic failures never panic by design; this is the last line of
    // defence the exit-code contract promises.
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = catch_unwind(|| run(&args));
    let _ = std::panic::take_hook();
    match outcome {
        Ok(Ok(code)) => code,
        Ok(Err(CliError::Input(msg))) => fail(json, 2, "input", "error: ", &msg),
        Ok(Err(CliError::Internal(msg))) => fail(json, 3, "internal", "internal error: ", &msg),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".into());
            fail(
                json,
                3,
                "panic",
                "internal error: unexpected panic: ",
                &msg,
            )
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, CliError> {
    let usage = "usage: srtw <analyze|rbf|dot|simulate|batch|serve|flood> [<file|dir>] [options]";
    let cmd = args.first().ok_or_else(|| input(usage))?;
    if cmd == "serve" {
        return serve(&args[1..]);
    }
    if cmd == "flood" {
        return flood(&args[1..]);
    }
    let path = args.get(1).ok_or_else(|| input(usage))?;
    let opts = &args[2..];

    if cmd == "batch" {
        return batch(path, opts);
    }

    let text =
        std::fs::read_to_string(path).map_err(|e| input(format!("cannot read {path}: {e}")))?;
    let sys = parse_system(&text).map_err(|e| input(format!("{path}: {e}")))?;

    match cmd.as_str() {
        "analyze" => analyze(&sys, opts),
        "rbf" => rbf(&sys, opts),
        "dot" => {
            for t in &sys.tasks {
                print!("{}", t.to_dot());
            }
            Ok(())
        }
        "simulate" => simulate(&sys, opts),
        other => Err(input(format!("unknown command '{other}'\n{usage}"))),
    }
    .map(|()| ExitCode::SUCCESS)
}

/// Collects the `.srtw` queue from a directory (sorted by file name) or a
/// manifest file (one path per line, `#` comments, resolved relative to
/// the manifest's directory).
fn collect_queue(path: &str) -> Result<Vec<PathBuf>, CliError> {
    let p = Path::new(path);
    if p.is_dir() {
        let mut files: Vec<_> = std::fs::read_dir(p)
            .map_err(|e| input(format!("cannot read directory {path}: {e}")))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|f| f.extension().is_some_and(|x| x == "srtw"))
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(input(format!("no .srtw files in {path}")));
        }
        return Ok(files);
    }
    let text =
        std::fs::read_to_string(p).map_err(|e| input(format!("cannot read {path}: {e}")))?;
    let base = p.parent().unwrap_or_else(|| Path::new("."));
    let files: Vec<_> = manifest_lines(&text).map(|l| base.join(l)).collect();
    if files.is_empty() {
        return Err(input(format!("manifest {path} lists no systems")));
    }
    Ok(files)
}

/// A failed journal append ends the run like a crash (exit 3), which is
/// exactly what the injected `torn@N` / `jcorrupt@N` faults simulate.
fn exit_on_journal_failure(path: &Path, e: &std::io::Error) -> ! {
    eprintln!("internal error: journal write failed ({}): {e}", path.display());
    std::process::exit(3);
}

fn batch(path: &str, opts: &[String]) -> Result<ExitCode, CliError> {
    let started = Instant::now();
    let json = opts.iter().any(|a| a == "--json");
    let fail_fast = match (
        opts.iter().any(|a| a == "--fail-fast"),
        opts.iter().any(|a| a == "--keep-going"),
    ) {
        (true, true) => return Err(input("--fail-fast and --keep-going are mutually exclusive")),
        (ff, _) => ff,
    };
    let journal_path = opt_value(opts, "--journal");
    let resume = opts.iter().any(|a| a == "--resume");
    if resume && journal_path.is_none() {
        return Err(input("--resume requires --journal PATH"));
    }
    let parse_u64 = |key: &str, default: u64| -> Result<u64, CliError> {
        match opt_value(opts, key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| input(format!("bad {key} '{v}': {e}"))),
        }
    };
    let jobs = (parse_u64("--jobs", 1)? as usize).max(1);
    let budget_ms = parse_u64("--budget-ms", 1_000)?;
    let retries = parse_u64("--retries", 2)? as u32;
    let grace = Duration::from_millis(parse_u64("--grace-ms", 2_000)?);
    let timeout = opt_value(opts, "--timeout-ms")
        .map(|v| {
            v.parse::<u64>()
                .map(Duration::from_millis)
                .map_err(|e| input(format!("bad --timeout-ms '{v}': {e}")))
        })
        .transpose()?;
    // One --fault flag serves both layers: journal-write faults
    // (torn@N | jcorrupt@N) break the durability path, anything else is
    // the metered FaultPlan grammar injected into every attempt.
    let mut journal_fault = None;
    let fault = match opt_value(opts, "--fault") {
        None => None,
        Some(v) => match WriteFault::parse(&v) {
            Some(Ok(f)) if f.log == FaultLog::Journal && journal_path.is_some() => {
                journal_fault = Some(f);
                None
            }
            Some(Ok(_)) => {
                return Err(input(
                    "write faults on a batch are journal faults (torn@N | jcorrupt@N) and \
                     require --journal PATH",
                ))
            }
            Some(Err(e)) => return Err(input(e)),
            None => Some(FaultPlan::parse(&v).map_err(CliError::Input)?),
        },
    };

    let queue = collect_queue(path)?;
    let entries: Vec<BatchEntry> = queue.iter().map(|f| BatchEntry::load(f)).collect();

    // The journal is keyed to the queue's identity — its resolved paths,
    // not its job names, which two files may share: resuming against a
    // journal written for a different job list must start fresh, not
    // splice unrelated results.
    let paths: Vec<String> = queue.iter().map(|f| f.display().to_string()).collect();
    let digest = journal::digest64(paths.join("\n").as_bytes());
    let journal = match &journal_path {
        None => None,
        Some(jp) => {
            let policy = JournalPolicy {
                resume,
                pre_failed: false,
                fault: journal_fault,
                on_failure: exit_on_journal_failure,
            };
            let (journal, warnings) = BatchJournal::open(Path::new(jp), digest, policy)
                .map_err(|e| input(format!("cannot open journal {jp}: {e}")))?;
            for w in warnings {
                eprintln!("{w}");
            }
            Some(journal)
        }
    };

    let cfg = BatchConfig {
        jobs,
        supervisor: SupervisorConfig {
            timeout,
            grace,
            budget_ms,
            budget_retries: retries,
            fault,
            cancel: None,
        },
        fail_fast,
    };
    let plan = BatchPlan::new(entries, journal, cfg);
    if resume {
        eprintln!(
            "journal: replayed {} completed job(s); running {} fresh",
            plan.replayed(),
            plan.fresh()
        );
    }
    let mut report = plan.run(&|_| {});
    report.wall = started.elapsed();

    if json {
        println!("{}", report.to_json_text());
    } else {
        println!("{report}");
    }
    let counts = report.counts();
    match counts.status() {
        BatchStatus::AllExact => Ok(ExitCode::SUCCESS),
        BatchStatus::SomeDegraded => {
            eprintln!(
                "warning: {} job(s) completed with degraded (still sound) bounds",
                counts.degraded
            );
            Ok(ExitCode::SUCCESS)
        }
        BatchStatus::SomeFailed => {
            eprintln!(
                "error: {} job(s) failed every rung of the ladder{}",
                counts.failed,
                if counts.skipped > 0 {
                    format!(", {} skipped", counts.skipped)
                } else {
                    String::new()
                }
            );
            Ok(ExitCode::from(4))
        }
    }
}

fn opt_value(opts: &[String], key: &str) -> Option<String> {
    opts.iter()
        .position(|a| a == key)
        .and_then(|i| opts.get(i + 1))
        .cloned()
}

/// The machine's available hardware parallelism, with a safe fallback
/// of 1 when the platform cannot report it.
fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_budget(opts: &[String]) -> Result<Budget, CliError> {
    let mut budget = Budget::default();
    if let Some(v) = opt_value(opts, "--budget-ms") {
        let ms: u64 = v
            .parse()
            .map_err(|e| input(format!("bad --budget-ms '{v}': {e}")))?;
        budget = budget.with_wall_ms(ms);
    }
    if let Some(v) = opt_value(opts, "--max-paths") {
        let n: u64 = v
            .parse()
            .map_err(|e| input(format!("bad --max-paths '{v}': {e}")))?;
        budget = budget.with_max_paths(n);
    }
    if let Some(v) = opt_value(opts, "--max-segments") {
        let n: u64 = v
            .parse()
            .map_err(|e| input(format!("bad --max-segments '{v}': {e}")))?;
        budget = budget.with_max_segments(n);
    }
    Ok(budget)
}

fn server_curve(sys: &SystemSpec) -> Result<Curve, CliError> {
    match &sys.server {
        Some(s) => s.beta_lower().map_err(|e| CliError::Internal(e.to_string())),
        None => Err(input(
            "the system file declares no server (add a 'server …' line)",
        )),
    }
}

/// Prints the stderr degradation warning and reports whether any stream
/// degraded (the process still exits 0).
fn warn_if_degraded(per: &[DelayAnalysis], rtc_degraded: bool) -> bool {
    let mut kinds: Vec<String> = per
        .iter()
        .flat_map(|a| a.degradations.iter().map(|d| d.tripped.to_string()))
        .collect();
    if rtc_degraded && kinds.is_empty() {
        kinds.push("budget".into());
    }
    if kinds.is_empty() {
        return false;
    }
    kinds.sort();
    kinds.dedup();
    eprintln!(
        "warning: analysis budget exhausted ({}); reported bounds are sound but degraded",
        kinds.join(", ")
    );
    true
}

fn analyze(sys: &SystemSpec, opts: &[String]) -> Result<(), CliError> {
    let beta = server_curve(sys)?;
    let scheduler = opt_value(opts, "--scheduler").unwrap_or_else(|| "fifo".into());
    let json = opts.iter().any(|a| a == "--json");
    let cfg = AnalysisConfig {
        budget: parse_budget(opts)?,
        ..Default::default()
    };
    match scheduler.as_str() {
        "fifo" => {
            // The service's POST /analyze emits the same document through
            // the same code path, keeping the two entry points
            // byte-identical by construction.
            let report = fifo_report(&sys.tasks, &beta, &cfg)
                .map_err(|e| CliError::Internal(e.to_string()))?;
            warn_if_degraded(&report.per, !report.rtc.quality.is_exact());
            if json {
                println!("{}", report.to_json());
            } else {
                println!("scheduler: FIFO");
                println!("RTC baseline (stream-agnostic): {}", report.rtc);
                for a in &report.per {
                    println!("\n{a}");
                }
            }
        }
        "fp" => {
            let per = fixed_priority_structural_with(&sys.tasks, &beta, &cfg)
                .map_err(|e| CliError::Internal(e.to_string()))?;
            let degraded = warn_if_degraded(&per, false);
            if json {
                println!(
                    "{}",
                    Json::object(vec![
                        ("scheduler", Json::str("fp")),
                        ("degraded", Json::Bool(degraded)),
                        (
                            "streams",
                            Json::Array(per.iter().map(|a| a.to_json()).collect()),
                        ),
                    ])
                );
            } else {
                println!("scheduler: fixed priority (file order = priority order)");
                for (i, a) in per.iter().enumerate() {
                    println!("\npriority {i}:\n{a}");
                }
            }
        }
        "edf" => {
            // A vertex without a deadline is an input error, like a parse
            // error: the file cannot be analysed under EDF as written.
            let r = edf_schedulable(&sys.tasks, &beta).map_err(|e| match e {
                AnalysisError::MissingDeadline { .. } => input(e.to_string()),
                e => CliError::Internal(e.to_string()),
            })?;
            if json {
                println!(
                    "{}",
                    Json::object(vec![
                        ("scheduler", Json::str("edf")),
                        ("degraded", Json::Bool(false)),
                        ("report", r.to_json()),
                    ])
                );
            } else {
                println!("scheduler: EDF (processor-demand criterion)");
                println!(
                    "schedulable: {} (busy window ≤ {}, {} breakpoints)",
                    r.schedulable, r.busy_window, r.breakpoints
                );
                if let Some((t, demand, supply)) = r.violation {
                    println!("first violation: window {t}: demand {demand} > supply {supply}");
                }
            }
        }
        other => return Err(input(format!("unknown scheduler '{other}' (fifo|fp|edf)"))),
    }
    Ok(())
}

/// `srtw serve`: run the resilient analysis service until a shutdown is
/// requested (signal or `POST /shutdown`), then drain gracefully. With
/// `--replicas N` (N ≥ 2) the process becomes a supervision-tree parent
/// over N shared-nothing replica processes; `--internal-replica` is the
/// (internal) replica entry point reached only by self-exec.
fn serve(opts: &[String]) -> Result<ExitCode, CliError> {
    let parse_ms = |key: &str, default: u64| -> Result<u64, CliError> {
        match opt_value(opts, key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|e| input(format!("bad {key} '{v}': {e}"))),
        }
    };
    let addr = opt_value(opts, "--addr").unwrap_or_else(|| "127.0.0.1:7878".into());

    // One --fault flag serves three layers: process-level specs
    // (abort@N | stall@N:MS | closefd@N) drive the supervision tree,
    // write faults break batch durability (journal: torn@N | jcorrupt@N)
    // or the spill store (pers-torn@N | pers-corrupt@N | pers-enospc@N),
    // and anything else is the metered FaultPlan grammar.
    let fault_spec = opt_value(opts, "--fault");
    let journal = opt_value(opts, "--journal");
    let persist = opt_value(opts, "--persist");
    let mut process_fault = None;
    let mut journal_fault = None;
    let mut persist_fault = None;
    let mut meter_fault = None;
    if let Some(spec) = &fault_spec {
        match ProcessFault::parse(spec) {
            Some(Ok(f)) => process_fault = Some(f),
            Some(Err(e)) => return Err(input(e)),
            None => match WriteFault::parse(spec) {
                Some(Ok(f)) if f.log == FaultLog::Journal => journal_fault = Some(f),
                Some(Ok(f)) => persist_fault = Some(f),
                Some(Err(e)) => return Err(input(e)),
                None => meter_fault = Some(FaultPlan::parse(spec).map_err(CliError::Input)?),
            },
        }
    }
    if journal_fault.is_some() && journal.is_none() {
        return Err(input(format!(
            "--fault {} requires --journal PREFIX (there is no journal to break)",
            fault_spec.as_deref().unwrap_or("")
        )));
    }
    if persist_fault.is_some() && persist.is_none() {
        return Err(input(format!(
            "--fault {} requires --persist DIR (there is no spill store to break)",
            fault_spec.as_deref().unwrap_or("")
        )));
    }

    let cfg = ServeConfig {
        addr: addr.clone(),
        workers: (parse_ms("--workers", available_parallelism() as u64)? as usize).max(1),
        queue: (parse_ms("--queue", 64)? as usize).max(1),
        max_conns: (parse_ms("--max-conns", 1_024)? as usize).max(1),
        drain: Duration::from_millis(parse_ms("--drain-ms", 5_000)?),
        grace: Duration::from_millis(parse_ms("--grace-ms", 2_000)?),
        header_timeout: Duration::from_millis(parse_ms("--header-timeout-ms", 2_000)?),
        read_timeout: Duration::from_millis(parse_ms("--read-timeout-ms", 5_000)?),
        default_deadline_ms: opt_value(opts, "--deadline-ms")
            .map(|v| {
                v.parse::<u64>()
                    .map_err(|e| input(format!("bad --deadline-ms '{v}': {e}")))
            })
            .transpose()?,
        fault: meter_fault,
        process_fault,
        replica: None,
        journal,
        journal_fault,
        cache_bytes: parse_ms("--cache-bytes", 64 * 1024 * 1024)? as usize,
        persist,
        persist_fault,
    };

    if opts.iter().any(|a| a == "--internal-replica") {
        return serve_replica(opts, cfg);
    }

    let replicas = parse_ms("--replicas", 1)? as usize;
    if replicas >= 2 {
        // Process, journal and persistence faults are "targeted": the
        // supervisor hands them to replica 0's first spawn only, so the
        // tree repairs one induced crash instead of a fleet-wide one.
        let targeted =
            process_fault.is_some() || journal_fault.is_some() || persist_fault.is_some();
        return serve_supervisor(opts, replicas, &addr, cfg.drain, fault_spec, targeted);
    }

    let server = Server::spawn(cfg).map_err(|e| input(format!("cannot bind {addr}: {e}")))?;
    signal::install_handlers();
    // Flushed immediately so a harness reading our stdout learns the
    // resolved (possibly ephemeral) port before the first request.
    println!("srtw-serve listening on {}", server.addr());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait_shutdown();
    eprintln!("shutdown requested; draining in-flight work");
    let report = server.shutdown();
    if report.clean() {
        eprintln!("drained cleanly");
    } else {
        // Mirrors batch degradation: still exit 0, with a stderr warning
        // — the cancelled requests were answered with sound bounds.
        eprintln!(
            "warning: drain incomplete: {} request(s) cancelled, {} worker thread(s) abandoned",
            report.cancelled, report.abandoned
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The replica entry point: rebuild the inherited shared listener, serve
/// on it, and announce the private admin address for the parent.
fn serve_replica(opts: &[String], mut cfg: ServeConfig) -> Result<ExitCode, CliError> {
    let fd: i32 = opt_value(opts, "--listener-fd")
        .ok_or_else(|| input("--internal-replica requires --listener-fd"))?
        .parse()
        .map_err(|e| input(format!("bad --listener-fd: {e}")))?;
    let index: usize = opt_value(opts, "--replica-index")
        .ok_or_else(|| input("--internal-replica requires --replica-index"))?
        .parse()
        .map_err(|e| input(format!("bad --replica-index: {e}")))?;
    let listener = srtw::serve::sys::listener_from_fd(fd)
        .ok_or_else(|| input(format!("cannot adopt inherited listener fd {fd}")))?;
    cfg.replica = Some(index);
    let server = Server::from_listener(listener, cfg)
        .map_err(|e| input(format!("replica {index}: cannot start: {e}")))?;
    signal::install_handlers();
    let admin = server
        .spawn_admin("127.0.0.1:0")
        .map_err(|e| input(format!("replica {index}: cannot bind admin plane: {e}")))?;
    println!(
        "srtw-serve replica {index} pid {} admin on {admin}",
        std::process::id()
    );
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    server.wait_shutdown();
    eprintln!("replica {index}: shutdown requested; draining");
    let report = server.shutdown();
    if !report.clean() {
        eprintln!(
            "replica {index}: warning: drain incomplete: {} cancelled, {} abandoned",
            report.cancelled, report.abandoned
        );
    }
    Ok(ExitCode::SUCCESS)
}

/// The supervision-tree parent: bind once, replicate, restart, drain.
fn serve_supervisor(
    opts: &[String],
    replicas: usize,
    addr: &str,
    drain: Duration,
    fault_spec: Option<String>,
    targeted_fault: bool,
) -> Result<ExitCode, CliError> {
    // Flags forwarded verbatim to every replica. --addr, --replicas,
    // --admin-addr and --fault stay with the parent (the fault is routed
    // below: meter faults to every replica, process and journal faults to
    // replica 0's first spawn only).
    let mut child_args = Vec::new();
    for key in [
        "--workers",
        "--queue",
        "--max-conns",
        "--drain-ms",
        "--grace-ms",
        "--header-timeout-ms",
        "--read-timeout-ms",
        "--deadline-ms",
        "--journal",
        "--cache-bytes",
        "--persist",
    ] {
        if let Some(v) = opt_value(opts, key) {
            child_args.push(key.to_string());
            child_args.push(v);
        }
    }
    if !targeted_fault {
        if let Some(spec) = &fault_spec {
            child_args.push("--fault".into());
            child_args.push(spec.clone());
        }
    }
    let rcfg = ReplicaConfig {
        addr: addr.to_string(),
        admin_addr: opt_value(opts, "--admin-addr").unwrap_or_else(|| "127.0.0.1:0".into()),
        replicas,
        restart: RestartPolicy::default(),
        drain,
        child_args,
        process_fault: targeted_fault.then_some(fault_spec).flatten(),
    };
    signal::install_handlers();
    let sup =
        Supervisor::bind(rcfg).map_err(|e| input(format!("cannot start supervisor: {e}")))?;
    Ok(ExitCode::from(sup.run() as u8))
}

/// `srtw flood`: the load generator behind the replicated soak — many
/// short-lived (or keep-alive-reusing) connections against a running
/// service, with a machine-readable outcome line. Transport errors do not
/// fail the command: under injected process faults they are expected, and
/// the caller asserts on the printed counts instead.
fn flood(opts: &[String]) -> Result<ExitCode, CliError> {
    use srtw::serve::http::client_roundtrip;
    use std::sync::atomic::{AtomicU64, Ordering};
    let addr: std::net::SocketAddr = opts
        .first()
        .ok_or_else(|| {
            input(
                "usage: srtw flood <addr> [--count N] [--concurrency N] [--analyze FILE | --batch MANIFEST]",
            )
        })?
        .parse()
        .map_err(|e| input(format!("bad flood address: {e}")))?;
    let count: u64 = opt_value(opts, "--count")
        .unwrap_or_else(|| "1000".into())
        .parse()
        .map_err(|e| input(format!("bad --count: {e}")))?;
    let concurrency: u64 = opt_value(opts, "--concurrency")
        .unwrap_or_else(|| "4".into())
        .parse::<u64>()
        .map_err(|e| input(format!("bad --concurrency: {e}")))?
        .max(1);
    if opt_value(opts, "--analyze").is_some() && opt_value(opts, "--batch").is_some() {
        return Err(input("--analyze and --batch are mutually exclusive"));
    }
    let body = match opt_value(opts, "--analyze") {
        None => None,
        Some(path) => Some(
            std::fs::read(&path).map_err(|e| input(format!("cannot read {path}: {e}")))?,
        ),
    };
    // --batch floods the streaming endpoint: each request POSTs the
    // manifest body and parses the chunked ndjson response
    // (client_roundtrip decodes the chunked framing), counting the job
    // lines it received so a soak can assert that every stream was
    // complete, not merely 200.
    let batch = match opt_value(opts, "--batch") {
        None => None,
        Some(path) => Some(
            std::fs::read(&path).map_err(|e| input(format!("cannot read {path}: {e}")))?,
        ),
    };
    // --prewarm N posts the --analyze body N times before the timed run,
    // so the measured flood hits the service's warm result cache; with 0
    // (the default) the flood measures the cold path.
    let prewarm: u64 = opt_value(opts, "--prewarm")
        .unwrap_or_else(|| "0".into())
        .parse()
        .map_err(|e| input(format!("bad --prewarm: {e}")))?;
    if prewarm > 0 {
        let Some(b) = body.as_deref() else {
            return Err(input("--prewarm requires --analyze FILE"));
        };
        for _ in 0..prewarm {
            let _ = client_roundtrip(&addr, "POST", "/analyze", &[], b);
        }
    }
    let started = std::time::Instant::now();
    let ok = AtomicU64::new(0);
    let shed = AtomicU64::new(0);
    let client_err = AtomicU64::new(0);
    let server_err = AtomicU64::new(0);
    let transport = AtomicU64::new(0);
    let batch_lines = AtomicU64::new(0);
    std::thread::scope(|s| {
        for worker in 0..concurrency {
            let mine = count / concurrency + u64::from(worker < count % concurrency);
            let (ok, shed, client_err, server_err, transport, batch_lines) =
                (&ok, &shed, &client_err, &server_err, &transport, &batch_lines);
            let body = body.as_deref();
            let batch = batch.as_deref();
            s.spawn(move || {
                for _ in 0..mine {
                    let result = match (body, batch) {
                        (None, None) => client_roundtrip(&addr, "GET", "/healthz", &[], b""),
                        (Some(b), _) => client_roundtrip(&addr, "POST", "/analyze", &[], b),
                        (None, Some(m)) => client_roundtrip(&addr, "POST", "/batch", &[], m),
                    };
                    match result {
                        Ok((status, _, resp_body)) => {
                            if batch.is_some() && status == 200 {
                                let jobs = resp_body
                                    .lines()
                                    .filter(|l| !l.starts_with("{\"summary\""))
                                    .count();
                                batch_lines.fetch_add(jobs as u64, Ordering::Relaxed);
                            }
                            match status {
                                200..=299 => ok.fetch_add(1, Ordering::Relaxed),
                                503 => shed.fetch_add(1, Ordering::Relaxed),
                                400..=499 => client_err.fetch_add(1, Ordering::Relaxed),
                                _ => server_err.fetch_add(1, Ordering::Relaxed),
                            }
                        }
                        Err(_) => transport.fetch_add(1, Ordering::Relaxed),
                    };
                }
            });
        }
    });
    let batch_suffix = if batch.is_some() {
        format!(" batch_lines={}", batch_lines.into_inner())
    } else {
        String::new()
    };
    let elapsed = started.elapsed().as_secs_f64().max(1e-9);
    println!(
        "flood complete: total={count} ok={} shed_503={} client_4xx={} server_5xx={} transport_errors={} req_per_s={:.1}{batch_suffix}",
        ok.into_inner(),
        shed.into_inner(),
        client_err.into_inner(),
        server_err.into_inner(),
        transport.into_inner(),
        count as f64 / elapsed,
    );
    Ok(ExitCode::SUCCESS)
}

fn rbf(sys: &SystemSpec, opts: &[String]) -> Result<(), CliError> {
    let horizon: Q = opt_value(opts, "--horizon")
        .unwrap_or_else(|| "100".into())
        .parse()
        .map_err(|e| input(format!("bad --horizon: {e}")))?;
    for t in &sys.tasks {
        let rbf = Rbf::compute_metered(t, horizon, &BudgetMeter::unlimited())
            .map_err(|e| CliError::Internal(e.to_string()))?;
        println!("task {}: rbf breakpoints (window, work):", t.name());
        for &(s, w) in rbf.points() {
            println!("  {s:>8}  {w}");
        }
    }
    Ok(())
}

fn simulate(sys: &SystemSpec, opts: &[String]) -> Result<(), CliError> {
    let beta = server_curve(sys)?;
    let seeds: u64 = opt_value(opts, "--seeds")
        .unwrap_or_else(|| "20".into())
        .parse()
        .map_err(|e| input(format!("bad --seeds: {e}")))?;
    let horizon: Q = opt_value(opts, "--horizon")
        .unwrap_or_else(|| "300".into())
        .parse()
        .map_err(|e| input(format!("bad --horizon: {e}")))?;
    // Simulate on the fluid instance at the server's guaranteed rate
    // (which dominates the declared lower curve).
    let service = ServiceProcess::fluid(beta.rate());
    let per = fifo_structural(&sys.tasks, &beta, &AnalysisConfig::default())
        .map_err(|e| CliError::Internal(e.to_string()))?;
    let mut worst = Q::ZERO;
    for seed in 0..seeds {
        let traces: Vec<_> = sys
            .tasks
            .iter()
            .enumerate()
            .map(|(i, t)| earliest_random_walk(t, horizon, None, seed * 131 + i as u64))
            .collect();
        let out = simulate_fifo(&sys.tasks, &traces, &service);
        for (si, task) in sys.tasks.iter().enumerate() {
            for v in task.vertex_ids() {
                let d = out.max_delay_of(si, v);
                worst = worst.max(d);
                if d > per[si].bound_of(v) {
                    return Err(CliError::Internal(format!(
                        "BUG: simulated delay {d} exceeds bound {} (stream {si}, {v})",
                        per[si].bound_of(v)
                    )));
                }
            }
        }
    }
    println!(
        "simulated {seeds} random runs to horizon {horizon}: worst observed delay {worst} \
         (all within the analytic per-type bounds)"
    );
    Ok(())
}
