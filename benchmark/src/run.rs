//! One measured run of one workload against an in-process server.
//!
//! Set-up (server spawn, persistence warm-load, prewarm) is repeated
//! [`SETUP_REPS`] times and reported as a median; the last server takes
//! the timed phase. The load is a closed loop of [`CLIENTS`] clients — the
//! service's users are CI scripts and engineers who each wait for their
//! verdict — sharing one cursor over the seeded request list, so every run
//! sends the same requests. Correctness is checked after the clock stops.

use crate::client::Conn;
use crate::json::{self, Value};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::oracle;
use crate::stats::{median, nearest_rank};
use crate::trace::{self, Tracer};
use crate::workload::{self, Kind, Req, Workload};
use srtw_detrand::Rng;
use srtw_serve::{ServeConfig, Server};
use srtw_supervisor::journal::JournalWriter;
use std::collections::{BTreeMap, HashMap};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients, each with at most one connection.
pub const CLIENTS: usize = 2;
/// Server worker threads.
const WORKERS: usize = 2;
/// Set-up repetitions per run (the median is reported).
const SETUP_REPS: usize = 5;
/// Requests replayed in-process by a traced run.
const TRACE_SAMPLE: usize = 256;
/// A deadline far beyond any analysis here: it never trips, but it is
/// part of the cache key and makes the run metered.
const DEADLINE: (&str, &str) = ("X-Deadline-Ms", "60000");
const EXACT_PREFIX: &str = "{\"scheduler\":\"fifo\",\"degraded\":false,";

pub struct Options {
    pub workload: &'static Workload,
    pub seed: u64,
    pub requests: usize,
    pub trace: bool,
    /// Scratch space for spill files, journals and batch systems.
    pub work: PathBuf,
    /// Where a traced run writes its spans.
    pub spans: PathBuf,
}

/// What a run measured.
pub struct Outcome {
    pub attempted: usize,
    /// Non-2xx answers, transport errors and oracle mismatches.
    pub failed: usize,
    pub problems: Vec<String>,
    pub timed_secs: f64,
    /// Every end-to-end metric, in catalogue order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Every per-layer metric (traced runs only).
    pub layers: Vec<(&'static str, f64)>,
    /// Median self time per span name (traced runs only).
    pub self_us: BTreeMap<&'static str, f64>,
    /// Share of sampled requests whose in-process spans fit inside their
    /// round trip (traced runs only).
    pub within_rtt: Option<f64>,
}

fn config(persist: Option<&Path>, journal: Option<&Path>) -> ServeConfig {
    ServeConfig {
        workers: WORKERS,
        persist: persist.map(|p| p.display().to_string()),
        journal: journal.map(|p| p.display().to_string()),
        ..Default::default()
    }
}

/// POSTs every body to `/analyze` over the closed loop; set-up traffic
/// must succeed, so any failure aborts the run.
fn post_all(addr: SocketAddr, bodies: &[String]) -> Result<(), String> {
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut conn = Conn::new(addr);
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(body) = bodies.get(i) else {
                            return Ok(());
                        };
                        match conn.send("POST", "/analyze", &[], body.as_bytes()) {
                            Ok(r) if r.status == 200 => {}
                            Ok(r) => {
                                return Err(format!("set-up request {i}: {} {}", r.status, r.body))
                            }
                            Err(e) => return Err(format!("set-up request {i}: {e}")),
                        }
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .try_for_each(|w| w.join().expect("set-up client panicked"))
    })
}

fn get(conn: &mut Conn, target: &str) -> Result<String, String> {
    match conn.send("GET", target, &[], b"") {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(r) => Err(format!("GET {target}: {}", r.status)),
        Err(e) => Err(format!("GET {target}: {e}")),
    }
}

fn stats(addr: SocketAddr) -> Result<Value, String> {
    json::parse(&get(&mut Conn::new(addr), "/stats")?).map_err(|e| format!("/stats: {e}"))
}

fn stat(doc: &Value, key: &str) -> f64 {
    doc.get(key).and_then(Value::num).unwrap_or(0.0)
}

fn drain(server: Server, problems: &mut Vec<String>) {
    let report = server.shutdown();
    if !report.clean() {
        problems.push(format!("server did not drain cleanly: {report:?}"));
    }
}

/// Process CPU time (user + system) from `/proc/self/stat`, in
/// milliseconds. Linux reports it in USER_HZ = 100 ticks per second.
fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<f64> = after_comm
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0.0))
        .collect();
    // Fields 14 (utime) and 15 (stime); the slice starts at field 3.
    (fields.get(11).unwrap_or(&0.0) + fields.get(12).unwrap_or(&0.0)) * 10.0
}

/// Resident set size from `/proc/self/status`, in MiB.
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One timed request as the client saw it. Kept small: a run records one
/// per request, and that memory counts in `rss_mb`.
struct Sent {
    index: u32,
    ok: bool,
    /// Send time, microseconds after the timed phase started.
    start_us: f32,
    rtt_us: f32,
}

impl Sent {
    /// Completion time, seconds after the timed phase started.
    fn end_secs(&self) -> f64 {
        f64::from(self.start_us + self.rtt_us) / 1e6
    }

    fn rtt_ms(&self) -> f64 {
        f64::from(self.rtt_us) / 1e3
    }
}

/// What one client recorded during the timed phase.
#[derive(Default)]
struct Log {
    sent: Vec<Sent>,
    /// `(request index, body)` of every answer the oracle will check.
    bodies: Vec<(usize, String)>,
    problems: Vec<String>,
    /// Analysis results (one per `/analyze`, one per batch job line).
    analyses: u64,
    exact: u64,
    deltas: u64,
    splices: u64,
    batch_ms_per_job: Vec<f64>,
    tracer: Option<Tracer>,
}

/// What a traced timed phase needs: which requests to replay, the spans'
/// time origin, and where to put the replay journals.
struct Tracing<'a> {
    sample: &'a [bool],
    epoch: Instant,
    dir: &'a Path,
}

/// The timed phase: `CLIENTS` closed-loop clients draw requests from a
/// shared cursor until the list is exhausted or `cap` has passed. Also
/// returns the phase's length and `(seconds, process CPU ms)` samples
/// taken every 50 ms.
fn closed_loop(
    addr: SocketAddr,
    reqs: &[Req],
    cap: Duration,
    tracing: Option<&Tracing>,
) -> (Vec<Log>, f64, Vec<(f64, f64)>) {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let done = std::sync::atomic::AtomicBool::new(false);
    let (logs, cpu) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut samples = vec![(0.0, cpu_ms())];
            while !done.load(Ordering::Relaxed) {
                std::thread::sleep(Duration::from_millis(50));
                samples.push((started.elapsed().as_secs_f64(), cpu_ms()));
            }
            samples
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|k| {
                let cursor = &cursor;
                s.spawn(move || client(k, addr, reqs, cursor, started, cap, tracing))
            })
            .collect();
        let logs: Vec<Log> = clients
            .into_iter()
            .map(|c| c.join().expect("load client panicked"))
            .collect();
        done.store(true, Ordering::Relaxed);
        (logs, sampler.join().expect("cpu sampler panicked"))
    });
    (logs, started.elapsed().as_secs_f64(), cpu)
}

fn client(
    k: usize,
    addr: SocketAddr,
    reqs: &[Req],
    cursor: &AtomicUsize,
    started: Instant,
    cap: Duration,
    tracing: Option<&Tracing>,
) -> Log {
    let mut conn = Conn::new(addr);
    // Reserved, not touched: only the pages a client fills become resident.
    let mut log = Log {
        sent: Vec::with_capacity(reqs.len()),
        tracer: tracing.map(|t| Tracer::new(t.epoch)),
        ..Log::default()
    };
    let mut journal = tracing.map(|t| {
        JournalWriter::create(&t.dir.join(format!("trace-{k}.journal")), 0)
            .expect("create a trace journal in the run's scratch directory")
    });
    // First body seen per key: repeats must replay it byte-for-byte.
    let mut first: HashMap<u32, String> = HashMap::new();
    while started.elapsed() < cap {
        let index = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(req) = reqs.get(index) else { break };
        let headers: &[(&str, &str)] = if req.deadline { &[DEADLINE] } else { &[] };
        let start = Instant::now();
        let result = conn.send("POST", req.kind.target(), headers, req.body.as_bytes());
        let rtt_us = start.elapsed().as_secs_f32() * 1e6;
        let sent = |ok| Sent {
            index: index as u32,
            ok,
            start_us: start.duration_since(started).as_secs_f32() * 1e6,
            rtt_us,
        };
        let reply = match result {
            Ok(r) if (200..300).contains(&r.status) => r,
            Ok(r) => {
                log.problems.push(format!(
                    "request {index}: HTTP {} {}",
                    r.status,
                    r.body.trim()
                ));
                log.sent.push(sent(false));
                continue;
            }
            Err(e) => {
                log.problems.push(format!("request {index}: {e}"));
                log.sent.push(sent(false));
                continue;
            }
        };
        log.sent.push(sent(true));
        if let (Some(t), Some(tr), Some(journal)) = (tracing, &mut log.tracer, &mut journal) {
            if t.sample[index] {
                let rs = tr.record(
                    None,
                    index,
                    "request",
                    start,
                    Duration::from_secs_f32(rtt_us / 1e6),
                );
                tr.attr(rs, "bytes", req.body.len() as f64);
                trace::replay(tr, index, req, rs, journal);
            }
        }
        match req.kind {
            Kind::Batch => {
                let jobs: Vec<&str> = reply
                    .body
                    .lines()
                    .filter(|l| l.starts_with("{\"name\""))
                    .collect();
                log.analyses += jobs.len() as u64;
                log.exact += jobs
                    .iter()
                    .filter(|l| l.contains("\"status\":\"exact\""))
                    .count() as u64;
                log.batch_ms_per_job
                    .push(f64::from(rtt_us) / 1e3 / jobs.len().max(1) as f64);
            }
            kind => {
                log.analyses += 1;
                log.exact += u64::from(reply.body.starts_with(EXACT_PREFIX));
                if kind == Kind::Delta {
                    log.deltas += 1;
                    let splice = reply.delta_reuse.as_deref().is_some_and(|h| {
                        h.contains("full_fallback=false") && !h.contains("source=cache")
                    });
                    log.splices += u64::from(splice);
                }
            }
        }
        if req.sampled {
            match req.key {
                Some(k) => match first.get(&k) {
                    Some(seen) if *seen == reply.body => {}
                    Some(_) => log.bodies.push((index, reply.body)),
                    None => {
                        first.insert(k, reply.body.clone());
                        log.bodies.push((index, reply.body));
                    }
                },
                None => log.bodies.push((index, reply.body)),
            }
        }
    }
    log
}

/// One slice of the timed phase: the requests that completed in it.
struct Window {
    secs: f64,
    done: usize,
    /// Round trips, ascending, in milliseconds.
    rtt_ms: Vec<f64>,
    /// Process CPU time spent in the slice.
    cpu_ms: f64,
}

/// The timed phase cut into equal slices of wall time. Every end-to-end
/// timing is the median over slices of its per-slice value, so a burst of
/// interference from outside the process — common on a shared machine —
/// moves it only when it covers most of the run.
struct Windows<'a> {
    sent: &'a [&'a Sent],
    secs: f64,
    /// `(seconds, process CPU ms)` samples of the phase.
    cpu: &'a [(f64, f64)],
}

impl Windows<'_> {
    /// Process CPU time at `t` seconds, interpolated between samples.
    fn cpu_at(&self, t: f64) -> f64 {
        let after = self.cpu.partition_point(|&(at, _)| at <= t);
        match (self.cpu.get(after.wrapping_sub(1)), self.cpu.get(after)) {
            (Some(&(t0, c0)), Some(&(t1, c1))) if t1 > t0 => c0 + (c1 - c0) * (t - t0) / (t1 - t0),
            (Some(&(_, c)), _) | (None, Some(&(_, c))) => c,
            (None, None) => 0.0,
        }
    }

    /// The median over slices of `stat`, with as many slices (up to 20)
    /// as leave at least `per` completed requests in each.
    fn median(&self, per: usize, stat: impl Fn(&Window) -> f64) -> f64 {
        let done: Vec<(f64, f64)> = self
            .sent
            .iter()
            .filter(|s| s.ok)
            .map(|s| (s.end_secs(), s.rtt_ms()))
            .collect();
        let k = (done.len() / per).clamp(1, 20);
        let width = self.secs / k as f64;
        let values: Vec<f64> = (0..k)
            .map(|j| {
                let (lo, hi) = (j as f64 * width, (j + 1) as f64 * width);
                let last = j + 1 == k;
                let mut rtt_ms: Vec<f64> = done
                    .iter()
                    .filter(|&&(end, _)| end >= lo && (end < hi || last))
                    .map(|&(_, rtt)| rtt)
                    .collect();
                rtt_ms.sort_by(f64::total_cmp);
                stat(&Window {
                    secs: width,
                    done: rtt_ms.len(),
                    cpu_ms: self.cpu_at(hi) - self.cpu_at(lo),
                    rtt_ms,
                })
            })
            .collect();
        median(&values)
    }
}

/// Diffs every kept body against the oracle on two threads.
fn verify(reqs: &[Req], bodies: &[(usize, String)]) -> Vec<String> {
    let half = bodies.len() / 2;
    let check = |part: &[(usize, String)]| -> Vec<String> {
        part.iter()
            .filter_map(|(i, body)| {
                oracle::check(&reqs[*i], body)
                    .err()
                    .map(|e| format!("request {i}: {e}"))
            })
            .collect()
    };
    std::thread::scope(|s| {
        let hi = s.spawn(|| check(&bodies[half..]));
        let mut out = check(&bodies[..half]);
        out.extend(hi.join().expect("oracle thread panicked"));
        out
    })
}

/// Runs one workload end to end and returns its measurements.
pub fn run(opts: &Options) -> Result<Outcome, String> {
    let _ = std::fs::remove_dir_all(&opts.work);
    std::fs::create_dir_all(&opts.work).map_err(|e| format!("{}: {e}", opts.work.display()))?;
    let result = measure(opts);
    let _ = std::fs::remove_dir_all(&opts.work);
    result
}

fn measure(opts: &Options) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let name = opts.workload.name;
    let corpus = workload::corpus(name, opts.seed, opts.requests, &opts.work);
    let reqs = &corpus.timed;
    let durable = name == "durable";
    let spill = opts.work.join("spill");
    let journal = opts.work.join("batch.journal");
    let cfg = if durable {
        config(Some(&spill), Some(&journal))
    } else {
        config(None, None)
    };
    let mut problems = Vec::new();

    if !corpus.fixture.is_empty() {
        let fixture = Server::spawn(config(Some(&spill), None)).map_err(|e| e.to_string())?;
        post_all(fixture.addr(), &corpus.fixture)?;
        let stored = stat(&stats(fixture.addr())?, "persist_stored") as usize;
        drain(fixture, &mut problems);
        if stored != corpus.fixture.len() {
            return Err(format!(
                "fixture spilled {stored} of {} records",
                corpus.fixture.len()
            ));
        }
    }

    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for rep in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = Server::spawn(cfg.clone()).map_err(|e| e.to_string())?;
        post_all(s.addr(), &corpus.prewarm)?;
        get(&mut Conn::new(s.addr()), "/readyz")?;
        setup.push(t0.elapsed().as_secs_f64());
        if rep + 1 < SETUP_REPS {
            drain(s, &mut problems);
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one set-up repetition");
    let addr = server.addr();

    let before = stats(addr)?;
    let nominal = reqs.len() as f64 / opts.workload.rate as f64;
    let cap = Duration::from_secs_f64((4.0 * nominal).clamp(10.0, 100.0));
    // A traced run replays a seeded sample of requests as they complete.
    let mut sample = vec![false; reqs.len()];
    let mut order: Vec<usize> = (0..reqs.len()).collect();
    Rng::seed_from_u64(opts.seed ^ 0x7ACE).shuffle(&mut order);
    for &i in order.iter().take(TRACE_SAMPLE) {
        sample[i] = true;
    }
    let tracing = Tracing {
        sample: &sample,
        epoch,
        dir: &opts.work,
    };
    let (mut logs, timed_secs, cpu_samples) =
        closed_loop(addr, reqs, cap, opts.trace.then_some(&tracing));
    let rss = rss_mib();
    let after = stats(addr)?;
    let bodies: Vec<(usize, String)> = logs
        .iter_mut()
        .flat_map(|l| std::mem::take(&mut l.bodies))
        .collect();
    let tracers: Vec<Tracer> = logs.iter_mut().filter_map(|l| l.tracer.take()).collect();

    let mut sent: Vec<&Sent> = logs.iter().flat_map(|l| &l.sent).collect();
    sent.sort_by_key(|s| s.index);
    let attempted = sent.len();
    let completed = sent.iter().filter(|s| s.ok).count();
    if attempted < reqs.len() {
        problems.push(format!(
            "timed phase hit its {:.0} s cap after {attempted} of {} requests",
            cap.as_secs_f64(),
            reqs.len()
        ));
    }
    let sum = |f: fn(&Log) -> u64| logs.iter().map(f).sum::<u64>();
    let (analyses, exact) = (sum(|l| l.analyses), sum(|l| l.exact));
    let (deltas, splices) = (sum(|l| l.deltas), sum(|l| l.splices));
    problems.extend(logs.iter().flat_map(|l| l.problems.iter().cloned()));

    let mut rtt_ms: Vec<f64> = sent.iter().map(|s| s.rtt_ms()).collect();
    rtt_ms.sort_by(f64::total_cmp);
    let client_p50_ms = nearest_rank(&rtt_ms, 0.5);
    let windows = Windows {
        sent: &sent,
        secs: timed_secs,
        cpu: &cpu_samples,
    };

    // Traced runs also time the front end while the server is up, and the
    // spill load once it has stopped.
    let mut layer_values: HashMap<&'static str, f64> = HashMap::new();
    if opts.trace {
        let mut conn = Conn::new(addr);
        let mut healthz = Vec::with_capacity(64);
        for _ in 0..64 {
            let t = Instant::now();
            get(&mut conn, "/healthz")?;
            healthz.push(t.elapsed().as_secs_f64() * 1e6);
        }
        layer_values.insert("http.healthz_rtt_us", median(&healthz));
    }
    drain(server, &mut problems);
    if opts.trace && durable {
        let loads: Vec<f64> = (0..3)
            .map(|_| {
                let t = Instant::now();
                std::hint::black_box(srtw_persist::load_dir(&spill));
                t.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        layer_values.insert("persist.load_dir_ms", median(&loads));
    }

    let batch_ms: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.batch_ms_per_job.iter().copied())
        .collect();
    let mismatches = verify(reqs, &bodies);
    let failed = attempted - completed + mismatches.len();
    problems.extend(mismatches);

    let metrics: Vec<(&'static str, f64)> = END_TO_END
        .iter()
        .map(|m| {
            let v = match m.name {
                "setup_s" => median(&setup),
                "throughput_rps" => windows.median(100, |w| w.done as f64 / w.secs),
                "latency_p50_ms" => windows.median(100, |w| nearest_rank(&w.rtt_ms, 0.5)),
                "latency_p99_ms" => windows.median(1000, |w| nearest_rank(&w.rtt_ms, 0.99)),
                "cpu_ms_per_req" => windows.median(100, |w| w.cpu_ms / w.done.max(1) as f64),
                "rss_mb" => rss,
                "error_rate" => failed as f64 / attempted.max(1) as f64,
                "exact_share" => exact as f64 / analyses.max(1) as f64,
                other => unreachable!("uncatalogued metric {other}"),
            };
            (m.name, v)
        })
        .collect();

    let mut outcome = Outcome {
        attempted,
        failed,
        problems,
        timed_secs,
        metrics,
        layers: Vec::new(),
        self_us: BTreeMap::new(),
        within_rtt: None,
    };
    if opts.trace {
        let mut tr = Tracer::new(epoch);
        for t in tracers {
            tr.absorb(t);
        }
        tr.write_jsonl(&opts.spans)
            .map_err(|e| format!("{}: {e}", opts.spans.display()))?;
        let delta = |k: &str| stat(&after, k) - stat(&before, k);
        let (hits, misses) = (delta("cache_hits"), delta("cache_misses"));
        let server_p50_ms = after
            .get("latency")
            .and_then(|l| l.get("p50_ms"))
            .and_then(Value::num)
            .unwrap_or(0.0);
        layer_values.insert("serve.wait_us", (client_p50_ms - server_p50_ms) * 1e3);
        layer_values.insert("serve.cache_hit_ratio", ratio(hits, hits + misses));
        layer_values.insert("serve.cache_evictions", stat(&after, "cache_evictions"));
        layer_values.insert("serve.cache_bytes", stat(&after, "cache_bytes"));
        layer_values.insert(
            "serve.delta_splice_ratio",
            ratio(splices as f64, deltas as f64),
        );
        layer_values.insert("persist.stored", delta("persist_stored"));
        layer_values.insert("persist.errors", stat(&after, "persist_errors"));
        layer_values.insert("journal.batch_jobs", delta("batch_jobs"));
        outcome.layers = layer_metrics(&tr, layer_values, &batch_ms);
        outcome.self_us = tr
            .self_times()
            .into_iter()
            .map(|(k, v)| (k, median(&v)))
            .collect();
        let residuals = tr.request_residuals();
        let within = residuals.iter().filter(|(rtt, inner)| inner <= rtt).count();
        outcome.within_rtt = Some(ratio(within as f64, residuals.len() as f64));
    }
    Ok(outcome)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The median of `xs`, or 0 for a layer this workload never reached.
fn median_or_zero(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        median(xs)
    }
}

/// Every per-layer metric from the spans plus the values measured
/// directly (`direct`); layers this workload never reaches read 0.
fn layer_metrics(
    tr: &Tracer,
    mut direct: HashMap<&'static str, f64>,
    batch_ms_per_job: &[f64],
) -> Vec<(&'static str, f64)> {
    let dur = |name: &str| median_or_zero(&tr.durations(name));
    let attr = |name: &str, key: &str| median_or_zero(&tr.attrs(name, key));
    let total = |name: &str, key: &str| tr.attrs(name, key).iter().sum::<f64>();
    let residuals: Vec<f64> = tr.request_residuals().iter().map(|(r, c)| r - c).collect();
    PER_LAYER
        .iter()
        .map(|m| {
            let v = match m.name {
                "serve.residual_us" => median_or_zero(&residuals),
                "textfmt.parse_us" => dur("textfmt.parse"),
                "textfmt.body_bytes" => attr("textfmt.parse", "bytes"),
                "canon.form_us" => dur("canon.form"),
                "busy.window_us" => dur("busy.window"),
                "busy.iterations" => attr("busy.window", "iterations"),
                "busy.rbf_points" => attr("busy.window", "rbf_points"),
                "rbf.compute_us" => dur("rbf.compute"),
                "rbf.points" => attr("rbf.compute", "points"),
                "paths.explore_us" => dur("paths.explore"),
                "paths.generated" => attr("paths.explore", "generated"),
                "paths.pruned" => attr("paths.explore", "pruned"),
                "paths.retained" => attr("paths.explore", "retained"),
                "paths.prune_ratio" => ratio(
                    total("paths.explore", "pruned"),
                    total("paths.explore", "generated"),
                ),
                "minplus.meter_paths" => attr("busy.window", "meter_paths"),
                "minplus.meter_segments" => attr("busy.window", "meter_segments"),
                "analysis.structural_us" => dur("analysis.structural"),
                "analysis.rtc_us" => dur("analysis.rtc"),
                "analysis.report_us" => dur("analysis.report"),
                "json.render_us" => dur("json.render"),
                "json.body_bytes" => attr("json.render", "bytes"),
                "journal.append_us" => dur("journal.append"),
                "supervisor.batch_job_ms" => median_or_zero(batch_ms_per_job),
                other => direct.remove(other).unwrap_or(0.0),
            };
            (m.name, v)
        })
        .collect()
}
