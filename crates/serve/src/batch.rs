//! Streaming durable batch: `POST /batch`.
//!
//! The request body is a batch manifest — one `.srtw` path per line,
//! `#` comments — resolved relative to the server's working directory.
//! The response is HTTP/1.1 chunked `application/x-ndjson`: one JSON
//! line per job *as it finishes* (the same per-job object as a
//! `srtw batch --json` `jobs[]` entry), then one `{"summary":…}` line,
//! so a client watches progress live instead of waiting out the batch.
//!
//! Each job runs under the full supervision ladder
//! ([`srtw_supervisor::run_batch_observed`]): retries, budget
//! degradation, panic containment, and per-attempt provenance all
//! behave exactly as in CLI batch mode. Two robustness properties are
//! layered on top:
//!
//! - **Disconnect cancellation** — a watcher thread polls the socket
//!   ([`crate::mux::peer_closed`]); when the client goes away
//!   mid-stream the batch's [`CancelToken`] is raised and the remaining
//!   jobs wind down through the sound degradation path instead of
//!   burning workers for a reader that no longer exists.
//! - **Durability** — with [`crate::ServeConfig::journal`] set, every
//!   outcome is appended (fsync'd, CRC-framed) to a journal keyed by
//!   the manifest digest *before* the line is streamed. A replica that
//!   dies mid-batch answers the re-POSTed manifest by replaying the
//!   journaled outcomes verbatim — byte-identical lines, original wall
//!   times — and recomputes only the unfinished tail. When the journal
//!   already covers *every* manifest entry, the whole report streams on
//!   a fast path with no supervisor, cancel token, or disconnect
//!   watcher at all. A journal append failure aborts the process:
//!   durability was requested, so losing it is a crash, and under
//!   `--replicas` the supervision tree turns that crash into exactly
//!   the restart + resume path it exists for. A journal *open* failure,
//!   by contrast, degrades: nothing durable has been promised yet, so
//!   the batch runs unjournaled with a typed `srtw-persist:` warning —
//!   persistence failure never changes an HTTP status or a result byte.

use crate::http::{chunk, chunked_head, Request, Response, CHUNK_TERMINATOR};
use crate::mux;
use crate::server::{error_body, Shared};
use srtw_core::textfmt::parse_system;
use srtw_core::Json;
use srtw_minplus::CancelToken;
use srtw_persist::PersistError;
use srtw_supervisor::journal::{self, JournalRecord, JournalWriter};
use srtw_supervisor::{
    run_batch_observed, BatchConfig, JobOutcome, JobSpec, OutcomeObserver, SupervisorConfig,
};
use std::collections::HashMap;
use std::io::{self, Write as _};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// How often the watcher probes the client socket for a hangup.
const DISCONNECT_POLL: Duration = Duration::from_millis(50);

/// One manifest entry: a loadable job or its pre-run failure (missing
/// file, parse error, absent server line) — the same containment as the
/// CLI queue loader, so one bad path degrades one line, not the batch.
enum Entry {
    Job(Box<JobSpec>),
    PreFailed(JournalRecord),
}

impl Entry {
    fn name(&self) -> &str {
        match self {
            Entry::Job(spec) => &spec.name,
            Entry::PreFailed(rec) => &rec.name,
        }
    }
}

/// Serves one `POST /batch` exchange, writing the entire (chunked)
/// response itself; the caller only lingers and closes afterwards.
pub(crate) fn stream_batch(shared: &Shared, req: &Request, stream: &mut TcpStream) {
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    match prepare(shared, req) {
        Ok(prepared) => run_and_stream(shared, prepared, stream),
        Err(resp) => {
            shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            let _ = resp.write_to(stream);
        }
    }
}

/// Everything decided before the first response byte: the parsed
/// entries, the journal (opened or created), the replayable records, and
/// whether the journal already covers the whole manifest.
struct Prepared {
    entries: Vec<Entry>,
    writer: Option<Arc<Mutex<JournalWriter>>>,
    replay: HashMap<String, JournalRecord>,
    /// `true` when every manifest entry has a journaled outcome: the
    /// response is a pure replay and skips the supervisor entirely.
    complete: bool,
}

fn prepare(shared: &Shared, req: &Request) -> Result<Prepared, Box<Response>> {
    if shared.draining_or_requested() {
        return Err(Box::new(Response::json(
            503,
            "{\"status\":\"draining\"}\n".into(),
        )));
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return Err(Box::new(Response::json(
            400,
            error_body(2, "input", "manifest body is not UTF-8", vec![]),
        )));
    };
    let files: Vec<&str> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect();
    if files.is_empty() {
        return Err(Box::new(Response::json(
            400,
            error_body(2, "input", "manifest lists no systems", vec![]),
        )));
    }
    let entries: Vec<Entry> = files.iter().map(|f| load_entry(f)).collect();

    // The journal is keyed by the digest of the manifest *body*: the
    // same manifest re-POSTed after a crash lands on the same file; a
    // different manifest can never replay foreign outcomes.
    let digest = journal::digest64(&req.body);
    let mut replay = HashMap::new();
    let mut complete = false;
    let writer = match &shared.cfg.journal {
        None => None,
        Some(prefix) => {
            let jpath = std::path::PathBuf::from(format!("{prefix}.{digest:016x}"));
            let writer = match journal::recover(&jpath) {
                Ok(rec) if rec.digest == digest => {
                    for w in &rec.warnings {
                        eprintln!("srtw-persist: {}: {w}", jpath.display());
                    }
                    complete = rec.covers(entries.iter().map(|e| e.name()));
                    for r in rec.records {
                        replay.insert(r.name.clone(), r);
                    }
                    JournalWriter::open_append(&jpath)
                }
                Ok(_) => {
                    eprintln!(
                        "srtw-persist: {}: byte 0: journal belongs to a different manifest; \
                         starting fresh",
                        jpath.display()
                    );
                    JournalWriter::create(&jpath, digest)
                }
                Err(e) if e.kind() == io::ErrorKind::NotFound => {
                    JournalWriter::create(&jpath, digest)
                }
                Err(e) => {
                    eprintln!(
                        "srtw-persist: {}: byte 0: journal is unreadable ({e}); starting fresh",
                        jpath.display()
                    );
                    JournalWriter::create(&jpath, digest)
                }
            };
            match writer {
                Ok(mut w) => {
                    w.set_fault(shared.cfg.journal_fault);
                    Some(Arc::new(Mutex::new(w)))
                }
                Err(e) => {
                    // Nothing durable has been promised yet, so an open
                    // failure degrades: the batch runs unjournaled with a
                    // typed warning. Only *append* failures (after the
                    // durability promise) are treated as crashes.
                    let typed = PersistError::classify(&jpath, &e);
                    shared.stats.persist_errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("srtw-persist: {typed}; batch continues without a journal");
                    None
                }
            }
        }
    };
    Ok(Prepared {
        entries,
        writer,
        replay,
        complete,
    })
}

/// Loads one manifest line the way the CLI queue loader does, containing
/// parse panics into a pre-failed record.
fn load_entry(file: &str) -> Entry {
    let path = std::path::Path::new(file);
    let name = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| file.to_string());
    let pre_failed = |name: &str, e: String| {
        Entry::PreFailed(JournalRecord::from_outcome(&JobOutcome::pre_failed(name, e)))
    };
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => return pre_failed(&name, format!("cannot read {file}: {e}")),
    };
    let loaded = catch_unwind(AssertUnwindSafe(|| -> Result<JobSpec, String> {
        let sys = parse_system(&text).map_err(|e| format!("{file}: {e}"))?;
        let server = sys
            .server
            .as_ref()
            .ok_or_else(|| format!("{file}: the system file declares no server"))?;
        let beta = server.beta_lower().map_err(|e| e.to_string())?;
        Ok(JobSpec::new(name.clone(), sys.tasks, beta))
    }));
    match loaded {
        Ok(Ok(spec)) => Entry::Job(Box::new(spec)),
        Ok(Err(e)) => pre_failed(&name, e),
        Err(_) => pre_failed(&name, "panic while parsing".into()),
    }
}

fn run_and_stream(shared: &Shared, prepared: Prepared, stream: &mut TcpStream) {
    let Prepared {
        entries,
        writer,
        mut replay,
        complete,
    } = prepared;

    // Everything past this point streams: head first, then one line per
    // job. All writes go through one clone of the stream behind a mutex
    // so the observer (on a supervisor worker thread) and this thread
    // never interleave chunks.
    let Ok(out_stream) = stream.try_clone() else {
        let _ = Response::json(
            500,
            error_body(3, "internal", "cannot clone the response stream", vec![]),
        )
        .write_to(stream);
        return;
    };
    let out = Arc::new(Mutex::new(out_stream));
    let alive = Arc::new(AtomicBool::new(true));
    let write_frame = {
        let out = Arc::clone(&out);
        let alive = Arc::clone(&alive);
        move |frame: &[u8]| {
            if !alive.load(Ordering::Acquire) {
                return;
            }
            let mut s = out.lock().unwrap();
            if s.write_all(frame).and_then(|()| s.flush()).is_err() {
                alive.store(false, Ordering::Release);
            }
        }
    };
    write_frame(&chunked_head(200, "application/x-ndjson"));

    // Warm-journal fast path: the journal fully covers the manifest, so
    // the entire report streams as a verbatim replay — no supervisor, no
    // cancel token, no disconnect watcher, nothing new to journal.
    if complete {
        let done: Vec<JournalRecord> = entries
            .iter()
            .map(|e| replay.get(e.name()).expect("complete covers every entry").clone())
            .collect();
        for rec in &done {
            write_frame(&chunk(format!("{}\n", rec.json).as_bytes()));
        }
        shared
            .stats
            .batch_replayed
            .fetch_add(done.len() as u64, Ordering::Relaxed);
        stream_summary(&write_frame, &done, done.len() as u64);
        return;
    }

    // The batch-wide cancel token: raised by drain (via inflight), by
    // hard-cancel, and by the disconnect watcher below.
    let token = CancelToken::new();
    if shared.hard_cancel.load(Ordering::Relaxed) {
        token.cancel();
    }
    shared.register(token.clone());
    let watcher_stop = Arc::new(AtomicBool::new(false));
    let watcher = stream.try_clone().ok().map(|probe| {
        let token = token.clone();
        let stop = Arc::clone(&watcher_stop);
        let alive = Arc::clone(&alive);
        thread::spawn(move || {
            while !stop.load(Ordering::Acquire) {
                if mux::peer_closed(&probe) || !alive.load(Ordering::Acquire) {
                    token.cancel();
                    alive.store(false, Ordering::Release);
                    return;
                }
                thread::sleep(DISCONNECT_POLL);
            }
        })
    });

    // Replayed and pre-failed lines stream immediately, in manifest
    // order; fresh jobs queue for the supervised pool.
    let mut lines: Vec<Option<JournalRecord>> = Vec::with_capacity(entries.len());
    let mut fresh: Vec<(usize, JobSpec)> = Vec::new();
    let mut replayed = 0u64;
    for (i, entry) in entries.into_iter().enumerate() {
        if let Some(rec) = replay.remove(entry.name()) {
            replayed += 1;
            write_frame(&chunk(format!("{}\n", rec.json).as_bytes()));
            lines.push(Some(rec));
            continue;
        }
        match entry {
            Entry::PreFailed(rec) => {
                journal_append(&writer, &rec);
                write_frame(&chunk(format!("{}\n", rec.json).as_bytes()));
                lines.push(Some(rec));
            }
            Entry::Job(spec) => {
                fresh.push((i, *spec));
                lines.push(None);
            }
        }
    }
    shared
        .stats
        .batch_replayed
        .fetch_add(replayed, Ordering::Relaxed);
    shared
        .stats
        .batch_jobs
        .fetch_add(fresh.len() as u64, Ordering::Relaxed);

    let cfg = BatchConfig {
        jobs: 1,
        supervisor: SupervisorConfig {
            timeout: None,
            grace: shared.cfg.grace,
            budget_ms: 1_000,
            budget_retries: 2,
            fault: shared.cfg.fault,
            cancel: Some(token.clone()),
        },
        fail_fast: false,
    };
    let observer: OutcomeObserver = {
        let writer = writer.clone();
        let write_frame = write_frame.clone();
        Arc::new(move |_i: usize, outcome: &JobOutcome| {
            let rec = JournalRecord::from_outcome(outcome);
            // Durable-then-visible: the line only reaches the wire after
            // the record is fsync'd, so a streamed outcome is always a
            // replayable one.
            journal_append(&writer, &rec);
            write_frame(&chunk(format!("{}\n", rec.json).as_bytes()));
        })
    };
    let specs: Vec<JobSpec> = fresh.iter().map(|(_, s)| s.clone()).collect();
    let report = run_batch_observed(specs, &cfg, Some(observer));
    for ((slot, _), outcome) in fresh.iter().zip(&report.jobs) {
        lines[*slot] = Some(JournalRecord::from_outcome(outcome));
    }

    watcher_stop.store(true, Ordering::Release);
    if let Some(handle) = watcher {
        let _ = handle.join();
    }
    shared.unregister(&token);

    // The summary line and terminator only go out on a live stream; a
    // vanished client gets truncation, which is the honest answer.
    let done: Vec<JournalRecord> = lines.into_iter().flatten().collect();
    stream_summary(&write_frame, &done, replayed);
}

/// Streams the `{"summary":…}` line plus the chunked terminator.
fn stream_summary(write_frame: &impl Fn(&[u8]), done: &[JournalRecord], replayed: u64) {
    let mut exact = 0i128;
    let mut degraded = 0i128;
    let mut failed = 0i128;
    let mut skipped = 0i128;
    for rec in done {
        match rec.status {
            srtw_supervisor::JobStatus::Exact => exact += 1,
            srtw_supervisor::JobStatus::Degraded => degraded += 1,
            srtw_supervisor::JobStatus::Failed => failed += 1,
            srtw_supervisor::JobStatus::Skipped => skipped += 1,
        }
    }
    let summary = Json::object(vec![(
        "summary",
        Json::object(vec![
            ("total", Json::Int(done.len() as i128)),
            ("exact", Json::Int(exact)),
            ("degraded", Json::Int(degraded)),
            ("failed", Json::Int(failed)),
            ("skipped", Json::Int(skipped)),
            ("replayed", Json::Int(replayed as i128)),
        ]),
    )]);
    write_frame(&chunk(format!("{summary}\n").as_bytes()));
    write_frame(CHUNK_TERMINATOR);
}

/// Appends one record to the batch journal, treating failure as fatal:
/// the journal exists to survive crashes, so an append that cannot be
/// made durable *is* a crash — under `--replicas` the supervision tree
/// restarts the replica and the re-POSTed batch resumes from the
/// records that did land.
fn journal_append(writer: &Option<Arc<Mutex<JournalWriter>>>, rec: &JournalRecord) {
    let Some(writer) = writer else { return };
    if let Err(e) = writer.lock().unwrap().append(rec) {
        eprintln!("srtw-serve: journal write failed ({e}); aborting for restart + resume");
        std::process::abort();
    }
}
