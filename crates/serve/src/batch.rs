//! Streaming durable batch: `POST /batch`.
//!
//! The request body is a batch manifest — one `.srtw` path per line,
//! `#` comments — resolved relative to the server's working directory.
//! The response is HTTP/1.1 chunked `application/x-ndjson`: one JSON
//! line per job (the same per-job object as a `srtw batch --json`
//! `jobs[]` entry), in manifest order, each as soon as every earlier
//! line is out; then one `{"summary":…}` line, so a client watches
//! progress live instead of waiting out the batch.
//!
//! Loading, journal resume, supervision and ordering are the batch
//! runner's ([`srtw_supervisor::BatchPlan`]), shared with `srtw batch`:
//! retries, budget degradation, panic containment and per-attempt
//! provenance behave exactly as in CLI batch mode. This module keeps
//! what only the service needs:
//!
//! - **Manifest identity** — with [`crate::ServeConfig::journal`] set,
//!   the batch journals to `<prefix>.<digest>`, keyed by the digest of
//!   the request *body*: the same manifest re-POSTed after a crash lands
//!   on the same file and replays its journaled lines verbatim
//!   (byte-identical, original wall times), recomputing only the rest —
//!   and every entry whose file changed since its record was written,
//!   since the runner replays a record only onto the same input bytes.
//!   Pre-run failures are journaled too, so a complete journal answers
//!   the whole report with no supervised job, cancel token or watcher.
//! - **Disconnect cancellation** — a watcher thread polls the socket
//!   ([`crate::mux::peer_closed`]) every 50 ms; when the client goes
//!   away mid-stream the batch's [`CancelToken`] is raised and the
//!   remaining jobs wind down through the sound degradation path instead
//!   of burning workers for a reader that no longer exists. The watcher
//!   waits parked, and the batch unparks it as soon as its jobs are done,
//!   so the poll interval never adds to a batch's latency. It is the only
//!   thread a batch spawns: the jobs run on the connection's worker, each
//!   attempt under a child of the batch token.
//! - **Failure policy** — a journal append failure aborts the process:
//!   durability was requested, so losing it is a crash, and under
//!   `--replicas` the supervision tree turns that crash into exactly the
//!   restart + resume path it exists for. A journal *open* failure, by
//!   contrast, degrades: nothing durable has been promised yet, so the
//!   batch runs unjournaled with a typed `srtw-persist:` warning —
//!   persistence failure never changes an HTTP status or a result byte.

use crate::http::{chunk, chunked_head, Request, Response, CHUNK_TERMINATOR};
use crate::mux;
use crate::server::{error_body, Shared};
use srtw_core::Json;
use srtw_minplus::CancelToken;
use srtw_persist::PersistError;
use srtw_supervisor::journal::digest64;
use srtw_supervisor::{
    manifest_lines, BatchConfig, BatchEntry, BatchJournal, BatchPlan, JournalPolicy,
    SupervisorConfig,
};
use std::io::{self, Write as _};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

/// How often the watcher probes the client socket for a hangup.
const DISCONNECT_POLL: Duration = Duration::from_millis(50);

/// Serves one `POST /batch` exchange, writing the entire (chunked)
/// response itself; the caller only lingers and closes afterwards.
pub(crate) fn stream_batch(shared: &Shared, req: &Request, stream: &mut TcpStream) {
    shared.stats.batches.fetch_add(1, Ordering::Relaxed);
    match prepare(shared, req) {
        Ok((plan, token)) => run_and_stream(shared, plan, token, stream),
        Err(resp) => {
            shared.stats.failed.fetch_add(1, Ordering::Relaxed);
            let _ = resp.write_to(stream);
        }
    }
}

/// Everything decided before the first response byte: the loaded
/// entries, the journal (resumed or created), and the batch-wide cancel
/// token the supervised jobs watch.
fn prepare(shared: &Shared, req: &Request) -> Result<(BatchPlan, CancelToken), Box<Response>> {
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
    let entries: Vec<BatchEntry> = manifest_lines(text)
        .map(|f| BatchEntry::load(Path::new(f)))
        .collect();
    if entries.is_empty() {
        return Err(Box::new(Response::json(
            400,
            error_body(2, "input", "manifest lists no systems", vec![]),
        )));
    }
    let journal = shared
        .cfg
        .journal
        .as_ref()
        .and_then(|prefix| open_journal(shared, prefix, digest64(&req.body)));
    let token = CancelToken::new();
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
    Ok((BatchPlan::new(entries, journal, cfg), token))
}

/// Resumes (or creates) the manifest's journal. An open failure degrades
/// to an unjournaled batch with a typed warning: only *append* failures,
/// after the durability promise, are crashes.
fn open_journal(shared: &Shared, prefix: &str, digest: u64) -> Option<BatchJournal> {
    let path = PathBuf::from(format!("{prefix}.{digest:016x}"));
    let policy = JournalPolicy {
        resume: true,
        pre_failed: true,
        fault: shared.cfg.journal_fault,
        on_failure: abort_for_restart,
    };
    match BatchJournal::open(&path, digest, policy) {
        Ok((journal, warnings)) => {
            for w in warnings {
                eprintln!("{w}");
            }
            Some(journal)
        }
        Err(e) => {
            let typed = PersistError::classify(&path, &e);
            shared.stats.persist_errors.fetch_add(1, Ordering::Relaxed);
            eprintln!("srtw-persist: {typed}; batch continues without a journal");
            None
        }
    }
}

/// A failed journal append is a crash: under `--replicas` the supervision
/// tree restarts the replica and the re-POSTed batch resumes from the
/// records that did land.
fn abort_for_restart(_: &Path, e: &io::Error) -> ! {
    eprintln!("srtw-serve: journal write failed ({e}); aborting for restart + resume");
    std::process::abort();
}

fn run_and_stream(shared: &Shared, plan: BatchPlan, token: CancelToken, stream: &mut TcpStream) {
    // Everything past this point streams: head first, then one line per
    // job. The jobs run on this thread and the watcher never writes, so
    // every frame is written here; the clone sits behind a mutex only
    // because `BatchPlan::run` takes a `Sync` line callback.
    let Ok(out_stream) = stream.try_clone() else {
        let _ = Response::json(
            500,
            error_body(3, "internal", "cannot clone the response stream", vec![]),
        )
        .write_to(stream);
        return;
    };
    let out = Mutex::new(out_stream);
    let alive = Arc::new(AtomicBool::new(true));
    let write_frame = |frame: &[u8]| {
        if !alive.load(Ordering::Acquire) {
            return;
        }
        let mut s = out.lock().unwrap();
        if s.write_all(frame).and_then(|()| s.flush()).is_err() {
            alive.store(false, Ordering::Release);
        }
    };
    write_frame(&chunked_head(200, "application/x-ndjson"));

    let replayed = plan.replayed();
    shared
        .stats
        .batch_replayed
        .fetch_add(replayed as u64, Ordering::Relaxed);
    shared
        .stats
        .batch_jobs
        .fetch_add(plan.fresh() as u64, Ordering::Relaxed);

    // The cancel token is raised by drain (via inflight), by hard-cancel,
    // and by the disconnect watcher. A batch with nothing to run — a
    // journal that covers the manifest — needs none of them.
    let supervised = plan.fresh() > 0;
    if supervised {
        if shared.hard_cancel.load(Ordering::Relaxed) {
            token.cancel();
        }
        shared.register(token.clone());
    }
    let watcher_stop = Arc::new(AtomicBool::new(false));
    let probe = supervised.then(|| stream.try_clone().ok()).flatten();
    let watcher = probe.map(|probe| {
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
                thread::park_timeout(DISCONNECT_POLL);
            }
        })
    });

    let report = plan.run(&|rec| write_frame(&chunk(format!("{}\n", rec.json).as_bytes())));

    // Wake the watcher out of its poll wait so the join costs nothing: a
    // batch ends when its jobs do, not at the next poll tick.
    watcher_stop.store(true, Ordering::Release);
    if let Some(handle) = watcher {
        handle.thread().unpark();
        let _ = handle.join();
    }
    if supervised {
        shared.unregister(&token);
    }

    // The summary line and terminator only go out on a live stream; a
    // vanished client gets truncation, which is the honest answer.
    let c = report.counts();
    let summary = Json::object(vec![(
        "summary",
        Json::object(vec![
            ("total", Json::Int(report.jobs.len() as i128)),
            ("exact", Json::Int(c.exact as i128)),
            ("degraded", Json::Int(c.degraded as i128)),
            ("failed", Json::Int(c.failed as i128)),
            ("skipped", Json::Int(c.skipped as i128)),
            ("replayed", Json::Int(replayed as i128)),
        ]),
    )]);
    write_frame(&chunk(format!("{summary}\n").as_bytes()));
    write_frame(CHUNK_TERMINATOR);
}
