//! The service itself: multiplexed admission, per-request supervision,
//! and graceful drain.
//!
//! Request lifecycle: the multiplexed acceptor ([`crate::mux`]) owns
//! every connection until a *complete* request is buffered — slow or
//! hostile clients are bounded by per-connection deadlines (`408`), head
//! caps (`431`), the connection cap and the bounded [`Gate`] (`503` with
//! an adaptive `Retry-After`), never by worker starvation. A pool worker
//! then routes the request; `/analyze` runs inline on that worker behind
//! [`srtw_supervisor::contain`] with a per-request [`CancelToken`] and an
//! optional `X-Deadline-Ms` wall budget, so an adversarial system
//! degrades soundly to the RTC bound instead of stalling the worker, and
//! a panicking analysis becomes a typed 500 while the server keeps
//! serving. Keep-alive connections cycle back to the acceptor after each
//! response instead of occupying a worker between requests.

use crate::cache::ResultCache;
use crate::fault::{ProcessFault, ProcessFaultArm, ProcessFaultKind};
use crate::gate::Gate;
use crate::http::{Request, RequestError, Response, MAX_HEAD_BYTES};
use crate::mux::{self, ConnJob, MuxConfig, MuxHandle, ReturnedConn, Returner};
use crate::pool::Pool;
use crate::report::fifo_report;
use crate::stats::{Gauges, Stats};
use crate::sys;
use srtw_core::textfmt::{
    parse_system, ParseError, ParseErrorKind, PresentationCode, SystemSpec, MAX_INPUT_BYTES,
};
use srtw_core::{AnalysisConfig, Json};
use srtw_minplus::{Budget, CancelToken, FaultPlan};
use srtw_persist::{load_dir, Store};
use srtw_supervisor::{contain, Contained, WriteFault};
use std::io::{self, Read as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Global budget of declared-but-unread body bytes buffered by the
/// acceptor (beyond it, new bodied requests shed with 503).
const MAX_BUFFERED_BODIES: usize = 16 * 1024 * 1024;
/// Requests served on one connection before it is closed anyway (bounds
/// per-connection state against an immortal client).
const MAX_REQUESTS_PER_CONN: u32 = 1024;

/// Service configuration; [`ServeConfig::default`] matches the CLI
/// defaults.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port `0` picks an ephemeral port).
    pub addr: String,
    /// Fixed worker-pool size (clamped to at least 1).
    pub workers: usize,
    /// Admission-queue bound: pending requests beyond this are shed.
    pub queue: usize,
    /// Most connections the acceptor tracks at once; beyond it new
    /// connections shed with 503 (and, further out, silently).
    pub max_conns: usize,
    /// How long a graceful drain waits for in-flight and queued work
    /// before cancelling stragglers.
    pub drain: Duration,
    /// Wind-down window granted after a cancellation (watchdog or drain)
    /// before a thread is abandoned.
    pub grace: Duration,
    /// Deadline for a fresh connection to complete its request head
    /// (stalling past it is a typed 408).
    pub header_timeout: Duration,
    /// Deadline for the declared body to arrive / for response writes /
    /// for keep-alive idleness.
    pub read_timeout: Duration,
    /// Deadline applied to `/analyze` requests that carry no
    /// `X-Deadline-Ms` header (`None` = unbounded).
    pub default_deadline_ms: Option<u64>,
    /// Deterministic fault injected into every request's meter (testing
    /// the shed/degrade/crash paths without timing races).
    pub fault: Option<FaultPlan>,
    /// Deterministic process-level fault (abort/stall/closefd at the Nth
    /// routed request) for driving the supervision tree.
    pub process_fault: Option<ProcessFault>,
    /// Replica index when running as a supervised replica (surfaces in
    /// `/stats`).
    pub replica: Option<usize>,
    /// Journal path prefix for `POST /batch` durability: each batch
    /// appends per-job outcomes to `<prefix>.<digest>` (keyed by the
    /// manifest digest) as they finish, and a batch re-POSTed after a
    /// crash replays journaled jobs instead of recomputing them.
    /// `None` disables journaling.
    pub journal: Option<String>,
    /// Deterministic journal-write fault (`torn@N` | `jcorrupt@N`)
    /// injected into batch journal appends. A fired fault aborts the
    /// process — durability is load-bearing, so its failure is treated
    /// exactly like a crash, which under `--replicas` drives the
    /// supervision tree's restart + resume path.
    pub journal_fault: Option<WriteFault>,
    /// Byte budget of the content-addressed result cache (`0` disables
    /// caching). Each replica owns an independent cache of this size.
    pub cache_bytes: usize,
    /// Spill directory for the crash-safe persistent result store:
    /// cached `/analyze` results are appended durably to per-shard spill
    /// files and warm-loaded at startup, so a restarted process (or a
    /// respawned replica, which reads every replica's files) answers
    /// repeat requests byte-identically without recomputing. `None`
    /// disables persistence. Any persistence failure degrades to a cold
    /// in-memory cache with a typed `srtw-persist:` warning — it never
    /// changes an HTTP status or a result byte.
    pub persist: Option<String>,
    /// Deterministic spill-write fault (`pers-torn@N` | `pers-corrupt@N`
    /// | `pers-enospc@N`) injected into persist appends. Unlike journal
    /// faults, a fired persist fault does *not* crash anything: the store
    /// disables itself and the service continues cold, which is the
    /// degradation contract under test.
    pub persist_fault: Option<WriteFault>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue: 64,
            max_conns: 1024,
            drain: Duration::from_secs(5),
            grace: Duration::from_secs(2),
            header_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(5),
            default_deadline_ms: None,
            fault: None,
            process_fault: None,
            replica: None,
            journal: None,
            journal_fault: None,
            cache_bytes: 64 * 1024 * 1024,
            persist: None,
            persist_fault: None,
        }
    }
}

/// What the graceful drain accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// `true` when every admitted request finished within the drain
    /// window, with no cancellation needed.
    pub drained: bool,
    /// In-flight requests cancelled via their tokens after the window
    /// (they still answer, with degraded-but-sound bounds).
    pub cancelled: u64,
    /// Workers respawned after handler panics over the server's lifetime.
    pub respawned: u64,
    /// Worker threads still stuck after cancellation + grace; detached.
    pub abandoned: usize,
}

impl DrainReport {
    /// `true` when shutdown left nothing behind: no cancelled stragglers
    /// and no abandoned threads.
    pub fn clean(&self) -> bool {
        self.drained && self.cancelled == 0 && self.abandoned == 0
    }
}

pub(crate) struct Shared {
    pub(crate) cfg: ServeConfig,
    pub(crate) gate: Arc<Gate<ConnJob>>,
    pub(crate) stats: Arc<Stats>,
    pub(crate) returner: Returner,
    pub(crate) fault_arm: ProcessFaultArm,
    pub(crate) draining: AtomicBool,
    pub(crate) shutdown_req: AtomicBool,
    /// Set when the drain window has expired: new analyses start
    /// pre-cancelled so queued stragglers answer immediately with the
    /// RTC-degraded bound.
    pub(crate) hard_cancel: AtomicBool,
    pub(crate) inflight: Mutex<Vec<CancelToken>>,
    /// Content-addressed `/analyze` result cache (per process — replicas
    /// are shared-nothing and each own an independent cache).
    pub(crate) cache: ResultCache,
    /// Crash-safe spill store behind the result cache (`--persist DIR`).
    /// `None` when persistence is off or degraded cold after a failure.
    pub(crate) persist: Option<Store>,
}

impl Shared {
    pub(crate) fn register(&self, token: CancelToken) {
        self.inflight.lock().unwrap().push(token);
    }

    /// Stores a freshly computed exact result in the in-memory cache and,
    /// when the entry was accepted and persistence is on, spills it
    /// durably to this replica's shard file. A spill failure warns once
    /// (typed, `srtw-persist:`-prefixed), bumps `persist_errors`, and the
    /// service continues with the in-memory entry — persistence never
    /// changes a response.
    pub(crate) fn cache_insert(&self, key: u128, form: PresentationCode, body: &str) {
        // The spill needs the code after the cache has taken it: clone it
        // only when there is a store to spill to.
        let spill = self.persist.as_ref().map(|store| (store, form.clone()));
        if !self.cache.insert(key, form, body.to_string()) {
            return;
        }
        if let Some((store, form)) = spill {
            let shard = ResultCache::shard_index(key);
            match store.append(shard, key, form.code(), body) {
                Ok(()) => {
                    if !store.disabled() {
                        self.stats.persist_stored.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e) => {
                    self.stats.persist_errors.fetch_add(1, Ordering::Relaxed);
                    eprintln!("srtw-persist: {e}; continuing with a cold in-memory cache");
                }
            }
        }
    }

    pub(crate) fn unregister(&self, token: &CancelToken) {
        // Tokens compare by identity, so this removes exactly ours.
        self.inflight.lock().unwrap().retain(|t| t != token);
    }

    pub(crate) fn draining_or_requested(&self) -> bool {
        self.draining.load(Ordering::Relaxed) || self.shutdown_req.load(Ordering::Relaxed)
    }
}

/// A running analysis service. Dropping the handle does *not* stop the
/// server; call [`Server::shutdown`] for a graceful drain.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    mux: MuxHandle,
    pool: Pool,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

impl Server {
    /// Binds and starts the service (mux acceptor + worker pool).
    pub fn spawn(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        Server::from_listener(listener, cfg)
    }

    /// Starts the service over an already-bound listener — the shape a
    /// supervised replica uses after inheriting the shared listening
    /// socket from its parent.
    pub fn from_listener(listener: TcpListener, cfg: ServeConfig) -> io::Result<Server> {
        let addr = listener.local_addr()?;
        let gate = Arc::new(Gate::new(cfg.queue));
        let stats = Arc::new(Stats::new());
        let workers = cfg.workers.max(1);
        let mux_cfg = MuxConfig {
            max_conns: cfg.max_conns.max(workers + 1),
            header_timeout: cfg.header_timeout,
            read_timeout: cfg.read_timeout,
            max_buffered: MAX_BUFFERED_BODIES,
            body_cap: MAX_INPUT_BYTES,
            workers,
        };
        let mux = mux::spawn(listener, mux_cfg, Arc::clone(&gate), Arc::clone(&stats))?;
        let cache = ResultCache::new(cfg.cache_bytes);
        let persist = match &cfg.persist {
            None => None,
            Some(dir) => {
                let dir_path = std::path::Path::new(dir);
                let load = load_dir(dir_path);
                for w in &load.warnings {
                    eprintln!("{w}");
                }
                let max_gen = load.records.iter().map(|r| r.generation).max().unwrap_or(0);
                for rec in load.records {
                    // Re-verify the key from the stored lanes: a record
                    // that survived CRC checks but carries the wrong code
                    // can only miss, never lie.
                    let form = PresentationCode::from_code(rec.form);
                    if form.hash() != rec.canon {
                        stats.persist_errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!(
                            "srtw-persist: {}: byte 0: cache-key mismatch on a decoded \
                             record — skipped",
                            dir_path.display()
                        );
                        continue;
                    }
                    // Ascending generation order reconstructs LRU recency
                    // under `cache_bytes`.
                    if cache.insert(rec.canon, form, rec.body) {
                        stats.persist_loaded.fetch_add(1, Ordering::Relaxed);
                    }
                }
                match Store::open(
                    dir_path,
                    cfg.replica.unwrap_or(0),
                    crate::cache::SHARDS,
                    max_gen + 1,
                    cfg.persist_fault,
                ) {
                    Ok(store) => Some(store),
                    Err(e) => {
                        stats.persist_errors.fetch_add(1, Ordering::Relaxed);
                        eprintln!("srtw-persist: {e}; continuing with a cold in-memory cache");
                        None
                    }
                }
            }
        };
        let shared = Arc::new(Shared {
            fault_arm: ProcessFaultArm::new(cfg.process_fault),
            cache,
            persist,
            cfg,
            gate: Arc::clone(&gate),
            stats,
            returner: mux.returner(),
            draining: AtomicBool::new(false),
            shutdown_req: AtomicBool::new(false),
            hard_cancel: AtomicBool::new(false),
            inflight: Mutex::new(Vec::new()),
        });
        let pool = {
            let shared = Arc::clone(&shared);
            Pool::spawn(
                workers,
                gate,
                Arc::new(move |job: ConnJob| handle_conn(&shared, job)),
            )
        };
        Ok(Server {
            addr,
            shared,
            mux,
            pool,
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Binds a second, *trusted* listener serving the same routes
    /// blockingly (no mux, no caps beyond the parser's): the private
    /// admin plane a supervised replica announces to its parent for
    /// health checks, stats scraping, and shutdown, kept off the shared
    /// public socket so the parent always reaches *this* replica rather
    /// than whichever one the kernel picks. Returns the bound address;
    /// the thread exits when the server starts draining.
    pub fn spawn_admin(&self, addr: &str) -> io::Result<SocketAddr> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let bound = listener.local_addr()?;
        let shared = Arc::clone(&self.shared);
        thread::Builder::new()
            .name("srtw-serve-admin".into())
            .spawn(move || {
                while !shared.draining.load(Ordering::Relaxed) {
                    match listener.accept() {
                        Ok((stream, _peer)) => serve_admin_conn(&shared, stream),
                        Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                            thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => thread::sleep(Duration::from_millis(20)),
                    }
                }
            })?;
        Ok(bound)
    }

    /// `true` once `POST /shutdown` was served or a handled process
    /// signal arrived; the owner should then call [`Server::shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_req.load(Ordering::Relaxed) || crate::signal::triggered()
    }

    /// Requests a shutdown programmatically (same effect as
    /// `POST /shutdown`).
    pub fn request_shutdown(&self) {
        self.shared.shutdown_req.store(true, Ordering::Relaxed);
    }

    /// Blocks until a shutdown is requested (polling; the signal handler
    /// can only raise a flag).
    pub fn wait_shutdown(&self) {
        while !self.shutdown_requested() {
            thread::sleep(Duration::from_millis(50));
        }
    }

    /// Gracefully drains and stops: stop accepting, let admitted work
    /// finish for up to `cfg.drain`, then cancel stragglers via their
    /// tokens and give them `cfg.grace` to wind down before abandoning.
    pub fn shutdown(self) -> DrainReport {
        self.shared.draining.store(true, Ordering::Relaxed);
        // Stop the acceptor: the listener closes and connections without a
        // complete request drop (there is nothing admitted to answer on
        // them); admitted work continues below.
        self.mux.stop();
        self.shared.gate.close();
        let drained = self.pool.wait_idle(self.shared.cfg.drain);
        let mut cancelled = 0u64;
        if !drained {
            self.shared.hard_cancel.store(true, Ordering::Relaxed);
            for token in self.shared.inflight.lock().unwrap().iter() {
                token.cancel();
                cancelled += 1;
            }
        }
        let patience = if drained {
            Duration::ZERO
        } else {
            // Cancelled analyses trip at their next metered op and still
            // write their (degraded) responses within the grace window.
            self.shared.cfg.grace + Duration::from_millis(200)
        };
        let report = self.pool.stop(patience);
        DrainReport {
            drained,
            cancelled,
            respawned: report.respawned,
            abandoned: report.abandoned,
        }
    }
}

/// The typed error body: the CLI's `{"error":{code,kind,message}}` object
/// (`srtw --json` exit paths emit the same shape), with optional extra
/// members such as the parse-error kind and span.
pub(crate) fn error_body(code: i128, kind: &str, message: &str, extra: Vec<(&str, Json)>) -> String {
    let mut members = vec![
        ("code", Json::Int(code)),
        ("kind", Json::str(kind)),
        ("message", Json::str(message)),
    ];
    members.extend(extra);
    let mut body = Json::object(vec![("error", Json::object(members))]).render();
    body.push('\n');
    body
}

/// One blocking request/response exchange on the trusted admin plane.
fn serve_admin_conn(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = io::BufReader::new(read_half);
    match crate::http::read_request(&mut reader, MAX_INPUT_BYTES) {
        Ok(req) => {
            let _ = route(shared, &req).write_to(&mut stream);
        }
        Err(RequestError::Io(_)) => {}
        Err(e) => {
            let _ = request_error_response(&e).write_to(&mut stream);
        }
    }
}

fn handle_conn(shared: &Shared, job: ConnJob) {
    let ConnJob {
        mut stream,
        request,
        served,
        leftover,
    } = job;
    let _ = stream.set_read_timeout(Some(shared.cfg.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.cfg.read_timeout));
    shared.stats.requests.fetch_add(1, Ordering::Relaxed);
    if let Some(kind) = shared.fault_arm.fire() {
        match kind {
            // Abort never returns from fire(); these two are ours to act
            // on in context.
            ProcessFaultKind::Abort => unreachable!("abort executes inside fire()"),
            ProcessFaultKind::Stall(ms) => thread::sleep(Duration::from_millis(ms)),
            ProcessFaultKind::CloseFd => {
                // Vanish mid-request: the client sees a reset, the
                // supervisor sees a still-healthy replica.
                return;
            }
        }
    }
    if request.method == "POST" && request.target == "/batch" {
        // The batch endpoint streams its own (chunked) response and
        // always closes: a long-lived stream must not pin a keep-alive
        // slot, and `Connection: close` is what lets the client detect a
        // mid-stream crash as truncation.
        let started = Instant::now();
        crate::batch::stream_batch(shared, &request, &mut stream);
        shared
            .stats
            .note_latency_us(started.elapsed().as_micros() as u64);
        linger_close(&mut stream);
        return;
    }
    let mut response = route(shared, &request);
    let reuse = request.wants_keep_alive()
        && !shared.draining_or_requested()
        && served + 1 < MAX_REQUESTS_PER_CONN;
    if reuse {
        response = response.keep_alive();
    }
    if response.write_to(&mut stream).is_err() {
        return;
    }
    if reuse {
        shared.returner.return_conn(ReturnedConn {
            stream,
            served: served + 1,
            leftover,
        });
    } else {
        linger_close(&mut stream);
    }
}

/// Lingering close: give the client a beat to read the response before
/// the socket drops (closing with unread pipelined bytes in the receive
/// buffer would RST the response away).
fn linger_close(stream: &mut TcpStream) {
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut scratch = [0u8; 8 * 1024];
    for _ in 0..4 {
        match stream.read(&mut scratch) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
    }
}

pub(crate) fn request_error_response(e: &RequestError) -> Response {
    let (kind, message, extra) = match e {
        RequestError::BadRequest(m) => ("input", m.clone(), vec![]),
        RequestError::HeadTooLarge => (
            "input",
            format!("request head exceeds {MAX_HEAD_BYTES} bytes"),
            vec![],
        ),
        RequestError::TooLarge { declared, cap } => (
            "input",
            format!("request body is {declared} bytes, the cap is {cap}"),
            vec![(
                "parse_kind",
                Json::str(ParseErrorKind::InputTooLarge.as_str()),
            )],
        ),
        RequestError::LengthRequired => ("input", "Content-Length is required".to_string(), vec![]),
        RequestError::Timeout | RequestError::Io(_) => {
            ("input", "request timed out".to_string(), vec![])
        }
    };
    Response::json(e.status(), error_body(2, kind, &message, extra))
}

fn route(shared: &Shared, req: &Request) -> Response {
    match (req.method.as_str(), req.target.as_str()) {
        ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}\n".into()),
        ("GET", "/readyz") => {
            if shared.draining_or_requested() {
                Response::json(503, "{\"status\":\"draining\"}\n".into())
            } else {
                Response::json(200, "{\"status\":\"ready\"}\n".into())
            }
        }
        ("GET", "/stats") => {
            let gauges = Gauges {
                queue_depth: shared.gate.depth(),
                inflight: shared.inflight.lock().unwrap().len(),
                workers: shared.cfg.workers.max(1),
                open_conns: shared.returner.open_conns(),
                fds: sys::open_fd_count(),
                draining: shared.draining_or_requested(),
                replica: shared.cfg.replica,
                cache_bytes: shared.cache.bytes(),
                cache_evictions: shared.cache.evictions(),
            };
            let doc = shared.stats.to_json(&gauges);
            Response::json(200, format!("{doc}\n"))
        }
        ("POST", "/shutdown") => {
            shared.shutdown_req.store(true, Ordering::Relaxed);
            Response::json(200, "{\"status\":\"draining\"}\n".into())
        }
        ("POST", "/analyze") => {
            let started = Instant::now();
            let response = analyze(shared, req);
            shared
                .stats
                .note_latency_us(started.elapsed().as_micros() as u64);
            response
        }
        ("POST", "/analyze/delta") => {
            let started = Instant::now();
            let response = crate::delta::analyze_delta(shared, req);
            shared
                .stats
                .note_latency_us(started.elapsed().as_micros() as u64);
            response
        }
        (
            _,
            "/healthz" | "/readyz" | "/stats" | "/shutdown" | "/analyze" | "/analyze/delta"
            | "/batch",
        ) => {
            Response::json(
                405,
                error_body(
                    2,
                    "input",
                    &format!("method {} not allowed here", req.method),
                    vec![],
                ),
            )
        }
        (_, target) => Response::json(
            404,
            error_body(2, "input", &format!("unknown endpoint '{target}'"), vec![]),
        ),
    }
}

pub(crate) fn parse_error_response(e: &ParseError) -> Response {
    let status = if e.kind == ParseErrorKind::InputTooLarge {
        413
    } else {
        400
    };
    Response::json(
        status,
        error_body(
            2,
            "input",
            &e.to_string(),
            vec![
                ("parse_kind", Json::str(e.kind.as_str())),
                ("line", Json::Int(e.line as i128)),
                ("column", Json::Int(e.column as i128)),
            ],
        ),
    )
}

/// Counts a failed request and passes its response on.
pub(crate) fn fail(shared: &Shared, resp: Response) -> Response {
    shared.stats.failed.fetch_add(1, Ordering::Relaxed);
    resp
}

/// A typed `400` input error.
pub(crate) fn bad_input(shared: &Shared, message: &str, extra: Vec<(&str, Json)>) -> Response {
    fail(
        shared,
        Response::json(400, error_body(2, "input", message, extra)),
    )
}

fn analyze(shared: &Shared, req: &Request) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return bad_input(shared, "request body is not UTF-8", vec![]);
    };
    let deadline_ms = match request_deadline(shared, req) {
        Ok(ms) => ms,
        Err(resp) => return resp,
    };
    // The request index (see `cache.rs`): a byte-identical re-send of a
    // body that already hit is answered before it is parsed. It can only
    // land where the parsed route below would, so it runs under the
    // same condition: no fault plan.
    if shared.cfg.fault.is_none() {
        if let Some(body) = shared.cache.lookup_request(&req.body) {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            shared
                .stats
                .cache_request_hits
                .fetch_add(1, Ordering::Relaxed);
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            return Response::json(200, body);
        }
    }
    match parse_system(text) {
        Ok(sys) => analyze_system(shared, sys, deadline_ms, Some(&req.body)).0,
        Err(e) => fail(shared, parse_error_response(&e)),
    }
}

/// The request's `X-Deadline-Ms` in milliseconds (the server default when
/// absent), or the `400` a malformed value gets.
pub(crate) fn request_deadline(shared: &Shared, req: &Request) -> Result<Option<u64>, Response> {
    match req.header("x-deadline-ms") {
        None => Ok(shared.cfg.default_deadline_ms),
        Some(v) => v.parse::<u64>().map(Some).map_err(|_| {
            let message = format!("bad X-Deadline-Ms '{v}': expected milliseconds");
            bad_input(shared, &message, vec![])
        }),
    }
}

/// The `/analyze` route from a parsed system on, shared with
/// `POST /analyze/delta` (which hands it the edited system): the cache
/// lookup, the supervised analysis under `deadline_ms` and the cache
/// insert. `request` is the raw `/analyze` body, attached to the entry
/// on its first verified hit; a delta passes `None`, as its body is an
/// edit script. Returns the response and `true` when its body was
/// replayed from the cache.
pub(crate) fn analyze_system(
    shared: &Shared,
    sys: SystemSpec,
    deadline_ms: Option<u64>,
    request: Option<&[u8]>,
) -> (Response, bool) {
    let beta = match &sys.server {
        None => {
            let message = "the system declares no server (add a 'server …' line)";
            return (bad_input(shared, message, vec![]), false);
        }
        Some(s) => match s.beta_lower() {
            Ok(beta) => beta,
            Err(e) => return (fail(shared, parse_error_response(&e)), false),
        },
    };

    // Content-addressed cache: a fault-free request whose presentation
    // code matches a stored result's replays its body
    // byte-for-byte (modulo `runtime_secs`, which the stored body simply
    // carries from the original run). Only exact results are stored, and
    // an exact result does not depend on the deadline, so a deadlined
    // request may hit too. With a configured fault plan every request
    // must execute the metered path, so the cache is bypassed entirely.
    let cacheable = shared.cfg.fault.is_none();
    let hard_cancel = shared.hard_cancel.load(Ordering::Relaxed);
    let form = sys.canonical_form();
    let key = form.hash();
    if cacheable {
        if let Some(body) = shared.cache.lookup(key, &form, request) {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            return (Response::json(200, body), true);
        }
        shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    let token = CancelToken::new();
    if hard_cancel {
        // The drain window is over: run straight to the degraded (RTC)
        // answer instead of starting fresh work.
        token.cancel();
    }
    shared.register(token.clone());
    let mut budget = Budget::default().with_cancel(token.clone());
    if let Some(ms) = deadline_ms {
        budget = budget.with_wall_ms(ms);
    }
    if let Some(f) = shared.cfg.fault {
        budget = budget.with_fault(f);
    }
    let cfg = AnalysisConfig {
        budget,
        ..Default::default()
    };
    // The deadline is purely cooperative: the wall budget trips inside
    // the meter and the analysis winds down through the sound degradation
    // path, which does bounded (but nonzero) post-trip work to produce
    // the RTC fallback. A hard watchdog here would race that wind-down
    // and turn sound degradation into failure — so none is armed, and
    // `contain` runs the analysis inline on this pool worker behind
    // `catch_unwind`; truly stuck workers are bounded by the socket
    // timeouts and the pool's drain-time cancel/abandon path instead.
    let tasks = sys.tasks;
    let contained = contain(
        "srtw-serve-analyze",
        None,
        shared.cfg.grace,
        &token,
        move || fifo_report(&tasks, &beta, &cfg),
    );
    shared.unregister(&token);

    let internal = |kind: &str, message: &str| {
        fail(shared, Response::json(500, error_body(3, kind, message, vec![])))
    };
    let response = match contained {
        Contained::Completed(Ok(report)) => {
            if report.degraded() {
                shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            }
            let mut body = String::new();
            report.write_json(&mut body);
            body.push('\n');
            if cacheable && !report.degraded() {
                shared.cache_insert(key, form, &body);
            }
            Response::json(200, body)
        }
        Contained::Completed(Err(e)) => internal("internal", &e.to_string()),
        Contained::Panicked { message } => {
            internal("panic", &format!("analysis panicked: {message}"))
        }
        // Only a deadline arms the watchdog or spawns a thread.
        Contained::HardTimeout | Contained::SpawnFailed => {
            unreachable!("contain without a deadline runs inline")
        }
    };
    (response, false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::client_roundtrip;

    const SMALL: &str = "task t\nvertex a wcet=2 deadline=9\nedge a a sep=8\nserver fluid rate=1\n";

    fn spawn_small(cfg: ServeConfig) -> Server {
        Server::spawn(cfg).expect("bind ephemeral port")
    }

    #[test]
    fn health_analyze_stats_and_clean_drain() {
        let server = spawn_small(ServeConfig::default());
        let addr = server.addr();
        let (status, _, body) = client_roundtrip(&addr, "GET", "/healthz", &[], b"").unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"status\":\"ok\"}\n"));

        let (status, _, body) =
            client_roundtrip(&addr, "POST", "/analyze", &[], SMALL.as_bytes()).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.starts_with("{\"scheduler\":\"fifo\",\"degraded\":false,"));

        let (status, _, body) = client_roundtrip(&addr, "GET", "/stats", &[], b"").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"accepted\":"), "{body}");
        assert!(body.contains("\"open_conns\":"), "{body}");
        assert!(body.contains("\"p50_ms\":"), "{body}");

        let report = server.shutdown();
        assert!(report.clean(), "{report:?}");
    }

    #[test]
    fn unknown_endpoint_and_bad_method() {
        let server = spawn_small(ServeConfig::default());
        let addr = server.addr();
        let (status, _, body) = client_roundtrip(&addr, "GET", "/nope", &[], b"").unwrap();
        assert_eq!(status, 404);
        assert!(body.contains("\"kind\":\"input\""));
        let (status, _, _) = client_roundtrip(&addr, "GET", "/shutdown", &[], b"").unwrap();
        assert_eq!(status, 405);
        assert!(server.shutdown().clean());
    }

    #[test]
    fn shutdown_endpoint_flips_readyz_and_requests_drain() {
        let server = spawn_small(ServeConfig::default());
        let addr = server.addr();
        assert!(!server.shutdown_requested());
        let (status, _, _) = client_roundtrip(&addr, "GET", "/readyz", &[], b"").unwrap();
        assert_eq!(status, 200);
        let (status, _, body) = client_roundtrip(&addr, "POST", "/shutdown", &[], b"").unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"status\":\"draining\"}\n"));
        assert!(server.shutdown_requested());
        let (status, _, _) = client_roundtrip(&addr, "GET", "/readyz", &[], b"").unwrap();
        assert_eq!(status, 503);
        assert!(server.shutdown().clean());
    }

    #[test]
    fn keep_alive_connection_serves_sequential_requests() {
        use std::io::{BufRead as _, BufReader, Write as _};
        let server = spawn_small(ServeConfig::default());
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for round in 0..3 {
            stream
                .write_all(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                .unwrap();
            // Read one framed response off the shared connection.
            let mut status = String::new();
            reader.read_line(&mut status).unwrap();
            assert!(status.starts_with("HTTP/1.1 200 "), "round {round}: {status}");
            let mut content_length = 0usize;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                let line = line.trim_end();
                if line.is_empty() {
                    break;
                }
                if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
                    content_length = v.trim().parse().unwrap();
                }
            }
            let mut body = vec![0u8; content_length];
            reader.read_exact(&mut body).unwrap();
            assert_eq!(body, b"{\"status\":\"ok\"}\n");
        }
        drop(reader);
        drop(stream);
        let (status, _, body) =
            client_roundtrip(&server.addr(), "GET", "/stats", &[], b"").unwrap();
        assert_eq!(status, 200);
        assert!(body.contains("\"reused\":2"), "{body}");
        assert!(server.shutdown().clean());
    }

    /// A temp dir holding `n` copies of the small system plus a manifest
    /// of absolute paths; returns `(dir, manifest_body)`.
    fn batch_fixture(tag: &str, n: usize) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join(format!(
            "srtw-serve-batch-{tag}-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let mut manifest = String::from("# served batch\n");
        for i in 0..n {
            let path = dir.join(format!("sys-{i}.srtw"));
            std::fs::write(&path, SMALL).unwrap();
            manifest.push_str(&format!("{}\n", path.display()));
        }
        (dir, manifest)
    }

    #[test]
    fn batch_streams_one_line_per_job_plus_summary() {
        let (dir, manifest) = batch_fixture("stream", 3);
        let server = spawn_small(ServeConfig::default());
        let addr = server.addr();
        let (status, headers, body) =
            client_roundtrip(&addr, "POST", "/batch", &[], manifest.as_bytes()).unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(
            headers.iter().any(|(k, v)| k == "transfer-encoding" && v == "chunked"),
            "{headers:?}"
        );
        let lines: Vec<&str> = body.lines().collect();
        assert_eq!(lines.len(), 4, "3 job lines + summary: {body}");
        for (i, line) in lines[..3].iter().enumerate() {
            assert!(line.contains(&format!("\"name\":\"sys-{i}\"")), "{line}");
            assert!(line.contains("\"status\":\"exact\""), "{line}");
        }
        assert!(
            lines[3].starts_with("{\"summary\":{\"total\":3,\"exact\":3,"),
            "{}",
            lines[3]
        );
        let (_, _, stats) = client_roundtrip(&addr, "GET", "/stats", &[], b"").unwrap();
        assert!(stats.contains("\"batches\":1"), "{stats}");
        assert!(stats.contains("\"batch_jobs\":3"), "{stats}");
        assert!(stats.contains("\"batch_replayed\":0"), "{stats}");
        assert!(server.shutdown().clean());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn batch_journal_replays_completed_jobs_byte_identically() {
        let (dir, manifest) = batch_fixture("journal", 2);
        let prefix = dir.join("batch.journal");
        let server = spawn_small(ServeConfig {
            journal: Some(prefix.display().to_string()),
            ..ServeConfig::default()
        });
        let addr = server.addr();
        let (status, _, first) =
            client_roundtrip(&addr, "POST", "/batch", &[], manifest.as_bytes()).unwrap();
        assert_eq!(status, 200, "{first}");
        // The same manifest again: every job replays from the journal —
        // the job lines (wall times included) come back byte-identical,
        // which is the provenance a client uses to tell a replay from a
        // recompute.
        let (status, _, second) =
            client_roundtrip(&addr, "POST", "/batch", &[], manifest.as_bytes()).unwrap();
        assert_eq!(status, 200, "{second}");
        let job_lines = |body: &str| -> Vec<String> {
            body.lines()
                .filter(|l| !l.starts_with("{\"summary\""))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(job_lines(&first), job_lines(&second));
        assert!(
            second.lines().last().unwrap().contains("\"replayed\":2"),
            "{second}"
        );
        let (_, _, stats) = client_roundtrip(&addr, "GET", "/stats", &[], b"").unwrap();
        assert!(stats.contains("\"batch_jobs\":2"), "{stats}");
        assert!(stats.contains("\"batch_replayed\":2"), "{stats}");
        assert!(server.shutdown().clean());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn batch_lines_stream_in_manifest_order() {
        // A pre-failed entry between two fresh jobs must wait for the
        // first of them: lines come out in manifest order, not in the
        // order their outcomes are known.
        let (dir, _) = batch_fixture("order", 2);
        let manifest = format!(
            "{}\n/nonexistent/missing.srtw\n{}\n",
            dir.join("sys-0.srtw").display(),
            dir.join("sys-1.srtw").display()
        );
        let server = spawn_small(ServeConfig::default());
        let (status, _, body) =
            client_roundtrip(&server.addr(), "POST", "/batch", &[], manifest.as_bytes()).unwrap();
        assert_eq!(status, 200, "{body}");
        let names: Vec<&str> = body
            .lines()
            .filter_map(|l| l.strip_prefix("{\"name\":\""))
            .map(|l| &l[..l.find('"').unwrap()])
            .collect();
        assert_eq!(names, ["sys-0", "missing", "sys-1"], "{body}");
        assert!(server.shutdown().clean());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn batch_rejects_bad_manifests_and_bad_methods() {
        let server = spawn_small(ServeConfig::default());
        let addr = server.addr();
        let (status, _, body) = client_roundtrip(&addr, "POST", "/batch", &[], b"# only\n").unwrap();
        assert_eq!(status, 400, "{body}");
        assert!(body.contains("manifest lists no systems"), "{body}");
        let (status, _, _) = client_roundtrip(&addr, "GET", "/batch", &[], b"").unwrap();
        assert_eq!(status, 405);
        // An unreadable path degrades that one job, not the exchange.
        let (status, _, body) =
            client_roundtrip(&addr, "POST", "/batch", &[], b"/nonexistent/x.srtw\n").unwrap();
        assert_eq!(status, 200, "{body}");
        assert!(body.contains("\"status\":\"failed\""), "{body}");
        assert!(body.contains("\"failed\":1"), "{body}");
        assert!(server.shutdown().clean());
    }

    #[test]
    fn process_fault_closefd_drops_exactly_the_nth_request() {
        let server = spawn_small(ServeConfig {
            process_fault: Some(ProcessFault::new(2, ProcessFaultKind::CloseFd)),
            ..ServeConfig::default()
        });
        let addr = server.addr();
        let (status, _, _) = client_roundtrip(&addr, "GET", "/healthz", &[], b"").unwrap();
        assert_eq!(status, 200);
        // Request 2: connection dies with no response bytes at all.
        let err = client_roundtrip(&addr, "GET", "/healthz", &[], b"");
        assert!(err.is_err(), "closefd must yield an unreadable response");
        // Request 3: service is healthy again.
        let (status, _, _) = client_roundtrip(&addr, "GET", "/healthz", &[], b"").unwrap();
        assert_eq!(status, 200);
        assert!(server.shutdown().clean());
    }
}
