//! The supervision tree: shared-nothing replication of `srtw serve`.
//!
//! `srtw serve --replicas N` runs this module as the *parent*: it binds
//! the public listener once, duplicates the descriptor with
//! close-on-exec clear ([`crate::sys::dup_inheritable`]), and spawns `N`
//! replica processes of its own executable, each inheriting the shared
//! socket — the kernel then load-balances `accept(2)` across replicas,
//! with no connection routing in userspace and *nothing shared above the
//! socket*: a replica that aborts mid-request takes only its own queue
//! and in-flight work with it.
//!
//! Each replica announces a private admin address on stdout; the parent
//! health-checks it, scrapes `/stats` from it, and signals it
//! (`SIGTERM`) at drain time. Dead replicas are restarted under the
//! [`RestartTracker`] policy — exponential backoff, restart-intensity
//! cap — and the parent's own `/readyz` answers by *quorum*: a majority
//! of replicas must be healthy, so one crash-looping replica degrades
//! capacity without flapping the whole service out of rotation.

use crate::http::{client_roundtrip_on, read_request, Response};
use crate::server::error_body;
use crate::signal;
use crate::sys;
use srtw_core::Json;
use srtw_core::textfmt::MAX_INPUT_BYTES;
use srtw_supervisor::{RestartDecision, RestartPolicy, RestartTracker};
use std::io::{self, BufRead, BufReader};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// How often the parent health-checks its replicas.
const HEALTH_EVERY: Duration = Duration::from_millis(500);
/// Connect/read budget for one health check or stats scrape.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);
/// How long a freshly spawned replica may take to announce its admin
/// address before the parent declares the spawn failed.
const ANNOUNCE_TIMEOUT: Duration = Duration::from_secs(10);

/// Configuration of the supervision tree.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Public bind address (`host:port`).
    pub addr: String,
    /// Bind address of the parent's admin plane
    /// (`/healthz` `/readyz` `/stats` `POST /shutdown`).
    pub admin_addr: String,
    /// Number of replica processes (clamped to at least 1).
    pub replicas: usize,
    /// Restart policy for dead replicas.
    pub restart: RestartPolicy,
    /// Drain window granted to replicas at shutdown before `SIGKILL`.
    pub drain: Duration,
    /// Pass-through `serve` flags for the replica processes (workers,
    /// queue, timeouts, …) — everything except the replication and fault
    /// flags the supervisor owns.
    pub child_args: Vec<String>,
    /// Raw targeted-fault spec (`abort@N` | `stall@N:MS` | `closefd@N`,
    /// or a journal fault `torn@N` | `jcorrupt@N`) forwarded to the
    /// *first spawn of replica 0 only*: a fault handed to every replica
    /// (or to every respawn) would kill the fleet faster than the tree
    /// can repair it, which is the opposite of what an injected fault is
    /// for — and a restarted replica must come back clean so it can
    /// *resume* the journaled batch the fault interrupted.
    pub process_fault: Option<String>,
}

impl Default for ReplicaConfig {
    fn default() -> ReplicaConfig {
        ReplicaConfig {
            addr: "127.0.0.1:0".into(),
            admin_addr: "127.0.0.1:0".into(),
            replicas: 2,
            restart: RestartPolicy::default(),
            drain: Duration::from_secs(5),
            child_args: Vec::new(),
            process_fault: None,
        }
    }
}

/// One supervised replica process.
struct Slot {
    index: usize,
    child: Option<Child>,
    pid: u32,
    admin: Option<SocketAddr>,
    healthy: bool,
    tracker: RestartTracker,
    /// When a scheduled respawn becomes due.
    respawn_at: Option<Instant>,
    given_up: bool,
    restarts: u64,
}

/// Counters scraped from one replica's `/stats` document.
#[derive(Debug, Default, Clone, Copy)]
struct Scraped {
    accepted: u64,
    shed: u64,
    requests: u64,
    open_conns: u64,
    fds: u64,
    cache_hits: u64,
    cache_request_hits: u64,
    cache_misses: u64,
    cache_evictions: u64,
    cache_bytes: u64,
    persist_loaded: u64,
    persist_stored: u64,
    persist_syncs: u64,
    persist_errors: u64,
}

/// The running supervision tree. Construct with [`Supervisor::bind`],
/// then [`Supervisor::run`] until drain.
pub struct Supervisor {
    cfg: ReplicaConfig,
    listener: TcpListener,
    shared_fd: i32,
    admin: TcpListener,
    admin_addr: SocketAddr,
    slots: Vec<Slot>,
    shutdown_req: bool,
}

impl std::fmt::Debug for Supervisor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Supervisor")
            .field("replicas", &self.slots.len())
            .field("admin", &self.admin_addr)
            .finish()
    }
}

impl Supervisor {
    /// Binds the shared public listener and the parent admin plane, and
    /// spawns the initial replica set. Prints the same
    /// `srtw-serve listening on ADDR` line as single-process mode, plus
    /// one announce line per replica and one for the supervisor admin
    /// address, so harnesses can discover every port from stdout.
    pub fn bind(cfg: ReplicaConfig) -> io::Result<Supervisor> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let public = listener.local_addr()?;
        let shared_fd = sys::dup_inheritable(raw_fd(&listener)).ok_or_else(|| {
            io::Error::other("cannot duplicate the listener for replica inheritance")
        })?;
        let admin = TcpListener::bind(&cfg.admin_addr)?;
        admin.set_nonblocking(true)?;
        let admin_addr = admin.local_addr()?;
        println!("srtw-serve listening on {public}");
        println!("srtw-serve supervisor admin on {admin_addr}");
        flush_stdout();
        let mut sup = Supervisor {
            slots: Vec::new(),
            cfg,
            listener,
            shared_fd,
            admin,
            admin_addr,
            shutdown_req: false,
        };
        for index in 0..sup.cfg.replicas.max(1) {
            let mut slot = Slot {
                index,
                child: None,
                pid: 0,
                admin: None,
                healthy: false,
                tracker: RestartTracker::new(sup.cfg.restart),
                respawn_at: None,
                given_up: false,
                restarts: 0,
            };
            // The injected process fault goes to replica 0's first spawn
            // only.
            let fault = (index == 0).then(|| sup.cfg.process_fault.clone()).flatten();
            sup.spawn_into(&mut slot, fault)?;
            sup.slots.push(slot);
        }
        Ok(sup)
    }

    /// The parent admin address (resolves ephemeral ports).
    pub fn admin_addr(&self) -> SocketAddr {
        self.admin_addr
    }

    /// The shared public address.
    pub fn public_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// Supervises until a shutdown is requested (parent `POST /shutdown`
    /// or a handled signal), then drains the replicas. Returns the
    /// process exit code: 0 when every replica drained cleanly, 1 when
    /// any had to be killed or every replica was given up on.
    pub fn run(mut self) -> i32 {
        let mut last_health = Instant::now() - HEALTH_EVERY;
        loop {
            if self.shutdown_req || signal::triggered() {
                return self.drain();
            }
            self.reap_and_schedule();
            self.respawn_due();
            if self.slots.iter().all(|s| s.given_up) {
                eprintln!("srtw-serve: every replica exceeded its restart budget; giving up");
                return 1;
            }
            if last_health.elapsed() >= HEALTH_EVERY {
                last_health = Instant::now();
                self.health_checks();
            }
            self.serve_admin();
            thread::sleep(Duration::from_millis(20));
        }
    }

    /// Collects dead children and schedules their restarts.
    fn reap_and_schedule(&mut self) {
        for slot in &mut self.slots {
            let Some(child) = slot.child.as_mut() else {
                continue;
            };
            let status = match child.try_wait() {
                Ok(Some(status)) => status,
                Ok(None) => continue,
                Err(_) => continue,
            };
            slot.child = None;
            slot.healthy = false;
            slot.admin = None;
            match slot.tracker.on_exit(Instant::now()) {
                RestartDecision::After(delay) => {
                    println!(
                        "srtw-serve replica {} pid {} exited ({status}); restart in {} ms",
                        slot.index,
                        slot.pid,
                        delay.as_millis()
                    );
                    slot.respawn_at = Some(Instant::now() + delay);
                }
                RestartDecision::GiveUp => {
                    println!(
                        "srtw-serve replica {} pid {} exited ({status}); restart budget exhausted, giving up",
                        slot.index, slot.pid
                    );
                    slot.given_up = true;
                    slot.respawn_at = None;
                }
            }
            flush_stdout();
        }
    }

    /// Respawns every slot whose backoff has elapsed.
    fn respawn_due(&mut self) {
        let now = Instant::now();
        // Split borrows: spawn_into needs &self.cfg but iterates slots.
        let mut due: Vec<usize> = Vec::new();
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.respawn_at.is_some_and(|t| t <= now) && !slot.given_up {
                due.push(i);
            }
        }
        for i in due {
            let mut slot = std::mem::replace(
                &mut self.slots[i],
                Slot {
                    index: i,
                    child: None,
                    pid: 0,
                    admin: None,
                    healthy: false,
                    tracker: RestartTracker::new(self.cfg.restart),
                    respawn_at: None,
                    given_up: false,
                    restarts: 0,
                },
            );
            slot.respawn_at = None;
            slot.restarts += 1;
            // Respawns never re-arm the injected fault (see
            // `ReplicaConfig::process_fault`).
            if let Err(e) = self.spawn_into(&mut slot, None) {
                eprintln!(
                    "srtw-serve: respawn of replica {} failed: {e}; retrying under backoff",
                    slot.index
                );
                match slot.tracker.on_exit(Instant::now()) {
                    RestartDecision::After(delay) => {
                        slot.respawn_at = Some(Instant::now() + delay)
                    }
                    RestartDecision::GiveUp => slot.given_up = true,
                }
            }
            self.slots[i] = slot;
        }
    }

    /// Spawns a replica process into `slot`: self-exec with the internal
    /// subcommand, the inherited listener fd, and the pass-through flags.
    fn spawn_into(&self, slot: &mut Slot, fault: Option<String>) -> io::Result<()> {
        let exe = std::env::current_exe()?;
        let mut cmd = Command::new(exe);
        cmd.arg("serve")
            .arg("--internal-replica")
            .arg("--listener-fd")
            .arg(self.shared_fd.to_string())
            .arg("--replica-index")
            .arg(slot.index.to_string())
            .args(&self.cfg.child_args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped());
        if let Some(spec) = fault {
            cmd.arg("--fault").arg(spec);
        }
        let mut child = cmd.spawn()?;
        let pid = child.id();
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel::<String>();
        // The reader thread hands the announce line back, then forwards
        // the replica's remaining stdout to ours; it exits with the pipe.
        thread::Builder::new()
            .name(format!("srtw-serve-replica-{}-stdout", slot.index))
            .spawn(move || {
                let mut reader = BufReader::new(stdout);
                let mut line = String::new();
                if matches!(reader.read_line(&mut line), Ok(n) if n > 0) {
                    let _ = tx.send(line.clone());
                }
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => return,
                        Ok(_) => {
                            print!("{line}");
                            flush_stdout();
                        }
                    }
                }
            })?;
        let announce = rx.recv_timeout(ANNOUNCE_TIMEOUT).map_err(|_| {
            let _ = child.kill();
            let _ = child.wait();
            io::Error::other(format!(
                "replica {} (pid {pid}) produced no announce line",
                slot.index
            ))
        })?;
        let admin = parse_announce(&announce).ok_or_else(|| {
            let _ = child.kill();
            let _ = child.wait();
            io::Error::other(format!(
                "replica {} (pid {pid}) announced unparseably: {announce:?}",
                slot.index
            ))
        })?;
        // Re-announce on the parent's stdout so one stream carries every
        // replica's pid and admin address.
        print!("{announce}");
        flush_stdout();
        slot.child = Some(child);
        slot.pid = pid;
        slot.admin = Some(admin);
        slot.healthy = false;
        Ok(())
    }

    /// Probes every live replica's admin `/healthz`.
    fn health_checks(&mut self) {
        for slot in &mut self.slots {
            if slot.child.is_none() {
                slot.healthy = false;
                continue;
            }
            let was = slot.healthy;
            slot.healthy = slot.admin.is_some_and(|addr| probe_healthz(&addr));
            if slot.healthy && !was {
                slot.tracker.on_healthy();
            }
        }
    }

    fn quorum(&self) -> (usize, usize) {
        let healthy = self.slots.iter().filter(|s| s.healthy).count();
        (healthy, self.slots.len() / 2 + 1)
    }

    /// Serves any pending parent-admin connections (non-blocking accept;
    /// each exchange is blocking but budgeted).
    fn serve_admin(&mut self) {
        loop {
            match self.admin.accept() {
                Ok((stream, _peer)) => self.serve_admin_conn(stream),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(_) => return,
            }
        }
    }

    fn serve_admin_conn(&mut self, mut stream: TcpStream) {
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let Ok(req) = read_request(&mut reader, MAX_INPUT_BYTES) else {
            return;
        };
        let response = match (req.method.as_str(), req.target.as_str()) {
            ("GET", "/healthz") => Response::json(200, "{\"status\":\"ok\"}\n".into()),
            ("GET", "/readyz") => {
                let (healthy, need) = self.quorum();
                let body = format!(
                    "{{\"status\":\"{}\",\"healthy\":{healthy},\"quorum\":{need}}}\n",
                    if healthy >= need { "ready" } else { "degraded" }
                );
                Response::json(if healthy >= need { 200 } else { 503 }, body)
            }
            ("GET", "/stats") => {
                let doc = self.aggregate_stats();
                Response::json(200, format!("{doc}\n"))
            }
            ("POST", "/shutdown") => {
                self.shutdown_req = true;
                Response::json(200, "{\"status\":\"draining\"}\n".into())
            }
            (method, target) => Response::json(
                404,
                error_body(
                    2,
                    "input",
                    &format!("no supervisor endpoint {method} {target}"),
                    vec![],
                ),
            ),
        };
        let _ = response.write_to(&mut stream);
    }

    /// The aggregated `/stats` document: per-replica supervision state
    /// plus counters scraped from each healthy replica's own `/stats`.
    fn aggregate_stats(&self) -> Json {
        let mut per = Vec::new();
        let mut total = Scraped::default();
        for slot in &self.slots {
            let scraped = slot
                .admin
                .filter(|_| slot.healthy)
                .and_then(|addr| scrape_stats(&addr));
            if let Some(s) = scraped {
                total.accepted += s.accepted;
                total.shed += s.shed;
                total.requests += s.requests;
                total.open_conns += s.open_conns;
                total.fds += s.fds;
                total.cache_hits += s.cache_hits;
                total.cache_request_hits += s.cache_request_hits;
                total.cache_misses += s.cache_misses;
                total.cache_evictions += s.cache_evictions;
                total.cache_bytes += s.cache_bytes;
                total.persist_loaded += s.persist_loaded;
                total.persist_stored += s.persist_stored;
                total.persist_syncs += s.persist_syncs;
                total.persist_errors += s.persist_errors;
            }
            let s = scraped.unwrap_or_default();
            per.push(Json::object(vec![
                ("replica", Json::Int(slot.index as i128)),
                ("pid", Json::Int(slot.pid as i128)),
                ("healthy", Json::Bool(slot.healthy)),
                ("given_up", Json::Bool(slot.given_up)),
                ("restarts", Json::Int(slot.restarts as i128)),
                ("exits", Json::Int(slot.tracker.total_exits() as i128)),
                ("accepted", Json::Int(s.accepted as i128)),
                ("shed", Json::Int(s.shed as i128)),
                ("requests", Json::Int(s.requests as i128)),
                ("open_conns", Json::Int(s.open_conns as i128)),
                ("fds", Json::Int(s.fds as i128)),
                ("cache_hits", Json::Int(s.cache_hits as i128)),
                (
                    "cache_request_hits",
                    Json::Int(s.cache_request_hits as i128),
                ),
                ("cache_misses", Json::Int(s.cache_misses as i128)),
                ("cache_evictions", Json::Int(s.cache_evictions as i128)),
                ("cache_bytes", Json::Int(s.cache_bytes as i128)),
                ("persist_loaded", Json::Int(s.persist_loaded as i128)),
                ("persist_stored", Json::Int(s.persist_stored as i128)),
                ("persist_syncs", Json::Int(s.persist_syncs as i128)),
                ("persist_errors", Json::Int(s.persist_errors as i128)),
            ]));
        }
        let (healthy, need) = self.quorum();
        Json::object(vec![
            ("role", Json::str("supervisor")),
            ("replicas", Json::Int(self.slots.len() as i128)),
            ("healthy", Json::Int(healthy as i128)),
            ("quorum", Json::Int(need as i128)),
            (
                "restarts",
                Json::Int(self.slots.iter().map(|s| s.restarts as i128).sum()),
            ),
            (
                "supervisor_fds",
                sys::open_fd_count()
                    .map(|n| Json::Int(n as i128))
                    .unwrap_or(Json::Null),
            ),
            (
                "aggregate",
                Json::object(vec![
                    ("accepted", Json::Int(total.accepted as i128)),
                    ("shed", Json::Int(total.shed as i128)),
                    ("requests", Json::Int(total.requests as i128)),
                    ("open_conns", Json::Int(total.open_conns as i128)),
                    ("fds", Json::Int(total.fds as i128)),
                    ("cache_hits", Json::Int(total.cache_hits as i128)),
                    (
                        "cache_request_hits",
                        Json::Int(total.cache_request_hits as i128),
                    ),
                    ("cache_misses", Json::Int(total.cache_misses as i128)),
                    ("cache_evictions", Json::Int(total.cache_evictions as i128)),
                    ("cache_bytes", Json::Int(total.cache_bytes as i128)),
                    ("persist_loaded", Json::Int(total.persist_loaded as i128)),
                    ("persist_stored", Json::Int(total.persist_stored as i128)),
                    ("persist_syncs", Json::Int(total.persist_syncs as i128)),
                    ("persist_errors", Json::Int(total.persist_errors as i128)),
                ]),
            ),
            ("per_replica", Json::Array(per)),
        ])
    }

    /// Drains the tree: `SIGTERM` every replica, wait out the drain
    /// window, `SIGKILL` stragglers, reap everything. Exit code 0 iff
    /// every replica exited cleanly on its own.
    fn drain(mut self) -> i32 {
        eprintln!("srtw-serve: shutdown requested; draining {} replica(s)", self.slots.len());
        for slot in &self.slots {
            if slot.child.is_some() {
                sys::send_signal(slot.pid, sys::SIGTERM);
            }
        }
        let deadline = Instant::now() + self.cfg.drain + Duration::from_secs(2);
        let mut clean = true;
        loop {
            let mut alive = 0usize;
            for slot in &mut self.slots {
                let Some(child) = slot.child.as_mut() else {
                    continue;
                };
                match child.try_wait() {
                    Ok(Some(status)) => {
                        clean &= status.success();
                        slot.child = None;
                    }
                    Ok(None) => alive += 1,
                    Err(_) => {
                        slot.child = None;
                    }
                }
            }
            if alive == 0 {
                break;
            }
            if Instant::now() >= deadline {
                for slot in &mut self.slots {
                    if let Some(child) = slot.child.as_mut() {
                        clean = false;
                        let _ = child.kill();
                        let _ = child.wait();
                        slot.child = None;
                    }
                }
                break;
            }
            thread::sleep(Duration::from_millis(20));
        }
        if clean {
            eprintln!("srtw-serve: all replicas drained cleanly");
            0
        } else {
            eprintln!("srtw-serve: drain incomplete; some replicas were killed or exited dirty");
            1
        }
    }
}

/// The raw fd of the public listener (unix only; replication is refused
/// elsewhere before this is reached).
#[cfg(unix)]
fn raw_fd(l: &TcpListener) -> i32 {
    use std::os::unix::io::AsRawFd;
    l.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd(_l: &TcpListener) -> i32 {
    -1
}

fn flush_stdout() {
    use std::io::Write as _;
    let _ = io::stdout().flush();
}

/// Parses a replica announce line:
/// `srtw-serve replica <i> pid <pid> admin on <addr>`.
fn parse_announce(line: &str) -> Option<SocketAddr> {
    let rest = line.trim().strip_prefix("srtw-serve replica ")?;
    let addr = rest.split(" admin on ").nth(1)?;
    addr.parse().ok()
}

fn probe_healthz(addr: &SocketAddr) -> bool {
    let Ok(stream) = TcpStream::connect_timeout(addr, PROBE_TIMEOUT) else {
        return false;
    };
    matches!(
        client_roundtrip_on(stream, "GET", "/healthz", &[], b""),
        Ok((200, _, _))
    )
}

fn scrape_stats(addr: &SocketAddr) -> Option<Scraped> {
    let stream = TcpStream::connect_timeout(addr, PROBE_TIMEOUT).ok()?;
    let (status, _, body) = client_roundtrip_on(stream, "GET", "/stats", &[], b"").ok()?;
    if status != 200 {
        return None;
    }
    Some(Scraped {
        accepted: scrape_u64(&body, "accepted").unwrap_or(0),
        shed: scrape_u64(&body, "shed").unwrap_or(0),
        requests: scrape_u64(&body, "requests").unwrap_or(0),
        open_conns: scrape_u64(&body, "open_conns").unwrap_or(0),
        fds: scrape_u64(&body, "fds").unwrap_or(0),
        cache_hits: scrape_u64(&body, "cache_hits").unwrap_or(0),
        cache_request_hits: scrape_u64(&body, "cache_request_hits").unwrap_or(0),
        cache_misses: scrape_u64(&body, "cache_misses").unwrap_or(0),
        cache_evictions: scrape_u64(&body, "cache_evictions").unwrap_or(0),
        cache_bytes: scrape_u64(&body, "cache_bytes").unwrap_or(0),
        persist_loaded: scrape_u64(&body, "persist_loaded").unwrap_or(0),
        persist_stored: scrape_u64(&body, "persist_stored").unwrap_or(0),
        persist_syncs: scrape_u64(&body, "persist_syncs").unwrap_or(0),
        persist_errors: scrape_u64(&body, "persist_errors").unwrap_or(0),
    })
}

/// Pulls `"key":<integer>` out of a flat JSON document. The replica's
/// `/stats` shape is ours (srtw_core::Json renders no whitespace), so a
/// textual scrape is exact — and it keeps the parent free of a JSON
/// parser the workspace otherwise does not need.
fn scrape_u64(body: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let digits: String = body[at..].chars().take_while(|c| c.is_ascii_digit()).collect();
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn announce_lines_parse() {
        assert_eq!(
            parse_announce("srtw-serve replica 1 pid 4242 admin on 127.0.0.1:39741\n"),
            Some("127.0.0.1:39741".parse().unwrap())
        );
        assert_eq!(parse_announce("srtw-serve listening on 127.0.0.1:7878"), None);
        assert_eq!(parse_announce("srtw-serve replica x admin on nonsense"), None);
    }

    #[test]
    fn stats_scrape_is_exact_on_rendered_json() {
        let body = r#"{"replica":1,"accepted":31,"shed":4,"requests":35,"open_conns":2,"fds":19,"latency":{"count":0}}"#;
        assert_eq!(scrape_u64(body, "accepted"), Some(31));
        assert_eq!(scrape_u64(body, "shed"), Some(4));
        assert_eq!(scrape_u64(body, "open_conns"), Some(2));
        assert_eq!(scrape_u64(body, "fds"), Some(19));
        assert_eq!(scrape_u64(body, "absent"), None);
    }
}
