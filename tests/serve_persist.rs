//! End-to-end coverage of the crash-safe persistent result store,
//! driven through the real binary:
//!
//! - **Full-restart warm `/analyze`** — a result cached (and spilled)
//!   before a clean shutdown replays byte-identically from a brand-new
//!   process over the same `--persist` directory, as a cache *hit*
//!   (`persist_loaded` ≥ 1, zero cold misses on the restarted server).
//! - **Warm-journal `/batch`** — a manifest whose journal is fully
//!   complete streams its replay from a restarted server without
//!   running the supervisor at all (`"replayed":N`, `batch_jobs` 0).
//! - **Replica SIGKILL mid-flood** — under `--replicas 2 --persist`,
//!   killing one replica mid-flood never produces a wrong byte, and the
//!   respawned replica warm-loads the *shared* spill directory: the
//!   fleet's aggregated `cache_hits` advance with no new cold
//!   recompute (`cache_misses` frozen, `persist_loaded` ≥ 1).
#![cfg(unix)]

use srtw::serve::http::client_roundtrip;
use srtw::serve::sys;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const SMALL_SYSTEM: &str =
    "task t\nvertex a wcet=2 deadline=9\nedge a a sep=8\nserver fluid rate=1\n";

/// A scratch directory for spill files, journals, and job copies.
struct Scratch {
    dir: PathBuf,
}

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!(
            "srtw-serve-persist-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch dir");
        Scratch { dir }
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// A running `srtw serve` process (single or replicated) with stdout
/// captured for address discovery.
struct Served {
    child: Child,
    public: SocketAddr,
    admin: Option<SocketAddr>,
    /// `(index, pid, admin)` per replica announce, in announce order.
    replicas: Vec<(usize, u32, SocketAddr)>,
    log: Arc<Mutex<Vec<String>>>,
}

impl Served {
    fn spawn(args: &[&str], want_replicas: usize) -> Served {
        let mut child = Command::new(env!("CARGO_BIN_EXE_srtw"))
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn srtw serve");
        let stdout = child.stdout.take().expect("stdout was piped");
        let log = Arc::new(Mutex::new(Vec::<String>::new()));
        let sink = Arc::clone(&log);
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                match line {
                    Ok(line) => sink.lock().unwrap().push(line),
                    Err(_) => return,
                }
            }
        });
        let deadline = Instant::now() + Duration::from_secs(20);
        let (mut public, mut admin) = (None, None);
        let mut replicas = Vec::new();
        while Instant::now() < deadline {
            for line in log.lock().unwrap().iter() {
                if let Some(rest) = line.strip_prefix("srtw-serve listening on ") {
                    public = rest.trim().parse().ok();
                } else if let Some(rest) = line.strip_prefix("srtw-serve supervisor admin on ") {
                    admin = rest.trim().parse().ok();
                } else if let Some((index, pid, addr)) = parse_replica_announce(line) {
                    if !replicas.iter().any(|&(_, p, _)| p == pid) {
                        replicas.push((index, pid, addr));
                    }
                }
            }
            let replicated_ready = want_replicas == 0
                || (admin.is_some() && replicas.len() >= want_replicas);
            if let Some(public) = public.filter(|_| replicated_ready) {
                return Served {
                    child,
                    public,
                    admin,
                    replicas,
                    log,
                };
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = child.kill();
        let _ = child.wait();
        panic!("serve never announced; stdout: {:?}", log.lock().unwrap());
    }

    /// Graceful stop via whichever shutdown plane this mode has.
    fn stop(mut self) {
        let target = self.admin.unwrap_or(self.public);
        let _ = client_roundtrip(&target, "POST", "/shutdown", &[], b"");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            if Instant::now() >= deadline {
                let _ = self.child.kill();
                let _ = self.child.wait();
                panic!("serve did not drain; stdout: {:?}", self.log.lock().unwrap());
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        if let Ok(Some(_)) = self.child.try_wait() {
            return;
        }
        let target = self.admin.unwrap_or(self.public);
        let _ = client_roundtrip(&target, "POST", "/shutdown", &[], b"");
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Ok(Some(_)) = self.child.try_wait() {
                return;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// `srtw-serve replica <i> pid <pid> admin on <addr>`.
fn parse_replica_announce(line: &str) -> Option<(usize, u32, SocketAddr)> {
    let rest = line.trim().strip_prefix("srtw-serve replica ")?;
    let mut words = rest.split(' ');
    let index = words.next()?.parse().ok()?;
    if words.next()? != "pid" {
        return None;
    }
    let pid = words.next()?.parse().ok()?;
    if (words.next()?, words.next()?) != ("admin", "on") {
        return None;
    }
    let addr = words.next()?.parse().ok()?;
    Some((index, pid, addr))
}

fn get_stats(addr: &SocketAddr) -> String {
    let (status, _, body) =
        client_roundtrip(addr, "GET", "/stats", &[], b"").expect("stats scrape");
    assert_eq!(status, 200, "{body}");
    body
}

/// Pulls `"key":<integer>` out of a flat JSON document (the serve
/// renderer emits no whitespace, so a textual scrape is exact). With
/// `after`, scanning starts past that marker — used to read a counter
/// out of the supervisor's `"aggregate"` object rather than a
/// per-replica one.
fn scrape_u64(body: &str, after: Option<&str>, key: &str) -> u64 {
    let start = match after {
        None => 0,
        Some(marker) => body.find(marker).map(|p| p + marker.len()).unwrap_or(0),
    };
    let needle = format!("\"{key}\":");
    let at = body[start..]
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} missing after {after:?} in {body}"))
        + start
        + needle.len();
    body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .unwrap()
}

/// Strips every `"runtime_secs":<number>` value — each replica computes
/// its own cold copy, so *cross-replica* byte-identity holds modulo the
/// one wall-clock field (warm hits against a single replica replay its
/// stored bytes verbatim, runtime included; the restart tests assert
/// that strict form).
fn strip_runtime(doc: &str) -> String {
    let mut out = String::with_capacity(doc.len());
    let mut rest = doc;
    while let Some(pos) = rest.find("\"runtime_secs\":") {
        let after = pos + "\"runtime_secs\":".len();
        out.push_str(&rest[..after]);
        out.push('0');
        let tail = &rest[after..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

#[test]
fn full_restart_replays_warm_and_byte_identical() {
    let fx = Scratch::new("restart");
    let persist = fx.dir.join("spill");
    let persist = persist.to_str().unwrap();

    let first = Served::spawn(&["--addr", "127.0.0.1:0", "--persist", persist], 0);
    let (status, _, cold) =
        client_roundtrip(&first.public, "POST", "/analyze", &[], SMALL_SYSTEM.as_bytes())
            .expect("cold analyze");
    assert_eq!(status, 200, "{cold}");
    // In-memory warm hit replays the body verbatim (runtime included).
    let (status, _, warm) =
        client_roundtrip(&first.public, "POST", "/analyze", &[], SMALL_SYSTEM.as_bytes())
            .expect("warm analyze");
    assert_eq!(status, 200);
    assert_eq!(warm, cold, "an in-memory hit must replay verbatim");
    let stats = get_stats(&first.public);
    assert!(scrape_u64(&stats, None, "persist_stored") >= 1, "{stats}");
    assert_eq!(scrape_u64(&stats, None, "persist_errors"), 0, "{stats}");
    first.stop();

    // A brand-new process over the same directory answers warm: the
    // very first POST is a cache hit with the exact stored bytes.
    let second = Served::spawn(&["--addr", "127.0.0.1:0", "--persist", persist], 0);
    let (status, _, revived) =
        client_roundtrip(&second.public, "POST", "/analyze", &[], SMALL_SYSTEM.as_bytes())
            .expect("post-restart analyze");
    assert_eq!(status, 200);
    assert_eq!(revived, cold, "a restart-warm hit must replay verbatim");
    let stats = get_stats(&second.public);
    assert!(scrape_u64(&stats, None, "persist_loaded") >= 1, "{stats}");
    assert_eq!(scrape_u64(&stats, None, "cache_hits"), 1, "{stats}");
    assert_eq!(
        scrape_u64(&stats, None, "cache_misses"),
        0,
        "a warm restart must not recompute: {stats}"
    );
    second.stop();
}

#[test]
fn complete_journal_fast_paths_batch_replay_across_restart() {
    let fx = Scratch::new("journal");
    let text = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("systems/decoder.srtw"),
    )
    .expect("read seed system");
    let mut manifest = String::new();
    for i in 0..4 {
        let path = fx.dir.join(format!("job-{i}.srtw"));
        std::fs::write(&path, &text).expect("write job copy");
        manifest.push_str(&format!("{}\n", path.display()));
    }
    let journal = fx.dir.join("serve.journal");
    let journal = journal.to_str().unwrap();

    let first = Served::spawn(
        &["--addr", "127.0.0.1:0", "--journal", journal, "--workers", "2"],
        0,
    );
    let (status, _, fresh) =
        client_roundtrip(&first.public, "POST", "/batch", &[], manifest.as_bytes())
            .expect("fresh batch");
    assert_eq!(status, 200, "{fresh}");
    assert!(fresh.lines().last().unwrap().contains("\"replayed\":0"), "{fresh}");
    first.stop();

    // The journal now covers the whole manifest: a restarted server must
    // stream the replay without running a single fresh job — per-job
    // wall-time provenance makes byte-identity the proof (a recompute
    // could not reproduce the stored wall times).
    let second = Served::spawn(
        &["--addr", "127.0.0.1:0", "--journal", journal, "--workers", "2"],
        0,
    );
    let (status, _, replayed) =
        client_roundtrip(&second.public, "POST", "/batch", &[], manifest.as_bytes())
            .expect("replayed batch");
    assert_eq!(status, 200, "{replayed}");
    assert!(
        replayed.lines().last().unwrap().contains("\"replayed\":4"),
        "{replayed}"
    );
    let job_lines = |body: &str| -> Vec<String> {
        let mut lines: Vec<String> = body
            .lines()
            .filter(|l| !l.starts_with("{\"summary\""))
            .map(str::to_string)
            .collect();
        lines.sort();
        lines
    };
    assert_eq!(
        job_lines(&fresh),
        job_lines(&replayed),
        "the fast-path replay must carry the journaled bytes verbatim"
    );
    let stats = get_stats(&second.public);
    assert_eq!(
        scrape_u64(&stats, None, "batch_jobs"),
        0,
        "no fresh job may run on the fast path: {stats}"
    );
    assert_eq!(scrape_u64(&stats, None, "batch_replayed"), 4, "{stats}");
    second.stop();
}

#[test]
fn sigkill_replica_mid_flood_respawns_warm_from_the_shared_store() {
    let fx = Scratch::new("replica");
    let persist = fx.dir.join("spill");
    let persist = persist.to_str().unwrap();
    let served = Served::spawn(
        &[
            "--addr",
            "127.0.0.1:0",
            "--replicas",
            "2",
            "--workers",
            "2",
            "--drain-ms",
            "2000",
            "--persist",
            persist,
        ],
        2,
    );
    let admin = served.admin.expect("replicated mode has an admin plane");

    // Prewarm until *both* replicas have cold-missed once and spilled
    // the result — the kernel load-balances accepts, so a bounded loop
    // reaches both w.h.p.
    let expected = {
        let (status, _, body) =
            client_roundtrip(&served.public, "POST", "/analyze", &[], SMALL_SYSTEM.as_bytes())
                .expect("first prewarm");
        assert_eq!(status, 200, "{body}");
        strip_runtime(&body)
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = get_stats(&admin);
        if scrape_u64(&stats, Some("\"aggregate\""), "persist_stored") >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "prewarm never reached both replicas: {stats}"
        );
        let (status, _, body) =
            client_roundtrip(&served.public, "POST", "/analyze", &[], SMALL_SYSTEM.as_bytes())
                .expect("prewarm");
        assert_eq!(status, 200);
        assert_eq!(
            strip_runtime(&body),
            expected,
            "prewarm answers must stay byte-identical"
        );
    }
    let misses_before = {
        let stats = get_stats(&admin);
        scrape_u64(&stats, Some("\"aggregate\""), "cache_misses")
    };
    assert_eq!(misses_before, 2, "one cold miss per replica");

    // Flood from a background thread while the kill lands: every 200
    // that comes back — before, during, and after the crash window —
    // must carry the exact prewarmed bytes. Transport errors are
    // expected (connections die with the replica) and tolerated.
    let stop = Arc::new(AtomicBool::new(false));
    let flooder = {
        let stop = Arc::clone(&stop);
        let public = served.public;
        let expected = expected.clone();
        std::thread::spawn(move || {
            let mut ok = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if let Ok((200, _, body)) =
                    client_roundtrip(&public, "POST", "/analyze", &[], SMALL_SYSTEM.as_bytes())
                {
                    assert_eq!(strip_runtime(&body), expected, "a flood answer changed bytes");
                    ok += 1;
                }
            }
            ok
        })
    };

    let (victim_index, victim_pid, _) = served.replicas[0];
    assert!(sys::send_signal(victim_pid, sys::SIGKILL));

    // Wait for the respawn announce (same index, new pid) and quorum.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let respawned = served.log.lock().unwrap().iter().any(|l| {
            parse_replica_announce(l)
                .is_some_and(|(i, pid, _)| i == victim_index && pid != victim_pid)
        });
        let ready = matches!(
            client_roundtrip(&admin, "GET", "/readyz", &[], b""),
            Ok((200, _, _))
        );
        if respawned && ready {
            break;
        }
        assert!(Instant::now() < deadline, "replica never respawned warm");
        std::thread::sleep(Duration::from_millis(50));
    }
    // Let the flood keep both replicas busy a moment longer, then stop.
    std::thread::sleep(Duration::from_millis(500));
    stop.store(true, Ordering::Relaxed);
    let flood_hits = flooder.join().expect("flooder panicked");
    assert!(flood_hits > 0, "the flood never landed a request");

    // The respawned replica inherited the shared spill directory: the
    // aggregate shows its warm load, and — decisively — the fleet's
    // cache_hits advanced while cache_misses *shrank* (the dead
    // replica's miss left the aggregate and the warm respawn never
    // added one). A cold respawn would hold the aggregate at two.
    let deadline = Instant::now() + Duration::from_secs(20);
    let stats = loop {
        let stats = get_stats(&admin);
        let loaded = scrape_u64(&stats, Some("\"aggregate\""), "persist_loaded");
        let hits = scrape_u64(&stats, Some("\"aggregate\""), "cache_hits");
        if loaded >= 1 && hits >= 1 {
            break stats;
        }
        assert!(
            Instant::now() < deadline,
            "aggregate never showed a warm load: {stats}"
        );
        let (status, _, body) =
            client_roundtrip(&served.public, "POST", "/analyze", &[], SMALL_SYSTEM.as_bytes())
                .expect("post-respawn analyze");
        assert_eq!(status, 200);
        assert_eq!(strip_runtime(&body), expected);
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(
        scrape_u64(&stats, Some("\"aggregate\""), "cache_misses"),
        1,
        "the respawned replica must answer warm, not recompute: {stats}"
    );
    assert_eq!(
        scrape_u64(&stats, Some("\"aggregate\""), "persist_errors"),
        0,
        "{stats}"
    );

    served.stop();
}
