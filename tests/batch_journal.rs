//! End-to-end durability coverage of the batch journal, driven through
//! the real binary:
//!
//! - **Crash-point sweep** — for every journal record N, both fault
//!   kinds (`torn@N`, `jcorrupt@N`): the faulted run exits 3 mid-batch,
//!   and `--resume` replays the durable prefix and produces a final
//!   `--json` report *byte-identical* (modulo the two wall-clock
//!   fields) to an uninterrupted run of the same manifest.
//! - **Replica resume** — `srtw serve --replicas 2 --journal … --fault
//!   torn@2`: the faulted replica aborts mid-`/batch`-stream, the
//!   supervision tree restarts it, and the re-POSTed manifest replays
//!   the journaled job instead of recomputing it (asserted via per-job
//!   wall-time provenance: replayed lines are byte-identical across
//!   responses).
//! - **Disconnect cancellation** — a `/batch` client that hangs up
//!   mid-stream gets its remaining (deliberately slow) jobs cancelled:
//!   the server's inflight gauge returns to zero long before the jobs
//!   could have completed.
#![cfg(unix)]

use srtw::serve::http::client_roundtrip;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A scratch directory holding `n` copies of a system plus a manifest.
struct Fixture {
    dir: PathBuf,
    manifest: PathBuf,
}

impl Fixture {
    fn new(tag: &str, system: &str, n: usize) -> Fixture {
        let dir = std::env::temp_dir().join(format!(
            "srtw-batch-journal-{tag}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        let text = std::fs::read_to_string(
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("systems/{system}")),
        )
        .expect("read seed system");
        let mut manifest = String::new();
        for i in 0..n {
            let name = format!("job-{i}.srtw");
            std::fs::write(dir.join(&name), &text).expect("write job copy");
            manifest.push_str(&name);
            manifest.push('\n');
        }
        let manifest_path = dir.join("manifest.txt");
        std::fs::write(&manifest_path, manifest).expect("write manifest");
        Fixture {
            manifest: manifest_path,
            dir,
        }
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn srtw(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_srtw"))
        .args(args)
        .output()
        .expect("srtw runs")
}

/// Zeroes the two wall-clock fields (`wall_ms`, `runtime_secs`) — the
/// only nondeterminism in a batch report over deterministic systems.
fn normalize(doc: &str) -> String {
    let mut out = doc.to_string();
    for key in ["\"wall_ms\":", "\"runtime_secs\":"] {
        let mut next = String::with_capacity(out.len());
        let mut rest = out.as_str();
        while let Some(pos) = rest.find(key) {
            let after = pos + key.len();
            next.push_str(&rest[..after]);
            next.push('0');
            let tail = &rest[after..];
            let end = tail
                .find(|c: char| c != '.' && c != '-' && c != '+' && c != 'e' && !c.is_ascii_digit())
                .unwrap_or(tail.len());
            rest = &tail[end..];
        }
        next.push_str(rest);
        out = next;
    }
    out
}

#[test]
fn crash_point_sweep_resumes_byte_identically() {
    let fx = Fixture::new("sweep", "decoder.srtw", 4);
    let manifest = fx.manifest.to_str().unwrap();

    let clean_journal = fx.dir.join("clean.journal");
    let clean = srtw(&[
        "batch",
        manifest,
        "--json",
        "--journal",
        clean_journal.to_str().unwrap(),
    ]);
    assert!(clean.status.success(), "{clean:?}");
    let expected = normalize(&String::from_utf8(clean.stdout).unwrap());

    for kind in ["torn", "jcorrupt"] {
        for n in 1..=4u32 {
            let fault = format!("{kind}@{n}");
            let journal = fx.dir.join(format!("{kind}-{n}.journal"));
            let journal = journal.to_str().unwrap();

            let crashed = srtw(&["batch", manifest, "--json", "--journal", journal, "--fault", &fault]);
            assert_eq!(
                crashed.status.code(),
                Some(3),
                "{fault}: a fired journal fault is an internal error: {crashed:?}"
            );

            let resumed = srtw(&["batch", manifest, "--json", "--journal", journal, "--resume"]);
            let stderr = String::from_utf8_lossy(&resumed.stderr).into_owned();
            assert!(resumed.status.success(), "{fault}: resume failed: {stderr}");
            // Records before the fault point are durable; the faulted
            // record itself is torn or corrupt and must NOT replay.
            assert!(
                stderr.contains(&format!("replayed {} completed job(s)", n - 1)),
                "{fault}: wrong replay count in: {stderr}"
            );
            let report = normalize(&String::from_utf8(resumed.stdout).unwrap());
            assert_eq!(
                report, expected,
                "{fault}: resumed report must be byte-identical to the uninterrupted run"
            );
        }
    }
}

#[test]
fn resume_against_a_foreign_manifest_starts_fresh() {
    let fx = Fixture::new("foreign", "decoder.srtw", 2);
    let manifest = fx.manifest.to_str().unwrap();
    let journal = fx.dir.join("x.journal");
    let journal = journal.to_str().unwrap();
    let first = srtw(&["batch", manifest, "--json", "--journal", journal]);
    assert!(first.status.success());

    // Grow the manifest: the digest changes, so --resume must refuse the
    // stale journal (warn + fresh) instead of replaying outcomes for a
    // different job set.
    let mut text = std::fs::read_to_string(&fx.manifest).unwrap();
    std::fs::write(fx.dir.join("extra.srtw"), std::fs::read(fx.dir.join("job-0.srtw")).unwrap())
        .unwrap();
    text.push_str("extra.srtw\n");
    std::fs::write(&fx.manifest, text).unwrap();

    let resumed = srtw(&["batch", manifest, "--json", "--journal", journal, "--resume"]);
    let stderr = String::from_utf8_lossy(&resumed.stderr).into_owned();
    assert!(resumed.status.success(), "{stderr}");
    assert!(
        stderr.contains("different job list"),
        "must warn about the digest mismatch: {stderr}"
    );
    assert!(
        stderr.contains("replayed 0 completed job(s)"),
        "nothing may replay across manifests: {stderr}"
    );
}

/// A running `srtw serve` process (single or replicated) with stdout
/// captured for address discovery.
struct Served {
    child: Child,
    public: SocketAddr,
    admin: Option<SocketAddr>,
    log: Arc<Mutex<Vec<String>>>,
}

impl Served {
    fn spawn(args: &[&str], expect_admin: bool) -> Served {
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
        while Instant::now() < deadline {
            for line in log.lock().unwrap().iter() {
                if let Some(rest) = line.strip_prefix("srtw-serve listening on ") {
                    public = rest.trim().parse().ok();
                } else if let Some(rest) = line.strip_prefix("srtw-serve supervisor admin on ") {
                    admin = rest.trim().parse().ok();
                }
            }
            if let Some(public) = public.filter(|_| admin.is_some() || !expect_admin) {
                return Served {
                    child,
                    public,
                    admin,
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
    /// Safety net for assertion failures: a panic between spawn and
    /// `stop()` must not leak a supervision tree (whose replicas would
    /// keep burning CPU under every later test and benchmark). Tries a
    /// graceful drain first so replicated mode reaps its children, then
    /// kills the parent.
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

/// The job lines (everything but the trailing summary) of a `/batch`
/// ndjson body.
fn job_lines(body: &str) -> Vec<String> {
    body.lines()
        .filter(|l| !l.starts_with("{\"summary\""))
        .map(str::to_string)
        .collect()
}

#[test]
fn replica_killed_by_journal_fault_resumes_without_recomputing() {
    let fx = Fixture::new("replica", "decoder.srtw", 4);
    let journal_prefix = fx.dir.join("serve.journal");
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
            "--journal",
            journal_prefix.to_str().unwrap(),
            "--fault",
            "torn@2",
        ],
        true,
    );

    // Manifests use absolute paths (replicas run from the same cwd, but
    // absolute is simply unambiguous). Each probe attempt gets its own
    // digest via a comment line, so a probe that lands on the healthy
    // replica completes an independent journal and changes nothing for
    // the next attempt. The kernel load-balances accepts, so a bounded
    // number of attempts reaches the faulted replica w.h.p.
    let base: String = (0..4)
        .map(|i| format!("{}\n", fx.dir.join(format!("job-{i}.srtw")).display()))
        .collect();
    let mut crashed_manifest = None;
    for attempt in 0..25 {
        let manifest = format!("# attempt {attempt}\n{base}");
        let outcome = client_roundtrip(&served.public, "POST", "/batch", &[], manifest.as_bytes());
        match outcome {
            Err(_) => {
                // The abort reset the connection before anything usable
                // arrived — still a crash observation.
                crashed_manifest = Some(manifest);
                break;
            }
            Ok((200, _, body)) if !body.contains("{\"summary\"") => {
                // Truncated stream: the replica died mid-batch. The jobs
                // that did stream were journaled first (durable-then-
                // visible), so they must replay verbatim below.
                crashed_manifest = Some(manifest);
                break;
            }
            Ok((200, _, _)) => continue, // landed on the healthy replica
            Ok(other) => panic!("unexpected /batch answer: {other:?}"),
        }
    }
    let manifest = crashed_manifest.expect("the torn@2 fault never fired in 25 attempts");

    // Re-POST the crashed manifest. Whichever replica answers (the
    // restarted one comes back fault-free) must replay the one record
    // that became durable before the tear — never zero, never all four.
    let resume = |tag: &str| -> String {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match client_roundtrip(&served.public, "POST", "/batch", &[], manifest.as_bytes()) {
                Ok((200, _, body)) if body.contains("{\"summary\"") => return body,
                _ if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(100));
                }
                other => panic!("{tag}: /batch never recovered: {other:?}"),
            }
        }
    };
    let first = resume("first resume");
    assert!(
        first.lines().last().unwrap().contains("\"replayed\":1"),
        "exactly the pre-tear record replays: {first}"
    );

    // A second identical POST replays everything — and the wall-time
    // provenance proves it: every job line is byte-identical to the
    // first resume's, which a recompute (fresh wall times) cannot be.
    let second = resume("second resume");
    assert!(
        second.lines().last().unwrap().contains("\"replayed\":4"),
        "{second}"
    );
    assert_eq!(job_lines(&first), job_lines(&second));

    served.stop();
}

#[test]
fn disconnecting_batch_client_cancels_the_remaining_jobs() {
    // Three copies of the adversarial system: each exact attempt runs
    // for many seconds, so without disconnect cancellation the batch
    // holds its inflight slot far past the assertion window.
    let fx = Fixture::new("disconnect", "adversarial.srtw", 3);
    let served = Served::spawn(&["--addr", "127.0.0.1:0", "--workers", "2"], false);

    let manifest: String = (0..3)
        .map(|i| format!("{}\n", fx.dir.join(format!("job-{i}.srtw")).display()))
        .collect();
    let mut stream = TcpStream::connect(served.public).unwrap();
    write!(
        stream,
        "POST /batch HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n{manifest}",
        manifest.len()
    )
    .unwrap();
    stream.flush().unwrap();
    // Wait for the chunked head — proof the batch is running — then
    // vanish.
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut first = [0u8; 16];
    stream.read_exact(&mut first).unwrap();
    assert!(first.starts_with(b"HTTP/1.1 200"));
    drop(stream);

    // The watcher polls every 50 ms, cancellation degrades within the
    // grace window: inflight must hit zero well before even one
    // adversarial exact analysis could finish.
    let deadline = Instant::now() + Duration::from_secs(8);
    loop {
        let (status, _, body) = client_roundtrip(&served.public, "GET", "/stats", &[], b"").unwrap();
        assert_eq!(status, 200);
        if body.contains("\"inflight\":0") && body.contains("\"batches\":1") {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "batch was not cancelled after disconnect: {body}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    served.stop();
}

/// The `jobs[]` entries of a `srtw batch --json` report, as text.
fn job_entries(report: &str) -> Vec<String> {
    let body = report.strip_prefix("{\"jobs\":[").expect("a batch report");
    let mut out = Vec::new();
    let (mut depth, mut start) = (0usize, 0usize);
    let (mut in_str, mut escaped) = (false, false);
    for (i, c) in body.char_indices() {
        if in_str {
            match c {
                _ if escaped => escaped = false,
                '\\' => escaped = true,
                '"' => in_str = false,
                _ => {}
            }
            continue;
        }
        match c {
            '"' => in_str = true,
            '{' | '[' => {
                if depth == 0 {
                    start = i;
                }
                depth += 1;
            }
            '}' | ']' if depth == 0 => break,
            '}' | ']' => {
                depth -= 1;
                if depth == 0 {
                    out.push(body[start..=i].to_string());
                }
            }
            _ => {}
        }
    }
    out
}

/// The `"total":…,"skipped":N` run of a batch summary (CLI or `/batch`).
fn summary_counts(text: &str) -> String {
    let from = text.rfind("\"total\":").expect("a summary");
    let skipped = from + text[from..].find("\"skipped\":").expect("skipped count");
    let end = skipped + "\"skipped\":".len();
    let digits = text[end..].find(|c: char| !c.is_ascii_digit()).unwrap();
    text[from..end + digits].to_string()
}

/// Writes `text` to `dir/rel`, creating parent directories.
fn put(dir: &Path, rel: &str, text: &str) -> PathBuf {
    let path = dir.join(rel);
    std::fs::create_dir_all(path.parent().unwrap()).unwrap();
    std::fs::write(&path, text).unwrap();
    path
}

/// `systems/decoder.srtw` and a copy whose server latency is 9 instead
/// of 2: same job name wherever the two share a file stem, different
/// bounds (15 and 22).
fn decoder_pair() -> (String, String) {
    let seed = Path::new(env!("CARGO_MANIFEST_DIR")).join("systems/decoder.srtw");
    let text = std::fs::read_to_string(seed).expect("read decoder.srtw");
    let slow = text.replace("latency=2", "latency=9");
    assert_ne!(text, slow);
    (text, slow)
}

/// The normalized `srtw batch --json` entry of one system run alone.
fn cold_entry(dir: &Path, system: &Path) -> String {
    let manifest = put(dir, "cold.txt", &format!("{}\n", system.display()));
    let out = srtw(&["batch", manifest.to_str().unwrap(), "--json"]);
    let report = normalize(&String::from_utf8(out.stdout).unwrap());
    let mut jobs = job_entries(&report);
    assert_eq!(jobs.len(), 1, "{report}");
    jobs.pop().unwrap()
}

/// A scratch directory holding `a/sys.srtw` (decoder) and `b/sys.srtw`
/// (decoder, latency 9), plus each system's cold entry.
struct SameStems {
    fx: Fixture,
    a: PathBuf,
    b: PathBuf,
    cold_a: String,
    cold_b: String,
}

impl SameStems {
    fn new(tag: &str) -> SameStems {
        let fx = Fixture::new(tag, "decoder.srtw", 0);
        let (fast, slow) = decoder_pair();
        let a = put(&fx.dir, "a/sys.srtw", &fast);
        let b = put(&fx.dir, "b/sys.srtw", &slow);
        let cold_a = cold_entry(&fx.dir, &a);
        let cold_b = cold_entry(&fx.dir, &b);
        assert_ne!(cold_a, cold_b, "the two systems' bounds must differ");
        SameStems {
            fx,
            a,
            b,
            cold_a,
            cold_b,
        }
    }

    /// `[a/sys, b/sys, a/sys]`: two files sharing a stem, and one file
    /// twice. Returns the manifest text and each entry's cold line.
    fn manifest(&self) -> (String, Vec<String>) {
        let text = [&self.a, &self.b, &self.a]
            .iter()
            .map(|p| format!("{}\n", p.display()))
            .collect();
        let cold = vec![self.cold_a.clone(), self.cold_b.clone(), self.cold_a.clone()];
        (text, cold)
    }
}

#[test]
fn duplicate_stems_resume_each_entry_from_its_own_record() {
    let same = SameStems::new("stems-cli");
    let (text, cold) = same.manifest();
    let manifest = put(&same.fx.dir, "stems.txt", &text);
    let manifest = manifest.to_str().unwrap();
    let journal = same.fx.dir.join("stems.journal");
    let journal = journal.to_str().unwrap();
    let entries = |out: &Output| job_entries(&normalize(&String::from_utf8_lossy(&out.stdout)));

    let clean = srtw(&["batch", manifest, "--json", "--journal", journal]);
    assert!(clean.status.success(), "{clean:?}");
    assert_eq!(entries(&clean), cold, "a completed run");

    let resumed = srtw(&["batch", manifest, "--json", "--journal", journal, "--resume"]);
    let stderr = String::from_utf8_lossy(&resumed.stderr);
    assert!(resumed.status.success(), "{stderr}");
    assert!(stderr.contains("replayed 3 completed job(s); running 0 fresh"), "{stderr}");
    assert_eq!(entries(&resumed), cold, "a resume of the completed journal");

    for n in 1..=3u32 {
        let fault = format!("torn@{n}");
        let crashed = srtw(&["batch", manifest, "--json", "--journal", journal, "--fault", &fault]);
        assert_eq!(crashed.status.code(), Some(3), "{fault}: {crashed:?}");
        let resumed = srtw(&["batch", manifest, "--json", "--journal", journal, "--resume"]);
        let stderr = String::from_utf8_lossy(&resumed.stderr);
        assert!(resumed.status.success(), "{fault}: {stderr}");
        assert!(
            stderr.contains(&format!("replayed {} completed job(s)", n - 1)),
            "{fault}: {stderr}"
        );
        assert_eq!(entries(&resumed), cold, "{fault}: resumed entries");
    }
}

#[test]
fn duplicate_stems_replay_each_entry_from_its_own_record_over_http() {
    let same = SameStems::new("stems-http");
    let (text, cold) = same.manifest();
    let prefix = same.fx.dir.join("serve.journal");
    let prefix = prefix.to_str().unwrap();
    let post = |served: &Served, body: &str| -> (Vec<String>, String) {
        let (status, _, body) =
            client_roundtrip(&served.public, "POST", "/batch", &[], body.as_bytes()).unwrap();
        assert_eq!(status, 200, "{body}");
        let summary = body.lines().last().unwrap().to_string();
        (job_lines(&normalize(&body)), summary)
    };

    // A completed run, then a re-POST that replays every line.
    let served = Served::spawn(&["--addr", "127.0.0.1:0", "--journal", prefix], false);
    let (lines, summary) = post(&served, &text);
    assert_eq!(lines, cold, "a completed run");
    assert!(summary.contains("\"replayed\":0"), "{summary}");
    let (lines, summary) = post(&served, &text);
    assert_eq!(lines, cold, "a full replay");
    assert!(summary.contains("\"replayed\":3"), "{summary}");
    served.stop();

    // A torn@N crash at every N, then a fault-free server resumes. A
    // comment line gives each N its own manifest digest.
    for n in 1..=3u32 {
        let body = format!("# crash at {n}\n{text}");
        let fault = format!("torn@{n}");
        let crashed = Served::spawn(
            &["--addr", "127.0.0.1:0", "--journal", prefix, "--fault", &fault],
            false,
        );
        // The abort ends the stream before its summary, or before any
        // usable response at all.
        if let Ok((_, _, partial)) =
            client_roundtrip(&crashed.public, "POST", "/batch", &[], body.as_bytes())
        {
            assert!(!partial.contains("{\"summary\""), "{fault}: {partial}");
        }
        drop(crashed);
        let served = Served::spawn(&["--addr", "127.0.0.1:0", "--journal", prefix], false);
        let (lines, summary) = post(&served, &body);
        assert_eq!(lines, cold, "{fault}: resumed lines");
        assert!(summary.contains(&format!("\"replayed\":{}", n - 1)), "{fault}: {summary}");
        served.stop();
    }
}

#[test]
fn cli_and_http_batches_agree_line_for_line() {
    // Two good systems, a missing path, an unparsable file, a system
    // with no server line, and a stem shared by two files.
    let fx = Fixture::new("routes", "decoder.srtw", 0);
    let (fast, slow) = decoder_pair();
    let no_server: String = fast
        .lines()
        .filter(|l| !l.starts_with("server"))
        .map(|l| format!("{l}\n"))
        .collect();
    let files = [
        put(&fx.dir, "one.srtw", &fast),
        put(&fx.dir, "two.srtw", &slow),
        fx.dir.join("missing.srtw"),
        put(&fx.dir, "broken.srtw", "task t\nvertex a wcet=\n"),
        put(&fx.dir, "no-server.srtw", &no_server),
        put(&fx.dir, "dup/one.srtw", &slow),
    ];
    let text: String = files.iter().map(|p| format!("{}\n", p.display())).collect();
    let manifest = put(&fx.dir, "routes.txt", &text);

    let cli = srtw(&["batch", manifest.to_str().unwrap(), "--json"]);
    assert_eq!(cli.status.code(), Some(4), "three entries fail: {cli:?}");
    let cli = normalize(&String::from_utf8(cli.stdout).unwrap());

    let served = Served::spawn(&["--addr", "127.0.0.1:0"], false);
    let (status, _, http) =
        client_roundtrip(&served.public, "POST", "/batch", &[], text.as_bytes()).unwrap();
    served.stop();
    assert_eq!(status, 200, "{http}");
    let http = normalize(&http);

    let lines = job_lines(&http);
    assert_eq!(lines.len(), files.len(), "{http}");
    assert_eq!(job_entries(&cli), lines);
    assert_eq!(summary_counts(&cli), summary_counts(&http));
    assert_eq!(
        summary_counts(&cli),
        "\"total\":6,\"exact\":3,\"degraded\":0,\"failed\":3,\"skipped\":0"
    );
}

/// A journaled record replays only onto the bytes it was written for:
/// `--resume` after the listed file changed runs that entry fresh (at the
/// parent of this rule it replayed bound 15 where the edited file's exact
/// bound is 22), an unchanged file still replays, and restoring the old
/// bytes replays the old record.
#[test]
fn resume_after_an_edit_reruns_the_edited_entry() {
    let fx = Fixture::new("edit-cli", "decoder.srtw", 0);
    let (fast, slow) = decoder_pair();
    let sys = put(&fx.dir, "sys.srtw", &fast);
    let cold_fast = cold_entry(&fx.dir, &sys);
    put(&fx.dir, "sys.srtw", &slow);
    let cold_slow = cold_entry(&fx.dir, &sys);
    put(&fx.dir, "sys.srtw", &fast);
    let manifest = put(&fx.dir, "edit.txt", &format!("{}\n", sys.display()));
    let manifest = manifest.to_str().unwrap();
    let journal = fx.dir.join("edit.journal");
    let journal = journal.to_str().unwrap();
    let resume = |expect_replayed: usize, cold: &str, why: &str| {
        let out = srtw(&["batch", manifest, "--json", "--journal", journal, "--resume"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{why}: {stderr}");
        let fresh = 1 - expect_replayed;
        assert!(
            stderr.contains(&format!(
                "replayed {expect_replayed} completed job(s); running {fresh} fresh"
            )),
            "{why}: {stderr}"
        );
        let report = normalize(&String::from_utf8_lossy(&out.stdout));
        assert_eq!(job_entries(&report), [cold], "{why}");
    };

    let first = srtw(&["batch", manifest, "--json", "--journal", journal]);
    assert!(first.status.success(), "{first:?}");
    resume(1, &cold_fast, "an unchanged file");
    put(&fx.dir, "sys.srtw", &slow);
    resume(0, &cold_slow, "an edited file");
    resume(1, &cold_slow, "the edited file, unchanged since");
    put(&fx.dir, "sys.srtw", &fast);
    resume(1, &cold_fast, "the original bytes again");
}

/// The `/batch` twin: re-POSTing an unchanged manifest to `serve
/// --journal` after editing a listed file, and after creating a listed
/// file that was missing, runs both entries fresh; a further re-POST
/// replays both.
#[test]
fn repost_after_an_edit_reruns_the_edited_entries_over_http() {
    let fx = Fixture::new("edit-http", "decoder.srtw", 0);
    let (fast, slow) = decoder_pair();
    let sys = put(&fx.dir, "sys.srtw", &slow);
    let cold_slow = cold_entry(&fx.dir, &sys);
    put(&fx.dir, "sys.srtw", &fast);
    let cold_fast = cold_entry(&fx.dir, &sys);
    let later = fx.dir.join("later.srtw");
    let text = format!("{}\n{}\n", sys.display(), later.display());
    let prefix = fx.dir.join("serve.journal");
    let served = Served::spawn(&["--addr", "127.0.0.1:0", "--journal", prefix.to_str().unwrap()], false);
    let post = || -> (Vec<String>, String) {
        let (status, _, body) =
            client_roundtrip(&served.public, "POST", "/batch", &[], text.as_bytes()).unwrap();
        assert_eq!(status, 200, "{body}");
        let summary = body.lines().last().unwrap().to_string();
        (job_lines(&normalize(&body)), summary)
    };

    let (lines, summary) = post();
    assert_eq!(lines[0], cold_fast);
    assert!(lines[1].contains("\"status\":\"failed\""), "{}", lines[1]);
    assert!(summary.contains("\"replayed\":0"), "{summary}");

    put(&fx.dir, "sys.srtw", &slow);
    put(&fx.dir, "later.srtw", &fast);
    let (lines, summary) = post();
    assert_eq!(lines, [cold_slow.clone(), cold_fast.replace("\"sys\"", "\"later\"")]);
    assert!(summary.contains("\"replayed\":0"), "{summary}");

    let (again, summary) = post();
    assert_eq!(again, lines, "an unchanged re-POST replays every line");
    assert!(summary.contains("\"replayed\":2"), "{summary}");
    served.stop();
}

/// A `/batch` is held only by its jobs: the disconnect watcher is woken
/// when the batch ends rather than slept out. Ten sequential single-job
/// batches, each run fresh (there is no journal to replay from), must
/// finish in less than ten of the watcher's 50 ms poll intervals — at
/// one interval a batch, as a slept-out watcher costs, they cannot.
#[test]
fn sequential_single_job_batches_are_not_held_by_the_disconnect_watcher() {
    const DISCONNECT_POLL: Duration = Duration::from_millis(50);
    let fx = Fixture::new("watcher", "decoder.srtw", 1);
    let system = fx.dir.join("job-0.srtw");
    let server = srtw::serve::Server::spawn(srtw::ServeConfig {
        workers: 2,
        ..Default::default()
    })
    .expect("spawn an in-process server");
    let addr = server.addr();
    let manifest = format!("{}\n", system.display());

    let started = Instant::now();
    for _ in 0..10 {
        let (status, _, body) =
            client_roundtrip(&addr, "POST", "/batch", &[], manifest.as_bytes()).unwrap();
        assert_eq!(status, 200, "{body}");
        assert_eq!(job_lines(&body).len(), 1, "{body}");
        assert!(body.contains("\"status\":\"exact\""), "{body}");
        assert!(body.ends_with("\"replayed\":0}}\n"), "{body}");
    }
    let elapsed = started.elapsed();
    let report = server.shutdown();
    assert!(report.clean(), "{report:?}");
    assert!(
        elapsed < 10 * DISCONNECT_POLL,
        "ten single-job batches took {elapsed:?}: each waited out the watcher's poll"
    );
}
