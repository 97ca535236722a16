//! Byte-identity contract of the content-addressed result cache and
//! `POST /analyze/delta`, over real TCP:
//!
//! * a cache hit replays the **exact** bytes of the first response;
//! * a delta answer is byte-identical (modulo `runtime_secs`) to a cold
//!   `POST /analyze` of the edited system — whether the conservative cut
//!   spliced streams or fell back to a full re-analysis;
//! * under an injected deterministic fault the delta path runs the same
//!   metered computation as a cold server, so even degraded provenance
//!   (trip records, fallback quality) matches byte-for-byte.

use srtw::serve::http::client_roundtrip;
use srtw::serve::{ServeConfig, Server};
use srtw::FaultPlan;
use std::net::SocketAddr;

fn spawn(cfg: ServeConfig) -> Server {
    Server::spawn(cfg).expect("bind an ephemeral port")
}

fn post(addr: &SocketAddr, target: &str, body: &str) -> (u16, Vec<(String, String)>, String) {
    client_roundtrip(addr, "POST", target, &[], body.as_bytes()).expect("round trip")
}

fn get_stats(addr: &SocketAddr) -> String {
    let (status, _, body) = client_roundtrip(addr, "GET", "/stats", &[], b"").expect("round trip");
    assert_eq!(status, 200);
    body
}

fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Strips every `"runtime_secs":<number>` value (the document's one
/// nondeterministic field).
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

fn decoder() -> String {
    std::fs::read_to_string("systems/decoder.srtw").expect("shipped system")
}

#[test]
fn cache_hit_replays_the_exact_first_response() {
    let text = decoder();
    let server = spawn(ServeConfig::default());
    let (s1, _, first) = post(&server.addr(), "/analyze", &text);
    let (s2, _, second) = post(&server.addr(), "/analyze", &text);
    assert_eq!((s1, s2), (200, 200), "{first}");
    // Not merely modulo runtime: the stored body is replayed verbatim.
    assert_eq!(first, second, "cache hit must replay the original bytes");

    let stats = get_stats(&server.addr());
    assert!(stats.contains("\"cache_hits\":1"), "{stats}");
    assert!(stats.contains("\"cache_misses\":1"), "{stats}");
    assert!(!stats.contains("\"cache_bytes\":0,"), "{stats}");
    assert!(server.shutdown().clean());
}

/// The cache key is the canonical hash alone: a deadline cannot change an
/// exact answer, so a deadlined re-send of a cached system is a verbatim
/// hit rather than a recompute that might come back degraded.
#[test]
fn deadlined_resend_is_a_verbatim_cache_hit() {
    let text = decoder();
    let server = spawn(ServeConfig::default());
    let (s1, _, first) = post(&server.addr(), "/analyze", &text);
    let (s2, _, second) = client_roundtrip(
        &server.addr(),
        "POST",
        "/analyze",
        &[("X-Deadline-Ms", "60000")],
        text.as_bytes(),
    )
    .expect("round trip");
    assert_eq!((s1, s2), (200, 200), "{first}");
    assert_eq!(first, second, "a deadlined re-send must replay the original bytes");

    let stats = get_stats(&server.addr());
    assert!(stats.contains("\"cache_hits\":1"), "{stats}");
    assert!(stats.contains("\"cache_misses\":1"), "{stats}");
    assert!(server.shutdown().clean());
}

#[test]
fn renamed_system_misses_the_cache_but_still_answers() {
    let text = decoder();
    let renamed = text
        .replace("task telemetry", "task metrics")
        .replace("vertex t ", "vertex m ")
        .replace("edge t t ", "edge m m ");
    let server = spawn(ServeConfig::default());
    let (s1, _, first) = post(&server.addr(), "/analyze", &text);
    let (s2, _, second) = post(&server.addr(), "/analyze", &renamed);
    assert_eq!((s1, s2), (200, 200));
    // Same structure, different names: structurally equal systems, but
    // the rendered bodies differ, so the cache must not replay.
    assert_ne!(first, second);
    assert!(second.contains("\"metrics\""), "{second}");
    let stats = get_stats(&server.addr());
    assert!(stats.contains("\"cache_hits\":0"), "{stats}");
    assert!(stats.contains("\"cache_misses\":2"), "{stats}");
    assert!(server.shutdown().clean());
}

#[test]
fn deadline_delta_splices_and_matches_a_cold_run() {
    let base = decoder();
    // A deadline edit is rbf-invariant: the conservative cut proves the
    // unedited telemetry stream reusable and splices it from the cache.
    let edited_text = base.replace("deadline=25", "deadline=24");
    let delta_body = format!("{base}@delta\ndeadline decoder B 24\n");

    let warm = spawn(ServeConfig::default());
    let (s0, _, _) = post(&warm.addr(), "/analyze", &base);
    assert_eq!(s0, 200);
    let (s1, headers, delta_answer) = post(&warm.addr(), "/analyze/delta", &delta_body);
    assert_eq!(s1, 200, "{delta_answer}");
    let reuse = header(&headers, "x-delta-reuse").expect("delta provenance header");
    assert!(
        reuse.contains("reused=1") && reuse.contains("reanalysed=1"),
        "deadline edit must re-analyse strictly fewer streams: {reuse}"
    );
    assert!(reuse.contains("full_fallback=false"), "{reuse}");

    let cold = spawn(ServeConfig::default());
    let (s2, _, cold_answer) = post(&cold.addr(), "/analyze", &edited_text);
    assert_eq!(s2, 200);
    assert_eq!(
        strip_runtime(&delta_answer),
        strip_runtime(&cold_answer),
        "spliced delta answer diverged from a cold run of the edited system"
    );

    let stats = get_stats(&warm.addr());
    assert!(stats.contains("\"delta_full_fallbacks\":0"), "{stats}");
    assert!(warm.shutdown().clean());
    assert!(cold.shutdown().clean());
}

#[test]
fn wcet_delta_falls_back_fully_and_matches_a_cold_run() {
    let base = decoder();
    // A WCET edit changes the edited task's rbf, so the cut cannot prove
    // the other stream reusable: full re-analysis, still byte-identical.
    let edited_text = base.replace("vertex t wcet=1", "vertex t wcet=2");
    let delta_body = format!("{base}@delta\nwcet telemetry t 2\n");

    let warm = spawn(ServeConfig::default());
    let (s0, _, _) = post(&warm.addr(), "/analyze", &base);
    assert_eq!(s0, 200);
    let (s1, headers, delta_answer) = post(&warm.addr(), "/analyze/delta", &delta_body);
    assert_eq!(s1, 200, "{delta_answer}");
    let reuse = header(&headers, "x-delta-reuse").expect("delta provenance header");
    assert!(reuse.contains("full_fallback=true"), "{reuse}");

    let cold = spawn(ServeConfig::default());
    let (s2, _, cold_answer) = post(&cold.addr(), "/analyze", &edited_text);
    assert_eq!(s2, 200);
    assert_eq!(
        strip_runtime(&delta_answer),
        strip_runtime(&cold_answer),
        "fallback delta answer diverged from a cold run of the edited system"
    );

    let stats = get_stats(&warm.addr());
    assert!(stats.contains("\"delta_full_fallbacks\":1"), "{stats}");
    assert!(warm.shutdown().clean());
    assert!(cold.shutdown().clean());
}

#[test]
fn delta_under_injected_fault_matches_cold_fault_provenance() {
    let base = decoder();
    let edited_text = base.replace("deadline=25", "deadline=24");
    let delta_body = format!("{base}@delta\ndeadline decoder B 24\n");
    let faulty = || {
        spawn(ServeConfig {
            fault: Some(FaultPlan::parse("trip@5").unwrap()),
            ..ServeConfig::default()
        })
    };

    // With a configured fault every request must run the metered path:
    // no caching, no splicing — the delta endpoint degrades on exactly
    // the same tick as a cold analyze of the edited system, provenance
    // included.
    let a = faulty();
    let (s0, _, _) = post(&a.addr(), "/analyze", &base);
    assert_eq!(s0, 200);
    let (s1, headers, delta_answer) = post(&a.addr(), "/analyze/delta", &delta_body);
    assert_eq!(s1, 200, "{delta_answer}");
    assert!(delta_answer.contains("\"degraded\":true"), "{delta_answer}");
    let reuse = header(&headers, "x-delta-reuse").expect("delta provenance header");
    assert!(reuse.contains("full_fallback=true"), "{reuse}");

    let b = faulty();
    let (s2, _, cold_answer) = post(&b.addr(), "/analyze", &edited_text);
    assert_eq!(s2, 200);
    assert_eq!(
        strip_runtime(&delta_answer),
        strip_runtime(&cold_answer),
        "metered delta diverged from a cold faulted run (tick-exact replay broken)"
    );

    let stats = get_stats(&a.addr());
    assert!(stats.contains("\"cache_hits\":0"), "{stats}");
    assert!(stats.contains("\"delta_full_fallbacks\":1"), "{stats}");
    assert!(a.shutdown().clean());
    assert!(b.shutdown().clean());
}

#[test]
fn delta_rejects_malformed_scripts_with_typed_errors() {
    let base = decoder();
    let server = spawn(ServeConfig::default());
    // No separator line.
    let (s, _, body) = post(&server.addr(), "/analyze/delta", &base);
    assert_eq!(s, 400, "{body}");
    assert!(body.contains("@delta"), "{body}");
    // Unknown task in an otherwise well-formed script.
    let (s, _, body) = post(
        &server.addr(),
        "/analyze/delta",
        &format!("{base}@delta\nwcet nosuch t 2\n"),
    );
    assert_eq!(s, 400, "{body}");
    assert!(body.contains("unknown task"), "{body}");
    assert!(body.contains("\"edit_line\":1"), "{body}");
    // Empty edit script.
    let (s, _, body) = post(&server.addr(), "/analyze/delta", &format!("{base}@delta\n"));
    assert_eq!(s, 400, "{body}");
    // GET on the endpoint is a 405, not a 404.
    let (s, _, _) =
        client_roundtrip(&server.addr(), "GET", "/analyze/delta", &[], b"").expect("round trip");
    assert_eq!(s, 405);
    assert!(server.shutdown().clean());
}

#[test]
fn zero_cache_budget_disables_caching() {
    let text = decoder();
    let server = spawn(ServeConfig {
        cache_bytes: 0,
        ..ServeConfig::default()
    });
    let (s1, _, first) = post(&server.addr(), "/analyze", &text);
    let (s2, _, second) = post(&server.addr(), "/analyze", &text);
    assert_eq!((s1, s2), (200, 200));
    assert_eq!(strip_runtime(&first), strip_runtime(&second));
    let stats = get_stats(&server.addr());
    assert!(stats.contains("\"cache_hits\":0"), "{stats}");
    assert!(stats.contains("\"cache_bytes\":0"), "{stats}");
    assert!(server.shutdown().clean());
}
