//! Byte-identity contract of the content-addressed result cache and
//! `POST /analyze/delta`, over real TCP:
//!
//! * a cache hit replays the **exact** bytes of the first response;
//! * a delta answer is byte-identical (modulo `runtime_secs`) to a cold
//!   `POST /analyze` of the edited system, for every edit kind, whether
//!   or not the base was analysed first — and verbatim when the edited
//!   system itself is cached;
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

/// The cache key is the parsed system alone: a deadline cannot change an
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
    // The two presentations hold two entries: neither evicted the other.
    let (_, _, third) = post(&server.addr(), "/analyze", &text);
    let (_, _, fourth) = post(&server.addr(), "/analyze", &renamed);
    assert_eq!((&third, &fourth), (&first, &second));
    let stats = get_stats(&server.addr());
    assert!(stats.contains("\"cache_hits\":2"), "{stats}");
    assert!(stats.contains("\"cache_misses\":2"), "{stats}");
    assert!(server.shutdown().clean());
}

/// A deadline edit over a warm base: the delta endpoint re-analyses the
/// whole edited system (no per-stream splice is attempted) and answers
/// with the body of a cold `/analyze` of it.
#[test]
fn deadline_delta_splices_and_matches_a_cold_run() {
    let base = decoder();
    let edited_text = base.replace("deadline=25", "deadline=24");
    let delta_body = format!("{base}@delta\ndeadline decoder B 24\n");

    let warm = spawn(ServeConfig::default());
    let (s0, _, _) = post(&warm.addr(), "/analyze", &base);
    assert_eq!(s0, 200);
    let (s1, headers, delta_answer) = post(&warm.addr(), "/analyze/delta", &delta_body);
    assert_eq!(s1, 200, "{delta_answer}");
    assert_eq!(
        header(&headers, "x-delta-reuse"),
        Some("reused=0;reanalysed=2;full_fallback=true")
    );

    let cold = spawn(ServeConfig::default());
    let (s2, _, cold_answer) = post(&cold.addr(), "/analyze", &edited_text);
    assert_eq!(s2, 200);
    assert_eq!(
        strip_runtime(&delta_answer),
        strip_runtime(&cold_answer),
        "deadline delta answer diverged from a cold run of the edited system"
    );

    // The cached base was not replayed for the edited system.
    let stats = get_stats(&warm.addr());
    assert!(stats.contains("\"cache_hits\":0"), "{stats}");
    assert!(stats.contains("\"cache_misses\":2"), "{stats}");
    assert!(warm.shutdown().clean());
    assert!(cold.shutdown().clean());
}

/// A WCET edit changes the edited task's rbf: full re-analysis, and the
/// answer is still the body of a cold `/analyze` of the edited system.
#[test]
fn wcet_delta_falls_back_fully_and_matches_a_cold_run() {
    let base = decoder();
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
    assert!(stats.contains("\"cache_misses\":2"), "{stats}");
    assert!(warm.shutdown().clean());
    assert!(cold.shutdown().clean());
}

/// One row per edit kind: the edit script line, and the base text it
/// turns into (the edited system a client would POST to `/analyze`).
fn edit_table(base: &str) -> Vec<(&'static str, String)> {
    let edit = |from: &str, to: &str| {
        assert!(base.contains(from), "decoder.srtw no longer contains {from:?}");
        base.replace(from, to)
    };
    vec![
        ("wcet telemetry t 2", edit("vertex t wcet=1", "vertex t wcet=2")),
        ("deadline decoder B 24", edit("deadline=25", "deadline=24")),
        ("sep decoder B P 16", edit("edge B P sep=15", "edge B P sep=16")),
        (
            "add-edge decoder I P 20",
            edit("edge P I sep=45\n", "edge P I sep=45\nedge I P sep=20\n"),
        ),
        ("del-edge decoder B B", edit("edge B B sep=15\n", "")),
        (
            "server rate-latency rate=1 latency=3",
            edit("latency=2", "latency=3"),
        ),
    ]
}

/// Every edit kind, over a warm base (analysed first on the same server)
/// and a cold one, answers with the body of a cold `/analyze` of the
/// edited system; a repeat of the delta, or a delta onto an edited
/// system `/analyze` already cached, replays the stored bytes verbatim.
#[test]
fn delta_answers_like_a_cold_analyze_of_the_edited_system() {
    let base = decoder();
    let warm = spawn(ServeConfig::default());
    let cold = spawn(ServeConfig::default());
    let reference = spawn(ServeConfig::default());
    let (s0, _, _) = post(&warm.addr(), "/analyze", &base);
    assert_eq!(s0, 200);

    for (script, edited_text) in edit_table(&base) {
        let delta_body = format!("{base}@delta\n{script}\n");
        let (s, _, expected) = post(&reference.addr(), "/analyze", &edited_text);
        assert_eq!(s, 200, "{script}: {expected}");
        for server in [&warm, &cold] {
            let (s, headers, answer) = post(&server.addr(), "/analyze/delta", &delta_body);
            assert_eq!(s, 200, "{script}: {answer}");
            assert_eq!(
                header(&headers, "x-delta-reuse"),
                Some("reused=0;reanalysed=2;full_fallback=true"),
                "{script}"
            );
            assert_eq!(
                strip_runtime(&answer),
                strip_runtime(&expected),
                "{script}: delta answer diverged from a cold run of the edited system"
            );
            // The answer was cached under the edited system's key.
            let (s, headers, again) = post(&server.addr(), "/analyze/delta", &delta_body);
            assert_eq!(s, 200, "{script}: {again}");
            assert_eq!(
                header(&headers, "x-delta-reuse"),
                Some("reused=2;reanalysed=0;full_fallback=false;source=cache"),
                "{script}"
            );
            assert_eq!(again, answer, "{script}: a delta hit must replay verbatim");
        }
        // `/analyze` cached the edited system first: the delta hits it.
        let (s, headers, hit) = post(&reference.addr(), "/analyze/delta", &delta_body);
        assert_eq!(s, 200, "{script}: {hit}");
        assert!(
            header(&headers, "x-delta-reuse").is_some_and(|h| h.ends_with(";source=cache")),
            "{script}: {headers:?}"
        );
        assert_eq!(hit, expected, "{script}: a delta hit must replay verbatim");
    }

    let rows = edit_table(&base).len();
    let stats = get_stats(&warm.addr());
    assert!(stats.contains(&format!("\"cache_hits\":{rows},")), "{stats}");
    assert!(stats.contains(&format!("\"cache_misses\":{},", rows + 1)), "{stats}");
    for server in [warm, cold, reference] {
        assert!(server.shutdown().clean());
    }
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
    // no caching — the delta endpoint degrades on exactly
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

/// `"key":<integer>` out of a `/stats` document.
fn stat(stats: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let at = stats
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} missing: {stats}"))
        + needle.len();
    let digits: String = stats[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().expect("an integer counter")
}

/// The first re-send hits through the parsed route and attaches its
/// bytes to the entry; the next byte-identical re-send is answered from
/// the request index, with the same bytes.
#[test]
fn third_identical_post_is_a_request_index_hit() {
    let text = decoder();
    let server = spawn(ServeConfig::default());
    let (s1, _, first) = post(&server.addr(), "/analyze", &text);
    let inserted = stat(&get_stats(&server.addr()), "cache_bytes");
    let (s2, _, second) = post(&server.addr(), "/analyze", &text);
    let stats = get_stats(&server.addr());
    assert_eq!(stat(&stats, "cache_request_hits"), 0, "{stats}");
    // The attached request counts in the cache's bytes.
    assert!(
        stat(&stats, "cache_bytes") >= inserted + text.len() as u64,
        "{stats}"
    );
    let (s3, _, third) = post(&server.addr(), "/analyze", &text);
    assert_eq!((s1, s2, s3), (200, 200, 200), "{first}");
    assert_eq!(first, second);
    assert_eq!(
        first, third,
        "a request-index hit must replay the original bytes"
    );

    let stats = get_stats(&server.addr());
    assert_eq!(stat(&stats, "cache_hits"), 2, "{stats}");
    assert_eq!(stat(&stats, "cache_request_hits"), 1, "{stats}");
    assert_eq!(stat(&stats, "cache_misses"), 1, "{stats}");
    assert_eq!(stat(&stats, "completed"), 3, "{stats}");
    assert!(server.shutdown().clean());
}

/// The request index runs after the header is validated: a malformed
/// `X-Deadline-Ms` on a body the index holds is still a 400.
#[test]
fn indexed_body_with_a_malformed_deadline_is_still_a_400() {
    let text = decoder();
    let server = spawn(ServeConfig::default());
    for _ in 0..2 {
        let (s, _, body) = post(&server.addr(), "/analyze", &text);
        assert_eq!(s, 200, "{body}");
    }
    let (s, _, body) = client_roundtrip(
        &server.addr(),
        "POST",
        "/analyze",
        &[("X-Deadline-Ms", "soon")],
        text.as_bytes(),
    )
    .expect("round trip");
    assert_eq!(s, 400, "{body}");
    assert!(body.contains("X-Deadline-Ms"), "{body}");
    let stats = get_stats(&server.addr());
    assert_eq!(stat(&stats, "cache_request_hits"), 0, "{stats}");
    assert_eq!(stat(&stats, "failed"), 1, "{stats}");
    // A well-formed one takes the index.
    let (s, _, _) = client_roundtrip(
        &server.addr(),
        "POST",
        "/analyze",
        &[("X-Deadline-Ms", "60000")],
        text.as_bytes(),
    )
    .expect("round trip");
    assert_eq!(s, 200);
    assert_eq!(stat(&get_stats(&server.addr()), "cache_request_hits"), 1);
    assert!(server.shutdown().clean());
}

/// Under a fault plan every request runs the metered analysis: repeats
/// are neither parsed-route nor request-index hits.
#[test]
fn a_fault_plan_never_takes_the_request_index() {
    let text = decoder();
    let server = spawn(ServeConfig {
        fault: Some(FaultPlan::parse("trip@5").unwrap()),
        ..ServeConfig::default()
    });
    for round in 0..3 {
        let (s, _, body) = post(&server.addr(), "/analyze", &text);
        assert_eq!(s, 200, "round {round}: {body}");
        assert!(body.contains("\"degraded\":true"), "round {round}: {body}");
    }
    let stats = get_stats(&server.addr());
    assert_eq!(stat(&stats, "cache_hits"), 0, "{stats}");
    assert_eq!(stat(&stats, "cache_request_hits"), 0, "{stats}");
    assert_eq!(stat(&stats, "degraded"), 3, "{stats}");
    assert!(server.shutdown().clean());
}

/// Other bytes of the same presented system — whitespace, comments, the
/// order of edges leaving different vertices — miss the request index
/// and hit through the parsed route (the key `canonical_form` builds),
/// with the first body verbatim.
#[test]
fn reformatted_resend_hits_through_the_canonical_route() {
    let text = decoder();
    let (edge, last) = ("edge I B sep=15\n", "edge P I sep=45\n");
    for line in [edge, last] {
        assert!(
            text.contains(line),
            "decoder.srtw no longer contains {line:?}"
        );
    }
    let reformatted = format!(
        "# reformatted\n\n{}",
        text.replace(edge, "")
            .replace(last, &format!("{last}  {edge}"))
            .replace(
                "vertex P wcet=6 deadline=35",
                "vertex   P\twcet=6  deadline=35   "
            )
            .replace("task telemetry", "# a comment\ntask telemetry")
    );
    assert_ne!(reformatted, text);
    let server = spawn(ServeConfig::default());
    let (s1, _, first) = post(&server.addr(), "/analyze", &text);
    let (s2, _, second) = post(&server.addr(), "/analyze", &reformatted);
    assert_eq!((s1, s2), (200, 200), "{second}");
    assert_eq!(
        first, second,
        "a parsed-route hit must replay the original bytes"
    );
    let stats = get_stats(&server.addr());
    assert_eq!(stat(&stats, "cache_hits"), 1, "{stats}");
    assert_eq!(stat(&stats, "cache_request_hits"), 0, "{stats}");
    assert_eq!(stat(&stats, "cache_misses"), 1, "{stats}");
    // The reformatted bytes are the ones attached: their re-send takes
    // the index, the original's takes the parsed route again.
    let (_, _, third) = post(&server.addr(), "/analyze", &reformatted);
    let (_, _, fourth) = post(&server.addr(), "/analyze", &text);
    assert_eq!((&third, &fourth), (&first, &first));
    let stats = get_stats(&server.addr());
    assert_eq!(stat(&stats, "cache_hits"), 3, "{stats}");
    assert_eq!(stat(&stats, "cache_request_hits"), 1, "{stats}");
    assert!(server.shutdown().clean());
}

/// A delta hit reads the cache through the edited system's key and
/// attaches nothing: its body is an edit script, not a system.
#[test]
fn delta_hits_never_attach_their_script() {
    let base = decoder();
    let edited_text = base.replace("deadline=25", "deadline=24");
    let delta_body = format!("{base}@delta\ndeadline decoder B 24\n");
    let server = spawn(ServeConfig::default());
    let (s0, _, expected) = post(&server.addr(), "/analyze", &edited_text);
    assert_eq!(s0, 200, "{expected}");
    let inserted = stat(&get_stats(&server.addr()), "cache_bytes");
    for _ in 0..2 {
        let (s, headers, hit) = post(&server.addr(), "/analyze/delta", &delta_body);
        assert_eq!(s, 200, "{hit}");
        assert!(
            header(&headers, "x-delta-reuse").is_some_and(|h| h.ends_with(";source=cache")),
            "{headers:?}"
        );
        assert_eq!(hit, expected);
    }
    let stats = get_stats(&server.addr());
    assert_eq!(stat(&stats, "cache_hits"), 2, "{stats}");
    assert_eq!(stat(&stats, "cache_bytes"), inserted, "{stats}");
    // The script's bytes are not a system: `/analyze` rejects them.
    let (s, _, body) = post(&server.addr(), "/analyze", &delta_body);
    assert_eq!(s, 400, "{body}");
    assert_eq!(stat(&get_stats(&server.addr()), "cache_request_hits"), 0);
    assert!(server.shutdown().clean());
}
