//! End-to-end robustness coverage of the analysis service over real TCP:
//! deadline propagation (sound degradation within the deadline), fault
//! injection (typed error bodies, correct statuses, a server that keeps
//! serving), load shedding, and the hardened request limits.

use srtw::serve::http::client_roundtrip;
use srtw::serve::{ServeConfig, Server};
use srtw::textfmt::parse_system;
use srtw::{fifo_report, q, AnalysisConfig, FaultPlan, Q};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn spawn(cfg: ServeConfig) -> Server {
    Server::spawn(cfg).expect("bind an ephemeral port")
}

fn post_analyze(addr: &SocketAddr, headers: &[(&str, &str)], body: &str) -> (u16, String) {
    let (status, _, body) =
        client_roundtrip(addr, "POST", "/analyze", headers, body.as_bytes()).expect("round trip");
    (status, body)
}

/// Every `"key":{"num":N,"den":D…}` rational in document order.
fn rationals(doc: &str, key: &str) -> Vec<Q> {
    let needle = format!("\"{key}\":{{\"num\":");
    let mut out = Vec::new();
    let mut rest = doc;
    while let Some(pos) = rest.find(&needle) {
        let tail = &rest[pos + needle.len()..];
        let num_end = tail.find(',').expect("num is followed by den");
        let num: i128 = tail[..num_end].parse().expect("integer numerator");
        let tail = &tail[num_end..];
        let den_start = tail.find("\"den\":").expect("den member") + "\"den\":".len();
        let den_end = den_start
            + tail[den_start..]
                .find(',')
                .expect("den is followed by approx");
        let den: i128 = tail[den_start..den_end].parse().expect("integer denominator");
        out.push(q(num, den));
        rest = &rest[pos + needle.len()..];
    }
    out
}

#[test]
fn deadline_header_degrades_soundly_within_the_deadline() {
    let text = std::fs::read_to_string("systems/adversarial.srtw").expect("shipped system");
    let server = spawn(ServeConfig::default());
    let started = Instant::now();
    let (status, body) = post_analyze(&server.addr(), &[("X-Deadline-Ms", "1500")], &text);
    let elapsed = started.elapsed();
    assert_eq!(status, 200, "{body}");
    assert!(
        body.contains("\"degraded\":true"),
        "an exact run of the adversarial system cannot finish in 1.5s: {body}"
    );
    // The cooperative deadline must actually hold: the trip lands within
    // the deadline, then bounded post-trip work builds the RTC fallback
    // (generous slack for a loaded debug-build CI machine — still far
    // below the exact run's effectively unbounded time).
    assert!(
        elapsed < Duration::from_secs(60),
        "deadline did not bound the request: {elapsed:?}"
    );
    // The wall trip must be recorded as provenance, with real (finite,
    // positive) degraded bounds attached.
    assert!(body.contains("\"exact\":false"), "{body}");
    assert!(!body.contains("\"degradations\":[]"), "{body}");
    let stream_bounds = rationals(&body, "stream_bound");
    assert!(!stream_bounds.is_empty());
    for sb in &stream_bounds {
        assert!(*sb > Q::ZERO, "degenerate degraded bound {sb}");
    }
    assert!(server.shutdown().clean());
}

#[test]
fn injected_trip_fault_sandwiches_between_exact_and_rtc() {
    let text = std::fs::read_to_string("systems/decoder.srtw").expect("shipped system");
    let sys = parse_system(&text).unwrap();
    let beta = sys.server.as_ref().unwrap().beta_lower().unwrap();
    let exact = fifo_report(&sys.tasks, &beta, &AnalysisConfig::default()).unwrap();

    let server = spawn(ServeConfig {
        fault: Some(FaultPlan::parse("trip@5").unwrap()),
        ..Default::default()
    });
    let (status, body) = post_analyze(&server.addr(), &[], &text);
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"degraded\":true"), "{body}");

    let rtc = rationals(&body, "bound")[0];
    let degraded_streams = rationals(&body, "stream_bound");
    assert_eq!(degraded_streams.len(), exact.per.len());
    for (d, e) in degraded_streams.iter().zip(exact.per.iter()) {
        assert!(
            *d >= e.stream_bound,
            "degraded {d} below exact {}",
            e.stream_bound
        );
        assert!(*d <= rtc, "degraded {d} above RTC {rtc}");
    }
    assert!(server.shutdown().clean());
}

#[test]
fn injected_overflow_fault_is_a_typed_500_and_the_server_survives() {
    let text = std::fs::read_to_string("systems/decoder.srtw").expect("shipped system");
    let server = spawn(ServeConfig {
        fault: Some(FaultPlan::parse("overflow@1").unwrap()),
        ..Default::default()
    });
    let (status, body) = post_analyze(&server.addr(), &[], &text);
    assert_eq!(status, 500, "{body}");
    assert!(body.contains("\"code\":3"), "{body}");
    assert!(body.contains("\"kind\":\"internal\""), "{body}");
    let (status, _, _) = client_roundtrip(&server.addr(), "GET", "/healthz", &[], b"").unwrap();
    assert_eq!(status, 200, "the failed request must not poison the server");
    assert!(server.shutdown().clean());
}

#[test]
fn injected_panic_fault_is_contained_to_a_typed_500() {
    let text = std::fs::read_to_string("systems/decoder.srtw").expect("shipped system");
    // One worker: every panic is caught on the worker that ran the
    // analysis, so the same worker must go on serving.
    let server = spawn(ServeConfig {
        workers: 1,
        fault: Some(FaultPlan::parse("panic@1").unwrap()),
        ..Default::default()
    });
    for _ in 0..3 {
        let (status, body) = post_analyze(&server.addr(), &[], &text);
        assert_eq!(status, 500, "{body}");
        assert!(body.contains("\"kind\":\"panic\""), "{body}");
        assert!(body.contains("injected fault"), "{body}");
    }
    for path in ["/healthz", "/stats"] {
        let (status, _, body) = client_roundtrip(&server.addr(), "GET", path, &[], b"").unwrap();
        assert_eq!(status, 200, "{path}: {body:?}");
    }
    let report = server.shutdown();
    assert_eq!(
        (report.respawned, report.abandoned),
        (0, 0),
        "contained panics must neither kill the worker nor leak threads: {report:?}"
    );
}

#[test]
fn full_queue_sheds_with_503_and_retry_after() {
    let adversarial = std::fs::read_to_string("systems/adversarial.srtw").expect("shipped system");
    let server = spawn(ServeConfig {
        workers: 1,
        queue: 1,
        // The blocking request winds down on its own well before drain.
        default_deadline_ms: Some(2_000),
        ..Default::default()
    });
    let addr = server.addr();
    let blocker = {
        let adversarial = adversarial.clone();
        std::thread::spawn(move || post_analyze(&addr, &[], &adversarial))
    };
    // Give the blocker time to occupy the single worker.
    std::thread::sleep(Duration::from_millis(300));
    // Concurrent probes: with the worker busy and a queue of one, at most
    // one probe can be queued — the rest must shed immediately.
    let probes: Vec<_> = (0..6)
        .map(|_| std::thread::spawn(move || client_roundtrip(&addr, "GET", "/healthz", &[], b"")))
        .collect();
    let mut shed = 0;
    for probe in probes {
        let (status, headers, body) = probe.join().unwrap().unwrap();
        match status {
            200 => {}
            503 => {
                shed += 1;
                // The adaptive hint scales with queue depth and observed
                // latency; whatever it computes must be a sane, clamped
                // number of seconds.
                let retry: u64 = headers
                    .iter()
                    .find(|(k, _)| k == "retry-after")
                    .unwrap_or_else(|| panic!("503 without Retry-After: {headers:?}"))
                    .1
                    .parse()
                    .expect("Retry-After is integral seconds");
                assert!((1..=30).contains(&retry), "Retry-After {retry} out of range");
                assert!(body.contains("\"kind\":\"shed\""), "{body}");
            }
            other => panic!("unexpected status {other}: {body}"),
        }
    }
    assert!(
        shed >= 4,
        "one busy worker and a queue of one must shed most of 6 probes, shed only {shed}"
    );
    let (status, body) = blocker.join().unwrap();
    assert_eq!(status, 200, "{body}");
    assert!(body.contains("\"degraded\":true"), "{body}");
    let report = server.shutdown();
    assert_eq!(report.abandoned, 0, "{report:?}");
}

#[test]
fn request_limits_and_parse_errors_are_typed() {
    let server = spawn(ServeConfig::default());
    let addr = server.addr();

    // Oversized body: the textfmt cap, enforced before buffering.
    let huge = "x".repeat(1024 * 1024 + 1);
    let (status, body) = post_analyze(&addr, &[], &huge);
    assert_eq!(status, 413, "{body}");
    assert!(body.contains("\"code\":2"), "{body}");
    assert!(body.contains("\"parse_kind\":\"input_too_large\""), "{body}");

    // Malformed system: 400 with the typed parse kind and span.
    let (status, body) = post_analyze(&addr, &[], "task t\nvertex broken\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("\"kind\":\"input\""), "{body}");
    assert!(body.contains("\"parse_kind\":"), "{body}");
    assert!(body.contains("\"line\":"), "{body}");

    // A system without a server line cannot be analyzed.
    let (status, body) = post_analyze(&addr, &[], "task t\nvertex a wcet=1\nedge a a sep=5\n");
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("declares no server"), "{body}");

    // Bad deadline header.
    let (status, body) = post_analyze(
        &addr,
        &[("X-Deadline-Ms", "soon")],
        "task t\nvertex a wcet=1\nedge a a sep=5\nserver fluid rate=1\n",
    );
    assert_eq!(status, 400, "{body}");
    assert!(body.contains("X-Deadline-Ms"), "{body}");

    assert!(server.shutdown().clean());
}
