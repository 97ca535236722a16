//! The correctness oracle: every checked response is diffed against an
//! analysis recomputed in-process from the request's system, outside the
//! timed phase.

use crate::workload::{Reference, Req};
use srtw_core::textfmt::parse_system;
use srtw_core::{fifo_structural, AnalysisConfig, DelayAnalysis};
use srtw_serve::fifo_report;
use srtw_supervisor::{AnalysisOutput, Attempt, AttemptStatus, JobOutcome, JobStatus, Rung};
use std::time::Duration;

/// Replaces the value of every wall-clock member (`runtime_secs`,
/// `wall_ms`) with `0`: the only bytes two correct answers may differ in.
pub fn normalize(body: &str) -> String {
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    loop {
        let next = ["\"runtime_secs\":", "\"wall_ms\":"]
            .iter()
            .filter_map(|k| rest.find(k).map(|at| (at, k.len())))
            .min();
        let Some((at, len)) = next else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..at + len]);
        out.push('0');
        rest = &rest[at + len..];
        let end = rest
            .find(|c: char| !(c.is_ascii_digit() || matches!(c, '.' | '-' | '+' | 'e' | 'E')))
            .unwrap_or(rest.len());
        rest = &rest[end..];
    }
}

/// The `POST /analyze` document a cold analysis of `text` produces.
pub fn analysis_document(text: &str) -> String {
    let sys = parse_system(text).expect("benchmark systems parse");
    let beta = sys
        .server
        .expect("benchmark systems declare a server")
        .beta_lower()
        .expect("benchmark servers are valid");
    let report = fifo_report(&sys.tasks, &beta, &AnalysisConfig::default())
        .expect("benchmark systems are stable");
    format!("{}\n", report.to_json())
}

/// The outcome of a batch job whose first (exact) attempt completed with
/// `per`; its wall times are zero, as [`normalize`] makes them.
pub fn exact_job(name: &str, per: Vec<DelayAnalysis>) -> JobOutcome {
    JobOutcome {
        name: name.to_string(),
        status: JobStatus::Exact,
        rung: Some(Rung::Exact),
        attempts: vec![Attempt {
            rung: Rung::Exact,
            status: AttemptStatus::Completed,
            degraded: false,
            wall: Duration::ZERO,
            degradations: Vec::new(),
        }],
        wall: Duration::ZERO,
        output: Some(AnalysisOutput::Structural(per)),
        error: None,
    }
}

/// The `POST /batch` stream a fresh run of `jobs` produces: one exact job
/// line per system, then the summary.
pub fn batch_document(jobs: &[(String, String)]) -> String {
    let mut out = String::new();
    for (name, text) in jobs {
        let sys = parse_system(text).expect("benchmark systems parse");
        let beta = sys
            .server
            .expect("benchmark systems declare a server")
            .beta_lower()
            .expect("benchmark servers are valid");
        let per = fifo_structural(&sys.tasks, &beta, &AnalysisConfig::default())
            .expect("benchmark systems are stable");
        out.push_str(&format!("{}\n", exact_job(name, per).to_json()));
    }
    out.push_str(&format!(
        "{{\"summary\":{{\"total\":{n},\"exact\":{n},\"degraded\":0,\"failed\":0,\"skipped\":0,\"replayed\":0}}}}\n",
        n = jobs.len()
    ));
    out
}

/// The document a correct answer to `req` carries.
pub fn expected(req: &Req) -> String {
    match req.reference.as_deref() {
        None => analysis_document(&req.body),
        Some(Reference::System(text)) => analysis_document(text),
        Some(Reference::Batch(jobs)) => batch_document(jobs),
    }
}

/// Diffs `body` against the oracle; the error names the first difference.
pub fn check(req: &Req, body: &str) -> Result<(), String> {
    let (want, got) = (normalize(&expected(req)), normalize(body));
    if want == got {
        return Ok(());
    }
    let at = want
        .bytes()
        .zip(got.bytes())
        .position(|(a, b)| a != b)
        .unwrap_or(want.len().min(got.len()));
    let window = |s: &str| {
        let lo = s.floor_char_boundary(at.saturating_sub(40));
        let hi = s.ceil_char_boundary((at + 40).min(s.len()));
        s[lo..hi].to_string()
    };
    Err(format!(
        "differs at byte {at}: expected …{}… got …{}…",
        window(&want),
        window(&got)
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_zeroes_wall_clock_members_only() {
        assert_eq!(
            normalize(r#"{"a":1.5,"runtime_secs":0.00123,"b":[{"wall_ms":12.5e-3}],"c":2}"#),
            r#"{"a":1.5,"runtime_secs":0,"b":[{"wall_ms":0}],"c":2}"#
        );
    }

    #[test]
    fn the_oracle_accepts_a_served_answer_and_rejects_a_changed_one() {
        let text = "task t\nvertex a wcet=2 deadline=9\nedge a a sep=8\nserver fluid rate=1\n";
        let server = srtw_serve::Server::spawn(srtw_serve::ServeConfig::default()).unwrap();
        let (status, _, body) = srtw_serve::http::client_roundtrip(
            &server.addr(),
            "POST",
            "/analyze",
            &[],
            text.as_bytes(),
        )
        .unwrap();
        assert_eq!(status, 200);
        let req = crate::workload::Req {
            kind: crate::workload::Kind::Analyze,
            body: text.into(),
            deadline: false,
            expect_hit: false,
            key: None,
            sampled: true,
            reference: None,
        };
        assert_eq!(check(&req, &body), Ok(()));
        assert!(check(
            &req,
            &body.replace("\"degraded\":false", "\"degraded\":true")
        )
        .is_err());
        assert!(server.shutdown().clean());
    }
}
