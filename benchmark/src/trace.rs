//! Per-layer spans, recorded from outside the program.
//!
//! A sampled request gets a `request` span (its client round trip); the
//! client then replays its system in-process, before sending its next
//! request, as child spans around the public function of each layer on the
//! request path. The replays run one after another, so a span's self time
//! is its duration minus the durations of its children (clamped at zero),
//! and the `request` residual — round trip minus its in-process children —
//! is what HTTP, queueing and the cache cost.
//! Requests answered from the cache by design replay their analysis under
//! a separate `replay` root, off the request's path.

use crate::oracle::exact_job;
use crate::workload::{Kind, Reference, Req};
use srtw_core::textfmt::{parse_system, SystemSpec};
use srtw_core::{
    busy_window, busy_window_metered, fifo_rtc_with, fifo_structural, AnalysisConfig, Budget,
    BudgetMeter, DelayAnalysis,
};
use srtw_minplus::Curve;
use srtw_serve::{fifo_report, FifoReport};
use srtw_supervisor::journal::{JournalRecord, JournalWriter};
use srtw_workload::{explore, ExploreConfig, Rbf};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// Calls per replayed span; the span keeps the fastest.
const REPEATS: usize = 5;

/// One recorded span.
struct Span {
    id: usize,
    parent: Option<usize>,
    /// Index of the request in the run's request list.
    req: usize,
    name: &'static str,
    /// Microseconds since the run's epoch.
    start_us: f64,
    dur_us: f64,
    attrs: Vec<(&'static str, f64)>,
}

/// An in-memory span recorder, written out as JSONL when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span that has already happened.
    pub fn record(
        &mut self,
        parent: Option<usize>,
        req: usize,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_us: start.saturating_duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: dur.as_secs_f64() * 1e6,
            attrs: Vec::new(),
        });
        id
    }

    /// Times `f` as a span: the fastest of [`REPEATS`] calls, so
    /// interference from outside the process does not inflate a layer.
    pub fn time<T>(
        &mut self,
        parent: Option<usize>,
        req: usize,
        name: &'static str,
        mut f: impl FnMut() -> T,
    ) -> (T, usize) {
        let first = Instant::now();
        let mut best = Duration::MAX;
        let mut out = None;
        for _ in 0..REPEATS {
            let start = Instant::now();
            out = Some(black_box(f()));
            best = best.min(start.elapsed());
        }
        let id = self.record(parent, req, name, first, best);
        (out.expect("REPEATS is positive"), id)
    }

    /// Appends `other`'s spans, renumbered after this tracer's.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += offset;
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    pub fn attr(&mut self, id: usize, key: &'static str, value: f64) {
        self.spans[id].attrs.push((key, value));
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let attrs: Vec<String> = s
                .attrs
                .iter()
                .map(|(k, v)| format!("\"{k}\":{v}"))
                .collect();
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"req\":{},\"name\":\"{}\",\"start_us\":{},\"dur_us\":{},\"attrs\":{{{}}}}}",
                s.id,
                s.req,
                s.name,
                s.start_us,
                s.dur_us,
                attrs.join(",")
            )?;
        }
        out.flush()
    }

    /// Sum of the durations of each span's direct children.
    fn child_totals(&self) -> Vec<f64> {
        let mut total = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                total[p] += s.dur_us;
            }
        }
        total
    }

    /// Self time of every span (duration minus its children's, ≥ 0),
    /// grouped by span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let children = self.child_totals();
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for s in &self.spans {
            out.entry(s.name)
                .or_default()
                .push((s.dur_us - children[s.id]).max(0.0));
        }
        out
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_us)
            .collect()
    }

    /// Values of attribute `key` over the spans called `name`.
    pub fn attrs(&self, name: &str, key: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .flat_map(|s| s.attrs.iter().filter(|(k, _)| *k == key).map(|(_, v)| *v))
            .collect()
    }

    /// Per `request` span: `(round trip, sum of its in-process children)`.
    pub fn request_residuals(&self) -> Vec<(f64, f64)> {
        let children = self.child_totals();
        self.spans
            .iter()
            .filter(|s| s.name == "request")
            .map(|s| (s.dur_us, children[s.id]))
            .collect()
    }
}

/// A budget that meters every operation but can never trip, so the
/// meter's counters record the work without changing it.
fn headroom() -> Budget {
    Budget::default()
        .with_max_paths(u64::MAX)
        .with_max_segments(u64::MAX)
}

fn server_curve(sys: &SystemSpec) -> Curve {
    sys.server
        .expect("benchmark systems declare a server")
        .beta_lower()
        .expect("benchmark servers are valid")
}

/// `fifo_structural` with its busy window, rbfs and explorations as
/// children.
fn replay_structural(
    tr: &mut Tracer,
    parent: Option<usize>,
    req: usize,
    sys: &SystemSpec,
) -> Vec<DelayAnalysis> {
    let beta = server_curve(sys);
    let tasks = &sys.tasks;
    let cfg = AnalysisConfig::default();
    let (per, sid) = tr.time(parent, req, "analysis.structural", || {
        fifo_structural(tasks, &beta, &cfg).expect("benchmark systems are stable")
    });
    let (bw, bid) = tr.time(Some(sid), req, "busy.window", || {
        busy_window(tasks, &beta).expect("benchmark systems are stable")
    });
    tr.attr(bid, "iterations", bw.iterations as f64);
    let points: usize = bw.rbfs.iter().map(|r| r.points().len()).sum();
    tr.attr(bid, "rbf_points", points as f64);
    // The (min,+) meter's view of the same fixpoint, plus the deviation
    // of each rbf against the service it is bounded by.
    let meter = BudgetMeter::new(&headroom());
    let metered = busy_window_metered(tasks, &beta, &meter).expect("headroom never trips");
    for rbf in &metered.rbfs {
        let _ = rbf.curve().try_hdev(&beta, &meter);
    }
    tr.attr(bid, "meter_paths", meter.paths_used() as f64);
    tr.attr(bid, "meter_segments", meter.segments_used() as f64);
    for task in tasks {
        let (rbf, id) = tr.time(Some(bid), req, "rbf.compute", || {
            Rbf::compute(task, bw.bound)
        });
        tr.attr(id, "points", rbf.points().len() as f64);
    }
    for task in tasks {
        let (ex, id) = tr.time(Some(sid), req, "paths.explore", || {
            explore(task, &ExploreConfig::new(bw.bound))
        });
        tr.attr(id, "generated", ex.generated as f64);
        tr.attr(id, "pruned", ex.pruned as f64);
        tr.attr(id, "retained", ex.nodes().len() as f64);
    }
    per
}

/// `fifo_report` with its structural and RTC halves as children.
fn replay_report(
    tr: &mut Tracer,
    parent: Option<usize>,
    req: usize,
    sys: &SystemSpec,
) -> FifoReport {
    let beta = server_curve(sys);
    let (report, rid) = tr.time(parent, req, "analysis.report", || {
        fifo_report(&sys.tasks, &beta, &AnalysisConfig::default())
            .expect("benchmark systems are stable")
    });
    replay_structural(tr, Some(rid), req, sys);
    tr.time(Some(rid), req, "analysis.rtc", || {
        fifo_rtc_with(&sys.tasks, &beta, &Budget::default()).expect("benchmark systems are stable")
    });
    report
}

fn parse_span(tr: &mut Tracer, parent: usize, req: usize, text: &str) -> SystemSpec {
    let (sys, id) = tr.time(Some(parent), req, "textfmt.parse", || {
        parse_system(text).expect("benchmark systems parse")
    });
    tr.attr(id, "bytes", text.len() as f64);
    sys
}

/// Replays request `index` under its `request` span `rs`. Batch job
/// records are appended (fsync'd) to `journal`.
pub fn replay(tr: &mut Tracer, index: usize, req: &Req, rs: usize, journal: &mut JournalWriter) {
    match req.kind {
        Kind::Analyze | Kind::Delta => {
            // A delta request parses its base and analyses the edited
            // system; an analyze request parses and analyses its body.
            let (parse_text, analysed) = match req.reference.as_deref() {
                Some(Reference::System(edited)) => (
                    req.body
                        .split("@delta\n")
                        .next()
                        .expect("split yields a part"),
                    Some(parse_system(edited).expect("benchmark systems parse")),
                ),
                _ => (&*req.body, None),
            };
            let parsed = parse_span(tr, rs, index, parse_text);
            let sys = analysed.unwrap_or(parsed);
            tr.time(Some(rs), index, "canon.form", || {
                (sys.canonical_form(), sys.presentation_digest())
            });
            let root = req
                .expect_hit
                .then(|| tr.record(None, index, "replay", Instant::now(), Duration::ZERO));
            let parent = root.or(Some(rs));
            let report = replay_report(tr, parent, index, &sys);
            let (body, id) = tr.time(parent, index, "json.render", || report.to_json().render());
            tr.attr(id, "bytes", body.len() as f64);
            if let Some(root) = root {
                // Off the request's path, the root only groups its
                // children: it lasts as long as they do.
                tr.spans[root].dur_us = tr.spans[root..]
                    .iter()
                    .filter(|s| s.parent == Some(root))
                    .map(|s| s.dur_us)
                    .sum();
            }
        }
        Kind::Batch => {
            let Some(Reference::Batch(jobs)) = req.reference.as_deref() else {
                unreachable!("batch requests carry batch references")
            };
            for (name, text) in jobs {
                let sys = parse_span(tr, rs, index, text);
                let per = replay_structural(tr, Some(rs), index, &sys);
                let outcome = exact_job(name, per);
                let (line, id) = tr.time(Some(rs), index, "json.render", || {
                    outcome.to_json().render()
                });
                tr.attr(id, "bytes", line.len() as f64);
                let record = JournalRecord::from_outcome(&outcome);
                tr.time(Some(rs), index, "journal.append", || {
                    journal
                        .append(&record)
                        .expect("append to the trace journal")
                });
            }
        }
    }
}
