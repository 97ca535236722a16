//! `POST /analyze/delta` — incremental re-analysis of an edited system.
//!
//! The body is a base `.srtw` system, a separator line `@delta`, and an
//! edit script, one edit per line:
//!
//! ```text
//! wcet TASK VERTEX Q          # change a vertex's WCET
//! deadline TASK VERTEX Q|none # change or drop a vertex's deadline
//! sep TASK FROM TO Q          # change an edge's separation
//! add-edge TASK FROM TO Q     # add an edge
//! del-edge TASK FROM TO       # remove an edge
//! server KIND key=value …     # swap the service curve
//! ```
//!
//! The response **body** is byte-identical (modulo `runtime_secs`) to a
//! cold `POST /analyze` of the edited system — incrementality is purely
//! an execution strategy, surfaced only in the `X-Delta-Reuse` response
//! header and the `/stats` counters.
//!
//! # The conservative dependency cut
//!
//! In the FIFO analysis a stream's result depends on (a) its own task,
//! (b) the system busy window, and (c) the *other* streams' rbfs over
//! that window. An unedited stream may therefore reuse its cached
//! analysis only when the edit provably left all three unchanged. The
//! cut is decided on the edited system's busy window: the bound and
//! utilization must match the cached base run, and each edited task's
//! rbf staircase must be unchanged over the window (deadline edits are
//! the canonical case: rbf-invariant, so everything but the edited
//! stream replays). The same fixpoint then analyses the edited streams —
//! or every stream when a check fails, and always for a metered request
//! (wall deadline, injected fault, drain cancel), where budget ticks
//! must replay exactly (`delta_full_fallbacks` in `/stats`). Either way
//! a request runs one fixpoint.

use crate::http::{Request, Response};
use crate::report::{fifo_report, FifoReport};
use crate::server::{error_body, parse_error_response, Shared};
use srtw_core::textfmt::{parse_system, ServerSpec, SystemSpec};
use srtw_core::{fifo_analysis, AnalysisConfig, AnalysisError, Json};
use srtw_minplus::{Budget, BudgetMeter, CancelToken, Curve, Q};
use srtw_supervisor::{contain, Contained};
use srtw_workload::{DrtTask, DrtTaskBuilder, Rbf};
use std::sync::atomic::Ordering;

/// One parsed edit line.
#[derive(Debug, Clone)]
pub(crate) enum Edit {
    /// `wcet TASK VERTEX Q`
    Wcet { task: String, vertex: String, value: Q },
    /// `deadline TASK VERTEX Q|none`
    Deadline {
        task: String,
        vertex: String,
        value: Option<Q>,
    },
    /// `sep TASK FROM TO Q`
    Sep {
        task: String,
        from: String,
        to: String,
        value: Q,
    },
    /// `add-edge TASK FROM TO Q`
    AddEdge {
        task: String,
        from: String,
        to: String,
        value: Q,
    },
    /// `del-edge TASK FROM TO`
    DelEdge {
        task: String,
        from: String,
        to: String,
    },
    /// `server KIND key=value …`
    Server(ServerSpec),
}

/// An edit-script error with the 1-based line it points at (within the
/// edit section, after the `@delta` separator).
#[derive(Debug)]
pub(crate) struct DeltaError {
    pub line: usize,
    pub message: String,
}

impl DeltaError {
    fn at(line: usize, message: impl Into<String>) -> DeltaError {
        DeltaError {
            line,
            message: message.into(),
        }
    }
}

/// Splits a delta body at the first line consisting of `@delta`.
pub(crate) fn split_delta(text: &str) -> Option<(&str, &str)> {
    let mut offset = 0;
    for line in text.split_inclusive('\n') {
        if line.trim_end_matches(['\r', '\n']) == "@delta" {
            return Some((&text[..offset], &text[offset + line.len()..]));
        }
        offset += line.len();
    }
    None
}

/// Parses the edit section (one edit per non-empty, non-`#` line).
pub(crate) fn parse_edits(text: &str) -> Result<Vec<Edit>, DeltaError> {
    let mut edits = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut words = line.split_whitespace();
        let kw = words.next().expect("non-empty line has a word");
        let mut need = |what: &str| {
            words
                .next()
                .map(str::to_string)
                .ok_or_else(|| DeltaError::at(lineno, format!("{kw} needs {what}")))
        };
        let parse_q = |s: &str| {
            s.parse::<Q>()
                .map_err(|_| DeltaError::at(lineno, format!("invalid rational '{s}'")))
        };
        let edit = match kw {
            "wcet" => {
                let (task, vertex, v) = (need("a task")?, need("a vertex")?, need("a value")?);
                Edit::Wcet {
                    task,
                    vertex,
                    value: parse_q(&v)?,
                }
            }
            "deadline" => {
                let (task, vertex, v) = (need("a task")?, need("a vertex")?, need("a value")?);
                Edit::Deadline {
                    task,
                    vertex,
                    value: if v == "none" { None } else { Some(parse_q(&v)?) },
                }
            }
            "sep" | "add-edge" => {
                let (task, from, to, v) = (
                    need("a task")?,
                    need("a source vertex")?,
                    need("a target vertex")?,
                    need("a separation")?,
                );
                let value = parse_q(&v)?;
                if kw == "sep" {
                    Edit::Sep {
                        task,
                        from,
                        to,
                        value,
                    }
                } else {
                    Edit::AddEdge {
                        task,
                        from,
                        to,
                        value,
                    }
                }
            }
            "del-edge" => Edit::DelEdge {
                task: need("a task")?,
                from: need("a source vertex")?,
                to: need("a target vertex")?,
            },
            "server" => {
                // Reuse the system grammar's server parser by wrapping
                // the line in a minimal synthetic system.
                let synthetic = format!("task _delta\nvertex _v wcet=1\n{line}\n");
                let spec = parse_system(&synthetic)
                    .map_err(|e| DeltaError::at(lineno, e.message))?;
                Edit::Server(spec.server.expect("synthetic system declares a server"))
            }
            other => {
                return Err(DeltaError::at(
                    lineno,
                    format!("unknown edit keyword '{other}'"),
                ))
            }
        };
        if words.next().is_some() {
            return Err(DeltaError::at(lineno, format!("trailing words after {kw}")));
        }
        edits.push(edit);
    }
    if edits.is_empty() {
        return Err(DeltaError::at(1, "edit script declares no edits"));
    }
    Ok(edits)
}

/// The result of applying an edit script to a parsed base system.
pub(crate) struct AppliedDelta {
    /// The edited system.
    pub system: SystemSpec,
    /// Sorted, deduplicated indices of tasks an edit touched.
    pub edited_tasks: Vec<usize>,
    /// `true` when a `server` edit changed the service curve.
    pub server_changed: bool,
}

/// Applies `edits` to `base`, rebuilding each touched task through
/// [`DrtTaskBuilder`] (so edited tasks revalidate all model invariants).
pub(crate) fn apply_edits(base: &SystemSpec, edits: &[Edit]) -> Result<AppliedDelta, DeltaError> {
    // Mutable task representation: (label, wcet, deadline) + edge list.
    struct Draft {
        vertices: Vec<(String, Q, Option<Q>)>,
        edges: Vec<(usize, usize, Q)>,
    }
    let mut drafts: Vec<Draft> = base
        .tasks
        .iter()
        .map(|t| Draft {
            vertices: t
                .vertex_ids()
                .map(|v| (t.vertex(v).label.clone(), t.wcet(v), t.deadline(v)))
                .collect(),
            edges: t
                .vertex_ids()
                .flat_map(|v| {
                    t.out_edges(v)
                        .iter()
                        .map(move |e| (v.index(), e.to.index(), e.separation))
                })
                .collect(),
        })
        .collect();

    let mut edited_tasks = Vec::new();
    let mut server = base.server;
    let mut server_changed = false;

    for (i, edit) in edits.iter().enumerate() {
        let lineno = i + 1;
        let find_task = |name: &str| {
            base.tasks
                .iter()
                .position(|t| t.name() == name)
                .ok_or_else(|| DeltaError::at(lineno, format!("unknown task '{name}'")))
        };
        let find_vertex = |draft: &Draft, label: &str| {
            draft
                .vertices
                .iter()
                .position(|(l, _, _)| l == label)
                .ok_or_else(|| DeltaError::at(lineno, format!("unknown vertex '{label}'")))
        };
        match edit {
            Edit::Wcet {
                task,
                vertex,
                value,
            } => {
                let t = find_task(task)?;
                let v = find_vertex(&drafts[t], vertex)?;
                drafts[t].vertices[v].1 = *value;
                edited_tasks.push(t);
            }
            Edit::Deadline {
                task,
                vertex,
                value,
            } => {
                let t = find_task(task)?;
                let v = find_vertex(&drafts[t], vertex)?;
                drafts[t].vertices[v].2 = *value;
                edited_tasks.push(t);
            }
            Edit::Sep {
                task,
                from,
                to,
                value,
            } => {
                let t = find_task(task)?;
                let f = find_vertex(&drafts[t], from)?;
                let to_i = find_vertex(&drafts[t], to)?;
                let edge = drafts[t]
                    .edges
                    .iter_mut()
                    .find(|(ef, et, _)| *ef == f && *et == to_i)
                    .ok_or_else(|| DeltaError::at(lineno, format!("no edge {from} -> {to}")))?;
                edge.2 = *value;
                edited_tasks.push(t);
            }
            Edit::AddEdge {
                task,
                from,
                to,
                value,
            } => {
                let t = find_task(task)?;
                let f = find_vertex(&drafts[t], from)?;
                let to_i = find_vertex(&drafts[t], to)?;
                if drafts[t].edges.iter().any(|(ef, et, _)| *ef == f && *et == to_i) {
                    return Err(DeltaError::at(
                        lineno,
                        format!("edge {from} -> {to} already exists"),
                    ));
                }
                drafts[t].edges.push((f, to_i, *value));
                edited_tasks.push(t);
            }
            Edit::DelEdge { task, from, to } => {
                let t = find_task(task)?;
                let f = find_vertex(&drafts[t], from)?;
                let to_i = find_vertex(&drafts[t], to)?;
                let before = drafts[t].edges.len();
                drafts[t].edges.retain(|(ef, et, _)| !(*ef == f && *et == to_i));
                if drafts[t].edges.len() == before {
                    return Err(DeltaError::at(lineno, format!("no edge {from} -> {to}")));
                }
                edited_tasks.push(t);
            }
            Edit::Server(spec) => {
                server_changed = server_changed || server != Some(*spec);
                server = Some(*spec);
            }
        }
    }
    edited_tasks.sort_unstable();
    edited_tasks.dedup();

    // Rebuild edited tasks only; untouched tasks are shared as-is,
    // byte-for-byte identical to the base parse.
    let mut tasks = base.tasks.clone();
    for &t in &edited_tasks {
        let draft = &drafts[t];
        let mut b = DrtTaskBuilder::new(base.tasks[t].name());
        let ids: Vec<_> = draft
            .vertices
            .iter()
            .map(|(label, wcet, deadline)| match deadline {
                Some(d) => b.vertex_with_deadline(label.clone(), *wcet, *d),
                None => b.vertex(label.clone(), *wcet),
            })
            .collect();
        for &(f, to, sep) in &draft.edges {
            b.edge(ids[f], ids[to], sep);
        }
        tasks[t] = b
            .build()
            .map_err(|e| DeltaError::at(1, format!("edited task is invalid: {e}")))?;
    }
    Ok(AppliedDelta {
        system: SystemSpec { tasks, server },
        edited_tasks,
        server_changed,
    })
}

/// `true` when two exact rbfs bound the same staircase over the same
/// horizon (`PartialEq` would also compare their unused coarse tails).
fn rbf_equal(a: &Rbf, b: &Rbf) -> bool {
    a.truncated().is_none()
        && b.truncated().is_none()
        && a.horizon() == b.horizon()
        && a.points() == b.points()
}

/// What the contained delta computation produced.
struct DeltaOutcome {
    report: FifoReport,
    /// Streams spliced from the cached base report.
    reused: usize,
    /// Streams re-analysed this request.
    reanalysed: usize,
    /// `true` when the conservative cut could not prove reuse safe and
    /// every stream was re-analysed.
    full_fallback: bool,
}

fn run_delta_with_base_tasks(
    system: &SystemSpec,
    base_tasks: &[DrtTask],
    beta: &Curve,
    cfg: &AnalysisConfig,
    base_report: Option<&FifoReport>,
    edited: &[usize],
    server_changed: bool,
) -> Result<DeltaOutcome, AnalysisError> {
    let n = system.tasks.len();
    let base = base_report.filter(|base| {
        !server_changed && base.per.len() == n && !edited.is_empty() && edited.len() < n
    });

    // Conservative cut, decided on the edited system's busy window:
    // unedited streams may be spliced from the base report only when
    // their analysis inputs provably match — same busy window, same
    // utilization, and unchanged rbf staircases for every edited task
    // over that window. The one fixpoint then analyses the edited
    // streams, or every stream when the cut fails.
    let mut cut_safe = false;
    let (per, rtc) = fifo_analysis(&system.tasks, beta, cfg, |bw| {
        cut_safe = base.is_some_and(|base| {
            let anchor = &base.per[0];
            bw.bound == anchor.busy_window
                && bw.utilization == anchor.utilization
                && edited.iter().all(|&i| {
                    let meter = BudgetMeter::new(&cfg.budget);
                    let base_rbf = Rbf::compute_metered(&base_tasks[i], bw.bound, &meter);
                    rbf_equal(&bw.rbfs[i], &base_rbf)
                })
        });
        if cut_safe {
            edited.to_vec()
        } else {
            (0..n).collect()
        }
    })?;
    let Some(base) = base.filter(|_| cut_safe) else {
        return Ok(DeltaOutcome {
            report: FifoReport { per, rtc },
            reused: 0,
            reanalysed: n,
            full_fallback: true,
        });
    };

    // Splice: unedited streams from the cached base run, edited streams
    // and the baseline (which depends on the edited tasks' rbfs) from the
    // re-analysis of the edited system.
    let mut spliced = base.per.clone();
    for (a, &i) in per.into_iter().zip(edited) {
        spliced[i] = a;
    }
    Ok(DeltaOutcome {
        report: FifoReport { per: spliced, rtc },
        reused: n - edited.len(),
        reanalysed: edited.len(),
        full_fallback: false,
    })
}

pub(crate) fn analyze_delta(shared: &Shared, req: &Request) -> Response {
    let fail = |shared: &Shared, resp: Response| {
        shared.stats.failed.fetch_add(1, Ordering::Relaxed);
        resp
    };
    let bad = |shared: &Shared, message: &str, extra: Vec<(&str, Json)>| {
        fail(
            shared,
            Response::json(400, error_body(2, "input", message, extra)),
        )
    };

    let Ok(text) = std::str::from_utf8(&req.body) else {
        return bad(shared, "request body is not UTF-8", vec![]);
    };
    let deadline_ms = match req.header("x-deadline-ms") {
        None => shared.cfg.default_deadline_ms,
        Some(v) => match v.parse::<u64>() {
            Ok(ms) => Some(ms),
            Err(_) => {
                return bad(
                    shared,
                    &format!("bad X-Deadline-Ms '{v}': expected milliseconds"),
                    vec![],
                )
            }
        },
    };
    let Some((base_text, edit_text)) = split_delta(text) else {
        return bad(
            shared,
            "delta body needs a '@delta' line separating the base system from the edits",
            vec![],
        );
    };
    let base_sys = match parse_system(base_text) {
        Ok(sys) => sys,
        Err(e) => return fail(shared, parse_error_response(&e)),
    };
    let edits = match parse_edits(edit_text) {
        Ok(edits) => edits,
        Err(e) => {
            return bad(
                shared,
                &format!("bad edit script: {}", e.message),
                vec![("edit_line", Json::Int(e.line as i128))],
            )
        }
    };
    let applied = match apply_edits(&base_sys, &edits) {
        Ok(applied) => applied,
        Err(e) => {
            return bad(
                shared,
                &format!("edit does not apply: {}", e.message),
                vec![("edit_line", Json::Int(e.line as i128))],
            )
        }
    };
    let system = applied.system;
    let beta = match &system.server {
        None => {
            return bad(
                shared,
                "the edited system declares no server (add a 'server …' line or edit)",
                vec![],
            )
        }
        Some(s) => match s.beta_lower() {
            Ok(beta) => beta,
            Err(e) => return fail(shared, parse_error_response(&e)),
        },
    };

    let form = system.canonical_form();
    let presentation = system.presentation_digest();
    let canon = form.hash();
    let cacheable = shared.cfg.fault.is_none();

    // Fast path: the edited system itself is already cached.
    if cacheable {
        if let Some(hit) = shared.cache.lookup(canon, &form, presentation) {
            shared.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
            shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            let n = system.tasks.len();
            let mut resp = Response::json(200, hit.body);
            resp.headers.push((
                "X-Delta-Reuse",
                format!("reused={n};reanalysed=0;full_fallback=false;source=cache"),
            ));
            return resp;
        }
        shared.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    let token = CancelToken::new();
    let hard_cancel = shared.hard_cancel.load(Ordering::Relaxed);
    if hard_cancel {
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

    // Metered requests (wall deadline, injected fault, drain cancel) run
    // the fully cold path: budget ticks must land on the same operations
    // as a cold `/analyze` of the edited system, so no splicing. That
    // *is* the full fallback.
    let metered = deadline_ms.is_some() || shared.cfg.fault.is_some() || hard_cancel;

    let base_hit = if cacheable && !metered {
        let base_form = base_sys.canonical_form();
        shared
            .cache
            .lookup(base_form.hash(), &base_form, base_sys.presentation_digest())
    } else {
        None
    };

    let contained = {
        let tasks_base = base_sys.tasks.clone();
        let system = SystemSpec {
            tasks: system.tasks.clone(),
            server: system.server,
        };
        let beta = beta.clone();
        let cfg = cfg.clone();
        let edited = applied.edited_tasks.clone();
        let server_changed = applied.server_changed;
        // A warm-loaded base entry has a verbatim body but no structured
        // report; splicing then falls back to a full recompute, which is
        // byte-identical by construction.
        let base_report = base_hit.as_ref().and_then(|h| h.report.clone());
        contain(
            "srtw-serve-delta",
            None,
            shared.cfg.grace,
            &token,
            move || {
                if metered {
                    return fifo_report(&system.tasks, &beta, &cfg).map(|report| DeltaOutcome {
                        reused: 0,
                        reanalysed: system.tasks.len(),
                        full_fallback: true,
                        report,
                    });
                }
                run_delta_with_base_tasks(
                    &system,
                    &tasks_base,
                    &beta,
                    &cfg,
                    base_report.as_ref(),
                    &edited,
                    server_changed,
                )
            },
        )
    };
    shared.unregister(&token);

    match contained {
        Contained::Completed(Ok(outcome)) => {
            if outcome.full_fallback {
                shared
                    .stats
                    .delta_full_fallbacks
                    .fetch_add(1, Ordering::Relaxed);
            }
            if outcome.report.degraded() {
                shared.stats.degraded.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.stats.completed.fetch_add(1, Ordering::Relaxed);
            }
            let body = format!("{}\n", outcome.report.to_json());
            if !metered && cacheable && !outcome.report.degraded() {
                shared.cache_insert(canon, form, presentation, &body, outcome.report.clone());
            }
            let mut resp = Response::json(200, body);
            resp.headers.push((
                "X-Delta-Reuse",
                format!(
                    "reused={};reanalysed={};full_fallback={}",
                    outcome.reused, outcome.reanalysed, outcome.full_fallback
                ),
            ));
            resp
        }
        Contained::Completed(Err(e)) => fail(
            shared,
            Response::json(500, error_body(3, "internal", &e.to_string(), vec![])),
        ),
        Contained::Panicked { message } => fail(
            shared,
            Response::json(
                500,
                error_body(3, "panic", &format!("analysis panicked: {message}"), vec![]),
            ),
        ),
        Contained::HardTimeout => fail(
            shared,
            Response::json(
                500,
                error_body(
                    3,
                    "internal",
                    "hard timeout: request abandoned by the watchdog",
                    vec![],
                ),
            ),
        ),
        Contained::SpawnFailed => fail(
            shared,
            Response::json(500, error_body(3, "internal", "could not spawn the analysis thread", vec![])),
        ),
    }
}
