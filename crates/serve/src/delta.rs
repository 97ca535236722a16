//! `POST /analyze/delta` — analysis of an edited system.
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
//! This module parses the base, applies the edit script (malformed or
//! inapplicable edits are typed 400s carrying `edit_line`), and hands the
//! edited system to the `/analyze` route — cache lookup and insert
//! included — so the response body is byte-identical (modulo
//! `runtime_secs`) to a cold `POST /analyze` of the edited system. The
//! `X-Delta-Reuse` header says where the body came from:
//! `reused=0;reanalysed=N;full_fallback=true` for a computed answer,
//! `reused=N;reanalysed=0;full_fallback=false;source=cache` for a hit.

use crate::http::{Request, Response};
use crate::server::{
    analyze_system, bad_input, fail, parse_error_response, request_deadline, Shared,
};
use srtw_core::textfmt::{parse_system, ServerSpec, SystemSpec};
use srtw_core::Json;
use srtw_minplus::Q;
use srtw_workload::DrtTaskBuilder;

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
        // A `server` line's words are the server grammar's to judge.
        if kw != "server" && words.next().is_some() {
            return Err(DeltaError::at(lineno, format!("trailing words after {kw}")));
        }
        edits.push(edit);
    }
    if edits.is_empty() {
        return Err(DeltaError::at(1, "edit script declares no edits"));
    }
    Ok(edits)
}

/// Applies `edits` to `base`, rebuilding each touched task through
/// [`DrtTaskBuilder`] (so edited tasks revalidate all model invariants).
pub(crate) fn apply_edits(base: &SystemSpec, edits: &[Edit]) -> Result<SystemSpec, DeltaError> {
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
            Edit::Server(spec) => server = Some(*spec),
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
    Ok(SystemSpec { tasks, server })
}

pub(crate) fn analyze_delta(shared: &Shared, req: &Request) -> Response {
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return bad_input(shared, "request body is not UTF-8", vec![]);
    };
    let Some((base_text, edit_text)) = split_delta(text) else {
        return bad_input(
            shared,
            "delta body needs a '@delta' line separating the base system from the edits",
            vec![],
        );
    };
    let base = match parse_system(base_text) {
        Ok(sys) => sys,
        Err(e) => return fail(shared, parse_error_response(&e)),
    };
    let edited = parse_edits(edit_text)
        .map_err(|e| ("bad edit script", e))
        .and_then(|edits| apply_edits(&base, &edits).map_err(|e| ("edit does not apply", e)));
    let system = match edited {
        Ok(system) => system,
        Err((what, e)) => {
            return bad_input(
                shared,
                &format!("{what}: {}", e.message),
                vec![("edit_line", Json::Int(e.line as i128))],
            )
        }
    };
    let n = system.tasks.len();
    let deadline_ms = match request_deadline(shared, req) {
        Ok(ms) => ms,
        Err(resp) => return resp,
    };
    let (mut resp, cached) = analyze_system(shared, system, deadline_ms, None);
    if resp.status == 200 {
        let reuse = if cached {
            format!("reused={n};reanalysed=0;full_fallback=false;source=cache")
        } else {
            format!("reused=0;reanalysed={n};full_fallback=true")
        };
        resp.headers.push(("X-Delta-Reuse", reuse));
    }
    resp
}
