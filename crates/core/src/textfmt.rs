//! A small line-based text format for task systems, used by the `srtw`
//! command-line tool and handy for examples and tests.
//!
//! # Format
//!
//! ```text
//! # comments start with '#'; blank lines are ignored
//! task decoder
//! vertex I wcet=12 deadline=60
//! vertex P wcet=6  deadline=35
//! edge I P sep=15
//! edge P I sep=45
//!
//! task telemetry
//! vertex t wcet=1
//! edge t t sep=25
//!
//! server rate-latency rate=1 latency=2
//! ```
//!
//! * `task NAME` starts a new task; the following `vertex`/`edge` lines
//!   belong to it.
//! * `vertex NAME wcet=Q [deadline=Q]` declares a job type. Numbers are
//!   exact rationals: `12`, `3/4`.
//! * `edge FROM TO sep=Q` declares a minimum inter-release separation.
//! * `server KIND key=value…` (at most one) declares the resource:
//!   `rate-latency rate=Q latency=Q`, `fluid rate=Q`,
//!   `tdma slot=Q cycle=Q capacity=Q`, or
//!   `periodic-resource period=Q budget=Q`.
//!
//! # Hardening
//!
//! The parser is built to face untrusted input (the `srtw batch` queue may
//! point at arbitrary files): it never panics, enforces explicit caps
//! ([`MAX_INPUT_BYTES`], [`MAX_TASKS`], [`MAX_VERTICES`], [`MAX_EDGES`])
//! with typed [`ParseErrorKind`]s, and every error carries a 1-based
//! line/column span pointing at the offending token.

use srtw_minplus::{Curve, Q};
use srtw_resource::{PeriodicResource, RateLatencyServer, Server, TdmaServer};
use srtw_workload::{DrtTask, DrtTaskBuilder, VertexId};
use std::collections::hash_map::{Entry, HashMap};
use std::fmt;

/// Maximum accepted input size in bytes (1 MiB).
pub const MAX_INPUT_BYTES: usize = 1 << 20;
/// Maximum number of tasks per system.
pub const MAX_TASKS: usize = 256;
/// Maximum number of vertices per task.
pub const MAX_VERTICES: usize = 4_096;
/// Maximum number of edges per task.
pub const MAX_EDGES: usize = 16_384;

/// A parsed system: tasks plus an optional server declaration.
#[derive(Debug, Clone)]
pub struct SystemSpec {
    /// The parsed tasks, in file order.
    pub tasks: Vec<DrtTask>,
    /// The declared server, if any.
    pub server: Option<ServerSpec>,
}

/// A server declaration from a system file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServerSpec {
    /// `rate-latency rate=Q latency=Q`
    RateLatency {
        /// Guaranteed rate.
        rate: Q,
        /// Worst-case initial latency.
        latency: Q,
    },
    /// `fluid rate=Q`
    Fluid {
        /// Constant service rate.
        rate: Q,
    },
    /// `tdma slot=Q cycle=Q capacity=Q`
    Tdma {
        /// Slot length.
        slot: Q,
        /// Cycle length.
        cycle: Q,
        /// Underlying resource rate.
        capacity: Q,
    },
    /// `periodic-resource period=Q budget=Q`
    PeriodicResource {
        /// Replenishment period Π.
        period: Q,
        /// Budget Θ per period.
        budget: Q,
    },
}

impl ServerSpec {
    /// The lower service curve of the declared server.
    pub fn beta_lower(&self) -> Result<Curve, ParseError> {
        let invalid = |what: &'static str| ParseError {
            kind: ParseErrorKind::InvalidServer,
            line: 1,
            column: 1,
            message: format!("invalid server parameters: {what}"),
        };
        Ok(match *self {
            ServerSpec::RateLatency { rate, latency } => RateLatencyServer::new(rate, latency)
                .map_err(|_| invalid("rate-latency"))?
                .beta_lower(),
            ServerSpec::Fluid { rate } => {
                if !rate.is_positive() {
                    return Err(invalid("fluid rate must be positive"));
                }
                Curve::affine(Q::ZERO, rate)
            }
            ServerSpec::Tdma {
                slot,
                cycle,
                capacity,
            } => TdmaServer::new(slot, cycle, capacity)
                .map_err(|_| invalid("tdma"))?
                .beta_lower(),
            ServerSpec::PeriodicResource { period, budget } => {
                PeriodicResource::new(period, budget)
                    .map_err(|_| invalid("periodic-resource"))?
                    .beta_lower()
            }
        })
    }

    /// The server declaration as presentation-code lanes: a variant tag,
    /// then every parameter in declaration order.
    fn canon_lanes(&self, code: &mut Vec<u64>) {
        match *self {
            ServerSpec::RateLatency { rate, latency } => {
                code.push(1);
                push_q(code, rate);
                push_q(code, latency);
            }
            ServerSpec::Fluid { rate } => {
                code.push(2);
                push_q(code, rate);
            }
            ServerSpec::Tdma {
                slot,
                cycle,
                capacity,
            } => {
                code.push(3);
                push_q(code, slot);
                push_q(code, cycle);
                push_q(code, capacity);
            }
            ServerSpec::PeriodicResource { period, budget } => {
                code.push(4);
                push_q(code, period);
                push_q(code, budget);
            }
        }
    }
}

/// Appends an exact rational: its reduced numerator, then its
/// denominator, each as two `u64` halves.
fn push_q(code: &mut Vec<u64>, q: Q) {
    for v in [q.numer(), q.denom()] {
        code.push(v as u64);
        code.push((v >> 64) as u64);
    }
}

/// Appends a string: its byte length, then its bytes eight to a lane.
fn push_bytes(code: &mut Vec<u64>, bytes: &[u8]) {
    code.push(bytes.len() as u64);
    for chunk in bytes.chunks(8) {
        let mut lane = [0u8; 8];
        lane[..chunk.len()].copy_from_slice(chunk);
        code.push(u64::from_le_bytes(lane));
    }
}

/// SplitMix64 finalizer. `std::hash` is not stable across releases, and
/// cache keys outlive a process in the spill store.
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Two-lane hasher over `u64` lanes with a 128-bit digest, deterministic
/// across platforms and releases.
struct StructHasher {
    lo: u64,
    hi: u64,
    count: u64,
}

impl StructHasher {
    fn new(tag: u64) -> StructHasher {
        StructHasher {
            lo: mix64(tag ^ 0x5274_775f_6c6f_0001),
            hi: mix64(tag ^ 0x5274_775f_6869_0002),
            count: 0,
        }
    }

    fn absorb(&mut self, v: u64) {
        self.count = self.count.wrapping_add(1);
        self.lo = mix64(self.lo ^ v);
        self.hi = mix64(self.hi.rotate_left(17) ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    }

    fn finish(&self) -> u128 {
        let a = mix64(self.lo ^ self.count);
        let b = mix64(self.hi ^ self.count.rotate_left(32));
        ((a as u128) << 64) | b as u128
    }
}

/// A parsed system as `u64` lanes in presentation order (see
/// [`SystemSpec::canonical_form`]). Two codes are equal exactly when the
/// systems are presented alike: same tasks in the same order, same names
/// and labels, same numbers. The result cache keys on [`Self::hash`] and
/// compares the code in full on a hit, so a hash collision is a miss.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PresentationCode {
    code: Vec<u64>,
}

impl PresentationCode {
    /// Rebuilds a code from its lanes, e.g. from a spilled cache entry.
    /// [`Self::hash`] is recomputed from the lanes, so a caller that
    /// checks it against a stored key turns a corrupt record into a
    /// miss.
    pub fn from_code(code: Vec<u64>) -> PresentationCode {
        PresentationCode { code }
    }

    /// The code lanes.
    pub fn code(&self) -> &[u64] {
        &self.code
    }

    /// Approximate heap size of this code in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.code.len() * 8 + std::mem::size_of::<PresentationCode>()
    }

    /// The stable 128-bit hash of the lanes: the cache key.
    pub fn hash(&self) -> u128 {
        let mut h = StructHasher::new(0xca40_4f4e);
        for &lane in &self.code {
            h.absorb(lane);
        }
        h.finish()
    }
}

impl SystemSpec {
    /// The system's presentation code, built in one pass: the task
    /// count; per task its name and vertex count; per vertex, in order,
    /// its label, WCET, deadline (tagged present or absent) and its
    /// out-edges in order as (target index, separation); then the server
    /// (tagged present or absent). Strings are length-prefixed and every
    /// `Q` is its numerator and denominator, so the encoding is
    /// injective.
    ///
    /// The rendered report names every task and vertex, so a cached body
    /// can only be replayed to a request presented alike: this code is
    /// the whole cache identity. The name is kept from the
    /// isomorphism-invariant form it replaced, for callers outside this
    /// workspace.
    pub fn canonical_form(&self) -> PresentationCode {
        let mut code = vec![self.tasks.len() as u64];
        for task in &self.tasks {
            push_bytes(&mut code, task.name().as_bytes());
            code.push(task.num_vertices() as u64);
            for v in task.vertex_ids() {
                push_bytes(&mut code, task.vertex(v).label.as_bytes());
                push_q(&mut code, task.wcet(v));
                match task.deadline(v) {
                    Some(d) => {
                        code.push(1);
                        push_q(&mut code, d);
                    }
                    None => code.push(0),
                }
                code.push(task.out_edges(v).len() as u64);
                for e in task.out_edges(v) {
                    code.push(e.to.index() as u64);
                    push_q(&mut code, e.separation);
                }
            }
        }
        match &self.server {
            Some(s) => {
                code.push(1);
                s.canon_lanes(&mut code);
            }
            None => code.push(0),
        }
        // The cache keeps the code: drop the growth slack (in place).
        code.shrink_to_fit();
        PresentationCode { code }
    }

    /// The cache key: the hash of [`Self::canonical_form`].
    pub fn presentation_digest(&self) -> u128 {
        self.canonical_form().hash()
    }
}

/// What class of defect a [`ParseError`] reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParseErrorKind {
    /// The input exceeds [`MAX_INPUT_BYTES`].
    InputTooLarge,
    /// A structural cap ([`MAX_TASKS`], [`MAX_VERTICES`], [`MAX_EDGES`])
    /// was exceeded.
    CapExceeded,
    /// A keyword the grammar does not know.
    UnknownKeyword,
    /// A `vertex`/`edge` line outside any `task` block.
    OutsideTask,
    /// A required argument or `key=` pair is missing.
    Missing,
    /// A malformed value (not `key=value`, or not a rational).
    BadValue,
    /// A duplicate name, key, or server declaration.
    Duplicate,
    /// An edge endpoint naming no declared vertex.
    UnknownVertex,
    /// The assembled task graph was rejected by the task builder.
    InvalidTask,
    /// The server declaration carries invalid parameters.
    InvalidServer,
    /// The input declares no tasks at all.
    Empty,
}

impl ParseErrorKind {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            ParseErrorKind::InputTooLarge => "input_too_large",
            ParseErrorKind::CapExceeded => "cap_exceeded",
            ParseErrorKind::UnknownKeyword => "unknown_keyword",
            ParseErrorKind::OutsideTask => "outside_task",
            ParseErrorKind::Missing => "missing",
            ParseErrorKind::BadValue => "bad_value",
            ParseErrorKind::Duplicate => "duplicate",
            ParseErrorKind::UnknownVertex => "unknown_vertex",
            ParseErrorKind::InvalidTask => "invalid_task",
            ParseErrorKind::InvalidServer => "invalid_server",
            ParseErrorKind::Empty => "empty",
        }
    }
}

/// A parse error with its typed kind and 1-based line/column span.
///
/// Every error produced by [`parse_system`] points at the offending token:
/// `line` and `column` are always ≥ 1 (column counts bytes from the start
/// of the line; errors about a whole line point at its first token, and
/// whole-input errors point at `1:1`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What class of defect this is.
    pub kind: ParseErrorKind,
    /// 1-based line number of the offending token.
    pub line: usize,
    /// 1-based byte column of the offending token within its line.
    pub column: usize,
    /// Human-readable message.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}:{}: {}", self.line, self.column, self.message)
    }
}

impl std::error::Error for ParseError {}

/// A cursor pointing at a token: 1-based line and byte column.
#[derive(Debug, Clone, Copy)]
struct Span {
    line: usize,
    column: usize,
}

impl Span {
    fn error(self, kind: ParseErrorKind, message: impl Into<String>) -> ParseError {
        ParseError {
            kind,
            line: self.line,
            column: self.column,
            message: message.into(),
        }
    }
}

/// Splits a line into whitespace-separated words, each with its 1-based
/// byte column.
fn words_with_spans(line: &str, lineno: usize) -> impl Iterator<Item = (Span, &str)> {
    line.split_whitespace().map(move |w| {
        // `split_whitespace` yields subslices of `line`, so pointer
        // arithmetic recovers the byte offset without re-scanning.
        let column = w.as_ptr() as usize - line.as_ptr() as usize + 1;
        (
            Span {
                line: lineno,
                column,
            },
            w,
        )
    })
}

/// Parses a system description in the text format.
///
/// Never panics, whatever the input; every error carries a typed
/// [`ParseErrorKind`] and a 1-based line/column span.
///
/// # Examples
///
/// ```
/// let text = "
/// task t
/// vertex a wcet=2 deadline=8
/// edge a a sep=5
/// server fluid rate=1
/// ";
/// let sys = srtw_core::textfmt::parse_system(text).unwrap();
/// assert_eq!(sys.tasks.len(), 1);
/// assert!(sys.server.is_some());
///
/// let err = srtw_core::textfmt::parse_system("task t\nvertex a wcet=oops\n").unwrap_err();
/// // The span points at the bad value, just past "vertex a wcet=".
/// assert_eq!((err.line, err.column), (2, 15));
/// ```
pub fn parse_system(text: &str) -> Result<SystemSpec, ParseError> {
    let origin = Span { line: 1, column: 1 };
    if text.len() > MAX_INPUT_BYTES {
        return Err(origin.error(
            ParseErrorKind::InputTooLarge,
            format!(
                "input is {} bytes, the cap is {MAX_INPUT_BYTES}",
                text.len()
            ),
        ));
    }

    struct PendingTask<'a> {
        builder: DrtTaskBuilder,
        /// Vertex names, borrowed from `text`.
        vertices: HashMap<&'a str, VertexId>,
        edges: usize,
        started_at: Span,
    }
    let mut tasks: Vec<DrtTask> = Vec::new();
    let mut server: Option<ServerSpec> = None;
    let mut current: Option<PendingTask> = None;

    let finish = |p: PendingTask, tasks: &mut Vec<DrtTask>| -> Result<(), ParseError> {
        let started = p.started_at;
        let t = p
            .builder
            .build()
            .map_err(|e| started.error(ParseErrorKind::InvalidTask, format!("invalid task: {e}")))?;
        tasks.push(t);
        Ok(())
    };

    for (i, raw) in text.lines().enumerate() {
        let lineno = i + 1;
        let line = raw.split('#').next().unwrap_or("").trim_end();
        let mut words = words_with_spans(line, lineno);
        let Some((kw_span, keyword)) = words.next() else {
            continue;
        };
        match keyword {
            "task" => {
                let (_, name) = words.next().ok_or_else(|| {
                    kw_span.error(ParseErrorKind::Missing, "task needs a name")
                })?;
                if let Some(p) = current.take() {
                    finish(p, &mut tasks)?;
                }
                if tasks.len() + 1 > MAX_TASKS {
                    return Err(kw_span.error(
                        ParseErrorKind::CapExceeded,
                        format!("more than {MAX_TASKS} tasks"),
                    ));
                }
                if tasks.iter().any(|t| t.name() == name) {
                    return Err(
                        kw_span.error(ParseErrorKind::Duplicate, format!("duplicate task '{name}'"))
                    );
                }
                current = Some(PendingTask {
                    builder: DrtTaskBuilder::new(name),
                    vertices: HashMap::new(),
                    edges: 0,
                    started_at: kw_span,
                });
            }
            "vertex" => {
                let p = current.as_mut().ok_or_else(|| {
                    kw_span.error(ParseErrorKind::OutsideTask, "vertex outside of a task")
                })?;
                let (name_span, name) = words.next().ok_or_else(|| {
                    kw_span.error(ParseErrorKind::Missing, "vertex needs a name")
                })?;
                if p.vertices.len() + 1 > MAX_VERTICES {
                    return Err(name_span.error(
                        ParseErrorKind::CapExceeded,
                        format!("more than {MAX_VERTICES} vertices in one task"),
                    ));
                }
                let Entry::Vacant(slot) = p.vertices.entry(name) else {
                    return Err(name_span.error(
                        ParseErrorKind::Duplicate,
                        format!("duplicate vertex '{name}'"),
                    ));
                };
                const KEYS: &[&str] = &["wcet", "deadline"];
                let kv = parse_kv(words, KEYS)?;
                let wcet = need(&kv, KEYS, 0, kw_span)?;
                let id = match kv[1] {
                    Some(d) => p.builder.vertex_with_deadline(name, wcet, d),
                    None => p.builder.vertex(name, wcet),
                };
                slot.insert(id);
            }
            "edge" => {
                let p = current.as_mut().ok_or_else(|| {
                    kw_span.error(ParseErrorKind::OutsideTask, "edge outside of a task")
                })?;
                let (from_span, from) = words.next().ok_or_else(|| {
                    kw_span.error(ParseErrorKind::Missing, "edge needs a source vertex")
                })?;
                let (to_span, to) = words.next().ok_or_else(|| {
                    kw_span.error(ParseErrorKind::Missing, "edge needs a target vertex")
                })?;
                if p.edges + 1 > MAX_EDGES {
                    return Err(kw_span.error(
                        ParseErrorKind::CapExceeded,
                        format!("more than {MAX_EDGES} edges in one task"),
                    ));
                }
                const KEYS: &[&str] = &["sep"];
                let sep = need(&parse_kv(words, KEYS)?, KEYS, 0, kw_span)?;
                let &f = p.vertices.get(from).ok_or_else(|| {
                    from_span.error(ParseErrorKind::UnknownVertex, format!("unknown vertex '{from}'"))
                })?;
                let &t = p.vertices.get(to).ok_or_else(|| {
                    to_span.error(ParseErrorKind::UnknownVertex, format!("unknown vertex '{to}'"))
                })?;
                p.builder.edge(f, t, sep);
                p.edges += 1;
            }
            "server" => {
                if server.is_some() {
                    return Err(
                        kw_span.error(ParseErrorKind::Duplicate, "duplicate server declaration")
                    );
                }
                let (kind_span, kind) = words.next().ok_or_else(|| {
                    kw_span.error(ParseErrorKind::Missing, "server needs a kind")
                })?;
                let keys: &[&str] = match kind {
                    "rate-latency" => &["rate", "latency"],
                    "fluid" => &["rate"],
                    "tdma" => &["slot", "cycle", "capacity"],
                    "periodic-resource" => &["period", "budget"],
                    _ => &[],
                };
                let kv = parse_kv(words, keys)?;
                let value = |i| need(&kv, keys, i, kw_span);
                let spec = match kind {
                    "rate-latency" => ServerSpec::RateLatency {
                        rate: value(0)?,
                        latency: value(1)?,
                    },
                    "fluid" => ServerSpec::Fluid { rate: value(0)? },
                    "tdma" => ServerSpec::Tdma {
                        slot: value(0)?,
                        cycle: value(1)?,
                        capacity: value(2)?,
                    },
                    "periodic-resource" => ServerSpec::PeriodicResource {
                        period: value(0)?,
                        budget: value(1)?,
                    },
                    other => {
                        return Err(kind_span.error(
                            ParseErrorKind::UnknownKeyword,
                            format!("unknown server kind '{other}'"),
                        ))
                    }
                };
                // Validate parameters at the declaration site so the error
                // points here, not at whatever later consumes the curve.
                spec.beta_lower().map_err(|e| ParseError {
                    kind: ParseErrorKind::InvalidServer,
                    line: kw_span.line,
                    column: kw_span.column,
                    message: e.message,
                })?;
                server = Some(spec);
            }
            other => {
                return Err(kw_span.error(
                    ParseErrorKind::UnknownKeyword,
                    format!("unknown keyword '{other}'"),
                ));
            }
        }
    }
    if let Some(p) = current.take() {
        finish(p, &mut tasks)?;
    }
    if tasks.is_empty() {
        return Err(origin.error(ParseErrorKind::Empty, "no tasks declared"));
    }
    Ok(SystemSpec { tasks, server })
}

/// Parses the trailing `key=value` pairs of a line into one slot per
/// known key, `slots[i]` for `keys[i]` (at most three). Other keys are
/// checked like known ones (a rational value, no repeats) and dropped.
fn parse_kv<'a>(
    words: impl Iterator<Item = (Span, &'a str)>,
    keys: &[&str],
) -> Result<[Option<Q>; 3], ParseError> {
    let mut slots = [None; 3];
    let mut others: Vec<&str> = Vec::new();
    for (span, w) in words {
        let (k, v) = w.split_once('=').ok_or_else(|| {
            span.error(ParseErrorKind::BadValue, format!("expected key=value, found '{w}'"))
        })?;
        let value_span = Span {
            line: span.line,
            column: span.column + k.len() + 1,
        };
        let value: Q = v.parse().map_err(|_| {
            value_span.error(
                ParseErrorKind::BadValue,
                format!("invalid rational '{v}' for '{k}'"),
            )
        })?;
        let repeated = match keys.iter().position(|&key| key == k) {
            Some(i) => slots[i].replace(value).is_some(),
            None if others.contains(&k) => true,
            None => {
                others.push(k);
                false
            }
        };
        if repeated {
            return Err(span.error(ParseErrorKind::Duplicate, format!("duplicate key '{k}'")));
        }
    }
    Ok(slots)
}

/// The value of required key `keys[i]`.
fn need(slots: &[Option<Q>; 3], keys: &[&str], i: usize, line_span: Span) -> Result<Q, ParseError> {
    slots[i].ok_or_else(|| {
        line_span.error(
            ParseErrorKind::Missing,
            format!("missing required '{}='", keys[i]),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtw_minplus::q;

    const GOOD: &str = "
# a decoder and a telemetry stream
task decoder
vertex I wcet=12 deadline=60
vertex P wcet=6 deadline=35
edge I P sep=15
edge P I sep=45

task telemetry
vertex t wcet=1/2
edge t t sep=25

server rate-latency rate=3/4 latency=2
";

    #[test]
    fn parses_complete_system() {
        let sys = parse_system(GOOD).unwrap();
        assert_eq!(sys.tasks.len(), 2);
        assert_eq!(sys.tasks[0].name(), "decoder");
        assert_eq!(sys.tasks[0].num_vertices(), 2);
        assert_eq!(sys.tasks[0].num_edges(), 2);
        assert_eq!(sys.tasks[1].wcet(sys.tasks[1].vertex_ids().next().unwrap()), q(1, 2));
        let server = sys.server.unwrap();
        assert_eq!(
            server,
            ServerSpec::RateLatency {
                rate: q(3, 4),
                latency: Q::int(2)
            }
        );
        let beta = server.beta_lower().unwrap();
        assert_eq!(beta.eval(Q::int(6)), Q::int(3));
    }

    #[test]
    fn error_spans_point_at_the_offending_token() {
        // The bad rational sits at line 2, after "vertex a wcet=".
        let e = parse_system("task t\nvertex a wcet=zero\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::BadValue);
        assert_eq!((e.line, e.column), (2, 15));
        assert!(e.message.contains("invalid rational"));

        let e = parse_system("vertex a wcet=1\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::OutsideTask);
        assert_eq!((e.line, e.column), (1, 1));

        // 'b' is the second edge operand, column 8.
        let e = parse_system("task t\nvertex a wcet=1\nedge a b sep=1\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::UnknownVertex);
        assert_eq!((e.line, e.column), (3, 8));

        let e = parse_system("task t\n   frobnicate\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::UnknownKeyword);
        assert_eq!((e.line, e.column), (2, 4));

        let e = parse_system("").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::Empty);
        assert_eq!((e.line, e.column), (1, 1));

        // Display renders the span.
        assert!(e.to_string().starts_with("line 1:1: "));
    }

    #[test]
    fn invalid_task_graphs_surface_build_errors() {
        // Zero WCET is rejected by the task builder.
        let e = parse_system("task t\nvertex a wcet=0\nedge a a sep=5\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::InvalidTask);
        assert!(e.message.contains("invalid task"), "{e}");
        // Duplicate vertex name.
        let e = parse_system("task t\nvertex a wcet=1\nvertex a wcet=2\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::Duplicate);
        assert!(e.message.contains("duplicate vertex"));
    }

    #[test]
    fn duplicate_task_names_rejected_with_location() {
        let text = "task t\nvertex a wcet=1\nedge a a sep=5\n\ntask t\nvertex b wcet=1\nedge b b sep=5\n";
        let e = parse_system(text).unwrap_err();
        assert_eq!((e.line, e.column), (5, 1));
        assert!(e.message.contains("duplicate task 't'"), "{e}");
    }

    #[test]
    fn all_server_kinds_parse() {
        for (line, check_rate) in [
            ("server fluid rate=2", Q::int(2)),
            ("server tdma slot=2 cycle=5 capacity=1", q(2, 5)),
            ("server periodic-resource period=5 budget=2", q(2, 5)),
        ] {
            let text = format!("task t\nvertex a wcet=1\nedge a a sep=9\n{line}\n");
            let sys = parse_system(&text).unwrap();
            let beta = sys.server.unwrap().beta_lower().unwrap();
            assert_eq!(beta.rate(), check_rate, "for {line}");
        }
        let e = parse_system("task t\nvertex a wcet=1\nserver warp speed=9\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::UnknownKeyword);
        assert!(e.message.contains("unknown server kind"));
    }

    #[test]
    fn invalid_server_parameters_error_at_the_declaration() {
        let e = parse_system("task t\nvertex a wcet=1\nedge a a sep=5\nserver fluid rate=0\n")
            .unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::InvalidServer);
        assert_eq!(e.line, 4);
    }

    #[test]
    fn parsed_system_is_analysable() {
        let sys = parse_system(GOOD).unwrap();
        let beta = sys.server.unwrap().beta_lower().unwrap();
        let a = crate::fifo_structural(&sys.tasks, &beta, &crate::AnalysisConfig::default())
            .unwrap();
        assert_eq!(a.len(), 2);
    }

    #[test]
    fn comments_and_duplicate_keys() {
        let ok = "task t # trailing comment\nvertex a wcet=1 # another\nedge a a sep=5\n";
        assert!(parse_system(ok).is_ok());
        let e = parse_system("task t\nvertex a wcet=1 wcet=2\n").unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::Duplicate);
        assert!(e.message.contains("duplicate key"));
        let e = parse_system("task t\nvertex a wcet=1\nedge a a sep=5\nserver fluid rate=1\nserver fluid rate=2\n")
            .unwrap_err();
        assert!(e.message.contains("duplicate server"));
    }

    #[test]
    fn input_and_structure_caps_are_enforced() {
        let huge = "#".repeat(MAX_INPUT_BYTES + 1);
        let e = parse_system(&huge).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::InputTooLarge);

        let mut many_tasks = String::new();
        for i in 0..=MAX_TASKS {
            many_tasks.push_str(&format!("task t{i}\nvertex a wcet=1\nedge a a sep=5\n"));
        }
        let e = parse_system(&many_tasks).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::CapExceeded);
        assert!(e.message.contains("tasks"));

        let mut many_vertices = String::from("task t\n");
        for i in 0..=MAX_VERTICES {
            many_vertices.push_str(&format!("vertex v{i} wcet=1\n"));
        }
        let e = parse_system(&many_vertices).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::CapExceeded);
        assert!(e.message.contains("vertices"));

        let mut many_edges = String::from("task t\nvertex a wcet=1\n");
        for _ in 0..=MAX_EDGES {
            many_edges.push_str("edge a a sep=5\n");
        }
        let e = parse_system(&many_edges).unwrap_err();
        assert_eq!(e.kind, ParseErrorKind::CapExceeded);
        assert!(e.message.contains("edges"));
    }

    /// Each single change of a presentation changes both the code and
    /// its hash; two parses of the same text give equal codes.
    #[test]
    fn the_presentation_code_is_injective_on_presentations() {
        let base_text = include_str!("../../../systems/decoder.srtw");
        let code = |text: &str| parse_system(text).unwrap().canonical_form();
        let base = code(base_text);
        assert_eq!(base, code(base_text));
        assert_eq!(
            base.hash(),
            parse_system(base_text).unwrap().presentation_digest()
        );
        let edit = |from: &str, to: &str| {
            assert!(base_text.contains(from), "decoder.srtw lacks {from:?}");
            base_text.replacen(from, to, 1)
        };
        let at = |line: &str| base_text.find(line).expect("decoder.srtw declares it");
        let (decoder, telemetry, server) = (
            &base_text[at("task decoder")..at("task telemetry")],
            &base_text[at("task telemetry")..at("server")],
            &base_text[at("server")..],
        );
        let cases = [
            ("task name", edit("task decoder", "task video")),
            (
                "vertex label",
                edit("vertex t ", "vertex u ").replace(" t t ", " u u "),
            ),
            (
                "vertices swapped",
                edit(
                    "vertex I wcet=12 deadline=60\nvertex P wcet=6 deadline=35",
                    "vertex P wcet=6 deadline=35\nvertex I wcet=12 deadline=60",
                ),
            ),
            ("tasks swapped", format!("{telemetry}\n{decoder}{server}")),
            (
                "out-edges reordered",
                edit(
                    "edge B B sep=15\nedge B P sep=15",
                    "edge B P sep=15\nedge B B sep=15",
                ),
            ),
            ("wcet", edit("wcet=6", "wcet=7")),
            (
                "deadline added",
                edit("vertex t wcet=1", "vertex t wcet=1 deadline=30"),
            ),
            ("deadline removed", edit(" deadline=25", "")),
            ("deadline changed", edit("deadline=25", "deadline=26")),
            ("separation", edit("edge P I sep=45", "edge P I sep=46")),
            ("edge target", edit("edge I B sep=15", "edge I P sep=15")),
            (
                "server kind",
                edit(
                    "server rate-latency rate=1 latency=2",
                    "server fluid rate=1",
                ),
            ),
            (
                "server rate",
                edit("rate=1 latency=2", "rate=1/2 latency=2"),
            ),
            ("server latency", edit("latency=2", "latency=3")),
            (
                "server absent",
                edit("server rate-latency rate=1 latency=2", ""),
            ),
        ];
        let servers = [
            (
                "tdma slot",
                "server tdma slot=2 cycle=5 capacity=1",
                "server tdma slot=3 cycle=5 capacity=1",
            ),
            (
                "tdma cycle",
                "server tdma slot=2 cycle=5 capacity=1",
                "server tdma slot=2 cycle=6 capacity=1",
            ),
            (
                "tdma capacity",
                "server tdma slot=2 cycle=5 capacity=1",
                "server tdma slot=2 cycle=5 capacity=2",
            ),
            ("fluid rate", "server fluid rate=1", "server fluid rate=2"),
            (
                "periodic period",
                "server periodic-resource period=5 budget=2",
                "server periodic-resource period=6 budget=2",
            ),
            (
                "periodic budget",
                "server periodic-resource period=5 budget=2",
                "server periodic-resource period=5 budget=3",
            ),
        ];
        let with_server = |line: &str| edit("server rate-latency rate=1 latency=2", line);
        let mut pairs: Vec<(&str, PresentationCode, PresentationCode)> = cases
            .iter()
            .map(|(what, text)| (*what, base.clone(), code(text)))
            .collect();
        for (what, a, b) in servers {
            pairs.push((what, code(&with_server(a)), code(&with_server(b))));
        }
        // Length prefixes keep a name's bytes from running into a label's.
        pairs.push((
            "length-prefix near-collision",
            code("task ab\nvertex c wcet=1\nedge c c sep=5\n"),
            code("task a\nvertex bc wcet=1\nedge bc bc sep=5\n"),
        ));
        for (what, a, b) in pairs {
            assert_ne!(a, b, "{what}: equal codes");
            assert_ne!(a.hash(), b.hash(), "{what}: equal hashes");
        }
    }

    /// The shipped systems' cache keys, pinned: they key the result
    /// cache and every spilled record, so a change that moves them
    /// orphans the spill stores written before it.
    #[test]
    fn shipped_systems_keep_their_cache_keys() {
        for (text, pinned) in [
            (
                include_str!("../../../systems/decoder.srtw"),
                0xc1e4_c303_62ab_04c4_3bb9_9cc1_803b_8888_u128,
            ),
            (
                include_str!("../../../systems/adversarial.srtw"),
                0x4a7c_be4e_5a6f_ebf3_edfd_efae_47fd_1975,
            ),
        ] {
            let sys = parse_system(text).expect("shipped systems parse");
            assert_eq!(sys.canonical_form().hash(), pinned);
        }
    }
}
