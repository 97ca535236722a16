//! The four workloads and their seeded request lists.
//!
//! The server only ever sees the generated bodies; everything here is a
//! pure function of `(workload, seed, request count)`, so two commits
//! measured with the same arguments do the same work. Systems are built
//! with `srtw_gen` and rendered to `.srtw` text by [`System::text`].

use srtw_core::textfmt::ServerSpec;
use srtw_detrand::Rng;
use srtw_gen::{generate_drt, generate_task_set, DrtGenConfig};
use srtw_minplus::Q;
use srtw_workload::{DrtTask, DrtTaskBuilder};
use std::collections::HashSet;
use std::path::Path;
use std::sync::Arc;

/// One workload: its name, the traffic it sends and why it is measured.
pub struct Workload {
    pub name: &'static str,
    pub traffic: &'static str,
    pub why: &'static str,
    /// Requests per second of measured run time: a run of `s` seconds
    /// sends `rate · s` requests, calibrated so the timed phase lasts about
    /// `s` seconds at the commit that defined the benchmark. The count is
    /// fixed, so a faster commit finishes sooner rather than doing more.
    pub rate: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold_random",
        traffic: "every request a never-seen POST /analyze: 1-3 streams of 5/10/20/40 \
                  vertices (weights .3/.4/.25/.05), U in [0.5, 0.8], deadlines 3x, \
                  rate-latency / TDMA / periodic-resource servers",
        why: "analysis layers do nearly all the work and the cache only inserts: analysis \
              speedups show here, canonicalization and cache changes should not",
        rate: 320,
    },
    Workload {
        name: "warm_repeat",
        traffic: "Zipf(1.0) over a prewarmed pool of 64 systems, every request a cache hit; \
                  a quarter of the pool is symmetric (rings of 8-32 identical job types, \
                  complete digraphs of 6-12, 4-8 replicated streams)",
        why: "HTTP, parse, canonicalization and cache lookup do all the work and analysis none: \
              the mirror image of cold_random",
        rate: 11000,
    },
    Workload {
        name: "incremental",
        traffic: "50% fresh 2-3-stream combinations of a 16-task pool, 30% POST /analyze/delta \
                  edits of a recent base (half deadline splices, half WCET fallbacks), 20% \
                  re-sends of a recent system with X-Deadline-Ms: 60000",
        why: "exercises the reuse layers the other workloads skip: the cross-request rbf \
              memo, the delta cut and the deadline field of the cache key",
        rate: 330,
    },
    Workload {
        name: "durable",
        traffic: "persist + journal over a spill dir pre-seeded with 2,000 records: 50% fresh \
                  small /analyze (spill append + fsync), 35% repeats (hits), 15% POST /batch \
                  of fresh 4-job manifests (journal fsync per job)",
        why: "durable writes run beside reads on the cache, persist and journal layers, and \
              setup includes the warm-load: a read speedup bought with slower writes shows here",
        rate: 220,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Records the durable workload's fixture server pre-seeds.
const FIXTURE_RECORDS: usize = 2_000;

/// A system to analyse: task streams plus the server they share.
#[derive(Debug, Clone)]
pub struct System {
    pub tasks: Vec<DrtTask>,
    pub server: ServerSpec,
}

impl System {
    /// The system in the `.srtw` text format, vertices and edges in the
    /// task's own order (so a parse reproduces the same presentation).
    pub fn text(&self) -> String {
        let mut out = String::new();
        for t in &self.tasks {
            out.push_str(&format!("task {}\n", t.name()));
            for v in t.vertex_ids() {
                out.push_str(&format!("vertex {} wcet={}", t.vertex(v).label, t.wcet(v)));
                if let Some(d) = t.deadline(v) {
                    out.push_str(&format!(" deadline={d}"));
                }
                out.push('\n');
            }
            for v in t.vertex_ids() {
                for e in t.out_edges(v) {
                    out.push_str(&format!(
                        "edge {} {} sep={}\n",
                        t.vertex(v).label,
                        t.vertex(e.to).label,
                        e.separation
                    ));
                }
            }
        }
        out.push_str(&server_line(&self.server));
        out
    }
}

fn server_line(s: &ServerSpec) -> String {
    match *s {
        ServerSpec::RateLatency { rate, latency } => {
            format!("server rate-latency rate={rate} latency={latency}\n")
        }
        ServerSpec::Fluid { rate } => format!("server fluid rate={rate}\n"),
        ServerSpec::Tdma {
            slot,
            cycle,
            capacity,
        } => format!("server tdma slot={slot} cycle={cycle} capacity={capacity}\n"),
        ServerSpec::PeriodicResource { period, budget } => {
            format!("server periodic-resource period={period} budget={budget}\n")
        }
    }
}

/// What kind of exchange a request is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Analyze,
    Delta,
    Batch,
}

impl Kind {
    pub fn target(self) -> &'static str {
        match self {
            Kind::Analyze => "/analyze",
            Kind::Delta => "/analyze/delta",
            Kind::Batch => "/batch",
        }
    }
}

/// What a correct answer is computed from, when it is not the cold
/// analysis of the request body itself.
#[derive(Debug, Clone)]
pub enum Reference {
    /// The answer is the cold analysis of this (edited) system.
    System(String),
    /// One job line per `(name, system text)`, in manifest order.
    Batch(Vec<(String, String)>),
}

/// One request of a run.
#[derive(Debug, Clone)]
pub struct Req {
    pub kind: Kind,
    /// Shared: repeated requests send the same bytes.
    pub body: Arc<str>,
    /// Sends `X-Deadline-Ms: 60000` (a deadline that never trips).
    pub deadline: bool,
    /// Answered from the result cache by design, so the trace replays its
    /// analysis off the request's path.
    pub expect_hit: bool,
    /// Requests sharing a key send identical bodies and are answered
    /// byte-identically (cache hits replay stored bytes), so the oracle
    /// keeps one body per key.
    pub key: Option<u32>,
    /// Checked against the oracle after the run (a seeded 1-in-8 sample;
    /// every request for `warm_repeat`).
    pub sampled: bool,
    /// `None`: the answer is the cold analysis of the body.
    pub reference: Option<Box<Reference>>,
}

impl Req {
    fn analyze(body: impl Into<Arc<str>>, sampled: bool) -> Req {
        Req {
            kind: Kind::Analyze,
            body: body.into(),
            deadline: false,
            expect_hit: false,
            key: None,
            sampled,
            reference: None,
        }
    }
}

/// Everything one run of a workload sends.
pub struct Corpus {
    /// Sent during set-up, before timing starts (cache prewarm / warm-up).
    pub prewarm: Vec<String>,
    /// `/analyze` bodies the durable fixture server spills before set-up.
    pub fixture: Vec<String>,
    /// The timed request list, split between the clients in order.
    pub timed: Vec<Req>,
}

/// A per-request seed: independent streams for every `(stream, index)`.
fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    Rng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ stream.wrapping_mul(0xC2B2_AE3D_27D4_EB4F)
            ^ index,
    )
    .next_u64()
}

/// Maps `0..n` through `f` on two threads (generation dominates corpus
/// build time); the output is independent of the split.
fn par_map<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let half = n / 2;
    std::thread::scope(|s| {
        let hi = s.spawn(|| (half..n).map(&f).collect::<Vec<T>>());
        let mut out: Vec<T> = (0..half).map(&f).collect();
        out.extend(hi.join().expect("corpus generator thread panicked"));
        out
    })
}

/// A server of `kind` (0 rate-latency, 1 TDMA, 2 periodic resource)
/// with rate 1 or 9/10.
fn server_of_kind(kind: usize, rng: &mut Rng) -> ServerSpec {
    let cycle = Q::int(rng.random_range(1i128..=2) * 10);
    let slot = cycle * Q::new(9, 10);
    match kind {
        0 => ServerSpec::RateLatency {
            rate: Q::ONE,
            latency: Q::int(rng.random_range(1i128..=8)),
        },
        1 => ServerSpec::Tdma {
            slot,
            cycle,
            capacity: Q::ONE,
        },
        _ => ServerSpec::PeriodicResource {
            period: cycle,
            budget: slot,
        },
    }
}

fn gen_cfg(vertices: usize) -> DrtGenConfig {
    DrtGenConfig {
        vertices,
        extra_edges: vertices,
        separation_range: (5, 40),
        wcet_range: (1, 9),
        target_utilization: None,
        deadline_factor: Some(Q::int(3)),
    }
}

/// Vertex counts of one block of 20 `cold_random` systems: exactly the
/// weights .3/.4/.25/.05, so every block costs about the same and a run's
/// cost does not hinge on how many 40-vertex systems its seed happens to
/// draw.
const BLOCK: [usize; 20] = [
    5, 5, 5, 5, 5, 5, 10, 10, 10, 10, 10, 10, 10, 10, 20, 20, 20, 20, 20, 40,
];

/// `(vertices, streams, server kind)`: the shape of a generated system.
type Shape = (usize, usize, usize);

/// Slot `slot` of block `turn`: stream count (1-3) and server kind rotate
/// with the block, so every vertex count meets every stream count and
/// server kind.
fn shape(slot: usize, turn: usize) -> Shape {
    (BLOCK[slot], 1 + (slot + turn) % 3, (slot + 2 * turn) % 3)
}

/// The shape of system `i` of a stratified stream: block `i / 20` visits
/// the 20 slots in a seeded order.
fn stratified(seed: u64, stream: u64, i: usize) -> Shape {
    let block = i / BLOCK.len();
    let mut order: Vec<usize> = (0..BLOCK.len()).collect();
    Rng::seed_from_u64(derive(seed, stream, block as u64)).shuffle(&mut order);
    shape(order[i % BLOCK.len()], block)
}

/// A `cold_random` system of the given shape, total utilization in
/// [0.5, 0.8].
fn random_system(seed: u64, (vertices, streams, kind): Shape) -> System {
    let mut rng = Rng::seed_from_u64(seed);
    let u = Q::new(rng.random_range(50i128..=80), 100);
    let tasks = generate_task_set(&gen_cfg(vertices), streams, u, rng.next_u64());
    System {
        tasks,
        server: server_of_kind(kind, &mut rng),
    }
}

/// A small system (1-2 streams of 5 or 10 vertices), for the durable
/// workload's fresh writes.
fn small_system(seed: u64) -> System {
    let mut rng = Rng::seed_from_u64(seed);
    let streams = rng.random_range(1usize..=2);
    let n = if rng.random_bool() { 5 } else { 10 };
    let u = Q::new(rng.random_range(50i128..=80), 100);
    let tasks = generate_task_set(&gen_cfg(n), streams, u, rng.next_u64());
    let kind = rng.random_range(0usize..3);
    System {
        tasks,
        server: server_of_kind(kind, &mut rng),
    }
}

/// Rebuilds `task` under `name`, mapping every vertex's `(wcet, deadline)`
/// through `edit`; vertex and edge order are kept.
fn rebuild(
    task: &DrtTask,
    name: &str,
    mut edit: impl FnMut(usize, Q, Option<Q>) -> (Q, Option<Q>),
) -> DrtTask {
    let mut b = DrtTaskBuilder::new(name);
    let ids: Vec<_> = task
        .vertex_ids()
        .map(|v| {
            let (wcet, deadline) = edit(v.index(), task.wcet(v), task.deadline(v));
            let label = task.vertex(v).label.clone();
            match deadline {
                Some(d) => b.vertex_with_deadline(label, wcet, d),
                None => b.vertex(label, wcet),
            }
        })
        .collect();
    for v in task.vertex_ids() {
        for e in task.out_edges(v) {
            b.edge(ids[v.index()], ids[e.to.index()], e.separation);
        }
    }
    b.build().expect("an edit of a valid task keeps it valid")
}

/// A task whose `n` job types are identical: every vertex has the same
/// WCET and deadline and every edge the same separation (utilization 3/10).
fn identical_task(name: &str, n: usize, complete: bool, rng: &mut Rng) -> DrtTask {
    let sep = Q::int(rng.random_range(10i128..=20));
    let wcet = sep * Q::new(3, 10);
    let mut b = DrtTaskBuilder::new(name);
    let ids: Vec<_> = (0..n)
        .map(|i| b.vertex_with_deadline(format!("v{i}"), wcet, sep * Q::int(3)))
        .collect();
    for i in 0..n {
        if complete {
            for j in (0..n).filter(|&j| j != i) {
                b.edge(ids[i], ids[j], sep);
            }
        } else {
            b.edge(ids[i], ids[(i + 1) % n], sep);
        }
    }
    b.build().expect("identical-job task is valid")
}

/// The `s`-th symmetric pool entry (0..16): six rings of 8-32 identical
/// job types, five complete digraphs of 6-12, five systems of 4-8
/// replicated identical streams. Shapes and sizes depend only on `s`, so
/// the pool's cost profile is the same for every seed; the seed picks the
/// numbers.
fn symmetric_system(s: usize, seed: u64) -> System {
    let mut rng = Rng::seed_from_u64(seed);
    let j = s / 3;
    let tasks = match s % 3 {
        0 => vec![identical_task("ring", 8 + 24 * j / 5, false, &mut rng)],
        1 => vec![identical_task("clique", 6 + 6 * j / 4, true, &mut rng)],
        _ => {
            let copies = 4 + j;
            let cfg = DrtGenConfig {
                target_utilization: Some(Q::new(6, 10) / Q::int(copies as i128)),
                ..gen_cfg(5)
            };
            let base = generate_drt(&cfg, rng.next_u64());
            (0..copies)
                .map(|c| rebuild(&base, &format!("rep{c}"), |_, w, d| (w, d)))
                .collect()
        }
    };
    System {
        tasks,
        server: ServerSpec::RateLatency {
            rate: Q::ONE,
            latency: Q::int(rng.random_range(1i128..=4)),
        },
    }
}

/// Builds the corpus of `workload` for `seed` with `n` timed requests.
/// Batch systems of the durable workload are written under `work`.
pub fn corpus(workload: &str, seed: u64, n: usize, work: &Path) -> Corpus {
    match workload {
        "cold_random" => cold_random(seed, n),
        "warm_repeat" => warm_repeat(seed, n),
        "incremental" => incremental(seed, n),
        "durable" => durable(seed, n, work),
        other => panic!("unknown workload {other}"),
    }
}

/// Seeded 1-in-8 oracle sample.
fn sample(seed: u64, i: usize) -> bool {
    derive(seed, 99, i as u64).is_multiple_of(8)
}

fn cold_random(seed: u64, n: usize) -> Corpus {
    let timed = par_map(n, |i| {
        let system = random_system(derive(seed, 1, i as u64), stratified(seed, 12, i));
        Req::analyze(system.text(), sample(seed, i))
    });
    Corpus {
        // Warm-up: 24 systems never sent again, all of 10 vertices so the
        // two workers share the work evenly and set-up time stays steady.
        prewarm: par_map(24, |i| {
            random_system(derive(seed, 2, i as u64), (10, 1 + i % 3, i / 3 % 3)).text()
        }),
        fixture: Vec::new(),
        timed,
    }
}

/// Pool size of `warm_repeat`.
const POOL: usize = 64;

fn warm_repeat(seed: u64, n: usize) -> Corpus {
    // Rank r of the Zipf law holds a symmetric system when r % 4 == 3 and
    // a `cold_random` system otherwise. Every rank has the same shape for
    // every seed, so the traffic's cost profile is fixed and the seed
    // picks the numbers.
    let pool = par_map(POOL, |r| {
        if r % 4 == 3 {
            symmetric_system(r / 4, derive(seed, 3, r as u64)).text()
        } else {
            let q = r - r / 4;
            random_system(
                derive(seed, 4, r as u64),
                shape(q * 7 % BLOCK.len(), q / BLOCK.len()),
            )
            .text()
        }
    });
    let shared: Vec<Arc<str>> = pool.iter().map(|t| Arc::from(t.as_str())).collect();
    let weights: Vec<u64> = (1..=POOL as u64).map(|r| 1_000_000 / r).collect();
    let mut rng = Rng::seed_from_u64(derive(seed, 5, 0));
    let timed = (0..n)
        .map(|_| {
            let r = rng.choose_weighted(&weights).expect("weights are positive");
            Req {
                expect_hit: true,
                key: Some(r as u32),
                ..Req::analyze(Arc::clone(&shared[r]), true)
            }
        })
        .collect();
    Corpus {
        prewarm: pool,
        fixture: Vec::new(),
        timed,
    }
}

/// Requests a reuse request's base must trail by, so the base has been
/// answered (and cached) before the reuse is sent.
const LAG: usize = 8;

fn incremental(seed: u64, n: usize) -> Corpus {
    // The task pool is the same for every seed, so a run's cost does not
    // hinge on which 16 tasks its seed draws; the seed picks the traffic.
    let mut pool_rng = Rng::seed_from_u64(derive(0, 6, 0));
    let pool: Vec<DrtTask> = (0..16)
        .map(|i| {
            let cfg = DrtGenConfig {
                target_utilization: Some(Q::new(pool_rng.random_range(15i128..=25), 100)),
                ..gen_cfg([5, 10, 10, 20][i % 4])
            };
            let t = generate_drt(&cfg, pool_rng.next_u64());
            rebuild(&t, &format!("p{i}"), |_, w, d| (w, d))
        })
        .collect();
    let mut rng = Rng::seed_from_u64(derive(seed, 6, 1));
    // Twelve rate-latency, twelve TDMA and twelve periodic-resource
    // servers of rate 1 or 9/10.
    let servers: Vec<ServerSpec> = (1..=12i128)
        .flat_map(|k| {
            let cycle = Q::int(5 * k);
            [
                ServerSpec::RateLatency {
                    rate: Q::ONE,
                    latency: Q::int(k),
                },
                ServerSpec::Tdma {
                    slot: cycle * Q::new(9, 10),
                    cycle,
                    capacity: Q::ONE,
                },
                ServerSpec::PeriodicResource {
                    period: cycle,
                    budget: cycle * Q::new(9, 10),
                },
            ]
        })
        .collect();
    // Every (2- or 3-task set, server) pair in a seeded order: fresh
    // requests take them in turn, so none repeats within 24,480 of them.
    let mut combos: Vec<(Vec<usize>, usize)> = Vec::new();
    for a in 0..pool.len() {
        for b in a + 1..pool.len() {
            let sets =
                std::iter::once(vec![a, b]).chain((b + 1..pool.len()).map(|c| vec![a, b, c]));
            for set in sets {
                combos.extend((0..servers.len()).map(|s| (set.clone(), s)));
            }
        }
    }
    rng.shuffle(&mut combos);
    let mut next_combo = 0;
    // (request index, system, edits applied so far) of every fresh base.
    let mut bases: Vec<(usize, System, u32)> = Vec::new();
    let mut resent: HashSet<usize> = HashSet::new();
    let mut wcet_next = false;
    let mut timed = Vec::with_capacity(n);
    for i in 0..n {
        let sampled = sample(seed, i);
        let eligible = bases.partition_point(|b| b.0 + LAG <= i);
        let roll = rng.random_range(0u32..100);
        if (50..80).contains(&roll) && eligible > 0 {
            let lo = eligible.saturating_sub(16);
            let pick = rng.random_range(lo..eligible);
            let (_, base, edits) = &mut bases[pick];
            *edits += 1;
            let e = *edits;
            let t = rng.random_range(0..base.tasks.len());
            let task = &base.tasks[t];
            let v = rng.random_range(0..task.num_vertices());
            let vid = task.vertex_ids().nth(v).expect("vertex index in range");
            let label = task.vertex(vid).label.clone();
            let (line, edited) = if wcet_next {
                let grow = Q::ONE + Q::new(1, 10 + e as i128);
                let mut value = Q::ZERO;
                let edited = rebuild(task, task.name(), |k, w, d| {
                    if k == v {
                        value = w * grow;
                        (value, d)
                    } else {
                        (w, d)
                    }
                });
                (format!("wcet {} {label} {value}\n", task.name()), edited)
            } else {
                let mut value = Q::ZERO;
                let edited = rebuild(task, task.name(), |k, w, d| {
                    if k == v {
                        value = d.expect("generated vertices carry deadlines") + Q::int(e as i128);
                        (w, Some(value))
                    } else {
                        (w, d)
                    }
                });
                (
                    format!("deadline {} {label} {value}\n", task.name()),
                    edited,
                )
            };
            wcet_next = !wcet_next;
            let mut after = base.clone();
            after.tasks[t] = edited;
            timed.push(Req {
                kind: Kind::Delta,
                reference: Some(Box::new(Reference::System(after.text()))),
                ..Req::analyze(format!("{}@delta\n{line}", base.text()), sampled)
            });
            continue;
        }
        if roll >= 80 {
            let candidates: Vec<usize> = (eligible.saturating_sub(32)..eligible)
                .filter(|k| !resent.contains(k))
                .collect();
            if let Some(&k) = rng.choose(&candidates) {
                resent.insert(k);
                timed.push(Req {
                    deadline: true,
                    ..Req::analyze(bases[k].1.text(), sampled)
                });
                continue;
            }
        }
        // A fresh combination, its streams in a seeded order.
        let (set, server) = &combos[next_combo % combos.len()];
        next_combo += 1;
        let mut order = set.clone();
        rng.shuffle(&mut order);
        let system = System {
            tasks: order.iter().map(|&x| pool[x].clone()).collect(),
            server: servers[*server],
        };
        timed.push(Req::analyze(system.text(), sampled));
        bases.push((i, system, 0));
    }
    // Prewarm: every pool task alone on one server of each kind, as a
    // long-running service would have seen them.
    let prewarm = pool
        .iter()
        .flat_map(|t| {
            servers[..3].iter().map(|&server| {
                System {
                    tasks: vec![t.clone()],
                    server,
                }
                .text()
            })
        })
        .collect();
    Corpus {
        prewarm,
        fixture: Vec::new(),
        timed,
    }
}

fn durable(seed: u64, n: usize, work: &Path) -> Corpus {
    let fixture = par_map(FIXTURE_RECORDS, |f| {
        small_system(derive(seed, 7, f as u64)).text()
    });
    let batch_dir = work.join("batch");
    std::fs::create_dir_all(&batch_dir).expect("create the batch system directory");
    let mut rng = Rng::seed_from_u64(derive(seed, 8, 0));
    let rolls: Vec<u32> = (0..n).map(|_| rng.random_range(0u32..100)).collect();
    let fresh = par_map(n, |i| match rolls[i] {
        0..=49 => vec![small_system(derive(seed, 9, i as u64)).text()],
        85..=99 => (0..4)
            .map(|j| small_system(derive(seed, 10, (i * 4 + j) as u64)).text())
            .collect(),
        _ => Vec::new(),
    });
    let mut recent: Vec<usize> = Vec::new();
    let mut timed = Vec::with_capacity(n);
    for (i, texts) in fresh.into_iter().enumerate() {
        let sampled = sample(seed, i);
        match rolls[i] {
            0..=49 => {
                recent.push(i);
                timed.push(Req {
                    key: Some(i as u32),
                    ..Req::analyze(texts.into_iter().next().expect("one system"), sampled)
                });
            }
            85..=99 => {
                let mut manifest = String::new();
                let mut jobs = Vec::new();
                for (j, text) in texts.into_iter().enumerate() {
                    let name = format!("b{i}-{j}");
                    let path = batch_dir.join(format!("{name}.srtw"));
                    std::fs::write(&path, &text).expect("write a batch system file");
                    let path = std::fs::canonicalize(&path).expect("resolve a batch system path");
                    manifest.push_str(&format!("{}\n", path.display()));
                    jobs.push((name, text));
                }
                timed.push(Req {
                    kind: Kind::Batch,
                    reference: Some(Box::new(Reference::Batch(jobs))),
                    ..Req::analyze(manifest, sampled)
                });
            }
            _ => {
                // A third of the repeats (all of them until a fresh write
                // is old enough) hit records warm-loaded from the fixture.
                let eligible = recent.partition_point(|&k| k + LAG <= i);
                let (key, body) = if eligible == 0 || rng.random_range(0u32..3) == 0 {
                    let f = rng.random_range(0..FIXTURE_RECORDS);
                    (n + f, Arc::from(fixture[f].as_str()))
                } else {
                    let k = recent[rng.random_range(eligible.saturating_sub(64)..eligible)];
                    (k, Arc::clone(&timed[k].body))
                };
                timed.push(Req {
                    expect_hit: true,
                    key: Some(key as u32),
                    ..Req::analyze(body, sampled)
                });
            }
        }
    }
    Corpus {
        prewarm: Vec::new(),
        fixture,
        timed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtw_core::textfmt::parse_system;

    #[test]
    fn rendered_systems_parse_back_to_the_same_presentation() {
        for seed in 0..20 {
            let sys = random_system(seed, shape(seed as usize, 1));
            let parsed = parse_system(&sys.text()).expect("rendered text parses");
            assert_eq!(parsed.tasks, sys.tasks);
            assert_eq!(parsed.server, Some(sys.server));
        }
        for s in 0..16 {
            let sys = symmetric_system(s, 7);
            assert_eq!(parse_system(&sys.text()).unwrap().tasks, sys.tasks);
        }
    }

    #[test]
    fn corpora_are_a_function_of_the_seed() {
        let dir = std::env::temp_dir();
        for w in ["cold_random", "warm_repeat", "incremental"] {
            let a = corpus(w, 3, 40, &dir);
            let b = corpus(w, 3, 40, &dir);
            assert_eq!(a.timed.len(), 40);
            let bodies = |c: &Corpus| c.timed.iter().map(|r| r.body.clone()).collect::<Vec<_>>();
            assert_eq!(bodies(&a), bodies(&b), "{w}");
            assert_ne!(bodies(&a), bodies(&corpus(w, 4, 40, &dir)), "{w}");
        }
    }

    #[test]
    fn incremental_mixes_all_three_kinds() {
        let c = corpus("incremental", 1, 400, &std::env::temp_dir());
        let deltas = c.timed.iter().filter(|r| r.kind == Kind::Delta).count();
        let resends = c.timed.iter().filter(|r| r.deadline).count();
        assert!((90..150).contains(&deltas), "{deltas} deltas");
        assert!((50..110).contains(&resends), "{resends} re-sends");
    }
}
