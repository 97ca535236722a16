//! Seeded fuzz smoke test for the hardened system-file parser.
//!
//! Random byte-level mutations of the real example systems (bit flips,
//! splices, truncations, duplications, and pure noise) are fed to
//! [`srtw::textfmt::parse_system`]. Two invariants:
//!
//! 1. the parser never panics — every mutation yields `Ok` or a typed
//!    [`srtw::textfmt::ParseError`];
//! 2. every error carries a 1-based line/column span.
//!
//! Case counts follow `SRTW_PROP_CASES` (default 64); failures print a
//! `SRTW_PROP_REPLAY=<seed>:<size>` handle for exact reproduction.

use srtw::prop::forall;
use srtw::textfmt::parse_system;
use srtw::Rng;

const SEEDS: [&str; 2] = [
    include_str!("../systems/decoder.srtw"),
    include_str!("../systems/adversarial.srtw"),
];

/// One seeded mutation of a real corpus file (or, occasionally, pure
/// random bytes), decoded lossily so the parser always sees valid UTF-8.
fn mutated(rng: &mut Rng, size: u32) -> String {
    let mut bytes = SEEDS[rng.random_range(0usize..SEEDS.len())]
        .as_bytes()
        .to_vec();
    let mutations = 1 + (size as usize) / 4;
    for _ in 0..mutations {
        match rng.random_range(0u32..5) {
            // Flip a random byte.
            0 if !bytes.is_empty() => {
                let i = rng.random_range(0usize..bytes.len());
                bytes[i] = rng.next_u64() as u8;
            }
            // Insert a random printable-ish chunk.
            1 => {
                let i = rng.random_range(0usize..bytes.len() + 1);
                let chunk: Vec<u8> = (0..rng.random_range(1usize..8))
                    .map(|_| (rng.next_u64() % 96 + 32) as u8)
                    .collect();
                bytes.splice(i..i, chunk);
            }
            // Truncate at a random point.
            2 if !bytes.is_empty() => {
                let i = rng.random_range(0usize..bytes.len());
                bytes.truncate(i);
            }
            // Duplicate a random slice (duplicate keys, tasks, servers…).
            3 if bytes.len() >= 2 => {
                let a = rng.random_range(0usize..bytes.len() - 1);
                let b = rng.random_range(a + 1..bytes.len());
                let slice = bytes[a..b].to_vec();
                let i = rng.random_range(0usize..bytes.len() + 1);
                bytes.splice(i..i, slice);
            }
            // Replace everything with noise.
            _ => {
                bytes = (0..rng.random_range(0usize..256))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_inputs_never_panic_and_errors_carry_spans() {
    forall("fuzz_textfmt", mutated, |text| {
        match parse_system(text) {
            Ok(sys) => {
                // A surviving parse is a real system: render-independent
                // sanity only, the analysis itself is covered elsewhere.
                assert!(!sys.tasks.is_empty());
            }
            Err(e) => {
                assert!(
                    e.line >= 1 && e.column >= 1,
                    "error without a span: {e:?}"
                );
                // The rendered form exposes the span.
                let shown = e.to_string();
                assert!(shown.starts_with(&format!("line {}:{}:", e.line, e.column)));
            }
        }
    });
}

/// One seeded word-level edit of a well-formed system: the defects a
/// hand-written file carries (a repeated, unknown, misspelled or missing
/// `key=`, a bad value, a dangling vertex name, a swapped or dropped
/// word, a stray comment or tab), 1–3 of them per text.
fn word_mutated(rng: &mut Rng, text: &str) -> String {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split(' ').map(str::to_owned).collect())
        .collect();
    for _ in 0..rng.random_range(1usize..=3) {
        if lines.is_empty() {
            break;
        }
        let li = rng.random_range(0usize..lines.len());
        if lines[li].is_empty() {
            continue;
        }
        let line = &mut lines[li];
        let wi = rng.random_range(0usize..line.len());
        let word = line[wi].clone();
        match rng.random_range(0u32..12) {
            // Repeat the word: a duplicate key, name or keyword.
            0 => line.insert(wi, word),
            1 => {
                line.remove(wi);
            }
            2 if line.len() >= 2 => {
                let wj = rng.random_range(0usize..line.len());
                line.swap(wi, wj);
            }
            // An unknown key, possibly twice.
            3 => {
                let extra = format!(
                    "k{}={}",
                    rng.random_range(0u32..3),
                    rng.random_range(0u32..9)
                );
                line.push(extra.clone());
                if rng.random_ratio(1, 2) {
                    line.push(extra);
                }
            }
            // Keep the key, break the value.
            4 => {
                let key = word.split('=').next().unwrap_or("").to_owned();
                let bad = [
                    "",
                    "x",
                    "1/0",
                    "-3",
                    "0",
                    "1//2",
                    "99999999999999999999999999999999999999999",
                ];
                line[wi] = format!("{key}={}", bad[rng.random_range(0usize..bad.len())]);
            }
            // A known key where another belongs.
            5 => {
                let keys = [
                    "wcet", "deadline", "sep", "rate", "latency", "slot", "cycle", "capacity",
                    "period", "budget",
                ];
                let value = word
                    .split_once('=')
                    .map(|(_, v)| v)
                    .unwrap_or("1")
                    .to_owned();
                line[wi] = format!("{}={value}", keys[rng.random_range(0usize..keys.len())]);
            }
            // A name no vertex or task declares.
            6 => line[wi] = format!("{word}_"),
            7 => line.insert(wi, "#".to_owned()),
            8 => line[wi] = format!("\t{word}\t"),
            // Move the line elsewhere (an edge before its vertex, a vertex
            // outside a task, a second server).
            9 => {
                let moved = lines.remove(li);
                let to = rng.random_range(0usize..lines.len() + 1);
                lines.insert(to, moved);
            }
            10 => {
                let copy = lines[li].clone();
                lines.insert(rng.random_range(0usize..lines.len() + 1), copy);
            }
            _ => line[wi] = word.replace('=', " = "),
        }
    }
    lines.iter().map(|l| l.join(" ") + "\n").collect()
}

/// A generated system in the text format, with one of the four server
/// kinds.
fn rendered_gen_system(rng: &mut Rng) -> String {
    let cfg = srtw::DrtGenConfig {
        vertices: rng.random_range(1usize..=12),
        extra_edges: rng.random_range(0usize..=12),
        separation_range: (5, 40),
        wcet_range: (1, 9),
        target_utilization: None,
        deadline_factor: rng.random_ratio(1, 2).then_some(srtw::Q::int(3)),
    };
    let streams = rng.random_range(1usize..=3);
    let u = srtw::Q::new(rng.random_range(20i128..=90), 100);
    let tasks = srtw::generate_task_set(&cfg, streams, u, rng.next_u64());
    let mut out = String::new();
    for (i, t) in tasks.iter().enumerate() {
        out.push_str(&format!("task {}-{i}\n", t.name()));
        for v in t.vertex_ids() {
            out.push_str(&format!("vertex {} wcet={}", t.vertex(v).label, t.wcet(v)));
            if let Some(d) = t.deadline(v) {
                out.push_str(&format!(" deadline={d}"));
            }
            out.push('\n');
        }
        for v in t.vertex_ids() {
            for e in t.out_edges(v) {
                let to = &t.vertex(e.to).label;
                out.push_str(&format!(
                    "edge {} {to} sep={}\n",
                    t.vertex(v).label,
                    e.separation
                ));
            }
        }
    }
    out.push_str(match rng.random_range(0u32..4) {
        0 => "server rate-latency rate=1 latency=3\n",
        1 => "server fluid rate=9/10\n",
        2 => "server tdma slot=9 cycle=10 capacity=1\n",
        _ => "server periodic-resource period=20 budget=18\n",
    });
    out
}

/// Every parser outcome over a fixed corpus, folded into one digest: an
/// accepted system contributes its presentation digest, a rejected one
/// its error kind, line, column and message. Any change to what the
/// parser accepts, builds or reports moves the digest. The corpus: 1,024
/// byte-level and 1,024 word-level mutations of the shipped systems, and
/// 256 generated systems, half of them word-mutated.
#[test]
fn parse_outcomes_match_the_pinned_digest() {
    const PINNED: u64 = 0x69a4_9b06_b134_ceef;
    let mut rng = Rng::seed_from_u64(0x5eed_7e47);
    let mut texts: Vec<String> = (0..1024u32).map(|i| mutated(&mut rng, i % 16)).collect();
    for _ in 0..1024 {
        let seed = SEEDS[rng.random_range(0usize..SEEDS.len())];
        texts.push(word_mutated(&mut rng, seed));
    }
    for i in 0..256 {
        let text = rendered_gen_system(&mut rng);
        texts.push(if i % 2 == 0 {
            text
        } else {
            word_mutated(&mut rng, &text)
        });
    }
    let (mut log, mut accepted) = (String::new(), 0usize);
    for text in &texts {
        match parse_system(text) {
            Ok(sys) => {
                accepted += 1;
                log.push_str(&format!("ok {:032x}\n", sys.presentation_digest()));
            }
            Err(e) => log.push_str(&format!(
                "err {} {} {} {}\n",
                e.kind.as_str(),
                e.line,
                e.column,
                e.message
            )),
        }
    }
    // Both outcomes are well represented, so the digest pins both.
    assert!(
        accepted >= texts.len() / 8,
        "{accepted} of {} accepted",
        texts.len()
    );
    assert!(
        accepted <= texts.len() * 7 / 8,
        "{accepted} of {} accepted",
        texts.len()
    );
    let got = srtw::supervisor::journal::digest64(log.as_bytes());
    assert_eq!(got, PINNED, "parser outcome digest moved: {got:#018x}");
}
