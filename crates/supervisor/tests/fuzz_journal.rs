//! Seeded fuzz suite for journal recovery.
//!
//! Random structural and byte-level mutations of a genuine journal image
//! (truncations, bit flips, duplicated slices, reordered records, and
//! pure noise) are fed to `journal::recover_bytes`. Three invariants:
//!
//! 1. recovery never panics — every image, however mangled, yields a
//!    `Recovery`;
//! 2. recovery never *invents* a completion: every record it salvages
//!    must be byte-identical (name and stored JSON alike) to one that
//!    was genuinely journaled — a job that was never written can never
//!    come back marked complete;
//! 3. replay stays idempotent — no two records for one manifest position
//!    survive recovery.
//!
//! Case counts follow `SRTW_PROP_CASES` (default 64); failures print a
//! `SRTW_PROP_REPLAY=<seed>:<size>` handle for exact reproduction.

use srtw_detrand::prop::forall;
use srtw_detrand::Rng;
use srtw_supervisor::journal::{recover_bytes, JournalRecord, JournalWriter, JOURNAL_MAGIC};
use srtw_supervisor::{JobOutcome, JobStatus};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

const DIGEST: u64 = 0x5eed_cafe;

fn outcome(name: &str, status: JobStatus) -> JobOutcome {
    let mut o = match status {
        JobStatus::Failed => JobOutcome::pre_failed(name, "synthetic failure"),
        JobStatus::Skipped => JobOutcome::skipped(name),
        _ => {
            let mut o = JobOutcome::pre_failed(name, "");
            o.status = status;
            o.error = None;
            o.rung = Some(srtw_supervisor::Rung::Exact);
            o
        }
    };
    o.wall = Duration::from_micros(1000 + name.len() as u64 * 37);
    o
}

/// The genuine records the fuzz cases start from, plus each record's
/// exact on-disk frame bytes (captured by writing a one-record journal
/// and stripping the header).
struct Base {
    records: Vec<JournalRecord>,
    frames: Vec<Vec<u8>>,
    header: Vec<u8>,
}

fn base() -> &'static Base {
    static BASE: OnceLock<Base> = OnceLock::new();
    BASE.get_or_init(|| {
        let outcomes = [
            outcome("alpha", JobStatus::Exact),
            outcome("beta", JobStatus::Degraded),
            outcome("gamma", JobStatus::Failed),
            outcome("delta", JobStatus::Exact),
        ];
        let records: Vec<JournalRecord> = outcomes
            .iter()
            .enumerate()
            .map(|(i, o)| JournalRecord {
                position: i as u32,
                ..JournalRecord::from_outcome(o)
            })
            .collect();
        let mut frames = Vec::new();
        let mut header = Vec::new();
        for (i, r) in records.iter().enumerate() {
            let path = tmp(&format!("frame-{i}"));
            let mut w = JournalWriter::create(&path, DIGEST).unwrap();
            w.append(r).unwrap();
            drop(w);
            let bytes = std::fs::read(&path).unwrap();
            std::fs::remove_file(&path).unwrap();
            let header_len = JOURNAL_MAGIC.len() + 4 + 8;
            if header.is_empty() {
                header = bytes[..header_len].to_vec();
            }
            frames.push(bytes[header_len..].to_vec());
        }
        Base {
            records,
            frames,
            header,
        }
    })
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("srtw-fuzz-journal-{}-{name}", std::process::id()));
    p
}

/// One seeded journal image: the genuine frames in a random order (with
/// possible duplicates), then `size`-scaled byte-level mutations.
fn mutated(rng: &mut Rng, size: u32) -> Vec<u8> {
    let base = base();
    let mut image = base.header.clone();
    // Reorder/duplicate at the record level first: a random sequence of
    // genuine frames, each possibly appearing more than once or not at
    // all.
    let picks = rng.random_range(0usize..base.frames.len() * 2);
    for _ in 0..picks {
        let f = rng.random_range(0usize..base.frames.len());
        image.extend_from_slice(&base.frames[f]);
    }
    // Then mangle bytes.
    let mutations = (size as usize) / 8;
    for _ in 0..mutations {
        match rng.random_range(0u32..5) {
            // Flip a random bit.
            0 if !image.is_empty() => {
                let i = rng.random_range(0usize..image.len());
                image[i] ^= 1 << rng.random_range(0u32..8);
            }
            // Truncate at a random point (torn tail; may even eat the
            // header).
            1 if !image.is_empty() => {
                let i = rng.random_range(0usize..image.len());
                image.truncate(i);
            }
            // Duplicate a random slice (repeated/overlapping frames).
            2 if image.len() >= 2 => {
                let a = rng.random_range(0usize..image.len() - 1);
                let b = rng.random_range(a + 1..image.len());
                let slice = image[a..b].to_vec();
                let i = rng.random_range(0usize..image.len() + 1);
                image.splice(i..i, slice);
            }
            // Insert random bytes.
            3 => {
                let i = rng.random_range(0usize..image.len() + 1);
                let chunk: Vec<u8> = (0..rng.random_range(1usize..16))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                image.splice(i..i, chunk);
            }
            // Replace everything with noise.
            _ => {
                image = (0..rng.random_range(0usize..512))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
            }
        }
    }
    image
}

#[test]
fn mutated_journals_recover_without_panics_or_invented_completions() {
    let genuine = &base().records;
    forall("journal recovery tolerates arbitrary corruption", mutated, |image| {
        let rec = recover_bytes(image);
        // Invariant 2: every salvaged record is byte-identical to a
        // genuinely journaled one. (A CRC collision on mutated bytes is
        // the only way to break this, and the seeded corpus has none.)
        for r in &rec.records {
            assert!(
                genuine.iter().any(|g| g == r),
                "recovery invented a record for job '{}' that was never journaled",
                r.name
            );
        }
        // Invariant 3: replay idempotence — keep-first dedup by position.
        for (i, r) in rec.records.iter().enumerate() {
            assert!(
                rec.records[..i].iter().all(|prev| prev.position != r.position),
                "duplicate record for position {} survived recovery",
                r.position
            );
        }
    });
}

#[test]
fn truncation_sweep_never_loses_fully_synced_prefix_records() {
    // Deterministic sweep, not seeded: for every possible truncation
    // point, recovery yields exactly the records whose frames fit wholly
    // inside the prefix — fsync-before-ack means those are the jobs a
    // crash can never take back.
    let base = base();
    let mut image = base.header.clone();
    let mut boundaries = vec![image.len()];
    for f in &base.frames {
        image.extend_from_slice(f);
        boundaries.push(image.len());
    }
    for cut in base.header.len()..=image.len() {
        let rec = recover_bytes(&image[..cut]);
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        assert_eq!(
            rec.records.len(),
            complete,
            "truncation at byte {cut} must keep exactly the {complete} fully-written record(s)"
        );
        for (r, g) in rec.records.iter().zip(&base.records) {
            assert_eq!(r, g, "prefix records must replay byte-identically");
        }
    }
}
