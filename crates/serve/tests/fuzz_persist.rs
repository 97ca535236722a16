//! Seeded fuzz suite for spill-store recovery.
//!
//! Random structural and byte-level mutations of a genuine spill image
//! (truncations, bit flips, duplicated slices, stale-generation
//! duplicates, and pure noise) are fed to `srtw_persist::load_dir`.
//! Four invariants:
//!
//! 1. loading never panics — every image, however mangled, yields a
//!    `SpillLoad`;
//! 2. loading never *invents* a result: every record it salvages must
//!    be byte-identical (key, form, and body alike) to one that was
//!    genuinely spilled — so a warm hit can never replay bytes that
//!    were never stored, and the serve-side verification (the key
//!    re-hashed from the presentation code) can never be handed a
//!    wrong body that passes;
//! 3. dedup holds — no two salvaged records share a cache key;
//! 4. among genuine duplicates of one key, the survivor carries the
//!    highest generation present (stale spills never shadow newer
//!    ones).
//!
//! Case counts follow `SRTW_PROP_CASES` (default 64); failures print a
//! `SRTW_PROP_REPLAY=<seed>:<size>` handle for exact reproduction.

use srtw_detrand::prop::forall;
use srtw_detrand::Rng;
use srtw_persist::{load_dir, SpillRecord, Store, SPILL_HEADER_BYTES};
use std::path::PathBuf;
use std::sync::OnceLock;

/// The genuine records the fuzz cases start from, plus each record's
/// exact on-disk frame bytes (captured by writing a one-record spill
/// file and stripping the header). Two of the records share a
/// cache key at different generations — the "stale duplicate" pair.
struct Base {
    records: Vec<SpillRecord>,
    frames: Vec<Vec<u8>>,
    header: Vec<u8>,
}

fn base() -> &'static Base {
    static BASE: OnceLock<Base> = OnceLock::new();
    BASE.get_or_init(|| {
        // (canon, body). The last entry reuses the first
        // key with a different body and a later generation: a genuine
        // re-spill of the same cache slot.
        let specs: [(u128, &str); 5] = [
            (0x1111, "{\"scheduler\":\"fifo\",\"n\":1}\n"),
            (0x2222, "{\"scheduler\":\"fifo\",\"n\":2}\n"),
            (0x3333, "{\"scheduler\":\"fifo\",\"n\":3}\n"),
            (0x4444, "{\"scheduler\":\"fifo\",\"n\":4}\n"),
            (0x1111, "{\"scheduler\":\"fifo\",\"n\":5}\n"),
        ];
        let mut records = Vec::new();
        let mut frames = Vec::new();
        let mut header = Vec::new();
        for (i, (canon, body)) in specs.into_iter().enumerate() {
            let dir = tmp(&format!("frame-{i}"));
            let _ = std::fs::remove_dir_all(&dir);
            let store = Store::open(&dir, 0, 1, i as u64, None, |_| {}).unwrap();
            let form = vec![canon as u64, 7, i as u64];
            store.append(0, canon, &form, body).unwrap();
            let bytes = std::fs::read(Store::shard_path(&dir, 0, 0)).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            if header.is_empty() {
                header = bytes[..SPILL_HEADER_BYTES].to_vec();
            }
            frames.push(bytes[SPILL_HEADER_BYTES..].to_vec());
            records.push(SpillRecord {
                generation: i as u64,
                canon,
                form,
                body: body.to_string(),
            });
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
    p.push(format!("srtw-fuzz-persist-{}-{name}", std::process::id()));
    p
}

/// One seeded spill image: the genuine frames in a random order (with
/// possible duplicates — including the stale-generation pair), then
/// `size`-scaled byte-level mutations.
fn mutated(rng: &mut Rng, size: u32) -> Vec<u8> {
    let base = base();
    let mut image = base.header.clone();
    let picks = rng.random_range(0usize..base.frames.len() * 2);
    for _ in 0..picks {
        let f = rng.random_range(0usize..base.frames.len());
        image.extend_from_slice(&base.frames[f]);
    }
    let mutations = (size as usize) / 8;
    for _ in 0..mutations {
        match rng.random_range(0u32..5) {
            // Flip a random bit.
            0 if !image.is_empty() => {
                let i = rng.random_range(0usize..image.len());
                image[i] ^= 1 << rng.random_range(0u32..8);
            }
            // Truncate at a random point (torn tail; may eat the header).
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
fn mutated_spills_load_without_panics_or_invented_records() {
    let genuine = &base().records;
    let dir = tmp("mutated");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    forall("spill loading tolerates arbitrary corruption", mutated, |image| {
        let path = dir.join("r0.s0.spill");
        std::fs::write(&path, image).unwrap();
        let load = load_dir(&dir);
        for r in &load.records {
            // Invariant 2: every salvaged record is byte-identical to a
            // genuinely spilled one — no invented bodies, so the warm
            // cache can never hand back bytes that were never stored.
            assert!(
                genuine.iter().any(|g| g == r),
                "loading invented a record for key {:x?} that was never spilled",
                r.canon
            );
        }
        // Invariant 3: key dedup.
        for (i, r) in load.records.iter().enumerate() {
            assert!(
                load.records[..i].iter().all(|p| p.canon != r.canon),
                "duplicate cache key {:x?} survived loading",
                r.canon
            );
        }
    });
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncation_sweep_keeps_exactly_the_fully_synced_prefix() {
    // Deterministic sweep, not seeded: for every possible truncation
    // point of an intact image, loading yields exactly the (deduped)
    // records whose frames fit wholly inside the prefix —
    // write-then-sync per append means those are the entries a crash
    // can never take back, and nothing torn ever surfaces.
    let base = base();
    let dir = tmp("sweep");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut image = base.header.clone();
    let mut boundaries = vec![image.len()];
    for f in &base.frames {
        image.extend_from_slice(f);
        boundaries.push(image.len());
    }
    for cut in base.header.len()..=image.len() {
        let path = dir.join("r0.s0.spill");
        std::fs::write(&path, &image[..cut]).unwrap();
        let load = load_dir(&dir);
        let complete = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        // The stale-generation pair dedups once both frames fit.
        let expected = if complete == base.records.len() {
            complete - 1
        } else {
            complete
        };
        assert_eq!(
            load.records.len(),
            expected,
            "truncation at byte {cut} must keep exactly the {expected} fully-written record(s)"
        );
        if complete < base.records.len() {
            for (r, g) in load.records.iter().zip(&base.records) {
                assert_eq!(r, g, "prefix records must replay byte-identically");
            }
        }
        assert_eq!(
            cut == image.len() || cut == boundaries[complete],
            load.warnings.is_empty(),
            "a mid-frame cut at byte {cut} must warn; a clean boundary must not"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_generations_never_shadow_newer_spills() {
    // The same cache key spilled at generations 0 and 4 (frames 0 and 4
    // of the base image): whatever order the frames land in the file —
    // and even when the stale one is duplicated — the survivor is the
    // newest body.
    let base = base();
    let stale = &base.frames[0];
    let fresh = &base.frames[4];
    let newest = &base.records[4];
    for arrangement in [
        vec![stale, fresh],
        vec![fresh, stale],
        vec![stale, fresh, stale],
        vec![fresh, stale, stale],
    ] {
        let dir = tmp("stale");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let mut image = base.header.clone();
        for f in &arrangement {
            image.extend_from_slice(f);
        }
        std::fs::write(dir.join("r0.s0.spill"), &image).unwrap();
        let load = load_dir(&dir);
        let survivor = load
            .records
            .iter()
            .find(|r| r.canon == newest.canon)
            .expect("the duplicated key must survive");
        assert_eq!(
            survivor, newest,
            "the newest generation must win regardless of frame order"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn cross_file_duplicates_resolve_to_the_newest_generation() {
    // Replica 0 spilled the key long ago; replica 1 re-spilled it later.
    // A warm load over the shared directory must pick replica 1's body —
    // this is what makes a respawned replica inherit the fleet's newest
    // results rather than its own stale ones.
    let base = base();
    let dir = tmp("cross");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let mut old_image = base.header.clone();
    old_image.extend_from_slice(&base.frames[0]);
    let mut new_image = base.header.clone();
    new_image.extend_from_slice(&base.frames[4]);
    std::fs::write(dir.join("r0.s0.spill"), &old_image).unwrap();
    std::fs::write(dir.join("r1.s0.spill"), &new_image).unwrap();
    let load = load_dir(&dir);
    assert_eq!(load.records.len(), 1, "one key, one survivor");
    assert_eq!(&load.records[0], &base.records[4]);
    assert!(load.warnings.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
