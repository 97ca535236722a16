//! Crash-safe on-disk result store for the serve result cache.
//!
//! `srtw-persist` spills every cached `/analyze` result to disk so a
//! restarted process (or a respawned replica) starts warm instead of
//! cold. The store is an append-only *spill file per cache shard*,
//! reusing the journal's framing discipline from
//! [`srtw_supervisor::journal`]: each record is `u32 LE len | u32 LE
//! CRC-32 | payload`, written with a single `write` call in append mode
//! and `sync_data`'d before the append is reported durable. Reopening a
//! file truncates any torn tail first; recovery skips CRC-mismatched
//! records with a warning and never panics.
//!
//! ## On-disk format
//!
//! ```text
//! file:   DIR/r{replica}.s{shard}.spill
//! header: b"SRTWSPIL" | u32 LE version
//! record: u32 LE payload length | u32 LE CRC-32 of payload | payload
//! ```
//!
//! The payload is
//!
//! ```text
//! u64 LE generation | u128 LE canonical hash | u64 LE presentation digest
//! | u32 LE lane count | lane count × u64 LE canonical code lanes
//! | u32 LE body length | body bytes (UTF-8, verbatim)
//! ```
//!
//! The canonical hash alone is the cache key: only exact results are
//! cached, and an exact result depends on neither the request's deadline
//! nor anything else outside the parsed system. The body is replayed
//! byte-identically on a warm hit, and the canonical-form lanes let the
//! loader re-verify the content hash — a corrupt or stale entry can only
//! *miss*, never lie. Version 1 files (which also carried a deadline
//! class and a thread count) fail the version check and load cold with
//! one warning; the writer then recreates them as version 2.
//!
//! ## Sharing discipline
//!
//! Replicas share one spill directory: each replica writes only its own
//! shard files (`r{replica}.s*`), but loads *every* replica's files at
//! startup. Writes stay shared-nothing (no cross-process file is ever
//! appended by two writers), while a respawned replica inherits the
//! whole fleet's warm set.
//!
//! ## Failure policy
//!
//! Persistence must never change an HTTP status or a result byte. Any
//! open/read/write failure (ENOSPC, EACCES, malformed header, injected
//! fault) produces a typed [`PersistError`], disables the store, and the
//! service continues with a cold in-memory cache. All recovery warnings
//! carry the file path and byte offset and are printed with a uniform
//! `srtw-persist:` prefix so replica logs are machine-greppable.

use srtw_supervisor::journal::{crc32, frame, FrameScanner, ScannedFrame};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic bytes opening every spill file.
pub const SPILL_MAGIC: &[u8; 8] = b"SRTWSPIL";
/// Current on-disk format version.
pub const SPILL_VERSION: u32 = 2;
/// Header size: magic + version.
pub const SPILL_HEADER_BYTES: usize = 8 + 4;
/// Upper bound on a single spill payload (mirrors the journal's cap).
const MAX_SPILL_BYTES: usize = 1 << 26;

/// How a persistence failure is classified for the typed warning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistErrorKind {
    /// `ENOSPC`: the disk is full.
    NoSpace,
    /// `EACCES`/`EPERM`: the store is not writable.
    Denied,
    /// Any other I/O failure.
    Io,
}

impl PersistErrorKind {
    fn as_str(self) -> &'static str {
        match self {
            PersistErrorKind::NoSpace => "enospc",
            PersistErrorKind::Denied => "eacces",
            PersistErrorKind::Io => "io",
        }
    }
}

/// A typed persistence failure: what broke, where, and why. Serve and
/// batch print it (with the uniform `srtw-persist:` prefix) and continue
/// cold — persistence failure never changes an HTTP status or a result
/// byte.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistError {
    /// Failure class (drives the typed prefix in the warning).
    pub kind: PersistErrorKind,
    /// The file or directory involved.
    pub path: PathBuf,
    /// The underlying OS error text.
    pub detail: String,
}

impl PersistError {
    /// Classifies an `io::Error` against the path it hit.
    pub fn classify(path: &Path, err: &io::Error) -> PersistError {
        let kind = match err.raw_os_error() {
            Some(28) => PersistErrorKind::NoSpace, // ENOSPC
            Some(13) | Some(1) => PersistErrorKind::Denied, // EACCES / EPERM
            _ if err.kind() == io::ErrorKind::PermissionDenied => PersistErrorKind::Denied,
            _ => PersistErrorKind::Io,
        };
        PersistError {
            kind,
            path: path.to_path_buf(),
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}: {}",
            self.path.display(),
            self.kind.as_str(),
            self.detail
        )
    }
}

/// One recovery warning from loading a spill directory, pinned to the
/// file and byte offset where the damage was found. Displays with the
/// uniform machine-greppable prefix:
/// `srtw-persist: PATH: byte OFFSET: MESSAGE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillWarning {
    /// The spill file involved.
    pub path: PathBuf,
    /// Byte offset in the file where the problem starts.
    pub offset: usize,
    /// What was skipped or truncated.
    pub message: String,
}

impl fmt::Display for SpillWarning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "srtw-persist: {}: byte {}: {}",
            self.path.display(),
            self.offset,
            self.message
        )
    }
}

/// Which way an injected persistence fault breaks the append.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistFaultKind {
    /// Truncate the record mid-frame (a crash between `write` and the
    /// record's final byte): the spill tail is torn.
    Torn,
    /// Flip one payload byte before writing the full frame: framing is
    /// intact but the CRC no longer matches.
    Corrupt,
    /// Report `ENOSPC` without writing anything: the disk "fills up" at
    /// exactly this append.
    Enospc,
}

/// Deterministic spill-write fault: breaks the `at_record`-th append
/// (1-based, counted across all shards) and disables the store, exactly
/// as a real failure would. Parsed from `pers-torn@N` / `pers-corrupt@N`
/// / `pers-enospc@N`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PersistFault {
    /// Which append (1-based) to break.
    pub at_record: u64,
    /// How to break it.
    pub kind: PersistFaultKind,
}

impl PersistFault {
    /// Parses `pers-torn@N` / `pers-corrupt@N` / `pers-enospc@N`. Returns
    /// `None` when the spec is not persist-fault grammar at all (so other
    /// fault layers can claim it), `Some(Err)` when it is but the count
    /// is malformed.
    pub fn parse(spec: &str) -> Option<Result<PersistFault, String>> {
        let (kind_str, n) = spec.split_once('@')?;
        let kind = match kind_str {
            "pers-torn" => PersistFaultKind::Torn,
            "pers-corrupt" => PersistFaultKind::Corrupt,
            "pers-enospc" => PersistFaultKind::Enospc,
            _ => return None,
        };
        Some(match n.parse::<u64>() {
            Ok(at) if at >= 1 => Ok(PersistFault { at_record: at, kind }),
            _ => Err(format!(
                "bad persist fault '{spec}': expected {kind_str}@N with N >= 1"
            )),
        })
    }
}

impl fmt::Display for PersistFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            PersistFaultKind::Torn => "pers-torn",
            PersistFaultKind::Corrupt => "pers-corrupt",
            PersistFaultKind::Enospc => "pers-enospc",
        };
        write!(f, "{kind}@{}", self.at_record)
    }
}

/// One spilled cache entry: the cache key, the canonical-form code
/// lanes (so the loader can re-verify the content hash), and the rendered
/// body verbatim (so a warm hit replays byte-identical bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillRecord {
    /// Monotone per-store insertion counter; the loader replays records
    /// in ascending generation order so LRU recency survives a restart.
    pub generation: u64,
    /// 128-bit canonical content hash (the cache key).
    pub canon: u128,
    /// Presentation digest (names/order) — second verification key.
    pub presentation: u64,
    /// The canonical form's code lanes, verbatim.
    pub form: Vec<u64>,
    /// The rendered response body, verbatim.
    pub body: String,
}

impl SpillRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.form.len() * 8 + self.body.len());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.canon.to_le_bytes());
        out.extend_from_slice(&self.presentation.to_le_bytes());
        out.extend_from_slice(&(self.form.len() as u32).to_le_bytes());
        for lane in &self.form {
            out.extend_from_slice(&lane.to_le_bytes());
        }
        out.extend_from_slice(&(self.body.len() as u32).to_le_bytes());
        out.extend_from_slice(self.body.as_bytes());
        out
    }

    fn decode(payload: &[u8]) -> Option<SpillRecord> {
        let mut cur = Cursor {
            buf: payload,
            pos: 0,
        };
        let generation = cur.take_u64()?;
        let canon = cur.take_u128()?;
        let presentation = cur.take_u64()?;
        let lanes = cur.take_u32()? as usize;
        if lanes > MAX_SPILL_BYTES / 8 {
            return None;
        }
        let mut form = Vec::with_capacity(lanes);
        for _ in 0..lanes {
            form.push(cur.take_u64()?);
        }
        let blen = cur.take_u32()? as usize;
        if blen > MAX_SPILL_BYTES {
            return None;
        }
        let body = String::from_utf8(cur.take(blen)?.to_vec()).ok()?;
        if cur.pos != payload.len() {
            return None;
        }
        Some(SpillRecord {
            generation,
            canon,
            presentation,
            form,
            body,
        })
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Option<&[u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    fn take_u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn take_u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    fn take_u128(&mut self) -> Option<u128> {
        Some(u128::from_le_bytes(self.take(16)?.try_into().ok()?))
    }
}

/// What [`load_dir`] salvaged from a spill directory.
#[derive(Debug, Clone, Default)]
pub struct SpillLoad {
    /// Every intact record across all spill files, de-duplicated by
    /// canonical hash and presentation digest (latest generation wins), sorted ascending by generation
    /// so replaying them in order reconstructs LRU recency.
    pub records: Vec<SpillRecord>,
    /// Recovery warnings — anything skipped, truncated, or unreadable.
    pub warnings: Vec<SpillWarning>,
}

/// Reads every `*.spill` file in `dir`, salvaging every intact record.
/// Tolerates missing directories, unreadable files, malformed headers,
/// torn tails, and bit corruption; never panics and never errors — a
/// broken spill set loads as a smaller (possibly empty) warm set plus
/// warnings.
pub fn load_dir(dir: &Path) -> SpillLoad {
    let mut load = SpillLoad::default();
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return load,
        Err(err) => {
            load.warnings.push(SpillWarning {
                path: dir.to_path_buf(),
                offset: 0,
                message: format!("cannot list spill directory: {err}"),
            });
            return load;
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "spill"))
        .collect();
    paths.sort();
    let mut best: std::collections::HashMap<(u128, u64), SpillRecord> = Default::default();
    for path in paths {
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(err) => {
                load.warnings.push(SpillWarning {
                    path: path.clone(),
                    offset: 0,
                    message: format!("cannot read spill file: {err}"),
                });
                continue;
            }
        };
        scan_spill(&path, &bytes, &mut best, &mut load.warnings);
    }
    load.records = best.into_values().collect();
    load.records.sort_by_key(|r| r.generation);
    load
}

fn scan_spill(
    path: &Path,
    bytes: &[u8],
    best: &mut std::collections::HashMap<(u128, u64), SpillRecord>,
    warnings: &mut Vec<SpillWarning>,
) {
    if bytes.len() < SPILL_HEADER_BYTES || &bytes[..8] != SPILL_MAGIC {
        warnings.push(SpillWarning {
            path: path.to_path_buf(),
            offset: 0,
            message: "spill header missing or malformed; file ignored".into(),
        });
        return;
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().unwrap());
    if version != SPILL_VERSION {
        warnings.push(SpillWarning {
            path: path.to_path_buf(),
            offset: 0,
            message: format!(
                "spill format version {version}, expected {SPILL_VERSION}; file ignored"
            ),
        });
        return;
    }
    let mut index = 0u64;
    for item in FrameScanner::new(bytes, SPILL_HEADER_BYTES) {
        index += 1;
        match item {
            ScannedFrame::Trailing {
                offset,
                bytes: rest,
            } => warnings.push(SpillWarning {
                path: path.to_path_buf(),
                offset,
                message: format!(
                    "torn tail: {rest} trailing byte(s) after record {} — dropped",
                    index - 1
                ),
            }),
            ScannedFrame::Torn {
                offset,
                declared,
                available,
            } => warnings.push(SpillWarning {
                path: path.to_path_buf(),
                offset,
                message: format!(
                    "torn or corrupt frame at record {index} (declared {declared} bytes, \
                     {available} available) — spill truncated here"
                ),
            }),
            ScannedFrame::BadCrc { offset } => warnings.push(SpillWarning {
                path: path.to_path_buf(),
                offset,
                message: format!("CRC mismatch on record {index} — record skipped"),
            }),
            ScannedFrame::Payload { offset, payload } => match SpillRecord::decode(payload) {
                Some(rec) => {
                    let key = (rec.canon, rec.presentation);
                    match best.get(&key) {
                        Some(have) if have.generation >= rec.generation => {}
                        _ => {
                            best.insert(key, rec);
                        }
                    }
                }
                None => warnings.push(SpillWarning {
                    path: path.to_path_buf(),
                    offset,
                    message: format!(
                        "record {index} has a valid CRC but does not decode — record skipped"
                    ),
                }),
            },
        }
    }
}

/// The crash-safe spill store: one append-only file per cache shard,
/// owned exclusively by this replica. Appends are framed, CRC'd, written
/// in one call, and `sync_data`'d. The first append error (real or
/// injected) disables the store permanently — the in-memory cache keeps
/// serving, cold for new entries.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    replica: usize,
    shards: Vec<Mutex<Option<File>>>,
    generation: AtomicU64,
    appends: AtomicU64,
    fault: Option<PersistFault>,
    disabled: AtomicBool,
}

impl Store {
    /// The spill file this replica writes for the given shard.
    pub fn shard_path(dir: &Path, replica: usize, shard: usize) -> PathBuf {
        dir.join(format!("r{replica}.s{shard}.spill"))
    }

    /// Opens the store for `replica` over `dir` with `shard_count` shard
    /// files, creating the directory if needed. `next_generation` seeds
    /// the insertion clock (pass max loaded generation + 1 so recency
    /// keeps advancing across restarts). Fails typed when the directory
    /// cannot be created — the caller warns and runs cold.
    pub fn open(
        dir: &Path,
        replica: usize,
        shard_count: usize,
        next_generation: u64,
        fault: Option<PersistFault>,
    ) -> Result<Store, PersistError> {
        fs::create_dir_all(dir).map_err(|e| PersistError::classify(dir, &e))?;
        Ok(Store {
            dir: dir.to_path_buf(),
            replica,
            shards: (0..shard_count).map(|_| Mutex::new(None)).collect(),
            generation: AtomicU64::new(next_generation),
            appends: AtomicU64::new(0),
            fault,
            disabled: AtomicBool::new(false),
        })
    }

    /// True once an append or open has failed: the store no longer writes
    /// and the cache continues cold for new entries.
    pub fn disabled(&self) -> bool {
        self.disabled.load(Ordering::Relaxed)
    }

    /// Appends one entry to the given shard's spill file durably, stamping
    /// the next generation. On any failure (real I/O error or injected
    /// fault) the store disables itself and returns the typed error once;
    /// later appends are silent no-ops. The caller must never let this
    /// error change a response.
    pub fn append(
        &self,
        shard: usize,
        canon: u128,
        presentation: u64,
        form: &[u64],
        body: &str,
    ) -> Result<(), PersistError> {
        if self.disabled() {
            return Ok(());
        }
        let rec = SpillRecord {
            generation: self.generation.fetch_add(1, Ordering::Relaxed),
            canon,
            presentation,
            form: form.to_vec(),
            body: body.to_string(),
        };
        let path = Store::shard_path(&self.dir, self.replica, shard % self.shards.len());
        let result = self.append_record(shard % self.shards.len(), &path, &rec);
        if result.is_err() {
            self.disabled.store(true, Ordering::Relaxed);
        }
        result
    }

    fn append_record(&self, shard: usize, path: &Path, rec: &SpillRecord) -> Result<(), PersistError> {
        let mut guard = self.shards[shard].lock().unwrap();
        if guard.is_none() {
            *guard = Some(open_shard(path).map_err(|e| PersistError::classify(path, &e))?);
        }
        let file = guard.as_mut().unwrap();
        let payload = rec.encode();
        let mut framed = frame(&payload);
        let n = self.appends.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(fault) = self.fault {
            if fault.at_record == n {
                match fault.kind {
                    PersistFaultKind::Torn => {
                        // Stop mid-frame: keep the length word and roughly
                        // half the payload, like a crash between write()
                        // and the final byte reaching the disk.
                        let cut = (8 + payload.len() / 2).min(framed.len() - 1);
                        framed.truncate(cut);
                    }
                    PersistFaultKind::Corrupt => {
                        framed[8 + payload.len() / 2] ^= 0x20;
                    }
                    PersistFaultKind::Enospc => {
                        return Err(PersistError {
                            kind: PersistErrorKind::NoSpace,
                            path: path.to_path_buf(),
                            detail: format!("injected persist fault {fault} fired on append {n}"),
                        });
                    }
                }
                let write = file
                    .write_all(&framed)
                    .and_then(|()| file.sync_data())
                    .map_err(|e| PersistError::classify(path, &e));
                return write.and(Err(PersistError {
                    kind: PersistErrorKind::Io,
                    path: path.to_path_buf(),
                    detail: format!("injected persist fault {fault} fired on append {n}"),
                }));
            }
        }
        file.write_all(&framed)
            .and_then(|()| file.sync_data())
            .map_err(|e| PersistError::classify(path, &e))
    }
}

/// Opens (or creates) one shard spill file for appending. An existing
/// file gets its torn tail truncated first — recovery stops scanning at a
/// torn frame, so appending after one would write records no future load
/// can see. A file with a malformed header is recreated from scratch:
/// spill data is a cache, so losing it is always safe.
fn open_shard(path: &Path) -> io::Result<File> {
    match fs::read(path) {
        Err(err) if err.kind() == io::ErrorKind::NotFound => {
            let mut file = OpenOptions::new().append(true).create(true).open(path)?;
            let mut header = Vec::with_capacity(SPILL_HEADER_BYTES);
            header.extend_from_slice(SPILL_MAGIC);
            header.extend_from_slice(&SPILL_VERSION.to_le_bytes());
            file.write_all(&header)?;
            file.sync_data()?;
            Ok(file)
        }
        Err(err) => Err(err),
        Ok(bytes) => {
            let keep = if bytes.len() < SPILL_HEADER_BYTES
                || &bytes[..8] != SPILL_MAGIC
                || u32::from_le_bytes(bytes[8..12].try_into().unwrap()) != SPILL_VERSION
            {
                0
            } else {
                FrameScanner::valid_end(&bytes, SPILL_HEADER_BYTES)
            };
            if keep < bytes.len() || keep == 0 {
                let trunc = OpenOptions::new().write(true).open(path)?;
                trunc.set_len(keep as u64)?;
                trunc.sync_data()?;
            }
            let mut file = OpenOptions::new().append(true).open(path)?;
            if keep == 0 {
                let mut header = Vec::with_capacity(SPILL_HEADER_BYTES);
                header.extend_from_slice(SPILL_MAGIC);
                header.extend_from_slice(&SPILL_VERSION.to_le_bytes());
                file.write_all(&header)?;
                file.sync_data()?;
            }
            Ok(file)
        }
    }
}

/// Exposes [`crc32`] so fuzz harnesses can re-frame mutated payloads
/// without reaching into `srtw-supervisor` directly.
pub fn payload_crc(bytes: &[u8]) -> u32 {
    crc32(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("srtw-persist-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        fs::create_dir_all(&p).unwrap();
        p
    }

    fn rec(gen: u64, canon: u128, body: &str) -> SpillRecord {
        SpillRecord {
            generation: gen,
            canon,
            presentation: canon as u64 ^ 0xdead,
            form: vec![1, 2, 3, canon as u64],
            body: body.to_string(),
        }
    }

    fn append_all(store: &Store, recs: &[SpillRecord]) {
        for r in recs {
            store
                .append(
                    (r.canon as usize) & 7,
                    r.canon,
                    r.presentation,
                    &r.form,
                    &r.body,
                )
                .unwrap();
        }
    }

    #[test]
    fn round_trips_across_shards() {
        let dir = tmpdir("roundtrip");
        let store = Store::open(&dir, 0, 8, 1, None).unwrap();
        let recs: Vec<SpillRecord> = (0..20).map(|i| rec(0, i as u128, &format!("body {i}\n"))).collect();
        append_all(&store, &recs);
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert!(load.warnings.is_empty(), "{:?}", load.warnings);
        assert_eq!(load.records.len(), recs.len());
        // Ascending generation = insertion order.
        for (i, r) in load.records.iter().enumerate() {
            assert_eq!(r.canon, i as u128);
            assert_eq!(r.body, format!("body {i}\n"));
            assert_eq!(r.form, vec![1, 2, 3, i as u64]);
        }
    }

    #[test]
    fn latest_generation_wins_on_duplicate_keys() {
        let dir = tmpdir("dedup");
        let store = Store::open(&dir, 0, 8, 1, None).unwrap();
        append_all(&store, &[rec(0, 5, "old\n"), rec(0, 5, "new\n")]);
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(load.records.len(), 1);
        assert_eq!(load.records[0].body, "new\n");
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_reopen() {
        let dir = tmpdir("torn");
        let store = Store::open(&dir, 0, 1, 1, None).unwrap();
        append_all(&store, &[rec(0, 1, "one\n"), rec(0, 2, "two\n")]);
        drop(store);
        let path = Store::shard_path(&dir, 0, 0);
        let full = fs::read(&path).unwrap();
        fs::write(&path, &full[..full.len() - 3]).unwrap();
        let load = load_dir(&dir);
        assert_eq!(load.records.len(), 1);
        assert_eq!(load.records[0].body, "one\n");
        assert_eq!(load.warnings.len(), 1);
        assert!(load.warnings[0].to_string().starts_with("srtw-persist: "));
        // Reopen-for-append truncates the torn tail, then the new record
        // lands where every future load can see it.
        let store = Store::open(&dir, 0, 1, 10, None).unwrap();
        append_all(&store, &[rec(0, 3, "three\n")]);
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert!(load.warnings.is_empty(), "{:?}", load.warnings);
        let bodies: Vec<&str> = load.records.iter().map(|r| r.body.as_str()).collect();
        assert_eq!(bodies, ["one\n", "three\n"]);
    }

    #[test]
    fn crc_mismatch_skips_one_record() {
        let dir = tmpdir("crc");
        let store = Store::open(&dir, 0, 1, 1, None).unwrap();
        append_all(&store, &[rec(0, 1, "one\n"), rec(0, 2, "two\n")]);
        drop(store);
        let path = Store::shard_path(&dir, 0, 0);
        let mut bytes = fs::read(&path).unwrap();
        bytes[SPILL_HEADER_BYTES + 8 + 4] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(load.records.len(), 1);
        assert_eq!(load.records[0].body, "two\n");
        assert!(load.warnings.iter().any(|w| w.message.contains("CRC")));
        assert!(load.warnings[0].offset >= SPILL_HEADER_BYTES);
    }

    #[test]
    fn malformed_header_is_ignored_then_recreated() {
        let dir = tmpdir("header");
        let path = Store::shard_path(&dir, 0, 0);
        fs::write(&path, b"garbage, not a spill file").unwrap();
        let load = load_dir(&dir);
        assert!(load.records.is_empty());
        assert!(load.warnings.iter().any(|w| w.message.contains("header")));
        // The writer recreates the file; the cache entry lands cleanly.
        let store = Store::open(&dir, 0, 1, 1, None).unwrap();
        append_all(&store, &[rec(0, 9, "nine\n")]);
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert!(load.warnings.is_empty(), "{:?}", load.warnings);
        assert_eq!(load.records.len(), 1);
    }

    #[test]
    fn version_one_spill_loads_cold_then_is_rewritten_as_version_two() {
        let dir = tmpdir("v1");
        let path = Store::shard_path(&dir, 0, 0);
        // A version-1 header followed by one intact frame: the frame must
        // not be read, whatever it holds.
        let mut old = SPILL_MAGIC.to_vec();
        old.extend_from_slice(&1u32.to_le_bytes());
        old.extend_from_slice(&frame(&rec(1, 4, "old\n").encode()));
        fs::write(&path, &old).unwrap();
        let load = load_dir(&dir);
        assert!(load.records.is_empty());
        assert_eq!(load.warnings.len(), 1, "{:?}", load.warnings);
        assert_eq!(load.warnings[0].path, path);
        assert_eq!(load.warnings[0].offset, 0);
        assert!(load.warnings[0].to_string().starts_with("srtw-persist: "));
        assert!(load.warnings[0].message.contains("version 1"));
        // The writer recreates the file under the current header, and a
        // new append round-trips.
        let store = Store::open(&dir, 0, 1, 1, None).unwrap();
        append_all(&store, &[rec(0, 8, "eight\n")]);
        let bytes = fs::read(&path).unwrap();
        assert_eq!(&bytes[..8], SPILL_MAGIC);
        assert_eq!(bytes[8..12], SPILL_VERSION.to_le_bytes());
        assert_eq!(SPILL_VERSION, 2);
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert!(load.warnings.is_empty(), "{:?}", load.warnings);
        assert_eq!(load.records.len(), 1);
        assert_eq!(load.records[0].canon, 8);
        assert_eq!(load.records[0].body, "eight\n");
    }

    #[test]
    fn replicas_share_reads_but_not_writes() {
        let dir = tmpdir("replicas");
        let a = Store::open(&dir, 0, 8, 1, None).unwrap();
        let b = Store::open(&dir, 1, 8, 1, None).unwrap();
        append_all(&a, &[rec(0, 1, "from a\n")]);
        append_all(&b, &[rec(0, 2, "from b\n")]);
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(load.records.len(), 2);
    }

    #[test]
    fn fault_parse_grammar() {
        assert!(matches!(
            PersistFault::parse("pers-torn@3"),
            Some(Ok(PersistFault {
                at_record: 3,
                kind: PersistFaultKind::Torn
            }))
        ));
        assert!(matches!(
            PersistFault::parse("pers-enospc@1"),
            Some(Ok(PersistFault {
                at_record: 1,
                kind: PersistFaultKind::Enospc
            }))
        ));
        assert!(PersistFault::parse("pers-torn@0").unwrap().is_err());
        assert!(PersistFault::parse("pers-corrupt@x").unwrap().is_err());
        assert!(PersistFault::parse("torn@1").is_none());
        assert!(PersistFault::parse("abort").is_none());
    }

    #[test]
    fn torn_fault_disables_store_and_leaves_recoverable_file() {
        let dir = tmpdir("fault-torn");
        let store = Store::open(
            &dir,
            0,
            1,
            1,
            Some(PersistFault {
                at_record: 2,
                kind: PersistFaultKind::Torn,
            }),
        )
        .unwrap();
        store.append(0, 1, 11, &[1], "one\n").unwrap();
        let err = store.append(0, 2, 22, &[2], "two\n").unwrap_err();
        assert_eq!(err.kind, PersistErrorKind::Io);
        assert!(store.disabled());
        // Disabled: further appends are silent no-ops.
        store.append(0, 3, 33, &[3], "three\n").unwrap();
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(load.records.len(), 1);
        assert_eq!(load.records[0].body, "one\n");
        assert!(!load.warnings.is_empty());
    }

    #[test]
    fn enospc_fault_yields_typed_error() {
        let dir = tmpdir("fault-enospc");
        let store = Store::open(
            &dir,
            0,
            1,
            1,
            Some(PersistFault {
                at_record: 1,
                kind: PersistFaultKind::Enospc,
            }),
        )
        .unwrap();
        let err = store.append(0, 1, 11, &[1], "one\n").unwrap_err();
        assert_eq!(err.kind, PersistErrorKind::NoSpace);
        assert!(err.to_string().contains("enospc"));
        assert!(store.disabled());
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert!(load.records.is_empty());
    }

    #[test]
    fn denied_directory_is_a_typed_open_error() {
        // A directory path that is actually a file: create_dir_all fails
        // with a plain Io error; the point is the typed, non-panicking
        // degradation path.
        let dir = tmpdir("denied");
        let file_as_dir = dir.join("not-a-dir");
        fs::write(&file_as_dir, b"x").unwrap();
        let err = Store::open(&file_as_dir, 0, 1, 1, None).unwrap_err();
        fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(
            err.kind,
            PersistErrorKind::Io | PersistErrorKind::Denied
        ));
    }

    #[test]
    fn load_missing_directory_is_empty_and_quiet() {
        let mut p = std::env::temp_dir();
        p.push(format!("srtw-persist-missing-{}", std::process::id()));
        let load = load_dir(&p);
        assert!(load.records.is_empty());
        assert!(load.warnings.is_empty());
    }

    #[test]
    fn generation_clock_resumes_past_loaded_records() {
        let dir = tmpdir("genclock");
        let store = Store::open(&dir, 0, 1, 1, None).unwrap();
        append_all(&store, &[rec(0, 1, "one\n"), rec(0, 2, "two\n")]);
        drop(store);
        let load = load_dir(&dir);
        let next = load.records.iter().map(|r| r.generation).max().unwrap() + 1;
        let store = Store::open(&dir, 0, 1, next, None).unwrap();
        // Overwrite key 1: must win the dedup because its generation is
        // newer than the loaded one.
        store.append(0, 1, 1u64 ^ 0xdead, &[9], "newer\n").unwrap();
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        let one: Vec<&SpillRecord> = load.records.iter().filter(|r| r.canon == 1).collect();
        assert_eq!(one.len(), 1, "same key dedups");
        assert_eq!(one[0].body, "newer\n", "newer generation must win");
    }
}
