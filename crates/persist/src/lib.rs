//! Crash-safe on-disk result store for the serve result cache.
//!
//! `srtw-persist` spills every cached `/analyze` result to disk so a
//! restarted process (or a respawned replica) starts warm instead of
//! cold. The store is an append-only *spill file per cache shard*, each
//! a [`srtw_supervisor::framed`] log — the one CRC-framed, fsync'd-per-
//! record format the batch journal is written in too. Reopening a file
//! truncates any torn tail first; recovery skips CRC-mismatched records
//! with a warning and never panics. This crate keeps only the spill
//! format's magic, version, record codec and record policy.
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
//! u64 LE generation | u128 LE cache key
//! | u32 LE lane count | lane count × u64 LE presentation-code lanes
//! | u32 LE body length | body bytes (UTF-8, verbatim)
//! ```
//!
//! The key is the 128-bit hash of the parsed system's presentation code
//! (the system as presented: names, labels, order and every number).
//! Only exact results are cached, and an exact result depends on neither
//! the request's deadline nor anything else outside the parsed system.
//! The body is replayed byte-identically on a warm hit, and the code
//! lanes let the loader re-verify the key — a corrupt or stale entry can
//! only *miss*, never lie. Files of an earlier version fail the version
//! check and load cold with one warning each; [`Store::open`] recreates
//! its own replica's stale files, empty under the current header, so each
//! warns on one start only.
//! Version 1 also carried a deadline class and a thread count; version 2
//! keyed on an isomorphism-invariant canonical form plus a presentation
//! digest.
//!
//! ## Record policy
//!
//! Of several records with one key, across every file, the latest
//! generation wins. Replicas share
//! one spill directory: each replica writes only its own shard files
//! (`r{replica}.s*`), but loads *every* replica's files at startup.
//! Writes stay shared-nothing (no cross-process file is ever appended by
//! two writers), while a respawned replica inherits the whole fleet's
//! warm set.
//!
//! ## Failure policy
//!
//! Persistence must never change an HTTP status or a result byte. Any
//! open/read/write failure (ENOSPC, EACCES, malformed header, injected
//! fault) produces a typed [`PersistError`], disables the store, and the
//! service continues with a cold in-memory cache. All recovery warnings
//! carry the file path and byte offset and are printed with a uniform
//! `srtw-persist:` prefix so replica logs are machine-greppable.

use srtw_supervisor::framed::{self, put_str, Cursor, LogFormat, LogWarning, WriteFault};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// Magic bytes opening every spill file.
pub const SPILL_MAGIC: &[u8; 8] = b"SRTWSPIL";
/// Current on-disk format version.
pub const SPILL_VERSION: u32 = 3;
/// Header size: magic + version.
pub const SPILL_HEADER_BYTES: usize = 8 + 4;

const FORMAT: LogFormat = LogFormat {
    name: "spill",
    magic: SPILL_MAGIC,
    version: SPILL_VERSION,
    header_len: SPILL_HEADER_BYTES,
};

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
        let kind = match err.kind() {
            io::ErrorKind::StorageFull => PersistErrorKind::NoSpace,
            io::ErrorKind::PermissionDenied => PersistErrorKind::Denied,
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

/// One spilled cache entry: the cache key, the presentation-code lanes
/// (so the loader can re-verify the key), and the rendered
/// body verbatim (so a warm hit replays byte-identical bytes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillRecord {
    /// Monotone per-store insertion counter; the loader replays records
    /// in ascending generation order so LRU recency survives a restart.
    pub generation: u64,
    /// The cache key: the 128-bit hash of the presentation code.
    pub canon: u128,
    /// The presentation code's lanes, verbatim.
    pub form: Vec<u64>,
    /// The rendered response body, verbatim.
    pub body: String,
}

impl SpillRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.form.len() * 8 + self.body.len());
        out.extend_from_slice(&self.generation.to_le_bytes());
        out.extend_from_slice(&self.canon.to_le_bytes());
        out.extend_from_slice(&(self.form.len() as u32).to_le_bytes());
        for lane in &self.form {
            out.extend_from_slice(&lane.to_le_bytes());
        }
        put_str(&mut out, &self.body);
        out
    }

    fn decode(payload: &[u8]) -> Option<SpillRecord> {
        let mut cur = Cursor::new(payload);
        let generation = cur.take_u64()?;
        let canon = cur.take_u128()?;
        let lanes = cur.take_u32()? as usize;
        if lanes > framed::MAX_RECORD_BYTES / 8 {
            return None;
        }
        let form = (0..lanes).map(|_| cur.take_u64()).collect::<Option<Vec<u64>>>()?;
        let rec = SpillRecord {
            generation,
            canon,
            form,
            body: cur.take_str()?,
        };
        cur.at_end().then_some(rec)
    }
}

/// What [`load_dir`] salvaged from a spill directory.
#[derive(Debug, Clone, Default)]
pub struct SpillLoad {
    /// Every intact record across all spill files, de-duplicated by key
    /// (latest generation wins), sorted ascending by generation so
    /// replaying them in order reconstructs LRU recency.
    pub records: Vec<SpillRecord>,
    /// Recovery warnings — anything skipped, truncated, or unreadable.
    pub warnings: Vec<LogWarning>,
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
            let message = format!("cannot list spill directory: {err}");
            load.warnings.push(LogWarning::new(dir, 0, message));
            return load;
        }
    };
    let mut paths: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "spill"))
        .collect();
    paths.sort();
    let mut best: HashMap<u128, SpillRecord> = HashMap::new();
    for path in paths {
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(err) => {
                let message = format!("cannot read spill file: {err}");
                load.warnings.push(LogWarning::new(&path, 0, message));
                continue;
            }
        };
        let items = framed::scan(&path, &bytes, &FORMAT, &mut load.warnings, SpillRecord::decode);
        for (_, rec) in items.into_iter().flatten() {
            if best
                .get(&rec.canon)
                .is_none_or(|have| have.generation < rec.generation)
            {
                best.insert(rec.canon, rec);
            }
        }
    }
    load.records = best.into_values().collect();
    load.records.sort_by_key(|r| r.generation);
    load
}

/// The crash-safe spill store: one append-only file per cache shard,
/// owned exclusively by this replica. The first append error (real or
/// injected) disables the store permanently — the in-memory cache keeps
/// serving, cold for new entries.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    replica: usize,
    shards: Vec<Mutex<Option<File>>>,
    generation: AtomicU64,
    appends: AtomicU64,
    fault: Option<WriteFault>,
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
    /// keeps advancing across restarts). `fault` counts appends across
    /// all shards. Each of this replica's shard files whose header is not
    /// the current one (an earlier version, or malformed) is recreated
    /// empty. Fails typed when the directory cannot be created or a stale
    /// file cannot be recreated — the caller warns and runs cold.
    pub fn open(
        dir: &Path,
        replica: usize,
        shard_count: usize,
        next_generation: u64,
        fault: Option<WriteFault>,
    ) -> Result<Store, PersistError> {
        fs::create_dir_all(dir).map_err(|e| PersistError::classify(dir, &e))?;
        let shards = (0..shard_count)
            .map(|shard| {
                let path = Store::shard_path(dir, replica, shard);
                recreate_stale(&path)
                    .map(Mutex::new)
                    .map_err(|e| PersistError::classify(&path, &e))
            })
            .collect::<Result<_, _>>()?;
        Ok(Store {
            dir: dir.to_path_buf(),
            replica,
            shards,
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
        form: &[u64],
        body: &str,
    ) -> Result<(), PersistError> {
        if self.disabled() {
            return Ok(());
        }
        let rec = SpillRecord {
            generation: self.generation.fetch_add(1, Ordering::Relaxed),
            canon,
            form: form.to_vec(),
            body: body.to_string(),
        };
        let shard = shard % self.shards.len();
        let path = Store::shard_path(&self.dir, self.replica, shard);
        let mut file = self.shards[shard].lock().unwrap();
        let result = match &mut *file {
            Some(file) => Ok(file),
            None => framed::open_append(&path, &FORMAT.header_prefix()).map(|f| file.insert(f)),
        }
        .and_then(|file| {
            let n = self.appends.fetch_add(1, Ordering::Relaxed) + 1;
            framed::append(file, &rec.encode(), self.fault, n)
        })
        .map_err(|e| PersistError::classify(&path, &e));
        if result.is_err() {
            self.disabled.store(true, Ordering::Relaxed);
        }
        result
    }
}

/// Recreates the spill file at `path` under the current header when it
/// exists with another header, returning it open for append; `None` when
/// it is absent or already current (it is then opened on its first
/// append).
fn recreate_stale(path: &Path) -> io::Result<Option<File>> {
    let mut head = Vec::with_capacity(SPILL_HEADER_BYTES);
    match File::open(path) {
        Ok(file) => file.take(SPILL_HEADER_BYTES as u64).read_to_end(&mut head)?,
        Err(err) if err.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(err) => return Err(err),
    };
    if head == FORMAT.header_prefix() {
        return Ok(None);
    }
    framed::create(path, &FORMAT.header_prefix()).map(Some)
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtw_supervisor::framed::{FaultLog, WriteFaultKind};

    fn spill_fault(kind: WriteFaultKind, at_record: u64) -> Option<WriteFault> {
        Some(WriteFault {
            log: FaultLog::Spill,
            kind,
            at_record,
        })
    }

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
            form: vec![1, 2, 3, canon as u64],
            body: body.to_string(),
        }
    }

    fn append_all(store: &Store, recs: &[SpillRecord]) {
        for r in recs {
            store
                .append((r.canon as usize) & 7, r.canon, &r.form, &r.body)
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
    fn spill_payload_layout_is_pinned() {
        let payload = SpillRecord {
            generation: 7,
            canon: (5u128 << 64) | 6,
            form: vec![9, 10],
            body: "ab".to_string(),
        }
        .encode();
        let mut expected = Vec::new();
        expected.extend_from_slice(&[7, 0, 0, 0, 0, 0, 0, 0]);
        expected.extend_from_slice(&[6, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0]);
        expected.extend_from_slice(&[2, 0, 0, 0]);
        expected.extend_from_slice(&[9, 0, 0, 0, 0, 0, 0, 0, 10, 0, 0, 0, 0, 0, 0, 0]);
        expected.extend_from_slice(&[2, 0, 0, 0, b'a', b'b']);
        assert_eq!(payload, expected);
        let rec = SpillRecord::decode(&payload).unwrap();
        assert_eq!((rec.generation, rec.canon), (7, (5 << 64) | 6));
        assert_eq!((rec.form, rec.body), (vec![9, 10], "ab".to_string()));
    }

    #[test]
    fn earlier_version_spills_load_cold_then_are_rewritten_as_current() {
        assert_eq!(SPILL_VERSION, 3);
        for version in [1u32, 2] {
            let dir = tmpdir(&format!("v{version}"));
            let path = Store::shard_path(&dir, 0, 0);
            // An earlier header followed by one intact frame: the frame
            // must not be read, whatever it holds.
            let mut old = SPILL_MAGIC.to_vec();
            old.extend_from_slice(&version.to_le_bytes());
            old.extend_from_slice(&framed::frame(&rec(1, 4, "old\n").encode()));
            fs::write(&path, &old).unwrap();
            let load = load_dir(&dir);
            assert!(load.records.is_empty());
            assert_eq!(load.warnings.len(), 1, "{:?}", load.warnings);
            assert_eq!(load.warnings[0].path, path);
            assert_eq!(load.warnings[0].offset, 0);
            assert!(load.warnings[0].to_string().starts_with("srtw-persist: "));
            let message = &load.warnings[0].message;
            assert!(message.contains(&format!("version {version}")), "{message}");
            // The writer recreates the file under the current header, and
            // a new append round-trips.
            let store = Store::open(&dir, 0, 1, 1, None).unwrap();
            append_all(&store, &[rec(0, 8, "eight\n")]);
            let bytes = fs::read(&path).unwrap();
            assert_eq!(&bytes[..8], SPILL_MAGIC);
            assert_eq!(bytes[8..12], SPILL_VERSION.to_le_bytes());
            let load = load_dir(&dir);
            fs::remove_dir_all(&dir).unwrap();
            assert!(load.warnings.is_empty(), "{:?}", load.warnings);
            assert_eq!(load.records.len(), 1);
            assert_eq!(load.records[0].canon, 8);
            assert_eq!(load.records[0].body, "eight\n");
        }
    }

    #[test]
    fn open_recreates_only_its_own_replicas_stale_files() {
        let dir = tmpdir("stale");
        let mut v2 = SPILL_MAGIC.to_vec();
        v2.extend_from_slice(&2u32.to_le_bytes());
        let (own, other) = (Store::shard_path(&dir, 0, 5), Store::shard_path(&dir, 1, 5));
        fs::write(&own, &v2).unwrap();
        fs::write(&other, &v2).unwrap();
        let store = Store::open(&dir, 0, 8, 1, None).unwrap();
        append_all(&store, &[rec(0, 0, "zero\n")]);
        let load = load_dir(&dir);
        assert_eq!(load.records.len(), 1);
        assert_eq!(load.warnings.len(), 1, "{:?}", load.warnings);
        assert_eq!(load.warnings[0].path, other);
        assert_eq!(fs::read(&own).unwrap(), FORMAT.header_prefix());
        assert_eq!(fs::read(&other).unwrap(), v2);
        // A stale file that cannot be recreated fails the open, typed.
        fs::remove_file(&own).unwrap();
        fs::create_dir(&own).unwrap();
        let err = Store::open(&dir, 0, 8, 1, None).unwrap_err();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(err.path, own);
        let expected = format!("{}: io: ", own.display());
        assert!(err.to_string().starts_with(&expected), "{err}");
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
    fn torn_fault_disables_store_and_leaves_recoverable_file() {
        let dir = tmpdir("fault-torn");
        let store = Store::open(&dir, 0, 1, 1, spill_fault(WriteFaultKind::Torn, 2)).unwrap();
        store.append(0, 1, &[1], "one\n").unwrap();
        let err = store.append(0, 2, &[2], "two\n").unwrap_err();
        assert_eq!(err.kind, PersistErrorKind::Io);
        assert!(store.disabled());
        // Disabled: further appends are silent no-ops.
        store.append(0, 3, &[3], "three\n").unwrap();
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(load.records.len(), 1);
        assert_eq!(load.records[0].body, "one\n");
        assert!(!load.warnings.is_empty());
    }

    #[test]
    fn enospc_fault_yields_typed_error() {
        let dir = tmpdir("fault-enospc");
        let store = Store::open(&dir, 0, 1, 1, spill_fault(WriteFaultKind::Enospc, 1)).unwrap();
        let err = store.append(0, 1, &[1], "one\n").unwrap_err();
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
        store.append(0, 1, &[9], "newer\n").unwrap();
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        let one: Vec<&SpillRecord> = load.records.iter().filter(|r| r.canon == 1).collect();
        assert_eq!(one.len(), 1, "same key dedups");
        assert_eq!(one[0].body, "newer\n", "newer generation must win");
    }
}
