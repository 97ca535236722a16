//! Crash-safe on-disk result store for the serve result cache.
//!
//! `srtw-persist` spills every cached `/analyze` result to disk so a
//! restarted process (or a respawned replica) starts warm instead of
//! cold. The store is an append-only *spill file per cache shard*, each
//! a [`srtw_supervisor::framed`] log — the one CRC-framed format the
//! batch journal is written in too. Reopening a file truncates any torn
//! tail first; recovery skips CRC-mismatched records with a warning and
//! never panics. This crate keeps only the spill format's magic,
//! version, record codec and record policy, and the store's syncer.
//!
//! ## Write order
//!
//! [`Store::append`] writes a record as one frame on the caller's thread,
//! before the caller answers its request, then marks the shard dirty and
//! wakes the store's syncer thread. Each syncer pass runs one
//! `sync_data` on every dirty shard, so the records written during a
//! pass share the next one (group commit, with no interval or queue to
//! set). A process crash after the response keeps the record: it is in
//! the page cache. An OS crash or power loss before the next pass ends
//! can lose that window's records; their systems then answer cold and
//! correct, one of the two documented states. [`Store::flush`] waits for
//! the records written so far, and dropping the store syncs the rest.
//! The batch journal differs on purpose: its outcomes are synced before
//! they are streamed, because a streamed line is a replay promise, while
//! a spill record is a cache entry no answer depends on.
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
//! open/read/write/sync failure (ENOSPC, EACCES, malformed header,
//! injected fault) produces a typed [`PersistError`], disables the store,
//! and the service continues with a cold in-memory cache. A failed sync
//! is handed to the callback given to [`Store::open`]. All recovery
//! warnings carry the file path and byte offset and are printed with a
//! uniform `srtw-persist:` prefix so replica logs are machine-greppable.

use srtw_supervisor::framed::{self, put_str, Cursor, LogFormat, LogWarning, WriteFault};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File};
use std::io::{self, Read};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::{self, JoinHandle};

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
        let scanned = framed::scan(&path, &bytes, &FORMAT, &mut load.warnings, SpillRecord::decode);
        for (_, rec) in scanned.into_iter().flat_map(|s| s.items) {
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
/// owned exclusively by this replica. [`Store::append`] writes a record
/// on the caller's thread; a syncer thread of the store's own syncs it.
/// The first write or sync error (real or injected) disables the store
/// permanently — the in-memory cache keeps serving, cold for new entries.
#[derive(Debug)]
pub struct Store {
    inner: Arc<Inner>,
    syncer: Option<JoinHandle<()>>,
}

/// The state the writers and the syncer share.
#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    replica: usize,
    shards: Vec<Shard>,
    generation: AtomicU64,
    appends: AtomicU64,
    syncs: AtomicU64,
    fault: Option<WriteFault>,
    disabled: AtomicBool,
    clock: Mutex<SyncClock>,
    /// Wakes the syncer: a record was written, or the store is closing.
    wake: Condvar,
    /// Wakes [`Store::flush`]: a sync pass ended.
    passed: Condvar,
}

/// One shard's spill file.
#[derive(Debug, Default)]
struct Shard {
    /// Serializes this shard's writers and its lazy open.
    write: Mutex<()>,
    /// The shard's one descriptor, opened on its first append, written
    /// by the appenders and synced by the syncer, each through `&File`.
    file: OnceLock<File>,
    /// Written to since the syncer last took it.
    dirty: AtomicBool,
}

/// Records written and records synced, counted across every shard.
#[derive(Debug, Default)]
struct SyncClock {
    written: u64,
    synced: u64,
    closing: bool,
}

impl Store {
    /// The spill file this replica writes for the given shard.
    pub fn shard_path(dir: &Path, replica: usize, shard: usize) -> PathBuf {
        dir.join(format!("r{replica}.s{shard}.spill"))
    }

    /// Opens the store for `replica` over `dir` with `shard_count` shard
    /// files, creating the directory if needed, and starts its syncer.
    /// `next_generation` seeds the insertion clock (pass max loaded
    /// generation + 1 so recency keeps advancing across restarts). `fault`
    /// counts appends across all shards. `on_sync_error` gets the one
    /// failed sync that disables the store, on the syncer thread. Each of
    /// this replica's shard files whose header is not the current one (an
    /// earlier version, or malformed) is recreated empty. Fails typed when
    /// the directory cannot be created, a stale file cannot be recreated
    /// or the syncer cannot start — the caller warns and runs cold.
    pub fn open(
        dir: &Path,
        replica: usize,
        shard_count: usize,
        next_generation: u64,
        fault: Option<WriteFault>,
        on_sync_error: impl FnMut(PersistError) + Send + 'static,
    ) -> Result<Store, PersistError> {
        fs::create_dir_all(dir).map_err(|e| PersistError::classify(dir, &e))?;
        let shards = (0..shard_count)
            .map(|shard| {
                let path = Store::shard_path(dir, replica, shard);
                let file = recreate_stale(&path).map_err(|e| PersistError::classify(&path, &e))?;
                Ok(Shard {
                    file: file.map(OnceLock::from).unwrap_or_default(),
                    ..Shard::default()
                })
            })
            .collect::<Result<_, _>>()?;
        let inner = Arc::new(Inner {
            dir: dir.to_path_buf(),
            replica,
            shards,
            generation: AtomicU64::new(next_generation),
            appends: AtomicU64::new(0),
            syncs: AtomicU64::new(0),
            fault,
            disabled: AtomicBool::new(false),
            clock: Mutex::default(),
            wake: Condvar::new(),
            passed: Condvar::new(),
        });
        let syncer = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("srtw-persist-sync".into())
                .spawn(move || inner.sync_loop(on_sync_error))
                .map_err(|e| PersistError::classify(dir, &e))?
        };
        Ok(Store {
            inner,
            syncer: Some(syncer),
        })
    }

    /// True once an append or a sync has failed: the store no longer
    /// writes and the cache continues cold for new entries.
    pub fn disabled(&self) -> bool {
        self.inner.disabled.load(Ordering::Relaxed)
    }

    /// How many `sync_data` calls the syncer has made: each covers every
    /// record written to its shard since the one before.
    pub fn syncs(&self) -> u64 {
        self.inner.syncs.load(Ordering::Relaxed)
    }

    /// Appends one entry to the given shard's spill file, stamping the
    /// next generation, and hands its sync to the syncer. The record is
    /// written when this returns, so a process crash keeps it; an OS crash
    /// before the next sync pass may lose it. On any write failure (real
    /// I/O error or injected fault) the store disables itself and returns
    /// the typed error once; later appends are silent no-ops. The caller
    /// must never let this error change a response.
    pub fn append(
        &self,
        shard: usize,
        canon: u128,
        form: &[u64],
        body: &str,
    ) -> Result<(), PersistError> {
        let inner = &*self.inner;
        if self.disabled() {
            return Ok(());
        }
        let rec = SpillRecord {
            generation: inner.generation.fetch_add(1, Ordering::Relaxed),
            canon,
            form: form.to_vec(),
            body: body.to_string(),
        };
        let index = shard % inner.shards.len();
        let shard = &inner.shards[index];
        let path = || Store::shard_path(&inner.dir, inner.replica, index);
        let written = {
            let _writer = shard.write.lock().unwrap();
            match shard.file.get() {
                Some(file) => Ok(file),
                None => framed::open_append(&path(), &FORMAT.header_prefix())
                    .map(|f| shard.file.get_or_init(|| f)),
            }
            .and_then(|file| {
                let n = inner.appends.fetch_add(1, Ordering::Relaxed) + 1;
                framed::write(file, &rec.encode(), inner.fault, n)
            })
        };
        if let Err(e) = written {
            inner.disabled.store(true, Ordering::Relaxed);
            return Err(PersistError::classify(&path(), &e));
        }
        shard.dirty.store(true, Ordering::Release);
        inner.clock.lock().unwrap().written += 1;
        inner.wake.notify_one();
        Ok(())
    }

    /// Blocks until every record written before the call is synced (or
    /// its sync has failed and disabled the store).
    pub fn flush(&self) {
        let inner = &*self.inner;
        let mut clock = inner.clock.lock().unwrap();
        let target = clock.written;
        while clock.synced < target {
            clock = inner.passed.wait(clock).unwrap();
        }
    }
}

impl Drop for Store {
    /// Syncs what is still unsynced and stops the syncer.
    fn drop(&mut self) {
        self.inner.clock.lock().unwrap().closing = true;
        self.inner.wake.notify_one();
        if let Some(syncer) = self.syncer.take() {
            let _ = syncer.join();
        }
    }
}

impl Inner {
    /// The syncer: each pass runs one `sync_data` on every shard written
    /// to since the last pass, so the records of one pass share a sync.
    /// A failed sync disables the store and is reported once.
    fn sync_loop(&self, mut on_error: impl FnMut(PersistError)) {
        loop {
            let target = {
                let mut clock = self.clock.lock().unwrap();
                while clock.written == clock.synced && !clock.closing {
                    clock = self.wake.wait(clock).unwrap();
                }
                if clock.written == clock.synced {
                    return;
                }
                clock.written
            };
            for (index, shard) in self.shards.iter().enumerate() {
                if !shard.dirty.swap(false, Ordering::Acquire) {
                    continue;
                }
                let Some(file) = shard.file.get() else {
                    continue;
                };
                match file.sync_data() {
                    Ok(()) => {
                        self.syncs.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        if !self.disabled.swap(true, Ordering::Relaxed) {
                            let path = Store::shard_path(&self.dir, self.replica, index);
                            on_error(PersistError::classify(&path, &e));
                        }
                    }
                }
            }
            self.clock.lock().unwrap().synced = target;
            self.passed.notify_all();
        }
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

    fn open(
        dir: &Path,
        replica: usize,
        shards: usize,
        next_generation: u64,
        fault: Option<WriteFault>,
    ) -> Result<Store, PersistError> {
        Store::open(dir, replica, shards, next_generation, fault, |_| {})
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
        let store = open(&dir, 0, 8, 1, None).unwrap();
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
        let store = open(&dir, 0, 8, 1, None).unwrap();
        append_all(&store, &[rec(0, 5, "old\n"), rec(0, 5, "new\n")]);
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(load.records.len(), 1);
        assert_eq!(load.records[0].body, "new\n");
    }

    #[test]
    fn torn_tail_is_dropped_and_truncated_on_reopen() {
        let dir = tmpdir("torn");
        let store = open(&dir, 0, 1, 1, None).unwrap();
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
        let store = open(&dir, 0, 1, 10, None).unwrap();
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
        let store = open(&dir, 0, 1, 1, None).unwrap();
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
        let store = open(&dir, 0, 1, 1, None).unwrap();
        append_all(&store, &[rec(0, 9, "nine\n")]);
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert!(load.warnings.is_empty(), "{:?}", load.warnings);
        assert_eq!(load.records.len(), 1);
    }

    #[test]
    fn torn_or_missing_header_loads_cold_with_one_warning_then_is_recreated() {
        // The header is written unsynced, so a crash before the first
        // sync may leave it empty or torn.
        for (name, bytes) in [("empty", &[][..]), ("torn", &SPILL_MAGIC[..5])] {
            let dir = tmpdir(&format!("header-{name}"));
            let path = Store::shard_path(&dir, 0, 0);
            fs::write(&path, bytes).unwrap();
            let load = load_dir(&dir);
            assert!(load.records.is_empty());
            assert_eq!(load.warnings.len(), 1, "{name}: {:?}", load.warnings);
            assert!(load.warnings[0].message.contains("header"), "{name}");
            let store = open(&dir, 0, 1, 1, None).unwrap();
            append_all(&store, &[rec(0, 9, "nine\n")]);
            drop(store);
            let load = load_dir(&dir);
            fs::remove_dir_all(&dir).unwrap();
            assert!(load.warnings.is_empty(), "{name}: {:?}", load.warnings);
            assert_eq!(load.records.len(), 1, "{name}");
        }
    }

    #[test]
    fn the_syncer_groups_appends_from_two_threads() {
        let dir = tmpdir("syncer");
        let store = open(&dir, 0, 8, 1, None).unwrap();
        let per_thread = 200u128;
        thread::scope(|scope| {
            for t in 0..2u128 {
                let store = &store;
                scope.spawn(move || {
                    for i in 0..per_thread {
                        let canon = t * per_thread + i;
                        let body = format!("body {canon}\n");
                        store.append(canon as usize, canon, &[canon as u64], &body).unwrap();
                    }
                });
            }
        });
        store.flush();
        let syncs = store.syncs();
        let appends = 2 * per_thread as u64;
        assert!((1..=appends).contains(&syncs), "{syncs} syncs for {appends} appends");
        drop(store);
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert!(load.warnings.is_empty(), "{:?}", load.warnings);
        assert_eq!(load.records.len() as u64, appends);
        for r in &load.records {
            assert_eq!(r.body, format!("body {}\n", r.canon));
            assert_eq!(r.form, [r.canon as u64]);
        }
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
            let store = open(&dir, 0, 1, 1, None).unwrap();
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
        let store = open(&dir, 0, 8, 1, None).unwrap();
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
        let err = open(&dir, 0, 8, 1, None).unwrap_err();
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(err.path, own);
        let expected = format!("{}: io: ", own.display());
        assert!(err.to_string().starts_with(&expected), "{err}");
    }

    #[test]
    fn replicas_share_reads_but_not_writes() {
        let dir = tmpdir("replicas");
        let a = open(&dir, 0, 8, 1, None).unwrap();
        let b = open(&dir, 1, 8, 1, None).unwrap();
        append_all(&a, &[rec(0, 1, "from a\n")]);
        append_all(&b, &[rec(0, 2, "from b\n")]);
        let load = load_dir(&dir);
        fs::remove_dir_all(&dir).unwrap();
        assert_eq!(load.records.len(), 2);
    }

    #[test]
    fn torn_fault_disables_store_and_leaves_recoverable_file() {
        let dir = tmpdir("fault-torn");
        let store = open(&dir, 0, 1, 1, spill_fault(WriteFaultKind::Torn, 2)).unwrap();
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
        let store = open(&dir, 0, 1, 1, spill_fault(WriteFaultKind::Enospc, 1)).unwrap();
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
        let err = open(&file_as_dir, 0, 1, 1, None).unwrap_err();
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
        let store = open(&dir, 0, 1, 1, None).unwrap();
        append_all(&store, &[rec(0, 1, "one\n"), rec(0, 2, "two\n")]);
        drop(store);
        let load = load_dir(&dir);
        let next = load.records.iter().map(|r| r.generation).max().unwrap() + 1;
        let store = open(&dir, 0, 1, next, None).unwrap();
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
