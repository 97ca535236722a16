//! Append-only write-ahead journal of per-job batch outcomes.
//!
//! The journal makes a batch run crash-recoverable: every finished job is
//! appended as one self-contained record and fsync'd before the batch
//! moves on, so a `kill -9` (or an injected fault) loses at most the job
//! that was in flight. A later resume replays the journal, skips the
//! already-completed jobs, and produces a final report byte-identical to
//! an uninterrupted run — each record carries the job's rendered JSON
//! subtree verbatim, and `srtw_core::Json` rendering is context-free, so
//! splicing replayed text next to freshly rendered text is exact.
//!
//! The file is a [`framed`] log (header check, CRC
//! framing, torn-tail truncation and recovery warnings live there):
//!
//! ```text
//! header: b"SRTWJRNL" | u32 LE version (3) | u64 LE manifest digest
//! record: u32 LE payload length | u32 LE CRC-32 of payload | payload
//! ```
//!
//! The payload is a length-prefixed binary encoding of the outcome's
//! replay-relevant fields: manifest position, input digest, name, status,
//! rung display, attempt count, wall-clock bits, error, rendered JSON.
//!
//! ## Record policy
//!
//! A record is keyed by its **manifest position** and its **input
//! digest**, not its job name: two entries of one manifest may share a
//! file stem (`a/sys.srtw`, `b/sys.srtw`) or be the same file twice, and
//! each must replay its own outcome. The header's digest binds the
//! journal to one manifest, so a position names one entry; the input
//! digest ([`digest64`] of the bytes the entry was loaded from, or
//! [`MISSING_INPUT`]) binds the record to that entry's contents, so a
//! file edited since the record was written runs fresh instead of
//! replaying a stale bound. Recovery keeps the first record per
//! (position, input) pair (records are immutable facts; a re-run of an
//! already-journaled entry changes nothing). Journals of earlier versions
//! (1: keyed by name, 2: by position alone) fail the header check and a
//! resume starts fresh with one warning.

use crate::framed::{self, put_opt_str, put_str, Cursor, LogFormat, LogWarning, WriteFault};
use crate::job::{JobOutcome, JobStatus};
use std::fs::File;
use std::io;
use std::path::Path;

/// Magic bytes opening every journal file.
pub const JOURNAL_MAGIC: &[u8; 8] = b"SRTWJRNL";
/// Current on-disk format version.
pub const JOURNAL_VERSION: u32 = 3;

const FORMAT: LogFormat = LogFormat {
    name: "journal",
    magic: JOURNAL_MAGIC,
    version: JOURNAL_VERSION,
    header_len: 8 + 4 + 8,
};

/// The input digest of an entry whose file could not be read.
pub const MISSING_INPUT: u64 = 0;

/// 64-bit FNV-1a digest, used to key a journal to its manifest (resuming
/// against a journal written for a different job list is refused) and a
/// record to the bytes of its input.
pub fn digest64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn header(digest: u64) -> Vec<u8> {
    let mut out = FORMAT.header_prefix().to_vec();
    out.extend_from_slice(&digest.to_le_bytes());
    out
}

fn status_code(status: JobStatus) -> u8 {
    match status {
        JobStatus::Exact => 0,
        JobStatus::Degraded => 1,
        JobStatus::Failed => 2,
        JobStatus::Skipped => 3,
    }
}

fn status_from_code(code: u8) -> Option<JobStatus> {
    match code {
        0 => Some(JobStatus::Exact),
        1 => Some(JobStatus::Degraded),
        2 => Some(JobStatus::Failed),
        3 => Some(JobStatus::Skipped),
        _ => None,
    }
}

/// One journaled job outcome: the fields the final report needs, plus the
/// outcome's rendered JSON subtree stored verbatim for byte-exact replay.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalRecord {
    /// The entry's 0-based position in its manifest (the replay key).
    pub position: u32,
    /// [`digest64`] of the bytes the entry was loaded from, or
    /// [`MISSING_INPUT`]: a record replays only onto the same bytes.
    pub input: u64,
    /// The job's name.
    pub name: String,
    /// Final classification.
    pub status: JobStatus,
    /// `Rung` display text (e.g. `exact`, `budgeted(500 ms)`), if any.
    pub rung: Option<String>,
    /// Number of attempts the ladder made.
    pub attempts: u32,
    /// Wall-clock bits (`f64::to_bits` of seconds) — stored as bits so the
    /// replayed `{:.1}` rendering reproduces the original exactly.
    pub wall_bits: u64,
    /// The job's error text, if any.
    pub error: Option<String>,
    /// The outcome's `to_json()` rendering, verbatim.
    pub json: String,
}

impl JournalRecord {
    /// Captures a finished outcome as a journal record at position 0 with
    /// input digest [`MISSING_INPUT`] (the batch runner stamps the entry's
    /// real position and input before appending).
    pub fn from_outcome(outcome: &JobOutcome) -> JournalRecord {
        JournalRecord {
            position: 0,
            input: MISSING_INPUT,
            name: outcome.name.clone(),
            status: outcome.status,
            rung: outcome.rung.map(|r| format!("{r}")),
            attempts: outcome.attempts.len() as u32,
            wall_bits: outcome.wall.as_secs_f64().to_bits(),
            error: outcome.error.clone(),
            json: outcome.to_json().render(),
        }
    }

    /// Wall-clock seconds of the job.
    pub fn wall_secs(&self) -> f64 {
        f64::from_bits(self.wall_bits)
    }

    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.json.len());
        out.extend_from_slice(&self.position.to_le_bytes());
        out.extend_from_slice(&self.input.to_le_bytes());
        put_str(&mut out, &self.name);
        out.push(status_code(self.status));
        put_opt_str(&mut out, self.rung.as_deref());
        out.extend_from_slice(&self.attempts.to_le_bytes());
        out.extend_from_slice(&self.wall_bits.to_le_bytes());
        put_opt_str(&mut out, self.error.as_deref());
        put_str(&mut out, &self.json);
        out
    }

    fn decode(payload: &[u8]) -> Option<JournalRecord> {
        let mut cur = Cursor::new(payload);
        let rec = JournalRecord {
            position: cur.take_u32()?,
            input: cur.take_u64()?,
            name: cur.take_str()?,
            status: status_from_code(cur.take_u8()?)?,
            rung: cur.take_opt_str()?,
            attempts: cur.take_u32()?,
            wall_bits: cur.take_u64()?,
            error: cur.take_opt_str()?,
            json: cur.take_str()?,
        };
        cur.at_end().then_some(rec)
    }
}

/// Appends records to a journal, fsync'ing each one before reporting it
/// written. The file is opened in append mode and every record goes out
/// as a single `write`, so multiple processes (replicas sharing a
/// journal) interleave whole frames rather than bytes.
#[derive(Debug)]
pub struct JournalWriter {
    file: File,
    appended: u64,
    fault: Option<WriteFault>,
}

impl JournalWriter {
    /// Creates (or truncates) a journal for the given manifest digest and
    /// writes the header durably.
    pub fn create(path: &Path, digest: u64) -> io::Result<JournalWriter> {
        Ok(JournalWriter::new(framed::create(path, &header(digest))?))
    }

    /// Opens the journal of the manifest with `digest` for appending,
    /// cutting a torn tail first. A missing journal, or one written for
    /// another manifest or version, is created afresh.
    pub fn open_append(path: &Path, digest: u64) -> io::Result<JournalWriter> {
        Ok(JournalWriter::new(framed::open_append(
            path,
            &header(digest),
        )?))
    }

    fn new(file: File) -> JournalWriter {
        JournalWriter {
            file,
            appended: 0,
            fault: None,
        }
    }

    /// Arms a deterministic write fault. The counter is per-writer: a
    /// resumed run starts counting from its own first append, so
    /// `torn@1` on a resume breaks the first *new* record.
    pub fn set_fault(&mut self, fault: Option<WriteFault>) {
        self.fault = fault;
    }

    /// Appends one record durably. An armed fault breaks this append as
    /// specified and returns an error — callers treat any append error as
    /// a crash (the journal's contents up to the failure are exactly what
    /// a real crash would leave behind).
    pub fn append(&mut self, record: &JournalRecord) -> io::Result<()> {
        self.appended += 1;
        framed::append(&mut self.file, &record.encode(), self.fault, self.appended)
    }
}

/// What [`recover`] salvaged from a journal.
#[derive(Debug, Clone, Default)]
pub struct Recovery {
    /// The manifest digest from the header (`None` when the header was
    /// rejected).
    pub digest: Option<u64>,
    /// Every intact record, de-duplicated keep-first by manifest position
    /// and input digest, in journal order.
    pub records: Vec<JournalRecord>,
    /// Notes about anything skipped or truncated, each pinned to the byte
    /// offset where the damage was found.
    pub warnings: Vec<LogWarning>,
}

/// Reads a journal back, salvaging every intact record. Tolerates torn
/// tails, truncated records, and bit corruption per the
/// [`framed`] policy; never panics. I/O errors reading the
/// file itself are returned.
pub fn recover(path: &Path) -> io::Result<Recovery> {
    let bytes = std::fs::read(path)?;
    Ok(recover_image(path, &bytes))
}

/// [`recover`], but over an in-memory image (the fuzz suite's entry
/// point).
pub fn recover_bytes(bytes: &[u8]) -> Recovery {
    recover_image(Path::new(""), bytes)
}

fn recover_image(path: &Path, bytes: &[u8]) -> Recovery {
    let mut rec = Recovery::default();
    let Some(items) = framed::scan(
        path,
        bytes,
        &FORMAT,
        &mut rec.warnings,
        JournalRecord::decode,
    ) else {
        return rec;
    };
    rec.digest = Some(u64::from_le_bytes(bytes[12..20].try_into().unwrap()));
    for (offset, r) in items {
        if rec
            .records
            .iter()
            .any(|have| (have.position, have.input) == (r.position, r.input))
        {
            rec.warnings.push(LogWarning::new(
                path,
                offset,
                format!(
                    "duplicate record for manifest position {} ('{}') and the same input — \
                     first kept",
                    r.position, r.name
                ),
            ));
        } else {
            rec.records.push(r);
        }
    }
    rec
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framed::{FaultLog, WriteFaultKind};
    use crate::job::{Attempt, AttemptStatus, Rung};
    use std::path::PathBuf;
    use std::time::Duration;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("srtw-journal-{}-{name}", std::process::id()));
        p
    }

    fn outcome(name: &str, status: JobStatus) -> JobOutcome {
        let (rung, attempts, error) = match status {
            JobStatus::Exact => (
                Some(Rung::Exact),
                vec![Attempt {
                    rung: Rung::Exact,
                    status: AttemptStatus::Completed,
                    degraded: false,
                    wall: Duration::from_micros(1234),
                    degradations: Vec::new(),
                }],
                None,
            ),
            JobStatus::Degraded => (
                Some(Rung::Budgeted { wall_ms: 500 }),
                vec![
                    Attempt {
                        rung: Rung::Exact,
                        status: AttemptStatus::HardTimeout,
                        degraded: false,
                        wall: Duration::from_millis(7),
                        degradations: Vec::new(),
                    },
                    Attempt {
                        rung: Rung::Budgeted { wall_ms: 500 },
                        status: AttemptStatus::Completed,
                        degraded: true,
                        wall: Duration::from_millis(3),
                        degradations: Vec::new(),
                    },
                ],
                None,
            ),
            JobStatus::Failed => (None, Vec::new(), Some("boom: no such rung".to_string())),
            JobStatus::Skipped => {
                return JobOutcome::skipped(name);
            }
        };
        JobOutcome {
            name: name.to_string(),
            status,
            rung,
            attempts,
            wall: Duration::from_micros(4567),
            output: None,
            error,
        }
    }

    fn sample_outcomes() -> Vec<JobOutcome> {
        vec![
            outcome("alpha", JobStatus::Exact),
            outcome("beta", JobStatus::Degraded),
            outcome("gamma", JobStatus::Failed),
            outcome("delta", JobStatus::Skipped),
        ]
    }

    /// The record of `outcomes[i]` at manifest position `i`.
    fn record(outcomes: &[JobOutcome], i: usize) -> JournalRecord {
        JournalRecord {
            position: i as u32,
            ..JournalRecord::from_outcome(&outcomes[i])
        }
    }

    fn write_journal(path: &Path, outcomes: &[JobOutcome]) {
        let mut w = JournalWriter::create(path, 42).unwrap();
        for i in 0..outcomes.len() {
            w.append(&record(outcomes, i)).unwrap();
        }
    }

    fn names(rec: &Recovery) -> Vec<&str> {
        rec.records.iter().map(|r| r.name.as_str()).collect()
    }

    fn journal_fault(kind: WriteFaultKind, at_record: u64) -> Option<WriteFault> {
        Some(WriteFault {
            log: FaultLog::Journal,
            kind,
            at_record,
        })
    }

    #[test]
    fn round_trips_records() {
        let path = tmp("roundtrip");
        let outcomes = sample_outcomes();
        write_journal(&path, &outcomes);
        let rec = recover(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(rec.digest, Some(42));
        assert!(rec.warnings.is_empty(), "{:?}", rec.warnings);
        assert_eq!(rec.records.len(), outcomes.len());
        for (i, (r, o)) in rec.records.iter().zip(&outcomes).enumerate() {
            assert_eq!(r.position, i as u32);
            assert_eq!(r.name, o.name);
            assert_eq!(r.status, o.status);
            assert_eq!(r.attempts as usize, o.attempts.len());
            assert_eq!(r.json, format!("{}", o.to_json()));
        }
    }

    #[test]
    fn tolerates_torn_tail() {
        let path = tmp("torn-tail");
        let outcomes = sample_outcomes();
        write_journal(&path, &outcomes);
        let full = std::fs::read(&path).unwrap();
        // Chop the file mid-way through the last record.
        std::fs::write(&path, &full[..full.len() - 5]).unwrap();
        let rec = recover(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(names(&rec), ["alpha", "beta", "gamma"]);
        assert!(!rec.warnings.is_empty());
    }

    #[test]
    fn skips_corrupt_record_and_continues() {
        let path = tmp("corrupt");
        let outcomes = sample_outcomes();
        write_journal(&path, &outcomes);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the first record's payload.
        bytes[FORMAT.header_len + 8 + 2] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let rec = recover(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        // The corrupt first record is dropped; later records survive.
        assert_eq!(names(&rec), ["beta", "gamma", "delta"]);
        assert!(rec.warnings.iter().any(|w| w.message.contains("CRC")));
    }

    #[test]
    fn rejects_bad_header() {
        let rec = recover_bytes(b"NOTAJRNL rest of garbage");
        assert!(rec.records.is_empty());
        assert_eq!(rec.digest, None);
        assert!(!rec.warnings.is_empty());
    }

    #[test]
    fn earlier_version_journals_are_ignored_with_one_warning() {
        for version in [1u32, 2] {
            let mut old = JOURNAL_MAGIC.to_vec();
            old.extend_from_slice(&version.to_le_bytes());
            old.extend_from_slice(&42u64.to_le_bytes());
            old.extend_from_slice(&framed::frame(b"a record without an input digest"));
            let rec = recover_bytes(&old);
            assert!(rec.records.is_empty());
            assert_eq!(rec.digest, None);
            assert_eq!(rec.warnings.len(), 1, "{:?}", rec.warnings);
            assert!(rec.warnings[0].message.contains(&format!("version {version}")));
        }
    }

    #[test]
    fn dedups_keep_first_by_position_and_input_not_name() {
        let path = tmp("dedup");
        let mut w = JournalWriter::create(&path, 1).unwrap();
        let exact = JournalRecord::from_outcome(&outcome("same", JobStatus::Exact));
        let failed = JournalRecord::from_outcome(&outcome("same", JobStatus::Failed));
        w.append(&exact).unwrap();
        // A second record for position 0 is a duplicate and loses.
        w.append(&failed).unwrap();
        // The same name at another position is another entry and stays.
        w.append(&JournalRecord {
            position: 1,
            ..failed.clone()
        })
        .unwrap();
        // Position 0 loaded from other bytes is another fact and stays.
        w.append(&JournalRecord { input: 9, ..failed }).unwrap();
        let rec = recover(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let kept: Vec<(u32, u64, JobStatus)> = rec
            .records
            .iter()
            .map(|r| (r.position, r.input, r.status))
            .collect();
        assert_eq!(
            kept,
            [
                (0, MISSING_INPUT, JobStatus::Exact),
                (1, MISSING_INPUT, JobStatus::Failed),
                (0, 9, JobStatus::Failed)
            ]
        );
        assert!(rec.warnings.iter().any(|w| w.message.contains("duplicate")));
    }

    #[test]
    fn torn_fault_leaves_partial_frame_and_errors() {
        let path = tmp("fault-torn");
        let outcomes = sample_outcomes();
        let mut w = JournalWriter::create(&path, 7).unwrap();
        w.set_fault(journal_fault(WriteFaultKind::Torn, 2));
        w.append(&record(&outcomes, 0)).unwrap();
        let err = w.append(&record(&outcomes, 1)).unwrap_err();
        assert!(err.to_string().contains("torn@2"));
        drop(w);
        let rec = recover(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.records[0].name, "alpha");
        assert!(!rec.warnings.is_empty());
    }

    #[test]
    fn corrupt_fault_writes_bad_crc_and_errors() {
        let path = tmp("fault-corrupt");
        let outcomes = sample_outcomes();
        let mut w = JournalWriter::create(&path, 7).unwrap();
        w.set_fault(journal_fault(WriteFaultKind::Corrupt, 1));
        let err = w.append(&record(&outcomes, 0)).unwrap_err();
        assert!(err.to_string().contains("jcorrupt@1"));
        drop(w);
        let rec = recover(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(rec.records.is_empty());
        assert!(rec.warnings.iter().any(|w| w.message.contains("CRC")));
    }

    #[test]
    fn resume_after_fault_counts_from_own_appends() {
        // A writer opened for append with torn@1 breaks its own first
        // append, not the file's first record.
        let path = tmp("fault-resume");
        let outcomes = sample_outcomes();
        write_journal(&path, &outcomes[..2]);
        let mut w = JournalWriter::open_append(&path, 42).unwrap();
        w.set_fault(journal_fault(WriteFaultKind::Torn, 1));
        assert!(w.append(&record(&outcomes, 2)).is_err());
        drop(w);
        let rec = recover(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(rec.records.len(), 2);
    }

    #[test]
    fn open_append_truncates_a_torn_tail_before_appending() {
        // Records appended after a torn partial frame sit beyond the
        // point where recovery stops scanning, so a resume that appends
        // without truncating writes records no future resume can see.
        let path = tmp("torn-tail-reopen");
        let outcomes = sample_outcomes();
        write_journal(&path, &outcomes[..1]);
        let mut w = JournalWriter::open_append(&path, 42).unwrap();
        w.set_fault(journal_fault(WriteFaultKind::Torn, 1));
        assert!(w.append(&record(&outcomes, 1)).is_err());
        drop(w);
        let mut w = JournalWriter::open_append(&path, 42).unwrap();
        w.append(&record(&outcomes, 2)).unwrap();
        drop(w);
        let rec = recover(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert_eq!(names(&rec), ["alpha", "gamma"]);
        assert!(
            rec.warnings.is_empty(),
            "torn tail should be gone after reopen: {:?}",
            rec.warnings
        );
    }
}
