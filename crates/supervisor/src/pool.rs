//! The batch runner behind `srtw batch` and `POST /batch`, and the
//! worker pool it drains fresh jobs on.
//!
//! Workers claim jobs from a shared atomic cursor, so input order is the
//! claim order and results are reported in input order regardless of which
//! worker finished first. With `fail_fast`, the first failed job stops the
//! claim cursor; jobs never claimed are reported as skipped.
//!
//! A [`BatchPlan`] resolves every manifest entry before anything runs: a
//! record replayed from the journal (keyed by manifest position and the
//! digest of the entry's input bytes), a pre-run failure, a `--fail-fast`
//! skip, or a fresh job for the pool.
//! [`BatchPlan::run`] journals each new record (fsync'd) before it becomes
//! visible and hands records to the caller strictly in manifest order.

use crate::framed::{LogWarning, WriteFault};
use crate::job::{JobOutcome, JobSpec, JobStatus};
use crate::journal::{digest64, JournalRecord, JournalWriter, MISSING_INPUT};
use crate::ladder::{run_supervised, SupervisorConfig};
use crate::report::JournaledReport;
use srtw_core::textfmt::parse_system;
use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::Instant;

/// Configuration of one batch run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchConfig {
    /// Number of concurrent supervisor workers (clamped to at least 1).
    /// The calling thread is one of them; the rest run on scoped threads.
    pub jobs: usize,
    /// The supervision applied to every job.
    pub supervisor: SupervisorConfig,
    /// Stop claiming new jobs as soon as one job fails every rung (or, in
    /// a [`BatchPlan`], at the first entry that failed to load); jobs not
    /// yet claimed are reported as [`JobStatus::Skipped`].
    pub fail_fast: bool,
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            jobs: 1,
            supervisor: SupervisorConfig::default(),
            fail_fast: false,
        }
    }
}

/// An outcome observer: called once per finished job, with the job's
/// input index, on the worker thread that finished it and before the
/// worker claims its next job — the journalling hook.
pub type OutcomeObserver<'a> = &'a (dyn Fn(usize, &JobOutcome) + Sync);

/// Runs every job through the supervised ladder on a pool of `cfg.jobs`
/// workers and returns the outcomes in input order. Individual job
/// failures never propagate as panics or errors — they are data.
pub fn run_batch(specs: Vec<JobSpec>, cfg: &BatchConfig) -> Vec<JobOutcome> {
    run_batch_observed(specs, cfg, &|_, _| {})
}

/// [`run_batch`] with a per-outcome observer (see [`OutcomeObserver`]).
pub fn run_batch_observed(
    specs: Vec<JobSpec>,
    cfg: &BatchConfig,
    observer: OutcomeObserver<'_>,
) -> Vec<JobOutcome> {
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let results: Mutex<Vec<Option<JobOutcome>>> = Mutex::new(specs.iter().map(|_| None).collect());
    let workers = cfg.jobs.max(1).min(specs.len().max(1));
    thread::scope(|scope| {
        let worker = || loop {
            if stop.load(Ordering::Acquire) {
                return;
            }
            let i = next.fetch_add(1, Ordering::AcqRel);
            let Some(spec) = specs.get(i) else { return };
            let outcome = run_supervised(spec, &cfg.supervisor);
            observer(i, &outcome);
            if cfg.fail_fast && outcome.status == JobStatus::Failed {
                stop.store(true, Ordering::Release);
            }
            results.lock().unwrap()[i] = Some(outcome);
        };
        // The calling thread is one of the workers, so only the extra
        // ones get threads and a one-worker batch spawns none.
        let handles: Vec<_> = (1..workers).map(|_| scope.spawn(worker)).collect();
        // A worker panicking would be a supervisor bug (attempts are
        // unwind-contained); treat it like any other crash and keep the
        // batch alive — the job slot stays `None` and is reported skipped.
        let _ = catch_unwind(AssertUnwindSafe(worker));
        for h in handles {
            let _ = h.join();
        }
    });
    let results = results.into_inner().unwrap();
    results
        .into_iter()
        .zip(&specs)
        .map(|(slot, spec)| slot.unwrap_or_else(|| JobOutcome::skipped(spec.name.clone())))
        .collect()
}

/// The systems a manifest lists: its trimmed lines, minus blank lines and
/// `#` comments.
pub fn manifest_lines(text: &str) -> impl Iterator<Item = &str> {
    text.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
}

/// One manifest entry: a job to run, or the outcome that stands in for a
/// system that could not be loaded, and the digest of the bytes it was
/// loaded from.
#[derive(Debug)]
pub struct BatchEntry {
    /// [`digest64`] of the file's bytes, or [`MISSING_INPUT`] when it
    /// could not be read: a journal record replays onto this entry only
    /// when it was written for the same bytes.
    input: u64,
    /// The loaded system, ready for the supervised ladder; or the failed
    /// outcome of an unreadable file, a parse error or a missing `server`
    /// line.
    job: Result<Box<JobSpec>, JobOutcome>,
}

impl BatchEntry {
    /// Loads one `.srtw` file into a job named after its file stem. Never
    /// panics: every pre-run failure, a parse panic included, becomes a
    /// failed outcome, so one bad path degrades one line, not the batch.
    pub fn load(file: &Path) -> BatchEntry {
        let name = file
            .file_stem()
            .map(|s| s.to_string_lossy().into_owned())
            .unwrap_or_else(|| file.display().to_string());
        let pre_failed = |input, error: String| BatchEntry {
            input,
            job: Err(JobOutcome::pre_failed(name.clone(), error)),
        };
        let cannot_read =
            |why: &dyn std::fmt::Display| format!("cannot read {}: {why}", file.display());
        let bytes = match std::fs::read(file) {
            Ok(bytes) => bytes,
            Err(e) => return pre_failed(MISSING_INPUT, cannot_read(&e)),
        };
        let input = digest64(&bytes);
        let Ok(text) = String::from_utf8(bytes) else {
            return pre_failed(input, cannot_read(&"stream did not contain valid UTF-8"));
        };
        let loaded = catch_unwind(AssertUnwindSafe(|| -> Result<JobSpec, String> {
            let sys = parse_system(&text).map_err(|e| format!("{}: {e}", file.display()))?;
            let server = sys
                .server
                .as_ref()
                .ok_or_else(|| format!("{}: the system file declares no server", file.display()))?;
            let beta = server.beta_lower().map_err(|e| e.to_string())?;
            Ok(JobSpec::new(name.clone(), sys.tasks, beta))
        }));
        match loaded {
            Ok(Ok(spec)) => BatchEntry {
                input,
                job: Ok(Box::new(spec)),
            },
            Ok(Err(e)) => pre_failed(input, e),
            Err(_) => pre_failed(input, "panic while parsing".into()),
        }
    }
}

/// How a front end keeps its batch journal.
#[derive(Debug, Clone, Copy)]
pub struct JournalPolicy {
    /// Replay the records an earlier run of the same manifest left
    /// (`srtw batch --resume`; always on for `POST /batch`). Without it
    /// the journal is truncated.
    pub resume: bool,
    /// Journal pre-run failures too. `POST /batch` does, so a re-POST
    /// replays (and counts) every line; `srtw batch` journals supervised
    /// outcomes only, so `torn@N` counts jobs that ran.
    pub pre_failed: bool,
    /// Deterministic write fault (`torn@N` | `jcorrupt@N`).
    pub fault: Option<WriteFault>,
    /// Ends the process when an append fails: the journal can no longer
    /// keep its durability promise, so the batch dies like a crash.
    pub on_failure: fn(&Path, &io::Error) -> !,
}

/// A batch journal open for append, plus the records an earlier run of
/// the same manifest left in it, by manifest position and input digest.
#[derive(Debug)]
pub struct BatchJournal {
    path: PathBuf,
    writer: Mutex<JournalWriter>,
    replay: HashMap<(u32, u64), JournalRecord>,
    policy: JournalPolicy,
}

impl BatchJournal {
    /// Opens the journal at `path` for the manifest with `digest`. On
    /// resume a journal of the same manifest is kept (torn tail cut) and
    /// its records replay; anything else — no file, another manifest's
    /// digest, a rejected header — starts a fresh journal. Returns the
    /// journal and the recovery warnings to print; an unreadable or
    /// unwritable file is an error.
    pub fn open(
        path: &Path,
        digest: u64,
        policy: JournalPolicy,
    ) -> io::Result<(BatchJournal, Vec<LogWarning>)> {
        let mut warnings = Vec::new();
        let mut replay = HashMap::new();
        let mut writer = if policy.resume {
            let (writer, rec) = JournalWriter::resume(path, digest)?;
            warnings = rec.warnings;
            match rec.digest {
                Some(d) if d == digest => {
                    replay = rec
                        .records
                        .into_iter()
                        .map(|r| ((r.position, r.input), r))
                        .collect();
                }
                Some(_) => warnings.push(LogWarning::new(
                    path,
                    0,
                    "journal was written for a different job list (digest mismatch); \
                     starting fresh",
                )),
                None => {}
            }
            writer
        } else {
            JournalWriter::create(path, digest)?
        };
        writer.set_fault(policy.fault);
        let journal = BatchJournal {
            path: path.to_path_buf(),
            writer: Mutex::new(writer),
            replay,
            policy,
        };
        Ok((journal, warnings))
    }

    fn append(&self, record: &JournalRecord) {
        if let Err(e) = self.writer.lock().unwrap().append(record) {
            (self.policy.on_failure)(&self.path, &e);
        }
    }
}

/// What a manifest entry resolved to before the batch runs.
#[derive(Debug)]
enum Slot {
    /// Known already: a replayed record, a pre-run failure or a
    /// `--fail-fast` skip; `append` when it still has to be journaled.
    Done { record: JournalRecord, append: bool },
    /// A fresh job for the supervised pool, with its input digest.
    Run(u64, Box<JobSpec>),
}

/// A manifest ready to run: every entry resolved to a replayed record, a
/// pre-run failure, a `--fail-fast` skip or a fresh job.
#[derive(Debug)]
pub struct BatchPlan {
    slots: Vec<Slot>,
    journal: Option<BatchJournal>,
    cfg: BatchConfig,
    replayed: usize,
}

impl BatchPlan {
    /// Resolves every entry. With `cfg.fail_fast` the first entry that
    /// failed to load ends the queue: later jobs are skipped.
    pub fn new(
        entries: Vec<BatchEntry>,
        mut journal: Option<BatchJournal>,
        cfg: BatchConfig,
    ) -> BatchPlan {
        let first_failed = entries.iter().position(|e| e.job.is_err());
        let cut = match first_failed {
            Some(i) if cfg.fail_fast => i + 1,
            _ => entries.len(),
        };
        let pre_failed = journal.as_ref().is_some_and(|j| j.policy.pre_failed);
        let mut replayed = 0;
        let slots = entries
            .into_iter()
            .enumerate()
            .map(|(i, entry)| {
                let (position, input) = (i as u32, entry.input);
                let at = |outcome: &JobOutcome| JournalRecord {
                    position,
                    input,
                    ..JournalRecord::from_outcome(outcome)
                };
                let replay = journal
                    .as_mut()
                    .and_then(|j| j.replay.remove(&(position, input)));
                match (entry.job, replay) {
                    (_, Some(record)) if i < cut => {
                        replayed += 1;
                        Slot::Done {
                            record,
                            append: false,
                        }
                    }
                    (Err(outcome), _) => Slot::Done {
                        record: at(&outcome),
                        append: pre_failed,
                    },
                    (Ok(spec), _) if i >= cut => Slot::Done {
                        record: at(&JobOutcome::skipped(spec.name)),
                        append: false,
                    },
                    (Ok(spec), _) => Slot::Run(input, spec),
                }
            })
            .collect();
        BatchPlan {
            slots,
            journal,
            cfg,
            replayed,
        }
    }

    /// Entries answered from the journal.
    pub fn replayed(&self) -> usize {
        self.replayed
    }

    /// Entries the supervised pool will run.
    pub fn fresh(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::Run(..)))
            .count()
    }

    /// Runs the fresh jobs and returns the report in manifest order.
    /// Every new record is journaled before it is passed on; `on_line`
    /// sees each record once every earlier one has been seen, as soon as
    /// that holds.
    pub fn run(self, on_line: &(dyn Fn(&JournalRecord) + Sync)) -> JournaledReport {
        let started = Instant::now();
        let BatchPlan {
            slots,
            journal,
            cfg,
            ..
        } = self;
        let journal_append = |record: &JournalRecord| {
            if let Some(j) = &journal {
                j.append(record);
            }
        };
        let lines = InOrder {
            state: Mutex::new((0, slots.iter().map(|_| None).collect())),
            on_line,
        };
        let mut keys = Vec::new();
        let mut specs = Vec::new();
        for (i, slot) in slots.into_iter().enumerate() {
            match slot {
                Slot::Done { record, append } => {
                    if append {
                        journal_append(&record);
                    }
                    lines.fill(i, || record);
                }
                Slot::Run(input, spec) => {
                    keys.push((i, input));
                    specs.push(*spec);
                }
            }
        }
        let to_record = |k: usize, outcome: &JobOutcome| JournalRecord {
            position: keys[k].0 as u32,
            input: keys[k].1,
            ..JournalRecord::from_outcome(outcome)
        };
        let outcomes = run_batch_observed(specs, &cfg, &|k, outcome| {
            let record = to_record(k, outcome);
            journal_append(&record);
            lines.fill(keys[k].0, || record);
        });
        // Jobs the pool never claimed (`--fail-fast`) were not observed.
        for (k, outcome) in outcomes.iter().enumerate() {
            lines.fill(keys[k].0, || to_record(k, outcome));
        }
        let (_, jobs) = lines.state.into_inner().unwrap();
        JournaledReport {
            jobs: jobs
                .into_iter()
                .map(|r| r.expect("every slot filled"))
                .collect(),
            wall: started.elapsed(),
        }
    }
}

/// Hands records to `on_line` in manifest order as the gaps close.
struct InOrder<'a> {
    /// The next position to hand out, and every record filled so far.
    state: Mutex<(usize, Vec<Option<JournalRecord>>)>,
    on_line: &'a (dyn Fn(&JournalRecord) + Sync),
}

impl InOrder<'_> {
    /// Fills slot `i` unless it is filled already, then passes on every
    /// record the fill made contiguous.
    fn fill(&self, i: usize, record: impl FnOnce() -> JournalRecord) {
        let mut state = self.state.lock().unwrap();
        let (next, slots) = &mut *state;
        if slots[i].is_none() {
            slots[i] = Some(record());
        }
        while let Some(Some(record)) = slots.get(*next) {
            (self.on_line)(record);
            *next += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JOURNAL_MAGIC;

    fn crash(path: &Path, e: &io::Error) -> ! {
        panic!("journal append failed: {}: {e}", path.display())
    }

    /// A one-job plan over `system`, resumed from the journal at `path`.
    fn resumed_plan(path: &Path, system: &Path) -> (BatchPlan, Vec<LogWarning>) {
        let policy = JournalPolicy {
            resume: true,
            pre_failed: false,
            fault: None,
            on_failure: crash,
        };
        let (journal, warnings) = BatchJournal::open(path, 42, policy).unwrap();
        let entries = vec![BatchEntry::load(system)];
        (BatchPlan::new(entries, Some(journal), BatchConfig::default()), warnings)
    }

    #[test]
    fn journal_with_a_torn_or_missing_header_resumes_fresh() {
        // A journal's header is written unsynced, so a crash before the
        // first append's sync may leave it empty or torn.
        let dir = std::env::temp_dir().join(format!("srtw-pool-header-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let system = dir.join("small.srtw");
        let text = "task t\nvertex a wcet=2 deadline=9\nedge a a sep=8\nserver fluid rate=1\n";
        std::fs::write(&system, text).unwrap();
        for (name, header) in [("missing", &[][..]), ("torn", &JOURNAL_MAGIC[..5])] {
            let path = dir.join(format!("{name}.wal"));
            std::fs::write(&path, header).unwrap();
            let (plan, warnings) = resumed_plan(&path, &system);
            assert_eq!(warnings.len(), 1, "{name}: {warnings:?}");
            assert!(warnings[0].message.contains("header"), "{name}");
            assert_eq!((plan.replayed(), plan.fresh()), (0, 1), "{name}");
            plan.run(&|_| {});
            // The fresh journal took the job's record.
            let (plan, warnings) = resumed_plan(&path, &system);
            assert!(warnings.is_empty(), "{name}: {warnings:?}");
            assert_eq!((plan.replayed(), plan.fresh()), (1, 0), "{name}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
