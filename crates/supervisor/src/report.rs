//! The batch report: counts, overall status and the one renderer.

use crate::job::JobStatus;
use crate::journal::JournalRecord;
use srtw_core::Json;
use std::fmt;
use std::time::Duration;

/// Outcome counts of one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BatchCounts {
    /// Jobs that completed with exact bounds.
    pub exact: usize,
    /// Jobs that completed with sound but degraded bounds.
    pub degraded: usize,
    /// Jobs that failed every rung of the ladder.
    pub failed: usize,
    /// Jobs never attempted (`--fail-fast`).
    pub skipped: usize,
}

impl BatchCounts {
    /// Tallies job statuses.
    pub fn of(statuses: impl IntoIterator<Item = JobStatus>) -> BatchCounts {
        let mut c = BatchCounts::default();
        for status in statuses {
            match status {
                JobStatus::Exact => c.exact += 1,
                JobStatus::Degraded => c.degraded += 1,
                JobStatus::Failed => c.failed += 1,
                JobStatus::Skipped => c.skipped += 1,
            }
        }
        c
    }

    /// Overall classification (drives the CLI exit code).
    pub fn status(&self) -> BatchStatus {
        if self.failed > 0 || self.skipped > 0 {
            BatchStatus::SomeFailed
        } else if self.degraded > 0 {
            BatchStatus::SomeDegraded
        } else {
            BatchStatus::AllExact
        }
    }
}

/// Overall classification of a batch, in increasing severity. Maps to the
/// CLI exit-code contract: all-exact → 0, some-degraded → 0 plus a stderr
/// warning, some-failed → 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchStatus {
    /// Every job completed with exact bounds.
    AllExact,
    /// Every job completed, but some only with degraded (still sound)
    /// bounds.
    SomeDegraded,
    /// Some jobs failed every rung (or were skipped by `--fail-fast`).
    SomeFailed,
}

impl BatchStatus {
    /// Stable machine-readable name.
    pub fn as_str(self) -> &'static str {
        match self {
            BatchStatus::AllExact => "all_exact",
            BatchStatus::SomeDegraded => "some_degraded",
            BatchStatus::SomeFailed => "some_failed",
        }
    }
}

/// A batch report assembled from journal records, replayed and fresh
/// alike: each record carries its outcome's rendering verbatim, so a
/// resumed run's report is byte-identical to an uninterrupted run's.
#[derive(Debug, Clone)]
pub struct JournaledReport {
    /// One record per manifest entry, in manifest order.
    pub jobs: Vec<JournalRecord>,
    /// Wall-clock time of the (resumed) batch run.
    pub wall: Duration,
}

impl JournaledReport {
    /// Tallies the job outcomes.
    pub fn counts(&self) -> BatchCounts {
        BatchCounts::of(self.jobs.iter().map(|j| j.status))
    }

    /// The report as JSON text, splicing each record's stored rendering
    /// verbatim into the `jobs` array.
    pub fn to_json_text(&self) -> String {
        let c = self.counts();
        let mut out = String::from("{\"jobs\":[");
        for (i, job) in self.jobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&job.json);
        }
        out.push_str("],\"summary\":");
        let summary = Json::object(vec![
            ("status", Json::str(c.status().as_str())),
            ("total", Json::Int(self.jobs.len() as i128)),
            ("exact", Json::Int(c.exact as i128)),
            ("degraded", Json::Int(c.degraded as i128)),
            ("failed", Json::Int(c.failed as i128)),
            ("skipped", Json::Int(c.skipped as i128)),
            ("wall_ms", Json::Float(self.wall.as_secs_f64() * 1e3)),
        ]);
        out.push_str(&format!("{summary}"));
        out.push('}');
        out
    }
}

impl fmt::Display for JournaledReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for job in &self.jobs {
            let rung = match &job.rung {
                Some(r) => format!(" [{r}]"),
                None => String::new(),
            };
            let detail = match &job.error {
                Some(e) => format!(": {e}"),
                None => String::new(),
            };
            writeln!(
                f,
                "{:<9} {}{} ({} attempt{}, {:.1} ms){}",
                job.status.as_str(),
                job.name,
                rung,
                job.attempts,
                if job.attempts == 1 { "" } else { "s" },
                job.wall_secs() * 1e3,
                detail
            )?;
        }
        let c = self.counts();
        write!(
            f,
            "batch: {} job(s) — {} exact, {} degraded, {} failed, {} skipped in {:.1} ms",
            self.jobs.len(),
            c.exact,
            c.degraded,
            c.failed,
            c.skipped,
            self.wall.as_secs_f64() * 1e3
        )
    }
}
