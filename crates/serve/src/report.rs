//! The FIFO analysis document shared by `srtw analyze --json` and
//! `POST /analyze`.
//!
//! Both entry points must emit **byte-identical** JSON for the same
//! system (the soak suite asserts it), so the document is built in
//! exactly one place: the CLI calls [`fifo_report`] + [`FifoReport::to_json`]
//! and so does the service worker.

use srtw_core::{fifo_analysis, AnalysisConfig, AnalysisError, DelayAnalysis, Json, RtcReport};
use srtw_minplus::Curve;
use srtw_workload::DrtTask;

/// The FIFO analysis of one system: per-stream structural bounds plus the
/// stream-agnostic RTC baseline.
#[derive(Debug, Clone)]
pub struct FifoReport {
    /// Structural per-stream analyses, in task order.
    pub per: Vec<DelayAnalysis>,
    /// The RTC baseline over the same budget.
    pub rtc: RtcReport,
}

/// Runs the FIFO analysis under `cfg`: one busy-window fixpoint, every
/// stream's structural bounds, and the RTC baseline from that same
/// fixpoint (so the baseline shares `cfg.budget` and its meter). Every
/// entry point runs this one engine, so budget trips and injected faults
/// land on the same metered operation whichever of them runs the analysis.
pub fn fifo_report(
    tasks: &[DrtTask],
    beta: &Curve,
    cfg: &AnalysisConfig,
) -> Result<FifoReport, AnalysisError> {
    let (per, rtc) = fifo_analysis(tasks, beta, cfg)?;
    Ok(FifoReport { per, rtc })
}

impl FifoReport {
    /// The sorted, deduplicated budget dimensions that tripped, with the
    /// CLI's historical quirk preserved: a degraded RTC baseline with no
    /// per-stream records reports as plain `"budget"`.
    pub fn degradation_kinds(&self) -> Vec<String> {
        let mut kinds: Vec<String> = self
            .per
            .iter()
            .flat_map(|a| a.degradations.iter().map(|d| d.tripped.to_string()))
            .collect();
        if !self.rtc.quality.is_exact() && kinds.is_empty() {
            kinds.push("budget".into());
        }
        kinds.sort();
        kinds.dedup();
        kinds
    }

    /// `true` when any stream or the baseline carries a degraded (still
    /// sound) bound.
    pub fn degraded(&self) -> bool {
        !self.degradation_kinds().is_empty()
    }

    /// The `srtw analyze --json` document (scheduler `fifo`).
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("scheduler", Json::str("fifo")),
            ("degraded", Json::Bool(self.degraded())),
            ("rtc", self.rtc.to_json()),
            (
                "streams",
                Json::Array(self.per.iter().map(|a| a.to_json()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srtw_minplus::{Budget, Q};
    use srtw_workload::DrtTaskBuilder;

    fn small_system() -> (Vec<DrtTask>, Curve) {
        let mut b = DrtTaskBuilder::new("t");
        let v = b.vertex("a", Q::int(2));
        b.edge(v, v, Q::int(8));
        (vec![b.build().unwrap()], Curve::affine(Q::ZERO, Q::ONE))
    }

    #[test]
    fn exact_report_is_not_degraded_and_renders_the_cli_document() {
        let (tasks, beta) = small_system();
        let r = fifo_report(&tasks, &beta, &AnalysisConfig::default()).unwrap();
        assert!(!r.degraded());
        assert!(r.degradation_kinds().is_empty());
        let doc = r.to_json().render();
        assert!(doc.starts_with("{\"scheduler\":\"fifo\",\"degraded\":false,\"rtc\":"));
        assert!(doc.contains("\"streams\":["));
    }

    #[test]
    fn tripped_budget_reports_degradation_kinds() {
        let (tasks, beta) = small_system();
        // One path is exactly what the system's single search needs.
        let cfg = AnalysisConfig {
            budget: Budget::default().with_max_paths(0),
            ..Default::default()
        };
        let r = fifo_report(&tasks, &beta, &cfg).unwrap();
        assert!(r.degraded());
        assert!(!r.degradation_kinds().is_empty());
        let doc = r.to_json().render();
        assert!(doc.contains("\"degraded\":true"));
    }
}
