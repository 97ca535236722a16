//! The FIFO analysis document shared by `srtw analyze --json` and
//! `POST /analyze`.
//!
//! Both entry points must emit **byte-identical** JSON for the same
//! system (the soak suite asserts it), so the document is built in
//! exactly one place, [`FifoReport::write_json`]: the service writes it
//! straight into the response body, and the CLI prints the same bytes
//! through [`FifoReport::to_json`].

use srtw_core::json::{push_array, push_bool};
use srtw_core::push_object;
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
    /// `true` when any stream or the baseline carries a degraded (still
    /// sound) bound.
    pub fn degraded(&self) -> bool {
        !self.rtc.quality.is_exact() || self.per.iter().any(|a| !a.degradations.is_empty())
    }

    /// Appends the `srtw analyze --json` document (scheduler `fifo`) to
    /// `out`, reserving room for a typical document of its size first.
    pub fn write_json(&self, out: &mut String) {
        let vertices: usize = self.per.iter().map(|a| a.per_vertex.len()).sum();
        out.reserve(384 * self.per.len() + 288 * vertices);
        push_object!(out,
            "scheduler" => out.push_str("\"fifo\""),
            "degraded" => push_bool(out, self.degraded()),
            "rtc" => self.rtc.write_json(out),
            "streams" => push_array(out, &self.per, |out, a| a.write_json(out)),
        );
    }

    /// The `srtw analyze --json` document (scheduler `fifo`).
    pub fn to_json(&self) -> Json {
        Json::writing(|out| self.write_json(out))
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
        let doc = r.to_json().render();
        assert!(doc.starts_with("{\"scheduler\":\"fifo\",\"degraded\":false,\"rtc\":"));
        assert!(doc.contains("\"streams\":["));
    }

    #[test]
    fn tripped_budget_marks_the_report_degraded() {
        let (tasks, beta) = small_system();
        // One path is exactly what the system's single search needs.
        let cfg = AnalysisConfig {
            budget: Budget::default().with_max_paths(0),
            ..Default::default()
        };
        let r = fifo_report(&tasks, &beta, &cfg).unwrap();
        assert!(r.degraded());
        let doc = r.to_json().render();
        assert!(doc.contains("\"degraded\":true"));
    }
}
