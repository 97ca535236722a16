//! The metric catalogue: every number the benchmark reports, with its
//! unit, its direction, and (for per-layer metrics) the layer it belongs
//! to and the end-to-end number it should move.

/// An end-to-end metric, as a user of the service sees it.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Constant on a correct commit (a correctness gate, not a cost):
    /// reported and compared, but kept out of `BENCHMARK.json`, whose
    /// metrics must vary from run to run.
    pub constant: bool,
}

const fn cost(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        constant: false,
    }
}

/// Every end-to-end metric, in report order. `error_rate` and
/// `exact_share` are correctness gates (0 and 1 on a correct commit); the
/// rest are costs.
pub const END_TO_END: [Metric; 8] = [
    cost("setup_s", "s", "lower"),
    cost("throughput_rps", "req/s", "higher"),
    cost("latency_p50_ms", "ms", "lower"),
    cost("latency_p99_ms", "ms", "lower"),
    cost("cpu_ms_per_req", "ms", "lower"),
    cost("rss_mb", "MiB", "lower"),
    Metric {
        name: "error_rate",
        unit: "ratio",
        better: "lower",
        constant: true,
    },
    Metric {
        name: "exact_share",
        unit: "ratio",
        better: "higher",
        constant: true,
    },
];

/// A per-layer metric from the traced run.
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The crate/module the number is measured at.
    pub layer: &'static str,
    /// Which end-to-end metric it should move, on which workload.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        layer,
        moves,
    }
}

const HTTP: &str = "serve::http/mux/pool";
const CACHE: &str = "serve::cache/delta";
const TEXTFMT: &str = "core::textfmt";
const BUSY: &str = "core::busy";
const PATHS: &str = "workload::rbf/paths";
const ANALYSIS: &str = "core::analysis";
const JSON: &str = "core::json";
const PERSIST: &str = "persist";
const JOURNAL: &str = "supervisor::journal";

/// Every per-layer metric, in report order.
pub const PER_LAYER: [Layer; 33] = [
    layer(
        "http.healthz_rtt_us",
        "us",
        "lower",
        HTTP,
        "latency_p50_ms on warm_repeat",
    ),
    layer(
        "serve.residual_us",
        "us",
        "lower",
        HTTP,
        "latency_p50_ms on warm_repeat",
    ),
    layer(
        "serve.wait_us",
        "us",
        "lower",
        HTTP,
        "latency_p50_ms on warm_repeat",
    ),
    layer(
        "serve.cache_hit_ratio",
        "ratio",
        "higher",
        CACHE,
        "throughput_rps, cpu_ms_per_req on incremental; no change on cold_random",
    ),
    layer(
        "serve.cache_evictions",
        "count",
        "lower",
        CACHE,
        "throughput_rps, cpu_ms_per_req on incremental; no change on cold_random",
    ),
    layer(
        "serve.cache_bytes",
        "bytes",
        "lower",
        CACHE,
        "rss_mb on warm_repeat, durable",
    ),
    layer(
        "serve.delta_splice_ratio",
        "ratio",
        "higher",
        CACHE,
        "throughput_rps, cpu_ms_per_req on incremental",
    ),
    layer(
        "textfmt.parse_us",
        "us",
        "lower",
        TEXTFMT,
        "latency_p50_ms on warm_repeat",
    ),
    layer(
        "textfmt.body_bytes",
        "bytes",
        "lower",
        TEXTFMT,
        "latency_p50_ms on warm_repeat",
    ),
    layer(
        "canon.form_us",
        "us",
        "lower",
        "workload::canon",
        "latency_p50_ms, latency_p99_ms on warm_repeat; no change on cold_random",
    ),
    layer(
        "busy.window_us",
        "us",
        "lower",
        BUSY,
        "latency_p50_ms, cpu_ms_per_req on cold_random; no change on warm_repeat",
    ),
    layer(
        "busy.iterations",
        "count",
        "lower",
        BUSY,
        "latency_p50_ms, cpu_ms_per_req on cold_random; no change on warm_repeat",
    ),
    layer(
        "busy.rbf_points",
        "count",
        "lower",
        BUSY,
        "latency_p50_ms, cpu_ms_per_req on cold_random; no change on warm_repeat",
    ),
    layer(
        "rbf.compute_us",
        "us",
        "lower",
        PATHS,
        "latency_p99_ms on cold_random",
    ),
    layer(
        "rbf.points",
        "count",
        "lower",
        PATHS,
        "latency_p99_ms on cold_random",
    ),
    layer(
        "paths.explore_us",
        "us",
        "lower",
        PATHS,
        "latency_p99_ms on cold_random",
    ),
    layer(
        "paths.generated",
        "count",
        "lower",
        PATHS,
        "latency_p99_ms on cold_random",
    ),
    layer(
        "paths.pruned",
        "count",
        "lower",
        PATHS,
        "latency_p99_ms on cold_random",
    ),
    layer(
        "paths.retained",
        "count",
        "lower",
        PATHS,
        "latency_p99_ms on cold_random",
    ),
    layer(
        "paths.prune_ratio",
        "ratio",
        "higher",
        PATHS,
        "latency_p99_ms on cold_random",
    ),
    layer(
        "minplus.meter_paths",
        "count",
        "lower",
        "minplus::meter",
        "cpu_ms_per_req on cold_random",
    ),
    layer(
        "minplus.meter_segments",
        "count",
        "lower",
        "minplus::meter",
        "cpu_ms_per_req on cold_random",
    ),
    layer(
        "analysis.structural_us",
        "us",
        "lower",
        ANALYSIS,
        "latency_p50_ms on cold_random, incremental",
    ),
    layer(
        "analysis.rtc_us",
        "us",
        "lower",
        ANALYSIS,
        "latency_p50_ms on cold_random, incremental",
    ),
    layer(
        "analysis.report_us",
        "us",
        "lower",
        ANALYSIS,
        "latency_p50_ms on cold_random, incremental",
    ),
    layer(
        "json.render_us",
        "us",
        "lower",
        JSON,
        "latency_p50_ms on cold_random; no change on warm_repeat",
    ),
    layer(
        "json.body_bytes",
        "bytes",
        "lower",
        JSON,
        "latency_p50_ms on cold_random; no change on warm_repeat",
    ),
    layer(
        "persist.load_dir_ms",
        "ms",
        "lower",
        PERSIST,
        "setup_s, latency_p99_ms on durable",
    ),
    layer(
        "persist.stored",
        "count",
        "higher",
        PERSIST,
        "setup_s, latency_p99_ms on durable",
    ),
    layer(
        "persist.errors",
        "count",
        "lower",
        PERSIST,
        "setup_s, latency_p99_ms on durable",
    ),
    layer(
        "journal.append_us",
        "us",
        "lower",
        JOURNAL,
        "latency_p99_ms, throughput_rps on durable",
    ),
    layer(
        "supervisor.batch_job_ms",
        "ms",
        "lower",
        JOURNAL,
        "latency_p99_ms, throughput_rps on durable",
    ),
    layer(
        "journal.batch_jobs",
        "count",
        "higher",
        JOURNAL,
        "latency_p99_ms, throughput_rps on durable",
    ),
];

/// The unit of any metric in the catalogue.
pub fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.name, m.unit))
        .chain(PER_LAYER.iter().map(|m| (m.name, m.unit)))
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}
