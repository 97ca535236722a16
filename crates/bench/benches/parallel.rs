//! B6 — the shaped-convolution fast paths against the general kernel
//! (asserts identical results before timing).
//!
//! Run with `cargo bench -p srtw-bench --bench parallel`; set
//! `SRTW_BENCH_FAST=1` for a quick smoke run.

use srtw_bench::suites::parallel_suite;
use srtw_bench::timing::{print_samples, Timer};

fn main() {
    print_samples(&parallel_suite(&Timer::from_env()));
}
