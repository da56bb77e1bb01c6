//! Observability overhead guard: measures the cost of running the ingest →
//! corpus hot path with a live [`Obs`] handle (spans + batched counters +
//! histograms) against the same path through the no-op handle, and writes
//! the result to `BENCH_obs.json`.
//!
//! Each measured round runs the arms ABBA (plain, instrumented,
//! instrumented, plain) in one process and the guard is judged on the
//! *median of the per-round paired differences* — back-to-back passes share
//! their machine state, so common-mode drift (scheduler, cache, CI
//! neighbors) cancels out of each difference, and the ABBA order cancels
//! drift that is linear within a round. Min-of-N for both arms is recorded
//! alongside. Exits non-zero when the overhead exceeds the budget
//! (`OBS_OVERHEAD_MAX_PCT`, default 3%), which is what CI enforces.
//!
//! Usage: `cargo run --release -p mtls-bench --bin obs_overhead [OUT.json]`

use mtls_bench::sim_output;
use mtls_core::{build_corpus_obs, load_dir, IngestMode};
use mtls_obs::Obs;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const WARMUP_ROUNDS: usize = 3;
const MEASURED_ROUNDS: usize = 31;
const DEFAULT_MAX_PCT: f64 = 3.0;

/// One full pass of the guarded hot path: rotated-directory ingest plus
/// corpus build, all through `obs` (a no-op handle makes this the
/// uninstrumented arm). Returns wall micros.
fn one_pass(dir: &Path, obs: &Obs) -> u64 {
    let t0 = Instant::now();
    let workers = mtls_zeek::available_workers();
    let (inputs, diag) = load_dir(dir, IngestMode::Strict, workers, obs, None).expect("ingest");
    let corpus = build_corpus_obs(inputs, obs, None);
    black_box((corpus.certs.len(), diag.stats.rows_parsed));
    t0.elapsed().as_micros() as u64
}

fn median(sorted: &[u64]) -> u64 {
    sorted[sorted.len() / 2]
}

fn main() {
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_obs.json".to_string());
    let max_pct: f64 = std::env::var("OBS_OVERHEAD_MAX_PCT")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_MAX_PCT);

    let dir = std::env::temp_dir().join(format!("mtlscope-obs-overhead-{}", std::process::id()));
    sim_output()
        .write_to_dir_rotated(&dir)
        .expect("write rotated fixture");

    for _ in 0..WARMUP_ROUNDS {
        one_pass(&dir, &Obs::noop());
        one_pass(&dir, &Obs::new());
    }
    let mut plain = Vec::with_capacity(MEASURED_ROUNDS);
    let mut instrumented = Vec::with_capacity(MEASURED_ROUNDS);
    for _ in 0..MEASURED_ROUNDS {
        // ABBA within the round: averaging the outer pair against the inner
        // pair cancels any drift that is linear across the four passes.
        let a1 = one_pass(&dir, &Obs::noop());
        let b1 = one_pass(&dir, &Obs::new());
        let b2 = one_pass(&dir, &Obs::new());
        let a2 = one_pass(&dir, &Obs::noop());
        plain.push((a1 + a2) / 2);
        instrumented.push((b1 + b2) / 2);
    }
    std::fs::remove_dir_all(&dir).ok();

    // Per-round paired differences: the asserted metric. Each difference is
    // taken between passes that ran back to back in one ABBA round, so
    // machine-wide noise largely cancels; the median of the differences
    // rejects the outliers that remain.
    let mut diffs: Vec<i64> = plain
        .iter()
        .zip(&instrumented)
        .map(|(&p, &i)| i as i64 - p as i64)
        .collect();
    diffs.sort_unstable();
    let median_diff_micros = diffs[diffs.len() / 2];

    plain.sort_unstable();
    instrumented.sort_unstable();
    let (plain_min, instr_min) = (plain[0], instrumented[0]);
    let min_overhead_pct = 100.0 * (instr_min as f64 - plain_min as f64) / plain_min as f64;
    let overhead_pct = 100.0 * median_diff_micros as f64 / median(&plain) as f64;
    let passed = overhead_pct < max_pct;

    let json = format!(
        "{{\n  \"bench\": \"crates/bench/src/bin/obs_overhead.rs\",\n  \
         \"command\": \"cargo run --release -p mtls-bench --bin obs_overhead\",\n  \
         \"path\": \"load_dir (rotated 23-month dir, strict) -> build_corpus_obs\",\n  \
         \"arms\": {{\n    \
         \"uninstrumented\": \"Obs::noop() — every obs call short-circuits\",\n    \
         \"instrumented\": \"Obs::new() — live span tree, counters, histograms\"\n  }},\n  \
         \"rounds\": {{\"warmup\": {WARMUP_ROUNDS}, \"measured\": {MEASURED_ROUNDS}, \
         \"interleaved\": true}},\n  \
         \"uninstrumented_micros\": {{\"min\": {plain_min}, \"median\": {}}},\n  \
         \"instrumented_micros\": {{\"min\": {instr_min}, \"median\": {}}},\n  \
         \"median_paired_diff_micros\": {median_diff_micros},\n  \
         \"overhead_pct\": {overhead_pct:.3},\n  \
         \"overhead_pct_of_min\": {min_overhead_pct:.3},\n  \
         \"budget_pct\": {max_pct},\n  \
         \"passed\": {passed},\n  \
         \"note\": \"overhead_pct is the asserted metric: median of per-round back-to-back differences over the median baseline, which cancels machine-wide drift. Instrumentation batches one counter add and one histogram record per shard, never per row, so the true cost is microseconds on a ~50-110ms pass.\"\n}}\n",
        median(&plain),
        median(&instrumented),
    );
    std::fs::write(&out_path, &json).expect("write BENCH_obs.json");
    println!(
        "obs overhead: {overhead_pct:.3}% of {:.1}ms baseline (budget {max_pct}%) -> {}",
        plain_min as f64 / 1000.0,
        if passed { "ok" } else { "OVER BUDGET" },
    );
    println!("written to {out_path}");
    if !passed {
        std::process::exit(1);
    }
}
