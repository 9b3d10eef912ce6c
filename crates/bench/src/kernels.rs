//! The kernel benchmark suite behind `bench_kernels` (`BENCH_kernels.json`).
//!
//! Methodology — the rules that make the numbers trustworthy:
//!
//! * every measurement is one warm-up run plus the **median** of `reps`
//!   timed runs (median, not mean: one scheduler hiccup on a small box
//!   must not invent a regression);
//! * a speedup is only reported when **both** sides of the ratio took at
//!   least [`MIN_MEANINGFUL_SECS`] — timer noise on sub-10 ms workloads
//!   produces fiction, so those speedups are `null` in the JSON;
//! * the detected core count is recorded verbatim. Parallel speedups are
//!   measured at a fixed thread count (default 4) even on a 1-core host,
//!   where values near 1.0× are the *correct* result, not a failure;
//! * every product workload bitwise-compares the tiled kernel against the
//!   retained naive reference on the bench's own inputs, and every
//!   parallel measurement bitwise-compares against the single-thread
//!   result — a benchmark that quietly computed something different would
//!   be worse than no benchmark.
//!
//! Workloads are sized by `--scale` (committed results use 0.2, 1 and 5)
//! and mirror the pipeline's real kernel shapes: the large square matmul,
//! the tall-skinny GCN forward product and both backward products
//! (`G · Wᵀ`, `Hᵀ · G`), the similarity `A · Aᵀ`, fused
//! elementwise+normalize, CSLS adjustment, and the full decision stage.

use ceaff::prelude::*;
use ceaff::tensor::{kernels::reference, Matrix};
use ceaff_sim::SimilarityMatrix;
use serde_json::{json, Value};
use std::time::Instant;

/// Below this median wall-clock, a speedup ratio is noise and is refused.
pub const MIN_MEANINGFUL_SECS: f64 = 0.010;

/// Schema version stamped into (and required from) the JSON report.
pub const KERNEL_SCHEMA_VERSION: u64 = 1;

/// Options for one `bench_kernels` invocation.
pub struct KernelBenchOpts {
    /// Dataset/shape scales to run (one report entry per scale).
    pub scales: Vec<f64>,
    /// Timed repetitions per measurement (after one warm-up run).
    pub reps: usize,
    /// Smoke mode: fewer reps, same workloads, same schema.
    pub check: bool,
    /// Thread count for the parallel measurements.
    pub parallel_threads: usize,
}

impl Default for KernelBenchOpts {
    fn default() -> Self {
        Self {
            scales: vec![1.0],
            reps: 5,
            check: false,
            parallel_threads: 4,
        }
    }
}

/// A reproducible pseudo-random matrix (no RNG dependency needed).
fn lcg_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
    let mut state = seed | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// One warm-up call, then the median of `reps` timed calls under
/// `threads` threads. Returns the median seconds and the last result.
fn warm_median<R>(threads: usize, reps: usize, f: impl Fn() -> R) -> (f64, R) {
    let _ = ceaff_parallel::with_threads(threads, &f);
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        let r = ceaff_parallel::with_threads(threads, &f);
        secs.push(start.elapsed().as_secs_f64());
        last = Some(r);
    }
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (secs[secs.len() / 2], last.expect("reps >= 1"))
}

/// `a / b`, or `null` when either side is too fast to trust.
fn honest_speedup(numer: f64, denom: f64) -> Value {
    if numer < MIN_MEANINGFUL_SECS || denom < MIN_MEANINGFUL_SECS {
        Value::Null
    } else {
        json!(numer / denom)
    }
}

fn assert_bitwise(label: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape mismatch");
    let gb: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
    let wb: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
    assert_eq!(gb, wb, "{label}: tiled and naive kernels disagree bitwise");
}

/// Measure one product workload: naive reference (sequential) vs tiled at
/// 1 thread vs tiled at `par_threads` threads, with bitwise parity
/// asserted between all three.
fn product_workload(
    name: &str,
    dims: String,
    reps: usize,
    par_threads: usize,
    naive: impl Fn() -> Matrix,
    tiled: impl Fn() -> Matrix,
) -> Value {
    let want = naive();
    let got = tiled();
    assert_bitwise(name, &got, &want);
    let (naive_1t, _) = warm_median(1, reps, &naive);
    let (tiled_1t, seq_out) = warm_median(1, reps, &tiled);
    let (tiled_par, par_out) = warm_median(par_threads, reps, &tiled);
    assert_bitwise(
        &format!("{name} ({par_threads} threads)"),
        &par_out,
        &seq_out,
    );
    eprintln!(
        "  {name:<24} naive 1t {naive_1t:>8.4}s   tiled 1t {tiled_1t:>8.4}s   tiled {par_threads}t {tiled_par:>8.4}s"
    );
    json!({
        "name": name,
        "dims": dims,
        "parity": "bitwise",
        "seconds_naive_1t": naive_1t,
        "seconds_tiled_1t": tiled_1t,
        "seconds_tiled_par": tiled_par,
        "single_thread_speedup": honest_speedup(naive_1t, tiled_1t),
        "parallel_speedup": honest_speedup(tiled_1t, tiled_par),
    })
}

/// Measure a workload with no naive counterpart: 1 thread vs
/// `par_threads`, asserting the results agree via `same`.
fn scaling_workload<R>(
    name: &str,
    dims: String,
    reps: usize,
    par_threads: usize,
    f: impl Fn() -> R,
    same: impl Fn(&R, &R) -> bool,
) -> Value {
    let (secs_1t, out_1t) = warm_median(1, reps, &f);
    let (secs_par, out_par) = warm_median(par_threads, reps, &f);
    assert!(
        same(&out_1t, &out_par),
        "{name}: result differs between 1 and {par_threads} threads"
    );
    eprintln!("  {name:<24} 1t {secs_1t:>8.4}s   {par_threads}t {secs_par:>8.4}s");
    json!({
        "name": name,
        "dims": dims,
        "parity": "thread-invariant",
        "seconds_tiled_1t": secs_1t,
        "seconds_tiled_par": secs_par,
        "parallel_speedup": honest_speedup(secs_1t, secs_par),
    })
}

fn bench_scale(scale: f64, reps: usize, par_threads: usize) -> Vec<Value> {
    let mut workloads = Vec::new();

    // The large square matmul — the headline cache-blocking shape
    // (adjacency-sized products; flops scale linearly with `scale`).
    let c = ((1024.0 * scale.cbrt()).round() as usize).clamp(96, 4096);
    {
        let a = lcg_matrix(c, c, 11);
        let b = lcg_matrix(c, c, 13);
        workloads.push(product_workload(
            "matmul_large",
            format!("{c}x{c} * {c}x{c}"),
            reps,
            par_threads,
            || reference::matmul(&a, &b),
            || a.matmul(&b),
        ));
    }

    // GCN forward `H · W`: tall-skinny by square weight.
    let rows = ((15_000.0 * scale).round() as usize).clamp(500, 200_000);
    {
        let h = lcg_matrix(rows, 64, 5);
        let w = lcg_matrix(64, 64, 7);
        workloads.push(product_workload(
            "matmul_gcn_forward",
            format!("{rows}x64 * 64x64"),
            reps,
            par_threads,
            || reference::matmul(&h, &w),
            || h.matmul(&w),
        ));
    }

    // GCN backward `G · Wᵀ`: the input gradient of every `H · W` layer,
    // the product GCN training spends most of its time in.
    {
        let g = lcg_matrix(rows, 64, 37);
        let w = lcg_matrix(64, 64, 41);
        workloads.push(product_workload(
            "matmul_transpose_grad",
            format!("{rows}x64 * (64x64)^T"),
            reps,
            par_threads,
            || reference::matmul_transpose(&g, &w),
            || g.matmul_transpose(&w),
        ));
    }

    // Similarity `Z · Zᵀ`: the embedding-to-similarity kernel.
    let ents = ((3_000.0 * scale.sqrt()).round() as usize).clamp(200, 20_000);
    {
        let z = lcg_matrix(ents, 64, 3);
        workloads.push(product_workload(
            "matmul_transpose_sim",
            format!("{ents}x64 * ({ents}x64)^T"),
            reps,
            par_threads,
            || reference::matmul_transpose(&z, &z),
            || z.matmul_transpose(&z),
        ));
    }

    // GCN backward `Hᵀ · G`: gradient accumulation shape.
    {
        let h = lcg_matrix(rows, 64, 17);
        let g = lcg_matrix(rows, 64, 19);
        workloads.push(product_workload(
            "transpose_matmul_grad",
            format!("({rows}x64)^T * {rows}x64"),
            reps,
            par_threads,
            || reference::transpose_matmul(&h, &g),
            || h.transpose_matmul(&g),
        ));
    }

    // Fused elementwise + row-normalize vs the unfused two-pass chain.
    // The fused path must also be bitwise-equal — it replays the exact
    // expressions — so this doubles as a parity check.
    let n = ((2_500.0 * scale.sqrt()).round() as usize).clamp(200, 12_000);
    {
        let x = lcg_matrix(n, n, 23);
        let y = lcg_matrix(n, n, 29);
        workloads.push(product_workload(
            "fusion_elementwise",
            format!("{n}x{n} hadamard + l2-normalize"),
            reps,
            par_threads,
            || {
                // Unfused: materialize the product, clone, then
                // normalize in place — the pre-fusion call pattern.
                let prod = x.zip_map(&y, |a, b| a * b);
                let mut m = prod.clone();
                m.l2_normalize_rows();
                m
            },
            || x.hadamard(&y).l2_normalized_rows(),
        ));
    }

    // CSLS hubness adjustment on a synthetic similarity matrix.
    let csls_n = ((1_000.0 * scale.sqrt()).round() as usize).clamp(150, 8_000);
    {
        let sim = SimilarityMatrix::new(lcg_matrix(csls_n, csls_n, 31));
        workloads.push(scaling_workload(
            "csls",
            format!("{csls_n}x{csls_n}, k=10"),
            reps,
            par_threads,
            || ceaff_sim::csls_adjusted(&sim, 10),
            |a, b| a.as_matrix().as_slice() == b.as_matrix().as_slice(),
        ));
    }

    // The full decision stage (fusion + collective matching) on real
    // pipeline features. The dataset is deliberately smaller than the raw
    // kernel shapes — feature computation (GCN training) dominates setup,
    // not measurement — and its true size is recorded in `dims`.
    let ds_scale = 0.3 * scale.min(2.0);
    {
        let task = DatasetTask::from_preset(Preset::SrprsEnFr, ds_scale, 64);
        let mut cfg = CeaffConfig::default();
        cfg.gcn.dim = 32;
        cfg.gcn.epochs = 30;
        let features = FeatureSet::compute_all(&task.input(), &cfg);
        let telemetry = Telemetry::disabled();
        let pairs = task.dataset.pair.source.num_entities();
        workloads.push(scaling_workload(
            "decision",
            format!("{pairs} entities (dataset scale {ds_scale:.2})"),
            reps,
            par_threads,
            || {
                try_run_with_features(&task.dataset.pair, &features, &cfg, &telemetry)
                    .expect("pipeline runs")
            },
            |a, b| a.matching.pairs() == b.matching.pairs(),
        ));
    }

    workloads
}

/// Run the suite and return the JSON report (not yet written to disk).
pub fn run_kernel_bench(opts: &KernelBenchOpts) -> Value {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let reps = if opts.check { 2 } else { opts.reps.max(1) };
    eprintln!(
        "bench_kernels: {} detected core(s); parallel measurements use {} thread(s); \
         median of {reps} rep(s) after warm-up",
        cores, opts.parallel_threads
    );
    let mut runs = Vec::new();
    for &scale in &opts.scales {
        eprintln!("scale {scale}:");
        runs.push(json!({
            "scale": scale,
            "workloads": bench_scale(scale, reps, opts.parallel_threads),
        }));
    }
    json!({
        "schema_version": KERNEL_SCHEMA_VERSION,
        "bench": "kernels",
        "detected_cores": cores,
        "parallel_threads": opts.parallel_threads,
        "check_mode": opts.check,
        "reps": reps,
        "min_meaningful_secs": MIN_MEANINGFUL_SECS,
        "runs": runs,
        "notes": [
            "speedups are null when either side's median is below min_meaningful_secs (timer noise)",
            "parallel speedups are measured at parallel_threads regardless of detected_cores; ~1.0x on a single-core host is the honest result",
            "every product workload asserts bitwise parity between the tiled kernel, the naive reference, and the parallel run",
        ],
    })
}

/// Validate a kernel-bench report against the schema this module emits.
/// Returns the first problem found, as a human-readable message.
pub fn validate_report(doc: &Value) -> Result<(), String> {
    if doc.as_object().is_none() {
        return Err("report is not a JSON object".into());
    }
    match doc.get("schema_version").and_then(Value::as_u64) {
        Some(KERNEL_SCHEMA_VERSION) => {}
        other => {
            return Err(format!(
                "schema_version must be {KERNEL_SCHEMA_VERSION}, got {other:?}"
            ))
        }
    }
    if doc.get("bench").and_then(Value::as_str) != Some("kernels") {
        return Err("bench must be \"kernels\"".into());
    }
    for key in ["detected_cores", "parallel_threads", "reps"] {
        if doc.get(key).and_then(Value::as_u64).is_none_or(|v| v == 0) {
            return Err(format!("{key} must be a positive integer"));
        }
    }
    let runs = doc
        .get("runs")
        .and_then(Value::as_array)
        .ok_or("runs must be an array")?;
    if runs.is_empty() {
        return Err("runs is empty".into());
    }
    for run in runs {
        let scale = run
            .get("scale")
            .and_then(Value::as_f64)
            .ok_or("run.scale must be a number")?;
        if scale <= 0.0 {
            return Err(format!("run.scale must be positive, got {scale}"));
        }
        let workloads = run
            .get("workloads")
            .and_then(Value::as_array)
            .ok_or("run.workloads must be an array")?;
        if workloads.is_empty() {
            return Err(format!("run at scale {scale} has no workloads"));
        }
        for w in workloads {
            let name = w
                .get("name")
                .and_then(Value::as_str)
                .ok_or("workload.name must be a string")?;
            if w.get("dims").and_then(Value::as_str).is_none() {
                return Err(format!("{name}: dims must be a string"));
            }
            match w.get("parity").and_then(Value::as_str) {
                Some("bitwise" | "thread-invariant") => {}
                other => return Err(format!("{name}: parity must be declared, got {other:?}")),
            }
            for key in ["seconds_tiled_1t", "seconds_tiled_par"] {
                match w.get(key).and_then(Value::as_f64) {
                    Some(v) if v > 0.0 => {}
                    _ => return Err(format!("{name}: {key} must be a positive number")),
                }
            }
            // Speedups must be present, and each is a number or an honest null.
            for key in ["parallel_speedup"] {
                match w.get(key) {
                    Some(Value::Null) => {}
                    Some(v) if v.as_f64().is_some_and(|s| s > 0.0) => {}
                    other => {
                        return Err(format!(
                            "{name}: {key} must be number or null, got {other:?}"
                        ))
                    }
                }
            }
            if w.get("parity").and_then(Value::as_str) == Some("bitwise") {
                match w.get("single_thread_speedup") {
                    Some(Value::Null) => {}
                    Some(v) if v.as_f64().is_some_and(|s| s > 0.0) => {}
                    other => {
                        return Err(format!(
                            "{name}: single_thread_speedup must be number or null, got {other:?}"
                        ))
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_speedup_refuses_fast_workloads() {
        assert!(honest_speedup(0.005, 0.5).is_null());
        assert!(honest_speedup(0.5, 0.005).is_null());
        let v = honest_speedup(0.5, 0.25);
        assert!((v.as_f64().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn validate_rejects_missing_fields() {
        assert!(validate_report(&json!({})).is_err());
        assert!(validate_report(&json!({
            "schema_version": 1usize, "bench": "kernels",
            "detected_cores": 1usize, "parallel_threads": 4usize, "reps": 5usize,
            "runs": Value::Array(Vec::new()),
        }))
        .is_err());
    }

    #[test]
    fn validate_accepts_minimal_valid_report() {
        let workload = json!({
            "name": "matmul_large",
            "dims": "96x96 * 96x96",
            "parity": "bitwise",
            "seconds_naive_1t": 0.5,
            "seconds_tiled_1t": 0.2,
            "seconds_tiled_par": 0.2,
            "single_thread_speedup": 2.5,
            "parallel_speedup": null,
        });
        let run = json!({
            "scale": 0.2,
            "workloads": Value::Array(vec![workload]),
        });
        let doc = json!({
            "schema_version": 1usize,
            "bench": "kernels",
            "detected_cores": 1usize,
            "parallel_threads": 4usize,
            "reps": 5usize,
            "runs": Value::Array(vec![run]),
        });
        assert_eq!(validate_report(&doc), Ok(()));
    }
}
