//! The kernel benchmark suite behind `bench_kernels` (`BENCH_kernels.json`).
//!
//! Methodology — the rules that make the numbers trustworthy:
//!
//! * every measurement is a [`warm_median`] (median, not mean: one
//!   scheduler hiccup on a small box must not invent a regression);
//! * a speedup is an [`honest_speedup`]: `null` unless both sides took at
//!   least [`MIN_MEANINGFUL_SECS`];
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
//! (`G · Wᵀ`, `Hᵀ · G`), the forward product and the row-skipping
//! backward at align_gcn's own shape and share of live gradient rows, the
//! sparse `Âᵀ · G` backward (scatter against the gather over a transpose
//! built once), the similarity `A · Aᵀ`, the string
//! feature's `lev*` (DP against bit-parallel), fused
//! elementwise+normalize, CSLS adjustment, and the full decision stage.

use crate::harness::{self, honest_speedup, warm_median, MIN_MEANINGFUL_SECS};
use ceaff::prelude::*;
use ceaff::tensor::{graph::matmul_grads, kernels::reference, Matrix};
use ceaff_sim::SimilarityMatrix;
use serde_json::{json, Value};

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

fn assert_bitwise(label: &str, got: &Matrix, want: &Matrix) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape mismatch");
    let gb: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
    let wb: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
    assert_eq!(gb, wb, "{label}: tiled and naive kernels disagree bitwise");
}

/// How every workload of one run is measured: `reps` timed runs after a
/// warm-up, at 1 thread and at `par_threads`.
struct Timing {
    reps: usize,
    par_threads: usize,
}

/// Measure one product workload: naive reference (sequential) vs tiled at
/// 1 thread vs tiled at `par_threads` threads, with bitwise parity
/// asserted between all three.
fn product_workload(
    &Timing { reps, par_threads }: &Timing,
    name: &str,
    dims: String,
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
    &Timing { reps, par_threads }: &Timing,
    name: &str,
    dims: String,
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

fn bench_scale(scale: f64, t: Timing) -> Vec<Value> {
    let mut workloads = Vec::new();

    // The large square matmul — the headline cache-blocking shape
    // (adjacency-sized products; flops scale linearly with `scale`).
    let c = ((1024.0 * scale.cbrt()).round() as usize).clamp(96, 4096);
    {
        let a = lcg_matrix(c, c, 11);
        let b = lcg_matrix(c, c, 13);
        workloads.push(product_workload(
            &t,
            "matmul_large",
            format!("{c}x{c} * {c}x{c}"),
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
            &t,
            "matmul_gcn_forward",
            format!("{rows}x64 * 64x64"),
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
            &t,
            "matmul_transpose_grad",
            format!("{rows}x64 * (64x64)^T"),
            || reference::matmul_transpose(&g, &w),
            || g.matmul_transpose(&w),
        ));
    }

    // GCN forward `H · W` at align_gcn's own shape (650 entities at
    // scale 1): zero-free rows take the unconditional strips.
    let gcn_rows = ((650.0 * scale).round() as usize).max(64);
    {
        let h = lcg_matrix(gcn_rows, 64, 59);
        let w = lcg_matrix(64, 64, 61);
        workloads.push(product_workload(
            &t,
            "matmul_gcn_forward_align",
            format!("{gcn_rows}x64 * 64x64"),
            || reference::matmul(&h, &w),
            || h.matmul(&w),
        ));
    }

    // GCN backward at align_gcn's shape: the margin loss gathers about
    // 343 of each output's 650 rows, so the rest of its gradient is zero.
    // The naive side is the pre-skip backward — both full products — on
    // the same values.
    let dead = |r: usize| (r * 7919) % 650 >= 343;
    {
        let h = lcg_matrix(gcn_rows, 64, 43);
        let w = lcg_matrix(64, 64, 47);
        let mut grad = lcg_matrix(gcn_rows, 64, 53);
        // 7919 is prime to 650, so every 650 consecutive rows keep 343,
        // spread out.
        for r in (0..gcn_rows).filter(|&r| dead(r)) {
            grad.row_mut(r).fill(0.0);
        }
        let live = (0..gcn_rows).filter(|&r| !dead(r)).count();
        let stacked = |(ga, gb): (Matrix, Matrix)| {
            let mut data = ga.as_slice().to_vec();
            data.extend_from_slice(gb.as_slice());
            Matrix::from_vec(ga.rows() + gb.rows(), 64, data)
        };
        workloads.push(product_workload(
            &t,
            "gcn_backward_row_skip",
            format!("{gcn_rows}x64 grad ({live} live rows) through 64x64 MatMul"),
            || stacked((grad.matmul_transpose(&w), h.transpose_matmul(&grad))),
            || stacked(matmul_grads(&grad, &h, &w)),
        ));
    }

    // The sparse GCN backward `Âᵀ · G` over align_gcn's own adjacency and
    // the live-row pattern above: the scatter over `Â`'s rows (skipping
    // zero gradient rows) against the gather over `Âᵀ`, which a training
    // run builds once, outside the timed calls.
    {
        let ds = Preset::Dbp15kZhEn.generate((0.5 * scale).min(2.0));
        let adj = ceaff::graph::build_adjacency(
            &ds.pair.source,
            ceaff::graph::AdjacencyKind::Functionality,
        );
        let adj_t = adj.transpose();
        let n = adj.rows();
        let mut grad = lcg_matrix(n, 64, 67);
        for r in (0..n).filter(|&r| dead(r)) {
            grad.row_mut(r).fill(0.0);
        }
        let product = |f: &dyn Fn(&mut [f32])| {
            let mut out = Matrix::zeros(n, 64);
            f(out.as_mut_slice());
            out
        };
        workloads.push(product_workload(
            &t,
            "spmm_backward",
            format!("({n}x{n}, {} entries)^T * {n}x64 grad", adj.nnz()),
            || product(&|out| adj.transpose_mul_dense(grad.as_slice(), 64, out)),
            || product(&|out| adj_t.mul_dense(grad.as_slice(), 64, out)),
        ));
    }

    // The string feature `lev*` over the align_gcn test names: the
    // two-row DP against the bit-parallel pattern, one per source row.
    {
        let ds = Preset::Dbp15kZhEn.generate((0.5 * scale).min(2.0));
        let (src, tgt) = (ds.test_source_names(), ds.test_target_names());
        let dp_ratio = |a: &str, b: &str| {
            let total = a.chars().count() + b.chars().count();
            let d = ceaff_sim::levenshtein::reference::levenshtein_sub2(a, b);
            if total == 0 {
                1.0
            } else {
                (total - d) as f32 / total as f32
            }
        };
        workloads.push(product_workload(
            &t,
            "levenshtein_sub2",
            format!("{}x{} names", src.len(), tgt.len()),
            || {
                let data = src
                    .iter()
                    .flat_map(|a| tgt.iter().map(move |b| dp_ratio(a, b)))
                    .collect();
                Matrix::from_vec(src.len(), tgt.len(), data)
            },
            || ceaff_sim::string_similarity_matrix(&src, &tgt).into_matrix(),
        ));
    }

    // Similarity `Z · Zᵀ`: the embedding-to-similarity kernel.
    let ents = ((3_000.0 * scale.sqrt()).round() as usize).clamp(200, 20_000);
    {
        let z = lcg_matrix(ents, 64, 3);
        workloads.push(product_workload(
            &t,
            "matmul_transpose_sim",
            format!("{ents}x64 * ({ents}x64)^T"),
            || reference::matmul_transpose(&z, &z),
            || z.matmul_transpose(&z),
        ));
    }

    // GCN backward `Hᵀ · G`: gradient accumulation shape.
    {
        let h = lcg_matrix(rows, 64, 17);
        let g = lcg_matrix(rows, 64, 19);
        workloads.push(product_workload(
            &t,
            "transpose_matmul_grad",
            format!("({rows}x64)^T * {rows}x64"),
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
            &t,
            "fusion_elementwise",
            format!("{n}x{n} hadamard + l2-normalize"),
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
            &t,
            "csls",
            format!("{csls_n}x{csls_n}, k=10"),
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
            &t,
            "decision",
            format!("{pairs} entities (dataset scale {ds_scale:.2})"),
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
    let reps = if opts.check { 2 } else { opts.reps.max(1) };
    eprintln!(
        "bench_kernels: {} detected core(s); parallel measurements use {} thread(s); \
         median of {reps} rep(s) after warm-up",
        harness::detected_cores(),
        opts.parallel_threads
    );
    let mut runs = Vec::new();
    for &scale in &opts.scales {
        eprintln!("scale {scale}:");
        runs.push(json!({
            "scale": scale,
            "workloads": bench_scale(scale, Timing { reps, par_threads: opts.parallel_threads }),
        }));
    }
    harness::report(
        "kernels",
        opts.check,
        json!({
            "parallel_threads": opts.parallel_threads,
            "reps": reps,
            "min_meaningful_secs": MIN_MEANINGFUL_SECS,
            "runs": runs,
        }),
        &[
            "speedups are null when either side's median is below min_meaningful_secs (timer noise)",
            "parallel speedups are measured at parallel_threads regardless of detected_cores; ~1.0x on a single-core host is the honest result",
            "every product workload asserts bitwise parity between the tiled kernel, the naive reference, and the parallel run",
        ],
    )
}
