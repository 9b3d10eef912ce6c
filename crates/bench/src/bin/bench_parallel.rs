//! 1-thread vs N-thread wall-clock comparison of the parallel kernels.
//!
//! Times three workloads under `ceaff_parallel::with_threads(1)` and
//! `with_threads(N)` (N = `CEAFF_THREADS` or the CPU count):
//!
//! * `matmul` — a square `matmul_transpose` (the similarity-matrix kernel);
//! * `fusion` — two-stage adaptive fusion on precomputed features;
//! * `decision` — the full decision stage (fusion + collective matching).
//!
//! Besides timing, every workload's two results are checked for exact
//! equality — the determinism contract, enforced here on real pipeline
//! data on every bench run.
//!
//! Writes `BENCH_parallel.json` (override with `--out PATH`); `--scale`
//! sizes the dataset. Methodology matches `bench_kernels`: one warm-up
//! run, median of 5 timed runs, and speedups are refused (`null`) when
//! either side's median is under 10 ms — sub-timer-resolution ratios are
//! noise, not data. Speedups are only meaningful on a multi-core
//! machine; the JSON records the detected core count verbatim so a
//! 1-core run (speedup ≈ 1.0×) is self-describing.

use ceaff::prelude::*;
use ceaff::Feature;
use ceaff_bench::kernels::MIN_MEANINGFUL_SECS;
use serde_json::{json, Value};
use std::time::Instant;

/// One warm-up run, then median-of-`reps` wall-clock seconds of `f`
/// under `threads` threads.
fn time_with_threads<R>(threads: usize, reps: usize, f: impl Fn() -> R) -> (f64, R) {
    let _ = ceaff_parallel::with_threads(threads, &f);
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = Instant::now();
        let r = ceaff_parallel::with_threads(threads, &f);
        secs.push(start.elapsed().as_secs_f64());
        last = Some(r);
    }
    secs.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    (secs[secs.len() / 2], last.expect("reps >= 1"))
}

fn main() {
    let mut scale = 0.3f64;
    let mut out_path = "BENCH_parallel.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--scale" => scale = value("--scale").parse().expect("--scale takes a float"),
            "--out" => out_path = value("--out"),
            other => panic!("unknown flag {other}; known: --scale --out"),
        }
    }

    let threads = ceaff_parallel::default_threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    eprintln!("comparing 1 vs {threads} threads on a {cores}-core machine");

    let task = DatasetTask::from_preset(Preset::SrprsEnFr, scale, 64);
    let mut cfg = CeaffConfig::default();
    cfg.gcn.dim = 32;
    cfg.gcn.epochs = 30;
    let features = FeatureSet::compute_all(&task.input(), &cfg);

    let mut results = Vec::new();
    let mut record = |name: &str, seq: f64, par: f64| {
        // A ratio of two sub-10 ms medians is timer noise — refuse it.
        let speedup = if seq >= MIN_MEANINGFUL_SECS && par >= MIN_MEANINGFUL_SECS {
            json!(seq / par)
        } else {
            Value::Null
        };
        let shown = speedup
            .as_f64()
            .map_or("n/a (too fast)".to_owned(), |s| format!("{s:.2}x"));
        eprintln!(
            "{name:<10} 1 thread {seq:>8.4}s   {threads} threads {par:>8.4}s   speedup {shown}"
        );
        results.push(json!({
            "workload": name,
            "seconds_1_thread": seq,
            "seconds_n_threads": par,
            "speedup": speedup,
        }));
    };

    // Workload 1: the pairwise-similarity matmul kernel.
    let dim = ((600.0 * scale.max(0.05)).round() as usize).max(128);
    let a = ceaff::tensor::Matrix::from_vec(
        dim,
        128,
        (0..dim * 128)
            .map(|i| ((i % 97) as f32) * 0.021 - 1.0)
            .collect(),
    );
    let (seq, m1) = time_with_threads(1, 5, || a.matmul_transpose(&a));
    let (par, mn) = time_with_threads(threads, 5, || a.matmul_transpose(&a));
    assert_eq!(m1, mn, "matmul must be thread-count-independent");
    record("matmul", seq, par);

    // Workload 2: two-stage adaptive fusion on the real feature matrices.
    let mats: Vec<_> = [
        features.structural.as_ref().expect("computed").test_store(),
        features.semantic.as_ref().expect("computed").test_store(),
        features.string.as_ref().expect("computed").test_store(),
    ]
    .map(|m| m.min_max_normalized())
    .into_iter()
    .collect();
    let fuse = || {
        let (s, n, l) = (Some(&mats[0]), Some(&mats[1]), Some(&mats[2]));
        ceaff::fusion::two_stage_fuse_store(s, n, l, &cfg.fusion).0
    };
    let (seq, f1) = time_with_threads(1, 5, fuse);
    let (par, fnn) = time_with_threads(threads, 5, fuse);
    assert_eq!(f1, fnn, "fusion must be thread-count-independent");
    record("fusion", seq, par);

    // Workload 3: the full decision stage (fusion + collective matching).
    let telemetry = Telemetry::disabled();
    let decide = || {
        try_run_with_features(&task.dataset.pair, &features, &cfg, &telemetry)
            .expect("pipeline runs")
    };
    let (seq, d1) = time_with_threads(1, 5, decide);
    let (par, dn) = time_with_threads(threads, 5, decide);
    assert_eq!(
        d1.matching.pairs(),
        dn.matching.pairs(),
        "decision stage must be thread-count-independent"
    );
    record("decision", seq, par);

    let doc = json!({
        "bench": "parallel",
        "threads": threads,
        "cores": cores,
        "scale": scale,
        "reps": 5,
        "min_meaningful_secs": MIN_MEANINGFUL_SECS,
        "results": results,
    });
    let pretty = serde_json::to_string_pretty(&doc).expect("serialize bench output");
    std::fs::write(&out_path, pretty + "\n").expect("write bench output");
    eprintln!("wrote {out_path}");
}
