//! Dense vs blocked (sparse top-k) candidate generation at scale.
//!
//! Two workloads:
//!
//! * `parity` — at a small scale both strategies run to completion;
//!   records wall-clock, accuracy, and the sparse store's footprint
//!   against the dense matrix it replaces.
//! * `scale` — at `--scale` (default 10, the 100k-class preset) both
//!   strategies run under a `--cap-mb` tensor-memory budget. The dense
//!   path must fail with a typed `BudgetExceeded` (the test matrix alone
//!   exceeds the cap); the blocked path must complete under the same
//!   cap. Peak memory and wall-clock for both are recorded.
//!
//! Writes `BENCH_sparse.json` (override with `--out PATH`).

use ceaff::prelude::*;
use ceaff_bench::harness::{self, timed, write_report, Args};
use serde_json::json;

fn main() {
    let args = Args::from_env(
        &["--scale", "--small-scale", "--cap-mb", "--topk", "--out"],
        &[],
    );
    let scale = args.get("--scale", 10.0);
    let small_scale = args.get("--small-scale", 1.0);
    let cap_mb = args.get("--cap-mb", 512usize);
    let topk = args.get("--topk", 50);

    let mut cfg = CeaffConfig::default();
    cfg.gcn.dim = 32;
    cfg.gcn.epochs = 30;
    cfg.embed_dim = 32;
    let blocked_cfg = cfg.clone().with_blocking(topk);

    // Workload 1: small-scale parity — both strategies complete; compare
    // wall-clock, accuracy and similarity-store footprint.
    eprintln!(
        "[parity] {} at scale {small_scale}",
        Preset::Dbp100kDbpWd.label()
    );
    let task = DatasetTask::from_preset(Preset::Dbp100kDbpWd, small_scale, 32);
    let n = task.dataset.pair.test_pairs().len();

    let (dense_secs, dense_out) = timed(|| ceaff::try_run(&task.input(), &cfg));
    let dense_out = dense_out.expect("dense run completes");
    let (blocked_secs, blocked_out) = timed(|| ceaff::try_run(&task.input(), &blocked_cfg));
    let blocked_out = blocked_out.expect("blocked run completes");

    assert!(
        blocked_out.fused.is_sparse(),
        "blocked run must stay sparse"
    );
    let dense_bytes = n * n * 4;
    let sparse_bytes = blocked_out.fused.heap_bytes();
    eprintln!(
        "[parity] n = {n}: dense {dense_secs:.2}s acc {:.4} ({:.1} MB fused), \
         blocked {blocked_secs:.2}s acc {:.4} ({:.1} MB fused)",
        dense_out.accuracy,
        dense_bytes as f64 / 1e6,
        blocked_out.accuracy,
        sparse_bytes as f64 / 1e6,
    );
    let parity = json!({
        "workload": "parity",
        "preset": Preset::Dbp100kDbpWd.label(),
        "scale": small_scale,
        "test_pairs": n,
        "dense": {
            "seconds": dense_secs,
            "accuracy": dense_out.accuracy,
            "fused_bytes": dense_bytes,
        },
        "blocked": {
            "topk": topk,
            "seconds": blocked_secs,
            "accuracy": blocked_out.accuracy,
            "fused_bytes": sparse_bytes,
            "fused_nnz": blocked_out.fused.nnz(),
        },
    });
    drop((dense_out, blocked_out, task));

    // Workload 2: the scaling story. At --scale the dense test matrix is
    // n² × 4 bytes per feature — far over the cap — while the blocked
    // path stays at n × k entries per store.
    eprintln!(
        "[scale] {} at scale {scale} under a {cap_mb} MB cap",
        Preset::Dbp100kDbpWd.label()
    );
    let task = DatasetTask::from_preset(Preset::Dbp100kDbpWd, scale, 32);
    let n = task.dataset.pair.test_pairs().len();
    eprintln!(
        "[scale] {n} test pairs (dense matrix would be {:.0} MB per feature)",
        (n * n * 4) as f64 / 1e6
    );
    let budget = ceaff::ExecBudget::unlimited().with_max_mem_bytes(cap_mb * 1024 * 1024);
    let capped = |cfg: &CeaffConfig| {
        let opts = ceaff::RunOptions {
            budget: &budget,
            checkpoint: None,
        };
        timed(|| ceaff::run(&task.input(), cfg, &opts))
    };

    let (dense_secs, dense_result) = capped(&cfg);
    let dense_report = match dense_result {
        Err(ceaff::CeaffError::BudgetExceeded {
            stage,
            limit_bytes,
            peak_bytes,
        }) => {
            eprintln!(
                "[scale] dense: BudgetExceeded at stage '{stage}' \
                 (peak {:.0} MB > cap {:.0} MB) after {dense_secs:.2}s",
                peak_bytes as f64 / 1e6,
                limit_bytes as f64 / 1e6,
            );
            json!({
                "outcome": "budget_exceeded",
                "stage": stage,
                "limit_bytes": limit_bytes,
                "peak_bytes": peak_bytes,
                "seconds": dense_secs,
            })
        }
        Ok(_) => panic!(
            "dense path fit under {cap_mb} MB at scale {scale}; \
             raise --scale or lower --cap-mb so the bench stays meaningful"
        ),
        Err(e) => panic!("dense path failed for the wrong reason: {e}"),
    };

    let (blocked_secs, blocked_out) = capped(&blocked_cfg);
    let blocked_out = blocked_out.expect("blocked path must complete under the cap");
    // The budget scope re-bases the tensor ledger's high-water mark when
    // it is installed and leaves it in place on drop, so this is the
    // blocked run's peak footprint.
    let blocked_peak = ceaff_tensor::mem_peak_bytes();
    assert!(
        blocked_out.fused.is_sparse(),
        "blocked run must stay sparse"
    );
    eprintln!(
        "[scale] blocked: accuracy {:.4} in {blocked_secs:.2}s \
         (peak {:.0} MB under the {cap_mb} MB cap)",
        blocked_out.accuracy,
        blocked_peak as f64 / 1e6,
    );
    let scale_report = json!({
        "workload": "scale",
        "preset": Preset::Dbp100kDbpWd.label(),
        "scale": scale,
        "test_pairs": n,
        "cap_mb": cap_mb,
        "dense": dense_report,
        "blocked": {
            "outcome": "completed",
            "topk": topk,
            "seconds": blocked_secs,
            "peak_bytes": blocked_peak,
            "accuracy": blocked_out.accuracy,
            "fused_nnz": blocked_out.fused.nnz(),
            "fused_bytes": blocked_out.fused.heap_bytes(),
        },
    });

    let doc = harness::report(
        "sparse",
        false,
        json!({
            "threads": ceaff_parallel::default_threads(),
            "results": [parity, scale_report],
        }),
        &[
            "parity: both strategies complete at --small-scale; fused_bytes compares the dense n x n matrix with the blocked top-k store",
            "scale: both strategies run under a --cap-mb tensor-memory budget; the dense path must fail with a typed BudgetExceeded and the blocked path must complete, or the bench aborts",
            "peak_bytes of the blocked run is the tensor ledger's high-water mark inside its budget scope",
        ],
    );
    write_report(&args.get("--out", "BENCH_sparse.json".to_owned()), &doc);
}
