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
use serde_json::json;
use std::time::Instant;

fn main() {
    let mut scale = 10.0f64;
    let mut small_scale = 1.0f64;
    let mut cap_mb = 512usize;
    let mut topk = 50usize;
    let mut out_path = "BENCH_sparse.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--scale" => scale = value("--scale").parse().expect("--scale takes a float"),
            "--small-scale" => {
                small_scale = value("--small-scale")
                    .parse()
                    .expect("--small-scale takes a float");
            }
            "--cap-mb" => {
                cap_mb = value("--cap-mb")
                    .parse()
                    .expect("--cap-mb takes an integer")
            }
            "--topk" => topk = value("--topk").parse().expect("--topk takes an integer"),
            "--out" => out_path = value("--out"),
            other => {
                panic!("unknown flag {other}; known: --scale --small-scale --cap-mb --topk --out")
            }
        }
    }

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

    let start = Instant::now();
    let dense_out = ceaff::try_run(&task.input(), &cfg).expect("dense run completes");
    let dense_secs = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let blocked_out = ceaff::try_run(&task.input(), &blocked_cfg).expect("blocked run completes");
    let blocked_secs = start.elapsed().as_secs_f64();

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

    let start = Instant::now();
    let dense_result = ceaff::run(
        &task.input(),
        &cfg,
        &ceaff::RunOptions {
            budget: &budget,
            checkpoint: None,
        },
    );
    let dense_secs = start.elapsed().as_secs_f64();
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

    let start = Instant::now();
    let blocked_out = ceaff::run(
        &task.input(),
        &blocked_cfg,
        &ceaff::RunOptions {
            budget: &budget,
            checkpoint: None,
        },
    )
    .expect("blocked path must complete under the cap");
    let blocked_secs = start.elapsed().as_secs_f64();
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

    let doc = json!({
        "bench": "sparse",
        "threads": ceaff_parallel::default_threads(),
        "results": [parity, scale_report],
    });
    let pretty = serde_json::to_string_pretty(&doc).expect("serialize bench output");
    std::fs::write(&out_path, pretty + "\n").expect("write bench output");
    eprintln!("wrote {out_path}");
}
