//! Smoke check for the kernel bench suite: `bench_kernels --scale 0.2
//! --check` must execute every workload, emit schema-valid JSON, and
//! pass its in-bench tiled-vs-naive bitwise asserts (a parity failure
//! aborts the binary, so a zero exit status is itself the proof).
//!
//! Runs the real binary via `CARGO_BIN_EXE_` so the test exercises flag
//! parsing and report writing too, not just the library entry point.

use serde_json::Value;
use std::process::Command;

#[test]
fn bench_kernels_check_emits_schema_valid_json_with_every_workload() {
    let out_path = std::env::temp_dir().join(format!(
        "ceaff_bench_kernels_smoke_{}.json",
        std::process::id()
    ));
    let output = Command::new(env!("CARGO_BIN_EXE_bench_kernels"))
        .args(["--scale", "0.2", "--check", "--out"])
        .arg(&out_path)
        .output()
        .expect("bench_kernels runs");
    assert!(
        output.status.success(),
        "bench_kernels --check failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );

    let raw = std::fs::read_to_string(&out_path).expect("report written");
    let _ = std::fs::remove_file(&out_path);
    let doc: Value = serde_json::from_str(&raw).expect("report is JSON");
    ceaff_bench::kernels::validate_report(&doc).expect("report matches schema");

    assert_eq!(doc.get("check_mode").and_then(Value::as_bool), Some(true));
    let runs = doc.get("runs").and_then(Value::as_array).expect("runs");
    let workloads = runs[0]
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads array");
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| w.get("name").and_then(Value::as_str).expect("name"))
        .collect();
    for expected in [
        "matmul_large",
        "matmul_gcn_forward",
        "matmul_gcn_forward_align",
        "matmul_transpose_grad",
        "matmul_transpose_sim",
        "transpose_matmul_grad",
        "gcn_backward_row_skip",
        "spmm_backward",
        "levenshtein_sub2",
        "fusion_elementwise",
        "csls",
        "decision",
    ] {
        assert!(
            names.contains(&expected),
            "workload {expected} missing from report (got {names:?})"
        );
    }
}
