//! Smoke checks for the `bench_*` binaries and the one report validator.
//!
//! Each `bench_*_check` case runs the real binary in `--check` mode via
//! `CARGO_BIN_EXE_`, so flag parsing and report writing are exercised
//! too. A parity failure aborts a binary, so a zero exit status is itself
//! the proof that the in-bench bitwise asserts held; the written report
//! must also pass [`harness::validate`]. CI runs each case in its own job
//! by test-name filter.
//!
//! The remaining tests pin the validator: every committed `BENCH_*.json`
//! passes it, and every gate it carries rejects a report that breaks it.

use ceaff_bench::harness;
use serde_json::{json, Value};
use std::path::Path;
use std::process::Command;

/// Run `bin` with `args` plus `--out <tmp>`, require success, and return
/// the report after checking it against its schema.
fn run_check(bin: &str, args: &[&str]) -> Value {
    let out_path =
        std::env::temp_dir().join(format!("ceaff_{bin}_smoke_{}.json", std::process::id()));
    let output = Command::new(bin_path(bin))
        .args(args)
        .arg("--out")
        .arg(&out_path)
        .output()
        .unwrap_or_else(|e| panic!("{bin} runs: {e}"));
    assert!(
        output.status.success(),
        "{bin} {args:?} failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let raw = std::fs::read_to_string(&out_path).expect("report written");
    let _ = std::fs::remove_file(&out_path);
    let doc: Value = serde_json::from_str(&raw).expect("report is JSON");
    harness::validate(&doc).unwrap_or_else(|e| panic!("{bin} report fails its schema: {e}"));
    assert_eq!(doc.get("check_mode").and_then(Value::as_bool), Some(true));
    doc
}

fn bin_path(bin: &str) -> &'static str {
    match bin {
        "bench_delta" => env!("CARGO_BIN_EXE_bench_delta"),
        "bench_kernels" => env!("CARGO_BIN_EXE_bench_kernels"),
        "bench_restart" => env!("CARGO_BIN_EXE_bench_restart"),
        "bench_server" => env!("CARGO_BIN_EXE_bench_server"),
        other => panic!("no smoke case for {other}"),
    }
}

/// The `mode` names of a delta or restart report, checking that every
/// mode proved bitwise parity.
fn parity_modes(doc: &Value) -> Vec<&str> {
    let modes = doc.get("modes").and_then(Value::as_array).expect("modes");
    for mode in modes {
        assert_eq!(
            mode.get("parity_bitwise").and_then(Value::as_bool),
            Some(true),
            "parity must hold in {:?}",
            mode.get("mode")
        );
    }
    modes
        .iter()
        .map(|m| m.get("mode").and_then(Value::as_str).expect("mode name"))
        .collect()
}

#[test]
fn bench_delta_check_emits_schema_valid_json_with_parity_proven() {
    let doc = run_check("bench_delta", &["--check"]);
    assert_eq!(doc.get("bench").and_then(Value::as_str), Some("delta"));
    assert_eq!(parity_modes(&doc), ["dense", "blocked"]);
    for mode in doc["modes"].as_array().expect("modes") {
        let frac = mode
            .get("mean_recompute_fraction")
            .and_then(Value::as_f64)
            .expect("recompute fraction");
        assert!(
            (0.0..=1.0).contains(&frac),
            "recompute fraction {frac} out of range"
        );
    }
}

#[test]
fn bench_restart_check_emits_schema_valid_json_with_parity_proven() {
    let doc = run_check("bench_restart", &["--check"]);
    assert_eq!(doc.get("bench").and_then(Value::as_str), Some("restart"));
    assert_eq!(parity_modes(&doc), ["dense", "blocked"]);
    for mode in doc["modes"].as_array().expect("modes") {
        // The structural guarantee that holds at any scale: a warm
        // restart replays a strict tail of what a cold one replays.
        let warm = mode
            .get("replayed_warm")
            .and_then(Value::as_u64)
            .expect("replayed_warm");
        let cold = mode
            .get("replayed_cold")
            .and_then(Value::as_u64)
            .expect("replayed_cold");
        assert!(
            warm < cold,
            "warm restart must skip replay work ({warm} vs {cold} frames)"
        );
    }
}

#[test]
fn bench_kernels_check_emits_schema_valid_json_with_every_workload() {
    let doc = run_check("bench_kernels", &["--scale", "0.2", "--check"]);
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

#[test]
fn bench_server_check_emits_schema_valid_json_without_errors() {
    let doc = run_check("bench_server", &["--check"]);
    assert_eq!(doc.get("bench").and_then(Value::as_str), Some("server"));
    assert_eq!(doc.get("reps").and_then(Value::as_u64), Some(1));
    assert_eq!(
        doc.get("requests_per_round").and_then(Value::as_u64),
        Some(16)
    );
    let levels = doc.get("levels").and_then(Value::as_array).expect("levels");
    let concurrency: Vec<u64> = levels
        .iter()
        .map(|l| {
            l.get("concurrency")
                .and_then(Value::as_u64)
                .expect("concurrency")
        })
        .collect();
    assert_eq!(concurrency, [4, 16]);
    for level in levels {
        assert!(level
            .get("ok")
            .and_then(Value::as_u64)
            .is_some_and(|ok| ok > 0));
    }
}

/// A committed report, by file name at the repository root.
fn committed(name: &str) -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(name);
    let raw = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
    serde_json::from_str(&raw).unwrap_or_else(|e| panic!("{name} is not JSON: {e:?}"))
}

#[test]
fn every_committed_report_validates() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut names: Vec<String> = std::fs::read_dir(&root)
        .expect("read repository root")
        .map(|e| {
            e.expect("dir entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .filter(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        .collect();
    names.sort();
    for expected in ["delta", "kernels", "restart", "server", "sparse"] {
        assert!(
            names.contains(&format!("BENCH_{expected}.json")),
            "BENCH_{expected}.json missing (found {names:?})"
        );
    }
    for name in &names {
        if let Err(e) = harness::validate(&committed(name)) {
            panic!("{name} fails its schema: {e}");
        }
    }
}

/// Replace the value at a dotted path (`"modes.0.speedup"`; numeric
/// segments index arrays), or remove it when `value` is `None`.
fn edit(doc: &mut Value, path: &str, value: Option<Value>) {
    let (parent, last) = path.rsplit_once('.').map_or(("", path), |(p, l)| (p, l));
    let mut node = doc;
    for key in parent.split('.').filter(|k| !k.is_empty()) {
        node = match node {
            Value::Array(items) => &mut items[key.parse::<usize>().expect("index")],
            other => other
                .get_mut(key)
                .unwrap_or_else(|| panic!("no {key} in {path}")),
        };
    }
    match (node, value) {
        (Value::Array(items), Some(v)) => items[last.parse::<usize>().expect("index")] = v,
        (Value::Array(items), None) => {
            items.remove(last.parse::<usize>().expect("index"));
        }
        (Value::Object(fields), None) => fields.retain(|(k, _)| k != last),
        (node, Some(v)) => node[last] = v,
        (_, None) => panic!("cannot remove {path}"),
    }
}

#[test]
fn the_validator_rejects_every_gate_violation() {
    // (report, path, replacement; `None` removes the key). Each case
    // breaks exactly one rule of an otherwise valid committed report.
    let cases: Vec<(&str, &str, Option<Value>)> = vec![
        // The common header.
        ("delta", "schema_version", Some(json!(2))),
        ("delta", "bench", Some(json!("deltas"))),
        ("delta", "check_mode", None),
        ("delta", "notes", Some(Value::Array(Vec::new()))),
        ("server", "detected_cores", Some(json!(0))),
        // delta: positive integers, the two modes, numbers, the
        // fraction, parity and the full-run speedup.
        ("delta", "threads", Some(json!(0))),
        ("delta", "steps", None),
        ("delta", "scratch_reps", Some(json!(1.5))),
        ("delta", "modes", Some(json!({}))),
        ("delta", "modes.1", None),
        ("delta", "modes.0.warm_build_ms", Some(json!(-1.0))),
        ("delta", "modes.0.incremental_mean_ms", None),
        (
            "delta",
            "modes.0.incremental_median_ms",
            Some(json!("fast")),
        ),
        ("delta", "modes.0.incremental_max_ms", Some(Value::Null)),
        ("delta", "modes.0.feature_patch_mean_ms", Some(json!(-0.5))),
        ("delta", "modes.0.global_stages_mean_ms", None),
        ("delta", "modes.0.bookkeeping_mean_ms", Some(json!(-2.0))),
        ("delta", "modes.0.from_scratch_ms", None),
        ("delta", "modes.0.speedup", Some(json!(-1.0))),
        ("delta", "modes.1.mean_recompute_fraction", Some(json!(1.5))),
        ("delta", "modes.1.parity_bitwise", Some(json!(false))),
        ("delta", "modes.1.speedup", Some(json!(0.9))),
        // restart.
        ("restart", "threads", Some(json!(0))),
        ("restart", "steps", Some(json!(0))),
        ("restart", "reps", None),
        ("restart", "snapshot_every", Some(json!(0))),
        ("restart", "modes.0", None),
        ("restart", "modes.0.cold_build_ms", Some(json!(-1.0))),
        ("restart", "modes.0.warm_restart_ms", None),
        ("restart", "modes.1.cold_restart_ms", Some(json!(-3.0))),
        ("restart", "modes.1.speedup", Some(json!(1.0))),
        ("restart", "modes.0.parity_bitwise", None),
        ("restart", "modes.0.replayed_warm", Some(json!(10))),
        ("restart", "modes.1.replayed_cold", None),
        // server.
        ("server", "workers", Some(json!(0))),
        ("server", "queue_capacity", None),
        ("server", "reps", Some(json!(0))),
        ("server", "requests_per_round", Some(json!(-48))),
        ("server", "levels.1", None),
        ("server", "levels.0.p50_ms", Some(json!(-1.0))),
        ("server", "levels.0.p99_ms", None),
        ("server", "levels.1.shed_rate", Some(json!(-0.1))),
        ("server", "levels.1.degraded_fraction", None),
        ("server", "levels.1.errors", Some(json!(3))),
        // kernels: the nested runs and workloads.
        ("kernels", "parallel_threads", Some(json!(0))),
        ("kernels", "reps", None),
        ("kernels", "runs", Some(Value::Array(Vec::new()))),
        ("kernels", "runs.0.scale", Some(json!(0.0))),
        (
            "kernels",
            "runs.0.workloads",
            Some(Value::Array(Vec::new())),
        ),
        ("kernels", "runs.1.workloads.0.name", None),
        ("kernels", "runs.1.workloads.0.dims", Some(json!(3))),
        (
            "kernels",
            "runs.1.workloads.0.parity",
            Some(json!("close enough")),
        ),
        (
            "kernels",
            "runs.1.workloads.0.seconds_tiled_1t",
            Some(json!(0.0)),
        ),
        ("kernels", "runs.1.workloads.0.seconds_tiled_par", None),
        ("kernels", "runs.2.workloads.0.parallel_speedup", None),
        (
            "kernels",
            "runs.2.workloads.0.single_thread_speedup",
            Some(json!(-2.0)),
        ),
        // sparse.
        ("sparse", "threads", Some(json!(0))),
        ("sparse", "results.1", None),
        ("sparse", "results.0.workload", Some(json!("tiny"))),
        ("sparse", "results.0.blocked.seconds", None),
        ("sparse", "results.1.blocked.accuracy", Some(json!(-0.1))),
        (
            "sparse",
            "results.1.dense.outcome",
            Some(json!("completed")),
        ),
        ("sparse", "results.1.blocked.outcome", None),
    ];
    for (bench, path, value) in cases {
        let mut doc = committed(&format!("BENCH_{bench}.json"));
        edit(&mut doc, path, value.clone());
        assert!(
            harness::validate(&doc).is_err(),
            "BENCH_{bench}.json with {path} = {value:?} was accepted"
        );
    }
}

#[test]
fn check_runs_are_exempt_from_the_speedup_gate_only() {
    for bench in ["delta", "restart"] {
        let mut doc = committed(&format!("BENCH_{bench}.json"));
        edit(&mut doc, "check_mode", Some(json!(true)));
        edit(&mut doc, "modes.0.speedup", Some(json!(0.5)));
        assert_eq!(harness::validate(&doc), Ok(()), "{bench} --check report");
        // The strict-tail gate holds in check mode too.
        if bench == "restart" {
            edit(&mut doc, "modes.0.replayed_warm", Some(json!(10)));
            assert!(harness::validate(&doc).is_err());
        }
    }
}

#[test]
fn validate_rejects_missing_fields() {
    assert!(harness::validate(&json!({})).is_err());
    assert!(harness::validate(&json!({
        "schema_version": 1usize, "bench": "kernels",
        "detected_cores": 1usize, "check_mode": false,
        "parallel_threads": 4usize, "reps": 5usize,
        "runs": Value::Array(Vec::new()),
        "notes": ["n"],
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
    let doc = harness::report(
        "kernels",
        false,
        json!({
            "parallel_threads": 4usize,
            "reps": 5usize,
            "runs": Value::Array(vec![run]),
        }),
        &["n"],
    );
    assert_eq!(harness::validate(&doc), Ok(()));
}
