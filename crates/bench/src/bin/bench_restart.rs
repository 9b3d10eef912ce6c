//! Restart benchmark for durable incremental serving: how fast does a
//! `--wal-dir` server come back, warm (newest snapshot + WAL tail
//! replay, deciding once) versus cold (full feature extraction + replay
//! of the *entire* log, deciding once)?
//!
//! The cold baseline is not synthetic: it is the same recovery code
//! path with the snapshots removed, which is exactly what a server
//! facing an all-snapshots-corrupt directory would do. Both paths are
//! parity-checked — the recovered fused store, step and fingerprint
//! must be bitwise-identical — before the report is written.
//!
//! ```text
//! bench_restart [--scale F]   dataset size multiplier (default 1.0)
//!               [--steps N]   deltas in the WAL before restarting (default 10)
//!               [--check]    smoke mode: scale 0.08, 5 steps, 1 rep
//!               [--out PATH] report path (default BENCH_restart.json)
//! ```
//!
//! Honest-reporting rules (shared with `bench_delta` / `bench_server`):
//! * `detected_cores` is reported verbatim; thread count comes from
//!   `CEAFF_THREADS` / the default pool, and is reported.
//! * `speedup` is cold-restart median over warm-restart median. It is
//!   gated (> 1.0) only on full runs; a `--check` run is too small for
//!   the ratio to mean anything.
//! * Parity is not sampled: the bench aborts unless warm and cold
//!   recovery land on bit-identical state.

use ceaff::datagen::{evolve, EvolveConfig, Preset};
use ceaff::sim::SimStore;
use ceaff::Telemetry;
use ceaff_bench::median;
use ceaff_core::ExecBudget;
use ceaff_server::{LoadOptions, WalOptions, WarmState};
use rand::SeedableRng;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::time::Instant;

const SCHEMA_VERSION: u64 = 1;

fn opts(blocked: bool, wal: Option<WalOptions>) -> LoadOptions {
    LoadOptions {
        dim: 16,
        epochs: 15,
        blocked_topk: blocked.then_some(8),
        incremental: Some(2),
        wal,
        ..LoadOptions::default()
    }
}

/// Recursively copy a WAL directory so a destructive cold-recovery rep
/// (snapshots deleted, fresh snapshot installed on load) never touches
/// the pristine original.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read wal dir") {
        let entry = entry.expect("dir entry");
        std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy wal file");
    }
}

/// Everything recovery must reproduce, bit-exact.
fn state_bits(state: &WarmState) -> (Option<(usize, u32)>, Vec<u32>) {
    let core = state.snapshot();
    let bits = match &core.fused {
        SimStore::Dense(m) => m
            .as_matrix()
            .as_slice()
            .iter()
            .map(|v| v.to_bits())
            .collect(),
        SimStore::Sparse(s) => {
            let mut bits = Vec::new();
            for i in 0..s.sources() {
                let (cols, vals) = s.row_entries(i);
                bits.extend(cols.iter().copied());
                bits.extend(vals.iter().map(|v| v.to_bits()));
            }
            bits
        }
    };
    (core.incremental, bits)
}

fn bench_mode(
    mode: &str,
    pair: &ceaff::graph::KgPair,
    data_dir: &Path,
    scratch: &Path,
    steps: usize,
    snapshot_every: usize,
    reps: usize,
) -> Value {
    let blocked = mode == "blocked";
    let wal_dir = scratch.join(format!("wal-{mode}"));

    // Seed the WAL: one cold durable build plus the edit stream.
    let started = Instant::now();
    let state = WarmState::load_dir(
        data_dir,
        &opts(
            blocked,
            Some(WalOptions {
                dir: wal_dir.clone(),
                snapshot_every,
            }),
        ),
        &Telemetry::disabled(),
    )
    .expect("durable cold build");
    let cold_build_ms = started.elapsed().as_secs_f64() * 1e3;

    let stream = evolve(
        pair,
        &EvolveConfig {
            steps,
            seed: 11,
            ..EvolveConfig::default()
        },
    );
    assert_eq!(stream.len(), steps, "evolve produced a short stream");
    for td in &stream {
        state
            .apply_delta(&td.delta, &ExecBudget::unlimited())
            .unwrap_or_else(|e| panic!("{mode}: delta step {} must apply: {e}", td.step));
    }
    let reference = state_bits(&state);
    drop(state);

    // Warm restarts: snapshot decode + tail replay. Recovery with a
    // fresh snapshot on disk is read-only, so reps are independent.
    let mut warm_ms = Vec::with_capacity(reps);
    let mut replayed_warm = 0usize;
    for rep in 0..reps {
        let started = Instant::now();
        let state = WarmState::load_dir(
            data_dir,
            &opts(
                blocked,
                Some(WalOptions {
                    dir: wal_dir.clone(),
                    snapshot_every,
                }),
            ),
            &Telemetry::disabled(),
        )
        .expect("warm restart");
        warm_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let report = state.recovery_report().expect("durable report");
        assert!(!report.cold, "{mode}: restart must warm from the snapshot");
        replayed_warm = report.replayed;
        if rep == 0 {
            assert_eq!(
                state_bits(&state),
                reference,
                "{mode}: warm recovery diverged from the pre-restart state"
            );
        }
    }

    // Cold restarts: same directory with every snapshot removed — full
    // feature extraction + fusion, then replay of the whole log.
    let mut cold_ms = Vec::with_capacity(reps);
    let mut replayed_cold = 0usize;
    for rep in 0..reps {
        let cold_dir = scratch.join(format!("wal-{mode}-cold-{rep}"));
        copy_dir(&wal_dir, &cold_dir);
        for entry in std::fs::read_dir(&cold_dir).expect("read cold dir") {
            let path = entry.expect("dir entry").path();
            if path.extension().is_some_and(|e| e == "bin") {
                std::fs::remove_file(&path).expect("drop snapshot");
            }
        }
        let started = Instant::now();
        let state = WarmState::load_dir(
            data_dir,
            &opts(
                blocked,
                Some(WalOptions {
                    dir: cold_dir.clone(),
                    snapshot_every,
                }),
            ),
            &Telemetry::disabled(),
        )
        .expect("cold restart");
        cold_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let report = state.recovery_report().expect("durable report");
        assert!(
            report.cold,
            "{mode}: snapshot-free restart must rebuild cold"
        );
        replayed_cold = report.replayed;
        if rep == 0 {
            assert_eq!(
                state_bits(&state),
                reference,
                "{mode}: cold recovery diverged from the pre-restart state"
            );
        }
        drop(state);
        std::fs::remove_dir_all(&cold_dir).ok();
    }

    let warm_restart_ms = median(&mut warm_ms.clone());
    let cold_restart_ms = median(&mut cold_ms.clone());
    eprintln!(
        "  {mode}: cold build {cold_build_ms:.0} ms; warm restart {warm_restart_ms:.1} ms \
         (replay {replayed_warm}); cold restart {cold_restart_ms:.0} ms (replay {replayed_cold}); \
         speedup {:.1}x",
        cold_restart_ms / warm_restart_ms
    );

    json!({
        "mode": mode,
        "cold_build_ms": cold_build_ms,
        "warm_restart_ms": warm_restart_ms,
        "warm_restart_max_ms": warm_ms.iter().cloned().fold(0.0f64, f64::max),
        "cold_restart_ms": cold_restart_ms,
        "speedup": cold_restart_ms / warm_restart_ms,
        "replayed_warm": replayed_warm,
        "replayed_cold": replayed_cold,
        "parity_bitwise": true,
    })
}

/// Validate a restart-bench report; first problem as a readable message.
fn validate_report(doc: &Value) -> Result<(), String> {
    if doc.get("schema_version").and_then(Value::as_u64) != Some(SCHEMA_VERSION) {
        return Err(format!("schema_version must be {SCHEMA_VERSION}"));
    }
    if doc.get("bench").and_then(Value::as_str) != Some("restart") {
        return Err("bench must be \"restart\"".into());
    }
    for key in [
        "detected_cores",
        "threads",
        "steps",
        "reps",
        "snapshot_every",
    ] {
        if doc.get(key).and_then(Value::as_u64).is_none_or(|v| v == 0) {
            return Err(format!("{key} must be a positive integer"));
        }
    }
    let check_mode = doc.get("check_mode").and_then(Value::as_bool) == Some(true);
    let modes = doc
        .get("modes")
        .and_then(Value::as_array)
        .ok_or("modes must be an array")?;
    if modes.len() != 2 {
        return Err("expected 2 modes (dense, blocked)".into());
    }
    for mode in modes {
        for key in [
            "cold_build_ms",
            "warm_restart_ms",
            "cold_restart_ms",
            "speedup",
        ] {
            let v = mode
                .get(key)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("mode.{key} must be a number"))?;
            if !v.is_finite() || v < 0.0 {
                return Err(format!("mode.{key} must be finite and non-negative"));
            }
        }
        if mode.get("parity_bitwise").and_then(Value::as_bool) != Some(true) {
            return Err("mode.parity_bitwise must be true".into());
        }
        // A warm restart must skip work: it replays only the tail past
        // the last snapshot, the cold path replays the whole log.
        let warm = mode
            .get("replayed_warm")
            .and_then(Value::as_u64)
            .unwrap_or(u64::MAX);
        let cold = mode
            .get("replayed_cold")
            .and_then(Value::as_u64)
            .unwrap_or(0);
        if warm >= cold {
            return Err(format!(
                "warm restart must replay a strict tail ({warm} vs {cold} frames)"
            ));
        }
        if !check_mode {
            let speedup = mode.get("speedup").and_then(Value::as_f64).unwrap_or(0.0);
            if speedup <= 1.0 {
                return Err(format!(
                    "full run must show warm restart beating cold (speedup {speedup:.2})"
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    let mut scale = 1.0f64;
    let mut steps = 10usize;
    let mut check = false;
    let mut out_path = "BENCH_restart.json".to_owned();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--scale" => scale = value("--scale").parse().expect("--scale takes a number"),
            "--steps" => steps = value("--steps").parse().expect("--steps takes an integer"),
            "--check" => check = true,
            "--out" => out_path = value("--out"),
            other => panic!("unknown flag {other}; known: --scale --steps --check --out"),
        }
    }
    let reps = if check { 1 } else { 3 };
    if check {
        scale = 0.08;
        steps = 5;
    }
    // Cadence such that retention (which reclaims generations older
    // than the *previous* snapshot) keeps the full log: snapshots land
    // at {0, every} with a tail after, so the cold baseline can still
    // replay from step 0 once the snapshots are removed.
    let snapshot_every = if check { 4 } else { 8 };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = ceaff_parallel::default_threads();
    eprintln!(
        "bench_restart: {cores} detected core(s), {threads} pipeline thread(s); \
         scale {scale}, {steps}-delta WAL, snapshot every {snapshot_every}, median of {reps} rep(s)"
    );

    let scratch: PathBuf =
        std::env::temp_dir().join(format!("ceaff-bench-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let data_dir = scratch.join("data");
    std::fs::create_dir_all(&data_dir).expect("create data dir");
    let ds = Preset::SrprsDbpWd.generate(scale);
    ceaff::graph::io::save_pair_to_dir(&ds.pair, data_dir.to_str().unwrap())
        .expect("save generated pair");
    // Derive the edit stream from the pair *as the server loads it* —
    // the disk roundtrip drops zero-triple relations, so deltas built
    // against the in-memory original could reference names the loaded
    // pair has never interned.
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(LoadOptions::default().rng_seed);
    let pair = ceaff::graph::io::load_pair_from_dir(
        &data_dir,
        LoadOptions::default().seed_fraction,
        &mut rng,
    )
    .expect("reload generated pair");

    let modes: Vec<Value> = ["dense", "blocked"]
        .iter()
        .map(|mode| {
            bench_mode(
                mode,
                &pair,
                &data_dir,
                &scratch,
                steps,
                snapshot_every,
                reps,
            )
        })
        .collect();

    let report = json!({
        "schema_version": SCHEMA_VERSION,
        "bench": "restart",
        "detected_cores": cores,
        "threads": threads,
        "preset": "srprs-dbp-wd",
        "scale": scale,
        "steps": steps,
        "snapshot_every": snapshot_every,
        "reps": reps,
        "check_mode": check,
        "modes": modes,
        "notes": [
            "warm_restart_ms is WarmState::load_dir over an intact WAL dir: newest snapshot decoded, tail frames patched into the feature stores, then fusion + matching run once; no feature extraction",
            "cold_restart_ms is the same recovery code path with every snapshot removed: full feature extraction, then replay of the entire log and one fusion + matching — what an all-snapshots-corrupt restart costs",
            "both recoveries are asserted bitwise-identical to the pre-restart state before timing is reported; the bench aborts on divergence",
            "replayed_warm < replayed_cold is enforced: a warm restart that replays the whole log is a recovery bug, not a slow run",
            "speedup is gated (> 1.0) only on full runs; --check runs are too small to be meaningful",
        ],
    });
    validate_report(&report).expect("bench_restart produced a schema-invalid report");
    let pretty = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, pretty + "\n").expect("write report");
    eprintln!("wrote {out_path}");
    std::fs::remove_dir_all(&scratch).ok();
}
