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
//! Flags and their `--check` overrides: the table in the [`ceaff_bench`]
//! crate docs.
//!
//! Reporting rules (the thread count comes from `CEAFF_THREADS` or the
//! default pool, and is reported):
//! * `speedup` is cold-restart median over warm-restart median. It is
//!   gated (> 1.0) only on full runs; a `--check` run is too small for
//!   the ratio to mean anything.
//! * Parity is not sampled: the bench aborts unless warm and cold
//!   recovery land on bit-identical state.

use ceaff::datagen::{evolve, EvolveConfig, Preset};
use ceaff::Telemetry;
use ceaff_bench::harness::{self, median, store_bits, timed, write_report, Args};
use ceaff_core::ExecBudget;
use ceaff_server::{LoadOptions, WalOptions, WarmState};
use rand::SeedableRng;
use serde_json::{json, Value};
use std::path::{Path, PathBuf};

/// Copy a WAL directory without its snapshots, so a cold-recovery rep
/// (which installs a fresh snapshot on load) never touches the original.
fn copy_without_snapshots(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).expect("create copy dir");
    for entry in std::fs::read_dir(src).expect("read wal dir") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_none_or(|e| e != "bin") {
            let name = path.file_name().expect("file name");
            std::fs::copy(&path, dst.join(name)).expect("copy wal file");
        }
    }
}

/// Everything recovery must reproduce, bit-exact.
fn state_bits(state: &WarmState) -> (Option<(usize, u32)>, Vec<u32>) {
    let core = state.snapshot();
    (core.incremental, store_bits(&core.fused))
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
    let wal_dir = scratch.join(format!("wal-{mode}"));
    // One timed durable load over the WAL directory `dir`.
    let load = |dir: &Path| {
        let opts = LoadOptions {
            dim: 16,
            epochs: 15,
            blocked_topk: (mode == "blocked").then_some(8),
            incremental: Some(2),
            wal: Some(WalOptions {
                dir: dir.to_owned(),
                snapshot_every,
            }),
            ..LoadOptions::default()
        };
        let (secs, state) = timed(|| WarmState::load_dir(data_dir, &opts, &Telemetry::disabled()));
        let state =
            state.unwrap_or_else(|e| panic!("{mode}: durable load of {}: {e}", dir.display()));
        (secs * 1e3, state)
    };

    // Seed the WAL: one cold durable build plus the edit stream.
    let (cold_build_ms, state) = load(&wal_dir);
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

    // Warm restarts decode the snapshot and replay the tail; with a fresh
    // snapshot on disk recovery is read-only, so reps are independent.
    // Cold restarts recover a copy with every snapshot removed: full
    // feature extraction + fusion, then replay of the whole log.
    let restarts = |cold: bool| {
        let kind = if cold { "cold" } else { "warm" };
        let mut ms = Vec::with_capacity(reps);
        let mut replayed = 0usize;
        for rep in 0..reps {
            let dir = if cold {
                let copy = scratch.join(format!("wal-{mode}-cold-{rep}"));
                copy_without_snapshots(&wal_dir, &copy);
                copy
            } else {
                wal_dir.clone()
            };
            let (t, state) = load(&dir);
            ms.push(t);
            let report = state.recovery_report().expect("durable report");
            assert_eq!(report.cold, cold, "{mode}: restart must be {kind}");
            replayed = report.replayed;
            if rep == 0 {
                assert_eq!(
                    state_bits(&state),
                    reference,
                    "{mode}: {kind} recovery diverged from the pre-restart state"
                );
            }
            drop(state);
            if cold {
                std::fs::remove_dir_all(&dir).ok();
            }
        }
        (ms, replayed)
    };
    let (warm_ms, replayed_warm) = restarts(false);
    let (cold_ms, replayed_cold) = restarts(true);

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

fn main() {
    let args = Args::from_env(&["--scale", "--steps", "--out"], &["--check"]);
    let check = args.switch("--check");
    let (scale, steps, reps) = if check {
        (0.08, 5, 1)
    } else {
        (args.get("--scale", 1.0), args.get("--steps", 10), 3)
    };
    // Cadence such that retention (which reclaims generations older
    // than the *previous* snapshot) keeps the full log: snapshots land
    // at {0, every} with a tail after, so the cold baseline can still
    // replay from step 0 once the snapshots are removed.
    let snapshot_every = if check { 4 } else { 8 };
    let threads = ceaff_parallel::default_threads();
    eprintln!(
        "bench_restart: {} detected core(s), {threads} pipeline thread(s); \
         scale {scale}, {steps}-delta WAL, snapshot every {snapshot_every}, median of {reps} rep(s)",
        harness::detected_cores()
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

    let report = harness::report(
        "restart",
        check,
        json!({
            "threads": threads,
            "preset": "srprs-dbp-wd",
            "scale": scale,
            "steps": steps,
            "snapshot_every": snapshot_every,
            "reps": reps,
            "modes": modes,
        }),
        &[
            "warm_restart_ms is WarmState::load_dir over an intact WAL dir: newest snapshot decoded, tail frames patched into the feature stores, then fusion + matching run once; no feature extraction",
            "cold_restart_ms is the same recovery code path with every snapshot removed: full feature extraction, then replay of the entire log and one fusion + matching — what an all-snapshots-corrupt restart costs",
            "both recoveries are asserted bitwise-identical to the pre-restart state before timing is reported; the bench aborts on divergence",
            "replayed_warm < replayed_cold is enforced: a warm restart that replays the whole log is a recovery bug, not a slow run",
            "speedup is gated (> 1.0) only on full runs; --check runs are too small to be meaningful",
        ],
    );
    write_report(&args.get("--out", "BENCH_restart.json".to_owned()), &report);
    std::fs::remove_dir_all(&scratch).ok();
}
