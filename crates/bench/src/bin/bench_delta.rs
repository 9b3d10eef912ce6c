//! Incremental-alignment benchmark: replay a generated edit stream
//! through a warm [`DeltaState`] and compare per-edit wall-clock against
//! re-running the full pipeline from scratch on the edited pair. Both
//! paths use the **same training-free propagation config**, so the
//! comparison is parity-checked: the final warm output is asserted
//! bitwise-identical to the from-scratch run before the report is
//! written.
//!
//! ```text
//! bench_delta [--scale F]   dataset size multiplier (default 1.0)
//!             [--steps N]   edits in the stream (default 20)
//!             [--check]     smoke mode: scale 0.08, 5 steps, 1 scratch rep
//!             [--out PATH]  report path (default BENCH_delta.json)
//! ```
//!
//! Honest-reporting rules (shared with `bench_server`):
//! * `detected_cores` is reported verbatim; thread count comes from
//!   `CEAFF_THREADS` / the default pool, and is reported.
//! * `speedup` is from-scratch median over incremental mean. In `--check`
//!   mode the dataset is tiny and the ratio is noise — it is reported but
//!   not gated; a full run fails validation unless incremental wins.
//! * Parity is not sampled: the run aborts (and validation fails) unless
//!   the final warm output matches from-scratch bit-for-bit.

use ceaff::datagen::{evolve, EvolveConfig, Preset};
use ceaff::delta::DeltaState;
use ceaff::pipeline::{try_run_with_features, CeaffConfig, CeaffOutput, EaInput, FeatureSet};
use ceaff::sim::SimStore;
use ceaff::{GcnConfig, Telemetry};
use serde_json::{json, Value};
use std::time::Instant;

const SCHEMA_VERSION: u64 = 1;
/// Embedding dimension for both paths — matches the parity suite.
const EMBED_DIM: usize = 32;
/// Propagation layers for the training-free structural encoder.
const PROP_LAYERS: usize = 2;
/// Top-k kept per row in the blocked workload.
const BLOCK_K: usize = 8;

fn config(blocked: bool) -> CeaffConfig {
    let mut cfg = CeaffConfig::builder()
        .gcn(GcnConfig {
            dim: 16,
            ..GcnConfig::default()
        })
        .embed_dim(EMBED_DIM)
        .build()
        .expect("valid config")
        .with_propagation(PROP_LAYERS);
    if blocked {
        cfg = cfg.with_blocking(BLOCK_K);
    }
    cfg
}

fn from_scratch(
    pair: &ceaff::graph::KgPair,
    cfg: &CeaffConfig,
    ds: &ceaff::datagen::GeneratedDataset,
) -> CeaffOutput {
    let src = ds.source_embedder(EMBED_DIM);
    let tgt = ds.target_embedder(EMBED_DIM);
    let input = EaInput::new(pair, &src, &tgt);
    let features = FeatureSet::compute(&input, cfg);
    try_run_with_features(pair, &features, cfg, &Telemetry::disabled()).expect("fresh run")
}

/// Bitwise comparison of the warm and from-scratch outputs; `false` means
/// the incremental path is broken and the whole bench is invalid.
fn outputs_identical(warm: &CeaffOutput, fresh: &CeaffOutput) -> bool {
    if warm.matching.pairs() != fresh.matching.pairs()
        || warm.accuracy.to_bits() != fresh.accuracy.to_bits()
    {
        return false;
    }
    match (&warm.fused, &fresh.fused) {
        (SimStore::Dense(a), SimStore::Dense(b)) => {
            a.sources() == b.sources()
                && a.as_matrix()
                    .as_slice()
                    .iter()
                    .zip(b.as_matrix().as_slice())
                    .all(|(x, y)| x.to_bits() == y.to_bits())
        }
        (SimStore::Sparse(a), SimStore::Sparse(b)) => a == b,
        _ => false,
    }
}

/// Nearest-rank percentile of an unsorted sample, in place.
fn percentile(samples: &mut [f64], q: f64) -> f64 {
    assert!(!samples.is_empty());
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite timing"));
    let rank = ((samples.len() as f64 * q).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

fn median(samples: &mut [f64]) -> f64 {
    percentile(samples, 0.5)
}

fn bench_mode(
    mode: &str,
    ds: &ceaff::datagen::GeneratedDataset,
    steps: usize,
    scratch_reps: usize,
) -> Value {
    let cfg = config(mode == "blocked");
    let src = ds.source_embedder(EMBED_DIM);
    let tgt = ds.target_embedder(EMBED_DIM);

    let stream = evolve(
        &ds.pair,
        &EvolveConfig {
            steps,
            seed: 11,
            ..EvolveConfig::default()
        },
    );
    assert_eq!(stream.len(), steps, "evolve produced a short stream");

    let started = Instant::now();
    let mut state = DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("warm state");
    let warm_build_ms = started.elapsed().as_secs_f64() * 1e3;

    // Replay the stream, timing each incremental apply. The edited pair is
    // tracked alongside so from-scratch runs see the exact same final KG.
    let mut cur = ds.pair.clone();
    let mut apply_ms = Vec::with_capacity(steps);
    let mut patch_ms = Vec::with_capacity(steps);
    let mut global_ms = Vec::with_capacity(steps);
    let mut fractions = Vec::with_capacity(steps);
    for td in &stream {
        cur = td.delta.apply(&cur).expect("stream replays").pair;
        let started = Instant::now();
        let diff = state
            .apply(&td.delta, &src, &tgt)
            .unwrap_or_else(|e| panic!("delta step {} must apply: {e}", td.step));
        apply_ms.push(started.elapsed().as_secs_f64() * 1e3);
        fractions.push(diff.recompute_fraction);
        // Each apply's own spans split its wall time.
        let span_ms = |stages: &[&str]| {
            let trace = &state.output().trace;
            stages
                .iter()
                .filter_map(|s| trace.stage_seconds(s))
                .sum::<f64>()
                * 1e3
        };
        patch_ms.push(span_ms(&[
            "delta.string",
            "delta.semantic",
            "delta.structural",
        ]));
        global_ms.push(span_ms(&["fusion", "matcher"]));
    }

    // From-scratch on the final KG: the honest baseline for "refresh the
    // alignment after an edit", timed over `scratch_reps` runs.
    let mut scratch_ms = Vec::with_capacity(scratch_reps);
    let mut fresh = None;
    for _ in 0..scratch_reps {
        let started = Instant::now();
        fresh = Some(from_scratch(&cur, &cfg, ds));
        scratch_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let parity = outputs_identical(state.output(), &fresh.expect("at least one scratch rep"));
    assert!(
        parity,
        "{mode}: warm output diverged from from-scratch — bench invalid"
    );

    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let incremental_mean_ms = mean(&apply_ms);
    let feature_patch_mean_ms = mean(&patch_ms);
    let global_stages_mean_ms = mean(&global_ms);
    let from_scratch_ms = median(&mut scratch_ms);
    let bookkeeping_mean_ms = incremental_mean_ms - feature_patch_mean_ms - global_stages_mean_ms;
    eprintln!(
        "  {mode}: warm build {warm_build_ms:.0} ms; incremental mean {incremental_mean_ms:.1} ms/edit \
         (patches {feature_patch_mean_ms:.1}, global {global_stages_mean_ms:.1}, \
         bookkeeping {bookkeeping_mean_ms:.1}); from-scratch {from_scratch_ms:.0} ms; speedup {:.1}x",
        from_scratch_ms / incremental_mean_ms
    );

    json!({
        "mode": mode,
        "steps": steps,
        "warm_build_ms": warm_build_ms,
        "incremental_mean_ms": incremental_mean_ms,
        "incremental_median_ms": median(&mut apply_ms.clone()),
        "incremental_max_ms": apply_ms.iter().cloned().fold(0.0f64, f64::max),
        "from_scratch_ms": from_scratch_ms,
        "speedup": from_scratch_ms / incremental_mean_ms,
        "feature_patch_mean_ms": feature_patch_mean_ms,
        "global_stages_mean_ms": global_stages_mean_ms,
        "bookkeeping_mean_ms": bookkeeping_mean_ms,
        "mean_recompute_fraction": mean(&fractions),
        "parity_bitwise": parity,
    })
}

/// Validate a delta-bench report; first problem as a readable message.
fn validate_report(doc: &Value) -> Result<(), String> {
    if doc.get("schema_version").and_then(Value::as_u64) != Some(SCHEMA_VERSION) {
        return Err(format!("schema_version must be {SCHEMA_VERSION}"));
    }
    if doc.get("bench").and_then(Value::as_str) != Some("delta") {
        return Err("bench must be \"delta\"".into());
    }
    for key in ["detected_cores", "threads", "steps", "scratch_reps"] {
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
            "warm_build_ms",
            "incremental_mean_ms",
            "incremental_median_ms",
            "incremental_max_ms",
            "feature_patch_mean_ms",
            "global_stages_mean_ms",
            "bookkeeping_mean_ms",
            "from_scratch_ms",
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
        let frac = mode
            .get("mean_recompute_fraction")
            .and_then(Value::as_f64)
            .ok_or("mode.mean_recompute_fraction must be a number")?;
        if !(0.0..=1.0).contains(&frac) {
            return Err("mode.mean_recompute_fraction must be in [0, 1]".into());
        }
        if mode.get("parity_bitwise").and_then(Value::as_bool) != Some(true) {
            return Err("mode.parity_bitwise must be true".into());
        }
        // The headline claim — incremental beats from-scratch — is only
        // gated on full runs; a --check run is too small to be meaningful.
        if !check_mode {
            let speedup = mode.get("speedup").and_then(Value::as_f64).unwrap_or(0.0);
            if speedup <= 1.0 {
                return Err(format!(
                    "full run must show incremental beating from-scratch (speedup {speedup:.2})"
                ));
            }
        }
    }
    Ok(())
}

fn main() {
    let mut scale = 1.0f64;
    let mut steps = 20usize;
    let mut check = false;
    let mut out_path = "BENCH_delta.json".to_owned();
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
    let scratch_reps = if check { 1 } else { 3 };
    if check {
        scale = 0.08;
        steps = 5;
    }
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = ceaff_parallel::default_threads();
    eprintln!(
        "bench_delta: {cores} detected core(s), {threads} pipeline thread(s); \
         scale {scale}, {steps}-edit stream, from-scratch median of {scratch_reps} rep(s)"
    );

    let ds = Preset::SrprsDbpWd.generate(scale);
    let modes: Vec<Value> = ["dense", "blocked"]
        .iter()
        .map(|mode| bench_mode(mode, &ds, steps, scratch_reps))
        .collect();

    let report = json!({
        "schema_version": SCHEMA_VERSION,
        "bench": "delta",
        "detected_cores": cores,
        "threads": threads,
        "preset": "srprs-dbp-wd",
        "scale": scale,
        "steps": steps,
        "scratch_reps": scratch_reps,
        "check_mode": check,
        "modes": modes,
        "notes": [
            "both paths use the same training-free propagation encoder (DeltaState rejects trained GCNs), so timings compare like for like",
            "from_scratch_ms is FeatureSet::compute + try_run_with_features on the final edited pair — the cost of refreshing after one edit without delta support",
            "each apply re-runs the global stages (CSLS, normalisation, fusion, matching) in full: global_stages_mean_ms, from the fusion and matcher spans of each apply's trace",
            "the rest of an apply is the dirty-row feature patches (feature_patch_mean_ms, the delta.string/semantic/structural spans) and bookkeeping (bookkeeping_mean_ms: the graph edit, which copies the KG pair, split maps, warm blocking indexes, the diff and the in-place commit)",
            "blocked dirty rows are exact: a kept row is rebuilt only when its candidate list changed",
            "parity_bitwise asserts the final warm output equals from-scratch bit-for-bit; the bench aborts on divergence",
            "speedup is gated (> 1.0) only on full runs; --check runs are too small to be meaningful",
        ],
    });
    validate_report(&report).expect("bench_delta produced a schema-invalid report");
    let pretty = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out_path, pretty + "\n").expect("write report");
    eprintln!("wrote {out_path}");
}
