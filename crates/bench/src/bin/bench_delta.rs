//! Incremental-alignment benchmark: replay a generated edit stream
//! through a warm [`DeltaState`] and compare per-edit wall-clock against
//! re-running the full pipeline from scratch on the edited pair. Both
//! paths use the **same training-free propagation config**, so the
//! comparison is parity-checked: the final warm output is asserted
//! bitwise-identical to the from-scratch run before the report is
//! written.
//!
//! Flags and their `--check` overrides: the table in the [`ceaff_bench`]
//! crate docs.
//!
//! Reporting rules (the thread count comes from `CEAFF_THREADS` or the
//! default pool, and is reported):
//! * `speedup` is from-scratch median over incremental mean. In `--check`
//!   mode the dataset is tiny and the ratio is noise — it is reported but
//!   not gated; a full run fails validation unless incremental wins.
//! * Parity is not sampled: the run aborts (and validation fails) unless
//!   the final warm output matches from-scratch bit-for-bit.

use ceaff::datagen::{evolve, EvolveConfig, Preset};
use ceaff::delta::DeltaState;
use ceaff::pipeline::{try_run_with_features, CeaffConfig, CeaffOutput, EaInput, FeatureSet};
use ceaff::{GcnConfig, Telemetry};
use ceaff_bench::harness::{self, median, store_bits, timed, write_report, Args};
use serde_json::{json, Value};

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

    let (warm_build_secs, state) =
        timed(|| DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg));
    let (warm_build_ms, mut state) = (warm_build_secs * 1e3, state.expect("warm state"));

    // Replay the stream, timing each incremental apply. The edited pair is
    // tracked alongside so from-scratch runs see the exact same final KG.
    let mut cur = ds.pair.clone();
    let mut apply_ms = Vec::with_capacity(steps);
    let mut patch_ms = Vec::with_capacity(steps);
    let mut global_ms = Vec::with_capacity(steps);
    let mut fractions = Vec::with_capacity(steps);
    for td in &stream {
        cur = td.delta.apply(&cur).expect("stream replays").pair;
        let (secs, diff) = timed(|| state.apply(&td.delta, &src, &tgt));
        let diff = diff.unwrap_or_else(|e| panic!("delta step {} must apply: {e}", td.step));
        apply_ms.push(secs * 1e3);
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
        global_ms.push(span_ms(&["fusion", "matcher", "eval"]));
    }

    // From-scratch on the final KG: the honest baseline for "refresh the
    // alignment after an edit", timed over `scratch_reps` runs.
    let mut scratch_ms = Vec::with_capacity(scratch_reps);
    let mut fresh = None;
    for _ in 0..scratch_reps {
        let (secs, out) = timed(|| from_scratch(&cur, &cfg, ds));
        scratch_ms.push(secs * 1e3);
        fresh = Some(out);
    }
    // Bitwise comparison of the warm and from-scratch outputs; a mismatch
    // means the incremental path is broken and the whole bench is invalid.
    let (warm, fresh) = (state.output(), fresh.expect("at least one scratch rep"));
    let parity = warm.matching.pairs() == fresh.matching.pairs()
        && warm.accuracy.to_bits() == fresh.accuracy.to_bits()
        && store_bits(&warm.fused) == store_bits(&fresh.fused);
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

fn main() {
    let args = Args::from_env(&["--scale", "--steps", "--out"], &["--check"]);
    let check = args.switch("--check");
    let (scale, steps, scratch_reps) = if check {
        (0.08, 5, 1)
    } else {
        (args.get("--scale", 1.0), args.get("--steps", 20), 3)
    };
    eprintln!(
        "bench_delta: {} detected core(s), {} pipeline thread(s); \
         scale {scale}, {steps}-edit stream, from-scratch median of {scratch_reps} rep(s)",
        harness::detected_cores(),
        ceaff_parallel::default_threads()
    );

    let ds = Preset::SrprsDbpWd.generate(scale);
    let modes: Vec<Value> = ["dense", "blocked"]
        .iter()
        .map(|mode| bench_mode(mode, &ds, steps, scratch_reps))
        .collect();

    let report = harness::report(
        "delta",
        check,
        json!({
            "threads": ceaff_parallel::default_threads(),
            "preset": "srprs-dbp-wd",
            "scale": scale,
            "steps": steps,
            "scratch_reps": scratch_reps,
            "modes": modes,
        }),
        &[
            "both paths use the same training-free propagation encoder (DeltaState rejects trained GCNs), so timings compare like for like",
            "from_scratch_ms is FeatureSet::compute + try_run_with_features on the final edited pair — the cost of refreshing after one edit without delta support",
            "each apply re-runs the global stages (CSLS, normalisation, fusion, matching, accuracy and ranking metrics) in full: global_stages_mean_ms, from the fusion, matcher and eval spans of each apply's trace",
            "the rest of an apply is the dirty-row feature patches (feature_patch_mean_ms, the delta.string/semantic/structural spans) and bookkeeping (bookkeeping_mean_ms: the graph edit, which copies the KG pair, split maps, warm blocking indexes, the diff and the in-place commit)",
            "blocked dirty rows are exact: a kept row is rebuilt only when its candidate list changed",
            "parity_bitwise asserts the final warm output equals from-scratch bit-for-bit; the bench aborts on divergence",
            "speedup is gated (> 1.0) only on full runs; --check runs are too small to be meaningful",
        ],
    );
    write_report(&args.get("--out", "BENCH_delta.json".to_owned()), &report);
}
