//! Atomicity and observability of `DeltaState::apply` with warm caches
//! (CI job `incremental`).
//!
//! A blocked state keeps derived caches across edits: warm blocking
//! indexes and propagation layers patched in place. These tests pin that
//! a failed apply — rejected by the graph layer, or refused by the
//! decision budget after every store was patched — leaves the observable
//! state untouched and the next successful apply bitwise-equal to a
//! from-scratch run; that a snapshot round trip mid-stream changes
//! nothing; and that each apply's spans land in its own trace.

use ceaff_core::pipeline::{try_run, CeaffConfig, CeaffOutput, EaInput};
use ceaff_core::snapshot::{decode_delta_state, encode_delta_state};
use ceaff_core::{
    CeaffError, DeltaState, EventKind, ExecBudget, GcnConfig, InMemorySink, LrConfig, Telemetry,
};
use ceaff_datagen::{evolve, EvolveConfig, GeneratedDataset, TimestampedDelta};
use ceaff_graph::{DeltaOp, KgDelta, KgPair, Side};
use std::sync::Arc;

fn dataset() -> GeneratedDataset {
    ceaff_datagen::Preset::SrprsEnFr.generate(0.1)
}

fn config() -> CeaffConfig {
    CeaffConfig::builder()
        .gcn(GcnConfig {
            dim: 16,
            ..GcnConfig::default()
        })
        .embed_dim(32)
        .build()
        .expect("valid config")
        .with_propagation(2)
        .with_blocking(8)
}

fn stream(pair: &KgPair) -> Vec<TimestampedDelta> {
    evolve(
        pair,
        &EvolveConfig {
            steps: 10,
            seed: 5,
            ..EvolveConfig::default()
        },
    )
}

/// The decision a caller can observe, bit for bit.
fn same_output(a: &CeaffOutput, b: &CeaffOutput) -> bool {
    a.matching.pairs() == b.matching.pairs()
        && a.accuracy.to_bits() == b.accuracy.to_bits()
        && a.fused == b.fused
}

fn assert_fresh(state: &DeltaState, ds: &GeneratedDataset, cfg: &CeaffConfig) {
    let (src, tgt) = (ds.source_embedder(32), ds.target_embedder(32));
    let fresh = try_run(&EaInput::new(state.pair(), &src, &tgt), cfg).expect("fresh run");
    assert!(
        same_output(state.output(), &fresh),
        "warm state diverged from a from-scratch run at step {}",
        state.step()
    );
}

/// Warm the caches with a few edits, then fail `fail` and check nothing
/// observable moved; the remaining edits must still track from-scratch.
fn assert_failure_is_atomic(fail: impl Fn(&mut DeltaState, &KgDelta) -> CeaffError) {
    let ds = dataset();
    let (src, tgt) = (ds.source_embedder(32), ds.target_embedder(32));
    let cfg = config();
    let edits = stream(&ds.pair);
    let mut state = DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("warm");
    for td in &edits[..3] {
        state.apply(&td.delta, &src, &tgt).expect("warm-up edit");
    }
    let before = (
        state.output().clone(),
        state.fingerprint(),
        state.step(),
        state.pair().clone(),
    );
    fail(&mut state, &edits[3].delta);
    assert!(same_output(state.output(), &before.0), "output moved");
    assert_eq!(state.fingerprint(), before.1, "fingerprint moved");
    assert_eq!(state.step(), before.2, "step moved");
    assert_eq!(state.pair(), &before.3, "pair moved");
    for td in &edits[3..] {
        state
            .apply(&td.delta, &src, &tgt)
            .expect("edit after failure");
        assert_fresh(&state, &ds, &cfg);
    }
}

#[test]
fn an_apply_refused_at_fusion_after_patching_leaves_the_state_unchanged() {
    assert_failure_is_atomic(|state, delta| {
        let (src, tgt) = {
            let ds = dataset();
            (ds.source_embedder(32), ds.target_embedder(32))
        };
        // Every store is patched before the decision's first memory check.
        let tight = ExecBudget::unlimited().with_max_mem_bytes(1);
        let err = state
            .apply_budgeted(delta, &src, &tgt, &tight)
            .expect_err("a one-byte budget must trip");
        match &err {
            CeaffError::BudgetExceeded { stage, .. } => assert_eq!(stage, "fusion"),
            other => panic!("wrong error: {other:?}"),
        }
        err
    });
}

#[test]
fn a_rejected_delta_leaves_the_state_unchanged() {
    assert_failure_is_atomic(|state, delta| {
        let ds = dataset();
        let (src, tgt) = (ds.source_embedder(32), ds.target_embedder(32));
        // A valid prefix followed by an op the graph layer rejects.
        let mut ops = delta.ops.clone();
        ops.push(DeltaOp::RemoveEntity {
            side: Side::Target,
            name: "no such entity".into(),
        });
        let err = state
            .apply(&KgDelta::new(ops), &src, &tgt)
            .expect_err("must reject");
        assert!(matches!(err, CeaffError::Delta(_)), "{err:?}");
        err
    });
}

/// Drain `sink` and count the `delta.*` spans it held.
fn delta_spans(sink: &InMemorySink) -> usize {
    sink.take()
        .iter()
        .filter(|e| e.kind == EventKind::Span && e.stage.starts_with("delta."))
        .count()
}

#[test]
fn a_snapshot_round_trip_mid_stream_changes_nothing() {
    let ds = dataset();
    let (src, tgt) = (ds.source_embedder(32), ds.target_embedder(32));
    let cfg = config();
    let edits = stream(&ds.pair);
    let mut live = DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("warm");
    for td in &edits[..4] {
        live.apply(&td.delta, &src, &tgt).expect("edit");
    }
    let bytes = encode_delta_state(&live).expect("encode");
    let sink = Arc::new(InMemorySink::default());
    let mut restored = decode_delta_state(&bytes, &cfg)
        .expect("decode")
        .with_telemetry(Telemetry::with_sink(sink.clone()));
    for td in &edits[4..] {
        let a = live.apply(&td.delta, &src, &tgt).expect("live edit");
        let b = restored
            .apply(&td.delta, &src, &tgt)
            .expect("restored edit");
        assert_eq!(a, b, "diffs diverged at step {}", td.step);
        assert!(same_output(live.output(), restored.output()));
        // A decoded state given a handle reports to its sinks.
        assert_eq!(delta_spans(&sink), 7, "step {}", td.step);
        assert_eq!(
            encode_delta_state(&live).expect("encode live"),
            encode_delta_state(&restored).expect("encode restored"),
            "cached state diverged at step {}",
            td.step
        );
    }
    assert_fresh(&live, &ds, &cfg);
}

#[test]
fn lr_weighting_scores_pending_rows_like_committed_ones() {
    // LR weighting is the one decision mode that scores pairs outside the
    // stores — through the not-yet-committed rows of an apply.
    let ds = dataset();
    let (src, tgt) = (ds.source_embedder(32), ds.target_embedder(32));
    let cfg = config().with_lr_weighting(LrConfig::default());
    let mut state = DeltaState::new(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("warm");
    for td in &stream(&ds.pair) {
        state.apply(&td.delta, &src, &tgt).expect("edit");
    }
    assert_fresh(&state, &ds, &cfg);
}

#[test]
fn every_apply_traces_its_own_stages() {
    let ds = dataset();
    let (src, tgt) = (ds.source_embedder(32), ds.target_embedder(32));
    let sink = Arc::new(InMemorySink::default());
    let input =
        EaInput::new(&ds.pair, &src, &tgt).with_telemetry(Telemetry::with_sink(sink.clone()));
    let mut state = DeltaState::new(&input, &config()).expect("warm");
    let stages = [
        "delta.graph",
        "delta.split",
        "delta.blocking",
        "delta.string",
        "delta.semantic",
        "delta.structural",
        "fusion",
        "matcher",
        "delta.diff",
    ];
    let mut per_apply = Vec::new();
    for td in &stream(&ds.pair) {
        state.apply(&td.delta, &src, &tgt).expect("edit");
        let trace = &state.output().trace;
        for stage in stages {
            assert!(
                trace.stage_seconds(stage).is_some(),
                "step {}: no `{stage}` span in {:?}",
                td.step,
                trace.stages
            );
        }
        assert!(trace.counter("delta", "base_dirty_rows").is_some());
        // The state's sinks see the same spans.
        assert_eq!(delta_spans(&sink), 7, "step {}", td.step);
        per_apply.push(trace.stages.len());
    }
    // Nothing accumulates across edits.
    assert!(per_apply.windows(2).all(|w| w[0] == w[1]), "{per_apply:?}");
}
