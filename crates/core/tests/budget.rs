//! Execution-budget end-to-end behavior: the unconstrained invariant
//! (bitwise identity with the unbudgeted pipeline), graceful degradation
//! under step limits and cancellation, the typed memory-budget error,
//! and the budget × checkpoint interplay.

use ceaff_core::checkpoint::{CheckpointPolicy, Checkpointer};
use ceaff_core::gcn::GcnConfig;
use ceaff_core::pipeline::{run, try_run, CeaffConfig, CeaffOutput, EaInput, RunOptions};
use ceaff_core::{CancelToken, CeaffError, ExecBudget, MatcherKind, Telemetry};
use ceaff_datagen::{GenConfig, GeneratedDataset, NameChannel};
use std::path::{Path, PathBuf};
use std::time::Duration;

fn dataset() -> GeneratedDataset {
    ceaff_datagen::generate(&GenConfig {
        aligned_entities: 120,
        extra_frac: 0.1,
        avg_degree: 8.0,
        overlap: 0.8,
        channel: NameChannel::CloseLingual {
            morph_rate: 0.5,
            replace_rate: 0.2,
        },
        vocab_size: 400,
        lexicon_coverage: 0.9,
        ..GenConfig::default()
    })
}

fn cfg() -> CeaffConfig {
    CeaffConfig {
        gcn: GcnConfig {
            dim: 16,
            epochs: 30,
            ..GcnConfig::default()
        },
        embed_dim: 16,
        ..CeaffConfig::default()
    }
}

fn run_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ceaff-budget-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A run under `budget`, without checkpointing.
fn run_budgeted(
    input: &EaInput<'_>,
    cfg: &CeaffConfig,
    budget: &ExecBudget,
) -> Result<CeaffOutput, CeaffError> {
    let opts = RunOptions {
        budget,
        checkpoint: None,
    };
    run(input, cfg, &opts)
}

/// A run under `budget` that checkpoints to `dir` under `policy`.
fn run_checkpointed(
    input: &EaInput<'_>,
    cfg: &CeaffConfig,
    dir: impl AsRef<Path>,
    policy: CheckpointPolicy,
    budget: &ExecBudget,
) -> Result<CeaffOutput, CeaffError> {
    let ck = Checkpointer::create(dir, policy, cfg)?;
    let opts = RunOptions {
        budget,
        checkpoint: Some(&ck),
    };
    run(input, cfg, &opts)
}

/// Resume the run checkpointed in `dir` under the configuration it pins.
fn resume_dir(dir: impl AsRef<Path>, input: &EaInput<'_>) -> Result<CeaffOutput, CeaffError> {
    let (ck, cfg) = Checkpointer::open(dir)?;
    let opts = RunOptions {
        checkpoint: Some(&ck),
        ..RunOptions::default()
    };
    run(input, &cfg, &opts)
}

/// Bit-level equality of two runs' outputs: the fused store (backend,
/// stored cells and every value), the matching, and every metric.
fn assert_bitwise_equal(a: &CeaffOutput, b: &CeaffOutput) {
    assert_eq!(a.fused.is_sparse(), b.fused.is_sparse());
    assert_eq!(a.fused.nnz(), b.fused.nnz());
    let (da, db) = (a.fused.to_dense(), b.fused.to_dense());
    let (ma, mb) = (da.as_matrix(), db.as_matrix());
    assert_eq!((ma.rows(), ma.cols()), (mb.rows(), mb.cols()));
    for (x, y) in ma.as_slice().iter().zip(mb.as_slice()) {
        assert_eq!(x.to_bits(), y.to_bits(), "fused matrices diverge");
    }
    assert_eq!(a.matching.pairs(), b.matching.pairs());
    assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
    assert_eq!(a.ranking.hits1.to_bits(), b.ranking.hits1.to_bits());
    assert_eq!(a.ranking.hits10.to_bits(), b.ranking.hits10.to_bits());
    assert_eq!(a.ranking.mrr.to_bits(), b.ranking.mrr.to_bits());
}

#[test]
fn unlimited_budget_is_bitwise_identical_to_unbudgeted() {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = cfg();

    let plain = try_run(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("plain run");
    let unlimited = run_budgeted(
        &EaInput::new(&ds.pair, &src, &tgt),
        &cfg,
        &ExecBudget::unlimited(),
    )
    .expect("unlimited budgeted run");
    assert_bitwise_equal(&plain, &unlimited);
    assert!(unlimited.trace.degradations.is_empty());
}

#[test]
fn unfired_constrained_budget_is_bitwise_identical_too() {
    // The CLI wires a SIGINT cancel token into *every* align run, so the
    // anytime code path with a constrained-but-never-fired budget must
    // also reproduce the unbudgeted output bit for bit.
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = cfg();

    let plain = try_run(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("plain run");
    let budget = ExecBudget::unlimited()
        .with_cancel(CancelToken::new())
        .with_deadline(Duration::from_secs(3600))
        .with_step_limit(u64::MAX);
    let budgeted =
        run_budgeted(&EaInput::new(&ds.pair, &src, &tgt), &cfg, &budget).expect("budgeted run");
    assert_bitwise_equal(&plain, &budgeted);
    assert!(budgeted.trace.degradations.is_empty());
    // ... but its trace does carry the budget accounting.
    assert!(budgeted.trace.counter("budget", "steps_consumed").is_some());
}

#[test]
fn step_limited_run_degrades_gracefully() {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = cfg();

    // 10 granules against 30 GCN epochs + 2 feature stages + matcher
    // rounds: training is cut short and everything after it degrades.
    let budget = ExecBudget::unlimited().with_step_limit(10);
    let out = run_budgeted(&EaInput::new(&ds.pair, &src, &tgt), &cfg, &budget)
        .expect("degraded run still succeeds");
    let n = ds.pair.test_pairs().len();
    assert!(out.matching.is_one_to_one());
    assert_eq!(out.matching.len(), n);
    assert!(out.accuracy.is_finite());

    let stages: Vec<&str> = out
        .trace
        .degradations
        .iter()
        .map(|d| d.stage.as_str())
        .collect();
    assert!(stages.contains(&"gcn"), "gcn must degrade: {stages:?}");
    for d in &out.trace.degradations {
        assert_eq!(d.reason, "step_limit");
        assert!(d.fraction_degraded > 0.0 && d.fraction_degraded <= 1.0);
    }
    assert_eq!(out.trace.counter("budget", "steps_consumed"), Some(10));
}

#[test]
fn cancelled_before_start_still_returns_a_valid_result() {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = cfg();

    let token = CancelToken::new();
    token.cancel();
    let budget = ExecBudget::unlimited().with_cancel(token);
    let out = run_budgeted(&EaInput::new(&ds.pair, &src, &tgt), &cfg, &budget)
        .expect("cancelled run degrades, not errors");
    assert!(out.matching.is_one_to_one());
    assert_eq!(out.matching.len(), ds.pair.test_pairs().len());
    assert!(!out.trace.degradations.is_empty());
    for d in &out.trace.degradations {
        assert_eq!(d.reason, "cancelled");
    }
    assert_eq!(out.trace.counter("budget", "cancelled"), Some(1));
}

#[test]
fn already_expired_deadline_degrades_immediately_and_reproducibly() {
    // A deadline that has already passed when the run *enters* the
    // pipeline is the harshest anytime case: every stage must degrade at
    // its first granule — no panic, no division by a zero round count —
    // and still hand back a complete one-to-one matching. The degraded
    // answer must also be bitwise-identical across thread counts, because
    // the deadline check is per-granule, not per-thread-race.
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = cfg();

    let run = |threads: usize| {
        ceaff_parallel::with_threads(threads, || {
            let budget = ExecBudget::unlimited().with_deadline(Duration::ZERO);
            run_budgeted(&EaInput::new(&ds.pair, &src, &tgt), &cfg, &budget)
                .expect("expired deadline degrades, not errors")
        })
    };
    let out = run(1);
    assert!(out.matching.is_one_to_one());
    assert_eq!(out.matching.len(), ds.pair.test_pairs().len());
    assert!(out.accuracy.is_finite());
    assert!(
        !out.trace.degradations.is_empty(),
        "an expired deadline must be visible in the trace"
    );
    for d in &out.trace.degradations {
        assert_eq!(d.reason, "deadline");
        assert!((0.0..=1.0).contains(&d.fraction_degraded));
    }
    assert_bitwise_equal(&out, &run(4));
}

#[test]
fn zero_step_limit_degrades_immediately_and_reproducibly() {
    // Zero granules of budget at entry: the degenerate sibling of the
    // expired deadline, exercising the step accounting's boundary (the
    // very first `consume` must fire, never underflow or divide by the
    // zero rounds completed).
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = cfg();

    let run = |threads: usize| {
        ceaff_parallel::with_threads(threads, || {
            let budget = ExecBudget::unlimited().with_step_limit(0);
            run_budgeted(&EaInput::new(&ds.pair, &src, &tgt), &cfg, &budget)
                .expect("zero step limit degrades, not errors")
        })
    };
    let out = run(1);
    assert!(out.matching.is_one_to_one());
    assert_eq!(out.matching.len(), ds.pair.test_pairs().len());
    assert!(out.accuracy.is_finite());
    assert!(!out.trace.degradations.is_empty());
    for d in &out.trace.degradations {
        assert_eq!(d.reason, "step_limit");
        match d.stage.as_str() {
            // The feature stage guarantees a minimal valid answer by
            // always computing its first enabled feature before touching
            // the budget, so even a zero budget completes one round there.
            "features" => assert_eq!(d.rounds_completed, 1),
            _ => assert_eq!(d.rounds_completed, 0, "no rounds fit in a zero budget"),
        }
        assert!((0.0..=1.0).contains(&d.fraction_degraded));
    }
    assert_bitwise_equal(&out, &run(4));
}

#[test]
fn tiny_memory_budget_is_a_typed_error_not_an_abort() {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = cfg();

    let budget = ExecBudget::unlimited().with_max_mem_bytes(4 * 1024);
    let err = run_budgeted(&EaInput::new(&ds.pair, &src, &tgt), &cfg, &budget)
        .expect_err("a 4 KiB cap cannot fit the GCN");
    match err {
        CeaffError::BudgetExceeded {
            stage,
            limit_bytes,
            peak_bytes,
        } => {
            assert!(!stage.is_empty());
            assert_eq!(limit_bytes, 4 * 1024);
            assert!(peak_bytes > limit_bytes);
        }
        other => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

#[test]
fn degraded_checkpoint_run_keeps_training_state_and_resumes_exactly() {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = cfg();
    let dir = run_dir("degraded-resume");

    let plain = try_run(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("plain run");

    // Budgeted checkpointed run: training stops after 10 of 30 epochs.
    // The degraded structural output must NOT be saved as a completed
    // stage artifact — only the in-flight training state stays.
    let budget = ExecBudget::unlimited().with_step_limit(10);
    let degraded = run_checkpointed(
        &EaInput::new(&ds.pair, &src, &tgt),
        &cfg,
        &dir,
        CheckpointPolicy::EveryNEpochs(5),
        &budget,
    )
    .expect("degraded checkpointed run");
    assert!(!degraded.trace.degradations.is_empty());
    assert!(
        dir.join(ceaff_core::checkpoint::TRAIN_FILE).exists(),
        "in-flight training state must survive a degraded run"
    );
    assert!(
        !dir.join(ceaff_core::checkpoint::STAGE_STRUCTURAL).exists(),
        "a degraded stage must not masquerade as a completed artifact"
    );

    // Resuming without a budget finishes the real computation and lands
    // bit-for-bit on the uninterrupted answer.
    let resumed = resume_dir(&dir, &EaInput::new(&ds.pair, &src, &tgt)).expect("resume completes");
    assert_bitwise_equal(&plain, &resumed);
    std::fs::remove_dir_all(&dir).ok();
}

/// A budget with every dimension armed that never fires within a test.
fn unfired_budget() -> ExecBudget {
    ExecBudget::unlimited()
        .with_cancel(CancelToken::new())
        .with_deadline(Duration::from_secs(3600))
        .with_step_limit(u64::MAX)
}

/// The stage names a run's trace recorded, in order.
fn stage_names(out: &CeaffOutput) -> Vec<&str> {
    out.trace.stages.iter().map(|t| t.stage.as_str()).collect()
}

/// An unfired constrained budget reproduces the plain run of `cfg` bit
/// for bit and records the same stages.
fn assert_unfired_budget_matches_plain(cfg: &CeaffConfig) {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);

    let plain = try_run(&EaInput::new(&ds.pair, &src, &tgt), cfg).expect("plain run");
    let budgeted = run_budgeted(&EaInput::new(&ds.pair, &src, &tgt), cfg, &unfired_budget())
        .expect("budgeted run");
    assert_bitwise_equal(&plain, &budgeted);
    assert_eq!(stage_names(&plain), stage_names(&budgeted));
    assert!(budgeted.trace.degradations.is_empty());
    // Both ran the matcher's exact path over the fused store.
    let exact = cfg
        .matcher
        .build()
        .matching_store_traced(&plain.fused, &Telemetry::disabled());
    assert_eq!(plain.matching.pairs(), exact.pairs());
}

#[test]
fn blocked_trained_run_under_unfired_budget_is_bitwise_identical() {
    let cfg = cfg().with_blocking(20);
    assert_unfired_budget_matches_plain(&cfg);
}

#[test]
fn blocked_propagation_run_under_unfired_budget_is_bitwise_identical() {
    for matcher in [
        MatcherKind::StableMarriage,
        MatcherKind::Hungarian,
        MatcherKind::Greedy,
        MatcherKind::GreedyOneToOne,
    ] {
        let mut cfg = cfg().with_blocking(20).with_propagation(2);
        cfg.matcher = matcher;
        assert_unfired_budget_matches_plain(&cfg);
    }
}

#[test]
fn checkpointed_run_under_unfired_budget_is_bitwise_identical() {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = cfg();
    let dir = run_dir("unfired-checkpointed");

    let plain = try_run(&EaInput::new(&ds.pair, &src, &tgt), &cfg).expect("plain run");
    let checkpointed = run_checkpointed(
        &EaInput::new(&ds.pair, &src, &tgt),
        &cfg,
        &dir,
        CheckpointPolicy::EveryNEpochs(5),
        &unfired_budget(),
    )
    .expect("checkpointed run");
    assert_bitwise_equal(&plain, &checkpointed);
    assert_eq!(stage_names(&plain), stage_names(&checkpointed));
    assert!(checkpointed.trace.degradations.is_empty());
    assert_eq!(
        checkpointed.trace.counter("checkpoint", "stages_saved"),
        Some(3)
    );
    std::fs::remove_dir_all(&dir).ok();
}
