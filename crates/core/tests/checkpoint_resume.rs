//! Checkpoint/resume end-to-end: a run interrupted mid-GCN-training and
//! resumed from its run directory must produce **bitwise-identical**
//! embeddings and metrics to the same run executed uninterrupted — at any
//! thread count.

use ceaff_core::checkpoint::{CheckpointPolicy, Checkpointer};
use ceaff_core::gcn::GcnConfig;
use ceaff_core::pipeline::{run, try_run, CeaffConfig, CeaffOutput, EaInput, RunOptions};
use ceaff_core::CeaffError;
use ceaff_datagen::{GenConfig, GeneratedDataset, NameChannel};
use ceaff_faultinject::FaultPlan;
use std::path::{Path, PathBuf};

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
        "ceaff-resume-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// A run that checkpoints to `dir` under `policy`.
fn run_checkpointed(
    input: &EaInput<'_>,
    cfg: &CeaffConfig,
    dir: impl AsRef<Path>,
    policy: CheckpointPolicy,
) -> Result<CeaffOutput, CeaffError> {
    let ck = Checkpointer::create(dir, policy, cfg)?;
    let opts = RunOptions {
        checkpoint: Some(&ck),
        ..RunOptions::default()
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

/// Bit-level equality of two runs' outputs: the fused matrix, the
/// matching, and every metric.
fn assert_bitwise_equal(a: &CeaffOutput, b: &CeaffOutput) {
    let (ma, mb) = (a.fused.as_matrix(), b.fused.as_matrix());
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

/// Crash at a given epoch via fault injection, then resume; compare
/// against an uninterrupted plain run. `threads` controls the worker pool
/// of every run in the round trip.
fn crash_and_resume_matches(threads: usize, crash_epoch: usize) {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = cfg();
    let dir = run_dir(&format!("t{threads}e{crash_epoch}"));

    // Every phase holds a fault scope: the armed plan is process-global,
    // and an inert default plan both serializes concurrent tests and
    // shields fault-free runs from another test's injections.
    let uninterrupted = {
        let _quiet = FaultPlan::default().activate();
        ceaff_parallel::with_threads(threads, || {
            let input = EaInput::new(&ds.pair, &src, &tgt);
            try_run(&input, &cfg).expect("uninterrupted run")
        })
    };

    // First attempt dies mid-training (graceful simulated crash — the
    // checkpoint on disk is whatever the every-5-epochs cadence saved).
    let crashed = {
        let _scope = FaultPlan {
            fail_train_at_epoch: Some(crash_epoch),
            ..FaultPlan::default()
        }
        .activate();
        ceaff_parallel::with_threads(threads, || {
            let input = EaInput::new(&ds.pair, &src, &tgt);
            run_checkpointed(&input, &cfg, &dir, CheckpointPolicy::EveryNEpochs(5))
        })
    };
    match crashed {
        Err(CeaffError::Checkpoint { reason, .. }) => {
            assert!(reason.contains("simulated crash"), "{reason}")
        }
        other => panic!("expected the injected crash, got {other:?}"),
    }

    let resumed = {
        let _quiet = FaultPlan::default().activate();
        ceaff_parallel::with_threads(threads, || {
            let input = EaInput::new(&ds.pair, &src, &tgt);
            resume_dir(&dir, &input).expect("resumed run")
        })
    };
    assert_bitwise_equal(&uninterrupted, &resumed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn crash_and_resume_is_bitwise_identical_single_thread() {
    crash_and_resume_matches(1, 17);
}

#[test]
fn crash_and_resume_is_bitwise_identical_four_threads() {
    crash_and_resume_matches(4, 17);
}

#[test]
fn crash_before_any_checkpoint_restarts_from_scratch() {
    // Epoch 3 < the first every-5 boundary: nothing saved for training,
    // resume re-trains from epoch 0 — still bitwise-equal.
    crash_and_resume_matches(1, 3);
}

#[test]
fn resume_at_a_validation_and_refresh_boundary_is_bitwise_identical() {
    // Epoch 22 resumes from the epoch-20 checkpoint: epoch 19 ended with a
    // validation and epoch 20 opens with a hard-negative refresh, so the
    // resumed run must rebuild the forward pass both of them scored.
    crash_and_resume_matches(1, 22);
    crash_and_resume_matches(4, 22);
}

#[test]
fn resume_across_thread_counts_is_bitwise_identical() {
    // The determinism contract makes thread count irrelevant: crash at 1
    // thread, resume at 4 — results still match an uninterrupted run.
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = cfg();
    let dir = run_dir("cross");

    let uninterrupted = {
        let _quiet = FaultPlan::default().activate();
        ceaff_parallel::with_threads(1, || {
            let input = EaInput::new(&ds.pair, &src, &tgt);
            try_run(&input, &cfg).expect("uninterrupted run")
        })
    };
    let crashed = {
        let _scope = FaultPlan {
            fail_train_at_epoch: Some(12),
            ..FaultPlan::default()
        }
        .activate();
        ceaff_parallel::with_threads(1, || {
            let input = EaInput::new(&ds.pair, &src, &tgt);
            run_checkpointed(&input, &cfg, &dir, CheckpointPolicy::EveryNEpochs(5))
        })
    };
    assert!(crashed.is_err());
    let resumed = {
        let _quiet = FaultPlan::default().activate();
        ceaff_parallel::with_threads(4, || {
            let input = EaInput::new(&ds.pair, &src, &tgt);
            resume_dir(&dir, &input).expect("resumed run")
        })
    };
    assert_bitwise_equal(&uninterrupted, &resumed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn completed_stages_are_not_recomputed_on_resume() {
    let _quiet = FaultPlan::default().activate();
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = cfg();
    let dir = run_dir("stages");

    let input = EaInput::new(&ds.pair, &src, &tgt);
    let first = run_checkpointed(&input, &cfg, &dir, CheckpointPolicy::PerStage)
        .expect("first run completes");
    assert_eq!(first.trace.counter("checkpoint", "stages_saved"), Some(3));
    assert_eq!(first.trace.counter("checkpoint", "stages_resumed"), None);

    // A second pass over the same directory restores all three stages.
    let input = EaInput::new(&ds.pair, &src, &tgt);
    let second = resume_dir(&dir, &input).expect("second run completes");
    assert_eq!(
        second.trace.counter("checkpoint", "stages_resumed"),
        Some(3)
    );
    assert_eq!(second.trace.counter("checkpoint", "stages_saved"), None);
    assert_bitwise_equal(&first, &second);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpointed_run_matches_plain_run_even_uninterrupted() {
    // Checkpointing itself must not perturb results.
    let _quiet = FaultPlan::default().activate();
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = cfg();
    let dir = run_dir("noop");

    let input = EaInput::new(&ds.pair, &src, &tgt);
    let plain = try_run(&input, &cfg).expect("plain run");
    let input = EaInput::new(&ds.pair, &src, &tgt);
    let checkpointed = run_checkpointed(&input, &cfg, &dir, CheckpointPolicy::EveryNEpochs(5))
        .expect("checkpointed run");
    assert_bitwise_equal(&plain, &checkpointed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resume_rejects_a_directory_from_another_config() {
    let _quiet = FaultPlan::default().activate();
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let dir = run_dir("mismatch");
    let base = cfg();
    Checkpointer::create(&dir, CheckpointPolicy::PerStage, &base).unwrap();
    let mut other = base;
    other.gcn.seed ^= 1;
    let input = EaInput::new(&ds.pair, &src, &tgt);
    let err = run_checkpointed(&input, &other, &dir, CheckpointPolicy::PerStage).unwrap_err();
    assert!(matches!(err, CeaffError::Checkpoint { .. }));
    std::fs::remove_dir_all(&dir).ok();
}

/// Flip one byte in the middle of a file — a minimal, realistic disk
/// corruption (bit rot, torn sector) that CRC verification must catch.
fn flip_middle_byte(path: &std::path::Path) {
    let mut bytes = std::fs::read(path).expect("read checkpoint file");
    assert!(!bytes.is_empty(), "cannot corrupt an empty file");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(path, bytes).expect("write corrupted file");
}

/// A run directory left by a mid-training crash under the every-N
/// policy: `gcn_train.ckpt` plus its manifest entry are on disk.
fn crashed_gcn_run_dir(
    tag: &str,
    ds: &GeneratedDataset,
    src: &ceaff_embed::SubwordEmbedder,
    tgt: &ceaff_embed::LexiconEmbedder,
) -> PathBuf {
    let dir = run_dir(tag);
    let _scope = FaultPlan {
        fail_train_at_epoch: Some(17),
        ..FaultPlan::default()
    }
    .activate();
    let input = EaInput::new(&ds.pair, src, tgt);
    let crashed = run_checkpointed(&input, &cfg(), &dir, CheckpointPolicy::EveryNEpochs(5));
    assert!(crashed.is_err(), "the injected crash must abort the run");
    assert!(dir.join("gcn_train.ckpt").exists());
    dir
}

/// A run directory from a *completed* per-stage run: all three stage
/// artifacts plus the manifest.
fn completed_stage_run_dir(
    tag: &str,
    ds: &GeneratedDataset,
    src: &ceaff_embed::SubwordEmbedder,
    tgt: &ceaff_embed::LexiconEmbedder,
) -> PathBuf {
    let dir = run_dir(tag);
    let _quiet = FaultPlan::default().activate();
    let input = EaInput::new(&ds.pair, src, tgt);
    run_checkpointed(&input, &cfg(), &dir, CheckpointPolicy::PerStage)
        .expect("per-stage run completes");
    assert!(dir.join("stage_semantic.bin").exists());
    dir
}

/// One flipped byte in an artifact payload must surface as a typed
/// [`CeaffError::Checkpoint`] naming the damaged file — never a panic,
/// and never a silently-wrong resume.
#[test]
fn corrupted_artifact_payload_is_rejected_with_a_typed_error() {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);

    // GCN training-state kind. The quiet scope must end before the next
    // helper activates its own plan — the global scope lock is held for
    // a guard's whole lifetime and is not reentrant.
    let dir = crashed_gcn_run_dir("corrupt-train", &ds, &src, &tgt);
    flip_middle_byte(&dir.join("gcn_train.ckpt"));
    {
        let _quiet = FaultPlan::default().activate();
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let err = resume_dir(&dir, &input).expect_err("corrupt training state must be rejected");
        match &err {
            CeaffError::Checkpoint { file, .. } => assert_eq!(file, "gcn_train.ckpt"),
            other => panic!("expected a typed checkpoint error, got {other:?}"),
        }
    }
    std::fs::remove_dir_all(&dir).ok();

    // Per-stage kind.
    let dir = completed_stage_run_dir("corrupt-stage", &ds, &src, &tgt);
    flip_middle_byte(&dir.join("stage_semantic.bin"));
    let _quiet = FaultPlan::default().activate();
    let input = EaInput::new(&ds.pair, &src, &tgt);
    let err = resume_dir(&dir, &input).expect_err("corrupt stage artifact must be rejected");
    match &err {
        CeaffError::Checkpoint { file, .. } => assert_eq!(file, "stage_semantic.bin"),
        other => panic!("expected a typed checkpoint error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// One flipped byte in `manifest.json` must likewise fail typed — for
/// both checkpoint kinds — whether the flip breaks the JSON, a recorded
/// CRC, or a field name.
#[test]
fn corrupted_manifest_is_rejected_with_a_typed_error() {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);

    for (dir, kind) in [
        (
            crashed_gcn_run_dir("manifest-train", &ds, &src, &tgt),
            "every-N",
        ),
        (
            completed_stage_run_dir("manifest-stage", &ds, &src, &tgt),
            "per-stage",
        ),
    ] {
        flip_middle_byte(&dir.join("manifest.json"));
        let _quiet = FaultPlan::default().activate();
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let err = resume_dir(&dir, &input)
            .map(|_| ())
            .expect_err("corrupt manifest must be rejected");
        assert!(
            matches!(err, CeaffError::Checkpoint { .. }),
            "{kind}: expected a typed checkpoint error, got {err:?}"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The blocked strategy: the same trained GCN, but every feature keeps
/// only its 8 best of ~100 candidate targets per row.
fn blocked_cfg() -> CeaffConfig {
    cfg().with_blocking(8)
}

/// [`assert_bitwise_equal`] for blocked runs: the fused top-k stores hold
/// the same cells with the same bits.
fn assert_blocked_bitwise_equal(a: &CeaffOutput, b: &CeaffOutput) {
    let sa = a
        .fused
        .as_sparse()
        .expect("a blocked run fuses a sparse store");
    let sb = b
        .fused
        .as_sparse()
        .expect("a blocked run fuses a sparse store");
    assert_eq!(
        (sa.sources(), sa.targets(), sa.k()),
        (sb.sources(), sb.targets(), sb.k())
    );
    assert!(
        sa.nnz() < sa.sources() * sa.targets(),
        "the stores must be truncated"
    );
    for i in 0..sa.sources() {
        let ((ca, va), (cb, vb)) = (sa.row_entries(i), sb.row_entries(i));
        assert_eq!(ca, cb, "fused row {i} columns diverge");
        for (x, y) in va.iter().zip(vb) {
            assert_eq!(x.to_bits(), y.to_bits(), "fused row {i} scores diverge");
        }
    }
    assert_eq!(a.matching.pairs(), b.matching.pairs());
    assert_eq!(a.accuracy.to_bits(), b.accuracy.to_bits());
    assert_eq!(a.ranking.hits1.to_bits(), b.ranking.hits1.to_bits());
    assert_eq!(a.ranking.hits10.to_bits(), b.ranking.hits10.to_bits());
    assert_eq!(a.ranking.mrr.to_bits(), b.ranking.mrr.to_bits());
}

#[test]
fn blocked_runs_resume_bitwise_mid_training_and_from_completed_stages() {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let cfg = blocked_cfg();
    let uninterrupted = {
        let _quiet = FaultPlan::default().activate();
        let input = EaInput::new(&ds.pair, &src, &tgt);
        try_run(&input, &cfg).expect("uninterrupted blocked run")
    };

    // A crash mid-training at one thread, resumed at four.
    let dir = run_dir("blocked-crash");
    {
        let _scope = FaultPlan {
            fail_train_at_epoch: Some(17),
            ..FaultPlan::default()
        }
        .activate();
        let crashed = ceaff_parallel::with_threads(1, || {
            let input = EaInput::new(&ds.pair, &src, &tgt);
            run_checkpointed(&input, &cfg, &dir, CheckpointPolicy::EveryNEpochs(5))
        });
        assert!(crashed.is_err(), "the injected crash must abort the run");
        assert!(dir.join("gcn_train.ckpt").exists());
    }
    let resumed = {
        let _quiet = FaultPlan::default().activate();
        ceaff_parallel::with_threads(4, || {
            let input = EaInput::new(&ds.pair, &src, &tgt);
            resume_dir(&dir, &input).expect("resumed blocked run")
        })
    };
    assert_eq!(resumed.trace.counter("checkpoint", "stages_saved"), Some(3));
    assert_blocked_bitwise_equal(&uninterrupted, &resumed);
    std::fs::remove_dir_all(&dir).ok();

    // A completed per-stage run, resumed: all three sparse stages are
    // restored, none recomputed.
    let _quiet = FaultPlan::default().activate();
    let dir = run_dir("blocked-stages");
    let input = EaInput::new(&ds.pair, &src, &tgt);
    let first = run_checkpointed(&input, &cfg, &dir, CheckpointPolicy::PerStage)
        .expect("first blocked run completes");
    assert_eq!(first.trace.counter("checkpoint", "stages_saved"), Some(3));
    let input = EaInput::new(&ds.pair, &src, &tgt);
    let second = resume_dir(&dir, &input).expect("second blocked run completes");
    assert_eq!(
        second.trace.counter("checkpoint", "stages_resumed"),
        Some(3)
    );
    assert_eq!(second.trace.counter("checkpoint", "stages_saved"), None);
    assert_blocked_bitwise_equal(&uninterrupted, &first);
    assert_blocked_bitwise_equal(&uninterrupted, &second);
    std::fs::remove_dir_all(&dir).ok();
}
