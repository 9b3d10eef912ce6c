//! Fault-injection coverage of the recovery paths: corrupted and
//! truncated checkpoints surface as typed errors with nothing partially
//! loaded; forced non-finite losses trigger rollback + learning-rate
//! halving (visible as `numeric_recovery` telemetry); unrecoverable
//! divergence becomes [`CeaffError::NumericDivergence`]; injected I/O
//! errors fail checkpoint writes cleanly.

use ceaff_core::checkpoint::{
    CheckpointPolicy, Checkpointer, STAGE_STRING, STAGE_STRUCTURAL, TRAIN_FILE,
};
use ceaff_core::gcn::{self, GcnConfig, MAX_NUMERIC_RETRIES};
use ceaff_core::pipeline::{run, CeaffConfig, CeaffOutput, EaInput, RunOptions};
use ceaff_core::{CeaffError, InMemorySink, Telemetry};
use ceaff_datagen::{GenConfig, GeneratedDataset, NameChannel};
use ceaff_faultinject::FaultPlan;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn dataset() -> GeneratedDataset {
    ceaff_datagen::generate(&GenConfig {
        aligned_entities: 100,
        extra_frac: 0.0,
        avg_degree: 6.0,
        overlap: 0.85,
        channel: NameChannel::Identical { typo_rate: 0.02 },
        vocab_size: 300,
        ..GenConfig::default()
    })
}

fn cfg() -> CeaffConfig {
    CeaffConfig {
        gcn: GcnConfig {
            dim: 16,
            epochs: 25,
            ..GcnConfig::default()
        },
        embed_dim: 16,
        ..CeaffConfig::default()
    }
}

fn run_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ceaff-fi-core-{tag}-{}-{:?}",
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

/// Run to completion, corrupt one stage artifact, and verify the resume
/// fails with a checksum error instead of loading garbage.
#[test]
fn corrupted_stage_checkpoint_is_a_checksum_error() {
    let _quiet = FaultPlan::default().activate();
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let dir = run_dir("corrupt");
    let input = EaInput::new(&ds.pair, &src, &tgt);
    run_checkpointed(&input, &cfg(), &dir, CheckpointPolicy::PerStage).expect("first run");

    ceaff_faultinject::flip_byte(dir.join(STAGE_STRUCTURAL), 100).unwrap();
    let input = EaInput::new(&ds.pair, &src, &tgt);
    match resume_dir(&dir, &input) {
        Err(CeaffError::Checkpoint { file, reason }) => {
            assert_eq!(file, STAGE_STRUCTURAL);
            assert!(reason.contains("crc32"), "{reason}");
        }
        other => panic!("expected a checksum error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_stage_checkpoint_is_a_typed_error() {
    let _quiet = FaultPlan::default().activate();
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let dir = run_dir("truncate");
    let input = EaInput::new(&ds.pair, &src, &tgt);
    run_checkpointed(&input, &cfg(), &dir, CheckpointPolicy::PerStage).expect("first run");

    ceaff_faultinject::truncate_file(dir.join(STAGE_STRING), 16).unwrap();
    let input = EaInput::new(&ds.pair, &src, &tgt);
    match resume_dir(&dir, &input) {
        Err(CeaffError::Checkpoint { file, reason }) => {
            assert_eq!(file, STAGE_STRING);
            assert!(reason.contains("truncated"), "{reason}");
        }
        other => panic!("expected a truncation error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_train_checkpoint_fails_before_anything_loads() {
    // Crash mid-training to leave a train-state artifact behind, then
    // truncate it: the resume must fail with a typed error (the manifest
    // still lists the full length), not resume from partial state.
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let dir = run_dir("train-trunc");
    let crashed = {
        let _scope = FaultPlan {
            fail_train_at_epoch: Some(12),
            ..FaultPlan::default()
        }
        .activate();
        let input = EaInput::new(&ds.pair, &src, &tgt);
        run_checkpointed(&input, &cfg(), &dir, CheckpointPolicy::EveryNEpochs(5))
    };
    assert!(crashed.is_err());
    assert!(
        dir.join(TRAIN_FILE).exists(),
        "training checkpoint expected"
    );

    ceaff_faultinject::truncate_file(dir.join(TRAIN_FILE), 32).unwrap();
    let _quiet = FaultPlan::default().activate();
    let input = EaInput::new(&ds.pair, &src, &tgt);
    match resume_dir(&dir, &input) {
        Err(CeaffError::Checkpoint { file, reason }) => {
            assert_eq!(file, TRAIN_FILE);
            assert!(reason.contains("truncated"), "{reason}");
        }
        other => panic!("expected a truncation error, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn forced_nan_triggers_rollback_lr_halving_and_telemetry() {
    let ds = dataset();
    let gcn_cfg = GcnConfig {
        dim: 16,
        epochs: 25,
        ..GcnConfig::default()
    };
    let sink = Arc::new(InMemorySink::default());
    let telemetry = Telemetry::with_sink(sink);

    let _scope = FaultPlan {
        nan_loss_at_epoch: Some(13),
        ..FaultPlan::default()
    }
    .activate();
    let enc = gcn::try_train_traced(&ds.pair, &gcn_cfg, &telemetry, None)
        .expect("one NaN epoch must be recoverable");
    // Training completed with a full healthy loss curve.
    assert_eq!(enc.loss_curve.len(), gcn_cfg.epochs);
    assert!(enc.loss_curve.iter().all(|l| l.is_finite()));
    let trace = telemetry.take_trace();
    assert_eq!(
        trace.counter("gcn", "numeric_recovery"),
        Some(1),
        "exactly one recovery event"
    );
}

#[test]
fn persistent_nan_exhausts_retries_into_numeric_divergence() {
    let ds = dataset();
    let gcn_cfg = GcnConfig {
        dim: 16,
        epochs: 25,
        ..GcnConfig::default()
    };
    let sink = Arc::new(InMemorySink::default());
    let telemetry = Telemetry::with_sink(sink);

    let _scope = FaultPlan {
        nan_loss_always: true,
        ..FaultPlan::default()
    }
    .activate();
    match gcn::try_train_traced(&ds.pair, &gcn_cfg, &telemetry, None) {
        Err(CeaffError::NumericDivergence {
            stage,
            epoch,
            retries,
        }) => {
            assert_eq!(stage, "gcn");
            assert_eq!(epoch, 0, "permanent NaN pins the loop to epoch 0");
            assert_eq!(retries, MAX_NUMERIC_RETRIES);
        }
        other => panic!("expected NumericDivergence, got {other:?}"),
    }
    let trace = telemetry.take_trace();
    assert_eq!(
        trace.counter("gcn", "numeric_recovery"),
        Some(MAX_NUMERIC_RETRIES as u64 + 1),
        "every retry plus the final failure is counted"
    );
}

#[test]
fn nan_recovery_also_works_inside_the_checkpointed_pipeline() {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let dir = run_dir("nan-pipeline");
    let _scope = FaultPlan {
        nan_loss_at_epoch: Some(8),
        ..FaultPlan::default()
    }
    .activate();
    let input = EaInput::new(&ds.pair, &src, &tgt);
    let out = run_checkpointed(&input, &cfg(), &dir, CheckpointPolicy::EveryNEpochs(5))
        .expect("recovers and completes");
    assert_eq!(out.trace.counter("gcn", "numeric_recovery"), Some(1));
    assert!(out.accuracy > 0.0);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_io_error_fails_checkpoint_saves_cleanly() {
    let ds = dataset();
    let src = ds.source_embedder(16);
    let tgt = ds.target_embedder(16);
    let dir = run_dir("io");
    let _scope = FaultPlan {
        io_error_substring: Some(STAGE_STRUCTURAL.into()),
        ..FaultPlan::default()
    }
    .activate();
    let input = EaInput::new(&ds.pair, &src, &tgt);
    match run_checkpointed(&input, &cfg(), &dir, CheckpointPolicy::PerStage) {
        Err(CeaffError::Checkpoint { file, reason }) => {
            assert_eq!(file, STAGE_STRUCTURAL);
            assert!(reason.contains("injected"), "{reason}");
        }
        other => panic!("expected an injected I/O failure, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).ok();
}
