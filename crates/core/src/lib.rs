#![warn(missing_docs)]

//! # ceaff-core
//!
//! The primary contribution of *Collective Embedding-based Entity Alignment
//! via Adaptive Features* (Zeng et al., ICDE 2020), implemented in full:
//!
//! * **Feature generation** (§IV, [`features`]): a 2-layer shared-weight
//!   GCN trained with a margin-based ranking loss for the structural
//!   feature ([`gcn`]), averaged word-embedding name representations for
//!   the semantic feature, and the Levenshtein-ratio string feature;
//! * **Adaptive feature fusion** (§V, [`fusion`]): training-free dynamic
//!   feature weighting from confident correspondences, with the θ1/θ2 cap
//!   and the two-stage composition (semantic+string → textual, then
//!   structural+textual → fused);
//! * **Collective EA** (§VI, [`matching`]): EA as the stable matching
//!   problem solved by deferred acceptance, plus the Hungarian-algorithm
//!   alternative discussed in the paper and the independent greedy
//!   baseline;
//! * the **logistic-regression weighting baseline** (§VII-E, [`lr`]), the
//!   paper's evaluation metrics ([`eval`]), and an end-to-end
//!   [`pipeline`] with a switch for every Table V ablation.
//!
//! The pipeline has one path, [`run`]: features, then fusion and
//! matching. Its [`RunOptions`] pick the execution budget ([`budget`]) and
//! whether stages are checkpointed ([`checkpoint`]); the defaults — an
//! unlimited budget, no checkpointer — are no-ops, which is what
//! [`try_run`] passes.
//!
//! ## Quick start
//!
//! ```
//! use ceaff_core::pipeline::{try_run, CeaffConfig, EaInput};
//! use ceaff_core::gcn::GcnConfig;
//! use ceaff_datagen::Preset;
//!
//! // A scaled-down DBP15K-FR-EN-like benchmark.
//! let ds = Preset::Dbp15kFrEn.generate(0.05);
//! let src = ds.source_embedder(32);
//! let tgt = ds.target_embedder(32);
//! let input = EaInput::new(&ds.pair, &src, &tgt);
//! let cfg = CeaffConfig::builder()
//!     .gcn(GcnConfig { dim: 16, epochs: 20, ..GcnConfig::default() })
//!     .embed_dim(32)
//!     .build()
//!     .expect("valid configuration");
//! let out = try_run(&input, &cfg).expect("pipeline runs");
//! assert!(out.accuracy > 0.0);
//! // Every run carries a trace of per-stage wall-clock timings.
//! assert!(out.trace.stage_seconds("gcn").is_some());
//! ```

pub mod bootstrap;
pub mod budget;
pub mod checkpoint;
pub mod delta;
pub mod error;
pub mod eval;
pub mod features;
pub mod fusion;
pub mod gcn;
pub mod lr;
pub mod matching;
pub mod pipeline;
pub mod propagation;
pub mod snapshot;

pub use bootstrap::{try_run_bootstrapped, BootstrapConfig, BootstrapOutput};
pub use budget::{BudgetScope, CancelToken, ExecBudget, StopReason};
pub use ceaff_telemetry::{
    Degradation, EventKind, InMemorySink, JsonLinesSink, NullSink, RunTrace, Sink, Telemetry,
    TraceEvent,
};
pub use checkpoint::{CheckpointPolicy, Checkpointer};
pub use delta::{AlignmentDiff, DeltaState};
pub use error::CeaffError;
pub use eval::{
    accuracy, hits_at_k, hits_at_k_store, mrr, mrr_store, precision_recall, ranking_metrics,
    ranking_metrics_store, PrecisionRecall, RankingMetrics,
};
pub use features::{AttributeFeature, Feature, SemanticFeature, StringFeature, StructuralFeature};
pub use fusion::{
    adaptive_fuse, adaptive_fuse_store, adaptive_weights, adaptive_weights_store,
    confident_correspondences, confident_correspondences_store, fuse, fuse_store, two_stage_fuse,
    two_stage_fuse_store, Candidate, FusionConfig, FusionReport,
};
pub use gcn::{
    try_train_budgeted, try_train_traced, Activation, GcnConfig, GcnEncoder, OptimKind,
    MAX_NUMERIC_RETRIES,
};
pub use lr::{learn_weights, LearnedWeights, LrConfig};
pub use matching::{
    AnytimeOutcome, Greedy, GreedyOneToOne, Hungarian, Matcher, MatcherKind, Matching,
    StableMarriage,
};
pub use pipeline::{
    run, run_decision_budgeted, try_run, try_run_with_features, CandidateStrategy, CeaffConfig,
    CeaffConfigBuilder, CeaffOutput, DecisionOutput, EaInput, FeatureSet, RunOptions,
    StructuralMode, WeightingMode,
};

#[cfg(test)]
mod doc_support {
    // Keeps `ceaff-datagen` linked for the crate-level doctest.
    #[allow(unused_imports)]
    use ceaff_datagen as _;
}
