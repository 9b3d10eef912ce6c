#![warn(missing_docs)]

//! # ceaff — Collective Entity Alignment via Adaptive Features
//!
//! A from-scratch Rust reproduction of *Collective Embedding-based Entity
//! Alignment via Adaptive Features* (Zeng, Zhao, Tang, Lin — ICDE 2020,
//! arXiv:1912.08404), including every substrate the paper depends on and
//! the baselines it is evaluated against.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`graph`] — knowledge-graph substrate (triples, adjacency, sparse
//!   matrices, statistics, TSV I/O);
//! * [`tensor`] — dense matrix kernels, reverse-mode autograd, optimizers;
//! * [`embed`] — hashed-subword word embeddings and the synthetic
//!   bilingual lexicon (fastText / MUSE substitutes);
//! * [`sim`] — similarity matrices, cosine, Levenshtein distance/ratio;
//! * [`datagen`] — synthetic benchmarks mirroring DBP15K / DBP100K / SRPRS;
//! * [`prelude`] and the re-exported core items — the CEAFF pipeline
//!   itself (features, adaptive fusion, stable-matching collective EA),
//!   one path through [`run`] whose [`RunOptions`] carry the execution
//!   budget and the optional checkpointer ([`try_run`] is `run` with the
//!   defaults);
//! * [`baselines`] — MTransE, IPTransE, BootEA, RSN-lite, MuGNN-lite,
//!   NAEA-lite, JAPE, GCN-Align, RDGCN-lite, GM-Align-lite, MultiKE-lite.
//!
//! ## Quick start
//!
//! ```
//! use ceaff::prelude::*;
//!
//! // A scaled-down simulation of the paper's DBP15K FR-EN benchmark.
//! let task = DatasetTask::from_preset(Preset::Dbp15kFrEn, 0.05, 32);
//! let mut cfg = CeaffConfig::default();
//! cfg.gcn.dim = 16;
//! cfg.gcn.epochs = 20;
//! let out = ceaff::try_run(&task.input(), &cfg).expect("pipeline runs");
//! println!("accuracy = {:.3}", out.accuracy);
//! assert!(out.accuracy > 0.0);
//! // Per-stage wall-clock timings ride along on every output.
//! assert!(out.trace.stage_seconds("matcher").is_some());
//! ```

pub use ceaff_core::*;

/// Knowledge-graph substrate ([`ceaff_graph`]).
pub mod graph {
    pub use ceaff_graph::*;
}

/// Numeric substrate ([`ceaff_tensor`]).
pub mod tensor {
    pub use ceaff_tensor::*;
}

/// Word-embedding substrate ([`ceaff_embed`]).
pub mod embed {
    pub use ceaff_embed::*;
}

/// Similarity machinery ([`ceaff_sim`]).
pub mod sim {
    pub use ceaff_sim::*;
}

/// Synthetic benchmark generation ([`ceaff_datagen`]).
pub mod datagen {
    pub use ceaff_datagen::*;
}

/// Baseline EA methods ([`ceaff_baselines`]).
pub mod baselines {
    pub use ceaff_baselines::*;
}

/// Telemetry layer ([`ceaff_telemetry`]): spans, counters, gauges, sinks.
pub mod telemetry {
    pub use ceaff_telemetry::*;
}

/// One-stop imports for applications.
pub mod prelude {
    pub use crate::task::DatasetTask;
    pub use ceaff_core::{
        run, run_decision_budgeted, try_run, try_run_with_features, AnytimeOutcome, CancelToken,
        CandidateStrategy, CeaffConfig, CeaffError, CeaffOutput, DecisionOutput, Degradation,
        EaInput, ExecBudget, FeatureSet, FusionConfig, GcnConfig, MatcherKind, RunOptions,
        RunTrace, StopReason, Telemetry, WeightingMode,
    };
    pub use ceaff_datagen::{GenConfig, GeneratedDataset, NameChannel, Preset};
    pub use ceaff_sim::{BlockingConfig, SimStore, SparseTopK};
}

pub mod task {
    //! Glue between generated datasets and the pipeline/baseline inputs.

    use ceaff_baselines::BaselineInput;
    use ceaff_core::EaInput;
    use ceaff_datagen::{GeneratedDataset, Preset};
    use ceaff_embed::{LexiconEmbedder, SubwordEmbedder};

    /// A generated dataset bundled with the embedders its semantic feature
    /// needs, owning everything so inputs can be borrowed repeatedly.
    pub struct DatasetTask {
        /// The generated benchmark.
        pub dataset: GeneratedDataset,
        source_embedder: SubwordEmbedder,
        target_embedder: LexiconEmbedder,
    }

    impl DatasetTask {
        /// Wrap an already-generated dataset; `embed_dim` sizes the word
        /// vectors.
        pub fn new(dataset: GeneratedDataset, embed_dim: usize) -> Self {
            let source_embedder = dataset.source_embedder(embed_dim);
            let target_embedder = dataset.target_embedder(embed_dim);
            Self {
                dataset,
                source_embedder,
                target_embedder,
            }
        }

        /// Generate a preset at `scale` and wrap it.
        pub fn from_preset(preset: Preset, scale: f64, embed_dim: usize) -> Self {
            Self::new(preset.generate(scale), embed_dim)
        }

        /// Borrow as a CEAFF pipeline input (telemetry disabled; chain
        /// [`EaInput::with_telemetry`] to attach a handle).
        pub fn input(&self) -> EaInput<'_> {
            EaInput::new(
                &self.dataset.pair,
                &self.source_embedder,
                &self.target_embedder,
            )
        }

        /// Borrow as a baseline-method input (attributes included).
        pub fn baseline_input(&self) -> BaselineInput<'_> {
            BaselineInput {
                pair: &self.dataset.pair,
                source_embedder: &self.source_embedder,
                target_embedder: &self.target_embedder,
                source_attributes: Some(&self.dataset.source_attributes),
                target_attributes: Some(&self.dataset.target_attributes),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_task_builds_both_input_kinds() {
        let task = DatasetTask::from_preset(Preset::SrprsDbpWd, 0.05, 16);
        let input = task.input();
        assert!(!input.pair.test_pairs().is_empty());
        let binput = task.baseline_input();
        assert!(binput.source_attributes.is_some());
    }
}
