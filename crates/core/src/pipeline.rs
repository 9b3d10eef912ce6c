//! The end-to-end CEAFF pipeline (paper Figure 2): feature generation →
//! adaptive feature fusion → collective EA — with a switch for every
//! ablation of Table V.
//!
//! There is one path through it. [`run`] computes the features
//! ([`FeatureSet::try_compute`]) and then fuses and matches them; how the
//! run executes — under which [`ExecBudget`], and whether its stages are
//! checkpointed — is a [`RunOptions`] value, not a separate entry point.
//! An unlimited budget and an absent checkpointer are no-ops inside that
//! path. [`try_run`] and [`try_run_with_features`] are that path with the
//! default options, the latter on precomputed features (how the ablation
//! harness avoids retraining the GCN per table row).
//!
//! Every entry point returns `Result<CeaffOutput, CeaffError>` and
//! threads a [`Telemetry`] handle through every stage; the produced
//! [`CeaffOutput::trace`] records stage timings, counters and (with an
//! active event stream) the full event sequence of the run.

use crate::budget::{ExecBudget, StopReason};
use crate::checkpoint::{self, Checkpointer};
use crate::error::CeaffError;
use crate::eval::{accuracy, ranking_metrics_store, RankingMetrics};
use crate::features::{Feature, SemanticFeature, StringFeature, StructuralFeature};

use crate::fusion::{
    adaptive_fuse_store, fuse_store, two_stage_fuse_store, FusionConfig, FusionReport,
};
use crate::gcn::{GcnConfig, GcnEncoder, OptimKind};
use crate::lr::{learn_weights, LrConfig};
use crate::matching::{MatcherKind, Matching};
use ceaff_embed::WordEmbedder;
use ceaff_graph::KgPair;
use ceaff_sim::{BlockingConfig, CandidateSet, SimStore, SimilarityMatrix};
use ceaff_telemetry::{Degradation, RunTrace, Telemetry};
use ceaff_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::sync::LazyLock;

/// How candidate target entities are generated for each test source
/// (tentpole of the sub-quadratic redesign).
#[derive(Debug, Clone, Serialize, Default, PartialEq)]
pub enum CandidateStrategy {
    /// Score every source against every target — the paper's exact
    /// pipeline. Feature stores are dense; golden metrics are computed on
    /// this path.
    #[default]
    Dense,
    /// Generate candidates by name-trigram blocking
    /// ([`ceaff_sim::build_candidates`]) and score only those pairs.
    /// Feature stores are sparse top-k ([`ceaff_sim::SparseTopK`]); memory
    /// and similarity-stage time drop from `O(n·t)` to `O(n·k)`.
    Blocked {
        /// Per-row candidate cap kept in each sparse store.
        k: usize,
        /// Blocking-stage tuning (trigram band width etc.).
        blocking: BlockingConfig,
    },
}

impl CandidateStrategy {
    /// `true` for [`CandidateStrategy::Dense`].
    pub fn is_dense(&self) -> bool {
        matches!(self, CandidateStrategy::Dense)
    }
}

// Hand-written so configs serialized before the `candidates` field existed
// keep loading: the serde shim resolves a missing field to `Value::Null`,
// which must mean "the default" (Dense) — the `#[serde(default)]`
// semantics the shim's derive does not implement itself.
impl Deserialize for CandidateStrategy {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Null => Ok(CandidateStrategy::Dense),
            serde::Value::String(s) if s == "Dense" => Ok(CandidateStrategy::Dense),
            _ => match v.get("Blocked").map(|p| p.as_object()) {
                Some(Some(fields)) => Ok(CandidateStrategy::Blocked {
                    k: serde::de::field(fields, "k")?,
                    blocking: serde::de::field(fields, "blocking")?,
                }),
                _ => Err(serde::Error::custom(
                    "expected \"Dense\" or {\"Blocked\": {..}} for CandidateStrategy",
                )),
            },
        }
    }
}

/// How the structural feature `Ms` is encoded.
#[derive(Debug, Clone, Copy, Serialize, Default, PartialEq)]
pub enum StructuralMode {
    /// The paper's GCN, trained on the seed alignment with a margin
    /// ranking loss. Highest quality, but every epoch couples all
    /// entities through the shared weights — a single edge edit
    /// invalidates the whole embedding table, so this mode cannot be
    /// updated incrementally.
    #[default]
    Trained,
    /// Training-free neighbourhood propagation
    /// ([`crate::propagation`]): deterministic name-seeded layer 0,
    /// then `layers` rounds of symmetrically-normalised mean
    /// propagation. Entity `i`'s vector depends only on its
    /// `layers`-hop neighbourhood, which is what lets
    /// [`crate::delta::DeltaState`] recompute just the dirty region.
    Propagation {
        /// Number of propagation rounds (≥ 1); the effective receptive
        /// field of each entity is its `layers`-hop neighbourhood.
        layers: usize,
    },
}

// Hand-written for the same reason as `CandidateStrategy`: configs
// serialized before the `structural` field existed resolve the missing
// field to `Value::Null`, which must deserialize to the default
// (Trained).
impl Deserialize for StructuralMode {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        match v {
            serde::Value::Null => Ok(StructuralMode::Trained),
            serde::Value::String(s) if s == "Trained" => Ok(StructuralMode::Trained),
            _ => match v.get("Propagation").map(|p| p.as_object()) {
                Some(Some(fields)) => Ok(StructuralMode::Propagation {
                    layers: serde::de::field(fields, "layers")?,
                }),
                _ => Err(serde::Error::custom(
                    "expected \"Trained\" or {\"Propagation\": {..}} for StructuralMode",
                )),
            },
        }
    }
}

/// How feature matrices are weighted before matching.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub enum WeightingMode {
    /// The paper's adaptive feature fusion, composed two-stage
    /// (`Mn + Ml → Mt`, then `Ms + Mt → M`).
    Adaptive,
    /// Fixed equal weights ("w/o AFF" in Table V).
    Equal,
    /// Logistic-regression-learned weights (the "LR" baseline of §VII-E).
    LogisticRegression(LrConfig),
}

/// Full pipeline configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CeaffConfig {
    /// GCN training configuration for the structural feature.
    pub gcn: GcnConfig,
    /// Word-embedding dimensionality for the semantic feature.
    pub embed_dim: usize,
    /// Adaptive fusion thresholds (θ1, θ2 and the cap switch).
    pub fusion: FusionConfig,
    /// Include the structural feature `Ms` (`false` = "w/o Ms").
    pub use_structural: bool,
    /// Include the semantic feature `Mn` (`false` = "w/o Mn").
    pub use_semantic: bool,
    /// Include the string feature `Ml` (`false` = "w/o Ml").
    pub use_string: bool,
    /// Weighting strategy.
    pub weighting: WeightingMode,
    /// Decision strategy (`Greedy` = "w/o C").
    pub matcher: MatcherKind,
    /// Min–max rescale each feature matrix to `[0, 1]` before fusion so
    /// features on different score scales (cosine vs ratio) are comparable.
    pub normalize_features: bool,
    /// Apply CSLS hubness correction (`Some(k)` = neighbourhood size) to
    /// each feature matrix before fusion — an extension beyond the paper
    /// attacking the many-sources-one-target pathology at similarity level
    /// rather than (only) at decision level.
    pub csls: Option<usize>,
    /// Candidate-generation strategy: dense all-pairs scoring (the paper's
    /// exact pipeline, and the default) or blocking into sparse top-k
    /// stores for sub-quadratic memory and similarity time. Defaults to
    /// [`CandidateStrategy::Dense`] when absent from serialized configs.
    #[serde(default)]
    pub candidates: CandidateStrategy,
    /// Structural encoder: the paper's trained GCN (the default) or
    /// training-free neighbourhood propagation, the mode required by the
    /// incremental delta pipeline. Defaults to
    /// [`StructuralMode::Trained`] when absent from serialized configs.
    #[serde(default)]
    pub structural: StructuralMode,
}

impl Default for CeaffConfig {
    fn default() -> Self {
        Self {
            gcn: GcnConfig::default(),
            embed_dim: 64,
            fusion: FusionConfig::default(),
            use_structural: true,
            use_semantic: true,
            use_string: true,
            weighting: WeightingMode::Adaptive,
            matcher: MatcherKind::StableMarriage,
            normalize_features: true,
            csls: None,
            candidates: CandidateStrategy::Dense,
            structural: StructuralMode::Trained,
        }
    }
}

impl CeaffConfig {
    /// Start a [`CeaffConfigBuilder`] from the default configuration.
    pub fn builder() -> CeaffConfigBuilder {
        CeaffConfigBuilder::default()
    }

    /// Check every field for values the pipeline cannot run with.
    ///
    /// Called by the fallible entry points before any work happens, so a
    /// bad configuration fails fast with [`CeaffError::InvalidConfig`]
    /// instead of panicking mid-run.
    pub fn validate(&self) -> Result<(), CeaffError> {
        if self.gcn.dim == 0 {
            return Err(CeaffError::InvalidConfig("gcn.dim must be positive".into()));
        }
        if self.gcn.negatives == 0 {
            return Err(CeaffError::InvalidConfig(
                "gcn.negatives must be positive".into(),
            ));
        }
        if self.gcn.epochs == 0 {
            return Err(CeaffError::InvalidConfig(
                "gcn.epochs must be positive".into(),
            ));
        }
        let lr = match self.gcn.optimizer {
            OptimKind::Sgd { lr } | OptimKind::Adam { lr } => lr,
        };
        if !lr.is_finite() || lr <= 0.0 {
            return Err(CeaffError::InvalidConfig(
                "gcn optimizer learning rate must be finite and positive".into(),
            ));
        }
        if !self.gcn.margin.is_finite() || self.gcn.margin <= 0.0 {
            return Err(CeaffError::InvalidConfig(
                "gcn.margin must be finite and positive".into(),
            ));
        }
        if !self.gcn.validation_fraction.is_finite()
            || self.gcn.validation_fraction < 0.0
            || self.gcn.validation_fraction >= 1.0
        {
            return Err(CeaffError::InvalidConfig(
                "gcn.validation_fraction must be finite and in [0, 1)".into(),
            ));
        }
        if self.gcn.validate_every == 0 {
            return Err(CeaffError::InvalidConfig(
                "gcn.validate_every must be positive".into(),
            ));
        }
        if self.gcn.hard_negative_pool > 0 && self.gcn.hard_negative_refresh == 0 {
            return Err(CeaffError::InvalidConfig(
                "gcn.hard_negative_refresh must be positive when hard negatives are enabled".into(),
            ));
        }
        if self.embed_dim == 0 {
            return Err(CeaffError::InvalidConfig(
                "embed_dim must be positive".into(),
            ));
        }
        if let WeightingMode::LogisticRegression(lr_cfg) = &self.weighting {
            if lr_cfg.epochs == 0 {
                return Err(CeaffError::InvalidConfig(
                    "lr weighting epochs must be positive".into(),
                ));
            }
            if lr_cfg.negatives_per_positive == 0 {
                return Err(CeaffError::InvalidConfig(
                    "lr weighting negatives_per_positive must be positive".into(),
                ));
            }
            if !lr_cfg.lr.is_finite() || lr_cfg.lr <= 0.0 {
                return Err(CeaffError::InvalidConfig(
                    "lr weighting learning rate must be finite and positive".into(),
                ));
            }
        }
        if !self.fusion.theta1.is_finite() || !self.fusion.theta2.is_finite() {
            return Err(CeaffError::InvalidConfig(
                "fusion thresholds must be finite".into(),
            ));
        }
        if self.fusion.theta2 < 0.0 {
            return Err(CeaffError::InvalidConfig(
                "fusion.theta2 must be non-negative".into(),
            ));
        }
        if self.csls == Some(0) {
            return Err(CeaffError::InvalidConfig(
                "csls neighbourhood size must be at least 1".into(),
            ));
        }
        if let CandidateStrategy::Blocked { k, blocking } = &self.candidates {
            if *k == 0 {
                return Err(CeaffError::InvalidConfig(
                    "candidates.k must be at least 1".into(),
                ));
            }
            if blocking.min_shared_keys == 0 {
                return Err(CeaffError::InvalidConfig(
                    "candidates.blocking.min_shared_keys must be at least 1".into(),
                ));
            }
            if !blocking.index_tokens && !blocking.index_trigrams {
                return Err(CeaffError::InvalidConfig(
                    "candidates.blocking must index tokens, trigrams, or both".into(),
                ));
            }
        }
        if let StructuralMode::Propagation { layers } = self.structural {
            if layers == 0 {
                return Err(CeaffError::InvalidConfig(
                    "structural propagation layers must be at least 1".into(),
                ));
            }
        }
        Ok(())
    }

    /// Builder-style: disable the structural feature.
    pub fn without_structural(mut self) -> Self {
        self.use_structural = false;
        self
    }

    /// Builder-style: disable the semantic feature.
    pub fn without_semantic(mut self) -> Self {
        self.use_semantic = false;
        self
    }

    /// Builder-style: disable the string feature.
    pub fn without_string(mut self) -> Self {
        self.use_string = false;
        self
    }

    /// Builder-style: equal weights instead of adaptive fusion ("w/o AFF").
    pub fn without_adaptive_fusion(mut self) -> Self {
        self.weighting = WeightingMode::Equal;
        self
    }

    /// Builder-style: independent greedy decisions ("w/o C").
    pub fn without_collective(mut self) -> Self {
        self.matcher = MatcherKind::Greedy;
        self
    }

    /// Builder-style: disable the θ1/θ2 cap ("w/o θ1, θ2").
    pub fn without_theta_cap(mut self) -> Self {
        self.fusion.cap_enabled = false;
        self
    }

    /// Builder-style: logistic-regression weighting (the "LR" variant).
    pub fn with_lr_weighting(mut self, lr: LrConfig) -> Self {
        self.weighting = WeightingMode::LogisticRegression(lr);
        self
    }

    /// Builder-style: enable CSLS hubness correction with neighbourhood
    /// size `k` (10 is the conventional choice).
    pub fn with_csls(mut self, k: usize) -> Self {
        self.csls = Some(k);
        self
    }

    /// Builder-style: blocked candidate generation with default blocking
    /// tuning and per-row cap `k`.
    pub fn with_blocking(mut self, k: usize) -> Self {
        self.candidates = CandidateStrategy::Blocked {
            k,
            blocking: BlockingConfig::default(),
        };
        self
    }

    /// Builder-style: training-free propagation structural encoding with
    /// the given number of layers (the mode the incremental delta
    /// pipeline requires).
    pub fn with_propagation(mut self, layers: usize) -> Self {
        self.structural = StructuralMode::Propagation { layers };
        self
    }
}

/// A complete builder over every [`CeaffConfig`] field.
///
/// [`CeaffConfigBuilder::build`] validates the result, so a configuration
/// obtained through the builder is guaranteed to pass
/// [`CeaffConfig::validate`].
///
/// ```
/// use ceaff_core::pipeline::CeaffConfig;
/// use ceaff_core::matching::MatcherKind;
///
/// let cfg = CeaffConfig::builder()
///     .embed_dim(32)
///     .matcher(MatcherKind::Hungarian)
///     .csls(10)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(cfg.embed_dim, 32);
/// assert_eq!(cfg.csls, Some(10));
/// ```
#[derive(Debug, Clone, Default)]
pub struct CeaffConfigBuilder {
    cfg: CeaffConfig,
}

impl CeaffConfigBuilder {
    /// GCN training configuration for the structural feature.
    pub fn gcn(mut self, gcn: GcnConfig) -> Self {
        self.cfg.gcn = gcn;
        self
    }

    /// Word-embedding dimensionality for the semantic feature.
    pub fn embed_dim(mut self, dim: usize) -> Self {
        self.cfg.embed_dim = dim;
        self
    }

    /// Adaptive fusion thresholds.
    pub fn fusion(mut self, fusion: FusionConfig) -> Self {
        self.cfg.fusion = fusion;
        self
    }

    /// Toggle the structural feature `Ms`.
    pub fn structural(mut self, on: bool) -> Self {
        self.cfg.use_structural = on;
        self
    }

    /// Toggle the semantic feature `Mn`.
    pub fn semantic(mut self, on: bool) -> Self {
        self.cfg.use_semantic = on;
        self
    }

    /// Toggle the string feature `Ml`.
    pub fn string(mut self, on: bool) -> Self {
        self.cfg.use_string = on;
        self
    }

    /// Feature weighting strategy.
    pub fn weighting(mut self, weighting: WeightingMode) -> Self {
        self.cfg.weighting = weighting;
        self
    }

    /// Decision strategy.
    pub fn matcher(mut self, matcher: MatcherKind) -> Self {
        self.cfg.matcher = matcher;
        self
    }

    /// Toggle per-feature min–max normalisation before fusion.
    pub fn normalize_features(mut self, on: bool) -> Self {
        self.cfg.normalize_features = on;
        self
    }

    /// Enable CSLS hubness correction with neighbourhood size `k`.
    pub fn csls(mut self, k: usize) -> Self {
        self.cfg.csls = Some(k);
        self
    }

    /// Candidate-generation strategy (dense all-pairs or blocked sparse
    /// top-k).
    pub fn candidate_strategy(mut self, candidates: CandidateStrategy) -> Self {
        self.cfg.candidates = candidates;
        self
    }

    /// Structural encoder mode (trained GCN or propagation).
    pub fn structural_mode(mut self, mode: StructuralMode) -> Self {
        self.cfg.structural = mode;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<CeaffConfig, CeaffError> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// One alignment problem plus the word embedders its semantic feature
/// should use (the cross-lingual shared space).
pub struct EaInput<'a> {
    /// The KG pair with its seed/test split.
    pub pair: &'a KgPair,
    /// Embedder for source-KG entity names.
    pub source_embedder: &'a dyn WordEmbedder,
    /// Embedder for target-KG entity names (same vector space).
    pub target_embedder: &'a dyn WordEmbedder,
    /// Telemetry receiving feature-computation and pipeline events; the
    /// default ([`Telemetry::disabled`]) records stage timings and counter
    /// totals but no event stream.
    pub telemetry: Telemetry,
}

impl<'a> EaInput<'a> {
    /// Bundle an alignment problem with its embedders (telemetry
    /// disabled; use [`EaInput::with_telemetry`] to attach a handle).
    pub fn new(
        pair: &'a KgPair,
        source_embedder: &'a dyn WordEmbedder,
        target_embedder: &'a dyn WordEmbedder,
    ) -> Self {
        Self {
            pair,
            source_embedder,
            target_embedder,
            telemetry: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry handle; every stage run through this input
    /// reports to it.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// The computed features of one problem. Computing this once and running
/// many configurations against it (see [`try_run_with_features`]) is how
/// the ablation harness avoids retraining the GCN per table row.
pub struct FeatureSet {
    /// `Ms`, when computed.
    pub structural: Option<StructuralFeature>,
    /// `Mn`, when computed.
    pub semantic: Option<SemanticFeature>,
    /// `Ml`, when computed.
    pub string: Option<StringFeature>,
    /// Additional features beyond the paper's three (e.g.
    /// [`crate::features::AttributeFeature`]). In adaptive mode these join
    /// the *textual* fusion stage (the natural slot for complementary
    /// evidence about entity identity); in Equal/LR modes they are
    /// weighted like any other feature — the paper's "increasing numbers
    /// of features" scenario.
    pub extra: Vec<Box<dyn Feature>>,
}

/// Build the blocked candidate set over the test split's entity names,
/// under a `"blocking"` telemetry span, and report the blocking gauges:
/// `blocking/recall` (fraction of diagonal gold pairs surviving blocking —
/// the recall ceiling of every downstream stage), `blocking/candidates`
/// (total candidate pairs) and `blocking/scored_fraction` (fraction of
/// the dense cross product that will be scored).
fn block_candidates(
    pair: &KgPair,
    blocking: &BlockingConfig,
    k: usize,
    telemetry: &Telemetry,
) -> CandidateSet {
    let _span = telemetry.span("blocking");
    let src_names: Vec<&str> = pair
        .test_sources()
        .iter()
        .map(|&e| pair.source.entity_name(e).expect("interned"))
        .collect();
    let tgt_names: Vec<&str> = pair
        .test_targets()
        .iter()
        .map(|&e| pair.target.entity_name(e).expect("interned"))
        .collect();
    let candidates = ceaff_sim::build_candidates(&src_names, &tgt_names, blocking, k);
    let gold: Vec<(usize, usize)> = (0..src_names.len().min(tgt_names.len()))
        .map(|i| (i, i))
        .collect();
    telemetry.gauge("blocking", "recall", None, candidates.recall_of(&gold));
    telemetry.gauge("blocking", "candidates", None, candidates.len() as f64);
    telemetry.gauge(
        "blocking",
        "scored_fraction",
        None,
        candidates.stats().scored_fraction(),
    );
    candidates
}

/// The propagation layers `[H₀…H_L]` of the source and target graphs —
/// the cache the incremental pipeline patches.
pub(crate) type PropagationLayers = (Vec<Matrix>, Vec<Matrix>);

/// How one pipeline run executes: under which budget, and whether its
/// feature stages are checkpointed. The default — an unlimited budget and
/// no checkpointer — is a plain run; both are no-ops inside the one
/// pipeline body, so the default reproduces a plain run bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions<'a> {
    /// Execution budget: GCN epochs, feature stages and matcher rounds
    /// consume its steps, and its memory cap is checked at every stage
    /// boundary. [`ExecBudget::unlimited`] by default.
    pub budget: &'a ExecBudget,
    /// Run directory to restore completed feature stages from and save
    /// new ones to ([`Checkpointer::create`] for a fresh or continued
    /// run, [`Checkpointer::open`] to resume with the pinned
    /// configuration). `None` by default.
    pub checkpoint: Option<&'a Checkpointer>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        static UNLIMITED: LazyLock<ExecBudget> = LazyLock::new(ExecBudget::unlimited);
        Self {
            budget: &UNLIMITED,
            checkpoint: None,
        }
    }
}

/// Budget accounting across the feature stages of one run.
#[derive(Default)]
struct StageProgress {
    /// Stages computed or restored so far.
    done: usize,
    /// Enabled stages the budget refused.
    skipped: usize,
    /// Why the budget refused them.
    stop: Option<StopReason>,
}

impl StageProgress {
    /// Produce one feature stage. A verified artifact in the run
    /// directory is restored for free (no budget step). Otherwise every
    /// stage after the first consumes one budget step — the first is
    /// always computed, because a run without any feature could only
    /// fail — and an exhausted budget skips the stage. A computed stage
    /// is saved unless the budget stopped the run short, so a degraded
    /// output never masquerades as the completed artifact. `artifact`
    /// is `None` for stages that are never checkpointed.
    fn stage<F>(
        &mut self,
        opts: &RunOptions<'_>,
        telemetry: &Telemetry,
        artifact: Option<&str>,
        restore: impl FnOnce(&[u8]) -> Result<F, String>,
        compute: impl FnOnce() -> Result<F, CeaffError>,
        encode: impl FnOnce(&F) -> Vec<u8>,
    ) -> Result<Option<F>, CeaffError> {
        let store = opts.checkpoint.zip(artifact);
        if let Some((ck, file)) = store {
            if let Some(bytes) = ck.load(file)? {
                let f = restore(&bytes).map_err(|reason| CeaffError::Checkpoint {
                    file: file.to_owned(),
                    reason,
                })?;
                telemetry.counter_add("checkpoint", "stages_resumed", 1);
                self.done += 1;
                return Ok(Some(f));
            }
        }
        if self.done > 0 && self.stop.is_none() {
            self.stop = opts.budget.consume_step();
        }
        if self.stop.is_some() {
            self.skipped += 1;
            return Ok(None);
        }
        opts.budget.check_mem("features")?;
        let f = compute()?;
        self.done += 1;
        if let Some((ck, file)) = store {
            if opts.budget.stop_reason().is_none() {
                ck.save(file, &encode(&f))?;
                if file == checkpoint::STAGE_STRUCTURAL {
                    // The in-flight training state is subsumed by the
                    // completed stage artifact.
                    ck.remove(checkpoint::TRAIN_FILE)?;
                }
                telemetry.counter_add("checkpoint", "stages_saved", 1);
            }
        }
        Ok(Some(f))
    }
}

/// Compute the structural feature under the configured encoder mode:
/// budgeted (and, with a checkpointer, resumable) GCN training for
/// [`StructuralMode::Trained`]; the deterministic propagation encoder,
/// timed under a `"propagation"` span and never checkpointed, for
/// [`StructuralMode::Propagation`]. `keep_layers` receives the full
/// propagation layer stacks; without it they are dropped as soon as the
/// final layers are taken.
fn compute_structural(
    input: &EaInput<'_>,
    cfg: &CeaffConfig,
    opts: &RunOptions<'_>,
    blocked: Option<(&CandidateSet, usize)>,
    keep_layers: Option<&mut PropagationLayers>,
) -> Result<StructuralFeature, CeaffError> {
    let telemetry = &input.telemetry;
    let layers = match cfg.structural {
        StructuralMode::Trained => {
            return StructuralFeature::try_compute(
                input.pair,
                &cfg.gcn,
                telemetry,
                opts.checkpoint,
                opts.budget,
                blocked,
            )
        }
        StructuralMode::Propagation { layers } => layers,
    };
    // Propagation has no epoch granularity to meter; it runs
    // uninterrupted like the other closed-form features.
    let _probe_off = crate::budget::uninterruptible_scope();
    let encoder = {
        let _span = telemetry.span("propagation");
        match keep_layers {
            None => crate::propagation::encode(input.pair, cfg.gcn.dim, layers),
            Some(keep) => {
                let ls = crate::propagation::propagate(&input.pair.source, cfg.gcn.dim, layers);
                let lt = crate::propagation::propagate(&input.pair.target, cfg.gcn.dim, layers);
                let encoder = GcnEncoder {
                    z_source: ls.last().expect("at least layer 0").clone(),
                    z_target: lt.last().expect("at least layer 0").clone(),
                    loss_curve: Vec::new(),
                };
                *keep = (ls, lt);
                encoder
            }
        }
    };
    Ok(StructuralFeature::from_encoder_scoring(
        input.pair, encoder, blocked,
    ))
}

impl FeatureSet {
    /// Compute every feature the configuration enables, reporting
    /// per-stage timings (and, with an active event stream, GCN training
    /// gauges) to `input.telemetry`. Under [`CandidateStrategy::Blocked`]
    /// the candidate set is built once, under the `"blocking"` span, and
    /// every feature scores exactly those pairs into a sparse top-k store.
    ///
    /// `opts.budget` meters the run: GCN training consumes one step per
    /// epoch (stopping at its best snapshot when the budget runs out),
    /// each later feature consumes one step, and the memory cap is checked
    /// at every stage boundary. Later features the exhausted budget
    /// refuses are skipped and recorded as one `"features"`
    /// [`Degradation`]; the closed-form kernels run under an
    /// uninterruptible probe scope because their outputs feed fusion
    /// unconditionally.
    ///
    /// With `opts.checkpoint`, each stage whose verified artifact already
    /// exists is restored *without recomputation* (counted as
    /// `checkpoint/stages_resumed`), each stage that runs to completion
    /// saves its output (`checkpoint/stages_saved`), and the GCN saves and
    /// resumes its epoch-level training state when the policy has an
    /// epoch interval. Artifacts store the *normalised* matrices, so a
    /// restored stage is bit-identical to a fresh one. Checkpointing
    /// requires [`CandidateStrategy::Dense`].
    pub fn try_compute(
        input: &EaInput<'_>,
        cfg: &CeaffConfig,
        opts: &RunOptions<'_>,
    ) -> Result<Self, CeaffError> {
        Self::compute_stages(input, cfg, opts, None)
    }

    /// The body of [`FeatureSet::try_compute`]. `keep_layers` receives the
    /// propagation layer stacks of a [`StructuralMode::Propagation`] run
    /// (the incremental pipeline's patch cache).
    pub(crate) fn compute_stages(
        input: &EaInput<'_>,
        cfg: &CeaffConfig,
        opts: &RunOptions<'_>,
        keep_layers: Option<&mut PropagationLayers>,
    ) -> Result<Self, CeaffError> {
        cfg.validate()?;
        if opts.checkpoint.is_some() && !cfg.candidates.is_dense() {
            return Err(CeaffError::InvalidConfig(
                "`--checkpoint-dir` cannot be combined with `--candidates blocked`: \
                 checkpoint stage artifacts are dense-only, so checkpointing requires \
                 CandidateStrategy::Dense"
                    .into(),
            ));
        }
        let telemetry = &input.telemetry;
        telemetry.gauge(
            "parallel",
            "threads",
            None,
            ceaff_parallel::current_threads() as f64,
        );
        let blocked = match &cfg.candidates {
            CandidateStrategy::Dense => None,
            CandidateStrategy::Blocked { k, blocking } => {
                // Blocking is cheap relative to any feature; run it
                // uninterrupted and let the memory check observe the
                // candidate structure it allocated.
                let cands = {
                    let _probe_off = crate::budget::uninterruptible_scope();
                    block_candidates(input.pair, blocking, *k, telemetry)
                };
                opts.budget.check_mem("blocking")?;
                Some((cands, *k))
            }
        };
        let blocked = blocked.as_ref().map(|(c, k)| (c, *k));
        let mut progress = StageProgress::default();

        let structural = if cfg.use_structural {
            let trained = matches!(cfg.structural, StructuralMode::Trained);
            progress.stage(
                opts,
                telemetry,
                trained.then_some(checkpoint::STAGE_STRUCTURAL),
                |bytes| {
                    let (zs, zt, test, loss_curve) = checkpoint::decode_structural(bytes)?;
                    Ok(StructuralFeature::from_saved_parts(
                        zs,
                        zt,
                        SimilarityMatrix::new(test),
                        loss_curve,
                    ))
                },
                || compute_structural(input, cfg, opts, blocked, keep_layers),
                |f| {
                    checkpoint::encode_structural(
                        f.source_embeddings(),
                        f.target_embeddings(),
                        f.test_store().as_matrix(),
                        &f.loss_curve,
                    )
                },
            )?
        } else {
            None
        };

        let semantic = if cfg.use_semantic {
            progress.stage(
                opts,
                telemetry,
                Some(checkpoint::STAGE_SEMANTIC),
                |bytes| {
                    let (ns, nt, test) = checkpoint::decode_embedding_stage(bytes)?;
                    Ok(SemanticFeature::from_saved_parts(
                        ns,
                        nt,
                        SimilarityMatrix::new(test),
                    ))
                },
                || {
                    let _probe_off = crate::budget::uninterruptible_scope();
                    let _span = telemetry.span("semantic");
                    let (src, tgt) = (input.source_embedder, input.target_embedder);
                    Ok(match blocked {
                        None => SemanticFeature::compute(input.pair, src, tgt),
                        Some((cands, k)) => {
                            SemanticFeature::compute_blocked(input.pair, src, tgt, cands, k)
                        }
                    })
                },
                |f| {
                    checkpoint::encode_embedding_stage(
                        f.source_embeddings(),
                        f.target_embeddings(),
                        f.test_store().as_matrix(),
                    )
                },
            )?
        } else {
            None
        };

        let string = if cfg.use_string {
            progress.stage(
                opts,
                telemetry,
                Some(checkpoint::STAGE_STRING),
                |bytes| {
                    let test = checkpoint::decode_matrix_stage(bytes)?;
                    Ok(StringFeature::from_saved_parts(
                        input.pair,
                        SimilarityMatrix::new(test),
                    ))
                },
                || {
                    let _probe_off = crate::budget::uninterruptible_scope();
                    let _span = telemetry.span("string");
                    Ok(match blocked {
                        None => StringFeature::compute(input.pair),
                        Some((cands, k)) => StringFeature::compute_blocked(input.pair, cands, k),
                    })
                },
                |f| checkpoint::encode_matrix_stage(f.test_store().as_matrix()),
            )?
        } else {
            None
        };

        if progress.skipped > 0 {
            let enabled = [cfg.use_structural, cfg.use_semantic, cfg.use_string]
                .iter()
                .filter(|&&on| on)
                .count();
            opts.budget.record_degradation(
                telemetry,
                "features",
                progress.stop.expect("skipping implies a stop reason"),
                progress.done as u64,
                progress.skipped as f64 / enabled as f64,
            );
        }
        Ok(Self {
            structural,
            semantic,
            string,
            extra: Vec::new(),
        })
    }

    /// [`FeatureSet::try_compute`] without a budget or checkpointer.
    ///
    /// # Panics
    /// Panics on an invalid configuration or a diverged GCN.
    pub fn compute(input: &EaInput<'_>, cfg: &CeaffConfig) -> Self {
        Self::try_compute(input, cfg, &RunOptions::default()).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Attach an additional feature (see [`FeatureSet::extra`]).
    pub fn with_extra(mut self, feature: Box<dyn Feature>) -> Self {
        self.extra.push(feature);
        self
    }

    /// Compute all three features regardless of the flags in `cfg` (for
    /// ablation sweeps that will toggle them afterwards).
    pub fn compute_all(input: &EaInput<'_>, cfg: &CeaffConfig) -> Self {
        let mut full = cfg.clone();
        full.use_structural = true;
        full.use_semantic = true;
        full.use_string = true;
        Self::compute(input, &full)
    }

    /// The active features under `cfg` (see [`select_active`]).
    fn active<'s>(&'s self, cfg: &CeaffConfig) -> Vec<&'s dyn Feature> {
        select_active(
            self.structural.as_ref().map(|f| f as &dyn Feature),
            self.semantic.as_ref().map(|f| f as &dyn Feature),
            self.string.as_ref().map(|f| f as &dyn Feature),
            &self.extra,
            cfg,
        )
    }
}

/// The features a decision fuses, in fusion order: structural, semantic
/// and string, each when present and switched on in `cfg`, then every
/// `extra` feature. Both the batch pipeline and the incremental path pick
/// their features here.
pub(crate) fn select_active<'s>(
    structural: Option<&'s dyn Feature>,
    semantic: Option<&'s dyn Feature>,
    string: Option<&'s dyn Feature>,
    extra: &'s [Box<dyn Feature>],
    cfg: &CeaffConfig,
) -> Vec<&'s dyn Feature> {
    [
        (cfg.use_structural, structural),
        (cfg.use_semantic, semantic),
        (cfg.use_string, string),
    ]
    .into_iter()
    .filter_map(|(on, f)| f.filter(|_| on))
    .chain(extra.iter().map(|f| f.as_ref()))
    .collect()
}

/// Everything a pipeline run produces.
#[derive(Debug, Clone)]
pub struct CeaffOutput {
    /// The fused similarity store `M` — dense under
    /// [`CandidateStrategy::Dense`] (bitwise-identical to the
    /// pre-`SimStore` pipeline), sparse top-k under
    /// [`CandidateStrategy::Blocked`].
    pub fused: SimStore,
    /// The alignment decision.
    pub matching: Matching,
    /// Accuracy against the diagonal ground truth (the paper's metric).
    pub accuracy: f64,
    /// Hits@1/Hits@10/MRR of the *fused matrix rows* — i.e. the ranking
    /// evaluation of "CEAFF w/o C" (Table VI); the collective matching
    /// itself produces pairs, not ranked lists.
    pub ranking: RankingMetrics,
    /// Report of the textual fusion stage (`Mn + Ml`), when it ran.
    pub textual_fusion: Option<FusionReport>,
    /// Report of the final fusion stage (`Ms + Mt`), when it ran.
    pub final_fusion: Option<FusionReport>,
    /// Weights actually applied per active feature (order: structural,
    /// semantic, string, restricted to active ones) for Equal/LR modes;
    /// `None` in two-stage adaptive mode (see the stage reports instead).
    pub flat_weights: Option<Vec<f32>>,
    /// Everything telemetry recorded for this run: stage timings, counter
    /// totals, and (with an active event stream) the ordered events.
    /// Replaces the old bare `decision_elapsed` duration — stage
    /// wall-clock lives in [`RunTrace::stages`].
    pub trace: RunTrace,
}

/// Validate the active feature set: at least one feature, all stores on
/// one shape.
fn check_features(active: &[&dyn Feature]) -> Result<(), CeaffError> {
    let Some(first) = active.first() else {
        return Err(CeaffError::EmptyFeatureSet);
    };
    let expected = (first.test_store().sources(), first.test_store().targets());
    for f in &active[1..] {
        let found = (f.test_store().sources(), f.test_store().targets());
        if found != expected {
            return Err(CeaffError::ShapeMismatch {
                feature: f.name().to_owned(),
                expected,
                found,
            });
        }
    }
    Ok(())
}

/// Gauge the chosen weights and count the correspondence statistics of one
/// fusion stage.
fn emit_fusion_report(telemetry: &Telemetry, label: &str, report: &FusionReport) {
    for (i, &w) in report.weights.iter().enumerate() {
        telemetry.gauge(
            "fusion",
            &format!("{label}_weight"),
            Some(i as u64),
            w as f64,
        );
    }
    let candidates: usize = report.candidates_per_feature.iter().sum();
    let retained: usize = report.retained_per_feature.iter().sum();
    telemetry.counter_add("fusion", "confident_candidates", candidates as u64);
    telemetry.counter_add("fusion", "retained_correspondences", retained as u64);
}

/// Gauge a flat (Equal/LR) weight vector.
fn emit_flat_weights(telemetry: &Telemetry, weights: &[f32]) {
    for (i, &w) in weights.iter().enumerate() {
        telemetry.gauge("fusion", "flat_weight", Some(i as u64), w as f64);
    }
}

/// The fusion stage of [`fuse_and_match`]: preprocess every active
/// feature store, then combine them
/// under the configured weighting mode. All-dense inputs take the
/// bitwise-identical dense fusion path; any sparse input routes the
/// merge through the sparse accumulator (see
/// [`fuse_store`](crate::fusion::fuse_store)).
#[allow(clippy::type_complexity)]
fn fuse_active(
    pair: &KgPair,
    active: &[&dyn Feature],
    extra: usize,
    cfg: &CeaffConfig,
) -> (
    SimStore,
    Option<FusionReport>,
    Option<FusionReport>,
    Option<Vec<f32>>,
) {
    let normalized: Vec<SimStore> = active
        .iter()
        .map(|f| preprocess_store(f.test_store(), cfg))
        .collect();

    // Map back to named slots for the two-stage composition.
    let mut slot: std::collections::HashMap<&str, &SimStore> = std::collections::HashMap::new();
    for (f, m) in active.iter().zip(&normalized) {
        slot.insert(f.name(), m);
    }

    match &cfg.weighting {
        WeightingMode::Adaptive => {
            if extra == 0 {
                let (m, t, f) = two_stage_fuse_store(
                    slot.get("structural").copied(),
                    slot.get("semantic").copied(),
                    slot.get("string").copied(),
                    &cfg.fusion,
                );
                (m, t, f, None)
            } else {
                // Extra features join the textual stage (semantic +
                // string + extras -> Mt), then Mt fuses with Ms.
                let mut textual: Vec<&SimStore> = Vec::new();
                if let Some(m) = slot.get("semantic") {
                    textual.push(m);
                }
                if let Some(m) = slot.get("string") {
                    textual.push(m);
                }
                let extra_start = active.len() - extra;
                textual.extend(normalized[extra_start..].iter());
                let (mt, trep) = adaptive_fuse_store(&textual, &cfg.fusion);
                match slot.get("structural").copied() {
                    Some(ms) => {
                        let (m, frep) = adaptive_fuse_store(&[ms, &mt], &cfg.fusion);
                        (m, Some(trep), Some(frep), None)
                    }
                    None => (mt, Some(trep), None, None),
                }
            }
        }
        WeightingMode::Equal => {
            let stores: Vec<&SimStore> = normalized.iter().collect();
            let w = vec![1.0 / stores.len() as f32; stores.len()];
            (fuse_store(&stores, &w), None, None, Some(w))
        }
        WeightingMode::LogisticRegression(lr_cfg) => {
            let lw = learn_weights(active, pair, lr_cfg);
            let stores: Vec<&SimStore> = normalized.iter().collect();
            (
                fuse_store(&stores, &lw.weights),
                None,
                None,
                Some(lw.weights),
            )
        }
    }
}

/// Run fusion + matching on precomputed features, without a budget.
///
/// Fails with [`CeaffError::InvalidConfig`] on a bad configuration,
/// [`CeaffError::EmptyFeatureSet`] when `cfg` enables no feature that
/// `features` actually contains, and [`CeaffError::ShapeMismatch`] when
/// the active feature matrices disagree about the test-split shape.
///
/// Fusion and matching are timed under the `"fusion"` and `"matcher"`
/// stages of `telemetry`; the drained trace is attached to the output.
pub fn try_run_with_features(
    pair: &KgPair,
    features: &FeatureSet,
    cfg: &CeaffConfig,
    telemetry: &Telemetry,
) -> Result<CeaffOutput, CeaffError> {
    fuse_and_match(pair, features, cfg, telemetry, RunOptions::default().budget)
}

/// The decision half of [`run`]: fusion, then collective matching, under
/// `budget`. Fusion runs uninterrupted (its output feeds matching
/// unconditionally); the matcher is *anytime* — on deadline, cancel or
/// step limit it completes its partial assignment greedily and records a
/// `"matcher"` [`Degradation`] in the trace — and the memory cap is
/// checked at each stage boundary. An unlimited budget installs nothing
/// and the matcher takes its exact path, so the output is bitwise that of
/// an unbudgeted decision at any thread count.
pub(crate) fn fuse_and_match(
    pair: &KgPair,
    features: &FeatureSet,
    cfg: &CeaffConfig,
    telemetry: &Telemetry,
    budget: &ExecBudget,
) -> Result<CeaffOutput, CeaffError> {
    cfg.validate()?;
    let active = features.active(cfg);
    fuse_and_match_active(pair, &active, features.extra.len(), cfg, telemetry, budget)
}

/// [`fuse_and_match`] over an already-selected active feature list whose
/// last `extra` entries are [`FeatureSet::extra`] features — the entry the
/// incremental path uses to decide over patched stores before it commits
/// them.
pub(crate) fn fuse_and_match_active(
    pair: &KgPair,
    active: &[&dyn Feature],
    extra: usize,
    cfg: &CeaffConfig,
    telemetry: &Telemetry,
    budget: &ExecBudget,
) -> Result<CeaffOutput, CeaffError> {
    let _armed = budget.install();
    check_features(active)?;
    telemetry.gauge(
        "parallel",
        "threads",
        None,
        ceaff_parallel::current_threads() as f64,
    );

    let fusion_span = telemetry.span("fusion");
    let (fused, textual_fusion, final_fusion, flat_weights) = {
        // Fusion (CSLS, normalisation, weight search) is short and
        // non-degradable: finish its kernels, let the boundary checks
        // below observe any stop.
        let _probe_off = crate::budget::uninterruptible_scope();
        fuse_active(pair, active, extra, cfg)
    };
    if let Some(report) = &textual_fusion {
        emit_fusion_report(telemetry, "textual", report);
    }
    if let Some(report) = &final_fusion {
        emit_fusion_report(telemetry, "final", report);
    }
    if let Some(weights) = &flat_weights {
        emit_flat_weights(telemetry, weights);
    }
    fusion_span.finish();
    budget.check_mem("fusion")?;

    let outcome = cfg
        .matcher
        .build()
        .matching_store_budgeted(&fused, budget, telemetry);
    budget.check_mem("matcher")?;
    let matching = outcome.matching;
    let eval_span = telemetry.span("eval");
    let acc = accuracy(&matching, fused.sources());
    let ranking = ranking_metrics_store(&fused);
    eval_span.finish();
    telemetry.gauge("pipeline", "accuracy", None, acc);
    telemetry.gauge("pipeline", "matched_pairs", None, matching.len() as f64);
    budget.emit_counters(telemetry);
    Ok(CeaffOutput {
        fused,
        matching,
        accuracy: acc,
        ranking,
        textual_fusion,
        final_fusion,
        flat_weights,
        trace: telemetry.take_trace(),
    })
}

/// What [`run_decision_budgeted`] produced: the matching plus its quality
/// metrics and the degradation record, without re-carrying the (possibly
/// large, shared) similarity store the decision ran over.
#[derive(Debug, Clone)]
pub struct DecisionOutput {
    /// The alignment decision — exact when `degradation` is `None`,
    /// otherwise the exact partial assignment completed greedily.
    pub matching: Matching,
    /// Fraction of sources matched to their ground-truth target (test
    /// splits are index-aligned, so "correct" is `i == j`).
    pub accuracy: f64,
    /// Present iff the budget cut the exact matcher short.
    pub degradation: Option<Degradation>,
    /// Source rows whose assignment came from the greedy completion
    /// rather than the exact algorithm. Empty for an exact run.
    pub degraded_rows: Vec<usize>,
    /// Stage timings, counters, and degradations drained from
    /// `telemetry`.
    pub trace: RunTrace,
}

/// Run one budgeted alignment decision over an already-fused similarity
/// store.
///
/// This is the serving-path entry point: a long-running process fuses
/// features once (via [`try_run`] or [`FeatureSet::compute`] +
/// [`try_run_with_features`]), keeps the resulting
/// [`CeaffOutput::fused`] store warm, and then answers each request with
/// this call — no feature recomputation, just the collective decision
/// under that request's own [`ExecBudget`]. The budget is installed for
/// the duration of the call (memory ledger + cancel probe on the calling
/// thread), the matcher runs in its anytime form, and the memory cap is
/// checked at the stage boundary. The warm store is only read, never
/// mutated, so a degraded or failed decision cannot poison it.
///
/// The matcher has one body, its anytime form; a budget that never fires
/// (unlimited or not) lets it run to the exact matching, bitwise that of
/// [`Matcher::matching_store`](crate::matching::Matcher::matching_store)
/// at any thread count, so repeated identical requests return
/// byte-identical responses.
pub fn run_decision_budgeted(
    fused: &SimStore,
    matcher: MatcherKind,
    budget: &ExecBudget,
    telemetry: &Telemetry,
) -> Result<DecisionOutput, CeaffError> {
    let _armed = budget.install();
    let outcome = matcher
        .build()
        .matching_store_budgeted(fused, budget, telemetry);
    budget.check_mem("matcher")?;
    let acc = accuracy(&outcome.matching, fused.sources());
    telemetry.gauge("pipeline", "accuracy", None, acc);
    telemetry.gauge(
        "pipeline",
        "matched_pairs",
        None,
        outcome.matching.len() as f64,
    );
    budget.emit_counters(telemetry);
    Ok(DecisionOutput {
        matching: outcome.matching,
        accuracy: acc,
        degradation: outcome.degradation,
        degraded_rows: outcome.degraded_rows,
        trace: telemetry.take_trace(),
    })
}

/// Per-feature store preprocessing: optional CSLS hubness correction,
/// then optional min–max normalisation (order matters — CSLS operates on
/// the raw geometry, normalisation makes scales comparable for fusion).
/// Dense stores go through the exact dense kernels
/// ([`ceaff_sim::csls_adjusted`]); sparse stores through their sparse
/// counterparts, which agree on the stored entries.
fn preprocess_store(s: &SimStore, cfg: &CeaffConfig) -> SimStore {
    match (cfg.csls, cfg.normalize_features) {
        (Some(k), true) => ceaff_sim::csls_adjusted_store(s, k).min_max_normalized(),
        (Some(k), false) => ceaff_sim::csls_adjusted_store(s, k),
        (None, true) => s.min_max_normalized(),
        (None, false) => s.clone(),
    }
}

/// Run the whole pipeline — features, adaptive fusion, collective
/// matching — reporting every stage to `input.telemetry`.
///
/// `opts` decides how the run executes (see [`RunOptions`]):
///
/// * **budget** — GCN epochs, feature stages and matcher rounds run under
///   it, degrading gracefully on deadline, cancel or step limit
///   (partial-but-valid output plus [`Degradation`] records in the
///   trace) and failing with [`CeaffError::BudgetExceeded`] when the
///   memory cap is crossed;
/// * **checkpoint** — completed feature stages (and, with
///   [`EveryNEpochs`](checkpoint::CheckpointPolicy::EveryNEpochs), the GCN
///   training state) are saved to the run directory as the run
///   progresses, and whatever is already there is restored instead of
///   recomputed. A stage the budget
///   stopped short is not saved, so resuming later finishes the real
///   computation. Resume an interrupted run by passing the checkpointer
///   and configuration [`Checkpointer::open`] returns: the continued run
///   produces **bitwise-identical** output to an uninterrupted one at any
///   thread count.
///
/// An unlimited budget and an absent checkpointer are no-ops, so
/// `run(input, cfg, &RunOptions::default())` is the plain pipeline.
///
/// ```no_run
/// use ceaff_core::checkpoint::{CheckpointPolicy, Checkpointer};
/// use ceaff_core::pipeline::{run, CeaffConfig, EaInput, RunOptions};
/// use ceaff_core::ExecBudget;
/// # fn demo(input: &EaInput<'_>, cfg: &CeaffConfig) -> Result<(), ceaff_core::CeaffError> {
/// let budget = ExecBudget::unlimited().with_step_limit(100);
/// let ck = Checkpointer::create("run-dir", CheckpointPolicy::EveryNEpochs(5), cfg)?;
/// let out = run(input, cfg, &RunOptions { budget: &budget, checkpoint: Some(&ck) })?;
/// // After an interruption: the directory pins the configuration.
/// let (ck, cfg) = Checkpointer::open("run-dir")?;
/// let resumed = run(input, &cfg, &RunOptions { checkpoint: Some(&ck), ..RunOptions::default() })?;
/// # let _ = (out, resumed); Ok(()) }
/// ```
pub fn run(
    input: &EaInput<'_>,
    cfg: &CeaffConfig,
    opts: &RunOptions<'_>,
) -> Result<CeaffOutput, CeaffError> {
    let _armed = opts.budget.install();
    let features = FeatureSet::try_compute(input, cfg, opts)?;
    fuse_and_match(input.pair, &features, cfg, &input.telemetry, opts.budget)
}

/// [`run`] with the default [`RunOptions`]: no budget, no checkpointing.
pub fn try_run(input: &EaInput<'_>, cfg: &CeaffConfig) -> Result<CeaffOutput, CeaffError> {
    run(input, cfg, &RunOptions::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceaff_datagen::{GenConfig, GeneratedDataset, NameChannel, Preset};
    use ceaff_telemetry::{EventKind, InMemorySink};
    use std::sync::Arc;

    fn dataset() -> GeneratedDataset {
        ceaff_datagen::generate(&GenConfig {
            aligned_entities: 150,
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

    fn fast_cfg() -> CeaffConfig {
        CeaffConfig {
            gcn: GcnConfig {
                dim: 32,
                epochs: 50,
                ..GcnConfig::default()
            },
            embed_dim: 32,
            ..CeaffConfig::default()
        }
    }

    /// Shorthand: run with precomputed features and disabled telemetry.
    fn run_wf(pair: &KgPair, features: &FeatureSet, cfg: &CeaffConfig) -> CeaffOutput {
        try_run_with_features(pair, features, cfg, &Telemetry::disabled()).expect("pipeline runs")
    }

    #[test]
    fn full_pipeline_beats_greedy_and_single_features() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let cfg = fast_cfg();
        let features = FeatureSet::compute_all(&input, &cfg);

        let full = run_wf(&ds.pair, &features, &cfg);
        let greedy = run_wf(&ds.pair, &features, &cfg.clone().without_collective());
        assert!(
            full.accuracy >= greedy.accuracy,
            "collective {} must not lose to greedy {}",
            full.accuracy,
            greedy.accuracy
        );
        assert!(
            full.accuracy > 0.5,
            "full pipeline accuracy {}",
            full.accuracy
        );
        assert!(full.matching.is_one_to_one());
    }

    #[test]
    fn ablation_switches_produce_different_configs() {
        let cfg = fast_cfg();
        assert!(!cfg.clone().without_structural().use_structural);
        assert!(!cfg.clone().without_semantic().use_semantic);
        assert!(!cfg.clone().without_string().use_string);
        assert!(matches!(
            cfg.clone().without_adaptive_fusion().weighting,
            WeightingMode::Equal
        ));
        assert!(matches!(
            cfg.clone().without_collective().matcher,
            MatcherKind::Greedy
        ));
        assert!(!cfg.clone().without_theta_cap().fusion.cap_enabled);
    }

    #[test]
    fn builder_covers_every_field() {
        let cfg = CeaffConfig::builder()
            .gcn(GcnConfig {
                dim: 16,
                epochs: 10,
                ..GcnConfig::default()
            })
            .embed_dim(16)
            .fusion(FusionConfig {
                theta1: 0.9,
                theta2: 0.2,
                cap_enabled: false,
            })
            .structural(false)
            .semantic(true)
            .string(false)
            .weighting(WeightingMode::Equal)
            .matcher(MatcherKind::Hungarian)
            .normalize_features(false)
            .csls(5)
            .build()
            .expect("valid configuration");
        assert_eq!(cfg.gcn.dim, 16);
        assert_eq!(cfg.embed_dim, 16);
        assert!(!cfg.fusion.cap_enabled);
        assert!(!cfg.use_structural);
        assert!(cfg.use_semantic);
        assert!(!cfg.use_string);
        assert!(matches!(cfg.weighting, WeightingMode::Equal));
        assert!(matches!(cfg.matcher, MatcherKind::Hungarian));
        assert!(!cfg.normalize_features);
        assert_eq!(cfg.csls, Some(5));
    }

    #[test]
    fn builder_and_validate_reject_bad_configs() {
        let err = CeaffConfig::builder().embed_dim(0).build().unwrap_err();
        assert!(matches!(err, CeaffError::InvalidConfig(_)));
        let err = CeaffConfig::builder().csls(0).build().unwrap_err();
        assert!(matches!(err, CeaffError::InvalidConfig(_)));
        let mut cfg = fast_cfg();
        cfg.gcn.dim = 0;
        assert!(cfg.validate().is_err());
        assert!(fast_cfg().validate().is_ok());
    }

    #[test]
    fn validate_rejects_degenerate_blocking() {
        let err = CeaffConfig::builder()
            .candidate_strategy(CandidateStrategy::Blocked {
                k: 0,
                blocking: ceaff_sim::BlockingConfig::default(),
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, CeaffError::InvalidConfig(_)));
        let err = CeaffConfig::builder()
            .candidate_strategy(CandidateStrategy::Blocked {
                k: 10,
                blocking: ceaff_sim::BlockingConfig {
                    index_tokens: false,
                    index_trigrams: false,
                    ..ceaff_sim::BlockingConfig::default()
                },
            })
            .build()
            .unwrap_err();
        assert!(matches!(err, CeaffError::InvalidConfig(_)));
        assert!(fast_cfg().with_blocking(25).validate().is_ok());
    }

    #[test]
    fn candidate_strategy_defaults_to_dense_in_old_serialized_configs() {
        // Configs serialized before the field existed must keep loading,
        // and must land on the dense (golden-metric) path.
        let json = serde_json::to_string(&fast_cfg()).expect("serializes");
        let stripped = json.replace("\"candidates\":\"Dense\"", "\"candidates\":null");
        assert_ne!(json, stripped, "serialized config must contain the field");
        let cfg: CeaffConfig = serde_json::from_str(&stripped).expect("old config loads");
        assert!(cfg.candidates.is_dense());
        // And the blocked variant round-trips.
        let blocked = fast_cfg().with_blocking(40);
        let json = serde_json::to_string(&blocked).expect("serializes");
        let back: CeaffConfig = serde_json::from_str(&json).expect("roundtrips");
        assert_eq!(back.candidates, blocked.candidates);
    }

    #[test]
    fn blocked_pipeline_runs_sparse_end_to_end() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let sink = Arc::new(InMemorySink::default());
        let input =
            EaInput::new(&ds.pair, &src, &tgt).with_telemetry(Telemetry::with_sink(sink.clone()));
        let cfg = fast_cfg().with_blocking(30);
        let out = try_run(&input, &cfg).expect("blocked pipeline runs");
        assert!(out.fused.is_sparse(), "blocked fusion must stay sparse");
        let n = ds.pair.test_pairs().len();
        assert!(
            out.fused.nnz() < n * n,
            "sparse store must hold fewer than n*t entries"
        );
        // Blocking telemetry: recall ceiling, candidate count, fraction.
        let recall = out
            .trace
            .events_of(EventKind::Gauge, "blocking")
            .find(|e| e.name == "recall")
            .map(|e| e.value)
            .expect("blocking/recall gauged");
        assert!(recall > 0.8, "blocking recall too low: {recall}");
        assert!(out
            .trace
            .events_of(EventKind::Gauge, "blocking")
            .any(|e| e.name == "scored_fraction"));
        // End-to-end quality holds up on the close-lingual benchmark.
        assert!(
            out.accuracy > 0.5,
            "blocked pipeline accuracy {}",
            out.accuracy
        );
        assert!(out.matching.is_one_to_one());
    }

    #[test]
    fn blocked_pipeline_rejects_checkpointing() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let cfg = fast_cfg().with_blocking(25);
        let dir = std::env::temp_dir().join(format!("ceaff-blocked-ck-{}", std::process::id()));
        let ck = Checkpointer::create(&dir, checkpoint::CheckpointPolicy::PerStage, &cfg)
            .expect("run directory");
        let opts = RunOptions {
            checkpoint: Some(&ck),
            ..RunOptions::default()
        };
        let err = run(&input, &cfg, &opts).unwrap_err();
        match &err {
            // The message must name both offending flags so a CLI user
            // knows exactly which pair of options conflicts.
            CeaffError::InvalidConfig(msg) => {
                assert!(msg.contains("--checkpoint-dir"), "{msg}");
                assert!(msg.contains("--candidates blocked"), "{msg}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn validate_rejects_degenerate_training_hyperparameters() {
        let expect_invalid = |mutate: fn(&mut CeaffConfig), what: &str| {
            let mut cfg = fast_cfg();
            mutate(&mut cfg);
            match cfg.validate() {
                Err(CeaffError::InvalidConfig(msg)) => {
                    assert!(!msg.is_empty(), "{what}: empty message")
                }
                other => panic!("{what}: expected InvalidConfig, got {other:?}"),
            }
        };
        expect_invalid(|c| c.gcn.epochs = 0, "zero epochs");
        expect_invalid(
            |c| c.gcn.optimizer = OptimKind::Adam { lr: 0.0 },
            "zero learning rate",
        );
        expect_invalid(
            |c| c.gcn.optimizer = OptimKind::Adam { lr: -0.01 },
            "negative learning rate",
        );
        expect_invalid(
            |c| c.gcn.optimizer = OptimKind::Sgd { lr: f32::NAN },
            "NaN learning rate",
        );
        expect_invalid(
            |c| c.gcn.optimizer = OptimKind::Sgd { lr: f32::INFINITY },
            "infinite learning rate",
        );
        expect_invalid(|c| c.gcn.margin = 0.0, "zero margin");
        expect_invalid(|c| c.gcn.margin = f32::NAN, "NaN margin");
        expect_invalid(|c| c.gcn.margin = -1.0, "negative margin");
        expect_invalid(|c| c.gcn.dim = 0, "zero dimension");
        expect_invalid(
            |c| c.gcn.validation_fraction = -0.1,
            "negative validation fraction",
        );
        expect_invalid(
            |c| c.gcn.validation_fraction = 1.0,
            "validation fraction of one leaves no training seeds",
        );
        expect_invalid(
            |c| c.gcn.validation_fraction = f64::NAN,
            "NaN validation fraction",
        );
        expect_invalid(|c| c.gcn.validate_every = 0, "zero validate_every");
        expect_invalid(
            |c| {
                c.gcn.hard_negative_pool = 8;
                c.gcn.hard_negative_refresh = 0;
            },
            "hard negatives with zero refresh interval",
        );
        expect_invalid(
            |c| {
                c.weighting = WeightingMode::LogisticRegression(crate::lr::LrConfig {
                    epochs: 0,
                    ..Default::default()
                })
            },
            "zero lr weighting epochs",
        );
        expect_invalid(
            |c| {
                c.weighting = WeightingMode::LogisticRegression(crate::lr::LrConfig {
                    negatives_per_positive: 0,
                    ..Default::default()
                })
            },
            "zero lr weighting negatives",
        );
        expect_invalid(
            |c| {
                c.weighting = WeightingMode::LogisticRegression(crate::lr::LrConfig {
                    lr: f32::NAN,
                    ..Default::default()
                })
            },
            "NaN lr weighting learning rate",
        );
        expect_invalid(
            |c| {
                c.weighting = WeightingMode::LogisticRegression(crate::lr::LrConfig {
                    lr: -1.0,
                    ..Default::default()
                })
            },
            "negative lr weighting learning rate",
        );
        // A pool of zero means hard negatives are off; refresh is then
        // irrelevant and must not be rejected.
        let mut cfg = fast_cfg();
        cfg.gcn.hard_negative_pool = 0;
        cfg.gcn.hard_negative_refresh = 0;
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn feature_ablations_run_end_to_end() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let cfg = fast_cfg();
        let features = FeatureSet::compute_all(&input, &cfg);
        for variant in [
            cfg.clone().without_structural(),
            cfg.clone().without_semantic(),
            cfg.clone().without_string(),
            cfg.clone().without_adaptive_fusion(),
            cfg.clone().without_theta_cap(),
            cfg.clone().with_lr_weighting(crate::lr::LrConfig {
                epochs: 50,
                ..Default::default()
            }),
        ] {
            let out = run_wf(&ds.pair, &features, &variant);
            assert!(
                out.accuracy > 0.1,
                "variant should still align something: {}",
                out.accuracy
            );
            assert_eq!(out.fused.sources(), ds.pair.test_pairs().len());
        }
    }

    #[test]
    fn no_features_is_an_error() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let mut cfg = fast_cfg();
        cfg.use_structural = false;
        cfg.use_semantic = false;
        cfg.use_string = false;
        let features = FeatureSet::compute(&input, &cfg);
        let err =
            try_run_with_features(&ds.pair, &features, &cfg, &Telemetry::disabled()).unwrap_err();
        assert_eq!(err, CeaffError::EmptyFeatureSet);
    }

    /// A constant-matrix feature used to provoke a shape mismatch.
    struct FixedFeature(SimStore);

    impl FixedFeature {
        fn zeros(n: usize, t: usize) -> Self {
            Self(SimStore::Dense(SimilarityMatrix::zeros(n, t)))
        }
    }

    impl Feature for FixedFeature {
        fn name(&self) -> &'static str {
            "fixed"
        }

        fn test_store(&self) -> &SimStore {
            &self.0
        }

        fn score(&self, _: ceaff_graph::EntityId, _: ceaff_graph::EntityId) -> f32 {
            0.0
        }
    }

    #[test]
    fn mismatched_feature_shapes_are_an_error() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let cfg = fast_cfg();
        let features =
            FeatureSet::compute_all(&input, &cfg).with_extra(Box::new(FixedFeature::zeros(2, 3)));
        let err =
            try_run_with_features(&ds.pair, &features, &cfg, &Telemetry::disabled()).unwrap_err();
        match err {
            CeaffError::ShapeMismatch { feature, found, .. } => {
                assert_eq!(feature, "fixed");
                assert_eq!(found, (2, 3));
            }
            other => panic!("expected ShapeMismatch, got {other:?}"),
        }
    }

    #[test]
    fn trace_is_always_populated() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let cfg = fast_cfg();
        let out = try_run(&input, &cfg).expect("pipeline runs");
        // Disabled telemetry still records stage timings and counters.
        for stage in ["gcn", "semantic", "string", "fusion", "matcher"] {
            assert!(
                out.trace.stage_seconds(stage).is_some(),
                "stage '{stage}' missing from trace: {:?}",
                out.trace.stages
            );
        }
        assert!(out.trace.counter("matcher", "iterations").is_some());
        // ... but no event stream.
        assert!(out.trace.events.is_empty());
    }

    #[test]
    fn enabled_telemetry_streams_gcn_fusion_and_matcher_events() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let sink = Arc::new(InMemorySink::default());
        let input =
            EaInput::new(&ds.pair, &src, &tgt).with_telemetry(Telemetry::with_sink(sink.clone()));
        let cfg = fast_cfg();
        let out = try_run(&input, &cfg).expect("pipeline runs");
        let epochs: Vec<_> = out
            .trace
            .events_of(EventKind::Gauge, "gcn")
            .filter(|e| e.name == "epoch_loss")
            .collect();
        assert_eq!(epochs.len(), cfg.gcn.epochs, "one loss gauge per epoch");
        assert!(
            out.trace
                .events_of(EventKind::Gauge, "fusion")
                .any(|e| e.name.ends_with("_weight")),
            "fusion weights must be gauged"
        );
        assert!(
            out.trace
                .events_of(EventKind::Counter, "matcher")
                .any(|e| e.name == "iterations"),
            "matcher iterations must be counted"
        );
        // The sink saw the same stream the trace kept.
        assert_eq!(sink.len(), out.trace.events.len());
    }

    #[test]
    fn fourth_feature_joins_adaptive_fusion() {
        // The paper's motivation: the adaptive strategy extends to more
        // features without hand-tuning. Attach the attribute feature and
        // verify the pipeline runs, weights stay on the simplex, and
        // accuracy does not collapse.
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let cfg = fast_cfg();
        let base = FeatureSet::compute_all(&input, &cfg);
        let baseline = run_wf(&ds.pair, &base, &cfg);

        let features = FeatureSet::compute_all(&input, &cfg).with_extra(Box::new(
            crate::features::AttributeFeature::compute(
                &ds.pair,
                &ds.source_attributes,
                &ds.target_attributes,
            ),
        ));
        let out = run_wf(&ds.pair, &features, &cfg);
        let trep = out.textual_fusion.expect("textual stage ran");
        assert_eq!(trep.weights.len(), 3, "semantic + string + attribute");
        let total: f32 = trep.weights.iter().sum();
        assert!((total - 1.0).abs() < 1e-4);
        assert!(
            out.accuracy >= baseline.accuracy - 0.1,
            "a weak fourth feature must not wreck fusion: {} vs {}",
            out.accuracy,
            baseline.accuracy
        );

        // Equal and LR modes also accept the fourth feature.
        let eq = run_wf(&ds.pair, &features, &cfg.clone().without_adaptive_fusion());
        assert_eq!(eq.flat_weights.as_ref().map(Vec::len), Some(4));
        let lr = run_wf(
            &ds.pair,
            &features,
            &cfg.clone().with_lr_weighting(crate::lr::LrConfig {
                epochs: 50,
                ..Default::default()
            }),
        );
        assert_eq!(lr.flat_weights.as_ref().map(Vec::len), Some(4));
    }

    #[test]
    fn csls_option_runs_and_preserves_shapes() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let cfg = fast_cfg().with_csls(10);
        assert_eq!(cfg.csls, Some(10));
        let features = FeatureSet::compute_all(&input, &cfg);
        let out = run_wf(&ds.pair, &features, &cfg);
        assert_eq!(out.fused.sources(), ds.pair.test_pairs().len());
        assert!(out.accuracy > 0.3, "CSLS run accuracy {}", out.accuracy);
    }

    #[test]
    fn greedy_one_to_one_matcher_is_one_to_one() {
        let ds = dataset();
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let mut cfg = fast_cfg();
        cfg.matcher = MatcherKind::GreedyOneToOne;
        let features = FeatureSet::compute_all(&input, &cfg);
        let out = run_wf(&ds.pair, &features, &cfg);
        assert!(out.matching.is_one_to_one());
        assert_eq!(out.matching.len(), ds.pair.test_pairs().len());
    }

    #[test]
    fn mono_lingual_preset_reaches_high_accuracy() {
        // The headline mono-lingual result (Table IV): with the string
        // feature and collective matching, accuracy approaches 1.
        let ds = Preset::SrprsDbpWd.generate(0.15);
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let input = EaInput::new(&ds.pair, &src, &tgt);
        let cfg = fast_cfg();
        let features = FeatureSet::compute_all(&input, &cfg);
        let out = run_wf(&ds.pair, &features, &cfg);
        assert!(
            out.accuracy > 0.9,
            "mono-lingual CEAFF accuracy {} below 0.9",
            out.accuracy
        );
    }
}
