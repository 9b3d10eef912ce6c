//! The structural feature `Ms` (paper §IV-A): cosine similarity of
//! GCN-encoded entity embeddings.

use super::Feature;
use crate::budget::ExecBudget;
use crate::checkpoint::Checkpointer;
use crate::error::CeaffError;
use crate::gcn::{self, GcnConfig, GcnEncoder};
use ceaff_graph::{EntityId, KgPair};
use ceaff_sim::{CandidateSet, SimStore};
use ceaff_telemetry::Telemetry;
use ceaff_tensor::Matrix;

/// A trained structural feature.
#[derive(Debug, Clone)]
pub struct StructuralFeature {
    /// L2-row-normalised source embeddings (all entities).
    z_source: Matrix,
    /// L2-row-normalised target embeddings (all entities).
    z_target: Matrix,
    test: SimStore,
    /// The encoder's training-loss trajectory (diagnostics).
    pub loss_curve: Vec<f32>,
}

impl StructuralFeature {
    /// Train the GCN on `pair`'s seeds and compute the test matrix.
    pub fn compute(pair: &KgPair, cfg: &GcnConfig) -> Self {
        Self::compute_traced(pair, cfg, &Telemetry::disabled())
    }

    /// [`StructuralFeature::compute`] with telemetry: encoder training is
    /// timed under the `"gcn"` stage and emits per-epoch loss gauges.
    ///
    /// # Panics
    /// Panics when GCN training fails (see [`StructuralFeature::try_compute`]).
    pub fn compute_traced(pair: &KgPair, cfg: &GcnConfig, telemetry: &Telemetry) -> Self {
        Self::try_compute(pair, cfg, telemetry, None, &ExecBudget::unlimited(), None)
            .expect("GCN training failed")
    }

    /// [`StructuralFeature::compute_traced`] over a blocked candidate set.
    ///
    /// # Panics
    /// Panics when GCN training fails (see [`StructuralFeature::try_compute`]).
    pub fn compute_traced_blocked(
        pair: &KgPair,
        cfg: &GcnConfig,
        telemetry: &Telemetry,
        candidates: &CandidateSet,
        k: usize,
    ) -> Self {
        let blocked = Some((candidates, k));
        Self::try_compute(
            pair,
            cfg,
            telemetry,
            None,
            &ExecBudget::unlimited(),
            blocked,
        )
        .expect("GCN training failed")
    }

    /// Train the GCN (timed under the `"gcn"` stage) and score the test
    /// split. Numeric divergence comes back as a typed error.
    ///
    /// * `checkpointer` — the GCN saves and resumes its training state
    ///   there;
    /// * `budget` — training consumes one step per epoch and stops early
    ///   (at the best snapshot so far, with a degradation record) when the
    ///   budget runs out — see
    ///   [`gcn::try_train_budgeted`](crate::gcn::try_train_budgeted);
    /// * `blocked` — score only these candidate pairs, keeping `k` per row
    ///   in a sparse top-k store, instead of the dense `O(n·t)` cosine
    ///   matrix. Training cost is unchanged.
    pub fn try_compute(
        pair: &KgPair,
        cfg: &GcnConfig,
        telemetry: &Telemetry,
        checkpointer: Option<&Checkpointer>,
        budget: &ExecBudget,
        blocked: Option<(&CandidateSet, usize)>,
    ) -> Result<Self, CeaffError> {
        let encoder = gcn::try_train_budgeted(pair, cfg, telemetry, checkpointer, budget)?;
        Ok(Self::from_encoder_scoring(pair, encoder, blocked))
    }

    /// Build from an already-trained encoder (lets callers reuse one
    /// training run across ablations).
    pub fn from_encoder(pair: &KgPair, encoder: GcnEncoder) -> Self {
        Self::from_encoder_scoring(pair, encoder, None)
    }

    /// [`StructuralFeature::from_encoder`], scoring only the blocked
    /// candidate pairs.
    pub fn from_encoder_blocked(
        pair: &KgPair,
        encoder: GcnEncoder,
        candidates: &CandidateSet,
        k: usize,
    ) -> Self {
        Self::from_encoder_scoring(pair, encoder, Some((candidates, k)))
    }

    /// L2-normalise the encoder's embeddings and score the test split:
    /// every pair into a dense cosine matrix, or only the `blocked`
    /// candidate pairs into a sparse top-k store.
    pub(crate) fn from_encoder_scoring(
        pair: &KgPair,
        encoder: GcnEncoder,
        blocked: Option<(&CandidateSet, usize)>,
    ) -> Self {
        let GcnEncoder {
            mut z_source,
            mut z_target,
            loss_curve,
        } = encoder;
        z_source.l2_normalize_rows();
        z_target.l2_normalize_rows();
        let test = super::score_test_split(pair, &z_source, &z_target, blocked);
        Self {
            z_source,
            z_target,
            test,
            loss_curve,
        }
    }

    /// Assemble from computed parts without recomputing anything: the
    /// constructor of checkpoint restores, warm snapshots and the delta
    /// pipeline. The embeddings must carry the L2 row normalisation
    /// [`StructuralFeature::from_encoder`] applies — re-normalising an
    /// already-normalised matrix is *not* bitwise-stable, and a restored
    /// feature must be bit-identical to the one that was saved.
    pub fn from_store_parts(
        z_source: Matrix,
        z_target: Matrix,
        test: SimStore,
        loss_curve: Vec<f32>,
    ) -> Self {
        Self {
            z_source,
            z_target,
            test,
            loss_curve,
        }
    }

    /// The embeddings and test store, for the delta pipeline's in-place
    /// commit (same normalisation contract as
    /// [`StructuralFeature::from_store_parts`]).
    pub(crate) fn parts_mut(&mut self) -> (&mut Matrix, &mut Matrix, &mut SimStore) {
        (&mut self.z_source, &mut self.z_target, &mut self.test)
    }

    /// The full (all-entity) source embedding matrix.
    pub fn source_embeddings(&self) -> &Matrix {
        &self.z_source
    }

    /// The full (all-entity) target embedding matrix.
    pub fn target_embeddings(&self) -> &Matrix {
        &self.z_target
    }
}

impl Feature for StructuralFeature {
    fn name(&self) -> &'static str {
        "structural"
    }

    fn test_store(&self) -> &SimStore {
        &self.test
    }

    fn score(&self, u: EntityId, v: EntityId) -> f32 {
        super::embedding_score(self.z_source.row(u.index()), self.z_target.row(v.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::test_support::{dataset, diagonal_margin};
    use ceaff_datagen::NameChannel;

    fn cfg() -> GcnConfig {
        GcnConfig {
            dim: 32,
            epochs: 60,
            ..GcnConfig::default()
        }
    }

    #[test]
    fn test_matrix_separates_ground_truth() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let f = StructuralFeature::compute(&ds.pair, &cfg());
        let margin = diagonal_margin(f.test_store());
        assert!(
            margin > 0.05,
            "structural diagonal margin too small: {margin}"
        );
    }

    #[test]
    fn score_is_consistent_with_test_matrix() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let f = StructuralFeature::compute(&ds.pair, &cfg());
        let sources = ds.pair.test_sources();
        let targets = ds.pair.test_targets();
        for i in [0usize, 3, 7] {
            for j in [0usize, 5] {
                let expect = f.test_store().get(i, j);
                let got = f.score(sources[i], targets[j]);
                assert!((expect - got).abs() < 1e-4, "mismatch at ({i},{j})");
            }
        }
    }

    #[test]
    fn matrix_dimensions_match_test_split() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let f = StructuralFeature::compute(&ds.pair, &cfg());
        assert_eq!(f.test_store().sources(), ds.pair.test_pairs().len());
        assert_eq!(f.test_store().targets(), ds.pair.test_pairs().len());
    }
}
