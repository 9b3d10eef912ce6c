//! The semantic feature `Mn` (paper §IV-B): cosine similarity of averaged
//! word-embedding name representations, with cross-lingual names routed
//! through a shared (MUSE-style) space by the caller's choice of embedders.

use super::Feature;
use ceaff_embed::{name_embedding_matrix, WordEmbedder};
use ceaff_graph::{EntityId, KgPair};
use ceaff_sim::{CandidateSet, SimStore};
use ceaff_tensor::Matrix;

/// A computed semantic feature.
#[derive(Debug, Clone)]
pub struct SemanticFeature {
    /// L2-row-normalised name embeddings of every source entity.
    n_source: Matrix,
    /// L2-row-normalised name embeddings of every target entity.
    n_target: Matrix,
    test: SimStore,
}

impl SemanticFeature {
    /// Embed every entity name of both KGs (matrix `N` of the paper) and
    /// compute the test similarity matrix. Fully-out-of-vocabulary names
    /// get zero rows — and hence zero similarity to everything, the
    /// degradation the paper attributes to missing word-embedding entries.
    pub fn compute(
        pair: &KgPair,
        source_embedder: &dyn WordEmbedder,
        target_embedder: &dyn WordEmbedder,
    ) -> Self {
        Self::compute_scoring(pair, source_embedder, target_embedder, None)
    }

    /// Like [`SemanticFeature::compute`], but scores only the blocked
    /// candidate pairs into a sparse top-k store. Name embedding is still
    /// linear in the KG sizes; only the `O(n·t)` pairwise cosine stage is
    /// replaced by `O(|candidates|)` dot products.
    pub fn compute_blocked(
        pair: &KgPair,
        source_embedder: &dyn WordEmbedder,
        target_embedder: &dyn WordEmbedder,
        candidates: &CandidateSet,
        k: usize,
    ) -> Self {
        Self::compute_scoring(
            pair,
            source_embedder,
            target_embedder,
            Some((candidates, k)),
        )
    }

    /// The body of [`SemanticFeature::compute`] and
    /// [`SemanticFeature::compute_blocked`]: `blocked` picks the store.
    pub(crate) fn compute_scoring(
        pair: &KgPair,
        source_embedder: &dyn WordEmbedder,
        target_embedder: &dyn WordEmbedder,
        blocked: Option<(&CandidateSet, usize)>,
    ) -> Self {
        assert_eq!(
            source_embedder.dim(),
            target_embedder.dim(),
            "embedders must share one vector space"
        );
        let mut n_source = name_embedding_matrix(source_embedder, &super::all_names(&pair.source));
        let mut n_target = name_embedding_matrix(target_embedder, &super::all_names(&pair.target));
        n_source.l2_normalize_rows();
        n_target.l2_normalize_rows();
        let test = super::score_test_split(pair, &n_source, &n_target, blocked);
        Self {
            n_source,
            n_target,
            test,
        }
    }

    /// Assemble from computed parts without recomputing anything: the
    /// constructor of checkpoint restores, warm snapshots and the delta
    /// pipeline, under either candidate strategy. The embedding matrices
    /// must already be L2-row-normalised (re-normalising is not
    /// bitwise-stable).
    pub fn from_store_parts(n_source: Matrix, n_target: Matrix, test: SimStore) -> Self {
        Self {
            n_source,
            n_target,
            test,
        }
    }

    /// The embeddings and test store, for the delta pipeline's in-place
    /// commit (same normalisation contract as
    /// [`SemanticFeature::from_store_parts`]).
    pub(crate) fn parts_mut(&mut self) -> (&mut Matrix, &mut Matrix, &mut SimStore) {
        (&mut self.n_source, &mut self.n_target, &mut self.test)
    }

    /// The full source name-embedding matrix `N₁`.
    pub fn source_embeddings(&self) -> &Matrix {
        &self.n_source
    }

    /// The full target name-embedding matrix `N₂`.
    pub fn target_embeddings(&self) -> &Matrix {
        &self.n_target
    }

    /// Fraction of target entities whose name embedded to zero (fully OOV).
    pub fn target_oov_fraction(&self) -> f64 {
        let zero_rows = (0..self.n_target.rows())
            .filter(|&r| self.n_target.row_norm(r) == 0.0)
            .count();
        zero_rows as f64 / self.n_target.rows().max(1) as f64
    }
}

impl Feature for SemanticFeature {
    fn name(&self) -> &'static str {
        "semantic"
    }

    fn test_store(&self) -> &SimStore {
        &self.test
    }

    fn score(&self, u: EntityId, v: EntityId) -> f32 {
        super::embedding_score(self.n_source.row(u.index()), self.n_target.row(v.index()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::test_support::{dataset, diagonal_margin};
    use ceaff_datagen::NameChannel;

    #[test]
    fn mono_lingual_names_separate_strongly() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let f = SemanticFeature::compute(&ds.pair, &src, &tgt);
        let margin = diagonal_margin(f.test_store());
        assert!(margin > 0.3, "semantic margin too small: {margin}");
    }

    #[test]
    fn distant_lingual_works_through_the_lexicon() {
        let ds = dataset(NameChannel::DistantLingual);
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(32);
        let f = SemanticFeature::compute(&ds.pair, &src, &tgt);
        let margin = diagonal_margin(f.test_store());
        assert!(
            margin > 0.2,
            "cross-lingual semantic margin too small: {margin}"
        );
    }

    #[test]
    fn oov_fraction_grows_as_coverage_shrinks() {
        let mut lo = ceaff_datagen::GenConfig {
            aligned_entities: 120,
            channel: NameChannel::DistantLingual,
            lexicon_coverage: 0.3,
            vocab_size: 400,
            ..ceaff_datagen::GenConfig::default()
        };
        let ds_lo = ceaff_datagen::generate(&lo);
        lo.lexicon_coverage = 1.0;
        let ds_hi = ceaff_datagen::generate(&lo);
        let f_lo = SemanticFeature::compute(
            &ds_lo.pair,
            &ds_lo.source_embedder(16),
            &ds_lo.target_embedder(16),
        );
        let f_hi = SemanticFeature::compute(
            &ds_hi.pair,
            &ds_hi.source_embedder(16),
            &ds_hi.target_embedder(16),
        );
        assert!(
            f_lo.target_oov_fraction() > f_hi.target_oov_fraction(),
            "lower lexicon coverage must raise OOV: {} vs {}",
            f_lo.target_oov_fraction(),
            f_hi.target_oov_fraction()
        );
    }

    #[test]
    fn score_matches_matrix() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.02 });
        let f =
            SemanticFeature::compute(&ds.pair, &ds.source_embedder(32), &ds.target_embedder(32));
        let s = ds.pair.test_sources();
        let t = ds.pair.test_targets();
        assert!((f.test_store().get(2, 4) - f.score(s[2], t[4])).abs() < 1e-4);
    }

    #[test]
    #[should_panic(expected = "share one vector space")]
    fn dimension_mismatch_rejected() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let src = ds.source_embedder(32);
        let tgt = ds.target_embedder(16);
        let _ = SemanticFeature::compute(&ds.pair, &src, &tgt);
    }
}
