//! The semantic feature `Mn` (paper §IV-B): cosine similarity of averaged
//! word-embedding name representations, with cross-lingual names routed
//! through a shared (MUSE-style) space by the caller's choice of embedders.

use super::Feature;
use ceaff_embed::{name_embedding_matrix, WordEmbedder};
use ceaff_graph::{EntityId, KgPair, KnowledgeGraph};
use ceaff_sim::{cosine_similarity_matrix, CandidateSet, SimStore, SimilarityMatrix, SparseTopK};
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

fn all_names(kg: &KnowledgeGraph) -> Vec<&str> {
    kg.entity_ids()
        .map(|e| kg.entity_name(e).expect("interned entity has a name"))
        .collect()
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
        assert_eq!(
            source_embedder.dim(),
            target_embedder.dim(),
            "embedders must share one vector space"
        );
        let mut n_source = name_embedding_matrix(source_embedder, &all_names(&pair.source));
        let mut n_target = name_embedding_matrix(target_embedder, &all_names(&pair.target));
        n_source.l2_normalize_rows();
        n_target.l2_normalize_rows();
        let src_idx: Vec<usize> = pair.test_sources().iter().map(|e| e.index()).collect();
        let tgt_idx: Vec<usize> = pair.test_targets().iter().map(|e| e.index()).collect();
        let test = SimStore::Dense(cosine_similarity_matrix(
            &n_source.gather_rows(&src_idx),
            &n_target.gather_rows(&tgt_idx),
        ));
        Self {
            n_source,
            n_target,
            test,
        }
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
        assert_eq!(
            source_embedder.dim(),
            target_embedder.dim(),
            "embedders must share one vector space"
        );
        let mut n_source = name_embedding_matrix(source_embedder, &all_names(&pair.source));
        let mut n_target = name_embedding_matrix(target_embedder, &all_names(&pair.target));
        n_source.l2_normalize_rows();
        n_target.l2_normalize_rows();
        let src_idx: Vec<usize> = pair.test_sources().iter().map(|e| e.index()).collect();
        let tgt_idx: Vec<usize> = pair.test_targets().iter().map(|e| e.index()).collect();
        let zs = n_source.gather_rows(&src_idx);
        let zt = n_target.gather_rows(&tgt_idx);
        // Rows are unit-normalised, so the dot product is the cosine.
        let sparse = SparseTopK::from_candidates(candidates, k, |i, j| {
            ceaff_tensor::dot(zs.row(i), zt.row(j as usize))
        });
        Self {
            n_source,
            n_target,
            test: SimStore::Sparse(sparse),
        }
    }

    /// Rebuild from checkpointed parts without recomputing anything. The
    /// embedding matrices must already be L2-row-normalised (saved that
    /// way; re-normalising is not bitwise-stable).
    pub fn from_saved_parts(n_source: Matrix, n_target: Matrix, test: SimilarityMatrix) -> Self {
        Self {
            n_source,
            n_target,
            test: SimStore::Dense(test),
        }
    }

    /// Assemble from already-patched parts (the delta pipeline's
    /// constructor). Same normalisation contract as
    /// [`SemanticFeature::from_saved_parts`], but store-shaped so both
    /// the dense and the sparse candidate strategy go through it.
    pub(crate) fn from_store_parts(n_source: Matrix, n_target: Matrix, test: SimStore) -> Self {
        Self {
            n_source,
            n_target,
            test,
        }
    }

    /// The embeddings and test store, for the delta pipeline's in-place
    /// commit (same normalisation contract as
    /// [`SemanticFeature::from_saved_parts`]).
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
