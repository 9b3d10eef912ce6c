//! The string feature `Ml` (paper §IV-C): pairwise Levenshtein ratio
//! between entity names, with substitution cost 2 (`lev*`).
//!
//! The paper's argument for this "largely overlooked" feature: it needs no
//! external resources, has no out-of-vocabulary failure mode, and is
//! extremely effective when the two KGs share a script — mono-lingual pairs
//! and close language pairs (§VII-C, §VII-D).

use super::Feature;
use ceaff_graph::{EntityId, KgPair};
use ceaff_sim::{
    levenshtein_ratio, string_similarity_matrix, CandidateSet, SimStore, SimilarityMatrix,
    SparseTopK,
};

/// A computed string feature. Entity names are retained so arbitrary pairs
/// can be scored on demand (used by the logistic-regression baseline).
#[derive(Debug, Clone)]
pub struct StringFeature {
    source_names: Vec<String>,
    target_names: Vec<String>,
    test: SimStore,
}

fn kg_names(pair: &KgPair) -> (Vec<String>, Vec<String>) {
    let source_names: Vec<String> = pair
        .source
        .entity_ids()
        .map(|e| pair.source.entity_name(e).expect("interned").to_owned())
        .collect();
    let target_names: Vec<String> = pair
        .target
        .entity_ids()
        .map(|e| pair.target.entity_name(e).expect("interned").to_owned())
        .collect();
    (source_names, target_names)
}

impl StringFeature {
    /// Compute the dense test-set Levenshtein-ratio matrix.
    pub fn compute(pair: &KgPair) -> Self {
        let (source_names, target_names) = kg_names(pair);
        let src_test: Vec<&str> = pair
            .test_sources()
            .iter()
            .map(|e| source_names[e.index()].as_str())
            .collect();
        let tgt_test: Vec<&str> = pair
            .test_targets()
            .iter()
            .map(|e| target_names[e.index()].as_str())
            .collect();
        let test = SimStore::Dense(string_similarity_matrix(&src_test, &tgt_test));
        Self {
            source_names,
            target_names,
            test,
        }
    }

    /// Compute a sparse test store scoring only the blocked candidate
    /// pairs: `O(|candidates|)` Levenshtein calls instead of the dense
    /// `O(n·t)`. Rows keep at most `k` entries in canonical order.
    pub fn compute_blocked(pair: &KgPair, candidates: &CandidateSet, k: usize) -> Self {
        let (source_names, target_names) = kg_names(pair);
        let src_test: Vec<&str> = pair
            .test_sources()
            .iter()
            .map(|e| source_names[e.index()].as_str())
            .collect();
        let tgt_test: Vec<&str> = pair
            .test_targets()
            .iter()
            .map(|e| target_names[e.index()].as_str())
            .collect();
        let sparse = SparseTopK::from_candidates(candidates, k, |i, j| {
            levenshtein_ratio(src_test[i], tgt_test[j as usize])
        });
        Self {
            source_names,
            target_names,
            test: SimStore::Sparse(sparse),
        }
    }

    /// Rebuild from a checkpointed test matrix. Names are cheap to derive
    /// from the KG pair again; only the O(n²·len²) similarity matrix is
    /// worth saving.
    pub fn from_saved_parts(pair: &KgPair, test: SimilarityMatrix) -> Self {
        let (source_names, target_names) = kg_names(pair);
        Self {
            source_names,
            target_names,
            test: SimStore::Dense(test),
        }
    }

    /// Assemble from an already-patched store (the delta pipeline's
    /// constructor); names are re-derived from the updated pair.
    pub(crate) fn from_store(pair: &KgPair, test: SimStore) -> Self {
        let (source_names, target_names) = kg_names(pair);
        Self {
            source_names,
            target_names,
            test,
        }
    }

    /// The per-entity names and test store, for the delta pipeline's
    /// in-place commit.
    pub(crate) fn parts_mut(&mut self) -> (&mut Vec<String>, &mut Vec<String>, &mut SimStore) {
        (
            &mut self.source_names,
            &mut self.target_names,
            &mut self.test,
        )
    }
}

impl Feature for StringFeature {
    fn name(&self) -> &'static str {
        "string"
    }

    fn test_store(&self) -> &SimStore {
        &self.test
    }

    fn score(&self, u: EntityId, v: EntityId) -> f32 {
        super::name_score(&self.source_names[u.index()], &self.target_names[v.index()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::test_support::{dataset, diagonal_margin};
    use ceaff_datagen::NameChannel;

    #[test]
    fn mono_lingual_string_is_nearly_perfect() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.02 });
        let f = StringFeature::compute(&ds.pair);
        let margin = diagonal_margin(f.test_store());
        assert!(margin > 0.5, "mono string margin too small: {margin}");
        // Diagonal should be ~1.
        let m = f.test_store();
        let mean_diag: f32 =
            (0..m.sources()).map(|i| m.get(i, i)).sum::<f32>() / m.sources() as f32;
        assert!(mean_diag > 0.95, "mean diagonal {mean_diag}");
    }

    #[test]
    fn close_lingual_string_still_separates() {
        let ds = dataset(NameChannel::CloseLingual {
            morph_rate: 0.5,
            replace_rate: 0.2,
        });
        let f = StringFeature::compute(&ds.pair);
        let margin = diagonal_margin(f.test_store());
        assert!(margin > 0.2, "close-lingual string margin: {margin}");
    }

    #[test]
    fn distant_lingual_string_is_useless() {
        let ds = dataset(NameChannel::DistantLingual);
        let f = StringFeature::compute(&ds.pair);
        let margin = diagonal_margin(f.test_store());
        assert!(
            margin.abs() < 0.1,
            "distant-lingual string should carry no signal: {margin}"
        );
    }

    #[test]
    fn score_matches_matrix_and_names() {
        let ds = dataset(NameChannel::Identical { typo_rate: 0.0 });
        let f = StringFeature::compute(&ds.pair);
        let s = ds.pair.test_sources();
        let t = ds.pair.test_targets();
        assert!((f.test_store().get(1, 1) - f.score(s[1], t[1])).abs() < 1e-6);
        // With a zero typo rate aligned names are identical: ratio 1.
        assert_eq!(f.score(s[1], t[1]), 1.0);
    }
}
