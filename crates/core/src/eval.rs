//! Evaluation metrics (paper §VII-A).
//!
//! The paper's primary metric is **accuracy**: correctly aligned source
//! entities over all source entities (equivalent to Hits@1 when decisions
//! are independent). For the ranking-style evaluation of Table VI, Hits@k
//! and mean reciprocal rank (MRR) are computed from similarity stores.
//!
//! Throughout, matrices and matchings are in *test order*: source `i`'s
//! ground-truth counterpart is target `i` (the construction of
//! [`ceaff_graph::KgPair::test_sources`] / `test_targets` guarantees this).

use crate::matching::Matching;
use ceaff_sim::SimStore;

/// Accuracy of a matching against the diagonal ground truth: the number of
/// source entities matched to their true counterpart, divided by the total
/// number of source entities (`n_sources`, not just the matched ones —
/// unmatched sources count as wrong).
pub fn accuracy(matching: &Matching, n_sources: usize) -> f64 {
    if n_sources == 0 {
        return 0.0;
    }
    let correct = matching.pairs().iter().filter(|&&(i, j)| i == j).count();
    correct as f64 / n_sources as f64
}

/// Precision / recall / F1 of a (possibly partial) matching against the
/// diagonal ground truth. With a full matching these all equal
/// [`accuracy`]; they diverge once [`crate::Matching::filter_by_threshold`]
/// abstains on low-confidence pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrecisionRecall {
    /// Correct matched pairs / all matched pairs.
    pub precision: f64,
    /// Correct matched pairs / all ground-truth pairs (`n_sources`).
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

/// Compute precision/recall/F1 against the diagonal ground truth.
pub fn precision_recall(matching: &Matching, n_sources: usize) -> PrecisionRecall {
    let correct = matching.pairs().iter().filter(|&&(i, j)| i == j).count() as f64;
    let matched = matching.len() as f64;
    let precision = if matched > 0.0 {
        correct / matched
    } else {
        0.0
    };
    let recall = if n_sources > 0 {
        correct / n_sources as f64
    } else {
        0.0
    };
    let f1 = if precision + recall > 0.0 {
        2.0 * precision * recall / (precision + recall)
    } else {
        0.0
    };
    PrecisionRecall {
        precision,
        recall,
        f1,
    }
}

/// A bundle of the ranking metrics the paper reports in Table VI.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankingMetrics {
    /// Hits@1 (the accuracy of independent decisions).
    pub hits1: f64,
    /// Hits@10.
    pub hits10: f64,
    /// Mean reciprocal rank.
    pub mrr: f64,
}

/// Hits@k: the fraction of source rows whose ground-truth target ranks
/// within the top `k`. The sparse backend ranks the ground-truth cell
/// against stored entries plus the implicit zeros
/// ([`ceaff_sim::SparseTopK::rank_of`]), so on a complete store it equals
/// the dense rank exactly; on a blocked store a truth pair pruned by the
/// candidate stage ranks behind every stored entry — blocking recall losses
/// show up in the metric instead of being silently forgiven.
pub fn hits_at_k_store(s: &SimStore, k: usize) -> f64 {
    if s.sources() == 0 {
        return 0.0;
    }
    let hits = (0..s.sources())
        .filter(|&i| i < s.targets() && s.rank_of(i, i) <= k)
        .count();
    hits as f64 / s.sources() as f64
}

/// Mean reciprocal rank of the ground-truth target (see
/// [`hits_at_k_store`] for the sparse ranking semantics).
pub fn mrr_store(s: &SimStore) -> f64 {
    if s.sources() == 0 {
        return 0.0;
    }
    let total: f64 = (0..s.sources())
        .map(|i| {
            if i < s.targets() {
                1.0 / s.rank_of(i, i) as f64
            } else {
                0.0
            }
        })
        .sum();
    total / s.sources() as f64
}

/// Compute Hits@1/Hits@10/MRR in one call.
pub fn ranking_metrics_store(s: &SimStore) -> RankingMetrics {
    RankingMetrics {
        hits1: hits_at_k_store(s, 1),
        hits10: hits_at_k_store(s, 10),
        mrr: mrr_store(s),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceaff_sim::SimilarityMatrix;
    use ceaff_tensor::Matrix;

    #[test]
    fn accuracy_counts_diagonal_matches() {
        // (0,0) and (2,2) are correct; (1,2) is not.
        let m = Matching::from_pairs(vec![(0, 0), (1, 2), (2, 2)]);
        assert!((accuracy(&m, 3) - 2.0 / 3.0).abs() < 1e-9);
        // Unmatched sources lower the accuracy.
        let m = Matching::from_pairs(vec![(0, 0)]);
        assert!((accuracy(&m, 4) - 0.25).abs() < 1e-9);
        assert_eq!(accuracy(&Matching::from_pairs(vec![]), 0), 0.0);
    }

    fn toy_matrix() -> SimStore {
        // Ground truth = diagonal. Row 0: truth ranked 1; row 1: ranked 2;
        // row 2: ranked 3.
        SimStore::Dense(SimilarityMatrix::new(Matrix::from_rows(&[
            &[0.9, 0.1, 0.1],
            &[0.8, 0.5, 0.1],
            &[0.9, 0.8, 0.3],
        ])))
    }

    #[test]
    fn precision_recall_on_partial_matching() {
        // 2 matched (1 correct) out of 4 ground-truth pairs.
        let m = Matching::from_pairs(vec![(0, 0), (1, 2)]);
        let pr = precision_recall(&m, 4);
        assert!((pr.precision - 0.5).abs() < 1e-9);
        assert!((pr.recall - 0.25).abs() < 1e-9);
        assert!((pr.f1 - (2.0 * 0.5 * 0.25 / 0.75)).abs() < 1e-9);
        // Empty matching.
        let pr = precision_recall(&Matching::from_pairs(vec![]), 4);
        assert_eq!(pr.precision, 0.0);
        assert_eq!(pr.f1, 0.0);
        // Full correct matching: all three metrics coincide with accuracy.
        let m = Matching::from_pairs(vec![(0, 0), (1, 1)]);
        let pr = precision_recall(&m, 2);
        assert_eq!(pr.precision, 1.0);
        assert_eq!(pr.recall, 1.0);
        assert_eq!(pr.f1, 1.0);
    }

    #[test]
    fn hits_at_k_thresholds() {
        let m = toy_matrix();
        assert!((hits_at_k_store(&m, 1) - 1.0 / 3.0).abs() < 1e-9);
        assert!((hits_at_k_store(&m, 2) - 2.0 / 3.0).abs() < 1e-9);
        assert!((hits_at_k_store(&m, 3) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn mrr_matches_hand_computation() {
        let m = toy_matrix();
        let expect = (1.0 + 0.5 + 1.0 / 3.0) / 3.0;
        assert!((mrr_store(&m) - expect).abs() < 1e-9);
    }

    #[test]
    fn perfect_matrix_scores_one() {
        let m = SimStore::Dense(SimilarityMatrix::new(Matrix::from_rows(&[
            &[1.0, 0.0],
            &[0.0, 1.0],
        ])));
        let r = ranking_metrics_store(&m);
        assert_eq!(r.hits1, 1.0);
        assert_eq!(r.hits10, 1.0);
        assert_eq!(r.mrr, 1.0);
    }

    #[test]
    fn empty_matrix_is_zero() {
        let m = SimStore::Dense(SimilarityMatrix::zeros(0, 0));
        assert_eq!(hits_at_k_store(&m, 1), 0.0);
        assert_eq!(mrr_store(&m), 0.0);
    }

    #[test]
    fn complete_sparse_store_ranks_like_dense() {
        use ceaff_sim::SparseTopK;
        let m = toy_matrix();
        let complete = SparseTopK::from_dense(m.as_dense().expect("dense"), 3);
        assert_eq!(
            ranking_metrics_store(&SimStore::Sparse(complete)),
            ranking_metrics_store(&m)
        );
    }

    #[test]
    fn blocked_store_metrics_punish_pruned_truth() {
        use ceaff_sim::SparseTopK;
        // Row 1's truth cell (1,1)=0.5 survives a k=2 cut; row 2's truth
        // (2,2)=0.3 does not — it must rank behind both stored entries
        // *and* tie with the other implicit zero? No other zeros here:
        // rank = 1 + 2 stored greater = 3.
        let m = toy_matrix();
        let blocked = SimStore::Sparse(SparseTopK::from_dense(m.as_dense().expect("dense"), 2));
        let r = ranking_metrics_store(&blocked);
        assert!((r.hits1 - 1.0 / 3.0).abs() < 1e-9);
        let expect_mrr = (1.0 + 0.5 + 1.0 / 3.0) / 3.0;
        assert!((r.mrr - expect_mrr).abs() < 1e-9);
    }

    #[test]
    fn pruned_truth_is_no_hit_behind_negative_scores() {
        use ceaff_sim::SparseTopK;
        // Unnormalised scores can be negative. Row 0's truth (0,0) was
        // pruned; its only candidate scores below zero. The truth must
        // still rank behind it, so Hits@1 credits nothing.
        let blocked = SimStore::Sparse(SparseTopK::from_rows(2, 1, vec![vec![(1, -0.5)]]));
        assert_eq!(hits_at_k_store(&blocked, 1), 0.0);
        assert_eq!(mrr_store(&blocked), 0.5);
    }
}
