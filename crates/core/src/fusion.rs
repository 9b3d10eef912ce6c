//! Adaptive feature fusion (paper §V).
//!
//! Given `k` feature similarity matrices, the strategy assigns each feature
//! a weight *without training data*, in five stages:
//!
//! 1. **Candidate correspondence generation** — a cell that is maximal both
//!    along its row and its column of feature `k`'s matrix is a *candidate
//!    confident correspondence* of feature `k`;
//! 2. **Candidate filtering** — (a) if features disagree about a source
//!    entity, all of that entity's candidates are dropped; (b) a candidate
//!    shared by *all* `k` features is dropped (it cannot characterise any
//!    feature);
//! 3. **Correspondence weights** — an occurrence of a correspondence found
//!    by `n` features weighs `1/n`; an occurrence whose score exceeds `θ1`
//!    weighs `θ2` instead (capping runaway features so "less effective
//!    features can always contribute", §VII-E);
//! 4. **Feature weights** — feature `k`'s weighting score is the sum of its
//!    retained occurrence weights; weights are the normalised scores (equal
//!    weights when nothing is retained);
//! 5. **Fusion** — the weighted sum of the matrices.
//!
//! [`two_stage_fuse_store`] applies the paper's composition: semantic and
//! string matrices fuse into a textual matrix first, which then fuses with
//! the structural matrix (§V, "Feature Fusion with Adaptive Weight").

use ceaff_sim::{SimStore, SimilarityMatrix};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap};

/// Thresholds of the adaptive strategy. Paper defaults: `θ1 = 0.98`,
/// `θ2 = 0.1`, tuned on a validation set (§VII-A).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct FusionConfig {
    /// Scores above this are considered "extremely high" and down-weighted.
    pub theta1: f32,
    /// The weight assigned to such extremely-high-score occurrences.
    pub theta2: f32,
    /// Disables the θ1/θ2 cap (the "w/o θ1, θ2" ablation of Table V).
    pub cap_enabled: bool,
}

impl Default for FusionConfig {
    fn default() -> Self {
        Self {
            theta1: 0.98,
            theta2: 0.1,
            cap_enabled: true,
        }
    }
}

/// One candidate confident correspondence.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Candidate {
    /// Source row.
    pub source: usize,
    /// Target column.
    pub target: usize,
    /// The score in the producing feature's matrix.
    pub score: f32,
}

/// Diagnostic record of one fusion run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FusionReport {
    /// Final normalised feature weights (sum to 1).
    pub weights: Vec<f32>,
    /// Candidate counts per feature before filtering.
    pub candidates_per_feature: Vec<usize>,
    /// Retained (post-filter) occurrence counts per feature.
    pub retained_per_feature: Vec<usize>,
    /// Whether the equal-weight fallback fired (nothing retained).
    pub fallback_equal: bool,
}

/// Stage 1: the candidate confident correspondences of one feature store —
/// cells maximal along both their row and their column. The double-max
/// constraint is deliberately strong; such cells are very likely correct
/// matches (§V). A sparse store reads row maxima from the stored rows
/// (first entry — canonical order) and column maxima from a single pass
/// over the stored cells, so it costs `O(nnz)` instead of
/// `O(sources × targets)`. Tie-breaks agree across backends (lowest column
/// along a row, lowest row along a column), so a complete store yields the
/// dense candidate set.
pub fn confident_correspondences_store(s: &SimStore) -> Vec<Candidate> {
    if s.sources() == 0 || s.targets() == 0 {
        return Vec::new();
    }
    match s {
        SimStore::Dense(m) => {
            let row_best = m.row_argmaxes();
            let col_best = m.col_argmaxes();
            (0..m.sources())
                .filter_map(|i| {
                    let j = row_best[i];
                    (col_best[j] == i).then(|| Candidate {
                        source: i,
                        target: j,
                        score: m.get(i, j),
                    })
                })
                .collect()
        }
        SimStore::Sparse(sp) => {
            let col_best = sp.col_best();
            (0..sp.sources())
                .filter_map(|i| {
                    let j = sp.row_argmax(i)?;
                    match col_best[j] {
                        Some((bi, score)) if bi == i => Some(Candidate {
                            source: i,
                            target: j,
                            score,
                        }),
                        _ => None,
                    }
                })
                .collect()
        }
    }
}

/// Stages 2–4: filter the per-feature candidate sets and turn the
/// retained occurrences into normalised feature weights.
fn weights_from_candidates(per_feature: &[Vec<Candidate>], cfg: &FusionConfig) -> FusionReport {
    let k = per_feature.len();
    let candidates_per_feature: Vec<usize> = per_feature.iter().map(Vec::len).collect();
    if k == 1 {
        return FusionReport {
            weights: vec![1.0],
            candidates_per_feature,
            retained_per_feature: vec![0],
            fallback_equal: false,
        };
    }

    // Stage 2a: drop every candidate of a source entity on which features
    // conflict (propose different targets).
    let mut target_of: HashMap<usize, usize> = HashMap::new();
    let mut conflicted: std::collections::HashSet<usize> = std::collections::HashSet::new();
    for cands in per_feature {
        for c in cands {
            match target_of.get(&c.source) {
                Some(&t) if t != c.target => {
                    conflicted.insert(c.source);
                }
                _ => {
                    target_of.insert(c.source, c.target);
                }
            }
        }
    }
    // Stage 2b: count how many features produced each (source, target) pair;
    // pairs produced by all k features are dropped.
    let mut appearances: HashMap<(usize, usize), usize> = HashMap::new();
    for cands in per_feature {
        for c in cands {
            *appearances.entry((c.source, c.target)).or_insert(0) += 1;
        }
    }

    // Stages 3–4.
    let mut scores = vec![0.0f64; k];
    let mut retained_per_feature = vec![0usize; k];
    for (f, cands) in per_feature.iter().enumerate() {
        for c in cands {
            if conflicted.contains(&c.source) {
                continue;
            }
            let n = appearances[&(c.source, c.target)];
            if n == k {
                continue; // shared by every feature: characterises none
            }
            let w = if cfg.cap_enabled && c.score > cfg.theta1 {
                cfg.theta2
            } else {
                1.0 / n as f32
            };
            scores[f] += w as f64;
            retained_per_feature[f] += 1;
        }
    }
    let total: f64 = scores.iter().sum();
    let (weights, fallback_equal) = if total > 0.0 {
        (scores.iter().map(|&s| (s / total) as f32).collect(), false)
    } else {
        (vec![1.0 / k as f32; k], true)
    };
    FusionReport {
        weights,
        candidates_per_feature,
        retained_per_feature,
        fallback_equal,
    }
}

/// Stages 1–4: compute adaptive feature weights for `stores`, stage 1 by
/// [`confident_correspondences_store`].
///
/// Returns the normalised weights and the diagnostic report.
///
/// # Panics
/// Panics if `stores` is empty or shapes disagree.
pub fn adaptive_weights_store(stores: &[&SimStore], cfg: &FusionConfig) -> FusionReport {
    assert!(!stores.is_empty(), "need at least one feature store");
    let shape = (stores[0].sources(), stores[0].targets());
    assert!(
        stores.iter().all(|s| (s.sources(), s.targets()) == shape),
        "all feature stores must share one shape"
    );
    let per_feature: Vec<Vec<Candidate>> = stores
        .iter()
        .map(|s| confident_correspondences_store(s))
        .collect();
    weights_from_candidates(&per_feature, cfg)
}

/// Stage 5: the weighted sum of the stores. All-dense inputs sum densely
/// (the golden path). Otherwise the result is sparse: each row is the
/// union of the inputs' stored candidates, every cell accumulated in
/// feature order — the same per-cell f32 addition sequence the dense sweep
/// performs — so complete stores fuse bitwise-identically to dense. Rows
/// fan out across the pool; per-row work is sequential, keeping the result
/// independent of thread count.
///
/// # Panics
/// Panics if lengths or shapes disagree.
pub fn fuse_store(stores: &[&SimStore], weights: &[f32]) -> SimStore {
    use ceaff_sim::{SimScores, SparseTopK};
    assert_eq!(stores.len(), weights.len(), "one weight per store");
    assert!(!stores.is_empty(), "need at least one store");
    let (n, t) = (stores[0].sources(), stores[0].targets());
    assert!(
        stores.iter().all(|s| (s.sources(), s.targets()) == (n, t)),
        "all feature stores must share one shape"
    );
    if stores.iter().all(|s| !s.is_sparse()) {
        let mut out = SimilarityMatrix::zeros(n, t);
        for (s, &w) in stores.iter().zip(weights) {
            out.add_scaled(s.as_dense().expect("all-dense checked above"), w);
        }
        return SimStore::Dense(out);
    }
    let build = |i: usize| -> Vec<(u32, f32)> {
        // BTreeMap keys the union of this row's candidate columns; values
        // accumulate contributions strictly in feature order.
        let mut acc: BTreeMap<u32, f32> = BTreeMap::new();
        for (s, &w) in stores.iter().zip(weights) {
            s.for_each_row_entry(i, &mut |c, v| {
                *acc.entry(c as u32).or_insert(0.0) += w * v;
            });
        }
        acc.into_iter().collect()
    };
    let rows: Vec<Vec<(u32, f32)>> = if n < 64 {
        (0..n).map(build).collect()
    } else {
        ceaff_parallel::par_map(n, 16, build)
    };
    let k = rows.iter().map(Vec::len).max().unwrap_or(0).max(1);
    SimStore::Sparse(SparseTopK::from_rows(t, k, rows))
}

/// Adaptive fusion in one call: weights from [`adaptive_weights_store`],
/// result from [`fuse_store`].
///
/// ```
/// use ceaff_core::fusion::{adaptive_fuse_store, FusionConfig};
/// use ceaff_sim::{SimStore, SimilarityMatrix};
/// use ceaff_tensor::Matrix;
///
/// // One sharp feature, one flat feature: the sharp one earns the weight.
/// let store = |rows: &[&[f32]]| SimStore::Dense(SimilarityMatrix::new(Matrix::from_rows(rows)));
/// let sharp = store(&[&[0.9, 0.0], &[0.0, 0.9]]);
/// let flat = store(&[&[0.5, 0.5], &[0.5, 0.5]]);
/// let (fused, report) = adaptive_fuse_store(&[&sharp, &flat], &FusionConfig::default());
/// assert!(report.weights[0] > report.weights[1]);
/// assert_eq!(fused.sources(), 2);
/// ```
pub fn adaptive_fuse_store(stores: &[&SimStore], cfg: &FusionConfig) -> (SimStore, FusionReport) {
    let report = adaptive_weights_store(stores, cfg);
    (fuse_store(stores, &report.weights), report)
}

/// The paper's two-stage composition: `Mn + Ml → Mt`, then `Ms + Mt → M`,
/// each stage through [`adaptive_fuse_store`].
///
/// "Compared with fusing all features simultaneously, our proposed
/// two-stage fusion framework can better adjust weight assignment" (§V).
/// Any of the three inputs may be absent (the feature ablations of
/// Table V); with a single present input it is returned unchanged. Sparse
/// inputs keep the result sparse end to end.
///
/// Returns the fused store plus the reports of the textual and final
/// stages (when they ran).
pub fn two_stage_fuse_store(
    structural: Option<&SimStore>,
    semantic: Option<&SimStore>,
    string: Option<&SimStore>,
    cfg: &FusionConfig,
) -> (SimStore, Option<FusionReport>, Option<FusionReport>) {
    let textual: Option<(SimStore, Option<FusionReport>)> = match (semantic, string) {
        (Some(n), Some(l)) => {
            let (t, rep) = adaptive_fuse_store(&[n, l], cfg);
            Some((t, Some(rep)))
        }
        (Some(n), None) => Some((n.clone(), None)),
        (None, Some(l)) => Some((l.clone(), None)),
        (None, None) => None,
    };
    match (structural, textual) {
        (Some(s), Some((t, trep))) => {
            let (m, rep) = adaptive_fuse_store(&[s, &t], cfg);
            (m, trep, Some(rep))
        }
        (Some(s), None) => (s.clone(), None, None),
        (None, Some((t, trep))) => (t, trep, None),
        (None, None) => panic!("two_stage_fuse_store needs at least one feature store"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceaff_tensor::Matrix;
    use proptest::prelude::*;

    fn sm(rows: &[&[f32]]) -> SimStore {
        SimStore::Dense(SimilarityMatrix::new(Matrix::from_rows(rows)))
    }

    /// A complete sparse copy of a dense store.
    fn complete(s: &SimStore) -> SimStore {
        let m = s.as_dense().expect("dense");
        SimStore::Sparse(ceaff_sim::SparseTopK::from_dense(m, m.targets()))
    }

    #[test]
    fn confident_correspondences_exact() {
        // (0,0)=0.9 is maximal in both its row and its column -> candidate.
        // Row 1's max (0.7) sits in column 0, whose column max is row 0, so
        // row 1 contributes nothing: the double-max constraint is strong.
        let m = sm(&[&[0.9, 0.1], &[0.7, 0.2]]);
        let c = confident_correspondences_store(&m);
        assert_eq!(c.len(), 1);
        assert_eq!((c[0].source, c[0].target, c[0].score), (0, 0, 0.9));

        // A diagonal-dominant matrix yields one candidate per row.
        let m = sm(&[&[0.9, 0.0], &[0.0, 0.8]]);
        let c = confident_correspondences_store(&m);
        assert_eq!(c.len(), 2);
    }

    /// The paper's Figure 3 walk-through, with matrices constructed to
    /// produce exactly the figure's candidate sets:
    /// Ms → {(u2,v2,1.0), (u3,v3,0.4)}, Mn → {(u1,v1,1.0), (u2,v2,1.0)},
    /// Ml → {(u1,v1,0.6), (u2,v3,0.6)}.
    ///
    /// Filtering drops all u2 candidates (Ms/Mn say v2, Ml says v3).
    /// (u3,v3) is unique to Ms → weight 1. (u1,v1) is shared by Mn and Ml →
    /// 1/2 each, but the Mn occurrence scores 1.0 > θ1 → θ2.
    /// Final scores: Ms = 1, Mn = θ2, Ml = 0.5; weights are their
    /// normalisation — exactly the figure's
    /// 1/(1+0.5+θ2), θ2/(1+0.5+θ2), 0.5/(1+0.5+θ2).
    #[test]
    fn figure3_walkthrough() {
        let ms = sm(&[&[0.6, 0.5, 0.2], &[0.7, 1.0, 0.1], &[0.2, 0.2, 0.4]]);
        let mn = sm(&[&[1.0, 0.5, 0.1], &[0.5, 1.0, 0.2], &[0.2, 0.2, 0.15]]);
        let ml = sm(&[&[0.6, 0.5, 0.4], &[0.1, 0.3, 0.6], &[0.4, 0.4, 0.3]]);
        // Verify the candidate sets match the figure.
        let cs: Vec<_> = confident_correspondences_store(&ms)
            .iter()
            .map(|c| (c.source, c.target))
            .collect();
        assert_eq!(cs, vec![(1, 1), (2, 2)]);
        let cn: Vec<_> = confident_correspondences_store(&mn)
            .iter()
            .map(|c| (c.source, c.target))
            .collect();
        assert_eq!(cn, vec![(0, 0), (1, 1)]);
        let cl: Vec<_> = confident_correspondences_store(&ml)
            .iter()
            .map(|c| (c.source, c.target))
            .collect();
        assert_eq!(cl, vec![(0, 0), (1, 2)]);

        let cfg = FusionConfig::default(); // θ1 = 0.98, θ2 = 0.1
        let report = adaptive_weights_store(&[&ms, &mn, &ml], &cfg);
        let denom = 1.0 + 0.5 + 0.1;
        let expect = [1.0 / denom, 0.1 / denom, 0.5 / denom];
        for (w, e) in report.weights.iter().zip(expect) {
            assert!((w - e).abs() < 1e-5, "weights {:?}", report.weights);
        }
        assert!(!report.fallback_equal);
        assert_eq!(report.retained_per_feature, vec![1, 1, 1]);
    }

    #[test]
    fn cap_disabled_restores_raw_shares() {
        let ms = sm(&[&[0.6, 0.5, 0.2], &[0.7, 1.0, 0.1], &[0.2, 0.2, 0.4]]);
        let mn = sm(&[&[1.0, 0.5, 0.1], &[0.5, 1.0, 0.2], &[0.2, 0.2, 0.15]]);
        let ml = sm(&[&[0.6, 0.5, 0.4], &[0.1, 0.3, 0.6], &[0.4, 0.4, 0.3]]);
        let cfg = FusionConfig {
            cap_enabled: false,
            ..FusionConfig::default()
        };
        let report = adaptive_weights_store(&[&ms, &mn, &ml], &cfg);
        // Without the cap, Mn's (u1,v1) occurrence weighs 0.5 like Ml's.
        let denom = 1.0 + 0.5 + 0.5;
        let expect = [1.0 / denom, 0.5 / denom, 0.5 / denom];
        for (w, e) in report.weights.iter().zip(expect) {
            assert!((w - e).abs() < 1e-5, "weights {:?}", report.weights);
        }
    }

    #[test]
    fn correspondences_shared_by_all_features_are_dropped() {
        // Both features produce exactly (0,0): nothing characterises either.
        let a = sm(&[&[0.9, 0.1], &[0.2, 0.1]]);
        let b = sm(&[&[0.8, 0.3], &[0.1, 0.2]]);
        // b's candidates: (0,0) and (1,1) — (1,1)=0.2 is row-1 max? 0.2 > 0.1
        // yes, col-1 max? 0.3 > 0.2 no. So only (0,0).
        let report = adaptive_weights_store(&[&a, &b], &FusionConfig::default());
        assert!(report.fallback_equal);
        assert_eq!(report.weights, vec![0.5, 0.5]);
    }

    #[test]
    fn single_feature_gets_full_weight() {
        let a = sm(&[&[0.9, 0.1], &[0.2, 0.8]]);
        let report = adaptive_weights_store(&[&a], &FusionConfig::default());
        assert_eq!(report.weights, vec![1.0]);
    }

    #[test]
    fn fuse_weighted_sum() {
        let a = sm(&[&[1.0, 0.0]]);
        let b = sm(&[&[0.0, 1.0]]);
        let f = fuse_store(&[&a, &b], &[0.75, 0.25]);
        assert!((f.get(0, 0) - 0.75).abs() < 1e-6);
        assert!((f.get(0, 1) - 0.25).abs() < 1e-6);
    }

    #[test]
    fn two_stage_handles_ablations() {
        let s = sm(&[&[0.9, 0.1], &[0.1, 0.8]]);
        let n = sm(&[&[0.7, 0.2], &[0.3, 0.9]]);
        let l = sm(&[&[0.8, 0.0], &[0.0, 0.6]]);
        let (full, trep, frep) =
            two_stage_fuse_store(Some(&s), Some(&n), Some(&l), &FusionConfig::default());
        assert!(trep.is_some());
        assert!(frep.is_some());
        assert_eq!(full.sources(), 2);

        // w/o structural: only the textual stage runs.
        let (_, trep, frep) =
            two_stage_fuse_store(None, Some(&n), Some(&l), &FusionConfig::default());
        assert!(trep.is_some());
        assert!(frep.is_none());

        // w/o semantic and string: the structural matrix passes through.
        let (only_s, trep, frep) =
            two_stage_fuse_store(Some(&s), None, None, &FusionConfig::default());
        assert_eq!(only_s, s);
        assert!(trep.is_none());
        assert!(frep.is_none());
    }

    #[test]
    #[should_panic(expected = "at least one feature")]
    fn two_stage_rejects_empty() {
        let _ = two_stage_fuse_store(None, None, None, &FusionConfig::default());
    }

    #[test]
    fn complete_sparse_fusion_matches_dense_bitwise() {
        let s = sm(&[&[0.9, 0.1, 0.3], &[0.1, 0.8, 0.2], &[0.4, 0.2, 0.7]]);
        let n = sm(&[&[0.7, 0.2, 0.1], &[0.3, 0.9, 0.4], &[0.1, 0.5, 0.6]]);
        let l = sm(&[&[0.8, 0.0, 0.2], &[0.0, 0.6, 0.1], &[0.2, 0.3, 0.9]]);
        let cfg = FusionConfig::default();
        let (dense, _, _) = two_stage_fuse_store(Some(&s), Some(&n), Some(&l), &cfg);
        let (sparse, _, _) = two_stage_fuse_store(
            Some(&complete(&s)),
            Some(&complete(&n)),
            Some(&complete(&l)),
            &cfg,
        );
        let fused = sparse.as_sparse().expect("sparse in, sparse out");
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    fused.get(i, j).to_bits(),
                    dense.get(i, j).to_bits(),
                    "cell ({i},{j})"
                );
            }
        }
    }

    #[test]
    fn sparse_confident_correspondences_match_dense_on_complete_store() {
        let m = sm(&[&[0.6, 0.5, 0.2], &[0.7, 1.0, 0.1], &[0.2, 0.2, 0.4]]);
        let dense = confident_correspondences_store(&m);
        let sparse = confident_correspondences_store(&complete(&m));
        assert_eq!(dense, sparse);
    }

    #[test]
    fn blocked_fusion_keeps_the_candidate_union() {
        use ceaff_sim::SparseTopK;
        // Two sparse features with different per-row candidate sets: the
        // fused row must hold their union, accumulated per cell.
        let a = SimStore::Sparse(SparseTopK::from_rows(
            3,
            1,
            vec![vec![(0, 0.9)], vec![(1, 0.8)]],
        ));
        let b = SimStore::Sparse(SparseTopK::from_rows(
            3,
            1,
            vec![vec![(2, 0.5)], vec![(1, 0.4)]],
        ));
        let fused = fuse_store(&[&a, &b], &[0.5, 0.5]);
        let fused = fused.as_sparse().expect("sparse in, sparse out");
        assert_eq!(fused.nnz(), 3);
        assert!((fused.get(0, 0) - 0.45).abs() < 1e-6);
        assert!((fused.get(0, 2) - 0.25).abs() < 1e-6);
        assert!((fused.get(1, 1) - 0.6).abs() < 1e-6);
        assert_eq!(fused.get(0, 1), 0.0, "never a candidate anywhere");
    }

    proptest! {
        /// Adaptive weights always lie on the probability simplex.
        #[test]
        fn weights_form_simplex(
            a in proptest::collection::vec(0.0f32..1.0, 9),
            b in proptest::collection::vec(0.0f32..1.0, 9),
            c in proptest::collection::vec(0.0f32..1.0, 9),
        ) {
            let ma = SimStore::Dense(SimilarityMatrix::new(Matrix::from_vec(3, 3, a)));
            let mb = SimStore::Dense(SimilarityMatrix::new(Matrix::from_vec(3, 3, b)));
            let mc = SimStore::Dense(SimilarityMatrix::new(Matrix::from_vec(3, 3, c)));
            let report = adaptive_weights_store(&[&ma, &mb, &mc], &FusionConfig::default());
            let sum: f32 = report.weights.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "weights {:?}", report.weights);
            prop_assert!(report.weights.iter().all(|&w| (0.0..=1.0 + 1e-6).contains(&w)));
        }

        /// Fusing a matrix with itself under any simplex weights returns it.
        #[test]
        fn self_fusion_is_identity(vals in proptest::collection::vec(0.0f32..1.0, 9), w in 0.0f32..1.0) {
            let m = SimStore::Dense(SimilarityMatrix::new(Matrix::from_vec(3, 3, vals)));
            let f = fuse_store(&[&m, &m], &[w, 1.0 - w]);
            for i in 0..3 {
                for j in 0..3 {
                    prop_assert!((f.get(i, j) - m.get(i, j)).abs() < 1e-5);
                }
            }
        }
    }
}
