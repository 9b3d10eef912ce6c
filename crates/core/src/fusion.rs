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

use ceaff_sim::{SimScores, SimStore, SimilarityMatrix, SparseTopKBuilder};
use serde::{Deserialize, Serialize};
use std::ops::Range;

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

/// Stages 2–4: filter the per-feature candidate sets over `sources` rows
/// and turn the retained occurrences into normalised feature weights.
///
/// Stage 1 keeps at most one candidate per source and feature (the row's
/// argmax), so for a source the features agree on, a pair's appearance
/// count is simply the number of features proposing that source: both
/// filters are per-source vectors, one pass over the candidates.
fn weights_from_candidates(
    per_feature: &[Vec<Candidate>],
    sources: usize,
    cfg: &FusionConfig,
) -> FusionReport {
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

    // Stage 2a: a source entity on which features conflict (propose
    // different targets) loses all its candidates. Stage 2b: count the
    // features proposing each source.
    let mut target_of = vec![usize::MAX; sources];
    let mut conflicted = vec![false; sources];
    let mut proposals = vec![0usize; sources];
    for c in per_feature.iter().flatten() {
        let target = &mut target_of[c.source];
        if *target == usize::MAX {
            *target = c.target;
        } else if *target != c.target {
            conflicted[c.source] = true;
        }
        proposals[c.source] += 1;
    }

    // Stages 3–4.
    let mut scores = vec![0.0f64; k];
    let mut retained_per_feature = vec![0usize; k];
    for (f, cands) in per_feature.iter().enumerate() {
        for c in cands {
            if conflicted[c.source] {
                continue;
            }
            let n = proposals[c.source];
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
    weights_from_candidates(&per_feature, shape.0, cfg)
}

/// Rows per task of the sparse weighted sum.
const FUSE_GRAIN: usize = 512;

/// Stage 5: the weighted sum of the stores. All-dense inputs sum densely
/// (the golden path). Otherwise the result is sparse: each row is the
/// union of the inputs' stored candidates, every cell starting at `0.0`
/// and accumulating `w * v` in feature order — the same per-cell f32
/// addition sequence the dense sweep performs — so complete stores fuse
/// bitwise-identically to dense. Rows are accumulated in a per-task
/// column scratch and appended in canonical order straight into the CSR
/// buffers; tasks cover fixed row ranges and per-row work is sequential,
/// keeping the result independent of thread count.
///
/// # Panics
/// Panics if lengths or shapes disagree.
pub fn fuse_store(stores: &[&SimStore], weights: &[f32]) -> SimStore {
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
    let fused = if ceaff_parallel::would_parallelize(n, FUSE_GRAIN) {
        // The sum is not degradable: every task runs even if the caller's
        // cancel probe has fired, so no row range is skipped.
        let _probe_off = crate::budget::uninterruptible_scope();
        ceaff_parallel::par_map(n.div_ceil(FUSE_GRAIN), 1, |c| {
            Some(fuse_rows(
                stores,
                weights,
                c * FUSE_GRAIN..n.min((c + 1) * FUSE_GRAIN),
            ))
        })
        .into_iter()
        .map(|part| part.expect("fusion tasks run under an uninterruptible scope"))
        .reduce(|mut head, part| {
            head.append(part);
            head
        })
        .unwrap_or_else(|| SparseTopKBuilder::with_capacity(t, 0, 0))
    } else {
        fuse_rows(stores, weights, 0..n)
    };
    let k = fused.max_row_len().max(1);
    SimStore::Sparse(fused.finish(k))
}

/// The sparse weighted sum of `rows`, appended in row order.
fn fuse_rows(stores: &[&SimStore], weights: &[f32], rows: Range<usize>) -> SparseTopKBuilder {
    let t = stores[0].targets();
    let mut out = SparseTopKBuilder::with_capacity(t, rows.len(), 0);
    // Column -> its position in `row`, `u32::MAX` when untouched.
    let mut slot = vec![u32::MAX; t];
    let mut row: Vec<(u32, f32)> = Vec::new();
    for i in rows {
        for (s, &w) in stores.iter().zip(weights) {
            s.for_each_row_entry(i, &mut |c, v| {
                if slot[c] == u32::MAX {
                    slot[c] = row.len() as u32;
                    row.push((c as u32, 0.0));
                }
                row[slot[c] as usize].1 += w * v;
            });
        }
        for &(c, _) in &row {
            slot[c as usize] = u32::MAX;
        }
        out.push_canonical(&mut row, usize::MAX);
        row.clear();
    }
    out
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

    /// The pre-CSR sparse arm of [`fuse_store`], kept as the bitwise
    /// reference: a `BTreeMap` per row, rows collected and re-sorted
    /// through `from_rows`.
    fn fuse_store_reference(stores: &[&SimStore], weights: &[f32]) -> SimStore {
        use std::collections::BTreeMap;
        let (n, t) = (stores[0].sources(), stores[0].targets());
        let rows: Vec<Vec<(u32, f32)>> = (0..n)
            .map(|i| {
                let mut acc: BTreeMap<u32, f32> = BTreeMap::new();
                for (s, &w) in stores.iter().zip(weights) {
                    s.for_each_row_entry(i, &mut |c, v| {
                        *acc.entry(c as u32).or_insert(0.0) += w * v;
                    });
                }
                acc.into_iter().collect()
            })
            .collect();
        let k = rows.iter().map(Vec::len).max().unwrap_or(0).max(1);
        SimStore::Sparse(ceaff_sim::SparseTopK::from_rows(t, k, rows))
    }

    /// The pre-vector stages 2–4, kept as the bitwise reference: hash maps
    /// keyed by source and by (source, target) pair.
    fn weights_from_candidates_reference(
        per_feature: &[Vec<Candidate>],
        cfg: &FusionConfig,
    ) -> FusionReport {
        use std::collections::{HashMap, HashSet};
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
        let mut target_of: HashMap<usize, usize> = HashMap::new();
        let mut conflicted: HashSet<usize> = HashSet::new();
        for c in per_feature.iter().flatten() {
            match target_of.get(&c.source) {
                Some(&t) if t != c.target => {
                    conflicted.insert(c.source);
                }
                _ => {
                    target_of.insert(c.source, c.target);
                }
            }
        }
        let mut appearances: HashMap<(usize, usize), usize> = HashMap::new();
        for c in per_feature.iter().flatten() {
            *appearances.entry((c.source, c.target)).or_insert(0) += 1;
        }
        let mut scores = vec![0.0f64; k];
        let mut retained_per_feature = vec![0usize; k];
        for (f, cands) in per_feature.iter().enumerate() {
            for c in cands {
                if conflicted.contains(&c.source) {
                    continue;
                }
                let n = appearances[&(c.source, c.target)];
                if n == k {
                    continue;
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

    /// Scores drawn from a small palette so rows carry ties, negative
    /// scores, both signed zeros and values above θ1.
    const PALETTE: [f32; 8] = [0.0, -0.0, 0.5, 0.5, -0.25, 1.0, 0.99, -1.0];

    /// A dense (`sparse == false`) or sparse store over an `n × t` grid of
    /// `(present, palette index)` cells; a sparse store keeps only present
    /// cells (rows may be empty), capped at `k`.
    fn palette_store(
        sparse: bool,
        n: usize,
        t: usize,
        k: usize,
        cells: &[(u8, usize)],
    ) -> SimStore {
        let cell = |i: usize, j: usize| cells[(i * t + j) % cells.len()];
        if sparse {
            let rows = (0..n)
                .map(|i| {
                    (0..t)
                        .filter(|&j| cell(i, j).0 > 0)
                        .map(|j| (j as u32, PALETTE[cell(i, j).1]))
                        .collect()
                })
                .collect();
            SimStore::Sparse(ceaff_sim::SparseTopK::from_rows(t, k, rows))
        } else {
            let vals = (0..n * t).map(|c| PALETTE[cell(c / t, c % t).1]).collect();
            SimStore::Dense(SimilarityMatrix::new(Matrix::from_vec(n, t, vals)))
        }
    }

    fn assert_fused_bits(got: &SimStore, want: &SimStore) {
        let (got, want) = (
            got.as_sparse().expect("sparse"),
            want.as_sparse().expect("sparse"),
        );
        assert_eq!(
            (got.targets(), got.k(), got.sources()),
            (want.targets(), want.k(), want.sources())
        );
        for i in 0..got.sources() {
            let ((gc, gv), (wc, wv)) = (got.row_entries(i), want.row_entries(i));
            assert_eq!(gc, wc, "row {i} columns");
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(gv), bits(wv), "row {i} scores");
        }
    }

    fn assert_reports_bitwise(got: &FusionReport, want: &FusionReport) {
        let bits = |w: &[f32]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.weights), bits(&want.weights));
        assert_eq!(got.candidates_per_feature, want.candidates_per_feature);
        assert_eq!(got.retained_per_feature, want.retained_per_feature);
        assert_eq!(got.fallback_equal, want.fallback_equal);
    }

    #[test]
    fn multi_task_sparse_fusion_matches_the_reference_at_any_width() {
        // Enough rows for several fusion tasks, so a width above one
        // really splits the rows.
        let (n, t) = (3 * FUSE_GRAIN + 7, 40);
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut cells = || -> Vec<(u8, usize)> {
            (0..n * t)
                .map(|_| (rng.gen_range(0..4u8) / 3, rng.gen_range(0..8)))
                .collect()
        };
        let a = palette_store(true, n, t, 6, &cells());
        let b = palette_store(true, n, t, 9, &cells());
        let weights = [0.625, -0.375];
        let want = fuse_store_reference(&[&a, &b], &weights);
        for threads in [1, 3, ceaff_parallel::current_threads()] {
            let got = ceaff_parallel::with_threads(threads, || fuse_store(&[&a, &b], &weights));
            assert_fused_bits(&got, &want);
        }
        // A caller's fired cancel probe skips no row range.
        let _fired = ceaff_parallel::install_cancel_probe(std::sync::Arc::new(|| true));
        let got = ceaff_parallel::with_threads(3, || fuse_store(&[&a, &b], &weights));
        assert_fused_bits(&got, &want);
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

        /// The flat-accumulation sparse sum equals the `BTreeMap`
        /// reference bit for bit over mixed dense and sparse inputs with
        /// ties, negative scores, signed zeros, empty rows and any weights.
        #[test]
        fn sparse_fusion_matches_the_btreemap_reference(
            cells in proptest::collection::vec((0u8..3, 0usize..8), 48),
            kinds in proptest::collection::vec((0u8..3, 1usize..5, 0usize..8), 3),
            shape in (0usize..6, 1usize..6, 1usize..4),
        ) {
            let (n, t, count) = shape;
            let stores: Vec<SimStore> = kinds[..count]
                .iter()
                .enumerate()
                .map(|(f, &(kind, k, _))| {
                    // Feature 0 is always sparse, so the sparse arm runs.
                    let sparse = f == 0 || kind > 0;
                    palette_store(sparse, n, t, k, &cells[f * 16..])
                })
                .collect();
            let refs: Vec<&SimStore> = stores.iter().collect();
            let weights: Vec<f32> = kinds[..count].iter().map(|&(_, _, w)| PALETTE[w]).collect();
            assert_fused_bits(&fuse_store(&refs, &weights), &fuse_store_reference(&refs, &weights));
        }

        /// Per-source vectors reproduce the hash-map filters bit for bit:
        /// candidate lists with conflicts, pairs shared by some or all
        /// features, scores above θ1, with the cap on and off.
        #[test]
        fn weights_match_the_hashmap_reference(
            proposals in proptest::collection::vec((0u8..3, 0usize..3, 0usize..8), 24),
            features in 1usize..5,
            cap in 0u8..2,
        ) {
            let sources = 6;
            let per_feature: Vec<Vec<Candidate>> = (0..features)
                .map(|f| {
                    (0..sources)
                        .filter_map(|i| {
                            let (present, target, score) = proposals[(f * sources + i) % proposals.len()];
                            (present > 0).then(|| Candidate { source: i, target, score: PALETTE[score] })
                        })
                        .collect()
                })
                .collect();
            let cfg = FusionConfig { cap_enabled: cap > 0, ..FusionConfig::default() };
            assert_reports_bitwise(
                &weights_from_candidates(&per_feature, sources, &cfg),
                &weights_from_candidates_reference(&per_feature, &cfg),
            );
        }

        /// The same holds for candidates stage 1 draws from palette stores.
        #[test]
        fn store_weights_match_the_hashmap_reference(
            cells in proptest::collection::vec((0u8..3, 0usize..8), 48),
            kinds in proptest::collection::vec((0u8..2, 1usize..5), 3),
            shape in (1usize..6, 1usize..6),
        ) {
            let (n, t) = shape;
            let stores: Vec<SimStore> = kinds
                .iter()
                .enumerate()
                .map(|(f, &(kind, k))| palette_store(kind > 0, n, t, k, &cells[f * 16..]))
                .collect();
            let refs: Vec<&SimStore> = stores.iter().collect();
            let cfg = FusionConfig::default();
            let per_feature: Vec<Vec<Candidate>> =
                refs.iter().map(|s| confident_correspondences_store(s)).collect();
            assert_reports_bitwise(
                &adaptive_weights_store(&refs, &cfg),
                &weights_from_candidates_reference(&per_feature, &cfg),
            );
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
