//! Property and contract tests for adaptive feature fusion beyond the
//! in-module Figure 3 walk-through.

use ceaff_core::fusion::{
    adaptive_fuse_store, adaptive_weights_store, confident_correspondences_store,
    two_stage_fuse_store, FusionConfig,
};
use ceaff_sim::{SimStore, SimilarityMatrix};
use ceaff_tensor::Matrix;
use proptest::prelude::*;

fn sm(vals: Vec<f32>, rows: usize, cols: usize) -> SimStore {
    SimStore::Dense(SimilarityMatrix::new(Matrix::from_vec(rows, cols, vals)))
}

#[test]
fn identical_features_trigger_equal_fallback() {
    // Two identical matrices: every candidate is shared by all features,
    // so everything is filtered and the fallback fires.
    let a = sm(vec![0.9, 0.1, 0.2, 0.8], 2, 2);
    let report = adaptive_weights_store(&[&a, &a.clone()], &FusionConfig::default());
    assert!(report.fallback_equal);
    assert_eq!(report.weights, vec![0.5, 0.5]);
}

#[test]
fn a_feature_with_unique_confident_pairs_dominates() {
    // Feature A nails a diagonal the others cannot see.
    let a = sm(vec![0.9, 0.0, 0.0, 0.0, 0.9, 0.0, 0.0, 0.0, 0.9], 3, 3);
    // Feature B is flat noise with one weak candidate off the diagonal
    // that conflicts with nothing A proposes for different sources.
    let b = sm(vec![0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5], 3, 3);
    let report = adaptive_weights_store(&[&a, &b], &FusionConfig::default());
    assert!(
        report.weights[0] > 0.9,
        "A should dominate: {:?}",
        report.weights
    );
}

#[test]
fn candidate_count_is_bounded_by_min_dimension() {
    // Double-max cells form a partial permutation: at most min(n, m).
    let m = sm(
        vec![0.9, 0.9, 0.1, 0.2, 0.9, 0.9, 0.3, 0.3, 0.3, 0.1, 0.2, 0.3],
        3,
        4,
    );
    let c = confident_correspondences_store(&m);
    assert!(c.len() <= 3);
    // And they never share a row or a column.
    for (i, a) in c.iter().enumerate() {
        for b in &c[i + 1..] {
            assert_ne!(a.source, b.source);
            assert_ne!(a.target, b.target);
        }
    }
}

proptest! {
    /// Candidates of any matrix form a partial permutation.
    #[test]
    fn candidates_are_partial_permutation(vals in proptest::collection::vec(0.0f32..1.0, 20)) {
        let m = sm(vals, 4, 5);
        let c = confident_correspondences_store(&m);
        let mut rows: Vec<_> = c.iter().map(|x| x.source).collect();
        let mut cols: Vec<_> = c.iter().map(|x| x.target).collect();
        rows.sort_unstable();
        cols.sort_unstable();
        rows.dedup();
        cols.dedup();
        prop_assert_eq!(rows.len(), c.len());
        prop_assert_eq!(cols.len(), c.len());
    }

    /// Fused output of adaptive_fuse_store is a convex combination: bounded by
    /// the per-cell min and max over the inputs.
    #[test]
    fn fusion_is_convex_combination(
        a in proptest::collection::vec(0.0f32..1.0, 9),
        b in proptest::collection::vec(0.0f32..1.0, 9),
        c in proptest::collection::vec(0.0f32..1.0, 9),
    ) {
        let ma = sm(a.clone(), 3, 3);
        let mb = sm(b.clone(), 3, 3);
        let mc = sm(c.clone(), 3, 3);
        let (fused, _) = adaptive_fuse_store(&[&ma, &mb, &mc], &FusionConfig::default());
        for i in 0..3 {
            for j in 0..3 {
                let vals = [ma.get(i, j), mb.get(i, j), mc.get(i, j)];
                let lo = vals.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = vals.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                prop_assert!(fused.get(i, j) >= lo - 1e-5);
                prop_assert!(fused.get(i, j) <= hi + 1e-5);
            }
        }
    }

    /// Two-stage fusion of arbitrary inputs stays within global bounds too
    /// (composition of convex combinations is convex).
    #[test]
    fn two_stage_is_convex(
        s in proptest::collection::vec(0.0f32..1.0, 9),
        n in proptest::collection::vec(0.0f32..1.0, 9),
        l in proptest::collection::vec(0.0f32..1.0, 9),
    ) {
        let ms = sm(s.clone(), 3, 3);
        let mn = sm(n.clone(), 3, 3);
        let ml = sm(l.clone(), 3, 3);
        let (fused, _, _) = two_stage_fuse_store(Some(&ms), Some(&mn), Some(&ml), &FusionConfig::default());
        for i in 0..3 {
            for j in 0..3 {
                let vals = [ms.get(i, j), mn.get(i, j), ml.get(i, j)];
                let lo = vals.iter().copied().fold(f32::INFINITY, f32::min);
                let hi = vals.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                prop_assert!(fused.get(i, j) >= lo - 1e-5, "cell ({i},{j})");
                prop_assert!(fused.get(i, j) <= hi + 1e-5, "cell ({i},{j})");
            }
        }
    }

    /// Permuting the feature order permutes the weights identically.
    #[test]
    fn weights_are_equivariant_to_feature_order(
        a in proptest::collection::vec(0.0f32..1.0, 9),
        b in proptest::collection::vec(0.0f32..1.0, 9),
    ) {
        let ma = sm(a, 3, 3);
        let mb = sm(b, 3, 3);
        let cfg = FusionConfig::default();
        let ab = adaptive_weights_store(&[&ma, &mb], &cfg).weights;
        let ba = adaptive_weights_store(&[&mb, &ma], &cfg).weights;
        prop_assert!((ab[0] - ba[1]).abs() < 1e-6);
        prop_assert!((ab[1] - ba[0]).abs() < 1e-6);
    }
}
