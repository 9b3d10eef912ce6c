//! Sparse/dense parity on *real* fused matrices: a complete
//! `SparseTopK` (`k >= targets`) must be indistinguishable from the dense
//! matrix it was built from — the determinism contract that lets the
//! blocked candidate pipeline claim the dense path's semantics.

use ceaff::matching::{Greedy, GreedyOneToOne, Hungarian, Matcher, StableMarriage};
use ceaff::prelude::*;
use ceaff::sim::{csls_adjusted, csls_adjusted_sparse};

fn fused_dense(preset: Preset) -> ceaff::sim::SimilarityMatrix {
    let task = DatasetTask::from_preset(preset, 0.1, 32);
    let mut cfg = CeaffConfig::default();
    cfg.gcn.dim = 16;
    cfg.gcn.epochs = 25;
    let out = ceaff::try_run(&task.input(), &cfg).expect("pipeline runs");
    out.fused.into_dense()
}

#[test]
fn complete_sparse_store_reproduces_dense_matchers_bitwise_at_any_thread_count() {
    let m = fused_dense(Preset::SrprsEnDe);
    let complete = SimStore::Sparse(SparseTopK::from_dense(&m, m.targets()));
    let dense = SimStore::Dense(m);
    let matchers: [(&str, &dyn Matcher); 4] = [
        ("stable-marriage", &StableMarriage),
        ("hungarian", &Hungarian),
        ("greedy", &Greedy),
        ("greedy-1to1", &GreedyOneToOne),
    ];
    // The dense reference, computed once outside any thread override.
    let reference: Vec<_> = matchers
        .iter()
        .map(|(_, mm)| mm.matching_store(&dense))
        .collect();
    for threads in [1usize, 2, 8] {
        ceaff_parallel::with_threads(threads, || {
            for ((name, mm), exact) in matchers.iter().zip(&reference) {
                let sparse = mm.matching_store(&complete);
                assert_eq!(
                    sparse.pairs(),
                    exact.pairs(),
                    "{name} diverged on a complete sparse store at {threads} thread(s)"
                );
            }
        });
    }
}

#[test]
fn truncated_sparse_store_keeps_matchers_one_to_one() {
    // Not a parity claim — with k < n the stores differ by design — but
    // the structural invariants must survive truncation.
    let m = fused_dense(Preset::SrprsEnDe);
    let store = SimStore::Sparse(SparseTopK::from_dense(&m, 10));
    for mm in [&StableMarriage as &dyn Matcher, &Hungarian, &GreedyOneToOne] {
        let matching = mm.matching_store(&store);
        assert!(matching.is_one_to_one());
        assert!(!matching.pairs().is_empty());
    }
}

#[test]
fn csls_on_complete_sparse_matches_dense_on_kept_entries() {
    let m = fused_dense(Preset::SrprsEnFr);
    let sp = SparseTopK::from_dense(&m, m.targets());
    for k in [1usize, 5, 10] {
        let dense = csls_adjusted(&m, k);
        let sparse = csls_adjusted_sparse(&sp, k);
        assert_eq!(sparse.nnz(), m.sources() * m.targets(), "store is complete");
        for i in 0..m.sources() {
            let (cols, scores) = sparse.row_entries(i);
            for (&c, &v) in cols.iter().zip(scores) {
                let d = dense.get(i, c as usize);
                // The neighbourhood means may differ in f32 summation
                // order (dense uses an unstable top-k partition), so the
                // contract is approximate on values …
                assert!(
                    (v - d).abs() <= 1e-5 * d.abs().max(1.0),
                    "csls(k={k}) diverged at ({i}, {c}): sparse {v} vs dense {d}"
                );
            }
        }
    }
}

#[test]
fn csls_on_truncated_sparse_touches_only_stored_cells() {
    let m = fused_dense(Preset::SrprsEnFr);
    let sp = SparseTopK::from_dense(&m, 10);
    let adjusted = csls_adjusted_sparse(&sp, 10);
    assert_eq!(adjusted.nnz(), sp.nnz());
    for i in 0..sp.sources() {
        let (before, _) = sp.row_entries(i);
        let (after, _) = adjusted.row_entries(i);
        let mut b: Vec<u32> = before.to_vec();
        let mut a: Vec<u32> = after.to_vec();
        b.sort_unstable();
        a.sort_unstable();
        assert_eq!(a, b, "row {i}: a non-candidate appeared or vanished");
    }
}
