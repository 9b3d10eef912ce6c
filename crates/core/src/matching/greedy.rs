//! Independent per-source argmax — how prior embedding-based EA methods
//! decide alignments, and the paper's "w/o C" ablation.

use super::{AnytimeOutcome, Matcher, Matching};
use crate::budget::ExecBudget;
use ceaff_sim::SimStore;
use ceaff_telemetry::Telemetry;

/// For every source row, pick the most similar target, independently of all
/// other decisions. Multiple sources may claim the same target — exactly
/// the failure mode of Figure 1 in the paper.
#[derive(Debug, Clone, Copy, Default)]
pub struct Greedy;

impl Matcher for Greedy {
    fn name(&self) -> &'static str {
        "greedy"
    }

    /// One pass, so the budget never cuts it short.
    fn matching_store_budgeted(
        &self,
        s: &SimStore,
        _budget: &ExecBudget,
        telemetry: &Telemetry,
    ) -> AnytimeOutcome {
        let _span = telemetry.span("matcher");
        let pairs: Vec<(usize, usize)> = match s {
            _ if s.targets() == 0 => Vec::new(),
            // `row_argmaxes` fans the independent per-row decisions out
            // across the pool on large matrices.
            SimStore::Dense(m) => m.row_argmaxes().into_iter().enumerate().collect(),
            // Rows are stored (score desc, col asc), so the first entry
            // *is* the dense argmax (lowest column on ties). Rows with no
            // surviving candidates stay unmatched.
            SimStore::Sparse(sp) => (0..sp.sources())
                .filter_map(|i| sp.row_argmax(i).map(|j| (i, j)))
                .collect(),
        };
        // Conflicts: sources whose independent argmax collided with an
        // earlier source's choice — Figure 1's failure mode, quantified.
        let mut taken = vec![false; s.targets()];
        let mut conflicts = 0u64;
        for &(_, j) in &pairs {
            if taken[j] {
                conflicts += 1;
            }
            taken[j] = true;
        }
        telemetry.counter_add("matcher", "iterations", pairs.len() as u64);
        telemetry.counter_add("matcher", "conflicts", conflicts);
        AnytimeOutcome::exact(Matching::from_pairs(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::super::dense_store;
    use super::*;
    use ceaff_tensor::Matrix;

    /// The paper's Figure 1: independent decisions produce two mismatches.
    #[test]
    fn figure1_greedy_collides() {
        let m = dense_store(Matrix::from_rows(&[
            &[0.9, 0.6, 0.1],
            &[0.7, 0.5, 0.2],
            &[0.2, 0.4, 0.2],
        ]));
        let matching = Greedy.matching_store(&m);
        // u1->v1 (correct), u2->v1 (wrong), u3->v2 (wrong).
        assert_eq!(matching.pairs(), &[(0, 0), (1, 0), (2, 1)]);
        assert!(!matching.is_one_to_one());
        assert!((crate::eval::accuracy(&matching, 3) - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn empty_matrix_yields_empty_matching() {
        let m = dense_store(Matrix::zeros(0, 0));
        assert!(Greedy.matching_store(&m).is_empty());
    }

    #[test]
    fn single_row() {
        let m = dense_store(Matrix::from_rows(&[&[0.1, 0.9, 0.3]]));
        assert_eq!(Greedy.matching_store(&m).pairs(), &[(0, 1)]);
    }
}
