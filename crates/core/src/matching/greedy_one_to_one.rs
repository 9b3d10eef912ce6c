//! Greedy one-to-one matching — an additional collective strategy in the
//! direction of the paper's future work ("explore other collective
//! matching methods", §VIII).
//!
//! All cells are visited in descending similarity; a pair is matched when
//! both sides are still free. This is the matching analogue of BootEA's
//! bootstrapping constraint: cheaper than deferred acceptance to reason
//! about, not stable in the SMP sense (a later-visited source may prefer
//! an earlier-taken target), but one-to-one and strong in practice when
//! scores are well calibrated.

use super::{greedy_complete, AnytimeOutcome, Matcher, Matching};
use crate::budget::ExecBudget;
use ceaff_sim::SimStore;
use ceaff_telemetry::Telemetry;

/// Descending-score greedy one-to-one assignment.
///
/// Complexity `O(c·log c)` for the global sort of the `c` stored cells
/// (`n·m` on a dense store). Over a sparse store only the candidate cells
/// enter the sort, in the same `(score desc, row asc, col asc)` order, so a
/// complete store yields the dense matching.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyOneToOne;

impl Matcher for GreedyOneToOne {
    fn name(&self) -> &'static str {
        "greedy-one-to-one"
    }

    /// One pass, so the budget never cuts it short.
    fn matching_store_budgeted(
        &self,
        s: &SimStore,
        _budget: &ExecBudget,
        telemetry: &Telemetry,
    ) -> AnytimeOutcome {
        let _span = telemetry.span("matcher");
        let mut src_taken = vec![false; s.sources()];
        let mut tgt_taken = vec![false; s.targets()];
        let mut pairs = Vec::with_capacity(s.sources().min(s.targets()));
        let (visited, skipped) = greedy_complete(s, &mut src_taken, &mut tgt_taken, &mut pairs);
        telemetry.counter_add("matcher", "iterations", visited);
        telemetry.counter_add("matcher", "conflicts", skipped);
        pairs.sort_unstable();
        AnytimeOutcome::exact(Matching::from_pairs(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::super::dense_store;
    use super::*;
    use ceaff_tensor::Matrix;
    use proptest::prelude::*;

    #[test]
    fn solves_figure1() {
        let m = dense_store(Matrix::from_rows(&[
            &[0.9, 0.6, 0.1],
            &[0.7, 0.5, 0.2],
            &[0.2, 0.4, 0.2],
        ]));
        let matching = GreedyOneToOne.matching_store(&m);
        assert_eq!(matching.pairs(), &[(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn takes_global_best_first() {
        // (1,0)=0.95 is globally best, so source 0 must settle for col 1
        // even though it slightly prefers col 0.
        let m = dense_store(Matrix::from_rows(&[&[0.9, 0.8], &[0.95, 0.1]]));
        let matching = GreedyOneToOne.matching_store(&m);
        assert_eq!(matching.pairs(), &[(0, 1), (1, 0)]);
    }

    #[test]
    fn rectangular_matches_min_side() {
        let m = dense_store(Matrix::from_rows(&[&[0.9, 0.1, 0.5]]));
        assert_eq!(GreedyOneToOne.matching_store(&m).pairs(), &[(0, 0)]);
        let m = dense_store(Matrix::from_rows(&[&[0.9], &[0.5]]));
        assert_eq!(GreedyOneToOne.matching_store(&m).pairs(), &[(0, 0)]);
    }

    #[test]
    fn empty() {
        assert!(GreedyOneToOne
            .matching_store(&dense_store(Matrix::zeros(0, 0)))
            .is_empty());
    }

    proptest! {
        /// Always a perfect one-to-one matching on square inputs, with
        /// total weight between stable matching's and Hungarian's bounds
        /// not guaranteed — but one-to-one-ness and perfection are.
        #[test]
        fn perfect_and_one_to_one(vals in proptest::collection::vec(0.0f32..1.0, 25)) {
            let m = dense_store(Matrix::from_vec(5, 5, vals));
            let matching = GreedyOneToOne.matching_store(&m);
            prop_assert_eq!(matching.len(), 5);
            prop_assert!(matching.is_one_to_one());
        }

        /// The first (highest) cell of the matrix is always matched.
        #[test]
        fn global_max_is_matched(vals in proptest::collection::vec(0.0f32..1.0, 16)) {
            let m = dense_store(Matrix::from_vec(4, 4, vals));
            // Find global max cell.
            let mut best = (0usize, 0usize);
            for i in 0..4 {
                for j in 0..4 {
                    if m.get(i, j) > m.get(best.0, best.1) {
                        best = (i, j);
                    }
                }
            }
            let matching = GreedyOneToOne.matching_store(&m);
            prop_assert!(matching.pairs().contains(&best));
        }
    }
}
