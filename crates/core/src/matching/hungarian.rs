//! Maximum-weight bipartite matching via the Hungarian (Kuhn–Munkres)
//! algorithm — the alternative collective formulation the paper discusses
//! in §VI and argues is less desirable than stable matching (it optimises a
//! global utility sum but ignores individual preferences, and costs O(n³)
//! against DAA's near-quadratic behaviour). Implemented here so the
//! discussion is measurable (see the `matching` bench).

use super::{degrade, AnytimeOutcome, Matcher, Matching};
use crate::budget::ExecBudget;
use ceaff_sim::{SimStore, SimilarityMatrix, SparseTopK};
use ceaff_telemetry::Telemetry;
use ceaff_tensor::Matrix;

/// Kuhn–Munkres assignment maximising total similarity, O(n²·m).
///
/// Rectangular inputs are supported: with `n` sources and `m` targets,
/// `min(n, m)` pairs are produced. A sparse store is solved exactly over
/// its candidate submatrix: the columns any row stored, with missing
/// cells read as `0.0`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Hungarian;

impl Hungarian {
    /// Anytime Kuhn–Munkres over a dense matrix. The granule is one row
    /// augmentation: after each augmenting path the partial assignment of
    /// the processed rows is a valid (optimal-so-far) one-to-one matching,
    /// so that is the checkpoint. Cancel/deadline is also polled inside
    /// the O(cols²) augmenting search — potentials mutate during the
    /// search but `p[]` only changes in the final augment step, so
    /// aborting mid-search leaves the last checkpoint intact. Rows never
    /// processed are completed greedily. Note the degraded matching is
    /// *valid* but not weight-optimal; unlike stable marriage there is no
    /// per-row stability guarantee to preserve (optimal assignments
    /// legitimately contain blocking pairs).
    fn solve(m: &SimilarityMatrix, budget: &ExecBudget, telemetry: &Telemetry) -> AnytimeOutcome {
        let mut iterations = 0u64;
        let (n, t) = (m.sources(), m.targets());
        if n == 0 || t == 0 {
            telemetry.counter_add("matcher", "iterations", iterations);
            return AnytimeOutcome::exact(Matching::from_pairs(Vec::new()));
        }
        // The potential-based algorithm needs rows ≤ columns; transpose if
        // needed and flip the result.
        let transposed = n > t;
        let (rows, cols) = if transposed { (t, n) } else { (n, t) };
        let cost = |i: usize, j: usize| -> f64 {
            let v = if transposed { m.get(j, i) } else { m.get(i, j) };
            -(v as f64) // minimise negated similarity = maximise similarity
        };

        // e-maxx potentials formulation, 1-indexed.
        const INF: f64 = f64::INFINITY;
        let mut u = vec![0.0f64; rows + 1];
        let mut v = vec![0.0f64; cols + 1];
        let mut p = vec![0usize; cols + 1]; // p[j] = row matched to column j
        let mut way = vec![0usize; cols + 1];
        let mut stop = None;
        let mut rounds = 0u64;
        'rows: for i in 1..=rows {
            if let Some(reason) = budget.consume_step() {
                stop = Some(reason);
                break;
            }
            telemetry.progress("matcher", (i - 1) as u64, rows as u64);
            p[0] = i;
            let mut j0 = 0usize;
            let mut minv = vec![INF; cols + 1];
            let mut used = vec![false; cols + 1];
            loop {
                if iterations.is_multiple_of(64) {
                    if let Some(reason) = budget.interrupt_reason() {
                        stop = Some(reason);
                        break 'rows; // p[] still holds the last checkpoint
                    }
                }
                iterations += 1;
                used[j0] = true;
                let i0 = p[j0];
                let mut delta = INF;
                let mut j1 = 0usize;
                for j in 1..=cols {
                    if used[j] {
                        continue;
                    }
                    let cur = cost(i0 - 1, j - 1) - u[i0] - v[j];
                    if cur < minv[j] {
                        minv[j] = cur;
                        way[j] = j0;
                    }
                    if minv[j] < delta {
                        delta = minv[j];
                        j1 = j;
                    }
                }
                for j in 0..=cols {
                    if used[j] {
                        u[p[j]] += delta;
                        v[j] -= delta;
                    } else {
                        minv[j] -= delta;
                    }
                }
                j0 = j1;
                if p[j0] == 0 {
                    break;
                }
            }
            // Augment along the found path.
            loop {
                let j1 = way[j0];
                p[j0] = p[j1];
                j0 = j1;
                if j0 == 0 {
                    break;
                }
            }
            rounds += 1;
        }

        let pairs: Vec<(usize, usize)> = (1..=cols)
            .filter(|&j| p[j] != 0)
            .map(|j| {
                let (r, c) = (p[j] - 1, j - 1);
                if transposed {
                    (c, r)
                } else {
                    (r, c)
                }
            })
            .collect();
        telemetry.counter_add("matcher", "iterations", iterations);
        telemetry.progress("matcher", rows as u64, rows as u64);
        degrade(m, pairs, stop, rounds, budget, telemetry)
    }

    /// Densify only the candidate submatrix: the columns are the ascending
    /// union of every row's stored candidates, missing cells become `0.0`.
    /// Kuhn–Munkres is then exact over that submatrix — `O(n² · |union|)`
    /// instead of `O(n² · targets)`. On a complete store the union is every
    /// column, the submatrix is the dense matrix, and the column remap is
    /// the identity, so results are bitwise those of the dense path.
    fn densify_candidates(s: &SparseTopK) -> (SimilarityMatrix, Vec<usize>) {
        let (n, t) = (s.sources(), s.targets());
        let mut present = vec![false; t];
        for i in 0..n {
            for &c in s.row_entries(i).0 {
                present[c as usize] = true;
            }
        }
        let union: Vec<usize> = (0..t).filter(|&j| present[j]).collect();
        let mut inv = vec![usize::MAX; t];
        for (idx, &j) in union.iter().enumerate() {
            inv[j] = idx;
        }
        let mut m = Matrix::zeros(n, union.len());
        for i in 0..n {
            let (cols, scores) = s.row_entries(i);
            for (&c, &v) in cols.iter().zip(scores) {
                m[(i, inv[c as usize])] = v;
            }
        }
        (SimilarityMatrix::new(m), union)
    }
}

impl Matcher for Hungarian {
    fn name(&self) -> &'static str {
        "hungarian"
    }

    fn matching_store_budgeted(
        &self,
        s: &SimStore,
        budget: &ExecBudget,
        telemetry: &Telemetry,
    ) -> AnytimeOutcome {
        let _span = telemetry.span("matcher");
        match s {
            SimStore::Dense(m) => Self::solve(m, budget, telemetry),
            SimStore::Sparse(sp) => {
                let (sub, union) = Self::densify_candidates(sp);
                let mut out = Self::solve(&sub, budget, telemetry);
                let pairs = out.matching.pairs().iter().map(|&(i, j)| (i, union[j]));
                out.matching = Matching::from_pairs(pairs.collect());
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::dense_store;
    use super::*;
    use ceaff_tensor::Matrix;
    use proptest::prelude::*;

    #[test]
    fn solves_figure1_optimally() {
        let m = dense_store(Matrix::from_rows(&[
            &[0.9, 0.6, 0.1],
            &[0.7, 0.5, 0.2],
            &[0.2, 0.4, 0.2],
        ]));
        let matching = Hungarian.matching_store(&m);
        assert_eq!(matching.pairs(), &[(0, 0), (1, 1), (2, 2)]);
        // Total 1.6 is the maximum over all permutations.
        assert!((matching.total_weight(&m) - 1.6).abs() < 1e-6);
    }

    #[test]
    fn picks_off_diagonal_optimum() {
        // Optimal assignment is anti-diagonal.
        let m = dense_store(Matrix::from_rows(&[&[0.1, 1.0], &[1.0, 0.1]]));
        let matching = Hungarian.matching_store(&m);
        assert_eq!(matching.pairs(), &[(0, 1), (1, 0)]);
    }

    #[test]
    fn rectangular_wide() {
        let m = dense_store(Matrix::from_rows(&[&[0.1, 0.9, 0.2], &[0.8, 0.7, 0.1]]));
        let matching = Hungarian.matching_store(&m);
        assert_eq!(matching.len(), 2);
        assert!(matching.is_one_to_one());
        assert_eq!(matching.pairs(), &[(0, 1), (1, 0)]);
    }

    #[test]
    fn rectangular_tall() {
        let m = dense_store(Matrix::from_rows(&[&[0.9], &[0.95], &[0.1]]));
        let matching = Hungarian.matching_store(&m);
        assert_eq!(matching.pairs(), &[(1, 0)]);
    }

    #[test]
    fn empty() {
        assert!(Hungarian
            .matching_store(&dense_store(Matrix::zeros(0, 3)))
            .is_empty());
    }

    /// Brute-force optimum over all permutations for small n.
    fn brute_force_max(m: &SimStore) -> f64 {
        fn perms(n: usize) -> Vec<Vec<usize>> {
            if n == 0 {
                return vec![vec![]];
            }
            let mut out = Vec::new();
            for p in perms(n - 1) {
                for pos in 0..=p.len() {
                    let mut q = p.clone();
                    q.insert(pos, n - 1);
                    out.push(q);
                }
            }
            out
        }
        perms(m.sources())
            .into_iter()
            .map(|p| {
                p.iter()
                    .enumerate()
                    .map(|(i, &j)| m.get(i, j) as f64)
                    .sum::<f64>()
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    proptest! {
        /// Hungarian always attains the brute-force optimum on 4×4 inputs
        /// and produces perfect one-to-one matchings.
        #[test]
        fn matches_brute_force(vals in proptest::collection::vec(0.0f32..1.0, 16)) {
            let m = dense_store(Matrix::from_vec(4, 4, vals));
            let matching = Hungarian.matching_store(&m);
            prop_assert_eq!(matching.len(), 4);
            prop_assert!(matching.is_one_to_one());
            let best = brute_force_max(&m);
            prop_assert!((matching.total_weight(&m) - best).abs() < 1e-4,
                "hungarian {} vs brute force {}", matching.total_weight(&m), best);
        }

        /// Hungarian total weight ≥ stable-marriage total weight ≥ each is
        /// ≥ 0 on non-negative matrices (the §VI utility discussion).
        #[test]
        fn dominates_stable_marriage_weight(vals in proptest::collection::vec(0.0f32..1.0, 25)) {
            let m = dense_store(Matrix::from_vec(5, 5, vals));
            let h = Hungarian.matching_store(&m).total_weight(&m);
            let s = super::super::StableMarriage.matching_store(&m).total_weight(&m);
            prop_assert!(h >= s - 1e-5, "hungarian {h} < stable {s}");
        }
    }
}
