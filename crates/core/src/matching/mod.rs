//! Collective EA decision making (paper §VI).
//!
//! Given the fused similarity matrix, three decision strategies are
//! implemented behind the [`Matcher`] trait:
//!
//! * [`Greedy`] — the independent per-source argmax used by prior
//!   embedding-based EA work (and by "CEAFF w/o C" in the ablation);
//! * [`StableMarriage`] — the paper's proposal: EA as the stable matching
//!   problem, solved by the deferred acceptance algorithm;
//! * [`Hungarian`] — maximum-weight bipartite matching, the alternative
//!   formulation discussed (and argued against on efficiency grounds) in
//!   §VI.

mod greedy;
mod greedy_one_to_one;
mod hungarian;
mod stable_marriage;

pub use greedy::Greedy;
pub use greedy_one_to_one::GreedyOneToOne;
pub use hungarian::Hungarian;
pub use stable_marriage::StableMarriage;

use crate::budget::ExecBudget;
use ceaff_sim::{SimScores, SimStore, SimilarityMatrix, SparseTopK};
use ceaff_telemetry::{Degradation, Telemetry};
use serde::{Deserialize, Serialize};

/// The outcome of a matcher: `(source index, target index)` pairs in the
/// similarity matrix's index space. Greedy matchings may repeat targets;
/// collective matchings are one-to-one.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Matching {
    pairs: Vec<(usize, usize)>,
}

impl Matching {
    /// Wrap raw pairs.
    pub fn from_pairs(pairs: Vec<(usize, usize)>) -> Self {
        Self { pairs }
    }

    /// The matched pairs.
    pub fn pairs(&self) -> &[(usize, usize)] {
        &self.pairs
    }

    /// Number of matched pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no pair was matched.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The target matched to source `i`, if any.
    pub fn target_of(&self, i: usize) -> Option<usize> {
        self.pairs.iter().find(|&&(s, _)| s == i).map(|&(_, t)| t)
    }

    /// Whether the matching is one-to-one on both sides.
    pub fn is_one_to_one(&self) -> bool {
        let mut src: Vec<usize> = self.pairs.iter().map(|&(s, _)| s).collect();
        let mut tgt: Vec<usize> = self.pairs.iter().map(|&(_, t)| t).collect();
        src.sort_unstable();
        tgt.sort_unstable();
        src.windows(2).all(|w| w[0] != w[1]) && tgt.windows(2).all(|w| w[0] != w[1])
    }

    /// Sum of similarity scores over the matched pairs. Accepts any
    /// similarity backend (dense matrix, sparse store, [`SimStore`]).
    pub fn total_weight<S: SimScores + ?Sized>(&self, m: &S) -> f64 {
        self.pairs.iter().map(|&(i, j)| m.get(i, j) as f64).sum()
    }

    /// Whether `(u, v)` is a *blocking pair*: both prefer each other over
    /// their current partners (unmatched counts as least preferred). The
    /// paper's stability criterion — a stable matching has none.
    pub fn is_blocking_pair<S: SimScores + ?Sized>(&self, m: &S, u: usize, v: usize) -> bool {
        if self.pairs.contains(&(u, v)) {
            return false;
        }
        let u_current = self.target_of(u).map(|t| m.get(u, t));
        let v_current = self
            .pairs
            .iter()
            .find(|&&(_, t)| t == v)
            .map(|&(s, _)| m.get(s, v));
        let u_prefers = u_current.is_none_or(|c| m.get(u, v) > c);
        let v_prefers = v_current.is_none_or(|c| m.get(u, v) > c);
        u_prefers && v_prefers
    }

    /// Keep only pairs whose similarity clears `min_similarity` — the
    /// "no-match" decision real deployments need: benchmark test sets are
    /// 1-to-1 by construction, but production KGs contain entities with no
    /// counterpart, and matching them anyway trades precision for recall.
    /// Evaluate the filtered matching with
    /// [`crate::eval::precision_recall`].
    pub fn filter_by_threshold<S: SimScores + ?Sized>(
        &self,
        m: &S,
        min_similarity: f32,
    ) -> Matching {
        Matching::from_pairs(
            self.pairs
                .iter()
                .copied()
                .filter(|&(i, j)| m.get(i, j) >= min_similarity)
                .collect(),
        )
    }

    /// Exhaustively search for any blocking pair (test/diagnostic helper;
    /// O(n·m)).
    pub fn find_blocking_pair<S: SimScores + ?Sized>(&self, m: &S) -> Option<(usize, usize)> {
        for u in 0..m.sources() {
            for v in 0..m.targets() {
                if self.is_blocking_pair(m, u, v) {
                    return Some((u, v));
                }
            }
        }
        None
    }
}

/// What a budget-aware matcher run produced: always a valid (one-to-one
/// for collective strategies) matching, plus a degradation record when
/// the execution budget cut the exact algorithm short.
#[derive(Debug, Clone)]
pub struct AnytimeOutcome {
    /// The matching — exact when `degradation` is `None`, otherwise the
    /// exact partial assignment completed greedily.
    pub matching: Matching,
    /// Present iff the budget stopped the exact algorithm early.
    pub degradation: Option<Degradation>,
    /// Source rows (similarity-matrix index space) the exact algorithm
    /// had *not* settled when it was stopped — their assignments (if
    /// any) come from the greedy completion. Empty for an exact run.
    pub degraded_rows: Vec<usize>,
}

impl AnytimeOutcome {
    /// Wrap a fully exact matching.
    pub fn exact(matching: Matching) -> Self {
        AnytimeOutcome {
            matching,
            degradation: None,
            degraded_rows: Vec::new(),
        }
    }

    /// Whether the exact algorithm ran to completion.
    pub fn is_exact(&self) -> bool {
        self.degradation.is_none()
    }
}

/// Complete a partial assignment the way [`GreedyOneToOne`] would:
/// visit the still-free cells in descending similarity (ties broken by
/// row then column index) and match a pair whenever both sides are
/// free. Mutates the taken-masks and appends to `pairs`; returns the
/// rows that received a greedy assignment, ascending.
pub(crate) fn greedy_complete(
    m: &SimilarityMatrix,
    src_taken: &mut [bool],
    tgt_taken: &mut [bool],
    pairs: &mut Vec<(usize, usize)>,
) -> Vec<usize> {
    let free_rows: Vec<usize> = (0..m.sources()).filter(|&i| !src_taken[i]).collect();
    let free_targets = (0..m.targets()).filter(|&j| !tgt_taken[j]).count();
    if free_rows.is_empty() || free_targets == 0 {
        return Vec::new();
    }
    let mut cells: Vec<(f32, u32, u32)> = Vec::with_capacity(free_rows.len() * free_targets);
    for &i in &free_rows {
        for (j, &v) in m.row(i).iter().enumerate() {
            if !tgt_taken[j] {
                cells.push((v, i as u32, j as u32));
            }
        }
    }
    cells.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("similarity scores must not be NaN")
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    let mut completed = Vec::new();
    for (_, i, j) in cells {
        let (i, j) = (i as usize, j as usize);
        if src_taken[i] || tgt_taken[j] {
            continue;
        }
        src_taken[i] = true;
        tgt_taken[j] = true;
        pairs.push((i, j));
        completed.push(i);
    }
    completed.sort_unstable();
    completed
}

/// Sparse analogue of [`greedy_complete`]: visit the still-free *stored*
/// cells in descending similarity (ties broken by row then column index)
/// and match a pair whenever both sides are free. On a complete store
/// (`k ≥ targets`) the cell set equals the dense cross product, so the
/// completion is bitwise-identical to the dense helper. Rows whose every
/// candidate is taken stay unmatched — a non-candidate is never assigned.
pub(crate) fn greedy_complete_sparse(
    s: &SparseTopK,
    src_taken: &mut [bool],
    tgt_taken: &mut [bool],
    pairs: &mut Vec<(usize, usize)>,
) -> Vec<usize> {
    let mut cells: Vec<(f32, u32, u32)> = Vec::new();
    for (i, &taken) in src_taken.iter().enumerate().take(s.sources()) {
        if taken {
            continue;
        }
        let (cols, scores) = s.row_entries(i);
        for (&j, &v) in cols.iter().zip(scores) {
            if !tgt_taken[j as usize] {
                cells.push((v, i as u32, j));
            }
        }
    }
    cells.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("similarity scores must not be NaN")
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    let mut completed = Vec::new();
    for (_, i, j) in cells {
        let (i, j) = (i as usize, j as usize);
        if src_taken[i] || tgt_taken[j] {
            continue;
        }
        src_taken[i] = true;
        tgt_taken[j] = true;
        pairs.push((i, j));
        completed.push(i);
    }
    completed.sort_unstable();
    completed
}

/// A strategy turning a similarity matrix into an alignment decision.
///
/// The `matching*` methods consume the dense [`SimilarityMatrix`]
/// directly; the `matching_store*` methods accept either [`SimStore`]
/// backend. Dense stores dispatch to the dense methods bit for bit. The
/// built-in matchers override the sparse path to read candidate
/// preference lists straight from the store (stable marriage, the
/// greedy strategies) or to densify only the candidate submatrix
/// (Hungarian); the default sparse fallback densifies the whole store
/// and is intended for external [`Matcher`] impls only.
pub trait Matcher {
    /// Human-readable strategy name.
    fn name(&self) -> &'static str;

    /// Compute the matching.
    fn matching(&self, m: &SimilarityMatrix) -> Matching;

    /// Compute the matching from either store backend.
    fn matching_store(&self, s: &SimStore) -> Matching {
        match s {
            SimStore::Dense(m) => self.matching(m),
            SimStore::Sparse(sp) => self.matching(&sp.to_dense()),
        }
    }

    /// [`Matcher::matching_store`] with telemetry (see
    /// [`Matcher::matching_traced`] for the counters contract).
    fn matching_store_traced(&self, s: &SimStore, telemetry: &Telemetry) -> Matching {
        match s {
            SimStore::Dense(m) => self.matching_traced(m, telemetry),
            SimStore::Sparse(sp) => self.matching_traced(&sp.to_dense(), telemetry),
        }
    }

    /// [`Matcher::matching_budgeted`] over either store backend. The
    /// default runs a sparse store through the exact
    /// [`Matcher::matching_store_traced`] path — right for the greedy
    /// strategies, whose single pass is itself the granule; matchers with
    /// an anytime sparse path (deferred acceptance, Hungarian) override it.
    fn matching_store_budgeted(
        &self,
        s: &SimStore,
        budget: &ExecBudget,
        telemetry: &Telemetry,
    ) -> AnytimeOutcome {
        match s {
            SimStore::Dense(m) => self.matching_budgeted(m, budget, telemetry),
            SimStore::Sparse(_) => AnytimeOutcome::exact(self.matching_store_traced(s, telemetry)),
        }
    }

    /// [`Matcher::matching`] with telemetry: the decision is timed under
    /// the `"matcher"` stage and implementations add algorithm-specific
    /// counters — every built-in matcher emits an `iterations` total, plus
    /// `proposals`/`trade_ups` (deferred acceptance) or `conflicts`
    /// (greedy strategies). The default implementation only times.
    fn matching_traced(&self, m: &SimilarityMatrix, telemetry: &Telemetry) -> Matching {
        let _span = telemetry.span("matcher");
        self.matching(m)
    }

    /// *Anytime* variant: run under `budget`, checkpointing the partial
    /// assignment at each algorithm round. When the budget stops the run
    /// (deadline, cancellation, step limit), unsettled rows are completed
    /// by the [`GreedyOneToOne`] rule against the still-free targets and
    /// the outcome carries a [`Degradation`] record. An unlimited budget
    /// takes the exact [`Matcher::matching_traced`] path bit for bit; a
    /// constrained budget that never fires produces the identical
    /// matching with no degradation. The default implementation (greedy
    /// strategies, whose single pass is itself the granule) always
    /// returns the exact matching.
    fn matching_budgeted(
        &self,
        m: &SimilarityMatrix,
        budget: &ExecBudget,
        telemetry: &Telemetry,
    ) -> AnytimeOutcome {
        let _ = budget;
        AnytimeOutcome::exact(self.matching_traced(m, telemetry))
    }
}

/// Which matcher a pipeline should use (config-friendly enum mirror).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MatcherKind {
    /// Independent per-source argmax.
    Greedy,
    /// Deferred acceptance (the paper's choice).
    StableMarriage,
    /// Maximum-weight bipartite matching.
    Hungarian,
    /// Descending-score greedy one-to-one assignment (an additional
    /// collective strategy in the spirit of the paper's future work).
    GreedyOneToOne,
}

impl MatcherKind {
    /// Instantiate the matcher.
    pub fn build(self) -> Box<dyn Matcher> {
        match self {
            MatcherKind::Greedy => Box::new(Greedy),
            MatcherKind::StableMarriage => Box::new(StableMarriage),
            MatcherKind::Hungarian => Box::new(Hungarian),
            MatcherKind::GreedyOneToOne => Box::new(GreedyOneToOne),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceaff_tensor::Matrix;

    #[test]
    fn matching_accessors() {
        let m = Matching::from_pairs(vec![(0, 1), (1, 0)]);
        assert_eq!(m.len(), 2);
        assert_eq!(m.target_of(0), Some(1));
        assert_eq!(m.target_of(5), None);
        assert!(m.is_one_to_one());
        let dup = Matching::from_pairs(vec![(0, 1), (1, 1)]);
        assert!(!dup.is_one_to_one());
    }

    #[test]
    fn blocking_pair_detection() {
        // Matrix where (0,0) is clearly best for both but they are matched
        // elsewhere.
        let sim = SimilarityMatrix::new(Matrix::from_rows(&[&[0.9, 0.1], &[0.2, 0.3]]));
        let bad = Matching::from_pairs(vec![(0, 1), (1, 0)]);
        assert!(bad.is_blocking_pair(&sim, 0, 0));
        assert_eq!(bad.find_blocking_pair(&sim), Some((0, 0)));
        let good = Matching::from_pairs(vec![(0, 0), (1, 1)]);
        assert_eq!(good.find_blocking_pair(&sim), None);
    }

    #[test]
    fn total_weight_sums_scores() {
        let sim = SimilarityMatrix::new(Matrix::from_rows(&[&[0.5, 0.0], &[0.0, 0.25]]));
        let m = Matching::from_pairs(vec![(0, 0), (1, 1)]);
        assert!((m.total_weight(&sim) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn threshold_filter_drops_weak_pairs() {
        let sim = SimilarityMatrix::new(Matrix::from_rows(&[&[0.9, 0.0], &[0.0, 0.2]]));
        let m = Matching::from_pairs(vec![(0, 0), (1, 1)]);
        let kept = m.filter_by_threshold(&sim, 0.5);
        assert_eq!(kept.pairs(), &[(0, 0)]);
        // Zero threshold keeps everything.
        assert_eq!(m.filter_by_threshold(&sim, 0.0).len(), 2);
    }

    #[test]
    fn kind_builds_named_matchers() {
        assert_eq!(MatcherKind::Greedy.build().name(), "greedy");
        assert_eq!(
            MatcherKind::StableMarriage.build().name(),
            "stable-marriage"
        );
        assert_eq!(MatcherKind::Hungarian.build().name(), "hungarian");
        assert_eq!(
            MatcherKind::GreedyOneToOne.build().name(),
            "greedy-one-to-one"
        );
    }
}
