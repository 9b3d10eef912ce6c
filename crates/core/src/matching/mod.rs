//! Collective EA decision making (paper §VI).
//!
//! Given the fused similarity store (dense or sparse top-k), four
//! decision strategies are implemented behind the [`Matcher`] trait, each
//! as one anytime body that an unlimited [`ExecBudget`] runs to the exact
//! answer:
//!
//! * [`Greedy`] — the independent per-source argmax used by prior
//!   embedding-based EA work (and by "CEAFF w/o C" in the ablation);
//! * [`StableMarriage`] — the paper's proposal: EA as the stable matching
//!   problem, solved by the deferred acceptance algorithm;
//! * [`Hungarian`] — maximum-weight bipartite matching, the alternative
//!   formulation discussed (and argued against on efficiency grounds) in
//!   §VI;
//! * [`GreedyOneToOne`] — descending-score one-to-one assignment, whose
//!   rule also completes the unsettled rows of a budget-stopped run.

mod greedy;
mod greedy_one_to_one;
mod hungarian;
mod stable_marriage;

pub use greedy::Greedy;
pub use greedy_one_to_one::GreedyOneToOne;
pub use hungarian::Hungarian;
pub use stable_marriage::StableMarriage;

use crate::budget::{ExecBudget, StopReason};
use ceaff_sim::{SimScores, SimStore};
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

/// The greedy one-to-one rule over the still-free stored cells: visit
/// them in descending similarity (ties broken by row then column index)
/// and match a pair whenever both sides are free. Mutates the taken-masks
/// and appends to `pairs`; returns how many cells were visited and how
/// many of those were skipped because a side was already taken. Stops as
/// soon as either side has no free entity left. A sparse row whose every
/// candidate is taken stays unmatched — a non-candidate is never
/// assigned. On a complete sparse store the cell set equals the dense
/// cross product, so both backends visit the same cells in the same
/// order.
pub(crate) fn greedy_complete<S: SimScores + ?Sized>(
    s: &S,
    src_taken: &mut [bool],
    tgt_taken: &mut [bool],
    pairs: &mut Vec<(usize, usize)>,
) -> (u64, u64) {
    let mut free_src = src_taken.iter().filter(|&&taken| !taken).count();
    let mut free_tgt = tgt_taken.iter().filter(|&&taken| !taken).count();
    let mut cells: Vec<(f32, u32, u32)> = Vec::new();
    for i in (0..src_taken.len()).filter(|&i| !src_taken[i]) {
        s.for_each_row_entry(i, &mut |j, v| {
            if !tgt_taken[j] {
                cells.push((v, i as u32, j as u32));
            }
        });
    }
    cells.sort_unstable_by(|a, b| {
        b.0.partial_cmp(&a.0)
            .expect("similarity scores must not be NaN")
            .then(a.1.cmp(&b.1))
            .then(a.2.cmp(&b.2))
    });
    let (mut visited, mut skipped) = (0u64, 0u64);
    for (_, i, j) in cells {
        if free_src == 0 || free_tgt == 0 {
            break;
        }
        visited += 1;
        let (i, j) = (i as usize, j as usize);
        if src_taken[i] || tgt_taken[j] {
            skipped += 1;
            continue;
        }
        src_taken[i] = true;
        tgt_taken[j] = true;
        pairs.push((i, j));
        free_src -= 1;
        free_tgt -= 1;
    }
    (visited, skipped)
}

/// The shared tail of the anytime matchers. `pairs` is the exact
/// algorithm's (partial) assignment when it finished or was stopped for
/// `stop`, after `rounds` completed granules. A finished run is exact;
/// a stopped one completes its unsettled rows with [`greedy_complete`]
/// and registers a `"matcher"` [`Degradation`] with `telemetry`.
pub(crate) fn degrade<S: SimScores + ?Sized>(
    s: &S,
    mut pairs: Vec<(usize, usize)>,
    stop: Option<StopReason>,
    rounds: u64,
    budget: &ExecBudget,
    telemetry: &Telemetry,
) -> AnytimeOutcome {
    let Some(reason) = stop else {
        pairs.sort_unstable();
        return AnytimeOutcome::exact(Matching::from_pairs(pairs));
    };
    let n = s.sources();
    let mut src_taken = vec![false; n];
    let mut tgt_taken = vec![false; s.targets()];
    for &(i, j) in &pairs {
        src_taken[i] = true;
        tgt_taken[j] = true;
    }
    let degraded_rows: Vec<usize> = (0..n).filter(|&i| !src_taken[i]).collect();
    greedy_complete(s, &mut src_taken, &mut tgt_taken, &mut pairs);
    pairs.sort_unstable();
    let degradation = budget.record_degradation(
        telemetry,
        "matcher",
        reason,
        rounds,
        degraded_rows.len() as f64 / n as f64,
    );
    AnytimeOutcome {
        matching: Matching::from_pairs(pairs),
        degradation: Some(degradation),
        degraded_rows,
    }
}

/// A strategy turning a similarity store into an alignment decision.
///
/// Every built-in matcher has one body, its anytime form, which reads
/// either [`SimStore`] backend: stable marriage and the greedy
/// strategies read candidate preference lists straight from the store,
/// Hungarian densifies only the candidate submatrix of a sparse store.
/// An unlimited [`ExecBudget`] never stops that body, so it is the exact
/// algorithm.
pub trait Matcher {
    /// Human-readable strategy name.
    fn name(&self) -> &'static str;

    /// Compute the matching under `budget`, timed under the `"matcher"`
    /// stage. Every built-in matcher adds an `iterations` counter total,
    /// plus `proposals`/`trade_ups` (deferred acceptance) or `conflicts`
    /// (greedy strategies). The exact algorithms checkpoint their partial
    /// assignment at each round; when the budget stops the run (deadline,
    /// cancellation, step limit), unsettled rows are completed by the
    /// [`GreedyOneToOne`] rule against the still-free targets and the
    /// outcome carries a [`Degradation`] record. A budget that never
    /// fires, unlimited or not, yields the exact matching. The greedy
    /// strategies, whose single pass is itself the granule, always return
    /// the exact matching.
    fn matching_store_budgeted(
        &self,
        s: &SimStore,
        budget: &ExecBudget,
        telemetry: &Telemetry,
    ) -> AnytimeOutcome;

    /// The exact matching: [`Matcher::matching_store_budgeted`] under an
    /// unlimited budget with telemetry off.
    fn matching_store(&self, s: &SimStore) -> Matching {
        self.matching_store_budgeted(s, &ExecBudget::unlimited(), &Telemetry::disabled())
            .matching
    }
}

/// A dense test matrix as a store (shared by the matcher unit tests).
#[cfg(test)]
fn dense_store(m: ceaff_tensor::Matrix) -> SimStore {
    SimStore::Dense(ceaff_sim::SimilarityMatrix::new(m))
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
    use ceaff_sim::SimilarityMatrix;
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
