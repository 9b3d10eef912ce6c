//! Cross-crate matching invariants on *real* fused matrices (not synthetic
//! random ones): stability, perfection, and the §VI utility relations.

use ceaff::matching::{Greedy, GreedyOneToOne, Hungarian, Matcher, StableMarriage};
use ceaff::prelude::*;
use ceaff::{ExecBudget, Telemetry};

fn fused_matrix(preset: Preset) -> (ceaff::sim::SimilarityMatrix, usize) {
    let task = DatasetTask::from_preset(preset, 0.1, 32);
    let mut cfg = CeaffConfig::default();
    cfg.gcn.dim = 16;
    cfg.gcn.epochs = 25;
    let out = ceaff::try_run(&task.input(), &cfg).expect("pipeline runs");
    let n = task.dataset.pair.test_pairs().len();
    (out.fused.into_dense(), n)
}

fn fused_store(preset: Preset) -> (SimStore, usize) {
    let (m, n) = fused_matrix(preset);
    (SimStore::Dense(m), n)
}

#[test]
fn stable_matching_on_real_fused_matrices_has_no_blocking_pairs() {
    for preset in [Preset::Dbp15kJaEn, Preset::SrprsEnDe] {
        let (m, n) = fused_store(preset);
        let matching = StableMarriage.matching_store(&m);
        assert_eq!(matching.len(), n, "stable matching must be perfect");
        assert!(matching.is_one_to_one());
        assert_eq!(
            matching.find_blocking_pair(&m),
            None,
            "stable matching must contain no blocking pair"
        );
    }
}

#[test]
fn utility_ordering_hungarian_ge_stable_ge_each_nonnegative() {
    let (m, _) = fused_store(Preset::SrprsEnDe);
    let h = Hungarian.matching_store(&m).total_weight(&m);
    let s = StableMarriage.matching_store(&m).total_weight(&m);
    assert!(h >= s - 1e-4, "hungarian {h} < stable {s}");
    assert!(s >= 0.0);
    // Greedy picks each source's maximum, so its (possibly conflicting)
    // total is an upper bound on any one-to-one assignment.
    let g = Greedy.matching_store(&m).total_weight(&m);
    assert!(g >= h - 1e-4, "greedy row-max sum {g} < hungarian {h}");
}

#[test]
fn budgeted_matchers_with_headroom_are_identical_to_exact() {
    let (m, _) = fused_store(Preset::SrprsEnDe);
    let telemetry = Telemetry::disabled();
    for matcher in [&StableMarriage as &dyn Matcher, &Hungarian] {
        let exact = matcher.matching_store(&m);
        // Truly unlimited budget: the anytime body runs to completion.
        let unlimited = matcher.matching_store_budgeted(&m, &ExecBudget::unlimited(), &telemetry);
        assert!(unlimited.is_exact());
        assert_eq!(unlimited.matching.pairs(), exact.pairs());
        // A *constrained* budget that never fires must take the anytime
        // code path to the very same answer.
        let roomy = ExecBudget::unlimited().with_step_limit(1_000_000);
        let headroom = matcher.matching_store_budgeted(&m, &roomy, &telemetry);
        assert!(headroom.is_exact(), "a roomy budget must not degrade");
        assert_eq!(headroom.matching.pairs(), exact.pairs());
    }
}

#[test]
fn degraded_matchings_stay_one_to_one_and_perfect() {
    let (m, n) = fused_store(Preset::SrprsEnDe);
    let telemetry = Telemetry::disabled();
    for matcher in [&StableMarriage as &dyn Matcher, &Hungarian] {
        for limit in [0u64, 1, (n / 4) as u64, (n / 2) as u64] {
            let budget = ExecBudget::unlimited().with_step_limit(limit);
            let out = matcher.matching_store_budgeted(&m, &budget, &telemetry);
            let d = out
                .degradation
                .as_ref()
                .expect("a starved budget must degrade");
            assert_eq!(d.stage, "matcher");
            assert_eq!(d.reason, "step_limit");
            assert!(!out.degraded_rows.is_empty());
            assert!(d.fraction_degraded > 0.0 && d.fraction_degraded <= 1.0);
            // The greedy completion must still deliver a perfect
            // one-to-one matching on a square instance.
            assert!(out.matching.is_one_to_one());
            assert_eq!(out.matching.len(), n, "limit {limit}: not perfect");
        }
    }
}

#[test]
fn degraded_stable_marriage_has_no_blocking_pair_among_settled_rows() {
    let (m, n) = fused_store(Preset::Dbp15kJaEn);
    let telemetry = Telemetry::disabled();
    for limit in [1u64, (n / 4) as u64, (n / 2) as u64, (n - 1) as u64] {
        let budget = ExecBudget::unlimited().with_step_limit(limit);
        let out = StableMarriage.matching_store_budgeted(&m, &budget, &telemetry);
        assert!(!out.is_exact(), "limit {limit} must starve n = {n} rows");
        let degraded: std::collections::HashSet<usize> =
            out.degraded_rows.iter().copied().collect();
        // Rows the deferred-acceptance loop settled keep the stability
        // guarantee even though the rest of the matching was completed
        // greedily: targets never vacate, so every target a settled row
        // prefers over its own is still held by a partner that target
        // prefers.
        for u in (0..n).filter(|u| !degraded.contains(u)) {
            for v in 0..n {
                assert!(
                    !out.matching.is_blocking_pair(&m, u, v),
                    "limit {limit}: settled row {u} forms a blocking pair with {v}"
                );
            }
        }
    }
}

#[test]
fn one_to_one_constraint_fixes_greedy_collisions() {
    // On a harder instance greedy collides; the collective matchers must
    // resolve every collision (one-to-one) without losing accuracy.
    let (m, n) = fused_store(Preset::Dbp15kJaEn);
    let greedy = Greedy.matching_store(&m);
    let stable = StableMarriage.matching_store(&m);
    let greedy_acc = ceaff::accuracy(&greedy, n);
    let stable_acc = ceaff::accuracy(&stable, n);
    assert!(stable.is_one_to_one());
    assert!(
        stable_acc >= greedy_acc - 1e-9,
        "stable {stable_acc} must not lose to greedy {greedy_acc}"
    );
}

/// FNV-1a over everything a budgeted matcher run reports.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// Hash one `matching_store_budgeted` run: the matching, the degraded
/// rows, the degradation record, the counter totals and the stage names.
fn hash_outcome(fnv: &mut Fnv, matcher: &dyn Matcher, store: &SimStore, budget: &ExecBudget) {
    let telemetry = Telemetry::disabled();
    let out = matcher.matching_store_budgeted(store, budget, &telemetry);
    let trace = telemetry.take_trace();
    fnv.u64(out.matching.len() as u64);
    for &(i, j) in out.matching.pairs() {
        fnv.u64(i as u64);
        fnv.u64(j as u64);
    }
    fnv.u64(out.degraded_rows.len() as u64);
    for &r in &out.degraded_rows {
        fnv.u64(r as u64);
    }
    match &out.degradation {
        None => fnv.u64(0),
        Some(d) => {
            fnv.u64(1);
            fnv.str(&d.stage);
            fnv.str(&d.reason);
            fnv.u64(d.rounds_completed);
            fnv.u64(d.fraction_degraded.to_bits());
        }
    }
    for c in &trace.counters {
        fnv.str(&c.stage);
        fnv.str(&c.name);
        fnv.u64(c.total);
    }
    for s in &trace.stages {
        fnv.str(&s.stage);
    }
}

/// The fused test matrix of a small SRPRS EN-DE run plus a tall crop of
/// it (more sources than targets), each as a dense store, a complete
/// sparse store and a top-10 sparse store.
fn pinned_stores() -> Vec<(String, SimStore)> {
    use ceaff::sim::SimilarityMatrix;
    let (m, n) = fused_matrix(Preset::SrprsEnDe);
    let t = n - 7;
    let mut crop = Vec::with_capacity(n * t);
    for i in 0..n {
        crop.extend((0..t).map(|j| m.get(i, j)));
    }
    let tall = SimilarityMatrix::new(ceaff::tensor::Matrix::from_vec(n, t, crop));
    let mut stores = Vec::new();
    for (label, dense) in [("square", m), ("tall", tall)] {
        let targets = dense.targets();
        stores.push((
            format!("{label}/complete"),
            SimStore::Sparse(SparseTopK::from_dense(&dense, targets)),
        ));
        stores.push((
            format!("{label}/top10"),
            SimStore::Sparse(SparseTopK::from_dense(&dense, 10)),
        ));
        stores.push((format!("{label}/dense"), SimStore::Dense(dense)));
    }
    stores
}

/// Pins what every matcher reports through `matching_store_budgeted` —
/// matchings, degraded rows, degradation records, counter totals and
/// stage names — across dense, complete-sparse and top-10-sparse stores
/// and unlimited, roomy and starved step budgets. The constants were
/// recorded before the matchers were folded onto one body per algorithm;
/// any behavioural drift in the decision layer changes a hash.
#[test]
fn matcher_outputs_are_pinned_across_commits() {
    const PINNED: [(&str, &str, u64); 24] = [
        ("greedy", "square/complete", 0x59a5d28d61f7286b),
        ("greedy", "square/top10", 0x59a5d28d61f7286b),
        ("greedy", "square/dense", 0x59a5d28d61f7286b),
        ("greedy", "tall/complete", 0x810971d963b57ec7),
        ("greedy", "tall/top10", 0x810971d963b57ec7),
        ("greedy", "tall/dense", 0x810971d963b57ec7),
        ("stable-marriage", "square/complete", 0xac9e2e1cf4f48f9d),
        ("stable-marriage", "square/top10", 0x07571f7162cb219a),
        ("stable-marriage", "square/dense", 0xac9e2e1cf4f48f9d),
        ("stable-marriage", "tall/complete", 0x07c7641fbda002b7),
        ("stable-marriage", "tall/top10", 0xd07956f540b4a81e),
        ("stable-marriage", "tall/dense", 0x07c7641fbda002b7),
        ("hungarian", "square/complete", 0xcaf053a73c8f8f13),
        ("hungarian", "square/top10", 0x7d893818efab6431),
        ("hungarian", "square/dense", 0xcaf053a73c8f8f13),
        ("hungarian", "tall/complete", 0x4fae06d86b1606a8),
        ("hungarian", "tall/top10", 0xdd38c8b12c48bbe5),
        ("hungarian", "tall/dense", 0x4fae06d86b1606a8),
        ("greedy-one-to-one", "square/complete", 0x37afcdaf13517277),
        ("greedy-one-to-one", "square/top10", 0x4abb18262e3c4042),
        ("greedy-one-to-one", "square/dense", 0x37afcdaf13517277),
        ("greedy-one-to-one", "tall/complete", 0xb737dc29ff1ab5b7),
        ("greedy-one-to-one", "tall/top10", 0xa2b5253ca8c1a31b),
        ("greedy-one-to-one", "tall/dense", 0xb737dc29ff1ab5b7),
    ];
    let stores = pinned_stores();
    let matchers: [&dyn Matcher; 4] = [&Greedy, &StableMarriage, &Hungarian, &GreedyOneToOne];
    let mut got = Vec::new();
    for matcher in matchers {
        for (label, store) in &stores {
            let n = store.sources() as u64;
            let mut fnv = Fnv::new();
            let budgets = [
                ExecBudget::unlimited(),
                ExecBudget::unlimited().with_step_limit(1_000_000),
                ExecBudget::unlimited().with_step_limit(0),
                ExecBudget::unlimited().with_step_limit(1),
                ExecBudget::unlimited().with_step_limit(n / 4),
            ];
            for budget in &budgets {
                hash_outcome(&mut fnv, matcher, store, budget);
            }
            got.push((matcher.name(), label.clone(), fnv.0));
        }
    }
    assert_eq!(got.len(), PINNED.len());
    for ((name, label, hash), (pname, plabel, phash)) in got.iter().zip(PINNED) {
        assert_eq!((*name, label.as_str()), (pname, plabel));
        assert_eq!(*hash, phash, "{name} on {label} drifted");
    }
}

/// Every matcher on an empty store, at every budget: an exact, empty
/// matching whose counters (if any) are all zero.
#[test]
fn empty_stores_match_nothing_at_every_budget() {
    use ceaff::sim::SimilarityMatrix;
    let matchers: [&dyn Matcher; 4] = [&Greedy, &StableMarriage, &Hungarian, &GreedyOneToOne];
    for (n, t) in [(0, 0), (0, 5), (5, 0)] {
        let dense = SimilarityMatrix::zeros(n, t);
        let sparse = SparseTopK::from_dense(&dense, 3);
        for store in [SimStore::Dense(dense), SimStore::Sparse(sparse)] {
            for matcher in matchers {
                for budget in [
                    ExecBudget::unlimited(),
                    ExecBudget::unlimited().with_step_limit(1_000_000),
                    ExecBudget::unlimited().with_step_limit(0),
                    ExecBudget::unlimited().with_step_limit(1),
                ] {
                    let telemetry = Telemetry::disabled();
                    let out = matcher.matching_store_budgeted(&store, &budget, &telemetry);
                    let what = format!("{} on {n}x{t}", matcher.name());
                    assert!(out.matching.is_empty(), "{what}");
                    assert!(out.is_exact(), "{what}");
                    assert!(out.degraded_rows.is_empty(), "{what}");
                    let trace = telemetry.take_trace();
                    assert!(trace.counters.iter().all(|c| c.total == 0), "{what}");
                    assert!(trace.degradations.is_empty(), "{what}");
                }
            }
        }
    }
}
