//! Candidate blocking for the string feature.
//!
//! The dense `Ml` matrix costs `O(n·m)` Levenshtein computations — fine at
//! benchmark scale, prohibitive at the paper's full 100k×100k. Classical
//! entity-resolution *blocking* fixes this: an inverted index over name
//! tokens and character trigrams proposes candidate pairs, and the exact
//! Levenshtein ratio is computed only for them; non-candidates score 0.
//!
//! Trigram indexing keeps recall high under typos and morphology (two
//! names sharing no whole token still share most trigrams), which is what
//! the mono-lingual and close-lingual regimes need. Names in disjoint
//! scripts share nothing and are — correctly — never candidates.

use crate::levenshtein::levenshtein_ratio;
use crate::matrix::SimilarityMatrix;
use ceaff_tensor::Matrix;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Blocking configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockingConfig {
    /// Minimum number of shared index keys (tokens + trigrams) for a pair
    /// to become a candidate.
    pub min_shared_keys: usize,
    /// Index whole lowercase tokens.
    pub index_tokens: bool,
    /// Index character trigrams of each token (catches typos/morphology).
    pub index_trigrams: bool,
}

impl Default for BlockingConfig {
    fn default() -> Self {
        Self {
            min_shared_keys: 2,
            index_tokens: true,
            index_trigrams: true,
        }
    }
}

/// Statistics of one blocked similarity computation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BlockingStats {
    /// Candidate pairs actually scored.
    pub pairs_scored: usize,
    /// Full cross product `n·m` for comparison.
    pub pairs_total: usize,
}

impl BlockingStats {
    /// Fraction of the cross product that was scored. Guards the
    /// zero-candidate case (`pairs_total == 0`, i.e. an empty source or
    /// target side) by returning `0.0` instead of dividing by zero.
    pub fn scored_fraction(&self) -> f64 {
        if self.pairs_total == 0 {
            return 0.0;
        }
        self.pairs_scored as f64 / self.pairs_total as f64
    }
}

/// The candidate structure blocking proposes: for every source row, the
/// ascending-sorted column indices that survived the shared-key filter
/// (capped at `k` per row by shared-key count, ties toward the lower
/// column). Every feature of one run scores exactly this structure, so
/// their [`SparseTopK`](crate::store::SparseTopK) stores describe the
/// same candidate pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CandidateSet {
    targets: usize,
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
}

impl CandidateSet {
    /// Number of source rows.
    pub fn sources(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of target columns.
    pub fn targets(&self) -> usize {
        self.targets
    }

    /// Candidate columns of row `i`, ascending.
    pub fn row(&self, i: usize) -> &[u32] {
        &self.cols[self.row_ptr[i]..self.row_ptr[i + 1]]
    }

    /// Total number of candidate pairs.
    pub fn len(&self) -> usize {
        self.cols.len()
    }

    /// Whether no pair survived blocking.
    pub fn is_empty(&self) -> bool {
        self.cols.is_empty()
    }

    /// Whether `(i, j)` is a candidate pair.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.row(i).binary_search(&(j as u32)).is_ok()
    }

    /// Blocking statistics of this candidate set.
    pub fn stats(&self) -> BlockingStats {
        BlockingStats {
            pairs_scored: self.len(),
            pairs_total: self.sources() * self.targets,
        }
    }

    /// Fraction of `gold` pairs that survived blocking — the recall
    /// ceiling of every downstream stage (a dropped gold pair can never
    /// be matched). Returns `1.0` for an empty gold set.
    pub fn recall_of(&self, gold: &[(usize, usize)]) -> f64 {
        if gold.is_empty() {
            return 1.0;
        }
        let hit = gold.iter().filter(|&&(i, j)| self.contains(i, j)).count();
        hit as f64 / gold.len() as f64
    }

    /// Assemble a candidate set from per-row column lists (each ascending,
    /// exactly as [`TargetIndex::candidate_row`] produces them). This is
    /// the constructor the incremental path uses after patching only the
    /// dirty rows; the layout is identical to [`build_candidates`] run on
    /// the same rows.
    pub fn from_rows(targets: usize, rows: Vec<Vec<u32>>) -> Self {
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut cols = Vec::with_capacity(rows.iter().map(Vec::len).sum());
        row_ptr.push(0);
        for row in &rows {
            debug_assert!(row.windows(2).all(|w| w[0] < w[1]), "row not ascending");
            cols.extend_from_slice(row);
            row_ptr.push(cols.len());
        }
        CandidateSet {
            targets,
            row_ptr,
            cols,
        }
    }
}

/// An inverted index over target names, reusable across source rows.
///
/// [`build_candidates`] builds one per call. The incremental path keeps
/// one warm across edits instead: rebuilding it costs `O(targets · keys)`
/// string allocations per edit, while [`TargetIndex::patch`] touches only
/// the renumbered postings and the added names. The same structure over
/// *source* names answers the reverse question — which rows an added
/// target qualifies for ([`TargetIndex::qualifying`]) — because the
/// shared-key count of a pair is symmetric. Candidate rows are recomputed
/// only for dirty rows, through exactly the per-row logic
/// `build_candidates` uses, so a patched candidate set is
/// bitwise-identical to a fresh one.
#[derive(Debug, Clone, PartialEq)]
pub struct TargetIndex {
    index: HashMap<String, Vec<u32>>,
    targets: usize,
    cfg: BlockingConfig,
}

impl TargetIndex {
    /// Index `targets` under `cfg`.
    pub fn build<T: AsRef<str>>(targets: &[T], cfg: &BlockingConfig) -> Self {
        assert!(
            cfg.index_tokens || cfg.index_trigrams,
            "blocking needs at least one key kind enabled"
        );
        let mut index: HashMap<String, Vec<u32>> = HashMap::new();
        for (j, t) in targets.iter().enumerate() {
            for key in keys_of(t.as_ref(), cfg) {
                index.entry(key).or_default().push(j as u32);
            }
        }
        Self {
            index,
            targets: targets.len(),
            cfg: *cfg,
        }
    }

    /// Number of indexed target columns.
    pub fn targets(&self) -> usize {
        self.targets
    }

    /// Patch the index for an edited target list, equal to a
    /// [`TargetIndex::build`] over the edited names:
    ///
    /// * `remap[old] = Some(new)` renumbers a kept column, `None` drops
    ///   it. Kept columns may change their relative order: a posting
    ///   the renumbering leaves out of order is sorted again;
    /// * `added` lists the new columns with their names, each indexed at
    ///   its ascending position;
    /// * `targets` is the new column count.
    ///
    /// An identity `remap` skips the renumbering pass, so an edit that
    /// only appends names costs only their keys.
    pub fn patch<T: AsRef<str>>(
        &mut self,
        remap: &[Option<u32>],
        added: &[(u32, T)],
        targets: usize,
    ) {
        assert_eq!(remap.len(), self.targets, "remap length mismatch");
        let identity = remap.iter().enumerate().all(|(j, m)| *m == Some(j as u32));
        if !identity {
            self.index.retain(|_, posting| {
                posting.retain_mut(|j| match remap[*j as usize] {
                    Some(new) => {
                        *j = new;
                        true
                    }
                    None => false,
                });
                if !posting.windows(2).all(|w| w[0] < w[1]) {
                    posting.sort_unstable();
                }
                !posting.is_empty()
            });
        }
        for (j, name) in added {
            for key in keys_of(name.as_ref(), &self.cfg) {
                let posting = self.index.entry(key).or_default();
                let at = posting.partition_point(|&x| x < *j);
                posting.insert(at, *j);
            }
        }
        self.targets = targets;
    }

    /// Shared-key counts of `source` against every indexed column that
    /// shares at least one key. Keys are deduplicated on both sides, so
    /// the count of a pair is `|keys(source) ∩ keys(target)|`, symmetric
    /// in the two names.
    fn shared_counts(&self, source: &str) -> HashMap<u32, usize> {
        let mut shared: HashMap<u32, usize> = HashMap::new();
        for key in keys_of(source, &self.cfg) {
            if let Some(posting) = self.index.get(&key) {
                for &j in posting {
                    *shared.entry(j).or_insert(0) += 1;
                }
            }
        }
        shared
    }

    /// Every column that shares at least `min_shared_keys` keys with
    /// `name`, ascending — [`TargetIndex::candidate_row`] before ranking
    /// and truncation.
    pub fn qualifying(&self, name: &str) -> Vec<u32> {
        let mut cols: Vec<u32> = self
            .shared_counts(name)
            .into_iter()
            .filter(|&(_, count)| count >= self.cfg.min_shared_keys)
            .map(|(j, _)| j)
            .collect();
        cols.sort_unstable();
        cols
    }

    /// The candidate columns for one source name: targets sharing at least
    /// `min_shared_keys` keys, ranked (most shared keys first, ties toward
    /// the lower column), truncated to `k`, returned ascending.
    ///
    /// Deterministic for a given index regardless of thread count.
    pub fn candidate_row(&self, source: &str, k: usize) -> Vec<u32> {
        let mut ranked: Vec<(u32, usize)> = self
            .shared_counts(source)
            .into_iter()
            .filter(|&(_, count)| count >= self.cfg.min_shared_keys)
            .collect();
        // HashMap iteration order is arbitrary; the sort below makes the
        // kept set deterministic: most shared keys first, ties toward the
        // lower column.
        ranked.sort_unstable_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        ranked.truncate(k);
        let mut cols: Vec<u32> = ranked.into_iter().map(|(j, _)| j).collect();
        cols.sort_unstable();
        cols
    }
}

/// Build the candidate set for `sources × targets` under `cfg`, keeping
/// at most `k` candidates per row (ranked by shared-key count, ties
/// toward the lower column). Rows fan out across the pool; each row's
/// ranking is sequential, so the set is identical at any thread count.
pub fn build_candidates<S: AsRef<str> + Sync, T: AsRef<str> + Sync>(
    sources: &[S],
    targets: &[T],
    cfg: &BlockingConfig,
    k: usize,
) -> CandidateSet {
    assert!(k > 0, "blocking needs k >= 1");
    let index = TargetIndex::build(targets, cfg);
    let n = sources.len();
    let row_of = |i: usize| -> Vec<u32> { index.candidate_row(sources[i].as_ref(), k) };
    let rows: Vec<Vec<u32>> = if n < 64 {
        (0..n).map(row_of).collect()
    } else {
        ceaff_parallel::par_map(n, 16, row_of)
    };
    CandidateSet::from_rows(targets.len(), rows)
}

/// The blocking keys of one name under `cfg`: lowercase tokens and/or
/// character trigrams, sorted and deduplicated. Deduplication makes the
/// shared-key count of two names symmetric (see [`TargetIndex`]).
pub fn keys_of(name: &str, cfg: &BlockingConfig) -> Vec<String> {
    let mut keys = Vec::new();
    for token in name.split(|c: char| !c.is_alphanumeric()) {
        if token.is_empty() {
            continue;
        }
        let token = token.to_lowercase();
        if cfg.index_trigrams {
            let chars: Vec<char> = token.chars().collect();
            if chars.len() >= 3 {
                for w in chars.windows(3) {
                    keys.push(w.iter().collect());
                }
            } else {
                keys.push(token.clone());
            }
        }
        if cfg.index_tokens {
            keys.push(token);
        }
    }
    keys.sort_unstable();
    keys.dedup();
    keys
}

/// Compute the string similarity matrix with inverted-index blocking.
///
/// Cells whose names share fewer than `min_shared_keys` index keys are
/// left at 0 (never scored). Returns the matrix and the blocking
/// statistics.
pub fn blocked_string_similarity_matrix<S: AsRef<str>, T: AsRef<str>>(
    sources: &[S],
    targets: &[T],
    cfg: &BlockingConfig,
) -> (SimilarityMatrix, BlockingStats) {
    assert!(
        cfg.index_tokens || cfg.index_trigrams,
        "blocking needs at least one key kind enabled"
    );
    // Inverted index over target names.
    let mut index: HashMap<String, Vec<u32>> = HashMap::new();
    for (j, t) in targets.iter().enumerate() {
        for key in keys_of(t.as_ref(), cfg) {
            index.entry(key).or_default().push(j as u32);
        }
    }

    let n = sources.len();
    let m = targets.len();
    let mut out = Matrix::zeros(n, m);
    let mut pairs_scored = 0usize;
    let mut shared: HashMap<u32, usize> = HashMap::new();
    for (i, s) in sources.iter().enumerate() {
        shared.clear();
        for key in keys_of(s.as_ref(), cfg) {
            if let Some(posting) = index.get(&key) {
                for &j in posting {
                    *shared.entry(j).or_insert(0) += 1;
                }
            }
        }
        for (&j, &count) in &shared {
            if count >= cfg.min_shared_keys {
                out[(i, j as usize)] = levenshtein_ratio(s.as_ref(), targets[j as usize].as_ref());
                pairs_scored += 1;
            }
        }
    }
    (
        SimilarityMatrix::new(out),
        BlockingStats {
            pairs_scored,
            pairs_total: n * m,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein::string_similarity_matrix;

    #[test]
    fn keys_include_tokens_and_trigrams() {
        let cfg = BlockingConfig::default();
        let keys = keys_of("New York", &cfg);
        assert!(keys.contains(&"new".to_string()));
        assert!(keys.contains(&"york".to_string()));
        assert!(keys.contains(&"yor".to_string()));
        assert!(keys.contains(&"ork".to_string()));
    }

    #[test]
    fn scored_cells_match_the_dense_matrix() {
        let s = ["New York City", "Berlin", "Tokyo Tower"];
        let t = ["New York", "Berlin (city)", "Kyoto"];
        let (blocked, stats) = blocked_string_similarity_matrix(&s, &t, &BlockingConfig::default());
        let dense = string_similarity_matrix(&s, &t);
        for i in 0..3 {
            for j in 0..3 {
                let b = blocked.get(i, j);
                if b > 0.0 {
                    assert!((b - dense.get(i, j)).abs() < 1e-6, "cell ({i},{j})");
                }
            }
        }
        assert!(stats.pairs_scored < stats.pairs_total);
        assert!(stats.scored_fraction() < 1.0);
    }

    #[test]
    fn true_pairs_survive_blocking_under_typos() {
        // Typo'd counterparts still share most trigrams.
        let s = ["gavora benatil", "triskel dromvou"];
        let t = ["gavora bentail", "triskel dromvuo"];
        let (m, _) = blocked_string_similarity_matrix(&s, &t, &BlockingConfig::default());
        assert!(
            m.get(0, 0) > 0.7,
            "typo pair must be scored: {}",
            m.get(0, 0)
        );
        assert!(m.get(1, 1) > 0.7);
    }

    #[test]
    fn disjoint_scripts_are_never_candidates() {
        let s = ["gavora"];
        let t = ["佢丗凋"];
        let (m, stats) = blocked_string_similarity_matrix(&s, &t, &BlockingConfig::default());
        assert_eq!(m.get(0, 0), 0.0);
        assert_eq!(stats.pairs_scored, 0);
    }

    #[test]
    fn blocking_prunes_most_of_a_realistic_cross_product() {
        let ds = ceaff_datagen::Preset::SrprsDbpWd.generate(0.2);
        let s: Vec<String> = ds
            .test_source_names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        let t: Vec<String> = ds
            .test_target_names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        let (m, stats) = blocked_string_similarity_matrix(&s, &t, &BlockingConfig::default());
        assert!(
            stats.scored_fraction() < 0.5,
            "blocking should prune over half the cross product: {}",
            stats.scored_fraction()
        );
        // And it must not lose the ground truth: the diagonal stays the
        // row maximum for almost all mono-lingual rows.
        let n = m.sources();
        let hits = (0..n).filter(|&i| m.row_argmax(i) == Some(i)).count();
        assert!(
            hits as f64 / n as f64 > 0.9,
            "blocked string H@1 collapsed: {}/{n}",
            hits
        );
    }

    #[test]
    fn scored_fraction_guards_the_zero_candidate_case() {
        let empty = BlockingStats {
            pairs_scored: 0,
            pairs_total: 0,
        };
        assert_eq!(empty.scored_fraction(), 0.0);
        let (_, stats) =
            blocked_string_similarity_matrix::<&str, &str>(&[], &[], &BlockingConfig::default());
        assert_eq!(stats.pairs_total, 0);
        assert_eq!(stats.scored_fraction(), 0.0);
    }

    #[test]
    fn candidate_set_matches_the_blocked_matrix_support() {
        let s = ["New York City", "Berlin", "Tokyo Tower"];
        let t = ["New York", "Berlin (city)", "Kyoto"];
        let cfg = BlockingConfig::default();
        let cands = build_candidates(&s, &t, &cfg, 10);
        let (blocked, stats) = blocked_string_similarity_matrix(&s, &t, &cfg);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(
                    cands.contains(i, j),
                    blocked.get(i, j) > 0.0,
                    "cell ({i},{j})"
                );
            }
        }
        assert_eq!(cands.stats(), stats);
        assert_eq!(cands.len(), stats.pairs_scored);
    }

    #[test]
    fn candidate_cap_keeps_rows_bounded_and_deterministic() {
        let ds = ceaff_datagen::Preset::SrprsDbpWd.generate(0.2);
        let s: Vec<String> = ds
            .test_source_names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        let t: Vec<String> = ds
            .test_target_names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        let cfg = BlockingConfig::default();
        let capped = build_candidates(&s, &t, &cfg, 5);
        for i in 0..capped.sources() {
            assert!(capped.row(i).len() <= 5);
            assert!(capped.row(i).windows(2).all(|w| w[0] < w[1]));
        }
        // Identical at any thread count.
        let one = ceaff_parallel::with_threads(1, || build_candidates(&s, &t, &cfg, 5));
        let eight = ceaff_parallel::with_threads(8, || build_candidates(&s, &t, &cfg, 5));
        assert_eq!(one, capped);
        assert_eq!(eight, capped);
    }

    #[test]
    fn target_index_rows_match_build_candidates() {
        let s = ["New York City", "Berlin", "Tokyo Tower", "york minster"];
        let t = ["New York", "Berlin (city)", "Kyoto", "York"];
        let cfg = BlockingConfig::default();
        for k in [1, 3, 10] {
            let cands = build_candidates(&s, &t, &cfg, k);
            let index = TargetIndex::build(&t, &cfg);
            let rows: Vec<Vec<u32>> = (0..s.len()).map(|i| index.candidate_row(s[i], k)).collect();
            assert_eq!(CandidateSet::from_rows(t.len(), rows), cands, "k={k}");
        }
    }

    #[test]
    fn patched_index_equals_a_rebuild() {
        let cfg = BlockingConfig::default();
        let before = ["New York", "Berlin (city)", "Kyoto", "York"];
        // Drop "Berlin (city)", insert "Yorkshire" before "Kyoto" and
        // append "Berlin".
        let after = ["New York", "Yorkshire", "Kyoto", "York", "Berlin"];
        let mut index = TargetIndex::build(&before, &cfg);
        index.patch(
            &[Some(0), None, Some(2), Some(3)],
            &[(1, "Yorkshire"), (4, "Berlin")],
            after.len(),
        );
        assert_eq!(index, TargetIndex::build(&after, &cfg));
        // An append-only edit takes the identity path.
        let mut grown = TargetIndex::build(&after[..4], &cfg);
        grown.patch(&[Some(0), Some(1), Some(2), Some(3)], &[(4, "Berlin")], 5);
        assert_eq!(grown, index);
        // A reordering remap: postings are sorted again.
        let swapped = ["York", "Yorkshire", "Kyoto", "New York", "Berlin"];
        index.patch(
            &[Some(3), Some(1), Some(2), Some(0), Some(4)],
            &[] as &[(u32, &str)],
            5,
        );
        assert_eq!(index, TargetIndex::build(&swapped, &cfg));
    }

    #[test]
    fn qualifying_is_the_untruncated_symmetric_candidate_set() {
        let cfg = BlockingConfig::default();
        let s = ["New York City", "Berlin", "Tokyo Tower", "york minster"];
        let t = ["New York", "Berlin (city)", "Kyoto", "York"];
        let targets = TargetIndex::build(&t, &cfg);
        let sources = TargetIndex::build(&s, &cfg);
        for (i, name) in s.iter().enumerate() {
            assert_eq!(
                targets.qualifying(name),
                targets.candidate_row(name, t.len())
            );
            // The reverse index finds row i for every target row i
            // qualifies for.
            for j in targets.qualifying(name) {
                assert!(sources.qualifying(t[j as usize]).contains(&(i as u32)));
            }
        }
    }

    #[test]
    fn recall_counts_surviving_gold_pairs() {
        // Gold is the diagonal of a mono-lingual benchmark: blocking must
        // keep almost all of it.
        let ds = ceaff_datagen::Preset::SrprsDbpWd.generate(0.2);
        let s: Vec<String> = ds
            .test_source_names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        let t: Vec<String> = ds
            .test_target_names()
            .into_iter()
            .map(str::to_owned)
            .collect();
        let cands = build_candidates(&s, &t, &BlockingConfig::default(), 50);
        let gold: Vec<(usize, usize)> = (0..s.len()).map(|i| (i, i)).collect();
        let recall = cands.recall_of(&gold);
        assert!(recall > 0.9, "blocking recall collapsed: {recall}");
        assert_eq!(cands.recall_of(&[]), 1.0, "empty gold set is vacuous");
    }

    #[test]
    #[should_panic(expected = "at least one key kind")]
    fn rejects_empty_key_config() {
        let cfg = BlockingConfig {
            index_tokens: false,
            index_trigrams: false,
            min_shared_keys: 1,
        };
        let _ = blocked_string_similarity_matrix(&["a"], &["b"], &cfg);
    }
}
