//! Levenshtein distance and the paper's Levenshtein ratio (§IV-C).
//!
//! Two variants are implemented, exactly as the paper defines them:
//!
//! * [`levenshtein`] — Equation 2, unit cost for insert/delete/substitute;
//! * [`levenshtein_sub2`] — `lev*`, where substitution costs 2 (equivalent
//!   to one deletion plus one insertion).
//!
//! The string similarity score is the ratio
//! `r = (|a| + |b| − lev*(a,b)) / (|a| + |b|)`, which the paper motivates
//! with the example that `r("a","c")` should be 0 rather than 0.5.
//!
//! All functions operate on Unicode scalar values (`char`s), so CJK and
//! accented entity names are measured sensibly.
//!
//! # One `lev*` body
//!
//! A substitution at cost 2 is never cheaper than a deletion plus an
//! insertion, so `lev*(a, b) = |a| + |b| − 2·LCS(a, b)`. Every `lev*`
//! caller — the dense and blocked matrices, [`levenshtein_ratio`] and
//! [`levenshtein_sub2`] — goes through one `LevPattern`, which computes the
//! LCS with Hyyrö's bit-parallel recurrence: the source's chars become one
//! bit each in a `u64`, and each target char costs a handful of word
//! operations instead of a DP row. The LCS is an exact integer, so the
//! distance and the ratio's bits are those of the DP. Sources longer than
//! 64 chars, and the unit-cost [`levenshtein`], keep the two-row DP
//! ([`reference::levenshtein_sub2`] is that DP for `lev*`, retained as the
//! parity reference).

use crate::matrix::SimilarityMatrix;
use ceaff_tensor::Matrix;
use rayon::prelude::*;

/// Longest source the bit-parallel kernel takes: one bit per char.
const WORD: usize = 64;

/// A source name compiled once for `lev*` against many targets: build one
/// per source row and score each of the row's targets with
/// [`LevPattern::ratio`], whose bits equal [`levenshtein_ratio`]'s.
///
/// Holds the bit-parallel match masks — `mask(c)` has bit `i` set where the
/// source's `i`-th char is `c` — as a table for ASCII plus a sorted list
/// for every other char.
pub struct LevPattern {
    chars: Vec<char>,
    ascii: [u64; 128],
    other: Vec<(char, u64)>,
}

impl LevPattern {
    /// Compile `source`.
    pub fn new(source: &str) -> Self {
        let chars: Vec<char> = source.chars().collect();
        let mut ascii = [0u64; 128];
        let mut other: Vec<(char, u64)> = Vec::new();
        if chars.len() <= WORD {
            for (i, &c) in chars.iter().enumerate() {
                let bit = 1u64 << i;
                if c.is_ascii() {
                    ascii[c as usize] |= bit;
                } else {
                    match other.binary_search_by_key(&c, |e| e.0) {
                        Ok(k) => other[k].1 |= bit,
                        Err(k) => other.insert(k, (c, bit)),
                    }
                }
            }
        }
        Self {
            chars,
            ascii,
            other,
        }
    }

    fn mask(&self, c: char) -> u64 {
        if c.is_ascii() {
            self.ascii[c as usize]
        } else {
            self.other
                .binary_search_by_key(&c, |e| e.0)
                .map_or(0, |k| self.other[k].1)
        }
    }

    /// `(lev*(source, target), |target|)`.
    fn distance_and_len(&self, target: impl IntoIterator<Item = char>) -> (usize, usize) {
        let la = self.chars.len();
        if la > WORD {
            let tc: Vec<char> = target.into_iter().collect();
            return (lev_dp(&self.chars, &tc, 2), tc.len());
        }
        // Hyyrö's LCS recurrence: the zero bits among the low `la` bits
        // of `v` count the LCS of the source and the target chars read so
        // far. Carries only move upward, so bits past `la` never disturb
        // the low ones.
        let mut v = !0u64;
        let mut lb = 0;
        for c in target {
            let u = v & self.mask(c);
            v = v.wrapping_add(u) | (v - u);
            lb += 1;
        }
        let low = if la == WORD { !0 } else { (1u64 << la) - 1 };
        let lcs = (!v & low).count_ones() as usize;
        (la + lb - 2 * lcs, lb)
    }

    /// `lev*(source, target)`.
    pub(crate) fn distance(&self, target: impl IntoIterator<Item = char>) -> usize {
        self.distance_and_len(target).0
    }

    /// The Levenshtein ratio of the source and `target`'s chars (see
    /// [`levenshtein_ratio`]).
    pub fn ratio(&self, target: impl IntoIterator<Item = char>) -> f32 {
        let (d, lb) = self.distance_and_len(target);
        let total = self.chars.len() + lb;
        if total == 0 {
            1.0
        } else {
            (total - d) as f32 / total as f32
        }
    }
}

/// Strip the common prefix and suffix of two char slices — edits can only
/// occur in the differing middle, and real entity-name pairs share long
/// affixes, making this a large constant-factor win on similarity matrices.
fn trim_common<'a>(mut a: &'a [char], mut b: &'a [char]) -> (&'a [char], &'a [char]) {
    let prefix = a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count();
    a = &a[prefix..];
    b = &b[prefix..];
    let suffix = a
        .iter()
        .rev()
        .zip(b.iter().rev())
        .take_while(|(x, y)| x == y)
        .count();
    (&a[..a.len() - suffix], &b[..b.len() - suffix])
}

/// Two-row DP with parameterisable substitution cost: the unit-cost
/// [`levenshtein`], and `lev*` for sources longer than 64 chars.
fn lev_dp(a: &[char], b: &[char], sub_cost: usize) -> usize {
    let (a, b) = trim_common(a, b);
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    // Keep the shorter string as the row for minimal memory.
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let del = prev[j + 1] + 1;
            let ins = cur[j] + 1;
            let sub = prev[j] + if lc == sc { 0 } else { sub_cost };
            cur[j + 1] = del.min(ins).min(sub);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Classic Levenshtein distance (Eq. 2 of the paper): unit-cost insertions,
/// deletions and substitutions.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    lev_dp(&ac, &bc, 1)
}

/// `lev*`: Levenshtein distance where substitution costs 2. Used by the
/// paper's ratio so that completely different single characters score 0.
pub fn levenshtein_sub2(a: &str, b: &str) -> usize {
    LevPattern::new(a).distance(b.chars())
}

/// The paper's Levenshtein ratio
/// `r_{a,b} = (|a| + |b| − lev*(a,b)) / (|a| + |b|)` — a string similarity
/// in `[0, 1]`. Two empty strings are defined as identical (`r = 1`).
///
/// The substitution-cost-2 variant realises the paper's motivating
/// example: completely different single characters score 0, not 0.5.
///
/// ```
/// use ceaff_sim::levenshtein_ratio;
/// assert_eq!(levenshtein_ratio("a", "c"), 0.0);
/// assert_eq!(levenshtein_ratio("Paris", "Paris"), 1.0);
/// assert!(levenshtein_ratio("Paris", "Pariz") > 0.7);
/// ```
pub fn levenshtein_ratio(a: &str, b: &str) -> f32 {
    LevPattern::new(a).ratio(b.chars())
}

/// The full string similarity matrix `Ml` between source and target entity
/// names: `out[i][j] = levenshtein_ratio(sources[i], targets[j])`.
///
/// Rows are computed in parallel; each compiles its source's bit-parallel
/// pattern once for the whole row.
pub fn string_similarity_matrix<S: AsRef<str> + Sync, T: AsRef<str> + Sync>(
    sources: &[S],
    targets: &[T],
) -> SimilarityMatrix {
    let target_chars: Vec<Vec<char>> = targets
        .iter()
        .map(|t| t.as_ref().chars().collect())
        .collect();
    let n = sources.len();
    let m = targets.len();
    let mut out = Matrix::zeros(n, m);
    out.as_mut_slice()
        .par_chunks_mut(m.max(1))
        .enumerate()
        .take(n)
        .for_each(|(i, row)| {
            let pattern = LevPattern::new(sources[i].as_ref());
            for (o, tc) in row.iter_mut().zip(&target_chars) {
                *o = pattern.ratio(tc.iter().copied());
            }
        });
    SimilarityMatrix::new(out)
}

/// The two-row DP `lev*` that the bit-parallel pattern is checked against.
pub mod reference {
    /// `lev*(a, b)` by the substitution-cost-2 DP (after trimming the
    /// common prefix and suffix), whatever the lengths.
    pub fn levenshtein_sub2(a: &str, b: &str) -> usize {
        let ac: Vec<char> = a.chars().collect();
        let bc: Vec<char> = b.chars().collect();
        super::lev_dp(&ac, &bc, 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn classic_examples() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("same", "same"), 0);
    }

    #[test]
    fn paper_motivating_example() {
        // With lev, ratio("a","c") would be (1+1-1)/2 = 0.5; with lev* the
        // substitution costs 2, so the ratio is 0 — the paper's Section IV-C.
        assert_eq!(levenshtein("a", "c"), 1);
        assert_eq!(levenshtein_sub2("a", "c"), 2);
        assert_eq!(levenshtein_ratio("a", "c"), 0.0);
        assert_eq!(levenshtein_ratio("a", "a"), 1.0);
    }

    #[test]
    fn sub2_equals_insert_plus_delete() {
        // lev* never substitutes when that is more expensive than
        // delete+insert, so lev*(a,b) = |a| + |b| − 2·LCS(a,b).
        assert_eq!(levenshtein_sub2("abc", "axc"), 2);
        assert_eq!(levenshtein_sub2("abcdef", "abdf"), 2);
        assert_eq!(levenshtein_sub2("", ""), 0);
    }

    #[test]
    fn unicode_names() {
        assert_eq!(levenshtein("北京", "北海"), 1);
        assert_eq!(levenshtein_sub2("北京", "北海"), 2);
        assert!((levenshtein_ratio("北京", "北海") - 0.5).abs() < 1e-6);
        assert_eq!(levenshtein("café", "cafe"), 1);
    }

    #[test]
    fn bit_parallel_sub2_is_exact_at_the_word_boundary() {
        // Sources of 63, 64 and 65 chars straddle the one-word pattern
        // (65 takes the DP fallback); targets include the empty string.
        let alphabet = ['a', 'b', 'é', '北'];
        let name = |len: usize, seed: usize| -> String {
            (0..len)
                .map(|i| alphabet[(i * 7 + seed * 3 + i / 5) % 4])
                .collect()
        };
        for la in [0, 1, 63, 64, 65, 130] {
            for lb in [0, 1, 63, 64, 65, 130] {
                let (a, b) = (name(la, 1), name(lb, 2));
                let want = reference::levenshtein_sub2(&a, &b);
                assert_eq!(levenshtein_sub2(&a, &b), want, "|a|={la} |b|={lb}");
                assert_eq!(levenshtein_sub2(&a, &a), 0);
            }
        }
    }

    #[test]
    fn ratio_bounds_and_identity() {
        assert_eq!(levenshtein_ratio("", ""), 1.0);
        assert_eq!(levenshtein_ratio("abc", "abc"), 1.0);
        assert_eq!(levenshtein_ratio("abc", "xyz"), 0.0);
        let r = levenshtein_ratio("Paris", "Pariz");
        assert!(r > 0.5 && r < 1.0);
    }

    #[test]
    fn matrix_matches_scalar() {
        let s = ["Paris", "Berlin", ""];
        let t = ["Pariz", "Berlin (city)", "Roma"];
        let m = string_similarity_matrix(&s, &t);
        assert_eq!(m.sources(), 3);
        assert_eq!(m.targets(), 3);
        for (i, si) in s.iter().enumerate() {
            for (j, tj) in t.iter().enumerate() {
                let expect = levenshtein_ratio(si, tj);
                assert!((m.get(i, j) - expect).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn similar_names_beat_dissimilar() {
        let m = string_similarity_matrix(&["New York City"], &["New York", "Tokyo"]);
        assert!(m.get(0, 0) > m.get(0, 1));
        assert_eq!(m.row_argmax(0), Some(0));
    }

    proptest! {
        /// Metric axioms for the unit-cost distance.
        #[test]
        fn levenshtein_metric_axioms(a in "[a-c]{0,8}", b in "[a-c]{0,8}", c in "[a-c]{0,8}") {
            let dab = levenshtein(&a, &b);
            let dba = levenshtein(&b, &a);
            prop_assert_eq!(dab, dba, "symmetry");
            prop_assert_eq!(levenshtein(&a, &a), 0, "identity");
            let dac = levenshtein(&a, &c);
            let dcb = levenshtein(&c, &b);
            prop_assert!(dab <= dac + dcb, "triangle inequality");
            // Bounded by the longer length, at least the length difference.
            let (la, lb) = (a.chars().count(), b.chars().count());
            prop_assert!(dab <= la.max(lb));
            prop_assert!(dab >= la.abs_diff(lb));
        }

        /// Ratio is symmetric, within [0,1], and 1 iff strings are equal.
        #[test]
        fn ratio_properties(a in "[a-d]{0,10}", b in "[a-d]{0,10}") {
            let r = levenshtein_ratio(&a, &b);
            prop_assert!((0.0..=1.0).contains(&r));
            prop_assert!((r - levenshtein_ratio(&b, &a)).abs() < 1e-6);
            if a == b {
                prop_assert_eq!(r, 1.0);
            } else {
                prop_assert!(r < 1.0);
            }
        }

        /// The bit-parallel `lev*` equals the DP on every length from
        /// empty to past the 64-char word, over ASCII, accented and CJK
        /// chars; the ratio's bits follow from the same integer.
        #[test]
        fn bit_parallel_sub2_equals_the_dp(
            a in "[a-dé北京ü ]{0,130}",
            b in "[a-dé北京ü ]{0,130}",
        ) {
            let want = reference::levenshtein_sub2(&a, &b);
            prop_assert_eq!(levenshtein_sub2(&a, &b), want);
            prop_assert_eq!(levenshtein_sub2(&b, &a), want);
            let total = a.chars().count() + b.chars().count();
            let ratio = if total == 0 { 1.0 } else { (total - want) as f32 / total as f32 };
            prop_assert_eq!(levenshtein_ratio(&a, &b).to_bits(), ratio.to_bits());
        }

        /// lev* dominates lev and equals |a|+|b|-2·LCS.
        #[test]
        fn sub2_dominates_unit(a in "[a-c]{0,8}", b in "[a-c]{0,8}") {
            prop_assert!(levenshtein_sub2(&a, &b) >= levenshtein(&a, &b));
            prop_assert!(levenshtein_sub2(&a, &b) <= levenshtein(&a, &b) * 2);
        }
    }
}
