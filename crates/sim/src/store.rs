//! The unified similarity store: dense or sparse top-k.
//!
//! Every consumer of pairwise similarities (fusion, CSLS, eval, the
//! matchers) reads through [`SimStore`], which has two backends:
//!
//! * [`SimStore::Dense`] — the classical n×t [`SimilarityMatrix`]; exact,
//!   `O(n·t)` memory, the default for the paper presets so golden metrics
//!   are untouched;
//! * [`SimStore::Sparse`] — a [`SparseTopK`] CSR store holding at most
//!   `k` scored `(col, score)` entries per row, the candidates proposed
//!   by blocking. Memory is `O(n·k)`, which is what unlocks the 100k
//!   class presets.
//!
//! ## Determinism contract
//!
//! Sparse rows are stored sorted by **(score descending, column
//! ascending)** — exactly the comparator the dense preference builds use
//! — so the stable-marriage and greedy matchers read preference lists
//! straight out of the store and reproduce the dense matchers bitwise
//! whenever the store is complete (`k ≥ targets`, every cell present).
//! All sparse kernels parallelise over rows only, with strictly
//! sequential per-row work, so results are bitwise-identical at any
//! thread count.
//!
//! ## Budget accounting
//!
//! The CSR buffers register against the thread-local byte ledger in
//! `ceaff-tensor` (via [`ceaff_tensor::track_alloc`]) just like dense
//! matrices, so `--max-mem-mb` caps the sparse footprint too and
//! `mem_peak_bytes` reports honest peaks for either backend.
//!
//! Missing entries read as `0.0` through [`SimScores::get`]; semantically
//! they are "never a candidate" and rank behind every stored entry.

use crate::matrix::SimilarityMatrix;
use ceaff_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Minimum row count before the row-parallel sparse kernels dispatch to
/// the pool (mirrors the dense scan threshold).
const PAR_ROW_THRESHOLD: usize = 64;

/// Read-only access to pairwise similarity scores, implemented by the
/// dense matrix, the sparse top-k store, and [`SimStore`] itself.
///
/// Lets shared helpers (`Matching::total_weight`, threshold filtering,
/// blocking-pair checks) accept any backend without duplicating code.
pub trait SimScores {
    /// Number of source entities (rows).
    fn sources(&self) -> usize;
    /// Number of target entities (columns).
    fn targets(&self) -> usize;
    /// Score of cell `(i, j)`; `0.0` when the cell is not stored.
    fn get(&self, i: usize, j: usize) -> f32;
    /// Visit the explicitly stored entries of row `i` in storage order.
    fn for_each_row_entry(&self, i: usize, f: &mut dyn FnMut(usize, f32));
}

impl SimScores for SimilarityMatrix {
    fn sources(&self) -> usize {
        SimilarityMatrix::sources(self)
    }
    fn targets(&self) -> usize {
        SimilarityMatrix::targets(self)
    }
    fn get(&self, i: usize, j: usize) -> f32 {
        SimilarityMatrix::get(self, i, j)
    }
    fn for_each_row_entry(&self, i: usize, f: &mut dyn FnMut(usize, f32)) {
        for (j, &v) in self.row(i).iter().enumerate() {
            f(j, v);
        }
    }
}

/// A CSR-style sparse similarity store: at most `k` scored `(col, score)`
/// entries per row, rows sorted by (score descending, column ascending).
///
/// Cells that are absent were never candidates; they read as `0.0` and
/// rank behind every stored entry. See the module docs for the
/// determinism and budget-accounting contracts.
#[derive(Debug, Serialize, Deserialize)]
pub struct SparseTopK {
    targets: usize,
    k: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes row `i`'s slice of `cols`/`scores`.
    row_ptr: Vec<usize>,
    cols: Vec<u32>,
    scores: Vec<f32>,
    /// Bytes registered with the tensor ledger; released on drop. Skipped
    /// by serde: a deserialized store re-registers in `from_parts`.
    #[serde(skip)]
    tracked_bytes: usize,
}

impl PartialEq for SparseTopK {
    fn eq(&self, other: &Self) -> bool {
        self.targets == other.targets
            && self.k == other.k
            && self.row_ptr == other.row_ptr
            && self.cols == other.cols
            && self.scores == other.scores
    }
}

impl Clone for SparseTopK {
    fn clone(&self) -> Self {
        let mut c = SparseTopK {
            targets: self.targets,
            k: self.k,
            row_ptr: self.row_ptr.clone(),
            cols: self.cols.clone(),
            scores: self.scores.clone(),
            tracked_bytes: 0,
        };
        c.register();
        c
    }
}

impl Drop for SparseTopK {
    fn drop(&mut self) {
        if self.tracked_bytes > 0 {
            ceaff_tensor::track_release(self.tracked_bytes);
        }
    }
}

/// Sort one row's entries into the canonical (score desc, col asc) order.
fn sort_row_canonical(row: &mut [(u32, f32)]) {
    row.sort_unstable_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("similarity scores must not be NaN")
            .then(a.0.cmp(&b.0))
    });
}

impl SparseTopK {
    /// Build from per-row entry lists. Each row is sorted into canonical
    /// (score desc, col asc) order and truncated to the `k` best entries.
    ///
    /// # Panics
    /// Panics when a column index is out of range or `k == 0`.
    pub fn from_rows(targets: usize, k: usize, mut rows: Vec<Vec<(u32, f32)>>) -> Self {
        assert!(k > 0, "SparseTopK needs k >= 1");
        for row in &mut rows {
            assert!(
                row.iter().all(|&(c, _)| (c as usize) < targets),
                "column index out of range"
            );
            sort_row_canonical(row);
            row.truncate(k);
        }
        Self::from_sorted_rows(targets, k, rows)
    }

    /// Build from rows already in canonical order and within the `k` cap
    /// (the constructors' shared tail).
    fn from_sorted_rows(targets: usize, k: usize, rows: Vec<Vec<(u32, f32)>>) -> Self {
        let nnz: usize = rows.iter().map(Vec::len).sum();
        let mut row_ptr = Vec::with_capacity(rows.len() + 1);
        let mut cols = Vec::with_capacity(nnz);
        let mut scores = Vec::with_capacity(nnz);
        row_ptr.push(0);
        for row in &rows {
            for &(c, v) in row {
                cols.push(c);
                scores.push(v);
            }
            row_ptr.push(cols.len());
        }
        let mut out = SparseTopK {
            targets,
            k,
            row_ptr,
            cols,
            scores,
            tracked_bytes: 0,
        };
        out.register();
        out
    }

    /// Keep the `k` best entries of every row of a dense matrix. With
    /// `k >= targets` the store is *complete*: every dense cell is kept
    /// and every consumer reproduces its dense counterpart bitwise.
    pub fn from_dense(m: &SimilarityMatrix, k: usize) -> Self {
        assert!(k > 0, "SparseTopK needs k >= 1");
        let n = m.sources();
        let build = |i: usize| -> Vec<(u32, f32)> {
            // `top_k_row` already returns (score desc, index asc) — the
            // canonical order.
            m.top_k_row(i, k)
                .into_iter()
                .map(|j| (j as u32, m.get(i, j)))
                .collect()
        };
        let rows: Vec<Vec<(u32, f32)>> = if n < PAR_ROW_THRESHOLD {
            (0..n).map(build).collect()
        } else {
            ceaff_parallel::par_map(n, 16, build)
        };
        Self::from_sorted_rows(m.targets(), k, rows)
    }

    /// Score a fixed candidate structure: row `i` keeps the `k` best of
    /// `candidates.row(i)` under `score`. Rows fan out across the pool;
    /// each row is scored, sorted and truncated sequentially, so the
    /// result is bitwise-identical at any thread count.
    pub fn from_candidates<F>(
        candidates: &crate::blocking::CandidateSet,
        k: usize,
        score: F,
    ) -> Self
    where
        F: Fn(usize, u32) -> f32 + Sync,
    {
        assert!(k > 0, "SparseTopK needs k >= 1");
        let sources = candidates.sources();
        let build = |i: usize| -> Vec<(u32, f32)> {
            let mut row: Vec<(u32, f32)> = candidates
                .row(i)
                .iter()
                .map(|&j| (j, score(i, j)))
                .collect();
            sort_row_canonical(&mut row);
            row.truncate(k);
            row
        };
        let rows: Vec<Vec<(u32, f32)>> = if sources < PAR_ROW_THRESHOLD {
            (0..sources).map(build).collect()
        } else {
            ceaff_parallel::par_map(sources, 16, build)
        };
        Self::from_sorted_rows(candidates.targets(), k, rows)
    }

    /// Row `i`'s stored entries as an owned vector, in canonical order —
    /// the starting point for row patching.
    pub fn row_vec(&self, i: usize) -> Vec<(u32, f32)> {
        let (cols, scores) = self.row_entries(i);
        cols.iter().copied().zip(scores.iter().copied()).collect()
    }

    /// Rebuild the store for an edited task: rows are permuted / added /
    /// dropped through `row_map`, surviving columns renumbered through
    /// `col_map`, and dirty rows replaced wholesale.
    ///
    /// * `row_map[old_row] = Some(new_row)` keeps a row (at its new
    ///   index), `None` drops it.
    /// * `col_map[old_col] = Some(new_col)` renumbers a column. It must be
    ///   strictly monotone over its `Some` entries — then both the
    ///   ascending candidate order and the canonical (score desc, col asc)
    ///   tie order survive the remap, so clean rows keep their exact
    ///   layout. A clean row referencing a dropped column panics: the
    ///   caller's dirty-row set was an under-approximation.
    /// * `dirty[new_row] = Some(entries)` replaces that row with freshly
    ///   scored entries (any order; they are canonicalised and truncated
    ///   to `k` exactly like [`SparseTopK::from_rows`] would).
    ///
    /// The result is bitwise-identical to building the store from scratch
    /// on the edited task, provided every row whose fresh content differs
    /// is listed in `dirty`.
    pub fn patched(
        &self,
        new_targets: usize,
        row_map: &[Option<usize>],
        col_map: &[Option<u32>],
        dirty: &[Option<Vec<(u32, f32)>>],
    ) -> Self {
        assert_eq!(row_map.len(), self.sources(), "row_map length mismatch");
        assert_eq!(col_map.len(), self.targets, "col_map length mismatch");
        let mut rows: Vec<Option<Vec<(u32, f32)>>> = dirty.to_vec();
        for (old, new) in row_map.iter().enumerate() {
            let Some(new) = *new else { continue };
            if rows[new].is_some() {
                continue; // dirty replacement wins
            }
            let remapped = self
                .row_vec(old)
                .into_iter()
                .map(|(c, v)| {
                    let c = col_map[c as usize]
                        .unwrap_or_else(|| panic!("clean row {old} references dropped column {c}"));
                    (c, v)
                })
                .collect();
            rows[new] = Some(remapped);
        }
        let rows: Vec<Vec<(u32, f32)>> = rows
            .into_iter()
            .enumerate()
            .map(|(i, r)| r.unwrap_or_else(|| panic!("new row {i} neither kept nor dirty")))
            .collect();
        Self::from_rows(new_targets, self.k, rows)
    }

    /// Register the CSR buffers with the tensor byte ledger.
    fn register(&mut self) {
        debug_assert_eq!(self.tracked_bytes, 0);
        self.tracked_bytes = ceaff_tensor::track_alloc(self.heap_bytes());
    }

    /// Bytes of CSR storage (the quantity registered with the ledger).
    pub fn heap_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.cols.len() * std::mem::size_of::<u32>()
            + self.scores.len() * std::mem::size_of::<f32>()
    }

    /// Number of source entities (rows).
    pub fn sources(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// Number of target entities (columns).
    pub fn targets(&self) -> usize {
        self.targets
    }

    /// The per-row entry cap.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total number of stored entries.
    pub fn nnz(&self) -> usize {
        self.cols.len()
    }

    /// Row `i`'s stored entries as parallel `(cols, scores)` slices, in
    /// (score desc, col asc) order — the preference list of source `i`.
    pub fn row_entries(&self, i: usize) -> (&[u32], &[f32]) {
        let (lo, hi) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.cols[lo..hi], &self.scores[lo..hi])
    }

    /// Score of cell `(i, j)`; `0.0` when not stored.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        let (cols, scores) = self.row_entries(i);
        cols.iter()
            .position(|&c| c as usize == j)
            .map_or(0.0, |p| scores[p])
    }

    /// Whether cell `(i, j)` is stored.
    pub fn contains(&self, i: usize, j: usize) -> bool {
        self.row_entries(i).0.iter().any(|&c| c as usize == j)
    }

    /// The best-scoring column of row `i` (ties toward the lower column —
    /// the first stored entry). `None` for a row with no candidates.
    pub fn row_argmax(&self, i: usize) -> Option<usize> {
        self.row_entries(i).0.first().map(|&c| c as usize)
    }

    /// Per-column best row and score among stored entries, scanning rows
    /// in ascending order with strict `>` — ties resolve to the lowest
    /// row, matching the dense column scan. `None` for columns no row
    /// stores.
    pub fn col_best(&self) -> Vec<Option<(usize, f32)>> {
        let mut best: Vec<Option<(usize, f32)>> = vec![None; self.targets];
        for i in 0..self.sources() {
            let (cols, scores) = self.row_entries(i);
            for (&c, &v) in cols.iter().zip(scores) {
                let slot = &mut best[c as usize];
                match slot {
                    Some((_, bv)) if v <= *bv => {}
                    _ => *slot = Some((i, v)),
                }
            }
        }
        best
    }

    /// Minimum and maximum over the **stored** entries (implicit zeros
    /// are not candidates and are excluded). `(inf, -inf)` when empty.
    pub fn min_max(&self) -> (f32, f32) {
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.scores {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Min–max rescale the stored entries into `[0, 1]` (constant stores
    /// map to 0). The map is monotone, so the canonical row order is
    /// preserved. Missing cells stay missing: a non-candidate still ranks
    /// behind every candidate afterwards.
    pub fn min_max_normalized(&self) -> Self {
        let (lo, hi) = self.min_max();
        let range = hi - lo;
        let mut out = self.clone();
        if range <= 0.0 {
            for v in &mut out.scores {
                *v = 0.0;
            }
        } else {
            for v in &mut out.scores {
                *v = (*v - lo) / range;
            }
        }
        out
    }

    /// `self * w` as a new store (`w` must be non-negative so the
    /// canonical row order survives).
    pub fn scaled(&self, w: f32) -> Self {
        assert!(w >= 0.0, "scaling a sparse store needs w >= 0");
        let mut out = self.clone();
        for v in &mut out.scores {
            *v *= w;
        }
        out
    }

    /// Rebuild with every stored entry mapped through `f(row, col, v)`,
    /// re-sorting each row into canonical order afterwards (the map need
    /// not be monotone — CSLS is not). Row-parallel, per-row sequential.
    pub fn mapped_entries<F>(&self, f: F) -> Self
    where
        F: Fn(usize, u32, f32) -> f32 + Sync,
    {
        let n = self.sources();
        let build = |i: usize| -> Vec<(u32, f32)> {
            let (cols, scores) = self.row_entries(i);
            let mut row: Vec<(u32, f32)> = cols
                .iter()
                .zip(scores)
                .map(|(&c, &v)| (c, f(i, c, v)))
                .collect();
            sort_row_canonical(&mut row);
            row
        };
        let rows: Vec<Vec<(u32, f32)>> = if n < PAR_ROW_THRESHOLD {
            (0..n).map(build).collect()
        } else {
            ceaff_parallel::par_map(n, 16, build)
        };
        Self::from_sorted_rows(self.targets, self.k, rows)
    }

    /// Rank (1-based) of target `j` within row `i`. A target blocking
    /// never stored ranks last (`targets`), behind every stored entry
    /// whatever its sign. A stored target ranks with the same pessimistic
    /// tie handling as the dense [`SimilarityMatrix::rank_of`] *evaluated
    /// on the equivalent dense matrix whose missing cells are zero*:
    /// stored competitors count by value, and the `targets − row_len`
    /// missing cells count as `0.0` competitors. On rows without negative
    /// entries the two rules agree.
    pub fn rank_of(&self, i: usize, j: usize) -> usize {
        let (cols, scores) = self.row_entries(i);
        let Some(pos) = cols.iter().position(|&c| c as usize == j) else {
            return self.targets;
        };
        let v = scores[pos];
        let mut greater = 0usize;
        let mut ties = 0usize;
        for (&c, &x) in cols.iter().zip(scores) {
            if c as usize == j {
                continue;
            }
            if x > v {
                greater += 1;
            } else if x == v {
                ties += 1;
            }
        }
        // Implicit zeros: the missing cells, competing at exactly 0.0.
        let implicit = self.targets - cols.len();
        if 0.0 > v {
            greater += implicit;
        } else if v == 0.0 {
            ties += implicit;
        }
        1 + greater + ties
    }

    /// Materialise as a dense matrix (missing cells become `0.0`).
    /// `O(sources × targets)` memory — intended for small instances and
    /// the Hungarian candidate-submatrix path, not for the scale regime.
    pub fn to_dense(&self) -> SimilarityMatrix {
        let mut m = Matrix::zeros(self.sources(), self.targets);
        for i in 0..self.sources() {
            let (cols, scores) = self.row_entries(i);
            for (&c, &v) in cols.iter().zip(scores) {
                m[(i, c as usize)] = v;
            }
        }
        SimilarityMatrix::new(m)
    }
}

impl SimScores for SparseTopK {
    fn sources(&self) -> usize {
        SparseTopK::sources(self)
    }
    fn targets(&self) -> usize {
        SparseTopK::targets(self)
    }
    fn get(&self, i: usize, j: usize) -> f32 {
        SparseTopK::get(self, i, j)
    }
    fn for_each_row_entry(&self, i: usize, f: &mut dyn FnMut(usize, f32)) {
        let (cols, scores) = self.row_entries(i);
        for (&c, &v) in cols.iter().zip(scores) {
            f(c as usize, v);
        }
    }
}

/// A similarity store: dense matrix or sparse top-k. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimStore {
    /// Exact n×t storage (the default; golden-metric paths use this).
    Dense(SimilarityMatrix),
    /// Blocked top-k storage for the scale regime.
    Sparse(SparseTopK),
}

impl From<SimilarityMatrix> for SimStore {
    fn from(m: SimilarityMatrix) -> Self {
        SimStore::Dense(m)
    }
}

impl From<SparseTopK> for SimStore {
    fn from(s: SparseTopK) -> Self {
        SimStore::Sparse(s)
    }
}

impl SimStore {
    /// Number of source entities (rows).
    pub fn sources(&self) -> usize {
        match self {
            SimStore::Dense(m) => m.sources(),
            SimStore::Sparse(s) => s.sources(),
        }
    }

    /// Number of target entities (columns).
    pub fn targets(&self) -> usize {
        match self {
            SimStore::Dense(m) => m.targets(),
            SimStore::Sparse(s) => s.targets(),
        }
    }

    /// Score of cell `(i, j)`; `0.0` for a cell the sparse backend never
    /// stored.
    pub fn get(&self, i: usize, j: usize) -> f32 {
        match self {
            SimStore::Dense(m) => m.get(i, j),
            SimStore::Sparse(s) => s.get(i, j),
        }
    }

    /// Whether the sparse backend is active.
    pub fn is_sparse(&self) -> bool {
        matches!(self, SimStore::Sparse(_))
    }

    /// The dense backend, when active.
    pub fn as_dense(&self) -> Option<&SimilarityMatrix> {
        match self {
            SimStore::Dense(m) => Some(m),
            SimStore::Sparse(_) => None,
        }
    }

    /// The sparse backend, when active.
    pub fn as_sparse(&self) -> Option<&SparseTopK> {
        match self {
            SimStore::Sparse(s) => Some(s),
            SimStore::Dense(_) => None,
        }
    }

    /// The underlying dense matrix.
    ///
    /// # Panics
    /// Panics when the sparse backend is active; use [`SimStore::to_dense`]
    /// (or stay on the store API) for backend-agnostic access.
    pub fn as_matrix(&self) -> &Matrix {
        self.as_dense()
            .expect("SimStore::as_matrix needs the dense backend; this store is sparse")
            .as_matrix()
    }

    /// Materialise a dense matrix from either backend (sparse missing
    /// cells become `0.0`). Clones the dense backend.
    pub fn to_dense(&self) -> SimilarityMatrix {
        match self {
            SimStore::Dense(m) => m.clone(),
            SimStore::Sparse(s) => s.to_dense(),
        }
    }

    /// Consume into a dense matrix (sparse missing cells become `0.0`).
    pub fn into_dense(self) -> SimilarityMatrix {
        match self {
            SimStore::Dense(m) => m,
            SimStore::Sparse(ref s) => s.to_dense(),
        }
    }

    /// The best-scoring column of row `i` (ties toward the lower column).
    /// `None` for an empty row or a sparse row with no candidates.
    pub fn row_argmax(&self, i: usize) -> Option<usize> {
        match self {
            SimStore::Dense(m) => m.row_argmax(i),
            SimStore::Sparse(s) => s.row_argmax(i),
        }
    }

    /// Min–max rescale into `[0, 1]` (per backend; the sparse backend
    /// rescales stored entries only — see [`SparseTopK::min_max_normalized`]).
    pub fn min_max_normalized(&self) -> Self {
        match self {
            SimStore::Dense(m) => SimStore::Dense(m.min_max_normalized()),
            SimStore::Sparse(s) => SimStore::Sparse(s.min_max_normalized()),
        }
    }

    /// Rank (1-based) of target `j` within row `i` (pessimistic ties; the
    /// sparse backend ranks an unstored target last and counts missing
    /// cells as `0.0` competitors of stored ones).
    pub fn rank_of(&self, i: usize, j: usize) -> usize {
        match self {
            SimStore::Dense(m) => m.rank_of(i, j),
            SimStore::Sparse(s) => s.rank_of(i, j),
        }
    }

    /// Stored entries (dense: all cells; sparse: candidates only).
    pub fn nnz(&self) -> usize {
        match self {
            SimStore::Dense(m) => m.sources() * m.targets(),
            SimStore::Sparse(s) => s.nnz(),
        }
    }

    /// Approximate heap bytes of the backing storage.
    pub fn heap_bytes(&self) -> usize {
        match self {
            SimStore::Dense(m) => m.sources() * m.targets() * std::mem::size_of::<f32>(),
            SimStore::Sparse(s) => s.heap_bytes(),
        }
    }
}

impl SimScores for SimStore {
    fn sources(&self) -> usize {
        SimStore::sources(self)
    }
    fn targets(&self) -> usize {
        SimStore::targets(self)
    }
    fn get(&self, i: usize, j: usize) -> f32 {
        SimStore::get(self, i, j)
    }
    fn for_each_row_entry(&self, i: usize, f: &mut dyn FnMut(usize, f32)) {
        match self {
            SimStore::Dense(m) => SimScores::for_each_row_entry(m, i, f),
            SimStore::Sparse(s) => SimScores::for_each_row_entry(s, i, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ceaff_tensor::Matrix;

    fn example() -> SimilarityMatrix {
        SimilarityMatrix::new(Matrix::from_rows(&[
            &[0.9, 0.6, 0.1],
            &[0.7, 0.5, 0.2],
            &[0.2, 0.4, 0.2],
        ]))
    }

    #[test]
    fn complete_store_reproduces_dense_cells() {
        let m = example();
        let s = SparseTopK::from_dense(&m, 3);
        assert_eq!(s.nnz(), 9);
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(s.get(i, j), m.get(i, j));
            }
            assert_eq!(s.row_argmax(i), m.row_argmax(i));
            for j in 0..3 {
                assert_eq!(s.rank_of(i, j), m.rank_of(i, j), "rank ({i},{j})");
            }
        }
        assert_eq!(s.to_dense(), m);
    }

    #[test]
    fn truncation_keeps_the_top_k_in_canonical_order() {
        let m = example();
        let s = SparseTopK::from_dense(&m, 2);
        let (cols, scores) = s.row_entries(0);
        assert_eq!(cols, &[0, 1]);
        assert_eq!(scores, &[0.9, 0.6]);
        assert_eq!(s.get(0, 2), 0.0, "dropped cell reads as 0");
        assert!(!s.contains(0, 2));
    }

    #[test]
    fn ties_sort_toward_the_lower_column() {
        let s = SparseTopK::from_rows(4, 4, vec![vec![(3, 0.5), (1, 0.5), (0, 0.2)]]);
        let (cols, _) = s.row_entries(0);
        assert_eq!(cols, &[1, 3, 0]);
        assert_eq!(s.row_argmax(0), Some(1));
    }

    #[test]
    fn rank_counts_missing_cells_as_zero_competitors() {
        // Row stores two positive entries out of 5 targets.
        let s = SparseTopK::from_rows(5, 2, vec![vec![(1, 0.8), (3, 0.4)]]);
        assert_eq!(s.rank_of(0, 1), 1);
        assert_eq!(s.rank_of(0, 3), 2);
        // Unstored target: value 0, ties with the 2 other missing cells,
        // behind the 2 stored ones -> rank 5 (last).
        assert_eq!(s.rank_of(0, 0), 5);
        // Same as the dense rank on the zero-filled equivalent.
        let d = s.to_dense();
        for j in 0..5 {
            assert_eq!(s.rank_of(0, j), d.rank_of(0, j), "col {j}");
        }
        // Negative stored scores (unnormalised features): an unstored
        // target still ranks last, never ahead of a stored candidate.
        let neg = SparseTopK::from_rows(2, 1, vec![vec![(1, -0.5)]]);
        assert_eq!(neg.rank_of(0, 0), 2);
    }

    #[test]
    fn col_best_breaks_ties_toward_the_lower_row() {
        let s = SparseTopK::from_rows(2, 2, vec![vec![(0, 0.5)], vec![(0, 0.5), (1, 0.1)]]);
        let best = s.col_best();
        assert_eq!(best[0], Some((0, 0.5)));
        assert_eq!(best[1], Some((1, 0.1)));
    }

    #[test]
    fn normalization_matches_dense_on_complete_stores() {
        let m = example();
        let s = SparseTopK::from_dense(&m, 8);
        let sn = s.min_max_normalized();
        let dn = m.min_max_normalized();
        for i in 0..3 {
            for j in 0..3 {
                assert_eq!(sn.get(i, j), dn.get(i, j), "cell ({i},{j})");
            }
        }
    }

    #[test]
    fn mapped_entries_resorts_rows() {
        let s = SparseTopK::from_rows(3, 3, vec![vec![(0, 0.9), (1, 0.5), (2, 0.1)]]);
        // Negate: order must flip.
        let neg = s.mapped_entries(|_, _, v| -v);
        let (cols, scores) = neg.row_entries(0);
        assert_eq!(cols, &[2, 1, 0]);
        assert_eq!(scores, &[-0.1, -0.5, -0.9]);
    }

    #[test]
    fn patched_rebuild_matches_from_scratch() {
        // Base store over 4 targets, 3 rows.
        let base = SparseTopK::from_rows(
            4,
            3,
            vec![
                vec![(0, 0.9), (2, 0.4)],
                vec![(1, 0.8), (3, 0.3)],
                vec![(2, 0.7)],
            ],
        );
        // Edit: drop row 1 and column 1 (only row 1 stored it — that row
        // is gone), append a fresh dirty row. Columns 2, 3 shift to 1, 2.
        let row_map = [Some(0), None, Some(1)];
        let col_map = [Some(0), None, Some(1), Some(2)];
        let dirty = [None, None, Some(vec![(2, 0.6), (0, 0.95)])];
        let patched = base.patched(3, &row_map, &col_map, &dirty);
        let scratch = SparseTopK::from_rows(
            3,
            3,
            vec![
                vec![(0, 0.9), (1, 0.4)],
                vec![(1, 0.7)],
                vec![(0, 0.95), (2, 0.6)],
            ],
        );
        assert_eq!(patched, scratch);
    }

    #[test]
    #[should_panic(expected = "dropped column")]
    fn patched_rejects_underapproximated_dirty_sets() {
        let base = SparseTopK::from_rows(2, 2, vec![vec![(0, 0.5), (1, 0.4)]]);
        // Column 1 is dropped but row 0 (which stores it) is kept clean.
        let _ = base.patched(1, &[Some(0)], &[Some(0), None], &[None]);
    }

    #[test]
    fn store_buffers_register_with_the_byte_ledger() {
        let base = ceaff_tensor::mem_live_bytes();
        let s = SparseTopK::from_dense(&example(), 2);
        assert_eq!(ceaff_tensor::mem_live_bytes(), base + s.heap_bytes());
        let c = s.clone();
        assert_eq!(
            ceaff_tensor::mem_live_bytes(),
            base + s.heap_bytes() + c.heap_bytes()
        );
        drop(s);
        drop(c);
        assert_eq!(ceaff_tensor::mem_live_bytes(), base);
    }

    #[test]
    fn simstore_dispatches_to_both_backends() {
        let m = example();
        let dense = SimStore::from(m.clone());
        let sparse = SimStore::from(SparseTopK::from_dense(&m, 3));
        assert!(!dense.is_sparse());
        assert!(sparse.is_sparse());
        for s in [&dense, &sparse] {
            assert_eq!(s.sources(), 3);
            assert_eq!(s.targets(), 3);
            assert_eq!(s.get(0, 0), 0.9);
            assert_eq!(s.row_argmax(2), Some(1));
            assert_eq!(s.rank_of(0, 0), 1);
        }
        assert_eq!(sparse.to_dense(), m);
        assert!(dense.as_dense().is_some());
        assert!(sparse.as_sparse().is_some());
    }

    #[test]
    #[should_panic(expected = "dense backend")]
    fn as_matrix_panics_on_sparse() {
        let s = SimStore::from(SparseTopK::from_dense(&example(), 2));
        let _ = s.as_matrix();
    }

    #[test]
    fn simscores_trait_is_backend_agnostic() {
        let m = example();
        let sparse = SparseTopK::from_dense(&m, 2);
        let mut dense_sum = 0.0f32;
        SimScores::for_each_row_entry(&m, 0, &mut |_, v| dense_sum += v);
        assert!((dense_sum - 1.6).abs() < 1e-6);
        let mut kept = Vec::new();
        SimScores::for_each_row_entry(&sparse, 0, &mut |j, v| kept.push((j, v)));
        assert_eq!(kept, vec![(0, 0.9), (1, 0.6)]);
    }
}
