//! Compressed-sparse-row matrices.
//!
//! The GCN encoder multiplies a (sparse) normalised adjacency matrix with a
//! dense feature matrix every layer; CSR keeps that product at
//! `O(nnz · d)` instead of `O(n² · d)`.

use crate::error::GraphError;
use serde::{Deserialize, Serialize};

/// A sparse `rows × cols` matrix of `f32` in compressed-sparse-row layout.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CsrMatrix {
    rows: usize,
    cols: usize,
    /// `row_ptr[i]..row_ptr[i+1]` indexes the entries of row `i`.
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl CsrMatrix {
    /// Build from COO triplets `(row, col, value)`. Duplicate coordinates are
    /// summed. Entries with value exactly `0.0` are kept out.
    ///
    /// Returns an error if any coordinate is out of bounds
    /// ([`GraphError::Dimension`]) or any value is NaN or infinite
    /// ([`GraphError::NonFinite`]).
    pub fn from_triplets(
        rows: usize,
        cols: usize,
        triplets: &[(usize, usize, f32)],
    ) -> Result<Self, GraphError> {
        for &(r, c, _) in triplets {
            if r >= rows {
                return Err(GraphError::Dimension {
                    expected: rows,
                    got: r,
                });
            }
            if c >= cols {
                return Err(GraphError::Dimension {
                    expected: cols,
                    got: c,
                });
            }
        }
        // Sort by (row, col) then merge duplicates.
        let mut sorted: Vec<(usize, usize, f32)> = triplets.to_vec();
        sorted.sort_unstable_by_key(|&(r, c, _)| (r, c));
        let mut merged: Vec<(usize, usize, f32)> = Vec::with_capacity(sorted.len());
        for (r, c, v) in sorted {
            match merged.last_mut() {
                Some(last) if last.0 == r && last.1 == c => last.2 += v,
                _ => merged.push((r, c, v)),
            }
        }
        // Checked after merging, so two finite duplicates that overflow
        // are caught too.
        if let Some(&(row, col, value)) = merged.iter().find(|e| !e.2.is_finite()) {
            return Err(GraphError::NonFinite { row, col, value });
        }
        merged.retain(|&(_, _, v)| v != 0.0);

        let mut row_ptr = vec![0usize; rows + 1];
        for &(r, _, _) in &merged {
            row_ptr[r + 1] += 1;
        }
        for i in 0..rows {
            row_ptr[i + 1] += row_ptr[i];
        }
        let col_idx = merged.iter().map(|&(_, c, _)| c as u32).collect();
        let values = merged.iter().map(|&(_, _, v)| v).collect();
        Ok(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    /// An identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let triplets: Vec<_> = (0..n).map(|i| (i, i, 1.0)).collect();
        Self::from_triplets(n, n, &triplets).expect("identity coordinates are in bounds")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored (non-zero) entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// The `(column, value)` entries of row `i`.
    pub fn row(&self, i: usize) -> impl Iterator<Item = (usize, f32)> + '_ {
        let lo = self.row_ptr[i];
        let hi = self.row_ptr[i + 1];
        self.col_idx[lo..hi]
            .iter()
            .zip(&self.values[lo..hi])
            .map(|(&c, &v)| (c as usize, v))
    }

    /// Iterate over all `(row, col, value)` entries.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize, f32)> + '_ {
        (0..self.rows).flat_map(move |r| self.row(r).map(move |(c, v)| (r, c, v)))
    }

    /// Sum of each row.
    pub fn row_sums(&self) -> Vec<f32> {
        (0..self.rows)
            .map(|r| self.row(r).map(|(_, v)| v).sum())
            .collect()
    }

    /// Sparse × dense product: `out = self · dense`, where `dense` is a
    /// row-major `cols × d` matrix and `out` a row-major `rows × d` buffer.
    ///
    /// # Panics
    /// Panics if buffer sizes disagree with the matrix dimensions.
    pub fn mul_dense(&self, dense: &[f32], d: usize, out: &mut [f32]) {
        assert_eq!(
            dense.len(),
            self.cols * d,
            "dense operand must be cols×d row-major"
        );
        assert_eq!(out.len(), self.rows * d, "output must be rows×d row-major");
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx") {
            // SAFETY: AVX support was detected at run time.
            unsafe { self.mul_dense_avx(dense, d, out) };
            return;
        }
        self.mul_dense_body(dense, d, out);
    }

    /// [`CsrMatrix::mul_dense_body`] compiled with AVX enabled.
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn mul_dense_avx(&self, dense: &[f32], d: usize, out: &mut [f32]) {
        self.mul_dense_body(dense, d, out);
    }

    /// The `mul_dense` loop: every output cell starts at `+0.0` and adds
    /// its row's terms in stored-column order.
    #[inline(always)]
    fn mul_dense_body(&self, dense: &[f32], d: usize, out: &mut [f32]) {
        for (r, out_row) in out.chunks_exact_mut(d.max(1)).enumerate() {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let terms = self.col_idx[lo..hi].iter().zip(&self.values[lo..hi]);
            combine_rows(terms.map(|(&c, &v)| (c as usize, v)), dense, d, out_row);
        }
    }

    /// Transposed sparse × dense product: `out = selfᵀ · dense`, with
    /// `dense` a `rows × d` matrix and `out` a `cols × d` buffer, scattered
    /// row by row — the reference that [`CsrMatrix::transpose`]'s gather is
    /// checked against.
    ///
    /// A `dense` row that is all `±0` is skipped when this matrix's row
    /// holds only finite values: its terms `v · ±0` are `±0`, and adding
    /// `±0` to an output cell — which starts at `+0.0` and so is never
    /// `-0.0` — changes nothing. A non-finite stored value keeps the row
    /// (`∞ · 0` is NaN), so the result is bitwise the full product's.
    pub fn transpose_mul_dense(&self, dense: &[f32], d: usize, out: &mut [f32]) {
        assert_eq!(
            dense.len(),
            self.rows * d,
            "dense operand must be rows×d row-major"
        );
        assert_eq!(out.len(), self.cols * d, "output must be cols×d row-major");
        out.fill(0.0);
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx") {
            // SAFETY: AVX support was detected at run time.
            unsafe { self.transpose_mul_dense_avx(dense, d, out) };
            return;
        }
        self.transpose_mul_dense_body(dense, d, out);
    }

    /// [`CsrMatrix::transpose_mul_dense_body`] compiled with AVX enabled.
    ///
    /// # Safety
    /// The CPU must support AVX.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx")]
    unsafe fn transpose_mul_dense_avx(&self, dense: &[f32], d: usize, out: &mut [f32]) {
        self.transpose_mul_dense_body(dense, d, out);
    }

    /// The `transpose_mul_dense` loop over a zeroed `out`: every output
    /// cell adds its terms in increasing source-row order.
    #[inline(always)]
    fn transpose_mul_dense_body(&self, dense: &[f32], d: usize, out: &mut [f32]) {
        for (r, src) in dense.chunks_exact(d.max(1)).enumerate() {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            let values = &self.values[lo..hi];
            let zero_row = !src.iter().fold(false, |any, &s| any | (s != 0.0));
            if zero_row && values.iter().all(|v| v.is_finite()) {
                continue;
            }
            for (&c, &v) in self.col_idx[lo..hi].iter().zip(values) {
                let c = c as usize;
                let out_row = &mut out[c * d..(c + 1) * d];
                for (o, &s) in out_row.iter_mut().zip(src) {
                    *o += v * s;
                }
            }
        }
    }

    /// The transpose `selfᵀ`, with each row's entries in increasing
    /// source-row order, as every CSR row keeps them. The GCN backward
    /// pass multiplies by the transpose of a fixed adjacency every epoch,
    /// so it builds this once.
    ///
    /// `self.transpose().mul_dense(x)` is bitwise
    /// [`CsrMatrix::transpose_mul_dense`]`(x)`: every output cell adds the
    /// same terms in the same increasing source-row order, gathered instead
    /// of scattered. The only terms the scatter leaves out — those of an
    /// all-`±0` row of `x` against an all-finite row of `self` — are `±0`,
    /// which leave a cell that starts at `+0.0` unchanged; a non-finite
    /// stored value is never left out by either.
    pub fn transpose(&self) -> CsrMatrix {
        let mut row_ptr = vec![0usize; self.cols + 1];
        for &c in &self.col_idx {
            row_ptr[c as usize + 1] += 1;
        }
        for c in 0..self.cols {
            row_ptr[c + 1] += row_ptr[c];
        }
        // Visiting the source rows in increasing order appends each
        // transposed row's entries in increasing source-row order.
        let mut next = row_ptr[..self.cols].to_vec();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![0.0f32; self.nnz()];
        for r in 0..self.rows {
            for (c, v) in self.row(r) {
                col_idx[next[c]] = r as u32;
                values[next[c]] = v;
                next[c] += 1;
            }
        }
        CsrMatrix {
            rows: self.cols,
            cols: self.rows,
            row_ptr,
            col_idx,
            values,
        }
    }

    /// Symmetric degree normalisation `D^{-1/2} (self) D^{-1/2}` where `D` is
    /// the diagonal of row sums. Rows/columns with zero sum are left zero.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn symmetric_normalized(&self) -> Self {
        assert_eq!(
            self.rows, self.cols,
            "symmetric normalisation needs a square matrix"
        );
        let sums = self.row_sums();
        let inv_sqrt: Vec<f32> = sums
            .iter()
            .map(|&s| if s > 0.0 { 1.0 / s.sqrt() } else { 0.0 })
            .collect();
        let mut out = self.clone();
        for r in 0..self.rows {
            let lo = out.row_ptr[r];
            let hi = out.row_ptr[r + 1];
            for k in lo..hi {
                let c = out.col_idx[k] as usize;
                out.values[k] *= inv_sqrt[r] * inv_sqrt[c];
            }
        }
        out
    }

    /// Row-stochastic normalisation `D^{-1} (self)`.
    pub fn row_normalized(&self) -> Self {
        let sums = self.row_sums();
        let mut out = self.clone();
        for (r, &sum) in sums.iter().enumerate() {
            if sum <= 0.0 {
                continue;
            }
            let lo = out.row_ptr[r];
            let hi = out.row_ptr[r + 1];
            for k in lo..hi {
                out.values[k] /= sum;
            }
        }
        out
    }
}

/// `out_row = Σ v · dense[k]` over `terms`: every cell starts at `+0.0`
/// and adds its terms in the given order. Full 64- and 32-column chunks
/// accumulate in a local array, which stays in registers across the terms
/// instead of going through `out_row` for each one; the bits are those of
/// the plain loop over a zeroed row. Each vector lane is one cell and
/// multiply and add stay separate, so any instruction set gives the same
/// bits too.
#[inline(always)]
fn combine_rows(
    terms: impl Iterator<Item = (usize, f32)> + Clone,
    dense: &[f32],
    d: usize,
    out_row: &mut [f32],
) {
    let mut c0 = 0;
    while c0 + 64 <= d {
        combine_chunk::<64>(terms.clone(), dense, d, c0, out_row);
        c0 += 64;
    }
    if c0 + 32 <= d {
        combine_chunk::<32>(terms.clone(), dense, d, c0, out_row);
        c0 += 32;
    }
    if c0 < d {
        let tail = &mut out_row[c0..];
        tail.fill(0.0);
        for (k, v) in terms {
            let src = &dense[k * d + c0..(k + 1) * d];
            for (o, &s) in tail.iter_mut().zip(src) {
                *o += v * s;
            }
        }
    }
}

/// Columns `[c0, c0 + W)` of [`combine_rows`].
#[inline(always)]
fn combine_chunk<const W: usize>(
    terms: impl Iterator<Item = (usize, f32)>,
    dense: &[f32],
    d: usize,
    c0: usize,
    out_row: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    for (k, v) in terms {
        let src = &dense[k * d + c0..k * d + c0 + W];
        for (a, &s) in acc.iter_mut().zip(src) {
            *a += v * s;
        }
    }
    out_row[c0..c0 + W].copy_from_slice(&acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn from_triplets_merges_duplicates() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 1, 1.0), (0, 1, 2.0), (1, 0, 4.0)]).unwrap();
        assert_eq!(m.nnz(), 2);
        let row0: Vec<_> = m.row(0).collect();
        assert_eq!(row0, vec![(1, 3.0)]);
    }

    #[test]
    fn zero_values_are_dropped() {
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 1, -1.0), (1, 1, 1.0)]).unwrap();
        assert_eq!(m.nnz(), 1);
    }

    #[test]
    fn out_of_bounds_rejected() {
        assert!(CsrMatrix::from_triplets(2, 2, &[(2, 0, 1.0)]).is_err());
        assert!(CsrMatrix::from_triplets(2, 2, &[(0, 5, 1.0)]).is_err());
    }

    #[test]
    fn non_finite_values_rejected() {
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let err = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (1, 0, bad)]).unwrap_err();
            assert!(
                matches!(err, GraphError::NonFinite { row: 1, col: 0, value } if value.to_bits() == bad.to_bits()),
                "{err:?}"
            );
        }
        assert!(CsrMatrix::from_triplets(1, 1, &[(0, 0, f32::MAX)]).is_ok());
        // Two finite duplicates whose sum overflows.
        let err = CsrMatrix::from_triplets(1, 1, &[(0, 0, f32::MAX), (0, 0, f32::MAX)]);
        assert!(matches!(err, Err(GraphError::NonFinite { .. })));
    }

    #[test]
    fn identity_times_dense_is_dense() {
        let m = CsrMatrix::identity(3);
        let dense = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3x2
        let mut out = vec![0.0; 6];
        m.mul_dense(&dense, 2, &mut out);
        assert_eq!(out, dense);
    }

    #[test]
    fn mul_dense_small_example() {
        // [[1, 2], [0, 3]] * [[1], [10]] = [[21], [30]]
        let m = CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 2.0), (1, 1, 3.0)]).unwrap();
        let mut out = vec![0.0; 2];
        m.mul_dense(&[1.0, 10.0], 1, &mut out);
        assert_eq!(out, vec![21.0, 30.0]);
    }

    #[test]
    fn transpose_mul_matches_explicit_transpose() {
        let m =
            CsrMatrix::from_triplets(2, 3, &[(0, 0, 1.0), (0, 2, 2.0), (1, 1, 3.0), (1, 2, 4.0)])
                .unwrap();
        let dense = vec![1.0, 2.0]; // 2x1
        let mut out = vec![0.0; 3];
        m.transpose_mul_dense(&dense, 1, &mut out);
        // Mᵀ = [[1,0],[0,3],[2,4]]; Mᵀ·[1,2] = [1, 6, 10]
        assert_eq!(out, vec![1.0, 6.0, 10.0]);
    }

    /// A `rows × cols` CSR with about a third of its cells stored, plus a
    /// `len`-long dense buffer, from a reproducible LCG.
    fn lcg_case(rows: usize, cols: usize, len: usize, seed: u32) -> (CsrMatrix, Vec<f32>) {
        let mut state = seed | 1;
        let mut draw = move || {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
        };
        let mut triplets = Vec::new();
        for r in 0..rows {
            for c in 0..cols {
                if draw() < -0.17 {
                    triplets.push((r, c, draw()));
                }
            }
        }
        let m = CsrMatrix::from_triplets(rows, cols, &triplets).unwrap();
        (m, (0..len).map(|_| draw()).collect())
    }

    /// `selfᵀ · dense` visiting every row: the loop before the zero-row
    /// skip.
    fn full_transpose_mul(m: &CsrMatrix, dense: &[f32], d: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m.cols() * d];
        for r in 0..m.rows() {
            for (c, v) in m.row(r) {
                for j in 0..d {
                    out[c * d + j] += v * dense[r * d + j];
                }
            }
        }
        out
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn zero_row_skip_is_bitwise_the_full_transpose_product() {
        let d = 13;
        let (mut m, mut dense) = lcg_case(40, 30, 40 * 13, 7);
        let check = |m: &CsrMatrix, dense: &[f32], label: &str| {
            let mut out = vec![0.0f32; m.cols() * d];
            m.transpose_mul_dense(dense, d, &mut out);
            assert_eq!(
                bits(&out),
                bits(&full_transpose_mul(m, dense, d)),
                "{label}"
            );
            out
        };
        check(&m, &dense, "no zero rows");
        // Zero rows, some written as -0.0, and a -0.0 inside a live row.
        for r in (0..40).step_by(3) {
            let z = if r % 2 == 0 { 0.0 } else { -0.0 };
            dense[r * d..(r + 1) * d].fill(z);
        }
        dense[d + 4] = -0.0;
        check(&m, &dense, "zero rows");
        check(&m, &vec![-0.0; 40 * d], "all rows zero");
        // A non-finite stored value in a zero row's sparse row must keep
        // the row: `∞ · 0` is NaN in the full product.
        let r = (0..40).step_by(3).find(|&r| m.row(r).count() > 0).unwrap();
        let k = m.row_ptr[r];
        for bad in [f32::INFINITY, f32::NAN] {
            m.values[k] = bad;
            let out = check(&m, &dense, "non-finite in a skipped row");
            assert!(out.iter().any(|x| x.is_nan()));
        }
    }

    #[test]
    fn transpose_gather_is_bitwise_the_scatter() {
        // Widths through every `combine_rows` path: the 64- and 32-wide
        // register chunks and the tail.
        for d in [1, 13, 32, 64, 67, 97] {
            let (mut m, mut dense) = lcg_case(40, 30, 40 * d, d as u32);
            assert_eq!(m.transpose().transpose(), m);
            let check = |m: &CsrMatrix, dense: &[f32], label: &str| {
                let mut want = vec![0.0f32; m.cols() * d];
                m.transpose_mul_dense(dense, d, &mut want);
                // `mul_dense` overwrites every cell, whatever `out` held.
                let mut got = vec![f32::NAN; m.cols() * d];
                m.transpose().mul_dense(dense, d, &mut got);
                assert_eq!(bits(&got), bits(&want), "{label}, d = {d}");
                got
            };
            check(&m, &dense, "no zero rows");
            // Zero rows, some written as -0.0, and a -0.0 inside a live row.
            for r in (0..40).step_by(3) {
                let z = if r % 2 == 0 { 0.0 } else { -0.0 };
                dense[r * d..(r + 1) * d].fill(z);
            }
            dense[d] = -0.0;
            check(&m, &dense, "zero rows");
            check(&m, &vec![-0.0; 40 * d], "all rows zero");
            // A non-finite stored value in a zero row's sparse row: the
            // scatter keeps that row, and the gather must produce its NaN.
            let r = (0..40).step_by(3).find(|&r| m.row(r).count() > 0).unwrap();
            let k = m.row_ptr[r];
            for bad in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
                m.values[k] = bad;
                let out = check(&m, &dense, "non-finite in a skipped row");
                assert!(out.iter().any(|x| x.is_nan()));
            }
        }
    }

    #[test]
    fn avx_and_plain_product_loops_agree_bitwise() {
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx") {
            for d in [1, 7, 9, 64, 67] {
                let (m, dense) = lcg_case(37, 29, 29 * d, d as u32);
                let (mut plain, mut avx) = (vec![0.0; 37 * d], vec![0.0; 37 * d]);
                m.mul_dense_body(&dense, d, &mut plain);
                // SAFETY: AVX support was detected above.
                unsafe { m.mul_dense_avx(&dense, d, &mut avx) };
                assert_eq!(bits(&plain), bits(&avx), "mul_dense, d = {d}");

                let (m, dense) = lcg_case(37, 29, 37 * d, d as u32 + 100);
                let (mut plain, mut avx) = (vec![0.0; 29 * d], vec![0.0; 29 * d]);
                m.transpose_mul_dense_body(&dense, d, &mut plain);
                // SAFETY: AVX support was detected above.
                unsafe { m.transpose_mul_dense_avx(&dense, d, &mut avx) };
                assert_eq!(bits(&plain), bits(&avx), "transpose_mul_dense, d = {d}");
            }
        }
    }

    #[test]
    fn symmetric_normalization_of_path_graph() {
        // A + I for the path 0-1: [[1,1],[1,1]] -> each row sum 2
        let m =
            CsrMatrix::from_triplets(2, 2, &[(0, 0, 1.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 1.0)])
                .unwrap();
        let n = m.symmetric_normalized();
        for (_, _, v) in n.iter() {
            assert!((v - 0.5).abs() < 1e-6);
        }
    }

    #[test]
    fn row_normalized_rows_sum_to_one() {
        let m = CsrMatrix::from_triplets(2, 3, &[(0, 0, 2.0), (0, 2, 2.0), (1, 1, 5.0)]).unwrap();
        let n = m.row_normalized();
        let sums = n.row_sums();
        assert!((sums[0] - 1.0).abs() < 1e-6);
        assert!((sums[1] - 1.0).abs() < 1e-6);
    }

    proptest! {
        /// spmm against a dense reference implementation.
        #[test]
        fn mul_dense_matches_dense_reference(
            rows in 1usize..8,
            cols in 1usize..8,
            d in 1usize..5,
            entries in proptest::collection::vec((0usize..8, 0usize..8, -5.0f32..5.0), 0..20),
            dense_vals in proptest::collection::vec(-3.0f32..3.0, 64),
        ) {
            let entries: Vec<_> = entries
                .into_iter()
                .filter(|&(r, c, _)| r < rows && c < cols)
                .collect();
            let m = CsrMatrix::from_triplets(rows, cols, &entries).unwrap();
            let dense: Vec<f32> = dense_vals.into_iter().take(cols * d).collect();
            prop_assume!(dense.len() == cols * d);

            let mut out = vec![0.0f32; rows * d];
            m.mul_dense(&dense, d, &mut out);

            // Dense reference.
            let mut full = vec![0.0f32; rows * cols];
            for &(r, c, v) in &entries {
                full[r * cols + c] += v;
            }
            for r in 0..rows {
                for j in 0..d {
                    let mut acc = 0.0f32;
                    for c in 0..cols {
                        acc += full[r * cols + c] * dense[c * d + j];
                    }
                    prop_assert!((acc - out[r * d + j]).abs() < 1e-3);
                }
            }
        }
    }
}
