//! Dense row-major `f32` matrices with the kernels the EA encoders need.
//!
//! Kernel notes: large matrix products dispatch onto the cache-blocked,
//! SIMD-friendly implementations in [`crate::kernels`] (tiled loops, a
//! packed B panel, fixed 64-row accumulation blocks); small shapes keep
//! the naive loops retained in [`crate::kernels::reference`], which also
//! define the accumulation order the tiled kernels must reproduce
//! bitwise. Parallel kernels split over fixed output-row blocks,
//! elementwise ops over fixed-size element chunks, via the
//! `ceaff-parallel` work pool (through the rayon shim). Partitioning
//! depends only on the problem shape — never the thread count — and each
//! chunk keeps the sequential accumulation order, so results are
//! bitwise-identical for any `CEAFF_THREADS` (asserted by
//! `tests/parallel_determinism.rs` and `tests/kernel_parity.rs`).

use crate::budget;
use crate::kernels;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Index, IndexMut};

/// Minimum number of rows before a kernel bothers dispatching to the pool.
const PAR_ROW_THRESHOLD: usize = 64;

/// Row-block width shared with [`crate::kernels`]: parallel row kernels
/// are chunked in fixed 64-row blocks.
const ROW_BLOCK: usize = kernels::ROW_BLOCK;

/// Minimum number of elements before an elementwise op goes parallel.
const PAR_ELEM_THRESHOLD: usize = 16 * 1024;

/// Elementwise ops are split into fixed chunks of this many elements; fixed
/// (rather than thread-count-derived) chunking is what keeps the partition,
/// and hence every rounding decision, independent of parallelism.
const ELEM_CHUNK: usize = 4 * 1024;

/// Apply `op(dst_elem, src_elem)` over two equal-length buffers, in
/// parallel above [`PAR_ELEM_THRESHOLD`].
fn zip_assign(dst: &mut [f32], src: &[f32], op: impl Fn(&mut f32, f32) + Sync) {
    debug_assert_eq!(dst.len(), src.len());
    if dst.len() >= PAR_ELEM_THRESHOLD {
        dst.par_chunks_mut(ELEM_CHUNK)
            .enumerate()
            .for_each(|(ci, chunk)| {
                let start = ci * ELEM_CHUNK;
                let len = chunk.len();
                for (a, &b) in chunk.iter_mut().zip(&src[start..start + len]) {
                    op(a, b);
                }
            });
    } else {
        for (a, &b) in dst.iter_mut().zip(src) {
            op(a, b);
        }
    }
}

/// Apply `op` to every element in place, in parallel above
/// [`PAR_ELEM_THRESHOLD`].
fn for_each_elem(dst: &mut [f32], op: impl Fn(&mut f32) + Sync) {
    if dst.len() >= PAR_ELEM_THRESHOLD {
        dst.par_chunks_mut(ELEM_CHUNK).for_each(|chunk| {
            for a in chunk {
                op(a);
            }
        });
    } else {
        for a in dst {
            op(a);
        }
    }
}

/// A dense `rows × cols` matrix of `f32`, row-major.
///
/// Every buffer is registered with the thread-local allocation ledger in
/// [`crate::budget`] (and released on drop), so an execution budget can
/// cap the pipeline's tensor footprint. `tracked` remembers how many
/// bytes *this* value registered; it is invisible to equality and
/// serialization.
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
    tracked: usize,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.clone(),
            tracked: budget::on_alloc(self.data.len() * std::mem::size_of::<f32>()),
        }
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        budget::on_release(self.tracked);
    }
}

impl PartialEq for Matrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows && self.cols == other.cols && self.data == other.data
    }
}

// Manual (de)serialization keeps the wire format of the old
// `#[derive(Serialize, Deserialize)]` — `{rows, cols, data}` — without
// exposing the accounting field; deserialized buffers register against
// the ledger like any other allocation.
impl Serialize for Matrix {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("rows".to_owned(), self.rows.to_value()),
            ("cols".to_owned(), self.cols.to_value()),
            ("data".to_owned(), self.data.to_value()),
        ])
    }
}

impl Deserialize for Matrix {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let entries = v
            .as_object()
            .ok_or_else(|| serde::Error::custom("expected object for struct Matrix"))?;
        let rows: usize = serde::de::field(entries, "rows")?;
        let cols: usize = serde::de::field(entries, "cols")?;
        let data: Vec<f32> = serde::de::field(entries, "data")?;
        if data.len() != rows * cols {
            return Err(serde::Error::custom(format!(
                "matrix buffer length {} does not match {rows}x{cols}",
                data.len()
            )));
        }
        Ok(Matrix::from_vec(rows, cols, data))
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 36 {
            for r in 0..self.rows {
                write!(f, "\n  {:?}", self.row(r))?;
            }
        }
        Ok(())
    }
}

impl Matrix {
    /// A matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
            tracked: budget::on_alloc(rows * cols * std::mem::size_of::<f32>()),
        }
    }

    /// A matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
            tracked: budget::on_alloc(rows * cols * std::mem::size_of::<f32>()),
        }
    }

    /// Build from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} does not match {rows}x{cols}",
            data.len()
        );
        Self {
            rows,
            cols,
            tracked: budget::on_alloc(data.len() * std::mem::size_of::<f32>()),
            data,
        }
    }

    /// Build from nested rows (test convenience).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self::from_vec(r, c, data)
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Row `r` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Matrix product `self · other`.
    ///
    /// Large shapes run the cache-blocked kernel
    /// ([`crate::kernels::matmul_tiled`]); small shapes keep the naive
    /// reference loop. Both produce bitwise-identical results — the tiled
    /// kernel preserves the reference's per-cell accumulation order (`k`
    /// increasing, `a == 0.0` skipped).
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.rows,
            "matmul dimension mismatch: {}x{} · {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        if kernels::use_tiled(self.rows, other.cols, self.cols) {
            let mut out = Matrix::zeros(self.rows, other.cols);
            kernels::matmul_tiled(
                &self.data,
                self.rows,
                self.cols,
                &other.data,
                other.cols,
                &mut out.data,
            );
            out
        } else {
            kernels::reference::matmul(self, other)
        }
    }

    /// `self · otherᵀ` without materialising the transpose. The workhorse of
    /// pairwise similarity matrices (every output cell is a row·row dot).
    ///
    /// Large shapes run the panel kernel
    /// ([`crate::kernels::matmul_transpose_tiled`]), which packs `other`'s
    /// rows into lane-major 8-row panels, keeps a tile of them L1-resident
    /// across a 64-row block of `self` and computes eight dots per A-row
    /// pass; every cell still reduces exactly like [`dot`], so results are
    /// bitwise-identical to the naive loop.
    pub fn matmul_transpose(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.cols, other.cols,
            "matmul_transpose needs matching column counts: {}x{} · ({}x{})ᵀ",
            self.rows, self.cols, other.rows, other.cols
        );
        if kernels::use_tiled(self.rows, other.rows, self.cols) {
            let mut out = Matrix::zeros(self.rows, other.rows);
            kernels::matmul_transpose_tiled(
                &self.data,
                self.rows,
                self.cols,
                &other.data,
                other.rows,
                &mut out.data,
            );
            out
        } else {
            kernels::reference::matmul_transpose(self, other)
        }
    }

    /// `selfᵀ · other`, used by matmul backward passes.
    ///
    /// Runs the register-tiled kernel
    /// ([`crate::kernels::transpose_matmul_blocked`]): 4×16 output tiles
    /// stay in registers while the rows of A and B stream past in 64-row
    /// chunks. Per-cell accumulation stays `r`-increasing with `a == 0.0`
    /// skipped, so results are bitwise-identical to the reference loop.
    pub fn transpose_matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(
            self.rows, other.rows,
            "transpose_matmul needs matching row counts"
        );
        let mut out = Matrix::zeros(self.cols, other.cols);
        kernels::transpose_matmul_blocked(
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
            &mut out.data,
        );
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Elementwise in-place addition.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        zip_assign(&mut self.data, &other.data, |a, b| *a += b);
    }

    /// In-place `self += scale * other`.
    pub fn add_scaled_assign(&mut self, other: &Matrix, scale: f32) {
        assert_eq!(self.shape(), other.shape(), "add_scaled shape mismatch");
        zip_assign(&mut self.data, &other.data, |a, b| *a += scale * b);
    }

    /// Elementwise in-place subtraction.
    pub fn sub_assign(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "sub_assign shape mismatch");
        zip_assign(&mut self.data, &other.data, |a, b| *a -= b);
    }

    /// Multiply every element by `s` in place.
    pub fn scale_assign(&mut self, s: f32) {
        for_each_elem(&mut self.data, |a| *a *= s);
    }

    /// Set all elements to zero.
    pub fn fill_zero(&mut self) {
        self.data.fill(0.0);
    }

    /// Apply `f` to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f32) -> f32 + Sync) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        if self.data.len() >= PAR_ELEM_THRESHOLD {
            let src = &self.data;
            out.data
                .par_chunks_mut(ELEM_CHUNK)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    let start = ci * ELEM_CHUNK;
                    let len = chunk.len();
                    for (o, &x) in chunk.iter_mut().zip(&src[start..start + len]) {
                        *o = f(x);
                    }
                });
        } else {
            for (o, &x) in out.data.iter_mut().zip(&self.data) {
                *o = f(x);
            }
        }
        out
    }

    /// Normalise every row to unit L2 norm in place; zero rows are left zero.
    /// (Paper §IV-A: the GCN input matrix is L2-normalised on rows.)
    ///
    /// Parallel work is chunked in fixed `ROW_BLOCK`-row blocks (one
    /// pool dispatch per 64 rows instead of per row); each row is still
    /// normalised independently, so the result is identical at any
    /// thread count.
    pub fn l2_normalize_rows(&mut self) {
        if self.cols == 0 {
            return;
        }
        let cols = self.cols;
        let normalize_block = |block: &mut [f32]| {
            for row in block.chunks_mut(cols) {
                let norm = dot(row, row).sqrt();
                if norm > 0.0 {
                    for v in row {
                        *v /= norm;
                    }
                }
            }
        };
        if self.rows >= PAR_ROW_THRESHOLD {
            self.data
                .par_chunks_mut(ROW_BLOCK * cols)
                .for_each(normalize_block);
        } else {
            normalize_block(&mut self.data);
        }
    }

    /// Fused copy + row normalisation: returns a new matrix whose rows
    /// are the unit-L2 rows of `self` (zero rows stay zero), computed in
    /// one pass without mutating `self`.
    ///
    /// Bitwise-identical to `self.clone()` followed by
    /// [`Matrix::l2_normalize_rows`], but skips the intermediate
    /// clone-then-rescale traffic: each output row is written exactly
    /// once as `src / norm`.
    pub fn l2_normalized_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        if self.cols == 0 {
            return out;
        }
        let cols = self.cols;
        let src = &self.data;
        let write_block = |(bi, block): (usize, &mut [f32])| {
            let base = bi * ROW_BLOCK * cols;
            for (ri, out_row) in block.chunks_mut(cols).enumerate() {
                let start = base + ri * cols;
                let row = &src[start..start + cols];
                let norm = dot(row, row).sqrt();
                if norm > 0.0 {
                    for (o, &v) in out_row.iter_mut().zip(row) {
                        *o = v / norm;
                    }
                } else {
                    out_row.copy_from_slice(row);
                }
            }
        };
        if self.rows >= PAR_ROW_THRESHOLD {
            out.data
                .par_chunks_mut(ROW_BLOCK * cols)
                .enumerate()
                .for_each(write_block);
        } else {
            write_block((0, &mut out.data));
        }
        out
    }

    /// Fused elementwise combine: `out[i] = f(self[i], other[i])` in a
    /// single pass, parallel above `PAR_ELEM_THRESHOLD` elements in fixed
    /// `ELEM_CHUNK`-element chunks. Replaces clone-then-`zip_assign` patterns
    /// (one write per element instead of a copy plus a rewrite).
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn zip_map(&self, other: &Matrix, f: impl Fn(f32, f32) -> f32 + Sync) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "zip_map shape mismatch");
        let mut out = Matrix::zeros(self.rows, self.cols);
        let (a, b) = (&self.data, &other.data);
        if out.data.len() >= PAR_ELEM_THRESHOLD {
            out.data
                .par_chunks_mut(ELEM_CHUNK)
                .enumerate()
                .for_each(|(ci, chunk)| {
                    let start = ci * ELEM_CHUNK;
                    for (i, o) in chunk.iter_mut().enumerate() {
                        *o = f(a[start + i], b[start + i]);
                    }
                });
        } else {
            for (i, o) in out.data.iter_mut().enumerate() {
                *o = f(a[i], b[i]);
            }
        }
        out
    }

    /// Elementwise (Hadamard) product, fused via [`Matrix::zip_map`].
    pub fn hadamard(&self, other: &Matrix) -> Matrix {
        self.zip_map(other, |a, b| a * b)
    }

    /// Per-row L1 distances `‖a_i − b_i‖₁` as an n×1 column. Each row sums
    /// left-to-right (the sequential order the autograd tape always used);
    /// rows are independent, so parallel blocks change nothing.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn row_l1_distances(&self, other: &Matrix) -> Matrix {
        self.row_reduce(other, |a_row, b_row| {
            a_row.iter().zip(b_row).map(|(&x, &y)| (x - y).abs()).sum()
        })
    }

    /// Per-row squared L2 distances as an n×1 column (same ordering
    /// contract as [`Matrix::row_l1_distances`]).
    pub fn row_l2_sq_distances(&self, other: &Matrix) -> Matrix {
        self.row_reduce(other, |a_row, b_row| {
            a_row
                .iter()
                .zip(b_row)
                .map(|(&x, &y)| (x - y) * (x - y))
                .sum()
        })
    }

    /// Shared driver for the per-row distance reductions: applies `f` to
    /// matched rows, writing an n×1 column, parallel in fixed
    /// [`ROW_BLOCK`]-row blocks.
    fn row_reduce(&self, other: &Matrix, f: impl Fn(&[f32], &[f32]) -> f32 + Sync) -> Matrix {
        assert_eq!(self.shape(), other.shape(), "row_reduce shape mismatch");
        let mut out = Matrix::zeros(self.rows, 1);
        let cols = self.cols;
        let (a, b) = (&self.data, &other.data);
        let fill_block = |(bi, block): (usize, &mut [f32])| {
            let r0 = bi * ROW_BLOCK;
            for (i, o) in block.iter_mut().enumerate() {
                let start = (r0 + i) * cols;
                *o = f(&a[start..start + cols], &b[start..start + cols]);
            }
        };
        if self.rows >= PAR_ROW_THRESHOLD {
            out.data
                .par_chunks_mut(ROW_BLOCK)
                .enumerate()
                .for_each(fill_block);
        } else {
            fill_block((0, &mut out.data));
        }
        out
    }

    /// Row-wise softmax as a new matrix: per row, subtract the max,
    /// exponentiate, and divide by the (sequentially accumulated) total.
    /// Fused read-compute-write — no intermediate clone — and parallel in
    /// fixed `ROW_BLOCK`-row blocks with the per-row operation order of
    /// the old sequential loop, so results are identical at any thread
    /// count.
    pub fn softmax_rows(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        if self.cols == 0 {
            return out;
        }
        let cols = self.cols;
        let src = &self.data;
        let fill_block = |(bi, block): (usize, &mut [f32])| {
            let base = bi * ROW_BLOCK * cols;
            for (ri, out_row) in block.chunks_mut(cols).enumerate() {
                let start = base + ri * cols;
                let row = &src[start..start + cols];
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                let mut total = 0.0;
                for (o, &v) in out_row.iter_mut().zip(row) {
                    *o = (v - max).exp();
                    total += *o;
                }
                for o in out_row.iter_mut() {
                    *o /= total;
                }
            }
        };
        if self.rows >= PAR_ROW_THRESHOLD {
            out.data
                .par_chunks_mut(ROW_BLOCK * cols)
                .enumerate()
                .for_each(fill_block);
        } else {
            fill_block((0, &mut out.data));
        }
        out
    }

    /// L2 norm of row `r`.
    pub fn row_norm(&self, r: usize) -> f32 {
        let row = self.row(r);
        dot(row, row).sqrt()
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        dot(&self.data, &self.data).sqrt()
    }

    /// Gather `indices` rows into a new matrix (embedding lookup).
    ///
    /// # Panics
    /// Panics if an index is out of range.
    pub fn gather_rows(&self, indices: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(indices.len(), self.cols);
        for (i, &idx) in indices.iter().enumerate() {
            assert!(
                idx < self.rows,
                "gather index {idx} out of {} rows",
                self.rows
            );
            out.row_mut(i).copy_from_slice(self.row(idx));
        }
        out
    }

    /// Whether every element is finite (no NaN, no ±∞). A cheap linear
    /// scan — the numeric-health guard the training loop runs on losses
    /// and gradients before accepting an optimizer step.
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|v| v.is_finite())
    }

    /// Position `(row, col)` and value of the first non-finite element,
    /// or `None` when the matrix is healthy. Used for diagnostics when
    /// [`Matrix::all_finite`] fails.
    pub fn first_non_finite(&self) -> Option<(usize, usize, f32)> {
        self.data
            .iter()
            .position(|v| !v.is_finite())
            .map(|i| (i / self.cols.max(1), i % self.cols.max(1), self.data[i]))
    }

    /// Maximum absolute difference to another matrix (test helper).
    pub fn max_abs_diff(&self, other: &Matrix) -> f32 {
        assert_eq!(self.shape(), other.shape());
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f32::max)
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        &mut self.data[r * self.cols + c]
    }
}

/// Dot product of two equal-length slices.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    // Chunked accumulation: lets the compiler vectorise and improves
    // numerical behaviour over naive left-to-right summation.
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut total = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        total += a[i] * b[i];
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = Matrix::zeros(2, 3);
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.shape(), (2, 3));
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0]);
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn matmul_known_product() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_transpose_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0, 0.0, 1.0], &[0.0, 2.0, 0.0], &[1.0, 1.0, 1.0]]);
        let c1 = a.matmul_transpose(&b);
        let c2 = a.matmul(&b.transpose());
        assert!(c1.max_abs_diff(&c2) < 1e-6);
    }

    #[test]
    fn transpose_matmul_matches_explicit() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let b = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let c1 = a.transpose_matmul(&b);
        let c2 = a.transpose().matmul(&b);
        assert!(c1.max_abs_diff(&c2) < 1e-6);
    }

    #[test]
    fn l2_normalize_rows_gives_unit_rows() {
        let mut m = Matrix::from_rows(&[&[3.0, 4.0], &[0.0, 0.0], &[1.0, 0.0]]);
        m.l2_normalize_rows();
        assert!((m.row_norm(0) - 1.0).abs() < 1e-6);
        assert_eq!(m.row(1), &[0.0, 0.0]); // zero row untouched
        assert!((m.row_norm(2) - 1.0).abs() < 1e-6);
        assert!((m[(0, 0)] - 0.6).abs() < 1e-6);
    }

    #[test]
    fn gather_rows_selects() {
        let m = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let g = m.gather_rows(&[2, 0, 2]);
        assert_eq!(g.as_slice(), &[3.0, 3.0, 1.0, 1.0, 3.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "gather index")]
    fn gather_rows_bounds() {
        let m = Matrix::zeros(2, 2);
        let _ = m.gather_rows(&[5]);
    }

    #[test]
    fn inplace_arithmetic() {
        let mut a = Matrix::filled(2, 2, 1.0);
        let b = Matrix::filled(2, 2, 2.0);
        a.add_assign(&b);
        assert_eq!(a.as_slice(), &[3.0; 4]);
        a.sub_assign(&b);
        assert_eq!(a.as_slice(), &[1.0; 4]);
        a.scale_assign(4.0);
        assert_eq!(a.as_slice(), &[4.0; 4]);
        a.add_scaled_assign(&b, 0.5);
        assert_eq!(a.as_slice(), &[5.0; 4]);
    }

    #[test]
    fn finite_scan_finds_the_first_bad_element() {
        let mut m = Matrix::filled(3, 4, 1.0);
        assert!(m.all_finite());
        assert_eq!(m.first_non_finite(), None);
        m[(1, 2)] = f32::NAN;
        m[(2, 0)] = f32::INFINITY;
        assert!(!m.all_finite());
        let (r, c, v) = m.first_non_finite().unwrap();
        assert_eq!((r, c), (1, 2));
        assert!(v.is_nan());
    }

    #[test]
    fn dot_handles_non_multiple_of_four() {
        let a = [1.0, 2.0, 3.0, 4.0, 5.0];
        let b = [1.0, 1.0, 1.0, 1.0, 1.0];
        assert_eq!(dot(&a, &b), 15.0);
    }

    proptest! {
        /// (A·B)·C == A·(B·C) within float tolerance.
        #[test]
        fn matmul_is_associative(
            vals_a in proptest::collection::vec(-2.0f32..2.0, 6),
            vals_b in proptest::collection::vec(-2.0f32..2.0, 6),
            vals_c in proptest::collection::vec(-2.0f32..2.0, 4),
        ) {
            let a = Matrix::from_vec(2, 3, vals_a);
            let b = Matrix::from_vec(3, 2, vals_b);
            let c = Matrix::from_vec(2, 2, vals_c);
            let left = a.matmul(&b).matmul(&c);
            let right = a.matmul(&b.matmul(&c));
            prop_assert!(left.max_abs_diff(&right) < 1e-3);
        }

        /// Transposing twice is the identity.
        #[test]
        fn transpose_involution(rows in 1usize..6, cols in 1usize..6,
                                seed in proptest::collection::vec(-10.0f32..10.0, 36)) {
            let data: Vec<f32> = seed.into_iter().take(rows * cols).collect();
            prop_assume!(data.len() == rows * cols);
            let m = Matrix::from_vec(rows, cols, data);
            prop_assert_eq!(m.transpose().transpose(), m);
        }
    }
}
