//! Bitwise parity of the cache-blocked kernels against the retained naive
//! references, over randomized shapes and tile widths.
//!
//! The tiled kernels in `ceaff_tensor::kernels` claim to change only the
//! *traversal* order — never any cell's accumulation order — so their
//! output must equal the reference kernels **bit for bit** for every
//! input: degenerate shapes (`k = 0`, `1×n`, `n×1`), shapes that are not
//! multiples of the tile width, sparse inputs (the `a == 0.0` skip), and
//! every tile width in range. These tests call the raw tiled entry points
//! directly, bypassing the `use_tiled` shape gate, so small shapes
//! exercise the tiled path too. Each kernel's `_impl` entry point forces
//! the AVX or the portable path, so both are held to the reference.

use ceaff_graph::CsrMatrix;
use ceaff_tensor::graph::matmul_grads;
use ceaff_tensor::kernels::{
    self, matmul_tiled, matmul_tiled_impl, matmul_transpose_tiled, matmul_transpose_tiled_impl,
    reference, transpose_matmul_blocked, transpose_matmul_blocked_impl, with_tile,
};
use ceaff_tensor::Matrix;
use proptest::prelude::*;

/// A reproducible pseudo-random matrix; roughly every sixth entry is
/// forced to exactly 0.0 so the kernels' zero-skip branch is exercised.
fn lcg_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
    let mut state = seed | 1;
    let data = (0..rows * cols)
        .map(|_| {
            state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            if state.is_multiple_of(6) {
                0.0
            } else {
                (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            }
        })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

fn tiled_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_tiled(
        a.as_slice(),
        a.rows(),
        a.cols(),
        b.as_slice(),
        b.cols(),
        out.as_mut_slice(),
    );
    out
}

fn tiled_matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    matmul_transpose_tiled(
        a.as_slice(),
        a.rows(),
        a.cols(),
        b.as_slice(),
        b.rows(),
        out.as_mut_slice(),
    );
    out
}

fn blocked_transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    transpose_matmul_blocked(
        a.as_slice(),
        a.rows(),
        a.cols(),
        b.as_slice(),
        b.cols(),
        out.as_mut_slice(),
    );
    out
}

/// `A · Bᵀ` through the forced AVX (`simd`) or portable path.
fn matmul_transpose_forced(a: &Matrix, b: &Matrix, simd: bool) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.rows());
    matmul_transpose_tiled_impl(
        a.as_slice(),
        a.rows(),
        a.cols(),
        b.as_slice(),
        b.rows(),
        out.as_mut_slice(),
        simd,
    );
    out
}

/// `Aᵀ · B` through the forced AVX (`simd`) or portable path.
fn transpose_matmul_forced(a: &Matrix, b: &Matrix, simd: bool) -> Matrix {
    let mut out = Matrix::zeros(a.cols(), b.cols());
    transpose_matmul_blocked_impl(
        a.as_slice(),
        a.rows(),
        a.cols(),
        b.as_slice(),
        b.cols(),
        out.as_mut_slice(),
        simd,
    );
    out
}

fn path_label(kernel: &str, simd: bool) -> String {
    format!("{kernel} {}", if simd { "simd" } else { "portable" })
}

/// Assert bitwise equality with a shape-and-tile-labelled message.
fn assert_bitwise(label: &str, got: &Matrix, want: &Matrix, tile: usize) {
    assert_eq!(got.shape(), want.shape(), "{label}: shape (tile {tile})");
    // Compare bit patterns, not float equality: -0.0 vs 0.0 or NaN
    // payloads would slip through `==`.
    let gb: Vec<u32> = got.as_slice().iter().map(|v| v.to_bits()).collect();
    let wb: Vec<u32> = want.as_slice().iter().map(|v| v.to_bits()).collect();
    assert_eq!(gb, wb, "{label}: bit patterns differ at tile {tile}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tiled matmul equals the reference for random shapes straddling the
    /// row-block (64) and strip (64/32) boundaries, at a random tile —
    /// through both the SIMD and the portable strip kernels.
    #[test]
    fn matmul_parity_random_shapes(
        m in 1usize..150,
        k in 0usize..40,
        n in 1usize..100,
        tile in 8usize..128,
        seed in 1u32..10_000,
    ) {
        let a = lcg_matrix(m, k, seed);
        let b = lcg_matrix(k, n, seed.wrapping_add(1));
        let want = reference::matmul(&a, &b);
        let got = with_tile(tile, || tiled_matmul(&a, &b));
        assert_bitwise("matmul", &got, &want, tile);
        for simd in [false, true] {
            let mut out = Matrix::zeros(a.rows(), b.cols());
            with_tile(tile, || {
                matmul_tiled_impl(
                    a.as_slice(), a.rows(), a.cols(),
                    b.as_slice(), b.cols(),
                    out.as_mut_slice(), simd,
                );
            });
            assert_bitwise(if simd { "matmul simd" } else { "matmul portable" }, &out, &want, tile);
        }
    }

    /// Tiled `A · Bᵀ` equals the reference (each cell a chunked dot) on
    /// both the AVX and the portable panel kernels, for random shapes:
    /// `k % 4 ≠ 0` tails, `n < 8` and `n % 8 ≠ 0` partial panels, and every
    /// tile width in range.
    #[test]
    fn matmul_transpose_parity_random_shapes(
        m in 1usize..150,
        k in 0usize..40,
        n in 1usize..100,
        tile in 8usize..257,
        seed in 1u32..10_000,
    ) {
        let a = lcg_matrix(m, k, seed);
        let b = lcg_matrix(n, k, seed.wrapping_add(2));
        let want = reference::matmul_transpose(&a, &b);
        let got = with_tile(tile, || tiled_matmul_transpose(&a, &b));
        assert_bitwise("matmul_transpose", &got, &want, tile);
        for simd in [false, true] {
            let got = with_tile(tile, || matmul_transpose_forced(&a, &b, simd));
            assert_bitwise(&path_label("matmul_transpose", simd), &got, &want, tile);
        }
    }

    /// Blocked `Aᵀ · B` equals the reference on both the AVX and the
    /// portable register tiles, for random shapes: output rows not a
    /// multiple of the 4-row tile, columns not a multiple of the 16-wide
    /// tile, and row counts spanning several streamed row chunks.
    #[test]
    fn transpose_matmul_parity_random_shapes(
        rows in 0usize..300,
        a_cols in 1usize..150,
        n in 1usize..60,
        seed in 1u32..10_000,
    ) {
        let a = lcg_matrix(rows, a_cols, seed);
        let b = lcg_matrix(rows, n, seed.wrapping_add(3));
        let want = reference::transpose_matmul(&a, &b);
        let got = blocked_transpose_matmul(&a, &b);
        assert_bitwise("transpose_matmul", &got, &want, kernels::DEFAULT_TILE);
        for simd in [false, true] {
            let got = transpose_matmul_forced(&a, &b, simd);
            assert_bitwise(&path_label("transpose_matmul", simd), &got, &want, kernels::DEFAULT_TILE);
        }
    }

    /// The public `Matrix` methods (shape-gated dispatch) agree bitwise
    /// with the references no matter which path the gate picks.
    #[test]
    fn matrix_methods_match_reference(
        m in 1usize..90,
        k in 0usize..32,
        n in 1usize..90,
        seed in 1u32..10_000,
    ) {
        let a = lcg_matrix(m, k, seed);
        let b = lcg_matrix(k, n, seed.wrapping_add(4));
        let bt = lcg_matrix(n, k, seed.wrapping_add(5));
        assert_bitwise("Matrix::matmul", &a.matmul(&b), &reference::matmul(&a, &b), 0);
        assert_bitwise(
            "Matrix::matmul_transpose",
            &a.matmul_transpose(&bt),
            &reference::matmul_transpose(&a, &bt),
            0,
        );
        let c = lcg_matrix(m, n, seed.wrapping_add(6));
        assert_bitwise(
            "Matrix::transpose_matmul",
            &a.transpose_matmul(&c),
            &reference::transpose_matmul(&a, &c),
            0,
        );
    }
}

#[test]
fn degenerate_shapes_bitwise_equal() {
    // k = 0: no terms, all-zero output of the right shape.
    for (m, n) in [(1, 1), (5, 7), (130, 70)] {
        let a = Matrix::zeros(m, 0);
        let b = Matrix::zeros(0, n);
        assert_bitwise(
            "matmul k=0",
            &tiled_matmul(&a, &b),
            &reference::matmul(&a, &b),
            kernels::DEFAULT_TILE,
        );
        let bt = Matrix::zeros(n, 0);
        assert_bitwise(
            "matmul_transpose k=0",
            &tiled_matmul_transpose(&a, &bt),
            &reference::matmul_transpose(&a, &bt),
            kernels::DEFAULT_TILE,
        );
    }
    // 1×n row vectors and n×1 column vectors, under extreme tile widths.
    for tile in [kernels::TILE_RANGE.0, kernels::TILE_RANGE.1] {
        let row = lcg_matrix(1, 37, 91);
        let mat = lcg_matrix(37, 83, 92);
        let col = lcg_matrix(83, 1, 93);
        with_tile(tile, || {
            assert_bitwise(
                "1×n matmul",
                &tiled_matmul(&row, &mat),
                &reference::matmul(&row, &mat),
                tile,
            );
            assert_bitwise(
                "n×1 matmul",
                &tiled_matmul(&mat, &col),
                &reference::matmul(&mat, &col),
                tile,
            );
            let bt = lcg_matrix(1, 37, 94);
            assert_bitwise(
                "n×1-wide matmul_transpose",
                &tiled_matmul_transpose(&row, &bt),
                &reference::matmul_transpose(&row, &bt),
                tile,
            );
        });
    }
}

#[test]
fn every_tile_width_in_range_is_bitwise_equal() {
    // A shape deliberately not a multiple of any tile width or of the
    // 64-row block / 64- and 32-wide register strips.
    let a = lcg_matrix(131, 45, 7);
    let b = lcg_matrix(45, 97, 11);
    let bt = lcg_matrix(97, 45, 13);
    let want_mm = reference::matmul(&a, &b);
    let want_mt = reference::matmul_transpose(&a, &bt);
    for tile in (kernels::TILE_RANGE.0..=kernels::TILE_RANGE.1).step_by(13) {
        with_tile(tile, || {
            assert_bitwise("matmul", &tiled_matmul(&a, &b), &want_mm, tile);
            assert_bitwise(
                "matmul_transpose",
                &tiled_matmul_transpose(&a, &bt),
                &want_mt,
                tile,
            );
        });
    }
}

#[test]
fn special_values_survive_tiling() {
    // NaN and infinities must propagate with identical bit patterns: the
    // zero-skip only elides terms whose `a` operand is exactly 0.0, which
    // the reference does too.
    let mut a = lcg_matrix(70, 20, 17);
    a[(3, 5)] = f32::NAN;
    a[(40, 0)] = f32::INFINITY;
    a[(69, 19)] = f32::NEG_INFINITY;
    let b = lcg_matrix(20, 70, 19);
    let want = reference::matmul(&a, &b);
    let got = with_tile(16, || tiled_matmul(&a, &b));
    assert_bitwise("matmul with NaN/inf", &got, &want, 16);

    let bt = lcg_matrix(70, 20, 23);
    let want = reference::matmul_transpose(&a, &bt);
    let got = with_tile(16, || tiled_matmul_transpose(&a, &bt));
    assert_bitwise("matmul_transpose with NaN/inf", &got, &want, 16);
}

/// A 130×67 matrix (a partial 4-row tile, a `% 4 = 3` tail, a partial
/// 8-row panel, several 64-row streamed chunks) whose values include
/// `-0.0`, whole `-0.0`/`0.0` rows and columns, NaN and `±∞`. Each
/// non-finite value sits in its own row *and* column, so no output cell
/// meets two NaN sources and the NaN payload is defined.
fn special_matrix(seed: u32) -> Matrix {
    let mut a = lcg_matrix(130, 67, seed);
    for c in 0..67 {
        a[(7, c)] = -0.0;
        a[(8, c)] = 0.0;
    }
    for r in 0..130 {
        a[(r, 11)] = -0.0;
        a[(r, 12)] = if r % 2 == 0 { 0.0 } else { -0.0 };
    }
    a[(20, 1)] = -0.0;
    a[(30, 2)] = f32::NAN;
    a[(64, 3)] = f32::INFINITY;
    a[(129, 66)] = f32::NEG_INFINITY;
    a
}

#[test]
fn special_values_match_reference_on_both_paths() {
    // `-0.0`, whole zero rows/columns, NaN and ±∞ in A exercise the zero
    // skip; a B with its own ∞ must still match, where `0 · ∞` would be
    // NaN if a skipped term were evaluated.
    let a = special_matrix(41);
    let bt = lcg_matrix(61, 67, 43);
    let b = lcg_matrix(130, 53, 47);
    let mut b_inf = b.clone();
    b_inf[(50, 9)] = f32::INFINITY;
    b_inf[(100, 40)] = f32::NEG_INFINITY;
    let want_mt = reference::matmul_transpose(&a, &bt);
    let want_tm = reference::transpose_matmul(&a, &b);
    let want_tm_inf = reference::transpose_matmul(&a, &b_inf);
    for simd in [false, true] {
        for tile in [kernels::TILE_RANGE.0, 13, 64, kernels::TILE_RANGE.1] {
            let got = with_tile(tile, || matmul_transpose_forced(&a, &bt, simd));
            assert_bitwise(
                &path_label("matmul_transpose special", simd),
                &got,
                &want_mt,
                tile,
            );
        }
        let got = transpose_matmul_forced(&a, &b, simd);
        assert_bitwise(
            &path_label("transpose_matmul special", simd),
            &got,
            &want_tm,
            0,
        );
        let got = transpose_matmul_forced(&a, &b_inf, simd);
        assert_bitwise(
            &path_label("transpose_matmul special, ∞ in B", simd),
            &got,
            &want_tm_inf,
            0,
        );
    }
}

/// A `kinds.len() × k` matrix whose row `r` is, by `kinds[r] % 6`: all
/// nonzero, one `0.0`, one `-0.0`, one NaN, one `±∞`, or all `±0`. Each
/// special value sits in its own row, so no product row meets two NaN
/// sources and the NaN payload is defined.
fn mixed_rows(kinds: &[u8], k: usize, seed: u32) -> Matrix {
    let mut a = lcg_matrix(kinds.len(), k, seed);
    for v in a.as_mut_slice() {
        if *v == 0.0 {
            *v = 0.25;
        }
    }
    for (r, &kind) in kinds.iter().enumerate() {
        let c = (r * 7 + 3) % k;
        let sign = if r % 2 == 0 { 1.0 } else { -1.0 };
        match kind % 6 {
            0 => {}
            1 => a[(r, c)] = 0.0,
            2 => a[(r, c)] = -0.0,
            3 => a[(r, c)] = f32::NAN,
            4 => a[(r, c)] = sign * f32::INFINITY,
            _ => a.row_mut(r).fill(sign * 0.0),
        }
    }
    a
}

/// `m` with stored value `idx` replaced by `bad` — a value
/// `CsrMatrix::from_triplets` refuses, reachable through deserialization.
fn with_stored_value(m: &CsrMatrix, idx: usize, bad: f32) -> CsrMatrix {
    use serde::{Deserialize, Serialize};
    let mut v = m.to_value();
    let serde::Value::Object(entries) = &mut v else {
        panic!("a CSR matrix serializes to an object")
    };
    let (_, values) = entries
        .iter_mut()
        .find(|(key, _)| key == "values")
        .expect("values field");
    let serde::Value::Array(values) = values else {
        panic!("values is an array")
    };
    values[idx] = serde::Value::Number(serde::Number::F64(f64::from(bad)));
    CsrMatrix::from_value(&v).expect("a CSR matrix with one value replaced")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Tiled matmul takes the unconditional strips for zero-free rows and
    /// the compacted nonzero list for rows holding a `0.0` or `-0.0`; rows
    /// mixing every kind must still equal the reference bitwise, on both
    /// the AVX and the portable strips, also against a `B` holding `∞`
    /// (where evaluating a skipped `0 · ∞` would give NaN).
    #[test]
    fn matmul_mixed_rows_parity(
        kinds in proptest::collection::vec(0u8..6, 1..150),
        k in 1usize..40,
        n in 1usize..100,
        tile in 8usize..128,
        seed in 1u32..10_000,
        b_inf in 0u8..2,
    ) {
        let a = mixed_rows(&kinds, k, seed);
        let mut b = lcg_matrix(k, n, seed.wrapping_add(1));
        if b_inf == 1 {
            b[(k / 2, n / 2)] = f32::INFINITY;
        }
        let want = reference::matmul(&a, &b);
        for simd in [false, true] {
            let mut out = Matrix::zeros(a.rows(), b.cols());
            with_tile(tile, || {
                matmul_tiled_impl(
                    a.as_slice(), a.rows(), a.cols(),
                    b.as_slice(), b.cols(),
                    out.as_mut_slice(), simd,
                );
            });
            assert_bitwise(&path_label("matmul mixed rows", simd), &out, &want, tile);
        }
        assert_bitwise("Matrix::matmul mixed rows", &a.matmul(&b), &want, 0);
    }

    /// The live-row `MatMul` backward equals both full products bitwise
    /// for any pattern of `±0` gradient rows. A non-finite `B`, or a
    /// non-finite value in a skipped row of `A`, must take the full
    /// products (the row skip would drop a `0 · ∞ = NaN`); one in a live
    /// row of `A` is read either way. The row kernels leave every
    /// unlisted output row as it was.
    #[test]
    fn live_row_backward_matches_the_full_products(
        rows in 1usize..150,
        k in 1usize..40,
        n in 1usize..40,
        seed in 1u32..10_000,
        dead in proptest::collection::vec(0u8..4, 150),
        bad in 0u8..4,
    ) {
        let mut a = lcg_matrix(rows, k, seed);
        let mut b = lcg_matrix(k, n, seed.wrapping_add(1));
        let mut grad = lcg_matrix(rows, n, seed.wrapping_add(2));
        for (r, &kind) in dead.iter().enumerate().take(rows) {
            match kind {
                0 => grad.row_mut(r).fill(0.0),
                1 => grad.row_mut(r).fill(-0.0),
                _ => {}
            }
        }
        let live: Vec<usize> = (0..rows)
            .filter(|&r| grad.row(r).iter().any(|&g| g != 0.0))
            .collect();
        match bad {
            0 => b[(k / 2, n / 2)] = f32::INFINITY,
            1 => {
                let r = (0..rows).find(|r| !live.contains(r)).unwrap_or(0);
                a[(r, k / 2)] = f32::NAN;
            }
            2 => a[(live.first().copied().unwrap_or(0), k / 2)] = f32::NEG_INFINITY,
            _ => {}
        }
        let (ga, gb) = matmul_grads(&grad, &a, &b);
        assert_bitwise("grad·Bᵀ", &ga, &reference::matmul_transpose(&grad, &b), 0);
        assert_bitwise("Aᵀ·grad", &gb, &reference::transpose_matmul(&a, &grad), 0);

        // The row kernels on their own, over an output that is not zero.
        let sentinel = -7.5f32;
        let mut out = Matrix::filled(rows, k, sentinel);
        kernels::matmul_transpose_rows(
            grad.as_slice(), rows, n, b.as_slice(), k, &live, out.as_mut_slice(),
        );
        let full = reference::matmul_transpose(&grad, &b);
        for r in 0..rows {
            if live.contains(&r) {
                prop_assert_eq!(bits(out.row(r)), bits(full.row(r)));
            } else {
                prop_assert!(out.row(r).iter().all(|&v| v == sentinel));
            }
        }
        let a_live = a.gather_rows(&live);
        let g_live = grad.gather_rows(&live);
        assert_bitwise(
            "transpose_matmul_rows",
            &a.transpose_matmul_rows(&grad, &live),
            &reference::transpose_matmul(&a_live, &g_live),
            0,
        );
    }

    /// The GCN backward's `Aᵀ` gather (`transpose().mul_dense`) equals the
    /// scatter it replaces (`transpose_mul_dense`, with its zero-row skip)
    /// bitwise: zero rows written as `0.0` and `-0.0`, widths through every
    /// register chunk, and a non-finite adjacency value whose `∞ · 0` the
    /// skip must not drop.
    #[test]
    fn transpose_gather_matches_the_scatter(
        rows in 1usize..60,
        cols in 1usize..60,
        d in 1usize..70,
        seed in 1u32..10_000,
        zero_every in 1usize..5,
        bad in 0u8..4,
    ) {
        let dense_vals = lcg_matrix(rows + cols, cols.max(rows), seed);
        let triplets: Vec<(usize, usize, f32)> = (0..rows)
            .flat_map(|r| (0..cols).map(move |c| (r, c)))
            .filter(|&(r, c)| (r * 31 + c * 17 + seed as usize).is_multiple_of(3))
            .map(|(r, c)| (r, c, dense_vals[(r, c)] + 0.75))
            .collect();
        let mut m = CsrMatrix::from_triplets(rows, cols, &triplets).expect("finite triplets");
        if m.nnz() > 0 && bad < 3 {
            let bad_value = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN][bad as usize];
            m = with_stored_value(&m, seed as usize % m.nnz(), bad_value);
        }
        let mut dense = lcg_matrix(rows, d, seed.wrapping_add(9));
        for r in (0..rows).step_by(zero_every) {
            dense.row_mut(r).fill(if r % 2 == 0 { 0.0 } else { -0.0 });
        }
        let mut want = vec![0.0f32; cols * d];
        m.transpose_mul_dense(dense.as_slice(), d, &mut want);
        let mut got = vec![f32::NAN; cols * d];
        m.transpose().mul_dense(dense.as_slice(), d, &mut got);
        prop_assert_eq!(bits(&got), bits(&want));
    }
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}
