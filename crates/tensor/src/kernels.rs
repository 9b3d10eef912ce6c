//! Cache-blocked, SIMD-friendly matrix kernels, plus the retained naive
//! reference implementations they are bitwise-checked against.
//!
//! # The bitwise contract
//!
//! Every tiled kernel here produces **bitwise-identical** output to its
//! naive reference (see [`reference`]) for *every* input, at *every*
//! thread count and *every* tile width. Tiling is allowed to change only
//! the *traversal* order — which output cells are visited when, and how
//! operands are staged through the cache hierarchy — never the per-cell
//! accumulation order:
//!
//! * `matmul` — each output cell is one accumulator receiving its terms
//!   in increasing `k` order, skipping `a == 0.0` terms, exactly like the
//!   reference `ikj` loop. Blocking `i`/`j` does not touch any cell's
//!   term sequence, and the packed B panel only relocates the operands.
//!   The `a == 0.0` skip is honoured branch-free: each A row is compacted
//!   once per row block into a `(k, value)` nonzero list (same increasing
//!   `k` order, zeros dropped exactly where the reference's `continue`
//!   fires); rows with no zeros take an unconditional strip kernel, which
//!   accumulates the identical term sequence.
//! * `matmul_transpose` — each cell is a [`dot`]: four lane accumulators
//!   where lane `l` receives the products at positions `4i + l`, reduced
//!   as `((l0+l1)+l2)+l3`, then the `k % 4` tail appended in order. B is
//!   packed into 8-row panels laid out lane-major — `[4-lane chunk
//!   i][lane l][row t]`, i.e. each panel transposed — so the operands of
//!   one lane for eight cells are one contiguous vector. The kernel keeps
//!   four accumulator vectors per panel: vector `l` holds lane `l` of all
//!   eight cells, and each vector element is one cell's private lane
//!   accumulator. The final reduction adds the four vectors in `dot`'s
//!   order, element-wise, and the tail products follow one by one, so
//!   every cell replays `dot`'s sequence exactly. Rows past `n` in the
//!   last panel are zero padding whose lanes are never stored.
//! * `transpose_matmul` — each cell accumulates `a[r][k] * b[r][j]` in
//!   increasing `r` order, skipping `a == 0.0`, like both reference loops.
//!   Output is register-tiled 4 rows × 16 columns while `r` streams
//!   innermost in 64-row chunks; a tile carries its partial sums through
//!   `out` between chunks, an exact f32 round trip. Both tiles skip a
//!   zero `a` literally: it is one broadcast scalar per output row, so
//!   the skip drops the whole row-of-16 update.
//!
//! Parallel dispatch splits output rows into fixed [`ROW_BLOCK`]-row
//! blocks. The partition depends only on the problem shape — never the
//! thread count — so `CEAFF_THREADS=1` and `=64` produce the same bytes
//! (`crates/tensor/tests/parallel_determinism.rs`); `kernel_parity.rs`
//! proptests tiled-vs-reference equality over random shapes.
//!
//! # SIMD
//!
//! On x86-64 all three products run runtime-detected AVX intrinsics
//! (`is_x86_feature_detected!`) — the `matmul` strips, the
//! `matmul_transpose` panel kernel and the `transpose_matmul` register
//! tile — and each has one portable scalar kernel over the same layout
//! for other hosts and for the partial tiles at the edges. This cannot
//! perturb results: every vector element is one output cell's private
//! accumulator (the only cross-vector step, the `matmul_transpose` lane
//! reduction, adds whole vectors element-wise in `dot`'s order, so it is
//! still per-cell), and multiply and add stay separate instructions —
//! FMA is deliberately *not* used, because fusing would skip the
//! intermediate rounding and change bits. AVX and scalar paths are
//! therefore bitwise-identical, which `kernel_parity.rs` asserts by
//! forcing both through each kernel's `_impl` entry point.
//!
//! # Tile width
//!
//! The column tile width (packed-panel width for `matmul`, B-row tile for
//! `matmul_transpose`, rounded up to whole 8-row panels) defaults to
//! [`DEFAULT_TILE`], can be pinned process-wide with the `CEAFF_TILE`
//! environment variable, and can be overridden for a scope with
//! [`with_tile`] (a thread-local read at kernel entry, on the dispatching
//! thread — the hook the determinism tests use to prove tile width never
//! changes results). Small problems keep the naive path entirely: below
//! [`TILED_MIN_FLOPS`] multiply-accumulates the packing and blocking
//! bookkeeping costs more than it saves.

use crate::budget;
use crate::matrix::dot;
use rayon::prelude::*;
use std::cell::Cell;
use std::sync::OnceLock;

/// Rows per parallel work unit *and* per cache block: partitioning output
/// rows into fixed 64-row blocks is what pins f32 accumulation to one
/// order per cell regardless of thread count.
pub const ROW_BLOCK: usize = 64;

/// Default column tile width (see [`tile_width`]).
pub const DEFAULT_TILE: usize = 64;

/// Valid tile range; widths outside are clamped.
pub const TILE_RANGE: (usize, usize) = (8, 256);

/// Column width of the wide `matmul` register strip: 64 accumulators
/// (8 × 256-bit under AVX) per A row while the `k` loop streams the
/// packed panel.
const STRIP_WIDE: usize = 64;

/// Column width of the narrow strip used for panel remainders and the
/// portable fallback (8 × 128-bit lanes autovectorize well).
const STRIP: usize = 32;

/// Minimum multiply-accumulate count (`m·n·k`) before a product kernel
/// leaves the naive path. Below this, tiling overhead dominates.
pub const TILED_MIN_FLOPS: usize = 32 * 1024;

/// Minimum number of output rows before a kernel dispatches to the pool
/// (mirrors the historical `PAR_ROW_THRESHOLD`).
pub(crate) const PAR_ROW_THRESHOLD: usize = 64;

thread_local! {
    /// Scoped tile-width override installed by [`with_tile`].
    static TILE_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// `CEAFF_TILE`, parsed once per process.
fn env_tile() -> Option<usize> {
    static ENV_TILE: OnceLock<Option<usize>> = OnceLock::new();
    *ENV_TILE.get_or_init(|| {
        std::env::var("CEAFF_TILE")
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
            .filter(|&w| w > 0)
    })
}

fn clamp_tile(w: usize) -> usize {
    w.clamp(TILE_RANGE.0, TILE_RANGE.1)
}

/// The column tile width the next kernel dispatched from this thread will
/// use: the innermost [`with_tile`] override, else `CEAFF_TILE`, else
/// [`DEFAULT_TILE`]. Always clamped to [`TILE_RANGE`].
pub fn tile_width() -> usize {
    clamp_tile(
        TILE_OVERRIDE
            .with(Cell::get)
            .or_else(env_tile)
            .unwrap_or(DEFAULT_TILE),
    )
}

/// Run `f` with every kernel dispatched from this thread using tile width
/// `w` (clamped to [`TILE_RANGE`]). Nestable; innermost wins. Results are
/// bitwise-identical for any width — this hook exists so the determinism
/// suite can prove it.
pub fn with_tile<R>(w: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            TILE_OVERRIDE.with(|cell| cell.set(self.0));
        }
    }
    let prev = TILE_OVERRIDE.with(|cell| cell.replace(Some(clamp_tile(w))));
    let _restore = Restore(prev);
    f()
}

/// Whether a product kernel with `m·n·k` multiply-accumulates should take
/// the tiled path (small problems keep the naive loop).
#[inline]
pub(crate) fn use_tiled(m: usize, n: usize, k: usize) -> bool {
    m.saturating_mul(n).saturating_mul(k) >= TILED_MIN_FLOPS
}

/// A scratch buffer registered with the allocation ledger in
/// [`crate::budget`], so packed panels count against the memory cap like
/// any `Matrix` buffer.
struct TrackedScratch {
    data: Vec<f32>,
    tracked: usize,
}

impl TrackedScratch {
    fn zeroed(len: usize) -> Self {
        Self {
            data: vec![0.0; len],
            tracked: budget::on_alloc(len * std::mem::size_of::<f32>()),
        }
    }
}

impl Drop for TrackedScratch {
    fn drop(&mut self) {
        budget::on_release(self.tracked);
    }
}

// ---------------------------------------------------------------------------
// matmul: C(m×n) = A(m×k) · B(k×n)
// ---------------------------------------------------------------------------

/// Pack `b` (k×n row-major) into column panels of width `tile`: panel `p`
/// holds columns `[p·tile, min((p+1)·tile, n))`, k-major within the panel
/// (`w` consecutive values per `k`). Pure relocation — no value changes.
fn panel_starts(k_dim: usize, n: usize, tile: usize) -> Vec<usize> {
    // Panel start offsets; the packed data itself is written by
    // `pack_b_into`. Kept separate so the offsets can be computed once.
    let panels = n.div_ceil(tile);
    let mut starts = Vec::with_capacity(panels + 1);
    let mut off = 0usize;
    for p in 0..panels {
        starts.push(off);
        let w = tile.min(n - p * tile);
        off += k_dim * w;
    }
    starts.push(off);
    starts
}

fn pack_b_into(b: &[f32], k_dim: usize, n: usize, tile: usize, starts: &[usize], out: &mut [f32]) {
    let panels = n.div_ceil(tile);
    for p in 0..panels {
        let j0 = p * tile;
        let w = tile.min(n - j0);
        let dst = &mut out[starts[p]..starts[p] + k_dim * w];
        for k in 0..k_dim {
            dst[k * w..(k + 1) * w].copy_from_slice(&b[k * n + j0..k * n + j0 + w]);
        }
    }
}

/// AVX strip kernels, compiled on x86-64 and dispatched only after
/// `is_x86_feature_detected!("avx")`. Each 256-bit lane is one output
/// cell's private accumulator and multiply/add stay separate
/// instructions, so these are bitwise-identical to the scalar strips.
#[cfg(target_arch = "x86_64")]
mod avx {
    use std::arch::x86_64::*;

    /// 64-column dense strip: 8 ymm accumulators, one broadcast of
    /// `a[k]` feeds 64 multiply-accumulates.
    ///
    /// # Safety
    /// Caller must have verified AVX support. `out` must hold at least
    /// 64 floats and `panel` must cover `k · w + c0 + 64` for every `k`
    /// in `0..a_row.len()` (guaranteed when `c0 + 64 <= w` and the panel
    /// is `a_row.len() · w` long).
    #[target_feature(enable = "avx")]
    pub unsafe fn strip_dense64(
        a_row: &[f32],
        panel: &[f32],
        w: usize,
        c0: usize,
        out: &mut [f32],
    ) {
        debug_assert!(out.len() >= 64 && panel.len() >= a_row.len() * w);
        let mut acc = [_mm256_setzero_ps(); 8];
        let base = panel.as_ptr().add(c0);
        for (k, &av) in a_row.iter().enumerate() {
            let avx = _mm256_set1_ps(av);
            let b = base.add(k * w);
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane = _mm256_add_ps(*lane, _mm256_mul_ps(avx, _mm256_loadu_ps(b.add(8 * l))));
            }
        }
        let o = out.as_mut_ptr();
        for (l, lane) in acc.iter().enumerate() {
            _mm256_storeu_ps(o.add(8 * l), *lane);
        }
    }

    /// 64-column strip over a compacted `(k, value)` nonzero list.
    ///
    /// # Safety
    /// As [`strip_dense64`], with every `k` in `nz` below the panel's
    /// row count.
    #[target_feature(enable = "avx")]
    pub unsafe fn strip_nz64(
        nz: &[(u32, f32)],
        panel: &[f32],
        w: usize,
        c0: usize,
        out: &mut [f32],
    ) {
        debug_assert!(out.len() >= 64);
        let mut acc = [_mm256_setzero_ps(); 8];
        let base = panel.as_ptr().add(c0);
        for &(k, av) in nz {
            let avx = _mm256_set1_ps(av);
            let b = base.add(k as usize * w);
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane = _mm256_add_ps(*lane, _mm256_mul_ps(avx, _mm256_loadu_ps(b.add(8 * l))));
            }
        }
        let o = out.as_mut_ptr();
        for (l, lane) in acc.iter().enumerate() {
            _mm256_storeu_ps(o.add(8 * l), *lane);
        }
    }

    /// 32-column dense strip for panel remainders (4 ymm accumulators).
    ///
    /// # Safety
    /// As [`strip_dense64`] with width 32 (`c0 + 32 <= w`).
    #[target_feature(enable = "avx")]
    pub unsafe fn strip_dense32(
        a_row: &[f32],
        panel: &[f32],
        w: usize,
        c0: usize,
        out: &mut [f32],
    ) {
        debug_assert!(out.len() >= 32 && panel.len() >= a_row.len() * w);
        let mut acc = [_mm256_setzero_ps(); 4];
        let base = panel.as_ptr().add(c0);
        for (k, &av) in a_row.iter().enumerate() {
            let avx = _mm256_set1_ps(av);
            let b = base.add(k * w);
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane = _mm256_add_ps(*lane, _mm256_mul_ps(avx, _mm256_loadu_ps(b.add(8 * l))));
            }
        }
        let o = out.as_mut_ptr();
        for (l, lane) in acc.iter().enumerate() {
            _mm256_storeu_ps(o.add(8 * l), *lane);
        }
    }

    /// 32-column nonzero-list strip for panel remainders.
    ///
    /// # Safety
    /// As [`strip_nz64`] with width 32.
    #[target_feature(enable = "avx")]
    pub unsafe fn strip_nz32(
        nz: &[(u32, f32)],
        panel: &[f32],
        w: usize,
        c0: usize,
        out: &mut [f32],
    ) {
        debug_assert!(out.len() >= 32);
        let mut acc = [_mm256_setzero_ps(); 4];
        let base = panel.as_ptr().add(c0);
        for &(k, av) in nz {
            let avx = _mm256_set1_ps(av);
            let b = base.add(k as usize * w);
            for (l, lane) in acc.iter_mut().enumerate() {
                *lane = _mm256_add_ps(*lane, _mm256_mul_ps(avx, _mm256_loadu_ps(b.add(8 * l))));
            }
        }
        let o = out.as_mut_ptr();
        for (l, lane) in acc.iter().enumerate() {
            _mm256_storeu_ps(o.add(8 * l), *lane);
        }
    }

    /// Eight `dot`s of `a_row` against one lane-major packed panel:
    /// accumulator `l` holds lane `l` of all eight cells, the lanes reduce
    /// as `((l0+l1)+l2)+l3` across the vector and the `k % 4` tail
    /// appends in order — `dot`'s exact per-cell sequence.
    ///
    /// # Safety
    /// Caller must have verified AVX support; `panel` must hold at least
    /// `a_row.len() · 8` floats.
    #[target_feature(enable = "avx")]
    pub unsafe fn dot_panel8(a_row: &[f32], panel: &[f32], out: &mut [f32; 8]) {
        let k = a_row.len();
        debug_assert!(panel.len() >= k * 8);
        let (a, p) = (a_row.as_ptr(), panel.as_ptr());
        let mut acc = [_mm256_setzero_ps(); 4];
        for i in 0..k / 4 {
            for (l, lane) in acc.iter_mut().enumerate() {
                let kk = 4 * i + l;
                let prod = _mm256_mul_ps(
                    _mm256_broadcast_ss(&*a.add(kk)),
                    _mm256_loadu_ps(p.add(8 * kk)),
                );
                *lane = _mm256_add_ps(*lane, prod);
            }
        }
        let mut total = _mm256_add_ps(_mm256_add_ps(_mm256_add_ps(acc[0], acc[1]), acc[2]), acc[3]);
        for kk in k / 4 * 4..k {
            let prod = _mm256_mul_ps(
                _mm256_broadcast_ss(&*a.add(kk)),
                _mm256_loadu_ps(p.add(8 * kk)),
            );
            total = _mm256_add_ps(total, prod);
        }
        _mm256_storeu_ps(out.as_mut_ptr(), total);
    }

    /// One full 4×16 `transpose_matmul` register tile (eight
    /// accumulators): output rows `[q0, q0+4)` × columns `[j0, j0+16)` of
    /// `out` (row stride `n`) continue their sums over the `A` rows `rs`
    /// in increasing `r`, skipping `a == 0.0` like the reference.
    ///
    /// # Safety
    /// Caller must have verified AVX support; for every `r` in `rs`, `a[r·a_cols + kc .. +4]` and
    /// `b[r·n + j0 .. +16]` must be in bounds, and `out` must hold rows
    /// `q0..q0+4` of width `j0 + 16`.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx")]
    pub unsafe fn tm_tile4x16(
        a: &[f32],
        a_cols: usize,
        kc: usize,
        b: &[f32],
        n: usize,
        rs: std::ops::Range<usize>,
        q0: usize,
        j0: usize,
        out: &mut [f32],
    ) {
        debug_assert!(rs.is_empty() || (rs.end - 1) * a_cols + kc + 4 <= a.len());
        debug_assert!(rs.is_empty() || (rs.end - 1) * n + j0 + 16 <= b.len());
        debug_assert!((q0 + 3) * n + j0 + 16 <= out.len());
        let o = out.as_mut_ptr().add(q0 * n + j0);
        let mut acc = [[_mm256_setzero_ps(); 2]; 4];
        for (q, row) in acc.iter_mut().enumerate() {
            row[0] = _mm256_loadu_ps(o.add(q * n));
            row[1] = _mm256_loadu_ps(o.add(q * n + 8));
        }
        for r in rs {
            let bp = b.as_ptr().add(r * n + j0);
            let (b0, b1) = (_mm256_loadu_ps(bp), _mm256_loadu_ps(bp.add(8)));
            let ap = a.as_ptr().add(r * a_cols + kc);
            for (q, row) in acc.iter_mut().enumerate() {
                if *ap.add(q) == 0.0 {
                    continue;
                }
                let av = _mm256_broadcast_ss(&*ap.add(q));
                row[0] = _mm256_add_ps(row[0], _mm256_mul_ps(av, b0));
                row[1] = _mm256_add_ps(row[1], _mm256_mul_ps(av, b1));
            }
        }
        for (q, row) in acc.iter().enumerate() {
            _mm256_storeu_ps(o.add(q * n), row[0]);
            _mm256_storeu_ps(o.add(q * n + 8), row[1]);
        }
    }
}

/// Whether this process may dispatch the AVX strip kernels.
fn simd_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        static AVX: OnceLock<bool> = OnceLock::new();
        *AVX.get_or_init(|| is_x86_feature_detected!("avx"))
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Portable dense strip: `W` unconditional accumulators per A row. Only
/// dispatched for rows with no zero entries, where it accumulates exactly
/// the reference's term sequence.
#[inline]
fn strip_dense_scalar<const W: usize>(
    a_row: &[f32],
    panel: &[f32],
    w: usize,
    c0: usize,
    out: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    for (k, &av) in a_row.iter().enumerate() {
        let brow = &panel[k * w + c0..k * w + c0 + W];
        for c in 0..W {
            acc[c] += av * brow[c];
        }
    }
    out[..W].copy_from_slice(&acc);
}

/// Portable strip over a compacted nonzero list: same `k`-increasing
/// per-cell order as the reference, with its `a == 0.0` skips already
/// applied by the compaction.
#[inline]
fn strip_nz_scalar<const W: usize>(
    nz: &[(u32, f32)],
    panel: &[f32],
    w: usize,
    c0: usize,
    out: &mut [f32],
) {
    let mut acc = [0.0f32; W];
    for &(k, av) in nz {
        let brow = &panel[k as usize * w + c0..k as usize * w + c0 + W];
        for c in 0..W {
            acc[c] += av * brow[c];
        }
    }
    out[..W].copy_from_slice(&acc);
}

/// Variable-width tail strip (`cw < STRIP`), nonzero-list driven.
#[inline]
fn strip_tail(nz: &[(u32, f32)], panel: &[f32], w: usize, c0: usize, cw: usize, out: &mut [f32]) {
    let mut acc = [0.0f32; STRIP];
    for &(k, av) in nz {
        let brow = &panel[k as usize * w + c0..k as usize * w + c0 + cw];
        for c in 0..cw {
            acc[c] += av * brow[c];
        }
    }
    out[..cw].copy_from_slice(&acc[..cw]);
}

/// All strips of one output row against one packed panel.
fn matmul_row(
    a_row: &[f32],
    nz: &[(u32, f32)],
    panel: &[f32],
    w: usize,
    simd: bool,
    out_row: &mut [f32],
) {
    let dense = nz.len() == a_row.len();
    let mut c0 = 0;
    #[cfg(target_arch = "x86_64")]
    if simd {
        // SAFETY: `simd` is only true after `is_x86_feature_detected!`,
        // and each strip stays inside `panel` because `c0 + width <= w`
        // and the panel holds `a_row.len() · w` floats.
        unsafe {
            while c0 + STRIP_WIDE <= w {
                let dst = &mut out_row[c0..c0 + STRIP_WIDE];
                if dense {
                    avx::strip_dense64(a_row, panel, w, c0, dst);
                } else {
                    avx::strip_nz64(nz, panel, w, c0, dst);
                }
                c0 += STRIP_WIDE;
            }
            while c0 + STRIP <= w {
                let dst = &mut out_row[c0..c0 + STRIP];
                if dense {
                    avx::strip_dense32(a_row, panel, w, c0, dst);
                } else {
                    avx::strip_nz32(nz, panel, w, c0, dst);
                }
                c0 += STRIP;
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
    while c0 + STRIP <= w {
        let dst = &mut out_row[c0..c0 + STRIP];
        if dense {
            strip_dense_scalar::<STRIP>(a_row, panel, w, c0, dst);
        } else {
            strip_nz_scalar::<STRIP>(nz, panel, w, c0, dst);
        }
        c0 += STRIP;
    }
    if c0 < w {
        strip_tail(nz, panel, w, c0, w - c0, &mut out_row[c0..]);
    }
}

/// One [`ROW_BLOCK`]-row block of the tiled matmul. `out_block` is the
/// rows `[i0, i0+rows_here)` of the output, contiguous.
#[allow(clippy::too_many_arguments)]
fn matmul_block(
    a: &[f32],
    k_dim: usize,
    n: usize,
    packed: &[f32],
    starts: &[usize],
    tile: usize,
    simd: bool,
    i0: usize,
    out_block: &mut [f32],
) {
    let rows_here = out_block.len().checked_div(n).unwrap_or(0);
    let panels = n.div_ceil(tile);
    // Compact each A row's nonzeros once per block; the lists are reused
    // across every panel. Order within a row is `k` increasing, so the
    // strips replay the reference's exact term sequence.
    let mut nz: Vec<(u32, f32)> = Vec::with_capacity(rows_here * k_dim);
    let mut bounds = [(0usize, 0usize); ROW_BLOCK];
    for (ir, bound) in bounds.iter_mut().enumerate().take(rows_here) {
        let a_row = &a[(i0 + ir) * k_dim..(i0 + ir + 1) * k_dim];
        let start = nz.len();
        for (k, &v) in a_row.iter().enumerate() {
            if v != 0.0 {
                nz.push((k as u32, v));
            }
        }
        *bound = (start, nz.len());
    }
    // Panel-outer, row-inner: the packed panel (k_dim·tile floats) stays
    // cache-resident across the whole row block.
    for p in 0..panels {
        let j0 = p * tile;
        let w = tile.min(n - j0);
        let panel = &packed[starts[p]..starts[p] + k_dim * w];
        for ir in 0..rows_here {
            let a_row = &a[(i0 + ir) * k_dim..(i0 + ir + 1) * k_dim];
            let (s0, s1) = bounds[ir];
            let out_row = &mut out_block[ir * n + j0..ir * n + j0 + w];
            matmul_row(a_row, &nz[s0..s1], panel, w, simd, out_row);
        }
    }
}

/// Tiled `C = A · B` over raw row-major buffers. `out` must be zeroed
/// (freshly allocated) and of length `m·n`. Public so the parity suite
/// can force the tiled path regardless of the shape gate.
pub fn matmul_tiled(a: &[f32], m: usize, k_dim: usize, b: &[f32], n: usize, out: &mut [f32]) {
    matmul_tiled_impl(a, m, k_dim, b, n, out, simd_available());
}

/// [`matmul_tiled`] with SIMD dispatch forced on or off — the hook the
/// parity suite uses to prove the AVX and portable strips agree bitwise.
/// Forcing `simd: true` without AVX support is rejected at dispatch.
#[doc(hidden)]
pub fn matmul_tiled_impl(
    a: &[f32],
    m: usize,
    k_dim: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    simd: bool,
) {
    let simd = simd && simd_available();
    let tile = tile_width();
    let starts = panel_starts(k_dim, n, tile);
    let mut packed = TrackedScratch::zeroed(*starts.last().unwrap_or(&0));
    pack_b_into(b, k_dim, n, tile, &starts, &mut packed.data);
    let packed = &packed.data;
    let starts = &starts;
    if m >= PAR_ROW_THRESHOLD {
        out.par_chunks_mut((ROW_BLOCK * n).max(1))
            .enumerate()
            .for_each(|(bi, block)| {
                matmul_block(
                    a,
                    k_dim,
                    n,
                    packed,
                    starts,
                    tile,
                    simd,
                    bi * ROW_BLOCK,
                    block,
                );
            });
    } else {
        for (bi, block) in out.chunks_mut((ROW_BLOCK * n).max(1)).enumerate() {
            matmul_block(
                a,
                k_dim,
                n,
                packed,
                starts,
                tile,
                simd,
                bi * ROW_BLOCK,
                block,
            );
        }
    }
}

// ---------------------------------------------------------------------------
// matmul_transpose: C(m×n) = A(m×k) · B(n×k)ᵀ  (every cell a row·row dot)
// ---------------------------------------------------------------------------

/// B rows per packed `matmul_transpose` panel: one 256-bit vector of
/// output cells.
const PANEL: usize = 8;

/// Pack `b` (n×k row-major) into `ceil(n / PANEL)` panels of [`PANEL`]
/// rows, each stored transposed: value `(kk, t)` sits at `kk · PANEL + t`
/// and holds `b[p·PANEL + t][kk]`. Read as `[4-lane chunk i][lane l][row
/// t]`, the operands one lane of [`dot`] consumes for all eight cells are
/// contiguous. Rows past `n` stay zero; their lanes are computed and
/// discarded. Pure relocation — no value changes.
fn pack_bt_into(b: &[f32], k_dim: usize, n: usize, out: &mut [f32]) {
    for j in 0..n {
        let (p, t) = (j / PANEL, j % PANEL);
        let panel = &mut out[p * PANEL * k_dim..(p + 1) * PANEL * k_dim];
        for (kk, &v) in b[j * k_dim..(j + 1) * k_dim].iter().enumerate() {
            panel[kk * PANEL + t] = v;
        }
    }
}

/// Portable panel kernel: eight [`dot`]s of `a_row` against one packed
/// panel. Cell `t`'s lane `l` accumulates the products at `4i + l`, the
/// lanes reduce as `((l0+l1)+l2)+l3`, and the `k % 4` tail appends in
/// order — `dot`'s exact sequence, so each cell is bitwise `dot`.
#[inline]
fn dot_panel_scalar(a_row: &[f32], panel: &[f32], out: &mut [f32; PANEL]) {
    let chunks = a_row.len() / 4;
    let mut acc = [[0.0f32; PANEL]; 4];
    for i in 0..chunks {
        for (l, lane) in acc.iter_mut().enumerate() {
            let kk = 4 * i + l;
            let av = a_row[kk];
            let bs = &panel[kk * PANEL..(kk + 1) * PANEL];
            for t in 0..PANEL {
                lane[t] += av * bs[t];
            }
        }
    }
    for (t, o) in out.iter_mut().enumerate() {
        let mut total = acc[0][t] + acc[1][t] + acc[2][t] + acc[3][t];
        for kk in chunks * 4..a_row.len() {
            total += a_row[kk] * panel[kk * PANEL + t];
        }
        *o = total;
    }
}

/// One row block of the tiled `A · Bᵀ`: tiles of `tile_panels` packed
/// panels stay L1-resident across the [`ROW_BLOCK`] `a` rows.
#[allow(clippy::too_many_arguments)]
fn matmul_transpose_block(
    a: &[f32],
    k_dim: usize,
    packed: &[f32],
    n: usize,
    tile_panels: usize,
    simd: bool,
    i0: usize,
    out_block: &mut [f32],
) {
    let rows_here = out_block.len().checked_div(n).unwrap_or(0);
    let panels = n.div_ceil(PANEL);
    let panel_len = PANEL * k_dim;
    let mut p0 = 0;
    while p0 < panels {
        let p1 = (p0 + tile_panels).min(panels);
        for ir in 0..rows_here {
            let a_row = &a[(i0 + ir) * k_dim..(i0 + ir + 1) * k_dim];
            let out_row = &mut out_block[ir * n..(ir + 1) * n];
            for p in p0..p1 {
                let panel = &packed[p * panel_len..(p + 1) * panel_len];
                let mut cells = [0.0f32; PANEL];
                #[cfg(target_arch = "x86_64")]
                if simd {
                    // SAFETY: `simd` is only true after AVX detection and
                    // the panel holds `a_row.len() · PANEL` floats.
                    unsafe { avx::dot_panel8(a_row, panel, &mut cells) };
                } else {
                    dot_panel_scalar(a_row, panel, &mut cells);
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    let _ = simd;
                    dot_panel_scalar(a_row, panel, &mut cells);
                }
                let j = p * PANEL;
                let w = PANEL.min(n - j);
                out_row[j..j + w].copy_from_slice(&cells[..w]);
            }
        }
        p0 = p1;
    }
}

/// Tiled `C = A · Bᵀ` over raw buffers (`a`: m×k, `b`: n×k, `out`: m×n).
/// Every cell is bitwise [`dot`] of its two rows.
pub fn matmul_transpose_tiled(
    a: &[f32],
    m: usize,
    k_dim: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    matmul_transpose_tiled_impl(a, m, k_dim, b, n, out, simd_available());
}

/// [`matmul_transpose_tiled`] with SIMD dispatch forced on or off, like
/// [`matmul_tiled_impl`]. Forcing `simd: true` without AVX support is
/// rejected at dispatch.
#[doc(hidden)]
pub fn matmul_transpose_tiled_impl(
    a: &[f32],
    m: usize,
    k_dim: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    simd: bool,
) {
    let simd = simd && simd_available();
    let tile_panels = tile_width().div_ceil(PANEL);
    let mut packed = TrackedScratch::zeroed(n.div_ceil(PANEL) * PANEL * k_dim);
    pack_bt_into(b, k_dim, n, &mut packed.data);
    let packed = &packed.data;
    let block = |bi: usize, out_block: &mut [f32]| {
        matmul_transpose_block(
            a,
            k_dim,
            packed,
            n,
            tile_panels,
            simd,
            bi * ROW_BLOCK,
            out_block,
        );
    };
    if m >= PAR_ROW_THRESHOLD {
        out.par_chunks_mut((ROW_BLOCK * n).max(1))
            .enumerate()
            .for_each(|(bi, out_block)| block(bi, out_block));
    } else {
        for (bi, out_block) in out.chunks_mut((ROW_BLOCK * n).max(1)).enumerate() {
            block(bi, out_block);
        }
    }
}

// ---------------------------------------------------------------------------
// transpose_matmul: C(k×n) = A(r×k)ᵀ · B(r×n)
// ---------------------------------------------------------------------------

/// Output rows per `transpose_matmul` register tile.
const TM_ROWS: usize = 4;

/// Output columns per `transpose_matmul` register tile (two 256-bit
/// vectors, so a full tile is eight accumulators).
const TM_COLS: usize = 16;

/// `A` rows streamed per pass over the output tiles: the chunk's rows of
/// `A` and `B` stay L1-resident while every tile of the block passes over
/// them, whatever the total row count.
const TM_R_CHUNK: usize = 64;

/// Portable register tile: output rows `[q0, q0+qh)` × columns
/// `[j0, j0+jw)` of `out` (row stride `n`) continue their sums over `A`
/// rows `rs`, in increasing `r`, skipping `a == 0.0` — the reference's
/// per-cell sequence.
#[allow(clippy::too_many_arguments)]
#[inline]
fn tm_tile_scalar(
    a: &[f32],
    a_cols: usize,
    k0: usize,
    b: &[f32],
    n: usize,
    rs: std::ops::Range<usize>,
    (q0, qh): (usize, usize),
    (j0, jw): (usize, usize),
    out: &mut [f32],
) {
    let mut acc = [[0.0f32; TM_COLS]; TM_ROWS];
    for (q, row) in acc.iter_mut().enumerate().take(qh) {
        row[..jw].copy_from_slice(&out[(q0 + q) * n + j0..(q0 + q) * n + j0 + jw]);
    }
    for r in rs {
        let a_sub = &a[r * a_cols + k0 + q0..r * a_cols + k0 + q0 + qh];
        let b_sub = &b[r * n + j0..r * n + j0 + jw];
        for (row, &av) in acc.iter_mut().zip(a_sub) {
            if av == 0.0 {
                continue;
            }
            for (o, &bv) in row.iter_mut().zip(b_sub) {
                *o += av * bv;
            }
        }
    }
    for (q, row) in acc.iter().enumerate().take(qh) {
        out[(q0 + q) * n + j0..(q0 + q) * n + j0 + jw].copy_from_slice(&row[..jw]);
    }
}

/// One block of output rows `[k0, k0 + kw)`. `A` rows stream in
/// [`TM_R_CHUNK`] chunks; within a chunk every register tile carries its
/// partial sums in from `out`, adds the chunk's rows in increasing `r`
/// and stores them back (an exact f32 round trip), so each cell sees the
/// reference's sequence whatever the chunking.
#[allow(clippy::too_many_arguments)]
fn transpose_matmul_block(
    a: &[f32],
    rows: usize,
    a_cols: usize,
    b: &[f32],
    n: usize,
    simd: bool,
    k0: usize,
    out_block: &mut [f32],
) {
    let kw = out_block.len().checked_div(n).unwrap_or(0);
    for r0 in (0..rows).step_by(TM_R_CHUNK) {
        let rs = r0..(r0 + TM_R_CHUNK).min(rows);
        for j0 in (0..n).step_by(TM_COLS) {
            let jw = TM_COLS.min(n - j0);
            for q0 in (0..kw).step_by(TM_ROWS) {
                let qh = TM_ROWS.min(kw - q0);
                #[cfg(target_arch = "x86_64")]
                if simd && qh == TM_ROWS && jw == TM_COLS {
                    // SAFETY: `simd` is only true after AVX detection; the
                    // tile's rows and columns lie inside
                    // `a`, `b` and `out_block` because `qh`/`jw` are full
                    // widths here.
                    unsafe {
                        avx::tm_tile4x16(a, a_cols, k0 + q0, b, n, rs.clone(), q0, j0, out_block)
                    };
                    continue;
                }
                tm_tile_scalar(
                    a,
                    a_cols,
                    k0,
                    b,
                    n,
                    rs.clone(),
                    (q0, qh),
                    (j0, jw),
                    out_block,
                );
            }
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = simd;
}

/// Blocked `C = Aᵀ · B` over raw buffers (`a`: rows×a_cols, `b`: rows×n,
/// `out`: a_cols×n, zeroed).
pub fn transpose_matmul_blocked(
    a: &[f32],
    rows: usize,
    a_cols: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
) {
    transpose_matmul_blocked_impl(a, rows, a_cols, b, n, out, simd_available());
}

/// [`transpose_matmul_blocked`] with SIMD dispatch forced on or off, like
/// [`matmul_tiled_impl`].
#[doc(hidden)]
pub fn transpose_matmul_blocked_impl(
    a: &[f32],
    rows: usize,
    a_cols: usize,
    b: &[f32],
    n: usize,
    out: &mut [f32],
    simd: bool,
) {
    // The AVX tile reads through raw pointers: these lengths are what
    // keeps it in bounds.
    assert!(
        a.len() == rows * a_cols && b.len() == rows * n && out.len() == a_cols * n,
        "transpose_matmul: buffer lengths do not match {rows}x{a_cols} and {rows}x{n}"
    );
    let simd = simd && simd_available();
    let block = |bi: usize, out_block: &mut [f32]| {
        transpose_matmul_block(a, rows, a_cols, b, n, simd, bi * ROW_BLOCK, out_block);
    };
    if a_cols >= PAR_ROW_THRESHOLD {
        out.par_chunks_mut((ROW_BLOCK * n).max(1))
            .enumerate()
            .for_each(|(bi, out_block)| block(bi, out_block));
    } else {
        for (bi, out_block) in out.chunks_mut((ROW_BLOCK * n).max(1)).enumerate() {
            block(bi, out_block);
        }
    }
}

// ---------------------------------------------------------------------------
// Retained naive reference kernels
// ---------------------------------------------------------------------------

/// The naive kernels the tiled implementations are checked against —
/// byte-for-byte the hot loops that shipped before the blocked rewrite,
/// minus pool dispatch. They define the accumulation order; the tiled
/// kernels must reproduce it bitwise (`kernel_parity.rs`).
pub mod reference {
    use super::dot;
    use crate::matrix::Matrix;

    /// Sequential reference `C = A · B` (`ikj`, `a == 0.0` skipped).
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul dimension mismatch");
        let m = a.rows();
        let n = b.cols();
        let mut out = Matrix::zeros(m, n);
        for r in 0..m {
            let a_row = a.row(r);
            let out_row = &mut out.as_mut_slice()[r * n..(r + 1) * n];
            for (k, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let b_row = &b.as_slice()[k * n..(k + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }

    /// Sequential reference `C = A · Bᵀ` (every cell a chunked [`dot`]).
    pub fn matmul_transpose(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "matmul_transpose dimension mismatch");
        let m = a.rows();
        let n = b.rows();
        let mut out = Matrix::zeros(m, n);
        for r in 0..m {
            let a_row = a.row(r);
            let out_row = &mut out.as_mut_slice()[r * n..(r + 1) * n];
            for (j, o) in out_row.iter_mut().enumerate() {
                *o = dot(a_row, b.row(j));
            }
        }
        out
    }

    /// Sequential reference `C = Aᵀ · B` (`r` outer, `a == 0.0` skipped).
    pub fn transpose_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "transpose_matmul dimension mismatch");
        let n = b.cols();
        let mut out = Matrix::zeros(a.cols(), n);
        for r in 0..a.rows() {
            let a_row = a.row(r);
            let b_row = b.row(r);
            for (k, &av) in a_row.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let out_row = &mut out.as_mut_slice()[k * n..(k + 1) * n];
                for (o, &bv) in out_row.iter_mut().zip(b_row) {
                    *o += av * bv;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::Matrix;

    fn lcg_matrix(rows: usize, cols: usize, seed: u32) -> Matrix {
        let mut state = seed | 1;
        let data = (0..rows * cols)
            .map(|_| {
                state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                (state >> 8) as f32 / (1u32 << 24) as f32 - 0.5
            })
            .collect();
        Matrix::from_vec(rows, cols, data)
    }

    #[test]
    fn tile_width_clamps_and_scopes() {
        assert_eq!(with_tile(1, tile_width), TILE_RANGE.0);
        assert_eq!(with_tile(10_000, tile_width), TILE_RANGE.1);
        assert_eq!(with_tile(32, || with_tile(16, tile_width)), 16);
        assert_eq!(with_tile(32, tile_width), 32);
    }

    #[test]
    fn tiled_matmul_matches_reference_at_several_tiles() {
        let a = lcg_matrix(70, 33, 3);
        let b = lcg_matrix(33, 90, 5);
        let want = reference::matmul(&a, &b);
        for tile in [8, 16, 64, 256] {
            let got = with_tile(tile, || {
                let mut out = Matrix::zeros(70, 90);
                matmul_tiled(a.as_slice(), 70, 33, b.as_slice(), 90, out.as_mut_slice());
                out
            });
            assert_eq!(got.as_slice(), want.as_slice(), "tile {tile}");
        }
    }

    #[test]
    fn tiled_matmul_transpose_matches_reference() {
        let a = lcg_matrix(67, 41, 7);
        let b = lcg_matrix(83, 41, 11);
        let want = reference::matmul_transpose(&a, &b);
        for tile in [8, 64] {
            let got = with_tile(tile, || {
                let mut out = Matrix::zeros(67, 83);
                matmul_transpose_tiled(a.as_slice(), 67, 41, b.as_slice(), 83, out.as_mut_slice());
                out
            });
            assert_eq!(got.as_slice(), want.as_slice(), "tile {tile}");
        }
    }

    #[test]
    fn blocked_transpose_matmul_matches_reference() {
        let a = lcg_matrix(130, 70, 13);
        let b = lcg_matrix(130, 29, 17);
        let want = reference::transpose_matmul(&a, &b);
        let mut out = Matrix::zeros(70, 29);
        transpose_matmul_blocked(a.as_slice(), 130, 70, b.as_slice(), 29, out.as_mut_slice());
        assert_eq!(out.as_slice(), want.as_slice());
    }

    #[test]
    fn zero_inner_dimension_is_all_zeros() {
        let a = Matrix::zeros(5, 0);
        let b = Matrix::zeros(0, 7);
        let mut out = Matrix::zeros(5, 7);
        matmul_tiled(a.as_slice(), 5, 0, b.as_slice(), 7, out.as_mut_slice());
        assert_eq!(out.as_slice(), &[0.0; 35]);
    }
}
