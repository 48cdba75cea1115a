//! Shape-checked dense operations: matrix multiply, zero padding, convolution geometry.

use crate::{Shape, Tensor, TensorError};
use serde::{Deserialize, Serialize};

/// Spatial geometry of a 2-D convolution.
///
/// Convolution kernels in several crates (direct conv, winograd conv, the
/// systolic-array timing model) all need the same output-size arithmetic;
/// this type is the single source of truth for it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConvGeometry {
    /// Input height (before padding).
    pub in_h: usize,
    /// Input width (before padding).
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
    /// Stride (same in both dimensions).
    pub stride: usize,
    /// Zero padding (same on all four sides).
    pub padding: usize,
}

impl ConvGeometry {
    /// Geometry of a square-kernel, square-input convolution.
    #[must_use]
    pub fn square(in_size: usize, kernel: usize, stride: usize, padding: usize) -> Self {
        Self {
            in_h: in_size,
            in_w: in_size,
            k_h: kernel,
            k_w: kernel,
            stride,
            padding,
        }
    }

    /// Output height.
    #[must_use]
    pub fn out_h(&self) -> usize {
        conv_out_dim(self.in_h, self.k_h, self.stride, self.padding)
    }

    /// Output width.
    #[must_use]
    pub fn out_w(&self) -> usize {
        conv_out_dim(self.in_w, self.k_w, self.stride, self.padding)
    }

    /// Number of output pixels per channel.
    #[must_use]
    pub fn out_pixels(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Whether this geometry is the winograd-friendly 3x3 / stride-1 case that
    /// the paper evaluates ("3x3 filter with unit stride" incurs no accuracy
    /// penalty).
    #[must_use]
    pub fn is_unit_stride_3x3(&self) -> bool {
        self.k_h == 3 && self.k_w == 3 && self.stride == 1
    }
}

/// Output size of one convolution dimension.
#[must_use]
pub fn conv_out_dim(input: usize, kernel: usize, stride: usize, padding: usize) -> usize {
    let padded = input + 2 * padding;
    if padded < kernel || stride == 0 {
        return 0;
    }
    (padded - kernel) / stride + 1
}

/// Rows of `c` computed per register tile of the GEMM microkernel.
const GEMM_MR: usize = 4;
/// Columns of `c` computed per register tile of the GEMM microkernel: four
/// rows of 16 f32 lanes map onto 4×(2×ymm) with AVX2 or 4×zmm with AVX-512.
const GEMM_NR: usize = 16;
/// Depth of one k-block: a `GEMM_KC × GEMM_NR` panel of `b` (~8 KiB) stays
/// L1-resident while a register tile runs over it.
const GEMM_KC: usize = 256;
/// Minimum `m·k·n` before [`par_gemm_f32`] bothers spawning workers; below
/// this the fork/join and stripe-stitch overhead dominates.
const PAR_GEMM_MIN_WORK: usize = 1 << 18;

/// Dense row-major matrix multiply on raw slices: `c = a (m×k) · b (k×n)`,
/// overwriting `c`.
///
/// This is the hot inner kernel of the planned winograd scatter–GEMM path
/// (one call per winograd-domain coordinate), so it avoids all allocation. It
/// is cache-blocked: `k` is split into `GEMM_KC`-deep panels and each panel
/// is consumed by a `GEMM_MR`×`GEMM_NR` register-tiled microkernel that
/// touches each `c` element once per panel instead of once per `k` step.
///
/// Every `c[i][j]` accumulates its `k` products in strictly increasing-`p`
/// order (the register tile is loaded from and stored back to `c` around each
/// panel), so results are bit-identical to a naive `i-j-k` triple loop — and
/// independent of how callers block or shard the free dimension.
///
/// # Panics
///
/// Panics if a slice is shorter than its declared shape.
// wgft-audit: consensus-critical -- campaign-visible in f32-det mode; certified
// bit-identical to gemm_f32_det by the pinned determinism vectors
pub fn gemm_f32(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "gemm_f32: lhs too short");
    assert!(b.len() >= k * n, "gemm_f32: rhs too short");
    assert!(c.len() >= m * n, "gemm_f32: out too short");
    c[..m * n].fill(0.0);
    gemm_stripe(a, b, c, m, k, n, n, 0);
}

/// Deterministic-f32 reference GEMM: a strictly ordered naive `i-j-k`
/// triple loop, `c = a (m×k) · b (k×n)`, overwriting `c`.
///
/// This is the executable determinism *spec* of the f32 path — the kernel
/// the `f32-det` arithmetic mode names in sweep manifests. Every `c[i][j]`
/// accumulates its `k` products one at a time in increasing-`p` order with
/// one IEEE-754 rounding step per multiply and per add: no FMA (Rust never
/// contracts `a*b + c`, and the loop never calls `mul_add`), no blocking,
/// no data-parallel reassociation. Its bits are therefore a pure function
/// of the inputs on every IEEE-754 platform and codegen — including builds
/// without `target-cpu=native`, which CI exercises with `RUSTFLAGS=""`.
///
/// [`gemm_f32`]'s blocked kernel preserves the same accumulation order and
/// is asserted bit-identical in tests; the pinned cross-platform vectors in
/// `crates/winograd/tests/determinism_vectors.rs` pin the actual output
/// bits of both.
///
/// # Panics
///
/// Panics if a slice is shorter than its declared shape.
// wgft-audit: consensus-critical
// wgft-audit: blessed(float-arith) -- this IS the blessed det-f32 wrapper:
// fixed accumulation order, no FMA, certified by the pinned vector tests
pub fn gemm_f32_det(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "gemm_f32_det: lhs too short");
    assert!(b.len() >= k * n, "gemm_f32_det: rhs too short");
    assert!(c.len() >= m * n, "gemm_f32_det: out too short");
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let mut acc = 0.0f32;
            for (p, &av) in arow.iter().enumerate() {
                acc += av * b[p * n + j];
            }
            c[i * n + j] = acc;
        }
    }
}

/// Parallel [`gemm_f32`]: rayon-splits the free dimension `n` into column
/// stripes, one worker per stripe, and stitches the stripes back into `c`.
///
/// Falls back to the serial kernel when the pool has one thread or the
/// product is too small to amortize the fork/join. Because the serial kernel
/// accumulates each output element in a fixed `k` order regardless of column
/// blocking, the parallel result is bit-identical to the serial one for any
/// thread count.
///
/// # Panics
///
/// Panics if a slice is shorter than its declared shape.
pub fn par_gemm_f32(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "par_gemm_f32: lhs too short");
    assert!(b.len() >= k * n, "par_gemm_f32: rhs too short");
    assert!(c.len() >= m * n, "par_gemm_f32: out too short");
    let threads = rayon::current_num_threads();
    if threads <= 1 || n < 2 * GEMM_NR || m * k * n < PAR_GEMM_MIN_WORK {
        gemm_f32(a, b, c, m, k, n);
        return;
    }
    gemm_f32_striped(a, b, c, m, k, n, threads.min(n / GEMM_NR));
}

/// Compute `c = a·b` by splitting `n` into `stripes` column stripes, each
/// computed into an owned buffer in parallel and copied back in stripe order.
///
/// The stripe buffers are the one allocation of the parallel path; the
/// stitch copy is `O(m·n)` against `O(m·k·n)` compute.
pub(crate) fn gemm_f32_striped(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    stripes: usize,
) {
    use rayon::prelude::*;
    let stripes = stripes.clamp(1, n.max(1));
    if stripes == 1 {
        gemm_f32(a, b, c, m, k, n);
        return;
    }
    let width = n.div_ceil(stripes);
    let jobs: Vec<(usize, usize)> = (0..n)
        .step_by(width)
        .map(|j0| (j0, width.min(n - j0)))
        .collect();
    let done: Vec<(usize, usize, Vec<f32>)> = jobs
        .into_par_iter()
        .map(|(j0, nb)| {
            let mut buf = vec![0.0f32; m * nb];
            gemm_stripe(a, b, &mut buf, m, k, nb, n, j0);
            (j0, nb, buf)
        })
        .collect();
    for (j0, nb, buf) in done {
        for i in 0..m {
            c[i * n + j0..i * n + j0 + nb].copy_from_slice(&buf[i * nb..(i + 1) * nb]);
        }
    }
}

/// Accumulate `a (m×k) · b[:, j0..j0+nb]` onto a column stripe `c` of row
/// stride `nb`, where `b` has row stride `ldb`. `c` must hold the stripe's
/// prior contents (zeros for a plain multiply).
#[allow(clippy::too_many_arguments)]
fn gemm_stripe(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    nb: usize,
    ldb: usize,
    j0: usize,
) {
    let mut pb = 0usize;
    while pb < k {
        let kc = GEMM_KC.min(k - pb);
        let mut i = 0usize;
        while i < m {
            let mr = GEMM_MR.min(m - i);
            let mut j = 0usize;
            while j < nb {
                let nr = GEMM_NR.min(nb - j);
                if mr == GEMM_MR && nr == GEMM_NR {
                    gemm_microkernel(a, b, c, k, nb, ldb, i, j, j0 + j, pb, kc);
                } else {
                    // Tail rows/columns: scalar register accumulation with the
                    // same strictly increasing-`p` order as the full tile.
                    for r in 0..mr {
                        let arow = &a[(i + r) * k..(i + r + 1) * k];
                        let crow = &mut c[(i + r) * nb + j..(i + r) * nb + j + nr];
                        for (q, cv) in crow.iter_mut().enumerate() {
                            let mut acc = *cv;
                            for p in pb..pb + kc {
                                acc += arow[p] * b[p * ldb + j0 + j + q];
                            }
                            *cv = acc;
                        }
                    }
                }
                j += nr;
            }
            i += mr;
        }
        pb += kc;
    }
}

/// Rows per register tile of the integer GEMM microkernel.
const GEMM_I32_MR: usize = 4;
/// Columns per full-width register tile of the integer GEMM microkernel:
/// four rows of eight `i64` accumulator lanes map onto 4×(2×ymm) with AVX2 or
/// 4×zmm with AVX-512. Column tails narrower than this take the same kernel at
/// widths 4, 2 and 1.
const GEMM_I32_NR: usize = 8;

/// Dense row-major integer matrix multiply on raw slices:
/// `c = a (m×k) · b (k×n)` with `i32` operands and `i64` accumulators,
/// overwriting `c`.
///
/// This is the hot inner kernel of the fast (uninstrumented) quantized
/// winograd path: one call per winograd-domain coordinate, with quantized
/// `i32` words in and wide `i64` accumulators out — the same accumulator
/// domain the instrumented scalar kernels produce. It is cache-blocked
/// exactly like [`gemm_f32`] (`GEMM_KC`-deep panels consumed by a
/// `GEMM_I32_MR`×`GEMM_I32_NR` register tile), and because integer
/// addition is associative the result is *bit-identical* to a naive `i-j-k`
/// triple loop — and to the instrumented kernels run on exact arithmetic —
/// for every blocking, provided no intermediate sum overflows `i64`
/// (full-scale `i32` operands already reach `2⁶²` per product, so only
/// trivial depths survive at full scale — but real quantized words are
/// bounded by the storage width at ≤ 2¹⁷, leaving headroom for `k` beyond
/// `2²⁸`).
///
/// The winograd engine puts tiles on `n`, so small feature maps give narrow
/// products (`n` of 4 tiles is common); their columns run register tiles of
/// width 4, 2 and 1 rather than a scalar loop. Only tail rows (`m` not a
/// multiple of `GEMM_I32_MR`) take the scalar loop.
///
/// # Panics
///
/// Panics if a slice is shorter than its declared shape.
// wgft-audit: consensus-critical -- the quantized campaign GEMM; integer, order-independent
pub fn gemm_i32(a: &[i32], b: &[i32], c: &mut [i64], m: usize, k: usize, n: usize) {
    assert!(a.len() >= m * k, "gemm_i32: lhs too short");
    assert!(b.len() >= k * n, "gemm_i32: rhs too short");
    assert!(c.len() >= m * n, "gemm_i32: out too short");
    c[..m * n].fill(0);
    let mut pb = 0usize;
    while pb < k {
        let kc = GEMM_KC.min(k - pb);
        let mut i = 0usize;
        while i < m {
            let mr = GEMM_I32_MR.min(m - i);
            if mr == GEMM_I32_MR {
                let mut j = 0usize;
                while j + GEMM_I32_NR <= n {
                    gemm_i32_microkernel::<GEMM_I32_NR>(a, b, c, k, n, i, j, pb, kc);
                    j += GEMM_I32_NR;
                }
                // Column tail (fewer than GEMM_I32_NR): at most one tile of
                // each narrower width.
                if n - j >= 4 {
                    gemm_i32_microkernel::<4>(a, b, c, k, n, i, j, pb, kc);
                    j += 4;
                }
                if n - j >= 2 {
                    gemm_i32_microkernel::<2>(a, b, c, k, n, i, j, pb, kc);
                    j += 2;
                }
                if n - j >= 1 {
                    gemm_i32_microkernel::<1>(a, b, c, k, n, i, j, pb, kc);
                }
            } else {
                // Tail rows: scalar accumulation over the same panel depth.
                for r in 0..mr {
                    let arow = &a[(i + r) * k..(i + r + 1) * k];
                    let crow = &mut c[(i + r) * n..(i + r + 1) * n];
                    for (q, cv) in crow.iter_mut().enumerate() {
                        let mut acc = *cv;
                        for p in pb..pb + kc {
                            acc += i64::from(arow[p]) * i64::from(b[p * n + q]);
                        }
                        *cv = acc;
                    }
                }
            }
            i += mr;
        }
        pb += kc;
    }
}

/// The 4×`NR` integer register tile: widening `i32·i32 → i64` multiplies
/// accumulated in registers, stored back to `c` once per k-block.
// wgft-audit: consensus-critical -- register tile of the quantized GEMM
#[allow(clippy::too_many_arguments)]
#[inline]
fn gemm_i32_microkernel<const NR: usize>(
    a: &[i32],
    b: &[i32],
    c: &mut [i64],
    k: usize,
    ldc: usize,
    i: usize,
    j: usize,
    pb: usize,
    kc: usize,
) {
    let mut acc = [[0i64; NR]; GEMM_I32_MR];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&c[(i + r) * ldc + j..][..NR]);
    }
    let a0 = &a[i * k..(i + 1) * k];
    let a1 = &a[(i + 1) * k..(i + 2) * k];
    let a2 = &a[(i + 2) * k..(i + 3) * k];
    let a3 = &a[(i + 3) * k..(i + 4) * k];
    for p in pb..pb + kc {
        let brow: &[i32; NR] = b[p * ldc + j..p * ldc + j + NR]
            .try_into()
            .expect("panel row is NR wide");
        let av = [
            i64::from(a0[p]),
            i64::from(a1[p]),
            i64::from(a2[p]),
            i64::from(a3[p]),
        ];
        for q in 0..NR {
            let bv = i64::from(brow[q]);
            for (row, &ar) in acc.iter_mut().zip(av.iter()) {
                row[q] += ar * bv;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        c[(i + r) * ldc + j..][..NR].copy_from_slice(row);
    }
}

/// The 4×8 register tile: loads `c`, streams one `b` panel row per `p`, and
/// stores `c` back once per k-block. `jc` is the tile's column inside the
/// stripe, `jb` its absolute column in `b`.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gemm_microkernel(
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    k: usize,
    ldc: usize,
    ldb: usize,
    i: usize,
    jc: usize,
    jb: usize,
    pb: usize,
    kc: usize,
) {
    let mut acc0 = [0.0f32; GEMM_NR];
    let mut acc1 = [0.0f32; GEMM_NR];
    let mut acc2 = [0.0f32; GEMM_NR];
    let mut acc3 = [0.0f32; GEMM_NR];
    acc0.copy_from_slice(&c[i * ldc + jc..i * ldc + jc + GEMM_NR]);
    acc1.copy_from_slice(&c[(i + 1) * ldc + jc..(i + 1) * ldc + jc + GEMM_NR]);
    acc2.copy_from_slice(&c[(i + 2) * ldc + jc..(i + 2) * ldc + jc + GEMM_NR]);
    acc3.copy_from_slice(&c[(i + 3) * ldc + jc..(i + 3) * ldc + jc + GEMM_NR]);
    let a0 = &a[i * k..(i + 1) * k];
    let a1 = &a[(i + 1) * k..(i + 2) * k];
    let a2 = &a[(i + 2) * k..(i + 3) * k];
    let a3 = &a[(i + 3) * k..(i + 4) * k];
    for p in pb..pb + kc {
        // Fixed-size array view: no per-lane bounds checks in the hot loop.
        let brow: &[f32; GEMM_NR] = b[p * ldb + jb..p * ldb + jb + GEMM_NR]
            .try_into()
            .expect("panel row is GEMM_NR wide");
        let (av0, av1, av2, av3) = (a0[p], a1[p], a2[p], a3[p]);
        for q in 0..GEMM_NR {
            let bv = brow[q];
            acc0[q] += av0 * bv;
            acc1[q] += av1 * bv;
            acc2[q] += av2 * bv;
            acc3[q] += av3 * bv;
        }
    }
    c[i * ldc + jc..i * ldc + jc + GEMM_NR].copy_from_slice(&acc0);
    c[(i + 1) * ldc + jc..(i + 1) * ldc + jc + GEMM_NR].copy_from_slice(&acc1);
    c[(i + 2) * ldc + jc..(i + 2) * ldc + jc + GEMM_NR].copy_from_slice(&acc2);
    c[(i + 3) * ldc + jc..(i + 3) * ldc + jc + GEMM_NR].copy_from_slice(&acc3);
}

/// Dense row-major matrix multiply `C = A (m x k) * B (k x n)`.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if either operand is not 2-D and
/// [`TensorError::InnerDimMismatch`] if the inner dimensions differ.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor, TensorError> {
    if a.shape().rank() != 2 || b.shape().rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: if a.shape().rank() != 2 {
                a.shape().rank()
            } else {
                b.shape().rank()
            },
        });
    }
    let (m, k1) = (a.shape().dims()[0], a.shape().dims()[1]);
    let (k2, n) = (b.shape().dims()[0], b.shape().dims()[1]);
    if k1 != k2 {
        return Err(TensorError::InnerDimMismatch {
            left: k1,
            right: k2,
        });
    }
    let mut out = vec![0.0f32; m * n];
    gemm_f32(a.data(), b.data(), &mut out, m, k1, n);
    Tensor::from_vec(Shape::d2(m, n), out)
}

/// Zero-pad a single-image NCHW tensor (batch must be 1) by `padding` pixels
/// on every spatial side.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] if `x` is not 4-D.
pub fn pad2d(x: &Tensor, padding: usize) -> Result<Tensor, TensorError> {
    if x.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: x.shape().rank(),
        });
    }
    if padding == 0 {
        return Ok(x.clone());
    }
    let dims = x.shape().dims();
    let (n, c, h, w) = (dims[0], dims[1], dims[2], dims[3]);
    let mut out = Tensor::zeros(Shape::nchw(n, c, h + 2 * padding, w + 2 * padding));
    for ni in 0..n {
        for ci in 0..c {
            for hi in 0..h {
                for wi in 0..w {
                    let v = x.get4(ni, ci, hi, wi)?;
                    out.set4(ni, ci, hi + padding, wi + padding, v)?;
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_out_dim_matches_formula() {
        assert_eq!(conv_out_dim(8, 3, 1, 1), 8);
        assert_eq!(conv_out_dim(8, 3, 1, 0), 6);
        assert_eq!(conv_out_dim(8, 3, 2, 1), 4);
        assert_eq!(conv_out_dim(2, 5, 1, 0), 0);
        assert_eq!(conv_out_dim(8, 3, 0, 0), 0);
    }

    #[test]
    fn geometry_helpers() {
        let g = ConvGeometry::square(16, 3, 1, 1);
        assert_eq!(g.out_h(), 16);
        assert_eq!(g.out_w(), 16);
        assert_eq!(g.out_pixels(), 256);
        assert!(g.is_unit_stride_3x3());
        let g = ConvGeometry::square(16, 5, 2, 2);
        assert!(!g.is_unit_stride_3x3());
        assert_eq!(g.out_h(), 8);
    }

    /// Naive `i-j-k` reference: each output element accumulates its products
    /// in increasing-`k` order, the association the blocked kernel promises
    /// to preserve bit-for-bit.
    fn naive_gemm(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut c = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                c[i * n + j] = acc;
            }
        }
        c
    }

    fn gemm_fixture(m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i * 31 % 19) as f32) * 0.21 - 1.7)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i * 17 % 23) as f32) * 0.13 - 1.1)
            .collect();
        (a, b)
    }

    /// The blocked microkernel must agree with the naive reference *exactly*
    /// across odd/prime shapes that exercise every tail-row and tail-column
    /// path, plus a depth beyond one k-block.
    #[test]
    fn blocked_gemm_is_bit_identical_to_naive_reference() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 13),
            (3, 5, 9),
            (4, 8, 8),
            (5, 3, 17),
            (7, 11, 7),
            (8, 16, 24),
            (9, 13, 31),
            (13, 17, 19),
            (17, 300, 23), // k spans two GEMM_KC blocks
            (33, 5, 41),
        ] {
            let (a, b) = gemm_fixture(m, k, n);
            let mut c = vec![f32::NAN; m * n]; // stale values must be overwritten
            gemm_f32(&a, &b, &mut c, m, k, n);
            assert_eq!(
                c,
                naive_gemm(&a, &b, m, k, n),
                "blocked gemm diverged at m={m} k={k} n={n}"
            );
        }
    }

    /// The deterministic reference kernel must agree with both the naive
    /// spec loop and the blocked production kernel bit-for-bit: `f32-det`
    /// and the fast path certify each other.
    #[test]
    fn det_gemm_is_bit_identical_to_naive_and_blocked() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 13),
            (3, 5, 9),
            (5, 3, 17),
            (8, 16, 24),
            (9, 13, 31),
            (17, 300, 23), // k spans two GEMM_KC blocks
            (33, 5, 41),
        ] {
            let (a, b) = gemm_fixture(m, k, n);
            let mut det = vec![f32::NAN; m * n]; // stale values must be overwritten
            gemm_f32_det(&a, &b, &mut det, m, k, n);
            assert_eq!(
                det,
                naive_gemm(&a, &b, m, k, n),
                "det gemm diverged from the naive spec at m={m} k={k} n={n}"
            );
            let mut blocked = vec![0.0f32; m * n];
            gemm_f32(&a, &b, &mut blocked, m, k, n);
            assert_eq!(
                det, blocked,
                "blocked gemm diverged from det at m={m} k={k} n={n}"
            );
        }
    }

    /// Column-stripe sharding (the parallel decomposition) must not change a
    /// single bit, for any stripe count including ones that leave ragged
    /// stripes.
    #[test]
    fn striped_gemm_is_bit_identical_to_serial() {
        for &(m, k, n) in &[(5usize, 7usize, 23usize), (16, 32, 64), (3, 300, 17)] {
            let (a, b) = gemm_fixture(m, k, n);
            let mut serial = vec![0.0f32; m * n];
            gemm_f32(&a, &b, &mut serial, m, k, n);
            for stripes in [1usize, 2, 3, 5, 8] {
                let mut sharded = vec![f32::NAN; m * n];
                gemm_f32_striped(&a, &b, &mut sharded, m, k, n, stripes);
                assert_eq!(serial, sharded, "stripes={stripes} m={m} k={k} n={n}");
            }
        }
    }

    /// The public parallel entry point (whatever the ambient thread count)
    /// must match the serial kernel exactly, including above the
    /// work-threshold where it actually shards.
    #[test]
    fn par_gemm_matches_serial_bit_for_bit() {
        for &(m, k, n) in &[(4usize, 6usize, 10usize), (64, 64, 96), (96, 96, 96)] {
            let (a, b) = gemm_fixture(m, k, n);
            let mut serial = vec![0.0f32; m * n];
            gemm_f32(&a, &b, &mut serial, m, k, n);
            let mut par = vec![f32::NAN; m * n];
            par_gemm_f32(&a, &b, &mut par, m, k, n);
            assert_eq!(serial, par, "m={m} k={k} n={n}");
        }
    }

    /// Degenerate shapes — `m` or `n` (or both) smaller than the 4×16
    /// register tile, GEMV-shaped products, single elements — must take the
    /// tail paths without misindexing, for the serial, striped and parallel
    /// entry points alike.
    #[test]
    fn degenerate_shapes_are_bit_identical_to_naive_for_every_entry_point() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 5, 17),
            (1, 300, 17), // one row, k spans two GEMM_KC panels
            (3, 5, 5),
            (2, 9, 1), // GEMV: single output column
            (5, 7, 1),
            (17, 3, 1),
            (1, 1, 16),
            (16, 1, 1),
            (4, 300, 3),
            (3, 7, 15), // one short of the full tile width
            (5, 2, 16), // exactly one tile wide, ragged rows
        ] {
            let (a, b) = gemm_fixture(m, k, n);
            let expect = naive_gemm(&a, &b, m, k, n);
            let mut c = vec![f32::NAN; m * n];
            gemm_f32(&a, &b, &mut c, m, k, n);
            assert_eq!(c, expect, "gemm_f32 m={m} k={k} n={n}");
            let mut c = vec![f32::NAN; m * n];
            par_gemm_f32(&a, &b, &mut c, m, k, n);
            assert_eq!(c, expect, "par_gemm_f32 m={m} k={k} n={n}");
            for stripes in [1usize, 2, 3, 7] {
                let mut c = vec![f32::NAN; m * n];
                gemm_f32_striped(&a, &b, &mut c, m, k, n, stripes);
                assert_eq!(c, expect, "striped({stripes}) m={m} k={k} n={n}");
            }
        }
    }

    /// Naive integer reference for [`gemm_i32`].
    fn naive_gemm_i32(a: &[i32], b: &[i32], m: usize, k: usize, n: usize) -> Vec<i64> {
        let mut c = vec![0i64; m * n];
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] = (0..k)
                    .map(|p| i64::from(a[i * k + p]) * i64::from(b[p * n + j]))
                    .sum();
            }
        }
        c
    }

    fn gemm_i32_fixture(m: usize, k: usize, n: usize) -> (Vec<i32>, Vec<i32>) {
        let a: Vec<i32> = (0..m * k).map(|i| ((i * 31 % 19) as i32) - 9).collect();
        let b: Vec<i32> = (0..k * n).map(|i| ((i * 17 % 23) as i32) - 11).collect();
        (a, b)
    }

    /// The blocked integer kernel must agree with the naive reference exactly
    /// over the same degenerate and tail-exercising shape grid as the f32
    /// kernel, plus a depth beyond one k-block.
    #[test]
    fn blocked_gemm_i32_matches_naive_across_shape_grid() {
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (1, 7, 13),
            (1, 5, 17),
            (3, 5, 9),
            (2, 9, 1), // GEMV
            (5, 7, 1),
            (4, 8, 8),
            (5, 3, 17),
            (7, 11, 7),
            (8, 16, 24),
            (9, 13, 31),
            (17, 300, 23), // k spans two GEMM_KC blocks
            (33, 5, 41),
        ] {
            let (a, b) = gemm_i32_fixture(m, k, n);
            let mut c = vec![i64::MIN; m * n]; // stale values must be overwritten
            gemm_i32(&a, &b, &mut c, m, k, n);
            assert_eq!(
                c,
                naive_gemm_i32(&a, &b, m, k, n),
                "gemm_i32 diverged at m={m} k={k} n={n}"
            );
        }
    }

    /// Every column count from one register tile down (the 8-, 4-, 2- and
    /// 1-wide tiles and their combinations), against tail and full row
    /// counts and depths of one element, an odd depth and more than one
    /// k-block.
    #[test]
    fn gemm_i32_matches_naive_for_every_narrow_width() {
        for n in 1..=9usize {
            for m in [1usize, 4, 7, 8, 33] {
                for k in [1usize, 31, GEMM_KC + 5] {
                    let (a, b) = gemm_i32_fixture(m, k, n);
                    let mut c = vec![i64::MIN; m * n];
                    gemm_i32(&a, &b, &mut c, m, k, n);
                    assert_eq!(
                        c,
                        naive_gemm_i32(&a, &b, m, k, n),
                        "gemm_i32 diverged at m={m} k={k} n={n}"
                    );
                }
            }
        }
    }

    /// Extreme magnitudes: the widening multiply itself must not overflow
    /// for full-scale `i32` operands (the shallowest depth where the `i64`
    /// accumulator still holds the sum).
    #[test]
    fn gemm_i32_survives_full_scale_operands() {
        let (m, k, n) = (3usize, 2usize, 9usize);
        let a = vec![i32::MAX; m * k];
        let b = vec![i32::MIN + 1; k * n];
        let mut c = vec![0i64; m * n];
        gemm_i32(&a, &b, &mut c, m, k, n);
        let expect = i64::from(i32::MAX) * i64::from(i32::MIN + 1) * k as i64;
        assert!(c.iter().all(|&v| v == expect));
    }

    #[test]
    fn gemm_overwrites_and_matches_matmul() {
        let a: Vec<f32> = (0..6).map(|x| x as f32).collect();
        let b: Vec<f32> = (0..12).map(|x| (x as f32) * 0.5 - 2.0).collect();
        let mut c = vec![7.0f32; 2 * 4]; // stale values must be overwritten
        gemm_f32(&a, &b, &mut c, 2, 3, 4);
        let at = Tensor::from_vec(Shape::d2(2, 3), a).unwrap();
        let bt = Tensor::from_vec(Shape::d2(3, 4), b).unwrap();
        assert_eq!(c, matmul(&at, &bt).unwrap().data());
    }

    #[test]
    fn matmul_small_known_result() {
        let a = Tensor::from_vec(Shape::d2(2, 3), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(Shape::d2(3, 2), vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), &Shape::d2(2, 2));
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(Shape::d2(2, 3));
        let b = Tensor::zeros(Shape::d2(4, 2));
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::InnerDimMismatch { .. })
        ));
        let v = Tensor::zeros(Shape::d1(3));
        assert!(matches!(
            matmul(&v, &b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn pad2d_places_values_centrally() {
        let mut x = Tensor::zeros(Shape::nchw(1, 1, 2, 2));
        x.set4(0, 0, 0, 0, 1.0).unwrap();
        x.set4(0, 0, 1, 1, 2.0).unwrap();
        let p = pad2d(&x, 1).unwrap();
        assert_eq!(p.shape(), &Shape::nchw(1, 1, 4, 4));
        assert_eq!(p.get4(0, 0, 1, 1).unwrap(), 1.0);
        assert_eq!(p.get4(0, 0, 2, 2).unwrap(), 2.0);
        assert_eq!(p.get4(0, 0, 0, 0).unwrap(), 0.0);
        // Zero padding is the identity for padding == 0.
        assert_eq!(pad2d(&x, 0).unwrap(), x);
    }

    #[test]
    fn pad2d_rejects_non_4d() {
        let x = Tensor::zeros(Shape::d2(2, 2));
        assert!(pad2d(&x, 1).is_err());
    }
}
