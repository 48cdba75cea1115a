//! Fast, **uninstrumented** quantized winograd execution.
//!
//! The instrumented quantized kernel
//! ([`crate::winograd_conv_quantized_with_scratch`]) issues every primitive
//! multiply and add through an [`wgft_faultsim::Arithmetic`] backend so that
//! soft errors can strike individual operations — which makes it inherently
//! scalar and by far the slowest path in the system. Every *fault-free*
//! evaluation (campaign clean baselines, ABFT range calibration, BER=0 sweep
//! cells) pays that cost for nothing: with no faults to inject, the backend
//! is a pure pass-through.
//!
//! [`PreparedConvQuantizedFast`] is the uninstrumented twin, mirroring the
//! planned `f32` engine ([`crate::PreparedConvF32`]): cached `(t², O, C)`
//! winograd-domain weights, a cache-blocked scatter→GEMM→gather schedule with
//! zero per-tile allocation, lane-per-tile SoA F(2x2) transforms, the blocked
//! [`wgft_tensor::gemm_i32`] microkernel (`i32` operands, `i64` accumulators)
//! and rayon batch chunking.
//!
//! # Bit-identity guarantee
//!
//! Integer arithmetic is exact and associative, so the fast path computes
//! **bit-identical** `i64` accumulators to the instrumented kernel running on
//! [`wgft_faultsim::ExactArithmetic`] — for every block size, batch chunking
//! and thread count — provided no intermediate overflows. Inputs bounded by
//! the per-variant [`WinogradVariant::max_fast_input`] (far above any
//! quantized storage width for every tile size) keep the `i32` winograd
//! domain exact; the bound is checked by a debug assertion. This is the
//! property that lets fault-free campaign work route onto this engine
//! without perturbing a single journaled result.

use crate::conv_standard::ConvShape;
use crate::conv_winograd::WinogradWeights;
use crate::plan::{
    store_output_tile, WinogradPlan, BLOCK_BUDGET, MAX_TILE, PAR_GEMM_MIN_BLOCK, SOA_GROUP,
};
use crate::WinogradError;
use std::sync::Arc;
use wgft_tensor::gemm_i32;

/// Largest input magnitude the fast engine's `i32` winograd domain is exact
/// for on the classic small tiles: F(4x4,3x3) row coefficient sums reach 10,
/// so a two-sided transform scales magnitudes by at most 100 — `2²⁴ · 100 <
/// 2³¹`. The engine itself enforces the tighter per-variant
/// [`crate::WinogradVariant::max_fast_input`] (F(6x6)'s scaled transforms
/// amplify by 5184); quantized activations are bounded by the storage width
/// (`< 2¹⁶`), leaving ample headroom for every tile size.
pub const MAX_FAST_INPUT: i32 = 1 << 24;

/// Minimum `O·C·bp` MACs per winograd-coordinate GEMM before one block's t²
/// GEMMs fan out across the rayon pool. Measured on a shared 2-CPU x86-64
/// box (AVX-512): that fan-out spawns workers once per block, and it lost to
/// the serial GEMMs at 2.6·10⁵ MACs and below and won from 5.2·10⁵. Whole
/// image chunks fan out once per call and pay off sooner; they use
/// [`PAR_GEMM_MIN_BLOCK`].
const PAR_GEMM_BLOCK_MIN_MACS: usize = 1 << 19;

/// Fault-free value maxima observed during one
/// [`PreparedConvQuantizedFast::execute_into_recording`] call — exactly the
/// winograd-stage quantities the executable ABFT range calibration records
/// (`wgft_abft::LayerRanges::v_max` / `gemm_max`); output-accumulator maxima
/// are the caller's to take from the output buffer.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QuantizedRangeRecord {
    /// Max |value| of winograd-domain transformed inputs (`V = Bᵀ d B`).
    pub v_max: i64,
    /// Max |value| of winograd-domain GEMM products (before `Aᵀ M A`).
    pub gemm_max: i64,
}

impl QuantizedRangeRecord {
    /// Fresh record with zero maxima.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

/// A planned, uninstrumented quantized winograd convolution with cached
/// repacked weights and owned scratch buffers.
///
/// Prepare once per layer, execute once per image (or batch):
///
/// ```
/// use wgft_tensor::ConvGeometry;
/// use wgft_winograd::{
///     ConvShape, PreparedConvQuantizedFast, WinogradWeights, F2X2_3X3,
/// };
///
/// # fn main() -> Result<(), wgft_winograd::WinogradError> {
/// let shape = ConvShape::new(2, 3, ConvGeometry::square(8, 3, 1, 1));
/// let weights = WinogradWeights::new(F2X2_3X3, 3, 2, vec![1; 3 * 2 * 16])?;
/// let mut prepared = PreparedConvQuantizedFast::new(&weights, &shape)?;
/// let input = vec![7i32; shape.input_len()];
/// let output = prepared.execute(&input)?;
/// assert_eq!(output.len(), shape.output_len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PreparedConvQuantizedFast {
    plan: WinogradPlan,
    /// Winograd-domain weights repacked `(t², O, C)`: one `(O×C)` GEMM
    /// operand per winograd coordinate. Shared between clones (`Arc`), so a
    /// per-worker clone of a prepared plan costs scratch buffers only — not
    /// a copy of every layer's weights.
    u: Arc<Vec<i32>>,
    /// Cache-budget tile count per scatter→GEMM→gather block (see
    /// [`crate::PreparedConvF32`]).
    block_budget: usize,
    /// Scatter buffer for one block, `(t², C, block)`; grown on demand.
    v: Vec<i32>,
    /// GEMM product buffer for one block, `(t², O, block)`; grown on demand.
    prod: Vec<i64>,
    /// Number of times the batched entry point has run (silent-fallback
    /// guard, mirroring the f32 engine).
    batched_executions: u64,
}

impl PreparedConvQuantizedFast {
    /// Repack pre-quantized winograd-domain weights for the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::UnsupportedGeometry`] for non-3x3/strided
    /// layers and [`WinogradError::BufferSizeMismatch`] if the weights
    /// disagree with the shape's channel counts.
    pub fn new(weights: &WinogradWeights, shape: &ConvShape) -> Result<Self, WinogradError> {
        let plan = WinogradPlan::new(shape, weights.variant())?;
        if weights.out_channels() != shape.out_channels
            || weights.in_channels() != shape.in_channels
        {
            return Err(WinogradError::BufferSizeMismatch {
                what: "winograd weight",
                expected: shape.out_channels * shape.in_channels,
                actual: weights.out_channels() * weights.in_channels(),
            });
        }
        let (o, c) = (shape.out_channels, shape.in_channels);
        let t = weights.variant().input_tile();
        let t2 = t * t;
        // (O, C, t²) -> (t², O, C)
        let data = weights.data();
        let mut u = vec![0i32; t2 * o * c];
        for oc in 0..o {
            for ic in 0..c {
                let src = &data[(oc * c + ic) * t2..(oc * c + ic + 1) * t2];
                for (k, &value) in src.iter().enumerate() {
                    u[(k * o + oc) * c + ic] = value;
                }
            }
        }
        let p = plan.num_tiles();
        let block_budget = (BLOCK_BUDGET / (t2 * c.max(o)).max(1)).max(8);
        let block = block_budget.min(p.max(8));
        Ok(Self {
            plan,
            u: Arc::new(u),
            block_budget,
            v: vec![0; t2 * c * block],
            prod: vec![0; t2 * o * block],
            batched_executions: 0,
        })
    }

    /// The plan geometry.
    #[must_use]
    pub fn plan(&self) -> &WinogradPlan {
        &self.plan
    }

    /// The repacked `(t², O, C)` winograd-domain weights.
    #[must_use]
    pub fn transformed_weights(&self) -> &[i32] {
        &self.u
    }

    /// How many times the batched entry point has run.
    #[must_use]
    pub fn batched_executions(&self) -> u64 {
        self.batched_executions
    }

    /// Execute the convolution into a freshly allocated wide-accumulator
    /// buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input length.
    pub fn execute(&mut self, input: &[i32]) -> Result<Vec<i64>, WinogradError> {
        let mut output = vec![0i64; self.plan.shape().output_len()];
        self.execute_into(input, &mut output)?;
        Ok(output)
    }

    /// Execute the convolution into a caller-provided accumulator buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input or
    /// output length.
    pub fn execute_into(&mut self, input: &[i32], output: &mut [i64]) -> Result<(), WinogradError> {
        self.validate_batch(input, 1, output)?;
        self.execute_batch_chunked(input, 1, output, 1, None);
        Ok(())
    }

    /// [`PreparedConvQuantizedFast::execute_into`] that additionally folds
    /// the fault-free winograd-stage value maxima into `record` — the fast
    /// twin of the instrumented ABFT calibration pass. Runs the serial
    /// single-chunk schedule; the output accumulators are bit-identical to
    /// the unrecorded execution.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input or
    /// output length.
    pub fn execute_into_recording(
        &mut self,
        input: &[i32],
        output: &mut [i64],
        record: &mut QuantizedRangeRecord,
    ) -> Result<(), WinogradError> {
        self.validate_batch(input, 1, output)?;
        self.execute_batch_chunked(input, 1, output, 1, Some(record));
        Ok(())
    }

    /// Execute the convolution on a batch of `n_images` images into a
    /// freshly allocated `(N, O, H', W')` accumulator buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input length.
    pub fn execute_batch(
        &mut self,
        input: &[i32],
        n_images: usize,
    ) -> Result<Vec<i64>, WinogradError> {
        let mut output = vec![0i64; n_images * self.plan.shape().output_len()];
        self.execute_batch_into(input, n_images, &mut output)?;
        Ok(output)
    }

    /// Execute the convolution on `n_images` contiguous `(N, C, H, W)`
    /// images, writing `(N, O, H', W')` accumulators to `output`.
    ///
    /// All `N·P` tiles share the scatter→GEMM→gather schedule (tile blocks
    /// span image boundaries); with a multi-thread rayon pool and enough work
    /// per chunk the batch splits into image-aligned chunks with worker-local
    /// scratch. Because the kernel is exact integer arithmetic, results are
    /// bit-identical to `n_images` single-image executions for every chunking
    /// and thread count.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input or
    /// output length.
    pub fn execute_batch_into(
        &mut self,
        input: &[i32],
        n_images: usize,
        output: &mut [i64],
    ) -> Result<(), WinogradError> {
        self.validate_batch(input, n_images, output)?;
        self.batched_executions += 1;
        if n_images == 0 {
            return Ok(());
        }
        let chunk = self.images_per_chunk(n_images);
        self.execute_batch_chunked(input, n_images, output, chunk, None);
        Ok(())
    }

    /// Images per parallel chunk of an `n_images` batch. The batch splits
    /// across the pool only when every chunk's per-coordinate GEMM
    /// (`O·C·tiles` MACs) clears [`PAR_GEMM_MIN_BLOCK`]: below it, spawning a
    /// worker per chunk costs more than the chunk's work, so small batches
    /// of small images run serially (on the box [`PAR_GEMM_BLOCK_MIN_MACS`]
    /// was measured on, chunk fan-out won from that bar up). Returns
    /// `n_images` for the serial schedule.
    fn images_per_chunk(&self, n_images: usize) -> usize {
        let shape = self.plan.shape();
        let macs_per_image =
            (shape.out_channels * shape.in_channels * self.plan.num_tiles()).max(1);
        let min_chunk = PAR_GEMM_MIN_BLOCK.div_ceil(macs_per_image);
        // The work-size test first: it is free, the thread count is not.
        if 2 * min_chunk > n_images {
            return n_images;
        }
        n_images
            .div_ceil(rayon::current_num_threads())
            .max(min_chunk)
    }

    fn validate_batch(
        &self,
        input: &[i32],
        n_images: usize,
        output: &[i64],
    ) -> Result<(), WinogradError> {
        let shape = self.plan.shape();
        if input.len() != n_images * shape.input_len() {
            return Err(WinogradError::BufferSizeMismatch {
                what: "input",
                expected: n_images * shape.input_len(),
                actual: input.len(),
            });
        }
        if output.len() != n_images * shape.output_len() {
            return Err(WinogradError::BufferSizeMismatch {
                what: "output",
                expected: n_images * shape.output_len(),
                actual: output.len(),
            });
        }
        debug_assert!(
            {
                let bound = self.plan.variant().max_fast_input();
                input.iter().all(|&x| x.abs() <= bound)
            },
            "fast quantized winograd input exceeds the exact i32 winograd domain"
        );
        Ok(())
    }

    /// Effective tiles-per-block for a range holding `total_tiles`.
    fn block_for(&self, total_tiles: usize) -> usize {
        self.block_budget.min(total_tiles.max(1))
    }

    /// Run the batch split into chunks of `images_per_chunk` images (the
    /// same schedule as [`crate::PreparedConvF32`]).
    fn execute_batch_chunked(
        &mut self,
        input: &[i32],
        n_images: usize,
        output: &mut [i64],
        images_per_chunk: usize,
        record: Option<&mut QuantizedRangeRecord>,
    ) {
        let shape = *self.plan.shape();
        let (in_len, out_len) = (shape.input_len(), shape.output_len());
        let (o, c) = (shape.out_channels, shape.in_channels);
        let t2 = self.plan.variant().input_tile() * self.plan.variant().input_tile();
        let images_per_chunk = images_per_chunk.clamp(1, n_images.max(1));
        if images_per_chunk >= n_images || in_len == 0 || out_len == 0 {
            let bp = self.block_for(n_images * self.plan.num_tiles());
            grow(&mut self.v, t2 * c * bp);
            grow(&mut self.prod, t2 * o * bp);
            // The work-size test first: it is free, the thread count is not.
            let parallel_gemms = o * c * bp >= PAR_GEMM_BLOCK_MIN_MACS
                && record.is_none()
                && rayon::current_num_threads() > 1;
            run_images_q(
                &self.plan,
                &self.u,
                bp,
                &mut self.v,
                &mut self.prod,
                input,
                n_images,
                output,
                parallel_gemms,
                record,
            );
            return;
        }
        debug_assert!(record.is_none(), "recording runs the serial schedule");
        use rayon::prelude::*;
        let plan = &self.plan;
        let u = &self.u;
        let bp = self.block_for(images_per_chunk * plan.num_tiles());
        let jobs: Vec<(&[i32], &mut [i64])> = input
            .chunks(images_per_chunk * in_len)
            .zip(output.chunks_mut(images_per_chunk * out_len))
            .collect();
        jobs.into_par_iter()
            .map(|(in_chunk, out_chunk)| {
                let images = in_chunk.len() / in_len.max(1);
                let mut v = vec![0i32; t2 * c * bp];
                let mut prod = vec![0i64; t2 * o * bp];
                run_images_q(
                    plan, u, bp, &mut v, &mut prod, in_chunk, images, out_chunk, false, None,
                );
            })
            .collect::<Vec<()>>();
    }
}

fn grow<T: Copy + Default>(buf: &mut Vec<T>, len: usize) {
    if buf.len() < len {
        buf.resize(len, T::default());
    }
}

/// Scatter→GEMM→gather over all `n_images · P` tiles of a contiguous image
/// range — the integer twin of the f32 engine's block loop. `block` bounds
/// the tiles per buffer fill; `v` and `prod` must hold `t²·C·block` and
/// `t²·O·block` elements.
#[allow(clippy::too_many_arguments)]
fn run_images_q(
    plan: &WinogradPlan,
    u: &[i32],
    block: usize,
    v: &mut [i32],
    prod: &mut [i64],
    input: &[i32],
    n_images: usize,
    output: &mut [i64],
    parallel_gemms: bool,
    mut record: Option<&mut QuantizedRangeRecord>,
) {
    let shape = *plan.shape();
    let (o, c) = (shape.out_channels, shape.in_channels);
    let (in_len, out_len) = (shape.input_len(), shape.output_len());
    let variant = plan.variant();
    let t2 = variant.input_tile() * variant.input_tile();
    let total_tiles = n_images * plan.num_tiles();
    let bt = variant.bt();
    let at = variant.at();
    let mut soa = SoaScratch::new();

    let mut block_start = 0usize;
    while block_start < total_tiles {
        let bp = block.min(total_tiles - block_start);

        // ---- Scatter: V[k][ic][b] = (Bᵀ d B)[k] for every tile/channel of
        // the block. Tiles run in lane-per-tile groups of up to SOA_GROUP
        // (i32 adds and mul-adds, exact under the input bound), each group
        // writing its tiles contiguously into the t² destination rows; a
        // ragged last group masks its unused lanes.
        for b in (0..bp).step_by(SOA_GROUP) {
            let lanes = SOA_GROUP.min(bp - b);
            let tiles = group_tiles(plan, block_start + b, lanes);
            for ic in 0..c {
                scatter_group_q(
                    plan,
                    input,
                    in_len,
                    &tiles[..lanes],
                    ic,
                    v,
                    c,
                    bp,
                    b,
                    bt,
                    &mut soa,
                );
            }
        }
        if let Some(record) = record.as_deref_mut() {
            let block_max = v[..t2 * c * bp]
                .iter()
                .map(|&x| i64::from(x).abs())
                .max()
                .unwrap_or(0);
            record.v_max = record.v_max.max(block_max);
        }

        // ---- Batched integer GEMM: one (O×C)·(C×bp) multiply per winograd
        // coordinate; `i64` accumulators exactly as the instrumented kernel
        // produces. In parallel mode the t² independent GEMMs fan out across
        // the pool (disjoint `prod` chunks).
        if parallel_gemms {
            debug_assert!(record.is_none(), "recording is always serial");
            use rayon::prelude::*;
            let v_ro: &[i32] = v;
            let jobs: Vec<(usize, &mut [i64])> =
                prod[..t2 * o * bp].chunks_mut(o * bp).enumerate().collect();
            jobs.into_par_iter()
                .map(|(k, prod_k)| {
                    gemm_i32(
                        &u[k * o * c..(k + 1) * o * c],
                        &v_ro[k * c * bp..(k + 1) * c * bp],
                        prod_k,
                        o,
                        c,
                        bp,
                    );
                })
                .collect::<Vec<()>>();
        } else {
            for k in 0..t2 {
                gemm_i32(
                    &u[k * o * c..(k + 1) * o * c],
                    &v[k * c * bp..(k + 1) * c * bp],
                    &mut prod[k * o * bp..(k + 1) * o * bp],
                    o,
                    c,
                    bp,
                );
            }
        }
        if let Some(record) = record.as_deref_mut() {
            let block_max = prod[..t2 * o * bp]
                .iter()
                .map(|&x| x.unsigned_abs().min(i64::MAX as u64) as i64)
                .max()
                .unwrap_or(0);
            record.gemm_max = record.gemm_max.max(block_max);
        }

        // ---- Gather: inverse-transform each (oc, tile) fibre, tile
        // innermost, in masked lane-per-tile groups like the scatter.
        for b in (0..bp).step_by(SOA_GROUP) {
            let lanes = SOA_GROUP.min(bp - b);
            let tiles = group_tiles(plan, block_start + b, lanes);
            for oc in 0..o {
                gather_group_q(
                    plan,
                    prod,
                    o,
                    bp,
                    oc,
                    b,
                    &tiles[..lanes],
                    out_len,
                    output,
                    at,
                    &mut soa,
                );
            }
        }

        block_start += bp;
    }
}

/// `out (rows×cols) = coef (rows×inner) · data (inner×cols)` on plain
/// integer arithmetic — the uninstrumented twin of
/// [`crate::integer_transform`] with [`crate::MatrixSide::Left`]; exact
/// integer sums, so the results are identical. The per-tile reference the
/// lane-per-tile transforms are tested against.
#[cfg(test)]
fn int_mat_mul_left(
    coef: &[i32],
    data: &[i64],
    out: &mut [i64],
    rows: usize,
    inner: usize,
    cols: usize,
) {
    for i in 0..rows {
        for j in 0..cols {
            let mut acc = 0i64;
            for k in 0..inner {
                acc += i64::from(coef[i * inner + k]) * data[k * cols + j];
            }
            out[i * cols + j] = acc;
        }
    }
}

/// `out (rows×cols) = data (rows×inner) · coefᵀ` with `coef (cols×inner)` —
/// the uninstrumented twin of [`crate::integer_transform`] with
/// [`crate::MatrixSide::RightTransposed`].
#[cfg(test)]
fn int_mat_mul_rt(
    coef: &[i32],
    data: &[i64],
    out: &mut [i64],
    rows: usize,
    inner: usize,
    cols: usize,
) {
    for i in 0..rows {
        for j in 0..cols {
            let mut acc = 0i64;
            for k in 0..inner {
                acc += data[i * inner + k] * i64::from(coef[j * inner + k]);
            }
            out[i * cols + j] = acc;
        }
    }
}

/// Lane-wise `acc += coef · src` in `i32`, specialized on the coefficient:
/// transform matrices are dominated by 0/±1 entries, so most terms are a
/// skipped column, a vector add or a vector subtract. Integer arithmetic is
/// exact, so this is bit-identical to a per-tile i64 transform under the
/// [`WinogradVariant::max_fast_input`] bound (which keeps every intermediate
/// in i32 range).
#[inline]
fn lane_axpy_i32(acc: &mut [i32; SOA_GROUP], coef: i32, src: &[i32; SOA_GROUP]) {
    match coef {
        0 => {}
        1 => {
            for (a, &s) in acc.iter_mut().zip(src.iter()) {
                *a += s;
            }
        }
        -1 => {
            for (a, &s) in acc.iter_mut().zip(src.iter()) {
                *a -= s;
            }
        }
        _ => {
            for (a, &s) in acc.iter_mut().zip(src.iter()) {
                *a += coef * s;
            }
        }
    }
}

/// Lane-wise `acc += coef · src` in `i64` for the gather side.
#[inline]
fn lane_axpy_i64(acc: &mut [i64; SOA_GROUP], coef: i64, src: &[i64; SOA_GROUP]) {
    match coef {
        0 => {}
        1 => {
            for (a, &s) in acc.iter_mut().zip(src.iter()) {
                *a += s;
            }
        }
        -1 => {
            for (a, &s) in acc.iter_mut().zip(src.iter()) {
                *a -= s;
            }
        }
        _ => {
            for (a, &s) in acc.iter_mut().zip(src.iter()) {
                *a += coef * s;
            }
        }
    }
}

/// Where one tile of a block sits: its image in the batch and its row and
/// column in the tile grid.
#[derive(Debug, Clone, Copy, Default)]
struct TilePos {
    image: usize,
    ty: usize,
    tx: usize,
}

/// Positions of the `lanes` consecutive tiles from block-global tile `g0`
/// (tiles run row-major through each image, then on to the next image),
/// found once per group rather than by division per tile and channel.
fn group_tiles(plan: &WinogradPlan, g0: usize, lanes: usize) -> [TilePos; SOA_GROUP] {
    let p = plan.num_tiles();
    let tiles_x = plan.tiles_x();
    let mut tiles = [TilePos::default(); SOA_GROUP];
    let mut pos = TilePos {
        image: g0 / p,
        ty: (g0 % p) / tiles_x,
        tx: (g0 % p) % tiles_x,
    };
    for slot in &mut tiles[..lanes] {
        *slot = pos;
        pos.tx += 1;
        if pos.tx == tiles_x {
            pos.tx = 0;
            pos.ty += 1;
            if pos.ty * tiles_x == p {
                pos.ty = 0;
                pos.image += 1;
            }
        }
    }
    tiles
}

/// Lane-per-tile rows of the scatter and gather transforms, one row per
/// tile position. Built once per [`run_images_q`] call rather than zeroed
/// per group: every group writes each row it reads, and zero-fills the
/// unused lanes of a ragged group.
struct SoaScratch {
    d: [[i32; SOA_GROUP]; MAX_TILE],
    d_tmp: [[i32; SOA_GROUP]; MAX_TILE],
    m: [[i64; SOA_GROUP]; MAX_TILE],
    m_tmp: [[i64; SOA_GROUP]; MAX_TILE],
    y: [[i64; SOA_GROUP]; MAX_TILE],
}

impl SoaScratch {
    fn new() -> Self {
        Self {
            d: [[0; SOA_GROUP]; MAX_TILE],
            d_tmp: [[0; SOA_GROUP]; MAX_TILE],
            m: [[0; SOA_GROUP]; MAX_TILE],
            m_tmp: [[0; SOA_GROUP]; MAX_TILE],
            y: [[0; SOA_GROUP]; MAX_TILE],
        }
    }
}

/// Input transform `Bᵀ d B` for one channel of the (at most [`SOA_GROUP`])
/// `tiles`, lane-per-tile in `i32` at any tile size. Unused lanes are
/// zero-filled and never stored. Integer ops are exact, so the results are
/// bit-identical to a per-tile transform.
#[allow(clippy::too_many_arguments)]
#[inline]
fn scatter_group_q(
    plan: &WinogradPlan,
    input: &[i32],
    in_len: usize,
    tiles: &[TilePos],
    ic: usize,
    v: &mut [i32],
    c: usize,
    bp: usize,
    b0: usize,
    bt: &[i32],
    soa: &mut SoaScratch,
) {
    let lanes = tiles.len();
    let t = plan.variant().input_tile();
    let t2 = t * t;
    let (dsoa, tmp) = (&mut soa.d, &mut soa.d_tmp);
    let mut tile_d = [0i32; MAX_TILE];
    for (gi, tile) in tiles.iter().enumerate() {
        let image_input = &input[tile.image * in_len..(tile.image + 1) * in_len];
        plan.load_tile_at(image_input, tile.ty, tile.tx, ic, &mut tile_d[..t2]);
        for (pos, &value) in tile_d[..t2].iter().enumerate() {
            dsoa[pos][gi] = value;
        }
    }
    for row in &mut dsoa[..t2] {
        row[lanes..].fill(0);
    }
    // tmp = Bᵀ d, lane-wise: tmp[i][j] = Σ_k Bᵀ[i][k] · d[k][j].
    for i in 0..t {
        for j in 0..t {
            let mut acc = [0i32; SOA_GROUP];
            for k in 0..t {
                lane_axpy_i32(&mut acc, bt[i * t + k], &dsoa[k * t + j]);
            }
            tmp[i * t + j] = acc;
        }
    }
    // v_rows = tmp B (B = Bᵀᵀ), lane-wise, stored straight into the scatter
    // buffer: out[i][j] = Σ_k tmp[i][k] · Bᵀ[j][k].
    for i in 0..t {
        for j in 0..t {
            let mut acc = [0i32; SOA_GROUP];
            for k in 0..t {
                lane_axpy_i32(&mut acc, bt[j * t + k], &tmp[i * t + k]);
            }
            v[((i * t + j) * c + ic) * bp + b0..][..lanes].copy_from_slice(&acc[..lanes]);
        }
    }
}

/// Output transform `Aᵀ m A` for one output channel of the (at most
/// [`SOA_GROUP`]) `tiles`, lane-per-tile in `i64` at any tile size. Unused
/// lanes are zero-filled and never stored.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gather_group_q(
    plan: &WinogradPlan,
    prod: &[i64],
    o: usize,
    bp: usize,
    oc: usize,
    b0: usize,
    tiles: &[TilePos],
    out_len: usize,
    output: &mut [i64],
    at: &[i32],
    soa: &mut SoaScratch,
) {
    let lanes = tiles.len();
    let g = plan.shape().geometry;
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let t = plan.variant().input_tile();
    let m = plan.variant().output_tile();
    let t2 = t * t;
    let (msoa, tmp, ysoa) = (&mut soa.m, &mut soa.m_tmp, &mut soa.y);
    for (k, row) in msoa[..t2].iter_mut().enumerate() {
        row[..lanes].copy_from_slice(&prod[(k * o + oc) * bp + b0..][..lanes]);
        row[lanes..].fill(0);
    }
    // tmp = Aᵀ m (m×t rows), lane-wise.
    for i in 0..m {
        for j in 0..t {
            let mut acc = [0i64; SOA_GROUP];
            for k in 0..t {
                lane_axpy_i64(&mut acc, i64::from(at[i * t + k]), &msoa[k * t + j]);
            }
            tmp[i * t + j] = acc;
        }
    }
    // y = tmp A (m×m), lane-wise.
    for i in 0..m {
        for j in 0..m {
            let mut acc = [0i64; SOA_GROUP];
            for k in 0..t {
                lane_axpy_i64(&mut acc, i64::from(at[j * t + k]), &tmp[i * t + k]);
            }
            ysoa[i * m + j] = acc;
        }
    }
    let mut tile_y = [0i64; MAX_TILE];
    for (gi, tile) in tiles.iter().enumerate() {
        for (pos, value) in tile_y[..m * m].iter_mut().enumerate() {
            *value = ysoa[pos][gi];
        }
        store_output_tile(
            output,
            tile.image * out_len,
            &tile_y[..m * m],
            oc,
            tile.ty,
            tile.tx,
            m,
            out_h,
            out_w,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_winograd::winograd_conv_quantized;
    use crate::transform::{WinogradVariant, F2X2_3X3, F4X4_3X3, F6X6_3X3};
    use wgft_faultsim::ExactArithmetic;
    use wgft_tensor::ConvGeometry;

    fn weights_for(variant: WinogradVariant, o: usize, c: usize) -> WinogradWeights {
        let t2 = variant.input_tile() * variant.input_tile();
        let data: Vec<i32> = (0..o * c * t2)
            .map(|i| ((i * 13 % 29) as i32) - 14)
            .collect();
        WinogradWeights::new(variant, o, c, data).unwrap()
    }

    fn input_for(shape: &ConvShape, salt: usize) -> Vec<i32> {
        (0..shape.input_len())
            .map(|i| (((i * 7 + salt * 31) % 47) as i32) - 23)
            .collect()
    }

    /// The tentpole guarantee: the fast engine is bit-identical to the
    /// instrumented kernel on exact arithmetic, over the full shape grid —
    /// channels, odd spatial sizes, non-tile-multiple outputs, padding, both
    /// variants.
    #[test]
    fn fast_path_is_bit_identical_to_instrumented_across_shape_grid() {
        for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
            for &(in_c, out_c) in &[(1usize, 1usize), (2, 3), (3, 2), (4, 4)] {
                for &size in &[4usize, 5, 6, 7, 9, 12] {
                    for &pad in &[0usize, 1] {
                        let shape =
                            ConvShape::new(in_c, out_c, ConvGeometry::square(size, 3, 1, pad));
                        if shape.geometry.out_h() == 0 {
                            continue;
                        }
                        let weights = weights_for(variant, out_c, in_c);
                        let input = input_for(&shape, size + pad);
                        let mut exact = ExactArithmetic::new();
                        let reference =
                            winograd_conv_quantized(&mut exact, 0, &input, &weights, &shape)
                                .unwrap();
                        let mut fast = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
                        let out = fast.execute(&input).unwrap();
                        assert_eq!(
                            reference, out,
                            "{variant} c{in_c}->{out_c} s{size} p{pad}: fast path diverged"
                        );
                        // Scratch reuse across images must not leak state.
                        let again = fast.execute(&input).unwrap();
                        assert_eq!(out, again);
                    }
                }
            }
        }
    }

    /// Every tiles-per-block count from one to past two full SoA groups —
    /// so full groups, masked ragged groups and both together — must match
    /// the instrumented kernel on exact arithmetic: one image with that many
    /// tiles in a row, and a batch of that many one-tile images.
    #[test]
    fn every_tiles_per_block_count_matches_instrumented() {
        let (in_c, out_c) = (2usize, 3usize);
        for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
            let m = variant.output_tile();
            let weights = weights_for(variant, out_c, in_c);
            for tiles in 1..=2 * SOA_GROUP + 1 {
                // One tile: an m×m output (same-padded, so input = output).
                let single = ConvGeometry::square(m, 3, 1, 1);
                // A row of `tiles` tiles whose last one is ragged, so border
                // stores are covered too.
                let row = ConvGeometry {
                    in_w: tiles * m - 1,
                    ..single
                };
                for (geometry, n) in [(row, 1usize), (single, tiles)] {
                    let shape = ConvShape::new(in_c, out_c, geometry);
                    let mut fast = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
                    assert_eq!(fast.plan().num_tiles() * n, tiles);
                    let batch: Vec<i32> = (0..n).flat_map(|img| input_for(&shape, img)).collect();
                    let out = fast.execute_batch(&batch, n).unwrap();
                    for img in 0..n {
                        let input = &batch[img * shape.input_len()..][..shape.input_len()];
                        let reference = winograd_conv_quantized(
                            &mut ExactArithmetic::new(),
                            0,
                            input,
                            &weights,
                            &shape,
                        )
                        .unwrap();
                        assert_eq!(
                            reference,
                            &out[img * shape.output_len()..][..shape.output_len()],
                            "{variant} {tiles} tiles, {n} image(s), image {img}"
                        );
                    }
                }
            }
        }
    }

    /// Batched execution must be bit-identical to per-image execution,
    /// including ragged sizes where tile blocks straddle image boundaries.
    #[test]
    fn batched_execution_matches_per_image_bit_for_bit() {
        for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
            for &(in_c, out_c) in &[(1usize, 1usize), (2, 3)] {
                for &size in &[5usize, 9] {
                    let shape = ConvShape::new(in_c, out_c, ConvGeometry::square(size, 3, 1, 1));
                    let weights = weights_for(variant, out_c, in_c);
                    for n in [1usize, 2, 3, 5] {
                        let batch: Vec<i32> =
                            (0..n).flat_map(|img| input_for(&shape, img)).collect();
                        let mut prepared =
                            PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
                        let batched = prepared.execute_batch(&batch, n).unwrap();
                        let mut single = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
                        for img in 0..n {
                            let out = single
                                .execute(&batch[img * shape.input_len()..][..shape.input_len()])
                                .unwrap();
                            assert_eq!(
                                out,
                                &batched[img * shape.output_len()..][..shape.output_len()],
                                "{variant} c{in_c}->{out_c} s{size} n{n} image {img}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Every image-chunking of a batch — including ragged tail chunks — must
    /// produce identical accumulators, since chunking is exactly what the
    /// parallel path does.
    #[test]
    fn batch_chunking_is_bit_identical_for_every_chunk_size() {
        let shape = ConvShape::new(2, 3, ConvGeometry::square(9, 3, 1, 1));
        let weights = weights_for(F2X2_3X3, 3, 2);
        let n = 5usize;
        let batch: Vec<i32> = (0..n).flat_map(|img| input_for(&shape, img)).collect();
        let mut reference = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
        let expected = reference.execute_batch(&batch, n).unwrap();
        for chunk in 1..=n + 1 {
            let mut prepared = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
            let mut out = vec![i64::MIN; n * shape.output_len()];
            prepared.execute_batch_chunked(&batch, n, &mut out, chunk, None);
            assert_eq!(expected, out, "chunk size {chunk}");
        }
    }

    /// The range recorder must observe exactly the maxima of the
    /// winograd-domain values the instrumented ABFT calibration observes —
    /// recomputed here with an independent naive reference.
    #[test]
    fn recording_observes_the_naive_winograd_stage_maxima() {
        for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
            let shape = ConvShape::new(2, 3, ConvGeometry::square(7, 3, 1, 1));
            let weights = weights_for(variant, 3, 2);
            let input = input_for(&shape, 3);
            let mut fast = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
            let mut output = vec![0i64; shape.output_len()];
            let mut record = QuantizedRangeRecord::new();
            fast.execute_into_recording(&input, &mut output, &mut record)
                .unwrap();
            // Recording must not perturb the accumulators.
            let plain = fast.execute(&input).unwrap();
            assert_eq!(plain, output);

            // Naive reference maxima: transform every tile/channel.
            let t = variant.input_tile();
            let t2 = t * t;
            let m = variant.output_tile();
            let plan = WinogradPlan::new(&shape, variant).unwrap();
            let (mut v_max, mut gemm_max) = (0i64, 0i64);
            let mut v_tiles = vec![0i64; shape.in_channels * t2];
            for tile in 0..plan.num_tiles() {
                for ic in 0..shape.in_channels {
                    let mut d = vec![0i32; t2];
                    plan.load_tile(&input, tile, ic, &mut d);
                    let d64: Vec<i64> = d.iter().map(|&x| i64::from(x)).collect();
                    let mut tmp = vec![0i64; t2];
                    let mut vt = vec![0i64; t2];
                    int_mat_mul_left(variant.bt(), &d64, &mut tmp, t, t, t);
                    int_mat_mul_rt(variant.bt(), &tmp, &mut vt, t, t, t);
                    for (k, &value) in vt.iter().enumerate() {
                        v_max = v_max.max(value.abs());
                        v_tiles[ic * t2 + k] = value;
                    }
                }
                for oc in 0..shape.out_channels {
                    for k in 0..t2 {
                        let mut acc = 0i64;
                        for ic in 0..shape.in_channels {
                            let w = weights.data()[(oc * shape.in_channels + ic) * t2 + k];
                            acc += i64::from(w) * v_tiles[ic * t2 + k];
                        }
                        gemm_max = gemm_max.max(acc.abs());
                    }
                }
            }
            assert!(m <= t);
            assert_eq!(record.v_max, v_max, "{variant}: v_max");
            assert_eq!(record.gemm_max, gemm_max, "{variant}: gemm_max");
        }
    }

    #[test]
    fn constructor_validates_channel_mismatch_and_geometry() {
        let shape = ConvShape::new(2, 3, ConvGeometry::square(4, 3, 1, 1));
        let wrong = weights_for(F2X2_3X3, 1, 1);
        assert!(PreparedConvQuantizedFast::new(&wrong, &shape).is_err());
        let strided = ConvShape::new(2, 3, ConvGeometry::square(8, 3, 2, 1));
        let weights = weights_for(F2X2_3X3, 3, 2);
        assert!(PreparedConvQuantizedFast::new(&weights, &strided).is_err());
    }

    #[test]
    fn validates_buffer_lengths_and_counts_batches() {
        let shape = ConvShape::new(1, 2, ConvGeometry::square(5, 3, 1, 1));
        let weights = weights_for(F2X2_3X3, 2, 1);
        let mut prepared = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
        let input = input_for(&shape, 0);
        assert!(prepared.execute(&input[..input.len() - 1]).is_err());
        let mut short = vec![0i64; shape.output_len() - 1];
        assert!(prepared.execute_into(&input, &mut short).is_err());
        assert_eq!(prepared.batched_executions(), 0);
        let batch: Vec<i32> = (0..2).flat_map(|img| input_for(&shape, img)).collect();
        assert!(prepared.execute_batch(&batch, 3).is_err());
        let _ = prepared.execute_batch(&batch, 2).unwrap();
        assert_eq!(prepared.batched_executions(), 1);
        // Zero images is a no-op, not an error.
        assert!(prepared.execute_batch(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn repacked_weight_layout_is_coordinate_major() {
        let shape = ConvShape::new(2, 3, ConvGeometry::square(4, 3, 1, 1));
        let weights = weights_for(F2X2_3X3, 3, 2);
        let prepared = PreparedConvQuantizedFast::new(&weights, &shape).unwrap();
        let t2 = 16;
        for k in 0..t2 {
            for oc in 0..3 {
                for ic in 0..2 {
                    assert_eq!(
                        prepared.transformed_weights()[(k * 3 + oc) * 2 + ic],
                        weights.data()[(oc * 2 + ic) * t2 + k]
                    );
                }
            }
        }
    }
}
