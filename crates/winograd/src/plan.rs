//! Planned winograd execution: cached transforms, scatter–GEMM–gather
//! scheduling and reusable scratch buffers.
//!
//! The naive kernels in [`crate::conv_winograd`] re-derive the filter
//! transform `U = G g Gᵀ` on every call and walk the image tile by tile,
//! which is fine for correctness tests but far too slow for fault-injection
//! campaigns that run thousands of inferences. The planned path splits the
//! work the way production winograd implementations (cuDNN, oneDNN, NNPACK)
//! do:
//!
//! 1. **Prepare** (once per layer): validate the geometry, transform the
//!    weights and repack them as a `(t², O, C)` tensor;
//! 2. **Scatter** (per image): transform all `P` input tiles into a
//!    `(t², C, P)` tensor;
//! 3. **GEMM**: `t²` independent `(O×C)·(C×P)` matrix multiplies — the only
//!    O(C·O·P) work, done by [`wgft_tensor::gemm_f32`];
//! 4. **Gather**: inverse-transform each `(t², 1, 1)` fibre back to an
//!    `m×m` output tile.
//!
//! No step allocates inside its per-tile loop; all scratch lives in the
//! prepared object and is reused across calls.

use crate::conv_standard::ConvShape;
use crate::conv_winograd::transform_weights_f32;
use crate::transform::{mat_mul_into, mat_mul_rt_into, WinogradVariant};
use crate::WinogradError;
use wgft_tensor::{gemm_f32, gemm_f32_det};

/// Tile-level execution geometry of one planned winograd convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WinogradPlan {
    shape: ConvShape,
    variant: WinogradVariant,
    tiles_y: usize,
    tiles_x: usize,
}

impl WinogradPlan {
    /// Plan a winograd execution for the given convolution shape.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::UnsupportedGeometry`] unless the layer is a
    /// unit-stride 3x3 convolution.
    pub fn new(shape: &ConvShape, variant: WinogradVariant) -> Result<Self, WinogradError> {
        let g = &shape.geometry;
        if !g.is_unit_stride_3x3() {
            return Err(WinogradError::UnsupportedGeometry {
                kernel: g.k_h,
                stride: g.stride,
            });
        }
        let m = variant.output_tile();
        Ok(Self {
            shape: *shape,
            variant,
            tiles_y: g.out_h().div_ceil(m),
            tiles_x: g.out_w().div_ceil(m),
        })
    }

    /// The convolution shape this plan executes.
    #[must_use]
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The tile variant.
    #[must_use]
    pub fn variant(&self) -> WinogradVariant {
        self.variant
    }

    /// Tile grid rows.
    #[must_use]
    pub fn tiles_y(&self) -> usize {
        self.tiles_y
    }

    /// Tile grid columns.
    #[must_use]
    pub fn tiles_x(&self) -> usize {
        self.tiles_x
    }

    /// Total number of tiles `P` (the GEMM free dimension).
    #[must_use]
    pub fn num_tiles(&self) -> usize {
        self.tiles_y * self.tiles_x
    }

    /// Extract one `t×t` input tile (with zero padding) into `out` — shared
    /// by the f32 engine and the fast uninstrumented quantized engine, so the
    /// border/padding logic cannot desynchronize between them.
    ///
    /// `tile` indexes the row-major tile grid; `channel` selects the input
    /// feature map.
    pub(crate) fn load_tile<T: Copy + Default>(
        &self,
        input: &[T],
        tile: usize,
        channel: usize,
        out: &mut [T],
    ) {
        self.load_tile_at(
            input,
            tile / self.tiles_x,
            tile % self.tiles_x,
            channel,
            out,
        );
    }

    /// [`WinogradPlan::load_tile`] for the tile at grid row `ty`, column
    /// `tx`.
    pub(crate) fn load_tile_at<T: Copy + Default>(
        &self,
        input: &[T],
        ty: usize,
        tx: usize,
        channel: usize,
        out: &mut [T],
    ) {
        let g = &self.shape.geometry;
        let t = self.variant.input_tile();
        let m = self.variant.output_tile();
        let pad = g.padding as isize;
        let base_y = (ty * m) as isize - pad;
        let base_x = (tx * m) as isize - pad;
        let plane = &input[channel * g.in_h * g.in_w..(channel + 1) * g.in_h * g.in_w];
        // Fast path: the tile lies fully inside the image (the overwhelmingly
        // common case away from the border) — plain row copies, no
        // per-element bounds checks.
        if base_y >= 0
            && base_x >= 0
            && base_y as usize + t <= g.in_h
            && base_x as usize + t <= g.in_w
        {
            let (y0, x0) = (base_y as usize, base_x as usize);
            for dy in 0..t {
                let src = &plane[(y0 + dy) * g.in_w + x0..(y0 + dy) * g.in_w + x0 + t];
                out[dy * t..(dy + 1) * t].copy_from_slice(src);
            }
            return;
        }
        for dy in 0..t {
            let iy = base_y + dy as isize;
            let row = &mut out[dy * t..(dy + 1) * t];
            if iy < 0 || iy >= g.in_h as isize {
                row.fill(T::default());
                continue;
            }
            let irow = &plane[(iy as usize) * g.in_w..(iy as usize + 1) * g.in_w];
            for (dx, value) in row.iter_mut().enumerate() {
                let ix = base_x + dx as isize;
                *value = if ix >= 0 && ix < g.in_w as isize {
                    irow[ix as usize]
                } else {
                    T::default()
                };
            }
        }
    }
}

/// A planned floating-point winograd convolution with cached transformed
/// weights and owned scratch buffers.
///
/// Prepare once per layer, execute once per image:
///
/// ```
/// use wgft_tensor::ConvGeometry;
/// use wgft_winograd::{ConvShape, PreparedConvF32, F2X2_3X3};
///
/// # fn main() -> Result<(), wgft_winograd::WinogradError> {
/// let shape = ConvShape::new(2, 4, ConvGeometry::square(8, 3, 1, 1));
/// let weights = vec![0.1f32; shape.weight_len()];
/// let mut prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3)?;
/// let input = vec![1.0f32; shape.input_len()];
/// let output = prepared.execute(&input)?;
/// assert_eq!(output.len(), shape.output_len());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PreparedConvF32 {
    plan: WinogradPlan,
    /// Transformed weights in `(t², O, C)` layout: one `(O×C)` GEMM operand
    /// per winograd-domain coordinate.
    u: Vec<f32>,
    /// `Bᵀ` as f32, `t×t`.
    bt: Vec<f32>,
    /// `Aᵀ` as f32, `m×t`.
    at: Vec<f32>,
    /// Cache-budget tile count per scatter→GEMM→gather block: how many tiles
    /// keep one block's scatter and product buffers cache-resident. The
    /// effective block of a call is this clamped to the tiles actually
    /// available, so batched calls get full blocks where a single small image
    /// would leave a ragged tail.
    block_budget: usize,
    /// Scatter buffer for one block, `(t², C, block)`; grown on demand.
    v: Vec<f32>,
    /// GEMM product buffer for one block, `(t², O, block)`; grown on demand.
    prod: Vec<f32>,
    /// Number of times the batched engine entry point has run (the
    /// silent-fallback guard of the batched inference path checks this).
    batched_executions: u64,
    /// Deterministic-f32 mode: route every winograd-coordinate GEMM through
    /// [`wgft_tensor::gemm_f32_det`] (the strictly ordered naive spec loop)
    /// and keep the whole execution serial. The fast path is asserted
    /// bit-identical to this mode, but only this mode *is* the spec — CI
    /// pins its output bits across codegen flags.
    deterministic: bool,
}

/// Largest per-tile buffer any variant needs (`t² = 64` for F(6x6,3x3)).
pub(crate) const MAX_TILE: usize = 64;

/// Target size (in f32 elements) of the per-block scatter buffer — roughly
/// half a typical L2 so the product buffer fits alongside it.
pub(crate) const BLOCK_BUDGET: usize = 64 * 1024;

/// Minimum `O·C·bp` per GEMM before a block's t² GEMMs fan out across the
/// rayon pool; below this the fork/join costs more than the multiply.
pub(crate) const PAR_GEMM_MIN_BLOCK: usize = 1 << 16;

/// Equality is defined by what the plan *computes* — the geometry and the
/// cached transformed weights — not by whatever a previous `execute` left in
/// the scratch buffers.
impl PartialEq for PreparedConvF32 {
    fn eq(&self, other: &Self) -> bool {
        self.plan == other.plan && self.u == other.u
    }
}

impl PreparedConvF32 {
    /// Transform and cache `(O, C, 3, 3)` weights for the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::UnsupportedGeometry`] for non-3x3/strided
    /// layers and [`WinogradError::BufferSizeMismatch`] for a wrong weight
    /// buffer length.
    pub fn new(
        weights: &[f32],
        shape: &ConvShape,
        variant: WinogradVariant,
    ) -> Result<Self, WinogradError> {
        let plan = WinogradPlan::new(shape, variant)?;
        let (o, c) = (shape.out_channels, shape.in_channels);
        let t = variant.input_tile();
        let t2 = t * t;
        // (O, C, t, t) -> (t², O, C)
        let u_oc = transform_weights_f32(weights, o, c, variant)?;
        let mut u = vec![0.0f32; t2 * o * c];
        for oc in 0..o {
            for ic in 0..c {
                let src = &u_oc[(oc * c + ic) * t2..(oc * c + ic + 1) * t2];
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
            u,
            bt: variant.bt().iter().map(|&x| x as f32).collect(),
            at: variant.at().iter().map(|&x| x as f32).collect(),
            block_budget,
            v: vec![0.0; t2 * c * block],
            prod: vec![0.0; t2 * o * block],
            batched_executions: 0,
            deterministic: false,
        })
    }

    /// Switch this plan into (or out of) deterministic-f32 mode: every GEMM
    /// runs the naive fixed-order [`wgft_tensor::gemm_f32_det`] kernel and
    /// execution stays on one thread, so the output bits are a pure function
    /// of the inputs on any IEEE-754 platform and codegen. This is the
    /// `f32-det` arithmetic mode the sweep manifest can record; the default
    /// blocked kernel is asserted bit-identical to it in tests, so flipping
    /// the flag must never change a result — only the evidence class.
    pub fn set_deterministic(&mut self, deterministic: bool) {
        self.deterministic = deterministic;
    }

    /// Whether deterministic-f32 mode is on.
    #[must_use]
    pub fn deterministic(&self) -> bool {
        self.deterministic
    }

    /// The plan geometry.
    #[must_use]
    pub fn plan(&self) -> &WinogradPlan {
        &self.plan
    }

    /// The cached transformed weights in `(t², O, C)` layout.
    #[must_use]
    pub fn transformed_weights(&self) -> &[f32] {
        &self.u
    }

    /// Execute the convolution into a freshly allocated output buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input length.
    pub fn execute(&mut self, input: &[f32]) -> Result<Vec<f32>, WinogradError> {
        let mut output = vec![0.0f32; self.plan.shape.output_len()];
        self.execute_into(input, &mut output)?;
        Ok(output)
    }

    /// Execute the convolution into a caller-provided output buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input or
    /// output length.
    pub fn execute_into(&mut self, input: &[f32], output: &mut [f32]) -> Result<(), WinogradError> {
        self.validate_batch(input, 1, output)?;
        self.execute_batch_chunked(input, 1, output, 1);
        Ok(())
    }

    /// Execute the convolution on a batch of `n_images` images into a
    /// freshly allocated `(N, O, H, W)` buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input length.
    pub fn execute_batch(
        &mut self,
        input: &[f32],
        n_images: usize,
    ) -> Result<Vec<f32>, WinogradError> {
        let mut output = vec![0.0f32; n_images * self.plan.shape.output_len()];
        self.execute_batch_into(input, n_images, &mut output)?;
        Ok(output)
    }

    /// Execute the convolution on a batch of `n_images` images laid out
    /// contiguously as `(N, C, H, W)`, writing `(N, O, H', W')` to `output`.
    ///
    /// All `N·P` input tiles share the scatter→GEMM→gather schedule: tile
    /// blocks span image boundaries, so the `t²` GEMMs always run with a full
    /// free dimension even when one image yields few tiles, and the cached
    /// weight transform plus block scheduling are paid once for the whole
    /// batch. When the rayon pool has threads to spare the batch is split
    /// into image-aligned chunks processed in parallel with worker-local
    /// scratch. Results are bit-identical to `n_images` single-image
    /// [`PreparedConvF32::execute_into`] calls for every chunking and thread
    /// count, because each output element's floating-point accumulation
    /// order is independent of both.
    ///
    /// # Errors
    ///
    /// Returns [`WinogradError::BufferSizeMismatch`] on a wrong input or
    /// output length.
    pub fn execute_batch_into(
        &mut self,
        input: &[f32],
        n_images: usize,
        output: &mut [f32],
    ) -> Result<(), WinogradError> {
        self.validate_batch(input, n_images, output)?;
        self.batched_executions += 1;
        if n_images == 0 {
            return Ok(());
        }
        let threads = rayon::current_num_threads();
        let chunk = if threads <= 1 || self.deterministic {
            n_images
        } else {
            n_images.div_ceil(threads)
        };
        self.execute_batch_chunked(input, n_images, output, chunk);
        Ok(())
    }

    /// How many times [`PreparedConvF32::execute_batch_into`] has run. The
    /// batched inference layers assert on this to catch a silent fallback to
    /// per-image execution.
    #[must_use]
    pub fn batched_executions(&self) -> u64 {
        self.batched_executions
    }

    fn validate_batch(
        &self,
        input: &[f32],
        n_images: usize,
        output: &[f32],
    ) -> Result<(), WinogradError> {
        let shape = self.plan.shape;
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
        Ok(())
    }

    /// Effective tiles-per-block for a range holding `total_tiles`.
    fn block_for(&self, total_tiles: usize) -> usize {
        self.block_budget.min(total_tiles.max(1))
    }

    /// Run the batch split into chunks of `images_per_chunk` images.
    ///
    /// A single chunk executes in place on the plan's own scratch (no
    /// allocation; with a multi-thread pool each block's t² independent
    /// GEMMs fan out across it); multiple chunks fan out across the rayon
    /// pool, each worker with its own scratch, writing disjoint image
    /// ranges of `output`.
    fn execute_batch_chunked(
        &mut self,
        input: &[f32],
        n_images: usize,
        output: &mut [f32],
        images_per_chunk: usize,
    ) {
        let shape = self.plan.shape;
        let (in_len, out_len) = (shape.input_len(), shape.output_len());
        let (o, c) = (shape.out_channels, shape.in_channels);
        let t2 = self.plan.variant.input_tile() * self.plan.variant.input_tile();
        let images_per_chunk = images_per_chunk.clamp(1, n_images.max(1));
        // Degenerate geometries (empty input or output planes) cannot be
        // chunked by slice length; they carry no per-image work anyway.
        if images_per_chunk >= n_images || in_len == 0 || out_len == 0 {
            // One chunk: reuse the plan's scratch, growing it if batching
            // enlarged the effective block beyond the single-image size.
            let bp = self.block_for(n_images * self.plan.num_tiles());
            if self.v.len() < t2 * c * bp {
                self.v.resize(t2 * c * bp, 0.0);
            }
            if self.prod.len() < t2 * o * bp {
                self.prod.resize(t2 * o * bp, 0.0);
            }
            // No image chunks to fan out: parallelize across the block's t²
            // independent GEMMs instead (the low-latency single-image path).
            // The work-size test first: it is free, the thread count is not.
            let parallel_gemms = o * c * bp >= PAR_GEMM_MIN_BLOCK
                && !self.deterministic
                && rayon::current_num_threads() > 1;
            run_images_f32(
                &self.plan,
                &self.u,
                &self.bt,
                &self.at,
                bp,
                &mut self.v,
                &mut self.prod,
                input,
                n_images,
                output,
                parallel_gemms,
                self.deterministic,
            );
            return;
        }
        use rayon::prelude::*;
        let plan = &self.plan;
        let (u, bt, at) = (&self.u, &self.bt, &self.at);
        let bp = self.block_for(images_per_chunk * plan.num_tiles());
        let jobs: Vec<(&[f32], &mut [f32])> = input
            .chunks(images_per_chunk * in_len)
            .zip(output.chunks_mut(images_per_chunk * out_len))
            .collect();
        jobs.into_par_iter()
            .map(|(in_chunk, out_chunk)| {
                let images = in_chunk.len() / in_len.max(1);
                let mut v = vec![0.0f32; t2 * c * bp];
                let mut prod = vec![0.0f32; t2 * o * bp];
                // Workers are the parallelism here; their GEMMs stay serial.
                run_images_f32(
                    plan, u, bt, at, bp, &mut v, &mut prod, in_chunk, images, out_chunk, false,
                    false,
                );
            })
            .collect::<Vec<()>>();
    }
}

/// Scatter→GEMM→gather over all `n_images · P` tiles of a contiguous image
/// range. `block` bounds the tiles per scatter/product buffer fill; `v` and
/// `prod` must hold `t²·C·block` and `t²·O·block` elements. With `det` set
/// the winograd-coordinate GEMMs run the naive fixed-order
/// [`wgft_tensor::gemm_f32_det`] spec kernel instead of the blocked one
/// (callers also keep `parallel_gemms` off in that mode).
#[allow(clippy::too_many_arguments)]
fn run_images_f32(
    plan: &WinogradPlan,
    u: &[f32],
    bt: &[f32],
    at: &[f32],
    block: usize,
    v: &mut [f32],
    prod: &mut [f32],
    input: &[f32],
    n_images: usize,
    output: &mut [f32],
    parallel_gemms: bool,
    det: bool,
) {
    let shape = plan.shape;
    let (o, c) = (shape.out_channels, shape.in_channels);
    let (in_len, out_len) = (shape.input_len(), shape.output_len());
    let variant = plan.variant;
    let t = variant.input_tile();
    let m = variant.output_tile();
    let t2 = t * t;
    let p = plan.num_tiles();
    let total_tiles = n_images * p;
    let (out_h, out_w) = (shape.geometry.out_h(), shape.geometry.out_w());

    // Per-tile scratch lives on the stack: the compiler can prove it
    // never aliases the big scatter/product buffers, which keeps the
    // transform arithmetic in registers.
    let mut tile_d = [0.0f32; MAX_TILE];
    let mut tile_tmp = [0.0f32; MAX_TILE];
    let mut tile_tmp2 = [0.0f32; MAX_TILE];
    let mut tile_y = [0.0f32; MAX_TILE];

    // Tiles are processed in blocks so that one block's scatter buffer,
    // GEMM product and cached weights all stay cache-resident across the
    // three phases. Blocks deliberately span image boundaries: the GEMM
    // free dimension stays full even when one image has few tiles.
    let mut block_start = 0usize;
    while block_start < total_tiles {
        let bp = block.min(total_tiles - block_start);

        // ---- Scatter: V[k][ic][b] = (Bᵀ d B)[k] for every tile/channel
        // of the block. The tile index is innermost so each of the t²
        // destination streams `v[(k·C + ic)·bp ..]` is written
        // contiguously — t² sequential write cursors instead of t²
        // random accesses per tile. Full groups of [`SOA_GROUP`] tiles run
        // through a lane-per-tile runtime-t SoA kernel (vector adds and
        // mul-adds, contiguous group-wide stores); ragged tails take the
        // per-tile path.
        for ic in 0..c {
            let mut b = 0usize;
            while b < bp {
                if b + SOA_GROUP <= bp {
                    scatter_group(plan, input, in_len, block_start + b, ic, v, c, bp, b, bt);
                    b += SOA_GROUP;
                    continue;
                }
                let g = block_start + b;
                let image_input = &input[(g / p) * in_len..(g / p + 1) * in_len];
                plan.load_tile(image_input, g % p, ic, &mut tile_d[..t2]);
                mat_mul_into(bt, &tile_d, &mut tile_tmp, t, t, t);
                mat_mul_rt_into(&tile_tmp, bt, &mut tile_tmp2, t, t, t);
                for (k, &value) in tile_tmp2[..t2].iter().enumerate() {
                    v[(k * c + ic) * bp + b] = value;
                }
                b += 1;
            }
        }

        // ---- Batched GEMM: one (O×C)·(C×bp) multiply per winograd
        // coordinate, with the batch folded into the free dimension. In
        // parallel mode the t² independent GEMMs fan out across the pool in
        // a single fork/join per block (disjoint `prod` chunks); striping
        // inside each GEMM would pay t² fork/joins plus stitch copies.
        if parallel_gemms {
            debug_assert!(!det, "deterministic mode keeps GEMMs serial");
            use rayon::prelude::*;
            let v_ro: &[f32] = v;
            let jobs: Vec<(usize, &mut [f32])> =
                prod[..t2 * o * bp].chunks_mut(o * bp).enumerate().collect();
            jobs.into_par_iter()
                .map(|(k, prod_k)| {
                    gemm_f32(
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
                let gemm = if det { gemm_f32_det } else { gemm_f32 };
                gemm(
                    &u[k * o * c..(k + 1) * o * c],
                    &v[k * c * bp..(k + 1) * c * bp],
                    &mut prod[k * o * bp..(k + 1) * o * bp],
                    o,
                    c,
                    bp,
                );
            }
        }

        // ---- Gather: inverse-transform each (oc, tile) fibre. Tile is
        // again innermost so the t² source streams are read sequentially;
        // groups of [`SOA_GROUP`] tiles use the runtime-t SoA kernel
        // (contiguous group-wide loads from `prod`, vector adds/mul-adds).
        for oc in 0..o {
            let mut b = 0usize;
            while b < bp {
                if b + SOA_GROUP <= bp {
                    gather_group(
                        plan,
                        prod,
                        o,
                        bp,
                        oc,
                        b,
                        block_start + b,
                        out_len,
                        output,
                        at,
                    );
                    b += SOA_GROUP;
                    continue;
                }
                let g = block_start + b;
                let tile = g % p;
                let out_base = (g / p) * out_len;
                let ty = tile / plan.tiles_x;
                let tx = tile % plan.tiles_x;
                for (k, value) in tile_tmp[..t2].iter_mut().enumerate() {
                    *value = prod[(k * o + oc) * bp + b];
                }
                mat_mul_into(at, &tile_tmp, &mut tile_tmp2, m, t, t);
                mat_mul_rt_into(&tile_tmp2, at, &mut tile_y, m, t, m);
                store_output_tile(output, out_base, &tile_y, oc, ty, tx, m, out_h, out_w);
                b += 1;
            }
        }

        block_start += bp;
    }
}

/// Tiles per SoA transform group: one f32 lane per tile, sized to a full
/// AVX-512 register (and two AVX2 registers) so the transforms' adds and
/// mul-adds vectorize across tiles.
pub(crate) const SOA_GROUP: usize = 16;

/// Lane-wise `acc += coef · src`, specialized on the coefficient: winograd
/// transform matrices are dominated by 0/±1 entries, so most terms are a
/// skipped column, a vector add or a vector subtract; only genuinely
/// fractional-scaled entries pay a multiply. `1·x`, `(-1)·x` and skipping
/// `0·x` are exact in IEEE f32, so this is bit-identical to the
/// multiply-accumulate the per-tile [`mat_mul_into`] path performs.
#[inline]
fn lane_axpy_f32(acc: &mut [f32; SOA_GROUP], coef: f32, src: &[f32; SOA_GROUP]) {
    if coef == 0.0 {
        return;
    }
    if coef == 1.0 {
        for (a, &s) in acc.iter_mut().zip(src.iter()) {
            *a += s;
        }
    } else if coef == -1.0 {
        for (a, &s) in acc.iter_mut().zip(src.iter()) {
            *a -= s;
        }
    } else {
        for (a, &s) in acc.iter_mut().zip(src.iter()) {
            *a += coef * s;
        }
    }
}

/// Input transform `Bᵀ d B` for [`SOA_GROUP`] consecutive tiles of one
/// channel, lane-per-tile at any tile size: each transform term becomes a
/// group-wide vector op and the t² winograd-domain stores become contiguous
/// group-wide `memcpy`s into the scatter buffer (the per-tile path writes
/// them with stride `bp`). Term-for-term identical arithmetic to the
/// per-tile [`mat_mul_into`]/[`mat_mul_rt_into`] path, so results agree.
#[allow(clippy::too_many_arguments)]
#[inline]
fn scatter_group(
    plan: &WinogradPlan,
    input: &[f32],
    in_len: usize,
    g0: usize,
    ic: usize,
    v: &mut [f32],
    c: usize,
    bp: usize,
    b0: usize,
    bt: &[f32],
) {
    let p = plan.num_tiles();
    let t = plan.variant.input_tile();
    let t2 = t * t;
    let mut dsoa = [[0.0f32; SOA_GROUP]; MAX_TILE];
    let mut tile_d = [0.0f32; MAX_TILE];
    #[allow(clippy::needless_range_loop)] // `gi` is the SoA lane, not a row
    for gi in 0..SOA_GROUP {
        let g = g0 + gi;
        let image_input = &input[(g / p) * in_len..(g / p + 1) * in_len];
        plan.load_tile(image_input, g % p, ic, &mut tile_d[..t2]);
        for (pos, &value) in tile_d[..t2].iter().enumerate() {
            dsoa[pos][gi] = value;
        }
    }
    // tmp = Bᵀ d, lane-wise: tmp[i][j] = Σ_k Bᵀ[i][k] · d[k][j].
    let mut tmp = [[0.0f32; SOA_GROUP]; MAX_TILE];
    for i in 0..t {
        for j in 0..t {
            let mut acc = [0.0f32; SOA_GROUP];
            for k in 0..t {
                lane_axpy_f32(&mut acc, bt[i * t + k], &dsoa[k * t + j]);
            }
            tmp[i * t + j] = acc;
        }
    }
    // v_rows = tmp B (B = Bᵀᵀ), lane-wise, stored straight into the scatter
    // buffer: out[i][j] = Σ_k tmp[i][k] · Bᵀ[j][k].
    for i in 0..t {
        for j in 0..t {
            let mut acc = [0.0f32; SOA_GROUP];
            for k in 0..t {
                lane_axpy_f32(&mut acc, bt[j * t + k], &tmp[i * t + k]);
            }
            v[((i * t + j) * c + ic) * bp + b0..][..SOA_GROUP].copy_from_slice(&acc);
        }
    }
}

/// Output transform `Aᵀ m A` for [`SOA_GROUP`] consecutive tiles of one
/// output channel, lane-per-tile at any tile size: the group-wide reads from
/// the GEMM product are contiguous (the per-tile path reads them with stride
/// `bp`) and every transform term vectorizes across tiles. Term-for-term
/// identical arithmetic to the per-tile path, so results agree.
#[allow(clippy::too_many_arguments)]
#[inline]
fn gather_group(
    plan: &WinogradPlan,
    prod: &[f32],
    o: usize,
    bp: usize,
    oc: usize,
    b0: usize,
    g0: usize,
    out_len: usize,
    output: &mut [f32],
    at: &[f32],
) {
    let p = plan.num_tiles();
    let g = &plan.shape.geometry;
    let (out_h, out_w) = (g.out_h(), g.out_w());
    let t = plan.variant.input_tile();
    let m = plan.variant.output_tile();
    let t2 = t * t;
    let mut msoa = [[0.0f32; SOA_GROUP]; MAX_TILE];
    for (k, row) in msoa.iter_mut().enumerate().take(t2) {
        row.copy_from_slice(&prod[(k * o + oc) * bp + b0..][..SOA_GROUP]);
    }
    // tmp = Aᵀ m (m×t rows), lane-wise.
    let mut tmp = [[0.0f32; SOA_GROUP]; MAX_TILE];
    for i in 0..m {
        for j in 0..t {
            let mut acc = [0.0f32; SOA_GROUP];
            for k in 0..t {
                lane_axpy_f32(&mut acc, at[i * t + k], &msoa[k * t + j]);
            }
            tmp[i * t + j] = acc;
        }
    }
    // y = tmp A (m×m), lane-wise.
    let mut ysoa = [[0.0f32; SOA_GROUP]; MAX_TILE];
    for i in 0..m {
        for j in 0..m {
            let mut acc = [0.0f32; SOA_GROUP];
            for k in 0..t {
                lane_axpy_f32(&mut acc, at[j * t + k], &tmp[i * t + k]);
            }
            ysoa[i * m + j] = acc;
        }
    }
    let mut tile_y = [0.0f32; MAX_TILE];
    #[allow(clippy::needless_range_loop)] // `gi` is the SoA lane, not a row
    for gi in 0..SOA_GROUP {
        let gt = g0 + gi;
        let tile = gt % p;
        let out_base = (gt / p) * out_len;
        let ty = tile / plan.tiles_x;
        let tx = tile % plan.tiles_x;
        for (pos, value) in tile_y[..m * m].iter_mut().enumerate() {
            *value = ysoa[pos][gi];
        }
        store_output_tile(
            output,
            out_base,
            &tile_y[..m * m],
            oc,
            ty,
            tx,
            m,
            out_h,
            out_w,
        );
    }
}

/// Write one `m×m` output tile, clipping at the feature-map border —
/// shared by the f32 engine and the fast quantized engine (`T = i64`), so
/// the border-clipping logic cannot desynchronize between them.
#[allow(clippy::too_many_arguments)]
#[inline]
pub(crate) fn store_output_tile<T: Copy>(
    output: &mut [T],
    out_base: usize,
    tile_y: &[T],
    oc: usize,
    ty: usize,
    tx: usize,
    m: usize,
    out_h: usize,
    out_w: usize,
) {
    if (ty + 1) * m <= out_h && (tx + 1) * m <= out_w {
        // Full interior tile: contiguous row copies.
        for dy in 0..m {
            let dst = out_base + (oc * out_h + ty * m + dy) * out_w + tx * m;
            output[dst..dst + m].copy_from_slice(&tile_y[dy * m..(dy + 1) * m]);
        }
    } else {
        for dy in 0..m {
            let oy = ty * m + dy;
            if oy >= out_h {
                break;
            }
            for dx in 0..m {
                let ox = tx * m + dx;
                if ox >= out_w {
                    break;
                }
                output[out_base + (oc * out_h + oy) * out_w + ox] = tile_y[dy * m + dx];
            }
        }
    }
}

/// Reusable scratch buffers for the quantized winograd kernel.
///
/// The quantized kernel streams every primitive operation through an
/// instrumented [`wgft_faultsim::Arithmetic`] backend, so its loop
/// structure is part of the experiment (the op sequence determines where
/// faults land) — but its scratch allocation is not. This object hoists
/// every buffer out of the per-tile/per-channel loops; it grows on demand
/// and can be reused across layers and images (pass it to
/// [`crate::winograd_conv_quantized_with_scratch`]).
#[derive(Debug, Clone, Default)]
pub struct WinogradScratch {
    /// Transformed input tiles for all channels, `(C, t, t)`.
    pub(crate) v_tiles: Vec<i64>,
    /// Raw input tile, `t×t`.
    pub(crate) d: Vec<i64>,
    /// Transform intermediate, `t×t`.
    pub(crate) tmp: Vec<i64>,
    /// Channel-accumulated element-wise products, `t×t`.
    pub(crate) acc: Vec<i64>,
    /// Output-transform intermediate, `m×t`.
    pub(crate) tmp_out: Vec<i64>,
    /// Output tile, `m×m`.
    pub(crate) y: Vec<i64>,
}

impl WinogradScratch {
    /// Fresh, empty scratch (buffers grow on first use).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the buffers for one kernel invocation.
    pub(crate) fn prepare(&mut self, variant: WinogradVariant, in_channels: usize) {
        let t = variant.input_tile();
        let m = variant.output_tile();
        resize_fill(&mut self.v_tiles, in_channels * t * t);
        resize_fill(&mut self.d, t * t);
        resize_fill(&mut self.tmp, t * t);
        resize_fill(&mut self.acc, t * t);
        resize_fill(&mut self.tmp_out, m * t);
        resize_fill(&mut self.y, m * m);
    }
}

fn resize_fill(buf: &mut Vec<i64>, len: usize) {
    buf.clear();
    buf.resize(len, 0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conv_standard::direct_conv_f32;
    use crate::conv_winograd::WinogradWeights;
    use crate::transform::{F2X2_3X3, F4X4_3X3, F6X6_3X3};
    use wgft_tensor::ConvGeometry;

    fn fixture(
        in_c: usize,
        out_c: usize,
        size: usize,
        pad: usize,
    ) -> (ConvShape, Vec<f32>, Vec<f32>) {
        let shape = ConvShape::new(in_c, out_c, ConvGeometry::square(size, 3, 1, pad));
        let input: Vec<f32> = (0..shape.input_len())
            .map(|i| ((i * 31 % 23) as f32) * 0.17 - 1.9)
            .collect();
        let weights: Vec<f32> = (0..shape.weight_len())
            .map(|i| ((i * 17 % 13) as f32) * 0.11 - 0.7)
            .collect();
        (shape, input, weights)
    }

    #[test]
    fn plan_rejects_unsupported_geometry() {
        let strided = ConvShape::new(1, 1, ConvGeometry::square(8, 3, 2, 1));
        assert!(WinogradPlan::new(&strided, F2X2_3X3).is_err());
        let five = ConvShape::new(1, 1, ConvGeometry::square(8, 5, 1, 1));
        assert!(WinogradPlan::new(&five, F2X2_3X3).is_err());
    }

    #[test]
    fn plan_tile_grid_covers_output() {
        let shape = ConvShape::new(1, 1, ConvGeometry::square(5, 3, 1, 1));
        let plan = WinogradPlan::new(&shape, F2X2_3X3).unwrap();
        // 5x5 output, 2x2 tiles -> 3x3 grid.
        assert_eq!(plan.tiles_y(), 3);
        assert_eq!(plan.tiles_x(), 3);
        assert_eq!(plan.num_tiles(), 9);
        assert_eq!(plan.variant(), F2X2_3X3);
        assert_eq!(plan.shape(), &shape);
    }

    /// The planned scatter-GEMM path must agree with direct convolution over
    /// a grid of shapes: odd sizes, non-tile-multiple outputs, padding 0/1
    /// and every tile variant.
    ///
    /// F(6x6) runs its transforms with integer-scaled matrices whose row
    /// sums reach 72, so winograd-domain intermediates are ~3 decimal orders
    /// larger than the outputs and the f32 round-off budget is accordingly
    /// wider than for the small tiles.
    #[test]
    fn planned_f32_matches_direct_across_shape_grid() {
        for &(in_c, out_c) in &[(1usize, 1usize), (2, 3), (3, 2)] {
            for &size in &[4usize, 5, 6, 7, 9, 11] {
                for &pad in &[0usize, 1] {
                    let (shape, input, weights) = fixture(in_c, out_c, size, pad);
                    if shape.geometry.out_h() == 0 {
                        continue;
                    }
                    let direct = direct_conv_f32(&input, &weights, &shape).unwrap();
                    for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
                        let tol = match variant {
                            WinogradVariant::F6x6 => 2e-1,
                            _ => 2e-2,
                        };
                        let mut prepared = PreparedConvF32::new(&weights, &shape, variant).unwrap();
                        let out = prepared.execute(&input).unwrap();
                        for (i, (d, w)) in direct.iter().zip(out.iter()).enumerate() {
                            assert!(
                                (d - w).abs() < tol,
                                "{variant} c{in_c}->{out_c} s{size} p{pad} idx {i}: direct {d} vs planned {w}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Exact integer filter transform `G g Gᵀ` through the generator's
    /// rational `G`: weights divisible by [`WinogradVariant::weight_divisor`]
    /// transform to exactly integral winograd-domain weights. The f32 path
    /// cannot express this for F(6x6) (scaled weights exceed the 24-bit
    /// mantissa), so exact tests go through rationals.
    pub(super) fn exact_winograd_weights(
        weights_q: &[i32],
        o: usize,
        c: usize,
        variant: WinogradVariant,
    ) -> Vec<i32> {
        use wgft_tile::Rational;
        let transforms = variant.tile_spec().generate();
        let g = transforms.g();
        let t = variant.input_tile();
        let mut out = vec![0i32; o * c * t * t];
        for filt in 0..o * c {
            let w = &weights_q[filt * 9..(filt + 1) * 9];
            for i in 0..t {
                for j in 0..t {
                    let mut acc = Rational::ZERO;
                    for a in 0..3 {
                        for b in 0..3 {
                            acc = acc
                                + g[i * 3 + a]
                                    * Rational::integer(i64::from(w[a * 3 + b]))
                                    * g[j * 3 + b];
                        }
                    }
                    let exact = acc
                        .as_integer()
                        .expect("divisor-multiple weights transform exactly");
                    out[filt * t * t + i * t + j] =
                        i32::try_from(exact).expect("winograd weight fits i32");
                }
            }
        }
        out
    }

    /// Planned quantized winograd must reproduce direct quantized convolution
    /// bit-for-bit across the same shape grid, for every tile variant.
    ///
    /// Exactness requires winograd-domain weights that are exactly integral,
    /// i.e. raw weights divisible by the per-variant
    /// [`WinogradVariant::weight_divisor`] (4 / 576 / 360²).
    #[test]
    fn planned_quantized_matches_direct_across_shape_grid() {
        use crate::conv_standard::direct_conv_quantized;
        use crate::conv_winograd::winograd_conv_quantized_with_scratch;
        use wgft_faultsim::ExactArithmetic;

        // One scratch arena reused across every shape and variant.
        let mut scratch = WinogradScratch::new();
        for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
            let scale = i32::try_from(variant.weight_divisor()).unwrap();
            for &(in_c, out_c) in &[(1usize, 1usize), (2, 3)] {
                for &size in &[4usize, 5, 7, 8] {
                    for &pad in &[0usize, 1] {
                        let shape =
                            ConvShape::new(in_c, out_c, ConvGeometry::square(size, 3, 1, pad));
                        if shape.geometry.out_h() == 0 {
                            continue;
                        }
                        let input_q: Vec<i32> = (0..shape.input_len())
                            .map(|i| ((i * 7 % 23) as i32) - 11)
                            .collect();
                        let weights_q: Vec<i32> = (0..shape.weight_len())
                            .map(|i| scale.saturating_mul(((i * 5 % 9) as i32) - 4))
                            .collect();

                        let mut exact = ExactArithmetic::new();
                        let direct =
                            direct_conv_quantized(&mut exact, 0, &input_q, &weights_q, &shape)
                                .unwrap();

                        let u_q = exact_winograd_weights(&weights_q, out_c, in_c, variant);
                        if variant != WinogradVariant::F6x6 {
                            // The f32 transform stays exact for the small
                            // divisors; pin the two paths to each other.
                            let weights_f: Vec<f32> = weights_q.iter().map(|&w| w as f32).collect();
                            let u =
                                transform_weights_f32(&weights_f, out_c, in_c, variant).unwrap();
                            for (uf, &uq) in u.iter().zip(u_q.iter()) {
                                assert!(
                                    (uf - uq as f32).abs() < 1e-3,
                                    "{variant}: f32 transform diverged ({uf} vs {uq})"
                                );
                            }
                        }
                        let wino = WinogradWeights::new(variant, out_c, in_c, u_q).unwrap();
                        let mut exact2 = ExactArithmetic::new();
                        let out = winograd_conv_quantized_with_scratch(
                            &mut exact2,
                            0,
                            &input_q,
                            &wino,
                            &shape,
                            &mut scratch,
                        )
                        .unwrap();
                        assert_eq!(
                            direct, out,
                            "{variant} c{in_c}->{out_c} s{size} p{pad}: quantized mismatch"
                        );

                        // Scratch reuse across images must not leak state.
                        let mut exact3 = ExactArithmetic::new();
                        let again = winograd_conv_quantized_with_scratch(
                            &mut exact3,
                            0,
                            &input_q,
                            &wino,
                            &shape,
                            &mut scratch,
                        )
                        .unwrap();
                        assert_eq!(out, again);
                    }
                }
            }
        }
    }

    #[test]
    fn prepared_quantized_validates_channel_mismatch() {
        let shape = ConvShape::new(2, 3, ConvGeometry::square(4, 3, 1, 1));
        let weights = WinogradWeights::new(F2X2_3X3, 1, 1, vec![0; 16]).unwrap();
        let input = vec![0i32; shape.input_len()];
        let result = crate::conv_winograd::winograd_conv_quantized_with_scratch(
            &mut wgft_faultsim::ExactArithmetic::new(),
            0,
            &input,
            &weights,
            &shape,
            &mut WinogradScratch::new(),
        );
        assert!(matches!(
            result,
            Err(WinogradError::BufferSizeMismatch {
                what: "winograd weight",
                ..
            })
        ));
    }

    #[test]
    fn prepared_conv_is_reusable_across_images() {
        let (shape, input, weights) = fixture(2, 2, 8, 1);
        let mut prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
        let first = prepared.execute(&input).unwrap();
        let other: Vec<f32> = input.iter().map(|x| x * 0.5 + 0.1).collect();
        let _ = prepared.execute(&other).unwrap();
        let again = prepared.execute(&input).unwrap();
        assert_eq!(
            first, again,
            "scratch reuse must not leak state between images"
        );
    }

    /// Build a batch of `n` distinct images for a shape.
    fn batch_input(shape: &ConvShape, n: usize) -> Vec<f32> {
        (0..n * shape.input_len())
            .map(|i| ((i * 29 % 31) as f32) * 0.23 - 2.1)
            .collect()
    }

    /// The batched engine must be bit-identical to N independent
    /// single-image executions across the shape/padding/variant grid,
    /// including ragged sizes where tile blocks straddle image boundaries.
    #[test]
    fn batched_execution_matches_per_image_bit_for_bit() {
        for &(in_c, out_c) in &[(1usize, 1usize), (2, 3), (3, 2)] {
            for &size in &[4usize, 5, 7, 9] {
                for &pad in &[0usize, 1] {
                    let (shape, _, weights) = fixture(in_c, out_c, size, pad);
                    if shape.geometry.out_h() == 0 {
                        continue;
                    }
                    for variant in [F2X2_3X3, F4X4_3X3, F6X6_3X3] {
                        for n in [1usize, 2, 3, 5] {
                            let batch = batch_input(&shape, n);
                            let mut prepared =
                                PreparedConvF32::new(&weights, &shape, variant).unwrap();
                            let batched = prepared.execute_batch(&batch, n).unwrap();
                            let mut single =
                                PreparedConvF32::new(&weights, &shape, variant).unwrap();
                            for img in 0..n {
                                let out = single
                                    .execute(&batch[img * shape.input_len()..][..shape.input_len()])
                                    .unwrap();
                                assert_eq!(
                                    out,
                                    &batched[img * shape.output_len()..][..shape.output_len()],
                                    "{variant} c{in_c}->{out_c} s{size} p{pad} n{n} image {img}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every image-chunking of a batch — including ragged tail chunks (N not
    /// a multiple of the chunk size) — must produce identical bits, since
    /// chunking is exactly what the parallel path does.
    #[test]
    fn batch_chunking_is_bit_identical_for_every_chunk_size() {
        let (shape, _, weights) = fixture(2, 3, 9, 1);
        let n = 5usize;
        let batch = batch_input(&shape, n);
        let mut reference = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
        let expected = reference.execute_batch(&batch, n).unwrap();
        for chunk in 1..=n + 1 {
            let mut prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
            let mut out = vec![f32::NAN; n * shape.output_len()];
            prepared.execute_batch_chunked(&batch, n, &mut out, chunk);
            assert_eq!(expected, out, "chunk size {chunk}");
        }
    }

    #[test]
    fn batched_executions_counter_tracks_batch_entry_point() {
        let (shape, input, weights) = fixture(1, 1, 6, 1);
        let mut prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
        assert_eq!(prepared.batched_executions(), 0);
        let _ = prepared.execute(&input).unwrap();
        assert_eq!(
            prepared.batched_executions(),
            0,
            "single-image execute is not the batched entry point"
        );
        let batch = batch_input(&shape, 3);
        let _ = prepared.execute_batch(&batch, 3).unwrap();
        assert_eq!(prepared.batched_executions(), 1);
    }

    #[test]
    fn batch_validates_lengths_and_accepts_empty() {
        let (shape, _, weights) = fixture(1, 2, 5, 1);
        let mut prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
        let batch = batch_input(&shape, 2);
        // Wrong image count for the buffer length.
        assert!(prepared.execute_batch(&batch, 3).is_err());
        let mut short = vec![0.0f32; 2 * shape.output_len() - 1];
        assert!(prepared.execute_batch_into(&batch, 2, &mut short).is_err());
        // Zero images is a no-op, not an error.
        assert!(prepared.execute_batch(&[], 0).unwrap().is_empty());
    }

    #[test]
    fn execute_into_validates_buffer_lengths() {
        let (shape, input, weights) = fixture(1, 1, 4, 1);
        let mut prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
        let mut short = vec![0.0f32; shape.output_len() - 1];
        assert!(prepared.execute_into(&input, &mut short).is_err());
        assert!(prepared.execute(&input[..input.len() - 1]).is_err());
    }

    #[test]
    fn transformed_weight_layout_is_coordinate_major() {
        let (shape, _, weights) = fixture(2, 3, 4, 1);
        let prepared = PreparedConvF32::new(&weights, &shape, F2X2_3X3).unwrap();
        let u_oc = transform_weights_f32(&weights, 3, 2, F2X2_3X3).unwrap();
        let t2 = 16;
        // u[(k, oc, ic)] must equal u_oc[(oc, ic, k)].
        for k in 0..t2 {
            for oc in 0..3 {
                for ic in 0..2 {
                    assert_eq!(
                        prepared.transformed_weights()[(k * 3 + oc) * 2 + ic],
                        u_oc[(oc * 2 + ic) * t2 + k]
                    );
                }
            }
        }
    }
}
