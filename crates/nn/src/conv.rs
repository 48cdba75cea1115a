//! Floating-point 2-D convolution layer with backward pass.

use crate::NnError;
use rand::Rng;
use serde::{Deserialize, Serialize};
use wgft_tensor::{ConvGeometry, Shape, Tensor, TensorError};
use wgft_winograd::{direct_conv_f32, ConvShape, PreparedConvF32, WinogradError, WinogradVariant};

/// A 2-D convolution layer (square kernel, cross-correlation convention) for
/// the floating-point training path.
///
/// Works on single-image batches shaped `(1, C, H, W)`; the trainer
/// accumulates gradients across the samples of a mini-batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Conv2d {
    shape: ConvShape,
    weights: Tensor,
    bias: Tensor,
    #[serde(skip)]
    cached_input: Option<Tensor>,
    #[serde(skip, default = "empty_tensor")]
    grad_weights: Tensor,
    #[serde(skip, default = "empty_tensor")]
    grad_bias: Tensor,
    /// Planned winograd execution for the *current* weights; rebuilt lazily by
    /// [`Conv2d::forward_planned`] and dropped whenever the optimizer gets
    /// mutable access to the weights.
    #[serde(skip)]
    prepared: Option<PreparedConvF32>,
    /// Winograd tile variant the planned inference paths prepare for
    /// 3x3 unit-stride geometry. Serialized only when non-default so
    /// checkpoints written before the knob existed (and ones using the
    /// default) stay byte-identical.
    #[serde(default, skip_serializing_if = "variant_is_default")]
    winograd_variant: WinogradVariant,
}

/// Skip-serializing predicate: the default F(2x2,3x3) variant is left
/// implicit in checkpoints.
fn variant_is_default(v: &WinogradVariant) -> bool {
    *v == WinogradVariant::default()
}

/// Placeholder used when deserializing a layer (gradients are rebuilt lazily).
pub(crate) fn empty_tensor() -> Tensor {
    Tensor::zeros(Shape::d1(0))
}

impl Conv2d {
    /// Create a convolution layer with He-uniform initial weights.
    #[must_use]
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        in_size: usize,
        kernel: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        let geometry = ConvGeometry::square(in_size, kernel, 1, padding);
        let shape = ConvShape::new(in_channels, out_channels, geometry);
        let fan_in = in_channels * kernel * kernel;
        let weights = Tensor::he_uniform(
            Shape::new(vec![out_channels, in_channels, kernel, kernel]),
            fan_in,
            rng,
        );
        let bias = Tensor::zeros(Shape::d1(out_channels));
        Self {
            shape,
            grad_weights: Tensor::zeros(weights.shape().clone()),
            grad_bias: Tensor::zeros(bias.shape().clone()),
            weights,
            bias,
            cached_input: None,
            prepared: None,
            winograd_variant: WinogradVariant::default(),
        }
    }

    /// The winograd tile variant the planned paths will prepare.
    #[must_use]
    pub fn winograd_variant(&self) -> WinogradVariant {
        self.winograd_variant
    }

    /// Select the winograd tile variant for the planned inference paths.
    ///
    /// Dropping any cached plan, so the next planned forward rebuilds with
    /// the new tile size. Direct (non-3x3) geometry ignores the knob.
    pub fn set_winograd_variant(&mut self, variant: WinogradVariant) {
        if self.winograd_variant != variant {
            self.winograd_variant = variant;
            self.prepared = None;
        }
    }

    /// The layer's convolution shape (channels and spatial geometry).
    #[must_use]
    pub fn conv_shape(&self) -> &ConvShape {
        &self.shape
    }

    /// Weight tensor, laid out `(out_channels, in_channels, k, k)`.
    #[must_use]
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// Per-output-channel bias.
    #[must_use]
    pub fn bias(&self) -> &Tensor {
        &self.bias
    }

    /// Spatial size of the produced feature map.
    #[must_use]
    pub fn output_size(&self) -> usize {
        self.shape.geometry.out_h()
    }

    /// Number of output channels.
    #[must_use]
    pub fn out_channels(&self) -> usize {
        self.shape.out_channels
    }

    /// Forward pass on a `(1, C, H, W)` input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input shape does not match the layer.
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let out = direct_conv_f32(input.data(), self.weights.data(), &self.shape)?;
        let out_t = self.finish_output(out)?;
        self.cached_input = Some(input.clone());
        Ok(out_t)
    }

    /// Inference-only forward pass through the planned winograd datapath.
    ///
    /// Winograd-eligible layers (3x3, unit stride) execute through a cached
    /// [`PreparedConvF32`] so the weight transform is paid once per layer, not
    /// once per image; other geometries fall back to direct convolution. The
    /// plan is invalidated whenever the optimizer takes mutable access to the
    /// weights, so it is always consistent with the current parameters.
    ///
    /// Unlike [`Conv2d::forward`] this does not cache the input for a
    /// backward pass.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input shape does not match the layer.
    pub fn forward_planned(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        if !self.shape.geometry.is_unit_stride_3x3() {
            let out = direct_conv_f32(input.data(), self.weights.data(), &self.shape)?;
            return self.finish_output(out);
        }
        if self.prepared.is_none() {
            self.prepared = Some(PreparedConvF32::new(
                self.weights.data(),
                &self.shape,
                self.winograd_variant,
            )?);
        }
        let prepared = self.prepared.as_mut().expect("prepared plan built above");
        let out = prepared.execute(input.data())?;
        self.finish_output(out)
    }

    /// Inference-only forward pass on a whole `(N, C, H, W)` batch.
    ///
    /// Winograd-eligible layers run the batch through
    /// [`PreparedConvF32::execute_batch_into`], folding all `N·P` tiles into
    /// the GEMM free dimension so the weight transform and block scheduling
    /// are paid once per batch instead of once per image; other geometries
    /// fall back to per-image direct convolution. The result is bit-identical
    /// to `N` [`Conv2d::forward_planned`] calls.
    ///
    /// # Errors
    ///
    /// Returns [`NnError`] if the input is not a 4-D batch matching the
    /// layer's geometry.
    pub fn forward_planned_batch(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let dims = input.shape().dims();
        if dims.len() != 4 {
            return Err(NnError::Tensor(TensorError::RankMismatch {
                expected: 4,
                actual: dims.len(),
            }));
        }
        let n = dims[0];
        let g = &self.shape.geometry;
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let out_len = self.shape.output_len();
        let in_len = self.shape.input_len();
        // Validate before either path slices: the per-image volume must be
        // exactly the layer's input plane set.
        if dims[1] * dims[2] * dims[3] != in_len {
            return Err(NnError::Winograd(WinogradError::BufferSizeMismatch {
                what: "batched input image",
                expected: in_len,
                actual: dims[1] * dims[2] * dims[3],
            }));
        }
        if !g.is_unit_stride_3x3() {
            // Non-winograd geometry: per-image direct convolution. This is an
            // *announced* fallback — the layer's batched-kernel counter does
            // not advance, which is what the silent-fallback guard checks.
            let mut out = vec![0.0f32; n * out_len];
            for img in 0..n {
                let per = direct_conv_f32(
                    &input.data()[img * in_len..(img + 1) * in_len],
                    self.weights.data(),
                    &self.shape,
                )?;
                out[img * out_len..(img + 1) * out_len].copy_from_slice(&per);
            }
            let mut out_t =
                Tensor::from_vec(Shape::nchw(n, self.shape.out_channels, out_h, out_w), out)?;
            self.add_bias_batch(&mut out_t, n);
            return Ok(out_t);
        }
        if self.prepared.is_none() {
            self.prepared = Some(PreparedConvF32::new(
                self.weights.data(),
                &self.shape,
                self.winograd_variant,
            )?);
        }
        let prepared = self.prepared.as_mut().expect("prepared plan built above");
        let mut out_t = Tensor::zeros(Shape::nchw(n, self.shape.out_channels, out_h, out_w));
        prepared.execute_batch_into(input.data(), n, out_t.data_mut())?;
        self.add_bias_batch(&mut out_t, n);
        Ok(out_t)
    }

    /// How many times this layer's winograd plan has executed through the
    /// batched engine. Zero until a [`Conv2d::forward_planned_batch`] call
    /// reaches [`PreparedConvF32::execute_batch_into`]; the batched
    /// inference path asserts on the delta to catch a silent fallback to
    /// per-image execution.
    #[must_use]
    pub fn batched_kernel_executions(&self) -> u64 {
        self.prepared
            .as_ref()
            .map_or(0, PreparedConvF32::batched_executions)
    }

    /// Wrap a raw conv output in a tensor and add the per-channel bias.
    fn finish_output(&self, out: Vec<f32>) -> Result<Tensor, NnError> {
        let g = &self.shape.geometry;
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let mut out_t =
            Tensor::from_vec(Shape::nchw(1, self.shape.out_channels, out_h, out_w), out)?;
        self.add_bias_batch(&mut out_t, 1);
        Ok(out_t)
    }

    /// Add the per-channel bias to every image of a `(N, O, H', W')` buffer.
    fn add_bias_batch(&self, out_t: &mut Tensor, n: usize) {
        let g = &self.shape.geometry;
        let pixels = g.out_h() * g.out_w();
        let out_len = self.shape.out_channels * pixels;
        for img in 0..n {
            for oc in 0..self.shape.out_channels {
                let b = self.bias.data()[oc];
                let base = img * out_len + oc * pixels;
                for v in &mut out_t.data_mut()[base..base + pixels] {
                    *v += b;
                }
            }
        }
    }

    /// Backward pass: accumulates weight/bias gradients and returns the
    /// gradient with respect to the input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if no forward pass cached an
    /// input.
    pub fn backward(&mut self, grad_out: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or(NnError::BackwardBeforeForward)?;
        let g = self.shape.geometry;
        let (out_h, out_w) = (g.out_h(), g.out_w());
        let (in_c, out_c) = (self.shape.in_channels, self.shape.out_channels);
        let pad = g.padding as isize;
        if self.grad_weights.len() != self.weights.len() {
            self.grad_weights = Tensor::zeros(self.weights.shape().clone());
            self.grad_bias = Tensor::zeros(self.bias.shape().clone());
        }
        let mut grad_input = Tensor::zeros(input.shape().clone());
        {
            let gw = self.grad_weights.data_mut();
            let gb = self.grad_bias.data_mut();
            let gi = grad_input.data_mut();
            let go = grad_out.data();
            let xin = input.data();
            let w = self.weights.data();
            for oc in 0..out_c {
                for oy in 0..out_h {
                    for ox in 0..out_w {
                        let go_v = go[(oc * out_h + oy) * out_w + ox];
                        if go_v == 0.0 {
                            continue;
                        }
                        gb[oc] += go_v;
                        for ic in 0..in_c {
                            for ky in 0..g.k_h {
                                let iy = (oy * g.stride + ky) as isize - pad;
                                if iy < 0 || iy >= g.in_h as isize {
                                    continue;
                                }
                                for kx in 0..g.k_w {
                                    let ix = (ox * g.stride + kx) as isize - pad;
                                    if ix < 0 || ix >= g.in_w as isize {
                                        continue;
                                    }
                                    let in_idx = (ic * g.in_h + iy as usize) * g.in_w + ix as usize;
                                    let w_idx = ((oc * in_c + ic) * g.k_h + ky) * g.k_w + kx;
                                    gw[w_idx] += go_v * xin[in_idx];
                                    gi[in_idx] += go_v * w[w_idx];
                                }
                            }
                        }
                    }
                }
            }
        }
        Ok(grad_input)
    }

    /// Parameters and their accumulated gradients, for the optimizer.
    ///
    /// Handing out mutable weight references invalidates the cached winograd
    /// plan — it will be rebuilt from the updated weights on the next
    /// [`Conv2d::forward_planned`].
    pub fn params_and_grads(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        self.prepared = None;
        if self.grad_weights.len() != self.weights.len() {
            self.grad_weights = Tensor::zeros(self.weights.shape().clone());
            self.grad_bias = Tensor::zeros(self.bias.shape().clone());
        }
        vec![
            (&mut self.weights, &mut self.grad_weights),
            (&mut self.bias, &mut self.grad_bias),
        ]
    }

    /// Reset accumulated gradients to zero.
    pub fn zero_grad(&mut self) {
        self.grad_weights = Tensor::zeros(self.weights.shape().clone());
        self.grad_bias = Tensor::zeros(self.bias.shape().clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn layer(in_c: usize, out_c: usize, size: usize, kernel: usize, pad: usize) -> Conv2d {
        let mut rng = SmallRng::seed_from_u64(3);
        Conv2d::new(in_c, out_c, size, kernel, pad, &mut rng)
    }

    #[test]
    fn forward_shape_and_bias() {
        let mut conv = layer(2, 4, 8, 3, 1);
        let input = Tensor::full(Shape::nchw(1, 2, 8, 8), 0.0);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape(), &Shape::nchw(1, 4, 8, 8));
        // Zero input -> output equals the (zero) bias everywhere.
        assert!(out.data().iter().all(|&v| v == 0.0));
        assert_eq!(conv.out_channels(), 4);
        assert_eq!(conv.output_size(), 8);
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut conv = layer(1, 1, 4, 3, 1);
        let grad = Tensor::zeros(Shape::nchw(1, 1, 4, 4));
        assert!(matches!(
            conv.backward(&grad),
            Err(NnError::BackwardBeforeForward)
        ));
    }

    /// Numerical gradient check on a tiny convolution.
    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut conv = Conv2d::new(1, 2, 4, 3, 1, &mut rng);
        let input = Tensor::uniform(Shape::nchw(1, 1, 4, 4), 1.0, &mut rng);
        // Scalar objective: sum of outputs weighted by fixed coefficients.
        let coeffs = Tensor::uniform(Shape::nchw(1, 2, 4, 4), 1.0, &mut rng);
        let objective = |conv: &mut Conv2d, input: &Tensor| -> f32 {
            let out = conv.forward(input).unwrap();
            out.data()
                .iter()
                .zip(coeffs.data())
                .map(|(a, b)| a * b)
                .sum()
        };

        // Analytic gradients.
        let _ = objective(&mut conv, &input);
        conv.zero_grad();
        let _ = conv.forward(&input).unwrap();
        let grad_in = conv.backward(&coeffs).unwrap();

        // Finite differences on a few weights.
        let eps = 1e-3f32;
        for &idx in &[0usize, 5, 10, 17] {
            let orig = conv.weights.data()[idx];
            conv.weights.data_mut()[idx] = orig + eps;
            let plus = objective(&mut conv, &input);
            conv.weights.data_mut()[idx] = orig - eps;
            let minus = objective(&mut conv, &input);
            conv.weights.data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = conv.grad_weights.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * numeric.abs().max(1.0),
                "weight {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }

        // Finite differences on a few input pixels.
        let mut input_var = input.clone();
        for &idx in &[0usize, 7, 15] {
            let orig = input_var.data()[idx];
            input_var.data_mut()[idx] = orig + eps;
            let plus = objective(&mut conv, &input_var);
            input_var.data_mut()[idx] = orig - eps;
            let minus = objective(&mut conv, &input_var);
            input_var.data_mut()[idx] = orig;
            let numeric = (plus - minus) / (2.0 * eps);
            let analytic = grad_in.data()[idx];
            assert!(
                (numeric - analytic).abs() < 2e-2 * numeric.abs().max(1.0),
                "input {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }

        // Bias gradient: derivative of the objective w.r.t. bias oc is the sum
        // of that channel's coefficients.
        for oc in 0..2 {
            let expected: f32 = coeffs.data()[oc * 16..(oc + 1) * 16].iter().sum();
            let got = conv.grad_bias.data()[oc];
            assert!(
                (expected - got).abs() < 1e-3,
                "bias {oc}: {expected} vs {got}"
            );
        }
    }

    #[test]
    fn zero_grad_clears_accumulation() {
        let mut conv = layer(1, 1, 4, 3, 1);
        let input = Tensor::full(Shape::nchw(1, 1, 4, 4), 1.0);
        let grad = Tensor::full(Shape::nchw(1, 1, 4, 4), 1.0);
        let _ = conv.forward(&input).unwrap();
        let _ = conv.backward(&grad).unwrap();
        assert!(conv.grad_weights.max_abs() > 0.0);
        conv.zero_grad();
        assert_eq!(conv.grad_weights.max_abs(), 0.0);
        assert_eq!(conv.params_and_grads().len(), 2);
    }

    #[test]
    fn planned_forward_matches_direct_forward() {
        let mut rng = SmallRng::seed_from_u64(21);
        for (in_c, out_c, size, kernel, pad) in [
            (2usize, 3usize, 8usize, 3usize, 1usize),
            (1, 2, 5, 3, 1),
            (3, 2, 6, 1, 0),
        ] {
            let mut conv = Conv2d::new(in_c, out_c, size, kernel, pad, &mut rng);
            let input = Tensor::uniform(Shape::nchw(1, in_c, size, size), 1.0, &mut rng);
            let direct = conv.forward(&input).unwrap();
            let planned = conv.forward_planned(&input).unwrap();
            assert_eq!(direct.shape(), planned.shape());
            for (d, p) in direct.data().iter().zip(planned.data()) {
                assert!((d - p).abs() < 1e-3, "direct {d} vs planned {p}");
            }
            // Second call reuses the cached plan and stays deterministic.
            let planned2 = conv.forward_planned(&input).unwrap();
            assert_eq!(planned.data(), planned2.data());
        }
    }

    #[test]
    fn planned_cache_is_invalidated_when_weights_change() {
        let mut conv = layer(1, 1, 6, 3, 1);
        let input = Tensor::full(Shape::nchw(1, 1, 6, 6), 1.0);
        let before = conv.forward_planned(&input).unwrap();
        // Mutate the weights the way the optimizer does.
        for (param, _) in conv.params_and_grads() {
            if param.len() == 9 {
                for v in param.data_mut() {
                    *v += 0.5;
                }
            }
        }
        let after = conv.forward_planned(&input).unwrap();
        assert_ne!(
            before.data(),
            after.data(),
            "stale plan served after weight update"
        );
        // And the refreshed plan agrees with direct convolution.
        let direct = conv.forward(&input).unwrap();
        for (d, p) in direct.data().iter().zip(after.data()) {
            assert!((d - p).abs() < 1e-3);
        }
    }

    /// The batched planned forward must be bit-identical to running each
    /// image through `forward_planned`, for winograd-eligible layers and for
    /// the announced 1x1 direct fallback, including N=1 and ragged sizes.
    #[test]
    fn batched_planned_forward_matches_per_image_bit_for_bit() {
        let mut rng = SmallRng::seed_from_u64(31);
        for (in_c, out_c, size, kernel, pad) in [
            (2usize, 3usize, 8usize, 3usize, 1usize),
            (1, 2, 5, 3, 1),
            (3, 2, 6, 1, 0), // non-winograd geometry: direct fallback
        ] {
            for n in [1usize, 2, 5] {
                let mut conv = Conv2d::new(in_c, out_c, size, kernel, pad, &mut rng);
                let images: Vec<Tensor> = (0..n)
                    .map(|_| Tensor::uniform(Shape::nchw(1, in_c, size, size), 1.0, &mut rng))
                    .collect();
                let mut stacked = Vec::new();
                for image in &images {
                    stacked.extend_from_slice(image.data());
                }
                let batch = Tensor::from_vec(Shape::nchw(n, in_c, size, size), stacked).unwrap();
                let batched = conv.forward_planned_batch(&batch).unwrap();
                let out_size = conv.output_size();
                assert_eq!(batched.shape(), &Shape::nchw(n, out_c, out_size, out_size));
                let per_len = out_c * out_size * out_size;
                for (img, image) in images.iter().enumerate() {
                    let single = conv.forward_planned(image).unwrap();
                    assert_eq!(
                        single.data(),
                        &batched.data()[img * per_len..(img + 1) * per_len],
                        "k{kernel} c{in_c}->{out_c} s{size} n{n} image {img}"
                    );
                }
            }
        }
    }

    #[test]
    fn batched_kernel_counter_flags_fallbacks() {
        let mut rng = SmallRng::seed_from_u64(5);
        // Winograd-eligible layer: the counter must advance on a batch.
        let mut conv = Conv2d::new(1, 1, 6, 3, 1, &mut rng);
        let batch = Tensor::uniform(Shape::nchw(2, 1, 6, 6), 1.0, &mut rng);
        assert_eq!(conv.batched_kernel_executions(), 0);
        let _ = conv.forward_planned_batch(&batch).unwrap();
        assert_eq!(conv.batched_kernel_executions(), 1);
        // 1x1 layer: announced direct fallback, counter stays put.
        let mut one = Conv2d::new(1, 1, 6, 1, 0, &mut rng);
        let _ = one.forward_planned_batch(&batch).unwrap();
        assert_eq!(one.batched_kernel_executions(), 0);
    }

    #[test]
    fn batched_forward_rejects_non_batched_input() {
        let mut conv = layer(1, 1, 4, 3, 1);
        let flat = Tensor::zeros(Shape::d2(4, 4));
        assert!(conv.forward_planned_batch(&flat).is_err());
    }

    /// A size-mismatched batch must be an error (not a slice panic) on both
    /// the winograd path and the direct fallback.
    #[test]
    fn batched_forward_rejects_wrong_image_size_on_both_paths() {
        let wrong = Tensor::zeros(Shape::nchw(2, 1, 5, 5));
        let mut wino = layer(1, 1, 6, 3, 1);
        assert!(wino.forward_planned_batch(&wrong).is_err());
        let mut direct = layer(1, 1, 6, 1, 0);
        assert!(direct.forward_planned_batch(&wrong).is_err());
    }

    /// The tile-size knob must reach the planned engine: every variant's
    /// planned forward agrees with direct convolution (F(6x6,3x3) gets the
    /// wider round-off budget of its larger transform), and switching the
    /// knob drops the stale plan.
    #[test]
    fn winograd_variant_knob_threads_through_planned_paths() {
        let mut rng = SmallRng::seed_from_u64(77);
        let mut conv = Conv2d::new(2, 3, 12, 3, 1, &mut rng);
        let input = Tensor::uniform(Shape::nchw(1, 2, 12, 12), 1.0, &mut rng);
        let direct = conv.forward(&input).unwrap();
        for variant in WinogradVariant::all() {
            conv.set_winograd_variant(variant);
            assert_eq!(conv.winograd_variant(), variant);
            let tol = if variant == wgft_winograd::F6X6_3X3 {
                2e-1
            } else {
                2e-2
            };
            let planned = conv.forward_planned(&input).unwrap();
            for (d, p) in direct.data().iter().zip(planned.data()) {
                assert!((d - p).abs() < tol, "{variant}: direct {d} vs planned {p}");
            }
        }
    }

    /// Checkpoint compatibility of the tile knob: the default variant is
    /// left implicit (byte-identical to pre-knob checkpoints, which load
    /// back as F(2x2,3x3)), while a non-default variant round-trips.
    #[test]
    fn winograd_variant_knob_checkpoint_compatibility() {
        let default_layer = layer(1, 1, 6, 3, 1);
        let json = serde_json::to_string(&default_layer).unwrap();
        assert!(!json.contains("winograd_variant"));
        let back: Conv2d = serde_json::from_str(&json).unwrap();
        assert_eq!(back.winograd_variant(), WinogradVariant::default());
        let mut six = layer(1, 1, 6, 3, 1);
        six.set_winograd_variant(wgft_winograd::F6X6_3X3);
        let json6 = serde_json::to_string(&six).unwrap();
        assert!(json6.contains("winograd_variant"));
        let back6: Conv2d = serde_json::from_str(&json6).unwrap();
        assert_eq!(back6.winograd_variant(), wgft_winograd::F6X6_3X3);
    }

    #[test]
    fn one_by_one_convolution_is_supported() {
        let mut conv = layer(3, 5, 6, 1, 0);
        let input = Tensor::full(Shape::nchw(1, 3, 6, 6), 0.5);
        let out = conv.forward(&input).unwrap();
        assert_eq!(out.shape(), &Shape::nchw(1, 5, 6, 6));
    }
}
