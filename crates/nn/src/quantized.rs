//! Quantized fixed-point inference over an instrumented arithmetic backend.
//!
//! [`QuantizedNetwork`] is the execution substrate of every fault-tolerance
//! experiment: a trained floating-point [`Network`] is calibrated and
//! converted to 8-bit or 16-bit fixed point, and every convolution /
//! fully-connected layer then executes its multiply-accumulate work through a
//! [`wgft_faultsim::Arithmetic`] backend, selecting standard or winograd
//! convolution per call. Soft errors injected by a
//! [`wgft_faultsim::FaultyArithmetic`] therefore corrupt exactly the
//! operations the chosen algorithm actually performs — the property that lets
//! the platform distinguish ST-Conv from WG-Conv where neuron-level injectors
//! cannot (Figure 1).
//!
//! Every forward pass is one graph walk over the nodes. The walk owns input
//! quantization, the batch dimension, shape checks, bias requantization and
//! the activation / pooling / join ops; a per-layer executor only fills each
//! compute layer's wide accumulators. There are three: the instrumented
//! per-op engine (optionally with a neuron-level injector), the executable
//! ABFT engines, and the fast uninstrumented kernels (optionally with an
//! ABFT range recorder or an output-latch hook). With no faults injected,
//! all of them give bit-identical logits.

use crate::{InputRef, Layer, Network, NnError};
use serde::{Deserialize, Serialize};
use std::iter::zip;
use wgft_abft::{
    abft_direct_conv, abft_linear, abft_winograd_conv, observe_max, AbftCalibration, AbftEvents,
    AbftMode, AbftPolicy, AbftRun, AbftScratch,
};
use wgft_data::argmax;
use wgft_faultsim::{Arithmetic, ExactArithmetic, NeuronLevelInjector, OpCount};
use wgft_fixedpoint::{BitWidth, QFormat, Quantizer};
use wgft_tensor::{gemm_i32, im2col_quantized, Tensor};
use wgft_winograd::{
    direct_conv_quantized, transform_weights_f32, winograd_conv_quantized_with_scratch,
    ConvAlgorithm, ConvOpModel, ConvShape, PreparedConvQuantizedFast, QuantizedRangeRecord,
    WinogradScratch, WinogradVariant, WinogradWeights,
};

/// Options controlling the float → fixed-point conversion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QuantizerOptions {
    /// Storage width of activations and weights.
    pub width: BitWidth,
    /// Winograd tile variant prepared for the 3x3 layers.
    pub variant: WinogradVariant,
    /// Headroom multiplier applied to calibrated activation ranges.
    pub activation_margin: f32,
}

impl QuantizerOptions {
    /// Options for the given storage width with the paper's defaults
    /// (F(2x2,3x3) tiles, 25 % activation headroom).
    #[must_use]
    pub fn new(width: BitWidth) -> Self {
        Self {
            width,
            variant: WinogradVariant::F2x2,
            activation_margin: 1.25,
        }
    }
}

/// A quantized node operation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum QOp {
    Conv(QConv),
    Linear(QLinear),
    Relu,
    MaxPool {
        channels: usize,
        in_h: usize,
        in_w: usize,
    },
    GlobalAvgPool {
        channels: usize,
        in_h: usize,
        in_w: usize,
    },
    Add,
    Concat,
}

/// A quantized convolution layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct QConv {
    shape: ConvShape,
    weights: Vec<i32>,
    weight_frac: u32,
    /// Winograd-domain weights (3x3 unit-stride layers only).
    winograd: Option<WinogradWeights>,
    winograd_frac: u32,
    bias: Vec<f32>,
    /// Compute-layer id: fault attribution, ABFT policy and ranges.
    layer_id: usize,
}

/// A quantized fully-connected layer with row-major
/// `(out_features, in_features)` weights.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct QLinear {
    in_features: usize,
    out_features: usize,
    weights: Vec<i32>,
    weight_frac: u32,
    bias: Vec<f32>,
    layer_id: usize,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct QNode {
    op: QOp,
    inputs: Vec<InputRef>,
    out_format: QFormat,
}

impl QNode {
    /// Evaluate one image of a non-compute op (activation / pooling / join),
    /// appending its output to `out` and returning the output format. There
    /// is exactly one copy of these semantics, shared by every executor of
    /// the graph walk. Returns `None` for Conv/Linear, which the walk hands
    /// to its executor.
    fn forward_simple<'a, G>(&self, gather: G, out: &mut Vec<i32>) -> Option<QFormat>
    where
        G: Fn(&InputRef) -> (&'a [i32], QFormat),
    {
        Some(match &self.op {
            QOp::Conv(_) | QOp::Linear(_) => return None,
            QOp::Relu => {
                let (input, in_format) = gather(&self.inputs[0]);
                out.extend(input.iter().map(|&v| v.max(0)));
                in_format
            }
            QOp::MaxPool {
                channels,
                in_h,
                in_w,
            } => {
                let (input, in_format) = gather(&self.inputs[0]);
                maxpool_raw(input, *channels, *in_h, *in_w, out);
                in_format
            }
            QOp::GlobalAvgPool {
                channels,
                in_h,
                in_w,
            } => {
                let (input, in_format) = gather(&self.inputs[0]);
                gap_raw(input, *channels, *in_h, *in_w, out);
                in_format
            }
            QOp::Add => {
                let (a, fa) = gather(&self.inputs[0]);
                let (b, fb) = gather(&self.inputs[1]);
                out.extend(a.iter().zip(b.iter()).map(|(&x, &y)| {
                    let sum = fa.dequantize(x) + fb.dequantize(y);
                    self.out_format.quantize(sum)
                }));
                self.out_format
            }
            QOp::Concat => {
                for input_ref in &self.inputs {
                    let (data, fmt) = gather(input_ref);
                    out.extend(data.iter().map(|&v| {
                        self.out_format
                            .requantize_accumulator(i64::from(v), fmt.frac_bits())
                    }));
                }
                self.out_format
            }
        })
    }
}

/// An output-latch fault hook: called on each compute layer's wide
/// accumulator span after the kernel fills it and before requantization
/// (see [`QuantizedNetwork::forward_fast_with_faults`]).
pub type AccumulatorHook<'a> = dyn FnMut(&mut [i64]) + 'a;

/// Prepared per-network state for the **fast uninstrumented** forward pass
/// ([`QuantizedNetwork::forward_fast`]): cached
/// [`PreparedConvQuantizedFast`] plans for every winograd-capable
/// convolution layer plus reusable im2col / accumulator scratch, so the
/// compute kernels allocate nothing per image (the graph walk still
/// allocates one output buffer per node).
///
/// Obtain one from [`QuantizedNetwork::prepare_fast`]; it is only valid for
/// the network that prepared it. Cloning gives an independent scratch for
/// another worker thread.
#[derive(Debug, Clone)]
pub struct FastInference {
    /// Compute-layer id → prepared fast winograd plan (3x3 unit-stride conv
    /// layers with winograd weights only).
    wino: Vec<Option<PreparedConvQuantizedFast>>,
    /// im2col patch matrix scratch for fast direct convolution, `(C·k², P)`.
    im2col: Vec<i32>,
    /// Wide-accumulator scratch shared by all compute layers.
    acc: Vec<i64>,
}

/// A fixed-point network ready for instrumented inference.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuantizedNetwork {
    name: String,
    width: BitWidth,
    variant: WinogradVariant,
    input_format: QFormat,
    nodes: Vec<QNode>,
    compute_layers: usize,
    num_classes: usize,
}

impl QuantizedNetwork {
    /// Convert a trained floating-point network to fixed point.
    ///
    /// `calibration` is a set of representative images used to size the
    /// per-layer activation formats (a handful of training images suffices).
    ///
    /// # Errors
    ///
    /// Returns an [`NnError`] if the network cannot be executed on the
    /// calibration images or a calibration range is degenerate.
    pub fn from_network(
        network: &mut Network,
        calibration: &[Tensor],
        options: QuantizerOptions,
    ) -> Result<Self, NnError> {
        if network.is_empty() {
            return Err(NnError::EmptyNetwork);
        }
        // ---- Calibrate per-node activation ranges over the calibration set.
        let mut node_max = vec![0.0f32; network.len()];
        let mut input_max = 0.0f32;
        for image in calibration {
            input_max = input_max.max(image.max_abs());
            let trace = network.forward_trace(image)?;
            for (max, activation) in node_max.iter_mut().zip(trace.iter()) {
                *max = max.max(activation.max_abs());
            }
        }
        let quantizer = Quantizer::symmetric(options.width).with_margin(options.activation_margin);
        let input_format = quantizer.format_for_max_abs(input_max.max(1e-6));
        let weight_quantizer = Quantizer::symmetric(options.width);

        // Trace of the first calibration image: used to recover the spatial
        // dimensions feeding each pooling node.
        let first_image = calibration
            .first()
            .cloned()
            .unwrap_or_else(|| Tensor::zeros(wgft_tensor::Shape::nchw(1, 1, 8, 8)));
        let first_trace = network.forward_trace(&first_image)?;
        let dims_of_input = |inputs: &[InputRef]| -> (usize, usize, usize) {
            let tensor = match inputs.first() {
                Some(InputRef::Image) | None => &first_image,
                Some(InputRef::Node(n)) => &first_trace[*n],
            };
            let dims = tensor.shape().dims();
            (dims[1], dims[2], dims[3])
        };

        let mut nodes = Vec::with_capacity(network.len());
        let mut layer_id = 0usize;
        let mut num_classes = 0usize;
        for (node, max_abs) in network.nodes().iter().zip(node_max.iter()) {
            let out_format = quantizer.format_for_max_abs(max_abs.max(1e-6));
            let op = match &node.layer {
                Layer::Conv(conv) => {
                    let shape = *conv.conv_shape();
                    let w_f32 = conv.weights().data();
                    let weight_format = weight_quantizer.calibrate(w_f32)?;
                    let weights = weight_format.quantize_slice(w_f32);
                    // Winograd-domain weights for 3x3 unit-stride layers.
                    let (winograd, winograd_frac) = if shape.geometry.is_unit_stride_3x3() {
                        let u = transform_weights_f32(
                            w_f32,
                            shape.out_channels,
                            shape.in_channels,
                            options.variant,
                        )?;
                        let u_format = weight_quantizer.calibrate(&u)?;
                        let u_q = u_format.quantize_slice(&u);
                        (
                            Some(WinogradWeights::new(
                                options.variant,
                                shape.out_channels,
                                shape.in_channels,
                                u_q,
                            )?),
                            u_format.frac_bits(),
                        )
                    } else {
                        (None, 0)
                    };
                    let op = QOp::Conv(QConv {
                        shape,
                        weights,
                        weight_frac: weight_format.frac_bits(),
                        winograd,
                        winograd_frac,
                        bias: conv.bias().data().to_vec(),
                        layer_id,
                    });
                    layer_id += 1;
                    op
                }
                Layer::Linear(linear) => {
                    let w_f32 = linear.weights().data();
                    let weight_format = weight_quantizer.calibrate(w_f32)?;
                    num_classes = linear.out_features();
                    let op = QOp::Linear(QLinear {
                        in_features: linear.in_features(),
                        out_features: linear.out_features(),
                        weights: weight_format.quantize_slice(w_f32),
                        weight_frac: weight_format.frac_bits(),
                        bias: linear.bias().data().to_vec(),
                        layer_id,
                    });
                    layer_id += 1;
                    op
                }
                Layer::Relu(_) => QOp::Relu,
                Layer::MaxPool(_) => {
                    let dims = dims_of_input(&node.inputs);
                    QOp::MaxPool {
                        channels: dims.0,
                        in_h: dims.1,
                        in_w: dims.2,
                    }
                }
                Layer::GlobalAvgPool(_) => {
                    let dims = dims_of_input(&node.inputs);
                    QOp::GlobalAvgPool {
                        channels: dims.0,
                        in_h: dims.1,
                        in_w: dims.2,
                    }
                }
                Layer::Add(_) => QOp::Add,
                Layer::Concat(_) => QOp::Concat,
            };
            nodes.push(QNode {
                op,
                inputs: node.inputs.clone(),
                out_format,
            });
        }

        Ok(Self {
            name: network.name().to_string(),
            width: options.width,
            variant: options.variant,
            input_format,
            nodes,
            compute_layers: layer_id,
            num_classes,
        })
    }

    /// The network's name (copied from the floating-point model).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Storage width of activations and weights.
    #[must_use]
    pub fn width(&self) -> BitWidth {
        self.width
    }

    /// Number of convolution / fully-connected layers (the unit of the paper's
    /// layer-wise analysis and of [`wgft_faultsim::ProtectionPlan`] layer ids).
    #[must_use]
    pub fn compute_layer_count(&self) -> usize {
        self.compute_layers
    }

    /// Number of output classes.
    #[must_use]
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// Analytic per-layer operation counts under the given convolution
    /// algorithm, indexed by compute-layer id.
    #[must_use]
    pub fn layer_op_counts(&self, algo: ConvAlgorithm) -> Vec<OpCount> {
        let mut counts = vec![OpCount::default(); self.compute_layers];
        for node in &self.nodes {
            match &node.op {
                QOp::Conv(conv) => counts[conv.layer_id] = ConvOpModel::count(&conv.shape, algo),
                QOp::Linear(linear) => {
                    let macs = (linear.in_features * linear.out_features) as u64;
                    counts[linear.layer_id] = OpCount {
                        mul: macs,
                        add: macs,
                    };
                }
                _ => {}
            }
        }
        counts
    }

    /// Total operation count under the given algorithm.
    #[must_use]
    pub fn total_op_count(&self, algo: ConvAlgorithm) -> OpCount {
        self.layer_op_counts(algo)
            .into_iter()
            .fold(OpCount::default(), |acc, c| acc + c)
    }

    /// Run inference through the instrumented backend and return the
    /// dequantized logits.
    ///
    /// # Errors
    ///
    /// Returns an [`NnError`] if the graph or buffer shapes are inconsistent.
    pub fn forward<A: Arithmetic>(
        &self,
        image: &Tensor,
        arith: &mut A,
        algo: ConvAlgorithm,
    ) -> Result<Vec<f32>, NnError> {
        self.forward_with_scratch(image, arith, algo, &mut WinogradScratch::new())
    }

    /// [`QuantizedNetwork::forward`] with a caller-owned winograd scratch
    /// arena, so batch evaluation loops can reuse one set of buffers across
    /// many images instead of reallocating per forward pass. Results are
    /// bit-identical to [`QuantizedNetwork::forward`] (the kernels clear the
    /// scratch before use).
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn forward_with_scratch<A: Arithmetic>(
        &self,
        image: &Tensor,
        arith: &mut A,
        algo: ConvAlgorithm,
        scratch: &mut WinogradScratch,
    ) -> Result<Vec<f32>, NnError> {
        let mut exec = Instrumented {
            arith,
            scratch,
            neuron: None,
            acc: Vec::new(),
        };
        self.walk_one(image, algo, &mut exec)
    }

    /// Run inference and return the predicted class.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn classify<A: Arithmetic>(
        &self,
        image: &Tensor,
        arith: &mut A,
        algo: ConvAlgorithm,
    ) -> Result<usize, NnError> {
        Ok(argmax(&self.forward(image, arith, algo)?))
    }

    /// [`QuantizedNetwork::classify`] with a caller-owned winograd scratch
    /// arena (see [`QuantizedNetwork::forward_with_scratch`]).
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn classify_with_scratch<A: Arithmetic>(
        &self,
        image: &Tensor,
        arith: &mut A,
        algo: ConvAlgorithm,
        scratch: &mut WinogradScratch,
    ) -> Result<usize, NnError> {
        Ok(argmax(
            &self.forward_with_scratch(image, arith, algo, scratch)?,
        ))
    }

    /// Prepare the cached plans and scratch of the fast uninstrumented
    /// forward pass ([`QuantizedNetwork::forward_fast`]).
    ///
    /// # Errors
    ///
    /// Returns an [`NnError`] if a winograd-capable layer's cached weights
    /// are inconsistent with its shape (cannot happen for a network built by
    /// [`QuantizedNetwork::from_network`]).
    pub fn prepare_fast(&self) -> Result<FastInference, NnError> {
        let mut wino = vec![None; self.compute_layers];
        for node in &self.nodes {
            if let QOp::Conv(QConv {
                shape,
                winograd: Some(w),
                layer_id,
                ..
            }) = &node.op
            {
                if shape.geometry.is_unit_stride_3x3() {
                    wino[*layer_id] = Some(PreparedConvQuantizedFast::new(w, shape)?);
                }
            }
        }
        Ok(FastInference {
            wino,
            im2col: Vec::new(),
            acc: Vec::new(),
        })
    }

    /// Run **fault-free** inference on the fast uninstrumented path and
    /// return the dequantized logits.
    ///
    /// Convolution layers execute through [`PreparedConvQuantizedFast`]
    /// (winograd) or an im2col [`gemm_i32`] factorization (standard /
    /// non-winograd geometries); fully-connected layers run plain widening
    /// dot products. No [`Arithmetic`] backend is involved, so nothing can
    /// be injected — which is exactly why this path may only stand in for
    /// the instrumented one at BER 0.
    ///
    /// The logits are **bit-identical** to
    /// [`QuantizedNetwork::forward`] over [`ExactArithmetic`] (integer
    /// kernels are exact; the graph walk, requantization and the
    /// activation/pooling/join semantics are the literal same code) — the
    /// tested guarantee that lets campaign clean baselines, BER=0 sweep
    /// cells and ABFT calibration route here without changing a single
    /// journaled result.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn forward_fast(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        fast: &mut FastInference,
    ) -> Result<Vec<f32>, NnError> {
        self.walk_one(image, algo, &mut Fast::new(fast))
    }

    /// [`QuantizedNetwork::forward_fast`] returning the predicted class.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn classify_fast(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        fast: &mut FastInference,
    ) -> Result<usize, NnError> {
        Ok(argmax(&self.forward_fast(image, algo, fast)?))
    }

    /// [`QuantizedNetwork::forward_fast`] with an output-latch fault hook:
    /// after each compute layer's kernel fills its wide accumulators —
    /// and before requantization — `corrupt` is called on the accumulator
    /// span, modelling soft errors striking a matrix engine's output
    /// latches (pass [`wgft_faultsim::GemmFaultInjector::corrupt_i64`]).
    ///
    /// With a hook that never writes, the logits are bit-identical to
    /// [`QuantizedNetwork::forward_fast`] — tested — so the hook's strikes
    /// are the *only* difference between the faulty and clean executions.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn forward_fast_with_faults(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        fast: &mut FastInference,
        corrupt: &mut AccumulatorHook<'_>,
    ) -> Result<Vec<f32>, NnError> {
        let mut exec = Fast::new(fast);
        exec.hook = Some(corrupt);
        self.walk_one(image, algo, &mut exec)
    }

    /// [`QuantizedNetwork::forward_fast_with_faults`] returning the
    /// predicted class.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn classify_fast_with_faults(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        fast: &mut FastInference,
        corrupt: &mut AccumulatorHook<'_>,
    ) -> Result<usize, NnError> {
        Ok(argmax(
            &self.forward_fast_with_faults(image, algo, fast, corrupt)?,
        ))
    }

    /// Run **fault-free** inference on the fast path for a whole batch of
    /// images at once, returning one logits vector per image.
    ///
    /// Winograd convolution layers coalesce the batch into the planned
    /// engine's GEMM free dimension (`N·P` tiles via
    /// [`PreparedConvQuantizedFast::execute_batch_into`]); every other op
    /// runs the literal single-image code per image. Both are bit-identical
    /// to per-image execution — tested — so the logits equal `n` calls to
    /// [`QuantizedNetwork::forward_fast`] for **any** batch coalescing
    /// schedule. This is the substrate of `wgft-serve`'s micro-batching:
    /// how concurrent requests were grouped can never change an answer.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`]; additionally rejects batches
    /// whose images disagree in length.
    pub fn forward_fast_batch<T: AsRef<Tensor>>(
        &self,
        images: &[T],
        algo: ConvAlgorithm,
        fast: &mut FastInference,
    ) -> Result<Vec<Vec<f32>>, NnError> {
        self.walk(images, algo, &mut Fast::new(fast))
    }

    /// [`QuantizedNetwork::forward_fast_batch`] returning one predicted
    /// class per image.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward_fast_batch`].
    pub fn classify_fast_batch<T: AsRef<Tensor>>(
        &self,
        images: &[T],
        algo: ConvAlgorithm,
        fast: &mut FastInference,
    ) -> Result<Vec<usize>, NnError> {
        Ok(self
            .forward_fast_batch(images, algo, fast)?
            .iter()
            .map(|logits| argmax(logits))
            .collect())
    }

    /// Run inference with a *neuron-level* injector corrupting every compute
    /// layer's output values (the TensorFI/PyTorchFI-style baseline of
    /// Figure 1). The arithmetic itself is exact.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn forward_with_neuron_faults(
        &self,
        image: &Tensor,
        injector: &mut NeuronLevelInjector,
        algo: ConvAlgorithm,
    ) -> Result<Vec<f32>, NnError> {
        self.forward_with_neuron_faults_scratch(image, injector, algo, &mut WinogradScratch::new())
    }

    /// [`QuantizedNetwork::forward_with_neuron_faults`] with a caller-owned
    /// winograd scratch arena for batch evaluation loops.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn forward_with_neuron_faults_scratch(
        &self,
        image: &Tensor,
        injector: &mut NeuronLevelInjector,
        algo: ConvAlgorithm,
        scratch: &mut WinogradScratch,
    ) -> Result<Vec<f32>, NnError> {
        // The neuron-level baseline always sees the *standard* convolution
        // operation volume: a generic framework has no visibility into the
        // conv algorithm, which is exactly the blind spot Figure 1 exposes.
        let mut exec = Instrumented {
            arith: &mut ExactArithmetic::new(),
            scratch,
            neuron: Some((injector, self.layer_op_counts(ConvAlgorithm::Standard))),
            acc: Vec::new(),
        };
        self.walk_one(image, algo, &mut exec)
    }

    /// Run inference under an executable [`AbftPolicy`]: convolution and
    /// fully-connected layers whose mode is not [`AbftMode::Off`] execute
    /// through the protected `wgft-abft` engines (checksummed GEMMs,
    /// transform guards, range restriction), still issuing every primitive
    /// operation through `arith` so injected faults strike the protected
    /// datapath exactly as they strike the unprotected one.
    ///
    /// `calibration` supplies the per-layer value ranges that range
    /// restriction clips against (obtain one from
    /// [`QuantizedNetwork::calibrate_abft`]); without it, clipping modes run
    /// their checks but never clip. Detection/correction/clip events and the
    /// exact protection overhead accumulate into `events`.
    ///
    /// With an all-[`AbftMode::Off`] policy the layers run the stock
    /// instrumented kernels and perform exactly the operation counts of
    /// [`QuantizedNetwork::forward`] (the fully-connected layer issues its
    /// multiplies with the operand order swapped, so under fault injection
    /// the two unprotected paths are statistically — not bit — identical).
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    #[allow(clippy::too_many_arguments)]
    pub fn forward_abft<A: Arithmetic>(
        &self,
        image: &Tensor,
        arith: &mut A,
        algo: ConvAlgorithm,
        policy: &AbftPolicy,
        calibration: Option<&AbftCalibration>,
        scratch: &mut AbftScratch,
        events: &mut AbftEvents,
    ) -> Result<Vec<f32>, NnError> {
        let mut exec = Protected {
            arith,
            policy,
            calibration,
            scratch,
            events,
            record: None,
            acc: Vec::new(),
        };
        self.walk_one(image, algo, &mut exec)
    }

    /// [`QuantizedNetwork::forward_abft`] returning the predicted class.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    #[allow(clippy::too_many_arguments)]
    pub fn classify_abft<A: Arithmetic>(
        &self,
        image: &Tensor,
        arith: &mut A,
        algo: ConvAlgorithm,
        policy: &AbftPolicy,
        calibration: Option<&AbftCalibration>,
        scratch: &mut AbftScratch,
        events: &mut AbftEvents,
    ) -> Result<usize, NnError> {
        Ok(argmax(&self.forward_abft(
            image,
            arith,
            algo,
            policy,
            calibration,
            scratch,
            events,
        )?))
    }

    /// Record the fault-free per-layer value ranges (winograd-domain inputs,
    /// GEMM products, output accumulators) over a set of calibration images
    /// — the bounds range restriction clips against.
    ///
    /// Calibration is inherently fault-free, so it runs on the fast
    /// uninstrumented path ([`QuantizedNetwork::forward_fast`]) with a range
    /// recorder attached; the resulting [`AbftCalibration`] is identical to
    /// a fault-free pass through the protected `wgft-abft` engines with
    /// their range recorders attached, because both observe the same exact
    /// integer values — tested against that reference pass.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward`].
    pub fn calibrate_abft(
        &self,
        images: &[Tensor],
        algo: ConvAlgorithm,
    ) -> Result<AbftCalibration, NnError> {
        let mut calibration = AbftCalibration::new(self.compute_layers);
        let mut fast = self.prepare_fast()?;
        for image in images {
            let mut exec = Fast::new(&mut fast);
            exec.record = Some(&mut calibration);
            self.walk_one(image, algo, &mut exec)?;
        }
        Ok(calibration)
    }

    /// [`QuantizedNetwork::walk`] over a single image.
    fn walk_one<E: LayerExec>(
        &self,
        image: &Tensor,
        algo: ConvAlgorithm,
        exec: &mut E,
    ) -> Result<Vec<f32>, NnError> {
        let mut logits = self.walk(std::slice::from_ref(image), algo, exec)?;
        Ok(logits.pop().expect("one image in, one logits vector out"))
    }

    /// The graph walk every forward pass runs: quantize the batch, then
    /// execute the nodes in order with `exec` filling each compute layer's
    /// wide accumulators, and dequantize the last node's output per image.
    ///
    /// Each node's output holds the batch image-major and contiguous (image
    /// `i` at `[i·len, (i+1)·len)`), so a downstream node's whole input slab
    /// is its producer's buffer.
    fn walk<E: LayerExec, T: AsRef<Tensor>>(
        &self,
        images: &[T],
        algo: ConvAlgorithm,
        exec: &mut E,
    ) -> Result<Vec<Vec<f32>>, NnError> {
        let n = images.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let image_len = images[0].as_ref().data().len();
        let mut image_q = Vec::with_capacity(n * image_len);
        for image in images {
            let data = image.as_ref().data();
            if data.len() != image_len {
                return Err(NnError::WrongInputCount {
                    layer: "batched image",
                    expected: image_len,
                    actual: data.len(),
                });
            }
            image_q.extend(data.iter().map(|&v| self.input_format.quantize(v)));
        }
        assert!(
            E::BATCHED || n == 1,
            "per-op executors run one image per walk"
        );
        let winograd_algo = matches!(algo, ConvAlgorithm::Winograd(_));
        let mut outputs: Vec<(Vec<i32>, QFormat, usize)> = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            let slab = |r: &InputRef| -> (&[i32], QFormat, usize) {
                match r {
                    InputRef::Image => (&image_q, self.input_format, image_len),
                    InputRef::Node(nd) => {
                        let (data, fmt, len) = &outputs[*nd];
                        (data, *fmt, *len)
                    }
                }
            };
            let mut out = Vec::new();
            let produced = match &node.op {
                QOp::Conv(conv) => {
                    let (input, in_format, in_len) = slab(&node.inputs[0]);
                    let shape = &conv.shape;
                    if in_len != shape.input_len() {
                        return Err(wgft_winograd::WinogradError::BufferSizeMismatch {
                            what: "input",
                            expected: shape.input_len(),
                            actual: in_len,
                        }
                        .into());
                    }
                    let winograd = conv
                        .winograd
                        .as_ref()
                        .filter(|_| winograd_algo && shape.geometry.is_unit_stride_3x3());
                    let weight_frac = match winograd {
                        Some(_) => conv.winograd_frac,
                        None => conv.weight_frac,
                    };
                    let acc = exec.conv(conv, winograd, input, n)?;
                    requantize_with_bias(
                        acc,
                        in_format.frac_bits() + weight_frac,
                        &conv.bias,
                        shape.geometry.out_pixels(),
                        node.out_format,
                        &mut out,
                    );
                    Some((conv.layer_id, shape.output_len()))
                }
                QOp::Linear(linear) => {
                    let (input, in_format, in_len) = slab(&node.inputs[0]);
                    if in_len != linear.in_features {
                        return Err(NnError::WrongInputCount {
                            layer: "quantized linear",
                            expected: linear.in_features,
                            actual: in_len,
                        });
                    }
                    let acc = exec.linear(linear, input, n)?;
                    let acc_frac = in_format.frac_bits() + linear.weight_frac;
                    let scale = (1u64 << acc_frac) as f64;
                    out.extend(acc.iter().zip(linear.bias.iter().cycle()).map(|(&a, &b)| {
                        let bias_acc = (f64::from(b) * scale).round() as i64;
                        // Saturating for the same reason as `requantize_with_bias`.
                        node.out_format
                            .requantize_accumulator(a.saturating_add(bias_acc), acc_frac)
                    }));
                    Some((linear.layer_id, linear.out_features))
                }
                _ => None,
            };
            let (format, len) = if let Some((layer_id, len)) = produced {
                for i in 0..n {
                    exec.after_requantize(layer_id, &mut out[i * len..(i + 1) * len]);
                }
                (node.out_format, len)
            } else {
                let mut format = node.out_format;
                for i in 0..n {
                    let gather = |r: &InputRef| -> (&[i32], QFormat) {
                        let (data, fmt, len) = slab(r);
                        (&data[i * len..(i + 1) * len], fmt)
                    };
                    format = node
                        .forward_simple(gather, &mut out)
                        .expect("non-compute ops handled by forward_simple");
                }
                (format, out.len() / n)
            };
            outputs.push((out, format, len));
        }
        let (raw, format, len) = outputs.last().ok_or(NnError::EmptyNetwork)?;
        Ok((0..n)
            .map(|i| format.dequantize_slice(&raw[i * len..(i + 1) * len]))
            .collect())
    }
}

/// One way of executing compute layers. An executor fills the wide
/// accumulators of a conv or linear layer for `n` image-major images and
/// returns them (`n · out_len` values); the graph walk does everything
/// else — quantization, batching, shape checks, the winograd predicate,
/// bias requantization and the non-compute ops — so every executor shares
/// one copy of those semantics. Executors are static type parameters of
/// the walk, never trait objects, so the fast path pays nothing for the
/// seam.
trait LayerExec {
    /// Whether the executor takes more than one image per walk. Per-op
    /// executors do not: their entry points take a single image.
    const BATCHED: bool = false;

    /// Run `conv` as winograd with `winograd`'s weights when given, else as
    /// standard convolution.
    fn conv(
        &mut self,
        conv: &QConv,
        winograd: Option<&WinogradWeights>,
        input: &[i32],
        n: usize,
    ) -> Result<&[i64], NnError>;

    fn linear(&mut self, linear: &QLinear, input: &[i32], n: usize) -> Result<&[i64], NnError>;

    /// Called on each image's requantized output of compute layer `layer`.
    fn after_requantize(&mut self, _layer: usize, _out: &mut [i32]) {}
}

/// Every multiply-accumulate through an instrumented [`Arithmetic`]
/// backend, optionally with a neuron-level injector corrupting each compute
/// layer's requantized outputs (paired with the standard-convolution
/// operation counts it scales its per-neuron rate by).
struct Instrumented<'a, A> {
    arith: &'a mut A,
    scratch: &'a mut WinogradScratch,
    neuron: Option<(&'a mut NeuronLevelInjector, Vec<OpCount>)>,
    acc: Vec<i64>,
}

impl<A: Arithmetic> LayerExec for Instrumented<'_, A> {
    fn conv(
        &mut self,
        conv: &QConv,
        winograd: Option<&WinogradWeights>,
        input: &[i32],
        _n: usize,
    ) -> Result<&[i64], NnError> {
        let (arith, id, shape) = (&mut *self.arith, conv.layer_id, &conv.shape);
        self.acc = match winograd {
            Some(w) => {
                winograd_conv_quantized_with_scratch(arith, id, input, w, shape, self.scratch)?
            }
            None => direct_conv_quantized(arith, id, input, &conv.weights, shape)?,
        };
        Ok(&self.acc)
    }

    fn linear(&mut self, linear: &QLinear, input: &[i32], _n: usize) -> Result<&[i64], NnError> {
        self.arith.begin_layer(linear.layer_id);
        self.acc.clear();
        for row in linear.weights.chunks(linear.in_features.max(1)) {
            let mut acc = 0i64;
            for (&w, &x) in row.iter().zip(input) {
                let product = self.arith.mul(i64::from(x), i64::from(w));
                acc = self.arith.add(acc, product);
            }
            self.acc.push(acc);
        }
        Ok(&self.acc)
    }

    fn after_requantize(&mut self, layer: usize, out: &mut [i32]) {
        if let Some((injector, standard_counts)) = self.neuron.as_mut() {
            let per_neuron = standard_counts[layer].total() / out.len().max(1) as u64;
            injector.corrupt_layer(out, per_neuron);
        }
    }
}

/// The executable-ABFT engines of `wgft-abft` under an [`AbftPolicy`]:
/// layers whose mode is off run the stock instrumented kernels unless a
/// range recorder is attached.
struct Protected<'a, A> {
    arith: &'a mut A,
    policy: &'a AbftPolicy,
    calibration: Option<&'a AbftCalibration>,
    scratch: &'a mut AbftScratch,
    events: &'a mut AbftEvents,
    /// Fault-free range recorder (the instrumented calibration reference).
    record: Option<&'a mut AbftCalibration>,
    acc: Vec<i64>,
}

impl<'a, A> Protected<'a, A> {
    fn run(&self, layer: usize) -> AbftRun<'a> {
        AbftRun {
            mode: self.policy.mode_for(layer),
            recompute: self.policy.recompute_on_detect,
            margin: self.policy.range_margin,
            ranges: self.calibration.and_then(|c| c.layer(layer)),
        }
    }
}

impl<A: Arithmetic> LayerExec for Protected<'_, A> {
    fn conv(
        &mut self,
        conv: &QConv,
        winograd: Option<&WinogradWeights>,
        input: &[i32],
        _n: usize,
    ) -> Result<&[i64], NnError> {
        let (id, shape, weights) = (conv.layer_id, &conv.shape, &conv.weights);
        let run = self.run(id);
        let engine = run.mode != AbftMode::Off || self.record.is_some();
        let rec = self.record.as_deref_mut().map(|c| c.layer_mut(id));
        let (arith, scratch, events) = (&mut *self.arith, &mut *self.scratch, &mut *self.events);
        self.acc = match (winograd, engine) {
            (Some(w), true) => {
                abft_winograd_conv(arith, id, input, w, shape, scratch, run, rec, events)?
            }
            (Some(w), false) => {
                winograd_conv_quantized_with_scratch(arith, id, input, w, shape, &mut scratch.wino)?
            }
            (None, true) => {
                abft_direct_conv(arith, id, input, weights, shape, scratch, run, rec, events)?
            }
            (None, false) => direct_conv_quantized(arith, id, input, weights, shape)?,
        };
        Ok(&self.acc)
    }

    fn linear(&mut self, linear: &QLinear, input: &[i32], _n: usize) -> Result<&[i64], NnError> {
        let (id, w) = (linear.layer_id, &linear.weights);
        let (k, o) = (linear.in_features, linear.out_features);
        let run = self.run(id);
        let rec = self.record.as_deref_mut().map(|c| c.layer_mut(id));
        let (arith, scratch, events) = (&mut *self.arith, &mut *self.scratch, &mut *self.events);
        self.acc = abft_linear(arith, id, input, w, k, o, scratch, run, rec, events);
        Ok(&self.acc)
    }
}

/// The fast uninstrumented kernels of a [`FastInference`], optionally with
/// an ABFT range recorder and an output-latch [`AccumulatorHook`].
struct Fast<'a, 'h> {
    fast: &'a mut FastInference,
    record: Option<&'a mut AbftCalibration>,
    hook: Option<&'a mut AccumulatorHook<'h>>,
}

impl<'a> Fast<'a, '_> {
    fn new(fast: &'a mut FastInference) -> Self {
        Self {
            fast,
            record: None,
            hook: None,
        }
    }
}

impl LayerExec for Fast<'_, '_> {
    const BATCHED: bool = true;

    fn conv(
        &mut self,
        conv: &QConv,
        winograd: Option<&WinogradWeights>,
        input: &[i32],
        n: usize,
    ) -> Result<&[i64], NnError> {
        let FastInference { wino, im2col, acc } = &mut *self.fast;
        let (in_len, out_len) = (conv.shape.input_len(), conv.shape.output_len());
        acc.clear();
        acc.resize(n * out_len, 0);
        if winograd.is_some() {
            let plan = wino[conv.layer_id]
                .as_mut()
                .expect("prepare_fast plans every winograd-capable layer");
            if let Some(cal) = self.record.as_deref_mut() {
                // Calibration walks one image at a time; the recording
                // entry point rejects a batch.
                let mut ranges = QuantizedRangeRecord::new();
                plan.execute_into_recording(input, acc, &mut ranges)?;
                let layer = cal.layer_mut(conv.layer_id);
                layer.v_max = layer.v_max.max(ranges.v_max);
                layer.gemm_max = layer.gemm_max.max(ranges.gemm_max);
            } else {
                plan.execute_batch_into(input, n, acc)?;
            }
        } else {
            // The im2col factorization — weights `(O × C·k²)` times patches
            // `(C·k² × P)` — through the blocked `gemm_i32` microkernel.
            // Padding taps multiply zeros instead of being skipped, so the
            // accumulators are bit-identical to `direct_conv_quantized` over
            // exact arithmetic (zero products add nothing to exact sums).
            let (c, g) = (conv.shape.in_channels, &conv.shape.geometry);
            let (o, kdim, p) = (conv.shape.out_channels, c * g.k_h * g.k_w, g.out_pixels());
            for (src, dst) in zip(input.chunks(in_len.max(1)), acc.chunks_mut(out_len.max(1))) {
                im2col_quantized(src, c, g, im2col);
                gemm_i32(&conv.weights, im2col, dst, o, kdim, p);
            }
        }
        latch_and_record(&mut self.hook, &mut self.record, conv.layer_id, acc);
        Ok(acc)
    }

    fn linear(&mut self, linear: &QLinear, input: &[i32], n: usize) -> Result<&[i64], NnError> {
        let (k, outs) = (linear.in_features, linear.out_features);
        let acc = &mut self.fast.acc;
        acc.clear();
        acc.resize(n * outs, 0);
        for (i, acc_image) in acc.chunks_mut(outs.max(1)).enumerate() {
            let image = &input[i * k..(i + 1) * k];
            for (acc_v, row) in acc_image.iter_mut().zip(linear.weights.chunks(k.max(1))) {
                *acc_v = row
                    .iter()
                    .zip(image)
                    .map(|(&w, &x)| i64::from(x) * i64::from(w))
                    .sum();
            }
        }
        latch_and_record(&mut self.hook, &mut self.record, linear.layer_id, acc);
        Ok(acc)
    }
}

/// The fast path's per-layer taps, between the kernel and requantization:
/// the output-latch hook strikes the accumulators, then the range recorder
/// folds in their maximum.
fn latch_and_record(
    hook: &mut Option<&mut AccumulatorHook<'_>>,
    record: &mut Option<&mut AbftCalibration>,
    layer: usize,
    acc: &mut [i64],
) {
    if let Some(hook) = hook.as_deref_mut() {
        hook(acc);
    }
    if let Some(cal) = record.as_deref_mut() {
        let layer = cal.layer_mut(layer);
        layer.acc_max = layer.acc_max.max(observe_max(acc));
    }
}

/// Requantize image-major conv accumulators into `out`, adding the
/// per-channel bias in the accumulator domain. The bias is scaled once per
/// channel, with the same expression for every pixel of it; channels cycle
/// through `bias` from one image to the next.
fn requantize_with_bias(
    acc: &[i64],
    acc_frac: u32,
    bias: &[f32],
    pixels_per_channel: usize,
    out_format: QFormat,
    out: &mut Vec<i32>,
) {
    let scale = (1u64 << acc_frac) as f64;
    out.reserve(acc.len());
    let channels = acc.chunks(pixels_per_channel.max(1));
    for (channel, &b) in channels.zip(bias.iter().cycle()) {
        let bias_acc = (f64::from(b) * scale).round() as i64;
        // The bias add saturates: fault injection can leave accumulators
        // near the i64 extremes, and the add must not overflow (clean
        // accumulators sit far below the saturation region, so this never
        // changes exact results).
        out_format.requantize_biased_into(channel, bias_acc, acc_frac, out);
    }
}

/// 2x2/stride-2 max pooling on raw quantized words, appended to `out`.
fn maxpool_raw(input: &[i32], channels: usize, in_h: usize, in_w: usize, out: &mut Vec<i32>) {
    let (oh, ow) = (in_h / 2, in_w / 2);
    out.reserve(channels * oh * ow);
    for c in 0..channels {
        for oy in 0..oh {
            for ox in 0..ow {
                let mut best = i32::MIN;
                for dy in 0..2 {
                    for dx in 0..2 {
                        let idx = (c * in_h + oy * 2 + dy) * in_w + ox * 2 + dx;
                        best = best.max(input[idx]);
                    }
                }
                out.push(best);
            }
        }
    }
}

/// Global average pooling on raw quantized words (rounded mean), appended
/// to `out`.
fn gap_raw(input: &[i32], channels: usize, in_h: usize, in_w: usize, out: &mut Vec<i32>) {
    let area = (in_h * in_w) as i64;
    out.extend((0..channels).map(|c| {
        let base = c * in_h * in_w;
        let sum: i64 = input[base..base + in_h * in_w]
            .iter()
            .map(|&v| i64::from(v))
            .sum();
        (sum + area / 2).div_euclid(area.max(1)) as i32
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::models::ModelKind;
    use crate::{TrainConfig, Trainer};
    use wgft_data::{Dataset, SyntheticSpec};
    use wgft_faultsim::{BitErrorRate, FaultConfig, FaultyArithmetic};

    impl QuantizedNetwork {
        /// The instrumented reference for [`QuantizedNetwork::calibrate_abft`]:
        /// a fault-free pass through the protected executors with their
        /// range recorders attached — the ground truth the fast calibration
        /// must reproduce exactly.
        fn calibrate_abft_instrumented(
            &self,
            images: &[Tensor],
            algo: ConvAlgorithm,
        ) -> Result<AbftCalibration, NnError> {
            let mut calibration = AbftCalibration::new(self.compute_layers);
            let mut scratch = AbftScratch::new();
            let policy = AbftPolicy::off();
            for image in images {
                let mut exec = Protected {
                    arith: &mut ExactArithmetic::new(),
                    policy: &policy,
                    calibration: None,
                    scratch: &mut scratch,
                    events: &mut AbftEvents::new(),
                    record: Some(&mut calibration),
                    acc: Vec::new(),
                };
                self.walk_one(image, algo, &mut exec)?;
            }
            Ok(calibration)
        }
    }

    fn trained_tiny() -> (crate::Network, Dataset, SyntheticSpec) {
        let spec = SyntheticSpec::tiny();
        let data = Dataset::synthetic(&spec, 16, 3);
        let mut net = ModelKind::VggSmall.build(&spec, 5);
        let mut trainer = Trainer::new(TrainConfig {
            epochs: 6,
            ..TrainConfig::fast()
        });
        trainer.fit(&mut net, &data).unwrap();
        (net, data, spec)
    }

    #[test]
    fn quantized_network_matches_float_predictions_mostly() {
        let (mut net, data, spec) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(8)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W16),
        )
        .unwrap();
        assert_eq!(qnet.width(), BitWidth::W16);
        assert_eq!(qnet.num_classes(), spec.num_classes);
        assert!(qnet.compute_layer_count() >= 6);
        assert_eq!(qnet.name(), "vgg_small");

        let mut agree = 0usize;
        let eval: Vec<_> = data.samples().iter().take(16).collect();
        for sample in &eval {
            let float_pred = argmax(net.forward(&sample.image).unwrap().data());
            let mut arith = ExactArithmetic::new();
            let q_pred = qnet
                .classify(&sample.image, &mut arith, ConvAlgorithm::Standard)
                .unwrap();
            if float_pred == q_pred {
                agree += 1;
            }
        }
        assert!(
            agree * 10 >= eval.len() * 8,
            "int16 quantization should agree with float on most samples ({agree}/{})",
            eval.len()
        );
    }

    #[test]
    fn winograd_and_standard_agree_without_faults() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(8)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W16),
        )
        .unwrap();
        let mut agree = 0usize;
        let eval: Vec<_> = data.samples().iter().take(16).collect();
        for sample in &eval {
            let mut a1 = ExactArithmetic::new();
            let mut a2 = ExactArithmetic::new();
            let std_pred = qnet
                .classify(&sample.image, &mut a1, ConvAlgorithm::Standard)
                .unwrap();
            let wg_pred = qnet
                .classify(&sample.image, &mut a2, ConvAlgorithm::winograd_default())
                .unwrap();
            if std_pred == wg_pred {
                agree += 1;
            }
        }
        assert!(
            agree * 10 >= eval.len() * 8,
            "winograd should agree with standard ({agree})"
        );
    }

    #[test]
    fn winograd_execution_issues_fewer_multiplications() {
        // Operation counts do not depend on training, so use an untrained
        // 16x16 model where boundary effects do not mask the winograd gain.
        let spec = SyntheticSpec::small();
        let data = Dataset::synthetic(&spec, 2, 3);
        let mut net = ModelKind::VggSmall.build(&spec, 5);
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(4)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W8),
        )
        .unwrap();
        let image = &data.samples()[0].image;
        let mut std_arith = ExactArithmetic::new();
        qnet.forward(image, &mut std_arith, ConvAlgorithm::Standard)
            .unwrap();
        let mut wg_arith = ExactArithmetic::new();
        qnet.forward(image, &mut wg_arith, ConvAlgorithm::winograd_default())
            .unwrap();
        let std_mul = std_arith.counters().total().mul;
        let wg_mul = wg_arith.counters().total().mul;
        assert!(
            (wg_mul as f64) < 0.65 * std_mul as f64,
            "winograd inference should use far fewer muls ({wg_mul} vs {std_mul})"
        );
        // Analytic totals should be in the same ballpark as the measurements.
        let analytic_std = qnet.total_op_count(ConvAlgorithm::Standard);
        assert!((analytic_std.mul as f64) >= std_mul as f64 * 0.9);
    }

    #[test]
    fn layer_op_counts_cover_all_compute_layers() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(2)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W8),
        )
        .unwrap();
        let counts = qnet.layer_op_counts(ConvAlgorithm::Standard);
        assert_eq!(counts.len(), qnet.compute_layer_count());
        assert!(counts.iter().all(|c| c.total() > 0));
    }

    #[test]
    fn high_fault_rate_destroys_accuracy() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(4)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W16),
        )
        .unwrap();
        let eval: Vec<_> = data.samples().iter().take(12).collect();
        let mut clean_correct = 0usize;
        let mut faulty_correct = 0usize;
        for (i, sample) in eval.iter().enumerate() {
            let mut exact = ExactArithmetic::new();
            if qnet
                .classify(&sample.image, &mut exact, ConvAlgorithm::Standard)
                .unwrap()
                == sample.label
            {
                clean_correct += 1;
            }
            let config = FaultConfig::new(BitErrorRate::new(5e-3), BitWidth::W16);
            let mut faulty = FaultyArithmetic::new(config, i as u64);
            if qnet
                .classify(&sample.image, &mut faulty, ConvAlgorithm::Standard)
                .unwrap()
                == sample.label
            {
                faulty_correct += 1;
            }
        }
        assert!(
            faulty_correct < clean_correct,
            "a huge fault rate must hurt accuracy (clean {clean_correct}, faulty {faulty_correct})"
        );
    }

    #[test]
    fn neuron_level_injection_corrupts_predictions_at_high_rates() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(4)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W16),
        )
        .unwrap();
        let image = &data.samples()[0].image;
        let mut injector = NeuronLevelInjector::new(BitErrorRate::new(1e-3), BitWidth::W16, 9);
        let corrupted = qnet
            .forward_with_neuron_faults(image, &mut injector, ConvAlgorithm::Standard)
            .unwrap();
        let mut exact = ExactArithmetic::new();
        let clean = qnet
            .forward(image, &mut exact, ConvAlgorithm::Standard)
            .unwrap();
        assert_ne!(
            clean, corrupted,
            "heavy neuron corruption must perturb the logits"
        );
    }

    /// The tentpole guarantee at network level: the fast uninstrumented
    /// forward pass must produce **bit-identical** logits to the
    /// instrumented forward pass on exact arithmetic, for both algorithms
    /// and both storage widths, across the evaluation set.
    #[test]
    fn fast_forward_is_bit_identical_to_instrumented_forward() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(8)
            .map(|s| s.image.clone())
            .collect();
        for width in [BitWidth::W8, BitWidth::W16] {
            let qnet = QuantizedNetwork::from_network(
                &mut net,
                &calibration,
                QuantizerOptions::new(width),
            )
            .unwrap();
            let mut fast = qnet.prepare_fast().unwrap();
            for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
                for sample in data.samples().iter().take(12) {
                    let mut arith = ExactArithmetic::new();
                    let reference = qnet.forward(&sample.image, &mut arith, algo).unwrap();
                    let fast_logits = qnet.forward_fast(&sample.image, algo, &mut fast).unwrap();
                    assert_eq!(
                        reference, fast_logits,
                        "{width:?} {algo:?}: fast logits diverged"
                    );
                    assert_eq!(
                        argmax(&reference),
                        qnet.classify_fast(&sample.image, algo, &mut fast).unwrap()
                    );
                }
            }
        }
    }

    /// The serving guarantee at network level: batched fast inference must
    /// be **bit-identical** to per-image fast inference for every batch
    /// size (i.e. any coalescing schedule), both algorithms, on a trained
    /// model. `forward_fast` is itself bit-identical to the instrumented
    /// exact forward (tested above), so this chains all the way down.
    #[test]
    fn batched_fast_forward_is_bit_identical_to_sequential() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(8)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W8),
        )
        .unwrap();
        let images: Vec<Tensor> = data
            .samples()
            .iter()
            .take(7)
            .map(|s| s.image.clone())
            .collect();
        let mut fast = qnet.prepare_fast().unwrap();
        for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
            let sequential: Vec<Vec<f32>> = images
                .iter()
                .map(|img| qnet.forward_fast(img, algo, &mut fast).unwrap())
                .collect();
            for batch in [1usize, 2, 3, 5, 7] {
                let mut batched = Vec::new();
                for chunk in images.chunks(batch) {
                    batched.extend(qnet.forward_fast_batch(chunk, algo, &mut fast).unwrap());
                }
                assert_eq!(
                    sequential, batched,
                    "{algo:?}: batch size {batch} diverged from sequential"
                );
            }
            let preds = qnet.classify_fast_batch(&images, algo, &mut fast).unwrap();
            let seq_preds: Vec<usize> = sequential.iter().map(|l| argmax(l)).collect();
            assert_eq!(preds, seq_preds);
        }
        assert!(qnet
            .forward_fast_batch::<Tensor>(&[], ConvAlgorithm::Standard, &mut fast)
            .unwrap()
            .is_empty());
    }

    /// Batched execution must also cover graphs with joins (Add / Concat):
    /// an untrained residual model exercises them without a training run
    /// (bit-identity does not depend on the weights).
    #[test]
    fn batched_fast_forward_covers_join_graphs() {
        let spec = SyntheticSpec::tiny();
        let data = Dataset::synthetic(&spec, 4, 11);
        let images: Vec<Tensor> = data
            .samples()
            .iter()
            .take(5)
            .map(|s| s.image.clone())
            .collect();
        for kind in [ModelKind::ResNetSmall, ModelKind::GoogLeNetSmall] {
            let mut net = kind.build(&spec, 5);
            let qnet = QuantizedNetwork::from_network(
                &mut net,
                &images,
                QuantizerOptions::new(BitWidth::W8),
            )
            .unwrap();
            let mut fast = qnet.prepare_fast().unwrap();
            for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
                let sequential: Vec<Vec<f32>> = images
                    .iter()
                    .map(|img| qnet.forward_fast(img, algo, &mut fast).unwrap())
                    .collect();
                let batched = qnet.forward_fast_batch(&images, algo, &mut fast).unwrap();
                assert_eq!(sequential, batched, "{kind:?} {algo:?}: batch diverged");
            }
        }
    }

    /// Every executor of the graph walk on every model, joins (Add /
    /// Concat) included: fault-free, the instrumented, fast, batched,
    /// silently hooked, ABFT-protected and BER-0 neuron-level passes all
    /// give the same logits. Untrained weights suffice — bit-identity does
    /// not depend on them.
    #[test]
    fn every_executor_agrees_fault_free_on_every_model() {
        let spec = SyntheticSpec::tiny();
        let data = Dataset::synthetic(&spec, 4, 11);
        let images: Vec<Tensor> = data
            .samples()
            .iter()
            .take(3)
            .map(|s| s.image.clone())
            .collect();
        for kind in ModelKind::all() {
            let mut net = kind.build(&spec, 5);
            let qnet = QuantizedNetwork::from_network(
                &mut net,
                &images,
                QuantizerOptions::new(BitWidth::W8),
            )
            .unwrap();
            let mut fast = qnet.prepare_fast().unwrap();
            for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
                let calibration = qnet.calibrate_abft(&images, algo).unwrap();
                let batched = qnet.forward_fast_batch(&images, algo, &mut fast).unwrap();
                for (image, batched) in images.iter().zip(&batched) {
                    let what = format!("{kind:?} {algo:?}");
                    let mut exact = ExactArithmetic::new();
                    let reference = qnet.forward(image, &mut exact, algo).unwrap();
                    assert_eq!(reference, *batched, "{what}: batched fast");
                    let fast_logits = qnet.forward_fast(image, algo, &mut fast).unwrap();
                    assert_eq!(reference, fast_logits, "{what}: fast");
                    let mut silent = |_acc: &mut [i64]| {};
                    let hooked = qnet
                        .forward_fast_with_faults(image, algo, &mut fast, &mut silent)
                        .unwrap();
                    assert_eq!(reference, hooked, "{what}: silent hook");
                    for policy in [AbftPolicy::off(), AbftPolicy::checksum_range()] {
                        let mut arith = ExactArithmetic::new();
                        let (mut scratch, mut events) = (AbftScratch::new(), AbftEvents::new());
                        let protected = qnet
                            .forward_abft(
                                image,
                                &mut arith,
                                algo,
                                &policy,
                                Some(&calibration),
                                &mut scratch,
                                &mut events,
                            )
                            .unwrap();
                        assert_eq!(reference, protected, "{what}: abft {policy:?}");
                        assert_eq!(events.detected, 0, "{what}: false detection");
                        assert_eq!(events.clipped, 0, "{what}: clean run clipped");
                    }
                    let mut injector =
                        NeuronLevelInjector::new(BitErrorRate::ZERO, BitWidth::W8, 1);
                    let neuron = qnet
                        .forward_with_neuron_faults(image, &mut injector, algo)
                        .unwrap();
                    assert_eq!(reference, neuron, "{what}: neuron-level at BER 0");
                }
            }
        }
    }

    /// The output-latch fault hook: a hook that never writes leaves the fast
    /// path bit-identical; a hook that flips accumulator bits changes the
    /// logits; and the deterministic `GemmFaultInjector` stream makes two
    /// identically-seeded faulty runs agree exactly (the idempotent-retry
    /// property `wgft-serve` relies on).
    #[test]
    fn fast_fault_hook_is_transparent_when_silent_and_deterministic_when_not() {
        use wgft_faultsim::GemmFaultInjector;
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(8)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W16),
        )
        .unwrap();
        let mut fast = qnet.prepare_fast().unwrap();
        let image = &data.samples()[0].image;
        let algo = ConvAlgorithm::winograd_default();

        let clean = qnet.forward_fast(image, algo, &mut fast).unwrap();
        let mut noop = |_acc: &mut [i64]| {};
        let silent = qnet
            .forward_fast_with_faults(image, algo, &mut fast, &mut noop)
            .unwrap();
        assert_eq!(clean, silent, "a silent hook must not perturb the logits");

        let faulty_run = |seed: u64| {
            let mut fast = qnet.prepare_fast().unwrap();
            let mut injector = GemmFaultInjector::new_for_bits(BitErrorRate::new(3e-3), 64, seed);
            let mut hook = |acc: &mut [i64]| {
                injector.corrupt_i64(acc);
            };
            let logits = qnet
                .forward_fast_with_faults(image, algo, &mut fast, &mut hook)
                .unwrap();
            (logits, injector.faults_injected())
        };
        let (a, faults_a) = faulty_run(3);
        let (b, faults_b) = faulty_run(3);
        assert_eq!(a, b, "same seed, same strikes, same logits");
        assert_eq!(faults_a, faults_b);
        assert!(faults_a > 0, "3e-3 over every accumulator must strike");
        assert_ne!(a, clean, "heavy accumulator corruption must show");
    }

    /// The fast path must keep the instrumented forward's error contract: a
    /// wrong-sized image returns `Err` on both paths (never a panic), for
    /// both conv algorithms.
    #[test]
    fn fast_forward_rejects_wrong_sized_images_like_instrumented() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(2)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W16),
        )
        .unwrap();
        let mut fast = qnet.prepare_fast().unwrap();
        let short = Tensor::zeros(wgft_tensor::Shape::nchw(1, 1, 2, 2));
        for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
            let mut arith = ExactArithmetic::new();
            assert!(qnet.forward(&short, &mut arith, algo).is_err());
            assert!(qnet.forward_fast(&short, algo, &mut fast).is_err());
            assert!(qnet
                .forward_fast_batch(&[short.clone(), short.clone()], algo, &mut fast)
                .is_err());
            let (mut scratch, mut events) = (AbftScratch::new(), AbftEvents::new());
            let policy = AbftPolicy::checksum_range();
            assert!(qnet
                .forward_abft(
                    &short,
                    &mut arith,
                    algo,
                    &policy,
                    None,
                    &mut scratch,
                    &mut events
                )
                .is_err());
        }
    }

    /// The fast ABFT calibration must reproduce the instrumented reference
    /// calibration exactly — every layer's `v_max`, `gemm_max` and
    /// `acc_max` — for both algorithms.
    #[test]
    fn fast_abft_calibration_matches_instrumented_reference() {
        let (mut net, data, _) = trained_tiny();
        let images: Vec<Tensor> = data
            .samples()
            .iter()
            .take(6)
            .map(|s| s.image.clone())
            .collect();
        let qnet =
            QuantizedNetwork::from_network(&mut net, &images, QuantizerOptions::new(BitWidth::W16))
                .unwrap();
        for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
            let fast = qnet.calibrate_abft(&images, algo).unwrap();
            let reference = qnet.calibrate_abft_instrumented(&images, algo).unwrap();
            assert_eq!(fast, reference, "{algo:?}: calibration diverged");
            assert_eq!(fast.len(), qnet.compute_layer_count());
        }
    }

    #[test]
    fn abft_forward_matches_plain_forward_when_fault_free() {
        let (mut net, data, _) = trained_tiny();
        let calibration_images: Vec<Tensor> = data
            .samples()
            .iter()
            .take(8)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration_images,
            QuantizerOptions::new(BitWidth::W16),
        )
        .unwrap();
        for algo in [ConvAlgorithm::Standard, ConvAlgorithm::winograd_default()] {
            let calibration = qnet.calibrate_abft(&calibration_images, algo).unwrap();
            assert_eq!(calibration.len(), qnet.compute_layer_count());
            for policy in [
                wgft_abft::AbftPolicy::off(),
                wgft_abft::AbftPolicy::checksum(),
                wgft_abft::AbftPolicy::range_only(),
                wgft_abft::AbftPolicy::checksum_range(),
            ] {
                let sample = &data.samples()[0];
                let mut plain_arith = ExactArithmetic::new();
                let plain = qnet.forward(&sample.image, &mut plain_arith, algo).unwrap();
                let mut arith = ExactArithmetic::new();
                let mut scratch = wgft_abft::AbftScratch::new();
                let mut events = wgft_abft::AbftEvents::new();
                let protected = qnet
                    .forward_abft(
                        &sample.image,
                        &mut arith,
                        algo,
                        &policy,
                        Some(&calibration),
                        &mut scratch,
                        &mut events,
                    )
                    .unwrap();
                assert_eq!(plain, protected, "{algo:?}: fault-free logits must agree");
                assert_eq!(events.detected, 0, "no false detections at BER 0");
                assert_eq!(events.clipped, 0, "calibrated ranges never clip clean runs");
                if policy.is_off() {
                    assert_eq!(events.overhead.total(), 0, "off policy is free");
                } else {
                    assert!(events.overhead.total() > 0, "protection is never free");
                }
            }
        }
    }

    #[test]
    fn serialization_roundtrip() {
        let (mut net, data, _) = trained_tiny();
        let calibration: Vec<Tensor> = data
            .samples()
            .iter()
            .take(2)
            .map(|s| s.image.clone())
            .collect();
        let qnet = QuantizedNetwork::from_network(
            &mut net,
            &calibration,
            QuantizerOptions::new(BitWidth::W8),
        )
        .unwrap();
        let json = serde_json::to_string(&qnet).unwrap();
        let restored: QuantizedNetwork = serde_json::from_str(&json).unwrap();
        assert_eq!(qnet, restored);
    }
}
