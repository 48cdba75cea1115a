//! Winograd convolution transforms, kernels and operation-count models.
//!
//! Winograd convolution computes a 2-D convolution by linearly transforming
//! the input tile and the filter into a different domain, multiplying
//! element-wise, and transforming back:
//!
//! ```text
//! Y = At [ (G g Gt) . (Bt d B) ] A          (Equation 1 of the paper)
//! ```
//!
//! which trades expensive multiplications for cheap additions. The DAC'22
//! paper studies a second, previously overlooked consequence of that trade:
//! because multiplications are the operations whose soft-error corruption
//! hurts model accuracy the most, winograd convolution is also *more fault
//! tolerant* than standard convolution.
//!
//! This crate provides:
//!
//! * [`WinogradVariant`] and the constant transform matrices
//!   (F(2x2,3x3), F(4x4,3x3) and the 1-D F(2,3)),
//! * floating-point reference kernels ([`direct_conv_f32`],
//!   [`winograd_conv_f32`]) used by training and by correctness tests,
//! * quantized kernels ([`direct_conv_quantized`],
//!   [`winograd_conv_quantized`]) that execute every primitive multiply and
//!   add through a [`wgft_faultsim::Arithmetic`] backend so that faults can
//!   be injected at operation level,
//! * analytic operation-count models ([`ConvOpModel`]) used by the
//!   fine-grained TMR overhead accounting and the accelerator timing model,
//! * the decomposable winograd method ([`dwm`](crate::decompose_kernel)) that
//!   splits larger kernels into 3x3 tiles so they can also ride the winograd
//!   datapath.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv_standard;
mod conv_winograd;
mod dwm;
mod error;
mod opcount;
mod plan;
mod quantized_fast;
mod transform;

pub use conv_standard::{direct_conv_f32, direct_conv_quantized, ConvShape};
pub use conv_winograd::{
    integer_transform, transform_weights_f32, winograd_conv_f32, winograd_conv_f32_reference,
    winograd_conv_quantized, winograd_conv_quantized_with_scratch, MatrixSide, WinogradWeights,
};
pub use dwm::{decompose_kernel, dwm_conv_f32, KernelTile};
pub use error::WinogradError;
pub use opcount::{ConvAlgorithm, ConvOpModel};
pub use plan::{PreparedConvF32, WinogradPlan, WinogradScratch};
pub use quantized_fast::{PreparedConvQuantizedFast, QuantizedRangeRecord, MAX_FAST_INPUT};
pub use transform::{WinogradVariant, F2X2_3X3, F4X4_3X3, F6X6_3X3};
