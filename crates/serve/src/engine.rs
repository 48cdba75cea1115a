//! The inference engine behind the daemon: one prepared
//! [`FaultToleranceCampaign`] plus the plans and scratch every serving path
//! needs, owned exclusively by the worker thread (no locks on the hot path).
//!
//! Three serving paths, one per protection family:
//!
//! * **fast batch** — fault-free micro-batched fast path
//!   ([`wgft_nn::QuantizedNetwork::forward_fast_batch`]), bit-identical to
//!   per-image execution for any coalescing schedule;
//! * **fast chaos** — the same fast path per image with a
//!   [`GemmFaultInjector`] striking the accumulator latches, seeded from
//!   `(chaos_seed, request_id)` so retries are idempotent;
//! * **protected** — the executable ABFT path
//!   ([`wgft_nn::QuantizedNetwork::classify_abft`]) under the tier's
//!   policy, with a [`FaultyArithmetic`] backend carrying the chaos BER
//!   (zero when chaos is off: the protected tiers still pay their detection
//!   overhead, which is exactly what the per-tier latency numbers are for).

use wgft_abft::{AbftEvents, AbftPolicy, AbftScratch, ProtectionProfile};
use wgft_core::{CampaignConfig, FaultToleranceCampaign};
use wgft_faultsim::{
    BitErrorRate, FaultConfig, FaultyArithmetic, GemmFaultInjector, ProtectionPlan,
};
use wgft_nn::{FastInference, NnError};
use wgft_tensor::Tensor;
use wgft_winograd::ConvAlgorithm;

use crate::error::ServeError;

/// Fault-injection settings of `--chaos` mode.
#[derive(Debug, Clone, Copy)]
pub struct ChaosConfig {
    /// Bit error rate driven into every request.
    pub ber: f64,
    /// Base seed; each request's fault stream is seeded from
    /// `mix(seed, request_id)`.
    pub seed: u64,
}

/// Mix a chaos base seed with a request id into a per-request fault seed
/// (splitmix64 finalizer — a pure function of its inputs, never of arrival
/// order, so a re-sent request replays the identical fault stream).
// wgft-audit: consensus-critical -- chaos drills must replay bit-identically
#[must_use]
pub fn request_fault_seed(seed: u64, request_id: u64) -> u64 {
    let mut z = seed ^ request_id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The worker thread's prepared serving engine.
pub struct ServeEngine {
    campaign: FaultToleranceCampaign,
    algo: ConvAlgorithm,
    fast: FastInference,
    scratch: AbftScratch,
    chaos: Option<ChaosConfig>,
    config_json: String,
    /// The loaded planner profile (tier `profile`), pre-resolved into the
    /// executable policy + idealized-TMR plan it serves under, plus its
    /// identity hash for `Health`.
    profile: Option<LoadedProfile>,
}

/// A `ProtectionProfile` resolved into its serving form once at prepare
/// time, so the hot path never re-derives policies.
struct LoadedProfile {
    policy: AbftPolicy,
    plan: ProtectionPlan,
    hash: String,
}

impl ServeEngine {
    /// Train/load the model, quantize it, and prepare every plan the
    /// serving paths use (fast winograd plans, ABFT calibration) — all the
    /// one-time cost happens here, before the daemon accepts a connection.
    ///
    /// # Errors
    ///
    /// [`ServeError::Prepare`] if campaign preparation or planning fails.
    pub fn prepare(
        config: &CampaignConfig,
        algo: ConvAlgorithm,
        chaos: Option<ChaosConfig>,
    ) -> Result<Self, ServeError> {
        Self::prepare_with_profile(config, algo, chaos, None)
    }

    /// [`ServeEngine::prepare`] plus a planner [`ProtectionProfile`] for the
    /// `profile` tier. The profile must validate and must assign exactly the
    /// served network's compute layers; its recorded model name must match.
    ///
    /// # Errors
    ///
    /// [`ServeError::Prepare`] if campaign preparation fails or the profile
    /// does not fit the served model.
    pub fn prepare_with_profile(
        config: &CampaignConfig,
        algo: ConvAlgorithm,
        chaos: Option<ChaosConfig>,
        profile: Option<ProtectionProfile>,
    ) -> Result<Self, ServeError> {
        let config_json = serde_json::to_string(config)
            .map_err(|e| ServeError::Prepare(format!("config serialization: {e}")))?;
        let campaign = FaultToleranceCampaign::prepare(config)
            .map_err(|e| ServeError::Prepare(e.to_string()))?;
        let fast = campaign
            .quantized()
            .prepare_fast()
            .map_err(|e| ServeError::Prepare(e.to_string()))?;
        // Force the lazy ABFT calibration now: the protected tiers must not
        // pay it on their first request.
        let _ = campaign.abft_calibration(algo);
        let profile = profile
            .map(|profile| {
                profile
                    .validate()
                    .map_err(|e| ServeError::Prepare(format!("profile: {e}")))?;
                let layers = campaign.quantized().compute_layer_count();
                if profile.layers.len() != layers {
                    return Err(ServeError::Prepare(format!(
                        "profile assigns {} layers but the served model has {layers} \
                         compute layers",
                        profile.layers.len()
                    )));
                }
                if profile.model != campaign.quantized().name() {
                    return Err(ServeError::Prepare(format!(
                        "profile was planned for model `{}`, the daemon serves `{}`",
                        profile.model,
                        campaign.quantized().name()
                    )));
                }
                Ok(LoadedProfile {
                    policy: profile.policy(),
                    plan: profile.plan(),
                    hash: profile.hash(),
                })
            })
            .transpose()?;
        Ok(Self {
            campaign,
            algo,
            fast,
            scratch: AbftScratch::new(),
            chaos,
            config_json,
            profile,
        })
    }

    /// The campaign configuration, verbatim JSON (served by `Health`).
    #[must_use]
    pub fn config_json(&self) -> &str {
        &self.config_json
    }

    /// The conv algorithm label (served by `Health`).
    #[must_use]
    pub fn algo_label(&self) -> &'static str {
        match self.algo {
            ConvAlgorithm::Standard => "standard",
            ConvAlgorithm::Winograd(_) => "winograd",
        }
    }

    /// Fault-free baseline accuracy of the served network.
    #[must_use]
    pub fn clean_accuracy(&self) -> f64 {
        self.campaign.clean_accuracy()
    }

    /// Whether chaos injection is active.
    #[must_use]
    pub fn chaos_active(&self) -> bool {
        self.chaos.is_some()
    }

    /// Flattened image length the served spec expects.
    #[must_use]
    pub fn image_len(&self) -> usize {
        self.campaign.config().spec.image_len()
    }

    /// Tensor shape of a served image.
    #[must_use]
    pub fn image_shape(&self) -> wgft_tensor::Shape {
        self.campaign.config().spec.image_shape()
    }

    /// Shape a raw flattened image into the served spec's tensor.
    ///
    /// # Errors
    ///
    /// [`ServeError::Server`] when the length is wrong.
    pub fn shape_image(&self, data: Vec<f32>) -> Result<Tensor, ServeError> {
        let expected = self.image_len();
        if data.len() != expected {
            return Err(ServeError::server(format!(
                "image has {} values, the served model expects {expected}",
                data.len()
            )));
        }
        Tensor::from_vec(self.campaign.config().spec.image_shape(), data)
            .map_err(|e| ServeError::server(format!("bad image: {e}")))
    }

    /// Classify a micro-batch on the unprotected fast path, fault-free.
    /// Bit-identical to per-image execution for any batch schedule.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward_fast_batch`][fb].
    ///
    /// [fb]: wgft_nn::QuantizedNetwork::forward_fast_batch
    pub fn classify_fast_batch(&mut self, images: &[&Tensor]) -> Result<Vec<usize>, NnError> {
        self.campaign
            .quantized()
            .classify_fast_batch(images, self.algo, &mut self.fast)
    }

    /// Classify one image on the fast path with the chaos injector striking
    /// the accumulator latches. Deterministic in `request_id`; falls back
    /// to the clean fast path when chaos is off.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::forward_fast`][ff].
    ///
    /// [ff]: wgft_nn::QuantizedNetwork::forward_fast
    pub fn classify_fast_chaos(
        &mut self,
        request_id: u64,
        image: &Tensor,
    ) -> Result<usize, NnError> {
        let Some(chaos) = self.chaos else {
            return self
                .campaign
                .quantized()
                .classify_fast(image, self.algo, &mut self.fast);
        };
        // Strikes cover the full 32-bit accumulator latch, not just the
        // stored word width: a soft error in the matrix engine's output
        // register can hit any accumulator bit, and the high bits are the
        // ones that survive requantization.
        let mut injector = GemmFaultInjector::new_for_bits(
            BitErrorRate::new(chaos.ber),
            32,
            request_fault_seed(chaos.seed, request_id),
        );
        self.campaign.quantized().classify_fast_with_faults(
            image,
            self.algo,
            &mut self.fast,
            &mut |acc| {
                injector.corrupt_i64(acc);
            },
        )
    }

    /// Identity hash of the loaded planner profile, if any (served by
    /// `Health`).
    #[must_use]
    pub fn profile_hash(&self) -> Option<&str> {
        self.profile.as_ref().map(|p| p.hash.as_str())
    }

    /// Classify one image under the loaded planner profile's measured
    /// per-layer assignment: its ABFT policy plus its idealized-TMR plan
    /// driven through the instrumented arithmetic. Falls back to
    /// [`ProtectionTier::ChecksumRecompute`]'s blanket policy when no
    /// profile is loaded, so the `profile` tier never serves weaker than
    /// configured. Deterministic in `request_id`.
    ///
    /// [`ProtectionTier::ChecksumRecompute`]: crate::ProtectionTier::ChecksumRecompute
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::classify_abft`][ca].
    ///
    /// [ca]: wgft_nn::QuantizedNetwork::classify_abft
    pub fn classify_profiled(
        &mut self,
        request_id: u64,
        image: &Tensor,
    ) -> Result<(usize, AbftEvents), NnError> {
        let Some(profile) = &self.profile else {
            return self.classify_protected(request_id, image, &AbftPolicy::checksum_range());
        };
        let config = self.campaign.config();
        let (ber, seed) = match self.chaos {
            Some(chaos) => (chaos.ber, request_fault_seed(chaos.seed, request_id)),
            None => (0.0, request_fault_seed(0, request_id)),
        };
        let fault_config = FaultConfig::new(BitErrorRate::new(ber), config.width)
            .with_model(config.fault_model)
            .with_protection(profile.plan.clone());
        let policy = profile.policy.clone();
        let mut arith = FaultyArithmetic::new(fault_config, seed);
        let calibration = self.campaign.abft_calibration(self.algo);
        let mut events = AbftEvents::new();
        let prediction = self.campaign.quantized().classify_abft(
            image,
            &mut arith,
            self.algo,
            &policy,
            Some(calibration),
            &mut self.scratch,
            &mut events,
        )?;
        Ok((prediction, events))
    }

    /// Classify one image under an ABFT policy, with the chaos BER (or
    /// zero) driven through the instrumented arithmetic. Returns the
    /// prediction and the request's protection events. Deterministic in
    /// `request_id`.
    ///
    /// # Errors
    ///
    /// Same as [`QuantizedNetwork::classify_abft`][ca].
    ///
    /// [ca]: wgft_nn::QuantizedNetwork::classify_abft
    pub fn classify_protected(
        &mut self,
        request_id: u64,
        image: &Tensor,
        policy: &AbftPolicy,
    ) -> Result<(usize, AbftEvents), NnError> {
        let config = self.campaign.config();
        let (ber, seed) = match self.chaos {
            Some(chaos) => (chaos.ber, request_fault_seed(chaos.seed, request_id)),
            None => (0.0, request_fault_seed(0, request_id)),
        };
        let fault_config =
            FaultConfig::new(BitErrorRate::new(ber), config.width).with_model(config.fault_model);
        let mut arith = FaultyArithmetic::new(fault_config, seed);
        let calibration = self.campaign.abft_calibration(self.algo);
        let mut events = AbftEvents::new();
        let prediction = self.campaign.quantized().classify_abft(
            image,
            &mut arith,
            self.algo,
            policy,
            Some(calibration),
            &mut self.scratch,
            &mut events,
        )?;
        Ok((prediction, events))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_fault_seeds_are_deterministic_and_spread() {
        assert_eq!(request_fault_seed(7, 42), request_fault_seed(7, 42));
        assert_ne!(request_fault_seed(7, 42), request_fault_seed(7, 43));
        assert_ne!(request_fault_seed(7, 42), request_fault_seed(8, 42));
        // Consecutive ids must not produce near-identical streams.
        let a = request_fault_seed(7, 1);
        let b = request_fault_seed(7, 2);
        assert!((a ^ b).count_ones() > 8, "seeds barely differ: {a:x} {b:x}");
    }
}
