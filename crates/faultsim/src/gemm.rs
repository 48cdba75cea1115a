//! Output-latch fault hooks for the fast quantized engine's wide
//! accumulators.
//!
//! The instrumented datapath ([`crate::FaultyArithmetic`]) corrupts every
//! primitive operation, but the fast quantized path (planned winograd and
//! im2col GEMMs over `i32` operands) never touches an
//! [`crate::Arithmetic`] backend. [`GemmFaultInjector`] models soft errors
//! striking a matrix engine's output latches instead: each freshly produced
//! `i64` accumulator flips a uniformly chosen bit with probability
//! `1 - (1 - BER)^bits`, using the same geometric gap sampling as the
//! operation-level injector so the common no-fault path is a single counter
//! decrement per element.

use crate::BitErrorRate;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Bit-flip injector for wide (`i64`) GEMM accumulator buffers.
#[derive(Debug, Clone)]
pub struct GemmFaultInjector {
    ber: BitErrorRate,
    bits: u32,
    probability: f64,
    rng: SmallRng,
    elements_until_fault: u64,
    faults: u64,
}

impl GemmFaultInjector {
    /// An injector whose per-element strike probability is
    /// `1 - (1 - BER)^bits`, with a deterministic seed. Pick `bits` to match
    /// the width of the output latch being attacked: 64 covers the
    /// quantized engine's full `i64` accumulators.
    #[must_use]
    pub fn new_for_bits(ber: BitErrorRate, bits: u32, seed: u64) -> Self {
        let bits = bits.clamp(1, 64);
        let probability = ber.fault_probability(bits);
        let mut rng = SmallRng::seed_from_u64(seed);
        let elements_until_fault = sample_gap(probability, &mut rng);
        Self {
            ber,
            bits,
            probability,
            rng,
            elements_until_fault,
            faults: 0,
        }
    }

    /// The configured bit error rate.
    #[must_use]
    pub fn ber(&self) -> BitErrorRate {
        self.ber
    }

    /// Number of elements corrupted so far.
    #[must_use]
    pub fn faults_injected(&self) -> u64 {
        self.faults
    }

    /// Corrupt an `i64` accumulator buffer in place; returns how many
    /// elements were struck. Deterministic given the construction seed and
    /// the sequence of buffer lengths — independent of the values
    /// themselves.
    pub fn corrupt_i64(&mut self, out: &mut [i64]) -> u64 {
        let bits = self.bits;
        self.walk(out.len(), |index, rng| {
            let bit = rng.gen_range(0..bits);
            out[index] ^= 1i64 << bit;
        })
    }

    /// Walk `len` elements, striking according to the geometric gap stream
    /// and applying `flip` at each struck index.
    fn walk(&mut self, len: usize, mut flip: impl FnMut(usize, &mut SmallRng)) -> u64 {
        if self.probability <= 0.0 {
            return 0;
        }
        let mut struck = 0u64;
        let mut index = 0usize;
        loop {
            let remaining = (len - index) as u64;
            if self.elements_until_fault > remaining {
                self.elements_until_fault -= remaining;
                break;
            }
            index += (self.elements_until_fault - 1) as usize;
            flip(index, &mut self.rng);
            struck += 1;
            self.faults += 1;
            index += 1;
            self.elements_until_fault = sample_gap(self.probability, &mut self.rng);
            if index >= len {
                break;
            }
        }
        struck
    }
}

/// Elements until the next fault (inclusive), geometric with parameter `p`.
fn sample_gap<R: Rng + ?Sized>(p: f64, rng: &mut R) -> u64 {
    if p <= 0.0 {
        return u64::MAX;
    }
    if p >= 1.0 {
        return 1;
    }
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    let gap = (u.ln() / (1.0 - p).ln()).floor();
    if gap >= u64::MAX as f64 - 1.0 {
        u64::MAX
    } else {
        gap as u64 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_ber_never_corrupts() {
        let mut injector = GemmFaultInjector::new_for_bits(BitErrorRate::ZERO, 32, 1);
        let mut buf = vec![3i64; 4096];
        assert_eq!(injector.corrupt_i64(&mut buf), 0);
        assert!(buf.iter().all(|&v| v == 3));
        assert_eq!(injector.faults_injected(), 0);
        assert_eq!(injector.ber(), BitErrorRate::ZERO);
    }

    #[test]
    fn certain_ber_corrupts_every_element() {
        let mut injector = GemmFaultInjector::new_for_bits(BitErrorRate::new(1.0), 64, 2);
        let mut buf = vec![1i64; 64];
        assert_eq!(injector.corrupt_i64(&mut buf), 64);
        assert!(
            buf.iter().all(|&v| v != 1),
            "a flipped bit always changes the word"
        );
    }

    #[test]
    fn fault_count_matches_expectation_statistically() {
        let ber = BitErrorRate::new(1e-4);
        let p = ber.fault_probability(64);
        let mut injector = GemmFaultInjector::new_for_bits(ber, 64, 3);
        let n = 400_000usize;
        let mut buf = vec![25i64; 4096];
        let mut total = 0u64;
        for _ in 0..n / buf.len() {
            total += injector.corrupt_i64(&mut buf);
            buf.fill(25);
        }
        let expected = p * n as f64;
        let sigma = expected.sqrt();
        assert!(
            (total as f64 - expected).abs() < 5.0 * sigma + 5.0,
            "expected ~{expected} faults, got {total}"
        );
    }

    #[test]
    fn deterministic_given_seed_and_independent_of_values() {
        // A narrower latch (32 bits) keeps every strike in the low word.
        let run = |seed: u64, fill: i64| {
            let mut injector = GemmFaultInjector::new_for_bits(BitErrorRate::new(5e-3), 32, seed);
            let mut struck_at = Vec::new();
            for round in 0..8 {
                let mut buf = vec![fill; 257];
                injector.corrupt_i64(&mut buf);
                for (i, &v) in buf.iter().enumerate() {
                    if v != fill {
                        assert_eq!((v ^ fill) as u64 >> 32, 0, "strike outside the latch");
                        struck_at.push((round, i));
                    }
                }
            }
            struck_at
        };
        assert_eq!(run(7, 1), run(7, 1));
        assert_eq!(run(7, 1), run(7, -325), "positions depend only on the seed");
        assert_ne!(run(7, 1), run(8, 1));
    }

    #[test]
    fn i64_corruption_flips_exactly_one_bit_per_strike() {
        let mut injector = GemmFaultInjector::new_for_bits(BitErrorRate::new(1.0), 64, 5);
        let mut buf = vec![0i64; 128];
        assert_eq!(injector.corrupt_i64(&mut buf), 128);
        assert!(
            buf.iter().all(|&v| v.count_ones() == 1),
            "each struck word differs from 0 in exactly one bit"
        );
        // With 64-bit words and enough strikes, the high half must be hit
        // too — the attack covers the full accumulator, not an i32 subset.
        assert!(
            buf.iter().any(|&v| (v as u64) >> 32 != 0),
            "some strikes must land in the high 32 bits"
        );
    }

    #[test]
    fn i64_corruption_is_deterministic_and_value_independent() {
        let run = |seed: u64, fill: i64| {
            let mut injector = GemmFaultInjector::new_for_bits(BitErrorRate::new(5e-3), 64, seed);
            let mut struck_at = Vec::new();
            for round in 0..8 {
                let mut buf = vec![fill; 257];
                injector.corrupt_i64(&mut buf);
                for (i, &v) in buf.iter().enumerate() {
                    if v != fill {
                        struck_at.push((round, i, v ^ fill));
                    }
                }
            }
            struck_at
        };
        assert_eq!(run(7, 42), run(7, 42));
        assert_eq!(
            run(7, 42)
                .iter()
                .map(|&(r, i, _)| (r, i))
                .collect::<Vec<_>>(),
            run(7, -1)
                .iter()
                .map(|&(r, i, _)| (r, i))
                .collect::<Vec<_>>(),
            "strike positions depend only on the seed"
        );
        assert_ne!(run(7, 42), run(9, 42));
    }

    #[test]
    fn zero_ber_never_corrupts_i64() {
        let mut injector = GemmFaultInjector::new_for_bits(BitErrorRate::ZERO, 64, 1);
        let mut buf = vec![7i64; 512];
        assert_eq!(injector.corrupt_i64(&mut buf), 0);
        assert!(buf.iter().all(|&v| v == 7));
    }

    #[test]
    fn gap_sampler_edge_cases() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(sample_gap(0.0, &mut rng), u64::MAX);
        assert_eq!(sample_gap(1.0, &mut rng), 1);
        assert!(sample_gap(0.5, &mut rng) >= 1);
    }
}
