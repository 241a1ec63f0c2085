//! `SeedAlg` parameters and the Appendix B.1 constants ladder.
//!
//! The algorithm takes a single error parameter `ε₁ ∈ (0, 1/4]` and runs
//! `log Δ` phases of `c₄ log²(1/ε₁)` rounds each, with leaders
//! broadcasting at probability `1/log(1/ε₁)`.
//!
//! ## On the constants
//!
//! The paper's sufficient constants are astronomically conservative —
//! e.g. `c₄ ≥ 2·4^{c_r c₃}` with `c_r = c₁ r² ≥ 121`, which exceeds
//! `10^{70}` already at `r = 1`. They exist to make the Chernoff ladder in
//! Appendix B close for **every** configuration; no simulation could run
//! them. We therefore expose the constants as data: the
//! [`SeedConfig::practical`] calibration keeps the *functional form* of
//! every quantity (phases = `log Δ`, phase length ∝ `log²(1/ε₁)`,
//! transmit probability = `1/log(1/ε₁)`, leader probabilities
//! `2^{-(log Δ − h + 1)}`) while choosing constants small enough to
//! execute; the experiment suite (`analysis::experiments`) verifies the
//! *scaling shape* the theorem asserts, which does not depend on the
//! constant.

use serde::{Deserialize, Serialize};

/// Parameters of `SeedAlg(ε₁)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeedConfig {
    /// The error parameter `ε₁ ∈ (0, 1/4]`.
    pub epsilon1: f64,
    /// Seed length `κ` in bits (the seed domain is `S = {0,1}^κ`).
    pub seed_bits: usize,
    /// Phase length constant: a phase lasts
    /// `ceil(c4 · log₂²(1/ε₁))` rounds.
    pub c4: f64,
}

impl SeedConfig {
    /// A practically executable calibration (`c₄ = 4`), keeping the
    /// paper's functional forms.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε₁ ≤ 1/4` and `seed_bits > 0`.
    pub fn practical(epsilon1: f64, seed_bits: usize) -> Self {
        Self::with_c4(epsilon1, seed_bits, 4.0)
    }

    /// Full control over the phase-length constant.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε₁ ≤ 1/4`, `seed_bits > 0`, and `c4 > 0`.
    pub fn with_c4(epsilon1: f64, seed_bits: usize, c4: f64) -> Self {
        assert!(
            epsilon1 > 0.0 && epsilon1 <= 0.25,
            "SeedAlg requires 0 < ε₁ ≤ 1/4, got {epsilon1}"
        );
        assert!(seed_bits > 0, "seed domain must be non-trivial");
        assert!(c4 > 0.0, "phase length constant must be positive");
        SeedConfig {
            epsilon1,
            seed_bits,
            c4,
        }
    }

    /// `log₂(1/ε₁)`, the recurring size parameter (≥ 2 by the ε₁ bound).
    pub fn log_inv_eps(&self) -> f64 {
        (1.0 / self.epsilon1).log2()
    }

    /// Number of phases: `log₂ Δ̂` where `Δ̂` is `Δ` rounded up to a power
    /// of two (the paper assumes Δ is a power of two "for simplicity"),
    /// and at least 1 so degenerate graphs still run one election.
    pub fn phases(&self, delta: usize) -> u32 {
        let d = delta.max(2).next_power_of_two();
        d.trailing_zeros().max(1)
    }

    /// Rounds per phase: `ceil(c₄ · log₂²(1/ε₁))`.
    pub fn phase_len(&self) -> u64 {
        let l = self.log_inv_eps();
        (self.c4 * l * l).ceil() as u64
    }

    /// Total running time of the algorithm:
    /// `phases(Δ) · phase_len()` rounds — the `O(log Δ · log²(1/ε₁))` of
    /// Theorem 3.1.
    pub fn total_rounds(&self, delta: usize) -> u64 {
        u64::from(self.phases(delta)) * self.phase_len()
    }

    /// Leader-election probability at (1-based) phase `h` of
    /// `log Δ` total: `2^{-(log Δ − h + 1)}`, i.e. `1/Δ, 2/Δ, …, 1/2`.
    pub fn leader_prob(&self, phase: u32, phases: u32) -> f64 {
        debug_assert!(phase >= 1 && phase <= phases);
        2f64.powi(-((phases - phase + 1) as i32))
    }

    /// A leader's per-round broadcast probability, `1/log₂(1/ε₁) ≤ 1/2`.
    pub fn tx_prob(&self) -> f64 {
        1.0 / self.log_inv_eps()
    }

    /// The δ bound to check the Agreement condition against:
    /// `ceil(c_δ · r² · log₂(1/ε₁))`, the concrete form of Theorem 3.1's
    /// `O(r² log(1/ε₁))`. `c_δ` is a calibration constant the caller picks
    /// (the E1 experiment passes its own; the paper's sufficient value is
    /// `6 c_r c₃ = O(r²)` with enormous constants).
    pub fn delta_bound(&self, r: f64, c_delta: f64) -> usize {
        (c_delta * r * r * self.log_inv_eps()).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_round_up_to_power_of_two() {
        let cfg = SeedConfig::practical(0.25, 32);
        assert_eq!(cfg.phases(2), 1);
        assert_eq!(cfg.phases(4), 2);
        assert_eq!(cfg.phases(5), 3); // 5 -> 8 -> 3 phases
        assert_eq!(cfg.phases(8), 3);
        assert_eq!(cfg.phases(1), 1); // degenerate graphs still elect
    }

    #[test]
    fn phase_len_scales_with_log_sq() {
        let a = SeedConfig::practical(0.25, 32); // log = 2 -> 16 rounds
        let b = SeedConfig::practical(1.0 / 16.0, 32); // log = 4 -> 64
        assert_eq!(a.phase_len(), 16);
        assert_eq!(b.phase_len(), 64);
    }

    #[test]
    fn leader_probs_double_per_phase() {
        let cfg = SeedConfig::practical(0.25, 32);
        let phases = 3;
        assert!((cfg.leader_prob(1, phases) - 0.125).abs() < 1e-12);
        assert!((cfg.leader_prob(2, phases) - 0.25).abs() < 1e-12);
        assert!((cfg.leader_prob(3, phases) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn tx_prob_at_most_half() {
        for eps in [0.25, 0.1, 0.01, 1e-4] {
            let cfg = SeedConfig::practical(eps, 32);
            assert!(cfg.tx_prob() <= 0.5 + 1e-12);
            assert!(cfg.tx_prob() > 0.0);
        }
    }

    #[test]
    fn total_rounds_formula() {
        let cfg = SeedConfig::practical(0.25, 32);
        assert_eq!(cfg.total_rounds(8), 3 * 16);
    }

    #[test]
    fn delta_bound_grows_with_r_and_eps() {
        let cfg = SeedConfig::practical(0.25, 32);
        assert!(cfg.delta_bound(2.0, 1.0) > cfg.delta_bound(1.0, 1.0));
        let tighter = SeedConfig::practical(0.01, 32);
        assert!(tighter.delta_bound(1.0, 1.0) > cfg.delta_bound(1.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "0 < ε₁ ≤ 1/4")]
    fn rejects_large_epsilon() {
        let _ = SeedConfig::practical(0.3, 32);
    }
}
