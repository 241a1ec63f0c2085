//! The `LBAlg` constants of Appendix C.1, resolved per configuration.
//!
//! The paper defines, for error parameter `ε₁`:
//!
//! * `ε₂ = min{ε′, ε₁}` — the error handed to the seed agreement
//!   subroutine, with `ε′` small enough that `SeedAlg(ε′)` meets the
//!   `Seed(δ, ε)` spec at error ≤ `ε₁/2`;
//! * `T_s = O(log Δ log²(1/ε₂))` — the preamble length (one `SeedAlg`
//!   run);
//! * `T_prog = O(r² log(1/ε₁) log(1/ε₂) log Δ)` — body rounds per phase;
//! * `κ = T_prog · ⌈log(r² log(1/ε₂))⌉ · log log Δ` — seed bits consumed
//!   per phase (we size seeds to the exact worst-case consumption);
//! * `T_ack = O(Δ log(Δ/ε₁) / (1 − ε₁))` — sending phases per message.
//!
//! As with the seed constants (see `seed_agreement::config`), the paper's
//! sufficient multiplicative constants are far too large to execute; the
//! [`LbConfig`] calibrations keep every *functional form* while making the
//! constants data. Each experiment in `analysis::experiments` names the
//! calibration it uses.

use seed_agreement::SeedConfig;
use serde::{Deserialize, Serialize};

/// Where the per-phase shared randomness comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SeedMode {
    /// The paper's algorithm: run `SeedAlg` in every phase preamble and
    /// adopt the committed group seed, bounding the number of distinct
    /// schedules per neighborhood by δ.
    Agreement,
    /// Ablation: skip the preamble entirely (`T_s = 0`); every node draws
    /// a private seed per phase. The permuted schedules remain unknown to
    /// the oblivious scheduler, but nothing bounds the number of distinct
    /// schedules per neighborhood — the quantity the paper's analysis
    /// (Lemma 4.2's δ-partition) depends on.
    Private,
}

/// Tunable constants of `LBAlg(ε₁)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LbConfig {
    /// The service's error parameter `ε₁ ∈ (0, 1/2]`.
    pub epsilon1: f64,
    /// Multiplier in `T_prog` (the paper's `c₁`).
    pub c_prog: f64,
    /// Multiplier in `T_ack`.
    pub c_ack: f64,
    /// Phase-length constant forwarded to the seed agreement subroutine.
    pub seed_c4: f64,
    /// Body segments per seed agreement — the Section 4.2 remark: "it
    /// might make sense to run the agreement protocol less frequently,
    /// and generate seeds of sufficient length to satisfy the demands of
    /// multiple phases." Each phase carries this many `T_prog`-round
    /// bodies after one preamble, with `κ` scaled to match.
    pub phases_per_agreement: u32,
    /// Source of shared randomness (see [`SeedMode`]).
    pub seed_mode: SeedMode,
}

impl LbConfig {
    /// The default executable calibration.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε₁ ≤ 1/2`.
    pub fn practical(epsilon1: f64) -> Self {
        Self::with_constants(epsilon1, 1.0, 1.0, 2.0)
    }

    /// A faster calibration for unit tests (shorter phases, fewer sending
    /// phases; weaker empirical guarantees).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε₁ ≤ 1/2`.
    pub fn fast(epsilon1: f64) -> Self {
        Self::with_constants(epsilon1, 0.5, 0.25, 1.0)
    }

    /// Full control over the calibration constants.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < ε₁ ≤ 1/2` and all constants are positive.
    pub fn with_constants(epsilon1: f64, c_prog: f64, c_ack: f64, seed_c4: f64) -> Self {
        assert!(
            epsilon1 > 0.0 && epsilon1 <= 0.5,
            "LBAlg requires 0 < ε₁ ≤ 1/2, got {epsilon1}"
        );
        assert!(c_prog > 0.0 && c_ack > 0.0 && seed_c4 > 0.0);
        LbConfig {
            epsilon1,
            c_prog,
            c_ack,
            seed_c4,
            phases_per_agreement: 1,
            seed_mode: SeedMode::Agreement,
        }
    }

    /// Amortizes one seed agreement over `k` body segments (Section 4.2's
    /// lower-frequency variant). Worst-case bounds are unchanged; the
    /// preamble overhead per body drops by `k`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn with_seed_reuse(mut self, k: u32) -> Self {
        assert!(k >= 1, "need at least one body per agreement");
        self.phases_per_agreement = k;
        self
    }

    /// Switches to the private-seeds ablation (no agreement, `T_s = 0`).
    pub fn with_private_seeds(mut self) -> Self {
        self.seed_mode = SeedMode::Private;
        self
    }

    /// `ε₂`: the seed agreement error parameter. The paper takes
    /// `min{ε′, ε₁}`; operationally we use `min{ε₁/2, 1/4}`, which keeps
    /// `ε₂ ≤ ε₁` and satisfies `SeedAlg`'s own `ε ≤ 1/4` requirement.
    pub fn epsilon2(&self) -> f64 {
        (self.epsilon1 / 2.0).min(0.25)
    }

    /// Resolves all round counts for a concrete `(r, Δ, Δ')`.
    pub fn resolve(&self, r: f64, delta: usize, delta_prime: usize) -> LbParams {
        let log_inv_e1 = (1.0 / self.epsilon1).log2();
        let log_inv_e2 = (1.0 / self.epsilon2()).log2();
        // log Δ, with Δ rounded up to a power of two (≥ 2).
        let log_delta = (delta.max(2).next_power_of_two().trailing_zeros()).max(1);

        // Bits consumed per body round by the participant test. The
        // paper wants participation probability a / (r² log(1/ε₂)) with
        // a ∈ [1, 2) — i.e. at LEAST the target — so the bit count is
        // ⌊log₂(r² log(1/ε₂))⌋ (flooring the exponent keeps
        // 2^{-k} ∈ [1/x, 2/x)).
        let participant_bits = ((r * r * log_inv_e2).log2().floor() as usize).max(1);

        // Bits selecting b ∈ [log Δ]: round log Δ up to a power of two so
        // the selection stays uniform; extra values extend the probability
        // ladder below 1/Δ, which only strengthens symmetry breaking.
        let ladder = (log_delta as usize).next_power_of_two();
        let b_bits = ladder.trailing_zeros() as usize;

        let t_prog = ((self.c_prog * r * r * log_inv_e1 * log_inv_e2 * f64::from(log_delta))
            .ceil() as u64)
            .max(1);

        let bodies = self.phases_per_agreement;
        let kappa =
            (t_prog as usize) * (participant_bits + b_bits).max(1) * bodies as usize;
        let seed_cfg = SeedConfig::with_c4(self.epsilon2(), kappa, self.seed_c4);
        let t_s = match self.seed_mode {
            SeedMode::Agreement => seed_cfg.total_rounds(delta),
            SeedMode::Private => 0,
        };

        // Sending phases per message: the Appendix C.1 form
        // 12 ln(2Δ/ε₁) Δ' / (c₂ c₁ log(1/ε₁) (1 − ε₁/2)), with the
        // leading constants folded into c_ack.
        let t_ack = ((self.c_ack * delta_prime as f64 * (2.0 * delta as f64 / self.epsilon1).ln()
            / (log_inv_e1 * (1.0 - self.epsilon1 / 2.0)))
            .ceil() as u64)
            .max(1);

        LbParams {
            log_delta,
            participant_bits,
            b_bits,
            ladder: ladder as u32,
            kappa,
            seed_cfg,
            seed_mode: self.seed_mode,
            bodies,
            t_s,
            t_prog,
            t_ack,
        }
    }
}

/// All round counts of one `LBAlg` deployment, resolved from an
/// [`LbConfig`] and the local parameters `(r, Δ, Δ')` every process knows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LbParams {
    /// `log₂ Δ̂` (Δ rounded up to a power of two).
    pub log_delta: u32,
    /// Seed bits consumed per body round by the participant test.
    pub participant_bits: usize,
    /// Seed bits consumed by a participant to select `b`.
    pub b_bits: usize,
    /// The probability ladder size `2^{b_bits} ≥ log Δ`.
    pub ladder: u32,
    /// Seed length `κ` — exactly one phase's worst-case consumption.
    pub kappa: usize,
    /// Configuration of the per-phase `SeedAlg` preamble.
    pub seed_cfg: SeedConfig,
    /// Where the shared randomness comes from.
    pub seed_mode: SeedMode,
    /// `T_prog`-round body segments per phase (Section 4.2's
    /// amortization; 1 in the paper's base algorithm).
    pub bodies: u32,
    /// Preamble length `T_s` in rounds (0 in the private-seeds ablation).
    pub t_s: u64,
    /// Body segment length `T_prog` in rounds.
    pub t_prog: u64,
    /// Sending body segments per message `T_ack`.
    pub t_ack: u64,
}

impl LbParams {
    /// Full phase length `T_s + bodies · T_prog`; with `bodies = 1` this
    /// is the problem's `t_prog` bound `T_s + T_prog`.
    pub fn phase_len(&self) -> u64 {
        self.t_s + u64::from(self.bodies) * self.t_prog
    }

    /// The problem's `t_ack` bound: enough whole phases to accumulate
    /// `T_ack` sending body segments, plus one phase of boundary slack.
    /// With `bodies = 1` this is the paper's `(T_ack + 1)(T_s + T_prog)`.
    pub fn t_ack_rounds(&self) -> u64 {
        (self.t_ack.div_ceil(u64::from(self.bodies)) + 1) * self.phase_len()
    }

    /// Phase index (1-based) and position within the phase (0-based) of a
    /// global round (1-based).
    pub fn locate(&self, round: u64) -> (u64, u64) {
        let idx = round - 1;
        (idx / self.phase_len() + 1, idx % self.phase_len())
    }

    /// Whether the position is in the preamble.
    pub fn in_preamble(&self, pos: u64) -> bool {
        pos < self.t_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> LbParams {
        LbConfig::practical(0.25).resolve(2.0, 8, 8)
    }

    #[test]
    fn epsilon2_is_half_epsilon1_capped() {
        assert!((LbConfig::practical(0.25).epsilon2() - 0.125).abs() < 1e-12);
        assert!((LbConfig::practical(0.5).epsilon2() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn phase_structure_is_consistent() {
        let p = params();
        assert_eq!(p.phase_len(), p.t_s + p.t_prog);
        assert_eq!(p.t_ack_rounds(), (p.t_ack + 1) * p.phase_len());
        assert!(p.t_s > 0 && p.t_prog > 0 && p.t_ack > 0);
    }

    #[test]
    fn locate_round_trips() {
        let p = params();
        assert_eq!(p.locate(1), (1, 0));
        assert_eq!(p.locate(p.phase_len()), (1, p.phase_len() - 1));
        assert_eq!(p.locate(p.phase_len() + 1), (2, 0));
        assert!(p.in_preamble(0));
        assert!(!p.in_preamble(p.t_s));
    }

    #[test]
    fn kappa_covers_one_phase_consumption() {
        let p = params();
        assert_eq!(p.kappa, (p.t_prog as usize) * (p.participant_bits + p.b_bits));
        assert_eq!(p.seed_cfg.seed_bits, p.kappa);
    }

    #[test]
    fn t_prog_scales_with_log_delta() {
        let cfg = LbConfig::practical(0.25);
        let small = cfg.resolve(2.0, 8, 8);
        let large = cfg.resolve(2.0, 64, 64);
        // log Δ: 3 -> 6, so T_prog should double.
        assert_eq!(small.log_delta, 3);
        assert_eq!(large.log_delta, 6);
        assert!(large.t_prog > small.t_prog);
        let ratio = large.t_prog as f64 / small.t_prog as f64;
        assert!((1.5..=2.5).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn t_ack_scales_linearly_with_delta_prime() {
        let cfg = LbConfig::practical(0.25);
        let a = cfg.resolve(2.0, 16, 16);
        let b = cfg.resolve(2.0, 16, 64);
        let ratio = b.t_ack as f64 / a.t_ack as f64;
        assert!((3.0..=5.0).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn ladder_covers_log_delta() {
        let p = LbConfig::practical(0.25).resolve(2.0, 32, 32);
        assert!(p.ladder >= p.log_delta);
        assert_eq!(p.ladder, 1 << p.b_bits);
    }

    #[test]
    #[should_panic(expected = "0 < ε₁ ≤ 1/2")]
    fn rejects_epsilon_above_half() {
        let _ = LbConfig::practical(0.75);
    }

    #[test]
    fn seed_reuse_scales_kappa_and_amortizes_preamble() {
        let base = LbConfig::practical(0.25).resolve(2.0, 8, 8);
        let reused = LbConfig::practical(0.25)
            .with_seed_reuse(4)
            .resolve(2.0, 8, 8);
        assert_eq!(reused.bodies, 4);
        assert_eq!(reused.kappa, base.kappa * 4);
        assert_eq!(reused.t_s, base.t_s);
        assert_eq!(reused.phase_len(), base.t_s + 4 * base.t_prog);
        // Preamble overhead per body segment drops 4x.
        let base_overhead = base.t_s as f64 / base.phase_len() as f64;
        let reused_overhead = reused.t_s as f64 / reused.phase_len() as f64;
        assert!(reused_overhead < base_overhead / 2.0);
        // t_ack (in body segments) is unchanged; the round bound adapts.
        assert_eq!(reused.t_ack, base.t_ack);
        assert_eq!(
            reused.t_ack_rounds(),
            (reused.t_ack.div_ceil(4) + 1) * reused.phase_len()
        );
    }

    #[test]
    fn private_mode_eliminates_preamble() {
        let p = LbConfig::practical(0.25)
            .with_private_seeds()
            .resolve(2.0, 8, 8);
        assert_eq!(p.t_s, 0);
        assert_eq!(p.seed_mode, SeedMode::Private);
        assert_eq!(p.phase_len(), p.t_prog);
        assert!(!p.in_preamble(0));
    }
}
