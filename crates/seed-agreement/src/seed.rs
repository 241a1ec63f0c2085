//! The seed domain `S = {0,1}^κ` and ordered bit consumption.
//!
//! A seed is a fixed-length bit string chosen uniformly at random. The
//! independence property of the `Seed` specification (Condition 4) and the
//! per-bit uniformity lemmas (B.17, B.18) are properties of *fresh* bits:
//! consumers must take each bit at most once, in order, which
//! [`SeedCursor`] enforces by panicking on exhaustion rather than
//! recycling bits.

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A seed: an immutable bit string of fixed length `κ`.
///
/// The words sit behind one shared `Arc`, so a clone — a preamble
/// message fanned out to every neighbor, a decision adopted for a phase
/// body — is a reference-count bump, and the value's size does not
/// grow with `κ`.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Seed {
    words: Arc<[u64]>,
    len_bits: usize,
}

/// The serialized shape of a [`Seed`]: its words and bit length, the
/// wire form whatever the in-memory layout.
#[derive(Serialize, Deserialize)]
struct SeedWire {
    words: Vec<u64>,
    len_bits: usize,
}

impl Serialize for Seed {
    fn serialize<S: serde::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        SeedWire {
            words: self.words.to_vec(),
            len_bits: self.len_bits,
        }
        .serialize(serializer)
    }
}

impl<'de> Deserialize<'de> for Seed {
    fn deserialize<D: serde::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wire = SeedWire::deserialize(deserializer)?;
        if wire.len_bits == 0 || wire.len_bits > wire.words.len().saturating_mul(64) {
            return Err(serde::de::Error::custom(format!(
                "seed of {} bits does not fit its {} words",
                wire.len_bits,
                wire.words.len()
            )));
        }
        Ok(Seed::from_words(wire.words, wire.len_bits))
    }
}

impl Seed {
    /// Draws a seed uniformly at random from `{0,1}^κ`.
    ///
    /// # Panics
    ///
    /// Panics if `len_bits` is zero.
    pub fn random(rng: &mut impl Rng, len_bits: usize) -> Self {
        assert!(len_bits > 0, "seed must have at least one bit");
        let words = (0..len_bits.div_ceil(64)).map(|_| rng.gen::<u64>()).collect();
        Seed { words, len_bits }
    }

    /// Builds a seed from explicit words (for tests); bits beyond
    /// `len_bits` are masked out on read.
    pub fn from_words(words: Vec<u64>, len_bits: usize) -> Self {
        assert!(len_bits > 0 && len_bits <= words.len() * 64);
        Seed {
            words: words.into(),
            len_bits,
        }
    }

    /// The seed length `κ` in bits.
    pub fn len(&self) -> usize {
        self.len_bits
    }

    /// Whether the seed has zero bits (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.len_bits == 0
    }

    /// The `i`-th bit (0-indexed).
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn bit(&self, i: usize) -> bool {
        assert!(i < self.len_bits, "bit index {i} out of range {}", self.len_bits);
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Begins ordered consumption of this seed's bits.
    pub fn cursor(&self) -> SeedCursor<'_> {
        SeedCursor { seed: self, pos: 0 }
    }
}

impl fmt::Debug for Seed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Print at most the first 16 bits plus length, to keep traces
        // readable.
        let shown = self.len_bits.min(16);
        write!(f, "Seed[{}b ", self.len_bits)?;
        for i in 0..shown {
            write!(f, "{}", u8::from(self.bit(i)))?;
        }
        if shown < self.len_bits {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

/// An ordered, single-pass reader of a seed's bits.
///
/// The algorithms "consume new bits" from their committed seed each round;
/// reusing a bit would correlate rounds and void the uniformity arguments
/// (Lemma B.17), so the cursor panics when asked for more bits than
/// remain — a configuration bug, since `κ` is sized to cover the maximum
/// consumption (Appendix C.1).
#[derive(Debug, Clone)]
pub struct SeedCursor<'a> {
    seed: &'a Seed,
    pos: usize,
}

impl<'a> SeedCursor<'a> {
    /// Bits not yet consumed.
    pub fn remaining(&self) -> usize {
        self.seed.len() - self.pos
    }

    /// Consumes `k ≤ 64` fresh bits, returning them as the low bits of a
    /// `u64` (first consumed bit is the least significant).
    ///
    /// # Panics
    ///
    /// Panics if `k > 64` or fewer than `k` bits remain.
    pub fn take_bits(&mut self, k: usize) -> u64 {
        assert!(k <= 64, "at most 64 bits per call, asked for {k}");
        assert!(
            self.remaining() >= k,
            "seed exhausted: asked for {k} bits, {} remain (κ too small for this configuration)",
            self.remaining()
        );
        let mut out = 0u64;
        for j in 0..k {
            out |= u64::from(self.seed.bit(self.pos + j)) << j;
        }
        self.pos += k;
        out
    }

    /// Consumes `k` bits and reports whether they are all zero — the
    /// paper's participant test ("if all of these bits are 0").
    pub fn all_zero(&mut self, k: usize) -> bool {
        self.take_bits(k) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn random_seed_has_requested_length() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let s = Seed::random(&mut rng, 100);
        assert_eq!(s.len(), 100);
        assert!(!s.is_empty());
    }

    #[test]
    fn bits_round_trip_from_words() {
        let s = Seed::from_words(vec![0b1011], 4);
        assert!(s.bit(0));
        assert!(s.bit(1));
        assert!(!s.bit(2));
        assert!(s.bit(3));
    }

    #[test]
    fn cursor_consumes_in_order_lsb_first() {
        let s = Seed::from_words(vec![0b1101_0110], 8);
        let mut c = s.cursor();
        assert_eq!(c.take_bits(3), 0b110);
        assert_eq!(c.take_bits(5), 0b11010);
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn all_zero_detects_zero_runs() {
        let s = Seed::from_words(vec![0b11_0000], 6);
        let mut c = s.cursor();
        assert!(c.all_zero(4));
        assert!(!c.all_zero(2));
    }

    #[test]
    #[should_panic(expected = "seed exhausted")]
    fn cursor_panics_on_exhaustion() {
        let s = Seed::from_words(vec![0], 4);
        let mut c = s.cursor();
        let _ = c.take_bits(5);
    }

    #[test]
    fn random_seeds_differ_across_draws() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let a = Seed::random(&mut rng, 128);
        let b = Seed::random(&mut rng, 128);
        assert_ne!(a, b);
    }

    #[test]
    fn debug_format_is_nonempty_and_truncated() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let s = Seed::random(&mut rng, 128);
        let dbg = format!("{s:?}");
        assert!(dbg.contains("128b"));
        assert!(dbg.contains('…'));
    }

    #[test]
    fn serde_keeps_the_wire_form_and_rejects_impossible_lengths() {
        let s = Seed::from_words(vec![5, 6], 100);
        let json = serde_json::to_string(&s).unwrap();
        assert_eq!(json, r#"{"words":[5,6],"len_bits":100}"#);
        assert_eq!(serde_json::from_str::<Seed>(&json).unwrap(), s);
        for bad in [
            r#"{"words":[1],"len_bits":65}"#,
            r#"{"words":[],"len_bits":0}"#,
            r#"{"words":[1],"len_bits":0}"#,
        ] {
            assert!(serde_json::from_str::<Seed>(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn bit_uniformity_sanity() {
        // Not a spec test, just a sanity check that ~half the bits are set.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let s = Seed::random(&mut rng, 4096);
        let ones = (0..s.len()).filter(|&i| s.bit(i)).count();
        assert!((1700..=2400).contains(&ones), "ones = {ones}");
    }
}
