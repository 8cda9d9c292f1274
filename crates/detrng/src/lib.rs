//! # detrng — deterministic pseudo-randomness for an offline workspace
//!
//! The workspace builds in an environment with no crates.io access, so
//! everything that previously came from `rand`/`rand_chacha` lives here:
//! a small, well-understood generator ([SplitMix64]) plus a stateless
//! mixing function ([`mix`]) for keyed per-event decisions (the fault
//! injector derives every per-message decision from
//! `mix(&[seed, src, dst, seq])`, so the decision is a pure function of
//! the plan and the message coordinates — no generator state to keep in
//! sync across virtual processors).
//!
//! Determinism is the whole point: identical seeds give identical
//! streams on every platform, which the fault-injection proptests rely
//! on.
//!
//! [SplitMix64]: https://prng.di.unimi.it/splitmix64.c

/// SplitMix64: a tiny, fast, full-period 64-bit generator.  Statistical
/// quality is far beyond what workload generation and fault sampling
/// need, and the implementation is simple enough to audit at a glance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The Weyl increment added to the state before every output.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Seed the generator.  Identical seeds give identical streams.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        finalize(self.state)
    }

    /// Word `k` (counting from 0) of the stream seeded with `seed`, with
    /// no generator to step: after `k + 1` draws the state is
    /// `seed + (k+1)·γ`, so this is the value the `(k+1)`-th
    /// [`SplitMix64::next_u64`] of `SplitMix64::new(seed)` returns.
    #[inline(always)]
    #[must_use]
    pub fn word_at(seed: u64, k: u64) -> u64 {
        finalize(seed.wrapping_add(k.wrapping_add(1).wrapping_mul(Self::GAMMA)))
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits of entropy).
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform `f64` in `[lo, hi)`.
    ///
    /// # Panics
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn next_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "invalid range [{lo}, {hi})"
        );
        lo + self.next_f64() * (hi - lo)
    }

    /// Uniform `usize` in `[0, bound)` via rejection-free modulo (the
    /// modulo bias is < 2⁻⁵³ for every bound this workspace uses).
    ///
    /// # Panics
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "bound must be positive");
        (self.next_u64() % bound as u64) as usize
    }
}

/// The SplitMix64 output finalizer: a high-quality 64-bit mixer
/// (variant of Stafford's Mix13).  Bijective, so distinct inputs give
/// distinct outputs.
#[inline(always)]
#[must_use]
pub fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A raw word's top 53 bits as a uniform `f64` in `[0, 1)`: the
/// conversion behind [`SplitMix64::next_f64`].
#[inline(always)]
#[must_use]
pub fn unit_f64(w: u64) -> f64 {
    (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Stateless keyed hash: mixes a sequence of words into one 64-bit
/// value.  `mix(&[seed, a, b])` is the workspace idiom for "a fresh,
/// reproducible random value for event `(a, b)` under `seed`".
#[must_use]
pub fn mix(words: &[u64]) -> u64 {
    let mut acc: u64 = 0x51_7C_C1_B7_27_22_0A_95;
    for &w in words {
        acc = finalize(acc ^ w).wrapping_add(0x9E37_79B9_7F4A_7C15);
    }
    finalize(acc)
}

/// `mix` folded into `[0, 1)` — used for per-event probability draws.
#[must_use]
pub fn mix_unit_f64(words: &[u64]) -> f64 {
    unit_f64(mix(words))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_across_instances() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn unit_floats_in_range() {
        let mut g = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_floats_in_range() {
        let mut g = SplitMix64::new(9);
        for _ in 0..1000 {
            let x = g.next_range_f64(-1.0, 1.0);
            assert!((-1.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_in_range() {
        let mut g = SplitMix64::new(3);
        for bound in [1usize, 2, 7, 1000] {
            for _ in 0..100 {
                assert!(g.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn mix_is_stateless_and_order_sensitive() {
        assert_eq!(mix(&[1, 2, 3]), mix(&[1, 2, 3]));
        assert_ne!(mix(&[1, 2, 3]), mix(&[3, 2, 1]));
        assert_ne!(mix(&[0]), mix(&[1]));
    }

    #[test]
    fn mix_unit_in_range() {
        for i in 0..1000u64 {
            let x = mix_unit_f64(&[99, i]);
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn word_at_index_is_the_kth_draw() {
        for seed in [0, 1, 42, 1 << 63, u64::MAX] {
            let mut g = SplitMix64::new(seed);
            for k in 0..1000 {
                assert_eq!(
                    SplitMix64::word_at(seed, k),
                    g.next_u64(),
                    "seed {seed}, k {k}"
                );
            }
        }
    }

    #[test]
    fn splitmix_reference_vector() {
        // Reference values from the canonical splitmix64.c with seed 0.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(g.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(g.next_u64(), 0x06C4_5D18_8009_454F);
        // The same words as floats: the top 53 bits over 2^53.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_f64().to_bits(), 0x3FEC_4415_072F_63B9);
        assert_eq!(g.next_f64().to_bits(), 0x3FDB_9E27_9AA8_6E58);
        assert_eq!(g.next_f64().to_bits(), 0x3F9B_1174_6200_2500);
    }
}
