//! FNV-1a over 64-bit words: the digests the goldens pin.

/// Streaming FNV-1a (64-bit) hasher fed whole words.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Absorb one word, byte by byte (little-endian).
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Absorb a float by its bit pattern: `-0.0` and `0.0` differ, which
    /// is what "bit-identical virtual time" means.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// Absorb every element of a slice of floats.
    pub fn floats(&mut self, xs: &[f64]) {
        for &x in xs {
            self.float(x);
        }
    }

    /// Absorb a string's bytes and its length.
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }

    /// The digest so far.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_and_sign_of_zero_matter() {
        let run = |xs: &[f64]| {
            let mut d = Digest::default();
            d.floats(xs);
            d.finish()
        };
        assert_eq!(run(&[1.0, 2.0]), run(&[1.0, 2.0]));
        assert_ne!(run(&[1.0, 2.0]), run(&[2.0, 1.0]));
        assert_ne!(run(&[0.0]), run(&[-0.0]));
        assert_ne!(run(&[]), run(&[0.0]));
    }
}
