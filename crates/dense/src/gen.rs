//! Deterministic workload generation for tests, examples and benches.
//!
//! [`random`] fills a matrix, in row-major order, with the stream of
//! `SplitMix64::new(seed).next_range_f64(-1.0, 1.0)`.  It does not step
//! a generator: SplitMix64's state after `k + 1` draws is
//! `seed + (k+1)·γ`, so word `k` is `finalize(seed + (k+1)·γ)`
//! ([`SplitMix64::word_at`]), and element `k` is that word through the
//! same multiply, then add, as `next_range_f64`.  No element depends on
//! another, so the fill is a plain loop the compiler vectorises, and
//! every operand bit is the sequential stream's.

use detrng::SplitMix64;

use crate::matrix::Matrix;

/// The range [`random`] draws from: `[LO, HI)`.
const LO: f64 = -1.0;
const HI: f64 = 1.0;

/// A `rows × cols` matrix of uniform values in `[-1, 1)`, reproducible
/// from `seed`: bit for bit the values `rows·cols` successive
/// `SplitMix64::new(seed).next_range_f64(-1.0, 1.0)` calls return.
#[must_use]
pub fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut data = vec![0.0; rows * cols];
    #[cfg(target_arch = "x86_64")]
    if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
        // SAFETY: the host supports AVX-512F and AVX-512DQ, checked just above.
        unsafe { fill_uniform_avx512(&mut data, seed) };
        return Matrix::from_vec(rows, cols, data);
    }
    fill_uniform(&mut data, seed);
    Matrix::from_vec(rows, cols, data)
}

/// `out[k] = LO + unit(word k)·(HI − LO)`: [`SplitMix64::next_range_f64`]'s
/// multiply, then add (never fused), on the counter-indexed word.
#[inline(always)]
fn fill_uniform(out: &mut [f64], seed: u64) {
    for (k, x) in out.iter_mut().enumerate() {
        let u = detrng::unit_f64(SplitMix64::word_at(seed, k as u64));
        *x = LO + u * (HI - LO);
    }
}

/// [`fill_uniform`] compiled for AVX-512F and AVX-512DQ, whose 64-bit
/// lane multiply (`vpmullq`) and integer-to-double conversion
/// (`vcvtqq2pd`) let the whole body run eight words to a register.
/// Safe Rust never asks for a fused multiply-add, so the bits are the
/// plain body's.
///
/// # Safety
/// The host must support AVX-512F and AVX-512DQ
/// (`is_x86_feature_detected!`).  The body itself is safe code.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn fill_uniform_avx512(out: &mut [f64], seed: u64) {
    fill_uniform(out, seed);
}

/// A matrix whose `(i, j)` entry is `i*cols + j` — handy for eyeballing
/// data movement in examples and debugging distribution code.
#[must_use]
pub fn counter(rows: usize, cols: usize) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| (i * cols + j) as f64)
}

/// The canonical random square pair `(A, B)` used throughout the test
/// suites; seeds are derived from `seed` so A and B are independent.
#[must_use]
pub fn random_pair(n: usize, seed: u64) -> (Matrix, Matrix) {
    (
        random(n, n, seed.wrapping_mul(2)),
        random(n, n, seed.wrapping_mul(2) + 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The sequential definition `random` must reproduce bit for bit.
    fn sequential(rows: usize, cols: usize, seed: u64) -> Vec<u64> {
        let mut rng = SplitMix64::new(seed);
        (0..rows * cols)
            .map(|_| rng.next_range_f64(-1.0, 1.0).to_bits())
            .collect()
    }

    const SHAPES: [(usize, usize); 4] = [(0, 0), (1, 1), (7, 9), (64, 64)];
    const SEEDS: [u64; 4] = [0, 1, 1 << 63, u64::MAX];

    #[test]
    fn random_matches_the_sequential_stream_bitwise() {
        for (rows, cols) in SHAPES {
            for seed in SEEDS {
                let want = sequential(rows, cols, seed);
                let m = random(rows, cols, seed);
                assert_eq!((m.rows(), m.cols()), (rows, cols));
                let got: Vec<u64> = m.as_slice().iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "random({rows}, {cols}, {seed})");

                // Both bodies directly, whatever the host dispatches to.
                let mut plain = vec![0.0; rows * cols];
                fill_uniform(&mut plain, seed);
                let got: Vec<u64> = plain.iter().map(|x| x.to_bits()).collect();
                assert_eq!(got, want, "fill_uniform {rows}x{cols}, seed {seed}");
                #[cfg(target_arch = "x86_64")]
                if is_x86_feature_detected!("avx512f") && is_x86_feature_detected!("avx512dq") {
                    let mut wide = vec![0.0; rows * cols];
                    // SAFETY: the host supports AVX-512F and AVX-512DQ, checked just above.
                    unsafe { fill_uniform_avx512(&mut wide, seed) };
                    let got: Vec<u64> = wide.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(got, want, "fill_uniform_avx512 {rows}x{cols}, seed {seed}");
                }
            }
        }
    }

    #[test]
    fn random_reference_values() {
        // SplitMix64's first three words from seed 0, mapped to [-1, 1).
        let bits: Vec<u64> = random(1, 3, 0)
            .as_slice()
            .iter()
            .map(|x| x.to_bits())
            .collect();
        assert_eq!(
            bits,
            [
                0x3FE8_882A_0E5E_C772,
                0xBFC1_8761_955E_46A0,
                0xBFEE_4EE8_B9DF_FDB0
            ]
        );
    }

    #[test]
    fn random_is_reproducible() {
        assert_eq!(random(4, 4, 9), random(4, 4, 9));
    }

    #[test]
    fn random_differs_across_seeds() {
        assert_ne!(random(4, 4, 1), random(4, 4, 2));
    }

    #[test]
    fn random_in_range() {
        let m = random(10, 10, 3);
        assert!(m.as_slice().iter().all(|&x| (-1.0..1.0).contains(&x)));
    }

    #[test]
    fn counter_layout() {
        let m = counter(3, 4);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(2, 3)], 11.0);
    }

    #[test]
    fn random_pair_independent() {
        let (a, b) = random_pair(8, 5);
        assert_ne!(a, b);
        assert_eq!(a.rows(), 8);
        assert_eq!(b.cols(), 8);
    }
}
