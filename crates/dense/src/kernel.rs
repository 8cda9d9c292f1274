//! Serial matrix-multiplication kernels.
//!
//! All kernels compute the conventional triple-loop product; they differ
//! only in loop order and register blocking.  `C = A·B` for `A: m×k`,
//! `B: k×n` performs `m·n·k` multiply–add pairs, i.e. `m·n·k` units of
//! the paper's normalised work (`W = n³` for square `n×n` inputs).

use std::ops::Range;
use std::sync::Mutex;

use crate::lend;
use crate::matrix::Matrix;

/// The paper's problem size `W` for multiplying `m×k` by `k×n`:
/// the number of multiply–add unit operations.
#[must_use]
pub fn work_units(m: usize, k: usize, n: usize) -> f64 {
    m as f64 * k as f64 * n as f64
}

fn check_shapes(a: &Matrix, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions must agree: {}x{} times {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// Textbook i-j-k product.  Reference semantics; slowest.
#[must_use]
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    check_shapes(a, b);
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut c = Matrix::zeros(m, n);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for l in 0..k {
                acc += a[(i, l)] * b[(l, j)];
            }
            c[(i, j)] = acc;
        }
    }
    c
}

/// Cache-friendly i-k-j product over raw slices — the default kernel.
///
/// Walking `B` and `C` row-wise in the inner loop keeps accesses
/// unit-stride, which the optimiser auto-vectorises.
#[must_use]
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    check_shapes(a, b);
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_accumulate(&mut c, a, b);
    c
}

/// Rows and columns of C one AVX2 register tile covers: 4 rows of two
/// 4-lane registers.
const TILE_ROWS: usize = 4;
const TILE_COLS: usize = 8;
/// Rows and columns of C one AVX-512 register tile covers: 8 rows of
/// two 8-lane registers.  Split chunks are a multiple of its height.
const WIDE_ROWS: usize = 8;
const WIDE_COLS: usize = 16;

/// Fewest multiply-adds, and fewest rows of C, a lending thread splits
/// across helper threads.  Below it a split cannot pay: on 2 vCPUs with
/// AVX-512 a 64³ call (2^18) takes 20–25 µs on one core in 8×16 tiles,
/// and waking a parked helper takes 8–15 µs.  Measured there with the
/// helpers spinning, splitting 64³–96³ calls ran 1.2–1.5× slower than
/// serial, 64×128×128 (2^20) broke even (0.9–1.1×), and 128³ (2^21)
/// and 192³ calls split ran 1.3–1.7× faster whenever the second vCPU
/// was free.
const SPLIT_MIN_WORK: usize = 1 << 20;
const SPLIT_MIN_ROWS: usize = 8;
/// Chunks a split call cuts C's rows into.
pub(crate) const SPLIT_CHUNKS: usize = 8;

/// `C += A·B` on raw row-major slices, i-k-j order.
///
/// This is the primitive the simulated algorithms use for local block
/// updates (Cannon/Fox/GK all accumulate partial products in place).
///
/// Every C element receives `a[i][l] * b[l][j]` for ascending `l`, as a
/// separate multiply and add (never fused), skipping the `l` where
/// `a[i][l] == 0.0`: results are bit-identical to the plain i-k-j loop
/// whichever path runs.  On an x86-64 host, blocks of at least 8×16 take
/// 8×16 register tiles compiled for AVX-512 (`accumulate_tiled_avx512`)
/// where the host has AVX-512F, other blocks of at least 4×8 take 4×8
/// tiles compiled for AVX2 (`accumulate_tiled_avx2`) where it has AVX2,
/// and every other block, host and target takes the row-pair loop.  Inside
/// [`with_idle_cores`](crate::with_idle_cores), calls of at least 2^20
/// multiply-adds and 8 rows split C's rows across helper threads
/// (`accumulate_split`), each chunk taking the same path on its rows.
///
/// # Panics
/// Panics on any shape mismatch.
pub fn matmul_accumulate(c: &mut Matrix, a: &Matrix, b: &Matrix) {
    check_shapes(a, b);
    assert_eq!(
        (c.rows(), c.cols()),
        (a.rows(), b.cols()),
        "output shape mismatch: {}x{} for {}x{} times {}x{}",
        c.rows(),
        c.cols(),
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let (av, bv) = (a.as_slice(), b.as_slice());
    let cv = c.as_mut_slice();
    if m >= SPLIT_MIN_ROWS
        && m.saturating_mul(k).saturating_mul(n) >= SPLIT_MIN_WORK
        && lend::lending()
    {
        accumulate_split(cv, av, bv, m, k, n);
        return;
    }
    accumulate_serial(cv, av, bv, m, k, n);
}

/// `C: m×n += A: m×k · B: k×n` on the calling thread: the tiles where
/// they fit, the row-pair loop otherwise.
#[inline(always)]
fn accumulate_serial(cv: &mut [f64], av: &[f64], bv: &[f64], m: usize, k: usize, n: usize) {
    // Blocks smaller than one tile never reach the feature check.
    #[cfg(target_arch = "x86_64")]
    if m >= TILE_ROWS && n >= TILE_COLS && is_x86_feature_detected!("avx2") {
        accumulate_tiled(cv, av, bv, m, k, n);
        return;
    }
    accumulate_row_pairs(cv, av, bv, k, n, 0..m, 0..n);
}

/// [`accumulate_serial`] over chunks of C's rows, shared with whichever
/// helper threads are free (see `lend`).  A chunk is a multiple of the
/// wide tile's 8 rows (the last one may be shorter), and rows are
/// independent: each C element is still computed by one thread, in
/// ascending `l`, so the result is bit-identical to the serial call for
/// any shape.
#[cold]
#[inline(never)]
fn accumulate_split(cv: &mut [f64], av: &[f64], bv: &[f64], m: usize, k: usize, n: usize) {
    let rows = m.div_ceil(SPLIT_CHUNKS).next_multiple_of(WIDE_ROWS);
    if rows * n == 0 {
        return; // C is empty
    }
    let mut strips = cv.chunks_mut(rows * n);
    let parts: [Mutex<Option<&mut [f64]>>; SPLIT_CHUNKS] =
        std::array::from_fn(|_| Mutex::new(strips.next()));
    lend::split(m.div_ceil(rows), &|i| {
        let c = parts[i]
            .lock()
            .expect("chunk slot poisoned")
            .take()
            .expect("each chunk runs once");
        let mi = c.len() / n;
        let a = &av[i * rows * k..(i * rows + mi) * k];
        accumulate_serial(c, a, bv, mi, k, n);
    });
}

/// Out-of-line entry to the tiled paths, for blocks of at least one
/// 4×8 tile on an AVX2 host: the widest tiles the host and the block's
/// shape allow.  `#[cold]` is a layout hint only: it keeps the row-pair
/// path above a straight fall-through, so tiny blocks pay nothing for
/// the tiles' existence; a tiled call does enough work to hide one
/// extra jump.
#[cfg(target_arch = "x86_64")]
#[cold]
#[inline(never)]
fn accumulate_tiled(cv: &mut [f64], av: &[f64], bv: &[f64], m: usize, k: usize, n: usize) {
    if m >= WIDE_ROWS && n >= WIDE_COLS && is_x86_feature_detected!("avx512f") {
        // SAFETY: the host supports AVX-512F, checked just above.
        unsafe { accumulate_tiled_avx512(cv, av, bv, m, k, n) };
    } else {
        // SAFETY: the only caller has checked that the host supports AVX2.
        unsafe { accumulate_tiled_avx2(cv, av, bv, m, k, n) };
    }
}

/// `C[rows, cols] += A[rows, :]·B[:, cols]` for row-major `C: ·×n`,
/// `A: ·×k`, `B: k×n`, register-blocked over pairs of C rows.
///
/// Each row of B is streamed once per row *pair* instead of once per
/// row, halving B traffic and giving the vectoriser two independent
/// accumulator streams.  Every C element still receives exactly the same
/// additions in the same ascending-k order (with the same per-row
/// `aval == 0` skip) as the plain i-k-j loop, so results are
/// bit-identical.
#[inline(always)]
fn accumulate_row_pairs(
    cv: &mut [f64],
    av: &[f64],
    bv: &[f64],
    k: usize,
    n: usize,
    rows: Range<usize>,
    cols: Range<usize>,
) {
    let (j0, j1) = (cols.start, cols.end);
    let mut i = rows.start;
    while i + 1 < rows.end {
        let (crow0, crow1) = cv[i * n..(i + 2) * n].split_at_mut(n);
        let (crow0, crow1) = (&mut crow0[j0..j1], &mut crow1[j0..j1]);
        for l in 0..k {
            let a0 = av[i * k + l];
            let a1 = av[(i + 1) * k + l];
            let brow = &bv[l * n + j0..l * n + j1];
            if a0 != 0.0 && a1 != 0.0 {
                for ((c0, c1), bx) in crow0.iter_mut().zip(crow1.iter_mut()).zip(brow) {
                    *c0 += a0 * bx;
                    *c1 += a1 * bx;
                }
            } else if a0 != 0.0 {
                for (c0, bx) in crow0.iter_mut().zip(brow) {
                    *c0 += a0 * bx;
                }
            } else if a1 != 0.0 {
                for (c1, bx) in crow1.iter_mut().zip(brow) {
                    *c1 += a1 * bx;
                }
            }
        }
        i += 2;
    }
    if i < rows.end {
        let crow = &mut cv[i * n + j0..i * n + j1];
        for l in 0..k {
            let aval = av[i * k + l];
            if aval == 0.0 {
                continue;
            }
            let brow = &bv[l * n + j0..l * n + j1];
            for (cx, bx) in crow.iter_mut().zip(brow) {
                *cx += aval * bx;
            }
        }
    }
}

/// [`matmul_accumulate`]'s tiled path for `C: m×n += A: m×k · B: k×n`
/// with 4×8 tiles, compiled for AVX2 (and deliberately not FMA, which
/// would round each multiply-add once instead of twice).  What the
/// tiles leave goes through the row-pair loop (see [`accumulate_tiles`]).
/// Correct for any shape; [`matmul_accumulate`] calls it only for
/// blocks of at least one tile.
///
/// # Safety
/// The host must support AVX2 (`is_x86_feature_detected!("avx2")`).
/// The body itself is safe code: every index is bounds-checked.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn accumulate_tiled_avx2(
    cv: &mut [f64],
    av: &[f64],
    bv: &[f64],
    m: usize,
    k: usize,
    n: usize,
) {
    let narrow = |cv: &mut [f64], rows, cols| row_pairs_outlined(cv, av, bv, k, n, rows, cols);
    accumulate_tiles::<TILE_ROWS, TILE_COLS>(cv, av, bv, k, n, 0..m, 0..n, &narrow);
}

/// [`matmul_accumulate`]'s tiled path for `C: m×n += A: m×k · B: k×n`
/// with 8×16 tiles, compiled for AVX-512F.  What the wide tiles leave
/// (an 8-row strip of A holding an exact zero, the columns past the last
/// full 16, the rows past the last full 8) goes to the same code with
/// 4×8 tiles, whose own remainders go through the row-pair loop.
///
/// `avx512f` implies `fma` in rustc, but safe Rust never asks for a
/// fused multiply-add: each `*cx += aval * bx` stays a multiply and an
/// add, rounded twice, as on every other path.  Correct for any shape;
/// [`matmul_accumulate`] calls it only for blocks of at least 8×16.
///
/// # Safety
/// The host must support AVX-512F (`is_x86_feature_detected!("avx512f")`).
/// The body itself is safe code: every index is bounds-checked.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn accumulate_tiled_avx512(
    cv: &mut [f64],
    av: &[f64],
    bv: &[f64],
    m: usize,
    k: usize,
    n: usize,
) {
    let narrow = |cv: &mut [f64], rows, cols| row_pairs_outlined(cv, av, bv, k, n, rows, cols);
    let rest = |cv: &mut [f64], rows, cols| {
        accumulate_tiles::<TILE_ROWS, TILE_COLS>(cv, av, bv, k, n, rows, cols, &narrow);
    };
    accumulate_tiles::<WIDE_ROWS, WIDE_COLS>(cv, av, bv, k, n, 0..m, 0..n, &rest);
}

/// `C[rows, cols] += A[rows, :]·B[:, cols]` in R×C register tiles, for
/// row-major `C: ·×n`, `A: ·×k`, `B: k×n`.
///
/// A tile keeps its R·C values of C in registers for the whole `k` loop
/// and streams one C-wide row of B per `k`, instead of loading and
/// storing C once per `k`.  An R-row strip of A holding an exact zero,
/// the columns past the last full C and the rows past the last full R
/// go to `rest`, which must compute its rectangle as the plain i-k-j
/// loop does; so the zero skip and the ascending-`k` order are exactly
/// the plain loop's.
#[cfg(target_arch = "x86_64")]
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn accumulate_tiles<const R: usize, const C: usize>(
    cv: &mut [f64],
    av: &[f64],
    bv: &[f64],
    k: usize,
    n: usize,
    rows: Range<usize>,
    cols: Range<usize>,
    rest: &impl Fn(&mut [f64], Range<usize>, Range<usize>),
) {
    let i_end = rows.end - rows.len() % R;
    let j_end = cols.end - cols.len() % C;
    for i in (rows.start..i_end).step_by(R) {
        let strip = &av[i * k..(i + R) * k];
        if strip.contains(&0.0) {
            rest(cv, i..i + R, cols.clone());
            continue;
        }
        for j in (cols.start..j_end).step_by(C) {
            accumulate_tile::<R, C>(cv, strip, bv, k, n, i, j);
        }
        if j_end < cols.end {
            rest(cv, i..i + R, j_end..cols.end);
        }
    }
    if i_end < rows.end {
        rest(cv, i_end..rows.end, cols);
    }
}

/// [`accumulate_row_pairs`] as a function of its own, for the tiled
/// paths' fallbacks: compiled for the baseline target rather than inlined
/// into a tiled function, it runs the short column remainders (1–7
/// wide) faster than an AVX2 copy does.
#[cfg(target_arch = "x86_64")]
#[inline(never)]
fn row_pairs_outlined(
    cv: &mut [f64],
    av: &[f64],
    bv: &[f64],
    k: usize,
    n: usize,
    rows: Range<usize>,
    cols: Range<usize>,
) {
    accumulate_row_pairs(cv, av, bv, k, n, rows, cols);
}

/// One R×C tile of C at `(i, j)`: `C[i..i+R, j..j+C] += strip · B[:, j..j+C]`,
/// where `strip` is rows `i..i+R` of A (no exact zeros).
#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn accumulate_tile<const R: usize, const C: usize>(
    cv: &mut [f64],
    strip: &[f64],
    bv: &[f64],
    k: usize,
    n: usize,
    i: usize,
    j: usize,
) {
    let arows: [&[f64]; R] = std::array::from_fn(|r| &strip[r * k..(r + 1) * k]);
    let mut acc = [[0.0; C]; R];
    for (r, row) in acc.iter_mut().enumerate() {
        row.copy_from_slice(&cv[(i + r) * n + j..(i + r) * n + j + C]);
    }
    for l in 0..k {
        let brow = &bv[l * n + j..l * n + j + C];
        for (row, arow) in acc.iter_mut().zip(arows) {
            let aval = arow[l];
            for (cx, bx) in row.iter_mut().zip(brow) {
                *cx += aval * bx;
            }
        }
    }
    for (r, row) in acc.iter().enumerate() {
        cv[(i + r) * n + j..(i + r) * n + j + C].copy_from_slice(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use proptest::prelude::*;

    /// The plain i-k-j loop with the per-element zero skip: the
    /// semantics every `matmul_accumulate` path must reproduce bit for
    /// bit.
    fn plain_ikj(c: &mut Matrix, a: &Matrix, b: &Matrix) {
        let (m, k, n) = (a.rows(), a.cols(), b.cols());
        for i in 0..m {
            for l in 0..k {
                let aval = a.as_slice()[i * k + l];
                if aval == 0.0 {
                    continue;
                }
                for j in 0..n {
                    c.as_mut_slice()[i * n + j] += aval * b.as_slice()[l * n + j];
                }
            }
        }
    }

    /// Bit equality, except that any NaN matches any NaN: the payload a
    /// NaN result carries is unspecified (it depends on operand order
    /// inside one IEEE addition, which the compiler may commute).
    fn same_bits(x: &Matrix, y: &Matrix) -> bool {
        x.as_slice()
            .iter()
            .zip(y.as_slice())
            .all(|(p, q)| p.to_bits() == q.to_bits() || (p.is_nan() && q.is_nan()))
    }

    #[test]
    fn work_units_cubic() {
        assert_eq!(work_units(4, 4, 4), 64.0);
        assert_eq!(work_units(2, 3, 5), 30.0);
    }

    #[test]
    fn known_product() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let b = Matrix::from_vec(2, 2, vec![5.0, 6.0, 7.0, 8.0]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn kernels_agree_on_random_input() {
        let a = gen::random(13, 7, 42);
        let b = gen::random(7, 9, 43);
        let naive = matmul_naive(&a, &b);
        let fast = matmul(&a, &b);
        assert!(naive.approx_eq(&fast, 1e-12));
    }

    #[test]
    fn accumulate_adds_to_existing() {
        let a = Matrix::identity(3);
        let b = gen::random(3, 3, 1);
        let mut c = b.clone();
        matmul_accumulate(&mut c, &a, &b);
        // C = B + I·B = 2B.
        let expect = Matrix::from_fn(3, 3, |i, j| 2.0 * b[(i, j)]);
        assert!(c.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn rectangular_products() {
        let a = gen::random(5, 3, 7);
        let b = gen::random(3, 8, 8);
        let c = matmul(&a, &b);
        assert_eq!((c.rows(), c.cols()), (5, 8));
        assert!(c.approx_eq(&matmul_naive(&a, &b), 1e-12));
    }

    #[test]
    fn empty_inner_dimension_gives_zero() {
        let a = Matrix::zeros(3, 0);
        let b = Matrix::zeros(0, 3);
        let c = matmul(&a, &b);
        assert_eq!(c, Matrix::zeros(3, 3));
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn shape_mismatch_rejected() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = matmul(&a, &b);
    }

    #[test]
    fn accumulate_is_bit_identical_to_plain_ikj() {
        // The register-blocked kernel must reproduce the plain i-k-j
        // reference bit for bit — virtual-time golden files depend on
        // local results being deterministic across kernel revisions.
        // (13, 9, 27) is wide enough for the 16-column tiles.
        let shapes = [
            (5, 7, 9, 1u64),
            (8, 8, 8, 2),
            (1, 4, 3, 3),
            (6, 1, 5, 4),
            (13, 9, 27, 5),
        ];
        for ((m, k, n, seed), zeros) in shapes.into_iter().flat_map(|s| [(s, false), (s, true)]) {
            let mut a = gen::random(m, k, seed);
            let b = gen::random(k, n, seed + 100);
            // Exercise the zero-skip path too.  A zero in every row sends
            // every strip to the row-pair loop, so each shape also runs
            // without.
            if zeros && k > 1 {
                for i in 0..m {
                    a[(i, i % k)] = 0.0;
                }
            }
            let mut fast = gen::random(m, n, seed + 200);
            let mut slow = fast.clone();
            matmul_accumulate(&mut fast, &a, &b);
            plain_ikj(&mut slow, &a, &b);
            for (x, y) in fast.as_slice().iter().zip(slow.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    /// A block dimension: mostly 1..=40 (every tile remainder), now and
    /// then one of the block sizes the ledger's large runs use.
    fn dim() -> impl Strategy<Value = usize> {
        (1usize..=46).prop_map(|d| match d {
            41 | 42 => 64,
            43 | 44 => 128,
            45 | 46 => 192,
            d => d,
        })
    }

    /// One kernel input `(c, a, b)`.  `zeros` plants an exact zero in A
    /// every `zeros` elements (0: none), `start_neg_zero` starts C at
    /// `-0.0` instead of random values, and `specials` plants `+inf`,
    /// `-inf` and NaN in B every `specials` elements (0: none) — where A
    /// is zero they must be skipped, not multiplied.
    fn case_input(
        (m, k, n): (usize, usize, usize),
        seed: u64,
        zeros: usize,
        start_neg_zero: bool,
        specials: usize,
    ) -> (Matrix, Matrix, Matrix) {
        let mut a = gen::random(m, k, seed);
        let mut b = gen::random(k, n, seed + 1);
        let c = if start_neg_zero {
            Matrix::from_fn(m, n, |_, _| -0.0)
        } else {
            gen::random(m, n, seed + 2)
        };
        if zeros > 0 {
            for x in a
                .as_mut_slice()
                .iter_mut()
                .skip(seed as usize % zeros)
                .step_by(zeros)
            {
                *x = 0.0;
            }
        }
        if specials > 0 {
            let values = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
            for (x, v) in b
                .as_mut_slice()
                .iter_mut()
                .step_by(specials)
                .zip(values.iter().cycle())
            {
                *x = *v;
            }
        }
        (c, a, b)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn accumulate_matches_plain_ikj_bitwise(
            shape in (dim(), dim(), dim()),
            seed in 0u64..1000,
            zeros in 0usize..40,
            start_neg_zero in 0u32..2,
            specials in 0usize..60,
        ) {
            // Half the cases without zeros (the tiles' own path), half
            // with (strips falling back to the row-pair loop).
            let zeros = if zeros < 20 { 0 } else { zeros - 17 };
            let specials = if specials < 30 { 0 } else { specials - 27 };
            let (c0, a, b) = case_input(shape, seed, zeros, start_neg_zero == 1, specials);
            let mut want = c0.clone();
            plain_ikj(&mut want, &a, &b);

            let mut got = c0.clone();
            matmul_accumulate(&mut got, &a, &b);
            prop_assert!(same_bits(&got, &want), "matmul_accumulate {shape:?}");

            // The tiled paths directly, whatever the shape, so an AVX2
            // host checks the 4×8 tiles and the row pairs on every case,
            // and an AVX-512 host the 8×16 tiles too.
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                let (m, k, n) = shape;
                let mut tiled = c0.clone();
                // SAFETY: the host supports AVX2, checked just above.
                unsafe {
                    accumulate_tiled_avx2(tiled.as_mut_slice(), a.as_slice(), b.as_slice(), m, k, n);
                }
                prop_assert!(same_bits(&tiled, &want), "accumulate_tiled_avx2 {shape:?}");
            }
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx512f") {
                let (m, k, n) = shape;
                let mut wide = c0.clone();
                // SAFETY: the host supports AVX-512F, checked just above.
                unsafe {
                    accumulate_tiled_avx512(wide.as_mut_slice(), a.as_slice(), b.as_slice(), m, k, n);
                }
                prop_assert!(same_bits(&wide, &want), "accumulate_tiled_avx512 {shape:?}");
            }

            // The split path directly, whatever the shape, so every case
            // is cut into chunks, not only those above the threshold.
            let (m, k, n) = shape;
            let mut split = c0;
            crate::with_idle_cores(|| {
                accumulate_split(split.as_mut_slice(), a.as_slice(), b.as_slice(), m, k, n);
            });
            prop_assert!(same_bits(&split, &want), "accumulate_split {shape:?}");
        }
    }

    #[test]
    fn concurrent_lenders_are_bit_identical() {
        // Two lenders at once: one holds the helpers, the other must
        // fall back to running its chunks alone — neither may wait on
        // the other or see its chunks.  Released by one barrier per
        // round, the two calls reach the pool microseconds apart, and a
        // call lasts about a millisecond, so rounds collide.
        let n = 192;
        let a = gen::random(n, n, 1);
        let b = gen::random(n, n, 2);
        let c0 = gen::random(n, n, 3);
        let mut want = c0.clone();
        plain_ikj(&mut want, &a, &b);
        let barrier = std::sync::Barrier::new(2);
        let side = || {
            crate::with_idle_cores(|| {
                let before = lend::BUSY_FALLBACKS.with(std::cell::Cell::get);
                for _ in 0..20 {
                    barrier.wait();
                    let mut got = c0.clone();
                    matmul_accumulate(&mut got, &a, &b);
                    assert!(same_bits(&got, &want), "lent product diverges");
                }
                lend::BUSY_FALLBACKS.with(std::cell::Cell::get) - before
            })
        };
        let twenty_rounds = || {
            std::thread::scope(|s| {
                let one = s.spawn(side);
                let two = s.spawn(side);
                one.join().unwrap() + two.join().unwrap()
            })
        };
        // A host descheduling one side through all twenty rounds gets
        // more rounds, not a failure.
        let collided = (0..10).any(|_| twenty_rounds() > 0);
        assert!(collided, "no call was forced onto the serial fallback");
    }

    #[test]
    fn idle_cores_flag_is_restored_after_a_panic() {
        assert!(!lend::lending());
        let caught = std::panic::catch_unwind(|| {
            crate::with_idle_cores(|| {
                assert!(lend::lending());
                panic!("inside the lending scope");
            })
        });
        assert!(caught.is_err());
        assert!(!lend::lending(), "the flag outlived its scope");
        // Nested scopes restore the enclosing setting, not `false`.
        crate::with_idle_cores(|| {
            let _ = std::panic::catch_unwind(|| crate::with_idle_cores(|| panic!("nested")));
            assert!(lend::lending());
        });
    }
}
