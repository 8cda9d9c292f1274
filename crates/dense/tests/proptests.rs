//! Property-based tests for the dense substrate.

use dense::{kernel, BlockGrid, ColStrips, Matrix, RowStrips};
use proptest::prelude::*;

/// Shapes (m, k, n) with each dimension in 1..=12.
fn dims3() -> impl Strategy<Value = (usize, usize, usize)> {
    (1usize..=12, 1usize..=12, 1usize..=12)
}

proptest! {
    #[test]
    fn kernels_agree((m, k, n) in dims3(), seed in 0u64..1000) {
        let a = dense::gen::random(m, k, seed);
        let b = dense::gen::random(k, n, seed + 1);
        let naive = kernel::matmul_naive(&a, &b);
        let fast = kernel::matmul(&a, &b);
        prop_assert!(naive.approx_eq(&fast, 1e-10));
    }

    #[test]
    fn matmul_distributes_over_addition(n in 1usize..=8, seed in 0u64..1000) {
        let a = dense::gen::random(n, n, seed);
        let b = dense::gen::random(n, n, seed + 1);
        let c = dense::gen::random(n, n, seed + 2);
        // A(B + C) = AB + AC
        let lhs = kernel::matmul(&a, &(&b + &c));
        let rhs = &kernel::matmul(&a, &b) + &kernel::matmul(&a, &c);
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn transpose_reverses_product(n in 1usize..=8, seed in 0u64..1000) {
        let a = dense::gen::random(n, n, seed);
        let b = dense::gen::random(n, n, seed + 1);
        // (AB)^T = B^T A^T
        let lhs = kernel::matmul(&a, &b).transpose();
        let rhs = kernel::matmul(&b.transpose(), &a.transpose());
        prop_assert!(lhs.approx_eq(&rhs, 1e-9));
    }

    #[test]
    fn block_grid_roundtrip(
        gr in 1usize..=4,
        gc in 1usize..=4,
        bh in 1usize..=4,
        bw in 1usize..=4,
        seed in 0u64..1000,
    ) {
        let m = dense::gen::random(gr * bh, gc * bw, seed);
        let grid = BlockGrid::split(&m, gr, gc);
        prop_assert_eq!(grid.block_shape(), (bh, bw));
        prop_assert_eq!(&grid.assemble(), &m);
        let blocks = grid.into_blocks();
        prop_assert_eq!(BlockGrid::assemble_from(&blocks, gr, gc), m);
    }

    #[test]
    fn blockwise_product_matches_full(q in 1usize..=3, b in 1usize..=4, seed in 0u64..500) {
        // The block algebra all mesh algorithms rely on:
        // C_ij = Σ_k A_ik · B_kj.
        let n = q * b;
        let (a, bm) = dense::gen::random_pair(n, seed);
        let ga = BlockGrid::split(&a, q, q);
        let gb = BlockGrid::split(&bm, q, q);
        let full = kernel::matmul(&a, &bm);
        let mut blocks = Vec::new();
        for i in 0..q {
            for j in 0..q {
                let mut cij = Matrix::zeros(b, b);
                for k in 0..q {
                    kernel::matmul_accumulate(&mut cij, ga.block(i, k), gb.block(k, j));
                }
                blocks.push(cij);
            }
        }
        let assembled = BlockGrid::assemble_from(&blocks, q, q);
        prop_assert!(assembled.approx_eq(&full, 1e-9));
    }

    #[test]
    fn strip_sum_identity(r in 1usize..=4, w in 1usize..=4, seed in 0u64..500) {
        // C = Σ_l A_col_l · B_row_l (Berntsen's identity).
        let n = r * w;
        let (a, b) = dense::gen::random_pair(n, seed);
        let cs = ColStrips::split(&a, r);
        let rs = RowStrips::split(&b, r);
        let mut sum = Matrix::zeros(n, n);
        for l in 0..r {
            sum.add_assign(&kernel::matmul(cs.strip(l), rs.strip(l)));
        }
        prop_assert!(sum.approx_eq(&kernel::matmul(&a, &b), 1e-9));
    }

    #[test]
    fn max_abs_diff_is_a_metric(n in 1usize..=6, seed in 0u64..500) {
        let a = dense::gen::random(n, n, seed);
        let b = dense::gen::random(n, n, seed + 1);
        prop_assert_eq!(a.max_abs_diff(&a), 0.0);
        prop_assert_eq!(a.max_abs_diff(&b), b.max_abs_diff(&a));
    }

    #[test]
    fn submatrix_of_submatrix_composes(seed in 0u64..500) {
        let m = dense::gen::random(8, 8, seed);
        let outer = m.submatrix(2, 2, 4, 4);
        let inner = outer.submatrix(1, 1, 2, 2);
        prop_assert_eq!(inner, m.submatrix(3, 3, 2, 2));
    }
}
