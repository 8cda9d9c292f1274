//! The "simple algorithm" (paper §4.1): all-to-all broadcast of row and
//! column blocks, then one local block-row × block-column product.
//!
//! Processor `(i, j)` of a `√p × √p` mesh owns blocks `A^{ij}` and
//! `B^{ij}`.  It acquires the whole block-row `A^{i·}` via an all-to-all
//! broadcast among its mesh row and the whole block-column `B^{·j}` via
//! one among its mesh column, then computes
//! `C^{ij} = Σ_k A^{ik}·B^{kj}` locally.
//!
//! **Memory inefficiency** (the paper's point): each processor stores
//! `O(n²/√p)` words, `O(n²·√p)` in total.  [`simple`] reports the peak
//! per-processor residency so the tests can assert it.
//!
//! **Cost.**  With the recursive-doubling allgather on power-of-two mesh
//! sides the simulated time is
//!
//! ```text
//! T_p = n³/p + 2·t_s·log √p + 2·t_w·(n²/p)(√p − 1)
//! ```
//!
//! i.e. Eq. (2) of the paper with its `2·t_s·log p` startup term tidied
//! to the exact `t_s·log p` of the textbook allgather and the bandwidth
//! term's `n²/√p` sharpened to `(n²/p)(√p−1)`.  For non-power-of-two
//! mesh sides a ring allgather is used (cost `(√p−1)(t_s + t_w·n²/p)`
//! per operand).

use std::sync::Arc;

use dense::{kernel, BlockGrid, Matrix};
use mmsim::{Checkpoint, Machine, Payload, Plain, Proc, Transport};

use crate::common::{check_square_operands, exact_sqrt, run_lending, AlgoError, SimOutcome};
use collectives::{allgather_hypercube_on, allgather_ring_on, Group};

/// Check applicability: same mesh requirement as Cannon.
pub fn applicability(n: usize, p: usize) -> Result<usize, AlgoError> {
    let q = exact_sqrt(p).ok_or_else(|| AlgoError::BadProcessorCount {
        p,
        requirement: "the simple algorithm needs a perfect-square processor count".into(),
    })?;
    if !n.is_multiple_of(q) {
        return Err(AlgoError::BadMatrixSize {
            n,
            requirement: format!("mesh side {q} must divide n"),
        });
    }
    Ok(q)
}

fn allgather<X: Transport>(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    mine: Vec<f64>,
) -> Vec<Vec<f64>> {
    if group.is_power_of_two() {
        allgather_hypercube_on::<X>(proc, group, phase, mine)
    } else {
        allgather_ring_on::<X, _>(proc, group, phase, mine)
            .into_iter()
            .map(Payload::into_vec)
            .collect()
    }
}

/// Multiply `a · b` with the simple all-to-all-broadcast algorithm.
///
/// # Errors
/// Returns [`AlgoError`] under the same conditions as
/// [`crate::cannon::cannon`].
pub fn simple(machine: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    simple_on::<Plain>(machine, a, b)
}

/// [`simple`] over transport `X`.  Tag phases:
///
/// | phase | use |
/// |---|---|
/// | 0, 1 | allgathers of the A block-row and the B block-column |
/// | 2 | stage checkpoints: gathered operands, then the local product |
pub fn simple_on<X: Transport>(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<SimOutcome, AlgoError> {
    let n = check_square_operands(a, b)?;
    let p = machine.p();
    let q = applicability(n, p)?;
    let bs = n / q;

    let ga = Arc::new(BlockGrid::split(a, q, q));
    let gb = Arc::new(BlockGrid::split(b, q, q));
    let report = run_lending(machine, |proc| {
        let rank = proc.rank();
        let (i, j) = (rank / q, rank % q);
        // Row group (fixed i) for A; column group (fixed j) for B.
        let row_group = Group::new(proc, (0..q).map(|c| i * q + c).collect());
        let col_group = Group::new(proc, (0..q).map(|r| r * q + j).collect());

        let (a_mine, b_mine) = (ga.block_by_rank(rank), gb.block_by_rank(rank));
        let a_blocks = allgather::<X>(proc, &row_group, 0, a_mine.clone().into_vec());
        let b_blocks = allgather::<X>(proc, &col_group, 1, b_mine.clone().into_vec());
        let mut ckpt = Checkpoint::new(2);
        X::checkpoint(&mut ckpt, proc, || {
            [a_blocks.concat(), b_blocks.concat()].concat()
        });

        let mut c = Matrix::zeros(bs, bs);
        for (ak, bk) in a_blocks.into_iter().zip(b_blocks) {
            let ak = Matrix::from_vec(bs, bs, ak);
            let bk = Matrix::from_vec(bs, bs, bk);
            proc.compute(kernel::work_units(bs, bs, bs));
            kernel::matmul_accumulate(&mut c, &ak, &bk);
        }
        X::checkpoint(&mut ckpt, proc, || c.as_slice().to_vec());
        c
    })?;
    let c = BlockGrid::assemble_from(&report.results, q, q);
    Ok(SimOutcome::from_report(&report, c, n))
}

/// Closed-form simulated time of this implementation (power-of-two mesh
/// side): `n³/p + 2(t_s·log q + t_w·(n²/p)(q−1))`.
#[must_use]
pub fn predicted_time(n: usize, p: usize, t_s: f64, t_w: f64) -> f64 {
    let nf = n as f64;
    let pf = p as f64;
    let q = pf.sqrt();
    let block = nf * nf / pf;
    nf.powi(3) / pf + 2.0 * (t_s * q.log2() + t_w * block * (q - 1.0))
}

/// Peak per-processor memory residency in words: own blocks of A and B
/// plus the gathered block-row and block-column plus the C block —
/// `(2√p + 1)·n²/p = O(n²/√p)` (the paper's §4.1 memory bound).
#[must_use]
pub fn words_per_processor(n: usize, p: usize) -> usize {
    let q = exact_sqrt(p).expect("perfect square");
    let block = n * n / p;
    (2 * q + 1) * block
}

#[cfg(test)]
mod tests {
    use dense::gen;
    use mmsim::{CostModel, Topology};

    use super::*;

    fn verify(n: usize, p: usize) -> SimOutcome {
        let (a, b) = gen::random_pair(n, 17);
        let machine = Machine::new(Topology::square_torus_for(p), CostModel::new(4.0, 0.25));
        let out = simple(&machine, &a, &b).expect("applicable");
        let reference = kernel::matmul(&a, &b);
        assert!(
            out.c.approx_eq(&reference, 1e-10),
            "product mismatch n={n} p={p}"
        );
        out
    }

    #[test]
    fn correct_on_various_meshes() {
        for (n, p) in [(4, 1), (4, 4), (8, 4), (12, 9), (8, 16), (18, 36)] {
            verify(n, p);
        }
    }

    #[test]
    fn simulated_time_matches_model_power_of_two() {
        for (n, p) in [(8usize, 4usize), (16, 16), (8, 64)] {
            let cost = CostModel::new(9.0, 1.25);
            let machine = Machine::new(Topology::square_torus_for(p), cost);
            let (a, b) = gen::random_pair(n, 23);
            let out = simple(&machine, &a, &b).unwrap();
            let expect = predicted_time(n, p, cost.t_s, cost.t_w);
            assert!(
                (out.t_parallel - expect).abs() < 1e-6,
                "n={n} p={p}: sim {} vs model {}",
                out.t_parallel,
                expect
            );
        }
    }

    #[test]
    fn faster_than_cannon_for_small_blocks_on_high_startup() {
        // The simple algorithm pays O(log p) startups vs Cannon's
        // O(√p); with large t_s and a small matrix it wins — this is the
        // regime distinction §6 builds on.
        let (n, p) = (16usize, 64usize);
        let cost = CostModel::new(500.0, 1.0);
        let (a, b) = gen::random_pair(n, 2);
        let m = Machine::new(Topology::square_torus_for(p), cost);
        let t_simple = simple(&m, &a, &b).unwrap().t_parallel;
        let t_cannon = crate::cannon::cannon(&m, &a, &b).unwrap().t_parallel;
        assert!(
            t_simple < t_cannon,
            "simple {t_simple} should beat cannon {t_cannon} at high t_s"
        );
    }

    #[test]
    fn memory_residency_bound() {
        assert_eq!(words_per_processor(16, 16), (2 * 4 + 1) * 16);
        // O(n² √p) total vs n² for the serial algorithm.
        let total = words_per_processor(16, 16) * 16;
        assert!(total > 2 * 16 * 16);
    }

    #[test]
    fn applicability_checks() {
        assert!(applicability(8, 3).is_err());
        assert!(applicability(9, 16).is_err());
        assert_eq!(applicability(12, 36), Ok(6));
    }
}
