//! Berntsen's algorithm (paper §4.4).
//!
//! Uses `p = 2^{3q}` processors with the restriction `p ≤ n^{3/2}`.
//! With `s = p^{1/3}`: `A` is split **by columns** and `B` **by rows**
//! into `s` strips, the hypercube is split into `s` subcubes of `s²`
//! processors, and subcube `l` computes the full-size partial product
//! `A_l · B_l` (`n × n/s` times `n/s × n`) with Cannon's algorithm on
//! its internal `s × s` mesh using rectangular
//! `(n/s) × (n/s²)` / `(n/s²) × (n/s)` blocks.  Finally
//! `C = Σ_l A_l·B_l` is summed across corresponding processors of the
//! `s` subcubes by a recursive-halving reduce-scatter, which leaves `C`
//! distributed over all `p` processors (`n²/p` elements each).
//!
//! The algorithm has the *smallest communication overhead* of the four
//! compared in the paper — but the worst isoefficiency, `O(p²)`, because
//! its concurrency is capped at `n^{3/2}` (§5.2): exactly the trade-off
//! the paper uses to show that low communication volume does not imply
//! scalability.
//!
//! Simulated time (asserted exactly by the tests, `p > 1`):
//!
//! ```text
//! T_p = n³/p                                   (Cannon multiply work)
//!     + 2(t_s + t_w·n²/p)                      (executed alignment)
//!     + 2·t_s·p^{1/3} + 2·t_w·n²/p^{2/3}       (Cannon rolls)
//!     + (1/3)·t_s·log p
//!        + (t_w + t_add)·(n²/p^{2/3})(1 − p^{-1/3})   (reduce-scatter)
//! ```
//!
//! versus the paper's Eq. (5) total of
//! `n³/p + 2·t_s·p^{1/3} + (1/3)·t_s·log p + 3·t_w·n²/p^{2/3}`.

use std::sync::Arc;

use dense::{BlockGrid, ColStrips, Matrix, RowStrips};
use mmsim::{Machine, Plain, Transport};

use crate::cannon::{cannon_core, MeshView};
use crate::common::{
    check_square_operands, exact_cbrt_pow2, run_lending, single_rank, AlgoError, SimOutcome,
};
use collectives::{reduce_scatter_sum_on, Group};

/// Check applicability: `p = 2^{3q}`, `p ≤ n^{3/2}`, and `p^{2/3} | n`;
/// returns `s = p^{1/3}`.
pub fn applicability(n: usize, p: usize) -> Result<usize, AlgoError> {
    let s = exact_cbrt_pow2(p).ok_or_else(|| AlgoError::BadProcessorCount {
        p,
        requirement: "Berntsen's algorithm needs p = 2^{3q} processors".into(),
    })?;
    // p <= n^{3/2}  <=>  p² <= n³ (integer-exact).
    if (p as u128) * (p as u128) > (n as u128).pow(3) {
        return Err(AlgoError::ConcurrencyExceeded {
            n,
            p,
            limit: "Berntsen's algorithm requires p ≤ n^{3/2}".into(),
        });
    }
    if !n.is_multiple_of(s * s) {
        return Err(AlgoError::BadMatrixSize {
            n,
            requirement: format!("p^{{2/3}} = {} must divide n", s * s),
        });
    }
    Ok(s)
}

/// Multiply `a · b` with Berntsen's algorithm.  The product is
/// reassembled from its distribution over all `p` processors.
///
/// # Errors
/// Returns [`AlgoError`] if the structural requirements above fail.
pub fn berntsen(machine: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    berntsen_on::<Plain>(machine, a, b)
}

/// [`berntsen`] over transport `X`.  Tag phases:
///
/// | phase | use |
/// |---|---|
/// | 0, 1, 2 | subcube Cannon: alignment, rolls, checkpoints (the last round's is the stage boundary) |
/// | 8 | reduce-scatter across the subcubes |
pub fn berntsen_on<X: Transport>(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<SimOutcome, AlgoError> {
    let n = check_square_operands(a, b)?;
    let p = machine.p();
    let s = applicability(n, p)?;
    if s == 1 {
        return single_rank(machine, a, b);
    }
    let mesh_block = n / s; // C blocks are (n/s) × (n/s) on each subcube mesh

    // Strip + block the operands once; processors index into the shared
    // structure (their *initial* data only).
    let a_strips = ColStrips::split(a, s);
    let b_strips = RowStrips::split(b, s);
    let a_grids: Arc<Vec<BlockGrid>> = Arc::new(
        (0..s)
            .map(|l| BlockGrid::split(a_strips.strip(l), s, s))
            .collect(),
    );
    let b_grids: Arc<Vec<BlockGrid>> = Arc::new(
        (0..s)
            .map(|l| BlockGrid::split(b_strips.strip(l), s, s))
            .collect(),
    );

    let report = run_lending(machine, |proc| {
        let rank = proc.rank();
        let l = rank / (s * s);
        let local = rank % (s * s);
        let (u, v) = (local / s, local % s);

        // Cannon on this subcube's mesh with rectangular blocks.
        let mesh = MeshView::contiguous(proc, l * s * s, s);
        let a0 = a_grids[l].block(u, v).clone();
        let b0 = b_grids[l].block(u, v).clone();
        let c_partial = cannon_core::<X>(proc, &mesh, a0, b0, 0);

        // Sum across subcubes: group of the s corresponding processors.
        let group = Group::new(proc, (0..s).map(|m| m * s * s + local).collect());
        reduce_scatter_sum_on::<X>(proc, &group, 8, c_partial.into_vec())
    })?;

    // Reassemble: processor (l; u, v) holds rows [l·(n/s²), (l+1)·(n/s²))
    // of C mesh-block (u, v).
    let mut blocks = Vec::with_capacity(s * s);
    for u in 0..s {
        for v in 0..s {
            let mut flat = Vec::with_capacity(mesh_block * mesh_block);
            for l in 0..s {
                let rank = l * s * s + u * s + v;
                flat.extend_from_slice(&report.results[rank]);
            }
            debug_assert_eq!(flat.len(), mesh_block * mesh_block);
            blocks.push(Matrix::from_vec(mesh_block, mesh_block, flat));
        }
    }
    let c = BlockGrid::assemble_from(&blocks, s, s);
    Ok(SimOutcome::from_report(&report, c, n))
}

/// Closed-form simulated time of this implementation (see module docs).
#[must_use]
pub fn predicted_time(n: usize, p: usize, t_s: f64, t_w: f64, t_add: f64) -> f64 {
    let nf = n as f64;
    let pf = p as f64;
    let compute = nf.powi(3) / pf;
    if p == 1 {
        return compute;
    }
    let s = pf.cbrt().round();
    let cannon_block = nf * nf / pf;
    let align = 2.0 * (t_s + t_w * cannon_block);
    let rolls = 2.0 * s * (t_s + t_w * cannon_block);
    let mesh_block_sq = (nf / s) * (nf / s);
    let reduce = s.log2() * t_s + (t_w + t_add) * mesh_block_sq * (1.0 - 1.0 / s);
    compute + align + rolls + reduce
}

/// Per-processor memory residency in words — the paper's §4.4 note that
/// the algorithm is *not* memory efficient:
/// `2·n²/p + n²/p^{2/3}` elements.
#[must_use]
pub fn words_per_processor(n: usize, p: usize) -> f64 {
    let nf = n as f64;
    let pf = p as f64;
    2.0 * nf * nf / pf + nf * nf / pf.powf(2.0 / 3.0)
}

#[cfg(test)]
mod tests {
    use dense::{gen, kernel};
    use mmsim::{CostModel, Topology};

    use super::*;

    fn verify(n: usize, p: usize, cost: CostModel) -> SimOutcome {
        let (a, b) = gen::random_pair(n, 77);
        let machine = Machine::new(Topology::hypercube_for(p), cost);
        let out = berntsen(&machine, &a, &b).expect("applicable");
        let reference = kernel::matmul(&a, &b);
        assert!(
            out.c.approx_eq(&reference, 1e-10),
            "product mismatch n={n} p={p}: max diff {}",
            out.c.max_abs_diff(&reference)
        );
        out
    }

    #[test]
    fn correct_on_admissible_sizes() {
        for (n, p) in [(4, 8), (8, 8), (12, 8), (16, 64), (32, 64)] {
            verify(n, p, CostModel::new(4.0, 0.5));
        }
    }

    #[test]
    fn correct_single_processor() {
        let out = verify(4, 1, CostModel::unit());
        assert_eq!(out.t_parallel, 64.0);
    }

    #[test]
    fn simulated_time_matches_model_exactly() {
        for (n, p) in [(8usize, 8usize), (16, 8), (16, 64), (32, 64)] {
            let cost = CostModel::new(13.0, 0.25);
            let (a, b) = gen::random_pair(n, 79);
            let machine = Machine::new(Topology::hypercube_for(p), cost);
            let out = berntsen(&machine, &a, &b).unwrap();
            let expect = predicted_time(n, p, cost.t_s, cost.t_w, cost.t_add);
            assert!(
                (out.t_parallel - expect).abs() < 1e-6,
                "n={n} p={p}: sim {} vs model {}",
                out.t_parallel,
                expect
            );
        }
    }

    #[test]
    fn concurrency_limit_enforced() {
        // p = 64 needs n ≥ 16 (64 ≤ n^1.5 ⇔ n ≥ 16).
        assert!(matches!(
            applicability(8, 64),
            Err(AlgoError::ConcurrencyExceeded { .. })
        ));
        assert_eq!(applicability(16, 64), Ok(4));
    }

    #[test]
    fn applicability_errors() {
        assert!(matches!(
            applicability(16, 16),
            Err(AlgoError::BadProcessorCount { .. })
        ));
        assert!(matches!(
            applicability(10, 8),
            Err(AlgoError::BadMatrixSize { .. })
        ));
    }

    #[test]
    fn lowest_communication_volume_of_the_mesh_algorithms() {
        // §5.5/§10: Berntsen's algorithm has the smallest communication
        // overhead (though the worst concurrency limit).  Compare total
        // overhead against Cannon at an admissible configuration.
        let (n, p) = (16usize, 64usize);
        let (a, b) = gen::random_pair(n, 83);
        let cost = CostModel::ncube2();
        let t_b = berntsen(&Machine::new(Topology::hypercube_for(p), cost), &a, &b)
            .unwrap()
            .t_parallel;
        let t_c = crate::cannon::cannon(&Machine::new(Topology::square_torus_for(p), cost), &a, &b)
            .unwrap()
            .t_parallel;
        assert!(t_b < t_c, "berntsen {t_b} should beat cannon {t_c} here");
    }

    #[test]
    fn memory_not_efficient() {
        // 2n²/p + n²/p^{2/3} > n²/p (the memory-efficient bound).
        let (n, p) = (16, 64);
        assert!(words_per_processor(n, p) > (n * n / p) as f64);
    }
}
