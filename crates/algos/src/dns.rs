//! The Dekel–Nassimi–Sahni (DNS) algorithm, block variant (paper §4.5.2).
//!
//! Uses `p = n²·r` processors, `1 ≤ r ≤ n`, viewed as `r³`
//! *superprocessors* in an `r × r × r` cube, each superprocessor being
//! an `(n/r) × (n/r)` mesh of real processors holding **one matrix
//! element each**.  Stages mirror the one-element DNS algorithm of
//! §4.5.1 at the superprocessor level:
//!
//! 1. Element-wise spread of `A`/`B` over the cube's first axis
//!    (route + broadcast, `4·log r` one-word steps);
//! 2. each superprocessor `(i, j, k)` multiplies blocks
//!    `A^{ji}·B^{ik}` with one-element-per-processor **Cannon** on its
//!    internal mesh (`2(t_s+t_w)·(n/r)` communication);
//! 3. element-wise reduction along the first axis (`log r` steps).
//!
//! With `r = n` (one element per processor overall, `p = n³`) this *is*
//! the classic DNS algorithm; with `r = 1` it degenerates to one-element
//! Cannon on an `n × n` mesh.  The paper's range of interest is
//! `n² ≤ p ≤ n³`.
//!
//! Per Eq. (6) the parallel time is
//! `T_p = n³/p + (t_s + t_w)(5·log(p/n²) + 2·n³/p)`; the simulation
//! matches the structure exactly (plus the executed Cannon alignment and
//! `t_add` reduction charges — see [`predicted_time_full`], which the tests
//! assert exactly on the fully-connected topology).

use std::sync::Arc;

use dense::{BlockGrid, Matrix};
use mmsim::{Checkpoint, Machine, Plain, Transport};

use crate::cannon::{cannon_core, MeshView};
use crate::common::{check_square_operands, run_lending, AlgoError, SimOutcome};
use crate::gk::route_along_i;
use collectives::{broadcast_on, reduce_sum_on, Group};

/// Check applicability: `p = n²·r` with `r` a power of two dividing `n`
/// (so the internal meshes are square and the spread trees are
/// hypercube-shaped); returns `r`.
pub fn applicability(n: usize, p: usize) -> Result<usize, AlgoError> {
    if n == 0 || !p.is_multiple_of(n * n) {
        return Err(AlgoError::BadProcessorCount {
            p,
            requirement: format!("the DNS algorithm needs p = n²·r (n = {n})"),
        });
    }
    let r = p / (n * n);
    if !r.is_power_of_two() {
        return Err(AlgoError::BadProcessorCount {
            p,
            requirement: format!("r = p/n² = {r} must be a power of two"),
        });
    }
    if r > n {
        return Err(AlgoError::ConcurrencyExceeded {
            n,
            p,
            limit: "the DNS algorithm uses at most n³ processors".into(),
        });
    }
    if !n.is_multiple_of(r) {
        return Err(AlgoError::BadMatrixSize {
            n,
            requirement: format!("r = {r} must divide n"),
        });
    }
    Ok(r)
}

/// Multiply `a · b` with the block-variant DNS algorithm.
///
/// # Errors
/// Returns [`AlgoError`] if `p ≠ n²·r` for an admissible `r`.
pub fn dns_block(machine: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    dns_block_on::<Plain>(machine, a, b)
}

/// [`dns_block`] over transport `X`.  Tag phases:
///
/// | phase | use |
/// |---|---|
/// | 0, 1 | routes of the A and B elements along the first axis |
/// | 2, 3 | broadcasts of A (third axis) and B (second axis) |
/// | 4, 5, 6 | internal Cannon: alignment, rolls, its checkpoints |
/// | 7 | reduction along the first axis |
/// | 8 | stage checkpoints: after the spread, after the multiply |
pub fn dns_block_on<X: Transport>(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<SimOutcome, AlgoError> {
    let n = check_square_operands(a, b)?;
    let p = machine.p();
    let r = applicability(n, p)?;
    let m = n / r; // internal mesh side; block size of superblocks

    let ga = Arc::new(BlockGrid::split(a, r, r));
    let gb = Arc::new(BlockGrid::split(b, r, r));

    let report = run_lending(machine, |proc| {
        let rank = proc.rank();
        let (sp, local) = (rank / (m * m), rank % (m * m));
        let (i, jk) = (sp / (r * r), sp % (r * r));
        let (j, k) = (jk / r, jk % r);
        let (u, v) = (local / m, local % m);
        let rank_at = |i: usize, j: usize, k: usize| (((i * r) + j) * r + k) * m * m + local;
        let mut ckpt = Checkpoint::new(8);

        // --- Stage 1: element-wise spread (same pattern as GK; the
        // route relays on hypercubes and is direct elsewhere). ---
        let a_src = (i == 0).then(|| vec![ga.block(j, k)[(u, v)]]);
        let a_routed = route_along_i::<X, _>(proc, |ii| rank_at(ii, j, k), i, k, 0, a_src);
        let b_src = (i == 0).then(|| vec![gb.block(j, k)[(u, v)]]);
        let b_routed = route_along_i::<X, _>(proc, |ii| rank_at(ii, j, k), i, j, 1, b_src);

        let a_group = Group::new(proc, (0..r).map(|l| rank_at(i, j, l)).collect());
        let a_elem = broadcast_on::<X, _>(
            proc,
            &a_group,
            2,
            i,
            (k == i).then(|| a_routed.expect("A at (i,j,i)")),
        )[0];
        let b_group = Group::new(proc, (0..r).map(|l| rank_at(i, l, k)).collect());
        let b_elem = broadcast_on::<X, _>(
            proc,
            &b_group,
            3,
            i,
            (j == i).then(|| b_routed.expect("B at (i,i,k)")),
        )[0];
        X::checkpoint(&mut ckpt, proc, || vec![a_elem, b_elem]);

        // --- Stage 2: one-element Cannon on the internal mesh. ---
        let mesh = MeshView::contiguous(proc, sp * m * m, m);
        let c_elem = cannon_core::<X>(
            proc,
            &mesh,
            Matrix::from_vec(1, 1, vec![a_elem]),
            Matrix::from_vec(1, 1, vec![b_elem]),
            4,
        );
        X::checkpoint(&mut ckpt, proc, || c_elem.as_slice().to_vec());

        // --- Stage 3: element-wise reduction along the first axis. ---
        let r_group = Group::new(proc, (0..r).map(|l| rank_at(l, j, k)).collect());
        reduce_sum_on::<X>(proc, &r_group, 7, 0, c_elem.into_vec())
    })?;

    // C element (j·m+u, k·m+v) lives at (0, j, k, u, v).
    let mut c = Matrix::zeros(n, n);
    for jk in 0..r * r {
        let (j, k) = (jk / r, jk % r);
        for local in 0..m * m {
            let (u, v) = (local / m, local % m);
            let rank = jk * m * m + local;
            let val = report.results[rank].as_ref().expect("front plane holds C")[0];
            c[(j * m + u, k * m + v)] = val;
        }
    }
    Ok(SimOutcome::from_report(&report, c, n))
}

/// The classic one-element-per-processor DNS algorithm of §4.5.1:
/// `p = n³`, everything in `O(log n)` communication steps.  This is
/// [`dns_block`] with `r = n` (superprocessor meshes of one element).
///
/// # Errors
/// Returns [`AlgoError`] unless `p = n³` exactly (and `n` is a power of
/// two, so the spread trees are hypercube-shaped).
pub fn dns_one_element(machine: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    let n = check_square_operands(a, b)?;
    let p = machine.p();
    if p != n * n * n {
        return Err(AlgoError::BadProcessorCount {
            p,
            requirement: format!("the one-element DNS algorithm needs p = n³ = {}", n * n * n),
        });
    }
    dns_block(machine, a, b)
}

/// Closed-form simulated time of this implementation on a
/// fully-connected machine (asserted exactly by the tests, `r ≥ 2`,
/// `m ≥ 2`):
///
/// ```text
/// T_p = [2 + 2·ceil(log r)]·(t_s + t_w)            (spread: routes + bcasts)
///     + 2(t_s + t_w) + m·(1 + 2(t_s + t_w))        (Cannon align + rolls)
///     + ceil(log r)·(t_s + t_w + t_add)            (reduction)
/// ```
#[must_use]
pub fn predicted_time_full(n: usize, p: usize, t_s: f64, t_w: f64, t_add: f64) -> f64 {
    let r = p / (n * n);
    let m = n / r;
    let c = t_s + t_w;
    let lg = if r > 1 {
        (r - 1).ilog2() as f64 + 1.0
    } else {
        0.0
    };
    let spread = if r > 1 { 2.0 * c + 2.0 * lg * c } else { 0.0 };
    let cannon = if m > 1 {
        2.0 * c + m as f64 * (1.0 + 2.0 * c)
    } else {
        1.0
    };
    let reduce = lg * (c + t_add);
    spread + cannon + reduce
}

#[cfg(test)]
mod tests {
    use dense::{gen, kernel};
    use mmsim::{CostModel, Topology};

    use super::*;

    fn verify(n: usize, p: usize, topo: Topology, cost: CostModel) -> SimOutcome {
        let (a, b) = gen::random_pair(n, 91);
        let machine = Machine::new(topo, cost);
        let out = dns_block(&machine, &a, &b).expect("applicable");
        let reference = kernel::matmul(&a, &b);
        assert!(
            out.c.approx_eq(&reference, 1e-10),
            "product mismatch n={n} p={p}: max diff {}",
            out.c.max_abs_diff(&reference)
        );
        out
    }

    #[test]
    fn correct_with_multiple_elements_per_superprocessor() {
        // n=4, r=2 → p=32; n=8, r=2 → p=128.
        verify(
            4,
            32,
            Topology::fully_connected(32),
            CostModel::new(3.0, 0.5),
        );
        verify(
            8,
            128,
            Topology::fully_connected(128),
            CostModel::new(3.0, 0.5),
        );
    }

    #[test]
    fn correct_one_element_per_processor() {
        // r = n = 4: the classic DNS algorithm with p = n³ = 64.
        verify(
            4,
            64,
            Topology::fully_connected(64),
            CostModel::new(3.0, 0.5),
        );
        verify(4, 64, Topology::hypercube_for(64), CostModel::new(3.0, 0.5));
    }

    #[test]
    fn correct_r_equals_one() {
        // p = n²: degenerates to one-element Cannon.
        verify(4, 16, Topology::fully_connected(16), CostModel::unit());
    }

    #[test]
    fn simulated_time_matches_model_on_full_topology() {
        for (n, p) in [(4usize, 32usize), (8, 128)] {
            let cost = CostModel::new(7.0, 2.0);
            let (a, b) = gen::random_pair(n, 93);
            let machine = Machine::new(Topology::fully_connected(p), cost);
            let out = dns_block(&machine, &a, &b).unwrap();
            let expect = predicted_time_full(n, p, cost.t_s, cost.t_w, cost.t_add);
            assert!(
                (out.t_parallel - expect).abs() < 1e-6,
                "n={n} p={p}: sim {} vs model {}",
                out.t_parallel,
                expect
            );
        }
    }

    #[test]
    fn one_element_entry_point() {
        let (a, b) = gen::random_pair(4, 95);
        // p = n³ = 64: accepted and correct.
        let machine = Machine::new(Topology::hypercube_for(64), CostModel::unit());
        let out = dns_one_element(&machine, &a, &b).expect("p = n³");
        assert!(out.c.approx_eq(&kernel::matmul(&a, &b), 1e-10));
        // O(log n) parallel time: a small constant multiple of log₂ 64.
        assert!(
            out.t_parallel < 64.0,
            "T_p = {} should be O(log n)",
            out.t_parallel
        );
        // p ≠ n³ rejected even when dns_block would accept it.
        let machine32 = Machine::new(Topology::fully_connected(32), CostModel::unit());
        assert!(dns_one_element(&machine32, &a, &b).is_err());
        assert!(dns_block(&machine32, &a, &b).is_ok());
    }

    #[test]
    fn applicability_errors() {
        assert!(matches!(
            applicability(4, 20),
            Err(AlgoError::BadProcessorCount { .. })
        ));
        assert!(matches!(
            applicability(4, 48), // r = 3
            Err(AlgoError::BadProcessorCount { .. })
        ));
        assert!(matches!(
            applicability(4, 128), // r = 8 > n
            Err(AlgoError::ConcurrencyExceeded { .. })
        ));
        assert_eq!(applicability(4, 32), Ok(2));
        assert_eq!(applicability(4, 64), Ok(4));
    }

    #[test]
    fn efficiency_bounded_by_startup_constant() {
        // §5.3: E cannot exceed 1/(1 + 2(t_s + t_w)) no matter the
        // problem size, because the 2(t_s+t_w)·n³/p term scales with W.
        let cost = CostModel::new(2.0, 1.0);
        let bound = 1.0 / (1.0 + 2.0 * (cost.t_s + cost.t_w));
        for n in [4usize, 8] {
            let p = 2 * n * n;
            let (a, b) = gen::random_pair(n, 97);
            let machine = Machine::new(Topology::fully_connected(p), cost);
            let out = dns_block(&machine, &a, &b).unwrap();
            assert!(
                out.efficiency() < bound,
                "n={n}: efficiency {} should stay below the §5.3 bound {bound}",
                out.efficiency()
            );
        }
    }
}
