//! The GK algorithm — the paper's variant of DNS (§4.6).
//!
//! Uses `p = 2^{3q}` processors logically arranged as a
//! `p^{1/3} × p^{1/3} × p^{1/3}` cube; processor `(i, j, k)` has rank
//! `i·s² + j·s + k` with `s = p^{1/3}`.  The operands are divided into
//! `(n/s)²` blocks numbered like the single elements of the classic DNS
//! algorithm, and all single-element operations become block operations:
//!
//! 1. **Spread** (§4.6 stage 1): `A^{jk}`, initially on the front plane
//!    at `(0, j, k)`, is routed to `(k, j, k)` and broadcast along the
//!    third axis to `(k, j, l)`; symmetrically `B^{jk}` is routed to
//!    `(j, j, k)` and broadcast along the second axis.  After the
//!    spread, `(i, j, k)` holds `A^{ji}` and `B^{ik}`.
//! 2. **Multiply**: each processor computes the `(n/s)³ = n³/p`
//!    multiply–add block product `A^{ji}·B^{ik}`.
//! 3. **Reduce** (stage 3): partial products are summed along the first
//!    axis onto the front plane, which then holds `C = A·B`.
//!
//! On a **hypercube** the route step relays through intermediate
//! processors (one hop per set bit of the destination coordinate), so a
//! worst-case line pays `log s` startups — giving the
//! `(5/3)(t_s + t_w·n²/p^{2/3}) log p` overhead of Eq. (7).  On the
//! **fully connected** CM-5 model the route is a single message and the
//! overall shape is Eq. (18):
//! `T_p = n³/p + (t_s + t_w·n²/p^{2/3})(log p + 2)`.
//!
//! The simulated time tracks these equations closely but not exactly:
//! the engine lets the A-spread, B-spread and early arrivals overlap
//! where the paper's accounting serialises them, and the tree-reduction
//! additions are charged at `t_add` per element instead of the paper's
//! aggregate `t_add·n³/p`.  The tests pin the deviation to a few
//! percent.

use std::sync::Arc;

use dense::{kernel, BlockGrid, Matrix};
use mmsim::engine::message::tag;
use mmsim::{Checkpoint, Machine, Payload, Plain, Proc, RunReport, TopologyKind, Transport};

use crate::common::{
    check_square_operands, exact_cbrt_pow2, phase_state, run_lending, single_rank, AlgoError,
    SimOutcome,
};
use collectives::{
    broadcast_on, broadcast_scatter_allgather_on, gather_on, reduce_scatter_sum_on, reduce_sum_on,
    Group,
};

/// Check applicability: `p = 2^{3q}` and `p^{1/3} | n`; returns the cube
/// side `s = p^{1/3}`.
pub fn applicability(n: usize, p: usize) -> Result<usize, AlgoError> {
    let s = exact_cbrt_pow2(p).ok_or_else(|| AlgoError::BadProcessorCount {
        p,
        requirement: "the GK algorithm needs p = 2^{3q} processors".into(),
    })?;
    if p > n * n * n {
        return Err(AlgoError::ConcurrencyExceeded {
            n,
            p,
            limit: "the GK algorithm uses at most n³ processors".into(),
        });
    }
    if !n.is_multiple_of(s) {
        return Err(AlgoError::BadMatrixSize {
            n,
            requirement: format!("cube side {s} must divide n"),
        });
    }
    Ok(s)
}

/// Route a payload along the first (i) axis of the cube line
/// `(·, j, k)`, from `i = 0` to `i = dest`, over transport `X`.
///
/// On a hypercube this relays LSB-first through the intermediate
/// processors whose `i` is a prefix-mask of `dest` (e-cube order); on
/// any other topology it is a single direct message.  Every processor
/// on the line calls this; the return value is `Some` exactly at the
/// destination.
pub(crate) fn route_along_i<X: Transport, P: Into<Payload>>(
    proc: &mut Proc,
    rank_of_i: impl Fn(usize) -> usize,
    my_i: usize,
    dest: usize,
    phase: u32,
    payload: Option<P>,
) -> Option<Payload> {
    let payload: Option<Payload> = payload.map(Into::into);
    if dest == 0 {
        return payload.filter(|_| my_i == 0);
    }
    let relay = proc.topology().kind() == TopologyKind::Hypercube;
    if !relay {
        if my_i == 0 {
            X::send(
                proc,
                rank_of_i(dest),
                tag(phase, 0),
                payload.expect("route source holds the payload"),
            );
            return None;
        }
        if my_i == dest {
            return Some(X::recv(proc, rank_of_i(0), tag(phase, 0)));
        }
        return None;
    }

    // Hypercube relay: walk dest's set bits LSB-first.
    let mut cur = 0usize;
    let mut holding = if my_i == 0 { payload } else { None };
    let mut t = 0u32;
    let mut bit = 1usize;
    while cur != dest {
        if dest & bit != 0 {
            let next = cur | bit;
            if my_i == cur {
                X::send(
                    proc,
                    rank_of_i(next),
                    tag(phase, t),
                    holding.take().expect("relay holder has the payload"),
                );
            } else if my_i == next {
                holding = Some(X::recv(proc, rank_of_i(cur), tag(phase, t)));
            }
            cur = next;
        }
        bit <<= 1;
        t += 1;
    }
    holding.filter(|_| my_i == dest)
}

/// Multiply `a · b` with the GK algorithm.  The product is reassembled
/// from the front plane `(0, j, k)` where the algorithm leaves it.
///
/// # Errors
/// Returns [`AlgoError`] if the operands are not equal square matrices,
/// `p` is not a power of eight, or `p^{1/3}` does not divide `n`.
pub fn gk(machine: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    gk_on::<Plain>(machine, a, b)
}

/// [`gk`] over transport `X`.  Tag phases:
///
/// | phase | use |
/// |---|---|
/// | 0, 1 | routes of A and B along the first axis |
/// | 2, 3 | broadcasts of A (third axis) and B (second axis) |
/// | 4 | reduction along the first axis |
/// | 5 | stage checkpoints: operands in place, then the local product |
pub fn gk_on<X: Transport>(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<SimOutcome, AlgoError> {
    let n = check_square_operands(a, b)?;
    let s = applicability(n, machine.p())?;
    if s == 1 {
        return single_rank(machine, a, b);
    }
    let bs = n / s;

    let ga = Arc::new(BlockGrid::split(a, s, s));
    let gb = Arc::new(BlockGrid::split(b, s, s));
    let report = run_lending(machine, |proc| {
        let ([i, j, k], a_routed, b_routed) = route_operands::<X>(proc, s, &ga, &gb);
        let rank_at = |i: usize, j: usize, k: usize| (i * s + j) * s + k;

        // --- Stage 1c: broadcast A along the third axis. ---
        // Group (i, j, ·); the root is l = i, which now holds A^{ji}.
        let a_group = Group::new(proc, (0..s).map(|l| rank_at(i, j, l)).collect());
        let a_flat = broadcast_on::<X, _>(proc, &a_group, 2, i, a_routed);
        // Unique handle after the broadcast tree completes: a free move.
        let a_blk = Matrix::from_vec(bs, bs, a_flat.into_vec());

        // --- Stage 1d: broadcast B along the second axis. ---
        // Group (i, ·, k); the root is l = i, which now holds B^{ik}.
        let b_group = Group::new(proc, (0..s).map(|l| rank_at(i, l, k)).collect());
        let b_flat = broadcast_on::<X, _>(proc, &b_group, 3, i, b_routed);
        let b_blk = Matrix::from_vec(bs, bs, b_flat.into_vec());

        // Checkpoint after stage 1: operands are in place.
        let mut ckpt = Checkpoint::new(5);
        X::checkpoint(&mut ckpt, proc, || phase_state(&[&a_blk, &b_blk]));

        // --- Stage 2: local block product A^{ji}·B^{ik}. ---
        let mut c = Matrix::zeros(bs, bs);
        proc.compute(kernel::work_units(bs, bs, bs));
        kernel::matmul_accumulate(&mut c, &a_blk, &b_blk);

        // Checkpoint after stage 2: the local product, the state the
        // reduction consumes.
        X::checkpoint(&mut ckpt, proc, || c.as_slice().to_vec());

        // --- Stage 3: sum along the first axis onto (0, j, k). ---
        let r_group = Group::new(proc, (0..s).map(|l| rank_at(l, j, k)).collect());
        reduce_sum_on::<X>(proc, &r_group, 4, 0, c.into_vec())
    })?;
    Ok(front_plane(&report, n, s))
}

/// Check the extra divisibility the improved variant needs: the block
/// (`(n/s)²` words) must split evenly over the `s`-member broadcast and
/// reduction groups.
pub fn improved_applicability(n: usize, p: usize) -> Result<usize, AlgoError> {
    let s = applicability(n, p)?;
    let block_words = (n / s) * (n / s);
    if s > 1 && !block_words.is_multiple_of(s) {
        return Err(AlgoError::BadMatrixSize {
            n,
            requirement: format!(
                "improved GK needs the cube side {s} to divide the block size {block_words}"
            ),
        });
    }
    Ok(s)
}

/// The improved GK variant (§5.4.1 in spirit): the naive tree
/// broadcasts and reduction are replaced by **bandwidth-optimal**
/// collectives (scatter-allgather broadcast; reduce-scatter + gather
/// reduction), which removes the `log p` factor from the `t_w` term —
/// the same asymptotic effect as the paper's Johnsson–Ho pipelined
/// broadcast, achieved with whole-message primitives the engine can
/// charge exactly.  The `t_s` terms grow by a constant factor, exactly
/// the trade the paper analyses (worth it for large blocks, not for
/// small ones — see the `improved_beats_naive_for_large_blocks` test).
///
/// # Errors
/// Same conditions as [`gk`], plus the block-divisibility requirement
/// of [`improved_applicability`].
pub fn gk_improved(machine: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    gk_improved_on::<Plain>(machine, a, b)
}

/// [`gk_improved`] over transport `X`.  Tag phases:
///
/// | phase | use |
/// |---|---|
/// | 0, 1 | routes of A and B along the first axis |
/// | 2–3, 4–5 | scatter-allgather broadcasts of A and B |
/// | 6, 7 | reduce-scatter and gather along the first axis |
/// | 8 | stage checkpoints: operands in place, then the local product |
pub fn gk_improved_on<X: Transport>(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<SimOutcome, AlgoError> {
    let n = check_square_operands(a, b)?;
    let s = improved_applicability(n, machine.p())?;
    if s == 1 {
        return single_rank(machine, a, b);
    }
    let bs = n / s;

    let ga = Arc::new(BlockGrid::split(a, s, s));
    let gb = Arc::new(BlockGrid::split(b, s, s));
    let report = run_lending(machine, |proc| {
        let ([i, j, k], a_routed, b_routed) = route_operands::<X>(proc, s, &ga, &gb);
        let rank_at = |i: usize, j: usize, k: usize| (i * s + j) * s + k;

        let a_group = Group::new(proc, (0..s).map(|l| rank_at(i, j, l)).collect());
        let a_root = a_routed.map(Payload::into_vec);
        let a_flat = broadcast_scatter_allgather_on::<X>(proc, &a_group, 2, i, a_root);
        let a_blk = Matrix::from_vec(bs, bs, a_flat);
        let b_group = Group::new(proc, (0..s).map(|l| rank_at(i, l, k)).collect());
        let b_root = b_routed.map(Payload::into_vec);
        let b_flat = broadcast_scatter_allgather_on::<X>(proc, &b_group, 4, i, b_root);
        let b_blk = Matrix::from_vec(bs, bs, b_flat);
        let mut ckpt = Checkpoint::new(8);
        X::checkpoint(&mut ckpt, proc, || phase_state(&[&a_blk, &b_blk]));

        let mut c = Matrix::zeros(bs, bs);
        proc.compute(kernel::work_units(bs, bs, bs));
        kernel::matmul_accumulate(&mut c, &a_blk, &b_blk);
        X::checkpoint(&mut ckpt, proc, || c.as_slice().to_vec());

        // Bandwidth-optimal reduction along the first axis.
        let r_group = Group::new(proc, (0..s).map(|l| rank_at(l, j, k)).collect());
        let piece = reduce_scatter_sum_on::<X>(proc, &r_group, 6, c.into_vec());
        gather_on::<X>(proc, &r_group, 7, 0, piece).map(|pieces| pieces.concat())
    })?;
    Ok(front_plane(&report, n, s))
}

/// Stage 1a–b of both variants: route `A^{jk}` from `(0, j, k)` to
/// `(k, j, k)` and `B^{jk}` to `(j, j, k)` along the line `(·, j, k)`
/// (tag phases 0 and 1).  Every processor takes part in the routes on
/// its own line.  Returns its coordinates `(i, j, k)`, then `A^{ji}`
/// exactly when `k = i` and `B^{ik}` exactly when `j = i`, the roots of
/// the two axis broadcasts.
fn route_operands<X: Transport>(
    proc: &mut Proc,
    s: usize,
    ga: &BlockGrid,
    gb: &BlockGrid,
) -> ([usize; 3], Option<Payload>, Option<Payload>) {
    let [i, j, k] = [proc.rank() / (s * s), proc.rank() / s % s, proc.rank() % s];
    let line = |ii: usize| (ii * s + j) * s + k;
    let a_src = (i == 0).then(|| ga.block(j, k).clone().into_vec());
    let a_routed = route_along_i::<X, _>(proc, line, i, k, 0, a_src);
    let b_src = (i == 0).then(|| gb.block(j, k).clone().into_vec());
    let b_routed = route_along_i::<X, _>(proc, line, i, j, 1, b_src);
    debug_assert!((a_routed.is_some() == (k == i)) && (b_routed.is_some() == (j == i)));
    ([i, j, k], a_routed, b_routed)
}

/// The outcome with `C` reassembled from the front plane `(0, j, k)`:
/// ranks `0..s²` hold its blocks row-major.
fn front_plane(report: &RunReport<Option<Vec<f64>>>, n: usize, s: usize) -> SimOutcome {
    let blocks: Vec<Matrix> = report.results[..s * s]
        .iter()
        .map(|r| Matrix::from_vec(n / s, n / s, r.clone().expect("front plane holds C")))
        .collect();
    SimOutcome::from_report(report, BlockGrid::assemble_from(&blocks, s, s), n)
}

/// Eq. (7): GK parallel time on a single-port hypercube,
/// `n³/p + (5/3)·t_s·log p + (5/3)·t_w·(n²/p^{2/3})·log p`.
#[must_use]
pub fn eq7_time(n: usize, p: usize, t_s: f64, t_w: f64) -> f64 {
    let nf = n as f64;
    let pf = p as f64;
    let lg = pf.log2();
    nf.powi(3) / pf + (5.0 / 3.0) * lg * (t_s + t_w * nf * nf / pf.powf(2.0 / 3.0))
}

/// Eq. (18): GK parallel time on the fully connected CM-5 model,
/// `n³/p + t_s(log p + 2) + t_w·(n²/p^{2/3})(log p + 2)`.
#[must_use]
pub fn eq18_time(n: usize, p: usize, t_s: f64, t_w: f64) -> f64 {
    let nf = n as f64;
    let pf = p as f64;
    let lg = pf.log2();
    nf.powi(3) / pf + (t_s + t_w * nf * nf / pf.powf(2.0 / 3.0)) * (lg + 2.0)
}

#[cfg(test)]
mod tests {
    use dense::gen;
    use mmsim::{CostModel, Topology};

    use super::*;

    fn verify(n: usize, p: usize, topo: Topology, cost: CostModel) -> SimOutcome {
        let (a, b) = gen::random_pair(n, 51);
        let machine = Machine::new(topo, cost);
        let out = gk(&machine, &a, &b).expect("applicable");
        let reference = kernel::matmul(&a, &b);
        assert!(
            out.c.approx_eq(&reference, 1e-10),
            "product mismatch n={n} p={p}: max diff {}",
            out.c.max_abs_diff(&reference)
        );
        out
    }

    #[test]
    fn correct_on_small_cubes() {
        for (n, p) in [(2, 8), (4, 8), (6, 8), (8, 8), (4, 64), (8, 64), (12, 64)] {
            verify(n, p, Topology::hypercube_for(p), CostModel::new(5.0, 0.5));
            verify(n, p, Topology::fully_connected(p), CostModel::new(5.0, 0.5));
        }
    }

    #[test]
    fn correct_single_processor() {
        let out = verify(4, 1, Topology::fully_connected(1), CostModel::unit());
        assert_eq!(out.t_parallel, 64.0);
    }

    #[test]
    fn uses_any_p_up_to_n_cubed() {
        // §4.6: "unlike the DNS algorithm which works only for
        // n² ≤ p ≤ n³, this algorithm can use any number of processors
        // from 1 to n³."  p = 8 < n² = 64 with n = 8:
        verify(8, 8, Topology::hypercube_for(8), CostModel::unit());
        // p = n³ = 64 with n = 4 (one element per processor):
        verify(4, 64, Topology::hypercube_for(64), CostModel::unit());
    }

    #[test]
    fn simulated_time_tracks_eq18_on_cm5_model() {
        let cost = CostModel::cm5();
        for (n, p) in [(16usize, 8usize), (32, 8), (32, 64), (64, 64)] {
            let (a, b) = gen::random_pair(n, 53);
            let machine = Machine::new(Topology::fully_connected(p), cost);
            let out = gk(&machine, &a, &b).unwrap();
            let eq18 = eq18_time(n, p, cost.t_s, cost.t_w);
            let rel = (out.t_parallel - eq18).abs() / eq18;
            assert!(
                rel < 0.20,
                "n={n} p={p}: sim {} deviates {:.1}% from Eq.18 {}",
                out.t_parallel,
                rel * 100.0,
                eq18
            );
        }
    }

    #[test]
    fn simulated_time_tracks_eq7_on_hypercube() {
        let cost = CostModel::new(30.0, 3.0);
        for (n, p) in [(16usize, 8usize), (32, 64), (64, 64)] {
            let (a, b) = gen::random_pair(n, 59);
            let machine = Machine::new(Topology::hypercube_for(p), cost);
            let out = gk(&machine, &a, &b).unwrap();
            let eq7 = eq7_time(n, p, cost.t_s, cost.t_w);
            let rel = (out.t_parallel - eq7).abs() / eq7;
            assert!(
                rel < 0.25,
                "n={n} p={p}: sim {} deviates {:.1}% from Eq.7 {}",
                out.t_parallel,
                rel * 100.0,
                eq7
            );
        }
    }

    #[test]
    fn hypercube_routing_costs_more_startups_than_full() {
        // The relay pays up to log s startups per route where the
        // fully connected network pays one.
        let cost = CostModel::new(100.0, 0.1);
        let (a, b) = gen::random_pair(8, 61);
        let t_cube = gk(&Machine::new(Topology::hypercube_for(64), cost), &a, &b)
            .unwrap()
            .t_parallel;
        let t_full = gk(&Machine::new(Topology::fully_connected(64), cost), &a, &b)
            .unwrap()
            .t_parallel;
        assert!(
            t_cube > t_full,
            "hypercube {t_cube} should exceed fully-connected {t_full}"
        );
    }

    #[test]
    fn fat_tree_equals_fully_connected_under_cut_through() {
        // §9's modelling assumption, checked: with negligible per-hop
        // time, the CM-5's 4-ary fat tree behaves exactly like a fully
        // connected network for the GK algorithm.
        let (a, b) = gen::random_pair(16, 113);
        let cost = CostModel::cm5();
        let t_tree = gk(&Machine::new(Topology::fat_tree(4, 3), cost), &a, &b)
            .unwrap()
            .t_parallel;
        let t_full = gk(&Machine::new(Topology::fully_connected(64), cost), &a, &b)
            .unwrap()
            .t_parallel;
        assert_eq!(t_tree, t_full);
        // With a real per-hop latency the fat tree is slower — the
        // assumption is load-bearing, not vacuous.
        let lag = cost.with_hop_latency(5.0);
        let t_tree_h = gk(&Machine::new(Topology::fat_tree(4, 3), lag), &a, &b)
            .unwrap()
            .t_parallel;
        assert!(t_tree_h > t_tree);
    }

    #[test]
    fn deterministic() {
        let (a, b) = gen::random_pair(8, 67);
        let machine = Machine::new(Topology::hypercube_for(64), CostModel::ncube2());
        let t1 = gk(&machine, &a, &b).unwrap();
        let t2 = gk(&machine, &a, &b).unwrap();
        assert_eq!(t1.t_parallel, t2.t_parallel);
        assert_eq!(t1.c, t2.c);
    }

    #[test]
    fn applicability_errors() {
        assert!(matches!(
            applicability(8, 16),
            Err(AlgoError::BadProcessorCount { .. })
        ));
        assert!(matches!(
            applicability(9, 8),
            Err(AlgoError::BadMatrixSize { .. })
        ));
        assert!(matches!(
            applicability(2, 64),
            Err(AlgoError::ConcurrencyExceeded { .. })
        ));
        assert_eq!(applicability(8, 64), Ok(4));
    }

    #[test]
    fn improved_variant_correct() {
        for (n, p) in [(4, 8), (8, 8), (8, 64), (16, 64)] {
            let (a, b) = gen::random_pair(n, 103);
            for topo in [Topology::hypercube_for(p), Topology::fully_connected(p)] {
                let machine = Machine::new(topo, CostModel::new(5.0, 0.5));
                let out = gk_improved(&machine, &a, &b).expect("applicable");
                let reference = kernel::matmul(&a, &b);
                assert!(
                    out.c.approx_eq(&reference, 1e-10),
                    "improved GK mismatch n={n} p={p}"
                );
            }
        }
    }

    #[test]
    fn improved_applicability_stricter() {
        // n = 6, p = 8: block 9 words, cube side 2 does not divide 9.
        assert!(applicability(6, 8).is_ok());
        assert!(improved_applicability(6, 8).is_err());
        assert_eq!(improved_applicability(8, 8), Ok(2));
    }

    #[test]
    fn improved_beats_naive_for_large_blocks() {
        // Bandwidth-dominated: large blocks, low t_s → the log-free t_w
        // term wins (§5.4.1's point).
        let (a, b) = gen::random_pair(64, 107);
        let machine = Machine::new(Topology::hypercube_for(64), CostModel::new(1.0, 3.0));
        let naive = gk(&machine, &a, &b).unwrap().t_parallel;
        let improved = gk_improved(&machine, &a, &b).unwrap().t_parallel;
        assert!(
            improved < naive,
            "improved {improved} should beat naive {naive} on big blocks"
        );
    }

    #[test]
    fn naive_beats_improved_for_tiny_blocks_high_startup() {
        // Startup-dominated: the improved variant pays extra t_s·log p
        // (the §5.4.1 granularity floor in action).
        let (a, b) = gen::random_pair(8, 109);
        let machine = Machine::new(Topology::hypercube_for(64), CostModel::new(500.0, 0.1));
        let naive = gk(&machine, &a, &b).unwrap().t_parallel;
        let improved = gk_improved(&machine, &a, &b).unwrap().t_parallel;
        assert!(
            naive < improved,
            "naive {naive} should beat improved {improved} on tiny blocks"
        );
    }

    #[test]
    fn beats_cannon_for_small_matrices_on_high_startup_machines() {
        // The §9 headline: for small n the GK algorithm outperforms
        // Cannon's (here both at p = 64 on the CM-5 model).
        let (a, b) = gen::random_pair(32, 71);
        let machine = Machine::new(Topology::fully_connected(64), CostModel::cm5());
        let t_gk = gk(&machine, &a, &b).unwrap().t_parallel;
        let t_cannon = crate::cannon::cannon(&machine, &a, &b).unwrap().t_parallel;
        assert!(
            t_gk < t_cannon,
            "GK {t_gk} should beat Cannon {t_cannon} at n=32, p=64"
        );
    }
}
