//! Fox's algorithm (paper §4.3), in two executable variants.
//!
//! Processor `(i, j)` of a `√p × √p` wraparound mesh owns `A^{ij}`,
//! `B^{ij}`.  The algorithm runs `√p` iterations; in iteration `t` the
//! diagonal-offset owner `(i, (i+t) mod √p)` broadcasts its A block
//! along mesh row `i`, every processor multiplies it into its
//! accumulator with its current B block, and the B blocks roll one step
//! north.
//!
//! * [`fox_tree`] broadcasts with the binomial tree — the "more
//!   sophisticated scheme for one-to-all broadcast on a hypercube" the
//!   paper mentions; simulated time
//!   `n³/p + √p·( ceil(log √p)+1 )·(t_s + t_w·n²/p)`, asserted exactly
//!   by the tests.
//! * [`fox_pipelined`] relays the A block around the mesh row in
//!   `packets` pieces, the packetised pipeline Fox *et al.* use to reach
//!   Eq. (4) `T_p ≈ n³/p + 2·t_w·n²/√p + t_s·p`.  Pipelining arises
//!   naturally from the virtual-time engine: a processor forwards each
//!   packet as soon as it arrives, so transfer and downstream compute
//!   overlap across iterations.
//!
//! The fully asynchronous variant the paper sketches (compute as soon as
//! data is available, roughly 2× Cannon) is an execution *schedule*
//! rather than a different communication pattern; its behaviour is
//! bracketed by the two variants here and we model its time analytically
//! in the `model` crate.

use std::sync::Arc;

use dense::{kernel, BlockGrid, Matrix};
use mmsim::engine::message::tag;
use mmsim::{Checkpoint, Machine, Plain, Transport};

use crate::common::{
    check_square_operands, exact_sqrt, phase_state, run_lending, AlgoError, SimOutcome,
};
use collectives::{broadcast_on, Group};

/// Check applicability: same mesh requirement as Cannon.
pub fn applicability(n: usize, p: usize) -> Result<usize, AlgoError> {
    let q = exact_sqrt(p).ok_or_else(|| AlgoError::BadProcessorCount {
        p,
        requirement: "Fox's algorithm needs a perfect-square processor count".into(),
    })?;
    if !n.is_multiple_of(q) {
        return Err(AlgoError::BadMatrixSize {
            n,
            requirement: format!("mesh side {q} must divide n"),
        });
    }
    Ok(q)
}

/// Fox's algorithm with binomial-tree row broadcasts.
///
/// # Errors
/// Returns [`AlgoError`] under the same conditions as Cannon.
pub fn fox_tree(machine: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    fox_tree_on::<Plain>(machine, a, b)
}

/// [`fox_tree`] over transport `X`.  Tags of iteration `t`:
///
/// | tag | use |
/// |---|---|
/// | phase `t` | binomial row broadcast of the A block |
/// | `tag(u32::MAX, t)` | northward roll of the B block |
/// | phase `u32::MAX − 1` | checkpoint: the rolled B block plus the accumulator |
///
/// Each of the `√p` iterations fences on its own delivered transfers,
/// so over [`mmsim::Reliable`] a faulted broadcast level or roll is
/// re-driven in place and completed iterations never repeat.
pub fn fox_tree_on<X: Transport>(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<SimOutcome, AlgoError> {
    let n = check_square_operands(a, b)?;
    let q = applicability(n, machine.p())?;
    let bs = n / q;

    let ga = Arc::new(BlockGrid::split(a, q, q));
    let gb = Arc::new(BlockGrid::split(b, q, q));
    let report = run_lending(machine, |proc| {
        let rank = proc.rank();
        let (i, j) = (rank / q, rank % q);
        let row_group = Group::new(proc, (0..q).map(|c| i * q + c).collect());
        let north = ((i + q - 1) % q) * q + j;
        let south = ((i + 1) % q) * q + j;

        let mut bcur = gb.block_by_rank(rank).clone();
        let mut c = Matrix::zeros(bs, bs);
        let mut ckpt = Checkpoint::new(u32::MAX - 1);
        for t in 0..q {
            let owner_col = (i + t) % q;
            let data = (owner_col == j).then(|| ga.block_by_rank(rank).clone().into_vec());
            let a_flat = broadcast_on::<X, _>(proc, &row_group, t as u32, owner_col, data);
            let ablk = Matrix::from_vec(bs, bs, a_flat.into_vec());
            proc.compute(kernel::work_units(bs, bs, bs));
            kernel::matmul_accumulate(&mut c, &ablk, &bcur);

            let tb = tag(u32::MAX, t as u32);
            if q > 1 {
                X::send(proc, north, tb, bcur.into_vec());
                bcur = Matrix::from_vec(bs, bs, X::recv(proc, south, tb).into_vec());
            }
            X::checkpoint(&mut ckpt, proc, || phase_state(&[&bcur, &c]));
        }
        c
    })?;

    // Note: after q iterations B has rolled all the way around, so the
    // grid is restored; C^{ij} = Σ_t A^{i,i+t}·B^{i+t,j} is complete.
    let c = BlockGrid::assemble_from(&report.results, q, q);
    Ok(SimOutcome::from_report(&report, c, n))
}

/// Fox's algorithm with packetised ring-relay broadcasts (the pipelined
/// formulation behind Eq. (4)).  `packets` pieces per block; 1 packet
/// degenerates to the unpipelined mesh algorithm
/// (`T_p = n³/p + t_w·n² + t_s·p` in the paper's §4.3 prose).
///
/// # Errors
/// Returns [`AlgoError`] under the same conditions as Cannon, or if
/// `packets` is zero or exceeds the block size.
pub fn fox_pipelined(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
    packets: usize,
) -> Result<SimOutcome, AlgoError> {
    fox_pipelined_on::<Plain>(machine, a, b, packets)
}

/// The default packet count of [`fox_pipelined`] for an `n × n`
/// product on `p` processors: `√(block words)`, rounded, at least 1.
#[must_use]
pub fn default_packets(n: usize, p: usize) -> usize {
    let block_words = (n / exact_sqrt(p).unwrap_or(1).max(1)).pow(2).max(1);
    ((block_words as f64).sqrt().round() as usize).clamp(1, block_words)
}

/// [`fox_pipelined`] over transport `X`.  Tags of iteration `t`:
///
/// | tag | use |
/// |---|---|
/// | `tag(t, k)` | packet `k` of the A block on the row relay |
/// | `tag(u32::MAX, t)` | northward roll of the B block |
/// | phase `u32::MAX − 2` | checkpoint: the rolled B block plus the accumulator |
///
/// Over [`mmsim::Reliable`] drops and corruption are re-driven per
/// packet without restarting the pipeline.  Under either transport the
/// relay forwards a received packet east as a reference-counted
/// [`mmsim::Payload`] clone, never a byte copy.
pub fn fox_pipelined_on<X: Transport>(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
    packets: usize,
) -> Result<SimOutcome, AlgoError> {
    let n = check_square_operands(a, b)?;
    let q = applicability(n, machine.p())?;
    let bs = n / q;
    let block_words = bs * bs;
    if packets == 0 || packets > block_words.max(1) {
        return Err(AlgoError::BadMatrixSize {
            n,
            requirement: format!(
                "packet count must be in 1..={} (block words), got {packets}",
                block_words
            ),
        });
    }

    let ga = Arc::new(BlockGrid::split(a, q, q));
    let gb = Arc::new(BlockGrid::split(b, q, q));
    let report = run_lending(machine, |proc| {
        let rank = proc.rank();
        let (i, j) = (rank / q, rank % q);
        let east = i * q + (j + 1) % q;
        let west = i * q + (j + q - 1) % q;
        let north = ((i + q - 1) % q) * q + j;
        let south = ((i + 1) % q) * q + j;

        // Packet boundaries (equal split with remainder spread left).
        let bounds: Vec<(usize, usize)> = (0..packets)
            .map(|k| {
                let lo = k * block_words / packets;
                let hi = (k + 1) * block_words / packets;
                (lo, hi)
            })
            .collect();

        let mut bcur = gb.block_by_rank(rank).clone();
        let mut c = Matrix::zeros(bs, bs);
        let mut ckpt = Checkpoint::new(u32::MAX - 2);
        for t in 0..q {
            let owner_col = (i + t) % q;
            let ablk = if owner_col == j {
                // Owner: push own block east in packets; the relay stops
                // before wrapping back.
                let own = ga.block_by_rank(rank).clone();
                if q > 1 {
                    let flat = own.as_slice();
                    for (k, &(lo, hi)) in bounds.iter().enumerate() {
                        X::send(proc, east, tag(t as u32, k as u32), flat[lo..hi].to_vec());
                    }
                }
                own
            } else {
                // Receive packets from the west, forwarding each east
                // unless the eastern neighbour is the owner.  The
                // forward is a Payload refcount bump.
                let forward = (j + 1) % q != owner_col;
                let mut flat = vec![0.0; block_words];
                for (k, &(lo, hi)) in bounds.iter().enumerate() {
                    let pkt = X::recv(proc, west, tag(t as u32, k as u32));
                    if forward {
                        X::send(proc, east, tag(t as u32, k as u32), pkt.clone());
                    }
                    flat[lo..hi].copy_from_slice(&pkt);
                }
                Matrix::from_vec(bs, bs, flat)
            };

            proc.compute(kernel::work_units(bs, bs, bs));
            kernel::matmul_accumulate(&mut c, &ablk, &bcur);

            let tb = tag(u32::MAX, t as u32);
            if q > 1 {
                X::send(proc, north, tb, bcur.into_vec());
                bcur = Matrix::from_vec(bs, bs, X::recv(proc, south, tb).into_vec());
            }
            X::checkpoint(&mut ckpt, proc, || phase_state(&[&bcur, &c]));
        }
        c
    })?;
    let c = BlockGrid::assemble_from(&report.results, q, q);
    Ok(SimOutcome::from_report(&report, c, n))
}

/// The asynchronous Fox variant (§4.3, last paragraph): "if each step
/// of Fox's algorithm is not synchronized and the processors work
/// independently", computation starts "as soon as it has all the
/// required data" without waiting for the entire broadcast to finish.
///
/// Concretely: the per-iteration row broadcast is a single-hop ring
/// relay — each member receives the A block from its west neighbour,
/// forwards it east, and multiplies immediately, without any row-wide
/// synchronisation; iterations of different processors overlap freely.
/// (This is [`fox_pipelined`] with one packet, which is exactly the
/// asynchronous schedule: the engine's virtual clocks capture the
/// overlap.)  The paper credits this schedule with bringing Fox's time
/// "to almost a factor of two of that of Cannon's algorithm" — the
/// `async_within_factor_two_of_cannon` test measures it.
///
/// # Errors
/// Returns [`AlgoError`] under the same conditions as Cannon.
pub fn fox_async(machine: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    fox_pipelined(machine, a, b, 1)
}

/// Closed-form simulated time of [`fox_tree`]:
/// `n³/p + √p·(ceil(log √p)+1)·(t_s + t_w·n²/p)`.
#[must_use]
pub fn predicted_time_tree(n: usize, p: usize, t_s: f64, t_w: f64) -> f64 {
    let nf = n as f64;
    let pf = p as f64;
    if p == 1 {
        return nf.powi(3);
    }
    let q = pf.sqrt().round();
    let block = nf * nf / pf;
    let steps = (q as usize - 1).ilog2() as f64 + 1.0;
    nf.powi(3) / pf + q * (steps + 1.0) * (t_s + t_w * block)
}

#[cfg(test)]
mod tests {
    use dense::gen;
    use mmsim::{CostModel, Machine, Topology};

    use super::*;

    fn check_product(out: &SimOutcome, a: &Matrix, b: &Matrix) {
        let reference = kernel::matmul(a, b);
        assert!(
            out.c.approx_eq(&reference, 1e-10),
            "product mismatch: max diff {}",
            out.c.max_abs_diff(&reference)
        );
    }

    #[test]
    fn tree_variant_correct() {
        for (n, p) in [(4, 1), (4, 4), (8, 4), (12, 9), (8, 16), (15, 25)] {
            let (a, b) = gen::random_pair(n, 31);
            let machine = Machine::new(Topology::square_torus_for(p), CostModel::new(3.0, 0.5));
            let out = fox_tree(&machine, &a, &b).expect("applicable");
            check_product(&out, &a, &b);
        }
    }

    #[test]
    fn pipelined_variant_correct_across_packet_counts() {
        for packets in [1usize, 2, 3, 4] {
            for (n, p) in [(4, 4), (8, 4), (12, 9), (8, 16)] {
                let (a, b) = gen::random_pair(n, 37);
                let machine = Machine::new(Topology::square_torus_for(p), CostModel::new(3.0, 0.5));
                let out = fox_pipelined(&machine, &a, &b, packets).expect("applicable");
                check_product(&out, &a, &b);
            }
        }
    }

    #[test]
    fn tree_time_matches_model() {
        for (n, p) in [(8usize, 4usize), (16, 16), (12, 9)] {
            let cost = CostModel::new(6.0, 0.5);
            let machine = Machine::new(Topology::square_torus_for(p), cost);
            let (a, b) = gen::random_pair(n, 41);
            let out = fox_tree(&machine, &a, &b).unwrap();
            let expect = predicted_time_tree(n, p, cost.t_s, cost.t_w);
            assert!(
                (out.t_parallel - expect).abs() < 1e-6,
                "n={n} p={p}: sim {} vs model {}",
                out.t_parallel,
                expect
            );
        }
    }

    #[test]
    fn async_variant_correct() {
        for (n, p) in [(4, 1), (8, 4), (12, 9), (16, 16)] {
            let (a, b) = gen::random_pair(n, 53);
            let machine = Machine::new(Topology::square_torus_for(p), CostModel::new(3.0, 0.5));
            let out = fox_async(&machine, &a, &b).expect("applicable");
            check_product(&out, &a, &b);
        }
    }

    #[test]
    fn async_within_factor_two_of_cannon() {
        // §4.3: "its parallel execution time can be reduced to almost a
        // factor of two of that of Cannon's algorithm."
        for (n, p) in [(32usize, 16usize), (64, 64)] {
            let (a, b) = gen::random_pair(n, 57);
            let machine = Machine::new(Topology::square_torus_for(p), CostModel::ncube2());
            let t_async = fox_async(&machine, &a, &b).unwrap().t_parallel;
            let t_cannon = crate::cannon::cannon(&machine, &a, &b).unwrap().t_parallel;
            let ratio = t_async / t_cannon;
            assert!(
                ratio < 2.3,
                "n={n} p={p}: async Fox should be within ~2x of Cannon, got {ratio:.2}x"
            );
        }
    }

    #[test]
    fn pipelining_beats_single_packet_relay() {
        // With a bandwidth-dominated machine, splitting the relay into
        // packets shortens the pipeline drain (Eq. (4) vs the
        // unpipelined mesh bound).
        let (n, p) = (32usize, 16usize);
        let (a, b) = gen::random_pair(n, 43);
        let machine = Machine::new(Topology::square_torus_for(p), CostModel::new(0.5, 4.0));
        let t1 = fox_pipelined(&machine, &a, &b, 1).unwrap().t_parallel;
        let t4 = fox_pipelined(&machine, &a, &b, 4).unwrap().t_parallel;
        assert!(t4 < t1, "4 packets {t4} should beat 1 packet {t1}");
    }

    #[test]
    fn fox_slower_than_cannon_as_paper_claims() {
        // §4.3: "Clearly the parallel execution time of this algorithm
        // is worse than that of the simple algorithm or Cannon's
        // algorithm."
        let (n, p) = (16usize, 16usize);
        let (a, b) = gen::random_pair(n, 47);
        let machine = Machine::new(Topology::square_torus_for(p), CostModel::ncube2());
        let t_fox = fox_tree(&machine, &a, &b).unwrap().t_parallel;
        let t_cannon = crate::cannon::cannon(&machine, &a, &b).unwrap().t_parallel;
        assert!(t_cannon < t_fox);
    }

    #[test]
    fn packet_count_validated() {
        let (a, b) = gen::random_pair(4, 1);
        let machine = Machine::new(Topology::square_torus_for(4), CostModel::unit());
        assert!(fox_pipelined(&machine, &a, &b, 0).is_err());
        assert!(fox_pipelined(&machine, &a, &b, 5).is_err());
        assert!(fox_pipelined(&machine, &a, &b, 4).is_ok());
    }

    #[test]
    fn applicability_checks() {
        assert!(applicability(8, 6).is_err());
        assert!(applicability(10, 16).is_err());
        assert_eq!(applicability(12, 4), Ok(2));
    }
}
