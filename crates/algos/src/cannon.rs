//! Cannon's algorithm (paper §4.2).
//!
//! The two `n×n` operands are divided into `(n/√p)²` blocks on a
//! `√p × √p` wraparound mesh.  After an initial skew alignment, the
//! algorithm performs `√p` rounds of local block multiply-accumulate
//! followed by rolling the A blocks one step west and the B blocks one
//! step north.
//!
//! **Cost.**  Each round moves two `n²/p`-word blocks between mesh
//! neighbours, so the rolling phase costs exactly the paper's Eq. (3)
//! communication term `2·t_s·√p + 2·t_w·n²/√p`.  Unlike the paper —
//! which argues the alignment step "can be ignored" under cut-through
//! routing — the simulation executes and charges the alignment
//! (one skewed one-to-one exchange per operand), adding the lower-order
//! term `2(t_s + t_w·n²/p)`.  The simulated total is therefore
//!
//! ```text
//! T_p = n³/p + 2·t_s·√p + 2·t_w·n²/√p  +  2(t_s + t_w·n²/p)   (p > 1)
//! ```
//!
//! which the test-suite asserts exactly.
//!
//! **Note on the paper's alignment indices.**  §4.2 as printed sends
//! `A^{ij}` to `(i, (j+i) mod √p)` and `B^{ij}` to `((i+j) mod √p, j)`;
//! with those *destinations* the inner block indices at each processor
//! do not match.  We use the standard skew (also used in the authors'
//! textbook): after alignment processor `(i, j)` holds `A^{i,(i+j)}` and
//! `B^{(i+j),j}`, i.e. `A^{ij}` travels to `(i, j−i)` and `B^{ij}` to
//! `(i−j, j)`.

use std::sync::Arc;

use dense::{kernel, BlockGrid, Matrix};
use mmsim::engine::message::tag;
use mmsim::{Checkpoint, Machine, Plain, Proc, Transport};

use crate::common::{
    check_square_operands, exact_sqrt, phase_state, run_lending, AlgoError, SimOutcome,
};

/// How a [`MeshView`]'s coordinates map to machine ranks.
enum MeshLayout {
    /// Row-major over ranks `base..base + q²`.
    Contiguous { base: usize },
    /// The dilation-1 Gray-code embedding over ranks `0..q²`.
    Gray,
}

/// A `q × q` sub-mesh view used by Cannon phases (also reused by
/// Berntsen's per-subcube Cannon).  Ranks are computed from the
/// coordinates, never tabulated: every rank of a run holds a view, so a
/// `q²`-entry table per view would cost O(p²) host memory per run.
pub(crate) struct MeshView {
    layout: MeshLayout,
    /// Mesh side.
    pub q: usize,
    /// Calling processor's mesh row.
    pub my_row: usize,
    /// Calling processor's mesh column.
    pub my_col: usize,
}

impl MeshView {
    /// Mesh spanning ranks `base..base + q²` in row-major order.
    pub(crate) fn contiguous(proc: &Proc, base: usize, q: usize) -> Self {
        let local = proc.rank() - base;
        Self {
            layout: MeshLayout::Contiguous { base },
            q,
            my_row: local / q,
            my_col: local % q,
        }
    }

    /// Mesh over ranks `0..q²` laid out by the dilation-1 Gray-code
    /// embedding (`q` a power of two): mesh neighbours are hypercube
    /// neighbours, so shifts stay single-hop even under
    /// store-and-forward routing.
    pub(crate) fn gray_embedded(proc: &Proc, q: usize) -> Self {
        let (my_row, my_col) = mmsim::topology::gray_mesh_coords(proc.rank(), q);
        Self {
            layout: MeshLayout::Gray,
            q,
            my_row,
            my_col,
        }
    }

    /// Rank at wrapped mesh coordinates.
    pub(crate) fn rank_at(&self, row: isize, col: isize) -> usize {
        let q = self.q as isize;
        let r = row.rem_euclid(q) as usize;
        let c = col.rem_euclid(q) as usize;
        match self.layout {
            MeshLayout::Contiguous { base } => base + r * self.q + c,
            MeshLayout::Gray => mmsim::topology::gray_mesh_rank(r, c, self.q),
        }
    }
}

/// Run the Cannon phases (alignment + `q` multiply/shift rounds) from
/// the perspective of the calling processor, which owns block
/// `(my_row, my_col)` of both operands.  Returns this processor's block
/// of the product.
///
/// Blocks may be rectangular (Berntsen's usage): `a` is `h×w_a`, `b` is
/// `w_a×h`-compatible per block column; shapes are carried by the
/// matrices themselves.
///
/// Tag phases, relative to `phase0`:
///
/// | phase | use |
/// |---|---|
/// | `phase0` | alignment (sequence 0: A, 1: B) |
/// | `phase0 + 1` | rolls (sequence `2s`: A west, `2s + 1`: B north) |
/// | `phase0 + 2` | checkpoint frames (one after alignment, one per round) |
///
/// One schedule, two transports.  The A/B pair of every step goes out
/// as one [`Transport::send_multi`] batch: over [`Plain`] that is the
/// all-port batch of §7, over [`mmsim::Reliable`] two sequential
/// reliable sends (no overlap — each completed shift is the implicit
/// restart point of the next round).  The checkpoint after alignment
/// and after every completed round lets a machine with spares replay a
/// fail-stop death from the last finished round instead of from
/// scratch; [`Plain`] registers none and never builds the state.
pub(crate) fn cannon_core<X: Transport>(
    proc: &mut Proc,
    mesh: &MeshView,
    a0: Matrix,
    b0: Matrix,
    phase0: u32,
) -> Matrix {
    let q = mesh.q;
    let (i, j) = (mesh.my_row as isize, mesh.my_col as isize);
    let mut c = Matrix::zeros(a0.rows(), b0.cols());
    if q == 1 {
        proc.compute(kernel::work_units(a0.rows(), a0.cols(), b0.cols()));
        kernel::matmul_accumulate(&mut c, &a0, &b0);
        return c;
    }

    // --- Alignment: A^{ij} -> (i, j-i); B^{ij} -> (i-j, j). ---
    // A and B travel to *different* destinations, so the pair is issued
    // as one `send_multi` batch: on a single-port machine it serialises
    // (the paper's base model), on an all-port machine (§7) the two
    // transfers overlap — exactly the "constant factor" benefit §7
    // grants the nearest-neighbour algorithms.
    let (a_shape, b_shape) = ((a0.rows(), a0.cols()), (b0.rows(), b0.cols()));
    let a_dst = mesh.rank_at(i, j - i);
    let a_src = mesh.rank_at(i, j + i);
    let b_dst = mesh.rank_at(i - j, j);
    let b_src = mesh.rank_at(i + j, j);
    let a_moves = a_dst != proc.rank();
    let b_moves = b_dst != proc.rank();
    let mut batch = Vec::new();
    if a_moves {
        batch.push((a_dst, tag(phase0, 0), a0.as_slice().to_vec()));
    }
    if b_moves {
        batch.push((b_dst, tag(phase0, 1), b0.as_slice().to_vec()));
    }
    X::send_multi(proc, batch);
    let mut a = if a_moves {
        // The sender moved its buffer into the network, so the handle is
        // unique here and `into_vec` is a free move, not a copy.
        let words = X::recv(proc, a_src, tag(phase0, 0));
        Matrix::from_vec(a_shape.0, a_shape.1, words.into_vec())
    } else {
        a0
    };
    let mut b = if b_moves {
        let words = X::recv(proc, b_src, tag(phase0, 1));
        Matrix::from_vec(b_shape.0, b_shape.1, words.into_vec())
    } else {
        b0
    };

    // Step-granular recovery pricing: the phase state is the live
    // operand blocks plus the running accumulator — exactly what a
    // promoted spare needs to resume the next round.
    let mut ckpt = Checkpoint::new(phase0 + 2);
    X::checkpoint(&mut ckpt, proc, || phase_state(&[&a, &b, &c]));

    // --- q rounds: multiply-accumulate, roll A west, roll B north. ---
    let west = mesh.rank_at(i, j - 1);
    let east = mesh.rank_at(i, j + 1);
    let north = mesh.rank_at(i - 1, j);
    let south = mesh.rank_at(i + 1, j);
    for s in 0..q as u32 {
        proc.compute(kernel::work_units(a.rows(), a.cols(), b.cols()));
        kernel::matmul_accumulate(&mut c, &a, &b);

        let ta = tag(phase0 + 1, 2 * s);
        let tb = tag(phase0 + 1, 2 * s + 1);
        // West and north are distinct processors for q >= 2: one batch.
        X::send_multi(
            proc,
            vec![(west, ta, a.into_vec()), (north, tb, b.into_vec())],
        );
        let a_words = X::recv(proc, east, ta);
        a = Matrix::from_vec(a_shape.0, a_shape.1, a_words.into_vec());
        let b_words = X::recv(proc, south, tb);
        b = Matrix::from_vec(b_shape.0, b_shape.1, b_words.into_vec());
        X::checkpoint(&mut ckpt, proc, || phase_state(&[&a, &b, &c]));
    }
    c
}

/// Check Cannon's applicability: `p` a perfect square whose side divides
/// `n`; returns the mesh side `q`.
pub fn applicability(n: usize, p: usize) -> Result<usize, AlgoError> {
    let q = exact_sqrt(p).ok_or_else(|| AlgoError::BadProcessorCount {
        p,
        requirement: "Cannon's algorithm needs a perfect-square processor count".into(),
    })?;
    if !n.is_multiple_of(q) {
        return Err(AlgoError::BadMatrixSize {
            n,
            requirement: format!("mesh side {q} must divide n"),
        });
    }
    Ok(q)
}

/// Multiply `a · b` with Cannon's algorithm on `machine`.
///
/// ```
/// use mmsim::{CostModel, Machine, Topology};
///
/// let machine = Machine::new(Topology::square_torus_for(4), CostModel::ncube2());
/// let (a, b) = dense::gen::random_pair(8, 1);
/// let out = algos::cannon(&machine, &a, &b).unwrap();
/// assert!(out.c.approx_eq(&(&a * &b), 1e-10));
/// // Simulated time follows Eq. (3) plus the executed alignment:
/// let expect = algos::cannon::predicted_time(8, 4, 150.0, 3.0);
/// assert!((out.t_parallel - expect).abs() < 1e-9);
/// ```
///
/// # Errors
/// Returns [`AlgoError`] if the operands are not equal square matrices,
/// `p` is not a perfect square, or `√p` does not divide `n`.
pub fn cannon(machine: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    cannon_on::<Plain>(machine, a, b)
}

/// Cannon's algorithm over transport `X`: [`cannon`] and
/// [`crate::cannon_resilient`] are this one function.
pub fn cannon_on<X: Transport>(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<SimOutcome, AlgoError> {
    let n = check_square_operands(a, b)?;
    let p = machine.p();
    let q = applicability(n, p)?;

    let ga = Arc::new(BlockGrid::split(a, q, q));
    let gb = Arc::new(BlockGrid::split(b, q, q));
    let report = run_lending(machine, |proc| {
        let mesh = MeshView::contiguous(proc, 0, q);
        let a0 = ga.block_by_rank(proc.rank()).clone();
        let b0 = gb.block_by_rank(proc.rank()).clone();
        cannon_core::<X>(proc, &mesh, a0, b0, 0)
    })?;
    let c = BlockGrid::assemble_from(&report.results, q, q);
    Ok(SimOutcome::from_report(&report, c, n))
}

/// Cannon's algorithm with the dilation-1 Gray-code mesh embedding
/// (paper §4.2's "can be embedded in a hypercube"): block `(i, j)`
/// lives on hypercube rank `gray(i)·q | gray(j)`, so every roll is a
/// single cube hop.  Cost-identical to [`cannon`] under cut-through
/// routing; strictly cheaper under the store-and-forward ablation.
///
/// # Errors
/// As [`cannon`], plus the mesh side must be a power of two.
pub fn cannon_gray(machine: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    let n = check_square_operands(a, b)?;
    let p = machine.p();
    let q = applicability(n, p)?;
    if !q.is_power_of_two() {
        return Err(AlgoError::BadProcessorCount {
            p,
            requirement: "the Gray-embedded layout needs a power-of-two mesh side".into(),
        });
    }

    let ga = Arc::new(BlockGrid::split(a, q, q));
    let gb = Arc::new(BlockGrid::split(b, q, q));
    let report = run_lending(machine, |proc| {
        let mesh = MeshView::gray_embedded(proc, q);
        let (i, j) = (mesh.my_row, mesh.my_col);
        let a0 = ga.block(i, j).clone();
        let b0 = gb.block(i, j).clone();
        let c = cannon_core::<Plain>(proc, &mesh, a0, b0, 0);
        (i, j, c)
    })?;
    // Results arrive in rank order; place each block by its mesh coords.
    let mut blocks = vec![Matrix::zeros(n / q, n / q); q * q];
    for (i, j, c) in &report.results {
        blocks[i * q + j] = c.clone();
    }
    let c = BlockGrid::assemble_from(&blocks, q, q);
    let report = report.map_results(|_| ());
    Ok(SimOutcome::from_report(&report, c, n))
}

/// Closed-form simulated time of this implementation (Eq. (3) plus the
/// executed alignment term) — used by the tests to pin the simulation.
#[must_use]
pub fn predicted_time(n: usize, p: usize, t_s: f64, t_w: f64) -> f64 {
    let nf = n as f64;
    let pf = p as f64;
    let compute = nf.powi(3) / pf;
    if p == 1 {
        return compute;
    }
    let block = nf * nf / pf;
    let roll = 2.0 * t_s * pf.sqrt() + 2.0 * t_w * nf * nf / pf.sqrt();
    let align = 2.0 * (t_s + t_w * block);
    compute + roll + align
}

/// Closed-form simulated time on an **all-port** machine (§7): the A/B
/// pair of each alignment/roll step overlaps, halving every
/// communication term — the "constant factor only" benefit the paper
/// grants the nearest-neighbour algorithms:
/// `n³/p + (√p + 1)(t_s + t_w·n²/p)`.
#[must_use]
pub fn predicted_time_allport(n: usize, p: usize, t_s: f64, t_w: f64) -> f64 {
    let nf = n as f64;
    let pf = p as f64;
    let compute = nf.powi(3) / pf;
    if p == 1 {
        return compute;
    }
    let step = t_s + t_w * nf * nf / pf;
    compute + (pf.sqrt() + 1.0) * step
}

#[cfg(test)]
mod tests {
    use dense::gen;
    use mmsim::{CostModel, Topology};

    use super::*;

    fn verify(n: usize, p: usize, topo: Topology, cost: CostModel) -> SimOutcome {
        let (a, b) = gen::random_pair(n, 7);
        let machine = Machine::new(topo, cost);
        let out = cannon(&machine, &a, &b).expect("applicable");
        let reference = kernel::matmul(&a, &b);
        assert!(
            out.c.approx_eq(&reference, 1e-10),
            "product mismatch for n={n}, p={p}: max diff {}",
            out.c.max_abs_diff(&reference)
        );
        out
    }

    #[test]
    fn mesh_view_ranks_match_the_tabulated_layouts() {
        // `rank_at` against the row-major tables it replaced, over
        // every wrapped coordinate within two mesh sides of the origin.
        fn check(mesh: &MeshView, table: &[usize]) {
            let q = mesh.q as isize;
            for row in -2 * q..=2 * q {
                for col in -2 * q..=2 * q {
                    let (r, c) = (row.rem_euclid(q) as usize, col.rem_euclid(q) as usize);
                    assert_eq!(
                        mesh.rank_at(row, col),
                        table[r * mesh.q + c],
                        "({row}, {col})"
                    );
                }
            }
        }
        for (base, q) in [
            (0usize, 1usize),
            (5, 1),
            (0, 2),
            (4, 2),
            (0, 3),
            (9, 3),
            (0, 8),
            (64, 8),
        ] {
            let table: Vec<usize> = (base..base + q * q).collect();
            let machine = Machine::new(Topology::fully_connected(base + q * q), CostModel::unit());
            machine.run(|proc| {
                if proc.rank() >= base {
                    check(&MeshView::contiguous(proc, base, q), &table);
                }
            });
        }
        for q in [2usize, 4, 8] {
            let mut table = vec![0usize; q * q];
            for r in 0..q {
                for c in 0..q {
                    table[r * q + c] = mmsim::topology::gray_mesh_rank(r, c, q);
                }
            }
            let machine = Machine::new(Topology::hypercube_for(q * q), CostModel::unit());
            machine.run(|proc| {
                let mesh = MeshView::gray_embedded(proc, q);
                check(&mesh, &table);
                assert_eq!(
                    mesh.rank_at(mesh.my_row as isize, mesh.my_col as isize),
                    proc.rank()
                );
            });
        }
    }

    #[test]
    fn correct_on_single_processor() {
        let out = verify(6, 1, Topology::fully_connected(1), CostModel::unit());
        assert_eq!(out.t_parallel, 216.0);
        assert_eq!(out.efficiency(), 1.0);
    }

    #[test]
    fn correct_on_square_meshes() {
        for (n, p) in [(4, 4), (8, 4), (12, 9), (8, 16), (20, 25)] {
            let topo = Topology::square_torus_for(p);
            verify(n, p, topo, CostModel::new(5.0, 0.5));
        }
    }

    #[test]
    fn correct_on_hypercube_and_full() {
        verify(8, 16, Topology::hypercube_for(16), CostModel::ncube2());
        verify(8, 16, Topology::fully_connected(16), CostModel::cm5());
    }

    #[test]
    fn simulated_time_matches_model_exactly() {
        for (n, p) in [(8usize, 4usize), (12, 9), (16, 16), (20, 4)] {
            let cost = CostModel::new(11.0, 0.75);
            let machine = Machine::new(Topology::square_torus_for(p), cost);
            let (a, b) = gen::random_pair(n, 3);
            let out = cannon(&machine, &a, &b).unwrap();
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
    fn time_independent_of_topology_under_cut_through() {
        // §4.4: "Cannon's algorithm's performance is the same on both
        // mesh and hypercube architectures."
        let (a, b) = gen::random_pair(8, 5);
        let cost = CostModel::ncube2();
        let t_mesh = cannon(&Machine::new(Topology::square_torus_for(16), cost), &a, &b)
            .unwrap()
            .t_parallel;
        let t_cube = cannon(&Machine::new(Topology::hypercube_for(16), cost), &a, &b)
            .unwrap()
            .t_parallel;
        let t_full = cannon(&Machine::new(Topology::fully_connected(16), cost), &a, &b)
            .unwrap()
            .t_parallel;
        assert_eq!(t_mesh, t_cube);
        assert_eq!(t_mesh, t_full);
    }

    #[test]
    fn applicability_errors() {
        assert!(matches!(
            applicability(8, 5),
            Err(AlgoError::BadProcessorCount { .. })
        ));
        assert!(matches!(
            applicability(9, 4),
            Err(AlgoError::BadMatrixSize { .. })
        ));
        assert_eq!(applicability(8, 4), Ok(2));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let machine = Machine::new(Topology::fully_connected(4), CostModel::unit());
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(6, 6);
        assert!(matches!(
            cannon(&machine, &a, &b),
            Err(AlgoError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn identity_times_identity() {
        let machine = Machine::new(Topology::square_torus_for(4), CostModel::unit());
        let i8 = Matrix::identity(8);
        let out = cannon(&machine, &i8, &i8).unwrap();
        assert!(out.c.approx_eq(&i8, 1e-12));
    }

    #[test]
    fn allport_halves_communication_exactly() {
        use mmsim::Ports;
        for (n, p) in [(8usize, 4usize), (16, 16), (24, 9)] {
            let (a, b) = gen::random_pair(n, 21);
            let cost = CostModel::new(37.0, 1.25);
            let single =
                cannon(&Machine::new(Topology::square_torus_for(p), cost), &a, &b).unwrap();
            let all = cannon(
                &Machine::new(Topology::square_torus_for(p), cost.with_ports(Ports::All)),
                &a,
                &b,
            )
            .unwrap();
            assert!(
                all.c.approx_eq(&single.c, 1e-12),
                "ports must not change the product"
            );
            let expect = predicted_time_allport(n, p, cost.t_s, cost.t_w);
            assert!(
                (all.t_parallel - expect).abs() < 1e-6,
                "n={n} p={p}: all-port sim {} vs model {}",
                all.t_parallel,
                expect
            );
            // §7: exactly a constant factor — the comm terms halve.
            let w = (n * n * n) as f64;
            let comm_single = single.t_parallel - w / p as f64;
            let comm_all = all.t_parallel - w / p as f64;
            assert!(
                (comm_single - 2.0 * comm_all).abs() < 1e-6,
                "single {comm_single} vs 2x all-port {comm_all}"
            );
        }
    }

    #[test]
    fn gray_embedded_variant_correct_and_cost_neutral_under_cut_through() {
        let (a, b) = gen::random_pair(16, 13);
        let machine = Machine::new(Topology::hypercube_for(16), CostModel::ncube2());
        let plain = cannon(&machine, &a, &b).unwrap();
        let gray = cannon_gray(&machine, &a, &b).unwrap();
        assert!(gray.c.approx_eq(&kernel::matmul(&a, &b), 1e-10));
        // §4.2: under cut-through the embedding does not change cost.
        assert_eq!(plain.t_parallel, gray.t_parallel);
    }

    #[test]
    fn gray_embedding_wins_under_store_and_forward() {
        use mmsim::Routing;
        let (a, b) = gen::random_pair(16, 14);
        let machine = Machine::new(
            Topology::hypercube_for(64),
            CostModel::new(10.0, 1.0).with_routing(Routing::StoreAndForward),
        );
        let plain = cannon(&machine, &a, &b).unwrap().t_parallel;
        let gray = cannon_gray(&machine, &a, &b).unwrap().t_parallel;
        assert!(
            gray < plain,
            "dilation-1 embedding ({gray}) must beat row-major ({plain}) under SF"
        );
    }

    #[test]
    fn gray_variant_rejects_non_power_of_two_side() {
        let (a, b) = gen::random_pair(9, 15);
        let machine = Machine::new(Topology::fully_connected(9), CostModel::unit());
        assert!(cannon_gray(&machine, &a, &b).is_err());
        assert!(cannon(&machine, &a, &b).is_ok());
    }

    #[test]
    fn memory_efficient_message_volume() {
        // Cannon moves O(n²√p) words in total: alignment 2n² plus
        // q rounds of 2 n²/p words per proc → 2 n² √p.
        let (n, p) = (8usize, 16usize);
        let (a, b) = gen::random_pair(n, 9);
        let machine = Machine::new(Topology::square_torus_for(p), CostModel::unit());
        let out = cannon(&machine, &a, &b).unwrap();
        let q = 4;
        let expected_roll = (2 * n * n * q) as u64;
        // Alignment moves at most 2n² more (self-sends skipped).
        assert!(out.total_words() >= expected_roll);
        assert!(out.total_words() <= expected_roll + (2 * n * n) as u64);
    }
}
