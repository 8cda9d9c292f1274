//! Pins the executable simulations to the analytic equations: for every
//! algorithm, the simulated `T_p` must match its closed-form prediction
//! (exactly for the synchronous mesh algorithms, within a small
//! documented slack for the overlapping cube algorithms).

use dense::{gen, kernel};
use mmsim::{CostModel, Machine, Topology};
use model::MachineParams;

fn close(a: f64, b: f64, rtol: f64) -> bool {
    (a - b).abs() <= rtol * a.abs().max(b.abs())
}

/// Cannon: simulated time = Eq. (3) + the executed alignment term,
/// exactly.
#[test]
fn cannon_exact() {
    for (n, p) in [(16usize, 4usize), (16, 16), (24, 9), (32, 64), (44, 121)] {
        let cost = CostModel::new(31.0, 1.5);
        let (a, b) = gen::random_pair(n, 11);
        let machine = Machine::new(Topology::square_torus_for(p), cost);
        let out = algos::cannon(&machine, &a, &b).unwrap();
        let expect = algos::cannon::predicted_time(n, p, cost.t_s, cost.t_w);
        assert!(
            (out.t_parallel - expect).abs() < 1e-6,
            "n={n} p={p}: {} vs {expect}",
            out.t_parallel
        );
        // The model's Eq. (3) itself is the prediction minus alignment:
        let eq3 = model::time::cannon_time(n as f64, p as f64, MachineParams::new(31.0, 1.5));
        let align = 2.0 * (31.0 + 1.5 * (n * n / p) as f64);
        assert!((expect - (eq3 + align)).abs() < 1e-6);
    }
}

/// Simple algorithm: simulated time matches its allgather-based model
/// exactly (power-of-two mesh sides), and tracks Eq. (2) within the
/// documented constant-factor difference on the startup term.
#[test]
fn simple_exact_and_eq2_shape() {
    for (n, p) in [(16usize, 16usize), (32, 64), (16, 4)] {
        let cost = CostModel::new(17.0, 0.5);
        let (a, b) = gen::random_pair(n, 13);
        let machine = Machine::new(Topology::square_torus_for(p), cost);
        let out = algos::simple(&machine, &a, &b).unwrap();
        let expect = algos::simple::predicted_time(n, p, cost.t_s, cost.t_w);
        assert!(
            (out.t_parallel - expect).abs() < 1e-6,
            "n={n} p={p}: {} vs {expect}",
            out.t_parallel
        );
        // Eq. (2) has the same n³/p and t_w·n²-order terms; the t_s
        // term differs by a constant factor (2·log p vs log p).
        let eq2 = model::time::simple_time(n as f64, p as f64, MachineParams::new(17.0, 0.5));
        assert!(
            close(out.t_parallel, eq2, 0.35),
            "within shape: {} vs {eq2}",
            out.t_parallel
        );
    }
}

/// Fox (tree-broadcast variant): exact.
#[test]
fn fox_tree_exact() {
    for (n, p) in [(16usize, 16usize), (24, 36), (32, 64)] {
        let cost = CostModel::new(23.0, 2.0);
        let (a, b) = gen::random_pair(n, 17);
        let machine = Machine::new(Topology::square_torus_for(p), cost);
        let out = algos::fox_tree(&machine, &a, &b).unwrap();
        let expect = algos::fox::predicted_time_tree(n, p, cost.t_s, cost.t_w);
        assert!(
            (out.t_parallel - expect).abs() < 1e-6,
            "n={n} p={p}: {} vs {expect}",
            out.t_parallel
        );
    }
}

/// Faulted Fox rows: the resilient tree and pipelined formulations on a
/// lossy machine track their predictions evaluated at the
/// reliable-transport effective constants
/// ([`MachineParams::reliable_effective`]), the same pricing the
/// advisor ranks with.  The band is loose — retransmissions are a
/// seeded random process and the analytic transform only charges their
/// geometric mean — but both rows must land in it, and the products
/// stay exact.
#[test]
fn faulted_fox_rows_track_reliable_effective() {
    use mmsim::FaultPlan;
    let (drop, corrupt) = (0.1, 0.05);
    let cost = CostModel::new(23.0, 2.0);
    let eff = MachineParams::new(23.0, 2.0)
        .with_faults(model::FaultRates::new(drop, corrupt))
        .reliable_effective();
    let (n, p) = (24usize, 16usize);
    let (a, b) = gen::random_pair(n, 17);
    let machine = Machine::new(Topology::square_torus_for(p), cost).with_fault_plan(
        FaultPlan::new(9)
            .with_drop_rate(drop)
            .with_corrupt_rate(corrupt),
    );
    let reference = kernel::matmul(&a, &b);

    let tree = algos::fox_tree_resilient(&machine, &a, &b).unwrap();
    let expect_tree = algos::fox::predicted_time_tree(n, p, eff.t_s, eff.t_w);
    assert!(
        close(tree.t_parallel, expect_tree, 0.40),
        "tree: sim {} vs reliable-effective {expect_tree}",
        tree.t_parallel
    );
    assert!(tree.c.approx_eq(&reference, 1e-10));

    // The pipelined formulation has no closed form for per-packet
    // reliable framing (Eq. (4) amortises startups that a per-message
    // transport pays in full), so pin it to `reliable_effective`'s own
    // semantics instead: the lossy reliable run must track the plain
    // run on a *fault-free* machine built from the inflated constants.
    let packets = 6; // the advisor's √(block words) default for bs = 6
    let piped = algos::fox_pipelined_resilient(&machine, &a, &b, packets).unwrap();
    let surrogate = Machine::new(
        Topology::square_torus_for(p),
        CostModel::new(eff.t_s, eff.t_w),
    );
    let expect_piped = algos::fox_pipelined(&surrogate, &a, &b, packets)
        .unwrap()
        .t_parallel;
    assert!(
        close(piped.t_parallel, expect_piped, 0.40),
        "pipelined: sim {} vs reliable-effective surrogate {expect_piped}",
        piped.t_parallel
    );
    assert!(piped.c.approx_eq(&reference, 1e-10));
}

/// Berntsen: exact.
#[test]
fn berntsen_exact() {
    for (n, p) in [(16usize, 8usize), (32, 8), (16, 64), (48, 64)] {
        let cost = CostModel::new(41.0, 0.25);
        let (a, b) = gen::random_pair(n, 19);
        let machine = Machine::new(Topology::hypercube_for(p), cost);
        let out = algos::berntsen(&machine, &a, &b).unwrap();
        let expect = algos::berntsen::predicted_time(n, p, cost.t_s, cost.t_w, cost.t_add);
        assert!(
            (out.t_parallel - expect).abs() < 1e-6,
            "n={n} p={p}: {} vs {expect}",
            out.t_parallel
        );
        // Eq. (5) shape: within a modest factor (reduce-scatter vs the
        // paper's aggregated t_w accounting + executed alignment).
        let eq5 = model::time::berntsen_time(n as f64, p as f64, MachineParams::new(41.0, 0.25));
        assert!(
            close(out.t_parallel, eq5, 0.25),
            "{} vs Eq5 {eq5}",
            out.t_parallel
        );
    }
}

/// GK on the CM-5 (fully connected) model tracks Eq. (18) within a few
/// percent — the engine lets the A/B spreads overlap where the paper
/// serialises them.
#[test]
fn gk_tracks_eq18() {
    let cost = CostModel::cm5();
    let m = MachineParams::cm5();
    for (n, p) in [(32usize, 8usize), (64, 64), (96, 64), (128, 512)] {
        let (a, b) = gen::random_pair(n, 23);
        let machine = Machine::new(Topology::fully_connected(p), cost);
        let out = algos::gk(&machine, &a, &b).unwrap();
        let eq18 = model::cm5::gk_cm5_time(n as f64, p as f64, m);
        assert!(
            close(out.t_parallel, eq18, 0.20),
            "n={n} p={p}: sim {} vs Eq18 {eq18}",
            out.t_parallel
        );
    }
}

/// GK on the hypercube tracks Eq. (7) within a few percent.
#[test]
fn gk_tracks_eq7() {
    let cost = CostModel::new(50.0, 2.0);
    let m = MachineParams::new(50.0, 2.0);
    for (n, p) in [(32usize, 8usize), (32, 64), (64, 64), (64, 512)] {
        let (a, b) = gen::random_pair(n, 29);
        let machine = Machine::new(Topology::hypercube_for(p), cost);
        let out = algos::gk(&machine, &a, &b).unwrap();
        let eq7 = model::time::gk_time(n as f64, p as f64, m);
        assert!(
            close(out.t_parallel, eq7, 0.25),
            "n={n} p={p}: sim {} vs Eq7 {eq7}",
            out.t_parallel
        );
    }
}

/// DNS tracks Eq. (6) within a modest factor (the equation double-counts
/// some startup constants; the structure — n³/p work plus
/// (t_s+t_w)-scaled one-word traffic — is identical).
#[test]
fn dns_tracks_eq6() {
    let cost = CostModel::new(5.0, 1.0);
    let m = MachineParams::new(5.0, 1.0);
    for (n, r) in [(4usize, 2usize), (8, 2), (4, 4)] {
        let p = n * n * r;
        let (a, b) = gen::random_pair(n, 37);
        let machine = Machine::new(Topology::fully_connected(p), cost);
        let out = algos::dns_block(&machine, &a, &b).unwrap();
        let eq6 = model::time::dns_time(n as f64, p as f64, m);
        assert!(
            close(out.t_parallel, eq6, 0.45),
            "n={n} p={p}: sim {} vs Eq6 {eq6}",
            out.t_parallel
        );
    }
}

/// The simulated GK-vs-Cannon crossover on the CM-5 model lands near
/// the analytic prediction (§9: predicted 83, measured 96 at p = 64 —
/// our simulator should land in that neighbourhood).
#[test]
fn simulated_cm5_crossover_near_prediction() {
    let cost = CostModel::cm5();
    let machine = Machine::new(Topology::fully_connected(64), cost);
    let mut crossover = None;
    let mut prev_sign = None;
    // n must be a multiple of 8 (Cannon side) and 4 (GK side).
    for n in (16..=160).step_by(8) {
        let (a, b) = gen::random_pair(n, 41);
        let gk = algos::gk(&machine, &a, &b).unwrap().efficiency();
        let cn = algos::cannon(&machine, &a, &b).unwrap().efficiency();
        let sign = gk > cn;
        if let Some(prev) = prev_sign {
            if prev && !sign {
                crossover = Some(n);
                break;
            }
        }
        prev_sign = Some(sign);
    }
    let n_star = crossover.expect("simulated crossover must exist in [16, 160]");
    assert!(
        (56..=136).contains(&n_star),
        "simulated crossover at n = {n_star}, expected near 83–96"
    );
}

/// Efficiency measured by the simulator equals W/(p·T_p) by
/// construction, and the overhead identity T_o = p·T_p − W holds.
#[test]
fn outcome_identities() {
    let (a, b) = gen::random_pair(16, 43);
    let machine = Machine::new(Topology::square_torus_for(16), CostModel::ncube2());
    let out = algos::cannon(&machine, &a, &b).unwrap();
    let w = 16.0f64.powi(3);
    assert!((out.w - w).abs() < 1e-12);
    assert!((out.efficiency() - w / (16.0 * out.t_parallel)).abs() < 1e-12);
    assert!((out.overhead() - (16.0 * out.t_parallel - w)).abs() < 1e-9);
    assert!((out.speedup() - w / out.t_parallel).abs() < 1e-12);
}

/// Gray-embedded Cannon matches plain Cannon exactly under cut-through
/// and the Eq. (3)-based model.
#[test]
fn cannon_gray_exact() {
    let cost = CostModel::new(19.0, 0.75);
    for (n, p) in [(16usize, 16usize), (32, 64)] {
        let (a, b) = gen::random_pair(n, 61);
        let machine = Machine::new(Topology::hypercube_for(p), cost);
        let out = algos::cannon_gray(&machine, &a, &b).unwrap();
        let expect = algos::cannon::predicted_time(n, p, cost.t_s, cost.t_w);
        assert!(
            (out.t_parallel - expect).abs() < 1e-6,
            "n={n} p={p}: {} vs {expect}",
            out.t_parallel
        );
    }
}

/// The improved GK variant's simulated time is bounded by the naive
/// variant's on bandwidth-dominated machines and tracks the §5.4.1
/// improved-broadcast structure (t_w term without the log p factor).
#[test]
fn gk_improved_bandwidth_structure() {
    let cost = CostModel::new(1.0, 4.0); // bandwidth-dominated
    let (a, b) = gen::random_pair(64, 67);
    let machine = Machine::new(Topology::hypercube_for(64), cost);
    let naive = algos::gk(&machine, &a, &b).unwrap();
    let improved = algos::gk_improved(&machine, &a, &b).unwrap();
    // The win is on the critical path (T_p), not on any per-processor
    // occupancy sum: scatter-allgather overlaps transfers that the tree
    // serialises behind the root — the same trade §5.4.1's pipelining
    // makes.  Quantify it: on this bandwidth-dominated machine the
    // improved variant must shave a material margin (>8%) off T_p.
    assert!(
        improved.t_parallel < 0.92 * naive.t_parallel,
        "improved {} vs naive {}",
        improved.t_parallel,
        naive.t_parallel
    );
    assert!(improved.c.approx_eq(&naive.c, 1e-9));
}

/// The one-element DNS algorithm achieves O(log n) simulated time at
/// p = n³ — §4.5.1's headline.
#[test]
fn dns_one_element_log_time() {
    let cost = CostModel::unit();
    let (a, b) = gen::random_pair(4, 71);
    let machine = Machine::new(Topology::hypercube_for(64), cost);
    let out = algos::dns_one_element(&machine, &a, &b).unwrap();
    // With t_s = t_w = 1: stage 1 ≈ 2 + 2·log r steps, multiply ~1,
    // reduce log r steps — tens of units, vs n³ = 64 serial.
    assert!(out.t_parallel < 64.0, "T_p = {}", out.t_parallel);
    assert!(out.c.approx_eq(&kernel::matmul(&a, &b), 1e-10));
}
