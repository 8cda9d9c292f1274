//! Large-configuration stress tests.  The 512-processor sweeps (the
//! paper's largest experimental machine) pin `EngineKind::Threaded` —
//! they are what runs that many OS threads at once — and are
//! ignored by default (run with `cargo test --release -- --ignored`).
//! The 16384-rank smoke runs in tier-1 on the event engine, the
//! default where fibers switch natively and named here so the test
//! means the same on every platform: it is the coverage for the
//! massive-p regime the event scheduler exists for.

use dense::{gen, kernel};
use mmsim::{CostModel, EngineKind, Machine, Topology};

#[test]
fn cannon_at_16384_processors_event_engine() {
    // The massive-p regime the threaded engine cannot reach (16384 OS
    // threads would exhaust default process limits): Cannon on a
    // 128×128 torus, one matrix element per rank, on the event engine.
    // Not `#[ignore]`d — this is tier-1 coverage for the new regime.
    let n = 128usize;
    let p = 16384usize;
    let (a, b) = gen::random_pair(n, 6);
    let machine = Machine::new(Topology::square_torus_for(p), CostModel::new(5.0, 0.5))
        .with_engine(EngineKind::Event);
    let out = algos::cannon(&machine, &a, &b).expect("applicable");
    assert!(out.c.approx_eq(&kernel::matmul(&a, &b), 1e-9));
    // Exact closed form (Eq. 3 plus the executed alignment steps)…
    let expect = algos::cannon::predicted_time(n, p, 5.0, 0.5);
    assert!(
        (out.t_parallel - expect).abs() < 1e-6,
        "T_p {} vs closed form {}",
        out.t_parallel,
        expect
    );
    // …and the model crate's Eq. (3) itself, which omits alignment, so
    // agreement is asymptotic rather than exact.
    let eq3 = model::time::cannon_time(n as f64, p as f64, model::MachineParams::new(5.0, 0.5));
    let rel = (out.t_parallel - eq3).abs() / eq3;
    assert!(
        rel < 0.05,
        "T_p {} deviates {:.1}% from Eq.3 {}",
        out.t_parallel,
        rel * 100.0,
        eq3
    );
    for s in &out.stats {
        assert!(s.is_consistent(1e-6));
        assert_eq!(s.unreceived, 0);
    }
}

#[test]
#[ignore = "spawns 512 virtual processors; run with --release -- --ignored"]
fn gk_at_512_processors() {
    let n = 64usize;
    let (a, b) = gen::random_pair(n, 1);
    let machine = Machine::new(Topology::fully_connected(512), CostModel::cm5())
        .with_engine(EngineKind::Threaded);
    let out = algos::gk(&machine, &a, &b).expect("applicable");
    assert!(out.c.approx_eq(&kernel::matmul(&a, &b), 1e-9));
    // Eq. (18) shape at the paper's largest machine.
    let eq18 = model::cm5::gk_cm5_time(n as f64, 512.0, model::MachineParams::cm5());
    let rel = (out.t_parallel - eq18).abs() / eq18;
    assert!(
        rel < 0.20,
        "T_p {} deviates {:.0}% from Eq.18 {}",
        out.t_parallel,
        rel * 100.0,
        eq18
    );
}

#[test]
#[ignore = "spawns 484 virtual processors; run with --release -- --ignored"]
fn cannon_at_484_processors() {
    let n = 110usize;
    let (a, b) = gen::random_pair(n, 2);
    let machine = Machine::new(Topology::fully_connected(484), CostModel::cm5())
        .with_engine(EngineKind::Threaded);
    let out = algos::cannon(&machine, &a, &b).expect("applicable");
    assert!(out.c.approx_eq(&kernel::matmul(&a, &b), 1e-9));
    let cost = CostModel::cm5();
    let expect = algos::cannon::predicted_time(n, 484, cost.t_s, cost.t_w);
    assert!((out.t_parallel - expect).abs() < 1e-6);
    // The §9 observation: Cannon sits at low efficiency (paper: 0.28
    // measured; our constants give ~0.18) at this configuration.
    assert!(out.efficiency() < 0.25);
}

#[test]
#[ignore = "spawns 512 virtual processors; run with --release -- --ignored"]
fn dns_one_element_at_512() {
    // p = n³ with n = 8: the full one-element DNS algorithm.
    let n = 8usize;
    let (a, b) = gen::random_pair(n, 3);
    let machine = Machine::new(Topology::hypercube_for(512), CostModel::new(5.0, 1.0))
        .with_engine(EngineKind::Threaded);
    let out = algos::dns_one_element(&machine, &a, &b).expect("p = n³");
    assert!(out.c.approx_eq(&kernel::matmul(&a, &b), 1e-9));
    // O(log n) time: a small multiple of log₂ 512 = 9 message steps.
    assert!(out.t_parallel < 400.0, "T_p = {}", out.t_parallel);
}

#[test]
#[ignore = "spawns 512 virtual processors; run with --release -- --ignored"]
fn berntsen_at_512_processors() {
    // p = 512 = 2⁹, s = 8, needs 64 | n and p ≤ n^{3/2} (n ≥ 64).
    let n = 64usize;
    let (a, b) = gen::random_pair(n, 4);
    let machine = Machine::new(Topology::hypercube_for(512), CostModel::ncube2())
        .with_engine(EngineKind::Threaded);
    let out = algos::berntsen(&machine, &a, &b).expect("applicable");
    assert!(out.c.approx_eq(&kernel::matmul(&a, &b), 1e-9));
    let cost = CostModel::ncube2();
    let expect = algos::berntsen::predicted_time(n, 512, cost.t_s, cost.t_w, cost.t_add);
    assert!((out.t_parallel - expect).abs() < 1e-6);
}

#[test]
#[ignore = "spawns 1024 virtual processors; run with --release -- --ignored"]
fn cannon_at_1024_processors() {
    let n = 64usize;
    let (a, b) = gen::random_pair(n, 5);
    let machine = Machine::new(Topology::square_torus_for(1024), CostModel::ncube2())
        .with_engine(EngineKind::Threaded);
    let out = algos::cannon(&machine, &a, &b).expect("applicable");
    assert!(out.c.approx_eq(&kernel::matmul(&a, &b), 1e-9));
    for s in &out.stats {
        assert!(s.is_consistent(1e-6));
        assert_eq!(s.unreceived, 0);
    }
}
