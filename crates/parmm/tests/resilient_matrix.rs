//! The resilience matrix: one differential fault-sweep harness shared
//! by **every** formulation, reached through the one dispatch — each
//! [`Algorithm::ALL`] id runs as `parmm::run_on::<Plain>` (the
//! reference) and `parmm::run_on::<Reliable>` (under test).
//!
//! For every formulation the same seeded grid of
//! `drop × corrupt × death × spares` plans is swept, and
//! two properties are asserted differentially against the *plain* form
//! on a healthy machine:
//!
//! 1. **Bit-identical products** — whenever the reliable run completes
//!    (all faults recoverable within the spare budget), its product
//!    equals the plain form's exactly, not approximately;
//! 2. **Byte-identical replays** — running the same `(plan, spares)`
//!    twice yields the same `T_p` bits, the same per-rank
//!    [`mmsim::ProcStats`] (including retransmission/backoff/recovery/
//!    detection accounting), the same results; failures replay to the
//!    same structured error.
//!
//! Unrecoverable points (deaths beyond the spare budget) are legal
//! sweep outcomes: they must surface as the structured error — on both
//! replays — never as a hang.  The plain forms fail the same way: a
//! death on a spare-less machine is a structured error, never a panic.

use algos::{AlgoError, SimOutcome};
use dense::{gen, Matrix};
use mmsim::{CostModel, FaultPlan, Machine, Plain, Reliable, SimError, Topology};
use model::Algorithm;
use parmm::{executable_applicability, run_on};
use proptest::prelude::*;

const DROPS: [f64; 3] = [0.0, 0.1, 0.25];
const CORRUPTS: [f64; 3] = [0.0, 0.05, 0.1];

/// Each formulation's sweep geometry — logical ranks and operand size —
/// is the first of these its executable form accepts.
fn geometry(alg: Algorithm) -> (usize, usize) {
    [(9, 6), (8, 8), (16, 4)]
        .into_iter()
        .find(|&(p, n)| executable_applicability(alg, n, p).is_ok())
        .unwrap_or_else(|| panic!("{alg}: no sweep geometry applies"))
}

/// The points the detection tables sweep: every formulation at its
/// [`geometry`], plus Simple and Fox on a 2 × 2 mesh, whose
/// power-of-two groups take the hypercube collectives instead.
fn sweep_points() -> impl Iterator<Item = (Algorithm, (usize, usize))> {
    let mesh_2x2 = [Algorithm::Simple, Algorithm::FoxHypercube].map(|alg| (alg, (4, 8)));
    Algorithm::ALL
        .map(|alg| (alg, geometry(alg)))
        .into_iter()
        .chain(mesh_2x2)
}

/// Build the sweep machine: `p` logical ranks plus `spares` reserved
/// ones on a fully connected fabric, under the given plan.
fn sweep_machine(p: usize, spares: usize, plan: FaultPlan) -> Machine {
    Machine::new(
        Topology::fully_connected(p + spares),
        CostModel::new(5.0, 0.5),
    )
    .with_fault_plan(plan)
    .with_spares(spares)
}

/// The differential core: sweep point → two reliable replays compared
/// against each other and, on success, against the plain product.
fn check_point<F>(plain_c: &Matrix, p: usize, spares: usize, plan: &FaultPlan, run: F)
where
    F: Fn(&Machine) -> Result<SimOutcome, AlgoError>,
{
    let machine = sweep_machine(p, spares, plan.clone());
    let (r1, r2) = (run(&machine), run(&machine));
    match (r1, r2) {
        (Ok(x), Ok(y)) => {
            // Property 1: exact product, never merely approximate.
            prop_assert_eq!(&x.c, plain_c, "product drifted under {:?}", plan);
            // Property 2: byte-identical replay.
            prop_assert_eq!(x.t_parallel.to_bits(), y.t_parallel.to_bits());
            prop_assert_eq!(&x.stats, &y.stats);
            for s in &x.stats {
                prop_assert!(s.is_consistent(1e-9), "{:?}", s);
                prop_assert!(s.backoff_idle <= s.idle + 1e-9);
                prop_assert!(s.recovery_idle <= s.idle + 1e-9);
                // True- and false-positive detector charges are
                // disjoint slices of the failover idle bucket.
                prop_assert!(
                    s.detection_latency + s.wasted_promotion_idle <= s.recovery_idle + 1e-9
                );
                prop_assert!((s.false_positives > 0) == (s.wasted_promotion_idle > 0.0));
            }
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b, "error replay diverged"),
        (a, b) => prop_assert!(
            false,
            "replay diverged between success and failure: {:?} vs {:?}",
            a.map(|o| o.t_parallel),
            b.map(|o| o.t_parallel)
        ),
    }
}

/// One sweep suite per formulation at `$geometry` (default: its
/// [`geometry`]).  The plain form computes the reference product on a
/// bare healthy machine of the same logical size; the reliable form is
/// under test.  A drawn `victim` of `p` means "no death" (the grid's
/// fault-free row).
macro_rules! resilient_matrix {
    ($name:ident, $alg:expr) => {
        resilient_matrix!($name, $alg, geometry($alg));
    };
    ($name:ident, $alg:expr, $geometry:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(10))]

            #[test]
            fn $name(
                seed in 0u64..1_000_000,
                grid in 0usize..(DROPS.len() * CORRUPTS.len()),
                victim in 0usize..=$geometry.0,
                t_death in 30.0f64..250.0,
                spares in 0usize..3,
            ) {
                let (p, n) = $geometry;
                // One flat index over the drop × corrupt grid.
                let drop_i = grid % DROPS.len();
                let corrupt_i = grid / DROPS.len();
                let (a, b) = gen::random_pair(n, 0xD1FF);
                let healthy = Machine::new(Topology::fully_connected(p), CostModel::new(5.0, 0.5));
                let plain = run_on::<Plain>($alg, &healthy, &a, &b).expect("plain form applicable");

                let mut plan = FaultPlan::new(seed)
                    .with_drop_rate(DROPS[drop_i])
                    .with_corrupt_rate(CORRUPTS[corrupt_i]);
                if victim < p {
                    plan = plan.with_death(victim, t_death);
                }
                check_point(&plain.c, p, spares, &plan, |m| run_on::<Reliable>($alg, m, &a, &b));
            }
        }
    };
}

resilient_matrix!(simple_matrix, Algorithm::Simple);
// Simple's power-of-two branch: hypercube allgathers on a 2 × 2 mesh.
resilient_matrix!(simple_hypercube_matrix, Algorithm::Simple, (4, 8));
resilient_matrix!(cannon_matrix, Algorithm::Cannon);
// The hypercube-broadcast Fox schedule on a 2 × 2 mesh as well.
resilient_matrix!(fox_matrix, Algorithm::FoxHypercube, (4, 8));
resilient_matrix!(fox_tree_matrix, Algorithm::FoxHypercube);
resilient_matrix!(fox_pipelined_matrix, Algorithm::FoxPipelined);
resilient_matrix!(berntsen_matrix, Algorithm::Berntsen);
resilient_matrix!(gk_matrix, Algorithm::Gk);
resilient_matrix!(gk_improved_matrix, Algorithm::GkImproved);
resilient_matrix!(dns_matrix, Algorithm::Dns);

/// The plain row: every formulation's plain form, on a spare-less
/// machine whose only fault is one death, reports that death as the
/// structured error naming the planned rank — the failure surface is
/// the run's, not the transport's.
#[test]
fn plain_forms_report_a_death_as_a_structured_error() {
    for alg in Algorithm::ALL {
        let (p, n) = geometry(alg);
        let (a, b) = gen::random_pair(n, 0xD1FF);
        for victim in [0, p - 1] {
            let machine = sweep_machine(p, 0, FaultPlan::new(3).with_death(victim, 30.0));
            match run_on::<Plain>(alg, &machine, &a, &b) {
                Err(AlgoError::Sim(SimError::RankDied { rank, .. })) => {
                    assert_eq!(rank, victim, "{alg}: the planned rank must be named");
                }
                other => panic!(
                    "{alg}: expected RankDied {{ rank: {victim} }}, got {:?}",
                    other.map(|o| o.t_parallel)
                ),
            }
        }
    }
}

/// The lossy-detection grid: heartbeats ride the same faulted links as
/// data, so sweeping heartbeat-drop rate × detection period × timeout
/// multiple over every formulation (with one spare to waste) must
/// provoke spurious failovers — and they must be priced, deterministic,
/// and invisible in the data plane.
#[test]
fn lossy_detection_grid_prices_false_positives_without_touching_data() {
    const HB_DROPS: [f64; 2] = [0.25, 0.5];
    const PERIODS: [f64; 2] = [20.0, 60.0];
    const MULTS: [u32; 2] = [1, 3];
    let mut grid_false_positives = 0u64;
    for (alg, (p, n)) in sweep_points() {
        let (a, b) = gen::random_pair(n, 0xD1FF);
        let run = |m: &Machine| run_on::<Reliable>(alg, m, &a, &b);
        let reference = run(&sweep_machine(p, 1, FaultPlan::new(11)))
            .unwrap_or_else(|e| panic!("{alg}: {e}"))
            .c;
        for drop in HB_DROPS {
            for period in PERIODS {
                for mult in MULTS {
                    let plan = FaultPlan::new(11)
                        .with_drop_rate(drop)
                        .with_detection(period, mult);
                    let m = sweep_machine(p, 1, plan);
                    let x = run(&m).unwrap_or_else(|e| panic!("{alg}: {e}"));
                    let y = run(&m).unwrap_or_else(|e| panic!("{alg}: {e}"));
                    let point = format!("{alg} p={p} drop={drop} period={period} mult={mult}");
                    // Spurious failovers never reach the data plane.
                    assert_eq!(x.c, reference, "{point}: product drifted");
                    // Byte-identical replay, accusation charges included.
                    assert_eq!(x.t_parallel.to_bits(), y.t_parallel.to_bits(), "{point}");
                    assert_eq!(x.stats, y.stats, "{point}");
                    for s in &x.stats {
                        assert!(s.is_consistent(1e-9), "{point}: {s:?}");
                        assert!(
                            s.detection_latency + s.wasted_promotion_idle <= s.recovery_idle + 1e-9,
                            "{point}: detector charges exceed the failover bucket: {s:?}"
                        );
                        assert!(s.recovery_idle <= s.idle + 1e-9, "{point}");
                        assert_eq!(
                            s.false_positives > 0,
                            s.wasted_promotion_idle > 0.0,
                            "{point}: accusation count and charge must agree"
                        );
                        assert_eq!(s.recoveries, 0, "{point}: no real death in this grid");
                    }
                    grid_false_positives += x.stats.iter().map(|s| s.false_positives).sum::<u64>();
                }
            }
        }
    }
    assert!(
        grid_false_positives > 0,
        "a lossy grid this aggressive must provoke spurious failovers"
    );
}

/// The detection config composes with every formulation: a priced
/// sweep point still reproduces the exact product, and its heartbeat
/// traffic is visible in the stats.
#[test]
fn detection_composes_with_every_variant() {
    for (alg, (p, n)) in sweep_points() {
        let (a, b) = gen::random_pair(n, 0xD1FF);
        let run = |plan: FaultPlan| {
            run_on::<Reliable>(alg, &sweep_machine(p, 1, plan), &a, &b)
                .unwrap_or_else(|e| panic!("{alg}: {e}"))
        };
        let free = run(FaultPlan::new(5));
        let priced = run(FaultPlan::new(5).with_detection(60.0, 3));
        assert_eq!(free.c, priced.c, "{alg}: detection must not touch data");
        assert!(
            priced.stats.iter().all(|s| s.heartbeat_words > 0),
            "{alg}: every rank pays heartbeat traffic"
        );
        assert!(
            priced.t_parallel > free.t_parallel,
            "{alg}: heartbeats must cost virtual time"
        );
    }
}

/// The transport is chosen by the type, never by the machine: a
/// schedule over `Plain` on a machine with a spare registers no
/// checkpoint and is indistinguishable — `T_p` bits, per-rank message
/// and word counts, every other counter — from the same run on the
/// bare logical machine.
#[test]
fn plain_entry_points_ignore_the_spare_budget() {
    let cost = CostModel::new(5.0, 0.5);
    for (alg, (p, n)) in sweep_points() {
        let (a, b) = gen::random_pair(n, 0xD1FF);
        let bare = Machine::new(Topology::fully_connected(p), cost);
        let bare = run_on::<Plain>(alg, &bare, &a, &b).unwrap_or_else(|e| panic!("{alg}: {e}"));
        let spared_machine = Machine::new(Topology::fully_connected(p + 1), cost).with_spares(1);
        assert_eq!(spared_machine.p(), p);
        let spared =
            run_on::<Plain>(alg, &spared_machine, &a, &b).unwrap_or_else(|e| panic!("{alg}: {e}"));
        assert_eq!(spared.c, bare.c, "{alg}");
        assert_eq!(
            spared.t_parallel.to_bits(),
            bare.t_parallel.to_bits(),
            "{alg}"
        );
        for (rank, (s, b)) in spared.stats.iter().zip(&bare.stats).enumerate() {
            assert_eq!(s.checkpoint_words, 0, "{alg} rank {rank}");
            assert_eq!(s, b, "{alg} rank {rank}");
        }
    }
}
