//! The resilience matrix: one differential fault-sweep harness shared
//! by **all six** resilient entry points (Cannon, GK, block DNS, and
//! the three Fox spellings — `fox_resilient`, `fox_tree_resilient`,
//! `fox_pipelined_resilient`).
//!
//! For every variant the same seeded grid of
//! `drop × corrupt × duplicate × death × spares` plans is swept, and
//! two properties are asserted differentially against the *plain*
//! variant on a healthy machine:
//!
//! 1. **Bit-identical products** — whenever the resilient run completes
//!    (all faults recoverable within the spare budget), its product
//!    equals the plain variant's exactly, not approximately;
//! 2. **Byte-identical replays** — running the same `(plan, spares)`
//!    twice yields the same `T_p` bits, the same per-rank
//!    [`mmsim::ProcStats`] (including retransmission/backoff/recovery/
//!    detection accounting), the same results; failures replay to the
//!    same structured error.
//!
//! Unrecoverable points (deaths beyond the spare budget) are legal
//! sweep outcomes: they must surface as the structured error — on both
//! replays — never as a hang.

use algos::common::{AlgoError, SimOutcome};
use dense::{gen, Matrix};
use mmsim::{CostModel, FaultPlan, Machine, Topology};
use proptest::prelude::*;

const DROPS: [f64; 3] = [0.0, 0.1, 0.25];
const CORRUPTS: [f64; 3] = [0.0, 0.05, 0.1];
const DUPS: [f64; 3] = [0.0, 0.1, 0.2];

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

/// The differential core: sweep point → two resilient replays compared
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

/// One sweep suite per resilient variant.  `$plain` computes the
/// reference product on a bare healthy machine of the same logical
/// size; `$resilient` is the variant under test.  A drawn `victim` of
/// `$p` means "no death" (the grid's fault-free row).
macro_rules! resilient_matrix {
    ($name:ident, p = $p:expr, n = $n:expr, plain = $plain:expr, resilient = $resilient:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(10))]

            #[test]
            fn $name(
                seed in 0u64..1_000_000,
                grid in 0usize..(DROPS.len() * CORRUPTS.len() * DUPS.len()),
                victim in 0usize..=$p,
                t_death in 30.0f64..250.0,
                spares in 0usize..3,
            ) {
                // One flat index over the drop × corrupt × duplicate grid.
                let drop_i = grid % DROPS.len();
                let corrupt_i = (grid / DROPS.len()) % CORRUPTS.len();
                let dup_i = grid / (DROPS.len() * CORRUPTS.len());
                let (a, b) = gen::random_pair($n, 0xD1FF);
                let healthy = Machine::new(
                    Topology::fully_connected($p),
                    CostModel::new(5.0, 0.5),
                );
                #[allow(clippy::redundant_closure_call)]
                let plain = ($plain)(&healthy, &a, &b).expect("plain variant applicable");

                let mut plan = FaultPlan::new(seed)
                    .with_drop_rate(DROPS[drop_i])
                    .with_corrupt_rate(CORRUPTS[corrupt_i])
                    .with_duplicate_rate(DUPS[dup_i]);
                if victim < $p {
                    plan = plan.with_death(victim, t_death);
                }
                check_point(&plain.c, $p, spares, &plan, |m| ($resilient)(m, &a, &b));
            }
        }
    };
}

resilient_matrix!(
    cannon_matrix,
    p = 9,
    n = 6,
    plain = algos::cannon,
    resilient = algos::cannon_resilient
);

resilient_matrix!(
    fox_matrix,
    p = 4,
    n = 8,
    plain = algos::fox_tree,
    resilient = algos::fox_resilient
);

resilient_matrix!(
    fox_tree_matrix,
    p = 9,
    n = 6,
    plain = algos::fox_tree,
    resilient = algos::fox_tree_resilient
);

resilient_matrix!(
    fox_pipelined_matrix,
    p = 9,
    n = 6,
    plain = |m: &Machine, a: &Matrix, b: &Matrix| algos::fox_pipelined(m, a, b, 2),
    resilient = |m: &Machine, a: &Matrix, b: &Matrix| algos::fox_pipelined_resilient(m, a, b, 2)
);

resilient_matrix!(
    gk_matrix,
    p = 8,
    n = 8,
    plain = algos::gk,
    resilient = algos::gk_resilient
);

resilient_matrix!(
    dns_matrix,
    p = 16,
    n = 4,
    plain = algos::dns_block,
    resilient = algos::dns_resilient
);

/// The lossy-detection grid: heartbeats ride the same faulted links as
/// data, so sweeping heartbeat-drop rate × detection period × timeout
/// multiple over every resilient variant (with one spare to waste)
/// must provoke spurious failovers — and they must be priced,
/// deterministic, and invisible in the data plane.
#[test]
fn lossy_detection_grid_prices_false_positives_without_touching_data() {
    type Entry = (
        &'static str,
        usize,
        usize,
        fn(&Machine, &Matrix, &Matrix) -> Result<SimOutcome, AlgoError>,
    );
    let fox_piped: fn(&Machine, &Matrix, &Matrix) -> Result<SimOutcome, AlgoError> =
        |m, a, b| algos::fox_pipelined_resilient(m, a, b, 2);
    let entries: [Entry; 6] = [
        ("cannon", 9, 6, algos::cannon_resilient),
        ("fox", 4, 8, algos::fox_resilient),
        ("fox_tree", 9, 6, algos::fox_tree_resilient),
        ("fox_pipelined", 9, 6, fox_piped),
        ("gk", 8, 8, algos::gk_resilient),
        ("dns", 16, 4, algos::dns_resilient),
    ];
    const HB_DROPS: [f64; 2] = [0.25, 0.5];
    const PERIODS: [f64; 2] = [20.0, 60.0];
    const MULTS: [u32; 2] = [1, 3];
    let mut grid_false_positives = 0u64;
    for (name, p, n, algo) in entries {
        let (a, b) = gen::random_pair(n, 0xD1FF);
        let reference = algo(&sweep_machine(p, 1, FaultPlan::new(11)), &a, &b)
            .unwrap_or_else(|e| panic!("{name}: {e}"))
            .c;
        for drop in HB_DROPS {
            for period in PERIODS {
                for mult in MULTS {
                    let plan = FaultPlan::new(11)
                        .with_drop_rate(drop)
                        .with_detection(period, mult);
                    let m = sweep_machine(p, 1, plan);
                    let x = algo(&m, &a, &b).unwrap_or_else(|e| panic!("{name}: {e}"));
                    let y = algo(&m, &a, &b).unwrap_or_else(|e| panic!("{name}: {e}"));
                    let point = format!("{name} drop={drop} period={period} mult={mult}");
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

/// The detection config composes with every variant: a priced sweep
/// point still reproduces the exact product, and its heartbeat traffic
/// is visible in the stats.
#[test]
fn detection_composes_with_every_variant() {
    type Entry = (
        &'static str,
        usize,
        usize,
        fn(&Machine, &Matrix, &Matrix) -> Result<SimOutcome, AlgoError>,
    );
    let fox_piped: fn(&Machine, &Matrix, &Matrix) -> Result<SimOutcome, AlgoError> =
        |m, a, b| algos::fox_pipelined_resilient(m, a, b, 2);
    let entries: [Entry; 6] = [
        ("cannon", 9, 6, algos::cannon_resilient),
        ("fox", 4, 8, algos::fox_resilient),
        ("fox_tree", 9, 6, algos::fox_tree_resilient),
        ("fox_pipelined", 9, 6, fox_piped),
        ("gk", 8, 8, algos::gk_resilient),
        ("dns", 16, 4, algos::dns_resilient),
    ];
    for (name, p, n, algo) in entries {
        let (a, b) = gen::random_pair(n, 0xD1FF);
        let free = algo(&sweep_machine(p, 1, FaultPlan::new(5)), &a, &b)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let priced = algo(
            &sweep_machine(p, 1, FaultPlan::new(5).with_detection(60.0, 3)),
            &a,
            &b,
        )
        .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(free.c, priced.c, "{name}: detection must not touch data");
        assert!(
            priced.stats.iter().all(|s| s.heartbeat_words > 0),
            "{name}: every rank pays heartbeat traffic"
        );
        assert!(
            priced.t_parallel > free.t_parallel,
            "{name}: heartbeats must cost virtual time"
        );
    }
}

/// The transport is chosen by the entry point's name, never by the
/// machine: a *plain* entry point on a machine with a spare runs the
/// generic schedule over `Plain`, so it registers no checkpoint and is
/// indistinguishable — `T_p` bits, per-rank message and word counts,
/// every other counter — from the same run on the bare logical machine.
#[test]
fn plain_entry_points_ignore_the_spare_budget() {
    type Entry = (
        &'static str,
        usize,
        usize,
        fn(&Machine, &Matrix, &Matrix) -> Result<SimOutcome, AlgoError>,
    );
    let fox_piped: fn(&Machine, &Matrix, &Matrix) -> Result<SimOutcome, AlgoError> =
        |m, a, b| algos::fox_pipelined(m, a, b, 2);
    let entries: [Entry; 5] = [
        ("cannon", 9, 6, algos::cannon),
        ("fox_tree", 9, 6, algos::fox_tree),
        ("fox_pipelined", 9, 6, fox_piped),
        ("gk", 8, 8, algos::gk),
        ("dns_block", 16, 4, algos::dns_block),
    ];
    let cost = CostModel::new(5.0, 0.5);
    for (name, p, n, algo) in entries {
        let (a, b) = gen::random_pair(n, 0xD1FF);
        let bare = algo(&Machine::new(Topology::fully_connected(p), cost), &a, &b)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let spared_machine = Machine::new(Topology::fully_connected(p + 1), cost).with_spares(1);
        assert_eq!(spared_machine.p(), p);
        let spared = algo(&spared_machine, &a, &b).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(spared.c, bare.c, "{name}");
        assert_eq!(
            spared.t_parallel.to_bits(),
            bare.t_parallel.to_bits(),
            "{name}"
        );
        for (rank, (s, b)) in spared.stats.iter().zip(&bare.stats).enumerate() {
            assert_eq!(s.checkpoint_words, 0, "{name} rank {rank}");
            assert_eq!(s, b, "{name} rank {rank}");
        }
    }
}
