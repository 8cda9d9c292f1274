//! Property-based tests of the fault-injection subsystem: seeded plans
//! are deterministic, the zero plan is free, and no plan — however
//! hostile — can hang the engine.

use mmsim::{CostModel, EngineKind, FaultPlan, Machine, SimError, Topology};
use proptest::prelude::*;

/// Reliable ring exchange: every rank sends `words` to its right
/// neighbour over the retransmitting transport and computes a little.
fn reliable_ring(machine: &Machine, words: usize) -> mmsim::RunReport<f64> {
    machine
        .try_run(move |proc| {
            let p = proc.p();
            let right = (proc.rank() + 1) % p;
            let left = (proc.rank() + p - 1) % p;
            proc.send_reliable(right, 1, vec![proc.rank() as f64; words]);
            let got = proc.recv_reliable(left, 1);
            proc.compute(50.0);
            got.first().copied().unwrap_or(0.0)
        })
        .expect("recoverable plans cannot fail a reliable workload")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Identical seeded plans drive byte-identical simulations: same
    /// virtual times, same per-rank stats, same results, same traces.
    #[test]
    fn seeded_plans_are_deterministic(
        seed in 0u64..1_000_000,
        p in 2usize..9,
        words in 1usize..16,
        drop in 0.0f64..0.4,
        corrupt in 0.0f64..0.2,
    ) {
        let plan = FaultPlan::new(seed)
            .with_drop_rate(drop)
            .with_corrupt_rate(corrupt);
        let machine = || {
            Machine::new(Topology::fully_connected(p), CostModel::new(20.0, 2.0))
                .with_fault_plan(plan.clone())
                .with_trace()
        };
        let r1 = reliable_ring(&machine(), words);
        let r2 = reliable_ring(&machine(), words);
        prop_assert_eq!(r1.t_parallel.to_bits(), r2.t_parallel.to_bits());
        prop_assert_eq!(&r1.stats, &r2.stats);
        prop_assert_eq!(&r1.results, &r2.results);
        prop_assert_eq!(&r1.traces, &r2.traces);
    }

    /// A plan with all rates zero is indistinguishable from no plan at
    /// all — bit-identical times and stats.
    #[test]
    fn zero_plan_is_bit_identical_to_no_plan(
        seed in 0u64..1_000_000,
        p in 2usize..9,
        words in 1usize..16,
    ) {
        let bare = Machine::new(Topology::fully_connected(p), CostModel::new(20.0, 2.0));
        let zeroed = Machine::new(Topology::fully_connected(p), CostModel::new(20.0, 2.0))
            .with_fault_plan(FaultPlan::new(seed));
        let r1 = reliable_ring(&bare, words);
        let r2 = reliable_ring(&zeroed, words);
        prop_assert_eq!(r1.t_parallel.to_bits(), r2.t_parallel.to_bits());
        prop_assert_eq!(&r1.stats, &r2.stats);
        prop_assert_eq!(&r1.results, &r2.results);
    }

    /// No plan can hang the engine: a *plain* (unprotected) ring under
    /// arbitrary drops, corruption, and a scheduled death always comes
    /// back as `Ok` or as a structured `SimError` — and the diagnosis
    /// itself is deterministic.
    #[test]
    fn every_plan_terminates_with_a_diagnosis(
        seed in 0u64..1_000_000,
        p in 2usize..7,
        drop in 0.0f64..0.5,
        corrupt in 0.0f64..0.25,
        death_pick in 0usize..100,
        death_t in 1.0f64..200.0,
    ) {
        // Both machines pin the threaded engine, whose ranks race on
        // real threads; `engine_differential.rs` holds the event engine
        // to the same diagnoses.
        let mut plan = FaultPlan::new(seed)
            .with_drop_rate(drop)
            .with_corrupt_rate(corrupt);
        // In half the cases, also fail-stop one rank mid-run.
        if death_pick < 50 {
            plan = plan.with_death(death_pick % p, death_t);
        }
        let machine = Machine::new(Topology::fully_connected(p), CostModel::new(20.0, 2.0))
            .with_engine(EngineKind::Threaded)
            .with_fault_plan(plan.clone());
        let attempt = |m: &Machine| {
            m.try_run(|proc| {
                let p = proc.p();
                let right = (proc.rank() + 1) % p;
                let left = (proc.rank() + p - 1) % p;
                proc.send(right, 1, vec![proc.rank() as f64; 8]);
                proc.recv(left, 1);
                proc.compute(50.0);
            })
        };
        let outcome = attempt(&machine);
        match &outcome {
            Ok(_) => {}
            Err(
                SimError::RankDied { .. }
                | SimError::Deadlock { .. }
                | SimError::DataCorruption { .. }
                | SimError::RankPanicked { .. },
            ) => {}
        }
        // The classification is reproducible, not schedule-dependent.
        let machine2 = Machine::new(Topology::fully_connected(p), CostModel::new(20.0, 2.0))
            .with_engine(EngineKind::Threaded)
            .with_fault_plan(plan);
        let outcome2 = attempt(&machine2);
        match (&outcome, &outcome2) {
            (Ok(r1), Ok(r2)) => prop_assert_eq!(&r1.stats, &r2.stats),
            (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
            (a, b) => prop_assert!(false, "diverging outcomes: {a:?} vs {b:?}"),
        }
    }
}
