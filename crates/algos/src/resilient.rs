//! Named fault-tolerant entry points: Cannon, GK, block DNS, and the
//! Fox formulations (hypercube/tree and pipelined; the asynchronous
//! schedule is pipelined Fox with one packet).
//!
//! **One schedule, two transports.**  Nothing is restated here: each
//! function below is a formulation's generic schedule (`*_on`)
//! instantiated over [`mmsim::Reliable`] instead of [`mmsim::Plain`];
//! Simple, Berntsen and improved GK have the same reliable form without
//! a named wrapper, and `parmm::run_on` reaches all eight.  That moves
//! every message — the collectives' included — through the engine's
//! checksummed retransmitting transport, so the run completes, with the
//! bit-identical product, under any *recoverable* [`mmsim::FaultPlan`]:
//! message drops and payload corruption.  Applicability, structural errors, tags and
//! message order are those of the plain entry point by construction.
//!
//! ## Checkpoint/restart semantics
//!
//! The algorithms proceed in lock-step phases (Cannon: alignment then
//! `√p` shift rounds; Fox: `√p` broadcast/roll iterations; Simple:
//! two allgathers, multiply; Berntsen: subcube Cannon, reduce-scatter;
//! GK and DNS: route, two broadcasts, multiply, reduce).  Recovery is
//! **step-granular**: the reliable transport retries each hop until it
//! is delivered intact, so a faulted transfer is re-driven from the
//! *last completed step* — completed shifts or broadcast levels are
//! never re-executed, and no processor state is rolled back.  The
//! recovery cost (retransmissions, acknowledgements, exponential
//! backoff) is charged in virtual time, so resilience overhead is
//! directly visible in `T_p` and in the per-processor
//! [`mmsim::ProcStats::backoff_idle`] / `retransmissions` counters.
//!
//! ## Fail-stop deaths
//!
//! On a machine provisioned with spares
//! ([`mmsim::Machine::with_spares`]) fail-stop deaths are masked too:
//! the schedules carry step-granular [`mmsim::Checkpoint`] hooks
//! ([`mmsim::Transport::checkpoint`] at every phase boundary), which
//! only the reliable transport acts on, so the engine can promote a
//! spare into the dead rank's slot and replay from the buddy's
//! checkpoint — the product stays bit-identical and the recovery
//! surcharge lands in [`mmsim::ProcStats::recovery_idle`] /
//! `recoveries`.  The hooks are free (no messages, no virtual time) on
//! machines without spares.
//!
//! Beyond the spare budget a death surfaces as [`AlgoError::Sim`]
//! wrapping the structured [`mmsim::SimError::RankDied`] (or the
//! deadlock it provokes in peers), never as a hang or a panic — every
//! entry point, plain or reliable, runs under
//! [`mmsim::Machine::try_run`].

use dense::Matrix;
use mmsim::{Machine, Reliable};

use crate::common::{AlgoError, SimOutcome};
use crate::{cannon, dns, fox, gk};

/// [`crate::cannon()`] over the reliable transport, with a checkpoint
/// after alignment and after every completed round.
///
/// # Errors
/// As [`crate::cannon()`], plus [`AlgoError::Sim`] when the simulated
/// execution fails on an unrecoverable fault (fail-stop death beyond
/// the spare budget).
pub fn cannon_resilient(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<SimOutcome, AlgoError> {
    cannon::cannon_on::<Reliable>(machine, a, b)
}

/// [`crate::fox_tree`] over the reliable transport: reliable binomial
/// row broadcasts and B rolls, with a checkpoint per iteration.
///
/// # Errors
/// As [`crate::fox_tree`], plus [`AlgoError::Sim`] on an unrecoverable
/// fault.
pub fn fox_tree_resilient(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<SimOutcome, AlgoError> {
    fox::fox_tree_on::<Reliable>(machine, a, b)
}

/// Historical name of [`fox_tree_resilient`], kept for source
/// compatibility: "fox" with no qualifier has always meant the
/// synchronous tree variant here.
///
/// # Errors
/// Exactly those of [`fox_tree_resilient`].
pub fn fox_resilient(machine: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    fox_tree_resilient(machine, a, b)
}

/// [`crate::fox_pipelined`] over the reliable transport: every packet
/// of the ring relay and every B roll is a framed reliable exchange
/// (the relay still forwards by [`mmsim::Payload`] clone), with a
/// checkpoint per iteration.
///
/// # Errors
/// As [`crate::fox_pipelined`] (including the `packets` bounds), plus
/// [`AlgoError::Sim`] on an unrecoverable fault.
pub fn fox_pipelined_resilient(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
    packets: usize,
) -> Result<SimOutcome, AlgoError> {
    fox::fox_pipelined_on::<Reliable>(machine, a, b, packets)
}

/// [`crate::gk()`] over the reliable transport: reliable routes,
/// broadcasts and reduction, with a checkpoint after the spread and
/// after the local product.
///
/// # Errors
/// As [`crate::gk()`], plus [`AlgoError::Sim`] on an unrecoverable
/// fault.
pub fn gk_resilient(machine: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    gk::gk_on::<Reliable>(machine, a, b)
}

/// [`crate::dns_block`] over the reliable transport: reliable element
/// spread, reliable internal Cannon (with its per-round checkpoints)
/// and reliable reduction, with a checkpoint at each stage boundary.
///
/// # Errors
/// As [`crate::dns_block`], plus [`AlgoError::Sim`] on an unrecoverable
/// fault.
pub fn dns_resilient(machine: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
    dns::dns_block_on::<Reliable>(machine, a, b)
}

#[cfg(test)]
mod tests {
    use dense::{gen, kernel};
    use mmsim::{CostModel, FaultPlan, Machine, SimError, Topology};

    use super::*;

    fn lossy_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_drop_rate(0.25)
            .with_corrupt_rate(0.1)
    }

    fn total_retransmissions(out: &SimOutcome) -> u64 {
        out.stats.iter().map(|s| s.retransmissions).sum()
    }

    fn total_backoff(out: &SimOutcome) -> f64 {
        out.stats.iter().map(|s| s.backoff_idle).sum()
    }

    #[test]
    fn cannon_resilient_healthy_matches_plain_product() {
        let (a, b) = gen::random_pair(8, 31);
        let machine = Machine::new(Topology::square_torus_for(16), CostModel::new(5.0, 0.5));
        let plain = cannon::cannon(&machine, &a, &b).unwrap();
        let resilient = cannon_resilient(&machine, &a, &b).unwrap();
        assert_eq!(
            plain.c, resilient.c,
            "healthy transport must not perturb the product"
        );
        assert_eq!(total_retransmissions(&resilient), 0);
        assert_eq!(total_backoff(&resilient), 0.0);
        // Framing + acks make resilience strictly more expensive.
        assert!(resilient.t_parallel > plain.t_parallel);
    }

    #[test]
    fn cannon_resilient_is_exact_under_lossy_links() {
        let (a, b) = gen::random_pair(12, 33);
        let healthy = Machine::new(Topology::square_torus_for(9), CostModel::new(5.0, 0.5));
        let faulty = Machine::new(Topology::square_torus_for(9), CostModel::new(5.0, 0.5))
            .with_fault_plan(lossy_plan(7));
        let reference = cannon::cannon(&healthy, &a, &b).unwrap();
        let out = cannon_resilient(&faulty, &a, &b).unwrap();
        // Retransmitted payloads are bit-identical, so the product is
        // exactly the fault-free one — not merely approximately equal.
        assert_eq!(out.c, reference.c);
        // The recovery overhead must be visible in the accounting.
        assert!(
            total_retransmissions(&out) > 0,
            "lossy plan must force retries"
        );
        assert!(total_backoff(&out) > 0.0);
        let clean = cannon_resilient(&healthy, &a, &b).unwrap();
        assert!(
            out.t_parallel > clean.t_parallel,
            "faults must cost virtual time"
        );
        for s in &out.stats {
            assert!(s.backoff_idle <= s.idle, "backoff is a subset of idle");
        }
    }

    #[test]
    fn fox_resilient_healthy_matches_plain_product() {
        let (a, b) = gen::random_pair(8, 61);
        let machine = Machine::new(Topology::square_torus_for(16), CostModel::new(5.0, 0.5));
        let plain = fox::fox_tree(&machine, &a, &b).unwrap();
        let resilient = fox_resilient(&machine, &a, &b).unwrap();
        assert_eq!(plain.c, resilient.c);
        assert_eq!(total_retransmissions(&resilient), 0);
        assert_eq!(total_backoff(&resilient), 0.0);
        assert!(resilient.t_parallel > plain.t_parallel);
    }

    #[test]
    fn fox_resilient_is_exact_under_lossy_links() {
        let (a, b) = gen::random_pair(12, 63);
        let healthy = Machine::new(Topology::square_torus_for(9), CostModel::new(5.0, 0.5));
        let faulty = Machine::new(Topology::square_torus_for(9), CostModel::new(5.0, 0.5))
            .with_fault_plan(lossy_plan(17));
        let reference = fox::fox_tree(&healthy, &a, &b).unwrap();
        let out = fox_resilient(&faulty, &a, &b).unwrap();
        // Retransmitted payloads are bit-identical, so the product is
        // exactly the fault-free one — not merely approximately equal.
        assert_eq!(out.c, reference.c);
        assert!(
            total_retransmissions(&out) > 0,
            "lossy plan must force retries"
        );
        assert!(total_backoff(&out) > 0.0);
        let clean = fox_resilient(&healthy, &a, &b).unwrap();
        assert!(out.t_parallel > clean.t_parallel);
        for s in &out.stats {
            assert!(s.backoff_idle <= s.idle, "backoff is a subset of idle");
        }
    }

    #[test]
    fn fox_pipelined_resilient_healthy_matches_plain_product() {
        for packets in [1usize, 3, 4] {
            let (a, b) = gen::random_pair(8, 81);
            let machine = Machine::new(Topology::square_torus_for(16), CostModel::new(5.0, 0.5));
            let plain = fox::fox_pipelined(&machine, &a, &b, packets).unwrap();
            let resilient = fox_pipelined_resilient(&machine, &a, &b, packets).unwrap();
            assert_eq!(plain.c, resilient.c);
            assert_eq!(total_retransmissions(&resilient), 0);
            assert_eq!(total_backoff(&resilient), 0.0);
            assert!(resilient.t_parallel > plain.t_parallel);
        }
    }

    #[test]
    fn fox_pipelined_resilient_is_exact_under_lossy_links() {
        let (a, b) = gen::random_pair(12, 83);
        let healthy = Machine::new(Topology::square_torus_for(9), CostModel::new(5.0, 0.5));
        let faulty = Machine::new(Topology::square_torus_for(9), CostModel::new(5.0, 0.5))
            .with_fault_plan(lossy_plan(19));
        let reference = fox::fox_pipelined(&healthy, &a, &b, 4).unwrap();
        let out = fox_pipelined_resilient(&faulty, &a, &b, 4).unwrap();
        // Retransmitted packets are bit-identical, so the relayed block
        // — and the product — is exactly the fault-free one.
        assert_eq!(out.c, reference.c);
        assert!(
            total_retransmissions(&out) > 0,
            "lossy plan must force retries"
        );
        assert!(total_backoff(&out) > 0.0);
        let clean = fox_pipelined_resilient(&healthy, &a, &b, 4).unwrap();
        assert!(out.t_parallel > clean.t_parallel);
        for s in &out.stats {
            assert!(s.backoff_idle <= s.idle, "backoff is a subset of idle");
        }
    }

    #[test]
    fn fox_pipelined_resilient_packet_count_validated() {
        let (a, b) = gen::random_pair(4, 85);
        let machine = Machine::new(Topology::square_torus_for(4), CostModel::unit());
        assert!(fox_pipelined_resilient(&machine, &a, &b, 0).is_err());
        assert!(fox_pipelined_resilient(&machine, &a, &b, 5).is_err());
        assert!(fox_pipelined_resilient(&machine, &a, &b, 4).is_ok());
    }

    #[test]
    fn death_in_fox_pipelined_surfaces_as_structured_error() {
        let (a, b) = gen::random_pair(8, 87);
        let machine = Machine::new(Topology::square_torus_for(4), CostModel::unit())
            .with_fault_plan(FaultPlan::new(6).with_death(1, 40.0));
        let err = fox_pipelined_resilient(&machine, &a, &b, 2).unwrap_err();
        assert!(matches!(
            err,
            AlgoError::Sim(SimError::RankDied { rank: 1, .. })
                | AlgoError::Sim(SimError::Deadlock { .. })
        ));
    }

    #[test]
    fn fox_resilient_single_processor_degenerates() {
        let (a, b) = gen::random_pair(4, 65);
        let machine = Machine::new(Topology::square_torus_for(1), CostModel::unit());
        let out = fox_resilient(&machine, &a, &b).unwrap();
        assert_eq!(out.c, kernel::matmul(&a, &b));
    }

    #[test]
    fn death_in_fox_surfaces_as_structured_error() {
        let (a, b) = gen::random_pair(8, 67);
        let machine = Machine::new(Topology::square_torus_for(4), CostModel::unit())
            .with_fault_plan(FaultPlan::new(4).with_death(1, 40.0));
        let err = fox_resilient(&machine, &a, &b).unwrap_err();
        assert!(matches!(
            err,
            AlgoError::Sim(SimError::RankDied { rank: 1, .. })
                | AlgoError::Sim(SimError::Deadlock { .. })
        ));
    }

    #[test]
    fn gk_resilient_is_exact_under_lossy_links() {
        let (a, b) = gen::random_pair(8, 35);
        for topo in [Topology::hypercube_for(64), Topology::fully_connected(64)] {
            let healthy = Machine::new(topo.clone(), CostModel::new(5.0, 0.5));
            let faulty =
                Machine::new(topo, CostModel::new(5.0, 0.5)).with_fault_plan(lossy_plan(13));
            let reference = gk::gk(&healthy, &a, &b).unwrap();
            let out = gk_resilient(&faulty, &a, &b).unwrap();
            assert_eq!(out.c, reference.c);
            assert!(total_retransmissions(&out) > 0);
        }
    }

    #[test]
    fn gk_resilient_healthy_matches_plain_product() {
        let (a, b) = gen::random_pair(8, 37);
        let machine = Machine::new(Topology::hypercube_for(8), CostModel::unit());
        let plain = gk::gk(&machine, &a, &b).unwrap();
        let resilient = gk_resilient(&machine, &a, &b).unwrap();
        assert_eq!(plain.c, resilient.c);
        assert!(resilient.t_parallel > plain.t_parallel);
    }

    #[test]
    fn fail_stop_death_surfaces_as_structured_error() {
        let (a, b) = gen::random_pair(8, 39);
        let machine = Machine::new(Topology::square_torus_for(4), CostModel::unit())
            .with_fault_plan(FaultPlan::new(1).with_death(2, 50.0));
        match cannon_resilient(&machine, &a, &b) {
            Err(AlgoError::Sim(SimError::RankDied { rank, t })) => {
                assert_eq!(rank, 2);
                assert_eq!(t, 50.0);
            }
            other => panic!("expected RankDied, got {other:?}"),
        }
    }

    #[test]
    fn death_in_gk_surfaces_as_structured_error() {
        let (a, b) = gen::random_pair(4, 41);
        let machine = Machine::new(Topology::hypercube_for(8), CostModel::unit())
            .with_fault_plan(FaultPlan::new(2).with_death(3, 10.0));
        let err = gk_resilient(&machine, &a, &b).unwrap_err();
        assert!(matches!(
            err,
            AlgoError::Sim(SimError::RankDied { rank: 3, .. })
        ));
    }

    /// At `s = 1` GK bypasses its schedule, but still runs under
    /// `try_run`: the resilient name reports a death as a structured
    /// error …
    #[test]
    fn death_in_single_rank_gk_resilient_is_a_structured_error() {
        let (a, b) = gen::random_pair(4, 41);
        let machine = Machine::new(Topology::fully_connected(1), CostModel::unit())
            .with_fault_plan(FaultPlan::new(2).with_death(0, 10.0));
        assert!(matches!(
            gk_resilient(&machine, &a, &b),
            Err(AlgoError::Sim(SimError::RankDied { rank: 0, .. }))
        ));
    }

    /// … and so does the plain name: a transport is how messages move,
    /// not how a run fails.
    #[test]
    fn death_in_single_rank_plain_gk_is_a_structured_error() {
        let (a, b) = gen::random_pair(4, 41);
        let machine = Machine::new(Topology::fully_connected(1), CostModel::unit())
            .with_fault_plan(FaultPlan::new(2).with_death(0, 10.0));
        assert_eq!(
            gk::gk(&machine, &a, &b).unwrap_err(),
            AlgoError::Sim(SimError::RankDied { rank: 0, t: 10.0 })
        );
    }

    #[test]
    fn structural_errors_still_checked_first() {
        let (a, b) = gen::random_pair(8, 43);
        let machine = Machine::new(Topology::fully_connected(5), CostModel::unit());
        assert!(matches!(
            cannon_resilient(&machine, &a, &b),
            Err(AlgoError::BadProcessorCount { .. })
        ));
        assert!(matches!(
            gk_resilient(&machine, &a, &b),
            Err(AlgoError::BadProcessorCount { .. })
        ));
    }

    #[test]
    fn dns_resilient_healthy_matches_plain_product() {
        let (a, b) = gen::random_pair(4, 71);
        let machine = Machine::new(Topology::fully_connected(32), CostModel::new(3.0, 0.5));
        let plain = dns::dns_block(&machine, &a, &b).unwrap();
        let resilient = dns_resilient(&machine, &a, &b).unwrap();
        assert_eq!(
            plain.c, resilient.c,
            "healthy transport must not perturb the product"
        );
        assert_eq!(total_retransmissions(&resilient), 0);
        assert_eq!(total_backoff(&resilient), 0.0);
        // Framing + acks make resilience strictly more expensive.
        assert!(resilient.t_parallel > plain.t_parallel);
    }

    #[test]
    fn dns_resilient_is_exact_under_lossy_links() {
        let (a, b) = gen::random_pair(4, 73);
        for topo in [Topology::hypercube_for(64), Topology::fully_connected(64)] {
            let healthy = Machine::new(topo.clone(), CostModel::new(3.0, 0.5));
            let faulty =
                Machine::new(topo, CostModel::new(3.0, 0.5)).with_fault_plan(lossy_plan(29));
            let reference = dns::dns_block(&healthy, &a, &b).unwrap();
            let out = dns_resilient(&faulty, &a, &b).unwrap();
            // Retransmitted payloads are bit-identical, so the product
            // is exactly the fault-free one.
            assert_eq!(out.c, reference.c);
            assert!(total_retransmissions(&out) > 0, "lossy plan must retry");
        }
    }

    #[test]
    fn dns_resilient_structural_errors_checked_first() {
        let (a, b) = gen::random_pair(4, 75);
        let machine = Machine::new(Topology::fully_connected(20), CostModel::unit());
        assert!(matches!(
            dns_resilient(&machine, &a, &b),
            Err(AlgoError::BadProcessorCount { .. })
        ));
    }

    #[test]
    fn death_in_dns_surfaces_as_structured_error() {
        let (a, b) = gen::random_pair(4, 77);
        let machine = Machine::new(Topology::fully_connected(32), CostModel::unit())
            .with_fault_plan(FaultPlan::new(5).with_death(3, 10.0));
        let err = dns_resilient(&machine, &a, &b).unwrap_err();
        assert!(matches!(
            err,
            AlgoError::Sim(SimError::RankDied { rank: 3, .. })
        ));
    }

    /// Shared harness for the spare-failover acceptance scenario: run
    /// the algorithm healthy on a machine with one spare, then rerun
    /// with a fail-stop death scheduled mid-run.  The death must be
    /// masked (product bit-identical), priced (inflated `T_p`,
    /// `recovery_idle` on the promoted rank), and counted.
    fn assert_death_is_masked_by_spare<F>(algo: F, p_logical: usize, n: usize, victim: usize)
    where
        F: Fn(&Machine, &Matrix, &Matrix) -> Result<SimOutcome, AlgoError>,
    {
        let (a, b) = gen::random_pair(n, 79);
        let cost = CostModel::new(5.0, 0.5);
        let spared = Machine::new(Topology::fully_connected(p_logical + 1), cost).with_spares(1);
        assert_eq!(spared.p(), p_logical);
        let healthy = algo(&spared, &a, &b).unwrap();
        assert!(
            healthy.stats.iter().all(|s| s.checkpoint_words > 0),
            "spared run must replicate checkpoints on every rank"
        );

        let t_death = healthy.t_parallel * 0.5;
        let faulty = Machine::new(Topology::fully_connected(p_logical + 1), cost)
            .with_fault_plan(FaultPlan::new(11).with_death(victim, t_death))
            .with_spares(1);
        let out = algo(&faulty, &a, &b).unwrap();
        assert_eq!(
            out.c, healthy.c,
            "failover must reproduce the product bit-identically"
        );
        assert_eq!(
            out.stats.iter().map(|s| s.recoveries).sum::<u64>(),
            1,
            "exactly one promotion"
        );
        assert!(
            out.stats.iter().any(|s| s.recovery_idle > 0.0),
            "the promoted rank must carry the failover surcharge"
        );
        assert!(
            out.t_parallel > healthy.t_parallel,
            "recovery must inflate T_p ({} vs {})",
            out.t_parallel,
            healthy.t_parallel
        );
        for s in &out.stats {
            assert!(s.is_consistent(1e-9), "{s:?}");
        }

        // The same death with no spare budget degrades to the
        // structured legacy error.
        let bare = Machine::new(Topology::fully_connected(p_logical), cost)
            .with_fault_plan(FaultPlan::new(11).with_death(victim, t_death));
        assert!(matches!(
            algo(&bare, &a, &b),
            Err(AlgoError::Sim(
                SimError::RankDied { .. } | SimError::Deadlock { .. }
            ))
        ));
    }

    #[test]
    fn cannon_death_is_masked_by_spare() {
        assert_death_is_masked_by_spare(cannon_resilient, 16, 8, 1);
    }

    #[test]
    fn fox_death_is_masked_by_spare() {
        assert_death_is_masked_by_spare(fox_tree_resilient, 4, 8, 1);
    }

    #[test]
    fn fox_pipelined_death_is_masked_by_spare() {
        assert_death_is_masked_by_spare(|m, a, b| fox_pipelined_resilient(m, a, b, 3), 4, 8, 2);
    }

    #[test]
    fn gk_death_is_masked_by_spare() {
        assert_death_is_masked_by_spare(gk_resilient, 8, 8, 3);
    }

    #[test]
    fn dns_death_is_masked_by_spare() {
        assert_death_is_masked_by_spare(dns_resilient, 32, 4, 5);
    }

    #[test]
    fn simple_death_is_masked_by_spare() {
        assert_death_is_masked_by_spare(crate::simple::simple_on::<Reliable>, 9, 6, 4);
    }

    #[test]
    fn berntsen_death_is_masked_by_spare() {
        assert_death_is_masked_by_spare(crate::berntsen::berntsen_on::<Reliable>, 8, 8, 3);
    }

    #[test]
    fn gk_improved_death_is_masked_by_spare() {
        assert_death_is_masked_by_spare(gk::gk_improved_on::<Reliable>, 8, 8, 3);
    }
}
