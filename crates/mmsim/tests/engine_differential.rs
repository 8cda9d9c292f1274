//! The engine differential: every observable of a run — product bits,
//! `T_p` bits, per-rank [`ProcStats`], structured [`SimError`]
//! diagnoses — must be identical between the thread-per-rank engine
//! and the event-driven engine at every overlapping `p`.
//!
//! Sweeps:
//!
//! * **Fault-free algorithms** at `p ∈ {4, 16, 64, 256}` over all six
//!   algorithm families (simple, Cannon, Fox×3, Berntsen, GK, DNS) on
//!   their native topologies, comparing bit-for-bit — at `p = 4` also
//!   with blocks large enough for the event side's kernel calls to split
//!   across helper threads.
//! * **Fault plans, spares, and detection** through the one dispatch,
//!   `parmm::run_on`, for every `Algorithm::ALL` id at its native
//!   geometry: the plain form on a healthy machine, then the reliable
//!   form under message drops with retransmission, payload corruption,
//!   fail-stop deaths with spare failover, and lossy heartbeat
//!   detection.
//! * **Diagnosis parity** on raw machines: cyclic deadlocks,
//!   starvation deadlocks, deaths without spares, unreceived-message
//!   accounting and a host-stalled rank must classify to equal
//!   [`SimError`] values.
//!
//! Both engines share one network (mailboxes, statuses, the deadlock
//! election); what differs is who runs the ranks.  So this suite checks
//! that network under free host interleaving (threaded ranks race on
//! real threads) against the event engine's fiber order.

use std::time::Duration;

use algos::common::{AlgoError, SimOutcome};
use dense::{gen, Matrix};
use mmsim::{
    CostModel, EngineKind, FaultPlan, Machine, Plain, Proc, Reliable, RunReport, SimError, Topology,
};
use model::Algorithm;
use parmm::{executable_applicability, run_on};

/// The standard sweep cost model (shared with the resilience matrix).
fn cost() -> CostModel {
    CostModel::new(5.0, 0.5)
}

/// Exact bit pattern of a matrix, for bit-identity (not `==`, which
/// would conflate `-0.0` with `0.0`).
fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Run `run` on the same machine under both engines and require every
/// observable to match exactly.
fn check_algo<F>(label: &str, machine: &Machine, run: F)
where
    F: Fn(&Machine) -> Result<SimOutcome, AlgoError>,
{
    let threaded = run(&machine.clone().with_engine(EngineKind::Threaded));
    let event = run(&machine.clone().with_engine(EngineKind::Event));
    match (threaded, event) {
        (Ok(t), Ok(e)) => {
            assert_eq!(bits(&t.c), bits(&e.c), "{label}: product bits diverge");
            assert_eq!(
                t.t_parallel.to_bits(),
                e.t_parallel.to_bits(),
                "{label}: T_p diverges (threaded {} vs event {})",
                t.t_parallel,
                e.t_parallel
            );
            assert_eq!(t.stats, e.stats, "{label}: per-rank ProcStats diverge");
            assert_eq!(t.p, e.p, "{label}: processor count diverges");
        }
        (Err(t), Err(e)) => {
            assert_eq!(t, e, "{label}: structured errors diverge");
        }
        (t, e) => {
            panic!("{label}: engines disagree on success:\n  threaded: {t:?}\n  event:    {e:?}")
        }
    }
}

/// Raw-machine differential: identical closure under both engines,
/// comparing `try_run` verbatim (results, `T_p` bits, stats, errors).
/// Returns the (equal) outcome.
fn check_raw<T, F>(label: &str, machine: &Machine, f: F) -> Result<RunReport<T>, SimError>
where
    T: Send + PartialEq + std::fmt::Debug,
    F: Fn(&mut Proc) -> T + Sync,
{
    let threaded = machine
        .clone()
        .with_engine(EngineKind::Threaded)
        .try_run(|p| f(p));
    let event = machine
        .clone()
        .with_engine(EngineKind::Event)
        .try_run(|p| f(p));
    match (&threaded, &event) {
        (Ok(t), Ok(e)) => {
            assert_eq!(t.results, e.results, "{label}: results diverge");
            assert_eq!(
                t.t_parallel.to_bits(),
                e.t_parallel.to_bits(),
                "{label}: T_p diverges"
            );
            assert_eq!(t.stats, e.stats, "{label}: ProcStats diverge");
        }
        (Err(t), Err(e)) => assert_eq!(t, e, "{label}: diagnoses diverge"),
        (t, e) => {
            panic!("{label}: engines disagree on success:\n  threaded: {t:?}\n  event:    {e:?}")
        }
    }
    threaded
}

/// One fault-free sweep point: every algorithm applicable at this `p`
/// on its native topology.
fn fault_free_point(p: usize, n: usize) {
    let (a, b) = gen::random_pair(n, 0xD1FF ^ p as u64);
    let mesh = Machine::new(Topology::square_torus_for(p), cost());
    let full = Machine::new(Topology::fully_connected(p), cost());

    check_algo(&format!("simple p={p}"), &full, |m| {
        algos::simple(m, &a, &b)
    });
    check_algo(&format!("cannon p={p}"), &mesh, |m| {
        algos::cannon(m, &a, &b)
    });
    check_algo(&format!("cannon_gray p={p}"), &mesh, |m| {
        algos::cannon_gray(m, &a, &b)
    });
    check_algo(&format!("fox_tree p={p}"), &mesh, |m| {
        algos::fox_tree(m, &a, &b)
    });
    check_algo(&format!("fox_async p={p}"), &mesh, |m| {
        algos::fox_async(m, &a, &b)
    });
    let block_words = (n / (p as f64).sqrt() as usize).pow(2);
    let packets = 2.min(block_words.max(1));
    check_algo(&format!("fox_pipelined p={p}"), &mesh, |m| {
        algos::fox_pipelined(m, &a, &b, packets)
    });
}

#[test]
fn fault_free_p4() {
    fault_free_point(4, 8);
}

/// 128³ blocks: above the dense kernel's split threshold, so the event
/// side (whose caller lends its idle cores) multiplies on helper threads
/// while the threaded side (whose rank threads never lend) does not.
#[test]
fn fault_free_p4_kernel_bound() {
    fault_free_point(4, 256);
}

#[test]
fn fault_free_p16() {
    fault_free_point(16, 8);
}

#[test]
fn fault_free_p64() {
    fault_free_point(64, 16);
}

#[test]
fn fault_free_p256() {
    fault_free_point(256, 16);
}

/// The cube-topology families, applicable where `p = 2^{3q}` (GK,
/// Berntsen) or `p = n²·r` (DNS).
#[test]
fn fault_free_cube_families() {
    // GK and Berntsen at p = 64 (s = 4), n = 16.
    let (a, b) = gen::random_pair(16, 0xBEEF);
    let cube = Machine::new(Topology::hypercube_for(64), cost());
    check_algo("gk p=64", &cube, |m| algos::gk(m, &a, &b));
    check_algo("gk_improved p=64", &cube, |m| algos::gk_improved(m, &a, &b));
    check_algo("berntsen p=64", &cube, |m| algos::berntsen(m, &a, &b));

    // DNS block variant: p = n² (r = 1) at every differential p.
    for (p, n) in [(4, 2), (16, 4), (64, 8), (256, 16)] {
        let (a, b) = gen::random_pair(n, 0xD05 ^ p as u64);
        let cube = Machine::new(Topology::hypercube_for(p), cost());
        check_algo(&format!("dns_block p={p}"), &cube, |m| {
            algos::dns_block(m, &a, &b)
        });
    }
    // The one-element variant saturates p = n³ concurrency.
    let (a, b) = gen::random_pair(4, 0xD06);
    let cube = Machine::new(Topology::hypercube_for(64), cost());
    check_algo("dns_one_element p=64", &cube, |m| {
        algos::dns_one_element(m, &a, &b)
    });
}

/// Build the resilient-sweep machine exactly like the resilience
/// matrix does: fully-connected fabric, `p + spares` ranks.
fn sweep_machine(p: usize, spares: usize, plan: FaultPlan) -> Machine {
    Machine::new(Topology::fully_connected(p + spares), cost())
        .with_fault_plan(plan)
        .with_spares(spares)
}

/// Fault-plan differential across every formulation at its native
/// geometry (and Simple and Fox at `p = 4`): the plain form on a healthy machine, then the reliable
/// form under drops (retransmission), corruption (checksums) and a
/// mid-run death absorbed by a spare under lossy heartbeat detection.
#[test]
fn faults_spares_and_detection() {
    // The resilience matrix's points: each formulation at the first
    // geometry its form accepts, plus Simple and Fox on a 2 × 2 mesh,
    // whose power-of-two groups take the hypercube collectives.
    let native = Algorithm::ALL.map(|alg| {
        let geometry = [(9, 6), (8, 8), (16, 4)]
            .into_iter()
            .find(|&(p, n)| executable_applicability(alg, n, p).is_ok())
            .unwrap_or_else(|| panic!("{alg}: no sweep geometry applies"));
        (alg, geometry)
    });
    let mesh_2x2 = [Algorithm::Simple, Algorithm::FoxHypercube].map(|alg| (alg, (4, 8)));
    for (alg, (p, n)) in native.into_iter().chain(mesh_2x2) {
        let name = format!("{} p={p}", alg.id());
        let (a, b) = gen::random_pair(n, 0xFA0 ^ p as u64);
        let entry = |m: &Machine| run_on::<Reliable>(alg, m, &a, &b);
        let healthy = Machine::new(Topology::fully_connected(p), cost());
        check_algo(&format!("{name} plain"), &healthy, |m| {
            run_on::<Plain>(alg, m, &a, &b)
        });
        // Lossy links: drops force retransmission, corruption forces
        // checksum rejection.
        let lossy = FaultPlan::new(0x5EED ^ p as u64)
            .with_drop_rate(0.1)
            .with_corrupt_rate(0.05);
        check_algo(&format!("{name} lossy"), &sweep_machine(p, 0, lossy), entry);
        // Fail-stop death absorbed by one spare, detected through
        // heartbeats that ride the same lossy links.
        let death = FaultPlan::new(0xDEAD ^ p as u64)
            .with_drop_rate(0.05)
            .with_death(p / 2, 60.0)
            .with_detection(25.0, 3);
        check_algo(
            &format!("{name} death+spare+detection"),
            &sweep_machine(p, 1, death),
            entry,
        );
        // Death with *no* spare budget: must fail with the same
        // structured error under both engines, never hang.
        let fatal = FaultPlan::new(0xFA7A ^ p as u64)
            .with_death(p / 2, 60.0)
            .with_detection(25.0, 3);
        check_algo(
            &format!("{name} unrecoverable death"),
            &sweep_machine(p, 0, fatal),
            entry,
        );
    }
}

/// Cyclic deadlock (every rank receives from its successor, nobody
/// sends): on both engines the last rank to park elects the lowest
/// parked rank, whose diagnosis is a termination that unwinds the rest
/// of the cycle — the `SimError` must be equal.
#[test]
fn cyclic_deadlock_diagnosis_is_equal() {
    for p in [4usize, 16] {
        let machine = Machine::new(Topology::fully_connected(p), cost());
        let err = check_raw(&format!("cycle p={p}"), &machine, |proc| {
            let from = (proc.rank() + 1) % proc.p();
            let _ = proc.recv(from, 7);
        })
        .unwrap_err();
        let waiters = (0..p).collect();
        assert_eq!(err, SimError::Deadlock { waiters });
    }
    // Two independent cycles, {0, 1} and {2, 3}, and a rank 4 that
    // returns at once.  The run is stuck only once rank 4 has announced
    // its termination, so the first election can come from the
    // termination path (always, on the event engine, which runs rank 4
    // last); the second cycle is elected from the termination of the
    // first.
    let machine = Machine::new(Topology::fully_connected(5), cost());
    let err = check_raw("two cycles p=5", &machine, |proc| {
        if proc.rank() != 4 {
            let _ = proc.recv(proc.rank() ^ 1, 7);
        }
    })
    .unwrap_err();
    assert_eq!(
        err,
        SimError::Deadlock {
            waiters: vec![0, 1, 2, 3]
        }
    );
}

/// Starvation deadlock: rank 0 exits immediately; everyone else waits
/// on it forever.  Rank 0's termination wakes every waiter on it into
/// the same terminal diagnosis on both engines.
#[test]
fn starvation_deadlock_diagnosis_is_equal() {
    for p in [4usize, 16] {
        let machine = Machine::new(Topology::fully_connected(p), cost());
        let err = check_raw(&format!("starve p={p}"), &machine, |proc| {
            if proc.rank() != 0 {
                let _ = proc.recv(0, 3);
            }
        })
        .unwrap_err();
        let waiters = (1..p).collect();
        assert_eq!(err, SimError::Deadlock { waiters });
    }
}

/// Fail-stop death without spares on a raw ring workload: both engines
/// must attribute the death (and its collateral waiters) identically.
#[test]
fn death_attribution_is_equal() {
    for p in [4usize, 16] {
        let machine = Machine::new(Topology::fully_connected(p), cost())
            .with_fault_plan(FaultPlan::new(9).with_death(1, 1.5));
        let _ = check_raw(&format!("death p={p}"), &machine, |proc| {
            let (rank, p) = (proc.rank(), proc.p());
            for round in 0..4u64 {
                proc.compute(1.0);
                proc.send((rank + 1) % p, round, vec![rank as f64]);
                let _ = proc.recv((rank + p - 1) % p, round);
            }
        });
    }
}

/// Unreceived-message accounting: the run-end mailbox count must agree
/// whichever order the host ran the ranks in.
#[test]
fn unreceived_accounting_is_equal() {
    let machine = Machine::new(Topology::fully_connected(4), cost());
    let report = check_raw("unreceived", &machine, |proc| {
        if proc.rank() == 0 {
            proc.send(1, 0, vec![1.0]);
            proc.send(1, 1, vec![2.0]);
            proc.send(1, 2, vec![3.0]);
        }
        if proc.rank() == 1 {
            // Take the middle tag only; two messages stay unreceived.
            proc.recv(0, 1).payload.into_vec()
        } else {
            Vec::new()
        }
    })
    .expect("healthy run");
    assert_eq!(report.stats[1].unreceived, 2);
}

/// A send that lands after its destination returned still counts as
/// unreceived, on both engines.  Rank 0 sleeps between its sends, so on
/// the threaded engine rank 1 has returned long before tag 2 arrives;
/// the event engine runs rank 0 to completion first.  Either way rank 1
/// leaves tags 0 and 2 unreceived.  The sleep does not make the test
/// pass (any interleaving must report 2); it makes an engine that counts
/// at the rank's own return fail instead of passing by luck.
#[test]
fn late_send_to_a_returned_rank_is_counted() {
    let machine = Machine::new(Topology::fully_connected(2), cost());
    for engine in [EngineKind::Threaded, EngineKind::Event] {
        let report = machine.clone().with_engine(engine).run(|proc| {
            if proc.rank() == 0 {
                proc.send(1, 0, vec![1.0]);
                proc.send(1, 1, vec![2.0]);
                std::thread::sleep(Duration::from_millis(20));
                proc.send(1, 2, vec![3.0]);
            } else {
                proc.recv(0, 1);
            }
        });
        assert_eq!(report.stats[1].unreceived, 2, "{engine:?}");
        assert_eq!(report.stats[0].unreceived, 0, "{engine:?}");
    }
}

/// The mirror ordering: the receiving rank 0 returns first on both
/// engines (the event engine runs it first, rank order), and rank 1's
/// send after a host sleep still counts against rank 0.
#[test]
fn send_after_the_destination_returned_is_counted() {
    let machine = Machine::new(Topology::fully_connected(2), cost());
    for engine in [EngineKind::Threaded, EngineKind::Event] {
        let report = machine.clone().with_engine(engine).run(|proc| {
            if proc.rank() == 1 {
                std::thread::sleep(Duration::from_millis(20));
                proc.send(0, 5, vec![1.0]);
            }
        });
        assert_eq!(report.stats[0].unreceived, 1, "{engine:?}");
    }
}

/// A host stall is not a deadlock.  On a ring, rank 0 sleeps 200 ms of
/// host time before its send while its peers are parked waiting on the
/// ring: every other rank is parked, but rank 0 is running, so nothing
/// is elected and the run completes.  Equal reports on both engines.
#[test]
fn host_stall_is_not_a_deadlock() {
    let machine = Machine::new(Topology::fully_connected(4), cost());
    let ring = |proc: &mut Proc| {
        let (rank, p) = (proc.rank(), proc.p());
        if rank == 0 {
            std::thread::sleep(Duration::from_millis(200));
        }
        proc.send((rank + 1) % p, 1, vec![rank as f64]);
        proc.recv_payload((rank + p - 1) % p, 1)[0]
    };
    let report = check_raw("host stall", &machine, ring)
        .unwrap_or_else(|e| panic!("a host stall became {e}"));
    assert_eq!(report.results, vec![3.0, 0.0, 1.0, 2.0]);
}
