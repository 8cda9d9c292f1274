//! Spare-rank failover: recovered runs complete with bit-identical
//! results, replay byte-identically, price recovery in virtual time,
//! and degrade to the spare-less diagnosis when the budget runs out.

use mmsim::{Checkpoint, CostModel, FaultPlan, Machine, Proc, RunReport, SimError, Topology};
use proptest::prelude::*;

/// A checkpointed ring workload: `steps` rounds of (compute, shift right
/// over the reliable transport, checkpoint the accumulated state every
/// `ckpt_every` steps).  Deterministic per (p, steps); every rank
/// returns its accumulator.
fn ring_with_interval(proc: &mut Proc, steps: u32, ckpt_every: u32) -> Vec<f64> {
    let p = proc.p();
    let right = (proc.rank() + 1) % p;
    let left = (proc.rank() + p - 1) % p;
    let mut ckpt = Checkpoint::new(0xC0DE);
    let mut state = vec![proc.rank() as f64; 4];
    for s in 0..steps {
        proc.compute(10.0);
        if p > 1 {
            proc.send_reliable(right, mmsim::tag(1, s), state.clone());
            let got = proc.recv_reliable(left, mmsim::tag(1, s));
            for (acc, g) in state.iter_mut().zip(got.iter()) {
                *acc += g;
            }
        }
        if (s + 1) % ckpt_every == 0 {
            ckpt.save(proc, state.clone());
        }
    }
    state
}

fn checkpointed_ring(proc: &mut Proc, steps: u32) -> Vec<f64> {
    ring_with_interval(proc, steps, 1)
}

fn machine(p_logical: usize, spares: usize, plan: FaultPlan) -> Machine {
    Machine::new(
        Topology::fully_connected(p_logical + spares),
        CostModel::new(10.0, 2.0),
    )
    .with_fault_plan(plan)
    .with_spares(spares)
}

fn run_ring(m: &Machine, steps: u32) -> Result<RunReport<Vec<f64>>, SimError> {
    m.try_run(move |proc| checkpointed_ring(proc, steps))
}

#[test]
fn one_death_one_spare_completes_bit_identically() {
    let p = 4;
    // Rank 1 dies mid-run (each step costs ≥ 10 compute, so t = 35 lands
    // inside step 3's compute phase).
    let faulty = machine(p, 1, FaultPlan::new(7).with_death(1, 35.0));
    let healthy = machine(p, 1, FaultPlan::new(7));
    let recovered = run_ring(&faulty, 6).expect("one spare must mask one death");
    let reference = run_ring(&healthy, 6).expect("healthy run");

    // Product bit-identical to the fault-free run.
    assert_eq!(recovered.results, reference.results);
    // Exactly one promotion, charged to the recovered slot.
    assert_eq!(recovered.stats[1].recoveries, 1);
    assert!(recovered.stats[1].recovery_idle > 0.0);
    assert!(recovered.stats[1].recovery_idle <= recovered.stats[1].idle + 1e-9);
    for (rank, s) in recovered.stats.iter().enumerate() {
        assert!(s.is_consistent(1e-9), "rank {rank}: {s:?}");
        assert!(s.checkpoint_words > 0, "spared runs replicate state");
        if rank != 1 {
            assert_eq!(s.recoveries, 0);
        }
    }
    // Recovery is not free: T_p inflates over the fault-free run.
    assert!(
        recovered.t_parallel > reference.t_parallel,
        "{} vs {}",
        recovered.t_parallel,
        reference.t_parallel
    );
}

#[test]
fn recovery_cost_shrinks_with_denser_checkpoints() {
    // Same 12-step run, same death — a rank that checkpoints every step
    // loses a shorter replay segment than one that never managed a
    // checkpoint before dying, so its surcharge is strictly smaller.
    let surcharge = |ckpt_every: u32| {
        let m = machine(4, 1, FaultPlan::new(3).with_death(2, 300.0));
        m.try_run(move |proc| ring_with_interval(proc, 12, ckpt_every))
            .expect("recoverable")
            .stats[2]
            .recovery_idle
    };
    let dense = surcharge(1);
    let sparse = surcharge(12); // only checkpoints after the final step
    assert!(dense > 0.0);
    assert!(dense < sparse, "dense {dense} vs sparse {sparse}");
    // The never-checkpointed rank replays from scratch: its surcharge
    // is the whole lost segment, the death time itself.
    assert_eq!(sparse, 300.0);
}

#[test]
fn spares_exhausted_degrades_to_rank_died() {
    // Two deaths, one spare: the first failover succeeds, the second
    // attempt's death exceeds the remaining budget and surfaces exactly
    // as the spare-less error.
    let plan = FaultPlan::new(5).with_death(1, 35.0).with_death(2, 47.0);
    let spared = machine(4, 1, plan.clone());
    let bare = machine(4, 0, plan);
    let err = run_ring(&spared, 6).expect_err("budget of 1 cannot mask 2 deaths");
    let bare_err = run_ring(&bare, 6).expect_err("no spares masks nothing");
    assert!(matches!(err, SimError::RankDied { .. }), "{err:?}");
    assert!(
        matches!(bare_err, SimError::RankDied { .. }),
        "{bare_err:?}"
    );
}

#[test]
fn doomed_spare_fails_over_again() {
    // The promoted spare (physical rank 4) has its own death scheduled;
    // a second spare (physical rank 5) must absorb it.
    let plan = FaultPlan::new(11).with_death(1, 35.0).with_death(4, 20.0);
    let m = machine(4, 2, plan);
    let healthy = machine(4, 2, FaultPlan::new(11));
    let r = run_ring(&m, 6).expect("two spares mask a death chain");
    let reference = run_ring(&healthy, 6).expect("healthy");
    assert_eq!(r.results, reference.results);
    assert_eq!(r.stats[1].recoveries, 2, "slot 1 was re-bound twice");
}

#[test]
fn death_of_buddy_holding_only_checkpoint_escalates() {
    // Ranks 1 and 2 die in the *same attempt* — both deaths land inside
    // the compute window of step 2, after every rank completed its
    // first checkpoint.  Rank 2 is rank 1's buddy, so rank 1's only
    // replica dies with it even though two spares are available.
    let healthy = machine(4, 2, FaultPlan::new(13));
    let one_step = run_ring(&healthy, 1).expect("healthy").t_parallel;
    let t_death = one_step + 5.0; // mid-compute of step 2 on every rank
    let plan = FaultPlan::new(13)
        .with_death(1, t_death)
        .with_death(2, t_death);
    let m = machine(4, 2, plan);
    let err = run_ring(&m, 6).expect_err("buddy death destroys the only checkpoint");
    assert_eq!(
        err,
        SimError::RankDied {
            rank: 1,
            t: t_death
        }
    );
}

#[test]
fn simultaneous_non_buddy_deaths_recover() {
    // Ranks 0 and 2 die together; their buddies (1 and 3) survive, so
    // two spares cover both promotions.
    let plan = FaultPlan::new(17).with_death(0, 35.0).with_death(2, 47.0);
    let m = machine(4, 2, plan);
    let healthy = machine(4, 2, FaultPlan::new(17));
    let r = run_ring(&m, 6).expect("disjoint buddies, budget suffices");
    assert_eq!(r.results, run_ring(&healthy, 6).expect("healthy").results);
    assert_eq!(r.stats[0].recoveries, 1);
    assert_eq!(r.stats[2].recoveries, 1);
}

#[test]
fn death_after_final_step_costs_nothing() {
    // The closure finishes before any clock advance crosses the death
    // instant, so no recovery fires and no spare is consumed: the run
    // is bit-identical to one under a healthy plan.
    let healthy = machine(4, 1, FaultPlan::new(19));
    let reference = run_ring(&healthy, 3).expect("healthy");
    let late = machine(
        4,
        1,
        FaultPlan::new(19).with_death(1, reference.t_parallel + 1.0),
    );
    let r = run_ring(&late, 3).expect("death never fires");
    assert_eq!(r.t_parallel.to_bits(), reference.t_parallel.to_bits());
    assert_eq!(r.stats, reference.stats);
    assert_eq!(r.results, reference.results);
}

#[test]
fn death_during_checkpoint_send_replays_from_previous_record() {
    // Pin the death inside the checkpoint exchange itself: the victim's
    // previous record stands, and recovery replays from it rather than
    // from a half-written one.  Locate the exchange window from the
    // healthy run's per-step timing.
    let healthy = machine(4, 1, FaultPlan::new(23));
    let one_step = run_ring(&healthy, 1).expect("healthy").t_parallel;
    let two_steps = run_ring(&healthy, 2).expect("healthy").t_parallel;
    // Kill rank 3 a hair before the end of step 2 — inside its second
    // checkpoint traffic, after its second compute.
    let t_death = two_steps - 1e-6;
    assert!(t_death > one_step);
    let m = machine(4, 1, FaultPlan::new(23).with_death(3, t_death));
    let r = run_ring(&m, 2).expect("one spare masks the mid-checkpoint death");
    assert_eq!(r.results, run_ring(&healthy, 2).expect("healthy").results);
    assert_eq!(r.stats[3].recoveries, 1);
    // Replay runs from the *first* checkpoint (t ≈ one_step), not from
    // zero and not from the unfinished second exchange.
    let replay = r.stats[3].recovery_idle;
    assert!(replay >= t_death - one_step, "replay {replay} too short");
    assert!(
        replay < t_death,
        "replay {replay} should skip the first step"
    );
}

#[test]
fn detection_is_strictly_opt_in() {
    // Without a Detection config the priced layer must not exist: no
    // heartbeat words, no latency, and the recovery pricing of the
    // oracle model stays bit-identical (pinned by comparing against the
    // same plan with detection: the *only* shifts are the detection
    // charges themselves).
    let plan = FaultPlan::new(7).with_death(1, 35.0);
    let oracle = run_ring(&machine(4, 1, plan.clone()), 6).expect("recoverable");
    for s in &oracle.stats {
        assert_eq!(s.heartbeat_words, 0);
        assert_eq!(s.detection_latency, 0.0);
    }

    let priced = run_ring(&machine(4, 1, plan.with_detection(50.0, 3)), 6).expect("recoverable");
    // Numerics untouched; the death/checkpoint schedule is the same.
    assert_eq!(priced.results, oracle.results);
    // The recovered slot waits exactly timeout_multiple × period before
    // its failover starts, on top of the oracle surcharge.
    assert_eq!(priced.stats[1].detection_latency, 150.0);
    assert_eq!(
        priced.stats[1].recovery_idle.to_bits(),
        (oracle.stats[1].recovery_idle + 150.0).to_bits()
    );
    assert!(priced.stats[1].detection_latency <= priced.stats[1].recovery_idle);
    // Every rank pays heartbeat bandwidth, counted inside words_sent.
    for (s, o) in priced.stats.iter().zip(&oracle.stats) {
        assert!(s.heartbeat_words > 0);
        assert!(s.words_sent > o.words_sent);
        assert!(s.is_consistent(1e-9), "{s:?}");
    }
    assert!(priced.t_parallel > oracle.t_parallel);
}

#[test]
fn detection_latency_is_monotone_in_heartbeat_period() {
    // A slower heartbeat is cheaper in bandwidth but slower to notice a
    // death: latency grows with the period, heartbeat traffic shrinks.
    let run = |period: f64| {
        run_ring(
            &machine(
                4,
                1,
                FaultPlan::new(7)
                    .with_death(1, 35.0)
                    .with_detection(period, 3),
            ),
            6,
        )
        .expect("recoverable")
    };
    let (fast, mid, slow) = (run(10.0), run(50.0), run(200.0));
    let lat = |r: &RunReport<Vec<f64>>| r.stats[1].detection_latency;
    assert!(lat(&fast) < lat(&mid));
    assert!(lat(&mid) < lat(&slow));
    let beats = |r: &RunReport<Vec<f64>>| r.stats[0].heartbeat_words;
    assert!(beats(&fast) > beats(&mid));
    assert!(beats(&mid) >= beats(&slow));
}

#[test]
fn heartbeats_are_charged_even_without_deaths() {
    // Detection is a standing cost, not a per-failure one: a healthy
    // run under a detection config still pays the heartbeat traffic.
    let plain = run_ring(&machine(4, 1, FaultPlan::new(31)), 6).expect("healthy");
    let priced = run_ring(
        &machine(4, 1, FaultPlan::new(31).with_detection(40.0, 2)),
        6,
    )
    .expect("healthy");
    assert_eq!(priced.results, plain.results);
    for (s, o) in priced.stats.iter().zip(&plain.stats) {
        assert!(s.heartbeat_words > 0);
        assert_eq!(s.detection_latency, 0.0, "no death, no latency");
        assert_eq!(s.recoveries, 0);
        assert!(s.clock > o.clock);
        assert!(s.is_consistent(1e-9), "{s:?}");
    }
    assert!(priced.t_parallel > plain.t_parallel);
}

#[test]
fn lossy_heartbeats_trigger_spurious_failover() {
    // Heartbeats ride the plan's faulted links: at a 0.5 drop rate with
    // a tight period and timeout multiple 2, some watcher inevitably
    // misses two beats in a row on a *live* rank and promotes a spare
    // for nothing.  The waste is charged and reconciled, never hidden.
    let plan = FaultPlan::new(41)
        .with_drop_rate(0.5)
        .with_detection(5.0, 2);
    let r = run_ring(&machine(4, 1, plan.clone()), 6).expect("no deaths, recoverable");
    let false_positives: u64 = r.stats.iter().map(|s| s.false_positives).sum();
    assert!(
        false_positives > 0,
        "0.5-lossy heartbeats must eventually streak"
    );
    for s in &r.stats {
        assert!(s.is_consistent(1e-9), "{s:?}");
        // The false-positive charge is a slice of recovery_idle, which
        // stays a slice of idle; true-positive latency stays disjoint.
        assert!(s.detection_latency + s.wasted_promotion_idle <= s.recovery_idle + 1e-9);
        assert!(s.recovery_idle <= s.idle + 1e-9);
        assert_eq!(
            s.false_positives > 0,
            s.wasted_promotion_idle > 0.0,
            "every spurious failover costs time: {s:?}"
        );
        // The spare was demoted, not kept: no real promotion happened.
        assert_eq!(s.recoveries, 0);
    }
    // The product is untouched and the whole thing replays byte-exactly.
    let again = run_ring(&machine(4, 1, plan.clone()), 6).expect("replay");
    assert_eq!(r.t_parallel.to_bits(), again.t_parallel.to_bits());
    assert_eq!(r.stats, again.stats);
    assert_eq!(
        r.results,
        run_ring(&machine(4, 1, FaultPlan::new(41).with_drop_rate(0.5)), 6)
            .expect("same plan, no detection")
            .results
    );

    // Without a spare to waste there is no spurious failover to price:
    // the suspicion cannot be acted on.
    let bare = run_ring(&machine(4, 0, plan), 6).expect("no spares, no deaths");
    for s in &bare.stats {
        assert_eq!(s.false_positives, 0);
        assert_eq!(s.wasted_promotion_idle, 0.0);
    }
}

#[test]
fn perfect_heartbeat_links_never_lie() {
    // Healthy links deliver every beat, so a detection config alone —
    // even with spares provisioned — never produces a false positive:
    // exactly the PR-5 perfect-detector behaviour.
    let r =
        run_ring(&machine(4, 1, FaultPlan::new(43).with_detection(5.0, 2)), 6).expect("healthy");
    for s in &r.stats {
        assert_eq!(s.false_positives, 0);
        assert_eq!(s.wasted_promotion_idle, 0.0);
        assert!(s.heartbeat_words > 0);
    }
}

#[test]
fn per_link_detection_tightens_failover_at_higher_beat_cost() {
    // A with_link_detection override on the dying rank's monitor link
    // shortens its detection latency (timeout_multiple × the tighter
    // period) and raises its heartbeat bill; everyone else's stays on
    // the base period.
    let base = FaultPlan::new(7)
        .with_death(1, 35.0)
        .with_detection(50.0, 3);
    let tight = base.clone().with_link_detection(1, 10.0);
    let slow = run_ring(&machine(4, 1, base), 6).expect("recoverable");
    let fast = run_ring(&machine(4, 1, tight), 6).expect("recoverable");
    assert_eq!(slow.stats[1].detection_latency, 150.0);
    assert_eq!(fast.stats[1].detection_latency, 30.0);
    // The override keys on the *physical* rank: a live rank under the
    // tighter period pays proportionally more heartbeat bandwidth.
    // (After the failover above, slot 1 is backed by the spare — which
    // beats at the base period — so measure the bill on a healthy run.)
    let healthy = run_ring(
        &machine(
            4,
            1,
            FaultPlan::new(7)
                .with_detection(50.0, 3)
                .with_link_detection(1, 10.0),
        ),
        6,
    )
    .expect("healthy");
    assert!(healthy.stats[1].heartbeat_words > 4 * healthy.stats[0].heartbeat_words);
    // Ranks off the overridden link keep the base duty cycle (their
    // clocks shift with the faster failover, so compare beat *rates*).
    for rank in [0, 2] {
        let rate =
            |r: &RunReport<Vec<f64>>| r.stats[rank].heartbeat_words as f64 / r.stats[rank].clock;
        assert!((rate(&fast) - rate(&slow)).abs() < 1e-3);
    }
    assert_eq!(fast.results, slow.results);
    // Faster detection means a cheaper recovery overall.
    assert!(fast.stats[1].recovery_idle < slow.stats[1].recovery_idle);
}

#[test]
fn spurious_and_real_failovers_coexist() {
    // A real death and lossy heartbeats in one run: the true positive
    // promotes a spare for good, the false positives borrow and return
    // one, and the accounting keeps the two disjoint.
    let plan = FaultPlan::new(47)
        .with_drop_rate(0.5)
        .with_death(1, 35.0)
        .with_detection(5.0, 2);
    let r = run_ring(&machine(4, 2, plan.clone()), 6).expect("budget covers the death");
    assert_eq!(r.stats[1].recoveries, 1);
    assert!(r.stats[1].detection_latency > 0.0);
    let false_positives: u64 = r.stats.iter().map(|s| s.false_positives).sum();
    assert!(false_positives > 0, "lossy beats must streak somewhere");
    for s in &r.stats {
        assert!(s.is_consistent(1e-9), "{s:?}");
        assert!(s.detection_latency + s.wasted_promotion_idle <= s.recovery_idle + 1e-9);
    }
    // Byte-identical replay, bit-identical product.
    let again = run_ring(&machine(4, 2, plan), 6).expect("replay");
    assert_eq!(r.t_parallel.to_bits(), again.t_parallel.to_bits());
    assert_eq!(r.stats, again.stats);
}

#[test]
fn run_and_try_run_share_the_failover_path() {
    // The panic entry point recovers too — and when it cannot, its
    // message format is the pinned historical one.
    let plan = FaultPlan::new(29).with_death(1, 35.0);
    let m = machine(4, 1, plan.clone());
    let r = m.run(|proc| checkpointed_ring(proc, 6));
    assert_eq!(r.stats[1].recoveries, 1);

    // Without spares the same death must panic through run() with the
    // pinned historical format (a compute-only workload keeps the dying
    // rank's own payload as the first non-abort failure).
    let bare = machine(4, 0, plan);
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        bare.run(|proc| proc.compute(100.0));
    }))
    .expect_err("no spares: the death must panic through run()");
    let msg = caught.downcast_ref::<String>().cloned().unwrap_or_default();
    assert!(msg.contains("virtual processor"), "{msg}");
    assert!(msg.contains("fail-stop"), "{msg}");
    assert!(msg.contains("virtual time 35"), "{msg}");
}

#[test]
fn builder_order_does_not_matter() {
    // A partition of a 16-rank hypercube with two spares, built with the
    // fault plan attached before and after partitioning: both views must
    // name the same ranks and run one closure to the same bits, or to the
    // same diagnosis.  The plans cover a masked death on a lossy link, a
    // doomed spare, a buddy dying with the only checkpoint, and lossy
    // heartbeats under priced detection.
    let ranks: Vec<usize> = (8..16).collect();
    let plans = [
        FaultPlan::new(5).with_drop_rate(0.1).with_death(9, 35.0),
        FaultPlan::new(6).with_death(9, 35.0).with_death(14, 80.0),
        FaultPlan::new(7).with_death(9, 200.0).with_death(10, 200.0),
        FaultPlan::new(8)
            .with_drop_rate(0.3)
            .with_detection(40.0, 2)
            .with_death(12, 60.0),
    ];
    let base = Machine::new(Topology::hypercube(4), CostModel::new(10.0, 2.0));
    for plan in plans {
        let late = base
            .partition(&ranks)
            .with_fault_plan(plan.clone())
            .with_spares(2);
        let early = base
            .clone()
            .with_fault_plan(plan.clone())
            .partition(&ranks)
            .with_spares(2);
        assert_eq!(late.partition_ranks(), early.partition_ranks());
        assert_eq!(late.partition_ranks(), &ranks[..6]);
        assert_eq!(late.spares(), early.spares());
        assert_eq!(late.spares(), &[14, 15]);
        match (run_ring(&late, 6), run_ring(&early, 6)) {
            (Ok(a), Ok(b)) => {
                assert_eq!(a.t_parallel.to_bits(), b.t_parallel.to_bits(), "{plan:?}");
                assert_eq!(format!("{:?}", a.stats), format!("{:?}", b.stats));
                assert_eq!(format!("{:?}", a.results), format!("{:?}", b.results));
            }
            (Err(a), Err(b)) => assert_eq!(a, b, "{plan:?}"),
            (a, b) => panic!(
                "{plan:?}: builder order changed the outcome ({:?} vs {:?})",
                a.map(|r| r.t_parallel),
                b.map(|r| r.t_parallel)
            ),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Failover is a pure function of (seed, death schedule, spare
    /// count): replays are byte-identical in `T_p`, per-rank stats
    /// (including retransmissions, backoff and recovery accounting) and
    /// results.
    #[test]
    fn failover_replays_byte_identically(
        seed in 0u64..1_000_000,
        p in 2usize..6,
        spares in 1usize..3,
        victim in 0usize..6,
        t_death in 20.0f64..400.0,
        drop in 0.0f64..0.2,
    ) {
        let victim = victim % p;
        let plan = FaultPlan::new(seed)
            .with_drop_rate(drop)
            .with_death(victim, t_death);
        let run = || run_ring(&machine(p, spares, plan.clone()), 4);
        let (r1, r2) = (run(), run());
        match (r1, r2) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(a.t_parallel.to_bits(), b.t_parallel.to_bits());
                prop_assert_eq!(&a.stats, &b.stats);
                prop_assert_eq!(&a.results, &b.results);
                // And the masked product matches the fault-free one.
                let clean = run_ring(
                    &machine(p, spares, FaultPlan::new(seed).with_drop_rate(drop)),
                    4,
                ).expect("recoverable plan");
                prop_assert_eq!(&a.results, &clean.results);
                for s in &a.stats {
                    prop_assert!(s.is_consistent(1e-9));
                }
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "replay diverged: {a:?} vs {b:?}"),
        }
    }

    /// With zero spares, a death surfaces as exactly the historical
    /// structured error — never a hang, never a panic from try_run.
    #[test]
    fn exhausted_budget_is_exactly_the_legacy_error(
        seed in 0u64..1_000_000,
        p in 2usize..6,
        victim in 0usize..6,
        t_death in 5.0f64..200.0,
    ) {
        let victim = victim % p;
        let plan = FaultPlan::new(seed).with_death(victim, t_death);
        let bare = Machine::new(Topology::fully_connected(p), CostModel::new(10.0, 2.0))
            .with_fault_plan(plan);
        match run_ring(&bare, 4) {
            Ok(r) => {
                // The death landed after the rank finished: legal, free.
                prop_assert!(r.stats.iter().all(|s| s.recoveries == 0));
            }
            Err(e) => prop_assert_eq!(e, SimError::RankDied { rank: victim, t: t_death }),
        }
    }
}
