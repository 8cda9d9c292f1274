//! Partition (rank-subset) execution: local views, physical timing,
//! solo-run equivalence on distance-regular embeddings, and fault-plan
//! interaction.

use mmsim::engine::message::tag;
use mmsim::{CostModel, FaultPlan, LinkFaults, Machine, Proc, SimError, Topology};

/// A workload exercising sends, receives, compute and idle accounting.
fn ring_workload(proc: &mut Proc) -> f64 {
    let p = proc.p();
    if p == 1 {
        proc.compute(3.0);
        return proc.rank() as f64;
    }
    let right = (proc.rank() + 1) % p;
    let left = (proc.rank() + p - 1) % p;
    proc.send(right, 3, vec![proc.rank() as f64; 10]);
    proc.compute(5.0);
    proc.recv_payload(left, 3)[0]
}

/// Recursive-doubling sum over a hypercube-shaped partition.
fn cube_sum(proc: &mut Proc) -> f64 {
    let dims = proc.p().trailing_zeros();
    let mut acc = proc.rank() as f64;
    for k in 0..dims {
        let partner = proc.rank() ^ (1 << k);
        let got = proc.exchange(partner, tag(1, k), vec![acc]);
        acc += got[0];
    }
    acc
}

#[test]
fn partition_presents_local_ranks_and_size() {
    let m = Machine::new(Topology::fully_connected(8), CostModel::unit());
    let part = m.partition(&[2, 5, 7]);
    assert_eq!(part.p(), 3);
    assert_eq!(part.partition_ranks(), &[2usize, 5, 7]);
    let r = part.run(|proc| {
        assert_eq!(proc.p(), 3);
        (proc.rank(), proc.physical_rank(proc.rank()))
    });
    assert_eq!(r.results, vec![(0, 2), (1, 5), (2, 7)]);
    assert_eq!(r.stats.len(), 3);
}

#[test]
fn aligned_subcube_is_bit_identical_to_solo_machine() {
    // Ranks [8, 12) of a 4-cube form a 2-subcube: pairwise Hamming
    // distances match the standalone 2-cube, so virtual time, stats and
    // results must agree bit for bit.
    let big = Machine::new(Topology::hypercube(4), CostModel::new(7.0, 0.5));
    let solo = Machine::new(Topology::hypercube(2), CostModel::new(7.0, 0.5));
    for workload in [ring_workload, cube_sum] {
        let on_part = big.partition(&[8, 9, 10, 11]).run(workload);
        let on_solo = solo.run(workload);
        assert_eq!(on_part.t_parallel.to_bits(), on_solo.t_parallel.to_bits());
        assert_eq!(on_part.results, on_solo.results);
        assert_eq!(on_part.stats, on_solo.stats);
    }
}

#[test]
fn full_topology_subset_is_bit_identical_to_solo_machine() {
    let big = Machine::new(Topology::fully_connected(10), CostModel::new(3.0, 2.0));
    let solo = Machine::new(Topology::fully_connected(4), CostModel::new(3.0, 2.0));
    let on_part = big.partition(&[1, 4, 6, 9]).run(ring_workload);
    let on_solo = solo.run(ring_workload);
    assert_eq!(on_part.t_parallel.to_bits(), on_solo.t_parallel.to_bits());
    assert_eq!(on_part.stats, on_solo.stats);
}

#[test]
fn misaligned_subset_pays_physical_distances() {
    // Ranks {0, 3} of a 2-cube are 2 hops apart; under store-and-forward
    // routing the partition must pay both hops, unlike a solo 2-machine.
    use mmsim::Routing;
    let cost = CostModel::new(1.0, 1.0).with_routing(Routing::StoreAndForward);
    let big = Machine::new(Topology::hypercube(2), cost);
    let r = big.partition(&[0, 3]).run(|proc| {
        if proc.rank() == 0 {
            proc.send(1, 0, vec![0.0; 4]);
            0.0
        } else {
            proc.recv(0, 0).arrival
        }
    });
    // (t_s + 4·t_w) · 2 hops = 10.
    assert_eq!(r.results[1], 10.0);
}

#[test]
fn disjoint_partitions_run_independently() {
    let m = Machine::new(Topology::hypercube(3), CostModel::unit());
    let lo = m.partition(&[0, 1, 2, 3]).run(cube_sum);
    let hi = m.partition(&[4, 5, 6, 7]).run(cube_sum);
    // Each half sums its own local ranks 0..4 = 6.
    assert!(lo.results.iter().all(|&x| x == 6.0));
    assert!(hi.results.iter().all(|&x| x == 6.0));
    assert_eq!(lo.t_parallel.to_bits(), hi.t_parallel.to_bits());
}

#[test]
fn nested_partitions_compose() {
    let m = Machine::new(Topology::fully_connected(8), CostModel::unit());
    let outer = m.partition(&[1, 3, 5, 7]);
    let inner = outer.partition(&[1, 3]); // physical ranks 3 and 7
    assert_eq!(inner.partition_ranks(), &[3usize, 7]);
    let r = inner.run(|proc| proc.physical_rank(proc.rank()));
    assert_eq!(r.results, vec![3, 7]);
}

#[test]
fn fault_plan_death_is_keyed_by_physical_rank() {
    // Physical rank 5 dies; in the partition [4, 5] it is local rank 1.
    let m = Machine::new(Topology::fully_connected(8), CostModel::unit())
        .with_fault_plan(FaultPlan::new(0).with_death(5, 10.0));
    let err = m
        .partition(&[4, 5])
        .try_run(|proc| proc.compute(100.0))
        .unwrap_err();
    assert_eq!(err, SimError::RankDied { rank: 1, t: 10.0 });
    // A partition avoiding rank 5 is unaffected.
    let ok = m.partition(&[0, 1]).try_run(|proc| proc.compute(100.0));
    assert!(ok.is_ok());
}

#[test]
fn per_link_fault_overrides_follow_physical_links() {
    // Cut only the physical 2→3 link; in the partition [2, 3] that is
    // the local 0→1 link.
    let cut = LinkFaults {
        drop: 1.0,
        corrupt: 0.0,
    };
    let plan = FaultPlan::new(0).with_link(2, 3, cut);
    let m = Machine::new(Topology::fully_connected(4), CostModel::unit()).with_fault_plan(plan);
    let send_one = |proc: &mut Proc| {
        if proc.rank() == 0 {
            proc.send(1, 0, vec![0.0; 4]);
        } else {
            proc.recv(0, 0);
        }
    };
    // The plain message is lost, so the receiver waits forever.
    let err = m.partition(&[2, 3]).try_run(send_one).unwrap_err();
    assert!(matches!(err, SimError::Deadlock { .. }), "{err:?}");
    // The same partition over healthy ranks costs the plain 5.
    let healthy = m.partition(&[0, 1]).run(send_one);
    assert_eq!(healthy.stats[0].comm, 5.0);
}

#[test]
fn reliable_transport_works_on_partitions() {
    let m = Machine::new(Topology::hypercube(3), CostModel::unit()).with_fault_plan(
        FaultPlan::new(77)
            .with_drop_rate(0.3)
            .with_corrupt_rate(0.15),
    );
    let r = m
        .partition(&[4, 5, 6, 7])
        .try_run(|proc| {
            if proc.rank() == 0 {
                for dst in 1..proc.p() {
                    proc.send_reliable(dst, 9, vec![dst as f64; 4]);
                }
                0.0
            } else {
                proc.recv_reliable(0, 9)[0]
            }
        })
        .expect("reliable transport must mask losses on partitions");
    assert_eq!(r.results, vec![0.0, 1.0, 2.0, 3.0]);
}

#[test]
#[should_panic(expected = "twice")]
fn duplicate_partition_rank_rejected() {
    let m = Machine::new(Topology::fully_connected(4), CostModel::unit());
    let _ = m.partition(&[1, 1]);
}

#[test]
#[should_panic(expected = "out of range")]
fn out_of_range_partition_rank_rejected() {
    let m = Machine::new(Topology::fully_connected(4), CostModel::unit());
    let _ = m.partition(&[0, 4]);
}

#[test]
#[should_panic(expected = "at least one rank")]
fn empty_partition_rejected() {
    let m = Machine::new(Topology::fully_connected(4), CostModel::unit());
    let _ = m.partition(&[]);
}
