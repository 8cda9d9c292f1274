//! Engine edge cases: degenerate payloads, extreme tags, machine reuse,
//! and mid-run stats snapshots.

use mmsim::engine::message::tag;
use mmsim::{CostModel, EngineKind, Machine, Ports, Topology};

#[test]
fn zero_word_messages_cost_only_startup() {
    let machine = Machine::new(Topology::fully_connected(2), CostModel::new(42.0, 3.0));
    let r = machine.run(|proc| {
        if proc.rank() == 0 {
            proc.send(1, 0, Vec::new());
        } else {
            let msg = proc.recv(0, 0);
            assert_eq!(msg.words(), 0);
            assert_eq!(msg.arrival, 42.0);
        }
    });
    assert_eq!(r.t_parallel, 42.0);
    assert_eq!(r.total_words(), 0);
    assert_eq!(r.total_messages(), 1);
}

#[test]
fn extreme_tag_values_match_correctly() {
    let machine = Machine::new(Topology::fully_connected(2), CostModel::unit());
    let r = machine.run(|proc| {
        if proc.rank() == 0 {
            proc.send(1, u64::MAX, vec![1.0]);
            proc.send(1, 0, vec![2.0]);
            proc.send(1, tag(u32::MAX, u32::MAX), vec![3.0]);
            0.0
        } else {
            // Receive out of order across the extremes.
            let c = proc.recv_payload(0, tag(u32::MAX, u32::MAX))[0];
            let a = proc.recv_payload(0, u64::MAX)[0];
            let b = proc.recv_payload(0, 0)[0];
            a * 100.0 + b * 10.0 + c
        }
    });
    // tag(u32::MAX, u32::MAX) == u64::MAX: messages 1 and 3 share the
    // tag, and same-(src, tag) messages match in send order — so the
    // first u64::MAX receive gets payload 1.0 (c), the second 3.0 (a).
    assert_eq!(r.results[1], 3.0 * 100.0 + 2.0 * 10.0 + 1.0);
}

#[test]
fn machine_is_reusable_across_runs() {
    let machine = Machine::new(Topology::hypercube_for(4), CostModel::unit());
    let t1 = machine.run(|proc| proc.compute(10.0)).t_parallel;
    let t2 = machine
        .run(|proc| {
            let partner = proc.rank() ^ 1;
            proc.exchange(partner, 0, vec![0.0; 4]);
        })
        .t_parallel;
    let t3 = machine.run(|proc| proc.compute(10.0)).t_parallel;
    assert_eq!(t1, 10.0);
    assert_eq!(t2, 5.0);
    assert_eq!(t3, t1, "state must not leak between runs");
}

#[test]
fn mid_run_stats_snapshot() {
    let machine = Machine::new(Topology::fully_connected(2), CostModel::new(5.0, 1.0));
    let r = machine.run(|proc| {
        proc.compute(7.0);
        let after_compute = proc.stats().compute;
        let partner = 1 - proc.rank();
        proc.send(partner, 0, vec![0.0; 3]);
        let after_send = proc.stats().comm;
        proc.recv(partner, 0);
        (after_compute, after_send)
    });
    for &(compute, comm) in &r.results {
        assert_eq!(compute, 7.0);
        assert_eq!(comm, 8.0); // t_s + 3 t_w
    }
}

#[test]
fn all_port_empty_and_single_batches() {
    let machine = Machine::new(
        Topology::fully_connected(3),
        CostModel::unit().with_ports(Ports::All),
    );
    let r = machine.run(|proc| {
        if proc.rank() == 0 {
            proc.send_multi(Vec::<(usize, mmsim::Tag, Vec<f64>)>::new()); // no-op
            proc.send_multi(vec![(1, 0, vec![1.0])]);
            proc.send_multi(vec![(1, 1, vec![1.0]), (2, 1, vec![1.0; 5])]);
        } else if proc.rank() == 1 {
            proc.recv(0, 0);
            proc.recv(0, 1);
        } else {
            proc.recv(0, 1);
        }
        proc.now()
    });
    // Rank 0: 0 + (1+1) + max(2, 6) = 8.
    assert_eq!(r.results[0], 8.0);
}

#[test]
fn now_reflects_virtual_not_host_time() {
    let machine = Machine::new(Topology::fully_connected(1), CostModel::unit());
    let r = machine.run(|proc| {
        assert_eq!(proc.now(), 0.0);
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(proc.now(), 0.0, "host time must not leak into virtual time");
        proc.compute(3.5);
        proc.now()
    });
    assert_eq!(r.results[0], 3.5);
}

#[test]
fn terminal_status_never_outraces_the_final_message() {
    // Regression for a TOCTOU in the receive path: a peer that sends
    // its last message and immediately terminates must never be seen
    // terminated by a receiver that has not yet seen the message, or
    // the receiver raises a spurious deadlock/dead-peer diagnosis.
    // Deliveries and status publications share the receiver's lock, so
    // the window is closed by construction; stress it anyway: the
    // sender's send→terminate gap is a few instructions, and the
    // stagger varies which part of the receiver's check/park cycle it
    // lands in.  The window exists only between host threads, so the
    // engine is pinned.
    let machine = Machine::new(Topology::fully_connected(2), CostModel::unit())
        .with_engine(EngineKind::Threaded);
    for round in 0..300u32 {
        let r = machine.run(move |proc| {
            if proc.rank() == 1 {
                if round % 3 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(u64::from(round) % 97));
                }
                proc.send(0, 9, vec![f64::from(round)]);
                0.0
            } else {
                proc.recv_payload(1, 9)[0]
            }
        });
        assert_eq!(r.results[0], f64::from(round));
    }
}

#[test]
fn large_payload_roundtrip_is_intact() {
    let machine = Machine::new(Topology::fully_connected(2), CostModel::unit());
    let payload: Vec<f64> = (0..100_000).map(|i| f64::from(i % 9973)).collect();
    let expected = payload.clone();
    let r = machine.run(move |proc| {
        if proc.rank() == 0 {
            proc.send(1, 0, payload.clone());
            true
        } else {
            proc.recv_payload(0, 0) == expected
        }
    });
    assert!(r.results[1]);
}

#[test]
fn cost_model_accessors_inside_run() {
    let cost = CostModel::ncube2().with_hop_latency(2.0);
    let machine = Machine::new(Topology::ring(4), cost);
    let r = machine.run(|proc| {
        (
            proc.cost_model().t_s,
            proc.topology().kind().to_string(),
            proc.topology().distance(0, 2),
        )
    });
    for (ts, kind, dist) in &r.results {
        assert_eq!(*ts, 150.0);
        assert_eq!(kind, "ring");
        assert_eq!(*dist, 2);
    }
}
