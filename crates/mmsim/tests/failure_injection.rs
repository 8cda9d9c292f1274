//! Failure-injection tests: the engine must never hang — a panicking
//! virtual processor aborts the machine, and a provable deadlock (every
//! peer terminated while someone still waits) is diagnosed.

use mmsim::{CostModel, Machine, Topology};

fn machine(p: usize) -> Machine {
    Machine::new(Topology::fully_connected(p), CostModel::unit())
}

fn panics_with(f: impl FnOnce() + std::panic::UnwindSafe, needle: &str) {
    let err = std::panic::catch_unwind(f).expect_err("must panic");
    let msg = err
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains(needle),
        "panic message {msg:?} missing {needle:?}"
    );
}

#[test]
fn panicking_processor_aborts_blocked_peers() {
    // Rank 0 panics before sending; ranks 1..7 wait for it.  Without
    // poison propagation this would hang forever.
    panics_with(
        || {
            machine(8).run(|proc| {
                if proc.rank() == 0 {
                    panic!("injected failure");
                }
                proc.recv(0, 42);
            });
        },
        "injected failure",
    );
}

#[test]
fn original_panic_wins_over_cascaded_aborts() {
    panics_with(
        || {
            machine(4).run(|proc| {
                if proc.rank() == 2 {
                    panic!("root cause");
                }
                proc.recv(2, 0);
            });
        },
        "root cause",
    );
}

#[test]
fn true_deadlock_is_diagnosed() {
    // Everyone else exits normally; rank 3 waits for a message that no
    // one ever sends.  The engine must panic with a deadlock diagnosis,
    // not hang.
    panics_with(
        || {
            machine(4).run(|proc| {
                if proc.rank() == 3 {
                    proc.recv(0, 7);
                }
            });
        },
        "deadlock",
    );
}

#[test]
fn deadlock_message_names_the_waiting_rank() {
    panics_with(
        || {
            machine(3).run(|proc| {
                if proc.rank() == 1 {
                    proc.recv(2, 9);
                }
            });
        },
        "rank 1",
    );
}

#[test]
fn mutual_wait_on_wrong_tags_is_diagnosed() {
    // Both wait for a tag the other never uses: a classic tag bug.
    // Nobody terminates, so the Done-counting cannot fire; the
    // network's election diagnoses the live cycle once both are parked.
    panics_with(
        || {
            Machine::new(Topology::fully_connected(2), CostModel::unit()).run(|proc| {
                let other = 1 - proc.rank();
                proc.send(other, 1, vec![1.0]);
                proc.recv(other, 2); // wrong tag
            });
        },
        "deadlock",
    );
}

#[test]
fn healthy_runs_are_unaffected() {
    // The control signals must not disturb accounting.
    let r = machine(4).run(|proc| {
        let partner = proc.rank() ^ 1;
        proc.exchange(partner, 0, vec![1.0; 3]);
        proc.compute(5.0);
    });
    assert_eq!(r.t_parallel, 4.0 + 5.0);
    for s in &r.stats {
        assert!(s.is_consistent(1e-9));
        assert_eq!(s.unreceived, 0, "Done/Poison must not count as unreceived");
        assert_eq!(s.msgs_received, 1, "control signals are not app messages");
    }
}

#[test]
fn panic_in_single_processor_machine() {
    panics_with(
        || {
            machine(1).run(|_proc| panic!("solo failure"));
        },
        "solo failure",
    );
}
