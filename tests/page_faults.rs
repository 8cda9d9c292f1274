//! Page faults of repeated large-block runs.  One test, in a process of
//! its own, so no other test's allocations move the reading.  Linux
//! x86-64 with glibc only: the reading comes from `/proc`, and the claim
//! is about the engine's glibc allocator settings.
#![cfg(all(target_os = "linux", target_env = "gnu", target_arch = "x86_64"))]

use dense::{gen, Matrix};
use mmsim::{CostModel, EngineKind, Machine, Topology};

/// Minor page faults of this process so far (`minflt`, the tenth field
/// of `/proc/self/stat`).
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // Count fields after the command name, which is parenthesised and
    // may itself hold spaces.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    after_comm
        .split_whitespace()
        .nth(7)
        .and_then(|v| v.parse().ok())
        .expect("minflt field")
}

type Entry = fn(&Machine, &Matrix, &Matrix) -> Result<algos::SimOutcome, algos::AlgoError>;

#[test]
fn repeated_large_block_passes_stop_faulting_their_heap() {
    // The ledger's kernel-bound points on the event engine, in a loop:
    // every run allocates and frees megabytes of blocks and messages of
    // several sizes.  Pass 1 faults them in.  With the freed heap kept
    // in the process, later passes fault almost nothing; without it,
    // glibc trims the heap after runs and every pass faults thousands
    // of pages again (Cannon at p = 4, n = 384 alone: ~860 per run).
    let points: [(Entry, usize, usize); 5] = [
        (algos::cannon, 16, 512),
        (algos::fox_tree, 16, 512),
        (algos::gk, 8, 384),
        (algos::simple, 16, 256),
        (algos::cannon, 4, 384),
    ];
    let points: Vec<_> = points
        .into_iter()
        .map(|(entry, p, n)| {
            let topology = if p == 8 {
                Topology::fully_connected(p)
            } else {
                Topology::square_torus_for(p)
            };
            let machine = Machine::new(topology, CostModel::cm5()).with_engine(EngineKind::Event);
            let (a, b) = gen::random_pair(n, p as u64);
            (entry, machine, a, b)
        })
        .collect();
    let faults: Vec<u64> = (0..5)
        .map(|_| {
            let before = minor_faults();
            for (entry, machine, a, b) in &points {
                let out = entry(machine, a, b).expect("applicable");
                drop(out);
            }
            minor_faults() - before
        })
        .collect();
    assert!(
        faults[4] * 10 < faults[0],
        "pass 5 must fault under 10 % as often as pass 1: {faults:?}"
    );
}
