//! Host-memory behaviour of repeated massive-p runs.  One test, in a
//! process of its own, so no other test's allocations move the reading.
//! Linux x86-64 only: the reading comes from `/proc`, and the claim is
//! about the fiber stack pool, which exists where fibers switch
//! natively.
#![cfg(all(target_os = "linux", target_arch = "x86_64"))]

use dense::gen;
use mmsim::{CostModel, EngineKind, Machine, Topology};

fn vm_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS in kB");
    kb / 1024.0
}

#[test]
fn repeated_cannon_at_4096_ranks_holds_rss_flat() {
    // The strong-scaling corner p = n²: 4096 fibers, each holding a
    // mesh view and a retained stack.  Run 1 faults the stacks in;
    // from run 2 on nothing may grow — no stack is freed and
    // re-reserved, and no rank tabulates the q² mesh.
    let n = 64usize;
    let p = n * n;
    let (a, b) = gen::random_pair(n, 1);
    let cost = CostModel::cm5();
    let machine = Machine::new(Topology::square_torus_for(p), cost).with_engine(EngineKind::Event);
    let expect = algos::cannon::predicted_time(n, p, cost.t_s, cost.t_w);
    let rss: Vec<f64> = (0..5)
        .map(|_| {
            let out = algos::cannon(&machine, &a, &b).expect("applicable");
            assert!((out.t_parallel - expect).abs() < 1e-6);
            vm_rss_mb()
        })
        .collect();
    assert!(
        (rss[4] - rss[1]).abs() <= 4.0,
        "RSS must stay flat after the second run: {rss:?} MB"
    );
    assert!(rss[4] < 128.0, "RSS {rss:?} MB");
}
