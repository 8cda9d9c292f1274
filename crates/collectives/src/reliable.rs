//! The collectives that have a fault-tolerant form.  Each is the *same
//! schedule* as its plain counterpart in [`crate::ops`] — one generic
//! function, same tree, same tags, same root contract — instantiated
//! over [`mmsim::Reliable`]: every hop is checksummed and retransmitted,
//! so it completes under any recoverable [`mmsim::FaultPlan`] (no
//! fail-stop).  The protocol overhead (two framing words per message, a
//! 1-word acknowledgement per hop, backoff on faulty links) is charged
//! in virtual time and visible in [`mmsim::ProcStats::backoff_idle`] /
//! `retransmissions`; on a healthy machine only the framing and
//! acknowledgement charges remain.

use mmsim::{Payload, Proc, Reliable, Word};

use crate::group::Group;
use crate::ops::{barrier_on, broadcast_on, reduce_sum_on};

/// [`crate::broadcast`] with reliable hops.
///
/// # Panics
/// Panics if the root/non-root `data` contract is violated.
pub fn broadcast_reliable<P: Into<Payload>>(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    root_idx: usize,
    data: Option<P>,
) -> Payload {
    broadcast_on::<Reliable, P>(proc, group, phase, root_idx, data)
}

/// [`crate::barrier`] with reliable hops: fences a group (a partitioned
/// multi-tenant run's phases) even when links drop or corrupt messages.
pub fn barrier_reliable(proc: &mut Proc, group: &Group, phase: u32) {
    barrier_on::<Reliable>(proc, group, phase);
}

/// [`crate::reduce_sum`] with reliable hops (`Some` only at the root).
///
/// # Panics
/// Panics on contribution length mismatches.
pub fn reduce_sum_reliable(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    root_idx: usize,
    contribution: Vec<Word>,
) -> Option<Vec<Word>> {
    reduce_sum_on::<Reliable>(proc, group, phase, root_idx, contribution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsim::{CostModel, FaultPlan, Machine, Topology};

    fn lossy_plan(seed: u64) -> FaultPlan {
        FaultPlan::new(seed)
            .with_drop_rate(0.3)
            .with_corrupt_rate(0.15)
    }

    #[test]
    fn broadcast_reliable_matches_plain_when_healthy() {
        let machine = Machine::new(Topology::hypercube_for(8), CostModel::unit());
        let plain = machine.run(|proc| {
            let group = Group::world(proc);
            let data = (proc.rank() == 0).then(|| vec![1.0, 2.0]);
            crate::broadcast(proc, &group, 0, 0, data)
        });
        let reliable = machine.run(|proc| {
            let group = Group::world(proc);
            let data = (proc.rank() == 0).then(|| vec![1.0, 2.0]);
            broadcast_reliable(proc, &group, 0, 0, data)
        });
        assert_eq!(plain.results, reliable.results);
        // Fault-free: zero retries, zero backoff — only framing and the
        // 1-word acks distinguish the cost profiles.
        assert_eq!(reliable.total_retransmissions(), 0);
        assert_eq!(reliable.total_backoff_idle(), 0.0);
        assert!(reliable.t_parallel > plain.t_parallel);
    }

    #[test]
    fn broadcast_reliable_survives_lossy_links() {
        let machine = Machine::new(Topology::hypercube_for(16), CostModel::unit())
            .with_fault_plan(lossy_plan(21));
        let r = machine
            .try_run(|proc| {
                let group = Group::world(proc);
                let data = (proc.rank() == 0).then(|| vec![3.0; 32]);
                broadcast_reliable(proc, &group, 0, 0, data)
            })
            .expect("reliable broadcast under recoverable faults");
        assert!(r.results.iter().all(|got| got == &vec![3.0; 32]));
        assert!(
            r.total_retransmissions() > 0,
            "lossy plan must force retries"
        );
    }

    #[test]
    fn reduce_reliable_sums_exactly_under_faults() {
        let machine = Machine::new(Topology::hypercube_for(8), CostModel::unit())
            .with_fault_plan(lossy_plan(5));
        let r = machine
            .try_run(|proc| {
                let group = Group::world(proc);
                let mine = vec![proc.rank() as f64, 1.0];
                reduce_sum_reliable(proc, &group, 0, 0, mine)
            })
            .expect("reliable reduce under recoverable faults");
        // Retransmitted payloads are bit-identical, so the sum is exactly
        // what the fault-free tree produces.
        assert_eq!(r.results[0], Some(vec![28.0, 8.0]));
        assert!(r.results[1..].iter().all(Option::is_none));
    }

    #[test]
    fn barrier_reliable_synchronises_under_faults() {
        let machine = Machine::new(Topology::hypercube_for(8), CostModel::unit())
            .with_fault_plan(lossy_plan(13));
        let r = machine
            .try_run(|proc| {
                let group = Group::world(proc);
                // Stagger the ranks; after the barrier everyone must have
                // passed everyone else's pre-barrier point.
                proc.compute(proc.rank() as f64 * 3.0);
                let before = proc.now();
                barrier_reliable(proc, &group, 0);
                (before, proc.now())
            })
            .expect("reliable barrier under recoverable faults");
        let slowest_entry = r
            .results
            .iter()
            .map(|&(before, _)| before)
            .fold(0.0, f64::max);
        for &(_, after) in &r.results {
            assert!(
                after >= slowest_entry,
                "barrier exit {after} precedes the slowest entry {slowest_entry}"
            );
        }
        assert!(
            r.total_retransmissions() > 0,
            "lossy plan must force retries"
        );
    }
}
