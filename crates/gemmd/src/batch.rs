//! Small-GEMM batching: coalescing tiny same-shape jobs.
//!
//! At high utilisation a service drowning in tiny multiplies spends
//! more rank-time on *placement* (dispatch, staging, operand delivery —
//! [`crate::scheduler::Config::placement_overhead`]) than on the
//! multiplies themselves: a solo `n = 8` job pays the overhead for 512
//! useful operations.  The batcher coalesces up to [`Batching::limit`]
//! queued same-`n` single-rank jobs into **one** placement on a small
//! partition, running [`Batching::depth`] sub-jobs back-to-back per
//! rank.  The batch pays the placement overhead once where `k` solo
//! placements would pay it `k` times — lower effective load, shorter
//! queues, better fleet-wide p99 (the service bench pins this).
//!
//! Each sub-job keeps its own identity end to end: its own operands,
//! its own latency record (`queue_wait` includes the wait behind
//! sibling sub-jobs on the shared rank), and **bit-identical results**
//! by construction — a sub-job executes via the exact single-rank
//! simulator path an unbatched placement would use, just at a later
//! virtual start time (time never enters the arithmetic).
//!
//! Scope: batching is only attempted on a machine without a fault
//! plan — fail-stop recovery of a half-finished batch would need
//! per-sub-job requeue plumbing that solo placements get for free, so
//! a lossy machine simply falls back to solo placement everywhere.

use crate::policy::{Key, Queue, QueuedJob};

/// Batching configuration (see the module docs for the economics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Batching {
    /// Most sub-jobs one batch may coalesce (at least 2).
    pub limit: usize,
    /// Only jobs with `n ≤ max_n` are coalesced — batching exists for
    /// the tiny end of a heavy-tailed mix.
    pub max_n: usize,
    /// Sub-jobs queued back-to-back per rank: a batch of `k` members
    /// runs on `⌈k / depth⌉` ranks (rounded up to the buddy power of
    /// two).  Depth 1 gives every member its own rank (pure fan-out);
    /// larger depths trade each member's start delay for a smaller
    /// partition.
    pub depth: usize,
}

impl Default for Batching {
    fn default() -> Self {
        Self {
            limit: 16,
            max_n: 16,
            depth: 4,
        }
    }
}

impl Batching {
    /// Whether a queued job may ride in a batch: sized to a single
    /// rank, small enough, and on its first placement (requeued or
    /// migrated jobs keep their solo bookkeeping).
    #[must_use]
    pub fn admits(&self, job: &QueuedJob) -> bool {
        job.sizing.p == 1 && job.spec.n <= self.max_n && job.attempts == 0 && job.migrations == 0
    }

    /// Buddy block size for a batch of `k` members: `⌈k / depth⌉`
    /// ranks, rounded up to a power of two.
    #[must_use]
    pub fn block_for(&self, k: usize) -> usize {
        k.div_ceil(self.depth.max(1)).next_power_of_two()
    }

    /// Keys of the batch the queue's head (the policy's pick)
    /// would anchor: every admitted job of the same `n` (the anchor
    /// included), in job-id order, capped at [`Batching::limit`].  `None`
    /// when the queue is empty, the anchor itself is not batchable or
    /// no sibling is queued — a batch of one is just a solo placement
    /// with extra bookkeeping.  One scan of the queue.
    #[must_use]
    pub(crate) fn gather(&self, queue: &Queue) -> Option<Vec<Key>> {
        let (&key, anchor) = queue.first_key_value()?;
        if !self.admits(anchor) {
            return None;
        }
        let mut members: Vec<Key> = queue
            .iter()
            .filter(|(_, j)| j.spec.n == anchor.spec.n && self.admits(j))
            .map(|(&k, _)| k)
            .collect();
        members.sort_unstable_by_key(|&(_, id)| id);
        let pos = members.iter().position(|&k| k == key);
        if pos.expect("the anchor is its own sibling") >= self.limit {
            // The anchor must ride its own batch (head-of-line
            // semantics): keep the first limit−1 siblings and it.
            members.truncate(self.limit - 1);
            members.push(key);
        }
        members.truncate(self.limit.max(2));
        (members.len() >= 2).then_some(members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use crate::policy::{key, Fifo};
    use crate::sizing::Sizing;
    use model::MachineParams;
    use parmm::Advisor;

    fn queued(id: usize, n: usize, p: usize) -> QueuedJob {
        let advisor = Advisor::new(MachineParams::ncube2());
        let rec = advisor.recommend_executable(n, p).unwrap();
        QueuedJob {
            id,
            spec: JobSpec::new(n, 0.0),
            sizing: Sizing { p, rec },
            attempts: 0,
            migrations: 0,
            credit: 0.0,
            preemptions: 0,
            resizes: 0,
            done: 0.0,
        }
    }

    #[test]
    fn block_rounds_member_count_up_to_buddy_sizes() {
        let b = Batching {
            depth: 4,
            ..Batching::default()
        };
        assert_eq!(b.block_for(1), 1);
        assert_eq!(b.block_for(4), 1);
        assert_eq!(b.block_for(5), 2);
        assert_eq!(b.block_for(9), 4, "⌈9/4⌉ = 3 rounds to 4");
        assert_eq!(b.block_for(16), 4);
        let fanout = Batching {
            depth: 1,
            ..Batching::default()
        };
        assert_eq!(fanout.block_for(5), 8);
    }

    #[test]
    fn admission_requires_first_placement_single_rank_small_jobs() {
        let b = Batching::default();
        assert!(b.admits(&queued(0, 8, 1)));
        assert!(b.admits(&queued(0, 16, 1)));
        assert!(!b.admits(&queued(0, 32, 1)), "n above max_n");
        assert!(!b.admits(&queued(0, 16, 4)), "multi-rank sizing");
        let mut retried = queued(0, 8, 1);
        retried.attempts = 1;
        assert!(!b.admits(&retried), "requeued jobs stay solo");
        let mut migrated = queued(0, 8, 1);
        migrated.migrations = 1;
        assert!(!b.admits(&migrated), "migrated jobs stay solo");
    }

    /// A queue holding `jobs` in the given order (FIFO keys).
    fn fifo(jobs: impl IntoIterator<Item = QueuedJob>) -> Queue {
        (1..)
            .zip(jobs)
            .map(|(seq, j)| (key(&Fifo, &j, seq), j))
            .collect()
    }

    /// The job ids of a gathered batch.
    fn ids(members: Option<Vec<Key>>) -> Option<Vec<usize>> {
        members.map(|m| m.into_iter().map(|(_, id)| id).collect())
    }

    #[test]
    fn gather_collects_same_shape_siblings_in_id_order() {
        let b = Batching::default();
        // Queue order ≠ id order on purpose.
        let queue = fifo([
            queued(3, 8, 1),
            queued(1, 8, 1),
            queued(2, 16, 1), // different shape: excluded
            queued(0, 8, 1),
            queued(4, 8, 4), // multi-rank: excluded
        ]);
        assert_eq!(ids(b.gather(&queue)), Some(vec![0, 1, 3]));
    }

    #[test]
    fn gather_declines_solo_and_unbatchable_anchors() {
        let b = Batching::default();
        assert_eq!(b.gather(&fifo([])), None, "empty queue");
        let small_first = fifo([queued(0, 8, 1), queued(1, 32, 1)]);
        assert_eq!(b.gather(&small_first), None, "no sibling to pair with");
        let large_first = fifo([queued(1, 32, 1), queued(0, 8, 1), queued(2, 8, 1)]);
        assert_eq!(b.gather(&large_first), None, "anchor too large");
    }

    #[test]
    fn gather_caps_at_the_limit_but_keeps_the_anchor() {
        let b = Batching {
            limit: 3,
            ..Batching::default()
        };
        let queue = fifo((0..6).map(|id| queued(id, 8, 1)));
        assert_eq!(ids(b.gather(&queue)), Some(vec![0, 1, 2]));
        // Anchor id 5 sits past the cap: it displaces the last sibling.
        let queue = fifo([5, 0, 1, 2, 3, 4].map(|id| queued(id, 8, 1)));
        assert_eq!(ids(b.gather(&queue)), Some(vec![0, 1, 5]));
    }
}
