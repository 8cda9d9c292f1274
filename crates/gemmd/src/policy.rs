//! Pluggable queue-ordering policies.
//!
//! A policy only *orders* the queue: it keys each waiting job once, when
//! it is enqueued, and the scheduler tries the lowest key next.
//! Placement itself (is a block of that size free?) stays in the
//! scheduler, and the head job blocks the queue until its partition
//! frees up — deterministic head-of-line semantics for every policy, so
//! two runs of the same trace schedule identically.

use std::collections::BTreeMap;

use crate::job::JobSpec;
use crate::sizing::Sizing;

/// A job waiting in the queue, with its (fixed) sizing decision.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Workload index of the job.
    pub id: usize,
    /// The job as submitted.
    pub spec: JobSpec,
    /// The right-sizer's verdict, made at admission and never revised.
    pub sizing: Sizing,
    /// Placements that already failed on a fail-stop loss (0 on first
    /// admission); bounded by the scheduler's retry budget.
    pub attempts: usize,
    /// Proactive evacuations this job has already performed (0 on
    /// first admission); bounded by the scheduler's retry budget so a
    /// persistently-degraded machine cannot migrate a job forever.
    pub migrations: usize,
    /// Virtual work time already checkpointed off an evacuated block:
    /// a migrated placement resumes from the transferred state, so
    /// this much of the fresh run is not re-executed.
    pub credit: f64,
    /// Times this job has been preempted mid-flight for a more urgent
    /// job (0 on first admission); bounded by the scheduler's retry
    /// budget so an unlucky job cannot be paused forever.
    pub preemptions: usize,
    /// Elastic resizes (grow or shrink) this job has undergone;
    /// bounded by the scheduler's retry budget.
    pub resizes: usize,
    /// Fraction of the job's work already completed at the last
    /// checkpoint, for resumes that change the partition size (elastic
    /// grow/shrink): time credit at the old `p` does not transfer, but
    /// the completed fraction does.  `0.0` means "use the time
    /// [`QueuedJob::credit`] instead" — same-size resumes (migration,
    /// preemption) keep the exact-subtraction path so their replay
    /// stays bit-identical to the pre-elastic scheduler.
    pub done: f64,
}

/// Queue-ordering policy: a key that orders the waiting jobs.
pub trait Policy {
    /// Stable name for reports.
    fn name(&self) -> &'static str;

    /// The job's key: lower keys are placed first, and equal keys break
    /// towards the lower job id.  `seq` numbers the run's enqueues (a
    /// requeued job gets a fresh one).  Called once per enqueue, and
    /// twice per victim a preemption probe weighs (the victim as seq 0,
    /// the waiting job as seq 1), so the key must depend only on `job`
    /// and `seq`.
    fn rank(&self, job: &QueuedJob, seq: u64) -> u64;
}

/// `x` as a `u64` whose unsigned order is exactly [`f64::total_cmp`]'s:
/// negative values (and −NaN) flip every bit, the rest only the sign.
#[must_use]
pub fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// A waiting job's place in the [`Queue`]: the policy's rank of the
/// job, then its id.
pub(crate) type Key = (u64, usize);

/// The waiting jobs under their [`Key`]s: the first entry is the job to
/// place next, and lookup, insertion and removal are `O(log q)`.
pub(crate) type Queue = BTreeMap<Key, QueuedJob>;

/// `job`'s [`Key`] under `policy` as the run's `seq`-th enqueue.
pub(crate) fn key(policy: &dyn Policy, job: &QueuedJob, seq: u64) -> Key {
    (policy.rank(job, seq), job.id)
}

/// First come, first served (queue order = enqueue order).
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl Policy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn rank(&self, _: &QueuedJob, seq: u64) -> u64 {
        seq
    }
}

/// Shortest predicted time first: the advisor's `T_p` estimate orders
/// the queue, so small jobs overtake large ones.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestPredictedTime;

impl Policy for ShortestPredictedTime {
    fn name(&self) -> &'static str {
        "spt"
    }

    fn rank(&self, job: &QueuedJob, _: u64) -> u64 {
        total_order_key(job.sizing.rec.predicted_time)
    }
}

/// Earliest deadline first (EDF): the job whose absolute deadline is
/// nearest runs next, which is the classic tail-latency discipline for
/// open-loop SLO traffic — small interactive jobs (near deadlines)
/// overtake batch work, but an old large job's deadline eventually
/// becomes the earliest, so nothing starves the way it does under
/// [`ShortestPredictedTime`].  Deadline-free jobs sort after every
/// deadlined one; ties break towards the lower id.
#[derive(Debug, Clone, Copy, Default)]
pub struct EarliestDeadlineFirst;

impl Policy for EarliestDeadlineFirst {
    fn name(&self) -> &'static str {
        "edf"
    }

    fn rank(&self, job: &QueuedJob, _: u64) -> u64 {
        total_order_key(job.spec.deadline.unwrap_or(f64::INFINITY))
    }
}

/// Look a built-in policy up by its stable [`Policy::name`] — the
/// dispatch the JSON front-end and the bench sweeps use.  `None` for
/// an unknown name.
#[must_use]
pub fn policy_by_name(name: &str) -> Option<Box<dyn Policy + Send + Sync>> {
    match name {
        "fifo" => Some(Box::new(Fifo)),
        "spt" => Some(Box::new(ShortestPredictedTime)),
        "priority" => Some(Box::new(PriorityFirst)),
        "edf" => Some(Box::new(EarliestDeadlineFirst)),
        _ => None,
    }
}

/// Highest priority first; ties fall back to the lower id.
#[derive(Debug, Clone, Copy, Default)]
pub struct PriorityFirst;

impl Policy for PriorityFirst {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn rank(&self, job: &QueuedJob, _: u64) -> u64 {
        u64::from(u8::MAX - job.spec.priority)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use model::MachineParams;
    use parmm::Advisor;
    use proptest::prelude::*;

    /// A [`Queue`] as `Scheduler::run` keeps it, enqueues numbered from 1.
    #[derive(Default)]
    struct Enqueued {
        jobs: Queue,
        seq: u64,
    }

    impl Enqueued {
        fn push(&mut self, policy: &dyn Policy, job: QueuedJob) {
            self.seq += 1;
            self.jobs.insert(key(policy, &job, self.seq), job);
        }
    }

    fn queued(id: usize, n: usize, priority: u8, p: usize) -> QueuedJob {
        let advisor = Advisor::new(MachineParams::ncube2());
        let rec = advisor.recommend_executable(n, p).unwrap();
        QueuedJob {
            id,
            spec: JobSpec {
                priority,
                ..JobSpec::new(n, 0.0)
            },
            sizing: Sizing { p, rec },
            attempts: 0,
            migrations: 0,
            credit: 0.0,
            preemptions: 0,
            resizes: 0,
            done: 0.0,
        }
    }

    /// The id `policy` places first out of `jobs`, enqueued in order.
    fn head_of(policy: &dyn Policy, jobs: Vec<QueuedJob>) -> Option<usize> {
        let mut q = Enqueued::default();
        for j in jobs {
            q.push(policy, j);
        }
        q.jobs.values().next().map(|j| j.id)
    }

    /// The per-event `O(q)` scans the keyed queue replaced: the index of
    /// the job to place next in an enqueue-ordered queue.
    fn oracle_select(policy: &str, queue: &[QueuedJob]) -> Option<usize> {
        let by = |key: &dyn Fn(&QueuedJob, &QueuedJob) -> std::cmp::Ordering| {
            queue
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| key(a, b).then(a.id.cmp(&b.id)))
                .map(|(i, _)| i)
        };
        match policy {
            "fifo" => (!queue.is_empty()).then_some(0),
            "spt" => by(&|a, b| {
                a.sizing
                    .rec
                    .predicted_time
                    .total_cmp(&b.sizing.rec.predicted_time)
            }),
            "edf" => by(&|a, b| {
                let da = a.spec.deadline.unwrap_or(f64::INFINITY);
                let db = b.spec.deadline.unwrap_or(f64::INFINITY);
                da.total_cmp(&db)
            }),
            "priority" => by(&|a, b| b.spec.priority.cmp(&a.spec.priority)),
            other => unreachable!("no policy {other}"),
        }
    }

    /// Values that tie, straddle zero and sort around the NaNs.
    const SPECIAL: [f64; 10] = [
        0.0,
        -0.0,
        f64::NAN,
        -f64::NAN,
        1.0,
        -1.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        2.5e6,
    ];

    #[test]
    fn fifo_takes_the_head() {
        let q = vec![queued(0, 32, 0, 16), queued(1, 8, 9, 4)];
        assert_eq!(head_of(&Fifo, q), Some(0));
        assert_eq!(head_of(&Fifo, vec![]), None);
    }

    #[test]
    fn spt_prefers_the_quick_job() {
        let q = vec![queued(0, 64, 0, 16), queued(1, 8, 0, 4)];
        assert_eq!(head_of(&ShortestPredictedTime, q), Some(1));
    }

    #[test]
    fn spt_breaks_ties_by_id() {
        let q = vec![queued(1, 16, 0, 4), queued(0, 16, 0, 4)];
        assert_eq!(head_of(&ShortestPredictedTime, q), Some(0));
    }

    #[test]
    fn priority_first_prefers_urgent_then_oldest() {
        let q = vec![queued(0, 32, 1, 16), queued(2, 8, 3, 4), queued(1, 8, 3, 4)];
        assert_eq!(head_of(&PriorityFirst, q), Some(1));
    }

    #[test]
    fn priority_first_orders_all_256_priorities() {
        let base = queued(0, 8, 0, 1);
        let jobs: Vec<QueuedJob> = (0..=255u8)
            .map(|priority| {
                let mut j = base.clone();
                j.id = usize::from(priority);
                j.spec.priority = priority;
                j
            })
            .collect();
        let mut q = Enqueued::default();
        for j in jobs {
            q.push(&PriorityFirst, j);
        }
        let order: Vec<usize> = q.jobs.values().map(|j| j.id).collect();
        assert_eq!(order, (0..=255).rev().collect::<Vec<usize>>());
    }

    #[test]
    fn edf_picks_the_nearest_deadline_and_parks_deadline_free_jobs_last() {
        let with_deadline = |id: usize, d: Option<f64>| {
            let mut q = queued(id, 16, 0, 4);
            q.spec.deadline = d;
            q
        };
        let edf = &EarliestDeadlineFirst;
        let q = vec![
            with_deadline(0, None),
            with_deadline(1, Some(9_000.0)),
            with_deadline(2, Some(2_000.0)),
        ];
        assert_eq!(head_of(edf, q), Some(2));
        // Only deadline-free jobs left: lowest id wins.
        let q = vec![with_deadline(5, None), with_deadline(3, None)];
        assert_eq!(head_of(edf, q), Some(3));
        assert_eq!(head_of(edf, vec![]), None);
        // Deadline ties break by id.
        let q = vec![with_deadline(7, Some(100.0)), with_deadline(4, Some(100.0))];
        assert_eq!(head_of(edf, q), Some(4));
    }

    #[test]
    fn rank_orders_floats_exactly_as_total_cmp() {
        let mut xs: Vec<f64> = SPECIAL.to_vec();
        xs.extend([f64::MAX, f64::MIN, -f64::MIN_POSITIVE, 5e-324, -5e-324]);
        let mut bits = detrng::SplitMix64::new(11);
        xs.extend((0..200).map(|_| f64::from_bits(bits.next_u64())));
        for &a in &xs {
            for &b in &xs {
                assert_eq!(
                    total_order_key(a).cmp(&total_order_key(b)),
                    a.total_cmp(&b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn policies_resolve_by_name() {
        for name in ["fifo", "spt", "priority", "edf"] {
            assert_eq!(policy_by_name(name).unwrap().name(), name);
        }
        assert!(policy_by_name("lifo").is_none());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Every built-in policy's keyed queue places jobs in the order
        /// the old per-event scans picked them, through arrivals, head
        /// placements, removals from the middle (sheds, batch members)
        /// and requeues (a FIFO requeue goes to the back).
        #[test]
        fn keyed_queue_heads_match_the_scans(
            ops in proptest::collection::vec((0u32..4, 0usize..10_000, 0usize..10, 0u32..256), 1..160)
        ) {
            let base = queued(0, 8, 0, 1);
            for name in ["fifo", "spt", "edf", "priority"] {
                let policy = policy_by_name(name).unwrap();
                let mut scanned: Vec<QueuedJob> = Vec::new();
                let mut keyed = Enqueued::default();
                let mut next_id = 0;
                for &(op, pick, value, priority) in &ops {
                    match op {
                        // Arrival: a tied, signed-zero or NaN key, a
                        // missing deadline, any of the 256 priorities.
                        0 | 1 => {
                            let mut j = base.clone();
                            j.id = next_id;
                            next_id += 1;
                            j.sizing.rec.predicted_time = SPECIAL[value];
                            j.spec.deadline = (value != 9).then_some(SPECIAL[value]);
                            j.spec.priority = priority as u8;
                            scanned.push(j.clone());
                            keyed.push(policy.as_ref(), j);
                        }
                        // Place the head, and requeue it on an odd pick.
                        2 => {
                            let want = oracle_select(name, &scanned).map(|i| scanned.remove(i));
                            let got = keyed.jobs.pop_first().map(|(_, j)| j);
                            prop_assert_eq!(want.as_ref().map(|j| j.id), got.as_ref().map(|j| j.id));
                            if let Some(j) = got.filter(|_| pick % 2 == 1) {
                                scanned.push(j.clone());
                                keyed.push(policy.as_ref(), j);
                            }
                        }
                        // Remove any job from the middle.
                        _ if !scanned.is_empty() => {
                            let id = scanned.remove(pick % scanned.len()).id;
                            keyed.jobs.retain(|_, j| j.id != id);
                        }
                        _ => {}
                    }
                    let want = oracle_select(name, &scanned).map(|i| scanned[i].id);
                    prop_assert_eq!(want, keyed.jobs.values().next().map(|j| j.id), "{}", name);
                    prop_assert_eq!(scanned.len(), keyed.jobs.len());
                }
            }
        }
    }
}
