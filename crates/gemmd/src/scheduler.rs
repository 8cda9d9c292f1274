//! The deterministic event-driven service loop.
//!
//! Virtual time advances from event to event: job arrivals (from the
//! workload trace) and job completions (at `start + T_p`, with `T_p`
//! taken from the simulator's run of the job on its partition).  At
//! every event the scheduler first retires due completions — released
//! partitions merge back in the buddy pool — then admits due arrivals
//! (subject to the queue cap), then repeatedly places the queue's head
//! (the lowest policy key) if a block of its size is free.  A head that
//! does not fit blocks the queue (head-of-line semantics), so the
//! schedule is a pure function of the trace.
//!
//! Completions are processed before arrivals at equal times, and equal
//! completion times break towards the lower job id — the tie rules
//! that make two runs of one trace byte-identical.

use std::cmp::Reverse;
use std::collections::BTreeMap;

use algos::{AlgoError, SimOutcome};
use mmsim::{Machine, StateTransfer};
use parmm::{run_recommendation, Advisor, Recommendation};

use crate::job::{JobRecord, JobSpec};
use crate::partition::{Partition, PartitionManager};
use crate::policy::{key, total_order_key, Key, Policy, Queue, QueuedJob};
use crate::report::{ServiceReport, ShedRecord};
use crate::sizing::{right_size, Sizing, SizingMode};
use crate::GemmdError;

/// How many times a job may be re-placed after a setback before the
/// service gives up on it: a job lost to a fail-stop death beyond its
/// spare budget is re-submitted onto a fresh partition at most this
/// many times before the run fails with [`GemmdError::Execution`], and
/// the same cap bounds each job's proactive migrations, preemptions and
/// elastic resizes.
pub const RETRY_BUDGET: usize = 2;

/// Service configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Config {
    /// How partitions are sized (default: isoefficiency at `E ≥ 0.5`).
    pub sizing: SizingMode,
    /// Admission control: arrivals that find this many jobs already
    /// queued are rejected (backpressure), not enqueued.
    pub queue_cap: usize,
    /// Verify every product against the serial kernel (costs an
    /// `O(n³)` host-side multiply per job; meant for tests).
    pub verify: bool,
    /// Spare ranks provisioned alongside each job's compute partition
    /// (the buddy block is rounded up to fit them), so fail-stop
    /// deaths inside a run are absorbed by
    /// [`mmsim::Machine::with_spares`] failover instead of killing the
    /// placement.  0 (the default) provisions none; a job whose
    /// rounded-up block would not fit the machine runs without spares.
    pub spares: usize,
    /// Proactive live migration: when a partition's own heartbeat
    /// stream shows this many *consecutive* lost beats — a sustained
    /// degradation alarm — the scheduler evacuates the job onto a
    /// fresh block via a buddy-checkpoint transfer instead of waiting
    /// for the degradation to become a death.  0 (the default)
    /// disables migration; the threshold should sit *below* the fault
    /// plan's `timeout_multiple`, or the detector declares the rank
    /// dead before the mover acts.  Migrations per job are capped by
    /// [`RETRY_BUDGET`], so a machine that is degraded
    /// everywhere cannot bounce a job forever.
    pub migration_streak: u32,
    /// Fixed dispatch cost charged at every placement (partition
    /// setup, operand staging): the partition is held from the
    /// placement instant but computation starts `placement_overhead`
    /// later, and the delay counts into the job's `queue_wait`.  For a
    /// tiny GEMM this can dwarf the multiply itself — which is exactly
    /// what [`crate::batch`] coalescing amortises: a batch pays it
    /// once where `k` solo placements pay it `k` times.  0 (the
    /// default) keeps the historical behaviour.
    pub placement_overhead: f64,
    /// Small-GEMM batching (see [`crate::batch::Batching`]); `None`
    /// (the default) places every job solo.  Ignored on a machine with
    /// a fault plan — recovery of a half-finished batch is out of
    /// scope, so lossy machines fall back to solo placement.
    pub batching: Option<crate::batch::Batching>,
    /// Preemptive gang rescheduling: when the policy's selected job
    /// cannot be placed, the scheduler may checkpoint the running jobs
    /// inside one aligned block — provided the waiting job strictly
    /// outranks every victim under the same policy — pay each victim's
    /// pause surcharge (`t_s + t_w·3n²/p`), free the block, and resume
    /// the victims later with elapsed-time credit.  Preemptions per
    /// job are capped by [`RETRY_BUDGET`].  Off by default; a
    /// FIFO service never preempts even when this is on (nothing
    /// outranks the queue head).
    pub preemption: bool,
    /// Elastic repartitioning: a running job whose buddy block frees
    /// may grow into it (checkpoint → re-place on `2p` → resume) when
    /// the queue is starved and the advisor predicts a win at or above
    /// the sizing target; conversely a queued job may be shrunk onto
    /// the largest free block at admission time instead of shedding
    /// the arrival.  Resizes per job are capped by
    /// [`RETRY_BUDGET`].  Off by default.
    pub elastic: bool,
    /// Policy-aware load shedding: an arrival that finds the queue at
    /// [`Config::queue_cap`] sheds the lowest-value candidate — lowest
    /// priority first, then latest deadline, then youngest — from the
    /// queue-plus-arrival set, as a structured
    /// [`crate::report::ShedRecord`] (visible in the report and its
    /// CSV).  Off by default: the historical behaviour silently
    /// bounces the arrival into [`ServiceReport::rejected`].
    pub shed: bool,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            sizing: SizingMode::default_iso(),
            queue_cap: 64,
            verify: false,
            spares: 0,
            migration_streak: 0,
            placement_overhead: 0.0,
            batching: None,
            preemption: false,
            elastic: false,
            shed: false,
        }
    }
}

/// The GEMM service: a machine, an advisor modelling it, and a config.
#[derive(Debug, Clone)]
pub struct Scheduler<'m> {
    machine: &'m Machine,
    advisor: Advisor,
    config: Config,
}

/// One placement in flight: either it completes and retires as a
/// record, or a fail-stop death beyond the spare budget lost it and
/// the partition goes to quarantine while the job is re-queued.
struct Running {
    finish: f64,
    id: usize,
    partition: Partition,
    outcome: Outcome,
    /// Resume state for pausable placements (solo completions only):
    /// enough to checkpoint the job mid-flight — for preemption or an
    /// elastic resize — and requeue it.  `None` for batches and for
    /// placements already headed for a loss or migration.
    pause: Option<PauseState>,
}

/// What a mid-flight pause needs to reconstruct the job.
struct PauseState {
    /// The job exactly as placed (credit/done as of this placement).
    job: QueuedJob,
    /// The simulator's full fresh `T_p` on this partition.
    raw: f64,
    /// The resume surcharge charged at the head of this run (0 for a
    /// first placement); no new work completes while it is paid, so
    /// pause-time progress accounting must skip it.
    surcharge: f64,
}

enum Outcome {
    Completed(JobRecord),
    /// A coalesced small-GEMM batch: every member's record, retired
    /// together when the batch's partition frees (the slowest rank
    /// finishes); members keep their individual `start`/`finish`
    /// stamps, so the final report interleaves them correctly.
    Batch(Vec<JobRecord>),
    /// Fail-stop loss: the closure's dead rank and the virtual death
    /// time within the run (the partition is occupied until
    /// `start + t_death`).
    Lost {
        job: QueuedJob,
        rank: usize,
        t: f64,
    },
    /// Proactive evacuation: the partition's missed-heartbeat streak
    /// crossed [`Config::migration_streak`] at virtual time `t` within
    /// the run, so the job checkpoints off the degrading block (which
    /// is occupied until `start + t`) and resumes elsewhere.
    Migrated {
        job: QueuedJob,
        t: f64,
    },
    /// Mid-flight preemption: the job checkpointed its progress so a
    /// more urgent job can take the block, which stays held until the
    /// drain (`finish = pause instant + pause cost`) completes; the
    /// job then requeues carrying its credit.
    Preempted {
        job: QueuedJob,
    },
    /// Elastic resize: the job checkpointed off this block to re-place
    /// on its doubled partition; the block is held until the drain
    /// completes, then releases and merges with its free buddy.
    Resized {
        job: QueuedJob,
    },
}

impl Outcome {
    /// A pause whose block is still draining: at most one is in flight.
    fn draining(&self) -> bool {
        matches!(self, Outcome::Preempted { .. } | Outcome::Resized { .. })
    }
}

impl<'m> Scheduler<'m> {
    /// A service over `machine`, with the advisor derived from the
    /// machine's own cost model, network kind and fault plan
    /// ([`Advisor::for_machine`], the one [`parmm::multiply`] uses).
    #[must_use]
    pub fn new(machine: &'m Machine, config: Config) -> Self {
        Self {
            machine,
            advisor: Advisor::for_machine(machine),
            config,
        }
    }

    /// The advisor the right-sizer consults.
    #[must_use]
    pub fn advisor(&self) -> &Advisor {
        &self.advisor
    }

    /// Run a workload trace (sorted by arrival) to completion under
    /// `policy` and report.
    ///
    /// # Errors
    /// * [`GemmdError::UnsupportedMachine`] — machine size is not a
    ///   power of two;
    /// * [`GemmdError::UnsortedWorkload`] — arrivals out of order;
    /// * [`GemmdError::Unschedulable`] — a job no algorithm accepts at
    ///   any partition size;
    /// * [`GemmdError::Execution`] — a placed job failed in simulation.
    pub fn run(&self, jobs: &[JobSpec], policy: &dyn Policy) -> Result<ServiceReport, GemmdError> {
        for (i, w) in jobs.windows(2).enumerate() {
            if w[1].arrival < w[0].arrival {
                return Err(GemmdError::UnsortedWorkload { index: i + 1 });
            }
        }
        let mut pm = PartitionManager::new(self.machine.p())?;
        let mut queue = Queue::new();
        let mut enqueues = 0;
        let mut enqueue = |queue: &mut Queue, job: QueuedJob| {
            enqueues += 1;
            queue.insert(key(policy, &job, enqueues), job);
        };
        // Sizing depends only on `n` once the run is fixed: one advisor
        // walk per distinct order, not one per arrival.
        let mut sizings: BTreeMap<usize, Option<Sizing>> = BTreeMap::new();
        let mut running: Vec<Running> = Vec::new();
        let mut report = ServiceReport {
            policy: policy.name().into(),
            sizing: self.config.sizing.label(),
            machine_p: self.machine.p(),
            ..ServiceReport::default()
        };
        let mut next_arrival = 0usize;
        let mut now = 0.0f64;
        let mut batch_seq = 0usize;

        loop {
            // Un-quarantine blocks whose death schedules have fully
            // passed: deaths are properties of physical ranks at
            // absolute service times, so once `now` is strictly beyond
            // every member rank's scheduled death the block is safe
            // again (a future job's rebased plan drops past deaths).
            report.unquarantined_ranks += pm.release_quarantined(|part| {
                part.ranks().iter().all(|&r| {
                    !self
                        .machine
                        .fault_plan()
                        .and_then(|plan| plan.death_time(r))
                        .is_some_and(|t| t >= now)
                })
            });

            // Place as many queued jobs as the policy and the free
            // blocks allow, head of line first.
            while let Some((&key, head)) = queue.first_key_value() {
                // Batch attempt first: coalesce the selected job with
                // its queued same-shape siblings onto one placement
                // (fault-plan machines always place solo — see
                // [`Config::batching`]).
                if let Some(mut members) = self
                    .config
                    .batching
                    .filter(|_| self.machine.fault_plan().is_none())
                    .and_then(|b| b.gather(&queue))
                {
                    let b = self.config.batching.expect("gather implies batching");
                    // Wide-to-narrow, then shrink-to-fit: prefer
                    // spreading the members (one per rank, overhead
                    // still paid once) and only deepen towards
                    // [`crate::batch::Batching::depth`] as free blocks
                    // run out; when not even the depth-capped block is
                    // free, shed the highest-id non-anchor members and
                    // retry (a pair on one rank always remains
                    // possible, so pressure never blocks coalescing).
                    let partition = loop {
                        // A batch can hold more members than the
                        // machine has ranks — the widest block to try
                        // is still capped by the machine itself.
                        let size = members.len().next_power_of_two().min(self.machine.p());
                        let floor = b.block_for(members.len()).min(self.machine.p());
                        let mut sizes =
                            std::iter::successors(Some(size), |&s| (s > floor).then_some(s / 2));
                        let got = sizes.find_map(|s| pm.alloc(s));
                        if got.is_some() || members.len() <= 2 {
                            break got;
                        }
                        let drop_at = members
                            .iter()
                            .rposition(|&k| k != key)
                            .expect("a batch holds at least one non-anchor member");
                        members.remove(drop_at);
                    };
                    if let Some(partition) = partition {
                        // Members come in id order, the order of the
                        // rank round-robin.
                        let batch = members
                            .iter()
                            .map(|k| queue.remove(k).expect("a gathered key is queued"))
                            .collect();
                        batch_seq += 1;
                        running.push(self.start_batch(batch, partition, now, batch_seq)?);
                        continue;
                    }
                    // Not even a pair fits: fall through to solo.
                }
                let (block, spares) = self.provision(head.sizing.p);
                let Some(partition) = pm.alloc(block) else {
                    // No free block: the preemptor may assemble one by
                    // checkpointing less-urgent running jobs.  Either
                    // way the selected job blocks the queue until
                    // space frees up (head-of-line semantics).
                    self.try_preempt(&pm, &mut running, head, block, now, policy);
                    break;
                };
                let job = queue.remove(&key).expect("the head is queued");
                running.push(self.start_job(job, partition, spares, now)?);
            }

            // Elastic grow: with the queue starved, one running job
            // may take its freed buddy block (checkpoint → release →
            // re-place on 2p → resume) when the advisor predicts the
            // doubled partition still meets the sizing target and the
            // move beats riding the current placement out.
            if self.config.elastic && queue.is_empty() {
                self.try_grow(&pm, &mut running, now);
            }

            // Sample the utilisation/backlog time-series whenever the
            // placement pass left the service in a new state (pushed
            // on change only, so the series stays compact and two runs
            // of one trace produce identical points).
            let busy_ranks = pm.in_use();
            if report
                .timeline
                .last()
                .is_none_or(|l| l.busy_ranks != busy_ranks || l.queued != queue.len())
            {
                report.timeline.push(crate::report::TimePoint {
                    t: now,
                    busy_ranks,
                    queued: queue.len(),
                });
            }

            // Next event: earliest completion (ties → lowest id) vs
            // earliest arrival; completions win exact ties.
            let next_done = running
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.finish.total_cmp(&b.finish).then(a.id.cmp(&b.id)))
                .map(|(i, r)| (i, r.finish));
            let arrival = jobs.get(next_arrival).map(|j| j.arrival);

            match (next_done, arrival) {
                (Some((i, t)), a) if a.is_none_or(|ta| t <= ta) => {
                    now = t;
                    let done = running.swap_remove(i);
                    match done.outcome {
                        Outcome::Completed(record) => {
                            pm.release(done.partition);
                            report.records.push(record);
                        }
                        Outcome::Batch(mut recs) => {
                            pm.release(done.partition);
                            report.records.append(&mut recs);
                        }
                        Outcome::Lost { mut job, rank, t } => {
                            // A scheduled death belongs to the physical
                            // rank: the block would kill the job again,
                            // so it leaves the pool for good and the
                            // job retries on a fresh partition.
                            report.wasted_rank_time += done.partition.size() as f64 * t;
                            pm.quarantine(done.partition);
                            job.attempts += 1;
                            if job.attempts > RETRY_BUDGET {
                                return Err(GemmdError::Execution {
                                    id: job.id,
                                    detail: format!(
                                        "rank {rank} fail-stopped at t = {t:.3}; retry budget \
                                         ({}) exhausted",
                                        RETRY_BUDGET
                                    ),
                                });
                            }
                            report.requeues += 1;
                            enqueue(&mut queue, job);
                        }
                        Outcome::Preempted { job } => {
                            // The block is healthy — hand it straight
                            // back.  The checkpointed progress travels
                            // with the job (its credit), so nothing is
                            // wasted and nothing is redone; the job
                            // requeues without burning an attempt.
                            pm.release(done.partition);
                            report.preemptions += 1;
                            report.preemption_transfer_words += 3 * (job.spec.n as u64).pow(2);
                            enqueue(&mut queue, job);
                        }
                        Outcome::Resized { job } => {
                            // Releasing the old block merges it with
                            // its free buddy; the next placement pass
                            // re-places the job on the doubled block
                            // (or queues it if an arrival stole the
                            // buddy meanwhile).
                            pm.release(done.partition);
                            report.grows += 1;
                            enqueue(&mut queue, job);
                        }
                        Outcome::Migrated { mut job, t } => {
                            // The degrading block is sidelined exactly
                            // like a dead one — but a block with no
                            // pending death (a link-level degradation,
                            // or a detector crying wolf) is handed
                            // straight back by the next
                            // release_quarantined pass.  The work up to
                            // the alarm is checkpointed and travels
                            // with the job, so nothing is wasted and
                            // nothing is redone.
                            pm.quarantine(done.partition);
                            report.migrations += 1;
                            report.migration_transfer_words += 3 * (job.spec.n as u64).pow(2);
                            job.migrations += 1;
                            job.credit += t;
                            enqueue(&mut queue, job);
                        }
                    }
                }
                (_, Some(t)) => {
                    now = t;
                    let id = next_arrival;
                    let spec = jobs[id].clone();
                    next_arrival += 1;
                    if queue.len() >= self.config.queue_cap {
                        // Elastic relief first: shrink the policy's
                        // selected job onto the largest free block —
                        // it never ran, so no checkpoint moves — and
                        // place it now, freeing a queue slot.
                        let mut relieved = false;
                        if self.config.elastic {
                            if let Some((&key, head)) = queue.first_key_value() {
                                if let Some((p_s, rec)) = self.shrink_candidate(&pm, head) {
                                    let (block, spares) = self.provision(p_s);
                                    if let Some(partition) = pm.alloc(block) {
                                        let mut job =
                                            queue.remove(&key).expect("the head is queued");
                                        job.sizing = Sizing { p: p_s, rec };
                                        job.resizes += 1;
                                        running.push(self.start_job(job, partition, spares, now)?);
                                        report.shrinks += 1;
                                        relieved = true;
                                    }
                                }
                            }
                        }
                        if !relieved {
                            if !self.config.shed {
                                report.rejected.push(spec);
                                continue;
                            }
                            // Policy-aware shedding: drop the lowest-
                            // value candidate from queue ∪ {arrival}
                            // as a structured outcome, never silently.
                            match Self::shed_victim(&queue, &spec, id) {
                                None => {
                                    report.shed.push(ShedRecord { id, spec, t: now });
                                    continue;
                                }
                                Some(v) => {
                                    let out = queue.remove(&v).expect("the victim is queued");
                                    report.shed.push(ShedRecord {
                                        id: out.id,
                                        spec: out.spec,
                                        t: now,
                                    });
                                }
                            }
                        }
                    }
                    let sizing = sizings
                        .entry(spec.n)
                        .or_insert_with(|| {
                            right_size(&self.advisor, spec.n, self.machine.p(), self.config.sizing)
                        })
                        .clone()
                        .ok_or(GemmdError::Unschedulable { n: spec.n })?;
                    let job = QueuedJob {
                        id,
                        spec,
                        sizing,
                        attempts: 0,
                        migrations: 0,
                        credit: 0.0,
                        preemptions: 0,
                        resizes: 0,
                        done: 0.0,
                    };
                    enqueue(&mut queue, job);
                }
                _ => break,
            }
        }
        debug_assert!(running.is_empty());
        // No events left but jobs still queued: quarantine has eaten
        // every block that could host them.  Surface the stuck job
        // instead of hanging or dropping it silently.
        if let Some(stuck) = queue.values().next() {
            return Err(GemmdError::Execution {
                id: stuck.id,
                detail: format!(
                    "no allocatable partition remains ({} of {} ranks quarantined)",
                    pm.quarantined(),
                    pm.capacity()
                ),
            });
        }

        // Batch members retire together when their partition frees but
        // carry individual finish stamps: re-establish global
        // completion order (a no-op for solo-only runs, whose push
        // order already matches the event order).
        let records = &mut report.records;
        records.sort_by(|a, b| a.finish.total_cmp(&b.finish).then(a.id.cmp(&b.id)));
        // The last retired record, not the last placement: a placement
        // paused mid-flight (preempted, grown) never finishes as placed.
        report.makespan = records.last().map_or(0.0, |r| r.finish);
        report.quarantined_ranks = pm.quarantined();
        if cfg!(debug_assertions) {
            report.check(jobs.len());
        }
        Ok(report)
    }

    /// Decide the buddy block and spare count for a compute partition
    /// of `p` ranks: with spares configured, the block is rounded up to
    /// the next power of two that fits `p + spares`; if that exceeds
    /// the machine, the job runs unprotected rather than not at all.
    fn provision(&self, p: usize) -> (usize, usize) {
        if self.config.spares == 0 {
            return (p, 0);
        }
        let block = (p + self.config.spares).next_power_of_two();
        if block > self.machine.p() {
            (p, 0)
        } else {
            (block, self.config.spares)
        }
    }

    /// Execute one job on its partition: the compute ranks are the
    /// block's first `sizing.p` ranks, plus `spares` idle ranks for
    /// fail-stop failover.  A death beyond the spare budget is not an
    /// error — it becomes a [`Outcome::Lost`] placement that occupies
    /// the partition until the death instant.  With
    /// [`Config::migration_streak`] set, a sustained-degradation alarm
    /// that fires before the run would have ended pre-empts either
    /// ending and becomes an [`Outcome::Migrated`] placement instead.
    fn start_job(
        &self,
        job: QueuedJob,
        partition: Partition,
        spares: usize,
        now: f64,
    ) -> Result<Running, GemmdError> {
        // The placement holds the partition from `now`, but computation
        // begins after the dispatch overhead; the delay is queueing
        // from the job's point of view.
        let begin = now + self.config.placement_overhead;
        let ranks = partition.ranks();
        let mut sub = self.machine.partition(&ranks[..job.sizing.p + spares]);
        // The plan's death times are service-absolute; each run starts
        // at `now`, so shift them into run-relative time (deaths
        // already in the past vanish — that is what makes a block
        // reusable once its schedule has passed).
        let plan = self.machine.fault_plan().map(|p| p.rebased_deaths(begin));
        if let Some(plan) = plan.clone() {
            sub = sub.with_fault_plan(plan);
        }
        // The run ends at `end` in completion or in the death of `rank`
        // beyond the spare budget; any other failure is the job's error.
        let (end, run) = match self.simulate(&job, &sub.with_spares(spares)) {
            Ok(out) => (out.t_parallel, Ok(out)),
            Err(AlgoError::Sim(mmsim::SimError::RankDied { rank, t })) => (t, Err(rank)),
            Err(e) => {
                return Err(GemmdError::Execution {
                    id: job.id,
                    detail: e.to_string(),
                })
            }
        };
        // The mover only gets to act on alarms that precede the run's
        // natural end.
        if let Some(t) =
            self.migration_alarm(&ranks[..job.sizing.p], plan.as_ref(), job.migrations, end)
        {
            return Ok(Running {
                finish: begin + t,
                id: job.id,
                partition,
                outcome: Outcome::Migrated { job, t },
                pause: None,
            });
        }
        let out = match run {
            Ok(out) => out,
            Err(rank) => {
                return Ok(Running {
                    finish: begin + end,
                    id: job.id,
                    partition,
                    outcome: Outcome::Lost { job, rank, t: end },
                    pause: None,
                })
            }
        };
        // A resumed job — migrated, preempted, or elastically resized
        // with progress — pays the state transfer (`t_s + t_w·3n²/p`,
        // see [`StateTransfer`]) once, then only re-executes what its
        // checkpoints had not already covered.  Same-size resumes
        // subtract the exact time credit; once a resize is involved
        // the completed *fraction* carries instead (time at the old
        // size does not transfer across partition sizes).
        let resumed = job.migrations > 0 || job.preemptions > 0 || job.done > 0.0;
        let resume_surcharge = if resumed {
            StateTransfer::gemm(job.spec.n).surcharge(self.machine.cost_model(), job.sizing.p)
        } else {
            0.0
        };
        let actual_time = if resumed {
            let left = if job.done > 0.0 {
                out.t_parallel * (1.0 - job.done)
            } else {
                (out.t_parallel - job.credit).max(0.0)
            };
            resume_surcharge + left
        } else {
            out.t_parallel
        };
        // Snapshot the resume state before the record consumes the
        // job: this is what a later pause (preemption, elastic grow)
        // folds its progress into.
        let pause = PauseState {
            job: job.clone(),
            raw: out.t_parallel,
            surcharge: resume_surcharge,
        };
        let block = (partition.base(), partition.size());
        let record = Self::record(job, &out, block, begin, actual_time, 0);
        Ok(Running {
            finish: record.finish,
            id: record.id,
            partition,
            outcome: Outcome::Completed(record),
            pause: Some(pause),
        })
    }

    /// Execute a coalesced small-GEMM batch on its partition.  Members
    /// arrive in job-id order and are dealt round-robin across the
    /// block's ranks; each rank runs its hand back-to-back.  Every
    /// sub-job executes through [`run_recommendation`] on a
    /// *single-rank* sub-machine — literally the unbatched execution
    /// path — so its product is bit-identical to a solo placement's
    /// (pinned in `crates/gemmd/tests/online.rs`); only its virtual
    /// start time differs.  The one placement overhead is paid up
    /// front, which is the whole point (see [`crate::batch`]).
    fn start_batch(
        &self,
        jobs: Vec<QueuedJob>,
        partition: Partition,
        now: f64,
        batch_no: usize,
    ) -> Result<Running, GemmdError> {
        let begin = now + self.config.placement_overhead;
        let ranks = partition.ranks();
        let mut rank_clock = vec![begin; ranks.len()];
        let mut records = Vec::with_capacity(jobs.len());
        let lead_id = jobs.first().map_or(0, |j| j.id);
        for (slot, job) in jobs.into_iter().enumerate() {
            let rank = ranks[slot % ranks.len()];
            let sub = self.machine.partition(&[rank]).with_spares(0);
            let out = self
                .simulate(&job, &sub)
                .map_err(|e| GemmdError::Execution {
                    id: job.id,
                    detail: e.to_string(),
                })?;
            let start = rank_clock[slot % ranks.len()];
            let record = Self::record(job, &out, (rank, 1), start, out.t_parallel, batch_no);
            rank_clock[slot % ranks.len()] = record.finish;
            records.push(record);
        }
        let end = rank_clock.iter().fold(begin, |acc, &t| acc.max(t));
        Ok(Running {
            finish: end,
            id: lead_id,
            partition,
            outcome: Outcome::Batch(records),
            pause: None,
        })
    }

    /// Run `job` on `sub` with its operands, checking the product
    /// against the serial kernel under [`Config::verify`].
    fn simulate(&self, job: &QueuedJob, sub: &Machine) -> Result<SimOutcome, AlgoError> {
        let (a, b) = dense::gen::random_pair(job.spec.n, job.spec.seed);
        let out = run_recommendation(&job.sizing.rec, sub, &a, &b)?;
        if self.config.verify {
            let id = job.id;
            assert!(
                out.c.approx_eq(&(&a * &b), 1e-8),
                "job {id} produced a wrong product"
            );
        }
        Ok(out)
    }

    /// `job`'s record for a run of `actual_time` from `start` on the
    /// `(base, p)` block of ranks, in coalesced batch `batch` (0: solo).
    fn record(
        job: QueuedJob,
        out: &SimOutcome,
        (base, p): (usize, usize),
        start: f64,
        actual_time: f64,
        batch: usize,
    ) -> JobRecord {
        JobRecord {
            id: job.id,
            queue_wait: start - job.spec.arrival,
            spec: job.spec,
            p,
            base,
            algorithm: job.sizing.rec.algorithm,
            resilient: job.sizing.rec.resilient,
            predicted_time: job.sizing.rec.predicted_time,
            actual_time,
            attempts: job.attempts + 1,
            recoveries: out.stats.iter().map(|s| s.recoveries).sum(),
            migrations: job.migrations,
            preemptions: job.preemptions,
            resizes: job.resizes,
            heartbeat_words: out.stats.iter().map(|s| s.heartbeat_words).sum(),
            batch,
            start,
            finish: start + actual_time,
        }
    }

    /// The earliest sustained-degradation alarm on this placement's
    /// heartbeat ring, in run-relative time: the first instant any
    /// member's monitor link accumulates [`Config::migration_streak`]
    /// consecutive lost beats within `horizon`.  Heartbeat fates are a
    /// pure function of the fault plan, so the mover sees exactly the
    /// streaks the engine's detector would observe — just at a lower
    /// threshold, which is what makes the migration *proactive*.
    /// `None` when migration is off, the job has exhausted its
    /// migration budget, the partition is a single rank (no ring), or
    /// no link alarms in time.
    fn migration_alarm(
        &self,
        compute: &[usize],
        plan: Option<&mmsim::FaultPlan>,
        migrations: usize,
        horizon: f64,
    ) -> Option<f64> {
        let streak = self.config.migration_streak;
        if streak == 0 || compute.len() < 2 || migrations >= RETRY_BUDGET {
            return None;
        }
        let plan = plan?;
        plan.detection()?;
        compute
            .iter()
            .enumerate()
            .filter_map(|(r, &src)| {
                let dst = compute[(r + 1) % compute.len()];
                let period = plan.detection_period_for(src)?;
                let beat = plan.first_streak(src, dst, 0, streak, period, horizon)?;
                Some((beat + 1) as f64 * period)
            })
            .min_by(f64::total_cmp)
    }

    /// Virtual-time cost of draining (or re-loading) one rank's share
    /// of a job's live state — the single quote migration, preemption
    /// and elastic resizes all use (see [`StateTransfer`]).
    fn pause_cost(&self, n: usize, p: usize) -> f64 {
        StateTransfer::gemm(n).surcharge(self.machine.cost_model(), p)
    }

    /// Fold the work a running solo placement has completed by `now`
    /// into its job's resume state and return the job ready to
    /// requeue: time credit while the partition size is unchanged, a
    /// completed fraction once any resize is involved.  No new work
    /// completes during the run's own resume surcharge, so that
    /// window contributes nothing.
    fn paused_job(v: &Running, now: f64) -> QueuedJob {
        let ps = v.pause.as_ref().expect("pausable placements carry state");
        let Outcome::Completed(record) = &v.outcome else {
            unreachable!("pausable placements retire as records");
        };
        let span = ((v.finish - record.start) - ps.surcharge).max(0.0);
        let work = (now - record.start - ps.surcharge).clamp(0.0, span);
        let mut job = ps.job.clone();
        if job.done > 0.0 {
            job.done = (job.done + work / ps.raw).min(1.0);
        } else {
            job.credit += work;
        }
        job
    }

    /// Gang preemption: assemble an aligned block of `needed` ranks
    /// for `waiting` by checkpointing every running job inside one
    /// candidate block — provided the run's own policy ranks `waiting`
    /// strictly ahead of *each* victim, every victim has preemption
    /// budget left, and each victim's remaining time exceeds its pause
    /// cost (otherwise waiting out the block is cheaper than moving
    /// it).  Candidate blocks scan lowest base first and at most one
    /// gang pauses at a time, so replays stay byte-identical.  Under
    /// FIFO nothing ever outranks the queue head, so a FIFO service
    /// never preempts even with the feature on.
    fn try_preempt(
        &self,
        pm: &PartitionManager,
        running: &mut [Running],
        waiting: &QueuedJob,
        needed: usize,
        now: f64,
        policy: &dyn Policy,
    ) {
        if !self.config.preemption {
            return;
        }
        // One gang at a time: while a drain is in flight the waiting
        // job re-tries its allocation at every event anyway.
        if running.iter().any(|r| r.outcome.draining()) {
            return;
        }
        'blocks: for base in (0..pm.capacity()).step_by(needed) {
            let mut victims: Vec<usize> = Vec::new();
            for rank in base..base + needed {
                let holder = running.iter().position(|r| {
                    rank >= r.partition.base() && rank < r.partition.base() + r.partition.size()
                });
                match holder {
                    Some(j) => {
                        if victims.contains(&j) {
                            continue;
                        }
                        let r = &running[j];
                        let Some(ps) = &r.pause else {
                            continue 'blocks; // batches and doomed runs don't pause
                        };
                        if ps.job.preemptions >= RETRY_BUDGET {
                            continue 'blocks;
                        }
                        let pause = self.pause_cost(ps.job.spec.n, ps.job.sizing.p);
                        if r.finish - now <= pause {
                            continue 'blocks; // about to finish anyway
                        }
                        // The victim ranks as enqueued first (seq 0), so
                        // under FIFO nothing outranks it.
                        let victim = (policy.rank(&ps.job, 0), ps.job.id);
                        if (policy.rank(waiting, 1), waiting.id) >= victim {
                            continue 'blocks; // waiting does not outrank it
                        }
                        victims.push(j);
                    }
                    // Unheld ranks must be free — a quarantined rank
                    // poisons the whole candidate block.
                    None if pm.is_block_free(rank, 1) => {}
                    None => continue 'blocks,
                }
            }
            if victims.is_empty() {
                continue; // fully-free blocks never reach the preemptor
            }
            for j in victims {
                let mut job = Self::paused_job(&running[j], now);
                let pause = self.pause_cost(job.spec.n, job.sizing.p);
                job.preemptions += 1;
                running[j].finish = now + pause;
                running[j].outcome = Outcome::Preempted { job };
                running[j].pause = None;
            }
            return;
        }
    }

    /// Elastic grow: pick the lowest-base running job whose buddy
    /// block is free, whose doubled partition the advisor still rates
    /// at or above the sizing target, and for which
    /// `pause + resume + predicted remaining on 2p` beats riding the
    /// current placement out — then checkpoint it off its block.  At
    /// most one resize initiates per placement pass.
    fn try_grow(&self, pm: &PartitionManager, running: &mut [Running], now: f64) {
        if running.iter().any(|r| r.outcome.draining()) {
            return;
        }
        let mut order: Vec<usize> = (0..running.len()).collect();
        order.sort_by_key(|&i| running[i].partition.base());
        for i in order {
            let (part_base, part_size, finish) = {
                let r = &running[i];
                (r.partition.base(), r.partition.size(), r.finish)
            };
            let Some(ps) = &running[i].pause else {
                continue;
            };
            if ps.job.resizes >= RETRY_BUDGET {
                continue;
            }
            // Spare-padded blocks keep their provisioning; only exact
            // placements grow.
            if part_size != ps.job.sizing.p {
                continue;
            }
            let p2 = part_size * 2;
            if p2 > self.machine.p() || !pm.is_block_free(part_base ^ part_size, part_size) {
                continue;
            }
            let Some(rec2) = self.advisor.recommend_executable(ps.job.spec.n, p2) else {
                continue;
            };
            let floor = match self.config.sizing {
                SizingMode::Isoefficiency { target } => target,
                SizingMode::WholeMachine => 0.0,
            };
            if rec2.predicted_efficiency < floor {
                continue;
            }
            let mut job = Self::paused_job(&running[i], now);
            let frac = if job.done > 0.0 {
                job.done
            } else {
                (job.credit / ps.raw).min(1.0)
            };
            let pause = self.pause_cost(job.spec.n, part_size);
            let resume = self.pause_cost(job.spec.n, p2);
            if pause + resume + rec2.predicted_time * (1.0 - frac) >= finish - now {
                continue; // no predicted win
            }
            job.done = frac;
            job.credit = 0.0;
            job.resizes += 1;
            job.sizing = Sizing { p: p2, rec: rec2 };
            running[i].finish = now + pause;
            running[i].outcome = Outcome::Resized { job };
            running[i].pause = None;
            return;
        }
    }

    /// A smaller sizing for a queued job under admission pressure: the
    /// largest executable partition at or below the biggest free block
    /// — strictly smaller than the job deserved, and only for jobs
    /// with no checkpointed progress (credit at the old size would not
    /// transfer).  Shrinking raises predicted efficiency, so no target
    /// check is needed.
    fn shrink_candidate(
        &self,
        pm: &PartitionManager,
        job: &QueuedJob,
    ) -> Option<(usize, Recommendation)> {
        if job.resizes >= RETRY_BUDGET || job.credit > 0.0 || job.done > 0.0 {
            return None;
        }
        let mut p = pm.largest_free();
        if p == 0 || p >= job.sizing.p {
            return None;
        }
        loop {
            if let Some(rec) = self.advisor.recommend_executable(job.spec.n, p) {
                return Some((p, rec));
            }
            if p == 1 {
                return None;
            }
            p /= 2;
        }
    }

    /// Under [`Config::shed`], the admission victim among the queued
    /// jobs and the arrival: lowest priority first, then latest
    /// deadline (no deadline = latest of all), then the youngest
    /// (highest id).  `None` means the arrival itself is the least
    /// valuable — the historical bounce, now structured.
    fn shed_victim(queue: &Queue, arrival: &JobSpec, arrival_id: usize) -> Option<Key> {
        let value = |s: &JobSpec, id: usize| {
            let deadline = s.deadline.unwrap_or(f64::INFINITY);
            (s.priority, Reverse(total_order_key(deadline)), Reverse(id))
        };
        let victim = queue
            .iter()
            .min_by_key(|(_, q)| value(&q.spec, q.id))
            .filter(|(_, q)| value(&q.spec, q.id) < value(arrival, arrival_id));
        victim.map(|(&k, _)| k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Fifo, PriorityFirst, ShortestPredictedTime};
    use crate::workload::Workload;
    use mmsim::{CostModel, Topology};

    fn machine() -> Machine {
        Machine::new(Topology::hypercube(4), CostModel::ncube2())
    }

    fn config() -> Config {
        Config {
            verify: true,
            ..Config::default()
        }
    }

    #[test]
    fn empty_workload_yields_empty_report() {
        let m = machine();
        let report = Scheduler::new(&m, config()).run(&[], &Fifo).unwrap();
        assert!(report.records.is_empty());
        assert_eq!(report.makespan, 0.0);
        assert_eq!(report.utilization(), 0.0);
    }

    #[test]
    fn single_job_runs_immediately_and_matches_prediction_roughly() {
        let m = machine();
        let jobs = vec![JobSpec::new(16, 50.0)];
        let report = Scheduler::new(&m, config()).run(&jobs, &Fifo).unwrap();
        assert_eq!(report.records.len(), 1);
        let r = &report.records[0];
        assert_eq!(r.start, 50.0);
        assert!(r.wait() == 0.0);
        assert!(r.p >= 1 && r.p <= 16);
        assert!(
            r.prediction_error().abs() < 0.5,
            "model and simulator diverge: predicted {} actual {}",
            r.predicted_time,
            r.actual_time
        );
    }

    #[test]
    fn disjoint_partitions_overlap_in_time() {
        // Two small jobs arriving together must run concurrently on
        // disjoint blocks under isoefficiency sizing.
        let m = machine();
        let jobs = vec![JobSpec::new(16, 0.0), JobSpec::new(16, 0.0)];
        let report = Scheduler::new(&m, config()).run(&jobs, &Fifo).unwrap();
        assert_eq!(report.records.len(), 2);
        let (a, b) = (&report.records[0], &report.records[1]);
        assert!(a.p + b.p <= 16, "partitions must be disjoint");
        assert!(
            a.start < b.finish && b.start < a.finish,
            "jobs should overlap"
        );
        assert_ne!(a.base, b.base);
    }

    #[test]
    fn whole_machine_serialises_everything() {
        let m = machine();
        let cfg = Config {
            sizing: SizingMode::WholeMachine,
            ..config()
        };
        let jobs = vec![JobSpec::new(16, 0.0), JobSpec::new(16, 0.0)];
        let report = Scheduler::new(&m, cfg).run(&jobs, &Fifo).unwrap();
        let (a, b) = (&report.records[0], &report.records[1]);
        assert_eq!(a.p, 16);
        assert_eq!(b.p, 16);
        assert!(b.start >= a.finish, "whole-machine jobs cannot overlap");
    }

    #[test]
    fn completions_free_space_for_waiting_jobs() {
        let m = machine();
        let cfg = Config {
            sizing: SizingMode::WholeMachine,
            ..config()
        };
        // Three whole-machine jobs at t = 0: strict FIFO convoy.
        let jobs = vec![
            JobSpec::new(16, 0.0),
            JobSpec::new(16, 0.0),
            JobSpec::new(16, 0.0),
        ];
        let report = Scheduler::new(&m, cfg).run(&jobs, &Fifo).unwrap();
        let finishes: Vec<f64> = report.records.iter().map(|r| r.finish).collect();
        assert!(finishes.windows(2).all(|w| w[0] <= w[1]));
        assert!(report.records[2].wait() > 0.0);
        assert!((report.utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn queue_cap_rejects_excess_arrivals() {
        let m = machine();
        let cfg = Config {
            sizing: SizingMode::WholeMachine,
            queue_cap: 1,
            ..config()
        };
        let jobs: Vec<JobSpec> = (0..4).map(|_| JobSpec::new(16, 0.0)).collect();
        let report = Scheduler::new(&m, cfg).run(&jobs, &Fifo).unwrap();
        // One runs at t=0, one queues, two bounce.
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.rejected.len(), 2);
    }

    #[test]
    fn unsorted_workloads_are_refused() {
        let m = machine();
        let jobs = vec![JobSpec::new(16, 10.0), JobSpec::new(16, 5.0)];
        assert!(matches!(
            Scheduler::new(&m, config()).run(&jobs, &Fifo),
            Err(GemmdError::UnsortedWorkload { index: 1 })
        ));
    }

    #[test]
    fn spt_overtakes_fifo_on_mean_wait() {
        let m = machine();
        let cfg = Config {
            sizing: SizingMode::WholeMachine,
            ..config()
        };
        // One job holds the machine; a second long job and three short
        // ones queue behind it, so SPT can reorder the queue.
        let mut jobs = vec![JobSpec::new(32, 0.0)];
        jobs.push(JobSpec {
            seed: 77,
            ..JobSpec::new(32, 1.0)
        });
        jobs.extend((0..3).map(|i| JobSpec {
            seed: i,
            ..JobSpec::new(8, 1.0)
        }));
        let sched = Scheduler::new(&m, cfg);
        let fifo = sched.run(&jobs, &Fifo).unwrap();
        let spt = sched.run(&jobs, &ShortestPredictedTime).unwrap();
        assert!(spt.mean_wait() < fifo.mean_wait());
        // Same jobs completed either way.
        assert_eq!(fifo.records.len(), spt.records.len());
    }

    #[test]
    fn priority_first_runs_urgent_jobs_earlier() {
        let m = machine();
        let cfg = Config {
            sizing: SizingMode::WholeMachine,
            ..config()
        };
        let jobs = vec![
            JobSpec::new(16, 0.0), // runs first regardless
            JobSpec {
                priority: 0,
                seed: 1,
                ..JobSpec::new(16, 1.0)
            },
            JobSpec {
                priority: 5,
                seed: 2,
                ..JobSpec::new(16, 1.0)
            },
        ];
        let report = Scheduler::new(&m, cfg).run(&jobs, &PriorityFirst).unwrap();
        let order: Vec<usize> = report.records.iter().map(|r| r.id).collect();
        assert_eq!(order, vec![0, 2, 1], "priority 5 overtakes priority 0");
    }

    #[test]
    fn deadlines_are_scored() {
        let m = machine();
        let jobs = vec![JobSpec {
            deadline: Some(1.0), // hopeless
            ..JobSpec::new(16, 0.0)
        }];
        let report = Scheduler::new(&m, config()).run(&jobs, &Fifo).unwrap();
        assert_eq!(report.deadlines(), (0, 1));
    }

    /// A lossy machine whose physical ranks in `deaths` fail-stop at
    /// `t = 400` (inside any n = 16 run).  The small drop rate makes
    /// the advisor pick resilient variants.
    fn dying_machine(deaths: &[usize]) -> Machine {
        use mmsim::FaultPlan;
        let mut plan = FaultPlan::new(21).with_drop_rate(0.02);
        for &rank in deaths {
            plan = plan.with_death(rank, 400.0);
        }
        Machine::new(Topology::hypercube(4), CostModel::ncube2()).with_fault_plan(plan)
    }

    /// Iso sizing with a high floor → small partitions (p = 1 for
    /// n = 16 on the lossy nCUBE2 constants), so the death/quarantine
    /// geometry below is exact.
    fn tight_config() -> Config {
        Config {
            sizing: SizingMode::Isoefficiency { target: 0.9 },
            verify: true,
            ..Config::default()
        }
    }

    #[test]
    fn spare_budget_masks_a_death_in_place() {
        let m = dying_machine(&[0]);
        let cfg = Config {
            spares: 1,
            ..tight_config()
        };
        let jobs = vec![JobSpec::new(16, 0.0)];
        let report = Scheduler::new(&m, cfg).run(&jobs, &Fifo).unwrap();
        assert_eq!(report.records.len(), 1);
        let r = &report.records[0];
        assert!(r.resilient);
        assert_eq!(r.attempts, 1, "spare failover must avoid re-submission");
        assert!(r.recoveries >= 1, "the death must be absorbed by a spare");
        assert_eq!(report.requeues, 0);
        assert_eq!(report.quarantined_ranks, 0);
        assert_eq!(report.wasted_rank_time, 0.0);
    }

    #[test]
    fn death_beyond_budget_requeues_on_a_fresh_partition() {
        let m = dying_machine(&[0]);
        let jobs = vec![JobSpec::new(16, 0.0)];
        let report = Scheduler::new(&m, tight_config())
            .run(&jobs, &Fifo)
            .unwrap();
        assert_eq!(report.records.len(), 1);
        let r = &report.records[0];
        assert_eq!(r.attempts, 2, "one loss, one successful retry");
        assert_ne!(r.base, 0, "the retry must land on a fresh partition");
        assert_eq!(r.recoveries, 0);
        assert!(
            r.start >= 400.0,
            "the lost placement held the block until the death"
        );
        assert_eq!(report.requeues, 1);
        // The dead block left the pool at t = 400 — and came back once
        // the retry outlived the schedule, so nothing is still held.
        assert_eq!(report.quarantined_ranks, 0);
        assert!(report.unquarantined_ranks > 0);
        assert!(report.wasted_rank_time > 0.0);
        // The requeue is visible in the CSV attempts column.
        assert!(report.to_csv().lines().nth(1).unwrap().contains(",2,"));
    }

    /// A plan with a death but no drop, corruption or detection leaves
    /// the advisor on the plain forms, and a plain form reports the
    /// death like a reliable one: the job is lost, requeued, and its
    /// block quarantined, never a panic.
    #[test]
    fn death_on_a_plain_form_requeues_like_a_reliable_one() {
        use mmsim::FaultPlan;
        let plan = FaultPlan::new(21).with_death(0, 400.0);
        let m = Machine::new(Topology::hypercube(4), CostModel::ncube2()).with_fault_plan(plan);
        let cfg = Config {
            spares: 0,
            ..tight_config()
        };
        let sched = Scheduler::new(&m, cfg);
        let (a, b) = dense::gen::random_pair(16, 0);
        assert!(matches!(
            sched.advisor().execute(&m, &a, &b),
            Err(AlgoError::Sim(mmsim::SimError::RankDied { rank: 0, .. }))
        ));
        let jobs = vec![JobSpec::new(16, 0.0); 3];
        let report = sched.run(&jobs, &Fifo).unwrap();
        assert_eq!(report.records.len(), 3, "every job is recorded");
        assert!(report.records.iter().all(|r| !r.resilient));
        assert!(report.requeues >= 1, "the lost job is requeued");
        let retried = report.records.iter().find(|r| r.attempts > 1).unwrap();
        assert!(
            retried.start >= 400.0,
            "the lost run held its block until the death"
        );
        assert_ne!(retried.base, 0, "the dead rank's block was quarantined");
        assert!(report.quarantined_ranks + report.unquarantined_ranks > 0);
    }

    #[test]
    fn passed_death_schedules_unquarantine_the_block() {
        // Quarantine → requeue → un-quarantine, end to end: job 0 dies
        // on rank 0 at t = 400 and retries elsewhere; job 1 arrives
        // long after the schedule passed, so the scheduler must hand
        // block [0, 1) back and place job 1 on it (lowest base first)
        // — where it survives, because the rebased plan drops the
        // already-past death.
        let m = dying_machine(&[0]);
        let jobs = vec![JobSpec::new(16, 0.0), JobSpec::new(16, 100_000.0)];
        let report = Scheduler::new(&m, tight_config())
            .run(&jobs, &Fifo)
            .unwrap();
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.requeues, 1);
        let second = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(
            second.base, 0,
            "the un-quarantined block must be allocatable again"
        );
        assert_eq!(second.attempts, 1, "no death fires on a passed schedule");
        assert_eq!(second.recoveries, 0);
        assert_eq!(report.quarantined_ranks, 0);
        assert_eq!(report.unquarantined_ranks, 1);
    }

    #[test]
    fn detection_config_reaches_the_advisor_and_the_runs() {
        use mmsim::FaultPlan;
        // Same dying machine, now with priced detection: the advisor
        // models the heartbeat duty cycle and the simulator charges
        // beats, so the job completes with visible detection costs.
        let plan = FaultPlan::new(21)
            .with_drop_rate(0.02)
            .with_death(0, 400.0)
            .with_detection(5_000.0, 2);
        let m = Machine::new(Topology::hypercube(4), CostModel::ncube2()).with_fault_plan(plan);
        let cfg = Config {
            spares: 1,
            ..tight_config()
        };
        let sched = Scheduler::new(&m, cfg);
        assert_eq!(
            sched.advisor().machine().detection.map(|d| d.latency()),
            Some(10_000.0),
            "the plan's detection config must reach the analytic machine"
        );
        let jobs = vec![JobSpec::new(16, 0.0)];
        let report = sched.run(&jobs, &Fifo).unwrap();
        assert_eq!(report.records.len(), 1);
        let r = &report.records[0];
        assert!(r.resilient);
        assert!(r.recoveries >= 1, "the death is still masked by the spare");
    }

    #[test]
    fn retry_budget_exhaustion_surfaces_structured_error() {
        let m = dying_machine(&[0, 1, 2]);
        let jobs = vec![JobSpec::new(16, 0.0)];
        let err = Scheduler::new(&m, tight_config())
            .run(&jobs, &Fifo)
            .unwrap_err();
        match err {
            GemmdError::Execution { id: 0, detail } => {
                assert!(
                    detail.contains("retry budget (2) exhausted"),
                    "unexpected detail: {detail}"
                );
            }
            other => panic!("expected Execution, got {other:?}"),
        }
    }

    #[test]
    fn quarantine_starvation_is_reported_not_hung() {
        use mmsim::FaultPlan;
        // Both ranks of a 2-rank machine carry deaths: after two lost
        // placements the whole pool is quarantined and the job can
        // never be placed again.
        let plan = FaultPlan::new(23)
            .with_drop_rate(0.02)
            .with_death(0, 400.0)
            .with_death(1, 400.0);
        let m = Machine::new(Topology::hypercube(1), CostModel::ncube2()).with_fault_plan(plan);
        let jobs = vec![JobSpec::new(16, 0.0)];
        let err = Scheduler::new(&m, tight_config())
            .run(&jobs, &Fifo)
            .unwrap_err();
        match err {
            GemmdError::Execution { id: 0, detail } => {
                assert!(
                    detail.contains("no allocatable partition remains (2 of 2 ranks quarantined)"),
                    "unexpected detail: {detail}"
                );
            }
            other => panic!("expected Execution, got {other:?}"),
        }
    }

    /// A 16-rank machine whose directed link 0 → 1 — the heartbeat
    /// path of physical rank 0 — drops half its frames, with a tight
    /// detector (period 500, death threshold 4 beats) and optionally a
    /// fail-stop death.  n = 32 jobs right-size to p = 4 here, so the
    /// first placement lands on block [0, 4) and sees the degradation.
    fn degrading_machine(death: Option<(usize, f64)>) -> Machine {
        use mmsim::{FaultPlan, LinkFaults};
        let mut plan = FaultPlan::new(33)
            .with_drop_rate(0.02)
            .with_link(
                0,
                1,
                LinkFaults {
                    drop: 0.5,
                    corrupt: 0.0,
                },
            )
            .with_detection(500.0, 4);
        if let Some((rank, t)) = death {
            plan = plan.with_death(rank, t);
        }
        Machine::new(Topology::hypercube(4), CostModel::ncube2()).with_fault_plan(plan)
    }

    #[test]
    fn proactive_migration_beats_reactive_recovery() {
        // Rank 0's outgoing link degrades, then the rank dies at
        // t = 10 000 — a third of the way into the ~19 000-unit run.
        // The reactive service rides the job into the death and redoes
        // everything; the proactive mover reads the missed-heartbeat
        // streak, evacuates early and resumes from the checkpoint.
        let m = degrading_machine(Some((0, 10_000.0)));
        let jobs = vec![JobSpec::new(32, 0.0)];
        let reactive = Scheduler::new(&m, config()).run(&jobs, &Fifo).unwrap();
        let proactive = Scheduler::new(
            &m,
            Config {
                migration_streak: 2,
                ..config()
            },
        )
        .run(&jobs, &Fifo)
        .unwrap();

        let r = &reactive.records[0];
        assert_eq!(r.attempts, 2, "reactive path loses the first placement");
        assert_eq!(reactive.requeues, 1);
        assert_eq!(reactive.migrations, 0);
        assert!(reactive.wasted_rank_time >= 4.0 * 10_000.0);

        let p = &proactive.records[0];
        assert_eq!(p.attempts, 1, "migration is not a loss");
        assert_eq!(p.migrations, 1, "one evacuation off the dying block");
        assert_ne!(p.base, 0, "the job must finish on a fresh block");
        assert_eq!(proactive.requeues, 0);
        assert_eq!(proactive.migrations, 1);
        assert_eq!(proactive.migration_transfer_words, 3 * 32 * 32);
        assert_eq!(
            proactive.wasted_rank_time, 0.0,
            "checkpointed work is moved, not redone"
        );
        assert!(
            p.finish < r.finish,
            "proactive finish {} must beat reactive {}",
            p.finish,
            r.finish
        );
        // The schedule is a pure function of the trace: byte-identical
        // on replay.
        let again = Scheduler::new(
            &m,
            Config {
                migration_streak: 2,
                ..config()
            },
        )
        .run(&jobs, &Fifo)
        .unwrap();
        assert_eq!(again.to_csv(), proactive.to_csv());
    }

    #[test]
    fn migration_off_a_deathless_block_releases_it_immediately() {
        // Pure link degradation, no death anywhere: the evacuated
        // block has no pending death schedule, so release_quarantined
        // must hand it straight back — and the buddy allocator
        // (lowest base first) places the job right back on it.  The
        // migration budget (`RETRY_BUDGET` = 2) caps the resulting
        // ping-pong, after which the job runs the degraded block to
        // completion on the reliable transport.
        let m = degrading_machine(None);
        let jobs = vec![JobSpec::new(32, 0.0)];
        let report = Scheduler::new(
            &m,
            Config {
                migration_streak: 2,
                ..config()
            },
        )
        .run(&jobs, &Fifo)
        .unwrap();
        assert_eq!(report.records.len(), 1);
        let r = &report.records[0];
        assert_eq!(r.attempts, 1);
        assert_eq!(r.migrations, 2, "budget caps the ping-pong");
        assert_eq!(r.base, 0, "the released block is reused immediately");
        assert_eq!(report.migrations, 2);
        assert_eq!(report.quarantined_ranks, 0, "nothing stays quarantined");
        assert_eq!(
            report.unquarantined_ranks, 8,
            "each of the two evacuated blocks (4 ranks) came back at once"
        );
        assert_eq!(report.wasted_rank_time, 0.0);
        assert!(r.heartbeat_words > 0, "detection is priced into the run");
    }

    #[test]
    fn preemption_frees_the_machine_for_an_urgent_job() {
        // j0 (priority 0) holds the whole machine; j1 (priority 7)
        // arrives behind it.  Without preemption j1 convoys; with it
        // the scheduler checkpoints j0, pays the pause surcharge,
        // runs j1, and resumes j0 from its credit — both products
        // still verify against the serial kernel.
        let m = machine();
        let cfg = Config {
            sizing: SizingMode::WholeMachine,
            preemption: true,
            ..config()
        };
        let jobs = vec![
            JobSpec::new(32, 0.0),
            JobSpec {
                priority: 7,
                seed: 3,
                ..JobSpec::new(16, 100.0)
            },
        ];
        let sched = Scheduler::new(&m, cfg);
        let report = sched.run(&jobs, &PriorityFirst).unwrap();
        assert_eq!(report.records.len(), 2);
        assert_eq!(report.preemptions, 1);
        assert_eq!(report.preemption_transfer_words, 3 * 32 * 32);
        let j0 = report.records.iter().find(|r| r.id == 0).unwrap();
        let j1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(j0.preemptions, 1);
        assert_eq!(j0.attempts, 1, "a preemption is not a loss");
        assert_eq!(j1.preemptions, 0);
        assert!(
            j1.finish < j0.finish,
            "the urgent job must overtake: {} vs {}",
            j1.finish,
            j0.finish
        );
        assert!(
            j0.start >= j1.finish,
            "the victim resumes after the urgent job clears"
        );
        assert_eq!(report.wasted_rank_time, 0.0, "paused work is not redone");
        // Byte-identical on replay.
        let again = sched.run(&jobs, &PriorityFirst).unwrap();
        assert_eq!(again.to_csv(), report.to_csv());
        // The CSV carries the preemption count.
        assert!(report.to_csv().lines().nth(1).unwrap().contains(",1,0,"));
    }

    #[test]
    fn preemption_credits_elapsed_work_on_resume() {
        let m = machine();
        let base_cfg = Config {
            sizing: SizingMode::WholeMachine,
            ..config()
        };
        let solo = Scheduler::new(&m, base_cfg)
            .run(&[JobSpec::new(32, 0.0)], &Fifo)
            .unwrap();
        let raw = solo.records[0].actual_time;

        let cfg = Config {
            preemption: true,
            ..base_cfg
        };
        // Preempt 1000 time units in: the credit (1000) beats the
        // resume surcharge (t_s + t_w·3n²/p = 726 here), so pausing is
        // cheaper than a from-scratch rerun would be.
        let jobs = vec![
            JobSpec::new(32, 0.0),
            JobSpec {
                priority: 7,
                seed: 3,
                ..JobSpec::new(16, 1_000.0)
            },
        ];
        let report = Scheduler::new(&m, cfg).run(&jobs, &PriorityFirst).unwrap();
        assert_eq!(report.preemptions, 1);
        let j0 = report.records.iter().find(|r| r.id == 0).unwrap();
        assert!(j0.actual_time < raw, "credit must shorten the resume");
        let cm = m.cost_model();
        let surcharge = cm.t_s + cm.t_w * (3.0 * 32.0f64.powi(2) / j0.p as f64);
        assert!(
            (j0.actual_time - (surcharge + raw - 1_000.0)).abs() < 1e-6,
            "resume = surcharge + (raw − credit): {} vs {}",
            j0.actual_time,
            surcharge + raw - 1_000.0
        );
    }

    #[test]
    fn fifo_never_preempts_even_when_enabled() {
        let m = machine();
        let cfg = Config {
            sizing: SizingMode::WholeMachine,
            preemption: true,
            ..config()
        };
        let jobs = vec![
            JobSpec::new(32, 0.0),
            JobSpec {
                priority: 7,
                seed: 3,
                ..JobSpec::new(16, 100.0)
            },
        ];
        let report = Scheduler::new(&m, cfg).run(&jobs, &Fifo).unwrap();
        assert_eq!(report.preemptions, 0, "nothing outranks the FIFO head");
        let j0 = report.records.iter().find(|r| r.id == 0).unwrap();
        let j1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert!(j1.start >= j0.finish, "strict convoy under FIFO");
    }

    #[test]
    fn edf_preempts_for_a_tighter_deadline() {
        let m = machine();
        let cfg = Config {
            sizing: SizingMode::WholeMachine,
            preemption: true,
            ..config()
        };
        let jobs = vec![
            JobSpec {
                deadline: Some(1.0e9),
                ..JobSpec::new(32, 0.0)
            },
            JobSpec {
                deadline: Some(3_500.0),
                seed: 3,
                ..JobSpec::new(16, 100.0)
            },
        ];
        let report = Scheduler::new(&m, cfg)
            .run(&jobs, &crate::policy::EarliestDeadlineFirst)
            .unwrap();
        assert_eq!(report.preemptions, 1);
        let j1 = report.records.iter().find(|r| r.id == 1).unwrap();
        assert_eq!(
            j1.met_deadline(),
            Some(true),
            "preemption must rescue the tight deadline (finish {})",
            j1.finish
        );
    }

    #[test]
    fn elastic_shrink_then_grow_rides_the_load_wave() {
        // 16-rank machine at iso 0.5: n = 32 deserves p = 8
        // (E(8) = 0.573, E(16) = 0.428).  j0 takes [0, 8); three
        // single-rank n = 8 jobs take ranks 8–10, leaving largest free
        // block [12, 16).  j4 (another n = 32) queues behind them;
        // when j5 arrives against queue_cap = 1, the scheduler shrinks
        // j4 onto [12, 16) at p = 4 instead of shedding, and j5 is
        // admitted.  Once the singles drain, j4 grows back into its
        // freed buddy [8, 12) to run at its deserved p = 8 — and stops
        // there: doubling again to 16 would dip below the iso floor,
        // and the resize budget (2) is spent.
        let m = machine();
        let cfg = Config {
            queue_cap: 1,
            elastic: true,
            ..config()
        };
        let mut jobs = vec![JobSpec::new(32, 0.0)];
        jobs.extend((0..3).map(|i| JobSpec {
            seed: i,
            ..JobSpec::new(8, 1.0 + i as f64)
        }));
        jobs.push(JobSpec {
            seed: 9,
            ..JobSpec::new(32, 4.0)
        });
        jobs.push(JobSpec {
            seed: 10,
            ..JobSpec::new(8, 5.0)
        });
        let sched = Scheduler::new(&m, cfg);
        let report = sched.run(&jobs, &Fifo).unwrap();
        assert_eq!(report.records.len(), 6, "nothing is shed or lost");
        assert!(report.rejected.is_empty());
        assert!(report.shed.is_empty());
        assert_eq!(report.shrinks, 1);
        assert_eq!(report.grows, 1, "the shrunk job must grow back");
        let j4 = report.records.iter().find(|r| r.id == 4).unwrap();
        assert_eq!(j4.resizes, 2, "one shrink + one grow");
        assert_eq!(j4.p, 8, "the job finishes at its deserved size");
        let j0 = report.records.iter().find(|r| r.id == 0).unwrap();
        assert_eq!(j0.p, 8);
        assert_eq!(
            j0.resizes, 0,
            "growing j0 to 16 would break the iso floor (E = 0.428)"
        );
        // Byte-identical on replay.
        let again = sched.run(&jobs, &Fifo).unwrap();
        assert_eq!(again.to_csv(), report.to_csv());
    }

    #[test]
    fn shedding_drops_the_lowest_value_job_structurally() {
        let m = machine();
        let cfg = Config {
            sizing: SizingMode::WholeMachine,
            queue_cap: 1,
            shed: true,
            ..config()
        };
        let jobs = vec![
            JobSpec::new(32, 0.0), // holds the machine
            JobSpec {
                priority: 5,
                seed: 1,
                ..JobSpec::new(16, 1.0)
            }, // queued
            JobSpec {
                priority: 0,
                seed: 2,
                deadline: Some(9_000.0),
                ..JobSpec::new(16, 2.0)
            }, // arrival: lower priority than the queued job → sheds itself
            JobSpec {
                priority: 9,
                seed: 3,
                ..JobSpec::new(16, 3.0)
            }, // arrival: outranks the queued job → sheds it instead
        ];
        let report = Scheduler::new(&m, cfg).run(&jobs, &PriorityFirst).unwrap();
        assert!(report.rejected.is_empty(), "sheds are never silent drops");
        let shed_ids: Vec<usize> = report.shed.iter().map(|s| s.id).collect();
        assert_eq!(shed_ids, vec![2, 1]);
        let done_ids: Vec<usize> = report.records.iter().map(|r| r.id).collect();
        assert_eq!(done_ids, vec![0, 3]);
        // The CSV separates shed rows (shed = 1) from completions, and
        // a deadlined shed reads as a miss while an undeadlined one is
        // `na`.
        let csv = report.to_csv();
        let shed_rows: Vec<&str> = csv.lines().filter(|l| l.ends_with(",1")).collect();
        assert_eq!(shed_rows.len(), 2);
        assert!(shed_rows[0].starts_with("2,16,") && shed_rows[0].ends_with(",0,1"));
        assert!(shed_rows[1].starts_with("1,16,") && shed_rows[1].ends_with(",na,1"));
        assert!(report.summary().contains("2 shed"));
    }

    #[test]
    fn policy_ranks_once_per_enqueue_never_per_placement_pass() {
        /// EDF that counts its `rank` calls.
        struct Counting(std::cell::Cell<usize>);
        impl Policy for Counting {
            fn name(&self) -> &'static str {
                "counting"
            }
            fn rank(&self, job: &QueuedJob, seq: u64) -> u64 {
                self.0.set(self.0.get() + 1);
                crate::policy::EarliestDeadlineFirst.rank(job, seq)
            }
        }
        // 40 jobs at once on 16 ranks: a deep queue that every one of
        // the ≥ 40 completion events re-examines.
        let m = machine();
        let jobs: Vec<JobSpec> = (0..40)
            .map(|i| JobSpec {
                seed: i,
                deadline: Some(1e6 - i as f64),
                ..JobSpec::new([8, 16, 32][i as usize % 3], 0.0)
            })
            .collect();
        let policy = Counting(std::cell::Cell::new(0));
        let report = Scheduler::new(&m, config()).run(&jobs, &policy).unwrap();
        assert_eq!(report.records.len(), 40);
        assert!(report.timeline.len() > 40, "many placement passes");
        assert_eq!(policy.0.get(), 40, "one rank per enqueue");
    }

    #[test]
    fn generated_workload_runs_clean_end_to_end() {
        let m = machine();
        let jobs = Workload::poisson(12, 1.0e5, &[(8, 2.0), (16, 1.0), (32, 1.0)], 99).generate();
        let report = Scheduler::new(&m, config()).run(&jobs, &Fifo).unwrap();
        assert_eq!(report.records.len(), 12);
        assert!(report.utilization() > 0.0 && report.utilization() <= 1.0 + 1e-12);
        assert!(report.makespan > 0.0);
    }
}
