//! Service metrics: per-job records, aggregates, deterministic CSV.

use std::fmt::Write as _;

use crate::job::{JobRecord, JobSpec};

/// One sample of the service's utilisation/backlog time-series: the
/// state after the placement pass at one scheduler event.  Samples
/// are recorded on change only, so the series is a compact step
/// function of virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimePoint {
    /// Virtual time of the event.
    pub t: f64,
    /// Ranks allocated to placements (busy or quarantined blocks do
    /// not count — this is work, not unavailability).
    pub busy_ranks: usize,
    /// Jobs waiting in the queue (the backlog).
    pub queued: usize,
}

/// A job the admission controller shed under overload: a structured
/// outcome, not a silent drop — sheds appear in the report's CSV with
/// `shed = 1` so SLO analysis can separate them from deadline misses.
#[derive(Debug, Clone, PartialEq)]
pub struct ShedRecord {
    /// Workload index of the shed job.
    pub id: usize,
    /// The job as submitted.
    pub spec: JobSpec,
    /// Virtual time the shed decision was taken (the arrival that
    /// found the queue full).
    pub t: f64,
}

/// Everything the service measured over one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceReport {
    /// Policy name (see [`crate::policy::Policy::name`]).
    pub policy: String,
    /// Sizing-mode label (see [`crate::sizing::SizingMode::label`]).
    pub sizing: String,
    /// Machine size the service ran on.
    pub machine_p: usize,
    /// Completed jobs in completion order.
    pub records: Vec<JobRecord>,
    /// Jobs refused at admission (queue full), in arrival order —
    /// the historical silent-bounce path, used when
    /// [`crate::scheduler::Config::shed`] is off.
    pub rejected: Vec<JobSpec>,
    /// Jobs shed by policy-aware admission control (queue full with
    /// [`crate::scheduler::Config::shed`] on): the lowest-value /
    /// latest-deadline candidate goes, which may be an already-queued
    /// job rather than the arrival.
    pub shed: Vec<ShedRecord>,
    /// Utilisation/backlog time-series sampled at scheduler events
    /// (on change only) — see [`TimePoint`] and
    /// [`ServiceReport::timeline_csv`].
    pub timeline: Vec<TimePoint>,
    /// Time the last job finished (0 for an empty run).
    pub makespan: f64,
    /// Placements lost to fail-stop deaths beyond the spare budget and
    /// re-submitted onto fresh partitions.
    pub requeues: usize,
    /// Ranks withheld from the buddy pool because a job died on their
    /// partition and the death schedule has not yet passed (still
    /// quarantined when the service drained).
    pub quarantined_ranks: usize,
    /// Ranks handed back to the pool after their partition's death
    /// schedule fully passed (quarantine → un-quarantine round trips).
    pub unquarantined_ranks: usize,
    /// Rank-time consumed by placements that ended in a loss
    /// (`Σ p_block · t_death`): capacity the machine spent on work that
    /// had to be redone.
    pub wasted_rank_time: f64,
    /// Proactive live migrations: placements evacuated onto fresh
    /// blocks because the detector's missed-heartbeat streak crossed
    /// the migration threshold before the degradation became a loss.
    /// Migrated work is checkpointed and resumed, so it does *not*
    /// count into [`ServiceReport::wasted_rank_time`].
    pub migrations: usize,
    /// Words of checkpointed state (`3n²` per migration: the A, B and
    /// C blocks) carried over buddy links by proactive migrations.
    pub migration_transfer_words: u64,
    /// Placements paused mid-flight so a more urgent job could take
    /// their aligned block; the paused work is checkpointed and
    /// resumed, so it does not count into
    /// [`ServiceReport::wasted_rank_time`].
    pub preemptions: usize,
    /// Words of checkpointed state (`3n²` per preemption) drained off
    /// preempted blocks.
    pub preemption_transfer_words: u64,
    /// Elastic grows: running placements checkpointed and re-placed on
    /// their freed buddy block (double the partition).
    pub grows: usize,
    /// Elastic shrinks: queued jobs re-sized down onto the largest
    /// free block at admission time instead of shedding the arrival.
    pub shrinks: usize,
}

impl ServiceReport {
    /// Completed jobs per unit of virtual time.
    #[must_use]
    pub fn throughput_jobs(&self) -> f64 {
        if self.makespan == 0.0 {
            return 0.0;
        }
        self.records.len() as f64 / self.makespan
    }

    /// Useful operations (`Σ n³`) per unit of virtual time — the
    /// service-level figure of merit the sizing policies compete on.
    #[must_use]
    pub fn throughput_flops(&self) -> f64 {
        if self.makespan == 0.0 {
            return 0.0;
        }
        self.records.iter().map(|r| r.spec.work()).sum::<f64>() / self.makespan
    }

    /// Fraction of the machine's rank-time actually allocated to jobs:
    /// `Σ p_job · T_job / (P · makespan)`.  Bounded by 1 because
    /// partitions are disjoint.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        if self.makespan == 0.0 {
            return 0.0;
        }
        let busy: f64 = self
            .records
            .iter()
            .map(|r| r.p as f64 * r.actual_time)
            .sum();
        busy / (self.machine_p as f64 * self.makespan)
    }

    /// Mean queue wait over completed jobs.
    #[must_use]
    pub fn mean_wait(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records.iter().map(JobRecord::wait).sum::<f64>() / self.records.len() as f64
    }

    /// Mean relative prediction error `(actual − predicted) / actual`.
    #[must_use]
    pub fn mean_prediction_error(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        self.records
            .iter()
            .map(JobRecord::prediction_error)
            .sum::<f64>()
            / self.records.len() as f64
    }

    /// Total heartbeat words emitted by completed runs — the service's
    /// failure-detection bill under the fault plan's detection config.
    #[must_use]
    pub fn heartbeat_words(&self) -> u64 {
        self.records.iter().map(|r| r.heartbeat_words).sum()
    }

    /// Of the jobs that carried deadlines, the count that met them and
    /// the total count.
    #[must_use]
    pub fn deadlines(&self) -> (usize, usize) {
        let with: Vec<bool> = self
            .records
            .iter()
            .filter_map(JobRecord::met_deadline)
            .collect();
        (with.iter().filter(|&&m| m).count(), with.len())
    }

    /// Deterministic per-job CSV (one header, one row per completed
    /// job in completion order, then one row per shed job in shed
    /// order with `shed = 1`).  Two runs over the same trace produce
    /// byte-identical output — the property tests compare these bytes.
    /// `deadline_met` is `1`/`0` for deadlined jobs and `na` without
    /// one, so SLO analysis can separate misses from sheds.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "id,n,arrival,priority,p,base,algorithm,resilient,predicted,actual,attempts,recoveries,migrations,preemptions,resizes,heartbeat_words,batch,start,finish,queue_wait,service,sojourn,efficiency,deadline_met,shed\n",
        );
        for r in &self.records {
            let deadline_met = match r.met_deadline() {
                Some(true) => "1",
                Some(false) => "0",
                None => "na",
            };
            let _ = writeln!(
                out,
                "{},{},{:.3},{},{},{},{},{},{:.3},{:.3},{},{},{},{},{},{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.4},{},0",
                r.id,
                r.spec.n,
                r.spec.arrival,
                r.spec.priority,
                r.p,
                r.base,
                r.algorithm,
                r.resilient,
                r.predicted_time,
                r.actual_time,
                r.attempts,
                r.recoveries,
                r.migrations,
                r.preemptions,
                r.resizes,
                r.heartbeat_words,
                r.batch,
                r.start,
                r.finish,
                r.queue_wait,
                r.service_time(),
                r.sojourn(),
                r.efficiency(),
                deadline_met,
            );
        }
        for s in &self.shed {
            // A shed job never ran: placement columns are zeroed, and
            // a deadline it carried is a miss by construction.
            let deadline_met = if s.spec.deadline.is_some() { "0" } else { "na" };
            let _ = writeln!(
                out,
                "{},{},{:.3},{},0,0,-,false,0.000,0.000,0,0,0,0,0,0,0,{:.3},{:.3},0.000,0.000,0.000,0.0000,{},1",
                s.id, s.spec.n, s.spec.arrival, s.spec.priority, s.t, s.t, deadline_met,
            );
        }
        out
    }

    /// Deterministic utilisation/backlog time-series CSV:
    /// `t,busy_ranks,queued,utilization` with instantaneous
    /// utilisation `busy_ranks / P`.
    #[must_use]
    pub fn timeline_csv(&self) -> String {
        let mut out = String::from("t,busy_ranks,queued,utilization\n");
        for p in &self.timeline {
            let _ = writeln!(
                out,
                "{:.3},{},{},{:.4}",
                p.t,
                p.busy_ranks,
                p.queued,
                p.busy_ranks as f64 / self.machine_p as f64,
            );
        }
        out
    }

    /// One-line human summary.
    #[must_use]
    pub fn summary(&self) -> String {
        let mut line = format!(
            "{}/{}: {} jobs ({} rejected), makespan {:.0}, util {:.2}, {:.1} ops/unit, mean wait {:.0}",
            self.policy,
            self.sizing,
            self.records.len(),
            self.rejected.len(),
            self.makespan,
            self.utilization(),
            self.throughput_flops(),
            self.mean_wait(),
        );
        if self.requeues > 0 || self.quarantined_ranks > 0 || self.unquarantined_ranks > 0 {
            let _ = write!(
                line,
                ", {} requeued, {} ranks quarantined, {} returned",
                self.requeues, self.quarantined_ranks, self.unquarantined_ranks
            );
        }
        if self.migrations > 0 {
            let _ = write!(
                line,
                ", {} migrated ({} words)",
                self.migrations, self.migration_transfer_words
            );
        }
        if self.preemptions > 0 {
            let _ = write!(
                line,
                ", {} preempted ({} words)",
                self.preemptions, self.preemption_transfer_words
            );
        }
        if self.grows > 0 || self.shrinks > 0 {
            let _ = write!(line, ", {} grown, {} shrunk", self.grows, self.shrinks);
        }
        if !self.shed.is_empty() {
            let _ = write!(line, ", {} shed", self.shed.len());
        }
        line
    }

    /// Assert what every report over `jobs` submitted jobs satisfies:
    /// each job ends once (completed, rejected or shed); no two records
    /// hold a rank over overlapping `[start, finish)`; arrival ≤ start ≤
    /// finish; the timeline never steps back; `makespan` is the latest
    /// finish.  [`crate::Scheduler::run`] calls it in debug builds.
    ///
    /// # Panics
    /// On the first broken invariant, naming it.
    pub fn check(&self, jobs: usize) {
        let ended = self.records.len() + self.rejected.len() + self.shed.len();
        assert_eq!(ended, jobs, "{ended} terminal states for {jobs} jobs");
        let mut ids: Vec<usize> = self.records.iter().map(|r| r.id).collect();
        ids.extend(self.shed.iter().map(|s| s.id));
        ids.sort_unstable();
        assert!(ids.windows(2).all(|w| w[0] < w[1]), "a job ends twice");
        let mut held = Vec::new();
        for r in &self.records {
            let id = r.id;
            assert!(
                r.spec.arrival <= r.start,
                "job {id} starts before it arrives"
            );
            assert!(r.start <= r.finish, "job {id} finishes before it starts");
            held.extend((r.base..r.base + r.p).map(|rank| (rank, r.start, r.finish, id)));
        }
        held.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
        for w in held.windows(2) {
            let ((rank, _, finish, a), (next, start, _, b)) = (w[0], w[1]);
            assert!(
                rank != next || start >= finish,
                "jobs {a} and {b} overlap on rank {rank}"
            );
        }
        let steps_back = self.timeline.windows(2).any(|w| w[1].t < w[0].t);
        assert!(!steps_back, "the timeline steps back");
        let last = self.records.iter().map(|r| r.finish).fold(0.0, f64::max);
        assert_eq!(self.makespan, last, "makespan is not the latest finish");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use model::Algorithm;

    fn report() -> ServiceReport {
        let rec = |id: usize, p: usize, start: f64, dur: f64| JobRecord {
            id,
            spec: JobSpec::new(16, 0.0),
            p,
            base: 0,
            algorithm: Algorithm::Cannon,
            resilient: false,
            predicted_time: dur,
            actual_time: dur,
            attempts: 1,
            recoveries: 0,
            migrations: 0,
            preemptions: 0,
            resizes: 0,
            heartbeat_words: 0,
            batch: 0,
            queue_wait: start,
            start,
            finish: start + dur,
        };
        ServiceReport {
            policy: "fifo".into(),
            sizing: "whole".into(),
            machine_p: 8,
            records: vec![rec(0, 4, 0.0, 100.0), rec(1, 4, 0.0, 100.0)],
            rejected: vec![],
            shed: vec![],
            timeline: vec![
                TimePoint {
                    t: 0.0,
                    busy_ranks: 8,
                    queued: 0,
                },
                TimePoint {
                    t: 100.0,
                    busy_ranks: 0,
                    queued: 0,
                },
            ],
            makespan: 100.0,
            requeues: 0,
            quarantined_ranks: 0,
            unquarantined_ranks: 0,
            wasted_rank_time: 0.0,
            migrations: 0,
            migration_transfer_words: 0,
            preemptions: 0,
            preemption_transfer_words: 0,
            grows: 0,
            shrinks: 0,
        }
    }

    /// [`report`] with job 1 moved onto ranks of its own: a report
    /// every check accepts.
    fn consistent() -> ServiceReport {
        let mut r = report();
        r.records[1].base = 4;
        r
    }

    #[test]
    fn check_accepts_a_consistent_report() {
        consistent().check(2);
        let mut back_to_back = consistent();
        back_to_back.records[1].base = 0;
        back_to_back.records[1].start = 100.0;
        back_to_back.records[1].finish = 150.0;
        back_to_back.makespan = 150.0;
        back_to_back.check(2);
    }

    #[test]
    fn check_refuses_every_broken_invariant() {
        type Break = fn(&mut ServiceReport);
        let cases: [(&str, Break); 7] = [
            ("terminal states", |r| r.records.truncate(1)),
            ("ends twice", |r| r.records[1].id = 0),
            ("overlap on rank 2", |r| r.records[1].base = 2),
            ("starts before it arrives", |r| {
                r.records[0].spec.arrival = 1.0
            }),
            ("finishes before it starts", |r| r.records[0].finish = -1.0),
            ("timeline steps back", |r| r.timeline[1].t = -1.0),
            ("makespan", |r| r.makespan = 120.0),
        ];
        for (what, breaks) in cases {
            let mut r = consistent();
            breaks(&mut r);
            let panic = std::panic::catch_unwind(|| r.check(2)).expect_err(what);
            let msg = panic
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                .unwrap_or_default();
            assert!(msg.contains(what), "{what}: {msg}");
        }
    }

    #[test]
    fn aggregates() {
        let r = report();
        assert_eq!(r.throughput_jobs(), 0.02);
        assert_eq!(r.throughput_flops(), 2.0 * 4096.0 / 100.0);
        assert_eq!(r.utilization(), 1.0);
        assert_eq!(r.mean_wait(), 0.0);
        assert_eq!(r.mean_prediction_error(), 0.0);
        assert_eq!(r.deadlines(), (0, 0));
    }

    #[test]
    fn empty_report_is_all_zeros() {
        let r = ServiceReport {
            records: vec![],
            makespan: 0.0,
            ..report()
        };
        assert_eq!(r.throughput_jobs(), 0.0);
        assert_eq!(r.utilization(), 0.0);
        assert_eq!(r.mean_wait(), 0.0);
    }

    #[test]
    fn csv_has_header_and_one_row_per_job() {
        let csv = report().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("id,n,arrival"));
        assert!(lines[0].contains(",queue_wait,service,sojourn,"));
        assert!(lines[0].ends_with(",deadline_met,shed"));
        assert!(lines[1].starts_with("0,16,"));
        // queue_wait 0, service 100, sojourn 100 for the first job;
        // no deadline, not shed.
        assert!(lines[1].contains(",0.000,100.000,100.000,"));
        assert!(lines[1].ends_with(",na,0"));
    }

    #[test]
    fn csv_appends_shed_rows_with_the_shed_flag() {
        let mut r = report();
        r.shed.push(ShedRecord {
            id: 7,
            spec: JobSpec {
                deadline: Some(500.0),
                ..JobSpec::new(32, 40.0)
            },
            t: 40.0,
        });
        r.shed.push(ShedRecord {
            id: 9,
            spec: JobSpec::new(8, 60.0),
            t: 60.0,
        });
        let csv = r.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 5);
        // A deadlined shed is a miss; an undeadlined one is `na`.
        // Both carry the shed flag.
        assert!(lines[3].starts_with("7,32,40.000,"));
        assert!(lines[3].ends_with(",0,1"));
        assert!(lines[4].starts_with("9,8,60.000,"));
        assert!(lines[4].ends_with(",na,1"));
        // Column count matches the header on every row.
        let cols = lines[0].split(',').count();
        for line in &lines[1..] {
            assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        }
    }

    #[test]
    fn timeline_csv_renders_the_series() {
        let csv = report().timeline_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], "t,busy_ranks,queued,utilization");
        assert_eq!(lines[1], "0.000,8,0,1.0000");
        assert_eq!(lines[2], "100.000,0,0,0.0000");
    }
}
