//! Latency accounting and service-level objectives.
//!
//! A service absorbing open-loop traffic is judged on its latency
//! *tail*, not its mean: one convoy behind a whole-machine multiply
//! barely moves the average but blows p99 for every tiny job caught
//! behind it.  This module provides the three pieces of that
//! judgement:
//!
//! * [`Percentiles`] — a streaming collector giving **exact**
//!   nearest-rank percentiles (p50/p99/p999); property-tested against
//!   a naive sort oracle;
//! * [`JobClasses`] — a size-threshold classifier so interactive
//!   small GEMMs and batch large ones are scored separately;
//! * [`Slo`] / [`SloOutcome`] — per-class percentile targets with
//!   attainment verdicts and per-job violation counts.
//!
//! [`analyze`] rolls a finished [`ServiceReport`] into per-class
//! latency statistics (the queue-wait / service split from
//! [`JobRecord`]) plus SLO verdicts, and renders both as
//! deterministic CSV for the golden-pinned service bench.

use std::fmt::Write as _;

use crate::job::JobRecord;
use crate::report::ServiceReport;

/// Streaming collector of exact percentiles.
///
/// Values are kept in a sorted vector (binary-search insertion), so a
/// percentile query is exact — the *nearest-rank* method: for `0 < q ≤
/// 1` over `N` samples, the percentile is the `⌈q·N⌉`-th smallest
/// sample.  Exactness is what lets the golden bench pin tail latencies
/// bit-for-bit; an approximate sketch would drift across platforms.
/// Insertion is `O(N)` in the worst case, which is fine at the
/// thousands-of-jobs scale the simulator runs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Percentiles {
    sorted: Vec<f64>,
}

impl Percentiles {
    /// An empty collector.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert one sample, keeping the store sorted.  NaN is rejected
    /// (a latency is always a real number) so ordering stays total.
    pub fn push(&mut self, x: f64) {
        assert!(!x.is_nan(), "latency samples cannot be NaN");
        let i = self.sorted.partition_point(|&y| y < x);
        self.sorted.insert(i, x);
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the collector is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Exact nearest-rank percentile: the `⌈q·N⌉`-th smallest sample
    /// (`q` in `(0, 1]`; `q = 0` gives the minimum).  `None` when no
    /// samples have been pushed.
    #[must_use]
    pub fn percentile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must lie in [0, 1]");
        if self.sorted.is_empty() {
            return None;
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        Some(self.sorted[rank.max(1) - 1])
    }

    /// Median (`p50`), 0 when empty.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.percentile(0.50).unwrap_or(0.0)
    }

    /// 99th percentile, 0 when empty.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.percentile(0.99).unwrap_or(0.0)
    }

    /// 99.9th percentile, 0 when empty.
    #[must_use]
    pub fn p999(&self) -> f64 {
        self.percentile(0.999).unwrap_or(0.0)
    }

    /// Arithmetic mean, 0 when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Largest sample, 0 when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }
}

/// Size-threshold job classifier: ascending `(name, max_n)` buckets
/// plus a catch-all for everything larger.  Classes partition the
/// size axis, so every job lands in exactly one.
#[derive(Debug, Clone, PartialEq)]
pub struct JobClasses {
    buckets: Vec<(String, usize)>,
    rest: String,
}

impl JobClasses {
    /// Classifier with `buckets` as ascending `(name, max_n)`
    /// thresholds (inclusive) and `rest` naming everything above the
    /// last threshold.
    ///
    /// # Panics
    /// Panics when thresholds are not strictly ascending — overlapping
    /// buckets would make classification ambiguous.
    #[must_use]
    pub fn by_size(buckets: &[(&str, usize)], rest: &str) -> Self {
        assert!(
            buckets.windows(2).all(|w| w[0].1 < w[1].1),
            "class thresholds must be strictly ascending"
        );
        Self {
            buckets: buckets
                .iter()
                .map(|&(name, max_n)| (name.to_string(), max_n))
                .collect(),
            rest: rest.to_string(),
        }
    }

    /// The default interactive/standard/batch split for the service's
    /// usual size ladders: `n ≤ 16` interactive, `n ≤ 64` standard,
    /// larger is batch.
    #[must_use]
    pub fn default_split() -> Self {
        Self::by_size(&[("interactive", 16), ("standard", 64)], "batch")
    }

    /// Class name for a job of order `n`.
    #[must_use]
    pub fn classify(&self, n: usize) -> &str {
        self.buckets
            .iter()
            .find(|&&(_, max_n)| n <= max_n)
            .map_or(self.rest.as_str(), |(name, _)| name.as_str())
    }

    /// Every class name, bucket order then the catch-all — the fixed
    /// row order of the per-class CSV.
    #[must_use]
    pub fn names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.buckets.iter().map(|(n, _)| n.as_str()).collect();
        names.push(self.rest.as_str());
        names
    }
}

/// A service-level objective: at quantile `q`, the sojourn latency of
/// jobs in `class` must not exceed `target`.
#[derive(Debug, Clone, PartialEq)]
pub struct Slo {
    /// Job class the objective applies to (a [`JobClasses`] name).
    pub class: String,
    /// Quantile in `(0, 1]` — 0.99 reads "p99".
    pub q: f64,
    /// Sojourn budget at that quantile, in virtual-time units.
    pub target: f64,
}

impl Slo {
    /// `Slo { class, q, target }` without the struct noise.
    #[must_use]
    pub fn new(class: &str, q: f64, target: f64) -> Self {
        Self {
            class: class.to_string(),
            q,
            target,
        }
    }
}

/// Verdict of one [`Slo`] over one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SloOutcome {
    /// The objective scored.
    pub slo: Slo,
    /// Jobs of the class that completed.
    pub jobs: usize,
    /// Measured sojourn at the objective's quantile (`None` when no
    /// job of the class ran — vacuously attained).
    pub observed: Option<f64>,
    /// Whether the objective held: `observed ≤ target`.
    pub attained: bool,
    /// Individual jobs of the class whose sojourn exceeded the target
    /// (a finer signal than the single quantile verdict: an attained
    /// p99 SLO still leaves up to 1 % of jobs over budget).
    pub violations: usize,
}

/// Per-class latency statistics over one run: the queue / service
/// split and the sojourn tail.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassStats {
    /// Class name.
    pub class: String,
    /// Completed jobs in the class.
    pub jobs: usize,
    /// Mean time class members spent queued (the `queue_wait` side of
    /// the completion split).
    pub mean_queue_wait: f64,
    /// Mean time class members spent in service.
    pub mean_service: f64,
    /// Sojourn (end-to-end latency) percentiles.
    pub sojourn: Percentiles,
}

/// [`analyze`]'s result: per-class statistics plus SLO verdicts.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// One entry per class, in [`JobClasses::names`] order (empty
    /// classes included, so the CSV shape is fixed).
    pub classes: Vec<ClassStats>,
    /// One verdict per submitted [`Slo`], in submission order.
    pub outcomes: Vec<SloOutcome>,
}

impl SloReport {
    /// Whether every objective held.
    #[must_use]
    pub fn all_attained(&self) -> bool {
        self.outcomes.iter().all(|o| o.attained)
    }

    /// Deterministic per-class CSV:
    /// `class,jobs,mean_queue_wait,mean_service,p50,p99,p999,max`.
    #[must_use]
    pub fn class_csv(&self) -> String {
        let mut out = String::from("class,jobs,mean_queue_wait,mean_service,p50,p99,p999,max\n");
        for c in &self.classes {
            let _ = writeln!(
                out,
                "{},{},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
                c.class,
                c.jobs,
                c.mean_queue_wait,
                c.mean_service,
                c.sojourn.p50(),
                c.sojourn.p99(),
                c.sojourn.p999(),
                c.sojourn.max(),
            );
        }
        out
    }

    /// Deterministic per-SLO CSV:
    /// `class,q,target,jobs,observed,attained,violations`.
    #[must_use]
    pub fn slo_csv(&self) -> String {
        let mut out = String::from("class,q,target,jobs,observed,attained,violations\n");
        for o in &self.outcomes {
            let _ = writeln!(
                out,
                "{},{},{:.3},{},{:.3},{},{}",
                o.slo.class,
                o.slo.q,
                o.slo.target,
                o.jobs,
                o.observed.unwrap_or(0.0),
                o.attained,
                o.violations,
            );
        }
        out
    }
}

/// Score a finished run: classify every completed job, collect the
/// queue/service/sojourn statistics per class, and render a verdict
/// for each objective.  An SLO over a class no job belonged to is
/// vacuously attained (`observed: None`).
#[must_use]
pub fn analyze(report: &ServiceReport, classes: &JobClasses, slos: &[Slo]) -> SloReport {
    let stats_for = |name: &str| {
        let members: Vec<&JobRecord> = report
            .records
            .iter()
            .filter(|r| classes.classify(r.spec.n) == name)
            .collect();
        let mut sojourn = Percentiles::new();
        for r in &members {
            sojourn.push(r.sojourn());
        }
        let jobs = members.len();
        let mean = |f: fn(&JobRecord) -> f64| {
            if jobs == 0 {
                0.0
            } else {
                members.iter().map(|r| f(r)).sum::<f64>() / jobs as f64
            }
        };
        ClassStats {
            class: name.to_string(),
            jobs,
            mean_queue_wait: mean(|r| r.queue_wait),
            mean_service: mean(JobRecord::service_time),
            sojourn,
        }
    };
    let class_stats: Vec<ClassStats> = classes.names().iter().map(|n| stats_for(n)).collect();

    let outcomes = slos
        .iter()
        .map(|slo| {
            let stats = class_stats.iter().find(|c| c.class == slo.class);
            let (jobs, observed, violations) = stats.map_or((0, None, 0), |c| {
                (
                    c.jobs,
                    c.sojourn.percentile(slo.q),
                    report
                        .records
                        .iter()
                        .filter(|r| {
                            classes.classify(r.spec.n) == slo.class && r.sojourn() > slo.target
                        })
                        .count(),
                )
            });
            SloOutcome {
                slo: slo.clone(),
                jobs,
                observed,
                attained: observed.is_none_or(|x| x <= slo.target),
                violations,
            }
        })
        .collect();

    SloReport {
        classes: class_stats,
        outcomes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobSpec;
    use model::Algorithm;

    #[test]
    fn percentiles_match_nearest_rank_by_hand() {
        let mut p = Percentiles::new();
        for x in [5.0, 1.0, 4.0, 2.0, 3.0] {
            p.push(x);
        }
        // Sorted: [1, 2, 3, 4, 5]; ⌈0.5·5⌉ = 3rd smallest = 3.
        assert_eq!(p.percentile(0.5), Some(3.0));
        assert_eq!(p.percentile(1.0), Some(5.0));
        assert_eq!(p.percentile(0.0), Some(1.0), "q = 0 is the minimum");
        // ⌈0.99·5⌉ = 5th.
        assert_eq!(p.p99(), 5.0);
        assert_eq!(p.mean(), 3.0);
        assert_eq!(p.max(), 5.0);
        assert_eq!(p.len(), 5);
    }

    #[test]
    fn empty_collector_yields_none_and_zeros() {
        let p = Percentiles::new();
        assert!(p.is_empty());
        assert_eq!(p.percentile(0.5), None);
        assert_eq!(p.p50(), 0.0);
        assert_eq!(p.p999(), 0.0);
        assert_eq!(p.mean(), 0.0);
    }

    #[test]
    #[should_panic(expected = "NaN")]
    fn nan_samples_are_rejected() {
        Percentiles::new().push(f64::NAN);
    }

    #[test]
    fn classes_partition_the_size_axis() {
        let c = JobClasses::default_split();
        assert_eq!(c.classify(8), "interactive");
        assert_eq!(c.classify(16), "interactive");
        assert_eq!(c.classify(17), "standard");
        assert_eq!(c.classify(64), "standard");
        assert_eq!(c.classify(512), "batch");
        assert_eq!(c.names(), vec!["interactive", "standard", "batch"]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn overlapping_thresholds_are_rejected() {
        let _ = JobClasses::by_size(&[("a", 16), ("b", 16)], "rest");
    }

    fn record(id: usize, n: usize, arrival: f64, start: f64, dur: f64) -> JobRecord {
        JobRecord {
            id,
            spec: JobSpec::new(n, arrival),
            p: 1,
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
            queue_wait: start - arrival,
            start,
            finish: start + dur,
        }
    }

    fn report(records: Vec<JobRecord>) -> ServiceReport {
        ServiceReport {
            policy: "fifo".into(),
            sizing: "iso".into(),
            machine_p: 16,
            makespan: records.iter().map(|r| r.finish).fold(0.0, f64::max),
            records,
            rejected: vec![],
            shed: vec![],
            timeline: vec![],
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

    #[test]
    fn analyze_scores_classes_and_slos() {
        // Two interactive jobs (sojourns 100 and 300), one batch job.
        let rep = report(vec![
            record(0, 8, 0.0, 0.0, 100.0),
            record(1, 8, 0.0, 200.0, 100.0),
            record(2, 128, 0.0, 0.0, 5_000.0),
        ]);
        let classes = JobClasses::default_split();
        let slos = [
            Slo::new("interactive", 0.5, 150.0),  // p50 = 100 ≤ 150: holds
            Slo::new("interactive", 0.99, 150.0), // p99 = 300 > 150: fails
            Slo::new("standard", 0.99, 1.0),      // no jobs: vacuous
        ];
        let out = analyze(&rep, &classes, &slos);

        assert_eq!(out.classes.len(), 3);
        let interactive = &out.classes[0];
        assert_eq!(interactive.jobs, 2);
        assert_eq!(interactive.mean_queue_wait, 100.0);
        assert_eq!(interactive.mean_service, 100.0);
        assert_eq!(interactive.sojourn.p50(), 100.0);
        assert_eq!(interactive.sojourn.p99(), 300.0);
        assert_eq!(out.classes[1].jobs, 0, "standard class is empty");
        assert_eq!(out.classes[2].jobs, 1);

        assert!(out.outcomes[0].attained);
        assert!(!out.outcomes[1].attained);
        assert_eq!(out.outcomes[1].violations, 1, "one job over 150");
        assert!(out.outcomes[2].attained, "vacuous SLO holds");
        assert_eq!(out.outcomes[2].observed, None);
        assert!(!out.all_attained());

        // CSV shapes are fixed: header + one row per class / SLO.
        assert_eq!(out.class_csv().lines().count(), 4);
        assert_eq!(out.slo_csv().lines().count(), 4);
        assert!(out.class_csv().starts_with("class,jobs,"));
        assert!(out.slo_csv().lines().nth(2).unwrap().contains("false"));
    }
}
