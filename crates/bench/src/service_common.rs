//! Shared harness for the `service` experiment: drive the `gemmd`
//! online scheduler with open-loop [`gemmd::Traffic`] and sweep
//! utilisation × job-size mix × queue policy, tabulating tail-latency
//! percentiles per run.
//!
//! The headline comparison is deadline-ordered dispatch plus small-GEMM
//! batching (`edf+batch`) against FIFO and shortest-predicted-time
//! under sustained high utilisation: with a per-placement dispatch
//! overhead, coalescing tiny same-shape jobs pays that overhead once
//! per batch instead of once per job, and EDF keeps tight-deadline
//! interactive jobs out of FIFO convoys without SPT's starvation of
//! the large jobs that dominate the tail.  `service --enforce` asserts
//! the `edf+batch` p99 win on the most contended sweep point.

use gemmd::policy::policy_by_name;
use gemmd::{heavy_tailed_mix, Batching, Config, JobSpec, Percentiles, Scheduler, ServiceReport};
use mmsim::{CostModel, Machine, Topology};

use crate::ResultTable;

/// Job edge sizes every mix draws from; under the default
/// isoefficiency rule on the nCUBE2-like constants, `n = 8` right-sizes
/// to a single rank (and is therefore batchable), 16 to two, 32 to
/// four.
pub const SIZES: &[usize] = &[8, 16, 32];

/// The policy column of the sweep: queue policy name × whether the
/// small-GEMM batcher is armed.  `edf+batch` is the headline variant.
pub const VARIANTS: &[(&str, bool)] = &[
    ("fifo", false),
    ("spt", false),
    ("edf", false),
    ("edf+batch", true),
];

/// One sweep configuration.
#[derive(Debug, Clone)]
pub struct ServiceSweep {
    /// Hypercube dimension of the service machine (`p = 2^dim`).
    pub dim: u32,
    /// Jobs per run.
    pub jobs: usize,
    /// Mean interarrival gaps swept (virtual time units); the smallest
    /// gap is the high-utilisation point the enforce gates examine.
    pub gaps: Vec<f64>,
    /// Named size mixes: `(name, pareto_alpha)` over [`SIZES`] — the
    /// larger the `alpha`, the heavier the tiny-job tail.
    pub mixes: Vec<(&'static str, f64)>,
    /// Traffic master seed.
    pub seed: u64,
    /// Per-placement dispatch overhead (the quantity batching
    /// amortises).
    pub overhead: f64,
    /// Deadline slack factor: each job's deadline is
    /// `arrival + slack · n³`, so small jobs carry tight deadlines.
    pub deadline_slack: f64,
}

impl ServiceSweep {
    /// The full experiment: 16 ranks, three loads, two mixes.
    #[must_use]
    pub fn full(jobs: usize, seed: u64) -> Self {
        Self {
            dim: 4,
            jobs,
            gaps: vec![20.0, 120.0, 480.0],
            mixes: vec![("tiny", 2.0), ("balanced", 1.0)],
            seed,
            overhead: 500.0,
            deadline_slack: 8.0,
        }
    }

    /// The CI smoke run: the contended point only, few jobs.
    #[must_use]
    pub fn smoke(jobs: usize, seed: u64) -> Self {
        Self {
            dim: 4,
            jobs,
            gaps: vec![20.0],
            mixes: vec![("tiny", 2.0)],
            seed,
            overhead: 500.0,
            deadline_slack: 8.0,
        }
    }

    /// The most contended gap (the enforce gates' sweep point).
    ///
    /// # Panics
    /// Panics if the sweep has no gaps.
    #[must_use]
    pub fn high_gap(&self) -> f64 {
        self.gaps
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
            .min(self.gaps[0])
    }

    /// The service machine.
    #[must_use]
    pub fn machine(&self) -> Machine {
        Machine::new(Topology::hypercube(self.dim), CostModel::ncube2())
    }

    /// The open-loop trace for one `(gap, alpha)` sweep point: a
    /// heavy-tailed size mix with a gentle diurnal swing, burst
    /// episodes, and slack-proportional deadlines.  Pure in the seed —
    /// the same point always generates the same bytes.
    ///
    /// # Panics
    /// Panics if the sweep parameters violate the traffic validators —
    /// a bug in the sweep definition, not a measurement.
    #[must_use]
    pub fn trace(&self, gap: f64, alpha: f64) -> Vec<JobSpec> {
        let period = (self.jobs as f64 * gap / 2.0).max(gap);
        gemmd::Traffic::new(self.jobs, gap, &heavy_tailed_mix(SIZES, alpha), self.seed)
            .expect("sweep traffic spec")
            .with_diurnal(period, 0.4)
            .expect("sweep diurnal")
            .with_bursts(2.0, 8.0 * gap, 24.0 * gap)
            .expect("sweep bursts")
            .with_deadline_slack(self.deadline_slack)
            .generate()
    }

    /// Scheduler config for one variant.  The armed batcher is kept
    /// shallow and strictly tiny: only the `n = 8` single-rank class
    /// coalesces (letting `n = 16` ride solo keeps a four-deep
    /// serialisation off the buddy space), at most two members share a
    /// rank, so a batch trades one extra service quantum of latency
    /// for half the dispatch overhead.
    #[must_use]
    pub fn config(&self, batched: bool) -> Config {
        let batching = Batching {
            limit: 8,
            max_n: 8,
            depth: 2,
        };
        Config {
            queue_cap: 10_000,
            verify: true,
            placement_overhead: self.overhead,
            batching: batched.then_some(batching),
            ..Config::default()
        }
    }
}

/// One completed sweep point.
#[derive(Debug)]
pub struct ServiceRow {
    /// Mean interarrival gap of the point.
    pub gap: f64,
    /// Mix name.
    pub mix: &'static str,
    /// Variant label (`fifo` / `spt` / `edf` / `edf+batch`).
    pub policy: &'static str,
    /// The scheduler's report.
    pub report: ServiceReport,
}

impl ServiceRow {
    /// Sojourn-time percentile tracker over the completed records.
    #[must_use]
    pub fn sojourns(&self) -> Percentiles {
        let mut p = Percentiles::new();
        for r in &self.report.records {
            p.push(r.sojourn());
        }
        p
    }

    /// How many records retired through a coalesced batch placement.
    #[must_use]
    pub fn coalesced(&self) -> usize {
        self.report.records.iter().filter(|r| r.batch > 0).count()
    }
}

/// Run one sweep point.  On top of [`VARIANTS`], the harness accepts
/// `edf+preempt` — `edf+batch` with preemptive gang rescheduling armed
/// (the `preemption` subcommand's headline variant; not part of the
/// `service` sweep, whose goldens predate it).
///
/// # Panics
/// Panics on an unknown policy name, a failed service run or a report
/// that fails [`gemmd::ServiceReport::check`] — those are bugs, not
/// measurements.
#[must_use]
pub fn run_point(
    sweep: &ServiceSweep,
    gap: f64,
    mix: &'static str,
    alpha: f64,
    variant: &'static str,
) -> ServiceRow {
    let (policy_name, batched, preempt) = match variant {
        "edf+batch" => ("edf", true, false),
        "edf+preempt" => ("edf", true, true),
        other => (other, false, false),
    };
    let policy =
        policy_by_name(policy_name).unwrap_or_else(|| panic!("unknown policy {policy_name}"));
    let machine = sweep.machine();
    let trace = sweep.trace(gap, alpha);
    let config = Config {
        preemption: preempt,
        ..sweep.config(batched)
    };
    let report = Scheduler::new(&machine, config)
        .run(&trace, policy.as_ref())
        .unwrap_or_else(|e| panic!("{variant} on {mix}@{gap}: {e}"));
    report.check(trace.len());
    ServiceRow {
        gap,
        mix,
        policy: variant,
        report,
    }
}

/// Run the whole sweep — every `(gap, mix, variant)` point, in sweep
/// order, parallelised across the host's cores (each run is internally
/// deterministic; only independent runs fan out).
#[must_use]
pub fn run_service_sweep(sweep: &ServiceSweep) -> Vec<ServiceRow> {
    let mut points = Vec::new();
    for &gap in &sweep.gaps {
        for &(mix, alpha) in &sweep.mixes {
            for &(variant, _) in VARIANTS {
                points.push((gap, mix, alpha, variant));
            }
        }
    }
    crate::parallel_sweep(points, |&(gap, mix, alpha, variant)| {
        run_point(sweep, gap, mix, alpha, variant)
    })
}

/// Tabulate one row per sweep point.
#[must_use]
pub fn tabulate(sweep: &ServiceSweep, rows: &[ServiceRow]) -> ResultTable {
    let mut table = ResultTable::new(
        format!(
            "gemmd online service sweep (p = {}, {} jobs/run, overhead {}, seed {})",
            1usize << sweep.dim,
            sweep.jobs,
            sweep.overhead,
            sweep.seed
        ),
        &[
            "gap",
            "mix",
            "policy",
            "jobs",
            "rejected",
            "coalesced",
            "deadlines_met",
            "utilization",
            "mean_queue_wait",
            "p50",
            "p99",
            "p999",
        ],
    );
    for row in rows {
        let s = row.sojourns();
        let (met, with) = row.report.deadlines();
        let mean_qw = if row.report.records.is_empty() {
            0.0
        } else {
            row.report.records.iter().map(|r| r.queue_wait).sum::<f64>()
                / row.report.records.len() as f64
        };
        table.push_row(vec![
            format!("{:.0}", row.gap),
            row.mix.to_string(),
            row.policy.to_string(),
            row.report.records.len().to_string(),
            row.report.rejected.len().to_string(),
            row.coalesced().to_string(),
            format!("{met}/{with}"),
            format!("{:.4}", row.report.utilization()),
            format!("{mean_qw:.1}"),
            format!("{:.1}", s.p50()),
            format!("{:.1}", s.p99()),
            format!("{:.1}", s.p999()),
        ]);
    }
    table
}

/// The acceptance checks `service --enforce` applies:
/// sane utilisation everywhere, no admission rejections, batching
/// actually exercised at the contended point, and — on every mix at
/// the most contended gap — `edf+batch` strictly beating both FIFO and
/// SPT on p99 sojourn.
///
/// # Errors
/// Returns a description of the first violated check.
pub fn check_service_rows(sweep: &ServiceSweep, rows: &[ServiceRow]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("service sweep produced no rows".into());
    }
    for row in rows {
        let util = row.report.utilization();
        if !(0.0..=1.0 + 1e-9).contains(&util) {
            return Err(format!(
                "{}/{}@{:.0}: utilization {util} out of [0, 1]",
                row.policy, row.mix, row.gap
            ));
        }
        if !row.report.rejected.is_empty() {
            return Err(format!(
                "{}/{}@{:.0}: {} rejections — queue_cap is meant to be ample",
                row.policy,
                row.mix,
                row.gap,
                row.report.rejected.len()
            ));
        }
    }
    let high = sweep.high_gap();
    let p99_of = |mix: &str, policy: &str| -> Result<f64, String> {
        rows.iter()
            .find(|r| r.gap == high && r.mix == mix && r.policy == policy)
            .map(|r| r.sojourns().p99())
            .ok_or_else(|| format!("no row for {policy}/{mix}@{high:.0}"))
    };
    for &(mix, _) in &sweep.mixes {
        let batch = p99_of(mix, "edf+batch")?;
        let fifo = p99_of(mix, "fifo")?;
        let spt = p99_of(mix, "spt")?;
        if batch >= fifo {
            return Err(format!(
                "edf+batch p99 {batch:.1} must beat fifo {fifo:.1} on {mix}@{high:.0}"
            ));
        }
        if batch >= spt {
            return Err(format!(
                "edf+batch p99 {batch:.1} must beat spt {spt:.1} on {mix}@{high:.0}"
            ));
        }
        let coalesced = rows
            .iter()
            .find(|r| r.gap == high && r.mix == mix && r.policy == "edf+batch")
            .map_or(0, ServiceRow::coalesced);
        if coalesced == 0 {
            return Err(format!(
                "edf+batch never coalesced a batch on {mix}@{high:.0} — the contended point is not contended"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> ServiceSweep {
        ServiceSweep {
            dim: 2,
            jobs: 10,
            gaps: vec![150.0],
            mixes: vec![("tiny", 2.0)],
            seed: 3,
            overhead: 400.0,
            deadline_slack: 8.0,
        }
    }

    #[test]
    fn trace_is_deterministic_and_sized() {
        let sweep = tiny_sweep();
        let one = sweep.trace(150.0, 2.0);
        let two = sweep.trace(150.0, 2.0);
        assert_eq!(one, two);
        assert_eq!(one.len(), sweep.jobs);
        assert!(one.iter().all(|j| SIZES.contains(&j.n)));
        assert!(one.iter().all(|j| j.deadline.is_some()));
    }

    #[test]
    fn sweep_produces_one_row_per_point_and_sane_metrics() {
        let sweep = tiny_sweep();
        let rows = run_service_sweep(&sweep);
        assert_eq!(rows.len(), VARIANTS.len());
        for row in &rows {
            assert_eq!(row.report.records.len(), sweep.jobs);
            let util = row.report.utilization();
            assert!((0.0..=1.0 + 1e-9).contains(&util), "util {util}");
        }
        let table = tabulate(&sweep, &rows);
        assert_eq!(table.len(), rows.len());
        assert!(table.to_csv().starts_with("gap,mix,policy,"));
    }

    #[test]
    fn high_gap_is_the_smallest() {
        let mut sweep = tiny_sweep();
        sweep.gaps = vec![960.0, 60.0, 240.0];
        assert_eq!(sweep.high_gap(), 60.0);
    }
}
