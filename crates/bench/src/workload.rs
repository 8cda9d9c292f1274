//! The `gemmd` workload experiment: sweep arrival rate × job-size mix
//! × scheduling policy over the service on a 64-rank nCUBE2-class
//! hypercube and tabulate service-level throughput, utilization and
//! queueing.
//!
//! The headline comparison is `whole`-machine FIFO (every job spreads
//! across all ranks, jobs serialise) against isoefficiency
//! right-sizing (small jobs get small partitions and run side by
//! side); every run asserts the right-sizer's aggregate throughput wins
//! on the mixed-size stream.

use bench::{Args, Fail, Report, ResultTable};
use gemmd::{Config, Fifo, Policy, PriorityFirst, Scheduler, ShortestPredictedTime, SizingMode};
use mmsim::{CostModel, EngineKind, Machine, Topology};

/// One sweep configuration.
#[derive(Debug, Clone)]
pub struct WorkloadSweep {
    /// Hypercube dimension of the service machine (`p = 2^dim`).
    pub dim: u32,
    /// Jobs per run.
    pub jobs: usize,
    /// Mean interarrival gaps swept (virtual time units).
    pub mean_gaps: Vec<f64>,
    /// Named size mixes swept.
    pub mixes: Vec<(&'static str, Vec<(usize, f64)>)>,
    /// Workload master seed.
    pub seed: u64,
}

impl WorkloadSweep {
    /// The full experiment: 64 ranks, three loads, three mixes.
    #[must_use]
    pub fn full(jobs: usize, seed: u64) -> Self {
        Self {
            dim: 6,
            jobs,
            mean_gaps: vec![1.0e3, 1.0e4, 5.0e4],
            mixes: vec![
                ("small", vec![(16, 3.0), (24, 1.0)]),
                ("mixed", vec![(16, 2.0), (32, 1.0), (48, 1.0)]),
                ("large", vec![(48, 1.0), (64, 1.0)]),
            ],
            seed,
        }
    }

    /// The CI smoke run: one contended point per mix, few jobs.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        Self {
            dim: 4,
            jobs: 8,
            mean_gaps: vec![1.0e3],
            mixes: vec![("mixed", vec![(8, 2.0), (16, 1.0), (32, 1.0)])],
            seed,
        }
    }
}

/// The scheduler variants every sweep point runs: the whole-machine
/// FIFO baseline plus right-sizing under each queue policy.
fn variants() -> Vec<(&'static str, SizingMode, Box<dyn Policy>)> {
    vec![
        ("fifo", SizingMode::WholeMachine, Box::new(Fifo)),
        ("fifo", SizingMode::default_iso(), Box::new(Fifo)),
        (
            "spt",
            SizingMode::default_iso(),
            Box::new(ShortestPredictedTime),
        ),
        (
            "priority",
            SizingMode::default_iso(),
            Box::new(PriorityFirst),
        ),
    ]
}

/// Run the sweep on `engine` and tabulate one row per (gap, mix,
/// variant). The table is virtual-time only, so it is the same on
/// either engine; `engine_perf` checks it on the threaded one.
///
/// # Panics
/// Panics if the service rejects its own generated workload — that is
/// a bug, not a measurement.
#[must_use]
pub fn run_workload_sweep(sweep: &WorkloadSweep, engine: EngineKind) -> ResultTable {
    let machine =
        Machine::new(Topology::hypercube(sweep.dim), CostModel::ncube2()).with_engine(engine);
    let mut table = ResultTable::new(
        format!(
            "gemmd service sweep (p = {}, {} jobs/run, t_s = 150, t_w = 3, seed {})",
            machine.p(),
            sweep.jobs,
            sweep.seed
        ),
        &[
            "policy",
            "sizing",
            "mix",
            "mean_gap",
            "completed",
            "rejected",
            "makespan",
            "jobs_per_Munit",
            "ops_per_unit",
            "utilization",
            "mean_wait",
            "mean_pred_err",
        ],
    );
    for &gap in &sweep.mean_gaps {
        for (mix_name, mix) in &sweep.mixes {
            let trace = gemmd::Workload::poisson(sweep.jobs, gap, mix, sweep.seed).generate();
            for (policy_name, sizing, policy) in variants() {
                let config = Config {
                    sizing,
                    ..Config::default()
                };
                let report = Scheduler::new(&machine, config)
                    .run(&trace, policy.as_ref())
                    .unwrap_or_else(|e| {
                        panic!("{policy_name}/{} on {mix_name}: {e}", sizing.label())
                    });
                table.push_row(vec![
                    policy_name.to_string(),
                    report.sizing.clone(),
                    (*mix_name).to_string(),
                    format!("{gap:.0}"),
                    report.records.len().to_string(),
                    report.rejected.len().to_string(),
                    format!("{:.1}", report.makespan),
                    format!("{:.3}", report.throughput_jobs() * 1.0e6),
                    format!("{:.3}", report.throughput_flops()),
                    format!("{:.4}", report.utilization()),
                    format!("{:.1}", report.mean_wait()),
                    format!("{:+.3}", report.mean_prediction_error()),
                ]);
            }
        }
    }
    table
}

/// The acceptance checks every run enforces:
/// a non-empty table, utilization within physical bounds, and — on
/// every contended mixed-size point — right-sizing FIFO beating
/// whole-machine FIFO on aggregate op throughput.
///
/// # Errors
/// Returns a description of the first violated check.
fn check_workload_table(table: &ResultTable) -> Result<(), String> {
    if table.is_empty() {
        return Err("workload table is empty".into());
    }
    let csv = table.to_csv();
    let header: Vec<&str> = csv.lines().next().unwrap_or("").split(',').collect();
    let col = |name: &str| {
        header
            .iter()
            .position(|h| *h == name)
            .ok_or_else(|| format!("missing column {name}"))
    };
    let (util_col, ops_col) = (col("utilization")?, col("ops_per_unit")?);
    let (policy_col, sizing_col) = (col("policy")?, col("sizing")?);
    let (mix_col, gap_col) = (col("mix")?, col("mean_gap")?);
    let mut whole = std::collections::HashMap::new();
    let mut iso = std::collections::HashMap::new();
    for line in csv.lines().skip(1) {
        let fields: Vec<&str> = line.split(',').collect();
        let util: f64 = fields[util_col]
            .parse()
            .map_err(|e| format!("bad utilization {:?}: {e}", fields[util_col]))?;
        if !(0.0..=1.0 + 1e-9).contains(&util) {
            return Err(format!("utilization {util} out of [0, 1]"));
        }
        let ops: f64 = fields[ops_col]
            .parse()
            .map_err(|e| format!("bad ops_per_unit {:?}: {e}", fields[ops_col]))?;
        if fields[policy_col] == "fifo" {
            let key = (fields[mix_col].to_string(), fields[gap_col].to_string());
            if fields[sizing_col] == "whole" {
                whole.insert(key, ops);
            } else {
                iso.insert(key, ops);
            }
        }
    }
    // Throughput win on the contended points of the mixed-size streams
    // (the ISSUE's acceptance claim).  Uniformly-large streams are
    // measured but not gated: there the whole machine is already near
    // the efficiency floor, so partitioning buys little and FIFO
    // head-of-line blocking can cost more than it gains — the table
    // shows SPT right-sizing recovering the win.
    for ((mix, gap), &w) in &whole {
        let key = (mix.clone(), gap.clone());
        let gap_val: f64 = gap.parse().unwrap_or(f64::MAX);
        if gap_val <= 2.0e3 && mix != "large" {
            let i = iso
                .get(&key)
                .ok_or_else(|| format!("no iso row for {mix}@{gap}"))?;
            if i <= &w {
                return Err(format!(
                    "right-sizing lost on {mix}@{gap}: iso {i} ≤ whole {w}"
                ));
            }
        }
    }
    Ok(())
}

/// The workload sweep: `--smoke` runs one contended point per mix on
/// 16 ranks, ignoring `--jobs`.
pub fn workload(args: &Args) -> Result<Report, Fail> {
    let seed = args.value("seed")?;
    let (sweep, golden) = if args.smoke {
        (WorkloadSweep::smoke(seed), "workload_smoke.csv")
    } else {
        (
            WorkloadSweep::full(args.value("jobs")?, seed),
            "workload.csv",
        )
    };
    let table = run_workload_sweep(&sweep, EngineKind::default());
    let mut r = Report::default();
    r.print(table.render());
    check_workload_table(&table).map_err(Fail::Check)?;
    r.print(
        "acceptance checks passed: non-empty table, utilization ≤ 1, right-sizing throughput win",
    );
    r.file("workload.csv", table.to_csv());
    r.golden(golden, table.to_csv());
    Ok(r)
}
