//! Proactive live migration vs reactive recovery on a
//! degradation-heavy job stream.
//!
//! The scenario: a 16-rank machine serving a stream of n = 32 GEMMs
//! (each right-sized to a 4-rank block) where two ranks degrade — their
//! outgoing heartbeat links drop half their frames — and then fail-stop
//! mid-run.  The *reactive* service rides each doomed placement into
//! its death, quarantines the block, and redoes the job from scratch on
//! a fresh partition.  The *proactive* service (`Config::
//! migration_streak`) watches the same heartbeat stream the detector
//! prices, reads a sustained missed-beat streak below the death
//! threshold as an evacuation alarm, and live-migrates the job — a
//! buddy-checkpoint transfer of `3n²` words — onto a fresh block
//! before the death lands, resuming from the transferred state.
//!
//! One rank additionally carries a *per-link* detection override
//! ([`mmsim::FaultPlan::with_link_detection`]): its monitor link beats
//! four times faster than the base period, so its alarm fires earlier
//! at a higher heartbeat bill — the knob the Advisor also prices via
//! the tightest-period duty cycle.
//!
//! ```sh
//! cargo run -p bench --release --bin migration \
//!     [-- --jobs 12 --seed 9 --smoke --bless --enforce]
//! ```
//!
//! A run at the default `--jobs`/`--seed` is reduced to a bit-exact
//! golden CSV compared byte-for-byte against
//! `crates/bench/goldens/<mode>_migration.csv` (`--bless` rewrites it).
//! `--enforce` additionally requires the headline result: the proactive
//! service must complete the same stream with strictly less
//! `wasted_rank_time` and a no-worse makespan (tail latency) than the
//! reactive one, with at least one migration and at least one reactive
//! loss actually exercised.

use std::fmt::Write as _;
use std::process::ExitCode;

use bench::{bits, check_golden, GoldenArgs};
use gemmd::policy::Fifo;
use gemmd::{Config, JobSpec, Scheduler, ServiceReport};
use mmsim::{CostModel, FaultPlan, LinkFaults, Machine, Topology};

/// Machine geometry: 16 ranks, n = 32 jobs right-size to p = 4 under
/// the default isoefficiency rule on the nCUBE2-like constants.
const JOB_N: usize = 32;

/// Base heartbeat period and death threshold; the migration alarm
/// fires at a 2-beat streak, half the detector's 4-beat threshold.
const DETECT_PERIOD: f64 = 500.0;
const DETECT_MULTIPLE: u32 = 4;
const MIGRATION_STREAK: u32 = 2;

/// Rank 0's monitor link beats faster than the base period (the
/// per-link override the Advisor prices as the tightest period).  Kept
/// moderate: the duty-cycle surcharge feeds the right-sizer, and a
/// much tighter period would shrink every partition to a single rank —
/// which has no heartbeat ring to read an alarm from.
const TIGHT_PERIOD: f64 = 400.0;

/// Arrival gap of the Poisson-free deterministic stream.
const ARRIVAL_GAP: f64 = 3_000.0;

/// The sweep the goldens pin.
const DEFAULT_JOBS: usize = 12;
const SMOKE_JOBS: usize = 6;
const DEFAULT_SEED: u64 = 9;

/// The switches plus `--jobs` and `--seed`.
fn parse_args() -> Result<(GoldenArgs, usize, u64), String> {
    let flags = GoldenArgs::parse(std::env::args().skip(1))?;
    let default_jobs = if flags.smoke {
        SMOKE_JOBS
    } else {
        DEFAULT_JOBS
    };
    let jobs = flags.value("jobs", default_jobs)?;
    let seed = flags.value("seed", DEFAULT_SEED)?;
    Ok((flags, jobs, seed))
}

/// The degradation-heavy machine: base 2% loss everywhere, ranks 0 and
/// 4 with half-dead outgoing links (their heartbeat paths), deaths on
/// both a third of the way into the jobs that land on them, and a
/// tight per-link detector on rank 0.
fn machine(seed: u64) -> Machine {
    let degraded = LinkFaults {
        drop: 0.5,
        corrupt: 0.0,
        duplicate: 0.0,
        tw_factor: 1.0,
    };
    let plan = FaultPlan::new(seed)
        .with_drop_rate(0.02)
        .with_link(0, 1, degraded)
        .with_link(4, 5, degraded)
        .with_death(0, 10_000.0)
        .with_death(4, 12_000.0)
        .with_detection(DETECT_PERIOD, DETECT_MULTIPLE)
        .with_link_detection(0, TIGHT_PERIOD);
    Machine::new(Topology::hypercube(4), CostModel::ncube2()).with_fault_plan(plan)
}

fn stream(jobs: usize) -> Vec<JobSpec> {
    (0..jobs)
        .map(|i| JobSpec {
            seed: i as u64,
            ..JobSpec::new(JOB_N, i as f64 * ARRIVAL_GAP)
        })
        .collect()
}

fn run_mode(m: &Machine, jobs: &[JobSpec], migration_streak: u32) -> ServiceReport {
    let cfg = Config {
        verify: true,
        migration_streak,
        ..Config::default()
    };
    let report = Scheduler::new(m, cfg)
        .run(jobs, &Fifo)
        .unwrap_or_else(|e| panic!("service run failed: {e}"));
    report.check(jobs.len());
    report
}

fn main() -> ExitCode {
    let (args, jobs, seed) = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: migration [--jobs <count>] [--seed <plan seed>] [--smoke] [--bless] [--enforce]"
            );
            return ExitCode::FAILURE;
        }
    };
    let mode = if args.smoke { "smoke" } else { "full" };
    let default_sweep =
        seed == DEFAULT_SEED && jobs == if args.smoke { SMOKE_JOBS } else { DEFAULT_JOBS };
    if args.bless && !default_sweep {
        eprintln!("error: --bless requires the default --jobs/--seed");
        return ExitCode::FAILURE;
    }

    let m = machine(seed);
    let jobs = stream(jobs);
    let reactive = run_mode(&m, &jobs, 0);
    let proactive = run_mode(&m, &jobs, MIGRATION_STREAK);

    let mut golden = String::from(
        "mode,jobs,requeues,migrations,migration_transfer_words,heartbeat_words,\
         wasted_rank_time_bits,makespan_bits,mean_wait_bits\n",
    );
    for (label, report) in [("reactive", &reactive), ("proactive", &proactive)] {
        println!(
            "{label:>9}: {} | wasted_rank_time {:.1}, makespan {:.1}, mean wait {:.1}, \
             heartbeat words {}",
            report.summary(),
            report.wasted_rank_time,
            report.makespan,
            report.mean_wait(),
            report.heartbeat_words(),
        );
        let _ = writeln!(
            golden,
            "{label},{},{},{},{},{},{},{},{}",
            report.records.len(),
            report.requeues,
            report.migrations,
            report.migration_transfer_words,
            report.heartbeat_words(),
            bits(report.wasted_rank_time),
            bits(report.makespan),
            bits(report.mean_wait()),
        );
    }

    if args.enforce {
        if reactive.requeues == 0 {
            eprintln!("error: --enforce: the reactive service lost no placement — the stream is not degradation-heavy");
            return ExitCode::FAILURE;
        }
        if proactive.migrations == 0 {
            eprintln!("error: --enforce: the proactive service never migrated");
            return ExitCode::FAILURE;
        }
        if proactive.wasted_rank_time >= reactive.wasted_rank_time {
            eprintln!(
                "error: --enforce: proactive wasted_rank_time {:.1} must beat reactive {:.1}",
                proactive.wasted_rank_time, reactive.wasted_rank_time
            );
            return ExitCode::FAILURE;
        }
        if proactive.makespan > reactive.makespan {
            eprintln!(
                "error: --enforce: proactive makespan {:.1} must not exceed reactive {:.1}",
                proactive.makespan, reactive.makespan
            );
            return ExitCode::FAILURE;
        }
        println!(
            "enforced: proactive migration saved {:.1} rank-time units and {:.1} makespan units",
            reactive.wasted_rank_time - proactive.wasted_rank_time,
            reactive.makespan - proactive.makespan
        );
    }

    if default_sweep {
        if !check_golden(
            "migration",
            &format!("{mode}_migration.csv"),
            &golden,
            args.bless,
        ) {
            eprintln!("\nFAIL: migration golden drifted (stale rows)");
            return ExitCode::FAILURE;
        }
    } else {
        println!("golden check skipped (non-default --jobs/--seed)");
    }
    ExitCode::SUCCESS
}
