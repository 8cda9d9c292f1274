//! Fault-tolerance experiments: the resilience sweep of all six
//! resilient variants under link faults and fail-stop deaths, and
//! proactive live migration against reactive recovery in `gemmd`.
//!
//! **Resilience.** For each algorithm × processor count × fault level
//! the same multiplication runs under a seeded [`mmsim::FaultPlan`]
//! whose drop and corruption rates scale with the level; the table
//! reports the simulated parallel time, the efficiency, the degradation
//! relative to the fault-free reliable run, and the recovery effort
//! (retransmissions, backoff idle time).  The death rows additionally
//! provision spares (`Machine::with_spares`) and fail-stop one rank
//! halfway through the fault-free schedule: every run *asserts* that
//! the product stays bit-identical to the fault-free run and that the
//! promotion shows up in the `recoveries` / `recovery_idle` columns.
//! The detection rows repeat each death point under a
//! [`mmsim::FaultPlan::with_detection`] config (heartbeat period = 10%
//! of the fault-free schedule, timeout multiple 2), asserting nonzero
//! `heartbeat_words` and `detection_latency` — the priced replacement
//! of the free death oracle.  Heartbeats ride the same lossy links as
//! data, so detection rows may also record spurious failovers
//! (`false_positives` / `wasted_promotion_idle`).  `--smoke` shrinks
//! the sweep to one processor count per algorithm and two fault
//! levels; `--enforce` requires that every planned sweep point produced
//! a row (no silent inapplicability skips).
//!
//! **Migration.** A 16-rank machine serves a stream of n = 32 GEMMs
//! (each right-sized to a 4-rank block) while two ranks degrade — their
//! outgoing heartbeat links drop half their frames — and then fail-stop
//! mid-run.  The *reactive* service rides each doomed placement into
//! its death and redoes the job on a fresh partition; the *proactive*
//! service (`Config::migration_streak`) reads a sustained missed-beat
//! streak below the death threshold as an evacuation alarm and
//! live-migrates the job (a buddy-checkpoint transfer of `3n²` words)
//! before the death lands.  One rank carries a per-link detection
//! override ([`mmsim::FaultPlan::with_link_detection`]) that beats four
//! times faster than the base period.  `--enforce` requires the
//! proactive service to waste strictly less rank time with a no-worse
//! makespan, with at least one migration and one reactive loss.

use std::collections::HashMap;
use std::fmt::Write as _;

use algos::{
    cannon_resilient, dns_resilient, fox_pipelined_resilient, fox_tree_resilient, gk_resilient,
    SimOutcome,
};
use bench::{bits, parallel_sweep, Args, Fail, Report, ResultTable};
use dense::gen;
use gemmd::policy::Fifo;
use gemmd::{Config, JobSpec, Scheduler, ServiceReport};
use mmsim::{CostModel, FaultPlan, LinkFaults, Machine, Topology};

/// Fault levels swept: the drop rate per transmission attempt; the
/// corruption rate rides along at half of it.
const DROP_RATES: [f64; 5] = [0.0, 0.05, 0.1, 0.2, 0.3];
const SMOKE_DROP_RATES: [f64; 2] = [0.0, 0.1];

/// Drop rate the death rows run under, so failover is exercised on
/// already-lossy links rather than in isolation.
const DEATH_DROP: f64 = 0.05;

/// Detection rows: heartbeat period as a fraction of the fault-free
/// schedule, and the timeout multiple.
const DETECT_PERIOD_FRAC: f64 = 0.1;
const DETECT_MULTIPLE: u32 = 2;

/// DNS needs `p = n²·r`, so it sweeps a small fixed operand instead of
/// the mesh algorithms' `--n`.
const DNS_N: usize = 4;

/// Migration machine geometry: 16 ranks, n = 32 jobs right-size to p = 4 under
/// the default isoefficiency rule on the nCUBE2-like constants.
const JOB_N: usize = 32;

/// Base heartbeat period and death threshold; the migration alarm
/// fires at a 2-beat streak, half the detector's 4-beat threshold.
const MIGRATION_DETECT_PERIOD: f64 = 500.0;
const MIGRATION_DETECT_MULTIPLE: u32 = 4;
const MIGRATION_STREAK: u32 = 2;

/// Rank 0's monitor link beats faster than the base period (the
/// per-link override the Advisor prices as the tightest period).  Kept
/// moderate: the duty-cycle surcharge feeds the right-sizer, and a
/// much tighter period would shrink every partition to a single rank —
/// which has no heartbeat ring to read an alarm from.
const TIGHT_PERIOD: f64 = 400.0;

/// Arrival gap of the Poisson-free deterministic stream.
const ARRIVAL_GAP: f64 = 3_000.0;

/// One sweep point: algorithm name, processor count, operand size,
/// drop rate, and — for the failover rows — a death scheduled at
/// `death_t` (with spares), optionally priced by a detection config.
struct Point {
    alg: &'static str,
    p: usize,
    n: usize,
    drop: f64,
    /// Fail-stop logical rank 1 at this virtual time (spares on).
    death_t: Option<f64>,
    /// Heartbeat-priced detection: (period, timeout multiple).
    detection: Option<(f64, u32)>,
}

fn run_point(point: &Point, seed: u64) -> Result<SimOutcome, String> {
    let (a, b) = gen::random_pair(point.n, 17);
    let cost = CostModel::new(150.0, 3.0); // the paper's nCUBE2 constants
    let mut plan = FaultPlan::new(seed);
    if point.drop > 0.0 {
        plan = plan
            .with_drop_rate(point.drop)
            .with_corrupt_rate(point.drop / 2.0);
    }
    if let Some((period, multiple)) = point.detection {
        plan = plan.with_detection(period, multiple);
    }
    let mut machine = if let Some(t) = point.death_t {
        // The next hypercube up holds the logical mesh plus spares;
        // rank 1 dies mid-run and a spare takes its slot.
        plan = plan.with_death(1, t);
        let full = Machine::new(Topology::hypercube_for(2 * point.p), cost);
        let spares = full.p() - point.p;
        full.with_spares(spares)
    } else {
        Machine::new(Topology::hypercube_for(point.p), cost)
    };
    if point.drop > 0.0 || point.death_t.is_some() || point.detection.is_some() {
        machine = machine.with_fault_plan(plan);
    }
    let out = match point.alg {
        "cannon" => cannon_resilient(&machine, &a, &b),
        "gk" => gk_resilient(&machine, &a, &b),
        "fox_tree" => fox_tree_resilient(&machine, &a, &b),
        "fox_pipelined" => {
            // The advisor's default packet count: √(block words).
            let q = (point.p as f64).sqrt().round() as usize;
            let bs = point.n / q;
            let block_words = bs * bs;
            let packets = ((block_words as f64).sqrt().round() as usize).clamp(1, block_words);
            fox_pipelined_resilient(&machine, &a, &b, packets)
        }
        "dns" => dns_resilient(&machine, &a, &b),
        other => return Err(format!("unknown algorithm {other:?}")),
    };
    out.map_err(|e| format!("{} p={} drop={}: {e}", point.alg, point.p, point.drop))
}

/// One finished sweep row: the point's identity plus its outcome.
struct Row {
    alg: &'static str,
    p: usize,
    n: usize,
    drop: f64,
    deaths: usize,
    detection_period: Option<f64>,
    out: SimOutcome,
}

/// The resilience sweep: `--n` sizes the mesh algorithms' operands,
/// `--seed` the fault plans.
pub fn resilience(args: &Args) -> Result<Report, Fail> {
    let n: usize = args.value("n")?;
    let seed: u64 = args.value("seed")?;
    let mode = if args.smoke { "smoke" } else { "full" };
    let drop_rates: &[f64] = if args.smoke {
        &SMOKE_DROP_RATES
    } else {
        &DROP_RATES
    };

    // Cannon and both Fox meshes need a perfect square side dividing n;
    // GK a power-of-eight cube whose side divides n; DNS p = n²·r.  The
    // defaults (n = 24, DNS_N = 4) admit every set.
    let mesh_ps: &[usize] = if args.smoke { &[4] } else { &[4, 16, 64] };
    let fox_ps: &[usize] = if args.smoke { &[4] } else { &[4, 16] };
    let gk_ps: &[usize] = if args.smoke { &[8] } else { &[8, 64] };
    let dns_ps: &[usize] = if args.smoke { &[16] } else { &[16, 32] };

    let mut points = Vec::new();
    let mut planned = 0usize;
    let mut push_grid =
        |alg: &'static str, ps: &[usize], pn: usize, applicable: &dyn Fn(usize) -> bool| {
            for &p in ps {
                planned += drop_rates.len();
                if applicable(p) {
                    for &drop in drop_rates {
                        points.push(Point {
                            alg,
                            p,
                            n: pn,
                            drop,
                            death_t: None,
                            detection: None,
                        });
                    }
                }
            }
        };
    let square_divides = |p: usize| n.is_multiple_of((p as f64).sqrt().round() as usize);
    push_grid("cannon", mesh_ps, n, &square_divides);
    push_grid("fox_tree", fox_ps, n, &square_divides);
    push_grid("fox_pipelined", fox_ps, n, &square_divides);
    push_grid("gk", gk_ps, n, &|p| {
        n.is_multiple_of((p as f64).cbrt().round() as usize)
    });
    push_grid("dns", dns_ps, DNS_N, &|p| {
        let r = p / (DNS_N * DNS_N);
        r.is_power_of_two() && DNS_N.is_multiple_of(r) && p == DNS_N * DNS_N * r
    });

    let outcomes = parallel_sweep(points, |point| {
        run_point(point, seed).map(|out| Row {
            alg: point.alg,
            p: point.p,
            n: point.n,
            drop: point.drop,
            deaths: 0,
            detection_period: None,
            out,
        })
    });
    let mut rows = outcomes
        .into_iter()
        .collect::<Result<Vec<Row>, String>>()
        .map_err(Fail::Check)?;
    let gate = if rows.len() == planned {
        Ok(format!("all {planned} planned sweep points produced rows"))
    } else {
        Err(format!(
            "only {} of {planned} planned sweep points produced rows \
             (inapplicable (alg, p, n) combinations were skipped silently)",
            rows.len()
        ))
    };

    // Failover rows: kill logical rank 1 halfway through the fault-free
    // schedule of each (alg, p) and let a spare absorb it — once under
    // the free death oracle, once with heartbeat-priced detection.  The
    // fault-free outcome doubles as the bit-identity reference.
    let fault_free: Vec<(&str, usize, usize, SimOutcome)> = rows
        .iter()
        .filter(|r| r.drop == 0.0)
        .map(|r| (r.alg, r.p, r.n, r.out.clone()))
        .collect();
    let death_points: Vec<Point> = fault_free
        .iter()
        .flat_map(|(alg, p, pn, out)| {
            let death_t = out.t_parallel * 0.5;
            [
                Point {
                    alg,
                    p: *p,
                    n: *pn,
                    drop: DEATH_DROP,
                    death_t: Some(death_t),
                    detection: None,
                },
                Point {
                    alg,
                    p: *p,
                    n: *pn,
                    drop: DEATH_DROP,
                    death_t: Some(death_t),
                    detection: Some((out.t_parallel * DETECT_PERIOD_FRAC, DETECT_MULTIPLE)),
                },
            ]
        })
        .collect();
    let death_rows = parallel_sweep(death_points, |point| {
        run_point(point, seed).map(|out| Row {
            alg: point.alg,
            p: point.p,
            n: point.n,
            drop: point.drop,
            deaths: 1,
            detection_period: point.detection.map(|(period, _)| period),
            out,
        })
    });
    for outcome in death_rows {
        let row = outcome.map_err(Fail::Check)?;
        check_death_row(&row, &fault_free).map_err(Fail::Check)?;
        rows.push(row);
    }

    let mut table = ResultTable::new(
        format!(
            "efficiency degradation under link faults and fail-stop deaths \
             (n = {n}, dns n = {DNS_N}, t_s = 150, t_w = 3, plan seed {seed})"
        ),
        &[
            "algorithm",
            "p",
            "n",
            "drop_rate",
            "corrupt_rate",
            "deaths",
            "spares",
            "detection_period",
            "t_parallel",
            "efficiency",
            "degradation",
            "retransmissions",
            "backoff_idle",
            "recoveries",
            "recovery_idle",
            "heartbeat_words",
            "detection_latency",
            "false_positives",
            "wasted_promotion_idle",
        ],
    );
    let mut golden = String::from(
        "algorithm,p,n,drop_rate,deaths,detection_period_bits,t_parallel_bits,\
         retransmissions,recoveries,heartbeat_words,detection_latency_bits,\
         false_positives,wasted_promotion_idle_bits\n",
    );
    // Fault-free efficiency per (alg, p) anchors the degradation column.
    let baseline: HashMap<(&str, usize), f64> = rows
        .iter()
        .filter(|r| r.drop == 0.0 && r.deaths == 0)
        .map(|r| ((r.alg, r.p), r.out.efficiency()))
        .collect();
    for row in &rows {
        let out = &row.out;
        let eff = out.efficiency();
        let base = baseline.get(&(row.alg, row.p)).copied().unwrap_or(eff);
        let retrans: u64 = out.stats.iter().map(|s| s.retransmissions).sum();
        let backoff: f64 = out.stats.iter().map(|s| s.backoff_idle).sum();
        let recoveries: u64 = out.stats.iter().map(|s| s.recoveries).sum();
        let recovery_idle: f64 = out.stats.iter().map(|s| s.recovery_idle).sum();
        let heartbeats: u64 = out.stats.iter().map(|s| s.heartbeat_words).sum();
        let det_latency: f64 = out.stats.iter().map(|s| s.detection_latency).sum();
        let false_pos: u64 = out.stats.iter().map(|s| s.false_positives).sum();
        let wasted: f64 = out.stats.iter().map(|s| s.wasted_promotion_idle).sum();
        let spares = if row.deaths > 0 { row.p } else { 0 };
        table.push_row(vec![
            row.alg.to_string(),
            row.p.to_string(),
            row.n.to_string(),
            format!("{:.2}", row.drop),
            format!("{:.2}", row.drop / 2.0),
            row.deaths.to_string(),
            spares.to_string(),
            row.detection_period
                .map_or_else(|| "-".into(), |t| format!("{t:.1}")),
            format!("{:.1}", out.t_parallel),
            format!("{eff:.4}"),
            format!("{:.4}", eff / base),
            retrans.to_string(),
            format!("{backoff:.1}"),
            recoveries.to_string(),
            format!("{recovery_idle:.1}"),
            heartbeats.to_string(),
            format!("{det_latency:.1}"),
            false_pos.to_string(),
            format!("{wasted:.1}"),
        ]);
        let _ = writeln!(
            golden,
            "{},{},{},{:.2},{},{},{},{retrans},{recoveries},{heartbeats},{},{false_pos},{}",
            row.alg,
            row.p,
            row.n,
            row.drop,
            row.deaths,
            row.detection_period.map_or_else(|| "none".into(), bits),
            bits(out.t_parallel),
            bits(det_latency),
            bits(wasted),
        );
    }

    let mut r = Report::default();
    r.print(table.render());
    r.file("resilience.csv", table.to_csv());
    r.golden(format!("{mode}_resilience.csv"), golden);
    r.gate = gate;
    Ok(r)
}

/// A death row's invariants: the product bit-identical to the
/// fault-free run, a spare promoted, and — with detection on —
/// heartbeat traffic and a detection latency actually priced.
fn check_death_row(
    row: &Row,
    fault_free: &[(&str, usize, usize, SimOutcome)],
) -> Result<(), String> {
    let reference = fault_free
        .iter()
        .find(|(a, q, _, _)| *a == row.alg && *q == row.p)
        .map(|(_, _, _, o)| o)
        .expect("death point without a fault-free reference");
    if row.out.c != reference.c {
        return Err(format!(
            "{} p={} death run product diverged from fault-free run",
            row.alg, row.p
        ));
    }
    if row.out.stats.iter().map(|s| s.recoveries).sum::<u64>() == 0 {
        return Err(format!(
            "{} p={} death row recorded no spare promotion",
            row.alg, row.p
        ));
    }
    if row.detection_period.is_some() {
        let beats: u64 = row.out.stats.iter().map(|s| s.heartbeat_words).sum();
        let latency: f64 = row.out.stats.iter().map(|s| s.detection_latency).sum();
        if beats == 0 || latency <= 0.0 {
            return Err(format!(
                "{} p={} detection row shows no heartbeat traffic \
                 ({beats} beats) or no detection latency ({latency})",
                row.alg, row.p
            ));
        }
    }
    Ok(())
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
        .with_detection(MIGRATION_DETECT_PERIOD, MIGRATION_DETECT_MULTIPLE)
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

/// Proactive migration vs reactive recovery on the same stream:
/// `--jobs` GEMMs, `--seed` the fault plan.
pub fn migration(args: &Args) -> Result<Report, Fail> {
    let mode = if args.smoke { "smoke" } else { "full" };
    let m = machine(args.value("seed")?);
    let jobs = stream(args.value("jobs")?);
    let reactive = run_mode(&m, &jobs, 0);
    let proactive = run_mode(&m, &jobs, MIGRATION_STREAK);

    let mut r = Report::default();
    let mut golden = String::from(
        "mode,jobs,requeues,migrations,migration_transfer_words,heartbeat_words,\
         wasted_rank_time_bits,makespan_bits,mean_wait_bits\n",
    );
    for (label, report) in [("reactive", &reactive), ("proactive", &proactive)] {
        r.print(format_args!(
            "{label:>9}: {} | wasted_rank_time {:.1}, makespan {:.1}, mean wait {:.1}, \
             heartbeat words {}",
            report.summary(),
            report.wasted_rank_time,
            report.makespan,
            report.mean_wait(),
            report.heartbeat_words(),
        ));
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
    r.golden(format!("{mode}_migration.csv"), golden);
    r.gate = if reactive.requeues == 0 {
        Err("the reactive service lost no placement — the stream is not degradation-heavy".into())
    } else if proactive.migrations == 0 {
        Err("the proactive service never migrated".into())
    } else if proactive.wasted_rank_time >= reactive.wasted_rank_time {
        Err(format!(
            "proactive wasted_rank_time {:.1} must beat reactive {:.1}",
            proactive.wasted_rank_time, reactive.wasted_rank_time
        ))
    } else if proactive.makespan > reactive.makespan {
        Err(format!(
            "proactive makespan {:.1} must not exceed reactive {:.1}",
            proactive.makespan, reactive.makespan
        ))
    } else {
        Ok(format!(
            "proactive migration saved {:.1} rank-time units and {:.1} makespan units",
            reactive.wasted_rank_time - proactive.wasted_rank_time,
            reactive.makespan - proactive.makespan
        ))
    };
    Ok(r)
}
