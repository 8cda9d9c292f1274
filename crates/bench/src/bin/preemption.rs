//! Preemptive gang rescheduling under a deadline-bound mixed load:
//! does pausing a running gang for a tighter-deadline arrival buy tail
//! latency the batcher alone cannot?
//!
//! The scenario reuses the `service` harness (same 16-rank machine,
//! same open-loop traffic generator, same placement overhead) but on
//! the **balanced** mix, where multi-rank `n = 16`/`n = 32` gangs are
//! common enough that a tight-deadline job regularly arrives to find
//! every aligned block held by a longer-deadline gang.  Three variants
//! run the same trace:
//!
//! * `edf` — deadline-ordered dispatch, run-to-completion;
//! * `edf+batch` — plus small-GEMM batching (the `service` headline);
//! * `edf+preempt` — plus preemption: the scheduler checkpoints the
//!   running gang EDF ranks below the waiting job, pays the
//!   state-transfer surcharge (`t_s + t_w·3n²/p` each way, the same
//!   pricing as migration), frees the block, and later resumes the
//!   victim from its elapsed-time credit.
//!
//! ```sh
//! cargo run -p bench --release --bin preemption \
//!     [-- --jobs 150 --seed 11 --smoke --bless --enforce]
//! ```
//!
//! A run at the default `--jobs`/`--seed` is reduced to a bit-exact
//! golden CSV compared byte-for-byte against
//! `crates/bench/goldens/<mode>_preemption.csv` (`--bless` rewrites
//! it).  `--enforce` additionally requires the headline result at the
//! most contended gap: `edf+preempt` must strictly beat `edf+batch` on
//! p99 sojourn, must meet at least as many deadlines, must actually
//! preempt, and must replay byte-identically.  Every run verifies its
//! products against the serial kernel (`verify: true`), so a resumed
//! gang whose result drifted by one bit is a hard failure, not a
//! statistic.

use std::fmt::Write as _;
use std::process::ExitCode;

use bench::service_common::{run_point, ServiceRow, ServiceSweep};
use bench::{bits, check_golden, GoldenArgs};

/// The sweep the goldens pin.
const DEFAULT_JOBS: usize = 150;
const SMOKE_JOBS: usize = 60;
const DEFAULT_SEED: u64 = 11;

/// The policy column: run-to-completion EDF, the batching headline,
/// and batching plus preemption.
const VARIANTS: &[&str] = &["edf", "edf+batch", "edf+preempt"];

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

/// The preemption experiment: the service sweep re-aimed at the
/// balanced mix, where multi-rank gangs block tight-deadline arrivals.
fn sweep_for(smoke: bool, jobs: usize, seed: u64) -> ServiceSweep {
    let base = if smoke {
        ServiceSweep::smoke(jobs, seed)
    } else {
        ServiceSweep::full(jobs, seed)
    };
    ServiceSweep {
        mixes: vec![("balanced", 1.0)],
        ..base
    }
}

fn run_sweep(sweep: &ServiceSweep) -> Vec<ServiceRow> {
    let mut points = Vec::new();
    for &gap in &sweep.gaps {
        for &(mix, alpha) in &sweep.mixes {
            for &variant in VARIANTS {
                points.push((gap, mix, alpha, variant));
            }
        }
    }
    bench::parallel_sweep(points, |&(gap, mix, alpha, variant)| {
        run_point(sweep, gap, mix, alpha, variant)
    })
}

/// The golden rows: exact bits of every latency headline per point,
/// plus the preemption counters.
fn golden_csv(rows: &[ServiceRow]) -> String {
    let mut out = String::from(
        "gap,mix,policy,jobs,rejected,preemptions,preempt_words,deadlines_met,\
         makespan_bits,utilization_bits,p50_bits,p99_bits,p999_bits\n",
    );
    for row in rows {
        let s = row.sojourns();
        let (met, _) = row.report.deadlines();
        let _ = writeln!(
            out,
            "{:.0},{},{},{},{},{},{},{},{},{},{},{},{}",
            row.gap,
            row.mix,
            row.policy,
            row.report.records.len(),
            row.report.rejected.len(),
            row.report.preemptions,
            row.report.preemption_transfer_words,
            met,
            bits(row.report.makespan),
            bits(row.report.utilization()),
            bits(s.p50()),
            bits(s.p99()),
            bits(s.p999()),
        );
    }
    out
}

/// The enforce gates at the most contended gap.
fn check_rows(sweep: &ServiceSweep, rows: &[ServiceRow]) -> Result<(), String> {
    if rows.is_empty() {
        return Err("preemption sweep produced no rows".into());
    }
    let high = sweep.high_gap();
    let (mix, alpha) = sweep.mixes[0];
    let find = |policy: &str| -> Result<&ServiceRow, String> {
        rows.iter()
            .find(|r| r.gap == high && r.mix == mix && r.policy == policy)
            .ok_or_else(|| format!("no row for {policy}/{mix}@{high:.0}"))
    };
    let batch = find("edf+batch")?;
    let preempt = find("edf+preempt")?;
    let (bp99, pp99) = (batch.sojourns().p99(), preempt.sojourns().p99());
    if pp99 >= bp99 {
        return Err(format!(
            "edf+preempt p99 {pp99:.1} must beat edf+batch {bp99:.1} on {mix}@{high:.0}"
        ));
    }
    if preempt.report.preemptions == 0 {
        return Err(format!(
            "edf+preempt never preempted on {mix}@{high:.0} — the contended point is not contended"
        ));
    }
    let (bmet, _) = batch.report.deadlines();
    let (pmet, pwith) = preempt.report.deadlines();
    if pmet < bmet {
        return Err(format!(
            "edf+preempt met {pmet}/{pwith} deadlines, fewer than edf+batch's {bmet} — \
             preemption is paying more than it buys"
        ));
    }
    for row in [batch, preempt] {
        if !row.report.rejected.is_empty() || !row.report.shed.is_empty() {
            return Err(format!(
                "{}/{mix}@{high:.0}: jobs dropped at admission — queue_cap is meant to be ample",
                row.policy
            ));
        }
    }
    // Determinism: the preempting run must replay byte-identically —
    // pauses, credits and resumes included.
    let again = run_point(sweep, high, mix, alpha, "edf+preempt");
    if again.report.to_csv() != preempt.report.to_csv() {
        return Err(format!(
            "edf+preempt on {mix}@{high:.0} did not replay byte-identically"
        ));
    }
    println!(
        "determinism: edf+preempt on {mix}@{high:.0} replayed byte-identically \
         ({} preemptions, {} transfer words; products verified against the serial kernel)",
        preempt.report.preemptions, preempt.report.preemption_transfer_words
    );
    Ok(())
}

fn tabulate(sweep: &ServiceSweep, rows: &[ServiceRow]) -> bench::ResultTable {
    let mut table = bench::ResultTable::new(
        format!(
            "gemmd preemption sweep (p = {}, {} jobs/run, overhead {}, seed {})",
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
            "preemptions",
            "preempt_words",
            "deadlines_met",
            "utilization",
            "p50",
            "p99",
            "p999",
        ],
    );
    for row in rows {
        let s = row.sojourns();
        let (met, with) = row.report.deadlines();
        table.push_row(vec![
            format!("{:.0}", row.gap),
            row.mix.to_string(),
            row.policy.to_string(),
            row.report.records.len().to_string(),
            row.report.preemptions.to_string(),
            row.report.preemption_transfer_words.to_string(),
            format!("{met}/{with}"),
            format!("{:.4}", row.report.utilization()),
            format!("{:.1}", s.p50()),
            format!("{:.1}", s.p99()),
            format!("{:.1}", s.p999()),
        ]);
    }
    table
}

fn main() -> ExitCode {
    let (args, jobs, seed) = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: preemption [--jobs <count>] [--seed <traffic seed>] [--smoke] [--bless] \
                 [--enforce]"
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

    let sweep = sweep_for(args.smoke, jobs, seed);
    let rows = run_sweep(&sweep);
    let table = tabulate(&sweep, &rows);
    println!("{}", table.render());
    let csv_path = table.save_csv(&format!("{mode}_preemption_sweep"));
    println!("wrote {}", csv_path.display());

    if args.enforce {
        if let Err(e) = check_rows(&sweep, &rows) {
            eprintln!("error: --enforce: {e}");
            return ExitCode::FAILURE;
        }
        println!("enforced: edf+preempt beat edf+batch on p99 at the contended point");
    }

    if default_sweep {
        if !check_golden(
            "preemption",
            &format!("{mode}_preemption.csv"),
            &golden_csv(&rows),
            args.bless,
        ) {
            eprintln!("\nFAIL: preemption golden drifted (stale rows)");
            return ExitCode::FAILURE;
        }
    } else {
        println!("golden check skipped (non-default --jobs/--seed)");
    }
    ExitCode::SUCCESS
}
