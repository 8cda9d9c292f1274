//! Online-service experiments over the `gemmd` scheduler fed by the
//! open-loop traffic generator (the harness is
//! [`bench::service_common`]): a 16-rank machine serving a heavy-tailed
//! stream of GEMMs where every placement pays a fixed dispatch overhead
//! that dwarfs a tiny multiply.
//!
//! **Service.** FIFO, shortest-predicted-time, earliest-deadline-first,
//! and EDF with the small-GEMM batcher armed run the same trace; the
//! batcher coalesces queued same-shape single-rank jobs into one
//! placement, paying the overhead once per batch, while each sub-job
//! keeps its own latency record.  `--enforce` requires the headline: on
//! every mix at the most contended gap, `edf+batch` strictly beats FIFO
//! and SPT on p99 sojourn, the batcher actually coalesces, the contended
//! run replays byte-identically, and every batched sub-job's service
//! time is bit-identical to its unbatched (`edf`) execution.
//!
//! **Preemption.** The same harness on the **balanced** mix, where
//! multi-rank gangs often hold every aligned block when a tight-deadline
//! job arrives: `edf`, `edf+batch`, and `edf+preempt`, which checkpoints
//! the running gang EDF ranks below the waiting job, pays the
//! state-transfer surcharge (`t_s + t_w·3n²/p` each way), frees the
//! block, and later resumes the victim from its elapsed-time credit.
//! `--enforce` requires `edf+preempt` to strictly beat `edf+batch` on
//! p99 sojourn at the most contended gap, meet at least as many
//! deadlines, actually preempt, and replay byte-identically.  Every run
//! verifies its products against the serial kernel, so a resumed gang
//! whose result drifted by one bit is a hard failure.

use std::fmt::Write as _;

use bench::service_common::{
    check_service_rows, run_point, run_service_sweep, tabulate, ServiceRow, ServiceSweep,
};
use bench::{bits, parallel_sweep, Args, Fail, Report, ResultTable};
use gemmd::{analyze, JobClasses, Slo};

/// The golden rows: exact bits of every latency headline per point.
fn service_golden(rows: &[ServiceRow]) -> String {
    let mut out = String::from(
        "gap,mix,policy,jobs,rejected,coalesced,makespan_bits,utilization_bits,\
         p50_bits,p99_bits,p999_bits\n",
    );
    for row in rows {
        let s = row.sojourns();
        let _ = writeln!(
            out,
            "{:.0},{},{},{},{},{},{},{},{},{},{}",
            row.gap,
            row.mix,
            row.policy,
            row.report.records.len(),
            row.report.rejected.len(),
            row.coalesced(),
            bits(row.report.makespan),
            bits(row.report.utilization()),
            bits(s.p50()),
            bits(s.p99()),
            bits(s.p999()),
        );
    }
    out
}

/// The SLO targets the service is graded against in the results CSVs
/// (informational, not gated): tight for interactive jobs, loose for
/// batch.
fn slos() -> Vec<Slo> {
    vec![
        Slo::new("interactive", 0.99, 2.0e4),
        Slo::new("standard", 0.99, 6.0e4),
        Slo::new("batch", 0.99, 2.0e5),
    ]
}

/// The determinism and bit-identity gates on the contended point:
/// the `edf+batch` run must replay byte-identically, and every batched
/// sub-job's service time must match its unbatched `edf` execution
/// bit-for-bit.
fn check_replay_and_bit_identity(
    sweep: &ServiceSweep,
    rows: &[ServiceRow],
) -> Result<String, String> {
    let high = sweep.high_gap();
    let (mix, alpha) = sweep.mixes[0];
    let find = |policy: &str| -> Result<&ServiceRow, String> {
        rows.iter()
            .find(|r| r.gap == high && r.mix == mix && r.policy == policy)
            .ok_or_else(|| format!("no row for {policy}/{mix}@{high:.0}"))
    };
    let batched = find("edf+batch")?;
    let solo = find("edf")?;

    let again = run_point(sweep, high, mix, alpha, "edf+batch");
    if again.report.to_csv() != batched.report.to_csv() {
        return Err(format!(
            "edf+batch on {mix}@{high:.0} did not replay byte-identically"
        ));
    }

    for r in &batched.report.records {
        let s = solo
            .report
            .records
            .iter()
            .find(|s| s.id == r.id)
            .ok_or_else(|| format!("job {} missing from the unbatched run", r.id))?;
        if r.actual_time.to_bits() != s.actual_time.to_bits() {
            return Err(format!(
                "job {}: batched service time {} != unbatched {} (bits differ)",
                r.id, r.actual_time, s.actual_time
            ));
        }
    }
    Ok(format!(
        "edf+batch beat fifo and spt on p99 at the contended point; {mix}@{high:.0} \
         replayed byte-identically and its {} batched sub-jobs are bit-identical to \
         unbatched execution",
        batched.coalesced()
    ))
}

/// Per-class latency, SLO attainment, and utilisation/backlog
/// time-series for the contended `edf+batch` run.
fn detail_csvs(r: &mut Report, mode: &str, sweep: &ServiceSweep, rows: &[ServiceRow]) {
    let high = sweep.high_gap();
    let mix = sweep.mixes[0].0;
    let Some(row) = rows
        .iter()
        .find(|r| r.gap == high && r.mix == mix && r.policy == "edf+batch")
    else {
        return;
    };
    let report = analyze(&row.report, &JobClasses::default_split(), &slos());
    r.file(format!("{mode}_service_classes.csv"), report.class_csv());
    r.file(format!("{mode}_service_slo.csv"), report.slo_csv());
    r.file(
        format!("{mode}_service_timeline.csv"),
        row.report.timeline_csv(),
    );
    for outcome in &report.outcomes {
        r.print(format_args!(
            "slo {}@p{:02.0}: {} ({} jobs, {} violations)",
            outcome.slo.class,
            outcome.slo.q * 100.0,
            if outcome.attained {
                "attained"
            } else {
                "MISSED"
            },
            outcome.jobs,
            outcome.violations,
        ));
    }
}
/// The service sweep: `--jobs` per run, `--seed` the traffic.
pub fn service(args: &Args) -> Result<Report, Fail> {
    let mode = if args.smoke { "smoke" } else { "full" };
    let (jobs, seed) = (args.value("jobs")?, args.value("seed")?);
    let sweep = if args.smoke {
        ServiceSweep::smoke(jobs, seed)
    } else {
        ServiceSweep::full(jobs, seed)
    };
    let rows = run_service_sweep(&sweep);
    let mut r = Report::default();
    let table = tabulate(&sweep, &rows);
    r.print(table.render());
    r.file(format!("{mode}_service_sweep.csv"), table.to_csv());
    detail_csvs(&mut r, mode, &sweep, &rows);
    r.golden(format!("{mode}_service.csv"), service_golden(&rows));
    if args.enforce {
        r.gate = check_service_rows(&sweep, &rows)
            .and_then(|()| check_replay_and_bit_identity(&sweep, &rows));
    }
    Ok(r)
}

/// The policy column: run-to-completion EDF, the batching headline,
/// and batching plus preemption.
const PREEMPT_VARIANTS: &[&str] = &["edf", "edf+batch", "edf+preempt"];

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

fn run_preempt_sweep(sweep: &ServiceSweep) -> Vec<ServiceRow> {
    let mut points = Vec::new();
    for &gap in &sweep.gaps {
        for &(mix, alpha) in &sweep.mixes {
            for &variant in PREEMPT_VARIANTS {
                points.push((gap, mix, alpha, variant));
            }
        }
    }
    parallel_sweep(points, |&(gap, mix, alpha, variant)| {
        run_point(sweep, gap, mix, alpha, variant)
    })
}

/// The golden rows: exact bits of every latency headline per point,
/// plus the preemption counters.
fn preempt_golden(rows: &[ServiceRow]) -> String {
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
fn check_preempt_rows(sweep: &ServiceSweep, rows: &[ServiceRow]) -> Result<String, String> {
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
    Ok(format!(
        "edf+preempt beat edf+batch on p99 at the contended point; {mix}@{high:.0} \
         replayed byte-identically ({} preemptions, {} transfer words; products verified \
         against the serial kernel)",
        preempt.report.preemptions, preempt.report.preemption_transfer_words
    ))
}

fn preempt_table(sweep: &ServiceSweep, rows: &[ServiceRow]) -> ResultTable {
    let mut table = ResultTable::new(
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

/// The preemption sweep: `--jobs` per run, `--seed` the traffic.
pub fn preemption(args: &Args) -> Result<Report, Fail> {
    let mode = if args.smoke { "smoke" } else { "full" };
    let sweep = sweep_for(args.smoke, args.value("jobs")?, args.value("seed")?);
    let rows = run_preempt_sweep(&sweep);
    let mut r = Report::default();
    let table = preempt_table(&sweep, &rows);
    r.print(table.render());
    r.file(format!("{mode}_preemption_sweep.csv"), table.to_csv());
    r.golden(format!("{mode}_preemption.csv"), preempt_golden(&rows));
    if args.enforce {
        r.gate = check_preempt_rows(&sweep, &rows);
    }
    Ok(r)
}
