//! The seven workloads and the pass runner they share.
//!
//! An **op** is one call of an `algos::*` entry point (sim workloads),
//! one `Scheduler::run` (`gemmd_trace`) or one request/reply round trip
//! (`serve_poll`).  A **pass** is the workload's fixed op list run once
//! in order.  Only the op itself is timed: verification runs after each
//! pass, outside every timed interval and outside the CPU bracket.

pub mod gemmd_trace;
pub mod serve;
pub mod sim;

use std::time::{Duration, Instant};

use crate::digest::Digest;
use crate::procfs;
use crate::span::Tracer;

/// Seed the committed goldens were blessed at.
pub const DEFAULT_SEED: u64 = 1;

/// What a workload needs to know about this run.
#[derive(Debug, Clone)]
pub struct RunParams {
    /// `--seed`: every generated input derives from it.
    pub seed: u64,
    /// `--seconds`: sets the pass count (or the duration of
    /// `serve_poll`).
    pub seconds: f64,
    /// `--smoke`: one or two passes, for CI.
    pub smoke: bool,
    /// Path of the `gemmd-serve` binary (`serve_poll` only).
    pub serve_bin: std::path::PathBuf,
}

/// The exact, virtual-time facts of one op; they feed the digest and
/// must repeat pass after pass.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpFacts {
    /// `t_parallel` (sim) or makespan (`gemmd_trace`).
    pub virt_time: f64,
    /// `total_messages()` (sim) or jobs completed (`gemmd_trace`).
    pub msgs: u64,
    /// `total_words()` (sim) or a digest of the report (`gemmd_trace`).
    pub words: u64,
    /// |sim − closed form| ÷ closed form, where a closed form exists.
    pub model_err: Option<f64>,
}

impl OpFacts {
    fn absorb(&self, d: &mut Digest) {
        d.float(self.virt_time);
        d.word(self.msgs);
        d.word(self.words);
        d.float(self.model_err.unwrap_or(-1.0));
    }
}

/// A workload made of passes over a fixed op list.
pub trait PassWorkload {
    /// What one op hands to its (untimed) check.
    type Out;

    /// Ops per pass.
    fn ops(&self) -> usize;

    /// Span name of op `idx` (`algos.cannon`, `gemmd.scheduler.run`).
    fn span_name(&self, idx: usize) -> &'static str;

    /// Run op `idx`.  This call, and nothing else, is timed.
    fn run(&mut self, idx: usize) -> Self::Out;

    /// Verify op `idx`'s output and reduce it to its exact facts.
    ///
    /// # Errors
    /// A one-line description of what was wrong; the op counts as
    /// failed.
    fn check(
        &mut self,
        idx: usize,
        out: Self::Out,
        tracer: &mut Tracer,
        op_id: u64,
    ) -> Result<OpFacts, String>;
}

/// Everything measured over the timed passes.
#[derive(Debug, Clone, Default)]
pub struct Measured {
    /// Ops per pass.
    pub ops_per_pass: usize,
    /// Per-op wall milliseconds, pass-major.
    pub op_ms: Vec<f64>,
    /// Per-pass sum of op wall seconds.
    pub pass_s: Vec<f64>,
    /// CPU seconds (user + sys) of the measured process over the timed
    /// passes, verification excluded.
    pub cpu_s: f64,
    /// `VmHWM` of the measured process after the last timed pass.
    pub peak_rss_mb: f64,
    /// Ops attempted in the timed passes.
    pub attempted: u64,
    /// Ops that failed (error, wrong output, or facts that drifted
    /// between passes).
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Σ virtual time over timed ops.
    pub virt_time_total: Option<f64>,
    /// Σ messages over timed ops.
    pub virt_msgs_total: Option<u64>,
    /// Max model error over timed ops.
    pub model_rel_err_max: Option<f64>,
    /// `gemmd_trace`: p99 sojourn over one pass's records.
    pub virt_p99_sojourn: Option<f64>,
    /// `gemmd_trace`: deadline miss ratio over one pass.
    pub virt_deadline_miss_ratio: Option<f64>,
    /// `serve_poll`: submits acknowledged.
    pub jobs_accepted: Option<u64>,
    /// Digest of the first pass's facts, op by op.
    pub digest: u64,
    /// Whether the digest depends on `--seed`.
    pub digest_seeded: bool,
    /// Digest of the generated inputs.
    pub input_digest: u64,
}

impl Measured {
    pub(crate) fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(what);
        }
    }
}

/// Passes to time for a `--seconds` run of a pass-based workload.
#[must_use]
pub fn pass_count(passes_per_10s: usize, params: &RunParams) -> usize {
    if params.smoke {
        return 2;
    }
    ((passes_per_10s as f64 * params.seconds / 10.0).round() as usize).max(2)
}

/// Run `warmup` discarded passes (part of set-up: first-run costs never
/// reach `op_ms_*`).
pub fn warm_up<W: PassWorkload>(w: &mut W, warmup: usize, tracer: &mut Tracer) {
    for _ in 0..warmup {
        for idx in 0..w.ops() {
            let out = w.run(idx);
            // Checked so a broken build fails loudly in set-up too, but
            // warm-up ops are not counted.
            let _ = w.check(idx, out, tracer, 0);
        }
    }
}

/// Time `k` passes of `w`.  Stops early, on a pass boundary, once the
/// timed ops have taken `budget` (a machine far slower than the
/// reference still finishes inside the driver's per-run cap).
pub fn run_passes<W: PassWorkload>(
    w: &mut W,
    k: usize,
    budget: Duration,
    tracer: &mut Tracer,
) -> Measured {
    let me = std::process::id();
    let n = w.ops();
    let mut m = Measured {
        ops_per_pass: n,
        ..Measured::default()
    };
    let (mut virt_time, mut virt_msgs) = (0.0f64, 0u64);
    let mut first_pass: Vec<Option<OpFacts>> = Vec::new();
    let mut spent = Duration::ZERO;
    let mut op_id = 0u64;
    for pass in 0..k {
        if spent >= budget {
            break;
        }
        let mut outs = Vec::with_capacity(n);
        let mut pass_wall = Duration::ZERO;
        let cpu0 = procfs::cpu_seconds(me).unwrap_or(0.0);
        for idx in 0..n {
            op_id += 1;
            let name = w.span_name(idx);
            let t = Instant::now();
            let out = tracer.span(name, op_id, |_| w.run(idx));
            let dt = t.elapsed();
            pass_wall += dt;
            m.op_ms.push(dt.as_secs_f64() * 1e3);
            outs.push((op_id, out));
        }
        m.cpu_s += procfs::cpu_seconds(me).unwrap_or(0.0) - cpu0;
        m.pass_s.push(pass_wall.as_secs_f64());
        spent += pass_wall;
        for (idx, (id, out)) in outs.into_iter().enumerate() {
            m.attempted += 1;
            match w.check(idx, out, tracer, id) {
                Ok(facts) => {
                    virt_time += facts.virt_time;
                    virt_msgs += facts.msgs;
                    if let Some(e) = facts.model_err {
                        m.model_rel_err_max =
                            Some(m.model_rel_err_max.map_or(e, |x: f64| x.max(e)));
                    }
                    if pass == 0 {
                        first_pass.push(Some(facts));
                    } else if first_pass[idx] != Some(facts) {
                        m.fail(format!(
                            "op {idx} pass {pass}: virtual-time facts differ from pass 0 ({facts:?} vs {:?})",
                            first_pass[idx]
                        ));
                    }
                }
                Err(what) => {
                    if pass == 0 {
                        first_pass.push(None);
                    }
                    m.fail(what);
                }
            }
        }
    }
    m.peak_rss_mb = procfs::peak_rss_mb(me).unwrap_or(0.0);
    m.virt_time_total = Some(virt_time);
    m.virt_msgs_total = Some(virt_msgs);
    let mut d = Digest::default();
    for f in first_pass.iter().flatten() {
        f.absorb(&mut d);
    }
    m.digest = d.finish();
    m
}
