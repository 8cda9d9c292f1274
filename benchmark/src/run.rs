//! One run of one workload in this process: set-up, timed passes,
//! verification, the traced extras, and the result line the PR driver
//! reads.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::time::{Duration, Instant};

use mmsim::EngineKind;

use crate::catalog::{self, END_TO_END};
use crate::golden::{self, Golden};
use crate::json::{self, Value};
use crate::layers::{self, Effort};
use crate::span::{self, Tracer};
use crate::stats;
use crate::workloads::gemmd_trace::GemmdTrace;
use crate::workloads::serve::ServePoll;
use crate::workloads::sim::{self, SimWorkload, SkeletonSplit};
use crate::workloads::{self, Measured, RunParams};

/// Options of one run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Workload name.
    pub workload: String,
    /// Seed, duration, smoke, server binary.
    pub params: RunParams,
    /// Second pass: record spans, run the skeleton and the layer suite.
    pub trace: bool,
    /// Layer suite a traced run adds (`None`: the ledger runs it once,
    /// separately).
    pub layers: Option<Effort>,
    /// Where traces and result files go.
    pub out: PathBuf,
    /// Where the golden digests live.
    pub goldens: PathBuf,
    /// Rewrite this workload's golden line.
    pub bless: bool,
}

/// Everything one run measured.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub traced: bool,
    /// Set-up seconds of each cold process (this one first).
    pub setup_samples: Vec<f64>,
    /// End-to-end metrics by name; `None` = not reported here.
    pub end_to_end: BTreeMap<String, Option<f64>>,
    /// Per-layer metrics by name (traced runs with a layer suite).
    pub layers: BTreeMap<String, Option<f64>>,
    /// Ops attempted in the timed part.
    pub attempted: u64,
    /// Ops failed.
    pub failed: u64,
    /// First few failure descriptions.
    pub failures: Vec<String>,
    /// Timed passes completed.
    pub passes: usize,
    /// Digest of the first pass's virtual-time facts.
    pub digest: u64,
    /// Digest of the generated inputs.
    pub input_digest: u64,
    /// `match`, `MISMATCH`, `unchecked` or `blessed`.
    pub golden: String,
    /// Per-pass timed seconds.
    pub pass_s: Vec<f64>,
    /// Per-op wall ms.
    pub op_ms: Vec<f64>,
}

enum Built {
    Sim(SimWorkload),
    Gemmd(Box<GemmdTrace>),
    Serve(Box<ServePoll>),
}

fn build(name: &str, params: &RunParams, tracer: &mut Tracer) -> Result<Built, String> {
    let def = catalog::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let mut built = match name {
        "fig_sweep" => Built::Sim(sim::fig_sweep(params, None, tracer)),
        "fig_sweep_event" => Built::Sim(sim::fig_sweep(params, Some(EngineKind::Event), tracer)),
        "scale_4k" => Built::Sim(sim::scale_4k(params, tracer)),
        "kernel_heavy" => Built::Sim(sim::kernel_heavy(params, tracer)),
        "resilient_faults" => Built::Sim(sim::resilient_faults(params, tracer)),
        "gemmd_trace" => Built::Gemmd(Box::new(GemmdTrace::build(params, tracer))),
        "serve_poll" => {
            Built::Serve(Box::new(ServePoll::build(params, tracer).map_err(|e| {
                format!("gemmd-serve ({}): {e}", params.serve_bin.display())
            })?))
        }
        other => return Err(format!("workload `{other}` has no builder")),
    };
    match &mut built {
        Built::Sim(w) => workloads::warm_up(w, def.warmup_passes, tracer),
        Built::Gemmd(w) => workloads::warm_up(w.as_mut(), def.warmup_passes, tracer),
        Built::Serve(_) => {}
    }
    Ok(built)
}

/// Build `name` (warm-up included) and say how long that took.
fn timed_build(
    name: &str,
    params: &RunParams,
    tracer: &mut Tracer,
) -> Result<(Built, f64), String> {
    let t0 = Instant::now();
    let built = tracer.span("setup", 0, |t| build(name, params, t))?;
    Ok((built, t0.elapsed().as_secs_f64()))
}

/// The `--setup-only` child: set up, print the seconds, nothing else.
///
/// # Errors
/// As [`run`].
pub fn print_setup_seconds(name: &str, params: &RunParams) -> Result<(), String> {
    let (_built, seconds) = timed_build(name, params, &mut Tracer::new(false))?;
    println!("{seconds}");
    Ok(())
}

/// Set-up seconds of a fresh process of this executable.
fn cold_setup(opts: &RunOptions) -> Result<f64, String> {
    let mut cmd = crate::own_command()?;
    cmd.args([
        "--workload",
        &opts.workload,
        "--seed",
        &opts.params.seed.to_string(),
    ])
    .arg("--serve-bin")
    .arg(&opts.params.serve_bin)
    .arg("--setup-only")
    .stderr(Stdio::inherit());
    if opts.params.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    String::from_utf8_lossy(&output.stdout)
        .trim()
        .parse()
        .map_err(|_| format!("set-up probe failed ({})", output.status))
}

/// Each op of the pass at its undisturbed speed: the minimum of its
/// wall times over the passes, in ms, sorted ascending.
///
/// The reference box loses its CPUs to neighbours for milliseconds at a
/// time and runs 1.5–2× slow for minutes at a time; such disturbance
/// only ever adds time, so the minimum over 14–150 repetitions of one
/// op is the one statistic that repeats from run to run (see README,
/// "How the bounds were calibrated").
fn undisturbed_ms(m: &Measured) -> Vec<f64> {
    let n = m.ops_per_pass.max(1);
    let mut best = vec![f64::INFINITY; n];
    for pass in m.op_ms.chunks_exact(n) {
        for (b, &t) in best.iter_mut().zip(pass) {
            *b = b.min(t);
        }
    }
    stats::sort(&mut best);
    best
}

/// Fill in the end-to-end metrics from what was measured.
fn end_to_end(
    workload: &str,
    setup_s: f64,
    m: &Measured,
    extra: Option<(f64, f64)>,
) -> BTreeMap<String, Option<f64>> {
    let mut sorted = m.op_ms.clone();
    stats::sort(&mut sorted);
    let timed_s: f64 = m.pass_s.iter().sum();
    let (ops_per_s, op_ms_p50) = if workload == "serve_poll" {
        // One long closed loop, paced by the server: nothing repeats,
        // and the plain figures are already steady.
        (
            m.attempted as f64 / timed_s,
            (!sorted.is_empty()).then(|| stats::percentile(&sorted, 0.5)),
        )
    } else {
        let best = undisturbed_ms(m);
        let pass_ms: f64 = best.iter().sum();
        (
            m.ops_per_pass as f64 * 1e3 / pass_ms,
            (!m.op_ms.is_empty()).then(|| stats::percentile(&best, 0.5)),
        )
    };
    // CPU per op at the same undisturbed speed: the run's CPU-to-wall
    // ratio (which a slow spell leaves alone) times the op's wall time.
    let cpu_ms_per_op = m.cpu_s / timed_s * 1e3 / ops_per_s;
    let mut v: BTreeMap<String, Option<f64>> = BTreeMap::new();
    let mut set = |name: &str, value: Option<f64>| {
        let def = catalog::end_to_end(name).expect("catalogued metric");
        v.insert(
            name.into(),
            value.filter(|_| catalog::applies(def, workload)),
        );
    };
    set("setup_s", Some(setup_s));
    set("ops_per_s", Some(ops_per_s));
    set("op_ms_p50", op_ms_p50);
    set("op_ms_p90", stats::tail_percentile(&sorted, 0.9));
    set("cpu_ms_per_op", Some(cpu_ms_per_op));
    set("peak_rss_mb", Some(m.peak_rss_mb));
    set(
        "fail_ratio",
        Some(m.failed as f64 / m.attempted.max(1) as f64),
    );
    set("virt_time_total", m.virt_time_total);
    set("virt_msgs_total", m.virt_msgs_total.map(|x| x as f64));
    set("model_rel_err_max", m.model_rel_err_max);
    set("virt_p99_sojourn", extra.map(|e| e.0));
    set("virt_deadline_miss_ratio", extra.map(|e| e.1));
    set("jobs_accepted", m.jobs_accepted.map(|x| x as f64));
    v
}

fn print_skeleton(s: &SkeletonSplit) {
    let pct = |x: u64| 100.0 * x as f64 / s.run_ns.max(1) as f64;
    println!(
        "cannon skeleton n = {} p = {}: run {:.3} ms = send {:.3} ms ({:.1} %) + kernel {:.3} ms ({:.1} %) \
         + residual (recv, scheduler, switches) {:.3} ms ({:.1} %); {} msgs, {} words, matches algos::cannon: {}",
        s.n,
        s.p,
        s.run_ns as f64 / 1e6,
        s.send_ns as f64 / 1e6,
        pct(s.send_ns),
        s.kernel_ns as f64 / 1e6,
        pct(s.kernel_ns),
        s.residual_ns() as f64 / 1e6,
        pct(s.residual_ns()),
        s.msgs,
        s.words,
        s.matches_algos
    );
}

/// Run one workload and return what was measured.
///
/// # Errors
/// Problems that prevent measuring at all: unknown workload, missing
/// server binary, unwritable output directory.
pub fn run(opts: &RunOptions) -> Result<RunResult, String> {
    let name = opts.workload.as_str();
    let def = catalog::workload(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let mut tracer = Tracer::new(opts.trace);
    let (built, own_setup) = timed_build(name, &opts.params, &mut tracer)?;
    // Set-up is paid once per process, so it is sampled in cold
    // processes: this one and at least four more, and further ones
    // while they are cheap (a 60 ms set-up is mostly process start-up
    // and repeats worst of all), up to fifteen or 2.5 s of sampling.
    // `--smoke` keeps its own sample only.
    let mut setup_samples = vec![own_setup];
    let sampling = Instant::now();
    while !opts.params.smoke
        && (setup_samples.len() < 5
            || (setup_samples.len() < 15 && sampling.elapsed() < Duration::from_millis(2500)))
    {
        setup_samples.push(cold_setup(opts)?);
    }
    let setup_s = stats::median(&setup_samples);

    // A traced run that also carries the layer suite times a third of
    // the passes, so that it ends about when an untraced run does.
    let mut k = workloads::pass_count(def.passes_per_10s, &opts.params);
    let with_layers = opts.trace && opts.layers.is_some();
    if with_layers {
        k = (k / 3).max(2);
    }
    let budget = Duration::from_secs_f64(opts.params.seconds * 6.0);
    let mut skeleton = None;
    let (mut m, extra) = match built {
        Built::Sim(mut w) => {
            let mut m = workloads::run_passes(&mut w, k, budget, &mut tracer);
            m.input_digest = w.input_digest;
            m.digest_seeded = w.seeded_facts;
            if opts.trace {
                skeleton = sim::skeleton_point(name, &w).map(|pt| {
                    tracer.span("skeleton.cannon", 0, |_| {
                        sim::cannon_skeleton(&pt.machine, &pt.a, &pt.b)
                    })
                });
            }
            (m, None)
        }
        Built::Gemmd(mut w) => {
            let mut m = workloads::run_passes(w.as_mut(), k, budget, &mut tracer);
            m.input_digest = w.input_digest;
            // Operands never change virtual time, and the trace is fixed.
            m.digest_seeded = false;
            (m, w.pass_summary())
        }
        Built::Serve(w) => {
            let seconds = match (opts.params.smoke, with_layers) {
                (true, _) => 2.0,
                (false, true) => opts.params.seconds / 3.0,
                (false, false) => opts.params.seconds,
            };
            (w.run(Duration::from_secs_f64(seconds), &mut tracer), None)
        }
    };

    let golden = if name == "serve_poll" {
        // How far the closed loop gets depends on speed, so its replies
        // are checked against the in-process oracle instead.
        Golden::Unchecked
    } else {
        golden::check(
            &opts.goldens,
            name,
            &golden::scope(m.digest_seeded, opts.params.seed, opts.params.smoke),
            m.digest,
            opts.bless,
        )
        .map_err(|e| format!("golden {}: {e}", opts.goldens.display()))?
    };
    if let Golden::Mismatch { expected } = golden {
        m.fail(format!(
            "golden digest mismatch: got {:016x}, {}/{name}.digest holds {expected:016x} — virtual time changed",
            m.digest,
            opts.goldens.display()
        ));
    }
    if let Some(s) = &skeleton {
        if !s.matches_algos {
            m.fail(format!(
                "cannon skeleton diverged from algos::cannon: {s:?}"
            ));
        }
    }

    let mut result = RunResult {
        workload: name.into(),
        seed: opts.params.seed,
        traced: opts.trace,
        end_to_end: end_to_end(name, setup_s, &m, extra),
        setup_samples,
        attempted: m.attempted,
        failed: m.failed,
        failures: m.failures.clone(),
        passes: m.pass_s.len(),
        digest: m.digest,
        input_digest: m.input_digest,
        golden: golden.word().into(),
        pass_s: m.pass_s.clone(),
        op_ms: m.op_ms.clone(),
        layers: BTreeMap::new(),
    };

    println!(
        "== {name} seed {} {}: {} passes x {} ops, {} attempted, {} failed, golden {} (digest {:016x}, inputs {:016x})",
        opts.params.seed,
        if opts.trace { "traced" } else { "untraced" },
        result.passes,
        m.ops_per_pass,
        m.attempted,
        m.failed,
        result.golden,
        m.digest,
        m.input_digest
    );
    for f in &m.failures {
        println!("FAILED {f}");
    }
    for def in END_TO_END {
        match result.end_to_end.get(def.name).copied().flatten() {
            Some(v) => println!("{:<26} {v:>16.6} {}", def.name, def.unit),
            None if catalog::applies(def, name) => {
                println!(
                    "{:<26} {:>16} {} (under 100 timed ops: {})",
                    def.name,
                    "null",
                    def.unit,
                    m.op_ms.len()
                );
            }
            None => {}
        }
    }
    println!("{:<26} {:>16} samples", "op_ms_*", m.op_ms.len());

    if opts.trace {
        std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
        let path = opts.out.join(format!("trace_{name}.json"));
        std::fs::write(&path, span::chrome_trace(tracer.spans(), name))
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!(
            "\nself time by span ({} spans, {}):",
            tracer.spans().len(),
            path.display()
        );
        print!(
            "{}",
            span::render_self_times(&span::self_times(tracer.spans()))
        );
        if let Some(s) = &skeleton {
            print_skeleton(s);
        }
        if let Some(effort) = opts.layers {
            let (layers, problems) = layers::run_all(effort, &opts.params.serve_bin);
            for p in &problems {
                result.failed += 1;
                result.failures.push(format!("layer suite: {p}"));
                println!("FAILED layer suite: {p}");
            }
            println!("\nper-layer metrics:");
            print_layers(&layers);
            result.layers = layers;
        }
    }
    Ok(result)
}

/// Print layer metrics by name with their units.
pub fn print_layers(values: &BTreeMap<String, Option<f64>>) {
    for def in catalog::layers() {
        match values.get(&def.name) {
            Some(Some(v)) => println!("{:<52} {v:>16.4} {}", def.name, def.unit),
            Some(None) | None => println!(
                "{:<52} {:>16} {} ({})",
                def.name,
                "null",
                def.unit,
                def.ledger_only.unwrap_or("not measured in this run")
            ),
        }
    }
}

/// The last line of a run's standard output: exactly `correct`,
/// `attempted`, `failed` and `metrics`, the metrics being every
/// end-to-end metric the driver carries (untraced) or every per-layer
/// metric it carries (traced).
#[must_use]
pub fn result_line(r: &RunResult) -> String {
    let mut metrics = String::new();
    let mut push = |name: &str, unit: &str, value: Option<f64>| {
        if let Some(v) = value {
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            let _ = write!(
                metrics,
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json::quote(name),
                json::number(v),
                json::quote(unit)
            );
        }
    };
    if r.traced {
        for def in catalog::layers().iter().filter(|d| d.ledger_only.is_none()) {
            push(
                &def.name,
                def.unit,
                r.layers.get(&def.name).copied().flatten(),
            );
        }
    } else {
        for def in END_TO_END.iter().filter(|d| d.contract) {
            push(
                def.name,
                def.unit,
                r.end_to_end.get(def.name).copied().flatten(),
            );
        }
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        r.failed == 0,
        r.attempted.max(1),
        r.failed
    )
}

fn map_json(m: &BTreeMap<String, Option<f64>>) -> String {
    let body: Vec<String> = m
        .iter()
        .map(|(k, v)| {
            format!(
                "{}: {}",
                json::quote(k),
                v.map_or("null".into(), json::number)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn list_json(v: &[f64]) -> String {
    let body: Vec<String> = v.iter().map(|&x| json::number(x)).collect();
    format!("[{}]", body.join(", "))
}

impl RunResult {
    /// The full record as JSON (what the set runner reads back).
    #[must_use]
    pub fn to_json(&self) -> String {
        let failures: Vec<String> = self.failures.iter().map(|f| json::quote(f)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {}, \"traced\": {}, \"attempted\": {}, \"failed\": {}, \
             \"passes\": {}, \"digest\": \"{:016x}\", \"input_digest\": \"{:016x}\", \"golden\": {}, \
             \"failures\": [{}], \"setup_samples\": {}, \"end_to_end\": {}, \"layers\": {}, \
             \"pass_s\": {}, \"op_ms\": {}}}",
            json::quote(&self.workload),
            self.seed,
            self.traced,
            self.attempted,
            self.failed,
            self.passes,
            self.digest,
            self.input_digest,
            json::quote(&self.golden),
            failures.join(", "),
            list_json(&self.setup_samples),
            map_json(&self.end_to_end),
            map_json(&self.layers),
            list_json(&self.pass_s),
            list_json(&self.op_ms),
        )
    }

    /// Read a record written by [`RunResult::to_json`].
    ///
    /// # Errors
    /// If the text is not such a record.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = json::parse(text)?;
        let num = |k: &str| {
            v.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing {k}"))
        };
        let text_of = |k: &str| {
            v.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing {k}"))
        };
        let map = |k: &str| -> Result<BTreeMap<String, Option<f64>>, String> {
            Ok(v.get(k)
                .and_then(Value::as_object)
                .ok_or_else(|| format!("missing {k}"))?
                .iter()
                .map(|(name, x)| (name.clone(), x.as_f64()))
                .collect())
        };
        let list = |k: &str| -> Result<Vec<f64>, String> {
            Ok(v.get(k)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("missing {k}"))?
                .iter()
                .filter_map(Value::as_f64)
                .collect())
        };
        let hex = |k: &str| -> Result<u64, String> {
            u64::from_str_radix(&text_of(k)?, 16).map_err(|e| format!("{k}: {e}"))
        };
        Ok(Self {
            workload: text_of("workload")?,
            seed: num("seed")? as u64,
            traced: v.get("traced") == Some(&Value::Bool(true)),
            attempted: num("attempted")? as u64,
            failed: num("failed")? as u64,
            passes: num("passes")? as usize,
            digest: hex("digest")?,
            input_digest: hex("input_digest")?,
            golden: text_of("golden")?,
            failures: v
                .get("failures")
                .and_then(Value::as_array)
                .map(|a| {
                    a.iter()
                        .filter_map(|f| f.as_str().map(str::to_string))
                        .collect()
                })
                .unwrap_or_default(),
            setup_samples: list("setup_samples")?,
            end_to_end: map("end_to_end")?,
            layers: map("layers")?,
            pass_s: list("pass_s")?,
            op_ms: list("op_ms")?,
        })
    }

    /// Where the set runner expects this run's record.
    #[must_use]
    pub fn path(dir: &Path, workload: &str, traced: bool) -> PathBuf {
        dir.join(format!(
            "result_{workload}_{}.json",
            if traced { "traced" } else { "untraced" }
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(traced: bool) -> RunResult {
        let mut r = RunResult {
            workload: "fig_sweep".into(),
            seed: 7,
            traced,
            attempted: 86,
            failed: 0,
            passes: 2,
            digest: 0xdead_beef,
            input_digest: 1,
            golden: "match".into(),
            failures: vec!["a \"quoted\" failure".into()],
            setup_samples: vec![0.5, 0.25, 0.75],
            pass_s: vec![0.1, 0.2],
            op_ms: vec![1.5, 2.5],
            ..RunResult::default()
        };
        for def in END_TO_END {
            r.end_to_end
                .insert(def.name.into(), def.contract.then_some(1.25));
        }
        for def in catalog::layers() {
            r.layers
                .insert(def.name.clone(), def.ledger_only.is_none().then_some(3.5));
        }
        r
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_metrics() {
        for traced in [false, true] {
            let line = result_line(&sample_result(traced));
            assert!(!line.contains('\n'));
            let v = json::parse(&line).expect("result line parses");
            let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
            let metrics = v.get("metrics").and_then(Value::as_object).unwrap();
            let want: Vec<String> = if traced {
                catalog::layers()
                    .into_iter()
                    .filter(|d| d.ledger_only.is_none())
                    .map(|d| d.name)
                    .collect()
            } else {
                END_TO_END
                    .iter()
                    .filter(|d| d.contract)
                    .map(|d| d.name.to_string())
                    .collect()
            };
            assert_eq!(metrics.len(), want.len());
            for name in want {
                let m = &metrics[&name];
                assert!(m.get("value").and_then(Value::as_f64).is_some(), "{name}");
                assert!(m.get("unit").and_then(Value::as_str).is_some(), "{name}");
                assert_eq!(m.as_object().unwrap().len(), 2);
            }
        }
    }

    #[test]
    fn full_record_round_trips() {
        let r = sample_result(true);
        let back = RunResult::from_json(&r.to_json()).expect("round trip");
        assert_eq!(back.workload, r.workload);
        assert_eq!(back.digest, r.digest);
        assert_eq!(back.failures, r.failures);
        assert_eq!(back.end_to_end, r.end_to_end);
        assert_eq!(back.layers, r.layers);
        assert_eq!(back.op_ms, r.op_ms);
        assert!(back.traced);
    }

    #[test]
    fn throughput_and_median_use_each_ops_best_pass() {
        // Two ops per pass; pass 2 is disturbed on op 0, pass 3 on op 1.
        let m = Measured {
            ops_per_pass: 2,
            op_ms: vec![1.0, 4.0, 9.0, 4.0, 1.0, 30.0],
            pass_s: vec![0.005, 0.013, 0.031],
            attempted: 6,
            cpu_s: 0.049,
            ..Measured::default()
        };
        let v = end_to_end("kernel_heavy", 0.1, &m, None);
        assert!(
            (v["ops_per_s"].unwrap() - 400.0).abs() < 1e-9,
            "2 ops in 1 + 4 ms"
        );
        assert_eq!(v["op_ms_p50"], Some(1.0), "nearest-rank median of [1, 4]");
        // CPU tracked wall one to one, so CPU per op is wall per op.
        assert!((v["cpu_ms_per_op"].unwrap() - 2.5).abs() < 1e-9);
        let serve = end_to_end("serve_poll", 0.1, &m, None);
        assert_eq!(
            serve["op_ms_p50"],
            Some(4.0),
            "serve_poll: plain median of all six"
        );
    }

    #[test]
    fn metrics_absent_from_a_workload_are_null_not_zero() {
        let mut m = Measured {
            ops_per_pass: 1,
            op_ms: vec![400.0; 12],
            pass_s: vec![0.4; 12],
            attempted: 12,
            virt_time_total: Some(5.0),
            virt_msgs_total: Some(6),
            ..Measured::default()
        };
        m.cpu_s = 2.4;
        let v = end_to_end("scale_4k", 1.0, &m, None);
        assert_eq!(
            v["op_ms_p90"], None,
            "12 ops leave fewer than ten beyond p90"
        );
        assert_eq!(v["virt_p99_sojourn"], None);
        assert_eq!(v["jobs_accepted"], None);
        assert_eq!(v["virt_msgs_total"], Some(6.0));
        assert_eq!(v["op_ms_p50"], Some(400.0));
        assert!((v["ops_per_s"].unwrap() - 2.5).abs() < 1e-12);
        // 2.4 CPU s over 4.8 wall s: half a core, so 200 ms per op.
        assert!((v["cpu_ms_per_op"].unwrap() - 200.0).abs() < 1e-9);
        let serve = end_to_end("serve_poll", 1.0, &m, None);
        assert_eq!(serve["virt_time_total"], None);
    }
}
