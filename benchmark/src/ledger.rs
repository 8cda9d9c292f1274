//! The ledger: every workload in its own child process, a second traced
//! pass, the layer suite, and — with `--sets N` — the repeatability
//! report that says whether the benchmark's own bounds hold.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use crate::catalog::{self, Better, END_TO_END, WORKLOADS};
use crate::json;
use crate::layers::Effort;
use crate::run::{self, RunResult};
use crate::stats;
use crate::workloads::sim;

/// Options of a ledger run.
#[derive(Debug, Clone)]
pub struct LedgerOptions {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds` handed to every child.
    pub seconds: f64,
    /// Output directory.
    pub out: PathBuf,
    /// Golden directory.
    pub goldens: PathBuf,
    /// `gemmd-serve` binary.
    pub serve_bin: PathBuf,
    /// CI-sized run.
    pub smoke: bool,
    /// Rewrite the goldens.
    pub bless: bool,
    /// Complete sets to run.
    pub sets: usize,
    /// Print suggested bounds.
    pub calibrate: bool,
}

fn child(opts: &LedgerOptions, extra: &[&str]) -> Result<(), String> {
    let mut cmd = crate::own_command()?;
    cmd.args([
        "--seed",
        &opts.seed.to_string(),
        "--seconds",
        &opts.seconds.to_string(),
    ])
    .arg("--out")
    .arg(&opts.out)
    .arg("--goldens")
    .arg(&opts.goldens)
    .arg("--serve-bin")
    .arg(&opts.serve_bin)
    .args(extra);
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| e.to_string())?;
    if status.success() {
        Ok(())
    } else {
        Err(format!("child {extra:?} ended with {status}"))
    }
}

fn run_workload(opts: &LedgerOptions, name: &str, traced: bool) -> Result<RunResult, String> {
    let mut extra = vec![
        "--workload",
        name,
        "--trace",
        if traced { "1" } else { "0" },
        "--layers",
        "skip",
    ];
    if opts.bless && !traced {
        extra.push("--bless");
    }
    child(opts, &extra)?;
    let path = RunResult::path(&opts.out, name, traced);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    RunResult::from_json(&text)
}

/// Relative disagreement of a metric's values over the sets: the
/// interquartile distance over the median from four sets up (what the
/// PR driver computes), the full range over the median below that.
#[must_use]
pub fn disagreement(values: &[f64]) -> f64 {
    if values.len() >= 4 {
        return stats::relative_spread(values);
    }
    let mid = stats::median(values);
    let (lo, hi) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    if mid == 0.0 {
        if hi == lo {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (hi - lo) / mid.abs()
    }
}

/// A bound that leaves the measured disagreement a factor of three of
/// room, in steps of 0.05 and at most the contract's 0.25.
#[must_use]
pub fn suggested_bound(spread: f64) -> f64 {
    ((spread * 3.0 / 0.05).ceil() * 0.05).clamp(0.05, 0.25)
}

/// One `(metric, workload)` row of the repeatability report.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric.
    pub metric: &'static str,
    /// Workload.
    pub workload: &'static str,
    /// Value per set.
    pub values: Vec<f64>,
    /// Disagreement between the sets.
    pub spread: f64,
    /// The metric's bound.
    pub bound: f64,
    /// Whether the sets agree within the bound (exact metrics: are
    /// identical).
    pub ok: bool,
    /// Whether a disagreement fails the report: metrics the result line
    /// carries and exact ones do; host-time metrics demoted for noise
    /// are shown but cannot fail it.
    pub gating: bool,
}

/// Compare complete sets of untraced results.
#[must_use]
pub fn compare(sets: &[BTreeMap<String, RunResult>]) -> Vec<Row> {
    let mut rows = Vec::new();
    for def in END_TO_END {
        for w in WORKLOADS {
            let values: Vec<f64> = sets
                .iter()
                .filter_map(|s| s.get(w.name)?.end_to_end.get(def.name).copied().flatten())
                .collect();
            if values.len() != sets.len() || values.is_empty() {
                continue;
            }
            let spread = disagreement(&values);
            let ok = match def.better {
                Better::Exact => values.iter().all(|v| v.to_bits() == values[0].to_bits()),
                _ if def.bound == 0.0 => values.iter().all(|&v| v == values[0]),
                _ => spread <= def.bound,
            };
            rows.push(Row {
                metric: def.name,
                workload: w.name,
                values,
                spread,
                bound: def.bound,
                ok,
                gating: def.contract || def.bound == 0.0,
            });
        }
    }
    rows
}

fn print_rows(rows: &[Row], calibrate: bool) {
    println!(
        "\n{:<26} {:<18} {:>10} {:>8} {:>6}  values per set",
        "metric", "workload", "spread", "bound", ""
    );
    for r in rows {
        let values: Vec<String> = r.values.iter().map(|v| format!("{v:.6}")).collect();
        let mut line = format!(
            "{:<26} {:<18} {:>9.2}% {:>7.0}% {:>6}  {}",
            r.metric,
            r.workload,
            r.spread * 100.0,
            r.bound * 100.0,
            match (r.ok, r.gating) {
                (true, _) => "ok",
                (false, true) => "EXCEED",
                (false, false) => "noisy",
            },
            values.join(" ")
        );
        if calibrate && r.bound > 0.0 {
            let _ = write!(line, "  -> suggest {:.2}", suggested_bound(r.spread));
        }
        println!("{line}");
    }
}

/// Run the ledger.  `Ok(true)` when nothing failed and every bound
/// held.
///
/// # Errors
/// When a child cannot be run or its record cannot be read.
pub fn run(opts: &LedgerOptions) -> Result<bool, String> {
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let mut sets: Vec<BTreeMap<String, RunResult>> = Vec::new();
    for set in 0..opts.sets.max(1) {
        println!(
            "\n######## set {} of {}: end-to-end, tracing off",
            set + 1,
            opts.sets.max(1)
        );
        // Alternate the order so a drift over the session does not
        // always land on the same workload.
        let mut order: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        if set % 2 == 1 {
            order.reverse();
        }
        let mut results = BTreeMap::new();
        for name in order {
            results.insert(name.to_string(), run_workload(opts, name, false)?);
        }
        sets.push(results);
    }

    println!("\n######## traced pass");
    let mut traced = BTreeMap::new();
    for w in WORKLOADS {
        traced.insert(w.name.to_string(), run_workload(opts, w.name, true)?);
    }
    println!("\n######## tracing overhead (ops_per_s, median of the untraced sets vs traced pass)");
    let mut overhead = BTreeMap::new();
    for w in WORKLOADS {
        let get = |r: &RunResult| r.end_to_end.get("ops_per_s").copied().flatten();
        let untraced: Vec<f64> = sets.iter().filter_map(|s| get(&s[w.name])).collect();
        let off = (!untraced.is_empty()).then(|| stats::median(&untraced));
        if let (Some(off), Some(on)) = (off, get(&traced[w.name])) {
            let share = 1.0 - on / off;
            println!(
                "{:<18} {off:>14.3} 1/s -> {on:>14.3} 1/s  overhead {:>6.2} %",
                w.name,
                share * 100.0
            );
            overhead.insert(w.name.to_string(), share);
        }
    }

    println!("\n######## per-layer microbenchmarks");
    let effort = if opts.smoke { "smoke" } else { "full" };
    child(opts, &["--layers-only", effort])?;
    let path = opts.out.join("result_layers.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut layers: BTreeMap<String, Option<f64>> = json::parse(&text)?
        .as_object()
        .ok_or("result_layers.json is not an object")?
        .iter()
        .map(|(k, v)| (k.clone(), v.as_f64()))
        .collect();
    // Host time per simulated message (and flop) from the full untraced
    // runs rather than the suite's single pass.
    for name in [
        "fig_sweep",
        "fig_sweep_event",
        "scale_4k",
        "kernel_heavy",
        "resilient_faults",
    ] {
        let r = &sets[0][name];
        let wall: f64 = r.pass_s.iter().sum();
        if let Some(msgs) = r
            .end_to_end
            .get("virt_msgs_total")
            .copied()
            .flatten()
            .filter(|&m| m > 0.0)
        {
            layers.insert(
                format!("algos.{name}.host_ns_per_msg"),
                Some(wall * 1e9 / msgs),
            );
        }
        if name == "kernel_heavy" && !opts.smoke && r.passes > 0 {
            let flops = sim::kernel_heavy_flops_per_pass() * r.passes as f64;
            layers.insert(
                "algos.kernel_heavy.host_ns_per_flop".into(),
                Some(wall * 1e9 / flops),
            );
        }
    }
    println!("\nper-layer metrics (workload figures from the full untraced runs):");
    run::print_layers(&layers);

    let rows = compare(&sets);
    if sets.len() > 1 || opts.calibrate {
        println!("\n######## repeatability over {} sets", sets.len());
        print_rows(&rows, opts.calibrate);
    }
    let digests_agree = WORKLOADS.iter().all(|w| {
        let first = sets[0][w.name].digest;
        // serve_poll's reply digest depends on how far the loop got.
        w.name == "serve_poll" || sets.iter().all(|s| s[w.name].digest == first)
    });
    if !digests_agree {
        println!("EXCEED: a workload's virtual-time digest differs between sets");
    }
    let failed: u64 = sets
        .iter()
        .flat_map(BTreeMap::values)
        .chain(traced.values())
        .map(|r| r.failed)
        .sum();
    let bounds_ok = rows.iter().all(|r| r.ok || !r.gating) && digests_agree;

    let ledger = render_json(opts, &sets, &traced, &overhead, &layers, &rows);
    let path = opts.out.join("ledger.json");
    std::fs::write(&path, ledger).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "\nledger written to {}; {failed} failed ops; bounds {}",
        path.display(),
        if bounds_ok { "hold" } else { "EXCEEDED" }
    );
    Ok(failed == 0 && bounds_ok)
}

fn opt(v: Option<f64>) -> String {
    v.map_or("null".into(), json::number)
}

/// The machine-readable ledger: catalog (with `moves`), the sets'
/// numbers, the traced pass, the layer figures and the repeatability
/// rows.
fn render_json(
    opts: &LedgerOptions,
    sets: &[BTreeMap<String, RunResult>],
    traced: &BTreeMap<String, RunResult>,
    overhead: &BTreeMap<String, f64>,
    layers: &BTreeMap<String, Option<f64>>,
    rows: &[Row],
) -> String {
    let mut out = String::from("{\n");
    let threads = std::thread::available_parallelism().map_or(0, usize::from);
    let _ = writeln!(
        out,
        "  \"seed\": {}, \"seconds\": {}, \"smoke\": {}, \"host_threads\": {threads},",
        opts.seed,
        json::number(opts.seconds),
        opts.smoke
    );
    out.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let first = &sets[0][w.name];
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"why\": {}, \"passes\": {}, \"ops\": {}, \"digest\": \"{:016x}\", \"golden\": {}}}{}",
            json::quote(w.name),
            json::quote(w.why),
            first.passes,
            first.attempted,
            first.digest,
            json::quote(&first.golden),
            if i + 1 == WORKLOADS.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, def) in END_TO_END.iter().enumerate() {
        let mut per_workload = Vec::new();
        for w in WORKLOADS.iter().filter(|w| catalog::applies(def, w.name)) {
            let values: Vec<String> = sets
                .iter()
                .map(|s| opt(s[w.name].end_to_end.get(def.name).copied().flatten()))
                .collect();
            let on = traced[w.name].end_to_end.get(def.name).copied().flatten();
            per_workload.push(format!(
                "{}: {{\"sets\": [{}], \"traced\": {}}}",
                json::quote(w.name),
                values.join(", "),
                opt(on)
            ));
        }
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}, \"in_result_line\": {}, \"meaning\": {},\n      \"values\": {{{}}}}}{}",
            json::quote(def.name),
            json::quote(def.unit),
            json::quote(def.better.word()),
            json::number(def.bound),
            def.contract,
            json::quote(def.meaning),
            per_workload.join(", "),
            if i + 1 == END_TO_END.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"tracing_overhead\": {");
    let items: Vec<String> = overhead
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), json::number(*v)))
        .collect();
    out.push_str(&items.join(", "));
    out.push_str("},\n  \"per_layer\": [\n");
    let defs = catalog::layers();
    for (i, def) in defs.iter().enumerate() {
        let moves: Vec<String> = def
            .moves
            .iter()
            .map(|(m, w)| {
                format!(
                    "{{\"metric\": {}, \"workload\": {}}}",
                    json::quote(m),
                    json::quote(w)
                )
            })
            .collect();
        let reason = def.ledger_only.map_or(String::new(), |r| {
            format!(", \"null_because\": {}", json::quote(r))
        });
        let _ = writeln!(
            out,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"value\": {}, \"moves\": [{}]{reason}}}{}",
            json::quote(&def.name),
            json::quote(def.unit),
            json::quote(def.better.word()),
            opt(layers.get(&def.name).copied().flatten()),
            moves.join(", "),
            if i + 1 == defs.len() { "" } else { "," }
        );
    }
    out.push_str("  ],\n  \"repeatability\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"metric\": {}, \"workload\": {}, \"spread\": {}, \"bound\": {}, \"ok\": {}, \"gating\": {}}}{}",
            json::quote(r.metric),
            json::quote(r.workload),
            json::number(r.spread),
            json::number(r.bound),
            r.ok,
            r.gating,
            if i + 1 == rows.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Run the layer suite alone and write `result_layers.json`.
///
/// # Errors
/// When the record cannot be written.
pub fn layers_only(
    effort: Effort,
    serve_bin: &std::path::Path,
    out: &std::path::Path,
) -> Result<bool, String> {
    let (layers, problems) = crate::layers::run_all(effort, serve_bin);
    run::print_layers(&layers);
    for p in &problems {
        println!("FAILED layer suite: {p}");
    }
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let body: Vec<String> = layers
        .iter()
        .map(|(k, v)| format!("{}: {}", json::quote(k), opt(*v)))
        .collect();
    let path = out.join("result_layers.json");
    std::fs::write(&path, format!("{{{}}}\n", body.join(", ")))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(problems.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(ops: f64, virt: f64) -> BTreeMap<String, RunResult> {
        WORKLOADS
            .iter()
            .map(|w| {
                let mut r = RunResult {
                    workload: w.name.into(),
                    ..RunResult::default()
                };
                r.end_to_end.insert("ops_per_s".into(), Some(ops));
                r.end_to_end.insert("virt_time_total".into(), Some(virt));
                (w.name.to_string(), r)
            })
            .collect()
    }

    #[test]
    fn sets_within_bound_pass_and_exact_metrics_must_be_identical() {
        let rows = compare(&[set(100.0, 5.0), set(104.0, 5.0)]);
        assert!(rows.iter().all(|r| r.ok), "{rows:?}");
        assert_eq!(rows.len(), 2 * WORKLOADS.len());
        let rows = compare(&[set(100.0, 5.0), set(140.0, 5.0)]);
        assert!(rows.iter().any(|r| r.metric == "ops_per_s" && !r.ok));
        let rows = compare(&[set(100.0, 5.0), set(100.0, 5.000_000_1)]);
        assert!(rows
            .iter()
            .any(|r| r.metric == "virt_time_total" && !r.ok && r.gating));
        assert!(rows
            .iter()
            .filter(|r| r.metric == "ops_per_s")
            .all(|r| r.ok));
    }

    #[test]
    fn disagreement_and_suggested_bounds() {
        assert!((disagreement(&[100.0, 110.0]) - 0.1).abs() < 1e-12);
        assert_eq!(disagreement(&[3.0, 3.0, 3.0]), 0.0);
        // Five sets: interquartile distance, as the driver computes it.
        let five = [10.0, 11.0, 12.0, 13.0, 30.0];
        assert!((disagreement(&five) - stats::relative_spread(&five)).abs() < 1e-12);
        assert_eq!(suggested_bound(0.0), 0.05);
        assert!((suggested_bound(0.04) - 0.15).abs() < 1e-12);
        assert_eq!(suggested_bound(0.5), 0.25);
    }

    #[test]
    fn ledger_json_parses_and_carries_moves() {
        let opts = LedgerOptions {
            seed: 1,
            seconds: 1.0,
            out: "out".into(),
            goldens: "goldens".into(),
            serve_bin: "serve".into(),
            smoke: true,
            bless: false,
            sets: 2,
            calibrate: false,
        };
        let sets = [set(100.0, 5.0), set(101.0, 5.0)];
        let rows = compare(&sets);
        let layers: BTreeMap<String, Option<f64>> = catalog::layers()
            .into_iter()
            .map(|d| (d.name, d.ledger_only.is_none().then_some(2.0)))
            .collect();
        let text = render_json(&opts, &sets, &sets[0], &BTreeMap::new(), &layers, &rows);
        let doc = json::parse(&text).expect("ledger.json parses");
        let per_layer = doc
            .get("per_layer")
            .and_then(json::Value::as_array)
            .unwrap();
        assert_eq!(per_layer.len(), 106);
        for l in per_layer {
            let moves = l.get("moves").and_then(json::Value::as_array).unwrap();
            assert!(!moves.is_empty());
            if l.get("value") == Some(&json::Value::Null) {
                assert!(l.get("null_because").is_some());
            }
        }
        assert_eq!(
            doc.get("end_to_end")
                .and_then(json::Value::as_array)
                .unwrap()
                .len(),
            13
        );
        assert_eq!(
            doc.get("workloads")
                .and_then(json::Value::as_array)
                .unwrap()
                .len(),
            7
        );
    }
}
