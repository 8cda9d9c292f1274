//! `bench`: the ledger's command line.
//!
//! ```text
//! bench --workload W --seed N --seconds S --trace 0|1   one run (what the PR driver calls)
//! bench [--seed N] [--out DIR] [--sets N] [--calibrate] [--smoke] [--bless]
//!                                                       the whole ledger
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use ledger::layers::Effort;
use ledger::ledger::LedgerOptions;
use ledger::run::{RunOptions, RunResult};
use ledger::workloads::{RunParams, DEFAULT_SEED};

const USAGE: &str = "usage:
  bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--layers skip|quick|full]
        one workload in this process; the last output line is the JSON result
  bench [--seed N] [--seconds S] [--out DIR] [--sets N] [--calibrate] [--smoke] [--bless]
        the whole ledger: every workload in its own process, the traced pass, the layer suite
common: [--out DIR] [--goldens DIR] [--serve-bin PATH]
workloads: fig_sweep fig_sweep_event scale_4k kernel_heavy resilient_faults gemmd_trace serve_poll";

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    goldens: PathBuf,
    serve_bin: PathBuf,
    smoke: bool,
    bless: bool,
    sets: usize,
    calibrate: bool,
    layers: Option<String>,
    layers_only: Option<String>,
    setup_only: bool,
    probe_scale4k: Option<usize>,
}

fn parse() -> Result<Cli, String> {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from);
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        out: "benchmark/out".into(),
        goldens: "benchmark/goldens".into(),
        serve_bin: target.join("release/gemmd-serve"),
        smoke: false,
        bless: false,
        sets: 1,
        calibrate: false,
        layers: None,
        layers_only: None,
        setup_only: false,
        probe_scale4k: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |s: String| s.parse::<f64>().map_err(|e| format!("{arg} {s}: {e}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value()?),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => cli.seconds = number(value()?)?,
            "--trace" => cli.trace = number(value()?)? != 0.0,
            "--out" => cli.out = value()?.into(),
            "--goldens" => cli.goldens = value()?.into(),
            "--serve-bin" => cli.serve_bin = value()?.into(),
            "--sets" => cli.sets = number(value()?)? as usize,
            "--layers" => cli.layers = Some(value()?),
            "--layers-only" => cli.layers_only = Some(value()?),
            "--probe-scale4k" => cli.probe_scale4k = Some(number(value()?)? as usize),
            "--smoke" => cli.smoke = true,
            "--bless" => cli.bless = true,
            "--calibrate" => cli.calibrate = true,
            "--setup-only" => cli.setup_only = true,
            "--emit-benchmark-json" => {
                print!("{}", ledger::catalog::benchmark_json());
                std::process::exit(0);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !(cli.seconds > 0.0 && cli.seconds <= 60.0) {
        return Err(format!("--seconds {} is outside (0, 60]", cli.seconds));
    }
    if cli.calibrate && cli.sets < 5 {
        return Err("--calibrate needs --sets 5 or more".into());
    }
    Ok(cli)
}

fn effort(word: &str) -> Result<Effort, String> {
    match word {
        "smoke" => Ok(Effort::Smoke),
        "quick" => Ok(Effort::Quick),
        "full" => Ok(Effort::Full),
        other => Err(format!("unknown effort `{other}` (smoke, quick or full)")),
    }
}

fn main_inner() -> Result<bool, String> {
    let cli = parse()?;
    if let Some(runs) = cli.probe_scale4k {
        ledger::layers::scale4k_child(runs.max(3));
        return Ok(true);
    }
    if let Some(word) = &cli.layers_only {
        return ledger::ledger::layers_only(effort(word)?, &cli.serve_bin, &cli.out);
    }
    let params = RunParams {
        seed: cli.seed,
        seconds: cli.seconds,
        smoke: cli.smoke,
        serve_bin: cli.serve_bin.clone(),
    };
    let Some(workload) = cli.workload else {
        return ledger::ledger::run(&LedgerOptions {
            seed: cli.seed,
            seconds: cli.seconds,
            out: cli.out,
            goldens: cli.goldens,
            serve_bin: cli.serve_bin,
            smoke: cli.smoke,
            bless: cli.bless,
            sets: cli.sets,
            calibrate: cli.calibrate,
        });
    };
    let layers = match cli.layers.as_deref() {
        Some("skip") => None,
        Some(word) => Some(effort(word)?),
        None => Some(Effort::Quick),
    };
    let opts = RunOptions {
        workload,
        params,
        trace: cli.trace,
        layers,
        out: cli.out,
        goldens: cli.goldens,
        bless: cli.bless,
    };
    if cli.setup_only {
        ledger::run::print_setup_seconds(&opts.workload, &opts.params)?;
        return Ok(true);
    }
    let result = ledger::run::run(&opts)?;
    std::fs::create_dir_all(&opts.out).map_err(|e| format!("{}: {e}", opts.out.display()))?;
    let path = RunResult::path(&opts.out, &opts.workload, opts.trace);
    std::fs::write(&path, result.to_json()).map_err(|e| format!("{}: {e}", path.display()))?;
    // The driver reads the last line; a run with failed ops still
    // reports (`"correct": false`) rather than aborting.
    println!("{}", ledger::run::result_line(&result));
    Ok(true)
}

fn main() -> ExitCode {
    match main_inner() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("bench: {msg}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
