//! `bench`: the one reproduction driver. Every table, figure and in-text
//! claim of the paper, and every experiment beyond it, is a subcommand:
//!
//! ```sh
//! cargo run -p bench --release -- <subcommand> [options]
//! cargo run -p bench --release -- all --smoke --enforce   # what CI runs
//! ```
//!
//! `bench` with no subcommand prints the table below.

mod ablation;
mod engine_perf;
mod explore;
mod faults;
mod figures;
mod runner;
mod service;
mod tables;
mod verify;
mod workload;

use std::process::ExitCode;

use bench::{Opt, Syntax};
use runner::{Command, Dirs};

/// The subcommand table; `all` runs the pinned rows in this order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "table1",
        about: "E-T1: Table 1 and a numeric check of its isoefficiency classes",
        syntax: Syntax::NONE,
        pinned: true,
        run: tables::table1,
    },
    Command {
        name: "regions",
        about: "E-F1..E-F3: Figures 1-3, best-algorithm region maps",
        syntax: Syntax::NONE,
        pinned: true,
        run: figures::regions,
    },
    Command {
        name: "cm5",
        about: "E-F4, E-F5: Figures 4-5, CM-5 efficiency vs n at p = 64 and p = 484/512",
        syntax: Syntax::NONE,
        pinned: true,
        run: figures::cm5,
    },
    Command {
        name: "verify",
        about: "scorecard: every headline number and in-text claim (E-C1..E-C5) checked",
        syntax: Syntax::NONE,
        pinned: true,
        run: verify::verify,
    },
    Command {
        name: "allport",
        about: "E-S7: §7 all-port speedups vs message-size floors",
        syntax: Syntax::NONE,
        pinned: true,
        run: tables::allport,
    },
    Command {
        name: "tech_tradeoff",
        about: "E-C4: §8 more processors vs faster processors",
        syntax: Syntax::NONE,
        pinned: true,
        run: tables::tech_tradeoff,
    },
    Command {
        name: "saturation",
        about: "§3 speedup saturation and scaled speedup, §4 memory table",
        syntax: Syntax::NONE,
        pinned: true,
        run: tables::saturation,
    },
    Command {
        name: "ablation",
        about: "Fox packet count, routing mode and GK topology, in virtual time",
        syntax: Syntax::NONE,
        pinned: true,
        run: ablation::ablation,
    },
    Command {
        name: "workload",
        about: "gemmd: whole-machine FIFO vs isoefficiency right-sizing",
        syntax: Syntax::options(&[Opt::new("jobs", "24"), Opt::new("seed", "9")]),
        pinned: true,
        run: workload::workload,
    },
    Command {
        name: "resilience",
        about: "reliable forms under link faults, deaths and priced detection",
        syntax: Syntax::options(&[Opt::new("n", "24"), Opt::new("seed", "7")]),
        pinned: true,
        run: faults::resilience,
    },
    Command {
        name: "migration",
        about: "gemmd: proactive live migration vs reactive recovery",
        syntax: Syntax::options(&[Opt::with_smoke("jobs", "12", "6"), Opt::new("seed", "9")]),
        pinned: true,
        run: faults::migration,
    },
    Command {
        name: "service",
        about: "gemmd online service: fifo / spt / edf / edf+batch tail latency",
        syntax: Syntax::options(&[Opt::with_smoke("jobs", "150", "60"), Opt::new("seed", "11")]),
        pinned: true,
        run: service::service,
    },
    Command {
        name: "preemption",
        about: "gemmd: preemptive gang rescheduling vs edf+batch, and elastic/shed overload rows",
        syntax: Syntax::options(&[Opt::with_smoke("jobs", "150", "60"), Opt::new("seed", "11")]),
        pinned: true,
        run: service::preemption,
    },
    Command {
        name: "engine_perf",
        about: "virtual-time goldens of the simulator hot path on both engines",
        syntax: Syntax::NONE,
        pinned: true,
        run: engine_perf::engine_perf,
    },
    Command {
        name: "calibrate",
        about: "§9: fit t_s and t_w back out of simulated pings and Cannon runs",
        syntax: Syntax::NONE,
        pinned: false,
        run: tables::calibrate,
    },
    Command {
        name: "sweep",
        about: "any algorithms over an n × p grid, model and (--sim) simulated",
        syntax: Syntax {
            options: &[
                Opt::new("alg", "cannon,gk,berntsen,dns"),
                Opt::new("n", "16,32,64,128"),
                Opt::new("p", "4,16,64,256"),
                Opt::new("ts", "150"),
                Opt::new("tw", "3"),
            ],
            switches: &["sim"],
            positional: "",
        },
        pinned: false,
        run: explore::sweep,
    },
    Command {
        name: "simulate",
        about: "one algorithm on one machine, full virtual-time report",
        syntax: Syntax {
            options: &[],
            switches: &[],
            positional: "<algorithm> <n> <p> [hypercube|torus|full|ring] [t_s] [t_w]",
        },
        pinned: false,
        run: explore::simulate,
    },
];

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let dirs = Dirs {
        goldens: bench::goldens_dir(),
        results: bench::results_dir(),
    };
    let (mut out, mut err) = (std::io::stdout().lock(), std::io::stderr().lock());
    if runner::run(COMMANDS, &argv, &dirs, &mut out, &mut err) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
