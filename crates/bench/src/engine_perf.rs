//! E-PERF: engine golden harness — runs representative sweeps through
//! the simulator hot path and gates them on golden virtual-time CSVs
//! (`--smoke` runs the CI-sized slices).
//!
//! Five slices exercise the paths the headline artefacts spend their
//! time in.  `cm5_64`, `cm5_512` and `workload` pin
//! `EngineKind::Threaded`: both engines share one network, and these
//! slices are its golden check under real threads, where ranks race
//! freely, whichever engine is the default.  Host time is the ledger's
//! job (`benchmark/run.sh`), not this binary's.
//!
//! * `regions`  — the Figure 1–3 region-map grids (pure model
//!   evaluation; the memoised `T_p(n, p)` oracle's territory).
//! * `cm5_64`   — the Figure 4 curve (Cannon and GK at p = 64).
//! * `cm5_512`  — the Figure 5 slice (GK at p = 512, Cannon at
//!   p = 484).
//! * `event_4k` — Cannon at p = 4096 on the event-driven engine: the
//!   massive-p regime.
//! * `workload` — a gemmd service sweep (scheduler + partitioned runs).
//!
//! Every slice reduces its runs to virtual-time observables —
//! `t_parallel`, per-rank [`mmsim::ProcStats`], message/word counts,
//! region letters, the workload table — formatted with exact float
//! bit patterns and compared byte-for-byte against committed goldens
//! in `crates/bench/goldens/` (`{smoke,full}_{runs,ranks,regions,
//! workload}.csv`; the `workload` subcommand's own goldens are
//! `workload.csv` and `workload_smoke.csv`).

use std::fmt::Write as _;

use bench::{bits, Args, Fail, Report};
use dense::gen;
use mmsim::{CostModel, EngineKind, Machine, ProcStats, Topology};
use model::regions::RegionMap;
use model::MachineParams;

use crate::workload::{run_workload_sweep, WorkloadSweep};

/// One simulated run reduced to its virtual-time observables.
fn run_row(slice: &str, algo: &str, p: usize, n: usize, out: &algos::SimOutcome) -> String {
    let sum = |f: fn(&ProcStats) -> f64| bits(out.stats.iter().map(f).sum());
    format!(
        "{slice},{algo},{p},{n},{},{:.6},{},{},{},{},{},{},{},{}\n",
        bits(out.t_parallel),
        out.t_parallel,
        out.total_messages(),
        out.total_words(),
        out.stats.iter().map(|s| s.hops_traversed).sum::<u64>(),
        out.stats.iter().map(|s| s.unreceived).sum::<u64>(),
        sum(|s| s.clock),
        sum(|s| s.compute),
        sum(|s| s.comm),
        sum(|s| s.idle),
    )
}

const RUN_HEADER: &str = "slice,algo,p,n,t_parallel_bits,t_parallel,msgs,words,hops,\
                          unreceived,sum_clock_bits,sum_compute_bits,sum_comm_bits,sum_idle_bits\n";

/// Per-rank ProcStats rows for one designated run (the fine-grained
/// half of the golden: catches any per-rank accounting drift that
/// aggregate sums could mask).
fn rank_rows(run: &str, out: &algos::SimOutcome, buf: &mut String) {
    for (rank, s) in out.stats.iter().enumerate() {
        let _ = writeln!(
            buf,
            "{run},{rank},{},{},{},{},{},{},{},{},{}",
            bits(s.clock),
            bits(s.compute),
            bits(s.comm),
            bits(s.idle),
            s.msgs_sent,
            s.words_sent,
            s.msgs_received,
            s.hops_traversed,
            s.unreceived,
        );
    }
}

const RANK_HEADER: &str = "run,rank,clock_bits,compute_bits,comm_bits,idle_bits,\
                           msgs_sent,words_sent,msgs_received,hops,unreceived\n";

/// The CM-5 slices: simulate each admissible (algo, p, n) point on the
/// fully connected CM-5 cost model — the Figure 4/5 binaries' points,
/// on the threaded engine — and reduce to run + per-rank golden rows.
#[allow(clippy::type_complexity)]
fn run_cm5_slice(
    slice: &'static str,
    points: &[(&'static str, usize, usize)], // (algo, p, n)
    rank_detail: &[(&'static str, usize, usize)],
    runs_csv: &mut String,
    ranks_csv: &mut String,
) {
    let cost = CostModel::cm5();
    for &(algo, p, n) in points {
        let (a, b) = gen::random_pair(n, n as u64);
        let machine =
            Machine::new(Topology::fully_connected(p), cost).with_engine(EngineKind::Threaded);
        let out = match algo {
            "cannon" => algos::cannon(&machine, &a, &b),
            "gk" => algos::gk(&machine, &a, &b),
            other => panic!("unknown algo {other}"),
        }
        .unwrap_or_else(|e| panic!("{slice} {algo} p={p} n={n}: {e}"));
        runs_csv.push_str(&run_row(slice, algo, p, n, &out));
        if rank_detail.contains(&(algo, p, n)) {
            rank_rows(&format!("{slice}/{algo}/p{p}/n{n}"), &out, ranks_csv);
        }
    }
}

/// The region-map slice: compute the Figure 1–3 grids, golden-reducing
/// each grid to one letter string per map row.
fn run_regions_slice(cols: usize, rows: usize, csv: &mut String) {
    let figures: [(&str, MachineParams); 3] = [
        ("fig1_ncube2", MachineParams::ncube2()),
        ("fig2_future_mimd", MachineParams::future_mimd()),
        ("fig3_simd_cm2", MachineParams::simd_cm2()),
    ];
    for (name, m) in figures {
        let map = RegionMap::compute_range(m, (2.0, 16.0), (0.0, 28.0), cols, rows);
        for (pi, row) in map.cells.iter().enumerate() {
            let letters: String = row.iter().collect();
            let _ = writeln!(csv, "{name},{pi},{letters}");
        }
    }
}

/// The massive-p slice: Cannon on a 64×64 torus of 4096 virtual ranks,
/// event-driven engine — the virtual-time goldens of that regime.
fn run_event4k_slice(points: &[(usize, usize)], runs_csv: &mut String) {
    let cost = CostModel::cm5();
    for &(p, n) in points {
        let (a, b) = gen::random_pair(n, n as u64);
        let machine =
            Machine::new(Topology::square_torus_for(p), cost).with_engine(EngineKind::Event);
        let out = algos::cannon(&machine, &a, &b)
            .unwrap_or_else(|e| panic!("event_4k cannon p={p} n={n}: {e}"));
        runs_csv.push_str(&run_row("event_4k", "cannon_event", p, n, &out));
    }
}

/// The gemmd slice: one deterministic service sweep (scheduler +
/// partitioned runs on the threaded engine); the golden is the full
/// metrics table.
fn run_workload_slice(csv: &mut String) {
    let sweep = WorkloadSweep::smoke(0xE6E);
    csv.push_str(&run_workload_sweep(&sweep, EngineKind::Threaded).to_csv());
}

/// The five slices, each reduced to its golden CSV.
pub fn engine_perf(args: &Args) -> Result<Report, Fail> {
    let smoke = args.smoke;
    let mode = if smoke { "smoke" } else { "full" };
    let mut r = Report::default();
    r.print(format_args!(
        "=== engine_perf: simulator hot-path goldens ({mode} slices) ==="
    ));

    let mut runs_csv = String::from(RUN_HEADER);
    let mut ranks_csv = String::from(RANK_HEADER);
    let mut regions_csv = String::from("figure,row,letters\n");
    let mut workload_csv = String::new();

    // Region-map slice: full = the exact Figure 1–3 grids; smoke = a
    // coarse grid.
    let (cols, rows) = if smoke { (24, 10) } else { (96, 40) };
    run_regions_slice(cols, rows, &mut regions_csv);

    // CM-5 p = 64 curve (Figure 4 shape): Cannon q = 8, GK s = 4.
    let cm5_64: Vec<(&str, usize, usize)> = if smoke {
        vec![("cannon", 64, 16), ("gk", 64, 16)]
    } else {
        (8..=96)
            .step_by(8)
            .map(|n| ("cannon", 64, n))
            .chain((8..=96).step_by(4).map(|n| ("gk", 64, n)))
            .collect()
    };
    run_cm5_slice(
        "cm5_64",
        &cm5_64,
        &[("gk", 64, 8)],
        &mut runs_csv,
        &mut ranks_csv,
    );

    // CM-5 512-rank slice (Figure 5 shape): GK p = 512 (s = 8),
    // Cannon p = 484 (q = 22).
    let cm5_512: Vec<(&str, usize, usize)> = if smoke {
        vec![("gk", 512, 8)]
    } else {
        [8, 16, 24, 32, 40, 48]
            .into_iter()
            .map(|n| ("gk", 512, n))
            .chain([22, 44].into_iter().map(|n| ("cannon", 484, n)))
            .collect()
    };
    let detail_512: &[(&str, usize, usize)] = if smoke {
        &[("gk", 512, 8)]
    } else {
        &[("gk", 512, 16), ("cannon", 484, 22)]
    };
    run_cm5_slice(
        "cm5_512",
        &cm5_512,
        detail_512,
        &mut runs_csv,
        &mut ranks_csv,
    );

    // Massive-p slice on the event engine: smoke = one point, full
    // adds the n = 128 (one-element-block) configuration.
    let event_4k: &[(usize, usize)] = if smoke {
        &[(4096, 64)]
    } else {
        &[(4096, 64), (4096, 128)]
    };
    run_event4k_slice(event_4k, &mut runs_csv);

    // gemmd workload slice (same shape in both modes; it is already
    // the CI smoke sweep).
    run_workload_slice(&mut workload_csv);

    for (kind, csv) in [
        ("runs", runs_csv),
        ("ranks", ranks_csv),
        ("regions", regions_csv),
        ("workload", workload_csv),
    ] {
        r.golden(format!("{mode}_{kind}.csv"), csv);
    }
    Ok(r)
}
