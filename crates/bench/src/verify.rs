//! The reproduction scorecard: re-derive every headline number and
//! in-text claim of the paper (E-C1..E-C5) and check it against the
//! recorded expectation, failing on any drift. The same facts are also
//! pinned by `tests/paper_claims.rs`; this prints them side by side with
//! the paper's values.

use bench::{Args, Fail, Report, ResultTable};
use dense::gen;
use mmsim::{CostModel, Machine, Topology};
use model::{cm5, crossover, technology, time, Algorithm, MachineParams};

/// What a check's measured value must satisfy.
enum Bound {
    /// Within `rtol` of `expected` (relative).
    Near { expected: f64, rtol: f64 },
    /// At least this much.
    AtLeast(f64),
}

struct Check {
    id: &'static str,
    what: &'static str,
    paper: &'static str,
    bound: Bound,
    got: f64,
}

impl Check {
    fn ok(&self) -> bool {
        match self.bound {
            Bound::Near { expected, rtol } => {
                (self.got - expected).abs() <= rtol * expected.abs().max(1e-12)
            }
            Bound::AtLeast(lo) => self.got >= lo,
        }
    }

    fn expected(&self) -> String {
        match self.bound {
            Bound::Near { expected, .. } => format!("{expected:.6}"),
            Bound::AtLeast(lo) => format!(">= {lo:.0}"),
        }
    }
}

fn near(expected: f64, rtol: f64) -> Bound {
    Bound::Near { expected, rtol }
}

/// E-C5 (§10): the smallest power-of-two p at which DNS beats GK
/// anywhere in its applicability window when t_s = 10·t_w, or ∞ if it
/// never does below 2^40.
fn dns_beats_gk_from_p() -> f64 {
    let m = MachineParams::new(10.0, 1.0);
    let dns_wins = |p: f64| {
        [0.34, 0.36, 0.4, 0.45, 0.5].into_iter().any(|frac| {
            let n = p.powf(frac);
            Algorithm::Dns.applicable(n, p)
                && model::overhead::overhead_fig(Algorithm::Dns, n, p, m)
                    < model::overhead::overhead_fig(Algorithm::Gk, n, p, m)
        })
    };
    (2..40)
        .map(|log2p| 2.0f64.powi(log2p))
        .find(|&p| dns_wins(p))
        .unwrap_or(f64::INFINITY)
}

fn checks() -> Vec<Check> {
    let m5 = MachineParams::cm5();
    let m1 = MachineParams::ncube2();
    let mut checks = vec![
        Check {
            id: "crossover-p64",
            what: "E-C3a: GK/Cannon equal-overhead n at p=64 on CM-5 constants (§9)",
            paper: "83 (measured 96)",
            bound: near(83.0, 0.03),
            got: cm5::crossover_n(64.0, m5).unwrap_or(f64::NAN),
        },
        Check {
            id: "crossover-p512",
            what: "E-C3b: GK/Cannon equal-overhead n at p=512 on CM-5 constants (§9)",
            paper: "295",
            bound: near(295.0, 0.03),
            got: cm5::crossover_n(512.0, m5).unwrap_or(f64::NAN),
        },
        Check {
            id: "tw-flip",
            what: "E-C1: GK t_w term beats Cannon's beyond p (§6)",
            paper: "1.3e8",
            bound: near(1.3e8, 0.08),
            got: crossover::gk_tw_term_crossover_p(),
        },
        Check {
            id: "dns-ceiling",
            what: "DNS max efficiency 1/(1+2(t_s+t_w)) at t_s=150 t_w=3 (§5.3)",
            paper: "1/307",
            bound: near(1.0 / 307.0, 1e-9),
            got: time::dns_max_efficiency(m1),
        },
        Check {
            id: "dns-ceiling-ts10",
            what: "E-C2: DNS max efficiency 1/(1+2(t_s+t_w)) at t_s=10 t_w=3 (§5.3)",
            paper: "1/27",
            bound: near(1.0 / 27.0, 1e-9),
            got: time::dns_max_efficiency(MachineParams::future_mimd()),
        },
        Check {
            id: "dns-flip",
            what: "E-C5: DNS beats GK only beyond p when t_s=10·t_w (§10)",
            paper: "~1e4",
            bound: Bound::AtLeast(1.0e4),
            got: dns_beats_gk_from_p(),
        },
        Check {
            id: "tech-more",
            what: "E-C4a: W growth for 10x processors on Cannon (§8)",
            paper: "31.6",
            bound: near(31.6, 0.05),
            got: technology::w_growth_for_more_processors(Algorithm::Cannon, 1.0e4, 10.0, 0.5, m1)
                .unwrap_or(f64::NAN),
        },
        Check {
            id: "tech-fast",
            what: "E-C4b: W growth for 10x faster CPUs when t_w-bound (§8)",
            paper: "1000",
            bound: near(1000.0, 0.05),
            got: technology::w_growth_for_faster_processors(
                Algorithm::Cannon,
                1.0e4,
                10.0,
                0.5,
                MachineParams::new(0.0, 3.0),
            )
            .unwrap_or(f64::NAN),
        },
        Check {
            id: "gap-ratio",
            what: "E-C3c: GK(112/512) / Cannon(110/484) efficiency ratio on CM-5 (§9)",
            paper: "0.50/0.28 = 1.79",
            bound: near(1.86, 0.10),
            got: cm5::gk_cm5_efficiency(112.0, 512.0, m5)
                / cm5::cannon_efficiency(110.0, 484.0, m5),
        },
    ];

    // Simulation goldens: exact virtual times of reference runs — any
    // change to the engine's accounting shows up here first.
    let (a, b) = gen::random_pair(16, 7);
    let machine = Machine::new(Topology::square_torus_for(16), CostModel::ncube2());
    let cannon = algos::cannon(&machine, &a, &b).expect("applicable");
    let machine8 = Machine::new(Topology::hypercube_for(8), CostModel::new(10.0, 1.0));
    let gk = algos::gk(&machine8, &a, &b).expect("applicable");
    let gk2 = algos::gk(&machine8, &a, &b).expect("applicable");
    checks.extend([
        Check {
            id: "sim-cannon",
            what: "simulated Cannon T_p = Eq. (3) + alignment at n=16 p=16 t_s=150 t_w=3",
            paper: "-",
            bound: near(algos::cannon::predicted_time(16, 16, 150.0, 3.0), 1e-12),
            got: cannon.t_parallel,
        },
        Check {
            id: "sim-gk-eq7",
            what: "simulated GK T_p vs Eq. (7) at n=16 p=8 t_s=10 t_w=1 (within 25%)",
            paper: "-",
            bound: near(algos::gk::eq7_time(16, 8, 10.0, 1.0), 0.25),
            got: gk.t_parallel,
        },
        Check {
            id: "sim-determinism",
            what: "GK run-to-run virtual-time difference (must be 0)",
            paper: "-",
            bound: near(0.0, 0.0),
            got: (gk.t_parallel - gk2.t_parallel).abs(),
        },
    ]);
    checks
}

/// The scorecard; any failed check fails the run, `--enforce` or not.
pub fn verify(_: &Args) -> Result<Report, Fail> {
    let checks = checks();
    let mut table = ResultTable::new(
        "reproduction scorecard",
        &["id", "check", "paper value", "expected", "got", "status"],
    );
    for c in &checks {
        table.push_row(vec![
            c.id.to_string(),
            c.what.to_string(),
            c.paper.to_string(),
            c.expected(),
            format!("{:.6}", c.got),
            if c.ok() { "ok" } else { "FAIL" }.to_string(),
        ]);
    }
    let failures = checks.iter().filter(|c| !c.ok()).count();
    if failures > 0 {
        return Err(Fail::Check(format!(
            "{}{failures} check(s) FAILED",
            table.render()
        )));
    }
    let mut r = Report::default();
    r.print(table.render());
    r.print(format_args!("all {} checks passed", checks.len()));
    r.pinned("verify", &table);
    Ok(r)
}
