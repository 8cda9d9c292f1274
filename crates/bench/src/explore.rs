//! Free exploration beyond the paper's grid: `sweep` evaluates any
//! algorithms over a grid of matrix sizes and processor counts
//! (analytic, and executed with `--sim`), and `simulate` runs one
//! algorithm on one machine and prints its full virtual-time report.
//! Their output depends on the arguments, so nothing here is pinned.

use bench::{parallel_sweep, Args, Fail, Report, ResultTable};
use dense::gen;
use mmsim::{CostModel, Machine, Topology};
use model::time::parallel_time;
use model::{Algorithm, MachineParams};
use parmm::advisor::{executable_applicability, run_algorithm};

/// The algorithm whose [`Algorithm::id`] is `name`.
///
/// # Errors
/// [`Fail::Usage`] naming every id when none matches.
pub fn parse_algorithm(name: &str) -> Result<Algorithm, Fail> {
    Algorithm::ALL
        .into_iter()
        .find(|a| a.id() == name)
        .ok_or_else(|| {
            let ids: Vec<&str> = Algorithm::ALL.iter().map(|a| a.id()).collect();
            Fail::Usage(format!(
                "unknown algorithm {name:?} (one of {})",
                ids.join(", ")
            ))
        })
}

/// A comma-separated list, each item parsed by `item`.
fn list<T>(text: &str, item: impl Fn(&str) -> Result<T, Fail>) -> Result<Vec<T>, Fail> {
    text.split(',').map(|s| item(s.trim())).collect()
}

/// The parameter sweep: `--alg`, `--n` and `--p` are comma-separated
/// lists, `--ts`/`--tw` the machine constants, `--sim` adds executed
/// runs next to the model.
pub fn sweep(args: &Args) -> Result<Report, Fail> {
    let size = |key: &'static str| {
        move |s: &str| {
            s.parse::<usize>()
                .map_err(|e| Fail::Usage(format!("--{key}: {e}")))
        }
    };
    let algs = list(args.text("alg"), parse_algorithm)?;
    let ns = list(args.text("n"), size("n"))?;
    let ps = list(args.text("p"), size("p"))?;
    let (ts, tw): (f64, f64) = (args.value("ts")?, args.value("tw")?);
    let sim = args.switch("sim");
    let m = MachineParams::new(ts, tw);
    let cost = CostModel::new(ts, tw);

    // Build the full grid, then evaluate points in parallel (each
    // simulation stays internally deterministic).
    let mut grid = Vec::new();
    for &alg in &algs {
        for &n in &ns {
            for &p in &ps {
                grid.push((alg, n, p));
            }
        }
    }
    let rows = parallel_sweep(grid, |&(alg, n, p)| {
        let model_t = alg
            .applicable(n as f64, p as f64)
            .then(|| parallel_time(alg, n as f64, p as f64, m));
        let sim_e = (sim && executable_applicability(alg, n, p).is_ok()).then(|| {
            let machine = Machine::new(default_topology(p), cost);
            let (a, b) = gen::random_pair(n, (n * 31 + p) as u64);
            let out = run_algorithm(alg, &machine, &a, &b).expect("checked applicable");
            (out.t_parallel, out.efficiency())
        });
        (alg, n, p, model_t, sim_e)
    });

    let mut table = ResultTable::new(
        format!("sweep: t_s = {ts}, t_w = {tw}"),
        &[
            "algorithm",
            "n",
            "p",
            "T_p model",
            "E model",
            "T_p sim",
            "E sim",
        ],
    );
    for (alg, n, p, model_t, sim_e) in rows {
        let w = (n as f64).powi(3);
        table.push_row(vec![
            alg.id().to_string(),
            n.to_string(),
            p.to_string(),
            model_t.map_or("-".into(), |t| format!("{t:.1}")),
            model_t.map_or("-".into(), |t| format!("{:.3}", w / (p as f64 * t))),
            sim_e.map_or("-".into(), |(t, _)| format!("{t:.1}")),
            sim_e.map_or("-".into(), |(_, e)| format!("{e:.3}")),
        ]);
    }
    let mut r = Report::default();
    r.print(table.render());
    r.file("sweep.csv", table.to_csv());
    Ok(r)
}

/// A hypercube when `p` is a power of two, else fully connected.
fn default_topology(p: usize) -> Topology {
    if p.is_power_of_two() {
        Topology::hypercube_for(p)
    } else {
        Topology::fully_connected(p)
    }
}

/// The `i`-th positional argument parsed as a `T`, or `default` when
/// it is absent.
fn positional<T: std::str::FromStr>(
    args: &Args,
    i: usize,
    what: &str,
    default: T,
) -> Result<T, Fail> {
    args.positional.get(i).map_or(Ok(default), |s| {
        s.parse()
            .map_err(|_| Fail::Usage(format!("{what} must be a number, not {s:?}")))
    })
}

/// One run: `<algorithm> <n> <p> [topology] [t_s] [t_w]`, topology one
/// of hypercube, torus, full and ring (default: hypercube for a power
/// of two p, else full), t_s and t_w defaulting to the nCUBE2's 150
/// and 3.
pub fn simulate(args: &Args) -> Result<Report, Fail> {
    let pos = &args.positional;
    if !(3..=6).contains(&pos.len()) {
        return Err(Fail::Usage(format!(
            "simulate takes 3 to 6 arguments, not {}",
            pos.len()
        )));
    }
    let alg = parse_algorithm(&pos[0])?;
    let n: usize = positional(args, 1, "n", 0)?;
    let p: usize = positional(args, 2, "p", 0)?;
    let topo = match pos.get(3).map(String::as_str) {
        None => default_topology(p),
        Some("hypercube") => Topology::hypercube_for(p),
        Some("torus") => Topology::square_torus_for(p),
        Some("full") => Topology::fully_connected(p),
        Some("ring") => Topology::ring(p),
        Some(other) => return Err(Fail::Usage(format!("unknown topology {other:?}"))),
    };
    let t_s: f64 = positional(args, 4, "t_s", 150.0)?;
    let t_w: f64 = positional(args, 5, "t_w", 3.0)?;

    let machine = Machine::new(topo, CostModel::new(t_s, t_w));
    let (a, b) = gen::random_pair(n, 0xC0FFEE);
    let mut r = Report::default();
    r.print(format_args!(
        "running {alg} on n = {n}, p = {p}, {} topology, t_s = {t_s}, t_w = {t_w}",
        machine.topology().kind()
    ));
    let out = run_algorithm(alg, &machine, &a, &b)
        .map_err(|e| Fail::Check(format!("not applicable: {e}")))?;
    let verified = out.c.approx_eq(&(&a * &b), 1e-9);
    r.print(format_args!(
        "  product verified : {}\n  T_p              : {:.1} units\n  speedup          : {:.2}\n  \
         efficiency       : {:.4}\n  total overhead   : {:.1}\n  messages / words : {} / {}\n  \
         compute/comm/idle: {:.0} / {:.0} / {:.0}",
        if verified { "yes" } else { "NO — BUG" },
        out.t_parallel,
        out.speedup(),
        out.efficiency(),
        out.overhead(),
        out.total_messages(),
        out.total_words(),
        out.total_compute(),
        out.total_comm(),
        out.total_idle()
    ));
    if !verified {
        return Err(Fail::Check(format!("{}the product is wrong", r.text)));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::Syntax;

    #[test]
    fn every_algorithm_id_round_trips_and_unknown_names_are_rejected() {
        for alg in Algorithm::ALL {
            assert_eq!(parse_algorithm(alg.id()), Ok(alg));
        }
        for bad in ["", "fox", "Cannon", "gk_improved", "banana"] {
            assert!(
                matches!(parse_algorithm(bad), Err(Fail::Usage(_))),
                "{bad:?} must be rejected"
            );
        }
    }

    fn simulate_line(line: &str) -> Result<Report, Fail> {
        const SYNTAX: Syntax = Syntax {
            options: &[],
            switches: &[],
            positional: "<algorithm> <n> <p> [topology] [t_s] [t_w]",
        };
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        simulate(&Args::parse(&argv, &SYNTAX).unwrap())
    }

    #[test]
    fn simulate_rejects_malformed_numbers() {
        for line in [
            "cannon 16 16 hypercube abc xyz",
            "cannon 16 16 hypercube 150 xyz",
            "cannon 16 sixteen",
            "cannon 16",
            "cannon 16 16 moebius",
        ] {
            assert!(
                matches!(simulate_line(line), Err(Fail::Usage(_))),
                "{line:?} must be a usage error"
            );
        }
        let r = simulate_line("gk-improved 8 8 hypercube 10 1").unwrap();
        assert!(r.text.contains("t_s = 10, t_w = 1"), "{}", r.text);
        assert!(r.text.contains("product verified : yes"), "{}", r.text);
    }
}
