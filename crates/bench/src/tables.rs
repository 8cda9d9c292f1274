//! The paper's analytic tables: Table 1 (E-T1), the §7 all-port
//! analysis (E-S7), the §8 technology trade-off (E-C4), §3's speedup
//! saturation with §4's memory table, and the §9 calibration.

use bench::{plot, Args, Fail, Report, ResultTable};
use dense::gen;
use mmsim::{CostModel, Machine, Topology};
use model::isoefficiency::iso_w_numeric;
use model::{allport, fit, memory, saturation, table1, technology, time};
use model::{Algorithm, MachineParams};

/// E-T1: Table 1 — overhead functions, asymptotic isoefficiency and
/// applicability ranges — with each row's asymptotic class validated
/// against the numeric isoefficiency solver.
pub fn table1(_: &Args) -> Result<Report, Fail> {
    let mut r = Report::default();
    r.print(table1::render());

    // Empirical validation: measure the growth exponent of the numeric
    // isoefficiency between p and 2p at a large p, and compare with the
    // class the paper prints.
    let m = MachineParams::future_mimd();
    let e = 0.4;
    let p = 2.0f64.powi(18);
    let mut t = ResultTable::new(
        format!("numeric isoefficiency validation at p = 2^18, E = {e} (t_s=10, t_w=3)"),
        &[
            "algorithm",
            "class (paper)",
            "W(2p)/W(p) measured",
            "W(2p)/W(p) class",
        ],
    );
    for row in table1::rows() {
        let alg = row.algorithm;
        let measured = match (
            iso_w_numeric(alg, p, e, m),
            iso_w_numeric(alg, 2.0 * p, e, m),
        ) {
            (Some(w1), Some(w2)) => format!("{:.3}", w2 / w1),
            _ => "unreachable".to_string(),
        };
        let class_ratio = row.isoefficiency.eval(2.0 * p) / row.isoefficiency.eval(p);
        t.push_row(vec![
            alg.to_string(),
            row.isoefficiency.label().to_string(),
            measured,
            format!("{class_ratio:.3}"),
        ]);
    }
    r.print(t.render());
    r.pinned("table1_validation", &t);

    // DNS note: with t_s = 10 the efficiency ceiling is 1/(1+26) ≈ 0.037,
    // so E = 0.4 is unreachable (§5.3) — the row reads "unreachable".
    r.print(format_args!(
        "DNS efficiency ceiling on this machine: {:.4}",
        time::dns_max_efficiency(m)
    ));
    Ok(r)
}

/// E-S7: the §7 all-port analysis — Eq. (16)/(17) point speedups versus
/// the message-size floors that nullify the scalability gain.
pub fn allport(_: &Args) -> Result<Report, Fail> {
    let mut r = Report::default();
    let m = MachineParams::ncube2();
    r.print(format_args!(
        "all-port communication analysis (t_s = {}, t_w = {})\n",
        m.t_s, m.t_w
    ));

    // Pointwise speedups from all-port hardware (real, §7.3 concedes).
    let mut t = ResultTable::new(
        "T_p single-port vs all-port (Eq. 2/16 and Eq. 7/17)",
        &[
            "n",
            "p",
            "simple 1-port",
            "simple all-port",
            "GK 1-port",
            "GK all-port",
        ],
    );
    for (n, p) in [
        (256.0f64, 256.0f64),
        (1024.0, 1024.0),
        (4096.0, 4096.0),
        (16384.0, 16384.0),
    ] {
        t.push_row(vec![
            format!("{n:.0}"),
            format!("{p:.0}"),
            format!("{:.3e}", time::simple_time(n, p, m)),
            format!("{:.3e}", allport::simple_allport_time(n, p, m)),
            format!("{:.3e}", time::gk_time(n, p, m)),
            format!("{:.3e}", allport::gk_allport_time(n, p, m)),
        ]);
    }
    r.print(t.render());

    // The floors: problem size needed just to fill all channels.
    let mut f = ResultTable::new(
        "message-size floors vs single-port isoefficiency (why scalability does not improve)",
        &[
            "p",
            "simple: W floor",
            "simple: 1-port iso p^1.5",
            "GK: W floor",
            "GK: 1-port iso p(log p)^3",
        ],
    );
    for log2p in [8u32, 12, 16, 20, 24] {
        let p = 2.0f64.powi(log2p as i32);
        let lg: f64 = p.log2();
        f.push_row(vec![
            format!("2^{log2p}"),
            format!("{:.2e}", allport::simple_allport_w_floor(p)),
            format!("{:.2e}", p.powf(1.5)),
            format!("{:.2e}", allport::gk_allport_w_floor(p)),
            format!("{:.2e}", p * lg.powi(3)),
        ]);
    }
    r.print(f.render());
    r.print(
        "conclusion (§7.3): the floor grows at least as fast as the single-port\n\
         isoefficiency for both algorithms — all-port hardware does not improve\n\
         the overall scalability of matrix multiplication on a hypercube.",
    );
    r.pinned("allport_times", &t);
    r.pinned("allport_floors", &f);
    Ok(r)
}

/// E-C4: the §8 technology trade-off — problem-growth factors and
/// wall-clock winners for "k-fold more processors" vs "k-fold faster
/// processors".
pub fn tech_tradeoff(_: &Args) -> Result<Report, Fail> {
    let mut r = Report::default();
    let e = 0.5;
    let mut growth = ResultTable::new(
        format!("W growth factors to hold E = {e} (Cannon's algorithm)"),
        &["machine", "k", "k x processors", "k x faster CPUs"],
    );
    for (label, m) in [
        ("t_s=150, t_w=3", MachineParams::ncube2()),
        ("t_s=10,  t_w=3", MachineParams::future_mimd()),
        ("t_s=0,   t_w=3", MachineParams::new(0.0, 3.0)),
    ] {
        for k in [2.0, 10.0] {
            let more = technology::w_growth_for_more_processors(Algorithm::Cannon, 1.0e4, k, e, m);
            let fast =
                technology::w_growth_for_faster_processors(Algorithm::Cannon, 1.0e4, k, e, m);
            growth.push_row(vec![
                label.to_string(),
                format!("{k:.0}"),
                more.map_or("-".into(), |g| format!("{g:.1}")),
                fast.map_or("-".into(), |g| format!("{g:.1}")),
            ]);
        }
    }
    r.print(growth.render());
    r.print(
        "paper (§8): 10x processors → 31.6x problem; 10x faster CPUs →\n\
         1000x problem (t_w-dominated regime) — the t_w³ isoefficiency\n\
         multiplier at work.\n",
    );

    let mut clock = ResultTable::new(
        "wall-clock: k·p baseline processors vs p processors k-fold faster (Cannon)",
        &["machine", "n", "p", "k", "T many", "T fast", "winner"],
    );
    for (label, m) in [
        ("t_s=150, t_w=3", MachineParams::ncube2()),
        ("t_s=0.5, t_w=3", MachineParams::simd_cm2()),
    ] {
        for (n, p, k) in [
            (512.0, 256.0, 4.0),
            (4096.0, 1024.0, 4.0),
            (16384.0, 4096.0, 4.0),
        ] {
            let (t_many, t_fast) = technology::many_vs_fast(Algorithm::Cannon, n, p, k, m);
            clock.push_row(vec![
                label.to_string(),
                format!("{n:.0}"),
                format!("{p:.0}"),
                format!("{k:.0}"),
                format!("{t_many:.3e}"),
                format!("{t_fast:.3e}"),
                if t_many < t_fast {
                    "more procs"
                } else {
                    "faster procs"
                }
                .to_string(),
            ]);
        }
    }
    r.print(clock.render());
    r.pinned("tech_growth", &growth);
    r.pinned("tech_wallclock", &clock);
    Ok(r)
}

/// §3: fixed-problem speedup saturation (model + executed simulation),
/// scaled speedup along the isoefficiency curve, and the memory table
/// of §4's remarks.
pub fn saturation(_: &Args) -> Result<Report, Fail> {
    let mut r = Report::default();
    let m = MachineParams::ncube2();

    // --- Speedup saturation: model curve + simulated points. ---
    let n = 32usize;
    let ps_model: Vec<f64> = (0..11).map(|k| 2.0f64.powi(k)).collect();
    let curve = saturation::speedup_curve(Algorithm::Cannon, n as f64, m, &ps_model);
    let (p_star, s_star) = saturation::optimal_p(Algorithm::Cannon, n as f64, m);

    let mut t = ResultTable::new(
        format!("fixed-problem speedup, Cannon, n = {n}, t_s = 150, t_w = 3"),
        &["p", "S model", "S simulated"],
    );
    let mut sim_pts = Vec::new();
    for &(p, s_model) in &curve {
        let p_usize = p as usize;
        let sim = (p_usize as f64).sqrt().fract() == 0.0
            && n.is_multiple_of((p_usize as f64).sqrt() as usize);
        let s_sim = if sim {
            let (a, b) = gen::random_pair(n, 17);
            let machine = Machine::new(Topology::square_torus_for(p_usize), CostModel::ncube2());
            let out = algos::cannon(&machine, &a, &b).expect("admissible");
            sim_pts.push((p.log2(), out.speedup()));
            Some(out.speedup())
        } else {
            None
        };
        t.push_row(vec![
            format!("{p:.0}"),
            format!("{s_model:.2}"),
            s_sim.map_or("-".into(), |s| format!("{s:.2}")),
        ]);
    }
    r.print(t.render());
    r.print(format_args!(
        "model saturation point: p* = {p_star:.0} (S = {s_star:.2}) — beyond this,\n\
         adding processors to the fixed n = {n} problem *slows it down* (§3).\n"
    ));

    let model_pts: Vec<(f64, f64)> = curve.iter().map(|&(p, s)| (p.log2(), s)).collect();
    r.print(plot::render(
        "speedup vs log2 p (m = model, s = simulated)",
        &[
            plot::Series::new("model", model_pts),
            plot::Series::new("sim", sim_pts),
        ],
        64,
        14,
    ));

    // --- Scaled speedup along the isoefficiency curve. ---
    let ps: Vec<f64> = (4..14).map(|k| 2.0f64.powi(k)).collect();
    let scaled = saturation::scaled_speedup_curve(Algorithm::Cannon, 0.6, m, &ps);
    let mut t2 = ResultTable::new(
        "scaled speedup: grow W along the isoefficiency curve (target E = 0.6)",
        &["p", "n(p)", "speedup", "S / p"],
    );
    for (p, n, s) in scaled {
        t2.push_row(vec![
            format!("{p:.0}"),
            format!("{n:.0}"),
            format!("{s:.1}"),
            format!("{:.3}", s / p),
        ]);
    }
    r.print(t2.render());
    r.print("S/p stays at the target efficiency — the system is scalable (§3).\n");

    // --- Memory requirements (§4.1, §4.4 remarks). ---
    let mut t3 = ResultTable::new(
        "per-processor memory (words), n = 1024",
        &["algorithm", "p = 64", "p = 4096", "memory efficient?"],
    );
    for alg in [
        Algorithm::Simple,
        Algorithm::Cannon,
        Algorithm::FoxHypercube,
        Algorithm::Berntsen,
        Algorithm::Gk,
        Algorithm::Dns,
    ] {
        let n = 1024.0;
        t3.push_row(vec![
            alg.to_string(),
            format!("{:.0}", memory::words_per_processor(alg, n, 64.0)),
            format!("{:.0}", memory::words_per_processor(alg, n, 4096.0)),
            if memory::is_memory_efficient(alg) {
                "yes"
            } else {
                "no"
            }
            .to_string(),
        ]);
    }
    r.print(t3.render());
    r.pinned("memory_requirements", &t3);
    Ok(r)
}

/// The §9 measurement methodology, end to end: measure message timings
/// and whole-algorithm runs on the simulated machine, then fit the
/// machine constants back out of them — the procedure the paper's
/// authors used to obtain `t_s = 380 µs` and `t_w = 1.8 µs` on the real
/// CM-5 (their footnote 5).
pub fn calibrate(_: &Args) -> Result<Report, Fail> {
    let mut r = Report::default();
    let truth = CostModel::cm5();
    r.print(format_args!(
        "ground truth (hidden from the fit): t_s = {:.3}, t_w = {:.4}\n",
        truth.t_s, truth.t_w
    ));

    // --- Step 1: ping timings, like an MPI latency/bandwidth probe. ---
    let machine = Machine::new(Topology::fully_connected(2), truth);
    let sizes = [1usize, 4, 16, 64, 256, 1024, 4096];
    let samples: Vec<(f64, f64)> = sizes
        .iter()
        .map(|&m| {
            let run = machine.run(|proc| {
                if proc.rank() == 0 {
                    proc.send(1, 0, vec![1.0; m]);
                }
                // Receiver's final clock = message arrival.
                if proc.rank() == 1 {
                    proc.recv(0, 0);
                }
            });
            (m as f64, run.t_parallel)
        })
        .collect();
    let mut t = ResultTable::new("step 1: point-to-point probe", &["words", "time"]);
    for &(m, time) in &samples {
        t.push_row(vec![format!("{m:.0}"), format!("{time:.2}")]);
    }
    r.print(t.render());
    let fitted = fit::fit_linear(&samples).expect("probe is solvable");
    r.print(format_args!(
        "fitted from pings     : t_s = {:.3}, t_w = {:.4}  (exact recovery)\n",
        fitted.t_s, fitted.t_w
    ));

    // --- Step 2: fit from whole Cannon runs instead. ---
    let cannon_samples: Vec<(f64, f64, f64)> = [(16usize, 16usize), (32, 16), (32, 64), (64, 64)]
        .iter()
        .map(|&(n, p)| {
            let (a, b) = gen::random_pair(n, n as u64);
            let machine = Machine::new(Topology::square_torus_for(p), truth);
            let out = algos::cannon(&machine, &a, &b).expect("admissible");
            // Subtract the executed alignment the analytic Eq. (3) omits,
            // so the fit targets the equation the model layer uses.
            let align = 2.0 * (truth.t_s + truth.t_w * (n * n / p) as f64);
            (n as f64, p as f64, out.t_parallel - align)
        })
        .collect();
    let fitted2 = fit::fit_from_parallel_times(Algorithm::Cannon, &cannon_samples)
        .expect("Cannon runs are solvable");
    r.print(format_args!(
        "fitted from Cannon T_p: t_s = {:.3}, t_w = {:.4}",
        fitted2.t_s, fitted2.t_w
    ));
    let close = |a: f64, b: f64| (a - b).abs() / b < 1e-6;
    if !(close(fitted2.t_s, truth.t_s) && close(fitted2.t_w, truth.t_w)) {
        return Err(Fail::Check(format!(
            "the Cannon fit (t_s = {}, t_w = {}) missed the ground truth",
            fitted2.t_s, fitted2.t_w
        )));
    }
    r.print("both fits recover the ground truth — the simulator is self-consistent ✓");

    // For the record: what the paper's constants become at other flop
    // speeds (the §2 normalisation in action).
    let mut t2 = ResultTable::new(
        "\nthe same hardware at different CPU speeds (§8's normalisation)",
        &["flop time (µs)", "t_s (units)", "t_w (units)"],
    );
    for flop_us in [1.53f64, 0.5, 0.1] {
        let m = MachineParams::new(380.0 / flop_us, 1.8 / flop_us);
        t2.push_row(vec![
            format!("{flop_us}"),
            format!("{:.1}", m.t_s),
            format!("{:.3}", m.t_w),
        ]);
    }
    r.print(t2.render());
    Ok(r)
}
