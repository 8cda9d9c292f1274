//! §3 illustration: fixed-problem speedup saturation (model + executed
//! simulation) and the memory-requirement table of §4's remarks.
//!
//! ```sh
//! cargo run -p bench --release --bin saturation
//! ```

use bench::{plot, ResultTable};
use dense::gen;
use mmsim::{CostModel, Machine, Topology};
use model::{memory, saturation, Algorithm, MachineParams};

fn main() {
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
    println!("{}", t.render());
    println!(
        "model saturation point: p* = {p_star:.0} (S = {s_star:.2}) — beyond this,\n\
         adding processors to the fixed n = {n} problem *slows it down* (§3).\n"
    );

    let model_pts: Vec<(f64, f64)> = curve.iter().map(|&(p, s)| (p.log2(), s)).collect();
    println!(
        "{}",
        plot::render(
            "speedup vs log2 p (m = model, s = simulated)",
            &[
                plot::Series::new("model", model_pts),
                plot::Series::new("sim", sim_pts)
            ],
            64,
            14,
        )
    );

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
    println!("{}", t2.render());
    println!("S/p stays at the target efficiency — the system is scalable (§3).\n");

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
    println!("{}", t3.render());
    let path = t3.save_csv("memory_requirements");
    println!("CSV written to {}", path.display());
}
