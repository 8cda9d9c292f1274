//! The paper's figures: the Figure 1–3 best-algorithm region maps
//! (E-F1..E-F3) and the Figure 4/5 CM-5 efficiency curves (E-F4,
//! E-F5). Each subcommand prints every figure of its family, and each
//! grid is defined here once.

use bench::cm5_common::{cm5_series, simulated_crossover};
use bench::{fmt_opt, plot, svg, Args, Fail, Report, ResultTable};
use model::crossover::{gk_vs_cannon_closed_form, n_equal_overhead};
use model::regions::RegionMap;
use model::{cm5, Algorithm, MachineParams};

/// A region figure: its name, machine constants and the paper's
/// reading of the map.
type RegionFigure = (&'static str, fn() -> MachineParams, &'static str);

/// Figures 1–3.
const REGION_FIGURES: [RegionFigure; 3] = [
    (
        "Figure 1",
        MachineParams::ncube2,
        "paper check (§6): on this machine the DNS algorithm never wins\n\
         (its equal-overhead curve vs GK lies in the x region), Berntsen\n\
         owns p < n^{3/2}, and GK owns everything above.",
    ),
    (
        "Figure 2",
        MachineParams::future_mimd,
        "paper check (§6): \"each of the four algorithms performs better\n\
         than the rest in some region and all the four regions a, b, c, d\n\
         contain practical values of p and n.\"",
    ),
    (
        "Figure 3",
        MachineParams::simd_cm2,
        "paper check (§6): DNS for n² ≤ p ≤ n³, Cannon for n^{3/2} ≤ p ≤ n²,\n\
         Berntsen for p < n^{3/2}; the GK algorithm only starts winning\n\
         beyond p ≈ 1.3×10⁸ (footnote 4), outside the practical range —\n\
         except for a hairline strip right at the p = n³ boundary where\n\
         DNS pays its extra 2(t_s+t_w)n³ term (see EXPERIMENTS.md).",
    ),
];

/// E-F1..E-F3: the three region maps, their equal-overhead curves, and
/// each sampled grid as CSV and SVG.
pub fn regions(_: &Args) -> Result<Report, Fail> {
    let mut r = Report::default();
    for (figure, machine, note) in REGION_FIGURES {
        region_figure(&mut r, figure, machine());
        r.print(format_args!("\n{note}\n"));
    }
    Ok(r)
}

fn region_figure(r: &mut Report, figure: &str, m: MachineParams) {
    let stem = figure.to_lowercase().replace(' ', "_");
    r.print(format_args!(
        "=== {figure}: best-algorithm regions for t_s = {}, t_w = {} ===\n",
        m.t_s, m.t_w
    ));
    let map = RegionMap::compute_range(m, (2.0, 16.0), (0.0, 28.0), 96, 40);
    r.print(map.render());

    let mut shares = String::from("region shares: ");
    for (letter, frac) in map.letter_fractions() {
        if frac > 0.0 {
            shares += &format!("{letter}: {:.1}%  ", frac * 100.0);
        }
    }
    r.print(format_args!("{shares}\n"));

    // Equal-overhead curves the paper overlays on the figure.
    let pairs = [
        (Algorithm::Gk, Algorithm::Cannon),
        (Algorithm::Gk, Algorithm::Berntsen),
        (Algorithm::Dns, Algorithm::Gk),
        (Algorithm::Berntsen, Algorithm::Cannon),
    ];
    let mut curves = ResultTable::new(
        "equal-overhead matrix sizes n*(p): left algorithm better below n*",
        &[
            "p",
            "GK vs Cannon",
            "GK vs Berntsen",
            "DNS vs GK",
            "Berntsen vs Cannon",
        ],
    );
    for log2p in (2..=28).step_by(2) {
        let p = 2.0f64.powi(log2p);
        let mut row = vec![format!("2^{log2p}")];
        for (a, b) in pairs {
            let n_star = if (a, b) == (Algorithm::Gk, Algorithm::Cannon) {
                gk_vs_cannon_closed_form(p, m)
            } else {
                n_equal_overhead(a, b, p, m)
            };
            row.push(n_star.map_or_else(|| "-".to_string(), |n| format!("{n:.0}")));
        }
        curves.push_row(row);
    }
    r.print(curves.render());

    let mut grid = ResultTable::new(
        format!("{figure} region grid"),
        &["log2_n", "log2_p", "letter"],
    );
    for (pi, row) in map.cells.iter().enumerate() {
        for (ni, &c) in row.iter().enumerate() {
            grid.push_row(vec![
                format!("{:.3}", map.log2_n[ni]),
                format!("{:.3}", map.log2_p[pi]),
                c.to_string(),
            ]);
        }
    }
    r.pinned(&format!("{stem}_grid"), &grid);
    r.file(format!("{stem}_regions.svg"), svg::region_map_svg(&map, 7));
}

/// Figure 4's sizes: multiples of 8 (both the Cannon mesh side 8 and
/// the GK cube side 4 divide some of them).
fn figure4_sizes() -> Vec<usize> {
    (8..=192).step_by(8).collect()
}

/// Figure 5's sizes: multiples of 8 (GK cube side) and of 22 (Cannon
/// mesh side).
fn figure5_sizes() -> Vec<usize> {
    let mut sizes: Vec<usize> = (8..=448).step_by(8).collect();
    for n in (22..=440).step_by(22) {
        if !sizes.contains(&n) {
            sizes.push(n);
        }
    }
    sizes.sort_unstable();
    sizes
}

/// E-F4 and E-F5: efficiency vs matrix size for Cannon's and the GK
/// algorithm on the CM-5 model — Cannon p = 64 vs GK p = 64, then
/// Cannon p = 484 vs GK p = 512 (Cannon needs a perfect square and GK
/// a power of eight; "the efficiency can only be better for smaller
/// number of processors").
pub fn cm5(_: &Args) -> Result<Report, Fail> {
    let mut r = Report::default();
    cm5_figure(&mut r, "Figure 4", 64, 64, &figure4_sizes());
    r.print(
        "\npaper check (§9): GK wins below the crossover, Cannon above;\n\
         predicted crossover n ≈ 83, measured on the real CM-5 at n = 96.\n",
    );
    cm5_figure(&mut r, "Figure 5", 484, 512, &figure5_sizes());
    r.print(
        "\npaper check (§9): predicted crossover n ≈ 295; in the region\n\
         where GK is better the efficiency gap is large (paper: 0.50 vs\n\
         0.28 around n ≈ 110; the model preserves the ≈1.8x ratio).",
    );
    Ok(r)
}

fn cm5_figure(r: &mut Report, figure: &str, p_cannon: usize, p_gk: usize, sizes: &[usize]) {
    let stem = figure.to_lowercase().replace(' ', "_");
    let m = MachineParams::cm5();
    r.print(format_args!(
        "=== {figure}: efficiency vs matrix size (Cannon p = {p_cannon}, GK p = {p_gk}) ===\n\
         CM-5 constants: t_s = {:.2}, t_w = {:.3} (normalised to 1.53 µs per multiply-add)\n",
        m.t_s, m.t_w
    ));

    let series = cm5_series(p_cannon, p_gk, sizes);
    let mut t = ResultTable::new(
        "E = n³/(p·T_p); sim = executed on the virtual CM-5, model = Eq. (3)/(18)",
        &["n", "E_cannon_sim", "E_cannon_eq3", "E_gk_sim", "E_gk_eq18"],
    );
    for pt in &series {
        t.push_row(vec![
            pt.n.to_string(),
            fmt_opt(pt.cannon_sim),
            format!("{:.3}", pt.cannon_model),
            fmt_opt(pt.gk_sim),
            format!("{:.3}", pt.gk_model),
        ]);
    }
    r.print(t.render());
    r.pinned(&stem, &t);

    // Terminal plot of the simulated curves (the paper's figure shape).
    let points = |f: fn(&bench::cm5_common::Cm5Point) -> Option<f64>| {
        series
            .iter()
            .filter_map(|pt| f(pt).map(|e| (pt.n as f64, e)))
            .collect()
    };
    let named = [
        plot::Series::new("cannon (sim)", points(|pt| pt.cannon_sim)),
        plot::Series::new("gk (sim)", points(|pt| pt.gk_sim)),
        plot::Series::new("cannon Eq.3", points(|pt| Some(pt.cannon_model))),
        plot::Series::new("gk Eq.18", points(|pt| Some(pt.gk_model))),
    ];
    r.print(format_args!(
        "\n{}",
        plot::render(
            &format!("{figure}: efficiency vs n (simulated)"),
            &named[..2],
            72,
            18,
        )
    ));
    r.file(
        format!("{stem}.svg"),
        svg::line_chart(
            &format!("{figure}: efficiency vs matrix size"),
            &named,
            760,
            460,
        ),
    );

    if let Some(n_star) = cm5::crossover_n(p_gk as f64, m) {
        r.print(format_args!(
            "\nmodel crossover (equal overheads): n ≈ {n_star:.0}"
        ));
    }
    if let Some((lo, hi)) = simulated_crossover(&series) {
        r.print(format_args!(
            "simulated crossover bracket: n in [{lo}, {hi}]"
        ));
    }
}
