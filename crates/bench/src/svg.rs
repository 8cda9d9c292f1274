//! Dependency-free SVG rendering of the paper's figures: efficiency
//! curves (Figures 4–5) and best-algorithm region maps (Figures 1–3).
//! The `regions` and `cm5` subcommands leave these next to their CSVs
//! in `results/`.

use std::fmt::Write as _;

use crate::plot::Series;
use model::regions::RegionMap;

/// Categorical palette (colour-blind-safe Okabe–Ito subset).
const PALETTE: [&str; 6] = [
    "#0072B2", // blue
    "#D55E00", // vermillion
    "#009E73", // green
    "#CC79A7", // purple
    "#E69F00", // orange
    "#56B4E9", // sky
];

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Render named `(x, y)` series as an SVG line chart with linear axes,
/// tick labels and a legend.
#[must_use]
pub fn line_chart(title: &str, series: &[Series], width: u32, height: u32) -> String {
    let (w, h) = (f64::from(width), f64::from(height));
    let (ml, mr, mt, mb) = (64.0, 16.0, 36.0, 44.0); // margins
    let (pw, ph) = (w - ml - mr, h - mt - mb);

    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .filter(|&(x, y)| x.is_finite() && y.is_finite())
        .collect();
    let mut out = String::new();
    let _ = write!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">"#
    );
    let _ = write!(
        out,
        r#"<rect width="{width}" height="{height}" fill="white"/><text x="{}" y="22" text-anchor="middle" font-size="14">{}</text>"#,
        w / 2.0,
        esc(title)
    );
    if pts.is_empty() {
        let _ = write!(
            out,
            r#"<text x="{}" y="{}">no data</text></svg>"#,
            w / 2.0,
            h / 2.0
        );
        return out;
    }
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &pts {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if (x1 - x0).abs() < f64::EPSILON {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < f64::EPSILON {
        y1 = y0 + 1.0;
    }
    let sx = |x: f64| ml + (x - x0) / (x1 - x0) * pw;
    let sy = |y: f64| mt + ph - (y - y0) / (y1 - y0) * ph;

    // Axes + ticks.
    let _ = write!(
        out,
        r##"<g stroke="#333" fill="none"><line x1="{ml}" y1="{}" x2="{}" y2="{}"/><line x1="{ml}" y1="{mt}" x2="{ml}" y2="{}"/></g>"##,
        mt + ph,
        ml + pw,
        mt + ph,
        mt + ph
    );
    for k in 0..=4 {
        let fx = x0 + (x1 - x0) * f64::from(k) / 4.0;
        let fy = y0 + (y1 - y0) * f64::from(k) / 4.0;
        let _ = write!(
            out,
            r#"<text x="{:.1}" y="{:.1}" text-anchor="middle">{:.0}</text>"#,
            sx(fx),
            mt + ph + 18.0,
            fx
        );
        let _ = write!(
            out,
            r#"<text x="{:.1}" y="{:.1}" text-anchor="end">{:.2}</text>"#,
            ml - 6.0,
            sy(fy) + 4.0,
            fy
        );
    }

    // Series polylines + legend.
    for (i, s) in series.iter().enumerate() {
        let color = PALETTE[i % PALETTE.len()];
        let mut coords = String::new();
        for &(x, y) in &s.points {
            if x.is_finite() && y.is_finite() {
                let _ = write!(coords, "{:.1},{:.1} ", sx(x), sy(y));
            }
        }
        let _ = write!(
            out,
            r#"<polyline points="{}" fill="none" stroke="{color}" stroke-width="1.8"/>"#,
            coords.trim_end()
        );
        for &(x, y) in &s.points {
            if x.is_finite() && y.is_finite() {
                let _ = write!(
                    out,
                    r#"<circle cx="{:.1}" cy="{:.1}" r="2.4" fill="{color}"/>"#,
                    sx(x),
                    sy(y)
                );
            }
        }
        let ly = mt + 14.0 + 16.0 * i as f64;
        let _ = write!(
            out,
            r#"<line x1="{:.1}" y1="{ly:.1}" x2="{:.1}" y2="{ly:.1}" stroke="{color}" stroke-width="2"/><text x="{:.1}" y="{:.1}">{}</text>"#,
            ml + pw - 120.0,
            ml + pw - 96.0,
            ml + pw - 90.0,
            ly + 4.0,
            esc(&s.label)
        );
    }
    out.push_str("</svg>");
    out
}

/// Render a [`RegionMap`] as an SVG cell grid in the paper's
/// orientation (`log n` rightward, `log p` upward), with a legend of
/// the region letters.
#[must_use]
pub fn region_map_svg(map: &RegionMap, cell: u32) -> String {
    let cols = map.log2_n.len() as u32;
    let rows = map.log2_p.len() as u32;
    let (ml, mt) = (56u32, 36u32);
    let width = ml + cols * cell + 120;
    let height = mt + rows * cell + 48;
    let color_of = |c: char| match c {
        'a' => PALETTE[0],
        'b' => PALETTE[2],
        'c' => PALETTE[4],
        'd' => PALETTE[1],
        _ => "#dddddd",
    };
    let mut out = String::new();
    let _ = write!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">"#
    );
    let _ = write!(
        out,
        r#"<rect width="{width}" height="{height}" fill="white"/><text x="{}" y="20">best algorithm, t_s = {}, t_w = {}</text>"#,
        ml, map.machine.t_s, map.machine.t_w
    );
    for (pi, row) in map.cells.iter().enumerate() {
        // log p grows upward: row 0 (smallest p) at the bottom.
        let y = mt + (rows - 1 - pi as u32) * cell;
        for (ni, &c) in row.iter().enumerate() {
            let x = ml + ni as u32 * cell;
            let _ = write!(
                out,
                r#"<rect x="{x}" y="{y}" width="{cell}" height="{cell}" fill="{}"/>"#,
                color_of(c)
            );
        }
    }
    // Axis labels.
    let _ = write!(
        out,
        r#"<text x="{}" y="{}">log2 n: {:.0} .. {:.0}</text>"#,
        ml,
        mt + rows * cell + 28,
        map.log2_n.first().copied().unwrap_or(0.0),
        map.log2_n.last().copied().unwrap_or(0.0)
    );
    let _ = write!(
        out,
        r#"<text x="4" y="{}" transform="rotate(-90 14 {})">log2 p</text>"#,
        mt + rows * cell / 2,
        mt + rows * cell / 2
    );
    // Legend.
    for (i, (letter, label)) in [
        ('a', "GK"),
        ('b', "Berntsen"),
        ('c', "Cannon"),
        ('d', "DNS"),
        ('x', "none"),
    ]
    .iter()
    .enumerate()
    {
        let y = mt + 10 + 18 * i as u32;
        let x = ml + cols * cell + 10;
        let _ = write!(
            out,
            r#"<rect x="{x}" y="{y}" width="12" height="12" fill="{}"/><text x="{}" y="{}">{}</text>"#,
            color_of(*letter),
            x + 18,
            y + 11,
            label
        );
    }
    out.push_str("</svg>");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use model::MachineParams;

    fn balanced(svg: &str) -> bool {
        // Cheap well-formedness proxy: every opened tag type is closed
        // or self-closed, and the document has exactly one svg root.
        svg.starts_with("<svg") && svg.ends_with("</svg>") && svg.matches("<svg").count() == 1
    }

    #[test]
    fn line_chart_structure() {
        let s = Series::new("cannon", vec![(8.0, 0.1), (16.0, 0.3), (32.0, 0.6)]);
        let g = Series::new("gk", vec![(8.0, 0.2), (16.0, 0.4), (32.0, 0.5)]);
        let svg = line_chart("Figure 4", &[s, g], 640, 400);
        assert!(balanced(&svg), "{svg}");
        assert_eq!(svg.matches("<polyline").count(), 2);
        assert_eq!(svg.matches("<circle").count(), 6);
        assert!(svg.contains("cannon"));
        assert!(svg.contains("Figure 4"));
    }

    #[test]
    fn line_chart_empty_data() {
        let svg = line_chart("empty", &[Series::new("a", vec![])], 320, 200);
        assert!(balanced(&svg));
        assert!(svg.contains("no data"));
    }

    #[test]
    fn line_chart_escapes_labels() {
        let svg = line_chart(
            "a < b & c",
            &[Series::new("x<y", vec![(0.0, 0.0), (1.0, 1.0)])],
            320,
            200,
        );
        assert!(svg.contains("a &lt; b &amp; c"));
        assert!(svg.contains("x&lt;y"));
    }

    #[test]
    fn region_map_cells_and_legend() {
        let map = model::regions::RegionMap::compute_range(
            MachineParams::ncube2(),
            (3.0, 10.0),
            (2.0, 12.0),
            12,
            8,
        );
        let svg = region_map_svg(&map, 8);
        assert!(balanced(&svg));
        // One rect per cell + background + 5 legend swatches.
        assert_eq!(svg.matches("<rect").count(), 12 * 8 + 1 + 5);
        assert!(svg.contains("Berntsen"));
    }
}
