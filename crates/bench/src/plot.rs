//! Minimal ASCII line plots for the driver's subcommands: the figures
//! the paper prints are efficiency-vs-n curves, and a terminal plot
//! makes the crossover visible without external tooling.

/// One named series of `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label; the first character is the plot glyph.
    pub label: String,
    /// Data points (x ascending is not required; NaN/∞ are skipped).
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// New series from a label and points.
    #[must_use]
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        Self {
            label: label.into(),
            points,
        }
    }

    fn glyph(&self) -> char {
        self.label.chars().next().unwrap_or('*')
    }
}

/// Render series into a `width × height` character grid with simple
/// linear axes; later series overwrite earlier ones where they collide.
#[must_use]
pub fn render(title: &str, series: &[Series], width: usize, height: usize) -> String {
    assert!(width >= 8 && height >= 3, "plot must be at least 8x3");
    let finite = |v: f64| v.is_finite();
    let pts: Vec<(f64, f64)> = series
        .iter()
        .flat_map(|s| s.points.iter().copied())
        .filter(|&(x, y)| finite(x) && finite(y))
        .collect();
    if pts.is_empty() {
        return format!("{title}\n(no data)\n");
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

    let mut grid = vec![vec![' '; width]; height];
    for s in series {
        let g = s.glyph();
        for &(x, y) in &s.points {
            if !(finite(x) && finite(y)) {
                continue;
            }
            let cx = ((x - x0) / (x1 - x0) * (width - 1) as f64).round() as usize;
            let cy = ((y - y0) / (y1 - y0) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx] = g;
        }
    }

    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    for (i, row) in grid.iter().enumerate() {
        let y_here = y1 - (y1 - y0) * i as f64 / (height - 1) as f64;
        out.push_str(&format!("{y_here:8.3} |"));
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&format!("{:>8} +{}\n", "", "-".repeat(width)));
    out.push_str(&format!(
        "{:>10}{:<width$}\n",
        "",
        format!("x: {x0:.0} .. {x1:.0}"),
        width = width
    ));
    for s in series {
        out.push_str(&format!("  {} = {}\n", s.glyph(), s.label));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_points_at_extremes() {
        let s = Series::new("a", vec![(0.0, 0.0), (10.0, 1.0)]);
        let out = render("t", &[s], 20, 5);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines[0], "t");
        // Top row contains the max point glyph at the right edge.
        assert!(lines[1].ends_with('a'), "{out}");
        // Bottom data row contains the min point at the left edge.
        assert!(lines[5].contains('a'), "{out}");
    }

    #[test]
    fn two_series_two_glyphs() {
        let s1 = Series::new("cannon", vec![(0.0, 0.0), (1.0, 1.0)]);
        let s2 = Series::new("gk", vec![(0.0, 1.0), (1.0, 0.0)]);
        let out = render("x", &[s1, s2], 16, 5);
        assert!(out.contains('c'));
        assert!(out.contains('g'));
        assert!(out.contains("c = cannon"));
        assert!(out.contains("g = gk"));
    }

    #[test]
    fn empty_and_degenerate_data() {
        let out = render("t", &[Series::new("a", vec![])], 16, 4);
        assert!(out.contains("no data"));
        let out = render("t", &[Series::new("a", vec![(1.0, 1.0)])], 16, 4);
        assert!(out.contains('a'));
        let out = render(
            "t",
            &[Series::new("a", vec![(f64::NAN, 1.0), (1.0, 2.0)])],
            16,
            4,
        );
        assert!(out.contains('a'));
    }

    #[test]
    #[should_panic(expected = "at least 8x3")]
    fn tiny_plot_rejected() {
        let _ = render("t", &[], 4, 2);
    }
}
