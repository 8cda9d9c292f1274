//! Best-algorithm region maps (paper Figures 1–3).
//!
//! At each point of the `(n, p)` plane the best algorithm is the one
//! with the smallest total overhead `T_o` — equivalently the smallest
//! `T_p`, since all formulations share `W = n³` — among those whose
//! applicability range (Table 1) contains the point.  The paper's
//! figures mark the regions `a` (GK), `b` (Berntsen), `c` (Cannon),
//! `d` (DNS) and `x` (`p > n³`, nothing applicable).

use crate::algorithm::Algorithm;
use crate::machine::MachineParams;
use crate::overhead::overhead_fig;

/// Which algorithm wins at a point, or `None` if `p > n³`.
///
/// Uses the paper's Table 1 overhead functions
/// ([`crate::overhead::overhead_fig`]) so the maps match Figures 1–3.
///
/// ```
/// use model::{regions, Algorithm, MachineParams};
///
/// let m = MachineParams::ncube2(); // Figure 1's machine
/// // Below n^{3/2} processors, Berntsen's algorithm wins (region b):
/// assert_eq!(regions::best_algorithm(4096.0, 512.0, m), Some(Algorithm::Berntsen));
/// // Beyond n³ processors nothing is applicable (region x):
/// assert_eq!(regions::best_algorithm(4.0, 100.0, m), None);
/// ```
#[must_use]
pub fn best_algorithm(n: f64, p: f64, m: MachineParams) -> Option<Algorithm> {
    let mut best: Option<(Algorithm, f64)> = None;
    for alg in Algorithm::COMPARED {
        if !alg.applicable(n, p) {
            continue;
        }
        let to = overhead_fig(alg, n, p, m);
        match best {
            Some((_, t)) if t <= to => {}
            _ => best = Some((alg, to)),
        }
    }
    best.map(|(a, _)| a)
}

/// The paper's region letter at a point (`x` where nothing applies).
#[must_use]
pub fn region_letter(n: f64, p: f64, m: MachineParams) -> char {
    best_algorithm(n, p, m)
        .and_then(Algorithm::region_letter)
        .unwrap_or('x')
}

/// A sampled region map over log-spaced `n` and `p` axes.
#[derive(Debug, Clone)]
pub struct RegionMap {
    /// Machine the map was computed for.
    pub machine: MachineParams,
    /// Sampled `log2 n` values (ascending).
    pub log2_n: Vec<f64>,
    /// Sampled `log2 p` values (ascending).
    pub log2_p: Vec<f64>,
    /// `cells[pi][ni]` = region letter at `(log2_n[ni], log2_p[pi])`.
    pub cells: Vec<Vec<char>>,
}

impl RegionMap {
    /// Sample the map on a `cols × rows` grid over
    /// `log2 n ∈ [0, max_log2_n]`, `log2 p ∈ [0, max_log2_p]` — the
    /// paper's figures use roughly `n` up to 2¹⁶ and `p` up to 2³⁰.
    #[must_use]
    pub fn compute(
        m: MachineParams,
        max_log2_n: f64,
        max_log2_p: f64,
        cols: usize,
        rows: usize,
    ) -> Self {
        Self::compute_range(m, (0.0, max_log2_n), (0.0, max_log2_p), cols, rows)
    }

    /// Like [`RegionMap::compute`] but with explicit lower bounds — the
    /// paper's figures start at practically sized matrices, and the
    /// degenerate `n < 8` corner (where the DNS one-word startup costs
    /// distort the comparison) is outside their plotted range.
    #[must_use]
    pub fn compute_range(
        m: MachineParams,
        (min_log2_n, max_log2_n): (f64, f64),
        (min_log2_p, max_log2_p): (f64, f64),
        cols: usize,
        rows: usize,
    ) -> Self {
        assert!(cols >= 2 && rows >= 2, "grid must be at least 2x2");
        assert!(
            min_log2_n < max_log2_n && min_log2_p < max_log2_p,
            "empty range"
        );
        let log2_n: Vec<f64> = (0..cols)
            .map(|i| min_log2_n + (max_log2_n - min_log2_n) * i as f64 / (cols - 1) as f64)
            .collect();
        let log2_p: Vec<f64> = (0..rows)
            .map(|i| min_log2_p + (max_log2_p - min_log2_p) * i as f64 / (rows - 1) as f64)
            .collect();
        let cells = log2_p
            .iter()
            .map(|&lp| {
                log2_n
                    .iter()
                    .map(|&ln| region_letter(2.0f64.powf(ln), 2.0f64.powf(lp), m))
                    .collect()
            })
            .collect();
        Self {
            machine: m,
            log2_n,
            log2_p,
            cells,
        }
    }

    /// Fraction of sampled cells carrying each letter (a, b, c, d, x).
    #[must_use]
    pub fn letter_fractions(&self) -> [(char, f64); 5] {
        let mut counts = [('a', 0usize), ('b', 0), ('c', 0), ('d', 0), ('x', 0)];
        let mut total = 0usize;
        for row in &self.cells {
            for &c in row {
                total += 1;
                if let Some(e) = counts.iter_mut().find(|(l, _)| *l == c) {
                    e.1 += 1;
                }
            }
        }
        counts.map(|(l, c)| (l, c as f64 / total as f64))
    }

    /// Letters present anywhere in the map.
    #[must_use]
    pub fn letters_present(&self) -> Vec<char> {
        let mut out = Vec::new();
        for &(l, f) in &self.letter_fractions() {
            if f > 0.0 {
                out.push(l);
            }
        }
        out
    }

    /// ASCII rendering in the paper's orientation: `log p` increasing
    /// upward, `log n` increasing to the right.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "Region map for t_s = {}, t_w = {}  (a=GK  b=Berntsen  c=Cannon  d=DNS  x=none)\n",
            self.machine.t_s, self.machine.t_w
        ));
        for (pi, row) in self.cells.iter().enumerate().rev() {
            out.push_str(&format!("log2 p={:5.1} |", self.log2_p[pi]));
            for &c in row {
                out.push(c);
            }
            out.push('\n');
        }
        out.push_str("             +");
        out.push_str(&"-".repeat(self.log2_n.len()));
        out.push('\n');
        out.push_str(&format!(
            "              log2 n: 0 .. {:.0}\n",
            self.log2_n.last().copied().unwrap_or(0.0)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_region_maps_are_identical() {
        let m = MachineParams::cm5();
        let first = RegionMap::compute_range(m, (2.0, 10.0), (0.0, 12.0), 16, 16);
        let second = RegionMap::compute_range(m, (2.0, 10.0), (0.0, 12.0), 16, 16);
        assert_eq!(first.cells, second.cells);
    }

    #[test]
    fn x_region_above_n_cubed() {
        let m = MachineParams::ncube2();
        assert_eq!(region_letter(4.0, 65.0, m), 'x');
        assert_ne!(region_letter(4.0, 64.0, m), 'x');
    }

    #[test]
    fn huge_n_small_p_prefers_berntsen() {
        // For p < n^{3/2} Berntsen's algorithm has the smallest
        // overhead on the nCUBE2-class machine (Figure 1's b region).
        let m = MachineParams::ncube2();
        assert_eq!(
            best_algorithm(65_536.0, 256.0, m),
            Some(Algorithm::Berntsen)
        );
    }

    #[test]
    fn figure1_gk_region_between_n15_and_n3() {
        // Figure 1: with t_s = 150 the GK algorithm is the best choice
        // for p > n^{3/2} (where Berntsen stops).
        let m = MachineParams::ncube2();
        let (n, p) = (64.0, 32_768.0); // n^{3/2} = 512 < p < n³
        assert_eq!(best_algorithm(n, p, m), Some(Algorithm::Gk));
    }

    #[test]
    fn figure3_dns_region_on_simd_machines() {
        // Figure 3: with t_s = 0.5 the DNS algorithm wins for
        // n² ≤ p ≤ n³.
        let m = MachineParams::simd_cm2();
        let (n, p) = (64.0, 65_536.0); // p = n^{2.67}
        assert_eq!(best_algorithm(n, p, m), Some(Algorithm::Dns));
    }

    #[test]
    fn figure3_cannon_region() {
        // Figure 3: Cannon for n^{3/2} ≤ p ≤ n².
        let m = MachineParams::simd_cm2();
        let (n, p) = (256.0, 16_384.0); // n^{1.75}
        assert_eq!(best_algorithm(n, p, m), Some(Algorithm::Cannon));
    }

    /// The practically sized window the paper's figures plot
    /// (n ≥ 8, p ≥ 4; the degenerate corners below behave differently
    /// under the paper's own formulas).
    fn paper_window(m: MachineParams) -> RegionMap {
        RegionMap::compute_range(m, (3.0, 16.0), (2.0, 26.0), 80, 60)
    }

    #[test]
    fn figure2_all_four_regions_present() {
        // §6 on Figure 2: "each of the four algorithms performs better
        // than the rest in some region and all the four regions contain
        // practical values of p and n".
        let map = paper_window(MachineParams::future_mimd());
        let present = map.letters_present();
        for letter in ['a', 'b', 'c', 'd', 'x'] {
            assert!(
                present.contains(&letter),
                "Figure 2 should contain region '{letter}'"
            );
        }
    }

    #[test]
    fn figure1_has_no_dns_region() {
        // §6 on Figure 1: the DNS algorithm always loses to GK at
        // t_s = 150 (its n_{Equal-T_o} curve lies in the x region).
        let map = paper_window(MachineParams::ncube2());
        assert!(
            !map.letters_present().contains(&'d'),
            "no 'd' region in Figure 1"
        );
    }

    #[test]
    fn figure1_gk_covers_everything_beyond_cannons_range() {
        // §6: "the GK algorithm ... is the best overall choice for
        // p > n² ... and even for n^{3/2} ≤ p ≤ n²" on the nCUBE2-class
        // machine.
        let m = MachineParams::ncube2();
        for (n, p) in [
            (64.0f64, 1024.0f64),
            (256.0, 65_536.0),
            (1024.0, 2.0f64.powi(20)),
        ] {
            // p between n^{3/2} and n³.
            assert!(p > n.powf(1.5) && p <= n * n * n);
            assert_eq!(best_algorithm(n, p, m), Some(Algorithm::Gk), "n={n} p={p}");
        }
    }

    #[test]
    fn figure3_gk_region_negligible_at_practical_p() {
        // §6 on Figure 3: the GK algorithm is inferior for p < 1.3e8 on
        // the SIMD machine (footnote 4).  Evaluating the paper's own
        // overhead functions exactly, GK still edges DNS in a hairline
        // strip at the p ≈ n³ boundary (DNS pays an extra
        // 2(t_s+t_w)·n³ there), which the paper's coarse plot does not
        // resolve; everywhere else the claim holds.
        let map = paper_window(MachineParams::simd_cm2());
        let a_frac = map
            .letter_fractions()
            .iter()
            .find(|(l, _)| *l == 'a')
            .map_or(0.0, |(_, f)| *f);
        assert!(
            a_frac < 0.05,
            "'a' must be a hairline strip, got {a_frac:.3}"
        );
        // Away from the p = n³ boundary GK never wins in this window.
        let m = MachineParams::simd_cm2();
        for (n, p) in [
            (64.0f64, 16_384.0f64),
            (256.0, 262_144.0),
            (1024.0, 2.0f64.powi(25)),
        ] {
            assert!(p < 0.5 * n * n * n, "test point must be off the boundary");
            assert_ne!(best_algorithm(n, p, m), Some(Algorithm::Gk), "n={n} p={p}");
        }
    }

    #[test]
    fn render_shape() {
        let map = RegionMap::compute(MachineParams::ncube2(), 8.0, 10.0, 20, 10);
        let s = map.render();
        assert_eq!(s.lines().count(), 1 + 10 + 2);
        assert!(s.contains("a=GK"));
    }

    #[test]
    fn fractions_sum_to_one() {
        let map = RegionMap::compute(MachineParams::future_mimd(), 12.0, 20.0, 30, 30);
        let total: f64 = map.letter_fractions().iter().map(|(_, f)| f).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }
}
