//! The Figure 4/5 CM-5 series: executed simulations next to the
//! model, and the crossover bracket the `cm5` subcommand prints.

use crate::parallel_sweep;
use dense::gen;
use mmsim::{CostModel, Machine, Topology};
use model::{cm5, MachineParams};

/// One sampled point of a Figure 4/5 series.
#[derive(Debug, Clone, Copy)]
pub struct Cm5Point {
    /// Matrix size.
    pub n: usize,
    /// Simulated Cannon efficiency (admissible sizes only).
    pub cannon_sim: Option<f64>,
    /// Eq. (3) Cannon efficiency.
    pub cannon_model: f64,
    /// Simulated GK efficiency (admissible sizes only).
    pub gk_sim: Option<f64>,
    /// Eq. (18) GK efficiency.
    pub gk_model: f64,
}

/// Compute one figure's efficiency-vs-n series: executed simulations on
/// the fully connected CM-5 model side by side with Eq. (3)/(18).
/// Independent points run in parallel on the host.
#[must_use]
pub fn cm5_series(p_cannon: usize, p_gk: usize, sizes: &[usize]) -> Vec<Cm5Point> {
    let m = MachineParams::cm5();
    let cost = CostModel::cm5();
    let q = (p_cannon as f64).sqrt().round() as usize;
    let s = (p_gk as f64).cbrt().round() as usize;
    parallel_sweep(sizes.to_vec(), |&n| {
        let (a, b) = gen::random_pair(n, n as u64);
        let cannon_sim = (n % q == 0).then(|| {
            let machine = Machine::new(Topology::fully_connected(p_cannon), cost);
            algos::cannon(&machine, &a, &b)
                .expect("admissible")
                .efficiency()
        });
        let gk_sim = (n % s == 0).then(|| {
            let machine = Machine::new(Topology::fully_connected(p_gk), cost);
            algos::gk(&machine, &a, &b)
                .expect("admissible")
                .efficiency()
        });
        Cm5Point {
            n,
            cannon_sim,
            cannon_model: cm5::cannon_efficiency(n as f64, p_cannon as f64, m),
            gk_sim,
            gk_model: cm5::gk_cm5_efficiency(n as f64, p_gk as f64, m),
        }
    })
}

/// Bracket the simulated crossover: the last size where GK's simulated
/// efficiency beats Cannon's and the first where it doesn't (using
/// model values where a simulated point is inadmissible).
///
/// Returns `None` when GK never stops winning (or never wins) within
/// the sampled range.
#[must_use]
pub fn simulated_crossover(series: &[Cm5Point]) -> Option<(usize, usize)> {
    let mut prev: Option<(usize, bool)> = None;
    for pt in series {
        let gk = pt.gk_sim.unwrap_or(pt.gk_model);
        let cn = pt.cannon_sim.unwrap_or(pt.cannon_model);
        let gk_wins = gk > cn;
        if let Some((n_prev, prev_wins)) = prev {
            if prev_wins && !gk_wins {
                return Some((n_prev, pt.n));
            }
        }
        prev = Some((pt.n, gk_wins));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(n: usize, cn: f64, gk: f64) -> Cm5Point {
        Cm5Point {
            n,
            cannon_sim: Some(cn),
            cannon_model: cn,
            gk_sim: Some(gk),
            gk_model: gk,
        }
    }

    #[test]
    fn crossover_bracketing() {
        let series = vec![pt(8, 0.1, 0.2), pt(16, 0.3, 0.35), pt(24, 0.5, 0.45)];
        assert_eq!(simulated_crossover(&series), Some((16, 24)));
    }

    #[test]
    fn no_crossover_when_gk_always_wins() {
        let series = vec![pt(8, 0.1, 0.2), pt(16, 0.3, 0.4)];
        assert_eq!(simulated_crossover(&series), None);
    }

    #[test]
    fn no_crossover_when_gk_never_wins() {
        let series = vec![pt(8, 0.2, 0.1), pt(16, 0.4, 0.3)];
        assert_eq!(simulated_crossover(&series), None);
    }

    #[test]
    fn model_fallback_used_for_inadmissible_points() {
        let mut a = pt(8, 0.1, 0.2);
        a.gk_sim = None; // falls back to gk_model = 0.2
        let series = vec![a, pt(16, 0.5, 0.4)];
        assert_eq!(simulated_crossover(&series), Some((8, 16)));
    }

    #[test]
    fn series_points_marked_by_divisibility() {
        // Small real series: p_cannon = 4 (q=2), p_gk = 8 (s=2).
        let pts = cm5_series(4, 8, &[2, 3, 4]);
        assert_eq!(pts.len(), 3);
        assert!(pts[0].cannon_sim.is_some()); // 2 % 2 == 0
        assert!(pts[1].cannon_sim.is_none()); // 3 % 2 != 0
        assert!(pts[2].gk_sim.is_some());
        // Simulated efficiencies lie in (0, 1].
        for p in &pts {
            for e in [p.cannon_sim, p.gk_sim].into_iter().flatten() {
                assert!(e > 0.0 && e <= 1.0);
            }
        }
    }
}
