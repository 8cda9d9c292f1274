//! Total overhead functions `T_o(W, p) = p·T_p − W` (§2, Table 1) and
//! the efficiency/speedup helpers built on them.

use crate::algorithm::Algorithm;
use crate::machine::MachineParams;
use crate::time::parallel_time;

/// Total parallel overhead `T_o = p·T_p − n³` for an algorithm,
/// consistent with its `T_p` equation.
#[must_use]
pub fn overhead(alg: Algorithm, n: f64, p: f64, m: MachineParams) -> f64 {
    p * parallel_time(alg, n, p, m) - n.powi(3)
}

/// Parallel speedup `S = W / T_p`.
#[must_use]
pub fn speedup(alg: Algorithm, n: f64, p: f64, m: MachineParams) -> f64 {
    n.powi(3) / parallel_time(alg, n, p, m)
}

/// Efficiency `E = W / (p·T_p) = 1 / (1 + T_o/W)`.
#[must_use]
pub fn efficiency(alg: Algorithm, n: f64, p: f64, m: MachineParams) -> f64 {
    speedup(alg, n, p, m) / p
}

/// The overhead function the paper's §6 comparison (and Figures 1–3)
/// actually uses: identical to [`overhead`] except for DNS, where
/// Table 1 substitutes the worst case `p = n³` into `log(p/n²)`,
/// giving `T_o = (t_s+t_w)·((5/3)·p·log p + 2·n³)` — an upper bound on
/// the literal Eq. (6) overhead for `p ≤ n³`.
#[must_use]
pub fn overhead_fig(alg: Algorithm, n: f64, p: f64, m: MachineParams) -> f64 {
    if alg == Algorithm::Dns {
        let lg = if p > 1.0 { p.log2() } else { 0.0 };
        return (m.t_s + m.t_w) * ((5.0 / 3.0) * p * lg + 2.0 * n.powi(3));
    }
    overhead(alg, n, p, m)
}

#[cfg(test)]
mod tests {
    use super::*;

    const M: MachineParams = MachineParams {
        t_s: 150.0,
        t_w: 3.0,
        faults: crate::machine::FaultRates::ZERO,
        detection: None,
    };

    #[test]
    fn overhead_identity_with_time() {
        for alg in Algorithm::ALL {
            let (n, p) = (128.0, 64.0);
            let to = overhead(alg, n, p, M);
            let tp = parallel_time(alg, n, p, M);
            assert!((p * tp - n.powi(3) - to).abs() < 1e-6, "{alg}");
        }
    }

    #[test]
    fn cannon_overhead_matches_table1_row() {
        // Table 1: T_o = 2·t_s·p^{3/2} + 2·t_w·n²·√p.
        let (n, p) = (256.0f64, 1024.0f64);
        let expect = 2.0 * M.t_s * p.powf(1.5) + 2.0 * M.t_w * n * n * p.sqrt();
        assert!((overhead(Algorithm::Cannon, n, p, M) - expect).abs() < 1e-6);
    }

    #[test]
    fn berntsen_overhead_matches_table1_row() {
        // Table 1: 2·t_s·p^{4/3} + (1/3)·t_s·p·log p + 3·t_w·n²·p^{1/3}.
        let (n, p) = (4096.0f64, 4096.0f64);
        let expect = 2.0 * M.t_s * p.powf(4.0 / 3.0)
            + M.t_s * p * p.log2() / 3.0
            + 3.0 * M.t_w * n * n * p.cbrt();
        let got = overhead(Algorithm::Berntsen, n, p, M);
        assert!((got - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn gk_overhead_matches_table1_row() {
        // Table 1: (5/3)·t_s·p·log p + (5/3)·t_w·n²·p^{1/3}·log p.
        let (n, p) = (512.0f64, 512.0f64);
        let expect = (5.0 / 3.0) * p.log2() * (M.t_s * p + M.t_w * n * n * p.cbrt());
        let got = overhead(Algorithm::Gk, n, p, M);
        assert!((got - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn dns_overhead_contains_w_proportional_term() {
        // §5.3: T_o = (t_s+t_w)(5·p·log(p/n²) + 2n³); the 2(t_s+t_w)n³
        // part is what caps the efficiency.
        let (n, p) = (64.0f64, 64.0f64 * 64.0 * 8.0); // r = 8
        let expect = (M.t_s + M.t_w) * (5.0 * p * 3.0 + 2.0 * n.powi(3));
        let got = overhead(Algorithm::Dns, n, p, M);
        assert!((got - expect).abs() / expect < 1e-12);
    }

    #[test]
    fn efficiency_in_unit_interval_and_monotone_in_n() {
        for alg in Algorithm::COMPARED {
            let p = 4096.0;
            let mut last = 0.0;
            for n in [64.0, 128.0, 256.0, 512.0, 1024.0, 2048.0] {
                if !alg.applicable(n, p) {
                    continue;
                }
                let e = efficiency(alg, n, p, M);
                assert!(e > 0.0 && e <= 1.0, "{alg} E={e}");
                assert!(e >= last, "{alg}: efficiency must rise with n");
                last = e;
            }
        }
    }

    #[test]
    fn efficiency_falls_with_p_at_fixed_n() {
        let n = 512.0;
        for alg in [Algorithm::Cannon, Algorithm::Gk, Algorithm::Berntsen] {
            let mut last = 1.1;
            for p in [4.0, 64.0, 1024.0, 8192.0] {
                if !alg.applicable(n, p) {
                    continue;
                }
                let e = efficiency(alg, n, p, M);
                assert!(e < last, "{alg}: efficiency must fall with p");
                last = e;
            }
        }
    }
}
