//! Isoefficiency analysis (paper §3 and §5, Eq. 8–14).
//!
//! The isoefficiency function `f_E(p)` is the rate at which the problem
//! size `W = n³` must grow with `p` to hold the efficiency at `E`.  It
//! is obtained from `W = K·T_o(W, p)` with `K = E/(1−E)` (Eq. 1),
//! balancing `W` against each overhead term separately; the fastest-
//! growing term — or the concurrency bound `h⁻¹(p)` — wins (§5).

use crate::algorithm::Algorithm;
use crate::machine::MachineParams;
use crate::overhead::efficiency;
use crate::time::dns_max_efficiency;

/// `K = E / (1 − E)` — the constant of Eq. (1).
///
/// # Panics
/// Panics unless `0 < e < 1`.
#[must_use]
pub fn k_of(e: f64) -> f64 {
    assert!(
        e > 0.0 && e < 1.0,
        "efficiency must lie strictly in (0, 1), got {e}"
    );
    e / (1.0 - e)
}

/// Asymptotic isoefficiency classes of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AsymptoticClass {
    /// `O(p log p)` — the lower bound for the conventional algorithm on
    /// any architecture (§5.3).
    PLogP,
    /// `O(p (log p)^{1.5})` — improved GK with the packet-size floor.
    PLogP15,
    /// `O(p (log p)³)` — GK with the naive broadcast.
    PLogP3,
    /// `O(p^{1.5})` — Cannon / simple / Fox.
    P15,
    /// `O(p²)` — Berntsen (concurrency-limited).
    P2,
}

impl AsymptoticClass {
    /// Evaluate the class's growth function at `p` (unit constant).
    #[must_use]
    pub fn eval(self, p: f64) -> f64 {
        let lg = p.log2().max(1.0);
        match self {
            AsymptoticClass::PLogP => p * lg,
            AsymptoticClass::PLogP15 => p * lg.powf(1.5),
            AsymptoticClass::PLogP3 => p * lg.powi(3),
            AsymptoticClass::P15 => p.powf(1.5),
            AsymptoticClass::P2 => p * p,
        }
    }

    /// Human-readable form, matching Table 1's column.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            AsymptoticClass::PLogP => "O(p log p)",
            AsymptoticClass::PLogP15 => "O(p (log p)^1.5)",
            AsymptoticClass::PLogP3 => "O(p (log p)^3)",
            AsymptoticClass::P15 => "O(p^1.5)",
            AsymptoticClass::P2 => "O(p^2)",
        }
    }
}

impl std::fmt::Display for AsymptoticClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One isoefficiency term: a named lower bound on `W(p)` for a fixed
/// efficiency.
#[derive(Debug, Clone)]
pub struct IsoTerm {
    /// Which overhead source produces the term.
    pub source: &'static str,
    /// Required `W` at the given `p` for the requested efficiency.
    pub w: f64,
}

/// All isoefficiency terms of an algorithm at `(p, E)` — Eq. (8)–(14)
/// plus the concurrency terms of §5.
#[must_use]
pub fn iso_terms(alg: Algorithm, p: f64, e: f64, m: MachineParams) -> Vec<IsoTerm> {
    let k = k_of(e);
    let lg = p.log2().max(1.0);
    match alg {
        Algorithm::Cannon
        | Algorithm::Simple
        | Algorithm::FoxPipelined
        | Algorithm::FoxHypercube => {
            vec![
                // Eq. (8): W ∝ 2K·t_s·p^{3/2}.
                IsoTerm {
                    source: "t_s term (Eq. 8)",
                    w: 2.0 * k * m.t_s * p.powf(1.5),
                },
                // Eq. (9): W ∝ 8K³·t_w³·p^{3/2}.
                IsoTerm {
                    source: "t_w term (Eq. 9)",
                    w: 8.0 * k.powi(3) * m.t_w.powi(3) * p.powf(1.5),
                },
                // Concurrency: p ≤ n² ⇒ W ≥ p^{3/2}.
                IsoTerm {
                    source: "concurrency (p <= n^2)",
                    w: p.powf(1.5),
                },
            ]
        }
        Algorithm::Berntsen => vec![
            // Eq. (10): W ∝ 2K·t_s·p^{4/3}.
            IsoTerm {
                source: "t_s term (Eq. 10)",
                w: 2.0 * k * m.t_s * p.powf(4.0 / 3.0),
            },
            // Eq. (11): W ∝ 27K³·t_w³·p.
            IsoTerm {
                source: "t_w term (Eq. 11)",
                w: 27.0 * k.powi(3) * m.t_w.powi(3) * p,
            },
            // log-p startup term.
            IsoTerm {
                source: "t_s log term",
                w: k * m.t_s * p * lg / 3.0,
            },
            // Concurrency: p ≤ n^{3/2} ⇒ W ≥ p².
            IsoTerm {
                source: "concurrency (p <= n^1.5)",
                w: p * p,
            },
        ],
        Algorithm::Dns => vec![
            // Eq. (12): W ∝ (5/3)K·t_s·p·log p.
            IsoTerm {
                source: "t_s term (Eq. 12)",
                w: (5.0 / 3.0) * k * (m.t_s + m.t_w) * p * lg,
            },
            // Concurrency lower bound: p ≥ n² means W ≤ p^{3/2} is the
            // *minimum* problem, so W must grow at least like p^{3/2}
            // to stay in range — expressed as a floor.
            IsoTerm {
                source: "applicability floor (p >= n^2 ⇒ W >= ... )",
                w: 0.0,
            },
        ],
        Algorithm::Gk => vec![
            // Eq. (13): W ∝ (5/3)K·t_s·p·log p.
            IsoTerm {
                source: "t_s term (Eq. 13)",
                w: (5.0 / 3.0) * k * m.t_s * p * lg,
            },
            // Eq. (14): W ∝ (125/27)K³·t_w³·p·(log p)³.
            IsoTerm {
                source: "t_w term (Eq. 14)",
                w: (125.0 / 27.0) * k.powi(3) * m.t_w.powi(3) * p * lg.powi(3),
            },
            // Concurrency: p ≤ n³ ⇒ W ≥ p.
            IsoTerm {
                source: "concurrency (p <= n^3)",
                w: p,
            },
        ],
        Algorithm::GkImproved => vec![
            IsoTerm {
                source: "t_s term (§5.4.1)",
                w: (5.0 / 3.0) * k * m.t_s * p * lg,
            },
            // Packet-size floor: W > (t_s/t_w)^{3/2}·p·(log p)^{3/2}.
            IsoTerm {
                source: "packet-size floor (§5.4.1)",
                w: if m.t_w > 0.0 {
                    (m.t_s / m.t_w).powf(1.5) * p * lg.powf(1.5)
                } else {
                    0.0
                },
            },
            IsoTerm {
                source: "concurrency (p <= n^3)",
                w: p,
            },
        ],
    }
}

/// The asymptotic class of each algorithm's isoefficiency function —
/// Table 1's "Asymptotic Isoeff. Function" column.
#[must_use]
pub fn asymptotic_class(alg: Algorithm) -> AsymptoticClass {
    match alg {
        Algorithm::Simple
        | Algorithm::Cannon
        | Algorithm::FoxPipelined
        | Algorithm::FoxHypercube => AsymptoticClass::P15,
        Algorithm::Berntsen => AsymptoticClass::P2,
        Algorithm::Dns => AsymptoticClass::PLogP,
        Algorithm::Gk => AsymptoticClass::PLogP3,
        Algorithm::GkImproved => AsymptoticClass::PLogP15,
    }
}

/// Numeric isoefficiency: the smallest real `n` with
/// `E(n, p) ≥ e`, found by bisection on the (monotone-in-`n`)
/// efficiency; `None` if the efficiency is unreachable (DNS ceiling,
/// §5.3) or the required `n` would leave the applicability range.
///
/// ```
/// use model::isoefficiency::iso_n_numeric;
/// use model::{Algorithm, MachineParams};
///
/// let m = MachineParams::ncube2();
/// let n = iso_n_numeric(Algorithm::Cannon, 1024.0, 0.5, m).unwrap();
/// // The solution achieves the efficiency…
/// let e = model::overhead::efficiency(Algorithm::Cannon, n, 1024.0, m);
/// assert!((e - 0.5).abs() < 1e-3);
/// // …and the DNS ceiling makes E = 0.5 unreachable on this machine:
/// assert!(iso_n_numeric(Algorithm::Dns, 1024.0 * 1024.0, 0.5, m).is_none());
/// ```
#[must_use]
pub fn iso_n_numeric(alg: Algorithm, p: f64, e: f64, m: MachineParams) -> Option<f64> {
    assert!(e > 0.0 && e < 1.0, "target efficiency must lie in (0, 1)");
    if alg == Algorithm::Dns {
        if e >= dns_max_efficiency(m) {
            return None;
        }
        // DNS is applicable only for n ∈ [p^{1/3}, √p]; efficiency is
        // monotone in n, so the best case is n = √p.
        let (n_lo, n_hi) = (p.cbrt().max(1.0), p.sqrt());
        if n_lo > n_hi || efficiency(alg, n_hi, p, m) < e {
            return None;
        }
        if efficiency(alg, n_lo, p, m) >= e {
            return Some(n_lo);
        }
        let (mut lo, mut hi) = (n_lo, n_hi);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if efficiency(alg, mid, p, m) >= e {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        return Some(hi);
    }

    // For the other algorithms the reachable set {n : applicable ∧ E≥e}
    // is upward-closed in n, so a doubling search + bisection is exact.
    let reachable = |n: f64| alg.applicable(n, p) && efficiency(alg, n, p, m) >= e;
    let mut hi = 2.0;
    let mut tries = 0;
    while !reachable(hi) {
        hi *= 2.0;
        tries += 1;
        if tries > 120 {
            return None; // efficiency cannot be reached
        }
    }
    let mut lo = hi / 2.0;
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if reachable(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

/// Numeric isoefficiency in terms of the problem size `W = n³`.
#[must_use]
pub fn iso_w_numeric(alg: Algorithm, p: f64, e: f64, m: MachineParams) -> Option<f64> {
    iso_n_numeric(alg, p, e, m).map(|n| n.powi(3))
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
    fn k_of_values() {
        assert!((k_of(0.5) - 1.0).abs() < 1e-12);
        assert!((k_of(0.9) - 9.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "strictly in (0, 1)")]
    fn k_of_rejects_one() {
        let _ = k_of(1.0);
    }

    #[test]
    fn asymptotic_classes_match_table1() {
        assert_eq!(asymptotic_class(Algorithm::Berntsen), AsymptoticClass::P2);
        assert_eq!(asymptotic_class(Algorithm::Cannon), AsymptoticClass::P15);
        assert_eq!(asymptotic_class(Algorithm::Gk), AsymptoticClass::PLogP3);
        assert_eq!(
            asymptotic_class(Algorithm::GkImproved),
            AsymptoticClass::PLogP15
        );
        assert_eq!(asymptotic_class(Algorithm::Dns), AsymptoticClass::PLogP);
    }

    #[test]
    fn class_ordering_for_large_p() {
        // O(p log p) < O(p (log p)^1.5) < O(p (log p)^3) < O(p^1.5) < O(p^2)
        // for large p.
        let p = 2.0f64.powi(40);
        let v: Vec<f64> = [
            AsymptoticClass::PLogP,
            AsymptoticClass::PLogP15,
            AsymptoticClass::PLogP3,
            AsymptoticClass::P15,
            AsymptoticClass::P2,
        ]
        .iter()
        .map(|c| c.eval(p))
        .collect();
        for w in v.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn cannon_iso_terms_eq8_eq9() {
        let (p, e) = (1024.0, 0.5);
        let terms = iso_terms(Algorithm::Cannon, p, e, M);
        // K = 1: Eq. 8: 2·150·p^1.5; Eq. 9: 8·27·p^1.5.
        assert!((terms[0].w - 300.0 * p.powf(1.5)).abs() < 1e-6);
        assert!((terms[1].w - 216.0 * p.powf(1.5)).abs() < 1e-6);
        assert!((terms[2].w - p.powf(1.5)).abs() < 1e-6);
    }

    #[test]
    fn berntsen_concurrency_dominates_asymptotically() {
        // §5.2: the p² concurrency term beats every communication term
        // for large p.
        let e = 0.5;
        let p = 1.0e9;
        let terms = iso_terms(Algorithm::Berntsen, p, e, M);
        let conc = terms
            .iter()
            .find(|t| t.source.contains("concurrency"))
            .unwrap()
            .w;
        for t in &terms {
            assert!(t.w <= conc, "{} should not dominate p²", t.source);
        }
    }

    #[test]
    fn numeric_iso_monotone_in_p() {
        for alg in [Algorithm::Cannon, Algorithm::Gk, Algorithm::Berntsen] {
            let mut last = 0.0;
            for p in [16.0, 64.0, 256.0, 1024.0] {
                let n = iso_n_numeric(alg, p, 0.5, M).expect("reachable");
                assert!(n > last, "{alg}: iso-n must grow with p");
                last = n;
            }
        }
    }

    #[test]
    fn numeric_iso_achieves_the_efficiency() {
        for alg in [
            Algorithm::Cannon,
            Algorithm::Gk,
            Algorithm::Berntsen,
            Algorithm::Simple,
        ] {
            let p = 256.0;
            let e = 0.7;
            let n = iso_n_numeric(alg, p, e, M).expect("reachable");
            let got = efficiency(alg, n, p, M);
            assert!((got - e).abs() < 1e-3, "{alg}: E({n}) = {got}");
        }
    }

    #[test]
    fn dns_ceiling_blocks_high_efficiency() {
        // With t_s = 150 the DNS ceiling is ≈ 1/307 — E = 0.5 is
        // unreachable no matter the problem size.
        assert_eq!(iso_n_numeric(Algorithm::Dns, 4096.0, 0.5, M), None);
        // A low-startup machine allows moderate DNS efficiencies.
        let m = MachineParams::new(0.05, 0.05);
        assert!(dns_max_efficiency(m) > 0.8);
        assert!(iso_n_numeric(Algorithm::Dns, 4096.0, 0.5, m).is_some());
    }

    #[test]
    fn cannon_iso_growth_rate_is_p_to_1_5() {
        // W(10p)/W(p) ≈ 10^1.5 ≈ 31.6 — the §8 example.
        let e = 0.5;
        let w1 = iso_w_numeric(Algorithm::Cannon, 1.0e4, e, M).unwrap();
        let w2 = iso_w_numeric(Algorithm::Cannon, 1.0e5, e, M).unwrap();
        let ratio = w2 / w1;
        assert!(
            (ratio - 31.6).abs() < 2.0,
            "W should grow ~31.6x for 10x processors, got {ratio}"
        );
    }

    #[test]
    fn gk_beats_cannon_asymptotically() {
        // O(p (log p)³) < O(p^1.5) eventually: check the numeric solver
        // agrees at very large p.
        let e = 0.3;
        let m = MachineParams::new(10.0, 3.0);
        let p = 2.0f64.powi(40);
        let w_gk = iso_w_numeric(Algorithm::Gk, p, e, m).unwrap();
        let w_cn = iso_w_numeric(Algorithm::Cannon, p, e, m).unwrap();
        assert!(w_gk < w_cn);
    }
}
