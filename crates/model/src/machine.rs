//! Machine parameters of the analytic models.

/// Per-message fault rates of a lossy interconnect, as probabilities in
/// `[0, 1]` per transmission attempt.  These mirror the default-link
/// rates of an `mmsim` fault plan; the analytic layer uses them to
/// price the reliable-transport protocol into predicted times (see
/// [`MachineParams::reliable_effective`]).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultRates {
    /// Probability a transmission attempt is silently lost.
    pub drop: f64,
    /// Probability a transmission attempt arrives corrupted (detected by
    /// the reliable protocol's checksum and retransmitted).
    pub corrupt: f64,
}

impl FaultRates {
    /// A fault-free link.
    pub const ZERO: Self = Self {
        drop: 0.0,
        corrupt: 0.0,
    };

    /// Fault rates with the given drop/corrupt probabilities.
    ///
    /// # Panics
    /// Panics unless both rates lie in `[0, 1]` and `drop + corrupt ≤ 1`
    /// (the same domain the simulator's fault plan enforces).  A total
    /// loss, `drop + corrupt = 1`, is valid: no attempt ever succeeds.
    #[must_use]
    pub fn new(drop: f64, corrupt: f64) -> Self {
        for (name, r) in [("drop", drop), ("corrupt", corrupt)] {
            assert!(
                (0.0..=1.0).contains(&r),
                "{name} rate must lie in [0, 1], got {r}"
            );
        }
        assert!(
            drop + corrupt <= 1.0,
            "drop + corrupt must not exceed 1 (got {})",
            drop + corrupt
        );
        Self { drop, corrupt }
    }

    /// Whether any transmission can fail — i.e. whether the reliable
    /// protocol's retransmissions come into play at all.
    #[must_use]
    pub fn is_lossy(self) -> bool {
        self.drop > 0.0 || self.corrupt > 0.0
    }

    /// Expected transmissions per delivered message: attempts fail
    /// independently with probability `drop + corrupt`, so the count is
    /// geometric with mean `1 / (1 − drop − corrupt)`.  A total loss
    /// gives +∞ (the clamp keeps a rounding below zero from turning it
    /// negative).
    #[must_use]
    pub fn expected_attempts(self) -> f64 {
        1.0 / (1.0 - self.drop - self.corrupt).max(0.0)
    }
}

/// Heartbeat-priced failure-detection parameters, mirroring the
/// simulator's `mmsim::Detection` config: every rank emits a one-word
/// heartbeat each `period` time units, and a death is declared after
/// `timeout_multiple` consecutive missed beats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionParams {
    /// Heartbeat period in the machine's normalised time units.
    pub period: f64,
    /// Missed beats before a rank is declared dead.
    pub timeout_multiple: u32,
    /// The tightest per-link heartbeat period, when the plan monitors
    /// some links harder than the base `period` (the simulator's
    /// `FaultPlan::with_link_detection`).  The analytic layer prices the
    /// busiest detector link, since that rank's duty cycle bounds the
    /// machine.  `None` when every link beats at the base period.
    pub link_period: Option<f64>,
}

impl DetectionParams {
    /// Detection parameters with the given heartbeat period and timeout
    /// multiple.
    ///
    /// # Panics
    /// Panics unless the period is finite and positive and the multiple
    /// is at least 1 (the same domain the simulator enforces).
    #[must_use]
    pub fn new(period: f64, timeout_multiple: u32) -> Self {
        assert!(
            period > 0.0 && period.is_finite(),
            "heartbeat period must be finite and positive, got {period}"
        );
        assert!(
            timeout_multiple >= 1,
            "timeout multiple must be at least 1, got {timeout_multiple}"
        );
        Self {
            period,
            timeout_multiple,
            link_period: None,
        }
    }

    /// Builder-style: record the tightest per-link heartbeat period.
    ///
    /// # Panics
    /// Panics unless the period is finite and positive (the same domain
    /// `FaultPlan::with_link_detection` enforces).
    #[must_use]
    pub fn with_link_period(mut self, period: f64) -> Self {
        assert!(
            period > 0.0 && period.is_finite(),
            "per-link heartbeat period must be finite and positive, got {period}"
        );
        self.link_period = Some(period);
        self
    }

    /// The shortest heartbeat period anywhere on the machine: the base
    /// period or the tightest per-link override, whichever is smaller.
    #[must_use]
    pub fn tightest_period(self) -> f64 {
        self.link_period
            .map_or(self.period, |lp| lp.min(self.period))
    }

    /// Worst-case time from a death to its detection: the full timeout
    /// window, `timeout_multiple × period`.
    #[must_use]
    pub fn latency(self) -> f64 {
        f64::from(self.timeout_multiple) * self.period
    }
}

/// Communication constants of a machine, normalised to its unit
/// computation time (one multiply–add), exactly as in §2 of the paper,
/// plus optional per-attempt fault rates and failure-detection pricing
/// for lossy-machine analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineParams {
    /// Message startup time.
    pub t_s: f64,
    /// Per-word transfer time.
    pub t_w: f64,
    /// Per-attempt fault rates of the interconnect ([`FaultRates::ZERO`]
    /// for the paper's fault-free machines).
    pub faults: FaultRates,
    /// Heartbeat-priced failure detection (`None` models the simulator's
    /// free oracle — detection costs nothing).
    pub detection: Option<DetectionParams>,
}

impl MachineParams {
    /// A machine with the given normalised constants.
    ///
    /// # Panics
    /// Panics on negative or non-finite parameters.
    #[must_use]
    pub fn new(t_s: f64, t_w: f64) -> Self {
        assert!(
            t_s >= 0.0 && t_s.is_finite(),
            "t_s must be finite and non-negative"
        );
        assert!(
            t_w >= 0.0 && t_w.is_finite(),
            "t_w must be finite and non-negative"
        );
        Self {
            t_s,
            t_w,
            faults: FaultRates::ZERO,
            detection: None,
        }
    }

    /// Figure 1's machine: `t_w = 3`, `t_s = 150` (nCUBE2-class).
    #[must_use]
    pub fn ncube2() -> Self {
        Self::new(150.0, 3.0)
    }

    /// Figure 2's machine: `t_w = 3`, `t_s = 10` (near-future MIMD).
    #[must_use]
    pub fn future_mimd() -> Self {
        Self::new(10.0, 3.0)
    }

    /// Figure 3's machine: `t_w = 3`, `t_s = 0.5` (CM-2-class SIMD).
    #[must_use]
    pub fn simd_cm2() -> Self {
        Self::new(0.5, 3.0)
    }

    /// The §9 CM-5 constants normalised by the measured 1.53 µs
    /// multiply–add: `t_s ≈ 248.37`, `t_w ≈ 1.176`.
    #[must_use]
    pub fn cm5() -> Self {
        Self::new(380.0 / 1.53, 1.8 / 1.53)
    }

    /// The same machine with `k`-times faster processors: communication
    /// hardware unchanged, so the *normalised* constants grow `k`-fold
    /// (§8).
    #[must_use]
    pub fn with_cpu_speedup(self, k: f64) -> Self {
        assert!(k > 0.0, "speedup factor must be positive");
        Self {
            faults: self.faults,
            detection: self.detection,
            ..Self::new(self.t_s * k, self.t_w * k)
        }
    }

    /// Builder-style: the same machine with lossy links.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultRates) -> Self {
        self.faults = faults;
        self
    }

    /// Builder-style: the same machine with heartbeat-priced failure
    /// detection.  Panics on an invalid period/multiple (see
    /// [`DetectionParams::new`]).
    #[must_use]
    pub fn with_detection(mut self, period: f64, timeout_multiple: u32) -> Self {
        self.detection = Some(DetectionParams::new(period, timeout_multiple));
        self
    }

    /// Builder-style: record the tightest per-link heartbeat period on
    /// an already-configured detector (mirrors the simulator's
    /// `FaultPlan::with_link_detection` overrides; the busiest link sets
    /// the machine's priced duty cycle).
    ///
    /// # Panics
    /// Panics without a prior [`Self::with_detection`] (there is no
    /// detector to tighten) or on a non-positive/non-finite period.
    #[must_use]
    pub fn with_link_detection_period(mut self, period: f64) -> Self {
        let det = self
            .detection
            .expect("with_link_detection_period requires with_detection first");
        self.detection = Some(det.with_link_period(period));
        self
    }

    /// Effective communication constants when every message rides the
    /// engine's reliable transport (checksummed frames, per-hop
    /// acknowledgements, retransmission on drop or corruption).
    ///
    /// With per-attempt failure probability `q = drop + corrupt` the
    /// transmission count is geometric with mean `A = 1/(1−q)`, and the
    /// protocol charges per *message* (not per payload word):
    ///
    /// * `A` startups and `A` times the two framing words,
    /// * one 1-word acknowledgement injection per delivered message,
    ///
    /// so `t_s' = A·(t_s + 2·t_w) + (t_s + t_w)` while the payload term
    /// scales as `t_w' = A·t_w`.  Backoff idle between attempts is
    /// deliberately *not* priced: it overlaps other ranks' progress in
    /// the simulator, and the geometric mean already captures the
    /// first-order cost.  On a fault-free machine this still charges the framing and
    /// acknowledgement overhead — exactly what the engine does.
    ///
    /// Under a [`DetectionParams`] config every rank additionally spends
    /// `t_s + t_w` of sender occupancy per heartbeat period on the
    /// one-word beat, a duty cycle of `h = (t_s + t_w) / period` that
    /// steals link time from algorithm traffic — so both effective
    /// constants scale by `1/(1 − h)`.  The period is the machine's
    /// *tightest* one ([`DetectionParams::tightest_period`]): per-link
    /// overrides monitor lossy links harder, and the busiest detector
    /// rank bounds the whole machine.  Without detection (`None`, the
    /// free oracle) the term vanishes and the result is bit-identical to
    /// the pre-detection formula.
    ///
    /// The returned params keep the fault rates and detection config, so
    /// `is_lossy` remains visible to callers; the analytic time formulas
    /// ignore the fields.
    ///
    /// # Panics
    /// Panics if the heartbeat duty cycle reaches 1 — a period too short
    /// to fit the beat itself leaves no capacity for real traffic.
    #[must_use]
    pub fn reliable_effective(self) -> Self {
        let a = self.faults.expected_attempts();
        let det_scale = match self.detection {
            None => 1.0,
            Some(det) => {
                let h = (self.t_s + self.t_w) / det.tightest_period();
                assert!(
                    h < 1.0,
                    "heartbeat duty cycle (t_s + t_w)/period = {h} must stay below 1"
                );
                1.0 / (1.0 - h)
            }
        };
        Self {
            t_s: det_scale * (a * (self.t_s + 2.0 * self.t_w) + (self.t_s + self.t_w)),
            t_w: det_scale * a * self.t_w,
            faults: self.faults,
            detection: self.detection,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert_eq!(MachineParams::ncube2(), MachineParams::new(150.0, 3.0));
        assert_eq!(MachineParams::future_mimd().t_s, 10.0);
        assert_eq!(MachineParams::simd_cm2().t_s, 0.5);
        assert!((MachineParams::cm5().t_w - 1.17647).abs() < 1e-4);
        assert!(!MachineParams::cm5().faults.is_lossy());
    }

    #[test]
    fn cpu_speedup_scales_both_constants() {
        let m = MachineParams::new(10.0, 2.0).with_cpu_speedup(5.0);
        assert_eq!(m.t_s, 50.0);
        assert_eq!(m.t_w, 10.0);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_speedup_rejected() {
        let _ = MachineParams::ncube2().with_cpu_speedup(0.0);
    }

    #[test]
    fn fault_rates_validate() {
        let r = FaultRates::new(0.2, 0.1);
        assert!(r.is_lossy());
        assert!((r.expected_attempts() - 1.0 / 0.7).abs() < 1e-12);
        assert!(!FaultRates::ZERO.is_lossy());
        assert_eq!(FaultRates::ZERO.expected_attempts(), 1.0);
        // A total loss is a valid plan whose messages never arrive.
        assert_eq!(FaultRates::new(1.0, 0.0).expected_attempts(), f64::INFINITY);
        assert_eq!(FaultRates::new(0.6, 0.4).expected_attempts(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "must not exceed 1")]
    fn saturated_loss_rejected() {
        let _ = FaultRates::new(0.6, 0.5);
    }

    #[test]
    fn reliable_effective_on_healthy_machine_charges_framing_and_ack() {
        let m = MachineParams::new(10.0, 2.0).reliable_effective();
        // A = 1: t_s' = (10 + 4) + (10 + 2) = 26, t_w' = 2.
        assert_eq!(m.t_s, 26.0);
        assert_eq!(m.t_w, 2.0);
    }

    #[test]
    fn detection_free_reliable_effective_is_bit_identical() {
        // None must reproduce the pre-detection formula *exactly*: the
        // scale factor is the literal 1.0, not a computed near-1 value.
        let m = MachineParams::new(10.0, 2.0);
        let eff = m.reliable_effective();
        assert_eq!(eff.t_s.to_bits(), 26.0f64.to_bits());
        assert_eq!(eff.t_w.to_bits(), 2.0f64.to_bits());
        assert_eq!(eff.detection, None);
    }

    #[test]
    fn detection_scales_both_constants_and_survives_the_transform() {
        let base = MachineParams::new(10.0, 2.0).reliable_effective();
        let det = MachineParams::new(10.0, 2.0)
            .with_detection(48.0, 3)
            .reliable_effective();
        // h = 12/48 = 1/4 → scale 4/3.
        assert!((det.t_s - base.t_s * 4.0 / 3.0).abs() < 1e-12);
        assert!((det.t_w - base.t_w * 4.0 / 3.0).abs() < 1e-12);
        assert_eq!(det.detection, Some(DetectionParams::new(48.0, 3)));
        // A longer period means a lighter tax but a longer wait.
        let slow = MachineParams::new(10.0, 2.0)
            .with_detection(480.0, 3)
            .reliable_effective();
        assert!(slow.t_s < det.t_s);
        assert!(slow.detection.unwrap().latency() > det.detection.unwrap().latency());
    }

    #[test]
    fn link_period_tightens_the_priced_duty_cycle() {
        // A per-link override below the base period raises the machine's
        // priced heartbeat tax; one above it changes nothing (the base
        // duty cycle already dominates).
        let base = MachineParams::new(10.0, 2.0)
            .with_detection(48.0, 3)
            .reliable_effective();
        let tight = MachineParams::new(10.0, 2.0)
            .with_detection(48.0, 3)
            .with_link_detection_period(24.0)
            .reliable_effective();
        // h = 12/24 = 1/2 → scale 2 vs the base 4/3.
        assert!((tight.t_s - base.t_s * (2.0 / (4.0 / 3.0))).abs() < 1e-9);
        assert!(tight.t_w > base.t_w);
        let loose = MachineParams::new(10.0, 2.0)
            .with_detection(48.0, 3)
            .with_link_detection_period(96.0)
            .reliable_effective();
        assert_eq!(loose.t_s.to_bits(), base.t_s.to_bits());
        assert_eq!(loose.t_w.to_bits(), base.t_w.to_bits());
        // The accessor reports the machine's shortest period.
        assert_eq!(DetectionParams::new(48.0, 3).tightest_period(), 48.0);
        assert_eq!(
            DetectionParams::new(48.0, 3)
                .with_link_period(24.0)
                .tightest_period(),
            24.0
        );
    }

    #[test]
    #[should_panic(expected = "requires with_detection")]
    fn orphan_link_detection_period_rejected() {
        let _ = MachineParams::new(10.0, 2.0).with_link_detection_period(5.0);
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn saturating_heartbeat_period_rejected() {
        let _ = MachineParams::new(10.0, 2.0)
            .with_detection(12.0, 1)
            .reliable_effective();
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn zero_detection_period_rejected() {
        let _ = MachineParams::new(10.0, 2.0).with_detection(0.0, 2);
    }

    #[test]
    fn cpu_speedup_preserves_detection() {
        let m = MachineParams::new(10.0, 2.0)
            .with_detection(100.0, 2)
            .with_cpu_speedup(3.0);
        assert_eq!(m.detection, Some(DetectionParams::new(100.0, 2)));
        assert_eq!(m.detection.unwrap().latency(), 200.0);
    }

    #[test]
    fn reliable_effective_inflates_with_loss() {
        let healthy = MachineParams::cm5().reliable_effective();
        let lossy = MachineParams::cm5()
            .with_faults(FaultRates::new(0.3, 0.1))
            .reliable_effective();
        assert!(lossy.t_s > healthy.t_s);
        assert!(lossy.t_w > healthy.t_w);
        // Startup inflates by a larger *factor* than bandwidth: the ack
        // and framing overheads are per message.
        let base = MachineParams::cm5();
        assert!(lossy.t_s / base.t_s > lossy.t_w / base.t_w);
        assert!(lossy.faults.is_lossy(), "rates survive the transform");
    }
}
