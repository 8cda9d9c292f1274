//! Seeded, fully deterministic fault injection.
//!
//! A [`FaultPlan`] describes everything that can go wrong in a run:
//!
//! * **fail-stop processor death** — a rank halts forever once its
//!   virtual clock crosses a configured instant;
//! * **per-link message faults** — drop and corruption (bit flip),
//!   each a probability per link.
//!
//! Every per-message decision is a *pure function* of the plan seed and
//! the message coordinates `(src, dst, seq, attempt)` via
//! [`detrng::mix`].  There is no generator state to share or
//! synchronise: the sender and the receiver of a link evaluate the same
//! oracle independently and always agree, which is what keeps the
//! simulation deterministic (and replayable) under any host
//! interleaving.  Two runs with the same plan produce byte-identical
//! reports; a plan with all rates zero is observationally identical to
//! no plan at all (the tests pin both properties).
//!
//! The oracle style also lets the engine model acknowledgement traffic
//! in *virtual* time without host-level blocking: a sender knows the
//! fate of an attempt the moment it sends it, so a retransmission
//! timeout becomes a deterministic idle charge instead of a host-level
//! wait.  See `docs/fault_model.md` for the full protocol.

use std::collections::BTreeMap;

use detrng::{mix, mix_unit_f64};

/// Traffic class of a message, part of the fate oracle key so that
/// plain sends and reliable-protocol frames draw independent fates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficClass {
    /// An unprotected [`crate::Proc::send`].
    Plain,
    /// A framed [`crate::Proc::send_reliable`] data frame.
    Reliable,
    /// A one-word failure-detector heartbeat (see
    /// [`FaultPlan::with_detection`]).  Heartbeats ride the same faulted
    /// links as data — under a nonzero drop/corrupt rate a beat can be
    /// lost, so a detector can time out on a *live* rank.
    Heartbeat,
}

impl TrafficClass {
    fn key(self) -> u64 {
        match self {
            TrafficClass::Plain => 1,
            TrafficClass::Reliable => 2,
            TrafficClass::Heartbeat => 3,
        }
    }
}

/// Modelled failure-detection configuration: a heartbeat protocol
/// priced in virtual time.
///
/// Without a `Detection` config, survivors of a fail-stop death learn
/// of it through the simulator for free — an oracle no real machine
/// has.  With one, every rank emits a one-word heartbeat each `period`
/// units of virtual time (charged as communication into its clock and
/// counted in [`crate::ProcStats::heartbeat_words`]), and a death is
/// only *detected* after `timeout_multiple` heartbeat periods have
/// elapsed with no beat — that detection latency is added to the dead
/// rank's recovery surcharge and reported in
/// [`crate::ProcStats::detection_latency`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Virtual-time interval between heartbeats (must be positive and
    /// finite).
    pub period: f64,
    /// How many silent periods declare a rank dead (must be ≥ 1).
    pub timeout_multiple: u32,
}

impl Detection {
    /// Detection latency charged per recovered death:
    /// `timeout_multiple × period`.
    #[must_use]
    pub fn latency(&self) -> f64 {
        f64::from(self.timeout_multiple) * self.period
    }

    /// Check this config's invariants without panicking.
    ///
    /// # Errors
    /// Non-positive / non-finite `period` or a zero `timeout_multiple`.
    pub fn check(&self) -> Result<(), FaultPlanError> {
        if !(self.period > 0.0 && self.period.is_finite()) || self.timeout_multiple == 0 {
            return Err(FaultPlanError::InvalidDetection {
                period: self.period,
                timeout_multiple: self.timeout_multiple,
            });
        }
        Ok(())
    }
}

/// What the network does to one transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// The message arrives intact.
    Delivered,
    /// The message arrives with one bit flipped in its payload.
    Corrupted,
    /// The message vanishes.
    Dropped,
}

/// Why a [`FaultPlan`] (or one of its [`LinkFaults`] entries) is
/// invalid.  Produced by the non-panicking [`LinkFaults::check`] /
/// [`FaultPlan::validate`] paths; the panicking builders raise the same
/// messages, so the two paths cannot diverge in diagnosis.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultPlanError {
    /// A fault probability lies outside `[0, 1]`.
    RateOutOfRange {
        /// Which rate (`"drop"` or `"corrupt"`).
        name: &'static str,
        /// The offending value.
        value: f64,
    },
    /// `drop + corrupt > 1`: the two outcomes are disjoint, so their
    /// probabilities must not overlap.
    OverlappingRates {
        /// The drop probability.
        drop: f64,
        /// The corrupt probability.
        corrupt: f64,
    },
    /// A fail-stop instant is negative or non-finite.
    InvalidDeathTime {
        /// The rank scheduled to die.
        rank: usize,
        /// The offending virtual time.
        t: f64,
    },
    /// The reliable protocol's retransmission cap is zero.
    ZeroAttempts,
    /// A [`Detection`] config has a non-positive / non-finite heartbeat
    /// period or a zero timeout multiple.
    InvalidDetection {
        /// The offending heartbeat period.
        period: f64,
        /// The offending timeout multiple.
        timeout_multiple: u32,
    },
    /// A [`FaultPlan::with_link_detection`] override has a non-positive
    /// or non-finite heartbeat period.
    InvalidLinkDetection {
        /// The monitored rank the override targets.
        rank: usize,
        /// The offending heartbeat period.
        period: f64,
    },
    /// A per-link detection override targets a rank outside the
    /// machine it was attached to.
    LinkDetectionOutOfRange {
        /// The monitored rank the override targets.
        rank: usize,
        /// The machine's physical rank count.
        p: usize,
    },
    /// Per-link detection overrides exist but no base
    /// [`FaultPlan::with_detection`] config does — there is no detector
    /// to tighten.
    OrphanLinkDetection {
        /// One offending override's monitored rank.
        rank: usize,
    },
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RateOutOfRange { name, value } => {
                write!(f, "{name} probability must lie in [0, 1], got {value}")
            }
            Self::OverlappingRates { drop, corrupt } => write!(
                f,
                "drop + corrupt must not exceed 1 (they are disjoint outcomes), \
                 got {drop} + {corrupt}"
            ),
            Self::InvalidDeathTime { rank, t } => write!(
                f,
                "death time for rank {rank} must be finite and non-negative, got {t}"
            ),
            Self::ZeroAttempts => write!(f, "at least one transmission attempt is required"),
            Self::InvalidDetection {
                period,
                timeout_multiple,
            } => write!(
                f,
                "detection requires a finite positive heartbeat period and a timeout \
                 multiple >= 1, got period {period} x {timeout_multiple}"
            ),
            Self::InvalidLinkDetection { rank, period } => write!(
                f,
                "per-link detection period for rank {rank} must be finite and positive, \
                 got {period}"
            ),
            Self::LinkDetectionOutOfRange { rank, p } => write!(
                f,
                "per-link detection period targets rank {rank}, but the machine has only \
                 {p} physical ranks"
            ),
            Self::OrphanLinkDetection { rank } => write!(
                f,
                "per-link detection period for rank {rank} has no base detection config \
                 (call with_detection first)"
            ),
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Fault behaviour of one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkFaults {
    /// Probability a transmission attempt is dropped.
    pub drop: f64,
    /// Probability a transmission attempt arrives corrupted.
    pub corrupt: f64,
}

impl LinkFaults {
    /// Check this link's invariants, returning a descriptive
    /// [`FaultPlanError`] instead of panicking — use this before handing
    /// untrusted rates to the panicking builders.
    ///
    /// # Errors
    /// Any rate outside `[0, 1]`, or `drop + corrupt > 1`.
    pub fn check(&self) -> Result<(), FaultPlanError> {
        for (name, v) in [("drop", self.drop), ("corrupt", self.corrupt)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(FaultPlanError::RateOutOfRange { name, value: v });
            }
        }
        if self.drop + self.corrupt > 1.0 {
            return Err(FaultPlanError::OverlappingRates {
                drop: self.drop,
                corrupt: self.corrupt,
            });
        }
        Ok(())
    }

    fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("{e}");
        }
    }

    /// Whether this link is fault-free.
    #[must_use]
    pub fn is_healthy(&self) -> bool {
        self.drop == 0.0 && self.corrupt == 0.0
    }
}

// Salt constants keep the fate and bit-position draws statistically
// independent of each other under the same seed.
const SALT_FATE: u64 = 0xFA7E;
const SALT_BIT: u64 = 0xB17F;

/// A complete, seeded description of the faults injected into one run.
///
/// Attach with [`crate::Machine::with_fault_plan`].  The plan is
/// immutable once attached; build it with the `with_*` methods.
///
/// ```
/// use mmsim::fault::FaultPlan;
///
/// let plan = FaultPlan::new(42)
///     .with_drop_rate(0.05)
///     .with_corrupt_rate(0.01)
///     .with_death(3, 1_000.0);
/// assert_eq!(plan.death_time(3), Some(1_000.0));
/// assert_eq!(plan.link(0, 1).drop, 0.05);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    default_link: LinkFaults,
    links: BTreeMap<(usize, usize), LinkFaults>,
    deaths: BTreeMap<usize, f64>,
    max_attempts: u32,
    detection: Option<Detection>,
    link_detection: BTreeMap<usize, f64>,
}

impl FaultPlan {
    /// A fault-free plan under the given seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            default_link: LinkFaults::default(),
            links: BTreeMap::new(),
            deaths: BTreeMap::new(),
            max_attempts: 16,
            detection: None,
            link_detection: BTreeMap::new(),
        }
    }

    /// The plan's seed.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Builder: fail-stop `rank` once its virtual clock reaches `t`.
    ///
    /// # Panics
    /// Panics on negative or non-finite `t`.
    #[must_use]
    pub fn with_death(mut self, rank: usize, t: f64) -> Self {
        if !(t >= 0.0 && t.is_finite()) {
            panic!("{}", FaultPlanError::InvalidDeathTime { rank, t });
        }
        self.deaths.insert(rank, t);
        self
    }

    /// Builder: set the drop probability on **every** link.
    #[must_use]
    pub fn with_drop_rate(mut self, p: f64) -> Self {
        self.default_link.drop = p;
        self.default_link.validate();
        self
    }

    /// Builder: set the corruption probability on **every** link.
    #[must_use]
    pub fn with_corrupt_rate(mut self, p: f64) -> Self {
        self.default_link.corrupt = p;
        self.default_link.validate();
        self
    }

    /// Builder: override the fault behaviour of the directed link
    /// `src → dst`.
    #[must_use]
    pub fn with_link(mut self, src: usize, dst: usize, faults: LinkFaults) -> Self {
        faults.validate();
        self.links.insert((src, dst), faults);
        self
    }

    /// Builder: cap the reliable protocol's retransmission attempts
    /// per message (default 16); exceeding the cap is a rank panic.
    ///
    /// # Panics
    /// Panics if `n` is zero.
    #[must_use]
    pub fn with_max_attempts(mut self, n: u32) -> Self {
        if n == 0 {
            panic!("{}", FaultPlanError::ZeroAttempts);
        }
        self.max_attempts = n;
        self
    }

    /// Builder: price failure detection with a heartbeat every `period`
    /// virtual-time units and a death declared after `timeout_multiple`
    /// silent periods.  Without this, peers learn of deaths through the
    /// simulator for free.
    ///
    /// # Panics
    /// Panics on a non-positive / non-finite `period` or a zero
    /// `timeout_multiple`.
    #[must_use]
    pub fn with_detection(mut self, period: f64, timeout_multiple: u32) -> Self {
        let det = Detection {
            period,
            timeout_multiple,
        };
        if let Err(e) = det.check() {
            panic!("{e}");
        }
        self.detection = Some(det);
        self
    }

    /// Builder: tighten (or loosen) the heartbeat period on the link
    /// monitoring `rank` — a lossy link deserves a shorter period at a
    /// higher heartbeat cost.  Heartbeats from `rank` travel the
    /// directed link `rank → watcher` (the checkpoint buddy ring, see
    /// [`crate::recovery`]), so the override keys on the *monitored*
    /// physical rank.  Requires a base [`Self::with_detection`] config
    /// (in either builder order; [`Self::validate`] enforces the pairing)
    /// and, once attached to a machine, `rank` must be one of its
    /// physical ranks ([`Self::validate_for`]).
    ///
    /// # Panics
    /// Panics on a non-positive / non-finite `period`.
    #[must_use]
    pub fn with_link_detection(mut self, rank: usize, period: f64) -> Self {
        if !(period > 0.0 && period.is_finite()) {
            panic!("{}", FaultPlanError::InvalidLinkDetection { rank, period });
        }
        self.link_detection.insert(rank, period);
        self
    }

    /// The modelled failure-detection config, if any.
    #[must_use]
    pub fn detection(&self) -> Option<Detection> {
        self.detection
    }

    /// The heartbeat period monitoring `rank`: the per-link override if
    /// one was set, the base period otherwise.  `None` without a
    /// detection config.
    #[must_use]
    pub fn detection_period_for(&self, rank: usize) -> Option<f64> {
        self.detection.map(|det| {
            self.link_detection
                .get(&rank)
                .copied()
                .unwrap_or(det.period)
        })
    }

    /// Detection latency charged when `rank` fail-stops:
    /// `timeout_multiple × period` with `rank`'s effective period.
    /// `None` without a detection config.
    #[must_use]
    pub fn detection_latency_for(&self, rank: usize) -> Option<f64> {
        self.detection.and_then(|det| {
            self.detection_period_for(rank)
                .map(|period| f64::from(det.timeout_multiple) * period)
        })
    }

    /// The tightest heartbeat period anywhere in the plan (the base
    /// period or the smallest per-link override).  This is the duty
    /// cycle the analytic layer prices, since the busiest detector link
    /// bounds the machine.  `None` without a detection config.
    #[must_use]
    pub fn min_detection_period(&self) -> Option<f64> {
        self.detection.map(|det| {
            self.link_detection
                .values()
                .fold(det.period, |acc, &p| acc.min(p))
        })
    }

    /// The per-link detection overrides, keyed by monitored rank.
    pub fn link_detection(&self) -> impl Iterator<Item = (usize, f64)> + '_ {
        self.link_detection.iter().map(|(&rank, &p)| (rank, p))
    }

    /// A copy of the plan with every death instant shifted `dt` earlier
    /// (service-absolute → run-relative rebasing): a death scheduled at
    /// `T` becomes `T - dt`; deaths already in the past (`T < dt`) are
    /// dropped.  Everything else — rates, links, seed, detection — is
    /// preserved.
    ///
    /// # Panics
    /// Panics on a negative or non-finite `dt`.
    #[must_use]
    pub fn rebased_deaths(&self, dt: f64) -> Self {
        assert!(
            dt >= 0.0 && dt.is_finite(),
            "rebase offset must be finite and non-negative, got {dt}"
        );
        let mut plan = self.clone();
        plan.deaths = self
            .deaths
            .iter()
            .filter(|&(_, &t)| t >= dt)
            .map(|(&rank, &t)| (rank, t - dt))
            .collect();
        plan
    }

    /// The virtual time at which `rank` fail-stops, if any.
    #[must_use]
    pub fn death_time(&self, rank: usize) -> Option<f64> {
        self.deaths.get(&rank).copied()
    }

    /// The plan's default per-link fault behaviour (the rates every link
    /// without a [`FaultPlan::with_link`] override runs under).
    #[must_use]
    pub fn default_link(&self) -> LinkFaults {
        self.default_link
    }

    /// Effective fault behaviour of the directed link `src → dst`.
    #[must_use]
    pub fn link(&self, src: usize, dst: usize) -> LinkFaults {
        self.links
            .get(&(src, dst))
            .copied()
            .unwrap_or(self.default_link)
    }

    /// Retransmission-attempt cap of the reliable protocol.
    #[must_use]
    pub fn max_attempts(&self) -> u32 {
        self.max_attempts
    }

    /// Re-check **every** invariant of the plan — default link rates,
    /// all per-link overrides, all death times, and the attempt cap —
    /// returning the first violation as a descriptive
    /// [`FaultPlanError`].  The panicking builders uphold these
    /// invariants already; this is the non-panicking path for plans
    /// assembled from untrusted configuration.
    ///
    /// # Errors
    /// The first violated invariant, in link-rate → death → attempt-cap
    /// order.
    pub fn validate(&self) -> Result<(), FaultPlanError> {
        self.default_link.check()?;
        for faults in self.links.values() {
            faults.check()?;
        }
        for (&rank, &t) in &self.deaths {
            if !(t >= 0.0 && t.is_finite()) {
                return Err(FaultPlanError::InvalidDeathTime { rank, t });
            }
        }
        if self.max_attempts == 0 {
            return Err(FaultPlanError::ZeroAttempts);
        }
        if let Some(det) = self.detection {
            det.check()?;
        }
        for (&rank, &period) in &self.link_detection {
            if !(period > 0.0 && period.is_finite()) {
                return Err(FaultPlanError::InvalidLinkDetection { rank, period });
            }
            if self.detection.is_none() {
                return Err(FaultPlanError::OrphanLinkDetection { rank });
            }
        }
        Ok(())
    }

    /// [`Self::validate`] plus the machine-relative invariants: every
    /// per-link detection override must target one of the machine's `p`
    /// physical ranks.  [`crate::Machine::with_fault_plan`] runs this at
    /// attach time, so a bad override fails loudly there instead of
    /// deep in the engine.
    ///
    /// # Errors
    /// The first violated invariant, plan-local checks first.
    pub fn validate_for(&self, p: usize) -> Result<(), FaultPlanError> {
        self.validate()?;
        if let Some((&rank, _)) = self.link_detection.iter().find(|(&rank, _)| rank >= p) {
            return Err(FaultPlanError::LinkDetectionOutOfRange { rank, p });
        }
        Ok(())
    }

    /// Whether the plan injects nothing at all (no deaths, every link
    /// healthy, no heartbeat traffic).  A zero plan is observationally
    /// identical to running without a plan.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.deaths.is_empty()
            && self.detection.is_none()
            && self.default_link.is_healthy()
            && self.links.values().all(LinkFaults::is_healthy)
    }

    /// The fate of transmission `attempt` of message `seq` on link
    /// `src → dst` — a pure function of the plan, so sender and
    /// receiver agree without communicating.
    #[must_use]
    pub fn fate(
        &self,
        class: TrafficClass,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
    ) -> Fate {
        let link = self.link(src, dst);
        if link.drop == 0.0 && link.corrupt == 0.0 {
            return Fate::Delivered;
        }
        let r = mix_unit_f64(&[
            self.seed,
            SALT_FATE,
            class.key(),
            src as u64,
            dst as u64,
            seq,
            u64::from(attempt),
        ]);
        if r < link.drop {
            Fate::Dropped
        } else if r < link.drop + link.corrupt {
            Fate::Corrupted
        } else {
            Fate::Delivered
        }
    }

    /// Whether heartbeat number `beat` on the monitor link `src → dst`
    /// is *missed* — dropped or corrupted in flight, so the watcher
    /// never books it.  Beat `k` (0-based) is emitted at virtual time
    /// `(k + 1) × period`; its fate is one [`TrafficClass::Heartbeat`]
    /// draw from the link's ordinary drop/corrupt rates, so a healthy
    /// link never misses and a detection-free plan is untouched.
    #[must_use]
    pub fn heartbeat_missed(&self, src: usize, dst: usize, beat: u64) -> bool {
        self.fate(TrafficClass::Heartbeat, src, dst, beat, 0) != Fate::Delivered
    }

    /// The first beat `k ≥ from` at which the watcher on `src → dst`
    /// has seen `streak` *consecutive* missed heartbeats, counting from
    /// beat `from` and scanning beats whose emission time
    /// (`(k + 1) × period`) lies within `horizon`; `None` if no such
    /// streak occurs.  Pure oracle arithmetic: this is how the engine
    /// sites spurious failovers and how `gemmd` sites proactive
    /// migration alarms.
    #[must_use]
    pub fn first_streak(
        &self,
        src: usize,
        dst: usize,
        from: u64,
        streak: u32,
        period: f64,
        horizon: f64,
    ) -> Option<u64> {
        let positive = |x: f64| x.partial_cmp(&0.0) == Some(std::cmp::Ordering::Greater);
        if streak == 0 || !positive(period) || !positive(horizon) {
            return None;
        }
        let link = self.link(src, dst);
        if link.drop == 0.0 && link.corrupt == 0.0 {
            return None;
        }
        let mut run = 0u32;
        let mut beat = from;
        loop {
            let t = (beat + 1) as f64 * period;
            if t > horizon {
                return None;
            }
            run = if self.heartbeat_missed(src, dst, beat) {
                run + 1
            } else {
                0
            };
            if run >= streak {
                return Some(beat);
            }
            beat += 1;
        }
    }

    /// Which `(word index, bit index)` of a `words`-long payload a
    /// corrupted attempt flips.  Deterministic per message coordinates.
    ///
    /// # Panics
    /// Panics if `words` is zero (there is nothing to corrupt).
    #[must_use]
    pub fn corrupt_position(
        &self,
        src: usize,
        dst: usize,
        seq: u64,
        attempt: u32,
        words: usize,
    ) -> (usize, u32) {
        assert!(words > 0, "cannot corrupt an empty payload");
        let h = mix(&[
            self.seed,
            SALT_BIT,
            src as u64,
            dst as u64,
            seq,
            u64::from(attempt),
        ]);
        ((h % words as u64) as usize, ((h >> 32) % 64) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_plan_detected() {
        assert!(FaultPlan::new(1).is_zero());
        assert!(!FaultPlan::new(1).with_drop_rate(0.1).is_zero());
        assert!(!FaultPlan::new(1).with_death(0, 5.0).is_zero());
        let lossy = LinkFaults {
            drop: 0.5,
            corrupt: 0.0,
        };
        assert!(!FaultPlan::new(1).with_link(0, 1, lossy).is_zero());
        // Heartbeats cost bandwidth, so a detection config is not zero.
        assert!(!FaultPlan::new(1).with_detection(100.0, 3).is_zero());
    }

    #[test]
    fn detection_latency_is_period_times_multiple() {
        let plan = FaultPlan::new(1).with_detection(50.0, 4);
        let det = plan.detection().expect("detection set");
        assert_eq!(det.latency(), 200.0);
        assert_eq!(FaultPlan::new(1).detection(), None);
    }

    #[test]
    #[should_panic(expected = "heartbeat period")]
    fn zero_detection_period_rejected() {
        let _ = FaultPlan::new(0).with_detection(0.0, 3);
    }

    #[test]
    #[should_panic(expected = "timeout")]
    fn zero_timeout_multiple_rejected() {
        let _ = FaultPlan::new(0).with_detection(10.0, 0);
    }

    #[test]
    fn per_link_detection_overrides_the_base_period() {
        let plan = FaultPlan::new(1)
            .with_detection(50.0, 4)
            .with_link_detection(2, 10.0);
        assert_eq!(plan.detection_period_for(2), Some(10.0));
        assert_eq!(plan.detection_period_for(0), Some(50.0));
        assert_eq!(plan.detection_latency_for(2), Some(40.0));
        assert_eq!(plan.detection_latency_for(0), Some(200.0));
        assert_eq!(plan.min_detection_period(), Some(10.0));
        assert_eq!(plan.link_detection().collect::<Vec<_>>(), vec![(2, 10.0)]);
        assert_eq!(FaultPlan::new(1).detection_period_for(0), None);
        assert_eq!(FaultPlan::new(1).min_detection_period(), None);
        assert_eq!(plan.validate_for(4), Ok(()));
    }

    #[test]
    #[should_panic(expected = "per-link detection period")]
    fn non_finite_link_detection_period_rejected() {
        let _ = FaultPlan::new(0)
            .with_detection(10.0, 2)
            .with_link_detection(1, f64::NAN);
    }

    #[test]
    fn orphan_link_detection_caught_by_validate() {
        // Builder order is free, so the orphan is only diagnosable at
        // validation time.
        let plan = FaultPlan::new(0).with_link_detection(3, 5.0);
        assert_eq!(
            plan.validate(),
            Err(FaultPlanError::OrphanLinkDetection { rank: 3 })
        );
        let paired = plan.with_detection(20.0, 2);
        assert_eq!(paired.validate(), Ok(()));
    }

    #[test]
    fn out_of_range_link_detection_caught_by_validate_for() {
        let plan = FaultPlan::new(0)
            .with_detection(20.0, 2)
            .with_link_detection(7, 5.0);
        assert_eq!(plan.validate(), Ok(()));
        assert_eq!(
            plan.validate_for(4),
            Err(FaultPlanError::LinkDetectionOutOfRange { rank: 7, p: 4 })
        );
        assert_eq!(plan.validate_for(8), Ok(()));
    }

    #[test]
    fn heartbeats_draw_an_independent_fate_stream() {
        let plan = FaultPlan::new(11).with_drop_rate(0.5);
        let differs = (0..200u64).any(|seq| {
            plan.fate(TrafficClass::Heartbeat, 0, 1, seq, 0)
                != plan.fate(TrafficClass::Reliable, 0, 1, seq, 0)
        });
        assert!(differs, "heartbeats must not share the reliable stream");
        // Healthy links never miss a beat.
        assert!((0..100).all(|b| !FaultPlan::new(11).heartbeat_missed(0, 1, b)));
    }

    #[test]
    fn first_streak_is_the_oracle_scan() {
        let plan = FaultPlan::new(42).with_drop_rate(0.5);
        let first = plan.first_streak(0, 1, 0, 2, 10.0, 10_000.0);
        if let Some(k) = first {
            // Re-derive by hand: beats k−1 and k miss.
            assert!(plan.heartbeat_missed(0, 1, k));
            assert!(plan.heartbeat_missed(0, 1, k - 1));
            // No earlier pair of consecutive misses.
            let mut run = 0;
            for b in 0..k - 1 {
                run = if plan.heartbeat_missed(0, 1, b) {
                    run + 1
                } else {
                    0
                };
                assert!(run < 2, "earlier streak at beat {b}");
            }
            // Resuming after the streak finds the next one, or none.
            let next = plan.first_streak(0, 1, k + 1, 2, 10.0, 10_000.0);
            assert!(next.is_none_or(|j| j > k + 1 && plan.heartbeat_missed(0, 1, j - 1)));
        }
        // Deterministic replay.
        assert_eq!(first, plan.first_streak(0, 1, 0, 2, 10.0, 10_000.0));
        // Healthy link or degenerate parameters: no streak.
        assert_eq!(FaultPlan::new(42).first_streak(0, 1, 0, 2, 10.0, 1e6), None);
        assert_eq!(plan.first_streak(0, 1, 0, 0, 10.0, 1e6), None);
        assert_eq!(plan.first_streak(0, 1, 0, 2, 10.0, 5.0), None);
        // A certain-drop link streaks at beat streak − 1 past the start.
        let dead_link = FaultPlan::new(1).with_drop_rate(1.0);
        assert_eq!(dead_link.first_streak(0, 1, 0, 3, 10.0, 100.0), Some(2));
        assert_eq!(dead_link.first_streak(0, 1, 4, 3, 10.0, 100.0), Some(6));
        assert_eq!(dead_link.first_streak(0, 1, 8, 3, 10.0, 100.0), None);
    }

    #[test]
    fn rebased_deaths_preserve_link_detection() {
        let plan = FaultPlan::new(3)
            .with_detection(25.0, 2)
            .with_link_detection(1, 5.0)
            .with_death(1, 400.0);
        let rebased = plan.rebased_deaths(100.0);
        assert_eq!(rebased.detection_period_for(1), Some(5.0));
        assert_eq!(rebased.death_time(1), Some(300.0));
    }

    #[test]
    fn rebased_deaths_shift_and_drop() {
        let plan = FaultPlan::new(3)
            .with_drop_rate(0.1)
            .with_detection(25.0, 2)
            .with_death(0, 100.0)
            .with_death(1, 400.0);
        let rebased = plan.rebased_deaths(250.0);
        // Past death dropped, future death shifted into run-relative time.
        assert_eq!(rebased.death_time(0), None);
        assert_eq!(rebased.death_time(1), Some(150.0));
        // Everything else survives the rebase.
        assert_eq!(rebased.seed(), plan.seed());
        assert_eq!(rebased.default_link(), plan.default_link());
        assert_eq!(rebased.detection(), plan.detection());
        // Zero offset is an identity.
        assert_eq!(plan.rebased_deaths(0.0), plan);
    }

    #[test]
    #[should_panic(expected = "rebase offset")]
    fn negative_rebase_offset_rejected() {
        let _ = FaultPlan::new(0).rebased_deaths(-1.0);
    }

    #[test]
    fn zero_rates_always_deliver() {
        let plan = FaultPlan::new(7);
        for seq in 0..50u64 {
            assert_eq!(
                plan.fate(TrafficClass::Plain, 0, 1, seq, 0),
                Fate::Delivered
            );
        }
    }

    #[test]
    fn certain_drop_always_drops() {
        let plan = FaultPlan::new(7).with_drop_rate(1.0);
        for seq in 0..50u64 {
            for attempt in 0..4 {
                assert_eq!(
                    plan.fate(TrafficClass::Reliable, 2, 3, seq, attempt),
                    Fate::Dropped
                );
            }
        }
    }

    #[test]
    fn fate_is_deterministic_and_attempt_sensitive() {
        let plan = FaultPlan::new(99).with_drop_rate(0.5);
        let a = plan.fate(TrafficClass::Reliable, 0, 1, 3, 0);
        assert_eq!(a, plan.fate(TrafficClass::Reliable, 0, 1, 3, 0));
        // Over many attempts a 0.5-drop link must eventually deliver.
        assert!((0..64).any(|k| plan.fate(TrafficClass::Reliable, 0, 1, 3, k) == Fate::Delivered));
    }

    #[test]
    fn fate_rates_are_roughly_honoured() {
        let plan = FaultPlan::new(5).with_drop_rate(0.3).with_corrupt_rate(0.2);
        let n = 10_000;
        let mut dropped = 0;
        let mut corrupted = 0;
        for seq in 0..n {
            match plan.fate(TrafficClass::Plain, 1, 2, seq, 0) {
                Fate::Dropped => dropped += 1,
                Fate::Corrupted => corrupted += 1,
                Fate::Delivered => {}
            }
        }
        let (d, c) = (
            f64::from(dropped) / n as f64,
            f64::from(corrupted) / n as f64,
        );
        assert!((d - 0.3).abs() < 0.02, "drop rate {d}");
        assert!((c - 0.2).abs() < 0.02, "corrupt rate {c}");
    }

    #[test]
    fn per_link_overrides_win_over_default() {
        let plan = FaultPlan::new(1).with_drop_rate(0.5).with_link(
            4,
            5,
            LinkFaults {
                drop: 0.0,
                ..LinkFaults::default()
            },
        );
        assert_eq!(plan.link(4, 5).drop, 0.0);
        assert_eq!(plan.link(5, 4).drop, 0.5);
        for seq in 0..100 {
            assert_eq!(
                plan.fate(TrafficClass::Plain, 4, 5, seq, 0),
                Fate::Delivered
            );
        }
    }

    #[test]
    fn plain_and_reliable_classes_draw_independent_fates() {
        let plan = FaultPlan::new(11).with_drop_rate(0.5);
        let differs = (0..200u64).any(|seq| {
            plan.fate(TrafficClass::Plain, 0, 1, seq, 0)
                != plan.fate(TrafficClass::Reliable, 0, 1, seq, 0)
        });
        assert!(differs, "traffic classes must not share a fate stream");
    }

    #[test]
    fn corrupt_position_in_range() {
        let plan = FaultPlan::new(3);
        for seq in 0..100 {
            let (w, b) = plan.corrupt_position(0, 1, seq, 2, 17);
            assert!(w < 17);
            assert!(b < 64);
        }
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn out_of_range_rate_rejected() {
        let _ = FaultPlan::new(0).with_drop_rate(1.5);
    }

    #[test]
    #[should_panic(expected = "drop + corrupt")]
    fn overlapping_rates_rejected() {
        let _ = FaultPlan::new(0).with_drop_rate(0.7).with_corrupt_rate(0.5);
    }

    #[test]
    #[should_panic(expected = "death time")]
    fn negative_death_time_rejected() {
        let _ = FaultPlan::new(0).with_death(0, -1.0);
    }

    #[test]
    fn check_reports_out_of_range_rate() {
        let faults = LinkFaults {
            corrupt: 1.5,
            ..LinkFaults::default()
        };
        assert_eq!(
            faults.check(),
            Err(FaultPlanError::RateOutOfRange {
                name: "corrupt",
                value: 1.5
            })
        );
        let msg = faults.check().unwrap_err().to_string();
        assert!(msg.contains("must lie in [0, 1]"), "{msg}");
    }

    #[test]
    fn check_reports_overlapping_rates() {
        let faults = LinkFaults {
            drop: 0.7,
            corrupt: 0.5,
        };
        assert_eq!(
            faults.check(),
            Err(FaultPlanError::OverlappingRates {
                drop: 0.7,
                corrupt: 0.5
            })
        );
    }

    #[test]
    fn validate_accepts_well_formed_plans() {
        let plan = FaultPlan::new(9)
            .with_drop_rate(0.4)
            .with_corrupt_rate(0.3)
            .with_death(3, 10.0)
            .with_max_attempts(4);
        assert_eq!(plan.validate(), Ok(()));
    }

    #[test]
    fn validate_catches_violations_planted_past_the_builders() {
        // The builders panic on these, so plant the violations directly
        // (same-module access) to prove `validate` re-derives them.
        let mut plan = FaultPlan::new(0);
        plan.default_link.drop = -0.1;
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::RateOutOfRange { name: "drop", .. })
        ));

        let mut plan = FaultPlan::new(0);
        plan.links.insert(
            (1, 2),
            LinkFaults {
                drop: 0.0,
                corrupt: 1.5,
            },
        );
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::RateOutOfRange { name: "corrupt", value }) if value == 1.5
        ));

        let mut plan = FaultPlan::new(0);
        plan.deaths.insert(5, f64::NAN);
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::InvalidDeathTime { rank: 5, .. })
        ));

        let mut plan = FaultPlan::new(0);
        plan.max_attempts = 0;
        assert_eq!(plan.validate(), Err(FaultPlanError::ZeroAttempts));

        let mut plan = FaultPlan::new(0);
        plan.detection = Some(Detection {
            period: f64::NAN,
            timeout_multiple: 3,
        });
        assert!(matches!(
            plan.validate(),
            Err(FaultPlanError::InvalidDetection {
                timeout_multiple: 3,
                ..
            })
        ));
    }

    #[test]
    fn builder_panics_and_error_display_agree() {
        let err = std::panic::catch_unwind(|| {
            let _ = FaultPlan::new(0).with_death(7, f64::NAN);
        })
        .unwrap_err();
        let msg = err.downcast_ref::<String>().expect("string panic payload");
        assert_eq!(
            *msg,
            FaultPlanError::InvalidDeathTime {
                rank: 7,
                t: f64::NAN
            }
            .to_string()
        );
    }
}
