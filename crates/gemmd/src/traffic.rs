//! Open-loop traffic generation for the online service.
//!
//! [`crate::workload`] draws a flat Poisson stream; real service
//! traffic from millions of independent users is nothing like flat.
//! This module layers the three phenomena that actually shape tail
//! latency on top of the same deterministic machinery:
//!
//! * **heavy-tailed size mixes** — most requests are tiny, a few are
//!   enormous ([`heavy_tailed_mix`] puts Zipf-style `n^{-α}` weights
//!   on a size ladder);
//! * **diurnal rate curves** — the arrival rate swells and ebbs on a
//!   fixed period ([`Diurnal`]), so the service sees both slack and
//!   rush hours inside one trace;
//! * **burst episodes** — seeded on/off episodes ([`Bursts`])
//!   multiply the instantaneous rate, modelling flash crowds.
//!
//! Arrivals are **open-loop**: timestamps are a pure function of the
//! spec and seed, fixed before the service runs and independent of its
//! progress — when the offered rate exceeds capacity, queues genuinely
//! build instead of the workload politely slowing down.  Generation
//! uses Lewis–Shedler thinning of a homogeneous Poisson process at the
//! peak rate, driven by [`detrng::SplitMix64`], so a trace is
//! byte-identical across runs and platforms for a fixed seed
//! (test-pinned in `crates/gemmd/tests/online.rs`).

use detrng::SplitMix64;

use crate::job::JobSpec;
use crate::workload::WorkloadError;

/// Sinusoidal arrival-rate modulation: the instantaneous rate is
/// `base · (1 + amplitude · sin(2πt / period))`, one full swell per
/// `period` of virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Diurnal {
    /// Length of one day on the virtual clock.
    pub period: f64,
    /// Peak-to-mean rate swing in `[0, 1)`: 0.5 means rush hour runs
    /// at 1.5× the base rate and the trough at 0.5×.
    pub amplitude: f64,
}

/// Seeded on/off burst episodes: while an episode is on, the
/// instantaneous arrival rate is multiplied by `multiplier`.  Episode
/// lengths are exponential with means `mean_on` / `mean_off`, drawn
/// from a dedicated stream of the trace seed so bursts land at the
/// same virtual times on every run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bursts {
    /// Rate multiplier while a burst is on (> 1 intensifies).
    pub multiplier: f64,
    /// Mean burst length in virtual time.
    pub mean_on: f64,
    /// Mean quiet gap between bursts in virtual time.
    pub mean_off: f64,
}

/// An open-loop traffic specification: `jobs` arrivals at a base rate
/// of `1 / mean_interarrival`, modulated by the optional diurnal curve
/// and burst process, sizes drawn from the weighted `mix`.
#[derive(Debug, Clone, PartialEq)]
pub struct Traffic {
    /// Number of jobs to generate.
    pub jobs: usize,
    /// Mean interarrival gap at the *base* rate (flat-load equivalent).
    pub mean_interarrival: f64,
    /// Weighted size mix (see [`heavy_tailed_mix`] for the power-law
    /// construction); weights need not sum to 1.
    pub mix: Vec<(usize, f64)>,
    /// Optional diurnal rate curve.
    pub diurnal: Option<Diurnal>,
    /// Optional burst process.
    pub bursts: Option<Bursts>,
    /// Highest priority (exclusive) to draw uniformly; 1 keeps every
    /// job at priority 0.
    pub priority_levels: u8,
    /// Deadline slack: `Some(s)` stamps every job with the deadline
    /// `arrival + s · n³` (s times its serial time), the deadline the
    /// EDF policy schedules against; `None` leaves jobs deadline-free.
    pub deadline_slack: Option<f64>,
    /// Master seed; also salts every per-job operand seed.
    pub seed: u64,
}

/// A structurally invalid traffic specification.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// The underlying workload parameters (gap / mix) were invalid.
    Workload(WorkloadError),
    /// Diurnal amplitude outside `[0, 1)` would drive the rate negative
    /// (or never let it trough).
    BadDiurnal {
        /// The offending amplitude.
        amplitude: f64,
    },
    /// Burst parameters must have `multiplier ≥ 1` and positive finite
    /// episode means.
    BadBursts {
        /// The offending burst spec.
        bursts: Bursts,
    },
}

impl std::fmt::Display for TrafficError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TrafficError::Workload(e) => write!(f, "{e}"),
            TrafficError::BadDiurnal { amplitude } => {
                write!(f, "diurnal amplitude must lie in [0, 1), got {amplitude}")
            }
            TrafficError::BadBursts { bursts } => write!(
                f,
                "bursts need multiplier ≥ 1 and positive finite means, got \
                 multiplier = {}, mean_on = {}, mean_off = {}",
                bursts.multiplier, bursts.mean_on, bursts.mean_off
            ),
        }
    }
}

impl std::error::Error for TrafficError {}

impl From<WorkloadError> for TrafficError {
    fn from(e: WorkloadError) -> Self {
        TrafficError::Workload(e)
    }
}

/// Zipf-style weights over a size ladder: entry `n` gets weight
/// `(n / n_min)^{-alpha}`, so with `alpha ≈ 1.5` the smallest size
/// dominates the count while the largest still dominates the work —
/// the shape of real small-GEMM service traffic.
///
/// # Panics
/// Panics on an empty ladder or a size of zero (the resulting mix
/// would be rejected by [`Traffic::new`] anyway).
#[must_use]
pub fn heavy_tailed_mix(sizes: &[usize], alpha: f64) -> Vec<(usize, f64)> {
    assert!(!sizes.is_empty(), "size ladder cannot be empty");
    let n_min = *sizes.iter().min().expect("non-empty ladder") as f64;
    assert!(n_min > 0.0, "sizes must be positive");
    sizes
        .iter()
        .map(|&n| (n, (n as f64 / n_min).powf(-alpha)))
        .collect()
}

impl Traffic {
    /// A validated open-loop spec with no modulation (equivalent to
    /// [`crate::Workload::poisson`] plus the structured validation).
    ///
    /// # Errors
    /// [`TrafficError`] naming the first violated rule.
    pub fn new(
        jobs: usize,
        mean_interarrival: f64,
        mix: &[(usize, f64)],
        seed: u64,
    ) -> Result<Self, TrafficError> {
        // Reuse the workload validator for the shared parameters.
        crate::Workload::try_poisson(jobs, mean_interarrival, mix, seed)?;
        Ok(Self {
            jobs,
            mean_interarrival,
            mix: mix.to_vec(),
            diurnal: None,
            bursts: None,
            priority_levels: 4,
            deadline_slack: None,
            seed,
        })
    }

    /// Builder-style: add a diurnal rate curve.
    ///
    /// # Errors
    /// [`TrafficError::BadDiurnal`] when the amplitude leaves `[0, 1)`
    /// or the period is not positive.
    pub fn with_diurnal(mut self, period: f64, amplitude: f64) -> Result<Self, TrafficError> {
        let period_ok = period > 0.0 && period.is_finite();
        if !(0.0..1.0).contains(&amplitude) || !period_ok {
            return Err(TrafficError::BadDiurnal { amplitude });
        }
        self.diurnal = Some(Diurnal { period, amplitude });
        Ok(self)
    }

    /// Builder-style: add a burst process.
    ///
    /// # Errors
    /// [`TrafficError::BadBursts`] on a multiplier below 1 or
    /// non-positive episode means.
    pub fn with_bursts(
        mut self,
        multiplier: f64,
        mean_on: f64,
        mean_off: f64,
    ) -> Result<Self, TrafficError> {
        let bursts = Bursts {
            multiplier,
            mean_on,
            mean_off,
        };
        let ok = multiplier >= 1.0
            && multiplier.is_finite()
            && mean_on > 0.0
            && mean_on.is_finite()
            && mean_off > 0.0
            && mean_off.is_finite();
        if !ok {
            return Err(TrafficError::BadBursts { bursts });
        }
        self.bursts = Some(bursts);
        Ok(self)
    }

    /// Builder-style: stamp every job with an EDF deadline at `slack`
    /// times its serial time past arrival.
    #[must_use]
    pub fn with_deadline_slack(mut self, slack: f64) -> Self {
        self.deadline_slack = Some(slack);
        self
    }

    /// The peak instantaneous rate the thinning envelope must cover.
    fn peak_rate(&self) -> f64 {
        let base = 1.0 / self.mean_interarrival;
        let diurnal = 1.0 + self.diurnal.map_or(0.0, |d| d.amplitude);
        let burst = self.bursts.map_or(1.0, |b| b.multiplier);
        base * diurnal * burst
    }

    /// The instantaneous rate at virtual time `t`, given whether a
    /// burst episode is on.
    fn rate_at(&self, t: f64, burst_on: bool) -> f64 {
        let base = 1.0 / self.mean_interarrival;
        let diurnal = self.diurnal.map_or(1.0, |d| {
            1.0 + d.amplitude * (2.0 * std::f64::consts::PI * t / d.period).sin()
        });
        let burst = if burst_on {
            self.bursts.map_or(1.0, |b| b.multiplier)
        } else {
            1.0
        };
        base * diurnal * burst
    }

    /// Generate the trace, sorted by arrival.  A pure function of the
    /// spec: identical specs produce byte-identical traces on every
    /// platform.
    #[must_use]
    pub fn generate(&self) -> Vec<JobSpec> {
        // Independent deterministic streams for the three decisions, so
        // adding modulation never perturbs the other draws' alignment.
        let mut arrivals = SplitMix64::new(detrng::mix(&[self.seed, 0xA221]));
        let mut marks = SplitMix64::new(detrng::mix(&[self.seed, 0x517E]));
        let mut episodes = BurstSchedule::new(self.bursts, self.seed);
        let total_weight: f64 = self.mix.iter().map(|&(_, w)| w).sum();
        let peak = self.peak_rate();
        let mut now = 0.0f64;
        let mut out = Vec::with_capacity(self.jobs);
        while out.len() < self.jobs {
            // Lewis–Shedler thinning: candidate arrivals from the
            // homogeneous peak-rate process, kept with probability
            // rate(t) / peak.
            now += -(1.0 / peak) * (1.0 - arrivals.next_f64()).ln();
            let burst_on = episodes.on_at(now);
            if arrivals.next_f64() * peak > self.rate_at(now, burst_on) {
                continue;
            }
            let mut pick = marks.next_f64() * total_weight;
            let n = self
                .mix
                .iter()
                .find(|&&(_, w)| {
                    pick -= w;
                    pick < 0.0
                })
                .map_or(self.mix[self.mix.len() - 1].0, |&(n, _)| n);
            let priority = (marks.next_u64() % u64::from(self.priority_levels.max(1))) as u8;
            let i = out.len() as u64;
            let seed = detrng::mix(&[self.seed, i]);
            out.push(JobSpec {
                n,
                arrival: now,
                priority,
                seed,
                deadline: self.deadline_slack.map(|s| now + s * (n as f64).powi(3)),
            });
        }
        out
    }
}

/// Lazily-extended alternating off/on episode schedule, a pure
/// function of `(bursts, seed)`.  `on_at` is queried at monotonically
/// increasing times by the generator, but re-querying an earlier time
/// stays correct because the boundary list is retained.
struct BurstSchedule {
    bursts: Option<Bursts>,
    rng: SplitMix64,
    /// Episode boundaries: the stream starts *off* at `t = 0`, and
    /// `boundaries[i]` is the time of the i-th toggle (off→on for even
    /// `i`, on→off for odd `i`).
    boundaries: Vec<f64>,
}

impl BurstSchedule {
    fn new(bursts: Option<Bursts>, seed: u64) -> Self {
        Self {
            bursts,
            rng: SplitMix64::new(detrng::mix(&[seed, 0xB1257])),
            boundaries: Vec::new(),
        }
    }

    fn on_at(&mut self, t: f64) -> bool {
        let Some(b) = self.bursts else {
            return false;
        };
        while self.boundaries.last().copied().unwrap_or(0.0) <= t {
            let off_phase = self.boundaries.len().is_multiple_of(2);
            let mean = if off_phase { b.mean_off } else { b.mean_on };
            let gap = -mean * (1.0 - self.rng.next_f64()).ln();
            let last = self.boundaries.last().copied().unwrap_or(0.0);
            self.boundaries.push(last + gap);
        }
        // Number of boundaries at or before t: odd ⇒ inside an episode.
        let toggles = self.boundaries.partition_point(|&x| x <= t);
        toggles % 2 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Traffic {
        Traffic::new(200, 1_000.0, &heavy_tailed_mix(&[8, 16, 32, 64], 1.5), 42).unwrap()
    }

    #[test]
    fn generation_is_deterministic_and_seed_sensitive() {
        let t = base();
        assert_eq!(t.generate(), t.generate());
        let mut other = base();
        other.seed = 43;
        assert_ne!(t.generate(), other.generate());
    }

    #[test]
    fn arrivals_are_sorted_and_sizes_come_from_the_ladder() {
        let jobs = base().generate();
        assert_eq!(jobs.len(), 200);
        for w in jobs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
        assert!(jobs.iter().all(|j| [8, 16, 32, 64].contains(&j.n)));
    }

    #[test]
    fn heavy_tail_puts_most_jobs_at_the_small_end() {
        let jobs = base().generate();
        let small = jobs.iter().filter(|j| j.n == 8).count();
        let large = jobs.iter().filter(|j| j.n == 64).count();
        assert!(
            small > jobs.len() / 3 && small > 4 * large.max(1),
            "tail shape off: {small} small vs {large} large of {}",
            jobs.len()
        );
    }

    #[test]
    fn flat_traffic_tracks_the_base_rate() {
        let jobs = base().generate();
        let measured = jobs.last().unwrap().arrival / jobs.len() as f64;
        assert!(
            (measured / 1_000.0 - 1.0).abs() < 0.25,
            "measured mean gap {measured:.0} too far from 1000"
        );
    }

    #[test]
    fn diurnal_peak_hours_arrive_faster_than_troughs() {
        let period = 50_000.0;
        let t = Traffic::new(400, 250.0, &[(8, 1.0)], 7)
            .unwrap()
            .with_diurnal(period, 0.8)
            .unwrap();
        let jobs = t.generate();
        // First half of each day is the swell (sin > 0), second the ebb.
        let (mut peak, mut trough) = (0usize, 0usize);
        for j in &jobs {
            if (j.arrival % period) < period / 2.0 {
                peak += 1;
            } else {
                trough += 1;
            }
        }
        assert!(
            peak as f64 > 1.5 * trough as f64,
            "diurnal shape missing: {peak} peak vs {trough} trough arrivals"
        );
    }

    #[test]
    fn bursts_concentrate_arrivals() {
        let t = Traffic::new(300, 1_000.0, &[(8, 1.0)], 11)
            .unwrap()
            .with_bursts(8.0, 5_000.0, 20_000.0)
            .unwrap();
        let jobs = t.generate();
        // Burstiness shows up as a fat lower tail of interarrival gaps:
        // the median gap is far below the mean.
        let mut gaps: Vec<f64> = jobs
            .windows(2)
            .map(|w| w[1].arrival - w[0].arrival)
            .collect();
        gaps.sort_by(f64::total_cmp);
        let median = gaps[gaps.len() / 2];
        let mean = jobs.last().unwrap().arrival / jobs.len() as f64;
        assert!(
            median < 0.6 * mean,
            "no burst clustering: median gap {median:.0} vs mean {mean:.0}"
        );
    }

    #[test]
    fn deadline_slack_stamps_edf_deadlines() {
        let jobs = base().with_deadline_slack(3.0).generate();
        for j in &jobs {
            assert_eq!(j.deadline, Some(j.arrival + 3.0 * (j.n as f64).powi(3)));
        }
    }

    #[test]
    fn invalid_specs_are_structured_errors() {
        assert!(matches!(
            Traffic::new(10, 0.0, &[(8, 1.0)], 0),
            Err(TrafficError::Workload(
                WorkloadError::NonPositiveInterarrival { .. }
            ))
        ));
        assert!(matches!(
            Traffic::new(10, 100.0, &[], 0),
            Err(TrafficError::Workload(WorkloadError::EmptyMix))
        ));
        assert!(matches!(
            base().with_diurnal(50_000.0, 1.0),
            Err(TrafficError::BadDiurnal { .. })
        ));
        assert!(matches!(
            base().with_diurnal(0.0, 0.5),
            Err(TrafficError::BadDiurnal { .. })
        ));
        assert!(matches!(
            base().with_bursts(0.5, 100.0, 100.0),
            Err(TrafficError::BadBursts { .. })
        ));
        assert!(matches!(
            base().with_bursts(4.0, 0.0, 100.0),
            Err(TrafficError::BadBursts { .. })
        ));
        // Errors render.
        let msg = Traffic::new(10, -1.0, &[(8, 1.0)], 0)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("positive"), "message: {msg}");
    }

    #[test]
    fn burst_schedule_alternates_deterministically() {
        let b = Bursts {
            multiplier: 4.0,
            mean_on: 100.0,
            mean_off: 300.0,
        };
        let mut s1 = BurstSchedule::new(Some(b), 9);
        let mut s2 = BurstSchedule::new(Some(b), 9);
        let probes: Vec<f64> = (0..200).map(|i| i as f64 * 37.0).collect();
        let a: Vec<bool> = probes.iter().map(|&t| s1.on_at(t)).collect();
        let c: Vec<bool> = probes.iter().map(|&t| s2.on_at(t)).collect();
        assert_eq!(a, c);
        assert!(a.iter().any(|&x| x), "some probe must land inside a burst");
        assert!(!a[0], "the stream starts off");
        // And no bursts means never on.
        let mut none = BurstSchedule::new(None, 9);
        assert!(!none.on_at(1.0e9));
    }
}
