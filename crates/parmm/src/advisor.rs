//! The §10 "smart preprocessor": pick the best algorithm for a machine,
//! problem size and processor count.
//!
//! "It may be unreasonable to expect a programmer to code different
//! algorithms for different machines ... But all the algorithms can
//! \[be\] stored in a library and the best algorithm can be pulled out by
//! a smart preprocessor/compiler depending on the various parameters."
//! — paper §10.  This module is that preprocessor.

use algos::{AlgoError, SimOutcome};
use dense::Matrix;
use mmsim::{Machine, Plain, Reliable, TopologyKind, Transport};
use model::time::{parallel_time_on, NetworkModel};
use model::{Algorithm, DetectionParams, FaultRates, MachineParams};

/// The advisor's verdict for one `(n, p)` query.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The winning algorithm.
    pub algorithm: Algorithm,
    /// Its predicted parallel time (units of one multiply–add).
    pub predicted_time: f64,
    /// Its predicted efficiency.
    pub predicted_efficiency: f64,
    /// Every candidate that was applicable, best first, with predicted
    /// times.
    pub ranking: Vec<(Algorithm, f64)>,
    /// Whether the advisor priced (and [`run_recommendation`] will run)
    /// the reliable-transport variant: set when the machine's fault
    /// rates make plain sends unsafe.
    pub resilient: bool,
}

/// Algorithm selector for a fixed machine.
///
/// ```
/// use parmm::Advisor;
/// use model::{Algorithm, MachineParams};
///
/// let advisor = Advisor::new(MachineParams::ncube2());
/// // Large matrix, few processors: Berntsen's algorithm (Figure 1's b region).
/// assert_eq!(advisor.recommend(4096, 512).unwrap().algorithm, Algorithm::Berntsen);
/// // Many processors relative to n: the GK algorithm (the a region).
/// assert_eq!(advisor.recommend(64, 16_384).unwrap().algorithm, Algorithm::Gk);
/// // Beyond n³ processors nothing applies.
/// assert!(advisor.recommend(4, 128).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct Advisor {
    machine: MachineParams,
    candidates: Vec<Algorithm>,
    network: NetworkModel,
}

impl Advisor {
    /// An advisor over the paper's four head-to-head algorithms
    /// (Berntsen, Cannon, GK, DNS).
    #[must_use]
    pub fn new(machine: MachineParams) -> Self {
        Self {
            machine,
            candidates: Algorithm::COMPARED.to_vec(),
            network: NetworkModel::Hypercube,
        }
    }

    /// The advisor for a simulated machine: the paper's four
    /// head-to-head candidates, priced with the machine's own cost
    /// model, its network kind (fully connected networks, and the fat
    /// tree the paper models as one, follow the Eq. (18) GK time;
    /// everything else the hypercube equations) and its fault plan —
    /// the default-link loss rates ([`fault_rates_of`]), so a lossy
    /// machine gets the resilient variants, and the detection config
    /// ([`detection_of`]), whose heartbeat duty cycle enters every
    /// prediction and which forces the resilient candidates, as the
    /// simulator charges it.  Per-link period overrides reach the
    /// analytic machine as its tightest period: the busiest detector
    /// link bounds the duty cycle.
    #[must_use]
    pub fn for_machine(machine: &Machine) -> Self {
        let cm = machine.cost_model();
        let network = match machine.topology().kind() {
            TopologyKind::FullyConnected | TopologyKind::FatTree => NetworkModel::FullyConnected,
            _ => NetworkModel::Hypercube,
        };
        let mut params = MachineParams::new(cm.t_s, cm.t_w).with_faults(fault_rates_of(machine));
        if let Some(det) = detection_of(machine) {
            params = params.with_detection(det.period, det.timeout_multiple);
            if let Some(lp) = det.link_period {
                params = params.with_link_detection_period(lp);
            }
        }
        Self::new(params).with_network(network)
    }

    /// An advisor for the paper's §9 CM-5 setting: fully connected
    /// network (GK follows Eq. 18) and the GK-vs-Cannon candidate pair
    /// the experiments compare.
    #[must_use]
    pub fn for_cm5() -> Self {
        Self {
            machine: MachineParams::cm5(),
            candidates: vec![Algorithm::Gk, Algorithm::Cannon],
            network: NetworkModel::FullyConnected,
        }
    }

    /// Builder-style: switch the network model (Eq. 7 vs Eq. 18 for the
    /// GK spread).
    #[must_use]
    pub fn with_network(mut self, network: NetworkModel) -> Self {
        self.network = network;
        self
    }

    /// Builder-style: swap the analytic machine (e.g. to attach fault
    /// rates via [`MachineParams::with_faults`]) while keeping the
    /// candidate set and network model.
    #[must_use]
    pub fn with_machine(mut self, machine: MachineParams) -> Self {
        self.machine = machine;
        self
    }

    /// An advisor over a custom candidate set.
    ///
    /// # Panics
    /// Panics if `candidates` is empty.
    #[must_use]
    pub fn with_candidates(machine: MachineParams, candidates: Vec<Algorithm>) -> Self {
        assert!(
            !candidates.is_empty(),
            "advisor needs at least one candidate"
        );
        Self {
            machine,
            candidates,
            network: NetworkModel::Hypercube,
        }
    }

    /// The machine this advisor models.
    #[must_use]
    pub fn machine(&self) -> MachineParams {
        self.machine
    }

    /// The parameters the rankings are computed with, and whether they
    /// are the reliable-transport effective constants: on a lossy
    /// machine every message must ride the reliable protocol, so the
    /// advisor prices framing, acknowledgements and expected
    /// retransmissions via [`MachineParams::reliable_effective`].  A
    /// [`model::DetectionParams`] config likewise forces the resilient
    /// path, and its heartbeat duty cycle joins the effective constants
    /// through the same transform.
    fn pricing(&self) -> (MachineParams, bool) {
        if self.machine.faults.is_lossy() || self.machine.detection.is_some() {
            (self.machine.reliable_effective(), true)
        } else {
            (self.machine, false)
        }
    }

    fn rank(&self, n: usize, p: usize, executable_only: bool) -> Option<Recommendation> {
        let (params, resilient) = self.pricing();
        let (nf, pf) = (n as f64, p as f64);
        let mut ranking: Vec<(Algorithm, f64)> = self
            .candidates
            .iter()
            .filter(|&&alg| {
                if executable_only {
                    executable_applicability(alg, n, p).is_ok()
                } else {
                    alg.applicable(nf, pf)
                }
            })
            .map(|&alg| (alg, parallel_time_on(alg, nf, pf, params, self.network)))
            .collect();
        ranking.sort_by(|a, b| a.1.total_cmp(&b.1));
        let &(algorithm, predicted_time) = ranking.first()?;
        Some(Recommendation {
            algorithm,
            predicted_time,
            predicted_efficiency: nf.powi(3) / (pf * predicted_time),
            ranking,
            resilient,
        })
    }

    /// Rank all applicable candidates at `(n, p)` by predicted parallel
    /// time; `None` if nothing is applicable (`p > n³`).
    ///
    /// On a lossy machine (nonzero [`MachineParams::faults`]) the
    /// predictions use the reliable-transport effective constants; every
    /// candidate has a reliable form ([`run_on`]), so the verdict stays
    /// actionable.
    #[must_use]
    pub fn recommend(&self, n: usize, p: usize) -> Option<Recommendation> {
        self.rank(n, p, false)
    }

    /// Like [`Advisor::recommend`], but restricted to candidates whose
    /// *executable* implementation accepts this exact `(n, p)`
    /// (divisibility, power-of-two structure, …), so the result can be
    /// run directly with [`Advisor::execute`].
    #[must_use]
    pub fn recommend_executable(&self, n: usize, p: usize) -> Option<Recommendation> {
        self.rank(n, p, true)
    }

    /// Recommend and immediately run the winner on a simulated machine.
    ///
    /// # Errors
    /// Returns an error if no candidate's executable form accepts
    /// `(n, p)`, or if the simulation itself rejects the inputs.
    pub fn execute(
        &self,
        machine: &Machine,
        a: &Matrix,
        b: &Matrix,
    ) -> Result<(Recommendation, SimOutcome), AlgoError> {
        let n = a.rows();
        let rec =
            self.recommend_executable(n, machine.p())
                .ok_or(AlgoError::BadProcessorCount {
                    p: machine.p(),
                    requirement: "no candidate algorithm accepts this (n, p)".into(),
                })?;
        let out = run_recommendation(&rec, machine, a, b)?;
        Ok((rec, out))
    }
}

/// The analytic fault rates implied by a simulated machine's fault
/// plan: the default-link drop/corrupt probabilities, or
/// [`FaultRates::ZERO`] when the machine carries no plan.  Per-link
/// overrides are deliberately ignored — the analytic layer models one
/// homogeneous interconnect.
#[must_use]
pub fn fault_rates_of(machine: &Machine) -> FaultRates {
    machine.fault_plan().map_or(FaultRates::ZERO, |plan| {
        let link = plan.default_link();
        FaultRates::new(link.drop, link.corrupt)
    })
}

/// The analytic detection parameters implied by a simulated machine's
/// fault plan: the base heartbeat period and timeout multiple, with the
/// tightest per-link override folded in via
/// [`DetectionParams::with_link_period`] so the advisor prices the
/// busiest detector link.  `None` when the machine carries no plan or
/// the plan has no detection config.
#[must_use]
pub fn detection_of(machine: &Machine) -> Option<DetectionParams> {
    let plan = machine.fault_plan()?;
    let det = plan.detection()?;
    let params = DetectionParams::new(det.period, det.timeout_multiple);
    match plan.min_detection_period() {
        Some(min) if min < det.period => Some(params.with_link_period(min)),
        _ => Some(params),
    }
}

/// A formulation's exact-executability check.
type Applicability = fn(usize, usize) -> Result<(), AlgoError>;

/// A formulation's schedule over one transport.
type Schedule = fn(&Machine, &Matrix, &Matrix) -> Result<SimOutcome, AlgoError>;

/// Each formulation's applicability check and its schedule over
/// transport `X`: the one map from an [`Algorithm`] into `algos`.
fn formulation<X: Transport>(alg: Algorithm) -> (Applicability, Schedule) {
    use algos::{berntsen, cannon, dns, fox, gk, simple};
    match alg {
        Algorithm::Simple => (
            |n, p| simple::applicability(n, p).map(drop),
            simple::simple_on::<X>,
        ),
        Algorithm::Cannon => (
            |n, p| cannon::applicability(n, p).map(drop),
            cannon::cannon_on::<X>,
        ),
        Algorithm::FoxHypercube => (
            |n, p| fox::applicability(n, p).map(drop),
            fox::fox_tree_on::<X>,
        ),
        Algorithm::FoxPipelined => (
            |n, p| fox::applicability(n, p).map(drop),
            |machine, a, b| {
                let packets = fox::default_packets(a.rows(), machine.p());
                fox::fox_pipelined_on::<X>(machine, a, b, packets)
            },
        ),
        Algorithm::Berntsen => (
            |n, p| berntsen::applicability(n, p).map(drop),
            berntsen::berntsen_on::<X>,
        ),
        Algorithm::Dns => (
            |n, p| dns::applicability(n, p).map(drop),
            dns::dns_block_on::<X>,
        ),
        Algorithm::Gk => (|n, p| gk::applicability(n, p).map(drop), gk::gk_on::<X>),
        Algorithm::GkImproved => (
            |n, p| gk::improved_applicability(n, p).map(drop),
            gk::gk_improved_on::<X>,
        ),
    }
}

/// Exact-executability check for one algorithm (delegates to the
/// `algos` crate's per-algorithm rules).
///
/// # Errors
/// Returns the executable implementation's [`AlgoError`].
pub fn executable_applicability(alg: Algorithm, n: usize, p: usize) -> Result<(), AlgoError> {
    let (applicability, _) = formulation::<Plain>(alg);
    applicability(n, p)
}

/// Run one algorithm's schedule over transport `X`: the one dispatch
/// from an [`Algorithm`] to its `algos` schedule.  Pipelined Fox runs
/// with [`algos::fox::default_packets`].
///
/// # Errors
/// Propagates the schedule's [`AlgoError`].
pub fn run_on<X: Transport>(
    alg: Algorithm,
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<SimOutcome, AlgoError> {
    let (_, schedule) = formulation::<X>(alg);
    schedule(machine, a, b)
}

/// Run one algorithm's plain (unprotected) form: [`run_on`] over
/// [`Plain`].
///
/// # Errors
/// Propagates the implementation's [`AlgoError`].
pub fn run_algorithm(
    alg: Algorithm,
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<SimOutcome, AlgoError> {
    run_on::<Plain>(alg, machine, a, b)
}

/// Run a recommendation the way the advisor priced it: over the
/// reliable transport when the verdict was computed for a lossy
/// machine, over the plain one otherwise.
///
/// # Errors
/// Propagates the implementation's [`AlgoError`].
pub fn run_recommendation(
    rec: &Recommendation,
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<SimOutcome, AlgoError> {
    if rec.resilient {
        run_on::<Reliable>(rec.algorithm, machine, a, b)
    } else {
        run_on::<Plain>(rec.algorithm, machine, a, b)
    }
}

#[cfg(test)]
mod tests {
    use mmsim::{CostModel, Topology};

    use super::*;

    #[test]
    fn recommends_gk_for_small_matrices_on_cm5() {
        // §9: below the crossover (n ≈ 83 at p = 64) GK wins over
        // Cannon on the CM-5.
        let advisor = Advisor::for_cm5();
        let rec = advisor.recommend(48, 64).unwrap();
        assert_eq!(rec.algorithm, Algorithm::Gk);
        // Above the crossover Cannon takes over.
        let rec = advisor.recommend(160, 64).unwrap();
        assert_eq!(rec.algorithm, Algorithm::Cannon);
    }

    #[test]
    fn recommends_berntsen_for_big_matrices_on_ncube2() {
        // Figure 1's b region: p < n^{3/2} on the high-startup machine.
        let advisor = Advisor::new(MachineParams::ncube2());
        let rec = advisor.recommend(4096, 512).unwrap();
        assert_eq!(rec.algorithm, Algorithm::Berntsen);
    }

    #[test]
    fn nothing_applicable_beyond_n_cubed() {
        let advisor = Advisor::new(MachineParams::ncube2());
        assert!(advisor.recommend(4, 65).is_none());
    }

    #[test]
    fn ranking_is_sorted_and_complete() {
        let advisor = Advisor::new(MachineParams::future_mimd());
        let rec = advisor.recommend(256, 4096).unwrap();
        // p = n²·... check sortedness.
        for w in rec.ranking.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(rec.ranking[0].0, rec.algorithm);
        assert_eq!(rec.predicted_time, rec.ranking[0].1);
    }

    #[test]
    fn recommendation_matches_brute_force() {
        let m = MachineParams::future_mimd();
        let advisor = Advisor::new(m);
        for n in [32usize, 128, 512, 2048] {
            for p in [4usize, 64, 1024, 16384] {
                let rec = advisor.recommend(n, p);
                let brute = Algorithm::COMPARED
                    .iter()
                    .filter(|a| a.applicable(n as f64, p as f64))
                    .map(|&a| {
                        (
                            a,
                            parallel_time_on(a, n as f64, p as f64, m, NetworkModel::Hypercube),
                        )
                    })
                    .min_by(|x, y| x.1.total_cmp(&y.1));
                match (rec, brute) {
                    (Some(r), Some((alg, t))) => {
                        assert_eq!(r.algorithm, alg, "n={n} p={p}");
                        assert!((r.predicted_time - t).abs() < 1e-9);
                    }
                    (None, None) => {}
                    other => panic!("n={n} p={p}: mismatch {other:?}"),
                }
            }
        }
    }

    #[test]
    fn executable_recommendation_respects_divisibility() {
        let advisor = Advisor::new(MachineParams::ncube2());
        // p = 64 works for Cannon (8x8 mesh, 8|n), Berntsen (needs
        // 16|n), GK (4|n).  With n = 20, only Cannon applies among the
        // mesh algorithms... 20 % 8 != 0, so Cannon is out too; GK
        // needs 4|20 ✓.
        let rec = advisor.recommend_executable(20, 64).unwrap();
        assert_eq!(rec.algorithm, Algorithm::Gk);
    }

    #[test]
    fn execute_runs_the_winner_and_verifies() {
        let advisor = Advisor::for_cm5();
        let machine = Machine::new(Topology::fully_connected(64), CostModel::cm5());
        let (a, b) = dense::gen::random_pair(32, 5);
        let (rec, out) = advisor.execute(&machine, &a, &b).unwrap();
        assert_eq!(rec.algorithm, Algorithm::Gk, "small matrix on CM-5 → GK");
        let reference = &a * &b;
        assert!(out.c.approx_eq(&reference, 1e-10));
    }

    #[test]
    fn execute_with_no_candidate_errors() {
        let advisor = Advisor::for_cm5();
        let machine = Machine::new(Topology::fully_connected(63), CostModel::cm5());
        let (a, b) = dense::gen::random_pair(8, 6);
        // p = 63: not a square, not 2^{3q}, not n²r.
        assert!(advisor.execute(&machine, &a, &b).is_err());
    }

    #[test]
    fn custom_candidate_sets() {
        let advisor = Advisor::with_candidates(
            MachineParams::ncube2(),
            vec![Algorithm::Cannon, Algorithm::Simple],
        );
        let rec = advisor.recommend(64, 16).unwrap();
        assert!(matches!(
            rec.algorithm,
            Algorithm::Cannon | Algorithm::Simple
        ));
        assert_eq!(rec.ranking.len(), 2);
    }

    #[test]
    fn predicted_efficiency_consistent() {
        let advisor = Advisor::new(MachineParams::future_mimd());
        let rec = advisor.recommend(512, 256).unwrap();
        let e = 512.0f64.powi(3) / (256.0 * rec.predicted_time);
        assert!((rec.predicted_efficiency - e).abs() < 1e-12);
    }

    #[test]
    fn lossy_machine_flips_the_recommendation() {
        // On the healthy CM-5, n = 96 at p = 64 sits above the §9
        // crossover (n ≈ 83): Cannon wins.
        let healthy = Advisor::for_cm5();
        let rec = healthy.recommend(96, 64).unwrap();
        assert_eq!(rec.algorithm, Algorithm::Cannon);
        assert!(!rec.resilient);

        // The same query on a lossy machine prices the reliable
        // protocol in: startup inflates by a larger factor than
        // bandwidth (acks and framing are per message), the crossover
        // moves up past 96, and GK takes over.
        let lossy = Advisor::for_cm5()
            .with_machine(MachineParams::cm5().with_faults(FaultRates::new(0.3, 0.1)));
        let rec = lossy.recommend(96, 64).unwrap();
        assert_eq!(rec.algorithm, Algorithm::Gk, "loss flips Cannon → GK");
        assert!(rec.resilient);
        // Far above the (shifted) crossover Cannon still wins, so the
        // flip is a crossover shift, not a blanket preference.
        assert_eq!(
            lossy.recommend(512, 64).unwrap().algorithm,
            Algorithm::Cannon
        );
    }

    #[test]
    fn lossy_ncube2_recommends_and_runs_resilient_berntsen() {
        use mmsim::FaultPlan;
        // Figure 1's b region stays Berntsen's under loss: every
        // candidate has a reliable form, so none is filtered out.
        let rates = FaultRates::new(0.1, 0.0);
        let advisor = Advisor::new(MachineParams::ncube2().with_faults(rates));
        let rec = advisor.recommend(4096, 512).unwrap();
        assert_eq!(rec.algorithm, Algorithm::Berntsen);
        assert!(rec.resilient);

        // And `execute` runs it over the reliable transport.
        let healthy = Machine::new(Topology::hypercube_for(8), CostModel::ncube2());
        let lossy = healthy
            .clone()
            .with_fault_plan(FaultPlan::new(13).with_drop_rate(0.1));
        let (a, b) = dense::gen::random_pair(16, 29);
        let (rec, out) = advisor.execute(&lossy, &a, &b).unwrap();
        assert_eq!(rec.algorithm, Algorithm::Berntsen);
        assert!(rec.resilient);
        let retrans: u64 = out.stats.iter().map(|s| s.retransmissions).sum();
        assert!(retrans > 0, "lossy links must force retransmissions");
        assert_eq!(out.c, algos::berntsen(&healthy, &a, &b).unwrap().c);
    }

    #[test]
    fn execute_on_lossy_machine_runs_the_resilient_variant() {
        use mmsim::FaultPlan;
        let machine = Machine::new(Topology::fully_connected(64), CostModel::cm5())
            .with_fault_plan(
                FaultPlan::new(7)
                    .with_drop_rate(0.2)
                    .with_corrupt_rate(0.05),
            );
        let advisor = Advisor::for_cm5()
            .with_machine(MachineParams::cm5().with_faults(fault_rates_of(&machine)));
        let (a, b) = dense::gen::random_pair(32, 11);
        let (rec, out) = advisor.execute(&machine, &a, &b).unwrap();
        assert!(rec.resilient);
        assert!(out.c.approx_eq(&(&a * &b), 1e-10));
        let retrans: u64 = out.stats.iter().map(|s| s.retransmissions).sum();
        assert!(retrans > 0, "lossy links must force retransmissions");
    }

    #[test]
    fn fault_rates_of_mirrors_the_plan_default_link() {
        use mmsim::FaultPlan;
        let clean = Machine::new(Topology::ring(4), CostModel::unit());
        assert_eq!(fault_rates_of(&clean), FaultRates::ZERO);
        let lossy = clean.with_fault_plan(FaultPlan::new(3).with_drop_rate(0.25));
        let rates = fault_rates_of(&lossy);
        assert_eq!(rates.drop, 0.25);
        assert!(rates.is_lossy());
    }

    #[test]
    fn multiply_prices_the_machine_detection_config() {
        // A monitored machine pays its heartbeat duty cycle, so the
        // one-call entry point must pick (and run) the resilient form,
        // exactly as the gemmd scheduler's advisor does on it.
        use mmsim::FaultPlan;
        let machine = Machine::new(Topology::hypercube(4), CostModel::ncube2())
            .with_fault_plan(FaultPlan::new(3).with_detection(5000.0, 2));
        let (a, b) = dense::gen::random_pair(32, 9);
        let (rec, out) = crate::multiply(&machine, &a, &b).unwrap();
        assert!(
            rec.resilient,
            "detection must force the resilient candidates"
        );
        assert!(out.c.approx_eq(&(&a * &b), 1e-10));
    }

    #[test]
    fn total_loss_plan_is_a_structured_error() {
        // `mmsim` accepts `drop + corrupt = 1`; the advisor must price
        // it (infinite expected attempts) and let the run report its
        // exhausted retries, not panic on the rates.
        use mmsim::FaultPlan;
        let machine = Machine::new(Topology::hypercube(2), CostModel::ncube2());
        let (a, b) = dense::gen::random_pair(8, 5);
        for plan in [
            FaultPlan::new(1).with_drop_rate(1.0),
            FaultPlan::new(1).with_drop_rate(0.6).with_corrupt_rate(0.4),
        ] {
            let lossy = machine.clone().with_fault_plan(plan);
            let err = crate::multiply(&lossy, &a, &b).unwrap_err();
            assert!(matches!(err, AlgoError::Sim(_)), "{err:?}");
        }
    }

    #[test]
    fn detection_of_mirrors_the_plan_and_its_tightest_link() {
        use mmsim::FaultPlan;
        let clean = Machine::new(Topology::ring(4), CostModel::unit());
        assert!(detection_of(&clean).is_none());
        let undetected = clean.clone().with_fault_plan(FaultPlan::new(3));
        assert!(detection_of(&undetected).is_none());

        let base = clean
            .clone()
            .with_fault_plan(FaultPlan::new(3).with_detection(48.0, 3));
        let det = detection_of(&base).unwrap();
        assert_eq!(det, DetectionParams::new(48.0, 3));
        assert_eq!(det.tightest_period(), 48.0);

        // A tighter per-link period must reprice the duty cycle; a
        // looser one must not.
        let tight = clean.clone().with_fault_plan(
            FaultPlan::new(3)
                .with_detection(48.0, 3)
                .with_link_detection(1, 12.0)
                .with_link_detection(2, 96.0),
        );
        let det = detection_of(&tight).unwrap();
        assert_eq!(det.tightest_period(), 12.0);
        let loose = clean.with_fault_plan(
            FaultPlan::new(3)
                .with_detection(48.0, 3)
                .with_link_detection(2, 96.0),
        );
        assert_eq!(detection_of(&loose).unwrap().tightest_period(), 48.0);
    }

    #[test]
    fn lossy_dns_regime_routes_to_the_resilient_variant() {
        use mmsim::FaultPlan;
        // p = n²·r with r = 2: only DNS is applicable, so a lossy
        // machine must pick it and run the reliable-transport form.
        let machine = Machine::new(Topology::fully_connected(32), CostModel::cm5())
            .with_fault_plan(FaultPlan::new(19).with_drop_rate(0.2));
        let advisor = Advisor::new(MachineParams::cm5().with_faults(fault_rates_of(&machine)));
        let (a, b) = dense::gen::random_pair(4, 21);
        let (rec, out) = advisor.execute(&machine, &a, &b).unwrap();
        assert_eq!(rec.algorithm, Algorithm::Dns);
        assert!(rec.resilient);
        assert!(out.c.approx_eq(&(&a * &b), 1e-10));
        let retrans: u64 = out.stats.iter().map(|s| s.retransmissions).sum();
        assert!(retrans > 0, "lossy links must force retransmissions");
    }

    #[test]
    fn detection_config_forces_and_prices_the_resilient_path() {
        // Healthy machine + detection: no loss, but heartbeats steal
        // link capacity and every variant must ride the resilient path.
        let free = Advisor::for_cm5();
        let priced =
            Advisor::for_cm5().with_machine(MachineParams::cm5().with_detection(2_000.0, 3));
        let (f, p) = (
            free.recommend(96, 64).unwrap(),
            priced.recommend(96, 64).unwrap(),
        );
        assert!(!f.resilient);
        assert!(p.resilient, "detection alone must force resilient pricing");
        assert!(
            p.predicted_time > f.predicted_time,
            "heartbeat duty cycle must surcharge predictions: {} vs {}",
            p.predicted_time,
            f.predicted_time
        );
    }

    #[test]
    fn resilient_dispatch_covers_both_fox_formulations() {
        use mmsim::FaultPlan;
        let machine = Machine::new(Topology::fully_connected(4), CostModel::cm5())
            .with_fault_plan(FaultPlan::new(23).with_drop_rate(0.15));
        let (a, b) = dense::gen::random_pair(8, 17);
        for alg in [Algorithm::FoxHypercube, Algorithm::FoxPipelined] {
            let rec = Recommendation {
                algorithm: alg,
                predicted_time: 0.0,
                predicted_efficiency: 0.0,
                ranking: vec![(alg, 0.0)],
                resilient: true,
            };
            let out =
                run_recommendation(&rec, &machine, &a, &b).unwrap_or_else(|e| panic!("{alg}: {e}"));
            assert!(out.c.approx_eq(&(&a * &b), 1e-10), "{alg}");
            let retrans: u64 = out.stats.iter().map(|s| s.retransmissions).sum();
            assert!(retrans > 0, "{alg} must ride the reliable transport");
        }
    }

    #[test]
    fn run_recommendation_routes_plain_verdicts_to_plain_impls() {
        let advisor = Advisor::for_cm5();
        let machine = Machine::new(Topology::fully_connected(16), CostModel::cm5());
        let (a, b) = dense::gen::random_pair(16, 3);
        let rec = advisor.recommend_executable(16, 16).unwrap();
        assert!(!rec.resilient);
        let out = run_recommendation(&rec, &machine, &a, &b).unwrap();
        assert!(out.c.approx_eq(&(&a * &b), 1e-10));
        let retrans: u64 = out.stats.iter().map(|s| s.retransmissions).sum();
        assert_eq!(retrans, 0, "plain verdicts must not ride the reliable path");
    }
}
