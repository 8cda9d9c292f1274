//! The five simulator workloads, and the bench-owned Cannon skeleton
//! the traced pass uses to look inside an otherwise opaque run.

use std::sync::Arc;
use std::time::Instant;

use algos::{AlgoError, SimOutcome};
use dense::{gen, kernel, BlockGrid, Matrix};
use mmsim::engine::message::tag;
use mmsim::{CostModel, EngineKind, FaultPlan, Machine, Topology};

use super::{OpFacts, PassWorkload, RunParams};
use crate::digest::Digest;
use crate::span::Tracer;

/// An `algos` entry point, as the workloads call it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Entry {
    /// `algos::cannon`
    Cannon,
    /// `algos::gk`
    Gk,
    /// `algos::fox_tree`
    FoxTree,
    /// `algos::simple`
    Simple,
    /// `algos::cannon_resilient`
    CannonResilient,
    /// `algos::fox_tree_resilient`
    FoxTreeResilient,
    /// `algos::fox_resilient`
    FoxResilient,
    /// `algos::fox_pipelined_resilient` with this many packets
    FoxPipelinedResilient(usize),
    /// `algos::gk_resilient`
    GkResilient,
    /// `algos::dns_resilient`
    DnsResilient,
}

impl Entry {
    /// Span name of a call into this entry point.
    #[must_use]
    pub fn span(self) -> &'static str {
        match self {
            Entry::Cannon => "algos.cannon",
            Entry::Gk => "algos.gk",
            Entry::FoxTree => "algos.fox_tree",
            Entry::Simple => "algos.simple",
            Entry::CannonResilient => "algos.cannon_resilient",
            Entry::FoxTreeResilient => "algos.fox_tree_resilient",
            Entry::FoxResilient => "algos.fox_resilient",
            Entry::FoxPipelinedResilient(_) => "algos.fox_pipelined_resilient",
            Entry::GkResilient => "algos.gk_resilient",
            Entry::DnsResilient => "algos.dns_resilient",
        }
    }

    /// Call the entry point.
    ///
    /// # Errors
    /// Whatever the entry point returns.
    pub fn call(self, m: &Machine, a: &Matrix, b: &Matrix) -> Result<SimOutcome, AlgoError> {
        match self {
            Entry::Cannon => algos::cannon(m, a, b),
            Entry::Gk => algos::gk(m, a, b),
            Entry::FoxTree => algos::fox_tree(m, a, b),
            Entry::Simple => algos::simple(m, a, b),
            Entry::CannonResilient => algos::cannon_resilient(m, a, b),
            Entry::FoxTreeResilient => algos::fox_tree_resilient(m, a, b),
            Entry::FoxResilient => algos::fox_resilient(m, a, b),
            Entry::FoxPipelinedResilient(k) => algos::fox_pipelined_resilient(m, a, b, k),
            Entry::GkResilient => algos::gk_resilient(m, a, b),
            Entry::DnsResilient => algos::dns_resilient(m, a, b),
        }
    }

    /// The implementation's closed-form `T_p`, where `algos` has one.
    fn closed_form(self, n: usize, machine: &Machine) -> Option<f64> {
        let (p, c) = (machine.p(), machine.cost_model());
        match self {
            Entry::Cannon => Some(algos::cannon::predicted_time(n, p, c.t_s, c.t_w)),
            Entry::Gk => Some(algos::gk::eq18_time(n, p, c.t_s, c.t_w)),
            Entry::FoxTree => Some(algos::fox::predicted_time_tree(n, p, c.t_s, c.t_w)),
            Entry::Simple => Some(algos::simple::predicted_time(n, p, c.t_s, c.t_w)),
            _ => None,
        }
    }
}

/// What a product is compared with.
#[derive(Debug, Clone)]
enum Reference {
    /// The serial kernel's product, to rounding.
    Serial(Matrix),
    /// The fault-free parallel product, bit for bit (DNS differs from
    /// the serial product by ULPs, so resilient runs compare here).
    Exact(Arc<Matrix>),
}

/// One op of a sim workload: an entry point on a machine with operands.
#[derive(Debug, Clone)]
pub struct SimPoint {
    /// `cannon/p64/n8` and the like, for failure messages.
    pub label: String,
    /// Entry point.
    pub entry: Entry,
    /// Machine it runs on.
    pub machine: Machine,
    /// Left operand.
    pub a: Arc<Matrix>,
    /// Right operand.
    pub b: Arc<Matrix>,
    reference: Reference,
    closed_form: Option<f64>,
}

/// A fixed list of sim points, run in order each pass.
#[derive(Debug)]
pub struct SimWorkload {
    /// The op list.
    pub points: Vec<SimPoint>,
    /// Digest of operands and fault-plan seeds.
    pub input_digest: u64,
    /// Whether virtual-time facts depend on `--seed`.
    pub seeded_facts: bool,
}

impl PassWorkload for SimWorkload {
    type Out = Result<SimOutcome, AlgoError>;

    fn ops(&self) -> usize {
        self.points.len()
    }

    fn span_name(&self, idx: usize) -> &'static str {
        self.points[idx].entry.span()
    }

    fn run(&mut self, idx: usize) -> Self::Out {
        let pt = &self.points[idx];
        pt.entry.call(&pt.machine, &pt.a, &pt.b)
    }

    fn check(
        &mut self,
        idx: usize,
        out: Self::Out,
        tracer: &mut Tracer,
        op_id: u64,
    ) -> Result<OpFacts, String> {
        let pt = &self.points[idx];
        let out = out.map_err(|e| format!("{}: {e}", pt.label))?;
        tracer.span("algos.verify", op_id, |_| match &pt.reference {
            Reference::Serial(c) => {
                let v = algos::verify_product(&out.c, c, 1e-9);
                v.passed
                    .then_some(())
                    .ok_or_else(|| format!("{}: product {v}", pt.label))
            }
            Reference::Exact(c) => (out.c == **c).then_some(()).ok_or_else(|| {
                format!(
                    "{}: product differs from the fault-free parallel run",
                    pt.label
                )
            }),
        })?;
        Ok(OpFacts {
            virt_time: out.t_parallel,
            msgs: out.total_messages(),
            words: out.total_words(),
            model_err: pt.closed_form.map(|m| (out.t_parallel - m).abs() / m),
        })
    }
}

/// Builds points while recording set-up spans and the input digest.
struct Builder<'t> {
    seed: u64,
    tracer: &'t mut Tracer,
    inputs: Digest,
    points: Vec<SimPoint>,
}

impl<'t> Builder<'t> {
    fn new(seed: u64, tracer: &'t mut Tracer) -> Self {
        Self {
            seed,
            tracer,
            inputs: Digest::default(),
            points: Vec::new(),
        }
    }

    /// The operand pair for size `n`, stream `salt`, from `--seed`.
    fn operands(&mut self, n: usize, salt: u64) -> (Arc<Matrix>, Arc<Matrix>) {
        let seed = detrng::mix(&[self.seed, n as u64, salt]);
        let (a, b) = self
            .tracer
            .span("dense.gen", 0, |_| gen::random_pair(n, seed));
        self.inputs.floats(a.as_slice());
        self.inputs.floats(b.as_slice());
        (Arc::new(a), Arc::new(b))
    }

    /// `engine = None`: whatever `Machine::new` defaults to.
    fn machine(
        &mut self,
        topology: Topology,
        cost: CostModel,
        engine: Option<EngineKind>,
    ) -> Machine {
        self.tracer.span("mmsim.machine.new", 0, |_| {
            let m = Machine::new(topology, cost);
            match engine {
                Some(e) => m.with_engine(e),
                None => m,
            }
        })
    }

    /// A plain point verified against the serial kernel.
    fn plain(&mut self, name: &str, entry: Entry, machine: Machine, n: usize) {
        let (a, b) = self.operands(n, 0);
        let reference = self
            .tracer
            .span("dense.kernel.matmul", 0, |_| kernel::matmul(&a, &b));
        self.points.push(SimPoint {
            label: format!("{name}/p{}/n{n}", machine.p()),
            closed_form: entry.closed_form(n, &machine),
            entry,
            machine,
            a,
            b,
            reference: Reference::Serial(reference),
        });
    }

    fn finish(self, seeded_facts: bool) -> SimWorkload {
        SimWorkload {
            points: self.points,
            input_digest: self.inputs.finish(),
            seeded_facts,
        }
    }
}

/// The Figure 4/5 point set of `engine_perf` as `(entry, p, n)`.
fn fig_points() -> Vec<(Entry, usize, usize)> {
    let mut v: Vec<(Entry, usize, usize)> = Vec::new();
    v.extend((8..=96).step_by(8).map(|n| (Entry::Cannon, 64, n)));
    v.extend((8..=96).step_by(4).map(|n| (Entry::Gk, 64, n)));
    v.extend([8, 16, 24, 32, 40, 48].map(|n| (Entry::Gk, 512, n)));
    v.extend([22, 44].map(|n| (Entry::Cannon, 484, n)));
    v
}

/// `fig_sweep` (`engine = None`: whatever `Machine::new` defaults to)
/// and `fig_sweep_event`.
pub fn fig_sweep(
    params: &RunParams,
    engine: Option<EngineKind>,
    tracer: &mut Tracer,
) -> SimWorkload {
    let mut b = Builder::new(params.seed, tracer);
    let points = if params.smoke {
        vec![
            (Entry::Cannon, 64, 16),
            (Entry::Gk, 64, 16),
            (Entry::Gk, 512, 8),
        ]
    } else {
        fig_points()
    };
    for (entry, p, n) in points {
        let machine = b.machine(Topology::fully_connected(p), CostModel::cm5(), engine);
        let name = if entry == Entry::Cannon {
            "cannon"
        } else {
            "gk"
        };
        b.plain(name, entry, machine, n);
    }
    b.finish(false)
}

/// `scale_4k`: Cannon on a 64 × 64 torus, event engine.
pub fn scale_4k(params: &RunParams, tracer: &mut Tracer) -> SimWorkload {
    let mut b = Builder::new(params.seed, tracer);
    let p = if params.smoke { 1024 } else { 4096 };
    let machine = b.machine(
        Topology::square_torus_for(p),
        CostModel::cm5(),
        Some(EngineKind::Event),
    );
    b.plain("cannon", Entry::Cannon, machine, 64);
    b.finish(false)
}

/// The `kernel_heavy` points: `(name, entry, p, n)`.
const KERNEL_HEAVY: [(&str, Entry, usize, usize); 5] = [
    ("cannon", Entry::Cannon, 16, 512),
    ("fox_tree", Entry::FoxTree, 16, 512),
    ("gk", Entry::Gk, 8, 384),
    ("simple", Entry::Simple, 16, 256),
    ("cannon", Entry::Cannon, 4, 384),
];

/// Floating-point operations (2 per multiply-add) of one full-size
/// `kernel_heavy` pass.
#[must_use]
pub fn kernel_heavy_flops_per_pass() -> f64 {
    KERNEL_HEAVY
        .iter()
        .map(|&(_, _, _, n)| 2.0 * (n as f64).powi(3))
        .sum()
}

/// `kernel_heavy`: large blocks on few ranks, one host thread.
pub fn kernel_heavy(params: &RunParams, tracer: &mut Tracer) -> SimWorkload {
    let mut b = Builder::new(params.seed, tracer);
    let shrink = if params.smoke { 4 } else { 1 };
    let cm5 = CostModel::cm5();
    for (name, entry, p, n) in KERNEL_HEAVY {
        // GK's closed form is the fully connected Eq. (18), so it gets
        // the fully connected machine; the mesh algorithms a torus.
        let topology = if entry == Entry::Gk {
            Topology::fully_connected(p)
        } else {
            Topology::square_torus_for(p)
        };
        let machine = b.machine(topology, cm5, Some(EngineKind::Event));
        b.plain(name, entry, machine, n / shrink);
    }
    b.finish(false)
}

/// Drop rates of the fault rows; corruption rides along at half.
const DROP_RATES: [f64; 3] = [0.0, 0.1, 0.3];
/// Drop rate under the death and detection rows (the `resilience`
/// bin's shape: failover on already-lossy links).
const DEATH_DROP: f64 = 0.05;
/// Retransmission cap.  The engine default (16) leaves a 0.405¹⁶ ≈ 5e-7
/// chance per message of exhausting attempts at drop 0.3, which over
/// the driver's many seeds is a real failed op; 32 makes it 3e-13.
const MAX_ATTEMPTS: u32 = 32;

/// `resilient_faults`: all six resilient entry points under fault
/// plans, spares and detection.
pub fn resilient_faults(params: &RunParams, tracer: &mut Tracer) -> SimWorkload {
    let mut b = Builder::new(params.seed, tracer);
    let cost = CostModel::ncube2();
    // (name, entry for (p, n), [(p, n)]): meshes at p = 16 and 64 with
    // n = 24; GK needs a cube (8, 64); DNS runs at its p = n²·r sizes.
    fn pipelined(p: usize, n: usize) -> Entry {
        // The advisor's default packet count: √(block words).
        let q = (p as f64).sqrt().round() as usize;
        let words = (n / q) * (n / q);
        Entry::FoxPipelinedResilient(((words as f64).sqrt().round() as usize).clamp(1, words))
    }
    type Algorithm = (&'static str, fn(usize, usize) -> Entry, Vec<(usize, usize)>);
    let meshes = vec![(16, 24), (64, 24)];
    let mut algorithms: Vec<Algorithm> = vec![
        ("cannon", |_, _| Entry::CannonResilient, meshes.clone()),
        ("fox_tree", |_, _| Entry::FoxTreeResilient, meshes.clone()),
        ("fox", |_, _| Entry::FoxResilient, meshes.clone()),
        ("fox_pipelined", pipelined, meshes),
        ("gk", |_, _| Entry::GkResilient, vec![(8, 24), (64, 24)]),
        ("dns", |_, _| Entry::DnsResilient, vec![(16, 4), (64, 4)]),
    ];
    if params.smoke {
        algorithms
            .iter_mut()
            .for_each(|(_, _, sizes)| sizes.truncate(1));
    }
    let mut row = 0u64;
    for (name, entry_for, sizes) in &algorithms {
        for (size_idx, &(p, n)) in sizes.iter().enumerate() {
            let entry = entry_for(p, n);
            let (a, bm) = b.operands(n, 1);
            let healthy = b.machine(Topology::hypercube_for(p), cost, None);
            // The fault-free parallel product is the reference for every
            // row of this (algorithm, p); it is itself checked against
            // the serial kernel.
            let fault_free = b
                .tracer
                .span(entry.span(), 0, |_| entry.call(&healthy, &a, &bm))
                .unwrap_or_else(|e| panic!("{name} p={p} n={n} is not admissible: {e}"));
            assert!(
                algos::verify_outcome(&fault_free, &a, &bm, 1e-9).passed,
                "{name} p={p}: fault-free product is wrong"
            );
            let reference = Arc::new(fault_free.c.clone());
            let push = |b: &mut Builder, label: String, machine: Machine| {
                b.points.push(SimPoint {
                    label,
                    entry,
                    machine,
                    a: Arc::clone(&a),
                    b: Arc::clone(&bm),
                    reference: Reference::Exact(Arc::clone(&reference)),
                    closed_form: None,
                });
            };
            for drop in DROP_RATES {
                row += 1;
                let machine = if drop > 0.0 {
                    let plan_seed = detrng::mix(&[b.seed, 0xFA17, row]);
                    b.inputs.word(plan_seed);
                    healthy.clone().with_fault_plan(
                        FaultPlan::new(plan_seed)
                            .with_drop_rate(drop)
                            .with_corrupt_rate(drop / 2.0)
                            .with_max_attempts(MAX_ATTEMPTS),
                    )
                } else {
                    healthy.clone()
                };
                push(
                    &mut b,
                    format!("{name}_resilient/p{p}/n{n}/drop{drop}"),
                    machine,
                );
            }
            if size_idx > 0 {
                continue;
            }
            // One failover row and one detection row per algorithm, at
            // its smaller size: the next hypercube up holds the mesh
            // plus spares, logical rank 1 dies halfway through the
            // fault-free schedule, a spare takes its slot.
            for detect in [false, true] {
                row += 1;
                let plan_seed = detrng::mix(&[b.seed, 0xDEAD, row]);
                b.inputs.word(plan_seed);
                let mut plan = FaultPlan::new(plan_seed)
                    .with_drop_rate(DEATH_DROP)
                    .with_corrupt_rate(DEATH_DROP / 2.0)
                    .with_max_attempts(MAX_ATTEMPTS)
                    .with_death(1, fault_free.t_parallel * 0.5);
                if detect {
                    plan = plan.with_detection(fault_free.t_parallel * 0.1, 2);
                }
                let full = b.machine(Topology::hypercube_for(2 * p), cost, None);
                let spares = full.p() - p;
                let machine = full.with_spares(spares).with_fault_plan(plan);
                let kind = if detect { "detect" } else { "death" };
                push(
                    &mut b,
                    format!("{name}_resilient/p{p}/n{n}/{kind}"),
                    machine,
                );
            }
        }
    }
    b.finish(true)
}

/// Where one skeleton run's host time went.
#[derive(Debug, Clone, Copy)]
pub struct SkeletonSplit {
    /// Matrix size.
    pub n: usize,
    /// Ranks.
    pub p: usize,
    /// Wall time of the whole `Machine::run`, ns.
    pub run_ns: u64,
    /// Σ over ranks of time inside `Proc::send`, ns.
    pub send_ns: u64,
    /// Σ over ranks of time inside `matmul_accumulate`, ns.
    pub kernel_ns: u64,
    /// Messages the skeleton delivered.
    pub msgs: u64,
    /// Words the skeleton delivered.
    pub words: u64,
    /// Whether messages, words, `T_p` and the product all equal
    /// `algos::cannon`'s at the same `(n, p)`.
    pub matches_algos: bool,
}

impl SkeletonSplit {
    /// What is left after `send` and the kernel: blocking `recv`, the
    /// scheduler and fiber switches.  A blocking `recv` gets no self
    /// time of its own: on the event engine its interval contains every
    /// other rank's work.
    #[must_use]
    pub fn residual_ns(&self) -> u64 {
        self.run_ns.saturating_sub(self.send_ns + self.kernel_ns)
    }
}

/// Cannon written against `Proc::send`/`recv` and the dense kernel
/// only, timing the non-blocking calls from inside the rank closure.
/// Run on the event engine (one host thread), so the per-rank sums
/// partition the run's wall time.
///
/// # Panics
/// Panics if `(n, p)` is not admissible for Cannon.
#[must_use]
pub fn cannon_skeleton(machine: &Machine, a: &Matrix, b: &Matrix) -> SkeletonSplit {
    let (n, p) = (a.rows(), machine.p());
    let q = algos::cannon::applicability(n, p).expect("skeleton point is admissible");
    let ga = Arc::new(BlockGrid::split(a, q, q));
    let gb = Arc::new(BlockGrid::split(b, q, q));
    let bs = n / q;
    let t0 = Instant::now();
    let report = machine.run(|proc| {
        let mut send_ns = 0u64;
        let mut kernel_ns = 0u64;
        let rank = proc.rank();
        let (i, j) = ((rank / q) as isize, (rank % q) as isize);
        let at = |r: isize, c: isize| {
            let q = q as isize;
            (r.rem_euclid(q) * q + c.rem_euclid(q)) as usize
        };
        let mut send = |proc: &mut mmsim::Proc, dst: usize, t: u64, words: Vec<f64>| {
            let start = Instant::now();
            proc.send(dst, t, words);
            send_ns += start.elapsed().as_nanos() as u64;
        };
        let mut a_blk = ga.block_by_rank(rank).clone();
        let mut b_blk = gb.block_by_rank(rank).clone();
        let mut c_blk = Matrix::zeros(bs, bs);
        // Alignment: A^{ij} -> (i, j-i), B^{ij} -> (i-j, j).
        let (a_dst, a_src) = (at(i, j - i), at(i, j + i));
        let (b_dst, b_src) = (at(i - j, j), at(i + j, j));
        if a_dst != rank {
            send(proc, a_dst, tag(0, 0), a_blk.as_slice().to_vec());
        }
        if b_dst != rank {
            send(proc, b_dst, tag(0, 1), b_blk.as_slice().to_vec());
        }
        if a_dst != rank {
            a_blk = Matrix::from_vec(bs, bs, proc.recv_payload(a_src, tag(0, 0)).into_vec());
        }
        if b_dst != rank {
            b_blk = Matrix::from_vec(bs, bs, proc.recv_payload(b_src, tag(0, 1)).into_vec());
        }
        let (west, east) = (at(i, j - 1), at(i, j + 1));
        let (north, south) = (at(i - 1, j), at(i + 1, j));
        for s in 0..q as u32 {
            proc.compute(kernel::work_units(bs, bs, bs));
            let start = Instant::now();
            kernel::matmul_accumulate(&mut c_blk, &a_blk, &b_blk);
            kernel_ns += start.elapsed().as_nanos() as u64;
            if q > 1 {
                send(proc, west, tag(1, 2 * s), a_blk.into_vec());
                send(proc, north, tag(1, 2 * s + 1), b_blk.into_vec());
                a_blk = Matrix::from_vec(bs, bs, proc.recv_payload(east, tag(1, 2 * s)).into_vec());
                b_blk = Matrix::from_vec(
                    bs,
                    bs,
                    proc.recv_payload(south, tag(1, 2 * s + 1)).into_vec(),
                );
            }
        }
        (c_blk, send_ns, kernel_ns)
    });
    let run_ns = t0.elapsed().as_nanos() as u64;
    let blocks: Vec<Matrix> = report.results.iter().map(|(c, _, _)| c.clone()).collect();
    let product = BlockGrid::assemble_from(&blocks, q, q);
    let theirs = algos::cannon(machine, a, b).expect("skeleton point is admissible");
    let (msgs, words) = (report.total_messages(), report.total_words());
    SkeletonSplit {
        n,
        p,
        run_ns,
        send_ns: report.results.iter().map(|r| r.1).sum(),
        kernel_ns: report.results.iter().map(|r| r.2).sum(),
        msgs,
        words,
        matches_algos: msgs == theirs.total_messages()
            && words == theirs.total_words()
            && report.t_parallel.to_bits() == theirs.t_parallel.to_bits()
            && product == theirs.c,
    }
}

/// The skeleton point of a workload's traced pass, if it has one: its
/// largest Cannon op (on 64 ranks for the figure sweep, 16 for
/// `kernel_heavy`).
#[must_use]
pub fn skeleton_point<'w>(workload: &str, w: &'w SimWorkload) -> Option<&'w SimPoint> {
    let p = match workload {
        "fig_sweep_event" => 64,
        "scale_4k" => w.points.first()?.machine.p(),
        "kernel_heavy" => 16,
        _ => return None,
    };
    w.points
        .iter()
        .filter(|pt| pt.entry == Entry::Cannon && pt.machine.p() == p)
        .max_by_key(|pt| pt.a.rows())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(seed: u64) -> RunParams {
        RunParams {
            seed,
            seconds: 1.0,
            smoke: true,
            serve_bin: "unused".into(),
        }
    }

    #[test]
    fn figure_point_set_is_the_one_engine_perf_runs() {
        let pts = fig_points();
        assert_eq!(pts.len(), 43);
        assert_eq!(
            pts.iter().filter(|p| p.1 == 64 && p.0 == Entry::Gk).count(),
            23
        );
        assert!(pts.contains(&(Entry::Cannon, 484, 44)));
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let build = |seed| {
            let mut t = Tracer::new(false);
            (
                fig_sweep(&params(seed), Some(EngineKind::Event), &mut t).input_digest,
                resilient_faults(&params(seed), &mut t).input_digest,
            )
        };
        assert_eq!(build(5), build(5));
        let (fig_a, res_a) = build(5);
        let (fig_b, res_b) = build(6);
        assert_ne!(fig_a, fig_b);
        assert_ne!(res_a, res_b);
    }

    #[test]
    fn skeleton_delivers_what_algos_cannon_delivers() {
        let (a, b) = gen::random_pair(24, 3);
        for p in [1, 4, 16, 36] {
            let m = Machine::new(Topology::square_torus_for(p), CostModel::cm5())
                .with_engine(EngineKind::Event);
            let split = cannon_skeleton(&m, &a, &b);
            assert!(split.matches_algos, "p = {p}: {split:?}");
            assert!(split.run_ns >= split.kernel_ns);
        }
    }

    #[test]
    fn skeleton_points_are_the_largest_cannon_ops() {
        let full = RunParams {
            smoke: false,
            ..params(1)
        };
        let mut t = Tracer::new(false);
        let w = fig_sweep(&full, Some(EngineKind::Event), &mut t);
        assert_eq!(
            skeleton_point("fig_sweep_event", &w).unwrap().label,
            "cannon/p64/n96"
        );
        assert!(skeleton_point("fig_sweep", &w).is_none());
        let w = kernel_heavy(&params(1), &mut t);
        assert_eq!(
            skeleton_point("kernel_heavy", &w).unwrap().label,
            "cannon/p16/n128"
        );
    }

    #[test]
    fn smoke_passes_verify_and_repeat() {
        let mut t = Tracer::new(true);
        let mut w = kernel_heavy(&params(2), &mut t);
        let m = super::super::run_passes(&mut w, 2, std::time::Duration::from_secs(60), &mut t);
        assert_eq!((m.attempted, m.failed), (10, 0), "{:?}", m.failures);
        assert_eq!(m.op_ms.len(), 10);
        assert!(m.model_rel_err_max.is_some());
        assert!(t.spans().iter().any(|s| s.name == "algos.verify"));
        assert!(t.spans().iter().any(|s| s.name == "dense.gen"));
    }
}
