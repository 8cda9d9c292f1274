//! The simulation engine: runs every virtual processor — as a fiber
//! under the event scheduler, or on an OS thread of its own — and
//! collects the deterministic virtual-time report.

pub mod error;
pub(crate) mod event;
pub(crate) mod fiber;
pub mod message;
pub(crate) mod net;
pub mod payload;
pub mod proc_ctx;

use std::sync::{Arc, Mutex};

use crate::cost::CostModel;
use crate::engine::error::{Failure, SimError};
use crate::engine::net::{Net, RankStatus};
use crate::engine::proc_ctx::{Proc, RunShared, ABORT_MSG};
use crate::fault::FaultPlan;
use crate::recovery::CkptRecord;
use crate::stats::{Bucket, ProcStats};
use crate::topology::Topology;
use crate::trace::Timeline;

/// Stack size of every rank, thread or fiber.  Algorithm closures keep
/// their matrix blocks on the heap, so 1 MiB is generous even for
/// 512-processor simulations.
pub(crate) const RANK_STACK_BYTES: usize = 1 << 20;

/// What one rank reports back: the closure's value plus
/// accounting on success, or the panic payload on failure.
type ThreadOutcome<T> = Result<(T, ProcStats, Timeline), Box<dyn std::any::Any + Send>>;

/// How a [`Machine`] executes its virtual processors.  Both engines
/// share everything but who runs the ranks — the network (mailboxes,
/// statuses, deadlock election), cost arithmetic, fault fates,
/// diagnosis attribution — so their virtual-time reports are
/// bit-identical; they differ only in host mechanics and in how far p
/// scales (see `tests/engine_differential.rs` for the proof and
/// `docs/performance.md` for the architecture and the measurements
/// behind the default).
///
/// The default is [`EngineKind::Event`] wherever fibers have their
/// native context switch (x86-64) and [`EngineKind::Threaded`]
/// elsewhere, where an event-engine fiber would itself be a parked OS
/// thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// One OS thread per virtual rank (the historical engine,
    /// and the differential suites' reference): real preemptive
    /// parallelism, p capped near host thread limits.
    #[cfg_attr(not(target_arch = "x86_64"), default)]
    Threaded,
    /// One fiber per virtual rank, multiplexed on the calling thread by
    /// a virtual-time event scheduler: reaches p ≥ 16k ranks.
    #[cfg_attr(target_arch = "x86_64", default)]
    Event,
}

/// Keep freed heap memory in the process across runs, as the fiber
/// stack pool keeps stacks: a run's blocks, messages and mailboxes are
/// freed when it ends, and glibc would otherwise hand them back to the
/// kernel (allocations over its mmap threshold are unmapped on `free`,
/// and the heap top is trimmed), so the next run of the same shape
/// faults every page in again — about a third of a large-block event run
/// on the ledger's `kernel_heavy` points.  Called before every run,
/// effective once per process.
///
/// Both settings are needed: fixing either one turns off glibc's dynamic
/// mmap threshold, so a trim threshold alone would pin the mmap
/// threshold at its 128 KiB default.  32 MiB is the largest mmap
/// threshold glibc accepts on 64-bit hosts.  malloc has long been
/// initialised by the time a machine runs, so `mallopt`'s "call before
/// the first allocation" caveat does not apply.
fn retain_freed_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            /// glibc's `mallopt(3)`, declared by hand like `mprotect`
            /// (std links libc on every unix target).
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        static ONCE: std::sync::Once = std::sync::Once::new();
        ONCE.call_once(|| {
            // SAFETY: `mallopt` only adjusts allocator tunables; both
            // values are in range, and a refusal (return 0) leaves the
            // defaults in place, which is merely slower.
            unsafe {
                mallopt(M_MMAP_THRESHOLD, 32 << 20);
                mallopt(M_TRIM_THRESHOLD, 64 << 20);
            }
        });
    }
}

/// A machine view's ranks: the one list of the physical ranks taking
/// part in a run, in local-rank order, with their fail-stop schedule —
/// computed once when a [`Machine`] is built, partitioned or re-bound
/// instead of per rank per run.
///
/// `physical[local]` is the physical (global) rank behind local rank
/// `local` (the identity on a whole machine); `death_at[local]` is that
/// rank's fail-stop instant under the machine's fault plan, if any.
#[derive(Debug)]
pub(crate) struct RankTable {
    pub(crate) physical: Vec<usize>,
    pub(crate) death_at: Vec<Option<f64>>,
}

impl RankTable {
    fn new(physical: Vec<usize>, fault: Option<&FaultPlan>) -> Self {
        let death_at = physical
            .iter()
            .map(|&ph| fault.and_then(|plan| plan.death_time(ph)))
            .collect();
        Self { physical, death_at }
    }
}

/// A simulated multicomputer: a topology plus a cost model, and
/// optionally a [`FaultPlan`] to run under.  A machine is a *view*: its
/// rank table names the physical ranks that take part in a run (all of
/// them on a whole machine, a subset on a [`Machine::partition`]), and
/// closures see local ranks `0..p`.
#[derive(Debug, Clone)]
pub struct Machine {
    topology: Topology,
    cost: CostModel,
    trace: bool,
    fault: Option<Arc<FaultPlan>>,
    /// The view's physical ranks in local-rank order, with their
    /// fail-stop instants under `fault`.
    table: Arc<RankTable>,
    /// Physical ranks reserved as failover spares by
    /// [`Machine::with_spares`], in promotion order.  They are outside
    /// the logical topology (`table` excludes them) and idle until a
    /// fail-stop death promotes one; empty = recovery disabled.
    spares: Arc<Vec<usize>>,
    /// Execution engine (see [`EngineKind`] and [`Machine::with_engine`]).
    engine: EngineKind,
}

impl Machine {
    /// Assemble a machine from a topology and a cost model.
    #[must_use]
    pub fn new(topology: Topology, cost: CostModel) -> Self {
        let table = Arc::new(RankTable::new((0..topology.p()).collect(), None));
        Self {
            topology,
            cost,
            trace: false,
            fault: None,
            table,
            spares: Arc::new(Vec::new()),
            engine: EngineKind::default(),
        }
    }

    /// A view of this machine restricted to `ranks`: runs spawn only the
    /// listed processors, and the algorithm closure sees **local** ranks
    /// `0..ranks.len()` (so unmodified algorithms execute on the
    /// partition as if it were a whole machine of that size).
    ///
    /// Message *timing* still follows the physical machine: hop counts,
    /// per-link fault rates and fail-stop schedules are looked
    /// up under the member's physical rank.  On distance-regular
    /// embeddings — an aligned power-of-two block `[b·2^k, (b+1)·2^k)`
    /// of a hypercube (a `k`-subcube), or any subset of a fully
    /// connected machine — pairwise distances match a standalone machine
    /// of the partition's size, so a partitioned run is bit-identical to
    /// a solo run (see `tests/partition.rs`).
    ///
    /// Partitioning a partition composes: `ranks` are then local indices
    /// of the outer view.  Disjoint partitions share no channels and no
    /// mutable state, so jobs placed on them are independent: the
    /// engine's no-contention cost model makes sequential per-partition
    /// runs observationally identical to concurrent execution.
    ///
    /// # Panics
    /// Panics if `ranks` is empty, contains duplicates, or names a rank
    /// outside the machine.
    #[must_use]
    pub fn partition(&self, ranks: &[usize]) -> Machine {
        assert!(
            !ranks.is_empty(),
            "partition must contain at least one rank"
        );
        let outer = self.p();
        let mut seen = vec![false; outer];
        let global: Vec<usize> = ranks
            .iter()
            .map(|&r| {
                assert!(r < outer, "partition rank {r} out of range (p = {outer})");
                assert!(!seen[r], "partition lists rank {r} twice");
                seen[r] = true;
                self.table.physical[r]
            })
            .collect();
        Machine {
            topology: self.topology.clone(),
            cost: self.cost,
            trace: self.trace,
            fault: self.fault.clone(),
            table: Arc::new(RankTable::new(global, self.fault.as_deref())),
            // A spare reservation does not survive partitioning: the new
            // view names its own ranks; reserve spares on it afterwards.
            spares: Arc::new(Vec::new()),
            engine: self.engine,
        }
    }

    /// The physical ranks backing this view, in local-rank order: the
    /// identity `0..p` on a whole machine, the partition's members on a
    /// [`Machine::partition`], and never the reserved spares.
    #[must_use]
    pub fn partition_ranks(&self) -> &[usize] {
        &self.table.physical
    }

    /// Builder-style: record per-processor event timelines during runs
    /// (see [`crate::trace`]).
    #[must_use]
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Builder-style: select the execution engine instead of the
    /// platform's default (see [`EngineKind`]).  Virtual-time results
    /// are bit-identical across engines (everything but who runs the
    /// ranks is shared); [`EngineKind::Event`] lifts the
    /// thread-per-rank cap so machines of tens of thousands of ranks
    /// run on one host thread, [`EngineKind::Threaded`] runs ranks in
    /// parallel on the host's cores.  Partition views inherit the
    /// choice.
    #[must_use]
    pub fn with_engine(mut self, engine: EngineKind) -> Self {
        self.engine = engine;
        self
    }

    /// The execution engine this machine runs on.
    #[must_use]
    pub fn engine(&self) -> EngineKind {
        self.engine
    }

    /// Builder-style: run under the given fault schedule (see
    /// [`crate::fault`]).  A zero plan is observationally identical to
    /// no plan.
    ///
    /// # Panics
    /// Panics with the [`crate::FaultPlanError`] message if the plan
    /// violates a machine-relative invariant — e.g. a
    /// [`FaultPlan::with_link_detection`] override targeting a rank the
    /// topology does not have ([`FaultPlan::validate_for`]); validating
    /// here keeps the failure at the attach site instead of deep in the
    /// engine.
    #[must_use]
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        if let Err(e) = plan.validate_for(self.topology.p()) {
            panic!("{e}");
        }
        self.table = Arc::new(RankTable::new(self.table.physical.clone(), Some(&plan)));
        self.fault = Some(Arc::new(plan));
        self
    }

    /// The machine's fault schedule, if any.
    #[must_use]
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_deref()
    }

    /// Builder-style: reserve the view's last `k` ranks as failover
    /// **spares** (see [`crate::recovery`]).  The algorithm closure then
    /// sees `p − k` logical ranks; when a logical rank fail-stops under
    /// the machine's [`FaultPlan`], a spare is promoted into its slot
    /// (in reservation order), the run is replayed from the rank's last
    /// completed [`crate::Checkpoint`], and the recovery cost — lost
    /// work plus a `t_s + t_w·m` state transfer on the buddy→spare
    /// link — is charged to the recovered rank in virtual time.
    ///
    /// With more simultaneous deaths than spares remain (or a dead
    /// buddy holding a rank's only checkpoint) the run degrades to the
    /// spare-less behaviour: [`Machine::try_run`] returns
    /// [`SimError::RankDied`].
    ///
    /// Apply *after* [`Machine::partition`] — partitioning produces a
    /// fresh view with no spare reservation.
    ///
    /// # Panics
    /// Panics unless at least one logical rank remains (`k < p`).
    #[must_use]
    pub fn with_spares(mut self, k: usize) -> Self {
        assert!(
            k < self.p(),
            "reserving {k} spares leaves no logical ranks (p = {})",
            self.p()
        );
        if k == 0 {
            self.spares = Arc::new(Vec::new());
            return self;
        }
        let (logical, spare) = self.table.physical.split_at(self.p() - k);
        self.spares = Arc::new(spare.to_vec());
        self.table = Arc::new(RankTable::new(logical.to_vec(), self.fault.as_deref()));
        self
    }

    /// Physical ranks currently reserved as failover spares, in
    /// promotion order (empty when recovery is disabled).
    #[must_use]
    pub fn spares(&self) -> &[usize] {
        &self.spares
    }

    /// Number of processors taking part in a run: the length of the
    /// view's rank table (the full topology size on a whole machine,
    /// the partition size on a partition, less any reserved spares).
    #[must_use]
    pub fn p(&self) -> usize {
        self.table.physical.len()
    }

    /// The machine's topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The machine's cost model.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Run `f` on every virtual processor using the configured engine
    /// and collect every rank's outcome (value or panic payload) in
    /// rank order, together with each rank's last completed checkpoint
    /// record (always `None` on spare-less runs).
    ///
    /// The engines share everything here but who runs the ranks: one
    /// scoped OS thread each, all at once (a lone rank runs on this
    /// thread), or one fiber each under the virtual-time scheduler on
    /// this thread.
    #[allow(clippy::type_complexity)]
    fn execute<T, F>(&self, f: &F) -> (Vec<ThreadOutcome<T>>, Vec<Option<CkptRecord>>)
    where
        T: Send,
        F: Fn(&mut Proc) -> T + Sync,
    {
        retain_freed_heap();
        crate::engine::error::install_quiet_control_panic_hook();
        let p = self.p();
        // Everything run-wide lives behind one Arc built once, instead
        // of per-rank clones of the machine.
        let shared = Arc::new(RunShared {
            machine: self.clone(),
            net: Net::new(p, self.engine),
            ckpt_log: (0..p).map(|_| Mutex::new(None)).collect(),
        });
        let outcomes: Vec<Mutex<Option<ThreadOutcome<T>>>> =
            (0..p).map(|_| Mutex::new(None)).collect();
        let run_rank = |rank: usize| {
            let mut proc = Proc::new(rank, Arc::clone(&shared));
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut proc)));
            *outcomes[rank].lock().expect("outcome slot poisoned") =
                Some(outcome_from_panic(rank, outcome, &shared, proc));
        };
        match self.engine {
            EngineKind::Threaded if p > 1 => std::thread::scope(|s| {
                let run_rank = &run_rank;
                for rank in 0..p {
                    let spawned = std::thread::Builder::new()
                        .name(format!("mmsim-rank-{rank}"))
                        .stack_size(RANK_STACK_BYTES)
                        .spawn_scoped(s, move || run_rank(rank));
                    if let Err(e) = spawned {
                        // Ranks that never start must not leave the
                        // started ones parked forever inside the scope.
                        (rank..p).for_each(|r| shared.net.announce(r, RankStatus::Poisoned));
                        panic!("failed to spawn the thread of rank {rank}: {e}");
                    }
                }
            }),
            EngineKind::Threaded => (0..p).for_each(&run_rank),
            EngineKind::Event => event::run_fibers(p, &shared.net, &run_rank),
        }
        // Every rank has returned.
        collect_outcomes(&shared, outcomes)
    }

    /// Build the report once every outcome is known to be `Ok`; the
    /// caller sets `t_parallel` once the recovery surcharges are in.
    fn assemble<T>(outcomes: Vec<ThreadOutcome<T>>) -> RunReport<T> {
        let mut out = Vec::with_capacity(outcomes.len());
        let mut stats = Vec::with_capacity(outcomes.len());
        let mut traces = Vec::with_capacity(outcomes.len());
        for outcome in outcomes {
            let (value, st, tl) =
                outcome.unwrap_or_else(|_| unreachable!("failures handled before assembly"));
            out.push(value);
            stats.push(st);
            traces.push(tl);
        }
        RunReport {
            t_parallel: 0.0,
            stats,
            results: out,
            traces,
        }
    }

    /// The one diagnosis of a failed attempt, shared by both run entry
    /// points: the most causal failure wins — a fail-stop death
    /// outranks the corruption or deadlocks it provoked, corruption
    /// outranks the deadlocks *it* provoked, and a closure panic is
    /// reported only when nothing fault-related happened, with an abort
    /// cascade as the last resort.  Rank order breaks ties.  `deaths`
    /// lists every fail-stop of the attempt for the failover loop.
    fn classify<T>(outcomes: &[ThreadOutcome<T>]) -> Option<RunFailure> {
        let mut deaths: Vec<(usize, f64)> = Vec::new();
        let mut waiters: Vec<usize> = Vec::new();
        // (causal order, rank, payload) of the failure reported so far.
        let mut worst: Option<(u8, usize, &(dyn std::any::Any + Send))> = None;
        for (rank, outcome) in outcomes.iter().enumerate() {
            let Err(payload) = outcome else { continue };
            let cause = match payload.downcast_ref::<Failure>().map(|f| &f.error) {
                Some(SimError::RankDied { t, .. }) => {
                    deaths.push((rank, *t));
                    0
                }
                Some(SimError::DataCorruption { .. }) => 1,
                Some(SimError::Deadlock { .. }) => {
                    waiters.push(rank);
                    2
                }
                Some(SimError::RankPanicked { .. }) | None
                    if !panic_text(payload.as_ref()).starts_with(ABORT_MSG) =>
                {
                    3
                }
                _ => 4,
            };
            if worst.is_none_or(|(w, ..)| cause < w) {
                worst = Some((cause, rank, payload.as_ref()));
            }
        }
        let (_, rank, payload) = worst?;
        let message = panic_text(payload);
        let error = match payload.downcast_ref::<Failure>().map(|f| f.error.clone()) {
            Some(SimError::Deadlock { .. }) => SimError::Deadlock { waiters },
            Some(error) => error,
            None => SimError::RankPanicked {
                rank,
                message: message.to_string(),
            },
        };
        Some(RunFailure {
            error,
            deaths,
            panic: format!("virtual processor {rank} panicked: {message}"),
        })
    }

    /// The buddy→spare state transfer of checkpoint `ck`: one
    /// `t_s + t_w·m` send.
    fn transfer_cost(&self, ck: CkptRecord) -> f64 {
        self.cost.sender_occupancy(ck.words as usize)
    }

    /// The engine core behind [`Machine::run`] and [`Machine::try_run`]:
    /// execute attempts until one completes, promoting spares over
    /// fail-stop deaths (see [`crate::recovery`]) and applying the
    /// accumulated recovery surcharges to the surviving report.
    fn run_recovering<T, F>(&self, f: F) -> Result<RunReport<T>, RunFailure>
    where
        T: Send,
        F: Fn(&mut Proc) -> T + Sync,
    {
        let p = self.p();
        let mut view = self.clone();
        let mut spares_left: std::collections::VecDeque<usize> =
            self.spares.iter().copied().collect();
        // Accumulated per-logical-rank failover cost across attempts:
        // lost-work replay + buddy→spare state transfer, and how often
        // the slot was re-bound.
        let mut surcharge = vec![0.0f64; p];
        let mut recoveries = vec![0u64; p];
        let mut det_latency = vec![0.0f64; p];
        // Detection pricing (None = the historical free oracle; every
        // charge below is gated on it, so planless runs stay
        // bit-identical).
        let detection = view.fault.as_deref().and_then(FaultPlan::detection);
        loop {
            let (outcomes, ckpts) = view.execute(&f);
            let Some(fail) = Self::classify(&outcomes) else {
                let mut report = Self::assemble(outcomes);
                for rank in 0..p {
                    if recoveries[rank] > 0 {
                        let s = &mut report.stats[rank];
                        s.recoveries = recoveries[rank];
                        s.advance(s.clock + surcharge[rank], Bucket::Recovery, surcharge[rank]);
                        s.detection_latency = det_latency[rank];
                    }
                }
                if let Some(det) = detection {
                    let plan = view.fault.as_deref().expect("detection implies a plan");
                    let physical = &view.table.physical;
                    let has_spare = p > 1 && !spares_left.is_empty();
                    let beat_cost = view.cost.sender_occupancy(1);
                    for rank in 0..p {
                        let (src, dst) = (physical[rank], physical[(rank + 1) % p]);
                        let period = plan.detection_period_for(src).unwrap_or(det.period);
                        // Spurious failovers: heartbeats ride the faulted
                        // links (see `FaultPlan::heartbeat_missed`), so
                        // `timeout_multiple` consecutive lost beats make
                        // the watcher `(rank+1) % p` falsely declare its
                        // neighbour dead and promote the next spare — a
                        // pointless buddy→spare state transfer plus a
                        // reconciliation window until the accused rank's
                        // next delivered beat proves it alive and the
                        // spare is demoted.  Pure oracle arithmetic over
                        // the final attempt's clocks, so replays stay
                        // byte-identical; with healthy heartbeat links (or
                        // no spare left to waste) nothing here fires.
                        if has_spare {
                            let transfer = ckpts[rank].map_or(0.0, |ck| view.transfer_cost(ck));
                            let horizon = report.stats[rank].clock;
                            let (mut from, mut events, mut charge) = (0u64, 0u64, 0.0f64);
                            while let Some(beat) = plan.first_streak(
                                src,
                                dst,
                                from,
                                det.timeout_multiple,
                                period,
                                horizon,
                            ) {
                                // Reconcile at the next delivered beat, or
                                // at the end of the run; the watch resumes
                                // after it.
                                let mut j = beat + 1;
                                while (j + 1) as f64 * period <= horizon
                                    && plan.heartbeat_missed(src, dst, j)
                                {
                                    j += 1;
                                }
                                let reconcile = ((j + 1) as f64 * period).min(horizon);
                                events += 1;
                                charge += transfer + (reconcile - (beat + 1) as f64 * period);
                                from = j + 1;
                            }
                            if events > 0 {
                                let s = &mut report.stats[rank];
                                s.false_positives = events;
                                s.wasted_promotion_idle = charge;
                                s.advance(s.clock + charge, Bucket::Recovery, charge);
                            }
                        }
                        // Heartbeat traffic, priced post-hoc against the
                        // rank's final clock: one one-word send per
                        // elapsed period of its own monitor link, charged
                        // as network occupancy.
                        let s = &mut report.stats[rank];
                        let beats = (s.clock / period).floor() as u64;
                        if beats > 0 {
                            let dt = beat_cost * beats as f64;
                            s.advance(s.clock + dt, Bucket::Comm, dt);
                            s.heartbeat_words += beats;
                            s.words_sent += beats;
                            s.msgs_sent += beats;
                        }
                    }
                }
                report.t_parallel = report.stats.iter().map(|s| s.clock).fold(0.0, f64::max);
                if cfg!(debug_assertions) {
                    report.stats.iter().for_each(ProcStats::check);
                }
                return Ok(report);
            };
            // Only pure fail-stop deaths are recoverable, and only while
            // the spare budget covers every death of the attempt.
            if fail.deaths.is_empty() || fail.deaths.len() > spares_left.len() {
                return Err(fail);
            }
            // A dead rank whose buddy died with it lost its only
            // checkpoint replica: it cannot resume mid-run, which
            // escalates to the spare-less diagnosis for that rank.
            for &(dead, t) in &fail.deaths {
                let buddy = (dead + 1) % p;
                if ckpts[dead].is_some() && fail.deaths.iter().any(|&(b, _)| b == buddy) {
                    return Err(RunFailure {
                        error: SimError::RankDied { rank: dead, t },
                        panic: format!(
                            "virtual processor {dead} panicked: fail-stop fault injected: rank \
                             {dead} died at virtual time {t} (buddy {buddy} died holding its \
                             only checkpoint)"
                        ),
                        deaths: fail.deaths,
                    });
                }
            }
            // Promote spares in death-time order (rank breaks ties) and
            // re-bind the dead slots to the spares' physical ranks.  The
            // re-run then prices the spare's physical links — and its
            // own death schedule, so a doomed spare fails over again.
            let mut order = fail.deaths;
            order.sort_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
            let mut physical = view.table.physical.clone();
            for (dead, t) in order {
                let spare = spares_left.pop_front().expect("budget checked above");
                // Never checkpointed: restart from scratch — full replay,
                // nothing to transfer.
                let (ckpt_t, transfer) =
                    ckpts[dead].map_or((0.0, 0.0), |ck| (ck.t, view.transfer_cost(ck)));
                // With priced detection, the survivors only *notice* the
                // death `timeout_multiple` silent heartbeat periods after
                // it happened; that latency delays the whole recovery.
                // The dead rank's own monitor link sets the period, so a
                // `with_link_detection` override buys faster failover.
                let wait = view
                    .fault
                    .as_deref()
                    .and_then(|plan| plan.detection_latency_for(physical[dead]))
                    .unwrap_or(0.0);
                surcharge[dead] += (t - ckpt_t) + transfer + wait;
                det_latency[dead] += wait;
                recoveries[dead] += 1;
                physical[dead] = spare;
            }
            view.table = Arc::new(RankTable::new(physical, view.fault.as_deref()));
        }
    }

    /// Run `f` on every virtual processor and collect the report.
    ///
    /// `f` is called once per rank with that rank's [`Proc`] handle; its
    /// return values are gathered in rank order.  The simulated parallel
    /// time is the maximum final clock over all processors.
    ///
    /// Determinism: the report depends only on `f` and the machine, never
    /// on host thread scheduling.
    ///
    /// # Panics
    /// Panics on exactly the runs [`Machine::try_run`] returns `Err` for,
    /// naming the rank of that same failure and carrying its message
    /// (`virtual processor {rank} panicked: {message}`, where a deadlock
    /// names its lowest-ranked waiter).  Library code reports failures
    /// through [`Machine::try_run`]; this entry point is for tests and
    /// examples that treat any failure as a bug.
    pub fn run<T, F>(&self, f: F) -> RunReport<T>
    where
        T: Send,
        F: Fn(&mut Proc) -> T + Sync,
    {
        self.run_recovering(f)
            .unwrap_or_else(|fail| panic!("{}", fail.panic))
    }

    /// Run `f` on every virtual processor like [`Machine::run`], but
    /// return a failed run as a structured [`SimError`] instead of
    /// panicking, so fault-injection sweeps can classify outcomes
    /// without `catch_unwind` plumbing.
    ///
    /// When several ranks fail, the most causal diagnosis wins: a
    /// fail-stop death outranks the corruption or deadlocks it provoked,
    /// corruption outranks the deadlocks *it* provoked, and a plain
    /// closure panic is reported only when nothing fault-related
    /// happened; rank order breaks ties.  All deadlocked ranks are
    /// collected into [`SimError::Deadlock`]'s waiter list.
    ///
    /// On a machine with spares ([`Machine::with_spares`]), fail-stop
    /// deaths within the spare budget are masked by failover instead of
    /// reported; [`SimError::RankDied`] surfaces only once the budget is
    /// exhausted (or a buddy death destroyed the only checkpoint).
    ///
    /// # Errors
    /// Returns the classified [`SimError`] if any rank failed.
    pub fn try_run<T, F>(&self, f: F) -> Result<RunReport<T>, SimError>
    where
        T: Send,
        F: Fn(&mut Proc) -> T + Sync,
    {
        self.run_recovering(f).map_err(|fail| fail.error)
    }
}

/// One failed attempt's complete diagnosis (see [`Machine::classify`]).
struct RunFailure {
    /// What [`Machine::try_run`] returns.
    error: SimError,
    /// Every fail-stop of the attempt, in rank order — what the
    /// failover loop consumes spares against.
    deaths: Vec<(usize, f64)>,
    /// What [`Machine::run`] panics with: the rank of `error` and its
    /// payload's message, which keeps detail `error` drops (such as a
    /// deadlocked receive's `(src, tag)`).
    panic: String,
}

/// Shared per-rank epilogue of both engines: publish the termination
/// (so blocked receives become diagnosed deadlocks instead of hangs),
/// map the panic payload onto the rank's terminal status, and finalise
/// the accounting on success.  One function so the engines cannot
/// disagree about termination semantics.
fn outcome_from_panic<T>(
    rank: usize,
    outcome: Result<T, Box<dyn std::any::Any + Send>>,
    shared: &RunShared,
    proc: Proc,
) -> ThreadOutcome<T> {
    match outcome {
        Ok(out) => {
            shared.net.announce(rank, RankStatus::Done);
            let (stats, timeline) = proc.into_final_parts();
            Ok((out, stats, timeline))
        }
        Err(payload) => {
            let status = match payload.downcast_ref::<Failure>().map(|f| &f.error) {
                // A fail-stop is not an abort: peers keep running on
                // the messages already sent and diagnose their own
                // blocked receives deterministically.
                Some(SimError::RankDied { .. }) => RankStatus::Died,
                // A deadlocked rank will never send again — from its
                // peers' view that is a termination, so other blocked
                // ranks self-diagnose instead of being racily aborted
                // (keeps the waiter list deterministic).
                Some(SimError::Deadlock { .. }) => RankStatus::Done,
                // Abort the rest of the machine.
                _ => RankStatus::Poisoned,
            };
            shared.net.announce(rank, status);
            Err(payload)
        }
    }
}

/// Shared run-end epilogue of both engines, called once every rank has
/// returned: each rank's outcome and last checkpoint record in rank
/// order, with the messages still addressed to a finished rank added to
/// its `unreceived` count (see [`Net::drain_unreceived`]).
#[allow(clippy::type_complexity)]
fn collect_outcomes<T>(
    shared: &RunShared,
    slots: Vec<Mutex<Option<ThreadOutcome<T>>>>,
) -> (Vec<ThreadOutcome<T>>, Vec<Option<CkptRecord>>) {
    let ckpts = shared
        .ckpt_log
        .iter()
        .map(|slot| slot.lock().expect("checkpoint log slot poisoned").take())
        .collect();
    let outcomes = slots
        .into_iter()
        .enumerate()
        .map(|(rank, slot)| {
            let mut outcome = slot
                .into_inner()
                .expect("outcome slot poisoned")
                .expect("every rank reports exactly once");
            if let Ok((_, stats, _)) = &mut outcome {
                stats.unreceived += shared.net.drain_unreceived(rank);
            }
            outcome
        })
        .collect();
    (outcomes, ckpts)
}

/// The human-readable text of a rank's panic payload.
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else if let Some(f) = payload.downcast_ref::<Failure>() {
        &f.message
    } else {
        "<non-string panic payload>"
    }
}

/// The outcome of one simulation: per-rank results and virtual-time
/// accounting.
#[derive(Debug, Clone)]
pub struct RunReport<T> {
    /// Simulated parallel execution time `T_p = max_i clock_i`.
    pub t_parallel: f64,
    /// Per-rank accounting, indexed by rank.
    pub stats: Vec<ProcStats>,
    /// Per-rank return values of the algorithm closure, indexed by rank.
    pub results: Vec<T>,
    /// Per-rank event timelines; empty vectors unless the machine was
    /// built with [`Machine::with_trace`].
    pub traces: Vec<Timeline>,
}

impl<T> RunReport<T> {
    /// Number of processors that took part.
    #[must_use]
    pub fn p(&self) -> usize {
        self.stats.len()
    }

    /// Sum of useful work over all processors.
    #[must_use]
    pub fn total_compute(&self) -> f64 {
        self.stats.iter().map(|s| s.compute).sum()
    }

    /// Sum of communication occupancy over all processors.
    #[must_use]
    pub fn total_comm(&self) -> f64 {
        self.stats.iter().map(|s| s.comm).sum()
    }

    /// Sum of recorded idle (wait) time over all processors.  Final-wait
    /// idle time (processors finishing before `T_p`) is *not* included
    /// here; it is captured by [`RunReport::overhead`].
    #[must_use]
    pub fn total_idle(&self) -> f64 {
        self.stats.iter().map(|s| s.idle).sum()
    }

    /// Total messages sent across all processors.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.stats.iter().map(|s| s.msgs_sent).sum()
    }

    /// Total payload words sent across all processors.
    #[must_use]
    pub fn total_words(&self) -> u64 {
        self.stats.iter().map(|s| s.words_sent).sum()
    }

    /// Total reliable-protocol retransmissions across all processors
    /// (zero on fault-free runs).
    #[must_use]
    pub fn total_retransmissions(&self) -> u64 {
        self.stats.iter().map(|s| s.retransmissions).sum()
    }

    /// Total reliable-protocol backoff idle time across all processors —
    /// the resilience share of [`RunReport::total_idle`].
    #[must_use]
    pub fn total_backoff_idle(&self) -> f64 {
        self.stats.iter().map(|s| s.backoff_idle).sum()
    }

    /// The paper's total parallel overhead `T_o(W, p) = p·T_p − W`, where
    /// `W` is the problem size in unit operations (§2).
    #[must_use]
    pub fn overhead(&self, w: f64) -> f64 {
        self.p() as f64 * self.t_parallel - w
    }

    /// Parallel speedup `S = W / T_p` (§2).
    #[must_use]
    pub fn speedup(&self, w: f64) -> f64 {
        w / self.t_parallel
    }

    /// Efficiency `E = S / p = W / (p·T_p)` (§2).
    #[must_use]
    pub fn efficiency(&self, w: f64) -> f64 {
        self.speedup(w) / self.p() as f64
    }

    /// Map the per-rank results, keeping the accounting.
    #[must_use]
    pub fn map_results<U>(self, f: impl FnMut(T) -> U) -> RunReport<U> {
        RunReport {
            t_parallel: self.t_parallel,
            stats: self.stats,
            results: self.results.into_iter().map(f).collect(),
            traces: self.traces,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::Ports;
    use crate::engine::message::tag;
    use crate::fault::LinkFaults;

    /// Pinned to the threaded engine: these tests cover the shared
    /// network under truly concurrent ranks (and are the reference side
    /// of the event smoke tests below).
    fn unit_machine(p: usize) -> Machine {
        Machine::new(Topology::fully_connected(p), CostModel::unit())
            .with_engine(EngineKind::Threaded)
    }

    #[test]
    fn single_processor_compute_only() {
        let m = unit_machine(1);
        let r = m.run(|proc| {
            proc.compute(42.0);
            proc.rank()
        });
        assert_eq!(r.t_parallel, 42.0);
        assert_eq!(r.results, vec![0]);
        assert_eq!(r.total_comm(), 0.0);
    }

    #[test]
    fn ping_message_timing() {
        // t_s = 1, t_w = 1, 3 words: cost 4.
        let m = unit_machine(2);
        let r = m.run(|proc| {
            if proc.rank() == 0 {
                proc.send(1, 7, vec![1.0, 2.0, 3.0]);
            } else {
                let msg = proc.recv(0, 7);
                assert_eq!(msg.payload, vec![1.0, 2.0, 3.0]);
                assert_eq!(msg.sent_at, 0.0);
                assert_eq!(msg.arrival, 4.0);
            }
        });
        assert_eq!(r.t_parallel, 4.0);
        assert_eq!(r.stats[1].idle, 4.0);
        assert_eq!(r.stats[0].comm, 4.0);
    }

    #[test]
    fn receiver_busy_at_arrival_does_not_idle() {
        let m = unit_machine(2);
        let r = m.run(|proc| {
            if proc.rank() == 0 {
                proc.send(1, 0, vec![0.0; 3]); // arrives at 4
            } else {
                proc.compute(10.0);
                let msg = proc.recv(0, 0);
                assert_eq!(msg.arrival, 4.0);
                assert_eq!(proc.now(), 10.0, "clock must not move backwards");
            }
        });
        assert_eq!(r.stats[1].idle, 0.0);
        assert_eq!(r.t_parallel, 10.0);
    }

    #[test]
    fn ring_shift_is_symmetric_and_deterministic() {
        let m = Machine::new(Topology::ring(8), CostModel::new(5.0, 2.0));
        let run = || {
            m.run(|proc| {
                let p = proc.p();
                let right = (proc.rank() + 1) % p;
                let left = (proc.rank() + p - 1) % p;
                proc.send(right, 3, vec![proc.rank() as f64; 10]);
                proc.recv_payload(left, 3)[0]
            })
        };
        let r1 = run();
        let r2 = run();
        // Everyone sends 10 words (cost 25) then waits for a message that
        // arrived at 25: no idle, Tp = 25.
        assert_eq!(r1.t_parallel, 25.0);
        assert_eq!(r1.total_idle(), 0.0);
        assert_eq!(
            r1.results,
            (0..8).map(|i| ((i + 7) % 8) as f64).collect::<Vec<_>>()
        );
        assert_eq!(r1.t_parallel, r2.t_parallel);
        for (a, b) in r1.stats.iter().zip(&r2.stats) {
            assert_eq!(a, b, "virtual time must not depend on host scheduling");
        }
    }

    #[test]
    fn sends_serialize_on_single_port() {
        let m = unit_machine(4);
        let r = m.run(|proc| {
            if proc.rank() == 0 {
                // Three 1-word sends, cost 2 each, serialised: 2, 4, 6.
                proc.send_multi(vec![
                    (1, 0, vec![1.0]),
                    (2, 0, vec![2.0]),
                    (3, 0, vec![3.0]),
                ]);
                0.0
            } else {
                let msg = proc.recv(0, 0);
                msg.arrival
            }
        });
        assert_eq!(r.results[1], 2.0);
        assert_eq!(r.results[2], 4.0);
        assert_eq!(r.results[3], 6.0);
        assert_eq!(r.stats[0].comm, 6.0);
    }

    #[test]
    fn sends_overlap_on_all_port() {
        let m = Machine::new(
            Topology::fully_connected(4),
            CostModel::unit().with_ports(Ports::All),
        );
        let r = m.run(|proc| {
            if proc.rank() == 0 {
                proc.send_multi(vec![
                    (1, 0, vec![1.0]),
                    (2, 0, vec![2.0; 5]),
                    (3, 0, vec![3.0]),
                ]);
                0.0
            } else {
                proc.recv(0, 0).arrival
            }
        });
        // All start at 0; arrivals are their own latencies.
        assert_eq!(r.results[1], 2.0);
        assert_eq!(r.results[2], 6.0);
        assert_eq!(r.results[3], 2.0);
        // Sender advanced by the max occupancy only.
        assert_eq!(r.stats[0].comm, 6.0);
        assert_eq!(r.stats[0].clock, 6.0);
    }

    #[test]
    fn all_port_batch_rejects_duplicate_destination() {
        let m = Machine::new(
            Topology::fully_connected(3),
            CostModel::unit().with_ports(Ports::All),
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(|proc| {
                if proc.rank() == 0 {
                    proc.send_multi(vec![(1, 0, vec![1.0]), (1, 1, vec![2.0])]);
                } else if proc.rank() == 1 {
                    proc.recv(0, 0);
                    proc.recv(0, 1);
                }
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn tag_matching_reorders_messages() {
        let m = unit_machine(2);
        let r = m.run(|proc| {
            if proc.rank() == 0 {
                proc.send(1, tag(0, 0), vec![10.0]);
                proc.send(1, tag(0, 1), vec![20.0]);
                0.0
            } else {
                // Receive in reverse tag order.
                let b = proc.recv_payload(0, tag(0, 1))[0];
                let a = proc.recv_payload(0, tag(0, 0))[0];
                a + b / 100.0
            }
        });
        assert_eq!(r.results[1], 10.2);
    }

    #[test]
    fn same_tag_messages_match_in_send_order() {
        let m = unit_machine(2);
        let r = m.run(|proc| {
            if proc.rank() == 0 {
                proc.send(1, 5, vec![1.0]);
                proc.send(1, 5, vec![2.0]);
                vec![]
            } else {
                vec![proc.recv_payload(0, 5)[0], proc.recv_payload(0, 5)[0]]
            }
        });
        assert_eq!(r.results[1], vec![1.0, 2.0]);
    }

    #[test]
    fn exchange_pairs_without_deadlock() {
        let m = unit_machine(2);
        let r = m.run(|proc| {
            let partner = 1 - proc.rank();
            let got = proc.exchange(partner, 9, vec![proc.rank() as f64]);
            got[0]
        });
        assert_eq!(r.results, vec![1.0, 0.0]);
        // Symmetric: both send (cost 2) then receive a message that
        // arrived at 2.
        assert_eq!(r.t_parallel, 2.0);
    }

    #[test]
    fn stats_invariant_holds() {
        let m = Machine::new(Topology::hypercube(3), CostModel::new(7.0, 0.5));
        let r = m.run(|proc| {
            let p = proc.p();
            proc.compute(13.0);
            let right = (proc.rank() + 1) % p;
            let left = (proc.rank() + p - 1) % p;
            proc.send(right, 0, vec![0.0; 17]);
            proc.recv(left, 0);
            proc.compute_adds(10);
        });
        for s in &r.stats {
            assert!(s.is_consistent(1e-9), "{s:?}");
            assert_eq!(s.unreceived, 0);
        }
    }

    #[test]
    fn unreceived_messages_are_counted() {
        let m = unit_machine(2);
        let r = m.run(|proc| {
            if proc.rank() == 0 {
                proc.send(1, 0, vec![1.0]);
                proc.send(1, 1, vec![2.0]);
            } else {
                proc.recv(0, 1);
                // tag 0 never received
            }
        });
        assert_eq!(r.stats[1].unreceived, 1);
    }

    #[test]
    fn panic_in_closure_is_annotated_with_rank() {
        let m = unit_machine(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(|proc| {
                if proc.rank() == 1 {
                    panic!("boom");
                }
            });
        }));
        let err = result.unwrap_err();
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("virtual processor 1"), "{msg}");
        assert!(msg.contains("boom"), "{msg}");
    }

    #[test]
    fn report_metrics() {
        let m = unit_machine(4);
        let r = m.run(|proc| proc.compute(25.0));
        // W = 100 units executed in Tp = 25 on 4 procs: E = 1.
        assert_eq!(r.t_parallel, 25.0);
        assert_eq!(r.speedup(100.0), 4.0);
        assert_eq!(r.efficiency(100.0), 1.0);
        assert_eq!(r.overhead(100.0), 0.0);
        assert_eq!(r.total_compute(), 100.0);
    }

    #[test]
    fn store_and_forward_charges_hops() {
        use crate::cost::Routing;
        let m = Machine::new(
            Topology::ring(8),
            CostModel::new(1.0, 1.0).with_routing(Routing::StoreAndForward),
        );
        let r = m.run(|proc| {
            if proc.rank() == 0 {
                proc.send(4, 0, vec![0.0; 4]); // 4 hops away on the ring
                0.0
            } else if proc.rank() == 4 {
                proc.recv(0, 0).arrival
            } else {
                0.0
            }
        });
        // (t_s + 4 t_w) * 4 hops = 20.
        assert_eq!(r.results[4], 20.0);
    }

    #[test]
    fn map_results_preserves_accounting() {
        let m = unit_machine(2);
        let r = m.run(|proc| proc.rank() as f64).map_results(|x| x * 2.0);
        assert_eq!(r.results, vec![0.0, 2.0]);
        assert_eq!(r.p(), 2);
    }

    #[test]
    fn larger_hypercube_all_pairs_exchange() {
        // 32 procs: every proc exchanges with its cube neighbours in
        // dimension order; deterministic total message count.
        let m = Machine::new(Topology::hypercube(5), CostModel::unit());
        let r = m.run(|proc| {
            let mut acc = proc.rank() as f64;
            for k in 0..5u32 {
                let partner = proc.rank() ^ (1 << k);
                let got = proc.exchange(partner, tag(1, k), vec![acc]);
                acc += got[0];
            }
            acc
        });
        // Recursive doubling sum: everyone ends with sum 0..31 = 496.
        assert!(r.results.iter().all(|&x| x == 496.0));
        assert_eq!(r.total_messages(), 32 * 5);
    }

    // -- fault injection ----------------------------------------------

    /// The ring-shift workload used by several fault tests.
    fn ring_workload(proc: &mut Proc) -> f64 {
        let p = proc.p();
        let right = (proc.rank() + 1) % p;
        let left = (proc.rank() + p - 1) % p;
        proc.send(right, 3, vec![proc.rank() as f64; 10]);
        proc.compute(5.0);
        proc.recv_payload(left, 3)[0]
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_no_plan() {
        let base = Machine::new(Topology::ring(8), CostModel::new(5.0, 2.0));
        let faulty = base.clone().with_fault_plan(FaultPlan::new(1234));
        let r1 = base.run(ring_workload);
        let r2 = faulty.run(ring_workload);
        assert_eq!(r1.t_parallel.to_bits(), r2.t_parallel.to_bits());
        assert_eq!(r1.results, r2.results);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn try_run_matches_run_on_success() {
        let m = Machine::new(Topology::ring(8), CostModel::new(5.0, 2.0));
        let r1 = m.run(ring_workload);
        let r2 = m.try_run(ring_workload).expect("healthy run");
        assert_eq!(r1.t_parallel, r2.t_parallel);
        assert_eq!(r1.stats, r2.stats);
    }

    #[test]
    fn fail_stop_death_is_classified() {
        let m = unit_machine(4).with_fault_plan(FaultPlan::new(0).with_death(2, 10.0));
        let err = m.try_run(|proc| proc.compute(100.0)).unwrap_err();
        assert_eq!(err, SimError::RankDied { rank: 2, t: 10.0 });
    }

    #[test]
    fn death_outranks_the_deadlock_it_provokes() {
        // Rank 1 dies before sending; rank 0 blocks on it and the other
        // ranks finish.  The diagnosis must be the death, not the wait.
        let m = unit_machine(3).with_fault_plan(FaultPlan::new(0).with_death(1, 5.0));
        let err = m
            .try_run(|proc| match proc.rank() {
                0 => {
                    proc.recv_payload(1, 7);
                }
                1 => {
                    proc.compute(50.0); // dies at 5
                    proc.send(0, 7, vec![1.0]);
                }
                _ => {}
            })
            .unwrap_err();
        assert_eq!(err, SimError::RankDied { rank: 1, t: 5.0 });
    }

    #[test]
    fn run_panics_on_death_with_rank_annotation() {
        let m = unit_machine(2).with_fault_plan(FaultPlan::new(0).with_death(1, 3.0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.run(|proc| proc.compute(10.0));
        }));
        let err = result.unwrap_err();
        let msg = panic_text(err.as_ref());
        assert!(msg.contains("virtual processor 1"), "{msg}");
        assert!(msg.contains("fail-stop"), "{msg}");
        assert!(msg.contains("virtual time 3"), "{msg}");
    }

    /// `run` panics with the failure `try_run` reports, not with the
    /// lowest-ranked one: rank 0's deadlock is a consequence of rank
    /// 1's death.  A deadlock's panic keeps the receive it waits on.
    #[test]
    fn run_panics_with_the_failure_try_run_reports() {
        let m = unit_machine(2).with_fault_plan(FaultPlan::new(0).with_death(1, 5.0));
        let work = |proc: &mut Proc| {
            if proc.rank() == 0 {
                proc.recv_payload(1, 7);
            } else {
                proc.compute(50.0);
            }
        };
        assert_eq!(
            m.try_run(work).unwrap_err(),
            SimError::RankDied { rank: 1, t: 5.0 }
        );
        let err = std::panic::catch_unwind(|| m.run(work)).unwrap_err();
        let msg = panic_text(err.as_ref());
        assert!(
            msg.starts_with("virtual processor 1 panicked: fail-stop"),
            "{msg}"
        );

        let err = std::panic::catch_unwind(|| {
            unit_machine(3).run(|proc| {
                if proc.rank() == 1 {
                    proc.recv(2, 9);
                }
            })
        })
        .unwrap_err();
        let msg = panic_text(err.as_ref());
        assert!(
            msg.starts_with("virtual processor 1 panicked: rank 1: deadlock"),
            "{msg}"
        );
        assert!(msg.contains("(src 2, tag 0x9)"), "{msg}");
    }

    #[test]
    fn plain_drop_becomes_diagnosed_deadlock() {
        let m = unit_machine(2).with_fault_plan(FaultPlan::new(9).with_drop_rate(1.0));
        let err = m
            .try_run(|proc| {
                if proc.rank() == 0 {
                    proc.send(1, 0, vec![1.0]);
                } else {
                    proc.recv_payload(0, 0);
                }
            })
            .unwrap_err();
        assert_eq!(err, SimError::Deadlock { waiters: vec![1] });
    }

    #[test]
    fn plain_corruption_is_detected_at_recv() {
        let m = unit_machine(2).with_fault_plan(FaultPlan::new(9).with_corrupt_rate(1.0));
        let err = m
            .try_run(|proc| {
                if proc.rank() == 0 {
                    proc.send(1, 42, vec![1.0, 2.0]);
                } else {
                    proc.recv_payload(0, 42);
                }
            })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::DataCorruption {
                rank: 1,
                src: 0,
                tag: 42,
            }
        );
    }

    #[test]
    fn closure_panic_is_classified() {
        let m = unit_machine(2);
        let err = m
            .try_run(|proc| {
                if proc.rank() == 1 {
                    panic!("algorithm bug");
                }
            })
            .unwrap_err();
        match err {
            SimError::RankPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("algorithm bug"));
            }
            other => panic!("expected RankPanicked, got {other:?}"),
        }
        // The panic stayed inside its rank: the same machine runs again.
        let r = m
            .try_run(|proc| proc.rank())
            .expect("the next run is healthy");
        assert_eq!(r.results, vec![0, 1]);
    }

    #[test]
    fn single_rank_runs_inline() {
        let caller = std::thread::current().id();
        let r = unit_machine(1).run(|_| std::thread::current().id());
        assert_eq!(r.results, vec![caller]);
    }

    #[test]
    fn reliable_transport_survives_heavy_loss() {
        let m = unit_machine(2).with_fault_plan(
            FaultPlan::new(77)
                .with_drop_rate(0.4)
                .with_corrupt_rate(0.2),
        );
        let r = m
            .try_run(|proc| {
                if proc.rank() == 0 {
                    for s in 0..20u32 {
                        proc.send_reliable(1, tag(0, s), vec![f64::from(s); 8]);
                    }
                    0.0
                } else {
                    let mut acc = 0.0;
                    for s in 0..20u32 {
                        let got = proc.recv_reliable(0, tag(0, s));
                        assert_eq!(got, vec![f64::from(s); 8]);
                        acc += got[0];
                    }
                    acc
                }
            })
            .expect("reliable transport must mask drops and corruption");
        assert_eq!(r.results[1], (0..20).sum::<u32>() as f64);
        assert!(
            r.total_retransmissions() > 0,
            "a 60% fault rate must force retries"
        );
        assert!(r.stats[0].backoff_idle > 0.0);
        assert!(r.stats[0].backoff_idle <= r.stats[0].idle + 1e-9);
        for s in &r.stats {
            assert!(s.is_consistent(1e-9), "{s:?}");
        }
    }

    #[test]
    fn reliable_on_healthy_link_costs_only_framing() {
        // Plain send of m words costs t_s + t_w·m; reliable adds exactly
        // RELIABLE_FRAME_OVERHEAD words and one 1-word ack charge at the
        // receiver, nothing else.
        let m = unit_machine(2);
        let r = m.run(|proc| {
            if proc.rank() == 0 {
                proc.send_reliable(1, 5, vec![1.0, 2.0, 3.0]);
            } else {
                assert_eq!(proc.recv_reliable(0, 5), vec![1.0, 2.0, 3.0]);
            }
        });
        // Sender: t_s + t_w·5 = 6.  Receiver: idle till 6, then 1-word
        // ack costs 2 → Tp = 8.
        assert_eq!(r.stats[0].comm, 6.0);
        assert_eq!(r.t_parallel, 8.0);
        assert_eq!(r.total_retransmissions(), 0);
        assert_eq!(r.total_backoff_idle(), 0.0);
    }

    #[test]
    fn deadlock_waiters_are_all_collected() {
        let m = unit_machine(3);
        let err = m
            .try_run(|proc| {
                if proc.rank() > 0 {
                    // Wait for a message rank 0 never sends.
                    proc.recv_payload(0, 99);
                }
            })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Deadlock {
                waiters: vec![1, 2]
            }
        );
    }

    #[test]
    fn partitioned_stats_match_standalone_bit_for_bit() {
        // Satellite check for the hoisted rank table: a partition of a
        // fully connected machine must reproduce a standalone machine of
        // the partition's size exactly, including per-rank accounting.
        let whole = Machine::new(Topology::fully_connected(8), CostModel::new(5.0, 2.0));
        let part = whole.partition(&[2, 3, 4, 5]);
        assert_eq!(part.partition_ranks(), &[2usize, 3, 4, 5]);
        let solo = Machine::new(Topology::fully_connected(4), CostModel::new(5.0, 2.0));
        let rp = part.run(ring_workload);
        let rs = solo.run(ring_workload);
        assert_eq!(rp.t_parallel.to_bits(), rs.t_parallel.to_bits());
        assert_eq!(rp.results, rs.results);
        assert_eq!(rp.stats, rs.stats);
    }

    #[test]
    fn per_link_fault_overrides_apply() {
        // Drop everything except the 0→1 link; a 0→1 ping still works.
        let plan = FaultPlan::new(4)
            .with_drop_rate(1.0)
            .with_link(0, 1, LinkFaults::default());
        let m = unit_machine(2).with_fault_plan(plan);
        let r = m.run(|proc| {
            if proc.rank() == 0 {
                proc.send(1, 0, vec![7.0]);
                0.0
            } else {
                proc.recv_payload(0, 0)[0]
            }
        });
        assert_eq!(r.results[1], 7.0);
    }

    // -----------------------------------------------------------------
    // Event engine smoke tests.  The full bit-identity proof lives in
    // tests/engine_differential.rs; these pin the basics close to the
    // engine so a regression points here first.
    // -----------------------------------------------------------------

    fn event_machine(p: usize) -> Machine {
        unit_machine(p).with_engine(EngineKind::Event)
    }

    #[test]
    fn event_engine_is_a_machine_knob() {
        // The default follows the platform: fibers where they switch
        // natively, threads elsewhere.
        let expected = if cfg!(target_arch = "x86_64") {
            EngineKind::Event
        } else {
            EngineKind::Threaded
        };
        assert_eq!(EngineKind::default(), expected);
        let default = Machine::new(Topology::fully_connected(2), CostModel::unit());
        assert_eq!(default.engine(), expected);
        // Both kinds stay selectable, and partition views inherit the
        // choice.
        for kind in [EngineKind::Threaded, EngineKind::Event] {
            let machine = unit_machine(4).with_engine(kind);
            assert_eq!(machine.engine(), kind);
            assert_eq!(machine.partition(&[0, 1]).engine(), kind);
        }
    }

    #[test]
    fn event_ping_matches_threaded_timing() {
        let r = event_machine(2).run(|proc| {
            if proc.rank() == 0 {
                proc.send(1, 7, vec![1.0, 2.0, 3.0]);
            } else {
                let msg = proc.recv(0, 7);
                assert_eq!(msg.payload, vec![1.0, 2.0, 3.0]);
                assert_eq!(msg.sent_at, 0.0);
                assert_eq!(msg.arrival, 4.0);
            }
        });
        assert_eq!(r.t_parallel, 4.0);
        assert_eq!(r.stats[1].idle, 4.0);
        assert_eq!(r.stats[0].comm, 4.0);
    }

    #[test]
    fn event_ring_is_bitwise_identical_to_threaded() {
        // A ring exchange where every rank sends before receiving —
        // the all-park-then-deliver shape the scheduler must handle.
        let workload = |proc: &mut Proc| {
            let p = proc.p();
            let me = proc.rank();
            proc.compute((me + 1) as f64);
            proc.send((me + 1) % p, 5, vec![me as f64; 8]);
            let got = proc.recv_payload((me + p - 1) % p, 5);
            got[0]
        };
        let rt = unit_machine(6).run(workload);
        let re = event_machine(6).run(workload);
        assert_eq!(rt.t_parallel.to_bits(), re.t_parallel.to_bits());
        assert_eq!(rt.stats, re.stats);
        assert_eq!(rt.results, re.results);
    }

    #[test]
    fn event_engine_collects_deadlock_waiters() {
        let err = event_machine(3)
            .try_run(|proc| {
                if proc.rank() > 0 {
                    proc.recv_payload(0, 99);
                }
            })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Deadlock {
                waiters: vec![1, 2]
            }
        );
    }

    #[test]
    fn event_engine_diagnoses_cyclic_deadlock() {
        // A true cycle: every rank waits for its left neighbour and no
        // one ever sends.  The last park elects the lowest rank, whose
        // diagnosis unwinds the rest of the cycle.
        let err = event_machine(3)
            .try_run(|proc| {
                let p = proc.p();
                let left = (proc.rank() + p - 1) % p;
                proc.recv_payload(left, 1);
            })
            .unwrap_err();
        assert_eq!(
            err,
            SimError::Deadlock {
                waiters: vec![0, 1, 2]
            }
        );
    }

    #[test]
    fn event_engine_counts_unreceived() {
        let r = event_machine(2).run(|proc| {
            if proc.rank() == 0 {
                proc.send(1, 0, vec![1.0]);
                proc.send(1, 1, vec![2.0]);
            } else {
                proc.recv(0, 1);
            }
        });
        assert_eq!(r.stats[1].unreceived, 1);
    }

    #[test]
    fn event_engine_scales_past_thread_limits() {
        // More virtual ranks than any host could ever spawn threads
        // for, on one scheduler thread: a p = 20 000 ring exchange.
        let p = 20_000;
        let m = Machine::new(Topology::fully_connected(p), CostModel::unit())
            .with_engine(EngineKind::Event);
        let r = m.run(|proc| {
            let p = proc.p();
            let me = proc.rank();
            proc.send((me + 1) % p, 3, vec![me as f64]);
            proc.recv_payload((me + p - 1) % p, 3)[0] as usize
        });
        // Everyone sends at t = 0 (occupancy t_s + t_w = 2) and the
        // neighbour's one-word message arrives at t = 2 as well.
        assert_eq!(r.t_parallel, 2.0);
        assert_eq!(r.results[0], p - 1);
        assert_eq!(r.results[p - 1], p - 2);
    }
}
