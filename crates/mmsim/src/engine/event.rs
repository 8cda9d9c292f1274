//! The event-driven engine: thousands of virtual ranks multiplexed
//! over one scheduler thread, plus the dense kernel's helper threads
//! when the caller lends the host's idle cores.
//!
//! ## Shape
//!
//! Where the threaded engine leases one OS thread per virtual rank
//! (capping p near host thread limits), this engine runs every rank as
//! a resumable [`fiber`] task and drives them from a single scheduler
//! loop.  A rank runs until its `recv` finds no matching message; it
//! then *parks* (records what it waits for and suspends its fiber) and
//! the scheduler resumes the next task from a virtual-time ready queue
//! — a min-heap keyed on `(park-time clock, rank)`.  Sends never block,
//! so a send delivers straight into the destination's mailbox and, when
//! the destination is parked on exactly that `(src, tag)`, moves it to
//! the ready queue.  Mailboxes and scheduler state share one lock, so a
//! message costs one acquisition to send and one to receive.  Park/unpark rendezvous, futexes, and spin-yields
//! all disappear; a context switch is ~12 instructions of userspace
//! register shuffling.
//!
//! The scheduler thread is the thread that called the run, and every
//! rank runs on it, one at a time.  So a caller that lends its idle
//! cores through `dense::with_idle_cores` — every `algos` schedule runs
//! inside it — lends them to every rank: a `matmul_accumulate` call of
//! at least 2^20 multiply-adds splits C's rows across the dense
//! kernel's helper threads, one per other host core.  The split is
//! bit-identical to the serial kernel and invisible to virtual time.
//! (Off x86-64 a fiber is an OS thread of its own and never lends.)
//!
//! ## Determinism and bit-identity
//!
//! Virtual time is a pure function of message causality: clocks advance
//! only through the shared [`Proc`] cost arithmetic, and a receive
//! matches messages of its `(src, tag)` in send order — the mailbox
//! preserves per-sender program order just as the threaded engine's
//! channels do.  The scheduler itself is deterministic (the ready queue
//! breaks clock ties by rank, and every wake has a single cause), so
//! two event runs are byte-identical — and because none of the clock
//! arithmetic depends on *which* host thread executes a rank, event
//! runs are bit-identical to threaded runs of the same machine.  The
//! differential suite (`tests/engine_differential.rs`) pins this across
//! all six algorithms, fault plans, spares and detection.
//!
//! ## Failure diagnosis without timeouts
//!
//! The threaded engine diagnoses a live cyclic deadlock by letting a
//! blocked `recv` time out on the host clock.  Here the scheduler
//! *knows* when nothing can progress: the ready queue is empty and
//! every unfinished rank is parked.  It then resumes the lowest parked
//! rank with a timeout verdict, which raises exactly the
//! [`DeadlockPayload`] the threaded engine's timeout would have raised
//! — same classification, no 10-second stall.  All other diagnoses
//! (peer died / poisoned / done, all-terminated) re-use the `Proc`
//! panic helpers verbatim, driven by the same status conditions the
//! `StatusBoard` encodes, so `SimError` attribution is engine-agnostic.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::engine::error::install_quiet_control_panic_hook;
use crate::engine::fiber;
use crate::engine::message::{Message, Tag};
use crate::engine::proc_ctx::{NetShared, Proc, RankStatus, RunShared};
use crate::engine::{collect_outcomes, outcome_from_panic, Machine, ThreadOutcome};
use crate::recovery::CkptRecord;
use std::cmp::Reverse;

/// Why a blocked receive can never be satisfied: mirrors the threaded
/// engine's board-condition match in `take_matching`.
pub(crate) enum Wait {
    /// Awaited peer fail-stopped.
    SrcDied,
    /// Awaited peer panicked.
    SrcPoisoned,
    /// Awaited peer finished cleanly without sending the match.
    SrcDone,
    /// Every peer terminated; nothing can satisfy the receive.
    AllTerminated,
    /// Elected to diagnose a live cyclic deadlock.
    Timeout,
}

/// One parked receive.
struct Waiting {
    src: usize,
    tag: Tag,
    /// The rank's clock at park time — the ready-queue key (f64 bits;
    /// clocks are non-negative, so bit order is numeric order).
    clock_bits: u64,
    /// Park generation, so stale `waiters_on` entries (from earlier
    /// parks that a message wake already satisfied) are skipped.
    token: u32,
}

/// Mailboxes and scheduler bookkeeping, all behind one mutex, so a
/// send is one acquisition and a receive one (plus one per park).
/// Uncontended — only the scheduler thread and the fiber it is
/// currently running ever touch it, and never at the same time.
struct SchedState {
    /// Delivered-but-unmatched messages per rank, in delivery order
    /// (per-sender program order — what send-order matching needs).
    mailboxes: Vec<VecDeque<Message>>,
    /// Mirrors the threaded `StatusBoard` statuses.
    status: Vec<RankStatus>,
    /// Terminal statuses published so far.
    terminated: usize,
    waiting: Vec<Option<Waiting>>,
    /// Park generation counter per rank.
    park_seq: Vec<u32>,
    /// `src → [(peer, token)]`: who is parked waiting on `src`.
    /// Entries are lazily invalidated (checked against the peer's
    /// current park token), so unparking is O(1).
    waiters_on: Vec<Vec<(usize, u32)>>,
    /// Virtual-time ready queue: `(clock bits, rank)` min-heap.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Guards against double-queuing a rank.
    queued: Vec<bool>,
    /// Set by the stuck-resolution path: the rank was elected to
    /// self-diagnose the live deadlock (the event-engine analogue of
    /// the threaded `recv_timeout` firing).
    timeout_elected: Vec<bool>,
}

impl SchedState {
    fn new(p: usize) -> Self {
        Self {
            mailboxes: (0..p).map(|_| VecDeque::new()).collect(),
            status: vec![RankStatus::Running; p],
            terminated: 0,
            waiting: (0..p).map(|_| None).collect(),
            park_seq: vec![0; p],
            waiters_on: (0..p).map(|_| Vec::new()).collect(),
            ready: BinaryHeap::with_capacity(p),
            queued: vec![false; p],
            timeout_elected: vec![false; p],
        }
    }

    /// Move a parked rank to the ready queue (no-op if it is not
    /// parked — stale wake — or already queued).
    fn make_ready(&mut self, rank: usize) {
        let Some(w) = self.waiting[rank].take() else {
            return;
        };
        if !self.queued[rank] {
            self.queued[rank] = true;
            self.ready.push(Reverse((w.clock_bits, rank)));
        }
    }
}

/// The event engine's shared network state.  Lives inside
/// [`NetShared::Event`], so `Proc`'s send/receive paths dispatch to it
/// without knowing about fibers at all.
pub(crate) struct EventNet {
    state: Mutex<SchedState>,
}

impl EventNet {
    pub(crate) fn new(p: usize) -> Self {
        Self {
            state: Mutex::new(SchedState::new(p)),
        }
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, SchedState> {
        self.state.lock().expect("event scheduler state poisoned")
    }

    /// Deliver a message into its destination's mailbox, waking the
    /// destination if it is parked on exactly this `(src, tag)`.
    ///
    /// A dead or poisoned destination swallows the message, mirroring
    /// the threaded engine's send-to-closed-inbox behaviour: the sender
    /// already paid the injection cost and the traffic counters.  A
    /// destination that returned normally keeps it, to be counted as
    /// unreceived at run end like the threaded engine's open inbox.
    pub(crate) fn deliver(&self, msg: Message) {
        let (src, dst, tag) = (msg.src, msg.dst, msg.tag);
        let mut st = self.lock_state();
        if matches!(st.status[dst], RankStatus::Died | RankStatus::Poisoned) {
            return;
        }
        st.mailboxes[dst].push_back(msg);
        let matches = st.waiting[dst]
            .as_ref()
            .is_some_and(|w| w.src == src && w.tag == tag);
        if matches {
            st.make_ready(dst);
        }
    }

    /// Publish `rank`'s terminal status and wake exactly the parked
    /// ranks whose diagnosis conditions may have changed: those waiting
    /// on `rank`, plus everyone once all peers have terminated.  O(its
    /// own waiters) per termination instead of the O(p) blocked-flag
    /// scan the threaded board performs.
    pub(crate) fn announce(&self, rank: usize, status: RankStatus) {
        let mut st = self.lock_state();
        debug_assert_eq!(st.status[rank], RankStatus::Running, "double termination");
        st.status[rank] = status;
        st.terminated += 1;
        let waiters = std::mem::take(&mut st.waiters_on[rank]);
        for (peer, token) in waiters {
            let current = st.waiting[peer]
                .as_ref()
                .is_some_and(|w| w.token == token && w.src == rank);
            if current {
                st.make_ready(peer);
            }
        }
        if st.terminated >= st.status.len().saturating_sub(1) {
            // All-terminated condition newly (or still) true: every
            // parked rank can now self-diagnose.  Reached at most twice
            // per run (the last two terminations), so the O(p) scan
            // does not reintroduce the termination storm.
            for peer in 0..st.status.len() {
                st.make_ready(peer);
            }
        }
    }

    /// `rank`'s blocking receive of `(src, tag)`: the first matching
    /// message in its mailbox — send order within the pair, like the
    /// threaded pending scan — or, while there is none, either a
    /// terminal diagnosis (mirroring the threaded board-condition match
    /// — no deferred drain needed, because nothing runs concurrently
    /// with a fiber) or a park: record the wait, suspend the fiber, and
    /// look again once woken.
    pub(crate) fn recv(
        &self,
        rank: usize,
        src: usize,
        tag: Tag,
        clock: f64,
    ) -> Result<Message, Wait> {
        let mut st = self.lock_state();
        loop {
            let mailbox = &mut st.mailboxes[rank];
            if let Some(pos) = mailbox.iter().position(|m| m.src == src && m.tag == tag) {
                return Ok(mailbox.remove(pos).expect("position is in range"));
            }
            let p = st.status.len();
            let all_terminated = st.terminated >= p - 1;
            match st.status[src] {
                RankStatus::Died => return Err(Wait::SrcDied),
                RankStatus::Poisoned => return Err(Wait::SrcPoisoned),
                RankStatus::Done if !all_terminated => return Err(Wait::SrcDone),
                RankStatus::Running | RankStatus::Done if all_terminated => {
                    return Err(Wait::AllTerminated)
                }
                RankStatus::Running | RankStatus::Done => {}
            }
            let token = st.park_seq[rank].wrapping_add(1);
            st.park_seq[rank] = token;
            st.waiting[rank] = Some(Waiting {
                src,
                tag,
                clock_bits: clock.to_bits(),
                token,
            });
            st.waiters_on[src].push((rank, token));
            drop(st);
            fiber::suspend();
            st = self.lock_state();
            debug_assert!(st.waiting[rank].is_none(), "woken while still parked");
            if std::mem::take(&mut st.timeout_elected[rank]) {
                return Err(Wait::Timeout);
            }
        }
    }

    /// Peers currently holding `wanted` terminal status, in rank order
    /// (the event-side mirror of `StatusBoard::ranks_with`).
    pub(crate) fn ranks_with(&self, wanted: RankStatus) -> Vec<usize> {
        let st = self.lock_state();
        (0..st.status.len())
            .filter(|&r| st.status[r] == wanted)
            .collect()
    }

    /// Count and discard `rank`'s unmatched messages at run end (the
    /// event-side mirror of the final channel drain).
    pub(crate) fn drain_unreceived(&self, rank: usize) -> u64 {
        let mut st = self.lock_state();
        let n = st.mailboxes[rank].len() as u64;
        st.mailboxes[rank].clear();
        n
    }
}

/// Run `f` on every virtual rank as a fiber under the event scheduler;
/// same contract (and same outcome/checkpoint shape) as the threaded
/// `Machine::execute` path.
#[allow(clippy::type_complexity)]
pub(crate) fn execute<T, F>(
    machine: &Machine,
    f: &F,
) -> (Vec<ThreadOutcome<T>>, Vec<Option<CkptRecord>>)
where
    T: Send,
    F: Fn(&mut Proc) -> T + Sync,
{
    let p = machine.p();
    install_quiet_control_panic_hook();
    let shared = Arc::new(RunShared {
        topology: machine.topology().clone(),
        cost: *machine.cost_model(),
        recv_timeout: machine.recv_timeout,
        fault: machine.fault.clone(),
        table: Arc::clone(&machine.table),
        trace: machine.trace,
        spares: machine.spares().len(),
        ckpt_log: (0..p).map(|_| Mutex::new(None)).collect(),
        net: NetShared::Event(EventNet::new(p)),
    });
    let outcomes: Vec<Mutex<Option<ThreadOutcome<T>>>> = (0..p).map(|_| Mutex::new(None)).collect();

    let jobs: Vec<Box<dyn FnOnce()>> = (0..p)
        .map(|rank| {
            let shared = Arc::clone(&shared);
            let f_ptr: *const F = f;
            let out_ptr: *const Mutex<Option<ThreadOutcome<T>>> = &outcomes[rank];
            let job = move || {
                // SAFETY: the scheduler below drives every fiber to
                // completion before `execute` returns (asserted), so
                // the borrows behind these pointers outlive all uses —
                // the same argument the worker pool's latch makes.
                let f = unsafe { &*f_ptr };
                let slot = unsafe { &*out_ptr };
                let mut proc = Proc::new_event(rank, Arc::clone(&shared));
                let outcome =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut proc)));
                *slot.lock().expect("outcome slot poisoned") =
                    Some(outcome_from_panic(rank, outcome, &shared, proc));
            };
            let job: Box<dyn FnOnce()> = Box::new(job);
            // SAFETY: lifetime erasure only — the completion argument
            // above keeps every borrow alive past the fiber's end.
            let job: Box<dyn FnOnce() + 'static> = unsafe { std::mem::transmute(job) };
            job
        })
        .collect();
    let mut fibers = fiber::Fiber::spawn_all(fiber::stack_bytes(), jobs);

    let net = match &shared.net {
        NetShared::Event(net) => net,
        NetShared::Threaded { .. } => unreachable!("event execute built an event net"),
    };
    // Seed: every rank ready at clock 0, tie-broken by rank — the first
    // scheduling round runs ranks in rank order, deterministically.
    {
        let mut st = net.lock_state();
        for rank in 0..p {
            st.queued[rank] = true;
            st.ready.push(Reverse((0u64, rank)));
        }
    }
    let mut finished = 0usize;
    while finished < p {
        let rank = {
            let mut st = net.lock_state();
            match st.ready.pop() {
                Some(Reverse((_, rank))) => {
                    st.queued[rank] = false;
                    rank
                }
                None => {
                    // Global no-progress: every unfinished rank is
                    // parked and no pending event can wake one.  Elect
                    // the lowest parked rank to self-diagnose the live
                    // deadlock — deterministic, and exactly what the
                    // threaded engine's recv timeout would eventually
                    // conclude.
                    let rank = st
                        .waiting
                        .iter()
                        .position(Option::is_some)
                        .expect("scheduler stuck with no parked rank (engine bug)");
                    st.waiting[rank] = None;
                    st.timeout_elected[rank] = true;
                    rank
                }
            }
        };
        if fibers[rank].resume() {
            finished += 1;
        }
    }
    debug_assert!(fibers.iter().all(fiber::Fiber::finished));
    drop(fibers);
    collect_outcomes(&shared, outcomes)
}
