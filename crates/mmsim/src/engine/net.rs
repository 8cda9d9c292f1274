//! The network both engines share: per-rank mailboxes, terminal
//! statuses and parked-receive bookkeeping behind one lock, and the
//! structural deadlock election.
//!
//! A send delivers straight into its destination's mailbox and, when the
//! destination is parked on exactly that `(src, tag)`, wakes it.  A
//! receive takes the first matching message — send order within the
//! pair — or, while there is none, either returns a terminal diagnosis
//! or parks.  Deliveries, status publications and parks all happen under
//! the one lock, so a receiver that finds a terminated peer has already
//! seen every message that peer ever sent: diagnoses need no deferred
//! re-check, whichever engine runs the ranks.
//!
//! The engines differ only in how a parked receive waits and is woken
//! ([`Parking`]) and in who runs the ranks.  On the event engine the
//! rank's fiber suspends and a wake queues it on the scheduler's
//! virtual-time ready heap; on the threaded engine the rank's OS thread
//! sleeps on its own condvar and a wake notifies it.
//!
//! ## Deadlock election
//!
//! Once every rank is parked or terminated, no rank can ever deliver or
//! announce again, so no wake will come.  The network then wakes the
//! lowest parked rank with a [`Wait::Deadlock`] verdict.  The check runs
//! where the condition can first become true — when a rank parks and
//! when a rank announces its termination — so both engines diagnose a
//! cyclic wait at the same moment, on the same rank, with no host clock
//! involved: a slow host only delays the verdict, it cannot cause one.
//! The elected rank's diagnosis is a termination, which wakes its
//! waiters in turn, so a whole cycle unwinds rank by rank.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::engine::fiber;
use crate::engine::message::{Message, Tag};
use crate::engine::EngineKind;

/// A virtual processor's terminal state.  Monotonic (written once,
/// `Running → terminal`), so a receiver's diagnosis is a function of
/// *which* peers have terminated and *how*, never of the order in which
/// the host ran them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RankStatus {
    /// Still executing its closure.
    Running,
    /// Finished normally (or self-diagnosed a deadlock — either way it
    /// will never send again).
    Done,
    /// Panicked; blocked peers that provably cannot proceed abort.
    Poisoned,
    /// Fail-stopped by an injected fault; survivors keep running and
    /// self-diagnose receives the dead rank can no longer satisfy.
    Died,
}

/// Why a blocked receive can never be satisfied.
pub(crate) enum Wait {
    /// Awaited peer fail-stopped.
    SrcDied,
    /// Awaited peer panicked.
    SrcPoisoned,
    /// Awaited peer finished cleanly without sending the match.
    SrcDone,
    /// Every peer terminated; nothing can satisfy the receive.
    AllTerminated,
    /// Every unfinished rank is parked: elected to diagnose the cycle.
    Deadlock,
}

/// One parked receive.
struct Waiting {
    src: usize,
    tag: Tag,
    /// The rank's clock at park time — the event engine's ready-heap
    /// key (f64 bits; clocks are non-negative, so bit order is numeric
    /// order).
    clock_bits: u64,
    /// Park generation, so stale `waiters_on` entries (from earlier
    /// parks that a message wake already satisfied) are skipped.
    token: u32,
}

/// Everything behind the network's one lock.
struct State {
    /// Delivered-but-unmatched messages per rank, in delivery order
    /// (per-sender program order — what send-order matching needs).
    mailboxes: Vec<VecDeque<Message>>,
    status: Vec<RankStatus>,
    /// Terminal statuses published so far.
    terminated: usize,
    /// Ranks with a parked receive (`waiting[r].is_some()`).
    parked: usize,
    waiting: Vec<Option<Waiting>>,
    /// Park generation counter per rank.
    park_seq: Vec<u32>,
    /// `src → [(peer, token)]`: who is parked waiting on `src`.
    /// Entries are lazily invalidated (checked against the peer's
    /// current park token), so unparking is O(1).
    waiters_on: Vec<Vec<(usize, u32)>>,
    /// The event scheduler's virtual-time ready queue: `(clock bits,
    /// rank)` min-heap.  Always empty on the threaded engine.
    ready: BinaryHeap<Reverse<(u64, usize)>>,
    /// Set on the rank the deadlock election woke.
    elected: Vec<bool>,
}

/// How a receive with no match waits, and how a wake reaches it.
enum Parking {
    /// Event engine: the fiber suspends; a wake queues it on `ready`.
    Fibers,
    /// Threaded engine: the rank's thread sleeps on its own condvar; a
    /// wake notifies it.
    Threads(Vec<Condvar>),
}

/// One run's network, shared by every rank of either engine.
pub(crate) struct Net {
    state: Mutex<State>,
    parking: Parking,
}

impl Net {
    pub(crate) fn new(p: usize, engine: EngineKind) -> Self {
        let (parking, ready) = match engine {
            // Every rank ready at clock 0, tie-broken by rank: the first
            // scheduling round runs ranks in rank order.
            EngineKind::Event => (Parking::Fibers, (0..p).map(|r| Reverse((0, r))).collect()),
            EngineKind::Threaded => (
                Parking::Threads((0..p).map(|_| Condvar::new()).collect()),
                BinaryHeap::new(),
            ),
        };
        Self {
            state: Mutex::new(State {
                mailboxes: (0..p).map(|_| VecDeque::new()).collect(),
                status: vec![RankStatus::Running; p],
                terminated: 0,
                parked: 0,
                waiting: (0..p).map(|_| None).collect(),
                park_seq: vec![0; p],
                waiters_on: (0..p).map(|_| Vec::new()).collect(),
                ready,
                elected: vec![false; p],
            }),
            parking,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("network state poisoned")
    }

    /// Unpark `rank` (no-op if it is not parked — a stale wake).
    fn wake(&self, st: &mut State, rank: usize) {
        let Some(w) = st.waiting[rank].take() else {
            return;
        };
        st.parked -= 1;
        match &self.parking {
            Parking::Fibers => st.ready.push(Reverse((w.clock_bits, rank))),
            Parking::Threads(wakers) => wakers[rank].notify_one(),
        }
    }

    /// Wake `rank` as the one to diagnose the deadlock.
    fn elect(&self, st: &mut State, rank: usize) {
        st.elected[rank] = true;
        self.wake(st, rank);
    }

    /// Lowest parked rank, if any.
    fn lowest_parked(st: &State) -> Option<usize> {
        st.waiting.iter().position(Option::is_some)
    }

    /// Deliver a message into its destination's mailbox, waking the
    /// destination if it is parked on exactly this `(src, tag)`.
    ///
    /// A dead or poisoned destination swallows the message: the sender
    /// already paid the injection cost and the traffic counters, and the
    /// destination will never receive again.  A destination that
    /// returned normally keeps it, to be counted as unreceived at run
    /// end ([`Net::drain_unreceived`]).
    pub(crate) fn deliver(&self, msg: Message) {
        let (src, dst, tag) = (msg.src, msg.dst, msg.tag);
        let mut st = self.lock();
        if matches!(st.status[dst], RankStatus::Died | RankStatus::Poisoned) {
            return;
        }
        st.mailboxes[dst].push_back(msg);
        let matches = st.waiting[dst]
            .as_ref()
            .is_some_and(|w| w.src == src && w.tag == tag);
        if matches {
            self.wake(&mut st, dst);
        }
    }

    /// Publish `rank`'s terminal status and wake exactly the parked
    /// ranks whose diagnosis conditions may have changed: those waiting
    /// on `rank`, plus everyone once all peers have terminated.  O(its
    /// own waiters) per termination.  If the ranks still parked are now
    /// all that is left, hold the deadlock election.
    pub(crate) fn announce(&self, rank: usize, status: RankStatus) {
        let mut st = self.lock();
        debug_assert_eq!(st.status[rank], RankStatus::Running, "double termination");
        st.status[rank] = status;
        st.terminated += 1;
        for (peer, token) in std::mem::take(&mut st.waiters_on[rank]) {
            let current = st.waiting[peer]
                .as_ref()
                .is_some_and(|w| w.token == token && w.src == rank);
            if current {
                self.wake(&mut st, peer);
            }
        }
        let p = st.status.len();
        if st.terminated + 1 >= p {
            // All-terminated condition newly (or still) true: every
            // parked rank can now self-diagnose.  Reached at most twice
            // per run (the last two terminations), so the O(p) scan
            // does not reintroduce a termination storm.
            for peer in 0..p {
                self.wake(&mut st, peer);
            }
        }
        if st.parked > 0 && st.parked + st.terminated == p {
            let lowest = Self::lowest_parked(&st).expect("a rank is parked");
            self.elect(&mut st, lowest);
        }
    }

    /// `rank`'s blocking receive of `(src, tag)`: the first matching
    /// message in its mailbox or, while there is none, either a terminal
    /// diagnosis or a park until a delivery, an announcement or the
    /// deadlock election wakes it.
    pub(crate) fn recv(
        &self,
        rank: usize,
        src: usize,
        tag: Tag,
        clock: f64,
    ) -> Result<Message, Wait> {
        let mut st = self.lock();
        loop {
            let mailbox = &mut st.mailboxes[rank];
            if let Some(pos) = mailbox.iter().position(|m| m.src == src && m.tag == tag) {
                return Ok(mailbox.remove(pos).expect("position is in range"));
            }
            let p = st.status.len();
            let all_terminated = st.terminated + 1 >= p;
            match st.status[src] {
                RankStatus::Died => return Err(Wait::SrcDied),
                RankStatus::Poisoned => return Err(Wait::SrcPoisoned),
                RankStatus::Done if !all_terminated => return Err(Wait::SrcDone),
                RankStatus::Running | RankStatus::Done if all_terminated => {
                    return Err(Wait::AllTerminated)
                }
                RankStatus::Running | RankStatus::Done => {}
            }
            if st.parked + 1 + st.terminated == p {
                // Parking would leave every rank parked or terminated:
                // the election, counting this rank among the parked.
                match Self::lowest_parked(&st) {
                    Some(lowest) if lowest < rank => self.elect(&mut st, lowest),
                    _ => return Err(Wait::Deadlock),
                }
            }
            let token = st.park_seq[rank].wrapping_add(1);
            st.park_seq[rank] = token;
            st.waiting[rank] = Some(Waiting {
                src,
                tag,
                clock_bits: clock.to_bits(),
                token,
            });
            st.parked += 1;
            st.waiters_on[src].push((rank, token));
            match &self.parking {
                Parking::Fibers => {
                    drop(st);
                    fiber::suspend();
                    st = self.lock();
                    debug_assert!(st.waiting[rank].is_none(), "resumed while still parked");
                }
                Parking::Threads(wakers) => {
                    while st.waiting[rank].is_some() {
                        st = wakers[rank].wait(st).expect("network state poisoned");
                    }
                }
            }
            if std::mem::take(&mut st.elected[rank]) {
                return Err(Wait::Deadlock);
            }
        }
    }

    /// Event engine: the next rank to resume — minimum `(park-time
    /// clock, rank)` — or `None` once no rank is ready.
    pub(crate) fn next_ready(&self) -> Option<usize> {
        self.lock().ready.pop().map(|Reverse((_, rank))| rank)
    }

    /// Peers currently holding `wanted` terminal status, in rank order.
    pub(crate) fn ranks_with(&self, wanted: RankStatus) -> Vec<usize> {
        let st = self.lock();
        (0..st.status.len())
            .filter(|&r| st.status[r] == wanted)
            .collect()
    }

    /// Count and discard the messages still addressed to `rank` once
    /// every rank has returned.  Counting at run end rather than at the
    /// rank's own return is what makes the count a function of the
    /// program: a peer's send that lands after `rank` returned is
    /// counted whichever order the host ran the two in.
    pub(crate) fn drain_unreceived(&self, rank: usize) -> u64 {
        let mut st = self.lock();
        let n = st.mailboxes[rank].len() as u64;
        st.mailboxes[rank].clear();
        n
    }
}
