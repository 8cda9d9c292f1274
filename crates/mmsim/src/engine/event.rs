//! The event-driven engine: thousands of virtual ranks multiplexed
//! over one scheduler thread, plus the dense kernel's helper threads
//! when the caller lends the host's idle cores.
//!
//! ## Shape
//!
//! Where the threaded engine spawns one OS thread per virtual rank
//! (capping p near host thread limits), this engine runs every rank as
//! a resumable [`fiber`] task and drives them from a single scheduler
//! loop.  A rank runs until its `recv` finds no matching message; it
//! then *parks* (the shared [`Net`] records what it waits for and the
//! fiber suspends) and the scheduler resumes the next task from a
//! virtual-time ready queue — a min-heap keyed on `(park-time clock,
//! rank)`.  Sends never block, so a send delivers straight into the
//! destination's mailbox and, when the destination is parked on exactly
//! that `(src, tag)`, moves it to the ready queue.  Mailboxes and the
//! ready queue share one lock, so a message costs one acquisition to
//! send and one to receive.  Park/unpark rendezvous and futexes
//! disappear; a context switch is ~12 instructions of userspace
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
//! only through the shared `Proc` cost arithmetic, and a receive
//! matches messages of its `(src, tag)` in send order.  The scheduler
//! itself is deterministic (the ready queue breaks clock ties by rank,
//! and every wake has a single cause), so two event runs are
//! byte-identical — and because none of the clock arithmetic depends on
//! *which* host thread executes a rank, event runs are bit-identical to
//! threaded runs of the same machine, which share the same [`Net`].  The
//! differential suite (`tests/engine_differential.rs`) pins this across
//! all six algorithms, fault plans, spares and detection.
//!
//! The ready queue never runs dry while a rank is unfinished: a run
//! whose every unfinished rank is parked is a deadlock, and the
//! network's election (see [`crate::engine::net`]) queues the rank that
//! diagnoses it.

use crate::engine::fiber;
use crate::engine::net::Net;
use crate::engine::RANK_STACK_BYTES;

/// Run `run_rank(0..p)` as fibers under the event scheduler on the
/// calling thread, and return once every rank has returned.
pub(crate) fn run_fibers(p: usize, net: &Net, run_rank: &(dyn Fn(usize) + Sync)) {
    // SAFETY: lifetime erasure only.  The scheduler below drives every
    // fiber to completion before `run_fibers` returns, so the borrow
    // behind this pointer outlives all uses — the same argument a
    // scoped thread's join makes.
    let run_ptr: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(run_rank)
    };
    let jobs: Vec<Box<dyn FnOnce()>> = (0..p)
        .map(|rank| {
            // SAFETY: valid until every fiber has finished (above).
            Box::new(move || unsafe { (*run_ptr)(rank) }) as Box<dyn FnOnce()>
        })
        .collect();
    let mut fibers = fiber::Fiber::spawn_all(RANK_STACK_BYTES, jobs);
    let mut finished = 0usize;
    while finished < p {
        let rank = net
            .next_ready()
            .expect("no rank ready while ranks are unfinished (engine bug)");
        if fibers[rank].resume() {
            finished += 1;
        }
    }
    debug_assert!(fibers.iter().all(fiber::Fiber::finished));
}
