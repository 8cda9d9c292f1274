//! Idle host cores lent to large kernel calls.
//!
//! A thread that has nothing else to run while it multiplies — the
//! event engine's scheduler thread, whose fibers take turns on it — can
//! lend the rest of the host to [`matmul_accumulate`]: inside
//! [`with_idle_cores`], a call above the kernel's split threshold cuts
//! its work into chunks that the caller and a process-wide pool of
//! helper threads claim from one atomic counter.  A thread that never
//! lends (the threaded engine's rank threads, which already run in
//! parallel) never splits, so it never oversubscribes the host.
//!
//! The pool holds `available_parallelism() − 1` helpers (at most one
//! per chunk beyond the caller's), spawned on the first split and never
//! freed.  One lender holds them at a time: a call that finds them taken
//! by another thread runs its chunks itself, so it never waits on
//! another caller.  After each job a helper spins for [`SPIN`], long
//! enough to catch the next call of a kernel-bound run without a
//! wake-up, then parks.
//!
//! [`matmul_accumulate`]: crate::matmul_accumulate

use std::cell::Cell;
use std::hint;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// How long a helper polls for the next job before parking.  A kernel-
/// bound event run issues its calls 14–20 µs apart (Cannon at p = 16,
/// n = 512: 0.9–1.25 ms outside the kernel over 64 calls, with 4×8 and
/// 8×16 tiles alike; the faster tile shortens the calls, not the gaps),
/// and waking a parked helper takes 8–15 µs (2 vCPUs), so spinning is
/// what makes a split pay.
const SPIN: Duration = Duration::from_micros(200);

/// Most helpers worth having: a split never has more chunks than this
/// plus the one the caller starts on.
const MAX_HELPERS: usize = crate::kernel::SPLIT_CHUNKS - 1;

thread_local! {
    /// Whether this thread lends its idle cores (see [`with_idle_cores`]).
    static LENDING: Cell<bool> = const { Cell::new(false) };
    /// Splits this thread ran alone because another thread held the
    /// helpers, or the host has none (test observability).
    #[cfg(test)]
    pub(crate) static BUSY_FALLBACKS: Cell<usize> = const { Cell::new(0) };
}

/// Run `f` with this thread lending the host's idle cores to large
/// [`matmul_accumulate`](crate::matmul_accumulate) calls, restoring the
/// previous setting when `f` returns or unwinds.
///
/// Only a thread that would otherwise leave the other cores idle should
/// lend: a caller that already runs one thread per core would
/// oversubscribe the host.  Products are bit-identical either way.
pub fn with_idle_cores<R>(f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            LENDING.with(|l| l.set(self.0));
        }
    }
    let _restore = Restore(LENDING.with(|l| l.replace(true)));
    f()
}

/// Whether the calling thread is inside [`with_idle_cores`].
pub(crate) fn lending() -> bool {
    LENDING.with(Cell::get)
}

/// Run `work(0..chunks)`, each index exactly once, on the calling thread
/// and whichever helpers are free, returning once every chunk is done.
pub(crate) fn split(chunks: usize, work: &(dyn Fn(usize) + Sync)) {
    let job = Job {
        next: AtomicUsize::new(0),
        chunks,
        work,
    };
    let Some(pool) = pool().claim() else {
        #[cfg(test)]
        BUSY_FALLBACKS.with(|n| n.set(n.get() + 1));
        job.drain();
        return;
    };
    let _lent = pool.lend(&job);
    job.drain();
    // `_lent` retracts the job and waits for the helpers still inside
    // it — on unwind too, before `job` leaves the stack.
}

/// One split call, on the lender's stack.
struct Job<'a> {
    /// Next unclaimed chunk.
    next: AtomicUsize,
    chunks: usize,
    work: &'a (dyn Fn(usize) + Sync),
}

impl Job<'_> {
    /// Claim and run chunks until none is left.
    fn drain(&self) {
        loop {
            // Relaxed: the index publishes no data.  The operands reach
            // a helper, and its results the lender, through `slot`'s
            // lock (join and leave).
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            (self.work)(i);
        }
    }
}

/// A published job's address, lifetime erased.
#[derive(Clone, Copy)]
struct JobRef(*const Job<'static>);

// SAFETY: a `Job` is `Sync` (atomics and a `Sync` closure), and the
// lender keeps it alive while any helper can reach it (see `Lent`).
unsafe impl Send for JobRef {}

/// What the lender and the helpers share, behind one lock.
struct Slot {
    /// The job helpers may join; `None` once retracted.
    job: Option<JobRef>,
    /// Publications so far; a helper joins each at most once.
    seq: u64,
    /// Helpers currently running the published job's chunks.
    inside: usize,
    /// Helpers parked on `Pool::wake`.
    parked: usize,
}

struct Pool {
    helpers: usize,
    /// Whether a lender holds the helpers.
    claimed: AtomicBool,
    /// `Slot::seq`, readable without the lock by spinning helpers.  A
    /// hint only (Relaxed): a helper reads the job itself under the lock.
    published: AtomicU64,
    slot: Mutex<Slot>,
    /// Parked helpers wait here for the next publication.
    wake: Condvar,
    /// A lender waits here for the last helper to leave its job.
    left: Condvar,
}

/// The process-wide pool; helpers start on first use.
fn pool() -> &'static Pool {
    static POOL: OnceLock<Pool> = OnceLock::new();
    static SPAWN: Once = Once::new();
    let pool = POOL.get_or_init(|| Pool {
        helpers: std::thread::available_parallelism()
            .map_or(0, |n| n.get() - 1)
            .min(MAX_HELPERS),
        claimed: AtomicBool::new(false),
        published: AtomicU64::new(0),
        slot: Mutex::new(Slot {
            job: None,
            seq: 0,
            inside: 0,
            parked: 0,
        }),
        wake: Condvar::new(),
        left: Condvar::new(),
    });
    SPAWN.call_once(|| {
        for _ in 0..pool.helpers {
            // Detached on purpose: helpers live as long as the process,
            // and one that panics aborts it (see `serve`).  A helper the
            // host refuses only means fewer hands: the lender runs every
            // chunk nobody else claims.
            let _ = std::thread::Builder::new()
                .name("dense-helper".into())
                .spawn(move || pool.serve());
        }
    });
    pool
}

impl Pool {
    /// Every update of `Slot` is a single field write that leaves it
    /// valid, so a poisoned lock is still a sound one — and `Lent::drop`
    /// must not panic.
    fn lock(&self) -> MutexGuard<'_, Slot> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Take the helpers for one job, unless there are none or another
    /// lender holds them.  Acquire pairs with the Release in `Lent::drop`:
    /// the previous lender's helpers have all left by then.
    fn claim(&'static self) -> Option<&'static Self> {
        let free = self.helpers > 0
            && self
                .claimed
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
        free.then_some(self)
    }

    /// Publish `job` to the helpers; the returned guard retracts it.
    fn lend<'j>(&'static self, job: &'j Job<'j>) -> Lent {
        let mut slot = self.lock();
        let erased: *const Job<'j> = job;
        slot.job = Some(JobRef(erased.cast()));
        slot.seq += 1;
        self.published.store(slot.seq, Ordering::Relaxed);
        if slot.parked > 0 {
            self.wake.notify_all();
        }
        Lent(self)
    }

    /// A helper's life: wait for a publication, join it under the lock,
    /// run chunks, leave under the lock.
    fn serve(&self) {
        let mut seen = 0;
        loop {
            let spin_until = Instant::now() + SPIN;
            while self.published.load(Ordering::Relaxed) == seen && Instant::now() < spin_until {
                hint::spin_loop();
            }
            let mut slot = self.lock();
            while slot.seq == seen {
                slot.parked += 1;
                slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
                slot.parked -= 1;
            }
            seen = slot.seq;
            let Some(JobRef(job)) = slot.job else {
                // Retracted before this helper got here.
                continue;
            };
            slot.inside += 1;
            drop(slot);
            // SAFETY: the job was joined under the lock while published,
            // and its lender does not return (or unwind) past `Lent::drop`
            // until `inside` is back to zero.
            let job = unsafe { &*job };
            if catch_unwind(AssertUnwindSafe(|| job.drain())).is_err() {
                // The lender would wait forever on a helper that never
                // leaves, with its stack borrowed by the job.
                std::process::abort();
            }
            let mut slot = self.lock();
            slot.inside -= 1;
            if slot.inside == 0 && slot.job.is_none() {
                self.left.notify_one();
            }
        }
    }
}

/// A published job: dropping it retracts the job, waits until no helper
/// is inside, and releases the helpers to the next lender.
struct Lent(&'static Pool);

impl Drop for Lent {
    fn drop(&mut self) {
        let pool = self.0;
        let mut slot = pool.lock();
        slot.job = None;
        while slot.inside > 0 {
            slot = pool.left.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        drop(slot);
        pool.claimed.store(false, Ordering::Release);
    }
}
