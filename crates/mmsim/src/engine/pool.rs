//! The engine worker pool: long-lived host threads that virtual
//! processors are leased onto, amortising thread spawn/join across the
//! thousands of `Machine::run` calls a sweep performs.
//!
//! ## Why leasing, not multiplexing
//!
//! A virtual processor's `recv` blocks its host thread (the algorithm
//! closure is plain straight-line code, not a resumable coroutine), so
//! a run of `p` ranks needs `p` host threads for the duration of the
//! run — fewer would host-deadlock on any cyclic communication
//! pattern.  What *can* be shared is the threads' lifetime: workers
//! are created on demand, parked on a job channel between runs, and
//! leased in disjoint sets to whichever runs are active.  Workers that
//! sit idle past [`IDLE_REAP_AFTER`] retire, so the pool tracks recent
//! demand rather than pinning its all-time high-water mark of threads.
//! Virtual time never depends on host scheduling, so reuse cannot
//! perturb results (the determinism tests pin this).
//!
//! ## Soundness of the lifetime erasure
//!
//! [`run_on_pool`] sends workers a raw pointer to the caller's
//! rank-closure and blocks on a completion latch until every worker
//! has *returned from* the call (the latch is decremented strictly
//! after the closure finishes, panic or not).  The pointee and
//! everything it borrows therefore outlive all uses — the same
//! argument scoped threads make, with the wait moved from `join` to
//! the latch.

use std::sync::mpsc::{channel, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

/// Stack size for pool workers.  Algorithm closures keep their matrix
/// blocks on the heap, so a small stack suffices even for
/// 512-processor simulations.
const WORKER_STACK_BYTES: usize = 1 << 20;

/// Idle workers retire after this long without a lease, so a single
/// large-`p` run does not pin its high-water mark of parked threads
/// (1 MiB stack reservation each) for the rest of the process.  Long
/// enough that back-to-back sweep runs never pay a respawn.
const IDLE_REAP_AFTER: Duration = Duration::from_secs(30);

/// A countdown latch: `wait` returns once `count_down` has been called
/// `n` times.
struct Latch {
    remaining: Mutex<usize>,
    all_done: Condvar,
}

impl Latch {
    fn new(n: usize) -> Self {
        Self {
            remaining: Mutex::new(n),
            all_done: Condvar::new(),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        *left -= 1;
        if *left == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch poisoned");
        while *left > 0 {
            left = self.all_done.wait(left).expect("latch poisoned");
        }
    }
}

/// Decrements the latch when dropped, so a panic unwinding out of the
/// job still releases the waiting caller.
struct CountDownOnDrop(Arc<Latch>);

impl Drop for CountDownOnDrop {
    fn drop(&mut self) {
        self.0.count_down();
    }
}

/// One unit of leased work: call `*f` with `rank`, then count down.
struct Job {
    /// Lifetime-erased pointer to the caller's rank closure; valid
    /// until the caller's latch releases (see module docs).
    f: *const (dyn Fn(usize) + Sync),
    rank: usize,
    latch: Arc<Latch>,
}

// SAFETY: the pointee is `Sync` (shared calls from several threads are
// fine) and outlives the job per the latch protocol above.
unsafe impl Send for Job {}

/// An idle worker parked on its job channel.
struct Worker {
    /// Unique id; lets the worker thread find (and reap) its own entry
    /// in the idle list.
    id: usize,
    jobs: Sender<Job>,
}

/// Process-wide pool of idle workers.  Leases are exclusive: a worker
/// is either parked here or owned by exactly one in-flight run, so
/// concurrent `Machine::run` calls (parallel sweeps, parallel tests)
/// never share a worker.
static IDLE: OnceLock<Mutex<Vec<Worker>>> = OnceLock::new();

fn idle_pool() -> &'static Mutex<Vec<Worker>> {
    IDLE.get_or_init(|| Mutex::new(Vec::new()))
}

fn spawn_worker(seq: usize) -> Worker {
    spawn_worker_with_reap(seq, IDLE_REAP_AFTER)
}

fn spawn_worker_with_reap(seq: usize, reap_after: Duration) -> Worker {
    let (jobs, inbox) = channel::<Job>();
    std::thread::Builder::new()
        .name(format!("mmsim-worker-{seq}"))
        .stack_size(WORKER_STACK_BYTES)
        .spawn(move || loop {
            // Parked between leases; retires after sitting idle for
            // `reap_after`, and exits immediately if the sender is gone.
            match inbox.recv_timeout(reap_after) {
                Ok(job) => {
                    let _guard = CountDownOnDrop(Arc::clone(&job.latch));
                    // SAFETY: valid per the latch protocol (module docs).
                    let f = unsafe { &*job.f };
                    // Closure panics are caught *inside* `f` by the
                    // engine; a panic escaping here would poison no
                    // engine state but must not kill the worker for
                    // later leases.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(job.rank)));
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Retire — but only if we are actually parked in the
                    // idle list.  Removing our own entry under the pool
                    // lock makes retirement atomic with leasing: a lease
                    // drains workers from the list under the same lock
                    // before sending jobs, so once we're out of the list
                    // no job can be in flight.  Not finding ourselves
                    // means a lease holds us right now (its job may
                    // already be in the channel) — keep waiting.
                    let mut idle = idle_pool().lock().expect("pool poisoned");
                    if let Some(pos) = idle.iter().position(|w| w.id == seq) {
                        idle.remove(pos);
                        return;
                    }
                }
                Err(RecvTimeoutError::Disconnected) => return,
            }
        })
        .expect("failed to spawn engine pool worker");
    Worker { id: seq, jobs }
}

/// Monotonic worker id, for thread names only.
static SPAWNED: Mutex<usize> = Mutex::new(0);

/// Run `f(0), f(1), …, f(p-1)` concurrently on leased pool workers and
/// return when all calls have finished.  `p == 1` runs inline on the
/// caller's thread — no pool traffic for the degenerate case.
pub(crate) fn run_on_pool(p: usize, f: &(dyn Fn(usize) + Sync)) {
    if p <= 1 {
        if p == 1 {
            f(0);
        }
        return;
    }

    let mut leased: Vec<Worker> = {
        let mut idle = idle_pool().lock().expect("pool poisoned");
        let start = idle.len() - p.min(idle.len());
        idle.drain(start..).collect()
    };
    while leased.len() < p {
        let seq = {
            let mut n = SPAWNED.lock().expect("pool counter poisoned");
            *n += 1;
            *n - 1
        };
        leased.push(spawn_worker(seq));
    }

    let latch = Arc::new(Latch::new(p));
    // SAFETY: erase the borrow lifetime; `latch.wait()` below keeps the
    // pointee alive until every worker is done with it.
    let f_ptr: *const (dyn Fn(usize) + Sync) =
        unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(f) };
    for (rank, worker) in leased.iter().enumerate() {
        worker
            .jobs
            .send(Job {
                f: f_ptr,
                rank,
                latch: Arc::clone(&latch),
            })
            .expect("pool worker died while leased");
    }
    latch.wait();

    idle_pool()
        .lock()
        .expect("pool poisoned")
        .append(&mut leased);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_every_rank_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        run_on_pool(37, &|rank| {
            hits[rank].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn single_rank_runs_inline() {
        let caller = std::thread::current().id();
        let mut seen = None;
        let seen_ref = Mutex::new(&mut seen);
        run_on_pool(1, &|_| {
            **seen_ref.lock().unwrap() = Some(std::thread::current().id());
        });
        assert_eq!(seen, Some(caller));
    }

    #[test]
    fn workers_are_reused_across_runs() {
        let count = AtomicUsize::new(0);
        run_on_pool(8, &|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        let idle_after_first = idle_pool().lock().unwrap().len();
        run_on_pool(8, &|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 16);
        // The second lease drew from the idle pool rather than spawning
        // eight more workers on top of it.
        assert!(idle_pool().lock().unwrap().len() <= idle_after_first + 8);
        assert!(idle_after_first >= 8);
    }

    #[test]
    fn borrowed_state_survives_until_return() {
        // The closure borrows a stack vector; the latch must keep it
        // alive until every worker finished writing.
        let slots: Vec<Mutex<usize>> = (0..16).map(|_| Mutex::new(0)).collect();
        run_on_pool(16, &|rank| {
            *slots[rank].lock().unwrap() = rank + 1;
        });
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(*s.lock().unwrap(), i + 1);
        }
    }

    #[test]
    fn idle_workers_retire_after_reap_timeout() {
        // Plant a worker with a tiny reap window directly in the idle
        // pool and watch it remove itself.  A huge id keeps it out of
        // the way of ids minted by concurrently running tests.
        let worker = spawn_worker_with_reap(usize::MAX, Duration::from_millis(20));
        let id = worker.id;
        idle_pool().lock().unwrap().push(worker);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while idle_pool().lock().unwrap().iter().any(|w| w.id == id) {
            assert!(
                std::time::Instant::now() < deadline,
                "idle worker was never reaped"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn retired_worker_is_replaced_on_next_lease() {
        // Retirement must not wedge the pool: plant a short-fuse worker,
        // let it reap itself, then lease right through the gap — the
        // pool respawns on demand and the run completes normally.
        let worker = spawn_worker_with_reap(usize::MAX - 1, Duration::from_millis(20));
        let id = worker.id;
        idle_pool().lock().unwrap().push(worker);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while idle_pool().lock().unwrap().iter().any(|w| w.id == id) {
            assert!(std::time::Instant::now() < deadline, "worker never retired");
            std::thread::sleep(Duration::from_millis(5));
        }
        let hits = AtomicUsize::new(0);
        run_on_pool(6, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn leased_worker_outlives_reap_timeout_and_still_runs_its_job() {
        // The keep-waiting branch: a worker whose reap timer fires while
        // it is *leased* (absent from the idle list) must not exit — its
        // job may already be in flight.  Hold one out of the pool for
        // several reap windows, then deliver the job late.
        let worker = spawn_worker_with_reap(usize::MAX - 2, Duration::from_millis(20));
        std::thread::sleep(Duration::from_millis(120));
        let hits = Arc::new(AtomicUsize::new(0));
        let hits2 = Arc::clone(&hits);
        let job: Box<dyn Fn(usize) + Sync> = Box::new(move |_| {
            hits2.fetch_add(1, Ordering::SeqCst);
        });
        let latch = Arc::new(Latch::new(1));
        worker
            .jobs
            .send(Job {
                f: &*job as *const (dyn Fn(usize) + Sync),
                rank: 0,
                latch: Arc::clone(&latch),
            })
            .expect("worker retired while leased");
        latch.wait();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        // Park it in the idle list so it can retire and not leak.
        idle_pool().lock().unwrap().push(worker);
    }

    #[test]
    fn panicking_job_releases_the_latch_and_keeps_workers() {
        run_on_pool(4, &|rank| {
            if rank == 2 {
                panic!("escaped engine panic");
            }
        });
        // The pool survives and the panicked worker is reusable.
        let hits = AtomicUsize::new(0);
        run_on_pool(4, &|_| {
            hits.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(hits.load(Ordering::SeqCst), 4);
    }
}
