//! Stackful fibers: the suspendable rank tasks of the event engine.
//!
//! The algorithm closures the engine executes are plain blocking code
//! (`recv` does not return until a matching message exists), so
//! multiplexing thousands of virtual ranks onto one scheduler thread
//! requires suspending a rank *mid-call* and resuming it later with its
//! whole stack intact — a stackful coroutine.  This module provides the
//! minimal primitive: a [`Fiber`] owns a heap-allocated stack and an
//! entry closure; [`Fiber::resume`] runs it until it calls [`suspend`]
//! (or returns), and control transfers are plain userspace jumps — no
//! syscalls, no futexes, no host-scheduler involvement.
//!
//! ## The x86-64 switch
//!
//! On x86-64 the switch is ~12 instructions of `global_asm!`: push the
//! SysV callee-saved registers, swap `rsp`, pop, `ret`.  A new fiber's
//! stack is seeded so the first resume "returns" into a trampoline that
//! moves the entry-function argument into `rdi` and calls it; the
//! seeded frame zeroes `rbp` so frame-pointer walks terminate cleanly
//! inside a fiber, and keeps `rsp` on the ABI alignment.  Entry
//! functions never unwind across the assembly: the closure runs under
//! `catch_unwind`, exactly like a threaded rank's body.
//!
//! On other architectures the same API is backed by a parked OS thread
//! per fiber (resume/suspend become condvar handoffs).  Semantics are
//! identical — exactly one of {scheduler, fiber} runs at a time, with a
//! happens-before edge at every switch — only the switch cost differs.
//!
//! ## Stack reuse
//!
//! Stacks come from a process-wide pool (`STACK_POOL`).  A finished
//! fiber's stack is *retained*, never freed: every run at the same p
//! re-leases the stacks the previous run touched, so a sweep performs
//! no `mmap`/`munmap`, faults no fresh pages and grows no RSS after its
//! first run, and a run takes all its leases under one pool-lock
//! acquisition.  What stays resident is the high-water mark of pages
//! fibers actually touched — a few KiB per stack, since reservations
//! are lazily committed (a fresh allocation is zero pages until used) —
//! not p × the 1 MiB reservation.
//!
//! ## Guard page
//!
//! Each reservation is page-aligned and carries one extra page below
//! the usable stack, `mprotect`ed `PROT_NONE`: a rank closure that
//! overflows its fiber stack faults (the process dies by `SIGSEGV`)
//! instead of silently scribbling over the neighbouring allocation.
//! The guard costs one syscall per stack, once per process, and no
//! memory.  It also splits the kernel mapping in two, so a process is
//! limited to roughly `vm.max_map_count / 2` guarded stacks (≈ 32k by
//! default); when the kernel refuses, the stack runs unguarded rather
//! than failing the run.
//!
//! ## Safety contract
//!
//! The scheduler must drive every fiber to completion before dropping
//! it: dropping a *suspended* fiber abandons a stack whose frames
//! still own live values.  That is memory-safe here (a suspended fiber
//! is never resumed again, and nothing outside the fiber points into
//! its stack) but leaks the frames' resources, so [`Fiber::drop`] leaks
//! the stack too rather than recycling potentially-watched memory —
//! and debug builds flag it.  Nothing cancels a parked fiber: a run
//! whose unfinished ranks are all parked is a deadlock, and the
//! network's election resumes one parked rank at a time into its
//! diagnosis panic, so every fiber returns and the leak path is
//! unreachable short of an engine bug.

// =====================================================================
// x86-64: userspace context switch.
// =====================================================================
#[cfg(target_arch = "x86_64")]
mod imp {
    use std::alloc::{alloc, handle_alloc_error, Layout};
    use std::cell::Cell;
    use std::ptr::NonNull;
    use std::sync::Mutex;

    /// The x86-64 base page: allocation alignment and guard size.
    const PAGE: usize = 4096;

    #[cfg(unix)]
    extern "C" {
        /// The kernel's `mprotect(2)` — the one libc symbol this crate
        /// declares by hand (std links libc on every unix target).
        fn mprotect(addr: *mut std::ffi::c_void, len: usize, prot: i32) -> i32;
    }

    /// One fiber stack: `usable` bytes above one guard page.  Never
    /// freed — a finished fiber parks it in `STACK_POOL` and a
    /// suspended one leaks it — so the guard never has to be lifted.
    pub(super) struct Stack {
        base: NonNull<u8>,
        usable: usize,
        /// Whether the kernel accepted the guard (test observability).
        #[cfg_attr(not(test), allow(dead_code))]
        guarded: bool,
    }

    // SAFETY: a `Stack` exclusively owns its allocation, which is plain
    // bytes with no thread affinity.
    unsafe impl Send for Stack {}

    impl Stack {
        fn alloc(usable: usize) -> Self {
            // Room for the seeded first frame, whatever the caller asks.
            assert!(usable >= PAGE, "fiber stack of {usable} bytes is too small");
            let layout = usable
                .checked_add(PAGE)
                .and_then(|bytes| Layout::from_size_align(bytes, PAGE).ok())
                .expect("fiber stack size overflows the address space");
            // Deliberately uninitialised: zeroing would fault in every
            // page of the reservation up front (p × 1 MiB is tens of GiB
            // at massive p), while the allocator's fresh pages (a new
            // mapping, or heap grown for the stack, as on glibc once the
            // engine retains freed heap) are demand-zeroed by the kernel
            // and a fiber touches only the
            // few KiB it actually uses.  The memory is never read as
            // values — it is machine stack, seeded before the first
            // switch.
            // SAFETY: the layout has non-zero size.
            let base = unsafe { alloc(layout) };
            let Some(base) = NonNull::new(base) else {
                handle_alloc_error(layout)
            };
            // The lowest page becomes the guard.  A refusal (ENOMEM
            // once the process holds `vm.max_map_count` mappings: each
            // guard splits one) leaves the stack usable, unguarded.
            #[cfg(unix)]
            // SAFETY: `[base, base + PAGE)` is page-aligned and inside
            // the allocation just made, which nothing else references;
            // PROT_NONE (0) only revokes access to it.
            let guarded = unsafe { mprotect(base.as_ptr().cast(), PAGE, 0) == 0 };
            #[cfg(not(unix))]
            let guarded = false;
            Self {
                base,
                usable,
                guarded,
            }
        }

        /// One past the highest usable byte, on the ABI's 16-byte
        /// alignment.
        fn top(&self) -> usize {
            (self.base.as_ptr() as usize + PAGE + self.usable) & !15
        }
    }

    /// Finished fibers' stacks, keyed by usable size (one size per
    /// process in practice; tests construct odd ones).
    static STACK_POOL: Mutex<Vec<(usize, Vec<Stack>)>> = Mutex::new(Vec::new());

    /// `n` stacks of `usable` bytes: parked ones first (one lock
    /// acquisition for the lot), fresh allocations for the rest.
    fn lease_stacks(usable: usize, n: usize) -> Vec<Stack> {
        let mut stacks = {
            let mut pool = STACK_POOL.lock().expect("fiber stack pool poisoned");
            match pool.iter_mut().find(|(size, _)| *size == usable) {
                Some((_, parked)) => parked.split_off(parked.len().saturating_sub(n)),
                None => Vec::new(),
            }
        };
        stacks.resize_with(n, || Stack::alloc(usable));
        stacks
    }

    fn release_stack(stack: Stack) {
        let mut pool = STACK_POOL.lock().expect("fiber stack pool poisoned");
        match pool.iter_mut().find(|(size, _)| *size == stack.usable) {
            Some((_, parked)) => parked.push(stack),
            None => pool.push((stack.usable, vec![stack])),
        }
    }

    /// How many stacks of `usable` bytes are parked, and whether all of
    /// them are guarded (test observability).
    #[cfg(test)]
    pub(super) fn parked(usable: usize) -> (usize, bool) {
        let pool = STACK_POOL.lock().expect("fiber stack pool poisoned");
        pool.iter()
            .find(|(size, _)| *size == usable)
            .map_or((0, true), |(_, parked)| {
                (parked.len(), parked.iter().all(|stack| stack.guarded))
            })
    }

    std::arch::global_asm!(
        // fn mmsim_fiber_switch(save: *mut usize /* rdi */,
        //                       load: *const usize /* rsi */)
        //
        // Saves the SysV callee-saved register set and stack pointer of
        // the caller into `*save`, installs the stack pointer from
        // `*load`, restores the register set saved there, and returns —
        // on the *other* stack.  Caller-saved registers need no help:
        // from the compiler's view this is an ordinary `extern "C"`
        // call.  `endbr64` keeps the entry valid under CET-IBT (a NOP
        // elsewhere).
        ".text",
        ".globl mmsim_fiber_switch",
        ".hidden mmsim_fiber_switch",
        ".type mmsim_fiber_switch, @function",
        ".align 16",
        "mmsim_fiber_switch:",
        "endbr64",
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov qword ptr [rdi], rsp",
        "mov rsp, qword ptr [rsi]",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
        ".size mmsim_fiber_switch, . - mmsim_fiber_switch",
    );

    std::arch::global_asm!(
        // First-resume trampoline.  A fresh fiber's seeded stack makes
        // `mmsim_fiber_switch` "return" here with the entry function in
        // `rbx` and its argument in `r12` (both callee-saved, so they
        // survive the switch's pops), and `rsp ≡ 0 (mod 16)` — the call
        // below then gives the entry the ABI-required alignment.  The
        // entry never returns (it switches away for good); `ud2` makes
        // a violation loud instead of a stack walk into the fake frame.
        ".text",
        ".globl mmsim_fiber_start",
        ".hidden mmsim_fiber_start",
        ".type mmsim_fiber_start, @function",
        ".align 16",
        "mmsim_fiber_start:",
        "endbr64",
        "mov rdi, r12",
        "call rbx",
        "ud2",
        ".size mmsim_fiber_start, . - mmsim_fiber_start",
    );

    extern "C" {
        fn mmsim_fiber_switch(save: *mut usize, load: *const usize);
        fn mmsim_fiber_start();
    }

    thread_local! {
        /// The fiber currently running on this thread (null between
        /// resumes); what [`suspend`] switches out of.
        static CURRENT: Cell<*mut Inner> = const { Cell::new(std::ptr::null_mut()) };
    }

    /// Control block of one fiber.  Boxed and never moved: `CURRENT`
    /// and the seeded stack hold its address across switches.
    struct Inner {
        /// Saved stack pointer of the suspended side.
        fiber_rsp: usize,
        /// Saved stack pointer of the scheduler while the fiber runs.
        sched_rsp: usize,
        entry: Option<Box<dyn FnOnce()>>,
        finished: bool,
        stack: Option<Stack>,
    }

    pub(crate) struct Fiber {
        inner: Box<Inner>,
    }

    /// The call `mmsim_fiber_start` makes: unbox and run the entry
    /// closure (panics contained), mark the fiber finished, and switch
    /// back to the scheduler permanently.
    unsafe extern "C" fn fiber_entry(inner: *mut Inner) {
        {
            let inner = &mut *inner;
            let entry = inner.entry.take().expect("fiber entry already taken");
            // The engine's job body catches everything itself; this
            // outer catch guarantees no unwind ever crosses the
            // assembly frames even if that changes.
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry));
            inner.finished = true;
        }
        mmsim_fiber_switch(
            std::ptr::addr_of_mut!((*inner).fiber_rsp),
            std::ptr::addr_of!((*inner).sched_rsp),
        );
        unreachable!("finished fiber resumed");
    }

    impl Fiber {
        /// One fiber per entry closure, each on a `stack_bytes` stack.
        pub(crate) fn spawn_all(stack_bytes: usize, entries: Vec<Box<dyn FnOnce()>>) -> Vec<Self> {
            lease_stacks(stack_bytes, entries.len())
                .into_iter()
                .zip(entries)
                .map(|(stack, entry)| Self::on_stack(stack, entry))
                .collect()
        }

        fn on_stack(stack: Stack, entry: Box<dyn FnOnce()>) -> Self {
            let mut inner = Box::new(Inner {
                fiber_rsp: 0,
                sched_rsp: 0,
                entry: Some(entry),
                finished: false,
                stack: None,
            });
            // Seed the stack (see the trampoline comment): from the
            // 16-aligned top downward — the trampoline as the switch's
            // return target, then the six pop slots (rbp, rbx = entry
            // fn, r12 = argument, r13–r15 = 0).  Seven words, so the
            // switch's `ret` leaves `rsp` at the 16-aligned top: the
            // trampoline's `call` then gives the entry function the
            // ABI state (`rsp ≡ 8 (mod 16)` at its first instruction)
            // that compiled code — and the SSE-aligned panic machinery
            // it may invoke — depends on.
            let top = stack.top();
            let arg: *mut Inner = &mut *inner;
            let seed: [usize; 7] = [
                0,                                       // r15
                0,                                       // r14
                0,                                       // r13
                arg as usize,                            // r12 → rdi
                fiber_entry as *const () as usize,       // rbx → call target
                0,                                       // rbp: frame-walk terminator
                mmsim_fiber_start as *const () as usize, // switch's `ret` target
            ];
            let base = (top - seed.len() * 8) as *mut usize;
            // SAFETY: the seed region lies inside the owned stack's
            // usable part ([top-56, top) with top ≤ end, and at least
            // a page of it by `Stack::alloc`'s check), and `arg` stays
            // valid because `Inner` is boxed and never moved.
            unsafe { std::ptr::copy_nonoverlapping(seed.as_ptr(), base, seed.len()) };
            inner.fiber_rsp = base as usize;
            inner.stack = Some(stack);
            Self { inner }
        }

        /// Run the fiber until it suspends or its entry returns.
        /// Returns `true` once the fiber has finished (after which
        /// resuming again is a bug).
        pub(crate) fn resume(&mut self) -> bool {
            assert!(!self.inner.finished, "resumed a finished fiber");
            let inner: *mut Inner = &mut *self.inner;
            let prev = CURRENT.with(|c| c.replace(inner));
            // SAFETY: `inner` is a live boxed control block whose
            // seeded (or previously saved) `fiber_rsp` points into its
            // own stack allocation; the switch protocol guarantees the
            // fiber switches back through `sched_rsp` exactly once per
            // resume.
            unsafe {
                mmsim_fiber_switch(
                    std::ptr::addr_of_mut!((*inner).sched_rsp),
                    std::ptr::addr_of!((*inner).fiber_rsp),
                );
            }
            CURRENT.with(|c| c.set(prev));
            self.inner.finished
        }

        pub(crate) fn finished(&self) -> bool {
            self.inner.finished
        }
    }

    impl Drop for Fiber {
        fn drop(&mut self) {
            let stack = self.inner.stack.take().expect("fiber stack already taken");
            if self.inner.finished {
                release_stack(stack);
            } else {
                // Suspended frames still own values; recycling the
                // stack would overwrite them under whatever they point
                // at, so it leaks instead (a `Stack` is never freed).
                // Unreachable short of an engine bug — the deadlock
                // election drives every parked fiber to completion.
                debug_assert!(false, "dropped a suspended fiber (engine bug)");
            }
        }
    }

    /// Switch from the running fiber back to its scheduler.  The next
    /// [`Fiber::resume`] returns control to just after this call.
    ///
    /// # Panics
    /// Panics when called outside a fiber.
    pub(crate) fn suspend() {
        let inner = CURRENT.with(Cell::get);
        assert!(
            !inner.is_null(),
            "fiber::suspend called outside a running fiber"
        );
        // SAFETY: inside a resume, `inner` is the live control block of
        // the running fiber and `sched_rsp` holds the scheduler context
        // saved by that resume.
        unsafe {
            mmsim_fiber_switch(
                std::ptr::addr_of_mut!((*inner).fiber_rsp),
                std::ptr::addr_of!((*inner).sched_rsp),
            );
        }
    }
}

// =====================================================================
// Portable fallback: one parked OS thread per fiber.  Condvar handoffs
// preserve the exactly-one-side-runs protocol (and its happens-before
// edges), so the event scheduler behaves identically — only slower.
// =====================================================================
#[cfg(not(target_arch = "x86_64"))]
mod imp {
    use std::sync::{Arc, Condvar, Mutex};

    #[derive(Clone, Copy, PartialEq, Eq)]
    enum Turn {
        Scheduler,
        Fiber,
        Finished,
    }

    struct Shared {
        turn: Mutex<Turn>,
        handoff: Condvar,
    }

    impl Shared {
        fn give_turn(&self, to: Turn) {
            *self.turn.lock().expect("fiber handoff poisoned") = to;
            self.handoff.notify_all();
        }

        fn await_turn(&self, want: Turn) -> Turn {
            let mut turn = self.turn.lock().expect("fiber handoff poisoned");
            while !(*turn == want || *turn == Turn::Finished) {
                turn = self.handoff.wait(turn).expect("fiber handoff poisoned");
            }
            *turn
        }
    }

    thread_local! {
        static CURRENT: std::cell::RefCell<Option<Arc<Shared>>> =
            const { std::cell::RefCell::new(None) };
    }

    /// Moves a non-`Send` entry closure onto the fiber thread.  Sound
    /// for the same reason scoped threads are: the handoff protocol
    /// gives every access a happens-before edge, and exactly one side
    /// runs at a time.
    struct AssertSend<T>(T);
    unsafe impl<T> Send for AssertSend<T> {}

    pub(crate) struct Fiber {
        shared: Arc<Shared>,
        finished: bool,
    }

    impl Fiber {
        /// One fiber per entry closure.  The stacks (and their guard
        /// pages) belong to the OS threads, so there is no pool here.
        pub(crate) fn spawn_all(stack_bytes: usize, entries: Vec<Box<dyn FnOnce()>>) -> Vec<Self> {
            entries
                .into_iter()
                .map(|entry| Self::new(stack_bytes, entry))
                .collect()
        }

        fn new(stack_bytes: usize, entry: Box<dyn FnOnce()>) -> Self {
            let shared = Arc::new(Shared {
                turn: Mutex::new(Turn::Scheduler),
                handoff: Condvar::new(),
            });
            let theirs = Arc::clone(&shared);
            let entry = AssertSend(entry);
            std::thread::Builder::new()
                .name("mmsim-fiber".into())
                .stack_size(stack_bytes)
                .spawn(move || {
                    let entry = entry;
                    theirs.await_turn(Turn::Fiber);
                    CURRENT.with(|c| *c.borrow_mut() = Some(Arc::clone(&theirs)));
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(entry.0));
                    CURRENT.with(|c| *c.borrow_mut() = None);
                    theirs.give_turn(Turn::Finished);
                })
                .expect("failed to spawn fallback fiber thread");
            Self {
                shared,
                finished: false,
            }
        }

        pub(crate) fn resume(&mut self) -> bool {
            assert!(!self.finished, "resumed a finished fiber");
            self.shared.give_turn(Turn::Fiber);
            if self.shared.await_turn(Turn::Scheduler) == Turn::Finished {
                self.finished = true;
            }
            self.finished
        }

        pub(crate) fn finished(&self) -> bool {
            self.finished
        }
    }

    pub(crate) fn suspend() {
        let shared = CURRENT.with(|c| c.borrow().clone());
        let shared = shared.expect("fiber::suspend called outside a running fiber");
        shared.give_turn(Turn::Scheduler);
        shared.await_turn(Turn::Fiber);
    }
}

pub(crate) use imp::{suspend, Fiber};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RANK_STACK_BYTES;
    use std::cell::{Cell, RefCell};
    use std::rc::Rc;

    fn new_fiber(stack_bytes: usize, entry: Box<dyn FnOnce()>) -> Fiber {
        let mut fibers = Fiber::spawn_all(stack_bytes, vec![entry]);
        fibers.pop().expect("one entry, one fiber")
    }

    #[test]
    fn runs_to_completion_without_suspending() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let inner = Rc::clone(&log);
        let entry: Box<dyn FnOnce()> = Box::new(move || inner.borrow_mut().push(42));
        // SAFETY: the fiber completes before `log` is dropped — resume
        // below runs it to the end within this scope.
        let entry: Box<dyn FnOnce()> = unsafe { std::mem::transmute(entry) };
        let mut fiber = new_fiber(RANK_STACK_BYTES, entry);
        assert!(!fiber.finished());
        assert!(fiber.resume());
        assert!(fiber.finished());
        assert_eq!(*log.borrow(), vec![42]);
    }

    #[test]
    fn suspend_and_resume_interleave() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let inner = Rc::clone(&log);
        let entry: Box<dyn FnOnce()> = Box::new(move || {
            inner.borrow_mut().push(1);
            suspend();
            inner.borrow_mut().push(3);
            suspend();
            inner.borrow_mut().push(5);
        });
        // SAFETY: driven to completion below, within `log`'s lifetime.
        let entry: Box<dyn FnOnce()> = unsafe { std::mem::transmute(entry) };
        let mut fiber = new_fiber(RANK_STACK_BYTES, entry);
        assert!(!fiber.resume());
        log.borrow_mut().push(2);
        assert!(!fiber.resume());
        log.borrow_mut().push(4);
        assert!(fiber.resume());
        assert_eq!(*log.borrow(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn panicking_entry_is_contained_and_finishes() {
        let entry: Box<dyn FnOnce()> = Box::new(|| panic!("inside fiber"));
        let mut fiber = new_fiber(RANK_STACK_BYTES, entry);
        assert!(fiber.resume(), "a panicked fiber still finishes");
    }

    #[test]
    fn many_fibers_interleave_deterministically() {
        // 64 fibers each append (id, round) twice with a suspend in
        // between; resuming them round-robin must interleave exactly.
        const N: usize = 64;
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut fibers: Vec<Fiber> = (0..N)
            .map(|id| {
                let inner = Rc::clone(&log);
                let entry: Box<dyn FnOnce()> = Box::new(move || {
                    inner.borrow_mut().push((id, 0));
                    suspend();
                    inner.borrow_mut().push((id, 1));
                });
                // SAFETY: all fibers are driven to completion below.
                let entry: Box<dyn FnOnce()> = unsafe { std::mem::transmute(entry) };
                new_fiber(RANK_STACK_BYTES, entry)
            })
            .collect();
        for f in &mut fibers {
            assert!(!f.resume());
        }
        for f in &mut fibers {
            assert!(f.resume());
        }
        let expect: Vec<(usize, usize)> = (0..N)
            .map(|id| (id, 0))
            .chain((0..N).map(|id| (id, 1)))
            .collect();
        assert_eq!(*log.borrow(), expect);
    }

    #[test]
    fn deep_call_stacks_survive_suspension() {
        fn descend(depth: usize, acc: u64) -> u64 {
            if depth == 0 {
                suspend();
                acc
            } else {
                // Non-tail so every level keeps a live frame across
                // the suspension point.
                descend(depth - 1, acc + depth as u64) + 1
            }
        }
        let out = Rc::new(Cell::new(0u64));
        let inner = Rc::clone(&out);
        let entry: Box<dyn FnOnce()> = Box::new(move || inner.set(descend(100, 0)));
        // SAFETY: driven to completion below.
        let entry: Box<dyn FnOnce()> = unsafe { std::mem::transmute(entry) };
        let mut fiber = new_fiber(RANK_STACK_BYTES, entry);
        assert!(!fiber.resume());
        assert!(fiber.resume());
        assert_eq!(out.get(), (1..=100u64).sum::<u64>() + 100);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn finished_stacks_return_to_the_pool() {
        // A size no other test leases, so parallel tests (which share
        // the process-wide pool) cannot take them out from under us;
        // more stacks than the pool's old cap of 2048 ever kept.
        const UNIQUE: usize = 192 << 10;
        const N: usize = 3000;
        let noop = || -> Vec<Box<dyn FnOnce()>> {
            (0..N)
                .map(|_| Box::new(|| {}) as Box<dyn FnOnce()>)
                .collect()
        };
        let mut fibers = Fiber::spawn_all(UNIQUE, noop());
        assert!(fibers.iter_mut().all(Fiber::resume));
        drop(fibers);
        assert_eq!(
            imp::parked(UNIQUE).0,
            N,
            "every finished fiber parks its stack"
        );
        // The next same-size leases get exactly those back: the pool
        // empties, and refills to N — not beyond — once they finish.
        let mut again = Fiber::spawn_all(UNIQUE, noop());
        assert_eq!(imp::parked(UNIQUE).0, 0);
        assert!(again.iter_mut().all(Fiber::resume));
        drop(again);
        assert_eq!(imp::parked(UNIQUE).0, N, "re-leasing allocated nothing");
    }

    /// The child half of `overflow_faults_instead_of_scribbling`: a
    /// rank closure that recurses until its fiber stack runs out.
    #[test]
    #[ignore = "overflows its stack by design; run as a child by overflow_faults_instead_of_scribbling"]
    fn overflowing_rank_closure() {
        #[inline(never)]
        fn descend(depth: u64) -> u64 {
            let frame = std::hint::black_box([depth; 16]);
            if depth == u64::MAX {
                return 0;
            }
            descend(depth + 1) + frame[0]
        }
        let machine = crate::Machine::new(
            crate::Topology::fully_connected(2),
            crate::CostModel::unit(),
        )
        .with_engine(crate::EngineKind::Event);
        machine.run(|proc| descend(proc.rank() as u64));
    }

    #[test]
    #[cfg(all(unix, target_arch = "x86_64"))]
    fn overflow_faults_instead_of_scribbling() {
        use std::os::unix::process::ExitStatusExt;
        // The kernel accepted the guard (a size no other test leases)…
        const UNIQUE: usize = 160 << 10;
        let mut fiber = new_fiber(UNIQUE, Box::new(|| {}));
        assert!(fiber.resume());
        drop(fiber);
        assert_eq!(imp::parked(UNIQUE), (1, true));
        // …under which a bounded deep stack is fine (`deep_call_stacks_
        // survive_suspension`) and an unbounded one kills the process,
        // which is why it runs in a child.
        let child = std::process::Command::new(std::env::current_exe().expect("test binary path"))
            .args([
                "--exact",
                "engine::fiber::tests::overflowing_rank_closure",
                "--ignored",
            ])
            .output()
            .expect("re-executing the test binary");
        assert!(
            child.status.signal().is_some(),
            "overflowing child must die by signal, got {:?}\n{}",
            child.status,
            String::from_utf8_lossy(&child.stdout)
        );
    }
}
