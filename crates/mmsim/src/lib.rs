//! # mmsim — a deterministic virtual-time message-passing multicomputer simulator
//!
//! This crate is the hardware substrate for the reproduction of
//! *Gupta & Kumar, "Scalability of Parallel Algorithms for Matrix
//! Multiplication"* (ICPP 1993).  The paper evaluates parallel matrix
//! multiplication algorithms on hypercube-class message-passing machines
//! (nCUBE2, CM-5) under the classic cost model
//!
//! ```text
//! time(send m words to a neighbour) = t_s + t_w * m
//! time(one multiply + one add)      = 1            (the unit of time)
//! ```
//!
//! We have no hypercube, so we simulate one.  Each of the `p` *virtual
//! processors* executes a user closure against a [`Proc`] handle, in
//! natural blocking message-passing style — the algorithms read like
//! the MPI programs the paper describes.  Real data moves through real
//! queues, so the numerics of the simulated algorithms can be verified
//! bit-for-bit against a serial kernel.  Two interchangeable engines
//! execute the ranks ([`Machine::with_engine`]):
//!
//! * [`EngineKind::Event`] (default on x86-64) — every rank a
//!   resumable fiber multiplexed over one scheduler thread by a
//!   virtual-time event queue: several times cheaper per message than
//!   a thread handoff at every measured p, and the only engine that
//!   reaches tens of thousands of ranks;
//! * [`EngineKind::Threaded`] (default elsewhere, where a fiber has no
//!   native context switch) — one OS thread per rank, parallel
//!   across host cores; the reference side of the differential suite
//!   (`tests/engine_differential.rs`), which pins virtual-time results
//!   bit-identical between the two at every overlapping p.
//!
//! Both engines deliver into the same per-rank mailboxes and diagnose
//! failures the same way: a receive that can never match panics with a
//! structured diagnosis once its peer has terminated, or once every
//! unfinished rank is blocked.  No host clock is read, so a slow host
//! can delay a run but never change its outcome.
//!
//! ## Virtual time
//!
//! Every processor carries a virtual clock:
//!
//! * [`Proc::compute`] advances the clock by the given number of work
//!   units (1 unit = one multiply–add, the paper's normalisation);
//! * [`Proc::send`] advances the *sender* by the message cost and stamps
//!   the message with its arrival time at the destination;
//! * [`Proc::recv`] advances the *receiver* to
//!   `max(own clock, message arrival)`; the gap is accounted as idle
//!   (synchronisation) time;
//! * [`Proc::send_multi`] models all-port hardware (paper §7): a batch of
//!   simultaneous sends advances the clock by the **maximum** of the
//!   individual message costs instead of their sum.
//!
//! Clock values depend only on message causality — never on host
//! scheduling — so every simulation is **deterministic**, and the
//! simulated parallel time `T_p = max_i clock_i` can be compared exactly
//! against the paper's closed-form equations.
//!
//! ## What is *not* modelled
//!
//! Link contention.  The paper's per-message charging is only valid for
//! algorithms whose communication steps are congestion-free on the target
//! topology (neighbour exchanges, disjoint-path permutations, subcube
//! broadcasts); every algorithm in the paper is of this kind, and so is
//! every algorithm built on this crate.  The [`Topology`] is still used
//! for neighbourship/route validation, hop counting, and the
//! store-and-forward ablation.
//!
//! ## Example
//!
//! ```
//! use mmsim::{CostModel, Machine, Topology};
//!
//! // 8-processor hypercube with t_s = 10, t_w = 3 (in flop units).
//! let machine = Machine::new(Topology::hypercube(3), CostModel::new(10.0, 3.0));
//! // Ring shift: everyone sends 4 words to rank+1 and receives from rank-1.
//! let report = machine.run(|proc| {
//!     let p = proc.p();
//!     let right = (proc.rank() + 1) % p;
//!     let left = (proc.rank() + p - 1) % p;
//!     proc.send(right, 7, vec![proc.rank() as f64; 4]);
//!     let msg = proc.recv(left, 7);
//!     proc.compute(100.0); // 100 multiply-add pairs
//!     msg.payload[0]
//! });
//! // Everyone computed for 100 units after one (t_s + 4 t_w) = 22-unit hop.
//! assert_eq!(report.t_parallel, 122.0);
//! assert_eq!(report.results[3], 2.0);
//! ```

pub mod cost;
pub mod engine;
pub mod fault;
pub mod recovery;
pub mod stats;
pub mod topology;
pub mod trace;
pub mod transport;

pub use cost::{CostModel, Ports, Routing};
pub use engine::error::SimError;
pub use engine::message::{tag, Message, Tag};
pub use engine::payload::Payload;
pub use engine::proc_ctx::{Proc, RELIABLE_FRAME_OVERHEAD};
pub use engine::{EngineKind, Machine, RunReport};
pub use fault::{Detection, Fate, FaultPlan, FaultPlanError, LinkFaults, TrafficClass};
pub use recovery::{Checkpoint, StateTransfer};
pub use stats::ProcStats;
pub use topology::{Topology, TopologyKind};
pub use trace::{Timeline, TraceEvent};
pub use transport::{Plain, Reliable, Transport};

/// Floating-point scalar used for message payloads and matrix elements.
///
/// The paper's CM-5 experiments used 4-byte words; we use `f64` for
/// robust verification against the serial kernel and count **elements**
/// as "words" for communication costs, exactly like the paper counts
/// matrix elements.
pub type Word = f64;
