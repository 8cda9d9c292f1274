//! # algos — the paper's parallel matrix-multiplication formulations
//!
//! Executable implementations of every algorithm analysed in
//! *Gupta & Kumar, "Scalability of Parallel Algorithms for Matrix
//! Multiplication"* (ICPP 1993), running on the [`mmsim`] virtual-time
//! simulator with real data movement:
//!
//! | module | algorithm | paper § | applicability |
//! |---|---|---|---|
//! | [`mod@simple`] | all-to-all-broadcast algorithm | 4.1 | `p = q²`, `q \| n` |
//! | [`mod@cannon`] | Cannon's algorithm | 4.2 | `p = q²`, `q \| n` |
//! | [`mod@fox`] | Fox's algorithm (tree & pipelined) | 4.3 | `p = q²`, `q \| n` |
//! | [`mod@berntsen`] | Berntsen's subcube algorithm | 4.4 | `p = 2^{3q}`, `p ≤ n^{3/2}`, `p^{2/3} \| n` |
//! | [`mod@dns`] | Dekel–Nassimi–Sahni (block variant) | 4.5 | `p = n²·r`, `r` a power of two, `r \| n` |
//! | [`mod@gk`] | the paper's GK variant of DNS | 4.6 | `p = 2^{3q}`, `p^{1/3} \| n` |
//!
//! Every entry point takes a [`mmsim::Machine`] and the two operand
//! matrices, simulates the full distributed execution (distribution
//! assumptions documented per algorithm), reassembles the product, and
//! returns a [`SimOutcome`] whose virtual `t_parallel` is comparable
//! against the paper's closed-form equations.
//!
//! **One schedule, two transports.**  Every formulation is written
//! once, as a public `*_on` schedule generic over [`mmsim::Transport`]:
//! the plain entry point is the schedule over [`mmsim::Plain`], and the
//! same function over [`mmsim::Reliable`] is its fault-tolerant form
//! (`parmm::run_on` dispatches either; [`mod@resilient`] keeps named
//! wrappers for five of them).  A new formulation is one file, not two
//! (CONTRIBUTING.md has the recipe).
//!
//! The correctness bar: for every admissible `(n, p, topology)` the
//! reassembled product equals the serial kernel's result up to
//! floating-point rounding, and the simulated time matches the paper's
//! equation for that algorithm (exactly where the algorithm is fully
//! synchronous, within a documented lower-order term elsewhere).

pub mod berntsen;
pub mod cannon;
pub mod common;
pub mod dns;
pub mod fox;
pub mod gk;
pub mod resilient;
pub mod simple;
pub mod verify;

pub use berntsen::berntsen;
pub use cannon::{cannon, cannon_gray};
pub use common::{AlgoError, SimOutcome};
pub use dns::{dns_block, dns_one_element};
pub use fox::{fox_async, fox_pipelined, fox_tree};
pub use gk::{gk, gk_improved};
pub use resilient::{
    cannon_resilient, dns_resilient, fox_pipelined_resilient, fox_resilient, fox_tree_resilient,
    gk_resilient,
};
pub use simple::simple;
pub use verify::{verify_outcome, verify_product, Verification};
