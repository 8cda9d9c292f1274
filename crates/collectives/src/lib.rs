//! # collectives — communication primitives on the simulated machine
//!
//! The paper's algorithms are built from a small set of collective
//! operations: one-to-all broadcast, all-to-all broadcast (allgather),
//! reductions, and circular shifts.  This crate implements them over
//! [`mmsim::Proc`] in natural blocking style, together with an
//! *analytic* cost formula for each (module [`analytic`]).
//!
//! Because the engine charges exactly the `t_s + t_w·m` model the
//! formulas assume, the simulated completion time of every collective
//! equals its formula **exactly** — the test suites assert this, which
//! pins the simulator to the paper's cost model.
//!
//! ## Groups and tags
//!
//! Collectives run over a [`Group`]: an ordered list of ranks, each
//! participant passing the same list.  Tree-structured collectives
//! require the group size to be a power of two (they mirror hypercube
//! subcubes, which is all the paper needs); ring variants accept any
//! size.
//!
//! Every collective call takes a `phase` number that namespaces its
//! message tags.  Two collectives that could be in flight concurrently
//! on the same processor must use different phases.

pub mod analytic;
pub mod group;
pub mod ops;
pub mod reliable;

pub use group::Group;
pub use ops::{
    all_reduce_sum, all_to_all_personalized, allgather_hypercube, allgather_hypercube_on,
    allgather_ring, allgather_ring_on, barrier, broadcast, broadcast_on,
    broadcast_scatter_allgather, broadcast_scatter_allgather_on, gather, gather_on,
    reduce_scatter_sum, reduce_scatter_sum_on, reduce_sum, reduce_sum_on, scan_sum, scatter,
};
pub use reliable::{barrier_reliable, broadcast_reliable, reduce_sum_reliable};
