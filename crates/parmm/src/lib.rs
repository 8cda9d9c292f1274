//! # parmm — Scalability of Parallel Algorithms for Matrix Multiplication
//!
//! A full reproduction of *Gupta & Kumar (ICPP 1993 / TR 91-54)* as a
//! Rust library: the six parallel matrix-multiplication formulations
//! the paper analyses, executable on a deterministic virtual-time
//! multicomputer simulator, together with the complete analytic
//! scalability layer (isoefficiency, equal-overhead crossovers, region
//! maps, all-port and technology analyses).
//!
//! ## Crates
//!
//! | crate | contents |
//! |---|---|
//! | [`mmsim`] | virtual-time message-passing multicomputer simulator |
//! | [`collectives`] | broadcast/allgather/reduce/… on the simulator |
//! | [`dense`] | serial matrices, kernels, block partitioning |
//! | [`algos`] | Simple, Cannon, Fox, Berntsen, DNS, GK — executable |
//! | [`model`] | Eq. 2–18, Table 1, isoefficiency, regions, crossovers |
//!
//! ## Quickstart
//!
//! ```
//! use parmm::prelude::*;
//!
//! // A 16-processor hypercube with nCUBE2-class constants.
//! let machine = Machine::new(Topology::hypercube_for(16), CostModel::ncube2());
//! let (a, b) = dense::gen::random_pair(16, 42);
//!
//! // Run Cannon's algorithm on it (simulated, with real data).
//! let out = algos::cannon(&machine, &a, &b).unwrap();
//! assert!(out.c.approx_eq(&(&a * &b), 1e-10));
//! println!("T_p = {} units, efficiency {:.2}", out.t_parallel, out.efficiency());
//!
//! // Ask the §10 "smart preprocessor" which algorithm to use instead.
//! let advisor = Advisor::new(MachineParams::ncube2());
//! let rec = advisor.recommend(16, 16).unwrap();
//! println!("advisor says: {}", rec.algorithm);
//! ```

pub mod advisor;

pub use advisor::{
    detection_of, executable_applicability, fault_rates_of, run_algorithm, run_on,
    run_recommendation, Advisor, Recommendation,
};

use algos::{AlgoError, SimOutcome};
use dense::Matrix;
use mmsim::Machine;

/// One-call multiplication: let the §10 advisor pick the best
/// executable algorithm for this machine and run it.
///
/// The advisor is [`Advisor::for_machine`]: its analytic machine
/// parameters are taken from the simulated machine's own cost model —
/// including any fault plan's default-link loss rates and detection
/// config, so a lossy or monitored machine automatically gets the
/// resilient variants — and it reasons about exactly the hardware the
/// run will use.
///
/// ```
/// use mmsim::{CostModel, Machine, Topology};
///
/// let machine = Machine::new(Topology::hypercube_for(64), CostModel::cm5());
/// let (a, b) = dense::gen::random_pair(32, 9);
/// let (rec, out) = parmm::multiply(&machine, &a, &b).unwrap();
/// assert!(out.c.approx_eq(&(&a * &b), 1e-10));
/// println!("{} took {} units", rec.algorithm, out.t_parallel);
/// ```
///
/// # Errors
/// Returns [`AlgoError`] if no candidate algorithm accepts this exact
/// `(n, p)` or the operands are malformed.
pub fn multiply(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<(Recommendation, SimOutcome), AlgoError> {
    Advisor::for_machine(machine).execute(machine, a, b)
}

/// One-stop imports for examples and downstream users.
pub mod prelude {
    pub use crate::advisor::{Advisor, Recommendation};
    pub use algos::{self, SimOutcome};
    pub use dense::{self, Matrix};
    pub use mmsim::{CostModel, Machine, Ports, Routing, Topology};
    pub use model::{self, Algorithm, MachineParams};
}
