//! # gemmd — a multi-tenant GEMM scheduling service
//!
//! The paper's scalability theory answers *"how many processors should
//! this multiplication use?"*; `gemmd` turns that answer into a
//! service.  A stream of GEMM jobs `(n, deadline?, priority, seed)`
//! arrives in virtual time and is scheduled onto **disjoint
//! partitions** of one [`mmsim::Machine`]:
//!
//! 1. the [`partition`] manager hands out aligned power-of-two rank
//!    blocks (subcubes of a hypercube, arbitrary blocks of a fully
//!    connected machine) with buddy-style split/merge;
//! 2. the [`sizing`] right-sizer walks the isoefficiency relation —
//!    predicted efficiency `E = n³ / (p · T_p)` from the §10 advisor's
//!    model — to pick the largest partition a job can keep busy at a
//!    target efficiency (default `E ≥ 0.5`), and the advisor picks the
//!    algorithm to run on it;
//! 3. the [`scheduler`] event loop admits, queues and places jobs under
//!    a pluggable [`policy`] (FIFO, shortest-predicted-time,
//!    priority-first), executing each on its partition with real data
//!    and folding the simulated `T_p` back into the service clock;
//! 4. the [`report`] layer captures per-job predicted-vs-actual times,
//!    queue waits, utilization and throughput, rendering
//!    deterministically to CSV.
//!
//! On top of that replay core sits the **online service** layer:
//! open-loop [`traffic`] generation (heavy-tailed mixes, diurnal rate
//! curves, burst episodes), [`slo`] latency percentiles and per-class
//! objectives, EDF scheduling plus small-GEMM [`batch`] coalescing for
//! tail latency, and a JSON-line TCP [`frontend`] (the `gemmd-serve`
//! binary) bridging wall-clock clients onto the virtual-time core.
//!
//! Everything is a pure function of `(machine, workload, policy,
//! config)`: two runs with the same seed are byte-identical, which the
//! property tests assert literally on the CSV bytes.
//!
//! ```
//! use gemmd::prelude::*;
//! use mmsim::{CostModel, Machine, Topology};
//!
//! let machine = Machine::new(Topology::hypercube(4), CostModel::ncube2());
//! let jobs = Workload::poisson(8, 2.0e5, &[(16, 1.0), (32, 1.0)], 7).generate();
//! let report = Scheduler::new(&machine, Config::default())
//!     .run(&jobs, &Fifo)
//!     .unwrap();
//! assert_eq!(report.records.len(), 8);
//! assert!(report.utilization() <= 1.0);
//! ```

pub mod batch;
pub mod frontend;
pub mod job;
pub mod partition;
pub mod policy;
pub mod report;
pub mod scheduler;
pub mod sizing;
pub mod slo;
pub mod traffic;
pub mod workload;

pub use batch::Batching;
pub use job::{JobRecord, JobSpec};
pub use partition::{Partition, PartitionManager};
pub use policy::{
    policy_by_name, EarliestDeadlineFirst, Fifo, Policy, PriorityFirst, QueuedJob,
    ShortestPredictedTime,
};
pub use report::{ServiceReport, TimePoint};
pub use scheduler::{Config, Scheduler, RETRY_BUDGET};
pub use sizing::{right_size, Sizing, SizingMode};
pub use slo::{analyze, JobClasses, Percentiles, Slo, SloOutcome, SloReport};
pub use traffic::{heavy_tailed_mix, Traffic, TrafficError};
pub use workload::{Workload, WorkloadError};

/// Errors surfaced by the service layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GemmdError {
    /// The machine's processor count is not a power of two, so the
    /// buddy partition manager cannot cover it.
    UnsupportedMachine {
        /// The offending processor count.
        p: usize,
    },
    /// No candidate algorithm accepts the job at any admissible
    /// partition size, so it can never be placed.
    Unschedulable {
        /// The job's matrix order.
        n: usize,
    },
    /// A job arrived before the previous one in the trace (the
    /// scheduler requires arrival-sorted workloads).
    UnsortedWorkload {
        /// Index of the out-of-order job.
        index: usize,
    },
    /// The simulated execution of a placed job failed.
    Execution {
        /// Job id.
        id: usize,
        /// The underlying algorithm error, rendered.
        detail: String,
    },
}

impl std::fmt::Display for GemmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GemmdError::UnsupportedMachine { p } => {
                write!(f, "machine size {p} is not a power of two")
            }
            GemmdError::Unschedulable { n } => {
                write!(
                    f,
                    "no algorithm accepts an n = {n} job at any partition size"
                )
            }
            GemmdError::UnsortedWorkload { index } => {
                write!(f, "workload is not sorted by arrival time at job {index}")
            }
            GemmdError::Execution { id, detail } => {
                write!(f, "job {id} failed to execute: {detail}")
            }
        }
    }
}

impl std::error::Error for GemmdError {}

/// One-stop imports for examples and tests.
pub mod prelude {
    pub use crate::batch::Batching;
    pub use crate::job::{JobRecord, JobSpec};
    pub use crate::partition::{Partition, PartitionManager};
    pub use crate::policy::{
        policy_by_name, EarliestDeadlineFirst, Fifo, Policy, PriorityFirst, ShortestPredictedTime,
    };
    pub use crate::report::{ServiceReport, TimePoint};
    pub use crate::scheduler::{Config, Scheduler};
    pub use crate::sizing::{right_size, Sizing, SizingMode};
    pub use crate::slo::{analyze, JobClasses, Percentiles, Slo, SloReport};
    pub use crate::traffic::{heavy_tailed_mix, Traffic};
    pub use crate::workload::Workload;
    pub use crate::GemmdError;
}
