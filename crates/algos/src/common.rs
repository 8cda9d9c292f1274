//! Shared infrastructure for the parallel algorithms: outcome type,
//! applicability errors, the run entry that lends idle host cores to the
//! kernel, and mesh bookkeeping.

use dense::{kernel, Matrix};
use mmsim::{Machine, Proc, ProcStats, RunReport, SimError};

/// Why an algorithm cannot run on a given `(n, p)` combination, or —
/// for the fault-tolerant variants — why a simulation did not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgoError {
    /// `p` violates the algorithm's structural requirement
    /// (perfect square, power-of-eight cube, `n²·r`, …).
    BadProcessorCount {
        /// Number of processors requested.
        p: usize,
        /// Human-readable requirement.
        requirement: String,
    },
    /// `n` is not compatible with the block partition for this `p`.
    BadMatrixSize {
        /// Matrix dimension requested.
        n: usize,
        /// Human-readable requirement.
        requirement: String,
    },
    /// The concurrency limit of the algorithm is exceeded
    /// (e.g. Berntsen's `p ≤ n^{3/2}`, DNS's `p ≤ n³`).
    ConcurrencyExceeded {
        /// Matrix dimension requested.
        n: usize,
        /// Number of processors requested.
        p: usize,
        /// Human-readable limit.
        limit: String,
    },
    /// Operand shapes are not square `n×n` matrices of matching size.
    ShapeMismatch {
        /// Description of the offending shapes.
        detail: String,
    },
    /// The simulated execution itself failed — a fail-stop death, an
    /// undetected-corruption abort, or a diagnosed deadlock under an
    /// injected [`mmsim::FaultPlan`].  Every formulation, over either
    /// transport, runs under [`mmsim::Machine::try_run`] and reports a
    /// failed run as this variant.
    Sim(mmsim::SimError),
}

impl std::fmt::Display for AlgoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AlgoError::BadProcessorCount { p, requirement } => {
                write!(f, "p = {p} unusable: {requirement}")
            }
            AlgoError::BadMatrixSize { n, requirement } => {
                write!(f, "n = {n} unusable: {requirement}")
            }
            AlgoError::ConcurrencyExceeded { n, p, limit } => {
                write!(
                    f,
                    "p = {p} exceeds the concurrency limit for n = {n}: {limit}"
                )
            }
            AlgoError::ShapeMismatch { detail } => write!(f, "shape mismatch: {detail}"),
            AlgoError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for AlgoError {}

impl From<mmsim::SimError> for AlgoError {
    fn from(e: mmsim::SimError) -> Self {
        AlgoError::Sim(e)
    }
}

/// The result of one simulated parallel multiplication.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The reassembled product matrix.
    pub c: Matrix,
    /// Simulated parallel time `T_p` (unit = one multiply–add).
    pub t_parallel: f64,
    /// Problem size `W = n³` in unit operations (§2).
    pub w: f64,
    /// Number of processors used.
    pub p: usize,
    /// Per-processor accounting.
    pub stats: Vec<ProcStats>,
}

impl SimOutcome {
    pub(crate) fn from_report<T>(report: &RunReport<T>, c: Matrix, n: usize) -> Self {
        Self {
            c,
            t_parallel: report.t_parallel,
            w: kernel::work_units(n, n, n),
            p: report.stats.len(),
            stats: report.stats.clone(),
        }
    }

    /// Parallel speedup `S = W / T_p`.
    #[must_use]
    pub fn speedup(&self) -> f64 {
        self.w / self.t_parallel
    }

    /// Efficiency `E = W / (p·T_p)`.
    #[must_use]
    pub fn efficiency(&self) -> f64 {
        self.speedup() / self.p as f64
    }

    /// Total overhead `T_o = p·T_p − W`.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.p as f64 * self.t_parallel - self.w
    }

    /// Sum of communication occupancy over all processors.
    #[must_use]
    pub fn total_comm(&self) -> f64 {
        self.stats.iter().map(|s| s.comm).sum()
    }

    /// Sum of useful work over all processors.
    #[must_use]
    pub fn total_compute(&self) -> f64 {
        self.stats.iter().map(|s| s.compute).sum()
    }

    /// Sum of recorded message-wait idle time over all processors.
    #[must_use]
    pub fn total_idle(&self) -> f64 {
        self.stats.iter().map(|s| s.idle).sum()
    }

    /// Total messages sent.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.stats.iter().map(|s| s.msgs_sent).sum()
    }

    /// Total payload words moved.
    #[must_use]
    pub fn total_words(&self) -> u64 {
        self.stats.iter().map(|s| s.words_sent).sum()
    }
}

/// Run a schedule's rank closure `f` on `machine` under
/// [`Machine::try_run`], lending the calling thread's idle host cores
/// to the ranks' large kernel calls ([`dense::with_idle_cores`]).
///
/// The event engine runs every rank on the calling thread, one at a
/// time, so its ranks multiply with the whole host.  The threaded
/// engine runs its ranks on threads of their own, which do not lend,
/// so it never oversubscribes the host; only at `p = 1` does it run
/// the rank on the calling thread, with the other cores idle.  The
/// split kernel is bit-identical to the serial one, so nothing a run
/// reports moves.
pub(crate) fn run_lending<T: Send>(
    machine: &Machine,
    f: impl Fn(&mut Proc) -> T + Sync,
) -> Result<RunReport<T>, SimError> {
    dense::with_idle_cores(|| machine.try_run(f))
}

/// The whole product on a single rank: the rank charges the `n³`
/// multiply-adds and the host computes `a · b` with the serial kernel.
/// No message moves, so the transport does not matter.
pub(crate) fn single_rank(
    machine: &Machine,
    a: &Matrix,
    b: &Matrix,
) -> Result<SimOutcome, AlgoError> {
    let n = a.rows();
    let report = machine.try_run(|proc| proc.compute(kernel::work_units(n, n, n)))?;
    Ok(SimOutcome::from_report(&report, kernel::matmul(a, b), n))
}

/// Validate that `a` and `b` are square, equal-sized, and nonempty;
/// returns `n`.
pub(crate) fn check_square_operands(a: &Matrix, b: &Matrix) -> Result<usize, AlgoError> {
    if !a.is_square() || !b.is_square() || a.rows() != b.rows() {
        return Err(AlgoError::ShapeMismatch {
            detail: format!(
                "need equal square operands, got {}x{} and {}x{}",
                a.rows(),
                a.cols(),
                b.rows(),
                b.cols()
            ),
        });
    }
    if a.rows() == 0 {
        return Err(AlgoError::ShapeMismatch {
            detail: "empty matrices".to_string(),
        });
    }
    Ok(a.rows())
}

/// A checkpoint's phase state: the words of `blocks`, concatenated —
/// what a promoted spare resumes the schedule's next step from.
pub(crate) fn phase_state(blocks: &[&Matrix]) -> Vec<f64> {
    let mut state = Vec::with_capacity(blocks.iter().map(|m| m.as_slice().len()).sum());
    for m in blocks {
        state.extend_from_slice(m.as_slice());
    }
    state
}

/// `√p` if `p` is a perfect square.
#[must_use]
pub fn exact_sqrt(p: usize) -> Option<usize> {
    let q = (p as f64).sqrt().round() as usize;
    (q * q == p).then_some(q)
}

/// `p^{1/3}` if `p = 2^{3q}` (the power-of-eight cubes the hypercube
/// algorithms use).
#[must_use]
pub fn exact_cbrt_pow2(p: usize) -> Option<usize> {
    if !p.is_power_of_two() {
        return None;
    }
    let bits = p.trailing_zeros();
    bits.is_multiple_of(3).then(|| 1usize << (bits / 3))
}

/// Row-major mesh coordinates of `rank` on a `q × q` mesh.
#[must_use]
pub fn mesh_coords(rank: usize, q: usize) -> (usize, usize) {
    (rank / q, rank % q)
}

/// Row-major mesh rank at `(row, col)` with wraparound on a `q × q`
/// mesh.
#[must_use]
pub fn mesh_rank(row: isize, col: isize, q: usize) -> usize {
    let q = q as isize;
    let r = row.rem_euclid(q) as usize;
    let c = col.rem_euclid(q) as usize;
    r * q as usize + c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_sqrt_detects_squares() {
        assert_eq!(exact_sqrt(1), Some(1));
        assert_eq!(exact_sqrt(16), Some(4));
        assert_eq!(exact_sqrt(484), Some(22));
        assert_eq!(exact_sqrt(15), None);
        assert_eq!(exact_sqrt(17), None);
    }

    #[test]
    fn exact_cbrt_detects_power_of_eight() {
        assert_eq!(exact_cbrt_pow2(1), Some(1));
        assert_eq!(exact_cbrt_pow2(8), Some(2));
        assert_eq!(exact_cbrt_pow2(64), Some(4));
        assert_eq!(exact_cbrt_pow2(512), Some(8));
        assert_eq!(exact_cbrt_pow2(16), None);
        assert_eq!(exact_cbrt_pow2(27), None);
    }

    #[test]
    fn mesh_coordinates_roundtrip() {
        let q = 4;
        for rank in 0..q * q {
            let (r, c) = mesh_coords(rank, q);
            assert_eq!(mesh_rank(r as isize, c as isize, q), rank);
        }
    }

    #[test]
    fn mesh_rank_wraps_negative() {
        assert_eq!(mesh_rank(-1, 0, 4), 12);
        assert_eq!(mesh_rank(0, -1, 4), 3);
        assert_eq!(mesh_rank(4, 5, 4), 1);
    }

    #[test]
    fn shape_check() {
        let a = Matrix::zeros(4, 4);
        let b = Matrix::zeros(4, 4);
        assert_eq!(check_square_operands(&a, &b), Ok(4));
        let c = Matrix::zeros(4, 5);
        assert!(check_square_operands(&a, &c).is_err());
        let d = Matrix::zeros(5, 5);
        assert!(check_square_operands(&a, &d).is_err());
        let e = Matrix::zeros(0, 0);
        assert!(check_square_operands(&e, &e).is_err());
    }

    #[test]
    fn error_display() {
        let e = AlgoError::BadProcessorCount {
            p: 12,
            requirement: "perfect square".into(),
        };
        assert!(e.to_string().contains("p = 12"));
        let e = AlgoError::ConcurrencyExceeded {
            n: 4,
            p: 512,
            limit: "p <= n^1.5".into(),
        };
        assert!(e.to_string().contains("exceeds"));
    }
}
