//! Structured simulation failures: what [`crate::Machine::try_run`]
//! returns for a failed run.

use crate::engine::message::Tag;

/// Why a simulation did not complete.
///
/// [`crate::Machine::try_run`] returns one of these for a failed run,
/// and every formulation in `algos` reports it as its `Sim` error, so
/// harnesses can sweep fault schedules without `catch_unwind` plumbing.
/// [`crate::Machine::run`] panics with the same diagnosis, annotated
/// with the failing rank and its message.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A rank fail-stopped (injected by a
    /// [`crate::fault::FaultPlan`] death) at virtual time `t`.
    RankDied {
        /// The rank that died.
        rank: usize,
        /// Virtual time of death.
        t: f64,
    },
    /// The simulation deadlocked: the listed ranks were blocked in a
    /// receive that can never be satisfied (all peers terminated, a peer
    /// fail-stopped before sending, or every unfinished rank was blocked
    /// in a live cyclic wait).
    Deadlock {
        /// Ranks that were provably blocked, in rank order.
        waiters: Vec<usize>,
    },
    /// A rank received a corrupted message on the unprotected
    /// [`crate::Proc::recv`] path (or the reliable protocol's integrity
    /// check failed, which indicates an engine bug).
    DataCorruption {
        /// The receiving rank that detected the corruption.
        rank: usize,
        /// The sender of the corrupted message.
        src: usize,
        /// The application tag of the corrupted message.
        tag: Tag,
    },
    /// The algorithm closure itself panicked on `rank`.
    RankPanicked {
        /// The rank whose closure panicked.
        rank: usize,
        /// The panic message.
        message: String,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::RankDied { rank, t } => {
                write!(f, "rank {rank} fail-stopped at virtual time {t}")
            }
            SimError::Deadlock { waiters } => {
                write!(
                    f,
                    "deadlock: ranks {waiters:?} blocked on unsatisfiable receives"
                )
            }
            SimError::DataCorruption { rank, src, tag } => write!(
                f,
                "rank {rank} received a corrupted message from rank {src} (tag {tag:#x})"
            ),
            SimError::RankPanicked { rank, message } => {
                write!(f, "virtual processor {rank} panicked: {message}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// Panic payload of a failure the engine diagnosed on a rank (a death,
/// a detected corruption or a deadlocked receive): the rank's own
/// [`SimError`], a deadlock naming the rank as its one waiter, and a
/// message with the detail the error drops, such as the `(src, tag)`.
pub(crate) struct Failure {
    pub error: SimError,
    pub message: String,
}

/// Silence the default panic hook for the engine's [`Failure`]
/// payloads.  Injected deaths, diagnosed deadlocks and detected
/// corruption unwind rank threads by design and are always caught and
/// classified by the collector — printing a "thread panicked" banner
/// plus backtrace for each one is pure noise (a death+failover bench
/// sweep would emit dozens).  Every other payload — user-closure bugs,
/// engine assertions — still reaches the previous hook untouched, and
/// so does the one panic `Machine::run` raises on the *host* thread.
pub(crate) fn install_quiet_control_panic_hook() {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<Failure>() {
                prev(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_each_variant() {
        assert_eq!(
            SimError::RankDied { rank: 3, t: 12.5 }.to_string(),
            "rank 3 fail-stopped at virtual time 12.5"
        );
        assert!(SimError::Deadlock {
            waiters: vec![0, 2]
        }
        .to_string()
        .contains("[0, 2]"));
        assert!(SimError::DataCorruption {
            rank: 1,
            src: 0,
            tag: 0x10,
        }
        .to_string()
        .contains("corrupted"));
        assert!(SimError::RankPanicked {
            rank: 7,
            message: "boom".into(),
        }
        .to_string()
        .contains("virtual processor 7 panicked: boom"));
    }
}
