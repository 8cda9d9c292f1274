//! Structured simulation failures for [`crate::Machine::try_run`].

use crate::engine::message::Tag;

/// Why a simulation did not complete.
///
/// [`crate::Machine::run`] keeps the historical panic behaviour
/// (annotated with the failing rank); [`crate::Machine::try_run`]
/// returns one of these instead, so harnesses can sweep fault schedules
/// without `catch_unwind` plumbing.
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

// ---------------------------------------------------------------------
// Typed panic payloads.
//
// The engine threads communicate failure *kind* to the collector via the
// panic payload.  Each payload also carries the legacy human-readable
// message so `Machine::run` can re-raise exactly the text it always has;
// `Machine::try_run` instead maps payloads onto `SimError` variants.
// ---------------------------------------------------------------------

/// Panic payload of a fail-stopped rank.
pub(crate) struct DiedPayload {
    pub rank: usize,
    pub t: f64,
    pub message: String,
}

/// Panic payload of a rank blocked in a provably unsatisfiable receive.
pub(crate) struct DeadlockPayload {
    pub rank: usize,
    pub message: String,
}

/// Panic payload of a rank that detected message corruption.
pub(crate) struct CorruptionPayload {
    pub rank: usize,
    pub src: usize,
    pub tag: Tag,
    pub message: String,
}

/// Silence the default panic hook for the engine's *typed* control
/// payloads.  Injected deaths, diagnosed deadlocks and detected
/// corruption unwind rank threads by design and are always caught and
/// classified by the collector — printing a "thread panicked" banner
/// plus backtrace for each one is pure noise (a death+failover bench
/// sweep would emit dozens).  Every other payload — user-closure bugs,
/// engine assertions — still reaches the previous hook untouched, and
/// the terminal re-panic `Machine::run` raises on the *host* thread
/// keeps its pinned message either way.
pub(crate) fn install_quiet_control_panic_hook() {
    static INSTALLED: std::sync::Once = std::sync::Once::new();
    INSTALLED.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            if payload.is::<DiedPayload>()
                || payload.is::<DeadlockPayload>()
                || payload.is::<CorruptionPayload>()
            {
                return;
            }
            prev(info);
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
