//! Per-processor and per-run accounting.

/// Virtual-time and traffic accounting for one virtual processor.
///
/// Invariant: `clock = compute + comm + idle` (up to floating-point
/// rounding), i.e. every advance of the clock is attributed to exactly
/// one bucket.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ProcStats {
    /// Final virtual clock value.
    pub clock: f64,
    /// Time spent in useful computation (multiply–adds and reduction
    /// additions).
    pub compute: f64,
    /// Time spent occupying the network interface (startup + injection).
    pub comm: f64,
    /// Time spent waiting for messages that had not yet arrived.
    pub idle: f64,
    /// Messages sent.
    pub msgs_sent: u64,
    /// Total payload words sent.
    pub words_sent: u64,
    /// Messages received (matched by a `recv`).
    pub msgs_received: u64,
    /// Total hops traversed by sent messages.
    pub hops_traversed: u64,
    /// Messages addressed to this processor that it never matched,
    /// counted when the whole run ends (so a send that lands after this
    /// processor returned counts too) — nonzero values indicate a sloppy
    /// algorithm.
    pub unreceived: u64,
    /// Reliable-protocol retransmission attempts (dropped or corrupted
    /// frames that had to be resent).  Zero on fault-free runs.
    pub retransmissions: u64,
    /// Idle time spent in reliable-protocol retransmission timeouts and
    /// exponential backoff.  A *subset* of [`ProcStats::idle`] (the
    /// `clock = compute + comm + idle` invariant is unchanged); it
    /// isolates the resilience share of the synchronisation overhead.
    pub backoff_idle: f64,
    /// Number of times this logical rank was recovered onto a spare
    /// after a fail-stop death (see [`crate::recovery`]).  Zero unless
    /// the machine was built with spares and a death actually fired.
    pub recoveries: u64,
    /// Payload words this rank replicated to its buddy through the
    /// [`crate::recovery::Checkpoint`] API (the checkpointing share of
    /// [`ProcStats::words_sent`]).
    pub checkpoint_words: u64,
    /// Idle time charged to failover: the buddy-link state transfer
    /// (`t_s + t_w·m`) plus the replay of the segment between the last
    /// completed checkpoint and the death.  A *subset* of
    /// [`ProcStats::idle`], like [`ProcStats::backoff_idle`].
    pub recovery_idle: f64,
    /// Heartbeat words this rank emitted under a
    /// [`crate::Detection`] config (the failure-detection share of
    /// [`ProcStats::words_sent`], one word per heartbeat period).
    pub heartbeat_words: u64,
    /// Virtual time spent *waiting for a death to be detected* before
    /// recovery could begin (`timeout_multiple × period` per recovered
    /// death).  A *subset* of [`ProcStats::recovery_idle`] — and
    /// therefore of [`ProcStats::idle`]; zero without a
    /// [`crate::Detection`] config.
    pub detection_latency: f64,
    /// Times this rank was *falsely* declared dead: its heartbeats ride
    /// the faulted links, so `timeout_multiple` consecutive lost beats
    /// make the watcher promote a spare against a live rank.  Zero
    /// unless the plan is lossy, detection is configured and the
    /// machine has spares to waste.
    pub false_positives: u64,
    /// Idle time charged for spurious failovers: the pointless
    /// buddy→spare state transfer plus the reconciliation window until
    /// the accused rank's next delivered heartbeat proves it alive and
    /// the spare is demoted.  A *subset* of
    /// [`ProcStats::recovery_idle`] — and therefore of
    /// [`ProcStats::idle`]; disjoint from
    /// [`ProcStats::detection_latency`] (which prices *true* positives).
    pub wasted_promotion_idle: f64,
}

/// Where a span of virtual time is credited: exactly one of `compute`,
/// `comm` and `idle`; `Backoff` and `Recovery` are idle that is also
/// counted in `backoff_idle` or `recovery_idle`.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Bucket {
    Compute,
    Comm,
    Idle,
    Backoff,
    Recovery,
}

impl ProcStats {
    /// Communication + idle time: everything that is not useful work.
    /// This is this processor's contribution to the paper's total
    /// overhead `T_o`.
    #[must_use]
    pub fn overhead(&self) -> f64 {
        self.comm + self.idle
    }

    /// Check the accounting invariant within `tol`.
    #[must_use]
    pub fn is_consistent(&self, tol: f64) -> bool {
        (self.clock - (self.compute + self.comm + self.idle)).abs() <= tol
    }

    /// Assert the accounting invariants, as debug builds do on every rank
    /// of every successful run: every time is finite and non-negative,
    /// `clock = compute + comm + idle` to a relative `1e-12` (the
    /// rounding of the separate sums; the test suite's largest is about
    /// `3e-16`), and the idle subsets nest exactly, `backoff_idle ≤ idle` and
    /// `detection_latency + wasted_promotion_idle ≤ recovery_idle ≤ idle`
    /// (each subset's terms also go to its superset, and rounding is
    /// monotone).
    ///
    /// # Panics
    /// Panics with the whole record if an invariant fails.
    pub fn check(&self) {
        let times = [
            self.clock,
            self.compute,
            self.comm,
            self.idle,
            self.backoff_idle,
            self.recovery_idle,
            self.detection_latency,
            self.wasted_promotion_idle,
        ];
        let sum = self.compute + self.comm + self.idle;
        assert!(
            times.iter().all(|t| t.is_finite() && *t >= 0.0)
                && (self.clock - sum).abs() <= 1e-12 * self.clock.max(sum)
                && self.backoff_idle <= self.idle
                && self.detection_latency + self.wasted_promotion_idle <= self.recovery_idle
                && self.recovery_idle <= self.idle,
            "accounting invariant broken: {self:?}"
        );
    }

    /// Move the clock to `to`, crediting the `dt` it took to `bucket`
    /// (and to its idle subset): the one way virtual time is charged,
    /// and the one place a clock moves.  Debug builds check every step
    /// for a finite, non-negative `dt` and a clock that never runs back.
    #[inline]
    pub(crate) fn advance(&mut self, to: f64, bucket: Bucket, dt: f64) {
        debug_assert!(
            dt.is_finite() && dt >= 0.0 && to >= self.clock,
            "clock step {} -> {to} (dt {dt}) is not monotone",
            self.clock
        );
        self.clock = to;
        match bucket {
            Bucket::Compute => self.compute += dt,
            Bucket::Comm => self.comm += dt,
            Bucket::Idle => self.idle += dt,
            Bucket::Backoff => {
                self.idle += dt;
                self.backoff_idle += dt;
            }
            Bucket::Recovery => {
                self.idle += dt;
                self.recovery_idle += dt;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_comm_plus_idle() {
        let s = ProcStats {
            clock: 10.0,
            compute: 4.0,
            comm: 5.0,
            idle: 1.0,
            ..Default::default()
        };
        assert_eq!(s.overhead(), 6.0);
        assert!(s.is_consistent(1e-12));
    }

    #[test]
    fn backoff_idle_is_part_of_idle_not_extra() {
        let s = ProcStats {
            clock: 10.0,
            compute: 4.0,
            comm: 3.0,
            idle: 3.0,
            backoff_idle: 2.0, // 2 of the 3 idle units were backoff
            retransmissions: 1,
            ..Default::default()
        };
        assert!(s.is_consistent(1e-12));
        assert!(s.backoff_idle <= s.idle);
    }

    #[test]
    fn detection_latency_is_part_of_recovery_idle_not_extra() {
        let s = ProcStats {
            clock: 20.0,
            compute: 8.0,
            comm: 5.0,
            idle: 7.0,
            recovery_idle: 6.0,     // 6 of the 7 idle units were failover
            detection_latency: 4.0, // 4 of which were waiting on the timeout
            recoveries: 1,
            heartbeat_words: 3,
            ..Default::default()
        };
        assert!(s.is_consistent(1e-12));
        assert!(s.detection_latency <= s.recovery_idle);
        assert!(s.recovery_idle <= s.idle);
    }

    #[test]
    fn wasted_promotion_idle_is_part_of_recovery_idle_not_extra() {
        let s = ProcStats {
            clock: 20.0,
            compute: 8.0,
            comm: 5.0,
            idle: 7.0,
            recovery_idle: 6.0,         // 6 of the 7 idle units were failover
            detection_latency: 2.0,     // true-positive share
            wasted_promotion_idle: 3.0, // false-positive share
            false_positives: 1,
            recoveries: 1,
            ..Default::default()
        };
        assert!(s.is_consistent(1e-12));
        // The two detector charges are disjoint slices of recovery_idle.
        assert!(s.detection_latency + s.wasted_promotion_idle <= s.recovery_idle);
        assert!(s.recovery_idle <= s.idle);
    }

    #[test]
    fn check_accepts_consistent_stats_and_rejects_each_broken_invariant() {
        let ok = ProcStats {
            clock: 20.0,
            compute: 8.0,
            comm: 5.0,
            idle: 7.0,
            backoff_idle: 1.0,
            recovery_idle: 6.0,
            detection_latency: 2.0,
            wasted_promotion_idle: 3.0,
            ..Default::default()
        };
        ok.check();
        let broken = [
            // Off by a relative 5e-11.
            ProcStats {
                clock: 20.0 + 1e-9,
                ..ok.clone()
            },
            ProcStats {
                backoff_idle: 7.5,
                ..ok.clone()
            },
            ProcStats {
                recovery_idle: 7.5,
                ..ok.clone()
            },
            ProcStats {
                detection_latency: 3.5,
                ..ok.clone()
            },
            // Sums to the clock, but with a negative bucket.
            ProcStats {
                comm: -1.0,
                idle: 13.0,
                ..ok.clone()
            },
            ProcStats {
                wasted_promotion_idle: f64::NAN,
                ..ok
            },
        ];
        for s in broken {
            assert!(std::panic::catch_unwind(|| s.check()).is_err(), "{s:?}");
        }
    }

    #[test]
    fn inconsistent_detected() {
        let s = ProcStats {
            clock: 11.0,
            compute: 4.0,
            comm: 5.0,
            idle: 1.0,
            ..Default::default()
        };
        assert!(!s.is_consistent(1e-12));
    }
}
