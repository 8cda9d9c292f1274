//! Spare-rank failover: surviving fail-stop deaths with checkpointed
//! recovery.
//!
//! ## The model
//!
//! A machine built with [`crate::Machine::with_spares`] reserves its
//! last `k` ranks as **spares**: they sit outside the algorithm's
//! logical topology (the closure sees `p − k` ranks) and do nothing
//! until a logical rank fail-stops.  When a run dies under a
//! [`crate::FaultPlan::with_death`] schedule, the engine promotes a
//! spare into the dead rank's logical slot, re-binds the rank table so
//! the slot is backed by the spare's *physical* rank (physical hop
//! counts, per-link fault rates and the spare's own death schedule all
//! follow), and replays the run.
//!
//! ## Checkpoints
//!
//! Because the simulator is deterministic, the replay recomputes the
//! dead rank's state exactly — so a checkpoint's job is purely to
//! *price* recovery, not to carry bytes.  An algorithm registers
//! step-granular checkpoints through [`Checkpoint`]: each
//! [`Checkpoint::save`] replicates the rank's phase state to its buddy
//! rank `(rank + 1) mod p` over the reliable transport (a real framed
//! message, charged in virtual time like every other byte and counted
//! in [`crate::ProcStats::checkpoint_words`]).  On a machine with **no
//! spares the call is free** — no message, no clock movement — so
//! fault-free hot paths pay nothing for carrying the hooks.
//!
//! When a death fires, the engine charges the promoted rank a recovery
//! surcharge in virtual time:
//!
//! ```text
//! surcharge = (t_death − t_last_checkpoint)        // lost-work replay
//!           + t_s + t_w·m  on the buddy→spare link // state transfer
//!           + timeout_multiple × period            // detection latency
//! ```
//!
//! where `m` is the size of the buddy's last *completed* checkpoint.  A
//! rank that never checkpointed restarts from scratch (`t_last = 0`,
//! no transfer term).  The detection term exists only under a
//! [`crate::Detection`] config ([`crate::FaultPlan::with_detection`]):
//! without one the survivors learn of the death through the simulator's
//! free oracle, exactly as before.  With one, every rank additionally
//! pays one one-word heartbeat per elapsed period
//! ([`crate::ProcStats::heartbeat_words`]), and the per-death wait is
//! reported in [`crate::ProcStats::detection_latency`].  The surcharge
//! lands in the promoted rank's [`crate::ProcStats::recovery_idle`] (a
//! subset of its idle time, so the `clock = compute + comm + idle`
//! invariant holds) and inflates `T_p` accordingly;
//! [`crate::ProcStats::recoveries`] counts the promotions.
//!
//! Detection is *imperfect*: heartbeats ride the faulted transport
//! (their fates come from the oracle under the `Heartbeat` traffic
//! class), so a lossy monitor link can miss `timeout_multiple` beats
//! from a live rank.  The engine then promotes a spare **spuriously**
//! — paying the state transfer and the detection window — and
//! reconciles at the next delivered beat: the live rank is re-adopted,
//! the spare demoted back ([`crate::ProcStats::recoveries`] untouched),
//! and the round trip charged as
//! [`crate::ProcStats::wasted_promotion_idle`] with
//! [`crate::ProcStats::false_positives`] counting the accusations.
//! Per-link heartbeat cadences
//! ([`crate::FaultPlan::with_link_detection`]) trade a bigger beat bill
//! for earlier alarms on individual monitor links.  Service layers can
//! act on the same stream *before* the death threshold:
//! [`crate::FaultPlan::first_streak`] reports when a sustained
//! missed-beat streak first appears on a link, which is what gemmd's
//! proactive live migration uses to evacuate a job off a degrading
//! block at a `t_s + t_w·3n²/p` state-transfer surcharge instead of
//! riding the placement into its death.
//!
//! ## Degradation
//!
//! Failure beyond the spare budget — more simultaneous deaths than
//! spares remain, or the death of a buddy holding a rank's only
//! checkpoint — degrades to exactly the pre-recovery behaviour: a
//! structured [`crate::SimError::RankDied`] from
//! [`crate::Machine::try_run`], never a hang.  The whole mechanism is a
//! pure function of (seed, death schedule, spare count), so recovered
//! runs replay byte-identically and products are bit-identical to the
//! fault-free run (pinned by `tests/recovery.rs`).

use crate::cost::CostModel;
use crate::engine::message::tag;
use crate::engine::payload::Payload;
use crate::engine::proc_ctx::Proc;

/// The resumable state of a paused GEMM placement, priced the way the
/// engine prices a checkpoint transfer: the words that must move to
/// re-materialise the computation somewhere else.
///
/// A p-rank GEMM holds `3n²` words of live state (the A, B and C
/// operands, spread evenly so each rank carries `3n²/p`).  Pausing a
/// placement — for migration off a degrading block, for preemption by
/// a more urgent job, or for an elastic resize — means draining one
/// rank's share over the transport, so the service layer charges
///
/// ```text
/// pause or resume surcharge = t_s + t_w · 3n²/p
/// ```
///
/// in virtual time, mirroring the per-rank term of the recovery
/// surcharge above.  Keeping the arithmetic here (rather than inlined
/// per call-site in `gemmd`) pins every consumer to bit-identical
/// pricing: migration, preemption and elastic grow/shrink all quote
/// the same float for the same `(n, p, cost model)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StateTransfer {
    /// Total live words across the whole partition.
    pub words: u64,
}

impl StateTransfer {
    /// The state of an `n × n` GEMM: the three operand matrices.
    #[must_use]
    pub fn gemm(n: usize) -> Self {
        Self {
            words: 3 * (n as u64).pow(2),
        }
    }

    /// Words held per rank on a `p`-rank partition.
    #[must_use]
    pub fn words_per_rank(&self, p: usize) -> f64 {
        self.words as f64 / p as f64
    }

    /// Virtual-time surcharge for draining (or re-loading) one rank's
    /// share of the state: `t_s + t_w · words/p`.
    #[must_use]
    pub fn surcharge(&self, cm: &CostModel, p: usize) -> f64 {
        cm.t_s + cm.t_w * self.words_per_rank(p)
    }
}

/// One rank's last completed checkpoint, as recorded on the engine's
/// host-side log: when it finished and how many words it replicated.
/// This is what prices a later recovery of the rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct CkptRecord {
    /// Virtual time at which the checkpoint exchange completed.
    pub(crate) t: f64,
    /// Payload words replicated to the buddy.
    pub(crate) words: u64,
}

/// Step-granular checkpoint registration for resilient algorithms.
///
/// Construct one per algorithm run with a `phase` number that the
/// algorithm's own traffic never uses (checkpoint frames travel as
/// `tag(phase, step)` on the reliable transport); call
/// [`Checkpoint::save`] after each completed step with the rank's
/// minimal phase state.  All ranks must call `save` the same number of
/// times at the same points — the exchange is a ring (send to
/// `(rank+1) % p`, receive from `(rank−1) % p`), issued send-first so
/// it cannot deadlock.
///
/// On a machine without spares every call is a no-op: no messages, no
/// virtual-time cost, no stats.  This is what keeps the fault-free hot
/// path unchanged while letting the same algorithm code run recoverably
/// when spares are provisioned.
#[derive(Debug)]
pub struct Checkpoint {
    phase: u32,
    step: u32,
}

impl Checkpoint {
    /// A checkpoint series tagged under `phase` (must be disjoint from
    /// the algorithm's own tag phases).
    #[must_use]
    pub fn new(phase: u32) -> Self {
        Self { phase, step: 0 }
    }

    /// Steps completed (i.e. `save` calls issued) so far.
    #[must_use]
    pub fn steps(&self) -> u32 {
        self.step
    }

    /// Register completion of the next step, replicating `state` to the
    /// buddy rank.  Free (and message-less) unless the run has spares;
    /// see the type docs for the protocol and cost model.
    pub fn save(&mut self, proc: &mut Proc, state: impl Into<Payload>) {
        let step = self.step;
        self.step += 1;
        // Without spares recovery is impossible, so replication buys
        // nothing — keep the fault-free path free.  A 1-rank run has no
        // peer to replicate to (its buddy would be itself).
        if proc.spare_count() == 0 || proc.p() == 1 {
            return;
        }
        let p = proc.p();
        let buddy = (proc.rank() + 1) % p;
        let pred = (proc.rank() + p - 1) % p;
        let t = tag(self.phase, step);
        let state: Payload = state.into();
        let words = state.len();
        // Send-first ring: every rank ships to its buddy, then drains
        // its predecessor's frame — no cyclic wait.  Reliable framing
        // means the replica survives the plan's drops and corruption.
        proc.send_reliable(buddy, t, state);
        let _ = proc.recv_reliable(pred, t);
        // Only a *completed* exchange counts: a rank that dies inside
        // the send or the drain leaves its previous record standing,
        // and recovery replays from there.
        proc.note_checkpoint(words);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::engine::Machine;
    use crate::topology::Topology;

    #[test]
    fn save_without_spares_is_observationally_free() {
        let m = Machine::new(Topology::fully_connected(4), CostModel::unit());
        let plain = m.run(|proc| {
            proc.compute(10.0);
            proc.rank()
        });
        let hooked = m.run(|proc| {
            let mut ckpt = Checkpoint::new(0x77);
            proc.compute(10.0);
            ckpt.save(proc, vec![1.0, 2.0]);
            assert_eq!(ckpt.steps(), 1);
            proc.rank()
        });
        assert_eq!(plain.t_parallel.to_bits(), hooked.t_parallel.to_bits());
        assert_eq!(plain.stats, hooked.stats);
        assert!(hooked.stats.iter().all(|s| s.checkpoint_words == 0));
    }

    #[test]
    fn save_with_spares_is_charged_in_virtual_time() {
        let m = Machine::new(Topology::fully_connected(5), CostModel::unit()).with_spares(1);
        assert_eq!(m.p(), 4);
        let r = m.run(|proc| {
            let mut ckpt = Checkpoint::new(0x77);
            proc.compute(10.0);
            ckpt.save(proc, vec![1.0, 2.0, 3.0]);
        });
        // The ring exchange moved real framed bytes.
        assert!(r.t_parallel > 10.0);
        for s in &r.stats {
            assert_eq!(s.checkpoint_words, 3);
            assert!(s.is_consistent(1e-9), "{s:?}");
        }
    }

    #[test]
    fn state_transfer_matches_the_inline_formula_bit_for_bit() {
        let cm = CostModel::ncube2();
        for (n, p) in [(8usize, 1usize), (16, 4), (32, 16), (96, 8)] {
            let st = StateTransfer::gemm(n);
            assert_eq!(st.words, 3 * (n as u64) * (n as u64));
            let inline = cm.t_s + cm.t_w * (3.0 * (n as f64).powi(2) / p as f64);
            assert_eq!(st.surcharge(&cm, p).to_bits(), inline.to_bits());
        }
    }

    #[test]
    fn single_rank_save_is_free_even_with_spares() {
        let m = Machine::new(Topology::fully_connected(2), CostModel::unit()).with_spares(1);
        assert_eq!(m.p(), 1);
        let r = m.run(|proc| {
            let mut ckpt = Checkpoint::new(1);
            proc.compute(5.0);
            ckpt.save(proc, vec![0.0; 8]);
        });
        assert_eq!(r.t_parallel, 5.0);
        assert_eq!(r.stats[0].checkpoint_words, 0);
    }
}
