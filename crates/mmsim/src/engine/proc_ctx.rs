//! The per-processor execution context handed to algorithm closures.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use crate::cost::{CostModel, Ports};
use crate::engine::error::{Failure, SimError};
use crate::engine::message::{Message, Tag};
use crate::engine::net::{Net, RankStatus, Wait};
use crate::engine::payload::Payload;
use crate::engine::Machine;
use crate::fault::{Fate, TrafficClass};
use crate::recovery::CkptRecord;
use crate::stats::{Bucket, ProcStats};
use crate::topology::Topology;
use crate::trace::{Timeline, TraceEvent};
use crate::Word;

/// Run-wide state shared by every virtual processor of one attempt:
/// built once per attempt instead of cloned per rank, so a 512-rank run
/// performs one machine clone, not 512, and no O(p) per-rank setup.
pub(crate) struct RunShared {
    /// The attempt's machine view: topology, cost model, fault plan,
    /// rank table (local → physical rank, fail-stop instants), trace
    /// flag and spare reservation.
    pub(crate) machine: Machine,
    /// Mailboxes, terminal statuses and parked receives (both engines).
    pub(crate) net: Net,
    /// Host-side log of each rank's last completed checkpoint, read by
    /// the engine's failover loop to price recoveries.  Never touched
    /// on spare-less runs.
    pub(crate) ckpt_log: Vec<Mutex<Option<CkptRecord>>>,
}

/// Handle through which a virtual processor computes and communicates.
///
/// One `Proc` lives on each rank's fiber or thread.  All methods
/// advance the processor's **virtual clock** according to the machine's
/// [`CostModel`]; see the crate docs for the accounting rules.  Every
/// advance goes through one of two private steps — spend a duration on
/// a bucket, or wait until an instant — so each is charged to exactly
/// one of [`ProcStats`]' compute, comm and idle.
///
/// Sends are *eager* (buffered, non-blocking), like small-message MPI
/// sends: a ring of processors may all send before any of them receives
/// without deadlocking.  Receives block the rank until a matching
/// message exists, but *virtual* waiting is determined purely by message
/// timestamps.
///
/// Payloads are shared buffers ([`Payload`]): senders hand out
/// reference-counted handles and every mutation is copy-on-write, so
/// forwarding a block is O(1) in its size.
///
/// When the machine carries a [`crate::FaultPlan`], every clock advance first
/// checks the rank's fail-stop deadline, plain sends are subject to the
/// plan's drop/corruption fates, and [`Proc::send_reliable`] /
/// [`Proc::recv_reliable`] run a checksummed retransmission protocol
/// whose retries and backoff are charged in virtual time.
pub struct Proc {
    rank: usize,
    /// This rank's accounting; `stats.clock` is its virtual clock.
    stats: ProcStats,
    /// Copy of the run's cost model (hot path; `CostModel` is `Copy`).
    cost: CostModel,
    shared: Arc<RunShared>,
    /// Event timeline, populated only when tracing is enabled.
    timeline: Option<Timeline>,
    /// This rank's fail-stop instant (from the machine's rank table).
    death_at: Option<f64>,
    /// Per-destination sequence numbers for plain sends (fate oracle
    /// key).  Sparse: a rank typically talks to O(log p) peers, so a
    /// map avoids the O(p) per-rank zeroed vectors (O(p²) per run) the
    /// eager layout cost.
    plain_seq: HashMap<usize, u64>,
    /// Per-destination sequence numbers for outgoing reliable messages.
    rel_seq_out: HashMap<usize, u64>,
    /// Per-source sequence numbers for incoming reliable messages.
    rel_seq_in: HashMap<usize, u64>,
}

/// Panic payload used when a processor aborts because a peer panicked;
/// the engine recognises it and re-raises the *original* panic instead.
pub(crate) const ABORT_MSG: &str = "aborted because a peer virtual processor panicked";

/// Words a reliable frame adds to its payload: one attempt counter and
/// one checksum word.
pub const RELIABLE_FRAME_OVERHEAD: usize = 2;

/// XOR-fold of the word bit patterns: any single bit flip in the summed
/// words flips the same bit of the checksum, so one-bit corruption is
/// always detected.  Compared via `to_bits` (the fold may be NaN).
fn frame_checksum(words: &[Word]) -> Word {
    let mut acc = 0u64;
    for w in words {
        acc ^= w.to_bits();
    }
    f64::from_bits(acc)
}

/// Unwind the rank with an engine-diagnosed failure (see [`Failure`]).
fn fail(error: SimError, message: String) -> ! {
    std::panic::panic_any(Failure { error, message })
}

/// One outgoing message's link, resolved once per send: the local
/// destination, both physical endpoints (the fault plan's keys) and
/// the topology hop count.
struct Route {
    dst: usize,
    src_ph: usize,
    dst_ph: usize,
    hops: usize,
}

/// Take-and-increment of a sparse per-peer sequence counter.
fn next_seq(seqs: &mut HashMap<usize, u64>, peer: usize) -> u64 {
    let slot = seqs.entry(peer).or_insert(0);
    let seq = *slot;
    *slot += 1;
    seq
}

impl Proc {
    pub(crate) fn new(rank: usize, shared: Arc<RunShared>) -> Self {
        Self {
            rank,
            stats: ProcStats::default(),
            cost: shared.machine.cost,
            timeline: shared.machine.trace.then(Vec::new),
            death_at: shared.machine.table.death_at[rank],
            plain_seq: HashMap::new(),
            rel_seq_out: HashMap::new(),
            rel_seq_in: HashMap::new(),
            shared,
        }
    }

    /// This processor's rank, `0 <= rank < p`.  On a partition run this
    /// is the *local* rank within the partition.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of processors taking part in this run (the partition size
    /// on a partition run).
    #[must_use]
    pub fn p(&self) -> usize {
        self.shared.machine.p()
    }

    /// The physical rank of a participant (identity on whole-machine
    /// runs).  Hop counts and fault-plan lookups are keyed by physical
    /// ranks, so partition timing reflects the physical links used.
    #[must_use]
    pub fn physical_rank(&self, local: usize) -> usize {
        self.shared.machine.table.physical[local]
    }

    /// The machine's topology.
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.shared.machine.topology
    }

    /// The machine's cost model.
    #[must_use]
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Current virtual time on this processor.
    #[must_use]
    pub fn now(&self) -> f64 {
        self.stats.clock
    }

    /// Fail-stop if advancing the clock to `new_clock` crosses this
    /// rank's death instant.  Called before every clock advance, so a
    /// death during an injection, a wait or a compute phase all stop the
    /// rank at exactly its configured time.
    fn check_death(&mut self, new_clock: f64) {
        if let Some(t) = self.death_at {
            if new_clock >= t {
                let rank = self.rank;
                let message =
                    format!("fail-stop fault injected: rank {rank} died at virtual time {t}");
                fail(SimError::RankDied { rank, t }, message);
            }
        }
    }

    /// Spend `dt` on `bucket`: the one clock advance of every compute
    /// and send step.  Fail-stops if the step would cross the death
    /// instant, lets `trace` record the step's events from its start,
    /// then moves the clock by `dt` and credits the bucket.
    #[inline]
    fn spend(&mut self, dt: f64, bucket: Bucket, trace: impl FnOnce(&mut Timeline, f64)) {
        self.check_death(self.stats.clock + dt);
        if let Some(tl) = &mut self.timeline {
            trace(tl, self.stats.clock);
        }
        self.stats.advance(self.stats.clock + dt, bucket, dt);
    }

    /// Wait until virtual time `t`, as `bucket` (an idle kind): the one
    /// clock advance of every receive and backoff.  A `t` no later than
    /// now costs nothing; a later one fail-stops the rank if the wait
    /// crosses its death instant, else credits the gap and sets the
    /// clock to `t`.  `trace` then records the step from its start with
    /// the time waited.
    #[inline]
    fn wait_until(&mut self, t: f64, bucket: Bucket, trace: impl FnOnce(&mut Timeline, f64, f64)) {
        let start = self.stats.clock;
        if t > start {
            self.check_death(t);
            self.stats.advance(t, bucket, t - start);
        }
        if let Some(tl) = &mut self.timeline {
            trace(tl, start, self.stats.clock - start);
        }
    }

    /// Spend `occupancy` on the network interface injecting one message
    /// of `words` words to `dst`.
    fn spend_send(&mut self, occupancy: f64, dst: usize, words: usize, tag: Tag) {
        self.spend(occupancy, Bucket::Comm, |tl, start| {
            tl.push(TraceEvent::Send {
                start,
                duration: occupancy,
                dst,
                words,
                tag,
            });
        });
    }

    /// Resolve the link of one message to local rank `dst`.
    ///
    /// # Panics
    /// Panics on an out-of-range `dst` or on sending to oneself.
    fn route(&self, dst: usize) -> Route {
        assert!(
            dst < self.p(),
            "rank {}: send destination {dst} out of range (p = {})",
            self.rank,
            self.p()
        );
        assert_ne!(dst, self.rank, "rank {}: cannot send to self", self.rank);
        let (src_ph, dst_ph) = (self.physical_rank(self.rank), self.physical_rank(dst));
        Route {
            dst,
            src_ph,
            dst_ph,
            hops: self.shared.machine.topology.distance(src_ph, dst_ph),
        }
    }

    /// Advance the clock by `units` of useful work
    /// (1 unit = one multiply–add pair, the paper's normalisation).
    ///
    /// # Panics
    /// Panics if `units` is negative or non-finite.
    pub fn compute(&mut self, units: f64) {
        assert!(
            units >= 0.0 && units.is_finite(),
            "compute units must be finite and non-negative, got {units}"
        );
        self.spend(units, Bucket::Compute, |tl, start| {
            tl.push(TraceEvent::Compute {
                start,
                duration: units,
            });
        });
    }

    /// Charge `count` standalone floating-point additions (reduction
    /// work) at the model's `t_add` each.
    pub fn compute_adds(&mut self, count: usize) {
        self.compute(self.cost.t_add * count as f64);
    }

    /// Send `payload` to `dst` with the given `tag`.
    ///
    /// Accepts anything convertible into a shared [`Payload`] — an
    /// owned `Vec<Word>`, a `&[Word]`, or an existing `Payload` handle
    /// (which transfers zero-copy).
    ///
    /// Advances this processor's clock by the sender occupancy
    /// `t_s + t_w·m` (single-port serialisation: consecutive sends do not
    /// overlap).  The message is stamped to arrive at
    /// `send start + message latency` as given by the cost model and the
    /// topology hop count.
    ///
    /// Under a fault plan this path is **unprotected**: a dropped
    /// message silently never arrives (the receive becomes a diagnosed
    /// deadlock) and a corrupted one is detected at the receiver and
    /// surfaces as [`crate::SimError::DataCorruption`].  Use
    /// [`Proc::send_reliable`] for transport that survives both.
    ///
    /// # Panics
    /// Panics on out-of-range `dst` or on sending to oneself.
    pub fn send(&mut self, dst: usize, tag: Tag, payload: impl Into<Payload>) {
        let payload = payload.into();
        let route = self.route(dst);
        let start = self.now();
        let occupancy = self.cost.sender_occupancy(payload.len());
        self.spend_send(occupancy, dst, payload.len(), tag);
        self.dispatch(&route, tag, payload, start);
    }

    /// Issue a batch of simultaneous sends on distinct ports (paper §7).
    ///
    /// On an all-port machine ([`Ports::All`]) the clock advances by the
    /// **maximum** of the individual occupancies; on a single-port
    /// machine the batch degrades gracefully to sequential sends.
    ///
    /// # Panics
    /// Panics if two messages in the batch share a destination (they
    /// would need the same port), or on invalid destinations.
    pub fn send_multi<P: Into<Payload>>(&mut self, msgs: Vec<(usize, Tag, P)>) {
        if self.cost.ports == Ports::Single {
            for (dst, tag, payload) in msgs {
                self.send(dst, tag, payload);
            }
            return;
        }
        let msgs: Vec<(Route, Tag, Payload, f64)> = msgs
            .into_iter()
            .map(|(dst, tag, payload)| {
                let payload = payload.into();
                let route = self.route(dst);
                let occ = self.cost.sender_occupancy(payload.len());
                (route, tag, payload, occ)
            })
            .collect();
        for (i, (r, ..)) in msgs.iter().enumerate() {
            for (r2, ..) in msgs.iter().skip(i + 1) {
                assert_ne!(r.dst, r2.dst, "all-port batch reuses destination {}", r.dst);
            }
        }
        let start = self.now();
        let max_occ = msgs.iter().fold(0.0f64, |m, &(.., occ)| m.max(occ));
        // A death during the batch loses the whole batch: the clock
        // advance comes before any message is handed to the network.
        self.spend(max_occ, Bucket::Comm, |tl, start| {
            for (route, tag, payload, occ) in &msgs {
                tl.push(TraceEvent::Send {
                    start,
                    duration: *occ,
                    dst: route.dst,
                    words: payload.len(),
                    tag: *tag,
                });
            }
        });
        for (route, tag, payload, _) in msgs {
            self.dispatch(&route, tag, payload, start);
        }
    }

    /// Hand a plain (unprotected) message to the network, applying the
    /// fault plan's drop/corruption fate for this link.
    fn dispatch(&mut self, route: &Route, tag: Tag, payload: Payload, start: f64) {
        let (src_ph, dst_ph) = (route.src_ph, route.dst_ph);
        let (payload, corrupted) = if let Some(plan) = self.shared.machine.fault.clone() {
            let seq = next_seq(&mut self.plain_seq, route.dst);
            match plan.fate(TrafficClass::Plain, src_ph, dst_ph, seq, 0) {
                Fate::Dropped => {
                    // The sender paid the injection cost and the traffic
                    // counters see the message leave; the network loses it.
                    self.count_sent(route, payload.len());
                    return;
                }
                Fate::Corrupted => {
                    let mut payload = payload;
                    if !payload.is_empty() {
                        let (w, b) = plan.corrupt_position(src_ph, dst_ph, seq, 0, payload.len());
                        // Copy-on-write: the flip must not reach other
                        // handles of this buffer (a sender-retained copy,
                        // sibling broadcast carries).
                        let words = payload.to_mut();
                        words[w] = f64::from_bits(words[w].to_bits() ^ (1u64 << b));
                    }
                    // An empty payload still carries corrupt framing.
                    (payload, true)
                }
                Fate::Delivered => (payload, false),
            }
        } else {
            (payload, false)
        };
        self.dispatch_raw(route, tag, payload, start, corrupted);
    }

    /// Traffic accounting for one outgoing message.
    fn count_sent(&mut self, route: &Route, words: usize) {
        self.stats.msgs_sent += 1;
        self.stats.words_sent += words as u64;
        self.stats.hops_traversed += route.hops as u64;
    }

    /// Hand a message to the network verbatim (no fate applied — the
    /// reliable protocol decides fates itself).
    fn dispatch_raw(
        &mut self,
        route: &Route,
        tag: Tag,
        payload: Payload,
        start: f64,
        corrupted: bool,
    ) {
        let arrival = start + self.cost.message_latency(payload.len(), route.hops);
        self.count_sent(route, payload.len());
        let msg = Message {
            src: self.rank,
            dst: route.dst,
            tag,
            payload,
            sent_at: start,
            arrival,
            hops: route.hops,
            corrupted,
        };
        // A dead or poisoned destination swallows the message inside
        // `deliver`, like a drop: the sender already paid the injection
        // cost and the traffic counters, so a straggler send races no
        // one and panics nowhere.
        self.shared.net.deliver(msg);
    }

    /// Receive the message with the given `(src, tag)`, blocking until it
    /// exists.  The virtual clock advances to the message arrival time if
    /// that is later than now; the gap is recorded as idle time.
    ///
    /// Messages with the same `(src, tag)` are matched in send order.
    ///
    /// # Panics
    /// Panics if `src` is out of range, equals this rank, if the sending
    /// side terminated without ever sending a matching message (which
    /// indicates a deadlocked/incorrect algorithm or a fail-stopped
    /// peer), or if the message was corrupted in flight by a fault plan.
    pub fn recv(&mut self, src: usize, tag: Tag) -> Message {
        let msg = self.recv_frame(src, tag);
        if msg.corrupted {
            let rank = self.rank;
            let message = format!(
                "rank {rank}: received corrupted message from rank {src} (tag {tag:#x}) — \
                 payload integrity check failed"
            );
            fail(SimError::DataCorruption { rank, src, tag }, message);
        }
        msg
    }

    /// [`Proc::recv`] without the corruption trap — the reliable
    /// protocol receives corrupted frames on purpose and handles them.
    fn recv_frame(&mut self, src: usize, tag: Tag) -> Message {
        assert!(
            src < self.p(),
            "rank {}: recv source {src} out of range",
            self.rank
        );
        assert_ne!(src, self.rank, "rank {}: cannot recv from self", self.rank);
        let msg = self.take_matching(src, tag);
        self.wait_until(msg.arrival, Bucket::Idle, |tl, start, waited| {
            tl.push(TraceEvent::Recv {
                start,
                waited,
                src,
                words: msg.words(),
                tag,
            });
        });
        self.stats.msgs_received += 1;
        msg
    }

    /// Receive and return just the payload (common case).  The returned
    /// [`Payload`] is a shared handle: forwarding it onward (or cloning
    /// it) costs O(1); call [`Payload::into_vec`] for an owned vector.
    pub fn recv_payload(&mut self, src: usize, tag: Tag) -> Payload {
        self.recv(src, tag).payload
    }

    /// Blocking receive from the run's network; a receive that can
    /// never match becomes its diagnosis panic.
    fn take_matching(&mut self, src: usize, tag: Tag) -> Message {
        match self.shared.net.recv(self.rank, src, tag, self.now()) {
            Ok(msg) => msg,
            Err(wait) => self.unmatchable(wait, src, tag),
        }
    }

    /// The diagnosis of a receive that can never match: an abort when
    /// the awaited peer — or, once every peer has terminated, any peer
    /// (the lowest-ranked, a status fact rather than an arrival order) —
    /// panicked; otherwise a deadlock naming why the message cannot
    /// come.  A peer that terminated cleanly delivered all its sends
    /// before publishing `Done`, so its missing message provably does
    /// not exist.
    fn unmatchable(&self, wait: Wait, src: usize, tag: Tag) -> ! {
        let awaited = format!("(src {src}, tag {tag:#x})");
        let why = match wait {
            Wait::SrcPoisoned => panic!("{ABORT_MSG} (rank {src})"),
            Wait::SrcDied => {
                format!("peer {src} fail-stopped before sending the awaited message {awaited}")
            }
            Wait::SrcDone => {
                format!("peer {src} terminated without sending the awaited message {awaited}")
            }
            Wait::AllTerminated => {
                let net = &self.shared.net;
                if let Some(&poisoner) = net.ranks_with(RankStatus::Poisoned).first() {
                    panic!("{ABORT_MSG} (rank {poisoner})");
                }
                let mut why = format!(
                    "waiting for a message {awaited} but every peer has terminated without \
                     sending it"
                );
                let dead = net.ranks_with(RankStatus::Died);
                if !dead.is_empty() {
                    let dead: std::collections::BTreeSet<usize> = dead.into_iter().collect();
                    why.push_str(&format!(" (fail-stopped peers: {dead:?})"));
                }
                why
            }
            Wait::Deadlock => format!(
                "every unfinished rank is blocked in a receive while this one waits for \
                 {awaited}: a live cyclic wait in the simulated algorithm"
            ),
        };
        let waiters = vec![self.rank];
        let message = format!("rank {}: deadlock — {why}", self.rank);
        fail(SimError::Deadlock { waiters }, message);
    }

    /// Exchange with a partner: send ours, receive theirs, same tag.
    ///
    /// Equivalent to an MPI sendrecv; the send is issued first so a
    /// symmetric pairwise exchange cannot deadlock.
    pub fn exchange(&mut self, partner: usize, tag: Tag, payload: impl Into<Payload>) -> Payload {
        self.send(partner, tag, payload);
        self.recv_payload(partner, tag)
    }

    // -----------------------------------------------------------------
    // Reliable transport
    // -----------------------------------------------------------------

    /// Send `payload` to `dst` with checksum framing, acknowledgement
    /// and retransmission, surviving the fault plan's drops and
    /// corruption.  Every reliable send must be matched by exactly one
    /// [`Proc::recv_reliable`] with the same `(src, tag)`, issued in the
    /// same per-link order.
    ///
    /// **Cost model.**  Each attempt injects an `(m + 2)`-word frame
    /// (payload + attempt counter + checksum).  A *delivered* frame is
    /// fire-and-forget, mirroring a windowed protocol in the common
    /// case: cost `t_s + t_w·(m+2)` and done.  A *corrupted* frame costs
    /// its injection plus an idle wait for the receiver's NACK (one
    /// frame latency out, one 1-word control latency back).  A *dropped*
    /// frame costs its injection plus a retransmission timeout with
    /// exponential backoff: `rto · 2^attempt`, where `rto` is the
    /// round-trip estimate (frame latency + 1-word control latency).
    /// All waits are charged as idle time and separately totalled in
    /// [`ProcStats::backoff_idle`]; retries increment
    /// [`ProcStats::retransmissions`].
    ///
    /// The frame is assembled once and retained as a shared [`Payload`]
    /// across retries: a retransmission patches the attempt counter and
    /// checksum copy-on-write instead of rebuilding the buffer.
    ///
    /// With no fault plan (or a zero plan) the first attempt always
    /// succeeds: the only cost over [`Proc::send`] is the two framing
    /// words.
    ///
    /// # Panics
    /// Panics if the plan's `max_attempts` transmissions all fail, and
    /// on the usual invalid-destination conditions.
    pub fn send_reliable(&mut self, dst: usize, tag: Tag, payload: impl Into<Payload>) {
        let payload = payload.into();
        let route = self.route(dst);
        let plan = self.shared.machine.fault.clone();
        let seq = next_seq(&mut self.rel_seq_out, dst);
        let (src_ph, dst_ph, hops) = (route.src_ph, route.dst_ph, route.hops);
        let frame_words = payload.len() + RELIABLE_FRAME_OVERHEAD;
        let max_attempts = plan.as_ref().map_or(1, |p| p.max_attempts());
        // Retained retry frame: body = payload + attempt word, then the
        // checksum over the body.  Patched per attempt below.
        let mut frame = {
            let mut words = Vec::with_capacity(frame_words);
            words.extend_from_slice(&payload);
            words.push(0.0);
            words.push(0.0);
            Payload::from(words)
        };
        let mut attempt: u32 = 0;
        loop {
            let fate = plan.as_ref().map_or(Fate::Delivered, |p| {
                p.fate(TrafficClass::Reliable, src_ph, dst_ph, seq, attempt)
            });
            let start = self.now();
            let occupancy = self.cost.sender_occupancy(frame_words);
            self.spend_send(occupancy, dst, frame_words, tag);

            let frame_latency = self.cost.message_latency(frame_words, hops);
            let control_latency = self.cost.message_latency(1, hops);
            match fate {
                Fate::Delivered | Fate::Corrupted => {
                    {
                        // Patch the attempt counter and checksum in the
                        // retained frame (in place on the first attempt,
                        // copy-on-write once a receiver shares it).
                        let words = frame.to_mut();
                        words[frame_words - 2] = f64::from(attempt);
                        words[frame_words - 1] = frame_checksum(&words[..frame_words - 1]);
                    }
                    let corrupted = fate == Fate::Corrupted;
                    let mut wire = frame.clone();
                    if corrupted {
                        let plan = plan.as_ref().expect("corruption requires a plan");
                        let (w, b) =
                            plan.corrupt_position(src_ph, dst_ph, seq, attempt, frame_words);
                        let words = wire.to_mut();
                        words[w] = f64::from_bits(words[w].to_bits() ^ (1u64 << b));
                    }
                    self.dispatch_raw(&route, tag, wire, start, corrupted);
                    if !corrupted {
                        // Windowed-ACK assumption: the sender does not
                        // stall for the positive acknowledgement.
                        return;
                    }
                    // Idle until the receiver's modelled NACK arrives.
                    self.backoff_until(start + frame_latency + control_latency, dst, attempt);
                }
                Fate::Dropped => {
                    // Nothing arrives; wait out the retransmission
                    // timeout with exponential backoff.
                    let rto = frame_latency + control_latency;
                    let deadline = self.now() + rto * f64::from(1u32 << attempt.min(30));
                    self.backoff_until(deadline, dst, attempt);
                }
            }
            self.stats.retransmissions += 1;
            attempt += 1;
            assert!(
                attempt < max_attempts,
                "rank {}: reliable send to {dst} (tag {tag:#x}, seq {seq}) exhausted \
                 {max_attempts} attempts",
                self.rank
            );
        }
    }

    /// Idle (as protocol backoff) until virtual time `t`; a backoff that
    /// waits for nothing leaves no trace event.
    fn backoff_until(&mut self, t: f64, dst: usize, attempt: u32) {
        self.wait_until(t, Bucket::Backoff, |tl, start, duration| {
            if duration > 0.0 {
                tl.push(TraceEvent::Backoff {
                    start,
                    duration,
                    dst,
                    attempt,
                });
            }
        });
    }

    /// Receive the payload of a matching [`Proc::send_reliable`],
    /// verifying the checksum of every frame and charging the modelled
    /// ACK/NACK control traffic (1 word per verdict) to this processor's
    /// communication time.
    ///
    /// # Panics
    /// Panics on exhausted attempts, or with a corruption diagnosis if
    /// a frame the fault oracle calls intact fails its checksum (an
    /// engine bug).
    pub fn recv_reliable(&mut self, src: usize, tag: Tag) -> Payload {
        let plan = self.shared.machine.fault.clone();
        let seq = next_seq(&mut self.rel_seq_in, src);
        let (me_ph, src_ph) = (self.physical_rank(self.rank), self.physical_rank(src));
        let max_attempts = plan.as_ref().map_or(1, |p| p.max_attempts());
        let mut attempt: u32 = 0;
        loop {
            let fate = plan.as_ref().map_or(Fate::Delivered, |p| {
                p.fate(TrafficClass::Reliable, src_ph, me_ph, seq, attempt)
            });
            // A dropped attempt never reached the network: there is
            // nothing to consume and no verdict to send.
            if fate != Fate::Dropped {
                let mut frame = self.recv_frame(src, tag).payload;
                assert!(
                    frame.len() >= RELIABLE_FRAME_OVERHEAD,
                    "rank {}: reliable frame from {src} too short ({} words)",
                    self.rank,
                    frame.len()
                );
                let (body, check) = frame.split_at(frame.len() - 1);
                let intact = frame_checksum(body).to_bits() == check[0].to_bits();
                // Modelled 1-word ACK/NACK injection back to the sender.
                let verdict_occ = self.cost.sender_occupancy(1);
                self.spend_send(verdict_occ, src, 1, tag);
                if fate == Fate::Corrupted {
                    assert!(
                        !intact,
                        "rank {}: a one-bit flip must always break the XOR checksum",
                        self.rank
                    );
                } else {
                    if !intact {
                        let rank = self.rank;
                        let message = format!(
                            "rank {rank}: reliable frame from rank {src} (tag {tag:#x}) failed \
                             its integrity check despite an intact transmission fate"
                        );
                        fail(SimError::DataCorruption { rank, src, tag }, message);
                    }
                    let attempt_word = frame[frame.len() - 2];
                    assert!(
                        attempt_word.to_bits() == f64::from(attempt).to_bits(),
                        "rank {}: reliable protocol desync with rank {src}: frame attempt {} \
                         vs oracle attempt {attempt}",
                        self.rank,
                        attempt_word
                    );
                    // Unframe in place when the buffer is no longer
                    // shared (the sender usually dropped its retained
                    // handle by now); copy-on-write otherwise.
                    let len = frame.len();
                    frame.to_mut().truncate(len - RELIABLE_FRAME_OVERHEAD);
                    return frame;
                }
            }
            attempt += 1;
            assert!(
                attempt < max_attempts,
                "rank {}: reliable recv from {src} (tag {tag:#x}, seq {seq}) exhausted \
                 {max_attempts} attempts",
                self.rank
            );
        }
    }

    /// Number of spare ranks provisioned for this run (see
    /// [`crate::recovery`] and [`crate::Machine::with_spares`]).  Zero
    /// means a fail-stop death is unrecoverable, so
    /// [`crate::Checkpoint::save`] skips replication entirely.
    #[must_use]
    pub fn spare_count(&self) -> usize {
        self.shared.machine.spares.len()
    }

    /// Record a *completed* checkpoint exchange: `words` of phase state
    /// now replicated at the buddy, as of the current clock.  Feeds the
    /// failover loop's recovery pricing.
    pub(crate) fn note_checkpoint(&mut self, words: usize) {
        self.stats.checkpoint_words += words as u64;
        *self.shared.ckpt_log[self.rank]
            .lock()
            .expect("checkpoint log slot poisoned") = Some(CkptRecord {
            t: self.now(),
            words: words as u64,
        });
    }

    /// Snapshot of this processor's accounting so far.
    #[must_use]
    pub fn stats(&self) -> &ProcStats {
        &self.stats
    }

    /// Final accounting of a rank that returned normally.  `unreceived`
    /// is added once every rank has returned ([`Net::drain_unreceived`]),
    /// so the mailbox stays open for late senders.
    pub(crate) fn into_final_parts(self) -> (ProcStats, Timeline) {
        (self.stats, self.timeline.unwrap_or_default())
    }
}
