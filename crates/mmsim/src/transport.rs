//! The one axis along which a communication schedule varies: how its
//! messages move.
//!
//! A schedule (a collective, or one of the paper's matrix-multiplication
//! formulations) is written once, generic over a [`Transport`], and
//! instantiated twice:
//!
//! * [`Plain`] — the unprotected channels ([`Proc::send`] /
//!   [`Proc::recv`]): the paper's `t_s + t_w·m` model and nothing else.
//!   Drops and corruption are not survivable, and it registers no
//!   checkpoints — not even on a machine with spares.
//! * [`Reliable`] — the checksummed retransmitting transport
//!   ([`Proc::send_reliable`] / [`Proc::recv_reliable`]) with
//!   step-granular [`Checkpoint`]s.
//!
//! A transport is only how messages move, not how a run fails: a
//! schedule over either one runs under [`crate::Machine::try_run`], so a run
//! that does not complete comes back as the same structured
//! [`crate::SimError`] whichever transport it used.
//!
//! The choice is a type parameter, not a value: no caller picks a
//! transport at run time, and monomorphisation compiles the [`Plain`]
//! instance down to the direct `Proc` calls, so the fault-free hot path
//! carries no trace of the other one.

use crate::engine::message::Tag;
use crate::engine::payload::Payload;
use crate::engine::proc_ctx::Proc;
use crate::recovery::Checkpoint;

/// How a schedule's messages move; see the [module docs](self).
///
/// Every send must be matched by exactly one [`Transport::recv`] with
/// the same `(src, tag)` **over the same transport**, in the same
/// per-link order.
pub trait Transport {
    /// Send `payload` to `dst`.
    fn send(proc: &mut Proc, dst: usize, tag: Tag, payload: impl Into<Payload>);

    /// Issue a batch of sends to distinct destinations (the all-port
    /// batch of paper §7 where the transport can overlap them).
    fn send_multi<P: Into<Payload>>(proc: &mut Proc, msgs: Vec<(usize, Tag, P)>);

    /// Receive the payload of the matching send.
    fn recv(proc: &mut Proc, src: usize, tag: Tag) -> Payload;

    /// Register completion of the schedule's next step on `ckpt`;
    /// `state` builds the rank's phase state and is evaluated only if
    /// the transport checkpoints at all.
    fn checkpoint<S: Into<Payload>>(
        ckpt: &mut Checkpoint,
        proc: &mut Proc,
        state: impl FnOnce() -> S,
    );
}

/// The unprotected channels.
#[derive(Debug)]
pub struct Plain;

/// The checksummed retransmitting transport, with checkpoints.
#[derive(Debug)]
pub struct Reliable;

impl Transport for Plain {
    #[inline]
    fn send(proc: &mut Proc, dst: usize, tag: Tag, payload: impl Into<Payload>) {
        proc.send(dst, tag, payload);
    }

    #[inline]
    fn send_multi<P: Into<Payload>>(proc: &mut Proc, msgs: Vec<(usize, Tag, P)>) {
        proc.send_multi(msgs);
    }

    #[inline]
    fn recv(proc: &mut Proc, src: usize, tag: Tag) -> Payload {
        proc.recv_payload(src, tag)
    }

    #[inline]
    fn checkpoint<S: Into<Payload>>(_: &mut Checkpoint, _: &mut Proc, _: impl FnOnce() -> S) {}
}

impl Transport for Reliable {
    fn send(proc: &mut Proc, dst: usize, tag: Tag, payload: impl Into<Payload>) {
        proc.send_reliable(dst, tag, payload);
    }

    /// Reliable sends are issued one after the other: each completed
    /// transfer is the point the next one restarts from, so the all-port
    /// overlap is forfeited.
    fn send_multi<P: Into<Payload>>(proc: &mut Proc, msgs: Vec<(usize, Tag, P)>) {
        for (dst, tag, payload) in msgs {
            proc.send_reliable(dst, tag, payload);
        }
    }

    #[inline]
    fn recv(proc: &mut Proc, src: usize, tag: Tag) -> Payload {
        proc.recv_reliable(src, tag)
    }

    fn checkpoint<S: Into<Payload>>(
        ckpt: &mut Checkpoint,
        proc: &mut Proc,
        state: impl FnOnce() -> S,
    ) {
        ckpt.save(proc, state());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::topology::Topology;
    use crate::Machine;

    #[test]
    fn plain_checkpoint_never_builds_the_state_even_with_spares() {
        let m = Machine::new(Topology::fully_connected(5), CostModel::unit()).with_spares(1);
        let r = m
            .try_run(|proc| {
                let mut ckpt = Checkpoint::new(0x77);
                proc.compute(10.0);
                Plain::checkpoint(&mut ckpt, proc, || -> Vec<f64> {
                    panic!("Plain must not evaluate the state closure")
                });
                assert_eq!(ckpt.steps(), 0);
            })
            .expect("a healthy run");
        assert_eq!(r.t_parallel, 10.0);
        assert!(r.stats.iter().all(|s| s.checkpoint_words == 0));
    }
}
