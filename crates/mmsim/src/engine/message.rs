//! Messages exchanged between virtual processors.

use crate::engine::payload::Payload;

/// Message tag.  Tags disambiguate messages from the same sender across
/// algorithm phases and iterations; a receive only matches a message with
/// the same `(source, tag)` pair.  Use [`tag`] to compose a tag from a
/// phase number and a step number.
pub type Tag = u64;

/// Compose a tag from an algorithm phase and a step/iteration index.
///
/// Phases and steps each get 32 bits, so nested loops can tag every
/// communication round uniquely.
#[must_use]
pub const fn tag(phase: u32, step: u32) -> Tag {
    ((phase as u64) << 32) | step as u64
}

/// A message in flight (or delivered) between two virtual processors.
#[derive(Debug, Clone)]
pub struct Message {
    /// Sender rank.
    pub src: usize,
    /// Destination rank.
    pub dst: usize,
    /// Application tag; receives match on `(src, tag)`.
    pub tag: Tag,
    /// Payload words (matrix elements), shared zero-copy with every
    /// other holder of the same buffer (see [`Payload`]).
    pub payload: Payload,
    /// Virtual time at which the sender issued the message.
    pub sent_at: f64,
    /// Virtual time at which the message is available at the receiver.
    pub arrival: f64,
    /// Hop count charged for this message (from the topology).
    pub hops: usize,
    /// Whether a fault plan flipped a bit of this payload in flight.
    /// The unprotected [`crate::Proc::recv`] path surfaces corrupted
    /// messages as [`crate::SimError::DataCorruption`]; the reliable
    /// protocol detects and retransmits them.
    pub corrupted: bool,
}

impl Message {
    /// Number of words, `m`, used by the `t_s + t_w·m` cost model.
    #[must_use]
    pub fn words(&self) -> usize {
        self.payload.len()
    }

    /// Network latency experienced by this message.
    #[must_use]
    pub fn latency(&self) -> f64 {
        self.arrival - self.sent_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_packs_phase_and_step() {
        assert_eq!(tag(0, 0), 0);
        assert_eq!(tag(1, 0), 1 << 32);
        assert_eq!(tag(1, 2), (1 << 32) | 2);
        assert_ne!(tag(2, 1), tag(1, 2));
    }

    #[test]
    fn words_and_latency() {
        let m = Message {
            src: 0,
            dst: 1,
            tag: 0,
            payload: vec![1.0, 2.0, 3.0].into(),
            sent_at: 10.0,
            arrival: 25.0,
            hops: 1,
            corrupted: false,
        };
        assert_eq!(m.words(), 3);
        assert_eq!(m.latency(), 15.0);
    }
}
