//! Property tests for the zero-copy [`mmsim::Payload`] messaging path:
//! shared handles must be observationally identical to the old
//! owned-`Vec` semantics — round-trips are bit-exact, copy-on-write
//! never lets one holder see another's mutation, and the reliable
//! transport's retained-frame retries reproduce the same payloads and
//! [`mmsim::ProcStats`] on healthy and lossy links alike.

use mmsim::{CostModel, FaultPlan, Machine, Payload, Topology, Word};
use proptest::prelude::*;

/// Broadcast-style fan-out from rank 0 plus an echo back: exercises one
/// buffer shared across `p - 1` in-flight messages at once.
fn fanout_echo(machine: &Machine, data: Vec<Word>) -> mmsim::RunReport<Vec<Word>> {
    machine.run(move |proc| {
        let p = proc.p();
        if proc.rank() == 0 {
            let payload = Payload::from(data.clone());
            for dst in 1..p {
                // Handle clone: every destination shares one buffer.
                proc.send(dst, 7, payload.clone());
            }
            (1..p).map(|src| proc.recv_payload(src, 8)[0]).collect()
        } else {
            let got = proc.recv_payload(0, 7);
            proc.send(0, 8, vec![got.iter().sum::<f64>()]);
            got.into_vec()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Plain send/recv round-trips are bit-exact however the payload
    /// was constructed (owned vec, shared handle, borrowed slice).
    #[test]
    fn round_trip_is_bit_exact(words in proptest::collection::vec(-1e15f64..1e15, 0..64)) {
        let machine = Machine::new(Topology::fully_connected(2), CostModel::unit());
        let expect: Vec<u64> = words.iter().map(|w| w.to_bits()).collect();
        let r = machine.run(move |proc| {
            if proc.rank() == 0 {
                let payload = Payload::from(&words[..]);
                proc.send(1, 0, payload.clone());
                proc.send(1, 1, payload);
                Vec::new()
            } else {
                let a = proc.recv_payload(0, 0);
                let b = proc.recv_payload(0, 1);
                assert_eq!(a, b);
                a.iter().map(|w| w.to_bits()).collect()
            }
        });
        prop_assert_eq!(&r.results[1], &expect);
    }

    /// A buffer fanned out to every rank arrives intact everywhere, and
    /// receiver-side mutation (`into_vec` + local edits) never aliases
    /// the sender's handle or a sibling's copy.
    #[test]
    fn shared_fanout_is_isolated(
        p in 2usize..8,
        words in proptest::collection::vec(-1e9f64..1e9, 1..32),
    ) {
        let machine = Machine::new(Topology::fully_connected(p), CostModel::unit());
        let sum: f64 = words.iter().sum();
        let r = fanout_echo(&machine, words.clone());
        for rank in 1..p {
            prop_assert_eq!(&r.results[rank], &words);
            prop_assert_eq!(r.results[0][rank - 1].to_bits(), sum.to_bits());
        }
    }

    /// Copy-on-write: mutating one handle of a shared payload leaves
    /// every other handle bit-identical to the original.
    #[test]
    fn copy_on_write_never_aliases(
        words in proptest::collection::vec(-1e15f64..1e15, 1..64),
        flips in proptest::collection::vec(0usize..64, 1..8),
    ) {
        let original = Payload::from(words.clone());
        let mut mutated = original.clone();
        prop_assert!(mutated.shared_count() >= 2);
        for &f in &flips {
            let idx = f % words.len();
            let v = mutated.to_mut();
            v[idx] = f64::from_bits(v[idx].to_bits() ^ 1);
        }
        // The original handle must still hold the pristine bits.
        for (a, b) in original.iter().zip(&words) {
            prop_assert_eq!(a.to_bits(), b.to_bits());
        }
        prop_assert_eq!(original.len(), mutated.len());
    }

    /// The reliable transport's retained-frame retry path (one frame
    /// built per logical message, patched copy-on-write per attempt)
    /// delivers bit-exact payloads and identical ProcStats across
    /// repeated runs on mixed healthy/lossy links.
    #[test]
    fn reliable_retries_deliver_exact_payloads(
        seed in 0u64..1_000_000,
        p in 2usize..7,
        words in proptest::collection::vec(-1e12f64..1e12, 1..24),
        drop in 0.0f64..0.45,
        corrupt in 0.0f64..0.25,
    ) {
        let plan = FaultPlan::new(seed)
            .with_drop_rate(drop)
            .with_corrupt_rate(corrupt);
        let run = |m: &Machine| {
            let sent = words.clone();
            m.try_run(move |proc| {
                let p = proc.p();
                let right = (proc.rank() + 1) % p;
                let left = (proc.rank() + p - 1) % p;
                proc.send_reliable(right, 3, sent.clone());
                proc.recv_reliable(left, 3).into_vec()
            })
            .expect("recoverable plans cannot fail a reliable workload")
        };
        let lossy = Machine::new(Topology::fully_connected(p), CostModel::new(10.0, 1.0))
            .with_fault_plan(plan);
        let r1 = run(&lossy);
        let r2 = run(&lossy);
        let expect: Vec<u64> = words.iter().map(|w| w.to_bits()).collect();
        for rank in 0..p {
            // Retransmitted frames are rebuilt from the retained handle:
            // what arrives is bit-for-bit what was sent, every time.
            let got: Vec<u64> = r1.results[rank].iter().map(|w| w.to_bits()).collect();
            prop_assert_eq!(&got, &expect);
        }
        prop_assert_eq!(&r1.stats, &r2.stats);
        prop_assert_eq!(r1.t_parallel.to_bits(), r2.t_parallel.to_bits());
    }

    /// An unprotected receive surfaces an in-flight corruption as a
    /// `DataCorruption` diagnosis without disturbing other handles of
    /// the same buffer: the sender's copy stays pristine even though
    /// the wire copy was flipped.
    #[test]
    fn corruption_flips_only_the_wire_copy(
        seed in 0u64..100_000,
        words in proptest::collection::vec(1.0f64..2.0, 4..16),
    ) {
        let plan = FaultPlan::new(seed).with_corrupt_rate(1.0);
        let machine = Machine::new(Topology::fully_connected(2), CostModel::unit())
            .with_fault_plan(plan);
        let out = machine.try_run(move |proc| {
            if proc.rank() == 0 {
                let payload = Payload::from(&words[..]);
                proc.send(1, 0, payload.clone());
                // Our handle must still carry the original bits even
                // though the fault plan flipped the wire copy.
                assert_eq!(payload, &words[..]);
                true
            } else {
                let msg = proc.recv(0, 0);
                msg.corrupted
            }
        });
        match out {
            Err(mmsim::SimError::DataCorruption { rank, src, .. }) => {
                prop_assert_eq!(rank, 1);
                prop_assert_eq!(src, 0);
            }
            other => prop_assert!(false, "expected DataCorruption, got {other:?}"),
        }
    }
}

/// Non-property check: the healthy-path stats of the zero-copy engine
/// match hand-computed `t_s + t_w·m` charges exactly, so sharing
/// buffers cannot have leaked into the cost model.
#[test]
fn shared_payload_costs_match_owned_semantics() {
    let machine = Machine::new(Topology::fully_connected(3), CostModel::new(5.0, 2.0));
    let r = machine.run(|proc| {
        if proc.rank() == 0 {
            let payload = Payload::from(vec![1.0, 2.0, 3.0]);
            proc.send(1, 0, payload.clone());
            proc.send(2, 0, payload);
        } else {
            proc.recv(0, 0);
        }
        proc.stats().clone()
    });
    // Rank 0 pays two full sends: 2 · (t_s + 3 t_w) = 22.
    assert_eq!(r.results[0].comm, 22.0);
    assert_eq!(r.results[0].msgs_sent, 2);
    assert_eq!(r.results[0].words_sent, 6);
}
