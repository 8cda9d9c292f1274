//! Executable collective operations.
//!
//! Every operation advances the caller's virtual clock through real
//! `send`/`recv` calls; the completion time of each collective equals
//! the corresponding formula in [`crate::analytic`] exactly (the test
//! suite asserts this).
//!
//! Tree-structured schedules (broadcast, reduce, scatter, gather) accept
//! any group size via binomial trees; the hypercube (recursive
//! doubling/halving) schedules require a power-of-two group, mirroring
//! the subcube structure the paper's algorithms use.
//!
//! Every collective a formulation uses is written once, generic over
//! the [`mmsim::Transport`] that moves its messages (`*_on`); the plain
//! names here and the `*_reliable` names in [`crate::reliable`] pick the
//! type.

use mmsim::engine::message::tag;
use mmsim::{Payload, Plain, Proc, Transport, Word};

use crate::group::Group;

/// One-to-all broadcast over a binomial tree (paper's "simple one-to-all
/// broadcast": `ceil(log g)` store-and-forward steps of the full
/// message).
///
/// `data` must be `Some` exactly at the member with group index
/// `root_idx`; every member returns the broadcast payload as a shared
/// [`Payload`] handle — the tree forwards one buffer by reference
/// count, so no step copies the message.
///
/// ```
/// use collectives::{broadcast, Group};
/// use mmsim::{CostModel, Machine, Topology};
///
/// let machine = Machine::new(Topology::hypercube_for(8), CostModel::unit());
/// let report = machine.run(|proc| {
///     let group = Group::world(proc);
///     let data = (proc.rank() == 0).then(|| vec![1.0, 2.0]);
///     broadcast(proc, &group, 0, 0, data)
/// });
/// assert!(report.results.iter().all(|r| r == &vec![1.0, 2.0]));
/// // log2(8) = 3 tree steps of (t_s + 2 t_w) = 3 units each.
/// assert_eq!(report.t_parallel, 9.0);
/// ```
///
/// # Panics
/// Panics if the root/non-root `data` contract is violated.
pub fn broadcast<P: Into<Payload>>(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    root_idx: usize,
    data: Option<P>,
) -> Payload {
    broadcast_on::<Plain, P>(proc, group, phase, root_idx, data)
}

/// The [`broadcast`] schedule over transport `X`: the one binomial tree
/// behind both [`broadcast`] and [`crate::broadcast_reliable`].
///
/// # Panics
/// Panics if the root/non-root `data` contract is violated.
pub fn broadcast_on<X: Transport, P: Into<Payload>>(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    root_idx: usize,
    data: Option<P>,
) -> Payload {
    let g = group.size();
    assert!(root_idx < g, "root index {root_idx} out of group of {g}");
    let me = group.my_idx();
    let data: Option<Payload> = data.map(Into::into);
    if me == root_idx {
        assert!(data.is_some(), "broadcast root must supply the payload");
    } else {
        assert!(
            data.is_none(),
            "non-root member {me} must not supply a payload"
        );
    }
    if g == 1 {
        return data.expect("single-member broadcast root");
    }
    // Virtual index: rotate so the root is 0; binomial tree on vidx.
    let vidx = (me + g - root_idx) % g;
    let to_rank = |v: usize| group.rank_of((v + root_idx) % g);

    let mut payload = data;
    for t in 0..group.steps() {
        let half = 1usize << t;
        if vidx < half {
            let peer = vidx + half;
            if peer < g {
                // Reference-count bump, not an O(m) copy.
                let msg = payload.clone().expect("holder has the payload");
                X::send(proc, to_rank(peer), tag(phase, t), msg);
            }
        } else if vidx < 2 * half {
            debug_assert!(payload.is_none());
            payload = Some(X::recv(proc, to_rank(vidx - half), tag(phase, t)));
        }
    }
    payload.expect("every member holds the payload after the tree completes")
}

/// Bandwidth-optimal one-to-all broadcast: scatter the message from the
/// root, then allgather the pieces (van-de-Geijn style).
///
/// Costs `2·t_s·log g + 2·t_w·m·(g−1)/g` — the `log g` factor moves off
/// the bandwidth term, which is the same effect the paper's §5.4.1
/// Johnsson–Ho broadcast achieves by pipelining (our engine charges
/// whole messages, so the scatter/allgather decomposition is the
/// natural executable counterpart; the analytic JH cost lives in
/// [`crate::analytic::johnsson_ho_broadcast_time`]).
///
/// # Panics
/// Panics unless the group size is a power of two dividing the message
/// length, and on root/non-root contract violations.
pub fn broadcast_scatter_allgather(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    root_idx: usize,
    data: Option<Vec<Word>>,
) -> Vec<Word> {
    broadcast_scatter_allgather_on::<Plain>(proc, group, phase, root_idx, data)
}

/// The [`broadcast_scatter_allgather`] schedule over transport `X` (same panics).
pub fn broadcast_scatter_allgather_on<X: Transport>(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    root_idx: usize,
    data: Option<Vec<Word>>,
) -> Vec<Word> {
    let g = group.size();
    if g == 1 {
        return data.expect("single-member broadcast root");
    }
    assert!(
        group.is_power_of_two(),
        "scatter-allgather broadcast requires a power-of-two group, got {g}"
    );
    let blocks = data.map(|flat| {
        assert_eq!(
            flat.len() % g,
            0,
            "group of {g} cannot scatter a {}-word message evenly",
            flat.len()
        );
        let piece = flat.len() / g;
        (0..g)
            .map(|i| flat[i * piece..(i + 1) * piece].to_vec())
            .collect::<Vec<_>>()
    });
    let mine = scatter_on::<X>(proc, group, phase, root_idx, blocks);
    let pieces = allgather_hypercube_on::<X>(proc, group, phase + 1, mine);
    pieces.into_iter().flatten().collect()
}

/// All-to-all broadcast (allgather) by recursive doubling on a
/// power-of-two group.  Each member contributes `mine` (all
/// contributions must have equal length) and receives every member's
/// block, indexed by group index.
///
/// # Panics
/// Panics if the group size is not a power of two or block lengths
/// mismatch.
pub fn allgather_hypercube(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    mine: Vec<Word>,
) -> Vec<Vec<Word>> {
    allgather_hypercube_on::<Plain>(proc, group, phase, mine)
}

/// The [`allgather_hypercube`] schedule over transport `X` (same panics).
pub fn allgather_hypercube_on<X: Transport>(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    mine: Vec<Word>,
) -> Vec<Vec<Word>> {
    let g = group.size();
    assert!(
        group.is_power_of_two(),
        "recursive-doubling allgather requires a power-of-two group, got {g}"
    );
    let me = group.my_idx();
    let m = mine.len();
    let mut have: Vec<Option<Vec<Word>>> = vec![None; g];
    have[me] = Some(mine);
    let d = group.steps();
    for k in 0..d {
        let bit = 1usize << k;
        let partner = me ^ bit;
        // Invariant: I hold exactly the indices agreeing with me on bits >= k.
        let my_base = (me >> k) << k;
        let partner_base = (partner >> k) << k;
        let mut outgoing = Vec::with_capacity(bit * m);
        for block in &have[my_base..my_base + bit] {
            outgoing.extend_from_slice(block.as_ref().expect("invariant: block held"));
        }
        X::send(proc, group.rank_of(partner), tag(phase, k), outgoing);
        let incoming = X::recv(proc, group.rank_of(partner), tag(phase, k));
        assert_eq!(
            incoming.len(),
            bit * m,
            "allgather block-length mismatch: peers must contribute equal-sized blocks"
        );
        for (off, j) in (partner_base..partner_base + bit).enumerate() {
            have[j] = Some(incoming[off * m..(off + 1) * m].to_vec());
        }
    }
    have.into_iter()
        .map(|b| b.expect("all blocks present after log g steps"))
        .collect()
}

/// All-to-all broadcast (allgather) around a ring: `g - 1` neighbour
/// steps.  Works for any group size and heterogeneous block lengths.
///
/// Blocks circulate as shared [`Payload`] handles: each relay step
/// forwards (and each member retains) the same buffer by reference
/// count, so one revolution moves every block without copying it.
pub fn allgather_ring<P: Into<Payload>>(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    mine: P,
) -> Vec<Payload> {
    allgather_ring_on::<Plain, P>(proc, group, phase, mine)
}

/// The [`allgather_ring`] schedule over transport `X`.
pub fn allgather_ring_on<X: Transport, P: Into<Payload>>(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    mine: P,
) -> Vec<Payload> {
    let g = group.size();
    let me = group.my_idx();
    let mut have: Vec<Option<Payload>> = vec![None; g];
    let right = group.rank_of((me + 1) % g);
    let left_idx = (me + g - 1) % g;
    let left = group.rank_of(left_idx);
    let mut carry: Payload = mine.into();
    have[me] = Some(carry.clone());
    for s in 0..g.saturating_sub(1) {
        let t = tag(phase, s as u32);
        X::send(proc, right, t, carry);
        carry = X::recv(proc, left, t);
        // After step s we hold the block that originated at (me - 1 - s).
        let origin = (me + g - 1 - s % g) % g;
        have[origin] = Some(carry.clone());
    }
    have.into_iter()
        .map(|b| b.expect("ring completed a full revolution"))
        .collect()
}

/// Elementwise-sum reduction to `root_idx` over a binomial tree.
/// Returns `Some(sum)` at the root and `None` elsewhere.
///
/// Merging charges `t_add` per element on the receiving processor.
///
/// # Panics
/// Panics if contribution lengths mismatch.
pub fn reduce_sum(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    root_idx: usize,
    contribution: Vec<Word>,
) -> Option<Vec<Word>> {
    reduce_sum_on::<Plain>(proc, group, phase, root_idx, contribution)
}

/// The [`reduce_sum`] schedule over transport `X`: the one binomial
/// tree behind both [`reduce_sum`] and [`crate::reduce_sum_reliable`].
///
/// # Panics
/// Panics if contribution lengths mismatch.
pub fn reduce_sum_on<X: Transport>(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    root_idx: usize,
    contribution: Vec<Word>,
) -> Option<Vec<Word>> {
    let g = group.size();
    assert!(root_idx < g, "root index {root_idx} out of group of {g}");
    let me = group.my_idx();
    let vidx = (me + g - root_idx) % g;
    let to_rank = |v: usize| group.rank_of((v + root_idx) % g);
    let mut acc = contribution;
    for t in (0..group.steps()).rev() {
        let half = 1usize << t;
        if vidx < half {
            let peer = vidx + half;
            if peer < g {
                let other = X::recv(proc, to_rank(peer), tag(phase, t));
                assert_eq!(
                    other.len(),
                    acc.len(),
                    "reduce contribution length mismatch"
                );
                for (a, b) in acc.iter_mut().zip(&other) {
                    *a += b;
                }
                proc.compute_adds(acc.len());
            }
        } else if vidx < 2 * half {
            X::send(proc, to_rank(vidx - half), tag(phase, t), acc);
            return None;
        }
    }
    Some(acc)
}

/// Reduce-scatter by recursive halving on a power-of-two group: the
/// elementwise sum of all contributions ends up *scattered*, member `i`
/// holding piece `i` (length `m / g`).
///
/// This is the communication pattern that gives Berntsen's algorithm its
/// `t_w·n²/p^{2/3}` reduction term (§4.4): message sizes halve every
/// step, so the total volume is `m(g-1)/g ≈ m` rather than `m·log g`.
///
/// # Panics
/// Panics if the group is not a power of two or `g` does not divide the
/// contribution length.
pub fn reduce_scatter_sum(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    contribution: Vec<Word>,
) -> Vec<Word> {
    reduce_scatter_sum_on::<Plain>(proc, group, phase, contribution)
}

/// The [`reduce_scatter_sum`] schedule over transport `X` (same panics).
pub fn reduce_scatter_sum_on<X: Transport>(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    contribution: Vec<Word>,
) -> Vec<Word> {
    let g = group.size();
    assert!(
        group.is_power_of_two(),
        "recursive-halving reduce-scatter requires a power-of-two group, got {g}"
    );
    let m = contribution.len();
    assert_eq!(
        m % g,
        0,
        "group of {g} cannot scatter a vector of {m} elements evenly"
    );
    let piece = m / g;
    let me = group.my_idx();
    let d = group.steps();
    let mut acc = contribution;
    let mut lo = 0usize; // first piece index of my active range
    for k in (0..d).rev() {
        let half = 1usize << k;
        let partner = me ^ half;
        // acc currently covers pieces [lo, lo + 2^{k+1}).
        let keep_upper = me & half != 0;
        let (keep, send): (Vec<Word>, Vec<Word>) = {
            let split = half * piece;
            let (lower, upper) = acc.split_at(split);
            if keep_upper {
                (upper.to_vec(), lower.to_vec())
            } else {
                (lower.to_vec(), upper.to_vec())
            }
        };
        X::send(proc, group.rank_of(partner), tag(phase, k), send);
        let incoming = X::recv(proc, group.rank_of(partner), tag(phase, k));
        assert_eq!(incoming.len(), keep.len(), "reduce-scatter length mismatch");
        acc = keep;
        for (a, b) in acc.iter_mut().zip(&incoming) {
            *a += b;
        }
        proc.compute_adds(acc.len());
        if keep_upper {
            lo += half;
        }
    }
    debug_assert_eq!(lo, me);
    debug_assert_eq!(acc.len(), piece);
    acc
}

/// All-reduce (elementwise sum available at every member) as
/// reduce-scatter followed by an allgather of the pieces.
///
/// # Panics
/// Same conditions as [`reduce_scatter_sum`].  The two sub-phases use
/// `phase` and `phase + 1`.
pub fn all_reduce_sum(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    contribution: Vec<Word>,
) -> Vec<Word> {
    if group.size() == 1 {
        return contribution;
    }
    let piece = reduce_scatter_sum(proc, group, phase, contribution);
    let pieces = allgather_hypercube(proc, group, phase + 1, piece);
    pieces.into_iter().flatten().collect()
}

/// All-to-all personalized communication ("total exchange"): member
/// `i` supplies one block per member (`blocks[j]` destined for group
/// index `j`) and receives one block from every member, indexed by
/// source.
///
/// Uses the rotation schedule (`g − 1` rounds; in round `r` send to
/// `me + r`, receive from `me − r`), which is contention-free on a
/// fully connected machine and matches the `(g−1)(t_s + t_w·m)` direct
/// cost for equal block sizes.
///
/// # Panics
/// Panics unless exactly `g` blocks are supplied.
pub fn all_to_all_personalized<P: Into<Payload>>(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    blocks: Vec<P>,
) -> Vec<Payload> {
    let g = group.size();
    assert_eq!(
        blocks.len(),
        g,
        "need one block per member, got {}",
        blocks.len()
    );
    let me = group.my_idx();
    let mut out: Vec<Option<Payload>> = vec![None; g];
    let mut blocks: Vec<Option<Payload>> = blocks.into_iter().map(|b| Some(b.into())).collect();
    out[me] = blocks[me].take();
    for r in 1..g {
        let dst = (me + r) % g;
        let src = (me + g - r) % g;
        let t = tag(phase, r as u32);
        proc.send(
            group.rank_of(dst),
            t,
            blocks[dst].take().expect("each block sent once"),
        );
        out[src] = Some(proc.recv_payload(group.rank_of(src), t));
    }
    out.into_iter()
        .map(|b| b.expect("one block from every member"))
        .collect()
}

/// Dissemination barrier: `ceil(log g)` rounds of zero-payload
/// messages; returns once every member is known to have entered.
/// Costs `ceil(log g)·t_s`.
pub fn barrier(proc: &mut Proc, group: &Group, phase: u32) {
    barrier_on::<Plain>(proc, group, phase);
}

/// The [`barrier`] schedule over transport `X`.
pub(crate) fn barrier_on<X: Transport>(proc: &mut Proc, group: &Group, phase: u32) {
    let g = group.size();
    let me = group.my_idx();
    let mut step = 1usize;
    let mut round = 0u32;
    while step < g {
        let dst = (me + step) % g;
        let src = (me + g - step) % g;
        let t = tag(phase, round);
        X::send(proc, group.rank_of(dst), t, Payload::new());
        X::recv(proc, group.rank_of(src), t);
        step <<= 1;
        round += 1;
    }
}

/// Inclusive parallel prefix (scan) of elementwise sums on a
/// power-of-two group: member `i` returns `Σ_{j ≤ i} contribution_j`.
/// Hypercube schedule: `log g` exchanges of the running totals.
///
/// # Panics
/// Panics if the group size is not a power of two or lengths mismatch.
pub fn scan_sum(proc: &mut Proc, group: &Group, phase: u32, contribution: Vec<Word>) -> Vec<Word> {
    let g = group.size();
    assert!(
        group.is_power_of_two(),
        "hypercube scan requires a power-of-two group, got {g}"
    );
    let me = group.my_idx();
    let mut prefix = contribution.clone();
    let mut total = contribution;
    for k in 0..group.steps() {
        let partner = me ^ (1usize << k);
        let incoming = proc.exchange(group.rank_of(partner), tag(phase, k), total.clone());
        assert_eq!(
            incoming.len(),
            total.len(),
            "scan contribution length mismatch"
        );
        for (t, x) in total.iter_mut().zip(&incoming) {
            *t += x;
        }
        proc.compute_adds(incoming.len());
        if partner < me {
            for (p, x) in prefix.iter_mut().zip(&incoming) {
                *p += x;
            }
            proc.compute_adds(incoming.len());
        }
    }
    prefix
}

/// Scatter from `root_idx`: the root supplies one block per member
/// (group-index order, equal lengths); every member returns its own
/// block.  Binomial-tree schedule.
///
/// # Panics
/// Panics if the root/non-root contract or block shape is violated.
pub fn scatter(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    root_idx: usize,
    blocks: Option<Vec<Vec<Word>>>,
) -> Vec<Word> {
    scatter_on::<Plain>(proc, group, phase, root_idx, blocks)
}

/// The [`scatter`] schedule over transport `X`.
fn scatter_on<X: Transport>(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    root_idx: usize,
    blocks: Option<Vec<Vec<Word>>>,
) -> Vec<Word> {
    let g = group.size();
    assert!(root_idx < g, "root index {root_idx} out of group of {g}");
    let me = group.my_idx();
    let vidx = (me + g - root_idx) % g;
    let to_rank = |v: usize| group.rank_of((v + root_idx) % g);

    // Bundle held by this node: blocks for virtual indices
    // [vidx, vidx + extent), flattened.
    let mut bundle: Option<Vec<Word>> = None;
    let mut extent = 0usize;
    let mut piece_len = 0usize;
    if me == root_idx {
        let blocks = blocks.expect("scatter root must supply the blocks");
        assert_eq!(
            blocks.len(),
            g,
            "scatter root must supply one block per member"
        );
        piece_len = blocks[0].len();
        // Flatten in *virtual* order so bundles are contiguous.
        let mut flat = Vec::with_capacity(g * piece_len);
        for v in 0..g {
            let b = &blocks[(v + root_idx) % g];
            assert_eq!(b.len(), piece_len, "scatter blocks must have equal lengths");
            flat.extend_from_slice(b);
        }
        bundle = Some(flat);
        extent = g;
    } else {
        assert!(
            blocks.is_none(),
            "non-root member {me} must not supply blocks"
        );
    }

    for t in (0..group.steps()).rev() {
        let half = 1usize << t;
        if let Some(flat) = bundle
            .as_mut()
            .filter(|_| vidx.is_multiple_of(2 * half) && vidx + half < g)
        {
            // Send the upper sub-bundle [vidx+half, vidx+extent).
            let keep_pieces = half.min(extent);
            let sent = flat.split_off(keep_pieces * piece_len);
            X::send(proc, to_rank(vidx + half), tag(phase, t), sent);
            extent = keep_pieces;
        } else if bundle.is_none() && vidx % (2 * half) == half {
            // The sender moved its buffer into the network, so this
            // handle is unique and `into_vec` is a free move.
            let flat = X::recv(proc, to_rank(vidx - half), tag(phase, t)).into_vec();
            extent = (g - vidx).min(half);
            assert_eq!(flat.len() % extent, 0, "scatter bundle not divisible");
            piece_len = flat.len() / extent;
            bundle = Some(flat);
        }
    }
    let flat = bundle.expect("every member ends with its block");
    debug_assert_eq!(flat.len(), extent * piece_len);
    flat[..piece_len].to_vec()
}

/// Gather to `root_idx`: every member contributes `mine` (equal
/// lengths); the root returns all blocks in group-index order.
/// Binomial-tree schedule (mirror of [`scatter`]).
pub fn gather(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    root_idx: usize,
    mine: Vec<Word>,
) -> Option<Vec<Vec<Word>>> {
    gather_on::<Plain>(proc, group, phase, root_idx, mine)
}

/// The [`gather`] schedule over transport `X`.
pub fn gather_on<X: Transport>(
    proc: &mut Proc,
    group: &Group,
    phase: u32,
    root_idx: usize,
    mine: Vec<Word>,
) -> Option<Vec<Vec<Word>>> {
    let g = group.size();
    assert!(root_idx < g, "root index {root_idx} out of group of {g}");
    let me = group.my_idx();
    let vidx = (me + g - root_idx) % g;
    let to_rank = |v: usize| group.rank_of((v + root_idx) % g);
    let piece_len = mine.len();

    // Bundle covering virtual indices [vidx, vidx + extent).
    let mut bundle = mine;
    let mut extent = 1usize;
    for t in 0..group.steps() {
        let half = 1usize << t;
        if vidx % (2 * half) == half {
            X::send(proc, to_rank(vidx - half), tag(phase, t), bundle);
            return None;
        }
        if vidx.is_multiple_of(2 * half) && vidx + half < g {
            let incoming = X::recv(proc, to_rank(vidx + half), tag(phase, t));
            bundle.extend_from_slice(&incoming);
            extent += incoming.len() / piece_len.max(1);
        }
    }
    debug_assert_eq!(vidx, 0);
    debug_assert_eq!(extent, g);
    // Un-rotate into group-index order.
    let mut out = vec![Vec::new(); g];
    for v in 0..g {
        out[(v + root_idx) % g] = bundle[v * piece_len..(v + 1) * piece_len].to_vec();
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use mmsim::{CostModel, Machine, Topology};

    use super::*;

    fn machine(p: usize) -> Machine {
        Machine::new(Topology::fully_connected(p), CostModel::unit())
    }

    #[test]
    fn broadcast_delivers_to_all() {
        for p in [1usize, 2, 3, 4, 5, 8, 13, 16] {
            let r = machine(p).run(|proc| {
                let g = Group::world(proc);
                let data = (proc.rank() == 0).then(|| vec![3.25, -1.5]);
                broadcast(proc, &g, 1, 0, data)
            });
            for (rank, out) in r.results.iter().enumerate() {
                assert_eq!(out, &vec![3.25, -1.5], "p={p} rank={rank}");
            }
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let r = machine(6).run(|proc| {
            let g = Group::world(proc);
            let data = (proc.rank() == 4).then(|| vec![7.0]);
            broadcast(proc, &g, 2, 4, data)
        });
        assert!(r.results.iter().all(|v| v == &vec![7.0]));
    }

    #[test]
    fn broadcast_over_subgroup() {
        let r = machine(8).run(|proc| {
            if proc.rank() % 2 == 0 {
                let g = Group::new(proc, vec![0, 2, 4, 6]);
                let data = (proc.rank() == 2).then(|| vec![9.0]);
                Some(broadcast(proc, &g, 3, 1, data))
            } else {
                None
            }
        });
        for rank in [0usize, 2, 4, 6] {
            assert_eq!(r.results[rank].as_deref(), Some(&[9.0][..]));
        }
    }

    #[test]
    fn allgather_hypercube_collects_in_index_order() {
        let r = machine(8).run(|proc| {
            let g = Group::world(proc);
            allgather_hypercube(proc, &g, 0, vec![proc.rank() as f64; 2])
        });
        for out in &r.results {
            for (i, block) in out.iter().enumerate() {
                assert_eq!(block, &vec![i as f64; 2]);
            }
        }
    }

    #[test]
    fn allgather_hypercube_rejects_non_power_of_two() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            machine(3).run(|proc| {
                let g = Group::world(proc);
                allgather_hypercube(proc, &g, 0, vec![0.0])
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn allgather_ring_any_size() {
        for p in [1usize, 2, 3, 5, 7, 9] {
            let r = machine(p).run(|proc| {
                let g = Group::world(proc);
                allgather_ring(proc, &g, 0, vec![proc.rank() as f64])
            });
            for out in &r.results {
                for (i, block) in out.iter().enumerate() {
                    assert_eq!(block, &vec![i as f64], "p={p}");
                }
            }
        }
    }

    #[test]
    fn allgather_ring_heterogeneous_lengths() {
        let r = machine(4).run(|proc| {
            let g = Group::world(proc);
            allgather_ring(proc, &g, 0, vec![1.0; proc.rank() + 1])
        });
        for out in &r.results {
            for (i, block) in out.iter().enumerate() {
                assert_eq!(block.len(), i + 1);
            }
        }
    }

    #[test]
    fn reduce_sum_to_each_possible_root() {
        for root in 0..4usize {
            let r = machine(4).run(|proc| {
                let g = Group::world(proc);
                reduce_sum(proc, &g, 0, root, vec![proc.rank() as f64, 1.0])
            });
            for (rank, out) in r.results.iter().enumerate() {
                if rank == root {
                    assert_eq!(out, &Some(vec![6.0, 4.0]));
                } else {
                    assert_eq!(out, &None);
                }
            }
        }
    }

    #[test]
    fn reduce_sum_non_power_of_two() {
        let r = machine(5).run(|proc| {
            let g = Group::world(proc);
            reduce_sum(proc, &g, 0, 0, vec![1.0])
        });
        assert_eq!(r.results[0], Some(vec![5.0]));
    }

    #[test]
    fn reduce_scatter_distributes_sum_pieces() {
        let r = machine(4).run(|proc| {
            let g = Group::world(proc);
            // Contribution: [rank, rank+1, ..., rank+7].
            let contribution: Vec<f64> = (0..8).map(|i| (proc.rank() + i) as f64).collect();
            reduce_scatter_sum(proc, &g, 0, contribution)
        });
        // Sum over ranks of (rank + i) = 6 + 4i.
        for (rank, piece) in r.results.iter().enumerate() {
            let expect: Vec<f64> = (0..2).map(|j| 6.0 + 4.0 * (rank * 2 + j) as f64).collect();
            assert_eq!(piece, &expect);
        }
    }

    #[test]
    fn all_reduce_everyone_gets_full_sum() {
        let r = machine(8).run(|proc| {
            let g = Group::world(proc);
            let contribution: Vec<f64> = (0..16).map(|i| (proc.rank() * i) as f64).collect();
            all_reduce_sum(proc, &g, 0, contribution)
        });
        let expect: Vec<f64> = (0..16).map(|i| (28 * i) as f64).collect();
        for out in &r.results {
            assert_eq!(out, &expect);
        }
    }

    #[test]
    fn all_reduce_single_member_is_identity() {
        let r = machine(1).run(|proc| {
            let g = Group::world(proc);
            all_reduce_sum(proc, &g, 0, vec![1.0, 2.0])
        });
        assert_eq!(r.results[0], vec![1.0, 2.0]);
    }

    #[test]
    fn scatter_delivers_correct_blocks() {
        for root in [0usize, 3] {
            let r = machine(8).run(|proc| {
                let g = Group::world(proc);
                let blocks = (proc.rank() == root)
                    .then(|| (0..8).map(|i| vec![i as f64, 100.0 + i as f64]).collect());
                scatter(proc, &g, 0, root, blocks)
            });
            for (rank, out) in r.results.iter().enumerate() {
                assert_eq!(out, &vec![rank as f64, 100.0 + rank as f64], "root={root}");
            }
        }
    }

    #[test]
    fn gather_mirrors_scatter() {
        for root in [0usize, 5] {
            let r = machine(8).run(|proc| {
                let g = Group::world(proc);
                gather(proc, &g, 0, root, vec![proc.rank() as f64; 3])
            });
            for (rank, out) in r.results.iter().enumerate() {
                if rank == root {
                    let blocks = out.as_ref().expect("root gathers");
                    for (i, b) in blocks.iter().enumerate() {
                        assert_eq!(b, &vec![i as f64; 3]);
                    }
                } else {
                    assert!(out.is_none());
                }
            }
        }
    }

    #[test]
    fn all_to_all_personalized_delivers() {
        for p in [1usize, 2, 3, 4, 7, 8] {
            let r = machine(p).run(|proc| {
                let g = Group::world(proc);
                // Block for member j: [me, j].
                let blocks = (0..p).map(|j| vec![proc.rank() as f64, j as f64]).collect();
                all_to_all_personalized(proc, &g, 0, blocks)
            });
            for (me, out) in r.results.iter().enumerate() {
                for (src, block) in out.iter().enumerate() {
                    assert_eq!(block, &vec![src as f64, me as f64], "p={p}");
                }
            }
        }
    }

    #[test]
    fn barrier_synchronises_clocks() {
        // One processor computes for 100 units; after the barrier no
        // member's clock can be below the slowest entry time.
        let r = machine(8).run(|proc| {
            if proc.rank() == 3 {
                proc.compute(100.0);
            }
            let g = Group::world(proc);
            barrier(proc, &g, 0);
            proc.now()
        });
        for (rank, &t) in r.results.iter().enumerate() {
            assert!(t >= 100.0, "rank {rank} left the barrier at {t} < 100");
        }
    }

    #[test]
    fn scan_computes_prefix_sums() {
        for p in [1usize, 2, 4, 8, 16] {
            let r = machine(p).run(|proc| {
                let g = Group::world(proc);
                scan_sum(proc, &g, 0, vec![proc.rank() as f64 + 1.0, 1.0])
            });
            for (rank, out) in r.results.iter().enumerate() {
                // Σ_{j<=rank} (j+1) = (rank+1)(rank+2)/2.
                let expect = ((rank + 1) * (rank + 2) / 2) as f64;
                assert_eq!(out, &vec![expect, (rank + 1) as f64], "p={p}");
            }
        }
    }

    #[test]
    fn scan_rejects_non_power_of_two() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            machine(3).run(|proc| {
                let g = Group::world(proc);
                scan_sum(proc, &g, 0, vec![1.0])
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn collectives_are_deterministic() {
        let run = || {
            machine(8).run(|proc| {
                let g = Group::world(proc);
                let x = all_reduce_sum(proc, &g, 0, vec![proc.rank() as f64; 8]);
                let y = broadcast(proc, &g, 10, 0, (proc.rank() == 0).then(|| x.clone()));
                (proc.now(), y)
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.t_parallel, b.t_parallel);
        assert_eq!(a.results, b.results);
    }

    #[test]
    fn scatter_allgather_broadcast_delivers() {
        for p in [2usize, 4, 8, 16] {
            for root in [0usize, p - 1] {
                let payload: Vec<f64> = (0..4 * p).map(|i| i as f64).collect();
                let expected = payload.clone();
                let r = machine(p).run(|proc| {
                    let g = Group::world(proc);
                    let data = (proc.rank() == root).then(|| payload.clone());
                    broadcast_scatter_allgather(proc, &g, 0, root, data)
                });
                for out in &r.results {
                    assert_eq!(out, &expected, "p={p} root={root}");
                }
            }
        }
    }

    #[test]
    fn scatter_allgather_cheaper_than_tree_for_large_messages() {
        // 2·log g startups + 2m words vs log g·(startup + m words):
        // bandwidth-bound messages favour scatter-allgather.
        let p = 16;
        let m = 1 << 12;
        let run = |scatter_ag: bool| {
            Machine::new(Topology::fully_connected(p), CostModel::new(1.0, 1.0)).run(|proc| {
                let g = Group::world(proc);
                let data = (proc.rank() == 0).then(|| vec![1.0; m]);
                if scatter_ag {
                    broadcast_scatter_allgather(proc, &g, 0, 0, data);
                } else {
                    broadcast(proc, &g, 0, 0, data);
                }
            })
        };
        assert!(run(true).t_parallel < run(false).t_parallel);
    }

    #[test]
    fn scatter_allgather_requires_divisible_message() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            machine(4).run(|proc| {
                let g = Group::world(proc);
                let data = (proc.rank() == 0).then(|| vec![1.0; 7]);
                broadcast_scatter_allgather(proc, &g, 0, 0, data)
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn broadcast_root_only_contract_enforced() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            machine(2).run(|proc| {
                let g = Group::world(proc);
                // Both members claim to be root data holders.
                broadcast(proc, &g, 0, 0, Some(vec![1.0]))
            });
        }));
        assert!(result.is_err());
    }
}
