//! Buddy-style manager for disjoint rank partitions of one machine.
//!
//! Partitions are aligned power-of-two blocks `[b·2^k, (b+1)·2^k)` of
//! the rank space.  On a hypercube every such block is a `k`-subcube
//! (the XOR rebasing preserves Hamming distances), so a job running on
//! the partition is bit-identical to the same job on a standalone
//! `2^k`-processor hypercube — the property the service's right-sizing
//! argument rests on, and which `tests/gemmd.rs` asserts.  On a fully
//! connected machine every subset is distance-regular, so alignment
//! costs nothing there either.
//!
//! Allocation is the classic buddy scheme: take the lowest-base free
//! block of the requested order, splitting larger blocks as needed;
//! release merges freed buddies back together.  "Lowest base first"
//! keeps the allocator — and therefore the whole service — fully
//! deterministic.

use crate::GemmdError;

/// One allocated partition: the aligned rank block `[base, base + size)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    base: usize,
    size: usize,
}

impl Partition {
    /// First (physical) rank of the block.
    #[must_use]
    pub fn base(&self) -> usize {
        self.base
    }

    /// Number of ranks (a power of two).
    #[must_use]
    pub fn size(&self) -> usize {
        self.size
    }

    /// The member ranks, ascending.
    #[must_use]
    pub fn ranks(&self) -> Vec<usize> {
        (self.base..self.base + self.size).collect()
    }
}

/// Buddy allocator over the rank space `0..p` (`p` a power of two).
#[derive(Debug, Clone)]
pub struct PartitionManager {
    p: usize,
    /// `free[k]` holds the bases of free blocks of size `2^k`, sorted
    /// ascending.
    free: Vec<Vec<usize>>,
    allocated: usize,
    /// Blocks withheld from the pool by
    /// [`PartitionManager::quarantine`], identity retained so
    /// [`PartitionManager::release_quarantined`] can hand them back.
    quarantine: Vec<Partition>,
}

impl PartitionManager {
    /// A manager covering `p` ranks.
    ///
    /// # Errors
    /// Rejects `p` that is zero or not a power of two — the buddy
    /// scheme needs a power-of-two universe.
    pub fn new(p: usize) -> Result<Self, GemmdError> {
        if p == 0 || !p.is_power_of_two() {
            return Err(GemmdError::UnsupportedMachine { p });
        }
        let orders = p.trailing_zeros() as usize + 1;
        let mut free = vec![Vec::new(); orders];
        free[orders - 1].push(0);
        Ok(Self {
            p,
            free,
            allocated: 0,
            quarantine: Vec::new(),
        })
    }

    /// Total ranks under management.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.p
    }

    /// Ranks currently allocated.
    #[must_use]
    pub fn in_use(&self) -> usize {
        self.allocated
    }

    /// Ranks withheld from the free pool by
    /// [`PartitionManager::quarantine`].
    #[must_use]
    pub fn quarantined(&self) -> usize {
        self.quarantine.iter().map(Partition::size).sum()
    }

    /// Size of the largest block an [`PartitionManager::alloc`] call
    /// could currently satisfy (0 when everything is allocated).
    #[must_use]
    pub fn largest_free(&self) -> usize {
        self.free
            .iter()
            .enumerate()
            .rev()
            .find(|(_, blocks)| !blocks.is_empty())
            .map_or(0, |(k, _)| 1 << k)
    }

    /// Whether the aligned block `[base, base + size)` is entirely
    /// free right now (so `alloc(size)` *could* carve it out, and an
    /// elastic grow into it cannot collide with a running or
    /// quarantined placement).  Greedy merging keeps the free lists
    /// canonical — no two free buddies coexist — so a fully-free
    /// aligned block is always represented by exactly one free entry
    /// of its own order or higher that contains it.
    ///
    /// # Panics
    /// Panics on a `size` that is zero, not a power of two, or not
    /// aligned at `base` — such a block can never exist under the
    /// buddy scheme, so asking is a caller bug.
    #[must_use]
    pub fn is_block_free(&self, base: usize, size: usize) -> bool {
        assert!(
            size > 0 && size.is_power_of_two() && base.is_multiple_of(size),
            "block [{base}, {base}+{size}) is not an aligned buddy block"
        );
        let want = size.trailing_zeros() as usize;
        (want..self.free.len()).any(|k| {
            let aligned = base & !((1usize << k) - 1);
            self.free[k].binary_search(&aligned).is_ok()
        })
    }

    /// Allocate an aligned block of `size` ranks (a power of two),
    /// lowest base first; `None` when no block of that order is free.
    ///
    /// # Panics
    /// Panics if `size` is zero, not a power of two, or exceeds the
    /// machine — callers size jobs with [`crate::sizing::right_size`],
    /// which never produces such a request.
    pub fn alloc(&mut self, size: usize) -> Option<Partition> {
        assert!(
            size > 0 && size.is_power_of_two() && size <= self.p,
            "partition size {size} invalid for a {}-rank machine",
            self.p
        );
        let want = size.trailing_zeros() as usize;
        // The smallest free order ≥ want that has a block.
        let from = (want..self.free.len()).find(|&k| !self.free[k].is_empty())?;
        // Split down to the wanted order, always keeping the lower
        // half and freeing the upper (deterministic, lowest-base-first).
        let base = self.free[from].remove(0);
        for k in (want..from).rev() {
            let buddy = base + (1 << k);
            let pos = self.free[k].partition_point(|&b| b < buddy);
            self.free[k].insert(pos, buddy);
        }
        self.allocated += size;
        Some(Partition { base, size })
    }

    /// Withhold a partition from the free pool: the block neither
    /// merges with its buddy nor satisfies future allocations until (if
    /// ever) a [`PartitionManager::release_quarantined`] predicate
    /// clears it.  Used for partitions that contain fail-stopped ranks
    /// — a scheduled death is a property of the physical rank, so
    /// re-placing jobs on the block *while the death is still pending*
    /// would kill them again.
    pub fn quarantine(&mut self, part: Partition) {
        self.allocated -= part.size;
        self.quarantine.push(part);
    }

    /// Hand quarantined blocks back to the free pool: every block the
    /// predicate clears is released (merging buddies as usual) and
    /// becomes allocatable again.  Returns the number of ranks
    /// returned.  The scheduler calls this with "all of the block's
    /// scheduled deaths lie strictly in the past", turning quarantine
    /// from a permanent capacity loss into a bounded one.
    pub fn release_quarantined(&mut self, ready: impl Fn(&Partition) -> bool) -> usize {
        let mut released = 0;
        let mut i = 0;
        while i < self.quarantine.len() {
            if ready(&self.quarantine[i]) {
                let part = self.quarantine.remove(i);
                released += part.size;
                self.insert_free(part);
            } else {
                i += 1;
            }
        }
        released
    }

    /// Return a partition to the free pool, merging buddies greedily.
    ///
    /// # Panics
    /// Panics if the block (or part of it) is already free — a
    /// double-release is always a scheduler bug.
    pub fn release(&mut self, part: Partition) {
        self.allocated -= part.size;
        self.insert_free(part);
    }

    /// Free-list insertion with greedy buddy merging (shared by
    /// [`PartitionManager::release`] and
    /// [`PartitionManager::release_quarantined`]; no accounting).
    fn insert_free(&mut self, part: Partition) {
        let Partition { mut base, size } = part;
        let mut k = size.trailing_zeros() as usize;
        loop {
            let buddy = base ^ (1 << k);
            if k + 1 < self.free.len() {
                if let Ok(pos) = self.free[k].binary_search(&buddy) {
                    self.free[k].remove(pos);
                    base = base.min(buddy);
                    k += 1;
                    continue;
                }
            }
            let pos = self.free[k].partition_point(|&b| b < base);
            assert!(
                self.free[k].get(pos) != Some(&base),
                "double release of block at base {base}"
            );
            self.free[k].insert(pos, base);
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_power_of_two_machines() {
        assert!(matches!(
            PartitionManager::new(12),
            Err(GemmdError::UnsupportedMachine { p: 12 })
        ));
        assert!(PartitionManager::new(0).is_err());
        assert!(PartitionManager::new(16).is_ok());
    }

    #[test]
    fn allocates_lowest_base_first_and_splits() {
        let mut pm = PartitionManager::new(16).unwrap();
        let a = pm.alloc(4).unwrap();
        assert_eq!((a.base(), a.size()), (0, 4));
        let b = pm.alloc(4).unwrap();
        assert_eq!(b.base(), 4);
        let c = pm.alloc(8).unwrap();
        assert_eq!(c.base(), 8);
        assert_eq!(pm.in_use(), 16);
        assert_eq!(pm.largest_free(), 0);
        assert!(pm.alloc(1).is_none());
    }

    #[test]
    fn release_merges_buddies_back_to_full_machine() {
        let mut pm = PartitionManager::new(16).unwrap();
        let parts: Vec<_> = (0..4).map(|_| pm.alloc(4).unwrap()).collect();
        assert_eq!(pm.largest_free(), 0);
        for part in parts {
            pm.release(part);
        }
        assert_eq!(pm.largest_free(), 16);
        assert_eq!(pm.in_use(), 0);
        // And the whole machine allocates again in one piece.
        let all = pm.alloc(16).unwrap();
        assert_eq!((all.base(), all.size()), (0, 16));
    }

    #[test]
    fn fragmentation_blocks_large_requests_until_release() {
        let mut pm = PartitionManager::new(8).unwrap();
        let a = pm.alloc(2).unwrap(); // [0, 2)
        let b = pm.alloc(2).unwrap(); // [2, 4)
        pm.release(a);
        // [0,2) free and [4,8) free, but no aligned 8-block.
        assert_eq!(pm.largest_free(), 4);
        assert!(pm.alloc(8).is_none());
        pm.release(b);
        assert!(pm.alloc(8).is_some());
    }

    #[test]
    fn release_quarantined_returns_cleared_blocks_to_the_pool() {
        let mut pm = PartitionManager::new(8).unwrap();
        let a = pm.alloc(4).unwrap(); // [0, 4)
        pm.quarantine(a);
        assert_eq!(pm.quarantined(), 4);
        // A predicate that clears nothing moves nothing.
        assert_eq!(pm.release_quarantined(|_| false), 0);
        assert_eq!(pm.quarantined(), 4);
        assert!(pm.alloc(8).is_none());
        // Cleared: the block merges with its free buddy and the whole
        // machine allocates in one piece again.
        assert_eq!(pm.release_quarantined(|p| p.base() == 0), 4);
        assert_eq!(pm.quarantined(), 0);
        assert_eq!(pm.largest_free(), 8);
        let all = pm.alloc(8).unwrap();
        assert_eq!((all.base(), all.size()), (0, 8));
    }

    #[test]
    fn quarantined_blocks_never_come_back() {
        let mut pm = PartitionManager::new(8).unwrap();
        let a = pm.alloc(4).unwrap(); // [0, 4)
        pm.quarantine(a);
        assert_eq!(pm.quarantined(), 4);
        assert_eq!(pm.in_use(), 0);
        assert_eq!(pm.largest_free(), 4);
        // The survivor block still allocates and releases normally…
        let b = pm.alloc(4).unwrap();
        assert_eq!(b.base(), 4);
        pm.release(b);
        // …but the quarantined half never merges back to a full 8.
        assert_eq!(pm.largest_free(), 4);
        assert!(pm.alloc(8).is_none());
        // And the quarantined base is never handed out again.
        assert_eq!(pm.alloc(4).unwrap().base(), 4);
    }

    #[test]
    fn is_block_free_sees_exactly_the_free_coverage() {
        let mut pm = PartitionManager::new(8).unwrap();
        assert!(pm.is_block_free(0, 8));
        assert!(pm.is_block_free(2, 2)); // contained in the free 8-block
        let a = pm.alloc(2).unwrap(); // [0, 2)
        assert!(!pm.is_block_free(0, 2));
        assert!(!pm.is_block_free(0, 4));
        assert!(pm.is_block_free(2, 2));
        assert!(pm.is_block_free(4, 4));
        pm.release(a);
        assert!(pm.is_block_free(0, 8));
        // Quarantined blocks are not free.
        let q = pm.alloc(4).unwrap(); // [0, 4)
        pm.quarantine(q);
        assert!(!pm.is_block_free(0, 4));
        assert!(pm.is_block_free(4, 4));
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_is_a_bug() {
        let mut pm = PartitionManager::new(4).unwrap();
        let a = pm.alloc(2).unwrap();
        let _b = pm.alloc(2).unwrap(); // keep a's buddy allocated: no merge
        pm.release(a.clone());
        pm.release(a);
    }

    #[test]
    fn partition_ranks_are_the_aligned_block() {
        let mut pm = PartitionManager::new(8).unwrap();
        pm.alloc(2).unwrap();
        let part = pm.alloc(2).unwrap();
        assert_eq!(part.ranks(), vec![2, 3]);
    }
}
