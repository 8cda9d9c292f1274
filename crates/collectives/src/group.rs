//! Ordered process groups (sub-communicators).

use mmsim::Proc;

/// An ordered set of ranks cooperating in a collective, as seen from one
/// member.  Index *within the group* is what the communication schedules
/// are defined over; `ranks[idx]` maps back to machine ranks.
///
/// All members of one collective call must construct the group with the
/// **same rank list** — the schedules are deterministic functions of the
/// list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    ranks: Vec<usize>,
    my_idx: usize,
}

impl Group {
    /// Build the group view for the calling processor.
    ///
    /// # Panics
    /// Panics if `ranks` is empty, contains duplicates, contains an
    /// out-of-range rank, or does not contain the calling processor.
    #[must_use]
    pub fn new(proc: &Proc, ranks: Vec<usize>) -> Self {
        assert!(!ranks.is_empty(), "a group needs at least one member");
        // Every rank of a run validates its own copy of every group it
        // joins, so the check is one ordered pass for the usual
        // ascending list and a sort otherwise; the quadratic scan runs
        // only to name the offender in the panic it is about to raise.
        let distinct_in_range = |ascending: &[usize]| {
            ascending.windows(2).all(|w| w[0] < w[1]) && ascending[ascending.len() - 1] < proc.p()
        };
        let valid = distinct_in_range(&ranks) || {
            let mut sorted = ranks.clone();
            sorted.sort_unstable();
            distinct_in_range(&sorted)
        };
        if !valid {
            for (i, &r) in ranks.iter().enumerate() {
                assert!(
                    r < proc.p(),
                    "group rank {r} out of range (p = {})",
                    proc.p()
                );
                assert!(
                    !ranks[..i].contains(&r),
                    "group contains duplicate rank {r}"
                );
            }
            unreachable!("an invalid group has an offending rank");
        }
        let my_idx = ranks
            .iter()
            .position(|&r| r == proc.rank())
            .unwrap_or_else(|| {
                panic!(
                    "rank {} building a group it is not a member of: {ranks:?}",
                    proc.rank()
                )
            });
        Self { ranks, my_idx }
    }

    /// Group spanning all `p` processors in rank order.
    #[must_use]
    pub fn world(proc: &Proc) -> Self {
        Self::new(proc, (0..proc.p()).collect())
    }

    /// Number of members.
    #[must_use]
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// The calling processor's index within the group.
    #[must_use]
    pub fn my_idx(&self) -> usize {
        self.my_idx
    }

    /// Machine rank of the member at `idx`.
    ///
    /// # Panics
    /// Panics if `idx` is out of range.
    #[must_use]
    pub fn rank_of(&self, idx: usize) -> usize {
        self.ranks[idx]
    }

    /// All member ranks in group order.
    #[must_use]
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }

    /// Whether the group size is a power of two (required by the
    /// tree/hypercube schedules).
    #[must_use]
    pub fn is_power_of_two(&self) -> bool {
        self.size().is_power_of_two()
    }

    /// `ceil(log2(size))`: number of steps of the tree schedules.
    #[must_use]
    pub fn steps(&self) -> u32 {
        usize::BITS - (self.size() - 1).leading_zeros()
    }
}

#[cfg(test)]
mod tests {
    use mmsim::{CostModel, Machine, Topology};

    use super::*;

    fn with_proc(p: usize, rank: usize, f: impl Fn(&Proc) + Sync) {
        let machine = Machine::new(Topology::fully_connected(p), CostModel::unit());
        machine.run(|proc| {
            if proc.rank() == rank {
                f(proc);
            }
        });
    }

    #[test]
    fn world_group_contains_everyone() {
        with_proc(4, 2, |proc| {
            let g = Group::world(proc);
            assert_eq!(g.size(), 4);
            assert_eq!(g.my_idx(), 2);
            assert_eq!(g.ranks(), &[0, 1, 2, 3]);
        });
    }

    #[test]
    fn custom_order_respected() {
        with_proc(4, 2, |proc| {
            let g = Group::new(proc, vec![3, 2, 0]);
            assert_eq!(g.my_idx(), 1);
            assert_eq!(g.rank_of(0), 3);
        });
    }

    #[test]
    fn steps_is_ceil_log2() {
        with_proc(8, 0, |proc| {
            assert_eq!(Group::new(proc, vec![0]).steps(), 0);
            assert_eq!(Group::new(proc, vec![0, 1]).steps(), 1);
            assert_eq!(Group::new(proc, vec![0, 1, 2]).steps(), 2);
            assert_eq!(Group::new(proc, vec![0, 1, 2, 3]).steps(), 2);
            assert_eq!(Group::new(proc, vec![0, 1, 2, 3, 4]).steps(), 3);
        });
    }

    #[test]
    fn power_of_two_detection() {
        with_proc(8, 0, |proc| {
            assert!(Group::new(proc, vec![0, 4]).is_power_of_two());
            assert!(!Group::new(proc, vec![0, 4, 5]).is_power_of_two());
            assert!(Group::new(proc, vec![0]).is_power_of_two());
        });
    }

    #[test]
    fn validation_is_not_quadratic_in_group_size() {
        // Every rank of a p = 4096 machine validates two 4096-member
        // groups, one ascending and one not: ~10¹¹ comparisons (tens
        // of seconds) under a pairwise duplicate scan.
        let p = 4096;
        let machine = Machine::new(Topology::fully_connected(p), CostModel::unit());
        machine.run(|proc| {
            assert_eq!(Group::world(proc).my_idx(), proc.rank());
            let reversed = Group::new(proc, (0..p).rev().collect());
            assert_eq!(reversed.my_idx(), p - 1 - proc.rank());
        });
    }

    #[test]
    fn out_of_range_and_late_duplicates_name_the_first_offender() {
        let message = |ranks: Vec<usize>| {
            let machine = Machine::new(Topology::fully_connected(4), CostModel::unit());
            let err = machine
                .try_run(move |proc| {
                    if proc.rank() == 0 {
                        let _ = Group::new(proc, ranks.clone());
                    }
                })
                .unwrap_err();
            err.to_string()
        };
        assert!(message(vec![0, 7, 7]).contains("group rank 7 out of range (p = 4)"));
        assert!(message(vec![3, 0, 2, 0, 9]).contains("group contains duplicate rank 0"));
        assert!(message(vec![0, 1, 2, 9]).contains("group rank 9 out of range (p = 4)"));
    }

    #[test]
    fn non_member_rejected() {
        let machine = Machine::new(Topology::fully_connected(4), CostModel::unit());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            machine.run(|proc| {
                if proc.rank() == 0 {
                    let _ = Group::new(proc, vec![1, 2]);
                }
            });
        }));
        assert!(result.is_err());
    }

    #[test]
    fn duplicate_rejected() {
        let machine = Machine::new(Topology::fully_connected(4), CostModel::unit());
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            machine.run(|proc| {
                if proc.rank() == 1 {
                    let _ = Group::new(proc, vec![1, 1]);
                }
            });
        }));
        assert!(result.is_err());
    }
}
