//! Iteration-space geometry for split-phase stencil execution
//! (`comm_compute_overlap`): the ghost margins, the interior/boundary
//! split, and the dimension-compatibility test — what decides which
//! tuples count as "interior".
//!
//! Terminology: a FORALL over per-variable iteration lists executes the
//! cartesian product of those lists. With ghost margins `(lo, hi)`
//! accumulated from the `overlap_shift` prelude, a tuple is **interior**
//! when every margined variable `v` satisfies
//! `first + lo <= v <= last - hi` (firsts/lasts of that rank's list) —
//! every shifted read of such a tuple stays inside the rank's
//! contiguous BLOCK-owned range, so it can run *before* the ghost
//! exchange completes. The **boundary** is the complement, expressed as
//! disjoint sub-products ([`Margins::boundary_slabs`]) so executors
//! visit only shell tuples instead of filtering the full product.

use f90d_distrib::{ArrayDimMap, DistKind};

/// `true` when a loop variable partitioned by `loop_dm` (the LHS
/// dimension map) can carry the ghost margin of a shift on `shift_dm`:
/// both BLOCK with stride-1 alignment on the same grid axis and with
/// identical distribution and alignment, so "iteration value inside the
/// owned interior" implies "every shifted read stays owned".
pub fn dims_overlap_compatible(loop_dm: &ArrayDimMap, shift_dm: &ArrayDimMap) -> bool {
    shift_dm.dist.kind == DistKind::Block
        && shift_dm.align.stride == 1
        && shift_dm.grid_axis.is_some()
        && loop_dm.grid_axis == shift_dm.grid_axis
        && loop_dm.dist == shift_dm.dist
        && loop_dm.align == shift_dm.align
}

/// Ghost margins per FORALL loop variable, accumulated from the
/// `overlap_shift` prelude: `(lo, hi)` = widest negative / positive
/// shift constants read through that variable's dimension.
#[derive(Debug, Clone)]
pub struct Margins {
    per_var: Vec<(i64, i64)>,
}

impl Margins {
    /// No margins on any of `nvars` variables.
    pub fn new(nvars: usize) -> Self {
        Margins {
            per_var: vec![(0, 0); nvars],
        }
    }

    /// Record a shift by `c` read through variable `var`.
    ///
    /// Saturating on purpose: `-c` overflows for `c == i64::MIN`, and a
    /// margin beyond `i64::MAX` is indistinguishable from one at it —
    /// both empty the interior. The compiler rejects shift constants at
    /// or past the array extent up front, but `Margins` is a public
    /// geometry type and must stay total for adversarial magnitudes
    /// (wrapping here would silently *grow* the interior and let
    /// boundary tuples run before the ghost exchange completes).
    pub fn add(&mut self, var: usize, c: i64) {
        let e = &mut self.per_var[var];
        if c > 0 {
            e.1 = e.1.max(c);
        } else {
            e.0 = e.0.max(c.saturating_neg());
        }
    }

    /// The values of variable `var`'s (ascending) list inside its
    /// interior range (`inside`), or outside it; with no margin on `var`,
    /// all of them are inside.
    fn part(&self, var: usize, list: &[i64], inside: bool) -> Vec<i64> {
        let (lo, hi) = self.per_var[var];
        // Saturating for the same reason as [`Margins::add`]: an
        // overflowed interior bound must clamp (emptying the interior),
        // never wrap around into a range that swallows the boundary.
        let range = match (list.first(), list.last()) {
            (Some(first), Some(last)) => first.saturating_add(lo)..=last.saturating_sub(hi),
            _ => return Vec::new(),
        };
        (list.iter().copied())
            .filter(|v| range.contains(v) == inside)
            .collect()
    }

    /// The interior sub-product of one rank's iteration lists: margined
    /// variables restricted to their interior range. Running the plain
    /// cartesian product of the result executes exactly the interior
    /// tuples.
    pub fn interior_lists(&self, lists: &[Vec<i64>]) -> Vec<Vec<i64>> {
        (lists.iter().enumerate())
            .map(|(k, list)| self.part(k, list, true))
            .collect()
    }

    /// The boundary of one rank's iteration lists as disjoint
    /// sub-products: for the `j`-th margined variable, the slab of
    /// tuples where variables before it are interior, it is outside its
    /// range, and later variables are unrestricted. The slabs partition
    /// `product(lists) - product(interior_lists(lists))`, so executors
    /// visit only shell tuples — no membership filtering, and a cost
    /// that scales with the shell, not the interior.
    pub fn boundary_slabs(&self, lists: &[Vec<i64>]) -> Vec<Vec<Vec<i64>>> {
        let slab = |j: usize| -> Vec<Vec<i64>> {
            (lists.iter().enumerate())
                .map(|(k, list)| {
                    if k > j {
                        list.clone()
                    } else {
                        self.part(k, list, k < j)
                    }
                })
                .collect()
        };
        (0..lists.len())
            .map(slab)
            .filter(|slab| slab.iter().all(|l| !l.is_empty()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn product(lists: &[Vec<i64>]) -> BTreeSet<Vec<i64>> {
        let mut out = BTreeSet::new();
        crate::helpers::cartesian(lists, |idx| {
            out.insert(idx.to_vec());
        });
        out
    }

    #[test]
    fn interior_and_slabs_partition_the_product() {
        let mut m = Margins::new(3);
        m.add(0, 1);
        m.add(0, -1);
        m.add(2, 2);
        let lists = vec![
            (1..=6).collect::<Vec<i64>>(),
            vec![10, 11],
            (0..=5).collect::<Vec<i64>>(),
        ];
        let full = product(&lists);
        let interior = product(&m.interior_lists(&lists));
        let mut covered = interior.clone();
        for slab in m.boundary_slabs(&lists) {
            for t in product(&slab) {
                assert!(covered.insert(t.clone()), "tuple {t:?} visited twice");
            }
        }
        assert_eq!(covered, full, "interior + slabs must cover the product");
        // Every interior tuple really is margin-safe.
        for t in &interior {
            assert!((2..=5).contains(&t[0]) && (0..=3).contains(&t[2]));
        }
    }

    #[test]
    fn no_margins_means_everything_interior() {
        let m = Margins::new(2);
        let lists = vec![vec![1, 2, 3], vec![4, 5]];
        assert_eq!(m.interior_lists(&lists), lists);
        assert!(m.boundary_slabs(&lists).is_empty());
    }

    #[test]
    fn margins_swallowing_the_whole_list_make_everything_boundary() {
        let mut m = Margins::new(1);
        m.add(0, 3);
        m.add(0, -3);
        let lists = vec![vec![5, 6, 7]]; // interior range (8..=4) is empty
        assert!(m.interior_lists(&lists)[0].is_empty());
        let slabs = m.boundary_slabs(&lists);
        assert_eq!(slabs.len(), 1);
        assert_eq!(slabs[0][0], vec![5, 6, 7]);
    }

    #[test]
    fn empty_rank_lists_produce_nothing() {
        let mut m = Margins::new(2);
        m.add(1, 1);
        let lists = vec![vec![], vec![3, 4]];
        assert!(m.interior_lists(&lists)[0].is_empty());
        // The slab on var 1 contains the empty var-0 list and is dropped.
        assert!(m.boundary_slabs(&lists).is_empty());
    }

    #[test]
    fn adversarial_magnitudes_saturate_to_all_boundary() {
        // i64::MIN used to negate with overflow in `add`; i64::MAX used
        // to wrap the interior bounds in `range_of`. Both must instead
        // clamp: nothing is interior, the slabs still cover everything.
        for c in [i64::MIN, i64::MIN + 1, i64::MAX] {
            let mut m = Margins::new(1);
            m.add(0, c);
            let lists = vec![vec![5, 6, 7]];
            assert!(m.interior_lists(&lists)[0].is_empty(), "c = {c}");
            let slabs = m.boundary_slabs(&lists);
            assert_eq!(slabs.len(), 1, "c = {c}");
            assert_eq!(slabs[0][0], vec![5, 6, 7], "c = {c}");
        }
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn product(lists: &[Vec<i64>]) -> BTreeSet<Vec<i64>> {
        let mut out = BTreeSet::new();
        crate::helpers::cartesian(lists, |idx| {
            out.insert(idx.to_vec());
        });
        out
    }

    /// Shift constants across the whole `i64` domain, with the overflow
    /// corners pinned so every run exercises them.
    fn extreme() -> impl Strategy<Value = i64> {
        prop_oneof![
            any::<i64>(),
            Just(i64::MIN),
            Just(i64::MIN + 1),
            Just(i64::MAX),
            -4i64..=4,
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn margins_total_and_partition_under_extreme_constants(
            cs in (extreme(), extreme(), extreme())
        ) {
            let (c1, c2, c3) = cs;
            let mut m = Margins::new(2);
            m.add(0, c1);
            m.add(0, c2);
            m.add(1, c3);
            let lists = vec![
                (0..8).collect::<Vec<i64>>(),
                (10..14).collect::<Vec<i64>>(),
            ];
            // Totality: no panic, and interior + slabs exactly
            // partition the product whatever the magnitudes.
            let full = product(&lists);
            let interior = product(&m.interior_lists(&lists));
            let mut covered = interior.clone();
            for slab in m.boundary_slabs(&lists) {
                for t in product(&slab) {
                    prop_assert!(covered.insert(t.clone()), "tuple visited twice");
                }
            }
            prop_assert_eq!(covered, full);
        }
    }
}
