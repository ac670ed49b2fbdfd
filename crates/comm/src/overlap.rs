//! Iteration-space geometry for split-phase stencil execution
//! (`comm_compute_overlap`): the ghost margins, the interior/boundary
//! split, and the dimension-compatibility test — what decides which
//! tuples count as "interior".
//!
//! Terminology: a FORALL over per-variable iteration values ([`Runs`],
//! one per variable: a rank's *space*) executes the cartesian product of
//! those values. With ghost margins `(lo, hi)` accumulated from the
//! `overlap_shift` prelude, a tuple is **interior** when every margined
//! variable `v` satisfies `first + lo <= v <= last - hi` (the least and
//! greatest of that rank's values) — every shifted read of such a tuple
//! stays inside the rank's contiguous BLOCK-owned range, so it can run
//! *before* the ghost exchange completes. The **boundary** is the
//! complement, expressed as disjoint sub-products
//! ([`Margins::boundary`]) so executors visit only shell tuples instead
//! of filtering the full product. Both cut each variable's progressions
//! at the margins; no value is looked at.

use f90d_distrib::{ArrayDimMap, DistKind, Runs};

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

    /// The values of variable `var` inside its interior range
    /// (`inside`), or outside it; with no margin on `var`, all of them
    /// are inside.
    fn part(&self, var: usize, runs: &Runs, inside: bool) -> Runs {
        let (lo, hi) = self.per_var[var];
        match (runs.first(), runs.last()) {
            (Some(_), Some(_)) if (lo, hi) == (0, 0) => {
                if inside {
                    runs.clone()
                } else {
                    Runs::EMPTY
                }
            }
            // Saturating for the same reason as [`Margins::add`]: an
            // overflowed interior bound must clamp (emptying the
            // interior), never wrap around into a range that swallows the
            // boundary.
            (Some(first), Some(last)) => {
                runs.clip(first.saturating_add(lo), last.saturating_sub(hi), inside)
            }
            _ => Runs::EMPTY,
        }
    }

    /// Append to `out` the interior sub-product of one rank's `space`
    /// (one [`Runs`] per variable): margined variables restricted to
    /// their interior range. Running the plain cartesian product of the
    /// result executes exactly the interior tuples. Nothing is appended
    /// when the interior is empty.
    pub fn interior(&self, space: &[Runs], out: &mut Vec<Runs>) {
        let at = out.len();
        out.extend((space.iter().enumerate()).map(|(k, runs)| self.part(k, runs, true)));
        if out[at..].iter().any(Runs::is_empty) {
            out.truncate(at);
        }
    }

    /// Append to `out` the boundary of one rank's `space` as disjoint
    /// sub-products, one [`Runs`] per variable each: for the `j`-th
    /// margined variable, the slab of tuples where variables before it
    /// are interior, it is outside its range, and later variables are
    /// unrestricted; empty slabs are left out. The slabs partition
    /// `product(space) - product(interior)`, so executors visit only
    /// shell tuples — no membership filtering, and a cost that scales
    /// with the shell, not the interior.
    pub fn boundary(&self, space: &[Runs], out: &mut Vec<Runs>) {
        for j in 0..space.len() {
            let at = out.len();
            out.extend((space.iter().enumerate()).map(|(k, runs)| {
                if k > j {
                    runs.clone()
                } else {
                    self.part(k, runs, k < j)
                }
            }));
            if out[at..].iter().any(Runs::is_empty) {
                out.truncate(at);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn space(lists: &[Vec<i64>]) -> Vec<Runs> {
        lists.iter().map(|l| Runs::of(l.iter().copied())).collect()
    }

    /// The tuples of the spaces `flat` holds, `nvars` variables each.
    fn product(flat: &[Runs], nvars: usize) -> BTreeSet<Vec<i64>> {
        let mut out = BTreeSet::new();
        for space in flat.chunks_exact(nvars) {
            let mut tuples = vec![vec![]];
            for runs in space {
                tuples = (tuples.iter())
                    .flat_map(|t| runs.values().map(move |v| [&t[..], &[v]].concat()))
                    .collect();
            }
            out.extend(tuples);
        }
        out
    }

    fn interior(m: &Margins, s: &[Runs]) -> Vec<Runs> {
        let mut out = Vec::new();
        m.interior(s, &mut out);
        out
    }

    fn boundary(m: &Margins, s: &[Runs]) -> Vec<Runs> {
        let mut out = Vec::new();
        m.boundary(s, &mut out);
        out
    }

    /// Interior and slabs partition the product of `s`, every slab
    /// holds tuples, and every interior tuple is margin-safe per `safe`.
    fn check_partition(m: &Margins, s: &[Runs], safe: impl Fn(&[i64]) -> bool) {
        let n = s.len();
        let full = product(s, n);
        let inner = product(&interior(m, s), n);
        let mut covered = inner.clone();
        for slab in boundary(m, s).chunks_exact(n) {
            assert!(slab.iter().all(|r| !r.is_empty()), "an empty slab");
            for t in product(slab, n) {
                assert!(covered.insert(t.clone()), "tuple {t:?} visited twice");
            }
        }
        assert_eq!(covered, full, "interior + slabs must cover the product");
        assert!(inner.iter().all(|t| safe(t)));
    }

    #[test]
    fn interior_and_slabs_partition_the_product() {
        let mut m = Margins::new(3);
        m.add(0, 1);
        m.add(0, -1);
        m.add(2, 2);
        let s = space(&[(1..=6).collect(), vec![10, 11], (0..=5).collect()]);
        check_partition(&m, &s, |t| {
            (2..=5).contains(&t[0]) && (0..=3).contains(&t[2])
        });
        // The interior of a unit-stride run is one run, its outside the
        // two ends: a progression at the whole run's width.
        assert_eq!(interior(&m, &s)[0], Runs::of(2..=5));
        assert_eq!(boundary(&m, &s)[0], Runs::of([1, 6]));
        assert_eq!(boundary(&m, &s)[0].runs().len(), 1);
    }

    /// Variables of several progressions — a CYCLIC(K) share, a strided
    /// one — are cut run by run, and still partition the product.
    #[test]
    fn multi_run_variables_are_cut_run_by_run() {
        let mut m = Margins::new(2);
        m.add(0, 2);
        m.add(0, -1);
        m.add(1, 1);
        let s = space(&[vec![0, 1, 2, 8, 9, 10, 16, 17], vec![3, 6, 9, 11, 13]]);
        assert_eq!(s[0].runs().len(), 3);
        check_partition(&m, &s, |t| {
            (1..=15).contains(&t[0]) && (3..=12).contains(&t[1])
        });
    }

    #[test]
    fn no_margins_means_everything_interior() {
        let m = Margins::new(2);
        let s = space(&[vec![1, 2, 3], vec![4, 5]]);
        assert_eq!(interior(&m, &s), s);
        assert!(boundary(&m, &s).is_empty());
    }

    #[test]
    fn margins_swallowing_the_whole_list_make_everything_boundary() {
        let mut m = Margins::new(1);
        m.add(0, 3);
        m.add(0, -3);
        let s = space(&[vec![5, 6, 7]]); // interior range (8..=4) is empty
        assert!(interior(&m, &s).is_empty());
        assert_eq!(boundary(&m, &s), s);
    }

    #[test]
    fn empty_rank_lists_produce_nothing() {
        let mut m = Margins::new(2);
        m.add(1, 1);
        let s = space(&[vec![], vec![3, 4]]);
        assert!(interior(&m, &s).is_empty());
        // The slab on var 1 contains the empty var-0 values and is dropped.
        assert!(boundary(&m, &s).is_empty());
        assert!(interior(&m, &[]).is_empty() && boundary(&m, &[]).is_empty());
    }

    #[test]
    fn adversarial_magnitudes_saturate_to_all_boundary() {
        // i64::MIN used to negate with overflow in `add`; i64::MAX used
        // to wrap the interior bounds in `range_of`. Both must instead
        // clamp: nothing is interior, the slabs still cover everything.
        for c in [i64::MIN, i64::MIN + 1, i64::MAX] {
            let mut m = Margins::new(1);
            m.add(0, c);
            let s = space(&[vec![5, 6, 7]]);
            assert!(interior(&m, &s).is_empty(), "c = {c}");
            assert_eq!(boundary(&m, &s), s, "c = {c}");
        }
    }
}

#[cfg(test)]
mod prop {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn product(flat: &[Runs], nvars: usize) -> BTreeSet<Vec<i64>> {
        let mut out = BTreeSet::new();
        for space in flat.chunks_exact(nvars) {
            let mut tuples = vec![vec![]];
            for runs in space {
                tuples = (tuples.iter())
                    .flat_map(|t| runs.values().map(move |v| [&t[..], &[v]].concat()))
                    .collect();
            }
            out.extend(tuples);
        }
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
            cs in (extreme(), extreme(), extreme()),
            holes in any::<u8>(),
        ) {
            let (c1, c2, c3) = cs;
            let mut m = Margins::new(2);
            m.add(0, c1);
            m.add(0, c2);
            m.add(1, c3);
            // The first variable of one or several progressions.
            let first = (0..8).filter(|&v| v == 0 || holes & (1 << v) == 0);
            let s = vec![Runs::of(first), Runs::of(10..14)];
            // Totality: no panic, and interior + slabs exactly
            // partition the product whatever the magnitudes.
            let full = product(&s, 2);
            let mut inner = Vec::new();
            m.interior(&s, &mut inner);
            let mut covered = product(&inner, 2);
            let mut slabs = Vec::new();
            m.boundary(&s, &mut slabs);
            for slab in slabs.chunks_exact(2) {
                for t in product(slab, 2) {
                    prop_assert!(covered.insert(t.clone()), "tuple visited twice");
                }
            }
            prop_assert_eq!(covered, full);
        }
    }
}
