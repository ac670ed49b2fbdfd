//! The `set_BOUND` primitive (paper §4).
//!
//! `set_BOUND(llb, lub, lst, glb, gub, gst, DIST, dim)` takes a global
//! iteration range (lower bound, upper bound, stride) and statically
//! distributes it over the processors of one grid axis, returning each
//! processor's *local* loop bounds. Processors with no iterations receive
//! an empty range — this is how the compiler masks inactive processors.
//!
//! Every owned or iterated index set in the compiler is a [`Runs`]: its
//! values as ascending maximal [`Progression`]s, each a `(llb, lub, lst)`
//! triple. For BLOCK and CYCLIC the owned iterations form one progression,
//! exactly the paper's triple; for `CYCLIC(K)` they are one progression
//! per cycle block (Chatterjee et al., PPoPP 1993, show such sets are
//! unions of progressions), computed block by block, never value by
//! value. [`owned_cells`] gives them as global cells, [`set_bound`] as
//! local indices; a FORALL variable's share on a rank and an array
//! dimension's owned elements (`ArrayDimMap::owned`) are both built on
//! them.

use crate::dist::{DimDist, DistKind};
use crate::ext_gcd;

/// `len` values from `first` in steps of `stride`: a `set_BOUND` triple as
/// the iteration values it stands for. Ascending: `stride > 0` whenever
/// there are two values or more; a single value's stride is 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progression {
    /// The least value.
    pub first: i64,
    /// The gap between neighbours.
    pub stride: i64,
    /// How many values (at least one).
    pub len: usize,
}

impl Progression {
    /// The `len >= 1` values `first + k·stride`, a single one with the
    /// canonical stride 0.
    pub fn new(first: i64, stride: i64, len: usize) -> Self {
        debug_assert!(len >= 1 && (len == 1 || stride > 0));
        let stride = if len == 1 { 0 } else { stride };
        Progression { first, stride, len }
    }

    /// The `k`-th value. Wrapping, so that a progression reaching the
    /// ends of `i64` gives its exact values.
    #[inline]
    pub fn get(&self, k: usize) -> i64 {
        self.first
            .wrapping_add((k as i64).wrapping_mul(self.stride))
    }

    /// The greatest value.
    #[inline]
    pub fn last(&self) -> i64 {
        self.get(self.len - 1)
    }

    /// The values, ascending.
    pub fn iter(self) -> impl Iterator<Item = i64> {
        (0..self.len).map(move |k| self.get(k))
    }

    /// The values inside `lo..=hi`, which are a progression again, if any.
    pub fn within(&self, lo: i64, hi: i64) -> Option<Progression> {
        if hi < self.first {
            return None;
        }
        // Distances from `first` upwards fit in `u64` at any `i64` ends.
        let stride = self.stride.max(1) as u64;
        let k_lo = if lo <= self.first {
            0
        } else {
            lo.abs_diff(self.first).div_ceil(stride)
        };
        let k_hi = (hi.abs_diff(self.first) / stride).min(self.len as u64 - 1);
        (k_lo <= k_hi).then(|| {
            Progression::new(
                self.get(k_lo as usize),
                self.stride,
                (k_hi - k_lo + 1) as usize,
            )
        })
    }

    /// Append the values of `next` (all above `self`'s) to `self` as far
    /// as they continue it, value by value: the first of them always
    /// continues a single value, a later one only the stride. What does
    /// not continue it is returned.
    fn extend(&mut self, next: Progression) -> Option<Progression> {
        match next.first.checked_sub(self.last()) {
            Some(gap) if gap > 0 && (self.len == 1 || gap == self.stride) => self.stride = gap,
            _ => return Some(next),
        }
        self.len += 1;
        if next.len == 1 {
            None
        } else if next.stride == self.stride {
            self.len += next.len - 1;
            None
        } else {
            Some(Progression::new(next.get(1), next.stride, next.len - 1))
        }
    }
}

/// An index set — a FORALL variable's iteration values on one rank, the
/// indices `set_BOUND` gives a processor, the elements of an array
/// dimension one grid coordinate holds — as ascending maximal
/// progressions. Maximal means no run continues the one before it —
/// what cutting the values greedily, least first, into progressions
/// gives — so one progression is kept inline and only a set that is no
/// progression (`CYCLIC(K)`) holds a list. Empty when there is no value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Runs(Store);

#[derive(Debug, Clone, PartialEq, Eq)]
enum Store {
    One(Progression),
    /// Several runs — or none — and how many values they hold.
    Many(Vec<Progression>, usize),
}

impl Runs {
    /// No values.
    pub const EMPTY: Runs = Runs(Store::Many(Vec::new(), 0));

    /// The values of one progression.
    pub fn one(p: Progression) -> Self {
        Runs(Store::One(p))
    }

    /// The runs of ascending `values`.
    pub fn of(values: impl IntoIterator<Item = i64>) -> Self {
        let mut runs = Runs::EMPTY;
        for v in values {
            runs.push(Progression::new(v, 0, 1));
        }
        runs
    }

    /// Append the values of `p`, all above those held already, merging
    /// them into the last run as far as they continue it.
    #[inline]
    pub fn push(&mut self, p: Progression) {
        let len = self.len() + p.len;
        match &mut self.0 {
            Store::Many(runs, _) if runs.is_empty() => self.0 = Store::One(p),
            Store::One(last) => {
                if let Some(rest) = last.extend(p) {
                    self.0 = Store::Many(vec![*last, rest], len);
                }
            }
            Store::Many(runs, total) => {
                *total = len;
                if let Some(rest) = runs.last_mut().expect("not empty").extend(p) {
                    runs.push(rest);
                }
            }
        }
    }

    /// The runs, ascending.
    pub fn runs(&self) -> &[Progression] {
        match &self.0 {
            Store::One(p) => std::slice::from_ref(p),
            Store::Many(runs, _) => runs,
        }
    }

    /// How many values.
    pub fn len(&self) -> usize {
        match &self.0 {
            Store::One(p) => p.len,
            Store::Many(_, len) => *len,
        }
    }

    /// `true` when there is no value.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The least value, if any.
    pub fn first(&self) -> Option<i64> {
        self.runs().first().map(|p| p.first)
    }

    /// The greatest value, if any.
    pub fn last(&self) -> Option<i64> {
        self.runs().last().map(Progression::last)
    }

    /// The `k`-th value, ascending.
    pub fn get(&self, mut k: usize) -> i64 {
        for p in self.runs() {
            if k < p.len {
                return p.get(k);
            }
            k -= p.len;
        }
        panic!("value past the end of the runs")
    }

    /// Append the values at positions `at..at + n` to `out`.
    pub fn fill(&self, mut at: usize, mut n: usize, out: &mut Vec<i64>) {
        for p in self.runs() {
            if n == 0 {
                break;
            }
            if at >= p.len {
                at -= p.len;
                continue;
            }
            let take = n.min(p.len - at);
            out.extend((at..at + take).map(|k| p.get(k)));
            (at, n) = (0, n - take);
        }
    }

    /// The values, ascending.
    pub fn values(&self) -> impl Iterator<Item = i64> + '_ {
        self.runs().iter().flat_map(|p| p.iter())
    }

    /// The values inside `lo..=hi` (`inside`), or outside it.
    pub fn clip(&self, lo: i64, hi: i64, inside: bool) -> Runs {
        if lo > hi {
            return if inside { Runs::EMPTY } else { self.clone() };
        }
        let mut out = Runs::EMPTY;
        for p in self.runs() {
            if inside {
                out.extend(p.within(lo, hi));
            } else {
                out.extend(
                    lo.checked_sub(1)
                        .and_then(|below| p.within(i64::MIN, below)),
                );
                out.extend(
                    hi.checked_add(1)
                        .and_then(|above| p.within(above, i64::MAX)),
                );
            }
        }
        out
    }
}

impl Extend<Progression> for Runs {
    fn extend<I: IntoIterator<Item = Progression>>(&mut self, iter: I) {
        iter.into_iter().for_each(|p| self.push(p));
    }
}

/// The cells of the global iteration space `glb..=gub step gst` that
/// processor `p` owns under `dist`, as ascending maximal progressions of
/// global (template) indices: [`set_bound`] before `μ` takes them to
/// local indices. One progression under BLOCK, CYCLIC and a collapsed
/// dimension; under `CYCLIC(K)` one per cycle block the space touches,
/// each computed from the block's bounds, merged where they continue
/// each other.
///
/// `gst` must be positive; `glb` / `gub` are clamped to the extent as
/// [`set_bound`] clamps them, `glb` onto the space's step.
pub fn owned_cells(dist: &DimDist, p: i64, glb: i64, gub: i64, gst: i64) -> Runs {
    assert!(gst > 0, "set_bound requires a positive global stride");
    assert!((0..dist.nprocs).contains(&p), "processor out of range");
    let glb = first_in_extent(glb, gst);
    let gub = gub.min(dist.extent - 1);
    if glb > gub {
        return Runs::EMPTY;
    }
    let space = Progression::new(glb, gst, ((gub - glb) / gst + 1) as usize);
    let one = |cells: Option<Progression>| cells.map_or(Runs::EMPTY, Runs::one);
    match dist.kind {
        // Every processor owns the whole dimension. (Iterations of a
        // collapsed dim are replicated unless the caller partitions some
        // other dim.)
        DistKind::Collapsed => Runs::one(space),
        DistKind::Block => {
            let b = dist.block_size();
            one(space.within(p * b, p * b + b - 1))
        }
        DistKind::Cyclic => {
            let np = dist.nprocs;
            // Solve glb + k*gst ≡ p (mod np) for the smallest k >= 0.
            let (g, x, _) = ext_gcd(gst, np);
            let rhs = (p - glb).rem_euclid(np);
            if rhs % g != 0 {
                return Runs::EMPTY;
            }
            let np_g = np / g;
            // k ≡ x * (rhs / g)  (mod np/g)
            let k0 = ((x.rem_euclid(np_g)) * ((rhs / g).rem_euclid(np_g))).rem_euclid(np_g);
            // Successive owned cells are np/g global steps of gst apart.
            let (first, step) = (glb + k0 * gst, gst * np_g);
            one((first <= gub)
                .then(|| Progression::new(first, step, ((gub - first) / step + 1) as usize)))
        }
        DistKind::BlockCyclic(k) => {
            // Cycle `c` gives `p` the block of cells `c·k·P + p·k ..`.
            let cycle = k * dist.nprocs;
            let mut cells = Runs::EMPTY;
            for c in glb / cycle..=gub / cycle {
                let lo = c * cycle + p * k;
                cells.extend(space.within(lo, lo + k - 1));
            }
            cells
        }
    }
}

/// The first cell of `glb + k·gst` (`k >= 0`, `gst > 0`) that is not
/// negative: `glb` itself, or below `gst` when `glb` is negative.
fn first_in_extent(glb: i64, gst: i64) -> i64 {
    if glb >= 0 {
        return glb;
    }
    let (glb, gst) = (i128::from(glb), i128::from(gst));
    (glb + (-glb + gst - 1) / gst * gst) as i64
}

/// The paper's `set_BOUND`: local loop bounds on processor `p` for the
/// global iteration space `glb..=gub step gst` over distribution `dist`,
/// as ascending maximal progressions of local indices — the `(llb, lub,
/// lst)` triples, one under BLOCK, CYCLIC and a collapsed dimension.
/// They are [`owned_cells`] through `μ`, which is affine along any
/// progression of cells one processor owns.
///
/// `gst` must be positive (the front end normalizes negative strides by
/// reversing the range). `glb`/`gub` are clamped to the dimension extent;
/// a backwards range yields the empty result.
pub fn set_bound(dist: &DimDist, p: i64, glb: i64, gub: i64, gst: i64) -> Runs {
    let local = |cells: &Progression| {
        let first = dist.local_of(cells.first);
        let step = if cells.len > 1 {
            dist.local_of(cells.get(1)) - first
        } else {
            0
        };
        Progression::new(first, step, cells.len)
    };
    match owned_cells(dist, p, glb, gub, gst).runs() {
        [cells] => Runs::one(local(cells)),
        runs => {
            let mut locals = Runs::EMPTY;
            locals.extend(runs.iter().map(local));
            locals
        }
    }
}

/// Reference (slow) implementation of `set_BOUND` used by tests: walk the
/// global range and keep the iterations `p` owns.
pub fn set_bound_reference(dist: &DimDist, p: i64, glb: i64, gub: i64, gst: i64) -> Vec<i64> {
    let mut glb = glb;
    while glb < 0 {
        glb += gst;
    }
    let gub = gub.min(dist.extent - 1);
    let mut out = Vec::new();
    if matches!(dist.kind, DistKind::Collapsed) {
        let mut g = glb;
        while g <= gub {
            out.push(g);
            g += gst;
        }
        return out;
    }
    let mut g = glb;
    while g <= gub {
        if dist.proc_of(g) == p {
            out.push(dist.local_of(g));
        }
        g += gst;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_full_range() {
        let d = DimDist::new(DistKind::Block, 16, 4);
        for p in 0..4 {
            let li = set_bound(&d, p, 0, 15, 1);
            assert_eq!(li, Runs::of(0..4), "proc {p}");
        }
    }

    #[test]
    fn block_partial_range_masks_procs() {
        // paper §4: global bounds not covering the whole array mask
        // processors that own no iterations.
        let d = DimDist::new(DistKind::Block, 16, 4);
        let li = set_bound(&d, 0, 6, 11, 1);
        assert!(li.is_empty() || li.values().all(|l| l >= 0)); // p0 owns 0..4
        assert!(set_bound(&d, 0, 6, 11, 1).is_empty());
        assert_eq!(set_bound(&d, 1, 6, 11, 1), Runs::of([2, 3])); // g 6,7
        assert_eq!(set_bound(&d, 2, 6, 11, 1), Runs::of(0..4)); // g 8..12
        assert!(set_bound(&d, 3, 6, 11, 1).is_empty());
    }

    #[test]
    fn cyclic_with_stride() {
        let d = DimDist::new(DistKind::Cyclic, 20, 4);
        // globals 1,4,7,10,13,16,19; proc of g is g%4
        // p0 owns 4,16 → locals 1,4 stride 3
        let li = set_bound(&d, 0, 1, 19, 3);
        assert_eq!(li, Runs::one(Progression::new(1, 3, 2)));
    }

    #[test]
    fn cyclic_stride_sharing_factor_with_p() {
        // gst=2, P=4: only even-residue procs get work from an even start.
        let d = DimDist::new(DistKind::Cyclic, 32, 4);
        assert!(!set_bound(&d, 0, 0, 31, 2).is_empty());
        assert!(set_bound(&d, 1, 0, 31, 2).is_empty());
        assert!(!set_bound(&d, 2, 0, 31, 2).is_empty());
        assert!(set_bound(&d, 3, 0, 31, 2).is_empty());
    }

    #[test]
    fn matches_reference_exhaustively() {
        for kind in [DistKind::Block, DistKind::Cyclic, DistKind::BlockCyclic(3)] {
            for n in [7i64, 16, 23] {
                for p in [1i64, 2, 3, 4] {
                    let d = DimDist::new(kind, n, p);
                    for glb in 0..n {
                        for gub in glb..n {
                            for gst in 1..=4 {
                                for proc in 0..p {
                                    let fast: Vec<i64> =
                                        set_bound(&d, proc, glb, gub, gst).values().collect();
                                    let slow = set_bound_reference(&d, proc, glb, gub, gst);
                                    assert_eq!(
                                        fast, slow,
                                        "{kind:?} n={n} p={p} proc={proc} range={glb}..={gub}:{gst}"
                                    );
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn out_of_extent_bounds_clamped() {
        let d = DimDist::new(DistKind::Block, 10, 2);
        let li = set_bound(&d, 1, 0, 99, 1);
        assert_eq!(li, Runs::of(0..5)); // g 5..10
    }

    /// A range that starts below the extent off its step keeps its step:
    /// `-3..=15 step 2` is the cells `1, 3, …, 15`, not `0, 2, …` (which
    /// are on no iteration), under every kind.
    #[test]
    fn a_negative_start_off_the_step_keeps_the_step() {
        for kind in [DistKind::Block, DistKind::Cyclic, DistKind::BlockCyclic(3)] {
            let d = DimDist::new(kind, 16, 4);
            for (glb, gst) in [(-3, 2), (-1, 3), (-7, 4), (-2, 2)] {
                let mut cells: Vec<i64> = (0..4)
                    .flat_map(|p| {
                        owned_cells(&d, p, glb, 15, gst)
                            .values()
                            .collect::<Vec<_>>()
                    })
                    .collect();
                cells.sort_unstable();
                let want: Vec<i64> = (glb..=15)
                    .step_by(gst as usize)
                    .filter(|&g| g >= 0)
                    .collect();
                assert_eq!(cells, want, "{kind:?} {glb}..=15 step {gst}");
                for p in 0..4 {
                    let fast: Vec<i64> = set_bound(&d, p, glb, 15, gst).values().collect();
                    let slow = set_bound_reference(&d, p, glb, 15, gst);
                    assert_eq!(fast, slow, "{kind:?} p={p} {glb}..=15 step {gst}");
                }
            }
        }
        let d = DimDist::new(DistKind::Block, 16, 4);
        assert_eq!(first_in_extent(i64::MIN, i64::MAX), i64::MAX - 1);
        assert!(owned_cells(&d, 0, i64::MIN, 15, 3).first() == Some(i64::MIN.rem_euclid(3)));
    }

    #[test]
    fn empty_global_range() {
        let d = DimDist::new(DistKind::Block, 10, 2);
        assert!(set_bound(&d, 0, 5, 4, 1).is_empty());
    }

    /// Greedy least-first cut of ascending `values` into progressions:
    /// the definition [`Runs`] keeps, however the values arrive.
    fn greedy(values: &[i64]) -> Vec<(i64, i64, usize)> {
        let mut out: Vec<(i64, i64, usize)> = Vec::new();
        for &v in values {
            match out.last_mut() {
                Some((first, stride, len)) if *len == 1 => (*stride, *len) = (v - *first, 2),
                Some((first, stride, len)) if *first + *len as i64 * *stride == v => *len += 1,
                _ => out.push((v, 0, 1)),
            }
        }
        out
    }

    #[test]
    fn runs_are_the_greedy_cut_whatever_the_pieces() {
        // Every ascending subset of 0..9, pushed value by value and as
        // the progressions of its own greedy cut split at every place.
        for mask in 0u32..(1 << 9) {
            let values: Vec<i64> = (0..9).filter(|v| mask & (1 << v) != 0).collect();
            let want = greedy(&values);
            let got = |runs: &Runs| -> Vec<(i64, i64, usize)> {
                runs.runs()
                    .iter()
                    .map(|p| (p.first, p.stride, p.len))
                    .collect()
            };
            let one_by_one = Runs::of(values.iter().copied());
            assert_eq!(got(&one_by_one), want, "{values:?}");
            assert_eq!(one_by_one.len(), values.len());
            assert_eq!(one_by_one.values().collect::<Vec<_>>(), values);
            for cut in 1..values.len().max(1) {
                let (a, b) = values.split_at(cut);
                let mut runs = Runs::EMPTY;
                for part in [a, b] {
                    for (first, stride, len) in greedy(part) {
                        runs.push(Progression::new(first, stride, len));
                    }
                }
                assert_eq!(runs, one_by_one, "{values:?} cut at {cut}");
            }
            for (k, &v) in values.iter().enumerate() {
                assert_eq!(one_by_one.get(k), v);
                let mut tail = Vec::new();
                one_by_one.fill(k, values.len() - k, &mut tail);
                assert_eq!(tail, values[k..]);
            }
            // Clipping keeps the values inside (outside) the range, in runs.
            for (lo, hi) in [(2, 6), (0, 8), (5, 3), (-3, 1), (7, 20)] {
                let inside: Vec<i64> = values
                    .iter()
                    .copied()
                    .filter(|v| (lo..=hi).contains(v))
                    .collect();
                let outside: Vec<i64> = values
                    .iter()
                    .copied()
                    .filter(|v| !(lo..=hi).contains(v))
                    .collect();
                assert_eq!(one_by_one.clip(lo, hi, true), Runs::of(inside));
                assert_eq!(one_by_one.clip(lo, hi, false), Runs::of(outside));
            }
        }
    }

    #[test]
    fn a_progression_reaching_the_ends_of_i64_is_exact() {
        let step = 1i64 << 62;
        let p = Progression::new(i64::MIN + 1, step, 4);
        let want: Vec<i64> = (0..4)
            .map(|k| (i128::from(i64::MIN + 1) + k * i128::from(step)) as i64)
            .collect();
        assert_eq!(p.iter().collect::<Vec<_>>(), want);
        assert_eq!(p.last(), want[3]);
        assert_eq!(
            p.within(0, i64::MAX),
            Some(Progression::new(want[2], step, 2))
        );
        let mut runs = Runs::one(Progression::new(i64::MIN, 0, 1));
        runs.push(Progression::new(i64::MAX, 0, 1));
        assert_eq!(
            runs.runs().len(),
            2,
            "a gap past i64::MAX continues nothing"
        );
    }

    #[test]
    fn cyclic_k_is_one_progression_per_block() {
        // CYCLIC(3) over 2 processors: p0 holds cells 0..3, 6..9, 12..15,
        // 18..21; the even cells of each block are one local progression.
        let d = DimDist::new(DistKind::BlockCyclic(3), 24, 2);
        let cells: Vec<(i64, i64, usize)> = (owned_cells(&d, 0, 0, 23, 2).runs().iter())
            .map(|p| (p.first, p.stride, p.len))
            .collect();
        assert_eq!(cells, [(0, 2, 2), (6, 2, 2), (12, 2, 2), (18, 2, 2)]);
        let locals: Vec<(i64, i64, usize)> = (set_bound(&d, 0, 0, 23, 2).runs().iter())
            .map(|p| (p.first, p.stride, p.len))
            .collect();
        assert_eq!(locals, [(0, 2, 2), (3, 2, 2), (6, 2, 2), (9, 2, 2)]);
        // At unit stride the blocks' locals continue each other: one run.
        assert_eq!(set_bound(&d, 1, 0, 23, 1), Runs::of(0..12));
    }
}
