//! The `set_BOUND` primitive (paper §4).
//!
//! `set_BOUND(llb, lub, lst, glb, gub, gst, DIST, dim)` takes a global
//! iteration range (lower bound, upper bound, stride) and statically
//! distributes it over the processors of one grid axis, returning each
//! processor's *local* loop bounds. Processors with no iterations receive
//! an empty range — this is how the compiler masks inactive processors.
//!
//! For BLOCK and CYCLIC the owned iterations always form an arithmetic
//! progression in local index space, so the result is a `(llb, lub, lst)`
//! triple exactly as in the paper. For `CYCLIC(K)` with a non-unit global
//! stride that is no longer true; [`set_bound`] then returns the explicit
//! local index list (an extension the paper did not need).
//!
//! The node program loops over those triples as they are: a rank's share
//! of one FORALL variable is a [`Runs`] — its values as ascending maximal
//! [`Progression`]s, one for every BLOCK, CYCLIC or replicated variable,
//! several only under `CYCLIC(K)`, where the FORALL dispatch cuts the
//! local range at the cycle's blocks, or the list once into runs.

use crate::dist::{DimDist, DistKind};
use crate::ext_gcd;

/// A local iteration range `llb..=lub step lst` (empty when `llb > lub`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalRange {
    /// Local lower bound.
    pub lb: i64,
    /// Local upper bound (inclusive, Fortran-style).
    pub ub: i64,
    /// Local stride (positive).
    pub st: i64,
}

impl LocalRange {
    /// The canonical empty range.
    pub const EMPTY: LocalRange = LocalRange {
        lb: 0,
        ub: -1,
        st: 1,
    };

    /// `true` when the range contains no iterations.
    pub fn is_empty(&self) -> bool {
        self.lb > self.ub
    }

    /// Number of iterations.
    pub fn len(&self) -> i64 {
        if self.is_empty() {
            0
        } else {
            (self.ub - self.lb) / self.st + 1
        }
    }

    /// Iterate the local indices.
    pub fn iter(&self) -> impl Iterator<Item = i64> + '_ {
        let (lb, ub, st) = (self.lb, self.ub, self.st);
        (0..self.len())
            .map(move |k| lb + k * st)
            .filter(move |&l| l <= ub)
    }
}

/// Result of [`set_bound`]: an arithmetic local range when one exists,
/// otherwise an explicit list of local indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocalIter {
    /// Arithmetic progression of local indices.
    Range(LocalRange),
    /// Explicit local index list (only for `CYCLIC(K)` with stride > 1).
    List(Vec<i64>),
}

impl LocalIter {
    /// Number of local iterations.
    pub fn len(&self) -> i64 {
        match self {
            LocalIter::Range(r) => r.len(),
            LocalIter::List(v) => v.len() as i64,
        }
    }

    /// `true` when there are no local iterations.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Collect the local indices.
    pub fn to_vec(&self) -> Vec<i64> {
        match self {
            LocalIter::Range(r) => r.iter().collect(),
            LocalIter::List(v) => v.clone(),
        }
    }
}

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
        let (first, stride) = (i128::from(self.first), i128::from(self.stride.max(1)));
        let (lo, hi) = (i128::from(lo), i128::from(hi));
        let k_lo = if lo <= first {
            0
        } else {
            (lo - first + stride - 1) / stride
        };
        if hi < first {
            return None;
        }
        let k_hi = ((hi - first) / stride).min(self.len as i128 - 1);
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

/// One FORALL variable's iteration values on one rank: ascending maximal
/// progressions. Maximal means no run continues the one before it —
/// what cutting the values greedily, least first, into progressions
/// gives — so one progression is kept inline and only a variable that
/// is no progression (`CYCLIC(K)`) holds a list. Empty when the rank
/// has no value of the variable.
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

/// The paper's `set_BOUND`: local loop bounds on processor `p` for the
/// global iteration space `glb..=gub step gst` over distribution `dist`.
///
/// `gst` must be positive (the front end normalizes negative strides by
/// reversing the range). `glb`/`gub` are clamped to the dimension extent;
/// a backwards range yields the empty result.
pub fn set_bound(dist: &DimDist, p: i64, glb: i64, gub: i64, gst: i64) -> LocalIter {
    assert!(gst > 0, "set_bound requires a positive global stride");
    assert!((0..dist.nprocs).contains(&p), "processor out of range");
    let glb = glb.max(0);
    let gub = gub.min(dist.extent - 1);
    if glb > gub {
        return LocalIter::Range(LocalRange::EMPTY);
    }
    match dist.kind {
        DistKind::Collapsed => {
            // Every processor owns the whole dimension; the "local" range is
            // the global one. (Iterations of a collapsed dim are replicated
            // unless the caller partitions some other dim.)
            LocalIter::Range(LocalRange {
                lb: glb,
                ub: gub,
                st: gst,
            })
        }
        DistKind::Block => {
            let b = dist.block_size();
            let own_lo = p * b;
            let own_hi = own_lo + dist.local_count(p) - 1;
            if own_hi < own_lo {
                return LocalIter::Range(LocalRange::EMPTY);
            }
            // First iterate >= own_lo, last <= own_hi.
            let lo = own_lo.max(glb);
            let first_k = crate::ceil_div(lo - glb, gst);
            let first_g = glb + first_k * gst;
            if first_g > own_hi || first_g > gub {
                return LocalIter::Range(LocalRange::EMPTY);
            }
            let last_g = {
                let hi = own_hi.min(gub);
                glb + ((hi - glb) / gst) * gst
            };
            LocalIter::Range(LocalRange {
                lb: first_g - own_lo,
                ub: last_g - own_lo,
                st: gst,
            })
        }
        DistKind::Cyclic => {
            let np = dist.nprocs;
            // Solve glb + k*gst ≡ p (mod np) for the smallest k >= 0.
            let (g, x, _) = ext_gcd(gst, np);
            let rhs = (p - glb).rem_euclid(np);
            if rhs % g != 0 {
                return LocalIter::Range(LocalRange::EMPTY);
            }
            let np_g = np / g;
            // k ≡ x * (rhs / g)  (mod np/g)
            let k0 = ((x.rem_euclid(np_g)) * ((rhs / g).rem_euclid(np_g))).rem_euclid(np_g);
            let first_g = glb + k0 * gst;
            if first_g > gub {
                return LocalIter::Range(LocalRange::EMPTY);
            }
            // Successive owned iterations are np/g global steps of gst apart.
            let gstep = gst * np_g;
            let count = (gub - first_g) / gstep + 1;
            let last_g = first_g + (count - 1) * gstep;
            // Local index of global g on cyclic proc p is g / np; the local
            // stride is gstep / np = gst / g.
            debug_assert_eq!(gstep % np, 0);
            LocalIter::Range(LocalRange {
                lb: first_g / np,
                ub: last_g / np,
                st: gstep / np,
            })
        }
        DistKind::BlockCyclic(_) => {
            if gst == 1 {
                // Stride-1 ranges map to a contiguous local interval because
                // local order preserves global order.
                let mut lo = None;
                let mut hi = None;
                for gl in dist.owned_globals(p) {
                    if (glb..=gub).contains(&gl) {
                        let l = dist.local_of(gl);
                        if lo.is_none() {
                            lo = Some(l);
                        }
                        hi = Some(l);
                    }
                }
                match (lo, hi) {
                    (Some(lb), Some(ub)) => LocalIter::Range(LocalRange { lb, ub, st: 1 }),
                    _ => LocalIter::Range(LocalRange::EMPTY),
                }
            } else {
                let list: Vec<i64> = (0..)
                    .map(|k| glb + k * gst)
                    .take_while(|&gl| gl <= gub)
                    .filter(|&gl| dist.proc_of(gl) == p)
                    .map(|gl| dist.local_of(gl))
                    .collect();
                if list.is_empty() {
                    LocalIter::Range(LocalRange::EMPTY)
                } else {
                    LocalIter::List(list)
                }
            }
        }
    }
}

/// Reference (slow) implementation of `set_BOUND` used by tests: walk the
/// global range and keep the iterations `p` owns.
pub fn set_bound_reference(dist: &DimDist, p: i64, glb: i64, gub: i64, gst: i64) -> Vec<i64> {
    let glb = glb.max(0);
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
            assert_eq!(li.to_vec(), vec![0, 1, 2, 3], "proc {p}");
        }
    }

    #[test]
    fn block_partial_range_masks_procs() {
        // paper §4: global bounds not covering the whole array mask
        // processors that own no iterations.
        let d = DimDist::new(DistKind::Block, 16, 4);
        let li = set_bound(&d, 0, 6, 11, 1);
        assert!(li.is_empty() || li.to_vec().iter().all(|&l| l >= 0)); // p0 owns 0..4
        assert!(set_bound(&d, 0, 6, 11, 1).is_empty());
        assert_eq!(set_bound(&d, 1, 6, 11, 1).to_vec(), vec![2, 3]); // g 6,7
        assert_eq!(set_bound(&d, 2, 6, 11, 1).to_vec(), vec![0, 1, 2, 3]); // g 8..12
        assert!(set_bound(&d, 3, 6, 11, 1).is_empty());
    }

    #[test]
    fn cyclic_with_stride() {
        let d = DimDist::new(DistKind::Cyclic, 20, 4);
        // globals 1,4,7,10,13,16,19; proc of g is g%4
        // p0 owns 4,16 → locals 1,4 stride 3
        let li = set_bound(&d, 0, 1, 19, 3);
        assert_eq!(li.to_vec(), vec![1, 4]);
        match li {
            LocalIter::Range(r) => assert_eq!(r.st, 3),
            _ => panic!("cyclic must give a range"),
        }
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
                                    let fast = set_bound(&d, proc, glb, gub, gst).to_vec();
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
        assert_eq!(li.to_vec(), vec![0, 1, 2, 3, 4]); // g 5..10
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
    fn local_range_len_and_iter() {
        let r = LocalRange {
            lb: 2,
            ub: 10,
            st: 3,
        };
        assert_eq!(r.len(), 3);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![2, 5, 8]);
        assert!(LocalRange::EMPTY.is_empty());
        assert_eq!(LocalRange::EMPTY.len(), 0);
    }
}
