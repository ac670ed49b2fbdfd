//! Stage 2 — distribution of template dimensions over the logical grid
//! (the `DISTRIBUTE` directive).
//!
//! `BLOCK` divides a template dimension into contiguous chunks; `CYCLIC`
//! deals elements round-robin; `CYCLIC(K)` (HPF extension, not in the
//! paper's Table set) deals blocks of `K` round-robin. The mapping
//! functions `μ` (global → (proc, local)) and `μ⁻¹` (proc, local → global)
//! of paper §3 stage 2 live here.

use serde::{Deserialize, Serialize};

/// The distribution attribute of one template dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DistKind {
    /// Contiguous chunks of size `ceil(N/P)`.
    Block,
    /// Round-robin single elements: global `g` lives on proc `g mod P`.
    Cyclic,
    /// Round-robin blocks of `K` elements (HPF `CYCLIC(K)`).
    BlockCyclic(i64),
    /// `*` — the dimension is not distributed; every processor along the
    /// corresponding grid axis (if any) holds the whole extent.
    Collapsed,
}

impl DistKind {
    /// `true` when this dimension is actually spread over processors.
    pub fn is_distributed(&self) -> bool {
        !matches!(self, DistKind::Collapsed)
    }
}

/// The concrete distribution of one template dimension over `nprocs`
/// processors of one logical-grid axis: the `μ` / `μ⁻¹` pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DimDist {
    /// Distribution attribute.
    pub kind: DistKind,
    /// Global extent `N` of the dimension.
    pub extent: i64,
    /// Number of processors `P` along the grid axis this dimension maps to
    /// (1 for collapsed dimensions).
    pub nprocs: i64,
}

impl DimDist {
    /// Build a distribution; normalizes `CYCLIC(1)` to `CYCLIC` and any
    /// distribution over one processor behaves like `Collapsed` for
    /// ownership (but keeps its kind for descriptor fidelity).
    ///
    /// # Panics
    /// Panics on non-positive extent, non-positive processor count, or a
    /// non-positive block size in `CYCLIC(K)`.
    pub fn new(kind: DistKind, extent: i64, nprocs: i64) -> Self {
        assert!(extent > 0, "extent must be positive");
        assert!(nprocs > 0, "processor count must be positive");
        let kind = match kind {
            DistKind::BlockCyclic(k) => {
                assert!(k > 0, "CYCLIC(K) block size must be positive");
                if k == 1 {
                    DistKind::Cyclic
                } else {
                    DistKind::BlockCyclic(k)
                }
            }
            other => other,
        };
        DimDist {
            kind,
            extent,
            nprocs,
        }
    }

    /// Block size `b = ceil(N/P)` for BLOCK; `K` for CYCLIC(K); 1 for
    /// CYCLIC; the full extent for collapsed.
    pub fn block_size(&self) -> i64 {
        match self.kind {
            DistKind::Block => crate::ceil_div(self.extent, self.nprocs),
            DistKind::Cyclic => 1,
            DistKind::BlockCyclic(k) => k,
            DistKind::Collapsed => self.extent,
        }
    }

    /// `μ` of this dimension with its constants computed: the one
    /// definition of global index → (grid coordinate, local index).
    #[inline]
    pub fn mu(&self) -> Mu {
        let np = self.nprocs as u64;
        match self.kind {
            DistKind::Block => Mu::Block {
                b: self.block_size() as u64,
                last: np - 1,
            },
            DistKind::Cyclic => Mu::Cyclic { np },
            DistKind::BlockCyclic(k) => Mu::BlockCyclic { k: k as u64, np },
            DistKind::Collapsed => Mu::Whole,
        }
    }

    /// `μ`: the grid coordinate owning global index `g`.
    #[inline]
    pub fn proc_of(&self, g: i64) -> i64 {
        self.global_to_local(g).0
    }

    /// `μ`: the local index of global `g` on its owning processor.
    #[inline]
    pub fn local_of(&self, g: i64) -> i64 {
        self.global_to_local(g).1
    }

    /// `μ` as a pair: `(proc, local)` — [`DimDist::proc_of`] and
    /// [`DimDist::local_of`] sharing their divisions.
    #[inline]
    pub fn global_to_local(&self, g: i64) -> (i64, i64) {
        debug_assert!((0..self.extent).contains(&g), "index {g} out of range");
        self.mu().map(g)
    }

    /// `μ⁻¹`: the global index of local `l` on processor `p`. Returns
    /// `None` when `(p, l)` names no element (past the edge of the last
    /// block, or a processor that owns fewer cycles).
    pub fn global_of(&self, p: i64, l: i64) -> Option<i64> {
        if !(0..self.nprocs).contains(&p) || l < 0 {
            return None;
        }
        let g = match self.kind {
            DistKind::Block => p * self.block_size() + l,
            DistKind::Cyclic => l * self.nprocs + p,
            DistKind::BlockCyclic(k) => (l / k) * k * self.nprocs + p * k + l % k,
            DistKind::Collapsed => l,
        };
        if (0..self.extent).contains(&g) && self.local_of(g) == l && self.proc_of(g) == p {
            Some(g)
        } else {
            None
        }
    }

    /// Number of elements processor `p` owns.
    pub fn local_count(&self, p: i64) -> i64 {
        debug_assert!((0..self.nprocs).contains(&p));
        match self.kind {
            DistKind::Block => {
                let b = self.block_size();
                (self.extent - p * b).clamp(0, b)
            }
            DistKind::Cyclic => {
                let n = self.extent;
                if p < n % self.nprocs {
                    n / self.nprocs + 1
                } else if p < n {
                    n / self.nprocs
                } else {
                    0
                }
            }
            DistKind::BlockCyclic(k) => {
                let cycle = k * self.nprocs;
                let full_cycles = self.extent / cycle;
                let rem = self.extent % cycle;
                let extra = (rem - p * k).clamp(0, k);
                full_cycles * k + extra
            }
            DistKind::Collapsed => self.extent,
        }
    }

    /// Maximum local count over all processors — the local allocation size
    /// a compiler must reserve on every node for this dimension.
    /// Coordinate 0 owns the first block, the first element of every
    /// cycle and the first block of every cycle, so under every kind it
    /// owns the maximum.
    pub fn max_local_count(&self) -> i64 {
        self.local_count(0)
    }
}

/// `μ` of one template dimension (paper §3 stage 2) with its constants
/// precomputed: template index → `(grid coordinate, local index)`.
/// Template indices are never negative, so the arithmetic is unsigned.
/// [`Mu::map`] maps one index, [`Mu::map_run`] a column of them with
/// the kind decided once; every per-element `μ` in the workspace is one
/// of the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mu {
    /// `BLOCK`: blocks of `b`; the last coordinate, `last`, takes the
    /// rest.
    Block {
        /// Block size `ceil(N/P)`.
        b: u64,
        /// The last grid coordinate, `P - 1`.
        last: u64,
    },
    /// `CYCLIC` over `np` coordinates.
    Cyclic {
        /// Number of grid coordinates `P`.
        np: u64,
    },
    /// `CYCLIC(k)` over `np` coordinates.
    BlockCyclic {
        /// Block size `K`.
        k: u64,
        /// Number of grid coordinates `P`.
        np: u64,
    },
    /// `*`: the dimension is held whole at coordinate 0.
    Whole,
}

#[inline]
fn block(t: u64, b: u64, last: u64) -> (u64, u64) {
    let p = (t / b).min(last);
    (p, t - p * b)
}

#[inline]
fn cyclic(t: u64, np: u64) -> (u64, u64) {
    (t % np, t / np)
}

#[inline]
fn block_cyclic(t: u64, k: u64, np: u64) -> (u64, u64) {
    let block = t / k;
    (block % np, block / np * k + t % k)
}

impl Mu {
    /// `(grid coordinate, local index)` of template index `t ≥ 0`.
    #[inline]
    pub fn map(self, t: i64) -> (i64, i64) {
        debug_assert!(t >= 0, "template index {t} is negative");
        let t = t as u64;
        let (p, l) = match self {
            Mu::Block { b, last } => block(t, b, last),
            Mu::Cyclic { np } => cyclic(t, np),
            Mu::BlockCyclic { k, np } => block_cyclic(t, k, np),
            Mu::Whole => (0, t),
        };
        (p as i64, l as i64)
    }

    /// [`Mu::map`] of every `(index, item)` of `run`, in order, through
    /// `each(coordinate, local, item)` — for callers that map a column
    /// of indices at once, each with something to do it for. The kind
    /// is matched once for the run, not once per index.
    #[inline]
    pub fn map_run<T>(
        self,
        run: impl Iterator<Item = (i64, T)>,
        mut each: impl FnMut(i64, i64, T),
    ) {
        let mut put = |(p, l): (u64, u64), item| each(p as i64, l as i64, item);
        match self {
            Mu::Block { b, last } => run.for_each(|(t, x)| put(block(t as u64, b, last), x)),
            Mu::Cyclic { np } => run.for_each(|(t, x)| put(cyclic(t as u64, np), x)),
            Mu::BlockCyclic { k, np } => {
                run.for_each(|(t, x)| put(block_cyclic(t as u64, k, np), x))
            }
            Mu::Whole => run.for_each(|(t, x)| put((0, t as u64), x)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds(extent: i64, p: i64) -> Vec<DimDist> {
        vec![
            DimDist::new(DistKind::Block, extent, p),
            DimDist::new(DistKind::Cyclic, extent, p),
            DimDist::new(DistKind::BlockCyclic(3), extent, p),
            DimDist::new(DistKind::Collapsed, extent, 1),
        ]
    }

    #[test]
    fn block_basic() {
        let d = DimDist::new(DistKind::Block, 10, 4); // b = 3: [0..3)[3..6)[6..9)[9..10)
        assert_eq!(d.block_size(), 3);
        assert_eq!(d.proc_of(0), 0);
        assert_eq!(d.proc_of(2), 0);
        assert_eq!(d.proc_of(3), 1);
        assert_eq!(d.proc_of(9), 3);
        assert_eq!(d.local_of(4), 1);
        assert_eq!(d.local_count(0), 3);
        assert_eq!(d.local_count(3), 1);
    }

    #[test]
    fn block_last_proc_may_be_empty() {
        // N=9, P=4 → b=3 → procs own 3,3,3,0
        let d = DimDist::new(DistKind::Block, 9, 4);
        assert_eq!(d.local_count(3), 0);
        assert_eq!(d.global_of(3, 0), None);
    }

    #[test]
    fn cyclic_basic() {
        let d = DimDist::new(DistKind::Cyclic, 10, 3);
        assert_eq!(d.proc_of(0), 0);
        assert_eq!(d.proc_of(4), 1);
        assert_eq!(d.local_of(4), 1);
        assert_eq!(d.local_count(0), 4); // 0,3,6,9
        assert_eq!(d.local_count(1), 3); // 1,4,7
        assert_eq!(d.local_count(2), 3); // 2,5,8
    }

    #[test]
    fn block_cyclic_basic() {
        let d = DimDist::new(DistKind::BlockCyclic(2), 12, 3);
        // blocks of 2 dealt round robin: p0: 0,1,6,7  p1: 2,3,8,9  p2: 4,5,10,11
        assert_eq!(d.proc_of(0), 0);
        assert_eq!(d.proc_of(2), 1);
        assert_eq!(d.proc_of(6), 0);
        assert_eq!(d.local_of(6), 2);
        assert_eq!(d.local_of(7), 3);
        assert_eq!(d.local_count(0), 4);
        let owned = crate::owned_cells(&d, 1, 0, 11, 1);
        assert_eq!(owned.values().collect::<Vec<_>>(), vec![2, 3, 8, 9]);
    }

    #[test]
    fn cyclic_one_normalizes() {
        let d = DimDist::new(DistKind::BlockCyclic(1), 10, 3);
        assert_eq!(d.kind, DistKind::Cyclic);
    }

    #[test]
    fn roundtrip_every_element() {
        for n in [1, 2, 7, 10, 16, 33] {
            for p in [1, 2, 3, 4, 7] {
                for d in all_kinds(n, p) {
                    let mut seen = vec![false; n as usize];
                    for proc in 0..d.nprocs {
                        for g in crate::owned_cells(&d, proc, 0, n - 1, 1).values() {
                            assert!(!seen[g as usize], "{d:?} double-owns {g}");
                            seen[g as usize] = true;
                            let (pp, ll) = d.global_to_local(g);
                            assert_eq!(pp, proc);
                            assert_eq!(d.global_of(pp, ll), Some(g));
                        }
                    }
                    assert!(seen.iter().all(|&s| s), "{d:?} misses elements");
                }
            }
        }
    }

    #[test]
    fn a_run_maps_like_its_elements() {
        for n in [1, 2, 7, 10, 16, 33] {
            for p in [1, 2, 3, 4, 7] {
                for d in all_kinds(n, p) {
                    let mut run = Vec::new();
                    let indices = (0..n).rev().map(|g| (g, 2 * g));
                    d.mu().map_run(indices, |proc, local, item| {
                        run.push((proc, local, item));
                    });
                    let each: Vec<(i64, i64, i64)> = ((0..n).rev())
                        .map(|g| (d.proc_of(g), d.local_of(g), 2 * g))
                        .collect();
                    assert_eq!(run, each, "{d:?}");
                }
            }
        }
    }

    #[test]
    fn counts_sum_to_extent() {
        for n in [1, 5, 9, 10, 64, 100] {
            for p in [1, 2, 3, 8, 16] {
                for d in [
                    DimDist::new(DistKind::Block, n, p),
                    DimDist::new(DistKind::Cyclic, n, p),
                    DimDist::new(DistKind::BlockCyclic(4), n, p),
                ] {
                    let total: i64 = (0..p).map(|q| d.local_count(q)).sum();
                    assert_eq!(total, n, "{d:?}");
                    assert!(d.max_local_count() >= crate::ceil_div(n, p));
                }
            }
        }
    }

    #[test]
    fn max_local_count_is_coordinate_zeros() {
        for n in 1..=40 {
            for p in 1..=9 {
                for d in all_kinds(n, p) {
                    let fold = (0..d.nprocs).map(|q| d.local_count(q)).max().unwrap();
                    assert_eq!(d.max_local_count(), fold, "{d:?}");
                }
            }
        }
    }

    #[test]
    fn more_procs_than_elements() {
        let d = DimDist::new(DistKind::Block, 2, 8); // b = 1
        assert_eq!(d.local_count(0), 1);
        assert_eq!(d.local_count(1), 1);
        for p in 2..8 {
            assert_eq!(d.local_count(p), 0, "proc {p}");
        }
        let d = DimDist::new(DistKind::Cyclic, 2, 8);
        assert_eq!(d.local_count(0), 1);
        assert_eq!(d.local_count(7), 0);
    }
}
