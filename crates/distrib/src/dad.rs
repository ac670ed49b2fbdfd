//! The Distributed Array Descriptor (DAD, paper §6).
//!
//! When a distributed array is passed to a run-time primitive the callee
//! needs its global shape, alignment, distribution and grid placement to
//! compute local bounds and send/receive sets. The `Dad` bundles the three
//! mapping stages for one array; it is the structure the generated code
//! fills with `set_DAD` before every communication call (paper §5.3.1).
//!
//! Which elements a node holds is decided once, here: every dimension's
//! owned set is a [`Runs`] ([`ArrayDimMap::owned`]), and
//! [`Dad::walk`] — over those sets or any others — is the one product
//! walk every primitive enumerates elements with, an innermost run at a
//! time ([`OwnedRun`]: a first index vector, a first flat offset in a
//! [`Segment`], an offset step and a length). [`Dad::for_each_owned`],
//! [`Dad::for_each`] and [`Dad::offsets`] expand its runs an element at
//! a time.

use serde::{Deserialize, Serialize};

use crate::align::{AlignExpr, Alignment, AxisAlign};
use crate::bounds::{owned_cells, Progression, Runs};
use crate::dist::{DimDist, DistKind, Mu};
use crate::grid::ProcGrid;
use crate::template::Template;

/// Per-array-dimension composite mapping: alignment into the template
/// composed with the template dimension's distribution onto a grid axis.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArrayDimMap {
    /// Global extent of this array dimension.
    pub extent: i64,
    /// Affine alignment `f` of array index to template index.
    pub align: AlignExpr,
    /// Distribution of the target template dimension (extent = template
    /// extent, nprocs = grid axis extent). For dimensions that are
    /// collapsed or aligned to an undistributed template dimension the
    /// kind is `Collapsed` with `nprocs = 1`.
    pub dist: DimDist,
    /// The grid axis this dimension is spread over, when distributed.
    pub grid_axis: Option<usize>,
}

impl ArrayDimMap {
    /// `true` when elements of this dimension live on different processors.
    pub fn is_distributed(&self) -> bool {
        self.grid_axis.is_some() && self.dist.kind.is_distributed() && self.dist.nprocs > 1
    }

    /// Grid coordinate (along `grid_axis`) owning array index `i`.
    #[inline]
    pub fn proc_of(&self, i: i64) -> i64 {
        self.dist.proc_of(self.align.apply(i))
    }

    /// Local index (in template-local numbering) of array index `i`.
    ///
    /// Local storage is indexed by the *template* local index so that
    /// aligned arrays share one coordinate system; for identity alignments
    /// this is the usual array-local index.
    #[inline]
    pub fn local_of(&self, i: i64) -> i64 {
        self.dist.local_of(self.align.apply(i))
    }

    /// Inverse: array index stored at `(p, l)` if that slot holds one.
    pub fn array_index_of(&self, p: i64, l: i64) -> Option<i64> {
        let t = self.dist.global_of(p, l)?;
        let i = self.align.invert(t)?;
        if (0..self.extent).contains(&i) {
            Some(i)
        } else {
            None
        }
    }

    /// Local index of array index `i` on its owner: the template-local
    /// index ([`ArrayDimMap::local_of`]) of a distributed dimension, the
    /// array index itself of one held whole.
    #[inline]
    pub fn local(&self, i: i64) -> i64 {
        if self.is_distributed() {
            self.local_of(i)
        } else {
            i
        }
    }

    /// The elements of this dimension held by grid coordinate `p`, as
    /// runs of array indices: `set_BOUND` of the dimension's own
    /// alignment image `f(0..extent)` ([`owned_cells`]), its cells taken
    /// back through `f⁻¹` run by run — `O(progressions)`. Cells ascend
    /// against the array index under a negative alignment stride, so
    /// their runs are then taken last first. An undistributed dimension
    /// is held whole. The local indices of a run are
    /// [`ArrayDimMap::locals`].
    pub fn owned(&self, p: i64) -> Runs {
        if self.extent <= 0 {
            return Runs::EMPTY;
        }
        if !self.is_distributed() {
            return Runs::one(Progression::new(0, 1, self.extent as usize));
        }
        let AlignExpr { stride, offset } = self.align;
        let (t0, t1) = (self.align.apply(0), self.align.apply(self.extent - 1));
        let cells = owned_cells(&self.dist, p, t0.min(t1), t0.max(t1), stride.abs());
        let indices = |c: &Progression| {
            let ends = ((c.first - offset) / stride, (c.last() - offset) / stride);
            Progression::new(ends.0.min(ends.1), c.stride / stride.abs(), c.len)
        };
        let mut owned = Runs::EMPTY;
        if stride > 0 {
            owned.extend(cells.runs().iter().map(indices));
        } else {
            owned.extend(cells.runs().iter().rev().map(indices));
        }
        owned
    }

    /// The local indices of `run`, array indices one grid coordinate
    /// holds: `(first, step)`, the local index of `run.first` and its
    /// change from one element to the next. `μ` is affine along any
    /// progression of cells one coordinate holds, so they are a
    /// progression too — descending under a negative alignment stride.
    pub fn locals(&self, run: &Progression) -> (i64, i64) {
        let first = self.local(run.first);
        let step = if run.len > 1 {
            self.local(run.get(1)) - first
        } else {
            0
        };
        (first, step)
    }

    /// Number of local slots a node must allocate for this dimension
    /// (template-local count of the owning processor).
    pub fn local_alloc(&self) -> i64 {
        if self.is_distributed() {
            self.dist.max_local_count()
        } else {
            self.extent.max(self.dist.extent.min(self.extent))
        }
    }
}

/// Distributed Array Descriptor: the full three-stage mapping of one array.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Dad {
    /// Array name (diagnostics only).
    pub name: String,
    /// Global shape.
    pub shape: Vec<i64>,
    /// Per-dimension composite maps.
    pub dims: Vec<ArrayDimMap>,
    /// Grid axes along which the array is *replicated* (template dims with
    /// no aligned array axis, plus grid axes unused by this array).
    pub replicated_axes: Vec<usize>,
    /// The logical processor grid.
    pub grid: ProcGrid,
}

impl Dad {
    /// Array rank.
    pub fn rank(&self) -> usize {
        self.shape.len()
    }

    /// Total number of elements.
    pub fn size(&self) -> i64 {
        self.shape.iter().product()
    }

    /// `true` when no dimension is distributed (every node holds a copy).
    pub fn is_replicated(&self) -> bool {
        self.dims.iter().all(|d| !d.is_distributed())
    }

    /// Grid coordinates of the *owner* of global element `index`.
    /// Replicated axes get coordinate 0 (the canonical copy); callers that
    /// need every copy should expand over [`Dad::replicated_axes`].
    pub fn owner_coords(&self, index: &[i64]) -> Vec<i64> {
        assert_eq!(index.len(), self.rank());
        let mut coords = vec![0; self.grid.rank()];
        for (d, &i) in self.dims.iter().zip(index) {
            if let Some(ax) = d.grid_axis {
                if d.is_distributed() {
                    coords[ax] = d.proc_of(i);
                }
            }
        }
        coords
    }

    /// All physical ranks holding a copy of `index` (owner expanded over
    /// replicated axes).
    pub fn owner_ranks(&self, index: &[i64]) -> Vec<i64> {
        let base = self.owner_coords(index);
        let mut ranks = Vec::new();
        expand_axes(&self.grid, &base, &self.replicated_axes, &mut ranks);
        ranks
    }

    /// `true` when physical rank `rank` holds element `index`.
    pub fn is_owner(&self, rank: i64, index: &[i64]) -> bool {
        let coords = self.grid.coords_of(rank);
        let owner = self.owner_coords(index);
        coords
            .iter()
            .zip(&owner)
            .enumerate()
            .all(|(ax, (&c, &o))| self.replicated_axes.contains(&ax) || c == o)
    }

    /// Local (per-dimension) index vector of `index` on its owner.
    pub fn local_index(&self, index: &[i64]) -> Vec<i64> {
        self.dims
            .iter()
            .zip(index)
            .map(|(d, &i)| d.local(i))
            .collect()
    }

    /// Local allocation shape every node reserves for this array.
    pub fn local_shape(&self) -> Vec<i64> {
        self.dims.iter().map(|d| d.local_alloc()).collect()
    }

    /// Global index stored at local `local` on the node at `coords`, if
    /// that slot holds a real element there.
    pub fn global_index(&self, coords: &[i64], local: &[i64]) -> Option<Vec<i64>> {
        let mut out = Vec::with_capacity(self.rank());
        for (d, &l) in self.dims.iter().zip(local) {
            if d.is_distributed() {
                let p = coords[d.grid_axis.expect("distributed dim has axis")];
                out.push(d.array_index_of(p, l)?);
            } else {
                if !(0..d.extent).contains(&l) {
                    return None;
                }
                out.push(l);
            }
        }
        Some(out)
    }

    /// Every dimension's elements held by the node at grid `coords`
    /// ([`ArrayDimMap::owned`] of its coordinate).
    pub fn owned(&self, coords: &[i64]) -> Vec<Runs> {
        (self.dims.iter())
            .map(|d| d.owned(d.grid_axis.map_or(0, |ax| coords[ax])))
            .collect()
    }

    /// Visit the elements held by the node at grid `coords` — the
    /// [`Dad::for_each`] of [`Dad::owned`] — in row-major order of
    /// increasing array index. Returns how many there are.
    pub fn for_each_owned(
        &self,
        coords: &[i64],
        seg: &Segment,
        f: impl FnMut(&[i64], usize),
    ) -> usize {
        self.for_each(&self.owned(coords), seg, f)
    }

    /// The flat offsets in `seg` [`Dad::walk`] visits over `sets`, in
    /// its order.
    pub fn offsets(&self, sets: &[Runs], seg: &Segment) -> Vec<usize> {
        let mut offs = Vec::with_capacity(sets.iter().map(Runs::len).product());
        self.walk(sets, seg, |_, run| offs.extend(run.offsets()));
        offs
    }

    /// [`Dad::walk`] an element at a time: `f(index, offset)` with each
    /// index vector of the row-major product of `sets` and its flat
    /// offset in `seg`. The index vector is the walk's own buffer, so
    /// nothing is allocated per element. Returns how many elements it
    /// visited.
    pub fn for_each(
        &self,
        sets: &[Runs],
        seg: &Segment,
        mut f: impl FnMut(&[i64], usize),
    ) -> usize {
        self.runs(sets, seg, |index, run| {
            f(index, run.first);
            for k in 1..run.len {
                index[run.dim] += run.index_step;
                f(index, run.offset(k));
            }
        })
    }

    /// The one product walk: visit the row-major product of `sets` — per
    /// dimension, array indices one grid coordinate holds, in
    /// increasing order — an innermost run at a time, calling `f(index,
    /// run)` with the index vector of the run's first element and the
    /// run's place in `seg` ([`OwnedRun`]), a dimension's local index
    /// being [`ArrayDimMap::locals`] of its run. Along a run the offset
    /// moves by one step, so a caller folds it straight off the
    /// segment's slice. Nothing is allocated per run or element.
    /// Returns how many elements it visited.
    pub fn walk(&self, sets: &[Runs], seg: &Segment, mut f: impl FnMut(&[i64], OwnedRun)) -> usize {
        self.runs(sets, seg, |index, run| f(index, run))
    }

    /// [`Dad::walk`], lending `f` the index buffer: it may move the run's
    /// own dimension (`index[run.dim]`), which the walk sets again before
    /// the next run, and no other.
    fn runs(&self, sets: &[Runs], seg: &Segment, mut f: impl FnMut(&mut [i64], OwnedRun)) -> usize {
        debug_assert_eq!(sets.len(), self.rank());
        if sets.iter().any(Runs::is_empty) {
            return 0;
        }
        /// A dimension's place: its run, the element in it, the offset
        /// step along the run and the offset share of its first element.
        struct Cursor {
            run: usize,
            k: usize,
            step: i64,
            base: i64,
        }
        let enter = |d: usize, run: usize| {
            let (first, step) = self.dims[d].locals(&sets[d].runs()[run]);
            let stride = seg.strides[d];
            Cursor {
                run,
                k: 0,
                step: step * stride,
                base: (first + seg.bias[d]) * stride,
            }
        };
        // The dimension walked a run at a time: the last one, or the
        // last holding more than one element — those after it hold one
        // each, so their index and offset share never move.
        let Some(last) = sets.len().checked_sub(1) else {
            let run = OwnedRun {
                dim: 0,
                index_step: 0,
                first: 0,
                step: 0,
                len: 1,
            };
            f(&mut [], run);
            return 1;
        };
        let inner = (0..=last)
            .rev()
            .find(|&d| sets[d].len() > 1)
            .unwrap_or(last);
        let mut at: Vec<Cursor> = (0..sets.len()).map(|d| enter(d, 0)).collect();
        let mut index: Vec<i64> = sets.iter().map(|s| s.runs()[0].first).collect();
        let mut off: i64 = at.iter().map(|c| c.base).sum();
        let mut visited = 0;
        loop {
            // The innermost dimension's run, whole.
            let run = sets[inner].runs()[at[inner].run];
            f(
                &mut index,
                OwnedRun {
                    dim: inner,
                    index_step: run.stride,
                    first: off as usize,
                    step: at[inner].step,
                    len: run.len,
                },
            );
            visited += run.len;
            // Advance row-major: the innermost dimension a run at a
            // time, the outer ones an element at a time.
            let mut d = inner;
            loop {
                let (runs, c) = (sets[d].runs(), &mut at[d]);
                if d != inner && c.k + 1 < runs[c.run].len {
                    c.k += 1;
                    index[d] += runs[c.run].stride;
                    off += c.step;
                    break;
                }
                let next = (c.run + 1) % runs.len();
                off -= c.base + c.k as i64 * c.step;
                if next == c.run {
                    c.k = 0;
                } else {
                    *c = enter(d, next);
                }
                off += c.base;
                index[d] = runs[next].first;
                if next != 0 {
                    break;
                }
                if d == 0 {
                    return visited;
                }
                d -= 1;
            }
        }
    }
}

/// One innermost run of a [`Dad::walk`]: `len` elements along dimension
/// `dim`, the array index moving by `index_step` and the flat offset by
/// `step` from one to the next. Under a negative alignment stride the
/// offsets descend while the indices ascend.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OwnedRun {
    /// The dimension the run moves along.
    pub dim: usize,
    /// Array index step along `dim` from one element to the next.
    pub index_step: i64,
    /// Flat offset of the run's first element.
    pub first: usize,
    /// Flat offset step from one element to the next.
    pub step: i64,
    /// Number of elements, at least one.
    pub len: usize,
}

impl OwnedRun {
    /// Flat offset of element `k` of the run.
    #[inline]
    pub fn offset(&self, k: usize) -> usize {
        (self.first as i64 + k as i64 * self.step) as usize
    }

    /// The run's flat offsets, in order.
    pub fn offsets(self) -> impl Iterator<Item = usize> {
        (0..self.len).map(move |k| self.offset(k))
    }

    /// The run's elements in `data`, in order, when their offsets step
    /// by one: a slice to fold straight off.
    #[inline]
    pub fn contiguous<'a, T>(&self, data: &'a [T]) -> Option<&'a [T]> {
        (self.step == 1 || self.len == 1).then(|| &data[self.first..self.first + self.len])
    }
}

/// Where the local index vectors of an array segment sit in its flat
/// storage: `Σ (l_d + bias_d) · stride_d`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// Per dimension, how far one step of its local index moves the
    /// offset: [`row_major_strides`] of the padded extents (0 for a
    /// dimension that does not move it).
    pub strides: Vec<i64>,
    /// Per dimension, added to the local index first: the ghost cells
    /// below the interior.
    pub bias: Vec<i64>,
}

impl Segment {
    /// The segment of interior `shape` padded by `ghost_lo` / `ghost_hi`
    /// cells per dimension.
    pub fn padded(shape: &[i64], ghost_lo: &[i64], ghost_hi: &[i64]) -> Self {
        let extents: Vec<i64> = (shape.iter().zip(ghost_lo).zip(ghost_hi))
            .map(|((&n, &lo), &hi)| n + lo + hi)
            .collect();
        Segment {
            strides: row_major_strides(&extents),
            bias: ghost_lo.to_vec(),
        }
    }

    /// The flat offset of local index vector `local`.
    pub fn offset(&self, local: &[i64]) -> usize {
        (local.iter().zip(&self.strides).zip(&self.bias))
            .map(|((&l, &stride), &bias)| (l + bias) * stride)
            .sum::<i64>() as usize
    }
}

/// Row-major strides over `extents`: the last dimension moves by one.
pub fn row_major_strides(extents: &[i64]) -> Vec<i64> {
    let mut strides = vec![1; extents.len()];
    for d in (1..extents.len()).rev() {
        strides[d - 1] = strides[d] * extents[d];
    }
    strides
}

/// Where a global element lives, without allocating: the canonical
/// owner's physical rank and the element's flat offset in that rank's
/// ghost-padded segment — [`Dad::owner_ranks`]`[0]` and the row-major
/// offset of [`Dad::local_index`] in one pass over the subscripts.
///
/// Built once per `(descriptor, segment layout)` — every rank allocates
/// an array's segment with the same shape and ghost widths — and
/// evaluated by the unstructured-communication inspectors, an element
/// ([`Locator::locate`]) or a column of them ([`Locator::locate_rows`])
/// at a time. The distribution's constants (BLOCK's block size, the
/// processor count) are computed here, once, not per element.
#[derive(Debug, Clone)]
pub struct Locator {
    dims: Vec<LocatorDim>,
    /// Rank offset of every copy along the replicated grid axes, in
    /// [`Dad::owner_ranks`] order; the first is 0, the canonical copy.
    replicas: Vec<i64>,
}

#[derive(Debug, Clone)]
struct LocatorDim {
    /// The dimension's alignment and `μ` — the identity and
    /// [`Mu::Whole`] for one held whole.
    align: AlignExpr,
    mu: Mu,
    /// The rank contribution of each grid coordinate along the
    /// dimension's axis (`φ` is a sum of per-axis terms under both
    /// embeddings); `[0]` for one held whole.
    ranks: Vec<i64>,
    ghost_lo: i64,
    /// Row-major stride over the padded extents.
    stride: i64,
}

impl LocatorDim {
    /// `(rank contribution, padded offset contribution)` of index `g`.
    #[inline]
    fn place(&self, g: i64) -> (i64, i64) {
        let (p, l) = self.mu.map(self.align.apply(g));
        (self.ranks[p as usize], (l + self.ghost_lo) * self.stride)
    }

    /// [`LocatorDim::place`] of every index of `col`, in order, through
    /// `each`: the distribution is matched once for the column.
    #[inline]
    fn place_column(&self, col: impl Iterator<Item = i64>, mut each: impl FnMut(i64, i64)) {
        let cells = col.map(|g| (self.align.apply(g), ()));
        self.mu.map_run(cells, |p, l, ()| {
            each(self.ranks[p as usize], (l + self.ghost_lo) * self.stride)
        });
    }
}

impl Locator {
    /// The locator of `dad` over segments of interior `shape` padded by
    /// `ghost_lo` / `ghost_hi` cells per dimension.
    pub fn new(dad: &Dad, shape: &[i64], ghost_lo: &[i64], ghost_hi: &[i64]) -> Self {
        assert_eq!(shape.len(), dad.rank(), "segment rank mismatch");
        let grid = &dad.grid;
        // Rank contribution of coordinate `c` on `axis`, others at 0.
        let axis_ranks = |axis: usize| -> Vec<i64> {
            let mut coords = vec![0; grid.rank()];
            (0..grid.extent(axis))
                .map(|c| {
                    coords[axis] = c;
                    grid.rank_of(&coords)
                })
                .collect()
        };
        let seg = Segment::padded(shape, ghost_lo, ghost_hi);
        let dims = (dad.dims.iter().zip(seg.strides).zip(seg.bias))
            .map(|((dm, stride), ghost_lo)| {
                let (align, mu, ranks) = match dm.grid_axis {
                    Some(axis) if dm.is_distributed() => (dm.align, dm.dist.mu(), axis_ranks(axis)),
                    _ => (AlignExpr::IDENTITY, Mu::Whole, vec![0]),
                };
                LocatorDim {
                    align,
                    mu,
                    ranks,
                    ghost_lo,
                    stride,
                }
            })
            .collect();
        let mut replicas = vec![0];
        for &axis in &dad.replicated_axes {
            let parts = axis_ranks(axis);
            replicas = replicas
                .iter()
                .flat_map(|base| parts.iter().map(move |p| base + p))
                .collect();
        }
        Locator { dims, replicas }
    }

    /// `(canonical owner rank, flat padded offset)` of global element
    /// `g`, which the caller has checked to lie inside the array. Every
    /// copy lives at the same offset on rank `owner + r` for each `r` of
    /// [`Locator::replicas`].
    #[inline]
    pub fn locate(&self, g: &[i64]) -> (i64, usize) {
        debug_assert_eq!(g.len(), self.dims.len());
        let (mut rank, mut off) = (0, 0);
        for (dim, &g) in self.dims.iter().zip(g) {
            let (r, o) = dim.place(g);
            rank += r;
            off += o;
        }
        (rank, off as usize)
    }

    /// [`Locator::locate`] of every row of `subs` — row-major, one index
    /// per dimension a row, every row inside the array — in order,
    /// through `each(owner, offset)`. A column at a time: each
    /// dimension's distribution is matched once per call, and a
    /// distributed dimension costs one division per element (two under
    /// `CYCLIC(K)`); an array of several dimensions sums its columns'
    /// parts in one buffer of the rows.
    pub fn locate_rows(&self, subs: &[i64], mut each: impl FnMut(i64, usize)) {
        let ndim = self.dims.len();
        if let [dim] = &self.dims[..] {
            return dim.place_column(subs.iter().copied(), |r, o| each(r, o as usize));
        }
        debug_assert_eq!(subs.len() % ndim, 0);
        let mut sums = vec![(0, 0); subs.len() / ndim];
        for (d, dim) in self.dims.iter().enumerate() {
            let mut at = sums.iter_mut();
            dim.place_column(subs.iter().skip(d).step_by(ndim).copied(), |r, o| {
                let sum = at.next().expect("one sum per row");
                *sum = (sum.0 + r, sum.1 + o);
            });
        }
        sums.into_iter().for_each(|(r, o)| each(r, o as usize));
    }

    /// Rank offsets of the element's copies (see [`Locator::locate`]).
    pub fn replicas(&self) -> &[i64] {
        &self.replicas
    }
}

fn expand_axes(grid: &ProcGrid, base: &[i64], axes: &[usize], out: &mut Vec<i64>) {
    fn rec(grid: &ProcGrid, coords: &mut Vec<i64>, axes: &[usize], out: &mut Vec<i64>) {
        match axes.split_first() {
            None => out.push(grid.rank_of(coords)),
            Some((&ax, rest)) => {
                for c in 0..grid.extent(ax) {
                    coords[ax] = c;
                    rec(grid, coords, rest, out);
                }
            }
        }
    }
    let mut coords = base.to_vec();
    rec(grid, &mut coords, axes, out);
}

/// Builder assembling a [`Dad`] from the three directives, with
/// validation. This is what the compiler's partitioning module produces
/// from `DECOMPOSITION` / `ALIGN` / `DISTRIBUTE` / `PROCESSORS`.
#[derive(Debug, Clone)]
pub struct DadBuilder {
    name: String,
    shape: Vec<i64>,
    alignment: Option<Alignment>,
    template: Option<Template>,
    dist_kinds: Option<Vec<DistKind>>,
    grid: Option<ProcGrid>,
}

impl DadBuilder {
    /// Start building a DAD for array `name` with global `shape`.
    pub fn new(name: impl Into<String>, shape: &[i64]) -> Self {
        DadBuilder {
            name: name.into(),
            shape: shape.to_vec(),
            alignment: None,
            template: None,
            dist_kinds: None,
            grid: None,
        }
    }

    /// Provide the ALIGN stage (defaults to identity onto the template).
    pub fn align(mut self, a: Alignment) -> Self {
        self.alignment = Some(a);
        self
    }

    /// Provide the template (defaults to one shaped like the array).
    pub fn template(mut self, t: Template) -> Self {
        self.template = Some(t);
        self
    }

    /// Provide the DISTRIBUTE stage: one `DistKind` per template dimension.
    pub fn distribute(mut self, kinds: &[DistKind]) -> Self {
        self.dist_kinds = Some(kinds.to_vec());
        self
    }

    /// Provide the logical processor grid.
    pub fn grid(mut self, g: ProcGrid) -> Self {
        self.grid = Some(g);
        self
    }

    /// Assemble and validate the descriptor.
    ///
    /// Distributed template dimensions are assigned grid axes in order:
    /// the i-th distributed template dimension maps to grid axis i. The
    /// grid must have at least as many axes as there are distributed
    /// template dimensions; excess grid axes replicate the array.
    pub fn build(self) -> Result<Dad, String> {
        let template = self
            .template
            .unwrap_or_else(|| Template::new(format!("{}_T", self.name), &self.shape));
        let alignment = self
            .alignment
            .unwrap_or_else(|| Alignment::identity(self.shape.len()));
        alignment.validate(&self.shape, &template.extents)?;
        let kinds = self
            .dist_kinds
            .unwrap_or_else(|| vec![DistKind::Block; template.rank()]);
        if kinds.len() != template.rank() {
            return Err(format!(
                "DISTRIBUTE lists {} dims but template {} has {}",
                kinds.len(),
                template.name,
                template.rank()
            ));
        }
        // Assign grid axes to distributed template dims in order.
        let dist_tdims: Vec<usize> = (0..template.rank())
            .filter(|&t| kinds[t].is_distributed())
            .collect();
        let grid = self
            .grid
            .unwrap_or_else(|| ProcGrid::new(&vec![1; dist_tdims.len().max(1)]));
        if dist_tdims.len() > grid.rank() {
            return Err(format!(
                "template {} distributes {} dims but grid has only {} axes",
                template.name,
                dist_tdims.len(),
                grid.rank()
            ));
        }
        let tdim_axis: Vec<Option<usize>> = {
            let mut v = vec![None; template.rank()];
            for (axis, &t) in dist_tdims.iter().enumerate() {
                v[t] = Some(axis);
            }
            v
        };
        let mut dims = Vec::with_capacity(self.shape.len());
        for (axis, ax) in alignment.axes.iter().enumerate() {
            let extent = self.shape[axis];
            let dim = match ax {
                AxisAlign::Aligned { template_dim, expr } => {
                    let t = *template_dim;
                    let gaxis = tdim_axis[t];
                    let nprocs = gaxis.map_or(1, |a| grid.extent(a));
                    let kind = if gaxis.is_some() {
                        kinds[t]
                    } else {
                        DistKind::Collapsed
                    };
                    ArrayDimMap {
                        extent,
                        align: *expr,
                        dist: DimDist::new(kind, template.extent(t), nprocs),
                        grid_axis: gaxis,
                    }
                }
                AxisAlign::Collapsed => ArrayDimMap {
                    extent,
                    align: AlignExpr::IDENTITY,
                    dist: DimDist::new(DistKind::Collapsed, extent, 1),
                    grid_axis: None,
                },
            };
            dims.push(dim);
        }
        // Replicated axes: grid axes bound to template dims with no aligned
        // array axis, plus grid axes not bound to any template dim.
        let mut replicated = Vec::new();
        for t in 0..template.rank() {
            if let Some(axis) = tdim_axis[t] {
                if alignment.axis_of_template_dim(t).is_none() {
                    replicated.push(axis);
                }
            }
        }
        for axis in 0..grid.rank() {
            if !tdim_axis.contains(&Some(axis)) {
                replicated.push(axis);
            }
        }
        replicated.sort_unstable();
        replicated.dedup();
        Ok(Dad {
            name: self.name,
            shape: self.shape,
            dims,
            replicated_axes: replicated,
            grid,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What [`Dad::for_each_owned`] visits, collected.
    fn visited(dad: &Dad, coords: &[i64], seg: &Segment) -> Vec<(Vec<i64>, usize)> {
        let mut out = Vec::new();
        let n = dad.for_each_owned(coords, seg, |g, off| out.push((g.to_vec(), off)));
        assert_eq!(n, out.len());
        out
    }

    fn block_2d(n: i64, p: i64, q: i64) -> Dad {
        DadBuilder::new("A", &[n, n])
            .distribute(&[DistKind::Block, DistKind::Block])
            .grid(ProcGrid::new(&[p, q]))
            .build()
            .unwrap()
    }

    #[test]
    fn block_block_ownership() {
        let dad = block_2d(8, 2, 2); // 4x4 local tiles
        assert_eq!(dad.owner_coords(&[0, 0]), vec![0, 0]);
        assert_eq!(dad.owner_coords(&[7, 7]), vec![1, 1]);
        assert_eq!(dad.owner_coords(&[3, 4]), vec![0, 1]);
        assert_eq!(dad.local_index(&[5, 6]), vec![1, 2]);
        assert_eq!(dad.local_shape(), vec![4, 4]);
        assert!(!dad.is_replicated());
    }

    #[test]
    fn column_distribution_star_block() {
        // The paper's Table 4 layout: (*, BLOCK) column distribution.
        let dad = DadBuilder::new("A", &[1023, 1024])
            .distribute(&[DistKind::Collapsed, DistKind::Block])
            .grid(ProcGrid::new(&[16]))
            .build()
            .unwrap();
        assert!(!dad.dims[0].is_distributed());
        assert!(dad.dims[1].is_distributed());
        assert_eq!(dad.local_shape(), vec![1023, 64]);
        assert_eq!(dad.owner_coords(&[500, 63]), vec![0]);
        assert_eq!(dad.owner_coords(&[500, 64]), vec![1]);
    }

    #[test]
    fn every_element_owned_exactly_once() {
        for (p, q) in [(1, 1), (2, 2), (2, 4), (4, 1)] {
            let dad = block_2d(9, p, q);
            let mut count = vec![vec![0u8; 9]; 9];
            let seg = Segment::padded(&dad.local_shape(), &[1, 0], &[2, 1]);
            for rank in 0..dad.grid.size() {
                let coords = dad.grid.coords_of(rank);
                for (g, off) in visited(&dad, &coords, &seg) {
                    count[g[0] as usize][g[1] as usize] += 1;
                    let l = dad.local_index(&g);
                    assert_eq!(seg.offset(&l), off);
                    assert_eq!(dad.global_index(&coords, &l), Some(g.clone()));
                    assert!(dad.is_owner(rank, &g));
                }
            }
            for row in &count {
                assert!(row.iter().all(|&c| c == 1), "grid {p}x{q}");
            }
        }
    }

    /// One array dimension of the property tests below: `n` elements
    /// aligned at `±stride` with `lead` / `tail` template cells of slack.
    #[derive(Debug, Clone, Copy)]
    struct DimCase {
        kind: usize,
        n: i64,
        stride: i64,
        reversed: bool,
        lead: i64,
        tail: i64,
    }

    impl DimCase {
        fn kind(&self) -> DistKind {
            [
                DistKind::Block,
                DistKind::Cyclic,
                DistKind::BlockCyclic(2),
                DistKind::BlockCyclic(5),
            ][self.kind]
        }

        fn template_extent(&self) -> i64 {
            self.stride * (self.n - 1) + self.lead + self.tail + 1
        }

        fn expr(&self) -> AlignExpr {
            let span = self.stride * (self.n - 1);
            if self.reversed {
                AlignExpr::new(-self.stride, span + self.lead)
            } else {
                AlignExpr::new(self.stride, self.lead)
            }
        }
    }

    fn dim_case() -> impl proptest::strategy::Strategy<Value = DimCase> {
        use proptest::prelude::*;
        (
            0usize..4,
            1i64..40,
            1i64..4,
            any::<bool>(),
            0i64..6,
            0i64..6,
        )
            .prop_map(|(kind, n, stride, reversed, lead, tail)| DimCase {
                kind,
                n,
                stride,
                reversed,
                lead,
                tail,
            })
    }

    /// A 1-D (`second == None`) or 2-D descriptor over a `p × q` grid.
    fn dad_of(first: DimCase, second: Option<DimCase>, p: i64, q: i64) -> Dad {
        let cases: Vec<DimCase> = std::iter::once(first).chain(second).collect();
        let grid: Vec<i64> = [p, q][..cases.len()].to_vec();
        DadBuilder::new("A", &cases.iter().map(|c| c.n).collect::<Vec<_>>())
            .template(Template::new(
                "T",
                &cases
                    .iter()
                    .map(DimCase::template_extent)
                    .collect::<Vec<_>>(),
            ))
            .align(Alignment {
                axes: cases
                    .iter()
                    .enumerate()
                    .map(|(template_dim, c)| AxisAlign::Aligned {
                        template_dim,
                        expr: c.expr(),
                    })
                    .collect(),
                replicated_template_dims: vec![],
            })
            .distribute(&cases.iter().map(DimCase::kind).collect::<Vec<_>>())
            .grid(ProcGrid::new(&grid))
            .build()
            .unwrap()
    }

    /// The `O(extent × ranks)` definition `for_each_owned` replaced, kept
    /// as its oracle: filter every dimension through `proc_of`, and
    /// place each element's local index vector in `seg`.
    fn held_by_filter(dad: &Dad, coords: &[i64], seg: &Segment) -> Vec<(Vec<i64>, usize)> {
        let per_dim: Vec<Vec<(i64, i64)>> = dad
            .dims
            .iter()
            .map(|d| {
                (0..d.extent)
                    .filter(|&i| {
                        !d.is_distributed() || d.proc_of(i) == coords[d.grid_axis.unwrap()]
                    })
                    .map(|i| (i, if d.is_distributed() { d.local_of(i) } else { i }))
                    .collect()
            })
            .collect();
        let mut out = vec![(vec![], vec![])];
        for pairs in &per_dim {
            out = out
                .iter()
                .flat_map(|(g, l)| {
                    pairs.iter().map(move |&(gi, li)| {
                        let (mut g, mut l) = (g.clone(), l.clone());
                        g.push(gi);
                        l.push(li);
                        (g, l)
                    })
                })
                .collect();
        }
        out.into_iter().map(|(g, l)| (g, seg.offset(&l))).collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// The owned walk visits exactly the filter's pairs in the
        /// filter's order, on every rank, under every distribution kind
        /// and affine alignment (either direction, any stride and
        /// offset, slack on both ends of the template), 1-D and 2-D.
        #[test]
        fn for_each_owned_equals_the_filter(
            first in dim_case(),
            second in dim_case(),
            two_d in proptest::prelude::any::<bool>(),
            p in 1i64..7,
            q in 1i64..4,
        ) {
            let dad = dad_of(first, two_d.then_some(second), p, q);
            let ghosts = vec![2; dad.rank()];
            let seg = Segment::padded(&dad.local_shape(), &ghosts, &ghosts);
            let mut total = 0;
            for rank in 0..dad.grid.size() {
                let coords = dad.grid.coords_of(rank);
                let got = visited(&dad, &coords, &seg);
                proptest::prop_assert_eq!(&got, &held_by_filter(&dad, &coords, &seg));
                total += got.len() as i64;
            }
            proptest::prop_assert_eq!(total, dad.size());
        }

        /// `Locator::locate` is `owner_ranks(g)[0]` with the row-major
        /// padded offset of `local_index(g)`, for every element, under
        /// both grid embeddings and any ghost widths.
        #[test]
        fn locator_equals_owner_ranks_and_local_index(
            first in dim_case(),
            second in dim_case(),
            two_d in proptest::prelude::any::<bool>(),
            p in 0u32..3,
            q in 0u32..2,
            gray in proptest::prelude::any::<bool>(),
            ghost_lo in 0i64..3,
            ghost_hi in 0i64..3,
        ) {
            let mut dad = dad_of(first, two_d.then_some(second), 1 << p, 1 << q);
            if gray {
                dad.grid.embedding = crate::GridEmbedding::GrayCode;
            }
            let shape = dad.local_shape();
            let (lo, hi) = (vec![ghost_lo; dad.rank()], vec![ghost_hi; dad.rank()]);
            let loc = Locator::new(&dad, &shape, &lo, &hi);
            proptest::prop_assert_eq!(loc.replicas(), &[0][..]);
            let mut g = vec![0; dad.rank()];
            'elements: loop {
                let local = dad.local_index(&g);
                let want_off = local
                    .iter()
                    .zip(&shape)
                    .fold(0, |off, (&l, &s)| off * (s + ghost_lo + ghost_hi) + l + ghost_lo);
                let want = (dad.owner_ranks(&g)[0], want_off as usize);
                proptest::prop_assert_eq!(loc.locate(&g), want, "element {:?}", &g);
                // Next element, row-major.
                let mut d = dad.rank();
                loop {
                    if d == 0 {
                        break 'elements;
                    }
                    d -= 1;
                    g[d] += 1;
                    if g[d] < dad.shape[d] {
                        break;
                    }
                    g[d] = 0;
                }
            }
        }

        /// The column form, `Locator::locate_rows`, is `owner_ranks` +
        /// `local_index` too, row by row in the order given: every
        /// element of a 1-D, 2-D or 3-D array — BLOCK (short last block
        /// included), CYCLIC, CYCLIC(K) and collapsed dimensions under
        /// strided, reversed and offset alignments — visited backwards
        /// and then forwards again (so a column holds repeats, out of
        /// order), any ghost widths, and a grid with an extra axis no
        /// dimension uses, along which every element is replicated.
        #[test]
        fn locate_rows_equals_owner_ranks_and_local_index(
            first in dim_case(),
            second in dim_case(),
            third in dim_case(),
            which in (0usize..5, 0usize..5, 0usize..5),
            ndim in 1usize..4,
            procs in (1i64..5, 1i64..5, 1i64..5),
            spare in 1i64..4,
            ghost_lo in 0i64..3,
            ghost_hi in 0i64..3,
        ) {
            // Three dimensions stay a few thousand elements.
            let cap = |c: DimCase| DimCase { n: if ndim == 3 { c.n.min(12) } else { c.n }, ..c };
            let cases: Vec<(DimCase, usize)> = [(first, which.0), (second, which.1), (third, which.2)]
                .into_iter()
                .take(ndim)
                .map(|(c, k)| (cap(c), k))
                .collect();
            let procs = [procs.0, procs.1, procs.2];
            let kinds: Vec<DistKind> = (cases.iter())
                .map(|(c, k)| if *k == 4 { DistKind::Collapsed } else { c.kind() })
                .collect();
            let ndist = kinds.iter().filter(|k| k.is_distributed()).count();
            let grid: Vec<i64> = procs[..ndist].iter().copied().chain([spare]).collect();
            let extents: Vec<i64> = cases.iter().map(|(c, _)| c.template_extent()).collect();
            let dad = DadBuilder::new("A", &cases.iter().map(|(c, _)| c.n).collect::<Vec<_>>())
                .template(Template::new("T", &extents))
                .align(Alignment {
                    axes: (cases.iter().enumerate())
                        .map(|(template_dim, (c, _))| AxisAlign::Aligned {
                            template_dim,
                            expr: c.expr(),
                        })
                        .collect(),
                    replicated_template_dims: vec![],
                })
                .distribute(&kinds)
                .grid(ProcGrid::new(&grid))
                .build()
                .unwrap();
            proptest::prop_assert!(dad.replicated_axes.contains(&ndist));
            let shape = dad.local_shape();
            let (lo, hi) = (vec![ghost_lo; dad.rank()], vec![ghost_hi; dad.rank()]);
            let loc = Locator::new(&dad, &shape, &lo, &hi);
            let padded: Vec<i64> = shape.iter().map(|s| s + ghost_lo + ghost_hi).collect();
            let size: i64 = dad.shape.iter().product();
            let rows: Vec<Vec<i64>> = ((0..size).rev().chain(0..size))
                .map(|flat| {
                    let mut g = vec![0; dad.rank()];
                    let mut rest = flat;
                    for d in (0..dad.rank()).rev() {
                        g[d] = rest % dad.shape[d];
                        rest /= dad.shape[d];
                    }
                    g
                })
                .collect();
            let mut got = Vec::new();
            loc.locate_rows(&[], |owner, off| got.push((owner, off)));
            proptest::prop_assert!(got.is_empty(), "no row, nothing located");
            loc.locate_rows(&rows.concat(), |owner, off| got.push((owner, off)));
            proptest::prop_assert_eq!(got.len(), rows.len());
            for (g, &(owner, off)) in rows.iter().zip(&got) {
                let want_off = (dad.local_index(g).iter().zip(&padded))
                    .fold(0, |off, (&l, &s)| off * s + l + ghost_lo);
                let copies: Vec<i64> = loc.replicas().iter().map(|r| owner + r).collect();
                proptest::prop_assert_eq!(&copies, &dad.owner_ranks(g), "element {:?}", g);
                proptest::prop_assert_eq!(off, want_off as usize, "element {:?}", g);
                proptest::prop_assert_eq!(loc.locate(g), (owner, off), "element {:?}", g);
            }
        }
    }

    /// Copies along replicated grid axes — one template dimension with no
    /// aligned array axis, one grid axis no template dimension uses —
    /// are the canonical owner plus `replicas`, in `owner_ranks` order.
    #[test]
    fn locator_replicas_are_owner_ranks() {
        let a = Alignment {
            axes: vec![AxisAlign::Aligned {
                template_dim: 1,
                expr: AlignExpr::IDENTITY,
            }],
            replicated_template_dims: vec![0],
        };
        let dad = DadBuilder::new("A", &[9])
            .template(Template::new("T", &[4, 9]))
            .align(a)
            .distribute(&[DistKind::Block, DistKind::Cyclic])
            .grid(ProcGrid::new(&[2, 3, 2]))
            .build()
            .unwrap();
        assert_eq!(dad.replicated_axes, vec![0, 2]);
        let shape = dad.local_shape();
        let loc = Locator::new(&dad, &shape, &[1], &[1]);
        for g in 0..9 {
            let (owner, off) = loc.locate(&[g]);
            let copies: Vec<i64> = loc.replicas().iter().map(|r| owner + r).collect();
            assert_eq!(copies, dad.owner_ranks(&[g]), "element {g}");
            assert_eq!(off as i64, dad.local_index(&[g])[0] + 1);
        }
    }

    #[test]
    fn replicated_array_owned_everywhere() {
        let dad = DadBuilder::new("S", &[10])
            .distribute(&[DistKind::Collapsed])
            .grid(ProcGrid::new(&[4]))
            .build()
            .unwrap();
        assert!(dad.is_replicated());
        assert_eq!(dad.owner_ranks(&[3]), vec![0, 1, 2, 3]);
        for rank in 0..4 {
            assert!(dad.is_owner(rank, &[3]));
        }
    }

    #[test]
    fn shifted_alignment_changes_owner() {
        // ALIGN A(I) WITH T(I+4) over T(0..16) BLOCK on 4 procs (b=4):
        // A(0) sits on template cell 4 → proc 1.
        let a = Alignment {
            axes: vec![AxisAlign::Aligned {
                template_dim: 0,
                expr: AlignExpr::new(1, 4),
            }],
            replicated_template_dims: vec![],
        };
        let dad = DadBuilder::new("A", &[12])
            .template(Template::new("T", &[16]))
            .align(a)
            .distribute(&[DistKind::Block])
            .grid(ProcGrid::new(&[4]))
            .build()
            .unwrap();
        assert_eq!(dad.owner_coords(&[0]), vec![1]);
        assert_eq!(dad.owner_coords(&[11]), vec![3]);
        // local index is template-local: A(0) at template 4 → local 0 of p1
        assert_eq!(dad.local_index(&[0]), vec![0]);
    }

    #[test]
    fn replication_via_unaligned_template_dim() {
        // ALIGN A(I) WITH T(I, *): A replicated along grid axis of T dim 1.
        let a = Alignment {
            axes: vec![AxisAlign::Aligned {
                template_dim: 0,
                expr: AlignExpr::IDENTITY,
            }],
            replicated_template_dims: vec![1],
        };
        let dad = DadBuilder::new("A", &[8])
            .template(Template::new("T", &[8, 8]))
            .align(a)
            .distribute(&[DistKind::Block, DistKind::Block])
            .grid(ProcGrid::new(&[2, 2]))
            .build()
            .unwrap();
        assert_eq!(dad.replicated_axes, vec![1]);
        // element 0 lives on (0,0) and (0,1)
        let ranks = dad.owner_ranks(&[0]);
        assert_eq!(ranks, vec![0, 1]);
    }

    #[test]
    fn cyclic_dad_local_shape_is_max_count() {
        let dad = DadBuilder::new("A", &[10])
            .distribute(&[DistKind::Cyclic])
            .grid(ProcGrid::new(&[4]))
            .build()
            .unwrap();
        assert_eq!(dad.local_shape(), vec![3]); // procs own 3,3,2,2
    }

    #[test]
    fn builder_rejects_too_many_distributed_dims() {
        let r = DadBuilder::new("A", &[8, 8])
            .distribute(&[DistKind::Block, DistKind::Block])
            .grid(ProcGrid::new(&[4]))
            .build();
        assert!(r.is_err());
    }

    #[test]
    fn builder_rejects_misaligned() {
        let a = Alignment {
            axes: vec![AxisAlign::Aligned {
                template_dim: 0,
                expr: AlignExpr::new(1, 10),
            }],
            replicated_template_dims: vec![],
        };
        let r = DadBuilder::new("A", &[8])
            .template(Template::new("T", &[8]))
            .align(a)
            .distribute(&[DistKind::Block])
            .grid(ProcGrid::new(&[2]))
            .build();
        assert!(r.is_err());
    }
}
