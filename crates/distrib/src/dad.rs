//! The Distributed Array Descriptor (DAD, paper §6).
//!
//! When a distributed array is passed to a run-time primitive the callee
//! needs its global shape, alignment, distribution and grid placement to
//! compute local bounds and send/receive sets. The `Dad` bundles the three
//! mapping stages for one array; it is the structure the generated code
//! fills with `set_DAD` before every communication call (paper §5.3.1).

use serde::{Deserialize, Serialize};

use crate::align::{AlignExpr, Alignment, AxisAlign};
use crate::dist::{DimDist, DistKind};
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

    /// The elements of this dimension held by grid coordinate `p`, in
    /// increasing array index, each as `f(array index, local index)`.
    ///
    /// Walks the coordinate's own template slots — `O(owned)`, not a
    /// filter of the whole dimension through [`ArrayDimMap::proc_of`] —
    /// keeping those that hold an array element. Slots ascend with the
    /// template index, which runs against the array index under a
    /// negative alignment stride. An undistributed dimension is held
    /// whole, at local index = array index.
    fn owned_walk<T>(&self, p: i64, f: impl Fn(i64, i64) -> T) -> Vec<T> {
        if !self.is_distributed() {
            return (0..self.extent).map(|i| f(i, i)).collect();
        }
        let mut owned: Vec<T> = (0..self.dist.local_count(p))
            .filter_map(|l| self.array_index_of(p, l).map(|i| f(i, l)))
            .collect();
        if self.align.stride < 0 {
            owned.reverse();
        }
        owned
    }

    /// The `(array index, local index)` pairs of the elements of this
    /// dimension held by grid coordinate `p`, in increasing array index
    /// (`O(owned)`).
    pub fn owned_pairs(&self, p: i64) -> Vec<(i64, i64)> {
        self.owned_walk(p, |i, l| (i, l))
    }

    /// The local half of [`ArrayDimMap::owned_pairs`].
    pub fn owned_locals(&self, p: i64) -> Vec<i64> {
        self.owned_walk(p, |_, l| l)
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

    /// Count of *array* elements of this dimension owned by grid coord `p`.
    pub fn local_count(&self, p: i64) -> i64 {
        if !self.is_distributed() {
            return self.extent;
        }
        if self.align.is_identity() {
            return self.dist.local_count(p).min(self.extent);
        }
        (0..self.extent).filter(|&i| self.proc_of(i) == p).count() as i64
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
            .map(|(d, &i)| if d.is_distributed() { d.local_of(i) } else { i })
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

    /// Visit the `(global_index, local_index)` pairs owned by the node at
    /// grid `coords`, in row-major order of increasing global index. The
    /// two slices are buffers reused from element to element: nothing is
    /// allocated per element.
    pub fn for_each_owned(&self, coords: &[i64], mut f: impl FnMut(&[i64], &[i64])) {
        // Per-dim list of (global, local) pairs owned on this node.
        let mut per_dim: Vec<Vec<(i64, i64)>> = Vec::with_capacity(self.rank());
        for d in &self.dims {
            let pairs = d.owned_pairs(d.grid_axis.map_or(0, |ax| coords[ax]));
            if pairs.is_empty() {
                return;
            }
            per_dim.push(pairs);
        }
        let mut cursor = vec![0usize; self.rank()];
        let mut g: Vec<i64> = per_dim.iter().map(|v| v[0].0).collect();
        let mut l: Vec<i64> = per_dim.iter().map(|v| v[0].1).collect();
        loop {
            f(&g, &l);
            // advance row-major (last dim fastest)
            let mut dim = self.rank();
            loop {
                if dim == 0 {
                    return;
                }
                dim -= 1;
                cursor[dim] += 1;
                if cursor[dim] == per_dim[dim].len() {
                    cursor[dim] = 0;
                }
                (g[dim], l[dim]) = per_dim[dim][cursor[dim]];
                if cursor[dim] != 0 {
                    break;
                }
            }
        }
    }

    /// The pairs [`Dad::for_each_owned`] visits, collected.
    pub fn owned_elements(&self, coords: &[i64]) -> Vec<(Vec<i64>, Vec<i64>)> {
        let mut out = Vec::new();
        self.for_each_owned(coords, |g, l| out.push((g.to_vec(), l.to_vec())));
        out
    }
}

/// Where a global element lives, without allocating: the canonical
/// owner's physical rank and the element's flat offset in that rank's
/// ghost-padded segment — [`Dad::owner_ranks`]`[0]` and the row-major
/// offset of [`Dad::local_index`] in one pass over the subscripts.
///
/// Built once per `(descriptor, segment layout)` — every rank allocates
/// an array's segment with the same shape and ghost widths — and
/// evaluated per element by the unstructured-communication inspectors.
#[derive(Debug, Clone)]
pub struct Locator {
    dims: Vec<LocatorDim>,
    /// Rank offset of every copy along the replicated grid axes, in
    /// [`Dad::owner_ranks`] order; the first is 0, the canonical copy.
    replicas: Vec<i64>,
}

#[derive(Debug, Clone)]
struct LocatorDim {
    /// A distributed dimension's alignment, distribution, and the rank
    /// contribution of each grid coordinate along its axis (`φ` is a sum
    /// of per-axis terms under both embeddings).
    owner: Option<(AlignExpr, DimDist, Vec<i64>)>,
    ghost_lo: i64,
    /// Row-major stride over the padded extents.
    stride: i64,
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
        let mut dims = Vec::with_capacity(dad.rank());
        let mut stride = 1;
        for d in (0..dad.rank()).rev() {
            let dm = &dad.dims[d];
            let owner = dm.is_distributed().then(|| {
                let axis = dm.grid_axis.expect("distributed dim has axis");
                (dm.align, dm.dist, axis_ranks(axis))
            });
            dims.push(LocatorDim {
                owner,
                ghost_lo: ghost_lo[d],
                stride,
            });
            stride *= shape[d] + ghost_lo[d] + ghost_hi[d];
        }
        dims.reverse();
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
            let local = match &dim.owner {
                Some((align, dist, ranks)) => {
                    let (p, l) = dist.global_to_local(align.apply(g));
                    rank += ranks[p as usize];
                    l
                }
                None => g,
            };
            off += (local + dim.ghost_lo) * dim.stride;
        }
        (rank, off as usize)
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
            for rank in 0..dad.grid.size() {
                let coords = dad.grid.coords_of(rank);
                for (g, l) in dad.owned_elements(&coords) {
                    count[g[0] as usize][g[1] as usize] += 1;
                    assert_eq!(dad.local_index(&g), l);
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
    /// as its oracle: filter every dimension through `proc_of`.
    fn owned_elements_by_filter(dad: &Dad, coords: &[i64]) -> Vec<(Vec<i64>, Vec<i64>)> {
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
        out
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
            let mut total = 0;
            for rank in 0..dad.grid.size() {
                let coords = dad.grid.coords_of(rank);
                let got = dad.owned_elements(&coords);
                proptest::prop_assert_eq!(&got, &owned_elements_by_filter(&dad, &coords));
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
