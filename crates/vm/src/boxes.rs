//! The native tier's run: one walk (`Boxes::for_each`) hands every box
//! of each iteration space a rank `crate::bind` bound runs to the body's
//! kernel (`crate::native`) — into the written segment where the alias
//! rule allows it, into a dense stage whose writes are committed in
//! element order otherwise — and feeds the inspector of an unstructured
//! read the same boxes. A phase lends every rank the same buffers in
//! turn ([`Buffers`]), so a rank that writes in place allocates nothing.

use f90d_comm::driver::{GatherRequests, ScatterOut, Spaces};
use f90d_comm::op::CommResult;
use f90d_distrib::Runs;
use f90d_machine::{LocalArray, Machine, NodeMemory};

use crate::bind::{Bound, BoxAt, Boxes, NatAff, NatOut, NatRank, NatSites, SiteOff, View};
use crate::bytecode::ArrId;
use crate::chunk::{ForallCx, RankOut, Staged};
use crate::columns::{Elem, Pool};
use crate::native::{BoxArgs, BoxFn, BoxKernel, BoxOut, BoxRead, Walk};

/// The box arguments of some groups of [`NatSites`] on one node, one lane:
/// each group's read views, a group after another, and its `lins` walks
/// likewise. The segments viewed are fixed for the phase, the walks are
/// rewritten box by box.
struct SiteBoxes<'v, T> {
    reads: Vec<BoxRead<'v, T>>,
    lins: Vec<Walk>,
}

/// An empty vector on `v`'s allocation, for views that borrow another
/// node's memory. The standard library collects a vector's own
/// `into_iter` into one of a type of the same size and alignment in
/// place — an optimisation it does not promise; were it lost, every
/// rank would allocate its views again, which `alloc_guard` shows.
fn recycle<'a, 'b, T>(mut v: Vec<BoxRead<'a, T>>) -> Vec<BoxRead<'b, T>> {
    v.clear();
    v.into_iter().map(|_| unreachable!("cleared")).collect()
}

impl<'v, T: Elem> SiteBoxes<'v, T> {
    /// Box arguments on the buffers of `spare`, which lends them.
    fn on(spare: &mut SiteBoxes<'static, T>) -> Self {
        let mut lins = std::mem::take(&mut spare.lins);
        lins.clear();
        SiteBoxes {
            reads: recycle(std::mem::take(&mut spare.reads)),
            lins,
        }
    }

    /// Hand the buffers back to `spare`.
    fn give(self, spare: &mut SiteBoxes<'static, T>) {
        spare.reads = recycle(self.reads);
        spare.lins = self.lins;
    }

    /// Append the views of the segments `sites` reads — `seg(arr)`,
    /// materialized — or, for a site on the segment written in place, its
    /// part `[below, above]` of that — and walks for its `lins`.
    fn add(
        &mut self,
        sites: &NatSites<'_>,
        seg: impl Fn(ArrId) -> &'v LocalArray,
        [below, above]: [&'v [T]; 2],
    ) {
        for site in T::pick(sites.reads, sites.ireads) {
            let data = match site.view {
                View::Array => Some(T::slice(seg(site.arr).data())),
                View::Own => None,
                View::Below => Some(below),
                View::Above => Some(above),
            };
            let walk = Walk::default();
            self.reads.push(BoxRead { data, walk });
        }
        (self.lins).resize(self.lins.len() + sites.folded.lins.len(), Walk::default());
    }

    /// The kernel arguments of the group `sites` over the box `bx`, its
    /// views and walks starting at `at` — or, `column`, of the box one
    /// element wide `bx` turned into one row along its column: the same
    /// elements in the same order, each walk's row step its step.
    /// Advances `at` past the group.
    fn args<'s>(
        &'s mut self,
        at: &mut (usize, usize),
        sites: &NatSites<'s>,
        bx: &BoxAt<'_>,
        column: bool,
    ) -> BoxArgs<'s, T> {
        let turn = |walk: Walk| {
            let step = if column { walk.row_step } else { walk.step };
            Walk { step, ..walk }
        };
        let (site_reads, lins) = (T::pick(sites.reads, sites.ireads), &sites.folded.lins);
        let reads = &mut self.reads[at.0..at.0 + site_reads.len()];
        for (read, site) in reads.iter_mut().zip(site_reads) {
            read.walk = turn(match &site.off {
                SiteOff::Affine(aff) => aff.at(bx),
                SiteOff::Ordinal => Walk {
                    start: bx.ordinal() as i64,
                    row_step: bx.inner_len as i64,
                    step: 1,
                },
            });
        }
        let walks = &mut self.lins[at.1..at.1 + lins.len()];
        for (walk, lin) in walks.iter_mut().zip(lins) {
            *walk = turn(lin.at(bx));
        }
        *at = (at.0 + site_reads.len(), at.1 + lins.len());
        let (rows, len) = if column {
            (1, bx.rows.len)
        } else {
            (bx.rows.len, bx.run.len)
        };
        BoxArgs {
            rows,
            len,
            reads,
            lins: walks,
            scalars: &sites.folded.scalars,
        }
    }
}

/// Evaluate the subscript kernels `subs` over one box into `cols`,
/// row-major with `subs.len()` values per element: the element `i` of
/// row `r` is the `at + r·row_step + i`-th of `cols`.
fn index_box(
    subs: &[BoxFn<i64>],
    args: &BoxArgs<'_, i64>,
    cols: &mut [i64],
    (at, row_step): (usize, usize),
    dense: &mut Vec<i64>,
    pool: &mut Pool,
) {
    if let [sub] = subs {
        let mut out = BoxOut {
            data: cols,
            start: at,
            row_step: row_step as isize,
        };
        return sub(args, &mut out, pool);
    }
    let ndim = subs.len();
    dense.resize(args.rows * args.len, 0);
    for (d, sub) in subs.iter().enumerate() {
        let mut out = BoxOut {
            data: dense,
            start: 0,
            row_step: args.len as isize,
        };
        sub(args, &mut out, pool);
        for (r, row) in dense.chunks_exact(args.len).enumerate() {
            let to = &mut cols[(at + r * row_step) * ndim + d..];
            for (col, &v) in to.iter_mut().step_by(ndim).zip(row) {
                *col = v;
            }
        }
    }
}

/// One rank's native inspector for gather `gi` of a bound FORALL: the
/// source subscripts of every iteration, a box at a time in iteration
/// order, pushed to `reqs`, on the buffers `bufs` lends every rank of
/// the gather in turn.
pub(crate) fn inspect_boxes(
    cx: ForallCx<'_>,
    (nr, gi, rank): (NatRank<'_>, usize, usize),
    mem: &mut NodeMemory,
    reqs: &mut GatherRequests,
    bufs: &mut Buffers<i64>,
) -> CommResult<()> {
    let (g, name) = (nr.gather(gi), |a: ArrId| cx.prog.arrays[a].name.as_str());
    let (segs, _) = Segments::of(mem, g.sites.arrays(), None, name, &mut bufs.viewed);
    // Inspector subscripts read no gathered value and alias no write.
    let mut boxes = SiteBoxes::on(&mut bufs.index);
    boxes.add(&g.sites, |arr| segs.get(arr), [&[], &[]]);
    let (cols, dense, pool) = (&mut bufs.cols, &mut bufs.dense, &mut bufs.pool);
    let mut result = Ok(());
    Boxes::new(cx.spaces.space(rank)).for_each(|bx| {
        if result.is_err() {
            return;
        }
        let args = boxes.args(&mut (0, 0), &g.sites, bx, false);
        cols.resize(args.rows * args.len * g.subs.len(), 0);
        let dense_rows = (0, args.len);
        index_box(g.subs, &args, cols, dense_rows, dense, pool);
        result = reqs.push_row(rank as i64, cols);
    });
    boxes.give(&mut bufs.index);
    result
}

/// What a phase of the native tier — or the native inspector of one
/// unstructured read — lends every rank in turn: the box arguments'
/// buffers of its lane `T` and of the INTEGER lane of subscripts, an
/// inspector's subscript columns, and the kernels' column pool.
pub(crate) struct Buffers<T: 'static> {
    boxes: SiteBoxes<'static, T>,
    index: SiteBoxes<'static, i64>,
    /// The arrays a rank's boxes view, with their slots ([`Segments`]).
    viewed: Vec<(ArrId, usize)>,
    cols: Vec<i64>,
    dense: Vec<i64>,
    pool: Pool,
}

impl<T: 'static> Default for Buffers<T> {
    fn default() -> Self {
        Buffers {
            boxes: SiteBoxes {
                reads: Vec::new(),
                lins: Vec::new(),
            },
            index: SiteBoxes {
                reads: Vec::new(),
                lins: Vec::new(),
            },
            viewed: Vec::new(),
            cols: Vec::new(),
            dense: Vec::new(),
            pool: Pool::default(),
        }
    }
}

/// One rank's segments for a phase, borrowed at once: each array its
/// boxes view, shared, and — on a rank that writes in place — the written
/// one, mutably, split off the others by slot ([`NodeMemory::slot`]).
/// One lookup per array, none per site.
struct Segments<'m> {
    /// Slots below the written one (all of them when none is).
    below: &'m [LocalArray],
    /// Slots above it.
    above: &'m [LocalArray],
    /// The viewed arrays' slots.
    viewed: &'m [(ArrId, usize)],
}

impl<'m> Segments<'m> {
    /// Look up and materialize (lazily-allocated segments expose no raw
    /// slice until their buffer exists, `LocalArray::data`) every array
    /// of `arrays`, and the written one `written` if any — returned apart,
    /// mutably.
    fn of<'p>(
        mem: &'m mut NodeMemory,
        arrays: impl Iterator<Item = ArrId>,
        written: Option<ArrId>,
        name: impl Fn(ArrId) -> &'p str,
        viewed: &'m mut Vec<(ArrId, usize)>,
    ) -> (Self, Option<&'m mut LocalArray>) {
        viewed.clear();
        for arr in arrays {
            if !viewed.iter().any(|&(a, _)| a == arr) {
                viewed.push((arr, mem.slot(name(arr))));
            }
        }
        let written = written.map(|arr| mem.slot(name(arr)));
        let segs = mem.segments_mut();
        for &(_, slot) in viewed.iter() {
            segs[slot].materialize();
        }
        let (below, lhs, above): (&[LocalArray], _, &[LocalArray]) = match written {
            Some(slot) => {
                let (below, rest) = segs.split_at_mut(slot);
                let (lhs, above) = rest.split_first_mut().expect("the written slot");
                lhs.materialize();
                (below, Some(lhs), above)
            }
            None => (segs, None, &[]),
        };
        (
            Segments {
                below,
                above,
                viewed,
            },
            lhs,
        )
    }

    /// The segment of `arr`, one of the viewed arrays.
    fn get(&self, arr: ArrId) -> &'m LocalArray {
        let &(_, slot) = (self.viewed.iter())
            .find(|&&(a, _)| a == arr)
            .expect("a viewed array");
        match slot.checked_sub(self.below.len()) {
            None => &self.below[slot],
            Some(past) => &self.above[past - 1],
        }
    }
}

/// Run a bound native kernel as one local phase: every rank runs the
/// boxes of its iteration `spaces` with the bytecode loop's cost
/// charging and writes, and hands back what it staged for the one
/// commit (`RankOut::commit`) — and how many ranks took their writes
/// from another's instead of running the kernel ([`computed_once`]).
pub(crate) fn run_native_forall(
    cx: ForallCx<'_>,
    m: &mut Machine,
    bound: &Bound<'_>,
    spaces: &Spaces<'_>,
) -> (Vec<Staged>, u64) {
    // Every rank on the lane of the written array's element type.
    let first = (0..m.nranks() as usize).find_map(|rank| bound.rank(rank));
    match first.map(|nr| nr.func()) {
        Some(BoxKernel::Int(_)) => run_lane::<i64>(cx, m, bound, spaces),
        _ => run_lane::<f64>(cx, m, bound, spaces),
    }
}

/// [`run_native_forall`] on the lane `T`. When every active rank would
/// compute the same values at the same offsets ([`computed_once`]), the
/// first of them runs the kernel and every other is handed exactly the
/// elements the write covers ([`copy_writes`]), each still charged its
/// own ops.
fn run_lane<T: Elem>(
    cx: ForallCx<'_>,
    m: &mut Machine,
    bound: &Bound<'_>,
    spaces: &Spaces<'_>,
) -> (Vec<Staged>, u64) {
    let name = |a: ArrId| cx.prog.arrays[a].name.as_str();
    let nvars = cx.f.vars.len();
    let once = computed_once(bound, spaces, m.nranks() as usize);
    let mut bufs = Buffers::<T>::default();
    let staged = m.local_phase_map(|rank, mem| {
        let (Some(nr), spaces) = (bound.rank(rank as usize), spaces(rank as usize)) else {
            return (None, 0);
        };
        let parts = spaces.chunks_exact(nvars);
        match once {
            Some((first, ..)) if first != rank as usize => (None, rank_ops(&nr, parts)),
            _ => run_native_boxes(nr, parts, mem, name, &mut bufs).staged(),
        }
    });
    let Some((first, arr, write)) = once else {
        return (staged, 0);
    };
    let arr = name(arr);
    let mut copied = 0;
    for rank in (first + 1..m.mems.len()).filter(|&r| bound.rank(r).is_some()) {
        let (done, rest) = m.mems.split_at_mut(rank);
        let from = T::slice(done[first].array(arr).data());
        let to = T::slice_mut(rest[0].array_mut(arr).data_mut());
        copy_writes(from, to, spaces(first).chunks_exact(nvars), &write);
        copied += 1;
    }
    (staged, copied)
}

/// Whether the phase's values can be computed once for every rank:
/// every active rank has the same iteration space and writes, in place,
/// through the same single write form, and the body reads no array —
/// only loop variables, constants and replicated scalars, which every
/// rank folds alike. Then each rank would write the same values at the
/// same offsets of its segment. `(first active rank, the written array,
/// the write form)` when so, and more than one rank is active.
fn computed_once(
    bound: &Bound<'_>,
    spaces: &Spaces<'_>,
    nranks: usize,
) -> Option<(usize, ArrId, NatAff)> {
    let mut active = (0..nranks).filter_map(|rank| Some((rank, bound.rank(rank)?)));
    let (first, nr) = active.next()?;
    let mut bodies = nr.bodies();
    let (Some(body), None) = (bodies.next(), bodies.next()) else {
        return None;
    };
    let NatOut::Owned {
        arr,
        offs: &[write],
    } = nr.out()
    else {
        return None;
    };
    if !(body.sites.reads.is_empty() && body.sites.ireads.is_empty()) || nr.direct.is_none() {
        return None;
    }
    let mut others = 0;
    for (rank, other) in active {
        let same = matches!(other.out(), NatOut::Owned { offs: &[w], .. } if w == write);
        if !same || other.direct != nr.direct || spaces(rank) != spaces(first) {
            return None;
        }
        others += 1;
    }
    (others > 0).then_some((first, arr, write))
}

/// Copy every element the write form `write` covers over the boxes of
/// `spaces` from one rank's segment to another's — row by row, never
/// the gaps between written rows.
fn copy_writes<'s, T: Elem>(
    from: &[T],
    to: &mut [T],
    spaces: impl Iterator<Item = &'s [Runs]>,
    write: &NatAff,
) {
    for space in spaces {
        Boxes::new(space).for_each(|bx| {
            let walk = write.at(bx);
            for r in 0..bx.rows.len as i64 {
                let start = walk.start + r * walk.row_step;
                if walk.step == 1 {
                    let row = start as usize..start as usize + bx.run.len;
                    to[row.clone()].copy_from_slice(&from[row]);
                } else {
                    for i in 0..bx.run.len as i64 {
                        let off = (start + i * walk.step) as usize;
                        to[off] = from[off];
                    }
                }
            }
        });
    }
}

/// The ops a rank is charged for running the bodies of `nr` over the
/// boxes of `spaces`: each body's cost per tuple.
fn rank_ops<'s>(nr: &NatRank<'_>, spaces: impl Iterator<Item = &'s [Runs]>) -> i64 {
    let total: usize = spaces.map(|space| Boxes::new(space).tuples()).sum();
    nr.bodies().map(|b| b.cost).sum::<i64>() * total as i64
}

/// One rank's share of [`run_native_forall`]: every box of each space in
/// turn, every body — one kernel call. A space goes in place when the
/// rank does and its rows are unit-stride ([`Boxes::unit_stride`]), and
/// through the stage otherwise. On an in-place rank the alias rule's
/// proofs hold on the space, so its staged writes land right after it,
/// the stage first filled with the values they replace (an own-element
/// read takes its operand there); any other rank hands them back.
fn run_native_boxes<'s, 'p, T: Elem>(
    nr: NatRank<'_>,
    spaces: impl Iterator<Item = &'s [Runs]> + Clone,
    mem: &mut NodeMemory,
    name: impl Fn(ArrId) -> &'p str,
    bufs: &mut Buffers<T>,
) -> RankOut {
    let nb = nr.bodies().count();
    let cost = rank_ops(&nr, spaces.clone());
    // In-place boxes borrow the written segment mutably next to the
    // shared read views.
    let (out, direct) = (nr.out(), nr.direct);
    let written = match (&out, direct) {
        (NatOut::Owned { arr, .. }, Some(_)) => Some(*arr),
        _ => None,
    };
    let arrays = nr.bodies().flat_map(|body| body.sites.arrays());
    let (segs, lhs) = Segments::of(mem, arrays, written, name, &mut bufs.viewed);
    let (scatter, dsts) = match out {
        NatOut::Scatter { subs } => (Some(subs), &[][..]),
        NatOut::Owned { offs, .. } => (None, offs),
    };
    // Stage layout: per row of a space, one dense row per body; its
    // owned writes leave it, in commit order, after the space. A scatter
    // body is alone, so its stage is the value column in iteration
    // order, next to the row-major index column.
    let (mut stage, mut index) = (Vec::<T>::new(), Vec::new());
    let (mut offs, mut vals) = (Vec::new(), Vec::new());
    {
        // In place, the segment splits around what the rank writes: the
        // proofs of `in_place` put every read of it on one side.
        let (halves, mut written, base): ([&[T]; 2], _, _) = match (lhs, direct) {
            (Some(seg), Some((lo, hi))) => {
                let (below, rest) = T::slice_mut(seg.data_mut()).split_at_mut(lo);
                let (written, above) = rest.split_at_mut(hi + 1 - lo);
                ([below, above], Some(written), lo)
            }
            _ => ([&[], &[]], None, 0),
        };
        let mut boxes = SiteBoxes::on(&mut bufs.boxes);
        for body in nr.bodies() {
            boxes.add(&body.sites, |arr| segs.get(arr), halves);
        }
        let pool = &mut bufs.pool;
        // A scatter's subscripts: INTEGER kernels over the same sites.
        let mut index_boxes = scatter.map(|subs| {
            let mut boxes = SiteBoxes::<i64>::on(&mut bufs.index);
            let sites = nr.bodies().next().expect("a kernel has a body").sites;
            boxes.add(&sites, |arr| segs.get(arr), [&[], &[]]);
            (subs, boxes, sites)
        });
        for space in spaces {
            let walk = Boxes::new(space);
            let inner_len = space.last().expect("a bound rank has a variable").len();
            let (n, at0) = (walk.tuples(), stage.len());
            let in_place = written.is_some() && walk.unit_stride(&dsts[0]);
            if !in_place {
                stage.resize(at0 + n * nb, T::default());
            }
            if let (false, Some(seg)) = (in_place, &written) {
                each_write(&walk, inner_len, dsts, |off, at| {
                    stage[at] = seg[off - base]
                });
            }
            index.resize(index.len() + n * scatter.map_or(0, <[_]>::len), 0);
            walk.for_each(|bx| {
                let mut at = (0, 0);
                for (bi, b) in nr.bodies().enumerate() {
                    let (data, start, row_step) = match &mut written {
                        Some(seg) if in_place => {
                            let to = dsts[bi].at(bx);
                            (&mut **seg, to.start as usize - base, to.row_step as isize)
                        }
                        _ => {
                            let at = at0 + (bx.row0 * nb + bi) * inner_len + bx.pos;
                            (&mut stage[..], at, (nb * inner_len) as isize)
                        }
                    };
                    // A box one element wide whose rows are adjacent
                    // where it is written runs as one row along its
                    // column.
                    let column = bx.run.len == 1 && row_step == 1;
                    let mut out = BoxOut {
                        data,
                        start,
                        row_step,
                    };
                    let args = boxes.args(&mut at, &b.sites, bx, column);
                    T::kernel(b.func)(&args, &mut out, pool);
                }
                if let Some((subs, boxes, sites)) = &mut index_boxes {
                    let args = boxes.args(&mut (0, 0), sites, bx, false);
                    let at = (at0 + bx.ordinal(), inner_len);
                    index_box(subs, &args, &mut index, at, &mut bufs.dense, pool);
                }
            });
            if !in_place && scatter.is_none() {
                each_write(&walk, inner_len, dsts, |off, at| match &mut written {
                    Some(seg) => seg[off - base] = stage[at],
                    None => {
                        offs.push(off as i64);
                        vals.push(stage[at]);
                    }
                });
                stage.clear();
            }
        }
        boxes.give(&mut bufs.boxes);
        if let Some((_, boxes, _)) = index_boxes {
            boxes.give(&mut bufs.index);
        }
    }
    RankOut {
        offs,
        vals: T::column(vals),
        scat: ScatterOut {
            subs: index,
            vals: T::column(stage),
        },
        ops: cost,
    }
}

/// Every owned write of a staged space (formed into `walk`, its
/// innermost variable `inner_len` values long) in the element loop's
/// order — tuple by tuple, body by body within a tuple, so overlapping
/// writes keep their last writer: its flat offset under the bodies'
/// write forms `dsts`, and its place in the stage.
fn each_write(walk: &Boxes, inner_len: usize, dsts: &[NatAff], mut f: impl FnMut(usize, usize)) {
    let nb = dsts.len();
    let mut to: Vec<Walk> = Vec::with_capacity(nb);
    walk.for_each(|bx| {
        to.clear();
        to.extend(dsts.iter().map(|off| off.at(bx)));
        for r in 0..bx.rows.len {
            let at = (bx.row0 + r) * nb * inner_len + bx.pos;
            for i in 0..bx.run.len {
                for (bi, to) in to.iter().enumerate() {
                    let off = to.start + r as i64 * to.row_step + i as i64 * to.step;
                    f(off as usize, at + bi * inner_len + i);
                }
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bind::{Folded, FoldedSite, FoldedSites};
    use crate::chunk::{RDim, ResolvedAcc};
    use crate::native::{match_template, Lhs, NExpr, NativeBody, NativeKernel, Sites};
    use f90d_frontend::ast::BinOp;
    use f90d_machine::{ElemType, LocalArray};

    /// Test arrays: `A` (id 0, the written one) and `B` (id 1) are 6×12
    /// segments, `C` (id 2) is a 12-vector.
    const NAMES: [&str; 3] = ["A", "B", "C"];
    const COLS: i64 = 12;

    /// An affine site over `(i, j)`: `(array, base, [k_i, k_j])`.
    type Site = (ArrId, i64, [i64; 2]);

    fn aff((_, base, k): Site) -> NatAff {
        NatAff::new(base, &k)
    }

    fn at((_, base, k): Site, i: i64, j: i64) -> usize {
        (base + k[0] * i + k[1] * j) as usize
    }

    fn runs(lists: &[Vec<i64>]) -> Vec<Runs> {
        lists.iter().map(|l| Runs::of(l.iter().copied())).collect()
    }

    /// Bind one `lhs = r0 + r1` body per entry of `bodies` over `lists`,
    /// run it through the box path, and require the written segment to
    /// carry exactly what the element loop leaves: every tuple in list
    /// order, bodies in order within a tuple, all reads from the state
    /// before the phase, later writes over earlier ones. Returns whether
    /// the rank wrote in place.
    fn check_box_path(bodies: &[(Site, [Site; 2])], lists: &[Vec<i64>]) -> bool {
        check_boxes(bodies, lists).0
    }

    /// [`check_box_path`], returning also how many boxes the rank's
    /// iterations formed.
    fn check_boxes(bodies: &[(Site, [Site; 2])], lists: &[Vec<i64>]) -> (bool, usize) {
        let in_place = check_spaces(bodies, lists, &[lists.to_vec()]);
        let mut boxes = 0;
        Boxes::new(&runs(lists)).for_each(|_| boxes += 1);
        (in_place, boxes)
    }

    /// [`check_box_path`] for a rank bound over `lists` that runs the
    /// parts `spaces` of that space in turn, as one phase, and commits
    /// what it staged after the last.
    fn check_spaces(
        bodies: &[(Site, [Site; 2])],
        lists: &[Vec<i64>],
        spaces: &[Vec<Vec<i64>>],
    ) -> bool {
        let mut mem = NodeMemory::new();
        for (k, name) in NAMES.iter().enumerate() {
            let shape: &[i64] = if k == 2 { &[COLS] } else { &[6, COLS] };
            let mut arr = LocalArray::zeros(ElemType::Real, shape);
            for (x, v) in arr.data_mut().as_real_slice_mut().iter_mut().enumerate() {
                *v = ((x * 7 + k * 5) % 31) as f64 / 3.0 - 4.1;
            }
            mem.insert_array(*name, arr);
        }
        let pre: Vec<Vec<f64>> = NAMES
            .iter()
            .map(|n| mem.array(n).data().as_real_slice().to_vec())
            .collect();
        let mut want = pre[0].clone();
        for space in spaces {
            for &i in &space[0] {
                for &j in &space[1] {
                    for &(lhs, [r0, r1]) in bodies {
                        want[at(lhs, i, j)] = pre[r0.0][at(r0, i, j)] + pre[r1.0][at(r1, i, j)];
                    }
                }
            }
        }
        let sum = NExpr::Bin(
            BinOp::Add,
            Box::new(NExpr::Read(0)),
            Box::new(NExpr::Read(1)),
        );
        let func = BoxKernel::Real(match_template(&sum).1);
        let kernel = NativeKernel {
            var_slots: vec![0, 1],
            bodies: (bodies.iter())
                .map(|_| NativeBody {
                    template: "sum",
                    func: func.clone(),
                    sites: Sites::default(),
                    lhs: Lhs::Owned {
                        acc: 0,
                        subs: Vec::new(),
                    },
                    cost: 3,
                })
                .collect(),
            gathers: Vec::new(),
        };
        // Every array is read through one flat dimension, so a site's
        // subscript is its flat offset, bounds-checked over the box.
        let mut subs = Vec::new();
        let mut flat = |site: Site| {
            subs.push(aff(site));
            subs.len() - 1..subs.len()
        };
        let bodies_sites = (bodies.iter())
            .map(|&(_, reads)| FoldedSites {
                reads: (reads.iter())
                    .map(|&r| FoldedSite::Array {
                        acc: r.0 as u16,
                        subs: flat(r),
                    })
                    .collect(),
                ireads: Vec::new(),
                lins: Vec::new(),
                scalars: Vec::new(),
            })
            .collect();
        let writes = bodies.iter().map(|&(lhs, _)| (0, flat(lhs))).collect();
        let folded = Folded {
            kernel: &kernel,
            bodies: bodies_sites,
            gathers: Vec::new(),
            writes,
            subs,
        };
        let table: Vec<Option<ResolvedAcc>> = [6 * COLS, 6 * COLS, COLS]
            .iter()
            .enumerate()
            .map(|(target, &len)| {
                let dims = vec![RDim::Affine { a: 1, b: 0 }];
                Some(ResolvedAcc::new(target, dims, vec![len], vec![len]))
            })
            .collect();
        let mut bound = Bound::new(Some(&folded), 1, 1);
        bound
            .push(0, &table, &runs(lists))
            .expect("every site in bounds");
        let nr = bound.rank(0).expect("bound");
        let flat_spaces: Vec<Runs> = spaces.iter().flat_map(|s| runs(s)).collect();
        let mut bufs = Buffers::default();
        let parts = flat_spaces.chunks_exact(2);
        let out = run_native_boxes::<f64>(nr, parts, &mut mem, |a| NAMES[a], &mut bufs);
        assert!(out.scat.subs.is_empty(), "owned writes scatter nothing");
        assert_eq!(
            out.offs.is_empty(),
            nr.direct.is_some(),
            "in place or staged"
        );
        let tuples: usize = spaces.iter().map(|s| s[0].len() * s[1].len()).sum();
        assert_eq!(out.ops, 3 * bodies.len() as i64 * tuples as i64);
        out.commit("A", &mut mem);
        let got = mem.array("A").data().as_real_slice();
        for (x, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "A[{x}]: {g} vs {w}");
        }
        nr.direct.is_some()
    }

    /// A body that reads no array, `A(i, j) = 2.5` over a 6×12 `A`,
    /// bound on two ranks over `spaces[0]` and `spaces[1]`: it is
    /// computed once exactly when the two spaces are equal. Copying its
    /// writes moves the elements of the written rows and leaves the gaps
    /// between them as they were.
    #[test]
    fn a_body_that_reads_no_array_is_computed_once_over_equal_spaces() {
        let func = BoxKernel::Real(match_template(&NExpr::Lit(2.5)).1);
        let kernel = NativeKernel {
            var_slots: vec![0, 1],
            bodies: vec![NativeBody {
                template: "fill_const",
                func,
                sites: Sites::default(),
                lhs: Lhs::Owned {
                    acc: 0,
                    subs: Vec::new(),
                },
                cost: 1,
            }],
            gathers: Vec::new(),
        };
        let folded = Folded {
            kernel: &kernel,
            bodies: vec![FoldedSites {
                reads: Vec::new(),
                ireads: Vec::new(),
                lins: Vec::new(),
                scalars: Vec::new(),
            }],
            gathers: Vec::new(),
            writes: vec![(0, 0..1)],
            subs: vec![aff(A_IJ)],
        };
        let dims = vec![RDim::Affine { a: 1, b: 0 }];
        let table = [Some(ResolvedAcc::new(
            0,
            dims,
            vec![6 * COLS],
            vec![6 * COLS],
        ))];
        let cols: Vec<i64> = (2..9).collect();
        let once = |lists: [Vec<i64>; 2]| {
            let spaces = [
                runs(&[lists[0].clone(), cols.clone()]),
                runs(&[lists[1].clone(), cols.clone()]),
            ];
            let mut bound = Bound::new(Some(&folded), 2, 2);
            for (rank, space) in spaces.iter().enumerate() {
                bound.push(rank, &table, space).expect("in bounds");
            }
            computed_once(&bound, &|r| &spaces[r][..], 2)
        };
        assert!(once([vec![0, 1, 2], vec![3, 4, 5]]).is_none(), "other rows");
        // The same first and last written element: the spaces decide.
        assert!(
            once([vec![1, 3, 4], vec![1, 2, 4]]).is_none(),
            "other rows between"
        );
        let rows = vec![1, 3, 4];
        let (first, arr, write) = once([rows.clone(), rows.clone()]).expect("equal spaces");
        assert_eq!((first, arr, write), (0, 0, aff(A_IJ)));
        let from: Vec<f64> = (0..6 * COLS).map(|x| x as f64 + 0.5).collect();
        let mut to = vec![0.0; from.len()];
        let space = runs(&[rows.clone(), cols.clone()]);
        copy_writes(&from, &mut to, std::iter::once(&space[..]), &write);
        for (x, (&got, &was)) in to.iter().zip(&from).enumerate() {
            let (i, j) = (x as i64 / COLS, x as i64 % COLS);
            let written = rows.contains(&i) && cols.contains(&j);
            assert_eq!(got, if written { was } else { 0.0 }, "A[{x}]");
        }
    }

    const A_IJ: Site = (0, 0, [COLS, 1]);
    const B_IJ: Site = (1, 0, [COLS, 1]);
    const C_J: Site = (2, 0, [0, 1]);

    /// An inner list that is no arithmetic progression goes through the
    /// same path as shorter runs and leaves the element loop's writes.
    #[test]
    fn non_progression_inner_list_gives_the_element_writes() {
        let outer = vec![1, 3, 4];
        let body = [(A_IJ, [B_IJ, C_J])];
        assert!(
            check_box_path(&body, &[outer.clone(), (0..COLS).collect()]),
            "a unit-stride write that reads other arrays is in place"
        );
        assert!(
            check_box_path(&body, &[outer.clone(), vec![0, 1, 2, 5, 6, 7, 10]]),
            "unit-stride runs of a broken list are still in place"
        );
        assert!(
            !check_box_path(&body, &[outer.clone(), vec![0, 1, 2, 5, 6, 9, 11]]),
            "a strided run is staged"
        );
        // The same lists with a read of the written array one element
        // to the left: staged, and read before any write lands.
        let shifted = [(A_IJ, [(0, -1, [COLS, 1]), B_IJ])];
        assert!(!check_box_path(
            &shifted,
            &[outer.clone(), (1..COLS).collect()]
        ));
        assert!(!check_box_path(
            &shifted,
            &[outer, vec![1, 2, 3, 6, 7, 9, 11]]
        ));
    }

    /// Writes that land on one location more than once — a many-to-one
    /// LHS, a reversed LHS, two bodies whose targets overlap at
    /// different tuples — keep the element loop's last writer.
    #[test]
    fn overlapping_writes_keep_the_last_writer() {
        let lists = [vec![0, 2, 5], (0..COLS - 1).collect::<Vec<i64>>()];
        let many_to_one: Site = (0, 3, [COLS, 0]);
        assert!(!check_box_path(&[(many_to_one, [B_IJ, C_J])], &lists));
        let reversed: Site = (0, COLS - 1, [COLS, -1]);
        assert!(!check_box_path(&[(reversed, [B_IJ, C_J])], &lists));
        let right_neighbour: Site = (0, 1, [COLS, 1]);
        assert!(!check_box_path(
            &[(A_IJ, [B_IJ, C_J]), (right_neighbour, [B_IJ, B_IJ])],
            &lists
        ));
        assert!(!check_box_path(
            &[(right_neighbour, [B_IJ, B_IJ]), (A_IJ, [A_IJ, C_J])],
            &lists
        ));
    }

    /// The two proofs of the alias rule, and what neither covers. In
    /// place: a read of the element about to be overwritten (wherever it
    /// stands among the operands, read twice too) under a one-to-one
    /// write, and a read of a row of the written array that lies wholly
    /// below or above every written row. Staged: that row once it falls
    /// inside the written range, a column that interleaves with the
    /// written ones, and an own-element read under a many-to-one write —
    /// each with the element loop's values either way.
    #[test]
    fn own_element_and_disjoint_reads_are_written_in_place() {
        let inner: Vec<i64> = (0..COLS).collect();
        let lists = |outer: &[i64]| [outer.to_vec(), inner.clone()];
        for reads in [[A_IJ, B_IJ], [B_IJ, A_IJ], [A_IJ, A_IJ]] {
            assert!(check_box_path(&[(A_IJ, reads)], &lists(&[1, 3, 4])));
        }
        let row = |i: i64| -> Site { (0, i * COLS, [0, 1]) };
        assert!(
            check_box_path(&[(A_IJ, [A_IJ, row(0)])], &lists(&[1, 3, 4])),
            "row 0 lies below rows 1..=4"
        );
        assert!(
            check_box_path(&[(A_IJ, [row(5), A_IJ])], &lists(&[0, 1, 2, 3])),
            "row 5 lies above rows 0..=3"
        );
        assert!(
            !check_box_path(&[(A_IJ, [A_IJ, row(3)])], &lists(&[1, 3, 4])),
            "row 3 is written by this very phase"
        );
        assert!(
            !check_box_path(&[(A_IJ, [A_IJ, row(2)])], &lists(&[1, 3, 4])),
            "row 2 is not written, but lies between rows that are"
        );
        // Column 0 of every row, under writes of columns 1..: its range
        // starts below the writes and ends among them.
        let column: Site = (0, 0, [COLS, 0]);
        assert!(!check_box_path(
            &[(A_IJ, [A_IJ, column])],
            &[vec![1, 3, 4], (1..COLS).collect()]
        ));
        // `A(I,1) = A(I,1) + B(I,J)`: every J reads the old `A(I,1)`, the
        // last one's sum stays.
        let first: Site = (0, 1, [COLS, 0]);
        assert!(!check_box_path(
            &[(first, [first, B_IJ])],
            &lists(&[0, 2, 5])
        ));
        // The same write over one-element rows walks no row at a stride,
        // but is still many-to-one across them: `A(3) = A(3) + B(I,4)`.
        let cell: Site = (0, 3, [0, 0]);
        assert!(!check_box_path(
            &[(cell, [cell, B_IJ])],
            &[vec![0, 2, 5], vec![4]]
        ));
    }

    /// A box never reorders rows. Under an innermost list of several
    /// runs every `(row, run)` is a box of its own, in the element
    /// loop's order — `A(I+J)` is written by many tuples, and the last
    /// in that order must win — and an outer list that is no progression
    /// splits into one box per run of it.
    #[test]
    fn boxes_follow_the_element_order() {
        let diagonal: Site = (0, 0, [1, 1]);
        let broken = vec![0, 1, 2, 5, 6, 9, 11];
        let (in_place, boxes) = check_boxes(
            &[(diagonal, [B_IJ, C_J])],
            &[vec![0, 1, 2, 4], broken.clone()],
        );
        assert!(!in_place, "a many-to-one write is staged");
        assert_eq!(boxes, 4 * 3, "one box per row and run");
        // Whole rows: one box per run of the outer list.
        let whole: Vec<i64> = (0..COLS).collect();
        let body = [(A_IJ, [B_IJ, C_J])];
        assert_eq!(
            check_boxes(&body, &[vec![0, 1, 2, 3, 4], whole.clone()]),
            (true, 1)
        );
        assert_eq!(
            check_boxes(&body, &[vec![0, 2, 4], whole.clone()]),
            (true, 1)
        );
        assert_eq!(
            check_boxes(&body, &[vec![0, 1, 3, 4], whole.clone()]),
            (true, 2)
        );
        assert_eq!(check_boxes(&body, &[vec![0, 1, 3, 5], whole]), (true, 2));
        assert_eq!(
            check_boxes(&body, &[vec![0, 1, 3, 4], broken]),
            (false, 4 * 3)
        );
        // The diagonal again over whole rows, where boxes span rows: it
        // reads nothing of `A`, so rows written in order, in place, leave
        // the last writer too.
        let (in_place, boxes) = check_boxes(
            &[(diagonal, [B_IJ, C_J])],
            &[vec![0, 1, 2, 4], (0..6).collect()],
        );
        assert_eq!((in_place, boxes), (true, 2));
    }

    /// A rank bound over its whole box runs split-phase as the interior
    /// of a one-cell margin on both variables, then the boundary slabs —
    /// the last of them `{first, last}` of the innermost list, a run at
    /// stride 10 that goes through the stage even on a rank that writes
    /// in place — and leaves the element loop's writes: in place under
    /// an own-element read (which the stage must hand the old value) and
    /// under reads of other arrays, staged under a shifted read.
    #[test]
    fn split_phase_spaces_give_the_element_writes() {
        let lists = [vec![1, 2, 3, 4], (1..COLS).collect::<Vec<i64>>()];
        let mut margins = f90d_comm::overlap::Margins::new(2);
        for (var, c) in [(0, 1), (0, -1), (1, 1), (1, -1)] {
            margins.add(var, c);
        }
        let mut parts = Vec::new();
        margins.interior(&runs(&lists), &mut parts);
        margins.boundary(&runs(&lists), &mut parts);
        let values = |runs: &[Runs]| runs.iter().map(|r| r.values().collect()).collect();
        let spaces: Vec<Vec<Vec<i64>>> = parts.chunks_exact(2).map(values).collect();
        assert_eq!(spaces[2][1], vec![1, COLS - 1], "the innermost slab");
        for body in [[A_IJ, B_IJ], [B_IJ, C_J]] {
            assert!(check_spaces(&[(A_IJ, body)], &lists, &spaces));
        }
        let shifted = [(A_IJ, [(0, -1, [COLS, 1]), B_IJ])];
        assert!(!check_spaces(&shifted, &lists, &spaces));
    }
}
