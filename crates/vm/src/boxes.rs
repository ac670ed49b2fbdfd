//! The native tier's run: one walk (`Boxes::for_each`) hands every box
//! of each iteration space a rank `crate::bind` bound runs to the body's
//! kernel (`crate::native`) — into the written segment where the alias
//! rule allows it, into a dense stage whose writes are committed in
//! element order otherwise — and feeds the inspector of an unstructured
//! read the same boxes.

use f90d_comm::driver::{GatherRequests, ScatterOut, Spaces};
use f90d_comm::op::CommResult;
use f90d_machine::{Machine, NodeMemory};

use crate::bind::{BoxAt, Boxes, NatAff, NatOut, NatRank, NatSites, SiteOff, View};
use crate::bytecode::ArrId;
use crate::chunk::{ForallCx, RankOut, Staged};
use crate::columns::{Elem, Pool};
use crate::native::{BoxArgs, BoxFn, BoxKernel, BoxOut, BoxRead, Walk};

/// The box arguments of one lane of a [`NatSites`] on one node: the
/// segments viewed are fixed for the phase, the walks are rewritten box
/// by box.
struct SiteBoxes<'v, T> {
    reads: Vec<BoxRead<'v, T>>,
    lins: Vec<Walk>,
}

impl<'v, T: Elem> SiteBoxes<'v, T> {
    /// Borrow the (materialized) segments `sites` reads from `mem` — or,
    /// for a site on the segment written in place, its part
    /// `[below, above]` of that.
    fn new<'p>(
        sites: &NatSites<'_>,
        mem: &'v NodeMemory,
        name: impl Fn(ArrId) -> &'p str,
        [below, above]: [&'v [T]; 2],
    ) -> Self {
        let reads = T::pick(&sites.reads, &sites.ireads)
            .iter()
            .map(|site| BoxRead {
                data: match site.view {
                    View::Array => Some(T::slice(mem.array(name(site.arr)).data())),
                    View::Own => None,
                    View::Below => Some(below),
                    View::Above => Some(above),
                },
                walk: Walk::default(),
            })
            .collect();
        SiteBoxes {
            reads,
            lins: vec![Walk::default(); sites.folded.lins.len()],
        }
    }

    /// The kernel arguments of the box `bx`.
    fn args<'s>(&'s mut self, sites: &'s NatSites<'_>, bx: &BoxAt<'_>) -> BoxArgs<'s, T> {
        for (read, site) in (self.reads.iter_mut()).zip(T::pick(&sites.reads, &sites.ireads)) {
            read.walk = match &site.off {
                SiteOff::Affine(aff) => aff.at(bx),
                SiteOff::Ordinal => Walk {
                    start: bx.ordinal() as i64,
                    row_step: bx.inner_len as i64,
                    step: 1,
                },
            };
        }
        for (walk, lin) in self.lins.iter_mut().zip(&sites.folded.lins) {
            *walk = lin.at(bx);
        }
        BoxArgs {
            rows: bx.rows.len,
            len: bx.run.len,
            reads: &self.reads,
            lins: &self.lins,
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
/// order, pushed to `reqs`.
pub(crate) fn inspect_boxes(
    cx: ForallCx<'_>,
    nr: &NatRank<'_>,
    gi: usize,
    rank: usize,
    mem: &mut NodeMemory,
    reqs: &mut GatherRequests,
) -> CommResult<()> {
    let (g, name) = (&nr.gathers[gi], |a: ArrId| cx.prog.arrays[a].name.as_str());
    // Lazily-allocated segments expose no raw slice until their buffer
    // exists (`LocalArray::data`).
    for arr in g.sites.arrays() {
        mem.array_mut(name(arr)).materialize();
    }
    // Inspector subscripts read no gathered value and alias no write.
    let mut boxes = SiteBoxes::<i64>::new(&g.sites, mem, name, [&[], &[]]);
    let (mut cols, mut dense, mut pool) = (Vec::new(), Vec::new(), Pool::default());
    let (mut result, lists) = (Ok(()), &cx.lists[rank]);
    Boxes::new(lists).for_each(lists, |bx| {
        if result.is_err() {
            return;
        }
        let args = boxes.args(&g.sites, bx);
        cols.resize(args.rows * args.len * g.subs.len(), 0);
        let dense_rows = (0, args.len);
        index_box(g.subs, &args, &mut cols, dense_rows, &mut dense, &mut pool);
        result = reqs.push_row(rank as i64, &cols);
    });
    result
}

/// Run a bound native kernel as one local phase: every rank runs the
/// boxes of its iteration `spaces` with the bytecode loop's cost
/// charging and writes, and hands back what it staged for the one
/// commit (`RankOut::commit`).
pub(crate) fn run_native_forall(
    cx: ForallCx<'_>,
    m: &mut Machine,
    bound: &[Option<NatRank<'_>>],
    spaces: &Spaces<'_>,
) -> Vec<Staged> {
    let name = |a: ArrId| cx.prog.arrays[a].name.as_str();
    m.local_phase_map(|rank, mem| {
        let (Some(nr), spaces) = (&bound[rank as usize], spaces(rank as usize)) else {
            return (None, 0);
        };
        // Each rank on the lane of the written array's element type.
        match nr.bodies[0].func {
            BoxKernel::Real(_) => run_native_boxes::<f64>(nr, spaces, mem, name),
            BoxKernel::Int(_) => run_native_boxes::<i64>(nr, spaces, mem, name),
        }
        .staged()
    })
}

/// One rank's share of [`run_native_forall`]: every box of each space in
/// turn, every body — one kernel call. A space goes in place when the
/// rank does and its rows are unit-stride ([`Boxes::unit_stride`]), and
/// through the stage otherwise. On an in-place rank the alias rule's
/// proofs hold on the space, so its staged writes land right after it,
/// the stage first filled with the values they replace (an own-element
/// read takes its operand there); any other rank hands them back.
fn run_native_boxes<'p, T: Elem>(
    nr: &NatRank<'_>,
    spaces: &[Vec<Vec<i64>>],
    mem: &mut NodeMemory,
    name: impl Fn(ArrId) -> &'p str,
) -> RankOut {
    let (bodies, nb) = (&nr.bodies, nr.bodies.len());
    // Lazily-allocated segments expose no raw slice until their buffer
    // exists (`LocalArray::data`); force every array this phase views.
    for arr in bodies.iter().flat_map(|b| b.sites.arrays()) {
        mem.array_mut(name(arr)).materialize();
    }
    let tuples = |space: &[Vec<i64>]| space.iter().map(Vec::len).product::<usize>();
    let total: usize = spaces.iter().map(|space| tuples(space)).sum();
    let cost = bodies.iter().map(|b| b.cost).sum::<i64>() * total as i64;
    // In-place boxes borrow the written segment mutably next to the
    // shared read views, so it leaves the node memory for the phase.
    let mut lhs = match (&nr.out, nr.direct) {
        (NatOut::Owned { arr, .. }, Some(_)) => {
            let seg = mem.remove_array(name(*arr));
            Some(seg.expect("the written array is allocated on this node"))
        }
        _ => None,
    };
    let (scatter, dsts) = match &nr.out {
        NatOut::Scatter { subs } => (Some(*subs), &[][..]),
        NatOut::Owned { offs, .. } => (None, &offs[..]),
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
        let (halves, mut written, base): ([&[T]; 2], _, _) = match (&mut lhs, nr.direct) {
            (Some(seg), Some((lo, hi))) => {
                let (below, rest) = T::slice_mut(seg.data_mut()).split_at_mut(lo);
                let (written, above) = rest.split_at_mut(hi + 1 - lo);
                ([below, above], Some(written), lo)
            }
            _ => ([&[], &[]], None, 0),
        };
        let mut boxes: Vec<SiteBoxes<'_, T>> = bodies
            .iter()
            .map(|b| SiteBoxes::new(&b.sites, mem, &name, halves))
            .collect();
        let mut pool = Pool::default();
        // A scatter's subscripts: INTEGER kernels over the same sites.
        let mut index_boxes = scatter.map(|subs| {
            let boxes = SiteBoxes::<i64>::new(&bodies[0].sites, mem, &name, [&[], &[]]);
            (subs, boxes, Vec::new())
        });
        for space in spaces {
            let inner_len = space.last().expect("a bound rank has a variable").len();
            let (walk, n, at0) = (Boxes::new(space), tuples(space), stage.len());
            let in_place = written.is_some() && walk.unit_stride(&dsts[0]);
            if !in_place {
                stage.resize(at0 + n * nb, T::default());
            }
            if let (false, Some(seg)) = (in_place, &written) {
                each_write(&walk, space, dsts, |off, at| stage[at] = seg[off - base]);
            }
            index.resize(index.len() + n * scatter.map_or(0, <[_]>::len), 0);
            walk.for_each(space, |bx| {
                for (bi, (b, boxes)) in bodies.iter().zip(&mut boxes).enumerate() {
                    let (data, start, row_step) = match &mut written {
                        Some(seg) if in_place => {
                            let to = dsts[bi].at(bx);
                            (&mut **seg, to.start as usize - base, to.row_step as isize)
                        }
                        _ => {
                            let at = at0 + (bx.row0 * nb + bi) * inner_len + bx.run.pos;
                            (&mut stage[..], at, (nb * inner_len) as isize)
                        }
                    };
                    let mut out = BoxOut {
                        data,
                        start,
                        row_step,
                    };
                    T::kernel(b.func)(&boxes.args(&b.sites, bx), &mut out, &mut pool);
                }
                if let Some((subs, boxes, dense)) = &mut index_boxes {
                    let args = boxes.args(&bodies[0].sites, bx);
                    let at = (at0 + bx.ordinal(), inner_len);
                    index_box(subs, &args, &mut index, at, dense, &mut pool);
                }
            });
            if !in_place && scatter.is_none() {
                each_write(&walk, space, dsts, |off, at| match &mut written {
                    Some(seg) => seg[off - base] = stage[at],
                    None => {
                        offs.push(off as i64);
                        vals.push(stage[at]);
                    }
                });
                stage.clear();
            }
        }
    }
    if let (Some(seg), NatOut::Owned { arr, .. }) = (lhs, &nr.out) {
        mem.insert_array(name(*arr), seg);
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

/// Every owned write of the staged `space` (formed into `walk`) in the
/// element loop's order — tuple by tuple, body by body within a tuple,
/// so overlapping writes keep their last writer: its flat offset under
/// the bodies' write forms `dsts`, and its place in the stage.
fn each_write(walk: &Boxes, space: &[Vec<i64>], dsts: &[NatAff], mut f: impl FnMut(usize, usize)) {
    let (nb, inner_len) = (dsts.len(), space.last().map_or(0, Vec::len));
    let mut to: Vec<Walk> = Vec::with_capacity(nb);
    walk.for_each(space, |bx| {
        to.clear();
        to.extend(dsts.iter().map(|off| off.at(bx)));
        for r in 0..bx.rows.len {
            let at = (bx.row0 + r) * nb * inner_len + bx.run.pos;
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
    use crate::bind::{FoldedSites, IterBox, NatBody, NatSite};
    use crate::native::{match_template, NExpr};
    use f90d_frontend::ast::BinOp;
    use f90d_machine::{ElemType, LocalArray};

    /// Test arrays: `A` (id 0, the written one) and `B` (id 1) are 6×12
    /// segments, `C` (id 2) is a 12-vector.
    const NAMES: [&str; 3] = ["A", "B", "C"];
    const COLS: i64 = 12;

    /// An affine site over `(i, j)`: `(array, base, [k_i, k_j])`.
    type Site = (ArrId, i64, [i64; 2]);

    fn aff((_, base, k): Site) -> NatAff {
        NatAff {
            base,
            k: k.to_vec(),
        }
    }

    fn at((_, base, k): Site, i: i64, j: i64) -> usize {
        (base + k[0] * i + k[1] * j) as usize
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
        Boxes::new(lists).for_each(lists, |_| boxes += 1);
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
        let folded = FoldedSites {
            reads: Vec::new(),
            ireads: Vec::new(),
            lins: Vec::new(),
            scalars: Vec::new(),
        };
        let bound = bodies
            .iter()
            .map(|&(_, reads)| NatBody {
                func: &func,
                sites: NatSites {
                    folded: &folded,
                    reads: (reads.iter())
                        .map(|&r| NatSite {
                            arr: r.0,
                            off: SiteOff::Affine(aff(r)),
                            view: View::Array,
                        })
                        .collect(),
                    ireads: Vec::new(),
                },
                cost: 3,
            })
            .collect();
        let out = NatOut::Owned {
            arr: bodies[0].0 .0,
            offs: bodies.iter().map(|&(lhs, _)| aff(lhs)).collect(),
        };
        let lo: Vec<i64> = lists.iter().map(|l| l[0]).collect();
        let hi: Vec<i64> = lists.iter().map(|l| *l.last().unwrap()).collect();
        let bx = IterBox {
            table: &[],
            lo: &lo,
            hi: &hi,
        };
        let nr = NatRank::new(bound, Vec::new(), out, lists, &bx);
        let out = run_native_boxes::<f64>(&nr, spaces, &mut mem, |a| NAMES[a]);
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
        let slabs = margins.boundary_slabs(&lists);
        assert_eq!(slabs[1][1], vec![1, COLS - 1], "the innermost slab");
        let spaces = [vec![margins.interior_lists(&lists)], slabs].concat();
        for body in [[A_IJ, B_IJ], [B_IJ, C_J]] {
            assert!(check_spaces(&[(A_IJ, body)], &lists, &spaces));
        }
        let shifted = [(A_IJ, [(0, -1, [COLS, 1]), B_IJ])];
        assert!(!check_spaces(&shifted, &lists, &spaces));
    }
}
