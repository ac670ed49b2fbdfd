//! The native tier's bind: a FORALL the native tier selected runs no
//! bytecode when this execution can bind it ([`bind_native`]). Its
//! affine forms are folded once per execution ([`fold_native`]), each
//! rank's sites are proved in bounds over its iteration box, and the
//! alias rule (`in_place`) decides per rank whether boxes are written
//! where they stand — proofs that hold on any part of that box. An
//! iteration space is cut into boxes — runs of the second-innermost
//! variable × runs of the innermost, never reordering rows ([`Boxes`]).
//! What a bound rank then runs is `crate::boxes`.

use std::cell::OnceCell;

use f90d_comm::helpers::cartesian;
use f90d_machine::Value;

use crate::bytecode::ArrId;
use crate::chunk::{affine_window, ForallCx, RDim, ResolvedAcc};
use crate::dispatch;
use crate::native::{BoxFn, BoxKernel, Lhs, Lin, NativeKernel, ReadSite, Sites, Walk};
use crate::ops;

/// One affine form bound to a rank: `base + Σ k[j]·iter_value[j]` over
/// the FORALL variables, outer to inner.
#[derive(Debug, PartialEq)]
pub(crate) struct NatAff {
    pub(crate) base: i64,
    pub(crate) k: Vec<i64>,
}

impl NatAff {
    /// Coefficient of the innermost variable.
    #[inline]
    fn inner(&self) -> i64 {
        *self.k.last().expect("a FORALL has a variable")
    }

    /// The form over the box `bx`: one multiply-add per variable, once
    /// per box — wrapping, as the INTEGER value it may stand for does.
    #[inline]
    pub(crate) fn at(&self, bx: &BoxAt<'_>) -> Walk {
        let (inner, rest) = self.k.split_last().expect("a FORALL has a variable");
        // A 1-D FORALL's one row is row 0 of nothing: no coefficient.
        let mid = rest.last().copied().unwrap_or(0);
        let mut start = ops::affine(*inner, bx.run.first, self.base);
        start = ops::affine(mid, bx.rows.first, start);
        for (c, x) in rest.iter().zip(bx.outer) {
            start = ops::affine(*c, *x, start);
        }
        Walk {
            start,
            row_step: mid.wrapping_mul(bx.rows.stride),
            step: inner.wrapping_mul(bx.run.stride),
        }
    }

    /// Exact min/max over the box `[lo, hi]` per variable (attained at
    /// corners, which are real iteration tuples); `None` when a corner
    /// leaves `i64` — no subscript or offset in bounds does.
    fn range(&self, lo: &[i64], hi: &[i64]) -> Option<(i64, i64)> {
        let (mut a, mut b) = (self.base, self.base);
        for (j, &c) in self.k.iter().enumerate() {
            let (least, most) = if c >= 0 {
                (lo[j], hi[j])
            } else {
                (hi[j], lo[j])
            };
            a = a.checked_add(c.checked_mul(least)?)?;
            b = b.checked_add(c.checked_mul(most)?)?;
        }
        Some((a, b))
    }

    /// `self += s·other`, wrapping like every other affine fold: the
    /// composed form still equals the per-element value.
    fn add_scaled(&mut self, other: &NatAff, s: i64) {
        self.base = ops::affine(s, other.base, self.base);
        for (c, &o) in self.k.iter_mut().zip(&other.k) {
            *c = ops::affine(s, o, *c);
        }
    }

    /// Whether distinct tuples give distinct values, when variable `j`
    /// ranges over a list whose least gap and whose span (last − first)
    /// are `steps[j]` — a mixed-radix test, sufficient and not necessary:
    /// taking the variables that vary by the least change each can make
    /// (`|coefficient| ×` its list's least gap), every one must out-step
    /// everything the smaller ones can add up to (`|coefficient| ×` their
    /// lists' spans). Saturating: a product or sum past `i64::MAX` can
    /// only fail the test.
    fn one_to_one(&self, steps: impl Iterator<Item = (i64, i64)>) -> bool {
        let mut vars: Vec<(i64, i64)> = (self.k.iter().zip(steps))
            .filter(|&(_, (_, span))| span > 0)
            .map(|(c, (gap, span))| {
                let c = c.saturating_abs();
                (c.saturating_mul(gap), c.saturating_mul(span))
            })
            .collect();
        vars.sort_unstable();
        let mut below = 0i64;
        vars.iter().all(|&(least, span)| {
            let apart = least > below;
            below = below.saturating_add(span);
            apart
        })
    }
}

/// What a bind folds once per execution, for every rank: the kernel's
/// affine forms over the FORALL variables and its REAL scalars.
pub(crate) struct Folded<'k> {
    kernel: &'k NativeKernel,
    /// Per body, in order.
    bodies: Vec<FoldedSites>,
    /// Per gather, in order.
    gathers: Vec<FoldedSites>,
    /// The accessor and subscripts of every owned write, in body order.
    writes: Vec<(u16, Vec<NatAff>)>,
}

/// A [`Sites`] with its forms folded.
pub(crate) struct FoldedSites {
    pub(crate) reads: Vec<FoldedSite>,
    pub(crate) ireads: Vec<FoldedSite>,
    /// Values for `BoxArgs::lins`.
    pub(crate) lins: Vec<NatAff>,
    /// Snapshot for `BoxArgs::scalars`.
    pub(crate) scalars: Vec<f64>,
}

/// A [`ReadSite`] with its subscripts folded.
pub(crate) enum FoldedSite {
    Array { acc: u16, subs: Vec<NatAff> },
    Gathered { tmp: ArrId },
}

/// The rank-independent half of a bind: every affine form of
/// `kernel` — site subscripts, the writes', the `lins` — folded over
/// the current outer loop variables and INTEGER scalars of `cx`, and the
/// REAL scalars the closures read, once per execution. `None` when an
/// INTEGER scalar a form folds does not hold `Value::Int` or a REAL
/// one does not hold `Value::Real`.
pub(crate) fn fold_native<'k>(kernel: &'k NativeKernel, cx: ForallCx<'_>) -> Option<Folded<'k>> {
    let lin = |lin: &Lin| bind_lin(lin, kernel, cx);
    let sites = |sites: &Sites| {
        let site = |s: &ReadSite| {
            Some(match s {
                ReadSite::Array { acc, subs } => FoldedSite::Array {
                    acc: *acc,
                    subs: subs.iter().map(lin).collect::<Option<_>>()?,
                },
                ReadSite::Gathered { gather } => FoldedSite::Gathered {
                    tmp: cx.f.gathers[*gather as usize].tmp,
                },
            })
        };
        Some(FoldedSites {
            reads: sites.reads.iter().map(site).collect::<Option<_>>()?,
            ireads: sites.ireads.iter().map(site).collect::<Option<_>>()?,
            lins: sites.lins.iter().map(lin).collect::<Option<_>>()?,
            scalars: (sites.scalar_slots.iter())
                .map(|&slot| match cx.scalars[slot as usize] {
                    Value::Real(v) => Some(v),
                    _ => None,
                })
                .collect::<Option<_>>()?,
        })
    };
    let mut writes = Vec::new();
    for b in &kernel.bodies {
        if let Lhs::Owned { acc, subs } = &b.lhs {
            writes.push((*acc, subs.iter().map(lin).collect::<Option<_>>()?));
        }
    }
    Some(Folded {
        kernel,
        bodies: (kernel.bodies.iter())
            .map(|b| sites(&b.sites))
            .collect::<Option<_>>()?,
        gathers: (kernel.gathers.iter())
            .map(|g| sites(&g.sites))
            .collect::<Option<_>>()?,
        writes,
    })
}

/// Fold a selection-time [`Lin`] into an affine form over the FORALL
/// variables: outer loop variables take their current values,
/// INTEGER scalar terms fold their current `Value::Int` (anything
/// else fails the bind).
fn bind_lin(lin: &Lin, kernel: &NativeKernel, cx: ForallCx<'_>) -> Option<NatAff> {
    let mut aff = NatAff {
        base: lin.base,
        k: vec![0; kernel.var_slots.len()],
    };
    for &(slot, c) in &lin.vterms {
        match kernel.var_slots.iter().position(|&s| s == slot) {
            Some(j) => aff.k[j] = aff.k[j].wrapping_add(c),
            None => aff.base = ops::affine(c, cx.vars[slot as usize], aff.base),
        }
    }
    for &(slot, c) in &lin.sterms {
        match cx.scalars[slot as usize] {
            Value::Int(v) => aff.base = ops::affine(c, v, aff.base),
            _ => return None,
        }
    }
    Some(aff)
}

/// The rank's iteration box and accessor table, as the bind proofs use
/// them.
pub(crate) struct IterBox<'a> {
    pub(crate) table: &'a [Option<ResolvedAcc>],
    /// Least / greatest value of each FORALL variable on this rank.
    pub(crate) lo: &'a [i64],
    pub(crate) hi: &'a [i64],
}

impl IterBox<'_> {
    /// Compose a site's folded subscripts through accessor `acc` into
    /// the array it reaches and its flat padded-offset form — the
    /// symbolic mirror of `ResolvedAcc::offset`, including both bounds
    /// checks (validated over the iteration box corners instead of per
    /// element).
    fn site(&self, acc: u16, subs: &[NatAff]) -> Option<(ArrId, NatAff)> {
        let racc = self.table[acc as usize].as_ref()?;
        let mut off = NatAff {
            base: 0,
            k: vec![0; self.lo.len()],
        };
        for (k, g) in subs.iter().enumerate() {
            let RDim::Affine { a, b } = racc.dims[k] else {
                return None; // CYCLIC / BLOCK-CYCLIC: per-element ownership math
            };
            // The padded index `a·g + b` is monotone in `g`, so the box is
            // in bounds when its corners are in the window.
            let (lo, hi) = affine_window(a, b, racc.extents[k], racc.padded[k]);
            let (gmin, gmax) = g.range(self.lo, self.hi)?;
            if gmin < lo || gmax >= hi {
                return None;
            }
            off.add_scaled(g, a * racc.strides[k]);
            off.base = ops::affine(b, racc.strides[k], off.base);
        }
        Some((racc.target, off))
    }

    /// Bind one group of leaf tables to the rank.
    fn sites<'f>(&self, folded: &'f FoldedSites) -> Option<NatSites<'f>> {
        let site = |s: &FoldedSite| {
            let (arr, off) = match s {
                FoldedSite::Array { acc, subs } => {
                    let (arr, off) = self.site(*acc, subs)?;
                    (arr, SiteOff::Affine(off))
                }
                FoldedSite::Gathered { tmp } => (*tmp, SiteOff::Ordinal),
            };
            let view = View::Array;
            Some(NatSite { arr, off, view })
        };
        Some(NatSites {
            folded,
            reads: folded.reads.iter().map(site).collect::<Option<_>>()?,
            ireads: folded.ireads.iter().map(site).collect::<Option<_>>()?,
        })
    }
}

/// Where one read site's walk starts on a bound rank.
pub(crate) enum SiteOff {
    /// The flat padded offset as an affine form over the FORALL
    /// variables.
    Affine(NatAff),
    /// A gathered value: the walk starts at the iteration ordinal of the
    /// box's first element and goes through the sequential buffer at
    /// unit stride, one inner list per row.
    Ordinal,
}

/// What a read site views while its rank's boxes run.
#[derive(Clone, Copy)]
pub(crate) enum View {
    /// Its array's segment in the node memory.
    Array,
    /// The element each tuple is about to overwrite, on a rank that
    /// writes in place: the kernel takes it from the output row.
    Own,
    /// The part of the segment written in place that lies below every
    /// offset the rank writes.
    Below,
    /// The part above every offset the rank writes; the site's form
    /// counts from its first element.
    Above,
}

/// One read site bound to one rank.
pub(crate) struct NatSite {
    pub(crate) arr: ArrId,
    pub(crate) off: SiteOff,
    pub(crate) view: View,
}

/// One group of leaf tables ([`Sites`]) bound to one rank.
pub(crate) struct NatSites<'f> {
    /// The rank-independent half: `lins` and `scalars`.
    pub(crate) folded: &'f FoldedSites,
    pub(crate) reads: Vec<NatSite>,
    pub(crate) ireads: Vec<NatSite>,
}

impl NatSites<'_> {
    /// Every array a box of this group views.
    pub(crate) fn arrays(&self) -> impl Iterator<Item = ArrId> + '_ {
        self.reads.iter().chain(&self.ireads).map(|site| site.arr)
    }
}

/// Where a bound rank's boxes go.
pub(crate) enum NatOut<'f> {
    /// Owned writes of `arr`: body `i`'s flat padded offset is
    /// `offs[i]`.
    Owned { arr: ArrId, offs: Vec<NatAff> },
    /// The rank's scatter columns: the one body's box is a run of the
    /// value column, `subs` fill the same run of the index column.
    Scatter { subs: &'f [BoxFn<i64>] },
}

/// One kernel body bound to one rank: everything a box needs with no
/// descriptor math, bounds checks, or `Value` boxing left.
pub(crate) struct NatBody<'f> {
    pub(crate) func: &'f BoxKernel,
    pub(crate) sites: NatSites<'f>,
    /// Modelled cost per iteration (identical to the bytecode body's).
    pub(crate) cost: i64,
}

/// One unstructured read's inspector bound to one rank.
pub(crate) struct NatGather<'f> {
    /// Global subscript kernels, one per source dimension.
    pub(crate) subs: &'f [BoxFn<i64>],
    pub(crate) sites: NatSites<'f>,
}

/// A maximal arithmetic-progression run of an iteration list: `len`
/// values from `first` in steps of `stride`, starting at list position
/// `pos`. A BLOCK partition's list is a single run; a list that is no
/// progression is several shorter ones through the same path.
#[derive(Debug, PartialEq)]
pub(crate) struct Run {
    pub(crate) pos: usize,
    pub(crate) len: usize,
    first: i64,
    stride: i64,
}

fn inner_runs(list: &[i64]) -> Vec<Run> {
    // One progression — every BLOCK share — is seen in one pass with no
    // early exit, which the compiler vectorizes.
    if let [first, second, ..] = *list {
        let stride = second - first;
        if (list.windows(2)).fold(true, |all, w| all & (w[1] - w[0] == stride)) {
            return vec![Run {
                pos: 0,
                len: list.len(),
                first,
                stride,
            }];
        }
    }
    let mut runs = Vec::new();
    let mut pos = 0;
    while pos < list.len() {
        let stride = list.get(pos + 1).map_or(0, |next| next - list[pos]);
        let mut len = 1;
        while pos + len < list.len() && list[pos + len] - list[pos + len - 1] == stride {
            len += 1;
        }
        runs.push(Run {
            pos,
            len,
            first: list[pos],
            stride,
        });
        pos += len;
    }
    runs
}

/// The least gap between neighbours of the list `runs` cuts, and its
/// span: what [`NatAff::one_to_one`] asks of a variable. A run's last
/// value wraps to the exact list element; a gap or span past `i64::MAX`
/// saturates.
fn steps(runs: &[Run]) -> (i64, i64) {
    let last = |run: &Run| ops::affine(run.len as i64 - 1, run.stride, run.first);
    let within = runs.iter().filter(|run| run.len > 1).map(|run| run.stride);
    let between = runs
        .windows(2)
        .map(|w| w[1].first.saturating_sub(last(&w[0])));
    let first = runs.first().map_or(0, |run| run.first);
    let span = runs.last().map_or(0, last).saturating_sub(first);
    (within.chain(between).min().unwrap_or(0), span)
}

/// One box of a rank's iteration space: under the values `outer` of the
/// variables outside the last two, the rows `rows` of the
/// second-innermost variable × the run `run` of the innermost. One box
/// is one kernel call per body.
pub(crate) struct BoxAt<'a> {
    outer: &'a [i64],
    pub(crate) rows: &'a Run,
    pub(crate) run: &'a Run,
    /// Which of the rank's rows — `outer` tuples × the second-innermost
    /// list, in iteration order — the box's first is.
    pub(crate) row0: usize,
    /// Length of the innermost list: iterations per row.
    pub(crate) inner_len: usize,
}

impl BoxAt<'_> {
    /// Which of the rank's iterations the box's first element is.
    pub(crate) fn ordinal(&self) -> usize {
        self.row0 * self.inner_len + self.run.pos
    }
}

/// The boxes of one iteration space — the rank's whole space, or a part
/// split-phase execution runs on its own. **A box never reorders rows.**
/// It spans several values of the second-innermost variable only when
/// the innermost list is a single run, so that box order is iteration
/// order; under a broken innermost list every `(row, run)` is a box of
/// one row, in the order the element loop visits them (run-major order
/// would change the last writer of `A(I+J) = …`). A 1-D FORALL is one
/// row.
pub(crate) struct Boxes {
    /// The runs of the innermost list: what a row spans.
    runs: Vec<Run>,
    /// The runs of the second-innermost list: the rows a box spans.
    row_runs: Vec<Run>,
}

impl Boxes {
    /// The boxes of `space`.
    pub(crate) fn new(space: &[Vec<i64>]) -> Self {
        let (inner, rest) = space.split_last().expect("a FORALL has a variable");
        let runs = inner_runs(inner);
        let one_row = |(pos, &first)| Run {
            pos,
            len: 1,
            first,
            stride: 0,
        };
        let row_runs = match rest.last() {
            Some(mid) if runs.len() == 1 => inner_runs(mid),
            Some(mid) => mid.iter().enumerate().map(one_row).collect(),
            None => vec![one_row((0, &0))],
        };
        Boxes { runs, row_runs }
    }

    /// Whether `write` steps through the segment at unit stride along
    /// every run longer than one element, so that each row of a box is
    /// one `&mut` slice of it — not so on a boundary slab `{first, last}`.
    pub(crate) fn unit_stride(&self, write: &NatAff) -> bool {
        (self.runs.iter()).all(|r| r.len == 1 || write.inner() * r.stride == 1)
    }

    /// Every box of `space`, the space they were formed of, in iteration
    /// order: the one walk the run, the stage and the inspector share.
    pub(crate) fn for_each(&self, space: &[Vec<i64>], mut f: impl FnMut(&BoxAt<'_>)) {
        let (inner, rest) = space.split_last().expect("a FORALL has a variable");
        let (mid_len, outer) = match rest.split_last() {
            Some((mid, outer)) => (mid.len(), outer),
            None => (1, rest),
        };
        let mut row0 = 0;
        cartesian(outer, |outer| {
            for rows in &self.row_runs {
                for run in &self.runs {
                    f(&BoxAt {
                        outer,
                        rows,
                        run,
                        row0: row0 + rows.pos,
                        inner_len: inner.len(),
                    });
                }
            }
            row0 += mid_len;
        });
    }
}

/// A kernel bound to one rank: its bodies and inspectors, and where its
/// boxes are written.
pub(crate) struct NatRank<'f> {
    pub(crate) bodies: Vec<NatBody<'f>>,
    pub(crate) gathers: Vec<NatGather<'f>>,
    pub(crate) out: NatOut<'f>,
    /// `Some`: every box is written straight into the LHS segment,
    /// between these least and greatest flat offsets. `None`: boxes go
    /// to a dense stage whose writes are committed after the phase in
    /// element order (RHS before LHS, last writer as listed) — or, for a
    /// scatter body, handed to the scatter executor as the rank's value
    /// column.
    pub(crate) direct: Option<(usize, usize)>,
}

impl<'f> NatRank<'f> {
    /// Decide where the rank's boxes over its bound `lists` are written.
    /// The proofs hold on any part of that space too, so one decision
    /// serves every phase the rank runs.
    pub(crate) fn new(
        mut bodies: Vec<NatBody<'f>>,
        gathers: Vec<NatGather<'f>>,
        out: NatOut<'f>,
        lists: &[Vec<i64>],
        bx: &IterBox<'_>,
    ) -> Self {
        let direct = in_place(&mut bodies, &out, &Boxes::new(lists), lists, bx);
        NatRank {
            bodies,
            gathers,
            out,
            direct,
        }
    }

    /// Whether the rank's owned writes go through the stage.
    pub(crate) fn staged(&self) -> bool {
        matches!(self.out, NatOut::Owned { .. }) && self.direct.is_none()
    }
}

/// The alias rule. Boxes may be written in place only when nothing the
/// phase still has to read can be overwritten and the order of writes is
/// the element order anyway: one body, the write walking the segment at
/// unit stride along every row (so a row is one `&mut` slice of it), and
/// every read site **on the written array** covered by one of two
/// proofs —
///
/// * *own element*: the site's bound form is the write's own (same base,
///   same coefficients), so each tuple reads exactly the element it is
///   about to overwrite, and the write is one-to-one over the rank's
///   iterations ([`NatAff::one_to_one`]) so no other tuple has written
///   it first; the kernel reads a row before it writes it
///   ([`View::Own`]);
/// * *disjoint range*: the site's exact flat range over the rank's box
///   lies wholly below the write's least offset or wholly above its
///   greatest, so the segment splits (`split_at_mut`) into a part the
///   site reads and the part the boxes write ([`View::Below`],
///   [`View::Above`]).
///
/// Everything else — in-place stencils, a read of a row or column that
/// interleaves with the written ones, many-to-one or strided writes,
/// several bodies — is staged. Returns the least and greatest offset
/// written when the rank goes in place, with the sites' views set.
fn in_place(
    bodies: &mut [NatBody<'_>],
    out: &NatOut<'_>,
    boxes: &Boxes,
    lists: &[Vec<i64>],
    bx: &IterBox<'_>,
) -> Option<(usize, usize)> {
    let ([body], NatOut::Owned { arr, offs }) = (bodies, out) else {
        return None;
    };
    let write = &offs[0];
    if !boxes.unit_stride(write) {
        return None;
    }
    let (wmin, wmax) = write.range(bx.lo, bx.hi)?;
    // The two innermost lists are cut into runs already.
    let one_to_one = OnceCell::new();
    let injective = || {
        let of = |(j, list): (usize, &Vec<i64>)| match lists.len() - 1 - j {
            0 => steps(&boxes.runs),
            1 => steps(&boxes.row_runs),
            _ => steps(&inner_runs(list)),
        };
        write.one_to_one(lists.iter().enumerate().map(of))
    };
    let view = |site: &NatSite| {
        let SiteOff::Affine(read) = &site.off else {
            return None;
        };
        let (rmin, rmax) = read.range(bx.lo, bx.hi)?;
        if rmax < wmin {
            Some(View::Below)
        } else if rmin > wmax {
            Some(View::Above)
        } else if read == write && *one_to_one.get_or_init(injective) {
            Some(View::Own)
        } else {
            None
        }
    };
    let NatSites { reads, ireads, .. } = &mut body.sites;
    let aliased = |site: &NatSite| site.arr == *arr;
    if !(reads.iter().chain(&*ireads)).all(|site| !aliased(site) || view(site).is_some()) {
        return None;
    }
    for site in reads.iter_mut().chain(ireads).filter(|site| aliased(site)) {
        site.view = view(site).expect("every aliased site was just seen to have a view");
        if let (View::Above, SiteOff::Affine(read)) = (site.view, &mut site.off) {
            read.base -= wmax + 1;
        }
    }
    Some((wmin as usize, wmax as usize))
}

/// Bind a folded kernel against the per-rank resolved accessors and
/// iteration lists of this execution, `cx`. Returns `None` — whole FORALL falls
/// back to bytecode — unless the fold succeeded (`folded`; it is only
/// asked for once a rank has iterations) and, on **every** active rank:
/// every used accessor dimension is affine (BLOCK / undistributed) and
/// every read/write site stays inside the array extents and the padded
/// segment over the rank's whole iteration box (no mask means every
/// listed tuple executes, so corner analysis is exact and any violation
/// is exactly a bytecode runtime error).
///
/// What a bound rank carries is, per array site, the flat padded offset
/// as an affine form over the FORALL variables — so over a box of the
/// two innermost variables it is a `(start, row_step, step)` walk
/// through the segment; a gathered value's walk starts at its iteration
/// ordinal ([`SiteOff::Ordinal`]) — and the decision whether its boxes
/// may be written in place ([`NatRank::new`]). The arrays an
/// unstructured read or write goes *to* are not sites: they are reached
/// through schedules, under any distribution.
pub(crate) fn bind_native<'f>(
    folded: Option<&'f Folded<'_>>,
    cx: ForallCx<'_>,
) -> Option<Vec<Option<NatRank<'f>>>> {
    let mut ranks = Vec::with_capacity(cx.lists.len());
    let (mut lo, mut hi) = (Vec::new(), Vec::new());
    for (lists, table) in cx.lists.iter().zip(cx.resolved) {
        if dispatch::runs_nothing(lists) {
            ranks.push(None);
            continue;
        }
        let folded = folded?;
        // Iteration lists are sorted ascending, so firsts/lasts are
        // the per-variable box corners.
        lo.clear();
        lo.extend(lists.iter().map(|l| l[0]));
        hi.clear();
        hi.extend(lists.iter().map(|l| *l.last().unwrap()));
        let bx = IterBox {
            table,
            lo: &lo,
            hi: &hi,
        };
        // Selection makes a scatter body the only body and every
        // owned body a write of one array.
        let bodies = &folded.kernel.bodies;
        let out = match &bodies[0].lhs {
            Lhs::Scatter { subs } => NatOut::Scatter { subs },
            Lhs::Owned { acc, .. } => {
                if folded.writes.len() != bodies.len() {
                    return None;
                }
                let arr = bx.table[*acc as usize].as_ref()?.target;
                let mut offs = Vec::with_capacity(bodies.len());
                for (acc, subs) in &folded.writes {
                    offs.push(bx.site(*acc, subs)?.1);
                }
                NatOut::Owned { arr, offs }
            }
        };
        let bodies = (bodies.iter().zip(&folded.bodies))
            .map(|(b, sites)| {
                Some(NatBody {
                    func: &b.func,
                    sites: bx.sites(sites)?,
                    cost: b.cost,
                })
            })
            .collect::<Option<_>>()?;
        let gathers = (folded.kernel.gathers.iter().zip(&folded.gathers))
            .map(|(g, sites)| {
                Some(NatGather {
                    subs: &g.subs,
                    sites: bx.sites(sites)?,
                })
            })
            .collect::<Option<_>>()?;
        ranks.push(Some(NatRank::new(bodies, gathers, out, lists, &bx)));
    }
    Some(ranks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inner_list_splits_into_maximal_progressions() {
        let run = |pos, len, first, stride| Run {
            pos,
            len,
            first,
            stride,
        };
        assert_eq!(inner_runs(&[3, 5, 7, 9]), vec![run(0, 4, 3, 2)]);
        assert_eq!(inner_runs(&[4]), vec![run(0, 1, 4, 0)]);
        assert_eq!(
            inner_runs(&[0, 1, 2, 5, 6, 9, 11]),
            vec![run(0, 3, 0, 1), run(3, 2, 5, 1), run(5, 2, 9, 2)]
        );
        assert_eq!(inner_runs(&[]), vec![]);
    }

    /// The mixed-radix test on hand-built forms.
    #[test]
    fn one_to_one_is_a_mixed_radix_test() {
        let one_to_one = |k: [i64; 2], lists: [Vec<i64>; 2]| {
            let form = NatAff {
                base: 7,
                k: k.to_vec(),
            };
            form.one_to_one(lists.iter().map(|list| steps(&inner_runs(list))))
        };
        let upto = |n: i64| (0..n).collect::<Vec<i64>>();
        assert!(one_to_one([12, 1], [upto(5), upto(12)]));
        assert!(
            one_to_one([-12, 1], [upto(5), upto(12)]),
            "signs do not matter"
        );
        assert!(
            one_to_one([1, 5], [upto(5), upto(12)]),
            "nor does the order"
        );
        assert!(!one_to_one([1, 1], [upto(5), upto(12)]));
        assert!(!one_to_one([0, 1], [upto(2), upto(12)]));
        assert!(
            one_to_one([0, 1], [upto(1), upto(12)]),
            "one row: nothing varies"
        );
        assert!(!one_to_one([12, 1], [upto(5), upto(13)]));
        // The stride of a list counts: rows 0, 3, 6 are 12 apart.
        assert!(one_to_one([4, 1], [vec![0, 3, 6], upto(12)]));
        assert!(
            !one_to_one([4, 1], [vec![0, 3, 4], upto(12)]),
            "its least gap"
        );
        // A list whose span passes `i64::MAX` still varies.
        let wide = vec![-(1 << 62), 0, 1 << 62];
        assert!(!one_to_one([0, 1], [wide, upto(12)]), "a span past i64");
    }
}
