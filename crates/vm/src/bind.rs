//! The native tier's bind: a FORALL the native tier selected runs no
//! bytecode when this execution can bind it ([`bind_native`]). Its
//! affine forms are folded once per execution ([`fold_native`]), each
//! rank's sites are proved in bounds over its iteration box, and the
//! alias rule (`in_place`) decides per rank whether boxes are written
//! where they stand — proofs that hold on any part of that box. Every
//! rank's binding lands in the execution's flat tables ([`Bound`]): a
//! rank costs O(variables + sites) and allocates nothing. An iteration
//! space is cut into boxes — runs of the second-innermost variable ×
//! runs of the innermost, never reordering rows ([`Boxes`]). What a bound
//! rank then runs is `crate::boxes`.

use std::cell::OnceCell;
use std::ops::Range;

use f90d_distrib::{Progression, Runs};
use f90d_machine::Value;

use crate::bytecode::ArrId;
use crate::chunk::{ForallCx, RDim, ResolvedAcc};
use crate::dispatch::SpacePlan;
use crate::native::{BoxFn, BoxKernel, Lhs, Lin, NativeKernel, ReadSite, Sites, Walk};
use crate::ops;

/// The most FORALL variables a kernel binds over: Fortran's array rank
/// limit. An affine form keeps its coefficients inline, so a bind
/// allocates none; a FORALL of more variables runs on the bytecode tier.
pub(crate) const MAX_VARS: usize = 7;

/// One affine form bound to a rank: `base + Σ k[j]·iter_value[j]` over
/// the FORALL variables, outer to inner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct NatAff {
    pub(crate) base: i64,
    coefs: [i64; MAX_VARS],
    nvars: usize,
}

impl NatAff {
    /// `base + Σ k[j]·v[j]` (`k.len() <= MAX_VARS`).
    pub(crate) fn new(base: i64, k: &[i64]) -> Self {
        let mut coefs = [0; MAX_VARS];
        coefs[..k.len()].copy_from_slice(k);
        NatAff {
            base,
            coefs,
            nvars: k.len(),
        }
    }

    /// The coefficients, outer to inner.
    fn k(&self) -> &[i64] {
        &self.coefs[..self.nvars]
    }

    /// Coefficient of the innermost variable.
    #[inline]
    fn inner(&self) -> i64 {
        *self.k().last().expect("a FORALL has a variable")
    }

    /// The form over the box `bx`: one multiply-add per variable, once
    /// per box — wrapping, as the INTEGER value it may stand for does.
    #[inline]
    pub(crate) fn at(&self, bx: &BoxAt<'_>) -> Walk {
        let (inner, rest) = self.k().split_last().expect("a FORALL has a variable");
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
        for (j, &c) in self.k().iter().enumerate() {
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
        for (c, &o) in self.coefs.iter_mut().zip(other.k()) {
            *c = ops::affine(s, o, *c);
        }
    }

    /// Whether distinct tuples give distinct values, when variable `j`
    /// ranges over values whose least gap and whose span (last − first)
    /// are `steps[j]` — a mixed-radix test, sufficient and not necessary:
    /// taking the variables that vary by the least change each can make
    /// (`|coefficient| ×` its least gap), every one must out-step
    /// everything the smaller ones can add up to (`|coefficient| ×` their
    /// spans). Saturating: a product or sum past `i64::MAX` can only fail
    /// the test.
    fn one_to_one(&self, steps: impl Iterator<Item = (i64, i64)>) -> bool {
        let mut vars = [(0i64, 0i64); MAX_VARS];
        let mut n = 0;
        for (c, (gap, span)) in self.k().iter().zip(steps) {
            if span > 0 {
                let c = c.saturating_abs();
                vars[n] = (c.saturating_mul(gap), c.saturating_mul(span));
                n += 1;
            }
        }
        let vars = &mut vars[..n];
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
    pub(crate) kernel: &'k NativeKernel,
    /// Per body, in order.
    pub(crate) bodies: Vec<FoldedSites>,
    /// Per gather, in order.
    pub(crate) gathers: Vec<FoldedSites>,
    /// The accessor and subscripts of every owned write, in body order.
    pub(crate) writes: Vec<(u16, Range<usize>)>,
    /// Every site's and write's subscript forms, one after another.
    pub(crate) subs: Vec<NatAff>,
}

impl Folded<'_> {
    /// The site groups — each body's, then each gather's — in the order
    /// a rank's bound sites are laid out, a group's REAL sites before
    /// its INTEGER ones.
    fn groups(&self) -> impl Iterator<Item = &FoldedSites> {
        self.bodies.iter().chain(&self.gathers)
    }

    /// Where group `g`'s sites start among a rank's.
    fn group_at(&self, g: usize) -> usize {
        self.groups().take(g).map(FoldedSites::len).sum()
    }
}

/// A [`Sites`] with its forms folded.
#[derive(Clone, PartialEq)]
pub(crate) struct FoldedSites {
    pub(crate) reads: Vec<FoldedSite>,
    pub(crate) ireads: Vec<FoldedSite>,
    /// Values for `BoxArgs::lins`.
    pub(crate) lins: Vec<NatAff>,
    /// Snapshot for `BoxArgs::scalars`.
    pub(crate) scalars: Vec<f64>,
}

impl FoldedSites {
    /// How many read sites, of both lanes.
    fn len(&self) -> usize {
        self.reads.len() + self.ireads.len()
    }
}

/// A [`ReadSite`] with its subscripts folded (into [`Folded::subs`]).
#[derive(Clone, PartialEq)]
pub(crate) enum FoldedSite {
    Array { acc: u16, subs: Range<usize> },
    Gathered { tmp: ArrId },
}

/// The rank-independent half of a bind: every affine form of
/// `kernel` — site subscripts, the writes', the `lins` — folded over
/// the current outer loop variables and INTEGER scalars of `cx`, and the
/// REAL scalars the closures read, once per execution. `None` when an
/// INTEGER scalar a form folds does not hold `Value::Int` or a REAL
/// one does not hold `Value::Real`.
pub(crate) fn fold_native<'k>(kernel: &'k NativeKernel, cx: ForallCx<'_>) -> Option<Folded<'k>> {
    if kernel.var_slots.len() > MAX_VARS {
        return None;
    }
    // The subscript forms of every site and write, into one table.
    let sub_lists = (kernel.bodies.iter().map(|b| &b.sites))
        .chain(kernel.gathers.iter().map(|g| &g.sites))
        .flat_map(|sites| sites.reads.iter().chain(&sites.ireads))
        .filter_map(|site| match site {
            ReadSite::Array { subs, .. } => Some(subs),
            ReadSite::Gathered { .. } => None,
        })
        .chain(kernel.bodies.iter().filter_map(|b| match &b.lhs {
            Lhs::Owned { subs, .. } => Some(subs),
            Lhs::Scatter { .. } => None,
        }));
    let mut subs = Vec::with_capacity(sub_lists.clone().map(Vec::len).sum());
    let mut fold = |lins: &[Lin]| {
        let at = subs.len();
        for lin in lins {
            subs.push(bind_lin(lin, kernel, cx)?);
        }
        Some(at..subs.len())
    };
    let mut sites = |sites: &Sites| {
        let mut site = |s: &ReadSite| {
            Some(match s {
                ReadSite::Array { acc, subs } => FoldedSite::Array {
                    acc: *acc,
                    subs: fold(subs)?,
                },
                ReadSite::Gathered { gather } => FoldedSite::Gathered {
                    tmp: cx.f.gathers[*gather as usize].tmp,
                },
            })
        };
        Some(FoldedSites {
            reads: sites.reads.iter().map(&mut site).collect::<Option<_>>()?,
            ireads: sites.ireads.iter().map(&mut site).collect::<Option<_>>()?,
            lins: (sites.lins.iter())
                .map(|lin| bind_lin(lin, kernel, cx))
                .collect::<Option<_>>()?,
            scalars: (sites.scalar_slots.iter())
                .map(|&slot| match cx.scalars[slot as usize] {
                    Value::Real(v) => Some(v),
                    _ => None,
                })
                .collect::<Option<_>>()?,
        })
    };
    let bodies = (kernel.bodies.iter())
        .map(|b| sites(&b.sites))
        .collect::<Option<_>>()?;
    let gathers = (kernel.gathers.iter())
        .map(|g| sites(&g.sites))
        .collect::<Option<_>>()?;
    let mut writes = Vec::new();
    for b in &kernel.bodies {
        if let Lhs::Owned { acc, subs } = &b.lhs {
            writes.push((*acc, fold(subs)?));
        }
    }
    Some(Folded {
        kernel,
        bodies,
        gathers,
        writes,
        subs,
    })
}

/// Fold a selection-time [`Lin`] into an affine form over the FORALL
/// variables: outer loop variables take their current values,
/// INTEGER scalar terms fold their current `Value::Int` (anything
/// else fails the bind).
fn bind_lin(lin: &Lin, kernel: &NativeKernel, cx: ForallCx<'_>) -> Option<NatAff> {
    let mut aff = NatAff::new(lin.base, &[0; MAX_VARS][..kernel.var_slots.len()]);
    for &(slot, c) in &lin.vterms {
        match kernel.var_slots.iter().position(|&s| s == slot) {
            Some(j) => aff.coefs[j] = aff.coefs[j].wrapping_add(c),
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
        let mut off = NatAff::new(0, &[0; MAX_VARS][..self.lo.len()]);
        for (k, g) in subs.iter().enumerate() {
            let RDim::Affine { a, b } = racc.dims[k] else {
                return None; // CYCLIC / BLOCK-CYCLIC: per-element ownership math
            };
            // The padded index `a·g + b` is monotone in `g`, so the box is
            // in bounds when its corners are in the window.
            let (lo, hi) = racc.windows[k];
            let (gmin, gmax) = g.range(self.lo, self.hi)?;
            if gmin < lo || gmax >= hi {
                return None;
            }
            off.add_scaled(g, a * racc.strides[k]);
            off.base = ops::affine(b, racc.strides[k], off.base);
        }
        Some((racc.target, off))
    }

    /// Bind one read site, its subscripts folded into `subs`, to the
    /// rank.
    fn bind_site(&self, s: &FoldedSite, subs: &[NatAff]) -> Option<NatSite> {
        let (arr, off) = match s {
            FoldedSite::Array { acc, subs: at } => {
                let (arr, off) = self.site(*acc, &subs[at.clone()])?;
                (arr, SiteOff::Affine(off))
            }
            FoldedSite::Gathered { tmp } => (*tmp, SiteOff::Ordinal),
        };
        Some(NatSite {
            arr,
            off,
            view: View::Array,
        })
    }
}

/// Where one read site's walk starts on a bound rank.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum SiteOff {
    /// The flat padded offset as an affine form over the FORALL
    /// variables.
    Affine(NatAff),
    /// A gathered value: the walk starts at the iteration ordinal of the
    /// box's first element and goes through the sequential buffer at
    /// unit stride, one inner row per row.
    Ordinal,
}

/// What a read site views while its rank's boxes run.
#[derive(Clone, Copy, PartialEq)]
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
#[derive(Clone, Copy, PartialEq)]
pub(crate) struct NatSite {
    pub(crate) arr: ArrId,
    pub(crate) off: SiteOff,
    pub(crate) view: View,
}

impl NatSite {
    /// A placeholder, overwritten before it is read.
    const BLANK: NatSite = NatSite {
        arr: 0,
        off: SiteOff::Ordinal,
        view: View::Array,
    };
}

/// One group of leaf tables ([`Sites`]) bound to one rank.
#[derive(Clone, Copy)]
pub(crate) struct NatSites<'b> {
    /// The rank-independent half: `lins` and `scalars`.
    pub(crate) folded: &'b FoldedSites,
    pub(crate) reads: &'b [NatSite],
    pub(crate) ireads: &'b [NatSite],
}

impl<'b> NatSites<'b> {
    /// The array of every site of this group a box views in the node
    /// memory ([`View::Array`]), repeats included.
    pub(crate) fn arrays(self) -> impl Iterator<Item = ArrId> + 'b {
        (self.reads.iter().chain(self.ireads))
            .filter(|s| matches!(s.view, View::Array))
            .map(|s| s.arr)
    }
}

/// Where a bound rank's boxes go.
pub(crate) enum NatOut<'b> {
    /// Owned writes of `arr`: body `i`'s flat padded offset is
    /// `offs[i]`.
    Owned { arr: ArrId, offs: &'b [NatAff] },
    /// The rank's scatter columns: the one body's box is a run of the
    /// value column, `subs` fill the same run of the index column.
    Scatter { subs: &'b [BoxFn<i64>] },
}

/// One kernel body bound to one rank: everything a box needs with no
/// descriptor math, bounds checks, or `Value` boxing left.
pub(crate) struct NatBody<'b> {
    pub(crate) func: &'b BoxKernel,
    pub(crate) sites: NatSites<'b>,
    /// Modelled cost per iteration (identical to the bytecode body's).
    pub(crate) cost: i64,
}

/// One unstructured read's inspector bound to one rank.
pub(crate) struct NatGather<'b> {
    /// Global subscript kernels, one per source dimension.
    pub(crate) subs: &'b [BoxFn<i64>],
    pub(crate) sites: NatSites<'b>,
}

/// The least gap between neighbouring values of `runs`, and their span:
/// what [`NatAff::one_to_one`] asks of a variable. A gap or span past
/// `i64::MAX` saturates.
fn steps(runs: &[Progression]) -> (i64, i64) {
    let within = runs.iter().filter(|run| run.len > 1).map(|run| run.stride);
    let between = (runs.windows(2)).map(|w| w[1].first.saturating_sub(w[0].last()));
    let first = runs.first().map_or(0, |run| run.first);
    let span = runs
        .last()
        .map_or(0, Progression::last)
        .saturating_sub(first);
    (within.chain(between).min().unwrap_or(0), span)
}

/// One box of a rank's iteration space: under the values `outer` of the
/// variables outside the last two, the rows `rows` of the
/// second-innermost variable × the run `run` of the innermost. One box
/// is one kernel call per body.
pub(crate) struct BoxAt<'a> {
    outer: &'a [i64],
    pub(crate) rows: Progression,
    pub(crate) run: Progression,
    /// Where `run` starts among the innermost variable's values.
    pub(crate) pos: usize,
    /// Which of the rank's rows — `outer` tuples × the second-innermost
    /// variable's values, in iteration order — the box's first is.
    pub(crate) row0: usize,
    /// How many values the innermost variable has: iterations per row.
    pub(crate) inner_len: usize,
}

impl BoxAt<'_> {
    /// Which of the rank's iterations the box's first element is.
    pub(crate) fn ordinal(&self) -> usize {
        self.row0 * self.inner_len + self.pos
    }
}

/// The boxes of one iteration space — the rank's whole space, or a part
/// split-phase execution runs on its own — read off its progressions.
/// **A box never reorders rows.** It spans several values of the
/// second-innermost variable only when the innermost is a single run,
/// so that box order is iteration order; under an innermost variable of
/// several runs every `(row, run)` is a box of one row, in the order the
/// element loop visits them (run-major order would change the last
/// writer of `A(I+J) = …`). A 1-D FORALL is one row.
pub(crate) struct Boxes<'s> {
    space: &'s [Runs],
}

impl<'s> Boxes<'s> {
    /// The boxes of `space`, one [`Runs`] per variable (at most
    /// [`MAX_VARS`]).
    pub(crate) fn new(space: &'s [Runs]) -> Self {
        Boxes { space }
    }

    fn inner(&self) -> &'s Runs {
        self.space.last().expect("a FORALL has a variable")
    }

    /// How many tuples.
    pub(crate) fn tuples(&self) -> usize {
        self.space.iter().map(Runs::len).product()
    }

    /// Whether `write` steps through the segment at unit stride along
    /// every run longer than one element, so that each row of a box is
    /// one `&mut` slice of it — not so on a boundary slab `{first, last}`.
    pub(crate) fn unit_stride(&self, write: &NatAff) -> bool {
        (self.inner().runs().iter()).all(|r| r.len == 1 || write.inner() * r.stride == 1)
    }

    /// Every box, in iteration order: the one walk the run, the stage
    /// and the inspector share.
    pub(crate) fn for_each(&self, mut f: impl FnMut(&BoxAt<'_>)) {
        let (inner, rest) = self.space.split_last().expect("a FORALL has a variable");
        // A 1-D FORALL's one row: the value does not matter.
        let one_row = [Progression::new(0, 0, 1)];
        let (rows, outer) = match rest.split_last() {
            Some((mid, outer)) => (mid.runs(), outer),
            None => (&one_row[..], rest),
        };
        let (inner_len, mid_len) = (inner.len(), rows.iter().map(|p| p.len).sum::<usize>());
        let mut row0 = 0;
        each_tuple(outer, &mut [0; MAX_VARS], 0, &mut |outer| {
            if let &[run] = inner.runs() {
                let mut at = row0;
                for &rows in rows {
                    f(&BoxAt {
                        outer,
                        rows,
                        run,
                        pos: 0,
                        row0: at,
                        inner_len,
                    });
                    at += rows.len;
                }
            } else {
                let values = rows.iter().flat_map(|p| p.iter());
                for (r, value) in values.enumerate() {
                    let mut pos = 0;
                    for &run in inner.runs() {
                        f(&BoxAt {
                            outer,
                            rows: Progression::new(value, 0, 1),
                            run,
                            pos,
                            row0: row0 + r,
                            inner_len,
                        });
                        pos += run.len;
                    }
                }
            }
            row0 += mid_len;
        });
    }
}

/// Every tuple of the values of `vars[depth..]` under `vals[..depth]`,
/// in iteration order (the last variable fastest).
fn each_tuple(vars: &[Runs], vals: &mut [i64], depth: usize, f: &mut impl FnMut(&[i64])) {
    if depth == vars.len() {
        return f(&vals[..depth]);
    }
    for v in vars[depth].values() {
        vals[depth] = v;
        each_tuple(vars, vals, depth + 1, f);
    }
}

/// A kernel bound to every rank of one execution that runs: each rank's
/// read sites and write forms in the execution's flat tables, laid out
/// alike for every rank, so binding a rank allocates nothing.
pub(crate) struct Bound<'f> {
    /// `None` only when no rank runs: nothing was bound.
    folded: Option<&'f Folded<'f>>,
    /// How many read sites a rank has.
    nsites: usize,
    /// Per rank, its binding's index into `heads` ([`Bound::IDLE`]: it
    /// runs nothing).
    slot: Vec<u32>,
    heads: Vec<Head>,
    /// Every bound rank's read sites, in [`Folded::groups`] order.
    sites: Vec<NatSite>,
    /// Every bound rank's owned-write forms, one per body.
    writes: Vec<NatAff>,
}

/// What a binding decides besides its sites and writes.
#[derive(Clone, Copy, PartialEq)]
struct Head {
    /// The array the owned writes go to.
    arr: ArrId,
    /// `Some`: every box is written straight into the LHS segment,
    /// between these least and greatest flat offsets. `None`: boxes go
    /// to a dense stage whose writes are committed after the phase in
    /// element order (RHS before LHS, last writer as listed) — or, for a
    /// scatter body, handed to the scatter executor as the rank's value
    /// column.
    direct: Option<(usize, usize)>,
}

impl<'f> Bound<'f> {
    const IDLE: u32 = u32::MAX;

    /// No rank bound yet, of `nranks`, room for `active` of them.
    pub(crate) fn new(folded: Option<&'f Folded<'f>>, nranks: usize, active: usize) -> Self {
        let nsites = folded.map_or(0, |f| f.groups().map(FoldedSites::len).sum());
        let nwrites = folded.map_or(0, |f| f.writes.len());
        Bound {
            folded,
            nsites,
            slot: vec![Self::IDLE; nranks],
            heads: Vec::with_capacity(active),
            sites: Vec::with_capacity(active * nsites),
            writes: Vec::with_capacity(active * nwrites),
        }
    }

    /// Bind rank `rank` over its iteration `space` with its resolved
    /// accessors `table`: `None` when a site or write is out of bounds
    /// somewhere in the rank's box, or reaches a dimension that is not
    /// affine. Decides where the rank's boxes are written; the proofs
    /// hold on any part of that space too, so one decision serves every
    /// phase the rank runs.
    pub(crate) fn push(
        &mut self,
        rank: usize,
        table: &[Option<ResolvedAcc>],
        space: &[Runs],
    ) -> Option<()> {
        let folded = self.folded?;
        // The runs are ascending, so firsts/lasts are the per-variable
        // box corners.
        let (mut lo, mut hi) = ([0; MAX_VARS], [0; MAX_VARS]);
        for (j, runs) in space.iter().enumerate() {
            (lo[j], hi[j]) = (runs.first()?, runs.last()?);
        }
        let n = space.len();
        let bx = IterBox {
            table,
            lo: &lo[..n],
            hi: &hi[..n],
        };
        let (sites_at, writes_at) = (self.sites.len(), self.writes.len());
        // Selection makes a scatter body the only body and every owned
        // body a write of one array.
        let bodies = &folded.kernel.bodies;
        let arr = match &bodies[0].lhs {
            Lhs::Scatter { .. } => 0,
            Lhs::Owned { acc, .. } => {
                if folded.writes.len() != bodies.len() {
                    return None;
                }
                for (acc, at) in &folded.writes {
                    self.writes.push(bx.site(*acc, &folded.subs[at.clone()])?.1);
                }
                bx.table[*acc as usize].as_ref()?.target
            }
        };
        for group in folded.groups() {
            for site in group.reads.iter().chain(&group.ireads) {
                self.sites.push(bx.bind_site(site, &folded.subs)?);
            }
        }
        let direct = match (&bodies[..], &bodies[0].lhs) {
            ([_], Lhs::Owned { .. }) => {
                let sites = &mut self.sites[sites_at..sites_at + folded.bodies[0].len()];
                in_place(sites, &self.writes[writes_at], arr, space, &bx)
            }
            _ => None,
        };
        self.slot[rank] = self.heads.len() as u32;
        self.heads.push(Head { arr, direct });
        Some(())
    }

    /// Rank `rank`'s binding, if it runs.
    pub(crate) fn rank(&self, rank: usize) -> Option<NatRank<'_>> {
        let (slot, folded) = (self.slot[rank], self.folded?);
        if slot == Self::IDLE {
            return None;
        }
        let (slot, nsites, nwrites) = (slot as usize, self.nsites, folded.writes.len());
        let head = &self.heads[slot];
        Some(NatRank {
            folded,
            sites: &self.sites[slot * nsites..(slot + 1) * nsites],
            writes: &self.writes[slot * nwrites..(slot + 1) * nwrites],
            arr: head.arr,
            direct: head.direct,
        })
    }

    /// Whether some rank's owned writes go through the stage.
    pub(crate) fn staged(&self) -> bool {
        (0..self.slot.len()).any(|rank| self.rank(rank).is_some_and(|nr| nr.staged()))
    }
}

/// A kernel bound to one rank: its bodies and inspectors, and where its
/// boxes are written — a view of its [`Bound`]'s tables.
#[derive(Clone, Copy)]
pub(crate) struct NatRank<'b> {
    folded: &'b Folded<'b>,
    sites: &'b [NatSite],
    writes: &'b [NatAff],
    arr: ArrId,
    /// `Some`: every box is written in place, between these least and
    /// greatest flat offsets (see [`Head::direct`]).
    pub(crate) direct: Option<(usize, usize)>,
}

impl<'b> NatRank<'b> {
    /// Site group `g` ([`Folded::groups`] order), bound.
    fn group(&self, g: usize, folded: &'b FoldedSites) -> NatSites<'b> {
        let at = self.folded.group_at(g);
        let (reads, rest) = self.sites[at..].split_at(folded.reads.len());
        NatSites {
            folded,
            reads,
            ireads: &rest[..folded.ireads.len()],
        }
    }

    /// The bodies, in order.
    pub(crate) fn bodies(&self) -> impl Iterator<Item = NatBody<'b>> + '_ {
        let kernel = self.folded.kernel;
        (kernel.bodies.iter().zip(&self.folded.bodies).enumerate()).map(|(g, (b, sites))| NatBody {
            func: &b.func,
            sites: self.group(g, sites),
            cost: b.cost,
        })
    }

    /// Body 0's kernel: the written array's lane.
    pub(crate) fn func(&self) -> &'b BoxKernel {
        &self.folded.kernel.bodies[0].func
    }

    /// Unstructured read `gi`'s inspector.
    pub(crate) fn gather(&self, gi: usize) -> NatGather<'b> {
        let g = self.folded.bodies.len() + gi;
        NatGather {
            subs: &self.folded.kernel.gathers[gi].subs,
            sites: self.group(g, &self.folded.gathers[gi]),
        }
    }

    /// Where the boxes go.
    pub(crate) fn out(&self) -> NatOut<'b> {
        match &self.folded.kernel.bodies[0].lhs {
            Lhs::Scatter { subs } => NatOut::Scatter { subs },
            Lhs::Owned { .. } => NatOut::Owned {
                arr: self.arr,
                offs: self.writes,
            },
        }
    }

    /// Whether the rank's owned writes go through the stage.
    pub(crate) fn staged(&self) -> bool {
        matches!(self.out(), NatOut::Owned { .. }) && self.direct.is_none()
    }
}

/// The alias rule. Boxes may be written in place only when nothing the
/// phase still has to read can be overwritten and the order of writes is
/// the element order anyway: one body (the caller's to check), the write
/// walking the segment at unit stride along every row (so a row is one
/// `&mut` slice of it), and every read site **on the written array**
/// `arr` covered by one of two proofs —
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
/// written when the rank goes in place, with the body's `sites`' views
/// set.
fn in_place(
    sites: &mut [NatSite],
    write: &NatAff,
    arr: ArrId,
    space: &[Runs],
    bx: &IterBox<'_>,
) -> Option<(usize, usize)> {
    if !Boxes::new(space).unit_stride(write) {
        return None;
    }
    let (wmin, wmax) = write.range(bx.lo, bx.hi)?;
    let one_to_one = OnceCell::new();
    let injective = || write.one_to_one(space.iter().map(|runs| steps(runs.runs())));
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
    let aliased = |site: &NatSite| site.arr == arr;
    if !(sites.iter()).all(|site| !aliased(site) || view(site).is_some()) {
        return None;
    }
    for site in sites.iter_mut().filter(|site| aliased(site)) {
        site.view = view(site).expect("every aliased site was just seen to have a view");
        if let (View::Above, SiteOff::Affine(read)) = (site.view, &mut site.off) {
            read.base -= wmax + 1;
        }
    }
    Some((wmin as usize, wmax as usize))
}

/// Bind a folded kernel against the per-rank resolved accessors and
/// iteration spaces of this execution, `cx`. Returns `None` — whole
/// FORALL falls back to bytecode — unless the fold succeeded (`folded`;
/// it is only asked for once a rank has iterations) and, on **every**
/// active rank: every used accessor dimension is affine (BLOCK /
/// undistributed) and every read/write site stays inside the array
/// extents and the padded segment over the rank's whole iteration box
/// (no mask means every tuple of the space executes, so corner analysis
/// is exact and any violation is exactly a bytecode runtime error).
///
/// What a bound rank carries is, per array site, the flat padded offset
/// as an affine form over the FORALL variables — so over a box of the
/// two innermost variables it is a `(start, row_step, step)` walk
/// through the segment; a gathered value's walk starts at its iteration
/// ordinal ([`SiteOff::Ordinal`]) — and the decision whether its boxes
/// may be written in place ([`Bound::push`]). The arrays an
/// unstructured read or write goes *to* are not sites: they are reached
/// through schedules, under any distribution.
pub(crate) fn bind_native<'f>(
    folded: Option<&'f Folded<'f>>,
    cx: ForallCx<'_>,
) -> Option<Bound<'f>> {
    let nranks = cx.resolved.len();
    let mut bound = Bound::new(folded, nranks, cx.spaces.active());
    for (rank, table) in cx.resolved.iter().enumerate() {
        let space = cx.spaces.space(rank);
        if !space.is_empty() {
            bound.push(rank, table, space)?;
        }
    }
    Some(bound)
}

/// What a [`Folded`] owns besides its kernel.
#[derive(Clone, Default)]
pub(crate) struct FoldedTables {
    bodies: Vec<FoldedSites>,
    gathers: Vec<FoldedSites>,
    writes: Vec<(u16, Range<usize>)>,
    subs: Vec<NatAff>,
}

impl<'k> Folded<'k> {
    /// Its tables, apart from the kernel.
    pub(crate) fn into_tables(self) -> FoldedTables {
        let Folded {
            bodies,
            gathers,
            writes,
            subs,
            ..
        } = self;
        FoldedTables {
            bodies,
            gathers,
            writes,
            subs,
        }
    }

    /// `tables` over `kernel` again.
    fn with_tables(kernel: &'k NativeKernel, t: FoldedTables) -> Self {
        Folded {
            kernel,
            bodies: t.bodies,
            gathers: t.gathers,
            writes: t.writes,
            subs: t.subs,
        }
    }
}

impl FoldedTables {
    /// Every `lins` form, in group order.
    fn lins_mut(&mut self) -> impl Iterator<Item = &mut NatAff> {
        (self.bodies.iter_mut().chain(&mut self.gathers)).flat_map(|g| &mut g.lins)
    }

    /// The forms moved to `K = k` from `(base at k0, change per unit of
    /// K)` — the subscripts by `subs`, the `lins` by `lins`.
    fn move_to(&mut self, k: i64, k0: i64, (subs, lins): (&[(i64, i64)], &[(i64, i64)])) {
        let dk = k.wrapping_sub(k0);
        let at = |&(base, change): &(i64, i64)| base.wrapping_add(change.wrapping_mul(dk));
        for (aff, sub) in self.subs.iter_mut().zip(subs) {
            aff.base = at(sub);
        }
        for (aff, lin) in self.lins_mut().zip(lins) {
            aff.base = at(lin);
        }
    }
}

/// What a [`Bound`] owns besides its fold.
#[derive(Default)]
pub(crate) struct BoundTables {
    nsites: usize,
    slot: Vec<u32>,
    heads: Vec<Head>,
    sites: Vec<NatSite>,
    writes: Vec<NatAff>,
}

impl<'f> Bound<'f> {
    /// Its tables, apart from the fold.
    pub(crate) fn into_tables(self) -> BoundTables {
        BoundTables {
            nsites: self.nsites,
            slot: self.slot,
            heads: self.heads,
            sites: self.sites,
            writes: self.writes,
        }
    }

    /// `tables` over `folded` again.
    fn with_tables(folded: &'f Folded<'f>, t: BoundTables) -> Self {
        Bound {
            folded: Some(folded),
            nsites: t.nsites,
            slot: t.slot,
            heads: t.heads,
            sites: t.sites,
            writes: t.writes,
        }
    }

    /// Whether `other` binds every rank exactly alike: the same folded
    /// sites, `lins` and scalars, and per rank the same sites, views,
    /// forms and decisions.
    pub(crate) fn same(&self, other: &Bound<'_>) -> bool {
        let folds = match (self.folded, other.folded) {
            (Some(a), Some(b)) => {
                (&a.bodies, &a.gathers, &a.writes) == (&b.bodies, &b.gathers, &b.writes)
            }
            (a, b) => a.is_none() && b.is_none(),
        };
        let (a, b) = (self, other);
        folds
            && (&a.slot, &a.heads, &a.sites, &a.writes) == (&b.slot, &b.heads, &b.sites, &b.writes)
    }
}

/// A FORALL kernel's binding over the rest of a run of an enclosing `DO`
/// ([`SpacePlan`]; ROADMAP 6(b)): each rank's binding is proved once per
/// *piece* of the loop's range — the steps over which its box corners
/// are affine in the step ([`SpacePlan::until`]) — and instantiated at
/// every other step of the piece in O(sites): no bounds check, no alias
/// proof, no allocation.
///
/// Every form a bind folds is affine in the DO variable `K` (a kernel
/// whose forms read an INTEGER scalar, which the loop body may assign,
/// gets no plan), and composing a form through an affine accessor is
/// linear, so every bound offset moves by a fixed amount per unit of `K`
/// — the change of its folded subscripts through `a·stride`. On a piece,
/// every quantity a proof compares — a subscript's least or greatest
/// value over the box against its window, a read's range against the
/// write's, a read's form against the write's — is then affine in the
/// step, and one-to-one-ness only gets easier as the box shrinks. A
/// comparison of affine forms that holds at both ends of a piece holds
/// between them: a rank's piece is proved by its bind at the first step
/// and a bind at the last, and kept only when the last is exactly what
/// instantiating the first gives and no form's base crosses an end of
/// `i64` on the way, which would break affinity. A rank whose piece is
/// over is proved again, from scratch, at its next step.
pub(crate) struct BindPlan {
    /// `K` at the first step, and its change per step.
    k0: i64,
    dk: i64,
    /// The last step of the loop's run.
    last: i64,
    /// Per folded subscript and `lins` form: its base at `k0` and its
    /// change per unit of `K`.
    subs: Vec<(i64, i64)>,
    lins: Vec<(i64, i64)>,
    /// The fold each step borrows.
    folded: Option<FoldedTables>,
    /// What the end of a piece is proved in.
    end: EndProof,
    nsites: usize,
    nwrites: usize,
    /// Per rank active at the first step ([`SpacePlan`] order): the steps
    /// `from..=until` of its piece, and its binding at `from`, each
    /// site's form before [`View::Above`] rebased it.
    pieces: Vec<(i64, i64)>,
    heads: Vec<Head>,
    sites: Vec<NatSite>,
    writes: Vec<NatAff>,
    /// Per rank's site and write form: its change per unit of `K`.
    site_change: Vec<i64>,
    write_change: Vec<i64>,
    /// The binding each step borrows.
    bound: Option<BoundTables>,
}

/// The buffers the end of a rank's piece is proved in ([`BindPlan::reach`]),
/// kept by the plan so that a proof allocates nothing: the fold at the
/// piece's last step, a binding of one rank, that rank's space, and the
/// binding instantiating the piece's first step gives there.
#[derive(Default)]
struct EndProof {
    fold: FoldedTables,
    bound: BoundTables,
    runs: Vec<Runs>,
    sites: Vec<NatSite>,
    writes: Vec<NatAff>,
}

/// A site's form before [`View::Above`] counted it from just past the
/// greatest offset written (`head`'s).
fn raw(site: &NatSite, head: &Head) -> NatSite {
    let mut site = *site;
    if let (SiteOff::Affine(aff), View::Above, Some((_, wmax))) =
        (&mut site.off, site.view, head.direct)
    {
        aff.base += wmax as i64 + 1;
    }
    site
}

/// The change of a site's flat offset through `racc` when its folded
/// subscripts change by `dsubs`: the linear part of [`IterBox::site`].
fn offset_change(racc: &ResolvedAcc, dsubs: &[(i64, i64)]) -> Option<i64> {
    let mut change = 0;
    for (k, &(_, d)) in dsubs.iter().enumerate() {
        let RDim::Affine { a, .. } = racc.dims[k] else {
            return None;
        };
        change = ops::affine(d, a.wrapping_mul(racc.strides[k]), change);
    }
    Some(change)
}

/// Whether any affine form of `kernel` reads an INTEGER scalar.
fn reads_scalars(kernel: &NativeKernel) -> bool {
    let sites =
        (kernel.bodies.iter().map(|b| &b.sites)).chain(kernel.gathers.iter().map(|g| &g.sites));
    let site_lins = sites.flat_map(|s| {
        let subs = (s.reads.iter().chain(&s.ireads)).flat_map(|site| match site {
            ReadSite::Array { subs, .. } => &subs[..],
            ReadSite::Gathered { .. } => &[],
        });
        subs.chain(&s.lins)
    });
    let writes = kernel.bodies.iter().flat_map(|b| match &b.lhs {
        Lhs::Owned { subs, .. } => &subs[..],
        Lhs::Scatter { .. } => &[],
    });
    site_lins.chain(writes).any(|lin| !lin.sterms.is_empty())
}

impl BindPlan {
    /// The plan from the first step's fold and binding, `first`, at `K =
    /// k0` (the fold at `K = k0 + 1` is `one`, whose tables the ends of
    /// pieces are then proved in), over `space`, for a run
    /// of the loop whose `K` changes by `dk` per step and that ends `last`
    /// steps on. `tables[rank]` is a rank's accessor table. `None` when
    /// the kernel's forms read an INTEGER scalar or a folded subscript's
    /// base would cross an end of `i64` within the run.
    pub(crate) fn new(
        kernel: &NativeKernel,
        (folded, bound): (FoldedTables, BoundTables),
        one: Folded<'_>,
        (k0, dk, last): (i64, i64, i64),
        space: &SpacePlan,
        tables: &[Vec<Option<ResolvedAcc>>],
    ) -> Option<BindPlan> {
        let span = i128::from(dk) * i128::from(last);
        if reads_scalars(kernel) || folded.subs.len() != one.subs.len() {
            return None;
        }
        let change = |a: &NatAff, b: &NatAff| (a.base, b.base.wrapping_sub(a.base));
        let subs: Vec<(i64, i64)> = folded
            .subs
            .iter()
            .zip(&one.subs)
            .map(|(a, b)| change(a, b))
            .collect();
        let first_lins = (folded.bodies.iter().chain(&folded.gathers)).flat_map(|g| &g.lins);
        let one_lins = (one.bodies.iter().chain(&one.gathers)).flat_map(|g| &g.lins);
        let lins = first_lins
            .zip(one_lins)
            .map(|(a, b)| change(a, b))
            .collect();
        // A subscript stays one affine form over the whole run.
        let fits = |&(base, change): &(i64, i64)| {
            let end = i128::from(base) + i128::from(change) * span;
            i64::try_from(end).is_ok()
        };
        if !subs.iter().all(fits) {
            return None;
        }
        let (nsites, nwrites) = (bound.nsites, folded.writes.len());
        // Per rank, the change of each bound form through its accessors.
        let groups: Vec<&FoldedSite> = (folded.bodies.iter().chain(&folded.gathers))
            .flat_map(|g| g.reads.iter().chain(&g.ireads))
            .collect();
        let (mut site_change, mut write_change) = (
            Vec::with_capacity(bound.heads.len() * nsites),
            Vec::with_capacity(bound.heads.len() * nwrites),
        );
        for h in 0..bound.heads.len() {
            let table = &tables[space.rank(h)];
            let change = |acc: u16, at: &Range<usize>| {
                offset_change(table[acc as usize].as_ref()?, &subs[at.clone()])
            };
            for site in &groups {
                site_change.push(match site {
                    FoldedSite::Array { acc, subs } => change(*acc, subs)?,
                    FoldedSite::Gathered { .. } => 0,
                });
            }
            for (acc, at) in &folded.writes {
                write_change.push(change(*acc, at)?);
            }
        }
        let heads = bound.heads.clone();
        let sites = (bound.sites.chunks(nsites.max(1)).zip(&heads))
            .flat_map(|(sites, head)| sites.iter().map(move |site| raw(site, head)))
            .collect();
        let end = EndProof {
            fold: one.into_tables(),
            bound: BoundTables {
                nsites,
                slot: vec![Bound::IDLE; tables.len()],
                heads: Vec::with_capacity(1),
                sites: Vec::with_capacity(nsites),
                writes: Vec::with_capacity(nwrites),
            },
            runs: Vec::with_capacity(space.nvars()),
            sites: vec![NatSite::BLANK; nsites],
            writes: vec![NatAff::new(0, &[]); nwrites],
        };
        let mut plan = BindPlan {
            k0,
            dk,
            last,
            subs,
            lins,
            folded: Some(folded),
            end,
            nsites,
            nwrites,
            pieces: vec![(0, 0); heads.len()],
            heads,
            sites,
            writes: bound.writes.clone(),
            site_change,
            write_change,
            bound: Some(bound),
        };
        for h in 0..plan.heads.len() {
            plan.reach(kernel, h, 0, space, tables);
        }
        Some(plan)
    }

    /// `K` at step `t`.
    fn k(&self, t: i64) -> i64 {
        self.k0.wrapping_add(self.dk.wrapping_mul(t))
    }

    /// Rank `h`'s binding at step `t` of its piece, where its box corners
    /// are `lo` and `hi`: its sites, its writes (into `sites`, `writes`)
    /// and its head.
    fn instantiate(
        &self,
        h: usize,
        t: i64,
        (lo, hi): (&[i64], &[i64]),
        sites: &mut [NatSite],
        writes: &mut [NatAff],
    ) -> Head {
        let dk = self.k(t).wrapping_sub(self.k(self.pieces[h].0));
        let moved = |base: i64, change: i64| base.wrapping_add(change.wrapping_mul(dk));
        let (s, w) = (h * self.nsites, h * self.nwrites);
        for (k, write) in writes.iter_mut().enumerate() {
            *write = self.writes[w + k];
            write.base = moved(write.base, self.write_change[w + k]);
        }
        let mut head = self.heads[h];
        if head.direct.is_some() {
            let range = writes[0].range(lo, hi);
            let (wmin, wmax) = range.expect("a rank's piece bounds every box");
            head.direct = Some((wmin as usize, wmax as usize));
        }
        for (k, site) in sites.iter_mut().enumerate() {
            *site = self.sites[s + k];
            if let SiteOff::Affine(aff) = &mut site.off {
                aff.base = moved(aff.base, self.site_change[s + k]);
                if let (View::Above, Some((_, wmax))) = (site.view, head.direct) {
                    aff.base -= wmax as i64 + 1;
                }
            }
        }
        head
    }

    /// Rank `h`, just proved at step `t`: its piece from `t` as far as
    /// its box corners stay affine and the run goes — when a bind at the
    /// piece's last step proves it — or `t` alone. Proves in the plan's
    /// [`EndProof`], so allocates nothing.
    fn reach(
        &mut self,
        kernel: &NativeKernel,
        h: usize,
        t: i64,
        space: &SpacePlan,
        tables: &[Vec<Option<ResolvedAcc>>],
    ) {
        self.pieces[h] = (t, t);
        let until = space.until(h, t).min(self.last);
        if until <= t {
            return;
        }
        let mut end = std::mem::take(&mut self.end);
        end.runs.clear();
        space.push_space(h, until, &mut end.runs);
        end.fold
            .move_to(self.k(until), self.k0, (&self.subs, &self.lins));
        let folded = Folded::with_tables(kernel, end.fold);
        let mut proof = Bound::with_tables(&folded, end.bound);
        let rank = space.rank(h);
        if proof.push(rank, &tables[rank], &end.runs).is_some() {
            let (mut lo, mut hi) = ([0; MAX_VARS], [0; MAX_VARS]);
            space.corners(h, until, &mut lo, &mut hi);
            let n = space.nvars();
            let (sites, writes) = (&mut end.sites[..], &mut end.writes[..]);
            let head = self.instantiate(h, until, (&lo[..n], &hi[..n]), sites, writes);
            let span = i128::from(self.k(until)) - i128::from(self.k(t));
            let steady = |from: &NatAff, change: i64, to: &NatAff| {
                i128::from(from.base) + i128::from(change) * span == i128::from(to.base)
            };
            let (s, w) = (h * self.nsites, h * self.nwrites);
            let sites_steady = (0..self.nsites).all(|k| {
                match (
                    self.sites[s + k].off,
                    raw(&proof.sites[k], &proof.heads[0]).off,
                ) {
                    (SiteOff::Affine(from), SiteOff::Affine(to)) => {
                        steady(&from, self.site_change[s + k], &to)
                    }
                    _ => true,
                }
            });
            let writes_steady = (0..self.nwrites).all(|k| {
                steady(
                    &self.writes[w + k],
                    self.write_change[w + k],
                    &proof.writes[k],
                )
            });
            let same = head == proof.heads[0] && *sites == proof.sites && *writes == proof.writes;
            if same && sites_steady && writes_steady {
                self.pieces[h] = (t, until);
            }
        }
        proof.slot[rank] = Bound::IDLE;
        proof.heads.clear();
        proof.sites.clear();
        proof.writes.clear();
        end.bound = proof.into_tables();
        end.fold = folded.into_tables();
        self.end = end;
    }

    /// The kernel folded at step `t`: the first step's fold with its
    /// forms moved and its REAL scalars read again. `None` when one holds
    /// another type, as a fold at this step would have found.
    pub(crate) fn fold<'k>(
        &mut self,
        kernel: &'k NativeKernel,
        t: i64,
        scalars: &[Value],
    ) -> Option<Folded<'k>> {
        let mut tables = self.folded.take().expect("lent one step at a time");
        tables.move_to(self.k(t), self.k0, (&self.subs, &self.lins));
        let groups =
            (kernel.bodies.iter().map(|b| &b.sites)).chain(kernel.gathers.iter().map(|g| &g.sites));
        let mut real = true;
        for (sites, group) in groups.zip(tables.bodies.iter_mut().chain(&mut tables.gathers)) {
            for (v, &slot) in group.scalars.iter_mut().zip(&sites.scalar_slots) {
                match scalars[slot as usize] {
                    Value::Real(x) => *v = x,
                    _ => real = false,
                }
            }
        }
        if real {
            Some(Folded::with_tables(kernel, tables))
        } else {
            self.folded = Some(tables);
            None
        }
    }

    /// The kernel bound at step `t` over `folded` ([`BindPlan::fold`]),
    /// its ranks' spaces `spaces` (those [`SpacePlan::at`] gives): every
    /// rank within its piece instantiated, every other proved again and
    /// given its next piece. With how many ranks were instantiated; `None`
    /// when a rank fails its proof, as binding from scratch would.
    pub(crate) fn bind<'f>(
        &mut self,
        folded: &'f Folded<'f>,
        t: i64,
        space: &SpacePlan,
        tables: &[Vec<Option<ResolvedAcc>>],
    ) -> Option<(Bound<'f>, u64)> {
        let kernel = folded.kernel;
        let mut bound =
            Bound::with_tables(folded, self.bound.take().expect("lent one step at a time"));
        bound.slot.iter_mut().for_each(|slot| *slot = Bound::IDLE);
        bound.heads.clear();
        bound.sites.clear();
        bound.writes.clear();
        let (mut lo, mut hi) = ([0; MAX_VARS], [0; MAX_VARS]);
        let (n, mut instantiated) = (space.nvars(), 0);
        for h in 0..self.heads.len() {
            if !space.corners(h, t, &mut lo, &mut hi) {
                continue;
            }
            let rank = space.rank(h);
            let (from, until) = self.pieces[h];
            if (from..=until).contains(&t) {
                let (s, w) = (bound.sites.len(), bound.writes.len());
                bound.sites.resize(s + self.nsites, NatSite::BLANK);
                bound.writes.resize(w + self.nwrites, NatAff::new(0, &[]));
                let head = self.instantiate(
                    h,
                    t,
                    (&lo[..n], &hi[..n]),
                    &mut bound.sites[s..],
                    &mut bound.writes[w..],
                );
                bound.slot[rank] = bound.heads.len() as u32;
                bound.heads.push(head);
                instantiated += 1;
                continue;
            }
            // Proved again from scratch: the rank's next piece.
            let runs = &mut self.end.runs;
            runs.clear();
            space.push_space(h, t, runs);
            let (s, w) = (bound.sites.len(), bound.writes.len());
            if bound.push(rank, &tables[rank], runs).is_none() {
                self.bound = Some(bound.into_tables());
                return None;
            }
            let head = bound.heads[bound.heads.len() - 1];
            self.heads[h] = head;
            let (ps, pw) = (h * self.nsites, h * self.nwrites);
            for k in 0..self.nsites {
                self.sites[ps + k] = raw(&bound.sites[s + k], &head);
            }
            self.writes[pw..pw + self.nwrites].copy_from_slice(&bound.writes[w..w + self.nwrites]);
            self.reach(kernel, h, t, space, tables);
        }
        Some((bound, instantiated))
    }

    /// Take back what [`BindPlan::fold`] and [`BindPlan::bind`] lent.
    pub(crate) fn give_back(&mut self, folded: Option<FoldedTables>, bound: Option<BoundTables>) {
        self.folded = self.folded.take().or(folded);
        self.bound = self.bound.take().or(bound);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The mixed-radix test on hand-built forms.
    #[test]
    fn one_to_one_is_a_mixed_radix_test() {
        let one_to_one = |k: [i64; 2], lists: [Vec<i64>; 2]| {
            let form = NatAff::new(7, &k);
            form.one_to_one(
                lists
                    .iter()
                    .map(|list| steps(Runs::of(list.clone()).runs())),
            )
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
