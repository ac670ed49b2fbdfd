//! The bytecode tier: a FORALL the native tier does not take runs
//! **chunk-at-a-time**. One driver (`Chunk::for_each`) walks a rank's
//! cartesian iteration space [`CHUNK`] tuples at a time (a chunk spans
//! outer tuples, so short rows still fill it), materializes the FORALL
//! variables as `i64` columns, and evaluates each [`ExprCode`] one `Op`
//! at a time over the whole chunk — a register is a typed column or one
//! uniform value (`columns::Reg`), every operator dispatches once per chunk and
//! then loops over typed slices (`crate::columns`), an array read turns
//! subscript columns into a flat-offset column through the rank's
//! *resolved accessor* (`ResolvedAcc::offsets`) and gathers typed.
//!
//! What the chunk loop keeps of the element loop it replaced, bit for
//! bit:
//!
//! * **Masks compact, they do not predicate.** The mask is evaluated
//!   over the chunk, the variable columns are compacted to the lanes
//!   that passed, and only those are evaluated further: a masked-out
//!   iteration evaluates nothing that can fault and charges `mask_cost`
//!   only.
//! * **Gathered values keep their ordinal.** The *k*-th executed
//!   iteration of a rank reads element *k·r + q* of a gather's
//!   sequential buffer at the *q*-th of its *r* `ReadSeq` sites.
//! * **Writes commit after the rank's last chunk**, executed-iteration
//!   major and body minor (a typed stage, interleaved by body as it
//!   is filled), so FORALL keeps RHS-before-LHS semantics and
//!   overlapping writes keep their last writer.
//! * **A fault is the element loop's fault**: the first faulting
//!   iteration in FORALL order and the first faulting operation within
//!   it. A chunk that faults anywhere is re-walked one lane at a time
//!   through the same operators, and the first lane that faults gives
//!   the error; nothing of the rank is committed.
//!
//! The same driver serves the blocking path and both phases of
//! split-phase overlap (interior, boundary slabs) — one local phase
//! function, [`run_phase`], whose staged writes ([`RankOut`]) the
//! engine commits as it commits the native tier's — and the bytecode
//! inspector of an unstructured read ([`inspect`]).
//!
//! FORALL local phases run through [`Machine::local_phase_map`], rank
//! by rank: every element read of a compiled FORALL body targets the
//! executing rank's own memory, and column buffers are per rank and per
//! call, so no rank sees another's state inside a phase.

use f90d_comm::driver::{GatherRequests, ScatterOut, Spaces};
use f90d_distrib::{ArrayDimMap, DistKind, Runs};
use f90d_machine::{ArrayData, Machine, NodeMemory, Value};
use f90d_runtime::DistArray;

use crate::bytecode::{AccPlan, ArrId, ExprCode, Op, VmForall, VmProgram};
use crate::columns::{self, Arg, Pool, Reg};
use crate::dispatch::{RankSpaces, VmError, VmResult};
use crate::ops;

/// One dimension of a resolved accessor: how a global subscript becomes
/// a padded local index on a specific rank.
#[derive(Debug, Clone)]
pub(crate) enum RDim {
    /// `l_pad = a*g + b` (undistributed and BLOCK dimensions — ghost
    /// offset folded into `b`).
    Affine {
        /// Stride.
        a: i64,
        /// Offset (includes the ghost_lo shift).
        b: i64,
    },
    /// CYCLIC / BLOCK-CYCLIC: ownership check plus μ⁻¹ through the
    /// dimension map.
    General {
        /// The composite dimension map.
        dm: ArrayDimMap,
        /// This rank's grid coordinate on the dimension's axis.
        coord: i64,
        /// Ghost cells below.
        ghost_lo: i64,
    },
}

/// A [`AccPlan`] resolved against one rank and the live descriptors:
/// subscripts → flat padded offset with no descriptor math in the loop.
#[derive(Debug, Clone)]
pub(crate) struct ResolvedAcc {
    /// The array actually read/written.
    pub(crate) target: ArrId,
    /// Per-dimension index transforms.
    pub(crate) dims: Vec<RDim>,
    /// Global extent per dimension (bounds check).
    pub(crate) extents: Vec<i64>,
    /// Padded extent per dimension (ghost-range check).
    pub(crate) padded: Vec<i64>,
    /// Row-major strides over the padded extents.
    pub(crate) strides: Vec<i64>,
    /// Per affine dimension, the subscripts that pass both bounds
    /// checks ([`affine_window`]), found once with the accessor.
    pub(crate) windows: Vec<(i64, i64)>,
}

impl ResolvedAcc {
    /// The accessor of `target` through `dims`, whose global extents are
    /// `extents` and padded ones `padded`.
    pub(crate) fn new(target: ArrId, dims: Vec<RDim>, extents: Vec<i64>, padded: Vec<i64>) -> Self {
        let ndim = dims.len();
        let mut strides = vec![1i64; ndim];
        for d in (0..ndim.saturating_sub(1)).rev() {
            strides[d] = strides[d + 1] * padded[d + 1];
        }
        let windows = (dims.iter().zip(extents.iter().zip(&padded)))
            .map(|(dim, (&extent, &padded))| match *dim {
                RDim::Affine { a, b } => affine_window(a, b, extent, padded),
                RDim::General { .. } => (0, 0),
            })
            .collect();
        ResolvedAcc {
            target,
            dims,
            extents,
            padded,
            strides,
            windows,
        }
    }

    /// Flat padded offset of global subscripts `subs`, one per dimension
    /// of the target (lowering has already dropped a slab read's fixed
    /// dimension).
    #[inline]
    fn offset(&self, subs: &[i64], name: &str, rank: i64) -> Result<usize, String> {
        let mut off: i64 = 0;
        for (k, &g) in subs.iter().enumerate() {
            if g < 0 || g >= self.extents[k] {
                return Err(format!(
                    "subscript {} out of bounds on dim {k} of {name} (extent {})",
                    g + 1,
                    self.extents[k]
                ));
            }
            let l_pad = match &self.dims[k] {
                RDim::Affine { a, b } => a * g + b,
                RDim::General {
                    dm,
                    coord,
                    ghost_lo,
                } => {
                    let t = dm.align.apply(g);
                    if dm.dist.proc_of(t) != *coord {
                        return Err(format!(
                            "rank {rank} reads unowned element {subs:?} of {name}"
                        ));
                    }
                    dm.dist.local_of(t) + ghost_lo
                }
            };
            if l_pad < 0 || l_pad >= self.padded[k] {
                return Err(format!(
                    "rank {rank} reads outside the padded segment of {name} at {subs:?}"
                ));
            }
            off += l_pad * self.strides[k];
        }
        Ok(off as usize)
    }

    /// Column form of [`ResolvedAcc::offset`]: append the flat padded
    /// offsets of `n` lanes, whose global subscripts are the registers
    /// `subs`, to `out`. Each dimension is one slice loop with both
    /// bounds checks kept — folded, for an affine dimension, into the
    /// one window of subscripts that pass them ([`affine_window`]); the
    /// first lane that fails one is handed to the scalar form, which
    /// owns the wording.
    fn offsets(
        &self,
        subs: &[Reg],
        n: usize,
        name: &str,
        rank: i64,
        pool: &mut Pool,
        out: &mut Vec<i64>,
    ) -> Result<(), String> {
        /// Add each lane's `(in range, term)` to its offset.
        #[inline(always)]
        fn add(offs: &mut [i64], g: &Arg<'_, i64>, term: impl Fn(i64) -> (bool, i64)) -> bool {
            let mut ok = true;
            match g.col() {
                Ok(col) => {
                    for (off, &g) in offs.iter_mut().zip(col) {
                        let (fine, t) = term(g);
                        ok &= fine;
                        *off = off.wrapping_add(t);
                    }
                }
                Err(g) => {
                    let (fine, t) = term(g);
                    ok = fine;
                    offs.iter_mut().for_each(|off| *off = off.wrapping_add(t));
                }
            }
            ok
        }
        /// [`add`] for a CYCLIC / CYCLIC(k) dimension: ownership and μ
        /// per lane, the distribution kind decided once for the column.
        #[inline(always)]
        fn general(
            offs: &mut [i64],
            gs: impl Iterator<Item = i64>,
            (dm, coord, ghost_lo): (&ArrayDimMap, i64, i64),
            (extent, padded, stride): (i64, i64, i64),
        ) -> bool {
            let (mut inside, mut owned) = (true, true);
            // A lane outside the extent is refused here and maps
            // template cell 0 below, whoever owns that.
            let cells = offs.iter_mut().zip(gs).map(|(off, g)| {
                let fine = (0..extent).contains(&g);
                inside &= fine;
                (if fine { dm.align.apply(g) } else { 0 }, off)
            });
            dm.dist.mu().map_run(cells, |owner, l, off| {
                let l = l + ghost_lo;
                owned &= owner == coord && (0..padded).contains(&l);
                *off = off.wrapping_add(l.wrapping_mul(stride));
            });
            inside & owned
        }
        let at = out.len();
        out.resize(at + n, 0);
        let offs = &mut out[at..];
        let mut ok = true;
        for (k, sub) in subs.iter().enumerate() {
            let (extent, padded, stride) = (self.extents[k], self.padded[k], self.strides[k]);
            let g = columns::ints(sub, pool);
            // Wrapping: a lane outside its window may overflow, and is
            // refused whatever it wraps to.
            ok &= match &self.dims[k] {
                &RDim::Affine { a, b } => {
                    let (lo, hi) = self.windows[k];
                    let span = (hi - lo).max(0) as u64;
                    let (scale, shift) = (a * stride, b * stride);
                    add(offs, &g, |g| {
                        let fine = (g.wrapping_sub(lo) as u64) < span;
                        (fine, scale.wrapping_mul(g).wrapping_add(shift))
                    })
                }
                RDim::General {
                    dm,
                    coord,
                    ghost_lo,
                } => {
                    let (dim, shape) = ((dm, *coord, *ghost_lo), (extent, padded, stride));
                    match g.col() {
                        Ok(col) => general(offs, col.iter().copied(), dim, shape),
                        Err(g) => general(offs, std::iter::repeat_n(g, n), dim, shape),
                    }
                }
            };
            g.done(pool);
        }
        if ok {
            return Ok(());
        }
        let mut lane = Vec::with_capacity(subs.len());
        for i in 0..n {
            lane.clear();
            lane.extend(subs.iter().map(|sub| sub.lane(i).as_int()));
            self.offset(&lane, name, rank)?;
        }
        unreachable!("a lane the column form refuses faults in the scalar form")
    }
}

/// The subscripts `g` of `0..extent` whose padded index `a*g + b` lies
/// in `0..padded`, as the half-open range `lo..hi` (empty when
/// `lo >= hi`): both bounds checks of an affine dimension as one window.
pub(crate) fn affine_window(a: i64, b: i64, extent: i64, padded: i64) -> (i64, i64) {
    let floor = |x: i64, d: i64| x.div_euclid(d);
    let ceil = |x: i64, d: i64| -(-x).div_euclid(d);
    let (lo, hi) = match a {
        0 if (0..padded).contains(&b) => (0, extent),
        0 => (0, 0),
        1.. => (ceil(-b, a), floor(padded - 1 - b, a) + 1),
        _ => (ceil(b - padded + 1, -a), floor(b, -a) + 1),
    };
    (lo.max(0), hi.min(extent))
}

/// Resolve one accessor of `prog` against the live descriptor in
/// `arrays` for a node at `coords`.
pub(crate) fn resolve_acc(
    prog: &VmProgram,
    arrays: &[DistArray],
    plan: &AccPlan,
    coords: &[i64],
) -> ResolvedAcc {
    let target = plan.target();
    let decl = &prog.arrays[target];
    let dad = &arrays[target].dad;
    let alloc = dad.local_shape();
    let ndim = dad.rank();
    let mut dims = Vec::with_capacity(ndim);
    let mut extents = Vec::with_capacity(ndim);
    let mut padded = Vec::with_capacity(ndim);
    for (d, dm) in dad.dims.iter().enumerate() {
        let ghost = if dm.is_distributed() { decl.ghost } else { 0 };
        let pad = alloc[d] + 2 * ghost;
        let rd = if !dm.is_distributed() {
            RDim::Affine { a: 1, b: ghost }
        } else if dm.dist.kind == DistKind::Block {
            let coord = coords[dm.grid_axis.unwrap()];
            RDim::Affine {
                a: dm.align.stride,
                b: dm.align.offset - coord * dm.dist.block_size() + ghost,
            }
        } else {
            let coord = coords[dm.grid_axis.unwrap()];
            RDim::General {
                dm: dm.clone(),
                coord,
                ghost_lo: ghost,
            }
        };
        dims.push(rd);
        extents.push(dm.extent);
        padded.push(pad);
    }
    ResolvedAcc::new(target, dims, extents, padded)
}

/// Iterations evaluated per operator dispatch. Large enough that the
/// dispatch, the per-chunk register traffic and a by-name segment lookup
/// per array read vanish per element; small enough that the dozen live
/// columns of a stencil body (8 bytes a lane) stay in L1. It trades
/// nothing a user could want to tune, so it is a constant, not a flag.
const CHUNK: usize = 512;

/// What every rank of one FORALL execution evaluates against.
#[derive(Clone, Copy)]
pub(crate) struct ForallCx<'a> {
    pub(crate) prog: &'a VmProgram,
    pub(crate) f: &'a VmForall,
    /// Loop-variable slots as the statement stream left them: the
    /// enclosing `DO` variables.
    pub(crate) vars: &'a [i64],
    pub(crate) scalars: &'a [Value],
    /// Per rank, its iteration space and its resolved accessors.
    pub(crate) spaces: &'a RankSpaces,
    pub(crate) resolved: &'a [Vec<Option<ResolvedAcc>>],
}

/// What one rank of a FORALL phase stages, on either tier: owned writes
/// in commit order (executed iteration major, body minor), the scatter
/// writes for the post-loop schedule, and the modelled cost.
pub(crate) struct RankOut {
    /// Flat padded offsets into the written segment.
    pub(crate) offs: Vec<i64>,
    /// The values, already of the written array's element type.
    pub(crate) vals: ArrayData,
    pub(crate) scat: ScatterOut,
    pub(crate) ops: i64,
}

impl RankOut {
    /// This rank's share of its phase, and its modelled cost.
    pub(crate) fn staged(self) -> (Staged, i64) {
        let ops = self.ops;
        let staged = !self.offs.is_empty() || !self.scat.vals.is_empty();
        (staged.then(|| Box::new(self)), ops)
    }

    /// Apply the staged writes to the segment `arr` names on this node:
    /// the first body assignment's array (lowering rejects mixed-array
    /// owned bodies).
    pub(crate) fn commit(&self, arr: &str, mem: &mut NodeMemory) {
        if !self.offs.is_empty() {
            let offs = self.offs.iter().map(|&off| off as usize);
            mem.array_mut(arr).scatter_flat(offs, &self.vals);
        }
    }
}

/// One rank's share of a FORALL phase: what it staged, if anything (on
/// the native tier most ranks stage nothing, so the slot is a pointer).
pub(crate) type Staged = Option<Box<RankOut>>;

/// One local phase of the chunk tier: every rank runs its iteration
/// spaces `spaces(rank)` — its whole space, an interior sub-product or
/// its boundary slabs — and hands back what it staged. The first failing
/// rank's error is the phase's.
pub(crate) fn run_phase(
    cx: ForallCx<'_>,
    m: &mut Machine,
    spaces: &Spaces<'_>,
) -> VmResult<Vec<Staged>> {
    let results = m.local_phase_map(|rank, mem| {
        match run_forall_rank(cx, rank, mem, spaces(rank as usize)).map(RankOut::staged) {
            Ok((staged, ops)) => (Ok(staged), ops),
            Err(e) => (Err(e), 0),
        }
    });
    Result::from_iter(results).map_err(VmError)
}

/// The per-rank FORALL loop over each iteration space of `spaces` in
/// turn: mask and body register code a chunk at a time, owned writes
/// staged — uncommitted — and scatter writes collected.
fn run_forall_rank(
    cx: ForallCx<'_>,
    rank: i64,
    mem: &NodeMemory,
    spaces: &[Runs],
) -> Result<RankOut, String> {
    let ty = cx.prog.arrays[cx.f.body[0].arr].ty;
    let mut out = RankOut {
        offs: Vec::new(),
        vals: ArrayData::zeros(ty, 0),
        scat: ScatterOut::new(ty),
        ops: 0,
    };
    if spaces.is_empty() {
        return Ok(out);
    }
    let mut ev = Chunk::new(cx, rank, mem, true);
    for space in spaces.chunks_exact(cx.f.vars.len()) {
        ev.for_each(space, |ev| ev.run_bodies(&mut out))?;
    }
    Ok(out)
}

/// One rank's bytecode inspector for an unstructured read whose source
/// subscripts are `subs`: the mask and subscripts of every iteration of
/// the rank, a chunk at a time in iteration order, pushed to `reqs`.
/// Masks and subscripts must not depend on gathered values.
pub(crate) fn inspect(
    cx: ForallCx<'_>,
    rank: usize,
    mem: &NodeMemory,
    subs: &[ExprCode],
    reqs: &mut GatherRequests,
) -> VmResult<()> {
    let mut ev = Chunk::new(cx, rank as i64, mem, false);
    let mut rows = Vec::new();
    ev.for_each(cx.spaces.space(rank), |ev| {
        ev.mask()?;
        ev.eval_subs(subs)?;
        rows.clear();
        columns::store_rows(&mut rows, 0, 1, ev.n, &ev.subs, &mut ev.pool);
        reqs.push_row(rank as i64, &rows).map_err(|e| e.0)
    })
    .map_err(VmError)
}

/// One rank's chunk evaluator: the FORALL variables of the chunk's
/// active lanes as columns, a register file of columns, and the buffers
/// both reuse from chunk to chunk.
struct Chunk<'a> {
    cx: ForallCx<'a>,
    rank: i64,
    mem: &'a NodeMemory,
    table: &'a [Option<ResolvedAcc>],
    /// `ReadSeq` sites per executed iteration, by gather — `None` in an
    /// inspector, where no gathered value exists yet.
    seq_sites: Option<Vec<usize>>,
    /// Of those, how many the current chunk has evaluated.
    seq_turn: Vec<usize>,
    /// Iterations this rank executed before the current chunk.
    executed: usize,
    /// One column per FORALL variable, outer to inner.
    cols: Vec<Vec<i64>>,
    /// Active lanes: the length of every column.
    n: usize,
    regs: Vec<Reg>,
    /// The subscript columns of the assignment or gather at hand.
    subs: Vec<Reg>,
    pool: Pool,
}

impl<'a> Chunk<'a> {
    fn new(cx: ForallCx<'a>, rank: i64, mem: &'a NodeMemory, gathered: bool) -> Self {
        let seq_sites = gathered.then(|| {
            let mut sites = vec![0; cx.f.gathers.len()];
            let codes = (cx.f.body.iter()).flat_map(|b| std::iter::once(&b.rhs).chain(&b.subs));
            for op in codes.flat_map(|code| &code.ops) {
                if let Op::ReadSeq { gather, .. } = *op {
                    sites[gather as usize] += 1;
                }
            }
            sites
        });
        Chunk {
            cx,
            rank,
            mem,
            table: &cx.resolved[rank as usize],
            seq_sites,
            seq_turn: vec![0; cx.f.gathers.len()],
            executed: 0,
            cols: vec![Vec::new(); cx.f.vars.len()],
            n: 0,
            regs: Vec::new(),
            subs: Vec::new(),
            pool: Pool::default(),
        }
    }

    /// The chunk driver: walk the cartesian product of `space` (last
    /// variable fastest) [`CHUNK`] tuples at a time through `body`. A
    /// chunk that faults is walked again one tuple at a time, so the
    /// error returned is the first faulting iteration's first fault —
    /// whatever other lanes of the chunk would have faulted too.
    fn for_each(
        &mut self,
        space: &[Runs],
        mut body: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        let total = space
            .iter()
            .fold(1usize, |n, runs| n.saturating_mul(runs.len()));
        let mut pos = 0;
        while pos < total {
            let n = CHUNK.min(total - pos);
            let executed = self.executed;
            self.load(space, pos, n);
            if let Err(e) = body(self) {
                if n > 1 {
                    self.executed = executed;
                    for lane in pos..pos + n {
                        self.load(space, lane, 1);
                        body(self)?;
                    }
                }
                return Err(e);
            }
            pos += n;
        }
        Ok(())
    }

    /// Start a chunk: fill the variable columns with tuples
    /// `pos..pos + n` of the product of `space`, each value computed
    /// from its progression; no `ReadSeq` site of it has had its turn
    /// yet.
    fn load(&mut self, space: &[Runs], pos: usize, n: usize) {
        let (inner, outer) = space.split_last().expect("a FORALL has a variable");
        self.cols.iter_mut().for_each(Vec::clear);
        let (mut row, mut at, mut left) = (pos / inner.len(), pos % inner.len(), n);
        while left > 0 {
            let run = left.min(inner.len() - at);
            let mut tuple = row;
            for (col, var) in self.cols.iter_mut().zip(outer).rev() {
                col.resize(col.len() + run, var.get(tuple % var.len()));
                tuple /= var.len();
            }
            inner.fill(at, run, &mut self.cols[outer.len()]);
            (row, at, left) = (row + 1, 0, left - run);
        }
        self.n = n;
        self.seq_turn.fill(0);
    }

    /// Evaluate `code` over the active lanes, one `Op` at a time, and
    /// take its result out of the register file.
    fn eval(&mut self, code: &ExprCode) -> Result<Reg, String> {
        let Chunk {
            cx,
            rank,
            mem,
            table,
            seq_sites,
            seq_turn,
            executed,
            cols,
            n,
            regs,
            pool,
            ..
        } = self;
        let (n, prog) = (*n, cx.prog);
        if regs.len() < code.nregs as usize {
            regs.resize_with(code.nregs as usize, Reg::default);
        }
        // `a*v + b` of a loop variable: a column for a FORALL variable,
        // uniform for an enclosing DO's.
        let affine = |slot: u16, a: i64, b: i64, pool: &mut Pool| {
            match cx.f.vars.iter().position(|v| v.var == slot) {
                // `1*v + b` without the multiply, which no baseline
                // x86-64 vector unit has for 64-bit lanes.
                Some(k) if a == 1 => {
                    let col = pool.collect(cols[k].iter().map(|&v| v.wrapping_add(b)));
                    Reg::Col(ArrayData::Int(col))
                }
                Some(k) => {
                    let col = pool.collect(cols[k].iter().map(|&v| ops::affine(a, v, b)));
                    Reg::Col(ArrayData::Int(col))
                }
                None => Reg::Uni(Value::Int(ops::affine(a, cx.vars[slot as usize], b))),
            }
        };
        for op in &code.ops {
            let (dst, val) = match *op {
                Op::Const { dst, k } => (dst, Reg::Uni(prog.consts[k as usize])),
                Op::LoadVar { dst, slot } => (dst, affine(slot, 1, 0, pool)),
                Op::LoadScalar { dst, slot } => (dst, Reg::Uni(cx.scalars[slot as usize])),
                Op::Affine { dst, slot, a, b } => (dst, affine(slot, a, b, pool)),
                Op::Bin { op, dst, a, b } => {
                    let (a, b) = (&regs[a as usize], &regs[b as usize]);
                    (dst, columns::bin(op, a, b, n, pool)?)
                }
                Op::Un { op, dst, a } => (dst, columns::un(op, &regs[a as usize], n, pool)?),
                Op::Intrin {
                    f,
                    dst,
                    base,
                    n: argc,
                } => {
                    let args = &regs[base as usize..(base + argc) as usize];
                    (dst, columns::intrin(f, args, n, pool)?)
                }
                Op::Read {
                    dst,
                    acc,
                    base,
                    n: nsubs,
                } => {
                    let racc = table[acc as usize].as_ref().expect("accessor resolved");
                    let name = &prog.arrays[racc.target].name;
                    let subs = &regs[base as usize..(base + nsubs) as usize];
                    let mut offs = pool.take::<i64>();
                    racc.offsets(subs, n, name, *rank, pool, &mut offs)?;
                    let view = mem.array(name);
                    let mut col = pool.column(view.elem_type());
                    view.gather_flat_into(offs.iter().map(|&off| off as usize), &mut col);
                    pool.give(Reg::Col(ArrayData::Int(offs)));
                    (dst, Reg::Col(col))
                }
                Op::ReadSeq { dst, gather } => {
                    let Some(sites) = seq_sites else {
                        return Err("gathered value read outside the element loop".into());
                    };
                    // The k-th executed iteration's q-th of r reads of
                    // this gather is element k·r + q of its buffer.
                    let g = gather as usize;
                    let (r, q) = (sites[g], seq_turn[g]);
                    seq_turn[g] += 1;
                    let view = mem.array(&prog.arrays[cx.f.gathers[g].tmp].name);
                    let mut col = pool.column(view.elem_type());
                    view.gather_flat_into((*executed..*executed + n).map(|k| k * r + q), &mut col);
                    (dst, Reg::Col(col))
                }
            };
            pool.give(std::mem::replace(&mut regs[dst as usize], val));
        }
        Ok(std::mem::take(&mut regs[code.out as usize]))
    }

    /// Evaluate the FORALL's mask, if it has one, and compact the
    /// variable columns to the lanes that pass — masked-out iterations
    /// are not predicated, they are gone.
    fn mask(&mut self) -> Result<(), String> {
        let Some(code) = &self.cx.f.mask else {
            return Ok(());
        };
        let mask = self.eval(code)?;
        let keep = columns::bools(&mask, &mut self.pool);
        self.n = match keep.col() {
            Err(true) => self.n,
            Err(false) => 0,
            Ok(keep) => {
                let passed = keep.iter().filter(|&&k| k).count();
                if passed < keep.len() {
                    for col in &mut self.cols {
                        let mut kept = 0;
                        for (i, &k) in keep.iter().enumerate() {
                            col[kept] = col[i];
                            kept += k as usize;
                        }
                    }
                }
                passed
            }
        };
        self.cols.iter_mut().for_each(|col| col.truncate(self.n));
        keep.done(&mut self.pool);
        self.pool.give(mask);
        Ok(())
    }

    /// Evaluate the subscript programs `codes` into [`Chunk::subs`].
    fn eval_subs(&mut self, codes: &[ExprCode]) -> Result<(), String> {
        while let Some(sub) = self.subs.pop() {
            self.pool.give(sub);
        }
        if self.n > 0 {
            for code in codes {
                let sub = self.eval(code)?;
                self.subs.push(sub);
            }
        }
        Ok(())
    }

    /// One chunk of the FORALL: mask, then every body over the lanes
    /// that pass. Body `b`'s write of the chunk's `j`-th executed
    /// iteration lands at position `j·bodies + b` past what `out`
    /// already holds, so the stage is in commit order as it fills.
    fn run_bodies(&mut self, out: &mut RankOut) -> Result<(), String> {
        let f = self.cx.f;
        out.ops += f.mask_cost * self.n as i64;
        self.mask()?;
        let n = self.n;
        if n == 0 {
            return Ok(());
        }
        let owned = f.body.iter().filter(|b| b.scatter.is_none()).count();
        let (stage_at, scat_at) = (out.offs.len(), out.scat.vals.len());
        let (mut nth_owned, mut nth_scat) = (0, 0);
        for b in &f.body {
            let rhs = self.eval(&b.rhs)?;
            out.ops += b.cost * n as i64;
            self.eval_subs(&b.subs)?;
            let pool = &mut self.pool;
            if b.scatter.is_none() {
                let acc = b.lhs_acc.expect("owned write accessor") as usize;
                let racc = self.table[acc].as_ref().expect("lhs accessor resolved");
                let name = &self.cx.prog.arrays[b.arr].name;
                let at = stage_at + nth_owned;
                if owned == 1 {
                    racc.offsets(&self.subs, n, name, self.rank, pool, &mut out.offs)?;
                } else {
                    let mut offs = pool.take::<i64>();
                    racc.offsets(&self.subs, n, name, self.rank, pool, &mut offs)?;
                    columns::store_strided(&mut out.offs, at, owned, n, &Arg::Ref(&offs));
                    pool.give(Reg::Col(ArrayData::Int(offs)));
                }
                columns::store(&mut out.vals, at, owned, n, &rhs, pool);
                nth_owned += 1;
            } else {
                let (at, step) = (scat_at + nth_scat, f.body.len() - owned);
                columns::store_rows(&mut out.scat.subs, at, step, n, &self.subs, pool);
                columns::store(&mut out.scat.vals, at, step, n, &rhs, pool);
                nth_scat += 1;
            }
            pool.give(rhs);
        }
        self.executed += n;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The column form of an accessor against the scalar form, lane by
    /// lane: over affine dimensions of every sign of stride with offsets
    /// that put part of the extent outside the padding, CYCLIC and
    /// CYCLIC(3) dimensions on each coordinate and a uniform subscript,
    /// the same offsets — and, as soon as one lane faults, the first
    /// faulting lane's error.
    #[test]
    fn column_offsets_are_the_scalar_offsets() {
        use f90d_distrib::{DadBuilder, ProcGrid};
        let general = |kind: DistKind, coord: i64| {
            let dad = DadBuilder::new("A", &[11])
                .distribute(&[kind])
                .grid(ProcGrid::new(&[3]))
                .build()
                .unwrap();
            RDim::General {
                dm: dad.dims[0].clone(),
                coord,
                ghost_lo: 1,
            }
        };
        let mut first = Vec::new();
        for a in -3i64..=3 {
            for b in [-5, -1, 0, 2, 12] {
                first.push(RDim::Affine { a, b });
            }
        }
        for coord in 0..3 {
            first.push(general(DistKind::Cyclic, coord));
            first.push(general(DistKind::BlockCyclic(3), coord));
        }
        let gs: Vec<i64> = (-4..16).collect();
        let mut pool = Pool::default();
        for dim0 in first {
            for (extent, padded) in [(1, 1), (7, 5), (11, 9), (11, 40)] {
                {
                    let dims = vec![dim0.clone(), RDim::Affine { a: 1, b: 2 }];
                    let racc = ResolvedAcc::new(0, dims, vec![extent, 6], vec![padded, 9]);
                    assert_eq!(racc.strides, [9, 1]);
                    // Dimension 0 sweeps, the last one is uniform.
                    let subs = [
                        Reg::Col(ArrayData::Int(gs.clone())),
                        Reg::Uni(Value::Int(4)),
                    ];
                    let scalar = |i: usize| {
                        let lane: Vec<i64> = subs.iter().map(|s| s.lane(i).as_int()).collect();
                        racc.offset(&lane, "A", 2)
                    };
                    // Every run of clean lanes, then a run ending in the
                    // first faulting one.
                    let mut start = 0;
                    while start < gs.len() {
                        let bad = (start..gs.len()).find(|&i| scalar(i).is_err());
                        let end = bad.map_or(gs.len(), |i| i + 1);
                        let lanes = subs
                            .iter()
                            .map(|s| match s {
                                Reg::Col(ArrayData::Int(col)) => {
                                    Reg::Col(ArrayData::Int(col[start..end].to_vec()))
                                }
                                uniform => Reg::Uni(uniform.lane(0)),
                            })
                            .collect::<Vec<_>>();
                        let mut offs = vec![-1];
                        let got = racc.offsets(&lanes, end - start, "A", 2, &mut pool, &mut offs);
                        match bad {
                            Some(i) => assert_eq!(got, Err(scalar(i).unwrap_err())),
                            None => assert_eq!(got, Ok(())),
                        }
                        if got.is_ok() {
                            let want: Vec<i64> = std::iter::once(-1)
                                .chain((start..end).map(|i| scalar(i).unwrap() as i64))
                                .collect();
                            assert_eq!(offs, want, "offsets are appended");
                        }
                        start = end;
                    }
                }
            }
        }
    }
}
