//! The bytecode execution engine.
//!
//! Runs a [`VmProgram`] against a simulated machine, loosely
//! synchronously, charging the machine's virtual-time cost model as it
//! goes. Statements are a flat
//! fetch/decode loop; a FORALL the native tier does not take runs
//! **chunk-at-a-time**: one driver (`Chunk::for_each`) walks a rank's
//! cartesian iteration space `CHUNK` tuples at a time (a chunk spans
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
//!   major and body minor (a typed `Stage`, interleaved by body as it
//!   is filled), so FORALL keeps RHS-before-LHS semantics and
//!   overlapping writes keep their last writer.
//! * **A fault is the element loop's fault**: the first faulting
//!   iteration in FORALL order and the first faulting operation within
//!   it. A chunk that faults anywhere is re-walked one lane at a time
//!   through the same operators, and the first lane that faults gives
//!   the error; nothing of the rank is committed.
//!
//! The same driver serves the blocking path, both phases of split-phase
//! overlap (interior, boundary slabs) and the bytecode inspector of an
//! unstructured read. Replicated-context expressions (`eval_scalar`:
//! bounds, scalar assignments, collective operands) still evaluate one
//! [`Value`] at a time — there is one of each per statement, not per
//! element.
//!
//! A FORALL the native tier selected and this execution can bind
//! (`bind_native`) runs no bytecode: its affine forms are folded once
//! per execution (`Engine::fold_native`), each rank's sites are proved
//! in bounds over its iteration box, its iterations are cut into boxes —
//! runs of the second-innermost variable × runs of the innermost, never
//! reordering rows (`NatRank::new`) — and one walk (`NatRank::for_each_box`)
//! hands every box to the body's kernel (`crate::native`), commits a
//! staged rank and feeds the inspector. The alias rule (`in_place`)
//! decides per rank whether boxes are written where they stand.
//!
//! FORALL local phases run under the machine's
//! [`ExecMode`](f90d_machine::ExecMode) — rank by
//! rank, or all ranks concurrently on scoped threads — because every
//! element read of a compiled FORALL body targets the executing rank's
//! own memory. Column buffers are per rank and per call, so the threaded
//! mode shares nothing.

use std::cell::OnceCell;
use std::sync::Arc;

use f90d_comm::driver::{self, CommDriver, ComputeSink, GatherRequests, PhaseOutcome, ScatterOut};
use f90d_comm::helpers::cartesian;
use f90d_comm::sched_cache::RunSchedules;
use f90d_distrib::{ArrayDimMap, Dad, DistKind};
use f90d_machine::{ArrayData, ElemType, Machine, NodeMemory, Value};
use f90d_runtime::DistArray;

use crate::bytecode::*;
use crate::columns::{self, Arg, Elem, Pool, Reg};
use crate::dispatch::{self, VmResult};
use crate::native::{
    BoxArgs, BoxFn, BoxKernel, BoxOut, BoxRead, Lhs, Lin, NativeKernel, ReadSite, Sites, Walk,
};
use crate::ops;

pub use crate::dispatch::{RunReport, VmError};

fn verr<T>(msg: impl Into<String>) -> VmResult<T> {
    Err(VmError(msg.into()))
}

/// One dimension of a resolved accessor: how a global subscript becomes
/// a padded local index on a specific rank.
#[derive(Debug, Clone)]
enum RDim {
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
struct ResolvedAcc {
    /// The array actually read/written.
    target: ArrId,
    /// Per-dimension index transforms.
    dims: Vec<RDim>,
    /// Global extent per dimension (bounds check).
    extents: Vec<i64>,
    /// Padded extent per dimension (ghost-range check).
    padded: Vec<i64>,
    /// Row-major strides over the padded extents.
    strides: Vec<i64>,
}

impl ResolvedAcc {
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
            dm.dist.global_to_local_run(cells, |owner, l, off| {
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
                    let (lo, hi) = affine_window(a, b, extent, padded);
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
fn affine_window(a: i64, b: i64, extent: i64, padded: i64) -> (i64, i64) {
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

/// Engine state: live array table, replicated scalars, loop variables.
pub struct Engine {
    prog: Arc<VmProgram>,
    /// Live array table (REDISTRIBUTE may change a descriptor).
    arrays: Vec<DistArray>,
    scalars: Vec<Value>,
    vars: Vec<i64>,
    printed: Vec<String>,
    /// Schedule reuse (§7(3), per-run) and the cross-run schedule cache:
    /// toggle `sched.reuse` / `sched.use_global` before running.
    pub sched: RunSchedules,
    /// `OptFlags::comm_compute_overlap`: execute eligible stencil FORALLs
    /// split-phase (ghost-exchange post → interior compute → complete →
    /// boundary compute). Off by default — virtual time changes (that is
    /// the point), array results and PRINT do not.
    pub overlap: bool,
    /// `CompileOptions::exec_mode`: when `Some`, [`Engine::run`]
    /// switches the machine to this local-phase mode (leasing threaded
    /// workers from the process-wide `f90d_machine::budget`) before
    /// executing. `None` respects the machine as given. Virtual metrics
    /// are identical either way.
    pub exec: Option<f90d_machine::ExecMode>,
    /// `OptFlags::comm_plan`: honour [`PhaseRole`] annotations, batching
    /// each phase's ghost exchanges into one coalesced exchange
    /// sequenced by the shared [`CommDriver`]. Off (the default) runs
    /// the per-statement schedule even on annotated programs.
    pub plan: bool,
    /// The shared FORALL communication driver (`f90d_comm::driver`):
    /// sequences phase batching, split-phase overlap, and quiescence,
    /// and carries the `comm_plan {groups, fallbacks}` counters the run
    /// trace surfaces.
    pub comm: CommDriver,
    /// FORALL executions dispatched to a native-tier kernel.
    native_matched: u64,
    /// FORALL executions that ran the bytecode element loop instead (no
    /// kernel selected, a dispatch precondition failed, or the overlap
    /// split-phase path ran).
    native_fallback: u64,
    /// Of the `native_matched`, those in which some rank's owned writes
    /// went through the stage instead of in place.
    native_staged: u64,
    /// The program's accessors resolved against the live descriptors,
    /// `[rank][accessor]`: an entry is filled by the first FORALL
    /// execution that needs it on that rank and kept for the run.
    /// Emptied by [`Engine::relayout`].
    accs: Vec<Vec<Option<ResolvedAcc>>>,
    /// Per FORALL (`VmProgram::foralls` index), the iteration lists of
    /// its last execution *inside a DO* with what they were built from.
    /// A statement outside every loop runs once and keeps nothing.
    /// Emptied by [`Engine::relayout`].
    lists: Vec<Option<ListMemo>>,
    /// FORALL executions that took their iteration lists from `lists`.
    dispatch_reused: u64,
}

/// Per-rank, per-variable iteration lists of one FORALL execution.
type IterLists = Vec<Vec<Vec<i64>>>;

/// One FORALL's kept iteration lists. `key` is everything
/// [`dispatch::iteration_lists`] computes them from besides the live
/// descriptors and the grid: the evaluated `[lb, ub, st]` of every
/// variable, then the evaluated owner-filter indices.
struct ListMemo {
    key: Vec<i64>,
    lists: Arc<IterLists>,
}

impl Engine {
    /// Prepare an engine and allocate every array on the machine.
    pub fn new(prog: Arc<VmProgram>, m: &mut Machine) -> Self {
        let arrays = dispatch::allocate(m, &prog.grid_shape, &prog.arrays, false);
        Self::fresh(prog, arrays)
    }

    /// Like [`Engine::new`] but keeps existing array segments (running a
    /// program fragment over state produced by an earlier fragment).
    pub fn new_preserving(prog: Arc<VmProgram>, m: &mut Machine) -> Self {
        let arrays = dispatch::allocate(m, &prog.grid_shape, &prog.arrays, true);
        Self::fresh(prog, arrays)
    }

    fn fresh(prog: Arc<VmProgram>, arrays: Vec<DistArray>) -> Self {
        let scalars = prog.scalars.iter().map(|(_, ty)| ty.zero()).collect();
        let (nvars, nforalls) = (prog.nvars, prog.foralls.len());
        Engine {
            prog,
            arrays,
            scalars,
            vars: vec![0; nvars],
            printed: Vec::new(),
            sched: RunSchedules::new(),
            overlap: false,
            exec: None,
            plan: false,
            comm: CommDriver::new(),
            native_matched: 0,
            native_fallback: 0,
            native_staged: 0,
            accs: Vec::new(),
            lists: std::iter::repeat_with(|| None).take(nforalls).collect(),
            dispatch_reused: 0,
        }
    }

    /// An array's descriptor was swapped (REDISTRIBUTE): drop everything
    /// this engine planned against the old layouts. The one invalidation
    /// site of the accessor table and the iteration-list memos — the
    /// comm layer's shift plans need none, their key holds the layout.
    fn relayout(&mut self) {
        self.accs.clear();
        self.lists.iter_mut().for_each(|kept| *kept = None);
    }

    /// `(matched, fallback)` FORALL execution counts for this engine:
    /// how many FORALL executions dispatched to a native-tier kernel vs
    /// ran the bytecode element loop. Informational — the tiers are
    /// bit-identical on every virtual metric.
    pub fn native_counts(&self) -> (u64, u64) {
        (self.native_matched, self.native_fallback)
    }

    /// How many of the native-tier FORALL executions staged: on at least
    /// one rank the alias rule (`in_place`) could not prove that the
    /// owned writes may land where they stand, so that rank's boxes went
    /// to a dense stage committed after the phase. Exact, and — like the
    /// tier itself — invisible in every virtual metric: what it explains
    /// is host time.
    pub fn native_staged(&self) -> u64 {
        self.native_staged
    }

    /// How many FORALL executions reused the iteration lists of the
    /// statement's previous execution (same evaluated bounds and owner
    /// filter, same layouts, inside a `DO`) instead of partitioning the
    /// iteration space again. Exact; explains host time only.
    pub fn dispatch_reused(&self) -> u64 {
        self.dispatch_reused
    }

    /// Read a scalar by name (post-run inspection).
    pub fn scalar(&self, name: &str) -> Option<Value> {
        let slot = self.prog.scalar_slot(name)?;
        Some(self.scalars[slot as usize])
    }

    /// Current runtime descriptor of array `id`.
    pub fn dad(&self, id: ArrId) -> &Dad {
        &self.arrays[id].dad
    }

    /// Seed a named array from a host row-major buffer before running.
    pub fn seed_array(&self, m: &mut Machine, name: &str, data: &ArrayData) -> bool {
        let Some(id) = self.prog.array_id(name) else {
            return false;
        };
        self.arrays[id].scatter_host(m, data);
        true
    }

    /// Gather a named array to a host buffer (inspection).
    pub fn gather_array(&self, m: &mut Machine, name: &str) -> Option<ArrayData> {
        let id = self.prog.array_id(name)?;
        Some(self.arrays[id].gather_host(m))
    }

    /// Run the whole program: a flat fetch/decode loop over the
    /// statement stream.
    pub fn run(&mut self, m: &mut Machine) -> VmResult<RunReport> {
        if let Some(mode) = self.exec {
            m.set_exec(mode);
        }
        let prog = self.prog.clone();
        let mut regs: Vec<Value> = Vec::new();
        let mut do_stack: Vec<(i64, i64)> = Vec::new();
        let mut pc = 0usize;
        while pc < prog.code.len() {
            match &prog.code[pc] {
                PInst::ScalarAssign { slot, rhs, cost } => {
                    let v = self.eval_scalar(rhs, m, &mut regs)?;
                    self.scalars[*slot as usize] = v;
                    for r in 0..m.nranks() {
                        m.transport.charge_elem_ops(r, *cost);
                    }
                    pc += 1;
                }
                PInst::OwnerAssign {
                    arr,
                    subs,
                    rhs,
                    cost,
                } => {
                    let g: Vec<i64> = subs
                        .iter()
                        .map(|e| self.eval_scalar(e, m, &mut regs).map(|v| v.as_int()))
                        .collect::<VmResult<_>>()?;
                    let v = self.eval_scalar(rhs, m, &mut regs)?;
                    dispatch::owner_assign(m, &self.arrays[*arr], &g, v, *cost)?;
                    pc += 1;
                }
                PInst::Comm(i) => {
                    self.exec_comm(&prog.comms[*i as usize], m, &mut regs)?;
                    pc += 1;
                }
                PInst::Forall(i) => {
                    if self.plan {
                        if let Some(PhaseRole::Lead { len }) = prog.foralls[*i as usize].plan {
                            // Collect the phase: `len` consecutive FORALL
                            // instructions starting here (the planner only
                            // groups adjacent FORALLs, which lower to
                            // adjacent instructions).
                            let mut ids = Vec::with_capacity(len);
                            let mut j = pc;
                            while ids.len() < len && j < prog.code.len() {
                                let PInst::Forall(k) = &prog.code[j] else {
                                    break;
                                };
                                ids.push(*k);
                                j += 1;
                            }
                            if ids.len() == len {
                                self.exec_phase(&ids, m, !do_stack.is_empty())?;
                                pc = j;
                                continue;
                            }
                            // A truncated phase means the annotation and
                            // the instruction stream disagree; run the
                            // always-correct per-statement schedule.
                        }
                    }
                    self.exec_forall(*i, m, false, !do_stack.is_empty())?;
                    pc += 1;
                }
                PInst::Runtime(i) => {
                    let call =
                        prog.rtcalls[*i as usize].try_map(|e| self.eval_scalar(e, m, &mut regs))?;
                    dispatch::exec_runtime(m, &mut self.arrays, &prog.arrays, &call)?;
                    if matches!(call, RtCall::Redistribute { .. }) {
                        self.relayout();
                    }
                    pc += 1;
                }
                PInst::Print(i) => {
                    let mut line = String::new();
                    for (k, item) in prog.prints[*i as usize].iter().enumerate() {
                        if k > 0 {
                            line.push(' ');
                        }
                        match item {
                            PrintItem::Text(t) => line.push_str(t),
                            PrintItem::Val(e) => {
                                let v = self.eval_scalar(e, m, &mut regs)?;
                                line.push_str(&v.to_string());
                            }
                        }
                    }
                    self.printed.push(line);
                    pc += 1;
                }
                PInst::BranchFalse { cond, cost, target } => {
                    let c = self.eval_scalar(cond, m, &mut regs)?.as_bool();
                    for r in 0..m.nranks() {
                        m.transport.charge_elem_ops(r, *cost);
                    }
                    pc = if c { pc + 1 } else { *target };
                }
                PInst::Jump { target } => pc = *target,
                PInst::DoStart {
                    var,
                    lb,
                    ub,
                    st,
                    exit,
                } => {
                    let lb = self.eval_scalar(lb, m, &mut regs)?.as_int();
                    let ub = self.eval_scalar(ub, m, &mut regs)?.as_int();
                    let st = self.eval_scalar(st, m, &mut regs)?.as_int();
                    if st == 0 {
                        return verr("DO stride of zero");
                    }
                    if (st > 0 && lb <= ub) || (st < 0 && lb >= ub) {
                        self.vars[*var as usize] = lb;
                        do_stack.push((ub, st));
                        pc += 1;
                    } else {
                        pc = *exit;
                    }
                }
                PInst::DoNext { var, back } => {
                    for r in 0..m.nranks() {
                        m.transport.charge_elem_ops(r, 1); // loop control
                    }
                    let (ub, st) = *do_stack.last().expect("DoNext outside DO");
                    // An iterate that overflows lies beyond any bound.
                    match self.vars[*var as usize].checked_add(st) {
                        Some(v) if (st > 0 && v <= ub) || (st < 0 && v >= ub) => {
                            self.vars[*var as usize] = v;
                            pc = *back;
                        }
                        _ => {
                            do_stack.pop();
                            pc += 1;
                        }
                    }
                }
            }
        }
        dispatch::finish_run(m, std::mem::take(&mut self.printed))
    }

    // ---- scalar (replicated-context) evaluation ------------------------

    fn eval_scalar(&self, code: &ExprCode, m: &Machine, regs: &mut Vec<Value>) -> VmResult<Value> {
        let prog = &*self.prog;
        regs.clear();
        regs.resize(code.nregs as usize, Value::Int(0));
        for op in &code.ops {
            match *op {
                Op::Const { dst, k } => regs[dst as usize] = prog.consts[k as usize],
                Op::LoadVar { dst, slot } => {
                    regs[dst as usize] = Value::Int(self.vars[slot as usize])
                }
                Op::LoadScalar { dst, slot } => regs[dst as usize] = self.scalars[slot as usize],
                Op::Affine { dst, slot, a, b } => {
                    regs[dst as usize] = Value::Int(ops::affine(a, self.vars[slot as usize], b))
                }
                Op::Bin { op, dst, a, b } => {
                    regs[dst as usize] =
                        ops::eval_bin(op, regs[a as usize], regs[b as usize]).map_err(VmError)?
                }
                Op::Un { op, dst, a } => {
                    regs[dst as usize] = ops::eval_un(op, regs[a as usize]).map_err(VmError)?
                }
                Op::Intrin { f, dst, base, n } => {
                    let args = &regs[base as usize..(base + n) as usize];
                    regs[dst as usize] = ops::eval_intrin(f, args).map_err(VmError)?
                }
                Op::Read { dst, acc, base, n } => {
                    let plan = &prog.accessors[acc as usize];
                    let AccPlan::Owned { arr } = plan else {
                        return verr("non-replicated read in scalar context");
                    };
                    let g: Vec<i64> = regs[base as usize..(base + n) as usize]
                        .iter()
                        .map(|v| v.as_int())
                        .collect();
                    regs[dst as usize] = dispatch::read_elem(m, &self.arrays[*arr], &g)?.1;
                }
                Op::ReadSeq { .. } => return verr("non-replicated read in scalar context"),
            }
        }
        Ok(regs[code.out as usize])
    }

    // ---- communication ------------------------------------------------

    /// Evaluate the call's operands, run the shared dispatcher, store
    /// the result into the call's scalar slot if it has one.
    fn exec_comm(
        &mut self,
        c: &CommStmt<ExprCode, u16>,
        m: &mut Machine,
        regs: &mut Vec<Value>,
    ) -> VmResult<()> {
        let call = c.try_map(|e| self.eval_scalar(e, m, regs), |_| ())?;
        if let Some(v) = dispatch::exec_comm(m, &self.arrays, &mut self.sched, &call)? {
            let slot = c.target().expect("a comm with a result has a target");
            self.scalars[*slot as usize] = v;
        }
        Ok(())
    }

    // ---- FORALL --------------------------------------------------------

    /// Execute one planner-formed comm phase (`ids` are forall-table
    /// indices): hand every member's ghost exchanges (against the live
    /// descriptors) to the shared driver, which deduplicates and batches
    /// them into one coalesced exchange, then run the members with their
    /// preludes skipped. A runtime planning refusal falls back to the
    /// bit-identical per-statement path — the annotations are advisory.
    fn exec_phase(&mut self, ids: &[u16], m: &mut Machine, in_loop: bool) -> VmResult<()> {
        let prog = self.prog.clone();
        let mut specs = Vec::new();
        for &id in ids {
            let Some(shifts) = pre_shifts(&prog, &prog.foralls[id as usize]) else {
                return verr("comm phase member has a non-overlap-shift prelude");
            };
            specs.extend(dispatch::ghost_specs(
                m,
                &mut self.sched,
                &self.arrays,
                &shifts,
            ));
        }
        let skip_pre = self.comm.phase_exchange(m, specs)? == PhaseOutcome::Exchanged;
        for &id in ids {
            self.exec_forall(id, m, skip_pre, in_loop)?;
        }
        Ok(())
    }

    /// One FORALL, `prog.foralls[fi]`. `skip_pre`: a phase lead already
    /// posted (and completed) this statement's ghost exchanges, so phase
    /// members run with their prelude skipped — which also bypasses the
    /// split-phase overlap path, whose post/finish would re-send the
    /// exchanges. The native tier still binds as usual. `in_loop`: the
    /// statement sits inside a `DO` and may run again, so its iteration
    /// lists are worth keeping.
    ///
    /// Under `overlap`, an eligible stencil ([`dispatch::overlap_plan`])
    /// runs split-phase (paper §5.1/§7 latency hiding), sequenced by the
    /// shared [`driver::run_overlap`]: the driver posts the ghost
    /// exchanges, runs this backend's interior element loop under the
    /// machine's [`f90d_machine::ExecMode`] while the strips are on the
    /// wire, completes the exchanges, runs the boundary slabs, and
    /// commits — array results bit-identical to blocking execution, only
    /// virtual clocks differ.
    fn exec_forall(
        &mut self,
        fi: u16,
        m: &mut Machine,
        skip_pre: bool,
        in_loop: bool,
    ) -> VmResult<()> {
        let prog = self.prog.clone();
        let f = &prog.foralls[fi as usize];
        let mut regs: Vec<Value> = Vec::new();
        let plain = f.gathers.is_empty()
            && f.owner_filter.is_empty()
            && f.body.iter().all(|b| b.scatter.is_none());
        let split = if self.overlap && !skip_pre && plain {
            let parts = f.vars.iter().map(|v| &v.part);
            pre_shifts(&prog, f)
                .and_then(|s| dispatch::overlap_plan(m, &mut self.sched, &self.arrays, &s, parts))
        } else {
            None
        };
        // Blocking communication prelude.
        if split.is_none() && !skip_pre {
            for &c in &f.pre {
                self.exec_comm(&prog.comms[c as usize], m, &mut regs)?;
            }
        }
        // Owner filter and bounds are replicated values: evaluate once.
        let mut filter = Vec::with_capacity(f.owner_filter.len());
        for (arr, dim, idx) in &f.owner_filter {
            filter.push((*arr, *dim, self.eval_scalar(idx, m, &mut regs)?.as_int()));
        }
        let mut loops = Vec::with_capacity(f.vars.len());
        for spec in &f.vars {
            let lb = self.eval_scalar(&spec.lb, m, &mut regs)?.as_int();
            let ub = self.eval_scalar(&spec.ub, m, &mut regs)?.as_int();
            let st = self.eval_scalar(&spec.st, m, &mut regs)?.as_int();
            loops.push((&spec.part, [lb, ub, st]));
        }
        let iter_lists = self.iteration_lists(fi, m, &loops, &filter, in_loop)?;
        let nranks = m.nranks() as usize;
        // Resolve the accessors this FORALL references that no earlier
        // execution has, per rank. A rank with an empty iteration list
        // runs nothing — every consumer skips it before looking at its
        // table — so it asks for none.
        self.accs.resize(nranks, Vec::new());
        for (rank, lists) in iter_lists.iter().enumerate() {
            if lists.iter().any(|l| l.is_empty()) {
                continue;
            }
            let table = &mut self.accs[rank];
            table.resize(prog.accessors.len(), None);
            let mut coords = None;
            for &a in &f.accs_used {
                table[a as usize].get_or_insert_with(|| {
                    let coords = coords.get_or_insert_with(|| m.grid.coords_of(rank as i64));
                    resolve_acc(&prog, &self.arrays, &prog.accessors[a as usize], coords)
                });
            }
        }
        let resolved = &self.accs[..];
        if let Some((specs, margins)) = split {
            // Split-phase boundary/interior execution always runs the
            // bytecode chunk loop.
            self.native_fallback += 1;
            let mut sink = VmSink {
                cx: self.forall_cx(&prog, f),
                resolved,
                staged: vec![Vec::new(); nranks],
            };
            return driver::run_overlap(m, &specs, &margins, &iter_lists, &mut sink);
        }
        // Native tier: when lowering selected a kernel and every rank's
        // dispatch preconditions hold, the box kernels run instead of
        // the bytecode chunk loop — in the inspector below too.
        let folded = f.native.map(|kid| self.fold_native(&prog.natives[kid], f));
        let bound = (folded.as_ref())
            .and_then(|folded| bind_native(folded.as_ref(), &iter_lists, resolved));
        // Unstructured reads: inspector + vectorized executor.
        for (gi, g) in f.gathers.iter().enumerate() {
            // Field by field, not `forall_cx`: `sched` is lent out too.
            let cx = ForallCx {
                prog: &prog,
                f,
                vars: &self.vars,
                scalars: &self.scalars,
            };
            let dispatched = (&iter_lists[..], resolved, bound.as_deref());
            let src = &self.arrays[g.src];
            exec_gather(cx, src, &mut self.sched, gi, g, m, dispatched)?;
        }
        let dst = &self.arrays[f.body[0].arr];
        let scatter = f.body.iter().find_map(|b| b.scatter);
        let scatter_out: Vec<ScatterOut> = if let Some(bound) = bound {
            self.native_matched += 1;
            self.native_staged += bound.iter().flatten().any(NatRank::staged) as u64;
            let columns = scatter.map(|_| dst.ty);
            run_native_forall(&prog, m, &bound, &iter_lists, columns)
        } else {
            self.native_fallback += 1;
            // Main loop: one local phase under the machine's ExecMode,
            // each rank committing its staged owned writes after its
            // last chunk (RHS-before-LHS within the rank).
            let cx = self.forall_cx(&prog, f);
            let results: Vec<Result<ScatterOut, String>> = m.local_phase_map(|rank, mem| {
                let r = rank as usize;
                let lists = std::slice::from_ref(&iter_lists[r]);
                match run_forall_rank(cx, rank, mem, &resolved[r], lists) {
                    Ok(out) => {
                        out.stage.commit(cx, mem);
                        (Ok(out.scat), out.ops)
                    }
                    Err(e) => (Err(e), 0),
                }
            });
            results
                .into_iter()
                .collect::<Result<_, String>>()
                .map_err(VmError)?
        };
        // Post-loop scatter (paper §4 cases 3/4).
        if let Some(invertible) = scatter {
            let (name, dad) = (&dst.name, &dst.dad);
            driver::scatter(m, &mut self.sched, name, dad, &scatter_out, invertible)?;
        }
        Ok(())
    }

    /// What the chunk loops of one execution of `f` evaluate against.
    fn forall_cx<'a>(&'a self, prog: &'a VmProgram, f: &'a VmForall) -> ForallCx<'a> {
        ForallCx {
            prog,
            f,
            vars: &self.vars,
            scalars: &self.scalars,
        }
    }

    /// The iteration lists of this execution of FORALL `fi`:
    /// [`dispatch::iteration_lists`] of the evaluated bounds and owner
    /// filter — or, `in_loop`, the statement's previous execution's when
    /// both evaluated to the same values (the layouts are the same:
    /// [`Engine::relayout`] drops the memo otherwise), which is what a
    /// sweep loop's FORALLs do on every iteration after the first.
    fn iteration_lists(
        &mut self,
        fi: u16,
        m: &Machine,
        loops: &[(&Partition, [i64; 3])],
        filter: &[(ArrId, usize, i64)],
        in_loop: bool,
    ) -> VmResult<Arc<IterLists>> {
        if !in_loop {
            return dispatch::iteration_lists(m, &self.arrays, loops, filter).map(Arc::new);
        }
        let key = || {
            let bounds = loops.iter().flat_map(|(_, bounds)| *bounds);
            bounds.chain(filter.iter().map(|&(_, _, index)| index))
        };
        let memo = &mut self.lists[fi as usize];
        if let Some(kept) = memo
            .as_ref()
            .filter(|kept| kept.key.iter().copied().eq(key()))
        {
            self.dispatch_reused += 1;
            return Ok(kept.lists.clone());
        }
        let lists = Arc::new(dispatch::iteration_lists(m, &self.arrays, loops, filter)?);
        *memo = Some(ListMemo {
            key: key().collect(),
            lists: lists.clone(),
        });
        Ok(lists)
    }
    // ---- native tier dispatch ------------------------------------------

    /// The rank-independent half of a bind: every affine form of
    /// `kernel` — site subscripts, the writes', the `lins` — folded over
    /// the current outer loop variables and INTEGER scalars, and the REAL
    /// scalars the closures read, once per execution. `None` when an
    /// INTEGER scalar a form folds does not hold `Value::Int` or a REAL
    /// one does not hold `Value::Real`.
    fn fold_native<'k>(&self, kernel: &'k NativeKernel, f: &VmForall) -> Option<Folded<'k>> {
        let lin = |lin: &Lin| self.bind_lin(lin, kernel);
        let sites = |sites: &Sites| {
            let site = |s: &ReadSite| {
                Some(match s {
                    ReadSite::Array { acc, subs } => FoldedSite::Array {
                        acc: *acc,
                        subs: subs.iter().map(lin).collect::<Option<_>>()?,
                    },
                    ReadSite::Gathered { gather } => FoldedSite::Gathered {
                        tmp: f.gathers[*gather as usize].tmp,
                    },
                })
            };
            Some(FoldedSites {
                reads: sites.reads.iter().map(site).collect::<Option<_>>()?,
                ireads: sites.ireads.iter().map(site).collect::<Option<_>>()?,
                lins: sites.lins.iter().map(lin).collect::<Option<_>>()?,
                scalars: (sites.scalar_slots.iter())
                    .map(|&slot| match self.scalars[slot as usize] {
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
    fn bind_lin(&self, lin: &Lin, kernel: &NativeKernel) -> Option<NatAff> {
        let mut aff = NatAff {
            base: lin.base,
            k: vec![0; kernel.var_slots.len()],
        };
        for &(slot, c) in &lin.vterms {
            match kernel.var_slots.iter().position(|&s| s == slot) {
                Some(j) => aff.k[j] = aff.k[j].wrapping_add(c),
                None => aff.base = ops::affine(c, self.vars[slot as usize], aff.base),
            }
        }
        for &(slot, c) in &lin.sterms {
            match self.scalars[slot as usize] {
                Value::Int(v) => aff.base = ops::affine(c, v, aff.base),
                _ => return None,
            }
        }
        Some(aff)
    }
}

/// Unstructured read `gi` of the FORALL `cx.f`: this tier's inspector
/// feeding the shared request list and executor. On a rank the native
/// tier bound (`bound`), the subscripts are INTEGER box kernels evaluated
/// a box of iterations at a time; otherwise the bytecode chunk loop
/// evaluates the mask and subscripts of every local iteration — in
/// iteration order either way. `dispatched` is the execution's
/// `(iteration lists, resolved accessors, native bind)`.
fn exec_gather(
    cx: ForallCx<'_>,
    src: &DistArray,
    sched: &mut RunSchedules,
    gi: usize,
    g: &GatherSpec<ExprCode>,
    m: &mut Machine,
    (iter_lists, resolved, bound): (
        &[Vec<Vec<i64>>],
        &[Vec<Option<ResolvedAcc>>],
        Option<&[Option<NatRank<'_>>]>,
    ),
) -> VmResult<()> {
    let prog = cx.prog;
    let mut reqs = GatherRequests::new(m, &src.name, &src.dad);
    for (rank, lists) in iter_lists.iter().enumerate() {
        if lists.iter().any(|l| l.is_empty()) {
            continue;
        }
        if let Some(nr) = bound.and_then(|b| b[rank].as_ref()) {
            let name = |a: ArrId| prog.arrays[a].name.as_str();
            inspect_boxes(nr, gi, lists, &mut m.mems[rank], name, |subs| {
                reqs.push_row(rank as i64, subs)
            })?;
            continue;
        }
        // Masks and subscripts must not depend on gathered values.
        let mut ev = Chunk::new(cx, rank as i64, &m.mems[rank], &resolved[rank], false);
        let mut rows = Vec::new();
        ev.for_each(lists, |ev| {
            ev.mask()?;
            ev.eval_subs(&g.subs)?;
            rows.clear();
            columns::store_rows(&mut rows, 0, 1, ev.n, &ev.subs, &mut ev.pool);
            reqs.push_row(rank as i64, &rows).map_err(|e| e.0)
        })
        .map_err(VmError)?;
    }
    let tmp = &prog.arrays[g.tmp];
    Ok(reqs.execute(m, sched, &tmp.name, tmp.ty, g.local_only)?)
}

/// Resolve one accessor of `prog` against the live descriptor in
/// `arrays` for a node at `coords`.
fn resolve_acc(
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
    let mut strides = vec![1i64; ndim];
    for d in (0..ndim.saturating_sub(1)).rev() {
        strides[d] = strides[d + 1] * padded[d + 1];
    }
    ResolvedAcc {
        target,
        dims,
        extents,
        padded,
        strides,
    }
}

/// The engine's [`ComputeSink`]: the comm driver decides
/// *when* ghost exchanges post, complete, and commit; this sink runs the
/// interior/boundary chunk loops ([`run_forall_rank`], uncommitted)
/// under the machine's `ExecMode` via `local_phase_map`, which charges
/// interior ranks as usual and each rank's boundary slabs as one summed
/// lump (the order of the additions is part of the clock's bits, pinned
/// by the `overlap` lines of `corpus/*.virt`).
struct VmSink<'a> {
    cx: ForallCx<'a>,
    resolved: &'a [Vec<Option<ResolvedAcc>>],
    /// Per rank, the stage of each phase run so far, in order.
    staged: Vec<Vec<Stage>>,
}

impl VmSink<'_> {
    /// Run rank `r`'s iteration spaces `spaces(r)` on every rank, as one
    /// local phase, and keep what each staged.
    fn phase<'s>(
        &mut self,
        m: &mut Machine,
        spaces: impl Fn(usize) -> &'s [Vec<Vec<i64>>] + Sync,
    ) -> VmResult<()> {
        let (cx, resolved) = (self.cx, self.resolved);
        let results: Vec<Result<Stage, String>> = m.local_phase_map(|rank, mem| {
            let r = rank as usize;
            match run_forall_rank(cx, rank, mem, &resolved[r], spaces(r)) {
                Ok(out) => (Ok(out.stage), out.ops),
                Err(e) => (Err(e), 0),
            }
        });
        for (rank, r) in results.into_iter().enumerate() {
            self.staged[rank].push(r.map_err(VmError)?);
        }
        Ok(())
    }
}

impl ComputeSink for VmSink<'_> {
    type Error = VmError;

    fn interior(&mut self, m: &mut Machine, lists: &[Vec<Vec<i64>>]) -> VmResult<()> {
        self.phase(m, |r| std::slice::from_ref(&lists[r]))
    }

    fn boundary(&mut self, m: &mut Machine, slabs: &[Vec<Vec<Vec<i64>>>]) -> VmResult<()> {
        self.phase(m, |r| &slabs[r])
    }

    fn commit(&mut self, m: &mut Machine) -> VmResult<()> {
        for (rank, stages) in std::mem::take(&mut self.staged).into_iter().enumerate() {
            for stage in stages {
                stage.commit(self.cx, &mut m.mems[rank]);
            }
        }
        Ok(())
    }
}

/// The `(arr, dim, c)` triples of `f`'s prelude when it is pure
/// `overlap_shift` (what phase batching and split-phase overlap take).
fn pre_shifts(prog: &VmProgram, f: &VmForall) -> Option<Vec<(ArrId, usize, i64)>> {
    f.pre
        .iter()
        .map(|&c| prog.comms[c as usize].as_overlap_shift())
        .collect()
}

/// One affine form bound to a rank: `base + Σ k[j]·iter_value[j]` over
/// the FORALL variables, outer to inner.
#[derive(Debug, PartialEq)]
struct NatAff {
    base: i64,
    k: Vec<i64>,
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
    fn at(&self, bx: &BoxAt<'_>) -> Walk {
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

    /// `self += s·other`.
    fn add_scaled(&mut self, other: &NatAff, s: i64) {
        self.base += s * other.base;
        for (c, o) in self.k.iter_mut().zip(&other.k) {
            *c += s * o;
        }
    }

    /// Whether distinct tuples give distinct values, when variable `j`
    /// ranges over a list whose least gap and whose span (last − first)
    /// are `steps[j]` — a mixed-radix test, sufficient and not necessary:
    /// taking the variables that vary by the least change each can make
    /// (`|coefficient| ×` its list's least gap), every one must out-step
    /// everything the smaller ones can add up to (`|coefficient| ×` their
    /// lists' spans).
    fn one_to_one(&self, steps: impl Iterator<Item = (i64, i64)>) -> bool {
        let mut vars: Vec<(i64, i64)> = (self.k.iter().zip(steps))
            .filter(|&(_, (_, span))| span > 0)
            .map(|(c, (gap, span))| (c.abs() * gap, c.abs() * span))
            .collect();
        vars.sort_unstable();
        let mut below = 0;
        vars.iter().all(|&(least, span)| {
            let apart = least > below;
            below += span;
            apart
        })
    }
}

/// What a bind folds once per execution, for every rank: the kernel's
/// affine forms over the FORALL variables and its REAL scalars.
struct Folded<'k> {
    kernel: &'k NativeKernel,
    /// Per body, in order.
    bodies: Vec<FoldedSites>,
    /// Per gather, in order.
    gathers: Vec<FoldedSites>,
    /// The accessor and subscripts of every owned write, in body order.
    writes: Vec<(u16, Vec<NatAff>)>,
}

/// A [`Sites`] with its forms folded.
struct FoldedSites {
    reads: Vec<FoldedSite>,
    ireads: Vec<FoldedSite>,
    /// Values for [`BoxArgs::lins`].
    lins: Vec<NatAff>,
    /// Snapshot for [`BoxArgs::scalars`].
    scalars: Vec<f64>,
}

/// A [`ReadSite`] with its subscripts folded.
enum FoldedSite {
    Array { acc: u16, subs: Vec<NatAff> },
    Gathered { tmp: ArrId },
}

/// The rank's iteration box and accessor table, as the bind proofs use
/// them.
struct IterBox<'a> {
    table: &'a [Option<ResolvedAcc>],
    /// Least / greatest value of each FORALL variable on this rank.
    lo: &'a [i64],
    hi: &'a [i64],
}

impl IterBox<'_> {
    /// Compose a site's folded subscripts through accessor `acc` into
    /// the array it reaches and its flat padded-offset form — the
    /// symbolic mirror of [`ResolvedAcc::offset`], including both bounds
    /// checks (validated over the iteration box corners instead of per
    /// element).
    fn site(&self, acc: u16, subs: &[NatAff]) -> Option<(ArrId, NatAff)> {
        let racc = self.table[acc as usize].as_ref()?;
        let mut off = NatAff {
            base: 0,
            k: vec![0; self.lo.len()],
        };
        for (k, g) in subs.iter().enumerate() {
            let (gmin, gmax) = g.range(self.lo, self.hi)?;
            if gmin < 0 || gmax >= racc.extents[k] {
                return None;
            }
            let RDim::Affine { a, b } = racc.dims[k] else {
                return None; // CYCLIC / BLOCK-CYCLIC: per-element ownership math
            };
            // The padded index `a·g + b` is affine in `g`: its range is
            // the image of `g`'s.
            let (lmin, lmax) = if a >= 0 {
                (a * gmin + b, a * gmax + b)
            } else {
                (a * gmax + b, a * gmin + b)
            };
            if lmin < 0 || lmax >= racc.padded[k] {
                return None;
            }
            off.add_scaled(g, a * racc.strides[k]);
            off.base += b * racc.strides[k];
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
enum SiteOff {
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
enum View {
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
struct NatSite {
    arr: ArrId,
    off: SiteOff,
    view: View,
}

/// One group of leaf tables ([`Sites`]) bound to one rank.
struct NatSites<'f> {
    /// The rank-independent half: `lins` and `scalars`.
    folded: &'f FoldedSites,
    reads: Vec<NatSite>,
    ireads: Vec<NatSite>,
}

impl NatSites<'_> {
    /// Every array a box of this group views.
    fn arrays(&self) -> impl Iterator<Item = ArrId> + '_ {
        self.reads.iter().chain(&self.ireads).map(|site| site.arr)
    }
}

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

/// Where a bound rank's boxes go.
enum NatOut<'f> {
    /// Owned writes of `arr`: body `i`'s flat padded offset is
    /// `offs[i]`.
    Owned { arr: ArrId, offs: Vec<NatAff> },
    /// The rank's scatter columns: the one body's box is a run of the
    /// value column, `subs` fill the same run of the index column.
    Scatter { subs: &'f [BoxFn<i64>] },
}

/// One kernel body bound to one rank: everything a box needs with no
/// descriptor math, bounds checks, or `Value` boxing left.
struct NatBody<'f> {
    func: &'f BoxKernel,
    sites: NatSites<'f>,
    /// Modelled cost per iteration (identical to the bytecode body's).
    cost: i64,
}

/// One unstructured read's inspector bound to one rank.
struct NatGather<'f> {
    /// Global subscript kernels, one per source dimension.
    subs: &'f [BoxFn<i64>],
    sites: NatSites<'f>,
}

/// A maximal arithmetic-progression run of an iteration list: `len`
/// values from `first` in steps of `stride`, starting at list position
/// `pos`. A BLOCK partition's list is a single run; a list that is no
/// progression is several shorter ones through the same path.
#[derive(Debug, PartialEq)]
struct Run {
    pos: usize,
    len: usize,
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
/// span: what [`NatAff::one_to_one`] asks of a variable.
fn steps(runs: &[Run]) -> (i64, i64) {
    let last = |run: &Run| run.first + (run.len as i64 - 1) * run.stride;
    let within = runs.iter().filter(|run| run.len > 1).map(|run| run.stride);
    let between = runs.windows(2).map(|w| w[1].first - last(&w[0]));
    let span = runs.last().map_or(0, last) - runs.first().map_or(0, |run| run.first);
    (within.chain(between).min().unwrap_or(0), span)
}

/// One box of a rank's iteration space: under the values `outer` of the
/// variables outside the last two, the rows `rows` of the
/// second-innermost variable × the run `run` of the innermost. One box
/// is one kernel call per body.
struct BoxAt<'a> {
    outer: &'a [i64],
    rows: &'a Run,
    run: &'a Run,
    /// Which of the rank's rows — `outer` tuples × the second-innermost
    /// list, in iteration order — the box's first is.
    row0: usize,
    /// Length of the innermost list: iterations per row.
    inner_len: usize,
}

impl BoxAt<'_> {
    /// Which of the rank's iterations the box's first element is.
    fn ordinal(&self) -> usize {
        self.row0 * self.inner_len + self.run.pos
    }
}

/// A kernel bound to one rank: its bodies and inspectors, the boxes of
/// the two innermost variables, and where the boxes are written.
struct NatRank<'f> {
    bodies: Vec<NatBody<'f>>,
    gathers: Vec<NatGather<'f>>,
    /// The runs of the innermost list: what a row spans.
    runs: Vec<Run>,
    /// The runs of the second-innermost list: the rows a box spans.
    row_runs: Vec<Run>,
    out: NatOut<'f>,
    /// `Some`: every box is written straight into the LHS segment,
    /// between these least and greatest flat offsets. `None`: boxes go
    /// to a dense stage that is committed after the phase in element
    /// order (RHS before LHS, last writer as listed) — or, for a scatter
    /// body, handed to the scatter executor as the rank's value column.
    direct: Option<(usize, usize)>,
}

impl<'f> NatRank<'f> {
    /// Form the rank's boxes and decide where they are written.
    ///
    /// **A box never reorders rows.** It spans several values of the
    /// second-innermost variable only when the innermost list is a
    /// single run, so that box order is iteration order; under a broken
    /// innermost list every `(row, run)` is a box of one row, in the
    /// order the element loop visits them (run-major order would change
    /// the last writer of `A(I+J) = …`). A 1-D FORALL is one row.
    fn new(
        mut bodies: Vec<NatBody<'f>>,
        gathers: Vec<NatGather<'f>>,
        out: NatOut<'f>,
        lists: &[Vec<i64>],
        bx: &IterBox<'_>,
    ) -> Self {
        let (inner, rest) = lists.split_last().expect("a FORALL has a variable");
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
        let direct = in_place(&mut bodies, &out, [&row_runs, &runs], lists, bx);
        NatRank {
            bodies,
            gathers,
            runs,
            row_runs,
            out,
            direct,
        }
    }

    /// Whether the rank's owned writes go through the stage.
    fn staged(&self) -> bool {
        matches!(self.out, NatOut::Owned { .. }) && self.direct.is_none()
    }

    /// Every box of the rank over `lists`, in iteration order: the one
    /// walk the run, the commit and the inspector share.
    fn for_each_box(&self, lists: &[Vec<i64>], mut f: impl FnMut(&BoxAt<'_>)) {
        let (inner, rest) = lists.split_last().expect("a FORALL has a variable");
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
    [row_runs, runs]: [&[Run]; 2],
    lists: &[Vec<i64>],
    bx: &IterBox<'_>,
) -> Option<(usize, usize)> {
    let ([body], NatOut::Owned { arr, offs }) = (bodies, out) else {
        return None;
    };
    let write = &offs[0];
    if !(runs.iter()).all(|r| r.len == 1 || write.inner() * r.stride == 1) {
        return None;
    }
    let (wmin, wmax) = write.range(bx.lo, bx.hi)?;
    // The two innermost lists are cut into runs already.
    let one_to_one = OnceCell::new();
    let injective = || {
        let of = |(j, list): (usize, &Vec<i64>)| match lists.len() - 1 - j {
            0 => steps(runs),
            1 => steps(row_runs),
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

/// Bind a folded kernel against this execution's per-rank resolved
/// accessors and iteration lists. Returns `None` — whole FORALL falls
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
fn bind_native<'f>(
    folded: Option<&'f Folded<'_>>,
    iter_lists: &[Vec<Vec<i64>>],
    resolved: &[Vec<Option<ResolvedAcc>>],
) -> Option<Vec<Option<NatRank<'f>>>> {
    let mut ranks = Vec::with_capacity(iter_lists.len());
    let (mut lo, mut hi) = (Vec::new(), Vec::new());
    for (lists, table) in iter_lists.iter().zip(resolved) {
        if lists.iter().any(|l| l.is_empty()) {
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
/// order, handed to `push` row-major.
fn inspect_boxes<'p, E>(
    nr: &NatRank<'_>,
    gi: usize,
    lists: &[Vec<i64>],
    mem: &mut NodeMemory,
    name: impl Fn(ArrId) -> &'p str,
    mut push: impl FnMut(&[i64]) -> Result<(), E>,
) -> Result<(), E> {
    let g = &nr.gathers[gi];
    // Lazily-allocated segments expose no raw slice until their buffer
    // exists (`LocalArray::data`).
    for arr in g.sites.arrays() {
        mem.array_mut(name(arr)).materialize();
    }
    // Inspector subscripts read no gathered value and alias no write.
    let mut boxes = SiteBoxes::<i64>::new(&g.sites, mem, &name, [&[], &[]]);
    let (mut cols, mut dense, mut pool) = (Vec::new(), Vec::new(), Pool::default());
    let mut result = Ok(());
    nr.for_each_box(lists, |bx| {
        if result.is_err() {
            return;
        }
        let args = boxes.args(&g.sites, bx);
        cols.resize(args.rows * args.len * g.subs.len(), 0);
        let dense_rows = (0, args.len);
        index_box(g.subs, &args, &mut cols, dense_rows, &mut dense, &mut pool);
        result = push(&cols);
    });
    result
}

/// Execute a bound native kernel: one local phase under the machine's
/// `ExecMode`, same cost charging and same resulting segment as the
/// bytecode loop — only the work is box kernels over raw slices.
/// `columns` is the destination's element type when the body is a
/// vector-subscripted write: every rank's scatter columns are returned
/// then (empty ones for ranks with no iteration), nothing otherwise.
fn run_native_forall(
    prog: &VmProgram,
    m: &mut Machine,
    bound: &[Option<NatRank<'_>>],
    iter_lists: &[Vec<Vec<i64>>],
    columns: Option<ElemType>,
) -> Vec<ScatterOut> {
    let run = |rank: i64, mem: &mut NodeMemory| match &bound[rank as usize] {
        Some(nr) => run_native_rank(nr, &iter_lists[rank as usize], mem, |a| {
            &prog.arrays[a].name
        }),
        None => (None, 0),
    };
    let Some(ty) = columns else {
        m.local_phase(|rank, mem| run(rank, mem).1);
        return Vec::new();
    };
    (m.local_phase_map(run).into_iter())
        .map(|out| out.unwrap_or_else(|| ScatterOut::new(ty)))
        .collect()
}

/// One rank's share of [`run_native_forall`], on the lane of the
/// written array's element type.
fn run_native_rank<'p>(
    nr: &NatRank<'_>,
    lists: &[Vec<i64>],
    mem: &mut NodeMemory,
    name: impl Fn(ArrId) -> &'p str,
) -> (Option<ScatterOut>, i64) {
    match nr.bodies[0].func {
        BoxKernel::Real(_) => run_native_boxes::<f64>(nr, lists, mem, name),
        BoxKernel::Int(_) => run_native_boxes::<i64>(nr, lists, mem, name),
    }
}

/// Every box of the rank, every body — one kernel call. Returns the
/// scatter columns, if the body is a scatter, and the modelled cost.
fn run_native_boxes<'p, T: Elem>(
    nr: &NatRank<'_>,
    lists: &[Vec<i64>],
    mem: &mut NodeMemory,
    name: impl Fn(ArrId) -> &'p str,
) -> (Option<ScatterOut>, i64) {
    let (bodies, nb) = (&nr.bodies, nr.bodies.len());
    let inner_len = lists.last().expect("a bound rank has a variable").len();
    // Lazily-allocated segments expose no raw slice until their buffer
    // exists (`LocalArray::data`); force every array this phase views.
    for arr in bodies.iter().flat_map(|b| b.sites.arrays()) {
        mem.array_mut(name(arr)).materialize();
    }
    let tuples: usize = lists.iter().map(|l| l.len()).product();
    let cost = bodies.iter().map(|b| b.cost).sum::<i64>() * tuples as i64;
    // In-place boxes borrow the written segment mutably next to the
    // shared read views, so it leaves the node memory for the phase.
    let mut lhs = match (&nr.out, nr.direct) {
        (NatOut::Owned { arr, .. }, Some(_)) => {
            let seg = mem.remove_array(name(*arr));
            Some(seg.expect("the written array is allocated on this node"))
        }
        _ => None,
    };
    // Stage layout: per row of the rank, one dense row per body. A
    // scatter body is alone, so its stage is the value column in
    // iteration order, next to the row-major index column.
    let mut stage = vec![T::default(); if lhs.is_some() { 0 } else { tuples * nb }];
    let scatter = match &nr.out {
        NatOut::Scatter { subs } => Some(*subs),
        NatOut::Owned { .. } => None,
    };
    let mut index = vec![0i64; tuples * scatter.map_or(0, <[_]>::len)];
    {
        // In place, the segment splits around what the rank writes: the
        // proofs of `in_place` put every read of it on one side.
        let (halves, written, base): ([&[T]; 2], &mut [T], usize) = match (&mut lhs, nr.direct) {
            (Some(seg), Some((lo, hi))) => {
                let (below, rest) = T::slice_mut(seg.data_mut()).split_at_mut(lo);
                let (written, above) = rest.split_at_mut(hi + 1 - lo);
                ([below, above], written, lo)
            }
            _ => ([&[], &[]], &mut stage, 0),
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
        nr.for_each_box(lists, |bx| {
            for (bi, (b, boxes)) in bodies.iter().zip(&mut boxes).enumerate() {
                let (start, row_step) = match &nr.out {
                    NatOut::Owned { offs, .. } if nr.direct.is_some() => {
                        let to = offs[bi].at(bx);
                        (to.start as usize - base, to.row_step as isize)
                    }
                    _ => (
                        (bx.row0 * nb + bi) * inner_len + bx.run.pos,
                        (nb * inner_len) as isize,
                    ),
                };
                let mut out = BoxOut {
                    data: &mut *written,
                    start,
                    row_step,
                };
                T::kernel(b.func)(&boxes.args(&b.sites, bx), &mut out, &mut pool);
            }
            if let Some((subs, boxes, dense)) = &mut index_boxes {
                let args = boxes.args(&bodies[0].sites, bx);
                let at = (bx.ordinal(), inner_len);
                index_box(subs, &args, &mut index, at, dense, &mut pool);
            }
        });
    }
    let (arr, offs) = match &nr.out {
        NatOut::Scatter { .. } => {
            let out = ScatterOut {
                subs: index,
                vals: T::column(stage),
            };
            return (Some(out), cost);
        }
        NatOut::Owned { arr, offs } => (*arr, offs),
    };
    if let Some(seg) = lhs {
        mem.insert_array(name(arr), seg);
        return (None, cost);
    }
    // Commit in the element loop's order — tuple by tuple, body by body
    // within a tuple — so overlapping writes keep their last writer.
    let seg = T::slice_mut(mem.array_mut(name(arr)).data_mut());
    let mut dst: Vec<Walk> = Vec::with_capacity(nb);
    nr.for_each_box(lists, |bx| {
        dst.clear();
        dst.extend(offs.iter().map(|off| off.at(bx)));
        let len = bx.run.len;
        for r in 0..bx.rows.len {
            let at = (bx.row0 + r) * nb * inner_len + bx.run.pos;
            let row = |to: &Walk| to.start + r as i64 * to.row_step;
            if let [to @ Walk { step: 1, .. }] = &dst[..] {
                let start = row(to) as usize;
                seg[start..start + len].copy_from_slice(&stage[at..at + len]);
                continue;
            }
            for i in 0..len {
                for (bi, to) in dst.iter().enumerate() {
                    seg[(row(to) + i as i64 * to.step) as usize] = stage[at + bi * inner_len + i];
                }
            }
        }
    });
    (None, cost)
}

/// Iterations evaluated per operator dispatch. Large enough that the
/// dispatch, the per-chunk register traffic and a by-name segment lookup
/// per array read vanish per element; small enough that the dozen live
/// columns of a stencil body (8 bytes a lane) stay in L1. It trades
/// nothing a user could want to tune, so it is a constant, not a flag.
const CHUNK: usize = 512;

/// What every rank of one FORALL execution evaluates against.
#[derive(Clone, Copy)]
struct ForallCx<'a> {
    prog: &'a VmProgram,
    f: &'a VmForall,
    /// Loop-variable slots as the statement stream left them: the
    /// enclosing `DO` variables.
    vars: &'a [i64],
    scalars: &'a [Value],
}

/// One rank's staged owned writes, in commit order: executed iteration
/// major, body minor.
#[derive(Debug, Clone)]
struct Stage {
    /// Flat padded offsets into the written segment.
    offs: Vec<i64>,
    /// The values, already of the written array's element type.
    vals: ArrayData,
}

impl Stage {
    /// Apply the writes to the FORALL's destination on this node: the
    /// first body assignment's array (lowering rejects mixed-array owned
    /// bodies).
    fn commit(&self, cx: ForallCx<'_>, mem: &mut NodeMemory) {
        if self.offs.is_empty() {
            return;
        }
        let arr = mem.array_mut(&cx.prog.arrays[cx.f.body[0].arr].name);
        arr.scatter_flat(self.offs.iter().map(|&off| off as usize), &self.vals);
    }
}

/// What one rank's chunk loop produces: staged owned writes, scatter
/// writes for the post-loop schedule, and the modelled cost.
struct RankOut {
    stage: Stage,
    scat: ScatterOut,
    ops: i64,
}

/// The per-rank FORALL loop over each iteration space of `spaces` in
/// turn (the rank's whole space; or an interior sub-product; or its
/// boundary slabs): mask and body register code a chunk at a time, owned
/// writes staged — uncommitted, the caller commits them once every phase
/// has run — and scatter writes collected.
fn run_forall_rank(
    cx: ForallCx<'_>,
    rank: i64,
    mem: &NodeMemory,
    table: &[Option<ResolvedAcc>],
    spaces: &[Vec<Vec<i64>>],
) -> Result<RankOut, String> {
    let ty = cx.prog.arrays[cx.f.body[0].arr].ty;
    let mut out = RankOut {
        stage: Stage {
            offs: Vec::new(),
            vals: ArrayData::zeros(ty, 0),
        },
        scat: ScatterOut::new(ty),
        ops: 0,
    };
    if spaces.iter().all(|lists| lists.iter().any(Vec::is_empty)) {
        return Ok(out);
    }
    let mut ev = Chunk::new(cx, rank, mem, table, true);
    for lists in spaces {
        ev.for_each(lists, |ev| ev.run_bodies(&mut out))?;
    }
    Ok(out)
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
    fn new(
        cx: ForallCx<'a>,
        rank: i64,
        mem: &'a NodeMemory,
        table: &'a [Option<ResolvedAcc>],
        gathered: bool,
    ) -> Self {
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
            table,
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

    /// The chunk driver: walk the cartesian product of `lists` (last
    /// variable fastest) [`CHUNK`] tuples at a time through `body`. A
    /// chunk that faults is walked again one tuple at a time, so the
    /// error returned is the first faulting iteration's first fault —
    /// whatever other lanes of the chunk would have faulted too.
    fn for_each(
        &mut self,
        lists: &[Vec<i64>],
        mut body: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        let total: usize = lists.iter().map(Vec::len).product();
        let mut pos = 0;
        while pos < total {
            let n = CHUNK.min(total - pos);
            let executed = self.executed;
            self.load(lists, pos, n);
            if let Err(e) = body(self) {
                if n > 1 {
                    self.executed = executed;
                    for lane in pos..pos + n {
                        self.load(lists, lane, 1);
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
    /// `pos..pos + n` of the product of `lists`; no `ReadSeq` site of it
    /// has had its turn yet.
    fn load(&mut self, lists: &[Vec<i64>], pos: usize, n: usize) {
        let (inner, outer) = lists.split_last().expect("a FORALL has a variable");
        self.cols.iter_mut().for_each(Vec::clear);
        let (mut row, mut at, mut left) = (pos / inner.len(), pos % inner.len(), n);
        while left > 0 {
            let run = left.min(inner.len() - at);
            let mut tuple = row;
            for (col, list) in self.cols.iter_mut().zip(outer).rev() {
                col.resize(col.len() + run, list[tuple % list.len()]);
                tuple /= list.len();
            }
            self.cols[outer.len()].extend_from_slice(&inner[at..at + run]);
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
        let (stage_at, scat_at) = (out.stage.offs.len(), out.scat.vals.len());
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
                    racc.offsets(&self.subs, n, name, self.rank, pool, &mut out.stage.offs)?;
                } else {
                    let mut offs = pool.take::<i64>();
                    racc.offsets(&self.subs, n, name, self.rank, pool, &mut offs)?;
                    columns::store_strided(&mut out.stage.offs, at, owned, n, &Arg::Ref(&offs));
                    pool.give(Reg::Col(ArrayData::Int(offs)));
                }
                columns::store(&mut out.stage.vals, at, owned, n, &rhs, pool);
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
    use crate::native::{match_template, NExpr};
    use f90d_frontend::ast::BinOp;
    use f90d_machine::LocalArray;

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
        for &i in &lists[0] {
            for &j in &lists[1] {
                for &(lhs, [r0, r1]) in bodies {
                    want[at(lhs, i, j)] = pre[r0.0][at(r0, i, j)] + pre[r1.0][at(r1, i, j)];
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
        let (scattered, cost) = run_native_rank(&nr, lists, &mut mem, |a| NAMES[a]);
        assert!(scattered.is_none(), "owned writes scatter nothing");
        let tuples = (lists[0].len() * lists[1].len()) as i64;
        assert_eq!(cost, 3 * bodies.len() as i64 * tuples);
        let got = mem.array("A").data().as_real_slice();
        for (x, (g, w)) in got.iter().zip(&want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "A[{x}]: {g} vs {w}");
        }
        let mut boxes = 0;
        nr.for_each_box(lists, |_| boxes += 1);
        (nr.direct.is_some(), boxes)
    }

    const A_IJ: Site = (0, 0, [COLS, 1]);
    const B_IJ: Site = (1, 0, [COLS, 1]);
    const C_J: Site = (2, 0, [0, 1]);

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
                    let racc = ResolvedAcc {
                        target: 0,
                        dims: vec![dim0.clone(), RDim::Affine { a: 1, b: 2 }],
                        extents: vec![extent, 6],
                        padded: vec![padded, 9],
                        strides: vec![9, 1],
                    };
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
    }
}
