//! The bytecode execution engine: the statement stream.
//!
//! Runs a [`VmProgram`] against a simulated machine, loosely
//! synchronously, charging the machine's virtual-time cost model as it
//! goes. Statements are a flat fetch/decode loop; replicated-context
//! expressions (`eval_scalar`: bounds, scalar assignments, collective
//! operands) evaluate one [`Value`] at a time — there is one of each per
//! statement, not per element. A FORALL runs on the bytecode tier
//! (`crate::chunk`) or the native tier (`crate::bind`, then
//! `crate::boxes`) against the per-run tables this module keeps.

use std::sync::Arc;

use f90d_comm::driver::{
    self, CommDriver, ComputeSink, GatherRequests, PhaseOutcome, ScatterOut, Spaces,
};
use f90d_comm::sched_cache::RunSchedules;
use f90d_distrib::Dad;
use f90d_machine::{ArrayData, Machine, Value};
use f90d_runtime::DistArray;

use crate::bind::{bind_native, fold_native, NatRank};
use crate::boxes::{inspect_boxes, run_native_forall};
use crate::bytecode::*;
use crate::chunk::{self, resolve_acc, ForallCx, ResolvedAcc, Staged};
use crate::dispatch::{self, VmResult};
use crate::ops;

pub use crate::dispatch::{RunReport, VmError};

fn verr<T>(msg: impl Into<String>) -> VmResult<T> {
    Err(VmError(msg.into()))
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
    /// `CompileOptions::exec_mode` (one value; see
    /// [`f90d_machine::ExecMode`]). [`Engine::run`] does not read it: the
    /// field remains only because `benchmark/` sets it (ROADMAP item
    /// 1(e) deletes it).
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
    /// kernel selected, or the bind refused it), blocking or
    /// split-phase alike.
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
        Self::fresh(prog, m, false)
    }

    /// Like [`Engine::new`] but keeps existing array segments (running a
    /// program fragment over state produced by an earlier fragment).
    pub fn new_preserving(prog: Arc<VmProgram>, m: &mut Machine) -> Self {
        Self::fresh(prog, m, true)
    }

    fn fresh(prog: Arc<VmProgram>, m: &mut Machine, keep_existing: bool) -> Self {
        let arrays = dispatch::allocate(m, &prog.grid_shape, &prog.arrays, keep_existing);
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
        let prog = self.prog.clone();
        let mut regs: Vec<Value> = Vec::new();
        let mut do_stack: Vec<(i64, i64)> = Vec::new();
        let mut pc = 0usize;
        while pc < prog.code.len() {
            match &prog.code[pc] {
                PInst::ScalarAssign { slot, rhs, cost } => {
                    let v = self.eval_scalar(rhs, m, &mut regs)?;
                    // Assignment converts to the variable's declared type.
                    let held = &mut self.scalars[*slot as usize];
                    *held = v.convert_to(held.elem_type());
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
            )?);
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
    /// runs split-phase (paper §5.1/§7 latency hiding): the shared
    /// [`driver::run_overlap`] posts the ghost exchanges around the
    /// interior and boundary phases of the one runner ([`VmSink`]), on
    /// either tier. Array results are those of blocking execution.
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
        // Resolve the accessors this FORALL references that no earlier
        // execution has, per rank. A rank that runs nothing — every
        // consumer skips it before looking at its table — asks for none.
        self.accs.resize(m.nranks() as usize, Vec::new());
        for (rank, lists) in iter_lists.iter().enumerate() {
            if dispatch::runs_nothing(lists) {
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
        let cx = ForallCx {
            prog: &prog,
            f,
            vars: &self.vars,
            scalars: &self.scalars,
            lists: &iter_lists,
            resolved: &self.accs,
        };
        // Native tier: when lowering selected a kernel and every rank's
        // dispatch preconditions hold, the box kernels run instead of
        // the bytecode chunk loop — in the inspector below too.
        let folded = f.native.map(|kid| fold_native(&prog.natives[kid], cx));
        let bound = (folded.as_ref()).and_then(|folded| bind_native(folded.as_ref(), cx));
        if let Some(bound) = &bound {
            self.native_matched += 1;
            self.native_staged += bound.iter().flatten().any(NatRank::staged) as u64;
        } else {
            self.native_fallback += 1;
        }
        // Unstructured reads: inspector + vectorized executor.
        for (gi, g) in f.gathers.iter().enumerate() {
            let src = &self.arrays[g.src];
            exec_gather(cx, src, &mut self.sched, gi, g, m, bound.as_deref())?;
        }
        let mut sink = VmSink {
            cx,
            bound: bound.as_deref(),
            staged: Vec::new(),
        };
        if let Some((specs, margins)) = split {
            driver::run_overlap(m, &specs, &margins, &iter_lists, &mut sink)?;
        } else {
            sink.phase(m, &|r| std::slice::from_ref(&iter_lists[r]))?;
            sink.commit(m)?;
        }
        // Post-loop scatter (paper §4 cases 3/4), of the one phase such a
        // FORALL runs (split-phase execution takes owned writes only).
        if let Some(invertible) = f.body.iter().find_map(|b| b.scatter) {
            let dst = &self.arrays[f.body[0].arr];
            let outs: Vec<ScatterOut> = (sink.staged.into_iter().flatten())
                .map(|out| out.map_or_else(|| ScatterOut::new(dst.ty), |out| out.scat))
                .collect();
            driver::scatter(m, &mut self.sched, &dst.name, &dst.dad, &outs, invertible)?;
        }
        Ok(())
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
}

/// Unstructured read `gi` of the FORALL `cx.f`: this tier's inspector
/// feeding the shared request list and executor. On a rank the native
/// tier bound (`bound`), the subscripts are INTEGER box kernels evaluated
/// a box of iterations at a time; otherwise the bytecode chunk loop
/// evaluates the mask and subscripts of every local iteration — in
/// iteration order either way.
fn exec_gather(
    cx: ForallCx<'_>,
    src: &DistArray,
    sched: &mut RunSchedules,
    gi: usize,
    g: &GatherSpec<ExprCode>,
    m: &mut Machine,
    bound: Option<&[Option<NatRank<'_>>]>,
) -> VmResult<()> {
    let mut reqs = GatherRequests::new(m, &src.name, &src.dad);
    for (rank, lists) in cx.lists.iter().enumerate() {
        if dispatch::runs_nothing(lists) {
            continue;
        }
        match bound.and_then(|b| b[rank].as_ref()) {
            Some(nr) => inspect_boxes(cx, nr, gi, rank, &mut m.mems[rank], &mut reqs)?,
            None => chunk::inspect(cx, rank, &m.mems[rank], &g.subs, &mut reqs)?,
        }
    }
    let tmp = &cx.prog.arrays[g.tmp];
    Ok(reqs.execute(m, sched, &tmp.name, tmp.ty, g.local_only)?)
}

/// The engine's one FORALL runner, and its [`ComputeSink`]: a blocking
/// execution is one phase over each rank's whole space, then the commit;
/// a split-phase one is an interior and a boundary phase the comm driver
/// sequences. A phase runs the box kernels where the FORALL is `bound`
/// ([`run_native_forall`]), the chunk loop otherwise
/// ([`chunk::run_phase`]), each rank charged one lump.
struct VmSink<'a> {
    cx: ForallCx<'a>,
    bound: Option<&'a [Option<NatRank<'a>>]>,
    /// What each phase run so far staged, in order, per rank.
    staged: Vec<Vec<Staged>>,
}

impl ComputeSink for VmSink<'_> {
    type Error = VmError;

    fn phase(&mut self, m: &mut Machine, spaces: &Spaces<'_>) -> VmResult<()> {
        self.staged.push(match self.bound {
            Some(bound) => run_native_forall(self.cx, m, bound, spaces),
            None => chunk::run_phase(self.cx, m, spaces)?,
        });
        Ok(())
    }

    fn commit(&mut self, m: &mut Machine) -> VmResult<()> {
        let arr = &self.cx.prog.arrays[self.cx.f.body[0].arr].name;
        for staged in &self.staged {
            for (out, mem) in staged.iter().zip(&mut m.mems) {
                if let Some(out) = out {
                    out.commit(arr, mem);
                }
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
