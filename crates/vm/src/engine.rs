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
use f90d_comm::sched_cache::{RunSchedules, StmtId};
use f90d_distrib::Dad;
use f90d_frontend::ast::{BinOp, UnOp};
use f90d_machine::{ArrayData, Machine, Value};
use f90d_runtime::DistArray;

use crate::bind::{bind_native, fold_native, BindPlan, Bound, BoundTables, Folded, FoldedTables};
use crate::boxes::{inspect_boxes, run_native_forall, Buffers};
use crate::bytecode::*;
use crate::chunk::{self, resolve_acc, ForallCx, ResolvedAcc, Staged};
use crate::dispatch::{self, RankSpaces, SpacePlan, VmResult};
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
    /// Over the FORALL executions: the ranks [`dispatch::iteration_spaces`]
    /// visited (a step a [`LoopPlan`] instantiated visits its active
    /// ranks), and the ranks that came out with iterations.
    ranks_visited: u64,
    ranks_active: u64,
    /// Rank-phases of the native tier that took their writes from
    /// another rank's instead of running the kernel.
    ranks_copied: u64,
    /// Per FORALL, its plan over the current run of its innermost
    /// enclosing `DO` ([`LoopPlan`]). Emptied by [`Engine::relayout`].
    /// A FORALL refused a plan asks again at its next step: the early
    /// exits of [`Engine::derive_plan`] make a refusal cheap, and keeping
    /// refusals for the run measured within noise (ARCHITECTURE.md,
    /// "What each memo and fork is worth").
    plans: Vec<Option<LoopPlan>>,
    /// `DO` loops entered so far: names one run of a loop.
    do_runs: u64,
    /// Rank bindings of native FORALL executions instantiated from a
    /// [`BindPlan`] instead of proved.
    binds_instantiated: u64,
}

/// The innermost `DO` around a statement as it executes.
#[derive(Clone, Copy)]
struct DoAt {
    var: u16,
    ub: i64,
    st: i64,
    /// Which run of the loop ([`Engine::do_runs`]).
    run: u64,
}

/// One FORALL's plan over the rest of a run of its innermost enclosing
/// `DO` (ROADMAP 6(a), 6(b)): the iteration spaces of every later step
/// ([`SpacePlan`]) and, for a native kernel, its binding ([`BindPlan`]),
/// derived at one step. Chosen from the lowered code alone — the
/// FORALL's bounds must be affine in the DO variable ([`do_slope`]) —
/// and kept for the one run of the loop.
struct LoopPlan {
    run: u64,
    /// The DO variable at the first step, and its change per step.
    k0: i64,
    dk: i64,
    /// The last step of the run.
    last: i64,
    /// The FORALL's evaluated bounds at the first step, and the change of
    /// each `lb` and `ub` per step.
    bounds: Vec<[i64; 3]>,
    slopes: Vec<[i64; 2]>,
    space: SpacePlan,
    bind: Option<BindPlan>,
    /// The spaces of the last step, whose tables the next one reuses.
    last_spaces: Option<RankSpaces>,
}

impl LoopPlan {
    /// Which step of the run the DO variable `k` is, when the bounds
    /// `loops` are the ones the plan predicts there.
    fn step(&self, k: i64, loops: &[(&Partition, [i64; 3])]) -> Option<i64> {
        let (from, dk) = (i128::from(k) - i128::from(self.k0), i128::from(self.dk));
        let t = (from % dk == 0).then_some(from / dk)?;
        let t = i64::try_from(t)
            .ok()
            .filter(|&t| (0..=self.last).contains(&t))?;
        let moved = |[lb, ub, st]: [i64; 3], [dlb, dub]: [i64; 2]| [lb + dlb * t, ub + dub * t, st];
        let same = (self.bounds.iter().zip(&self.slopes).zip(loops))
            .all(|((&bounds, &slopes), (_, now))| moved(bounds, slopes) == *now);
        same.then_some(t)
    }
}

/// The change of the INTEGER value `code` computes per unit of the DO
/// variable `d`, when it is affine in it over a run of the loop: built
/// from literal constants, `d` and other loop variables outside the
/// FORALL (`own` are its variables), by `+`, `-`, negation and products
/// with a literal. Scalars and array elements may change between steps,
/// and anything else is not affine: `None`.
fn do_slope(code: &ExprCode, d: u16, own: &[u16], consts: &[Value]) -> Option<i64> {
    // Per register: the change per unit of `d`, and the value when it is
    // a literal.
    let mut regs: Vec<Option<(i64, Option<i64>)>> = vec![None; code.nregs as usize];
    let var = |slot: u16| -> Option<(i64, Option<i64>)> {
        match slot {
            _ if slot == d => Some((1, None)),
            _ if own.contains(&slot) => None,
            _ => Some((0, None)),
        }
    };
    for op in &code.ops {
        let (dst, v) = match *op {
            Op::Const { dst, k } => match consts[k as usize] {
                Value::Int(v) => (dst, Some((0, Some(v)))),
                _ => (dst, None),
            },
            Op::LoadVar { dst, slot } => (dst, var(slot)),
            Op::Affine { dst, slot, a, .. } => (
                dst,
                var(slot).and_then(|(s, _)| Some((s.checked_mul(a)?, None))),
            ),
            Op::Bin { op, dst, a, b } => {
                let (x, y) = (regs[a as usize], regs[b as usize]);
                let v = x.zip(y).and_then(|((sx, lx), (sy, ly))| {
                    let lits = lx.zip(ly);
                    match op {
                        BinOp::Add => Some((
                            sx.checked_add(sy)?,
                            lits.and_then(|(x, y)| x.checked_add(y)),
                        )),
                        BinOp::Sub => Some((
                            sx.checked_sub(sy)?,
                            lits.and_then(|(x, y)| x.checked_sub(y)),
                        )),
                        BinOp::Mul => match (lx, ly) {
                            (Some(x), Some(y)) => Some((0, x.checked_mul(y))),
                            (_, Some(k)) => Some((sx.checked_mul(k)?, None)),
                            (Some(k), _) => Some((sy.checked_mul(k)?, None)),
                            _ => (sx == 0 && sy == 0).then_some((0, None)),
                        },
                        _ => (sx == 0 && sy == 0).then_some((0, None)),
                    }
                });
                (dst, v)
            }
            Op::Un { op, dst, a } => {
                let v = regs[a as usize].and_then(|(s, l)| match op {
                    UnOp::Neg => Some((s.checked_neg()?, l.and_then(i64::checked_neg))),
                    _ => (s == 0).then_some((0, None)),
                });
                (dst, v)
            }
            Op::Intrin { dst, base, n, .. } => {
                let args = &regs[base as usize..(base + n) as usize];
                (
                    dst,
                    args.iter()
                        .all(|a| matches!(a, Some((0, _))))
                        .then_some((0, None)),
                )
            }
            Op::Read { dst, .. } | Op::LoadScalar { dst, .. } | Op::ReadSeq { dst, .. } => {
                (dst, None)
            }
        };
        regs[dst as usize] = v;
    }
    regs[code.out as usize].map(|(s, _)| s)
}

impl Engine {
    /// Prepare an engine and allocate every array on the machine.
    ///
    /// # Panics
    /// Panics where [`Engine::try_new`] refuses the program.
    pub fn new(prog: Arc<VmProgram>, m: &mut Machine) -> Self {
        Self::try_new(prog, m, false).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`Engine::new`] but keeps existing array segments (running a
    /// program fragment over state produced by an earlier fragment).
    ///
    /// # Panics
    /// Panics where [`Engine::try_new`] refuses the program.
    pub fn new_preserving(prog: Arc<VmProgram>, m: &mut Machine) -> Self {
        Self::try_new(prog, m, true).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Engine::new`], or with `keep_existing` [`Engine::new_preserving`],
    /// that refuses a program whose arrays cannot be allocated
    /// ([`dispatch::allocate`]: a rank segment of 2^32 elements or more)
    /// with an error instead of panicking.
    pub fn try_new(prog: Arc<VmProgram>, m: &mut Machine, keep_existing: bool) -> VmResult<Self> {
        let arrays = dispatch::allocate(m, &prog.grid_shape, &prog.arrays, keep_existing)?;
        let scalars = prog.scalars.iter().map(|(_, ty)| ty.zero()).collect();
        let (nvars, nforalls) = (prog.nvars, prog.foralls.len());
        Ok(Engine {
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
            ranks_visited: 0,
            ranks_active: 0,
            ranks_copied: 0,
            plans: std::iter::repeat_with(|| None).take(nforalls).collect(),
            do_runs: 0,
            binds_instantiated: 0,
        })
    }

    /// An array's descriptor was swapped (REDISTRIBUTE): drop everything
    /// this engine planned against the old layouts. The one invalidation
    /// site of the accessor table and the loop plans — the comm layer's
    /// shift plans need none, their key holds the layout.
    fn relayout(&mut self) {
        self.accs.clear();
        self.plans.iter_mut().for_each(|plan| *plan = None);
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

    /// `(visited, active)`: summed over the FORALL executions, the ranks
    /// the partitioning visited — those inside the window of grid
    /// coordinates that can own an iteration — and the ranks that came
    /// out with iterations. Exact; explains host time only. Equal when
    /// the window is tight.
    pub fn ranks_counts(&self) -> (u64, u64) {
        (self.ranks_visited, self.ranks_active)
    }

    /// Native-tier rank-phases in which a rank took its writes from
    /// the first active rank instead of running the kernel: every
    /// active rank had the same iteration space and single in-place
    /// write, under a body that reads no array, so each would have
    /// written the same values at the same offsets. Exact; each such
    /// rank is still charged its own ops, so it explains host time only.
    pub fn ranks_copied(&self) -> u64 {
        self.ranks_copied
    }

    /// Rank bindings of native FORALL executions inside a `DO` that were
    /// instantiated from the statement's plan of the loop (`BindPlan`)
    /// instead of proved again: each active rank at each step of one of
    /// its pieces of the loop's range but the first. Exact; explains host
    /// time only.
    pub fn binds_instantiated(&self) -> u64 {
        self.binds_instantiated
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
        let mut do_stack: Vec<DoAt> = Vec::new();
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
                                self.exec_phase(&ids, m, do_stack.last().copied())?;
                                pc = j;
                                continue;
                            }
                            // A truncated phase means the annotation and
                            // the instruction stream disagree; run the
                            // always-correct per-statement schedule.
                        }
                    }
                    self.exec_forall(*i, m, false, do_stack.last().copied())?;
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
                        self.do_runs += 1;
                        let run = self.do_runs;
                        do_stack.push(DoAt {
                            var: *var,
                            ub,
                            st,
                            run,
                        });
                        pc += 1;
                    } else {
                        pc = *exit;
                    }
                }
                PInst::DoNext { var, back } => {
                    for r in 0..m.nranks() {
                        m.transport.charge_elem_ops(r, 1); // loop control
                    }
                    let DoAt { ub, st, .. } = *do_stack.last().expect("DoNext outside DO");
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
    fn exec_phase(&mut self, ids: &[u16], m: &mut Machine, in_loop: Option<DoAt>) -> VmResult<()> {
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
    /// innermost `DO` around the statement, which may run it again: a
    /// plan over the rest of the loop's run is worth deriving
    /// ([`LoopPlan`]) — a step of a kept plan instantiates its spaces and
    /// binding instead of partitioning and proving them.
    ///
    /// An unmasked FORALL that would write outside its array is an error
    /// before any rank runs ([`dispatch::check_writes`]); a step of a
    /// plan needs no check, its bounds only narrow.
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
        in_loop: Option<DoAt>,
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
        // This step of a kept plan of the loop, when the bounds are the
        // ones it predicts.
        let k = in_loop.map(|d| self.vars[d.var as usize]);
        let mut plan =
            in_loop.and_then(|d| self.plans[fi as usize].take().filter(|p| p.run == d.run));
        let step = plan.as_ref().zip(k).and_then(|(p, k)| p.step(k, &loops));
        let spaces = match (&mut plan, step) {
            (Some(p), Some(t)) => {
                let mut spaces = p.last_spaces.take().unwrap_or_default();
                let active = p.space.fill(t, &mut spaces);
                self.ranks_visited += active;
                self.ranks_active += active;
                spaces
            }
            _ => {
                if f.mask.is_none() {
                    dispatch::check_writes(&self.arrays, &loops)?;
                }
                let done = dispatch::iteration_spaces(m, &self.arrays, &loops, &filter)?;
                self.ranks_visited += done.visited;
                self.ranks_active += done.spaces.active() as u64;
                done.spaces
            }
        };
        // Resolve the accessors this FORALL references that no earlier
        // execution has, per rank. A rank that runs nothing — every
        // consumer skips it before looking at its table — asks for none.
        self.accs.resize(m.nranks() as usize, Vec::new());
        for rank in 0..m.nranks() as usize {
            if spaces.space(rank).is_empty() {
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
            spaces: &spaces,
            resolved: &self.accs,
        };
        // Native tier: when lowering selected a kernel and every rank's
        // dispatch preconditions hold, the box kernels run instead of
        // the bytecode chunk loop — in the inspector below too. A step of
        // a plan instantiates the plan's binding.
        let kernel = f.native.map(|kid| &prog.natives[kid]);
        let mut lent = match (step, plan.as_mut()) {
            (
                Some(t),
                Some(LoopPlan {
                    bind: Some(bind),
                    space,
                    ..
                }),
            ) => Some((bind, t, &*space)),
            _ => None,
        };
        let folded = match (kernel, &mut lent) {
            (Some(kernel), Some((bind, t, _))) => Some(bind.fold(kernel, *t, &self.scalars)),
            (kernel, _) => kernel.map(|kernel| fold_native(kernel, cx)),
        };
        let bound = match (&folded, lent) {
            (Some(Some(folded)), Some((bind, t, space))) => {
                let bound = bind.bind(folded, t, space, &self.accs);
                bound.map(|(bound, instantiated)| {
                    self.binds_instantiated += instantiated;
                    bound
                })
            }
            (folded, _) => folded
                .as_ref()
                .and_then(|folded| bind_native(folded.as_ref(), cx)),
        };
        if cfg!(debug_assertions) && step.is_some() {
            check_instantiated(
                m,
                &self.arrays,
                (&loops, &filter),
                cx,
                (kernel, bound.as_ref()),
            )?;
        }
        if let Some(bound) = &bound {
            self.native_matched += 1;
            self.native_staged += bound.staged() as u64;
        } else {
            self.native_fallback += 1;
        }
        // Unstructured reads: inspector + vectorized executor.
        for (gi, g) in f.gathers.iter().enumerate() {
            let src = &self.arrays[g.src];
            exec_gather(cx, (fi, gi), src, &mut self.sched, m, bound.as_ref())?;
        }
        let mut sink = VmSink {
            cx,
            bound: bound.as_ref(),
            staged: Vec::new(),
            copied: 0,
        };
        if let Some((specs, margins)) = split {
            driver::run_overlap(m, &specs, &margins, &|r| spaces.space(r), &mut sink)?;
        } else {
            sink.phase(m, &|r| spaces.space(r))?;
            sink.commit(m)?;
        }
        self.ranks_copied += sink.copied;
        // Post-loop scatter (paper §4 cases 3/4), of the one phase such a
        // FORALL runs (split-phase execution takes owned writes only).
        if let Some(invertible) = f.body.iter().find_map(|b| b.scatter) {
            let dst = &self.arrays[f.body[0].arr];
            let outs: Vec<ScatterOut> = (sink.staged.into_iter().flatten())
                .map(|out| out.map_or_else(|| ScatterOut::new(dst.ty), |out| out.scat))
                .collect();
            let stmt = StmtId::Scatter { forall: fi.into() };
            let (name, dad) = (&dst.name, &dst.dad);
            driver::scatter(m, &mut self.sched, stmt, name, dad, &outs, invertible)?;
        }
        // Keep the plan, or derive one from this step.
        let tables = (
            bound.map(Bound::into_tables),
            folded.flatten().map(Folded::into_tables),
        );
        self.plans[fi as usize] = match (plan, step, in_loop.zip(k)) {
            (Some(mut plan), Some(_), _) => {
                if let Some(bind) = &mut plan.bind {
                    bind.give_back(tables.1, tables.0);
                }
                plan.last_spaces = Some(spaces);
                Some(plan)
            }
            (_, _, Some((d, k))) => {
                self.derive_plan((&prog, f, m), (d, k), &loops, &spaces, tables)
            }
            _ => None,
        };
        Ok(())
    }

    /// The plan of FORALL `f` over the rest of the run of the loop `d`
    /// from this step, where its variable is `k`, its bounds are `loops`,
    /// its iteration spaces `spaces`, and a native kernel was folded and
    /// bound as `first`. `None` when the bounds are not affine in the
    /// loop variable or move outwards, or the partitions do not allow one
    /// ([`SpacePlan::new`]). The binding is planned when
    /// [`BindPlan::new`] allows it.
    fn derive_plan(
        &self,
        (prog, f, m): (&VmProgram, &VmForall, &Machine),
        (d, k): (DoAt, i64),
        loops: &[(&Partition, [i64; 3])],
        spaces: &RankSpaces,
        first: (Option<BoundTables>, Option<FoldedTables>),
    ) -> Option<LoopPlan> {
        if !f.owner_filter.is_empty() {
            return None;
        }
        let own: Vec<u16> = f.vars.iter().map(|v| v.var).collect();
        let per_step =
            |code: &ExprCode| do_slope(code, d.var, &own, &prog.consts)?.checked_mul(d.st);
        let mut slopes = Vec::with_capacity(f.vars.len());
        for spec in &f.vars {
            if per_step(&spec.st)? != 0 {
                return None;
            }
            slopes.push([per_step(&spec.lb)?, per_step(&spec.ub)?]);
        }
        let last = (i128::from(d.ub) - i128::from(k)) / i128::from(d.st);
        let last = i64::try_from(last).unwrap_or(i64::MAX);
        let space = SpacePlan::new(m, &self.arrays, loops, &slopes, spaces, last)?;
        let bind = match (f.native, first) {
            (Some(kid), (Some(bound), Some(folded))) => {
                let kernel = &prog.natives[kid];
                let mut one = self.vars.clone();
                one[d.var as usize] = k.checked_add(1)?;
                let cx = ForallCx {
                    prog,
                    f,
                    vars: &one,
                    scalars: &self.scalars,
                    spaces,
                    resolved: &self.accs,
                };
                let one = fold_native(kernel, cx)?;
                let run = (k, d.st, last);
                BindPlan::new(kernel, (folded, bound), one, run, &space, &self.accs)
            }
            _ => None,
        };
        Some(LoopPlan {
            run: d.run,
            k0: k,
            dk: d.st,
            last,
            bounds: loops.iter().map(|&(_, bounds)| bounds).collect(),
            slopes,
            space,
            bind,
            last_spaces: None,
        })
    }
}

/// Debug builds hold every step a plan instantiated to what partitioning
/// and binding it from scratch give: the same spaces on every rank, and
/// — when the binding was instantiated too — the same binding.
fn check_instantiated(
    m: &Machine,
    arrays: &[DistArray],
    (loops, filter): (&[(&Partition, [i64; 3])], &[(ArrId, usize, i64)]),
    cx: ForallCx<'_>,
    (kernel, bound): (Option<&crate::native::NativeKernel>, Option<&Bound<'_>>),
) -> VmResult<()> {
    let scratch = dispatch::iteration_spaces(m, arrays, loops, filter)?.spaces;
    for rank in 0..m.nranks() as usize {
        assert_eq!(
            cx.spaces.space(rank),
            scratch.space(rank),
            "rank {rank}'s space"
        );
    }
    if let (Some(kernel), Some(bound)) = (kernel, bound) {
        let folded = fold_native(kernel, cx);
        let again = bind_native(folded.as_ref(), cx);
        assert!(
            again.is_some_and(|again| again.same(bound)),
            "the instantiated binding"
        );
    }
    Ok(())
}

/// Unstructured read `gi` of the FORALL `cx.f`, number `fi` of the
/// program: this tier's inspector feeding the shared request list and
/// executor. On a rank the native tier bound (`bound`), the subscripts
/// are INTEGER box kernels evaluated a box of iterations at a time;
/// otherwise the bytecode chunk loop evaluates the mask and subscripts
/// of every local iteration — in iteration order either way.
fn exec_gather(
    cx: ForallCx<'_>,
    (fi, gi): (u16, usize),
    src: &DistArray,
    sched: &mut RunSchedules,
    m: &mut Machine,
    bound: Option<&Bound<'_>>,
) -> VmResult<()> {
    let g = &cx.f.gathers[gi];
    let mut reqs = GatherRequests::new(m, &src.name, &src.dad);
    let mut bufs = Buffers::default();
    for rank in 0..m.nranks() as usize {
        if cx.spaces.space(rank).is_empty() {
            continue;
        }
        match bound.and_then(|b| b.rank(rank)) {
            Some(nr) => {
                let mem = &mut m.mems[rank];
                inspect_boxes(cx, (nr, gi, rank), mem, &mut reqs, &mut bufs)?
            }
            None => chunk::inspect(cx, rank, &m.mems[rank], &g.subs, &mut reqs)?,
        }
    }
    let tmp = &cx.prog.arrays[g.tmp];
    let stmt = StmtId::Gather {
        forall: fi.into(),
        gather: gi as u32,
    };
    Ok(reqs.execute(m, sched, stmt, &tmp.name, tmp.ty, g.local_only)?)
}

/// The engine's one FORALL runner, and its [`ComputeSink`]: a blocking
/// execution is one phase over each rank's whole space, then the commit;
/// a split-phase one is an interior and a boundary phase the comm driver
/// sequences. A phase runs the box kernels where the FORALL is `bound`
/// ([`run_native_forall`]), the chunk loop otherwise
/// ([`chunk::run_phase`]), each rank charged one lump.
struct VmSink<'a> {
    cx: ForallCx<'a>,
    bound: Option<&'a Bound<'a>>,
    /// What each phase run so far staged, in order, per rank.
    staged: Vec<Vec<Staged>>,
    /// Rank-phases that took another rank's writes instead of running
    /// the kernel (`boxes::computed_once`).
    copied: u64,
}

impl ComputeSink for VmSink<'_> {
    type Error = VmError;

    fn phase(&mut self, m: &mut Machine, spaces: &Spaces<'_>) -> VmResult<()> {
        self.staged.push(match self.bound {
            Some(bound) => {
                let (staged, copied) = run_native_forall(self.cx, m, bound, spaces);
                self.copied += copied;
                staged
            }
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
