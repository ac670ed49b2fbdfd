//! The loosely synchronous executor: walks the SPMD IR once, running
//! local statements per rank and communication statements machine-wide,
//! charging the machine's cost model as it goes (ARCHITECTURE.md, "The
//! three execution tiers"). Statement sequencing, tree-expression
//! evaluation and the element loops live here; everything that does not
//! depend on how an expression is evaluated is the shared statement
//! layer's (`f90d_vm::dispatch`, `f90d_comm::driver`).

use std::collections::HashMap;

use f90d_comm::driver::{self, CommDriver, ComputeSink, GatherRequests, PhaseOutcome, ScatterOut};
use f90d_comm::sched_cache::RunSchedules;
use f90d_distrib::{Dad, DistKind};
use f90d_frontend::ast::{BinOp, UnOp};
use f90d_machine::{Machine, Value};
use f90d_runtime::DistArray;
use f90d_vm::dispatch;

use crate::ir::*;

/// Execution error (runtime faults in the compiled program) and the
/// result of one execution — one type each for both executors.
pub use f90d_vm::{RunReport as ExecReport, VmError as ExecError};

type EResult<T> = Result<T, ExecError>;

fn eerr<T>(msg: impl Into<String>) -> EResult<T> {
    Err(ExecError(msg.into()))
}

/// Executor state.
pub struct Executor<'p> {
    prog: &'p SProgram,
    /// Live array table (REDISTRIBUTE may change a descriptor).
    arrays: Vec<DistArray>,
    scalars: HashMap<String, Value>,
    printed: Vec<String>,
    /// Schedule reuse (§7(3), per-run) and the cross-run schedule cache:
    /// toggle `sched.reuse` / `sched.use_global` before running.
    pub sched: RunSchedules,
    /// `OptFlags::comm_compute_overlap`: execute eligible stencil FORALLs
    /// split-phase (ghost-exchange post → interior compute → complete →
    /// boundary compute). Off by default — virtual time changes (that is
    /// the point), array results and PRINT do not.
    pub overlap: bool,
    /// [`CompileOptions::exec_mode`](crate::CompileOptions::exec_mode):
    /// when `Some`, [`Executor::run`] switches the machine to this
    /// local-phase mode (leasing threaded workers from the process-wide
    /// budget) before executing. `None` respects the machine as given.
    /// Virtual metrics are identical either way.
    pub exec: Option<f90d_machine::ExecMode>,
    /// `OptFlags::comm_plan`: honour the phase planner's
    /// [`ForallNode::plan`] annotations, batching each phase's ghost
    /// exchanges through one coalesced exchange sequenced by the shared
    /// [`CommDriver`]. Off (the default) runs the per-statement schedule
    /// even on annotated programs — the annotations are advisory.
    pub plan: bool,
    /// The shared FORALL communication driver (`f90d_comm::driver`):
    /// sequences phase batching, split-phase overlap, and quiescence,
    /// and carries the `comm_plan {groups, fallbacks}` counters the run
    /// trace surfaces.
    pub comm: CommDriver,
}

/// Loop-variable bindings (global Fortran-value semantics).
#[derive(Debug, Clone, Default)]
struct Env {
    vars: Vec<(String, i64)>,
}

impl Env {
    fn get(&self, name: &str) -> Option<i64> {
        self.vars
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    fn push(&mut self, name: &str, v: i64) {
        self.vars.push((name.to_string(), v));
    }

    fn pop(&mut self) {
        self.vars.pop();
    }
}

impl<'p> Executor<'p> {
    /// Prepare an executor and allocate every array on the machine.
    pub fn new(prog: &'p SProgram, m: &mut Machine) -> Self {
        let arrays = dispatch::allocate(m, &prog.grid_shape, &prog.arrays, false);
        Self::fresh(prog, arrays)
    }

    /// Like [`Executor::new`] but reuses existing array segments on the
    /// machine instead of reallocating them — for running a program
    /// fragment over state produced by an earlier fragment (the
    /// benchmark harness times elimination separately from data
    /// generation this way).
    pub fn new_preserving(prog: &'p SProgram, m: &mut Machine) -> Self {
        let arrays = dispatch::allocate(m, &prog.grid_shape, &prog.arrays, true);
        Self::fresh(prog, arrays)
    }

    fn fresh(prog: &'p SProgram, arrays: Vec<DistArray>) -> Self {
        let scalars = prog
            .scalars
            .iter()
            .map(|(name, ty)| (name.clone(), ty.zero()))
            .collect();
        Executor {
            prog,
            arrays,
            scalars,
            printed: Vec::new(),
            sched: RunSchedules::new(),
            overlap: false,
            exec: None,
            plan: false,
            comm: CommDriver::new(),
        }
    }

    /// Run the whole program. Ends with a transport quiescence check:
    /// leaked in-flight messages or never-completed posted receives
    /// surface as an [`ExecError`] instead of being silently dropped.
    pub fn run(&mut self, m: &mut Machine) -> EResult<ExecReport> {
        if let Some(mode) = self.exec {
            m.set_exec(mode);
        }
        let stmts = &self.prog.stmts;
        let mut env = Env::default();
        self.exec_stmts(stmts, m, &mut env)?;
        dispatch::finish_run(m, std::mem::take(&mut self.printed))
    }

    /// Read a scalar by name (post-run inspection).
    pub fn scalar(&self, name: &str) -> Option<Value> {
        self.scalars.get(name).copied()
    }

    /// Current runtime descriptor of array `id`.
    pub fn dad(&self, id: ArrId) -> &Dad {
        &self.arrays[id].dad
    }

    /// Seed a named array from a host row-major buffer before running
    /// (the input-distribution step of the paper's benchmark programs).
    pub fn seed_array(&self, m: &mut Machine, name: &str, data: &f90d_machine::ArrayData) -> bool {
        let Some(id) = self.prog.array_id(name) else {
            return false;
        };
        self.arrays[id].scatter_host(m, data);
        true
    }

    /// Gather a named array to a host buffer (inspection).
    pub fn gather_array(&self, m: &mut Machine, name: &str) -> Option<f90d_machine::ArrayData> {
        let id = self.prog.array_id(name)?;
        Some(self.arrays[id].gather_host(m))
    }

    fn exec_stmts(&mut self, stmts: &[SStmt], m: &mut Machine, env: &mut Env) -> EResult<()> {
        let mut i = 0;
        while i < stmts.len() {
            if self.plan {
                if let SStmt::Forall(f) = &stmts[i] {
                    if let Some(PhaseRole::Lead { len }) = f.plan {
                        let end = (i + len).min(stmts.len());
                        self.exec_phase(&stmts[i..end], m, env)?;
                        i = end;
                        continue;
                    }
                }
            }
            self.exec_stmt(&stmts[i], m, env)?;
            i += 1;
        }
        Ok(())
    }

    /// Execute one planner-formed comm phase: hand every member's ghost
    /// exchanges (against the **live** descriptors) to the shared driver,
    /// which deduplicates and batches them into one coalesced exchange,
    /// then run the members with their preludes skipped. If runtime
    /// planning refuses the batch, fall back to bit-identical
    /// per-statement execution — the annotations are advisory, the `pre`
    /// lists are still in place.
    fn exec_phase(&mut self, stmts: &[SStmt], m: &mut Machine, env: &mut Env) -> EResult<()> {
        let mut specs = Vec::new();
        for s in stmts {
            let SStmt::Forall(f) = s else {
                return eerr("comm phase contains a non-FORALL statement");
            };
            let Some(shifts) = pre_shifts(f) else {
                return eerr("comm phase member has a non-overlap-shift prelude");
            };
            specs.extend(dispatch::ghost_specs(
                m,
                &mut self.sched,
                &self.arrays,
                &shifts,
            ));
        }
        let skip_pre = self.comm.phase_exchange(m, specs)? == PhaseOutcome::Exchanged;
        for s in stmts {
            let SStmt::Forall(f) = s else { unreachable!() };
            self.exec_forall(f, m, env, skip_pre)?;
        }
        Ok(())
    }

    fn exec_stmt(&mut self, s: &SStmt, m: &mut Machine, env: &mut Env) -> EResult<()> {
        match s {
            SStmt::Comm(c) => self.exec_comm(c, m, env),
            SStmt::Forall(f) => self.exec_forall(f, m, env, false),
            SStmt::ScalarAssign { name, rhs } => {
                let ops = rhs.op_count();
                let v = self.eval_scalar(rhs, m, env)?;
                self.scalars.insert(name.clone(), v);
                for r in 0..m.nranks() {
                    m.transport.charge_elem_ops(r, ops.max(1));
                }
                Ok(())
            }
            SStmt::OwnerAssign { arr, subs, rhs } => {
                let g: Vec<i64> = subs
                    .iter()
                    .map(|e| self.eval_scalar(e, m, env).map(|v| v.as_int()))
                    .collect::<EResult<_>>()?;
                let v = self.eval_scalar(rhs, m, env)?;
                let cost = rhs.op_count().max(1);
                Ok(dispatch::owner_assign(m, &self.arrays[*arr], &g, v, cost)?)
            }
            SStmt::DoSeq {
                var,
                lb,
                ub,
                st,
                body,
            } => {
                let lb = self.eval_scalar(lb, m, env)?.as_int();
                let ub = self.eval_scalar(ub, m, env)?.as_int();
                let st = self.eval_scalar(st, m, env)?.as_int();
                if st == 0 {
                    return eerr("DO stride of zero");
                }
                let mut next = Some(lb);
                while let Some(v) = next.filter(|&v| (st > 0 && v <= ub) || (st < 0 && v >= ub)) {
                    env.push(var, v);
                    let r = self.exec_stmts(body, m, env);
                    env.pop();
                    r?;
                    for rank in 0..m.nranks() {
                        m.transport.charge_elem_ops(rank, 1); // loop control
                    }
                    // An iterate that overflows lies beyond any bound.
                    next = v.checked_add(st);
                }
                Ok(())
            }
            SStmt::If { cond, then, else_ } => {
                let c = self.eval_scalar(cond, m, env)?.as_bool();
                for rank in 0..m.nranks() {
                    m.transport.charge_elem_ops(rank, cond.op_count().max(1));
                }
                if c {
                    self.exec_stmts(then, m, env)
                } else {
                    self.exec_stmts(else_, m, env)
                }
            }
            SStmt::Print { items } => {
                let mut line = String::new();
                for (k, e) in items.iter().enumerate() {
                    if k > 0 {
                        line.push(' ');
                    }
                    match e {
                        PrintItem::Text(t) => line.push_str(t),
                        PrintItem::Val(v) => {
                            let v = self.eval_scalar(v, m, env)?;
                            line.push_str(&v.to_string());
                        }
                    }
                }
                self.printed.push(line);
                Ok(())
            }
            SStmt::Runtime(call) => {
                let call = call.try_map(|e| self.eval_scalar(e, m, env))?;
                dispatch::exec_runtime(m, &mut self.arrays, &self.prog.arrays, &call)
            }
        }
    }

    /// Evaluate the call's operands, run the shared dispatcher, store
    /// the result into the call's scalar target if it has one.
    fn exec_comm(&mut self, c: &CommStmt, m: &mut Machine, env: &Env) -> EResult<()> {
        let call = c.try_map(|e| self.eval_scalar(e, m, env), |_| ())?;
        if let Some(v) = dispatch::exec_comm(m, &self.arrays, &mut self.sched, &call)? {
            let target = c.target().expect("a comm with a result has a target");
            self.scalars.insert(target.clone(), v);
        }
        Ok(())
    }

    // ---- FORALL ------------------------------------------------------------

    /// One FORALL. `skip_pre`: a phase lead already posted (and
    /// completed) this statement's ghost exchanges, so phase members run
    /// with their prelude skipped — which also bypasses the split-phase
    /// overlap path, whose post/finish would re-send the exchanges.
    ///
    /// Under `overlap`, an eligible stencil ([`dispatch::overlap_plan`])
    /// runs split-phase (paper §5.1/§7 latency hiding), sequenced by the
    /// shared [`driver::run_overlap`]: the driver posts the ghost
    /// exchanges, runs this backend's interior tree walk while the
    /// strips are on the wire, completes the exchanges, runs the
    /// boundary slabs, and commits — array results are bit-identical to
    /// the blocking path, only the virtual clocks differ.
    fn exec_forall(
        &mut self,
        f: &ForallNode,
        m: &mut Machine,
        env: &mut Env,
        skip_pre: bool,
    ) -> EResult<()> {
        let plain = f.gathers.is_empty()
            && f.owner_filter.is_empty()
            && f.body.iter().all(|b| b.write == WritePlan::Owned);
        let split = if self.overlap && !skip_pre && plain {
            let parts = f.vars.iter().map(|v| &v.part);
            pre_shifts(f)
                .and_then(|s| dispatch::overlap_plan(m, &mut self.sched, &self.arrays, &s, parts))
        } else {
            None
        };
        // Blocking communication prelude.
        if split.is_none() && !skip_pre {
            for c in &f.pre {
                self.exec_comm(c, m, env)?;
            }
        }
        // Owner filter and bounds are replicated values: evaluate once.
        let mut filter = Vec::with_capacity(f.owner_filter.len());
        for (arr, dim, idx) in &f.owner_filter {
            filter.push((*arr, *dim, self.eval_scalar(idx, m, env)?.as_int()));
        }
        let mut loops = Vec::with_capacity(f.vars.len());
        for spec in &f.vars {
            let lb = self.eval_scalar(&spec.lb, m, env)?.as_int();
            let ub = self.eval_scalar(&spec.ub, m, env)?.as_int();
            let st = self.eval_scalar(&spec.st, m, env)?.as_int();
            loops.push((&spec.part, [lb, ub, st]));
        }
        let iter_lists = dispatch::iteration_lists(m, &self.arrays, &loops, &filter)?;
        let nranks = m.nranks() as usize;
        if let Some((specs, margins)) = split {
            let mut sink = TreeSink {
                ex: self,
                f,
                env,
                staged: vec![Vec::new(); nranks],
            };
            return driver::run_overlap(m, &specs, &margins, &iter_lists, &mut sink);
        }
        // Unstructured reads: inspector + vectorized executor.
        for g in &f.gathers {
            self.exec_gather(f, g, m, env, &iter_lists)?;
        }
        // Main loop, rank by rank (loosely synchronous local phase).
        let mut scatter_out = vec![ScatterOut::new(self.arrays[f.body[0].arr].ty); nranks];
        for rank in 0..m.nranks() {
            let lists = &iter_lists[rank as usize];
            if lists.iter().any(|l| l.is_empty()) {
                continue;
            }
            let mut staged: Vec<(usize, Value)> = Vec::new();
            let ops = self.forall_rank_run(
                f,
                m,
                rank,
                env,
                lists,
                &mut staged,
                &mut scatter_out[rank as usize],
            )?;
            // Commit staged owned writes (FORALL RHS-before-LHS semantics
            // within the rank).
            if !staged.is_empty() {
                let name = &self.prog.arrays[f.body[0].arr].name;
                let arr = m.mems[rank as usize].array_mut(name);
                for (off, v) in staged {
                    arr.set_flat(off, v);
                }
            }
            m.transport.charge_elem_ops(rank, ops);
        }
        // Post-loop scatter (paper §4 cases 3/4).
        let scatter = f.body.iter().find_map(|b| match &b.write {
            WritePlan::ScatterSeq { invertible } => Some(*invertible),
            WritePlan::Owned => None,
        });
        if let Some(invertible) = scatter {
            let dst = &self.arrays[f.body[0].arr];
            let (name, dad) = (&dst.name, &dst.dad);
            driver::scatter(m, &mut self.sched, name, dad, &scatter_out, invertible)?;
        }
        Ok(())
    }

    /// One rank's element loop over the plain cartesian product of
    /// `lists` (the full owned iteration space, an interior sub-product,
    /// or one boundary slab). Owned writes are staged into `staged`
    /// (committed by the caller — after both phases under overlap);
    /// scatter writes accumulate into `scatter_out` for the post-loop
    /// executor. Returns the modelled element-operation cost.
    #[allow(clippy::too_many_arguments)]
    fn forall_rank_run(
        &self,
        f: &ForallNode,
        m: &Machine,
        rank: i64,
        env: &mut Env,
        lists: &[Vec<i64>],
        staged: &mut Vec<(usize, Value)>,
        scatter_out: &mut ScatterOut,
    ) -> EResult<i64> {
        if lists.iter().any(|l| l.is_empty()) {
            return Ok(0);
        }
        let var_names: Vec<String> = f.vars.iter().map(|v| v.var.clone()).collect();
        let mask_ops = f.mask.as_ref().map_or(0, |m| m.op_count_cse(&var_names));
        let body_ops: Vec<i64> = f
            .body
            .iter()
            .map(|b| b.rhs.op_count_cse(&var_names) + 2)
            .collect();
        let mut seq_counters = vec![0usize; f.gathers.len()];
        let mut ops: i64 = 0;
        let mut cursor = vec![0usize; lists.len()];
        'iter: loop {
            for (spec, (&c, list)) in f.vars.iter().zip(cursor.iter().zip(lists)) {
                env.push(&spec.var, list[c]);
            }
            let mut run = true;
            if let Some(mask) = &f.mask {
                ops += mask_ops;
                run = self
                    .eval_elem(mask, m, rank, env, &mut seq_counters)?
                    .as_bool();
            }
            if run {
                for (bi, b) in f.body.iter().enumerate() {
                    let v = self.eval_elem(&b.rhs, m, rank, env, &mut seq_counters)?;
                    ops += body_ops[bi];
                    let g: Vec<i64> = b
                        .subs
                        .iter()
                        .map(|e| {
                            self.eval_elem(e, m, rank, env, &mut seq_counters)
                                .map(|x| x.as_int())
                        })
                        .collect::<EResult<_>>()?;
                    match &b.write {
                        WritePlan::Owned => {
                            let off = self.owned_offset(b.arr, m, rank, &g)?;
                            staged.push((off, v));
                        }
                        WritePlan::ScatterSeq { .. } => {
                            scatter_out.push(&g, v);
                        }
                    }
                }
            }
            for _ in 0..f.vars.len() {
                env.pop();
            }
            // advance cartesian cursor (last var fastest)
            let mut d = lists.len();
            loop {
                if d == 0 {
                    break 'iter;
                }
                d -= 1;
                cursor[d] += 1;
                if cursor[d] < lists[d].len() {
                    break;
                }
                cursor[d] = 0;
            }
        }
        Ok(ops)
    }

    /// Unstructured read: this tier's inspector (tree evaluation of the
    /// mask and subscripts for every local iteration, in iteration
    /// order) feeding the shared request list and executor.
    fn exec_gather(
        &mut self,
        f: &ForallNode,
        g: &GatherSpec,
        m: &mut Machine,
        env: &mut Env,
        iter_lists: &[Vec<Vec<i64>>],
    ) -> EResult<()> {
        let src = &self.arrays[g.src];
        let mut reqs = GatherRequests::new(m, &src.name, &src.dad);
        for (rank, lists) in iter_lists.iter().enumerate() {
            if lists.iter().any(|l| l.is_empty()) {
                continue;
            }
            let rank = rank as i64;
            // Masks and subscripts must not depend on gathered values.
            let mut no_seq = vec![usize::MAX; f.gathers.len()];
            let mut cursor = vec![0usize; lists.len()];
            'iter: loop {
                for (spec, (&c, list)) in f.vars.iter().zip(cursor.iter().zip(lists)) {
                    env.push(&spec.var, list[c]);
                }
                let run = match &f.mask {
                    Some(mask) => self.eval_elem(mask, m, rank, env, &mut no_seq)?.as_bool(),
                    None => true,
                };
                if run {
                    let gidx: Vec<i64> = g
                        .subs
                        .iter()
                        .map(|e| {
                            self.eval_elem(e, m, rank, env, &mut no_seq)
                                .map(|x| x.as_int())
                        })
                        .collect::<EResult<_>>()?;
                    reqs.push(rank, &gidx)?;
                }
                for _ in 0..f.vars.len() {
                    env.pop();
                }
                // advance cartesian cursor (last var fastest)
                let mut d = lists.len();
                loop {
                    if d == 0 {
                        break 'iter;
                    }
                    d -= 1;
                    cursor[d] += 1;
                    if cursor[d] < lists[d].len() {
                        break;
                    }
                    cursor[d] = 0;
                }
            }
        }
        let tmp = &self.prog.arrays[g.tmp];
        Ok(reqs.execute(m, &mut self.sched, &tmp.name, tmp.ty, g.local_only)?)
    }

    // ---- evaluation ----------------------------------------------------------

    /// Offset of global index `g` in `rank`'s segment of array `arr`,
    /// allowing ghost positions on BLOCK dimensions.
    fn owned_offset(&self, arr: ArrId, m: &Machine, rank: i64, g: &[i64]) -> EResult<usize> {
        let dad = &self.arrays[arr].dad;
        let coords = m.grid.coords_of(rank);
        let name = &self.prog.arrays[arr].name;
        let la = m.mems[rank as usize].array(name);
        let mut idx = Vec::with_capacity(g.len());
        for (d, (&gd, dm)) in g.iter().zip(&dad.dims).enumerate() {
            if !(0..dm.extent).contains(&gd) {
                return eerr(format!(
                    "subscript {} out of bounds on dim {d} of {name} (extent {})",
                    gd + 1,
                    dm.extent
                ));
            }
            if !dm.is_distributed() {
                idx.push(gd);
                continue;
            }
            let coord = coords[dm.grid_axis.unwrap()];
            let t = dm.align.apply(gd);
            let l = match dm.dist.kind {
                DistKind::Block => t - coord * dm.dist.block_size(),
                _ => {
                    if dm.dist.proc_of(t) != coord {
                        return eerr(format!(
                            "rank {rank} reads unowned element {:?} of {name}",
                            g
                        ));
                    }
                    dm.dist.local_of(t)
                }
            };
            idx.push(l);
        }
        Ok(la.offset(&idx))
    }

    /// Evaluate in scalar (replicated) context.
    fn eval_scalar(&self, e: &SExpr, m: &Machine, env: &Env) -> EResult<Value> {
        match e {
            SExpr::Const(v) => Ok(*v),
            SExpr::Scalar(n) => {
                // Enclosing DO variables shadow declared scalars.
                if let Some(v) = env.get(n) {
                    return Ok(Value::Int(v));
                }
                self.scalars
                    .get(n)
                    .copied()
                    .ok_or_else(|| ExecError(format!("undefined scalar `{n}`")))
            }
            SExpr::LoopVar(n) => env
                .get(n)
                .map(Value::Int)
                .ok_or_else(|| ExecError(format!("loop variable `{n}` not in scope"))),
            SExpr::Bin(op, l, r) => {
                let a = self.eval_scalar(l, m, env)?;
                let b = self.eval_scalar(r, m, env)?;
                eval_bin(*op, a, b)
            }
            SExpr::Un(op, x) => eval_un(*op, self.eval_scalar(x, m, env)?),
            SExpr::Elemental(name, args) => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval_scalar(a, m, env))
                    .collect::<EResult<_>>()?;
                eval_elemental(name, &vals)
            }
            SExpr::Read { arr, plan, subs } => {
                // Scalar-context reads are only emitted for replicated
                // arrays: every rank holds the value; read from rank 0.
                if !matches!(plan, ReadPlan::Replicated | ReadPlan::Owned) {
                    return eerr("non-replicated read in scalar context");
                }
                let g: Vec<i64> = subs
                    .iter()
                    .map(|s| self.eval_scalar(s, m, env).map(|v| v.as_int()))
                    .collect::<EResult<_>>()?;
                Ok(dispatch::read_elem(m, &self.arrays[*arr], &g)?.1)
            }
        }
    }

    /// Evaluate in element (per-rank, per-iteration) context.
    fn eval_elem(
        &self,
        e: &SExpr,
        m: &Machine,
        rank: i64,
        env: &Env,
        seq_counters: &mut [usize],
    ) -> EResult<Value> {
        match e {
            SExpr::Const(v) => Ok(*v),
            SExpr::Scalar(n) => {
                if let Some(v) = env.get(n) {
                    return Ok(Value::Int(v));
                }
                self.scalars
                    .get(n)
                    .copied()
                    .ok_or_else(|| ExecError(format!("undefined scalar `{n}`")))
            }
            SExpr::LoopVar(n) => env
                .get(n)
                .map(Value::Int)
                .ok_or_else(|| ExecError(format!("loop variable `{n}` not in scope"))),
            SExpr::Bin(op, l, r) => {
                let a = self.eval_elem(l, m, rank, env, seq_counters)?;
                let b = self.eval_elem(r, m, rank, env, seq_counters)?;
                eval_bin(*op, a, b)
            }
            SExpr::Un(op, x) => eval_un(*op, self.eval_elem(x, m, rank, env, seq_counters)?),
            SExpr::Elemental(name, args) => {
                let vals: Vec<Value> = args
                    .iter()
                    .map(|a| self.eval_elem(a, m, rank, env, seq_counters))
                    .collect::<EResult<_>>()?;
                eval_elemental(name, &vals)
            }
            SExpr::Read { arr, plan, subs } => match plan {
                ReadPlan::Owned | ReadPlan::Replicated => {
                    let g: Vec<i64> = subs
                        .iter()
                        .map(|s| {
                            self.eval_elem(s, m, rank, env, seq_counters)
                                .map(|v| v.as_int())
                        })
                        .collect::<EResult<_>>()?;
                    let off = self.owned_offset(*arr, m, rank, &g)?;
                    Ok(m.mems[rank as usize]
                        .array(&self.prog.arrays[*arr].name)
                        .get_flat(off))
                }
                ReadPlan::SlabTmp { tmp, fixed_dim } => {
                    // Shared rank-1 slab-temp contract: `None` means the
                    // slab is the single dummy extent-1 dimension
                    // `slab_dad` padded in, read at zero.
                    let g: Vec<i64> = match driver::slab_kept_dims(subs.len(), *fixed_dim) {
                        Some(kept) => kept
                            .into_iter()
                            .map(|d| {
                                self.eval_elem(&subs[d], m, rank, env, seq_counters)
                                    .map(|v| v.as_int())
                            })
                            .collect::<EResult<_>>()?,
                        None => vec![0],
                    };
                    let off = self.owned_offset(*tmp, m, rank, &g)?;
                    Ok(m.mems[rank as usize]
                        .array(&self.prog.arrays[*tmp].name)
                        .get_flat(off))
                }
                ReadPlan::SameTmp { tmp } => {
                    let g: Vec<i64> = subs
                        .iter()
                        .map(|s| {
                            self.eval_elem(s, m, rank, env, seq_counters)
                                .map(|v| v.as_int())
                        })
                        .collect::<EResult<_>>()?;
                    let off = self.owned_offset(*tmp, m, rank, &g)?;
                    Ok(m.mems[rank as usize]
                        .array(&self.prog.arrays[*tmp].name)
                        .get_flat(off))
                }
                ReadPlan::Seq { tmp, slot } => {
                    let k = seq_counters[*slot];
                    seq_counters[*slot] += 1;
                    Ok(m.mems[rank as usize]
                        .array(&self.prog.arrays[*tmp].name)
                        .get(&[k as i64]))
                }
            },
        }
    }
}

/// The `(arr, dim, c)` triples of `f`'s prelude when it is pure
/// `overlap_shift` (what phase batching and split-phase overlap take).
fn pre_shifts(f: &ForallNode) -> Option<Vec<(ArrId, usize, i64)>> {
    f.pre.iter().map(|c| c.as_overlap_shift()).collect()
}

/// The tree walker's [`ComputeSink`]: the shared driver decides *when*
/// ghost exchanges post, complete, and commit; this sink supplies *how*
/// the interior/boundary element loops evaluate (the plain tree walk of
/// [`Executor::forall_rank_run`]) and how their cost is charged —
/// interior per rank as usual, each rank's boundary slabs as one lump
/// (the VM engine sums identically, keeping backend virtual time
/// bit-equal).
struct TreeSink<'a, 'p> {
    ex: &'a Executor<'p>,
    f: &'a ForallNode,
    env: &'a mut Env,
    staged: Vec<Vec<(usize, Value)>>,
}

impl ComputeSink for TreeSink<'_, '_> {
    type Error = ExecError;

    fn interior(&mut self, m: &mut Machine, lists: &[Vec<Vec<i64>>]) -> EResult<()> {
        for rank in 0..m.nranks() {
            // Overlap-eligible FORALLs have owned writes only.
            let mut no_scatter = ScatterOut::new(self.ex.arrays[self.f.body[0].arr].ty);
            let ops = self.ex.forall_rank_run(
                self.f,
                m,
                rank,
                self.env,
                &lists[rank as usize],
                &mut self.staged[rank as usize],
                &mut no_scatter,
            )?;
            m.transport.charge_elem_ops(rank, ops);
        }
        Ok(())
    }

    fn boundary(&mut self, m: &mut Machine, slabs: &[Vec<Vec<Vec<i64>>>]) -> EResult<()> {
        for rank in 0..m.nranks() {
            let mut no_scatter = ScatterOut::new(self.ex.arrays[self.f.body[0].arr].ty);
            let mut ops = 0;
            for slab in &slabs[rank as usize] {
                ops += self.ex.forall_rank_run(
                    self.f,
                    m,
                    rank,
                    self.env,
                    slab,
                    &mut self.staged[rank as usize],
                    &mut no_scatter,
                )?;
            }
            m.transport.charge_elem_ops(rank, ops);
        }
        Ok(())
    }

    fn commit(&mut self, m: &mut Machine) -> EResult<()> {
        let name = &self.ex.prog.arrays[self.f.body[0].arr].name;
        for (rank, writes) in std::mem::take(&mut self.staged).into_iter().enumerate() {
            if writes.is_empty() {
                continue;
            }
            let arr = m.mems[rank].array_mut(name);
            for (off, v) in writes {
                arr.set_flat(off, v);
            }
        }
        Ok(())
    }
}

// ---- value operators ---------------------------------------------------
//
// Operator semantics live in `f90d_vm::ops`, shared with the bytecode
// engine so the two backends cannot drift apart.

/// Public alias of the value-level binary evaluator (shared with the
/// sequential reference interpreter).
pub fn eval_bin_pub(op: BinOp, a: Value, b: Value) -> EResult<Value> {
    eval_bin(op, a, b)
}

/// Public alias of the unary evaluator.
pub fn eval_un_pub(op: UnOp, v: Value) -> EResult<Value> {
    eval_un(op, v)
}

/// Public alias of the elemental-intrinsic evaluator.
pub fn eval_elemental_pub(name: &str, args: &[Value]) -> EResult<Value> {
    eval_elemental(name, args)
}

fn eval_bin(op: BinOp, a: Value, b: Value) -> EResult<Value> {
    f90d_vm::ops::eval_bin(op, a, b).map_err(ExecError)
}

fn eval_un(op: UnOp, v: Value) -> EResult<Value> {
    f90d_vm::ops::eval_un(op, v).map_err(ExecError)
}

fn eval_elemental(name: &str, args: &[Value]) -> EResult<Value> {
    f90d_vm::ops::eval_elemental(name, args).map_err(ExecError)
}
