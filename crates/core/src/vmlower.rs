//! Lowering: tree IR → register bytecode.
//!
//! Compiles every expression of the SPMD node program into straight-line
//! register code with a stack-discipline allocator (a subtree's result
//! lands at its stack position, so intrinsic arguments and subscripts
//! come out in consecutive registers for free), resolving scalar and
//! loop-variable names to slots, deduplicating constants and array
//! accessors, folding constant subexpressions, and collapsing integer
//! affine subscripts `a*i + b` into single [`Op::Affine`] instructions.
//! Statement control flow flattens to a jump-linked instruction stream;
//! FORALLs, collectives and runtime calls become table-driven
//! super-instructions carrying the modelled costs of the tree they came
//! from (`op_count` / `op_count_cse`), so virtual time is a property of
//! the node program, not of how it is evaluated.

use std::collections::HashMap;

use f90d_frontend::ast::{BinOp, UnOp};
use f90d_machine::{ElemType, Value};
use f90d_vm::bytecode::{AccPlan, ExprCode, Op, PInst, VmAssign, VmForall, VmProgram};
use f90d_vm::ops::Intrin;
use f90d_vm::stmt;

use crate::ir::*;

type LResult<T> = Result<T, String>;

/// Lower a compiled SPMD program to bytecode with the native kernel
/// tier enabled (equivalent to [`lower_with`] with `native_kernels`
/// true — the tiers are bit-identical, so this is always safe).
pub fn lower(prog: &SProgram) -> LResult<VmProgram> {
    lower_with(prog, true)
}

/// Lower a compiled SPMD program to bytecode.
///
/// When `native_kernels` is set, a post-pass runs
/// [`f90d_vm::native::select`] over every lowered FORALL: straight-line
/// REAL bodies with affine subscripts are monomorphized into prebuilt
/// closures ([`f90d_vm::native::NativeKernel`]) that the engine
/// dispatches to instead of the bytecode element loop, falling back per
/// execution when a dispatch precondition fails. Selection never changes
/// any virtual metric or array bit — it only removes per-instruction
/// dispatch from the hot loops.
pub fn lower_with(prog: &SProgram, native_kernels: bool) -> LResult<VmProgram> {
    let mut lw = Lowerer::new(prog);
    lw.lower_stmts(&prog.stmts)?;
    let arrays = prog.arrays.clone();
    let mut natives = Vec::new();
    if native_kernels {
        for f in &mut lw.foralls {
            if let Some(kernel) =
                f90d_vm::native::select(f, &arrays, &lw.scalars, &lw.consts, &lw.accessors)
            {
                f.native = Some(natives.len());
                natives.push(kernel);
            }
        }
    }
    Ok(VmProgram {
        grid_shape: prog.grid_shape.as_slice().into(),
        arrays: frozen(arrays),
        scalars: frozen(lw.scalars),
        nvars: lw.nvars,
        consts: frozen(lw.consts),
        accessors: frozen(lw.accessors),
        code: frozen(lw.code),
        foralls: frozen(lw.foralls),
        comms: frozen(lw.comms),
        rtcalls: frozen(lw.rtcalls),
        prints: frozen(lw.prints),
        natives: frozen(natives),
    })
}

// A lowered program is kept (and cached) far longer than lowering takes,
// so its tables hold no room to grow. They are allocated at their final
// length rather than shrunk: `Vec::into_boxed_slice` on a grown vector
// shrinks it in place and hands the allocator the cut-off tail, and a
// tail per table fragments the heap the next compilation allocates from.
// With shrinking, the frontend and code generation of the cold-daemon
// programs after it ran about 1.4× slower.

/// Collect fallible items into a slice allocated once, at its length.
fn exact<T>(items: impl ExactSizeIterator<Item = LResult<T>>) -> LResult<Box<[T]>> {
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        out.push(item?);
    }
    Ok(out.into())
}

/// `v` moved into a slice allocated at its length; a grown buffer is
/// freed whole.
fn frozen<T>(v: Vec<T>) -> Box<[T]> {
    if v.len() == v.capacity() {
        return v.into();
    }
    let mut out = Vec::with_capacity(v.len());
    out.extend(v);
    out.into()
}

/// Checked table-index narrowing: the bytecode addresses its tables with
/// `u16`, so a pathologically large generated program must fail loudly
/// instead of silently wrapping into the wrong entry.
fn idx16(len: usize, what: &str) -> u16 {
    u16::try_from(len).unwrap_or_else(|_| panic!("{what} exceeds {} entries", u16::MAX))
}

/// Constant-pool key with exact bit equality for reals.
#[derive(PartialEq, Eq, Hash)]
enum ConstKey {
    Int(i64),
    Real(u64),
    Bool(bool),
    Complex(u64, u64),
}

impl ConstKey {
    fn of(v: Value) -> ConstKey {
        match v {
            Value::Int(x) => ConstKey::Int(x),
            Value::Real(x) => ConstKey::Real(x.to_bits()),
            Value::Bool(x) => ConstKey::Bool(x),
            Value::Complex(r, i) => ConstKey::Complex(r.to_bits(), i.to_bits()),
        }
    }
}

struct Lowerer<'p> {
    prog: &'p SProgram,
    scalars: Vec<(String, ElemType)>,
    scalar_ids: HashMap<String, u16>,
    consts: Vec<Value>,
    const_ids: HashMap<ConstKey, u16>,
    accessors: Vec<AccPlan>,
    acc_ids: HashMap<AccPlan, u16>,
    /// Lexically bound loop variables (DO and FORALL), innermost last.
    scope: Vec<(String, u16)>,
    nvars: usize,
    code: Vec<PInst>,
    foralls: Vec<VmForall>,
    comms: Vec<stmt::CommStmt<ExprCode, u16>>,
    rtcalls: Vec<stmt::RtCall<ExprCode>>,
    prints: Vec<Box<[stmt::PrintItem<ExprCode>]>>,
    /// Scratch buffer [`Lowerer::compile`] emits into.
    ops: Vec<Op>,
}

impl<'p> Lowerer<'p> {
    fn new(prog: &'p SProgram) -> Self {
        let scalars: Vec<(String, ElemType)> = prog.scalars.clone();
        let scalar_ids = scalars
            .iter()
            .enumerate()
            .map(|(i, (n, _))| (n.clone(), idx16(i, "scalar table")))
            .collect();
        Lowerer {
            prog,
            scalars,
            scalar_ids,
            consts: Vec::new(),
            const_ids: HashMap::new(),
            accessors: Vec::new(),
            acc_ids: HashMap::new(),
            scope: Vec::new(),
            nvars: 0,
            code: Vec::new(),
            foralls: Vec::new(),
            comms: Vec::new(),
            rtcalls: Vec::new(),
            prints: Vec::new(),
            ops: Vec::new(),
        }
    }

    // ---- tables --------------------------------------------------------

    fn const_id(&mut self, v: Value) -> u16 {
        let key = ConstKey::of(v);
        if let Some(&k) = self.const_ids.get(&key) {
            return k;
        }
        let k = idx16(self.consts.len(), "constant pool");
        self.consts.push(v);
        self.const_ids.insert(key, k);
        k
    }

    fn acc_id(&mut self, plan: AccPlan) -> u16 {
        if let Some(&k) = self.acc_ids.get(&plan) {
            return k;
        }
        let k = idx16(self.accessors.len(), "accessor table");
        self.acc_ids.insert(plan.clone(), k);
        self.accessors.push(plan);
        k
    }

    /// Slot of scalar `name`, creating one for dynamically assigned
    /// targets (reduction/broadcast destinations are always declared;
    /// this is for hand-built IR).
    fn scalar_slot(&mut self, name: &str) -> u16 {
        if let Some(&s) = self.scalar_ids.get(name) {
            return s;
        }
        let s = idx16(self.scalars.len(), "scalar table");
        self.scalars.push((name.to_string(), ElemType::Int));
        self.scalar_ids.insert(name.to_string(), s);
        s
    }

    fn bind(&mut self, name: &str) -> u16 {
        let slot = idx16(self.nvars, "loop-variable table");
        self.nvars += 1;
        self.scope.push((name.to_string(), slot));
        slot
    }

    fn unbind(&mut self, n: usize) {
        for _ in 0..n {
            self.scope.pop();
        }
    }

    fn lookup_var(&self, name: &str) -> Option<u16> {
        self.scope
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|&(_, s)| s)
    }

    // ---- expressions ---------------------------------------------------

    /// Compile `e` into a fresh expression program. It is emitted into
    /// the reused `ops` buffer and copied out at its length.
    fn compile(&mut self, e: &SExpr) -> LResult<ExprCode> {
        let mut ops = std::mem::take(&mut self.ops);
        ops.clear();
        let code = self.emit(e, 0, &mut ops).map(|()| ExprCode {
            ops: ops.as_slice().into(),
            out: 0,
            nregs: code_width(&ops),
        });
        self.ops = ops;
        code
    }

    fn compile_all(&mut self, es: &[SExpr]) -> LResult<Box<[ExprCode]>> {
        exact(es.iter().map(|e| self.compile(e)))
    }

    /// Integer affine view of `e` over at most one bound loop variable:
    /// `a * var + b` (slot `None` ⇒ pure constant `b`).
    fn affine_of(&self, e: &SExpr) -> Option<(Option<u16>, i64, i64)> {
        match e {
            SExpr::Const(Value::Int(k)) => Some((None, 0, *k)),
            SExpr::LoopVar(n) | SExpr::Scalar(n) => {
                self.lookup_var(n).map(|slot| (Some(slot), 1, 0))
            }
            SExpr::Un(UnOp::Neg, x) => {
                let (s, a, b) = self.affine_of(x)?;
                Some((s, a.wrapping_neg(), b.wrapping_neg()))
            }
            SExpr::Bin(op, l, r) => {
                let (sl, al, bl) = self.affine_of(l)?;
                let (sr, ar, br) = self.affine_of(r)?;
                match op {
                    BinOp::Add | BinOp::Sub => {
                        let sign: i64 = if *op == BinOp::Add { 1 } else { -1 };
                        let slot = match (sl, sr) {
                            (Some(x), Some(y)) if x == y => Some(x),
                            (Some(x), None) => Some(x),
                            (None, Some(y)) => Some(y),
                            (None, None) => None,
                            _ => return None,
                        };
                        // Folds wrap, as the operators they fold do.
                        let fold = f90d_vm::ops::affine;
                        Some((slot, fold(sign, ar, al), fold(sign, br, bl)))
                    }
                    BinOp::Mul => match (sl, sr) {
                        (None, _) => Some((sr, bl.wrapping_mul(ar), bl.wrapping_mul(br))),
                        (_, None) => Some((sl, br.wrapping_mul(al), br.wrapping_mul(bl))),
                        _ => None,
                    },
                    _ => None,
                }
            }
            _ => None,
        }
    }

    /// Emit code leaving the value of `e` in register `sp`; subtree
    /// temporaries use `sp+1..`.
    fn emit(&mut self, e: &SExpr, sp: u16, ops: &mut Vec<Op>) -> LResult<()> {
        // Fold integer affine forms (subscripts, bounds) first.
        if let Some((slot, a, b)) = self.affine_of(e) {
            match slot {
                Some(slot) if a == 1 && b == 0 => ops.push(Op::LoadVar { dst: sp, slot }),
                Some(slot) => ops.push(Op::Affine {
                    dst: sp,
                    slot,
                    a,
                    b,
                }),
                None => {
                    let k = self.const_id(Value::Int(b));
                    ops.push(Op::Const { dst: sp, k });
                }
            }
            return Ok(());
        }
        match e {
            SExpr::Const(v) => {
                let k = self.const_id(*v);
                ops.push(Op::Const { dst: sp, k });
            }
            SExpr::LoopVar(n) => match self.lookup_var(n) {
                Some(slot) => ops.push(Op::LoadVar { dst: sp, slot }),
                None => return Err(format!("loop variable `{n}` not in scope")),
            },
            SExpr::Scalar(n) => {
                // Enclosing loop variables shadow declared scalars
                // (handled by affine_of above when bound); here `n` is a
                // plain program scalar.
                match self.scalar_ids.get(n.as_str()) {
                    Some(&slot) => ops.push(Op::LoadScalar { dst: sp, slot }),
                    None => return Err(format!("undefined scalar `{n}`")),
                }
            }
            SExpr::Bin(op, l, r) => {
                // Constant-fold pure subtrees.
                if let Some(v) = self.try_fold(e) {
                    let k = self.const_id(v);
                    ops.push(Op::Const { dst: sp, k });
                    return Ok(());
                }
                self.emit(l, sp, ops)?;
                self.emit(r, sp + 1, ops)?;
                ops.push(Op::Bin {
                    op: *op,
                    dst: sp,
                    a: sp,
                    b: sp + 1,
                });
            }
            SExpr::Un(op, x) => {
                if let Some(v) = self.try_fold(e) {
                    let k = self.const_id(v);
                    ops.push(Op::Const { dst: sp, k });
                    return Ok(());
                }
                self.emit(x, sp, ops)?;
                ops.push(Op::Un {
                    op: *op,
                    dst: sp,
                    a: sp,
                });
            }
            SExpr::Elemental(name, args) => {
                let f = Intrin::from_name(name)
                    .ok_or_else(|| format!("unknown elemental intrinsic `{name}`"))?;
                for (k, a) in args.iter().enumerate() {
                    self.emit(a, sp + k as u16, ops)?;
                }
                ops.push(Op::Intrin {
                    f,
                    dst: sp,
                    base: sp,
                    n: args.len() as u16,
                });
            }
            SExpr::Read { arr, plan, subs } => {
                let zero_sub = SExpr::Const(Value::Int(0));
                let (acc_plan, emit_subs): (AccPlan, Vec<&SExpr>) = match plan {
                    ReadPlan::Owned | ReadPlan::Replicated => {
                        (AccPlan::Owned { arr: *arr }, subs.iter().collect())
                    }
                    ReadPlan::SlabTmp { tmp, fixed_dim } => (
                        AccPlan::Slab {
                            tmp: *tmp,
                            fixed_dim: *fixed_dim,
                        },
                        // The surviving-subscript contract lives in the
                        // comm driver: `None` means a rank-1 source whose
                        // dummy extent-1 dimension is indexed at zero.
                        match f90d_comm::driver::slab_kept_dims(subs.len(), *fixed_dim) {
                            Some(kept) => kept.into_iter().map(|d| &subs[d]).collect(),
                            None => vec![&zero_sub],
                        },
                    ),
                    ReadPlan::SameTmp { tmp } => {
                        (AccPlan::Same { tmp: *tmp }, subs.iter().collect())
                    }
                    ReadPlan::Seq { tmp: _, slot } => {
                        ops.push(Op::ReadSeq {
                            dst: sp,
                            gather: *slot as u16,
                        });
                        return Ok(());
                    }
                };
                // The engine decodes subscripts into a fixed 8-wide
                // buffer (Fortran's rank limit is 7); reject anything
                // larger here rather than overrun there.
                if emit_subs.len() > 8 {
                    return Err(format!(
                        "array read of rank {} exceeds the VM subscript limit (8)",
                        emit_subs.len()
                    ));
                }
                let acc = self.acc_id(acc_plan);
                let n = emit_subs.len() as u16;
                for (k, s) in emit_subs.into_iter().enumerate() {
                    self.emit(s, sp + k as u16, ops)?;
                }
                ops.push(Op::Read {
                    dst: sp,
                    acc,
                    base: sp,
                    n,
                });
            }
        }
        Ok(())
    }

    /// Evaluate a closed (constant-only) subtree at lowering time.
    fn try_fold(&self, e: &SExpr) -> Option<Value> {
        match e {
            SExpr::Const(v) => Some(*v),
            SExpr::Bin(op, l, r) => {
                let (a, b) = (self.try_fold(l)?, self.try_fold(r)?);
                f90d_vm::ops::eval_bin(*op, a, b).ok()
            }
            SExpr::Un(op, x) => f90d_vm::ops::eval_un(*op, self.try_fold(x)?).ok(),
            _ => None,
        }
    }

    // ---- statements ----------------------------------------------------

    fn lower_stmts(&mut self, stmts: &[SStmt]) -> LResult<()> {
        for s in stmts {
            self.lower_stmt(s)?;
        }
        Ok(())
    }

    fn lower_stmt(&mut self, s: &SStmt) -> LResult<()> {
        match s {
            SStmt::Comm(c) => {
                let id = self.lower_comm(c)?;
                self.code.push(PInst::Comm(id));
            }
            SStmt::Forall(f) => {
                let id = self.lower_forall(f)?;
                self.code.push(PInst::Forall(id));
            }
            SStmt::ScalarAssign { name, rhs } => {
                let cost = rhs.op_count().max(1);
                let rhs = self.compile(rhs)?;
                let slot = self.scalar_slot(name);
                self.code.push(PInst::ScalarAssign { slot, rhs, cost });
            }
            SStmt::OwnerAssign { arr, subs, rhs } => {
                let cost = rhs.op_count().max(1);
                let subs = self.compile_all(subs)?;
                let rhs = self.compile(rhs)?;
                self.code.push(PInst::OwnerAssign {
                    arr: *arr,
                    subs,
                    rhs,
                    cost,
                });
            }
            SStmt::DoSeq {
                var,
                lb,
                ub,
                st,
                body,
            } => {
                let lb = self.compile(lb)?;
                let ub = self.compile(ub)?;
                let st = self.compile(st)?;
                let slot = self.bind(var);
                let start_pc = self.code.len();
                self.code.push(PInst::DoStart {
                    var: slot,
                    lb,
                    ub,
                    st,
                    exit: 0,
                });
                let body_pc = self.code.len();
                self.lower_stmts(body)?;
                self.code.push(PInst::DoNext {
                    var: slot,
                    back: body_pc,
                });
                let exit_pc = self.code.len();
                if let PInst::DoStart { exit, .. } = &mut self.code[start_pc] {
                    *exit = exit_pc;
                }
                self.unbind(1);
            }
            SStmt::If { cond, then, else_ } => {
                let cost = cond.op_count().max(1);
                let cond = self.compile(cond)?;
                let branch_pc = self.code.len();
                self.code.push(PInst::BranchFalse {
                    cond,
                    cost,
                    target: 0,
                });
                self.lower_stmts(then)?;
                let jump_pc = self.code.len();
                self.code.push(PInst::Jump { target: 0 });
                let else_pc = self.code.len();
                self.lower_stmts(else_)?;
                let end_pc = self.code.len();
                if let PInst::BranchFalse { target, .. } = &mut self.code[branch_pc] {
                    *target = else_pc;
                }
                if let PInst::Jump { target } = &mut self.code[jump_pc] {
                    *target = end_pc;
                }
            }
            SStmt::Print { items } => {
                let items = exact(items.iter().map(|it| {
                    Ok(match it {
                        PrintItem::Text(t) => stmt::PrintItem::Text(t.clone()),
                        PrintItem::Val(e) => stmt::PrintItem::Val(self.compile(e)?),
                    })
                }))?;
                let id = idx16(self.prints.len(), "print table");
                self.prints.push(items);
                self.code.push(PInst::Print(id));
            }
            SStmt::Runtime(call) => {
                let id = self.lower_rt(call)?;
                self.code.push(PInst::Runtime(id));
            }
        }
        Ok(())
    }

    fn lower_comm(&mut self, c: &CommStmt) -> LResult<u16> {
        let slot = c.target().map(|name| self.scalar_slot(name));
        let vc = c.try_map(
            |e| self.compile(e),
            |_| slot.expect("target slot resolved above"),
        )?;
        let id = idx16(self.comms.len(), "comm table");
        self.comms.push(vc);
        Ok(id)
    }

    fn lower_rt(&mut self, call: &RtCall) -> LResult<u16> {
        let vr = call.try_map(|e| self.compile(e))?;
        let id = idx16(self.rtcalls.len(), "runtime-call table");
        self.rtcalls.push(vr);
        Ok(id)
    }

    fn lower_forall(&mut self, f: &ForallNode) -> LResult<u16> {
        // Prelude, owner filter and loop bounds evaluate in the outer
        // scope (before the loop variables exist).
        let pre = exact(f.pre.iter().map(|c| self.lower_comm(c)))?;
        let owner_filter = exact(
            f.owner_filter
                .iter()
                .map(|(arr, dim, idx)| Ok((*arr, *dim, self.compile(idx)?))),
        )?;
        let mut specs = Vec::with_capacity(f.vars.len());
        for spec in &f.vars {
            let lb = self.compile(&spec.lb)?;
            let ub = self.compile(&spec.ub)?;
            let st = self.compile(&spec.st)?;
            specs.push((lb, ub, st, spec.part.clone()));
        }
        // Bind the loop variables for the element-context code.
        let var_names: Vec<String> = f.vars.iter().map(|v| v.var.clone()).collect();
        let vars: Box<[stmt::LoopSpec<ExprCode, u16>]> = f
            .vars
            .iter()
            .zip(specs)
            .map(|(spec, (lb, ub, st, part))| stmt::LoopSpec {
                var: self.bind(&spec.var),
                lb,
                ub,
                st,
                part,
            })
            .collect();
        let mask = f.mask.as_ref().map(|e| self.compile(e)).transpose()?;
        let mask_cost = f.mask.as_ref().map_or(0, |e| e.op_count_cse(&var_names));
        let mut body = Vec::with_capacity(f.body.len());
        for b in &f.body {
            let scatter = match b.write {
                WritePlan::Owned => None,
                WritePlan::ScatterSeq { invertible } => Some(invertible),
            };
            if scatter.is_none() && b.arr != f.body[0].arr {
                // The engine commits all staged owned writes into the
                // first body array; reject programs where that would
                // scatter data across arrays rather than silently diverge.
                return Err(format!(
                    "FORALL body writes both `{}` and `{}`: mixed-array owned bodies are unsupported",
                    self.prog.arrays[f.body[0].arr].name, self.prog.arrays[b.arr].name
                ));
            }
            let rhs = self.compile(&b.rhs)?;
            let subs = self.compile_all(&b.subs)?;
            let lhs_acc = if scatter.is_none() {
                Some(self.acc_id(AccPlan::Owned { arr: b.arr }))
            } else {
                None
            };
            body.push(VmAssign {
                arr: b.arr,
                subs,
                rhs,
                lhs_acc,
                scatter,
                cost: b.rhs.op_count_cse(&var_names) + 2,
            });
        }
        let gathers = exact(f.gathers.iter().map(|g| {
            Ok(stmt::GatherSpec {
                src: g.src,
                tmp: g.tmp,
                subs: self.compile_all(&g.subs)?,
                local_only: g.local_only,
            })
        }))?;
        self.unbind(f.vars.len());
        // Accessors the element loop touches, for per-rank resolution.
        let mut accs_used: Vec<u16> = Vec::new();
        {
            let add_code = |c: &ExprCode, accs: &mut Vec<u16>| {
                for op in &c.ops {
                    if let Op::Read { acc, .. } = op {
                        if !accs.contains(acc) {
                            accs.push(*acc);
                        }
                    }
                }
            };
            if let Some(mc) = &mask {
                add_code(mc, &mut accs_used);
            }
            for b in &body {
                add_code(&b.rhs, &mut accs_used);
                for s in &b.subs {
                    add_code(s, &mut accs_used);
                }
                if let Some(a) = b.lhs_acc {
                    if !accs_used.contains(&a) {
                        accs_used.push(a);
                    }
                }
            }
            for g in &gathers {
                for s in &g.subs {
                    add_code(s, &mut accs_used);
                }
            }
        }
        let id = idx16(self.foralls.len(), "forall table");
        self.foralls.push(VmForall {
            vars,
            mask,
            mask_cost,
            pre,
            gathers,
            owner_filter,
            body: body.into(),
            accs_used: frozen(accs_used),
            native: None, // the selection post-pass in `lower_with` fills this
            plan: f.plan,
        });
        Ok(id)
    }
}

/// Number of registers a compiled op sequence touches.
fn code_width(ops: &[Op]) -> u16 {
    let mut w = 0u16;
    for op in ops {
        let hi = match *op {
            Op::Const { dst, .. }
            | Op::LoadVar { dst, .. }
            | Op::LoadScalar { dst, .. }
            | Op::Affine { dst, .. }
            | Op::ReadSeq { dst, .. } => dst,
            Op::Bin { dst, a, b, .. } => dst.max(a).max(b),
            Op::Un { dst, a, .. } => dst.max(a),
            Op::Intrin { dst, base, n, .. } => dst.max(base + n.saturating_sub(1)),
            Op::Read { dst, base, n, .. } => dst.max(base + n.saturating_sub(1)),
        };
        w = w.max(hi + 1);
    }
    w
}
