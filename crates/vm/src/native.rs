//! The native kernel tier: FORALL superinstructions compiled to
//! monomorphized Rust closures at lowering time.
//!
//! This is the third execution tier (tree walk → bytecode → native).
//! There is no run-time code generation: [`select`] runs once per
//! lowered FORALL inside `f90d-core::vmlower`, symbolically evaluates
//! the straight-line body over the register code, and — when every
//! subscript is affine in the loop variables and every value is REAL
//! arithmetic the closures can reproduce bit-for-bit — emits a
//! [`NativeKernel`]: per-body row kernels ([`RowFn`]) plus the affine
//! read/write site descriptions the engine binds against each rank's
//! resolved accessors at dispatch time.
//!
//! A row kernel runs one body over one run of the FORALL's innermost
//! variable: the engine hands it, per read site, the array segment and
//! the `(start, step)` of the row through it ([`RowRead`]), and the
//! kernel is one loop over `f64` slices — the plain local loop the
//! paper's generated Fortran 77 has between run-time calls.
//!
//! The contract is strict bit-identity with the bytecode engine (and
//! therefore with the tree walker): same f64 operation tree in the same
//! association order, same integer→real promotion points, RHS before
//! LHS with the same last writer, and the same modelled
//! element-operation cost.
//! Anything the symbolic pass cannot prove equivalent — masks, gathers,
//! scatters, CYCLIC subscript maps, integer division/exponentiation,
//! intrinsics other than `REAL()` — is left to the bytecode tier, and
//! the engine counts the fallback.

use std::fmt;
use std::sync::Arc;

use f90d_frontend::ast::{BinOp, UnOp};
use f90d_machine::{ElemType, Value};

use crate::bytecode::{AccPlan, ArrayDecl, ExprCode, Op, VmForall};
use crate::ops::Intrin;

/// Index of a [`NativeKernel`] in [`VmProgram::natives`](crate::bytecode::VmProgram::natives).
pub type KernelId = usize;

/// An integer value that is affine in the FORALL loop variables and the
/// program's INTEGER scalars: `base + Σ aᵢ·var(slotᵢ) + Σ bⱼ·scalar(slotⱼ)`.
///
/// Subscripts, loop-variable casts, and owner offsets all reduce to this
/// form; at dispatch time the engine folds the scalar terms (which must
/// hold `Value::Int` — otherwise the whole FORALL falls back) and any
/// loop variables bound outside this FORALL into the base.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Lin {
    /// Constant term.
    pub base: i64,
    /// Loop-variable terms `(var slot, coefficient)`.
    pub vterms: Vec<(u16, i64)>,
    /// INTEGER-scalar terms `(scalar slot, coefficient)`.
    pub sterms: Vec<(u16, i64)>,
}

impl Lin {
    fn konst(k: i64) -> Lin {
        Lin {
            base: k,
            vterms: Vec::new(),
            sterms: Vec::new(),
        }
    }

    fn var(slot: u16) -> Lin {
        Lin {
            base: 0,
            vterms: vec![(slot, 1)],
            sterms: Vec::new(),
        }
    }

    fn affine(slot: u16, a: i64, b: i64) -> Lin {
        Lin {
            base: b,
            vterms: vec![(slot, a)],
            sterms: Vec::new(),
        }
    }

    fn scalar(slot: u16) -> Lin {
        Lin {
            base: 0,
            vterms: Vec::new(),
            sterms: vec![(slot, 1)],
        }
    }

    fn as_const(&self) -> Option<i64> {
        (self.vterms.is_empty() && self.sterms.is_empty()).then_some(self.base)
    }

    fn combine(&self, other: &Lin, sign: i64) -> Lin {
        let mut out = self.clone();
        out.base += sign * other.base;
        for &(s, a) in &other.vterms {
            merge_term(&mut out.vterms, s, sign * a);
        }
        for &(s, a) in &other.sterms {
            merge_term(&mut out.sterms, s, sign * a);
        }
        out
    }

    fn scale(&self, k: i64) -> Lin {
        Lin {
            base: self.base * k,
            vterms: self.vterms.iter().map(|&(s, a)| (s, a * k)).collect(),
            sterms: self.sterms.iter().map(|&(s, a)| (s, a * k)).collect(),
        }
    }
}

fn merge_term(terms: &mut Vec<(u16, i64)>, slot: u16, coeff: i64) {
    if let Some(i) = terms.iter().position(|&(s, _)| s == slot) {
        terms[i].1 += coeff;
        if terms[i].1 == 0 {
            // Keep cancelled terms out so `as_const` sees `I - I` shapes.
            terms.remove(i);
        }
    } else if coeff != 0 {
        terms.push((slot, coeff));
    }
}

/// The REAL expression tree a body's RHS reduced to. Leaves index the
/// owning [`NativeBody`]'s `reads` / `lins` / `scalar_slots` tables;
/// interior nodes reproduce `ops::eval_bin`'s REAL arithmetic exactly
/// (same association order, `Div` is IEEE `/`, `Pow` is `powf`).
#[derive(Debug, Clone, PartialEq)]
pub enum NExpr {
    /// A REAL literal (including integer constants the bytecode would
    /// promote via `as_real` at this point of the tree).
    Lit(f64),
    /// A REAL program scalar: index into [`NativeBody::scalar_slots`].
    Scalar(usize),
    /// An integer affine value promoted to REAL here: index into
    /// [`NativeBody::lins`].
    Cast(usize),
    /// An array element read: index into [`NativeBody::reads`].
    Read(usize),
    /// Unary negation.
    Neg(Box<NExpr>),
    /// Binary REAL arithmetic (`Add`/`Sub`/`Mul`/`Div`/`Pow` only).
    Bin(BinOp, Box<NExpr>, Box<NExpr>),
}

/// One read site along a row: element `i` of the row is
/// `data[start + i·step]`. The engine's bind has proved every index of
/// the row in bounds; `step` is 1 for the usual innermost-dimension
/// walk, 0 for a read that does not depend on the innermost FORALL
/// variable, anything else (negative included) for the rest.
#[derive(Debug, Clone, Copy)]
pub struct RowRead<'a> {
    /// The array segment's raw storage.
    pub data: &'a [f64],
    /// Flat padded offset of the row's first element.
    pub start: usize,
    /// Offset increment per row element.
    pub step: isize,
}

impl<'a> RowRead<'a> {
    /// Element `i` of the row.
    #[inline(always)]
    fn at(&self, i: usize) -> f64 {
        self.data[(self.start as isize + i as isize * self.step) as usize]
    }

    /// The row as a dense slice when it walks `data` at unit stride.
    #[inline(always)]
    fn unit(&self, n: usize) -> Option<&'a [f64]> {
        (self.step == 1).then(|| &self.data[self.start..self.start + n])
    }
}

/// Per-row inputs handed to a [`RowFn`], each in the order of the owning
/// [`NativeBody`]'s tables. The row length is the output slice's.
pub struct RowArgs<'a> {
    /// One descriptor per [`NativeBody::reads`] site.
    pub reads: &'a [RowRead<'a>],
    /// `(start, step)` per [`NativeBody::lins`] entry: the affine integer
    /// is `start + i·step` at row element `i`.
    pub lins: &'a [(i64, i64)],
    /// One value per [`NativeBody::scalar_slots`] entry.
    pub scalars: &'a [f64],
}

/// Scratch rows the generic evaluator borrows for intermediate operands:
/// one per rank and phase, reused across rows.
#[derive(Debug, Default)]
pub struct Scratch {
    free: Vec<Vec<f64>>,
}

/// A monomorphized row kernel: the entire RHS of one body over one run
/// of the innermost FORALL variable as a single call that loops over
/// `f64` slices — no per-element dispatch. Writes every element of the
/// output row.
pub type RowFn = Arc<dyn Fn(&RowArgs<'_>, &mut [f64], &mut Scratch) + Send + Sync>;

/// One array read site: which accessor, and the affine global subscripts
/// (still including any slab-dropped dimension, exactly as the bytecode
/// `Read` would present them to `ResolvedAcc::offset`).
#[derive(Debug, Clone)]
pub struct ReadSite {
    /// Accessor-table index.
    pub acc: u16,
    /// Affine global subscripts, one per source dimension.
    pub subs: Vec<Lin>,
}

/// One compiled body assignment of a [`NativeKernel`].
#[derive(Clone)]
pub struct NativeBody {
    /// Which template matched (`"generic"` for composed closures) —
    /// diagnostic only.
    pub template: &'static str,
    /// The row kernel.
    pub func: RowFn,
    /// Array read sites feeding [`RowArgs::reads`].
    pub reads: Vec<ReadSite>,
    /// Affine integers feeding [`RowArgs::lins`].
    pub lins: Vec<Lin>,
    /// REAL scalar slots feeding [`RowArgs::scalars`] (must hold
    /// `Value::Real` at dispatch or the FORALL falls back).
    pub scalar_slots: Vec<u16>,
    /// LHS accessor (owned write).
    pub lhs_acc: u16,
    /// Affine global subscripts of the write.
    pub lhs_subs: Vec<Lin>,
    /// Modelled element-operation cost per iteration (identical to the
    /// bytecode body's `cost`).
    pub cost: i64,
}

impl fmt::Debug for NativeBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeBody")
            .field("template", &self.template)
            .field("reads", &self.reads)
            .field("lins", &self.lins)
            .field("scalar_slots", &self.scalar_slots)
            .field("lhs_acc", &self.lhs_acc)
            .field("lhs_subs", &self.lhs_subs)
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

/// A FORALL compiled to the native tier: one [`NativeBody`] per body
/// assignment, plus the loop-variable slots (outer to inner) the affine
/// forms are expressed over.
#[derive(Debug, Clone)]
pub struct NativeKernel {
    /// Loop-variable slots of the FORALL, outer to inner — the dispatch
    /// binding maps [`Lin::vterms`] coefficients onto iteration-list
    /// positions through this table.
    pub var_slots: Vec<u16>,
    /// Compiled bodies, in source order.
    pub bodies: Vec<NativeBody>,
}

// ---- selection (lowering-time symbolic evaluation) ---------------------

/// Symbolic value of one bytecode register during selection.
#[derive(Debug, Clone)]
enum Sym {
    /// Integer, affine in loop variables and INTEGER scalars.
    Int(Lin),
    /// REAL expression tree.
    Real(NExpr),
    /// Anything the native tier cannot reproduce bit-exactly.
    Opaque,
}

struct BodyCtx<'a> {
    arrays: &'a [ArrayDecl],
    scalars: &'a [(String, ElemType)],
    consts: &'a [Value],
    accessors: &'a [AccPlan],
    reads: Vec<ReadSite>,
    lins: Vec<Lin>,
    scalar_slots: Vec<u16>,
}

impl BodyCtx<'_> {
    fn real_scalar(&mut self, slot: u16) -> usize {
        if let Some(i) = self.scalar_slots.iter().position(|&s| s == slot) {
            i
        } else {
            self.scalar_slots.push(slot);
            self.scalar_slots.len() - 1
        }
    }

    /// Promote to REAL exactly where the bytecode would call `as_real`.
    fn promote_real(&mut self, s: Sym) -> Sym {
        match s {
            Sym::Int(lin) => match lin.as_const() {
                Some(k) => Sym::Real(NExpr::Lit(k as f64)),
                None => {
                    self.lins.push(lin);
                    Sym::Real(NExpr::Cast(self.lins.len() - 1))
                }
            },
            real @ Sym::Real(_) => real,
            Sym::Opaque => Sym::Opaque,
        }
    }

    fn eval_bin(&mut self, op: BinOp, a: Sym, b: Sym) -> Sym {
        use BinOp::*;
        if op.is_logical() || op.is_comparison() {
            return Sym::Opaque; // LOGICAL values never reach a REAL store.
        }
        if let (Sym::Int(x), Sym::Int(y)) = (&a, &b) {
            return match op {
                Add => Sym::Int(x.combine(y, 1)),
                Sub => Sym::Int(x.combine(y, -1)),
                Mul => {
                    if let Some(k) = x.as_const() {
                        Sym::Int(y.scale(k))
                    } else if let Some(k) = y.as_const() {
                        Sym::Int(x.scale(k))
                    } else {
                        Sym::Opaque // nonlinear
                    }
                }
                // Integer division truncates and faults on zero; integer
                // exponentiation clamps and faults on negatives. Leave
                // both to the bytecode tier.
                _ => Sym::Opaque,
            };
        }
        let (Sym::Real(l), Sym::Real(r)) = (self.promote_real(a), self.promote_real(b)) else {
            return Sym::Opaque;
        };
        match op {
            Add | Sub | Mul | Div | Pow => Sym::Real(NExpr::Bin(op, Box::new(l), Box::new(r))),
            _ => Sym::Opaque,
        }
    }

    /// Abstractly execute one expression program; returns its output
    /// register's symbolic value.
    fn eval_code(&mut self, code: &ExprCode) -> Sym {
        let mut regs: Vec<Sym> = vec![Sym::Opaque; code.nregs as usize];
        for op in &code.ops {
            match *op {
                Op::Const { dst, k } => {
                    regs[dst as usize] = match self.consts[k as usize] {
                        Value::Int(v) => Sym::Int(Lin::konst(v)),
                        Value::Real(v) => Sym::Real(NExpr::Lit(v)),
                        _ => Sym::Opaque,
                    }
                }
                Op::LoadVar { dst, slot } => regs[dst as usize] = Sym::Int(Lin::var(slot)),
                Op::LoadScalar { dst, slot } => {
                    regs[dst as usize] = match self.scalars[slot as usize].1 {
                        ElemType::Int => Sym::Int(Lin::scalar(slot)),
                        ElemType::Real => {
                            let i = self.real_scalar(slot);
                            Sym::Real(NExpr::Scalar(i))
                        }
                        _ => Sym::Opaque,
                    }
                }
                Op::Affine { dst, slot, a, b } => {
                    regs[dst as usize] = Sym::Int(Lin::affine(slot, a, b))
                }
                Op::Bin { op, dst, a, b } => {
                    let (x, y) = (regs[a as usize].clone(), regs[b as usize].clone());
                    regs[dst as usize] = self.eval_bin(op, x, y);
                }
                Op::Un { op, dst, a } => {
                    regs[dst as usize] = match (op, regs[a as usize].clone()) {
                        (UnOp::Neg, Sym::Int(lin)) => Sym::Int(lin.scale(-1)),
                        (UnOp::Neg, Sym::Real(e)) => Sym::Real(NExpr::Neg(Box::new(e))),
                        _ => Sym::Opaque,
                    }
                }
                Op::Intrin { f, dst, base, n } => {
                    regs[dst as usize] = if f == Intrin::ToReal && n == 1 {
                        let arg = regs[base as usize].clone();
                        self.promote_real(arg)
                    } else {
                        Sym::Opaque // transcendental results won't drift, but MOD/MIN/MAX/INT have integer paths — leave all to bytecode
                    }
                }
                Op::Read { dst, acc, base, n } => {
                    let mut subs = Vec::with_capacity(n as usize);
                    for r in &regs[base as usize..(base + n) as usize] {
                        match r {
                            Sym::Int(lin) => subs.push(lin.clone()),
                            _ => {
                                subs.clear();
                                break;
                            }
                        }
                    }
                    let target = self.accessors[acc as usize].target();
                    regs[dst as usize] =
                        if subs.len() == n as usize && self.arrays[target].ty == ElemType::Real {
                            self.reads.push(ReadSite { acc, subs });
                            Sym::Real(NExpr::Read(self.reads.len() - 1))
                        } else {
                            Sym::Opaque
                        };
                }
                Op::ReadSeq { dst, .. } => regs[dst as usize] = Sym::Opaque,
            }
        }
        regs[code.out as usize].clone()
    }
}

/// Try to compile a lowered FORALL to the native tier. Returns `None`
/// when any body falls outside what the closures can reproduce
/// bit-exactly; the bytecode element loop remains the executor then.
pub fn select(
    f: &VmForall,
    arrays: &[ArrayDecl],
    scalars: &[(String, ElemType)],
    consts: &[Value],
    accessors: &[AccPlan],
) -> Option<NativeKernel> {
    // Masks change which iterations execute (and charge mask cost);
    // gathers introduce sequential ReadSeq state; scatters leave the
    // rank. All are bytecode-only.
    if f.mask.is_some() || !f.gathers.is_empty() || f.body.is_empty() {
        return None;
    }
    let mut bodies = Vec::with_capacity(f.body.len());
    for b in &f.body {
        if b.scatter.is_some() || b.arr != f.body[0].arr {
            return None;
        }
        let lhs_acc = b.lhs_acc?;
        if arrays[b.arr].ty != ElemType::Real {
            return None;
        }
        let mut ctx = BodyCtx {
            arrays,
            scalars,
            consts,
            accessors,
            reads: Vec::new(),
            lins: Vec::new(),
            scalar_slots: Vec::new(),
        };
        // RHS first (bytecode evaluation order), then the subscripts.
        let rhs = ctx.eval_code(&b.rhs);
        let Sym::Real(expr) = ctx.promote_real(rhs) else {
            return None;
        };
        let mut lhs_subs = Vec::with_capacity(b.subs.len());
        for s in &b.subs {
            match ctx.eval_code(s) {
                Sym::Int(lin) => lhs_subs.push(lin),
                _ => return None,
            }
        }
        let (template, func) = match_template(&expr);
        bodies.push(NativeBody {
            template,
            func,
            reads: ctx.reads,
            lins: ctx.lins,
            scalar_slots: ctx.scalar_slots,
            lhs_acc,
            lhs_subs,
            cost: b.cost,
        });
    }
    Some(NativeKernel {
        var_slots: f.vars.iter().map(|s| s.var).collect(),
        bodies,
    })
}

// ---- template registry -------------------------------------------------

/// `out[i] = f([r0[i], …])` over `N` read rows: a loop over dense
/// slices when every row is unit-stride, an indexed walk otherwise.
#[inline(always)]
fn map_rows<const N: usize>(
    out: &mut [f64],
    reads: [&RowRead<'_>; N],
    f: impl Fn([f64; N]) -> f64,
) {
    let n = out.len();
    let unit = reads.map(|r| r.unit(n));
    if unit.iter().all(Option::is_some) {
        let rows = unit.map(|u| u.expect("every row was just seen to be unit-stride"));
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(rows.map(|row| row[i]));
        }
    } else {
        for (i, o) in out.iter_mut().enumerate() {
            *o = f(reads.map(|r| r.at(i)));
        }
    }
}

/// Match the reduced RHS against the fused templates (the paper's hot
/// shapes: stencil update, rank-1 row elimination, axpy, accumulate) and
/// fall back to the row-at-a-time tree evaluator. Both paths produce the
/// identical f64 operation per element; the fused names exist so one
/// pass over the row covers the benchmark corpus and the template name
/// is visible in diagnostics.
pub fn match_template(e: &NExpr) -> (&'static str, RowFn) {
    use BinOp::{Add, Div, Mul, Sub};
    use NExpr::*;
    // Leaves: the tree evaluator's fill / copy / cast is already one pass.
    match e {
        Lit(_) => return ("fill_const", compose(e)),
        Read(_) => return ("copy", compose(e)),
        Cast(_) => return ("index_cast", compose(e)),
        Scalar(_) => return ("scalar_fill", compose(e)),
        _ => {}
    }
    // c*(((r0+r1)+r2)+r3) — the four-point Jacobi stencil exactly as the
    // parser associates it.
    if let Bin(Mul, l, r) = e {
        if let (Lit(c), Bin(Add, x, y)) = (&**l, &**r) {
            if let (Bin(Add, p, q), Read(i3)) = (&**x, &**y) {
                if let (Bin(Add, a0, a1), Read(i2)) = (&**p, &**q) {
                    if let (Read(i0), Read(i1)) = (&**a0, &**a1) {
                        let (c, i0, i1, i2, i3) = (*c, *i0, *i1, *i2, *i3);
                        let f: RowFn = Arc::new(move |a, out, _| {
                            let r = a.reads;
                            map_rows(out, [&r[i0], &r[i1], &r[i2], &r[i3]], |[w, x, y, z]| {
                                c * (((w + x) + y) + z)
                            })
                        });
                        return ("stencil4_scale", f);
                    }
                }
            }
        }
    }
    // r0 - (r1/r2)*r3 — Gaussian elimination's rank-1 row update. The
    // multiplier does not change along a row of the update (`A(I,K)` and
    // `A(K,K)` under an inner `J`), so it is divided once per row then.
    if let Bin(Sub, l, r) = e {
        if let (Read(i0), Bin(Mul, m1, m2)) = (&**l, &**r) {
            if let (Bin(Div, n1, n2), Read(i3)) = (&**m1, &**m2) {
                if let (Read(i1), Read(i2)) = (&**n1, &**n2) {
                    let (i0, i1, i2, i3) = (*i0, *i1, *i2, *i3);
                    let f: RowFn = Arc::new(move |a, out, _| {
                        let r = a.reads;
                        if r[i1].step == 0 && r[i2].step == 0 {
                            let m = r[i1].at(0) / r[i2].at(0);
                            map_rows(out, [&r[i0], &r[i3]], |[x, y]| x - m * y)
                        } else {
                            map_rows(out, [&r[i0], &r[i1], &r[i2], &r[i3]], |[w, x, y, z]| {
                                w - (x / y) * z
                            })
                        }
                    });
                    return ("rank1_update", f);
                }
            }
        }
    }
    if let Bin(Add, l, r) = e {
        // r0 + r1 — reduction accumulate, the partial-sum FORALL feeding
        // a SUM-into-scalar reduction.
        if let (Read(i0), Read(i1)) = (&**l, &**r) {
            let (i0, i1) = (*i0, *i1);
            let f: RowFn = Arc::new(move |a, out, _| {
                map_rows(out, [&a.reads[i0], &a.reads[i1]], |[x, y]| x + y)
            });
            return ("reduce_accumulate", f);
        }
        if let (Read(i0), Bin(Mul, m1, m2)) = (&**l, &**r) {
            // r0 + c*r1 — axpy.
            if let (Lit(c), Read(i1)) = (&**m1, &**m2) {
                let (c, i0, i1) = (*c, *i0, *i1);
                let f: RowFn = Arc::new(move |a, out, _| {
                    map_rows(out, [&a.reads[i0], &a.reads[i1]], |[x, y]| x + c * y)
                });
                return ("axpy", f);
            }
            // r0 + s*r1 — scalar-weighted reduction accumulate.
            if let (Scalar(s), Read(i1)) = (&**m1, &**m2) {
                let (s, i0, i1) = (*s, *i0, *i1);
                let f: RowFn = Arc::new(move |a, out, _| {
                    let w = a.scalars[s];
                    map_rows(out, [&a.reads[i0], &a.reads[i1]], |[x, y]| x + w * y)
                });
                return ("reduce_accumulate", f);
            }
            // r0 + r1*r2 — reduction/product accumulate.
            if let (Read(i1), Read(i2)) = (&**m1, &**m2) {
                let (i0, i1, i2) = (*i0, *i1, *i2);
                let f: RowFn = Arc::new(move |a, out, _| {
                    let r = a.reads;
                    map_rows(out, [&r[i0], &r[i1], &r[i2]], |[x, y, z]| x + y * z)
                });
                return ("multiply_accumulate", f);
            }
        }
    }
    ("generic", compose(e))
}

// ---- the generic row evaluator -----------------------------------------

/// Where a subtree's row value is after [`eval_row`].
enum Val<'a> {
    /// The same value at every row element (literals, scalars, reads and
    /// casts that do not depend on the innermost variable, and any
    /// arithmetic over those — computed once, with the identical f64
    /// operation the per-element form would repeat).
    Uniform(f64),
    /// A unit-stride read, borrowed straight from the array.
    Slice(&'a [f64]),
    /// Written to the evaluator's output row.
    Out,
}

/// `out[i] = f(l[i], r[i])` for every placement of the operands; two
/// uniform operands fold to a uniform result and leave `out` alone.
#[inline(always)]
fn zip_rows(out: &mut [f64], l: Val<'_>, r: Val<'_>, f: impl Fn(f64, f64) -> f64) -> Option<f64> {
    use Val::*;
    match (l, r) {
        (Uniform(x), Uniform(y)) => return Some(f(x, y)),
        (Uniform(x), Slice(r)) => {
            for (o, &y) in out.iter_mut().zip(r) {
                *o = f(x, y);
            }
        }
        (Slice(l), Uniform(y)) => {
            for (o, &x) in out.iter_mut().zip(l) {
                *o = f(x, y);
            }
        }
        (Slice(l), Slice(r)) => {
            for ((o, &x), &y) in out.iter_mut().zip(l).zip(r) {
                *o = f(x, y);
            }
        }
        (Out, Uniform(y)) => {
            for o in out.iter_mut() {
                *o = f(*o, y);
            }
        }
        (Out, Slice(r)) => {
            for (o, &y) in out.iter_mut().zip(r) {
                *o = f(*o, y);
            }
        }
        (_, Out) => unreachable!("a right operand is evaluated into a scratch row"),
    }
    None
}

/// Evaluate `e` over one row of `out.len()` elements, one tight loop per
/// tree node. Mirrors `ops::eval_bin`'s REAL arithmetic node for node.
fn eval_row<'a>(e: &NExpr, a: &RowArgs<'a>, out: &mut [f64], scratch: &mut Scratch) -> Val<'a> {
    match e {
        NExpr::Lit(c) => Val::Uniform(*c),
        NExpr::Scalar(i) => Val::Uniform(a.scalars[*i]),
        NExpr::Cast(i) => {
            let (start, step) = a.lins[*i];
            if step == 0 {
                return Val::Uniform(start as f64);
            }
            for (i, o) in out.iter_mut().enumerate() {
                *o = (start + i as i64 * step) as f64;
            }
            Val::Out
        }
        NExpr::Read(i) => {
            let r = &a.reads[*i];
            if r.step == 0 {
                return Val::Uniform(r.at(0));
            }
            if let Some(row) = r.unit(out.len()) {
                return Val::Slice(row);
            }
            for (i, o) in out.iter_mut().enumerate() {
                *o = r.at(i);
            }
            Val::Out
        }
        NExpr::Neg(x) => match eval_row(x, a, out, scratch) {
            Val::Uniform(v) => Val::Uniform(-v),
            Val::Slice(row) => {
                for (o, &v) in out.iter_mut().zip(row) {
                    *o = -v;
                }
                Val::Out
            }
            Val::Out => {
                for o in out.iter_mut() {
                    *o = -*o;
                }
                Val::Out
            }
        },
        NExpr::Bin(op, l, r) => {
            let lv = eval_row(l, a, out, scratch);
            let mut tmp = scratch.free.pop().unwrap_or_default();
            tmp.resize(out.len(), 0.0);
            let rv = match eval_row(r, a, &mut tmp, scratch) {
                Val::Out => Val::Slice(&tmp),
                v => v,
            };
            let folded = match op {
                BinOp::Add => zip_rows(out, lv, rv, |x, y| x + y),
                BinOp::Sub => zip_rows(out, lv, rv, |x, y| x - y),
                BinOp::Mul => zip_rows(out, lv, rv, |x, y| x * y),
                BinOp::Div => zip_rows(out, lv, rv, |x, y| x / y),
                BinOp::Pow => zip_rows(out, lv, rv, |x, y| x.powf(y)),
                _ => unreachable!("selection admits arithmetic ops only"),
            };
            scratch.free.push(tmp);
            folded.map_or(Val::Out, Val::Uniform)
        }
    }
}

/// The row kernel for shapes with no fused template: `eval_row` over
/// the reduced tree, then whatever is not already in the output row is
/// copied or filled there.
pub fn compose(e: &NExpr) -> RowFn {
    let e = e.clone();
    Arc::new(move |a, out, scratch| match eval_row(&e, a, out, scratch) {
        Val::Uniform(v) => out.fill(v),
        Val::Slice(row) => out.copy_from_slice(row),
        Val::Out => {}
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lin_combines_and_scales() {
        let a = Lin::affine(0, 2, 3); // 2*v0 + 3
        let b = Lin::var(1);
        let s = a.combine(&b, 1).scale(4); // 8*v0 + 4*v1 + 12
        assert_eq!(s.base, 12);
        assert_eq!(s.vterms, vec![(0, 8), (1, 4)]);
        assert_eq!(a.combine(&a, -1).as_const(), Some(0));
    }

    fn bin(op: BinOp, l: NExpr, r: NExpr) -> NExpr {
        NExpr::Bin(op, Box::new(l), Box::new(r))
    }

    /// The per-element meaning of a reduced tree — the oracle the row
    /// kernels are checked against.
    fn eval_elem(e: &NExpr, reads: &[f64], lins: &[i64], scalars: &[f64]) -> f64 {
        let ev = |x: &NExpr| eval_elem(x, reads, lins, scalars);
        match e {
            NExpr::Lit(c) => *c,
            NExpr::Scalar(i) => scalars[*i],
            NExpr::Cast(i) => lins[*i] as f64,
            NExpr::Read(i) => reads[*i],
            NExpr::Neg(x) => -ev(x),
            NExpr::Bin(BinOp::Add, l, r) => ev(l) + ev(r),
            NExpr::Bin(BinOp::Sub, l, r) => ev(l) - ev(r),
            NExpr::Bin(BinOp::Mul, l, r) => ev(l) * ev(r),
            NExpr::Bin(BinOp::Div, l, r) => ev(l) / ev(r),
            NExpr::Bin(BinOp::Pow, l, r) => ev(l).powf(ev(r)),
            NExpr::Bin(..) => unreachable!(),
        }
    }

    /// Unit-stride, strided, negative-step and stride-0 (inner-invariant)
    /// `(start, step)` descriptors over one 64-element segment.
    const LAYOUTS: [(usize, isize); 4] = [(5, 1), (2, 3), (60, -2), (17, 0)];

    /// Which of [`LAYOUTS`] each read site gets: every site alike, one
    /// of each, and the Gaussian update's own mix (sites 1 and 2
    /// inner-invariant between unit-stride rows, which is what lets the
    /// rank-1 kernel divide once per row).
    const MIXES: [[usize; 4]; 6] = [
        [0, 0, 0, 0],
        [1, 1, 1, 1],
        [2, 2, 2, 2],
        [3, 3, 3, 3],
        [0, 1, 2, 3],
        [0, 3, 3, 0],
    ];

    /// Run `e`'s matched kernel and the generic evaluator over rows of
    /// several lengths under every layout mix, and require each element
    /// to carry the bits of the per-element oracle.
    fn check_rows(e: &NExpr, want_template: &str, nreads: usize) {
        let (name, fused) = match_template(e);
        assert_eq!(name, want_template);
        // Distinct, sign-mixed, non-dyadic values so a swapped operand
        // or reassociated sum changes bits.
        let data: Vec<Vec<f64>> = (0..nreads)
            .map(|k| {
                (0..64)
                    .map(|x| ((x * 7 + k * 13) % 23) as f64 / 3.0 - 2.9)
                    .collect()
            })
            .collect();
        let scalars = [0.7, -1.3];
        let lins = [(4i64, 3i64), (9, 0)];
        let mut scratch = Scratch::default();
        for n in [1usize, 7, 20] {
            for mix in MIXES {
                let reads: Vec<RowRead<'_>> = (0..nreads)
                    .map(|k| {
                        let (start, step) = LAYOUTS[mix[k]];
                        RowRead {
                            data: &data[k],
                            start,
                            step,
                        }
                    })
                    .collect();
                let args = RowArgs {
                    reads: &reads,
                    lins: &lins,
                    scalars: &scalars,
                };
                for (label, f) in [(name, &fused), ("generic", &compose(e))] {
                    let mut out = vec![f64::NAN; n];
                    f(&args, &mut out, &mut scratch);
                    for (i, got) in out.iter().enumerate() {
                        let r: Vec<f64> = reads.iter().map(|r| r.at(i)).collect();
                        let l: Vec<i64> = lins.iter().map(|&(s, st)| s + i as i64 * st).collect();
                        let want = eval_elem(e, &r, &l, &scalars);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{label} row kernel, n={n} mix={mix:?} element {i}: {got} vs {want}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn templates_match_hot_shapes() {
        use BinOp::*;
        use NExpr::*;
        let stencil = bin(
            Mul,
            Lit(0.25),
            bin(Add, bin(Add, bin(Add, Read(0), Read(1)), Read(2)), Read(3)),
        );
        check_rows(&stencil, "stencil4_scale", 4);
        let rank1 = bin(Sub, Read(0), bin(Mul, bin(Div, Read(1), Read(2)), Read(3)));
        check_rows(&rank1, "rank1_update", 4);
        check_rows(&bin(Add, Read(0), bin(Mul, Lit(-1.5), Read(1))), "axpy", 2);
        check_rows(
            &bin(Add, Read(0), bin(Mul, Read(1), Read(2))),
            "multiply_accumulate",
            3,
        );
        check_rows(&Lit(2.5), "fill_const", 0);
        check_rows(&Read(0), "copy", 1);
        check_rows(&Cast(0), "index_cast", 0);
        check_rows(&Cast(1), "index_cast", 0);
        check_rows(&Scalar(1), "scalar_fill", 0);
        // Shapes with no fused template go through the tree evaluator:
        // nested right operands, negation, casts and scalars inside.
        let odd = bin(
            Sub,
            bin(Pow, Read(0), Lit(2.0)),
            bin(
                Div,
                Neg(Box::new(bin(Mul, Read(1), Cast(0)))),
                bin(Add, Scalar(0), bin(Mul, Read(2), Read(0))),
            ),
        );
        check_rows(&odd, "generic", 3);
        check_rows(&Neg(Box::new(Read(0))), "generic", 1);
    }

    #[test]
    fn reduce_accumulate_matches_both_shapes() {
        use BinOp::*;
        use NExpr::*;
        // r0 + r1 — the plain partial-sum accumulate.
        check_rows(&bin(Add, Read(0), Read(1)), "reduce_accumulate", 2);
        // r0 + s*r1 — scalar-weighted accumulate.
        check_rows(
            &bin(Add, Read(0), bin(Mul, Scalar(0), Read(1))),
            "reduce_accumulate",
            2,
        );
    }
}
