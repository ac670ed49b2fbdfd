//! The native kernel tier: FORALL superinstructions compiled to
//! monomorphized Rust closures at lowering time.
//!
//! This is the third execution tier (tree walk → bytecode → native).
//! There is no run-time code generation: [`select`] runs once per
//! lowered FORALL inside `f90d-core::vmlower`, symbolically evaluates
//! the straight-line body over the register code, and — when every
//! subscript is affine in the loop variables and every value is REAL
//! arithmetic the closures can reproduce bit-for-bit — emits a
//! [`NativeKernel`]: per-body element closures ([`ElemFn`]) plus the
//! affine read/write site descriptions the engine binds against each
//! rank's resolved accessors at dispatch time.
//!
//! The contract is strict bit-identity with the bytecode engine (and
//! therefore with the tree walker): same f64 operation tree in the same
//! association order, same integer→real promotion points, same staged
//! RHS-before-LHS commit, and the same modelled element-operation cost.
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

/// Per-element inputs handed to an [`ElemFn`]: the fetched read values,
/// the evaluated affine integers, and the REAL scalar snapshot, each in
/// the order of the owning [`NativeBody`]'s tables.
pub struct ElemArgs<'a> {
    /// One value per [`NativeBody::reads`] site.
    pub reads: &'a [f64],
    /// One value per [`NativeBody::lins`] entry.
    pub lins: &'a [i64],
    /// One value per [`NativeBody::scalar_slots`] entry.
    pub scalars: &'a [f64],
}

/// A monomorphized element kernel: the entire RHS of one body as a
/// single closure call, no per-instruction dispatch.
pub type ElemFn = Arc<dyn Fn(&ElemArgs<'_>) -> f64 + Send + Sync>;

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
    /// The element kernel.
    pub func: ElemFn,
    /// Array read sites feeding [`ElemArgs::reads`].
    pub reads: Vec<ReadSite>,
    /// Affine integers feeding [`ElemArgs::lins`].
    pub lins: Vec<Lin>,
    /// REAL scalar slots feeding [`ElemArgs::scalars`] (must hold
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

/// Match the reduced RHS against the fused templates (the paper's hot
/// shapes: stencil update, rank-1 row elimination, axpy, accumulate) and
/// fall back to recursive closure composition. Both paths produce the
/// identical f64 operation sequence; the fused names exist so the
/// single-closure fast path covers the benchmark corpus and the
/// template name is visible in diagnostics.
fn match_template(e: &NExpr) -> (&'static str, ElemFn) {
    use BinOp::{Add, Div, Mul, Sub};
    use NExpr::*;
    match e {
        Lit(c) => {
            let c = *c;
            return ("fill_const", Arc::new(move |_| c));
        }
        Read(i) => {
            let i = *i;
            return ("copy", Arc::new(move |a: &ElemArgs| a.reads[i]));
        }
        Cast(i) => {
            let i = *i;
            return ("index_cast", Arc::new(move |a: &ElemArgs| a.lins[i] as f64));
        }
        Scalar(i) => {
            let i = *i;
            return ("scalar_fill", Arc::new(move |a: &ElemArgs| a.scalars[i]));
        }
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
                        let f: ElemFn = Arc::new(move |a: &ElemArgs| {
                            c * (((a.reads[i0] + a.reads[i1]) + a.reads[i2]) + a.reads[i3])
                        });
                        return ("stencil4_scale", f);
                    }
                }
            }
        }
    }
    // r0 - (r1/r2)*r3 — Gaussian elimination's rank-1 row update.
    if let Bin(Sub, l, r) = e {
        if let (Read(i0), Bin(Mul, m1, m2)) = (&**l, &**r) {
            if let (Bin(Div, n1, n2), Read(i3)) = (&**m1, &**m2) {
                if let (Read(i1), Read(i2)) = (&**n1, &**n2) {
                    let (i0, i1, i2, i3) = (*i0, *i1, *i2, *i3);
                    let f: ElemFn = Arc::new(move |a: &ElemArgs| {
                        a.reads[i0] - (a.reads[i1] / a.reads[i2]) * a.reads[i3]
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
            let f: ElemFn = Arc::new(move |a: &ElemArgs| a.reads[i0] + a.reads[i1]);
            return ("reduce_accumulate", f);
        }
        if let (Read(i0), Bin(Mul, m1, m2)) = (&**l, &**r) {
            // r0 + c*r1 — axpy.
            if let (Lit(c), Read(i1)) = (&**m1, &**m2) {
                let (c, i0, i1) = (*c, *i0, *i1);
                let f: ElemFn = Arc::new(move |a: &ElemArgs| a.reads[i0] + c * a.reads[i1]);
                return ("axpy", f);
            }
            // r0 + s*r1 — scalar-weighted reduction accumulate.
            if let (Scalar(s), Read(i1)) = (&**m1, &**m2) {
                let (s, i0, i1) = (*s, *i0, *i1);
                let f: ElemFn =
                    Arc::new(move |a: &ElemArgs| a.reads[i0] + a.scalars[s] * a.reads[i1]);
                return ("reduce_accumulate", f);
            }
            // r0 + r1*r2 — reduction/product accumulate.
            if let (Read(i1), Read(i2)) = (&**m1, &**m2) {
                let (i0, i1, i2) = (*i0, *i1, *i2);
                let f: ElemFn =
                    Arc::new(move |a: &ElemArgs| a.reads[i0] + a.reads[i1] * a.reads[i2]);
                return ("multiply_accumulate", f);
            }
        }
    }
    ("generic", compose(e))
}

/// Recursive closure composition for shapes with no fused template.
/// Mirrors `ops::eval_bin`'s REAL arithmetic node for node.
fn compose(e: &NExpr) -> ElemFn {
    match e {
        NExpr::Lit(c) => {
            let c = *c;
            Arc::new(move |_| c)
        }
        NExpr::Scalar(i) => {
            let i = *i;
            Arc::new(move |a: &ElemArgs| a.scalars[i])
        }
        NExpr::Cast(i) => {
            let i = *i;
            Arc::new(move |a: &ElemArgs| a.lins[i] as f64)
        }
        NExpr::Read(i) => {
            let i = *i;
            Arc::new(move |a: &ElemArgs| a.reads[i])
        }
        NExpr::Neg(x) => {
            let f = compose(x);
            Arc::new(move |a: &ElemArgs| -f(a))
        }
        NExpr::Bin(op, l, r) => {
            let (fl, fr) = (compose(l), compose(r));
            match op {
                BinOp::Add => Arc::new(move |a: &ElemArgs| fl(a) + fr(a)),
                BinOp::Sub => Arc::new(move |a: &ElemArgs| fl(a) - fr(a)),
                BinOp::Mul => Arc::new(move |a: &ElemArgs| fl(a) * fr(a)),
                BinOp::Div => Arc::new(move |a: &ElemArgs| fl(a) / fr(a)),
                BinOp::Pow => Arc::new(move |a: &ElemArgs| fl(a).powf(fr(a))),
                _ => unreachable!("selection admits arithmetic ops only"),
            }
        }
    }
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

    #[test]
    fn templates_match_hot_shapes() {
        use NExpr::*;
        let stencil = Bin(
            BinOp::Mul,
            Box::new(Lit(0.25)),
            Box::new(Bin(
                BinOp::Add,
                Box::new(Bin(
                    BinOp::Add,
                    Box::new(Bin(BinOp::Add, Box::new(Read(0)), Box::new(Read(1)))),
                    Box::new(Read(2)),
                )),
                Box::new(Read(3)),
            )),
        );
        let (name, f) = match_template(&stencil);
        assert_eq!(name, "stencil4_scale");
        let args = ElemArgs {
            reads: &[1.0, 2.0, 3.0, 4.0],
            lins: &[],
            scalars: &[],
        };
        assert_eq!(f(&args), 2.5);

        let (name, f) = match_template(&Bin(
            BinOp::Sub,
            Box::new(Read(0)),
            Box::new(Bin(
                BinOp::Mul,
                Box::new(Bin(BinOp::Div, Box::new(Read(1)), Box::new(Read(2)))),
                Box::new(Read(3)),
            )),
        ));
        assert_eq!(name, "rank1_update");
        assert_eq!(f(&args), 1.0 - (2.0 / 3.0) * 4.0);

        // A shape with no fused template composes the same value.
        let odd = Bin(BinOp::Pow, Box::new(Read(0)), Box::new(Lit(2.0)));
        let (name, f) = match_template(&odd);
        assert_eq!(name, "generic");
        assert_eq!(f(&args), 1.0f64.powf(2.0));
    }

    #[test]
    fn reduce_accumulate_matches_both_shapes() {
        use NExpr::*;
        // r0 + r1 — the plain partial-sum accumulate.
        let (name, f) = match_template(&Bin(BinOp::Add, Box::new(Read(0)), Box::new(Read(1))));
        assert_eq!(name, "reduce_accumulate");
        let args = ElemArgs {
            reads: &[1.5, 2.25],
            lins: &[],
            scalars: &[4.0],
        };
        assert_eq!(f(&args), 1.5 + 2.25);

        // r0 + s*r1 — scalar-weighted accumulate.
        let (name, f) = match_template(&Bin(
            BinOp::Add,
            Box::new(Read(0)),
            Box::new(Bin(BinOp::Mul, Box::new(Scalar(0)), Box::new(Read(1)))),
        ));
        assert_eq!(name, "reduce_accumulate");
        assert_eq!(f(&args), 1.5 + 4.0 * 2.25);
    }
}
