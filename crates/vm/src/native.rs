//! The native kernel tier: FORALL superinstructions compiled to
//! monomorphized Rust closures at lowering time.
//!
//! This is the third execution tier (tree walk → bytecode → native).
//! There is no run-time code generation: [`select`] runs once per
//! lowered FORALL inside `f90d-core::vmlower`, symbolically evaluates
//! the straight-line body over the register code, and — when every
//! value is REAL or INTEGER arithmetic the closures can reproduce
//! bit-for-bit over subscripts affine in the loop variables — emits a
//! [`NativeKernel`]: per-body row kernels ([`RowKernel`]) plus the
//! read/write site descriptions the engine binds against each rank's
//! resolved accessors at dispatch time.
//!
//! A row kernel runs one body over one run of the FORALL's innermost
//! variable: the engine hands it, per read site, the array segment and
//! the `(start, step)` of the row through it ([`RowRead`]), and the
//! kernel is one loop over `f64` (or `i64`) slices — the plain local
//! loop the paper's generated Fortran 77 has between run-time calls.
//!
//! The irregular path (paper §4 ex. 3) rides the same rows. A value the
//! FORALL's inspector/executor gathered (`B(V(I))`) is, once the
//! executor has run, element *k* of a sequential buffer at the rank's
//! *k*-th iteration: a unit-stride row starting at the row's iteration
//! ordinal ([`ReadSite::Gathered`]). A vector-subscripted left-hand
//! side (`A(U(I)) = …`) writes its row into a dense value column and
//! its subscripts — INTEGER row kernels — into an index column, both
//! handed to the shared scatter executor ([`Lhs::Scatter`]). The
//! inspector's own subscripts (`V(I)`) are INTEGER row kernels too
//! ([`NativeGather`]).
//!
//! The contract is strict bit-identity with the bytecode engine (and
//! therefore with the tree walker): same operation tree in the same
//! association order, same integer→real promotion points, the `i64`
//! operators of `ops::eval_bin` / `eval_intrin`, RHS before LHS with
//! the same last writer, and the same modelled element-operation cost.
//! A kernel can never fault where the bytecode would return an error:
//! integer `/` and `MOD` are admitted **by a non-zero, non-`-1` integer
//! constant only**. Anything the symbolic pass cannot prove equivalent
//! — masks, non-constant divisors, integer exponentiation, a gathered
//! value read twice per iteration, indirect subscripts on a read the
//! compiler did not turn into a gather, intrinsics other than `REAL()`
//! and `MOD` — is left to the bytecode tier, and the engine counts the
//! fallback. One shape is left there on purpose: an integer *tree*
//! promoted inside a REAL one (`W(I) = A(I) * REAL(MOD(I, 7) + 1)`;
//! affine integers promote as before). The repo benchmark declares its
//! `irregular-gather` workload valid only while at least one of its
//! FORALLs runs the bytecode loop, that statement is the last one that
//! does, and a change that claims a gain may not edit the benchmark
//! (CHANGES.md, PR 17).

use std::fmt;
use std::sync::Arc;

use f90d_frontend::ast::{BinOp, UnOp};
use f90d_machine::{ArrayData, ElemType, Value};

use crate::bytecode::{AccPlan, ArrayDecl, ExprCode, GatherSpec, Op, VmForall};
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
/// owning [`Sites`]' `reads` / `lins` / `scalar_slots` tables;
/// interior nodes reproduce `ops::eval_bin`'s REAL arithmetic exactly
/// (same association order, `Div` is IEEE `/`, `Pow` is `powf`).
#[derive(Debug, Clone, PartialEq)]
pub enum NExpr {
    /// A REAL literal (including integer constants the bytecode would
    /// promote via `as_real` at this point of the tree).
    Lit(f64),
    /// A REAL program scalar: index into [`Sites::scalar_slots`].
    Scalar(usize),
    /// An integer affine value promoted to REAL here: index into
    /// [`Sites::lins`].
    Cast(usize),
    /// An array element read: index into [`Sites::reads`].
    Read(usize),
    /// Unary negation.
    Neg(Box<NExpr>),
    /// Binary REAL arithmetic (`Add`/`Sub`/`Mul`/`Div`/`Pow` only).
    Bin(BinOp, Box<NExpr>, Box<NExpr>),
}

/// An INTEGER expression tree: what a body's RHS (INTEGER arrays), a
/// vector subscript or an inspector subscript reduced to when it is not
/// affine. Leaves index the owning [`Sites`]' `lins` / `ireads` tables;
/// interior nodes are the `i64` operators of `ops::eval_bin` /
/// `eval_un` / `eval_intrin`, none of which can fault here: a divisor
/// is a constant other than 0 and -1.
#[derive(Debug, Clone, PartialEq)]
pub enum IExpr {
    /// An affine integer: index into [`Sites::lins`].
    Lin(usize),
    /// An INTEGER array element read: index into [`Sites::ireads`].
    Read(usize),
    /// Unary negation.
    Neg(Box<IExpr>),
    /// `Add` / `Sub` / `Mul`.
    Bin(BinOp, Box<IExpr>, Box<IExpr>),
    /// Truncating division by a constant.
    DivC(Box<IExpr>, i64),
    /// `MOD(x, k)` by a constant: the sign of the dividend.
    ModC(Box<IExpr>, i64),
}

/// One read site along a row: element `i` of the row is
/// `data[start + i·step]`. The engine's bind has proved every index of
/// the row in bounds; `step` is 1 for the usual innermost-dimension
/// walk and for a gathered value, 0 for a read that does not depend on
/// the innermost FORALL variable, anything else (negative included) for
/// the rest.
#[derive(Debug, Clone, Copy)]
pub struct RowRead<'a, T = f64> {
    /// The array segment's raw storage.
    pub data: &'a [T],
    /// Flat padded offset of the row's first element.
    pub start: usize,
    /// Offset increment per row element.
    pub step: isize,
}

impl<'a, T: Copy> RowRead<'a, T> {
    /// Element `i` of the row.
    #[inline(always)]
    fn at(&self, i: usize) -> T {
        self.data[(self.start as isize + i as isize * self.step) as usize]
    }

    /// The row as a dense slice when it walks `data` at unit stride.
    #[inline(always)]
    fn unit(&self, n: usize) -> Option<&'a [T]> {
        (self.step == 1).then(|| &self.data[self.start..self.start + n])
    }
}

/// Per-row inputs handed to a [`RowFn`], each in the order of the owning
/// [`Sites`]' tables. The row length is the output slice's.
pub struct RowArgs<'a> {
    /// One descriptor per [`Sites::reads`] site.
    pub reads: &'a [RowRead<'a>],
    /// One descriptor per [`Sites::ireads`] site.
    pub ireads: &'a [RowRead<'a, i64>],
    /// `(start, step)` per [`Sites::lins`] entry: the affine integer
    /// is `start + i·step` at row element `i`.
    pub lins: &'a [(i64, i64)],
    /// One value per [`Sites::scalar_slots`] entry.
    pub scalars: &'a [f64],
}

/// Scratch rows the generic evaluators borrow for intermediate operands:
/// one per rank and phase, reused across rows.
#[derive(Debug, Default)]
pub struct Scratch {
    free: Vec<Vec<f64>>,
    ifree: Vec<Vec<i64>>,
}

/// A monomorphized row kernel: one whole expression over one run of the
/// innermost FORALL variable as a single call that loops over slices —
/// no per-element dispatch. Writes every element of the output row.
pub type RowFn<T = f64> = Arc<dyn Fn(&RowArgs<'_>, &mut [T], &mut Scratch) + Send + Sync>;

/// A body's row kernel, by the element type of the array it writes.
#[derive(Clone)]
pub enum RowKernel {
    /// Rows of a REAL array.
    Real(RowFn),
    /// Rows of an INTEGER array.
    Int(RowFn<i64>),
}

/// An element type the row kernels run over: `f64` for REAL arrays,
/// `i64` for INTEGER ones. What the engine's one row loop needs to stay
/// generic over the two.
pub trait Lane: Copy + Default + Send + 'static {
    /// The raw storage of an array of this type (panics on another).
    fn slice(data: &ArrayData) -> &[Self];
    /// The raw storage, mutably.
    fn slice_mut(data: &mut ArrayData) -> &mut [Self];
    /// A dense column as array storage.
    fn column(vals: Vec<Self>) -> ArrayData;
    /// The kernel of this lane (panics on the other's).
    fn kernel(k: &RowKernel) -> &RowFn<Self>;
}

impl Lane for f64 {
    fn slice(data: &ArrayData) -> &[f64] {
        data.as_real_slice()
    }
    fn slice_mut(data: &mut ArrayData) -> &mut [f64] {
        data.as_real_slice_mut()
    }
    fn column(vals: Vec<f64>) -> ArrayData {
        ArrayData::Real(vals)
    }
    fn kernel(k: &RowKernel) -> &RowFn {
        match k {
            RowKernel::Real(f) => f,
            RowKernel::Int(_) => panic!("an INTEGER kernel on a REAL lane"),
        }
    }
}

impl Lane for i64 {
    fn slice(data: &ArrayData) -> &[i64] {
        data.as_int_slice()
    }
    fn slice_mut(data: &mut ArrayData) -> &mut [i64] {
        data.as_int_slice_mut()
    }
    fn column(vals: Vec<i64>) -> ArrayData {
        ArrayData::Int(vals)
    }
    fn kernel(k: &RowKernel) -> &RowFn<i64> {
        match k {
            RowKernel::Int(f) => f,
            RowKernel::Real(_) => panic!("a REAL kernel on an INTEGER lane"),
        }
    }
}

/// One read site of a row kernel.
#[derive(Debug, Clone)]
pub enum ReadSite {
    /// An array element: which accessor, and the affine global
    /// subscripts (still including any slab-dropped dimension, exactly
    /// as the bytecode `Read` would present them to
    /// `ResolvedAcc::offset`).
    Array {
        /// Accessor-table index.
        acc: u16,
        /// Affine global subscripts, one per source dimension.
        subs: Vec<Lin>,
    },
    /// The value the FORALL's `gather`-th unstructured read fetched for
    /// this iteration (the bytecode's `ReadSeq`): element *k* of the
    /// gather's sequential buffer at the rank's *k*-th iteration — a
    /// unit-stride row.
    Gathered {
        /// Index into the FORALL's gather list.
        gather: u16,
    },
}

/// The leaf tables of a group of row kernels that run over the same
/// rows (one body's RHS and vector subscripts; one gather's inspector
/// subscripts): what the engine binds per rank to fill [`RowArgs`].
#[derive(Debug, Clone, Default)]
pub struct Sites {
    /// REAL read sites feeding [`RowArgs::reads`].
    pub reads: Vec<ReadSite>,
    /// INTEGER read sites feeding [`RowArgs::ireads`].
    pub ireads: Vec<ReadSite>,
    /// Affine integers feeding [`RowArgs::lins`].
    pub lins: Vec<Lin>,
    /// REAL scalar slots feeding [`RowArgs::scalars`] (must hold
    /// `Value::Real` at dispatch or the FORALL falls back).
    pub scalar_slots: Vec<u16>,
}

/// Drop the growth slack of a table of affine forms: a lowered program
/// is kept (and cached) far longer than selection takes.
fn shrunk(mut lins: Vec<Lin>) -> Vec<Lin> {
    for lin in &mut lins {
        lin.vterms.shrink_to_fit();
        lin.sterms.shrink_to_fit();
    }
    lins.shrink_to_fit();
    lins
}

impl Sites {
    /// [`shrunk`] for every table.
    fn shrunk(mut self) -> Sites {
        for site in self.reads.iter_mut().chain(&mut self.ireads) {
            if let ReadSite::Array { subs, .. } = site {
                *subs = shrunk(std::mem::take(subs));
            }
        }
        self.reads.shrink_to_fit();
        self.ireads.shrink_to_fit();
        self.lins = shrunk(self.lins);
        self.scalar_slots.shrink_to_fit();
        self
    }
}

/// Where a body's rows go.
#[derive(Clone)]
pub enum Lhs {
    /// An owned write at affine global subscripts.
    Owned {
        /// LHS accessor.
        acc: u16,
        /// Affine global subscripts of the write.
        subs: Vec<Lin>,
    },
    /// A vector-subscripted write (paper §4 cases 3/4): the row is a
    /// run of the rank's value column for the post-loop scatter
    /// executor, and `subs` — one INTEGER row kernel per destination
    /// dimension, over the body's [`Sites`] — fill its index column.
    Scatter {
        /// Global subscript kernels, one per destination dimension.
        subs: Vec<RowFn<i64>>,
    },
}

/// One compiled body assignment of a [`NativeKernel`].
#[derive(Clone)]
pub struct NativeBody {
    /// Which template matched (`"generic"` / `"int_rows"` for composed
    /// closures) — diagnostic only.
    pub template: &'static str,
    /// The row kernel.
    pub func: RowKernel,
    /// Leaf tables of `func` and of the [`Lhs::Scatter`] kernels.
    pub sites: Sites,
    /// The write.
    pub lhs: Lhs,
    /// Modelled element-operation cost per iteration (identical to the
    /// bytecode body's `cost`).
    pub cost: i64,
}

impl fmt::Debug for NativeBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeBody")
            .field("template", &self.template)
            .field("sites", &self.sites)
            .field("cost", &self.cost)
            .finish_non_exhaustive()
    }
}

/// The inspector half of one unstructured read, compiled: the global
/// subscripts of `src(subs(i…))` as INTEGER row kernels, evaluated a
/// run of iterations at a time into the request list.
#[derive(Clone)]
pub struct NativeGather {
    /// One kernel per source dimension.
    pub subs: Vec<RowFn<i64>>,
    /// Their leaf tables.
    pub sites: Sites,
}

impl fmt::Debug for NativeGather {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("NativeGather")
            .field("sites", &self.sites)
            .finish_non_exhaustive()
    }
}

/// A FORALL compiled to the native tier: one [`NativeBody`] per body
/// assignment, one [`NativeGather`] per unstructured read, plus the
/// loop-variable slots (outer to inner) the affine forms are expressed
/// over.
#[derive(Debug, Clone)]
pub struct NativeKernel {
    /// Loop-variable slots of the FORALL, outer to inner — the dispatch
    /// binding maps [`Lin::vterms`] coefficients onto iteration-list
    /// positions through this table.
    pub var_slots: Vec<u16>,
    /// Compiled bodies, in source order. A [`Lhs::Scatter`] body is the
    /// only one of its kernel.
    pub bodies: Vec<NativeBody>,
    /// Compiled inspectors, in the FORALL's gather order.
    pub gathers: Vec<NativeGather>,
}

// ---- selection (lowering-time symbolic evaluation) ---------------------

/// Symbolic value of one bytecode register during selection.
#[derive(Debug, Clone)]
enum Sym {
    /// Integer, affine in loop variables and INTEGER scalars.
    Int(Lin),
    /// Integer, any other admitted expression.
    IntTree(IExpr),
    /// REAL expression tree.
    Real(NExpr),
    /// Anything the native tier cannot reproduce bit-exactly.
    Opaque,
}

/// A divisor the INTEGER lane admits: a constant that can neither fault
/// (`0`) nor overflow (`i64::MIN / -1`), so a kernel never has to
/// return an error the bytecode would.
fn const_divisor(s: &Sym) -> Option<i64> {
    match s {
        Sym::Int(lin) => lin.as_const().filter(|&k| k != 0 && k != -1),
        _ => None,
    }
}

/// The program tables selection reads.
#[derive(Clone, Copy)]
struct Tables<'a> {
    arrays: &'a [ArrayDecl],
    scalars: &'a [(String, ElemType)],
    consts: &'a [Value],
    accessors: &'a [AccPlan],
    gathers: &'a [GatherSpec<ExprCode>],
}

/// Selection state of one group of kernels over the same rows.
struct SiteCtx<'a> {
    t: Tables<'a>,
    /// `ReadSeq` executions per iteration so far, per gather; `None`
    /// where a gathered value may not be read at all (the inspector's
    /// own subscripts).
    seq_reads: Option<&'a mut [u32]>,
    sites: Sites,
}

impl SiteCtx<'_> {
    fn real_scalar(&mut self, slot: u16) -> usize {
        let slots = &mut self.sites.scalar_slots;
        if let Some(i) = slots.iter().position(|&s| s == slot) {
            i
        } else {
            slots.push(slot);
            slots.len() - 1
        }
    }

    /// The integer value as a tree (affine values become leaves).
    fn int_tree(&mut self, s: Sym) -> Option<IExpr> {
        match s {
            Sym::Int(lin) => {
                self.sites.lins.push(lin);
                Some(IExpr::Lin(self.sites.lins.len() - 1))
            }
            Sym::IntTree(t) => Some(t),
            _ => None,
        }
    }

    /// Promote to REAL exactly where the bytecode would call `as_real`.
    fn promote_real(&mut self, s: Sym) -> Sym {
        match s {
            Sym::Int(lin) => match lin.as_const() {
                Some(k) => Sym::Real(NExpr::Lit(k as f64)),
                None => {
                    self.sites.lins.push(lin);
                    Sym::Real(NExpr::Cast(self.sites.lins.len() - 1))
                }
            },
            real @ Sym::Real(_) => real,
            // An integer *tree* is not promoted into a REAL one
            // (`REAL(MOD(I, 7) + 1)`): see the module docs.
            Sym::IntTree(_) | Sym::Opaque => Sym::Opaque,
        }
    }

    fn eval_bin(&mut self, op: BinOp, a: Sym, b: Sym) -> Sym {
        use BinOp::*;
        if op.is_logical() || op.is_comparison() {
            return Sym::Opaque; // LOGICAL values never reach a numeric store.
        }
        if let (Sym::Int(x), Sym::Int(y)) = (&a, &b) {
            let affine = match op {
                Add => Some(x.combine(y, 1)),
                Sub => Some(x.combine(y, -1)),
                Mul => match (x.as_const(), y.as_const()) {
                    (Some(k), _) => Some(y.scale(k)),
                    (_, Some(k)) => Some(x.scale(k)),
                    _ => None, // nonlinear: a tree below
                },
                _ => None,
            };
            if let Some(lin) = affine {
                return Sym::Int(lin);
            }
        }
        if matches!(a, Sym::Int(_) | Sym::IntTree(_)) && matches!(b, Sym::Int(_) | Sym::IntTree(_))
        {
            let divisor = const_divisor(&b);
            let tree = |ctx: &mut Self, s| Box::new(ctx.int_tree(s).expect("integer operand"));
            return match (op, divisor) {
                (Add | Sub | Mul, _) => {
                    let (l, r) = (tree(self, a), tree(self, b));
                    Sym::IntTree(IExpr::Bin(op, l, r))
                }
                (Div, Some(k)) => Sym::IntTree(IExpr::DivC(tree(self, a), k)),
                // A divisor that is not a safe constant can fault, and
                // integer exponentiation clamps and faults on
                // negatives: the bytecode tier's to report.
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
                    regs[dst as usize] = match self.t.consts[k as usize] {
                        Value::Int(v) => Sym::Int(Lin::konst(v)),
                        Value::Real(v) => Sym::Real(NExpr::Lit(v)),
                        _ => Sym::Opaque,
                    }
                }
                Op::LoadVar { dst, slot } => regs[dst as usize] = Sym::Int(Lin::var(slot)),
                Op::LoadScalar { dst, slot } => {
                    regs[dst as usize] = match self.t.scalars[slot as usize].1 {
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
                        (UnOp::Neg, Sym::IntTree(t)) => Sym::IntTree(IExpr::Neg(Box::new(t))),
                        (UnOp::Neg, Sym::Real(e)) => Sym::Real(NExpr::Neg(Box::new(e))),
                        _ => Sym::Opaque,
                    }
                }
                Op::Intrin { f, dst, base, n } => {
                    let args = &regs[base as usize..(base + n) as usize];
                    regs[dst as usize] = match (f, args) {
                        (Intrin::ToReal, [arg]) => {
                            let arg = arg.clone();
                            self.promote_real(arg)
                        }
                        // Integer MOD by a safe constant; a REAL operand
                        // makes it a REAL `%`, left to the bytecode with
                        // every other intrinsic.
                        (Intrin::Mod, [x, y]) => match (self.int_tree(x.clone()), const_divisor(y))
                        {
                            (Some(x), Some(k)) => Sym::IntTree(IExpr::ModC(Box::new(x), k)),
                            _ => Sym::Opaque,
                        },
                        _ => Sym::Opaque,
                    }
                }
                Op::Read { dst, acc, base, n } => {
                    // Affine subscripts only: an indirect subscript the
                    // compiler left in place is per-element work.
                    let subs: Option<Vec<Lin>> = regs[base as usize..(base + n) as usize]
                        .iter()
                        .map(|r| match r {
                            Sym::Int(lin) => Some(lin.clone()),
                            _ => None,
                        })
                        .collect();
                    let ty = self.t.arrays[self.t.accessors[acc as usize].target()].ty;
                    regs[dst as usize] = match subs {
                        Some(subs) => self.read(ReadSite::Array { acc, subs }, ty),
                        None => Sym::Opaque,
                    };
                }
                Op::ReadSeq { dst, gather } => {
                    regs[dst as usize] = match &mut self.seq_reads {
                        Some(counts) => {
                            counts[gather as usize] += 1;
                            let ty = self.t.arrays[self.t.gathers[gather as usize].tmp].ty;
                            self.read(ReadSite::Gathered { gather }, ty)
                        }
                        None => Sym::Opaque,
                    }
                }
            }
        }
        regs[code.out as usize].clone()
    }

    /// Register a read site of an array of element type `ty`.
    fn read(&mut self, site: ReadSite, ty: ElemType) -> Sym {
        match ty {
            ElemType::Real => {
                self.sites.reads.push(site);
                Sym::Real(NExpr::Read(self.sites.reads.len() - 1))
            }
            ElemType::Int => {
                self.sites.ireads.push(site);
                Sym::IntTree(IExpr::Read(self.sites.ireads.len() - 1))
            }
            _ => Sym::Opaque,
        }
    }

    /// `codes` as INTEGER row kernels — vector or inspector subscripts.
    fn int_kernels(&mut self, codes: &[ExprCode]) -> Option<Vec<RowFn<i64>>> {
        codes
            .iter()
            .map(|c| {
                let sym = self.eval_code(c);
                self.int_tree(sym).map(|t| compose_int(&t))
            })
            .collect()
    }
}

/// Try to compile a lowered FORALL to the native tier. Returns `None`
/// when any part of it falls outside what the closures can reproduce
/// bit-exactly; the bytecode element loop remains the executor then.
pub fn select(
    f: &VmForall,
    arrays: &[ArrayDecl],
    scalars: &[(String, ElemType)],
    consts: &[Value],
    accessors: &[AccPlan],
) -> Option<NativeKernel> {
    // Masks change which iterations execute (and charge mask cost), and
    // with them the ordinal a gathered value sits at: bytecode-only.
    if f.mask.is_some() || f.body.is_empty() {
        return None;
    }
    // A scatter FORALL hands one value column to the post-loop executor.
    if f.body.len() > 1 && f.body.iter().any(|b| b.scatter.is_some()) {
        return None;
    }
    let mut seq_reads = vec![0u32; f.gathers.len()];
    let t = Tables {
        arrays,
        scalars,
        consts,
        accessors,
        gathers: &f.gathers,
    };
    let mut bodies = Vec::with_capacity(f.body.len());
    for b in &f.body {
        if b.arr != f.body[0].arr {
            return None;
        }
        let mut ctx = SiteCtx {
            t,
            seq_reads: Some(&mut seq_reads),
            sites: Sites::default(),
        };
        // RHS first (bytecode evaluation order), then the subscripts.
        let rhs = ctx.eval_code(&b.rhs);
        let (template, func) = match arrays[b.arr].ty {
            ElemType::Real => {
                let Sym::Real(expr) = ctx.promote_real(rhs) else {
                    return None;
                };
                let (template, func) = match_template(&expr);
                (template, RowKernel::Real(func))
            }
            // A REAL value stored to an INTEGER array truncates per
            // element: bytecode's.
            ElemType::Int => ("int_rows", RowKernel::Int(compose_int(&ctx.int_tree(rhs)?))),
            _ => return None,
        };
        let lhs = match b.scatter {
            None => {
                let mut subs = Vec::with_capacity(b.subs.len());
                for s in &b.subs {
                    match ctx.eval_code(s) {
                        Sym::Int(lin) => subs.push(lin),
                        _ => return None,
                    }
                }
                Lhs::Owned {
                    acc: b.lhs_acc?,
                    subs: shrunk(subs),
                }
            }
            Some(_) => Lhs::Scatter {
                subs: ctx.int_kernels(&b.subs)?,
            },
        };
        bodies.push(NativeBody {
            template,
            func,
            sites: ctx.sites.shrunk(),
            lhs,
            cost: b.cost,
        });
    }
    // A gathered value is element k of its buffer at iteration k only
    // if every iteration consumes exactly one.
    if seq_reads.iter().any(|&n| n != 1) {
        return None;
    }
    let mut gathers = Vec::with_capacity(f.gathers.len());
    for g in &f.gathers {
        // Subscripts must not depend on gathered values (the bytecode
        // inspector reports that as an error).
        let mut ctx = SiteCtx {
            t,
            seq_reads: None,
            sites: Sites::default(),
        };
        gathers.push(NativeGather {
            subs: ctx.int_kernels(&g.subs)?,
            sites: ctx.sites.shrunk(),
        });
    }
    Some(NativeKernel {
        var_slots: f.vars.iter().map(|s| s.var).collect(),
        bodies,
        gathers,
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

// ---- the generic row evaluators ----------------------------------------

/// Where a subtree's row value is after [`eval_row`] / [`eval_irow`].
enum Val<'a, T> {
    /// The same value at every row element (literals, scalars, reads and
    /// affine integers that do not depend on the innermost variable, and
    /// any arithmetic over those — computed once, with the identical
    /// operation the per-element form would repeat).
    Uniform(T),
    /// A unit-stride read, borrowed straight from the array.
    Slice(&'a [T]),
    /// Written to the evaluator's output row.
    Out,
}

/// `out[i] = f(l[i], r[i])` for every placement of the operands; two
/// uniform operands fold to a uniform result and leave `out` alone.
#[inline(always)]
fn zip_rows<T: Copy>(
    out: &mut [T],
    l: Val<'_, T>,
    r: Val<'_, T>,
    f: impl Fn(T, T) -> T,
) -> Option<T> {
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

/// `f` applied along a row, wherever the row is.
#[inline(always)]
fn map_row<'a, T: Copy>(out: &mut [T], v: Val<'a, T>, f: impl Fn(T) -> T) -> Val<'a, T> {
    match v {
        Val::Uniform(x) => return Val::Uniform(f(x)),
        Val::Slice(row) => {
            for (o, &x) in out.iter_mut().zip(row) {
                *o = f(x);
            }
        }
        Val::Out => {
            for o in out.iter_mut() {
                *o = f(*o);
            }
        }
    }
    Val::Out
}

/// A read site's row: a uniform value, a borrowed slice, or a strided
/// walk copied to `out`.
#[inline(always)]
fn read_row<'a, T: Copy>(r: &RowRead<'a, T>, out: &mut [T]) -> Val<'a, T> {
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

/// An affine integer's row under `cast`: uniform, or a fill of `out`.
#[inline(always)]
fn lin_row<'a, T: Copy>(
    (start, step): (i64, i64),
    out: &mut [T],
    cast: fn(i64) -> T,
) -> Val<'a, T> {
    if step == 0 {
        return Val::Uniform(cast(start));
    }
    for (i, o) in out.iter_mut().enumerate() {
        *o = cast(start + i as i64 * step);
    }
    Val::Out
}

/// Evaluate `e` over one row of `out.len()` elements, one tight loop per
/// tree node. Mirrors `ops::eval_bin`'s REAL arithmetic node for node.
fn eval_row<'a>(
    e: &NExpr,
    a: &RowArgs<'a>,
    out: &mut [f64],
    scratch: &mut Scratch,
) -> Val<'a, f64> {
    match e {
        NExpr::Lit(c) => Val::Uniform(*c),
        NExpr::Scalar(i) => Val::Uniform(a.scalars[*i]),
        NExpr::Cast(i) => lin_row(a.lins[*i], out, |v| v as f64),
        NExpr::Read(i) => read_row(&a.reads[*i], out),
        NExpr::Neg(x) => {
            let v = eval_row(x, a, out, scratch);
            map_row(out, v, |v| -v)
        }
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

/// [`eval_row`] for INTEGER trees: the `i64` operators of
/// `ops::eval_bin` / `eval_un` / `eval_intrin`, node for node.
fn eval_irow<'a>(
    e: &IExpr,
    a: &RowArgs<'a>,
    out: &mut [i64],
    scratch: &mut Scratch,
) -> Val<'a, i64> {
    match e {
        IExpr::Lin(i) => lin_row(a.lins[*i], out, |v| v),
        IExpr::Read(i) => read_row(&a.ireads[*i], out),
        IExpr::Neg(x) => {
            let v = eval_irow(x, a, out, scratch);
            map_row(out, v, |v| -v)
        }
        IExpr::DivC(x, k) => {
            let (v, k) = (eval_irow(x, a, out, scratch), *k);
            map_row(out, v, |v| v / k)
        }
        IExpr::ModC(x, k) => {
            let (v, k) = (eval_irow(x, a, out, scratch), *k);
            map_row(out, v, |v| v % k)
        }
        IExpr::Bin(op, l, r) => {
            let lv = eval_irow(l, a, out, scratch);
            let mut tmp = scratch.ifree.pop().unwrap_or_default();
            tmp.resize(out.len(), 0);
            let rv = match eval_irow(r, a, &mut tmp, scratch) {
                Val::Out => Val::Slice(&tmp),
                v => v,
            };
            let folded = match op {
                BinOp::Add => zip_rows(out, lv, rv, |x, y| x + y),
                BinOp::Sub => zip_rows(out, lv, rv, |x, y| x - y),
                BinOp::Mul => zip_rows(out, lv, rv, |x, y| x * y),
                _ => unreachable!("selection admits + - * only"),
            };
            scratch.ifree.push(tmp);
            folded.map_or(Val::Out, Val::Uniform)
        }
    }
}

/// Whatever of a row is not already in the output row is copied or
/// filled there.
#[inline(always)]
fn settle<T: Copy>(out: &mut [T], v: Val<'_, T>) {
    match v {
        Val::Uniform(v) => out.fill(v),
        Val::Slice(row) => out.copy_from_slice(row),
        Val::Out => {}
    }
}

/// The row kernel for REAL shapes with no fused template: `eval_row`
/// over the reduced tree.
pub fn compose(e: &NExpr) -> RowFn {
    let e = e.clone();
    Arc::new(move |a, out, scratch| {
        let v = eval_row(&e, a, out, scratch);
        settle(out, v)
    })
}

/// The row kernel of an INTEGER tree: `eval_irow` over it.
pub fn compose_int(e: &IExpr) -> RowFn<i64> {
    let e = e.clone();
    Arc::new(move |a, out, scratch| {
        let v = eval_irow(&e, a, out, scratch);
        settle(out, v)
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

    /// The per-element meaning of an INTEGER tree, through the
    /// `Value`-level operators the bytecode evaluates with.
    fn eval_ielem(e: &IExpr, ireads: &[i64], lins: &[i64]) -> i64 {
        use crate::ops::{eval_bin, eval_intrin, eval_un};
        let ev = |x: &IExpr| Value::Int(eval_ielem(x, ireads, lins));
        let v = match e {
            IExpr::Lin(i) => return lins[*i],
            IExpr::Read(i) => return ireads[*i],
            IExpr::Neg(x) => eval_un(UnOp::Neg, ev(x)),
            IExpr::Bin(op, l, r) => eval_bin(*op, ev(l), ev(r)),
            IExpr::DivC(x, k) => eval_bin(BinOp::Div, ev(x), Value::Int(*k)),
            IExpr::ModC(x, k) => eval_intrin(Intrin::Mod, &[ev(x), Value::Int(*k)]),
        };
        v.expect("an admitted integer operator cannot fault")
            .as_int()
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

    /// The row of [`LAYOUTS`]`[layout]` through `data`.
    fn row<T>(data: &[T], layout: usize) -> RowRead<'_, T> {
        let (start, step) = LAYOUTS[layout];
        RowRead { data, start, step }
    }

    /// Sign-mixed INTEGER segments, one per site.
    fn int_data(nreads: usize) -> Vec<Vec<i64>> {
        (0..nreads)
            .map(|k| {
                (0..64)
                    .map(|x| (x * 37 + k as i64 * 11) % 29 - 13)
                    .collect()
            })
            .collect()
    }

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
                let reads: Vec<RowRead<'_>> = (0..nreads).map(|k| row(&data[k], mix[k])).collect();
                let args = RowArgs {
                    reads: &reads,
                    ireads: &[],
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

    fn ibin(op: BinOp, l: IExpr, r: IExpr) -> IExpr {
        IExpr::Bin(op, Box::new(l), Box::new(r))
    }

    /// INTEGER row kernels carry, element for element, what
    /// `ops::eval_bin` / `eval_intrin` compute: truncation toward zero
    /// and the sign of the dividend over negative operands and negative
    /// constants, under every site layout.
    #[test]
    fn int_rows_match_the_value_operators() {
        use BinOp::*;
        use IExpr::*;
        let fill = ibin(
            Add,
            ModC(Box::new(Lin(0)), 8),
            Lin(1), // uniform
        );
        let trees = [
            fill,
            ModC(Box::new(ibin(Sub, Read(0), Lin(0))), -7),
            DivC(Box::new(ibin(Mul, Read(0), Read(1))), -3),
            ibin(
                Sub,
                DivC(Box::new(Neg(Box::new(Read(1)))), 4),
                ModC(Box::new(Read(0)), 5),
            ),
            Neg(Box::new(Lin(1))),
            Read(0),
            ibin(Mul, Lin(0), Lin(0)),
        ];
        let idata = int_data(2);
        let lins = [(-20i64, 3i64), (9, 0)];
        let mut scratch = Scratch::default();
        for e in &trees {
            let f = compose_int(e);
            for n in [1usize, 7, 20] {
                for mix in MIXES {
                    let ireads: Vec<RowRead<'_, i64>> =
                        (0..2).map(|k| row(&idata[k], mix[k])).collect();
                    let args = RowArgs {
                        reads: &[],
                        ireads: &ireads,
                        lins: &lins,
                        scalars: &[],
                    };
                    let mut out = vec![i64::MIN; n];
                    f(&args, &mut out, &mut scratch);
                    for (i, got) in out.iter().enumerate() {
                        let ir: Vec<i64> = ireads.iter().map(|r| r.at(i)).collect();
                        let l: Vec<i64> = lins.iter().map(|&(s, st)| s + i as i64 * st).collect();
                        assert_eq!(
                            *got,
                            eval_ielem(e, &ir, &l),
                            "{e:?}, n={n} mix={mix:?} element {i}"
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

    /// `FORALL (I) A(I) = <rhs over gather 0 of B>`, lowered by hand.
    fn gather_forall(rhs: Vec<Op>, nregs: u16) -> (VmForall, Vec<ArrayDecl>) {
        use crate::bytecode::{LoopSpec, Partition, VmAssign};
        use f90d_distrib::DadBuilder;
        let code = |ops: Vec<Op>, nregs| ExprCode { ops, out: 0, nregs };
        let var = |slot| code(vec![Op::LoadVar { dst: 0, slot }], 1);
        let konst = |k| code(vec![Op::Const { dst: 0, k }], 1);
        let decl = |name: &str, is_temp| ArrayDecl {
            name: name.into(),
            ty: ElemType::Real,
            dad: DadBuilder::new(name, &[8]).build().unwrap(),
            ghost: 0,
            is_temp,
        };
        let f = VmForall {
            vars: vec![LoopSpec {
                var: 0,
                lb: konst(0),
                ub: konst(1),
                st: konst(2),
                part: Partition::BlockIter,
            }],
            mask: None,
            mask_cost: 0,
            pre: vec![],
            gathers: vec![GatherSpec {
                src: 1,
                tmp: 2,
                subs: vec![var(0)],
                local_only: false,
            }],
            owner_filter: vec![],
            body: vec![VmAssign {
                arr: 0,
                subs: vec![var(0)],
                rhs: code(rhs, nregs),
                lhs_acc: Some(0),
                scatter: None,
                cost: 3,
            }],
            accs_used: vec![0],
            native: None,
            plan: None,
        };
        (f, vec![decl("A", false), decl("B", false), decl("G", true)])
    }

    /// A gathered value is element *k* of its buffer at iteration *k*
    /// only while every iteration consumes exactly one: a body that
    /// reads a gather twice (or never) is refused at selection, not
    /// mis-striped.
    #[test]
    fn a_gather_read_twice_per_iteration_is_refused() {
        let consts = [Value::Int(0), Value::Int(7), Value::Int(1)];
        let accessors = [AccPlan::Owned { arr: 0 }];
        let seq = |dst| Op::ReadSeq { dst, gather: 0 };
        let add = Op::Bin {
            op: BinOp::Add,
            dst: 0,
            a: 0,
            b: 1,
        };
        let select = |rhs, nregs| {
            let (f, arrays) = gather_forall(rhs, nregs);
            select(&f, &arrays, &[], &consts, &accessors)
        };
        let once = select(vec![seq(0)], 1).expect("one read per iteration selects");
        assert!(matches!(
            once.bodies[0].sites.reads[..],
            [ReadSite::Gathered { gather: 0 }]
        ));
        assert_eq!(once.gathers.len(), 1);
        assert!(select(vec![seq(0), seq(1), add], 2).is_none(), "read twice");
        let never = vec![Op::Const { dst: 0, k: 1 }];
        assert!(select(never, 1).is_none(), "never read");
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
