//! The native kernel tier: FORALL superinstructions built from prebuilt
//! Rust closures at lowering time.
//!
//! This is the tier above the bytecode chunk loop, and what it owns is
//! what it *proves*, not how an operator is computed. There is no
//! run-time code generation: [`select`] runs once per lowered FORALL
//! inside `f90d-core::vmlower`, symbolically evaluates the straight-line
//! body over the register code, and — when every value is REAL or
//! INTEGER arithmetic over subscripts affine in the loop variables, none
//! of which can fault — emits a [`NativeKernel`]: per-body box kernels
//! ([`BoxKernel`]) plus the read/write site descriptions the engine
//! binds against each rank's resolved accessors at dispatch time. The
//! proofs buy slice walks in place of offset columns, no mask, no stage
//! where the alias rule allows, and two fused templates, the ones a
//! workload pays for: the four-point stencil and the Gaussian step's
//! rank-1 update ([`match_template`]). Every other shape is a generic
//! kernel ([`compose`]) that evaluates its tree a row at a time through
//! the column operator table of the bytecode tier ([`Elem::arith`]):
//! outside the fused templates this file applies no arithmetic to a lane
//! value.
//!
//! A box kernel runs one body over one *box* of the iteration space:
//! `rows` consecutive values of the FORALL's second-innermost variable ×
//! one run of the innermost. The engine hands it, per read site, the
//! array segment and the `(start, row_step, step)` of the site's walk
//! through it ([`BoxRead`], [`Walk`]); inside, the box is the plain
//! doubly nested local loop the paper's generated Fortran 77 has between
//! run-time calls. Most kernels run its rows in order, a row's
//! descriptors one multiply-add per site away from the box's and a row
//! one loop over `f64` (or `i64`) slices. The Gaussian step's rank-1
//! update, whose rows are short (12 columns a rank at `gauss-ipsc16`'s
//! shape) and whose multiplier is one value per row, runs a box of
//! several rows as one 2-D loop instead (`rank1_box`): every row's
//! multiplier divided first, then a block of four columns at a time
//! across every row — each element still its own `x - m*y`, in an order
//! no element can see. The `dyn` call, the argument build and the
//! output slicing happen once per box. A 1-D FORALL is a box of one
//! row. A site
//! may be the very element the box overwrites ([`BoxRead::data`] is
//! `None`): a generic kernel computes a row before it stores it, so the
//! site is a view of the output row; a fused one reads it element by
//! element when it is the operand the shape updates (`x - m*y`), from a
//! snapshot of the row otherwise.
//!
//! The irregular path (paper §4 ex. 3) rides the same boxes. A value the
//! FORALL's inspector/executor gathered (`B(V(I))`) is, once the
//! executor has run, element *k* of a sequential buffer at the rank's
//! *k*-th iteration: a unit-stride walk from the box's iteration
//! ordinal, one inner list per row ([`ReadSite::Gathered`]). A
//! vector-subscripted left-hand side (`A(U(I)) = …`) writes its box into
//! a dense value column and its subscripts — INTEGER box kernels — into
//! an index column, both handed to the shared scatter executor
//! ([`Lhs::Scatter`]). The inspector's own subscripts (`V(I)`) are
//! INTEGER box kernels too ([`NativeGather`]).
//!
//! The contract is strict bit-identity with the bytecode tier: same
//! operation tree in the same association order, same integer→real
//! promotion points, INTEGER arithmetic that wraps, RHS before LHS with
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
//! FORALLs runs the bytecode loop, and only a benchmark PR may change
//! that (CHANGES.md, PR 17; ROADMAP item 1(b)): admitting the shape is
//! the deletion of one refusal in `promote_real`, not a new evaluator.

use std::fmt;
use std::sync::Arc;

use f90d_frontend::ast::{BinOp, UnOp};
use f90d_machine::{ElemType, Value};

use crate::bytecode::{AccPlan, ArrayDecl, ExprCode, GatherSpec, Op, VmForall};
use crate::columns::{Arg, Arith};
pub use crate::columns::{Elem, Pool};
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

    /// `self + sign·other`. Folds wrap as the per-element operators do:
    /// wrapping is a ring homomorphism, so the folded form still equals
    /// the value computed element by element.
    fn combine(&self, other: &Lin, sign: i64) -> Lin {
        let mut out = self.clone();
        out.base = out.base.wrapping_add(sign.wrapping_mul(other.base));
        for &(s, a) in &other.vterms {
            merge_term(&mut out.vterms, s, sign.wrapping_mul(a));
        }
        for &(s, a) in &other.sterms {
            merge_term(&mut out.sterms, s, sign.wrapping_mul(a));
        }
        out
    }

    fn scale(&self, k: i64) -> Lin {
        let scaled = |&(s, a): &(u16, i64)| (s, a.wrapping_mul(k));
        Lin {
            base: self.base.wrapping_mul(k),
            vterms: self.vterms.iter().map(scaled).collect(),
            sterms: self.sterms.iter().map(scaled).collect(),
        }
    }
}

fn merge_term(terms: &mut Vec<(u16, i64)>, slot: u16, coeff: i64) {
    if let Some(i) = terms.iter().position(|&(s, _)| s == slot) {
        terms[i].1 = terms[i].1.wrapping_add(coeff);
        if terms[i].1 == 0 {
            // Keep cancelled terms out so `as_const` sees `I - I` shapes.
            terms.remove(i);
        }
    } else if coeff != 0 {
        terms.push((slot, coeff));
    }
}

/// The typed expression tree a body's RHS, a vector subscript or an
/// inspector subscript reduced to: REAL when it feeds a REAL array,
/// INTEGER when it feeds an INTEGER array or a subscript. A tree is of
/// one type throughout — the only INTEGER it promotes is an affine leaf.
/// Leaves index the owning [`Sites`]' tables; interior nodes are
/// evaluated by the column operators ([`compose`]), in the bytecode's
/// association order, and none of them can fault: an INTEGER divisor is
/// a constant other than 0 and -1.
#[derive(Debug, Clone, PartialEq)]
pub enum NExpr {
    /// A REAL literal (including integer constants the bytecode would
    /// promote via `as_real` at this point of the tree).
    Lit(f64),
    /// A REAL program scalar: index into [`Sites::scalar_slots`].
    Scalar(usize),
    /// An affine integer, as a value of the tree's type — in a REAL
    /// tree it is promoted here: index into [`Sites::lins`].
    Lin(usize),
    /// An array element read: index into [`Sites::reads`] in a REAL
    /// tree, [`Sites::ireads`] in an INTEGER one.
    Read(usize),
    /// Unary negation.
    Neg(Box<NExpr>),
    /// Binary arithmetic: `Add`/`Sub`/`Mul`, and `Div`/`Pow` on REALs.
    Bin(BinOp, Box<NExpr>, Box<NExpr>),
    /// Truncating INTEGER division by a constant.
    DivC(Box<NExpr>, i64),
    /// INTEGER `MOD(x, k)` by a constant: the sign of the dividend.
    ModC(Box<NExpr>, i64),
}

/// An affine walk over a box: at element `i` of row `r` it stands at
/// `start + r·row_step + i·step`. A read site's flat padded offset, an
/// affine integer's value and a gathered value's iteration ordinal are
/// all walks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Walk {
    /// Where row 0 starts.
    pub start: i64,
    /// Increment per row: 0 for a walk that does not depend on the
    /// second-innermost FORALL variable.
    pub row_step: i64,
    /// Increment per row element: 1 for the usual innermost-dimension
    /// walk and for a gathered value, 0 for a walk that does not depend
    /// on the innermost FORALL variable, anything else (negative
    /// included) for the rest.
    pub step: i64,
}

impl Walk {
    /// `(start, step)` of row `r`: one (wrapping) multiply-add.
    #[inline(always)]
    fn row(&self, r: usize) -> (i64, i64) {
        let down = (r as i64).wrapping_mul(self.row_step);
        (self.start.wrapping_add(down), self.step)
    }
}

/// One read site over a box: element `i` of row `r` is `data[walk]`.
/// The engine's bind has proved every index of the box in bounds.
#[derive(Debug, Clone, Copy)]
pub struct BoxRead<'a, T = f64> {
    /// The array segment's raw storage — or `None` for the site that
    /// reads, at every tuple, the very element the box writes there
    /// (`A(I,J) = A(I,J) - …` written in place): the kernel takes it from
    /// the output row, before the row is overwritten.
    pub data: Option<&'a [T]>,
    /// Flat padded offset of the site over the box.
    pub walk: Walk,
}

/// What a [`BoxFn`] runs over: `rows` consecutive rows of `len` elements
/// each, and the leaf values of its lane over them, in the order of the
/// owning [`Sites`]' tables.
pub struct BoxArgs<'a, T = f64> {
    /// Rows of the box: values of the second-innermost FORALL variable.
    pub rows: usize,
    /// Elements per row: one run of the innermost variable.
    pub len: usize,
    /// One descriptor per read site of the kernel's lane
    /// ([`Sites::reads`] for a REAL kernel, [`Sites::ireads`] for an
    /// INTEGER one).
    pub reads: &'a [BoxRead<'a, T>],
    /// One walk per [`Sites::lins`] entry: the affine integer's value.
    pub lins: &'a [Walk],
    /// One value per [`Sites::scalar_slots`] entry.
    pub scalars: &'a [f64],
}

/// Where a [`BoxFn`] writes: row `r` is the `len` elements of `data`
/// from `start + r·row_step` — rows are dense, they need not be adjacent
/// or ascending.
pub struct BoxOut<'a, T = f64> {
    /// The written segment (or stage, or column).
    pub data: &'a mut [T],
    /// Where row 0 starts.
    pub start: usize,
    /// Increment per row.
    pub row_step: isize,
}

/// A monomorphized box kernel: one whole expression over `rows` × `len`
/// iterations as a single call — no dispatch per row, none per element.
/// Writes every element of every output row, each from the box's reads
/// alone, so the order it visits them in is its own (rows in order, a
/// row one loop over slices, for most; blocks of columns across the
/// rows for `rank1_box`); the [`Pool`] lends the columns it needs on
/// the way (one per rank and phase will do).
pub type BoxFn<T = f64> = Arc<dyn Fn(&BoxArgs<'_, T>, &mut BoxOut<'_, T>, &mut Pool) + Send + Sync>;

/// One read site along one row of a box: element `i` of the row is
/// `data[start + i·step]`.
#[derive(Clone, Copy)]
struct RowRead<'a, T> {
    data: &'a [T],
    start: usize,
    step: isize,
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

/// Row `r` of a box: what one pass of a kernel's row loop reads.
struct Row<'a, T> {
    r: usize,
    /// The output row as it stood before this pass, when a site reads
    /// it — unless the kernel updates that site in place (`in_place`).
    own: &'a [T],
    /// The one site without `data` is the operand the kernel asked to
    /// take from the output row itself, element by element as it goes:
    /// no snapshot was made, and the kernel must not read that site.
    in_place: bool,
}

impl<'a, T: Copy> Row<'a, T> {
    /// The read site `site` along this row.
    #[inline(always)]
    fn of(&self, site: &BoxRead<'a, T>) -> RowRead<'a, T> {
        let Some(data) = site.data else {
            return RowRead {
                data: self.own,
                start: 0,
                step: 1,
            };
        };
        let (start, step) = site.walk.row(self.r);
        RowRead {
            data,
            start: start as usize,
            step: step as isize,
        }
    }
}

/// Keep the output row as it stands, for the sites that read it. Out of
/// line: the copy is a call, and the row loop's registers should not
/// have to survive it on the boxes that never make it.
#[inline(never)]
fn snapshot<T: Copy>(own: &mut Vec<T>, row: &[T]) {
    own.clear();
    own.extend_from_slice(row);
}

impl<T: Elem> BoxArgs<'_, T> {
    /// The row loop every fused kernel is written over: `f` once per
    /// row, in order, on that row's view and output slice. A row some
    /// site reads its own element of is snapshotted first — a FORALL
    /// reads before it writes, wherever in the expression the read stands
    /// — unless that site is `rmw` and no other: the operand `f` can
    /// update in place (`x = x - m*y` read and written element by element
    /// is the same thing, without the copy).
    #[inline(always)]
    fn for_rows(
        &self,
        out: &mut BoxOut<'_, T>,
        pool: &mut Pool,
        rmw: Option<usize>,
        mut f: impl FnMut(&Row<'_, T>, &mut [T]),
    ) {
        let mut owned = (self.reads.iter().enumerate())
            .filter_map(|(i, site)| site.data.is_none().then_some(i));
        let (first, second) = (owned.next(), owned.next());
        let in_place = first.is_some() && first == rmw && second.is_none();
        let keep = first.is_some() && !in_place;
        let mut own = if keep { pool.take::<T>() } else { Vec::new() };
        // By value: nothing below is reloaded after a row is stored.
        let (rows, len, start, row_step) = (self.rows, self.len, out.start, out.row_step);
        let data = &mut *out.data;
        for r in 0..rows {
            let at = (start as isize + r as isize * row_step) as usize;
            let row = &mut data[at..at + len];
            if keep {
                snapshot(&mut own, row);
            }
            let view = Row {
                r,
                own: &own,
                in_place,
            };
            f(&view, row);
        }
        if keep {
            T::spares(pool).push(own);
        }
    }
}

/// A body's box kernel, by the element type of the array it writes.
#[derive(Clone)]
pub enum BoxKernel {
    /// Boxes of a REAL array.
    Real(BoxFn),
    /// Boxes of an INTEGER array.
    Int(BoxFn<i64>),
}

/// One read site of a box kernel.
#[derive(Debug, Clone)]
pub enum ReadSite {
    /// An array element: which accessor, and the affine global
    /// subscripts, exactly as the bytecode `Read` would present them to
    /// `ResolvedAcc::offset`.
    Array {
        /// Accessor-table index.
        acc: u16,
        /// Affine global subscripts, one per source dimension.
        subs: Vec<Lin>,
    },
    /// The value the FORALL's `gather`-th unstructured read fetched for
    /// this iteration (the bytecode's `ReadSeq`): element *k* of the
    /// gather's sequential buffer at the rank's *k*-th iteration — a
    /// unit-stride row, one inner list past the row before it.
    Gathered {
        /// Index into the FORALL's gather list.
        gather: u16,
    },
}

/// The leaf tables of a group of box kernels that run over the same
/// boxes (one body's RHS and vector subscripts; one gather's inspector
/// subscripts): what the engine binds per rank to fill [`BoxArgs`].
#[derive(Debug, Clone, Default)]
pub struct Sites {
    /// REAL read sites: a REAL kernel's [`BoxArgs::reads`].
    pub reads: Vec<ReadSite>,
    /// INTEGER read sites: an INTEGER kernel's [`BoxArgs::reads`].
    pub ireads: Vec<ReadSite>,
    /// Affine integers feeding [`BoxArgs::lins`].
    pub lins: Vec<Lin>,
    /// REAL scalar slots feeding [`BoxArgs::scalars`] (must hold
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

/// Where a body's boxes go.
#[derive(Clone)]
pub enum Lhs {
    /// An owned write at affine global subscripts.
    Owned {
        /// LHS accessor.
        acc: u16,
        /// Affine global subscripts of the write.
        subs: Vec<Lin>,
    },
    /// A vector-subscripted write (paper §4 cases 3/4): a row is a run
    /// of the rank's value column for the post-loop scatter executor,
    /// and `subs` — one INTEGER box kernel per destination dimension,
    /// over the body's [`Sites`] — fill its index column.
    Scatter {
        /// Global subscript kernels, one per destination dimension.
        subs: Vec<BoxFn<i64>>,
    },
}

/// One compiled body assignment of a [`NativeKernel`].
#[derive(Clone)]
pub struct NativeBody {
    /// Which template matched (`"generic"` / `"int_rows"` for composed
    /// closures) — diagnostic only.
    pub template: &'static str,
    /// The box kernel.
    pub func: BoxKernel,
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
/// subscripts of `src(subs(i…))` as INTEGER box kernels, evaluated a
/// box of iterations at a time into the request list.
#[derive(Clone)]
pub struct NativeGather {
    /// One kernel per source dimension.
    pub subs: Vec<BoxFn<i64>>,
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
    IntTree(NExpr),
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
    fn int_tree(&mut self, s: Sym) -> Option<NExpr> {
        match s {
            Sym::Int(lin) => {
                self.sites.lins.push(lin);
                Some(NExpr::Lin(self.sites.lins.len() - 1))
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
                    Sym::Real(NExpr::Lin(self.sites.lins.len() - 1))
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
                    Sym::IntTree(NExpr::Bin(op, l, r))
                }
                (Div, Some(k)) => Sym::IntTree(NExpr::DivC(tree(self, a), k)),
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
                Op::LoadVar { dst, slot } => regs[dst as usize] = Sym::Int(Lin::affine(slot, 1, 0)),
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
                        (UnOp::Neg, Sym::IntTree(t)) => Sym::IntTree(NExpr::Neg(Box::new(t))),
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
                            (Some(x), Some(k)) => Sym::IntTree(NExpr::ModC(Box::new(x), k)),
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
                Sym::IntTree(NExpr::Read(self.sites.ireads.len() - 1))
            }
            _ => Sym::Opaque,
        }
    }

    /// `codes` as INTEGER box kernels — vector or inspector subscripts.
    fn int_kernels(&mut self, codes: &[ExprCode]) -> Option<Vec<BoxFn<i64>>> {
        codes
            .iter()
            .map(|c| {
                let sym = self.eval_code(c);
                self.int_tree(sym).map(|t| compose(&t))
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
                (template, BoxKernel::Real(func))
            }
            // A REAL value stored to an INTEGER array truncates per
            // element: bytecode's.
            ElemType::Int => ("int_rows", BoxKernel::Int(compose(&ctx.int_tree(rhs)?))),
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
/// `in_place`: operand 0 is `out[i]` itself, as it stood.
#[inline(always)]
fn map_rows<const N: usize>(
    out: &mut [f64],
    reads: [RowRead<'_, f64>; N],
    in_place: bool,
    f: impl Fn([f64; N]) -> f64,
) {
    if in_place {
        return update_rows(out, reads, f);
    }
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

/// [`map_rows`] with `out[i]` for operand 0: `reads[0]` is not looked
/// at.
#[inline(always)]
fn update_rows<const N: usize>(
    out: &mut [f64],
    reads: [RowRead<'_, f64>; N],
    f: impl Fn([f64; N]) -> f64,
) {
    let n = out.len();
    let mut rows: [&[f64]; N] = [&[]; N];
    let mut unit = true;
    for k in 1..N {
        match reads[k].unit(n) {
            Some(row) => rows[k] = row,
            None => unit = false,
        }
    }
    if unit {
        for (i, o) in out.iter_mut().enumerate() {
            let mut vals = [*o; N];
            for k in 1..N {
                vals[k] = rows[k][i];
            }
            *o = f(vals);
        }
    } else {
        for (i, o) in out.iter_mut().enumerate() {
            let mut vals = [*o; N];
            for k in 1..N {
                vals[k] = reads[k].at(i);
            }
            *o = f(vals);
        }
    }
}

/// The operand a kernel may update in place, given the read site of each
/// of its operands in evaluation order (`None`: no array read): the
/// first, which is evaluated into the output row — unless another operand
/// reads the same site, which an element-by-element update cannot stand
/// in for.
fn updated_operand(operands: &[Option<usize>]) -> Option<usize> {
    let first = (*operands.first()?)?;
    let reads = operands.iter().filter(|&&site| site == Some(first));
    (reads.count() == 1).then_some(first)
}

/// The box kernel of a fused shape over the read sites `sites`: every
/// row of the box through [`map_rows`] under the element function
/// `per_box` makes for the box, operand 0 updated in place where the box
/// allows it.
fn fused<const N: usize, F: Fn([f64; N]) -> f64>(
    sites: [usize; N],
    per_box: impl Fn(&BoxArgs<'_>) -> F + Send + Sync + 'static,
) -> BoxFn {
    let rmw = updated_operand(&sites.map(Some));
    Arc::new(move |a, out, pool| {
        // Copies: a site is not reloaded after a row is stored.
        let (reads, f) = (sites.map(|i| a.reads[i]), per_box(a));
        a.for_rows(out, pool, rmw, |row, o| {
            map_rows(o, reads.map(|site| row.of(&site)), row.in_place, &f)
        })
    })
}

/// One operand of [`rank1_box`] along the rows of a box: element `j` of
/// row `r` is the output's own element as it stood, or
/// `data[start + r·row_step + j]`.
#[derive(Clone, Copy)]
enum Along<'a> {
    Own,
    Rows {
        data: &'a [f64],
        start: usize,
        row_step: isize,
    },
}

impl<'a> Along<'a> {
    /// The operand of `site` when it walks its rows at unit stride.
    fn of(site: &BoxRead<'a>) -> Option<Self> {
        match site.data {
            None => Some(Along::Own),
            Some(data) if site.walk.step == 1 => Some(Along::Rows {
                data,
                start: site.walk.start as usize,
                row_step: site.walk.row_step as isize,
            }),
            Some(_) => None,
        }
    }

    /// Element `j` of row `r`, `own` the output's element there.
    #[inline(always)]
    fn at(&self, r: usize, j: usize, own: f64) -> f64 {
        match *self {
            Along::Own => own,
            Along::Rows {
                data,
                start,
                row_step,
            } => data[(start as isize + r as isize * row_step) as usize + j],
        }
    }
}

/// The rank-1 update `x - (p/q)·y` over a box of several rows whose
/// multiplier does not move along a row — `A(I,K)/A(K,K)` under an inner
/// `J`, the Gaussian step — and whose `x` and `y` walk their rows at
/// unit stride, as one 2-D loop: the multiplier of every row first, one
/// division per row in one pass over the rows, then the box a block of
/// four columns at a time across every row, a row-invariant `y` held for
/// the block. Every element is its own `x - m·y`, its own value read
/// before it is written, so the order of the elements does not matter:
/// a box reads nothing else it writes (`crate::bind`'s alias rule, or
/// the stage), and needs no snapshot of a row. Out of line: the
/// row-at-a-time loop of one-row boxes stays as small as it was.
#[inline(never)]
fn rank1_box(
    a: &BoxArgs<'_>,
    out: &mut BoxOut<'_>,
    pool: &mut Pool,
    [xs, ys]: [Along<'_>; 2],
    [p, q]: [&BoxRead<'_>; 2],
) {
    let ms = multipliers(a.rows, p, q, pool);
    let (len, start, row_step) = (a.len, out.start, out.row_step);
    let data = &mut *out.data;
    let row = |r: usize| (start as isize + r as isize * row_step) as usize;
    let blocks = len - len % 4;
    // A `y` that is the same row for every row is held for the block.
    let fixed_y = match ys {
        Along::Rows {
            data,
            start,
            row_step: 0,
        } => Some(&data[start..start + len]),
        _ => None,
    };
    for j in (0..blocks).step_by(4) {
        if let Some(y) = fixed_y {
            let y: [f64; 4] = std::array::from_fn(|k| y[j + k]);
            for (r, &m) in ms.iter().enumerate() {
                let o = &mut data[row(r) + j..][..4];
                for k in 0..4 {
                    o[k] = xs.at(r, j + k, o[k]) - m * y[k];
                }
            }
        } else {
            for (r, &m) in ms.iter().enumerate() {
                let o = &mut data[row(r) + j..][..4];
                for k in 0..4 {
                    let own = o[k];
                    o[k] = xs.at(r, j + k, own) - m * ys.at(r, j + k, own);
                }
            }
        }
    }
    for j in blocks..len {
        for (r, &m) in ms.iter().enumerate() {
            let o = &mut data[row(r) + j];
            let own = *o;
            *o = xs.at(r, j, own) - m * ys.at(r, j, own);
        }
    }
    f64::spares(pool).push(ms);
}

/// The multiplier `p / q` of every row of a box over which neither
/// moves along a row, as one column: a division per row, in one loop —
/// over slices when `p` runs down a column and `q` is one value, where
/// the divisions go two to an instruction.
fn multipliers(rows: usize, p: &BoxRead<'_>, q: &BoxRead<'_>, pool: &mut Pool) -> Vec<f64> {
    let (Some(pd), Some(qd)) = (p.data, q.data) else {
        unreachable!("both sites have data")
    };
    let mut ms = pool.take::<f64>();
    let at = |data: &[f64], walk: &Walk, r: usize| data[walk.row(r).0 as usize];
    match (p.walk.row_step, q.walk.row_step) {
        (1, 0) => {
            let (start, q) = (p.walk.start as usize, at(qd, &q.walk, 0));
            ms.extend(pd[start..start + rows].iter().map(|&p| p / q));
        }
        _ => ms.extend((0..rows).map(|r| at(pd, &p.walk, r) / at(qd, &q.walk, r))),
    }
    ms
}

/// Match the reduced RHS against the fused templates (the paper's hot
/// shapes that a workload measurably pays for: the Jacobi stencil update
/// and the Gaussian rank-1 row elimination) and fall back to the
/// row-at-a-time tree evaluator. Both paths produce the identical f64
/// operation per element; the template name is visible in diagnostics,
/// and a leaf names the one-pass fill, copy or cast it composes to.
pub fn match_template(e: &NExpr) -> (&'static str, BoxFn) {
    use BinOp::{Add, Div, Mul, Sub};
    use NExpr::*;
    // Leaves: the tree evaluator's fill / copy / cast is already one pass.
    match e {
        Lit(_) => return ("fill_const", compose(e)),
        Read(_) => return ("copy", compose(e)),
        Lin(_) => return ("index_cast", compose(e)),
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
                        let c = *c;
                        let f = fused([*i0, *i1, *i2, *i3], move |_| {
                            move |[w, x, y, z]| c * (((w + x) + y) + z)
                        });
                        return ("stencil4_scale", f);
                    }
                }
            }
        }
    }
    // r0 - (r1/r2)*r3 — Gaussian elimination's rank-1 row update. The
    // multiplier does not change along a row of the update (`A(I,K)` and
    // `A(K,K)` under an inner `J`), so it is divided once per row then,
    // and a box of such rows at unit stride is one 2-D loop. A box whose
    // multiplier moves along a row runs the generic kernel of the tree.
    if let Bin(Sub, l, r) = e {
        if let (Read(i0), Bin(Mul, m1, m2)) = (&**l, &**r) {
            if let (Bin(Div, n1, n2), Read(i3)) = (&**m1, &**m2) {
                if let (Read(i1), Read(i2)) = (&**n1, &**n2) {
                    let sites = [*i0, *i1, *i2, *i3];
                    let rmw = updated_operand(&sites.map(Some));
                    let generic = compose(e);
                    let f: BoxFn = Arc::new(move |a, out, pool| {
                        let [x, p, q, y] = sites.map(|i| a.reads[i]);
                        let fixed = |site: &BoxRead<'_>| site.data.is_some() && site.walk.step == 0;
                        if fixed(&p) && fixed(&q) && a.rows > 1 {
                            if let (Some(xs), Some(ys)) = (Along::of(&x), Along::of(&y)) {
                                return rank1_box(a, out, pool, [xs, ys], [&p, &q]);
                            }
                        }
                        if !(fixed(&p) && fixed(&q)) {
                            return generic(a, out, pool);
                        }
                        a.for_rows(out, pool, rmw, |row, o| {
                            let m = row.of(&p).at(0) / row.of(&q).at(0);
                            map_rows(o, [row.of(&x), row.of(&y)], row.in_place, |[x, y]| {
                                x - m * y
                            })
                        })
                    });
                    return ("rank1_update", f);
                }
            }
        }
    }
    ("generic", compose(e))
}

// ---- the generic kernels: rows through the column operators ------------

/// `e` over row `r` of the box, as a typed operand: a leaf is one value
/// when it does not move along the row, a view of its segment at unit
/// stride — of `own`, the output row as it stands, when it is the element
/// the box overwrites — and one fill of a pooled column otherwise; an
/// operator is its row of the column operator table ([`Elem::arith`])
/// over its operands, the one place its arithmetic is written.
fn eval<'a, T: Elem>(
    e: &NExpr,
    a: &BoxArgs<'a, T>,
    r: usize,
    own: &'a [T],
    pool: &mut Pool,
) -> Arg<'a, T> {
    let n = a.len;
    let walk = |(start, step): (i64, i64)| {
        (0..n as i64).map(move |i| start.wrapping_add(i.wrapping_mul(step)))
    };
    let uni = |v: Value| Arg::Uni(T::of(v));
    let sub = |x: &NExpr, pool: &mut Pool| eval(x, a, r, own, pool);
    let (row, x, y) = match e {
        NExpr::Lit(c) => return uni(Value::Real(*c)),
        NExpr::Scalar(i) => return uni(Value::Real(a.scalars[*i])),
        NExpr::Lin(i) => {
            return match a.lins[*i].row(r) {
                (start, 0) => uni(Value::Int(start)),
                lin => Arg::Own(pool.collect(walk(lin).map(|v| T::of(Value::Int(v))))),
            }
        }
        NExpr::Read(i) => {
            return match (a.reads[*i].data, a.reads[*i].walk.row(r)) {
                (None, _) => Arg::Ref(own),
                (Some(data), (at, 0)) => Arg::Uni(data[at as usize]),
                (Some(data), (at, 1)) => Arg::Ref(&data[at as usize..][..n]),
                (Some(data), site) => {
                    Arg::Own(pool.collect(walk(site).map(|at| data[at as usize])))
                }
            }
        }
        NExpr::Neg(x) => (Arith::Neg, sub(x, pool), uni(Value::Int(0))),
        NExpr::Bin(op, x, y) => (Arith::Bin(*op), sub(x, pool), sub(y, pool)),
        NExpr::DivC(x, k) => (Arith::Bin(BinOp::Div), sub(x, pool), uni(Value::Int(*k))),
        NExpr::ModC(x, k) => (Arith::Mod, sub(x, pool), uni(Value::Int(*k))),
    };
    T::arith(row, [x, y], n, pool).expect("selection admits no operator that can fault")
}

/// The box kernel of a tree with no fused template — REAL or INTEGER, by
/// the lane it is built for: every row evaluated through the column
/// operators, then stored with one typed copy. An operator computes its
/// row in a pooled column before anything is written, so a site that
/// reads the box's own elements needs no snapshot: it is a view of the
/// output row.
pub fn compose<T: Elem>(e: &NExpr) -> BoxFn<T> {
    let e = e.clone();
    Arc::new(move |a, out, pool| {
        for r in 0..a.rows {
            let at = (out.start as isize + r as isize * out.row_step) as usize;
            let o = &mut out.data[at..at + a.len];
            let v: Arg<'_, T> = match &e {
                // The row holds what it would be assigned.
                NExpr::Read(i) if a.reads[*i].data.is_none() => continue,
                // No other leaf looks at the output row.
                NExpr::Lit(_) | NExpr::Scalar(_) | NExpr::Lin(_) | NExpr::Read(_) => {
                    eval(&e, a, r, &[], pool)
                }
                // An operator's row is its own column (or one value).
                _ => match eval(&e, a, r, o, pool) {
                    Arg::Ref(_) => unreachable!("an operator answers with a column"),
                    Arg::Uni(x) => Arg::Uni(x),
                    Arg::Own(col) => Arg::Own(col),
                },
            };
            match v.col() {
                Ok(col) => o.copy_from_slice(col),
                Err(x) => o.fill(x),
            }
            v.done(pool);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lin_combines_and_scales() {
        let a = Lin::affine(0, 2, 3); // 2*v0 + 3
        let b = Lin::affine(1, 1, 0);
        let s = a.combine(&b, 1).scale(4); // 8*v0 + 4*v1 + 12
        assert_eq!(s.base, 12);
        assert_eq!(s.vterms, vec![(0, 8), (1, 4)]);
        assert_eq!(a.combine(&a, -1).as_const(), Some(0));
    }

    fn bin(op: BinOp, l: NExpr, r: NExpr) -> NExpr {
        NExpr::Bin(op, Box::new(l), Box::new(r))
    }

    /// The per-element meaning of a tree: the `Value`-level operators of
    /// `ops.rs` applied to the element's leaf values — the oracle the box
    /// kernels are checked against.
    fn oracle(e: &NExpr, reads: &[Value], lins: &[i64], scalars: &[f64]) -> Value {
        use crate::ops::{eval_bin, eval_intrin, eval_un};
        let ev = |x: &NExpr| oracle(x, reads, lins, scalars);
        let int = |k: &i64| Value::Int(*k);
        let v = match e {
            NExpr::Lit(c) => Ok(Value::Real(*c)),
            NExpr::Scalar(i) => Ok(Value::Real(scalars[*i])),
            NExpr::Lin(i) => Ok(int(&lins[*i])),
            NExpr::Read(i) => Ok(reads[*i]),
            NExpr::Neg(x) => eval_un(UnOp::Neg, ev(x)),
            NExpr::Bin(op, l, r) => eval_bin(*op, ev(l), ev(r)),
            NExpr::DivC(x, k) => eval_bin(BinOp::Div, ev(x), int(k)),
            NExpr::ModC(x, k) => eval_intrin(Intrin::Mod, &[ev(x), int(k)]),
        };
        v.expect("an admitted operator cannot fault")
    }

    /// `(start, row_step, step)` walks through one [`SEG`]-element
    /// segment: unit-stride rows, strided, negative steps both ways,
    /// stride-0 (inner-invariant), row-invariant, and one value for the
    /// whole box.
    const LAYOUTS: [(i64, i64, i64); 6] = [
        (5, 21, 1),
        (2, 61, 3),
        (13000, -70, -2),
        (17, 5, 0),
        (30, 0, 1),
        (9, 0, 0),
    ];

    /// Which of [`LAYOUTS`] each read site gets: every site alike, one
    /// of each, sites 1 and 2 inner-invariant between unit-stride rows
    /// (what lets the rank-1 kernel divide once per row), and the
    /// Gaussian step's exact box: with site 0 the own element ([`OWN`]),
    /// a multiplier per row `A(I,K)`, one pivot `A(K,K)` for the box and
    /// the row-invariant pivot row `A(K,J)`.
    const MIXES: [[usize; 4]; 10] = [
        [0, 0, 0, 0],
        [1, 1, 1, 1],
        [2, 2, 2, 2],
        [3, 3, 3, 3],
        [4, 4, 4, 4],
        [5, 5, 5, 5],
        [0, 1, 2, 3],
        [0, 3, 3, 4],
        [4, 5, 3, 0],
        [0, 3, 5, 4],
    ];

    /// Which read sites are the element the box overwrites: none, the
    /// leftmost, and two that are not.
    const OWN: [&[usize]; 3] = [&[], &[0], &[1, 3]];

    /// Box shapes `(rows, len)`: one element, one row, several rows,
    /// one-element rows, rows one past the bytecode tier's `CHUNK`, and
    /// the `gauss-ipsc16` benchmark's first box (180 rows of 12).
    const SHAPES: [(usize, usize); 6] = [(1, 1), (1, 7), (3, 20), (4, 1), (2, 513), (180, 12)];

    /// Elements per read segment, and of the output the boxes land in.
    const SEG: i64 = 16384;

    /// Where a box of `len`-element rows is written, as `(start,
    /// row_step)`: dense ascending rows, and spaced descending ones.
    fn out_layouts(rows: usize, len: usize) -> [(usize, isize); 2] {
        let spaced = len + 3;
        [
            (0, len as isize),
            (2 + (rows - 1) * spaced, -(spaced as isize)),
        ]
    }

    /// The sites of [`LAYOUTS`]`[mix[k]]` through `data[k]`, with the
    /// sites of `own` reading the output instead.
    fn sites<'a, T>(data: &'a [Vec<T>], mix: [usize; 4], own: &[usize]) -> Vec<BoxRead<'a, T>> {
        (data.iter().enumerate())
            .map(|(k, data)| {
                let (start, row_step, step) = LAYOUTS[mix[k]];
                BoxRead {
                    data: (!own.contains(&k)).then_some(&data[..]),
                    walk: Walk {
                        start,
                        row_step,
                        step,
                    },
                }
            })
            .collect()
    }

    /// Run `f` over the box, written at each of [`out_layouts`] over an
    /// output that holds `before`, and require every element of every
    /// row to be — by its bits: `-0.0 == 0.0` — what the [`oracle`]
    /// makes of `e` over the site values and the affine integers there,
    /// and everything between the rows to be untouched.
    fn check_box<T: Elem>(
        f: &BoxFn<T>,
        e: &NExpr,
        args: &BoxArgs<'_, T>,
        before: &[T],
        what: &str,
    ) {
        let mut pool = Pool::default();
        let value = |x: &T| T::column(vec![*x]).get(0);
        let bits = |v: Value| match v {
            Value::Real(x) => x.to_bits(),
            v => v.as_int() as u64,
        };
        for to in out_layouts(args.rows, args.len) {
            let mut got = before.to_vec();
            let mut expect: Vec<u64> = before.iter().map(|x| bits(value(x))).collect();
            let mut out = BoxOut {
                data: &mut got,
                start: to.0,
                row_step: to.1,
            };
            f(args, &mut out, &mut pool);
            for r in 0..args.rows {
                for i in 0..args.len {
                    let at = |w: &Walk| {
                        let (start, step) = w.row(r);
                        start.wrapping_add((i as i64).wrapping_mul(step))
                    };
                    let own = (to.0 as isize + r as isize * to.1) as usize + i;
                    let reads: Vec<Value> = (args.reads.iter())
                        .map(|site| match site.data {
                            Some(data) => value(&data[at(&site.walk) as usize]),
                            None => value(&before[own]),
                        })
                        .collect();
                    let lins: Vec<i64> = args.lins.iter().map(at).collect();
                    // An affine leaf at the root is promoted by the store.
                    let want = T::of(oracle(e, &reads, &lins, args.scalars));
                    expect[own] = bits(value(&want));
                }
            }
            let got: Vec<u64> = got.iter().map(|x| bits(value(x))).collect();
            assert_eq!(got, expect, "{what}, written at {to:?}");
        }
    }

    /// Sign-mixed INTEGER segments, one per site; every eighth element
    /// sits at an end of `i64`, so every operator meets lanes that wrap.
    fn int_data(nreads: usize) -> Vec<Vec<i64>> {
        (0..nreads as i64)
            .map(|k| {
                (0..SEG)
                    .map(|x| match (x + k) % 16 {
                        3 => i64::MAX - x,
                        11 => i64::MIN + x,
                        _ => (x * 37 + k * 11) % 29 - 13,
                    })
                    .collect()
            })
            .collect()
    }

    /// Run `e`'s matched kernel and the generic evaluator over boxes of
    /// several shapes under every layout mix, with and without sites
    /// that read the output's own elements, and require each element to
    /// carry the bits of the per-element oracle.
    fn check_boxes(e: &NExpr, want_template: &str, nreads: usize) {
        let (name, fused) = match_template(e);
        assert_eq!(name, want_template);
        // Distinct, sign-mixed, non-dyadic values so a swapped operand
        // or reassociated sum changes bits.
        let data: Vec<Vec<f64>> = (0..nreads)
            .map(|k| {
                (0..SEG as usize)
                    .map(|x| ((x * 7 + k * 13) % 23) as f64 / 3.0 - 2.9)
                    .collect()
            })
            .collect();
        let before: Vec<f64> = (0..SEG).map(|x| (x % 17) as f64 / 7.0 - 1.1).collect();
        let scalars = [0.7, -1.3];
        let lins = [(4, 11, 3), (9, 0, 0), (-3, 2, 0)].map(|(start, row_step, step)| Walk {
            start,
            row_step,
            step,
        });
        for (rows, len) in SHAPES {
            for mix in MIXES {
                for own in OWN {
                    if own.iter().any(|&k| k >= nreads) {
                        continue;
                    }
                    let reads = sites(&data, mix, own);
                    let args = BoxArgs {
                        rows,
                        len,
                        reads: &reads,
                        lins: &lins,
                        scalars: &scalars,
                    };
                    for (label, f) in [(name, &fused), ("generic", &compose(e))] {
                        let what = format!("{label} kernel, {rows}x{len} mix={mix:?} own={own:?}");
                        check_box(f, e, &args, &before, &what);
                    }
                }
            }
        }
    }

    /// INTEGER box kernels carry, element for element, what
    /// `ops::eval_bin` / `eval_intrin` compute: truncation toward zero
    /// and the sign of the dividend over negative operands and negative
    /// constants, and the wrapped bits of every lane that overflows —
    /// under every site layout and with own-element reads.
    #[test]
    fn int_boxes_match_the_value_operators() {
        use BinOp::*;
        use NExpr::*;
        let fill = bin(
            Add,
            ModC(Box::new(Lin(0)), 8),
            Lin(1), // uniform
        );
        let trees = [
            fill,
            ModC(Box::new(bin(Sub, Read(0), Lin(0))), -7),
            DivC(Box::new(bin(Mul, Read(0), Read(1))), -3),
            bin(
                Sub,
                DivC(Box::new(Neg(Box::new(Read(1)))), 4),
                ModC(Box::new(Read(0)), 5),
            ),
            Neg(Box::new(Lin(1))),
            Read(0),
            bin(Mul, Lin(0), Lin(0)),
            // An affine integer that passes `i64::MAX` along the row.
            bin(Add, Lin(2), Neg(Box::new(Read(1)))),
        ];
        let idata = int_data(2);
        let before: Vec<i64> = (0..SEG).map(|x| (x * 5) % 23 - 11).collect();
        let lins =
            [(-20, 7, 3), (9, 0, 0), (i64::MAX - 40, 7, 3)].map(|(start, row_step, step)| Walk {
                start,
                row_step,
                step,
            });
        for e in &trees {
            let f = compose(e);
            for (rows, len) in SHAPES {
                for mix in MIXES {
                    for own in [&[][..], &[0], &[1]] {
                        let reads = sites(&idata, mix, own);
                        let args = BoxArgs {
                            rows,
                            len,
                            reads: &reads,
                            lins: &lins,
                            scalars: &[],
                        };
                        let what = format!("{e:?}, {rows}x{len} mix={mix:?} own={own:?}");
                        check_box(&f, e, &args, &before, &what);
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
        check_boxes(&stencil, "stencil4_scale", 4);
        let rank1 = bin(Sub, Read(0), bin(Mul, bin(Div, Read(1), Read(2)), Read(3)));
        check_boxes(&rank1, "rank1_update", 4);
        // r0 + c*r1 and r0 + r1*r2 have no fused template of their own.
        check_boxes(
            &bin(Add, Read(0), bin(Mul, Lit(-1.5), Read(1))),
            "generic",
            2,
        );
        check_boxes(&bin(Add, Read(0), bin(Mul, Read(1), Read(2))), "generic", 3);
        check_boxes(&Lit(2.5), "fill_const", 0);
        check_boxes(&Read(0), "copy", 1);
        check_boxes(&Lin(0), "index_cast", 0);
        check_boxes(&Lin(1), "index_cast", 0);
        check_boxes(&Scalar(1), "scalar_fill", 0);
        // Shapes with no fused template go through the tree evaluator:
        // nested right operands, negation, casts and scalars inside.
        let odd = bin(
            Sub,
            bin(Pow, Read(0), Lit(2.0)),
            bin(
                Div,
                Neg(Box::new(bin(Mul, Read(1), Lin(0)))),
                bin(Add, Scalar(0), bin(Mul, Read(2), Read(0))),
            ),
        );
        check_boxes(&odd, "generic", 3);
        check_boxes(&Neg(Box::new(Read(0))), "generic", 1);
    }

    /// `FORALL (I) A(I) = <rhs over gather 0 of B>`, lowered by hand.
    fn gather_forall(rhs: Vec<Op>, nregs: u16) -> (VmForall, Vec<ArrayDecl>) {
        use crate::bytecode::{LoopSpec, Partition, VmAssign};
        use f90d_distrib::DadBuilder;
        let code = |ops: Vec<Op>, nregs| ExprCode {
            ops: ops.into(),
            out: 0,
            nregs,
        };
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
            vars: Box::new([LoopSpec {
                var: 0,
                lb: konst(0),
                ub: konst(1),
                st: konst(2),
                part: Partition::BlockIter,
            }]),
            mask: None,
            mask_cost: 0,
            pre: Box::new([]),
            gathers: Box::new([GatherSpec {
                src: 1,
                tmp: 2,
                subs: Box::new([var(0)]),
                local_only: false,
            }]),
            owner_filter: Box::new([]),
            body: Box::new([VmAssign {
                arr: 0,
                subs: Box::new([var(0)]),
                rhs: code(rhs, nregs),
                lhs_acc: Some(0),
                scatter: None,
                cost: 3,
            }]),
            accs_used: Box::new([0]),
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

    /// The partial-sum FORALLs feeding a SUM-into-scalar reduction run
    /// the generic kernel.
    #[test]
    fn accumulate_shapes_run_generic() {
        use BinOp::*;
        use NExpr::*;
        // r0 + r1 — the plain partial-sum accumulate.
        check_boxes(&bin(Add, Read(0), Read(1)), "generic", 2);
        // r0 + s*r1 — scalar-weighted accumulate.
        check_boxes(
            &bin(Add, Read(0), bin(Mul, Scalar(0), Read(1))),
            "generic",
            2,
        );
    }
}
