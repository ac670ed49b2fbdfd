//! Column operators: the one operator table under both FORALL tiers,
//! applied to a run of iterations at a time.
//!
//! The bytecode tier evaluates an [`ExprCode`](crate::bytecode::ExprCode)
//! one `Op` at a time over a chunk of iterations (vectorized
//! interpretation: dispatch once per operator per chunk, then loop over
//! typed slices). A register ([`Reg`]) is either one value for every lane
//! of the chunk or a typed column with one value per lane; [`bin`],
//! [`un`] and [`intrin`] are the column forms of [`ops::eval_bin`],
//! [`ops::eval_un`] and [`ops::eval_intrin`]. Each matches on the operand
//! types **once per chunk**, exactly where the scalar function matches
//! per element, coerces the operands the way the scalar function does
//! ([`reals`], [`ints`], [`bools`], [`cplxs`]) and then runs the identical
//! scalar formula over typed operands ([`Arg`]). The native tier's
//! generic kernels (`native::compose`) evaluate a tree whose type
//! selection already knows, a row of a box at a time, so they enter the
//! table below the type match: [`Elem::arith`] is the very function
//! `bin` / `un` / `intrin` reach for INTEGER and REAL operands. `ops.rs`
//! (scalar) and this file (column) are the only places an operator's
//! arithmetic is written; INTEGER arithmetic wraps in both, in every
//! build. The scalar functions stay the single statement of the
//! semantics: an all-uniform operation *is* a call of the scalar
//! function, a faulting lane's message is produced by calling it on that
//! lane, and the unit test below checks every operator × operand-type arm
//! against it on edge values.
//!
//! A column operator reports the first faulting lane *of that operator*;
//! which iteration of the FORALL faults first overall is the chunk
//! driver's business (`chunk.rs` re-walks a faulting chunk one lane at
//! a time).

use f90d_frontend::ast::{BinOp, UnOp};
use f90d_machine::{ArrayData, ElemType, Value};

use crate::native::{BoxFn, BoxKernel};
use crate::ops::{self, Intrin};

/// One register of the chunk evaluator.
#[derive(Debug)]
pub(crate) enum Reg {
    /// The same value in every lane: a constant, a program scalar, an
    /// enclosing `DO` variable, or anything computed from those alone.
    Uni(Value),
    /// One value per lane of the chunk.
    Col(ArrayData),
}

impl Default for Reg {
    fn default() -> Self {
        Reg::Uni(Value::Int(0))
    }
}

impl Reg {
    /// Element type of every lane.
    pub(crate) fn ty(&self) -> ElemType {
        match self {
            Reg::Uni(v) => v.elem_type(),
            Reg::Col(c) => c.elem_type(),
        }
    }

    /// The value of lane `i`.
    pub(crate) fn lane(&self, i: usize) -> Value {
        match self {
            Reg::Uni(v) => *v,
            Reg::Col(c) => c.get(i),
        }
    }
}

/// What a typed operator answers: the result, or the first lane it
/// refuses (the scalar operator owns the wording of the fault).
pub type Lanes<T> = Result<Arg<'static, T>, usize>;

/// The rows of the operator table a typed tree evaluates through.
#[derive(Debug, Clone, Copy)]
pub enum Arith {
    /// `x op y`: `+ - * / **`.
    Bin(BinOp),
    /// `-x` (the second operand is not looked at).
    Neg,
    /// `MOD(x, y)`.
    Mod,
}

/// An element type a column can hold — the one element trait of both
/// tiers. The chunk evaluator's registers hold all four; `f64` (REAL)
/// and `i64` (INTEGER) are also the lanes of the native tier's box
/// kernels, and have the rows of the operator table those evaluate
/// through.
pub trait Elem: Copy + Default + Send + 'static {
    /// Wrap a buffer as a typed column.
    fn column(col: Vec<Self>) -> ArrayData;
    /// The raw storage of an array of this type (panics on another).
    fn slice(data: &ArrayData) -> &[Self];
    /// The raw storage, mutably.
    fn slice_mut(data: &mut ArrayData) -> &mut [Self];
    /// The pool's spare buffers of this type.
    fn spares(pool: &mut Pool) -> &mut Vec<Vec<Self>>;
    /// `v` coerced to this type, as [`ArrayData::set`] converts it.
    fn of(v: Value) -> Self;
    /// `row` over `n` lanes of two operands of this lane's type, as
    /// `ops.rs` computes it on two such values.
    fn arith(_row: Arith, _xy: [Arg<'_, Self>; 2], _n: usize, _: &mut Pool) -> Lanes<Self> {
        unreachable!("only the REAL and INTEGER lanes are computed over")
    }
    /// The box kernel of this lane (panics on the other's).
    fn kernel(_: &BoxKernel) -> &BoxFn<Self> {
        unreachable!("only the REAL and INTEGER lanes have box kernels")
    }
    /// This lane's of a `(REAL, INTEGER)` pair — `Sites::reads` or
    /// `Sites::ireads`, say.
    fn pick<X>(_real: X, _int: X) -> X {
        unreachable!("only the REAL and INTEGER lanes have box kernels")
    }
}

macro_rules! elem {
    ($t:ty, $variant:ident, $field:ident, $of:ident $(; lane $pick:tt; $arith:item)?) => {
        impl Elem for $t {
            fn column(col: Vec<Self>) -> ArrayData {
                ArrayData::$variant(col)
            }
            fn slice(data: &ArrayData) -> &[Self] {
                let ArrayData::$variant(col) = data else { panic!("an array of another type") };
                col
            }
            fn slice_mut(data: &mut ArrayData) -> &mut [Self] {
                let ArrayData::$variant(col) = data else { panic!("an array of another type") };
                col
            }
            fn spares(pool: &mut Pool) -> &mut Vec<Vec<Self>> {
                &mut pool.$field
            }
            fn of(v: Value) -> Self {
                v.$of()
            }
            $(
            fn kernel(k: &BoxKernel) -> &BoxFn<Self> {
                match k {
                    BoxKernel::$variant(f) => f,
                    _ => panic!("a kernel of the other lane"),
                }
            }
            fn pick<X>(real: X, int: X) -> X {
                (real, int).$pick
            }
            $arith
            )?
        }
    };
}

elem!(bool, Bool, bools, as_bool);
elem!([f64; 2], Complex, cplxs, complex_parts);
elem!(f64, Real, reals, as_real; lane 0;
    #[inline(always)]
    fn arith(row: Arith, [x, y]: [Arg<'_, f64>; 2], n: usize, pool: &mut Pool) -> Lanes<f64> {
        Ok(match row {
            Arith::Bin(BinOp::Add) => zip(x, y, n, pool, |x, y| x + y),
            Arith::Bin(BinOp::Sub) => zip(x, y, n, pool, |x, y| x - y),
            Arith::Bin(BinOp::Mul) => zip(x, y, n, pool, |x, y| x * y),
            Arith::Bin(BinOp::Div) => zip(x, y, n, pool, |x, y| x / y),
            Arith::Bin(_) => zip(x, y, n, pool, f64::powf),
            Arith::Neg => zip(x, y, n, pool, |x, _| -x),
            Arith::Mod => zip(x, y, n, pool, |x, y| x % y),
        })
    }
);
elem!(i64, Int, ints, as_int; lane 1;
    #[inline(always)]
    fn arith(row: Arith, [x, y]: [Arg<'_, i64>; 2], n: usize, pool: &mut Pool) -> Lanes<i64> {
        let refused = match row {
            Arith::Bin(BinOp::Div) | Arith::Mod => y.position(n, |d| d == 0),
            Arith::Bin(BinOp::Pow) => y.position(n, |e| e < 0),
            _ => None,
        };
        if let Some(i) = refused {
            return Err(i);
        }
        // Wrapping, every one: an overflow is an answer, in every build.
        Ok(match row {
            Arith::Bin(BinOp::Add) => zip(x, y, n, pool, i64::wrapping_add),
            Arith::Bin(BinOp::Sub) => zip(x, y, n, pool, i64::wrapping_sub),
            Arith::Bin(BinOp::Mul) => zip(x, y, n, pool, i64::wrapping_mul),
            Arith::Bin(BinOp::Div) => zip(x, y, n, pool, i64::wrapping_div),
            Arith::Bin(_) => zip(x, y, n, pool, ops::int_pow),
            Arith::Neg => zip(x, y, n, pool, |x, _| x.wrapping_neg()),
            // Sign of the dividend; `MOD(i64::MIN, -1)` is 0.
            Arith::Mod => zip(x, y, n, pool, i64::wrapping_rem),
        })
    }
);

/// Spare column buffers — the one scratch pool of both tiers — so that
/// after a rank's first chunk (or row) no operator allocates: a register
/// overwritten gives its buffer back, the next operator of that type
/// takes it.
#[derive(Debug, Default)]
pub struct Pool {
    ints: Vec<Vec<i64>>,
    reals: Vec<Vec<f64>>,
    bools: Vec<Vec<bool>>,
    cplxs: Vec<Vec<[f64; 2]>>,
}

impl Pool {
    /// An empty buffer.
    pub(crate) fn take<T: Elem>(&mut self) -> Vec<T> {
        let mut col = T::spares(self).pop().unwrap_or_default();
        col.clear();
        col
    }

    /// A buffer holding `items`.
    pub(crate) fn collect<T: Elem>(&mut self, items: impl Iterator<Item = T>) -> Vec<T> {
        let mut col = self.take();
        col.extend(items);
        col
    }

    /// An empty column of element type `ty`.
    pub(crate) fn column(&mut self, ty: ElemType) -> ArrayData {
        match ty {
            ElemType::Int => ArrayData::Int(self.take()),
            ElemType::Real => ArrayData::Real(self.take()),
            ElemType::Bool => ArrayData::Bool(self.take()),
            ElemType::Complex => ArrayData::Complex(self.take()),
        }
    }

    /// Take back the buffer of a register that is no longer read.
    pub(crate) fn give(&mut self, reg: Reg) {
        match reg {
            Reg::Uni(_) => {}
            Reg::Col(ArrayData::Int(col)) => self.ints.push(col),
            Reg::Col(ArrayData::Real(col)) => self.reals.push(col),
            Reg::Col(ArrayData::Bool(col)) => self.bools.push(col),
            Reg::Col(ArrayData::Complex(col)) => self.cplxs.push(col),
        }
    }
}

/// A typed operand: a register as one operator reads it, coerced to lane
/// type `T` — or a leaf or intermediate row of a native generic kernel.
#[derive(Debug)]
pub enum Arg<'a, T> {
    /// The same value in every lane.
    Uni(T),
    /// A column borrowed from a register or from an array segment.
    Ref(&'a [T]),
    /// A pooled buffer the operand owns: a converted copy, a filled
    /// strided walk, an operator's result. An operator of `T`s computes
    /// in it instead of taking another.
    Own(Vec<T>),
}

impl<T: Elem> Arg<'_, T> {
    /// The lanes, or the one value they all hold.
    #[inline]
    pub(crate) fn col(&self) -> Result<&[T], T> {
        match self {
            Arg::Uni(x) => Err(*x),
            Arg::Ref(col) => Ok(col),
            Arg::Own(col) => Ok(col),
        }
    }

    /// First of `n` lanes whose value is `bad`.
    fn position(&self, n: usize, bad: impl Fn(T) -> bool) -> Option<usize> {
        match self.col() {
            Ok(col) => col.iter().position(|&x| bad(x)),
            Err(x) => (n > 0 && bad(x)).then_some(0),
        }
    }

    /// Give a pooled buffer back.
    pub(crate) fn done(self, pool: &mut Pool) {
        if let Arg::Own(col) = self {
            T::spares(pool).push(col);
        }
    }

    /// A typed operator's result as a register (its operands were not
    /// both uniform: that is the scalar operator's case).
    fn reg(self) -> Reg {
        match self {
            Arg::Own(col) => Reg::Col(T::column(col)),
            _ => unreachable!("a column operator over a column answers with a column"),
        }
    }
}

/// `Value::as_real` of every lane.
pub(crate) fn reals<'a>(r: &'a Reg, pool: &mut Pool) -> Arg<'a, f64> {
    match r {
        Reg::Uni(v) => Arg::Uni(v.as_real()),
        Reg::Col(ArrayData::Real(col)) => Arg::Ref(col),
        Reg::Col(ArrayData::Int(col)) => Arg::Own(pool.collect(col.iter().map(|&x| x as f64))),
        Reg::Col(col) => Arg::Own(pool.collect((0..col.len()).map(|i| col.get(i).as_real()))),
    }
}

/// `Value::as_int` of every lane.
pub(crate) fn ints<'a>(r: &'a Reg, pool: &mut Pool) -> Arg<'a, i64> {
    match r {
        Reg::Uni(v) => Arg::Uni(v.as_int()),
        Reg::Col(ArrayData::Int(col)) => Arg::Ref(col),
        Reg::Col(ArrayData::Real(col)) => Arg::Own(pool.collect(col.iter().map(|&x| x as i64))),
        Reg::Col(col) => Arg::Own(pool.collect((0..col.len()).map(|i| col.get(i).as_int()))),
    }
}

/// `Value::as_bool` of every lane.
pub(crate) fn bools<'a>(r: &'a Reg, pool: &mut Pool) -> Arg<'a, bool> {
    match r {
        Reg::Uni(v) => Arg::Uni(v.as_bool()),
        Reg::Col(ArrayData::Bool(col)) => Arg::Ref(col),
        Reg::Col(col) => Arg::Own(pool.collect((0..col.len()).map(|i| col.get(i).as_bool()))),
    }
}

/// `Value::complex_parts` of every lane.
pub(crate) fn cplxs<'a>(r: &'a Reg, pool: &mut Pool) -> Arg<'a, [f64; 2]> {
    match r {
        Reg::Uni(v) => Arg::Uni(v.complex_parts()),
        Reg::Col(ArrayData::Complex(col)) => Arg::Ref(col),
        Reg::Col(ArrayData::Real(col)) => Arg::Own(pool.collect(col.iter().map(|&x| [x, 0.0]))),
        Reg::Col(col) => Arg::Own(pool.collect((0..col.len()).map(|i| col.get(i).complex_parts()))),
    }
}

/// `f` of every lane of `x`, as a new column.
#[inline(always)]
fn unary<A: Elem, R: Elem>(x: Arg<'_, A>, n: usize, pool: &mut Pool, f: impl Fn(A) -> R) -> Reg {
    let mut out = pool.take::<R>();
    match x.col() {
        Ok(x) => out.extend(x.iter().map(|&x| f(x))),
        Err(x) => out.extend((0..n).map(|_| f(x))),
    }
    x.done(pool);
    Reg::Col(R::column(out))
}

/// `f` of every lane pair of `x` and `y`, in a pooled buffer.
#[inline(always)]
fn binary<A: Elem, B: Elem, R: Elem>(
    x: Arg<'_, A>,
    y: Arg<'_, B>,
    n: usize,
    pool: &mut Pool,
    f: impl Fn(A, B) -> R,
) -> Vec<R> {
    let mut out = pool.take::<R>();
    match (x.col(), y.col()) {
        (Ok(x), Ok(y)) => out.extend(x.iter().zip(y).map(|(&x, &y)| f(x, y))),
        (Ok(x), Err(y)) => out.extend(x.iter().map(|&x| f(x, y))),
        (Err(x), Ok(y)) => out.extend(y.iter().map(|&y| f(x, y))),
        (Err(x), Err(y)) => out.extend((0..n).map(|_| f(x, y))),
    }
    x.done(pool);
    y.done(pool);
    out
}

/// [`binary`] where operands and result are of one type: computed in
/// `x`'s buffer when it owns one (so a chain of operators over a row
/// takes a buffer per borrowed leaf, not per operator), and two uniform
/// operands fold to a uniform result.
#[inline(always)]
fn zip<T: Elem>(
    x: Arg<'_, T>,
    y: Arg<'_, T>,
    n: usize,
    pool: &mut Pool,
    f: impl Fn(T, T) -> T,
) -> Arg<'static, T> {
    Arg::Own(match (x, y) {
        (Arg::Uni(x), Arg::Uni(y)) => return Arg::Uni(f(x, y)),
        (Arg::Own(mut out), y) => {
            match y.col() {
                Ok(y) => out.iter_mut().zip(y).for_each(|(o, &y)| *o = f(*o, y)),
                Err(y) => out.iter_mut().for_each(|o| *o = f(*o, y)),
            }
            y.done(pool);
            out
        }
        (x, y) => binary(x, y, n, pool, f),
    })
}

/// The message of a lane the column loop refused, from the scalar
/// operator that owns the wording.
fn fault(scalar: ops::OpResult) -> String {
    scalar.expect_err("a lane the column operator refuses faults in the scalar operator")
}

/// Column form of [`ops::eval_bin`] over `n` lanes.
pub(crate) fn bin(op: BinOp, a: &Reg, b: &Reg, n: usize, pool: &mut Pool) -> Result<Reg, String> {
    use BinOp::*;
    if let (Reg::Uni(x), Reg::Uni(y)) = (a, b) {
        return ops::eval_bin(op, *x, *y).map(Reg::Uni);
    }
    if op.is_comparison() {
        // Numeric comparison with promotion.
        let (x, y) = (reals(a, pool), reals(b, pool));
        return Ok(Reg::Col(ArrayData::Bool(match op {
            Eq => binary(x, y, n, pool, |x, y| x == y),
            Ne => binary(x, y, n, pool, |x, y| x != y),
            Lt => binary(x, y, n, pool, |x, y| x < y),
            Le => binary(x, y, n, pool, |x, y| x <= y),
            Gt => binary(x, y, n, pool, |x, y| x > y),
            _ => binary(x, y, n, pool, |x, y| x >= y),
        })));
    }
    // `.AND.` / `.OR.`, or arithmetic with Fortran promotion.
    let done = match (a.ty(), b.ty()) {
        _ if op.is_logical() => {
            let (x, y) = (bools(a, pool), bools(b, pool));
            Ok(match op {
                And => zip(x, y, n, pool, |x, y| x && y).reg(),
                _ => zip(x, y, n, pool, |x, y| x || y).reg(),
            })
        }
        (ElemType::Int, ElemType::Int) => {
            i64::arith(Arith::Bin(op), [ints(a, pool), ints(b, pool)], n, pool).map(Arg::reg)
        }
        (ElemType::Complex, _) | (_, ElemType::Complex) if matches!(op, Add | Sub | Mul | Div) => {
            let f = |x, y| ops::complex_arith(op, x, y).expect("a COMPLEX arithmetic operator");
            Ok(zip(cplxs(a, pool), cplxs(b, pool), n, pool, f).reg())
        }
        (ElemType::Complex, _) | (_, ElemType::Complex) => Err(0),
        _ => f64::arith(Arith::Bin(op), [reals(a, pool), reals(b, pool)], n, pool).map(Arg::reg),
    };
    done.map_err(|i| fault(ops::eval_bin(op, a.lane(i), b.lane(i))))
}

/// Column form of [`ops::eval_un`] over `n` lanes.
pub(crate) fn un(op: UnOp, a: &Reg, n: usize, pool: &mut Pool) -> Result<Reg, String> {
    if let Reg::Uni(v) = a {
        return ops::eval_un(op, *v).map(Reg::Uni);
    }
    let neg = match (op, a.ty()) {
        (UnOp::Not, _) => return Ok(unary(bools(a, pool), n, pool, |x| !x)),
        (UnOp::Neg, ElemType::Int) => {
            i64::arith(Arith::Neg, [ints(a, pool), Arg::Uni(0)], n, pool).map(Arg::reg)
        }
        (UnOp::Neg, ElemType::Real) => {
            f64::arith(Arith::Neg, [reals(a, pool), Arg::Uni(0.0)], n, pool).map(Arg::reg)
        }
        (UnOp::Neg, ElemType::Complex) => {
            let neg = |[re, im]: [f64; 2], _| [-re, -im];
            Ok(zip(cplxs(a, pool), Arg::Uni([0.0; 2]), n, pool, neg).reg())
        }
        (UnOp::Neg, ElemType::Bool) => Err(0),
    };
    neg.map_err(|i| fault(ops::eval_un(op, a.lane(i))))
}

/// Column form of [`ops::eval_intrin`] over `n` lanes.
pub(crate) fn intrin(f: Intrin, args: &[Reg], n: usize, pool: &mut Pool) -> Result<Reg, String> {
    if args.iter().all(|a| matches!(a, Reg::Uni(_))) {
        let vals: Vec<Value> = args.iter().map(|a| a.lane(0)).collect();
        return ops::eval_intrin(f, &vals).map(Reg::Uni);
    }
    /// `f` of the first argument as a REAL.
    #[inline(always)]
    fn real1(args: &[Reg], n: usize, pool: &mut Pool, f: impl Fn(f64) -> f64) -> Reg {
        unary(reals(&args[0], pool), n, pool, f)
    }
    let is_int = |a: &Reg| a.ty() == ElemType::Int;
    Ok(match f {
        Intrin::Abs if is_int(&args[0]) => unary(ints(&args[0], pool), n, pool, i64::wrapping_abs),
        Intrin::Abs => real1(args, n, pool, f64::abs),
        Intrin::Sqrt => real1(args, n, pool, f64::sqrt),
        Intrin::Exp => real1(args, n, pool, f64::exp),
        Intrin::Log => real1(args, n, pool, f64::ln),
        Intrin::Sin => real1(args, n, pool, f64::sin),
        Intrin::Cos => real1(args, n, pool, f64::cos),
        Intrin::Tan => real1(args, n, pool, f64::tan),
        Intrin::Mod => {
            let done = if is_int(&args[0]) && is_int(&args[1]) {
                let xy = [ints(&args[0], pool), ints(&args[1], pool)];
                i64::arith(Arith::Mod, xy, n, pool).map(Arg::reg)
            } else {
                let xy = [reals(&args[0], pool), reals(&args[1], pool)];
                f64::arith(Arith::Mod, xy, n, pool).map(Arg::reg)
            };
            return done.map_err(|i| {
                let lane: Vec<Value> = args.iter().map(|a| a.lane(i)).collect();
                fault(ops::eval_intrin(f, &lane))
            });
        }
        Intrin::Min | Intrin::Max => fold_minmax(args, f == Intrin::Min, n, pool),
        Intrin::ToReal => real1(args, n, pool, |x| x),
        Intrin::ToInt => unary(ints(&args[0], pool), n, pool, |x| x),
        Intrin::Nint => unary(reals(&args[0], pool), n, pool, |x| x.round() as i64),
        Intrin::Sign => {
            let (x, y) = (reals(&args[0], pool), reals(&args[1], pool));
            let sign = |a: f64, b: f64| if b >= 0.0 { a.abs() } else { -a.abs() };
            zip(x, y, n, pool, sign).reg()
        }
    })
}

/// `MIN` / `MAX` in the scalar fold's order: INTEGER when every argument
/// is, else REAL from ±∞ through `f64::min` / `f64::max`, accumulator
/// first.
fn fold_minmax(args: &[Reg], min: bool, n: usize, pool: &mut Pool) -> Reg {
    /// Every argument, coerced by `arg`, folded into a column of `from`s.
    #[inline(always)]
    fn fold<'a, T: Elem>(
        (args, n, pool): (&'a [Reg], usize, &mut Pool),
        from: T,
        arg: fn(&'a Reg, &mut Pool) -> Arg<'a, T>,
        f: impl Fn(T, T) -> T + Copy,
    ) -> Reg {
        let mut acc = pool.take::<T>();
        acc.resize(n, from);
        let acc = args.iter().fold(Arg::Own(acc), |acc, a| {
            let x = arg(a, pool);
            zip(acc, x, n, pool, f)
        });
        acc.reg()
    }
    let on = (args, n, pool);
    match (args.iter().all(|a| a.ty() == ElemType::Int), min) {
        (true, true) => fold(on, i64::MAX, ints, i64::min),
        (true, false) => fold(on, i64::MIN, ints, i64::max),
        (false, true) => fold(on, f64::INFINITY, reals, f64::min),
        (false, false) => fold(on, f64::NEG_INFINITY, reals, f64::max),
    }
}

/// Write the `n` lanes of `src` to `dst[first]`, `dst[first + step]`, …,
/// growing `dst` to hold them.
pub(crate) fn store_strided<T: Elem>(
    dst: &mut Vec<T>,
    first: usize,
    step: usize,
    n: usize,
    src: &Arg<'_, T>,
) {
    if n == 0 {
        return;
    }
    if step == 1 && first == dst.len() {
        return match src.col() {
            Ok(col) => dst.extend_from_slice(col),
            Err(x) => dst.resize(first + n, x),
        };
    }
    let end = first + (n - 1) * step + 1;
    if dst.len() < end {
        dst.resize(end, T::default());
    }
    match src.col() {
        Ok(col) if step == 1 => dst[first..end].copy_from_slice(col),
        Ok(col) => (dst[first..end].iter_mut().step_by(step).zip(col)).for_each(|(d, &x)| *d = x),
        Err(x) => dst[first..end]
            .iter_mut()
            .step_by(step)
            .for_each(|d| *d = x),
    }
}

/// Write the `n` lanes of the subscript registers `subs` row-major —
/// `subs.len()` integers a row — to rows `first`, `first + step`, … of
/// `dst`.
pub(crate) fn store_rows(
    dst: &mut Vec<i64>,
    first: usize,
    step: usize,
    n: usize,
    subs: &[Reg],
    pool: &mut Pool,
) {
    let ndim = subs.len();
    for (d, sub) in subs.iter().enumerate() {
        let sub = ints(sub, pool);
        store_strided(dst, first * ndim + d, step * ndim, n, &sub);
        sub.done(pool);
    }
}

/// [`store_strided`] into a typed column, each lane converted to the
/// column's element type as [`ArrayData::set`] converts a value (the
/// Fortran assignment rules).
pub(crate) fn store(
    dst: &mut ArrayData,
    first: usize,
    step: usize,
    n: usize,
    src: &Reg,
    pool: &mut Pool,
) {
    fn put<T: Elem>(
        dst: &mut Vec<T>,
        (first, step, n): (usize, usize, usize),
        src: Arg<'_, T>,
        pool: &mut Pool,
    ) {
        store_strided(dst, first, step, n, &src);
        src.done(pool);
    }
    let at = (first, step, n);
    match dst {
        ArrayData::Int(dst) => put(dst, at, ints(src, pool), pool),
        ArrayData::Real(dst) => put(dst, at, reals(src, pool), pool),
        ArrayData::Bool(dst) => put(dst, at, bools(src, pool), pool),
        ArrayData::Complex(dst) => put(dst, at, cplxs(src, pool), pool),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTS: [i64; 16] = [
        i64::MIN,
        -7,
        -2,
        -1,
        0,
        1,
        2,
        3,
        41,
        61,
        62,
        63,
        64,
        65,
        70,
        i64::MAX,
    ];
    const REALS: [f64; 11] = [
        f64::NAN,
        f64::NEG_INFINITY,
        -2.5,
        -1.0,
        -0.0,
        0.0,
        0.5,
        1.0,
        3.0,
        1e300,
        f64::INFINITY,
    ];
    const TYPES: [ElemType; 4] = [
        ElemType::Int,
        ElemType::Real,
        ElemType::Bool,
        ElemType::Complex,
    ];

    fn edge_values(ty: ElemType) -> Vec<Value> {
        match ty {
            ElemType::Int => INTS.iter().map(|&x| Value::Int(x)).collect(),
            ElemType::Real => REALS.iter().map(|&x| Value::Real(x)).collect(),
            ElemType::Bool => vec![Value::Bool(false), Value::Bool(true)],
            ElemType::Complex => [(0.0, 0.0), (-0.0, 1.5), (2.0, -3.0), (f64::NAN, 1.0)]
                .iter()
                .map(|&(re, im)| Value::Complex(re, im))
                .collect(),
        }
    }

    fn column(ty: ElemType, vals: impl Iterator<Item = Value>) -> Reg {
        let mut col = ArrayData::zeros(ty, 0);
        vals.for_each(|v| col.push(v));
        Reg::Col(col)
    }

    /// Bitwise equality: NaN equals the same NaN, `0.0` differs from
    /// `-0.0`.
    fn same(a: Value, b: Value) -> bool {
        match (a, b) {
            (Value::Real(x), Value::Real(y)) => x.to_bits() == y.to_bits(),
            (Value::Complex(a, b), Value::Complex(c, d)) => {
                (a.to_bits(), b.to_bits()) == (c.to_bits(), d.to_bits())
            }
            (a, b) => a == b,
        }
    }

    type Scalar<'a> = &'a dyn Fn(&[Value]) -> ops::OpResult;
    type Columns<'a> = &'a dyn Fn(&[Reg], usize, &mut Pool) -> Result<Reg, String>;

    /// The column operator over `rows` (argument `uniform`, if any, held
    /// in a uniform register) must answer what the scalar one answers
    /// lane by lane, and refuse exactly the first lane the scalar one
    /// refuses, in its words.
    fn check_rows(
        label: &str,
        rows: &[&Vec<Value>],
        uniform: Option<usize>,
        scalar: Scalar<'_>,
        cols: Columns<'_>,
    ) {
        let mut pool = Pool::default();
        let regs: Vec<Reg> = (0..rows[0].len())
            .map(|k| match uniform {
                Some(u) if u == k => Reg::Uni(rows[0][k]),
                _ => column(rows[0][k].elem_type(), rows.iter().map(|row| row[k])),
            })
            .collect();
        let want: Vec<ops::OpResult> = rows.iter().map(|row| scalar(row)).collect();
        let got = cols(&regs, rows.len(), &mut pool);
        match want.iter().position(|w| w.is_err()) {
            None => {
                let got = got.unwrap_or_else(|e| panic!("{label}: refused clean lanes: {e}"));
                for (i, w) in want.iter().enumerate() {
                    let (g, w) = (got.lane(i), *w.as_ref().unwrap());
                    assert!(same(g, w), "{label} {:?}: {g:?} vs {w:?}", rows[i]);
                }
            }
            Some(i) => {
                let e = got.expect_err("a faulting lane must refuse the chunk");
                assert_eq!(&e, want[i].as_ref().unwrap_err(), "{label} {:?}", rows[i]);
                // Without the faulting lanes the rest is clean.
                let clean: Vec<&Vec<Value>> = (rows.iter().zip(&want))
                    .filter(|(_, w)| w.is_ok())
                    .map(|(row, _)| *row)
                    .collect();
                if !clean.is_empty() {
                    check_rows(label, &clean, uniform, scalar, cols);
                }
            }
        }
    }

    /// [`check_rows`] in every operand shape: all columns, and each
    /// argument uniform at each of its values.
    fn check_lanes(label: &str, lanes: &[Vec<Value>], scalar: Scalar<'_>, cols: Columns<'_>) {
        let all: Vec<&Vec<Value>> = lanes.iter().collect();
        check_rows(label, &all, None, scalar, cols);
        for u in 0..lanes[0].len() {
            let mut seen: Vec<Value> = Vec::new();
            for row in lanes {
                if seen.iter().any(|&v| same(v, row[u])) {
                    continue;
                }
                seen.push(row[u]);
                let rows: Vec<&Vec<Value>> = lanes.iter().filter(|r| same(r[u], row[u])).collect();
                check_rows(label, &rows, Some(u), scalar, cols);
            }
        }
    }

    fn pairs(a: ElemType, b: ElemType) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for x in edge_values(a) {
            for y in edge_values(b) {
                out.push(vec![x, y]);
            }
        }
        out
    }

    #[test]
    fn binary_operators_match_the_scalar_ones_on_every_type_pair() {
        use BinOp::*;
        for op in [Add, Sub, Mul, Div, Pow, Eq, Ne, Lt, Le, Gt, Ge, And, Or] {
            for ta in TYPES {
                for tb in TYPES {
                    // A LOGICAL in a numeric position or a number in a
                    // LOGICAL one aborts the run in the scalar operator
                    // and in the column one alike (the front end rejects
                    // both): not comparable lane by lane. INTEGER lanes
                    // that overflow are: they wrap in every build.
                    let bools = (ta == ElemType::Bool, tb == ElemType::Bool);
                    if bools != (op.is_logical(), op.is_logical()) {
                        continue;
                    }
                    check_lanes(
                        &format!("{op:?} {ta:?} {tb:?}"),
                        &pairs(ta, tb),
                        &|row| ops::eval_bin(op, row[0], row[1]),
                        &|regs, n, pool| bin(op, &regs[0], &regs[1], n, pool),
                    );
                }
            }
        }
    }

    #[test]
    fn unary_operators_match_the_scalar_ones_on_every_type() {
        for op in [UnOp::Neg, UnOp::Not] {
            for ty in TYPES {
                if op == UnOp::Not && ty != ElemType::Bool {
                    continue; // misuse, as above
                }
                let lanes: Vec<Vec<Value>> = edge_values(ty).into_iter().map(|v| vec![v]).collect();
                check_lanes(
                    &format!("{op:?} {ty:?}"),
                    &lanes,
                    &|row| ops::eval_un(op, row[0]),
                    &|regs, n, pool| un(op, &regs[0], n, pool),
                );
            }
        }
    }

    #[test]
    fn intrinsics_match_the_scalar_ones_on_every_type() {
        use Intrin::*;
        let numeric = [ElemType::Int, ElemType::Real, ElemType::Complex];
        for f in [Abs, Sqrt, Exp, Log, Sin, Cos, Tan, ToReal, ToInt, Nint] {
            for ty in numeric {
                let lanes: Vec<Vec<Value>> = edge_values(ty).into_iter().map(|v| vec![v]).collect();
                check_lanes(
                    &format!("{f:?} {ty:?}"),
                    &lanes,
                    &|row| ops::eval_intrin(f, row),
                    &|regs, n, pool| intrin(f, regs, n, pool),
                );
            }
        }
        for f in [Mod, Min, Max, Sign] {
            for ta in numeric {
                for tb in numeric {
                    check_lanes(
                        &format!("{f:?} {ta:?} {tb:?}"),
                        &pairs(ta, tb),
                        &|row| ops::eval_intrin(f, row),
                        &|regs, n, pool| intrin(f, regs, n, pool),
                    );
                }
            }
        }
        // Three arguments, mixed: REAL as soon as one argument is.
        for f in [Min, Max] {
            let mut lanes = Vec::new();
            for &x in &INTS[1..8] {
                for &y in &REALS {
                    lanes.push(vec![Value::Int(x), Value::Real(y), Value::Int(-x)]);
                }
            }
            check_lanes(
                &format!("{f:?} of three"),
                &lanes,
                &|row| ops::eval_intrin(f, row),
                &|regs, n, pool| intrin(f, regs, n, pool),
            );
        }
    }

    /// `store` converts as `ArrayData::set` does, at any stride, from
    /// columns and uniform registers alike.
    #[test]
    fn store_converts_like_array_data_set() {
        let mut pool = Pool::default();
        let numeric = [ElemType::Int, ElemType::Real, ElemType::Complex];
        for dst_ty in TYPES {
            let sources: &[ElemType] = if dst_ty == ElemType::Bool {
                &[ElemType::Bool]
            } else {
                &numeric
            };
            for &src_ty in sources {
                let vals = edge_values(src_ty);
                for (first, step) in [(0, 1), (2, 1), (1, 3)] {
                    for src in [column(src_ty, vals.iter().copied()), Reg::Uni(vals[1])] {
                        let n = vals.len();
                        let mut got = ArrayData::zeros(dst_ty, 0);
                        store(&mut got, first, step, n, &src, &mut pool);
                        let mut want = ArrayData::zeros(dst_ty, first + (n - 1) * step + 1);
                        for i in 0..n {
                            want.set(first + i * step, src.lane(i));
                        }
                        assert_eq!(got.len(), want.len());
                        for i in 0..want.len() {
                            assert!(
                                same(got.get(i), want.get(i)),
                                "{src_ty:?} -> {dst_ty:?} at {i}"
                            );
                        }
                    }
                }
            }
        }
    }
}
