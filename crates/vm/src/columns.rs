//! Column operators: the bytecode tier's operator table, applied to a
//! chunk of FORALL iterations at a time.
//!
//! The engine evaluates an [`ExprCode`](crate::bytecode::ExprCode) one
//! `Op` at a time over a chunk of iterations (vectorized interpretation:
//! dispatch once per operator per chunk, then loop over typed slices).
//! A register ([`Reg`]) is either one value for every lane of the chunk
//! or a typed column with one value per lane; the functions here are the
//! column forms of [`ops::eval_bin`], [`ops::eval_un`] and
//! [`ops::eval_intrin`]. Each matches on the operand types **once per
//! chunk**, exactly where the scalar function matches per element,
//! coerces the operands the way the scalar function does
//! (`as_real` / `as_int` / `as_bool` / complex parts — [`reals`],
//! [`ints`], [`bools`], [`cplxs`]) and then runs the identical scalar
//! formula over `&[i64]` / `&[f64]` / `&[bool]` / `&[[f64; 2]]`. The
//! scalar functions stay the single statement of the semantics: an
//! all-uniform operation *is* a call of the scalar function, a faulting
//! lane's message is produced by calling it on that lane, and the unit
//! test below checks every operator × operand-type arm against it on
//! edge values.
//!
//! A column operator reports the first faulting lane *of that operator*;
//! which iteration of the FORALL faults first overall is the chunk
//! driver's business (`engine.rs` re-walks a faulting chunk one lane at
//! a time).

use f90d_frontend::ast::{BinOp, UnOp};
use f90d_machine::{ArrayData, ElemType, Value};

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

/// An element type a column can hold.
pub(crate) trait Elem: Copy + Default {
    /// Wrap a buffer as a typed column.
    fn column(col: Vec<Self>) -> ArrayData;
    /// The pool's spare buffers of this type.
    fn spares(pool: &mut Pool) -> &mut Vec<Vec<Self>>;
}

macro_rules! lane {
    ($t:ty, $variant:ident, $field:ident) => {
        impl Elem for $t {
            fn column(col: Vec<Self>) -> ArrayData {
                ArrayData::$variant(col)
            }
            fn spares(pool: &mut Pool) -> &mut Vec<Vec<Self>> {
                &mut pool.$field
            }
        }
    };
}
lane!(i64, Int, ints);
lane!(f64, Real, reals);
lane!(bool, Bool, bools);
lane!([f64; 2], Complex, cplxs);

/// Spare column buffers, so that after a rank's first chunk no operator
/// allocates: a register overwritten gives its buffer back, the next
/// operator of that type takes it.
#[derive(Debug, Default)]
pub(crate) struct Pool {
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

/// A register as one operator reads it, coerced to lane type `T`.
pub(crate) enum Arg<'a, T> {
    /// The same value in every lane.
    Uni(T),
    /// The register's own column.
    Ref(&'a [T]),
    /// A converted copy in a pooled buffer.
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

    /// Give a converted copy's buffer back.
    pub(crate) fn done(self, pool: &mut Pool) {
        if let Arg::Own(col) = self {
            T::spares(pool).push(col);
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

/// `f` of every lane pair of `x` and `y`, as a new column.
#[inline(always)]
fn binary<A: Elem, B: Elem, R: Elem>(
    x: Arg<'_, A>,
    y: Arg<'_, B>,
    n: usize,
    pool: &mut Pool,
    f: impl Fn(A, B) -> R,
) -> Reg {
    let mut out = pool.take::<R>();
    match (x.col(), y.col()) {
        (Ok(x), Ok(y)) => out.extend(x.iter().zip(y).map(|(&x, &y)| f(x, y))),
        (Ok(x), Err(y)) => out.extend(x.iter().map(|&x| f(x, y))),
        (Err(x), Ok(y)) => out.extend(y.iter().map(|&y| f(x, y))),
        (Err(x), Err(y)) => out.extend((0..n).map(|_| f(x, y))),
    }
    x.done(pool);
    y.done(pool);
    Reg::Col(R::column(out))
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
    let lane_fault = |i: usize| fault(ops::eval_bin(op, a.lane(i), b.lane(i)));
    if op.is_logical() {
        let (x, y) = (bools(a, pool), bools(b, pool));
        return Ok(match op {
            And => binary(x, y, n, pool, |x, y| x && y),
            _ => binary(x, y, n, pool, |x, y| x || y),
        });
    }
    if op.is_comparison() {
        // Numeric comparison with promotion.
        let (x, y) = (reals(a, pool), reals(b, pool));
        return Ok(match op {
            Eq => binary(x, y, n, pool, |x, y| x == y),
            Ne => binary(x, y, n, pool, |x, y| x != y),
            Lt => binary(x, y, n, pool, |x, y| x < y),
            Le => binary(x, y, n, pool, |x, y| x <= y),
            Gt => binary(x, y, n, pool, |x, y| x > y),
            _ => binary(x, y, n, pool, |x, y| x >= y),
        });
    }
    // Arithmetic with Fortran promotion.
    Ok(match (a.ty(), b.ty()) {
        (ElemType::Int, ElemType::Int) => {
            let (x, y) = (ints(a, pool), ints(b, pool));
            let refused = match op {
                Div => y.position(n, |d| d == 0),
                Pow => y.position(n, |e| e < 0),
                _ => None,
            };
            if let Some(i) = refused {
                return Err(lane_fault(i));
            }
            match op {
                Add => binary(x, y, n, pool, |x, y| x + y),
                Sub => binary(x, y, n, pool, |x, y| x - y),
                Mul => binary(x, y, n, pool, |x, y| x * y),
                Div => binary(x, y, n, pool, |x, y| x.wrapping_div(y)),
                _ => binary(x, y, n, pool, ops::int_pow),
            }
        }
        (ElemType::Complex, _) | (_, ElemType::Complex) => {
            if !matches!(op, Add | Sub | Mul | Div) {
                return Err(lane_fault(0));
            }
            let (x, y) = (cplxs(a, pool), cplxs(b, pool));
            binary(x, y, n, pool, |x, y| {
                ops::complex_arith(op, x, y).expect("a COMPLEX arithmetic operator")
            })
        }
        _ => {
            let (x, y) = (reals(a, pool), reals(b, pool));
            match op {
                Add => binary(x, y, n, pool, |x, y| x + y),
                Sub => binary(x, y, n, pool, |x, y| x - y),
                Mul => binary(x, y, n, pool, |x, y| x * y),
                Div => binary(x, y, n, pool, |x, y| x / y),
                _ => binary(x, y, n, pool, |x: f64, y| x.powf(y)),
            }
        }
    })
}

/// Column form of [`ops::eval_un`] over `n` lanes.
pub(crate) fn un(op: UnOp, a: &Reg, n: usize, pool: &mut Pool) -> Result<Reg, String> {
    let col = match a {
        Reg::Uni(v) => return ops::eval_un(op, *v).map(Reg::Uni),
        Reg::Col(col) => col,
    };
    Ok(match (op, col) {
        (UnOp::Neg, ArrayData::Int(col)) => unary(Arg::Ref(col), n, pool, |x| -x),
        (UnOp::Neg, ArrayData::Real(col)) => unary(Arg::Ref(col), n, pool, |x| -x),
        (UnOp::Neg, ArrayData::Complex(col)) => {
            unary(Arg::Ref(col), n, pool, |[re, im]| [-re, -im])
        }
        (UnOp::Neg, ArrayData::Bool(_)) => return Err(fault(ops::eval_un(op, a.lane(0)))),
        (UnOp::Not, _) => unary(bools(a, pool), n, pool, |x| !x),
    })
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
        Intrin::Abs if is_int(&args[0]) => unary(ints(&args[0], pool), n, pool, i64::abs),
        Intrin::Abs => real1(args, n, pool, f64::abs),
        Intrin::Sqrt => real1(args, n, pool, f64::sqrt),
        Intrin::Exp => real1(args, n, pool, f64::exp),
        Intrin::Log => real1(args, n, pool, f64::ln),
        Intrin::Sin => real1(args, n, pool, f64::sin),
        Intrin::Cos => real1(args, n, pool, f64::cos),
        Intrin::Tan => real1(args, n, pool, f64::tan),
        Intrin::Mod if is_int(&args[0]) && is_int(&args[1]) => {
            let (x, y) = (ints(&args[0], pool), ints(&args[1], pool));
            if let Some(i) = y.position(n, |d| d == 0) {
                let lane: Vec<Value> = args.iter().map(|a| a.lane(i)).collect();
                return Err(fault(ops::eval_intrin(f, &lane)));
            }
            // Sign of the dividend; `MOD(i64::MIN, -1)` is 0.
            binary(x, y, n, pool, i64::wrapping_rem)
        }
        Intrin::Mod => {
            let (x, y) = (reals(&args[0], pool), reals(&args[1], pool));
            binary(x, y, n, pool, |x, y| x % y)
        }
        Intrin::Min | Intrin::Max => fold_minmax(args, f == Intrin::Min, n, pool),
        Intrin::ToReal => real1(args, n, pool, |x| x),
        Intrin::ToInt => unary(ints(&args[0], pool), n, pool, |x| x),
        Intrin::Nint => unary(reals(&args[0], pool), n, pool, |x| x.round() as i64),
        Intrin::Sign => {
            let (x, y) = (reals(&args[0], pool), reals(&args[1], pool));
            binary(
                x,
                y,
                n,
                pool,
                |a, b| if b >= 0.0 { a.abs() } else { -a.abs() },
            )
        }
    })
}

/// `MIN` / `MAX` in the scalar fold's order: INTEGER when every argument
/// is, else REAL from ±∞ through `f64::min` / `f64::max`, accumulator
/// first.
fn fold_minmax(args: &[Reg], min: bool, n: usize, pool: &mut Pool) -> Reg {
    #[inline(always)]
    fn fold<T: Elem>(acc: &mut [T], x: &Arg<'_, T>, f: impl Fn(T, T) -> T) {
        match x.col() {
            Ok(x) => acc.iter_mut().zip(x).for_each(|(a, &x)| *a = f(*a, x)),
            Err(x) => acc.iter_mut().for_each(|a| *a = f(*a, x)),
        }
    }
    if args.iter().all(|a| a.ty() == ElemType::Int) {
        let mut acc = pool.take::<i64>();
        acc.resize(n, if min { i64::MAX } else { i64::MIN });
        for a in args {
            let x = ints(a, pool);
            if min {
                fold(&mut acc, &x, i64::min);
            } else {
                fold(&mut acc, &x, i64::max);
            }
            x.done(pool);
        }
        Reg::Col(ArrayData::Int(acc))
    } else {
        let mut acc = pool.take::<f64>();
        acc.resize(
            n,
            if min {
                f64::INFINITY
            } else {
                f64::NEG_INFINITY
            },
        );
        for a in args {
            let x = reals(a, pool);
            if min {
                fold(&mut acc, &x, f64::min);
            } else {
                fold(&mut acc, &x, f64::max);
            }
            x.done(pool);
        }
        Reg::Col(ArrayData::Real(acc))
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

    /// The scalar operator would abort the run rather than answer: a
    /// LOGICAL in a numeric position or a number in a LOGICAL one (the
    /// front end rejects both), or — in a debug build only — INTEGER
    /// overflow. The column operators use the same expressions and abort
    /// the same way; neither is comparable lane by lane.
    fn aborts(misuse: bool, overflow: bool) -> bool {
        misuse || (overflow && cfg!(debug_assertions))
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

    fn int_overflows(op: BinOp, x: i64, y: i64) -> bool {
        match op {
            BinOp::Add => x.checked_add(y).is_none(),
            BinOp::Sub => x.checked_sub(y).is_none(),
            BinOp::Mul => x.checked_mul(y).is_none(),
            // `**` wraps in every build.
            _ => false,
        }
    }

    #[test]
    fn binary_operators_match_the_scalar_ones_on_every_type_pair() {
        use BinOp::*;
        for op in [Add, Sub, Mul, Div, Pow, Eq, Ne, Lt, Le, Gt, Ge, And, Or] {
            for ta in TYPES {
                for tb in TYPES {
                    let bools = (ta == ElemType::Bool, tb == ElemType::Bool);
                    let misuse = if op.is_logical() {
                        bools != (true, true)
                    } else {
                        bools != (false, false)
                    };
                    let lanes: Vec<Vec<Value>> = pairs(ta, tb)
                        .into_iter()
                        .filter(|row| {
                            let overflow = match (row[0], row[1]) {
                                (Value::Int(x), Value::Int(y)) => int_overflows(op, x, y),
                                _ => false,
                            };
                            !aborts(misuse, overflow)
                        })
                        .collect();
                    if lanes.is_empty() {
                        continue;
                    }
                    check_lanes(
                        &format!("{op:?} {ta:?} {tb:?}"),
                        &lanes,
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
                let misuse = op == UnOp::Not && ty != ElemType::Bool;
                let lanes: Vec<Vec<Value>> = edge_values(ty)
                    .into_iter()
                    .filter(|&v| !aborts(misuse, op == UnOp::Neg && v == Value::Int(i64::MIN)))
                    .map(|v| vec![v])
                    .collect();
                if lanes.is_empty() {
                    continue;
                }
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
                let lanes: Vec<Vec<Value>> = edge_values(ty)
                    .into_iter()
                    .filter(|&v| !aborts(false, f == Abs && v == Value::Int(i64::MIN)))
                    .map(|v| vec![v])
                    .collect();
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
