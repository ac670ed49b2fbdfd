//! Value-level operator semantics shared by every evaluator.
//!
//! The engine in this crate (scalar context, and as the arm-by-arm
//! oracle of its column operators) and the sequential reference
//! interpreter (`f90d-core::reference`) evaluate scalar operations
//! through these functions, so they cannot drift apart on promotion,
//! division, or intrinsic edge cases.

use f90d_frontend::ast::{BinOp, UnOp};
use f90d_machine::Value;

/// Operator evaluation error (runtime faults such as division by zero).
pub type OpResult = Result<Value, String>;

/// Apply a binary operator with Fortran promotion rules.
pub fn eval_bin(op: BinOp, a: Value, b: Value) -> OpResult {
    use BinOp::*;
    if op.is_logical() {
        let (x, y) = (a.as_bool(), b.as_bool());
        return Ok(Value::Bool(if op == And { x && y } else { x || y }));
    }
    if op.is_comparison() {
        // Numeric comparison with promotion.
        let (x, y) = (a.as_real(), b.as_real());
        return Ok(Value::Bool(match op {
            Eq => x == y,
            Ne => x != y,
            Lt => x < y,
            Le => x <= y,
            Gt => x > y,
            Ge => x >= y,
            _ => unreachable!(),
        }));
    }
    // Arithmetic with Fortran promotion.
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(Value::Int(match op {
            // INTEGER arithmetic wraps in every build (`i64::MIN / -1`
            // included): an overflow is an answer, never an abort.
            Add => x.wrapping_add(y),
            Sub => x.wrapping_sub(y),
            Mul => x.wrapping_mul(y),
            Div => {
                if y == 0 {
                    return Err("integer division by zero".into());
                }
                x.wrapping_div(y)
            }
            Pow => {
                if y < 0 {
                    return Err("negative integer exponent".into());
                }
                int_pow(x, y)
            }
            _ => unreachable!(),
        })),
        (Value::Complex(..), _) | (_, Value::Complex(..)) => {
            match complex_arith(op, a.complex_parts(), b.complex_parts()) {
                Some([re, im]) => Ok(Value::Complex(re, im)),
                None => Err("unsupported complex operation".into()),
            }
        }
        (x, y) => {
            let (x, y) = (x.as_real(), y.as_real());
            Ok(Value::Real(match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => x / y,
                Pow => x.powf(y),
                _ => unreachable!(),
            }))
        }
    }
}

/// `a·v + b` of a folded affine form, wrapping as the operators it
/// folds do (a ring homomorphism: the fold equals the unfolded value).
pub fn affine(a: i64, v: i64, b: i64) -> i64 {
    a.wrapping_mul(v).wrapping_add(b)
}

/// COMPLEX `+ - * /` on `[re, im]` pairs; `None` for any other operator.
pub(crate) fn complex_arith(op: BinOp, [ar, ai]: [f64; 2], [br, bi]: [f64; 2]) -> Option<[f64; 2]> {
    use BinOp::*;
    Some(match op {
        Add => [ar + br, ai + bi],
        Sub => [ar - br, ai - bi],
        Mul => [ar * br - ai * bi, ar * bi + ai * br],
        Div => {
            let d = br * br + bi * bi;
            [(ar * br + ai * bi) / d, (ai * br - ar * bi) / d]
        }
        _ => return None,
    })
}

/// Apply a unary operator.
pub fn eval_un(op: UnOp, v: Value) -> OpResult {
    Ok(match op {
        UnOp::Neg => match v {
            Value::Int(x) => Value::Int(x.wrapping_neg()),
            Value::Real(x) => Value::Real(-x),
            Value::Complex(r, i) => Value::Complex(-r, -i),
            Value::Bool(_) => return Err("negating a LOGICAL".into()),
        },
        UnOp::Not => Value::Bool(!v.as_bool()),
    })
}

/// The elemental intrinsics, resolved at lowering time so the bytecode
/// engine never string-matches in its hot loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Intrin {
    /// `ABS`
    Abs,
    /// `SQRT`
    Sqrt,
    /// `EXP`
    Exp,
    /// `LOG`
    Log,
    /// `SIN`
    Sin,
    /// `COS`
    Cos,
    /// `TAN`
    Tan,
    /// `MOD`
    Mod,
    /// `MIN`
    Min,
    /// `MAX`
    Max,
    /// `REAL` / `FLOAT` / `DBLE`
    ToReal,
    /// `INT`
    ToInt,
    /// `NINT`
    Nint,
    /// `SIGN`
    Sign,
}

impl Intrin {
    /// Resolve an intrinsic by its Fortran name.
    pub fn from_name(name: &str) -> Option<Intrin> {
        Some(match name {
            "ABS" => Intrin::Abs,
            "SQRT" => Intrin::Sqrt,
            "EXP" => Intrin::Exp,
            "LOG" => Intrin::Log,
            "SIN" => Intrin::Sin,
            "COS" => Intrin::Cos,
            "TAN" => Intrin::Tan,
            "MOD" => Intrin::Mod,
            "MIN" => Intrin::Min,
            "MAX" => Intrin::Max,
            "REAL" | "FLOAT" | "DBLE" => Intrin::ToReal,
            "INT" => Intrin::ToInt,
            "NINT" => Intrin::Nint,
            "SIGN" => Intrin::Sign,
            _ => return None,
        })
    }
}

/// Apply a resolved elemental intrinsic.
pub fn eval_intrin(f: Intrin, args: &[Value]) -> OpResult {
    let f1 = |f: fn(f64) -> f64| -> OpResult { Ok(Value::Real(f(args[0].as_real()))) };
    match f {
        Intrin::Abs => match args[0] {
            Value::Int(x) => Ok(Value::Int(x.wrapping_abs())),
            other => Ok(Value::Real(other.as_real().abs())),
        },
        Intrin::Sqrt => f1(f64::sqrt),
        Intrin::Exp => f1(f64::exp),
        Intrin::Log => f1(f64::ln),
        Intrin::Sin => f1(f64::sin),
        Intrin::Cos => f1(f64::cos),
        Intrin::Tan => f1(f64::tan),
        Intrin::Mod => match (args[0], args[1]) {
            (Value::Int(_), Value::Int(0)) => Err("integer MOD by zero".into()),
            // Sign of the dividend (truncation toward zero);
            // `MOD(i64::MIN, -1)` is 0, not an overflow abort.
            (Value::Int(a), Value::Int(b)) => Ok(Value::Int(a.wrapping_rem(b))),
            (a, b) => Ok(Value::Real(a.as_real() % b.as_real())),
        },
        Intrin::Min => Ok(fold_minmax(args, true)),
        Intrin::Max => Ok(fold_minmax(args, false)),
        Intrin::ToReal => Ok(Value::Real(args[0].as_real())),
        Intrin::ToInt => Ok(Value::Int(args[0].as_int())),
        Intrin::Nint => Ok(Value::Int(args[0].as_real().round() as i64)),
        Intrin::Sign => {
            let (a, b) = (args[0].as_real(), args[1].as_real());
            Ok(Value::Real(if b >= 0.0 { a.abs() } else { -a.abs() }))
        }
    }
}

/// Apply an elemental intrinsic by name (the reference interpreter's
/// entry point).
pub fn eval_elemental(name: &str, args: &[Value]) -> OpResult {
    match Intrin::from_name(name) {
        Some(f) => eval_intrin(f, args),
        None => Err(format!("unknown elemental intrinsic `{name}`")),
    }
}

/// INTEGER `x ** y` for `y >= 0`: exact whenever the result fits `i64`,
/// the wrapped bits of its multiplications otherwise —
/// never a panic, and never the wrong sign of `(-1)**y`. An exponent
/// beyond `u32` is clamped keeping its parity: 0 and ±1 cannot tell, and
/// every other base overflowed long before.
pub(crate) fn int_pow(x: i64, y: i64) -> i64 {
    let clamped = (u32::MAX - 1) | (y & 1) as u32;
    x.wrapping_pow(u32::try_from(y).unwrap_or(clamped))
}

fn fold_minmax(args: &[Value], min: bool) -> Value {
    let all_int = args.iter().all(|v| matches!(v, Value::Int(_)));
    if all_int {
        let it = args.iter().map(|v| v.as_int());
        Value::Int(if min { it.min() } else { it.max() }.unwrap())
    } else {
        let it = args.iter().map(|v| v.as_real());
        Value::Real(if min {
            it.fold(f64::INFINITY, f64::min)
        } else {
            it.fold(f64::NEG_INFINITY, f64::max)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_promotion_and_div() {
        assert_eq!(
            eval_bin(BinOp::Add, Value::Int(2), Value::Int(3)).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval_bin(BinOp::Div, Value::Int(7), Value::Int(2)).unwrap(),
            Value::Int(3)
        );
        assert!(eval_bin(BinOp::Div, Value::Int(1), Value::Int(0)).is_err());
        assert_eq!(
            eval_bin(BinOp::Mul, Value::Int(2), Value::Real(1.5)).unwrap(),
            Value::Real(3.0)
        );
    }

    /// Integer `/` and `MOD` fault on a zero divisor with a structured
    /// error, truncate toward zero, and never abort on `i64::MIN / -1`.
    #[test]
    fn integer_div_and_mod_never_panic() {
        let int = |op: BinOp, a, b| eval_bin(op, Value::Int(a), Value::Int(b));
        let imod = |a, b| eval_intrin(Intrin::Mod, &[Value::Int(a), Value::Int(b)]);
        assert_eq!(
            int(BinOp::Div, 1, 0).unwrap_err(),
            "integer division by zero"
        );
        assert_eq!(imod(7, 0).unwrap_err(), "integer MOD by zero");
        assert_eq!(imod(i64::MIN, 0).unwrap_err(), "integer MOD by zero");
        for (a, b, q, r) in [
            (7, 2, 3, 1),
            (-7, 2, -3, -1),
            (7, -2, -3, 1),
            (-7, -2, 3, -1),
            (i64::MIN, -1, i64::MIN, 0),
            (i64::MIN, 1, i64::MIN, 0),
            (5, -1, -5, 0),
        ] {
            assert_eq!(int(BinOp::Div, a, b).unwrap(), Value::Int(q), "{a} / {b}");
            assert_eq!(imod(a, b).unwrap(), Value::Int(r), "MOD({a}, {b})");
        }
        // REAL MOD by zero is IEEE: NaN, no fault.
        let r = eval_intrin(Intrin::Mod, &[Value::Real(1.5), Value::Int(0)]).unwrap();
        assert!(matches!(r, Value::Real(x) if x.is_nan()));
    }

    /// INTEGER `**` keeps the exponent's parity however large it is, is
    /// exact while the result fits, wraps (and does not abort) beyond.
    #[test]
    fn integer_pow_is_exact_or_wrapped_never_clamped() {
        let pow = |x, y| eval_bin(BinOp::Pow, Value::Int(x), Value::Int(y));
        for (x, y, want) in [
            (-1, 61, -1),
            (-1, 62, 1),
            (-1, 63, -1),
            (-1, 64, 1),
            (-1, 65, -1),
            (-1, i64::MAX, -1),
            (-1, i64::MAX - 1, 1),
            (0, 70, 0),
            (0, 0, 1),
            (1, i64::MAX, 1),
            (2, 62, 1 << 62),
            (2, 63, i64::MIN),
            (2, 64, 0),
            (-2, 63, i64::MIN),
            (3, 39, 4_052_555_153_018_976_267),
            (3, 41, 3i64.wrapping_pow(41)),
            (3, 50, 3i64.wrapping_pow(50)),
            (7, 3, 343),
        ] {
            assert_eq!(pow(x, y).unwrap(), Value::Int(want), "{x} ** {y}");
        }
        assert_eq!(pow(2, -1).unwrap_err(), "negative integer exponent");
    }

    #[test]
    fn intrinsics_resolve() {
        assert_eq!(Intrin::from_name("DBLE"), Some(Intrin::ToReal));
        assert_eq!(Intrin::from_name("NOPE"), None);
        assert_eq!(
            eval_intrin(Intrin::Max, &[Value::Int(2), Value::Int(5)]).unwrap(),
            Value::Int(5)
        );
        assert_eq!(
            eval_intrin(Intrin::Min, &[Value::Real(2.0), Value::Int(5)]).unwrap(),
            Value::Real(2.0)
        );
    }
}
