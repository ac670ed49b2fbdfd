//! Sequential reference interpreter over the normalized AST.
//!
//! Executes a program on flat host arrays with textbook Fortran
//! semantics, independent of all distribution machinery. Differential
//! tests run the compiled SPMD program next to this and compare final
//! array contents elementwise — the strongest correctness check we have.

use std::collections::HashMap;

use f90d_frontend::ast::*;
use f90d_frontend::sema::{AnalyzedProgram, UnitInfo};
use f90d_machine::{ArrayData, ElemType, Value};

/// Host-side array.
#[derive(Debug, Clone)]
pub struct HostArray {
    /// The name its errors give: the one it was declared under (a dummy
    /// argument keeps its actual's).
    pub name: String,
    /// Extents.
    pub shape: Vec<i64>,
    /// Row-major data.
    pub data: ArrayData,
}

impl HostArray {
    fn zeros(name: &str, ty: ElemType, shape: &[i64]) -> Self {
        let n: i64 = shape.iter().product();
        HostArray {
            name: name.to_string(),
            shape: shape.to_vec(),
            data: ArrayData::zeros(ty, n as usize),
        }
    }

    /// The row-major offset of the 0-based subscripts `idx`, or the
    /// engine's error for the first one outside its dimension.
    fn offset(&self, idx: &[i64]) -> Result<usize, String> {
        let mut off = 0i64;
        for (d, (&i, &e)) in idx.iter().zip(&self.shape).enumerate() {
            if !(0..e).contains(&i) {
                return Err(format!(
                    "subscript {} out of bounds on dim {d} of {} (extent {e})",
                    i + 1,
                    self.name
                ));
            }
            off = off * e + i;
        }
        Ok(off as usize)
    }

    /// Read element at `idx`.
    pub fn get(&self, idx: &[i64]) -> Result<Value, String> {
        Ok(self.data.get(self.offset(idx)?))
    }

    fn set(&mut self, idx: &[i64], v: Value) -> Result<(), String> {
        let off = self.offset(idx)?;
        self.data.set(off, v);
        Ok(())
    }
}

/// Final state of a reference run.
#[derive(Debug, Clone, Default)]
pub struct RefState {
    /// Arrays by source name.
    pub arrays: HashMap<String, HostArray>,
    /// Scalars by source name.
    pub scalars: HashMap<String, Value>,
    /// PRINT output lines.
    pub printed: Vec<String>,
}

fn elem_type(ty: Ty) -> ElemType {
    match ty {
        Ty::Integer => ElemType::Int,
        Ty::Real => ElemType::Real,
        Ty::Logical => ElemType::Bool,
        Ty::Complex => ElemType::Complex,
    }
}

/// Run the normalized program sequentially. `init` pre-seeds arrays
/// (same values the SPMD run scatters) — arrays not seeded start zero.
pub fn run_reference(
    prog: &AnalyzedProgram,
    init: &HashMap<String, ArrayData>,
) -> Result<RefState, String> {
    let main_idx = prog
        .program
        .units
        .iter()
        .position(|u| !u.is_subroutine)
        .ok_or("no main unit")?;
    let info = &prog.units[main_idx];
    let mut st = RefState::default();
    for (name, arr) in &info.arrays {
        let mut h = HostArray::zeros(name, elem_type(arr.ty), &arr.extents);
        if let Some(d) = init.get(name) {
            assert_eq!(d.len(), h.data.len(), "init size mismatch for {name}");
            h.data = d.clone();
        }
        st.arrays.insert(name.clone(), h);
    }
    for (name, ty) in &info.scalars {
        st.scalars.insert(name.clone(), elem_type(*ty).zero());
    }
    exec_block(
        &prog.program.units[main_idx].body,
        prog,
        info,
        &mut st,
        &mut Vec::new(),
    )?;
    Ok(st)
}

type Frame = Vec<(String, i64)>;

fn exec_block(
    stmts: &[Stmt],
    prog: &AnalyzedProgram,
    info: &UnitInfo,
    st: &mut RefState,
    env: &mut Frame,
) -> Result<(), String> {
    for s in stmts {
        exec_stmt(s, prog, info, st, env)?;
    }
    Ok(())
}

fn exec_stmt(
    s: &Stmt,
    prog: &AnalyzedProgram,
    info: &UnitInfo,
    st: &mut RefState,
    env: &mut Frame,
) -> Result<(), String> {
    match s {
        Stmt::Assign { lhs, rhs } => {
            if st.arrays.contains_key(&lhs.name) {
                if lhs.subs.is_empty() {
                    // Whole-array intrinsic statement.
                    return exec_array_intrinsic(&lhs.name, rhs, info, st, env);
                }
                let idx: Vec<i64> = lhs
                    .subs
                    .iter()
                    .map(|s| match s {
                        Subscript::Index(e) => eval(e, info, st, env).map(|v| v.as_int()),
                        _ => Err("unnormalized section".into()),
                    })
                    .collect::<Result<_, String>>()?;
                let v = eval(rhs, info, st, env)?;
                let ty = st.arrays[&lhs.name].data.elem_type();
                st.arrays
                    .get_mut(&lhs.name)
                    .unwrap()
                    .set(&idx, v.convert_to(ty))?;
            } else {
                // Assignment converts to the variable's declared type.
                let v = eval(rhs, info, st, env)?;
                let ty = st
                    .scalars
                    .get(&lhs.name)
                    .map_or(v.elem_type(), Value::elem_type);
                st.scalars.insert(lhs.name.clone(), v.convert_to(ty));
            }
            Ok(())
        }
        Stmt::Forall {
            indices,
            mask,
            body,
        } => {
            // Each body statement runs to completion (F90 construct
            // semantics) with RHS-before-write snapshot staging.
            for b in body {
                let Stmt::Assign { lhs, rhs } = b else {
                    return Err("FORALL body must be assignments".into());
                };
                let mut writes: Vec<(Vec<i64>, Value)> = Vec::new();
                forall_iter(indices, info, st, env, &mut |st2, env2| {
                    if let Some(m) = mask {
                        if !eval(m, info, st2, env2)?.as_bool() {
                            return Ok(());
                        }
                    }
                    let idx: Vec<i64> = lhs
                        .subs
                        .iter()
                        .map(|s| match s {
                            Subscript::Index(e) => eval(e, info, st2, env2).map(|v| v.as_int()),
                            _ => Err("unnormalized section".to_string()),
                        })
                        .collect::<Result<_, String>>()?;
                    let v = eval(rhs, info, st2, env2)?;
                    writes.push((idx, v));
                    Ok(())
                })?;
                let arr = st
                    .arrays
                    .get_mut(&lhs.name)
                    .ok_or_else(|| format!("FORALL assigns unknown array {}", lhs.name))?;
                let ty = arr.data.elem_type();
                for (idx, v) in writes {
                    arr.set(&idx, v.convert_to(ty))?;
                }
            }
            Ok(())
        }
        Stmt::Do {
            var,
            lb,
            ub,
            st: step,
            body,
        } => {
            let lb = eval(lb, info, st, env)?.as_int();
            let ub = eval(ub, info, st, env)?.as_int();
            let sp = eval(step, info, st, env)?.as_int();
            if sp == 0 {
                return Err("DO stride of zero".into());
            }
            let mut next = Some(lb);
            while let Some(v) = next.filter(|&v| (sp > 0 && v <= ub) || (sp < 0 && v >= ub)) {
                env.push((var.clone(), v));
                let r = exec_block(body, prog, info, st, env);
                env.pop();
                r?;
                // An iterate that overflows lies beyond any bound.
                next = v.checked_add(sp);
            }
            Ok(())
        }
        Stmt::If { cond, then, else_ } => {
            if eval(cond, info, st, env)?.as_bool() {
                exec_block(then, prog, info, st, env)
            } else {
                exec_block(else_, prog, info, st, env)
            }
        }
        Stmt::Print { items } => {
            let mut line = String::new();
            for (k, e) in items.iter().enumerate() {
                if k > 0 {
                    line.push(' ');
                }
                match e {
                    Expr::Str(s) => line.push_str(s),
                    other => line.push_str(&eval(other, info, st, env)?.to_string()),
                }
            }
            st.printed.push(line);
            Ok(())
        }
        Stmt::Call { name, args } => {
            let callee = prog
                .program
                .subroutine(name)
                .ok_or_else(|| format!("unknown subroutine {name}"))?;
            let callee_info = prog
                .unit_info(name)
                .ok_or_else(|| format!("no info for {name}"))?;
            // Save caller state, build callee state with arg binding.
            let mut sub = RefState::default();
            for (aname, arr) in &callee_info.arrays {
                sub.arrays.insert(
                    aname.clone(),
                    HostArray::zeros(aname, elem_type(arr.ty), &arr.extents),
                );
            }
            for (sname, ty) in &callee_info.scalars {
                sub.scalars.insert(sname.clone(), elem_type(*ty).zero());
            }
            let mut array_binding: Vec<(String, String)> = Vec::new();
            for (dummy, actual) in callee.args.iter().zip(args) {
                if callee_info.arrays.contains_key(dummy) {
                    let Expr::Var(an) = actual else {
                        return Err(format!("array dummy {dummy} needs array actual"));
                    };
                    sub.arrays.insert(dummy.clone(), st.arrays[an].clone());
                    array_binding.push((dummy.clone(), an.clone()));
                } else {
                    let v = eval(actual, info, st, env)?;
                    sub.scalars.insert(dummy.clone(), v);
                }
            }
            exec_block(&callee.body, prog, callee_info, &mut sub, &mut Vec::new())?;
            for (dummy, actual) in array_binding {
                let out = sub.arrays.remove(&dummy).unwrap();
                st.arrays.insert(actual, out);
            }
            st.printed.extend(sub.printed);
            Ok(())
        }
        Stmt::Redistribute { .. } => Ok(()), // mapping-only, no values move
        Stmt::Where { .. } => Err("unnormalized WHERE".into()),
    }
}

fn forall_iter(
    indices: &[ForallIndex],
    info: &UnitInfo,
    st: &mut RefState,
    env: &mut Frame,
    f: &mut dyn FnMut(&mut RefState, &mut Frame) -> Result<(), String>,
) -> Result<(), String> {
    fn rec(
        k: usize,
        indices: &[ForallIndex],
        info: &UnitInfo,
        st: &mut RefState,
        env: &mut Frame,
        f: &mut dyn FnMut(&mut RefState, &mut Frame) -> Result<(), String>,
    ) -> Result<(), String> {
        if k == indices.len() {
            return f(st, env);
        }
        let ix = &indices[k];
        let lb = eval(&ix.lb, info, st, env)?.as_int();
        let ub = eval(&ix.ub, info, st, env)?.as_int();
        let sp = eval(&ix.st, info, st, env)?.as_int();
        // The executors' rule and wording (`dispatch::iteration_spaces`):
        // a zero stride would never end, a negative one run nothing.
        if sp <= 0 {
            return Err("FORALL stride must be positive".into());
        }
        let mut next = Some(lb);
        // An iterate that overflows lies beyond any bound.
        while let Some(v) = next.filter(|&v| v <= ub) {
            env.push((ix.var.clone(), v));
            let r = rec(k + 1, indices, info, st, env, f);
            env.pop();
            r?;
            next = v.checked_add(sp);
        }
        Ok(())
    }
    rec(0, indices, info, st, env, f)
}

fn exec_array_intrinsic(
    lhs: &str,
    rhs: &Expr,
    info: &UnitInfo,
    st: &mut RefState,
    env: &mut Frame,
) -> Result<(), String> {
    let Expr::Ref(fname, args) = rhs else {
        return Err(format!(
            "whole-array assignment to {lhs} must be an intrinsic"
        ));
    };
    let arg_expr = |k: usize| -> Result<&Expr, String> {
        match args.get(k) {
            Some(Subscript::Index(e)) => Ok(e),
            _ => Err(format!("{fname}: missing argument {k}")),
        }
    };
    let arg_arr = |k: usize| -> Result<String, String> {
        match arg_expr(k)? {
            Expr::Var(n) => Ok(n.clone()),
            _ => Err(format!("{fname}: expected array name")),
        }
    };
    match fname.as_str() {
        "CSHIFT" | "EOSHIFT" => {
            let src = st.arrays[&arg_arr(0)?].clone();
            let shift = eval(arg_expr(1)?, info, st, env)?.as_int();
            let dim = match fname.as_str() {
                "CSHIFT" => args.get(2),
                _ => args.get(3),
            };
            let dim = match dim {
                Some(Subscript::Index(e)) => (eval(e, info, st, env)?.as_int() - 1) as usize,
                _ => 0,
            };
            let boundary = if fname == "EOSHIFT" {
                Some(eval(arg_expr(2)?, info, st, env)?)
            } else {
                None
            };
            let dst = st.arrays.get_mut(lhs).unwrap();
            let n = src.shape[dim];
            let mut idx = vec![0i64; src.shape.len()];
            visit_all(&src.shape, &mut idx, &mut |idx| {
                let mut s = idx.to_vec();
                let shifted = idx[dim] + shift;
                let v = if (0..n).contains(&shifted) {
                    s[dim] = shifted;
                    src.get(&s)?
                } else if let Some(b) = boundary {
                    b
                } else {
                    s[dim] = shifted.rem_euclid(n);
                    src.get(&s)?
                };
                dst.set(idx, v)
            })
        }
        "TRANSPOSE" => {
            let src = st.arrays[&arg_arr(0)?].clone();
            let dst = st.arrays.get_mut(lhs).unwrap();
            for i in 0..dst.shape[0] {
                for j in 0..dst.shape[1] {
                    dst.set(&[i, j], src.get(&[j, i])?)?;
                }
            }
            Ok(())
        }
        "MATMUL" => {
            let a = st.arrays[&arg_arr(0)?].clone();
            let b = st.arrays[&arg_arr(1)?].clone();
            let dst = st.arrays.get_mut(lhs).unwrap();
            let kk = a.shape[1];
            for i in 0..dst.shape[0] {
                for j in 0..dst.shape[1] {
                    let mut acc = 0.0;
                    for k in 0..kk {
                        acc += a.get(&[i, k])?.as_real() * b.get(&[k, j])?.as_real();
                    }
                    dst.set(&[i, j], Value::Real(acc))?;
                }
            }
            Ok(())
        }
        other => Err(format!("reference: unsupported array intrinsic {other}")),
    }
}

type Visit<'a> = dyn FnMut(&[i64]) -> Result<(), String> + 'a;

fn visit_all(shape: &[i64], idx: &mut Vec<i64>, f: &mut Visit<'_>) -> Result<(), String> {
    fn rec(d: usize, shape: &[i64], idx: &mut Vec<i64>, f: &mut Visit<'_>) -> Result<(), String> {
        if d == shape.len() {
            return f(idx);
        }
        for i in 0..shape[d] {
            idx[d] = i;
            rec(d + 1, shape, idx, f)?;
        }
        Ok(())
    }
    rec(0, shape, idx, f)
}

fn eval(e: &Expr, info: &UnitInfo, st: &RefState, env: &Frame) -> Result<Value, String> {
    match e {
        Expr::Int(v) => Ok(Value::Int(*v)),
        Expr::Real(v) => Ok(Value::Real(*v)),
        Expr::Logical(b) => Ok(Value::Bool(*b)),
        Expr::Str(_) => Err("character value in expression".into()),
        Expr::Var(n) => {
            if let Some(&(_, v)) = env.iter().rev().find(|(name, _)| name == n) {
                Ok(Value::Int(v))
            } else if let Some(&v) = info.params.get(n) {
                Ok(Value::Int(v))
            } else if let Some(v) = st.scalars.get(n) {
                Ok(*v)
            } else {
                Err(format!("reference: undefined variable {n}"))
            }
        }
        Expr::Bin(op, l, r) => {
            let a = eval(l, info, st, env)?;
            let b = eval(r, info, st, env)?;
            f90d_vm::ops::eval_bin(*op, a, b)
        }
        Expr::Un(op, x) => {
            let v = eval(x, info, st, env)?;
            f90d_vm::ops::eval_un(*op, v)
        }
        Expr::Ref(name, subs) => {
            if let Some(arr) = st.arrays.get(name) {
                let idx: Vec<i64> = subs
                    .iter()
                    .map(|s| match s {
                        Subscript::Index(e) => eval(e, info, st, env).map(|v| v.as_int()),
                        _ => Err("section in element context".to_string()),
                    })
                    .collect::<Result<_, String>>()?;
                arr.get(&idx)
            } else {
                // Intrinsic: reductions over whole arrays, or elemental.
                match name.as_str() {
                    "SUM" | "PRODUCT" | "MAXVAL" | "MINVAL" | "COUNT" | "ALL" | "ANY" => {
                        let Some(Subscript::Index(Expr::Var(an))) = subs.first() else {
                            return Err(format!("{name}: whole-array operand required"));
                        };
                        let arr = &st.arrays[an];
                        let n = arr.data.len();
                        let vals = (0..n).map(|k| arr.data.get(k));
                        // An INTEGER operand reduces exactly, to an INTEGER.
                        let int = arr.data.elem_type() == ElemType::Int;
                        let ints = vals.clone().map(|v| v.as_int());
                        Ok(match name.as_str() {
                            "SUM" if int => Value::Int(ints.fold(0, i64::wrapping_add)),
                            "PRODUCT" if int => Value::Int(ints.fold(1, i64::wrapping_mul)),
                            "MAXVAL" if int => Value::Int(ints.fold(i64::MIN, i64::max)),
                            "MINVAL" if int => Value::Int(ints.fold(i64::MAX, i64::min)),
                            "SUM" => Value::Real(vals.map(|v| v.as_real()).sum()),
                            "PRODUCT" => Value::Real(vals.map(|v| v.as_real()).product()),
                            "MAXVAL" => Value::Real(
                                vals.map(|v| v.as_real()).fold(f64::NEG_INFINITY, f64::max),
                            ),
                            "MINVAL" => {
                                Value::Real(vals.map(|v| v.as_real()).fold(f64::INFINITY, f64::min))
                            }
                            "COUNT" => Value::Int(vals.filter(|v| v.as_bool()).count() as i64),
                            "ALL" => Value::Bool(vals.into_iter().all(|v| v.as_bool())),
                            "ANY" => Value::Bool(vals.into_iter().any(|v| v.as_bool())),
                            _ => unreachable!(),
                        })
                    }
                    "DOTPRODUCT" | "DOT_PRODUCT" => {
                        let (
                            Some(Subscript::Index(Expr::Var(a))),
                            Some(Subscript::Index(Expr::Var(b))),
                        ) = (subs.first(), subs.get(1))
                        else {
                            return Err("DOTPRODUCT: two whole arrays required".into());
                        };
                        let (aa, bb) = (&st.arrays[a], &st.arrays[b]);
                        let s: f64 = (0..aa.data.len())
                            .map(|k| aa.data.get(k).as_real() * bb.data.get(k).as_real())
                            .sum();
                        Ok(Value::Real(s))
                    }
                    _ => {
                        let vals: Vec<Value> = subs
                            .iter()
                            .map(|s| match s {
                                Subscript::Index(e) => eval(e, info, st, env),
                                _ => Err("section argument".to_string()),
                            })
                            .collect::<Result<_, String>>()?;
                        f90d_vm::ops::eval_elemental(name, &vals)
                    }
                }
            }
        }
    }
}
