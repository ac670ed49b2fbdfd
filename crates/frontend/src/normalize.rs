//! Normalization: array assignments and WHERE constructs become FORALLs
//! ("our compiler also transforms each array assignment statement and
//! where statement into equivalent forall statement with no loss of
//! information", paper §2), and the whole program moves to **0-based**
//! index space.
//!
//! The 0-based conversion works in two sweeps that compose cleanly:
//!
//! 1. every array subscript expression `e` becomes `e - 1` (and section
//!    bounds likewise);
//! 2. every FORALL range `lb:ub` becomes `lb-1:ub-1` and each occurrence
//!    of its index variable `i` in the body is replaced by `i + 1`.
//!
//! A canonical subscript `A(I)` thus becomes `A((I+1)-1) = A(I)` again,
//! while `A(3)` becomes `A(2)` and a sequential `DO K` subscript `A(K)`
//! becomes `A(K-1)` — exactly the off-by-one Fortran↔0-based bookkeeping,
//! done once, here, instead of everywhere in the compiler.

use crate::ast::*;
use crate::sema::{AnalyzedProgram, UnitInfo, PARALLEL_INTRINSICS};

/// Array-valued parallel intrinsics that stay as whole-statement runtime
/// calls (`B = CSHIFT(A, 1)` etc.) rather than being expanded.
pub const ARRAY_VALUED_INTRINSICS: &[&str] = &[
    "CSHIFT",
    "EOSHIFT",
    "SPREAD",
    "PACK",
    "UNPACK",
    "RESHAPE",
    "TRANSPOSE",
    "MATMUL",
];

/// Normalize an analyzed program in place.
pub fn normalize(prog: &mut AnalyzedProgram) {
    let units_info = prog.units.clone();
    for (unit, info) in prog.program.units.iter_mut().zip(&units_info) {
        let mut counter = 0usize;
        let body = std::mem::take(&mut unit.body);
        let expanded = expand_stmts(body, info, &mut counter);
        let mut shifted: Vec<Stmt> = expanded.into_iter().map(|s| shift_stmt(s, info)).collect();
        for s in &mut shifted {
            rebase_foralls(s);
        }
        unit.body = shifted;
    }
}

// ---- pass 1: expansion ---------------------------------------------------

fn expand_stmts(stmts: Vec<Stmt>, info: &UnitInfo, counter: &mut usize) -> Vec<Stmt> {
    let mut out = Vec::with_capacity(stmts.len());
    for s in stmts {
        expand_stmt(s, info, None, counter, &mut out);
    }
    out
}

/// Expand one statement; `where_mask` carries the enclosing WHERE mask.
fn expand_stmt(
    s: Stmt,
    info: &UnitInfo,
    where_mask: Option<&Expr>,
    counter: &mut usize,
    out: &mut Vec<Stmt>,
) {
    match s {
        Stmt::Assign { lhs, rhs } => {
            let is_array_op = info.arrays.get(&lhs.name).is_some_and(|a| {
                lhs.subs.is_empty() && !a.extents.is_empty()
                    || lhs.subs.iter().any(|s| s.is_section())
            });
            if !is_array_op {
                debug_assert!(where_mask.is_none(), "WHERE over non-array assignment");
                out.push(Stmt::Assign { lhs, rhs });
                return;
            }
            // Whole-statement array-valued intrinsic: keep as-is.
            if where_mask.is_none() && lhs.subs.is_empty() {
                if let Expr::Ref(name, _) = &rhs {
                    if ARRAY_VALUED_INTRINSICS.contains(&name.as_str())
                        && !info.arrays.contains_key(name)
                    {
                        out.push(Stmt::Assign { lhs, rhs });
                        return;
                    }
                }
            }
            out.push(expand_array_assign(lhs, rhs, where_mask, info, counter));
        }
        Stmt::Where {
            mask,
            then,
            elsewhere,
        } => {
            for inner in then {
                expand_stmt(inner, info, Some(&mask), counter, out);
            }
            if !elsewhere.is_empty() {
                let neg = Expr::Un(UnOp::Not, Box::new(mask));
                for inner in elsewhere {
                    expand_stmt(inner, info, Some(&neg), counter, out);
                }
            }
        }
        Stmt::Do {
            var,
            lb,
            ub,
            st,
            body,
        } => {
            let body = expand_stmts(body, info, counter);
            out.push(Stmt::Do {
                var,
                lb,
                ub,
                st,
                body,
            });
        }
        Stmt::If { cond, then, else_ } => {
            let then = expand_stmts(then, info, counter);
            let else_ = expand_stmts(else_, info, counter);
            out.push(Stmt::If { cond, then, else_ });
        }
        Stmt::Forall {
            indices,
            mask,
            body,
        } => {
            // Bodies of user FORALLs are already elementwise.
            out.push(Stmt::Forall {
                indices,
                mask,
                body,
            });
        }
        other => out.push(other),
    }
}

/// Section descriptor of one LHS dimension.
struct DimSec {
    /// `None` for a fixed `Index` subscript, `Some((lb, ub))` for a
    /// stride-1 section (strided LHS sections are rejected here).
    range: Option<(Expr, Expr)>,
    /// The original subscript expression for fixed dims.
    fixed: Option<Expr>,
}

fn expand_array_assign(
    lhs: LhsRef,
    rhs: Expr,
    where_mask: Option<&Expr>,
    info: &UnitInfo,
    counter: &mut usize,
) -> Stmt {
    let arr = &info.arrays[&lhs.name];
    let rank = arr.extents.len();
    let subs = if lhs.subs.is_empty() {
        vec![Subscript::full(); rank]
    } else {
        lhs.subs.clone()
    };
    let mut dims: Vec<DimSec> = Vec::with_capacity(rank);
    for (d, s) in subs.iter().enumerate() {
        match s {
            Subscript::Index(e) => dims.push(DimSec {
                range: None,
                fixed: Some(e.clone()),
            }),
            Subscript::Range { lb, ub, st } => {
                if let Some(st) = st {
                    assert!(
                        matches!(simplify(st.clone()), Expr::Int(1)),
                        "strided LHS sections are not supported by the normalizer"
                    );
                }
                let lb = lb.clone().unwrap_or(Expr::Int(1));
                let ub = ub.clone().unwrap_or(Expr::Int(arr.extents[d]));
                dims.push(DimSec {
                    range: Some((lb, ub)),
                    fixed: None,
                });
            }
        }
    }
    // Fresh index variables for sectioned dims.
    let mut indices = Vec::new();
    let mut lhs_subs = Vec::with_capacity(rank);
    // (var, lhs_lb) per sectioned dim, in order.
    let mut sec_vars: Vec<(String, Expr)> = Vec::new();
    for dim in &dims {
        match (&dim.range, &dim.fixed) {
            (Some((lb, ub)), _) => {
                *counter += 1;
                let var = format!("I__{counter}");
                indices.push(ForallIndex {
                    var: var.clone(),
                    lb: lb.clone(),
                    ub: ub.clone(),
                    st: Expr::Int(1),
                });
                lhs_subs.push(Subscript::Index(Expr::Var(var.clone())));
                sec_vars.push((var, lb.clone()));
            }
            (None, Some(e)) => lhs_subs.push(Subscript::Index(e.clone())),
            _ => unreachable!(),
        }
    }
    let new_rhs = map_elemental(rhs, &sec_vars, info);
    let mask = where_mask.map(|m| simplify(map_elemental(m.clone(), &sec_vars, info)));
    Stmt::Forall {
        indices,
        mask,
        body: vec![Stmt::Assign {
            lhs: LhsRef {
                name: lhs.name,
                subs: lhs_subs,
            },
            rhs: simplify(new_rhs),
        }],
    }
}

/// Rewrite an elementwise RHS/mask: every array section maps positionally
/// onto the LHS section variables.
fn map_elemental(e: Expr, sec_vars: &[(String, Expr)], info: &UnitInfo) -> Expr {
    fn walk(e: Expr, sec_vars: &[(String, Expr)], info: &UnitInfo, pos: &mut usize) -> Expr {
        match e {
            // A bare array name is a whole-array reference.
            Expr::Var(name) if info.arrays.contains_key(&name) => {
                walk(Expr::Ref(name, vec![]), sec_vars, info, pos)
            }
            Expr::Ref(name, subs) => {
                if info.arrays.contains_key(&name) {
                    // Array reference: whole-array refs expand to full
                    // sections first.
                    let subs = if subs.is_empty() {
                        vec![Subscript::full(); info.arrays[&name].extents.len()]
                    } else {
                        subs
                    };
                    let extents = &info.arrays[&name].extents;
                    let mut new_subs = Vec::with_capacity(subs.len());
                    for s in subs.into_iter() {
                        match s {
                            Subscript::Index(ix) => {
                                let ix = walk(ix, sec_vars, info, pos);
                                new_subs.push(Subscript::Index(ix));
                            }
                            Subscript::Range { lb, ub: _, st } => {
                                let (var, lhs_lb) = sec_vars
                                    .get(*pos)
                                    .unwrap_or_else(|| {
                                        panic!(
                                            "RHS section of `{name}` has no matching LHS section"
                                        )
                                    })
                                    .clone();
                                *pos += 1;
                                let rlb = lb.unwrap_or(Expr::Int(1));
                                let rst = st.unwrap_or(Expr::Int(1));
                                let _ = extents;
                                // index = rlb + (var - lhs_lb) * rst
                                let delta = Expr::bin(BinOp::Sub, Expr::Var(var), lhs_lb);
                                let scaled = Expr::bin(BinOp::Mul, delta, rst);
                                new_subs.push(Subscript::Index(simplify(Expr::bin(
                                    BinOp::Add,
                                    rlb,
                                    scaled,
                                ))));
                            }
                        }
                    }
                    Expr::Ref(name, new_subs)
                } else if PARALLEL_INTRINSICS.contains(&name.as_str()) {
                    // Parallel intrinsics are self-contained: leave args.
                    Expr::Ref(name, subs)
                } else {
                    // Elemental intrinsic: recurse into args.
                    let subs = subs
                        .into_iter()
                        .map(|s| match s {
                            Subscript::Index(ix) => Subscript::Index(walk(ix, sec_vars, info, pos)),
                            other => other,
                        })
                        .collect();
                    Expr::Ref(name, subs)
                }
            }
            Expr::Bin(op, l, r) => {
                let l = walk(*l, sec_vars, info, pos);
                // Each operand consumes sections independently but they
                // refer to the same variables: reset position per operand.
                let mut pos_r = 0usize;
                let r = walk(*r, sec_vars, info, &mut pos_r);
                Expr::bin(op, l, r)
            }
            Expr::Un(op, x) => {
                let x = walk(*x, sec_vars, info, pos);
                Expr::Un(op, Box::new(x))
            }
            other => other,
        }
    }
    let mut pos = 0usize;
    walk(e, sec_vars, info, &mut pos)
}

// ---- pass 2: 0-based shift ------------------------------------------------

fn shift_stmt(s: Stmt, info: &UnitInfo) -> Stmt {
    match s {
        Stmt::Assign { lhs, rhs } => Stmt::Assign {
            lhs: shift_lhs(lhs, info),
            rhs: shift_expr(rhs, info),
        },
        Stmt::Forall {
            indices,
            mask,
            body,
        } => Stmt::Forall {
            indices: indices
                .into_iter()
                .map(|ix| ForallIndex {
                    var: ix.var,
                    lb: simplify(shift_expr(ix.lb, info)),
                    ub: simplify(shift_expr(ix.ub, info)),
                    st: simplify(shift_expr(ix.st, info)),
                })
                .collect(),
            mask: mask.map(|m| shift_expr(m, info)),
            body: body.into_iter().map(|b| shift_stmt(b, info)).collect(),
        },
        Stmt::Where {
            mask,
            then,
            elsewhere,
        } => Stmt::Where {
            mask: shift_expr(mask, info),
            then: then.into_iter().map(|b| shift_stmt(b, info)).collect(),
            elsewhere: elsewhere.into_iter().map(|b| shift_stmt(b, info)).collect(),
        },
        Stmt::Do {
            var,
            lb,
            ub,
            st,
            body,
        } => Stmt::Do {
            var,
            lb: simplify(shift_expr(lb, info)),
            ub: simplify(shift_expr(ub, info)),
            st: simplify(shift_expr(st, info)),
            body: body.into_iter().map(|b| shift_stmt(b, info)).collect(),
        },
        Stmt::If { cond, then, else_ } => Stmt::If {
            cond: shift_expr(cond, info),
            then: then.into_iter().map(|b| shift_stmt(b, info)).collect(),
            else_: else_.into_iter().map(|b| shift_stmt(b, info)).collect(),
        },
        Stmt::Call { name, args } => Stmt::Call {
            name,
            args: args.into_iter().map(|a| shift_expr(a, info)).collect(),
        },
        Stmt::Print { items } => Stmt::Print {
            items: items.into_iter().map(|a| shift_expr(a, info)).collect(),
        },
        other => other,
    }
}

fn shift_lhs(lhs: LhsRef, info: &UnitInfo) -> LhsRef {
    LhsRef {
        name: lhs.name,
        subs: lhs
            .subs
            .into_iter()
            .map(|s| shift_subscript(s, info))
            .collect(),
    }
}

fn shift_subscript(s: Subscript, info: &UnitInfo) -> Subscript {
    match s {
        Subscript::Index(e) => Subscript::Index(simplify(shift_expr(e, info).plus(-1))),
        Subscript::Range { lb, ub, st } => Subscript::Range {
            lb: lb.map(|e| simplify(shift_expr(e, info).plus(-1))),
            ub: ub.map(|e| simplify(shift_expr(e, info).plus(-1))),
            st: st.map(|e| shift_expr(e, info)),
        },
    }
}

fn shift_expr(e: Expr, info: &UnitInfo) -> Expr {
    match e {
        // PARAMETER constants fold to literals here, so that loop bounds
        // and alignment math see integers.
        Expr::Var(n) => match info.params.get(&n) {
            Some(&v) => Expr::Int(v),
            None => Expr::Var(n),
        },
        Expr::Ref(name, subs) => {
            if info.arrays.contains_key(&name) {
                Expr::Ref(
                    name,
                    subs.into_iter().map(|s| shift_subscript(s, info)).collect(),
                )
            } else {
                // Intrinsic: shift inside args (array refs there are real
                // refs), but the args themselves are not subscripts.
                Expr::Ref(
                    name,
                    subs.into_iter()
                        .map(|s| match s {
                            Subscript::Index(ix) => Subscript::Index(shift_expr(ix, info)),
                            Subscript::Range { lb, ub, st } => Subscript::Range {
                                lb: lb.map(|e| shift_expr(e, info)),
                                ub: ub.map(|e| shift_expr(e, info)),
                                st: st.map(|e| shift_expr(e, info)),
                            },
                        })
                        .collect(),
                )
            }
        }
        Expr::Bin(op, l, r) => Expr::bin(op, shift_expr(*l, info), shift_expr(*r, info)),
        Expr::Un(op, x) => Expr::Un(op, Box::new(shift_expr(*x, info))),
        other => other,
    }
}

// ---- pass 3: FORALL rebasing ----------------------------------------------

/// Shift FORALL ranges to 0-based and substitute `var → var + 1` in the
/// body and mask.
fn rebase_foralls(s: &mut Stmt) {
    match s {
        Stmt::Forall {
            indices,
            mask,
            body,
        } => {
            for b in body.iter_mut() {
                rebase_foralls(b);
            }
            for ix in indices {
                ix.lb = simplify(ix.lb.clone().plus(-1));
                ix.ub = simplify(ix.ub.clone().plus(-1));
                let replacement = Expr::Var(ix.var.clone()).plus(1);
                if let Some(m) = mask {
                    *m = simplify(subst_var(m.clone(), &ix.var, &replacement));
                }
                for b in body.iter_mut() {
                    subst_stmt(b, &ix.var, &replacement);
                }
            }
        }
        Stmt::Do { body, .. } | Stmt::If { then: body, .. } => {
            for b in body {
                rebase_foralls(b);
            }
            if let Stmt::If { else_, .. } = s {
                for b in else_ {
                    rebase_foralls(b);
                }
            }
        }
        Stmt::Where {
            then, elsewhere, ..
        } => {
            for b in then.iter_mut().chain(elsewhere) {
                rebase_foralls(b);
            }
        }
        _ => {}
    }
}

fn subst_stmt(s: &mut Stmt, var: &str, replacement: &Expr) {
    match s {
        Stmt::Assign { lhs, rhs } => {
            for sub in &mut lhs.subs {
                subst_subscript(sub, var, replacement);
            }
            *rhs = simplify(subst_var(rhs.clone(), var, replacement));
        }
        Stmt::Forall {
            indices,
            mask,
            body,
        } => {
            for ix in indices {
                ix.lb = simplify(subst_var(ix.lb.clone(), var, replacement));
                ix.ub = simplify(subst_var(ix.ub.clone(), var, replacement));
                ix.st = simplify(subst_var(ix.st.clone(), var, replacement));
            }
            if let Some(m) = mask {
                *m = simplify(subst_var(m.clone(), var, replacement));
            }
            for b in body {
                subst_stmt(b, var, replacement);
            }
        }
        Stmt::Do {
            lb, ub, st, body, ..
        } => {
            *lb = simplify(subst_var(lb.clone(), var, replacement));
            *ub = simplify(subst_var(ub.clone(), var, replacement));
            *st = simplify(subst_var(st.clone(), var, replacement));
            for b in body {
                subst_stmt(b, var, replacement);
            }
        }
        Stmt::If { cond, then, else_ } => {
            *cond = simplify(subst_var(cond.clone(), var, replacement));
            for b in then.iter_mut().chain(else_) {
                subst_stmt(b, var, replacement);
            }
        }
        Stmt::Where {
            mask,
            then,
            elsewhere,
        } => {
            *mask = simplify(subst_var(mask.clone(), var, replacement));
            for b in then.iter_mut().chain(elsewhere) {
                subst_stmt(b, var, replacement);
            }
        }
        Stmt::Print { items } => {
            for e in items {
                *e = simplify(subst_var(e.clone(), var, replacement));
            }
        }
        Stmt::Call { args, .. } => {
            for e in args {
                *e = simplify(subst_var(e.clone(), var, replacement));
            }
        }
        Stmt::Redistribute { .. } => {}
    }
}

fn subst_subscript(s: &mut Subscript, var: &str, replacement: &Expr) {
    match s {
        Subscript::Index(e) => *e = simplify(subst_var(e.clone(), var, replacement)),
        Subscript::Range { lb, ub, st } => {
            for o in [lb, ub, st].into_iter().flatten() {
                *o = simplify(subst_var(o.clone(), var, replacement));
            }
        }
    }
}

/// Substitute every occurrence of `Var(var)` in `e` by `replacement`.
pub fn subst_var(e: Expr, var: &str, replacement: &Expr) -> Expr {
    match e {
        Expr::Var(n) if n == var => replacement.clone(),
        Expr::Bin(op, l, r) => Expr::bin(
            op,
            subst_var(*l, var, replacement),
            subst_var(*r, var, replacement),
        ),
        Expr::Un(op, x) => Expr::Un(op, Box::new(subst_var(*x, var, replacement))),
        Expr::Ref(name, subs) => Expr::Ref(
            name,
            subs.into_iter()
                .map(|s| match s {
                    Subscript::Index(ix) => Subscript::Index(subst_var(ix, var, replacement)),
                    Subscript::Range { lb, ub, st } => Subscript::Range {
                        lb: lb.map(|e| subst_var(e, var, replacement)),
                        ub: ub.map(|e| subst_var(e, var, replacement)),
                        st: st.map(|e| subst_var(e, var, replacement)),
                    },
                })
                .collect(),
        ),
        other => other,
    }
}

/// Algebraic simplifier: constant folding and affine canonicalization
/// `((x + a) + b) → x + (a+b)`, `x ± 0 → x`, `1*x → x`, `0*x → 0`.
pub fn simplify(e: Expr) -> Expr {
    match e {
        Expr::Bin(op, l, r) => {
            let l = simplify(*l);
            let r = simplify(*r);
            // INTEGER arithmetic wraps, at compile time as at run time.
            if let (Expr::Int(a), Expr::Int(b)) = (&l, &r) {
                let v = match op {
                    BinOp::Add => Some(a.wrapping_add(*b)),
                    BinOp::Sub => Some(a.wrapping_sub(*b)),
                    BinOp::Mul => Some(a.wrapping_mul(*b)),
                    BinOp::Div if *b != 0 => Some(a.wrapping_div(*b)),
                    BinOp::Pow if *b >= 0 => Some(a.wrapping_pow(*b as u32)),
                    _ => None,
                };
                if let Some(v) = v {
                    return Expr::Int(v);
                }
            }
            match (op, &l, &r) {
                // Canonicalize constants to the right of `+` so that the
                // affine chain rule below can fold them.
                (BinOp::Add, Expr::Int(_), rr) if !matches!(rr, Expr::Int(_)) => {
                    simplify(Expr::bin(BinOp::Add, r.clone(), l.clone()))
                }
                (BinOp::Add, _, Expr::Int(0)) => l,
                (BinOp::Sub, _, Expr::Int(0)) => l,
                (BinOp::Sub, Expr::Int(0), _) => Expr::Un(UnOp::Neg, Box::new(r)),
                (BinOp::Mul, _, Expr::Int(1)) => l,
                (BinOp::Mul, Expr::Int(1), _) => r,
                (BinOp::Mul, _, Expr::Int(0)) | (BinOp::Mul, Expr::Int(0), _) => Expr::Int(0),
                (BinOp::Div, _, Expr::Int(1)) => l,
                // (x + a) + b → x + (a+b);  (x + a) - b → x + (a-b)
                (BinOp::Add | BinOp::Sub, Expr::Bin(inner_op, x, a), Expr::Int(b))
                    if matches!(inner_op, BinOp::Add | BinOp::Sub) =>
                {
                    if let Expr::Int(a) = &**a {
                        let a = if *inner_op == BinOp::Sub {
                            a.wrapping_neg()
                        } else {
                            *a
                        };
                        let b = if op == BinOp::Sub {
                            b.wrapping_neg()
                        } else {
                            *b
                        };
                        let ab = Expr::Int(a.wrapping_add(b));
                        return simplify(Expr::bin(BinOp::Add, (**x).clone(), ab));
                    }
                    Expr::bin(op, l, r)
                }
                _ => Expr::bin(op, l, r),
            }
        }
        Expr::Un(UnOp::Neg, x) => {
            let x = simplify(*x);
            if let Expr::Int(v) = x {
                Expr::Int(v.wrapping_neg())
            } else {
                Expr::Un(UnOp::Neg, Box::new(x))
            }
        }
        Expr::Un(op, x) => Expr::Un(op, Box::new(simplify(*x))),
        Expr::Ref(name, subs) => Expr::Ref(
            name,
            subs.into_iter()
                .map(|s| match s {
                    Subscript::Index(ix) => Subscript::Index(simplify(ix)),
                    Subscript::Range { lb, ub, st } => Subscript::Range {
                        lb: lb.map(simplify),
                        ub: ub.map(simplify),
                        st: st.map(simplify),
                    },
                })
                .collect(),
        ),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile_front;

    fn front(src: &str) -> AnalyzedProgram {
        compile_front(src).unwrap()
    }

    fn main_body(p: &AnalyzedProgram) -> &[Stmt] {
        &p.program.main().body
    }

    #[test]
    fn whole_array_assign_becomes_forall() {
        let p = front("PROGRAM T\nREAL A(8), B(8)\nA = B\nEND\n");
        match &main_body(&p)[0] {
            Stmt::Forall {
                indices,
                mask,
                body,
            } => {
                assert_eq!(indices.len(), 1);
                assert_eq!(indices[0].lb, Expr::Int(0));
                assert_eq!(indices[0].ub, Expr::Int(7));
                assert!(mask.is_none());
                match &body[0] {
                    Stmt::Assign { lhs, rhs } => {
                        let v = indices[0].var.clone();
                        assert_eq!(lhs.subs, vec![Subscript::Index(Expr::Var(v.clone()))]);
                        assert_eq!(
                            rhs,
                            &Expr::Ref("B".into(), vec![Subscript::Index(Expr::Var(v))])
                        );
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shifted_section_expansion() {
        // A(1:N-1) = B(2:N): rhs index = lhs var + 1 in 0-based space too.
        let p = front(
            "PROGRAM T\nINTEGER, PARAMETER :: N = 8\nREAL A(N), B(N)\nA(1:N-1) = B(2:N)\nEND\n",
        );
        match &main_body(&p)[0] {
            Stmt::Forall { indices, body, .. } => {
                assert_eq!(indices[0].lb, Expr::Int(0));
                assert_eq!(indices[0].ub, Expr::Int(6));
                match &body[0] {
                    Stmt::Assign { rhs, .. } => {
                        let v = indices[0].var.clone();
                        assert_eq!(
                            rhs,
                            &Expr::Ref(
                                "B".into(),
                                vec![Subscript::Index(Expr::bin(
                                    BinOp::Add,
                                    Expr::Var(v),
                                    Expr::Int(1)
                                ))]
                            )
                        );
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn canonical_forall_unchanged_by_rebasing() {
        let p = front(
            "PROGRAM T\nINTEGER, PARAMETER :: N = 8\nREAL A(N), B(N)\nFORALL (I=1:N) A(I) = B(I)\nEND\n",
        );
        match &main_body(&p)[0] {
            Stmt::Forall { indices, body, .. } => {
                assert_eq!(indices[0].lb, Expr::Int(0));
                assert_eq!(indices[0].ub, Expr::Int(7));
                match &body[0] {
                    Stmt::Assign { lhs, rhs } => {
                        assert_eq!(lhs.subs, vec![Subscript::Index(Expr::Var("I".into()))]);
                        assert_eq!(
                            rhs,
                            &Expr::Ref("B".into(), vec![Subscript::Index(Expr::Var("I".into()))])
                        );
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn forall_with_shift_keeps_offset() {
        let p = front(
            "PROGRAM T\nINTEGER, PARAMETER :: N = 8\nREAL A(N), B(N)\nFORALL (I=2:N-1) A(I) = B(I+1)\nEND\n",
        );
        match &main_body(&p)[0] {
            Stmt::Forall { indices, body, .. } => {
                assert_eq!(indices[0].lb, Expr::Int(1));
                assert_eq!(indices[0].ub, Expr::Int(6));
                match &body[0] {
                    Stmt::Assign { rhs, .. } => {
                        assert_eq!(
                            rhs,
                            &Expr::Ref(
                                "B".into(),
                                vec![Subscript::Index(Expr::bin(
                                    BinOp::Add,
                                    Expr::Var("I".into()),
                                    Expr::Int(1)
                                ))]
                            )
                        );
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn do_variable_subscript_shifted() {
        let p = front(
            "PROGRAM T\nINTEGER, PARAMETER :: N = 4\nREAL A(N)\nINTEGER K\nDO K = 1, N\nA(K) = 0.0\nEND DO\nEND\n",
        );
        match &main_body(&p)[0] {
            Stmt::Do { lb, ub, body, .. } => {
                // DO bounds stay 1-based (runtime value semantics).
                assert_eq!(lb, &Expr::Int(1));
                assert_eq!(ub, &Expr::Int(4));
                match &body[0] {
                    Stmt::Assign { lhs, .. } => {
                        // A(K) → A(K-1)
                        assert_eq!(
                            lhs.subs,
                            vec![Subscript::Index(Expr::bin(
                                BinOp::Add,
                                Expr::Var("K".into()),
                                Expr::Int(-1)
                            ))]
                        );
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn where_becomes_masked_forall() {
        let p = front("PROGRAM T\nREAL A(8), B(8)\nWHERE (A > 0.0) B = A\nEND\n");
        match &main_body(&p)[0] {
            Stmt::Forall { mask, .. } => {
                let m = mask.as_ref().expect("mask present");
                assert!(matches!(m, Expr::Bin(BinOp::Gt, _, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn elsewhere_negates_mask() {
        let p = front(
            "PROGRAM T\nREAL A(8), B(8)\nWHERE (A > 0.0)\nB = A\nELSEWHERE\nB = 0.0\nEND WHERE\nEND\n",
        );
        let body = main_body(&p);
        assert_eq!(body.len(), 2);
        match &body[1] {
            Stmt::Forall { mask, .. } => {
                assert!(matches!(mask.as_ref().unwrap(), Expr::Un(UnOp::Not, _)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn constant_element_assignment_shifted() {
        let p = front("PROGRAM T\nREAL A(8)\nA(3) = 1.0\nEND\n");
        match &main_body(&p)[0] {
            Stmt::Assign { lhs, .. } => {
                assert_eq!(lhs.subs, vec![Subscript::Index(Expr::Int(2))]);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn array_valued_intrinsic_stays_statement() {
        let p = front("PROGRAM T\nREAL A(8), B(8)\nB = CSHIFT(A, 1)\nEND\n");
        match &main_body(&p)[0] {
            Stmt::Assign { lhs, rhs } => {
                assert!(lhs.subs.is_empty());
                assert!(matches!(rhs, Expr::Ref(n, _) if n == "CSHIFT"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn scalar_reduction_stays_scalar() {
        let p = front("PROGRAM T\nREAL A(8), S\nS = SUM(A)\nEND\n");
        assert!(matches!(&main_body(&p)[0], Stmt::Assign { lhs, .. } if lhs.name == "S"));
    }

    #[test]
    fn two_d_array_op() {
        let p = front(
            "PROGRAM T\nINTEGER, PARAMETER :: N = 4\nREAL A(N,N), B(N,N)\nA = B + 1.0\nEND\n",
        );
        match &main_body(&p)[0] {
            Stmt::Forall { indices, .. } => assert_eq!(indices.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn simplify_affine_chains() {
        let e = Expr::bin(
            BinOp::Sub,
            Expr::bin(BinOp::Add, Expr::Var("I".into()), Expr::Int(3)),
            Expr::Int(3),
        );
        assert_eq!(simplify(e), Expr::Var("I".into()));
        let e2 = Expr::bin(BinOp::Mul, Expr::Int(1), Expr::Var("X".into()));
        assert_eq!(simplify(e2), Expr::Var("X".into()));
    }

    #[test]
    fn vector_subscript_expansion() {
        // A(V(1:N)) = B(1:N): vector subscript V maps elementwise.
        let p = front(
            "PROGRAM T\nINTEGER, PARAMETER :: N = 4\nREAL A(N), B(N)\nINTEGER V(N)\nA(1:N) = B(V(1:N))\nEND\n",
        );
        match &main_body(&p)[0] {
            Stmt::Forall { indices, body, .. } => {
                let v = indices[0].var.clone();
                match &body[0] {
                    Stmt::Assign { rhs, .. } => {
                        // B(V(v) - 1) in 0-based space: V holds 1-based values.
                        let expect = Expr::Ref(
                            "B".into(),
                            vec![Subscript::Index(Expr::bin(
                                BinOp::Add,
                                Expr::Ref("V".into(), vec![Subscript::Index(Expr::Var(v))]),
                                Expr::Int(-1),
                            ))],
                        );
                        assert_eq!(rhs, &expect);
                    }
                    other => panic!("{other:?}"),
                }
            }
            other => panic!("{other:?}"),
        }
    }
}
