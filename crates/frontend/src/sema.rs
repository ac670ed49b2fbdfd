//! Semantic analysis: PARAMETER evaluation, symbol tables, directive
//! resolution, shape/conformance checks and intrinsic classification.
//!
//! The analyzed form is what the compiler proper consumes. Alignment
//! functions are converted to the 0-based convention here: a source-level
//! `ALIGN A(I) WITH T(a*I + b)` (1-based `I`, 1-based template) becomes
//! `f(i) = a*i + (a + b - 1)` over 0-based indices.

use std::collections::HashMap;
use std::fmt;

use crate::ast::*;

/// Semantic error.
#[derive(Debug, Clone, PartialEq)]
pub struct SemaError(pub String);

impl fmt::Display for SemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for SemaError {}

type SResult<T> = Result<T, SemaError>;

fn err<T>(msg: impl Into<String>) -> SResult<T> {
    Err(SemaError(msg.into()))
}

/// Everything known about one declared array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayInfo {
    /// Element type.
    pub ty: Ty,
    /// Constant extents (upper bounds; Fortran lower bound 1).
    pub extents: Vec<i64>,
}

/// Per-array-axis alignment in 0-based form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AxisAlignSpec {
    /// Axis maps to template dimension `tdim` through `f(i) = a*i + b`
    /// (0-based on both sides).
    Aligned {
        /// Template dimension index.
        tdim: usize,
        /// Stride `a`.
        stride: i64,
        /// Offset `b` (already 0-based-corrected).
        offset: i64,
    },
    /// `A(…, *, …)` — collapsed axis.
    Collapsed,
}

/// A resolved distribution keyword.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistKindSpec {
    /// `BLOCK`
    Block,
    /// `CYCLIC`
    Cyclic,
    /// `CYCLIC(K)` with constant `K`.
    BlockCyclic(i64),
    /// `*`
    Star,
}

/// The complete resolved mapping of one distributed array.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayMapping {
    /// Template name.
    pub template: String,
    /// Template extents.
    pub template_extents: Vec<i64>,
    /// One entry per array dimension.
    pub axes: Vec<AxisAlignSpec>,
    /// Template dims that replicate the array (`T(I, *)` on the template
    /// side with no matching dummy).
    pub replicated_tdims: Vec<usize>,
    /// Distribution keyword per template dimension.
    pub dist_kinds: Vec<DistKindSpec>,
}

/// Symbol and mapping information for one program unit.
#[derive(Debug, Clone, Default)]
pub struct UnitInfo {
    /// Unit name.
    pub name: String,
    /// Evaluated PARAMETER constants.
    pub params: HashMap<String, i64>,
    /// Scalar variables.
    pub scalars: HashMap<String, Ty>,
    /// Arrays.
    pub arrays: HashMap<String, ArrayInfo>,
    /// Logical grid shape from `PROCESSORS` (empty if none declared).
    pub grid_shape: Vec<i64>,
    /// Resolved mappings of distributed arrays.
    pub mappings: HashMap<String, ArrayMapping>,
}

/// An analyzed (and, after [`mod@crate::normalize`], normalized) program.
#[derive(Debug, Clone)]
pub struct AnalyzedProgram {
    /// The (rewritten) syntax tree.
    pub program: Program,
    /// Per-unit info, parallel to `program.units`.
    pub units: Vec<UnitInfo>,
}

impl AnalyzedProgram {
    /// Info for the main unit.
    pub fn main_info(&self) -> &UnitInfo {
        let idx = self
            .program
            .units
            .iter()
            .position(|u| !u.is_subroutine)
            .expect("main unit");
        &self.units[idx]
    }

    /// Info for a unit by name.
    pub fn unit_info(&self, name: &str) -> Option<&UnitInfo> {
        self.units.iter().find(|u| u.name == name)
    }
}

/// The Fortran intrinsics we accept, parallel (Table 3) and elemental.
pub const PARALLEL_INTRINSICS: &[&str] = &[
    "SUM",
    "PRODUCT",
    "MAXVAL",
    "MINVAL",
    "COUNT",
    "ALL",
    "ANY",
    "MAXLOC",
    "MINLOC",
    "DOTPRODUCT",
    "DOT_PRODUCT",
    "CSHIFT",
    "EOSHIFT",
    "SPREAD",
    "PACK",
    "UNPACK",
    "RESHAPE",
    "TRANSPOSE",
    "MATMUL",
];

/// Elemental (scalar-applicable) intrinsics.
pub const ELEMENTAL_INTRINSICS: &[&str] = &[
    "ABS", "SQRT", "EXP", "LOG", "SIN", "COS", "TAN", "MOD", "MIN", "MAX", "REAL", "INT", "FLOAT",
    "DBLE", "NINT", "SIGN",
];

/// `true` when `name` is a recognized intrinsic function.
pub fn is_intrinsic(name: &str) -> bool {
    PARALLEL_INTRINSICS.contains(&name) || ELEMENTAL_INTRINSICS.contains(&name)
}

/// Analyze a parsed program.
pub fn analyze(program: &Program) -> SResult<AnalyzedProgram> {
    let mut units = Vec::with_capacity(program.units.len());
    for unit in &program.units {
        units.push(analyze_unit(unit)?);
    }
    // Check CALL targets exist with matching arity.
    for unit in &program.units {
        check_calls(&unit.body, program)?;
    }
    Ok(AnalyzedProgram {
        program: program.clone(),
        units,
    })
}

fn check_calls(body: &[Stmt], program: &Program) -> SResult<()> {
    for stmt in body {
        match stmt {
            Stmt::Call { name, args } => match program.subroutine(name) {
                None => return err(format!("CALL to unknown subroutine `{name}`")),
                Some(sub) => {
                    if sub.args.len() != args.len() {
                        return err(format!(
                            "CALL `{name}` passes {} args, subroutine takes {}",
                            args.len(),
                            sub.args.len()
                        ));
                    }
                }
            },
            Stmt::Do { body, .. } | Stmt::Forall { body, .. } => check_calls(body, program)?,
            Stmt::If { then, else_, .. } => {
                check_calls(then, program)?;
                check_calls(else_, program)?;
            }
            Stmt::Where {
                then, elsewhere, ..
            } => {
                check_calls(then, program)?;
                check_calls(elsewhere, program)?;
            }
            _ => {}
        }
    }
    Ok(())
}

/// Most dimensions an array may have (Fortran 90 R512). The engine
/// decodes subscripts into fixed buffers sized from it.
pub const MAX_RANK: usize = 7;

fn analyze_unit(unit: &Unit) -> SResult<UnitInfo> {
    let mut info = UnitInfo {
        name: unit.name.clone(),
        ..Default::default()
    };
    // Pass 1: PARAMETER constants (in declaration order).
    for d in &unit.decls {
        if let Some(p) = &d.param {
            let v = const_eval(p, &info.params)?;
            info.params.insert(d.name.clone(), v);
        }
    }
    // Pass 2: variables.
    for d in &unit.decls {
        if d.param.is_some() {
            continue;
        }
        if d.dims.is_empty() {
            info.scalars.insert(d.name.clone(), d.ty);
        } else {
            if d.dims.len() > MAX_RANK {
                return err(format!(
                    "array `{}` has rank {}; the maximum is {MAX_RANK} (Fortran 90 R512)",
                    d.name,
                    d.dims.len()
                ));
            }
            let extents: SResult<Vec<i64>> = d
                .dims
                .iter()
                .map(|e| {
                    let v = const_eval(e, &info.params)?;
                    if v <= 0 {
                        return err(format!("array `{}` has non-positive extent {v}", d.name));
                    }
                    Ok(v)
                })
                .collect();
            info.arrays.insert(
                d.name.clone(),
                ArrayInfo {
                    ty: d.ty,
                    extents: extents?,
                },
            );
        }
    }
    // Subroutine dummies without declarations are scalars of implicit type.
    for a in &unit.args {
        if !info.arrays.contains_key(a)
            && !info.scalars.contains_key(a)
            && !info.params.contains_key(a)
        {
            // Fortran implicit typing: I–N integer, else real.
            let ty = if a.starts_with(|c: char| ('I'..='N').contains(&c)) {
                Ty::Integer
            } else {
                Ty::Real
            };
            info.scalars.insert(a.clone(), ty);
        }
    }
    // Pass 3: directives.
    resolve_directives(unit, &mut info)?;
    // Pass 4: reference checks over the body.
    check_stmts(&unit.body, &info, &mut Vec::new())?;
    Ok(info)
}

fn resolve_directives(unit: &Unit, info: &mut UnitInfo) -> SResult<()> {
    let dirs = &unit.directives;
    if let Some((_, shape)) = &dirs.processors {
        let s: SResult<Vec<i64>> = shape.iter().map(|e| const_eval(e, &info.params)).collect();
        info.grid_shape = s?;
        if info.grid_shape.iter().any(|&e| e <= 0) {
            return err("PROCESSORS extents must be positive");
        }
    }
    let mut templates: HashMap<String, Vec<i64>> = HashMap::new();
    for (name, shape) in &dirs.templates {
        let s: SResult<Vec<i64>> = shape.iter().map(|e| const_eval(e, &info.params)).collect();
        templates.insert(name.clone(), s?);
    }
    // ALIGN directives; arrays distributed without an explicit ALIGN get
    // identity alignment to a template named after themselves.
    let mut aligned: HashMap<String, ArrayMapping> = HashMap::new();
    for al in &dirs.aligns {
        let arr = info
            .arrays
            .get(&al.array)
            .ok_or_else(|| SemaError(format!("ALIGN of undeclared array `{}`", al.array)))?;
        let text = templates
            .get(&al.template)
            .ok_or_else(|| SemaError(format!("ALIGN with undeclared template `{}`", al.template)))?
            .clone();
        // Array-side dummies: default is one dummy per dimension.
        let dummies: Vec<Option<String>> = if al.array_dummies.is_empty() {
            (0..arr.extents.len())
                .map(|d| Some(format!("__D{d}")))
                .collect()
        } else {
            al.array_dummies.clone()
        };
        if dummies.len() != arr.extents.len() {
            return err(format!(
                "ALIGN lists {} dummies for rank-{} array `{}`",
                dummies.len(),
                arr.extents.len(),
                al.array
            ));
        }
        // Template-side subscripts: default identity.
        let tsubs: Vec<Option<Expr>> = if al.template_subs.is_empty() {
            dummies
                .iter()
                .map(|d| d.as_ref().map(|n| Expr::Var(n.clone())))
                .collect()
        } else {
            al.template_subs.clone()
        };
        if tsubs.len() != text.len() {
            return err(format!(
                "ALIGN WITH {} lists {} subscripts for rank-{} template",
                al.template,
                tsubs.len(),
                text.len()
            ));
        }
        let mut axes = vec![AxisAlignSpec::Collapsed; dummies.len()];
        let mut replicated = Vec::new();
        for (tdim, ts) in tsubs.iter().enumerate() {
            match ts {
                None => replicated.push(tdim),
                Some(expr) => {
                    // Which dummy does it use?
                    let mut used: Option<usize> = None;
                    for (d, dn) in dummies.iter().enumerate() {
                        if let Some(dn) = dn {
                            if expr_uses_var(expr, dn) {
                                if used.is_some() {
                                    return err(format!(
                                        "ALIGN subscript on template dim {tdim} uses two dummies"
                                    ));
                                }
                                used = Some(d);
                            }
                        }
                    }
                    let d = used.ok_or_else(|| {
                        SemaError(format!(
                            "ALIGN template subscript {tdim} of `{}` uses no dummy",
                            al.array
                        ))
                    })?;
                    let dn = dummies[d].as_ref().unwrap();
                    let (a, b) = affine_of(expr, dn, &info.params).ok_or_else(|| {
                        SemaError(format!(
                            "ALIGN subscript on template dim {tdim} is not affine in `{dn}`"
                        ))
                    })?;
                    if a == 0 {
                        return err("ALIGN subscript must depend on its dummy");
                    }
                    // 1-based → 0-based: t-1 = a*(i-1+1) + b - 1 ⇒
                    // offset' = a + b - 1 over 0-based i.
                    axes[d] = AxisAlignSpec::Aligned {
                        tdim,
                        stride: a,
                        offset: a + b - 1,
                    };
                }
            }
        }
        aligned.insert(
            al.array.clone(),
            ArrayMapping {
                template: al.template.clone(),
                template_extents: text,
                axes,
                replicated_tdims: replicated,
                dist_kinds: vec![],
            },
        );
    }
    // DISTRIBUTE directives.
    for dist in &dirs.distributes {
        let kinds: SResult<Vec<DistKindSpec>> = dist
            .kinds
            .iter()
            .map(|k| {
                Ok(match k {
                    DistSpec::Block => DistKindSpec::Block,
                    DistSpec::Cyclic => DistKindSpec::Cyclic,
                    DistSpec::BlockCyclic(e) => {
                        DistKindSpec::BlockCyclic(const_eval(e, &info.params)?)
                    }
                    DistSpec::Star => DistKindSpec::Star,
                })
            })
            .collect();
        let kinds = kinds?;
        if let Some(text) = templates.get(&dist.target) {
            // Distributing a template: applies to every array aligned to it.
            if kinds.len() != text.len() {
                return err(format!(
                    "DISTRIBUTE {} lists {} dims, template has {}",
                    dist.target,
                    kinds.len(),
                    text.len()
                ));
            }
            for m in aligned.values_mut() {
                if m.template == dist.target {
                    m.dist_kinds = kinds.clone();
                }
            }
        } else if let Some(arr) = info.arrays.get(&dist.target) {
            // Shorthand: DISTRIBUTE A(BLOCK, *) — identity template.
            if kinds.len() != arr.extents.len() {
                return err(format!(
                    "DISTRIBUTE {} lists {} dims, array has rank {}",
                    dist.target,
                    kinds.len(),
                    arr.extents.len()
                ));
            }
            let mapping = ArrayMapping {
                template: format!("__T_{}", dist.target),
                template_extents: arr.extents.clone(),
                axes: (0..arr.extents.len())
                    .map(|d| AxisAlignSpec::Aligned {
                        tdim: d,
                        stride: 1,
                        offset: 0,
                    })
                    .collect(),
                replicated_tdims: vec![],
                dist_kinds: kinds,
            };
            aligned.insert(dist.target.clone(), mapping);
        } else {
            return err(format!(
                "DISTRIBUTE target `{}` is neither a template nor an array",
                dist.target
            ));
        }
    }
    // Arrays aligned to a template that was never distributed default to
    // all-BLOCK.
    for m in aligned.values_mut() {
        if m.dist_kinds.is_empty() {
            m.dist_kinds = vec![DistKindSpec::Block; m.template_extents.len()];
        }
    }
    info.mappings = aligned;
    Ok(())
}

// ---- expression utilities ---------------------------------------------

/// Evaluate a constant integer expression over PARAMETER bindings.
/// INTEGER arithmetic wraps, as at run time (`f90d_vm::ops`).
pub fn const_eval(e: &Expr, params: &HashMap<String, i64>) -> SResult<i64> {
    match e {
        Expr::Int(v) => Ok(*v),
        Expr::Var(n) => params
            .get(n)
            .copied()
            .ok_or_else(|| SemaError(format!("`{n}` is not a constant"))),
        Expr::Un(UnOp::Neg, x) => Ok(const_eval(x, params)?.wrapping_neg()),
        Expr::Bin(op, l, r) => {
            let (a, b) = (const_eval(l, params)?, const_eval(r, params)?);
            Ok(match op {
                BinOp::Add => a.wrapping_add(b),
                BinOp::Sub => a.wrapping_sub(b),
                BinOp::Mul => a.wrapping_mul(b),
                BinOp::Div => {
                    if b == 0 {
                        return err("constant division by zero");
                    }
                    // `i64::MIN / -1` wraps, as at run time
                    // (`f90d_vm::ops`), instead of aborting the compile.
                    a.wrapping_div(b)
                }
                BinOp::Pow => {
                    if b < 0 {
                        return err("negative constant exponent");
                    }
                    // Wraps, as at run time (`f90d_vm::ops::int_pow`).
                    a.wrapping_pow(b as u32)
                }
                _ => return err("non-arithmetic constant expression"),
            })
        }
        other => err(format!("non-constant expression {other:?}")),
    }
}

/// Does `e` mention variable `v`?
pub fn expr_uses_var(e: &Expr, v: &str) -> bool {
    match e {
        Expr::Var(n) => n == v,
        Expr::Bin(_, l, r) => expr_uses_var(l, v) || expr_uses_var(r, v),
        Expr::Un(_, x) => expr_uses_var(x, v),
        Expr::Ref(_, subs) => subs.iter().any(|s| match s {
            Subscript::Index(e) => expr_uses_var(e, v),
            Subscript::Range { lb, ub, st } => [lb, ub, st]
                .iter()
                .any(|o| o.as_ref().is_some_and(|e| expr_uses_var(e, v))),
        }),
        _ => false,
    }
}

/// Extract `(a, b)` such that `e = a*var + b`, when `e` is affine in
/// `var` with all other terms constant under `params` (in wrapping
/// INTEGER arithmetic, as at run time).
pub fn affine_of(e: &Expr, var: &str, params: &HashMap<String, i64>) -> Option<(i64, i64)> {
    match e {
        Expr::Int(v) => Some((0, *v)),
        Expr::Var(n) if n == var => Some((1, 0)),
        Expr::Var(n) => params.get(n).map(|&v| (0, v)),
        Expr::Un(UnOp::Neg, x) => {
            let (a, b) = affine_of(x, var, params)?;
            Some((a.wrapping_neg(), b.wrapping_neg()))
        }
        Expr::Bin(BinOp::Add, l, r) => {
            let (a1, b1) = affine_of(l, var, params)?;
            let (a2, b2) = affine_of(r, var, params)?;
            Some((a1.wrapping_add(a2), b1.wrapping_add(b2)))
        }
        Expr::Bin(BinOp::Sub, l, r) => {
            let (a1, b1) = affine_of(l, var, params)?;
            let (a2, b2) = affine_of(r, var, params)?;
            Some((a1.wrapping_sub(a2), b1.wrapping_sub(b2)))
        }
        Expr::Bin(BinOp::Mul, l, r) => {
            let (a1, b1) = affine_of(l, var, params)?;
            let (a2, b2) = affine_of(r, var, params)?;
            if a1 == 0 {
                Some((b1.wrapping_mul(a2), b1.wrapping_mul(b2)))
            } else if a2 == 0 {
                Some((a1.wrapping_mul(b2), b1.wrapping_mul(b2)))
            } else {
                None // quadratic
            }
        }
        _ => None,
    }
}

// ---- reference checking -------------------------------------------------

fn check_stmts(stmts: &[Stmt], info: &UnitInfo, loop_vars: &mut Vec<String>) -> SResult<()> {
    for s in stmts {
        match s {
            Stmt::Assign { lhs, rhs } => {
                check_lhs(lhs, info, loop_vars)?;
                check_expr(rhs, info, loop_vars)?;
            }
            Stmt::Forall {
                indices,
                mask,
                body,
            } => {
                for ix in indices {
                    check_expr(&ix.lb, info, loop_vars)?;
                    check_expr(&ix.ub, info, loop_vars)?;
                    check_expr(&ix.st, info, loop_vars)?;
                }
                let mut inner = loop_vars.clone();
                inner.extend(indices.iter().map(|i| i.var.clone()));
                if let Some(mk) = mask {
                    check_expr(mk, info, &inner)?;
                }
                check_stmts(body, info, &mut inner)?;
            }
            Stmt::Where {
                mask,
                then,
                elsewhere,
            } => {
                check_expr(mask, info, loop_vars)?;
                check_stmts(then, info, loop_vars)?;
                check_stmts(elsewhere, info, loop_vars)?;
            }
            Stmt::Do {
                var,
                lb,
                ub,
                st,
                body,
            } => {
                check_expr(lb, info, loop_vars)?;
                check_expr(ub, info, loop_vars)?;
                check_expr(st, info, loop_vars)?;
                if !info.scalars.contains_key(var) && !info.params.contains_key(var) {
                    // DO variables may be implicitly declared integers.
                }
                let mut inner = loop_vars.clone();
                inner.push(var.clone());
                check_stmts(body, info, &mut inner)?;
            }
            Stmt::If { cond, then, else_ } => {
                check_expr(cond, info, loop_vars)?;
                check_stmts(then, info, loop_vars)?;
                check_stmts(else_, info, loop_vars)?;
            }
            Stmt::Call { args, .. } => {
                for a in args {
                    check_expr(a, info, loop_vars)?;
                }
            }
            Stmt::Print { items } => {
                for e in items {
                    check_expr(e, info, loop_vars)?;
                }
            }
            Stmt::Redistribute { array, dist } => {
                let arr = info
                    .arrays
                    .get(array)
                    .ok_or_else(|| SemaError(format!("REDISTRIBUTE of undeclared `{array}`")))?;
                if dist.len() != arr.extents.len() {
                    return err(format!(
                        "REDISTRIBUTE {array} lists {} dims for rank-{} array",
                        dist.len(),
                        arr.extents.len()
                    ));
                }
            }
        }
    }
    Ok(())
}

fn check_lhs(lhs: &LhsRef, info: &UnitInfo, loop_vars: &[String]) -> SResult<()> {
    if let Some(arr) = info.arrays.get(&lhs.name) {
        if !lhs.subs.is_empty() && lhs.subs.len() != arr.extents.len() {
            return err(format!(
                "`{}` has rank {}, subscripted with {}",
                lhs.name,
                arr.extents.len(),
                lhs.subs.len()
            ));
        }
        for s in &lhs.subs {
            match s {
                Subscript::Index(e) => check_expr(e, info, loop_vars)?,
                Subscript::Range { lb, ub, st } => {
                    for o in [lb, ub, st].into_iter().flatten() {
                        check_expr(o, info, loop_vars)?;
                    }
                }
            }
        }
        Ok(())
    } else if info.scalars.contains_key(&lhs.name) {
        if !lhs.subs.is_empty() {
            return err(format!("scalar `{}` subscripted", lhs.name));
        }
        Ok(())
    } else if loop_vars.contains(&lhs.name) {
        err(format!("assignment to loop index `{}`", lhs.name))
    } else {
        err(format!("assignment to undeclared `{}`", lhs.name))
    }
}

fn check_expr(e: &Expr, info: &UnitInfo, loop_vars: &[String]) -> SResult<()> {
    match e {
        Expr::Int(_) | Expr::Real(_) | Expr::Logical(_) | Expr::Str(_) => Ok(()),
        Expr::Var(n) => {
            if info.scalars.contains_key(n)
                || info.params.contains_key(n)
                || info.arrays.contains_key(n)
                || loop_vars.contains(&n.to_string())
            {
                Ok(())
            } else {
                err(format!("undeclared variable `{n}`"))
            }
        }
        Expr::Ref(name, subs) => {
            if let Some(arr) = info.arrays.get(name) {
                if subs.len() != arr.extents.len() {
                    return err(format!(
                        "`{name}` has rank {}, subscripted with {}",
                        arr.extents.len(),
                        subs.len()
                    ));
                }
            } else if !is_intrinsic(name) {
                return err(format!("`{name}` is neither an array nor an intrinsic"));
            }
            for s in subs {
                match s {
                    Subscript::Index(e) => check_expr(e, info, loop_vars)?,
                    Subscript::Range { lb, ub, st } => {
                        for o in [lb, ub, st].into_iter().flatten() {
                            check_expr(o, info, loop_vars)?;
                        }
                    }
                }
            }
            Ok(())
        }
        Expr::Bin(_, l, r) => {
            check_expr(l, info, loop_vars)?;
            check_expr(r, info, loop_vars)
        }
        Expr::Un(_, x) => check_expr(x, info, loop_vars),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parser::parse;

    fn analyze_src(src: &str) -> SResult<AnalyzedProgram> {
        analyze(&parse(&lex(src).unwrap()).unwrap())
    }

    #[test]
    fn params_and_arrays() {
        let a = analyze_src(
            "PROGRAM T\nINTEGER, PARAMETER :: N = 4, M = N*2\nREAL A(N, M)\nINTEGER V(M)\nEND\n",
        )
        .unwrap();
        let info = a.main_info();
        assert_eq!(info.params["N"], 4);
        assert_eq!(info.params["M"], 8);
        assert_eq!(info.arrays["A"].extents, vec![4, 8]);
        assert_eq!(info.arrays["V"].ty, Ty::Integer);
    }

    #[test]
    fn directive_resolution_full() {
        let a = analyze_src(
            "PROGRAM T\n\
             INTEGER, PARAMETER :: N = 8\n\
             REAL A(N, N)\n\
             C$ PROCESSORS P(2, 2)\n\
             C$ TEMPLATE TT(N, N)\n\
             C$ ALIGN A(I, J) WITH TT(I, J)\n\
             C$ DISTRIBUTE TT(BLOCK, CYCLIC) ONTO P\n\
             END\n",
        )
        .unwrap();
        let info = a.main_info();
        assert_eq!(info.grid_shape, vec![2, 2]);
        let m = &info.mappings["A"];
        assert_eq!(m.template, "TT");
        assert_eq!(m.template_extents, vec![8, 8]);
        assert_eq!(
            m.axes[0],
            AxisAlignSpec::Aligned {
                tdim: 0,
                stride: 1,
                offset: 0
            }
        );
        assert_eq!(
            m.dist_kinds,
            vec![DistKindSpec::Block, DistKindSpec::Cyclic]
        );
    }

    #[test]
    fn align_offset_zero_based_correction() {
        // ALIGN A(I) WITH T(I+1): 1-based offset 1 → 0-based offset 1.
        // f(i0) = i0 + (a + b - 1) = i0 + 1 with a=1, b=1.
        let a = analyze_src(
            "PROGRAM T\nINTEGER, PARAMETER :: N = 8\nREAL A(N)\n\
             C$ TEMPLATE TT(9)\nC$ ALIGN A(I) WITH TT(I+1)\nC$ DISTRIBUTE TT(BLOCK)\nEND\n",
        )
        .unwrap();
        let m = &a.main_info().mappings["A"];
        assert_eq!(
            m.axes[0],
            AxisAlignSpec::Aligned {
                tdim: 0,
                stride: 1,
                offset: 1
            }
        );
    }

    #[test]
    fn align_stride_two() {
        // ALIGN A(I) WITH T(2*I): a=2, b=0 → 0-based offset a+b-1 = 1.
        let a = analyze_src(
            "PROGRAM T\nREAL A(4)\nC$ TEMPLATE TT(8)\nC$ ALIGN A(I) WITH TT(2*I)\nC$ DISTRIBUTE TT(CYCLIC)\nEND\n",
        )
        .unwrap();
        let m = &a.main_info().mappings["A"];
        assert_eq!(
            m.axes[0],
            AxisAlignSpec::Aligned {
                tdim: 0,
                stride: 2,
                offset: 1
            }
        );
    }

    #[test]
    fn replication_and_collapse() {
        let a = analyze_src(
            "PROGRAM T\nREAL A(8)\nC$ TEMPLATE TT(8, 4)\nC$ ALIGN A(I) WITH TT(I, *)\nC$ DISTRIBUTE TT(BLOCK, BLOCK)\nEND\n",
        )
        .unwrap();
        let m = &a.main_info().mappings["A"];
        assert_eq!(m.replicated_tdims, vec![1]);
        // collapse on the array side
        let b = analyze_src(
            "PROGRAM T\nREAL B(8, 3)\nC$ TEMPLATE TT(8)\nC$ ALIGN B(I, *) WITH TT(I)\nC$ DISTRIBUTE TT(BLOCK)\nEND\n",
        )
        .unwrap();
        let mb = &b.main_info().mappings["B"];
        assert_eq!(mb.axes[1], AxisAlignSpec::Collapsed);
    }

    #[test]
    fn distribute_array_shorthand() {
        let a = analyze_src(
            "PROGRAM T\nREAL A(10, 10)\nC$ PROCESSORS P(4)\nC$ DISTRIBUTE A(*, BLOCK)\nEND\n",
        )
        .unwrap();
        let m = &a.main_info().mappings["A"];
        assert_eq!(m.dist_kinds, vec![DistKindSpec::Star, DistKindSpec::Block]);
    }

    #[test]
    fn cyclic_k_constant() {
        let a = analyze_src(
            "PROGRAM T\nINTEGER, PARAMETER :: K = 3\nREAL A(12)\nC$ DISTRIBUTE A(CYCLIC(K))\nEND\n",
        )
        .unwrap();
        assert_eq!(
            a.main_info().mappings["A"].dist_kinds,
            vec![DistKindSpec::BlockCyclic(3)]
        );
    }

    #[test]
    fn errors_detected() {
        assert!(analyze_src("PROGRAM T\nX = 1\nEND\n").is_err()); // undeclared X
        assert!(analyze_src("PROGRAM T\nREAL A(4)\nA(1,2) = 0.0\nEND\n").is_err()); // rank
        assert!(
            analyze_src("PROGRAM T\nREAL A(4)\nC$ ALIGN A(I) WITH TT(I)\nEND\n").is_err(),
            "unknown template"
        );
        assert!(analyze_src("PROGRAM T\nCALL NOPE()\nEND\n").is_err()); // unknown sub
                                                                        // Rank 7 is the most an array may have.
        let ranked = |r: usize| format!("PROGRAM T\nREAL A({})\nEND\n", vec!["2"; r].join(","));
        assert_eq!(
            analyze_src(&ranked(7)).unwrap().main_info().arrays["A"]
                .extents
                .len(),
            7
        );
        for r in [8, 9] {
            assert_eq!(
                analyze_src(&ranked(r)).unwrap_err().0,
                format!("array `A` has rank {r}; the maximum is 7 (Fortran 90 R512)")
            );
        }
        assert!(analyze_src("PROGRAM T\nREAL A(4)\nB = UNKNOWNFN(A)\nEND\n").is_err());
    }

    #[test]
    fn intrinsics_accepted() {
        let a = analyze_src("PROGRAM T\nREAL A(4), S\nS = SUM(A) + ABS(MINVAL(A))\nEND\n");
        assert!(a.is_ok(), "{a:?}");
    }

    #[test]
    fn forall_index_visible_in_body() {
        let a = analyze_src("PROGRAM T\nREAL A(4)\nFORALL (I=1:4) A(I) = REAL(I)\nEND\n");
        assert!(a.is_ok(), "{a:?}");
    }

    #[test]
    fn call_arity_checked() {
        let bad = analyze_src(
            "PROGRAM T\nREAL A(4)\nCALL F(A)\nEND\nSUBROUTINE F(X, Y)\nREAL X(4), Y(4)\nEND\n",
        );
        assert!(bad.is_err());
    }

    #[test]
    fn affine_extraction() {
        let params = HashMap::from([("C".to_string(), 5i64)]);
        let e = Expr::bin(
            BinOp::Add,
            Expr::bin(BinOp::Mul, Expr::Int(3), Expr::Var("I".into())),
            Expr::Var("C".into()),
        );
        assert_eq!(affine_of(&e, "I", &params), Some((3, 5)));
        let q = Expr::bin(BinOp::Mul, Expr::Var("I".into()), Expr::Var("I".into()));
        assert_eq!(affine_of(&q, "I", &params), None);
    }
}
