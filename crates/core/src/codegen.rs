//! Lowering the normalized AST to the SPMD IR: data partitioning
//! (paper §3), computation partitioning (§4), communication detection and
//! insertion (§5), subroutine inlining with boundary redistribution (§6).

use std::collections::HashMap;

use f90d_distrib::{
    AlignExpr, Alignment, AxisAlign, Dad, DadBuilder, DistKind, ProcGrid, Template,
};
use f90d_frontend::ast::{self, BinOp, Expr, LhsRef, Stmt, Subscript, Ty};
use f90d_frontend::sema::{
    affine_of, const_eval, AnalyzedProgram, ArrayMapping, AxisAlignSpec, DistKindSpec, UnitInfo,
};
use f90d_machine::{ElemType, Value};

use crate::detect::{
    classify_pair, classify_subscript, unstructured_of, DimAlign, DimTag, SubPattern, UnstructKind,
};
use crate::ir::*;
use crate::options::CompileOptions;

/// Compilation error.
#[derive(Debug, Clone)]
pub struct CodegenError(pub String);

impl std::fmt::Display for CodegenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for CodegenError {}

type CResult<T> = Result<T, CodegenError>;

fn cerr<T>(msg: impl Into<String>) -> CResult<T> {
    Err(CodegenError(msg.into()))
}

/// Validate a const-evaluated `CYCLIC(K)` block size. `DimDist::new`
/// asserts `K > 0`, but by the time a descriptor is built (possibly at
/// run time, for `REDISTRIBUTE`) the surface syntax is gone — so both
/// codegen sites that accept a `CYCLIC(K)` spec (the `DISTRIBUTE`
/// directive in `build_dad` and the `REDISTRIBUTE` statement) must turn
/// a non-positive `K` into a [`CodegenError`] here instead of panicking
/// deep inside `f90d_distrib`.
fn cyclic_block_kind(array: &str, k: i64) -> CResult<DistKind> {
    if k <= 0 {
        return cerr(format!("{array}: CYCLIC({k}) block size must be positive"));
    }
    Ok(DistKind::BlockCyclic(k))
}

fn elem_type(ty: Ty) -> ElemType {
    match ty {
        Ty::Integer => ElemType::Int,
        Ty::Real => ElemType::Real,
        Ty::Logical => ElemType::Bool,
        Ty::Complex => ElemType::Complex,
    }
}

/// Lower an analyzed+normalized program.
pub fn lower(prog: &AnalyzedProgram, opts: &CompileOptions) -> CResult<SProgram> {
    let main_idx = prog
        .program
        .units
        .iter()
        .position(|u| !u.is_subroutine)
        .ok_or_else(|| CodegenError("no main program".into()))?;
    let main_info = &prog.units[main_idx];
    let grid_shape = opts
        .grid_shape
        .clone()
        .or_else(|| {
            if main_info.grid_shape.is_empty() {
                None
            } else {
                Some(main_info.grid_shape.clone())
            }
        })
        .unwrap_or_else(|| vec![1]);
    let grid = ProcGrid::new(&grid_shape);

    let mut cg = Codegen {
        prog,
        opts,
        grid,
        arrays: Vec::new(),
        scalars: Vec::new(),
        tmp_counter: 0,
        call_depth: 0,
        block_loop: None,
    };
    // Declare main-unit arrays and scalars.
    let name_map = cg.declare_unit(main_info, "")?;
    let stmts = cg.lower_stmts(&prog.program.units[main_idx].body, main_info, &name_map, "")?;
    // Overlap areas: size every array's ghost width by the widest
    // compile-time shift the detector emitted for it (Gerndt-style
    // overlap analysis over the generated communication).
    assign_ghosts(&stmts, &mut cg.arrays);
    Ok(SProgram {
        grid_shape,
        arrays: cg.arrays,
        scalars: cg.scalars,
        stmts,
    })
}

struct Codegen<'a> {
    prog: &'a AnalyzedProgram,
    opts: &'a CompileOptions,
    grid: ProcGrid,
    arrays: Vec<ArrayDecl>,
    scalars: Vec<(String, ElemType)>,
    tmp_counter: usize,
    call_depth: usize,
    /// The FORALL being lowered, while its iterations are
    /// block-partitioned rather than owner-computes.
    block_loop: Option<BlockLoop>,
}

/// A FORALL whose first variable is block-partitioned
/// (`Partition::BlockIter`): a scatter's.
struct BlockLoop {
    var: String,
    /// `(lb, st, count)`: the variable takes `lb + k*st` for `k` in
    /// `0..count`, when the bounds are compile-time constants.
    range: Option<(i64, i64, i64)>,
    /// Concatenations of the distributed arrays its inspectors read
    /// (index vectors, the mask) where a rank may not own what it reads.
    concats: Vec<CommStmt>,
}

/// Name-resolution context: source name → array id, plus a prefix for
/// scalars of inlined subroutines.
type NameMap = HashMap<String, ArrId>;

impl<'a> Codegen<'a> {
    // ---- declarations ----------------------------------------------------

    fn declare_unit(&mut self, info: &UnitInfo, prefix: &str) -> CResult<NameMap> {
        let mut map = NameMap::new();
        let mut names: Vec<&String> = info.arrays.keys().collect();
        names.sort(); // deterministic ids
        for name in names {
            let arr = &info.arrays[name];
            let dad = self.build_dad(
                &format!("{prefix}{name}"),
                &arr.extents,
                info.mappings.get(name),
            )?;
            let id = self.arrays.len();
            self.arrays.push(ArrayDecl {
                name: format!("{prefix}{name}"),
                ty: elem_type(arr.ty),
                dad,
                ghost: 0,
                is_temp: false,
            });
            map.insert(name.clone(), id);
        }
        let mut snames: Vec<&String> = info.scalars.keys().collect();
        snames.sort();
        for s in snames {
            self.scalars
                .push((format!("{prefix}{s}"), elem_type(info.scalars[s])));
        }
        Ok(map)
    }

    fn build_dad(
        &self,
        name: &str,
        extents: &[i64],
        mapping: Option<&ArrayMapping>,
    ) -> CResult<Dad> {
        let builder = match mapping {
            None => {
                // No directive: replicated (every node holds a copy).
                DadBuilder::new(name, extents)
                    .distribute(&vec![DistKind::Collapsed; extents.len()])
                    .grid(self.grid.clone())
            }
            Some(m) => {
                let template = Template::new(m.template.clone(), &m.template_extents);
                let axes: Vec<AxisAlign> = m
                    .axes
                    .iter()
                    .map(|a| match a {
                        AxisAlignSpec::Aligned {
                            tdim,
                            stride,
                            offset,
                        } => AxisAlign::Aligned {
                            template_dim: *tdim,
                            expr: AlignExpr::new(*stride, *offset),
                        },
                        AxisAlignSpec::Collapsed => AxisAlign::Collapsed,
                    })
                    .collect();
                let align = Alignment {
                    axes,
                    replicated_template_dims: m.replicated_tdims.clone(),
                };
                let kinds: Vec<DistKind> = m
                    .dist_kinds
                    .iter()
                    .map(|k| match k {
                        DistKindSpec::Block => Ok(DistKind::Block),
                        DistKindSpec::Cyclic => Ok(DistKind::Cyclic),
                        DistKindSpec::BlockCyclic(k) => cyclic_block_kind(name, *k),
                        DistKindSpec::Star => Ok(DistKind::Collapsed),
                    })
                    .collect::<CResult<_>>()?;
                DadBuilder::new(name, extents)
                    .template(template)
                    .align(align)
                    .distribute(&kinds)
                    .grid(self.grid.clone())
            }
        };
        builder.build().map_err(CodegenError)
    }

    fn fresh_tmp(&mut self, base: &str, ty: ElemType, dad: Dad) -> ArrId {
        self.tmp_counter += 1;
        let id = self.arrays.len();
        self.arrays.push(ArrayDecl {
            name: format!("__TMP{}_{base}", self.tmp_counter),
            ty,
            dad,
            ghost: 0,
            is_temp: true,
        });
        id
    }

    /// Slab temporary for fixed dimension `dim` of array `src`: the
    /// source DAD with that dimension removed and its grid axis marked
    /// replicated.
    fn slab_dad(&self, src: ArrId, dim: usize) -> Dad {
        let d = &self.arrays[src].dad;
        let mut dims = d.dims.clone();
        let removed = dims.remove(dim);
        let mut shape = d.shape.clone();
        shape.remove(dim);
        if shape.is_empty() {
            shape.push(1);
            dims.push(f90d_distrib::ArrayDimMap {
                extent: 1,
                align: AlignExpr::IDENTITY,
                dist: f90d_distrib::DimDist::new(DistKind::Collapsed, 1, 1),
                grid_axis: None,
            });
        }
        let mut replicated = d.replicated_axes.clone();
        if let Some(ax) = removed.grid_axis {
            replicated.push(ax);
            replicated.sort_unstable();
            replicated.dedup();
        }
        Dad {
            name: String::new(),
            shape,
            dims,
            replicated_axes: replicated,
            grid: d.grid.clone(),
        }
    }

    /// Replicated full-shape DAD (concatenation target).
    fn replicated_dad(&self, src: ArrId) -> Dad {
        let d = &self.arrays[src].dad;
        DadBuilder::new("", &d.shape)
            .distribute(&vec![DistKind::Collapsed; d.shape.len()])
            .grid(self.grid.clone())
            .build()
            .expect("replicated dad")
    }

    // ---- statement lowering ------------------------------------------------

    fn lower_stmts(
        &mut self,
        stmts: &[Stmt],
        info: &UnitInfo,
        names: &NameMap,
        prefix: &str,
    ) -> CResult<Vec<SStmt>> {
        let mut out = Vec::new();
        for s in stmts {
            self.lower_stmt(s, info, names, prefix, &mut out)?;
        }
        Ok(out)
    }

    fn lower_stmt(
        &mut self,
        s: &Stmt,
        info: &UnitInfo,
        names: &NameMap,
        prefix: &str,
        out: &mut Vec<SStmt>,
    ) -> CResult<()> {
        match s {
            Stmt::Assign { lhs, rhs } => self.lower_assign(lhs, rhs, info, names, prefix, out),
            Stmt::Forall {
                indices,
                mask,
                body,
            } => {
                // A FORALL construct runs each assignment to completion
                // before the next: split into one node per assignment.
                for b in body {
                    let Stmt::Assign { lhs, rhs } = b else {
                        return cerr("FORALL bodies must be assignments");
                    };
                    let node =
                        self.lower_forall(indices, mask.as_ref(), lhs, rhs, info, names, prefix)?;
                    out.push(SStmt::Forall(node));
                }
                Ok(())
            }
            Stmt::Do {
                var,
                lb,
                ub,
                st,
                body,
            } => {
                let (mut pre, lb) = self.scalar_expr(lb, info, names, prefix)?;
                let (pre2, ub) = self.scalar_expr(ub, info, names, prefix)?;
                let (pre3, st) = self.scalar_expr(st, info, names, prefix)?;
                pre.extend(pre2);
                pre.extend(pre3);
                out.extend(pre);
                let body = self.lower_stmts(body, info, names, prefix)?;
                out.push(SStmt::DoSeq {
                    var: format!("{prefix}{var}"),
                    lb,
                    ub,
                    st,
                    body,
                });
                Ok(())
            }
            Stmt::If { cond, then, else_ } => {
                let (pre, cond) = self.scalar_expr(cond, info, names, prefix)?;
                out.extend(pre);
                let then = self.lower_stmts(then, info, names, prefix)?;
                let else_ = self.lower_stmts(else_, info, names, prefix)?;
                out.push(SStmt::If { cond, then, else_ });
                Ok(())
            }
            Stmt::Print { items } => {
                let mut lowered = Vec::new();
                for e in items {
                    if let Expr::Str(text) = e {
                        lowered.push(PrintItem::Text(text.clone()));
                        continue;
                    }
                    let (pre, se) = self.scalar_expr(e, info, names, prefix)?;
                    out.extend(pre);
                    lowered.push(PrintItem::Val(se));
                }
                out.push(SStmt::Print { items: lowered });
                Ok(())
            }
            Stmt::Call { name, args } => self.lower_call(name, args, info, names, prefix, out),
            Stmt::Redistribute { array, dist } => {
                let arr = *names
                    .get(array)
                    .ok_or_else(|| CodegenError(format!("REDISTRIBUTE unknown array {array}")))?;
                let kinds: Vec<DistKind> = dist
                    .iter()
                    .map(|k| match k {
                        ast::DistSpec::Block => Ok(DistKind::Block),
                        ast::DistSpec::Cyclic => Ok(DistKind::Cyclic),
                        ast::DistSpec::BlockCyclic(e) => {
                            let v = f90d_frontend::sema::const_eval(e, &info.params)
                                .map_err(|e| CodegenError(e.to_string()))?;
                            cyclic_block_kind(array, v)
                        }
                        ast::DistSpec::Star => Ok(DistKind::Collapsed),
                    })
                    .collect::<CResult<_>>()?;
                let shape = self.arrays[arr].dad.shape.clone();
                let new_dad = DadBuilder::new(self.arrays[arr].name.clone(), &shape)
                    .distribute(&kinds)
                    .grid(self.grid.clone())
                    .build()
                    .map_err(CodegenError)?;
                out.push(SStmt::Runtime(RtCall::Redistribute { arr, new_dad }));
                Ok(())
            }
            Stmt::Where { .. } => cerr("WHERE must be normalized away before lowering"),
        }
    }

    fn lower_assign(
        &mut self,
        lhs: &LhsRef,
        rhs: &Expr,
        info: &UnitInfo,
        names: &NameMap,
        prefix: &str,
        out: &mut Vec<SStmt>,
    ) -> CResult<()> {
        // Whole-array intrinsic statement?
        if lhs.subs.is_empty() && names.contains_key(&lhs.name) {
            if let Expr::Ref(fname, args) = rhs {
                if !info.arrays.contains_key(fname) {
                    return self.lower_array_intrinsic(lhs, fname, args, info, names, out);
                }
            }
        }
        if let Some(&arr) = names.get(&lhs.name) {
            // Element assignment A(c1, c2) = rhs on the owners.
            let mut subs = Vec::new();
            let mut pre = Vec::new();
            for s in &lhs.subs {
                let Subscript::Index(e) = s else {
                    return cerr("sections must be normalized away");
                };
                let (p, se) = self.scalar_expr(e, info, names, prefix)?;
                pre.extend(p);
                subs.push(se);
            }
            let (p2, rhs) = self.scalar_expr(rhs, info, names, prefix)?;
            pre.extend(p2);
            out.extend(pre);
            out.push(SStmt::OwnerAssign { arr, subs, rhs });
            Ok(())
        } else {
            // Replicated scalar assignment.
            let (pre, rhs) = self.scalar_expr(rhs, info, names, prefix)?;
            out.extend(pre);
            out.push(SStmt::ScalarAssign {
                name: format!("{prefix}{}", lhs.name),
                rhs,
            });
            Ok(())
        }
    }

    fn lower_array_intrinsic(
        &mut self,
        lhs: &LhsRef,
        fname: &str,
        args: &[Subscript],
        info: &UnitInfo,
        names: &NameMap,
        out: &mut Vec<SStmt>,
    ) -> CResult<()> {
        let dst = names[&lhs.name];
        let arg_expr = |k: usize| -> CResult<&Expr> {
            match args.get(k) {
                Some(Subscript::Index(e)) => Ok(e),
                _ => cerr(format!("{fname}: missing argument {k}")),
            }
        };
        let arg_arr = |k: usize| -> CResult<ArrId> {
            match arg_expr(k)? {
                Expr::Var(n) => names
                    .get(n)
                    .copied()
                    .ok_or_else(|| CodegenError(format!("{fname}: `{n}` is not an array"))),
                other => cerr(format!("{fname}: expected array name, got {other:?}")),
            }
        };
        let call = match fname {
            "CSHIFT" | "EOSHIFT" => {
                let src = arg_arr(0)?;
                let (pre, shift) = self.scalar_expr(arg_expr(1)?, info, names, "")?;
                out.extend(pre);
                // optional DIM argument (1-based in source, default 1)
                let dim = match args.get(if fname == "CSHIFT" { 2 } else { 3 }) {
                    Some(Subscript::Index(e)) => {
                        (f90d_frontend::sema::const_eval(e, &info.params)
                            .map_err(|e| CodegenError(e.to_string()))?
                            - 1) as usize
                    }
                    _ => 0,
                };
                if fname == "CSHIFT" {
                    RtCall::CShift {
                        src,
                        dst,
                        dim,
                        shift,
                    }
                } else {
                    let (pre, boundary) = self.scalar_expr(arg_expr(2)?, info, names, "")?;
                    out.extend(pre);
                    RtCall::EoShift {
                        src,
                        dst,
                        dim,
                        shift,
                        boundary,
                    }
                }
            }
            "TRANSPOSE" => RtCall::Transpose {
                src: arg_arr(0)?,
                dst,
            },
            "MATMUL" => RtCall::Matmul {
                a: arg_arr(0)?,
                b: arg_arr(1)?,
                c: dst,
            },
            other => {
                return cerr(format!(
                    "array-valued intrinsic `{other}` not supported as statement"
                ))
            }
        };
        out.push(SStmt::Runtime(call));
        Ok(())
    }

    fn lower_call(
        &mut self,
        name: &str,
        args: &[Expr],
        info: &UnitInfo,
        names: &NameMap,
        prefix: &str,
        out: &mut Vec<SStmt>,
    ) -> CResult<()> {
        if self.call_depth > 8 {
            return cerr("CALL nesting too deep (recursion is not supported)");
        }
        let callee = self
            .prog
            .program
            .subroutine(name)
            .ok_or_else(|| CodegenError(format!("unknown subroutine {name}")))?;
        let callee_info = self
            .prog
            .unit_info(name)
            .ok_or_else(|| CodegenError(format!("no info for subroutine {name}")))?;
        let sub_prefix = format!("{prefix}{name}__");
        // Declare callee locals + dummies.
        let mut callee_names = self.declare_unit(callee_info, &sub_prefix)?;
        let mut epilogue = Vec::new();
        for (dummy, actual) in callee.args.iter().zip(args) {
            if callee_info.arrays.contains_key(dummy) {
                let Expr::Var(actual_name) = actual else {
                    return cerr(format!("array dummy `{dummy}` needs an array actual"));
                };
                let actual_id = *names
                    .get(actual_name)
                    .ok_or_else(|| CodegenError(format!("unknown array `{actual_name}`")))?;
                let dummy_id = callee_names[dummy];
                if self.arrays[actual_id].dad.shape != self.arrays[dummy_id].dad.shape {
                    return cerr(format!(
                        "array `{actual_name}` shape differs from dummy `{dummy}`"
                    ));
                }
                let same_mapping = {
                    let (a, d) = (&self.arrays[actual_id].dad, &self.arrays[dummy_id].dad);
                    a.dims == d.dims && a.replicated_axes == d.replicated_axes
                };
                if same_mapping {
                    // Alias: no boundary redistribution needed.
                    callee_names.insert(dummy.clone(), actual_id);
                } else {
                    // Automatic redistribution on entry and exit (paper §6).
                    out.push(SStmt::Runtime(RtCall::RemapCopy {
                        src: actual_id,
                        dst: dummy_id,
                    }));
                    epilogue.push(SStmt::Runtime(RtCall::RemapCopy {
                        src: dummy_id,
                        dst: actual_id,
                    }));
                }
            } else {
                // Scalar dummy: copy-in.
                let (pre, se) = self.scalar_expr(actual, info, names, prefix)?;
                out.extend(pre);
                out.push(SStmt::ScalarAssign {
                    name: format!("{sub_prefix}{dummy}"),
                    rhs: se,
                });
                if !self
                    .scalars
                    .iter()
                    .any(|(n, _)| n == &format!("{sub_prefix}{dummy}"))
                {
                    self.scalars
                        .push((format!("{sub_prefix}{dummy}"), ElemType::Int));
                }
            }
        }
        self.call_depth += 1;
        let body = self.lower_stmts(&callee.body, callee_info, &callee_names, &sub_prefix)?;
        self.call_depth -= 1;
        out.extend(body);
        out.extend(epilogue);
        Ok(())
    }

    // ---- scalar-context expressions ----------------------------------------

    /// Lower an expression evaluated in replicated scalar context. Reads
    /// of distributed elements hoist to `BroadcastElem`; reductions hoist
    /// to `ReduceScalar`.
    fn scalar_expr(
        &mut self,
        e: &Expr,
        info: &UnitInfo,
        names: &NameMap,
        prefix: &str,
    ) -> CResult<(Vec<SStmt>, SExpr)> {
        let mut pre = Vec::new();
        let se = self.scalar_expr_inner(e, info, names, prefix, &mut pre)?;
        Ok((pre, se))
    }

    fn scalar_expr_inner(
        &mut self,
        e: &Expr,
        info: &UnitInfo,
        names: &NameMap,
        prefix: &str,
        pre: &mut Vec<SStmt>,
    ) -> CResult<SExpr> {
        match e {
            Expr::Int(v) => Ok(SExpr::Const(Value::Int(*v))),
            Expr::Real(v) => Ok(SExpr::Const(Value::Real(*v))),
            Expr::Logical(b) => Ok(SExpr::Const(Value::Bool(*b))),
            Expr::Str(_) => cerr("character values only in PRINT"),
            Expr::Var(n) => {
                if let Some(&v) = info.params.get(n) {
                    Ok(SExpr::Const(Value::Int(v)))
                } else if names.contains_key(n) {
                    cerr(format!("whole array `{n}` in scalar context"))
                } else {
                    Ok(SExpr::Scalar(format!("{prefix}{n}")))
                }
            }
            Expr::Bin(op, l, r) => {
                let l = self.scalar_expr_inner(l, info, names, prefix, pre)?;
                let r = self.scalar_expr_inner(r, info, names, prefix, pre)?;
                Ok(SExpr::Bin(*op, Box::new(l), Box::new(r)))
            }
            Expr::Un(op, x) => {
                let x = self.scalar_expr_inner(x, info, names, prefix, pre)?;
                Ok(SExpr::Un(*op, Box::new(x)))
            }
            Expr::Ref(name, subs) => {
                if let Some(&arr) = names.get(name) {
                    // Element read.
                    let mut s_subs = Vec::new();
                    for s in subs {
                        let Subscript::Index(ix) = s else {
                            return cerr("array section in scalar context");
                        };
                        s_subs.push(self.scalar_expr_inner(ix, info, names, prefix, pre)?);
                    }
                    if self.arrays[arr].dad.is_replicated() {
                        Ok(SExpr::Read {
                            arr,
                            plan: ReadPlan::Replicated,
                            subs: s_subs,
                        })
                    } else {
                        // Hoist: broadcast the element into a scalar.
                        self.tmp_counter += 1;
                        let target = format!("__BC{}", self.tmp_counter);
                        self.scalars.push((target.clone(), self.arrays[arr].ty));
                        pre.push(SStmt::Comm(CommStmt::BroadcastElem {
                            arr,
                            subs: s_subs.into(),
                            target: target.clone(),
                        }));
                        Ok(SExpr::Scalar(target))
                    }
                } else if let Some(kind) = reduce_kind(name) {
                    // Reduction intrinsic in scalar context.
                    let arr_of = |e: &Expr| -> CResult<ArrId> {
                        match e {
                            Expr::Var(n) => names.get(n).copied().ok_or_else(|| {
                                CodegenError(format!("{name}: `{n}` is not an array"))
                            }),
                            _ => cerr(format!("{name}: only whole-array operands are supported")),
                        }
                    };
                    let first = match subs.first() {
                        Some(Subscript::Index(e)) => e,
                        _ => return cerr(format!("{name}: missing operand")),
                    };
                    let arr = arr_of(first)?;
                    let arr2 = if kind == ReduceKind::DotProduct {
                        let second = match subs.get(1) {
                            Some(Subscript::Index(e)) => e,
                            _ => return cerr("DOTPRODUCT needs two operands"),
                        };
                        Some(arr_of(second)?)
                    } else {
                        None
                    };
                    self.tmp_counter += 1;
                    let target = format!("__RED{}", self.tmp_counter);
                    let ty = match kind {
                        ReduceKind::Count => ElemType::Int,
                        ReduceKind::All | ReduceKind::Any => ElemType::Bool,
                        _ => self.arrays[arr].ty,
                    };
                    self.scalars.push((target.clone(), ty));
                    pre.push(SStmt::Comm(CommStmt::ReduceScalar {
                        kind,
                        arr,
                        arr2,
                        target: target.clone(),
                    }));
                    Ok(SExpr::Scalar(target))
                } else {
                    // Elemental intrinsic.
                    let mut args = Vec::new();
                    for s in subs {
                        let Subscript::Index(ix) = s else {
                            return cerr(format!("bad argument to {name}"));
                        };
                        args.push(self.scalar_expr_inner(ix, info, names, prefix, pre)?);
                    }
                    Ok(SExpr::Elemental(name.clone(), args))
                }
            }
        }
    }

    // ---- FORALL lowering ------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn lower_forall(
        &mut self,
        indices: &[ast::ForallIndex],
        mask: Option<&Expr>,
        lhs: &LhsRef,
        rhs: &Expr,
        info: &UnitInfo,
        names: &NameMap,
        prefix: &str,
    ) -> CResult<ForallNode> {
        let vars: Vec<String> = indices.iter().map(|i| i.var.clone()).collect();
        let lhs_arr = *names
            .get(&lhs.name)
            .ok_or_else(|| CodegenError(format!("FORALL assigns to non-array `{}`", lhs.name)))?;
        let lhs_decl = self.arrays[lhs_arr].clone();

        // ---- computation partitioning (paper §4) ----
        // Classify each LHS dim.
        let mut lhs_pats = Vec::new();
        for s in &lhs.subs {
            let Subscript::Index(e) = s else {
                return cerr("FORALL LHS sections must be normalized away");
            };
            lhs_pats.push(classify_subscript(e, &vars, &info.params));
        }
        // A var may bind at most one distributed dim.
        let mut var_dim: HashMap<String, (usize, i64, i64)> = HashMap::new();
        let mut owner_ok = true;
        let mut owner_filter = Vec::new();
        for (d, pat) in lhs_pats.iter().enumerate() {
            let distributed = lhs_decl.dad.dims[d].is_distributed();
            match pat {
                SubPattern::Affine { var, a, b } => {
                    if distributed {
                        if var_dim.contains_key(var) {
                            owner_ok = false;
                        } else {
                            var_dim.insert(var.clone(), (d, *a, *b));
                        }
                    }
                }
                SubPattern::ScalarInvariant(e) => {
                    if distributed {
                        let (pre_ignored, se) = self.scalar_expr(e, info, names, prefix)?;
                        if !pre_ignored.is_empty() {
                            return cerr("distributed element read inside FORALL LHS subscript");
                        }
                        owner_filter.push((lhs_arr, d, se));
                    }
                }
                _ => {
                    if distributed {
                        owner_ok = false;
                    }
                }
            }
        }
        let lhs_replicated = lhs_decl.dad.is_replicated();
        let write_plan;
        let mut specs = Vec::new();
        if lhs_replicated {
            // Undistributed LHS: replicate iterations everywhere
            // (Algorithm 1 step 11 concatenates distributed RHS data).
            write_plan = WritePlan::Owned;
            for ix in indices {
                let (lbp, lb) = self.scalar_expr(&ix.lb, info, names, prefix)?;
                let (ubp, ub) = self.scalar_expr(&ix.ub, info, names, prefix)?;
                let (stp, st) = self.scalar_expr(&ix.st, info, names, prefix)?;
                if !(lbp.is_empty() && ubp.is_empty() && stp.is_empty()) {
                    return cerr("FORALL bounds must be scalar expressions");
                }
                specs.push(LoopSpec {
                    var: ix.var.clone(),
                    lb,
                    ub,
                    st,
                    part: Partition::Replicate,
                });
            }
        } else if owner_ok {
            write_plan = WritePlan::Owned;
            for ix in indices {
                let (lbp, lb) = self.scalar_expr(&ix.lb, info, names, prefix)?;
                let (ubp, ub) = self.scalar_expr(&ix.ub, info, names, prefix)?;
                let (stp, st) = self.scalar_expr(&ix.st, info, names, prefix)?;
                if !(lbp.is_empty() && ubp.is_empty() && stp.is_empty()) {
                    return cerr("FORALL bounds must be scalar expressions");
                }
                let part = match var_dim.get(&ix.var) {
                    Some(&(dim, a, b)) => Partition::OwnerDim {
                        arr: lhs_arr,
                        dim,
                        a,
                        b,
                    },
                    None => Partition::Replicate,
                };
                specs.push(LoopSpec {
                    var: ix.var.clone(),
                    lb,
                    ub,
                    st,
                    part,
                });
            }
        } else {
            // Non-canonical / vector-valued LHS: block-partition the
            // iteration space, write through postcomp_write or scatter
            // (paper §4 examples 2 and 3).
            let invertible = lhs_pats.iter().all(|p| {
                matches!(
                    p,
                    SubPattern::Affine { .. } | SubPattern::ScalarInvariant(_)
                )
            });
            write_plan = WritePlan::ScatterSeq { invertible };
            let first = &indices[0];
            let known = [&first.lb, &first.ub, &first.st].map(|e| const_eval(e, &info.params).ok());
            let range = match known {
                [Some(lb), Some(ub), Some(st)] if st > 0 => {
                    let span = ub.checked_sub(lb).and_then(|d| d.checked_add(st));
                    span.map(|d| (lb, st, d.max(0) / st))
                }
                _ => None,
            };
            let var = first.var.clone();
            self.block_loop = Some(BlockLoop {
                var,
                range,
                concats: Vec::new(),
            });
            for (k, ix) in indices.iter().enumerate() {
                let (lbp, lb) = self.scalar_expr(&ix.lb, info, names, prefix)?;
                let (ubp, ub) = self.scalar_expr(&ix.ub, info, names, prefix)?;
                let (stp, st) = self.scalar_expr(&ix.st, info, names, prefix)?;
                if !(lbp.is_empty() && ubp.is_empty() && stp.is_empty()) {
                    return cerr("FORALL bounds must be scalar expressions");
                }
                specs.push(LoopSpec {
                    var: ix.var.clone(),
                    lb,
                    ub,
                    st,
                    // Block-split the first var only; others replicate.
                    part: if k == 0 {
                        Partition::BlockIter
                    } else {
                        Partition::Replicate
                    },
                });
            }
        }

        // ---- communication detection (paper §5.2) ----
        let mut pre = Vec::new();
        let mut gathers = Vec::new();
        let mut seq_slots = 0usize;
        let owned_write = write_plan == WritePlan::Owned && !lhs_replicated;
        let lhs_subs_expr: Vec<&Expr> = lhs
            .subs
            .iter()
            .map(|s| match s {
                Subscript::Index(e) => e,
                _ => unreachable!(),
            })
            .collect();
        let mut ctx = RefCtx {
            vars: &vars,
            info,
            names,
            prefix,
            lhs_arr,
            lhs_pats: &lhs_pats,
            owned_write,
            lhs_replicated,
            in_mask: false,
        };
        let rhs_expr =
            self.lower_elem_expr(rhs, &mut ctx, &mut pre, &mut gathers, &mut seq_slots)?;
        let mask_expr = match mask {
            Some(m) => {
                ctx.in_mask = true;
                Some(self.lower_elem_expr(m, &mut ctx, &mut pre, &mut gathers, &mut seq_slots)?)
            }
            None => None,
        };

        // LHS subscripts as loop-var expressions.
        let mut lsubs = Vec::new();
        for e in &lhs_subs_expr {
            lsubs.push(self.loopvar_expr(e, &vars, info, names, prefix)?);
        }
        pre.splice(
            0..0,
            self.block_loop
                .take()
                .map(|b| b.concats)
                .unwrap_or_default(),
        );

        Ok(ForallNode {
            vars: specs,
            mask: mask_expr,
            pre,
            gathers,
            owner_filter,
            body: vec![ElemAssign {
                arr: lhs_arr,
                subs: lsubs,
                write: write_plan,
                rhs: rhs_expr,
            }],
            plan: None,
        })
    }

    /// Lower an expression used inside a FORALL body (element context):
    /// loop variables bind to their global values, array refs get read
    /// plans and communication statements.
    fn lower_elem_expr(
        &mut self,
        e: &Expr,
        ctx: &mut RefCtx<'_>,
        pre: &mut Vec<CommStmt>,
        gathers: &mut Vec<GatherSpec>,
        seq_slots: &mut usize,
    ) -> CResult<SExpr> {
        match e {
            Expr::Int(v) => Ok(SExpr::Const(Value::Int(*v))),
            Expr::Real(v) => Ok(SExpr::Const(Value::Real(*v))),
            Expr::Logical(b) => Ok(SExpr::Const(Value::Bool(*b))),
            Expr::Str(_) => cerr("character value in FORALL"),
            Expr::Var(n) => {
                if ctx.vars.contains(n) {
                    Ok(SExpr::LoopVar(n.clone()))
                } else if let Some(&v) = ctx.info.params.get(n) {
                    Ok(SExpr::Const(Value::Int(v)))
                } else if ctx.names.contains_key(n) {
                    cerr(format!("whole array `{n}` inside FORALL body"))
                } else {
                    Ok(SExpr::Scalar(format!("{}{n}", ctx.prefix)))
                }
            }
            Expr::Bin(op, l, r) => {
                let l = self.lower_elem_expr(l, ctx, pre, gathers, seq_slots)?;
                let r = self.lower_elem_expr(r, ctx, pre, gathers, seq_slots)?;
                Ok(SExpr::Bin(*op, Box::new(l), Box::new(r)))
            }
            Expr::Un(op, x) => {
                let x = self.lower_elem_expr(x, ctx, pre, gathers, seq_slots)?;
                Ok(SExpr::Un(*op, Box::new(x)))
            }
            Expr::Ref(name, subs) => {
                if let Some(&arr) = ctx.names.get(name) {
                    self.lower_array_read(arr, subs, ctx, pre, gathers, seq_slots)
                } else {
                    // Elemental intrinsic in element context.
                    let mut args = Vec::new();
                    for s in subs {
                        let Subscript::Index(ix) = s else {
                            return cerr(format!("bad argument to {name} in FORALL"));
                        };
                        args.push(self.lower_elem_expr(ix, ctx, pre, gathers, seq_slots)?);
                    }
                    Ok(SExpr::Elemental(name.clone(), args))
                }
            }
        }
    }

    fn lower_array_read(
        &mut self,
        arr: ArrId,
        subs: &[Subscript],
        ctx: &mut RefCtx<'_>,
        pre: &mut Vec<CommStmt>,
        gathers: &mut Vec<GatherSpec>,
        seq_slots: &mut usize,
    ) -> CResult<SExpr> {
        let decl = self.arrays[arr].clone();
        // Subscript expressions + patterns.
        let mut sub_exprs = Vec::new();
        let mut pats = Vec::new();
        for s in subs {
            let Subscript::Index(e) = s else {
                return cerr("RHS sections must be normalized away");
            };
            pats.push(classify_subscript(e, ctx.vars, &ctx.info.params));
            sub_exprs.push(e.clone());
        }
        let sub_sexprs: Vec<SExpr> = sub_exprs
            .iter()
            .map(|e| self.loopvar_expr(e, ctx.vars, ctx.info, ctx.names, ctx.prefix))
            .collect::<CResult<_>>()?;

        // Replicated arrays are readable everywhere.
        if decl.dad.is_replicated() {
            return Ok(SExpr::Read {
                arr,
                plan: ReadPlan::Replicated,
                subs: sub_sexprs,
            });
        }
        // Undistributed LHS (Algorithm 1 step 11): concatenate.
        if ctx.lhs_replicated {
            let tmp = self.fresh_tmp("CONCAT", decl.ty, self.replicated_dad(arr));
            pre.push(CommStmt::Concat { src: arr, tmp });
            return Ok(SExpr::Read {
                arr: tmp,
                plan: ReadPlan::Replicated,
                subs: sub_sexprs,
            });
        }
        // Non-owner-computes loops fetch all remote data unstructured —
        // but the inspectors evaluate the mask, which cannot wait for a
        // gather.
        if !ctx.owned_write && ctx.in_mask {
            let (arr, plan) = match self.concatenated(arr, subs, &ctx.info.params) {
                Some(tmp) => (tmp, ReadPlan::Replicated),
                None => (arr, ReadPlan::Owned),
            };
            return Ok(SExpr::Read {
                arr,
                plan,
                subs: sub_sexprs,
            });
        }
        if !ctx.owned_write {
            return self.emit_gather(arr, &sub_exprs, &pats, ctx, gathers, seq_slots);
        }

        // Structured detection per dimension (Algorithm 1 steps 2–9).
        let lhs_mapping = ctx.info.mappings.get(&base_name(&self.arrays[ctx.lhs_arr]));
        let rhs_mapping = ctx.info.mappings.get(&base_name(&decl));
        let mut tags: Vec<DimTag> = Vec::with_capacity(pats.len());
        for (d, pat) in pats.iter().enumerate() {
            if !decl.dad.dims[d].is_distributed() {
                tags.push(DimTag::NoComm);
                continue;
            }
            let ra = dim_align(rhs_mapping, &decl, d);
            // Find the LHS dim aligned to the same template dimension.
            let mut tag = DimTag::Unstructured(unstructured_of(pat));
            if let (Some(ra_), Some(lhs_map)) = (ra, lhs_mapping) {
                let same_template = rhs_mapping.map(|m| &m.template) == Some(&lhs_map.template);
                if same_template {
                    for (ld, lpat) in ctx.lhs_pats.iter().enumerate() {
                        let la = dim_align(lhs_mapping, &self.arrays[ctx.lhs_arr], ld);
                        if let Some(la_) = la {
                            if la_.tdim == ra_.tdim {
                                tag = classify_pair(lpat, pat, Some(la_), Some(ra_));
                                break;
                            }
                        }
                    }
                }
            } else if rhs_mapping.is_none() && lhs_mapping.is_none() {
                // Both arrays use the default identity mapping onto their
                // own templates — only identical shapes co-align, which
                // is the replicated case already handled. Fall through.
            }
            tags.push(tag);
        }
        // Whole-ref unstructured if any dim fell through.
        if tags.iter().any(|t| matches!(t, DimTag::Unstructured(_))) {
            return self.emit_gather(arr, &sub_exprs, &pats, ctx, gathers, seq_slots);
        }
        // Assemble structured plan.
        let mut mcast: Option<(usize, Expr)> = None;
        let mut transfer: Option<(usize, Expr, Expr)> = None;
        let mut tshift: Option<(usize, Expr)> = None;
        let mut oshifts: Vec<(usize, i64)> = Vec::new();
        for (d, t) in tags.iter().enumerate() {
            match t {
                DimTag::NoComm => {}
                DimTag::OverlapShift(c) => {
                    // Reject shift constants at or past the dimension
                    // extent up front: every read would land outside the
                    // array, and downstream ghost allocation would have
                    // to widen to |c| (for adversarial magnitudes like
                    // i64::MIN that arithmetic only stays total because
                    // `Margins`/`assign_ghosts` saturate). A real code
                    // never shifts a whole array width.
                    if c.unsigned_abs() >= decl.dad.dims[d].extent as u64 {
                        return cerr(format!(
                            "shift constant {c} out of range for dimension {d} of extent {} \
                             (|shift| must be < extent)",
                            decl.dad.dims[d].extent
                        ));
                    }
                    if self.opts.opt.overlap_shift {
                        oshifts.push((d, *c))
                    } else {
                        // Optimization disabled: use the temporary form.
                        if tshift.is_some() {
                            return self
                                .emit_gather(arr, &sub_exprs, &pats, ctx, gathers, seq_slots);
                        }
                        tshift = Some((d, Expr::Int(*c)));
                    }
                }
                DimTag::TempShift(s) => {
                    if tshift.is_some() {
                        return self.emit_gather(arr, &sub_exprs, &pats, ctx, gathers, seq_slots);
                    }
                    tshift = Some((d, s.clone()));
                }
                DimTag::Multicast(s) => {
                    if mcast.is_some() {
                        return self.emit_gather(arr, &sub_exprs, &pats, ctx, gathers, seq_slots);
                    }
                    mcast = Some((d, s.clone()));
                }
                DimTag::Transfer { src, dst } => {
                    if transfer.is_some() {
                        return self.emit_gather(arr, &sub_exprs, &pats, ctx, gathers, seq_slots);
                    }
                    transfer = Some((d, src.clone(), dst.clone()));
                }
                DimTag::Unstructured(_) => unreachable!(),
            }
        }
        if transfer.is_some() && (mcast.is_some() || tshift.is_some()) {
            return self.emit_gather(arr, &sub_exprs, &pats, ctx, gathers, seq_slots);
        }

        // Emit overlap shifts (ghost fills).
        for &(d, c) in &oshifts {
            pre.push(CommStmt::OverlapShift { arr, dim: d, c });
        }
        match (mcast, transfer, tshift) {
            (None, None, None) => Ok(SExpr::Read {
                arr,
                plan: ReadPlan::Owned,
                subs: sub_sexprs,
            }),
            (None, Some((d, src_g, dst_g)), None) => {
                let tmp = self.fresh_tmp("XFER", decl.ty, self.slab_dad(arr, d));
                let src_g = self.loopvar_expr(&src_g, ctx.vars, ctx.info, ctx.names, ctx.prefix)?;
                // Destination: the LHS dim whose pattern matched (d, s):
                // find the lhs dim aligned to the same template dim.
                let (dst_arr, dst_dim) = (ctx.lhs_arr, self.matching_lhs_dim(ctx, &decl, d));
                let dst_g = self.loopvar_expr(&dst_g, ctx.vars, ctx.info, ctx.names, ctx.prefix)?;
                pre.push(CommStmt::Transfer {
                    src: arr,
                    tmp,
                    dim: d,
                    src_g,
                    dst_g,
                    dst_arr,
                    dst_dim,
                });
                Ok(SExpr::Read {
                    arr: tmp,
                    plan: ReadPlan::SlabTmp { tmp, fixed_dim: d },
                    subs: sub_sexprs,
                })
            }
            (Some((d, src_g)), None, None) => {
                let tmp = self.fresh_tmp("MCAST", decl.ty, self.slab_dad(arr, d));
                let src_g = self.loopvar_expr(&src_g, ctx.vars, ctx.info, ctx.names, ctx.prefix)?;
                pre.push(CommStmt::Multicast {
                    src: arr,
                    tmp,
                    dim: d,
                    src_g,
                });
                Ok(SExpr::Read {
                    arr: tmp,
                    plan: ReadPlan::SlabTmp { tmp, fixed_dim: d },
                    subs: sub_sexprs,
                })
            }
            (None, None, Some((d, amount))) => {
                let tmp = self.fresh_tmp("SHIFT", decl.ty, decl.dad.clone());
                let amount =
                    self.loopvar_expr(&amount, ctx.vars, ctx.info, ctx.names, ctx.prefix)?;
                pre.push(CommStmt::TempShift {
                    src: arr,
                    tmp,
                    dim: d,
                    amount: amount.clone(),
                });
                // Read the temporary at the canonical (unshifted)
                // position: subscript - shift.
                let mut subs2 = sub_sexprs.clone();
                subs2[d] = SExpr::Bin(BinOp::Sub, Box::new(subs2[d].clone()), Box::new(amount));
                Ok(SExpr::Read {
                    arr: tmp,
                    plan: ReadPlan::SameTmp { tmp },
                    subs: subs2,
                })
            }
            (Some((md, src_g)), None, Some((sd, amount))) => {
                let src_g = self.loopvar_expr(&src_g, ctx.vars, ctx.info, ctx.names, ctx.prefix)?;
                let amount_se =
                    self.loopvar_expr(&amount, ctx.vars, ctx.info, ctx.names, ctx.prefix)?;
                let mut subs2 = sub_sexprs.clone();
                subs2[sd] = SExpr::Bin(
                    BinOp::Sub,
                    Box::new(subs2[sd].clone()),
                    Box::new(amount_se.clone()),
                );
                if self.opts.opt.fuse_multicast_shift {
                    let tmp = self.fresh_tmp("MCSH", decl.ty, self.slab_dad(arr, md));
                    pre.push(CommStmt::MulticastShift {
                        src: arr,
                        tmp,
                        mdim: md,
                        src_g,
                        sdim: sd,
                        amount: amount_se,
                    });
                    Ok(SExpr::Read {
                        arr: tmp,
                        plan: ReadPlan::SlabTmp { tmp, fixed_dim: md },
                        subs: subs2,
                    })
                } else {
                    // Two-step composition: shift whole array, then
                    // multicast the shifted slab.
                    let t1 = self.fresh_tmp("SHIFT", decl.ty, decl.dad.clone());
                    pre.push(CommStmt::TempShift {
                        src: arr,
                        tmp: t1,
                        dim: sd,
                        amount: amount_se,
                    });
                    let t2 = self.fresh_tmp("MCAST", decl.ty, self.slab_dad(arr, md));
                    pre.push(CommStmt::Multicast {
                        src: t1,
                        tmp: t2,
                        dim: md,
                        src_g,
                    });
                    Ok(SExpr::Read {
                        arr: t2,
                        plan: ReadPlan::SlabTmp {
                            tmp: t2,
                            fixed_dim: md,
                        },
                        subs: subs2,
                    })
                }
            }
            _ => self.emit_gather(arr, &sub_exprs, &pats, ctx, gathers, seq_slots),
        }
    }

    fn matching_lhs_dim(&self, ctx: &RefCtx<'_>, rhs_decl: &ArrayDecl, rhs_dim: usize) -> usize {
        let lhs_decl = &self.arrays[ctx.lhs_arr];
        let rhs_axis = rhs_decl.dad.dims[rhs_dim].grid_axis;
        lhs_decl
            .dad
            .dims
            .iter()
            .position(|d| d.grid_axis == rhs_axis && d.is_distributed())
            .unwrap_or(rhs_dim.min(lhs_decl.dad.rank() - 1))
    }

    fn emit_gather(
        &mut self,
        arr: ArrId,
        sub_exprs: &[Expr],
        pats: &[SubPattern],
        ctx: &mut RefCtx<'_>,
        gathers: &mut Vec<GatherSpec>,
        seq_slots: &mut usize,
    ) -> CResult<SExpr> {
        let decl = &self.arrays[arr];
        let local_only = pats
            .iter()
            .all(|p| matches!(unstructured_of(p), UnstructKind::PrecompRead));
        // Placeholder 1-element replicated dad; the executor sizes the
        // buffer per rank.
        let dad = DadBuilder::new("", &[1])
            .distribute(&[DistKind::Collapsed])
            .grid(self.grid.clone())
            .build()
            .expect("seq dad");
        let tmp = self.fresh_tmp("SEQ", decl.ty, dad);
        let subs: Vec<SExpr> = sub_exprs
            .iter()
            .map(|e| self.loopvar_expr(e, ctx.vars, ctx.info, ctx.names, ctx.prefix))
            .collect::<CResult<_>>()?;
        let slot = *seq_slots;
        *seq_slots += 1;
        gathers.push(GatherSpec {
            src: arr,
            tmp,
            subs: subs.as_slice().into(),
            local_only,
        });
        Ok(SExpr::Read {
            arr: tmp,
            plan: ReadPlan::Seq { tmp, slot },
            subs,
        })
    }

    /// While a block-partitioned FORALL is lowered, the replicated copy
    /// of distributed array `arr` its prelude concatenates for a read at
    /// `subs` by the inspectors (an index vector, the mask) — unless every
    /// rank owns what it reads there.
    fn concatenated(
        &mut self,
        arr: ArrId,
        subs: &[Subscript],
        params: &HashMap<String, i64>,
    ) -> Option<ArrId> {
        let block = self.block_loop.as_ref()?;
        if self.arrays[arr].dad.is_replicated() || self.owned_in_block(arr, subs, block, params) {
            return None;
        }
        let kept = block.concats.iter().find_map(|c| match c {
            CommStmt::Concat { src, tmp } if *src == arr => Some(*tmp),
            _ => None,
        });
        Some(kept.unwrap_or_else(|| {
            let tmp = self.fresh_tmp("CONCAT", self.arrays[arr].ty, self.replicated_dad(arr));
            let block = self.block_loop.as_mut().expect("lowering one");
            block.concats.push(CommStmt::Concat { src: arr, tmp });
            tmp
        }))
    }

    /// Whether, on a 1-D grid, the rank that the block partition gives
    /// iteration `k` of `block` owns element `subs` of 1-D `arr` in it:
    /// the subscript is the partitioned variable plus a constant and its
    /// range is known, so every iteration can be checked.
    fn owned_in_block(
        &self,
        arr: ArrId,
        subs: &[Subscript],
        block: &BlockLoop,
        params: &HashMap<String, i64>,
    ) -> bool {
        let (Some((lb, st, count)), [Subscript::Index(e)]) = (block.range, subs) else {
            return false;
        };
        let Some((1, b)) = affine_of(e, &block.var, params) else {
            return false;
        };
        let dim = &self.arrays[arr].dad.dims[0];
        if self.grid.rank() != 1 || count > dim.extent {
            return false;
        }
        let chunk = (count + self.grid.size() - 1) / self.grid.size();
        // Normalized bounds and subscripts are 0-based.
        (0..count).all(|k| {
            let g = i128::from(lb) + i128::from(k) * i128::from(st) + i128::from(b);
            i64::try_from(g)
                .is_ok_and(|g| (0..dim.extent).contains(&g) && dim.proc_of(g) == k / chunk)
        })
    }

    /// Lower an expression over loop variables + scalars (used for
    /// subscripts, comm arguments, forall bounds with vars).
    fn loopvar_expr(
        &mut self,
        e: &Expr,
        vars: &[String],
        info: &UnitInfo,
        names: &NameMap,
        prefix: &str,
    ) -> CResult<SExpr> {
        match e {
            Expr::Int(v) => Ok(SExpr::Const(Value::Int(*v))),
            Expr::Real(v) => Ok(SExpr::Const(Value::Real(*v))),
            Expr::Logical(b) => Ok(SExpr::Const(Value::Bool(*b))),
            Expr::Str(_) => cerr("character value in index expression"),
            Expr::Var(n) => {
                if vars.contains(n) {
                    Ok(SExpr::LoopVar(n.clone()))
                } else if let Some(&v) = info.params.get(n) {
                    Ok(SExpr::Const(Value::Int(v)))
                } else {
                    Ok(SExpr::Scalar(format!("{prefix}{n}")))
                }
            }
            Expr::Bin(op, l, r) => Ok(SExpr::Bin(
                *op,
                Box::new(self.loopvar_expr(l, vars, info, names, prefix)?),
                Box::new(self.loopvar_expr(r, vars, info, names, prefix)?),
            )),
            Expr::Un(op, x) => Ok(SExpr::Un(
                *op,
                Box::new(self.loopvar_expr(x, vars, info, names, prefix)?),
            )),
            Expr::Ref(name, subs) => {
                if let Some(&arr) = names.get(name) {
                    let mut s_subs = Vec::new();
                    for s in subs {
                        let Subscript::Index(ix) = s else {
                            return cerr("section in index expression");
                        };
                        s_subs.push(self.loopvar_expr(ix, vars, info, names, prefix)?);
                    }
                    // Vector-subscript array: readable during inspection
                    // where it is replicated (the paper replicates
                    // indirection arrays; §5.3.2 example 2), or owned by
                    // the rank of an owner-computes iteration that reads
                    // it. Outside owner-computes, a distributed one is
                    // concatenated first.
                    let (arr, plan) = match self.concatenated(arr, subs, &info.params) {
                        Some(tmp) => (tmp, ReadPlan::Replicated),
                        None if self.arrays[arr].dad.is_replicated() => (arr, ReadPlan::Replicated),
                        None => (arr, ReadPlan::Owned),
                    };
                    Ok(SExpr::Read {
                        arr,
                        plan,
                        subs: s_subs,
                    })
                } else {
                    let mut args = Vec::new();
                    for s in subs {
                        let Subscript::Index(ix) = s else {
                            return cerr(format!("bad argument to {name}"));
                        };
                        args.push(self.loopvar_expr(ix, vars, info, names, prefix)?);
                    }
                    Ok(SExpr::Elemental(name.clone(), args))
                }
            }
        }
    }
}

/// Walk the generated IR and widen each array's ghost allocation to the
/// largest `overlap_shift` constant that targets it.
fn assign_ghosts(stmts: &[SStmt], arrays: &mut [ArrayDecl]) {
    fn comm(c: &CommStmt, arrays: &mut [ArrayDecl]) {
        if let CommStmt::OverlapShift { arr, c, .. } = c {
            // Saturating: the compiler rejects |c| >= extent, but keep
            // this total for IR built by hand (c == i64::MIN would
            // panic under plain `abs`).
            arrays[*arr].ghost = arrays[*arr].ghost.max(c.saturating_abs());
        }
    }
    fn walk(stmts: &[SStmt], arrays: &mut [ArrayDecl]) {
        for s in stmts {
            match s {
                SStmt::Comm(c) => comm(c, arrays),
                SStmt::Forall(f) => {
                    for c in &f.pre {
                        comm(c, arrays);
                    }
                }
                SStmt::DoSeq { body, .. } => walk(body, arrays),
                SStmt::If { then, else_, .. } => {
                    walk(then, arrays);
                    walk(else_, arrays);
                }
                _ => {}
            }
        }
    }
    walk(stmts, arrays);
}

/// Per-reference lowering context.
struct RefCtx<'a> {
    vars: &'a [String],
    info: &'a UnitInfo,
    names: &'a NameMap,
    prefix: &'a str,
    lhs_arr: ArrId,
    lhs_pats: &'a [SubPattern],
    owned_write: bool,
    lhs_replicated: bool,
    /// Lowering the mask, which every inspector evaluates.
    in_mask: bool,
}

/// Source-level name of `decl` with inlining prefixes stripped.
fn base_name(decl: &ArrayDecl) -> String {
    match decl.name.rfind("__") {
        Some(k)
            if decl.name[..k]
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_') =>
        {
            decl.name[k + 2..].to_string()
        }
        _ => decl.name.clone(),
    }
}

/// Unit-stride alignment summary of one array dimension, when available.
fn dim_align(mapping: Option<&ArrayMapping>, decl: &ArrayDecl, d: usize) -> Option<DimAlign> {
    let dm = &decl.dad.dims[d];
    if !dm.is_distributed() {
        return None;
    }
    let block = matches!(dm.dist.kind, DistKind::Block);
    match mapping {
        Some(m) => match m.axes.get(d)? {
            AxisAlignSpec::Aligned {
                tdim,
                stride: 1,
                offset,
            } => Some(DimAlign {
                tdim: *tdim,
                off: *offset,
                block,
            }),
            _ => None,
        },
        None => None,
    }
}

fn reduce_kind(name: &str) -> Option<ReduceKind> {
    Some(match name {
        "SUM" => ReduceKind::Sum,
        "PRODUCT" => ReduceKind::Product,
        "MAXVAL" => ReduceKind::MaxVal,
        "MINVAL" => ReduceKind::MinVal,
        "COUNT" => ReduceKind::Count,
        "ALL" => ReduceKind::All,
        "ANY" => ReduceKind::Any,
        "DOTPRODUCT" | "DOT_PRODUCT" => ReduceKind::DotProduct,
        _ => return None,
    })
}
