//! The statement layer: the node types of a compiled SPMD program that
//! the tree IR and the bytecode share, defined once.
//!
//! A collective call, a runtime-library call, a FORALL loop variable and
//! an array declaration mean the same thing whether the program is the
//! compiler's tree IR (`f90d_core::ir`) or the register bytecode
//! ([`crate::bytecode`]); the two forms differ only in how an
//! *expression* is represented (`SExpr` tree vs [`crate::bytecode::ExprCode`])
//! and how a *scalar or loop variable* is named (`String` vs table
//! slot). So the types here are generic over exactly those two things —
//! `E` and `N` — and each tier instantiates them. Lowering is
//! [`CommStmt::try_map`] / [`RtCall::try_map`] over the expression
//! positions; evaluating a call's operands before handing it to the
//! shared dispatcher ([`crate::dispatch`]) is the same map with
//! `E = Value`.

use f90d_distrib::Dad;
use f90d_machine::ElemType;

/// Index of an array in the program's array table.
pub type ArrId = usize;

/// One distributed (or replicated) array of the compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct ArrayDecl {
    /// Source-level (or temporary) name, as allocated on node memories.
    pub name: String,
    /// Element type.
    pub ty: ElemType,
    /// Compile-time three-stage mapping descriptor (REDISTRIBUTE may
    /// replace it at run time; executors track live descriptors
    /// separately).
    pub dad: Dad,
    /// Ghost width allocated on every distributed dimension (the maximum
    /// compile-time shift constant the detector saw — Gerndt-style
    /// overlap areas).
    pub ghost: i64,
    /// `true` for compiler temporaries.
    pub is_temp: bool,
}

/// Reduction kinds supported in scalar context.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceKind {
    /// `SUM`
    Sum,
    /// `PRODUCT`
    Product,
    /// `MAXVAL`
    MaxVal,
    /// `MINVAL`
    MinVal,
    /// `COUNT`
    Count,
    /// `ALL`
    All,
    /// `ANY`
    Any,
    /// `DOTPRODUCT`
    DotProduct,
}

/// Collective communication statements (the generated `call …` lines).
#[derive(Debug, Clone, PartialEq)]
pub enum CommStmt<E, N> {
    /// Broadcast slab `src[.., src_g, ..]` along the grid axis of `dim`
    /// into `tmp` (paper Fig. 4b).
    Multicast {
        /// Source array.
        src: ArrId,
        /// Slab temporary.
        tmp: ArrId,
        /// Fixed dimension.
        dim: usize,
        /// Global index of the slab (0-based).
        src_g: E,
    },
    /// Move slab `src[.., src_g, ..]` to the owners of LHS index `dst_g`
    /// (paper Fig. 4a).
    Transfer {
        /// Source array.
        src: ArrId,
        /// Slab temporary.
        tmp: ArrId,
        /// Fixed dimension (of the source).
        dim: usize,
        /// Source global index.
        src_g: E,
        /// Destination global index, in `dst_arr` index space.
        dst_g: E,
        /// LHS array whose owners of `dst_g` receive the slab.
        dst_arr: ArrId,
        /// LHS dimension of `dst_g`.
        dst_dim: usize,
    },
    /// Fill ghost cells for a compile-time shift by `c` on `dim`.
    OverlapShift {
        /// The array whose overlap area is filled.
        arr: ArrId,
        /// Dimension.
        dim: usize,
        /// Shift constant.
        c: i64,
    },
    /// Runtime-amount shift into a same-mapping temporary.
    TempShift {
        /// Source array.
        src: ArrId,
        /// Temporary (same mapping as `src`).
        tmp: ArrId,
        /// Dimension.
        dim: usize,
        /// Shift amount.
        amount: E,
    },
    /// Fused multicast+shift (paper §5.3.1 example 3).
    MulticastShift {
        /// Source array.
        src: ArrId,
        /// Slab temporary.
        tmp: ArrId,
        /// Broadcast dimension.
        mdim: usize,
        /// Global slab index.
        src_g: E,
        /// Shift dimension.
        sdim: usize,
        /// Shift amount.
        amount: E,
    },
    /// Concatenate a distributed array into a replicated temporary
    /// (Algorithm 1 step 11).
    Concat {
        /// Source array.
        src: ArrId,
        /// Replicated full-shape temporary.
        tmp: ArrId,
    },
    /// Broadcast one element of a distributed array into a replicated
    /// scalar (scalar-context reads of distributed elements).
    BroadcastElem {
        /// Source array.
        arr: ArrId,
        /// Global subscripts.
        subs: Box<[E]>,
        /// Destination scalar.
        target: N,
    },
    /// Full reduction into a replicated scalar (Table 3 category 2).
    ReduceScalar {
        /// Reduction operator.
        kind: ReduceKind,
        /// Operand.
        arr: ArrId,
        /// Second operand (DOTPRODUCT).
        arr2: Option<ArrId>,
        /// Destination scalar.
        target: N,
    },
}

impl<E, N> CommStmt<E, N> {
    /// The run-time primitive's name, as counted by
    /// `MachineStats::record` and the IR's comm census.
    pub fn name(&self) -> &'static str {
        match self {
            CommStmt::Multicast { .. } => "multicast",
            CommStmt::Transfer { .. } => "transfer",
            CommStmt::OverlapShift { .. } => "overlap_shift",
            CommStmt::TempShift { .. } => "temporary_shift",
            CommStmt::MulticastShift { .. } => "multicast_shift",
            CommStmt::Concat { .. } => "concatenation",
            CommStmt::BroadcastElem { .. } => "broadcast_elem",
            CommStmt::ReduceScalar { .. } => "reduce",
        }
    }

    /// The replicated scalar this call stores its result into, if any.
    pub fn target(&self) -> Option<&N> {
        match self {
            CommStmt::BroadcastElem { target, .. } | CommStmt::ReduceScalar { target, .. } => {
                Some(target)
            }
            _ => None,
        }
    }

    /// `(arr, dim, c)` when this is an `overlap_shift` — the only
    /// prelude kind phase batching and split-phase overlap accept.
    pub fn as_overlap_shift(&self) -> Option<(ArrId, usize, i64)> {
        match *self {
            CommStmt::OverlapShift { arr, dim, c } => Some((arr, dim, c)),
            _ => None,
        }
    }

    /// The same call over another expression / scalar representation:
    /// `fe` maps every expression position (in evaluation order), `ft`
    /// the scalar target.
    pub fn try_map<E2, N2, Err>(
        &self,
        mut fe: impl FnMut(&E) -> Result<E2, Err>,
        ft: impl FnOnce(&N) -> N2,
    ) -> Result<CommStmt<E2, N2>, Err> {
        Ok(match self {
            CommStmt::Multicast {
                src,
                tmp,
                dim,
                src_g,
            } => CommStmt::Multicast {
                src: *src,
                tmp: *tmp,
                dim: *dim,
                src_g: fe(src_g)?,
            },
            CommStmt::Transfer {
                src,
                tmp,
                dim,
                src_g,
                dst_g,
                dst_arr,
                dst_dim,
            } => CommStmt::Transfer {
                src: *src,
                tmp: *tmp,
                dim: *dim,
                src_g: fe(src_g)?,
                dst_g: fe(dst_g)?,
                dst_arr: *dst_arr,
                dst_dim: *dst_dim,
            },
            CommStmt::OverlapShift { arr, dim, c } => CommStmt::OverlapShift {
                arr: *arr,
                dim: *dim,
                c: *c,
            },
            CommStmt::TempShift {
                src,
                tmp,
                dim,
                amount,
            } => CommStmt::TempShift {
                src: *src,
                tmp: *tmp,
                dim: *dim,
                amount: fe(amount)?,
            },
            CommStmt::MulticastShift {
                src,
                tmp,
                mdim,
                src_g,
                sdim,
                amount,
            } => CommStmt::MulticastShift {
                src: *src,
                tmp: *tmp,
                mdim: *mdim,
                src_g: fe(src_g)?,
                sdim: *sdim,
                amount: fe(amount)?,
            },
            CommStmt::Concat { src, tmp } => CommStmt::Concat {
                src: *src,
                tmp: *tmp,
            },
            CommStmt::BroadcastElem { arr, subs, target } => CommStmt::BroadcastElem {
                arr: *arr,
                subs: subs.iter().map(fe).collect::<Result<_, Err>>()?,
                target: ft(target),
            },
            CommStmt::ReduceScalar {
                kind,
                arr,
                arr2,
                target,
            } => CommStmt::ReduceScalar {
                kind: *kind,
                arr: *arr,
                arr2: *arr2,
                target: ft(target),
            },
        })
    }
}

/// Runtime-library whole-statement calls (array-valued intrinsics and
/// redistribution).
#[derive(Debug, Clone, PartialEq)]
pub enum RtCall<E> {
    /// `dst = CSHIFT(src, shift, dim)`
    CShift {
        /// Source.
        src: ArrId,
        /// Destination.
        dst: ArrId,
        /// Dimension (0-based).
        dim: usize,
        /// Shift amount.
        shift: E,
    },
    /// `dst = EOSHIFT(src, shift, boundary, dim)`
    EoShift {
        /// Source.
        src: ArrId,
        /// Destination.
        dst: ArrId,
        /// Dimension.
        dim: usize,
        /// Shift amount.
        shift: E,
        /// Boundary fill.
        boundary: E,
    },
    /// `dst = TRANSPOSE(src)`
    Transpose {
        /// Source.
        src: ArrId,
        /// Destination.
        dst: ArrId,
    },
    /// `c = MATMUL(a, b)`
    Matmul {
        /// Left operand.
        a: ArrId,
        /// Right operand.
        b: ArrId,
        /// Result.
        c: ArrId,
    },
    /// Change an array's distribution at run time (extension).
    Redistribute {
        /// The array.
        arr: ArrId,
        /// The new descriptor.
        new_dad: Dad,
    },
    /// Copy `src` into the differently-mapped `dst` (subroutine-boundary
    /// redistribution, paper §6).
    RemapCopy {
        /// Source array.
        src: ArrId,
        /// Destination array (may have any mapping of the same shape).
        dst: ArrId,
    },
}

impl<E> RtCall<E> {
    /// The same call over another expression representation (see
    /// [`CommStmt::try_map`]).
    pub fn try_map<E2, Err>(
        &self,
        mut fe: impl FnMut(&E) -> Result<E2, Err>,
    ) -> Result<RtCall<E2>, Err> {
        Ok(match self {
            RtCall::CShift {
                src,
                dst,
                dim,
                shift,
            } => RtCall::CShift {
                src: *src,
                dst: *dst,
                dim: *dim,
                shift: fe(shift)?,
            },
            RtCall::EoShift {
                src,
                dst,
                dim,
                shift,
                boundary,
            } => RtCall::EoShift {
                src: *src,
                dst: *dst,
                dim: *dim,
                shift: fe(shift)?,
                boundary: fe(boundary)?,
            },
            RtCall::Transpose { src, dst } => RtCall::Transpose {
                src: *src,
                dst: *dst,
            },
            RtCall::Matmul { a, b, c } => RtCall::Matmul {
                a: *a,
                b: *b,
                c: *c,
            },
            RtCall::Redistribute { arr, new_dad } => RtCall::Redistribute {
                arr: *arr,
                new_dad: new_dad.clone(),
            },
            RtCall::RemapCopy { src, dst } => RtCall::RemapCopy {
                src: *src,
                dst: *dst,
            },
        })
    }
}

/// Iteration-space partitioning of one FORALL variable (paper §4).
#[derive(Debug, Clone, PartialEq)]
pub enum Partition {
    /// Owner-computes through LHS dimension `dim` of `arr`, whose
    /// subscript is `a*var + b`: each rank runs the iterations whose LHS
    /// element it owns (computed with `set_BOUND`).
    OwnerDim {
        /// LHS array.
        arr: ArrId,
        /// LHS dimension.
        dim: usize,
        /// Subscript stride.
        a: i64,
        /// Subscript offset.
        b: i64,
    },
    /// Equal block split of the iteration space over all ranks (paper §4
    /// example 2: non-canonical LHS).
    BlockIter,
    /// Every rank runs every iteration (undistributed LHS dimension).
    Replicate,
}

/// One FORALL loop variable with its iteration partitioning.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopSpec<E, N> {
    /// The loop variable.
    pub var: N,
    /// Global lower bound (0-based).
    pub lb: E,
    /// Global upper bound (0-based, inclusive).
    pub ub: E,
    /// Stride (positive).
    pub st: E,
    /// Iteration-to-rank assignment.
    pub part: Partition,
}

/// One unstructured read of a FORALL: `tmp(count) = src(subs(i…))`
/// gathered before the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct GatherSpec<E> {
    /// Source array.
    pub src: ArrId,
    /// Sequential buffer.
    pub tmp: ArrId,
    /// Global subscripts as functions of the loop variables.
    pub subs: Box<[E]>,
    /// `true` when preprocessing is local-only (invertible subscripts →
    /// `schedule1`/`precomp_read`); `false` → `schedule2`/`gather`.
    pub local_only: bool,
}

/// Role of a FORALL inside a planner-formed comm phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseRole {
    /// First statement of a phase of `len` consecutive FORALLs
    /// (including itself). The lead's executor batches the ghost
    /// exchanges of all `len` members.
    Lead {
        /// Number of FORALLs in the phase, `>= 1`.
        len: usize,
    },
    /// Non-lead member: its ghost exchanges were posted by the lead, so
    /// its own prelude is skipped when the plan is honoured.
    Member,
}

/// One `PRINT *,` item.
#[derive(Debug, Clone, PartialEq)]
pub enum PrintItem<E> {
    /// A character literal, printed verbatim.
    Text(String),
    /// A scalar expression.
    Val(E),
}
