//! The register bytecode a compiled SPMD node program lowers to.
//!
//! Expressions become flat [`ExprCode`] register programs — no tree
//! recursion, no name lookups: scalars, loop variables, constants and
//! array accessors are all resolved to table slots at lowering time, and
//! affine subscripts (`a*i + b`) collapse to a single [`Op::Affine`].
//! Statement-level control flow is a flat [`PInst`] stream with explicit
//! jump targets; FORALL loops, communication calls and runtime calls are
//! table-driven super-instructions executed by [`crate::engine::Engine`].

use f90d_frontend::ast::{BinOp, UnOp};
use f90d_machine::{ElemType, Value};

use crate::ops::Intrin;
pub use crate::stmt::{
    ArrId, ArrayDecl, CommStmt, GatherSpec, LoopSpec, Partition, PhaseRole, PrintItem, RtCall,
};

/// A register index within one [`ExprCode`].
pub type Reg = u16;

/// How a `Read` instruction locates its element (static half; the engine
/// resolves this against the live descriptors per FORALL execution).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum AccPlan {
    /// Owner-computes read of the rank's own segment (ghosts allowed);
    /// also used for fully replicated arrays.
    Owned {
        /// The array.
        arr: ArrId,
    },
    /// Read a slab temporary produced by multicast/transfer: lowering
    /// drops the subscript of `fixed_dim`, so the `Read` carries one
    /// subscript per dimension of the temporary.
    Slab {
        /// The temporary.
        tmp: ArrId,
        /// Fixed source dimension.
        fixed_dim: usize,
    },
    /// Read a same-mapping temporary at the canonical position.
    Same {
        /// The temporary.
        tmp: ArrId,
    },
}

impl AccPlan {
    /// The array actually read.
    pub fn target(&self) -> ArrId {
        match *self {
            AccPlan::Owned { arr } => arr,
            AccPlan::Slab { tmp, .. } | AccPlan::Same { tmp } => tmp,
        }
    }
}

/// One bytecode instruction of an expression program.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    /// `r[dst] = consts[k]`
    Const {
        /// Destination register.
        dst: Reg,
        /// Constant-table index.
        k: u16,
    },
    /// `r[dst] = Int(vars[slot])` — a loop variable.
    LoadVar {
        /// Destination register.
        dst: Reg,
        /// Loop-variable slot.
        slot: u16,
    },
    /// `r[dst] = scalars[slot]` — a replicated program scalar.
    LoadScalar {
        /// Destination register.
        dst: Reg,
        /// Scalar slot.
        slot: u16,
    },
    /// `r[dst] = Int(a * vars[slot] + b)` — a folded affine subscript.
    Affine {
        /// Destination register.
        dst: Reg,
        /// Loop-variable slot.
        slot: u16,
        /// Stride.
        a: i64,
        /// Offset.
        b: i64,
    },
    /// `r[dst] = r[a] <op> r[b]`
    Bin {
        /// Operator.
        op: BinOp,
        /// Destination register.
        dst: Reg,
        /// Left operand register.
        a: Reg,
        /// Right operand register.
        b: Reg,
    },
    /// `r[dst] = <op> r[a]`
    Un {
        /// Operator.
        op: UnOp,
        /// Destination register.
        dst: Reg,
        /// Operand register.
        a: Reg,
    },
    /// `r[dst] = f(r[base..base+n])`
    Intrin {
        /// Resolved intrinsic.
        f: Intrin,
        /// Destination register.
        dst: Reg,
        /// First argument register (arguments are consecutive).
        base: Reg,
        /// Argument count.
        n: u16,
    },
    /// `r[dst] = element of accessors[acc] at subscripts r[base..base+n]`
    Read {
        /// Destination register.
        dst: Reg,
        /// Accessor-table index.
        acc: u16,
        /// First subscript register (subscripts are consecutive,
        /// evaluated as integers).
        base: Reg,
        /// Subscript count: the rank of the array the accessor reads.
        n: u16,
    },
    /// `r[dst] = next element of gather buffer `gather`` (sequential
    /// `tmp(count)` read; bumps the per-rank counter).
    ReadSeq {
        /// Destination register.
        dst: Reg,
        /// Index into the enclosing FORALL's gather list.
        gather: u16,
    },
}

/// A compiled expression: straight-line register program.
#[derive(Debug, Clone, Default)]
pub struct ExprCode {
    /// Instructions in evaluation order.
    pub ops: Box<[Op]>,
    /// Register holding the result.
    pub out: Reg,
    /// Number of registers the program needs.
    pub nregs: u16,
}

/// One elementwise assignment of a FORALL body.
#[derive(Debug, Clone)]
pub struct VmAssign {
    /// Destination array.
    pub arr: ArrId,
    /// Global subscripts.
    pub subs: Box<[ExprCode]>,
    /// Value.
    pub rhs: ExprCode,
    /// Accessor used to compute owned-write offsets (`None` for scatter
    /// writes).
    pub lhs_acc: Option<u16>,
    /// `Some(invertible)` for scatter writes.
    pub scatter: Option<bool>,
    /// Modelled element-operation cost per executed iteration.
    pub cost: i64,
}

/// A lowered FORALL super-instruction.
#[derive(Debug, Clone)]
pub struct VmForall {
    /// Loop variables (slots), outer to inner.
    pub vars: Box<[LoopSpec<ExprCode, u16>]>,
    /// Optional mask (element context).
    pub mask: Option<ExprCode>,
    /// Modelled cost of one mask evaluation.
    pub mask_cost: i64,
    /// Communication prelude (comm-table indices).
    pub pre: Box<[u16]>,
    /// Unstructured reads.
    pub gathers: Box<[GatherSpec<ExprCode>]>,
    /// `set_BOUND` masking of inactive processors.
    pub owner_filter: Box<[(ArrId, usize, ExprCode)]>,
    /// Body assignments.
    pub body: Box<[VmAssign]>,
    /// Accessor ids the element loop references (for per-rank resolution).
    pub accs_used: Box<[u16]>,
    /// Native-tier kernel selected at lowering time
    /// ([`VmProgram::natives`] index), or `None` when the bytecode
    /// element loop is the only executor. Even with a kernel present the
    /// engine re-checks dispatch preconditions per execution (live
    /// descriptors, scalar value types, iteration-box bounds) and falls
    /// back to bytecode — counted in `Engine::native_counts` — when any
    /// fails.
    pub native: Option<crate::native::KernelId>,
    /// Comm-phase membership copied from the IR planner annotation
    /// (`ForallNode::plan`). The engine batches the ghost exchanges of a
    /// `Lead` and its following `len - 1` members into one coalesced
    /// exchange when `Engine::plan` is on; otherwise (or on a runtime
    /// planning refusal) the per-statement `pre` lists run as usual.
    pub plan: Option<PhaseRole>,
}

/// One statement-level instruction of the flat program.
#[derive(Debug, Clone)]
pub enum PInst {
    /// Replicated scalar assignment; charges `cost` on every rank.
    ScalarAssign {
        /// Destination scalar slot.
        slot: u16,
        /// Value.
        rhs: ExprCode,
        /// Modelled cost per rank.
        cost: i64,
    },
    /// Element assignment executed by the owners.
    OwnerAssign {
        /// Destination array.
        arr: ArrId,
        /// Global subscripts.
        subs: Box<[ExprCode]>,
        /// Value.
        rhs: ExprCode,
        /// Modelled cost per owner.
        cost: i64,
    },
    /// A standalone collective call (comm-table index).
    Comm(u16),
    /// A FORALL (forall-table index).
    Forall(u16),
    /// A runtime-library call (rt-table index).
    Runtime(u16),
    /// A `PRINT *,` (print-table index).
    Print(u16),
    /// Evaluate `cond`, charge `cost` on every rank, jump to `target`
    /// when false.
    BranchFalse {
        /// Condition.
        cond: ExprCode,
        /// Modelled cost per rank.
        cost: i64,
        /// Jump target when false.
        target: usize,
    },
    /// Unconditional jump.
    Jump {
        /// Target pc.
        target: usize,
    },
    /// Enter a sequential DO: evaluate bounds, bind the variable, push a
    /// loop frame; jump to `exit` when the range is empty.
    DoStart {
        /// Loop-variable slot.
        var: u16,
        /// Lower bound.
        lb: ExprCode,
        /// Upper bound.
        ub: ExprCode,
        /// Stride.
        st: ExprCode,
        /// pc just past the matching `DoNext`.
        exit: usize,
    },
    /// Bottom of a DO: charge loop control, step, jump to `back` while
    /// iterations remain (pops the loop frame on exit).
    DoNext {
        /// Loop-variable slot.
        var: u16,
        /// pc of the first body instruction.
        back: usize,
    },
}

/// A complete lowered SPMD program.
///
/// Its tables are boxed slices: a program is kept (and cached) far
/// longer than lowering takes, so it holds no room to grow.
#[derive(Debug, Clone)]
pub struct VmProgram {
    /// Logical grid shape.
    pub grid_shape: Box<[i64]>,
    /// Array table.
    pub arrays: Box<[ArrayDecl]>,
    /// Scalar slots (name, type), replicated.
    pub scalars: Box<[(String, ElemType)]>,
    /// Number of loop-variable slots.
    pub nvars: usize,
    /// Constant pool.
    pub consts: Box<[Value]>,
    /// Accessor table.
    pub accessors: Box<[AccPlan]>,
    /// Flat instruction stream.
    pub code: Box<[PInst]>,
    /// FORALL table.
    pub foralls: Box<[VmForall]>,
    /// Communication table (scalar targets are slots).
    pub comms: Box<[CommStmt<ExprCode, u16>]>,
    /// Runtime-call table.
    pub rtcalls: Box<[RtCall<ExprCode>]>,
    /// Print table.
    pub prints: Box<[Box<[PrintItem<ExprCode>]>]>,
    /// Native-tier kernel table ([`VmForall::native`] indexes into it).
    /// Empty when lowering ran with `native_kernels` off.
    pub natives: Box<[crate::native::NativeKernel]>,
}

impl VmProgram {
    /// Find an array id by name.
    pub fn array_id(&self, name: &str) -> Option<ArrId> {
        self.arrays.iter().position(|a| a.name == name)
    }

    /// Find a scalar slot by name.
    pub fn scalar_slot(&self, name: &str) -> Option<u16> {
        self.scalars
            .iter()
            .position(|(n, _)| n == name)
            .map(|i| i as u16)
    }

    /// Total number of expression ops across the program (diagnostics).
    pub fn op_count(&self) -> usize {
        fn code_ops(c: &ExprCode) -> usize {
            c.ops.len()
        }
        let mut n = 0;
        for i in &self.code {
            n += match i {
                PInst::ScalarAssign { rhs, .. } => code_ops(rhs),
                PInst::OwnerAssign { subs, rhs, .. } => {
                    subs.iter().map(code_ops).sum::<usize>() + code_ops(rhs)
                }
                PInst::BranchFalse { cond, .. } => code_ops(cond),
                PInst::DoStart { lb, ub, st, .. } => code_ops(lb) + code_ops(ub) + code_ops(st),
                _ => 0,
            };
        }
        for f in &self.foralls {
            n += f.mask.as_ref().map_or(0, code_ops);
            for v in &f.vars {
                n += code_ops(&v.lb) + code_ops(&v.ub) + code_ops(&v.st);
            }
            for b in &f.body {
                n += code_ops(&b.rhs) + b.subs.iter().map(code_ops).sum::<usize>();
            }
            for g in &f.gathers {
                n += g.subs.iter().map(code_ops).sum::<usize>();
            }
        }
        n
    }

    /// One-line shape summary (diagnostics / logs).
    pub fn summary(&self) -> String {
        format!(
            "{} insts, {} foralls ({} native), {} comms, {} rtcalls, {} arrays, {} accessors, {} expr ops",
            self.code.len(),
            self.foralls.len(),
            self.natives.len(),
            self.comms.len(),
            self.rtcalls.len(),
            self.arrays.len(),
            self.accessors.len(),
            self.op_count()
        )
    }
}
