//! # f90d-vm — the execution engine for compiled SPMD node programs
//!
//! The compiler lowers each node program once into a compact register
//! bytecode ([`bytecode::VmProgram`]) — flat instruction streams,
//! resolved array/scalar/loop-variable slots, constant-folded affine
//! subscript forms — and the [`engine::Engine`] runs it: a flat
//! fetch/decode loop over the statements, and every FORALL on one of two
//! tiers. A body the [`native`] tier selected at lowering time runs as
//! prebuilt monomorphized kernels over boxes of the iteration space; any
//! other runs a chunk of iterations at a time over typed columns
//! (vectorized interpretation: one operator dispatch per chunk, then a
//! loop over `&[i64]` / `&[f64]` / `&[bool]` slices). Both charge the
//! same virtual-time cost model — virtual time is a property of the node
//! program, not of the tier — under both sequential and threaded
//! local-phase execution.
//!
//! Layering: this crate sits beside the runtime — it depends on the
//! machine, mapping, communication and runtime crates but *not* on the
//! compiler. The lowering pass (tree IR → bytecode) lives in
//! `f90d-core::vmlower`, and `Compiled::engine` there builds a configured
//! engine. FORALL communication — ghost exchanges, phase batching, the
//! overlap split, schedule selection, quiescence — is *not* implemented
//! here: the engine drives `f90d_comm::driver`, plugging in element
//! evaluation through its `ComputeSink` contract.
//!
//! Because `f90d-core` depends on this crate, it is also where the
//! **statement layer** that the compiler's tree IR and the bytecode share
//! lives: the collective / runtime-call / loop-spec node types, generic
//! over the expression representation, and the one implementation of
//! every run-time operation that does not depend on how an expression is
//! evaluated.
//!
//! * [`stmt`] — statement-level node types shared by the tree IR and
//!   the bytecode (`CommStmt<E, N>`, `RtCall<E>`, `LoopSpec<E, N>`, …).
//! * [`dispatch`] — their run-time half: collective and runtime-library
//!   dispatch, array allocation, `set_BOUND` iteration partitioning,
//!   overlap eligibility.
//! * [`bytecode`] — instruction set, expression code, program tables.
//! * [`engine`] — the execution engine: seed, run, gather, scalar
//!   inspection; the statement stream and the per-run tables. A FORALL
//!   runs in the private modules `chunk` (the bytecode tier) or `bind`
//!   and `boxes` (the native tier: fold and bind, then the box run).
//! * [`native`] — the native tier: FORALL superinstructions selected at
//!   lowering time and monomorphized into prebuilt Rust closures; the
//!   engine dispatches to them per execution and falls back to bytecode
//!   when a kernel's preconditions fail.
//! * [`ops`] — value-level operator semantics, shared with the
//!   sequential reference interpreter; the column operators (the
//!   private `columns` module, the one operator table under both
//!   tiers) are their column forms, unit-tested against them arm by arm.
//! * [`cache`] — the `fnv1a` content hash (the program cache itself is
//!   `f90d_core::vm_cache()`).

#![warn(missing_docs)]

mod bind;
mod boxes;
pub mod bytecode;
pub mod cache;
mod chunk;
mod columns;
pub mod dispatch;
pub mod engine;
pub mod native;
pub mod ops;
pub mod stmt;

pub use bytecode::VmProgram;
pub use engine::{Engine, RunReport, VmError};
