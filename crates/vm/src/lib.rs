//! # f90d-vm — register-bytecode execution engine for SPMD node programs
//!
//! The tree-walking executor in `f90d-core` re-dispatches on the IR enum
//! for every element of every FORALL on every node. This crate is the
//! standard interpreter→bytecode step: the compiler lowers each node
//! program once into a compact register bytecode ([`bytecode::VmProgram`])
//! — flat instruction streams, resolved array/scalar/loop-variable slots,
//! constant-folded affine subscript forms — and the [`engine::Engine`]
//! runs it: a flat fetch/decode loop over the statements, and every
//! FORALL a chunk of iterations at a time over typed columns
//! (vectorized interpretation: one operator dispatch per chunk, then a
//! loop over `&[i64]` / `&[f64]` / `&[bool]` slices), charging the
//! **same** virtual-time cost model as the tree walker, under both
//! sequential and threaded local-phase execution.
//!
//! Layering: this crate sits beside the runtime — it depends on the
//! machine, mapping, communication and runtime crates but *not* on the
//! compiler. The lowering pass (tree IR → bytecode) lives in
//! `f90d-core::vmlower`; selecting the backend happens through
//! `CompileOptions::backend` there. FORALL communication — ghost
//! exchanges, phase batching, the overlap split, schedule selection,
//! quiescence — is *not* re-implemented here: the engine drives the
//! shared `f90d_comm::driver` (plugging in element evaluation through
//! its `ComputeSink` contract), exactly like the tree walker, so the
//! two backends sequence communication from one code path.
//!
//! Because `f90d-core` depends on this crate, it is also where the two
//! executors' common **statement layer** lives: the collective /
//! runtime-call / loop-spec node types, generic over the expression
//! representation, and the one implementation of every run-time
//! operation that does not depend on how an expression is evaluated.
//!
//! * [`stmt`] — statement-level node types shared by the tree IR and
//!   the bytecode (`CommStmt<E, N>`, `RtCall<E>`, `LoopSpec<E, N>`, …).
//! * [`dispatch`] — their run-time half: collective and runtime-library
//!   dispatch, array allocation, `set_BOUND` iteration partitioning,
//!   overlap eligibility — called by both executors.
//! * [`bytecode`] — instruction set, expression code, program tables.
//! * [`engine`] — the execution engine (same API as the tree walker's
//!   `Executor`: seed, run, gather, scalar inspection).
//! * [`native`] — the third tier: FORALL superinstructions selected at
//!   lowering time and monomorphized into prebuilt Rust closures; the
//!   engine dispatches to them per execution and falls back to bytecode
//!   when a kernel's preconditions fail.
//! * [`ops`] — value-level operator semantics, shared with the tree
//!   walker so the two backends cannot diverge; the engine's column
//!   operators (the private `columns` module) are their chunk forms and
//!   are unit-tested against them arm by arm.
//! * [`cache`] — the `fnv1a` content hash (the program cache itself is
//!   `f90d_core::vm_cache()`).

#![warn(missing_docs)]

pub mod bytecode;
pub mod cache;
mod columns;
pub mod dispatch;
pub mod engine;
pub mod native;
pub mod ops;
pub mod stmt;

pub use bytecode::VmProgram;
pub use engine::{Engine, RunReport, VmError};
