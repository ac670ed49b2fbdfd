//! # fortran90d — a Rust reproduction of the Fortran 90D/HPF compiler
//!
//! This facade crate re-exports every component of the reproduction of
//! *"Fortran 90D/HPF Compiler for Distributed Memory MIMD Computers"*
//! (Bozkus, Choudhary, Fox, Haupt, Ranka — Supercomputing '93):
//!
//! * [`distrib`] — three-stage data mapping (ALIGN / DISTRIBUTE / grid).
//! * [`machine`] — simulated distributed-memory MIMD machine with
//!   iPSC/860 and nCUBE/2 cost models, plus a threaded executor.
//! * [`comm`] — the collective communication library (structured and
//!   unstructured/PARTI-style primitives).
//! * [`runtime`] — distributed arrays and the parallel intrinsics of the
//!   paper's Table 3.
//! * [`frontend`] — Fortran 90D/HPF lexer, parser, semantic analysis, and
//!   normalization to FORALL form.
//! * [`compiler`] — the compiler itself: partitioning, communication
//!   detection/generation, optimizations, SPMD code generation, lowering
//!   to bytecode, and the sequential reference interpreter.
//! * [`vm`] — the execution engine: the lowered node program runs
//!   loosely synchronously over the simulated machine, FORALLs on native
//!   kernels where their bodies are affine and a chunk at a time on
//!   bytecode otherwise.
//!
//! ```
//! use fortran90d::compiler::{compile, CompileOptions};
//! use fortran90d::distrib::ProcGrid;
//! use fortran90d::machine::{Machine, MachineSpec, Value};
//!
//! let src = "
//! PROGRAM SQUARES
//! REAL A(8)
//! C$ DISTRIBUTE A(BLOCK)
//! FORALL (I=1:8) A(I) = REAL(I*I)
//! END
//! ";
//! let compiled = compile(src, &CompileOptions::on_grid(&[4])).unwrap();
//! let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[4]));
//! // `compiled.run_on(&mut m)` runs it; an engine also seeds and gathers.
//! let mut engine = compiled.engine(&mut m).unwrap();
//! let report = engine.run(&mut m).unwrap();
//! assert!(report.elapsed > 0.0);
//! let a = engine.gather_array(&mut m, "A").unwrap();
//! assert_eq!(a.get(2), Value::Real(9.0));
//! ```
//!
//! See `README.md` for a quickstart and `ARCHITECTURE.md` for
//! the system inventory and the paper-reproduction index.

pub use f90d_comm as comm;
pub use f90d_core as compiler;
pub use f90d_distrib as distrib;
pub use f90d_frontend as frontend;
pub use f90d_machine as machine;
pub use f90d_runtime as runtime;
pub use f90d_vm as vm;
