//! # f90d-bench — the evaluation harness
//!
//! Regenerates every table and figure of the paper's evaluation (§8) plus
//! the §7 optimization ablations (README.md, "Reproducing the paper's
//! evaluation"):
//!
//! * [`workloads`] — the Fortran 90D/HPF benchmark programs (Gaussian
//!   elimination from the Fortran D benchmark suite, Jacobi, the FFT
//!   butterfly, an irregular kernel), re-exported from `f90d-progen`,
//!   where the tests below this crate take them too;
//! * [`handwritten`] — the hand-coded "Fortran 77 + MP" Gaussian
//!   elimination baseline of Table 4, written directly against the
//!   run-time system;
//! * [`experiments`] — runners producing each table/figure's series;
//! * [`report`] — the one shape every `repro` experiment returns (table,
//!   `--out` document, gates) and its two renderings;
//! * [`scaling`] — the thousand-rank weak-scaling experiment
//!   (`repro --exp scaling`): jacobi and gaussian at 16–4096 ranks on
//!   hypercube vs torus vs fat tree, with the per-link contention model
//!   off and on;
//! * [`harness`] — the parallel experiment-matrix
//!   harness behind `repro --jobs N`, with `results.json` emission and
//!   the `--baseline` CI perf gate.
//!
//! `cargo run -p f90d-bench --bin repro --release` prints every
//! reproduction; `cargo bench -p f90d-bench --bench <native_rows |
//! bytecode_rows | comm_path | irregular_path>` times one layer below
//! the job level.

pub mod experiments;
pub mod handwritten;
pub mod harness;
pub mod report;
pub mod scaling;
pub use f90d_progen::workloads;
