//! Per-layer microbench for the bytecode tier's FORALL loop: ns per
//! iteration of the shapes the native tier refuses (a `MOD` fill, a
//! mask, CYCLIC subscripts, intrinsics) and of the Jacobi stencil with
//! the native tier switched off, at the repo benchmark's `stencil-ghost`
//! shape (256² on a 4×4 grid), plus the per-FORALL cost at the
//! `serve-cold` shape (N = 8 on 2×2). Every program lowers with
//! `native_kernels = false`, so each FORALL runs on the bytecode tier
//! whatever `native::select` would make of it. This is the number below
//! the job level that a change to the bytecode evaluator in
//! `f90d_vm` (its private `chunk` module) moves first.
//!
//! Reading the output (median of each line):
//!
//! * `n256_p4x4/*` — one sample is a `DO` of 16 executions of one
//!   FORALL over 256 × 256 (254 × 254 for the stencil), 1 048 576
//!   iterations through `Engine`, so **ms reads as ns per iteration**
//!   (+3 % for the stencil's smaller space). That is ns per element
//!   update everywhere but `masked_copy`, whose mask passes every other
//!   iteration; `stencil` includes its four ghost exchanges per FORALL.
//! * `n8_p2x2/mod_fill` — one sample is 1000 executions of the `MOD`
//!   fill over 8 × 8 (16 iterations per rank), so **ms reads as µs per
//!   FORALL**: bounds, iteration spaces, accessor resolution and
//!   per-rank set-up, not the loop.
//!
//! The file is written against `compile` + `Engine` only, so copying it
//! into an older checkout gives the *before* numbers.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use f90d_core::{compile, Backend, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{Machine, MachineSpec};
use f90d_vm::{Engine, VmProgram};

/// A program of two REAL `n × n` arrays under `dist` whose body is
/// `reps` executions of `forall`.
fn program(n: i64, dist: &str, reps: i64, forall: &str) -> String {
    format!(
        "
PROGRAM ROWS
INTEGER, PARAMETER :: N = {n}
REAL A(N, N), B(N, N)
INTEGER K
C$ TEMPLATE T(N, N)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
C$ DISTRIBUTE T({dist})
DO K = 1, {reps}
  {forall}
END DO
END
"
    )
}

const MOD_FILL: &str = "FORALL (I=1:N, J=1:N) A(I,J) = REAL(MOD(I*3 + J*5, 64))";

fn bench_program(c: &mut Criterion, group: &str, label: &str, src: &str, grid: &[i64]) {
    let mut opts = CompileOptions::on_grid(grid).with_backend(Backend::Vm);
    opts.opt.native_kernels = false;
    let prog: Arc<VmProgram> = compile(src, &opts)
        .and_then(|compiled| compiled.vm_program())
        .expect("compiles and lowers");
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(grid));
    let mut g = c.benchmark_group(group);
    g.sample_size(10);
    g.bench_function(label, |b| {
        b.iter(|| {
            let mut eng = Engine::new(prog.clone(), &mut m);
            black_box(eng.run(&mut m).expect("runs").elapsed);
            m.reset_time();
        })
    });
    g.finish();
}

fn bench_rows(c: &mut Criterion) {
    let shapes = [
        ("mod_fill", "BLOCK, BLOCK", MOD_FILL),
        (
            "masked_copy",
            "BLOCK, BLOCK",
            "FORALL (I=1:N, J=1:N, MOD(I + J, 2) .EQ. 0) A(I,J) = B(I,J)",
        ),
        (
            "stencil",
            "BLOCK, BLOCK",
            "FORALL (I=2:N-1, J=2:N-1) A(I,J) = 0.25*(B(I-1,J) + B(I+1,J) + B(I,J-1) + B(I,J+1))",
        ),
        (
            "sqrt_abs_fill",
            "BLOCK, BLOCK",
            "FORALL (I=1:N, J=1:N) A(I,J) = SQRT(ABS(REAL(I - J)))",
        ),
        (
            "cyclic_copy",
            "CYCLIC, CYCLIC",
            "FORALL (I=1:N, J=1:N) A(I,J) = B(I,J)",
        ),
    ];
    for (label, dist, forall) in shapes {
        let src = program(256, dist, 16, forall);
        bench_program(c, "n256_p4x4", label, &src, &[4, 4]);
    }
}

fn bench_small_forall(c: &mut Criterion) {
    let src = program(8, "BLOCK, BLOCK", 1000, MOD_FILL);
    bench_program(c, "n8_p2x2", "mod_fill", &src, &[2, 2]);
}

criterion_group!(benches, bench_rows, bench_small_forall);
criterion_main!(benches);
