//! Communication–computation overlap (`OptFlags::comm_compute_overlap`):
//! split-phase stencil execution must strictly lower modelled virtual
//! time on communication-bound Jacobi cells while keeping array results
//! and PRINT output bit-identical — on both machine models and both
//! execution tiers. Also covers the transport's end-of-run quiescence
//! check surfacing as `ExecError`. The split-phase clocks themselves are
//! pinned by the `overlap` line of every `corpus/*.virt`.

mod common;

use common::{observe_on, Observed, Tier};
use f90d_core::{compile, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{ArrayData, ExecMode, Machine, MachineSpec, Transport};

// Local copies of the benchmark workloads (`f90d-bench` sits above this
// crate in the dependency graph, so the sources are inlined here).
mod workloads {
    pub fn jacobi(n: i64, iters: i64) -> String {
        format!(
            "
PROGRAM JACOBI
INTEGER, PARAMETER :: N = {n}
REAL A(N, N), B(N, N)
INTEGER IT
C$ TEMPLATE T(N, N)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
C$ DISTRIBUTE T(BLOCK, BLOCK)
FORALL (I=1:N, J=1:N) B(I,J) = REAL(I+J)
FORALL (I=1:N, J=1:N) A(I,J) = 0.0
DO IT = 1, {iters}
  FORALL (I=2:N-1, J=2:N-1)&
&   A(I,J) = 0.25*(B(I-1,J)+B(I+1,J)+B(I,J-1)+B(I,J+1))
  FORALL (I=2:N-1, J=2:N-1) B(I,J) = A(I,J)
END DO
END
"
        )
    }

    pub fn gaussian(n: i64) -> String {
        format!(
            "
PROGRAM GAUSS
INTEGER, PARAMETER :: N = {n}
REAL A(N, N)
INTEGER K
C$ DISTRIBUTE A(*, BLOCK)
FORALL (I=1:N, J=1:N) A(I,J) = 1.0/REAL(I+J-1)
FORALL (I=1:N) A(I,I) = A(I,I) + 2.0
DO K = 1, N-1
  FORALL (I=K+1:N, J=K+1:N) A(I,J) = A(I,J) - A(I,K)/A(K,K)*A(K,J)
END DO
END
"
        )
    }

    pub fn irregular(n: i64) -> String {
        format!(
            "
PROGRAM IRREG
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N), C(N)
INTEGER U(N), V(N)
INTEGER IT
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) C(I) = REAL(N - I)
FORALL (I=1:N) U(I) = MOD(I*7, N) + 1
FORALL (I=1:N) V(I) = MOD(I*11, N) + 1
DO IT = 1, 4
  FORALL (I=1:N) A(U(I)) = B(V(I)) + C(I)
END DO
END
"
        )
    }
}

fn run(
    src: &str,
    grid: &[i64],
    spec: &MachineSpec,
    tier: Tier,
    overlap: bool,
    arrays: &[&str],
) -> Observed {
    observe_on(
        spec,
        src,
        grid,
        arrays,
        tier,
        ExecMode::Sequential,
        &|opts| opts.opt.comm_compute_overlap = overlap,
    )
    .expect("runs")
    .0
}

#[test]
fn overlap_lowers_virtual_time_bit_identical_results() {
    let src = workloads::jacobi(48, 3);
    for spec in [MachineSpec::ipsc860(), MachineSpec::ncube2()] {
        for tier in [Tier::Bytecode, Tier::Native] {
            let block = run(&src, &[2, 2], &spec, tier, false, &["A", "B"]);
            let over = run(&src, &[2, 2], &spec, tier, true, &["A", "B"]);
            assert!(
                over.elapsed() < block.elapsed(),
                "{} {tier:?}: overlap {} must beat blocking {}",
                spec.name,
                over.elapsed(),
                block.elapsed()
            );
            assert_eq!(over.messages, block.messages, "same messages either way");
            assert_eq!(over.bytes, block.bytes, "same bytes either way");
            assert_eq!(over.printed, block.printed, "same PRINT either way");
            assert_eq!(over.arrays, block.arrays, "arrays must be bit-identical");
            assert_eq!(over.cells, block.cells, "ghost cells included");
        }
    }
}

#[test]
fn overlap_tiers_agree_bit_exactly() {
    let src = workloads::jacobi(32, 2);
    for spec in [MachineSpec::ipsc860(), MachineSpec::ncube2()] {
        assert_eq!(
            run(&src, &[2, 2], &spec, Tier::Bytecode, true, &["A", "B"]),
            run(&src, &[2, 2], &spec, Tier::Native, true, &["A", "B"]),
            "{}: overlap clocks, messages, bytes, PRINT and arrays must agree across tiers",
            spec.name
        );
    }
}

#[test]
fn overlap_flag_is_inert_for_non_stencil_programs() {
    // Gaussian elimination (multicast preludes) and the irregular kernel
    // (gather/scatter schedules) have no overlap-eligible FORALL: the
    // flag must change nothing, bit for bit.
    for src in [workloads::gaussian(24), workloads::irregular(64)] {
        for tier in [Tier::Bytecode, Tier::Native] {
            let spec = MachineSpec::ipsc860();
            assert_eq!(
                run(&src, &[4], &spec, tier, false, &[]),
                run(&src, &[4], &spec, tier, true, &[]),
                "{tier:?}"
            );
        }
    }
}

#[test]
fn overlap_single_rank_matches_blocking() {
    // On one rank every ghost move is a local copy performed at post
    // time; overlap mode must still produce identical arrays and not
    // increase time.
    let src = workloads::jacobi(24, 2);
    let spec = MachineSpec::ipsc860();
    let block = run(&src, &[1, 1], &spec, Tier::Native, false, &["A", "B"]);
    let over = run(&src, &[1, 1], &spec, Tier::Native, true, &["A", "B"]);
    assert_eq!(block.arrays, over.arrays);
    assert!(over.elapsed() <= block.elapsed());
}

#[test]
fn leaked_message_surfaces_as_exec_error() {
    // The end-of-run quiescence check: a message posted outside the
    // compiled program (never received) must fail the run with a
    // structured error, not be silently dropped.
    let src = workloads::jacobi(12, 1);
    let compiled = compile(&src, &CompileOptions::on_grid(&[2, 2])).unwrap();
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[2, 2]));
    m.transport
        .post_send(0, 1, 999_999, ArrayData::Real(vec![1.0]));
    let mut eng = compiled.engine(&mut m).unwrap();
    let err = eng.run(&mut m).unwrap_err();
    assert!(
        err.0.contains("not quiescent"),
        "expected quiescence failure, got: {err}"
    );
}
