//! End-to-end differential tests: every program is compiled to SPMD form,
//! executed on a simulated machine for several grid shapes, and the final
//! array contents are compared elementwise against the sequential
//! reference interpreter. This exercises the full paper pipeline —
//! partitioning, detection, communication generation, execution.

use std::collections::HashMap;

use f90d_core::reference::run_reference;
use f90d_core::{compile, CompileOptions, OptFlags};
use f90d_distrib::ProcGrid;
use f90d_machine::{ArrayData, Machine, MachineSpec};

/// Compile `src` on `grid`, seed `inits`, run, and compare every array
/// against the reference interpreter. Returns the print output.
fn differential(
    src: &str,
    grid: &[i64],
    inits: &HashMap<String, ArrayData>,
    opts: Option<CompileOptions>,
) -> Vec<String> {
    let mut o = opts.unwrap_or_default();
    o.grid_shape = Some(grid.to_vec());
    let compiled = compile(src, &o).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    let reference = run_reference(&compiled.analyzed, inits).expect("reference run");
    let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(grid));
    let mut ex = compiled.engine(&mut m).expect("lowers");
    for (name, data) in inits {
        assert!(ex.seed_array(&mut m, name, data), "unknown array {name}");
    }
    let report = ex
        .run(&mut m)
        .unwrap_or_else(|e| panic!("exec failed: {e}"));
    for (name, href) in &reference.arrays {
        let got = ex
            .gather_array(&mut m, name)
            .unwrap_or_else(|| panic!("array {name} missing after run"));
        assert_eq!(got.len(), href.data.len(), "size of {name}");
        for k in 0..got.len() {
            let (a, b) = (got.get(k), href.data.get(k));
            let ok = match (a, b) {
                (f90d_machine::Value::Real(x), f90d_machine::Value::Real(y)) => {
                    (x.is_nan() && y.is_nan()) || (x - y).abs() <= 1e-9 * (1.0 + y.abs())
                }
                (a, b) => a == b,
            };
            assert!(
                ok,
                "grid {grid:?}: {name}[{k}] = {a:?}, reference {b:?}\n--- source ---\n{src}"
            );
        }
    }
    assert_eq!(report.printed, reference.printed, "print output differs");
    report.printed
}

fn real_ramp(n: i64) -> ArrayData {
    ArrayData::Real((0..n).map(|x| (x * 7 % 23) as f64 - 5.0).collect())
}

fn grids_1d() -> Vec<Vec<i64>> {
    vec![vec![1], vec![2], vec![4], vec![5]]
}

// ---- canonical FORALL / shifts (paper §4 example 1) -----------------------

#[test]
fn jacobi_1d_block_overlap_shift() {
    let src = "
PROGRAM JAC
INTEGER, PARAMETER :: N = 24
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=2:N-1) A(I) = 0.5*(B(I-1) + B(I+1))
END
";
    let inits = HashMap::from([("B".to_string(), real_ramp(24))]);
    for g in grids_1d() {
        differential(src, &g, &inits, None);
    }
}

#[test]
fn jacobi_2d_block_block() {
    let src = "
PROGRAM JAC2
INTEGER, PARAMETER :: N = 10
REAL A(N,N), B(N,N)
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ DISTRIBUTE T(BLOCK,BLOCK)
FORALL (I=1:N, J=1:N) B(I,J) = REAL(I*3 + J)
FORALL (I=2:N-1, J=2:N-1) A(I,J) = 0.25*(B(I-1,J)+B(I+1,J)+B(I,J-1)+B(I,J+1))
END
";
    let inits = HashMap::new();
    for g in [vec![1, 1], vec![2, 2], vec![2, 3], vec![4, 1]] {
        differential(src, &g, &inits, None);
    }
}

#[test]
fn shifts_on_cyclic_use_temporaries() {
    let src = "
PROGRAM CYC
INTEGER, PARAMETER :: N = 17
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(CYCLIC)
FORALL (I=1:N-3) A(I) = B(I+3) - B(I)
END
";
    let inits = HashMap::from([("B".to_string(), real_ramp(17))]);
    for g in grids_1d() {
        differential(src, &g, &inits, None);
    }
}

#[test]
fn runtime_shift_amount_temporary_shift() {
    let src = "
PROGRAM TSH
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N)
INTEGER S
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
S = 5
FORALL (I=1:N-5) A(I) = B(I+S)
END
";
    let inits = HashMap::from([("B".to_string(), real_ramp(16))]);
    for g in grids_1d() {
        differential(src, &g, &inits, None);
    }
}

// ---- multicast / transfer (paper §5.3.1 examples 1 and 2) -----------------

#[test]
fn transfer_column_to_column() {
    let src = "
PROGRAM XFER
INTEGER, PARAMETER :: N = 8
REAL A(N,N), B(N,N)
C$ PROCESSORS P(2,2)
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ DISTRIBUTE T(BLOCK,BLOCK)
FORALL (I=1:N) A(I,8) = B(I,3)
END
";
    let inits = HashMap::from([(
        "B".to_string(),
        ArrayData::Real((0..64).map(|x| x as f64).collect()),
    )]);
    for g in [vec![2, 2], vec![1, 4], vec![4, 2]] {
        differential(src, &g, &inits, None);
    }
}

#[test]
fn multicast_along_grid_dim() {
    let src = "
PROGRAM MC
INTEGER, PARAMETER :: N = 8
REAL A(N,N), B(N,N)
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ DISTRIBUTE T(BLOCK,BLOCK)
FORALL (I=1:N, J=1:N) A(I,J) = B(I,3)
END
";
    let inits = HashMap::from([(
        "B".to_string(),
        ArrayData::Real((0..64).map(|x| (x * x % 31) as f64).collect()),
    )]);
    for g in [vec![2, 2], vec![1, 4], vec![2, 3]] {
        differential(src, &g, &inits, None);
    }
}

#[test]
fn multicast_shift_fused_and_unfused() {
    let src = "
PROGRAM MCS
INTEGER, PARAMETER :: N = 8
REAL A(N,N), B(N,N)
INTEGER S
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ DISTRIBUTE T(BLOCK,BLOCK)
S = 2
FORALL (I=1:N, J=1:N-2) A(I,J) = B(3,J+S)
END
";
    let inits = HashMap::from([(
        "B".to_string(),
        ArrayData::Real((0..64).map(|x| (x % 13) as f64 * 1.5).collect()),
    )]);
    for fused in [true, false] {
        let mut opts = CompileOptions::default();
        opts.opt.fuse_multicast_shift = fused;
        for g in [vec![2, 2], vec![2, 4]] {
            differential(src, &g, &inits, Some(opts.clone()));
        }
    }
}

// ---- unstructured (paper §5.3.2 examples 1–3, Table 2) --------------------

#[test]
fn precomp_read_invertible_subscript() {
    let src = "
PROGRAM PCR
INTEGER, PARAMETER :: N = 10
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:4) A(I) = B(2*I+1)
END
";
    let inits = HashMap::from([("B".to_string(), real_ramp(10))]);
    for g in grids_1d() {
        differential(src, &g, &inits, None);
    }
}

#[test]
fn gather_vector_subscript() {
    let src = "
PROGRAM GAT
INTEGER, PARAMETER :: N = 12
REAL A(N), B(N)
INTEGER V(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(I) = B(V(I))
END
";
    // V replicated (no directives): a permutation, 1-based contents.
    let v: Vec<i64> = (0..12).map(|i| (i * 5) % 12 + 1).collect();
    let inits = HashMap::from([
        ("B".to_string(), real_ramp(12)),
        ("V".to_string(), ArrayData::Int(v)),
    ]);
    for g in grids_1d() {
        differential(src, &g, &inits, None);
    }
}

#[test]
fn scatter_vector_valued_lhs() {
    let src = "
PROGRAM SCA
INTEGER, PARAMETER :: N = 12
REAL A(N), B(N)
INTEGER U(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(U(I)) = B(I)
END
";
    let u: Vec<i64> = (0..12).map(|i| (i * 7) % 12 + 1).collect();
    let inits = HashMap::from([
        ("B".to_string(), real_ramp(12)),
        ("U".to_string(), ArrayData::Int(u)),
    ]);
    for g in grids_1d() {
        differential(src, &g, &inits, None);
    }
}

#[test]
fn fft_style_non_canonical_lhs() {
    // Paper §4 example 2: lhs index uses two forall variables.
    let src = "
PROGRAM FFT
INTEGER, PARAMETER :: INCRM = 2, NX = 8
REAL X(32), TERM(32)
C$ TEMPLATE T(32)
C$ ALIGN X(I) WITH T(I)
C$ ALIGN TERM(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:INCRM, J=1:NX/2)&
& X(I+J*INCRM*2-INCRM) = TERM(I+J*INCRM*2-INCRM) + X(I+J*INCRM*2)
END
";
    let inits = HashMap::from([
        ("X".to_string(), real_ramp(32)),
        (
            "TERM".to_string(),
            ArrayData::Real((0..32).map(|x| 0.25 * x as f64).collect()),
        ),
    ]);
    for g in grids_1d() {
        differential(src, &g, &inits, None);
    }
}

// ---- Algorithm 1 step 11: undistributed LHS → concatenation ---------------

#[test]
fn replicated_lhs_concatenates_rhs() {
    let src = "
PROGRAM REP
INTEGER, PARAMETER :: N = 10
REAL A(N), M(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) M(I) = A(I) * 2.0
END
";
    let inits = HashMap::from([("A".to_string(), real_ramp(10))]);
    for g in grids_1d() {
        differential(src, &g, &inits, None);
    }
    // And the compiler must have emitted a concatenation.
    let mut o = CompileOptions::on_grid(&[4]);
    o.opt = OptFlags::default();
    let compiled = compile(src, &o).unwrap();
    assert_eq!(compiled.spmd.comm_census().get("concatenation"), Some(&1));
}

// ---- masks and WHERE -------------------------------------------------------

#[test]
fn masked_forall_and_where() {
    let src = "
PROGRAM MSK
INTEGER, PARAMETER :: N = 14
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N, B(I) > 0.0) A(I) = B(I)
WHERE (B < 0.0)
A = -B
ELSEWHERE
A = A + 1.0
END WHERE
END
";
    let inits = HashMap::from([("B".to_string(), real_ramp(14))]);
    for g in grids_1d() {
        differential(src, &g, &inits, None);
    }
}

// ---- scalar context: reductions, broadcasts, control flow ------------------

#[test]
fn reductions_into_replicated_scalars() {
    let src = "
PROGRAM RED
INTEGER, PARAMETER :: N = 20
REAL A(N), S, MX
C$ DISTRIBUTE A(BLOCK)
FORALL (I=1:N) A(I) = REAL(I*I - 7*I)
S = SUM(A) / REAL(N)
MX = MAXVAL(A) - MINVAL(A)
PRINT *, S, MX
END
";
    let inits = HashMap::new();
    for g in grids_1d() {
        let printed = differential(src, &g, &inits, None);
        assert_eq!(printed.len(), 1);
    }
}

#[test]
fn broadcast_element_in_scalar_context() {
    let src = "
PROGRAM BCE
INTEGER, PARAMETER :: N = 12
REAL A(N), PIV
C$ DISTRIBUTE A(BLOCK)
FORALL (I=1:N) A(I) = REAL(I) * 3.0
PIV = A(7) + A(2)
PRINT *, PIV
END
";
    for g in grids_1d() {
        differential(src, &g, &HashMap::new(), None);
    }
}

#[test]
fn do_loop_with_distributed_updates() {
    let src = "
PROGRAM DOL
INTEGER, PARAMETER :: N = 12
REAL A(N)
INTEGER K
C$ DISTRIBUTE A(BLOCK)
FORALL (I=1:N) A(I) = 1.0
DO K = 1, 4
  FORALL (I=1:N) A(I) = A(I) * 2.0 + REAL(K)
END DO
END
";
    for g in grids_1d() {
        differential(src, &g, &HashMap::new(), None);
    }
}

#[test]
fn if_and_element_assignment() {
    let src = "
PROGRAM IFE
INTEGER, PARAMETER :: N = 9
REAL A(N), S
C$ DISTRIBUTE A(CYCLIC)
FORALL (I=1:N) A(I) = REAL(I)
S = SUM(A)
IF (S > 40.0) THEN
  A(3) = -1.0
ELSE
  A(4) = -2.0
END IF
END
";
    for g in grids_1d() {
        differential(src, &g, &HashMap::new(), None);
    }
}

// ---- distributions: cyclic(k), alignment offsets ----------------------------

#[test]
fn block_cyclic_distribution() {
    let src = "
PROGRAM BCY
INTEGER, PARAMETER :: N = 20
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(CYCLIC(3))
FORALL (I=1:N) A(I) = B(I) + 1.0
END
";
    let inits = HashMap::from([("B".to_string(), real_ramp(20))]);
    for g in grids_1d() {
        differential(src, &g, &inits, None);
    }
}

#[test]
fn alignment_offset_shift_detection() {
    // A aligned to T(I+2): A(i) and B(i) land two template cells apart.
    let src = "
PROGRAM OFS
INTEGER, PARAMETER :: N = 12
REAL A(N), B(N)
C$ TEMPLATE T(14)
C$ ALIGN A(I) WITH T(I+2)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(I) = B(I)
END
";
    let inits = HashMap::from([("B".to_string(), real_ramp(12))]);
    for g in grids_1d() {
        differential(src, &g, &inits, None);
    }
}

#[test]
fn column_distribution_star_block() {
    // The Table 4 layout: (*, BLOCK).
    let src = "
PROGRAM COL
INTEGER, PARAMETER :: N = 8
REAL A(N,N)
INTEGER K
C$ DISTRIBUTE A(*, BLOCK)
FORALL (I=1:N, J=1:N) A(I,J) = 1.0/REAL(I+J-1)
DO K = 1, N-1
  FORALL (I=K+1:N, J=K+1:N) A(I,J) = A(I,J) - A(I,K)/A(K,K)*A(K,J)
END DO
END
";
    for g in [vec![1], vec![2], vec![4], vec![8]] {
        differential(src, &g, &HashMap::new(), None);
    }
}

// ---- subroutines and redistribution ----------------------------------------

#[test]
fn call_with_matching_mapping_aliases() {
    let src = "
PROGRAM MAIN
INTEGER, PARAMETER :: N = 8
REAL A(N)
C$ DISTRIBUTE A(BLOCK)
FORALL (I=1:N) A(I) = REAL(I)
CALL DOUBLEIT(A)
END
SUBROUTINE DOUBLEIT(X)
INTEGER, PARAMETER :: N = 8
REAL X(N)
C$ DISTRIBUTE X(BLOCK)
FORALL (I=1:N) X(I) = X(I) * 2.0
END
";
    for g in grids_1d() {
        differential(src, &g, &HashMap::new(), None);
    }
}

#[test]
fn call_with_different_mapping_redistributes() {
    let src = "
PROGRAM MAIN
INTEGER, PARAMETER :: N = 12
REAL A(N)
C$ DISTRIBUTE A(BLOCK)
FORALL (I=1:N) A(I) = REAL(I)
CALL ADDONE(A)
END
SUBROUTINE ADDONE(X)
INTEGER, PARAMETER :: N = 12
REAL X(N)
C$ DISTRIBUTE X(CYCLIC)
FORALL (I=1:N) X(I) = X(I) + 1.0
END
";
    for g in grids_1d() {
        differential(src, &g, &HashMap::new(), None);
    }
    // Entry + exit remap copies must be present.
    let compiled = compile(src, &CompileOptions::on_grid(&[4])).unwrap();
    let remaps = compiled
        .spmd
        .stmts
        .iter()
        .filter(|s| {
            matches!(
                s,
                f90d_core::ir::SStmt::Runtime(f90d_core::ir::RtCall::RemapCopy { .. })
            )
        })
        .count();
    assert_eq!(remaps, 2);
}

#[test]
fn executable_redistribute() {
    let src = "
PROGRAM RED
INTEGER, PARAMETER :: N = 16
REAL A(N)
C$ DISTRIBUTE A(BLOCK)
FORALL (I=1:N) A(I) = REAL(I*I)
C$ REDISTRIBUTE A(CYCLIC)
FORALL (I=1:N) A(I) = A(I) + 1.0
END
";
    for g in grids_1d() {
        differential(src, &g, &HashMap::new(), None);
    }
}

// ---- array-valued intrinsic statements -------------------------------------

#[test]
fn cshift_statement() {
    let src = "
PROGRAM CSH
INTEGER, PARAMETER :: N = 10
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(I) = REAL(I)
B = CSHIFT(A, 3)
END
";
    for g in grids_1d() {
        differential(src, &g, &HashMap::new(), None);
    }
}

#[test]
fn transpose_and_matmul_statements() {
    let src = "
PROGRAM TMM
INTEGER, PARAMETER :: N = 6
REAL A(N,N), B(N,N), C(N,N)
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ ALIGN C(I,J) WITH T(I,J)
C$ DISTRIBUTE T(BLOCK,BLOCK)
FORALL (I=1:N, J=1:N) A(I,J) = REAL(I + J*J)
B = TRANSPOSE(A)
C = MATMUL(A, B)
END
";
    for g in [vec![1, 1], vec![2, 2], vec![3, 2]] {
        differential(src, &g, &HashMap::new(), None);
    }
}

// ---- optimization equivalence ----------------------------------------------

#[test]
fn optimizations_do_not_change_results() {
    let src = "
PROGRAM OPT
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N)
INTEGER K
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
DO K = 1, 3
  FORALL (I=1:N-3) A(I) = B(I+2) + B(I+3)
END DO
END
";
    let mut all_on = CompileOptions::default();
    all_on.opt = OptFlags::default();
    let mut all_off = CompileOptions::default();
    all_off.opt = OptFlags::none();
    for opts in [all_on, all_off] {
        for g in grids_1d() {
            differential(src, &g, &HashMap::new(), Some(opts.clone()));
        }
    }
}

#[test]
fn shift_union_elimination_reduces_comm() {
    // §7(2): A(I)=B(I+2)+B(I+3) needs one shift, not two.
    let src = "
PROGRAM UNI
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N-3) A(I) = B(I+2) + B(I+3)
END
";
    let mut on = CompileOptions::on_grid(&[4]);
    on.opt.merge_comm = true;
    let mut off = CompileOptions::on_grid(&[4]);
    off.opt.merge_comm = false;
    let c_on = compile(src, &on).unwrap();
    let c_off = compile(src, &off).unwrap();
    assert_eq!(c_on.spmd.comm_census()["overlap_shift"], 1);
    assert_eq!(c_off.spmd.comm_census()["overlap_shift"], 2);
}

#[test]
fn ge_kernel_multicast_dedup() {
    // The Gaussian-elimination kernel: A(I,K) and A(K,K) share one column
    // multicast when merge_comm is on — the paper's "extra communication
    // call that can be eliminated".
    let src = "
PROGRAM GEK
INTEGER, PARAMETER :: N = 8
REAL A(N,N)
INTEGER K
C$ DISTRIBUTE A(*, BLOCK)
FORALL (I=1:N, J=1:N) A(I,J) = REAL(I+J) + 0.1
DO K = 1, N-1
  FORALL (I=K+1:N, J=K+1:N) A(I,J) = A(I,J) - A(I,K)/A(K,K)*A(K,J)
END DO
END
";
    let mut on = CompileOptions::on_grid(&[4]);
    on.opt.merge_comm = true;
    let mut off = CompileOptions::on_grid(&[4]);
    off.opt.merge_comm = false;
    assert_eq!(
        compile(src, &on).unwrap().spmd.comm_census()["multicast"],
        1
    );
    assert_eq!(
        compile(src, &off).unwrap().spmd.comm_census()["multicast"],
        2
    );
}

#[test]
fn invariant_comm_hoisted_out_of_do() {
    let src = "
PROGRAM HOI
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N), C(N)
INTEGER K
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
DO K = 1, 5
  FORALL (I=1:N-1) A(I) = A(I) + B(I+1)
END DO
END
";
    let mut on = CompileOptions::on_grid(&[4]);
    on.opt.hoist_invariant_comm = true;
    let compiled = compile(src, &on).unwrap();
    // The overlap shift of B is K-invariant (B never written in the loop)
    // and must sit at top level, not inside the DO.
    let top_level_comm = compiled
        .spmd
        .stmts
        .iter()
        .filter(|s| matches!(s, f90d_core::ir::SStmt::Comm(_)))
        .count();
    assert_eq!(top_level_comm, 1, "shift not hoisted");
    // And the result still matches.
    for g in grids_1d() {
        differential(src, &g, &HashMap::new(), Some(on.clone()));
    }
}

// ---- generated code shape (golden substrings, paper §5.3) -------------------

#[test]
fn fortran77_output_matches_paper_shapes() {
    let src = "
PROGRAM SHAPES
INTEGER, PARAMETER :: N = 8
REAL A(N,N), B(N,N)
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ DISTRIBUTE T(BLOCK,BLOCK)
FORALL (I=1:N, J=1:N) A(I,J) = B(I,3)
END
";
    let compiled = compile(src, &CompileOptions::on_grid(&[2, 2])).unwrap();
    let f77 = compiled.fortran77();
    assert!(f77.contains("call multicast("), "{f77}");
    assert!(f77.contains("call set_BOUND("), "{f77}");
    assert!(f77.contains("DO "), "{f77}");
    let src2 = "
PROGRAM SHAPE2
INTEGER, PARAMETER :: N = 8
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:4) A(I) = B(2*I+1)
END
";
    let c2 = compile(src2, &CompileOptions::on_grid(&[4])).unwrap();
    let f77 = c2.fortran77();
    assert!(f77.contains("schedule1("), "{f77}");
    assert!(f77.contains("call precomp_read(isch"), "{f77}");
}
