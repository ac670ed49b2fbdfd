//! Second differential batch: elementals, EOSHIFT, FORALL constructs,
//! strided iteration spaces, Gray-code machine grids, scalar control
//! flow around distributed state.

use std::collections::HashMap;

use f90d_core::reference::run_reference;
use f90d_core::{compile, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{ArrayData, Machine, MachineSpec};

fn differential(src: &str, grid: &[i64], inits: &HashMap<String, ArrayData>) -> Vec<String> {
    let o = CompileOptions::on_grid(grid);
    let compiled = compile(src, &o).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    let reference = run_reference(&compiled.analyzed, inits).expect("reference run");
    let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(grid));
    let mut ex = compiled.engine(&mut m).expect("lowers");
    for (name, data) in inits {
        assert!(ex.seed_array(&mut m, name, data), "unknown array {name}");
    }
    let report = ex
        .run(&mut m)
        .unwrap_or_else(|e| panic!("exec failed: {e}\n{src}"));
    for (name, href) in &reference.arrays {
        let got = ex.gather_array(&mut m, name).unwrap();
        for k in 0..got.len() {
            let (a, b) = (got.get(k), href.data.get(k));
            let ok = match (a, b) {
                (f90d_machine::Value::Real(x), f90d_machine::Value::Real(y)) => {
                    (x.is_nan() && y.is_nan()) || (x - y).abs() <= 1e-9 * (1.0 + y.abs())
                }
                (a, b) => a == b,
            };
            assert!(ok, "grid {grid:?}: {name}[{k}] = {a:?} want {b:?}\n{src}");
        }
    }
    assert_eq!(report.printed, reference.printed);
    report.printed
}

#[test]
fn elemental_intrinsics_in_forall() {
    let src = "
PROGRAM ELEM
INTEGER, PARAMETER :: N = 12
REAL A(N), B(N)
C$ DISTRIBUTE A(BLOCK)
C$ DISTRIBUTE B(BLOCK)
FORALL (I=1:N) B(I) = REAL(I) - 6.5
FORALL (I=1:N) A(I) = ABS(B(I)) + SQRT(REAL(I)) + MAX(B(I), 0.0) + MOD(I, 3)
END
";
    for g in [vec![1], vec![3], vec![4]] {
        differential(src, &g, &HashMap::new());
    }
}

#[test]
fn eoshift_statement_with_boundary() {
    let src = "
PROGRAM EOS
INTEGER, PARAMETER :: N = 10
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(I) = REAL(I)
B = EOSHIFT(A, 2, -9.0)
END
";
    for g in [vec![1], vec![2], vec![5]] {
        differential(src, &g, &HashMap::new());
    }
}

#[test]
fn forall_construct_statements_run_in_order() {
    // F90 FORALL-construct semantics: each statement completes before the
    // next starts, so the second line reads the first line's results.
    let src = "
PROGRAM FCON
INTEGER, PARAMETER :: N = 10
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=2:N-1)
A(I) = B(I-1) + B(I+1)
B(I) = A(I) * 2.0
END FORALL
END
";
    for g in [vec![1], vec![2], vec![4]] {
        differential(src, &g, &HashMap::new());
    }
}

#[test]
fn strided_forall_iteration_space() {
    let src = "
PROGRAM STRD
INTEGER, PARAMETER :: N = 20
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(I) = -1.0
FORALL (I=1:N:3) A(I) = B(I)
END
";
    let inits = HashMap::from([(
        "B".to_string(),
        ArrayData::Real((0..20).map(|x| x as f64).collect()),
    )]);
    for g in [vec![1], vec![2], vec![4], vec![7]] {
        differential(src, &g, &inits);
    }
}

#[test]
fn strided_forall_on_cyclic() {
    let src = "
PROGRAM STRC
INTEGER, PARAMETER :: N = 21
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(CYCLIC)
FORALL (I=2:N:2) A(I) = B(I) + 1.0
END
";
    let inits = HashMap::from([(
        "B".to_string(),
        ArrayData::Real((0..21).map(|x| (x * 3 % 7) as f64).collect()),
    )]);
    for g in [vec![1], vec![2], vec![3], vec![4]] {
        differential(src, &g, &inits);
    }
}

#[test]
fn self_referential_forall_snapshot_semantics() {
    // A(I) = A(I-1) must read pre-statement values everywhere (FORALL
    // snapshot rule) — the staging + ghost machinery must not leak
    // partially-updated values.
    let src = "
PROGRAM SNAP
INTEGER, PARAMETER :: N = 16
REAL A(N)
C$ DISTRIBUTE A(BLOCK)
FORALL (I=1:N) A(I) = REAL(I)
FORALL (I=2:N) A(I) = A(I-1)
END
";
    for g in [vec![1], vec![2], vec![4], vec![8]] {
        differential(src, &g, &HashMap::new());
    }
}

#[test]
fn nested_do_loops_with_distributed_kernel() {
    let src = "
PROGRAM NEST
INTEGER, PARAMETER :: N = 8
REAL A(N,N)
INTEGER K, L
C$ DISTRIBUTE A(BLOCK, BLOCK)
FORALL (I=1:N, J=1:N) A(I,J) = 0.0
DO K = 1, 3
  DO L = 1, 2
    FORALL (I=1:N, J=1:N) A(I,J) = A(I,J) + REAL(K*L)
  END DO
END DO
END
";
    for g in [vec![1, 1], vec![2, 2], vec![2, 4]] {
        differential(src, &g, &HashMap::new());
    }
}

#[test]
fn print_strings_and_values() {
    let src = "
PROGRAM PRT
INTEGER, PARAMETER :: N = 6
REAL A(N), S
C$ DISTRIBUTE A(CYCLIC)
FORALL (I=1:N) A(I) = REAL(I*I)
S = MAXVAL(A)
PRINT *, 'max', S, 'count', COUNT(A > 10.0)
END
";
    // COUNT over a comparison expression is not a whole-array operand —
    // the compiler should reject it cleanly rather than miscompile.
    let r = compile(src, &CompileOptions::on_grid(&[2]));
    assert!(
        r.is_err(),
        "array-expression reduction operands unsupported"
    );
    let src2 = "
PROGRAM PRT
INTEGER, PARAMETER :: N = 6
REAL A(N), S
C$ DISTRIBUTE A(CYCLIC)
FORALL (I=1:N) A(I) = REAL(I*I)
S = MAXVAL(A)
PRINT *, 'max', S
END
";
    let printed = differential(src2, &[2], &HashMap::new());
    assert_eq!(printed, vec!["max 36.000000".to_string()]);
}

#[test]
fn gray_code_machine_grid_runs_compiled_code() {
    use f90d_distrib::GridEmbedding;
    let src = "
PROGRAM GRAY
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N-1) A(I) = B(I+1)
END
";
    let compiled = compile(src, &CompileOptions::on_grid(&[4])).unwrap();
    let reference = run_reference(&compiled.analyzed, &HashMap::new()).unwrap();
    // Gray-code embedding: grid neighbours are hypercube neighbours.
    let grid = ProcGrid::with_embedding(&[4], GridEmbedding::GrayCode);
    let mut m = Machine::new(MachineSpec::ipsc860(), grid);
    let mut ex = compiled.engine(&mut m).expect("lowers");
    ex.run(&mut m).unwrap();
    let got = ex.gather_array(&mut m, "A").unwrap();
    let want = &reference.arrays["A"];
    for k in 0..got.len() {
        assert_eq!(got.get(k), want.data.get(k), "A[{k}]");
    }
}

#[test]
fn integer_arrays_and_mixed_arithmetic() {
    let src = "
PROGRAM MIX
INTEGER, PARAMETER :: N = 12
INTEGER V(N)
REAL A(N)
C$ TEMPLATE T(N)
C$ ALIGN V(I) WITH T(I)
C$ ALIGN A(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) V(I) = I*I - 3
FORALL (I=1:N) A(I) = REAL(V(I)) / 2.0
END
";
    for g in [vec![1], vec![3], vec![4]] {
        differential(src, &g, &HashMap::new());
    }
}

#[test]
fn empty_iteration_spaces_are_harmless() {
    let src = "
PROGRAM EMPT
INTEGER, PARAMETER :: N = 8
REAL A(N)
C$ DISTRIBUTE A(BLOCK)
FORALL (I=1:N) A(I) = 1.0
FORALL (I=5:4) A(I) = 99.0
END
";
    for g in [vec![1], vec![4]] {
        let printed = differential(src, &g, &HashMap::new());
        assert!(printed.is_empty());
    }
}

#[test]
fn more_procs_than_elements() {
    let src = "
PROGRAM TINY
INTEGER, PARAMETER :: N = 3
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N-1) A(I) = B(I+1)
END
";
    for g in [vec![5], vec![8]] {
        differential(src, &g, &HashMap::new());
    }
}

/// Rank 7 is the most an array may have (Fortran 90 R512), and it runs:
/// written and read, on every element. Ranks 8 and 9 are compile errors
/// naming the array — a rank-9 *read* used to compile and then fail at
/// run time (`array read of rank 9 exceeds the VM subscript limit (8)`)
/// while a rank-9 write ran.
#[test]
fn rank_seven_runs_and_more_is_a_compile_error() {
    let program = |rank: usize| {
        let dims = vec!["2"; rank].join(",");
        let dist = std::iter::once("BLOCK")
            .chain(std::iter::repeat_n("*", rank - 1))
            .collect::<Vec<_>>()
            .join(",");
        let vars: Vec<String> = (1..=rank).map(|k| format!("I{k}")).collect();
        let triplets: Vec<String> = vars.iter().map(|v| format!("{v}=1:2")).collect();
        let weighted: Vec<String> = (vars.iter().enumerate())
            .map(|(k, v)| format!("{}*{v}", 1 << k))
            .collect();
        format!(
            "
PROGRAM DEEP
REAL A({dims}), B({dims})
REAL S
C$ DISTRIBUTE A({dist})
C$ DISTRIBUTE B({dist})
FORALL ({loops}) A({subs}) = REAL({value})
FORALL ({loops}) B({subs}) = A({subs}) * 0.5
S = SUM(B)
PRINT *, 'SUM', S
END
",
            loops = triplets.join(", "),
            subs = vars.join(","),
            value = weighted.join(" + "),
        )
    };
    let printed = differential(&program(7), &[2], &HashMap::new());
    // Every index is 1 on half of the 128 elements and 2 on the rest:
    // 0.5 * (1 + 2 + … + 64) * 128 * 1.5.
    assert_eq!(printed, vec!["SUM 12192.000000".to_string()]);
    for rank in [8, 9] {
        let err = compile(&program(rank), &CompileOptions::on_grid(&[2])).unwrap_err();
        assert_eq!(
            err,
            format!(
                "semantic error: array `A` has rank {rank}; the maximum is 7 (Fortran 90 R512)"
            )
        );
    }
}
