//! Contract of the native kernel tier (the execution tier above the
//! bytecode one): selection at lowering time is invisible in every
//! observable — array bits, virtual time, messages, bytes, PRINT — and
//! the engine's `native_counts` trace proves which tier actually ran.
//! Non-matching shapes (masks, divisors that can fault) and non-binding
//! dispatches (CYCLIC accessors) must fall back to bytecode, counted.
//! The irregular path — INTEGER bodies, gathered reads, scattered
//! writes — rides the same rows and is held to the same contract,
//! faults included.

mod common;

use std::collections::HashMap;

use common::{observe, observe_with, Tier};
use f90d_core::reference::run_reference;
use f90d_core::{compile, CompileOptions, RunTrace};
use f90d_distrib::ProcGrid;
use f90d_machine::{ArrayData, Machine, MachineSpec};
use f90d_progen::workloads::jacobi;

/// Run with the native tier on or off; return gathered images + report metrics +
/// the run trace (for the native counters).
fn run_vm(
    src: &str,
    grid: &[i64],
    arrays: &[&str],
    native: bool,
) -> (Vec<ArrayData>, f64, u64, u64, Vec<String>, RunTrace) {
    let mut opts = CompileOptions::on_grid(grid);
    opts.opt.native_kernels = native;
    let compiled = compile(src, &opts).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(grid));
    let (rep, trace) = compiled.run_on_traced(&mut m).expect("runs");
    let eng = compiled.engine_preserving(&mut m).expect("lowers");
    let imgs = arrays
        .iter()
        .map(|a| eng.gather_array(&mut m, a).expect("array exists"))
        .collect();
    (
        imgs,
        rep.elapsed,
        rep.messages,
        rep.bytes,
        rep.printed,
        trace,
    )
}

/// The arrays the sequential reference interpreter leaves.
fn reference_arrays(src: &str, grid: &[i64], arrays: &[&str]) -> Vec<ArrayData> {
    common::reference(src, grid, arrays).0
}

/// Jacobi's four FORALL shapes (index-cast fill, constant fill, scaled
/// 4-point stencil, copy) all dispatch native on a BLOCK×BLOCK grid, and
/// the two tiers agree bit-for-bit on every observable.
#[test]
fn jacobi_dispatches_native_and_tiers_agree() {
    let src = jacobi(16, 3);
    let arrays = ["A", "B"];
    let (nat, nat_t, nat_msg, nat_b, nat_out, nat_tr) = run_vm(&src, &[2, 2], &arrays, true);
    let (vm, vm_t, vm_msg, vm_b, vm_out, vm_tr) = run_vm(&src, &[2, 2], &arrays, false);

    // 2 init FORALLs + 2 per sweep × 3 sweeps, every one on the native
    // tier; with the tier disabled, every one is a bytecode fallback.
    assert_eq!(
        (nat_tr.native_matched, nat_tr.native_fallback),
        (8, 0),
        "all jacobi FORALLs should dispatch native"
    );
    assert_eq!((vm_tr.native_matched, vm_tr.native_fallback), (0, 8));

    assert_eq!(nat, vm, "native vs bytecode array images");
    assert_eq!(
        nat,
        reference_arrays(&src, &[2, 2], &arrays),
        "native vs the reference interpreter"
    );
    assert_eq!((nat_t, nat_msg, nat_b), (vm_t, vm_msg, vm_b));
    assert_eq!(nat_out, vm_out);
}

/// The reduction-accumulate FORALLs feeding a SUM-into-scalar reduction
/// (`S = S + A` and `S = S + W*B`) dispatch on the fused
/// `reduce_accumulate` template instead of composed generic closures,
/// and the two tiers agree on every observable including the reduced
/// PRINT value.
#[test]
fn sum_accumulate_dispatches_native() {
    let src = "
PROGRAM ACCUM
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N), S(N)
REAL W, SS
INTEGER IT
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN S(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
W = 0.5
FORALL (I=1:N) A(I) = REAL(I)
FORALL (I=1:N) B(I) = REAL(N-I)
FORALL (I=1:N) S(I) = 0.0
DO IT = 1, 3
  FORALL (I=1:N) S(I) = S(I) + A(I)
  FORALL (I=1:N) S(I) = S(I) + W*B(I)
END DO
SS = SUM(S)
PRINT *, 'ACC', SS
END
";
    let arrays = ["S"];
    let (nat, nat_t, nat_msg, nat_b, nat_out, nat_tr) = run_vm(src, &[4], &arrays, true);
    // 3 inits + 3 sweeps x 2 accumulates, all native; no fallbacks.
    assert_eq!(
        (nat_tr.native_matched, nat_tr.native_fallback),
        (9, 0),
        "accumulate FORALLs should all dispatch native"
    );
    let (vm, vm_t, vm_msg, vm_b, vm_out, vm_tr) = run_vm(src, &[4], &arrays, false);
    assert_eq!((vm_tr.native_matched, vm_tr.native_fallback), (0, 9));
    assert_eq!(nat, vm, "native vs bytecode array images");
    assert_eq!(
        nat,
        reference_arrays(src, &[4], &arrays),
        "native vs the reference interpreter"
    );
    assert_eq!((nat_t, nat_msg, nat_b), (vm_t, vm_msg, vm_b));
    assert_eq!(nat_out, vm_out);
    assert!(nat_out.iter().any(|l| l.contains("ACC")), "PRINT ran");
}

/// A WHERE-masked FORALL never selects a kernel: masks change which
/// iterations execute (and charge mask cost), which the closures do not
/// model. The trace counter proves bytecode ran it.
#[test]
fn masked_forall_falls_back_to_bytecode() {
    let src = "
PROGRAM MASKED
INTEGER, PARAMETER :: N = 16
REAL A(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(I) = REAL(I)
FORALL (I=1:N, A(I) > 8.0) A(I) = 0.0
END
";
    let (_, _, _, _, _, tr) = run_vm(src, &[4], &["A"], true);
    assert_eq!(tr.native_matched, 1, "the unmasked init still matches");
    assert_eq!(tr.native_fallback, 1, "the masked FORALL must fall back");
}

/// One program of the irregular path: on `grid`, `native` of its FORALL
/// executions must dispatch native and `bytecode` fall back, and every
/// tier must show the same [`Observed`]. `reference` also holds the
/// arrays to the sequential interpreter — off where several iterations
/// write one element, whose winner the distributed run-time decides by
/// message order (and every tier must decide alike).
struct IrregularCase {
    label: &'static str,
    src: &'static str,
    grid: &'static [i64],
    arrays: &'static [&'static str],
    native: u64,
    bytecode: u64,
    reference: bool,
}

/// `A(U(I)) = B(V(I)) + C(I)` over 1-D arrays under `{dist}`, `U` with
/// duplicates and out of order (`I*I` is not affine: an integer tree),
/// `V` a permutation.
const IRREGULAR_1D: &str = "
PROGRAM IRR
INTEGER, PARAMETER :: N = 30
REAL A(N), B(N), C(N)
REAL S
INTEGER U(N), V(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ DISTRIBUTE T({dist})
FORALL (I=1:N) A(I) = -1.0
FORALL (I=1:N) B(I) = REAL(I) * 0.5
FORALL (I=1:N) C(I) = REAL(N - I)
FORALL (I=1:N) U(I) = MOD(I*{u}, N) + 1
FORALL (I=1:N) V(I) = MOD(I*11 + 3, N) + 1
FORALL (I=1:N{mask}) A(U(I)) = B(V(I)) + C(I)
S = SUM(A)
PRINT *, 'S', S, A(1), A(2), A(N)
END
";

const IRREGULAR_CASES: &[IrregularCase] = &[
    IrregularCase {
        label: "INTEGER bodies: MOD and / over negative operands and constants",
        src: "
PROGRAM INTS
INTEGER, PARAMETER :: N = 32
INTEGER K(N), L(N), R(N)
C$ TEMPLATE T(N)
C$ ALIGN K(I) WITH T(I)
C$ ALIGN L(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) K(I) = MOD(I*5 - 40, 7) - (I - 20)/3
FORALL (I=1:N) L(I) = MOD(K(I), -4) + K(I)/(-2) + (-I)/5
FORALL (I=1:N) R(I) = MOD(-I*I, 9) * (I - 16) - MOD(I, 3)/2
END
",
        grid: &[4],
        arrays: &["K", "L", "R"],
        native: 3,
        bytecode: 0,
        reference: true,
    },
    IrregularCase {
        label: "a divisor that is no constant stays on the bytecode tier",
        src: "
PROGRAM VARDIV
INTEGER, PARAMETER :: N = 32
INTEGER K(N)
INTEGER D
C$ DISTRIBUTE K(BLOCK)
D = -3
FORALL (I=1:N) K(I) = MOD(I - 12, D) + (I - 12)/D
FORALL (I=1:N) K(I) = K(I) + MOD(I, -1) + I/(-1)
END
",
        grid: &[4],
        arrays: &["K"],
        native: 0,
        bytecode: 2,
        reference: true,
    },
    IrregularCase {
        label: "an integer tree under REAL() stays on the bytecode tier",
        src: "
PROGRAM WEIGHT
INTEGER, PARAMETER :: N = 32
REAL A(N), W(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN W(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(I) = REAL(I - 9) * 0.25
FORALL (I=1:N) W(I) = A(I) * REAL(MOD(I - 20, 7) + 1)
END
",
        grid: &[4],
        arrays: &["W"],
        native: 1,
        bytecode: 1,
        reference: true,
    },
    IrregularCase {
        label: "gather + scatter, duplicate and out-of-order U (many-to-one)",
        src: IRREGULAR_1D,
        grid: &[4],
        arrays: &["A"],
        native: 6,
        bytecode: 0,
        reference: false,
    },
    IrregularCase {
        label: "gather + scatter through permutations, BLOCK",
        src: IRREGULAR_1D,
        grid: &[4],
        arrays: &["A"],
        native: 6,
        bytecode: 0,
        reference: true,
    },
    IrregularCase {
        label: "a masked irregular FORALL stays on the bytecode tier",
        src: IRREGULAR_1D,
        grid: &[4],
        arrays: &["A"],
        native: 5,
        bytecode: 1,
        reference: true,
    },
    IrregularCase {
        label: "CYCLIC source and destination (reached through schedules)",
        src: IRREGULAR_1D,
        grid: &[4],
        arrays: &["A"],
        // The three REAL fills go through CYCLIC accessors and fall back;
        // the irregular FORALL's accessors are the replicated U and V.
        native: 3,
        bytecode: 3,
        reference: true,
    },
    IrregularCase {
        label: "CYCLIC(3) source and destination",
        src: IRREGULAR_1D,
        grid: &[4],
        arrays: &["A"],
        native: 3,
        bytecode: 3,
        reference: true,
    },
    IrregularCase {
        label: "B(V(I), J) on a 2-D (BLOCK,BLOCK) source",
        src: "
PROGRAM TWOD
INTEGER, PARAMETER :: N = 12
REAL A(N,N), B(N,N)
INTEGER V(N)
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ DISTRIBUTE T(BLOCK,BLOCK)
FORALL (I=1:N, J=1:N) B(I,J) = REAL(I*N+J)/4.0
FORALL (I=1:N) V(I) = MOD(I*5 + 3, N) + 1
FORALL (I=1:N, J=1:N) A(I,J) = B(V(I), J) + 1.0
END
",
        grid: &[2, 2],
        arrays: &["A"],
        native: 3,
        bytecode: 0,
        reference: true,
    },
    IrregularCase {
        label: "a 2-D vector-subscripted destination",
        src: "
PROGRAM TWODW
INTEGER, PARAMETER :: N = 12
REAL A(N,N), B(N,N)
INTEGER U(N)
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ DISTRIBUTE T(BLOCK,BLOCK)
FORALL (I=1:N, J=1:N) A(I,J) = 0.0
FORALL (I=1:N, J=1:N) B(I,J) = REAL(I*N+J)/4.0
FORALL (I=1:N) U(I) = MOD(I*7 + 2, N) + 1
FORALL (I=1:N, J=1:N:2) A(U(I), N+1-J) = B(I,J) * 2.0
END
",
        grid: &[2, 2],
        arrays: &["A"],
        native: 4,
        bytecode: 0,
        reference: true,
    },
    IrregularCase {
        label: "a destination replicated along one grid axis (every copy written)",
        src: "
PROGRAM REPL
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N)
INTEGER U(N), V(N)
C$ TEMPLATE T(N,N)
C$ ALIGN A(I) WITH T(I,*)
C$ ALIGN B(I) WITH T(I,*)
C$ DISTRIBUTE T(BLOCK,BLOCK)
FORALL (I=1:N) A(I) = -1.0
FORALL (I=1:N) B(I) = REAL(I) * 0.5
FORALL (I=1:N) U(I) = MOD(I*5 + 2, N) + 1
FORALL (I=1:N) V(I) = MOD(I*7 + 3, N) + 1
FORALL (I=1:N) A(U(I)) = B(V(I)) + 1.0
END
",
        grid: &[2, 2],
        arrays: &["A"],
        native: 5,
        bytecode: 0,
        reference: true,
    },
    IrregularCase {
        label: "an INTEGER gathered array, scattered into an INTEGER array",
        src: "
PROGRAM INTG
INTEGER, PARAMETER :: N = 32
INTEGER K(N), L(N)
INTEGER U(N), V(N)
C$ TEMPLATE T(N)
C$ ALIGN K(I) WITH T(I)
C$ ALIGN L(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) K(I) = MOD(I*5 - 40, 7) - (I - 20)/3
FORALL (I=1:N) L(I) = I
FORALL (I=1:N) U(I) = MOD(I*7 + 2, N) + 1
FORALL (I=1:N) V(I) = MOD(I*I, N) + 1
FORALL (I=1:N) L(U(I)) = K(V(I)) + L(I) * 2
END
",
        grid: &[4],
        arrays: &["L"],
        native: 5,
        bytecode: 0,
        reference: true,
    },
    IrregularCase {
        label: "a distributed indirection array read through an owned accessor",
        src: "
PROGRAM INDIRECT
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N)
INTEGER U(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN U(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I) * 0.5
FORALL (I=1:N) U(I) = MOD(I*5, N) + 1
FORALL (I=1:N) A(I) = B(U(I))
END
",
        grid: &[4],
        arrays: &["A"],
        native: 3,
        bytecode: 0,
        reference: true,
    },
];

/// How each [`IRREGULAR_1D`] case fills the template's holes, by label.
fn instantiate(case: &IrregularCase) -> String {
    let (dist, u, mask) = match case.label {
        l if l.contains("many-to-one") => ("BLOCK", "I", ""),
        l if l.contains("masked") => ("BLOCK", "7 + 2", ", U(I) > 10"),
        l if l.starts_with("CYCLIC(3)") => ("CYCLIC(3)", "7 + 2", ""),
        l if l.starts_with("CYCLIC") => ("CYCLIC", "7 + 2", ""),
        _ => ("BLOCK", "7 + 2", ""),
    };
    (case.src.replace("{dist}", dist))
        .replace("{u}", u)
        .replace("{mask}", mask)
}

/// The irregular path against every other evaluator of the language:
/// native ≡ bytecode in arrays, every copy of them, PRINT,
/// every rank clock, messages and bytes, with the arrays also matching
/// the sequential reference interpreter.
#[test]
fn irregular_shapes_agree_with_every_other_tier() {
    for case in IRREGULAR_CASES {
        let (label, src) = (case.label, instantiate(case));
        let run = |tier| {
            observe(&src, case.grid, case.arrays, tier)
                .unwrap_or_else(|e| panic!("{label}: {tier:?} failed: {e}\n{src}"))
        };
        let (nat, tr) = run(Tier::Native);
        assert_eq!(
            (tr.native_matched, tr.native_fallback),
            (case.native, case.bytecode),
            "{label}: FORALL executions (native, bytecode)\n{src}"
        );
        let (vm, vm_tr) = run(Tier::Bytecode);
        assert_eq!(vm_tr.native_matched, 0, "{label}");
        assert_eq!(nat, vm, "{label}: native vs bytecode\n{src}");
        if !case.reference {
            continue;
        }
        let compiled = compile(&src, &CompileOptions::on_grid(case.grid)).expect("compiles");
        let reference = run_reference(&compiled.analyzed, &HashMap::new()).expect("reference runs");
        for (name, img) in case.arrays.iter().zip(&nat.arrays) {
            assert_eq!(
                img, &reference.arrays[*name].data,
                "{label}: array {name} vs the reference interpreter\n{src}"
            );
        }
        // Every copy, not only the canonical one a gather reads.
        for &(k, flat, v) in &nat.owned {
            let name = case.arrays[k];
            assert_eq!(
                v,
                reference.arrays[name].data.get(flat),
                "{label}: a copy of {name} element {flat} vs the reference\n{src}"
            );
        }
    }
}

/// `native::select`'s decision on each of the seven FORALLs of the
/// paper's §4 example 3 behind INTEGER fills, over every divisor, mask,
/// distribution and one or four ranks. `U` and `V` are replicated
/// INTEGER fills and always select (`V`'s subscript tree reads `K`);
/// `K`'s fill selects unless its divisor is `-1` or the scalar `D`; the
/// irregular FORALL selects unmasked wherever the compiler made its
/// indirect subscripts a gather and a scatter (on one rank they stay in
/// place, per-element work); the REAL fills bind under BLOCK only.
#[test]
fn irregular_selection_table() {
    for div in ["(-5)", "(-2)", "(-1)", "D", "(2)", "(3)", "(7)"] {
        for (masked, mask) in [(false, ""), (true, ", K(I) > -2")] {
            for dist in ["BLOCK", "CYCLIC", "CYCLIC(3)"] {
                for grid in [&[1][..], &[4]] {
                    let src = format!(
                        "
PROGRAM SELECT
INTEGER, PARAMETER :: N = 20
REAL A(N), B(N), C(N)
INTEGER U(N), V(N), K(N)
INTEGER D
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ DISTRIBUTE T({dist})
D = 4
FORALL (I=1:N) A(I) = -1.0
FORALL (I=1:N) B(I) = REAL(I) * 0.5
FORALL (I=1:N) C(I) = REAL(N - 2*I)
FORALL (I=1:N) K(I) = MOD(I*3 - N, {div}) + (I - 7)/{div} - MOD(-I, 5)
FORALL (I=1:N) U(I) = MOD(I*7 + 3, N) + 1
FORALL (I=1:N) V(I) = MOD(I*5 + K(I)*N + 64*N, N) + 1
FORALL (I=1:N{mask}) A(U(I)) = B(V(I)) + C(I)
END
"
                    );
                    let (_, tr) = observe(&src, grid, &[], Tier::Native)
                        .unwrap_or_else(|e| panic!("{e}\n{src}"));
                    let safe_divisor = !matches!(div, "(-1)" | "D");
                    let one_rank = grid == [1];
                    let block = dist == "BLOCK" || one_rank;
                    let irregular = !masked && !one_rank;
                    let want = 2 + safe_divisor as u64 + irregular as u64 + 3 * block as u64;
                    assert_eq!(
                        (tr.native_matched, tr.native_fallback),
                        (want, 7 - want),
                        "FORALL executions (native, bytecode)\n{src}"
                    );
                }
            }
        }
    }
}

/// Faults are part of the contract: a subscript vector that leaves the
/// array and an integer divisor that is zero at run time return the
/// same structured error on every tier — a row kernel never faults
/// where the bytecode would have returned an error, because the shapes
/// that can are not selected — and leave nothing in flight. The
/// reference interpreter reports the arithmetic faults in the same
/// words (a subscript out of range it asserts on).
#[test]
fn irregular_faults_are_the_same_structured_error_on_every_tier() {
    let cases: [(&str, &str, &str, bool); 4] = [
        (
            "scatter subscript out of range",
            "subscript 33 out of bounds on dim 0 of A (extent 32)",
            "FORALL (I=1:N) U(I) = I + 1
FORALL (I=1:N) A(U(I)) = B(I)",
            false,
        ),
        (
            "gather subscript out of range",
            "subscript 0 out of bounds on dim 0 of B (extent 32)",
            "FORALL (I=1:N) U(I) = I - 1
FORALL (I=1:N) A(I) = B(U(I))",
            false,
        ),
        (
            "MOD by a scalar that is zero",
            "integer MOD by zero",
            "FORALL (I=1:N) U(I) = MOD(I, D)",
            true,
        ),
        (
            "division by a scalar that is zero",
            "integer division by zero",
            "FORALL (I=1:N) U(I) = I / D",
            true,
        ),
    ];
    for (label, want, body, reference) in cases {
        let src = format!(
            "
PROGRAM FAULT
INTEGER, PARAMETER :: N = 32
REAL A(N), B(N)
INTEGER U(N)
INTEGER D
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
D = 0
FORALL (I=1:N) B(I) = REAL(I)
{body}
END
"
        );
        for tier in [Tier::Native, Tier::Bytecode] {
            let err = observe(&src, &[4], &["A"], tier).expect_err("the program faults");
            assert_eq!(err, want, "{label} on {tier:?}\n{src}");
        }
        if reference {
            let compiled = compile(&src, &CompileOptions::on_grid(&[4])).expect("compiles");
            let err = run_reference(&compiled.analyzed, &HashMap::new()).expect_err("faults");
            assert_eq!(err, want, "{label} in the reference interpreter");
        }
    }
}

/// CYCLIC mappings select a kernel (the body is affine REAL) but can
/// never bind at dispatch: local indexing needs per-element ownership
/// math (`RDim::General`), so every execution is a counted fallback with
/// bit-identical results.
#[test]
fn cyclic_mapping_falls_back_at_dispatch() {
    let src = "
PROGRAM CYC
INTEGER, PARAMETER :: N = 24
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(CYCLIC)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) A(I) = B(I) * 2.0
END
";
    let (nat, nat_t, nat_msg, nat_b, _, tr) = run_vm(src, &[4], &["A", "B"], true);
    assert_eq!(tr.native_matched, 0, "CYCLIC must never dispatch native");
    assert_eq!(tr.native_fallback, 2);
    let (vm, vm_t, vm_msg, vm_b, ..) = run_vm(src, &[4], &["A", "B"], false);
    assert_eq!(nat, vm);
    assert_eq!(nat, reference_arrays(src, &[4], &["A", "B"]));
    assert_eq!((nat_t, nat_msg, nat_b), (vm_t, vm_msg, vm_b));
}

/// The overlap split-phase path runs on the tier the bind chose: the 2
/// stencil sweeps, split into an interior and a boundary phase, dispatch
/// native like the 2 inits and the 2 copies around them.
#[test]
fn overlap_split_phase_dispatches_native() {
    let src = jacobi(16, 2);
    let mut opts = CompileOptions::on_grid(&[2, 2]);
    opts.opt.comm_compute_overlap = true;
    let compiled = compile(&src, &opts).expect("compiles");
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[2, 2]));
    let (_, tr) = compiled.run_on_traced(&mut m).expect("runs");
    assert_eq!((tr.native_matched, tr.native_fallback), (6, 0));
}

/// Stencils that run split-phase under `comm_compute_overlap`, after the
/// shared 2-D prologue: every FORALL dispatches native and the stencil
/// stages exactly when `staged`. The shifts by one on both sides of
/// `J` make `{first, last}` the innermost boundary slab, a run at stride
/// n − 1 that must not be written in place as a row.
const OVERLAP_CASES: &[(&str, &str, bool)] = &[
    (
        "4-point stencil into another array",
        "A(I,J) = 0.25*(B(I-1,J) + B(I+1,J) + B(I,J-1) + B(I,J+1))",
        false,
    ),
    (
        "own element beside shifted reads of another array",
        "U(I,J) = U(I,J)*0.5 + B(I,J-1) - B(I,J+1)*0.25 + B(I+1,J)",
        false,
    ),
    (
        "in-place stencil reading its own array shifted (must stage)",
        "U(I,J) = 0.5*(U(I,J-1) + U(I,J+1)) - U(I-1,J)*0.125",
        true,
    ),
];

/// Split-phase execution on the native tier against the bytecode tier
/// under overlap — arrays, every padded cell, every rank clock by bits,
/// messages, bytes, PRINT — and against the arrays of blocking
/// execution, whose clocks it must not share (the interior hid wire
/// time, so the split really ran).
#[test]
fn overlap_stencils_dispatch_native_and_agree() {
    for &(label, stmt, staged) in OVERLAP_CASES {
        let src = format!(
            "PROGRAM OV{PROLOGUE_2D}FORALL (I=2:N-1, J=2:N-1) {stmt}\nPRINT *, SUM(A), SUM(U)\nEND\n"
        );
        let run = |tier, overlap| {
            let tweak = |opts: &mut CompileOptions| opts.opt.comm_compute_overlap = overlap;
            observe_with(&src, &[2, 2], &["A", "U"], tier, &tweak)
                .unwrap_or_else(|e| panic!("{label}: {tier:?} failed: {e}\n{src}"))
        };
        let (nat, tr) = run(Tier::Native, true);
        assert_eq!(
            (tr.native_matched, tr.native_fallback, tr.native_staged),
            (5, 0, staged as u64),
            "{label}: every FORALL should dispatch native\n{src}"
        );
        let (vm, _) = run(Tier::Bytecode, true);
        assert_eq!(nat, vm, "{label}: native vs bytecode under overlap\n{src}");
        let (blocking, _) = run(Tier::Native, false);
        assert_eq!(nat.arrays, blocking.arrays, "{label}: overlap vs blocking");
        assert_eq!(nat.cells, blocking.cells, "{label}: ghost cells included");
        assert_ne!(nat.clocks, blocking.clocks, "{label}: the split ran");
    }
}

/// One FORALL shape the box path has to get right: `body` runs after
/// the shared 2-D prologue (or is a whole program when it starts with
/// `PROGRAM`), on `grid`; every one of its `foralls` FORALL executions
/// must dispatch native, and exactly `staged` of them must stage — the
/// rest write in place.
struct BoxCase {
    label: &'static str,
    body: &'static str,
    grid: &'static [i64],
    foralls: u64,
    staged: u64,
}

/// `B`, `U` (2-D) and `V` (1-D, replicated along the second grid axis)
/// filled with sign-mixed non-dyadic values; `A` is the usual target.
const PROLOGUE_2D: &str = "
INTEGER, PARAMETER :: N = 16
REAL A(N,N), B(N,N), U(N,N), V(N)
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ ALIGN U(I,J) WITH T(I,J)
C$ ALIGN V(I) WITH T(I,*)
C$ DISTRIBUTE T(BLOCK,BLOCK)
FORALL (I=1:N, J=1:N) A(I,J) = -1.0
FORALL (I=1:N, J=1:N) B(I,J) = REAL(I*N+J)/3.0 - 40.0
FORALL (I=1:N, J=1:N) U(I,J) = REAL(I-2*J)*0.7
FORALL (I=1:N) V(I) = 1.0/REAL(I+2)
";

/// Gaussian elimination's fill, diagonal shift (a strided write: the one
/// FORALL of the program that stages) and rank-1 updates, `{n}` × `{n}`
/// under `{dist}`.
const GAUSS: &str = "PROGRAM G
INTEGER, PARAMETER :: N = {n}
REAL A(N,N)
INTEGER K
C$ DISTRIBUTE A({dist})
FORALL (I=1:N, J=1:N) A(I,J) = 1.0/REAL(I+J)
FORALL (I=1:N) A(I,I) = A(I,I) + 2.0
DO K = 1, N-1
  FORALL (I=K+1:N, J=K+1:N) A(I,J) = A(I,J) - A(I,K)/A(K,K)*A(K,J)
END DO
END";

/// A filled `A` under `{dist}`, then `{body}` with `K` = 6.
const ALIASED: &str = "PROGRAM AL
INTEGER, PARAMETER :: N = 16
REAL A(N,N)
INTEGER K
C$ DISTRIBUTE A({dist})
FORALL (I=1:N, J=1:N) A(I,J) = REAL(I*N-3*J)/7.0
K = 6
{body}
END";

const BOX_CASES: &[BoxCase] = &[
    BoxCase {
        label: "strided inner loop",
        body: "FORALL (I=1:N, J=1:N:3) A(I,J) = B(I,J)*2.0 - U(I,J)",
        grid: &[2, 2],
        foralls: 1,
        staged: 1,
    },
    BoxCase {
        label: "negative-step read along the row",
        body: "FORALL (I=1:N, J=1:N) A(I,J) = B(I,N+1-J) - U(I,J)",
        grid: &[2, 1],
        foralls: 1,
        staged: 0,
    },
    BoxCase {
        label: "negative-step strided write",
        body: "FORALL (I=1:N, J=1:N:2) A(I,N+1-J) = B(I,J) + 0.5",
        grid: &[2, 1],
        foralls: 1,
        staged: 1,
    },
    BoxCase {
        label: "inner-invariant (stride-0) read",
        body: "FORALL (I=1:N, J=1:N) A(I,J) = B(I,J)*V(I) + V(I)/3.0",
        grid: &[2, 2],
        foralls: 1,
        staged: 0,
    },
    BoxCase {
        label: "in-place stencil across rows (must stage)",
        body: "FORALL (I=2:N, J=1:N) U(I,J) = 0.5*(U(I-1,J) + U(I,J))",
        grid: &[2, 2],
        foralls: 1,
        staged: 1,
    },
    BoxCase {
        label: "in-place stencil along the row (must stage)",
        body: "FORALL (I=1:N, J=2:N) U(I,J) = 0.5*(U(I,J-1) + U(I,J))",
        grid: &[2, 1],
        foralls: 1,
        staged: 1,
    },
    BoxCase {
        label: "many-to-one LHS (last J wins)",
        body: "FORALL (I=1:N, J=1:N) A(I,1) = B(I,J)",
        grid: &[2, 1],
        foralls: 1,
        staged: 1,
    },
    BoxCase {
        label: "many-to-one read-modify-write (must stage: old + B(I,N))",
        body: "FORALL (I=1:N, J=1:N) A(I,1) = A(I,1) + B(I,J)",
        grid: &[2, 1],
        foralls: 1,
        staged: 1,
    },
    // The write walks each row at unit stride and reads its own element,
    // but every row is the same row: only injectivity over *all* the
    // variables says that row I must not see what row I-1 wrote.
    BoxCase {
        label: "many-to-one over the outer variable (must stage: old + B(N,J))",
        body: "FORALL (I=1:N, J=1:N) A(1,J) = A(1,J) + B(I,J)",
        grid: &[1, 2],
        foralls: 1,
        staged: 1,
    },
    BoxCase {
        label: "FORALL construct whose statements write overlapping locations",
        body: "FORALL (I=1:N, J=1:N-1)
  A(I,J) = B(I,J)
  A(I,J+1) = A(I,J) + U(I,J)
END FORALL",
        grid: &[2, 1],
        foralls: 2,
        staged: 1,
    },
    BoxCase {
        label: "length-1 rows",
        body: "FORALL (I=1:N, J=5:5) A(I,J) = B(I,J)*3.0 - U(I,J-1)",
        grid: &[2, 1],
        foralls: 1,
        staged: 0,
    },
    BoxCase {
        label: "a one-row box with an own-element read",
        body: "FORALL (I=3:3, J=1:N) U(I,J) = U(I,J) + B(I,J)",
        grid: &[2, 2],
        foralls: 1,
        staged: 0,
    },
    BoxCase {
        label: "1-D FORALL down a column of a 2-D array",
        body: "FORALL (I=1:N) A(I,3) = B(I,3) + V(I)",
        grid: &[2, 2],
        foralls: 1,
        staged: 1,
    },
    BoxCase {
        label: "inner variable on the first dimension (strided rows)",
        body: "FORALL (I=1:N, J=1:N) A(J,I) = B(J,I) + U(J,I)*0.25",
        grid: &[2, 2],
        foralls: 1,
        staged: 1,
    },
    BoxCase {
        label: "own element not the leftmost leaf",
        body: "FORALL (I=1:N, J=1:N) U(I,J) = B(I,J) - U(I,J)*2.0",
        grid: &[2, 2],
        foralls: 1,
        staged: 0,
    },
    BoxCase {
        label: "own element read three times",
        body: "FORALL (I=1:N, J=1:N) U(I,J) = U(I,J)*U(I,J) + U(I,J)",
        grid: &[2, 2],
        foralls: 1,
        staged: 0,
    },
    BoxCase {
        label: "own element under reversed rows",
        body: "FORALL (I=1:N, J=1:N) U(N+1-I,J) = U(N+1-I,J)*0.5 + B(I,J)",
        grid: &[2, 1],
        foralls: 1,
        staged: 0,
    },
    BoxCase {
        label: "own element under a strided outer list",
        body: "FORALL (I=1:N:3, J=1:N) U(I,J) = U(I,J) - B(I,J)/3.0",
        grid: &[2, 2],
        foralls: 1,
        staged: 0,
    },
    BoxCase {
        label: "rank-1 update on (*,BLOCK), the row multiplier hoisted",
        body: GAUSS,
        grid: &[4],
        foralls: 17,
        staged: 1,
    },
    BoxCase {
        // The diagonal shift is a scatter here (no rank owns `A(I,I)`
        // for every `I` of its share), which has no stage of this kind.
        label: "rank-1 update on (BLOCK,BLOCK)",
        body: GAUSS,
        grid: &[2, 2],
        foralls: 17,
        staged: 0,
    },
    BoxCase {
        // One diagonal element per rank: a one-element row walks no
        // stride, so even the diagonal shift is in place.
        label: "rank-1 update over one-element rows (a column per rank)",
        body: GAUSS,
        grid: &[8],
        foralls: 9,
        staged: 0,
    },
    BoxCase {
        label: "a row strictly above the written rows",
        body: ALIASED,
        grid: &[4],
        foralls: 2,
        staged: 0,
    },
    BoxCase {
        label: "a row strictly below the written rows",
        body: ALIASED,
        grid: &[4],
        foralls: 2,
        staged: 0,
    },
    BoxCase {
        label: "a row inside the written range (must stage)",
        body: ALIASED,
        grid: &[4],
        foralls: 2,
        staged: 1,
    },
    BoxCase {
        label: "an interleaved column on (BLOCK,*) (must stage)",
        body: ALIASED,
        grid: &[4],
        foralls: 2,
        staged: 1,
    },
    BoxCase {
        label: "3-D FORALL: boxes over (J,K) under a walk over I",
        body: "PROGRAM P3
INTEGER, PARAMETER :: N = 8
REAL A(N,N,N), B(N,N,N)
C$ TEMPLATE T(N,N,N)
C$ ALIGN A(I,J,K) WITH T(I,J,K)
C$ ALIGN B(I,J,K) WITH T(I,J,K)
C$ DISTRIBUTE T(BLOCK,*,BLOCK)
FORALL (I=1:N, J=1:N, K=1:N) B(I,J,K) = REAL(I+3*J-K)/7.0
FORALL (I=1:N, J=2:N, K=1:N) A(I,J,K) = B(I,J,K) - B(I,J-1,K)*0.5 + REAL(K)
FORALL (I=1:N, J=2:N:2, K=1:N) A(I,J,K) = B(I,J,K) - A(I,J,K)*A(I,J,K)
FORALL (I=1:N, J=2:N, K=1:N) A(I,J,K) = A(I,J,K) + A(I,J-1,K)
END",
        grid: &[2, 2],
        foralls: 4,
        staged: 1,
    },
    BoxCase {
        label: "an INTEGER read-modify-write",
        body: "PROGRAM IRMW
INTEGER, PARAMETER :: N = 16
INTEGER K(N,N), L(N,N)
C$ TEMPLATE T(N,N)
C$ ALIGN K(I,J) WITH T(I,J)
C$ ALIGN L(I,J) WITH T(I,J)
C$ DISTRIBUTE T(BLOCK,BLOCK)
FORALL (I=1:N, J=1:N) K(I,J) = MOD(I*5 - 3*J, 7) - 2
FORALL (I=1:N, J=1:N) L(I,J) = I - J
FORALL (I=1:N, J=1:N) K(I,J) = K(I,J)*3 - L(I,J) + MOD(K(I,J), 4)
FORALL (I=2:N, J=1:N) L(I,J) = L(I,J) - L(I-1,J)
END",
        grid: &[2, 2],
        foralls: 4,
        staged: 1,
    },
    BoxCase {
        label: "a gathered read next to an own-element read under a 2-D box",
        body: "PROGRAM GRMW
INTEGER, PARAMETER :: N = 12
REAL A(N,N), B(N,N)
INTEGER V(N)
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ DISTRIBUTE T(BLOCK,BLOCK)
FORALL (I=1:N, J=1:N) A(I,J) = REAL(I-J)/3.0
FORALL (I=1:N, J=1:N) B(I,J) = REAL(I*N+J)/4.0
FORALL (I=1:N) V(I) = MOD(I*5 + 3, N) + 1
FORALL (I=1:N, J=1:N) A(I,J) = A(I,J) + B(V(I), J)*0.5
END",
        grid: &[2, 2],
        foralls: 4,
        staged: 0,
    },
    BoxCase {
        // The value and index columns fill box by box; a scatter's
        // column is no stage.
        label: "scatter bodies under a 2-D box, by row and by column",
        body: "PROGRAM SC2
INTEGER, PARAMETER :: N = 12
REAL A(N,N), B(N,N)
INTEGER V(N)
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ DISTRIBUTE T(BLOCK,BLOCK)
FORALL (I=1:N, J=1:N) A(I,J) = REAL(I-J)/3.0
FORALL (I=1:N, J=1:N) B(I,J) = REAL(I*N+J)/4.0
FORALL (I=1:N) V(I) = MOD(I*5 + 3, N) + 1
FORALL (I=1:N, J=1:N) A(V(I),J) = B(I,J)*0.5 - REAL(J)
FORALL (I=1:N, J=2:N:2) A(I,V(J)) = A(I,V(J)) + B(I,J)/3.0
END",
        grid: &[2, 2],
        foralls: 5,
        staged: 0,
    },
];

/// How each templated [`BOX_CASES`] program fills its holes, by label.
fn box_source(case: &BoxCase) -> String {
    let aliased =
        |dist: &str, body: &str| (case.body.replace("{dist}", dist)).replace("{body}", body);
    match case.label {
        l if l.contains("one-element rows") => {
            (case.body.replace("{n}", "8")).replace("{dist}", "*, BLOCK")
        }
        l if l.contains("(BLOCK,BLOCK)") => {
            (case.body.replace("{n}", "16")).replace("{dist}", "BLOCK, BLOCK")
        }
        l if l.starts_with("rank-1") => {
            (case.body.replace("{n}", "16")).replace("{dist}", "*, BLOCK")
        }
        l if l.contains("above") => aliased(
            "*, BLOCK",
            "FORALL (I=1:K-1, J=1:N) A(I,J) = A(I,J) - 0.5*A(K,J)",
        ),
        l if l.contains("below") => aliased(
            "*, BLOCK",
            "FORALL (I=K+1:N, J=1:N) A(I,J) = A(K,J)*A(I,J) + A(K,J)",
        ),
        l if l.contains("inside") => aliased(
            "*, BLOCK",
            "FORALL (I=1:N, J=1:N) A(I,J) = A(I,J) - 0.5*A(K,J)",
        ),
        l if l.contains("interleaved") => aliased(
            "BLOCK, *",
            "FORALL (I=1:N, J=K+1:N) A(I,J) = A(I,J) - A(I,K)",
        ),
        _ if case.body.starts_with("PROGRAM") => format!("{}\n", case.body),
        _ => format!("PROGRAM BOXES{PROLOGUE_2D}{}\nEND\n", case.body),
    }
}

/// The box kernels against every other evaluator of the language: each
/// shape dispatches native on every FORALL execution, stages exactly
/// where the alias rule has no proof, and is bit-identical — arrays,
/// every padded cell of every copy, PRINT, every rank clock, messages,
/// bytes — to the bytecode tier, with the arrays also matching the
/// sequential reference interpreter.
#[test]
fn box_kernels_agree_with_every_other_tier() {
    for case in BOX_CASES {
        let (label, src) = (case.label, box_source(case));
        let whole = case.body.starts_with("PROGRAM");
        let arrays: &[&str] = match () {
            _ if src.contains("INTEGER K(N,N)") => &["K", "L"],
            _ if whole => &["A"],
            _ => &["A", "U"],
        };
        let prologue = if whole { 0 } else { 4 };
        let run = |tier| {
            observe(&src, case.grid, arrays, tier)
                .unwrap_or_else(|e| panic!("{label}: {tier:?} failed: {e}\n{src}"))
        };
        let (nat, tr) = run(Tier::Native);
        assert_eq!(
            (tr.native_matched, tr.native_fallback),
            (case.foralls + prologue, 0),
            "{label}: every FORALL should dispatch native\n{src}"
        );
        assert_eq!(
            tr.native_staged, case.staged,
            "{label}: FORALL executions that staged\n{src}"
        );
        let (vm, vm_tr) = run(Tier::Bytecode);
        assert_eq!(
            (vm_tr.native_matched, vm_tr.native_staged),
            (0, 0),
            "{label}"
        );
        assert_eq!(nat, vm, "{label}: native vs bytecode\n{src}");
        let compiled = compile(&src, &CompileOptions::on_grid(case.grid)).expect("compiles");
        let reference = run_reference(&compiled.analyzed, &HashMap::new()).expect("reference runs");
        for (name, img) in arrays.iter().zip(&nat.arrays) {
            assert_eq!(
                img, &reference.arrays[*name].data,
                "{label}: array {name} vs the reference interpreter\n{src}"
            );
        }
        if label.contains("old + B(N,J)") {
            // By hand: every I reads the prologue's -1.0, and the last
            // I's sum is the one that stays.
            let n = 16;
            for j in 1..=n {
                let b = (n * n + j) as f64 / 3.0 - 40.0;
                let got = nat.arrays[0].get((j - 1) as usize);
                assert_eq!(
                    got,
                    f90d_machine::Value::Real(-1.0 + b),
                    "{label}: A(1,{j})"
                );
            }
        }
        if label.contains("old + B(I,N)") {
            // By hand, not only across evaluators: every J reads the
            // prologue's -1.0, and the last J's sum is the one that stays.
            let n = 16;
            for i in 1..=n {
                let b = (i * n + n) as f64 / 3.0 - 40.0;
                let got = nat.arrays[0].get(((i - 1) * n) as usize);
                assert_eq!(
                    got,
                    f90d_machine::Value::Real(-1.0 + b),
                    "{label}: A({i},1)"
                );
            }
        }
    }
}
