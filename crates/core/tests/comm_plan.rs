//! Phase-level communication planning (`OptFlags::comm_plan`): phase
//! formation on the IR, conflict/separator fallback, bit-exact execution
//! with the plan honoured on both tiers — plus the hoist def-use
//! regression battery (WHERE-masked writes, REDISTRIBUTE, and written
//! scalars must all pin their exchanges inside the loop).

mod common;

use common::{observe_with, Observed, Tier};
use f90d_core::ir::{PhaseRole, SStmt};
use f90d_core::{compile, CompileOptions};

/// Three co-aligned arrays, three consecutive shift stencils per sweep
/// (the planner's showcase shape), then copy-backs.
fn triple_stencil(n: i64, iters: i64) -> String {
    format!(
        "
PROGRAM MSTEN
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N), C(N), A2(N), B2(N), C2(N)
INTEGER IT
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ ALIGN A2(I) WITH T(I)
C$ ALIGN B2(I) WITH T(I)
C$ ALIGN C2(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(I) = REAL(I)
FORALL (I=1:N) B(I) = REAL(2*I)
FORALL (I=1:N) C(I) = REAL(3*I)
DO IT = 1, {iters}
  FORALL (I=2:N-1) A2(I) = 0.5*(A(I-1) + A(I+1))
  FORALL (I=2:N-1) B2(I) = 0.5*(B(I-1) + B(I+1))
  FORALL (I=2:N-1) C2(I) = 0.5*(C(I-1) + C(I+1))
  FORALL (I=2:N-1) A(I) = A2(I)
  FORALL (I=2:N-1) B(I) = B2(I)
  FORALL (I=2:N-1) C(I) = C2(I)
END DO
END
"
    )
}

fn compiled_with_plan(src: &str, grid: &[i64]) -> f90d_core::Compiled {
    let mut opts = CompileOptions::on_grid(grid);
    opts.opt.comm_plan = true;
    compile(src, &opts).unwrap_or_else(|e| panic!("{e}\n{src}"))
}

/// The first DO body in the program.
fn do_body(stmts: &[SStmt]) -> &[SStmt] {
    stmts
        .iter()
        .find_map(|s| match s {
            SStmt::DoSeq { body, .. } => Some(body.as_slice()),
            _ => None,
        })
        .expect("program has a DO loop")
}

fn roles(stmts: &[SStmt]) -> Vec<Option<PhaseRole>> {
    stmts
        .iter()
        .filter_map(|s| match s {
            SStmt::Forall(f) => Some(f.plan),
            _ => None,
        })
        .collect()
}

/// Every FORALL annotation anywhere in the program.
fn all_roles(stmts: &[SStmt]) -> Vec<Option<PhaseRole>> {
    let mut out = Vec::new();
    fn walk(stmts: &[SStmt], out: &mut Vec<Option<PhaseRole>>) {
        for s in stmts {
            match s {
                SStmt::Forall(f) => out.push(f.plan),
                SStmt::DoSeq { body, .. } => walk(body, out),
                SStmt::If { then, else_, .. } => {
                    walk(then, out);
                    walk(else_, out);
                }
                _ => {}
            }
        }
    }
    walk(stmts, &mut out);
    out
}

// ---- phase formation --------------------------------------------------------

#[test]
fn triple_stencil_forms_one_phase_of_three() {
    let c = compiled_with_plan(&triple_stencil(24, 2), &[4]);
    let body = do_body(&c.spmd.stmts);
    assert_eq!(
        roles(body),
        vec![
            Some(PhaseRole::Lead { len: 3 }),
            Some(PhaseRole::Member),
            Some(PhaseRole::Member),
            // Copy-backs read aligned elements — no prelude, no phase.
            None,
            None,
            None,
        ],
        "planner must group exactly the three stencil FORALLs"
    );
    // The annotation must not remove the per-statement preludes (they
    // are the fallback schedule).
    for s in body {
        if let SStmt::Forall(f) = s {
            if f.plan.is_some() {
                assert!(!f.pre.is_empty(), "phase member lost its prelude");
            }
        }
    }
}

#[test]
fn write_read_conflict_prevents_grouping() {
    // Statement 2 exchanges A, which statement 1 writes: grouping them
    // would move A's ghost exchange before A's update. Neither lone
    // statement profits from a phase, so nothing is annotated.
    // `B(I) = C(I)` keeps B loop-varying, so B's exchanges stay pinned
    // in the loop instead of hoisting (empty preludes can't phase).
    let src = "
PROGRAM CONF
INTEGER, PARAMETER :: N = 24
REAL A(N), B(N), C(N)
INTEGER IT
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
DO IT = 1, 2
  FORALL (I=2:N-1) A(I) = 0.5*(B(I-1) + B(I+1))
  FORALL (I=2:N-1) C(I) = B(I) + A(I+1)
  FORALL (I=2:N-1) B(I) = C(I)
END DO
END
";
    let c = compiled_with_plan(src, &[4]);
    assert!(
        all_roles(&c.spmd.stmts).iter().all(|r| r.is_none()),
        "write→read conflict must leave both statements per-statement"
    );
    // Control: with the conflict removed (no A(I+1) read), the two
    // statements share the B(I-1) exchange and must phase.
    let ok = src.replace("C(I) = B(I) + A(I+1)", "C(I) = B(I-1) + A(I)");
    let c = compiled_with_plan(&ok, &[4]);
    let body = do_body(&c.spmd.stmts);
    assert_eq!(
        roles(body),
        vec![
            Some(PhaseRole::Lead { len: 2 }),
            Some(PhaseRole::Member),
            None,
        ],
        "conflict-free pair sharing an exchange must phase\n{ok}"
    );
}

#[test]
fn non_forall_separator_breaks_the_group() {
    // A replicated scalar assignment between the two stencils forces
    // two singleton candidates; neither is profitable alone.
    let src = "
PROGRAM SEP
INTEGER, PARAMETER :: N = 24
REAL A(N), B(N), C(N), D(N)
REAL S
INTEGER IT
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ ALIGN D(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(I) = REAL(I)
FORALL (I=1:N) B(I) = REAL(N-I)
S = 0.0
DO IT = 1, 2
  FORALL (I=2:N-1) C(I) = A(I-1) + A(I+1)
  S = S + 1.0
  FORALL (I=2:N-1) D(I) = B(I-1) + B(I+1)
END DO
END
";
    let c = compiled_with_plan(src, &[4]);
    assert!(
        all_roles(&c.spmd.stmts).iter().all(|r| r.is_none()),
        "separated stencils must not phase across the scalar assignment"
    );
}

#[test]
fn plan_off_leaves_no_annotations() {
    let c = compile(
        &triple_stencil(24, 2),
        &CompileOptions::on_grid(&[4]), // comm_plan defaults to false
    )
    .unwrap();
    assert!(
        all_roles(&c.spmd.stmts).iter().all(|r| r.is_none()),
        "default flags must never annotate (baseline pinning)"
    );
}

#[test]
fn multi_array_single_forall_phases_alone() {
    // One FORALL reading two shifted arrays: a len-1 phase coalescing
    // the two same-direction strips into one message per neighbour.
    let src = "
PROGRAM ONEF
INTEGER, PARAMETER :: N = 24
REAL A(N), B(N), C(N)
INTEGER IT
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) C(I) = REAL(N-I)
DO IT = 1, 2
  FORALL (I=2:N-1) A(I) = B(I+1) + C(I+1)
  FORALL (I=2:N-1) B(I) = A(I)
  FORALL (I=2:N-1) C(I) = 0.5*A(I)
END DO
END
";
    let c = compiled_with_plan(src, &[4]);
    let body = do_body(&c.spmd.stmts);
    assert_eq!(
        roles(body),
        vec![Some(PhaseRole::Lead { len: 1 }), None, None],
        "two same-direction strips in one FORALL justify a len-1 phase"
    );
}

// ---- execution: the plan must be invisible in results -----------------------

fn run(src: &str, grid: &[i64], tier: Tier, plan: bool, arrays: &[&str]) -> Observed {
    observe_with(src, grid, arrays, tier, &|opts| opts.opt.comm_plan = plan)
        .unwrap_or_else(|e| panic!("{e}\n{src}"))
        .0
}

#[test]
fn plan_execution_bit_identical_and_coalesces() {
    let src = triple_stencil(32, 3);
    let arrays = ["A", "B", "C", "A2", "B2", "C2"];
    for tier in [Tier::Bytecode, Tier::Native] {
        let off = run(&src, &[4], tier, false, &arrays);
        let on = run(&src, &[4], tier, true, &arrays);
        assert_eq!(
            on.arrays, off.arrays,
            "arrays must be bit-identical ({tier:?})"
        );
        assert_eq!(
            on.printed, off.printed,
            "PRINT must be identical ({tier:?})"
        );
        assert_eq!(
            on.bytes, off.bytes,
            "coalescing repacks, never re-sends bytes"
        );
        assert!(
            on.messages < off.messages,
            "phase must coalesce wire messages ({tier:?}): {} vs {}",
            on.messages,
            off.messages
        );
        assert!(
            on.elapsed() < off.elapsed(),
            "saved message startups must show in virtual time ({tier:?}): {} vs {}",
            on.elapsed(),
            off.elapsed()
        );
    }
}

#[test]
fn plan_execution_identical_across_tiers() {
    let src = triple_stencil(32, 3);
    let arrays = ["A", "B", "C", "A2", "B2", "C2"];
    assert_eq!(
        run(&src, &[4], Tier::Bytecode, true, &arrays),
        run(&src, &[4], Tier::Native, true, &arrays),
        "clocks, messages, bytes, PRINT and arrays must agree"
    );
}

// ---- hoist def-use regressions ----------------------------------------------

/// `top_level_comm == expected` plus hoist-on vs hoist-off result
/// equality.
fn check_hoist(src: &str, grid: &[i64], arrays: &[&str], expected_hoisted: usize) {
    let mut on = CompileOptions::on_grid(grid);
    on.opt.hoist_invariant_comm = true;
    let compiled = compile(src, &on).unwrap_or_else(|e| panic!("{e}\n{src}"));
    let hoisted = compiled
        .spmd
        .stmts
        .iter()
        .filter(|s| matches!(s, SStmt::Comm(_)))
        .count();
    assert_eq!(hoisted, expected_hoisted, "wrong hoist count\n{src}");
    let with_hoist = |hoist: bool| {
        observe_with(src, grid, arrays, Tier::Native, &|opts| {
            opts.opt.hoist_invariant_comm = hoist
        })
        .unwrap_or_else(|e| panic!("{e}\n{src}"))
        .0
    };
    assert_eq!(
        with_hoist(true).arrays,
        with_hoist(false).arrays,
        "hoist changed results\n{src}"
    );
}

#[test]
fn where_masked_write_pins_exchange() {
    // The WHERE normalizes to a masked FORALL writing B; B's shift for
    // the stencil must therefore stay inside the loop.
    let src = "
PROGRAM WPIN
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N)
INTEGER K
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) A(I) = 0.0
DO K = 1, 3
  FORALL (I=1:N-1) A(I) = A(I) + B(I+1)
  WHERE (B > 4.0) B = B - 1.0
END DO
END
";
    check_hoist(src, &[4], &["A", "B"], 0);
}

#[test]
fn redistribute_in_loop_pins_exchange() {
    // REDISTRIBUTE counts as a write: B's placement changes each trip,
    // so its exchange cannot move out.
    let src = "
PROGRAM RPIN
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N)
INTEGER K
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
C$ DISTRIBUTE B(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) A(I) = 0.0
DO K = 1, 2
  FORALL (I=1:N-1) A(I) = A(I) + B(I+1)
C$ REDISTRIBUTE B(CYCLIC)
C$ REDISTRIBUTE B(BLOCK)
END DO
END
";
    check_hoist(src, &[4], &["A"], 0);
}

#[test]
fn written_scalar_pins_broadcast() {
    // S is reassigned every iteration by a scalar assignment (not a DO
    // variable): the broadcast of B(S) must stay inside the loop. The
    // old def-use audit only checked the DO variable.
    let src = "
PROGRAM SPIN
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N)
INTEGER K, S
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) A(I) = 0.0
S = 0
DO K = 1, 3
  S = S + 2
  FORALL (I=1:N) A(I) = A(I) + B(S)
END DO
END
";
    check_hoist(src, &[4], &["A", "B"], 0);
}

#[test]
fn invariant_exchange_still_hoists() {
    // Guard against over-pinning: the classic invariant shift must keep
    // hoisting (B never written, no scalars in its arguments).
    let src = "
PROGRAM HSTILL
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N)
INTEGER K
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) A(I) = 0.0
DO K = 1, 3
  FORALL (I=1:N-1) A(I) = A(I) + B(I+1)
END DO
END
";
    check_hoist(src, &[4], &["A", "B"], 1);
}
