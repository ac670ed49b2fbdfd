//! Contract of the chunk-at-a-time bytecode evaluator: a FORALL the
//! native tier does not take runs a chunk of iterations per operator
//! dispatch over typed columns, and nothing observable may tell — arrays
//! and every padded cell of them on every rank, every rank clock by
//! bits, messages, bytes and PRINT equal the native tier's (and the
//! arrays the sequential reference interpreter's); a masked-out
//! iteration evaluates nothing; writes commit in iteration order; and a
//! fault is the element loop's fault — the first faulting iteration's
//! first faulting operation, in the same words, with nothing of the
//! rank committed.
//!
//! Every program here runs with `native_kernels = false`
//! ([`Tier::Bytecode`]), so each FORALL is on the chunk evaluator
//! whatever the native tier would make of it. The chunk length is a
//! private constant of `f90d_vm`'s `chunk` module (512); the shapes
//! below are sized around it.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use common::{observe, observe_with, Observed, Tier};
use f90d_core::ir::{ElemAssign, SExpr, SProgram, SStmt};
use f90d_core::reference::run_reference;
use f90d_core::{compile, vmlower, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_frontend::ast::BinOp;
use f90d_machine::{Machine, MachineSpec, Value};

/// The evaluator's chunk length.
const CHUNK: i64 = 512;

/// `src` on `grid`: the chunk evaluator shows what the default tiers
/// show, and — with `reference` — leaves the arrays the reference
/// interpreter leaves.
fn agree(label: &str, src: &str, grid: &[i64], arrays: &[&str], reference: bool) -> Observed {
    let run = |tier| {
        observe(src, grid, arrays, tier)
            .unwrap_or_else(|e| panic!("{label}: {tier:?} failed: {e}\n{src}"))
    };
    let (vm, tr) = run(Tier::Bytecode);
    assert_eq!(tr.native_matched, 0, "{label}: the native tier is off");
    let (nat, _) = run(Tier::Native);
    assert_eq!(vm, nat, "{label}: bytecode vs the default tiers\n{src}");
    if reference {
        let compiled = compile(src, &CompileOptions::on_grid(grid)).expect("compiles");
        let want = run_reference(&compiled.analyzed, &HashMap::new()).expect("reference runs");
        for (name, img) in arrays.iter().zip(&vm.arrays) {
            assert_eq!(
                img, &want.arrays[*name].data,
                "{label}: array {name} vs the reference interpreter\n{src}"
            );
        }
        assert_eq!(vm.printed, want.printed, "{label}: PRINT vs the reference");
    }
    vm
}

/// `src` faults: every tier returns `want`, word for word, and leaves
/// nothing in flight (`observe` checks).
fn faults(label: &str, src: &str, grid: &[i64], want: &str) {
    for tier in [Tier::Bytecode, Tier::Native] {
        let err = observe(src, grid, &[], tier).expect_err("the program faults");
        assert_eq!(err, want, "{label} on {tier:?}\n{src}");
    }
}

/// Per-rank iteration counts 0, 1, chunk − 1, chunk, chunk + 1 and
/// 2·chunk + 3 (a BLOCK of 2·chunk + 3 per rank, loops that stop short
/// of it, at it and one past it): every chunk boundary, the ragged last
/// chunk and the rank that runs nothing. Each FORALL updates `A` in
/// place through an intrinsic, a `MOD` and a shifted read.
#[test]
fn chunk_boundaries_in_one_dimension() {
    let block = 2 * CHUNK + 3;
    let n = 4 * block;
    let mut body = String::new();
    for k in [1, CHUNK - 1, CHUNK, CHUNK + 1, block, block + 1, n - 1] {
        body += &format!("FORALL (I=1:{k}) A(I) = A(I) + SQRT(ABS(B(I+1))) + REAL(MOD(I, 5))\n");
    }
    let src = format!(
        "
PROGRAM EDGES
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N)
REAL S
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(MOD(I*7, 13)) - 6.0
FORALL (I=1:N) A(I) = 0.25
{body}S = SUM(A)
PRINT *, 'SUM', S
END
"
    );
    agree("1-D chunk edges", &src, &[4], &["A", "B"], true);
}

/// Rows of 7 under 100 outer tuples per rank: the chunk boundary falls
/// inside a row, and the in-place stencil reads cells of `A` that
/// earlier chunks of the same FORALL have already staged writes for —
/// all reads see the state before the statement.
#[test]
fn rows_that_straddle_chunks_and_an_in_place_stencil() {
    let src = "
PROGRAM ROWS7
INTEGER, PARAMETER :: N1 = 200, N2 = 28
REAL A(N1, N2), B(N1, N2)
INTEGER IT
C$ TEMPLATE T(N1, N2)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
C$ DISTRIBUTE T(BLOCK, BLOCK)
FORALL (I=1:N1, J=1:N2) B(I,J) = REAL(MOD(I*3 + J*5, 64))
FORALL (I=1:N1, J=1:N2) A(I,J) = REAL(MOD(I + J, 7)) * 0.5
DO IT = 1, 2
  FORALL (I=2:N1-1, J=2:N2-1)&
&   A(I,J) = 0.25*(A(I-1,J) + A(I+1,J) + A(I,J-1) + A(I,J+1)) + B(I,J)
END DO
END
";
    agree("rows of 7", src, &[2, 4], &["A", "B"], true);
    // The same statement where nothing is distributed along the rows'
    // dimension, and on one rank: a single rank's space is 198 x 26.
    let src = src.replace("T(BLOCK, BLOCK)", "T(BLOCK, *)");
    agree("rows of 26", &src, &[4], &["A", "B"], true);
    agree("one rank", &src, &[1], &["A", "B"], true);
}

/// Masks: all false, all true, a uniform (scalar) mask either way, and
/// masks false exactly on the lanes that would fault — an integer
/// division by a zero element, a read one past the extent. A masked-out
/// lane is compacted away, not predicated: it evaluates nothing.
#[test]
fn masks_compact_the_lanes_that_would_fault() {
    let n = 3 * CHUNK + 17;
    let src = format!(
        "
PROGRAM MASKS
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N), C(N), D(N), E(N)
INTEGER K(N)
INTEGER FLAG
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ ALIGN D(I) WITH T(I)
C$ ALIGN E(I) WITH T(I)
C$ ALIGN K(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(MOD(I*7, 13)) - 6.0
FORALL (I=1:N) K(I) = MOD(I, 3)
FORALL (I=1:N) A(I) = -1.0
FORALL (I=1:N) C(I) = -1.0
FORALL (I=1:N) D(I) = -1.0
FORALL (I=1:N) E(I) = -1.0
FORALL (I=1:N, I < 0) A(I) = 1.0 / REAL(K(I))
FORALL (I=1:N, I > 0) C(I) = B(I) * 2.0
FORALL (I=1:N, K(I) /= 0) A(I) = REAL(100 / K(I)) + B(I)
FORALL (I=1:N, I < N) D(I) = B(I+1)
FLAG = 1
FORALL (I=1:N, FLAG > 0) E(I) = B(I)
FLAG = 0
FORALL (I=1:N, FLAG > 0) E(I) = REAL(100 / K(I))
END
"
    );
    let seen = agree("masks", &src, &[4], &["A", "C", "D", "E"], true);
    // Two of three iterations passed the division's mask.
    let a = seen.arrays[0].as_real_slice();
    assert_eq!(a.iter().filter(|&&x| x == -1.0).count() as i64, n / 3);
}

/// Two different faults in one chunk: `MOD` by a zero element from the
/// third lane on, a read before the array at the first lane only. The
/// `MOD` comes first in the expression, so the chunk meets it first —
/// and the error is still the first iteration's.
#[test]
fn the_error_is_the_first_faulting_iteration_s() {
    let src = "
PROGRAM TWOFAULTS
INTEGER, PARAMETER :: N = 64
REAL A(N), B(N)
INTEGER D(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN D(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) D(I) = 1
FORALL (I=5:N) D(I) = 0
FORALL (I=3:N) A(I) = REAL(MOD(I, D(I))) + B(I-3)
END
";
    faults(
        "MOD by zero from iteration 5, read of B(0) at iteration 3",
        src,
        &[4],
        "subscript 0 out of bounds on dim 0 of B (extent 64)",
    );
    // With the early fault gone, the later one is the error.
    let src = src.replace("B(I-3)", "B(I-2)");
    faults(
        "MOD by zero from iteration 5",
        &src,
        &[4],
        "integer MOD by zero",
    );
    // And within one iteration the first faulting operation wins: at
    // I = 5 the subscript of the read is evaluated before the MOD.
    let src = src.replace("REAL(MOD(I, D(I))) + B(I-2)", "B(I-5) + REAL(MOD(I, D(I)))");
    faults(
        "read of B(0) before MOD by zero, both at iteration 5",
        &src.replace("FORALL (I=3:N) A", "FORALL (I=5:N) A"),
        &[4],
        "subscript 0 out of bounds on dim 0 of B (extent 64)",
    );
}

/// One rank of the bytecode tier, run by hand so that the machine can be
/// looked at after a fault.
fn run_bytecode(src: &str, grid: &[i64]) -> (Result<(), String>, Machine) {
    let mut opts = CompileOptions::on_grid(grid);
    opts.opt.native_kernels = false;
    let compiled = compile(src, &opts).expect("compiles");
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(grid));
    let result = compiled.run_on(&mut m).map(|_| ()).map_err(|e| e.0);
    (result, m)
}

/// A fault in a rank's last chunk, after two chunks of the same FORALL
/// staged their writes: the rank commits nothing — its segment is what
/// the statements before left.
#[test]
fn a_fault_in_the_last_chunk_commits_nothing() {
    let block = 2 * CHUNK + 3;
    let program = |last: &str| {
        format!(
            "
PROGRAM LATE
INTEGER, PARAMETER :: N = {n}
REAL A(N)
INTEGER K(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN K(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) K(I) = 1
K({block}) = 0
FORALL (I=1:N) A(I) = REAL(I) * 0.5
{last}
END
",
            n = 4 * block
        )
    };
    let (ok, before) = run_bytecode(&program(""), &[4]);
    ok.expect("the prefix runs");
    let (err, after) = run_bytecode(&program("FORALL (I=1:N) A(I) = REAL(100 / K(I))"), &[4]);
    assert_eq!(err.unwrap_err(), "integer division by zero");
    assert_eq!(
        after.mems[0].array("A"),
        before.mems[0].array("A"),
        "the faulting rank's segment is untouched"
    );
}

/// The main unit's FORALLs, in statement order.
fn foralls(spmd: &mut SProgram) -> Vec<&mut f90d_core::ir::ForallNode> {
    (spmd.stmts.iter_mut())
        .filter_map(|s| match s {
            SStmt::Forall(f) => Some(f),
            _ => None,
        })
        .collect()
}

/// Run a node program (edited by hand after compilation, so that it
/// holds what the compiler never emits) on the bytecode tier: the
/// result, and the machine it left.
fn run_ir(spmd: &SProgram, grid: &[i64]) -> (Result<(), String>, Machine) {
    let prog = Arc::new(vmlower::lower_with(spmd, false).expect("lowers"));
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(grid));
    let vm = f90d_vm::Engine::new(prog, &mut m).run(&mut m);
    (vm.map(|_| ()).map_err(|e| e.0), m)
}

fn compiled_ir(src: &str, grid: &[i64]) -> SProgram {
    compile(src, &CompileOptions::on_grid(grid))
        .expect("compiles")
        .spmd
}

/// Fold the last FORALL's body into the one before it (same loop, same
/// array): a FORALL of two assignments, which commits tuple by tuple,
/// body by body within a tuple.
fn merge_last_two_foralls(spmd: &mut SProgram) {
    let Some(SStmt::Forall(last)) = spmd.stmts.pop() else {
        panic!("the program ends in a FORALL");
    };
    let Some(SStmt::Forall(f)) = spmd.stmts.last_mut() else {
        panic!("the program ends in two FORALLs");
    };
    assert_eq!(f.vars, last.vars, "the two loops are one");
    f.body.extend(last.body);
}

/// Several bodies whose targets overlap at different tuples
/// (`A(I,J) = …; A(I,J+1) = …`): the writes of a FORALL commit in
/// iteration order with the bodies in order within an iteration, so the
/// second body's write of one tuple is overwritten by the first body's
/// write of the next — chunk-major order would keep the wrong one.
#[test]
fn several_bodies_keep_the_last_writer() {
    let src = "
PROGRAM TWOBODIES
INTEGER, PARAMETER :: N1 = 8, N2 = 300
REAL A(N1, N2), B(N1, N2), C(N1, N2)
C$ TEMPLATE T(N1, N2)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
C$ ALIGN C(I, J) WITH T(I, J)
C$ DISTRIBUTE T(BLOCK, *)
FORALL (I=1:N1, J=1:N2) B(I,J) = REAL(I*1000 + J)
FORALL (I=1:N1, J=1:N2) C(I,J) = -REAL(I*1000 + J)
FORALL (I=1:N1, J=1:N2) A(I,J) = 0.0
FORALL (I=1:N1, J=1:N2-1) A(I,J) = B(I,J)
FORALL (I=1:N1, J=1:N2-1) A(I,J+1) = C(I,J)
END
";
    let split = compiled_ir(src, &[4]);
    let mut spmd = split.clone();
    merge_last_two_foralls(&mut spmd);
    let (vm, m_vm) = run_ir(&spmd, &[4]);
    vm.expect("bytecode runs");
    for rank in 0..4 {
        let a_vm = m_vm.mems[rank].array("A");
        // Two rows a rank, 2 x 299 = 598 tuples: more than a chunk.
        for (l, i) in [(0, 2 * rank as i64 + 1), (1, 2 * rank as i64 + 2)] {
            for j in 1..=300i64 {
                let want = if j < 300 {
                    (i * 1000 + j) as f64
                } else {
                    -((i * 1000 + 299) as f64)
                };
                assert_eq!(a_vm.get(&[l, j - 1]), Value::Real(want), "A({i},{j})");
            }
        }
    }
    // One FORALL of two bodies costs what the two FORALLs cost (one
    // charge per rank in place of two: equal to the last bit or so).
    let (_, m_split) = run_ir(&split, &[4]);
    for (two, one) in m_split.transport.clocks.iter().zip(&m_vm.transport.clocks) {
        assert!(
            (two - one).abs() <= 4.0 * f64::EPSILON * two,
            "the two bodies charge as the two statements did: {two} vs {one}"
        );
    }
}

/// A fault in the second body at an earlier iteration than a fault in
/// the first: the chunk meets the first body's fault first (it runs the
/// first body over every lane before the second), and the error is
/// still the earlier iteration's.
#[test]
fn a_fault_in_a_later_body_at_an_earlier_iteration_wins() {
    let src = "
PROGRAM BODYFAULTS
INTEGER, PARAMETER :: N1 = 8, N2 = 40
REAL A(N1, N2)
INTEGER K1(N1, N2), K2(N1, N2)
C$ TEMPLATE T(N1, N2)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN K1(I, J) WITH T(I, J)
C$ ALIGN K2(I, J) WITH T(I, J)
C$ DISTRIBUTE T(BLOCK, *)
FORALL (I=1:N1, J=1:N2) K1(I,J) = J - 30
FORALL (I=1:N1, J=1:N2) K2(I,J) = J - 10
FORALL (I=1:N1, J=1:N2) A(I,J) = REAL(100 / K1(I,J))
FORALL (I=1:N1, J=1:N2) A(I,J) = REAL(MOD(100, K2(I,J)))
END
";
    let mut spmd = compiled_ir(src, &[4]);
    merge_last_two_foralls(&mut spmd);
    // Body 1 divides by zero at J = 30, body 2 at J = 10.
    let (result, _) = run_ir(&spmd, &[4]);
    assert_eq!(result.unwrap_err(), "integer MOD by zero");
}

/// `x + c` of a subscript expression.
fn shifted(x: &SExpr, c: i64) -> SExpr {
    SExpr::Bin(
        BinOp::Add,
        Box::new(x.clone()),
        Box::new(SExpr::Const(Value::Int(c))),
    )
}

/// Shift the first subscript of the one array read of `a`'s right-hand
/// side by `c`, without the communication a compiler would add.
fn shift_read(a: &mut ElemAssign, c: i64) {
    let SExpr::Read { subs, .. } = &mut a.rhs else {
        panic!("the right-hand side is one read");
    };
    subs[0] = shifted(&subs[0], c);
}

/// The two ownership faults of a resolved accessor, which no compiled
/// program reaches (the compiler adds the communication that makes every
/// read owned): a CYCLIC element of another rank and a BLOCK element
/// beyond the ghost cells.
#[test]
fn unowned_and_beyond_the_padding_are_the_scalar_form_s_errors() {
    let src = "
PROGRAM OWNERS
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T({dist})
FORALL (I=1:N-4) A(I) = B(I)
END
";
    let mut cyclic = compiled_ir(&src.replace("{dist}", "CYCLIC"), &[4]);
    shift_read(&mut foralls(&mut cyclic)[0].body[0], 1);
    let (result, _) = run_ir(&cyclic, &[4]);
    assert_eq!(result.unwrap_err(), "rank 0 reads unowned element [1] of B");
    let mut block = compiled_ir(&src.replace("{dist}", "BLOCK"), &[4]);
    shift_read(&mut foralls(&mut block)[0].body[0], 3);
    let (result, _) = run_ir(&block, &[4]);
    assert_eq!(
        result.unwrap_err(),
        "rank 0 reads outside the padded segment of B at [4]"
    );
}

/// A many-to-one left-hand side (`A(I) = B(I,J)`: the last `J` wins), a
/// reversed one, and an update that reads its own left-hand side at
/// another element.
#[test]
fn many_to_one_and_self_reading_writes() {
    let src = "
PROGRAM MANYTOONE
INTEGER, PARAMETER :: N1 = 16, N2 = 80
REAL A(N1), B(N1, N2), R(N2), Q(N2)
C$ TEMPLATE T(N1, N2)
C$ TEMPLATE T1(N1)
C$ ALIGN B(I, J) WITH T(I, J)
C$ ALIGN A(I) WITH T1(I)
C$ DISTRIBUTE T(BLOCK, *)
C$ DISTRIBUTE T1(BLOCK)
FORALL (I=1:N1, J=1:N2) B(I,J) = REAL(MOD(I*7 + J*3, 31)) - 9.0
FORALL (I=1:N1, J=1:N2) A(I) = B(I,J)
FORALL (J=1:N2) R(J) = REAL(J)
FORALL (J=1:N2) Q(N2+1-J) = R(J) * 2.0
FORALL (J=2:N2) R(J) = R(J-1) + R(J)
END
";
    agree("many-to-one", src, &[4], &["A", "R", "Q"], true);
}

/// Gathered reads under a mask, two of them per iteration: the
/// inspector pushes, and the executor's sequential buffers hold, one
/// element per *executed* iteration per gather; the chunk loop reads
/// each at its ordinal, across a chunk boundary.
#[test]
fn gathered_reads_under_a_mask_keep_their_ordinals() {
    let n = 4 * (CHUNK + 40);
    let src = format!(
        "
PROGRAM GATHERS
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N), C(N)
INTEGER U(N), V(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ ALIGN U(I) WITH T(I)
C$ ALIGN V(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I) * 0.5
FORALL (I=1:N) C(I) = REAL(N - I)
FORALL (I=1:N) U(I) = MOD(I*7, N) + 1
FORALL (I=1:N) V(I) = MOD(I*11 + 5, N) + 1
FORALL (I=1:N) A(I) = -1.0
FORALL (I=1:N, MOD(I, 3) /= 0) A(I) = B(U(I)) - 2.0*C(V(I)) + B(V(I))
END
"
    );
    agree("masked gathers", &src, &[4], &["A"], true);
}

/// The operand types off the REAL path: LOGICAL arrays as values and as
/// masks, a COMPLEX array, `MIN` / `MAX` over mixed INTEGER and REAL,
/// integer `**`, and a REAL scalar whose slot holds an INTEGER value
/// (scalar assignment stores what the expression gave).
#[test]
fn logical_complex_mixed_and_integer_power_columns() {
    let src = "
PROGRAM TYPES
INTEGER, PARAMETER :: N = 48
REAL A(N), B(N), E(N), F(N)
INTEGER K(N), P(N)
LOGICAL L(N), M(N)
COMPLEX Z(N), W(N)
REAL X
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN E(I) WITH T(I)
C$ ALIGN F(I) WITH T(I)
C$ ALIGN K(I) WITH T(I)
C$ ALIGN P(I) WITH T(I)
C$ ALIGN L(I) WITH T(I)
C$ ALIGN M(I) WITH T(I)
C$ ALIGN Z(I) WITH T(I)
C$ ALIGN W(I) WITH T(I)
C$ DISTRIBUTE T(CYCLIC(3))
X = 3
FORALL (I=1:N) B(I) = REAL(MOD(I*7, 13)) - 6.0
FORALL (I=1:N) K(I) = MOD(I, 5) - 2
FORALL (I=1:N) L(I) = B(I) > 0.0 .AND. MOD(I, 2) == 0
FORALL (I=1:N) M(I) = .NOT. L(I) .OR. K(I) >= 1
FORALL (I=1:N) A(I) = -1.0
FORALL (I=1:N, L(I)) A(I) = B(I) * X
FORALL (I=1:N, .NOT. M(I)) A(I) = X / 2
FORALL (I=1:N) E(I) = MAX(K(I), B(I), 1) + MIN(I, 7) + MIN(REAL(I), 2)
FORALL (I=1:N) P(I) = K(I) ** 2 + 2 ** MOD(I, 4) + MAX(K(I), -1, MOD(I, 3))
FORALL (I=1:N) Z(I) = B(I)
FORALL (I=1:N) W(I) = Z(I) * Z(I) - Z(I) / 4.0 + K(I)
FORALL (I=1:N) F(I) = -1.0
FORALL (I=1:N, Z(I) > 1.0) F(I) = ABS(B(I)) ** 0.5 + SIGN(2.0, B(I)) + NINT(B(I) * 0.3)
END
";
    agree(
        "operand types",
        src,
        &[4],
        &["A", "E", "F", "P", "L", "M", "Z", "W"],
        true,
    );
}

/// Split-phase execution (`comm_compute_overlap`): the chunk evaluator
/// runs the interior sub-product (30 × 30 = 900 tuples a rank, two
/// chunks) while the ghost strips are on the wire, then the boundary
/// slabs, and commits both stages together — the arrays of blocking
/// execution on other clocks. Under `Tier::Native` the masked FORALL
/// still runs on the chunk loop, split-phase, while the stencil runs
/// its phases on the box kernels.
#[test]
fn split_phase_runs_interior_and_boundary_through_the_chunk_loop() {
    let src = "
PROGRAM OVERLAP
INTEGER, PARAMETER :: N = 64
REAL A(N, N), B(N, N)
INTEGER IT
C$ TEMPLATE T(N, N)
C$ ALIGN A(I, J) WITH T(I, J)
C$ ALIGN B(I, J) WITH T(I, J)
C$ DISTRIBUTE T(BLOCK, BLOCK)
FORALL (I=1:N, J=1:N) B(I,J) = REAL(MOD(I*3 + J*5, 64))
FORALL (I=1:N, J=1:N) A(I,J) = 0.0
DO IT = 1, 3
  FORALL (I=2:N-1, J=2:N-1)&
&   A(I,J) = 0.25*(B(I-1,J) + B(I+1,J) + B(I,J-1) + B(I,J+1))
  FORALL (I=2:N-1, J=2:N-1, A(I,J) > 10.0) B(I,J) = A(I,J) + B(I,J+1) * 0.125
END DO
END
";
    let arrays = ["A", "B"];
    let overlap = |tier| {
        observe_with(src, &[2, 2], &arrays, tier, &|opts| {
            opts.opt.comm_compute_overlap = true;
        })
        .unwrap_or_else(|e| panic!("{tier:?} failed: {e}"))
    };
    let (vm, tr) = overlap(Tier::Bytecode);
    assert!(tr.native_fallback > 0 && tr.native_matched == 0);
    let (nat, nat_tr) = overlap(Tier::Native);
    assert_eq!(
        (nat_tr.native_matched, nat_tr.native_fallback),
        (4, 4),
        "native: the `A` fill and the 3 stencils; bytecode: the `MOD` fill and the 3 masked"
    );
    assert_eq!(vm, nat);
    let blocking = agree("blocking", src, &[2, 2], &arrays, true);
    assert_eq!(vm.arrays, blocking.arrays, "overlap changes clocks only");
    assert_eq!(vm.cells, blocking.cells);
    assert_ne!(vm.clocks, blocking.clocks, "the interior hid wire time");
}
