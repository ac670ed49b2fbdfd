//! A run-time subscript outside the array extent in a statement the
//! shared statement layer executes — the element of `X = A(K)`
//! (`broadcast_elem`), the slab index of `B(I,J) = A(I,K)` (`multicast`
//! / `transfer`), a gathered or scattered `A(U(I))`, an owner
//! assignment `A(K) = …`, a fixed LHS index `B(I,K) = …` — is a fault
//! of the tenant's program, not of the daemon: both tiers must
//! report the same structured "subscript … out of bounds" error the
//! element loops give, and `f90d-serve` must answer
//! `execution error: …` (not `internal error: execution panicked`) and
//! stay healthy. So is an integer `MOD` or `/` whose divisor is zero at
//! run time, in an element loop or in scalar context: `MOD(x, 0)` used
//! to abort the run with Rust's remainder-by-zero panic.

use f90d_core::{compile, Backend, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{Machine, MachineSpec};
use f90d_serve::{Client, RunRequest, ServeConfig, Server};
use serde::json::Json;

const GRID: [i64; 2] = [2, 2];

/// Declarations shared by every case: K = 40 and U(I) = I + 16 are
/// outside every extent (N = 16), and Z is zero.
const PRELUDE: &str = "
PROGRAM OOB
INTEGER, PARAMETER :: N = 16
REAL A(N), B(N), A2(N, N), B2(N, N)
REAL X
INTEGER U(N)
INTEGER K, Z
C$ TEMPLATE T(N)
C$ TEMPLATE T2(N, N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN U(I) WITH T(I)
C$ ALIGN A2(I, J) WITH T2(I, J)
C$ ALIGN B2(I, J) WITH T2(I, J)
C$ DISTRIBUTE T(BLOCK)
C$ DISTRIBUTE T2(BLOCK, BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) U(I) = I + N
K = 40
Z = 0
";

/// `(faulting statement, the error both backends must give)`.
const CASES: [(&str, &str); 10] = [
    (
        "X = B(K)",
        "subscript 40 out of bounds on dim 0 of B (extent 16)",
    ),
    (
        "FORALL (I=1:N, J=1:N) B2(I,J) = A2(I,K)",
        "subscript 40 out of bounds on dim 1 of A2 (extent 16)",
    ),
    (
        "FORALL (I=1:N) B2(I,3) = A2(I,K)",
        "subscript 40 out of bounds on dim 1 of A2 (extent 16)",
    ),
    (
        "FORALL (I=1:N) B2(I,K) = A2(I,1)",
        "subscript 40 out of bounds on dim 1 of B2 (extent 16)",
    ),
    (
        "FORALL (I=1:N) A(I) = B(U(I))",
        "subscript 17 out of bounds on dim 0 of B (extent 16)",
    ),
    (
        "FORALL (I=1:N) A(U(I)) = B(I)",
        "subscript 17 out of bounds on dim 0 of A (extent 16)",
    ),
    (
        "A(K) = 1.0",
        "subscript 40 out of bounds on dim 0 of A (extent 16)",
    ),
    ("FORALL (I=1:N) U(I) = MOD(I, Z)", "integer MOD by zero"),
    ("K = MOD(K, Z)", "integer MOD by zero"),
    ("FORALL (I=1:N) U(I) = I / Z", "integer division by zero"),
];

fn program(stmt: &str) -> String {
    format!("{PRELUDE}{stmt}\nEND\n")
}

#[test]
fn both_tiers_report_the_structured_error() {
    for (stmt, want) in CASES {
        for native in [false, true] {
            let mut opts = CompileOptions::on_grid(&GRID);
            opts.opt.native_kernels = native;
            let compiled = compile(&program(stmt), &opts).unwrap();
            let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&GRID));
            let err = compiled.run_on(&mut m).unwrap_err();
            assert_eq!(err.0, want, "`{stmt}` with native kernels {native}");
        }
    }
}

#[test]
fn the_daemon_answers_execution_error_and_stays_healthy() {
    let handle = Server::spawn(ServeConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    for (stmt, want) in CASES {
        let resp = c
            .run(&RunRequest {
                source: program(stmt),
                grid: GRID.to_vec(),
                machine: "ipsc860".to_string(),
                backend: Backend::Vm,
                sched_cache: true,
                threaded: false,
                overlap: false,
            })
            .unwrap();
        assert_eq!(resp.get("ok"), Some(&Json::Bool(false)), "{resp:?}");
        assert_eq!(
            resp.get("error"),
            Some(&Json::Str(format!("execution error: {want}"))),
            "`{stmt}`"
        );
    }
    // The tree walker these cases also ran on is gone: asking for it is
    // a malformed request, like any unknown backend.
    let resp = c
        .request_raw(r#"{"op":"run","source":"END","grid":[2,2],"options":{"backend":"treewalk"}}"#)
        .unwrap();
    assert_eq!(resp.get("code"), Some(&Json::Num(400.0)), "{resp:?}");
    assert_eq!(
        resp.get("error"),
        Some(&Json::Str("unknown backend `treewalk` (want vm)".into()))
    );
    // Still serving, and on the same machine shape: the faulted runs
    // leaked nothing.
    assert_eq!(c.ping().unwrap().get("ok"), Some(&Json::Bool(true)));
    let good = c
        .run(&RunRequest {
            source: program("X = B(3)\nPRINT *, X"),
            grid: GRID.to_vec(),
            machine: "ipsc860".to_string(),
            backend: Backend::Vm,
            sched_cache: true,
            threaded: false,
            overlap: false,
        })
        .unwrap();
    assert_eq!(good.get("ok"), Some(&Json::Bool(true)), "{good:?}");
    handle.shutdown().unwrap();
}

/// `DO K = i64::MAX - 1, i64::MAX` used to wrap its increment past the
/// bound and never end, holding the tenant's admission slot forever (a
/// panic in a debug build). It is two trips: the daemon answers with
/// the PRINT line and goes on serving.
#[test]
fn a_do_loop_at_the_edge_of_i64_terminates() {
    let handle = Server::spawn(ServeConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    let stmt = "K = 0
DO Z = 9223372036854775806, 9223372036854775807
  K = K + 1
END DO
PRINT *, 'TRIPS', K";
    let resp = c
        .run(&RunRequest {
            source: program(stmt),
            grid: GRID.to_vec(),
            machine: "ipsc860".to_string(),
            backend: Backend::Vm,
            sched_cache: true,
            threaded: false,
            overlap: false,
        })
        .unwrap();
    assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{resp:?}");
    assert_eq!(
        resp.get("result").and_then(|r| r.get("printed")),
        Some(&Json::Arr(vec![Json::Str("TRIPS 2".into())]))
    );
    assert_eq!(c.ping().unwrap().get("ok"), Some(&Json::Bool(true)));
    handle.shutdown().unwrap();
}
