//! The bounds contract of a FORALL's owned write: `set_BOUND` clamps a
//! range to the written array's extent, so an unmasked FORALL whose
//! write leaves the extent is an error before any rank runs — the
//! element loops' error for the first violating iteration in FORALL
//! order — and a masked one runs exactly its in-bounds iterations. The
//! reference interpreter returns the same errors. Every case runs under
//! BLOCK, CYCLIC and CYCLIC(3) on both tiers.

mod common;

use common::{observe, Tier};
use f90d_core::reference::run_reference;
use f90d_core::{compile, CompileOptions};

const DISTS: [&str; 3] = ["BLOCK", "CYCLIC", "CYCLIC(3)"];

const CORPUS: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");

/// The source and the pinned output of a corpus program.
fn corpus(name: &str) -> (String, String) {
    let read = |ext: &str| std::fs::read_to_string(format!("{CORPUS}/{name}.{ext}")).unwrap();
    (read("f90d"), read("expected"))
}

/// `A(16)` set to 1.0 and then `stmt`, on one 1-D template of `dist`;
/// prints the sum and three elements.
fn program(dist: &str, stmt: &str) -> String {
    format!(
        "
PROGRAM BOUNDS
INTEGER, PARAMETER :: N = 16
REAL A(N)
REAL S
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ DISTRIBUTE T({dist})
A = 1.0
{stmt}
S = SUM(A)
PRINT *, 'SUM', S, A(1), A(2), A(16)
END
"
    )
}

/// What the reference interpreter gives `src` on `grid`: its PRINT lines
/// or its error.
fn reference(src: &str, grid: &[i64]) -> Result<Vec<String>, String> {
    let compiled = compile(src, &CompileOptions::on_grid(grid)).expect("compiles");
    run_reference(&compiled.analyzed, &Default::default()).map(|state| state.printed)
}

/// PRINT lines or the error, on one tier.
fn engine(src: &str, grid: &[i64], tier: Tier) -> Result<Vec<String>, String> {
    observe(src, grid, &[], tier).map(|(seen, _)| seen.printed)
}

/// A legal masked, strided FORALL whose range starts below the extent
/// off its step: the mask drops `I = 0`, and the in-bounds `I = 2, 4, …,
/// 16` run. `set_BOUND` used to clamp the start to 0, off the step, so
/// no iteration ran and the sum stayed 16.
#[test]
fn a_masked_strided_forall_runs_its_in_bounds_iterations() {
    for dist in DISTS {
        let src = program(dist, "FORALL (I=0:N:2, I > 0) A(I) = 2.0");
        let want = reference(&src, &[4]).expect("the reference runs");
        assert_eq!(want[0], "SUM 24.000000 1.000000 2.000000 2.000000");
        for tier in [Tier::Bytecode, Tier::Native] {
            let got = engine(&src, &[4], tier).expect("runs");
            assert_eq!(got, want, "{dist} on {tier:?}");
        }
    }
    // The corpus pin of the three distributions is the reference's.
    let (src, expected) = corpus("forall_masked_stride");
    let want = reference(&src, &[4]).expect("the reference runs");
    assert_eq!(want.join("\n") + "\n", expected);
}

/// An unmasked FORALL whose owned write leaves the extent returns the
/// element loops' error for its first violating iteration, on every
/// tier and distribution, as the reference interpreter does. It used to
/// run the iterations inside and drop the rest silently.
#[test]
fn an_out_of_range_owned_write_is_an_error() {
    let cases = [
        ("FORALL (I=0:N+3) A(I) = 2.0", "subscript 0"),
        ("FORALL (I=0:N:2) A(I) = 2.0", "subscript 0"),
        ("FORALL (I=-1:N:3) A(I) = 2.0", "subscript -1"),
        // Only the upper end leaves the extent, forwards and reversed.
        ("FORALL (I=2:N+5:3) A(I) = 2.0", "subscript 17"),
        ("FORALL (I=1:N+1) A(N+1-I) = 2.0", "subscript 0"),
    ];
    for dist in DISTS {
        for (stmt, sub) in cases {
            let src = program(dist, stmt);
            let want = format!("{sub} out of bounds on dim 0 of A (extent 16)");
            assert_eq!(
                reference(&src, &[4]),
                Err(want.clone()),
                "{stmt} in the reference"
            );
            for tier in [Tier::Bytecode, Tier::Native] {
                let got = engine(&src, &[4], tier);
                assert_eq!(got, Err(want.clone()), "{stmt} under {dist} on {tier:?}");
            }
        }
    }
}

/// Over two variables, the first violating iteration in FORALL order
/// (the first variable outermost) is the inner variable's first
/// violation with the outer one at its first iterate.
#[test]
fn the_first_violating_iteration_is_in_forall_order() {
    for dist in DISTS {
        let src = format!(
            "
PROGRAM BOUNDS2
INTEGER, PARAMETER :: N = 8
REAL A(N,N)
C$ DISTRIBUTE A({dist}, {dist})
FORALL (I=1:N+1, J=1:N+2) A(I,J) = 1.0
PRINT *, 'DONE'
END
"
        );
        let want = "subscript 9 out of bounds on dim 1 of A (extent 8)".to_string();
        assert_eq!(
            reference(&src, &[2, 2]),
            Err(want.clone()),
            "{dist}: reference"
        );
        for tier in [Tier::Bytecode, Tier::Native] {
            let got = engine(&src, &[2, 2], tier);
            assert_eq!(got, Err(want.clone()), "{dist} on {tier:?}");
        }
    }
}

/// The corpus programs that fault on a subscript give the same error in
/// the reference interpreter and on both tiers, and it is the one their
/// `.expected` pins. Their right-hand sides are constants or in range,
/// so no order within an iteration is at stake.
#[test]
fn the_oracle_returns_the_engines_subscript_errors() {
    for name in [
        "doplan_bindfail",
        "forall_write_span",
        "forall_write_stride",
        "forall_write_offstep",
    ] {
        let (src, expected) = corpus(name);
        let want = expected
            .trim_end()
            .strip_prefix("ERROR ")
            .expect("an ERROR pin");
        assert_eq!(
            reference(&src, &[4]),
            Err(want.to_string()),
            "{name}: reference"
        );
        for tier in [Tier::Bytecode, Tier::Native] {
            assert_eq!(
                engine(&src, &[4], tier),
                Err(want.to_string()),
                "{name} on {tier:?}"
            );
        }
    }
}
