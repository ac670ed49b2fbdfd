//! Layering guard: the FORALL communication lifecycle is sequenced in
//! exactly one place — `f90d_comm::driver` — and the calls into the
//! run-time library are dispatched in exactly one place — the statement
//! layer's `f90d_vm::dispatch`. PR 8's bugfix battery showed what
//! happens otherwise: with orchestration inlined in each of the two
//! executors of the time, the rank-1 multicast slab-temp bug had to be
//! fixed twice. This test fails the build if any module of the engine
//! crate but `dispatch.rs` — the statement stream, the chunk loop, the
//! native bind and box run, the operator tables — grows a direct
//! reference to the batching planner, the raw shift planner or its
//! per-run table, the raw transport post call, the structured or
//! redistribution primitives, the `set_BOUND` routine or the scatter
//! executor, so element evaluation and orchestration stay apart.

use std::fs;
use std::path::Path;

/// Raw-orchestration identifiers the engine must not mention. Doc
/// comments count too: a comment pointing readers at the raw layer is
/// the first step toward someone calling it.
const FORBIDDEN: &[&str] = &[
    "PhaseExchange",
    "shift_moves",
    "shift_plan(",
    "post_send",
    "structured::",
    "redist::",
    "set_bound",
    "execute_write",
];

fn check(path: &Path) {
    let rel = path.display();
    let src =
        fs::read_to_string(path).unwrap_or_else(|e| panic!("guard test cannot read {rel}: {e}"));
    for needle in FORBIDDEN {
        for (lineno, line) in src.lines().enumerate() {
            assert!(
                !line.contains(needle),
                "{rel}:{} references `{needle}` directly; comm orchestration \
                 goes through f90d_comm::driver, run-time calls through \
                 f90d_vm::dispatch\n  {}",
                lineno + 1,
                line.trim()
            );
        }
    }
}

#[test]
fn engine_uses_driver_only() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../vm/src");
    let mut checked = 0;
    for entry in fs::read_dir(&dir).expect("the engine crate's sources") {
        let path = entry.expect("a directory entry").path();
        if path.extension().is_some_and(|x| x == "rs") && !path.ends_with("dispatch.rs") {
            check(&path);
            checked += 1;
        }
    }
    assert!(checked > 1, "the guard found no engine source to check");
}
