//! Layering guards.
//!
//! The FORALL communication lifecycle is sequenced in exactly one
//! place — `f90d_comm::driver` — and the calls into the run-time library
//! are dispatched in exactly one place — the statement layer's
//! `f90d_vm::dispatch`. With orchestration inlined in each of two
//! executors, the rank-1 multicast slab-temp bug once had to be fixed
//! twice.
//! [`engine_uses_driver_only`] fails the build if any module of the
//! engine crate but `dispatch.rs` — the statement stream, the chunk loop,
//! the native bind and box run, the operator tables — grows a direct
//! reference to the exchange operation, the raw shift planner or its
//! per-run table, the raw transport post call, the structured or
//! redistribution primitives, the `set_BOUND` routine or the scatter
//! executor, so element evaluation and orchestration stay apart.
//!
//! Inside this crate, messages are sent and brought to their receivers
//! in exactly two files: `helpers.rs` (the one split-phase `ExchangeOp`,
//! which holds its messages and prices them through the transport's
//! two halves, `charge_send` and `arrive`, and the collective trees,
//! each edge one `Transport::deliver`) and `schedule.rs` (the
//! inspector's request messages, through the two halves).
//! [`transport_calls_stay_in_the_message_path`] keeps every other
//! primitive on top of those, so a per-category profile or a
//! fault-injecting transport has one loop to hook.

use std::fs;
use std::path::{Path, PathBuf};

/// Raw-orchestration identifiers the engine must not mention. Doc
/// comments count too: a comment pointing readers at the raw layer is
/// the first step toward someone calling it.
const FORBIDDEN: &[&str] = &[
    "ExchangeOp",
    "shift_moves",
    "shift_plan(",
    "post_send",
    "structured::",
    "redist::",
    "set_bound",
    "execute_write",
];

/// Point-to-point transport calls, allowed only in [`MESSAGE_PATH`]:
/// the posted trio, `deliver`, and the two halves of a message.
const TRANSPORT_CALLS: &[&str] = &[
    "post_send(",
    "post_recv(",
    ".complete(",
    ".deliver(",
    "charge_send(",
    ".arrive(",
];

/// The files of `crates/comm/src` that may post and complete messages.
const MESSAGE_PATH: &[&str] = &["helpers.rs", "schedule.rs"];

/// Panic on the first line of `path` that contains one of `needles`.
fn check(path: &Path, needles: &[&str], why: &str) {
    let rel = path.display();
    let src =
        fs::read_to_string(path).unwrap_or_else(|e| panic!("guard test cannot read {rel}: {e}"));
    for needle in needles {
        for (lineno, line) in src.lines().enumerate() {
            assert!(
                !line.contains(needle),
                "{rel}:{} references `{needle}` directly; {why}\n  {}",
                lineno + 1,
                line.trim()
            );
        }
    }
}

/// The `.rs` files of `dir` (relative to this crate) not named in `skip`.
fn sources(dir: &str, skip: &[&str]) -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(dir);
    let mut out = Vec::new();
    for entry in fs::read_dir(&dir).expect("a source directory") {
        let path = entry.expect("a directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.extension().is_some_and(|x| x == "rs") && !skip.contains(&name) {
            out.push(path);
        }
    }
    assert!(
        out.len() > 1,
        "the guard found no source to check in {dir:?}"
    );
    out
}

#[test]
fn engine_uses_driver_only() {
    for path in sources("../vm/src", &["dispatch.rs"]) {
        let why = "comm orchestration goes through f90d_comm::driver, run-time calls \
                   through f90d_vm::dispatch";
        check(&path, FORBIDDEN, why);
    }
}

#[test]
fn transport_calls_stay_in_the_message_path() {
    for path in sources("src", MESSAGE_PATH) {
        let why = "messages are sent and completed only by helpers.rs (ExchangeOp and \
                   the collective trees) and schedule.rs (the inspector's requests)";
        check(&path, TRANSPORT_CALLS, why);
    }
}
