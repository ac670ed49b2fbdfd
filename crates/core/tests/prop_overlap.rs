//! Differential property test for the transport redesign: random shift
//! kernels × grids × both tiers × both local-phase execution modes
//! (threaded runs lease pool workers from the process-wide budget and
//! must be bit-identical to sequential ones, including under overlap).
//!
//! * **Blocking wrappers**: executing through the posted-operation API's
//!   post-then-finish wrappers must be deterministic and bit-identical
//!   across tiers — the committed `BENCH_baseline.json` (CI's
//!   `repro --quick --baseline` gate) pins these same metrics against the
//!   pre-redesign blocking transport, so equality here plus the CI gate
//!   is the "≡ pre-redesign baseline" property.
//! * **Overlap mode**: `comm_compute_overlap` must keep arrays, PRINT,
//!   message and byte counts bit-identical, never increase virtual time,
//!   and strictly decrease it on communication-bound multi-rank stencils.

mod common;

use common::{observe_on, Observed, Tier};
use f90d_machine::{budget, ExecMode, MachineSpec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct ShiftKernel {
    n: i64,
    shift1: i64,
    shift2: i64,
    iters: i64,
    grid: Vec<i64>,
    machine: &'static str,
    exec: ExecMode,
}

fn offset(c: i64) -> String {
    match c.cmp(&0) {
        std::cmp::Ordering::Equal => String::new(),
        std::cmp::Ordering::Greater => format!("+{c}"),
        std::cmp::Ordering::Less => format!("{c}"),
    }
}

/// A 1-D stencil whose RHS reads `B(I+s1)` and `B(I+s2)`: with BLOCK
/// distribution the detector emits `overlap_shift` preludes, which is
/// exactly the shape the split-phase path executes.
fn program(p: &ShiftKernel) -> String {
    let pad = p.shift1.abs().max(p.shift2.abs()).max(1);
    let (lo, hi) = (1 + pad, p.n - pad);
    format!(
        "
PROGRAM SHIFTK
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N)
INTEGER IT
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)*0.5
FORALL (I=1:N) A(I) = 0.0
DO IT = 1, {iters}
  FORALL (I={lo}:{hi}) A(I) = B(I{s1}) + 2.0*B(I{s2}) - B(I)
  FORALL (I={lo}:{hi}) B(I) = A(I)
END DO
END
",
        n = p.n,
        iters = p.iters,
        s1 = offset(p.shift1),
        s2 = offset(p.shift2),
    )
}

fn kernels() -> impl Strategy<Value = ShiftKernel> {
    (
        16i64..48,
        -3i64..=3,
        -3i64..=3,
        1i64..=3,
        prop_oneof![Just(vec![1]), Just(vec![2]), Just(vec![4])],
        prop_oneof![Just("ipsc860"), Just("ncube2")],
        prop_oneof![Just(ExecMode::Sequential), Just(ExecMode::Threaded)],
    )
        .prop_map(
            |(n, shift1, shift2, iters, grid, machine, exec)| ShiftKernel {
                n,
                shift1,
                shift2,
                iters,
                grid,
                machine,
                exec,
            },
        )
}

fn spec_of(name: &str) -> MachineSpec {
    match name {
        "ipsc860" => MachineSpec::ipsc860(),
        _ => MachineSpec::ncube2(),
    }
}

/// Everything one run shows, under an explicit execution mode.
fn run_exec(p: &ShiftKernel, tier: Tier, overlap: bool, exec: ExecMode) -> Observed {
    budget::global().ensure_total_at_least(8);
    let src = program(p);
    let spec = spec_of(p.machine);
    observe_on(&spec, &src, &p.grid, &["A", "B"], tier, exec, &|opts| {
        opts.opt.comm_compute_overlap = overlap
    })
    .unwrap_or_else(|e| panic!("{tier:?} failed: {e}\n{src}"))
    .0
}

/// [`run_exec`] under the kernel's sampled mode.
fn run(p: &ShiftKernel, tier: Tier, overlap: bool) -> Observed {
    run_exec(p, tier, overlap, p.exec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blocking_wrappers_deterministic_and_tier_identical(p in kernels()) {
        let vm = run(&p, Tier::Bytecode, false);
        let vm2 = run(&p, Tier::Bytecode, false);
        prop_assert_eq!(&vm, &vm2, "blocking wrappers must be deterministic");
        let nat = run(&p, Tier::Native, false);
        prop_assert_eq!(&vm, &nat, "blocking metrics must agree across tiers");
        // Execution mode must be invisible in every metric: anchor the
        // sampled mode against an explicitly sequential run.
        let seq = run_exec(&p, Tier::Bytecode, false, ExecMode::Sequential);
        prop_assert_eq!(&vm, &seq, "threaded must be bit-identical to sequential");
    }

    #[test]
    fn overlap_preserves_results_and_never_slows(p in kernels()) {
        // Sequential blocking anchor: the overlap runs below execute in
        // the sampled mode, so this also differentially tests
        // threaded × overlap × schedule-cache against sequential.
        let base = run_exec(&p, Tier::Bytecode, false, ExecMode::Sequential);
        for tier in [Tier::Bytecode, Tier::Native] {
            let over = run(&p, tier, true);
            prop_assert_eq!(over.messages, base.messages, "messages invariant under overlap");
            prop_assert_eq!(over.bytes, base.bytes, "bytes invariant under overlap");
            prop_assert_eq!(&over.printed, &base.printed, "PRINT invariant under overlap");
            prop_assert_eq!(&over.arrays, &base.arrays, "arrays bit-identical under overlap");
            prop_assert!(
                over.elapsed() <= base.elapsed(),
                "overlap must never increase virtual time ({} vs {})",
                over.elapsed(), base.elapsed()
            );
            // Communication-bound cells (real wire traffic and nonzero
            // shifts) must get strictly faster.
            let shifted = p.shift1 != 0 || p.shift2 != 0;
            if shifted && base.messages > 0 {
                prop_assert!(
                    over.elapsed() < base.elapsed(),
                    "communication-bound stencil must strictly improve\n{}",
                    program(&p)
                );
            }
        }
    }
}
