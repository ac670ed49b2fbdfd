//! Flag cross-product differential property test for the shared comm
//! driver: every combination of `comm_compute_overlap` × `comm_plan` ×
//! `native_kernels` × local-phase execution mode, over random
//! multi-statement shift kernels — all sequenced by `f90d_comm::driver`,
//! all compared against the all-flags-off sequential bytecode run, whose
//! arrays and PRINT are the sequential reference interpreter's.
//!
//! The driver's contract, flag by flag:
//!
//! * arrays and PRINT output are bit-identical under EVERY combination;
//! * payload bytes never change (coalescing repacks, overlap re-orders —
//!   neither re-sends);
//! * messages only change under `comm_plan` (coalescing, never more);
//! * virtual time only changes under `comm_plan` (strictly fewer
//!   startups) or `comm_compute_overlap` (different charge interleaving
//!   by design);
//! * at equal flags the two tiers agree on every metric bit-for-bit.

mod common;

use common::{observe_with, reference, Observed, Tier};
use f90d_machine::{budget, ExecMode};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Kernel {
    n: i64,
    /// Stencil statements per sweep.
    k: usize,
    /// Two shift constants per statement.
    shifts: [(i64, i64); 2],
    iters: i64,
    grid: Vec<i64>,
    exec: ExecMode,
}

fn offset(c: i64) -> String {
    match c.cmp(&0) {
        std::cmp::Ordering::Equal => String::new(),
        std::cmp::Ordering::Greater => format!("+{c}"),
        std::cmp::Ordering::Less => format!("{c}"),
    }
}

/// `k` independent two-shift stencils plus copy-backs inside a DO sweep —
/// the shape that is simultaneously overlap-eligible (pure ghost-shift
/// preludes), plan-eligible (consecutive exchanges to batch), and
/// native-eligible (affine REAL bodies), so every flag in the matrix has
/// something to act on.
fn program(p: &Kernel) -> String {
    let pad = p
        .shifts
        .iter()
        .take(p.k)
        .flat_map(|&(a, b)| [a.abs(), b.abs()])
        .max()
        .unwrap()
        .max(1);
    let (lo, hi) = (1 + pad, p.n - pad);
    let mut decls = String::new();
    let mut aligns = String::new();
    let mut inits = String::new();
    let mut stencils = String::new();
    let mut copies = String::new();
    for j in 1..=p.k {
        decls.push_str(&format!("REAL A{j}(N), B{j}(N)\n"));
        aligns.push_str(&format!(
            "C$ ALIGN A{j}(I) WITH T(I)\nC$ ALIGN B{j}(I) WITH T(I)\n"
        ));
        inits.push_str(&format!("FORALL (I=1:N) B{j}(I) = REAL({j}+I)*0.25\n"));
        let (s1, s2) = p.shifts[j - 1];
        stencils.push_str(&format!(
            "  FORALL (I={lo}:{hi}) A{j}(I) = 0.5*B{j}(I{o1}) + B{j}(I{o2})\n",
            o1 = offset(s1),
            o2 = offset(s2),
        ));
        copies.push_str(&format!("  FORALL (I={lo}:{hi}) B{j}(I) = A{j}(I)\n"));
    }
    format!(
        "
PROGRAM FLAGMAT
INTEGER, PARAMETER :: N = {n}
{decls}INTEGER IT
C$ TEMPLATE T(N)
{aligns}C$ DISTRIBUTE T(BLOCK)
{inits}DO IT = 1, {iters}
{stencils}{copies}END DO
PRINT *, 'DONE', B1(2)
END
",
        n = p.n,
        iters = p.iters,
    )
}

fn kernels() -> impl Strategy<Value = Kernel> {
    (
        (24i64..48, 1usize..=2, 1i64..=2),
        (-2i64..=2, -2i64..=2),
        (-2i64..=2, -2i64..=2),
        prop_oneof![Just(vec![1]), Just(vec![2]), Just(vec![4])],
        prop_oneof![Just(ExecMode::Sequential), Just(ExecMode::Threaded)],
    )
        .prop_map(|(nki, s1, s2, grid, exec)| {
            let (n, k, iters) = nki;
            Kernel {
                n,
                k,
                shifts: [s1, s2],
                iters,
                grid,
                exec,
            }
        })
}

fn names(p: &Kernel) -> Vec<String> {
    (1..=p.k)
        .flat_map(|j| [format!("A{j}"), format!("B{j}")])
        .collect()
}

/// One run at a full flag assignment: everything it shows.
fn run_cfg(p: &Kernel, overlap: bool, plan: bool, tier: Tier, exec: ExecMode) -> Observed {
    budget::global().ensure_total_at_least(8);
    let src = program(p);
    let names = names(p);
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    observe_with(&src, &p.grid, &names, tier, exec, &|opts| {
        opts.opt.comm_compute_overlap = overlap;
        opts.opt.comm_plan = plan;
    })
    .unwrap_or_else(|e| panic!("{tier:?} failed: {e}\n{src}"))
    .0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn every_flag_combination_matches_the_reference(p in kernels()) {
        // The all-flags-off sequential bytecode run is the anchor, and
        // the reference interpreter is the anchor's.
        let base = run_cfg(&p, false, false, Tier::Bytecode, ExecMode::Sequential);
        let names = names(&p);
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let (want, printed) = reference(&program(&p), &p.grid, &names);
        prop_assert_eq!(&base.arrays, &want, "arrays vs the reference");
        prop_assert_eq!(&base.printed, &printed, "PRINT vs the reference");
        for overlap in [false, true] {
            for plan in [false, true] {
                let vm = run_cfg(&p, overlap, plan, Tier::Bytecode, p.exec);
                let nat = run_cfg(&p, overlap, plan, Tier::Native, p.exec);
                prop_assert_eq!(&vm, &nat,
                    "native tier must be invisible at overlap={} plan={}", overlap, plan);

                prop_assert_eq!(&vm.arrays, &base.arrays,
                    "arrays bit-identical at overlap={} plan={}", overlap, plan);
                prop_assert_eq!(&vm.printed, &base.printed,
                    "PRINT invariant at overlap={} plan={}", overlap, plan);
                prop_assert_eq!(vm.bytes, base.bytes, "no flag may change payload bytes");
                if plan {
                    prop_assert!(vm.messages <= base.messages, "the plan must never add messages");
                } else {
                    prop_assert_eq!(vm.messages, base.messages,
                        "only comm_plan may change message counts (overlap={})", overlap);
                }
                if !plan && !overlap {
                    prop_assert_eq!(&vm.clocks, &base.clocks,
                        "virtual time must be bit-identical with both timing flags off");
                } else if plan && !overlap {
                    prop_assert!(
                        vm.elapsed() <= base.elapsed(),
                        "the plan must never increase virtual time"
                    );
                }
                // overlap on: virtual time differs by design (interior
                // compute charges against wire time); the cross-tier
                // equality above is the invariant that matters.
            }
        }
    }

    #[test]
    fn full_flag_runs_are_deterministic(p in kernels()) {
        // Everything on at once, twice: the driver's sequencing must be
        // a pure function of the program.
        let a = run_cfg(&p, true, true, Tier::Native, p.exec);
        let b = run_cfg(&p, true, true, Tier::Native, p.exec);
        prop_assert_eq!(&a, &b, "all-flags-on run must be deterministic");
        let vm = run_cfg(&p, true, true, Tier::Bytecode, p.exec);
        prop_assert_eq!(&a, &vm, "all-flags-on metrics must agree across tiers");
    }
}
