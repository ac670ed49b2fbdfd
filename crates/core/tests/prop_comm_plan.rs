//! Differential property test for phase-level communication planning
//! (`OptFlags::comm_plan`): random multi-FORALL shift kernels × grids ×
//! machine models × both tiers × both local-phase execution modes.
//!
//! * **Bit-exactness**: the plan is a pure execution-order optimization —
//!   arrays and PRINT output must be bit-identical with the plan on and
//!   off, on both tiers, in both execution modes.
//! * **Traffic**: coalescing repacks strips into fewer messages; it must
//!   never move more bytes, never send more messages, and never increase
//!   virtual time. When it does remove wire messages the saved startups
//!   must show up as strictly lower virtual time.

mod common;

use common::{observe_on, Observed, Tier};
use f90d_machine::{budget, ExecMode, MachineSpec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct PhaseKernel {
    n: i64,
    /// Number of stencil statements per sweep (2 or 3).
    k: usize,
    /// Two shift constants per statement (up to three statements).
    shifts: [(i64, i64); 3],
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

/// `k` consecutive independent stencils (statement `j` reads `Bj` with
/// two shifts and writes `Aj`) followed by `k` copy-backs. The
/// copy-backs keep every `Bj` loop-varying so the exchanges stay pinned
/// in the loop — exactly the shape the planner groups.
fn program(p: &PhaseKernel) -> String {
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
        inits.push_str(&format!("FORALL (I=1:N) B{j}(I) = REAL({j}*I)*0.5\n"));
        let (s1, s2) = p.shifts[j - 1];
        stencils.push_str(&format!(
            "  FORALL (I={lo}:{hi}) A{j}(I) = B{j}(I{o1}) + 2.0*B{j}(I{o2})\n",
            o1 = offset(s1),
            o2 = offset(s2),
        ));
        copies.push_str(&format!("  FORALL (I={lo}:{hi}) B{j}(I) = A{j}(I)\n"));
    }
    format!(
        "
PROGRAM PHASEK
INTEGER, PARAMETER :: N = {n}
{decls}INTEGER IT
C$ TEMPLATE T(N)
{aligns}C$ DISTRIBUTE T(BLOCK)
{inits}DO IT = 1, {iters}
{stencils}{copies}END DO
END
",
        n = p.n,
        iters = p.iters,
    )
}

fn kernels() -> impl Strategy<Value = PhaseKernel> {
    (
        (24i64..56, 2usize..=3, 1i64..=2),
        (-3i64..=3, -3i64..=3),
        (-3i64..=3, -3i64..=3),
        (-3i64..=3, -3i64..=3),
        (
            prop_oneof![Just(vec![1]), Just(vec![2]), Just(vec![4])],
            prop_oneof![Just("ipsc860"), Just("ncube2")],
            prop_oneof![Just(ExecMode::Sequential), Just(ExecMode::Threaded)],
        ),
    )
        .prop_map(|(nki, s1, s2, s3, gme)| {
            let (n, k, iters) = nki;
            let (grid, machine, exec) = gme;
            PhaseKernel {
                n,
                k,
                shifts: [s1, s2, s3],
                iters,
                grid,
                machine,
                exec,
            }
        })
}

fn spec_of(name: &str) -> MachineSpec {
    match name {
        "ipsc860" => MachineSpec::ipsc860(),
        _ => MachineSpec::ncube2(),
    }
}

/// Everything one run shows.
fn run_exec(p: &PhaseKernel, tier: Tier, plan: bool, exec: ExecMode) -> Observed {
    budget::global().ensure_total_at_least(8);
    let src = program(p);
    let names: Vec<String> = (1..=p.k)
        .flat_map(|j| [format!("A{j}"), format!("B{j}")])
        .collect();
    let names: Vec<&str> = names.iter().map(String::as_str).collect();
    let spec = spec_of(p.machine);
    observe_on(&spec, &src, &p.grid, &names, tier, exec, &|opts| {
        opts.opt.comm_plan = plan
    })
    .unwrap_or_else(|e| panic!("{tier:?} failed: {e}\n{src}"))
    .0
}

fn run(p: &PhaseKernel, tier: Tier, plan: bool) -> Observed {
    run_exec(p, tier, plan, p.exec)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn plan_preserves_results_and_never_slows(p in kernels()) {
        // Sequential plan-off anchor: the plan-on runs execute in the
        // sampled mode, so this also differentially tests threaded ×
        // plan × schedule-cache against sequential.
        let base = run_exec(&p, Tier::Bytecode, false, ExecMode::Sequential);
        for tier in [Tier::Bytecode, Tier::Native] {
            let on = run(&p, tier, true);
            prop_assert_eq!(&on.arrays, &base.arrays, "arrays bit-identical under the plan");
            prop_assert_eq!(&on.printed, &base.printed, "PRINT invariant under the plan");
            prop_assert_eq!(on.bytes, base.bytes, "coalescing repacks, never re-sends bytes");
            prop_assert!(on.messages <= base.messages, "plan must never add messages");
            prop_assert!(
                on.elapsed() <= base.elapsed(),
                "plan must never increase virtual time ({} vs {})",
                on.elapsed(), base.elapsed()
            );
            // Every coalesced message is a saved startup: fewer wire
            // messages must mean strictly lower virtual time.
            if on.messages < base.messages {
                prop_assert!(
                    on.elapsed() < base.elapsed(),
                    "coalesced cell must strictly improve\n{}",
                    program(&p)
                );
            }
        }
        // Comm-bound multi-array cells: multiple ranks, every stencil
        // genuinely shifted — the planner must find a coalesce and win.
        let comm_bound = p.grid[0] > 1
            && p.shifts.iter().take(p.k).all(|&(a, b)| a != 0 && b != 0);
        if comm_bound && base.messages > 0 {
            let on = run(&p, Tier::Native, true);
            prop_assert!(
                on.messages < base.messages && on.elapsed() < base.elapsed(),
                "comm-bound multi-array cell must coalesce and strictly improve\n{}",
                program(&p)
            );
        }
    }

    #[test]
    fn plan_identical_across_tiers_and_deterministic(p in kernels()) {
        let vm = run(&p, Tier::Bytecode, true);
        let vm2 = run(&p, Tier::Bytecode, true);
        prop_assert_eq!(&vm, &vm2, "planned execution must be deterministic");
        let nat = run(&p, Tier::Native, true);
        prop_assert_eq!(&vm, &nat, "planned metrics must agree across tiers");
        // Execution mode must stay invisible under the plan.
        let seq = run_exec(&p, Tier::Bytecode, true, ExecMode::Sequential);
        prop_assert_eq!(&vm, &seq, "threaded must be bit-identical to sequential");
    }
}
