//! Differential property test for the cross-run schedule cache: random
//! unstructured (PARTI-style) request patterns × grids × both execution
//! tiers must produce **bit-identical** virtual time, message/byte
//! counts, PRINT output and machine stats whether the process-wide
//! schedule cache is cold, warm (the hit path that skips the inspector
//! rebuild), or disabled (`repro --no-sched-cache`) — and whichever
//! local-phase execution mode (`CompileOptions::exec_mode`) is sampled,
//! so threaded × schedule-cache interactions are differentially tested
//! against sequential through the same `run_on` path the harness uses.

use f90d_core::{compile, CompileOptions, ExecReport};
use f90d_distrib::ProcGrid;
use f90d_machine::{budget, ExecMode, Machine, MachineSpec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandIrregular {
    n: i64,
    /// Multipliers of the two indirection fills `MOD(I*k, N) + 1` — the
    /// scatter (LHS) and gather (RHS) patterns.
    ku: i64,
    kv: i64,
    iters: i64,
    dist: &'static str,
    grid: Vec<i64>,
    /// `OptFlags::native_kernels`: which tier runs the FORALLs.
    native: bool,
    exec: ExecMode,
}

/// An irregular kernel in the shape of the paper's §4 example 3: a
/// vector-valued subscript on each side, so the compiler emits a gather
/// schedule (`B(V(I))`) and a scatter schedule (`A(U(I))`), repeated
/// over a DO loop (exercising within-run reuse on top of the cache).
fn program(p: &RandIrregular) -> String {
    format!(
        "
PROGRAM PSCHED
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N), C(N)
INTEGER U(N), V(N)
INTEGER IT
REAL S
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ DISTRIBUTE T({dist})
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) C(I) = REAL(N - I)
FORALL (I=1:N) U(I) = MOD(I*{ku}, N) + 1
FORALL (I=1:N) V(I) = MOD(I*{kv}, N) + 1
DO IT = 1, {iters}
  FORALL (I=1:N) A(U(I)) = B(V(I)) + C(I)
END DO
S = SUM(A)
PRINT *, 'CHECK', S
END
",
        n = p.n,
        ku = p.ku,
        kv = p.kv,
        iters = p.iters,
        dist = p.dist,
    )
}

fn rand_irregular() -> impl Strategy<Value = RandIrregular> {
    (
        8i64..40,
        1i64..12,
        1i64..12,
        1i64..=3,
        prop_oneof![Just("BLOCK"), Just("CYCLIC"), Just("CYCLIC(3)")],
        0usize..3,
        any::<bool>(),
        prop_oneof![Just(ExecMode::Sequential), Just(ExecMode::Threaded)],
    )
        .prop_map(
            |(n, ku, kv, iters, dist, grid_pick, native, exec)| RandIrregular {
                n,
                ku,
                kv,
                iters,
                dist,
                grid: match grid_pick {
                    0 => vec![1],
                    1 => vec![2],
                    _ => vec![4],
                },
                native,
                exec,
            },
        )
}

/// One full run on a fresh machine; returns the report plus the sorted
/// machine stats (schedule builders must be *recorded* identically even
/// when the cache skips the rebuild).
fn run(src: &str, p: &RandIrregular, sched_cache: bool) -> (ExecReport, Vec<(&'static str, u64)>) {
    budget::global().ensure_total_at_least(8);
    let mut opts = CompileOptions::on_grid(&p.grid);
    opts.opt.native_kernels = p.native;
    opts.sched_cache = sched_cache;
    opts.exec_mode = Some(p.exec);
    let compiled = compile(src, &opts).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&p.grid));
    let rep = compiled
        .run_on(&mut m)
        .unwrap_or_else(|e| panic!("run failed: {e}\n{src}"));
    (rep, m.stats.sorted())
}

fn assert_bit_identical(a: &ExecReport, b: &ExecReport, what: &str, src: &str) {
    assert_eq!(
        a.elapsed.to_bits(),
        b.elapsed.to_bits(),
        "virtual time differs: {what}\n{src}"
    );
    assert_eq!(a.messages, b.messages, "messages differ: {what}\n{src}");
    assert_eq!(a.bytes, b.bytes, "bytes differ: {what}\n{src}");
    assert_eq!(a.printed, b.printed, "PRINT differs: {what}\n{src}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_and_uncached_runs_bit_identical(p in rand_irregular()) {
        let src = program(&p);
        // Cold-or-warm cache (whatever this process has seen), then a
        // guaranteed-warm rerun (the hit path), then the escape hatch.
        let (cold, stats_cold) = run(&src, &p, true);
        let (warm, stats_warm) = run(&src, &p, true);
        let (off, stats_off) = run(&src, &p, false);
        // Execution-mode anchor: the same cell explicitly sequential.
        let seq = RandIrregular { exec: ExecMode::Sequential, ..p.clone() };
        let (seq_rep, stats_seq) = run(&src, &seq, true);
        assert_bit_identical(&cold, &seq_rep, "sampled exec mode vs sequential", &src);
        prop_assert_eq!(&stats_cold, &stats_seq, "stats differ threaded vs sequential\n{}", &src);
        assert_bit_identical(&cold, &warm, "first cached vs warm rerun", &src);
        assert_bit_identical(&cold, &off, "cached vs --no-sched-cache", &src);
        prop_assert_eq!(&stats_cold, &stats_warm, "stats differ cached vs warm\n{}", &src);
        prop_assert_eq!(&stats_cold, &stats_off, "stats differ cached vs off\n{}", &src);
        // The kernel really went through the unstructured path (on one
        // rank everything is owner-local and no schedule is needed).
        if p.grid.iter().product::<i64>() > 1 {
            let gathers = stats_cold.iter().any(|&(n, _)| n == "gather" || n == "precomp_read");
            let scatters = stats_cold.iter().any(|&(n, _)| n == "scatter" || n == "postcomp_write");
            prop_assert!(gathers && scatters, "expected gather+scatter schedules, got {:?}\n{}", stats_cold, &src);
        }
    }

    /// Both tiers, same pattern, both cache modes: one modelled
    /// machine. (The tier-equivalence suites prove this broadly; this
    /// narrows it to programs whose communication is schedule-dominated.)
    #[test]
    fn tiers_agree_under_the_cache(p in rand_irregular()) {
        let src = program(&p);
        let vm = RandIrregular { native: false, ..p.clone() };
        let nat = RandIrregular { native: true, ..p };
        let (a, _) = run(&src, &vm, true);
        let (b, _) = run(&src, &nat, true);
        assert_bit_identical(&a, &b, "bytecode vs native (cached)", &src);
    }
}
