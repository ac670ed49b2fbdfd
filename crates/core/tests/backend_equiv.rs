//! The two tiers of the engine must be indistinguishable — identical
//! array contents (every padded cell on every rank), PRINT output, rank
//! clocks and message / byte counts — and agree with the sequential
//! reference interpreter on arrays and PRINT, on every workload shape
//! the paper's evaluation uses (Jacobi, Gaussian elimination, FFT
//! butterfly, irregular). (Until PR 21 the first side of each
//! comparison was the tree-walking executor; the bytecode tier took its
//! place and the reference comparison was added.)

mod common;

use common::{observe, reference, Observed, Tier};
use f90d_core::{compile, vm_cache, CompileOptions, RunTrace};
use f90d_distrib::ProcGrid;
use f90d_machine::{ArrayData, Machine, MachineSpec};
use f90d_progen::workloads::{fft_butterfly, gaussian, irregular, jacobi};

fn run_tier(src: &str, grid: &[i64], arrays: &[&str], tier: Tier) -> Observed {
    observe(src, grid, arrays, tier).expect("runs").0
}

fn assert_tiers_agree(name: &str, src: &str, grid: &[i64], arrays: &[&str]) {
    let bytecode = run_tier(src, grid, arrays, Tier::Bytecode);
    let native = run_tier(src, grid, arrays, Tier::Native);
    assert_eq!(bytecode, native, "{name}: the tiers differ");
    let (want, printed) = reference(src, grid, arrays);
    assert_eq!(
        bytecode.arrays, want,
        "{name}: arrays differ from the reference interpreter"
    );
    assert_eq!(bytecode.printed, printed, "{name}: PRINT");
}

#[test]
fn jacobi_matches_on_four_nodes() {
    assert_tiers_agree("jacobi", &jacobi(16, 3), &[2, 2], &["A", "B"]);
}

#[test]
fn jacobi_matches_on_one_node() {
    assert_tiers_agree("jacobi-1", &jacobi(12, 2), &[1, 1], &["A", "B"]);
}

#[test]
fn gaussian_matches_across_grids() {
    for p in [1i64, 2, 4] {
        assert_tiers_agree("gaussian", &gaussian(16), &[p], &["A"]);
    }
}

/// Idle ranks are masked before any per-rank work: on the Gaussian
/// shape of the `gauss-fattree256` benchmark (`(*,BLOCK)`, N = 64 on
/// 256 ranks, a column per rank for ranks 0..63 and none for the rest)
/// dispatch visits exactly the ranks that own an iteration, on either
/// tier. By hand: the fill `A(I,J)` runs on the 64 ranks that own a
/// column, so does the diagonal `A(I,I)`, and step `K` of the
/// elimination updates columns `K+1..N`, one rank each — 64 − K ranks.
/// Both counts are 64 + 64 + Σ_{K=1}^{63} (64 − K) = 128 + 2016 = 2144;
/// visiting every rank in each of the 65 executions would be 16640.
#[test]
fn gaussian_dispatch_visits_only_the_ranks_that_work() {
    let src = gaussian(64);
    for tier in [Tier::Bytecode, Tier::Native] {
        let (_, t) = observe(&src, &[256], &[], tier).expect("runs");
        assert_eq!(
            (t.ranks_visited, t.ranks_active),
            (2144, 2144),
            "{tier:?}: ranks visited and active"
        );
    }
}

/// The Gaussian step is bound once per rank per piece of the `DO`'s
/// range and instantiated at every other step of the piece (ROADMAP 6(b),
/// `bind::BindPlan`). On the same shape as above: the rank of column `c`
/// (2 ≤ c ≤ 64) runs the steps K = 1..c−1; its `J` share `{c}` and its
/// `I` range `K+1..64` are affine in `K` over all of them, so its one
/// piece is its whole life — proved at K = 1 (and at K = c − 1, the far
/// end) and instantiated at the c − 2 steps after the first. By hand:
/// Σ_{c=2}^{64} (c − 2) = 1953 of the 2016 rank-steps, the other 63
/// being the first step's from-scratch binds. The bytecode tier binds
/// nothing, and both tiers partition only the first step from scratch.
#[test]
fn gaussian_binds_each_rank_once_per_piece() {
    let src = gaussian(64);
    for (tier, want) in [(Tier::Bytecode, 0), (Tier::Native, 1953)] {
        let (_, t) = observe(&src, &[256], &[], tier).expect("runs");
        assert_eq!(
            t.binds_instantiated, want,
            "{tier:?}: bindings instantiated"
        );
    }
}

/// Each step's column multicast runs along a kept plan: on the same
/// shape as above the grid is one fiber of 256 ranks, so the first
/// multicast (K = 1) plans it — its members and each member's slot of
/// the slab temporary — and every later one replays it. By hand: the
/// elimination multicasts column K at each of the 63 steps, and
/// 63 − 1 = 62 of them are replays, on either tier (the multicast is
/// communication, not a kernel).
#[test]
fn gaussian_multicasts_replay_their_fiber() {
    let src = gaussian(64);
    for tier in [Tier::Bytecode, Tier::Native] {
        let (_, t) = observe(&src, &[256], &[], tier).expect("runs");
        assert_eq!(t.multicasts_replayed, 62, "{tier:?}: multicasts replayed");
    }
}

/// The corpus pins of the `DO`-loop plan agree across the tiers and
/// with the reference interpreter, and plan what their bounds allow.
/// `doplan_pieces` — `(BLOCK,*)`, N = 24 on 4 ranks, `K = 2, 4, …, 20`,
/// `FORALL (I=K+1:N, J=K:N-1)` — breaks each rank's piece where `K+1`
/// reaches its first row, and again where its rows run out. By hand,
/// the rank of rows `6r+1..6r+6` is proved at the first step and
/// instantiated through the step where `K+1 = 6r+1` — 1, 2, 5 and 8
/// steps for r = 0..3 (rank 0 holds rows 3..6 from the start and goes
/// idle after 1) — then proved again and instantiated to its last row
/// pair: 0, 1, 1 and 0 more; 18 in all. `doplan_square`'s lower bound
/// `K*K` is not affine in `K`: every step partitions and proves.
#[test]
fn do_plans_instantiate_only_affine_pieces() {
    let corpus = |name: &str| {
        let path = format!("{}/../../corpus/{name}.f90d", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path).expect("corpus program")
    };
    for (name, want) in [("doplan_pieces", 18), ("doplan_square", 0)] {
        let src = corpus(name);
        assert_tiers_agree(name, &src, &[4], &["A"]);
        let (_, t) = observe(&src, &[4], &[], Tier::Native).expect("runs");
        assert_eq!(t.binds_instantiated, want, "{name}");
    }
}

#[test]
fn fft_butterfly_matches() {
    assert_tiers_agree("fft", &fft_butterfly(8, 2), &[4], &["X", "TERM2"]);
}

#[test]
fn irregular_matches() {
    assert_tiers_agree(
        "irregular",
        &irregular(16),
        &[4],
        &["A", "B", "C", "U", "V"],
    );
}

#[test]
fn print_and_reduction_match() {
    let src = "
PROGRAM SUMS
INTEGER, PARAMETER :: N = 24
REAL A(N), S
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) A(I) = REAL(I)
S = SUM(A)
PRINT *, 'sum:', S
END
";
    assert_tiers_agree("sums", src, &[4], &["A"]);
}

/// A `DO` whose next iterate overflows `i64` has run its last
/// iteration: `DO K = i64::MAX - 1, i64::MAX` is two trips, on the
/// engine and in the reference interpreter (it used to wrap to
/// `i64::MIN <= ub` and never end; a panic in a debug build). Same
/// downwards at `i64::MIN`, and the loop-control charges are those of
/// the trips that ran, so the tiers still agree on virtual time.
#[test]
fn a_do_increment_that_overflows_ends_the_loop() {
    let src = "
PROGRAM EDGE
INTEGER, PARAMETER :: N = 16
REAL A(N)
INTEGER S, K
C$ DISTRIBUTE A(BLOCK)
FORALL (I=1:N) A(I) = 0.0
S = 0
DO K = 9223372036854775806, 9223372036854775807
  S = S + 1
  FORALL (I=1:N) A(I) = A(I) + REAL(I)
END DO
PRINT *, 'UP', S, A(3)
S = 0
DO K = -9223372036854775806, -9223372036854775807 - 1, -2
  S = S + 1
END DO
PRINT *, 'DOWN', S
END
";
    assert_tiers_agree("do-overflow", src, &[4], &["A"]);
    let want = vec!["UP 2 6.000000".to_string(), "DOWN 2".to_string()];
    let native = run_tier(src, &[4], &["A"], Tier::Native);
    assert_eq!(native.printed, want);
}

/// A zero `DO` stride is the same structured error everywhere — the
/// reference interpreter used to run zero iterations and succeed.
#[test]
fn a_zero_do_stride_is_an_error_on_every_evaluator() {
    let src = "
PROGRAM ZSTRIDE
INTEGER S, K, Z
Z = 0
DO K = 1, 4, Z
  S = S + 1
END DO
END
";
    let compiled = compile(src, &CompileOptions::on_grid(&[2])).unwrap();
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[2]));
    let err = compiled.run_on(&mut m).expect_err("a zero stride faults");
    assert_eq!(err.0, "DO stride of zero");
    let err = f90d_core::reference::run_reference(&compiled.analyzed, &Default::default())
        .expect_err("a zero stride faults");
    assert_eq!(err, "DO stride of zero");
}

/// A FORALL stride that is zero or negative is the same structured
/// error everywhere. The reference interpreter used to loop forever on
/// the first (staging a write per trip: 9.9 GB in two minutes) and run
/// nothing on the second, so it answers on a thread with a deadline: a
/// hung oracle fails here instead of hanging the suite.
#[test]
fn a_forall_stride_that_is_not_positive_is_an_error_on_every_evaluator() {
    const WANT: &str = "FORALL stride must be positive";
    for stride in ["0", "-1"] {
        let src = format!(
            "
PROGRAM FSTRIDE
INTEGER, PARAMETER :: N = 8
REAL A(N), B(N)
INTEGER Z
C$ DISTRIBUTE A(BLOCK)
C$ DISTRIBUTE B(BLOCK)
Z = {stride}
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N:Z) A(I) = B(I)
PRINT *, SUM(A)
END
"
        );
        for tier in [Tier::Bytecode, Tier::Native] {
            let err = observe(&src, &[2], &[], tier).expect_err("the stride faults");
            assert_eq!(err, WANT, "{tier:?}, stride {stride}");
        }
        let (answer, asked) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let compiled = compile(&src, &CompileOptions::on_grid(&[2])).unwrap();
            let run = f90d_core::reference::run_reference(&compiled.analyzed, &Default::default());
            let _ = answer.send(run.map(|out| out.printed));
        });
        let run = asked
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap_or_else(|_| panic!("the reference interpreter hangs on stride {stride}"));
        assert_eq!(run.expect_err("the stride faults"), WANT, "stride {stride}");
    }
}

/// A multicast slab whose fixed dimension is the *first* one: row `K`
/// read as `A(K,J)` under `(BLOCK,BLOCK)`. Lowering drops the fixed
/// subscript; the engine used to drop "dimension 0" a second time — the
/// one subscript left — and read element 0 of the slab at every `J`, on
/// the bytecode and the native tier alike (the `(*,BLOCK)` Gaussian
/// never multicasts a row, so nothing saw it).
#[test]
fn a_row_slab_is_indexed_by_its_surviving_subscript() {
    let src = "
PROGRAM ROWSLAB
INTEGER, PARAMETER :: N = 8
REAL A(N,N)
INTEGER K
C$ DISTRIBUTE A(BLOCK, BLOCK)
FORALL (I=1:N, J=1:N) A(I,J) = REAL(10*I+J)
K = 1
FORALL (I=K+1:N, J=K+1:N) A(I,J) = A(I,K)*A(K,J)
END
";
    assert_tiers_agree("row slab", src, &[2, 2], &["A"]);
    let native = run_tier(src, &[2, 2], &["A"], Tier::Native);
    let want: Vec<f64> = (1..=8)
        .flat_map(|i| (1..=8).map(move |j| (i, j)))
        .map(|(i, j)| match i.min(j) {
            1 => (10 * i + j) as f64,
            _ => ((10 * i + 1) * (10 + j)) as f64,
        })
        .collect();
    assert_eq!(native.arrays[0], ArrayData::Real(want));
}

#[test]
fn vm_program_is_cached_across_runs() {
    let src = jacobi(8, 1);
    let opts = CompileOptions::on_grid(&[2, 2]);
    let compiled = compile(&src, &opts).unwrap();
    let p1 = compiled.vm_program().unwrap();
    let misses = vm_cache().misses();
    let p2 = compiled.vm_program().unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&p1, &p2),
        "cache must return the same program"
    );
    assert_eq!(
        vm_cache().misses(),
        misses,
        "second lookup must not re-lower"
    );
    // A different grid is a different program.
    let other = compile(&src, &CompileOptions::on_grid(&[1, 1])).unwrap();
    let p3 = other.vm_program().unwrap();
    assert!(!std::sync::Arc::ptr_eq(&p1, &p3));
}

/// What a run keeps between executions of one statement — resolved
/// accessors, loop plans, shift plans — must never outlive the
/// layout it was computed for, and must never change a result. Each
/// program repeats a FORALL inside a `DO` with the *same* evaluated
/// bounds while something else moves: the reference interpreter (which
/// keeps nothing) is the oracle for PRINT; clocks, messages and bytes
/// must agree between the tiers bit for bit, and with the `.virt` pins
/// of the first two programs in `corpus/` (blessed while the tree
/// walker, which kept only shift plans, still agreed).
#[test]
fn nothing_kept_between_executions_outlives_its_layout() {
    // (program, [ghost plans built, reused])
    let redist_in_loop = include_str!("../../../corpus/redist_in_loop.f90d");
    let redist_round_trip = include_str!("../../../corpus/redist_round_trip.f90d");
    // A reversed subscript under a stride the upper bound is off
    // (corpus/reverse_stride's shape), twice over: the second trip's
    // iterations are the first's.
    let reverse_stride_twice = "
PROGRAM REVTWICE
INTEGER, PARAMETER :: N = 23
REAL A(N), B(N)
REAL SA, SB
INTEGER IT
C$ TEMPLATE T(N)
C$ TEMPLATE TB(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH TB(I)
C$ DISTRIBUTE T(CYCLIC)
C$ DISTRIBUTE TB(BLOCK)
FORALL (I=1:N) A(I) = 0.0
FORALL (I=1:N) B(I) = 0.0
DO IT = 1, 2
  FORALL (I=1:N:3) A(N+1-I) = A(N+1-I) + REAL(I)
  FORALL (I=2:N:4) B(N+1-I) = B(N+1-I) + REAL(I)
END DO
SA = SUM(A)
SB = SUM(B)
PRINT *, 'CYC', SA, A(1), A(2), A(23)
PRINT *, 'BLK', SB, B(1), B(2), B(22)
END
";
    // The bounds of the inner FORALL repeat (1:N) while the owner
    // filter's row moves with K: same bounds, different owners.
    let moving_owner_filter = "
PROGRAM ROWS
INTEGER, PARAMETER :: N = 16
REAL A(N,N)
REAL S
INTEGER K
C$ DISTRIBUTE A(BLOCK, *)
FORALL (I=1:N, J=1:N) A(I,J) = REAL(I)
DO K = 1, N
  FORALL (J=1:N) A(K,J) = A(K,J) + REAL(J*K)
END DO
S = SUM(A)
PRINT *, 'SUM', S, A(1,2), A(9,3), A(16,16)
END
";
    for (name, src, plans) in [
        // Every trip redistributes: nothing is ever reused, and an
        // accessor that were would index the wrong layout.
        ("redist_in_loop", redist_in_loop, [0, 0]),
        // A is BLOCK again at each stencil, in fresh segments: the two
        // ghost plans of the first trip serve the other two, the
        // accessors of the trip before must not.
        ("redist_round_trip", redist_round_trip, [2, 4]),
        ("reverse_stride_twice", reverse_stride_twice, [0, 0]),
        ("moving_owner_filter", moving_owner_filter, [0, 0]),
    ] {
        let compiled = compile(src, &CompileOptions::on_grid(&[4])).expect("compiles");
        let reference =
            f90d_core::reference::run_reference(&compiled.analyzed, &Default::default())
                .expect("the reference interpreter runs");
        let run = |tier| -> (Observed, RunTrace) { observe(src, &[4], &[], tier).expect("runs") };
        let (bytecode, _) = run(Tier::Bytecode);
        for tier in [Tier::Bytecode, Tier::Native] {
            let (seen, t) = run(tier);
            assert_eq!(seen.printed, reference.printed, "{name}: PRINT ({tier:?})");
            assert_eq!(
                (&seen.clocks, seen.messages, seen.bytes),
                (&bytecode.clocks, bytecode.messages, bytecode.bytes),
                "{name}: clocks, messages, bytes ({tier:?})"
            );
            assert_eq!(
                [t.ghost_plans_built, t.ghost_plans_reused],
                plans,
                "{name}: shift plans ({tier:?})"
            );
        }
    }
}

/// What a run keeps of an unstructured statement's inspector serves a
/// repeat only when the subscripts and the layout are what they were,
/// and a replicated write is computed once only when no rank could
/// write anything else. The irregular kernel and the five corpus pins
/// of those rules run on both tiers with `schedule_reuse` on and off:
/// every padded cell, clock, message and byte agrees between the tiers,
/// PRINT agrees with the reference interpreter, and the counts are
/// those worked out by hand below. Reuse off takes the inspector every
/// time (`inspectors_reused` 0); the copies do not depend on it.
#[test]
fn inspectors_and_replicated_writes_are_reused_only_when_equal() {
    let corpus = |name: &str| {
        let path = format!("{}/../../corpus/{name}.f90d", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(path).expect("corpus program")
    };
    // (program, arrays, inspectors reused, ranks copied on the native
    // tier) on 4 ranks.
    let cases: [(&str, String, &[&str], u64, u64); 6] = [
        // Two reads (`C(I)`, `B(V(I))`) and the scatter, repeated by
        // three of four trips; `U` and `V` are computed once (3 + 3).
        ("irregular", irregular(16), &["A", "U", "V"], 9, 6),
        // `V` changes every trip: its read misses, `C(I)` and the
        // scatter through the unchanged `U` hit on trips 2 and 3. `U`
        // once, `V` on each of three trips: 3 + 9 copies.
        ("reuse_rewrite", corpus("reuse_rewrite"), &["A", "V"], 4, 12),
        // `V` is rewritten with the values it holds: all three hit.
        ("reuse_same", corpus("reuse_same"), &["A", "V"], 6, 12),
        // `B` is BLOCK on trip 1 and CYCLIC on trips 2 and 3: only
        // trip 3 meets the layout its read located against before. `W`
        // is not aligned with `A` (each is distributed on its own), so
        // `W(I) = A(I) * ...` reads `A` through `precomp_read`, which
        // hits on trips 2 and 3.
        ("reuse_redist", corpus("reuse_redist"), &["A", "B"], 3, 3),
        // Two statements read `B(V(I))`: each keeps its own, and the
        // second charges no inspector even on trip 1 (the run's reuse
        // map has the pattern).
        (
            "reuse_shared",
            corpus("reuse_shared"),
            &["A", "B", "D"],
            4,
            3,
        ),
        // `R`'s two writes read no array (3 + 3); `S`'s reads `R`.
        (
            "replicated_copy",
            corpus("replicated_copy"),
            &["R", "S"],
            0,
            6,
        ),
    ];
    for (name, src, arrays, reused, copied) in cases {
        let (_, printed) = reference(&src, &[4], arrays);
        for reuse in [true, false] {
            let flags = |opts: &mut CompileOptions| opts.opt.schedule_reuse = reuse;
            let run = |tier| common::observe_with(&src, &[4], arrays, tier, &flags);
            let (bytecode, bt) = run(Tier::Bytecode).expect("runs");
            let (native, nt) = run(Tier::Native).expect("runs");
            assert_eq!(bytecode, native, "{name} (reuse {reuse}): the tiers differ");
            assert_eq!(native.printed, printed, "{name} (reuse {reuse}): PRINT");
            let want = if reuse { reused } else { 0 };
            for (tier, t) in [("bytecode", bt), ("native", nt)] {
                assert_eq!(t.inspectors_reused, want, "{name} ({tier}, reuse {reuse})");
            }
            assert_eq!((bt.ranks_copied, nt.ranks_copied), (0, copied), "{name}");
        }
    }
}
