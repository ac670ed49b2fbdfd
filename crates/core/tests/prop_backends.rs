//! Differential property test for the execution tiers: random FORALL
//! programs (1-D and 2-D, random distributions, shifts, masks, strided
//! innermost loops, inner-invariant reads, in-place updates, updates
//! that also read a row of their own array outside the rows they write,
//! the whole pair of statements run once or twice by an enclosing `DO`
//! — the second trip takes its iteration lists from the first's)
//! must
//! produce **bit-identical** arrays on the engine — with the native
//! kernel tier both on (the default; unmasked BLOCK samples dispatch to
//! the monomorphized closures) and explicitly off — and in the
//! sequential reference interpreter, across grids `[1]`, `[2]`, and
//! `[2,2]` — under a **sampled local-phase execution mode**:
//! `ExecMode::Threaded` (persistent worker pool, cross-run schedule
//! cache on as everywhere) must be indistinguishable from
//! `ExecMode::Sequential` in arrays and virtual time, and the two tiers
//! from each other.
//!
//! A second property samples the irregular path the same way:
//! `A(U(I)) = B(V(I)) + C(I)` behind INTEGER fills of `U`, `V` and a
//! work array through `MOD` and `/` by sampled constants (negative
//! ones, `-1` and non-constants included), under every distribution,
//! masked or not — duplicate and out-of-order `U` whenever the sampled
//! multiplier shares a factor with `N`.

use std::collections::HashMap;

use f90d_core::reference::run_reference;
use f90d_core::{compile, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{budget, ArrayData, ExecMode, Machine, MachineSpec};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct RandProgram {
    /// 1 or 2 array dimensions.
    ndim: usize,
    n: i64,
    dist: &'static str,
    dist2: &'static str,
    shift1: i64,
    shift2: i64,
    scale: f64,
    masked: bool,
    /// Stride of the innermost FORALL variable.
    stride: i64,
    /// Add a read that does not depend on the innermost variable.
    invariant: bool,
    /// The second FORALL reads its own LHS array at the shifted site, so
    /// the write must not land before the read.
    inplace: bool,
    /// The second FORALL also reads the row (2-D, whose rows are then
    /// local: `(*, dist2)` on a 1-D grid) or element (1-D) of its own LHS
    /// array just below the ones it writes — or the first written one,
    /// when the shifts leave none below: the Gaussian update's read of
    /// row `K`, beside the stencil's in-place hazard.
    pivot: bool,
    /// Run the two FORALLs inside `DO IT = 1, 2`: on the second trip
    /// the engine reuses each statement's iteration lists (off-stride
    /// upper bounds included) and its resolved accessors.
    repeat: bool,
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

fn program(p: &RandProgram) -> String {
    let n = p.n;
    let pad = p.shift1.abs().max(p.shift2.abs());
    let (lo, hi) = (1 + pad, n - pad);
    let st = p.stride;
    let own = if p.inplace { "C" } else { "B" };
    let row = (lo - 1).max(1);
    let (do_, end_do) = if p.repeat {
        ("DO IT = 1, 2", "END DO")
    } else {
        ("", "")
    };
    if p.ndim == 1 {
        let pivot = if p.pivot {
            format!(" - 0.5*C({row})")
        } else {
            String::new()
        };
        let mask = if p.masked { ", B(I) > 0.0" } else { "" };
        let inv = if p.invariant {
            format!(" + B({lo})")
        } else {
            String::new()
        };
        format!(
            "
PROGRAM RAND1
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N), C(N)
INTEGER IT
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ DISTRIBUTE T({dist})
{do_}
FORALL (I={lo}:{hi}:{st}{mask}) A(I) = {scale}*B(I{s1}) + C(I{s2}) - B(I){inv}
FORALL (I={lo}:{hi}:{st}) C(I) = A(I) + {own}(I{s2}){pivot}
{end_do}
END
",
            dist = p.dist,
            scale = p.scale,
            s1 = offset(p.shift1),
            s2 = offset(p.shift2),
        )
    } else {
        let mask = if p.masked { ", B(I,J) > 0.0" } else { "" };
        let inv = if p.invariant {
            format!(" + B(I,{lo})")
        } else {
            String::new()
        };
        let pivot = if p.pivot {
            format!(" - 0.5*C({row},J)")
        } else {
            String::new()
        };
        format!(
            "
PROGRAM RAND2
INTEGER, PARAMETER :: N = {n}
REAL A(N,N), B(N,N), C(N,N)
INTEGER IT
C$ TEMPLATE T(N,N)
C$ ALIGN A(I,J) WITH T(I,J)
C$ ALIGN B(I,J) WITH T(I,J)
C$ ALIGN C(I,J) WITH T(I,J)
C$ DISTRIBUTE T({dist}, {dist2})
{do_}
FORALL (I={lo}:{hi}, J={lo}:{hi}:{st}{mask})&
& A(I,J) = {scale}*B(I{s1},J) + C(I,J{s2}) - B(I,J){inv}
FORALL (I={lo}:{hi}, J={lo}:{hi}:{st}) C(I,J) = A(I,J) + {own}(I,J{s2}){pivot}
{end_do}
END
",
            dist = p.dist,
            dist2 = p.dist2,
            scale = p.scale,
            s1 = offset(p.shift1),
            s2 = offset(p.shift2),
        )
    }
}

fn dists() -> impl Strategy<Value = &'static str> {
    prop_oneof![Just("BLOCK"), Just("CYCLIC"), Just("CYCLIC(3)")]
}

fn exec_modes() -> impl Strategy<Value = ExecMode> {
    prop_oneof![Just(ExecMode::Sequential), Just(ExecMode::Threaded)]
}

fn rand_program() -> impl Strategy<Value = RandProgram> {
    (
        1usize..=2,
        10i64..28,
        dists(),
        dists(),
        -2i64..=2,
        -2i64..=2,
        prop_oneof![Just(0.5f64), Just(1.0), Just(-2.0)],
        (
            any::<bool>(),
            1i64..=3,
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
        ),
        0usize..3,
        exec_modes(),
    )
        .prop_map(
            |(
                ndim,
                n,
                dist,
                dist2,
                shift1,
                shift2,
                scale,
                (masked, stride, invariant, inplace, pivot, repeat),
                grid_pick,
                exec,
            )| {
                // The issue's grid matrix: [1], [2] for 1-D programs and
                // [1,1], [2,1], [2,2] for 2-D ones — whose first
                // dimension a pivot sample collapses, on a 1-D grid.
                let dist = if ndim == 2 && pivot { "*" } else { dist };
                let grid = match (ndim, grid_pick) {
                    (1, 0) => vec![1],
                    (1, _) => vec![2],
                    (2, pick) if pivot => vec![[1, 2, 2][pick]],
                    (2, 0) => vec![1, 1],
                    (2, 1) => vec![2, 1],
                    _ => vec![2, 2],
                };
                RandProgram {
                    ndim,
                    n,
                    dist,
                    dist2,
                    shift1,
                    shift2,
                    scale,
                    masked,
                    stride,
                    invariant,
                    inplace,
                    pivot,
                    repeat,
                    grid,
                    exec,
                }
            },
        )
}

fn host_inits(p: &RandProgram) -> HashMap<String, ArrayData> {
    let len = if p.ndim == 1 { p.n } else { p.n * p.n };
    let b = ArrayData::Real((0..len).map(|x| ((x * 13 % 17) as f64) - 6.0).collect());
    let c = ArrayData::Real((0..len).map(|x| ((x * 5 % 11) as f64) * 0.5).collect());
    HashMap::from([("B".to_string(), b), ("C".to_string(), c)])
}

/// Seed `inits` and run `src` under one tier and mode: the arrays `A`,
/// `B`, `C`, the modelled time by bits, and the engine for its counters.
fn run_tier(
    src: &str,
    p: &RandProgram,
    inits: &HashMap<String, ArrayData>,
    native: bool,
    exec: ExecMode,
) -> (Vec<ArrayData>, u64, f90d_vm::Engine) {
    let mut opts = CompileOptions::on_grid(&p.grid);
    opts.opt.native_kernels = native;
    let compiled = compile(src, &opts).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    let mut m = Machine::with_mode(MachineSpec::ideal(), ProcGrid::new(&p.grid), exec);
    let mut eng = compiled
        .engine(&mut m)
        .unwrap_or_else(|e| panic!("lowering failed: {e}\n{src}"));
    for (name, data) in inits {
        assert!(eng.seed_array(&mut m, name, data));
    }
    eng.run(&mut m)
        .unwrap_or_else(|e| panic!("native {native} ({exec:?}) failed: {e}\n{src}"));
    let arrays = ["A", "B", "C"]
        .iter()
        .map(|a| eng.gather_array(&mut m, a).unwrap())
        .collect();
    (arrays, m.elapsed().to_bits(), eng)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tiers_and_reference_bit_identical(p in rand_program()) {
        // Single-core hosts would otherwise degrade every threaded
        // sample to sequential; raise the budget so the pool is real.
        budget::global().ensure_total_at_least(8);
        let src = program(&p);
        let inits = host_inits(&p);

        // Sequential reference interpreter.
        let compiled = compile(&src, &CompileOptions::on_grid(&p.grid))
            .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
        let reference = run_reference(&compiled.analyzed, &inits).unwrap();

        // Native kernel tier on (the default), under the sampled mode.
        let (nat, nat_t, eng) = run_tier(&src, &p, &inits, true, p.exec);
        // Both statements of a second trip reuse the first trip's
        // iteration lists; nothing outside a loop keeps any.
        prop_assert_eq!(eng.dispatch_reused(), 2 * p.repeat as u64, "list reuse\n{}", src);
        for (name, img) in ["A", "B", "C"].iter().zip(&nat) {
            prop_assert_eq!(
                img, &reference.arrays[*name].data,
                "array {} vs the reference interpreter\n{}", name, src
            );
        }

        // Native tier disabled: the pure bytecode element loop must be
        // indistinguishable from the native-on run in arrays and
        // virtual time, and must never report a native dispatch.
        let (vm, vm_t, eng_nn) = run_tier(&src, &p, &inits, false, p.exec);
        prop_assert_eq!(eng_nn.native_counts().0, 0, "native off must never dispatch\n{}", src);
        prop_assert_eq!(&nat, &vm, "arrays differ: native vs bytecode\n{}", src);
        prop_assert_eq!(nat_t, vm_t, "virtual time must be tier-independent\n{}", src);

        // Threaded samples additionally anchor against an explicitly
        // sequential run: arrays AND virtual time must be bit-identical
        // across execution modes.
        if p.exec == ExecMode::Threaded {
            let (seq, seq_t, _) = run_tier(&src, &p, &inits, true, ExecMode::Sequential);
            prop_assert_eq!(&nat, &seq, "arrays differ: threaded vs sequential\n{}", src);
            prop_assert_eq!(nat_t, seq_t, "virtual time must be mode-independent\n{}", src);
        }
    }
}

/// One sample of the irregular path.
#[derive(Debug, Clone)]
struct RandIrregular {
    n: i64,
    dist: &'static str,
    /// `U(I) = MOD(I*ua + ub, N) + 1`: a permutation iff `gcd(ua, N) = 1`.
    ua: i64,
    ub: i64,
    va: i64,
    /// Divisor of the INTEGER work array's fill; `0` samples the scalar
    /// `D` (a non-constant divisor, which must fall back).
    div: i64,
    masked: bool,
    grid: Vec<i64>,
    exec: ExecMode,
}

fn irregular_program(p: &RandIrregular) -> String {
    let div = if p.div == 0 {
        "D".to_string()
    } else {
        format!("({})", p.div)
    };
    let mask = if p.masked { ", K(I) > -2" } else { "" };
    format!(
        "
PROGRAM RANDIRR
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N), C(N)
INTEGER U(N), V(N), K(N)
INTEGER D
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ DISTRIBUTE T({dist})
D = 4
FORALL (I=1:N) A(I) = -1.0
FORALL (I=1:N) B(I) = REAL(I) * 0.5
FORALL (I=1:N) C(I) = REAL(N - 2*I)
FORALL (I=1:N) K(I) = MOD(I*3 - N, {div}) + (I - 7)/{div} - MOD(-I, 5)
FORALL (I=1:N) U(I) = MOD(I*{ua} + {ub}, N) + 1
FORALL (I=1:N) V(I) = MOD(I*{va} + K(I)*N + 64*N, N) + 1
FORALL (I=1:N{mask}) A(U(I)) = B(V(I)) + C(I)
END
",
        n = p.n,
        dist = p.dist,
        ua = p.ua,
        ub = p.ub,
        va = p.va,
    )
}

fn rand_irregular() -> impl Strategy<Value = RandIrregular> {
    (
        10i64..28,
        dists(),
        (1i64..9, 0i64..9, 1i64..9),
        prop_oneof![
            Just(-5i64),
            Just(-2),
            Just(-1),
            Just(0),
            Just(2),
            Just(3),
            Just(7)
        ],
        any::<bool>(),
        0usize..3,
        exec_modes(),
    )
        .prop_map(
            |(n, dist, (ua, ub, va), div, masked, grid_pick, exec)| RandIrregular {
                n,
                dist,
                ua,
                ub,
                va,
                div,
                masked,
                grid: vec![[1, 2, 4][grid_pick]],
                exec,
            },
        )
}

fn gcd(a: i64, b: i64) -> i64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn irregular_tiers_and_reference_bit_identical(p in rand_irregular()) {
        budget::global().ensure_total_at_least(8);
        let src = irregular_program(&p);
        let names = ["A", "K", "U", "V"];
        let run = |native: bool| {
            let mut opts = CompileOptions::on_grid(&p.grid);
            opts.opt.native_kernels = native;
            let compiled = compile(&src, &opts)
                .unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
            let mut m = Machine::with_mode(MachineSpec::ipsc860(), ProcGrid::new(&p.grid), p.exec);
            let (rep, trace) = compiled
                .run_on_traced(&mut m)
                .unwrap_or_else(|e| panic!("native {native} failed: {e}\n{src}"));
            let eng = compiled.engine_preserving(&mut m).unwrap();
            let arrays: Vec<ArrayData> =
                names.iter().map(|a| eng.gather_array(&mut m, a).unwrap()).collect();
            let clocks: Vec<u64> = m.transport.clocks.iter().map(|c| c.to_bits()).collect();
            (arrays, clocks, rep.messages, rep.bytes, trace)
        };
        let (nat, nat_clocks, nat_msgs, nat_bytes, nat_tr) = run(true);
        let (vm, vm_clocks, vm_msgs, vm_bytes, vm_tr) = run(false);
        prop_assert_eq!(vm_tr.native_matched, 0, "native off must never dispatch\n{}", src);
        // U and V are replicated INTEGER fills and always select (V's
        // subscript tree reads K); K's fill selects unless its divisor
        // is -1 or the scalar D; the irregular FORALL selects unmasked
        // (its own accessors are the replicated U and V) wherever the
        // compiler made its indirect subscripts a gather and a scatter
        // — on one rank they stay in place, per-element work; the REAL
        // fills bind under BLOCK only.
        let safe_divisor = p.div != 0 && p.div != -1;
        let one_rank = p.grid == [1];
        let block = p.dist == "BLOCK" || one_rank;
        let irregular = !p.masked && !one_rank;
        let want = 2 + safe_divisor as u64 + irregular as u64 + if block { 3 } else { 0 };
        prop_assert_eq!(
            (nat_tr.native_matched, nat_tr.native_fallback), (want, 7 - want),
            "FORALL executions (native, bytecode)\n{}", src
        );
        prop_assert_eq!(&nat, &vm, "arrays differ: native vs bytecode\n{}", src);
        prop_assert_eq!(
            (&nat_clocks, nat_msgs, nat_bytes), (&vm_clocks, vm_msgs, vm_bytes),
            "clocks, messages, bytes: native vs bytecode\n{}", src
        );
        // Where several iterations write one element the distributed
        // run-time's winner is message order, not iteration order:
        // only the other arrays are the reference's then.
        let compiled = compile(&src, &CompileOptions::on_grid(&p.grid)).unwrap();
        let reference = run_reference(&compiled.analyzed, &HashMap::new()).unwrap();
        let permutation = gcd(p.ua, p.n) == 1;
        for (name, img) in names.iter().zip(&nat) {
            if *name != "A" || permutation {
                prop_assert_eq!(
                    img, &reference.arrays[*name].data,
                    "array {} vs the reference interpreter\n{}", name, src
                );
            }
        }
    }
}
