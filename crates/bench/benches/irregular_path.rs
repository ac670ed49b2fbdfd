//! Per-layer microbench for the irregular path (paper §4 ex. 3,
//! `A(U(I)) = B(V(I)) + C(I)`): what the inspector, the schedule lookup
//! and the INTEGER fill of an indirection array cost on the host, at
//! the shape of the repo benchmark's `irregular-gather` job (N = 8192
//! on 16 ranks). This is the number below the job level that a change
//! to `f90d_comm::driver`, `f90d_comm::sched_cache` or the INTEGER lane
//! of `f90d_vm::native` moves first.
//!
//! Reading the output (median of each line):
//!
//! * `push/*` — one sample is 999 424 `GatherRequests::push` calls (122
//!   inspector runs of 8192), so **ms reads as ns per push**.
//!   `block1d_8192_p16` is the job's source; `cyclic2d_96x96_p4x4`
//!   goes through two CYCLIC dimensions. A push checks the subscript's
//!   bounds and records it; locating waits for `execute`, and a
//!   repeat skips it (before that, every push located).
//! * `gather/repeat_8192_p16` — one sample is 122 gathers of 8192
//!   elements (push + `GatherRequests::execute`) of one statement
//!   through one `RunSchedules` with the subscripts of its last
//!   execution, so **ms reads as ns per element** for a repeat of the
//!   whole unstructured read: push, the comparison with the kept rows,
//!   the modelled inspector charge, the buffers and the exchange.
//! * `scatter/whole_call_8192_p16` — one sample is 122 `driver::scatter`
//!   calls of 8192 writes of one statement through one `RunSchedules`
//!   (the statement's kept schedule every time), so **ms reads as ns
//!   per written element** for the whole post-loop executor: buffer
//!   fill, the comparison with the kept rows, exchange.
//! * `exchange/execute_8192_p16` — one sample is 122 `execute_read`s of
//!   the job's gather schedule, built once, so **ms reads as ns per
//!   element** of the executor alone: pack, send, arrive, unpack.
//! * `schedule/build_8192_p16` — one sample is 122 `build_schedule`
//!   calls on the job's gather pattern, so **ms reads as ns per
//!   request** of the move-table build a cache miss pays.
//!   `schedule/build_8192_p256` is the same pattern on 256 ranks, the
//!   size of the fat-tree machine: its table of rank pairs holds 8
//!   entries a request, past `ExchangePlan::of_moves`' cutover, so it
//!   times the requester-then-owner sort where `build_8192_p16` (1/32
//!   of an entry a request) times the pair-table sort.
//! * `schedule/*` (the rest) — one sample is 100
//!   `RunSchedules::schedule` calls at 8192 requests, so **ms × 10 reads
//!   as µs per call**. `within_run_hit`: the run has seen the pattern;
//!   `global_hit`: a fresh run finds it in the process-wide cache (and
//!   pays the modelled inspector, messages included); `miss`: a pattern
//!   nobody has seen (build + insert; the cache is cleared every 64
//!   calls to bound memory). The hit lines pack a prebuilt list of
//!   `ElementReq`s into its 16-byte words (`Pattern::of`) every call
//!   (the driver's inspectors list the words themselves and do not pay
//!   that); the miss line generates one per call.
//! * `int_mod_fill/*` — one sample is 8 runs of `FORALL (I=1:N) U(I) =
//!   MOD(I*5+3, N) + 1` on a replicated INTEGER `U(8192)` over 16 ranks
//!   through `Engine`, 1 048 576 element updates, so **ms reads as ns
//!   per element** (+5 %), on the bytecode tier and on the native one.
//!
//! One run of each line on a 2-vCPU Xeon host, medians of three
//! alternated with a build that predates exchange-held messages and
//! the counting-sort build (the host's speed drifts up to 2× between
//! minutes, so compare alternated binaries only): `exchange/execute`
//! 3.0 ns per element (3.4 before), `schedule/build` 8.5 ns per request
//! (12.8), `scatter/whole_call` 3.9 (4.3), `gather/repeat` 13.7 (16.2),
//! `schedule/miss` 188 µs (311), `schedule/global_hit` 57 µs (71).
//! Against builds forced to one of `of_moves`' two sorts (medians of
//! three alternated): `schedule/build_8192_p16` 7.7 ns per request
//! (8.9 with the pair table alone, 17.1 with the requester-then-owner
//! sort alone), `schedule/build_8192_p256` 16.3 (22.1, 15.9).
//!
//! The file uses APIs that predate it except in the four shims
//! [`push_all`], [`gather_one`], [`scatter_all`] and [`schedule_one`];
//! rewriting those against an older checkout's signatures gives the
//! *before* numbers.

use std::hint::black_box;
use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use f90d_comm::driver::{self, GatherRequests, ScatterOut};
use f90d_comm::sched_cache::{self, Pattern, RunSchedules, StmtId};
use f90d_comm::schedule::{build_schedule, execute_read, ElementReq, ScheduleKind};
use f90d_core::{compile, Backend, CompileOptions};
use f90d_distrib::{Dad, DadBuilder, DistKind, ProcGrid};
use f90d_machine::{ElemType, LocalArray, Machine, MachineSpec, Value};
use f90d_vm::{Engine, VmProgram};

const N: i64 = 8192;
const P: i64 = 16;
/// Inspector runs (or scatter calls) per sample: 122 × 8192 ≈ 10⁶.
const ROUNDS: usize = 122;

/// A machine holding REAL `B` of `shape` under `kinds` on `grid`.
fn machine(shape: &[i64], kinds: &[DistKind], grid: &[i64]) -> (Machine, Dad) {
    let grid = ProcGrid::new(grid);
    let mut m = Machine::new(MachineSpec::ipsc860(), grid.clone());
    let dad = DadBuilder::new("B", shape)
        .distribute(kinds)
        .grid(grid)
        .build()
        .expect("valid descriptor");
    for mem in &mut m.mems {
        mem.insert_array("B", LocalArray::zeros(ElemType::Real, &dad.local_shape()));
    }
    (m, dad)
}

/// `(I·a + b) mod size` for `I = 1..=size`, unflattened row-major over
/// `shape`: the job's permutation pattern, `shape.len()` values per
/// iteration.
fn pattern(shape: &[i64], a: i64, b: i64) -> Vec<i64> {
    let size: i64 = shape.iter().product();
    let mut subs = Vec::with_capacity(size as usize * shape.len());
    for i in 1..=size {
        let mut flat = (i * a + b) % size;
        let at = subs.len();
        for &extent in shape.iter().rev() {
            subs.insert(at, flat % extent);
            flat /= extent;
        }
    }
    subs
}

/// One inspector run: every iteration's subscripts pushed, the
/// iterations dealt to the ranks in equal blocks.
fn push_all<'a>(m: &Machine, dad: &'a Dad, subs: &[i64]) -> GatherRequests<'a> {
    let mut reqs = GatherRequests::new(m, "B", dad);
    let ndim = dad.rank();
    let per_rank = subs.len() / ndim / m.nranks() as usize;
    for (k, g) in subs.chunks_exact(ndim).enumerate() {
        reqs.push((k / per_rank) as i64, g).expect("in range");
    }
    reqs
}

/// One unstructured read of `B` into `TMP` by the statement the
/// benchmark stands for: [`push_all`], then the executor.
fn gather_one(m: &mut Machine, rs: &mut RunSchedules, dad: &Dad, subs: &[i64]) {
    let reqs = push_all(m, dad, subs);
    let stmt = StmtId::Gather {
        forall: 0,
        gather: 0,
    };
    reqs.execute(m, rs, stmt, "TMP", ElemType::Real, false)
        .expect("in range");
}

fn bench_push(c: &mut Criterion) {
    let mut g = c.benchmark_group("push");
    g.sample_size(10);
    let cases: [(&str, &[i64], &[DistKind], &[i64]); 2] = [
        ("block1d_8192_p16", &[N], &[DistKind::Block], &[P]),
        (
            "cyclic2d_96x96_p4x4",
            &[96, 96],
            &[DistKind::Cyclic, DistKind::Cyclic],
            &[4, 4],
        ),
    ];
    for (label, shape, kinds, grid) in cases {
        let (m, dad) = machine(shape, kinds, grid);
        let subs = pattern(shape, 2731, 977);
        let rounds = ROUNDS * N as usize / (subs.len() / shape.len());
        g.bench_function(label, |b| {
            b.iter(|| {
                for _ in 0..rounds {
                    black_box(push_all(&m, &dad, black_box(&subs)));
                }
            })
        });
    }
    g.finish();
}

fn bench_gather(c: &mut Criterion) {
    let mut g = c.benchmark_group("gather");
    g.sample_size(10);
    let (mut m, dad) = machine(&[N], &[DistKind::Block], &[P]);
    let subs = pattern(&[N], 2731, 977);
    let mut rs = RunSchedules::new();
    g.bench_function("repeat_8192_p16", |b| {
        b.iter(|| {
            for _ in 0..ROUNDS {
                gather_one(&mut m, &mut rs, &dad, black_box(&subs));
            }
            m.reset_time();
        })
    });
    g.finish();
}

/// The post-loop executor of one irregular FORALL: rank `r` writes its
/// block of iterations' values to `B(subs(i))`.
fn scatter_all(m: &mut Machine, rs: &mut RunSchedules, dad: &Dad, outputs: &[ScatterOut]) {
    let stmt = StmtId::Scatter { forall: 0 };
    driver::scatter(m, rs, stmt, "B", dad, outputs, false).expect("in range");
}

/// [`scatter_all`]'s input: the pattern dealt to the ranks in blocks.
fn scatter_outputs(nranks: usize, subs: &[i64]) -> Vec<ScatterOut> {
    let per_rank = subs.len() / nranks;
    (subs.chunks_exact(per_rank).enumerate())
        .map(|(rank, block)| {
            let mut out = ScatterOut::new(ElemType::Real);
            for (k, &g) in block.iter().enumerate() {
                out.push(&[g], Value::Real((rank * per_rank + k) as f64));
            }
            out
        })
        .collect()
}

fn bench_scatter(c: &mut Criterion) {
    let mut g = c.benchmark_group("scatter");
    g.sample_size(10);
    let (mut m, dad) = machine(&[N], &[DistKind::Block], &[P]);
    let outputs = scatter_outputs(P as usize, &pattern(&[N], 2731, 977));
    let mut rs = RunSchedules::new();
    g.bench_function("whole_call_8192_p16", |b| {
        b.iter(|| {
            for _ in 0..ROUNDS {
                scatter_all(&mut m, &mut rs, &dad, black_box(&outputs));
            }
            m.reset_time();
        })
    });
    g.finish();
}

/// The request list of the job's gather under pattern offset `b` on
/// `p` ranks: iteration `i` on rank `i / (N / p)` reads
/// `B((i·2731 + b) mod N)` from its BLOCK owner into its next buffer
/// slot.
fn gather_reqs(b: i64, p: i64) -> Vec<ElementReq> {
    let block = N / p;
    (0..N)
        .map(|i| {
            let g = (i * 2731 + b) % N;
            ElementReq {
                requester: i / block,
                owner: g / block,
                src_off: (g % block) as usize,
                dst_off: (i % block) as usize,
            }
        })
        .collect()
}

fn bench_exchange(c: &mut Criterion) {
    let mut g = c.benchmark_group("exchange");
    g.sample_size(10);
    let (mut m, _) = machine(&[N], &[DistKind::Block], &[P]);
    for mem in &mut m.mems {
        mem.insert_array("TMP", LocalArray::zeros(ElemType::Real, &[N / P]));
    }
    let sched = build_schedule(ScheduleKind::FanInRequests, &gather_reqs(977, P));
    g.bench_function("execute_8192_p16", |b| {
        b.iter(|| {
            for _ in 0..ROUNDS {
                execute_read(&mut m, black_box(&sched), "B", "TMP").expect("executes");
            }
            m.reset_time();
        })
    });
    g.finish();
}

/// One schedule lookup of the request list `reqs`.
fn schedule_one(m: &mut Machine, rs: &mut RunSchedules, reqs: &[ElementReq]) {
    let sched = rs.schedule(m, ScheduleKind::FanInRequests, Pattern::of(reqs), false);
    black_box(Arc::as_ptr(&sched.expect("inspector runs")));
}

fn bench_schedule(c: &mut Criterion) {
    const CALLS: usize = 100;
    let mut g = c.benchmark_group("schedule");
    g.sample_size(10);
    let (mut m, _) = machine(&[N], &[DistKind::Block], &[P]);
    let mut rs = RunSchedules::new();
    let seen = gather_reqs(977, P);
    g.bench_function("build_8192_p16", |b| {
        b.iter(|| {
            for _ in 0..ROUNDS {
                black_box(build_schedule(
                    ScheduleKind::FanInRequests,
                    black_box(&seen),
                ));
            }
        })
    });
    let wide = gather_reqs(977, 256);
    g.bench_function("build_8192_p256", |b| {
        b.iter(|| {
            for _ in 0..ROUNDS {
                black_box(build_schedule(
                    ScheduleKind::FanInRequests,
                    black_box(&wide),
                ));
            }
        })
    });
    g.bench_function("within_run_hit", |b| {
        b.iter(|| {
            for _ in 0..CALLS {
                schedule_one(&mut m, &mut rs, black_box(&seen));
            }
        })
    });
    g.bench_function("global_hit", |b| {
        b.iter(|| {
            for _ in 0..CALLS {
                schedule_one(&mut m, &mut RunSchedules::new(), black_box(&seen));
            }
            m.reset_time();
        })
    });
    let mut fresh = 0;
    g.bench_function("miss", |b| {
        b.iter(|| {
            for k in 0..CALLS {
                if k % 64 == 0 {
                    sched_cache::global().clear();
                }
                fresh += 1;
                schedule_one(
                    &mut m,
                    &mut RunSchedules::new(),
                    &gather_reqs(1000 + fresh, P),
                );
            }
            m.reset_time();
        })
    });
    g.finish();
    sched_cache::global().clear();
}

fn bench_int_fill(c: &mut Criterion) {
    let mut g = c.benchmark_group("int_mod_fill");
    g.sample_size(10);
    let src = format!(
        "
PROGRAM FILL
INTEGER, PARAMETER :: N = {N}
INTEGER U(N)
FORALL (I=1:N) U(I) = MOD(I*5 + 3, N) + 1
END
"
    );
    for (label, native) in [("bytecode", false), ("native", true)] {
        let mut opts = CompileOptions::on_grid(&[P]).with_backend(Backend::Vm);
        opts.opt.native_kernels = native;
        let prog: Arc<VmProgram> = compile(&src, &opts)
            .and_then(|compiled| compiled.vm_program())
            .expect("compiles and lowers");
        let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[P]));
        g.bench_function(label, |b| {
            b.iter(|| {
                for _ in 0..8 {
                    let mut eng = Engine::new(prog.clone(), &mut m);
                    black_box(eng.run(&mut m).expect("runs").elapsed);
                }
                m.reset_time();
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_push,
    bench_gather,
    bench_scatter,
    bench_exchange,
    bench_schedule,
    bench_int_fill
);
criterion_main!(benches);
