//! Per-layer microbench for the host-side message path: what one
//! collective, one point-to-point message and one routed transfer cost
//! on the host, at the shapes the repo benchmark's comm-bound workloads
//! produce. This is the number below the job level that a change to
//! `f90d_machine::transport`, `f90d_machine::net` or the pack/unpack
//! loops of `f90d_comm` moves first.
//!
//! Reading the output (median of each line):
//!
//! * `multicast/*` — one sample is 1000 `multicast` calls of one column
//!   of a `(*, BLOCK)` matrix, so **ms reads as µs per call**. The
//!   machine is reset after every job's worth of calls (N−1 elimination
//!   steps), as a pooled machine is between jobs.
//!   `ipsc16_192x12` is `gauss-ipsc16`'s step (15 receiving ranks),
//!   `fattree256_64x1` is `gauss-fattree256`'s (255 receiving ranks,
//!   contention on: µs per call × 1000 / 255 = ns per receiving rank).
//!   The `*_one_member` lines run the same local shape on a one-rank
//!   grid: no message, so they are the pack plus one deposit. The plain
//!   lines are the one-shot `structured::multicast`, which plans every
//!   call; the `*_replayed` lines are `driver::multicast` against a
//!   run's plan table (a fresh one per job): the fiber (members, slots)
//!   is planned once per job, and an owner's tree and slab offsets once
//!   per owner — every step on `ipsc16` but each 12th, none on
//!   `fattree256`, whose owner changes every step.
//! * `tree_reduce/fattree256` — one sample is 1000 reductions of one
//!   REAL per rank over 256 ranks of the 4-ary fat tree, contention on:
//!   **ms reads as µs per call** (255 messages).
//! * `ghost_exchange/{planned,replayed}` — one sample is 1000 ghost
//!   exchanges at `stencil-ghost`'s shape (a 256 × 256 `(BLOCK, BLOCK)`
//!   field on a 4 × 4 grid: 64 × 64 segments, `c = ±1` on both
//!   dimensions in turn), so **ms reads as µs per call**; the machine is
//!   reset every 80 calls, one job's worth. `planned` is
//!   `driver::ghost_exchange` against a fresh plan table, so it plans
//!   its move table on every call — what every exchange of a run cost
//!   before runs kept their plans; `replayed` is the same call against a
//!   run's table that already holds the four plans: key compare, pack,
//!   post, complete, unpack.
//! * `post_complete/fresh_tag/after/N` — one sample is 1000
//!   `post_send` + `post_recv` + `complete` triples of a 64-element
//!   message, **each under a tag never used before** (what collectives
//!   do), on a transport that has already carried at least N such
//!   messages: **µs reads as ns per message**, and the line should not
//!   depend on N.
//! * `route_transfer/*` — one sample is 1000 `Topology::route` +
//!   `LinkClocks::transfer` over seeded rank pairs: µs reads as ns per
//!   routed message.
//! * `redistribute/512x512_4x4` and `transpose/512x512_4x4` — one
//!   sample is one call on a 512 × 512 REAL array on a 4 × 4 grid:
//!   `redistribute` from `(BLOCK, BLOCK)` to `(CYCLIC, BLOCK)`, and
//!   `TRANSPOSE` of the `(BLOCK, BLOCK)` array into another. Both plan
//!   every element they move (262 144 of them), so ms per call over
//!   262 144 reads as the planner's and the exchange's host cost per
//!   element moved. Only public APIs that predate the shared move list
//!   are used, so the function copies into older checkouts unchanged.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use f90d_comm::helpers::tree_reduce;
use f90d_comm::redist::redistribute;
use f90d_comm::structured::{alloc_slab_tmp, multicast};
use f90d_comm::{driver, RunSchedules};
use f90d_distrib::{Dad, DadBuilder, DistKind, ProcGrid};
use f90d_machine::{
    ArrayData, ElemType, LinkClocks, LocalArray, Machine, MachineSpec, MailboxTransport, Transport,
    Value,
};
use f90d_runtime::intrinsics::unstructured::transpose;
use f90d_runtime::DistArray;

const PER_SAMPLE: usize = 1000;

/// A `rows × cols` REAL matrix distributed `(*, BLOCK)` over `p` ranks,
/// filled, with its multicast slab temporary allocated.
fn column_machine(spec: MachineSpec, p: i64, rows: i64, cols: i64) -> (Machine, Dad) {
    let grid = ProcGrid::new(&[p]);
    let mut m = Machine::new(spec, grid.clone());
    let dad = DadBuilder::new("A", &[rows, cols])
        .distribute(&[DistKind::Collapsed, DistKind::Block])
        .grid(grid)
        .build()
        .expect("valid (*, BLOCK) descriptor");
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        let mut la = LocalArray::zeros(ElemType::Real, &dad.local_shape());
        let seg = la.segment();
        dad.for_each_owned(&coords, &seg, |g, off| {
            la.set_flat(off, Value::Real((100 * g[0] + g[1]) as f64));
        });
        m.mems[rank as usize].insert_array("A", la);
    }
    alloc_slab_tmp(&mut m, "TMP", &dad, 1, ElemType::Real);
    (m, dad)
}

/// `PER_SAMPLE` multicasts of successive columns, the machine reset
/// after every `steps` of them (one Gaussian elimination's worth), each
/// by `cast(m, column)`.
fn run_multicasts(
    m: &mut Machine,
    dad: &Dad,
    steps: usize,
    contention: bool,
    cast: &mut dyn FnMut(&mut Machine, i64),
) {
    let cols = dad.shape[1];
    for k in 0..PER_SAMPLE {
        if k % steps == 0 {
            m.reset_time();
            m.set_contention(contention);
        }
        cast(m, (k % steps) as i64 % cols);
    }
    black_box(m.elapsed());
}

fn bench_multicast(c: &mut Criterion) {
    let mut g = c.benchmark_group("multicast");
    g.sample_size(10);
    let ipsc = MachineSpec::ipsc860;
    let fat = || MachineSpec::fat_tree(4, 4).expect("valid fat tree");
    // (label, spec, ranks, global rows, global columns, steps per job,
    // contention)
    let shapes = [
        ("ipsc16_192x12", ipsc(), 16, 192, 192, 191, false),
        ("ipsc16_192x12_one_member", ipsc(), 1, 192, 12, 191, false),
        ("fattree256_64x1", fat(), 256, 64, 64, 63, true),
        ("fattree256_64x1_one_member", fat(), 1, 64, 1, 63, true),
    ];
    for (label, spec, p, rows, cols, steps, contention) in shapes {
        let (mut m, dad) = column_machine(spec, p, rows, cols);
        let mut one_shot = |m: &mut Machine, g| {
            multicast(m, "A", &dad, "TMP", 1, g).expect("multicast");
        };
        g.bench_function(label, |b| {
            b.iter(|| run_multicasts(&mut m, &dad, steps, contention, &mut one_shot))
        });
        if label.ends_with("one_member") {
            continue;
        }
        // A run's table: one per job, as an engine keeps one per run.
        let mut rs = RunSchedules::new();
        let mut replayed = |m: &mut Machine, g| {
            if g == 0 {
                rs = RunSchedules::new();
            }
            driver::multicast(m, &mut rs, "A", &dad, "TMP", 1, g).expect("multicast");
        };
        g.bench_function(format!("{label}_replayed"), |b| {
            b.iter(|| run_multicasts(&mut m, &dad, steps, contention, &mut replayed))
        });
    }
    g.finish();
}

fn bench_tree_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("tree_reduce");
    g.sample_size(10);
    let spec = MachineSpec::fat_tree(4, 4).expect("valid fat tree");
    let mut m = Machine::new(spec, ProcGrid::new(&[256]));
    let members: Vec<i64> = (0..256).collect();
    let sum = |acc: &mut ArrayData, x: &ArrayData| {
        if let (ArrayData::Real(a), ArrayData::Real(b)) = (acc, x) {
            a.iter_mut().zip(b).for_each(|(a, b)| *a += b);
        }
    };
    g.bench_function("fattree256", |b| {
        b.iter(|| {
            for k in 0..PER_SAMPLE {
                if k % 63 == 0 {
                    m.reset_time();
                    m.set_contention(true);
                }
                let parts = vec![ArrayData::Real(vec![1.0]); 256];
                black_box(tree_reduce(&mut m, &members, parts, sum).expect("reduces"));
            }
        })
    });
    g.finish();
}

fn bench_ghost_exchange(c: &mut Criterion) {
    let mut g = c.benchmark_group("ghost_exchange");
    g.sample_size(10);
    let grid = ProcGrid::new(&[4, 4]);
    let mut m = Machine::new(MachineSpec::ipsc860(), grid.clone());
    let dad = DadBuilder::new("U", &[256, 256])
        .distribute(&[DistKind::Block, DistKind::Block])
        .grid(grid)
        .build()
        .expect("valid (BLOCK, BLOCK) descriptor");
    for mem in &mut m.mems {
        let seg = LocalArray::with_ghost(ElemType::Real, &dad.local_shape(), &[1, 1], &[1, 1]);
        mem.insert_array("U", seg);
    }
    const SHIFTS: [(usize, i64); 4] = [(0, -1), (0, 1), (1, -1), (1, 1)];
    let mut run = |exchange: &mut dyn FnMut(&mut Machine, usize, i64)| {
        for k in 0..PER_SAMPLE {
            if k % 80 == 0 {
                m.reset_time();
            }
            let (dim, c) = SHIFTS[k % 4];
            exchange(&mut m, dim, c);
        }
        black_box(m.elapsed());
    };
    let shift = |m: &mut Machine, rs: &mut RunSchedules, dim, c| {
        driver::ghost_exchange(m, rs, "U", &dad, dim, c).expect("shift")
    };
    g.bench_function("planned", |b| {
        b.iter(|| run(&mut |m, dim, c| shift(m, &mut RunSchedules::new(), dim, c)))
    });
    let mut rs = RunSchedules::new();
    g.bench_function("replayed", |b| {
        b.iter(|| run(&mut |m, dim, c| shift(m, &mut rs, dim, c)))
    });
    g.finish();
}

/// Seeded rank pairs with `a != b` (xorshift; no dependency).
fn pairs(nranks: i64, n: usize) -> Vec<(i64, i64)> {
    let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    (0..n)
        .map(|_| {
            let a = (next() % nranks as u64) as i64;
            let b = (a + 1 + (next() % (nranks as u64 - 1)) as i64) % nranks;
            (a, b)
        })
        .collect()
}

fn bench_post_complete(c: &mut Criterion) {
    let mut g = c.benchmark_group("post_complete");
    g.sample_size(10);
    let nranks = 256;
    let pairs = pairs(nranks, 997);
    for already in [0usize, 16_000, 64_000] {
        let mut t = MailboxTransport::new(MachineSpec::ipsc860(), nranks);
        let mut tag = 0u32;
        let mut burst = |n: usize| {
            for _ in 0..n {
                tag += 1;
                let (a, b) = pairs[tag as usize % pairs.len()];
                t.post_send(a, b, tag, ArrayData::zeros(ElemType::Real, 64));
                let h = t.post_recv(b, a, tag);
                black_box(t.complete(h).expect("the send was posted"));
            }
        };
        // Untimed: the traffic the transport has carried before the
        // first sample (every later sample adds its own 1000).
        burst(already);
        g.bench_function(BenchmarkId::new("fresh_tag/after", already), |b| {
            b.iter(|| burst(PER_SAMPLE))
        });
    }
    g.finish();
}

fn bench_route_transfer(c: &mut Criterion) {
    let mut g = c.benchmark_group("route_transfer");
    g.sample_size(10);
    let specs = [
        ("hypercube16", MachineSpec::ipsc860(), 16),
        (
            "fattree256",
            MachineSpec::fat_tree(4, 4).expect("valid fat tree"),
            256,
        ),
    ];
    for (label, spec, nranks) in specs {
        let pairs = pairs(nranks, PER_SAMPLE);
        g.bench_function(label, |b| {
            b.iter(|| {
                let mut links = LinkClocks::new();
                for (i, &(a, bb)) in pairs.iter().enumerate() {
                    let route = spec.topology.route(a, bb);
                    black_box(links.transfer(&spec, &route, i as f64 * 1e-6, 512));
                }
                links.links_used()
            })
        });
    }
    g.finish();
}

fn bench_element_moves(c: &mut Criterion) {
    let n = 512;
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[4, 4]));
    let kinds = [DistKind::Block, DistKind::Block];
    let a = DistArray::create(&mut m, "A", ElemType::Real, &[n, n], &kinds);
    a.fill_with(&mut m, |g| Value::Real((g[0] * n + g[1]) as f64));
    let cyclic = [DistKind::Cyclic, DistKind::Block];
    let b = DistArray::create(&mut m, "B", ElemType::Real, &[n, n], &cyclic);
    let t = DistArray::create(&mut m, "T", ElemType::Real, &[n, n], &kinds);
    let mut g = c.benchmark_group("redistribute");
    g.sample_size(10);
    g.bench_function("512x512_4x4", |bench| {
        bench.iter(|| {
            m.reset_time();
            redistribute(&mut m, "A", &a.dad, "B", &b.dad).expect("redistributes");
        })
    });
    g.finish();
    let mut g = c.benchmark_group("transpose");
    g.sample_size(10);
    g.bench_function("512x512_4x4", |bench| {
        bench.iter(|| {
            m.reset_time();
            transpose(&mut m, &a, &t);
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_multicast,
    bench_tree_reduce,
    bench_ghost_exchange,
    bench_post_complete,
    bench_route_transfer,
    bench_element_moves
);
criterion_main!(benches);
