//! The native tier's FORALL setup allocates nothing per rank, and this
//! guard keeps it so: a counting global allocator counts the heap
//! allocations (fresh blocks and reallocations) of the calling thread
//! only — a const-initialised thread-local, so tests running beside it
//! on other threads do not perturb the count — over one run of the
//! `(*,BLOCK)` Gaussian on the native tier, divided by the run's active
//! rank-executions (`RunTrace::ranks_active`: one rank running one
//! FORALL execution). A debug build also re-derives every step a
//! `DO`-loop plan instantiated from scratch, to check it
//! (`engine::check_instantiated`), and counts those allocations too: a
//! release build read 11.4, 3.8 and 1.4 per active rank-execution at
//! P = 4, 16 and 64 when the plans came in (15.1, 4.7 and 1.5 before),
//! a debug build 16.1, 5.1 and 1.7.
//!
//! Where the bounds come from. Before FORALL dispatch kept `set_BOUND`'s
//! triples as progressions, one run of this test made 23 524, 47 010 and
//! 133 172 allocations at P = 4, 16 and 64: over its 484, 1 648 and
//! 6 304 active rank-executions, 48.6, 28.5 and 21.1 each. (Over all
//! 16 × 192 rank-executions of P = 16, active or not, that is the
//! "about 16 per rank and execution" the change was measured at.) Each
//! active rank-execution paid about 3.4 in dispatch, which listed every
//! rank's iteration values (a copy of the replicated row list
//! included), 6.0 in the bind (each affine form's coefficient vector,
//! each rank's site, body and write tables) and 2.9 setting up the box
//! run (each rank's argument tables and column pool); the rest is per
//! execution — the multicast of the pivot column, the fold — and weighs
//! more the fewer ranks share it, hence the higher figure at P = 4. The
//! guard holds each ratio to half of its old figure ([`BOUNDS`]): a
//! change that brings back one vector per rank and execution in
//! dispatch, bind or box run moves the ratio by about one, and costs at
//! P = 16 and 64, where the per-execution share is small, most of the
//! margin at once.
//!
//! The run-time library's element loops are guarded the same way: a
//! host gather and a `DIM=` reduction enumerate a node's elements with
//! the one product walk over its per-dimension owned runs, which
//! allocates per call, never per element — [`the_element_walks_allocate_per_call`]
//! holds each to fewer allocations than one per 16 elements. (Before the
//! walk, every element was copied out as two index vectors.)
//!
//! So are the element-wise planners: a redistribution and a
//! `TRANSPOSE` locate each element through one `Locator` and list its
//! move in one vector, so what they allocate grows with the processor
//! pairs, not with the elements —
//! [`element_moves_allocate_per_pair`] holds the growth from n = 64 to
//! n = 256 under one allocation per 100 more elements moved: 146 → 150
//! and 144 → 148 now, 279 → 283 and 167 → 171 while an exchange
//! allocated a payload per processor pair. (When every planner grouped its moves in a
//! `BTreeMap` and located each element with `owner_ranks` +
//! `local_index`, the same calls made 16 975 → 262 991 and 20 741 →
//! 328 005: 4.0 and 5.0 allocations per element.)
//!
//! A repeat of an unstructured statement is guarded too: when its
//! subscripts and layout are those of the execution before, the run
//! takes the schedule it kept and locates nothing, and the sequential
//! buffers and inspector buffers are the ones already there —
//! [`repeated_inspectors_and_copied_ranks_allocate_per_rank`] holds one
//! repeat of the irregular kernel to the same count at two sizes and
//! under two thirds of what it made before, and a replicated write
//! computed once to no allocation for the ranks it is copied to.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use f90d_comm::redist::redistribute;
use f90d_comm::reduce::{allreduce_scalar, ReduceOp};
use f90d_core::{compile, CompileOptions, RunTrace};
use f90d_distrib::{DistKind, ProcGrid};
use f90d_machine::{ElemType, Machine, MachineSpec, Value};
use f90d_progen::workloads::gaussian;
use f90d_runtime::intrinsics::reduction::reduced_dad;
use f90d_runtime::intrinsics::unstructured::transpose;
use f90d_runtime::intrinsics::{reduce_dim, sum};
use f90d_runtime::DistArray;

/// `(P, allocations per active rank-execution a run may make)`: half of
/// what it made while iteration spaces were listed.
const BOUNDS: [(i64, f64); 3] = [(4, 48.6 / 2.0), (16, 28.5 / 2.0), (64, 21.1 / 2.0)];

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting on the allocating thread.
struct Counting;

/// One allocation of a `bytes`-byte block (a reallocation counts its
/// whole new block).
fn count(bytes: usize) {
    // A thread being torn down has no counter left; it is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

fn bytes_allocated() -> u64 {
    BYTES.with(Cell::get)
}

/// `(allocations, active rank-executions)` of one run of the Gaussian of
/// order `n` on `p` ranks, after a first run has lowered the program.
fn gaussian_run(n: i64, p: i64) -> (u64, u64) {
    let mut opts = CompileOptions::on_grid(&[p]);
    opts.opt.native_kernels = true;
    let compiled = compile(&gaussian(n), &opts).expect("compiles");
    let spec = MachineSpec::ipsc860();
    compiled
        .run_on(&mut Machine::new(spec.clone(), ProcGrid::new(&[p])))
        .expect("runs");
    let mut m = Machine::new(spec, ProcGrid::new(&[p]));
    let before = allocations();
    let (_, trace) = compiled.run_on_traced(&mut m).expect("runs");
    let made = allocations() - before;
    assert_eq!(trace.native_fallback, 0, "every FORALL runs native");
    (made, trace.ranks_active)
}

#[test]
fn the_native_gaussian_allocates_little_per_active_rank() {
    for (p, bound) in BOUNDS {
        let (made, active) = gaussian_run(192, p);
        let per = made as f64 / active as f64;
        println!("P = {p}: {made} allocations over {active} active rank-executions: {per:.2}");
        assert!(
            per <= bound,
            "P = {p}: {per:.2} allocations per active rank-execution, over {bound}"
        );
    }
}

/// `DistArray::gather_host` and a REAL `SUM(A, DIM=1)` of a 128 × 128
/// `(BLOCK, CYCLIC(3))` array over a 4 × 4 grid each make fewer
/// allocations than one per 16 elements.
#[test]
fn the_element_walks_allocate_per_call() {
    let n = 128;
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[4, 4]));
    let kinds = [DistKind::Block, DistKind::BlockCyclic(3)];
    let a = DistArray::create(&mut m, "A", ElemType::Real, &[n, n], &kinds);
    a.fill_with(&mut m, |g| Value::Real((g[0] * n + g[1]) as f64));
    let dst = DistArray::from_dad(&mut m, "S", ElemType::Real, reduced_dad(&a.dad, 0), 0);
    let bound = (n * n / 16) as u64;

    let before = allocations();
    let host = a.gather_host(&mut m);
    let gather = allocations() - before;

    let before = allocations();
    reduce_dim(&mut m, &a, &dst, 0, ReduceOp::Sum);
    let sum = allocations() - before;

    println!("gather_host: {gather} allocations, SUM(A, DIM=1): {sum}, bound {bound}");
    assert_eq!(
        host.get(5 * n as usize + 7),
        Value::Real((5 * n + 7) as f64)
    );
    let column: i64 = (0..n).map(|i| i * n + 7).sum();
    assert_eq!(dst.get_global(&m, &[7]), Value::Real(column as f64));
    assert!(
        gather < bound,
        "gather_host: {gather} allocations, bound {bound}"
    );
    assert!(
        sum < bound,
        "SUM(A, DIM=1): {sum} allocations, bound {bound}"
    );
}

/// `(redistribute, TRANSPOSE)` allocations on an `n × n` REAL array on
/// a 4 × 4 grid: one redistribution from `(BLOCK, BLOCK)` to `(CYCLIC,
/// BLOCK)` and one `TRANSPOSE` of the `(BLOCK, BLOCK)` array.
fn element_moves(n: i64) -> (u64, u64) {
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[4, 4]));
    let kinds = [DistKind::Block, DistKind::Block];
    let a = DistArray::create(&mut m, "A", ElemType::Real, &[n, n], &kinds);
    a.fill_with(&mut m, |g| Value::Real((g[0] * n + g[1]) as f64));
    let cyclic = [DistKind::Cyclic, DistKind::Block];
    let b = DistArray::create(&mut m, "B", ElemType::Real, &[n, n], &cyclic);
    let t = DistArray::create(&mut m, "T", ElemType::Real, &[n, n], &kinds);

    let before = allocations();
    redistribute(&mut m, "A", &a.dad, "B", &b.dad).expect("redistributes");
    let redist = allocations() - before;

    let before = allocations();
    transpose(&mut m, &a, &t);
    let trans = allocations() - before;

    let g = [n - 2, 5];
    let want = Value::Real((g[0] * n + g[1]) as f64);
    assert_eq!(b.get_global(&m, &g), want);
    assert_eq!(t.get_global(&m, &[g[1], g[0]]), want);
    (redist, trans)
}

/// From n = 64 to n = 256 a redistribution and a `TRANSPOSE` each move
/// 61 440 more elements; each may make fewer than one more allocation
/// per 100 of them.
#[test]
fn element_moves_allocate_per_pair() {
    let (small, large) = (element_moves(64), element_moves(256));
    let bound = (256 * 256 - 64 * 64) as u64 / 100;
    println!(
        "redistribute: {} → {}, TRANSPOSE: {} → {} allocations, growth bound {bound}",
        small.0, large.0, small.1, large.1
    );
    for (what, small, large) in [
        ("redistribute", small.0, large.0),
        ("TRANSPOSE", small.1, large.1),
    ] {
        assert!(
            large.saturating_sub(small) < bound,
            "{what}: {small} allocations at n = 64, {large} at n = 256, growth bound {bound}"
        );
    }
}

/// Allocations one run of `src` makes on `p` ranks after a first run
/// lowered it and filled the schedule cache, with the run's trace.
fn warm_run(src: &str, p: i64) -> (u64, RunTrace) {
    let compiled = compile(src, &CompileOptions::on_grid(&[p])).expect("compiles");
    let spec = MachineSpec::ipsc860();
    compiled
        .run_on(&mut Machine::new(spec.clone(), ProcGrid::new(&[p])))
        .expect("runs");
    let mut m = Machine::new(spec, ProcGrid::new(&[p]));
    let before = allocations();
    let (_, trace) = compiled.run_on_traced(&mut m).expect("runs");
    (allocations() - before, trace)
}

/// What one more trip of a `DO` around `body` costs in allocations on
/// `p` ranks: a run of five trips less a run of one, over four. `body`
/// reads `IT`, the trip, only if it means to.
fn per_trip(setup: &str, body: &str, p: i64) -> (f64, RunTrace) {
    let program = |trips: i64| format!("{setup}\nDO IT = 1, {trips}\n{body}\nEND DO\nEND\n");
    let (one, _) = warm_run(&program(1), p);
    let (five, trace) = warm_run(&program(5), p);
    ((five as f64 - one as f64) / 4.0, trace)
}

/// A repeat execution of the irregular kernel `A(U(I)) = B(V(I)) +
/// C(I)` — its two unstructured reads and its scatter, with the
/// subscripts of the execution before — allocates per rank and per
/// processor pair, never per element: as many allocations at N = 2048
/// as at N = 8192, and on 4 ranks at most [`IRREGULAR_REPEAT_BOUND`].
/// A repeat made 240 before it took the kept schedule (the inspector
/// located and keyed every request, and each rank's sequential buffers
/// and inspector buffers were allocated afresh), and 120 while
/// `SpacePlan::new` allocated its tables and a rank's coordinates
/// before refusing the scatter's `BlockIter` variable at every trip,
/// and 116 while every exchange allocated a payload per processor pair
/// and the transport queued it; it makes 83 now. A replicated fill the
/// first rank computes for every rank (`U(I) = MOD(I*5 + IT, N) + 1`)
/// allocates nothing for the ranks it copies to: its trip costs as many allocations on 16
/// ranks as on 4.
#[test]
fn repeated_inspectors_and_copied_ranks_allocate_per_rank() {
    let setup = |n: i64| {
        format!(
            "
PROGRAM IRREG
INTEGER, PARAMETER :: N = {n}
REAL A(N), B(N), C(N)
INTEGER U(N), V(N)
INTEGER IT
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ ALIGN C(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I)
FORALL (I=1:N) C(I) = REAL(N - I)
FORALL (I=1:N) U(I) = MOD(I*7, N) + 1
FORALL (I=1:N) V(I) = MOD(I*11, N) + 1"
        )
    };
    let kernel = "FORALL (I=1:N) A(U(I)) = B(V(I)) + C(I)";
    let (small, _) = per_trip(&setup(2048), kernel, 4);
    let (repeat, trace) = per_trip(&setup(8192), kernel, 4);
    println!("irregular kernel: {repeat} allocations per repeat on 4 ranks ({small} at N = 2048)");
    assert_eq!(
        trace.inspectors_reused, 12,
        "two reads and a scatter, four repeats"
    );
    assert_eq!(repeat, small, "a repeat allocates per element");
    assert!(
        repeat <= IRREGULAR_REPEAT_BOUND,
        "{repeat} allocations per repeat of the irregular kernel on 4 ranks, over {IRREGULAR_REPEAT_BOUND}"
    );
    let fill = "FORALL (I=1:N) U(I) = MOD(I*5 + IT, N) + 1";
    let (on4, _) = per_trip(&setup(8192), fill, 4);
    let (on16, trace) = per_trip(&setup(8192), fill, 16);
    println!("replicated fill: {on4} allocations per trip on 4 ranks, {on16} on 16");
    assert_eq!(
        trace.ranks_copied,
        2 * 15 + 5 * 15,
        "`U` and `V`, then every trip"
    );
    assert_eq!(on16, on4, "a copied rank allocates");
}

/// A REAL `SUM` of a 256 × 256 `(BLOCK, BLOCK)` array on a 4 × 4 grid
/// folds each rank's runs straight off its segment, so it allocates
/// fewer bytes than one per element (per rank, its owned runs and its
/// segment's strides; then the scalar allreduce). While every rank
/// listed its owned elements' offsets first, the same call allocated
/// 530 892 bytes, 8.1 per element, in 230 allocations; it allocates
/// 4 580 bytes now, in 133.
///
/// A scalar allreduce over 256 ranks of the 4-ary fat tree makes fewer
/// than two allocations per rank (its payload, and the tree's plan per
/// call): the combine works in place on the payload and one value comes
/// back. While every combine went through `Vec` copies and every member
/// got a copy of the result, it made 1 566 allocations, 6.1 per rank;
/// it makes 285 now. (Both counts are the same in debug and release.)
#[test]
fn full_reductions_allocate_per_rank() {
    let n = 256;
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[4, 4]));
    let kinds = [DistKind::Block, DistKind::Block];
    let a = DistArray::create(&mut m, "A", ElemType::Real, &[n, n], &kinds);
    a.fill_with(&mut m, |g| Value::Real((g[0] * n + g[1]) as f64));
    let (before, bytes) = (allocations(), bytes_allocated());
    let total = sum(&mut m, &a);
    let (made, bytes) = (allocations() - before, bytes_allocated() - bytes);
    println!("SUM of {n} x {n} on 4 x 4: {bytes} bytes in {made} allocations");
    let elements = (n * n) as u64;
    assert_eq!(total, (elements * (elements - 1) / 2) as f64);
    assert!(
        bytes < elements,
        "SUM: {bytes} bytes allocated for {elements} elements"
    );

    let p = 256;
    let spec = MachineSpec::fat_tree(4, 4).expect("valid fat tree");
    let mut m = Machine::new(spec, ProcGrid::new(&[p]));
    m.set_contention(true);
    let before = allocations();
    let total = allreduce_scalar(&mut m, ReduceOp::Sum, vec![1.0; p as usize]).expect("reduces");
    let made = allocations() - before;
    println!("scalar allreduce over {p} ranks: {made} allocations");
    assert_eq!(total, p as f64);
    assert!(
        made < 2 * p as u64,
        "scalar allreduce: {made} allocations over {p} ranks"
    );
}

/// The 83 allocations a repeat of the irregular kernel makes on 4
/// ranks, and two to spare.
const IRREGULAR_REPEAT_BOUND: f64 = 85.0;
