//! The native tier's FORALL setup allocates nothing per rank, and this
//! guard keeps it so: a counting global allocator counts the heap
//! allocations (fresh blocks and reallocations) of the calling thread
//! only — a const-initialised thread-local, so tests running beside it
//! on other threads do not perturb the count — over one run of the
//! `(*,BLOCK)` Gaussian on the native tier, divided by the run's active
//! rank-executions (`RunTrace::ranks_active`: one rank running one
//! FORALL execution).
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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use f90d_comm::reduce::ReduceOp;
use f90d_core::{compile, CompileOptions};
use f90d_distrib::{DistKind, ProcGrid};
use f90d_machine::{ElemType, Machine, MachineSpec, Value};
use f90d_progen::workloads::gaussian;
use f90d_runtime::intrinsics::reduce_dim;
use f90d_runtime::intrinsics::reduction::reduced_dad;
use f90d_runtime::DistArray;

/// `(P, allocations per active rank-execution a run may make)`: half of
/// what it made while iteration spaces were listed.
const BOUNDS: [(i64, f64); 3] = [(4, 48.6 / 2.0), (16, 28.5 / 2.0), (64, 21.1 / 2.0)];

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting on the allocating thread.
struct Counting;

fn count() {
    // A thread being torn down has no counter left; it is not counted.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
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
