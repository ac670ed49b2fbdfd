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

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use f90d_core::{compile, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{Machine, MachineSpec};
use f90d_progen::workloads::gaussian;

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
