//! The daemon keeps only what runs. A compile-cache entry of
//! `f90d-serve` is the job's lowered bytecode and its options: the
//! front end's syntax tree and the SPMD IR are dropped before the entry
//! is published, and the daemon's key (the whole request) is exact, so
//! no guard copy of the IR is kept beside the bytecode either.
//!
//! A counting global allocator tracks the bytes live on the heap, per
//! thread: a const-initialised thread-local, so the two tests running
//! beside each other do not perturb each other's count. `dispatch`
//! runs a job on the calling thread, so what a job leaves live is on
//! that thread's count.
//!
//! [`a_cached_job_keeps_little_more_than_its_bytecode`]: after a few
//! warm-up jobs (one per grid, so the machine pool holds its machines
//! before the count starts), [`JOBS`] distinct programs of
//! `f90d_progen`'s `cold` configuration go through
//! `ServerState::dispatch`, and the bytes they leave live are held to
//! [`SLACK`] times the bytes of a clone of each program's bytecode — a
//! clone holds no growth slack, so it is the least a cached job can
//! keep. The jobs run with the schedule cache off: the process-wide
//! schedule cache is bounded by its own cap and is not part of a
//! cached job. Now 63 KB are kept per job, 1.13× the clone.
//!
//! [`lowering_leaves_no_growth_slack`]: with the native tier off, a
//! program fresh from `vmlower::lower_with` holds exactly the bytes of
//! its clone. (With it on, a fresh program holds more: the native
//! kernels' closure state, which a clone shares through `Arc`s.)
//!
//! Both fail at the parent of the change that introduced them. There,
//! each cached job held the analysed source (AST and unit tables), the
//! SPMD IR, a second copy of the IR in the process-wide program cache
//! (there only to guard a hashed key against collisions) and bytecode
//! built by pushes: 405 KB per job, 6.4× the clone of its bytecode.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use f90d_core::{compile, vmlower, Backend};
use f90d_progen::{generate, Config, CONFIGS};
use f90d_serve::client::run_to_json;
use f90d_serve::{RunRequest, ServeConfig, Server};
use serde::json::Json;

/// Distinct programs whose cache entries are weighed.
const JOBS: u64 = 64;

/// What a cached job may keep, over the clone of its bytecode: room
/// for the request key (the whole source), the map's slot and the
/// native kernels' closure state.
const SLACK: f64 = 1.25;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, tracking live bytes on the calling thread.
struct Counting;

fn count(bytes: isize) {
    // A thread being torn down has no counter left; it is not counted.
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

// SAFETY: every method hands its arguments unchanged to `System`, so
// the caller's `GlobalAlloc` obligations are the ones `System` needs;
// the counting itself touches no memory the allocator hands out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as isize);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as isize - layout.size() as isize);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(-(layout.size() as isize));
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> isize {
    LIVE.with(Cell::get)
}

/// Bytes `f` leaves live on this thread, with what it returns.
fn kept<R>(f: impl FnOnce() -> R) -> (R, isize) {
    let before = live();
    let r = f();
    (r, live() - before)
}

fn cold() -> &'static Config {
    CONFIGS.iter().find(|c| c.name == "cold").expect("cold")
}

/// The `cold` program `seed` as a job on its own grid, or on `grid`.
fn job(seed: u64, grid: Option<&[i64]>) -> RunRequest {
    let program = generate(cold(), seed);
    RunRequest {
        source: program.source(),
        grid: grid.map_or(program.grid, <[i64]>::to_vec),
        machine: "ipsc860".to_string(),
        backend: Backend::Vm,
        sched_cache: false,
        threaded: false,
        overlap: false,
    }
}

/// The job's bytecode, lowered outside the daemon, and the bytes it
/// holds fresh from lowering and as a clone.
fn lowered_bytes(req: &RunRequest, native_kernels: bool) -> (isize, isize) {
    let compiled = compile(&req.source, &req.compile_options()).expect("cold program compiles");
    let (program, fresh) = kept(|| vmlower::lower_with(&compiled.spmd, native_kernels));
    let program = program.expect("cold program lowers");
    let (_copy, clone) = kept(|| program.clone());
    (fresh, clone)
}

#[test]
fn a_cached_job_keeps_little_more_than_its_bytecode() {
    let jobs: Vec<RunRequest> = (0..JOBS).map(|seed| job(seed, None)).collect();
    let tight: isize = jobs.iter().map(|j| lowered_bytes(j, true).1).sum();
    let lines: Vec<String> = jobs.iter().map(|j| run_to_json(j).render()).collect();

    let state = Server::bind(ServeConfig::default()).unwrap().state();
    let dispatch = |line: &str| {
        let resp = state.dispatch(line.as_bytes());
        assert_eq!(resp.get("ok"), Some(&Json::Bool(true)), "{}", resp.render());
    };
    for (k, grid) in cold().grids.iter().enumerate() {
        dispatch(&run_to_json(&job(JOBS + k as u64, Some(grid))).render());
    }

    let ((), kept) = kept(|| lines.iter().for_each(|line| dispatch(line)));
    let ratio = kept as f64 / tight as f64;
    eprintln!(
        "{JOBS} cold jobs keep {} KB each; a clone of the bytecode holds {} KB ({ratio:.2}×)",
        kept / JOBS as isize / 1024,
        tight / JOBS as isize / 1024,
    );
    assert!(
        ratio <= SLACK,
        "a cached job keeps {ratio:.2}× the clone of its bytecode, above {SLACK}"
    );
    assert_eq!(
        f90d_core::vm_cache().len(),
        0,
        "the daemon filled the process-wide program cache"
    );
}

#[test]
fn lowering_leaves_no_growth_slack() {
    for seed in 0..8 {
        let (fresh, clone) = lowered_bytes(&job(seed, None), false);
        assert_eq!(
            fresh, clone,
            "program {seed}: fresh from lowering it holds {fresh} B, its clone {clone} B"
        );
    }
}
