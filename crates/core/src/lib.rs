//! # f90d-core — the Fortran 90D/HPF compiler
//!
//! The paper's primary contribution (its Figure 1 pipeline):
//!
//! ```text
//! Fortran 90D/HPF source
//!   → lexer & parser                 (f90d-frontend)
//!   → normalization to FORALL form   (f90d-frontend::normalize)
//!   → data partitioning              (codegen → f90d-distrib DADs)
//!   → computation partitioning       (codegen, paper §4: owner computes,
//!                                     set_BOUND, non-canonical fallbacks)
//!   → communication detection        (detect, Algorithm 1 + Tables 1/2)
//!   → communication insertion        (codegen → collective calls)
//!   → optimization                   (optimize, paper §7)
//!   → SPMD node program              (ir; displayable as Fortran 77+MP
//!                                     via fortran_out)
//! ```
//!
//! Execution is loosely synchronous over a simulated MIMD machine: the
//! node program is lowered once to bytecode ([`vmlower`]) and run by
//! [`f90d_vm::Engine`] on a [`f90d_machine::Machine`]
//! ([`Compiled::run_on`], [`Compiled::engine`]); correctness is checked
//! against the sequential [`mod@reference`] interpreter.
//!
//! ## Quick example
//!
//! ```
//! use f90d_core::{compile, CompileOptions};
//! use f90d_machine::{Machine, MachineSpec};
//! use f90d_distrib::ProcGrid;
//!
//! let src = "
//! PROGRAM JACOBI1
//! INTEGER, PARAMETER :: N = 16
//! REAL A(N), B(N)
//! C$ PROCESSORS P(4)
//! C$ TEMPLATE T(N)
//! C$ ALIGN A(I) WITH T(I)
//! C$ ALIGN B(I) WITH T(I)
//! C$ DISTRIBUTE T(BLOCK)
//! FORALL (I=1:N) B(I) = 1.0
//! FORALL (I=2:N-1) A(I) = 0.5*(B(I-1) + B(I+1))
//! END
//! ";
//! let compiled = compile(src, &CompileOptions::default()).unwrap();
//! let mut machine = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[4]));
//! let report = compiled.run_on(&mut machine).unwrap();
//! assert!(report.elapsed > 0.0);
//! ```

#![warn(missing_docs)]

pub mod codegen;
pub mod detect;
pub mod fortran_out;
pub mod ir;
pub mod optimize;
pub mod options;
pub mod reference;
pub mod vmlower;

use std::sync::{Arc, OnceLock};

use f90d_frontend::sema::AnalyzedProgram;
use f90d_machine::{Machine, OnceMap};
use f90d_vm::cache::fnv1a;
use f90d_vm::{Engine, VmProgram};

/// The result of one execution, and a runtime fault in the compiled
/// program.
pub use f90d_vm::{RunReport as ExecReport, VmError as ExecError};
pub use options::{Backend, CompileOptions, OptFlags};

/// A compiled program: the SPMD IR plus the analyzed source it came from.
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The SPMD node program.
    pub spmd: ir::SProgram,
    /// The analyzed + normalized front-end form (kept for the reference
    /// interpreter and for diagnostics).
    pub analyzed: AnalyzedProgram,
    /// The options it was compiled with.
    pub options: CompileOptions,
    /// Hash of the source text — with the options and grid it keys the
    /// bytecode program cache.
    pub source_hash: u64,
}

/// Per-run cache outcomes of one [`Compiled::run_on_traced`] call. The
/// parallel repro harness records this per matrix cell.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunTrace {
    /// Bytecode program-cache outcome: `Some(true)` hit, `Some(false)`
    /// this run performed the lowering. (`None` is what a default
    /// `RunTrace` holds; no run reports it.)
    pub program_cache_hit: Option<bool>,
    /// Cross-run schedule-cache hits (first-per-run patterns found
    /// already built by an earlier run).
    pub sched_hits: u64,
    /// Cross-run schedule-cache misses (inspector builds performed).
    pub sched_misses: u64,
    /// FORALL executions dispatched to a native-tier kernel.
    /// Informational — the tiers are bit-identical on every virtual
    /// metric.
    pub native_matched: u64,
    /// FORALL executions that ran the bytecode element loop instead: no
    /// kernel was selected at lowering, or a dispatch precondition
    /// failed. A split-phase execution under `comm_compute_overlap`
    /// counts on whichever side its blocking twin would.
    pub native_fallback: u64,
    /// Of the `native_matched`, the executions in which at least one
    /// rank staged its owned writes (committed after the phase) because
    /// the native tier's alias rule could not prove they may land in
    /// place. Exact; explains host time, moves no virtual metric.
    pub native_staged: u64,
    /// Structured shift plans (ghost exchanges, temporary shifts) this
    /// run planned: one per distinct `(layout, dim, amount)` — arrays of
    /// one layout share a plan. Exact; like the two counts below it
    /// explains host time and moves no virtual metric.
    pub ghost_plans_built: u64,
    /// Structured shifts this run replayed from a plan it had kept.
    pub ghost_plans_reused: u64,
    /// FORALL executions that reused the iteration lists of the
    /// statement's previous execution in the same `DO` (same evaluated
    /// bounds, same layouts) instead of partitioning again.
    pub dispatch_reused: u64,
    /// Comm phases the driver posted as one batched, coalesced ghost
    /// exchange (`comm_plan` on). Informational — the driver's fallback
    /// contract keeps results bit-identical.
    pub comm_groups: u64,
    /// Comm phases the driver refused (planning failed — e.g. mixed
    /// element types) and re-ran statement-by-statement instead.
    pub comm_fallbacks: u64,
}

impl RunTrace {
    /// Every counter of the trace as `(name, value)`, under the names a
    /// report records them: a dotted name is `group.counter`
    /// (`results.json` nests the groups). A counter added to the trace
    /// is added here, and every reader — `results.json`, the `repro`
    /// stderr totals, `--exp vmcmp` — carries it.
    pub fn counters(&self) -> [(&'static str, u64); 10] {
        [
            ("sched_hits", self.sched_hits),
            ("sched_misses", self.sched_misses),
            ("native_kernels.matched", self.native_matched),
            ("native_kernels.fallback", self.native_fallback),
            ("native_kernels.staged", self.native_staged),
            ("plan_reuse.ghost_plans_built", self.ghost_plans_built),
            ("plan_reuse.ghost_plans_reused", self.ghost_plans_reused),
            ("plan_reuse.dispatch_reused", self.dispatch_reused),
            ("comm_plan.groups", self.comm_groups),
            ("comm_plan.fallbacks", self.comm_fallbacks),
        ]
    }
}

impl Compiled {
    /// Execute on a machine (which must have the compiled grid shape).
    /// Arrays start zero-initialized; use [`Compiled::engine`] directly
    /// to seed inputs first or to inspect arrays and scalars afterwards.
    pub fn run_on(&self, m: &mut Machine) -> Result<ExecReport, ExecError> {
        self.run_on_traced(m).map(|(rep, _)| rep)
    }

    /// [`Compiled::run_on`] that also reports the run's cache outcomes
    /// and tier counts.
    pub fn run_on_traced(&self, m: &mut Machine) -> Result<(ExecReport, RunTrace), ExecError> {
        let (mut eng, hit) = self.engine_traced(m, false)?;
        let rep = eng.run(m)?;
        let (native_matched, native_fallback) = eng.native_counts();
        let (comm_groups, comm_fallbacks) = eng.comm.counts();
        let (ghost_plans_built, ghost_plans_reused) = eng.sched.shift_plans();
        Ok((
            rep,
            RunTrace {
                program_cache_hit: Some(hit),
                sched_hits: eng.sched.hits(),
                sched_misses: eng.sched.misses(),
                native_matched,
                native_fallback,
                native_staged: eng.native_staged(),
                ghost_plans_built,
                ghost_plans_reused,
                dispatch_reused: eng.dispatch_reused(),
                comm_groups,
                comm_fallbacks,
            },
        ))
    }

    /// An engine over this program's (cached) bytecode, configured from
    /// [`Compiled::options`], with every array allocated on `m`: seed
    /// arrays, [`Engine::run`], gather arrays and read scalars.
    pub fn engine(&self, m: &mut Machine) -> Result<Engine, ExecError> {
        self.engine_traced(m, false).map(|(eng, _)| eng)
    }

    /// [`Compiled::engine`] that keeps the array segments already on `m`
    /// instead of reallocating them: run a program fragment over state an
    /// earlier fragment produced, or gather arrays after
    /// [`Compiled::run_on`].
    pub fn engine_preserving(&self, m: &mut Machine) -> Result<Engine, ExecError> {
        self.engine_traced(m, true).map(|(eng, _)| eng)
    }

    /// The configured engine and whether its bytecode was a cache hit.
    fn engine_traced(&self, m: &mut Machine, preserve: bool) -> Result<(Engine, bool), ExecError> {
        let (prog, hit) = self.vm_program_traced().map_err(ExecError)?;
        let mut eng = if preserve {
            Engine::new_preserving(prog, m)
        } else {
            Engine::new(prog, m)
        };
        eng.sched.reuse = self.options.opt.schedule_reuse;
        eng.sched.use_global = self.options.sched_cache;
        eng.overlap = self.options.opt.comm_compute_overlap;
        eng.plan = self.options.opt.comm_plan;
        Ok((eng, hit))
    }

    /// The lowered bytecode program, via the global cache keyed by
    /// [`ProgramKey`]: repeated runs skip lowering.
    pub fn vm_program(&self) -> Result<Arc<VmProgram>, String> {
        self.vm_program_traced().map(|(p, _)| p)
    }

    /// [`Compiled::vm_program`] that also reports whether the lookup was
    /// a cache hit.
    pub fn vm_program_traced(&self) -> Result<(Arc<VmProgram>, bool), String> {
        let lower = || vmlower::lower_with(&self.spmd, self.options.opt.native_kernels);
        let key = ProgramKey {
            source_hash: self.source_hash,
            opt: self.options.opt.clone(),
            grid: self.spmd.grid_shape.clone(),
        };
        let (entry, hit) = vm_cache().get_or_try_build(&key, || {
            Ok::<_, String>(LoweredProgram {
                spmd: self.spmd.clone(),
                program: Arc::new(lower()?),
            })
        })?;
        if entry.spmd == self.spmd {
            Ok((Arc::clone(&entry.program), hit))
        } else {
            // `source_hash` is a hash (and a public field): another
            // program owns this key. Equality decides — lower privately.
            Ok((Arc::new(lower()?), false))
        }
    }

    /// Render the generated node program as Fortran 77 + MP text.
    pub fn fortran77(&self) -> String {
        fortran_out::to_fortran77(&self.spmd)
    }
}

/// Programs kept in [`vm_cache`] — the bound of the daemon's compile
/// cache in front of it.
pub const PROGRAM_CACHE_CAP: usize = 512;

/// Identity of a lowering in [`vm_cache`]: everything besides the node
/// program itself that `vmlower` and the engine setup depend on. The
/// whole [`OptFlags`] is a field, so a new flag extends the key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ProgramKey {
    source_hash: u64,
    opt: OptFlags,
    grid: Vec<i64>,
}

/// A [`vm_cache`] entry: the bytecode plus the node program it was
/// lowered from, which a hit is checked against — `source_hash` can
/// collide, and a colliding program must not run this one's bytecode.
#[derive(Debug)]
pub struct LoweredProgram {
    spmd: ir::SProgram,
    program: Arc<VmProgram>,
}

/// The process-wide bytecode program cache.
pub fn vm_cache() -> &'static OnceMap<ProgramKey, LoweredProgram> {
    static CACHE: OnceLock<OnceMap<ProgramKey, LoweredProgram>> = OnceLock::new();
    CACHE.get_or_init(|| OnceMap::new(PROGRAM_CACHE_CAP))
}

// The parallel repro harness compiles once and runs the same `Compiled`
// from many workers sharing `vm_cache()`; losing either bound (for
// example by putting an `Rc` in the IR) is a compile error here, not a
// runtime surprise there.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Compiled>();
    assert_send_sync::<OnceMap<ProgramKey, LoweredProgram>>();
};

/// Compile Fortran 90D/HPF source text.
pub fn compile(source: &str, opts: &CompileOptions) -> Result<Compiled, String> {
    let analyzed = f90d_frontend::compile_front(source)?;
    let mut spmd = codegen::lower(&analyzed, opts).map_err(|e| e.to_string())?;
    optimize::optimize(&mut spmd, &opts.opt);
    Ok(Compiled {
        spmd,
        analyzed,
        options: opts.clone(),
        source_hash: fnv1a(source.as_bytes()),
    })
}
