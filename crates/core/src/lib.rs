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
//! ([`Compiled::run_on`], [`Compiled::engine`]); what a run needs and
//! nothing more is an [`Executable`]. Correctness is checked against the
//! sequential [`mod@reference`] interpreter.
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
    /// The analyzed + normalized front-end form. No run reads it: it is
    /// here for the [`mod@reference`] interpreter and for tests, and
    /// [`Compiled::into_executable`] drops it.
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
    /// Bytecode program-cache outcome of a [`Compiled::run_on_traced`]:
    /// `Some(true)` hit, `Some(false)` this run performed the lowering.
    /// `None` from [`Executable::run_on_traced`], whose caller holds the
    /// bytecode already and knows where it came from.
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
    /// Summed over the FORALL executions: the ranks the
    /// partitioning visited — only those whose grid coordinates can own
    /// an iteration under the evaluated bounds and owner filter; `P` per
    /// execution would mean idle ranks are not masked. A step a `DO`
    /// loop's plan instantiated visits exactly its active ranks. Exact;
    /// explains host time only.
    pub ranks_visited: u64,
    /// Over the same executions, the ranks that came out with
    /// iterations: at most `ranks_visited`, equal when the window of
    /// ranks that can own an iteration is tight.
    pub ranks_active: u64,
    /// Unstructured reads and writes (gathers, scatters) whose
    /// execution took the schedule of the statement's previous
    /// execution in this run — the same subscripts, located against the
    /// same layout — without locating a request (`schedule_reuse` on).
    /// Exact; explains host time and moves no virtual metric.
    pub inspectors_reused: u64,
    /// Native-tier rank-phases whose writes were copied from the first
    /// active rank's instead of computed: every active rank had the
    /// same iteration space and single in-place write under a body that
    /// reads no array. Exact; each rank is still charged its own ops.
    pub ranks_copied: u64,
    /// Rank bindings of native FORALL executions inside a `DO` that the
    /// statement's plan of the loop instantiated instead of proving them
    /// again: each active rank at each step of one of its pieces of the
    /// loop's range but the first. Exact; explains host time only.
    pub binds_instantiated: u64,
    /// Multicast broadcasts that ran along their fiber's kept plan — the
    /// members and each member's slot of the temporary — instead of
    /// planning the fiber again: every broadcast of a fiber but its
    /// first in the run. The owner's part of the plan (its tree and its
    /// slab's offsets) is kept beside it and taken again at the owner's
    /// next step. Exact; explains host time only.
    pub multicasts_replayed: u64,
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
    pub fn counters(&self) -> [(&'static str, u64); 15] {
        [
            ("sched_hits", self.sched_hits),
            ("sched_misses", self.sched_misses),
            ("native_kernels.matched", self.native_matched),
            ("native_kernels.fallback", self.native_fallback),
            ("native_kernels.staged", self.native_staged),
            ("plan_reuse.ghost_plans_built", self.ghost_plans_built),
            ("plan_reuse.ghost_plans_reused", self.ghost_plans_reused),
            ("plan_reuse.ranks_visited", self.ranks_visited),
            ("plan_reuse.ranks_active", self.ranks_active),
            ("plan_reuse.inspectors_reused", self.inspectors_reused),
            ("plan_reuse.ranks_copied", self.ranks_copied),
            ("plan_reuse.binds_instantiated", self.binds_instantiated),
            ("plan_reuse.multicasts_replayed", self.multicasts_replayed),
            ("comm_plan.groups", self.comm_groups),
            ("comm_plan.fallbacks", self.comm_fallbacks),
        ]
    }
}

/// What runs: a lowered node program and the options that configure
/// its engine. It is the one place an [`Engine`] is configured from
/// [`CompileOptions`]; [`Compiled`]'s run methods go through it.
#[derive(Debug, Clone)]
pub struct Executable {
    /// The lowered bytecode program.
    pub program: Arc<VmProgram>,
    /// The options it was compiled with.
    pub options: CompileOptions,
}

impl Executable {
    /// Execute on a machine (which must have the compiled grid shape),
    /// arrays zero-initialized, and report the run's cache outcomes and
    /// tier counts. [`RunTrace::program_cache_hit`] is `None`: the
    /// caller knows where the bytecode came from.
    pub fn run_on_traced(&self, m: &mut Machine) -> Result<(ExecReport, RunTrace), ExecError> {
        let mut eng = self.engine(m)?;
        let rep = eng.run(m)?;
        let (native_matched, native_fallback) = eng.native_counts();
        let (comm_groups, comm_fallbacks) = eng.comm.counts();
        let (ghost_plans_built, ghost_plans_reused) = eng.sched.shift_plans();
        let (ranks_visited, ranks_active) = eng.ranks_counts();
        Ok((
            rep,
            RunTrace {
                program_cache_hit: None,
                sched_hits: eng.sched.hits(),
                sched_misses: eng.sched.misses(),
                native_matched,
                native_fallback,
                native_staged: eng.native_staged(),
                ghost_plans_built,
                ghost_plans_reused,
                ranks_visited,
                ranks_active,
                inspectors_reused: eng.sched.inspectors_reused(),
                ranks_copied: eng.ranks_copied(),
                binds_instantiated: eng.binds_instantiated(),
                multicasts_replayed: eng.sched.multicasts_replayed(),
                comm_groups,
                comm_fallbacks,
            },
        ))
    }

    /// An engine over the program, configured from
    /// [`Executable::options`], with every array allocated on `m`: seed
    /// arrays, [`Engine::run`], gather arrays and read scalars. An array
    /// the machine cannot hold ([`Engine::try_new`]) is an error.
    pub fn engine(&self, m: &mut Machine) -> Result<Engine, ExecError> {
        self.allocated(m, false)
    }

    /// [`Executable::engine`] that keeps the array segments already on
    /// `m` instead of reallocating them.
    pub fn engine_preserving(&self, m: &mut Machine) -> Result<Engine, ExecError> {
        self.allocated(m, true)
    }

    fn allocated(&self, m: &mut Machine, keep_existing: bool) -> Result<Engine, ExecError> {
        let mut eng = Engine::try_new(Arc::clone(&self.program), m, keep_existing)?;
        eng.sched.reuse = self.options.opt.schedule_reuse;
        eng.sched.use_global = self.options.sched_cache;
        eng.overlap = self.options.opt.comm_compute_overlap;
        eng.plan = self.options.opt.comm_plan;
        Ok(eng)
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
        let (exe, hit) = self.executable_traced()?;
        let (rep, trace) = exe.run_on_traced(m)?;
        Ok((
            rep,
            RunTrace {
                program_cache_hit: Some(hit),
                ..trace
            },
        ))
    }

    /// An engine over this program's (cached) bytecode, configured from
    /// [`Compiled::options`], with every array allocated on `m`: seed
    /// arrays, [`Engine::run`], gather arrays and read scalars.
    pub fn engine(&self, m: &mut Machine) -> Result<Engine, ExecError> {
        self.executable_traced()?.0.engine(m)
    }

    /// [`Compiled::engine`] that keeps the array segments already on `m`
    /// instead of reallocating them: run a program fragment over state an
    /// earlier fragment produced, or gather arrays after
    /// [`Compiled::run_on`].
    pub fn engine_preserving(&self, m: &mut Machine) -> Result<Engine, ExecError> {
        self.executable_traced()?.0.engine_preserving(m)
    }

    /// The [`Executable`] over this program's cached bytecode, and
    /// whether the bytecode was a cache hit.
    fn executable_traced(&self) -> Result<(Executable, bool), ExecError> {
        let (program, hit) = self.vm_program_traced().map_err(ExecError)?;
        let options = self.options.clone();
        Ok((Executable { program, options }, hit))
    }

    /// Lower this program into an [`Executable`] of its own, dropping
    /// the syntax tree and the node program. It bypasses [`vm_cache`]:
    /// it is for a caller whose own cache key is exact (the daemon's
    /// holds the whole request), where the collision guard of the
    /// hashed [`ProgramKey`] would only keep a second copy of the node
    /// program.
    pub fn into_executable(self) -> Result<Executable, String> {
        let program = Arc::new(self.lower()?);
        Ok(Executable {
            program,
            options: self.options,
        })
    }

    fn lower(&self) -> Result<VmProgram, String> {
        vmlower::lower_with(&self.spmd, self.options.opt.native_kernels)
    }

    /// The lowered bytecode program, via the global cache keyed by
    /// [`ProgramKey`]: repeated runs skip lowering.
    pub fn vm_program(&self) -> Result<Arc<VmProgram>, String> {
        self.vm_program_traced().map(|(p, _)| p)
    }

    /// [`Compiled::vm_program`] that also reports whether the lookup was
    /// a cache hit.
    pub fn vm_program_traced(&self) -> Result<(Arc<VmProgram>, bool), String> {
        let key = ProgramKey {
            source_hash: self.source_hash,
            opt: self.options.opt.clone(),
            grid: self.spmd.grid_shape.clone(),
        };
        let (entry, hit) = vm_cache().get_or_try_build(&key, || {
            Ok::<_, String>(LoweredProgram {
                spmd: self.spmd.clone(),
                program: Arc::new(self.lower()?),
            })
        })?;
        if entry.spmd == self.spmd {
            Ok((Arc::clone(&entry.program), hit))
        } else {
            // `source_hash` is a hash (and a public field): another
            // program owns this key. Equality decides — lower privately.
            Ok((Arc::new(self.lower()?), false))
        }
    }

    /// Render the generated node program as Fortran 77 + MP text.
    pub fn fortran77(&self) -> String {
        fortran_out::to_fortran77(&self.spmd)
    }
}

/// Programs kept in [`vm_cache`], the process-wide cache library
/// callers fill through [`Compiled`]. (The daemon keeps its own
/// [`Executable`]s and does not fill it.)
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
    assert_send_sync::<Executable>();
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
