//! Compilation options and optimization flags (paper §7).

use f90d_machine::ExecMode;

/// Optimization switches — each corresponds to one of the paper's §7
/// communication optimizations and is exercised by an ablation benchmark.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct OptFlags {
    /// §7(2): replace the union of overlapping communications by a single
    /// primitive (duplicate-comm elimination inside one FORALL).
    pub merge_comm: bool,
    /// §7(3): reuse unstructured schedules when the access pattern
    /// repeats (amortizes the inspector).
    pub schedule_reuse: bool,
    /// §5.3.1 ex. 3: fuse `multicast` ∘ `temporary_shift` into
    /// `multicast_shift`.
    pub fuse_multicast_shift: bool,
    /// §7(4): hoist loop-invariant communication out of sequential DO
    /// loops (definition-use based code motion).
    pub hoist_invariant_comm: bool,
    /// §5.1: use `overlap_shift` into ghost areas for compile-time shift
    /// constants (off ⇒ every shift goes through a temporary).
    pub overlap_shift: bool,
    /// §5.1/§7 communication–computation overlap (opt-in): execute
    /// stencil FORALLs whose prelude is pure `overlap_shift` as
    /// ghost-exchange-post → interior compute → complete → boundary
    /// compute, so interior computation hides the wire time of the ghost
    /// exchange. Array results and PRINT output are bit-identical to the
    /// blocking execution; only the virtual clocks (and therefore the
    /// modelled elapsed time) change, which is why this is off by default
    /// — `BENCH_baseline.json` pins the blocking virtual metrics.
    pub comm_compute_overlap: bool,
    /// Phase-level communication planning (PARTI-style aggregation
    /// across statement boundaries, extending paper §7 optimization 1):
    /// group consecutive eligible stencil FORALLs into a *comm phase*
    /// whose ghost exchanges post together, with same-destination
    /// messages coalesced into a single wire transfer — one α charge
    /// per destination pair instead of one per statement. The engine
    /// sequences phases through [`f90d_comm::driver`], whose per-cell
    /// group/fallback counters surface in
    /// [`RunTrace`](crate::RunTrace). Array results
    /// and PRINT output are bit-identical to per-statement execution;
    /// only the virtual clocks (and the modelled elapsed time) change,
    /// which is why this is off by default — `BENCH_baseline.json` pins
    /// the per-statement virtual metrics. `repro --exp commplan` is the
    /// on/off ablation.
    pub comm_plan: bool,
    /// Native kernel tier: at lowering time, compile
    /// straight-line affine REAL FORALL bodies into prebuilt
    /// monomorphized closures (`f90d_vm::native`) that the engine
    /// dispatches to instead of the bytecode element loop. Every virtual
    /// metric, PRINT line, and array bit is identical to the bytecode
    /// tier — only host wall clock improves — so this defaults on;
    /// `repro --no-native` is the escape hatch and `--exp vmcmp` the
    /// two-tier proof.
    pub native_kernels: bool,
}

impl Default for OptFlags {
    fn default() -> Self {
        OptFlags {
            merge_comm: true,
            schedule_reuse: true,
            fuse_multicast_shift: true,
            hoist_invariant_comm: true,
            overlap_shift: true,
            comm_compute_overlap: false,
            comm_plan: false,
            native_kernels: true,
        }
    }
}

impl OptFlags {
    /// Everything off — the unoptimized baseline of the ablations.
    pub fn none() -> Self {
        OptFlags {
            merge_comm: false,
            schedule_reuse: false,
            fuse_multicast_shift: false,
            hoist_invariant_comm: false,
            overlap_shift: false,
            comm_compute_overlap: false,
            comm_plan: false,
            native_kernels: false,
        }
    }
}

/// The execution engine [`crate::Compiled::run_on`] dispatches to.
/// There is one; the enum, [`CompileOptions::backend`] and
/// [`CompileOptions::with_backend`] remain only because `benchmark/`
/// names them and a PR that changes the library may not edit it
/// (ROADMAP item 1(e) deletes all three).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Backend {
    /// Lower once to register bytecode (cached by source/options/grid)
    /// and run it on [`f90d_vm::Engine`].
    #[default]
    Vm,
}

/// Options for one compilation.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Override the `PROCESSORS` grid shape (the benchmarks sweep P
    /// without editing source).
    pub grid_shape: Option<Vec<i64>>,
    /// Optimization flags.
    pub opt: OptFlags,
    /// Execution backend (one value; see [`Backend`]).
    pub backend: Backend,
    /// Consult the process-wide cross-run schedule cache
    /// (`f90d_comm::sched_cache`) when executing. Off is the `repro
    /// --no-sched-cache` escape hatch: every run rebuilds its schedules.
    /// Virtual metrics are identical either way — only host wall clock
    /// changes — and [`OptFlags::schedule_reuse`] (the per-run §7(3)
    /// optimization, which *does* shape virtual time) stays independent.
    pub sched_cache: bool,
    /// Local-phase execution mode (one value; see [`ExecMode`]). No run
    /// reads it: the field and [`CompileOptions::with_exec`] remain only
    /// because `benchmark/` names them (ROADMAP item 1(e) deletes both).
    pub exec_mode: Option<ExecMode>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            grid_shape: None,
            opt: OptFlags::default(),
            backend: Backend::default(),
            sched_cache: true,
            exec_mode: None,
        }
    }
}

impl CompileOptions {
    /// Default options on an explicit grid.
    pub fn on_grid(shape: &[i64]) -> Self {
        CompileOptions {
            grid_shape: Some(shape.to_vec()),
            ..CompileOptions::default()
        }
    }

    /// Same options with the given backend (one value; see [`Backend`]).
    pub fn with_backend(mut self, backend: Backend) -> Self {
        self.backend = backend;
        self
    }

    /// Same options with the given execution mode (one value; see
    /// [`ExecMode`]).
    pub fn with_exec(mut self, mode: ExecMode) -> Self {
        self.exec_mode = Some(mode);
        self
    }
}
