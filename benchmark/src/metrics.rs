//! The benchmark's metrics: one table that `BENCHMARK.json`, the result
//! lines, `--compare` and the README all follow.

use std::sync::OnceLock;

use serde::json::Json;

/// How `--compare` treats a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Host time or memory: two runs agree when within the bound.
    Timed,
    /// A count or a modelled time: two runs of one seed agree exactly.
    Exact,
    /// Reported, never compared (a share of host times, or a number of
    /// ops that follows the speed of the host).
    Info,
}

#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    /// `true` when lower is better.
    pub lower: bool,
    pub class: Class,
    /// End-to-end: the regression bound. Per-layer: unused (0).
    pub bound: f64,
    /// What it is and how it is taken.
    pub how: &'static str,
    /// Which end-to-end metric @ workload it should move.
    pub moves: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower: bool,
    class: Class,
    bound: f64,
    how: &'static str,
) -> Def {
    Def {
        name,
        unit,
        lower,
        class,
        bound,
        how,
        moves: "",
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    lower: bool,
    class: Class,
    how: &'static str,
    moves: &'static str,
) -> Def {
    Def {
        name,
        unit,
        lower,
        class,
        bound: 0.0,
        how,
        moves,
    }
}

use Class::{Exact, Info, Timed};

/// The end-to-end metrics, the same on every workload.
///
/// The builder's contract, which the driver enforces, decides what can
/// be one: the benchmark is refused when, over ten runs of a workload
/// with ten seeds, a metric's first-to-third-quartile distance exceeds
/// its bound (25 % of the median at most), and the contract asks for a
/// third of that. The issue named `job_ms_p50`, `job_ms_p90` and
/// `jobs_per_s` with 10 % bounds. The reference host is a shared VM
/// whose speed wanders by tens of percent over seconds to minutes, with
/// no steal time to show for it: a Python loop that touches nothing of
/// this repository moved its per-12 s median by 14.5 % (same measure,
/// 40 windows), its 10th percentile by 9.3 % and its minimum by 5.4 %.
/// Over ten seeds `job_ms_p50` spread by 13-22 % on the six workloads,
/// `jobs_per_s` by 14-24 %, and `job_ms_p90` by 8-19 % on the daemon
/// workloads even on a quiet day. None of the three can be an
/// end-to-end metric under the contract, at 10 % or at any bound it
/// allows, so the rule the issue gives for `job_ms_p90` is applied to
/// all three: they keep their names, are reported per layer (and
/// printed by the untraced run), and `--compare` reports a difference
/// beyond the issue's 10 % as unresolved. The timing a claim is checked
/// against is the 10th percentile: interference only ever adds time, and
/// every run still holds undisturbed jobs.
pub const END_TO_END: [Def; 4] = [
    e2e("setup_s", "s", true, Timed, 0.25,
        "process start to first timed op: source generation, reference-interpreter verification, daemon spawn, warm-up ops (no cargo build); median of 3 fresh processes. The contract asks for its largest bound"),
    e2e("job_ms_p10", "ms", true, Timed, 0.25,
        "10th percentile of the wall time of one job, source text to checked result line: the job undisturbed by the host's other tenants (at least 120 ops, so at least 12 samples below it)"),
    e2e("virt_s", "modelled_s", true, Exact, 0.03,
        "the paper's result: modelled iPSC/860-class seconds of one job, median over the exact window. Repeats bit for bit for one seed, and --compare insists on that; the bound, which the contract wants above the ten-seed spread, only covers how far the seeded inputs of serve-cold move it from seed to seed"),
    e2e("peak_rss_mb", "MB", true, Timed, 0.10,
        "VmHWM of the workload's process when the exact window closes"),
];

/// Communication primitives `MachineStats` can name; one counter each.
pub const PRIMITIVES: [&str; 17] = [
    "broadcast_elem",
    "comm_phase",
    "concatenation",
    "gather",
    "multicast",
    "multicast_shift",
    "overlap_shift",
    "postcomp_write",
    "precomp_read",
    "reduce",
    "redistribute",
    "scatter",
    "schedule1",
    "schedule2",
    "schedule3",
    "temporary_shift",
    "transfer",
];

const SPAN: &str = "median span of the staged replay";
const COUNT: &str = "exact count per job, mean over the exact window";

/// The per-layer metrics of the traced run (layer = crate name, the
/// prefix of the metric name). `comm.calls.<primitive>` are appended by
/// [`per_layer`].
const PER_LAYER: &[Def] = &[
    layer("frontend.lex_us", "us", true, Timed, SPAN, "job_ms_p10 @ serve-cold"),
    layer("frontend.parse_us", "us", true, Timed, SPAN, "job_ms_p10 @ serve-cold"),
    layer("frontend.sema_us", "us", true, Timed, SPAN, "job_ms_p10 @ serve-cold"),
    layer("frontend.normalize_us", "us", true, Timed, SPAN, "job_ms_p10 @ serve-cold"),
    layer("frontend.tokens", "count", true, Exact, COUNT, "job_ms_p10 @ serve-cold"),
    layer("distrib.set_bound_ns", "ns", true, Timed,
        "probe: set_bound over every rank x dim of the workload's arrays, per call",
        "job_ms_p10 @ serve-warm (bind) - expected small"),
    layer("core.codegen_us", "us", true, Timed, SPAN, "job_ms_p10 @ serve-cold"),
    layer("core.optimize_us", "us", true, Timed, SPAN, "job_ms_p10 @ serve-cold"),
    layer("core.vmlower_us", "us", true, Timed,
        "probe: vmlower::lower_with (incl. native::select) on the job's SPMD program",
        "job_ms_p10 @ serve-cold"),
    layer("core.ir_foralls", "count", true, Exact, COUNT, "job_ms_p10 @ serve-cold"),
    layer("core.comm_calls", "count", true, Exact,
        "comm_census total under default OptFlags", "virt_s @ stencil-ghost, gauss-ipsc16"),
    layer("core.comm_calls_unopt", "count", true, Exact,
        "comm_census total under OptFlags::none(); minus core.comm_calls = how often section 7 passes applied",
        "virt_s @ stencil-ghost, gauss-ipsc16"),
    layer("core.f77_bytes", "B", true, Exact, "length of Compiled::fortran77()", "none (size of generated code)"),
    layer("vm.bytecode_ops", "count", true, Exact, "VmProgram::op_count", "job_ms_p10 @ serve-cold"),
    layer("vm.bind_us", "us", true, Timed, "median span of Engine::new", "job_ms_p10 @ serve-warm"),
    layer("vm.run_ms", "ms", true, Timed, "median span of Engine::run", "job_ms_p10 @ gauss-ipsc16, stencil-ghost"),
    layer("vm.bytecode_run_ms", "ms", true, Timed,
        "Engine::run of the same job lowered with native_kernels=false", "none (what the native tier saves)"),
    layer("vm.native_matched", "count", false, Exact, COUNT, "job_ms_p10 @ gauss-ipsc16, stencil-ghost"),
    layer("vm.native_fallback", "count", true, Exact, COUNT, "job_ms_p10 @ irregular-gather"),
    layer("vm.ns_per_elem_update", "ns", true, Timed,
        "computed: vm.run_ms / element updates worked out from the program's extents",
        "job_ms_p10 @ gauss-ipsc16, stencil-ghost"),
    layer("vm.program_cache_hits", "count", false, Exact, "process-wide counter, difference over the exact window",
        "job_ms_p10 @ serve-warm"),
    layer("vm.program_cache_misses", "count", true, Exact, "process-wide counter, difference over the exact window",
        "job_ms_p10, peak_rss_mb @ serve-cold"),
    layer("vm.program_cache_len", "count", true, Exact, "entries when the exact window closes",
        "peak_rss_mb @ serve-cold"),
    layer("comm.messages", "count", true, Exact, COUNT, "virt_s, job_ms_p10 @ gauss-fattree256"),
    layer("comm.bytes", "B", true, Exact, COUNT, "virt_s @ every library workload"),
    layer("comm.sched_hits", "count", false, Exact, COUNT, "job_ms_p10 @ serve-warm"),
    layer("comm.sched_misses", "count", true, Exact, COUNT, "job_ms_p10 @ irregular-gather"),
    layer("comm.sched_cache_len", "count", true, Exact, "entries when the exact window closes",
        "peak_rss_mb @ irregular-gather"),
    layer("comm.inspector_build_us", "us", true, Timed,
        "probe: build_schedule on the request pattern of the job's gather", "job_ms_p10 @ irregular-gather"),
    layer("comm.groups", "count", false, Exact, COUNT, "virt_s @ stencil-ghost once comm_plan defaults on"),
    layer("comm.fallbacks", "count", true, Exact, COUNT, "virt_s @ stencil-ghost once comm_plan defaults on"),
    layer("machine.new_us", "us", true, Timed, "median span of Machine::new", "job_ms_p10 @ gauss-fattree256"),
    layer("machine.pool_cycle_us", "us", true, Timed,
        "probe: MachinePool::check_in + check_out_traced of a machine that has just run the job",
        "job_ms_p10 @ serve-warm"),
    layer("machine.route_ns", "ns", true, Timed,
        "probe: Topology::route over seeded rank pairs of the workload's topology", "job_ms_p10 @ gauss-fattree256"),
    layer("machine.link_transfer_ns", "ns", true, Timed,
        "probe: LinkClocks::transfer over the same routes", "job_ms_p10 @ gauss-fattree256"),
    layer("machine.post_complete_ns", "ns", true, Timed,
        "probe: post_send + post_recv + complete of a 64-element message between the same pairs",
        "job_ms_p10 @ gauss-fattree256"),
    layer("machine.links_used", "count", true, Exact, "directed links that carried traffic (contention on only)",
        "virt_s @ gauss-fattree256"),
    layer("machine.host_us_per_message", "us", true, Timed, "computed: vm.run_ms / comm.messages",
        "job_ms_p10 @ gauss-fattree256"),
    layer("machine.virt_compute_s", "modelled_s", true, Exact,
        "by differencing, non-additive: the job re-run with alpha=beta=tau=copy=0", "virt_s @ every library workload"),
    layer("machine.virt_comm_s", "modelled_s", true, Exact, "by differencing: virt_s - virt_compute_s",
        "virt_s @ every library workload"),
    layer("machine.virt_alpha_s", "modelled_s", true, Exact, "by differencing: virt_s - (re-run with alpha=0)",
        "virt_s @ every library workload"),
    layer("machine.virt_beta_s", "modelled_s", true, Exact, "by differencing: virt_s - (re-run with beta=0)",
        "virt_s @ every library workload"),
    layer("machine.virt_tau_s", "modelled_s", true, Exact, "by differencing: virt_s - (re-run with tau=0)",
        "virt_s @ every library workload"),
    layer("machine.virt_contention_s", "modelled_s", true, Exact,
        "by differencing: contention on - contention off", "virt_s @ gauss-fattree256"),
    layer("runtime.cshift_us", "us", true, Timed, "probe: CSHIFT of a 256x256 REAL array on 4x4",
        "none: no workload's critical path runs it"),
    layer("runtime.sum_us", "us", true, Timed, "probe: SUM of the same array", "none (only the checksum SUM)"),
    layer("runtime.transpose_us", "us", true, Timed, "probe: TRANSPOSE of the same array",
        "none: no workload's critical path runs it"),
    layer("runtime.matmul_us", "us", true, Timed, "probe: MATMUL of two such arrays",
        "none: no workload's critical path runs it"),
    layer("serve.parse_us", "us", true, Timed, "probe: protocol::parse_request on the job's request line",
        "job_ms_p10 @ serve-warm"),
    layer("serve.render_us", "us", true, Timed, "probe: Json::render of the job's response", "job_ms_p10 @ serve-warm"),
    layer("serve.dispatch_us", "us", true, Timed,
        "in-process ServerState::dispatch of the job's request line, no socket", "job_ms_p10 @ serve-warm, serve-cold"),
    layer("serve.exec_us", "us", true, Timed, "response telemetry exec_ms, median", "job_ms_p10 @ serve-warm"),
    layer("serve.lease_wait_us", "us", true, Timed, "response telemetry lease_wait_ms, median", "job_ms_p10 @ serve-warm"),
    layer("serve.queue_wait_us", "us", true, Timed, "response telemetry queue_wait_ms, median", "job_ms_p10 @ serve-warm"),
    layer("serve.self_us", "us", true, Timed,
        "computed from medians: dispatch - (exec + lease + queue) - compile of a sibling source on a compile-cache miss",
        "job_ms_p10 @ serve-warm"),
    layer("serve.wire_us", "us", true, Timed, "computed: median TCP job taken in turn with the dispatches - serve.dispatch_us",
        "job_ms_p10 @ serve-warm"),
    layer("serve.compile_cache_hits", "count", false, Exact, "stats counter, difference over the exact window",
        "job_ms_p10 @ serve-warm"),
    layer("serve.compile_cache_misses", "count", true, Exact, "stats counter, difference over the exact window",
        "job_ms_p10 @ serve-cold"),
    layer("serve.pool_created", "count", true, Exact, "stats counter, difference over the exact window",
        "job_ms_p10 @ serve-warm"),
    layer("serve.pool_reused", "count", false, Exact, "stats counter, difference over the exact window",
        "job_ms_p10 @ serve-warm"),
    layer("serve.dedup_joins", "count", false, Exact, "stats counter, difference over the exact window",
        "none with one client"),
    layer("serve.rejected", "count", true, Exact, "stats counters 429 + 503, difference over the exact window",
        "failed @ serve-warm, serve-cold"),
    layer("serve.request_bytes", "B", true, Exact, COUNT, "serve.parse_us"),
    layer("serve.response_bytes", "B", true, Info, "mean over the exact window (timings inside vary in length)",
        "serve.render_us"),
    layer("job_ms_p50", "ms", true, Timed,
        "median job time of the untraced phase (trace.untraced_ops samples; the untraced run prints its own, over at least 120)",
        "follows job_ms_p10 unless the host is disturbed"),
    layer("job_ms_p90", "ms", true, Timed,
        "90th percentile of the same job times",
        "none: too noisy on a shared host to carry a bound"),
    layer("jobs_per_s", "1/s", false, Timed,
        "ops divided by the time spent inside jobs (closed loop, one client), same job times",
        "follows job_ms_p10 unless the host is disturbed"),
    layer("trace.untraced_ops", "count", false, Info, "ops of the untraced phase", "none"),
    layer("trace.job_ms_p50", "ms", true, Timed, "median job time with spans recorded", "none"),
    layer("trace.untraced_job_ms_p50", "ms", true, Timed, "median job time of the same run's untraced phase", "none"),
    layer("trace.overhead_pct", "%", true, Info, "computed: traced / untraced job_ms_p50 - 1", "none"),
    layer("trace.unattributed_pct", "%", true, Info, "share of traced job time no child span covers", "none"),
    layer("trace.run_share_pct", "%", false, Info, "vm.run span / job span (validity gate on the compute workloads)",
        "none"),
    layer("trace.compile_share_pct", "%", false, Info,
        "frontend + core spans / job span (validity gate on serve-cold)", "none"),
    layer("trace.jobs", "count", false, Info, "traced jobs", "none"),
    layer("trace.spans", "count", false, Info, "spans recorded", "none"),
    layer("trace.gates_failed", "count", true, Exact, "workload-validity gates violated (fails the run)", "none"),
    layer("trace.window_ops", "count", false, Exact, "ops in the exact window", "none"),
    layer("trace.virt_s", "modelled_s", true, Exact, "virt_s of the traced jobs, median over the exact window", "none"),
    layer("trace.print_hash", "count", true, Exact, "FNV-1a of the exact window's PRINT lines, folded to 32 bits", "none"),
    layer("trace.probe_s", "s", true, Info, "time spent in probes and differencing re-runs", "none"),
];

/// Every per-layer metric, in reporting order.
pub fn per_layer() -> &'static [Def] {
    static ALL: OnceLock<Vec<Def>> = OnceLock::new();
    ALL.get_or_init(|| {
        let mut defs = PER_LAYER.to_vec();
        let at = defs
            .iter()
            .position(|d| d.name == "comm.sched_hits")
            .expect("comm block");
        for (i, prim) in PRIMITIVES.iter().enumerate() {
            let name: &'static str = Box::leak(format!("comm.calls.{prim}").into_boxed_str());
            let moves = "virt_s @ the workloads that call it";
            defs.insert(at + i, layer(name, "count", true, Exact, COUNT, moves));
        }
        defs
    })
}

/// Metric values by name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// What goes into JSON: a metric the workload has no path to (or a
    /// quotient of nothing) reports 0.
    fn reported(&self, name: &str) -> f64 {
        self.get(name).filter(|v| v.is_finite()).unwrap_or(0.0)
    }

    /// `{"name": {"value": v, "unit": u}, ...}` for exactly `defs`, in
    /// their order.
    pub fn to_json(&self, defs: &[Def]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    (
                        d.name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(self.reported(d.name))),
                            ("unit".into(), Json::Str(d.unit.into())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// The same with what each metric is: how it is taken and which
    /// end-to-end metric, on which workload, it should move.
    pub fn described(&self, defs: &[Def]) -> Json {
        Json::Obj(
            defs.iter()
                .map(|d| {
                    let text = |s: &str| Json::Str(s.into());
                    (
                        d.name.to_string(),
                        Json::Obj(vec![
                            ("value".into(), Json::Num(self.reported(d.name))),
                            ("unit".into(), text(d.unit)),
                            ("how".into(), text(d.how)),
                            ("moves".into(), text(d.moves)),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// One `name value unit` line per metric.
    pub fn print(&self, defs: &[Def]) {
        for d in defs {
            println!(
                "  {:<28} {:>16.6} {}",
                d.name,
                self.get(d.name).unwrap_or(0.0),
                d.unit
            );
        }
    }
}
