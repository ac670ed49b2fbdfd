//! The traced run: each job replayed stage by stage through the layers'
//! public functions with a span per boundary, then probes of single
//! functions, the virtual-clock split by differencing, and the gates
//! that keep each workload measuring what it was chosen for.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use f90d_comm::schedule::{build_schedule, ElementReq};
use f90d_comm::ScheduleKind;
use f90d_core::{codegen, compile, optimize, vmlower, Compiled, OptFlags};
use f90d_distrib::{set_bound, DistKind, ProcGrid};
use f90d_frontend::{analyze, lex, normalize, parse};
use f90d_machine::{
    ArrayData, ElemType, LinkClocks, Machine, MachinePool, MachineSpec, MailboxTransport, Transport,
};
use f90d_runtime::{intrinsics, DistArray};
use f90d_serve::protocol::parse_request;
use f90d_vm::{Engine, VmProgram};
use serde::json::{Json, ParseLimits};

use crate::measure::{
    closed_loop, median, percentile, setup, timing_shown, window_virt_s, Loop, Ready, RunResult,
};
use crate::metrics::{per_layer, Metrics, PRIMITIVES};
use crate::programs::{Program, Rng};
use crate::trace::{SpanId, Tracer};
use crate::workloads::{
    parse_response, request_line, Kind, Outcome, Runner, Workload, PROBE_BASE, UNTRACED_BASE,
};

/// What a staged replay learned about the job besides its outcome.
#[derive(Debug, Default, Clone)]
struct Staged {
    outcome: Outcome,
    tokens: u64,
    foralls: u64,
    comm_calls: u64,
    bytecode_ops: u64,
    calls: Vec<(&'static str, u64)>,
    links_used: u64,
}

fn census_total(c: &Compiled) -> u64 {
    c.spmd.comm_census().values().map(|&n| n as u64).sum()
}

/// `f90d_core::compile` → `Machine::new` → `run_on_traced`, one public
/// call at a time under a root span. With `shared` the process-wide
/// program and schedule caches are consulted as the real job does; the
/// shadow replay of a daemon job passes `false` so that it cannot warm
/// the caches the daemon is about to miss in.
fn staged(
    tr: &mut Tracer,
    root_name: &'static str,
    job: u64,
    w: &Workload,
    spec: &MachineSpec,
    source: &str,
    shared: bool,
) -> Result<Staged, String> {
    let root = tr.begin(root_name, None, job);
    let tokens = tr
        .span("frontend.lex", root, || lex(source))
        .map_err(|e| format!("lex error: {e}"))?;
    let ast = tr
        .span("frontend.parse", root, || parse(&tokens))
        .map_err(|e| format!("parse error: {e}"))?;
    let mut analyzed = tr
        .span("frontend.sema", root, || analyze(&ast))
        .map_err(|e| format!("semantic error: {e}"))?;
    tr.span("frontend.normalize", root, || normalize(&mut analyzed));
    let opts = w.compile_options();
    let mut spmd = tr
        .span("core.codegen", root, || codegen::lower(&analyzed, &opts))
        .map_err(|e| e.to_string())?;
    tr.span("core.optimize", root, || {
        optimize::optimize(&mut spmd, &opts.opt)
    });
    let compiled = Compiled {
        spmd,
        analyzed,
        options: opts.clone(),
        source_hash: f90d_vm::cache::fnv1a(source.as_bytes()),
    };
    let (prog, hit) = if shared {
        tr.span("vm.program_cache", root, || compiled.vm_program_traced())?
    } else {
        let prog = tr.span("core.vmlower", root, || {
            vmlower::lower_with(&compiled.spmd, opts.opt.native_kernels)
        })?;
        (Arc::new(prog), false)
    };
    let mut m = tr.span("machine.new", root, || w.new_machine(spec));
    let mut eng = tr.span("vm.bind", root, || Engine::new(Arc::clone(&prog), &mut m));
    eng.sched.reuse = opts.opt.schedule_reuse;
    eng.sched.use_global = shared && opts.sched_cache;
    eng.overlap = opts.opt.comm_compute_overlap;
    eng.plan = opts.opt.comm_plan;
    eng.exec = opts.exec_mode;
    let rep = tr
        .span("vm.run", root, || eng.run(&mut m))
        .map_err(|e| e.to_string())?;
    let (native_matched, native_fallback) = eng.native_counts();
    let (comm_groups, comm_fallbacks) = eng.comm.counts();
    let info = Staged {
        outcome: Outcome {
            printed: rep.printed,
            virt_s: rep.elapsed,
            messages: rep.messages,
            bytes: rep.bytes,
            sched_hits: eng.sched.hits(),
            sched_misses: eng.sched.misses(),
            program_cache_hit: hit,
            native_matched,
            native_fallback,
            comm_groups,
            comm_fallbacks,
            ..Outcome::default()
        },
        tokens: tokens.len() as u64,
        foralls: prog.foralls.len() as u64,
        comm_calls: census_total(&compiled),
        bytecode_ops: prog.op_count() as u64,
        calls: m.stats.sorted(),
        links_used: m.transport.links_used() as u64,
    };
    // The real job frees the machine, engine and compiled program
    // before it returns, so the replay does too, inside the job.
    tr.span("bench.drop", root, || {
        drop((eng, m, compiled, prog, tokens, ast))
    });
    tr.end(root);
    Ok(info)
}

/// One daemon job over the socket with client-side spans; the stages
/// the daemon reports in its telemetry become children of the round
/// trip, whose self time is then wire plus the daemon's own overhead.
fn traced_request(
    tr: &mut Tracer,
    job: u64,
    runner: &mut Runner,
    source: &str,
) -> Result<Outcome, String> {
    let w = runner.workload;
    let conn = runner
        .conn
        .as_mut()
        .expect("serve workload has a connection");
    let root = tr.begin("job", None, job);
    let line = tr.span("client.render", root, || request_line(&w.request(source)));
    let trip: SpanId = tr.begin("serve.roundtrip", Some(root), job);
    let resp = conn.roundtrip(&line);
    tr.end(trip);
    let out = tr.span("client.parse", root, || {
        parse_response(&resp.map_err(|e| e.to_string())?, line.len())
    });
    tr.end(root);
    if let Ok(o) = &out {
        tr.telemetry_children(
            trip,
            &[
                ("serve.queue_wait", o.queue_wait_ms),
                ("serve.lease_wait", o.lease_wait_ms),
                ("serve.exec", o.exec_ms),
            ],
        );
    }
    out
}

/// Process-wide and daemon counters at one instant.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    program_hits: u64,
    program_misses: u64,
    program_len: u64,
    sched_len: u64,
    compile_hits: u64,
    compile_misses: u64,
    pool_created: u64,
    pool_reused: u64,
    joined: u64,
    rejected: u64,
}

fn counters(runner: &Runner) -> Counters {
    let vm = f90d_core::vm_cache();
    let mut c = Counters {
        program_hits: vm.hits(),
        program_misses: vm.misses(),
        program_len: vm.len() as u64,
        sched_len: f90d_comm::sched_cache::global().len() as u64,
        ..Counters::default()
    };
    if let Some(server) = &runner.server {
        // The `stats` op's document, read in process so that the one
        // client connection carries nothing but jobs.
        let stats = server.state().stats_json();
        let get = |group: &str, key: &str| {
            stats
                .get("stats")
                .and_then(|s| s.get(group))
                .and_then(|g| g.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        c.compile_hits = get("server", "compile_cache_hits");
        c.compile_misses = get("server", "compile_cache_misses");
        c.pool_created = get("machine_pool", "created");
        c.pool_reused = get("machine_pool", "reused");
        c.joined = get("server", "joined");
        c.rejected = get("server", "rejected_overload") + get("server", "rejected_shutdown");
    }
    c
}

/// Median nanoseconds per call of `f` over `calls` calls in `reps`
/// batches.
fn ns_per_call(reps: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per_call: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            for i in 0..calls {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&mut per_call)
}

fn time_us<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64() * 1e6)
}

/// Request list of a gather `X(I) <- Y(V(I))` over a 1-D BLOCK
/// distribution of `n` elements on `p` ranks.
fn gather_requests(pattern: &[i64], p: i64) -> Vec<ElementReq> {
    let n = pattern.len() as i64;
    let block = (n + p - 1) / p;
    pattern
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            let (i, v) = (i as i64, v - 1);
            ElementReq {
                requester: i / block,
                owner: v / block,
                src_off: (v % block) as usize,
                dst_off: (i % block) as usize,
            }
        })
        .collect()
}

/// Modelled seconds of `compiled` on a fresh machine of `spec`.
fn virt(
    w: &Workload,
    compiled: &Compiled,
    spec: &MachineSpec,
    contention: bool,
) -> Result<f64, String> {
    let mut m = Machine::new(spec.clone(), ProcGrid::new(w.grid));
    m.set_contention(contention);
    compiled
        .run_on(&mut m)
        .map(|rep| rep.elapsed)
        .map_err(|e| e.to_string())
}

/// Probes of single public functions and the differencing re-runs, fed
/// from `program` (the workload's fixed source, or a probe-only op of a
/// seeded workload).
fn probes(w: &Workload, program: &Program, m: &mut Metrics) -> Result<(), String> {
    let spec = w.spec();
    let opts = w.compile_options();
    let compiled = compile(&program.source, &opts)?;
    let nranks: i64 = w.grid.iter().product();

    // core: lowering, generated-code size, what the section 7 passes removed.
    let mut lower_us = Vec::new();
    let mut prog: Option<VmProgram> = None;
    for _ in 0..5 {
        let (p, us) = time_us(|| vmlower::lower_with(&compiled.spmd, true));
        lower_us.push(us);
        prog = Some(p?);
    }
    let prog = prog.expect("lowered five times");
    m.set("core.vmlower_us", median(&mut lower_us));
    m.set("core.f77_bytes", compiled.fortran77().len() as f64);
    let mut unopt = opts.clone();
    unopt.opt = OptFlags::none();
    m.set(
        "core.comm_calls_unopt",
        census_total(&compile(&program.source, &unopt)?) as f64,
    );

    // vm: the same job on the bytecode tier.
    let mut bytecode = opts.clone();
    bytecode.opt.native_kernels = false;
    let slow = Arc::new(vmlower::lower_with(
        &compile(&program.source, &bytecode)?.spmd,
        false,
    )?);
    let mut run_ms = Vec::new();
    for _ in 0..3 {
        let mut machine = w.new_machine(&spec);
        let mut eng = Engine::new(Arc::clone(&slow), &mut machine);
        eng.sched.use_global = false;
        eng.exec = opts.exec_mode;
        let (rep, us) = time_us(|| eng.run(&mut machine));
        rep.map_err(|e| e.to_string())?;
        run_ms.push(us / 1e3);
    }
    m.set("vm.bytecode_run_ms", median(&mut run_ms));

    // distrib: set_bound over every rank x dim of the program's arrays.
    let dims: Vec<_> = prog
        .arrays
        .iter()
        .flat_map(|a| a.dad.dims.iter().map(|d| d.dist))
        .flat_map(|dist| (0..dist.nprocs).map(move |p| (dist, p)))
        .collect();
    m.set(
        "distrib.set_bound_ns",
        ns_per_call(5, 20_000, |i| {
            let (dist, p) = &dims[i % dims.len()];
            black_box(set_bound(dist, *p, 1, dist.extent - 2, 1));
        }),
    );

    // comm: the inspector on the job's own gather pattern.
    if let Some(pattern) = &program.gather {
        let reqs = gather_requests(pattern, nranks);
        let mut us: Vec<f64> = (0..5)
            .map(|_| time_us(|| black_box(build_schedule(ScheduleKind::FanInRequests, &reqs))).1)
            .collect();
        m.set("comm.inspector_build_us", median(&mut us));
    }

    // machine: route, link clocks and the mailbox over seeded rank pairs.
    let mut r = Rng::for_op(0x6d61_6368, 9, nranks as u64);
    let pairs: Vec<(i64, i64)> = (0..2048)
        .map(|_| {
            let a = r.below(nranks as u64) as i64;
            (a, (a + 1 + r.below(nranks as u64 - 1) as i64) % nranks)
        })
        .collect();
    m.set(
        "machine.route_ns",
        ns_per_call(5, 20_000, |i| {
            let (a, b) = pairs[i % pairs.len()];
            black_box(spec.topology.route(a, b));
        }),
    );
    let routes: Vec<_> = pairs
        .iter()
        .map(|&(a, b)| spec.topology.route(a, b))
        .collect();
    let mut links = LinkClocks::new();
    m.set(
        "machine.link_transfer_ns",
        ns_per_call(5, 20_000, |i| {
            black_box(links.transfer(&spec, &routes[i % routes.len()], i as f64 * 1e-6, 512));
        }),
    );
    let mut transport = MailboxTransport::new(spec.clone(), nranks);
    m.set(
        "machine.post_complete_ns",
        ns_per_call(5, 20_000, |i| {
            let (a, b) = pairs[i % pairs.len()];
            transport.post_send(a, b, 7, ArrayData::zeros(ElemType::Real, 64));
            let h = transport.post_recv(b, a, 7);
            black_box(transport.complete(h).expect("the send was posted"));
        }),
    );
    let pool = MachinePool::new(4);
    let mut cycle_us = Vec::new();
    let (mut machine, _) = pool.check_out_traced(&spec, w.grid);
    for _ in 0..3 {
        compiled.run_on(&mut machine).map_err(|e| e.to_string())?;
        let (next, us) = time_us(|| {
            pool.check_in(machine);
            pool.check_out_traced(&spec, w.grid).0
        });
        machine = next;
        cycle_us.push(us);
    }
    m.set("machine.pool_cycle_us", median(&mut cycle_us));

    // machine: the virtual clock split, by re-running the job with cost
    // constants zeroed. Exact, but not additive: clocks are maxima.
    let full = virt(w, &compiled, &spec, w.contention)?;
    let zeroed = |f: fn(&mut MachineSpec)| {
        let mut s = spec.clone();
        f(&mut s);
        virt(w, &compiled, &s, w.contention)
    };
    let compute = zeroed(|s| {
        s.alpha = 0.0;
        s.beta = 0.0;
        s.tau = 0.0;
        s.time_copy_byte = 0.0;
    })?;
    m.set("machine.virt_compute_s", compute);
    m.set("machine.virt_comm_s", full - compute);
    m.set("machine.virt_alpha_s", full - zeroed(|s| s.alpha = 0.0)?);
    m.set("machine.virt_beta_s", full - zeroed(|s| s.beta = 0.0)?);
    m.set("machine.virt_tau_s", full - zeroed(|s| s.tau = 0.0)?);
    m.set(
        "machine.virt_contention_s",
        virt(w, &compiled, &spec, true)? - virt(w, &compiled, &spec, false)?,
    );
    Ok(())
}

/// The Table 3 intrinsics on a fixed 256 x 256 array over 4 x 4 nodes.
/// No workload's critical path runs them; they are watched, not claimed.
fn runtime_probes(m: &mut Metrics) {
    let mut machine = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[4, 4]));
    let dist = [DistKind::Block, DistKind::Block];
    let mut array =
        |name: &str| DistArray::create(&mut machine, name, ElemType::Real, &[256, 256], &dist);
    let (a, b, c) = (array("PA"), array("PB"), array("PC"));
    let mut probe = |name: &str, reps: usize, f: &mut dyn FnMut(&mut Machine)| {
        let mut us: Vec<f64> = (0..reps).map(|_| time_us(|| f(&mut machine)).1).collect();
        m.set(name, median(&mut us));
    };
    probe("runtime.cshift_us", 3, &mut |mm| {
        intrinsics::cshift(mm, &a, &b, 0, 1)
    });
    probe("runtime.sum_us", 3, &mut |mm| {
        black_box(intrinsics::sum(mm, &a));
    });
    probe("runtime.transpose_us", 3, &mut |mm| {
        intrinsics::transpose(mm, &a, &b)
    });
    probe("runtime.matmul_us", 1, &mut |mm| {
        black_box(intrinsics::matmul(mm, &a, &b, &c));
    });
}

/// In-process `ServerState::dispatch` of the workload's requests, taken
/// in turn with requests over the socket so that both see the daemon in
/// the same state: what the daemon spends without the socket, what is
/// left of that once execution and (on a compile-cache miss) compilation
/// are taken out, and what the socket adds.
///
/// The whole probe runs on a thread of its own, as each of the daemon's
/// connections does: a fresh thread gets a fresh allocator arena, and on
/// the main thread, whose heap the replays above have churned, a cold
/// dispatch measured four times slower than the same request over TCP.
fn serve_probes(runner: &mut Runner, seed: u64, m: &mut Metrics) -> Result<(), String> {
    std::thread::scope(|s| {
        s.spawn(|| serve_probes_on_this_thread(runner, seed, m))
            .join()
            .map_err(|_| "the serve probe thread panicked".to_string())?
    })
}

fn serve_probes_on_this_thread(
    runner: &mut Runner,
    seed: u64,
    m: &mut Metrics,
) -> Result<(), String> {
    let w = runner.workload;
    let state = Arc::clone(runner.server.as_ref().expect("serve workload").state());
    let limits = ParseLimits::network(1 << 20, 64);
    let reps = if w.fixed_input { 300 } else { 100 };
    let (mut parse, mut render, mut dispatch, mut stages) = (vec![], vec![], vec![], vec![]);
    let (mut exec, mut lease, mut queue) = (vec![], vec![], vec![]);
    let (mut tcp, mut compile_us, mut kept) = (vec![], vec![], vec![]);
    for i in 0..reps {
        let source = w.program(seed, PROBE_BASE + 1000 + 2 * i).source;
        let line = request_line(&w.request(&source));
        let body = line.trim_end().as_bytes();
        parse.push(time_us(|| black_box(parse_request(body, &limits))).1);
        let (resp, us) = time_us(|| state.dispatch(body));
        let (text, render_us) = time_us(|| resp.render());
        let out = parse_response(&text, line.len())?;
        render.push(render_us);
        dispatch.push(us);
        exec.push(out.exec_ms * 1e3);
        lease.push(out.lease_wait_ms * 1e3);
        queue.push(out.queue_wait_ms * 1e3);
        stages.push((out.exec_ms + out.lease_wait_ms + out.queue_wait_ms) * 1e3);

        // The next request goes over the socket. When the daemon will
        // miss its compile cache, the same compilation is timed here
        // first, on a source the daemon has not seen either, and kept
        // alive as the daemon keeps its own.
        let source = w.program(seed, PROBE_BASE + 1001 + 2 * i).source;
        if !w.fixed_input {
            let (compiled, us) =
                time_us(|| compile(&source, &w.request(&source).compile_options()));
            compile_us.push(us);
            kept.push(compiled);
        }
        let (out, us) = time_us(|| runner.run(&source));
        out?;
        tcp.push(us);
    }
    let dispatch_us = median(&mut dispatch);
    let compile_on_miss = if compile_us.is_empty() {
        0.0
    } else {
        median(&mut compile_us)
    };
    m.set("serve.parse_us", median(&mut parse));
    m.set("serve.render_us", median(&mut render));
    m.set("serve.dispatch_us", dispatch_us);
    m.set("serve.exec_us", median(&mut exec));
    m.set("serve.lease_wait_us", median(&mut lease));
    m.set("serve.queue_wait_us", median(&mut queue));
    m.set(
        "serve.self_us",
        dispatch_us - median(&mut stages) - compile_on_miss,
    );
    m.set("serve.wire_us", median(&mut tcp) - dispatch_us);
    Ok(())
}

fn mean(values: impl Iterator<Item = u64>) -> f64 {
    let (mut sum, mut n) = (0u64, 0u64);
    for v in values {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum as f64 / n as f64
    }
}

/// FNV-1a of the window's PRINT lines, folded to 32 bits so that it is
/// exact as a JSON number.
fn print_hash(window: &[Outcome]) -> f64 {
    let mut bytes = Vec::new();
    for o in window {
        for line in &o.printed {
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
        }
    }
    let h = f90d_vm::cache::fnv1a(&bytes);
    ((h >> 32) ^ (h & 0xffff_ffff)) as f64
}

/// The workload-validity gates: each workload must keep measuring the
/// layer it was chosen for. Returns the violated ones.
fn gates(w: &Workload, m: &Metrics) -> Vec<String> {
    let v = |name: &str| m.get(name).unwrap_or(0.0);
    let mut bad = Vec::new();
    let mut gate = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    match w.name {
        "gauss-ipsc16" | "stencil-ghost" => {
            gate(
                v("trace.run_share_pct") >= 85.0,
                format!(
                    "vm.run is {:.1} % of the job, below 85 %",
                    v("trace.run_share_pct")
                ),
            );
            gate(
                v("vm.native_matched") > 0.0,
                "no FORALL ran on the native tier".into(),
            );
        }
        "gauss-fattree256" => gate(
            v("machine.virt_contention_s") > 0.0,
            "contention adds no modelled time".into(),
        ),
        "irregular-gather" => {
            gate(
                v("vm.native_fallback") > 0.0,
                "no FORALL fell back to bytecode".into(),
            );
            gate(
                v("comm.sched_misses") >= 1.0,
                format!(
                    "{} schedule-cache misses per op, below 1",
                    v("comm.sched_misses")
                ),
            );
        }
        "serve-warm" => {
            gate(
                v("serve.compile_cache_misses") == 0.0,
                "the compile cache missed during the timed part".into(),
            );
            gate(
                v("serve.pool_created") == 0.0,
                "a machine was constructed during the timed part".into(),
            );
        }
        "serve-cold" => {
            gate(
                v("serve.compile_cache_hits") == 0.0,
                "the compile cache hit".into(),
            );
            gate(
                v("trace.compile_share_pct") >= 50.0,
                format!(
                    "frontend + core are {:.1} % of the job, below 50 %",
                    v("trace.compile_share_pct")
                ),
            );
            gate(
                v("trace.run_share_pct") <= 35.0,
                format!(
                    "execution is {:.1} % of the job, above 35 %",
                    v("trace.run_share_pct")
                ),
            );
        }
        other => unreachable!("unknown workload {other}"),
    }
    gate(
        v("trace.unattributed_pct") <= 5.0,
        format!(
            "{:.1} % of traced job time is outside every span",
            v("trace.unattributed_pct")
        ),
    );
    bad
}

/// A metric name and the count it is read from.
type Field<T> = (&'static str, fn(&T) -> u64);

/// The exact window of a traced run: a quarter of the untraced run's.
fn traced_window_ops(workload: &Workload) -> u64 {
    (workload.exact_ops / 4).max(1)
}

/// What the traced phase of a run leaves behind.
struct TracedPhase {
    rec: Loop,
    tracer: Tracer,
    /// One per traced job, in order: from the job itself on a library
    /// workload, from its shadow replay on a daemon workload.
    infos: Vec<Staged>,
    /// Counters when the phase began and when its exact window closed.
    before: Counters,
    at_close: Counters,
}

/// The traced closed loop, ops 0 onwards: the same inputs in every run
/// of one seed, whatever the speed of the host. A library job is the
/// staged replay itself; a daemon job is the traced request, followed
/// (untimed) by a shadow staged replay of the same source for the layers
/// under the daemon.
fn traced_phase(ready: &mut Ready, seconds: f64) -> Result<TracedPhase, String> {
    let workload = ready.runner.workload;
    let window_ops = traced_window_ops(workload);
    let spec = workload.spec();
    let before = counters(&ready.runner);
    let mut at_close = before;
    // Both closures record into the tracer and `infos`, one after the
    // other, never at once.
    let shared = RefCell::new((Tracer::new(), Vec::new()));
    let rec = closed_loop(
        ready,
        seconds,
        window_ops,
        0,
        window_ops,
        |runner, op, source| {
            let (tr, infos) = &mut *shared.borrow_mut();
            match workload.kind {
                Kind::Library => {
                    let info = staged(tr, "job", op, workload, &spec, source, true)?;
                    infos.push(info.clone());
                    Ok(info.outcome)
                }
                Kind::Serve => traced_request(tr, op, runner, source),
            }
        },
        |runner, done, input| {
            let (tr, infos) = &mut *shared.borrow_mut();
            if workload.kind == Kind::Serve {
                let source = &input.program.source;
                infos.push(staged(
                    tr,
                    "shadow",
                    done - 1,
                    workload,
                    &spec,
                    source,
                    false,
                )?);
            }
            if done == window_ops {
                at_close = counters(runner);
            }
            Ok(())
        },
    )?;
    let (tracer, infos) = shared.into_inner();
    Ok(TracedPhase {
        rec,
        tracer,
        infos,
        before,
        at_close,
    })
}

/// The traced run of one workload: a traced phase (a quarter of
/// `seconds`, and its exact window in full), an untraced phase for the
/// overhead comparison (half of `seconds`), then probes.
pub fn run(workload: &'static Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut ready = setup(workload, seed, Instant::now())?;
    let TracedPhase {
        rec: traced,
        tracer,
        infos,
        before,
        at_close,
    } = traced_phase(&mut ready, 0.25 * seconds)?;
    let plain = closed_loop(
        &mut ready,
        0.5 * seconds,
        1,
        UNTRACED_BASE,
        0,
        |runner, _, source| runner.run(source),
        |_, _, _| Ok(()),
    )?;
    let window_ops = traced_window_ops(workload);
    let window = &traced.window;
    // (Shorter only when a job errored, which fails the run anyway.)
    let window_infos = &infos[..(window_ops as usize).min(infos.len())];

    let mut m = Metrics::default();
    let spans = tracer.by_name();
    let span_median = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |t| median(&mut t.total_ms.clone()))
    };
    let span_sum = |name: &str, own: bool| {
        spans.get(name).map_or(0.0, |t| {
            if own { &t.self_ms } else { &t.total_ms }
                .iter()
                .sum::<f64>()
        })
    };
    for (metric, span) in [
        ("frontend.lex_us", "frontend.lex"),
        ("frontend.parse_us", "frontend.parse"),
        ("frontend.sema_us", "frontend.sema"),
        ("frontend.normalize_us", "frontend.normalize"),
        ("core.codegen_us", "core.codegen"),
        ("core.optimize_us", "core.optimize"),
        ("vm.bind_us", "vm.bind"),
        ("machine.new_us", "machine.new"),
    ] {
        m.set(metric, span_median(span) * 1e3);
    }
    let run_ms = span_median("vm.run");
    m.set("vm.run_ms", run_ms);

    // Counts over the exact window, per job.
    let per_replay: [Field<Staged>; 5] = [
        ("frontend.tokens", |i| i.tokens),
        ("core.ir_foralls", |i| i.foralls),
        ("core.comm_calls", |i| i.comm_calls),
        ("vm.bytecode_ops", |i| i.bytecode_ops),
        ("machine.links_used", |i| i.links_used),
    ];
    for (name, field) in per_replay {
        m.set(name, mean(window_infos.iter().map(field)));
    }
    let mut calls: BTreeMap<&str, u64> = BTreeMap::new();
    for (name, n) in window_infos.iter().flat_map(|i| i.calls.iter()) {
        *calls.entry(name).or_default() += n;
    }
    for prim in PRIMITIVES {
        let total = calls.get(prim).copied().unwrap_or(0);
        let per_job = total as f64 / window_infos.len().max(1) as f64;
        m.set(&format!("comm.calls.{prim}"), per_job);
    }
    // Native-tier and planner counts come back with a library job but
    // not in the daemon's telemetry; there the shadow replay has them.
    let engine: Vec<&Outcome> = match workload.kind {
        Kind::Library => window.iter().collect(),
        Kind::Serve => window_infos.iter().map(|i| &i.outcome).collect(),
    };
    let per_engine: [Field<Outcome>; 4] = [
        ("vm.native_matched", |o| o.native_matched),
        ("vm.native_fallback", |o| o.native_fallback),
        ("comm.groups", |o| o.comm_groups),
        ("comm.fallbacks", |o| o.comm_fallbacks),
    ];
    for (name, field) in per_engine {
        m.set(name, mean(engine.iter().map(|o| field(o))));
    }
    let per_job: [Field<Outcome>; 6] = [
        ("comm.messages", |o| o.messages),
        ("comm.bytes", |o| o.bytes),
        ("comm.sched_hits", |o| o.sched_hits),
        ("comm.sched_misses", |o| o.sched_misses),
        ("serve.request_bytes", |o| o.request_bytes),
        ("serve.response_bytes", |o| o.response_bytes),
    ];
    for (name, field) in per_job {
        m.set(name, mean(window.iter().map(field)));
    }
    // Process-wide and daemon counters: growth over the exact window.
    let grown: [Field<Counters>; 8] = [
        ("vm.program_cache_hits", |c| c.program_hits),
        ("vm.program_cache_misses", |c| c.program_misses),
        ("serve.compile_cache_hits", |c| c.compile_hits),
        ("serve.compile_cache_misses", |c| c.compile_misses),
        ("serve.pool_created", |c| c.pool_created),
        ("serve.pool_reused", |c| c.pool_reused),
        ("serve.dedup_joins", |c| c.joined),
        ("serve.rejected", |c| c.rejected),
    ];
    for (name, field) in grown {
        m.set(name, (field(&at_close) - field(&before)) as f64);
    }
    m.set("vm.program_cache_len", at_close.program_len as f64);
    m.set("comm.sched_cache_len", at_close.sched_len as f64);

    // Computed from the above.
    let probe_program = if workload.fixed_input {
        ready.inputs.get(0)?.program.clone()
    } else {
        workload.program(seed, PROBE_BASE)
    };
    m.set(
        "vm.ns_per_elem_update",
        run_ms * 1e6 / probe_program.elem_updates.max(1) as f64,
    );
    let messages = m.get("comm.messages").unwrap_or(0.0);
    if messages > 0.0 {
        m.set("machine.host_us_per_message", run_ms * 1e3 / messages);
    }

    // The trace's own numbers. On a daemon workload the layers under the
    // daemon are seen in the shadow replay, so its shares use that root.
    let root = match workload.kind {
        Kind::Library => "job",
        Kind::Serve => "shadow",
    };
    let job_total = span_sum("job", false);
    let root_total = span_sum(root, false);
    let compile_ms: f64 = [
        "frontend.lex",
        "frontend.parse",
        "frontend.sema",
        "frontend.normalize",
        "core.codegen",
        "core.optimize",
        "core.vmlower",
    ]
    .iter()
    .map(|n| span_sum(n, false))
    .sum();
    let mut traced_sorted = traced.job_ms.clone();
    traced_sorted.sort_by(f64::total_cmp);
    let mut plain_sorted = plain.job_ms.clone();
    plain_sorted.sort_by(f64::total_cmp);
    let (traced_p50, plain_p50) = (
        percentile(&traced_sorted, 0.5),
        percentile(&plain_sorted, 0.5),
    );
    for (name, value) in timing_shown(&plain_sorted) {
        m.set(name, value);
    }
    m.set("trace.untraced_ops", plain.job_ms.len() as f64);
    m.set("trace.job_ms_p50", traced_p50);
    m.set("trace.untraced_job_ms_p50", plain_p50);
    m.set("trace.overhead_pct", (traced_p50 / plain_p50 - 1.0) * 100.0);
    m.set(
        "trace.unattributed_pct",
        span_sum("job", true) / job_total * 100.0,
    );
    m.set(
        "trace.run_share_pct",
        span_sum("vm.run", false) / root_total * 100.0,
    );
    m.set("trace.compile_share_pct", compile_ms / root_total * 100.0);
    m.set("trace.jobs", traced.job_ms.len() as f64);
    m.set("trace.spans", tracer.spans.len() as f64);
    m.set("trace.window_ops", window_ops as f64);
    m.set("trace.print_hash", print_hash(window));
    m.set("trace.virt_s", window_virt_s(window));

    let t = Instant::now();
    probes(workload, &probe_program, &mut m)?;
    runtime_probes(&mut m);
    if workload.kind == Kind::Serve {
        serve_probes(&mut ready.runner, seed, &mut m)?;
    }
    m.set("trace.probe_s", t.elapsed().as_secs_f64());
    ready.runner.stop()?;

    let violated = gates(workload, &m);
    for g in &violated {
        eprintln!("{}: validity gate violated: {g}", workload.name);
    }
    m.set("trace.gates_failed", violated.len() as f64);

    let out = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(out).map_err(|e| e.to_string())?;
    let file = out.join(format!("trace-{}.json", workload.name));
    let mut doc = tracer.to_json(workload.name, seed, 20);
    if let Json::Obj(fields) = &mut doc {
        // The per-layer numbers the spans were boiled down to, each with
        // how it was taken and what it should move.
        fields.push(("metrics".into(), m.described(per_layer())));
    }
    std::fs::write(&file, doc.render_pretty()).map_err(|e| format!("{}: {e}", file.display()))?;

    let failed = plain.failed + traced.failed;
    Ok(RunResult {
        correct: failed == 0 && violated.is_empty(),
        attempted: (plain.job_ms.len() + traced.job_ms.len()) as u64,
        failed,
        metrics: m,
    })
}
