//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro [--exp all|t1|t2|t3|fig5|table4|fig6|port|vmcmp|overlap|commplan|scaling|abl-shift|abl-sched|abl-fuse|abl-overlap|matrix]
//!       [--n <matrix size>] [--quick]
//!       [--jobs N] [--exec sequential|threaded] [--workers N]
//!       [--out results.json] [--baseline results.json] [--wall-tol F]
//!       [--repeat N] [--no-sched-cache] [--no-native] [--gate F]
//! ```
//!
//! `--quick` shrinks the Gaussian-elimination size (255 instead of 1023)
//! so the whole suite finishes in about a minute; the shapes are
//! unchanged (README.md, "Reproducing the paper's evaluation").
//!
//! Every experiment is one [`Entry`] of [`REGISTRY`]: its name, the
//! flags it honours besides `--quick`, and a function from the parsed
//! [`Args`] to [`Report`]s. `parse_args` rejects (exit 2, nothing on
//! stdout) an unknown flag or experiment, a flag whose value is missing
//! or malformed, and a flag the chosen experiment does not list — a
//! request is never silently ignored, least of all a regression gate.
//! `render` is the one place a report is printed (table and passed gates
//! on stdout, commentary and failed gates on stderr), written (`--out`)
//! and judged (a failed gate exits 1). `--exp all`, the default, runs
//! the paper's tables, figures and ablations in order; the harness flags
//! (`--jobs`, `--out`, `--baseline`, …) imply `--exp matrix`.
//!
//! Every executing experiment runs on the one engine (`f90d_vm::Engine`
//! over the lowered bytecode); the host wall-clock is printed beside
//! fig5 / table4 / fig6 / port. What each experiment holds itself to is
//! on its function below; the `--out` schemas are in the README.

use std::collections::HashMap;
use std::time::Instant;

use f90d_bench::experiments as exp;
use f90d_bench::harness;
use f90d_bench::report::{Report, Table, Val};
use f90d_bench::scaling;
use f90d_bench::workloads;
use f90d_core::detect::{classify_pair, classify_subscript, DimAlign};
use f90d_core::{compile, CompileOptions, RunTrace};
use f90d_frontend::ast::{BinOp, Expr};
use f90d_machine::{ExecMode, MachineSpec};
use serde::json::Json;

/// The parsed command line.
#[derive(Default)]
struct Args {
    exp: String,
    n: Option<i64>,
    quick: bool,
    jobs: usize,
    exec: ExecMode,
    workers: Option<usize>,
    out: Option<String>,
    /// Path and parsed document of `--baseline`.
    baseline: Option<(String, Json)>,
    wall_tol: Option<f64>,
    repeat: usize,
    sched_cache: bool,
    native: bool,
    gate: Option<f64>,
    /// Every flag that was given, for the per-experiment check.
    given: Vec<&'static str>,
}

impl Args {
    /// The Gaussian-elimination size of Table 4 / Figure 6.
    fn n(&self) -> i64 {
        self.n.unwrap_or(if self.quick { 255 } else { 1023 })
    }
}

/// One command-line flag: what its value must be (`""`: a switch, it
/// takes none) and how it lands in [`Args`]. `None` from `set` — or no
/// value at all — is the usage error `<name> expects <expects>`.
struct Flag {
    name: &'static str,
    expects: &'static str,
    set: fn(&mut Args, &str) -> Option<()>,
}

/// `v` as a number no smaller than `min`.
fn at_least<T: std::str::FromStr + PartialOrd>(v: &str, min: T) -> Option<T> {
    v.parse().ok().filter(|x| *x >= min)
}

fn read_baseline(path: &str) -> Option<(String, Json)> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| eprintln!("cannot read baseline {path}: {e}"))
        .ok()?;
    let doc = Json::parse(&text)
        .map_err(|e| eprintln!("cannot parse baseline {path}: {e}"))
        .ok()?;
    Some((path.to_string(), doc))
}

/// Store a parsed flag value; `None` (it did not parse) stores nothing.
fn put<T>(slot: &mut T, value: Option<T>) -> Option<()> {
    *slot = value?;
    Some(())
}

#[rustfmt::skip]
const FLAGS: &[Flag] = &[
    Flag { name: "--exp", expects: "an experiment name", set: |a, v| put(&mut a.exp, Some(v.into())) },
    Flag { name: "--n", expects: "a matrix size >= 1", set: |a, v| put(&mut a.n, at_least(v, 1).map(Some)) },
    Flag { name: "--quick", expects: "", set: |a, _| put(&mut a.quick, Some(true)) },
    Flag { name: "--jobs", expects: "a worker count >= 1", set: |a, v| put(&mut a.jobs, at_least(v, 1)) },
    Flag { name: "--exec", expects: "`sequential` or `threaded`", set: |a, v| put(&mut a.exec, ExecMode::parse(v)) },
    Flag { name: "--workers", expects: "a worker-budget total >= 1", set: |a, v| put(&mut a.workers, at_least(v, 1).map(Some)) },
    Flag { name: "--out", expects: "a file path", set: |a, v| put(&mut a.out, Some(Some(v.into()))) },
    Flag { name: "--baseline", expects: "a readable results.json", set: |a, v| put(&mut a.baseline, read_baseline(v).map(Some)) },
    Flag { name: "--wall-tol", expects: "a slowdown factor (e.g. 3.0)", set: |a, v| put(&mut a.wall_tol, v.parse().ok().map(Some)) },
    Flag { name: "--repeat", expects: "a run count >= 1", set: |a, v| put(&mut a.repeat, at_least(v, 1)) },
    Flag { name: "--no-sched-cache", expects: "", set: |a, _| put(&mut a.sched_cache, Some(false)) },
    Flag { name: "--no-native", expects: "", set: |a, _| put(&mut a.native, Some(false)) },
    Flag { name: "--gate", expects: "a speedup factor > 0 (e.g. 1.5)", set: |a, v| put(&mut a.gate, v.parse().ok().filter(|g| *g > 0.0).map(Some)) },
];

/// One experiment: its `--exp` name, the flags it honours besides
/// `--quick`, and the run.
struct Entry {
    name: &'static str,
    flags: &'static [&'static str],
    run: fn(&Args) -> Vec<Report>,
}

const MATRIX_FLAGS: &[&str] = &[
    "--jobs",
    "--exec",
    "--workers",
    "--out",
    "--baseline",
    "--wall-tol",
    "--repeat",
    "--no-sched-cache",
    "--no-native",
];

/// Every experiment, in `--exp all` order.
#[rustfmt::skip]
const REGISTRY: &[Entry] = &[
    Entry { name: "t1", flags: &[], run: exp_t1 },
    Entry { name: "t2", flags: &[], run: exp_t2 },
    Entry { name: "t3", flags: &[], run: exp_t3 },
    Entry { name: "fig5", flags: &[], run: exp_fig5 },
    Entry { name: "table4", flags: &["--n"], run: |a| exp_table4_fig6(a, true) },
    Entry { name: "fig6", flags: &["--n"], run: |a| exp_table4_fig6(a, false) },
    Entry { name: "port", flags: &[], run: exp_portability },
    Entry { name: "vmcmp", flags: &["--out", "--gate"], run: exp_vmcmp },
    Entry { name: "overlap", flags: &["--out"], run: exp_overlap },
    Entry { name: "commplan", flags: &["--out", "--gate"], run: exp_commplan },
    Entry { name: "scaling", flags: &["--out"], run: exp_scaling },
    Entry { name: "abl-shift", flags: &[], run: exp_abl_shift },
    Entry { name: "abl-sched", flags: &[], run: exp_abl_sched },
    Entry { name: "abl-fuse", flags: &[], run: exp_abl_fuse },
    Entry { name: "abl-overlap", flags: &[], run: exp_abl_overlap },
    Entry { name: "matrix", flags: MATRIX_FLAGS, run: exp_matrix },
];

/// What `--exp all` leaves out: Figure 6 rides with Table 4, and the
/// sweep and the matrix are runs of their own.
const NOT_IN_ALL: [&str; 3] = ["fig6", "scaling", "matrix"];

/// The usage block of this file's module doc: the lines between its
/// first pair of code fences.
fn usage() -> String {
    include_str!("repro.rs")
        .lines()
        .map(|l| l.strip_prefix("//! ").unwrap_or(l))
        .skip_while(|l| !l.starts_with("```"))
        .skip(1)
        .take_while(|l| !l.starts_with("```"))
        .map(|l| format!("{l}\n"))
        .collect()
}

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// `a, b and c`.
fn listed(items: &[&str]) -> String {
    match items {
        [init @ .., last] if !init.is_empty() => format!("{} and {last}", init.join(", ")),
        _ => items.concat(),
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Args {
    let mut args = Args {
        exp: "all".into(),
        jobs: 1,
        repeat: 1,
        sched_cache: true,
        native: true,
        ..Args::default()
    };
    while let Some(arg) = argv.next() {
        let Some(flag) = FLAGS.iter().find(|f| f.name == arg) else {
            usage_error(&format!("unknown argument {arg}"));
        };
        let value = if flag.expects.is_empty() {
            Some(String::new())
        } else {
            argv.next().filter(|v| !v.starts_with("--"))
        };
        if value.and_then(|v| (flag.set)(&mut args, &v)).is_none() {
            usage_error(&format!("{} expects {}", flag.name, flag.expects));
        }
        args.given.push(flag.name);
    }
    // The harness flags imply the matrix experiment.
    if args.exp == "all" && args.given.iter().any(|f| MATRIX_FLAGS.contains(f)) {
        args.exp = "matrix".into();
    }
    let (name, flags) = match REGISTRY.iter().find(|e| e.name == args.exp) {
        Some(e) => (e.name, e.flags),
        None if args.exp == "all" => ("all", &["--n"][..]),
        None => {
            let names: Vec<&str> = REGISTRY.iter().map(|e| e.name).collect();
            usage_error(&format!(
                "unknown experiment {}: --exp expects all, {}",
                args.exp,
                names.join(", ")
            ));
        }
    };
    let accepted = [&["--exp", "--quick"][..], flags].concat();
    if let Some(bad) = args.given.iter().find(|f| !accepted.contains(f)) {
        let accepted = listed(&accepted[1..]);
        let why = if *bad == "--gate" {
            "; --gate is a claim gate: it requires --exp vmcmp (native speedup) or --exp commplan (planner speedup)".into()
        } else if MATRIX_FLAGS.contains(bad) {
            format!(
                "; {} require the matrix experiment (--exp matrix), not --exp {name}",
                MATRIX_FLAGS.join("/")
            )
        } else {
            String::new()
        };
        usage_error(&format!("--exp {name} accepts only {accepted}{why}"));
    }
    args
}

/// Print one report, write it to `--out`, and exit 1 if a gate failed.
fn render(report: &Report, out: Option<&str>) {
    print!("{}", report.table());
    for line in &report.log {
        eprintln!("{line}");
    }
    // Written before the gates are judged: when one fails, the file (a
    // CI artifact) holds exactly the run that failed, to diagnose or to
    // commit as the new baseline.
    if let Some(path) = out {
        std::fs::write(path, report.document().render_pretty()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(2);
        });
        eprintln!("# wrote {path}");
    }
    for gate in &report.gates {
        if !gate.pass {
            eprintln!("# {}", gate.detail);
        } else if !gate.detail.is_empty() {
            println!("  {}", gate.detail);
        }
    }
    if report.gates.iter().any(|g| !g.pass) {
        std::process::exit(1);
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        print!("{}", usage());
        return;
    }
    let args = parse_args(argv.into_iter());
    let chosen = |e: &&Entry| match args.exp.as_str() {
        "all" => !NOT_IN_ALL.contains(&e.name),
        name => e.name == name,
    };
    for entry in REGISTRY.iter().filter(chosen) {
        for report in (entry.run)(&args) {
            render(&report, args.out.as_deref());
        }
    }
}

/// The host wall-clock note of an executing experiment.
fn wall_note(label: &str, t0: Instant) -> String {
    format!(
        "  [{label}] wall-clock {:.1} ms",
        t0.elapsed().as_secs_f64() * 1e3
    )
}

fn num(x: i64) -> Json {
    Json::Num(x as f64)
}

/// The full §8 experiment matrix on the parallel harness
/// (`f90d_bench::harness`), `--repeat` times back to back in one
/// process.
///
/// Deterministic metrics → stdout (canonical order, byte-identical for
/// any `--jobs`); wall clock and cache commentary → stderr; structured
/// results → `--out` (`results.json`, each run overwriting the last);
/// regression gate → `--baseline`, applied to **every** run: a drift in
/// virtual time, messages, bytes or PRINT fails it — a warm schedule
/// cache must not move a single virtual bit — while wall clock is
/// reported and only gated under `--wall-tol <factor>`.
///
/// `--exec threaded` runs every cell's local phases on its machine's
/// persistent worker pool; `--workers N` sets the process-wide budget
/// the cells lease pool workers from (default: host parallelism), so
/// `--jobs J --exec threaded` never runs more than N pool threads
/// however `J × P` multiplies out — cells that lease nothing degrade to
/// sequential. `--no-sched-cache` makes every cell rebuild its inspector
/// schedules and `--no-native` runs every FORALL on the bytecode element
/// loop. Virtual metrics are bit-identical under all of them — the flags
/// exist to measure and to bisect host-side misbehaviour; the per-cell
/// counters they move land in `results.json`, never gated.
fn exp_matrix(args: &Args) -> Vec<Report> {
    let scale = if args.quick {
        harness::Scale::Quick
    } else {
        harness::Scale::Full
    };
    let cells = harness::matrix(scale);
    let cfg = harness::MatrixConfig {
        jobs: args.jobs,
        scale,
        sched_cache: args.sched_cache,
        exec: args.exec,
        budget: args.workers,
        native: args.native,
    };
    let on_off = |on| if on { "on" } else { "off" };
    let header = format!(
        "# matrix: {} cells, {} jobs, suite {}, {} run(s), schedule cache {}, exec {}, native kernels {}",
        cells.len(),
        args.jobs,
        scale.name(),
        args.repeat,
        on_off(args.sched_cache),
        args.exec.name(),
        on_off(args.native)
    );
    let one_run = |run: usize| {
        let m = harness::run_matrix(&cells, &cfg);
        let mut rep = harness::report(&m);
        rep.log.extend((run == 1).then(|| header.clone()));
        let per_cell_wall: f64 = m.cells.iter().map(|c| c.wall_s).sum();
        rep.log.push(format!(
            "# wall-clock {:.3} s on {} jobs (sum of cell wall-clocks {:.3} s, pool efficiency {:.0}%)",
            m.wall_s,
            m.jobs,
            per_cell_wall,
            100.0 * per_cell_wall / (m.wall_s * m.jobs as f64)
        ));
        if m.exec == ExecMode::Threaded {
            rep.log.push(format!(
                "# exec threaded: worker budget {}, {} of {} cells ran pooled (rest degraded to sequential)",
                m.worker_budget,
                m.cells.iter().filter(|c| c.trace.workers > 0).count(),
                m.cells.len()
            ));
        }
        // `name=total` for every counter of one group of the trace.
        let totals = |prefix: &str| {
            let names = RunTrace::default().counters();
            let shown = names.iter().filter_map(|(name, _)| {
                let leaf = name.strip_prefix(prefix)?;
                Some(format!("{leaf}={}", m.total(name)))
            });
            shown.collect::<Vec<_>>().join(" ")
        };
        rep.log.push(format!(
            "# schedule cache (run {run}): {}",
            totals("sched_")
        ));
        rep.log.push(format!(
            "# plan reuse (run {run}): {}",
            totals("plan_reuse.")
        ));
        if let Some((path, base)) = &args.baseline {
            let diff = harness::diff_baseline(&rep.document(), base, args.wall_tol);
            rep.log.extend(
                diff.iter()
                    .map(|ok| format!("# baseline (run {run}): {ok}")),
            );
            let drift = diff.err().unwrap_or_default();
            rep.gate(
                "baseline",
                drift.is_empty(),
                "",
                format!("BASELINE DRIFT (run {run}) against {path}:\n{drift}"),
            );
        }
        rep
    };
    (1..=args.repeat).map(one_run).collect()
}

/// Execution-tier head-to-head: host wall-clock of one full run per
/// workload under each tier — bytecode only (`native_kernels` off) and
/// the native kernel tier — at its own sizes on the iPSC/860 model;
/// `--out vmcmp.json` is an `f90d-vmcmp/v5` document.
///
/// Always held (exit 1): the modelled times agree bit-for-bit, the
/// irregular program never leaves the native tier, and no program stages
/// a FORALL it is known to write in place. `--gate <factor>` also holds
/// the best comm-light workload (jacobi / gauss) to that native-over-
/// bytecode wall-clock factor — what notices the box kernels regressing
/// to per-element dispatch. Since the chunk-at-a-time bytecode evaluator
/// the factor is single digits (≈ 5× on jacobi-128, where it was 39×
/// over the per-element loop: the denominator got faster), so CI passes
/// `--gate 2.8`, half of what it measures.
fn exp_vmcmp(args: &Args) -> Vec<Report> {
    // `comm_light`: FORALL time dominates, so a tier has the whole job
    // to accelerate and the gate applies. The irregular kernel is the
    // other kind: inspector, schedule and executor work every tier
    // shares bounds it (native over bytecode measures 1.1–1.2× at
    // `--quick`, 1.6× at full size, under any floor worth holding), so
    // it is held to one thing only — every FORALL of it dispatches
    // native. `staged` is exact on every row: how many of the program's
    // native FORALL executions go through the stage (the Gaussian
    // diagonal shift, a strided write; none of its rank-1 updates).
    struct Case {
        name: String,
        src: String,
        grid: Vec<i64>,
        comm_light: bool,
        staged: u64,
    }
    let case = |name, src, grid: &[i64], comm_light, staged| Case {
        name,
        src,
        grid: grid.to_vec(),
        comm_light,
        staged,
    };
    let (nj, ng, ni) = if args.quick {
        (128, 64, 2048)
    } else {
        (256, 96, 4096)
    };
    let cases = [
        case(
            format!("jacobi {nj}, 4 sweeps, [2,2]"),
            workloads::jacobi(nj, 4),
            &[2, 2],
            true,
            0,
        ),
        case(
            format!("gauss {ng}, [4]"),
            workloads::gaussian(ng),
            &[4],
            true,
            1,
        ),
        case(
            format!("irregular {ni}, [4]"),
            workloads::irregular(ni),
            &[4],
            false,
            0,
        ),
    ];
    let spec = MachineSpec::ipsc860();
    let rows: Vec<(&Case, exp::TierRow)> = (cases.iter())
        .map(|c| (c, exp::tier_wallclock(&c.src, &c.grid, &spec)))
        .collect();
    let speedup = |r: &exp::TierRow| r.wall_vm_s / r.wall_native_s;
    let mut rep = Report::of(
        "Execution tiers — host wall-clock, bytecode vs native kernels (iPSC/860 model)",
        &rows,
    )
    .col("workload", "workload", |(c, _)| Val::Text(c.name.clone()))
    .col("", "comm_light", |(c, _)| Val::Flag(c.comm_light))
    .col("vm ms", "", |(_, r)| Val::Fixed(r.wall_vm_s * 1e3, 1))
    .col("native ms", "", |(_, r)| {
        Val::Fixed(r.wall_native_s * 1e3, 1)
    })
    .col("native vs vm", "", |(_, r)| Val::Ratio(speedup(r)))
    .col("matched/fallback", "", |(_, r)| {
        Val::Text(format!(
            "{}/{}",
            r.trace.native_matched, r.trace.native_fallback
        ))
    })
    .col("staged", "", |(_, r)| Val::Int(r.trace.native_staged))
    .col("virtual time equal", "", |(_, r)| Val::Flag(r.virt_equal))
    .col("", "wall_vm_s", |(_, r)| Val::Num(r.wall_vm_s))
    .col("", "wall_native_s", |(_, r)| Val::Num(r.wall_native_s))
    .col("", "virt_s", |(_, r)| Val::Num(r.virt_s))
    .col("", "virt_equal", |(_, r)| Val::Flag(r.virt_equal))
    .counters("native_kernels.", |(_, r)| &r.trace)
    .done();
    rep.meta = vec![
        ("schema", Json::Str("f90d-vmcmp/v5".into())),
        ("machine", Json::Str(spec.name.clone())),
    ];
    // Held whatever was asked for; a claim fails on the rows it names
    // (their counts are in the table above).
    type Holds<'a> = &'a dyn Fn(&Case, &exp::TierRow) -> bool;
    let claims: [(&str, &str, Holds); 3] = [
        ("virt_equal", "VIRTUAL TIME DRIFT between tiers", &|_, r| {
            r.virt_equal
        }),
        (
            "irregular_native",
            "IRREGULAR PATH LEFT THE NATIVE TIER (a FORALL fell back to bytecode)",
            &|c, r| c.comm_light || r.trace.native_fallback == 0,
        ),
        (
            "alias_rule",
            "ALIAS RULE MOVED (native FORALL executions staged)",
            &|c, r| r.trace.native_staged == c.staged,
        ),
    ];
    for (name, what, holds) in claims {
        let failed: Vec<&str> = (rows.iter().filter(|(c, r)| !holds(c, r)))
            .map(|(c, _)| c.name.as_str())
            .collect();
        rep.gate(
            name,
            failed.is_empty(),
            "",
            format!("{what} on: {failed:?}"),
        );
    }
    if let Some(need) = args.gate {
        // The gate holds the best comm-light row.
        let (name, best) = (rows.iter().filter(|(c, _)| c.comm_light))
            .map(|(c, r)| (c.name.as_str(), speedup(r)))
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or(("none", 0.0));
        rep.gate(
            "native_speedup",
            best >= need,
            &format!("native tier gate: native-vs-vm {best:.2}x on {name} (>= {need}x required): pass"),
            format!("NATIVE TIER GATE FAILED: best comm-light native-vs-vm speedup {best:.2}x ({name}) < {need}x"),
        );
    }
    vec![rep]
}

/// The §5.1/§7 communication–computation overlap claim on Jacobi: for
/// both machine models, temporary-shift vs blocking ghost-exchange vs
/// split-phase (`comm_compute_overlap`) execution, one row per run with
/// its host time and which tier ran its FORALLs. Exits 1 unless overlap
/// strictly lowers the modelled time with arrays and PRINT bit-identical
/// across all three, and unless the overlap run falls back to bytecode
/// exactly as often as the blocking run — CI runs it as a smoke gate.
/// `--out overlap.json` is an `f90d-overlap/v3` document.
fn exp_overlap(args: &Args) -> Vec<Report> {
    let (n, iters, p) = if args.quick { (48, 4, 2) } else { (128, 8, 4) };
    let rows = exp::overlap_experiment(n, iters, p);
    let runs: Vec<(&exp::OverlapRow, &exp::OverlapRun)> = (rows.iter())
        .flat_map(|row| row.runs.iter().map(move |run| (row, run)))
        .collect();
    let mut rep = Report::of(
        format!(
            "Overlap (§5.1/§7) — Jacobi {n}x{n}, {iters} sweeps, {p}x{p} grid: modelled seconds per shift strategy"
        ),
        &runs,
    )
    .col("machine", "machine", |(row, _)| Val::Text(row.machine.into()))
    .col("shifts", "strategy", |(_, run)| Val::Text(run.strategy.into()))
    .col("modelled s", "t_s", |(_, run)| Val::Fixed(run.t, 6))
    .col("vs overlap", "", |(row, run)| {
        Val::Ratio(run.t / row.run("overlap").t)
    })
    .col("bit-identical", "identical", |(_, run)| Val::Flag(run.identical))
    .col("host ms", "", |(_, run)| Val::Fixed(run.wall_s * 1e3, 2))
    .col("matched/fallback", "", |(_, run)| {
        Val::Text(format!(
            "{}/{}",
            run.trace.native_matched, run.trace.native_fallback
        ))
    })
    .col("", "wall_s", |(_, run)| Val::Num(run.wall_s))
    .counters("native_kernels.", |(_, run)| &run.trace)
    .done();
    rep.meta = vec![
        ("schema", Json::Str("f90d-overlap/v3".into())),
        ("n", num(n)),
        ("iters", num(iters)),
        ("grid", Json::Arr(vec![num(p), num(p)])),
    ];
    let machines = |held: fn(&exp::OverlapRow) -> bool| -> Vec<&str> {
        (rows.iter().filter(|r| !held(r)))
            .map(|r| r.machine)
            .collect()
    };
    let failed = machines(exp::OverlapRow::holds);
    rep.gate(
        "overlap",
        failed.is_empty(),
        "overlap < temporary and overlap < blocking on every machine, results bit-identical: yes",
        format!("OVERLAP CLAIM VIOLATED on: {failed:?}"),
    );
    let failed = machines(exp::OverlapRow::same_tier);
    rep.gate(
        "overlap_tier",
        failed.is_empty(),
        "overlap falls back to bytecode exactly as often as blocking on every machine: yes",
        format!(
            "OVERLAP LEFT THE NATIVE TIER (more bytecode fallbacks than blocking) on: {failed:?}"
        ),
    );
    vec![rep]
}

/// The phase-level communication planning claim (`OptFlags::comm_plan`,
/// PARTI-style message coalescing): the multi-array stencil and the
/// multigrid V-cycle under per-statement vs phase-batched ghost
/// exchanges, per machine model. Exits 1 unless arrays, PRINT and bytes
/// are bit-identical, the planner never loses, and it strictly wins
/// (fewer messages, lower modelled time) on the multi-array stencil;
/// `--gate <factor>` also requires that multi-stencil speedup on every
/// machine. `--out commplan.json` is an `f90d-commplan/v2` document.
fn exp_commplan(args: &Args) -> Vec<Report> {
    let (n, iters, p) = if args.quick { (48, 4, 4) } else { (128, 8, 4) };
    let rows = exp::commplan_experiment(n, iters, p);
    let mut rep = Report::of(
        format!(
            "Comm phases — {n} elements, {iters} sweeps, {p} procs: per-statement vs batched coalesced ghost exchanges (modelled seconds)"
        ),
        &rows,
    )
    .col("workload", "workload", |r| Val::Text(r.workload.into()))
    .col("machine", "machine", |r| Val::Text(r.machine.into()))
    .col("per-stmt", "t_per_stmt_s", |r| Val::Fixed(r.t_per_stmt, 6))
    .col("planned", "t_plan_s", |r| Val::Fixed(r.t_plan, 6))
    .col("speedup", "", |r| Val::Ratio(r.speedup()))
    .col("msgs off", "msgs_per_stmt", |r| Val::Int(r.msgs_per_stmt))
    .col("msgs on", "msgs_plan", |r| Val::Int(r.msgs_plan))
    .col("bit-identical", "", |r| {
        Val::Flag(r.arrays_identical && r.print_identical && r.bytes_equal)
    })
    .col("", "bytes_equal", |r| Val::Flag(r.bytes_equal))
    .col("", "arrays_identical", |r| Val::Flag(r.arrays_identical))
    .col("", "print_identical", |r| Val::Flag(r.print_identical))
    .col("", "gated", |r| Val::Flag(r.gated))
    .done();
    rep.meta = vec![
        ("schema", Json::Str("f90d-commplan/v2".into())),
        ("n", num(n)),
        ("iters", num(iters)),
        ("grid", Json::Arr(vec![num(p)])),
    ];
    if let Some(need) = args.gate {
        let (machine, worst) = (rows.iter().filter(|r| r.gated))
            .map(|r| (r.machine, r.speedup()))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap_or(("none", 0.0));
        rep.gate(
            "multi_stencil_speedup",
            worst >= need,
            &format!("comm-plan gate: worst multi-stencil speedup {worst:.2}x (>= {need}x required on every machine): pass"),
            format!("COMM-PLAN GATE FAILED: multi-stencil speedup {worst:.2}x on {machine} < {need}x"),
        );
    }
    let failed: Vec<String> = (rows.iter().filter(|r| !r.holds()))
        .map(|r| format!("{}/{}", r.workload, r.machine))
        .collect();
    rep.gate(
        "comm_plan",
        failed.is_empty(),
        "planned <= per-statement everywhere, strict win on the multi-array stencil, results bit-identical: yes",
        format!("COMM-PLAN CLAIM VIOLATED on: {failed:?}"),
    );
    vec![rep]
}

/// The thousand-rank weak-scaling sweep (`f90d_bench::scaling`): jacobi
/// and gaussian at P ∈ {16 … 4096} on hypercube vs torus vs fat tree,
/// each cell with the per-link contention model off and on. Exits 1
/// unless contention never improves a modelled time, every
/// contention-off curve is monotone in P, jacobi's weak-scaling
/// efficiency at P = 256 stays above the committed floor, and gaussian's
/// fat-tree contention slowdown stays under its cap at every P. `--quick` caps
/// gaussian at P ≤ 256 (jacobi still covers 4096 — the CI proof that a
/// 4096-rank machine fits); `--out scaling.json` is an `f90d-scaling/v1`
/// document.
fn exp_scaling(args: &Args) -> Vec<Report> {
    let t0 = Instant::now();
    let sweep = scaling::scaling_experiment(args.quick);
    let mut rep = Report::of(
        format!(
            "Weak scaling — jacobi + gaussian, P in {:?}, contention off/on{}",
            scaling::RANKS,
            if args.quick {
                " (quick: gaussian capped at P<=256)"
            } else {
                ""
            }
        ),
        &sweep.rows,
    )
    .col("workload", "workload", |r| Val::Text(r.workload.into()))
    .col("topology", "topology", |r| Val::Text(r.topology.into()))
    .col("P", "nranks", |r| Val::Int(r.nranks as u64))
    .col("N", "n", |r| Val::Int(r.n as u64))
    .col("t_off", "t_off_s", |r| Val::Fixed(r.time_off, 6))
    .col("t_on", "t_on_s", |r| Val::Fixed(r.time_on, 6))
    .col("slowdown", "", |r| {
        Val::Ratio(if r.time_off > 0.0 {
            r.time_on / r.time_off
        } else {
            1.0
        })
    })
    .col("messages", "messages", |r| Val::Int(r.messages))
    .col("links", "links_used", |r| Val::Int(r.links_used))
    .col("efficiency", "efficiency", |r| Val::Fixed(r.efficiency, 3))
    .done();
    rep.log.push(format!(
        "# scaling sweep wall-clock {:.1} s ({} cells)",
        t0.elapsed().as_secs_f64(),
        sweep.rows.len()
    ));
    let gates = (sweep.gates.iter().chain(&[("pass", sweep.holds())]))
        .map(|(k, v)| (k.to_string(), Json::Bool(*v)))
        .collect();
    rep.meta = vec![
        ("schema", Json::Str("f90d-scaling/v1".into())),
        ("quick", Json::Bool(args.quick)),
        ("base_spec", Json::Str("iPSC/860 constants".into())),
        (
            "jacobi_eff_floor_p256",
            Json::Num(scaling::JACOBI_EFF_FLOOR_P256),
        ),
        (
            "fattree_gaussian_slowdown_cap",
            Json::Num(scaling::FATTREE_GAUSSIAN_SLOWDOWN_CAP),
        ),
        ("gates", Json::Obj(gates)),
    ];
    let state: Vec<String> = (sweep.gates.iter())
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    rep.gate(
        "scaling",
        sweep.holds(),
        &format!(
            "contention never improves, curves monotone in P, jacobi efficiency(P=256) >= {:.2} on every topology, fat-tree gaussian slowdown <= {:.1}x: yes",
            scaling::JACOBI_EFF_FLOOR_P256,
            scaling::FATTREE_GAUSSIAN_SLOWDOWN_CAP
        ),
        format!("SCALING CLAIM VIOLATED: {}", state.join(" ")),
    );
    vec![rep]
}

/// Table 1: structured communication detection.
fn exp_t1(_: &Args) -> Vec<Report> {
    let vars = vec!["I".to_string()];
    let params = HashMap::new();
    let al = Some(DimAlign {
        tdim: 0,
        off: 0,
        block: true,
    });
    let var = Expr::Var("I".into());
    let cases: Vec<(&str, Expr, Expr)> = vec![
        ("(i, s)", var.clone(), Expr::Var("S".into())),
        ("(i, i+c)", var.clone(), var.clone().plus(2)),
        ("(i, i-c)", var.clone(), var.clone().plus(-2)),
        (
            "(i, i+s)",
            var.clone(),
            Expr::bin(BinOp::Add, var.clone(), Expr::Var("S".into())),
        ),
        (
            "(i, i-s)",
            var.clone(),
            Expr::bin(BinOp::Sub, var.clone(), Expr::Var("S".into())),
        ),
        ("(d, s)", Expr::Int(7), Expr::Int(2)),
        ("(i, i)", var.clone(), var.clone()),
    ];
    let rows: Vec<(&str, String)> = cases
        .into_iter()
        .map(|(name, lhs, rhs)| {
            let lp = classify_subscript(&lhs, &vars, &params);
            let rp = classify_subscript(&rhs, &vars, &params);
            let tag = classify_pair(&lp, &rp, al, al);
            (name, format!("{tag:?}"))
        })
        .collect();
    let title = "Table 1 — structured communication detection (BLOCK)";
    vec![Report::of(title, &rows)
        .col("pattern", "", |r| Val::Text(r.0.into()))
        .col("primitive", "", |r| Val::Text(r.1.clone()))
        .done()]
}

/// Table 2: unstructured communication detection.
fn exp_t2(_: &Args) -> Vec<Report> {
    let vars = vec!["I".to_string(), "J".to_string()];
    let params = HashMap::new();
    let f = Expr::bin(
        BinOp::Add,
        Expr::bin(BinOp::Mul, Expr::Int(2), Expr::Var("I".into())),
        Expr::Int(1),
    );
    let v = Expr::Ref(
        "V".into(),
        vec![f90d_frontend::ast::Subscript::Index(Expr::Var("I".into()))],
    );
    let unknown = Expr::bin(BinOp::Add, Expr::Var("I".into()), Expr::Var("J".into()));
    let rows: Vec<[&str; 3]> = [("f(i) = 2i+1", f), ("V(i)", v), ("i+j (unknown)", unknown)]
        .into_iter()
        .map(|(name, e)| {
            let p = classify_subscript(&e, &vars, &params);
            match f90d_core::detect::unstructured_of(&p) {
                f90d_core::detect::UnstructKind::PrecompRead => {
                    [name, "precomp_read", "postcomp_write"]
                }
                f90d_core::detect::UnstructKind::Gather => [name, "gather", "scatter"],
            }
        })
        .collect();
    let title = "Table 2 — unstructured communication detection";
    vec![Report::of(title, &rows)
        .col("pattern", "", |r| Val::Text(r[0].into()))
        .col("read RHS", "", |r| Val::Text(r[1].into()))
        .col("write LHS", "", |r| Val::Text(r[2].into()))
        .done()]
}

/// Table 3: intrinsic categories (coverage + modelled microbench).
fn exp_t3(_: &Args) -> Vec<Report> {
    let title = "Table 3 — intrinsic categories, 16-node iPSC/860 model, 64Ki elements";
    vec![Report::of(title, &exp::table3_microbench(1 << 16))
        .col("category", "", |r| Val::Text(r.0.into()))
        .col("intrinsic", "", |r| Val::Text(r.1.into()))
        .col("modelled time", "", |r| {
            Val::Text(format!("{:.3} ms", r.2 * 1e3))
        })
        .done()]
}

/// Figure 5: GE time vs N, 16 nodes, iPSC/860 vs nCUBE/2.
fn exp_fig5(_: &Args) -> Vec<Report> {
    let t0 = Instant::now();
    let sizes: Vec<i64> = (2..=19).map(|k| k * 16).collect();
    let title = "Figure 5 — Gaussian elimination, 16 nodes (seconds)";
    let mut rep = Report::of(title, &exp::fig5(&sizes, 16))
        .col("N", "", |r| Val::Int(r.0 as u64))
        .col("iPSC/860", "", |r| Val::Fixed(r.1, 4))
        .col("nCUBE/2", "", |r| Val::Fixed(r.2, 4))
        .done();
    rep.notes.push(wall_note("fig5", t0));
    vec![rep]
}

/// Table 4 (when asked for) and Figure 6, off one set of runs.
fn exp_table4_fig6(args: &Args, table4: bool) -> Vec<Report> {
    let t0 = Instant::now();
    let n = args.n();
    let rows = exp::table4(n, &[1, 2, 4, 8, 16]);
    // Both tables: PEs, then the hand-written and the compiled code.
    type Row = (i64, f64, f64);
    fn pes_hand_compiled(title: String, rows: &[Row]) -> Table<'_, Row> {
        Report::of(title, rows)
            .col("PEs", "", |r| Val::Int(r.0 as u64))
            .col("hand", "", |r| Val::Fixed(r.1, 2))
            .col("Fortran 90D", "", |r| Val::Fixed(r.2, 2))
    }
    let title4 =
        format!("Table 4 — hand-written vs compiled GE, {n}x{n}, iPSC/860 model (seconds)");
    let table4 = table4.then(|| {
        pes_hand_compiled(title4, &rows)
            .col("ratio", "", |r| Val::Fixed(r.2 / r.1, 3))
            .done()
    });
    let speedups = exp::fig6(&rows);
    let mut fig6 = pes_hand_compiled("Figure 6 — speedup vs sequential".into(), &speedups).done();
    fig6.notes.push(wall_note("table4/fig6", t0));
    table4.into_iter().chain([fig6]).collect()
}

/// Portability (§8.1): one compiled GE on three machine models.
fn exp_portability(_: &Args) -> Vec<Report> {
    let t0 = Instant::now();
    let title = "Portability (paper §8.1) — same compiled GE (N=128, P=16) on three machine models";
    let mut rep = Report::of(title, &exp::portability(128, 16))
        .col("machine", "", |r| Val::Text(r.0.clone()))
        .col("seconds", "", |r| Val::Fixed(r.1, 4))
        .done();
    rep.notes.push(wall_note("port", t0));
    vec![rep]
}

fn exp_abl_shift(_: &Args) -> Vec<Report> {
    let (m_on, m_off, t_on, t_off) = exp::ablation_merge_comm(64, 8);
    let title = "ABL-1 — §7(2) duplicate-communication elimination (GE kernel, N=64, P=8)";
    let rows = [("merged", m_on, t_on), ("unmerged", m_off, t_off)];
    let mut rep = Report::of(title, &rows)
        .col("variant", "", |r| Val::Text(r.0.into()))
        .col("messages", "", |r| Val::Int(r.1))
        .col("seconds", "", |r| Val::Fixed(r.2, 4))
        .done();
    // Also show the shift-union example from the paper.
    let src = "
PROGRAM UNI
INTEGER, PARAMETER :: N = 64
REAL A(N), B(N)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N-3) A(I) = B(I+2) + B(I+3)
END
";
    for (label, merge) in [("union", true), ("two shifts", false)] {
        let mut o = CompileOptions::on_grid(&[8]);
        o.opt.merge_comm = merge;
        let c = compile(src, &o).unwrap();
        rep.notes.push(format!(
            "  A(I)=B(I+2)+B(I+3): {label} -> {} overlap_shift call(s)",
            c.spmd.comm_census()["overlap_shift"]
        ));
    }
    vec![rep]
}

/// A two-variant ablation table of modelled seconds.
fn ablation(title: &str, variants: [(&str, f64); 2]) -> Vec<Report> {
    vec![Report::of(title, &variants)
        .col("variant", "", |r| Val::Text(r.0.into()))
        .col("seconds", "", |r| Val::Fixed(r.1, 4))
        .done()]
}

fn exp_abl_sched(_: &Args) -> Vec<Report> {
    let (t_reuse, t_no) = exp::ablation_schedule_reuse(4096, 8);
    ablation(
        "ABL-2 — §7(3) schedule reuse (irregular kernel, N=4096, P=8, 4 repeats)",
        [("reused", t_reuse), ("rebuilt", t_no)],
    )
}

fn exp_abl_fuse(_: &Args) -> Vec<Report> {
    let (t_fused, t_two) = exp::ablation_multicast_shift(256);
    ablation(
        "ABL-3 — §5.3.1 fused multicast_shift (N=256, 4x4 grid, 16 repeats)",
        [("fused", t_fused), ("two-step", t_two)],
    )
}

fn exp_abl_overlap(_: &Args) -> Vec<Report> {
    let (t_overlap, t_temp) = exp::ablation_overlap_shift(128, 8, 4);
    ablation(
        "ABL-4 — §5.1 overlap_shift vs temporary_shift (Jacobi 128x128, 4x4 grid, 8 sweeps)",
        [("overlap areas", t_overlap), ("temporaries", t_temp)],
    )
}
