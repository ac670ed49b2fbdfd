//! Everything above a single run: the suite (each workload in its own
//! child process), `--compare`, the determinism self-test, and the
//! `BENCHMARK.json` text.

use std::process::{ExitCode, Stdio};

use serde::json::Json;

use crate::measure::{median, run_self, MIN_OPS};
use crate::metrics::{self, Class, Def};
use crate::workloads::WORKLOADS;
use crate::Args;

/// The committed seed; `benchmark/README.md` names the hold-out seed.
pub const DEFAULT_SEED: u64 = 1993;
/// `run_seconds` of `BENCHMARK.json`.
pub const RUN_SECONDS: u64 = 12;

const SCHEMA: &str = "f90d-benchmark/v2";

/// The suite runs each workload in this many fresh processes and keeps
/// the median of every number: on a shared host one run in a few meets a
/// noisy stretch.
const SUITE_RUNS: usize = 3;

/// `BENCHMARK.json`, from the same tables the runs report by.
pub fn manifest() -> Json {
    let s = |x: &str| Json::Str(x.into());
    let better = |d: &Def| s(if d.lower { "lower" } else { "higher" });
    Json::Obj(vec![
        (
            "command".into(),
            Json::Arr(vec![s("bash"), s("benchmark/run.sh")]),
        ),
        ("paths".into(), Json::Arr(vec![s("benchmark")])),
        ("run_seconds".into(), Json::Num(RUN_SECONDS as f64)),
        (
            "workloads".into(),
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::Obj(vec![("name".into(), s(w.name)), ("why".into(), s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end".into(),
            Json::Arr(
                metrics::END_TO_END
                    .iter()
                    .map(|d| {
                        Json::Obj(vec![
                            ("name".into(), s(d.name)),
                            ("unit".into(), s(d.unit)),
                            ("better".into(), better(d)),
                            ("bound".into(), Json::Num(d.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer".into(),
            Json::Arr(
                metrics::per_layer()
                    .iter()
                    .map(|d| {
                        Json::Obj(vec![
                            ("name".into(), s(d.name)),
                            ("unit".into(), s(d.unit)),
                            ("better".into(), better(d)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn read_first_line(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path).ok()?.lines().find_map(|l| {
        l.strip_prefix(prefix)
            .map(|v| v.trim_start_matches([':', ' ', '\t']).trim().to_string())
    })
}

/// Where the numbers were taken.
fn host() -> Json {
    let s = |x: Option<String>| x.map_or(Json::Null, Json::Str);
    Json::Obj(vec![
        (
            "cpus".into(),
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        (
            "cpu_model".into(),
            s(read_first_line("/proc/cpuinfo", "model name")),
        ),
        (
            "mem_total".into(),
            s(read_first_line("/proc/meminfo", "MemTotal")),
        ),
        (
            "kernel".into(),
            s(std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .ok()
                .map(|v| v.trim().to_string())),
        ),
        ("os".into(), Json::Str(std::env::consts::OS.into())),
        ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
    ])
}

/// Run one workload in a child of this binary; returns its result line.
fn child(workload: &str, extra: &[String], quiet: bool) -> Result<Json, String> {
    let mut args = vec!["--workload".to_string(), workload.to_string()];
    args.extend_from_slice(extra);
    let stderr = if quiet {
        Stdio::null()
    } else {
        Stdio::inherit()
    };
    let text = run_self(&args, stderr)?;
    let mut lines = text.lines().rev();
    let last = lines
        .next()
        .ok_or_else(|| format!("{workload}: no output"))?;
    let mut result = Json::parse(last).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    // An untraced run prints the timings it may not report to the driver
    // on the line before; here they join the others.
    let shown = lines
        .next()
        .and_then(|l| Json::parse(l).ok())
        .and_then(|j| j.get("shown").cloned());
    if let (Json::Obj(fields), Some(Json::Obj(shown))) = (&mut result, shown) {
        if let Some((_, Json::Obj(metrics))) = fields.iter_mut().find(|(k, _)| k == "metrics") {
            metrics.extend(shown);
        }
    }
    Ok(result)
}

/// The three timings the issue named end-to-end metrics and the host
/// cannot hold a bound on (see [`metrics::END_TO_END`]): an untraced run
/// prints them beside the end-to-end metrics, the suite keeps them, and
/// `--compare` reports a difference beyond the issue's bound as
/// unresolved.
const ISSUE_TIMINGS: [&str; 3] = ["job_ms_p50", "job_ms_p90", "jobs_per_s"];
const ISSUE_BOUND: f64 = 0.10;

pub fn shown_untraced() -> Vec<Def> {
    let find = |name: &&str| metrics::per_layer().iter().find(|d| d.name == *name);
    ISSUE_TIMINGS.iter().filter_map(find).copied().collect()
}

/// The metrics a run of this kind reports to the driver.
pub fn defs_of(trace: bool) -> Vec<Def> {
    if trace {
        metrics::per_layer().to_vec()
    } else {
        metrics::END_TO_END.to_vec()
    }
}

/// The metrics the suite keeps of a run of this kind.
fn suite_defs(trace: bool) -> Vec<Def> {
    let mut defs = defs_of(trace);
    if !trace {
        defs.extend(shown_untraced());
    }
    defs
}

/// A metric of a single run's result line.
fn value(result: &Json, metric: &str) -> Option<f64> {
    result.get("metrics")?.get(metric)?.get("value")?.as_f64()
}

/// A metric of a results file's row (`name: value`; the units are in
/// `BENCHMARK.json`).
fn row_value(row: &Json, metric: &str) -> Option<f64> {
    row.get("metrics")?.get(metric)?.as_f64()
}

/// Every workload, each in its own process (the program's caches, the
/// worker budget and `VmHWM` are per process), printed by name and
/// written to `benchmark/out/results.json` (`results-trace.json` for a
/// traced suite).
pub fn run_all(a: &Args) -> Result<ExitCode, String> {
    let seed = a.seed.unwrap_or(DEFAULT_SEED);
    let seconds = a.seconds.unwrap_or(RUN_SECONDS as f64);
    let extra = [
        "--seed".to_string(),
        seed.to_string(),
        "--seconds".to_string(),
        seconds.to_string(),
        "--trace".to_string(),
        (a.trace as u8).to_string(),
    ];
    let defs = suite_defs(a.trace);
    let mut rows = Vec::new();
    let mut all_correct = true;
    // Round by round, not workload by workload: the runs of one workload
    // then lie minutes apart, and a noisy stretch of the host that lasts a
    // minute or two spoils one of them at most, which the median ignores.
    let mut results: Vec<Vec<Json>> = vec![Vec::new(); WORKLOADS.len()];
    for round in 1..=SUITE_RUNS {
        for (w, runs) in WORKLOADS.iter().zip(&mut results) {
            eprintln!("# round {round} of {SUITE_RUNS}: {} ...", w.name);
            runs.push(child(w.name, &extra, false)?);
        }
    }
    for (w, results) in WORKLOADS.iter().zip(&results) {
        let count = |key: &str| -> Vec<f64> {
            results
                .iter()
                .map(|r| r.get(key).and_then(Json::as_f64).unwrap_or(0.0))
                .collect()
        };
        let correct = results
            .iter()
            .all(|r| r.get("correct") == Some(&Json::Bool(true)));
        let attempted = median(&mut count("attempted"));
        let failed: f64 = count("failed").iter().sum();
        all_correct &= correct;
        println!(
            "{}: {attempted} ops, {failed} failed, {}",
            w.name,
            if correct { "correct" } else { "NOT CORRECT" }
        );
        let mut metrics = Vec::new();
        for d in &defs {
            let mut values: Vec<f64> = results.iter().filter_map(|r| value(r, d.name)).collect();
            if values.is_empty() {
                continue;
            }
            // The runs share a seed, so their exact metrics must agree.
            if d.class == Class::Exact && values.iter().any(|v| v.to_bits() != values[0].to_bits())
            {
                eprintln!(
                    "{} {}: {values:?} differ between runs of one seed",
                    w.name, d.name
                );
                all_correct = false;
            }
            let v = median(&mut values);
            println!("  {:<28} {:>16.6} {}", d.name, v, d.unit);
            metrics.push((d.name.to_string(), Json::Num(v)));
        }
        rows.push(Json::Obj(vec![
            ("name".into(), Json::Str(w.name.into())),
            ("correct".into(), Json::Bool(correct)),
            ("attempted".into(), Json::Num(attempted)),
            ("failed".into(), Json::Num(failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ]));
    }
    let out_dir = std::path::Path::new("benchmark/out");
    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    if a.trace {
        // One trace file for the whole suite, from the children's.
        let traces = WORKLOADS
            .iter()
            .filter_map(|w| {
                let text =
                    std::fs::read_to_string(out_dir.join(format!("trace-{}.json", w.name))).ok()?;
                Some((w.name.to_string(), Json::parse(&text).ok()?))
            })
            .collect();
        std::fs::write(
            out_dir.join("trace.json"),
            Json::Obj(traces).render_pretty(),
        )
        .map_err(|e| e.to_string())?;
    }
    let doc = Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("trace".into(), Json::Bool(a.trace)),
        ("seed".into(), Json::Num(seed as f64)),
        ("seconds".into(), Json::Num(seconds)),
        ("runs".into(), Json::Num(SUITE_RUNS as f64)),
        ("clients".into(), Json::Num(1.0)),
        ("loop".into(), Json::Str("closed".into())),
        ("host".into(), host()),
        ("workloads".into(), Json::Arr(rows)),
    ]);
    let path = out_dir.join(if a.trace {
        "results-trace.json"
    } else {
        "results.json"
    });
    std::fs::write(&path, doc.render_pretty()).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("# results written to {}", path.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("{path}: not a {SCHEMA} results file"));
    }
    Ok(doc)
}

/// Compare two results files of one kind (both untraced or both traced)
/// workload by workload, metric by metric. Timed metrics may differ by
/// their bound (per-layer ones have none and are only shown, the issue's
/// three timings as unresolved when they differ by more than its 10 %); exact
/// metrics, `failed` and correctness may not differ at all. `ops` is
/// shown, because the run length is fixed in seconds and it follows the
/// speed, but an untraced run below the op floor is a problem.
pub fn compare(path_a: &str, path_b: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    let trace = a.get("trace") == Some(&Json::Bool(true));
    if a.get("trace") != b.get("trace") {
        return Err("one file is a traced run and the other is not".into());
    }
    let mut problems = Vec::new();
    if a.get("seed") != b.get("seed") {
        problems.push("the seeds differ, so exact metrics cannot agree".to_string());
    }
    let rows = |doc: &Json| {
        doc.get("workloads")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let (rows_a, rows_b) = (rows(&a), rows(&b));
    let defs = suite_defs(trace);
    for w in &WORKLOADS {
        let find = |rows: &[Json]| {
            rows.iter()
                .find(|r| r.get("name").and_then(Json::as_str) == Some(w.name))
                .cloned()
        };
        let (Some(ra), Some(rb)) = (find(&rows_a), find(&rows_b)) else {
            problems.push(format!("{}: missing from one file", w.name));
            continue;
        };
        let count = |r: &Json, key: &str| r.get(key).and_then(Json::as_u64).unwrap_or(0);
        println!(
            "{}: ops {} vs {}, failed {} vs {}",
            w.name,
            count(&ra, "attempted"),
            count(&rb, "attempted"),
            count(&ra, "failed"),
            count(&rb, "failed")
        );
        for (r, which) in [(&ra, path_a), (&rb, path_b)] {
            if count(r, "failed") != 0 || r.get("correct") != Some(&Json::Bool(true)) {
                problems.push(format!("{}: not correct in {which}", w.name));
            }
            if !trace && count(r, "attempted") < MIN_OPS {
                problems.push(format!("{}: fewer than {MIN_OPS} ops in {which}", w.name));
            }
        }
        for d in &defs {
            let (Some(x), Some(y)) = (row_value(&ra, d.name), row_value(&rb, d.name)) else {
                problems.push(format!("{} {}: missing", w.name, d.name));
                continue;
            };
            let rel = if x == y {
                0.0
            } else {
                (y - x) / x.abs().max(f64::MIN_POSITIVE)
            };
            let unresolved = ISSUE_TIMINGS.contains(&d.name) && rel.abs() > ISSUE_BOUND;
            let verdict = match d.class {
                Class::Exact if x.to_bits() != y.to_bits() => "DIFFERS (must be exact)",
                Class::Timed if d.bound > 0.0 && rel.abs() > d.bound => "OUTSIDE BOUND",
                _ if unresolved => "unresolved (the host's own spread is wider than 10 %)",
                _ => "",
            };
            if !verdict.is_empty() && !unresolved {
                problems.push(format!("{} {}: {x} vs {y} {verdict}", w.name, d.name));
            }
            if !trace || !verdict.is_empty() {
                println!(
                    "  {:<28} {:>16.6} {:>16.6} {:>+8.2} % {} {verdict}",
                    d.name,
                    x,
                    y,
                    rel * 100.0,
                    d.unit
                );
            }
        }
    }
    if problems.is_empty() {
        println!("the two runs agree: timed metrics within their bounds, exact metrics equal");
        Ok(ExitCode::SUCCESS)
    } else {
        for p in &problems {
            eprintln!("compare: {p}");
        }
        Ok(ExitCode::from(1))
    }
}

/// Determinism and checker self-test: each workload twice in fresh
/// processes, through the time-boxed path of a real traced run (probes
/// and gates included) but short, and with two different `--seconds`, so
/// that the two runs hold different numbers of ops. They must agree on
/// every exact metric (modelled time bits, messages, bytes, cache
/// counters, PRINT hash), and a corrupted expected checksum must be
/// reported as failed.
pub fn selftest() -> Result<ExitCode, String> {
    let run = |name: &str, seconds: &str, corrupt: bool| {
        let mut extra: Vec<String> = ["--seed", "7", "--seconds", seconds, "--trace", "1"]
            .map(String::from)
            .to_vec();
        if corrupt {
            extra.push("--corrupt-expected".into());
        }
        // A corrupted run complains about every op; that is the point.
        child(name, &extra, corrupt)
    };
    let exact: Vec<Def> = defs_of(true)
        .into_iter()
        .filter(|d| d.class == Class::Exact)
        .collect();
    let mut bad = 0;
    for w in &WORKLOADS {
        let (first, second) = (run(w.name, "0.1", false)?, run(w.name, "2", false)?);
        let mut differing = Vec::new();
        for d in &exact {
            let (x, y) = (value(&first, d.name), value(&second, d.name));
            if x.map(f64::to_bits) != y.map(f64::to_bits) || x.is_none() {
                differing.push(format!("{} {x:?} vs {y:?}", d.name));
            }
        }
        let clean = first.get("failed").and_then(Json::as_u64) == Some(0)
            && first.get("correct") == Some(&Json::Bool(true));
        let corrupted = run(w.name, "0.1", true)?;
        let caught = corrupted.get("failed").and_then(Json::as_u64).unwrap_or(0) > 0
            && corrupted.get("correct") == Some(&Json::Bool(false));
        println!(
            "{:<18} repeat: {}  clean run correct: {}  corrupted checksum reported as failed: {}",
            w.name,
            if differing.is_empty() {
                format!("{} exact metrics identical", exact.len())
            } else {
                format!("DIFFERS in {}", differing.join("; "))
            },
            if clean { "yes" } else { "NO" },
            if caught { "yes" } else { "NO" },
        );
        bad += (!differing.is_empty()) as u32 + (!clean) as u32 + (!caught) as u32;
    }
    // The committed BENCHMARK.json must be the one the tables give.
    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        let same = Json::parse(&text).ok() == Some(manifest());
        println!(
            "BENCHMARK.json matches the metric and workload tables: {}",
            if same { "yes" } else { "NO" }
        );
        bad += !same as u32;
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
