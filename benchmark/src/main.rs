//! The repo benchmark. `benchmark/run.sh` builds this and passes its
//! arguments through; see `benchmark/README.md` for the method.
//!
//! ```text
//! run.sh --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! run.sh [--trace] [--seed N] [--seconds S]             every workload, each in its own process
//! run.sh --compare A.json B.json                         do two result files agree?
//! run.sh --selftest                                      determinism and checker self-test
//! ```

mod layers;
mod measure;
mod metrics;
mod programs;
mod suite;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use serde::json::Json;

use measure::RunResult;

/// Parsed command line.
#[derive(Debug, Default)]
pub struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    compare: Option<(String, String)>,
    selftest: bool,
    setup_only: bool,
    corrupt_expected: bool,
    emit_manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args::default();
    let mut it = argv.iter().peekable();
    let value = |it: &mut std::iter::Peekable<std::slice::Iter<'_, String>>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} expects a value"))
    };
    let number = |s: String, flag: &str| {
        s.parse::<f64>()
            .map_err(|_| format!("{flag}: `{s}` is not a number"))
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => a.workload = Some(value(&mut it, flag)?),
            "--seed" => {
                let s = value(&mut it, flag)?;
                a.seed = Some(
                    s.parse()
                        .map_err(|_| format!("--seed: `{s}` is not a whole number"))?,
                );
            }
            "--seconds" => a.seconds = Some(number(value(&mut it, flag)?, flag)?),
            // `--trace 0|1` in the driver's form, a bare `--trace` for the suite.
            "--trace" => {
                a.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--compare" => a.compare = Some((value(&mut it, flag)?, value(&mut it, flag)?)),
            "--selftest" => a.selftest = true,
            // Used by this binary on its own children.
            "--setup-only" => a.setup_only = true,
            "--corrupt-expected" => a.corrupt_expected = true,
            // Print BENCHMARK.json from the tables in metrics.rs and
            // workloads.rs (the self-test checks the committed file).
            "--emit-manifest" => a.emit_manifest = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(a)
}

/// The last line of a single run: exactly the keys the driver reads.
fn result_line(r: &RunResult, defs: &[metrics::Def]) -> String {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(r.correct)),
        ("attempted".into(), Json::Num(r.attempted as f64)),
        ("failed".into(), Json::Num(r.failed as f64)),
        ("metrics".into(), r.metrics.to_json(defs)),
    ])
    .render()
}

fn single(a: &Args, name: &str, started: Instant) -> Result<ExitCode, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let names: Vec<_> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!(
            "unknown workload `{name}`; the workloads are {}",
            names.join(", ")
        )
    })?;
    let seed = a.seed.unwrap_or(suite::DEFAULT_SEED);
    if a.setup_only {
        let ready = measure::setup(workload, seed, started)?;
        println!("{}", ready.setup_s);
        ready.runner.stop()?;
        return Ok(ExitCode::SUCCESS);
    }
    workloads::set_corrupt_expected(a.corrupt_expected);
    let seconds = a.seconds.unwrap_or(suite::RUN_SECONDS as f64);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let result = if a.trace {
        layers::run(workload, seed, seconds)?
    } else {
        measure::run(workload, seed, seconds)?
    };
    let defs = suite::defs_of(a.trace);
    println!(
        "{} seed {seed}: {} ops, {} failed{}",
        workload.name,
        result.attempted,
        result.failed,
        if a.trace { " (traced run)" } else { "" }
    );
    result.metrics.print(&defs);
    if !a.trace {
        // Shown beside the end-to-end metrics, not reported to the driver.
        for d in &suite::shown_untraced() {
            if let Some(v) = result.metrics.get(d.name) {
                println!("  {:<28} {v:>16.6} {} (per-layer metric)", d.name, d.unit);
            }
        }
    }
    if !a.trace {
        // For the suite, which keeps them in its results file; the
        // driver reads the last line only.
        let shown = result.metrics.to_json(&suite::shown_untraced());
        println!("{}", Json::Obj(vec![("shown".into(), shown)]).render());
    }
    println!("{}", result_line(&result, &defs));
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|a| {
        if a.emit_manifest {
            print!("{}", suite::manifest().render_pretty());
            Ok(ExitCode::SUCCESS)
        } else if let Some((x, y)) = &a.compare {
            suite::compare(x, y)
        } else if a.selftest {
            suite::selftest()
        } else if let Some(name) = &a.workload {
            single(&a, name, started)
        } else {
            suite::run_all(&a)
        }
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("f90d-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
