//! The end-to-end run of one workload: set-up, a closed loop of checked
//! jobs for `--seconds`, and the end-to-end metrics.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::metrics::Metrics;
use crate::workloads::{Checker, Input, Inputs, Outcome, Runner, Workload, WARMUP_BASE};

/// Set-up is measured this many times, each in a fresh process because
/// the program's caches are process-wide; the median is reported.
const SETUP_SAMPLES: usize = 3;

/// Every untraced run holds at least this many timed ops, however slow
/// the host: 12 samples then lie beyond `job_ms_p90`, and the exact
/// window (at most this long on a library workload) is always full.
pub const MIN_OPS: u64 = 120;

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty());
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The timings a shared host cannot hold a bound on: the median, the
/// 90th percentile and ops over time inside jobs, from ascending job
/// times in milliseconds.
pub fn timing_shown(sorted_ms: &[f64]) -> [(&'static str, f64); 3] {
    let busy_s = sorted_ms.iter().sum::<f64>() / 1e3;
    [
        ("job_ms_p50", percentile(sorted_ms, 0.5)),
        ("job_ms_p90", percentile(sorted_ms, 0.9)),
        ("jobs_per_s", sorted_ms.len() as f64 / busy_s),
    ]
}

pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// `VmHWM` of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A workload after set-up: inputs, a runner with its caches warm, and
/// the checker that has seen the warm-up ops.
pub struct Ready {
    pub inputs: Inputs,
    pub runner: Runner,
    pub checker: Checker,
    /// Process start to ready, in seconds.
    pub setup_s: f64,
}

/// Generate the sources, verify them with the reference interpreter,
/// start the daemon if the workload has one, and run the warm-up ops.
pub fn setup(workload: &'static Workload, seed: u64, started: Instant) -> Result<Ready, String> {
    let mut inputs = Inputs::new(workload, seed);
    let mut runner = Runner::start(workload)?;
    let mut checker = Checker::default();
    for i in 0..workload.warmup {
        let input = inputs.get(WARMUP_BASE + i)?;
        let out = runner.run(&input.program.source);
        checker
            .check(workload, &input.expected, &out)
            .map_err(|e| format!("warm-up op {i}: {e}"))?;
    }
    Ok(Ready {
        inputs,
        runner,
        checker,
        setup_s: started.elapsed().as_secs_f64(),
    })
}

/// Run this same binary in a fresh process and return its stdout.
pub fn run_self(args: &[String], stderr: Stdio) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(args)
        .stderr(stderr)
        .output()
        .map_err(|e| format!("child process: {e}"))?;
    if !out.status.success() {
        return Err(format!("child process {args:?} exited with {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Set-up times of fresh child processes.
fn setup_samples(workload: &Workload, seed: u64, n: usize) -> Result<Vec<f64>, String> {
    let args = [
        "--workload",
        workload.name,
        "--seed",
        &seed.to_string(),
        "--setup-only",
    ]
    .map(String::from);
    (0..n)
        .map(|_| {
            run_self(&args, Stdio::inherit())?
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up child printed no time: {e}"))
        })
        .collect()
}

/// What the closed loop recorded.
pub struct Loop {
    pub job_ms: Vec<f64>,
    pub failed: u64,
    /// Outcomes of the exact window's ops, in order.
    pub window: Vec<Outcome>,
    /// `VmHWM` when the exact window closed.
    pub window_rss_mb: f64,
}

/// The closed loop: one client, the next job starts when the previous
/// one has been answered and checked. Only `run` is timed; producing the
/// input (and its reference answer), checking the output and `after`
/// are not. The loop runs for `seconds` and for at least `min_ops` ops.
/// Ops are numbered from `first_op`; the first `window_ops` of them are
/// the exact window, which `min_ops` must cover, so that what is taken
/// over it never depends on the speed of the host.
pub fn closed_loop(
    ready: &mut Ready,
    seconds: f64,
    min_ops: u64,
    first_op: u64,
    window_ops: u64,
    mut run: impl FnMut(&mut Runner, u64, &str) -> Result<Outcome, String>,
    mut after: impl FnMut(&mut Runner, u64, &Input) -> Result<(), String>,
) -> Result<Loop, String> {
    assert!(min_ops >= window_ops.max(1));
    let workload = ready.runner.workload;
    let begun = Instant::now();
    // Room for the whole run up front: the loop's own records must not
    // grow between the jobs whose memory `peak_rss_mb` reports.
    let mut rec = Loop {
        job_ms: Vec::with_capacity(1 << 16),
        failed: 0,
        window: Vec::with_capacity(window_ops as usize),
        window_rss_mb: 0.0,
    };
    loop {
        let done = rec.job_ms.len() as u64;
        let op = first_op + done;
        let input = ready.inputs.get(op)?;
        let t = Instant::now();
        let out = run(&mut ready.runner, op, &input.program.source);
        rec.job_ms.push(t.elapsed().as_secs_f64() * 1e3);
        if let Err(e) = ready.checker.check(workload, &input.expected, &out) {
            rec.failed += 1;
            if rec.failed <= 3 {
                eprintln!("{}: op {op} failed: {e}", workload.name);
            }
        }
        if done < window_ops {
            rec.window.extend(out.ok());
            if done + 1 == window_ops {
                rec.window_rss_mb = peak_rss_mb();
            }
        }
        after(&mut ready.runner, done + 1, &input)?;
        if done + 1 >= min_ops && begun.elapsed() >= Duration::from_secs_f64(seconds) {
            return Ok(rec);
        }
    }
}

/// `virt_s` of a run: the median over the exact window.
pub fn window_virt_s(window: &[Outcome]) -> f64 {
    let mut v: Vec<f64> = window.iter().map(|o| o.virt_s).collect();
    if v.is_empty() {
        return 0.0;
    }
    median(&mut v)
}

pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The untraced run: the end-to-end metrics of one workload.
pub fn run(workload: &'static Workload, seed: u64, seconds: f64) -> Result<RunResult, String> {
    let mut setups = setup_samples(workload, seed, SETUP_SAMPLES - 1)?;
    // This process's own set-up is one more sample, timed from here
    // (the children above are not part of it).
    let mut ready = setup(workload, seed, Instant::now())?;
    setups.push(ready.setup_s);
    let rec = closed_loop(
        &mut ready,
        seconds,
        MIN_OPS.max(workload.exact_ops),
        0,
        workload.exact_ops,
        |runner, _, source| runner.run(source),
        |_, _, _| Ok(()),
    )?;
    ready.runner.stop()?;
    let mut m = Metrics::default();
    m.set("setup_s", median(&mut setups));
    let mut sorted = rec.job_ms;
    sorted.sort_by(f64::total_cmp);
    m.set("job_ms_p10", percentile(&sorted, 0.1));
    // Printed and kept in the suite's results, but reported to the
    // driver per layer only (see END_TO_END).
    for (name, value) in timing_shown(&sorted) {
        m.set(name, value);
    }
    m.set("virt_s", window_virt_s(&rec.window));
    m.set("peak_rss_mb", rec.window_rss_mb);
    Ok(RunResult {
        correct: rec.failed == 0,
        attempted: sorted.len() as u64,
        failed: rec.failed,
        metrics: m,
    })
}
