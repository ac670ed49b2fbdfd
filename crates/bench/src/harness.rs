//! Parallel repro harness: the full (workload × size × grid × machine)
//! experiment matrix of the paper's §8 evaluation, run by a pool of
//! `std::thread::scope` workers sharing one cursor over the cells.
//!
//! Execution is *virtual-time* deterministic — every cell builds its own
//! [`Machine`], so the modelled seconds, message counts and byte counts
//! of a cell are identical no matter which worker runs it or in what
//! order. That is what makes the matrix CI-gateable: [`report`]'s table
//! emits only the deterministic columns in canonical cell order (so
//! `--jobs 8` output is byte-identical to `--jobs 1`), and
//! [`diff_baseline`] compares a run against a committed `results.json`
//! bit-exactly on the virtual metrics while only reporting wall clock.
//!
//! The shared hot state is two process-wide build-once caches: the VM
//! program cache (`f90d_core::vm_cache` — one lowering per (source,
//! options, grid) key) and the schedule cache
//! (`f90d_comm::sched_cache` — one inspector build per (kind, grid,
//! request-pattern) key, across cells *and* across repeated matrix
//! runs). Per-run hit/miss deltas for both are surfaced in the report;
//! neither cache changes a cell's virtual metrics.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use f90d_core::{compile, CompileOptions, ExecReport, RunTrace};
use f90d_distrib::ProcGrid;
use f90d_machine::{Machine, MachineSpec};
use serde::json::Json;

use crate::report::{shape_text, Report, Val};
use crate::workloads;

/// Matrix size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smallest cells — fast enough for debug-build unit tests.
    Tiny,
    /// CI preset (`repro --quick --jobs 4`): every shape, small sizes.
    Quick,
    /// Paper-scale sizes.
    Full,
}

impl Scale {
    /// Name recorded in `results.json` (baselines must match suites).
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Quick => "quick",
            Scale::Full => "full",
        }
    }
}

/// One experiment-matrix cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cell {
    /// Workload name: `gaussian`, `jacobi`, `fft`, `irregular`.
    pub workload: &'static str,
    /// Primary problem size (matrix side, grid side, vector length …).
    pub n: i64,
    /// Logical processor grid shape.
    pub grid: Vec<i64>,
    /// Machine model: `ipsc860` or `ncube2`.
    pub machine: &'static str,
}

impl Cell {
    /// Canonical id, e.g. `jacobi/n96/g2x2/ipsc860`.
    pub fn id(&self) -> String {
        format!(
            "{}/n{}/g{}/{}",
            self.workload,
            self.n,
            shape_text(&self.grid),
            self.machine
        )
    }

    fn source(&self) -> String {
        match self.workload {
            "gaussian" => workloads::gaussian(self.n),
            // Secondary parameters are fixed so a cell is fully described
            // by (workload, n): 4 Jacobi sweeps, FFT increment 2.
            "jacobi" => workloads::jacobi(self.n, 4),
            "fft" => workloads::fft_butterfly(self.n, 2),
            "irregular" => workloads::irregular(self.n),
            other => panic!("unknown workload {other}"),
        }
    }
}

/// The two machine models of the paper's evaluation, by matrix name.
pub const MACHINES: [&str; 2] = ["ipsc860", "ncube2"];

/// The model a [`MACHINES`] name stands for.
pub fn spec_of(machine: &str) -> MachineSpec {
    match machine {
        "ipsc860" => MachineSpec::ipsc860(),
        "ncube2" => MachineSpec::ncube2(),
        other => panic!("unknown machine {other}"),
    }
}

/// Deterministic metrics plus informational timing for one cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// The cell that produced this.
    pub cell: Cell,
    /// Modelled seconds, messages, payload bytes and PRINT output: the
    /// deterministic metrics, gated bit-exactly.
    pub run: ExecReport,
    /// Host wall clock for the run (informational — never gated by
    /// default, scheduling-dependent).
    pub wall_s: f64,
    /// The run's cache outcomes and tier counts. Informational, never
    /// gated: they explain host time and move no gated metric, and some
    /// (which cell of a key group lowers or builds a schedule) depend on
    /// job scheduling — only their totals over a run are deterministic.
    pub trace: RunTrace,
}

/// One full matrix run.
#[derive(Debug, Clone)]
pub struct MatrixReport {
    /// Suite preset name.
    pub suite: &'static str,
    /// Worker count used.
    pub jobs: usize,
    /// Wall clock of the whole run.
    pub wall_s: f64,
    /// Per-cell results, in canonical matrix order.
    pub cells: Vec<CellResult>,
}

impl MatrixReport {
    /// One [`RunTrace::counters`] entry summed over this run's cells.
    /// The caches are process-wide, so deltas of their own counters
    /// would also count whatever else the process ran meanwhile.
    /// (`sched_hits` + `sched_misses` is deterministic; the split
    /// depends on process cache history — a second matrix run in the
    /// same process is all hits.)
    pub fn total(&self, counter: &str) -> u64 {
        let of = |t: &RunTrace| {
            t.counters()
                .iter()
                .find(|(k, _)| *k == counter)
                .map(|c| c.1)
        };
        (self.cells.iter())
            .map(|c| of(&c.trace).unwrap_or_else(|| panic!("no counter {counter}")))
            .sum()
    }

    /// Cells that found their bytecode in the program cache; the rest
    /// performed a lowering (one per distinct key).
    pub fn cache_hits(&self) -> u64 {
        let hit = |c: &&CellResult| c.trace.program_cache_hit == Some(true);
        self.cells.iter().filter(hit).count() as u64
    }
}

/// Intern a serialized workload name back to the matrix's static name
/// (also validates it).
fn workload_of(name: &str) -> Option<&'static str> {
    ["gaussian", "jacobi", "fft", "irregular"]
        .into_iter()
        .find(|&w| w == name)
}

/// Intern a serialized machine name back to the matrix's static name.
fn machine_of(name: &str) -> Option<&'static str> {
    MACHINES.into_iter().find(|&m| m == name)
}

/// The experiment matrix at `scale`, in canonical order: workload, then
/// size, then grid, then machine.
pub fn matrix(scale: Scale) -> Vec<Cell> {
    // (workload, sizes, grids) per scale.
    type Row = (&'static str, Vec<i64>, Vec<Vec<i64>>);
    let rows: Vec<Row> = match scale {
        Scale::Tiny => vec![
            ("gaussian", vec![16], vec![vec![1], vec![4]]),
            ("jacobi", vec![12], vec![vec![2, 2]]),
            ("fft", vec![8], vec![vec![4]]),
            ("irregular", vec![64], vec![vec![4]]),
        ],
        Scale::Quick => vec![
            ("gaussian", vec![96, 160], vec![vec![1], vec![4], vec![8]]),
            ("jacobi", vec![96], vec![vec![2, 2], vec![4, 4]]),
            ("fft", vec![64], vec![vec![4], vec![8]]),
            ("irregular", vec![4096], vec![vec![4], vec![8]]),
        ],
        Scale::Full => vec![
            ("gaussian", vec![256, 512], vec![vec![1], vec![4], vec![16]]),
            ("jacobi", vec![256], vec![vec![2, 2], vec![4, 4]]),
            ("fft", vec![256], vec![vec![8], vec![16]]),
            ("irregular", vec![16384], vec![vec![8], vec![16]]),
        ],
    };
    let mut cells = Vec::new();
    for (workload, sizes, grids) in rows {
        for &n in &sizes {
            for grid in &grids {
                for machine in MACHINES {
                    cells.push(Cell {
                        workload,
                        n,
                        grid: grid.clone(),
                        machine,
                    });
                }
            }
        }
    }
    cells
}

/// Compile and run one cell on its own fresh [`Machine`], under `cfg`'s
/// schedule-cache and native-tier settings (every gated metric is
/// identical under either).
pub fn run_cell(cell: &Cell, cfg: &MatrixConfig) -> CellResult {
    let mut opts = CompileOptions::on_grid(&cell.grid);
    opts.sched_cache = cfg.sched_cache;
    opts.opt.native_kernels = cfg.native;
    let compiled =
        compile(&cell.source(), &opts).unwrap_or_else(|e| panic!("{} compiles: {e}", cell.id()));
    let mut m = Machine::new(spec_of(cell.machine), ProcGrid::new(&cell.grid));
    let t0 = Instant::now();
    let (run, trace) = compiled
        .run_on_traced(&mut m)
        .unwrap_or_else(|e| panic!("{} runs: {e:?}", cell.id()));
    CellResult {
        cell: cell.clone(),
        run,
        wall_s: t0.elapsed().as_secs_f64(),
        trace,
    }
}

/// How [`run_matrix`] runs a matrix: job count, suite name,
/// schedule-cache and native-tier toggles.
#[derive(Debug, Clone)]
pub struct MatrixConfig {
    /// Harness job threads (cells run concurrently).
    pub jobs: usize,
    /// Suite preset recorded in the report — the one the cells were
    /// built with ([`diff_baseline`] refuses cross-suite comparisons).
    pub scale: Scale,
    /// Consult the cross-run schedule cache (`--no-sched-cache` off).
    pub sched_cache: bool,
    /// Native kernel tier on (`repro --no-native` turns it off).
    pub native: bool,
}

impl MatrixConfig {
    /// Sequential single-job defaults for `scale`.
    pub fn new(scale: Scale) -> Self {
        MatrixConfig {
            jobs: 1,
            scale,
            sched_cache: true,
            native: true,
        }
    }
}

/// Run `cells` on `cfg.jobs` job threads; results come back in
/// canonical (input) order regardless of execution interleaving.
///
/// The job threads share one cursor over the cells: each takes the next
/// index with a `fetch_add` until the cursor passes the end, so every
/// cell runs exactly once and no job thread ever waits on another.
pub fn run_matrix(cells: &[Cell], cfg: &MatrixConfig) -> MatrixReport {
    let jobs = cfg.jobs.max(1);
    let t0 = Instant::now();

    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<CellResult>> = cells.iter().map(|_| OnceLock::new()).collect();

    std::thread::scope(|s| {
        for _ in 0..jobs {
            s.spawn(|| loop {
                // Relaxed: the cursor only hands out distinct indices;
                // results publish through the slots and the scope join.
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i) else { break };
                let _ = slots[i].set(run_cell(cell, cfg));
            });
        }
    });

    MatrixReport {
        suite: cfg.scale.name(),
        jobs,
        wall_s: t0.elapsed().as_secs_f64(),
        cells: slots
            .into_iter()
            .map(|s| s.into_inner().expect("every cell ran"))
            .collect(),
    }
}

/// The run as a [`Report`]. Its table is the deterministic view — one
/// row per cell in canonical order, virtual metrics at full precision,
/// plus the program-cache totals (scheduling-independent: misses =
/// distinct keys) — the `repro` stdout that must be byte-identical
/// across `--jobs` values. Its document is `results.json`
/// (`f90d-results/v2`): the gated columns, then the informational ones
/// ([`diff_baseline`] reads neither those nor the head) — wall clock,
/// `cache_hit`, and every [`RunTrace::counters`] entry.
pub fn report(rep: &MatrixReport) -> Report {
    let mut out = Report::of("", &rep.cells)
        .col("workload", "workload", |c| {
            Val::Text(c.cell.workload.into())
        })
        .col("n", "n", |c| Val::Int(c.cell.n as u64))
        .col("grid", "grid", |c| Val::Shape(c.cell.grid.clone()))
        .col("machine", "machine", |c| Val::Text(c.cell.machine.into()))
        .col("virt_s", "virt_s", |c| Val::Num(c.run.elapsed))
        .col("messages", "messages", |c| Val::Int(c.run.messages))
        .col("bytes", "bytes", |c| Val::Int(c.run.bytes))
        .col("", "printed", |c| Val::Lines(c.run.printed.clone()))
        .col("", "wall_s", |c| Val::Num(c.wall_s))
        .col("", "cache_hit", |c| {
            Val::Flag(c.trace.program_cache_hit == Some(true))
        })
        .counters("", |c| &c.trace)
        .done();
    let hits = rep.cache_hits();
    let misses = rep.cells.len() as u64 - hits;
    out.notes
        .push(format!("cache: hits={hits} misses={misses}"));
    let pair = |hits: u64, misses: u64| {
        Json::Obj(vec![
            ("hits".into(), Json::Num(hits as f64)),
            ("misses".into(), Json::Num(misses as f64)),
        ])
    };
    out.rows_key = "cells";
    out.meta = vec![
        ("schema", Json::Str("f90d-results/v2".into())),
        ("suite", Json::Str(rep.suite.into())),
        ("jobs", Json::Num(rep.jobs as f64)),
        ("wall_s", Json::Num(rep.wall_s)),
        ("cache", pair(hits, misses)),
        (
            "schedule_cache",
            pair(rep.total("sched_hits"), rep.total("sched_misses")),
        ),
    ];
    out
}

/// The `results.json` tree of a run (`f90d-results/v2`).
pub fn report_json(rep: &MatrixReport) -> Json {
    report(rep).document()
}

/// The deterministic projection of one serialized cell, used as the
/// comparison unit by [`diff_baseline`].
#[derive(Debug, PartialEq)]
struct CellMetrics {
    virt_bits: u64,
    messages: u64,
    bytes: u64,
    printed: Vec<String>,
    wall_s: f64,
}

/// Reconstruct the [`Cell`] a serialized entry describes and return its
/// canonical [`Cell::id`] — the one id format, shared with run panics
/// and table rendering, so baseline keys can never drift from it.
fn cell_key(c: &Json) -> Result<String, String> {
    let field = |k: &'static str| c.get(k).ok_or(k);
    let workload = field("workload")?.as_str().ok_or("workload")?;
    let machine = field("machine")?.as_str().ok_or("machine")?;
    let cell = Cell {
        workload: workload_of(workload).ok_or_else(|| format!("unknown workload {workload}"))?,
        n: field("n")?.as_f64().ok_or("n")? as i64,
        grid: field("grid")?
            .as_arr()
            .ok_or("grid")?
            .iter()
            .map(|d| d.as_f64().map(|f| f as i64).ok_or("grid".to_string()))
            .collect::<Result<_, _>>()?,
        machine: machine_of(machine).ok_or_else(|| format!("unknown machine {machine}"))?,
    };
    Ok(cell.id())
}

fn cell_metrics(c: &Json) -> Result<CellMetrics, String> {
    Ok(CellMetrics {
        virt_bits: c
            .get("virt_s")
            .and_then(Json::as_f64)
            .ok_or("virt_s")?
            .to_bits(),
        messages: c.get("messages").and_then(Json::as_u64).ok_or("messages")?,
        bytes: c.get("bytes").and_then(Json::as_u64).ok_or("bytes")?,
        printed: c
            .get("printed")
            .and_then(Json::as_arr)
            .unwrap_or(&[])
            .iter()
            .map(|s| s.as_str().unwrap_or("").to_string())
            .collect(),
        wall_s: c.get("wall_s").and_then(Json::as_f64).unwrap_or(0.0),
    })
}

fn doc_cells(doc: &Json) -> Result<Vec<(String, CellMetrics)>, String> {
    if doc.get("schema").and_then(Json::as_str) != Some("f90d-results/v2") {
        return Err("not a f90d-results/v2 document".into());
    }
    doc.get("cells")
        .and_then(Json::as_arr)
        .ok_or("document has no cells array")?
        .iter()
        .map(|c| {
            let key = cell_key(c).map_err(|e| format!("bad cell ({e})"))?;
            let m = cell_metrics(c).map_err(|e| format!("cell {key}: missing {e}"))?;
            Ok((key, m))
        })
        .collect()
}

/// Diff `current` against `baseline` (both `f90d-results/v2` trees).
///
/// Virtual time (bit-exact), message count, byte count, PRINT output and
/// the cell set itself are gated; any drift returns `Err` with one line
/// per mismatch. Wall clock is reported in the `Ok` summary and only
/// gated when `wall_tol` is `Some(factor)`: the run fails if any cell is
/// more than `factor`× slower than its baseline wall clock (CI leaves
/// this off — wall clock depends on the host).
pub fn diff_baseline(
    current: &Json,
    baseline: &Json,
    wall_tol: Option<f64>,
) -> Result<String, String> {
    let cur_suite = current.get("suite").and_then(Json::as_str);
    let base_suite = baseline.get("suite").and_then(Json::as_str);
    if cur_suite != base_suite {
        return Err(format!(
            "suite mismatch: current {cur_suite:?} vs baseline {base_suite:?}"
        ));
    }
    let cur = doc_cells(current)?;
    let base = doc_cells(baseline)?;
    let mut drift = Vec::new();
    let mut wall_worst: (f64, &str) = (0.0, "");
    for (key, b) in &base {
        match cur.iter().find(|(k, _)| k == key) {
            None => drift.push(format!("{key}: missing from current run")),
            Some((_, c)) => {
                if c.virt_bits != b.virt_bits {
                    drift.push(format!(
                        "{key}: virt_s {} != baseline {}",
                        f64::from_bits(c.virt_bits),
                        f64::from_bits(b.virt_bits)
                    ));
                }
                if c.messages != b.messages {
                    drift.push(format!(
                        "{key}: messages {} != baseline {}",
                        c.messages, b.messages
                    ));
                }
                if c.bytes != b.bytes {
                    drift.push(format!("{key}: bytes {} != baseline {}", c.bytes, b.bytes));
                }
                if c.printed != b.printed {
                    drift.push(format!("{key}: PRINT output differs from baseline"));
                }
                if b.wall_s > 0.0 {
                    let ratio = c.wall_s / b.wall_s;
                    if ratio > wall_worst.0 {
                        wall_worst = (ratio, key);
                    }
                    if let Some(tol) = wall_tol {
                        if ratio > tol {
                            drift.push(format!(
                                "{key}: wall clock {:.4}s > {tol}x baseline {:.4}s",
                                c.wall_s, b.wall_s
                            ));
                        }
                    }
                }
            }
        }
    }
    for (key, _) in &cur {
        if !base.iter().any(|(k, _)| k == key) {
            drift.push(format!("{key}: not in baseline (add it by regenerating)"));
        }
    }
    if drift.is_empty() {
        Ok(format!(
            "{} cells match baseline bit-exactly; worst wall-clock ratio {:.2}x ({})",
            base.len(),
            wall_worst.0,
            wall_worst.1
        ))
    } else {
        Err(drift.join("\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_order_is_canonical_and_ids_unique() {
        let cells = matrix(Scale::Quick);
        let ids: Vec<String> = cells.iter().map(Cell::id).collect();
        let mut dedup = ids.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate cell ids");
        // Canonical order: same every call.
        assert_eq!(
            ids,
            matrix(Scale::Quick)
                .iter()
                .map(Cell::id)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn every_scale_covers_all_workloads_and_machines() {
        for scale in [Scale::Tiny, Scale::Quick, Scale::Full] {
            let cells = matrix(scale);
            for w in ["gaussian", "jacobi", "fft", "irregular"] {
                assert!(cells.iter().any(|c| c.workload == w), "{scale:?} {w}");
            }
            assert!(cells.iter().any(|c| c.machine == "ncube2"));
        }
    }
}
