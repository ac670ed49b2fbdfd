//! Harness equivalence and perf-gate contract:
//!
//! * `--jobs 8` must produce exactly the deterministic output of
//!   `--jobs 1` (canonical cell order, bit-exact virtual metrics);
//! * `diff_baseline` must pass on a clean rerun and fail on injected
//!   drift, missing cells, or extra cells.
//!
//! The cache-counter assertions live in the single matrix test — the
//! gate tests below operate on synthetic documents and never touch the
//! process-wide program cache.

use f90d_bench::harness::{self, MatrixConfig, Scale};
use f90d_core::RunTrace;
use f90d_machine::{budget, pool, ExecMode};
use serde::json::Json;

/// The Tiny-suite configuration on `jobs` harness workers.
fn tiny(jobs: usize) -> MatrixConfig {
    MatrixConfig {
        jobs,
        ..MatrixConfig::new(Scale::Tiny)
    }
}

/// Strip the `cache:` trailer — cross-run cache state (second run is all
/// hits) is process history, not a property of a matrix run.
fn cells_only(table: &str) -> String {
    table
        .lines()
        .filter(|l| !l.starts_with("cache:"))
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn jobs8_matches_jobs1_bit_exactly() {
    let cells = harness::matrix(Scale::Tiny);
    let serial = harness::run_matrix(&cells, &tiny(1));
    let parallel = harness::run_matrix(&cells, &tiny(8));
    assert_eq!(parallel.jobs, 8);

    // Canonical order, bit-exact virtual metrics, identical rendering.
    assert_eq!(serial.cells.len(), cells.len());
    for (a, b) in serial.cells.iter().zip(&parallel.cells) {
        assert_eq!(a.cell, b.cell, "cell order must be canonical");
        assert_eq!(
            a.run.elapsed.to_bits(),
            b.run.elapsed.to_bits(),
            "{}",
            a.cell.id()
        );
        assert_eq!(a.run.messages, b.run.messages, "{}", a.cell.id());
        assert_eq!(a.run.bytes, b.run.bytes, "{}", a.cell.id());
        assert_eq!(a.run.printed, b.run.printed, "{}", a.cell.id());
    }
    assert_eq!(
        cells_only(&harness::report(&serial).table()),
        cells_only(&harness::report(&parallel).table()),
        "deterministic stdout must be byte-identical across --jobs"
    );

    // The second run reused every lowering from the first: cross-run
    // sharing through the process-wide cache.
    assert_eq!(parallel.cache_hits(), cells.len() as u64);

    // Same for the schedule cache: the serial run built every distinct
    // (kind, grid, pattern) key, so the parallel rerun is all hits —
    // cross-run inspector reuse.
    let (hits, misses) = (parallel.total("sched_hits"), parallel.total("sched_misses"));
    assert_eq!(misses, 0, "second run must rebuild nothing");
    assert!(hits > 0, "tiny matrix has irregular cells");
    assert_eq!(
        serial.total("sched_hits") + serial.total("sched_misses"),
        hits,
        "same lookups per matrix run, split shifted to all-hit"
    );

    // And the serialized documents agree on the gated metrics, while the
    // schedule_cache stats block is carried along (never gated: the two
    // runs' splits differ).
    let a = harness::report_json(&serial);
    let b = harness::report_json(&parallel);
    for (doc, rep) in [(&a, &serial), (&b, &parallel)] {
        let block = doc.get("schedule_cache").expect("schedule_cache block");
        assert_eq!(
            block.get("hits").and_then(Json::as_u64),
            Some(rep.total("sched_hits"))
        );
        assert_eq!(
            block.get("misses").and_then(Json::as_u64),
            Some(rep.total("sched_misses"))
        );
    }
    harness::diff_baseline(&b, &a, None).expect("jobs=8 run must match jobs=1 baseline");
}

/// Stress test for the job queue: with `jobs ≫ cells` most workers find
/// the cursor already past the end, and every cell must still run
/// exactly once, in canonical order, and the matrix must terminate
/// every time (an earlier lock-based queue once deadlocked here).
#[test]
fn jobs_exceeding_cells_terminates() {
    let all = harness::matrix(Scale::Tiny);
    let cells = &all[..3];
    for _ in 0..10 {
        let rep = harness::run_matrix(cells, &tiny(32));
        assert_eq!(rep.cells.len(), 3, "every cell ran exactly once");
        for (c, want) in rep.cells.iter().zip(cells) {
            assert_eq!(&c.cell, want, "canonical order preserved");
        }
    }
}

/// `--exec threaded` end to end: bit-identical to the sequential matrix
/// in every gated metric, with at least one cell genuinely pooled, and
/// the sampled live pool-thread count never exceeding the configured
/// worker budget (`jobs × P` never materializes as threads).
#[test]
fn threaded_exec_matches_sequential_bit_exactly_within_budget() {
    const BUDGET: usize = 6;
    let cells = harness::matrix(Scale::Tiny);
    let seq = harness::run_matrix(&cells, &tiny(1));

    let mut cfg = tiny(2);
    cfg.exec = ExecMode::Threaded;
    cfg.budget = Some(BUDGET);
    let done = std::sync::atomic::AtomicBool::new(false);
    let max_live = std::sync::atomic::AtomicUsize::new(0);
    // Stops the sampler even when the matrix run panics — otherwise the
    // scope would join the sampler forever and a failure would hang.
    struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
    impl Drop for StopOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, std::sync::atomic::Ordering::SeqCst);
        }
    }
    let thr = std::thread::scope(|s| {
        s.spawn(|| {
            use std::sync::atomic::Ordering;
            while !done.load(Ordering::SeqCst) {
                max_live.fetch_max(pool::live_workers(), Ordering::SeqCst);
                std::thread::yield_now();
            }
        });
        let _stop = StopOnDrop(&done);
        harness::run_matrix(&cells, &cfg)
    });

    assert_eq!(thr.exec, ExecMode::Threaded);
    assert_eq!(thr.worker_budget, BUDGET);
    let sampled = max_live.load(std::sync::atomic::Ordering::SeqCst);
    assert!(
        sampled <= BUDGET,
        "sampled {sampled} live pool threads > budget {BUDGET}"
    );
    assert!(
        thr.cells.iter().any(|c| c.trace.workers >= 2),
        "at least one cell must have run on a real pool"
    );
    assert_eq!(budget::global().in_use(), 0, "all leases returned");

    for (a, b) in seq.cells.iter().zip(&thr.cells) {
        assert_eq!(a.cell, b.cell, "canonical order");
        assert_eq!(
            a.run.elapsed.to_bits(),
            b.run.elapsed.to_bits(),
            "{}",
            a.cell.id()
        );
        assert_eq!(a.run.messages, b.run.messages, "{}", a.cell.id());
        assert_eq!(a.run.bytes, b.run.bytes, "{}", a.cell.id());
        assert_eq!(a.run.printed, b.run.printed, "{}", a.cell.id());
        assert_eq!(a.trace.workers, 0, "sequential cells lease nothing");
    }
    assert_eq!(
        cells_only(&harness::report(&seq).table()),
        cells_only(&harness::report(&thr).table()),
        "deterministic stdout must be byte-identical across --exec"
    );
    // And the serialized documents gate clean against each other (the
    // per-cell `workers` and top-level exec/worker_budget fields are
    // informational, never compared).
    harness::diff_baseline(
        &harness::report_json(&thr),
        &harness::report_json(&seq),
        None,
    )
    .expect("threaded run must match sequential baseline");
}

/// A tiny synthetic results document (no cells are actually run).
fn synthetic() -> Json {
    Json::parse(
        r#"{
  "schema": "f90d-results/v2",
  "suite": "tiny",
  "jobs": 1,
  "wall_s": 1.0,
  "cache": {"hits": 1, "misses": 1},
  "cells": [
    {"workload": "gaussian", "n": 16, "grid": [4], "machine": "ipsc860",
     "virt_s": 0.125, "messages": 10, "bytes": 640,
     "printed": [], "wall_s": 0.5, "cache_hit": false},
    {"workload": "jacobi", "n": 12, "grid": [2, 2], "machine": "ncube2",
     "virt_s": 0.25, "messages": 8, "bytes": 128,
     "printed": ["SUM = 3.0"], "wall_s": 0.25, "cache_hit": true}
  ]
}"#,
    )
    .unwrap()
}

fn set_cell_field(doc: &mut Json, cell_idx: usize, field: &str, v: Json) {
    let Json::Obj(top) = doc else { panic!() };
    let cells = &mut top.iter_mut().find(|(k, _)| k == "cells").unwrap().1;
    let Json::Arr(cells) = cells else { panic!() };
    let Json::Obj(cell) = &mut cells[cell_idx] else {
        panic!()
    };
    cell.iter_mut().find(|(k, _)| k == field).unwrap().1 = v;
}

#[test]
fn gate_passes_clean_and_catches_each_drift_kind() {
    let base = synthetic();
    let summary = harness::diff_baseline(&base, &base, None).expect("identical docs pass");
    assert!(summary.contains("2 cells match"), "{summary}");

    // Virtual-time drift: even the last bit.
    let mut drift = synthetic();
    set_cell_field(
        &mut drift,
        0,
        "virt_s",
        Json::Num(0.125 + f64::EPSILON / 8.0),
    );
    let err = harness::diff_baseline(&drift, &base, None).unwrap_err();
    assert!(err.contains("virt_s"), "{err}");

    // Message-count drift.
    let mut drift = synthetic();
    set_cell_field(&mut drift, 1, "messages", Json::Num(9.0));
    let err = harness::diff_baseline(&drift, &base, None).unwrap_err();
    assert!(err.contains("messages 9 != baseline 8"), "{err}");

    // Byte-count drift.
    let mut drift = synthetic();
    set_cell_field(&mut drift, 0, "bytes", Json::Num(648.0));
    assert!(harness::diff_baseline(&drift, &base, None).is_err());

    // PRINT drift.
    let mut drift = synthetic();
    set_cell_field(&mut drift, 1, "printed", Json::Arr(vec![]));
    let err = harness::diff_baseline(&drift, &base, None).unwrap_err();
    assert!(err.contains("PRINT"), "{err}");

    // A cell vanishing from the run.
    let mut missing = synthetic();
    let Json::Obj(top) = &mut missing else {
        panic!()
    };
    let Json::Arr(cells) = &mut top.iter_mut().find(|(k, _)| k == "cells").unwrap().1 else {
        panic!()
    };
    cells.pop();
    let err = harness::diff_baseline(&missing, &base, None).unwrap_err();
    assert!(err.contains("missing from current run"), "{err}");
    // …and the reverse: baseline missing a cell the run has.
    let err = harness::diff_baseline(&base, &missing, None).unwrap_err();
    assert!(err.contains("not in baseline"), "{err}");

    // Suite mismatch refuses to compare at all.
    let mut other = synthetic();
    let Json::Obj(top) = &mut other else { panic!() };
    top.iter_mut().find(|(k, _)| k == "suite").unwrap().1 = Json::Str("full".into());
    assert!(harness::diff_baseline(&other, &base, None).is_err());

    // So does a `f90d-results/v1` baseline: it carried a `treewalk` twin
    // of every cell, which this harness would read as a duplicate.
    let mut v1 = synthetic();
    let Json::Obj(top) = &mut v1 else { panic!() };
    top.iter_mut().find(|(k, _)| k == "schema").unwrap().1 = Json::Str("f90d-results/v1".into());
    let err = harness::diff_baseline(&base, &v1, None).unwrap_err();
    assert!(err.contains("not a f90d-results/v2 document"), "{err}");
}

/// The `schedule_cache` stats block (and the per-cell sched counters)
/// are observability, not metrics: present, absent, or wildly different,
/// they must never gate a baseline diff — pre-cache baselines (like the
/// committed `BENCH_baseline.json` of PR 2) stay comparable, and the
/// split naturally shifts between runs as the process cache warms.
#[test]
fn schedule_cache_stats_never_gate() {
    let base = synthetic(); // has no schedule_cache block at all
    let add_stats = |doc: &mut Json, hits: f64, misses: f64| {
        let Json::Obj(top) = doc else { panic!() };
        top.push((
            "schedule_cache".into(),
            Json::Obj(vec![
                ("hits".into(), Json::Num(hits)),
                ("misses".into(), Json::Num(misses)),
            ]),
        ));
    };

    // Stats present in current, absent from baseline.
    let mut cur = synthetic();
    add_stats(&mut cur, 48.0, 0.0);
    harness::diff_baseline(&cur, &base, None).expect("new stats vs old baseline");
    // …and the reverse: an old run diffed against a stats-bearing baseline.
    harness::diff_baseline(&base, &cur, None).expect("old run vs new baseline");

    // Present on both sides with different values: still not gated.
    let mut warm = synthetic();
    add_stats(&mut warm, 48.0, 0.0);
    let mut cold = synthetic();
    add_stats(&mut cold, 0.0, 48.0);
    harness::diff_baseline(&warm, &cold, None).expect("warm vs cold split");

    // Per-cell sched counters are equally non-gating.
    let mut cells = synthetic();
    let Json::Obj(top) = &mut cells else { panic!() };
    let Json::Arr(arr) = &mut top.iter_mut().find(|(k, _)| k == "cells").unwrap().1 else {
        panic!()
    };
    let Json::Obj(cell) = &mut arr[0] else {
        panic!()
    };
    cell.push(("sched_hits".into(), Json::Num(7.0)));
    cell.push(("sched_misses".into(), Json::Num(3.0)));
    harness::diff_baseline(&cells, &base, None).expect("per-cell sched stats ignored");
}

#[test]
fn wall_clock_reported_not_gated_unless_asked() {
    let base = synthetic();
    let mut slow = synthetic();
    // 100x slower cell — by default reported in the summary, never a failure.
    set_cell_field(&mut slow, 0, "wall_s", Json::Num(50.0));
    let summary = harness::diff_baseline(&slow, &base, None).expect("wall clock is not gated");
    assert!(summary.contains("100.00x"), "{summary}");
    // Opt-in tolerance: now it fails.
    let err = harness::diff_baseline(&slow, &base, Some(3.0)).unwrap_err();
    assert!(err.contains("wall clock"), "{err}");
    // Within tolerance passes.
    harness::diff_baseline(&slow, &base, Some(200.0)).expect("within tolerance");
}

#[test]
fn results_json_round_trips() {
    let doc = synthetic();
    let parsed = Json::parse(&doc.render_pretty()).unwrap();
    assert_eq!(parsed, doc);
    harness::diff_baseline(&parsed, &doc, None).expect("round trip is drift-free");
}

/// `results.json` carries every counter of the trace, under the name
/// `RunTrace::counters` gives it (a dotted name nests) — so a counter
/// added to the trace cannot be dropped on the way to the document, as
/// `native_kernels.staged` once was.
#[test]
fn every_trace_counter_reaches_results_json() {
    let cells = harness::matrix(Scale::Tiny);
    let rep = harness::run_matrix(&cells[..1], &tiny(1));
    let doc = harness::report_json(&rep);
    let cell = &doc.get("cells").and_then(Json::as_arr).unwrap()[0];
    for (name, value) in rep.cells[0].trace.counters() {
        let found = name.split('.').try_fold(cell, |at, key| at.get(key));
        assert_eq!(
            found.and_then(Json::as_u64),
            Some(value),
            "counter {name} in {}",
            cell.render()
        );
    }
    assert!(RunTrace::default()
        .counters()
        .iter()
        .any(|(name, _)| *name == "native_kernels.staged"));
}

/// A `results.json` the parent commit wrote (eight cells of its `--quick`
/// matrix; it has no `native_kernels.staged`) still gates a run of this
/// harness: only `virt_s`, `messages`, `bytes` and `printed` are compared,
/// so a document may gain counters without a new schema.
#[test]
fn a_results_json_of_the_parent_commit_still_gates() {
    let base = Json::parse(include_str!("fixtures/results_parent.json")).unwrap();
    let kept = |c: &harness::Cell| {
        matches!(
            (c.workload, c.n, c.grid.as_slice()),
            ("gaussian", 96, [4])
                | ("jacobi", 96, [2, 2])
                | ("fft", 64, [4])
                | ("irregular", 4096, [4])
        )
    };
    let cells: Vec<_> = (harness::matrix(Scale::Quick).into_iter())
        .filter(kept)
        .collect();
    assert_eq!(cells.len(), 8);
    let run = harness::run_matrix(&cells, &MatrixConfig::new(Scale::Quick));
    let summary = harness::diff_baseline(&harness::report_json(&run), &base, None)
        .expect("the parent's document gates this run");
    assert!(
        summary.contains("8 cells match baseline bit-exactly"),
        "{summary}"
    );
}
