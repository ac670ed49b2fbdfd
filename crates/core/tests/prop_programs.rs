//! The differential properties of the compiler, each stated once, over
//! programs of the seeded grammar of `f90d-progen` under each of its
//! configurations. Every program runs on its grid and a machine of its
//! configuration, on both tiers, under every combination of `comm_plan`
//! and `comm_compute_overlap`, with the schedule cache cold, warm and
//! off. A failing program is shrunk (`progen::shrink`) and printed.

mod common;

use common::{observe_on, Observed, Tier};
use f90d_core::reference::run_reference;
use f90d_core::{compile, CompileOptions, RunTrace};
use f90d_machine::MachineSpec;
use f90d_progen::{generate, shrink, Program, CONFIGS};

/// Programs per configuration.
const CASES: u64 = if cfg!(debug_assertions) { 12 } else { 48 };

macro_rules! ensure {
    ($cond:expr, $($msg:tt)+) => {
        if !$cond {
            return Err(format!($($msg)+));
        }
    };
}

fn check(p: &Program, spec: &MachineSpec) -> Result<(), String> {
    let (src, facts, names) = (p.source(), p.facts(), &p.arrays[..]);
    let compiled = compile(&src, &CompileOptions::on_grid(&p.grid))?;
    let want = run_reference(&compiled.analyzed, &Default::default())?;
    let run = |tier, overlap, plan, cache| -> Result<(Observed, RunTrace), String> {
        let flags = |o: &mut CompileOptions| {
            (o.opt.comm_compute_overlap, o.opt.comm_plan, o.sched_cache) = (overlap, plan, cache)
        };
        (observe_on(spec, &src, &p.grid, names, tier, &flags))
            .map_err(|e| format!("{tier:?} at overlap={overlap} plan={plan}: {e}"))
    };
    // The anchor: bytecode, both timing flags off. The reference
    // interpreter is its oracle, and it is every other run's.
    let (anchor, _) = run(Tier::Bytecode, false, false, true)?;
    for (name, got) in names.iter().zip(&anchor.arrays) {
        let equal = !facts.compare.contains(name) || *got == want.arrays[*name].data;
        ensure!(equal, "{name} vs the reference");
    }
    let printed = &anchor.printed;
    ensure!(*printed == want.printed, "PRINT: {printed:?}");
    let called = |names: [&str; 2]| anchor.stats.iter().any(|(n, _)| names.contains(n));
    let schedules = called(["gather", "precomp_read"]) && called(["scatter", "postcomp_write"]);
    let one_rank = p.grid.iter().product::<i64>() == 1;
    let schedules = !facts.gather_scatter || one_rank || schedules;
    ensure!(schedules, "schedules: {:?}", anchor.stats);
    let paid = spec.alpha > 0.0; // a saved message saves time
    let mut all_on = None;
    for (overlap, plan) in [(false, false), (false, true), (true, false), (true, true)] {
        let at = format!("at overlap={overlap} plan={plan}");
        let (vm, vm_trace) = run(Tier::Bytecode, overlap, plan, true)?;
        let (nat, nat_trace) = run(Tier::Native, overlap, plan, true)?;
        ensure!(vm == nat, "bytecode vs native {at}");
        ensure!(vm_trace.native_matched == 0, "native on {at}");
        let reused = (vm_trace.dispatch_reused, nat_trace.dispatch_reused);
        let count = facts.dispatch_reused.map(|n| (n, n));
        let lists = count.is_none_or(|c| c == reused);
        ensure!(lists, "lists reused {at}: {reused:?}, {count:?}");
        let results = (&vm.arrays, &vm.printed) == (&anchor.arrays, &anchor.printed);
        ensure!(results, "arrays or PRINT {at} vs the anchor");
        let traffic = (vm.messages, vm.bytes) == (anchor.messages, anchor.bytes);
        let (t, t0) = (vm.elapsed(), anchor.elapsed());
        let fewer = vm.messages < anchor.messages;
        // A phase sends an exchange its members repeat once.
        let bytes = vm.bytes == anchor.bytes || fewer && vm.bytes < anchor.bytes;
        let planned = vm.messages <= anchor.messages && bytes;
        match (overlap, plan) {
            (false, false) => ensure!(vm == anchor, "warm vs the anchor"),
            (true, false) => {
                ensure!(traffic, "messages or bytes {at}");
                // Where the split may charge a statement as two sums, they
                // may round up on a rank that waits for nothing.
                let timely = t <= t0 * (1.0 + [0.0, 1e-12][facts.two_sums as usize]);
                ensure!(timely, "overlap added time: {t} vs {t0}");
                let shorter = !facts.overlap || !paid || t < t0;
                ensure!(shorter, "overlap did not shorten a stencil");
            }
            (false, true) => {
                ensure!(planned, "comm_plan traffic {at}");
                ensure!(!facts.narrow || t <= t0, "comm_plan added time: {t}");
                // A saved startup saves time where every rank computes an
                // equal share, so the receivers wait for their messages.
                let faster = !paid || !facts.narrow || t < t0;
                let saved = !fewer || facts.masked || faster;
                ensure!(saved, "fewer messages, no less time");
                let coalesced = !facts.coalesce || fewer && faster;
                ensure!(coalesced, "comm_plan did not coalesce and win");
            }
            (true, true) => {
                ensure!(planned, "comm_plan traffic {at}");
                all_on = Some(nat);
            }
        }
    }
    let (again, _) = run(Tier::Native, true, true, true)?;
    ensure!(Some(again) == all_on, "the same configuration twice");
    let (off, _) = run(Tier::Bytecode, false, false, false)?;
    ensure!(off == anchor, "schedule cache off vs on");
    Ok(())
}

/// Check `CASES` programs of configuration `name`; panic with the first
/// failure, shrunk while the same property fails.
fn programs(name: &str) {
    let cfg = CONFIGS.iter().find(|c| c.name == name).unwrap();
    for seed in 0..CASES {
        let p = generate(cfg, seed);
        let spec = match cfg.machines[seed as usize % cfg.machines.len()] {
            "ideal" => MachineSpec::ideal(),
            "ipsc860" => MachineSpec::ipsc860(),
            _ => MachineSpec::ncube2(),
        };
        let Err(e) = check(&p, &spec) else {
            continue;
        };
        let property = |e: &str| e.split(':').next().unwrap_or_default().to_string();
        let fails = |q: &Program| check(q, &spec).is_err_and(|f| property(&f) == property(&e));
        let small = shrink(&p, fails).source();
        let (grid, machine) = (&p.grid, &spec.name);
        panic!("{name} program {seed} on {grid:?}, {machine}: {e}\nminimized:\n{small}");
    }
}

#[test]
fn regular_programs() {
    programs("regular");
}

#[test]
fn irregular_programs() {
    programs("irregular");
}

#[test]
fn comm_programs() {
    programs("comm");
}

#[test]
fn cold_programs() {
    programs("cold");
}
