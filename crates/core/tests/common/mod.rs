//! The observation harness the tier-equivalence tests share: run one
//! program on one execution tier and collect everything the run shows.
#![allow(dead_code)] // each test binary uses its own part

use f90d_core::{compile, Backend, CompileOptions, RunTrace};
use f90d_distrib::ProcGrid;
use f90d_machine::{ArrayData, ExecMode, Machine, MachineSpec, Value};

/// Everything one run shows: the gathered arrays, every padded cell of
/// them on every rank (so a copy along a replicated grid axis counts),
/// every rank clock by bits, messages, bytes, PRINT and the tier tally
/// — or the run's error, with whether the transport was left quiescent.
#[derive(Debug, PartialEq)]
pub struct Observed {
    pub arrays: Vec<ArrayData>,
    pub cells: Vec<Vec<Value>>,
    /// `(array, row-major global element number, value)` of every
    /// element every rank holds — each copy of a replicated one.
    pub owned: Vec<(usize, usize, Value)>,
    pub clocks: Vec<u64>,
    pub messages: u64,
    pub bytes: u64,
    pub printed: Vec<String>,
}

#[derive(Clone, Copy, Debug)]
pub enum Tier {
    Native,
    Bytecode,
    TreeWalk,
}

pub fn observe(
    src: &str,
    grid: &[i64],
    arrays: &[&str],
    tier: Tier,
    exec: ExecMode,
) -> Result<(Observed, RunTrace), String> {
    observe_with(src, grid, arrays, tier, exec, &|_| {})
}

/// [`observe`] with `tweak` applied to the compile options first (an
/// optimizer flag, say).
pub fn observe_with(
    src: &str,
    grid: &[i64],
    arrays: &[&str],
    tier: Tier,
    exec: ExecMode,
    tweak: &dyn Fn(&mut CompileOptions),
) -> Result<(Observed, RunTrace), String> {
    let backend = match tier {
        Tier::TreeWalk => Backend::TreeWalk,
        _ => Backend::Vm,
    };
    let mut opts = CompileOptions::on_grid(grid).with_backend(backend);
    opts.opt.native_kernels = matches!(tier, Tier::Native);
    tweak(&mut opts);
    let compiled = compile(src, &opts).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    let mut m = Machine::with_mode(MachineSpec::ipsc860(), ProcGrid::new(grid), exec);
    let (rep, trace) = compiled.run_on_traced(&mut m).map_err(|e| {
        f90d_comm::driver::quiesce(&mut m).expect("a failed run leaks nothing in flight");
        e.to_string()
    })?;
    let images = match tier {
        Tier::TreeWalk => {
            let ex = f90d_core::Executor::new_preserving(&compiled.spmd, &mut m);
            (arrays.iter())
                .map(|a| ex.gather_array(&mut m, a).expect("array exists"))
                .collect()
        }
        _ => {
            let prog = compiled.vm_program().expect("lowers");
            let eng = f90d_vm::Engine::new_preserving(prog, &mut m);
            (arrays.iter())
                .map(|a| eng.gather_array(&mut m, a).expect("array exists"))
                .collect()
        }
    };
    let cells = (m.mems.iter())
        .flat_map(|mem| arrays.iter().map(move |a| mem.array(a)))
        .map(|seg| {
            let padded: i64 = (0..seg.rank()).map(|d| seg.padded_extent(d)).product();
            (0..padded as usize).map(|off| seg.get_flat(off)).collect()
        })
        .collect();
    let mut owned = Vec::new();
    for (rank, mem) in m.mems.iter().enumerate() {
        let coords = m.grid.coords_of(rank as i64);
        for (k, name) in arrays.iter().enumerate() {
            let decl = (compiled.spmd.arrays.iter())
                .find(|d| d.name == *name)
                .expect("array is declared");
            decl.dad.for_each_owned(&coords, |g, l| {
                let flat = g
                    .iter()
                    .zip(&decl.dad.shape)
                    .fold(0, |at, (&i, &n)| at * n + i);
                owned.push((k, flat as usize, mem.array(name).get(l)));
            });
        }
    }
    let observed = Observed {
        arrays: images,
        cells,
        owned,
        clocks: m.transport.clocks.iter().map(|c| c.to_bits()).collect(),
        messages: rep.messages,
        bytes: rep.bytes,
        printed: rep.printed,
    };
    Ok((observed, trace))
}
