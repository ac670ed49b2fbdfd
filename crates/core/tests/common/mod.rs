//! The observation harness the tier-equivalence tests share: run one
//! program on one execution tier and collect everything the run shows.
#![allow(dead_code)] // each test binary uses its own part

use f90d_core::{compile, CompileOptions, RunTrace};
use f90d_distrib::ProcGrid;
use f90d_machine::{ArrayData, Machine, MachineSpec, Value};

/// Everything one run shows: the gathered arrays, every padded cell of
/// them on every rank (so a copy along a replicated grid axis counts),
/// every rank clock by bits, messages, bytes, PRINT and the primitives
/// the run called — or the run's error, with whether the transport was
/// left quiescent.
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
    /// `m.stats.sorted()`: calls per communication primitive, schedule
    /// builders included even where the schedule cache skipped a build.
    pub stats: Vec<(&'static str, u64)>,
}

impl Observed {
    /// Modelled elapsed time: the latest rank clock.
    pub fn elapsed(&self) -> f64 {
        (self.clocks.iter().map(|&c| f64::from_bits(c))).fold(0.0, f64::max)
    }
}

/// The arrays `arrays` and the PRINT lines the sequential reference
/// interpreter leaves for `src`.
pub fn reference(src: &str, grid: &[i64], arrays: &[&str]) -> (Vec<ArrayData>, Vec<String>) {
    let compiled = compile(src, &CompileOptions::on_grid(grid)).expect("compiles");
    let state = f90d_core::reference::run_reference(&compiled.analyzed, &Default::default())
        .expect("the reference interpreter runs");
    let images = (arrays.iter())
        .map(|a| state.arrays[*a].data.clone())
        .collect();
    (images, state.printed)
}

/// The two execution tiers of the one engine: `native_kernels` on (the
/// default) and off.
#[derive(Clone, Copy, Debug)]
pub enum Tier {
    Native,
    Bytecode,
}

pub fn observe(
    src: &str,
    grid: &[i64],
    arrays: &[&str],
    tier: Tier,
) -> Result<(Observed, RunTrace), String> {
    observe_with(src, grid, arrays, tier, &|_| {})
}

/// [`observe`] with `tweak` applied to the compile options first (an
/// optimizer flag, say).
pub fn observe_with(
    src: &str,
    grid: &[i64],
    arrays: &[&str],
    tier: Tier,
    tweak: &dyn Fn(&mut CompileOptions),
) -> Result<(Observed, RunTrace), String> {
    let spec = MachineSpec::ipsc860();
    observe_on(&spec, src, grid, arrays, tier, tweak)
}

/// [`observe_with`] on another machine model.
pub fn observe_on(
    spec: &MachineSpec,
    src: &str,
    grid: &[i64],
    arrays: &[&str],
    tier: Tier,
    tweak: &dyn Fn(&mut CompileOptions),
) -> Result<(Observed, RunTrace), String> {
    let mut opts = CompileOptions::on_grid(grid);
    opts.opt.native_kernels = matches!(tier, Tier::Native);
    tweak(&mut opts);
    let compiled = compile(src, &opts).unwrap_or_else(|e| panic!("compile failed: {e}\n{src}"));
    let mut m = Machine::new(spec.clone(), ProcGrid::new(grid));
    let (rep, trace) = compiled.run_on_traced(&mut m).map_err(|e| {
        f90d_comm::driver::quiesce(&mut m).expect("a failed run leaks nothing in flight");
        e.to_string()
    })?;
    // The run's clocks and calls: gathering to the host below adds its own.
    let clocks = m.transport.clocks.iter().map(|c| c.to_bits()).collect();
    let stats = m.stats.sorted();
    let eng = compiled.engine_preserving(&mut m).expect("lowers");
    let images = (arrays.iter())
        .map(|a| eng.gather_array(&mut m, a).expect("array exists"))
        .collect();
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
        clocks,
        messages: rep.messages,
        bytes: rep.bytes,
        printed: rep.printed,
        stats,
    };
    Ok((observed, trace))
}
