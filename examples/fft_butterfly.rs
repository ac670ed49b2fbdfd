//! Paper §4 example 2: a FORALL whose left-hand side is *non-canonical*
//! (`x(i + j*incrm*2 - incrm)` mixes two index variables), so the
//! compiler cannot apply owner-computes. It block-partitions the
//! iteration space and writes results back with a post-computation
//! scatter (Fig. 3 cases 3/4).
//!
//! ```text
//! cargo run --example fft_butterfly
//! ```

use f90d_bench::workloads;
use fortran90d::compiler::{compile, CompileOptions};
use fortran90d::distrib::ProcGrid;
use fortran90d::machine::{Machine, MachineSpec};

fn main() {
    let src = workloads::fft_butterfly(16, 4);
    let compiled = compile(&src, &CompileOptions::on_grid(&[8])).expect("compiles");

    // The communication census shows the unstructured write path.
    println!("communication calls in the compiled program:");
    for (name, count) in compiled.spmd.comm_census() {
        println!("  {name}: {count}");
    }

    let mut machine = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[8]));
    let mut ex = compiled.engine(&mut machine).expect("lowers");
    let report = ex.run(&mut machine).expect("runs");
    println!(
        "\nbutterfly on 8 nodes: {:.3} ms modelled, {} messages",
        report.elapsed * 1e3,
        report.messages
    );

    // Check a few elements against the sequential reference.
    let reference =
        fortran90d::compiler::reference::run_reference(&compiled.analyzed, &Default::default())
            .expect("reference");
    let got = ex.gather_array(&mut machine, "X").expect("X exists");
    let want = &reference.arrays["X"];
    for k in [0usize, 7, 63, 127] {
        assert_eq!(got.get(k), want.data.get(k), "X[{k}]");
    }
    println!("spot-checked against the sequential reference: OK");
}
