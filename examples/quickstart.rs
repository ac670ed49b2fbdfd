//! Quickstart: compile a Fortran 90D/HPF Jacobi relaxation and run it on
//! a simulated 4-node iPSC/860, then show the generated Fortran 77 + MP
//! node program.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fortran90d::compiler::{compile, CompileOptions};
use fortran90d::distrib::ProcGrid;
use fortran90d::machine::{Machine, MachineSpec};

const SRC: &str = "
PROGRAM JACOBI
INTEGER, PARAMETER :: N = 32
REAL A(N), B(N), RES
INTEGER IT
C$ PROCESSORS P(4)
C$ TEMPLATE T(N)
C$ ALIGN A(I) WITH T(I)
C$ ALIGN B(I) WITH T(I)
C$ DISTRIBUTE T(BLOCK)
FORALL (I=1:N) B(I) = REAL(I * (N - I))
FORALL (I=1:N) A(I) = 0.0
DO IT = 1, 10
  FORALL (I=2:N-1) A(I) = 0.5*(B(I-1) + B(I+1))
  FORALL (I=2:N-1) B(I) = A(I)
END DO
RES = SUM(B) / REAL(N)
PRINT *, 'mean after 10 sweeps:', RES
END
";

fn main() {
    // 1. Compile: partitioning, communication detection/insertion, SPMD
    //    code generation (paper Fig. 1 pipeline).
    let compiled = compile(SRC, &CompileOptions::default()).expect("compiles");

    // 2. Inspect the generated node program — every FORALL became a
    //    set_BOUND-bounded local loop, every B(I±1) an overlap_shift.
    println!("---- generated Fortran 77 + MP node program ----");
    println!("{}", compiled.fortran77());

    // 3. Execute on a simulated 4-node iPSC/860.
    let mut machine = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[4]));
    let mut engine = compiled.engine(&mut machine).expect("lowers");
    let report = engine.run(&mut machine).expect("runs");

    println!("---- execution ----");
    for line in &report.printed {
        println!("PRINT: {line}");
    }
    println!(
        "modelled time on {}: {:.3} ms   ({} messages, {} bytes)",
        machine.spec().name,
        report.elapsed * 1e3,
        report.messages,
        report.bytes
    );
    println!(
        "communication primitives used: {:?}",
        machine.stats.sorted()
    );

    // 4. What ran: the node program lowered once to register bytecode
    //    (cached per source, options and grid); FORALLs with affine
    //    bodies dispatch to native kernels, the rest to the chunk loop.
    let (native, bytecode) = engine.native_counts();
    println!(
        "FORALL executions: {native} native, {bytecode} bytecode; bytecode: {}",
        compiled.vm_program().expect("lowers").summary()
    );
}
