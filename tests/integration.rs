//! Cross-crate integration tests through the `fortran90d` facade: the
//! full pipeline (source → compile → simulate) combined with the runtime
//! and communication layers, on the workloads the paper's evaluation
//! uses.
//!
//! Every run here is on the one engine. The test that compared the
//! experiment runners' modelled times across the engine and the
//! tree-walking executor (`vm_backend_experiment_runners_agree_with_treewalk`)
//! went with the tree walker: that claim is carried by data blessed while
//! both still existed — the `vm` rows of `BENCH_baseline.json` (equal to
//! their `treewalk` twins in the last 48-cell file) and the
//! `corpus/*.virt` sidecars (asserted equal on all three tiers before
//! blessing).

use std::collections::HashMap;

use f90d_bench::experiments;
use f90d_bench::handwritten::{ge_handwritten, ge_reference_host};
use f90d_bench::workloads;
use fortran90d::compiler::reference::run_reference;
use fortran90d::compiler::{compile, CompileOptions};
use fortran90d::distrib::{DistKind, ProcGrid};
use fortran90d::machine::{Machine, MachineSpec};
use fortran90d::runtime::DistArray;

fn run_compiled(
    src: &str,
    grid: &[i64],
    spec: MachineSpec,
) -> (
    Machine,
    fortran90d::compiler::ExecReport,
    fortran90d::compiler::Compiled,
) {
    let compiled = compile(src, &CompileOptions::on_grid(grid)).expect("compiles");
    let mut m = Machine::new(spec, ProcGrid::new(grid));
    let report = compiled.run_on(&mut m).expect("runs");
    (m, report, compiled)
}

#[test]
fn compiled_gaussian_matches_host_elimination() {
    let n = 32i64;
    let want = ge_reference_host(n);
    for p in [1i64, 2, 4, 8] {
        let compiled = compile(&workloads::gaussian(n), &CompileOptions::on_grid(&[p])).unwrap();
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[p]));
        let mut ex = compiled.engine(&mut m).unwrap();
        ex.run(&mut m).unwrap();
        let got = ex.gather_array(&mut m, "A").unwrap();
        for (k, &w) in want.iter().enumerate() {
            let g = got.get(k).as_real();
            let (i, j) = (k as i64 / n, k as i64 % n);
            if j > i {
                assert!(
                    (g - w).abs() < 1e-9 * (1.0 + w.abs()),
                    "P={p} A({i},{j}) = {g}, want {w}"
                );
            }
        }
    }
}

#[test]
fn compiled_and_handwritten_ge_agree() {
    let n = 24i64;
    for p in [2i64, 4] {
        let compiled = compile(&workloads::gaussian(n), &CompileOptions::on_grid(&[p])).unwrap();
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[p]));
        let mut ex = compiled.engine(&mut m).unwrap();
        ex.run(&mut m).unwrap();
        let compiled_a = ex.gather_array(&mut m, "A").unwrap();

        let mut m2 = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[p]));
        ge_handwritten(&mut m2, n);
        let hand = DistArray {
            name: "HW_A".into(),
            dad: fortran90d::distrib::DadBuilder::new("HW_A", &[n, n])
                .distribute(&[DistKind::Collapsed, DistKind::Block])
                .grid(ProcGrid::new(&[p]))
                .build()
                .unwrap(),
            ty: fortran90d::machine::ElemType::Real,
        };
        let hand_a = hand.gather_host(&mut m2);
        for k in 0..compiled_a.len() {
            let (i, j) = (k as i64 / n, k as i64 % n);
            if j >= i {
                let (a, b) = (compiled_a.get(k).as_real(), hand_a.get(k).as_real());
                assert!((a - b).abs() < 1e-9 * (1.0 + b.abs()), "P={p} ({i},{j})");
            }
        }
    }
}

#[test]
fn table4_shape_claims_hold() {
    // The paper's qualitative Table 4 / Fig 6 claims at reduced size:
    // 1. compiled ≈ hand-written at P = 1;
    // 2. the gap grows monotonically with P (the extra broadcast);
    // 3. both codes speed up monotonically through P = 16.
    let rows = experiments::table4(96, &[1, 2, 4, 8, 16]);
    let ratio1 = rows[0].2 / rows[0].1;
    assert!((ratio1 - 1.0).abs() < 0.02, "P=1 ratio {ratio1}");
    let ratios: Vec<f64> = rows.iter().map(|&(_, h, c)| c / h).collect();
    for w in ratios.windows(2) {
        assert!(w[1] >= w[0] - 1e-9, "gap must grow with P: {ratios:?}");
    }
    for w in rows.windows(2) {
        assert!(w[1].1 < w[0].1, "hand time must fall with P");
        assert!(w[1].2 < w[0].2, "compiled time must fall with P");
    }
}

#[test]
fn fig5_shape_claims_hold() {
    // nCUBE/2 is roughly 2x the iPSC/860 at every size, and both curves
    // grow superlinearly in N.
    let rows = experiments::fig5(&[32, 64, 128], 16);
    for &(n, ipsc, ncube) in &rows {
        let ratio = ncube / ipsc;
        assert!(
            (1.5..=3.0).contains(&ratio),
            "N={n}: nCUBE/iPSC ratio {ratio}"
        );
    }
    assert!(rows[2].1 / rows[0].1 > 8.0, "superlinear growth in N");
}

#[test]
fn portability_same_program_three_machines() {
    let rows = experiments::portability(64, 8);
    assert_eq!(rows.len(), 3);
    for (name, t) in rows {
        assert!(t > 0.0, "{name} produced no time");
    }
}

#[test]
fn ablations_point_the_right_way() {
    let (msg_on, msg_off, t_on, t_off) = experiments::ablation_merge_comm(48, 8);
    assert!(msg_on < msg_off, "merging must reduce messages");
    assert!(t_on < t_off, "merging must reduce time");
    let (t_reuse, t_rebuild) = experiments::ablation_schedule_reuse(1024, 8);
    assert!(t_reuse < t_rebuild, "schedule reuse must pay off");
    let (t_overlap, t_temp) = experiments::ablation_overlap_shift(64, 4, 4);
    assert!(t_overlap < t_temp, "overlap areas must beat temporaries");
    let (t_fused, t_two) = experiments::ablation_multicast_shift(128);
    assert!(t_fused <= t_two, "fusion must not lose");
}

#[test]
fn jacobi_compiled_vs_reference_on_real_machine_model() {
    let src = workloads::jacobi(16, 3);
    let reference = run_reference(
        &compile(&src, &CompileOptions::on_grid(&[2, 2]))
            .unwrap()
            .analyzed,
        &HashMap::new(),
    )
    .unwrap();
    let (mut m, _, compiled) = run_compiled(&src, &[2, 2], MachineSpec::ncube2());
    // Re-gather from the finished machine via a fresh handle.
    let id = compiled.spmd.array_id("B").unwrap();
    let handle = DistArray {
        name: "B".into(),
        dad: compiled.spmd.arrays[id].dad.clone(),
        ty: compiled.spmd.arrays[id].ty,
    };
    let got = handle.gather_host(&mut m);
    let want = &reference.arrays["B"];
    for k in 0..got.len() {
        assert_eq!(got.get(k), want.data.get(k), "B[{k}]");
    }
}

#[test]
fn fortran77_listing_of_the_ge_program() {
    let compiled = compile(&workloads::gaussian(16), &CompileOptions::on_grid(&[4])).unwrap();
    let f77 = compiled.fortran77();
    assert!(f77.contains("PROGRAM NODE"));
    assert!(f77.contains("call multicast("));
    assert!(f77.contains("call set_BOUND("));
    assert!(f77.contains("END DO"));
}

#[test]
fn print_output_flows_through() {
    let src = "
PROGRAM HELLO
REAL A(8), S
C$ DISTRIBUTE A(BLOCK)
FORALL (I=1:8) A(I) = REAL(I)
S = SUM(A)
PRINT *, 'sum is', S
END
";
    let (_, report, _) = run_compiled(src, &[4], MachineSpec::ipsc860());
    assert_eq!(report.printed, vec!["sum is 36.000000".to_string()]);
}

#[test]
fn vm_backend_through_the_facade_matches_host_elimination() {
    let n = 32i64;
    let want = ge_reference_host(n);
    let compiled = compile(&workloads::gaussian(n), &CompileOptions::on_grid(&[4])).unwrap();
    let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[4]));
    let report = compiled.run_on(&mut m).expect("runs");
    assert!(report.elapsed > 0.0);
    let eng = compiled.engine_preserving(&mut m).unwrap();
    let got = eng.gather_array(&mut m, "A").unwrap();
    for (k, &w) in want.iter().enumerate() {
        let g = got.get(k).as_real();
        assert!(
            (g - w).abs() <= 1e-6 * (1.0 + w.abs()),
            "A[{k}] = {g}, host reference {w}"
        );
    }
}

/// One tiny program per `word`, printing it.
fn printing_program(word: &str) -> fortran90d::compiler::Compiled {
    let src = format!(
        "
PROGRAM SAYS
REAL A(8)
C$ DISTRIBUTE A(BLOCK)
FORALL (I=1:8) A(I) = 1.0
PRINT *, '{word}'
END
"
    );
    compile(&src, &CompileOptions::on_grid(&[4])).unwrap()
}

/// Run on a fresh machine: what was printed, and the program-cache outcome.
fn printed_and_hit(c: &fortran90d::compiler::Compiled) -> (Vec<String>, Option<bool>) {
    let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[4]));
    let (report, trace) = c.run_on_traced(&mut m).unwrap();
    (report.printed, trace.program_cache_hit)
}

#[test]
fn program_cache_lowers_once_per_compiled_program() {
    use fortran90d::compiler::vm_cache;
    let compiled = printing_program("once");
    let len0 = vm_cache().len();
    let outcomes: Vec<_> = (0..3).map(|_| printed_and_hit(&compiled).1).collect();
    assert_eq!(outcomes, [Some(false), Some(true), Some(true)]);
    // Other tests of this binary lower concurrently, so "by one" is ≥.
    assert!(vm_cache().len() > len0, "the lowering was not retained");
}

/// `source_hash` is a hash: two tenants' sources can share it (here the
/// public field is simply set). Each must still run its own bytecode.
#[test]
fn program_cache_collision_runs_each_programs_own_bytecode() {
    let mine = printing_program("mine");
    let mut theirs = printing_program("theirs");
    theirs.source_hash = mine.source_hash;
    assert_eq!(printed_and_hit(&mine), (vec!["mine".into()], Some(false)));
    assert_eq!(
        printed_and_hit(&theirs),
        (vec!["theirs".into()], Some(false)),
        "a colliding key must not read as a hit"
    );
    assert_eq!(printed_and_hit(&mine), (vec!["mine".into()], Some(true)));
}
