//! Golden-corpus runner: every `corpus/*.f90d` program (regression
//! cases promoted out of the property-test batteries — see
//! `corpus/README.md`) runs on a 4-rank grid, on both execution tiers
//! (bytecode, native), under three configurations: the
//! communication optimizers off, on (`comm_plan` +
//! `hoist_invariant_comm`), and split-phase `comm_compute_overlap`.
//!
//! * PRINT output must be bit-identical across every run **and** to the
//!   committed `<name>.expected` file. A program that faults at run time
//!   pins its structured error instead, as the single line
//!   `ERROR <message>`.
//! * Modelled time (by bits), messages and bytes must be identical
//!   across the tiers under each configuration **and** to the committed
//!   `<name>.virt` file (one line per configuration; programs that
//!   fault have none). The committed lines were blessed while the tree
//!   walker still existed and agreed with both tiers (commit aec6942).
//!
//! Re-bless intentional changes of either with
//! `CORPUS_BLESS=1 cargo test -p f90d-bench --test corpus`.

use std::path::{Path, PathBuf};

use f90d_core::{compile, CompileOptions, OptFlags};
use f90d_distrib::ProcGrid;
use f90d_machine::{Machine, MachineSpec};

const GRID: [i64; 1] = [4];

/// The configurations, as `.virt` names them.
const CONFIGS: [(&str, fn(&mut OptFlags)); 3] = [
    ("plain", |_| {}),
    ("optimized", |opt| {
        opt.comm_plan = true;
        opt.hoist_invariant_comm = true;
    }),
    ("overlap", |opt| opt.comm_compute_overlap = true),
];

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

/// What one run pins: its PRINT lines and its `.virt` line — or the
/// line `ERROR <message>` and nothing, when the run returns a structured
/// error.
fn run(
    src: &str,
    native: bool,
    config: &(&str, fn(&mut OptFlags)),
) -> (Vec<String>, Option<String>) {
    let mut opts = CompileOptions::on_grid(&GRID);
    opts.opt.comm_plan = false;
    opts.opt.hoist_invariant_comm = false;
    config.1(&mut opts.opt);
    opts.opt.native_kernels = native;
    let compiled = compile(src, &opts).unwrap_or_else(|e| panic!("corpus program: {e}"));
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&GRID));
    match compiled.run_on(&mut m) {
        Ok(rep) => {
            let virt = format!(
                "{:<9} elapsed={:016x} ({:e} s) messages={} bytes={}",
                config.0,
                rep.elapsed.to_bits(),
                rep.elapsed,
                rep.messages,
                rep.bytes
            );
            (rep.printed, Some(virt))
        }
        Err(e) => (vec![format!("ERROR {e}")], None),
    }
}

/// Compare `rendered` with the golden file at `path`, or write it there
/// when blessing.
fn check_golden(name: &str, what: &str, path: &Path, rendered: &str, bless: bool) {
    if bless {
        std::fs::write(path, rendered).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(path).unwrap_or_else(|e| {
        panic!(
            "{name}: missing golden file {} ({e}); run with CORPUS_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(rendered, golden, "{name}: {what} drifted from golden");
}

#[test]
fn corpus_programs_match_golden_output() {
    let dir = corpus_dir();
    let mut programs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap_or_else(|e| panic!("corpus dir {}: {e}", dir.display()))
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "f90d"))
        .collect();
    programs.sort();
    assert!(!programs.is_empty(), "corpus must contain programs");

    let bless = std::env::var_os("CORPUS_BLESS").is_some();
    for path in programs {
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).unwrap();

        let mut printed: Option<Vec<String>> = None;
        let mut virt = Vec::new();
        for config in &CONFIGS {
            let bytecode = run(&src, false, config);
            let native = run(&src, true, config);
            assert_eq!(
                native, bytecode,
                "{name}: the tiers diverged in PRINT, modelled time, messages or bytes ({})",
                config.0
            );
            let (got, line) = bytecode;
            let base = printed.get_or_insert_with(|| got.clone());
            assert_eq!(&got, base, "{name}: PRINT diverged ({})", config.0);
            virt.extend(line);
        }
        let printed = printed.expect("at least one configuration ran");
        assert!(!printed.is_empty(), "{name}: corpus programs must PRINT");

        let rendered = printed.join("\n") + "\n";
        check_golden(
            &name,
            "PRINT output",
            &path.with_extension("expected"),
            &rendered,
            bless,
        );
        if virt.is_empty() {
            assert!(
                printed[0].starts_with("ERROR "),
                "{name}: only a faulting program has no .virt"
            );
            continue;
        }
        assert_eq!(
            virt.len(),
            CONFIGS.len(),
            "{name}: faults on some runs only"
        );
        let rendered = virt.join("\n") + "\n";
        check_golden(
            &name,
            "modelled time, messages or bytes",
            &path.with_extension("virt"),
            &rendered,
            bless,
        );
    }
}
