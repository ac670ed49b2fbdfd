//! Golden-corpus runner: every `corpus/*.f90d` program (regression
//! cases promoted out of the property-test batteries — see
//! `corpus/README.md`) runs on a 4-rank grid, on both backends, with
//! the communication optimizers off and on, and its PRINT output must
//! be bit-identical across all four configurations **and** to the
//! committed `<name>.expected` file. A program that faults at run time
//! pins its structured error instead, as the single line
//! `ERROR <message>`.
//!
//! Re-bless intentional output changes with
//! `CORPUS_BLESS=1 cargo test -p f90d-bench --test corpus`.

use std::path::{Path, PathBuf};

use f90d_core::{compile, Backend, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{Machine, MachineSpec};

const GRID: [i64; 1] = [4];

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../corpus")
}

/// PRINT output of one program under one configuration, or the line
/// `ERROR <message>` when the run returns a structured error.
fn printed(src: &str, backend: Backend, optimize: bool) -> Vec<String> {
    let mut opts = CompileOptions::on_grid(&GRID).with_backend(backend);
    opts.opt.comm_plan = optimize;
    opts.opt.hoist_invariant_comm = optimize;
    let compiled = compile(src, &opts).unwrap_or_else(|e| panic!("corpus program: {e}"));
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&GRID));
    match compiled.run_on(&mut m) {
        Ok(rep) => rep.printed,
        Err(e) => vec![format!("ERROR {e}")],
    }
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
        let golden_path = path.with_extension("expected");

        let base = printed(&src, Backend::TreeWalk, false);
        assert!(!base.is_empty(), "{name}: corpus programs must PRINT");
        for (backend, optimize) in [
            (Backend::TreeWalk, true),
            (Backend::Vm, false),
            (Backend::Vm, true),
        ] {
            let got = printed(&src, backend, optimize);
            assert_eq!(
                got,
                base,
                "{name}: PRINT diverged ({backend:?}, optimizers {})",
                if optimize { "on" } else { "off" }
            );
        }

        let rendered = base.join("\n") + "\n";
        if bless {
            std::fs::write(&golden_path, &rendered).unwrap();
            continue;
        }
        let golden = std::fs::read_to_string(&golden_path).unwrap_or_else(|e| {
            panic!(
                "{name}: missing golden file {} ({e}); run with CORPUS_BLESS=1 to create it",
                golden_path.display()
            )
        });
        assert_eq!(rendered, golden, "{name}: PRINT output drifted from golden");
    }
}
