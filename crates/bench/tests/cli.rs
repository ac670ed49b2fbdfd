//! CLI contract of the `repro` binary: flag validation exits 2 with a
//! diagnostic before any experiment runs; `--help` prints the usage
//! block and exits 0.

use std::process::Command;

fn repro_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_repro"))
}

#[track_caller]
fn expect_exit_2(args: &[&str], frag: &str) {
    let out = repro_bin().args(args).output().unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2, got {:?}\nstderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(frag),
        "{args:?} stderr {stderr:?} !~ {frag}"
    );
    assert!(
        out.stdout.is_empty(),
        "no experiment output may precede a usage error"
    );
}

#[test]
fn zero_jobs_exit_2() {
    expect_exit_2(&["--jobs", "0"], "--jobs expects a worker count >= 1");
    expect_exit_2(&["--jobs", "-3"], "--jobs expects");
    expect_exit_2(&["--jobs", "lots"], "--jobs expects");
}

#[test]
fn other_bad_flags_still_exit_2() {
    expect_exit_2(&["--repeat", "0"], "--repeat expects");
    expect_exit_2(&["--frobnicate"], "unknown argument");
    // There is one executor: the flag that chose between two is gone.
    expect_exit_2(&["--backend", "treewalk"], "unknown argument --backend");
    expect_exit_2(&["--backend", "vm"], "unknown argument --backend");
    // Local phases run one way, so the flags that chose threads and
    // budgeted them are gone too.
    for value in ["threaded", "sequential"] {
        expect_exit_2(&["--exec", value], "unknown argument --exec");
    }
    expect_exit_2(&["--workers", "4"], "unknown argument --workers");
}

/// The fixed-cell experiments reject every flag they would ignore.
#[test]
fn fixed_cell_experiments_reject_ignored_flags() {
    expect_exit_2(
        &["--exp", "vmcmp", "--n", "64"],
        "--exp vmcmp accepts only --quick, --out and --gate",
    );
    expect_exit_2(
        &["--exp", "commplan", "--jobs", "2"],
        "--exp commplan accepts only --quick, --out and --gate",
    );
    expect_exit_2(
        &["--exp", "scaling", "--gate", "1.5"],
        "--exp scaling accepts only --quick and --out",
    );
    expect_exit_2(
        &["--exp", "overlap", "--n", "64"],
        "--exp overlap accepts only --quick and --out",
    );
    expect_exit_2(
        &["--exp", "overlap", "--gate", "2"],
        "--gate is a claim gate",
    );
    expect_exit_2(
        &["--exp", "fig5", "--repeat", "2"],
        "require the matrix experiment (--exp matrix), not --exp fig5",
    );
}

/// A typo in `--exp` must not pass a CI gate by running nothing.
#[test]
fn unknown_experiment_exits_2_and_lists_the_names() {
    expect_exit_2(&["--exp", "tabel4"], "unknown experiment tabel4");
    expect_exit_2(&["--exp", "tabel4", "--quick"], "table4, fig6, port");
    // The flag that `--no-native` used to pair with did nothing.
    expect_exit_2(&["--native"], "unknown argument --native");
}

/// A value-taking flag with a missing or malformed value never falls
/// back to a default — least of all to "no gate".
#[test]
fn missing_or_malformed_values_exit_2() {
    expect_exit_2(&["--n", "abc"], "--n expects a matrix size");
    expect_exit_2(&["--exp", "table4", "--n"], "--n expects");
    expect_exit_2(&["--quick", "--out"], "--out expects a file path");
    expect_exit_2(&["--quick", "--baseline"], "--baseline expects");
    expect_exit_2(&["--quick", "--exp"], "--exp expects an experiment name");
    // The next flag is not a value.
    expect_exit_2(&["--out", "--quick"], "--out expects a file path");
    expect_exit_2(
        &["--quick", "--baseline", "/nonexistent/results.json"],
        "cannot read baseline /nonexistent/results.json",
    );
    // A flag the experiment would ignore is an error on every entry.
    expect_exit_2(
        &["--exp", "fig5", "--n", "64"],
        "--exp fig5 accepts only --quick",
    );
}

/// Exit 1 is a failed gate, with the table already printed.
#[test]
fn a_failed_gate_exits_1() {
    let out = repro_bin()
        .args(["--exp", "commplan", "--quick", "--gate", "99"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("# COMM-PLAN GATE FAILED"), "{stderr}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("multi-stencil\tipsc860"));
}

#[test]
fn help_prints_usage_and_exits_0() {
    for flag in ["--help", "-h"] {
        let out = repro_bin().arg(flag).output().unwrap();
        assert_eq!(out.status.code(), Some(0), "{flag} must exit 0");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.starts_with("repro [--exp "), "{flag}: {stdout:?}");
        assert!(stdout.contains("--baseline results.json"), "{stdout:?}");
        for gone in ["--native", "--exec", "--workers"] {
            assert!(!stdout.contains(gone), "{gone}: {stdout:?}");
        }
        assert!(!stdout.contains("//!"), "doc markers leaked: {stdout:?}");
        assert!(out.stderr.is_empty());
    }
}
