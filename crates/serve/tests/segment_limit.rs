//! A declared array whose rank segment holds 2^32 elements or more is
//! refused when the run allocates its arrays, before anything is
//! placed: every element-wise plan stores its offsets in 32 bits. The
//! refusal is a structured execution error on both tiers, and through
//! the daemon an error response after which it goes on serving.
//!
//! The program only declares `A`: segments are materialized on first
//! write, so where the declaration was accepted it allocated nothing
//! and the run printed `K`.

use f90d_core::{compile, Backend, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{Machine, MachineSpec};
use f90d_serve::client::run_to_json;
use f90d_serve::{RunRequest, ServeConfig, Server};
use serde::json::Json;

const BIG: &str = "PROGRAM BIG\nREAL A(5000000000)\nINTEGER K\nK = 7\nPRINT *, K\nEND\n";

const REFUSAL: &str = "array A needs a rank segment of 5000000000 elements \
     (ghost cells included); a segment holds fewer than 2^32";

fn request(source: &str) -> RunRequest {
    RunRequest {
        source: source.to_string(),
        grid: vec![1],
        machine: "ipsc860".to_string(),
        backend: Backend::Vm,
        sched_cache: true,
        threaded: false,
        overlap: false,
    }
}

#[test]
fn both_tiers_refuse_the_segment() {
    for native in [false, true] {
        let mut opts = CompileOptions::on_grid(&[1]);
        opts.opt.native_kernels = native;
        let compiled = compile(BIG, &opts).expect("compiles");
        let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[1]));
        let err = compiled.run_on_traced(&mut m).unwrap_err();
        assert_eq!(err.0, REFUSAL, "native kernels {native}");
        assert!(!m.mems[0].has_array("A"), "native kernels {native}");
    }
}

#[test]
fn the_daemon_answers_execution_error_and_stays_healthy() {
    let state = Server::bind(ServeConfig::default()).unwrap().state();
    let dispatch = |source: &str| state.dispatch(run_to_json(&request(source)).render().as_bytes());
    let resp = dispatch(BIG);
    assert_eq!(
        resp.get("ok"),
        Some(&Json::Bool(false)),
        "{}",
        resp.render()
    );
    assert_eq!(
        resp.get("error"),
        Some(&Json::Str(format!("execution error: {REFUSAL}")))
    );
    let good = dispatch(&BIG.replace("5000000000", "5000"));
    assert_eq!(good.get("ok"), Some(&Json::Bool(true)), "{}", good.render());
    assert_eq!(
        good.get("result").and_then(|r| r.get("printed")),
        Some(&Json::Arr(vec![Json::Str("7".into())]))
    );
}
