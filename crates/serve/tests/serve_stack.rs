//! End-to-end battery for the daemon: protocol conformance over real
//! TCP, racing-client dedup with exactly-once lowering, cross-request
//! schedule-cache reuse, overload and shutdown behavior, and bit-identical equivalence with a
//! direct in-process `Compiled::run_on` baseline.
//!
//! Every test spawns its own in-process server on a `:0` port, so the
//! battery runs under the normal test harness with no fixed-port
//! collisions. Sources are parameterized per test (distinct N) so the
//! process-wide program/schedule caches shared between tests cannot
//! cross-talk assertions.

use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use f90d_core::{compile, Backend};
use f90d_machine::{Machine, MachineSpec};
use f90d_progen::workloads::{irregular, jacobi};
use f90d_serve::{Client, RunRequest, ServeConfig, Server};
use serde::json::Json;

fn run_req(source: String, grid: Vec<i64>) -> RunRequest {
    RunRequest {
        source,
        grid,
        machine: "ipsc860".to_string(),
        backend: Backend::Vm,
        sched_cache: true,
        threaded: false,
        overlap: false,
    }
}

fn get<'a>(doc: &'a Json, path: &[&str]) -> &'a Json {
    let mut cur = doc;
    for key in path {
        cur = cur
            .get(key)
            .unwrap_or_else(|| panic!("missing {key} in {}", doc.render()));
    }
    cur
}

fn num(doc: &Json, path: &[&str]) -> f64 {
    get(doc, path)
        .as_f64()
        .unwrap_or_else(|| panic!("{path:?} not a number in {}", doc.render()))
}

fn boolean(doc: &Json, path: &[&str]) -> bool {
    match get(doc, path) {
        Json::Bool(b) => *b,
        other => panic!("{path:?} not a bool: {other:?}"),
    }
}

fn assert_ok(doc: &Json) {
    assert!(
        boolean(doc, &["ok"]),
        "expected success, got {}",
        doc.render()
    );
}

#[test]
fn protocol_end_to_end_over_tcp() {
    let handle = Server::spawn(ServeConfig {
        max_request_bytes: 64 * 1024,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(handle.addr).unwrap();

    let pong = c.ping().unwrap();
    assert_ok(&pong);
    assert!(boolean(&pong, &["pong"]));
    assert_eq!(
        get(&pong, &["schema"]),
        &Json::Str("f90d-serve/v1".to_string())
    );

    // A real run: deterministic virtual metrics + full telemetry block.
    let resp = c.run(&run_req(jacobi(12, 2), vec![2, 2])).unwrap();
    assert_ok(&resp);
    assert!(num(&resp, &["result", "elapsed_virt_s"]) > 0.0);
    assert!(num(&resp, &["result", "messages"]) > 0.0);
    for key in ["queue_wait_ms", "lease_wait_ms", "exec_ms"] {
        assert!(num(&resp, &["telemetry", key]) >= 0.0, "{key}");
    }
    assert!(!boolean(&resp, &["telemetry", "joined"]));

    // Malformed JSON → structured 400, connection stays usable.
    let bad = c.request_raw("this is not json").unwrap();
    assert!(!boolean(&bad, &["ok"]));
    assert_eq!(num(&bad, &["code"]), 400.0);

    // Unknown op and compile errors are structured too.
    let unk = c.request_raw(r#"{"op":"frobnicate"}"#).unwrap();
    assert_eq!(num(&unk, &["code"]), 400.0);
    let cerr = c
        .run(&run_req(
            "PROGRAM BAD\nTHIS IS NOT FORTRAN(\nEND\n".into(),
            vec![2],
        ))
        .unwrap();
    assert!(!boolean(&cerr, &["ok"]));
    assert_eq!(num(&cerr, &["code"]), 422.0);
    // So is an array of more than seven dimensions (a rank-9 read used
    // to compile and fail at run time).
    for rank in [8, 9] {
        let dims = vec!["2"; rank].join(",");
        let deep = c
            .run(&run_req(
                format!("PROGRAM DEEP\nREAL A({dims})\nEND\n"),
                vec![2],
            ))
            .unwrap();
        assert_eq!(num(&deep, &["code"]), 422.0);
        assert_eq!(
            get(&deep, &["error"]).as_str().unwrap(),
            format!(
                "compile error: semantic error: array `A` has rank {rank}; \
                 the maximum is 7 (Fortran 90 R512)"
            )
        );
    }

    // Raw invalid UTF-8 on the wire → 400, not a dead server.
    let mut raw = TcpStream::connect(handle.addr).unwrap();
    raw.write_all(b"{\"op\":\xff\xfe}\n").unwrap();
    let mut raw_client = Client::connect(handle.addr).unwrap();
    let stats = raw_client.stats().unwrap();
    assert_ok(&stats);

    // Stats aggregates every layer.
    for path in [
        vec!["stats", "server", "requests"],
        vec!["stats", "server", "runs"],
        vec!["stats", "admission", "max_running"],
        vec!["stats", "machine_pool", "created"],
        vec!["stats", "program_cache", "hits"],
        vec!["stats", "sched_cache", "misses"],
    ] {
        assert!(num(&stats, &path) >= 0.0, "{path:?}");
    }
    assert!(num(&stats, &["stats", "server", "requests"]) >= 4.0);
    assert!(num(&stats, &["stats", "server", "bad_requests"]) >= 2.0);
    assert!(num(&stats, &["stats", "server", "compile_errors"]) >= 1.0);

    handle.shutdown().unwrap();
}

#[test]
fn oversized_lines_get_413_and_resync() {
    let handle = Server::spawn(ServeConfig {
        max_request_bytes: 256,
        ..ServeConfig::default()
    })
    .unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    let huge = format!(r#"{{"op":"run","source":"{}"}}"#, "x".repeat(1024));
    let resp = c.request_raw(&huge).unwrap();
    assert!(!boolean(&resp, &["ok"]));
    assert_eq!(num(&resp, &["code"]), 413.0);
    // The same connection parses the next request cleanly.
    assert_ok(&c.ping().unwrap());
    assert_eq!(
        num(&c.stats().unwrap(), &["stats", "server", "oversized"]),
        1.0
    );
    handle.shutdown().unwrap();
}

/// N racing clients with the identical job: every response carries
/// bit-identical virtual metrics, the bytecode lowering happens at most
/// once across the group, and `runs + joined` accounts for every client
/// (joiners really did skip execution).
#[test]
fn racing_clients_dedup_and_lower_exactly_once() {
    const CLIENTS: usize = 8;
    let handle = Server::spawn(ServeConfig {
        max_running: 1,
        max_queued: CLIENTS,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr;
    // Unique job for this test: nothing else in the process lowers it.
    let req = run_req(jacobi(40, 4), vec![2, 2]);
    let barrier = Arc::new(Barrier::new(CLIENTS));
    let threads: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let req = req.clone();
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                barrier.wait();
                c.run(&req).unwrap()
            })
        })
        .collect();
    let responses: Vec<Json> = threads.into_iter().map(|t| t.join().unwrap()).collect();

    let metrics: Vec<(String, String, String)> = responses
        .iter()
        .map(|r| {
            assert_ok(r);
            (
                get(r, &["result", "elapsed_virt_s"]).render(),
                get(r, &["result", "messages"]).render(),
                get(r, &["result", "bytes"]).render(),
            )
        })
        .collect();
    assert!(
        metrics.windows(2).all(|w| w[0] == w[1]),
        "all racing clients must see identical virtual metrics: {metrics:?}"
    );
    // Joiners inherit the leader's telemetry verbatim, so only count the
    // responses that performed their own execution: at most one of those
    // may have done the bytecode lowering.
    let cold_lowerings = responses
        .iter()
        .filter(|r| {
            !boolean(r, &["telemetry", "joined"])
                && get(r, &["telemetry", "program_cache_hit"]) == &Json::Bool(false)
        })
        .count();
    assert!(
        cold_lowerings <= 1,
        "the same job must be lowered at most once across {CLIENTS} racing clients"
    );

    let stats = Client::connect(addr).unwrap().stats().unwrap();
    // The server-side compiled cache proves exactly-once compilation:
    // this server saw exactly one distinct job.
    assert_eq!(
        num(&stats, &["stats", "server", "compile_cache_misses"]),
        1.0,
        "identical racing jobs must compile exactly once"
    );
    let runs = num(&stats, &["stats", "server", "runs"]);
    let joined = num(&stats, &["stats", "server", "joined"]);
    assert_eq!(
        runs + joined,
        CLIENTS as f64,
        "every client either executed or joined"
    );
    // With one run slot, machine use never overlaps: the pool built at
    // most one machine however many clients raced.
    assert_eq!(num(&stats, &["stats", "machine_pool", "created"]), 1.0);
    handle.shutdown().unwrap();
}

/// Repeats of one irregular job, sequential and then as a concurrent
/// burst: after the first request every one rides every warm path —
/// compiled cache, program cache, schedule cache, machine pool — its
/// telemetry proves it, and the pool constructs no machine again. (That
/// warm is also *faster* than cold is a wall-clock claim: it is the
/// `job_ms_p10` of `serve-warm` against `serve-cold` in `benchmark/`.)
#[test]
fn second_request_rides_every_warm_path() {
    let handle = Server::spawn(ServeConfig::default()).unwrap();
    let addr = handle.addr;
    let mut c = Client::connect(addr).unwrap();
    let req = Arc::new(run_req(irregular(509), vec![4]));

    let cold = c.run(&req).unwrap();
    assert_ok(&cold);
    assert_eq!(
        get(&cold, &["telemetry", "program_cache_hit"]),
        &Json::Bool(false)
    );
    assert!(!boolean(&cold, &["telemetry", "compile_cache_hit"]));
    assert!(!boolean(&cold, &["telemetry", "machine_reused"]));
    assert!(
        num(&cold, &["telemetry", "sched_misses"]) > 0.0,
        "cold run builds inspector schedules"
    );
    let created = |c: &mut Client| num(&c.stats().unwrap(), &["stats", "machine_pool", "created"]);
    let created_cold = created(&mut c);
    assert!(created_cold >= 1.0);

    // Bit-identical virtual metrics cold vs warm, on every cache.
    let result = get(&cold, &["result"]).render();
    let assert_warm = move |warm: &Json| {
        assert_ok(warm);
        assert_eq!(
            get(warm, &["telemetry", "program_cache_hit"]),
            &Json::Bool(true)
        );
        assert!(boolean(warm, &["telemetry", "compile_cache_hit"]));
        assert_eq!(
            num(warm, &["telemetry", "sched_misses"]),
            0.0,
            "warm run reuses every schedule across requests"
        );
        assert!(num(warm, &["telemetry", "sched_hits"]) > 0.0);
        assert_eq!(result, get(warm, &["result"]).render());
    };
    for _ in 0..3 {
        let warm = c.run(&req).unwrap();
        assert_warm(&warm);
        assert!(boolean(&warm, &["telemetry", "machine_reused"]));
    }

    // The same job from four clients at once: whether a request joins
    // the one in flight or leads an execution of its own, it is warm.
    let start = Arc::new(Barrier::new(4));
    let clients: Vec<_> = (0..4)
        .map(|_| {
            let (req, start) = (Arc::clone(&req), Arc::clone(&start));
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).unwrap();
                start.wait();
                [c.run(&req).unwrap(), c.run(&req).unwrap()]
            })
        })
        .collect();
    for client in clients {
        client.join().unwrap().iter().for_each(&assert_warm);
    }
    assert_eq!(
        created(&mut c),
        created_cold,
        "the warm and burst requests constructed no machine"
    );
    handle.shutdown().unwrap();
}

/// The daemon's answer must be the same bits a direct in-process
/// `Compiled::run_on` produces: same modelled time (f64-exact through
/// the JSON round trip), same message/byte counts, same PRINT output.
#[test]
fn server_run_is_bit_identical_to_direct_run() {
    let source = jacobi(24, 3);
    let grid = vec![2, 2];

    let req = run_req(source.clone(), grid.clone());
    let compiled = compile(&source, &req.compile_options()).unwrap();
    let mut machine = Machine::new(MachineSpec::ipsc860(), f90d_distrib::ProcGrid::new(&grid));
    let direct = compiled.run_on(&mut machine).unwrap();

    let handle = Server::spawn(ServeConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    let resp = c.run(&req).unwrap();
    assert_ok(&resp);
    assert_eq!(
        num(&resp, &["result", "elapsed_virt_s"]).to_bits(),
        direct.elapsed.to_bits(),
        "modelled time must round-trip bit-exactly"
    );
    assert_eq!(num(&resp, &["result", "messages"]), direct.messages as f64);
    assert_eq!(num(&resp, &["result", "bytes"]), direct.bytes as f64);
    let printed: Vec<String> = match get(&resp, &["result", "printed"]) {
        Json::Arr(items) => items
            .iter()
            .map(|i| i.as_str().unwrap().to_string())
            .collect(),
        other => panic!("printed not an array: {other:?}"),
    };
    assert_eq!(printed, direct.printed);
    handle.shutdown().unwrap();
}

/// INTEGER `**` keeps the exponent's parity above 62 everywhere a tenant
/// can reach it: `corpus/int_pow.f90d` (`(-1)**63`, a 128-element
/// alternating fill that sums to 0, powers that wrap) prints its pinned
/// lines from the reference interpreter, both tiers of the engine and
/// the daemon alike. Every one of them used to clamp the
/// exponent to 62 and print `ALT 66.000000`.
#[test]
fn integer_pow_is_the_same_on_every_evaluator_and_through_the_daemon() {
    let source = include_str!("../../../corpus/int_pow.f90d");
    let want: Vec<&str> = include_str!("../../../corpus/int_pow.expected")
        .lines()
        .collect();
    assert!(want[0].starts_with("ALT 0.000000 -1.000000 1.000000 -1.000000"));
    same_on_every_evaluator_and_through_the_daemon(source, &want);
}

/// INTEGER `+ - *`, unary minus and `ABS` wrap in every build, on every
/// evaluator: `corpus/int_wrap.f90d` prints its pinned lines (blessed
/// from a release build of the parent, whose debug build panicked at
/// six different sites) from the reference interpreter, both tiers and
/// the daemon — a result, not a 500.
#[test]
fn integer_overflow_wraps_on_every_evaluator_and_through_the_daemon() {
    let source = include_str!("../../../corpus/int_wrap.f90d");
    let want: Vec<&str> = include_str!("../../../corpus/int_wrap.expected")
        .lines()
        .collect();
    assert_eq!(want[0], "SCALAR -9223372036854775808");
    same_on_every_evaluator_and_through_the_daemon(source, &want);
}

fn same_on_every_evaluator_and_through_the_daemon(source: &str, want: &[&str]) {
    let grid = vec![4];
    let req = run_req(source.to_string(), grid.clone());

    let compiled = compile(source, &req.compile_options()).unwrap();
    let reference = f90d_core::reference::run_reference(&compiled.analyzed, &Default::default());
    assert_eq!(reference.unwrap().printed, want, "reference interpreter");

    let handle = Server::spawn(ServeConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    for native in [false, true] {
        let mut opts = req.compile_options();
        opts.opt.native_kernels = native;
        let compiled = compile(source, &opts).unwrap();
        let mut machine = Machine::new(MachineSpec::ipsc860(), f90d_distrib::ProcGrid::new(&grid));
        let direct = compiled.run_on(&mut machine).unwrap();
        assert_eq!(direct.printed, want, "native kernels {native}");
    }
    let resp = c.run(&req).unwrap();
    assert_ok(&resp);
    let printed: Vec<&str> = match get(&resp, &["result", "printed"]) {
        Json::Arr(items) => items.iter().map(|i| i.as_str().unwrap()).collect(),
        other => panic!("printed not an array: {other:?}"),
    };
    assert_eq!(printed, want, "through the daemon");
    // The daemon has one backend; the tree walker's wire name is a
    // structured 400 now.
    let resp = c
        .request_raw(r#"{"op":"run","source":"END","grid":[4],"options":{"backend":"treewalk"}}"#)
        .unwrap();
    assert_eq!(get(&resp, &["code"]), &Json::Num(400.0), "{resp:?}");
    handle.shutdown().unwrap();
}

/// With one run slot and a zero-length queue, a second distinct job is
/// refused with a structured 429 while the first is still executing.
#[test]
fn overload_gets_a_structured_429() {
    let handle = Server::spawn(ServeConfig {
        max_running: 1,
        max_queued: 0,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = handle.addr;
    let state = Arc::clone(handle.state());

    // The blocker must outlast the observer below by a wide margin on
    // any build profile: 250 sweeps of N=128 run ~150 ms optimized (~3 s
    // unoptimized), against microseconds per poll.
    let slow = std::thread::spawn(move || {
        let mut c = Client::connect(addr).unwrap();
        c.run(&run_req(jacobi(128, 250), vec![2, 2])).unwrap()
    });
    // Wait until the slow job holds the run slot.
    let deadline = Instant::now() + Duration::from_secs(120);
    while num(&state.stats_json(), &["stats", "admission", "running"]) < 1.0 {
        assert!(
            !slow.is_finished(),
            "the blocking job finished before it was seen running: enlarge it"
        );
        assert!(
            Instant::now() < deadline,
            "the blocking job never took its run slot"
        );
        std::thread::yield_now();
    }
    let mut c = Client::connect(addr).unwrap();
    let refused = c.run(&run_req(jacobi(20, 1), vec![2, 2])).unwrap();
    assert!(!boolean(&refused, &["ok"]));
    assert_eq!(num(&refused, &["code"]), 429.0);
    assert!(get(&refused, &["error"])
        .as_str()
        .unwrap()
        .contains("overloaded"));

    let slow_resp = slow.join().unwrap();
    assert_ok(&slow_resp);
    // Slot free again: the same job now runs (and rides the warm caches).
    let retry = c.run(&run_req(jacobi(20, 1), vec![2, 2])).unwrap();
    assert_ok(&retry);

    assert!(
        num(
            &c.stats().unwrap(),
            &["stats", "server", "rejected_overload"]
        ) >= 1.0
    );
    handle.shutdown().unwrap();
}

/// Shutdown drains: in-flight work answers, new runs get 503, pings
/// still answer, and the accept loop exits cleanly.
#[test]
fn shutdown_refuses_new_runs_with_503() {
    let handle = Server::spawn(ServeConfig::default()).unwrap();
    let mut c = Client::connect(handle.addr).unwrap();
    assert_ok(&c.run(&run_req(jacobi(10, 1), vec![2, 2])).unwrap());

    let ack = c.shutdown().unwrap();
    assert_ok(&ack);
    assert!(boolean(&ack, &["draining"]));

    let refused = c.run(&run_req(jacobi(11, 1), vec![2, 2])).unwrap();
    assert!(!boolean(&refused, &["ok"]));
    assert_eq!(num(&refused, &["code"]), 503.0);
    assert_ok(&c.ping().unwrap());
    handle.shutdown().unwrap();
}
