//! The daemon: TCP accept loop, per-connection request handling, the
//! leader/joiner run path, and graceful drain.
//!
//! One thread accepts connections; each connection gets a thread that
//! reads newline-delimited requests and writes one response line per
//! request. A `run` request flows through three gates, in order:
//!
//! 1. **Shutdown** — once draining, new runs are refused with 503.
//! 2. **Dedup** ([`crate::dedup`]) — identical in-flight jobs collapse
//!    to one execution; joiners skip admission entirely (they add no
//!    work, so they cannot overload the server).
//! 3. **Admission** ([`crate::admission`]) — leaders take a bounded run
//!    slot or queue for one; a full queue is a structured 429.
//!
//! The execution itself reuses every warm path: the server-side compile
//! cache of [`Executable`]s (skips the frontend, code generation and
//! lowering), the cross-run schedule cache ([`f90d_comm::sched_cache`])
//! and the [`MachinePool`]. Each response reports which of those fired
//! for it. A compile-cache entry holds the bytecode and its options
//! only: its key, the whole request, is exact, so the daemon does not go
//! through the process-wide program cache ([`f90d_core::vm_cache`]),
//! whose hashed key needs a copy of the node program to guard against
//! collisions.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use f90d_core::{compile, Executable};
use f90d_machine::{MachinePool, OnceMap};
use serde::json::{Json, ParseLimits};

use crate::admission::Admission;
use crate::dedup::{Entry, Inflight};
use crate::protocol::{
    ack_response, error_response, parse_request, run_response, JobResult, Reject, Request,
    RunOutcome, RunRequest,
};
use crate::telemetry::ServerStats;

/// Executables kept server-side (a request key holds its whole source,
/// up to the request-line cap).
const COMPILE_CACHE_CAP: usize = 512;

/// Daemon configuration (the binary's flags map onto this 1:1).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7790` (`:0` picks a free port).
    pub listen: String,
    /// Concurrent run executions (`--jobs`). Must be ≥ 1.
    pub max_running: usize,
    /// Runs allowed to wait for a slot before 429 (`--queue`).
    pub max_queued: usize,
    /// Request-line byte cap; longer lines are refused with 413.
    pub max_request_bytes: usize,
    /// JSON nesting cap for request parsing.
    pub max_json_depth: usize,
    /// Idle machines shelved per (spec, grid) identity.
    pub pool_cap: usize,
    /// Where to write the final stats snapshot on graceful shutdown.
    pub stats_file: Option<std::path::PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:0".to_string(),
            max_running: 2,
            max_queued: 64,
            max_request_bytes: 1 << 20,
            max_json_depth: 64,
            pool_cap: 4,
            stats_file: None,
        }
    }
}

/// Everything the connection threads share.
#[derive(Debug)]
pub struct ServerState {
    cfg: ServeConfig,
    /// Server-wide counters (the `stats` op renders these).
    pub stats: ServerStats,
    /// The machine pool; public so harnesses can assert reuse counters.
    pub pool: MachinePool,
    admission: Admission,
    inflight: Arc<Inflight<RunRequest, JobResult>>,
    compiled: OnceMap<RunRequest, Executable>,
    shutdown: AtomicBool,
}

impl ServerState {
    fn new(cfg: ServeConfig) -> Self {
        let pool = MachinePool::new(cfg.pool_cap);
        let admission = Admission::new(cfg.max_running, cfg.max_queued);
        ServerState {
            cfg,
            stats: ServerStats::default(),
            pool,
            admission,
            inflight: Arc::new(Inflight::new()),
            compiled: OnceMap::new(COMPILE_CACHE_CAP),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Ask the server to drain and stop (same effect as SIGTERM).
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }

    /// The admission gate: its counts, and a run slot for a harness to
    /// hold — a [`crate::admission::Ticket`] taken here occupies one of
    /// `max_running` exactly like an executing job until it is dropped.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Requests now waiting on an identical request's execution — what a
    /// harness that holds a run slot waits for before it lets it go.
    pub fn joiners(&self) -> usize {
        self.inflight.joiners()
    }

    /// True once shutdown has been requested.
    pub fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || sigterm_received()
    }

    fn limits(&self) -> ParseLimits {
        ParseLimits::network(self.cfg.max_request_bytes, self.cfg.max_json_depth)
    }

    /// The executable for `req`, via the server-side cache: on a miss,
    /// compiled and lowered, with the syntax tree and node program
    /// dropped before the entry is published. Returns the executable and
    /// whether the lookup hit. A lowering error is a compile error.
    fn executable_for(&self, req: &RunRequest) -> Result<(Arc<Executable>, bool), Reject> {
        let (exe, hit) = self
            .compiled
            .get_or_try_build(req, || {
                compile(&req.source, &req.compile_options())?.into_executable()
            })
            .map_err(|e| {
                ServerStats::bump(&self.stats.compile_errors);
                Reject::new(422, format!("compile error: {e}"))
            })?;
        ServerStats::bump(if hit {
            &self.stats.compile_cache_hits
        } else {
            &self.stats.compile_cache_misses
        });
        Ok((exe, hit))
    }

    /// Execute one job (the dedup leader's path).
    fn execute(&self, req: &RunRequest) -> JobResult {
        ServerStats::bump(&self.stats.runs);
        let (exe, compile_cache_hit) = self.executable_for(req)?;
        let lease_start = Instant::now();
        let (mut machine, machine_reused) = self.pool.check_out_traced(&req.spec(), &req.grid);
        let lease_wait_ms = lease_start.elapsed().as_secs_f64() * 1e3;
        let exec_start = Instant::now();
        let run = exe.run_on_traced(&mut machine);
        let exec_ms = exec_start.elapsed().as_secs_f64() * 1e3;
        match run {
            Ok((rep, trace)) => {
                self.pool.check_in(machine);
                Ok(RunOutcome {
                    elapsed_virt_s: rep.elapsed,
                    messages: rep.messages,
                    bytes: rep.bytes,
                    printed: rep.printed,
                    // The bytecode came from a cache exactly when the
                    // executable did.
                    program_cache_hit: compile_cache_hit,
                    sched_hits: trace.sched_hits,
                    sched_misses: trace.sched_misses,
                    compile_cache_hit,
                    machine_reused,
                    lease_wait_ms,
                    exec_ms,
                })
            }
            Err(e) => {
                // Rule 2 of the pool lifecycle: never shelve a machine
                // whose run went wrong — drop it here.
                drop(machine);
                ServerStats::bump(&self.stats.exec_errors);
                Err(Reject::new(500, format!("execution error: {e}")))
            }
        }
    }

    /// The full run path: shutdown gate → dedup → admission → execute.
    fn handle_run(&self, req: RunRequest) -> Json {
        if self.draining() {
            ServerStats::bump(&self.stats.rejected_shutdown);
            return error_response(&Reject::new(503, "server is shutting down"));
        }
        let fallback: JobResult = Err(Reject::new(500, "internal error: run leader panicked"));
        match self.inflight.enter(req.clone(), fallback) {
            Entry::Joined(result) => {
                ServerStats::bump(&self.stats.joined);
                match result {
                    Ok(out) => run_response(&out, true, 0.0),
                    Err(rej) => error_response(&rej),
                }
            }
            Entry::Lead(leader) => {
                let ticket = match self.admission.admit() {
                    Ok(t) => t,
                    Err(rej) => {
                        ServerStats::bump(&self.stats.rejected_overload);
                        // Joiners that piled on share the 429: they would
                        // have been the same load.
                        leader.resolve(Err(rej.clone()));
                        return error_response(&rej);
                    }
                };
                let result =
                    catch_unwind(AssertUnwindSafe(|| self.execute(&req))).unwrap_or_else(|_| {
                        Err(Reject::new(500, "internal error: execution panicked"))
                    });
                leader.resolve(result.clone());
                let queue_wait_ms = ticket.queue_wait_ms;
                drop(ticket);
                match result {
                    Ok(out) => run_response(&out, false, queue_wait_ms),
                    Err(rej) => error_response(&rej),
                }
            }
        }
    }

    /// Server-wide stats snapshot (the `stats` op).
    pub fn stats_json(&self) -> Json {
        let vm = f90d_core::vm_cache();
        let sched = f90d_comm::sched_cache::global();
        let n = Json::Num;
        ack_response(&[(
            "stats",
            Json::Obj(vec![
                ("server".into(), Json::Obj(self.stats.to_json_fields())),
                (
                    "admission".into(),
                    Json::Obj(vec![
                        ("running".into(), n(self.admission.running() as f64)),
                        ("queued".into(), n(self.admission.queued() as f64)),
                        ("max_running".into(), n(self.cfg.max_running as f64)),
                        ("max_queued".into(), n(self.cfg.max_queued as f64)),
                    ]),
                ),
                (
                    "machine_pool".into(),
                    Json::Obj(vec![
                        ("created".into(), n(self.pool.created() as f64)),
                        ("reused".into(), n(self.pool.reused() as f64)),
                        ("idle".into(), n(self.pool.idle() as f64)),
                    ]),
                ),
                (
                    "compile_cache".into(),
                    Json::Obj(vec![
                        ("len".into(), n(self.compiled.len() as f64)),
                        ("cap".into(), n(COMPILE_CACHE_CAP as f64)),
                    ]),
                ),
                (
                    "program_cache".into(),
                    Json::Obj(vec![
                        ("hits".into(), n(vm.hits() as f64)),
                        ("misses".into(), n(vm.misses() as f64)),
                        ("len".into(), n(vm.len() as f64)),
                    ]),
                ),
                (
                    "sched_cache".into(),
                    Json::Obj(vec![
                        ("hits".into(), n(sched.hits() as f64)),
                        ("misses".into(), n(sched.misses() as f64)),
                        ("len".into(), n(sched.len() as f64)),
                    ]),
                ),
                ("inflight_groups".into(), n(self.inflight.len() as f64)),
            ]),
        )])
    }

    /// Dispatch one parsed request (everything but connection I/O).
    pub fn dispatch(&self, line: &[u8]) -> Json {
        ServerStats::bump(&self.stats.requests);
        match parse_request(line, &self.limits()) {
            Ok(Request::Ping) => ack_response(&[("pong", Json::Bool(true))]),
            Ok(Request::Stats) => self.stats_json(),
            Ok(Request::Shutdown) => {
                self.request_shutdown();
                ack_response(&[("draining", Json::Bool(true))])
            }
            Ok(Request::Run(req)) => self.handle_run(req),
            Err(rej) => {
                let rej = if rej.msg.contains("input too large") {
                    ServerStats::bump(&self.stats.oversized);
                    Reject::new(413, rej.msg)
                } else {
                    ServerStats::bump(&self.stats.bad_requests);
                    rej
                };
                error_response(&rej)
            }
        }
    }
}

/// What one capped line read produced.
enum LineRead {
    /// A complete line (without the trailing newline).
    Line(Vec<u8>),
    /// The line exceeded the cap; the remainder was discarded up to the
    /// next newline so the connection stays usable.
    Overflow,
    /// Clean end of stream.
    Eof,
}

/// Read one `\n`-terminated line, refusing to buffer more than `cap`
/// bytes — a malicious client cannot make the server hold an unbounded
/// request line in memory.
fn read_line_capped(reader: &mut impl BufRead, cap: usize) -> io::Result<LineRead> {
    let mut line = Vec::new();
    loop {
        let buf = reader.fill_buf()?;
        if buf.is_empty() {
            return Ok(if line.is_empty() {
                LineRead::Eof
            } else {
                LineRead::Line(line)
            });
        }
        match buf.iter().position(|&b| b == b'\n') {
            Some(nl) => {
                if line.len() + nl > cap {
                    reader.consume(nl + 1);
                    return Ok(LineRead::Overflow);
                }
                line.extend_from_slice(&buf[..nl]);
                reader.consume(nl + 1);
                return Ok(LineRead::Line(line));
            }
            None => {
                let len = buf.len();
                if line.len() + len > cap {
                    // Discard the rest of this oversized line.
                    reader.consume(len);
                    loop {
                        let buf = reader.fill_buf()?;
                        if buf.is_empty() {
                            return Ok(LineRead::Overflow);
                        }
                        match buf.iter().position(|&b| b == b'\n') {
                            Some(nl) => {
                                reader.consume(nl + 1);
                                return Ok(LineRead::Overflow);
                            }
                            None => {
                                let len = buf.len();
                                reader.consume(len);
                            }
                        }
                    }
                }
                line.extend_from_slice(buf);
                reader.consume(len);
            }
        }
    }
}

fn handle_conn(state: Arc<ServerState>, stream: TcpStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    loop {
        let line = match read_line_capped(&mut reader, state.cfg.max_request_bytes) {
            Ok(LineRead::Eof) | Err(_) => return,
            Ok(LineRead::Overflow) => {
                ServerStats::bump(&state.stats.requests);
                ServerStats::bump(&state.stats.oversized);
                let resp = error_response(&Reject::new(
                    413,
                    format!(
                        "request line exceeds the {}-byte cap",
                        state.cfg.max_request_bytes
                    ),
                ));
                if write_line(&mut writer, &resp).is_err() {
                    return;
                }
                continue;
            }
            Ok(LineRead::Line(line)) => line,
        };
        if line.iter().all(u8::is_ascii_whitespace) {
            continue;
        }
        let resp = state.dispatch(&line);
        if write_line(&mut writer, &resp).is_err() {
            return;
        }
    }
}

fn write_line(writer: &mut impl Write, resp: &Json) -> io::Result<()> {
    writer.write_all(resp.render().as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

impl Server {
    /// Bind the listen address and set up the shared state. The server
    /// does not accept connections until [`Server::run`].
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&cfg.listen)?;
        Ok(Server {
            listener,
            state: Arc::new(ServerState::new(cfg)),
        })
    }

    /// The bound address (useful with a `:0` listen port).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The shared state, for harnesses that inspect counters directly.
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Accept and serve until shutdown is requested (the `shutdown` op,
    /// [`ServerState::request_shutdown`], or SIGTERM), then drain:
    /// every admitted run finishes, the final stats snapshot is written
    /// to [`ServeConfig::stats_file`], and the call returns.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        while !self.state.draining() {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    let state = Arc::clone(&self.state);
                    std::thread::spawn(move || handle_conn(state, stream));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
        // Graceful drain: connection threads refuse new runs with 503;
        // every run already past admission completes and responds.
        self.state.admission.drain();
        if let Some(path) = &self.state.cfg.stats_file {
            std::fs::write(path, self.state.stats_json().render_pretty() + "\n")?;
        }
        Ok(())
    }

    /// [`Server::run`] on a background thread: returns a handle with the
    /// bound address. For in-process harnesses (tests, `benchmark/`).
    pub fn spawn(cfg: ServeConfig) -> io::Result<ServerHandle> {
        let server = Server::bind(cfg)?;
        let addr = server.local_addr()?;
        let state = server.state();
        let thread = std::thread::spawn(move || server.run());
        Ok(ServerHandle {
            addr,
            state,
            thread,
        })
    }
}

/// A running in-process server (see [`Server::spawn`]).
#[derive(Debug)]
pub struct ServerHandle {
    /// The bound listen address.
    pub addr: SocketAddr,
    state: Arc<ServerState>,
    thread: JoinHandle<io::Result<()>>,
}

impl ServerHandle {
    /// The shared state, for asserting on counters.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Request shutdown, wait for the drain, and return the accept
    /// loop's result.
    pub fn shutdown(self) -> io::Result<()> {
        self.state.request_shutdown();
        match self.thread.join() {
            Ok(res) => res,
            Err(_) => Err(io::Error::other("server thread panicked")),
        }
    }
}

static SIGTERM: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM has been delivered (after
/// [`install_sigterm_handler`]). The accept loop treats this exactly
/// like the `shutdown` op: stop accepting, drain, write stats, exit.
pub fn sigterm_received() -> bool {
    SIGTERM.load(Ordering::SeqCst)
}

/// Install a SIGTERM handler that flips the flag behind
/// [`sigterm_received`]. Raw `signal(2)` FFI — the only thing the
/// handler does is a relaxed atomic store, which is async-signal-safe.
#[cfg(unix)]
pub fn install_sigterm_handler() {
    extern "C" fn on_sigterm(_sig: i32) {
        SIGTERM.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM_NUM: i32 = 15;
    unsafe {
        signal(SIGTERM_NUM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

/// No-op off Unix: the daemon still drains via the `shutdown` op.
#[cfg(not(unix))]
pub fn install_sigterm_handler() {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn capped_reader_splits_lines_and_flags_overflow() {
        let mut r = Cursor::new(b"short\n".to_vec());
        let LineRead::Line(l) = read_line_capped(&mut r, 16).unwrap() else {
            panic!()
        };
        assert_eq!(l, b"short");
        assert!(matches!(
            read_line_capped(&mut r, 16).unwrap(),
            LineRead::Eof
        ));

        // Oversized line is discarded through its newline; the next
        // line still parses.
        let mut r = Cursor::new(b"xxxxxxxxxxxxxxxxxxxxxxxxxxxxx\nok\n".to_vec());
        assert!(matches!(
            read_line_capped(&mut r, 8).unwrap(),
            LineRead::Overflow
        ));
        let LineRead::Line(l) = read_line_capped(&mut r, 8).unwrap() else {
            panic!()
        };
        assert_eq!(l, b"ok");

        // Unterminated trailing bytes still count as a line.
        let mut r = Cursor::new(b"tail".to_vec());
        let LineRead::Line(l) = read_line_capped(&mut r, 8).unwrap() else {
            panic!()
        };
        assert_eq!(l, b"tail");
    }

    #[test]
    fn oversized_detection_spans_buffer_boundaries() {
        // A tiny BufReader capacity forces the multi-fill path.
        let data = vec![b'a'; 64];
        let mut with_nl = data.clone();
        with_nl.push(b'\n');
        with_nl.extend_from_slice(b"next\n");
        let mut r = BufReader::with_capacity(8, Cursor::new(with_nl));
        assert!(matches!(
            read_line_capped(&mut r, 16).unwrap(),
            LineRead::Overflow
        ));
        let LineRead::Line(l) = read_line_capped(&mut r, 16).unwrap() else {
            panic!()
        };
        assert_eq!(l, b"next");
    }

    /// The compile cache at its real cap, through the server's own
    /// lookup: 3 × CAP distinct jobs compile once each and at most CAP
    /// stay; non-compiling sources count as errors, never as misses, and
    /// leave no entry (a request key holds its whole source).
    #[test]
    fn compile_cache_is_bounded_and_keeps_no_failed_source() {
        let state = ServerState::new(ServeConfig::default());
        let job = |source: String| RunRequest {
            source,
            grid: vec![2],
            machine: "ideal".to_string(),
            backend: f90d_core::Backend::Vm,
            sched_cache: true,
            threaded: false,
            overlap: false,
        };
        let load = |n: &AtomicU64| n.load(Ordering::Relaxed);
        for i in 0..3 * COMPILE_CACHE_CAP {
            let bad = job(format!("PROGRAM BAD{i}\nTHIS IS NOT FORTRAN(\nEND\n"));
            assert_eq!(state.executable_for(&bad).unwrap_err().code, 422);
        }
        assert_eq!(
            load(&state.stats.compile_errors),
            3 * COMPILE_CACHE_CAP as u64
        );
        assert_eq!(load(&state.stats.compile_cache_misses), 0);
        assert!(state.compiled.is_empty());

        for i in 0..3 * COMPILE_CACHE_CAP {
            let good = job(format!("PROGRAM P{i}\nREAL X\nX = {i}.0\nEND\n"));
            assert!(!state.executable_for(&good).unwrap().1, "job {i} hit");
        }
        assert_eq!(
            load(&state.stats.compile_cache_misses),
            3 * COMPILE_CACHE_CAP as u64
        );
        assert_eq!(load(&state.stats.compile_cache_hits), 0);
        assert_eq!(state.compiled.len(), COMPILE_CACHE_CAP);
    }
}
