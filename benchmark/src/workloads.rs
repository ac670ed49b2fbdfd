//! The six workloads: what each one runs, on which machine, and how one
//! job (source text in, checked result out) is carried out.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use f90d_core::reference::run_reference;
use f90d_core::{compile, Backend, CompileOptions};
use f90d_distrib::ProcGrid;
use f90d_machine::{ExecMode, Machine, MachineSpec};
use f90d_serve::client::run_to_json;
use f90d_serve::{RunRequest, ServeConfig, Server, ServerHandle};
use serde::json::Json;

use crate::programs::{self, Program};

/// Which path a job takes into the program under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `f90d_core::compile` → `Machine::new` → `run_on_traced`.
    Library,
    /// One request and response over one TCP connection to an
    /// in-process `Server::spawn`.
    Serve,
}

/// The static definition of one workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line for `BENCHMARK.json`.
    pub why: &'static str,
    pub kind: Kind,
    pub grid: &'static [i64],
    /// Fat tree (arity, levels) with the iPSC/860 constants; `None` is
    /// the iPSC/860 hypercube.
    pub fat_tree: Option<(i64, i64)>,
    pub contention: bool,
    /// Untimed, verified ops that end set-up.
    pub warmup: u64,
    /// The exact window: counts, `virt_s` and memory are taken over the
    /// first this-many timed ops, so they do not depend on how many ops
    /// fit into `--seconds`.
    pub exact_ops: u64,
    /// Every op runs the same source, so every op must repeat the first
    /// verified op's modelled time, messages and bytes bit for bit.
    pub fixed_input: bool,
}

pub const WORKLOADS: [Workload; 6] = [
    Workload {
        name: "gauss-ipsc16",
        why: "Paper Table 4 / Figs 5-6: Gaussian elimination (*,BLOCK) N=192 on a 16-node iPSC/860 hypercube; the vm native kernel and FORALL dispatch do the work, one multicast per step.",
        kind: Kind::Library,
        grid: &[16],
        fat_tree: None,
        contention: false,
        warmup: 3,
        exact_ops: 60,
        fixed_input: true,
    },
    Workload {
        name: "stencil-ghost",
        why: "Paper section 4 ex. 1: two-field Jacobi (BLOCK,BLOCK) N=256, 10 sweeps on 4x4; vm native stencil plus comm ghost exchange, two fields so comm_plan and overlap have something to move.",
        kind: Kind::Library,
        grid: &[4, 4],
        fat_tree: None,
        contention: false,
        warmup: 3,
        exact_ops: 60,
        fixed_input: true,
    },
    Workload {
        name: "gauss-fattree256",
        why: "Comm-bound: Gaussian N=64 on 256 ranks of a 4-ary fat tree with link contention on; tree collectives, transport and net routing do the host work and the root links set virt_s.",
        kind: Kind::Library,
        grid: &[256],
        fat_tree: Some((4, 4)),
        contention: true,
        warmup: 3,
        exact_ops: 60,
        fixed_input: true,
    },
    Workload {
        name: "irregular-gather",
        why: "Paper section 4 ex. 3: A(U(I))=B(V(I))+C(I), N=8192 on 16 nodes, a fresh seeded (U,V) per op; PARTI inspector/executor, schedule-cache inserts, bytecode element loop.",
        kind: Kind::Library,
        grid: &[16],
        fat_tree: None,
        contention: false,
        warmup: 3,
        exact_ops: 60,
        fixed_input: false,
    },
    Workload {
        name: "serve-warm",
        why: "Daemon steady state: one composite program repeated over one TCP connection, so compile, program and schedule caches hit and the machine pool reuses; JSON, admission, dedup, socket.",
        kind: Kind::Serve,
        grid: &[4],
        fat_tree: None,
        contention: false,
        warmup: 200,
        exact_ops: 1000,
        fixed_input: true,
    },
    Workload {
        name: "serve-cold",
        why: "Daemon with every cache missing: a never-seen ~100-statement N=8 program per request; frontend and core compile dominate, and the unbounded program cache shows as peak_rss_mb.",
        kind: Kind::Serve,
        grid: &[4],
        fat_tree: None,
        contention: false,
        warmup: 20,
        exact_ops: 1000,
        fixed_input: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Op numbers of warm-up jobs, of probes and of a traced run's untraced
/// phase are kept apart from the timed ops', so a seeded workload never
/// repeats an input and the exact window always covers ops 0 onwards.
pub const UNTRACED_BASE: u64 = 1 << 39;
pub const WARMUP_BASE: u64 = 1 << 40;
pub const PROBE_BASE: u64 = 1 << 41;

impl Workload {
    pub fn spec(&self) -> MachineSpec {
        match self.fat_tree {
            Some((arity, levels)) => MachineSpec::fat_tree(arity, levels).expect("valid fat tree"),
            None => MachineSpec::ipsc860(),
        }
    }

    /// The source of op `op` (problem sizes are fixed here; see
    /// `benchmark/README.md` for the measurements behind them).
    pub fn program(&self, seed: u64, op: u64) -> Program {
        match self.name {
            "gauss-ipsc16" => programs::gauss(192, seed),
            "stencil-ghost" => programs::stencil2(256, 10, seed),
            "gauss-fattree256" => programs::gauss(64, seed),
            "irregular-gather" => programs::irregular(8192, seed, op),
            "serve-warm" => programs::composite(256, 48, 32, seed),
            "serve-cold" => programs::cold(seed, op, 100),
            other => unreachable!("unknown workload {other}"),
        }
    }

    /// Compile options of a library job: VM backend, native kernels,
    /// sequential local phases (what `f90d-serve` asks for too).
    pub fn compile_options(&self) -> CompileOptions {
        CompileOptions::on_grid(self.grid)
            .with_backend(Backend::Vm)
            .with_exec(ExecMode::Sequential)
    }

    pub fn new_machine(&self, spec: &MachineSpec) -> Machine {
        let mut m = Machine::new(spec.clone(), ProcGrid::new(self.grid));
        m.set_contention(self.contention);
        m
    }

    pub fn request(&self, source: &str) -> RunRequest {
        RunRequest {
            source: source.to_string(),
            grid: self.grid.to_vec(),
            machine: "ipsc860".to_string(),
            backend: Backend::Vm,
            sched_cache: true,
            threaded: false,
            overlap: false,
        }
    }
}

/// One job's input with the answer it must give.
#[derive(Debug)]
pub struct Input {
    pub program: Program,
    /// PRINT lines of the sequential reference interpreter, which shares
    /// only the frontend with the compiler under test.
    pub expected: Vec<String>,
}

/// The self-test's switch: make the expected answer wrong, to show that
/// the checker can fail.
static CORRUPT_EXPECTED: AtomicBool = AtomicBool::new(false);

pub fn set_corrupt_expected(on: bool) {
    CORRUPT_EXPECTED.store(on, Ordering::Relaxed);
}

pub fn oracle(source: &str) -> Result<Vec<String>, String> {
    let analyzed = f90d_frontend::compile_front(source)?;
    Ok(run_reference(&analyzed, &HashMap::new())?.printed)
}

/// Produces the input of each op, outside the timed part of the op.
pub struct Inputs {
    workload: &'static Workload,
    seed: u64,
    fixed: Option<Arc<Input>>,
}

impl Inputs {
    pub fn new(workload: &'static Workload, seed: u64) -> Self {
        Inputs {
            workload,
            seed,
            fixed: None,
        }
    }

    pub fn get(&mut self, op: u64) -> Result<Arc<Input>, String> {
        let input = match &self.fixed {
            Some(input) => Arc::clone(input),
            None => {
                let program = self.workload.program(self.seed, op);
                let expected = oracle(&program.source)?;
                if expected.is_empty() {
                    return Err("the program printed no checksum".into());
                }
                let input = Arc::new(Input { program, expected });
                if self.workload.fixed_input {
                    self.fixed = Some(Arc::clone(&input));
                }
                input
            }
        };
        // Warm-up ops stay right, so that set-up succeeds and the timed
        // ops are the ones reported as failed.
        if CORRUPT_EXPECTED.load(Ordering::Relaxed) && op < WARMUP_BASE {
            let mut expected = input.expected.clone();
            expected[0].push('9');
            return Ok(Arc::new(Input {
                program: input.program.clone(),
                expected,
            }));
        }
        Ok(input)
    }
}

/// What one job returned: the result a user sees plus the counters the
/// program hands back with it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outcome {
    pub printed: Vec<String>,
    pub virt_s: f64,
    pub messages: u64,
    pub bytes: u64,
    pub sched_hits: u64,
    pub sched_misses: u64,
    pub program_cache_hit: bool,
    pub native_matched: u64,
    pub native_fallback: u64,
    pub comm_groups: u64,
    pub comm_fallbacks: u64,
    /// Serve jobs only: response telemetry.
    pub compile_cache_hit: bool,
    pub machine_reused: bool,
    pub joined: bool,
    pub queue_wait_ms: f64,
    pub lease_wait_ms: f64,
    pub exec_ms: f64,
    pub request_bytes: u64,
    pub response_bytes: u64,
}

/// One client connection: a request line out, a response line back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn connect(addr: std::net::SocketAddr) -> io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        let reader = BufReader::new(writer.try_clone()?);
        Ok(Conn { reader, writer })
    }

    /// `line` ends in `\n` and goes out in one write.
    pub fn roundtrip(&mut self, line: &str) -> io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(resp)
    }
}

pub fn request_line(req: &RunRequest) -> String {
    let mut line = run_to_json(req).render();
    line.push('\n');
    line
}

fn field<'a>(doc: &'a Json, path: &[&str]) -> Result<&'a Json, String> {
    path.iter().try_fold(doc, |cur, key| {
        cur.get(key)
            .ok_or_else(|| format!("response lacks `{}`", path.join(".")))
    })
}

fn number(doc: &Json, path: &[&str]) -> Result<f64, String> {
    field(doc, path)?
        .as_f64()
        .ok_or_else(|| format!("`{}` is not a number", path.join(".")))
}

fn flag(doc: &Json, path: &[&str]) -> bool {
    field(doc, path).is_ok_and(|v| v == &Json::Bool(true))
}

/// Read a run response; a refusal or an error is a failed job.
pub fn parse_response(line: &str, request_bytes: usize) -> Result<Outcome, String> {
    let doc = Json::parse(line.trim_end())?;
    if !flag(&doc, &["ok"]) {
        return Err(format!("refused: {}", line.trim_end()));
    }
    let printed = field(&doc, &["result", "printed"])?
        .as_arr()
        .ok_or("`result.printed` is not an array")?
        .iter()
        .map(|s| {
            s.as_str()
                .map(str::to_string)
                .ok_or("PRINT line not a string")
        })
        .collect::<Result<Vec<_>, _>>()?;
    let t = |key| number(&doc, &["telemetry", key]);
    Ok(Outcome {
        printed,
        virt_s: number(&doc, &["result", "elapsed_virt_s"])?,
        messages: number(&doc, &["result", "messages"])? as u64,
        bytes: number(&doc, &["result", "bytes"])? as u64,
        sched_hits: t("sched_hits")? as u64,
        sched_misses: t("sched_misses")? as u64,
        program_cache_hit: flag(&doc, &["telemetry", "program_cache_hit"]),
        compile_cache_hit: flag(&doc, &["telemetry", "compile_cache_hit"]),
        machine_reused: flag(&doc, &["telemetry", "machine_reused"]),
        joined: flag(&doc, &["telemetry", "joined"]),
        queue_wait_ms: t("queue_wait_ms")?,
        lease_wait_ms: t("lease_wait_ms")?,
        exec_ms: t("exec_ms")?,
        request_bytes: request_bytes as u64,
        response_bytes: line.len() as u64,
        ..Outcome::default()
    })
}

/// Carries out jobs of one workload.
pub struct Runner {
    pub workload: &'static Workload,
    opts: CompileOptions,
    spec: MachineSpec,
    pub server: Option<ServerHandle>,
    pub conn: Option<Conn>,
}

impl Runner {
    /// For serve workloads this starts the daemon and connects the one
    /// client; both belong to set-up.
    pub fn start(workload: &'static Workload) -> Result<Runner, String> {
        let (server, conn) = match workload.kind {
            Kind::Library => (None, None),
            Kind::Serve => {
                let server = Server::spawn(ServeConfig::default()).map_err(|e| e.to_string())?;
                let conn = Conn::connect(server.addr).map_err(|e| e.to_string())?;
                (Some(server), Some(conn))
            }
        };
        Ok(Runner {
            workload,
            opts: workload.compile_options(),
            spec: workload.spec(),
            server,
            conn,
        })
    }

    /// One job, source text to result. This is the timed unit.
    pub fn run(&mut self, source: &str) -> Result<Outcome, String> {
        match &mut self.conn {
            None => {
                let compiled = compile(source, &self.opts)?;
                let mut m = self.workload.new_machine(&self.spec);
                let (rep, trace) = compiled.run_on_traced(&mut m).map_err(|e| e.to_string())?;
                Ok(Outcome {
                    printed: rep.printed,
                    virt_s: rep.elapsed,
                    messages: rep.messages,
                    bytes: rep.bytes,
                    sched_hits: trace.sched_hits,
                    sched_misses: trace.sched_misses,
                    program_cache_hit: trace.program_cache_hit == Some(true),
                    native_matched: trace.native_matched,
                    native_fallback: trace.native_fallback,
                    comm_groups: trace.comm_groups,
                    comm_fallbacks: trace.comm_fallbacks,
                    ..Outcome::default()
                })
            }
            Some(conn) => {
                let line = request_line(&self.workload.request(source));
                let resp = conn.roundtrip(&line).map_err(|e| e.to_string())?;
                parse_response(&resp, line.len())
            }
        }
    }

    /// Close the connection, drain the daemon and join its accept loop.
    pub fn stop(self) -> Result<(), String> {
        drop(self.conn);
        match self.server {
            Some(server) => server.shutdown().map_err(|e| e.to_string()),
            None => Ok(()),
        }
    }
}

/// Checks every job: PRINT lines against the reference interpreter and,
/// on fixed-input workloads, the modelled numbers against the first
/// verified op.
#[derive(Default)]
pub struct Checker {
    first: Option<(u64, u64, u64)>,
}

impl Checker {
    pub fn check(
        &mut self,
        workload: &Workload,
        expected: &[String],
        out: &Result<Outcome, String>,
    ) -> Result<(), String> {
        let out = out.as_ref().map_err(String::clone)?;
        if out.printed != expected {
            return Err(format!(
                "PRINT lines {:?} differ from the reference interpreter's {:?}",
                out.printed, expected
            ));
        }
        if workload.fixed_input {
            let now = (out.virt_s.to_bits(), out.messages, out.bytes);
            let first = *self.first.get_or_insert(now);
            if now != first {
                return Err(format!(
                    "modelled (virt_s bits, messages, bytes) {now:?} differ from the first verified op's {first:?}"
                ));
            }
        }
        Ok(())
    }
}
