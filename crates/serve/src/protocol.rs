//! The `f90d-serve/v1` wire protocol: line-delimited JSON requests and
//! responses (schema documented in the README).
//!
//! Every request is one JSON object on one line; every response is one
//! JSON object on one line. The request key for deduplication is the
//! **full structural job identity** — source text, grid, machine model
//! and execution options — never a bare hash, so two different
//! jobs can never alias one dedup group (the FNV-collision hazard fixed
//! for the schedule cache in an earlier PR applies here too).

use f90d_core::{Backend, CompileOptions};
use f90d_machine::MachineSpec;
use serde::json::{Json, ParseLimits};

/// Schema tag carried by every response.
pub const SCHEMA: &str = "f90d-serve/v1";

/// Largest processor-grid size a request may ask for: bounds the
/// per-request memory a client can demand from one line of JSON.
pub const MAX_GRID_RANKS: i64 = 4096;

/// A structured rejection: the `code` follows HTTP semantics (`400` bad
/// request, `413` too large, `422` compile error, `429` overloaded,
/// `500` execution error, `503` shutting down).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reject {
    /// HTTP-style status code.
    pub code: u16,
    /// Human-readable reason, carried verbatim in the response.
    pub msg: String,
}

impl Reject {
    /// Build a rejection.
    pub fn new(code: u16, msg: impl Into<String>) -> Self {
        Reject {
            code,
            msg: msg.into(),
        }
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Compile and run a job.
    Run(RunRequest),
    /// Server-wide counters.
    Stats,
    /// Liveness probe.
    Ping,
    /// Begin graceful shutdown (drains in-flight jobs, like SIGTERM).
    Shutdown,
}

/// A compile-and-run job. Also the dedup key: derived `Eq`/`Hash` over
/// every field means requests batch together iff they are the same job.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RunRequest {
    /// Fortran 90D source text.
    pub source: String,
    /// Logical processor-grid shape.
    pub grid: Vec<i64>,
    /// Machine model name: `ipsc860`, `ncube2` or `ideal`.
    pub machine: String,
    /// Execution backend (one value; see [`Backend`]).
    pub backend: Backend,
    /// Consult the process-wide schedule cache.
    pub sched_cache: bool,
    /// Always `false`: `"exec"` accepts only `"sequential"`. The field
    /// remains only because `benchmark/` sets it (ROADMAP item 1(e)
    /// deletes it).
    pub threaded: bool,
    /// Opt into §5.1/§7 communication–computation overlap.
    pub overlap: bool,
}

impl RunRequest {
    /// The machine cost model this job runs under.
    pub fn spec(&self) -> MachineSpec {
        match self.machine.as_str() {
            "ipsc860" => MachineSpec::ipsc860(),
            "ncube2" => MachineSpec::ncube2(),
            "ideal" => MachineSpec::ideal(),
            other => unreachable!("machine `{other}` validated at parse time"),
        }
    }

    /// The compile options this job implies.
    pub fn compile_options(&self) -> CompileOptions {
        let mut opts = CompileOptions::on_grid(&self.grid).with_backend(self.backend);
        opts.sched_cache = self.sched_cache;
        opts.opt.comm_compute_overlap = self.overlap;
        opts
    }
}

fn field_str<'a>(obj: &'a Json, key: &str) -> Option<&'a str> {
    obj.get(key).and_then(Json::as_str)
}

fn field_bool(obj: &Json, key: &str, default: bool) -> Result<bool, Reject> {
    match obj.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(Reject::new(400, format!("`{key}` must be a boolean"))),
    }
}

/// Parse one request line (raw bytes off the wire) under `limits`.
/// Every failure is a [`Reject`] the caller turns into an error
/// response — malformed bytes can never panic the server.
pub fn parse_request(line: &[u8], limits: &ParseLimits) -> Result<Request, Reject> {
    let doc = Json::parse_bytes(line, limits).map_err(|e| Reject::new(400, e))?;
    if !matches!(doc, Json::Obj(_)) {
        return Err(Reject::new(400, "request must be a JSON object"));
    }
    match field_str(&doc, "op") {
        Some("run") => parse_run(&doc).map(Request::Run),
        Some("stats") => Ok(Request::Stats),
        Some("ping") => Ok(Request::Ping),
        Some("shutdown") => Ok(Request::Shutdown),
        Some(other) => Err(Reject::new(400, format!("unknown op `{other}`"))),
        None => Err(Reject::new(400, "missing `op` field")),
    }
}

fn parse_run(doc: &Json) -> Result<RunRequest, Reject> {
    let source = field_str(doc, "source")
        .ok_or_else(|| Reject::new(400, "run needs a `source` string"))?
        .to_string();
    let grid_json = doc
        .get("grid")
        .and_then(Json::as_arr)
        .ok_or_else(|| Reject::new(400, "run needs a `grid` array of extents"))?;
    let grid: Vec<i64> = grid_json
        .iter()
        .map(|e| match e.as_f64() {
            Some(f) if f.fract() == 0.0 && f >= 1.0 => Ok(f as i64),
            _ => Err(Reject::new(400, "grid extents must be positive integers")),
        })
        .collect::<Result<_, _>>()?;
    if grid.is_empty() {
        return Err(Reject::new(400, "grid must have at least one extent"));
    }
    let ranks: i64 = grid.iter().product();
    if ranks > MAX_GRID_RANKS {
        return Err(Reject::new(
            400,
            format!("grid of {ranks} ranks exceeds the {MAX_GRID_RANKS}-rank cap"),
        ));
    }
    let machine = match field_str(doc, "machine") {
        None => "ipsc860".to_string(),
        Some(m @ ("ipsc860" | "ncube2" | "ideal")) => m.to_string(),
        Some(other) => {
            return Err(Reject::new(
                400,
                format!("unknown machine `{other}` (want ipsc860, ncube2 or ideal)"),
            ))
        }
    };
    let options = doc.get("options");
    let empty = Json::Obj(vec![]);
    let options = options.unwrap_or(&empty);
    if !matches!(options, Json::Obj(_)) {
        return Err(Reject::new(400, "`options` must be an object"));
    }
    let backend = match field_str(options, "backend") {
        None | Some("vm") => Backend::Vm,
        Some(other) => {
            return Err(Reject::new(
                400,
                format!("unknown backend `{other}` (want vm)"),
            ))
        }
    };
    if let Some(other) = field_str(options, "exec").filter(|&e| e != "sequential") {
        return Err(Reject::new(
            400,
            format!("unknown exec mode `{other}` (want sequential)"),
        ));
    }
    Ok(RunRequest {
        source,
        grid,
        machine,
        backend,
        sched_cache: field_bool(options, "sched_cache", true)?,
        threaded: false,
        overlap: field_bool(options, "overlap", false)?,
    })
}

/// Everything one successful execution produced: the deterministic
/// result plus the telemetry of the run that actually executed. Fanned
/// out verbatim to every request of a dedup group.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Modelled elapsed seconds (bit-exact across identical jobs).
    pub elapsed_virt_s: f64,
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// PRINT output lines.
    pub printed: Vec<String>,
    /// The bytecode came from the program cache (this run did not lower).
    pub program_cache_hit: bool,
    /// Cross-run schedule-cache hits during the execution.
    pub sched_hits: u64,
    /// Cross-run schedule-cache misses (inspector builds).
    pub sched_misses: u64,
    /// Served from the server's compiled-program cache (frontend +
    /// codegen skipped entirely).
    pub compile_cache_hit: bool,
    /// The machine came from the pool instead of being constructed.
    pub machine_reused: bool,
    /// Host milliseconds from admission to execution start: the machine
    /// checkout.
    pub lease_wait_ms: f64,
    /// Host milliseconds of the execution itself.
    pub exec_ms: f64,
}

/// What a dedup group resolves to: one shared outcome or one shared
/// rejection.
pub type JobResult = Result<RunOutcome, Reject>;

fn num(n: f64) -> Json {
    Json::Num(n)
}

/// Render a run response. `joined` and `queue_wait_ms` are per-request
/// (a joiner reports its own wait beside the leader's execution
/// telemetry).
pub fn run_response(out: &RunOutcome, joined: bool, queue_wait_ms: f64) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("ok".into(), Json::Bool(true)),
        (
            "result".into(),
            Json::Obj(vec![
                ("elapsed_virt_s".into(), num(out.elapsed_virt_s)),
                ("messages".into(), num(out.messages as f64)),
                ("bytes".into(), num(out.bytes as f64)),
                (
                    "printed".into(),
                    Json::Arr(out.printed.iter().map(|s| Json::Str(s.clone())).collect()),
                ),
            ]),
        ),
        (
            "telemetry".into(),
            Json::Obj(vec![
                (
                    "program_cache_hit".into(),
                    Json::Bool(out.program_cache_hit),
                ),
                ("sched_hits".into(), num(out.sched_hits as f64)),
                ("sched_misses".into(), num(out.sched_misses as f64)),
                (
                    "compile_cache_hit".into(),
                    Json::Bool(out.compile_cache_hit),
                ),
                ("machine_reused".into(), Json::Bool(out.machine_reused)),
                ("joined".into(), Json::Bool(joined)),
                ("queue_wait_ms".into(), num(queue_wait_ms)),
                ("lease_wait_ms".into(), num(out.lease_wait_ms)),
                ("exec_ms".into(), num(out.exec_ms)),
            ]),
        ),
    ])
}

/// Render an error response.
pub fn error_response(rej: &Reject) -> Json {
    Json::Obj(vec![
        ("schema".into(), Json::Str(SCHEMA.into())),
        ("ok".into(), Json::Bool(false)),
        ("code".into(), num(rej.code as f64)),
        ("error".into(), Json::Str(rej.msg.clone())),
    ])
}

/// Render a trivial `{"ok":true,...}` acknowledgement.
pub fn ack_response(extra: &[(&str, Json)]) -> Json {
    let mut fields = vec![
        ("schema".to_string(), Json::Str(SCHEMA.into())),
        ("ok".to_string(), Json::Bool(true)),
    ];
    for (k, v) in extra {
        fields.push((k.to_string(), v.clone()));
    }
    Json::Obj(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn limits() -> ParseLimits {
        ParseLimits::network(1 << 20, 64)
    }

    #[test]
    fn run_request_round_trip_defaults() {
        let line = br#"{"op":"run","source":"PROGRAM X\nEND\n","grid":[4]}"#;
        let req = parse_request(line, &limits()).unwrap();
        let Request::Run(run) = req else {
            panic!("want run")
        };
        assert_eq!(run.machine, "ipsc860");
        assert_eq!(run.backend, Backend::Vm);
        assert!(run.sched_cache);
        assert!(!run.threaded);
        assert!(!run.overlap);
        assert_eq!(run.grid, vec![4]);
    }

    #[test]
    fn full_options_parse() {
        let line = br#"{"op":"run","source":"S","grid":[2,2],"machine":"ncube2","options":{"backend":"vm","exec":"sequential","sched_cache":false,"overlap":true}}"#;
        let Request::Run(run) = parse_request(line, &limits()).unwrap() else {
            panic!("want run")
        };
        assert_eq!(run.backend, Backend::Vm);
        assert!(!run.threaded);
        assert!(!run.sched_cache);
        assert!(run.overlap);
        let opts = run.compile_options();
        assert!(opts.opt.comm_compute_overlap);
    }

    #[test]
    fn rejections_are_structured() {
        for (line, frag) in [
            (&b"not json"[..], "expected"),
            (&b"[1,2]"[..], "object"),
            (&br#"{"op":"nope"}"#[..], "unknown op"),
            (&br#"{"source":"x"}"#[..], "missing `op`"),
            (&br#"{"op":"run","grid":[4]}"#[..], "source"),
            (&br#"{"op":"run","source":"x"}"#[..], "grid"),
            (
                &br#"{"op":"run","source":"x","grid":[]}"#[..],
                "at least one",
            ),
            (&br#"{"op":"run","source":"x","grid":[0]}"#[..], "positive"),
            (
                &br#"{"op":"run","source":"x","grid":[2.5]}"#[..],
                "positive",
            ),
            (
                &br#"{"op":"run","source":"x","grid":[4],"machine":"cray"}"#[..],
                "unknown machine",
            ),
            (
                &br#"{"op":"run","source":"x","grid":[4],"options":{"backend":"jit"}}"#[..],
                "unknown backend",
            ),
            (
                &br#"{"op":"run","source":"x","grid":[4],"options":{"backend":"treewalk"}}"#[..],
                "unknown backend `treewalk` (want vm)",
            ),
            (
                &br#"{"op":"run","source":"x","grid":[4],"options":{"exec":"threaded"}}"#[..],
                "unknown exec mode `threaded` (want sequential)",
            ),
            (
                &br#"{"op":"run","source":"x","grid":[4],"options":{"sched_cache":3}}"#[..],
                "boolean",
            ),
            (
                &br#"{"op":"run","source":"x","grid":[100,100]}"#[..],
                "rank cap",
            ),
        ] {
            let err = parse_request(line, &limits()).unwrap_err();
            assert_eq!(err.code, 400, "{line:?}");
            assert!(err.msg.contains(frag), "{:?} !~ {frag}", err.msg);
        }
    }

    #[test]
    fn dedup_key_is_structural() {
        let parse = |line: &[u8]| match parse_request(line, &limits()).unwrap() {
            Request::Run(r) => r,
            _ => panic!(),
        };
        let a = parse(br#"{"op":"run","source":"S","grid":[4]}"#);
        let b = parse(br#"{"op":"run","source":"S","grid":[4],"machine":"ipsc860"}"#);
        assert_eq!(a, b, "defaults normalize into the key");
        let c = parse(br#"{"op":"run","source":"S","grid":[4],"options":{"backend":"vm"}}"#);
        assert_eq!(a, c, "the one backend, named or not");
        let d = parse(br#"{"op":"run","source":"S","grid":[4],"options":{"overlap":true}}"#);
        assert_ne!(a, d, "execution options are part of the job identity");
    }

    #[test]
    fn responses_render_one_line() {
        let out = RunOutcome {
            elapsed_virt_s: 1.5,
            messages: 3,
            bytes: 24,
            printed: vec!["x".into()],
            program_cache_hit: true,
            sched_hits: 1,
            sched_misses: 0,
            compile_cache_hit: true,
            machine_reused: true,
            lease_wait_ms: 0.1,
            exec_ms: 2.0,
        };
        let r = run_response(&out, false, 0.0).render();
        assert!(!r.contains('\n'), "responses must be line-delimited");
        let doc = Json::parse(&r).unwrap();
        assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(
            doc.get("result")
                .unwrap()
                .get("elapsed_virt_s")
                .unwrap()
                .as_f64(),
            Some(1.5)
        );
        let e = error_response(&Reject::new(429, "full")).render();
        let doc = Json::parse(&e).unwrap();
        assert_eq!(doc.get("code").unwrap().as_f64(), Some(429.0));
    }
}
