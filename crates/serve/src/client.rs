//! A minimal blocking client for the `f90d-serve/v1` protocol.
//!
//! One connection, one request line out, one response line back. Used
//! by the integration tests and the `benchmark/` serve workloads; also a
//! reference implementation for external clients (the wire format is
//! plain enough for `nc`, see the README).

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpStream};

use serde::json::Json;

use crate::protocol::RunRequest;

/// A connected client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

impl Client {
    /// Connect to a running daemon.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        let read_half = stream.try_clone()?;
        Ok(Client {
            reader: BufReader::new(read_half),
            writer: BufWriter::new(stream),
        })
    }

    /// Send one raw request line, read one response line. The line must
    /// not contain `\n`.
    pub fn request_raw(&mut self, line: &str) -> io::Result<Json> {
        debug_assert!(!line.contains('\n'), "requests are one line");
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut resp = String::new();
        if self.reader.read_line(&mut resp)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Json::parse(resp.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("bad response: {e}")))
    }

    /// Send one request built as a JSON tree.
    pub fn request(&mut self, req: &Json) -> io::Result<Json> {
        self.request_raw(&req.render())
    }

    /// Submit a [`RunRequest`] and return the response document.
    pub fn run(&mut self, req: &RunRequest) -> io::Result<Json> {
        self.request(&run_to_json(req))
    }

    /// Fetch the server-wide stats snapshot.
    pub fn stats(&mut self) -> io::Result<Json> {
        self.request_raw(r#"{"op":"stats"}"#)
    }

    /// Liveness probe.
    pub fn ping(&mut self) -> io::Result<Json> {
        self.request_raw(r#"{"op":"ping"}"#)
    }

    /// Ask the server to drain and stop.
    pub fn shutdown(&mut self) -> io::Result<Json> {
        self.request_raw(r#"{"op":"shutdown"}"#)
    }
}

/// Render a [`RunRequest`] as a `run` request document (the inverse of
/// [`crate::protocol::parse_request`] for the `run` op).
pub fn run_to_json(req: &RunRequest) -> Json {
    Json::Obj(vec![
        ("op".into(), Json::Str("run".into())),
        ("source".into(), Json::Str(req.source.clone())),
        (
            "grid".into(),
            Json::Arr(req.grid.iter().map(|&e| Json::Num(e as f64)).collect()),
        ),
        ("machine".into(), Json::Str(req.machine.clone())),
        (
            "options".into(),
            Json::Obj(vec![
                (
                    "backend".into(),
                    Json::Str(
                        match req.backend {
                            f90d_core::Backend::Vm => "vm",
                        }
                        .into(),
                    ),
                ),
                ("exec".into(), Json::Str("sequential".into())),
                ("sched_cache".into(), Json::Bool(req.sched_cache)),
                ("overlap".into(), Json::Bool(req.overlap)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{parse_request, Request};
    use serde::json::ParseLimits;

    #[test]
    fn run_to_json_round_trips_through_the_parser() {
        let req = RunRequest {
            source: "PROGRAM X\nEND\n".into(),
            grid: vec![2, 2],
            machine: "ncube2".into(),
            backend: f90d_core::Backend::Vm,
            sched_cache: false,
            threaded: false,
            overlap: true,
        };
        let line = run_to_json(&req).render();
        let parsed = parse_request(line.as_bytes(), &ParseLimits::network(1 << 20, 64)).unwrap();
        assert_eq!(parsed, Request::Run(req));
    }
}
