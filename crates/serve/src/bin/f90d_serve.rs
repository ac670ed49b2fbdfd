//! `f90d-serve` — the compile-and-run daemon.
//!
//! ```text
//! f90d-serve [--listen ADDR] [--jobs N] [--queue N]
//!            [--pool-cap N] [--max-request-bytes N] [--stats-file PATH]
//! ```
//!
//! Speaks the line-delimited `f90d-serve/v1` JSON protocol (README has
//! the schema and an `nc` session). Listens until SIGTERM or a
//! `shutdown` request, then drains in-flight jobs, writes the final
//! stats snapshot to `--stats-file` (when given), and exits 0.
//!
//! Flag validation is strict: `--jobs 0`, an unknown flag or an
//! unparseable `--listen` address exit 2 before the socket is touched.

use std::net::SocketAddr;

use f90d_serve::{install_sigterm_handler, ServeConfig, Server};

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!(
        "usage: f90d-serve [--listen ADDR] [--jobs N] [--queue N] \
         [--pool-cap N] [--max-request-bytes N] [--stats-file PATH]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let mut cfg = ServeConfig {
        listen: "127.0.0.1:7790".to_string(),
        ..ServeConfig::default()
    };
    let mut pool_cap: Option<usize> = None;
    let mut it = args.iter().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => {
                cfg.listen = it
                    .next()
                    .cloned()
                    .unwrap_or_else(|| usage_error("--listen expects an address"));
            }
            "--jobs" => {
                cfg.max_running = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&j: &usize| j >= 1)
                    .unwrap_or_else(|| usage_error("--jobs expects a concurrency >= 1"));
            }
            "--queue" => {
                cfg.max_queued = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage_error("--queue expects a queue depth"));
            }
            "--pool-cap" => {
                pool_cap = Some(
                    it.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage_error("--pool-cap expects a machine count")),
                );
            }
            "--max-request-bytes" => {
                cfg.max_request_bytes = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&b: &usize| b >= 1)
                    .unwrap_or_else(|| usage_error("--max-request-bytes expects a byte cap >= 1"));
            }
            "--stats-file" => {
                cfg.stats_file = Some(
                    it.next()
                        .map(std::path::PathBuf::from)
                        .unwrap_or_else(|| usage_error("--stats-file expects a path")),
                );
            }
            "--help" | "-h" => {
                println!(
                    "f90d-serve: compile-and-run daemon speaking line-delimited \
                     f90d-serve/v1 JSON over TCP"
                );
                println!(
                    "usage: f90d-serve [--listen ADDR] [--jobs N] [--queue N] \
                     [--pool-cap N] [--max-request-bytes N] [--stats-file PATH]"
                );
                return;
            }
            other => usage_error(&format!("unknown argument {other}")),
        }
    }
    // Validate the address shape before binding so a typo is a usage
    // error (exit 2), not an I/O error.
    if cfg.listen.parse::<SocketAddr>().is_err() {
        usage_error(&format!(
            "--listen expects HOST:PORT (e.g. 127.0.0.1:7790), got `{}`",
            cfg.listen
        ));
    }
    // Default pool cap: one idle machine per run slot is the steady
    // state; a couple extra absorbs identity churn.
    cfg.pool_cap = pool_cap.unwrap_or(cfg.max_running + 2);

    install_sigterm_handler();
    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("f90d-serve: cannot bind: {e}");
            std::process::exit(1);
        }
    };
    match server.local_addr() {
        Ok(addr) => println!("f90d-serve listening on {addr}"),
        Err(e) => {
            eprintln!("f90d-serve: cannot read bound address: {e}");
            std::process::exit(1);
        }
    }
    if let Err(e) = server.run() {
        eprintln!("f90d-serve: {e}");
        std::process::exit(1);
    }
    eprintln!("f90d-serve: drained, exiting");
}
