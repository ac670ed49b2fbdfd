//! CLI contract of the `f90d-serve` binary: strict flag validation
//! (exit 2 before the socket is touched) and the SIGTERM drain path
//! (exit 0 with a stats snapshot on disk).

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

fn serve_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_f90d-serve"))
}

#[track_caller]
fn expect_usage_error(args: &[&str], frag: &str) {
    let out = serve_bin().args(args).output().unwrap();
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
    assert!(stderr.contains("usage:"), "usage line on {args:?}");
}

#[test]
fn zero_and_malformed_flags_exit_2() {
    expect_usage_error(&["--jobs", "0"], "--jobs");
    expect_usage_error(&["--jobs", "many"], "--jobs");
    expect_usage_error(&["--max-request-bytes", "0"], "--max-request-bytes");
    expect_usage_error(&["--listen", "not-an-address"], "--listen");
    expect_usage_error(&["--listen", "localhost"], "--listen");
    expect_usage_error(&["--frobnicate"], "unknown argument");
    // There is no worker budget to size: the flag is unknown.
    expect_usage_error(&["--workers", "4"], "unknown argument --workers");
}

#[test]
fn help_exits_0() {
    let out = serve_bin().arg("--help").output().unwrap();
    assert_eq!(out.status.code(), Some(0));
    assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
}

/// Full daemon lifecycle: start on an ephemeral port, serve a request
/// over TCP, SIGTERM, drain to exit 0 with the stats snapshot written.
#[cfg(unix)]
#[test]
fn sigterm_drains_and_writes_stats() {
    let dir = std::env::temp_dir().join(format!("f90d-serve-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let stats_path = dir.join("stats.json");

    let mut child = serve_bin()
        .args([
            "--listen",
            "127.0.0.1:0",
            "--jobs",
            "1",
            "--stats-file",
            stats_path.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // The first stdout line announces the bound address.
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr: std::net::SocketAddr = line
        .trim()
        .strip_prefix("f90d-serve listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {line:?}"))
        .parse()
        .unwrap();

    let mut client = f90d_serve::Client::connect(addr).unwrap();
    let pong = client.ping().unwrap();
    assert_eq!(pong.get("ok"), Some(&serde::json::Json::Bool(true)));

    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .unwrap();
    assert!(term.success(), "kill -TERM failed");
    let status = child.wait().unwrap();
    assert_eq!(status.code(), Some(0), "graceful drain must exit 0");

    let stats = std::fs::read_to_string(&stats_path).unwrap();
    let doc = serde::json::Json::parse(&stats).unwrap();
    assert!(
        doc.get("stats").and_then(|s| s.get("server")).is_some(),
        "stats snapshot must carry the server counters: {stats}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
