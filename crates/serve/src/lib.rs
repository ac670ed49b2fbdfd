//! # f90d-serve — a multi-tenant compile-and-run daemon
//!
//! The repro harness compiles and runs jobs in a batch process; this
//! crate turns the same pipeline into a long-running service. The
//! `f90d-serve` binary listens on TCP and speaks a line-delimited JSON
//! protocol (`f90d-serve/v1`, see [`protocol`]): each request line is a
//! compile+run job — source text, compile options, processor grid,
//! machine model — and each response line carries the deterministic
//! virtual metrics plus per-request telemetry.
//!
//! What makes it a *daemon* rather than a loop around
//! [`f90d_core::compile`]:
//!
//! - **Request dedup + batching** ([`dedup`]): concurrent identical
//!   jobs — the same whole-request identity the server's compile cache
//!   keys on — collapse onto one execution whose result fans out to
//!   every waiter.
//! - **Admission control** ([`admission`]): a bounded queue in front of
//!   a bounded number of executing jobs; excess load is refused with a
//!   structured 429-style error instead of an ever-growing backlog.
//! - **Machine pooling** ([`f90d_machine::MachinePool`]): simulated
//!   machines are checked out, fully reset, and reused — the warm hot
//!   path constructs nothing.
//! - **Per-request telemetry** ([`telemetry`] and the run response):
//!   compile-cache and schedule-cache outcomes, queue/lease waits and
//!   execution wall time per request; a `stats` op aggregates
//!   server-wide counters.
//!
//! Everything is std-only: the listener is [`std::net::TcpListener`]
//! and the JSON is the in-house [`serde::json`] module, hardened for
//! untrusted input with size and depth limits
//! ([`serde::json::ParseLimits`]).

#![warn(missing_docs)]

pub mod admission;
pub mod client;
pub mod dedup;
pub mod protocol;
pub mod server;
pub mod telemetry;

pub use client::Client;
pub use protocol::{Reject, Request, RunOutcome, RunRequest, SCHEMA};
pub use server::{
    install_sigterm_handler, sigterm_received, ServeConfig, Server, ServerHandle, ServerState,
};
pub use telemetry::ServerStats;
