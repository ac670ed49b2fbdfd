//! # f90d-machine — simulated distributed-memory MIMD machine
//!
//! The paper evaluates on an Intel iPSC/860 and an nCUBE/2. We do not have
//! that hardware, so this crate provides the substitution documented in
//! ARCHITECTURE.md ("Machine model and interconnect"): a deterministic *virtual-time* simulation of a
//! distributed-memory message-passing multicomputer, with per-machine cost
//! models ([`spec::MachineSpec`]) and physical topologies
//! ([`spec::Topology`]).
//!
//! The pieces:
//!
//! * [`value`] — the element types Fortran 90D programs compute with
//!   (INTEGER, REAL/DOUBLE, LOGICAL, COMPLEX) and typed flat array storage.
//! * [`memory`] — per-node memories: named local arrays (with overlap/ghost
//!   areas for `overlap_shift`) and replicated scalars.
//! * [`transport`] — the point-to-point message layer (the role Express
//!   played for the paper): posted `post_send`/`post_recv`/`complete`
//!   operations (Express `isend`/`irecv`/`msgwait`) with cost charging
//!   against per-node virtual clocks; a blocking exchange is a post
//!   followed by its `complete`. The collective library in `f90d-comm` is
//!   built **only** on this interface, reproducing the paper's
//!   portability layering (§5, reason 3).
//! * [`net`] — the interconnect subsystem: deterministic minimal-path
//!   routing over every [`spec::Topology`] (messages become sequences of
//!   directed links) and the per-link [`net::LinkClocks`] congestion
//!   model behind the transport's default-off contention toggle.
//! * [`machine`] — ties spec + grid + memories + clocks + statistics into
//!   the [`machine::Machine`] SPMD substrate, and provides the loosely
//!   synchronous local-phase executor, which runs the ranks one after
//!   another on the calling thread.
//! * [`mpool`] — machine pooling for long-running services: a finished
//!   machine is checked in (fully [`machine::Machine::reset`] — memories,
//!   clocks, mailboxes, tags) and checked out again for the next
//!   request, so a warmed-up server constructs no machines on its hot
//!   path.
//! * [`once_map`] — the one keyed build-once cache ([`OnceMap`]) that the
//!   program, schedule and compile caches of the crates above are
//!   instances of.
//!
//! Virtual time: every node has a clock. Local computation advances one
//! node's clock by a modelled cost; a message from `s` to `d` of `m` bytes
//! makes `d`'s clock at least `send_start + α + β·m + hops·τ`. The elapsed
//! time of a program is the maximum clock — exactly the "time" a user of
//! the real machine would have measured for a loosely synchronous code.

#![warn(missing_docs)]

mod int_hash;
pub mod machine;
pub mod memory;
pub mod mpool;
pub mod net;
pub mod once_map;
pub mod spec;
pub mod transport;
pub mod value;

pub use int_hash::{IntHasher, IntMap};
pub use machine::{ExecMode, Machine, MachineStats};
pub use memory::{LocalArray, NodeMemory};
pub use mpool::MachinePool;
pub use net::{LinkClocks, LinkId};
pub use once_map::OnceMap;
pub use spec::{MachineSpec, SpecError, Topology};
pub use transport::{MailboxTransport, RecvHandle, Transport, TransportError};
pub use value::{ArrayData, ElemType, Value};
