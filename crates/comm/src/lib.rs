//! # f90d-comm — the collective communication library
//!
//! The Fortran 90D/HPF compiler "produces calls to collective
//! communication routines instead of generating individual processor send
//! and receive calls inside the compiled code" (paper §5). This crate is
//! that library. Everything here is written against the point-to-point
//! [`f90d_machine::Transport`] only, reproducing the paper's portability
//! layering: to move to another transport (their Express → PVM example),
//! only this crate's substrate changes.
//!
//! One operation moves point-to-point data: [`helpers::ExchangeOp`],
//! which really splits — `post()` packs and sends, `finish()` brings the
//! messages in and unpacks — so callers can charge local computation
//! between the two and genuinely hide wire time. It takes one or more
//! planned strips and sends one message per processor pair, so the
//! ghost exchanges of a whole comm phase coalesce into one wire
//! transfer per pair
//! (PARTI-style aggregation, paper §7 optimization 1 across statement
//! boundaries). The trees (multicast, reductions, the broadcast half of
//! concatenation) have stage dependencies and complete every message
//! inside the call, each edge one blocking
//! [`f90d_machine::Transport::deliver`]. Every broadcast runs [`helpers::broadcast_plan`]'s
//! tree, which nests along the machine's switch levels
//! ([`f90d_machine::Topology::nest_widths`]): subtree-local on a fat
//! tree, the rotated binomial over the member list everywhere else.
//! Reductions combine up a binomial toward the first member. This is
//! where the machine knowledge lives; the generated code only names the
//! collective. Completion faults surface as [`CommError`]s
//! rather than panics: a tree edge's failed delivery, or an exchange
//! finished after a transport reset.
//!
//! **Structured** primitives (paper §5.1) exploit the logical-grid
//! relationship between sender and receiver, so they need no preprocessing:
//!
//! * [`structured::transfer`] — single source grid line to single
//!   destination grid line (Fig. 4a);
//! * [`structured::multicast`] — broadcast along a grid dimension
//!   (Fig. 4b), along the topology's broadcast tree, `O(log P)` stages
//!   ([`driver::multicast`] replays a run's kept plan for it);
//! * `overlap_shift` ([`driver::ghost_exchange`]) — shift boundary strips
//!   into the receiver's *overlap areas* (ghost cells) when the shift
//!   amount is a compile-time constant, avoiding intra-processor copies;
//! * [`structured::temporary_shift`] — shift by a runtime amount into a
//!   temporary;
//! * [`structured::multicast_shift`] — the fused composition of the two
//!   (paper §5.3.1 example 3);
//! * [`structured::concatenation`] — gather a distributed array onto every
//!   participating processor.
//!
//! **Reduction** trees ([`reduce`]) serve both the compiler (e.g. the
//! pivot search of Gaussian elimination) and the Table-3 reduction
//! intrinsics.
//!
//! **Unstructured** primitives (paper §5.3.2, after PARTI) use an
//! inspector/executor [`schedule::Schedule`]: `schedule1` needs only local
//! preprocessing (`precomp_read` / `postcomp_write`), `schedule2/3` must
//! exchange request lists first (`gather` / `scatter`). Messages are
//! *vectorized*: all elements for one (src, dst) pair travel in a single
//! message (paper §7 optimization 1). Schedules are reusable; executing a
//! saved schedule skips the preprocessing cost entirely (§7 optimization 3).
//! The process-wide [`sched_cache`] extends that reuse *across* runs:
//! executors fetch built schedules from a full-pattern-keyed build-once map
//! (skipping the wall-clock rebuild) while still charging the modelled
//! inspector cost per run, so virtual metrics are cache-independent.
//!
//! [`redist`] implements the block↔cyclic redistribution primitives used
//! at subroutine boundaries (paper §6).
//!
//! The [`driver`] module sits on top of all of the above: it is the
//! single sequencer of the FORALL communication
//! lifecycle (per-statement ghost exchanges, split-phase overlap via a
//! [`driver::ComputeSink`], phase batching with per-statement fallback,
//! schedule selection, and end-of-run quiescence). The engine drives
//! it and supplies element evaluation.

#![warn(missing_docs)]

pub mod driver;
pub mod helpers;
pub mod op;
pub mod overlap;
pub mod redist;
pub mod reduce;
pub mod sched_cache;
pub mod schedule;
pub mod structured;

pub use driver::{CommDriver, ComputeSink, PhaseOutcome};
pub use op::{CommError, CommResult};
pub use reduce::ReduceOp;
pub use sched_cache::{RunSchedules, SchedKey};
pub use schedule::{Schedule, ScheduleKind};
