//! Cross-run schedule cache (paper §7, optimization 3, scaled up).
//!
//! The per-`Executor`/`Engine` schedule reuse of the compilers amortizes
//! the inspector only *within* one execution; every fresh
//! `Compiled::run_on`, every matrix cell and every long-running service
//! request used to rebuild the same PARTI schedules from scratch. The
//! process-wide complement is [`global`], an instance of the workspace's
//! one build-once cache ([`OnceMap`]): N workers racing one cold key
//! perform exactly one build, and keys are **full patterns** — a
//! [`SchedKey`] is the `(ScheduleKind, grid shape, complete request
//! list)` triple, compared by *equality*, never by
//! `Schedule::signature()` alone: the signature is a 64-bit hash and can
//! collide.
//!
//! What a hit skips is the **wall-clock** rebuild of the move table. The
//! modelled inspector cost ([`schedule::inspect`]) is charged on every
//! run regardless, so per-run virtual time, message counts and byte
//! counts are bit-identical whether the cache is cold, warm, or disabled
//! (`repro --no-sched-cache`) — that is what keeps `BENCH_baseline.json`
//! valid.

use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::{Arc, OnceLock};

use f90d_machine::{Machine, OnceMap};

use crate::op::CommResult;
use crate::schedule::{self, ElementReq, Schedule, ScheduleKind};

/// Schedules kept process-wide. A key retains its full request pattern
/// plus the built move table, so an unbounded map would grow without
/// limit in a long-running service executing data-dependent patterns
/// (benchmark working sets are tens of keys).
pub const SCHED_CACHE_CAP: usize = 1024;

/// The full identity of a communication schedule: inspector family, the
/// logical grid it was built for, and the complete element-request
/// pattern. Two keys are the same schedule iff they are `==`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SchedKey {
    /// Which inspector family builds this schedule.
    pub kind: ScheduleKind,
    /// Logical processor-grid shape the request ranks refer to.
    pub grid: Vec<i64>,
    /// The full request pattern, in inspector order.
    pub reqs: Vec<ElementReq>,
}

/// The process-wide schedule cache shared by every executor backend.
pub fn global() -> &'static OnceMap<SchedKey, Schedule> {
    static CACHE: OnceLock<OnceMap<SchedKey, Schedule>> = OnceLock::new();
    CACHE.get_or_init(|| OnceMap::new(SCHED_CACHE_CAP))
}

/// Per-run front end over the caches: owns the §7(3) within-run reuse
/// map (previously a signature-keyed `HashMap` in each executor — now
/// keyed by the full pattern, so a signature collision can no longer
/// alias two schedules) and consults the process-wide [`global`] cache
/// for the cross-run build. One per `Executor`/`Engine` instance.
pub struct RunSchedules {
    /// Within-run reuse map, `[read, write]` per pattern: the built
    /// schedule is side-agnostic, but each side's first occurrence must
    /// charge its own inspector cost, exactly as the per-executor caches
    /// did. Indexing by side (instead of keying by it) lets the hit path
    /// look up with one borrowed key — no extra pattern clone.
    seen: HashMap<SchedKey, [Option<Arc<Schedule>>; 2]>,
    /// §7(3) flag: reuse schedules across executions of the same pattern
    /// within this run (skipping the inspector *charge* on repeats).
    pub reuse: bool,
    /// Consult the process-wide cache for builds. Off (`repro
    /// --no-sched-cache`) every first-per-run occurrence rebuilds; per-run
    /// virtual metrics are identical either way.
    pub use_global: bool,
    hits: u64,
    misses: u64,
}

impl Default for RunSchedules {
    fn default() -> Self {
        Self::new()
    }
}

impl RunSchedules {
    /// Fresh per-run state: reuse on, global cache on.
    pub fn new() -> Self {
        RunSchedules {
            seen: HashMap::new(),
            reuse: true,
            use_global: true,
            hits: 0,
            misses: 0,
        }
    }

    /// The schedule for `reqs` under inspector family `kind`.
    ///
    /// Within-run repeats (when [`RunSchedules::reuse`] is on) are free —
    /// no inspector charge, no cache traffic — matching the paper's
    /// schedule-reuse optimization. The first occurrence per run always
    /// charges the full modelled inspector cost through
    /// [`schedule::inspect`]; only the wall-clock move-table build is
    /// skipped on a global-cache hit.
    pub fn schedule(
        &mut self,
        m: &mut Machine,
        kind: ScheduleKind,
        reqs: &[ElementReq],
        is_write: bool,
    ) -> CommResult<Arc<Schedule>> {
        let key = SchedKey {
            kind,
            grid: m.grid.shape.clone(),
            reqs: reqs.to_vec(),
        };
        let side = is_write as usize;
        if self.reuse {
            if let Some(s) = self.seen.get(&key).and_then(|pair| pair[side].as_ref()) {
                return Ok(s.clone());
            }
        }
        schedule::inspect(m, kind, reqs)?;
        let sched = if self.use_global {
            let Ok((s, hit)) = global().get_or_try_build(&key, || {
                Ok::<_, Infallible>(schedule::build_schedule(kind, reqs))
            });
            if hit {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            s
        } else {
            Arc::new(schedule::build_schedule(kind, reqs))
        };
        if self.reuse {
            self.seen.entry(key).or_default()[side] = Some(sched.clone());
        }
        Ok(sched)
    }

    /// Global-cache hits this run (first-per-run patterns found built).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Global-cache misses this run (builds performed).
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

// Every harness worker shares the one global cache; losing either bound
// is a compile error here, not a runtime surprise there.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<OnceMap<SchedKey, Schedule>>();
};
