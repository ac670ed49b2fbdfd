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
//! list)` triple, compared by *equality*, never by a hash alone:
//! `Schedule::signature()` and the key's own fingerprint are 64-bit
//! digests and can collide. Hashes route, equality decides.
//!
//! What a hit skips is the **wall-clock** rebuild of the move table. The
//! modelled inspector cost ([`schedule::inspect`]) is charged on every
//! run regardless, so per-run virtual time, message counts and byte
//! counts are bit-identical whether the cache is cold, warm, or disabled
//! (`repro --no-sched-cache`) — that is what keeps `BENCH_baseline.json`
//! valid.

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
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
/// pattern. Two keys are the same schedule iff they are `==`, which
/// compares the whole pattern.
///
/// The key holds the pattern once, shared: the within-run reuse map and
/// the process-wide cache clone the `Arc`, not the list (an `Arc` of
/// the inspector's own `Vec`, so making a key moves the list instead
/// of copying it — a lookup that hits drops it again). Its `Hash`
/// feeds the hasher `kind`, `grid`, the pattern's length and a 64-bit
/// fingerprint taken in one pass when the key is made — a lookup hashes
/// five words, not four fields per request. The fingerprint only picks
/// a bucket; two patterns that share it are still two keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedKey {
    kind: ScheduleKind,
    grid: Vec<i64>,
    fingerprint: u64,
    reqs: Arc<Vec<ElementReq>>,
}

impl SchedKey {
    /// Per-field multipliers of [`SchedKey::fingerprint`]'s request
    /// word, in `(requester, owner, src_off, dst_off)` order.
    pub const FIELD_WEIGHTS: [u64; 4] = [
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
        0x27d4_eb2f_1656_67c5,
    ];

    /// The key of `reqs` (in inspector order) under `kind` on `grid`.
    pub fn new(kind: ScheduleKind, grid: Vec<i64>, reqs: Vec<ElementReq>) -> Self {
        SchedKey {
            kind,
            grid,
            fingerprint: Self::fingerprint_of(&reqs),
            reqs: Arc::new(reqs),
        }
    }

    /// One pass over the pattern: each request is folded to a word —
    /// the wrapping sum of its fields times [`SchedKey::FIELD_WEIGHTS`],
    /// four independent multiplies — and the words are chained in order
    /// with one rotate–xor–multiply each. Deliberately cheap rather
    /// than collision-proof (a request word is linear in its fields).
    fn fingerprint_of(reqs: &[ElementReq]) -> u64 {
        let [wr, wo, ws, wd] = Self::FIELD_WEIGHTS;
        reqs.iter().fold(0u64, |h, r| {
            let word = (r.requester as u64)
                .wrapping_mul(wr)
                .wrapping_add((r.owner as u64).wrapping_mul(wo))
                .wrapping_add((r.src_off as u64).wrapping_mul(ws))
                .wrapping_add((r.dst_off as u64).wrapping_mul(wd));
            (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
        })
    }

    /// Which inspector family builds this schedule.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// The full request pattern, in inspector order.
    pub fn reqs(&self) -> &[ElementReq] {
        &self.reqs
    }

    /// The pattern digest the key's `Hash` routes by.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl Hash for SchedKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.kind.hash(state);
        self.grid.hash(state);
        self.reqs.len().hash(state);
        self.fingerprint.hash(state);
    }
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
    /// look up with one key.
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

    /// The schedule for `reqs` under inspector family `kind`. The list
    /// is taken by value: it becomes the key, held once.
    ///
    /// Within-run repeats (when [`RunSchedules::reuse`] is on) are free —
    /// no inspector charge, no cache traffic — matching the paper's
    /// schedule-reuse optimization. The first occurrence per run always
    /// charges the full modelled inspector cost through
    /// [`schedule::inspect`] (read off the move table, built or found);
    /// only the wall-clock move-table build is skipped on a
    /// global-cache hit.
    pub fn schedule(
        &mut self,
        m: &mut Machine,
        kind: ScheduleKind,
        reqs: Vec<ElementReq>,
        is_write: bool,
    ) -> CommResult<Arc<Schedule>> {
        let key = SchedKey::new(kind, m.grid.shape.clone(), reqs);
        let side = is_write as usize;
        if self.reuse {
            if let Some(s) = self.seen.get(&key).and_then(|pair| pair[side].as_ref()) {
                return Ok(s.clone());
            }
        }
        let sched = if self.use_global {
            let Ok((s, hit)) = global().get_or_try_build(&key, || {
                Ok::<_, Infallible>(schedule::build_schedule(kind, key.reqs()))
            });
            if hit {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            s
        } else {
            Arc::new(schedule::build_schedule(kind, key.reqs()))
        };
        schedule::inspect(m, &sched)?;
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
