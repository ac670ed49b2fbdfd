//! Cross-run schedule cache (paper §7, optimization 3, scaled up).
//!
//! The per-`Engine` schedule reuse of the compilers amortizes
//! the inspector only *within* one execution; every fresh
//! `Compiled::run_on`, every matrix cell and every long-running service
//! request used to rebuild the same PARTI schedules from scratch. The
//! process-wide complement is [`global`], an instance of the workspace's
//! one build-once cache ([`OnceMap`]): N workers racing one cold key
//! perform exactly one build, and keys are **full patterns** — a
//! [`SchedKey`] is the `(ScheduleKind, grid shape, complete request
//! list)` triple, compared by *equality*, never by a hash alone: the
//! key's own fingerprint is a 64-bit digest and can collide. Hashes
//! route, equality decides.
//!
//! What a hit skips is the **wall-clock** rebuild of the move table. The
//! modelled inspector cost ([`schedule::inspect`]) is charged on every
//! run regardless, so per-run virtual time, message counts and byte
//! counts are bit-identical whether the cache is cold, warm, or disabled
//! (`repro --no-sched-cache`) — that is what keeps `BENCH_baseline.json`
//! valid.
//!
//! Below both sits the run's inspector memo ([`RunSchedules::kept`]):
//! per unstructured statement ([`StmtId`]), the subscript rows its last
//! execution located, the layout it located them against and the
//! schedule that came of it. A repeat that presents bit-equal rows
//! against an equal layout takes that schedule without locating,
//! building a key or looking one up — and so is charged exactly what a
//! within-run repeat is charged anyway. The memo holds contents, not
//! versions: a rewritten index array presents other rows, a
//! `REDISTRIBUTE`d array another layout, and nothing is invalidated.
//!
//! Beside them the run keeps its structured plans: shift plans by key
//! and layout ([`RunSchedules::shift_plan`]) and multicast plans
//! ([`RunSchedules::multicast_plan`]) — a fiber's members with each
//! member's slot of the temporary, guarded by the memories' layout
//! stamps, and beside each fiber its last owner's tree and slab
//! offsets.

use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, OnceLock};

use f90d_distrib::{ArrayDimMap, Dad, ProcGrid};
use f90d_machine::{LocalArray, Machine, OnceMap, Topology};

use crate::helpers::ExchangePlan;
use crate::op::CommResult;
use crate::schedule::{self, word, ElementReq, Schedule, ScheduleKind};
use crate::structured::{multicast_axis, shift_moves, Fiber, SlabCast};

/// Schedules kept process-wide. A key retains its full request pattern
/// plus the built move table, so an unbounded map would grow without
/// limit in a long-running service executing data-dependent patterns
/// (benchmark working sets are tens of keys).
pub const SCHED_CACHE_CAP: usize = 1024;

/// A request pattern as an inspector lists it: each request as its
/// 32-bit words ([`ElementReq::words`], 16 bytes), and the fingerprint
/// of the list so far, chained on as each request is pushed — so the
/// list a [`SchedKey`] keeps is the one the inspector wrote, made in one
/// pass.
#[derive(Debug)]
pub struct Pattern {
    words: Vec<[u32; 4]>,
    fingerprint: u64,
}

impl Pattern {
    /// An empty pattern with room for `n` requests. An inspector that
    /// knows its count lists into exactly that much, so a kept key
    /// holds no growth slack.
    pub fn with_capacity(n: usize) -> Self {
        Pattern {
            words: Vec::with_capacity(n),
            fingerprint: 0,
        }
    }

    /// Append the move of the element at flat offset `src_off` on rank
    /// `from` to flat offset `dst_off` on rank `to`
    /// ([`ElementReq::moving`]'s order), each field checked into its
    /// word.
    ///
    /// # Panics
    /// As [`ElementReq::words`], on a field past 32 bits.
    #[inline]
    pub fn push(&mut self, from: i64, to: i64, src_off: usize, dst_off: usize) {
        let words = [word(to), word(from), word(src_off), word(dst_off)];
        self.fingerprint = SchedKey::chain(self.fingerprint, words);
        self.words.push(words);
    }

    /// The pattern of a request list as planners state it, packed.
    pub fn of(reqs: &[ElementReq]) -> Self {
        let mut fingerprint = 0;
        let words = (reqs.iter())
            .map(|r| {
                let words = r.words();
                fingerprint = SchedKey::chain(fingerprint, words);
                words
            })
            .collect();
        Pattern { words, fingerprint }
    }

    /// The requests' words, in the order pushed.
    pub fn words(&self) -> &[[u32; 4]] {
        &self.words
    }
}

/// The full identity of a communication schedule: inspector family, the
/// logical grid it was built for, and the complete element-request
/// pattern. Two keys are the same schedule iff they are `==`, which
/// compares the whole pattern.
///
/// The key holds the pattern once, shared: the inspector's own
/// [`Pattern`] list, 16 bytes a request, which the within-run reuse map
/// and the process-wide cache share through an `Arc`. Its `Hash` feeds
/// the hasher `kind`, `grid`, the pattern's length and the 64-bit
/// fingerprint chained while the inspector listed it — a lookup hashes
/// five words, not four fields per request. The fingerprint only picks
/// a bucket; two patterns that share it are still two keys.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchedKey {
    kind: ScheduleKind,
    grid: Vec<i64>,
    fingerprint: u64,
    reqs: Arc<Vec<[u32; 4]>>,
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

    /// The key of `pattern` under `kind` on `grid`, taking the list as
    /// it is (its growth slack, if any, released).
    pub fn new(kind: ScheduleKind, grid: Vec<i64>, pattern: Pattern) -> Self {
        let Pattern {
            mut words,
            fingerprint,
        } = pattern;
        words.shrink_to_fit();
        SchedKey {
            kind,
            grid,
            fingerprint,
            reqs: Arc::new(words),
        }
    }

    /// The fingerprint `h` of a pattern, one request longer: the request
    /// is folded to a word — the wrapping sum of its fields times
    /// [`SchedKey::FIELD_WEIGHTS`], four independent multiplies — and
    /// chained on with one rotate–xor–multiply. Deliberately cheap
    /// rather than collision-proof (a request word is linear in its
    /// fields).
    fn chain(h: u64, [requester, owner, src_off, dst_off]: [u32; 4]) -> u64 {
        let [wr, wo, ws, wd] = Self::FIELD_WEIGHTS;
        let word = u64::from(requester)
            .wrapping_mul(wr)
            .wrapping_add(u64::from(owner).wrapping_mul(wo))
            .wrapping_add(u64::from(src_off).wrapping_mul(ws))
            .wrapping_add(u64::from(dst_off).wrapping_mul(wd));
        (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    }

    /// Which inspector family builds this schedule.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// The pattern digest the key's `Hash` routes by.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The pattern's requests, as words.
    pub fn words(&self) -> &[[u32; 4]] {
        &self.reqs
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

/// The process-wide schedule cache.
pub fn global() -> &'static OnceMap<SchedKey, Schedule> {
    static CACHE: OnceLock<OnceMap<SchedKey, Schedule>> = OnceLock::new();
    CACHE.get_or_init(|| OnceMap::new(SCHED_CACHE_CAP))
}

/// Element moves kept in one run's shift-plan table. Ghost strips are
/// tens to hundreds of moves each; the bound is for `temporary_shift`,
/// whose plan moves a whole array and whose key holds a run-time amount
/// (a `DO` that shifts by its own variable plans once per iteration). A
/// plan that does not fit is built, used and dropped, as every plan was
/// before the table.
pub const SHIFT_PLAN_CAP: usize = 1 << 20;

/// Host words kept in one run's multicast fibers
/// ([`RunSchedules::multicast_plan`]): three a member and two a nesting
/// run, so a fiber of a few hundred ranks keeps about a thousand. A
/// fiber that does not fit is planned, used and dropped. Each kept
/// fiber keeps one [`SlabCast`] beside it, its last multicast's, whose
/// offsets are no more than the temporary it fills holds on one member.
pub const MULTICAST_PLAN_CAP: usize = 1 << 20;

/// The allocation geometry of an array's segments — one shape and one
/// set of ghost widths on every rank, so rank 0's speaks for all.
#[derive(Debug, PartialEq, Eq)]
struct SegGeometry {
    shape: Vec<i64>,
    ghost_lo: Vec<i64>,
    ghost_hi: Vec<i64>,
}

impl SegGeometry {
    fn of(seg: &LocalArray) -> Self {
        SegGeometry {
            shape: seg.shape.clone(),
            ghost_lo: seg.ghost_lo.clone(),
            ghost_hi: seg.ghost_hi.clone(),
        }
    }

    fn is(&self, seg: &LocalArray) -> bool {
        self.shape == seg.shape && self.ghost_lo == seg.ghost_lo && self.ghost_hi == seg.ghost_hi
    }
}

/// What a kept shift plan is a function of besides the `(dim, amount,
/// periodic, into ghost cells)` its bucket is found by: everything
/// [`shift_moves`] reads, compared by equality. The descriptor's
/// diagnostic `name` is not among it — two arrays of one layout share
/// one plan — and a REDISTRIBUTEd array simply presents other `dims`:
/// another key, no invalidation.
#[derive(Debug)]
struct ShiftLayout {
    dims: Vec<ArrayDimMap>,
    grid: ProcGrid,
    src: SegGeometry,
    dst: SegGeometry,
}

/// A multicast fiber a run keeps, found by its temporary, its axis and
/// a member, with the cast of the last multicast along it.
#[derive(Debug)]
struct KeptFiber {
    tmp: String,
    axis: usize,
    fiber: Arc<Fiber>,
    last: Option<LastCast>,
}

/// A kept [`SlabCast`] with what it is a function of besides its fiber:
/// the dimension, the owner, the source's dimension maps, the grid, the
/// source segments' geometry and the topology its tree follows, compared
/// by equality.
#[derive(Debug)]
struct LastCast {
    dim: usize,
    owner: i64,
    dims: Vec<ArrayDimMap>,
    grid: ProcGrid,
    src: SegGeometry,
    topology: Topology,
    cast: Arc<SlabCast>,
}

/// One unstructured statement of a program, as the run keeps its last
/// inspector: a FORALL's unstructured read by its index among the
/// statement's reads, or the FORALL's vector-subscripted write.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StmtId {
    /// Read `gather` of FORALL `forall`.
    Gather {
        /// The FORALL.
        forall: u32,
        /// Which of its unstructured reads.
        gather: u32,
    },
    /// The post-loop scatter of FORALL `forall`.
    Scatter {
        /// The FORALL.
        forall: u32,
    },
}

/// One execution of an unstructured statement, as the inspector memo
/// tells executions apart: the statement, its inspector family and
/// side, and the array it reads or writes — named as the machine holds
/// it, with its live descriptor.
#[derive(Debug, Clone, Copy)]
pub struct Inspection<'a> {
    /// The statement.
    pub stmt: StmtId,
    /// The inspector family.
    pub kind: ScheduleKind,
    /// A write schedule (the scatter side).
    pub is_write: bool,
    /// The array located in: the gather's source, the scatter's
    /// destination.
    pub arr: &'a str,
    /// Its live descriptor.
    pub dad: &'a Dad,
}

/// Global subscript rows as an inspector meets them: row-major, one
/// index per array dimension a row, a rank's rows after another's in
/// the order they came.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Rows {
    subs: Vec<i64>,
    /// `(rank, end)`: the rank's run of rows ends at `subs[end]`.
    runs: Vec<(i64, usize)>,
}

impl Rows {
    /// Append rows `g` (whole rows, row-major) of rank `rank`.
    #[inline]
    pub fn push(&mut self, rank: i64, g: &[i64]) {
        if g.is_empty() {
            return;
        }
        self.subs.extend_from_slice(g);
        match self.runs.last_mut() {
            Some((r, end)) if *r == rank => *end = self.subs.len(),
            _ => self.runs.push((rank, self.subs.len())),
        }
    }

    /// Every run of rows: `(rank, its subscripts)`, in order.
    pub fn runs(&self) -> impl Iterator<Item = (i64, &[i64])> + Clone {
        let starts = std::iter::once(0).chain(self.runs.iter().map(|&(_, end)| end));
        (self.runs.iter().zip(starts)).map(|(&(rank, end), start)| (rank, &self.subs[start..end]))
    }

    /// The rows of `runs`, copied.
    pub fn of<'a>(runs: impl Iterator<Item = (i64, &'a [i64])>) -> Self {
        let mut rows = Rows::default();
        runs.for_each(|(rank, subs)| rows.push(rank, subs));
        rows
    }

    /// Whether `runs` (empty ones skipped) are these rows, bit for bit.
    fn is<'a>(&self, runs: impl Iterator<Item = (i64, &'a [i64])>) -> bool {
        let mut mine = self.runs();
        runs.filter(|(_, subs)| !subs.is_empty())
            .all(|run| mine.next() == Some(run))
            && mine.next().is_none()
    }
}

/// Everything a [`f90d_distrib::Locator`] reads of an array: its
/// dimension maps, replicated axes and grid, and its segments'
/// geometry, compared by equality. A `REDISTRIBUTE`d array presents
/// other `dims`: another layout, no invalidation.
#[derive(Debug)]
struct ArrayLayout {
    dims: Vec<ArrayDimMap>,
    replicated_axes: Vec<usize>,
    grid: ProcGrid,
    seg: SegGeometry,
}

impl ArrayLayout {
    fn of(dad: &Dad, seg: &LocalArray) -> Self {
        ArrayLayout {
            dims: dad.dims.clone(),
            replicated_axes: dad.replicated_axes.clone(),
            grid: dad.grid.clone(),
            seg: SegGeometry::of(seg),
        }
    }

    fn is(&self, dad: &Dad, seg: &LocalArray) -> bool {
        self.dims == dad.dims
            && self.replicated_axes == dad.replicated_axes
            && self.grid == dad.grid
            && self.seg.is(seg)
    }
}

/// What the run keeps of one statement's last inspector: the family
/// and side it ran for, what it located — the rows, against the array's
/// layout — and the schedule that came of them.
#[derive(Debug)]
struct Inspected {
    kind: ScheduleKind,
    is_write: bool,
    layout: ArrayLayout,
    rows: Rows,
    sched: Arc<Schedule>,
}

/// Per-run front end over the caches: owns the §7(3) within-run reuse
/// map (keyed by the full pattern, so a signature collision cannot
/// alias two schedules) and consults the process-wide [`global`] cache
/// for the cross-run build. One per `Engine` instance.
pub struct RunSchedules {
    /// Within-run reuse map, `[read, write]` per pattern: the built
    /// schedule is side-agnostic, but each side's first occurrence must
    /// charge its own inspector cost. Indexing by side (instead of
    /// keying by it) lets the hit path look up with one key.
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
    /// Structured shift plans of this run (ghost exchanges and
    /// temporary shifts), bucketed by `(dim, amount, periodic, into
    /// ghost cells)`; a bucket holds one plan per distinct layout.
    /// Per-run only: nothing here outlives the run or is shared.
    shifts: HashMap<(usize, i64, bool, bool), Vec<(ShiftLayout, Arc<ExchangePlan>)>>,
    /// Element moves the table holds, against [`SHIFT_PLAN_CAP`].
    shift_moves_kept: usize,
    shifts_built: u64,
    shifts_reused: u64,
    /// Multicast fibers of this run.
    fibers: Vec<KeptFiber>,
    /// Host words the fibers hold, against [`MULTICAST_PLAN_CAP`].
    fiber_words: usize,
    /// Multicast broadcasts that ran along a kept fiber.
    multicasts_replayed: u64,
    /// Per unstructured statement, its last inspector (under `reuse`).
    kept: HashMap<StmtId, Inspected>,
    /// Executions that took their schedule from `kept`.
    reinspected: u64,
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
            shifts: HashMap::new(),
            shift_moves_kept: 0,
            shifts_built: 0,
            shifts_reused: 0,
            fibers: Vec::new(),
            fiber_words: 0,
            multicasts_replayed: 0,
            kept: HashMap::new(),
            reinspected: 0,
        }
    }

    /// The schedule for the requests of `pattern` under inspector family
    /// `kind`. The key takes the list ([`SchedKey::new`]); a miss builds
    /// from it ([`Schedule::of_words`]).
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
        pattern: Pattern,
        is_write: bool,
    ) -> CommResult<Arc<Schedule>> {
        let key = SchedKey::new(kind, m.grid.shape.clone(), pattern);
        let side = is_write as usize;
        if self.reuse {
            if let Some(s) = self.seen.get(&key).and_then(|pair| pair[side].as_ref()) {
                return Ok(s.clone());
            }
        }
        let sched = if self.use_global {
            let Ok((s, hit)) = global().get_or_try_build(&key, || {
                Ok::<_, Infallible>(Schedule::of_words(kind, key.words()))
            });
            if hit {
                self.hits += 1;
            } else {
                self.misses += 1;
            }
            s
        } else {
            Arc::new(Schedule::of_words(kind, key.words()))
        };
        schedule::inspect(m, &sched)?;
        if self.reuse {
            self.seen.entry(key).or_default()[side] = Some(sched.clone());
        }
        Ok(sched)
    }

    /// The schedule `at`'s statement's last execution in this run used,
    /// when this one would build the same: [`RunSchedules::reuse`] on,
    /// the same family and side, the array of the layout it located
    /// against (its live descriptor and the segments `m` holds), and
    /// `runs` the rows it located, bit for bit (ranks with no row
    /// skipped). The executor then runs that schedule without locating,
    /// without a key and without a lookup in the reuse map — which would
    /// find it there, so the charges are a repeat's: none. Counted
    /// ([`RunSchedules::inspectors_reused`]).
    pub fn kept<'r>(
        &mut self,
        m: &Machine,
        at: &Inspection<'_>,
        runs: impl Iterator<Item = (i64, &'r [i64])>,
    ) -> Option<Arc<Schedule>> {
        if !self.reuse {
            return None;
        }
        let seg = m.mems[0].array(at.arr);
        let kept = self.kept.get(&at.stmt).filter(|k| {
            (k.kind, k.is_write) == (at.kind, at.is_write)
                && k.layout.is(at.dad, seg)
                && k.rows.is(runs)
        })?;
        self.reinspected += 1;
        Some(kept.sched.clone())
    }

    /// [`RunSchedules::schedule`] for `at`, whose inspector
    /// located `rows` into `pattern`: with `reuse` on, the rows, the
    /// array's layout and the schedule are kept for the statement's next
    /// execution ([`RunSchedules::kept`]).
    pub fn schedule_stmt(
        &mut self,
        m: &mut Machine,
        at: &Inspection<'_>,
        pattern: Pattern,
        rows: Rows,
    ) -> CommResult<Arc<Schedule>> {
        let layout = (self.reuse).then(|| ArrayLayout::of(at.dad, m.mems[0].array(at.arr)));
        let sched = self.schedule(m, at.kind, pattern, at.is_write)?;
        if let Some(layout) = layout {
            let kept = Inspected {
                kind: at.kind,
                is_write: at.is_write,
                layout,
                rows,
                sched: sched.clone(),
            };
            self.kept.insert(at.stmt, kept);
        }
        Ok(sched)
    }

    /// Unstructured executions this run that took their statement's
    /// kept schedule ([`RunSchedules::kept`]) instead of locating.
    /// Exact; explains host time, moves no virtual metric.
    pub fn inspectors_reused(&self) -> u64 {
        self.reinspected
    }

    /// The plan of a structured shift of `src` (live descriptor `dad`)
    /// by `s` along `dim` — into `src`'s own ghost cells (`tmp == None`,
    /// `overlap_shift`) or the same-shape temporary `tmp`
    /// (`temporary_shift`): [`shift_moves`], run once per run and key.
    /// A repeat compares the key and clones an `Arc` — it allocates
    /// nothing. What a caller then posts, charges and moves is the
    /// plan's either way, so no virtual metric can tell a replay.
    #[allow(clippy::too_many_arguments)]
    pub fn shift_plan(
        &mut self,
        m: &Machine,
        src: &str,
        tmp: Option<&str>,
        dad: &Dad,
        dim: usize,
        s: i64,
        periodic: bool,
    ) -> Arc<ExchangePlan> {
        let src_seg = m.mems[0].array(src);
        let dst_seg = tmp.map_or(src_seg, |t| m.mems[0].array(t));
        let key = (dim, s, periodic, tmp.is_none());
        let same_layout = |l: &ShiftLayout| {
            l.dims == dad.dims && l.grid == m.grid && l.src.is(src_seg) && l.dst.is(dst_seg)
        };
        let kept = self.shifts.get(&key);
        if let Some((_, plan)) = kept.and_then(|b| b.iter().find(|(l, _)| same_layout(l))) {
            self.shifts_reused += 1;
            return plan.clone();
        }
        self.shifts_built += 1;
        let plan = Arc::new(shift_moves(m, src, tmp, dad, dim, s, periodic));
        // A plan that moves nothing still occupies an entry.
        let cost = plan.len().max(1);
        if self.shift_moves_kept + cost <= SHIFT_PLAN_CAP {
            self.shift_moves_kept += cost;
            let layout = ShiftLayout {
                dims: dad.dims.clone(),
                grid: m.grid.clone(),
                src: SegGeometry::of(src_seg),
                dst: SegGeometry::of(dst_seg),
            };
            self.shifts
                .entry(key)
                .or_default()
                .push((layout, plan.clone()));
        }
        plan
    }

    /// `(built, reused)`: structured shift plans this run planned vs
    /// replayed from its table. Exact.
    pub fn shift_plans(&self) -> (u64, u64) {
        (self.shifts_built, self.shifts_reused)
    }

    /// The plan of the multicast broadcast of `src`'s slab through `g`
    /// (along array dimension `dim`, live descriptor `dad`) from rank
    /// `owner` into `tmp`: the fiber through `owner` and the owner's
    /// slab cast, the fiber kept while [`MULTICAST_PLAN_CAP`] allows.
    ///
    /// * A fiber is planned once per run, temporary and axis, and taken
    ///   again only while every member's memory keeps the slot layout
    ///   it was planned against ([`Fiber::holds`]): a removed array may
    ///   move the temporary's slot, and the fiber is planned again.
    /// * A kept fiber keeps the cast of its last multicast, which that
    ///   owner's next multicast of the same layout and dimension takes
    ///   again (its step moves it to `g`). The last owner only, not one
    ///   cast each: an elimination's owner multicasts a block of steps
    ///   and then never again, and a cast of every owner would hold 63
    ///   unused 255-edge trees by the end of a Gaussian on 256 ranks.
    ///
    /// What the broadcast then charges and moves is the plan's either
    /// way, so no virtual metric can tell a replay. A debug build plans
    /// every replayed part afresh as well and asserts the two equal.
    #[allow(clippy::too_many_arguments)]
    pub fn multicast_plan(
        &mut self,
        m: &Machine,
        src: &str,
        dad: &Dad,
        tmp: &str,
        dim: usize,
        g: i64,
        owner: i64,
    ) -> (Arc<Fiber>, Arc<SlabCast>) {
        let axis = multicast_axis(dad, dim);
        let at = m.grid.coords_of(owner)[axis] as usize;
        let found = (self.fibers.iter())
            .position(|f| (f.tmp.as_str(), f.axis) == (tmp, axis) && f.fiber.has_at(at, owner));
        let k = match found {
            Some(k) if self.fibers[k].fiber.holds(m) => {
                self.multicasts_replayed += 1;
                if cfg!(debug_assertions) {
                    let fresh = Fiber::new(m, owner, axis, tmp);
                    assert_eq!(*self.fibers[k].fiber, fresh, "kept fiber");
                }
                k
            }
            // Planned against a layout since moved: planned again.
            Some(k) => {
                self.fibers[k].fiber = Arc::new(Fiber::new(m, owner, axis, tmp));
                k
            }
            None => {
                let fiber = Fiber::new(m, owner, axis, tmp);
                if self.fiber_words + fiber.words() > MULTICAST_PLAN_CAP {
                    let cast = SlabCast::new(m, src, dad, dim, g, owner, &fiber);
                    return (Arc::new(fiber), Arc::new(cast));
                }
                self.fiber_words += fiber.words();
                self.fibers.push(KeptFiber {
                    tmp: tmp.to_string(),
                    axis,
                    fiber: Arc::new(fiber),
                    last: None,
                });
                self.fibers.len() - 1
            }
        };
        let KeptFiber { fiber, last, .. } = &mut self.fibers[k];
        let src_seg = m.mems[0].array(src);
        let topology = &m.spec().topology;
        match last {
            Some(c)
                if (c.dim, c.owner) == (dim, owner)
                    && c.dims == dad.dims
                    && c.grid == m.grid
                    && c.src.is(src_seg)
                    && c.topology == *topology =>
            {
                if cfg!(debug_assertions) {
                    let fresh = SlabCast::new(m, src, dad, dim, g, owner, fiber);
                    assert_eq!(*c.cast, fresh, "kept slab cast at {g}");
                }
                (fiber.clone(), c.cast.clone())
            }
            _ => {
                let cast = Arc::new(SlabCast::new(m, src, dad, dim, g, owner, fiber));
                *last = Some(LastCast {
                    dim,
                    owner,
                    dims: dad.dims.clone(),
                    grid: m.grid.clone(),
                    src: SegGeometry::of(src_seg),
                    topology: topology.clone(),
                    cast: cast.clone(),
                });
                (fiber.clone(), cast)
            }
        }
    }

    /// Multicast broadcasts this run ran along a fiber it had kept
    /// ([`RunSchedules::multicast_plan`]). Exact.
    pub fn multicasts_replayed(&self) -> u64 {
        self.multicasts_replayed
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
