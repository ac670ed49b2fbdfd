//! The FORALL communication driver.
//!
//! The paper's central claim is one portable run-time support system
//! under every compiled program (§6). This module is where that claim
//! is enforced in the code base: the full FORALL communication
//! lifecycle — per-statement ghost exchanges, the opt-in split-phase
//! overlap (`comm_compute_overlap`), phase-level batching
//! (`comm_plan`), unstructured schedule reuse, the rank-1 slab-temp
//! subscript contract, and the end-of-run quiescence check — is
//! sequenced **here**, once, and the engine in `f90d-vm` (which this
//! crate cannot depend on) drives it through these entry points. The
//! engine keeps only evaluation: it hands the driver a [`ComputeSink`]
//! that runs a phase of iteration spaces and never touches
//! [`ExchangeOp`], the shift planner (`structured::shift_moves`), or
//! the raw transport itself (a guard test in `tests/` enforces exactly
//! that), so orchestration has one home whatever evaluates elements.
//!
//! Every structured shift that goes through here — the per-statement
//! [`ghost_exchange`] and [`temporary_shift`], and the [`GhostSpec`]s
//! [`CommDriver::phase_exchange`] batches and [`run_overlap`] posts — is
//! planned once per run and key, in the run's [`RunSchedules`], and
//! replayed after that (the paper's schedule reuse, §7 optimization 3,
//! applied to the structured path); so is every fiber's broadcast of a
//! [`multicast`]. A replay posts, charges and moves exactly what the
//! planner's table says, which is what a fresh plan would say: no
//! virtual metric can tell the two apart.
//!
//! Contracts:
//! * [`CommDriver::phase_exchange`] batches a phase's deduplicated
//!   ghost exchanges through one multi-strip [`ExchangeOp`] — one
//!   message per processor pair for the whole phase; a runtime
//!   planning refusal is reported as [`PhaseOutcome::Refused`] (and
//!   counted) so the caller can fall back to the always-correct
//!   per-statement path — the planner annotations are advisory.
//! * [`run_overlap`] posts every ghost exchange, runs the sink's
//!   interior compute **before** completing them (so the interior
//!   genuinely hides wire time), completes, runs the boundary slabs,
//!   and commits — the split geometry comes from the shared
//!   [`Margins`], which decides exactly which tuples are interior.

use std::sync::Arc;

use f90d_distrib::{ArrayDimMap, Dad, Runs};
use f90d_machine::{ArrayData, ElemType, LocalArray, Machine, NodeMemory, Transport, Value};

use crate::helpers::{exchange, locator, ExchangeOp, ExchangePlan};
use crate::op::{CommError, CommResult};
use crate::overlap::{dims_overlap_compatible, Margins};
use crate::sched_cache::{Inspection, Pattern, Rows, RunSchedules, StmtId};
use crate::schedule::ScheduleKind;
use crate::structured::{multicast_axis, run_slab_cast};

/// One planned ghost exchange: fill the ghost cells of `arr` for a
/// compile-time shift by `c` along array dimension `dim`, by the moves
/// of `plan` — the run's kept plan for the array's live descriptor
/// ([`RunSchedules::shift_plan`]), so a spec built twice shares one.
#[derive(Debug, Clone)]
pub struct GhostSpec {
    /// Array whose ghost cells are filled.
    pub arr: String,
    /// Shifted array dimension.
    pub dim: usize,
    /// Compile-time shift constant.
    pub c: i64,
    /// The element moves, as every path that runs this exchange
    /// prices and performs them.
    pub plan: Arc<ExchangePlan>,
}

impl GhostSpec {
    /// The non-periodic ghost exchange of `arr` (live descriptor `dad`)
    /// by `c` along `dim`, planned — or found planned — in `rs`.
    pub fn new(
        m: &Machine,
        rs: &mut RunSchedules,
        arr: &str,
        dad: &Dad,
        dim: usize,
        c: i64,
    ) -> Self {
        GhostSpec {
            arr: arr.to_string(),
            dim,
            c,
            plan: rs.shift_plan(m, arr, None, dad, dim, c, false),
        }
    }

    /// This exchange as a strip of an [`ExchangeOp`].
    fn strip(&self) -> (&str, &str, &ExchangePlan) {
        (&self.arr, &self.arr, &self.plan)
    }
}

/// Outcome of a batched phase exchange attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseOutcome {
    /// The coalesced exchange ran: every member's ghost cells are
    /// filled, so the members must execute with their preludes skipped.
    Exchanged,
    /// Runtime planning refused the batch (e.g. mixed element types).
    /// Nothing was posted; the caller must run the bit-identical
    /// per-statement fallback — every member's `pre` list is intact.
    Refused,
}

/// Per-run communication-orchestration state and counters.
///
/// Each backend owns one `CommDriver` for the lifetime of a run and
/// routes every FORALL comm-phase decision through it; the counters
/// surface in the run trace (`comm_plan {groups, fallbacks}` in
/// `results.json`) so a cell's batching behaviour is observable without
/// being gated.
#[derive(Debug, Default, Clone)]
pub struct CommDriver {
    /// Phases that executed as one coalesced exchange.
    groups: u64,
    /// Phases the runtime planner refused (per-statement fallback ran).
    fallbacks: u64,
}

impl CommDriver {
    /// A fresh driver with zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// `(groups, fallbacks)`: coalesced phases executed vs runtime
    /// planning refusals that fell back to per-statement execution.
    pub fn counts(&self) -> (u64, u64) {
        (self.groups, self.fallbacks)
    }

    /// Execute one planner-formed comm phase's ghost exchanges as a
    /// single multi-strip [`ExchangeOp`].
    ///
    /// `specs` is every member's exchange list in statement order,
    /// duplicates included — the driver deduplicates by
    /// `(array, dim, c)` (none of a phase's members writes an exchanged
    /// array, so repeated fills would carry identical data). On
    /// [`PhaseOutcome::Exchanged`] the caller runs the members with
    /// their preludes skipped; on [`PhaseOutcome::Refused`] nothing was
    /// posted and the caller runs the per-statement fallback. A phase
    /// over arrays of several element types is refused: one message
    /// carries one type, and the phase planner only groups same-typed
    /// arrays, so a mix here is a planner bug.
    pub fn phase_exchange(
        &mut self,
        m: &mut Machine,
        specs: Vec<GhostSpec>,
    ) -> CommResult<PhaseOutcome> {
        let mut batch: Vec<GhostSpec> = Vec::with_capacity(specs.len());
        for s in specs {
            if batch
                .iter()
                .any(|b| b.arr == s.arr && b.dim == s.dim && b.c == s.c)
            {
                continue;
            }
            batch.push(s);
        }
        let ty = |s: &GhostSpec| m.mems[0].array(&s.arr).elem_type();
        if batch.iter().any(|s| ty(s) != ty(&batch[0])) {
            self.fallbacks += 1;
            return Ok(PhaseOutcome::Refused);
        }
        m.stats.record("comm_phase");
        for _ in &batch {
            m.stats.record("overlap_shift");
        }
        let mut op = ExchangeOp::new(batch.iter().map(GhostSpec::strip).collect());
        op.post(m)?;
        op.finish(m)?;
        self.groups += 1;
        Ok(PhaseOutcome::Exchanged)
    }
}

/// One blocking per-statement ghost exchange (the `overlap_shift`
/// prelude of an unbatched FORALL): fill the ghost cells of `arr` for a
/// compile-time shift by `c` along `dim`, by the run's plan for it.
pub fn ghost_exchange(
    m: &mut Machine,
    rs: &mut RunSchedules,
    arr: &str,
    dad: &Dad,
    dim: usize,
    c: i64,
) -> CommResult<()> {
    m.stats.record("overlap_shift");
    let plan = rs.shift_plan(m, arr, None, dad, dim, c, false);
    exchange(m, arr, arr, &plan)
}

/// One blocking `temporary_shift` statement: `tmp(l) = src(global(l) +
/// s)` for a run-time amount `s`, by the run's plan for that amount.
pub fn temporary_shift(
    m: &mut Machine,
    rs: &mut RunSchedules,
    src: &str,
    dad: &Dad,
    tmp: &str,
    dim: usize,
    s: i64,
) -> CommResult<()> {
    m.stats.record("temporary_shift");
    let plan = rs.shift_plan(m, src, Some(tmp), dad, dim, s, false);
    exchange(m, src, tmp, &plan)
}

/// One `multicast` statement (paper §5.3.1 example 2): broadcast the
/// slab `src[.., src_g, ..]` along the grid axis of `dim` into `tmp` on
/// every node, each fiber's broadcast by the run's plan for it
/// ([`RunSchedules::multicast_plan`]).
pub fn multicast(
    m: &mut Machine,
    rs: &mut RunSchedules,
    src: &str,
    dad: &Dad,
    tmp: &str,
    dim: usize,
    src_g: i64,
) -> CommResult<()> {
    m.stats.record("multicast");
    let axis = multicast_axis(dad, dim);
    let l = dad.dims[dim].local(src_g);
    for owner in m.grid.slice(axis, dad.dims[dim].proc_of(src_g)) {
        let (fiber, cast) = rs.multicast_plan(m, src, dad, tmp, dim, src_g, owner);
        run_slab_cast(m, src, &fiber, &cast, l)?;
    }
    Ok(())
}

/// Map a FORALL's `overlap_shift` prelude onto per-loop-variable ghost
/// margins — the eligibility core of split-phase execution: *which*
/// FORALLs overlap.
///
/// `loop_dims[k]` is the LHS dimension map carried by loop variable `k`
/// when that variable is a stride-1 owner-computes partition (`None`
/// otherwise — such variables can never absorb a margin). Each shift in
/// `shifts` (`(shifted dimension map, shift constant)`) must land on
/// the first compatible loop variable per [`dims_overlap_compatible`];
/// any shift with no compatible variable makes the whole FORALL
/// ineligible (`None` — callers fall back to blocking execution).
pub fn stencil_margins(
    loop_dims: &[Option<&ArrayDimMap>],
    shifts: &[(&ArrayDimMap, i64)],
) -> Option<Margins> {
    let mut margins = Margins::new(loop_dims.len());
    for (sdm, amount) in shifts {
        let var = loop_dims
            .iter()
            .position(|ldm| ldm.is_some_and(|l| dims_overlap_compatible(l, sdm)))?;
        margins.add(var, *amount);
    }
    Some(margins)
}

/// The compute half the engine lends to [`run_overlap`]: the driver
/// owns *when* ghost exchanges post, complete, and commit; the sink owns
/// *how* elements are evaluated and *how* their cost is charged.
///
/// Contract: a `phase` charges each rank's whole phase as **one** lump
/// sum (the order of the additions is part of the virtual clock's
/// bits); the interior phase runs (and charges) entirely before the
/// posted exchanges complete — that ordering is the latency hiding —
/// and the boundary phase after. A write may land during a phase only
/// where no read of the FORALL can see it; every other is staged, and
/// `commit` applies both phases' staged writes in phase order,
/// preserving FORALL RHS-before-LHS semantics across the split.
pub trait ComputeSink {
    /// The backend's error type.
    type Error: From<CommError>;

    /// Run one phase: on each rank, its iteration spaces in turn.
    fn phase(&mut self, m: &mut Machine, spaces: &Spaces<'_>) -> Result<(), Self::Error>;

    /// Apply every staged write of the phases run so far.
    fn commit(&mut self, m: &mut Machine) -> Result<(), Self::Error>;
}

/// The iteration spaces of one phase, by rank: one [`Runs`] per FORALL
/// variable, a space after another — each space the plain cartesian
/// product of its variables' values. A rank with no space has none.
pub type Spaces<'s> = dyn Fn(usize) -> &'s [Runs] + Sync + 's;

/// Split-phase stencil execution (paper §5.1/§7 latency hiding), the
/// single implementation behind `comm_compute_overlap`: post every ghost exchange in `shifts`, run the sink's
/// interior compute while the strips are on the wire, complete the
/// exchanges, run the boundary slabs that read the freshly filled ghost
/// cells, then commit both phases' staged writes. Array results are
/// bit-identical to blocking execution — only the virtual clocks
/// differ, which is the point.
///
/// `whole` gives each rank's space of the full FORALL; the
/// interior/boundary split comes from the shared [`Margins`] geometry.
pub fn run_overlap<S: ComputeSink>(
    m: &mut Machine,
    shifts: &[GhostSpec],
    margins: &Margins,
    whole: &Spaces<'_>,
    sink: &mut S,
) -> Result<(), S::Error> {
    // 1. Post every ghost exchange: senders pay pack + α and are free.
    let mut posted = Vec::with_capacity(shifts.len());
    for s in shifts {
        m.stats.record("overlap_shift");
        let mut op = ExchangeOp::new(vec![s.strip()]);
        op.post(m)?;
        posted.push(op);
    }
    // 2. Split each rank's iteration space once via the shared geometry:
    // rank `r`'s spaces are `at[r]..at[r + 1]` of each table.
    let nranks = m.nranks() as usize;
    let (mut interior, mut boundary) = (Vec::new(), Vec::new());
    let (mut interior_at, mut boundary_at) = (vec![0], vec![0]);
    for r in 0..nranks {
        margins.interior(whole(r), &mut interior);
        margins.boundary(whole(r), &mut boundary);
        interior_at.push(interior.len());
        boundary_at.push(boundary.len());
    }
    // 3. Interior compute, charged before the completions below so it
    // genuinely hides the wire time.
    let interior_done = sink.phase(m, &|r| &interior[interior_at[r]..interior_at[r + 1]]);
    // 4. Complete the ghost exchanges: each receiver's clock advances
    // to max(its post-interior clock, strip arrival). Every posted op
    // finishes even after a failure, so nothing is left in flight; the
    // first error wins.
    let finished: Vec<_> = posted.into_iter().map(|op| op.finish(m)).collect();
    interior_done?;
    finished.into_iter().collect::<CommResult<()>>()?;
    // 5. Boundary compute: only the shell tuples whose reads touch
    // ghost cells.
    sink.phase(m, &|r| &boundary[boundary_at[r]..boundary_at[r + 1]])?;
    // 6. Commit both phases' staged writes (FORALL RHS-before-LHS).
    sink.commit(m)
}

/// The inspector family of an unstructured read (`is_write` false) or
/// write. For reads, `fast_path` (= `local_only`) selects the
/// local-only schedule over fan-in requests; for writes, it
/// (= `invertible`) selects local-only over the sender-driven schedule.
/// One mapping, used by the gather and scatter executors below.
pub fn schedule_kind(fast_path: bool, is_write: bool) -> ScheduleKind {
    if fast_path {
        ScheduleKind::LocalOnly
    } else if is_write {
        ScheduleKind::SenderDriven
    } else {
        ScheduleKind::FanInRequests
    }
}

/// Inspector input of one unstructured FORALL read
/// (`tmp(count) = src(subs(i…))`): every rank's source subscripts, in
/// iteration order, and its element count. A backend's inspector loop
/// evaluates the subscripts (the only tier-specific part) and
/// [`push`](Self::push)es them — or a run of iterations at a time
/// through [`push_row`](Self::push_row) — rank after rank;
/// [`execute`](Self::execute) locates them and runs the executor.
#[derive(Debug)]
pub struct GatherRequests<'a> {
    src: &'a str,
    src_dad: &'a Dad,
    rows: Rows,
    counts: Vec<usize>,
}

impl<'a> GatherRequests<'a> {
    /// An empty request list against array `src` (live descriptor
    /// `src_dad`) as machine `m` holds it.
    pub fn new(m: &Machine, src: &'a str, src_dad: &'a Dad) -> Self {
        GatherRequests {
            src,
            src_dad,
            rows: Rows::default(),
            counts: vec![0; m.nranks() as usize],
        }
    }

    /// `rank`'s next sequential-buffer slot reads `src(g)`. The
    /// subscript is checked against `src`'s extents here, so the first
    /// error reported is the first the inspector loop meets.
    #[inline]
    pub fn push(&mut self, rank: i64, g: &[i64]) -> CommResult<()> {
        check_bounds(self.src, self.src_dad, g)?;
        self.rows.push(rank, g);
        self.counts[rank as usize] += 1;
        Ok(())
    }

    /// [`push`](Self::push) for a run of `rank`'s iterations at once:
    /// `subs` holds their subscripts row-major, `src`'s rank values per
    /// iteration. Stops at the first out-of-range subscript, with
    /// `push`'s error.
    pub fn push_row(&mut self, rank: i64, subs: &[i64]) -> CommResult<()> {
        check_rows(self.src, self.src_dad, subs)?;
        let ndim = self.src_dad.rank();
        let n = subs.len() / ndim;
        self.rows.push(rank, &subs[..n * ndim]);
        self.counts[rank as usize] += n;
        Ok(())
    }

    /// Charge the modelled inspector (4 element ops per request, one
    /// lump per rank), size the per-rank sequential buffers `tmp`, and
    /// run the vectorized read by the schedule of statement `stmt`:
    /// the one its last execution in this run used when the subscripts
    /// and the source's layout are what they were then
    /// ([`RunSchedules::kept`]); otherwise the requests are located and
    /// the schedule built or reused (per-run §7(3) reuse + cross-run
    /// cache).
    pub fn execute(
        self,
        m: &mut Machine,
        rs: &mut RunSchedules,
        stmt: StmtId,
        tmp: &str,
        ty: ElemType,
        local_only: bool,
    ) -> CommResult<()> {
        for (rank, &n) in self.counts.iter().enumerate() {
            m.transport.charge_elem_ops(rank as i64, 4 * n as i64);
            seq_buffer(&mut m.mems[rank], tmp, ty, n);
        }
        let at = Inspection {
            stmt,
            kind: schedule_kind(local_only, false),
            is_write: false,
            arr: self.src,
            dad: self.src_dad,
        };
        let sched = match rs.kept(m, &at, self.rows.runs()) {
            Some(sched) => sched,
            None => {
                let locate = locator(m, self.src, self.src_dad);
                let mut reqs = Pattern::with_capacity(self.counts.iter().sum());
                let mut next = vec![0; self.counts.len()];
                for (rank, subs) in self.rows.runs() {
                    let dst_off = &mut next[rank as usize];
                    locate.locate_rows(subs, |owner, src_off| {
                        reqs.push(owner, rank, src_off, *dst_off);
                        *dst_off += 1;
                    });
                }
                let sched = rs.schedule_stmt(m, &at, reqs, self.rows)?;
                // The sequential buffers are not zeroed: the reads must
                // fill every slot. A kept schedule was checked here when
                // it was built, for the same subscript rows.
                debug_assert!(
                    fills_every_slot(sched.plan(), &self.counts),
                    "a gather schedule leaves a sequential-buffer slot unwritten"
                );
                sched
            }
        };
        crate::schedule::execute_read(m, &sched, self.src, tmp)
    }
}

/// One rank's scatter-write output in iteration order, as flat typed
/// columns: the global subscripts row-major (the destination's rank
/// values per write) and the values, already of the destination's
/// element type.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatterOut {
    /// Global subscripts, `vals.len()` rows of the destination's rank.
    pub subs: Vec<i64>,
    /// One value per row.
    pub vals: ArrayData,
}

impl ScatterOut {
    /// No writes yet, into an array of element type `ty`.
    pub fn new(ty: ElemType) -> Self {
        ScatterOut {
            subs: Vec::new(),
            vals: ArrayData::zeros(ty, 0),
        }
    }

    /// Append the write `dst(g) = v`, converting `v` to the column's
    /// element type under the Fortran assignment rules.
    pub fn push(&mut self, g: &[i64], v: Value) {
        self.subs.extend_from_slice(g);
        self.vals.push(v);
    }
}

/// Post-loop executor of a FORALL whose left-hand side is written
/// through a vector-valued subscript (paper §4 cases 3/4), statement
/// `stmt`: `outputs[rank]` is that rank's writes in iteration order.
/// Each value column becomes the rank's sequential buffer, and the
/// values move to the owners of `dst` — every copy, along replicated
/// grid axes — by `postcomp_write` (`invertible`) or `scatter`: by the
/// schedule the statement's last execution in this run used when the
/// subscripts and the destination's layout are what they were then
/// ([`RunSchedules::kept`]), or one built from the located writes.
pub fn scatter(
    m: &mut Machine,
    rs: &mut RunSchedules,
    stmt: StmtId,
    dst: &str,
    dst_dad: &Dad,
    outputs: &[ScatterOut],
    invertible: bool,
) -> CommResult<()> {
    let buf = format!("__SCATBUF_{dst}");
    let at = Inspection {
        stmt,
        kind: schedule_kind(invertible, true),
        is_write: true,
        arr: dst,
        dad: dst_dad,
    };
    let runs = || (outputs.iter().enumerate()).map(|(rank, out)| (rank as i64, &out.subs[..]));
    let kept = rs.kept(m, &at, runs());
    for (rank, out) in outputs.iter().enumerate() {
        let n = out.vals.len();
        let seq = seq_buffer(&mut m.mems[rank], &buf, out.vals.elem_type(), n);
        seq.copy_flat(0, &out.vals);
        if kept.is_none() {
            check_rows(dst, dst_dad, &out.subs)?;
        }
    }
    let sched = match kept {
        Some(sched) => sched,
        None => {
            let locate = locator(m, dst, dst_dad);
            let total: usize = outputs.iter().map(|out| out.vals.len()).sum();
            let mut reqs = Pattern::with_capacity(total * locate.replicas().len());
            for (rank, subs) in runs() {
                let mut src_off = 0;
                locate.locate_rows(subs, |owner, dst_off| {
                    for replica in locate.replicas() {
                        reqs.push(rank, owner + replica, src_off, dst_off);
                    }
                    src_off += 1;
                });
            }
            rs.schedule_stmt(m, &at, reqs, Rows::of(runs()))?
        }
    };
    crate::schedule::execute_write(m, &sched, &buf, dst)
}

/// Make `name` on node `mem` a sequential buffer of `n` elements of
/// type `ty` (one, when `n` is 0) for an executor that writes every slot
/// `0..n`: the buffer a previous execution left under that name when it
/// has that type and shape, so a repeat allocates nothing for it, and a
/// fresh zeroed one otherwise. Only the placeholder slot of `n = 0`,
/// which nothing writes, is zeroed again.
fn seq_buffer<'m>(
    mem: &'m mut NodeMemory,
    name: &str,
    ty: ElemType,
    n: usize,
) -> &'m mut LocalArray {
    let len = n.max(1) as i64;
    let fits = |seq: &LocalArray| {
        seq.elem_type() == ty && seq.shape == [len] && seq.ghost_lo == [0] && seq.ghost_hi == [0]
    };
    if !(mem.has_array(name) && fits(mem.array(name))) {
        mem.insert_array(name, LocalArray::zeros(ty, &[len]));
    }
    let seq = mem.array_mut(name);
    if n == 0 {
        seq.data_mut().fill_zero();
    }
    seq
}

/// `true` when the reads of `plan` write each rank's sequential-buffer
/// slots `0..counts[rank]`, each exactly once.
fn fills_every_slot(plan: &ExchangePlan, counts: &[usize]) -> bool {
    let starts: Vec<usize> = (counts.iter())
        .scan(0, |at, &n| Some(std::mem::replace(at, *at + n)))
        .collect();
    let mut written = vec![false; counts.iter().sum()];
    for pair in plan.pairs() {
        let to = pair.to as usize;
        for &slot in pair.dsts {
            let slot = slot as usize;
            if slot >= counts[to] || std::mem::replace(&mut written[starts[to] + slot], true) {
                return false;
            }
        }
    }
    written.iter().all(|&w| w)
}

/// Subscript `g` (0-based) must lie inside dimension `dim` of `arr`:
/// the one structured out-of-range error of every run-time subscript
/// check outside the element loops, worded like theirs.
pub fn check_dim(arr: &str, dad: &Dad, dim: usize, g: i64) -> CommResult<()> {
    let extent = dad.dims[dim].extent;
    if (0..extent).contains(&g) {
        return Ok(());
    }
    Err(CommError(format!(
        "subscript {} out of bounds on dim {dim} of {arr} (extent {extent})",
        g + 1
    )))
}

/// [`check_dim`] for a full subscript list.
pub fn check_bounds(arr: &str, dad: &Dad, g: &[i64]) -> CommResult<()> {
    g.iter()
        .enumerate()
        .try_for_each(|(d, &gd)| check_dim(arr, dad, d, gd))
}

/// [`check_bounds`] for every whole row of `subs` (row-major, `dad`'s
/// rank values a row): the first row out of range fails, with its
/// error. A row in range costs one comparison per subscript.
fn check_rows(arr: &str, dad: &Dad, subs: &[i64]) -> CommResult<()> {
    let dims = &dad.dims;
    let inside = |g: &[i64]| (g.iter().zip(dims)).all(|(&g, dm)| (0..dm.extent).contains(&g));
    match subs.chunks_exact(dims.len()).find(|g| !inside(g)) {
        Some(g) => check_bounds(arr, dad, g),
        None => Ok(()),
    }
}

/// The rank-1 slab-temp subscript contract, shared by every consumer of
/// a scalar-multicast slab temporary (the bytecode lowering and the
/// engine's accessors): which of a read's `nsubs` source subscripts
/// survive the dropped `fixed_dim`. `None` means the source was rank-1 —
/// the slab is the single dummy extent-1 dimension the multicast's
/// `slab_dad` pads in, and the consumer must index it with a constant
/// zero instead of an empty subscript list.
pub fn slab_kept_dims(nsubs: usize, fixed_dim: usize) -> Option<Vec<usize>> {
    let kept: Vec<usize> = (0..nsubs).filter(|&d| d != fixed_dim).collect();
    if kept.is_empty() {
        None
    } else {
        Some(kept)
    }
}

/// End-of-run transport quiescence check: leaked in-flight messages or
/// never-completed posted receives surface as a structured [`CommError`]
/// instead of being silently dropped. Every run ends here.
pub fn quiesce(m: &mut Machine) -> CommResult<()> {
    m.transport.quiescent_check().map_err(CommError::from)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::{DadBuilder, DistKind, ProcGrid};
    use f90d_machine::{ElemType, LocalArray, MachineSpec, Value};

    /// 1-D machine with `names` BLOCK arrays, ghost width 2 both sides,
    /// array `k`'s element `i` = 1000k + i.
    fn setup(n: i64, p: i64, names: &[&str]) -> (Machine, Dad) {
        let grid = ProcGrid::new(&[p]);
        let mut m = Machine::new(MachineSpec::ipsc860(), grid.clone());
        let dad = DadBuilder::new(names[0], &[n])
            .distribute(&[DistKind::Block])
            .grid(grid)
            .build()
            .unwrap();
        for (base, name) in names.iter().enumerate() {
            for rank in 0..m.nranks() {
                let coords = m.grid.coords_of(rank);
                let mut la = LocalArray::with_ghost(ElemType::Real, &dad.local_shape(), &[2], &[2]);
                let seg = la.segment();
                dad.for_each_owned(&coords, &seg, |g, off| {
                    la.set_flat(off, Value::Real((1000 * base as i64 + g[0]) as f64))
                });
                m.mems[rank as usize].insert_array(*name, la);
            }
        }
        (m, dad)
    }

    /// The specs of `(array, c)` shifts along dimension 0, planned in a
    /// fresh per-run table.
    fn specs(m: &Machine, dad: &Dad, shifts: &[(&str, i64)]) -> Vec<GhostSpec> {
        let mut rs = RunSchedules::new();
        shifts
            .iter()
            .map(|&(name, c)| GhostSpec::new(m, &mut rs, name, dad, 0, c))
            .collect()
    }

    /// The values in the ghost cells rank `rank` reads for `name(i + c)`.
    fn ghost_values(m: &Machine, dad: &Dad, name: &str, rank: i64, c: i64) -> Vec<f64> {
        let (dm, held) = (&dad.dims[0], dad.dims[0].owned(m.grid.coords_of(rank)[0]));
        let (lo, hi) = (
            dm.local(held.first().unwrap()),
            dm.local(held.last().unwrap()),
        );
        let ghosts: Vec<i64> = if c > 0 {
            (hi + 1..=hi + c).collect()
        } else {
            (lo + c..lo).collect()
        };
        let a = m.mems[rank as usize].array(name);
        ghosts.iter().map(|&l| a.get(&[l]).as_real()).collect()
    }

    /// A phase fills every ghost cell the per-statement exchanges fill,
    /// with the same bytes in one message per pair instead of one per
    /// array: one α per pair instead of three, so it finishes earlier.
    #[test]
    fn a_phase_is_the_per_statement_fill_in_fewer_messages() {
        let names = ["A", "B", "C"];
        let (mut per_stmt, dad) = setup(32, 4, &names);
        let mut rs = RunSchedules::new();
        for name in names {
            ghost_exchange(&mut per_stmt, &mut rs, name, &dad, 0, 1).unwrap();
        }
        let (mut m, _) = setup(32, 4, &names);
        let phase = specs(&m, &dad, &[("A", 1), ("B", 1), ("C", 1)]);
        CommDriver::new().phase_exchange(&mut m, phase).unwrap();
        quiesce(&mut m).unwrap();
        for rank in 0..4 {
            for name in names {
                let want = ghost_values(&per_stmt, &dad, name, rank, 1);
                assert_eq!(ghost_values(&m, &dad, name, rank, 1), want, "{name}@{rank}");
            }
        }
        assert_eq!(m.transport.bytes, per_stmt.transport.bytes);
        assert_eq!(m.transport.messages * 3, per_stmt.transport.messages);
        assert!(m.elapsed() < per_stmt.elapsed());
    }

    /// Shifts of opposite signs cross different pairs: nothing merges,
    /// and each array's cells still land.
    #[test]
    fn opposite_shifts_in_one_phase_send_one_message_per_pair_each() {
        let (mut m, dad) = setup(24, 4, &["A", "B"]);
        let phase = specs(&m, &dad, &[("A", 2), ("B", -1)]);
        CommDriver::new().phase_exchange(&mut m, phase).unwrap();
        quiesce(&mut m).unwrap();
        assert_eq!(m.transport.messages, 6);
        assert_eq!(ghost_values(&m, &dad, "A", 0, 2), vec![6.0, 7.0]);
        assert_eq!(ghost_values(&m, &dad, "B", 1, -1), vec![1005.0]);
    }

    /// Duplicate specs across phase members collapse to one exchange:
    /// the batched fill moves exactly the bytes of the deduplicated set
    /// and the driver counts one group.
    #[test]
    fn phase_exchange_dedups_and_counts_groups() {
        let (mut m_ref, dad) = setup(32, 4, &["A", "B"]);
        let mut drv_ref = CommDriver::new();
        let deduped = specs(&m_ref, &dad, &[("A", 1), ("B", 1)]);
        assert_eq!(
            drv_ref.phase_exchange(&mut m_ref, deduped).unwrap(),
            PhaseOutcome::Exchanged
        );

        let (mut m, dad) = setup(32, 4, &["A", "B"]);
        let mut drv = CommDriver::new();
        // Three members, two of them re-reading the same shifted A.
        let dup = specs(&m, &dad, &[("A", 1), ("A", 1), ("B", 1), ("A", 1)]);
        assert_eq!(
            drv.phase_exchange(&mut m, dup).unwrap(),
            PhaseOutcome::Exchanged
        );
        assert_eq!(drv.counts(), (1, 0));
        assert_eq!(m.transport.messages, m_ref.transport.messages);
        assert_eq!(m.transport.bytes, m_ref.transport.bytes);
        quiesce(&mut m).unwrap();
    }

    /// A mixed-element-type batch is refused: nothing posts, the
    /// fallback counter ticks, and the caller is free to run the
    /// per-statement path.
    #[test]
    fn phase_exchange_refusal_posts_nothing_and_counts_a_fallback() {
        let (mut m, dad) = setup(16, 2, &["A"]);
        for rank in 0..m.nranks() {
            let la = LocalArray::with_ghost(ElemType::Int, &dad.local_shape(), &[2], &[2]);
            m.mems[rank as usize].insert_array("K", la);
        }
        let mut drv = CommDriver::new();
        let mixed = specs(&m, &dad, &[("A", 1), ("K", 1)]);
        assert_eq!(
            drv.phase_exchange(&mut m, mixed).unwrap(),
            PhaseOutcome::Refused
        );
        assert_eq!(drv.counts(), (0, 1));
        assert_eq!(m.transport.messages, 0, "a refusal must post nothing");
        quiesce(&mut m).unwrap();
    }

    /// `run_overlap` is bit-identical to blocking execution: same ghost
    /// fills, same messages and bytes, interior charged before the
    /// completions, boundary after.
    #[test]
    fn run_overlap_orders_post_interior_finish_boundary_commit() {
        #[derive(Default)]
        struct Probe {
            calls: Vec<&'static str>,
            /// Messages already completed when `interior` ran.
            msgs_at_interior: u64,
        }
        impl ComputeSink for Probe {
            type Error = CommError;
            fn phase(&mut self, m: &mut Machine, spaces: &Spaces<'_>) -> Result<(), CommError> {
                // Interior of a ±1-margined 8-wide block keeps the middle
                // six, its boundary the two edges: one space per rank.
                let width = if self.calls.is_empty() {
                    self.msgs_at_interior = m.transport.messages;
                    6
                } else {
                    2
                };
                self.calls.push(["interior", "boundary"][self.calls.len()]);
                assert!((0..4).all(|r| spaces(r).len() == 1 && spaces(r)[0].len() == width));
                Ok(())
            }
            fn commit(&mut self, _m: &mut Machine) -> Result<(), CommError> {
                self.calls.push("commit");
                Ok(())
            }
        }

        let (mut m, dad) = setup(32, 4, &["A"]);
        let shifts = specs(&m, &dad, &[("A", 1), ("A", -1)]);
        let mut margins = Margins::new(1);
        margins.add(0, 1);
        margins.add(0, -1);
        // Rank r owns globals 8r..8r+7.
        let spaces: Vec<Runs> = (0..4).map(|r| Runs::of(8 * r..8 * r + 8)).collect();
        let mut sink = Probe::default();
        let whole = |r: usize| std::slice::from_ref(&spaces[r]);
        run_overlap(&mut m, &shifts, &margins, &whole, &mut sink).unwrap();
        assert_eq!(sink.calls, vec!["interior", "boundary", "commit"]);
        // The sends were already posted (and counted) when the interior
        // ran — posting precedes compute, completion follows it.
        assert_eq!(sink.msgs_at_interior, m.transport.messages);
        assert!(m.transport.messages > 0);
        quiesce(&mut m).unwrap();
    }

    /// A failing interior still lets every posted exchange finish: its
    /// error comes back and nothing is left in flight.
    #[test]
    fn run_overlap_finishes_every_exchange_when_the_interior_fails() {
        struct Failing;
        impl ComputeSink for Failing {
            type Error = CommError;
            fn phase(&mut self, _: &mut Machine, _: &Spaces<'_>) -> CommResult<()> {
                Err(CommError("interior failed".into()))
            }
            fn commit(&mut self, _: &mut Machine) -> CommResult<()> {
                unreachable!("the interior failed")
            }
        }
        let (mut m, dad) = setup(32, 4, &["A"]);
        let shifts = specs(&m, &dad, &[("A", 1), ("A", -1)]);
        let mut margins = Margins::new(1);
        margins.add(0, 1);
        margins.add(0, -1);
        let spaces: Vec<Runs> = (0..4).map(|r| Runs::of(8 * r..8 * r + 8)).collect();
        let whole = |r: usize| std::slice::from_ref(&spaces[r]);
        let err = run_overlap(&mut m, &shifts, &margins, &whole, &mut Failing).unwrap_err();
        assert_eq!(err.0, "interior failed");
        assert!(m.transport.messages > 0);
        quiesce(&mut m).unwrap();
    }

    #[test]
    fn stencil_margins_mirror_the_backend_eligibility_rules() {
        let grid = ProcGrid::new(&[4]);
        let dad = DadBuilder::new("A", &[32])
            .distribute(&[DistKind::Block])
            .grid(grid.clone())
            .build()
            .unwrap();
        let dm = &dad.dims[0];
        // A compatible loop variable absorbs both shift directions.
        let m = stencil_margins(&[Some(dm)], &[(dm, 1), (dm, -2)]).unwrap();
        let mut interior = Vec::new();
        m.interior(&[Runs::of(0..8)], &mut interior);
        assert_eq!(interior, vec![Runs::of(2..7)]);
        // No owner-computes variable → ineligible.
        assert!(stencil_margins(&[None], &[(dm, 1)]).is_none());
        // A replicated (undistributed) shifted dimension is ineligible
        // too: dims_overlap_compatible requires a grid axis.
        let repl = DadBuilder::new("R", &[32]).build().unwrap();
        assert!(stencil_margins(&[Some(dm)], &[(&repl.dims[0], 1)]).is_none());
    }

    #[test]
    fn slab_kept_dims_pads_rank_one_sources() {
        assert_eq!(slab_kept_dims(2, 0), Some(vec![1]));
        assert_eq!(slab_kept_dims(3, 1), Some(vec![0, 2]));
        // Rank-1 source: the dropped dim is the only dim — consumers
        // must read the padded extent-1 dummy dimension at zero.
        assert_eq!(slab_kept_dims(1, 0), None);
    }
}
