//! The run-time half of the statement layer: every operation of a node
//! program whose body does not depend on *how* an expression is
//! evaluated.
//!
//! The [`Engine`](crate::engine::Engine) evaluates a statement's
//! operands — [`CommStmt::try_map`] / [`RtCall::try_map`] with
//! `E = Value` — and then calls the plain functions here: collective and
//! runtime-library dispatch (including the REDISTRIBUTE descriptor
//! swap), array allocation, owner-filter activation and the paper's
//! `set_BOUND` iteration partitioning, split-phase overlap eligibility,
//! and the scalar-context element accesses. Every function works on the
//! live array table, a `[DistArray]` indexed by [`ArrId`] — the
//! `(array, DAD)` pairs the paper's generated code hands its run-time.

use std::ops::Range;

use f90d_comm::driver::{self, GhostSpec};
use f90d_comm::helpers::tree_broadcast;
use f90d_comm::op::CommError;
use f90d_comm::overlap::Margins;
use f90d_comm::reduce::ReduceOp;
use f90d_comm::schedule::SEGMENT_LIMIT;
use f90d_comm::{redist, structured, RunSchedules};
use f90d_distrib::{owned_cells, ArrayDimMap, DistKind, Progression, Runs};
use f90d_machine::{ArrayData, ElemType, LocalArray, Machine, Value};
use f90d_runtime::intrinsics as rt;
use f90d_runtime::DistArray;

use crate::bind::MAX_VARS;
use crate::stmt::{ArrId, ArrayDecl, CommStmt, Partition, ReduceKind, RtCall};

/// Execution error (runtime faults in the compiled program).
#[derive(Debug, Clone)]
pub struct VmError(pub String);

impl std::fmt::Display for VmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl std::error::Error for VmError {}

impl From<CommError> for VmError {
    fn from(e: CommError) -> Self {
        VmError(e.0)
    }
}

/// Result of a statement-layer operation.
pub type VmResult<T> = Result<T, VmError>;

/// Result of one execution.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Modelled elapsed time (seconds on the simulated machine).
    pub elapsed: f64,
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent.
    pub bytes: u64,
    /// Collected PRINT output.
    pub printed: Vec<String>,
}

/// End a run: the transport quiescence check — leaked in-flight
/// messages or never-completed posted receives surface as an error
/// instead of being silently dropped — then the report.
pub fn finish_run(m: &mut Machine, printed: Vec<String>) -> VmResult<RunReport> {
    driver::quiesce(m)?;
    Ok(RunReport {
        elapsed: m.elapsed(),
        messages: m.transport.messages,
        bytes: m.transport.bytes,
        printed,
    })
}

/// Allocate every declared array on the machine (lazily materialized
/// segments, symmetric ghost cells on distributed dimensions) and return
/// the live array table. With `keep_existing`, arrays already present on
/// the machine keep their segments — running a program fragment over
/// state produced by an earlier fragment.
///
/// A declaration whose rank segment, ghost cells included, holds 2^32
/// elements or more is refused before any array is placed: every
/// element-wise plan stores its offsets in 32 bits
/// ([`SEGMENT_LIMIT`]).
pub fn allocate(
    m: &mut Machine,
    grid_shape: &[i64],
    decls: &[ArrayDecl],
    keep_existing: bool,
) -> VmResult<Vec<DistArray>> {
    if !keep_existing {
        assert_eq!(
            m.grid.shape, grid_shape,
            "machine grid must match the compiled grid"
        );
    }
    let placed = |decl: &ArrayDecl| !(keep_existing && m.mems[0].has_array(&decl.name));
    let segments: Vec<_> = (decls.iter().filter(|d| placed(d)))
        .map(|decl| {
            let shape = decl.dad.local_shape();
            let ghost: Vec<i64> = (decl.dad.dims.iter())
                .map(|d| if d.is_distributed() { decl.ghost } else { 0 })
                .collect();
            let len = (shape.iter().zip(&ghost)).try_fold(1u64, |n, (&s, &g)| {
                let padded = s.checked_add(g.checked_mul(2)?)?;
                n.checked_mul(u64::try_from(padded).ok()?)
            });
            match len {
                Some(len) if len < SEGMENT_LIMIT => Ok((decl, shape, ghost)),
                _ => Err(VmError(format!(
                    "array {} needs a rank segment of {} elements (ghost cells included); \
                     a segment holds fewer than 2^32",
                    decl.name,
                    len.map_or("2^64 or more".into(), |n| n.to_string()),
                ))),
            }
        })
        .collect::<VmResult<_>>()?;
    for (decl, shape, ghost) in segments {
        for mem in &mut m.mems {
            mem.insert_array(
                decl.name.clone(),
                LocalArray::with_ghost_lazy(decl.ty, &shape, &ghost, &ghost),
            );
        }
    }
    Ok(decls
        .iter()
        .map(|d| DistArray {
            name: d.name.clone(),
            dad: d.dad.clone(),
            ty: d.ty,
        })
        .collect())
}

/// Scalar-context read of element `g` of `a` from its first owner:
/// `(owner rank, value)`.
pub fn read_elem(m: &Machine, a: &DistArray, g: &[i64]) -> VmResult<(i64, Value)> {
    driver::check_bounds(&a.name, &a.dad, g)?;
    let owner = a.dad.owner_ranks(g)[0];
    let v = m.mems[owner as usize]
        .array(&a.name)
        .get(&a.dad.local_index(g));
    Ok((owner, v))
}

/// Element assignment executed by the owners (`A(3) = …`), charging
/// each of them `cost` element operations.
pub fn owner_assign(
    m: &mut Machine,
    a: &DistArray,
    g: &[i64],
    v: Value,
    cost: i64,
) -> VmResult<()> {
    driver::check_bounds(&a.name, &a.dad, g)?;
    let l = a.dad.local_index(g);
    for rank in a.dad.owner_ranks(g) {
        m.mems[rank as usize].array_mut(&a.name).set(&l, v);
        m.transport.charge_elem_ops(rank, cost);
    }
    Ok(())
}

/// Execute one collective call whose operands are already evaluated;
/// the two shift primitives and the multicast replay from the run's
/// plans in `rs`.
/// Returns the value to store into the call's scalar target
/// ([`CommStmt::target`]), if it has one.
pub fn exec_comm(
    m: &mut Machine,
    arrays: &[DistArray],
    rs: &mut RunSchedules,
    c: &CommStmt<Value, ()>,
) -> VmResult<Option<Value>> {
    match c {
        CommStmt::Multicast {
            src,
            tmp,
            dim,
            src_g,
        } => {
            let (a, g) = (&arrays[*src], src_g.as_int());
            driver::check_dim(&a.name, &a.dad, *dim, g)?;
            driver::multicast(m, rs, &a.name, &a.dad, &arrays[*tmp].name, *dim, g)?;
        }
        CommStmt::Transfer {
            src,
            tmp,
            dim,
            src_g,
            dst_g,
            dst_arr,
            dst_dim,
        } => {
            let (a, d) = (&arrays[*src], &arrays[*dst_arr]);
            let (sg, dg) = (src_g.as_int(), dst_g.as_int());
            driver::check_dim(&a.name, &a.dad, *dim, sg)?;
            driver::check_dim(&d.name, &d.dad, *dst_dim, dg)?;
            let dst_coord = d.dad.dims[*dst_dim].proc_of(dg);
            structured::transfer(m, &a.name, &a.dad, &arrays[*tmp].name, *dim, sg, dst_coord)?;
        }
        CommStmt::OverlapShift { arr, dim, c } => {
            let a = &arrays[*arr];
            if ghosted(a, *dim)? {
                driver::ghost_exchange(m, rs, &a.name, &a.dad, *dim, *c)?;
            }
        }
        CommStmt::TempShift {
            src,
            tmp,
            dim,
            amount,
        } => {
            let (a, tmp) = (&arrays[*src], &arrays[*tmp].name);
            driver::temporary_shift(m, rs, &a.name, &a.dad, tmp, *dim, amount.as_int())?;
        }
        CommStmt::MulticastShift {
            src,
            tmp,
            mdim,
            src_g,
            sdim,
            amount,
        } => {
            let (a, g) = (&arrays[*src], src_g.as_int());
            driver::check_dim(&a.name, &a.dad, *mdim, g)?;
            let (tmp, s) = (&arrays[*tmp].name, amount.as_int());
            structured::multicast_shift(m, &a.name, &a.dad, tmp, *mdim, g, *sdim, s)?;
        }
        CommStmt::Concat { src, tmp } => {
            let a = &arrays[*src];
            structured::concatenation(m, &a.name, &a.dad, &arrays[*tmp].name)?;
        }
        CommStmt::BroadcastElem { arr, subs, .. } => {
            let g: Vec<i64> = subs.iter().map(|v| v.as_int()).collect();
            let (owner, v) = read_elem(m, &arrays[*arr], &g)?;
            // Tree broadcast of one element to all ranks.
            let members: Vec<i64> = (0..m.nranks()).collect();
            let mut payload = ArrayData::zeros(v.elem_type(), 1);
            payload.set(0, v);
            m.stats.record(c.name());
            tree_broadcast(m, &members, owner as usize, payload, |_, _, _| {})?;
            return Ok(Some(v));
        }
        CommStmt::ReduceScalar {
            kind, arr, arr2, ..
        } => {
            let a = &arrays[*arr];
            // An INTEGER operand reduces exactly, to an INTEGER.
            let mut int = |op| Value::Int(rt::reduce_int(m, a, op));
            let v = match kind {
                ReduceKind::Sum if a.ty == ElemType::Int => int(ReduceOp::Sum),
                ReduceKind::Product if a.ty == ElemType::Int => int(ReduceOp::Prod),
                ReduceKind::MaxVal if a.ty == ElemType::Int => int(ReduceOp::Max),
                ReduceKind::MinVal if a.ty == ElemType::Int => int(ReduceOp::Min),
                ReduceKind::Sum => Value::Real(rt::sum(m, a)),
                ReduceKind::Product => Value::Real(rt::product(m, a)),
                ReduceKind::MaxVal => Value::Real(rt::maxval(m, a)),
                ReduceKind::MinVal => Value::Real(rt::minval(m, a)),
                ReduceKind::Count => Value::Int(rt::count(m, a)),
                ReduceKind::All => Value::Bool(rt::all(m, a)),
                ReduceKind::Any => Value::Bool(rt::any(m, a)),
                ReduceKind::DotProduct => {
                    let b = &arrays[arr2.expect("dotproduct second operand")];
                    Value::Real(rt::dotproduct(m, a, b))
                }
            };
            return Ok(Some(v));
        }
    }
    Ok(None)
}

/// Execute one runtime-library call whose operands are already
/// evaluated. REDISTRIBUTE replaces the array's live descriptor and its
/// segments, which keep the declared overlap width (`decls`, the
/// program's array table) on whatever dimensions are distributed now.
pub fn exec_runtime(
    m: &mut Machine,
    arrays: &mut [DistArray],
    decls: &[ArrayDecl],
    call: &RtCall<Value>,
) -> VmResult<()> {
    match call {
        RtCall::CShift {
            src,
            dst,
            dim,
            shift,
        } => rt::cshift(m, &arrays[*src], &arrays[*dst], *dim, shift.as_int()),
        RtCall::EoShift {
            src,
            dst,
            dim,
            shift,
            boundary,
        } => {
            let (a, b) = (&arrays[*src], &arrays[*dst]);
            rt::eoshift(m, a, b, *dim, shift.as_int(), *boundary)
        }
        RtCall::Transpose { src, dst } => rt::transpose(m, &arrays[*src], &arrays[*dst]),
        RtCall::Matmul { a, b, c } => {
            rt::matmul(m, &arrays[*a], &arrays[*b], &arrays[*c]);
        }
        RtCall::Redistribute { arr, new_dad } => {
            let old = &arrays[*arr];
            let mut nd = new_dad.clone();
            nd.name = old.name.clone();
            let ghost = decls[*arr].ghost;
            let staged =
                DistArray::from_dad(m, format!("__REDIST_{}", old.name), old.ty, nd, ghost);
            redist::redistribute(m, &old.name, &old.dad, &staged.name, &staged.dad)?;
            // Move staged segments under the original name.
            for mem in &mut m.mems {
                let seg = mem.remove_array(&staged.name).expect("staging allocated");
                mem.insert_array(old.name.clone(), seg);
            }
            arrays[*arr].dad = staged.dad;
        }
        RtCall::RemapCopy { src, dst } => {
            let (s, d) = (&arrays[*src], &arrays[*dst]);
            redist::redistribute(m, &s.name, &s.dad, &d.name, &d.dad)?;
        }
    }
    Ok(())
}

/// The trip count of `lb..=ub` step `st` (`lb <= ub`, `st > 0`) and its
/// last iterate, exact however far apart the bounds lie (a span past
/// `i64::MAX` is legal): `ub` itself need not lie on the stride, but
/// the template progression of an `OwnerDim` variable is anchored at
/// whichever end maps lowest — with a negative subscript or alignment
/// stride, that is the last iterate. `lb + k·st` wraps to the exact
/// iterate, which fits.
fn trips([lb, ub, st]: [i64; 3]) -> (u128, i64) {
    let count = u128::from(ub.abs_diff(lb) / st as u64) + 1;
    (
        count,
        lb.wrapping_add(((count - 1) as i64).wrapping_mul(st)),
    )
}

/// The template progression `t(v) = s·v + o` of the LHS subscript
/// `a·v + b` on an array dimension: `(s, o)`, exact.
fn template_form(dm: &ArrayDimMap, a: i64, b: i64) -> (i128, i128) {
    let (stride, offset) = (i128::from(dm.align.stride), i128::from(dm.align.offset));
    (stride * i128::from(a), stride * i128::from(b) + offset)
}

/// The iterations of one FORALL variable over `lb..=ub` step `st`
/// (`lb <= ub`, at most `usize::MAX` trips) on the rank at grid
/// coordinates `coords` of `nranks` — the `set_BOUND` computation
/// (paper §4) — as the ascending maximal progressions of their
/// **global** values: the LHS cells `set_BOUND` gives the rank
/// ([`owned_cells`], its runs before `μ`) taken back to iterations run
/// by run. Its cost does not grow with the trip count but for
/// CYCLIC(K), where it grows with the cycle blocks the loop touches.
fn runs_at(
    part: &Partition,
    [lb, ub, st]: [i64; 3],
    arrays: &[DistArray],
    nranks: i64,
    rank: i64,
    coords: &[i64],
) -> Runs {
    let (count, ub) = trips([lb, ub, st]);
    let at = |k: u128| lb.wrapping_add((k as i64).wrapping_mul(st));
    let all = || Runs::one(Progression::new(lb, st, count as usize));
    match part {
        Partition::Replicate => all(),
        Partition::BlockIter => {
            let chunk = count.div_ceil(nranks as u128);
            let first = rank as u128 * chunk;
            let last = ((rank as u128 + 1) * chunk).min(count);
            if first < last {
                Runs::one(Progression::new(at(first), st, (last - first) as usize))
            } else {
                Runs::EMPTY
            }
        }
        Partition::OwnerDim { arr, dim, a, b } => {
            let dm = &arrays[*arr].dad.dims[*dim];
            if !dm.is_distributed() {
                return all();
            }
            let coord = coords[dm.grid_axis.unwrap()];
            // Template coordinates of iterations anywhere in `i64` need
            // not fit one: the arithmetic is in `i128`, and what reaches
            // `owned_cells` saturates, as it clamps to the extent anyway.
            let (s, o) = template_form(dm, *a, *b);
            let (lb, ub, st) = (i128::from(lb), i128::from(ub), i128::from(st));
            let (t1, t2) = (s * lb + o, s * ub + o);
            let sat = |t: i128| t.clamp(i64::MIN.into(), i64::MAX.into()) as i64;
            let cells = owned_cells(
                &dm.dist,
                coord,
                sat(t1.min(t2)),
                sat(t1.max(t2)),
                sat((s * st).abs()),
            );
            let mut runs = Runs::EMPTY;
            // The iterations whose LHS element sits in the cells `c`:
            // `t⁻¹`, affine. The cells step by a whole number of the
            // template progression's steps `|s·st|`, so a step of them
            // is a whole number of the loop's steps: all of them are on
            // the loop's progression, or none — and then every one is an
            // iteration, in `lb..=ub`.
            let mut piece = |c: &Progression| {
                let dv = i128::from(c.stride) / s;
                let num = i128::from(c.first) - o;
                let v0 = num / s;
                if num % s != 0 || (v0 - lb) % st != 0 {
                    return;
                }
                // Ascending cells are descending iterations under a
                // negative template stride.
                let n = c.len as i128;
                let (first, step) = if dv >= 0 {
                    (v0, dv)
                } else {
                    (v0 + (n - 1) * dv, -dv)
                };
                let p = Progression::new(first as i64, step as i64, c.len);
                runs.extend(p.within(lb as i64, ub as i64));
            };
            if s > 0 {
                cells.runs().iter().for_each(&mut piece);
            } else {
                cells.runs().iter().rev().for_each(&mut piece);
            }
            runs
        }
    }
}

/// The grid coordinates along one axis that can own an iteration of a
/// BLOCK `OwnerDim` variable over `bounds` (`lb <= ub`): `(axis,
/// first..last + 1)`, `proc_of` at the two ends of the variable's
/// template progression, clamped to the template as `set_bound` clamps
/// it — BLOCK's `μ` is monotone, so every coordinate outside owns no
/// cell the progression reaches. `None` when the variable bounds no
/// axis: a replicated one, a `BlockIter` share, and CYCLIC and
/// BLOCK-CYCLIC, whose owners wrap round the whole axis.
fn owner_window(
    part: &Partition,
    bounds: [i64; 3],
    arrays: &[DistArray],
) -> Option<(usize, Range<i64>)> {
    let Partition::OwnerDim { arr, dim, a, b } = part else {
        return None;
    };
    let dm = &arrays[*arr].dad.dims[*dim];
    if !dm.is_distributed() || dm.dist.kind != DistKind::Block {
        return None;
    }
    let (s, o) = template_form(dm, *a, *b);
    let [lb, last] = [bounds[0], trips(bounds).1].map(i128::from);
    let (t1, t2) = (s * lb + o, s * last + o);
    let (lo, hi) = (
        t1.min(t2).max(0),
        t1.max(t2).min(dm.dist.extent as i128 - 1),
    );
    let window = if lo <= hi {
        dm.dist.proc_of(lo as i64)..dm.dist.proc_of(hi as i64) + 1
    } else {
        0..0
    };
    Some((dm.grid_axis.unwrap(), window))
}

/// One FORALL execution's iteration spaces, by rank: a rank's space is
/// one [`Runs`] per variable, and a rank that runs nothing has none.
#[derive(Debug, Default)]
pub struct RankSpaces {
    nvars: usize,
    /// Per rank, where its space starts in `vars` ([`RankSpaces::IDLE`]:
    /// it has none).
    at: Vec<u32>,
    /// The spaces of the ranks that run, one after another.
    vars: Vec<Runs>,
}

impl RankSpaces {
    const IDLE: u32 = u32::MAX;

    /// Rank `rank`'s space: empty when it runs nothing, one non-empty
    /// [`Runs`] per variable otherwise.
    pub fn space(&self, rank: usize) -> &[Runs] {
        match self.at[rank] {
            Self::IDLE => &[],
            at => &self.vars[at as usize..at as usize + self.nvars],
        }
    }

    /// How many ranks run something.
    pub fn active(&self) -> usize {
        self.vars.len().checked_div(self.nvars).unwrap_or(0)
    }
}

/// What [`iteration_spaces`] partitioned: the spaces, and how many ranks
/// it did per-rank work for.
#[derive(Debug)]
pub struct Dispatched {
    /// The per-rank spaces.
    pub spaces: RankSpaces,
    /// Ranks whose grid coordinates lay inside the window of ranks that
    /// can own an iteration, and so were partitioned (`set_BOUND`) at
    /// all. A rank outside it costs nothing.
    pub visited: u64,
}

/// The bounds check of an unmasked FORALL's owned write, before it is
/// partitioned: every variable partitioned through a subscript `a·v + b`
/// of the written array (`Partition::OwnerDim`) must keep that
/// subscript inside the dimension's extent over its whole progression.
/// `set_BOUND` clamps a range to the extent, so without this check the
/// iterations outside it would silently not run. The image of a
/// progression is a progression, so the first violating iterate of a
/// variable costs O(1); the error is the element loops' for the first
/// violating iteration in FORALL order (outer variables first). A
/// non-positive stride or an empty range is left to
/// [`iteration_spaces`]. A masked FORALL is not checked here: its mask
/// may exclude exactly the violating iterations.
pub fn check_writes(arrays: &[DistArray], loops: &[(&Partition, [i64; 3])]) -> VmResult<()> {
    if loops.iter().any(|(_, [lb, ub, st])| *st <= 0 || lb > ub) {
        return Ok(());
    }
    // Per violating variable, in order: (first violating trip, array,
    // dimension, subscript there).
    let mut first: Option<(u128, ArrId, usize, i128)> = None;
    for &(part, bounds) in loops {
        let Partition::OwnerDim { arr, dim, a, b } = *part else {
            continue;
        };
        let extent = i128::from(arrays[arr].dad.dims[dim].extent);
        let (count, _) = trips(bounds);
        let u0 = i128::from(a) * i128::from(bounds[0]) + i128::from(b);
        let du = i128::from(a) * i128::from(bounds[2]);
        // The first trip `k` whose subscript `u0 + k·du` leaves `0..extent`.
        let ceil = |n: i128, d: i128| (n + d - 1) / d;
        let k = match () {
            _ if !(0..extent).contains(&u0) => 0,
            _ if du > 0 => ceil(extent - u0, du),
            _ if du < 0 => ceil(u0 + 1, -du),
            _ => continue,
        };
        let k = k as u128;
        if k >= count {
            continue;
        }
        let g = u0 + k as i128 * du;
        // A variable violating at its first trip makes the first iteration
        // violate (the lowest such dimension is the one reported);
        // otherwise the innermost violating variable's first violation,
        // every other variable at its first trip, comes first.
        first = match first {
            Some(at @ (0, _, d, _)) if k > 0 || d <= dim => Some(at),
            _ => Some((k, arr, dim, g)),
        };
    }
    let Some((_, arr, dim, g)) = first else {
        return Ok(());
    };
    let a = &arrays[arr];
    let extent = a.dad.dims[dim].extent;
    Err(VmError(format!(
        "subscript {} out of bounds on dim {dim} of {} (extent {extent})",
        g + 1,
        a.name
    )))
}

/// Partition one FORALL execution over the ranks (`set_BOUND`, paper
/// §4): `loops` pairs each variable's partition with its evaluated
/// `[lb, ub, st]`; `owner_filter` holds the evaluated fixed LHS indices
/// `(arr, dim, index)` — only ranks owning `index` on `dim` take part.
///
/// Inactive processors are masked before any per-rank work: the bounds
/// and the filter give, per grid axis, the window of coordinates that
/// can own an iteration (`owner_window`, the filter's one coordinate),
/// and only the ranks at the coordinates inside every window
/// (`ProcGrid::rank_of`, so under any embedding) are partitioned. Every
/// other rank — and a visited one one of whose variables comes out
/// empty — gets no space and runs nothing. A visited rank costs
/// O(variables): a variable's values are progressions, never listed.
pub fn iteration_spaces(
    m: &Machine,
    arrays: &[DistArray],
    loops: &[(&Partition, [i64; 3])],
    owner_filter: &[(ArrId, usize, i64)],
) -> VmResult<Dispatched> {
    if loops.iter().any(|(_, [_, _, st])| *st <= 0) {
        return Err(VmError("FORALL stride must be positive".into()));
    }
    let nranks = m.nranks();
    let mut windows: Vec<Range<i64>> = m.grid.shape.iter().map(|&e| 0..e).collect();
    let mut narrow = |axis: usize, w: Range<i64>| {
        let have = &mut windows[axis];
        *have = have.start.max(w.start)..have.end.min(w.end);
    };
    for &(arr, dim, g) in owner_filter {
        let a = &arrays[arr];
        driver::check_dim(&a.name, &a.dad, dim, g)?;
        let dm = &a.dad.dims[dim];
        let owner = dm.proc_of(g);
        narrow(
            dm.grid_axis.expect("owner filter on distributed dim"),
            owner..owner + 1,
        );
    }
    let mut out = Dispatched {
        spaces: RankSpaces {
            nvars: loops.len(),
            at: vec![RankSpaces::IDLE; nranks as usize],
            vars: Vec::new(),
        },
        visited: 0,
    };
    if loops.iter().any(|(_, [lb, ub, _])| lb > ub) {
        return Ok(out);
    }
    if loops
        .iter()
        .any(|&(_, bounds)| trips(bounds).0 > usize::MAX as u128)
    {
        return Err(VmError(
            "FORALL trip count exceeds the address space".into(),
        ));
    }
    for &(part, bounds) in loops {
        if let Some((axis, w)) = owner_window(part, bounds, arrays) {
            narrow(axis, w);
        }
    }
    if windows.iter().any(Range::is_empty) {
        return Ok(out);
    }
    let ranks: usize = windows.iter().map(|w| (w.end - w.start) as usize).product();
    let spaces = &mut out.spaces;
    spaces.vars.reserve(ranks * loops.len());
    // Every grid coordinate inside the windows, the last axis fastest.
    let mut coords: Vec<i64> = windows.iter().map(|w| w.start).collect();
    'ranks: loop {
        out.visited += 1;
        let rank = m.grid.rank_of(&coords);
        let at = spaces.vars.len();
        spaces.vars.resize(at + loops.len(), Runs::EMPTY);
        for (k, &(part, bounds)) in loops.iter().enumerate() {
            let runs = runs_at(part, bounds, arrays, nranks, rank, &coords);
            if runs.is_empty() {
                spaces.vars.truncate(at);
                break;
            }
            spaces.vars[at + k] = runs;
        }
        if spaces.vars.len() > at {
            spaces.at[rank as usize] = at as u32;
        }
        for axis in (0..coords.len()).rev() {
            coords[axis] += 1;
            if coords[axis] < windows[axis].end {
                continue 'ranks;
            }
            coords[axis] = windows[axis].start;
        }
        break;
    }
    Ok(out)
}

/// The ghost exchanges of an `overlap_shift` prelude
/// ([`CommStmt::as_overlap_shift`] triples) planned against the live
/// descriptors — or found planned in `rs` — as the comm driver's phase
/// batching and split-phase overlap take them.
pub fn ghost_specs(
    m: &Machine,
    rs: &mut RunSchedules,
    arrays: &[DistArray],
    shifts: &[(ArrId, usize, i64)],
) -> VmResult<Vec<GhostSpec>> {
    let mut specs = Vec::with_capacity(shifts.len());
    for &(arr, dim, c) in shifts {
        let a = &arrays[arr];
        if ghosted(a, dim)? {
            specs.push(GhostSpec::new(m, rs, &a.name, &a.dad, dim, c));
        }
    }
    Ok(specs)
}

/// Whether an `overlap_shift` of `a` along `dim` has ghost cells to fill
/// under the live layout: a BLOCK dimension has, a local one needs none.
/// One a REDISTRIBUTE left CYCLIC has none at all, and the statement,
/// compiled to read the shifted elements from them, cannot run.
fn ghosted(a: &DistArray, dim: usize) -> VmResult<bool> {
    let d = &a.dad.dims[dim];
    match d.dist.kind {
        _ if d.grid_axis.is_none() => Ok(false),
        DistKind::Block => Ok(true),
        kind => Err(VmError(format!(
            "overlap_shift of {} along dimension {dim} needs the BLOCK layout it was compiled \
             for, not {kind:?}",
            a.name
        ))),
    }
}

/// Decide whether a FORALL is eligible for split-phase execution under
/// `comm_compute_overlap`, and compute its ghost exchanges and the
/// per-loop-variable ghost margins if so.
///
/// The caller has established that the communication prelude is pure
/// `overlap_shift` (`shifts` — the canonical BLOCK stencil case the
/// paper's §5.1 overlap areas serve) and that the FORALL has no
/// unstructured gathers, no owner filter and owned writes only.
/// Eligible then: the prelude is non-empty and every shifted dimension
/// maps onto a stride-1 `OwnerDim` loop variable per the shared
/// [`driver::stencil_margins`] geometry — that identity is what makes
/// "iteration value within the owned block interior" imply "every
/// shifted read stays owned". Anything else falls back to the blocking
/// path (correct for every program; overlap is a pure virtual-time
/// optimization).
pub fn overlap_plan<'a>(
    m: &Machine,
    rs: &mut RunSchedules,
    arrays: &[DistArray],
    shifts: &[(ArrId, usize, i64)],
    parts: impl Iterator<Item = &'a Partition>,
) -> Option<(Vec<GhostSpec>, Margins)> {
    if shifts.is_empty() {
        return None;
    }
    let loop_dims: Vec<Option<&ArrayDimMap>> = parts
        .map(|part| match part {
            Partition::OwnerDim { arr, dim, a: 1, .. } => Some(&arrays[*arr].dad.dims[*dim]),
            _ => None,
        })
        .collect();
    let shift_dims: Vec<(&ArrayDimMap, i64)> = shifts
        .iter()
        .map(|&(arr, dim, c)| (&arrays[arr].dad.dims[dim], c))
        .collect();
    let margins = driver::stencil_margins(&loop_dims, &shift_dims)?;
    Some((ghost_specs(m, rs, arrays, shifts).ok()?, margins))
}

/// A FORALL's iteration spaces over the rest of a run of an enclosing
/// `DO` (ROADMAP 6(a)), derived from the spaces [`iteration_spaces`]
/// partitioned at one step: every later step is instantiated in
/// O(ranks × variables) with no `set_BOUND` call ([`SpacePlan::at`]).
///
/// A plan exists only when every variable's partition gives a rank the
/// iterations `[max(lb, L), min(ub, U)]` at unit stride — `L..=U` the
/// rank's own share of the variable: everything for a replicated or
/// undistributed one, its block under BLOCK at a template stride of ±1 —
/// and the bounds move inwards (`lb` never decreasing, `ub` never
/// increasing) with the DO step. Then a rank idle at the first step is
/// idle at every later one, and an active rank's ends are a maximum and
/// a minimum of affine forms of the step: affine between breakpoints
/// where `lb` or `ub` crosses `L` or `U` ([`SpacePlan::until`]).
#[derive(Debug)]
pub struct SpacePlan {
    nranks: usize,
    /// Per variable: `lb`, its change per step, `ub`, its change.
    bounds: Vec<[i64; 4]>,
    /// The ranks active at the first step, ascending.
    ranks: Vec<u32>,
    /// Per such rank, per variable: its own share `(L, U)`.
    own: Vec<(i64, i64)>,
}

impl SpacePlan {
    /// The plan from `spaces`, the spaces [`iteration_spaces`] partitioned
    /// for the bounds `loops`, whose `lb` and `ub` change by `slopes` per
    /// DO step, for `last` more steps. `None` when a partition or a slope
    /// is not of the kind above, or a bound would leave `i64` within
    /// those steps (where the evaluated bounds wrap, they are no longer
    /// affine in the step).
    pub fn new(
        m: &Machine,
        arrays: &[DistArray],
        loops: &[(&Partition, [i64; 3])],
        slopes: &[[i64; 2]],
        spaces: &RankSpaces,
        last: i64,
    ) -> Option<SpacePlan> {
        let inwards = slopes.iter().all(|&[dlb, dub]| dlb >= 0 && dub <= 0);
        let unit = loops.iter().all(|(_, [_, _, st])| *st == 1);
        if !inwards || !unit || slopes.len() != loops.len() || loops.len() > MAX_VARS {
            return None;
        }
        let fits = |bound: i64, slope: i64| {
            let end = i128::from(bound) + i128::from(slope) * i128::from(last);
            i64::try_from(end).is_ok()
        };
        let in_range = (loops.iter().zip(slopes))
            .all(|(&(_, [lb, ub, _]), &[dlb, dub])| fits(lb, dlb) && fits(ub, dub));
        if !in_range || last < 0 {
            return None;
        }
        // Every partition's kind before anything is allocated: a
        // `DO` asks again at every trip of a loop this refuses.
        let mut shares = [OwnShare::All; MAX_VARS];
        for (share, (part, _)) in shares.iter_mut().zip(loops) {
            *share = OwnShare::of(part, arrays)?;
        }
        let nranks = m.nranks() as usize;
        let bounds = (loops.iter().zip(slopes))
            .map(|(&(_, [lb, ub, _]), &[dlb, dub])| [lb, dlb, ub, dub])
            .collect();
        let mut plan = SpacePlan {
            nranks,
            bounds,
            ranks: Vec::with_capacity(spaces.active()),
            own: Vec::with_capacity(spaces.active() * loops.len()),
        };
        for rank in (0..nranks).filter(|&r| !spaces.space(r).is_empty()) {
            let coords = m.grid.coords_of(rank as i64);
            plan.ranks.push(rank as u32);
            for (j, (share, &(_, [lb, ub, _]))) in shares.iter().zip(loops).enumerate() {
                let (lo, hi) = share.at(&coords)?;
                // The share must be what `set_BOUND` partitioned.
                let run = unit_run(lb.max(lo), ub.min(hi));
                if spaces.space(rank)[j] != Runs::one(run) {
                    return None;
                }
                plan.own.push((lo, hi));
            }
        }
        Some(plan)
    }

    /// How many variables.
    pub fn nvars(&self) -> usize {
        self.bounds.len()
    }

    /// How many ranks were active at the first step.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// Whether no rank was.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Rank `h` of those active at the first step, ascending.
    pub fn rank(&self, h: usize) -> usize {
        self.ranks[h] as usize
    }

    /// The bounds `(lb, ub)` of variable `j` at step `t`.
    fn bounds(&self, j: usize, t: i64) -> (i64, i64) {
        let [lb, dlb, ub, dub] = self.bounds[j];
        (lb + dlb * t, ub + dub * t)
    }

    /// Rank `h`'s share of variable `j`.
    fn own(&self, h: usize) -> &[(i64, i64)] {
        &self.own[h * self.bounds.len()..(h + 1) * self.bounds.len()]
    }

    /// Rank `h`'s least and greatest value of each variable at step `t`,
    /// into `lo` and `hi`: `false` when it has no iteration.
    pub fn corners(&self, h: usize, t: i64, lo: &mut [i64], hi: &mut [i64]) -> bool {
        for (j, &(own_lo, own_hi)) in self.own(h).iter().enumerate() {
            let (lb, ub) = self.bounds(j, t);
            (lo[j], hi[j]) = (lb.max(own_lo), ub.min(own_hi));
            if lo[j] > hi[j] {
                return false;
            }
        }
        true
    }

    /// The spaces at step `t` (`0..=last`).
    pub fn at(&self, t: i64) -> Dispatched {
        let mut spaces = RankSpaces::default();
        let visited = self.fill(t, &mut spaces);
        Dispatched { spaces, visited }
    }

    /// [`SpacePlan::at`] into the tables of `spaces`; returns how many
    /// ranks are active.
    pub fn fill(&self, t: i64, spaces: &mut RankSpaces) -> u64 {
        // The bounds only narrow, so the write check ([`check_writes`])
        // of the step the plan was derived from covers step `t`.
        debug_assert!((0..self.bounds.len()).all(|j| {
            let (lb, ub) = self.bounds(j, t);
            lb >= self.bounds[j][0] && ub <= self.bounds[j][2]
        }));
        spaces.nvars = self.bounds.len();
        spaces.at.clear();
        spaces.at.resize(self.nranks, RankSpaces::IDLE);
        spaces.vars.clear();
        spaces.vars.reserve(self.ranks.len() * self.bounds.len());
        for (h, &rank) in self.ranks.iter().enumerate() {
            let at = spaces.vars.len() as u32;
            if self.push_space(h, t, &mut spaces.vars) {
                spaces.at[rank as usize] = at;
            }
        }
        spaces.active() as u64
    }

    /// Rank `h`'s iteration space at step `t`, one run per variable,
    /// pushed onto `runs`: `false`, and nothing pushed, when it has no
    /// iteration there.
    pub fn push_space(&self, h: usize, t: i64, runs: &mut Vec<Runs>) -> bool {
        let (mut lo, mut hi) = ([0; MAX_VARS], [0; MAX_VARS]);
        let active = self.corners(h, t, &mut lo, &mut hi);
        if active {
            let ends = lo.iter().zip(&hi).take(self.bounds.len());
            runs.extend(ends.map(|(&lo, &hi)| Runs::one(unit_run(lo, hi))));
        }
        active
    }

    /// The last step, from step `t` on (rank `h` active there), up to
    /// which each of rank `h`'s ends keeps the form it has at `t` — `lb`
    /// or `L`, `ub` or `U` — and the rank has an iteration: its ends are
    /// affine in the step that far.
    pub fn until(&self, h: usize, t: i64) -> i64 {
        let mut until = i64::MAX;
        // The last step at which `from + closing·s <= to`, `s` counted
        // from `t`.
        let mut cap = |from: i64, to: i64, closing: i64| {
            if closing > 0 {
                let s = (i128::from(to) - i128::from(from)) / i128::from(closing);
                until = until.min((i128::from(t) + s).min(i64::MAX.into()) as i64);
            }
        };
        for (j, &(own_lo, own_hi)) in self.own(h).iter().enumerate() {
            let [_, dlb, _, dub] = self.bounds[j];
            let (lb, ub) = self.bounds(j, t);
            let dfirst = if lb < own_lo {
                cap(lb, own_lo, dlb);
                0
            } else {
                dlb
            };
            let dlast = if ub > own_hi {
                cap(own_hi, ub, -dub);
                0
            } else {
                dub
            };
            cap(lb.max(own_lo), ub.min(own_hi), dfirst - dlast);
        }
        until
    }
}

/// `first..=last` (`first <= last`) at unit stride.
fn unit_run(first: i64, last: i64) -> Progression {
    Progression::new(first, 1, last.abs_diff(first) as usize + 1)
}

/// How a variable's iterations are shared out among the ranks, when a
/// rank's share of any bounds `lb..=ub` (unit stride) is `[max(lb, L),
/// min(ub, U)]` for its own `L..=U` ([`OwnShare::at`]): all of them on
/// every rank, replicated or on an undistributed dimension, or a block
/// under BLOCK at a template stride of ±1 (`t(v) = s·v + o`).
#[derive(Debug, Clone, Copy)]
enum OwnShare<'a> {
    All,
    Block {
        dm: &'a ArrayDimMap,
        s: i128,
        o: i128,
    },
}

impl<'a> OwnShare<'a> {
    /// The share of a variable partitioned by `part`; `None` for any
    /// other partition.
    fn of(part: &Partition, arrays: &'a [DistArray]) -> Option<Self> {
        let Partition::OwnerDim { arr, dim, a, b } = part else {
            return matches!(part, Partition::Replicate).then_some(OwnShare::All);
        };
        let dm = &arrays[*arr].dad.dims[*dim];
        if !dm.is_distributed() {
            return Some(OwnShare::All);
        }
        let (s, o) = template_form(dm, *a, *b);
        (dm.dist.kind == DistKind::Block && s.abs() == 1).then_some(OwnShare::Block { dm, s, o })
    }

    /// `L..=U` of the rank at `coords`; `None` when it owns nothing
    /// (never active, so never asked) or the share leaves `i64`.
    fn at(self, coords: &[i64]) -> Option<(i64, i64)> {
        let OwnShare::Block { dm, s, o } = self else {
            return Some((i64::MIN, i64::MAX));
        };
        let coord = coords[dm.grid_axis?];
        let cells = owned_cells(&dm.dist, coord, 0, dm.dist.extent - 1, 1);
        let [cells] = cells.runs() else {
            return None;
        };
        let (lo, hi) = (i128::from(cells.first) - o, i128::from(cells.last()) - o);
        let (lo, hi) = if s == 1 { (lo, hi) } else { (-hi, -lo) };
        // A share past `i64` is left to the per-step partitioning.
        Some((lo.try_into().ok()?, hi.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::{DadBuilder, ProcGrid};

    /// `A(16)` distributed `kind` over 4 ranks.
    fn array(kind: DistKind) -> DistArray {
        let dad = DadBuilder::new("A", &[16])
            .distribute(&[kind])
            .grid(ProcGrid::new(&[4]))
            .build()
            .expect("valid descriptor");
        DistArray {
            name: "A".into(),
            dad,
            ty: ElemType::Real,
        }
    }

    /// Every rank's iterations of `lb..=ub` step `st` under the
    /// subscript `a·v + b`, from [`runs_at`] and from the definition —
    /// the iterations whose element is in bounds and on the rank — in
    /// `i128`, over the 16 elements rather than the trips. Where the
    /// subscript's progression starts below the array, the cases keep
    /// it on a multiple of its step from element 0: `set_BOUND` clamps
    /// its start to 0, and an off-step start skips every iteration.
    fn check(kind: DistKind, a: i64, b: i64, [lb, ub, st]: [i64; 3]) {
        let arrays = [array(kind)];
        let part = Partition::OwnerDim {
            arr: 0,
            dim: 0,
            a,
            b,
        };
        let dm = &arrays[0].dad.dims[0];
        for rank in 0..4 {
            let runs = runs_at(&part, [lb, ub, st], &arrays, 4, rank, &[rank]);
            let mut got: Vec<i64> = runs.values().collect();
            got.sort_unstable();
            let mut want: Vec<i64> = (0..16)
                .filter(|&i| dm.proc_of(i) == rank)
                .filter_map(|i| {
                    let num = i128::from(i) - i128::from(b);
                    let v = num / i128::from(a);
                    let on = num % i128::from(a) == 0
                        && (i128::from(lb)..=i128::from(ub)).contains(&v)
                        && (v - i128::from(lb)) % i128::from(st) == 0;
                    on.then_some(v as i64)
                })
                .collect();
            want.sort_unstable();
            assert_eq!(
                got, want,
                "{kind:?} a={a} b={b} {lb}..={ub}:{st} rank {rank}"
            );
        }
    }

    #[test]
    fn runs_at_is_exact_at_the_ends_of_i64() {
        let kinds = [DistKind::Block, DistKind::Cyclic, DistKind::BlockCyclic(3)];
        for kind in kinds {
            // Bounds a few steps from i64::MIN, the subscript moving
            // them into the array; and the wrapped lower bound of a
            // `DO` near i64::MAX (`I = K+5:N`).
            check(kind, 1, i64::MAX, [i64::MIN, i64::MIN + 20, 1]);
            check(kind, 1, i64::MAX - 3, [i64::MIN + 4, i64::MIN + 30, 3]);
            check(kind, 1, -1, [i64::MIN, 16, 1]);
            check(kind, 1, -1, [i64::MIN + 1, 16, 2]);
            // A few steps from i64::MAX.
            check(kind, 1, -(i64::MAX - 10), [i64::MAX - 25, i64::MAX, 1]);
            check(kind, 1, i64::MIN + 20, [i64::MAX - 7, i64::MAX, 2]);
            // A negative template stride: `-v` of i64::MIN itself does
            // not fit, and the subscript offset is near i64::MAX.
            check(kind, -1, i64::MIN + 12, [i64::MIN, i64::MIN + 9, 1]);
            check(kind, -1, -(i64::MAX - 13), [i64::MAX - 30, i64::MAX, 1]);
            check(kind, -1, 15, [i64::MIN, i64::MAX, 1]);
            check(kind, -2, 14, [i64::MIN + 1, i64::MAX, 1]);
        }
    }

    /// `name(extents)` distributed BLOCK on every dimension over `grid`,
    /// `ghost` cells wide.
    fn decl(name: &str, extents: &[i64], grid: &[i64], ghost: i64) -> ArrayDecl {
        let dad = DadBuilder::new(name, extents)
            .distribute(&vec![DistKind::Block; extents.len()])
            .grid(ProcGrid::new(grid))
            .build()
            .expect("valid descriptor");
        ArrayDecl {
            name: name.into(),
            ty: ElemType::Real,
            dad,
            ghost,
            is_temp: false,
        }
    }

    /// A rank segment, ghost cells included, of 2^32 elements or more
    /// is refused, naming the array and the count — or that the count
    /// passes `u64` — and no array of the program is placed; one of
    /// 2^32 − 1 is allocated (lazily: nothing is materialized).
    #[test]
    fn allocate_refuses_a_segment_past_32_bit_offsets() {
        let limit = 1i64 << 32;
        let mut m = Machine::new(f90d_machine::MachineSpec::ideal(), ProcGrid::new(&[4]));
        let fits = decl("A", &[4 * (limit - 1)], &[4], 0);
        let refusals = [
            (decl("B", &[4 * (limit - 2)], &[4], 1), "4294967296"),
            (decl("C", &[4 * limit], &[4], 0), "4294967296"),
            (decl("D", &[limit, limit, 4], &[1, 1, 4], 0), "2^64 or more"),
        ];
        for (bad, count) in refusals {
            let decls = [fits.clone(), bad];
            let err = allocate(&mut m, &[4], &decls, false).unwrap_err();
            let want = format!(
                "array {} needs a rank segment of {count} elements (ghost cells included); \
                 a segment holds fewer than 2^32",
                decls[1].name
            );
            assert_eq!(err.0, want);
            assert!(!m.mems[0].has_array("A"), "placed before the refusal");
        }
        allocate(&mut m, &[4], &[fits], false).expect("2^32 - 1 elements fit");
        let a = m.mems[3].array("A");
        assert_eq!(a.shape, [limit - 1]);
        assert!(!a.is_materialized());
    }
}
