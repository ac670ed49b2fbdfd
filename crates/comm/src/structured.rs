//! Structured communication primitives (paper §5.1).
//!
//! These exploit the logical-grid relationship between communicating
//! processors, so send/receive sets are implicit — no preprocessing loop
//! is needed. All primitives assume the communicated arrays are aligned to
//! a common template (the condition under which the compiler's detection
//! algorithm emits them, §5.2 Algorithm 1).
//!
//! Conventions shared by `transfer` / `multicast` / `*_shift`:
//!
//! * `dim` names an **array** dimension of the source; its grid axis comes
//!   from the source's [`Dad`].
//! * Slab results (`transfer`, `multicast`) land in a temporary whose rank
//!   is the source rank minus one — the paper's `TMP(I)` — indexed by the
//!   local indices of the remaining dimensions.
//! * Shift results either fill the ghost cells of the array itself
//!   (`overlap_shift`, run by [`crate::driver::ghost_exchange`]) or a
//!   same-shape temporary (`temporary_shift`), indexed so that the local
//!   loop body reads `TMP(i)` for `B(i ± s)`.

use std::ops::Range;

use f90d_distrib::{row_major_strides, Dad, Progression, Runs, Segment};
use f90d_machine::{ArrayData, ElemType, LocalArray, Machine};

use crate::helpers::{
    broadcast_along, exchange, fiber_through, nest_runs, nested_broadcast_plan, tree_broadcast,
    ExchangePlan,
};
use crate::op::CommResult;
use crate::schedule::ElementReq;

/// Allocate (on every node) the slab temporary for `transfer`/`multicast`
/// over dimension `dim` of `dad`: rank `r-1`, shaped by the local
/// allocation of the remaining dimensions.
pub fn alloc_slab_tmp(m: &mut Machine, name: &str, dad: &Dad, dim: usize, ty: ElemType) {
    let shape = slab_shape(dad, dim);
    let shape = if shape.is_empty() { vec![1] } else { shape };
    for mem in &mut m.mems {
        mem.insert_array(name, LocalArray::zeros(ty, &shape));
    }
}

/// Local allocation shape of the slab temporary: `dad`'s without `dim`.
fn slab_shape(dad: &Dad, dim: usize) -> Vec<i64> {
    let mut shape = dad.local_shape();
    shape.remove(dim);
    shape
}

/// Where `dad`'s local index vectors land in the slab temporary over
/// `dim`: row-major over the remaining dimensions, `dim` not moving the
/// offset.
fn slab_segment(dad: &Dad, dim: usize) -> Segment {
    let mut strides = row_major_strides(&slab_shape(dad, dim));
    strides.insert(dim, 0);
    Segment {
        strides,
        bias: vec![0; dad.rank()],
    }
}

/// The elements of `dad` the node at `coords` holds, but along `dim`
/// only `g`: the slab through `g`.
fn slab_sets(dad: &Dad, coords: &[i64], dim: usize, g: i64) -> Vec<Runs> {
    let mut sets = dad.owned(coords);
    sets[dim] = Runs::one(Progression::new(g, 0, 1));
    sets
}

/// The slab `src[.., src_g, ..]` owned by the node at `coords`: the
/// source offsets of its elements in pack order, and where each lands
/// in the rank-`r-1` temporary (row-major over the remaining
/// dimensions, the same on every node).
fn slab_offsets(
    m: &Machine,
    src: &str,
    dad: &Dad,
    coords: &[i64],
    dim: usize,
    src_g: i64,
) -> (Vec<usize>, Vec<usize>) {
    let arr = m.mems[m.grid.rank_of(coords) as usize].array(src);
    let sets = slab_sets(dad, coords, dim, src_g);
    let srcs = dad.offsets(&sets, &arr.segment());
    (srcs, dad.offsets(&sets, &slab_segment(dad, dim)))
}

fn slab_unpack(m: &mut Machine, tmp: &str, rank: i64, data: &ArrayData, offsets: &[usize]) {
    m.mems[rank as usize]
        .array_mut(tmp)
        .scatter_flat(offsets.iter().copied(), data);
}

/// `transfer` (paper §5.3.1 example 1, Fig. 4a): move the slab
/// `src[.., src_g, ..]` (global index `src_g` on dimension `dim`) from its
/// owner grid line to the grid line at coordinate `dst_coord` along the
/// same axis, depositing it into the rank-`r-1` temporary `tmp` on every
/// receiving node.
pub fn transfer(
    m: &mut Machine,
    src: &str,
    dad: &Dad,
    tmp: &str,
    dim: usize,
    src_g: i64,
    dst_coord: i64,
) -> CommResult<()> {
    m.stats.record("transfer");
    let axis = dad.dims[dim]
        .grid_axis
        .expect("transfer source dimension must be distributed");
    let src_coord = dad.dims[dim].proc_of(src_g);
    // Each node of the owner grid line (coords[axis] == src_coord)
    // sends its slab to the node at dst_coord on the same fiber — in
    // rank order, one pair per sender, so the plan is built in order.
    // A sender that owns nothing of the slab still sends (an empty
    // message).
    let mut plan = ExchangePlan::default();
    for rank in m.grid.slice(axis, src_coord) {
        let mut coords = m.grid.coords_of(rank);
        let (srcs, dsts) = slab_offsets(m, src, dad, &coords, dim, src_g);
        coords[axis] = dst_coord;
        plan.push(rank, m.grid.rank_of(&coords), srcs, dsts);
    }
    exchange(m, src, tmp, &plan)
}

/// `multicast` (paper §5.3.1 example 2, Fig. 4b): broadcast the slab
/// `src[.., src_g, ..]` from its owner grid line along the grid axis of
/// `dim`, into `tmp` on every node. One broadcast per fiber, along
/// [`crate::helpers::broadcast_plan`]'s tree for the machine's topology
/// (subtree-local on a fat tree, the rotated binomial elsewhere):
/// `O(log P)` stages.
///
/// One-shot: plans each fiber's broadcast ([`Fiber`], [`SlabCast`]) and
/// runs it once; [`crate::driver::multicast`] replays a run's kept
/// plans through the same [`run_slab_cast`].
pub fn multicast(
    m: &mut Machine,
    src: &str,
    dad: &Dad,
    tmp: &str,
    dim: usize,
    src_g: i64,
) -> CommResult<()> {
    m.stats.record("multicast");
    let axis = multicast_axis(dad, dim);
    let l = dad.dims[dim].local(src_g);
    // One broadcast per fiber, from its member on the owner line, in
    // rank order.
    for owner in m.grid.slice(axis, dad.dims[dim].proc_of(src_g)) {
        let fiber = Fiber::new(m, owner, axis, tmp);
        let cast = SlabCast::new(m, src, dad, dim, src_g, owner, &fiber);
        run_slab_cast(m, src, &fiber, &cast, l)?;
    }
    Ok(())
}

/// The grid axis a multicast over array dimension `dim` runs along.
pub(crate) fn multicast_axis(dad: &Dad, dim: usize) -> usize {
    dad.dims[dim]
        .grid_axis
        .expect("multicast source dimension must be distributed")
}

/// The grid fiber a multicast broadcasts along, as a plan keeps it: its
/// members in grid order and, per member, the slot of the slab
/// temporary in its memory with the memory's layout stamp beside it
/// ([`f90d_machine::NodeMemory::layout_stamp`]). A function of the grid,
/// the axis, the temporary and the members' slot layouts only: on a
/// 1-D grid every owner's broadcast runs along the one fiber.
#[derive(Debug, PartialEq)]
pub struct Fiber {
    members: Vec<i64>,
    slots: Vec<(usize, u64)>,
    /// The members' [`nest_runs`] on the machine's topology.
    levels: Vec<Vec<Range<usize>>>,
}

impl Fiber {
    /// The fiber along `axis` through rank `rank`, depositing into `tmp`.
    pub fn new(m: &Machine, rank: i64, axis: usize, tmp: &str) -> Self {
        let members = m.grid.fiber(&m.grid.coords_of(rank), axis);
        let slots = (members.iter())
            .map(|&r| {
                let mem = &m.mems[r as usize];
                (mem.slot(tmp), mem.layout_stamp())
            })
            .collect();
        let levels = nest_runs(&members, &m.spec().topology);
        Fiber {
            members,
            slots,
            levels,
        }
    }

    /// Whether rank `rank` sits at position `at` of the fiber — the one
    /// fiber through it, as `at` is its coordinate along the axis.
    pub fn has_at(&self, at: usize, rank: i64) -> bool {
        self.members.get(at) == Some(&rank)
    }

    /// Whether every member's memory still has the layout it had when
    /// the fiber was planned, so every kept slot still holds the
    /// temporary.
    pub fn holds(&self, m: &Machine) -> bool {
        (self.members.iter().zip(&self.slots))
            .all(|(&r, &(_, stamp))| m.mems[r as usize].layout_stamp() == stamp)
    }

    /// Host words the plan keeps.
    pub fn words(&self) -> usize {
        3 * self.members.len() + 2 * self.levels.iter().map(Vec::len).sum::<usize>()
    }
}

/// One owner's broadcast of its slab along its [`Fiber`]: the root's
/// position, the tree's edges, where the slab lands in the temporary,
/// and where its elements sit in the source at local index 0 along the
/// multicast dimension — the slab at local index `l` sits `l · step`
/// further on. A function of the source's layout (its dimension maps,
/// the grid, its segments' geometry), the dimension, the owner and the
/// topology, not of the global index multicast: an owner's later steps
/// replay it.
#[derive(Debug, PartialEq)]
pub struct SlabCast {
    root: usize,
    edges: Vec<(usize, usize)>,
    /// The temporary's offsets the slab lands on, in pack order.
    dsts: Vec<usize>,
    /// `Some(at)` when `dsts` is `at, at + 1, …`: one slice copy per
    /// member.
    run: Option<usize>,
    srcs: Vec<usize>,
    step: usize,
}

impl SlabCast {
    /// The broadcast of the slab through `g` (which `owner` holds) of
    /// `src` along `fiber`.
    pub fn new(
        m: &Machine,
        src: &str,
        dad: &Dad,
        dim: usize,
        g: i64,
        owner: i64,
        fiber: &Fiber,
    ) -> Self {
        let coords = m.grid.coords_of(owner);
        let root = coords[multicast_axis(dad, dim)] as usize;
        let (srcs, dsts) = slab_offsets(m, src, dad, &coords, dim, g);
        let step = m.mems[owner as usize].array(src).segment().strides[dim] as usize;
        let back = dad.dims[dim].local(g) as usize * step;
        let run = (dsts.first())
            .filter(|&&at| (dsts.iter().enumerate()).all(|(k, &off)| off == at + k))
            .copied();
        SlabCast {
            root,
            edges: nested_broadcast_plan(&fiber.levels, fiber.members.len(), root),
            dsts,
            run,
            srcs: srcs.into_iter().map(|at| at - back).collect(),
            step,
        }
    }
}

/// Run `cast` along `fiber`: gather the slab at local index `l` along
/// the multicast dimension from the owner's `src`, broadcast it along
/// the cast's tree, and deposit it into each member's temporary through
/// the fiber's kept slot — the one executor of every multicast.
pub fn run_slab_cast(
    m: &mut Machine,
    src: &str,
    fiber: &Fiber,
    cast: &SlabCast,
    l: i64,
) -> CommResult<()> {
    let owner = fiber.members[cast.root];
    let shift = l as usize * cast.step;
    let srcs = cast.srcs.iter().map(|&at| at + shift);
    let payload = m.mems[owner as usize].array(src).gather_flat(srcs);
    let members = &fiber.members;
    broadcast_along(
        m,
        members,
        cast.root,
        &cast.edges,
        payload,
        |m, at, data| {
            let (rank, (slot, _)) = (members[at], fiber.slots[at]);
            let tmp = &mut m.mems[rank as usize].segments_mut()[slot];
            match cast.run {
                Some(first) => tmp.copy_flat(first, data),
                None => tmp.scatter_flat(cast.dsts.iter().copied(), data),
            }
        },
    )
}

/// `temporary_shift` (paper §5.1): shift by a (possibly runtime) amount
/// `s` into the same-local-shape temporary `tmp`: after the call,
/// `tmp(l) = src(global(l) + s)` on every node, for every owned local `l`
/// whose shifted global stays in range (`periodic` wraps instead).
/// Unlike `overlap_shift` ([`crate::driver::ghost_exchange`]) this may
/// require intra-processor copying — the cost difference is the
/// ablation ABL-4 measures.
///
/// One-shot: plans, posts and finishes; [`crate::driver::temporary_shift`]
/// replays a run's kept plan.
pub fn temporary_shift(
    m: &mut Machine,
    src: &str,
    dad: &Dad,
    tmp: &str,
    dim: usize,
    s: i64,
    periodic: bool,
) -> CommResult<()> {
    m.stats.record("temporary_shift");
    let plan = shift_moves(m, src, Some(tmp), dad, dim, s, periodic);
    exchange(m, src, tmp, &plan)
}

/// Plan the element moves of a shift of `src` by `s` along `dim` without
/// posting anything — the one planner of both shift primitives and of
/// the comm phases of [`crate::driver::CommDriver::phase_exchange`], so
/// all of them price and move exactly the same elements.
/// Receiver-centric: every destination cell is paired with the element
/// `s` away in global space (wrapped under `periodic`, skipped when it
/// falls off the array).
///
/// * `tmp == None` (`overlap_shift`): for a compile-time constant `s`,
///   the destination cells are the `|s|` ghost cells of `src` itself
///   just past each node's owned block on the side `s` points to, so the
///   local loop reads `A(i + s)` with no temporary and no
///   intra-processor copying. The array must have ghost width ≥ `|s|`
///   on `dim`. BLOCK only — the only case the paper's Table 1 emits it
///   for (shifts on CYCLIC layouts route through the unstructured path).
/// * `tmp == Some(t)` ([`temporary_shift`]): the destination cells are
///   every owned local of the same-shape temporary `t`.
///
/// The result is a function of `dad.dims`, the machine's grid, `dim`,
/// `s`, `periodic`, which of the two destinations, and the two arrays'
/// segment geometry — what [`crate::sched_cache::RunSchedules`] keys a
/// kept plan on.
pub fn shift_moves(
    m: &Machine,
    src: &str,
    tmp: Option<&str>,
    dad: &Dad,
    dim: usize,
    s: i64,
    periodic: bool,
) -> ExchangePlan {
    if tmp.is_none() && s == 0 {
        return ExchangePlan::default();
    }
    let dm = &dad.dims[dim];
    let axis = dm.grid_axis.expect("a shift needs a distributed dim");
    assert!(
        tmp.is_some() || matches!(dm.dist.kind, f90d_distrib::DistKind::Block),
        "overlap_shift supports BLOCK distributions"
    );
    let n = dm.extent;
    let mut moves = Vec::new();
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        let mut sets = dad.owned(&coords);
        let along = std::mem::replace(&mut sets[dim], Runs::EMPTY);
        let (Some(first), Some(last)) = (along.first(), along.last()) else {
            continue;
        };
        // (destination local, global index it mirrors) along `dim`.
        let cells: Vec<(i64, i64)> = match tmp {
            Some(_) => along.values().map(|g| (dm.local(g), g + s)).collect(),
            None if s > 0 => (1..=s).map(|k| (dm.local(last) + k, last + k)).collect(),
            None => (s..0).map(|k| (dm.local(first) + k, first + k)).collect(),
        };
        // The offsets of the other dimensions' product in an array's
        // segment, `dim` held out; every cell pairs with each in turn.
        sets[dim] = Runs::one(Progression::new(first, 0, 1));
        let rows = |name: &str| {
            let mut seg = m.mems[rank as usize].array(name).segment();
            let step = std::mem::replace(&mut seg.strides[dim], 0);
            (dad.offsets(&sets, &seg), seg.bias[dim], step)
        };
        let (src_base, src_bias, src_step) = rows(src);
        let (dst_base, dst_bias, dst_step) = rows(tmp.unwrap_or(src));
        for (dst_l, g) in cells {
            let g_eff = if periodic {
                g.rem_euclid(n)
            } else if (0..n).contains(&g) {
                g
            } else {
                continue;
            };
            let mut src_c = coords.clone();
            src_c[axis] = dm.proc_of(g_eff);
            let src_rank = m.grid.rank_of(&src_c);
            // Pair the cell with its source over all other dims.
            let src_at = ((dm.local(g_eff) + src_bias) * src_step) as usize;
            let dst_at = ((dst_l + dst_bias) * dst_step) as usize;
            let (srcs, dsts) = (src_base.iter(), dst_base.iter());
            moves.extend(
                srcs.zip(dsts)
                    .map(|(&a, &b)| ElementReq::moving(src_rank, rank, a + src_at, b + dst_at)),
            );
        }
    }
    ExchangePlan::of_moves(&moves)
}

/// Fused `multicast_shift` (paper §5.3.1 example 3): for
/// `A(I,J) = B(g, J+s)`, combine the multicast of row `g` along
/// `mcast_dim`'s axis with the shift by `s` along `shift_dim` — one
/// communication structure, no intermediate temporary, less packing.
/// Result lands in the rank-`r-1` slab temporary `tmp` such that
/// `tmp(l_J) = B(g, global(l_J) + s)`.
pub fn multicast_shift(
    m: &mut Machine,
    src: &str,
    dad: &Dad,
    tmp: &str,
    mcast_dim: usize,
    src_g: i64,
    shift_dim: usize,
    s: i64,
) -> CommResult<()> {
    m.stats.record("multicast_shift");
    assert_ne!(mcast_dim, shift_dim);
    let axis = dad.dims[mcast_dim]
        .grid_axis
        .expect("multicast dimension must be distributed");
    let src_coord = dad.dims[mcast_dim].proc_of(src_g);
    let sdm = &dad.dims[shift_dim];
    let n = sdm.extent;
    // Step 1 (intra-line shift): on the owner line, build the shifted slab
    // values each owner-line node will broadcast. The shift sources may
    // live on a different node of the SAME owner line (other coords of the
    // shift axis), so this is a pairwise exchange within the line into a
    // hidden staging vector — but fused: we stage values directly in pack
    // order without materializing a named temporary.
    let tmp_seg = slab_segment(dad, mcast_dim);
    for rank in m.grid.slice(axis, src_coord) {
        let coords = m.grid.coords_of(rank);
        // The slab through `src_g`, in pack order (row-major over the
        // remaining dims): where each element lands in the temporary.
        let sets = slab_sets(dad, &coords, mcast_dim, src_g);
        let lands = dad.offsets(&sets, &tmp_seg);
        // Where each payload element is read — (rank, flat offset), in
        // pack order — and where it lands: element `g` of the shift dim
        // reads `g + s` from its owner (same line, differing on the
        // shift axis if distributed), at the same other local indices.
        let arr = m.mems[rank as usize].array(src);
        let (seg, ty) = (arr.segment(), arr.elem_type());
        let mut picks: Vec<(i64, usize)> = Vec::new();
        let mut offsets: Vec<usize> = Vec::new();
        let (mut src_c, mut k) = (coords.clone(), 0);
        dad.for_each(&sets, &seg, |idx, off| {
            let (g, land) = (idx[shift_dim], lands[k]);
            k += 1;
            let gs = g + s;
            if !(0..n).contains(&gs) {
                return;
            }
            if let Some(sax) = sdm.grid_axis {
                src_c[sax] = sdm.proc_of(gs);
            }
            let src_off = off as i64 + (sdm.local(gs) - sdm.local(g)) * seg.strides[shift_dim];
            picks.push((m.grid.rank_of(&src_c), src_off as usize));
            offsets.push(land);
        });
        // Charge the intra-line fetches as one vectorized neighbour
        // exchange when the shift axis is distributed.
        if let Some(sax) = sdm.grid_axis {
            if sdm.is_distributed() && s != 0 {
                let bytes = picks.len() as i64 * ty.bytes();
                let neigh = m
                    .grid
                    .neighbor_wrap(&coords, sax, if s > 0 { 1 } else { -1 });
                if neigh != rank {
                    let t = m.spec().msg_time(neigh, rank, bytes);
                    m.transport.charge_compute(rank, t);
                }
            }
        }
        // One typed gather per run of elements read from the same node.
        let mut payload = ArrayData::zeros(ty, 0);
        for run in picks.chunk_by(|a, b| a.0 == b.0) {
            let from = m.mems[run[0].0 as usize].array(src);
            from.gather_flat_into(run.iter().map(|&(_, off)| off), &mut payload);
        }
        let (members, root_pos) = fiber_through(m, &coords, axis);
        tree_broadcast(m, &members, root_pos, payload, |m, r, data| {
            slab_unpack(m, tmp, r, data, &offsets);
        })?;
    }
    Ok(())
}

/// `concatenation` (paper §5.1): gather a distributed array onto **every**
/// processor — used when the LHS of a FORALL is not distributed
/// (Algorithm 1 step 11). `dst` must be allocated with the array's full
/// global shape on every node.
pub fn concatenation(m: &mut Machine, src: &str, dad: &Dad, dst: &str) -> CommResult<()> {
    m.stats.record("concatenation");
    let nranks = m.nranks();
    // Phase 1: everyone sends its owned elements to rank 0, which
    // deposits them at their global positions. `dst` has the same
    // layout on every node, so rank 0's offsets serve all of them.
    // Rank 0's own elements are deposited uncharged, outside the
    // exchange.
    let mut moves = Vec::new();
    let mut assembled: Vec<usize> = Vec::new();
    let full = m.mems[0].array(dst).segment();
    for rank in 0..nranks {
        let coords = m.grid.coords_of(rank);
        // Skip non-canonical replicas (they hold the same data).
        if dad.replicated_axes.iter().any(|&ax| coords[ax] != 0) {
            continue;
        }
        let arr = m.mems[rank as usize].array(src);
        let first = moves.len();
        dad.for_each_owned(&coords, &arr.segment(), |g, off| {
            moves.push(ElementReq::moving(rank, 0, off, full.offset(g)))
        });
        assembled.extend(moves[first..].iter().map(|e| e.dst_off));
        if rank == 0 {
            let own = moves.split_off(first);
            let payload = arr.gather_flat(own.iter().map(|e| e.src_off));
            m.mems[0]
                .array_mut(dst)
                .scatter_flat(own.iter().map(|e| e.dst_off), &payload);
        }
    }
    exchange(m, src, dst, &ExchangePlan::of_moves(&moves))?;
    // Phase 2: rank 0 tree-broadcasts the assembled array.
    let payload = m.mems[0].array(dst).gather_flat(assembled.iter().copied());
    let members: Vec<i64> = (0..nranks).collect();
    tree_broadcast(m, &members, 0, payload, |m, r, data| {
        if r != 0 {
            m.mems[r as usize]
                .array_mut(dst)
                .scatter_flat(assembled.iter().copied(), data);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::{DadBuilder, DistKind, ProcGrid};
    use f90d_machine::{MachineSpec, Value};

    /// 2-D machine + (BLOCK, BLOCK) array initialized to A(i,j) = 100i + j.
    fn setup_2d(n: i64, p: i64, q: i64) -> (Machine, Dad) {
        let grid = ProcGrid::new(&[p, q]);
        let mut m = Machine::new(MachineSpec::ideal(), grid.clone());
        let dad = DadBuilder::new("B", &[n, n])
            .distribute(&[DistKind::Block, DistKind::Block])
            .grid(grid)
            .build()
            .unwrap();
        for rank in 0..m.nranks() {
            let coords = m.grid.coords_of(rank);
            let mut la = LocalArray::zeros(ElemType::Real, &dad.local_shape());
            let seg = la.segment();
            dad.for_each_owned(&coords, &seg, |g, off| {
                la.set_flat(off, Value::Real((100 * g[0] + g[1]) as f64))
            });
            m.mems[rank as usize].insert_array("B", la);
        }
        (m, dad)
    }

    fn setup_1d(n: i64, p: i64, kind: DistKind) -> (Machine, Dad) {
        let grid = ProcGrid::new(&[p]);
        let mut m = Machine::new(MachineSpec::ideal(), grid.clone());
        let dad = DadBuilder::new("B", &[n])
            .distribute(&[kind])
            .grid(grid)
            .build()
            .unwrap();
        for rank in 0..m.nranks() {
            let coords = m.grid.coords_of(rank);
            let mut la = LocalArray::with_ghost(ElemType::Real, &dad.local_shape(), &[4], &[4]);
            let seg = la.segment();
            dad.for_each_owned(&coords, &seg, |g, off| {
                la.set_flat(off, Value::Real(g[0] as f64))
            });
            m.mems[rank as usize].insert_array("B", la);
        }
        (m, dad)
    }

    #[test]
    fn transfer_moves_column() {
        // A(I,8)=B(I,3) on a 2x2 grid over 8x8: column 3 → owners of col 6.
        let (mut m, dad) = setup_2d(8, 2, 2);
        alloc_slab_tmp(&mut m, "TMP", &dad, 1, ElemType::Real);
        let dst_coord = dad.dims[1].proc_of(6);
        transfer(&mut m, "B", &dad, "TMP", 1, 3, dst_coord).unwrap();
        // Owners of column 6 (axis-1 coord 1) must now hold B(i,3) in TMP.
        for rank in 0..m.nranks() {
            let coords = m.grid.coords_of(rank);
            if coords[1] != dst_coord {
                continue;
            }
            let tmp = m.mems[rank as usize].array("TMP");
            for (g, l) in held(&dad, 0, coords[0]) {
                assert_eq!(
                    tmp.get(&[l]),
                    Value::Real((100 * g + 3) as f64),
                    "rank {rank} row local {l}"
                );
            }
        }
        assert_eq!(m.stats.count("transfer"), 1);
    }

    /// `(array index, local index)` of dimension `d`'s elements held by
    /// coordinate `c`.
    fn held(dad: &Dad, d: usize, c: i64) -> Vec<(i64, i64)> {
        let dm = &dad.dims[d];
        dm.owned(c).values().map(|g| (g, dm.local(g))).collect()
    }

    #[test]
    fn multicast_reaches_whole_axis() {
        // A(I,J)=B(I,3): column 3 broadcast along grid axis 1.
        let (mut m, dad) = setup_2d(8, 2, 2);
        alloc_slab_tmp(&mut m, "TMP", &dad, 1, ElemType::Real);
        multicast(&mut m, "B", &dad, "TMP", 1, 3).unwrap();
        for rank in 0..m.nranks() {
            let coords = m.grid.coords_of(rank);
            let tmp = m.mems[rank as usize].array("TMP");
            for (g, l) in held(&dad, 0, coords[0]) {
                assert_eq!(tmp.get(&[l]), Value::Real((100 * g + 3) as f64));
            }
        }
    }

    #[test]
    fn multicast_message_count_is_tree() {
        let grid = ProcGrid::new(&[16]);
        let mut m = Machine::new(MachineSpec::ideal(), grid.clone());
        let dad = DadBuilder::new("B", &[64])
            .distribute(&[DistKind::Block])
            .grid(grid)
            .build()
            .unwrap();
        for rank in 0..16 {
            let coords = m.grid.coords_of(rank);
            let mut la = LocalArray::zeros(ElemType::Real, &dad.local_shape());
            let seg = la.segment();
            dad.for_each_owned(&coords, &seg, |g, off| {
                la.set_flat(off, Value::Real(g[0] as f64))
            });
            m.mems[rank as usize].insert_array("B", la);
        }
        // multicast over a rank-1 array: slab is a scalar; 15 messages in
        // 4 stages.
        alloc_slab_tmp(&mut m, "TMP", &dad, 0, ElemType::Real);
        multicast(&mut m, "B", &dad, "TMP", 0, 5).unwrap();
        assert_eq!(m.transport.messages, 15);
        for rank in 0..16 {
            assert_eq!(
                m.mems[rank as usize].array("TMP").get(&[0]),
                Value::Real(5.0)
            );
        }
    }

    /// The ghost exchange (`overlap_shift`) of `B` by `c` along dim 0,
    /// planned on the spot.
    fn ghost_shift(m: &mut Machine, dad: &Dad, c: i64, periodic: bool) {
        let plan = shift_moves(m, "B", None, dad, 0, c, periodic);
        exchange(m, "B", "B", &plan).unwrap();
    }

    #[test]
    fn overlap_shift_fills_ghosts_block() {
        let (mut m, dad) = setup_1d(16, 4, DistKind::Block);
        ghost_shift(&mut m, &dad, 2, false);
        // Node p owns globals 4p..4p+4; ghost cells l=4,5 must hold
        // globals 4p+4, 4p+5 (when in range).
        for p in 0..4i64 {
            let arr = m.mems[p as usize].array("B");
            for k in 0..2i64 {
                let g = 4 * p + 4 + k;
                if g < 16 {
                    assert_eq!(arr.get(&[4 + k]), Value::Real(g as f64), "p{p} ghost {k}");
                }
            }
        }
    }

    #[test]
    fn overlap_shift_negative_and_periodic() {
        let (mut m, dad) = setup_1d(16, 4, DistKind::Block);
        ghost_shift(&mut m, &dad, -1, true);
        // Ghost l = -1 on node p holds global (4p - 1) mod 16.
        for p in 0..4i64 {
            let arr = m.mems[p as usize].array("B");
            let g = (4 * p - 1).rem_euclid(16);
            assert_eq!(arr.get(&[-1]), Value::Real(g as f64), "p{p}");
        }
    }

    #[test]
    fn overlap_shift_nonperiodic_edge_unfilled() {
        let (mut m, dad) = setup_1d(16, 4, DistKind::Block);
        ghost_shift(&mut m, &dad, 1, false);
        // Last node's ghost must stay zero (global 16 does not exist).
        let arr = m.mems[3].array("B");
        assert_eq!(arr.get(&[4]), Value::Real(0.0));
    }

    #[test]
    fn temporary_shift_matches_semantics() {
        for kind in [DistKind::Block, DistKind::Cyclic] {
            let (mut m, dad) = setup_1d(12, 3, kind);
            for mem in &mut m.mems {
                mem.insert_array("TMP", LocalArray::zeros(ElemType::Real, &dad.local_shape()));
            }
            temporary_shift(&mut m, "B", &dad, "TMP", 0, 3, false).unwrap();
            for rank in 0..3 {
                let coords = m.grid.coords_of(rank);
                let tmp = m.mems[rank as usize].array("TMP");
                for (g, l) in held(&dad, 0, coords[0]) {
                    if g + 3 < 12 {
                        assert_eq!(
                            tmp.get(&[l]),
                            Value::Real((g + 3) as f64),
                            "{kind:?} rank {rank} l {l}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn temporary_shift_periodic_wraps() {
        let (mut m, dad) = setup_1d(12, 3, DistKind::Block);
        for mem in &mut m.mems {
            mem.insert_array("TMP", LocalArray::zeros(ElemType::Real, &dad.local_shape()));
        }
        temporary_shift(&mut m, "B", &dad, "TMP", 0, -1, true).unwrap();
        // tmp(l) = B((g - 1) mod 12)
        let tmp0 = m.mems[0].array("TMP");
        assert_eq!(tmp0.get(&[0]), Value::Real(11.0));
        assert_eq!(tmp0.get(&[1]), Value::Real(0.0));
    }

    #[test]
    fn concatenation_replicates_everywhere() {
        let (mut m, dad) = setup_1d(12, 3, DistKind::Cyclic);
        for mem in &mut m.mems {
            mem.insert_array("FULL", LocalArray::zeros(ElemType::Real, &[12]));
        }
        concatenation(&mut m, "B", &dad, "FULL").unwrap();
        for rank in 0..3 {
            let full = m.mems[rank as usize].array("FULL");
            for g in 0..12 {
                assert_eq!(full.get(&[g]), Value::Real(g as f64), "rank {rank}");
            }
        }
    }

    #[test]
    fn multicast_shift_fused_semantics() {
        // A(I,J) = B(3, J+1): tmp(l_J) = B(3, global(l_J)+1)
        let (mut m, dad) = setup_2d(8, 2, 2);
        alloc_slab_tmp(&mut m, "TMP", &dad, 0, ElemType::Real);
        multicast_shift(&mut m, "B", &dad, "TMP", 0, 3, 1, 1).unwrap();
        for rank in 0..m.nranks() {
            let coords = m.grid.coords_of(rank);
            let tmp = m.mems[rank as usize].array("TMP");
            for (g, l) in held(&dad, 1, coords[1]) {
                if g + 1 < 8 {
                    assert_eq!(
                        tmp.get(&[l]),
                        Value::Real((300 + g + 1) as f64),
                        "rank {rank} col local {l}"
                    );
                }
            }
        }
    }
}
