//! Shared machinery: the one plan constructor, the one split-phase
//! point-to-point operation and the collective trees. Which elements a
//! node holds, and where they sit in its segment, is not decided here:
//! every primitive enumerates them with `f90d_distrib::Dad::for_each_owned`,
//! the one product walk, and finds them in another layout through a
//! [`locator`].
//!
//! Every element-wise planner lists its element moves
//! ([`ElementReq::moving`]) and [`ExchangePlan::of_moves`] turns the list
//! into a plan: pairs ascending in `(from, to)`, a pair's elements in
//! listed order, no empty pair. Every primitive vectorizes its
//! messages — all elements travelling between one (source, destination)
//! pair are packed into a single message (paper §7, optimization 1).
//! Packing and unpacking charge the machine's per-byte copy cost; the
//! wire charges α + β·bytes through the transport.
//!
//! [`ExchangeOp`] is the only operation that really splits: `post` packs
//! and posts every send (senders pay copy + α) and posts the matching
//! receives; `finish` completes the receives (receiver clocks advance to
//! the arrival times) and unpacks. Shifts, ghost exchanges, comm phases,
//! `transfer`, `concatenation`, redistribution, the schedule executors
//! and the run-time library's remaps all run through it; the blocking
//! [`exchange`] wrapper is post-then-finish with nothing in between. The
//! trees ([`tree_broadcast`] along the topology-shaped
//! [`broadcast_plan`], the binomial [`tree_reduce`]) have stage
//! dependencies, so every edge is one blocking
//! [`Transport::deliver`].

use std::ops::Range;

use f90d_distrib::{Dad, Locator};
use f90d_machine::{ArrayData, IntMap, Machine, RecvHandle, Topology, Transport};

use crate::op::{CommError, CommResult};
use crate::schedule::{word, ElementReq};

/// A planned exchange as it is executed and kept: its processor pairs
/// ascending in `(from, to)`, their offsets laid out as one source and
/// one destination column of 32-bit words, 8 bytes an element moved,
/// that `gather_flat` / `scatter_flat` take a pair's slice of, widened.
/// Every offset fits: a rank segment holds fewer than
/// [`SEGMENT_LIMIT`](crate::schedule::SEGMENT_LIMIT) elements.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExchangePlan {
    /// `(from, to, end)`: the pair's elements are `[previous end, end)`
    /// of both columns.
    pairs: Vec<(i64, i64, usize)>,
    srcs: Vec<u32>,
    dsts: Vec<u32>,
}

/// One processor pair of an [`ExchangePlan`]: every element travelling
/// `from → to`, in message order.
#[derive(Debug, Clone, Copy)]
pub struct PairRun<'a> {
    /// Sending rank.
    pub from: i64,
    /// Receiving rank (`== from`: a local copy).
    pub to: i64,
    /// Flat offsets into the source array on `from`.
    pub srcs: &'a [u32],
    /// Flat offsets into the destination array on `to`.
    pub dsts: &'a [u32],
}

impl ExchangePlan {
    /// The plan of a list of element moves — each moving the element at
    /// `src_off` on rank `owner` to `dst_off` on rank `requester` — and
    /// the one rule every element-wise planner's messages follow: pairs
    /// ascend in `(from, to)`, a pair's elements keep the order they
    /// were listed in, and a pair no move names is not in the plan.
    ///
    /// A counting sort by pair: the first pass gives each move its
    /// pair's id (an integer-hashed index, in order of first
    /// appearance) and counts the pairs; the distinct pairs are sorted
    /// once, which fixes where each one's elements start; the second
    /// pass writes every move's offsets straight into the columns.
    pub fn of_moves(moves: &[ElementReq]) -> Self {
        let mut index: IntMap<(i64, i64), u32> = IntMap::default();
        // `(pair, elements)` by id.
        let mut pairs: Vec<((i64, i64), usize)> = Vec::new();
        // The last move's pair and id: a run of moves between one pair
        // (a shift lists a whole row of cells at a time) looks it up once.
        let mut last = None;
        let ids: Vec<u32> = (moves.iter())
            .map(|r| {
                let pair = (r.owner, r.requester);
                let id = match last {
                    Some((at, id)) if at == pair => id,
                    _ => *index.entry(pair).or_insert_with(|| {
                        pairs.push((pair, 0));
                        (pairs.len() - 1) as u32
                    }),
                };
                last = Some((pair, id));
                pairs[id as usize].1 += 1;
                id
            })
            .collect();
        let mut order: Vec<u32> = (0..pairs.len() as u32).collect();
        order.sort_unstable_by_key(|&id| pairs[id as usize].0);
        // Each pair's next free slot in the columns, by id.
        let mut next = vec![0; pairs.len()];
        let mut ends = Vec::with_capacity(pairs.len());
        let mut end = 0;
        for &id in &order {
            let ((from, to), n) = pairs[id as usize];
            next[id as usize] = end;
            end += n;
            ends.push((from, to, end));
        }
        let (mut srcs, mut dsts) = (vec![0; moves.len()], vec![0; moves.len()]);
        for (r, &id) in moves.iter().zip(&ids) {
            let at = &mut next[id as usize];
            (srcs[*at], dsts[*at]) = (word(r.src_off), word(r.dst_off));
            *at += 1;
        }
        ExchangePlan {
            pairs: ends,
            srcs,
            dsts,
        }
    }

    /// Append the pair `from → to`, moving `srcs[i]` to `dsts[i]`,
    /// after every pair already planned. Unlike [`ExchangePlan::of_moves`],
    /// an empty pair stays in the plan: it still sends a (zero-byte)
    /// message. An offset of 2^32 or more panics: no rank segment holds
    /// that many elements ([`SEGMENT_LIMIT`](crate::schedule::SEGMENT_LIMIT)).
    pub(crate) fn push(
        &mut self,
        from: i64,
        to: i64,
        srcs: impl IntoIterator<Item = usize>,
        dsts: impl IntoIterator<Item = usize>,
    ) {
        debug_assert!(self.pairs.last().map(|p| (p.0, p.1)) < Some((from, to)));
        self.srcs.extend(srcs.into_iter().map(word));
        self.dsts.extend(dsts.into_iter().map(word));
        debug_assert_eq!(self.srcs.len(), self.dsts.len());
        self.pairs.push((from, to, self.srcs.len()));
    }

    /// The `k`-th pair, in plan order.
    pub fn pair(&self, k: usize) -> PairRun<'_> {
        let (from, to, end) = self.pairs[k];
        let start = if k == 0 { 0 } else { self.pairs[k - 1].2 };
        PairRun {
            from,
            to,
            srcs: &self.srcs[start..end],
            dsts: &self.dsts[start..end],
        }
    }

    /// Every pair, in plan order.
    pub fn pairs(&self) -> impl Iterator<Item = PairRun<'_>> {
        (0..self.pairs.len()).map(|k| self.pair(k))
    }

    /// Total number of elements moved, local copies included.
    pub fn len(&self) -> usize {
        self.srcs.len()
    }

    /// A plan that moves nothing.
    pub fn is_empty(&self) -> bool {
        self.srcs.is_empty()
    }

    /// Total number of elements moved between distinct nodes.
    pub fn remote_elements(&self) -> usize {
        self.remote().map(|p| p.srcs.len()).sum()
    }

    /// The pairs that cross the wire: one message each.
    pub fn remote(&self) -> impl Iterator<Item = PairRun<'_>> {
        self.pairs().filter(|p| p.from != p.to)
    }
}

/// One strip of an [`ExchangeOp`], `(src, dst, plan)`: the elements of
/// `plan` move out of array `src` on each pair's sender into array
/// `dst` on its receiver.
pub type Strip<'a> = (&'a str, &'a str, &'a ExchangePlan);

/// The split-phase vectorized pairwise exchange of one or more
/// [`Strip`]s. Per `(from, to)` pair, the elements of every strip that
/// crosses it travel as **one** message, packed in strip order: one α
/// at the sender and one copy charge over the summed bytes on each
/// side, so the ghost exchanges of one comm phase cost one startup per
/// pair instead of one per exchange (PARTI-style aggregation, paper §7
/// optimization 1 across statements). `from == to` pairs are local
/// copies charged at memcpy rate and performed at post time — ghost
/// copies from a node's own block never wait on the wire.
///
/// The strips' sources must share one element type (a message carries
/// one). A strip's `src` and `dst` may name the same array only if no
/// pair has overlapping src/dst offsets on one node; redistribution
/// avoids this by staging through a fresh array.
///
/// The op borrows everything it runs from — names and plans belong to
/// whoever planned the exchange (a schedule, the per-run shift table, a
/// one-shot planner's local).
#[derive(Debug)]
pub struct ExchangeOp<'a> {
    strips: Vec<Strip<'a>>,
    /// Every strip's pairs as `(from, to, strip, pair index in its
    /// plan)`, in (pair, strip) order: a run of one `(from, to)` is one
    /// message.
    order: Vec<(i64, i64, usize, usize)>,
    /// Posted receives, `(the message's run of order, handle)` in pair
    /// order.
    pending: Vec<(Range<usize>, RecvHandle)>,
    posted: bool,
}

impl<'a> ExchangeOp<'a> {
    /// An exchange of every strip's elements, not yet posted.
    pub fn new(strips: Vec<Strip<'a>>) -> Self {
        let mut order: Vec<_> = (strips.iter().enumerate())
            .flat_map(|(s, &(_, _, plan))| {
                (plan.pairs().enumerate()).map(move |(k, p)| (p.from, p.to, s, k))
            })
            .collect();
        order.sort_unstable();
        ExchangeOp {
            strips,
            order,
            pending: Vec::new(),
            posted: false,
        }
    }

    /// `(src, dst, pair)` of entry `at` of the merged order.
    fn strip_pair(&self, at: usize) -> (&'a str, &'a str, PairRun<'a>) {
        let (.., s, k) = self.order[at];
        let (src, dst, plan) = self.strips[s];
        (src, dst, plan.pair(k))
    }

    /// Perform the local copies, then pack and post one send per remote
    /// pair and post the matching receive. Senders pay the packing copy
    /// cost and the startup α; receivers pay nothing yet.
    pub fn post(&mut self, m: &mut Machine) -> CommResult<()> {
        if self.posted {
            return Err(CommError("exchange posted twice".into()));
        }
        self.posted = true;
        let tag = m.fresh_tag();
        let mut start = 0;
        while start < self.order.len() {
            let (from, to, first, _) = self.order[start];
            let same_pair = |o: &&(i64, i64, usize, usize)| (o.0, o.1) == (from, to);
            let end = start + self.order[start..].iter().take_while(same_pair).count();
            let mem = &mut m.mems[from as usize];
            if from == to {
                // Each strip stages through its own payload, so `src ==
                // dst` needs no care about overlapping offsets.
                let mut bytes = 0;
                for at in start..end {
                    let (src, dst, pair) = self.strip_pair(at);
                    let strip = mem
                        .array(src)
                        .gather_flat(pair.srcs.iter().map(|&o| o as usize));
                    let a = mem.array_mut(dst);
                    a.scatter_flat(pair.dsts.iter().map(|&o| o as usize), &strip);
                    bytes += pair.dsts.len() as i64 * a.elem_type().bytes();
                }
                m.transport.charge_copy(from, bytes);
            } else {
                let ty = mem.array(self.strips[first].0).elem_type();
                let mut payload = ArrayData::zeros(ty, 0);
                for at in start..end {
                    let (src, _, pair) = self.strip_pair(at);
                    mem.array(src)
                        .gather_flat_into(pair.srcs.iter().map(|&o| o as usize), &mut payload);
                }
                let bytes = payload.len() as i64 * payload.elem_type().bytes();
                m.transport.charge_copy(from, bytes);
                m.transport.post_send(from, to, tag, payload);
                let h = m.transport.post_recv(to, from, tag);
                self.pending.push((start..end, h));
            }
            start = end;
        }
        Ok(())
    }

    /// Complete every posted receive in pair order, charge the unpack
    /// copy, and deposit each strip's elements.
    ///
    /// A failed completion does not stop the rest: every later handle is
    /// still completed (arrived payloads deposit normally), and the error
    /// names **every** pair whose receive stays open — nothing is left
    /// in flight and nothing completes twice.
    pub fn finish(mut self, m: &mut Machine) -> CommResult<()> {
        if !self.posted {
            return Err(CommError("exchange finished before post".into()));
        }
        let mut open = Vec::new();
        for (run, h) in std::mem::take(&mut self.pending) {
            let payload = match m.transport.complete(h) {
                Ok(payload) => payload,
                Err(e) => {
                    open.push(e.to_string());
                    continue;
                }
            };
            let to = self.order[run.start].1;
            let bytes = payload.len() as i64 * payload.elem_type().bytes();
            m.transport.charge_copy(to, bytes);
            let mem = &mut m.mems[to as usize];
            let mut off = 0;
            for at in run {
                let (_, dst, pair) = self.strip_pair(at);
                let a = mem.array_mut(dst);
                off = a.scatter_flat_from(pair.dsts.iter().map(|&o| o as usize), &payload, off);
            }
            assert_eq!(off, payload.len(), "payload longer than its plan");
        }
        if open.is_empty() {
            return Ok(());
        }
        Err(CommError(format!(
            "exchange finish: {} message(s) still open: {}",
            open.len(),
            open.join("; ")
        )))
    }
}

/// Blocking wrapper: post-then-finish of one strip with no compute in
/// between.
pub fn exchange(m: &mut Machine, src: &str, dst: &str, plan: &ExchangePlan) -> CommResult<()> {
    let mut op = ExchangeOp::new(vec![(src, dst, plan)]);
    op.post(m)?;
    op.finish(m)
}

/// The edges of a broadcast from `members[root_pos]`, as `(from, to)`
/// positions in `members` in sending order: `members.len() - 1` edges,
/// each member but the root receiving once, from a member that already
/// holds the payload.
///
/// One rule, applied at each nesting level of `topology`
/// ([`Topology::nest_widths`], outermost first) and last with every
/// member a subtree of its own: split the group into runs of consecutive
/// members in one subtree; order the runs from the holder's, wrapping
/// around in member order; broadcast over one representative per run
/// (the holder for its own run, the first member for every other) with
/// a binomial, in which representative `t` receives in round
/// `⌊log2 t⌋`; then apply the rule inside each run. With no nesting
/// level this is the rotated binomial over all members. Members in
/// ascending rank order, as every caller passes them, make each run a
/// whole subtree, so only a subtree's representatives' messages leave
/// it: on a fat tree at most `arity - 1` edges turn at any one switch
/// (have it as their lowest common switch).
pub fn broadcast_plan(
    members: &[i64],
    root_pos: usize,
    topology: &Topology,
) -> Vec<(usize, usize)> {
    nested_broadcast_plan(&nest_runs(members, topology), members.len(), root_pos)
}

/// The runs [`broadcast_plan`] splits `members` into at each nesting
/// level of `topology`, outermost first: a function of the members and
/// the topology, not of the root, so a kept fiber finds them once. Runs
/// are maximal and a narrower subtree lies inside a wider one, so a
/// group of one level (a run of the level above) is exactly a slice of
/// the next level's runs.
pub fn nest_runs(members: &[i64], topology: &Topology) -> Vec<Vec<Range<usize>>> {
    (topology.nest_widths())
        .map(|width| subtree_runs(members, width))
        .collect()
}

/// [`broadcast_plan`] from position `root_pos` of `n` members whose
/// [`nest_runs`] are `levels`.
pub fn nested_broadcast_plan(
    levels: &[Vec<Range<usize>>],
    n: usize,
    root_pos: usize,
) -> Vec<(usize, usize)> {
    assert!(root_pos < n);
    let mut edges = Vec::with_capacity(n - 1);
    plan_group(levels, 0..n, root_pos, &mut edges);
    edges
}

/// The node a binomial's node `t > 0` receives from: `t` without its
/// highest bit, in round `⌊log2 t⌋`. Listing the nodes in increasing
/// `t` lists the rounds in order.
fn binomial_parent(t: usize) -> usize {
    t - (1 << t.ilog2())
}

/// Append the edges of the broadcast over the positions `group` held by
/// position `holder`, nested along `levels` (each level's runs, the
/// outermost first: [`broadcast_plan`]'s rule).
fn plan_group(
    levels: &[Vec<Range<usize>>],
    group: Range<usize>,
    holder: usize,
    edges: &mut Vec<(usize, usize)>,
) {
    let Some((level, deeper)) = levels.split_first() else {
        // Every member its own run: the binomial over the group rotated
        // to start at the holder, in index arithmetic.
        let n = group.len();
        let node = |i: usize| match holder + i {
            at if at < group.end => at,
            at => at - n,
        };
        edges.extend((1..n).map(|t| (node(binomial_parent(t)), node(t))));
        return;
    };
    let runs = &level[level.partition_point(|run| run.start < group.start)..];
    let runs = &runs[..runs.partition_point(|run| run.start < group.end)];
    let own = runs.partition_point(|run| run.end <= holder);
    // The other runs in rotated order: after the holder's, then before.
    let others = || runs[own + 1..].iter().chain(&runs[..own]);
    // Representative t > 0 is the receiver of this level's edge t - 1.
    let first = edges.len();
    for (t, run) in (1..).zip(others()) {
        let from = match binomial_parent(t) {
            0 => holder,
            s => edges[first + s - 1].1,
        };
        edges.push((from, run.start));
    }
    plan_group(deeper, runs[own].clone(), holder, edges);
    for run in others() {
        plan_group(deeper, run.clone(), run.start, edges);
    }
}

/// The maximal runs of consecutive positions of `members` that lie in
/// one subtree of `width` leaves, in member order.
fn subtree_runs(members: &[i64], width: i64) -> Vec<Range<usize>> {
    let mut runs = Vec::new();
    let mut start = 0;
    while start < members.len() {
        let lo = members[start] / width * width;
        let len = (members[start..].iter())
            .take_while(|&&r| (lo..lo + width).contains(&r))
            .count();
        runs.push(start..start + len);
        start += len;
    }
    runs
}

/// Broadcast of a payload from `members[root_pos]` to every member along
/// [`broadcast_plan`]'s tree for the machine's topology, `O(log F)`
/// message stages. `store` is invoked on every member (including the
/// root) to deposit the payload into that node's memory.
pub fn tree_broadcast(
    m: &mut Machine,
    members: &[i64],
    root_pos: usize,
    payload: ArrayData,
    mut store: impl FnMut(&mut Machine, i64, &ArrayData),
) -> CommResult<()> {
    let edges = broadcast_plan(members, root_pos, &m.spec().topology);
    broadcast_along(m, members, root_pos, &edges, payload, |m, at, data| {
        store(m, members[at], data)
    })
}

/// The broadcast of `payload` from `members[root_pos]` along `edges`
/// ([`broadcast_plan`]'s, for these members and root): `store(m, at,
/// payload)` deposits it at member position `at`, the root's first.
///
/// Stages depend on each other, so the tree completes within this call
/// (zero-width overlap window): every edge is one
/// [`Transport::deliver`], whose faults surface as errors.
pub fn broadcast_along(
    m: &mut Machine,
    members: &[i64],
    root_pos: usize,
    edges: &[(usize, usize)],
    payload: ArrayData,
    mut store: impl FnMut(&mut Machine, usize, &ArrayData),
) -> CommResult<()> {
    let tag = m.fresh_tag();
    store(m, root_pos, &payload);
    let bytes = payload.len() as i64 * payload.elem_type().bytes();
    // Every edge carries the same payload, so the buffer one edge
    // delivered is sent on by the next: one copy of the payload per
    // call, not one per edge.
    let mut spare = None;
    for &(s, t) in edges {
        let (from, to) = (members[s], members[t]);
        m.transport.charge_copy(from, bytes);
        let msg = spare.take().unwrap_or_else(|| payload.clone());
        let got = m.transport.deliver(from, to, tag, msg)?;
        m.transport.charge_copy(to, bytes);
        store(m, t, &got);
        spare = Some(got);
    }
    Ok(())
}

/// Binomial-tree combine toward `members[0]`: `fold(acc, contribution)`
/// merges payloads pairwise; returns the fully combined payload (present
/// only at `members[0]`).
pub fn tree_reduce(
    m: &mut Machine,
    members: &[i64],
    mut contributions: Vec<ArrayData>,
    fold: impl Fn(&mut ArrayData, &ArrayData),
) -> CommResult<ArrayData> {
    let f = members.len();
    assert_eq!(contributions.len(), f);
    assert!(f > 0);
    let tag = m.fresh_tag();
    // Standard binomial: at each round, odd multiples of `step` send to
    // the even multiple below them.
    let mut step = 1;
    while step < f {
        let mut s = 0;
        while s + step < f {
            let (to, from) = (members[s], members[s + step]);
            // The sender's slot is never read again: move it out.
            let payload = std::mem::replace(&mut contributions[s + step], ArrayData::Int(vec![]));
            let bytes = payload.len() as i64 * payload.elem_type().bytes();
            m.transport.charge_copy(from, bytes);
            let got = m.transport.deliver(from, to, tag, payload)?;
            // Charge the combine itself as element ops.
            m.transport.charge_elem_ops(to, got.len() as i64);
            let mut acc = std::mem::replace(&mut contributions[s], ArrayData::Int(vec![]));
            fold(&mut acc, &got);
            contributions[s] = acc;
            s += step * 2;
        }
        step *= 2;
    }
    Ok(contributions.swap_remove(0))
}

/// The element locator of array `arr` (live descriptor `dad`) over the
/// segments the machine holds for it: built once per plan, it stands in
/// for `owner_ranks` + `local_index` + a by-name segment lookup per
/// element. Every rank allocates an array's segment with one shape and
/// one set of ghost widths, so rank 0's speaks for all.
pub fn locator(m: &Machine, arr: &str, dad: &Dad) -> Locator {
    let seg = m.mems[0].array(arr);
    Locator::new(dad, &seg.shape, &seg.ghost_lo, &seg.ghost_hi)
}

/// The grid fiber (member ranks) along `axis` through the node at
/// `coords`, plus this node's position in it — its coordinate on `axis`.
pub fn fiber_through(m: &Machine, coords: &[i64], axis: usize) -> (Vec<i64>, usize) {
    (m.grid.fiber(coords, axis), coords[axis] as usize)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::ProcGrid;
    use f90d_machine::{ElemType, LocalArray, MachineSpec, Value};

    fn mk_machine(p: i64) -> Machine {
        Machine::new(MachineSpec::ideal(), ProcGrid::new(&[p]))
    }

    #[test]
    fn of_moves_orders_pairs_and_keeps_listed_order() {
        let moves = [
            (2, 0, 5, 1),
            (0, 1, 7, 0),
            (2, 0, 3, 2),
            (0, 0, 1, 1),
            (0, 1, 4, 4),
        ];
        let moves: Vec<_> = (moves.iter())
            .map(|&(f, t, s, d)| ElementReq::moving(f, t, s, d))
            .collect();
        let plan = ExchangePlan::of_moves(&moves);
        let pairs: Vec<_> = (plan.pairs())
            .map(|p| (p.from, p.to, p.srcs, p.dsts))
            .collect();
        let want: [(i64, i64, &[u32], &[u32]); 3] = [
            (0, 0, &[1], &[1]),
            (0, 1, &[7, 4], &[0, 4]),
            (2, 0, &[5, 3], &[1, 2]),
        ];
        assert_eq!(pairs, want);
        assert_eq!(ExchangePlan::of_moves(&[]), ExchangePlan::default());
    }

    #[test]
    fn exchange_moves_elements() {
        let mut m = mk_machine(2);
        for mem in &mut m.mems {
            mem.insert_array("S", LocalArray::zeros(ElemType::Real, &[4]));
            mem.insert_array("D", LocalArray::zeros(ElemType::Real, &[4]));
        }
        m.mems[0].array_mut("S").set(&[1], Value::Real(42.0));
        let plan = ExchangePlan::of_moves(&[ElementReq::moving(0, 1, 1, 2)]);
        exchange(&mut m, "S", "D", &plan).unwrap();
        assert_eq!(m.mems[1].array("D").get(&[2]), Value::Real(42.0));
        assert_eq!(m.transport.messages, 1);
    }

    #[test]
    fn exchange_local_copy_same_array() {
        let mut m = mk_machine(1);
        m.mems[0].insert_array("A", LocalArray::zeros(ElemType::Int, &[3]));
        m.mems[0].array_mut("A").set(&[0], Value::Int(9));
        let plan = ExchangePlan::of_moves(&[ElementReq::moving(0, 0, 0, 2)]);
        exchange(&mut m, "A", "A", &plan).unwrap();
        assert_eq!(m.mems[0].array("A").get(&[2]), Value::Int(9));
        assert_eq!(m.transport.messages, 0);
    }

    #[test]
    fn split_phase_exchange_overlaps_compute() {
        // Same exchange, two drivers: blocking post+finish vs compute
        // charged between post and finish. The data motion is identical;
        // the overlapped receiver finishes earlier or equal.
        let spec = MachineSpec::ipsc860();
        let build = |m: &mut Machine| {
            for mem in &mut m.mems {
                mem.insert_array("S", LocalArray::zeros(ElemType::Real, &[1024]));
                mem.insert_array("D", LocalArray::zeros(ElemType::Real, &[1024]));
            }
            let moves: Vec<_> = (0..1024).map(|k| ElementReq::moving(0, 1, k, k)).collect();
            ExchangePlan::of_moves(&moves)
        };
        // Blocking: exchange then compute.
        let mut mb = Machine::new(spec.clone(), ProcGrid::new(&[2]));
        let plan = build(&mut mb);
        exchange(&mut mb, "S", "D", &plan).unwrap();
        mb.transport.charge_elem_ops(1, 4096);
        // Overlapped: post, compute, finish.
        let mut mo = Machine::new(spec, ProcGrid::new(&[2]));
        let plan = build(&mut mo);
        let mut op = ExchangeOp::new(vec![("S", "D", &plan)]);
        op.post(&mut mo).unwrap();
        mo.transport.charge_elem_ops(1, 4096);
        op.finish(&mut mo).unwrap();
        assert!(
            mo.transport.clock(1) < mb.transport.clock(1),
            "overlap must hide wire time"
        );
        assert_eq!(mo.transport.messages, mb.transport.messages);
        assert_eq!(mo.transport.bytes, mb.transport.bytes);
        // Sender clocks are identical — it only ever pays copy + alpha.
        assert_eq!(
            mo.transport.clock(0).to_bits(),
            mb.transport.clock(0).to_bits()
        );
    }

    #[test]
    fn exchange_post_twice_and_unposted_finish_error() {
        let mut m = mk_machine(2);
        for mem in &mut m.mems {
            mem.insert_array("S", LocalArray::zeros(ElemType::Real, &[1]));
        }
        let nothing = ExchangePlan::default();
        let mut op = ExchangeOp::new(vec![("S", "S", &nothing)]);
        assert!(op.post(&mut m).is_ok());
        assert!(op.post(&mut m).is_err());
        let op2 = ExchangeOp::new(vec![("S", "S", &nothing)]);
        assert!(op2.finish(&mut m).is_err());
    }

    #[test]
    fn exchange_reset_between_post_and_finish_is_an_error() {
        // MailboxTransport::reset invalidates outstanding handles; the
        // dangling exchange surfaces it as a structured CommError.
        let mut m = mk_machine(2);
        for mem in &mut m.mems {
            mem.insert_array("S", LocalArray::zeros(ElemType::Real, &[4]));
            mem.insert_array("D", LocalArray::zeros(ElemType::Real, &[4]));
        }
        let plan = ExchangePlan::of_moves(&[ElementReq::moving(0, 1, 0, 0)]);
        let mut op = ExchangeOp::new(vec![("S", "D", &plan)]);
        op.post(&mut m).unwrap();
        m.reset_time();
        let err = op.finish(&mut m).unwrap_err();
        assert!(err.0.contains("reset"), "{err}");
    }

    #[test]
    fn mid_finish_error_names_the_open_pair_and_drains_the_rest() {
        // One array on four ranks; A(0) of rank r goes to A(3) of rank
        // r − 1: three remote pairs, (1,0), (2,1), (3,2) in plan order.
        let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[4]));
        for (r, mem) in m.mems.iter_mut().enumerate() {
            let mut a = LocalArray::zeros(ElemType::Real, &[4]);
            a.set(&[0], Value::Real(r as f64));
            mem.insert_array("A", a);
        }
        let moves: Vec<_> = (1..4).map(|r| ElementReq::moving(r, r - 1, 0, 3)).collect();
        let plan = ExchangePlan::of_moves(&moves);
        let mut op = ExchangeOp::new(vec![("A", "A", &plan)]);
        op.post(&mut m).unwrap();
        assert_eq!(op.pending.len(), 3);
        // Steal the middle pair's message by completing a receive of our
        // own on its channel: that pair's completion finds nothing while
        // the last pair's still succeeds.
        let (run, h) = &op.pending[1];
        let (from, to, ..) = op.order[run.start];
        let tag = h.tag();
        let stolen = m.transport.post_recv(to, from, tag);
        m.transport.complete(stolen).unwrap();
        let err = op.finish(&mut m).unwrap_err();
        assert!(err.0.contains("1 message(s) still open"), "{err}");
        assert!(
            err.0.contains(&format!("recv({to} <- {from}, tag {tag})")),
            "the error must name the open pair: {err}"
        );
        // The pair after the victim was still completed and deposited.
        assert_eq!(m.mems[2].array("A").get(&[3]), Value::Real(3.0));
        match m.transport.quiescent_check() {
            Err(f90d_machine::TransportError::NotQuiescent {
                in_flight,
                open_recvs,
                example,
            }) => {
                assert_eq!(in_flight, 0, "every other message was consumed");
                // The stolen completion retired its own receive; the
                // victim's original receive is the only one open.
                assert_eq!(open_recvs, 1);
                assert_eq!(example, Some((from, to, tag)));
            }
            other => panic!("expected NotQuiescent, got {other:?}"),
        }
    }

    #[test]
    fn tree_broadcast_reaches_everyone_logarithmically() {
        for p in [1i64, 2, 3, 5, 8, 16] {
            let mut m = mk_machine(p);
            for mem in &mut m.mems {
                mem.insert_array("X", LocalArray::zeros(ElemType::Real, &[1]));
            }
            let mut payload = ArrayData::zeros(ElemType::Real, 1);
            payload.set(0, Value::Real(7.0));
            let members: Vec<i64> = (0..p).collect();
            tree_broadcast(&mut m, &members, 0, payload, |m, r, data| {
                let v = data.get(0);
                m.mems[r as usize].array_mut("X").set(&[0], v);
            })
            .unwrap();
            for r in 0..p {
                assert_eq!(m.mems[r as usize].array("X").get(&[0]), Value::Real(7.0));
            }
            assert_eq!(m.transport.messages, (p - 1) as u64);
        }
    }

    #[test]
    fn tree_broadcast_nonzero_root() {
        let mut m = mk_machine(4);
        for mem in &mut m.mems {
            mem.insert_array("X", LocalArray::zeros(ElemType::Int, &[1]));
        }
        let mut payload = ArrayData::zeros(ElemType::Int, 1);
        payload.set(0, Value::Int(5));
        tree_broadcast(&mut m, &[0, 1, 2, 3], 2, payload, |m, r, d| {
            let v = d.get(0);
            m.mems[r as usize].array_mut("X").set(&[0], v);
        })
        .unwrap();
        for r in 0..4 {
            assert_eq!(m.mems[r as usize].array("X").get(&[0]), Value::Int(5));
        }
    }

    #[test]
    fn tree_broadcast_log_depth_cost() {
        // With ideal spec both alpha and beta are zero; use ipsc to check
        // the elapsed time is O(log P) startups, not O(P).
        let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[16]));
        let payload = ArrayData::zeros(ElemType::Real, 1);
        let members: Vec<i64> = (0..16).collect();
        tree_broadcast(&mut m, &members, 0, payload, |_, _, _| {}).unwrap();
        let alpha = m.spec().alpha;
        // 4 stages of (alpha + small) each; definitely below 6 alphas and
        // above 3.
        assert!(m.elapsed() < 6.0 * (alpha + 50e-6));
        assert!(m.elapsed() > 3.0 * alpha);
    }

    /// One of every topology family, each with at least 16 ranks.
    fn every_family() -> Vec<Topology> {
        vec![
            Topology::Hypercube,
            Topology::Mesh2D { rows: 4, cols: 4 },
            Topology::Crossbar,
            Topology::Torus { dims: vec![4, 4] },
            Topology::FatTree {
                arity: 4,
                levels: 2,
            },
            Topology::FatTree {
                arity: 3,
                levels: 3,
            },
            Topology::FatTree {
                arity: 2,
                levels: 4,
            },
        ]
    }

    #[test]
    fn every_plan_is_a_spanning_tree_in_causal_order() {
        // The whole 16-rank machine, a column of its 4×4 grid, one
        // member, and an unaligned run of 11.
        let groups: [Vec<i64>; 4] = [
            (0..16).collect(),
            vec![1, 5, 9, 13],
            vec![7],
            (3..14).collect(),
        ];
        for topology in every_family() {
            for members in &groups {
                for root in 0..members.len() {
                    let plan = broadcast_plan(members, root, &topology);
                    let what = format!("{topology:?} {members:?} root {root}: {plan:?}");
                    assert_eq!(plan.len(), members.len() - 1, "{what}");
                    let mut holds = vec![false; members.len()];
                    holds[root] = true;
                    for &(from, to) in &plan {
                        assert!(holds[from], "sender {from} before it received: {what}");
                        assert!(!holds[to], "{to} received twice: {what}");
                        holds[to] = true;
                    }
                    assert!(holds.iter().all(|&h| h), "{what}");
                }
            }
        }
    }

    #[test]
    fn flat_families_keep_the_rotated_binomial() {
        // Rounds of the binomial over [4, 5, 0, 1, 2, 3]: 4→5; 4→0,
        // 5→1; 4→2, 5→3.
        let golden = [(4, 5), (4, 0), (5, 1), (4, 2), (5, 3)];
        let members: Vec<i64> = (0..6).collect();
        let flat = every_family()
            .into_iter()
            .filter(|t| t.nest_widths().count() == 0);
        for topology in flat {
            assert_eq!(broadcast_plan(&members, 4, &topology), golden);
        }
        // A fat tree of one switch level has nothing to nest in either.
        let one_switch = Topology::FatTree {
            arity: 8,
            levels: 1,
        };
        assert_eq!(broadcast_plan(&members, 4, &one_switch), golden);
    }

    #[test]
    fn fat_tree_plan_crosses_the_root_switch_arity_minus_one_times() {
        // From rank 0, a binomial over the rank list sends its last two
        // rounds, 192 messages, through the root switch.
        let (arity, levels) = (4, 4);
        let topology = Topology::FatTree { arity, levels };
        let members: Vec<i64> = (0..arity.pow(levels as u32)).collect();
        for root in 0..members.len() {
            let plan = broadcast_plan(&members, root, &topology);
            let through_root = (plan.iter())
                .filter(|&&(s, t)| topology.hops(members[s], members[t]) == 2 * levels)
                .count();
            assert_eq!(through_root, arity as usize - 1, "root {root}");
        }
    }

    #[test]
    fn tree_reduce_combines_all() {
        for p in [1usize, 2, 3, 7, 8] {
            let mut m = mk_machine(p as i64);
            let members: Vec<i64> = (0..p as i64).collect();
            let contributions: Vec<ArrayData> = (0..p)
                .map(|r| {
                    let mut d = ArrayData::zeros(ElemType::Real, 1);
                    d.set(0, Value::Real(r as f64));
                    d
                })
                .collect();
            let total = tree_reduce(&mut m, &members, contributions, |acc, x| {
                let s = acc.get(0).as_real() + x.get(0).as_real();
                acc.set(0, Value::Real(s));
            })
            .unwrap();
            let expect = (0..p).sum::<usize>() as f64;
            assert_eq!(total.get(0).as_real(), expect, "P={p}");
        }
    }
}
