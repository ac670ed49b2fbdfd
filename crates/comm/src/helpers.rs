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
//! listed order, no empty pair — a counting sort on the pair, with no
//! hash per move. The unstructured inspectors list the same moves as
//! 32-bit words ([`ExchangePlan::of_words`]). Every primitive vectorizes
//! its messages — all elements travelling between one (source,
//! destination) pair are packed into a single message (paper §7,
//! optimization 1). Packing and unpacking charge the machine's per-byte
//! copy cost; the wire charges α + β·bytes through the transport.
//!
//! [`ExchangeOp`] is the only operation that really splits, and it holds
//! its messages itself: `post` packs every pair into one wire buffer and
//! charges each remote message through the transport's send half
//! (senders pay copy + α), keeping its arrival time; `finish` brings
//! each to its receiver through the arrival half (receiver clocks
//! advance to the arrival times) and unpacks. Shifts, ghost exchanges,
//! comm phases, `transfer`, `concatenation`, redistribution, the
//! schedule executors and the run-time library's remaps all run through
//! it; the blocking [`exchange`] wrapper is post-then-finish with
//! nothing in between. The trees ([`tree_broadcast`] along the
//! topology-shaped [`broadcast_plan`], the binomial [`tree_reduce`])
//! have stage dependencies, so every edge is one blocking
//! [`Transport::deliver`].

use std::ops::Range;

use f90d_distrib::{Dad, Locator};
use f90d_machine::{ArrayData, Machine, NodeMemory, Topology, Transport};

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
    /// `(from, to, end)` in 32-bit words, 12 bytes a pair: the pair's
    /// elements are `[previous end, end)` of both columns.
    pairs: Vec<(u32, u32, u32)>,
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
    pub fn of_moves(moves: &[ElementReq]) -> Self {
        // The first pass checks every field into its word; the others
        // read the fields it checked.
        let packed = |k: usize| {
            let r = &moves[k];
            [
                r.requester as u32,
                r.owner as u32,
                r.src_off as u32,
                r.dst_off as u32,
            ]
        };
        Self::sorted(moves.len(), |k| moves[k].words(), packed)
    }

    /// [`ExchangePlan::of_moves`] of moves given as their words,
    /// `[requester, owner, src_off, dst_off]` ([`ElementReq::words`]).
    pub fn of_words(words: &[[u32; 4]]) -> Self {
        Self::sorted(words.len(), |k| words[k], |k| words[k])
    }

    /// The plan of the `n` moves `at(0..n)`, whose words `checked(k)`
    /// reads checked: a stable counting sort on `(owner, requester)`.
    /// A first pass checks every move and finds the ranks' ranges. When
    /// a table of every `(owner, requester)` pair is not much bigger
    /// than the moves, the pair is the sort key: one pass counts each
    /// pair's moves, the table's running sum places the pairs, and a
    /// second pass writes every move straight into its pair's run of the
    /// columns. Both passes keep the current pair's entry in hand while
    /// moves repeat it, so a planner's runs of one pair cost no table
    /// traffic and an inspector's scattered pairs one entry a move.
    /// Otherwise — many ranks, few moves — it sorts least significant
    /// key first: into requester order, then by owner, and a pass over
    /// the requesters cuts each owner's run into pairs. The cutover is
    /// measured: the table sort is the faster up to about 2 entries a
    /// move on an inspector's scattered pairs and 3–4 on a planner's
    /// runs, and up to a few hundred entries on a handful of moves; the
    /// requester-then-owner sort alone made `schedule/build_8192_p16`
    /// 2.7× and the comm_path ghost exchange, redistribution and
    /// transpose 1.4–1.8× slower. Past the cutover the table is not just
    /// slower: on the 4096 ranks the daemon accepts it would hold 2^24
    /// entries for a shift of a few elements.
    fn sorted(
        n: usize,
        checked: impl Fn(usize) -> [u32; 4],
        at: impl Fn(usize) -> [u32; 4],
    ) -> Self {
        let (mut owners, mut requesters) = (0, 0);
        for k in 0..n {
            let [to, from, ..] = checked(k);
            owners = owners.max(from as usize + 1);
            requesters = requesters.max(to as usize + 1);
        }
        let (mut srcs, mut dsts) = (vec![0; n], vec![0; n]);
        let mut pairs = Vec::new();
        let table = owners.saturating_mul(requesters);
        if table <= 2 * n + 256 {
            let pair = |[to, from, ..]: [u32; 4]| from as usize * requesters + to as usize;
            let mut next = vec![0; table];
            let (mut held, mut run) = (0, 0);
            for k in 0..n {
                let id = pair(at(k));
                if id != held {
                    next[held] += run;
                    (held, run) = (id, 0);
                }
                run += 1;
            }
            if n > 0 {
                next[held] += run;
            }
            let mut end = 0;
            for (id, slot) in next.iter_mut().enumerate() {
                if *slot > 0 {
                    (*slot, end) = (end, end + *slot);
                    pairs.push((word(id / requesters), word(id % requesters), word(end)));
                }
            }
            let (mut held, mut slot) = (0, next.first().copied().unwrap_or(0));
            for k in 0..n {
                let move_ = at(k);
                let id = pair(move_);
                if id != held {
                    next[held] = slot;
                    (held, slot) = (id, next[id]);
                }
                [.., srcs[slot], dsts[slot]] = move_;
                slot += 1;
            }
        } else {
            let mut by_requester = vec![0; n];
            counting_sort(
                requesters,
                0..n,
                |k| at(k)[0] as usize,
                |slot, k| by_requester[slot] = k,
            );
            let mut tos = vec![0; n];
            let ends = counting_sort(
                owners,
                by_requester.into_iter(),
                |k| at(k)[1] as usize,
                |slot, k| [tos[slot], _, srcs[slot], dsts[slot]] = at(k),
            );
            let mut start = 0;
            for (from, &end) in ends.iter().enumerate() {
                for k in start..end {
                    if k + 1 == end || tos[k + 1] != tos[k] {
                        pairs.push((word(from), tos[k], word(k + 1)));
                    }
                }
                start = end;
            }
        }
        ExchangePlan { pairs, srcs, dsts }
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
        let (from, to) = (word(from), word(to));
        debug_assert!(self.pairs.last().map(|p| (p.0, p.1)) < Some((from, to)));
        self.srcs.extend(srcs.into_iter().map(word));
        self.dsts.extend(dsts.into_iter().map(word));
        debug_assert_eq!(self.srcs.len(), self.dsts.len());
        self.pairs.push((from, to, word(self.srcs.len())));
    }

    /// The `k`-th pair, in plan order.
    pub fn pair(&self, k: usize) -> PairRun<'_> {
        let (from, to, end) = self.pairs[k];
        let start = if k == 0 { 0 } else { self.pairs[k - 1].2 };
        let run = start as usize..end as usize;
        PairRun {
            from: from.into(),
            to: to.into(),
            srcs: &self.srcs[run.clone()],
            dsts: &self.dsts[run],
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

/// The stable counting sort of `items` by `key`, whose values are below
/// `keys`: `put(slot, item)` places each item at its slot, items of one
/// key in the order `items` lists them. Returns where each key's run of
/// slots ends.
fn counting_sort<I: Iterator<Item = usize> + Clone>(
    keys: usize,
    items: I,
    key: impl Fn(usize) -> usize,
    mut put: impl FnMut(usize, usize),
) -> Vec<usize> {
    let mut next = vec![0; keys];
    items.clone().for_each(|k| next[key(k)] += 1);
    let mut end = 0;
    for slot in &mut next {
        (*slot, end) = (end, end + *slot);
    }
    for k in items {
        let slot = &mut next[key(k)];
        put(*slot, k);
        *slot += 1;
    }
    next
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
/// The op holds its messages itself. `post` packs every pair, in pair
/// order, into one wire buffer and prices each remote message through
/// the transport's send half ([`Transport::charge_send`]); the op keeps
/// each message's arrival time and its place in the buffer. `finish`
/// brings each to its receiver through the arrival half
/// ([`Transport::arrive`]) and unpacks it. No payload, channel or
/// receive handle is made per pair, and the charges are the posted
/// trio's, in its order: one startup, one link transfer and one
/// `max(clock, arrival)` a message.
/// An op posted and never finished leaves its messages counted in
/// flight, so the run's quiescence check fails; one finished after a
/// transport reset fails itself.
///
/// The strips' sources must share one element type (the buffer carries
/// one). A strip's `src` and `dst` may name the same array only if no
/// pair has overlapping src/dst offsets on one node; redistribution
/// avoids this by staging through a fresh array.
///
/// The op borrows everything it runs from — names and plans belong to
/// whoever planned the exchange (a schedule, the per-run shift table, a
/// one-shot planner's local). Each array is looked up by name once per
/// rank and strip, not once per pair.
#[derive(Debug)]
pub struct ExchangeOp<'a> {
    strips: Vec<Strip<'a>>,
    /// Every strip's pairs as `[from, to, strip, pair index in its
    /// plan]`, in (pair, strip) order: a run of one `(from, to)` is one
    /// message.
    order: Vec<[u32; 4]>,
    /// What `post` sent; `None` until then.
    posted: Option<Posted>,
}

/// The messages of a posted [`ExchangeOp`].
#[derive(Debug)]
struct Posted {
    /// The transport epoch they were sent in.
    epoch: u64,
    /// Every element the exchange moves, pair after pair: the wire of
    /// the remote messages and the staging of the local copies.
    wire: ArrayData,
    /// Each remote message: its run of `order`, its arrival time and
    /// where its elements start in `wire`.
    sent: Vec<(Range<usize>, f64, usize)>,
    /// Each rank's `[src, dst]` slot of each strip's arrays, by `rank ×
    /// strips + strip`, looked up on first use in `post` and again in
    /// `finish`.
    slots: Vec<[u32; 2]>,
}

/// The slot of strip `s`'s source (`side` 0) or destination (1) array
/// on `rank`, whose memory is `mem`: `slots`' entry, looked up by name
/// on first use.
fn slot(
    slots: &mut [[u32; 2]],
    strips: &[Strip<'_>],
    mem: &NodeMemory,
    rank: i64,
    s: usize,
    side: usize,
) -> usize {
    let at = &mut slots[rank as usize * strips.len() + s][side];
    if *at == u32::MAX {
        let (src, dst, _) = strips[s];
        *at = word(mem.slot([src, dst][side]));
    }
    *at as usize
}

impl<'a> ExchangeOp<'a> {
    /// An exchange of every strip's elements, not yet posted.
    pub fn new(strips: Vec<Strip<'a>>) -> Self {
        let mut order: Vec<_> = (strips.iter().enumerate())
            .flat_map(|(s, &(_, _, plan))| {
                (plan.pairs.iter().enumerate())
                    .map(move |(k, &(from, to, _))| [from, to, s as u32, k as u32])
            })
            .collect();
        if strips.len() > 1 {
            order.sort_unstable();
        }
        ExchangeOp {
            strips,
            order,
            posted: None,
        }
    }

    /// `(strip, pair)` of entry `at` of the merged order.
    fn strip_pair(&self, at: usize) -> (usize, PairRun<'a>) {
        let [.., s, k] = self.order[at];
        (s as usize, self.strips[s as usize].2.pair(k as usize))
    }

    /// Perform the local copies, then pack every remote pair into the
    /// wire buffer and charge its send. Senders pay the packing copy
    /// cost and the startup α; receivers pay nothing yet.
    pub fn post(&mut self, m: &mut Machine) -> CommResult<()> {
        if self.posted.is_some() {
            return Err(CommError("exchange posted twice".into()));
        }
        let total = self.strips.iter().map(|&(.., plan)| plan.len()).sum();
        let wire = match self.order.first() {
            Some(&[from, _, s, _]) => {
                let ty = m.mems[from as usize].array(self.strips[s as usize].0);
                ArrayData::with_capacity(ty.elem_type(), total)
            }
            None => ArrayData::Int(Vec::new()),
        };
        let mut posted = Posted {
            epoch: m.transport.epoch(),
            wire,
            sent: Vec::with_capacity(self.order.len()),
            slots: vec![[u32::MAX; 2]; m.mems.len() * self.strips.len()],
        };
        let Posted {
            wire, sent, slots, ..
        } = &mut posted;
        let mut start = 0;
        while start < self.order.len() {
            let [from, to, ..] = self.order[start];
            let same_pair = |o: &&[u32; 4]| o[..2] == [from, to];
            let end = start + self.order[start..].iter().take_while(same_pair).count();
            let (from, to) = (i64::from(from), i64::from(to));
            let mem = &mut m.mems[from as usize];
            if from == to {
                // Each strip is staged through the wire before the next
                // is read, so `src == dst` needs no care about
                // overlapping offsets.
                let mut bytes = 0;
                for k in start..end {
                    let (s, pair) = self.strip_pair(k);
                    let src = slot(slots, &self.strips, mem, from, s, 0);
                    let first = wire.len();
                    mem.segments()[src]
                        .gather_flat_into(pair.srcs.iter().map(|&o| o as usize), wire);
                    let dst = slot(slots, &self.strips, mem, from, s, 1);
                    let a = &mut mem.segments_mut()[dst];
                    a.scatter_flat_from(pair.dsts.iter().map(|&o| o as usize), wire, first);
                    bytes += pair.dsts.len() as i64 * a.elem_type().bytes();
                }
                m.transport.charge_copy(from, bytes);
            } else {
                let at = wire.len();
                for k in start..end {
                    let (s, pair) = self.strip_pair(k);
                    let src = slot(slots, &self.strips, mem, from, s, 0);
                    mem.segments()[src]
                        .gather_flat_into(pair.srcs.iter().map(|&o| o as usize), wire);
                }
                let bytes = (wire.len() - at) as i64 * wire.elem_type().bytes();
                m.transport.charge_copy(from, bytes);
                let arrival = m.transport.charge_send(from, to, bytes);
                sent.push((start..end, arrival, at));
            }
            start = end;
        }
        self.posted = Some(posted);
        Ok(())
    }

    /// Bring every posted message to its receiver in pair order —
    /// the receiver's clock advances to the arrival time — charge the
    /// unpack copy, and deposit each strip's elements.
    pub fn finish(mut self, m: &mut Machine) -> CommResult<()> {
        let Some(mut posted) = self.posted.take() else {
            return Err(CommError("exchange finished before post".into()));
        };
        if posted.epoch != m.transport.epoch() {
            return Err(CommError(format!(
                "exchange finish: {} message(s) posted before a transport reset",
                posted.sent.len()
            )));
        }
        let Posted {
            wire, sent, slots, ..
        } = &mut posted;
        // The caller may have removed an array since `post`, which
        // moves another into its slot (`NodeMemory::remove_array`): look
        // every destination up again, still once per rank and strip.
        slots.fill([u32::MAX; 2]);
        for (run, arrival, at) in sent.drain(..) {
            let to = i64::from(self.order[run.start][1]);
            m.transport.arrive(to, arrival);
            let mem = &mut m.mems[to as usize];
            let mut off = at;
            for k in run {
                let (s, pair) = self.strip_pair(k);
                let dst = slot(slots, &self.strips, mem, to, s, 1);
                let a = &mut mem.segments_mut()[dst];
                off = a.scatter_flat_from(pair.dsts.iter().map(|&o| o as usize), wire, off);
            }
            m.transport
                .charge_copy(to, (off - at) as i64 * wire.elem_type().bytes());
        }
        Ok(())
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
    fn a_posted_exchange_never_finished_is_not_quiescent() {
        // A(0) of rank r goes to A(3) of rank r − 1: three messages.
        let mut m = mk_machine(4);
        for mem in &mut m.mems {
            mem.insert_array("A", LocalArray::zeros(ElemType::Real, &[4]));
        }
        let moves: Vec<_> = (1..4).map(|r| ElementReq::moving(r, r - 1, 0, 3)).collect();
        let plan = ExchangePlan::of_moves(&moves);
        let mut op = ExchangeOp::new(vec![("A", "A", &plan)]);
        op.post(&mut m).unwrap();
        drop(op);
        assert_eq!(m.transport.messages, 3);
        assert!(!m.transport.quiescent());
        assert_eq!(
            m.transport.quiescent_check(),
            Err(f90d_machine::TransportError::NotQuiescent {
                in_flight: 3,
                open_recvs: 0,
                example: None,
            })
        );
    }

    #[test]
    fn finish_finds_a_destination_moved_since_post() {
        // Rank 0 copies S(0) into D(1) itself at post and receives rank
        // 1's S(0) into D(0) at finish. In between it drops T, which
        // moves D into T's slot, and allocates E in D's old one.
        let mut m = mk_machine(2);
        for (r, mem) in m.mems.iter_mut().enumerate() {
            mem.insert_array("T", LocalArray::zeros(ElemType::Real, &[2]));
            mem.insert_array("S", LocalArray::zeros(ElemType::Real, &[2]));
            mem.insert_array("D", LocalArray::zeros(ElemType::Real, &[2]));
            mem.array_mut("S").set(&[0], Value::Real(r as f64 + 1.0));
        }
        let moves = [
            ElementReq::moving(0, 0, 0, 1),
            ElementReq::moving(1, 0, 0, 0),
        ];
        let plan = ExchangePlan::of_moves(&moves);
        let mut op = ExchangeOp::new(vec![("S", "D", &plan)]);
        op.post(&mut m).unwrap();
        let mem = &mut m.mems[0];
        mem.remove_array("T").unwrap();
        mem.insert_array("E", LocalArray::zeros(ElemType::Real, &[2]));
        op.finish(&mut m).unwrap();
        let mem = &m.mems[0];
        assert_eq!(mem.array("D").get(&[0]), Value::Real(2.0));
        assert_eq!(mem.array("D").get(&[1]), Value::Real(1.0));
        assert_eq!(mem.array("E").get(&[0]), Value::Real(0.0));
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
