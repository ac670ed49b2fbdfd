//! Unstructured communication: inspector/executor schedules
//! (paper §5.3.2, after the PARTI runtime of Saltz et al.).
//!
//! The *inspector* (preprocessing loop) computes, per processor, the
//! send/receive processor lists and local index lists; the *executor*
//! carries out the exchange with fully vectorized messages. Three
//! schedule builders mirror the paper:
//!
//! * `schedule1` — `precomp_read`/`postcomp_write`: the subscript is an
//!   invertible function `f(i)`, so both senders and receivers enumerate
//!   their lists from **local** information only;
//! * `schedule2` — `gather`: receivers know what they need, senders don't;
//!   the inspector performs a fan-in exchange of request lists;
//! * `schedule3` — `scatter`: senders know what they produce, receivers
//!   don't; the inspector exchanges counts only (no separate local-index
//!   message, as the paper notes).
//!
//! A built [`Schedule`] is *reusable*: executing it again performs only
//! the data exchange, amortizing the inspector (paper §7, optimization 3).
//! The compiler's schedule-reuse optimization keys schedules by their
//! whole request pattern — see [`SchedKey`](crate::sched_cache::SchedKey).

use f90d_machine::{ElemType, Machine, Transport};

use crate::helpers::ExchangePlan;
use crate::op::CommResult;

/// Which inspector built the schedule (affects modelled preprocessing
/// cost, not executor semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScheduleKind {
    /// `schedule1`: local-only preprocessing (invertible subscript).
    LocalOnly,
    /// `schedule2`: receivers fan requests in to owners.
    FanInRequests,
    /// `schedule3`: senders announce counts to receivers.
    SenderDriven,
}

impl ScheduleKind {
    /// The stats name the builder records (`schedule1`/`schedule2`/
    /// `schedule3`).
    pub fn stat_name(self) -> &'static str {
        match self {
            ScheduleKind::LocalOnly => "schedule1",
            ScheduleKind::FanInRequests => "schedule2",
            ScheduleKind::SenderDriven => "schedule3",
        }
    }
}

/// An executable communication schedule: the vectorized element moves
/// and the inspector family that priced them.
#[derive(Debug, Clone)]
pub struct Schedule {
    kind: ScheduleKind,
    /// Per (src_rank, dst_rank), the ordered (src flat offset, dst flat
    /// offset) moves the executors run.
    plan: ExchangePlan,
}

impl Schedule {
    /// The schedule of the requests `words` ([`ElementReq::words`], in
    /// inspector order) under inspector family `kind`: the pure
    /// data-structure half of an inspector, [`ExchangePlan::of_words`],
    /// with no machine-time charges. [`crate::sched_cache`] calls this
    /// on a miss and skips it on a hit; the cost-model half
    /// ([`inspect`]) is charged on every run either way, which is what
    /// keeps cached and uncached runs virtual-time identical.
    pub fn of_words(kind: ScheduleKind, words: &[[u32; 4]]) -> Self {
        Schedule {
            kind,
            plan: ExchangePlan::of_words(words),
        }
    }

    /// The inspector family that built this schedule.
    pub fn kind(&self) -> ScheduleKind {
        self.kind
    }

    /// The element moves the executors run: two schedules with equal
    /// plans move the same elements in the same messages.
    pub fn plan(&self) -> &ExchangePlan {
        &self.plan
    }

    /// Total number of elements moved between distinct nodes.
    pub fn remote_elements(&self) -> usize {
        self.plan.remote_elements()
    }

    /// Number of point-to-point messages the executor will send.
    pub fn message_count(&self) -> usize {
        self.plan.remote().count()
    }
}

/// One element request: rank `requester` wants the element at flat offset
/// `src_off` on rank `owner` placed at flat offset `dst_off` in its
/// destination array — a move as a planner states it. What is kept of
/// it, in a plan's columns or a cached schedule's key, is 32-bit words
/// ([`ElementReq::words`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementReq {
    /// Rank that will receive the element.
    pub requester: i64,
    /// Rank that owns the element.
    pub owner: i64,
    /// Flat offset in the owner's source array.
    pub src_off: usize,
    /// Flat offset in the requester's destination array.
    pub dst_off: usize,
}

/// Elements a rank segment may hold, ghost cells included: one past
/// the greatest flat offset a plan stores in a 32-bit word. The VM
/// refuses a declaration past it before allocating anything.
pub const SEGMENT_LIMIT: u64 = 1 << 32;

/// `x` as a plan word: a rank, or a flat offset into a rank segment,
/// which holds fewer than [`SEGMENT_LIMIT`] elements.
///
/// # Panics
/// Panics, naming that invariant, on a value past 32 bits.
#[inline]
pub(crate) fn word<T: TryInto<u32> + Copy + std::fmt::Display>(x: T) -> u32 {
    x.try_into().unwrap_or_else(|_| {
        panic!("plan word {x} past 32 bits: a rank segment holds fewer than 2^32 elements")
    })
}

impl ElementReq {
    /// The move of the element at flat offset `src_off` on rank `from`
    /// to flat offset `dst_off` on rank `to`.
    pub fn moving(from: i64, to: i64, src_off: usize, dst_off: usize) -> Self {
        ElementReq {
            requester: to,
            owner: from,
            src_off,
            dst_off,
        }
    }

    /// The request as kept: `[requester, owner, src_off, dst_off]` in
    /// 32-bit words, 16 bytes. Every field fits: a rank segment holds
    /// fewer than [`SEGMENT_LIMIT`] elements, and a grid fewer than
    /// 2^32 ranks.
    ///
    /// # Panics
    /// Panics, naming that invariant, on a field past 32 bits.
    #[inline]
    pub fn words(&self) -> [u32; 4] {
        [
            word(self.requester),
            word(self.owner),
            word(self.src_off),
            word(self.dst_off),
        ]
    }
}

/// [`Schedule::of_words`] of a request list as planners state it:
/// [`ExchangePlan::of_moves`], which reads each request's words.
pub fn build_schedule(kind: ScheduleKind, reqs: &[ElementReq]) -> Schedule {
    Schedule {
        kind,
        plan: ExchangePlan::of_moves(reqs),
    }
}

/// The modelled cost of running `sched`'s inspector over the request
/// list it was built from: records the builder stat and charges the
/// preprocessing loop (and, for `schedule2`/`schedule3`, the real
/// fan-in/count messages) to the machine. Split from [`build_schedule`]
/// so the schedule cache can charge a run that skips the rebuild, and
/// read off the move table — per processor pair, not per request: the
/// table holds every request exactly once under its `(owner,
/// requester)`, which is all the cost model looks at.
pub fn inspect(m: &mut Machine, sched: &Schedule) -> CommResult<()> {
    let kind = sched.kind;
    m.stats.record(kind.stat_name());
    // Local preprocessing loop: ~4 ops per element (proc-of, local-of,
    // list appends), charged as one lump where the loop runs: on the
    // requesters for schedule1/schedule2 (read side), on the producers
    // for schedule3.
    let read_side = kind != ScheduleKind::SenderDriven;
    let mut per_rank = vec![0i64; m.nranks() as usize];
    for pair in sched.plan.pairs() {
        let runner = if read_side { pair.to } else { pair.from };
        per_rank[runner as usize] += 4 * pair.srcs.len() as i64;
    }
    for (rank, &ops) in per_rank.iter().enumerate() {
        if ops > 0 {
            m.transport.charge_elem_ops(rank as i64, ops);
        }
    }
    if kind == ScheduleKind::LocalOnly {
        return Ok(());
    }
    // The inspector's own messages, one per remote pair in sender
    // order, all sent before the first arrives. They carry nothing the
    // model reads, so they are priced by their bytes alone, through
    // the transport's two halves.
    let mut remote: Vec<(i64, i64, usize)> = sched
        .plan
        .remote()
        .map(|pair| match kind {
            // Receivers transmit their index lists to owners: 8 bytes
            // per element.
            ScheduleKind::FanInRequests => (pair.to, pair.from, pair.srcs.len()),
            // Senders announce counts: one 8-byte message.
            _ => (pair.from, pair.to, 1),
        })
        .collect();
    remote.sort_unstable();
    let arrivals: Vec<f64> = (remote.iter())
        .map(|&(from, to, n)| {
            m.transport
                .charge_send(from, to, n as i64 * ElemType::Int.bytes())
        })
        .collect();
    for (&(_, to, _), arrival) in remote.iter().zip(arrivals) {
        m.transport.arrive(to, arrival);
    }
    Ok(())
}

/// Inspector + builder of one family, uncached.
fn inspect_and_build(
    m: &mut Machine,
    kind: ScheduleKind,
    reqs: &[ElementReq],
) -> CommResult<Schedule> {
    let sched = build_schedule(kind, reqs);
    inspect(m, &sched)?;
    Ok(sched)
}

/// `schedule1` (paper §5.3.2 example 1): invertible subscript — both
/// sides preprocess locally, no inspector communication.
pub fn schedule1(m: &mut Machine, reqs: &[ElementReq]) -> CommResult<Schedule> {
    inspect_and_build(m, ScheduleKind::LocalOnly, reqs)
}

/// `schedule2` (paper §5.3.2 example 2): gather — receivers fan their
/// request lists in to the owners.
pub fn schedule2(m: &mut Machine, reqs: &[ElementReq]) -> CommResult<Schedule> {
    inspect_and_build(m, ScheduleKind::FanInRequests, reqs)
}

/// `schedule3` (paper §5.3.2 example 3): scatter — senders know targets;
/// only counts are exchanged.
pub fn schedule3(m: &mut Machine, reqs: &[ElementReq]) -> CommResult<Schedule> {
    inspect_and_build(m, ScheduleKind::SenderDriven, reqs)
}

/// The executor for read-side schedules: `precomp_read` when the schedule
/// came from `schedule1`, `gather` when from `schedule2`. Moves elements
/// from `src` (on owners) into `dst` (on requesters), one vectorized
/// message per processor pair.
pub fn execute_read(m: &mut Machine, sched: &Schedule, src: &str, dst: &str) -> CommResult<()> {
    m.stats.record(match sched.kind {
        ScheduleKind::LocalOnly => "precomp_read",
        _ => "gather",
    });
    crate::helpers::exchange(m, src, dst, &sched.plan)
}

/// The executor for write-side schedules: `postcomp_write` (`schedule1`) or
/// `scatter` (`schedule3`). Identical data motion with roles swapped:
/// producers send computed elements to the owners of the LHS.
pub fn execute_write(m: &mut Machine, sched: &Schedule, src: &str, dst: &str) -> CommResult<()> {
    m.stats.record(match sched.kind {
        ScheduleKind::LocalOnly => "postcomp_write",
        _ => "scatter",
    });
    crate::helpers::exchange(m, src, dst, &sched.plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::ProcGrid;
    use f90d_machine::{ElemType, LocalArray, MachineSpec, Value};

    fn machine(p: i64) -> Machine {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[p]));
        for r in 0..p {
            let mut src = LocalArray::zeros(ElemType::Real, &[8]);
            for l in 0..8 {
                src.set(&[l], Value::Real((r * 100 + l) as f64));
            }
            m.mems[r as usize].insert_array("SRC", src);
            m.mems[r as usize].insert_array("DST", LocalArray::zeros(ElemType::Real, &[8]));
        }
        m
    }

    /// The construction [`build_schedule`] replaced, kept as its
    /// oracle: every request appended to its `(owner, requester)`
    /// bucket of a `BTreeMap`, the plan read off the map in key order.
    fn build_by_tree(kind: ScheduleKind, reqs: &[ElementReq]) -> Schedule {
        let mut moves = std::collections::BTreeMap::<_, Vec<_>>::new();
        for r in reqs {
            let pair = moves.entry((r.owner, r.requester)).or_default();
            pair.push((r.src_off, r.dst_off));
        }
        let mut plan = ExchangePlan::default();
        for ((from, to), elems) in moves {
            plan.push(
                from,
                to,
                elems.iter().map(|e| e.0),
                elems.iter().map(|e| e.1),
            );
        }
        Schedule { kind, plan }
    }

    /// The counting sort builds the oracle's plan — the same pairs in
    /// the same order, each pair's elements in the same order — on
    /// random request lists over 1 to 1000 ranks, each also listed
    /// requester by requester as an inspector lists it, and in runs of
    /// one pair as a planner lists them, and on the edge
    /// cases: no request, a single pair, every request local, and pairs
    /// that come back out of order between other pairs. The words path
    /// builds the same plan.
    #[test]
    fn counting_sort_is_the_tree_construction() {
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |below: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % below) as i64
        };
        let req = |requester: i64, owner: i64, src_off: i64, dst_off: i64| ElementReq {
            requester,
            owner,
            src_off: src_off as usize,
            dst_off: dst_off as usize,
        };
        let mut lists: Vec<Vec<ElementReq>> = vec![
            Vec::new(),
            (0..9).map(|k| req(2, 5, 8 - k, k)).collect(),
            (0..12).map(|k| req(k % 4, k % 4, k, 11 - k)).collect(),
            [(1, 0), (0, 1), (1, 0), (3, 3), (0, 1), (1, 0), (2, 1)]
                .iter()
                .enumerate()
                .map(|(k, &(r, o))| req(r, o, k as i64 * 3, k as i64))
                .collect(),
        ];
        for k in 0..300 {
            // A third over up to a thousand ranks: pairs that rarely
            // repeat.
            let p = 1 + next(if k % 3 == 0 { 1000 } else { 16 }) as u64;
            let n = next(200);
            let mut list: Vec<_> = (0..n).map(|k| req(next(p), next(p), next(64), k)).collect();
            lists.push(list.clone());
            list.sort_by_key(|r| r.requester);
            lists.push(list);
            // Runs of one pair, as a planner lists them, a pair coming
            // back after others.
            let mut runs = Vec::new();
            for _ in 0..next(30) {
                let (requester, owner) = (next(p), next(p));
                for _ in 0..1 + next(12) {
                    runs.push(req(requester, owner, next(64), runs.len() as i64));
                }
            }
            lists.push(runs);
        }
        for reqs in &lists {
            let (got, want) = (
                build_schedule(ScheduleKind::FanInRequests, reqs),
                build_by_tree(ScheduleKind::FanInRequests, reqs),
            );
            assert_eq!(got.plan, want.plan, "{reqs:?}");
            assert_eq!(got.message_count(), want.message_count());
            let words: Vec<_> = reqs.iter().map(ElementReq::words).collect();
            assert_eq!(Schedule::of_words(got.kind, &words).plan, want.plan);
        }
    }

    #[test]
    fn gather_moves_requested_elements() {
        let mut m = machine(3);
        // rank 0 wants SRC[2] of rank 1 into DST[0], SRC[3] of rank 2 into DST[1]
        let reqs = vec![
            ElementReq {
                requester: 0,
                owner: 1,
                src_off: 2,
                dst_off: 0,
            },
            ElementReq {
                requester: 0,
                owner: 2,
                src_off: 3,
                dst_off: 1,
            },
            ElementReq {
                requester: 2,
                owner: 0,
                src_off: 5,
                dst_off: 7,
            },
        ];
        let sched = schedule2(&mut m, &reqs).unwrap();
        assert_eq!(sched.message_count(), 3);
        assert_eq!(sched.remote_elements(), 3);
        execute_read(&mut m, &sched, "SRC", "DST").unwrap();
        assert_eq!(m.mems[0].array("DST").get(&[0]), Value::Real(102.0));
        assert_eq!(m.mems[0].array("DST").get(&[1]), Value::Real(203.0));
        assert_eq!(m.mems[2].array("DST").get(&[7]), Value::Real(5.0));
    }

    #[test]
    fn messages_are_vectorized_per_pair() {
        let mut m = machine(2);
        // 5 elements all from rank 1 to rank 0 → exactly one data message.
        let reqs: Vec<ElementReq> = (0..5)
            .map(|k| ElementReq {
                requester: 0,
                owner: 1,
                src_off: k,
                dst_off: k,
            })
            .collect();
        let sched = schedule1(&mut m, &reqs).unwrap();
        let before = m.transport.messages;
        execute_read(&mut m, &sched, "SRC", "DST").unwrap();
        assert_eq!(m.transport.messages - before, 1, "vectorization failed");
    }

    #[test]
    fn schedule1_inspector_is_local() {
        let mut m = machine(4);
        let reqs = vec![ElementReq {
            requester: 0,
            owner: 3,
            src_off: 0,
            dst_off: 0,
        }];
        let msgs_before = m.transport.messages;
        schedule1(&mut m, &reqs).unwrap();
        assert_eq!(
            m.transport.messages, msgs_before,
            "schedule1 must not communicate"
        );
    }

    #[test]
    fn schedule2_inspector_communicates() {
        let mut m = machine(4);
        let reqs = vec![ElementReq {
            requester: 0,
            owner: 3,
            src_off: 0,
            dst_off: 0,
        }];
        let msgs_before = m.transport.messages;
        schedule2(&mut m, &reqs).unwrap();
        assert!(
            m.transport.messages > msgs_before,
            "schedule2 fans in requests"
        );
    }

    #[test]
    fn reuse_skips_inspector_cost() {
        let mut m = machine(4);
        let reqs: Vec<ElementReq> = (0..32)
            .map(|k| ElementReq {
                requester: k % 4,
                owner: (k + 1) % 4,
                src_off: (k / 4) as usize,
                dst_off: (k / 4) as usize,
            })
            .collect();
        let sched = schedule2(&mut m, &reqs).unwrap();
        m.reset_time();
        execute_read(&mut m, &sched, "SRC", "DST").unwrap();
        let exec_only = m.elapsed();
        m.reset_time();
        let sched2 = schedule2(&mut m, &reqs).unwrap();
        execute_read(&mut m, &sched2, "SRC", "DST").unwrap();
        let with_inspector = m.elapsed();
        assert!(with_inspector > exec_only, "inspector must cost something");
        assert_eq!(sched.plan, sched2.plan);
    }

    #[test]
    fn plans_differ_for_different_patterns() {
        let mut m = machine(2);
        let a = schedule1(
            &mut m,
            &[ElementReq {
                requester: 0,
                owner: 1,
                src_off: 0,
                dst_off: 0,
            }],
        )
        .unwrap();
        let b = schedule1(
            &mut m,
            &[ElementReq {
                requester: 0,
                owner: 1,
                src_off: 1,
                dst_off: 0,
            }],
        )
        .unwrap();
        assert_ne!(a.plan, b.plan);
    }

    #[test]
    fn scatter_writes_to_owners() {
        let mut m = machine(2);
        // rank 0 produced DST-values in SRC[0..2] destined for rank 1.
        let reqs = vec![
            ElementReq {
                requester: 1,
                owner: 0,
                src_off: 0,
                dst_off: 4,
            },
            ElementReq {
                requester: 1,
                owner: 0,
                src_off: 1,
                dst_off: 5,
            },
        ];
        let sched = schedule3(&mut m, &reqs).unwrap();
        execute_write(&mut m, &sched, "SRC", "DST").unwrap();
        assert_eq!(m.mems[1].array("DST").get(&[4]), Value::Real(0.0));
        assert_eq!(m.mems[1].array("DST").get(&[5]), Value::Real(1.0));
    }

    #[test]
    fn local_requests_cost_no_messages() {
        let mut m = machine(2);
        let reqs = vec![ElementReq {
            requester: 0,
            owner: 0,
            src_off: 1,
            dst_off: 2,
        }];
        let sched = schedule2(&mut m, &reqs).unwrap();
        let before = m.transport.messages;
        execute_read(&mut m, &sched, "SRC", "DST").unwrap();
        assert_eq!(m.transport.messages, before);
        assert_eq!(m.mems[0].array("DST").get(&[2]), Value::Real(1.0));
        assert_eq!(sched.message_count(), 0);
    }
}
