//! `ExchangeOp` holds its own messages — one wire buffer, an arrival
//! time a message — and prices them through the transport's two
//! halves. On random multi-strip plans over 1 to 16 ranks, with local
//! pairs, the contention model on and off, and compute charged on random
//! ranks between `post` and `finish`, it must end with the clocks (by
//! bits), the message and byte counts, the links used and every
//! deposited array of the same pairs posted through `post_send` +
//! `post_recv` + `complete` in the op's order, and both must be
//! quiescent.

use f90d_comm::helpers::{ExchangeOp, ExchangePlan, Strip};
use f90d_comm::schedule::ElementReq;
use f90d_distrib::ProcGrid;
use f90d_machine::{ArrayData, ElemType, LocalArray, Machine, MachineSpec, Topology, Transport};
use proptest::prelude::*;

/// Elements of every array on every rank.
const LEN: usize = 8;

/// A machine of `p` ranks, each holding `S0..` and `D0..` (`strips`
/// of each), the sources filled with values unique across ranks.
fn machine(family: usize, p: i64, strips: usize, contention: bool) -> Machine {
    let topology = match family {
        0 => Topology::Hypercube,
        1 => Topology::Mesh2D { rows: 4, cols: 4 },
        _ => Topology::FatTree {
            arity: 2,
            levels: 4,
        },
    };
    let spec = MachineSpec {
        topology,
        ..MachineSpec::ipsc860()
    };
    let mut m = Machine::new(spec, ProcGrid::new(&[p]));
    m.set_contention(contention);
    for (rank, mem) in m.mems.iter_mut().enumerate() {
        for s in 0..strips {
            let mut src = LocalArray::zeros(ElemType::Real, &[LEN as i64]);
            let vals = (0..LEN)
                .map(|l| (1000 * s + 100 * rank + l) as f64)
                .collect();
            src.scatter_flat(0..LEN, &ArrayData::Real(vals));
            mem.insert_array(format!("S{s}"), src);
            mem.insert_array(
                format!("D{s}"),
                LocalArray::zeros(ElemType::Real, &[LEN as i64]),
            );
        }
    }
    m
}

/// The exchange as the posted trio runs it: the pairs of every strip
/// merged in `(from, to)` order, strips in order within a pair; a local
/// pair copied strip by strip at post time, a remote one packed into a
/// payload of its own, sent and its receive posted; then, after
/// `between` has run, every receive completed and unpacked in order.
fn by_the_trio(m: &mut Machine, strips: &[Strip<'_>], between: impl FnOnce(&mut Machine)) {
    let mut order: Vec<_> = (strips.iter().enumerate())
        .flat_map(|(s, &(.., plan))| plan.pairs().map(move |p| (p.from, p.to, s, p)))
        .collect();
    order.sort_by_key(|&(from, to, s, _)| (from, to, s));
    let tag = m.fresh_tag();
    let mut pending = Vec::new();
    let mut start = 0;
    while start < order.len() {
        let (from, to, ..) = order[start];
        let len = order[start..]
            .iter()
            .take_while(|o| (o.0, o.1) == (from, to))
            .count();
        let run = &order[start..start + len];
        let mem = &mut m.mems[from as usize];
        let offsets = |offs: &[u32]| offs.iter().map(|&o| o as usize).collect::<Vec<_>>();
        if from == to {
            let mut bytes = 0;
            for &(.., s, pair) in run {
                let (src, dst, _) = strips[s];
                let staged = mem.array(src).gather_flat(offsets(pair.srcs));
                let a = mem.array_mut(dst);
                a.scatter_flat(offsets(pair.dsts), &staged);
                bytes += pair.dsts.len() as i64 * a.elem_type().bytes();
            }
            m.transport.charge_copy(from, bytes);
        } else {
            let mut payload = ArrayData::zeros(ElemType::Real, 0);
            for &(.., s, pair) in run {
                mem.array(strips[s].0)
                    .gather_flat_into(offsets(pair.srcs), &mut payload);
            }
            let bytes = payload.len() as i64 * payload.elem_type().bytes();
            m.transport.charge_copy(from, bytes);
            m.transport.post_send(from, to, tag, payload);
            pending.push((run, m.transport.post_recv(to, from, tag)));
        }
        start += len;
    }
    between(m);
    for (run, h) in pending {
        let payload = m.transport.complete(h).expect("a message per receive");
        let to = run[0].1;
        let bytes = payload.len() as i64 * payload.elem_type().bytes();
        m.transport.charge_copy(to, bytes);
        let mut off = 0;
        for &(.., s, pair) in run {
            let a = m.mems[to as usize].array_mut(strips[s].1);
            off = a.scatter_flat_from(pair.dsts.iter().map(|&o| o as usize), &payload, off);
        }
        assert_eq!(off, payload.len());
    }
}

fn assert_same(a: &Machine, b: &Machine, strips: usize) -> Result<(), TestCaseError> {
    let bits = |m: &Machine| {
        (m.transport.clocks.iter())
            .map(|c| c.to_bits())
            .collect::<Vec<_>>()
    };
    prop_assert_eq!(bits(a), bits(b));
    prop_assert_eq!(a.transport.messages, b.transport.messages);
    prop_assert_eq!(a.transport.bytes, b.transport.bytes);
    prop_assert_eq!(a.transport.links_used(), b.transport.links_used());
    for (ma, mb) in a.mems.iter().zip(&b.mems) {
        for s in 0..strips {
            let dst = format!("D{s}");
            prop_assert_eq!(ma.array(&dst), mb.array(&dst), "{}", dst);
        }
    }
    prop_assert_eq!(a.transport.quiescent_check(), Ok(()));
    prop_assert_eq!(b.transport.quiescent_check(), Ok(()));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn a_held_exchange_is_the_posted_trio(
        family in 0usize..3,
        contention in 0usize..2,
        p in 1i64..=16,
        nstrips in 1usize..=3,
        seed in 0i64..i64::MAX,
    ) {
        let mut rng = seed as u64 | 1;
        let mut next = move |below: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            rng % below
        };
        let plans: Vec<ExchangePlan> = (0..nstrips)
            .map(|_| {
                let n = next(40);
                let moves: Vec<_> = (0..n)
                    .map(|_| {
                        let from = next(p as u64) as i64;
                        // A local pair about one move in four.
                        let to = if next(4) == 0 { from } else { next(p as u64) as i64 };
                        ElementReq::moving(from, to, next(LEN as u64) as usize, next(LEN as u64) as usize)
                    })
                    .collect();
                ExchangePlan::of_moves(&moves)
            })
            .collect();
        let names: Vec<(String, String)> =
            (0..nstrips).map(|s| (format!("S{s}"), format!("D{s}"))).collect();
        let strips: Vec<Strip<'_>> = (names.iter().zip(&plans))
            .map(|((src, dst), plan)| (src.as_str(), dst.as_str(), plan))
            .collect();
        // Clocks apart before the exchange, and compute on random ranks
        // while it is in flight.
        let before: Vec<(i64, f64)> =
            (0..next(4)).map(|_| (next(p as u64) as i64, next(500) as f64 * 1e-6)).collect();
        let between: Vec<(i64, f64)> =
            (0..next(6)).map(|_| (next(p as u64) as i64, next(500) as f64 * 1e-6)).collect();
        let charge = |m: &mut Machine, charges: &[(i64, f64)]| {
            for &(rank, dt) in charges {
                m.transport.charge_compute(rank, dt);
            }
        };
        let mut held = machine(family, p, nstrips, contention == 1);
        let mut trio = machine(family, p, nstrips, contention == 1);
        charge(&mut held, &before);
        charge(&mut trio, &before);

        let mut op = ExchangeOp::new(strips.clone());
        op.post(&mut held).unwrap();
        charge(&mut held, &between);
        op.finish(&mut held).unwrap();
        by_the_trio(&mut trio, &strips, |m| charge(m, &between));
        assert_same(&held, &trio, nstrips)?;
    }
}
