//! The message path's results, pinned. Every structured primitive and a
//! coalesced phase exchange run on 1-D and 2-D BLOCK and CYCLIC layouts
//! (4, 6 and 16 ranks, REAL and INTEGER arrays); each scenario's
//! fingerprint — every padded cell of every array on every rank, every
//! rank clock by `to_bits`, `messages` and `bytes` — must equal the
//! value recorded in [`GOLDEN`].
//!
//! The golden values were recorded by running this file against the
//! implementation that packed and deposited one `Value` per element
//! through `get_flat`/`set_flat` (the commit before the typed
//! `gather_flat`/`scatter_flat` path and the drained channel table), so
//! they are that oracle's output, not the current code's. To re-record
//! after an intended change of the cost model, empty `GOLDEN`: the
//! failure message prints the table to paste.
//!
//! The unstructured scenarios (gather / `precomp_read` / scatter /
//! `postcomp_write`, on the same layouts plus one replicated along a
//! grid axis; duplicate, out-of-order and many-to-one patterns; a
//! repeat of each through the same `RunSchedules`, which must skip the
//! inspector charge) were recorded the same way one change later: by
//! running this file on the commit before the allocation-free locate,
//! the flat `ScatterOut` and the by-value request lists, with the two
//! shims [`run_gather`] and [`run_scatter`] written against that
//! commit's signatures (`GatherRequests::new(name, dad, nranks)` +
//! `push(&m, rank, g)`; `driver::scatter(.., ty, &[Vec<(Vec<i64>,
//! Value)>], ..)`) and nothing else changed.
//!
//! Each scenario also checks the channel-lifetime rule: once a
//! collective returns, the transport holds no channel at all.

use f90d_comm::driver::{self, CommDriver, GatherRequests, GhostSpec, ScatterOut};
use f90d_comm::helpers::exchange;
use f90d_comm::sched_cache::{RunSchedules, StmtId};
use f90d_comm::structured::{
    alloc_slab_tmp, concatenation, multicast, multicast_shift, temporary_shift, transfer,
};
use f90d_distrib::{Dad, DadBuilder, DistKind, ProcGrid};
use f90d_machine::{ElemType, LocalArray, Machine, MachineSpec, Transport, Value};

use DistKind::{Block, Collapsed, Cyclic};

struct Layout {
    name: &'static str,
    shape: &'static [i64],
    kinds: &'static [DistKind],
    grid: &'static [i64],
}

const LAYOUTS: [Layout; 6] = [
    Layout {
        name: "block1d",
        shape: &[37],
        kinds: &[Block],
        grid: &[4],
    },
    Layout {
        name: "cyclic1d",
        shape: &[37],
        kinds: &[Cyclic],
        grid: &[4],
    },
    Layout {
        name: "block_block",
        shape: &[9, 10],
        kinds: &[Block, Block],
        grid: &[2, 3],
    },
    Layout {
        name: "cyclic_block",
        shape: &[10, 9],
        kinds: &[Cyclic, Block],
        grid: &[3, 2],
    },
    Layout {
        name: "star_block16",
        shape: &[8, 40],
        kinds: &[Collapsed, Block],
        grid: &[16],
    },
    Layout {
        name: "block_block16",
        shape: &[16, 16],
        kinds: &[Block, Block],
        grid: &[4, 4],
    },
];

const GHOST: i64 = 2;

fn dad_of(l: &Layout) -> Dad {
    DadBuilder::new("B", l.shape)
        .distribute(l.kinds)
        .grid(ProcGrid::new(l.grid))
        .build()
        .expect("valid layout")
}

/// The value of global element `g` of the array numbered `base`.
fn element(ty: ElemType, base: i64, g: &[i64]) -> Value {
    let v = g.iter().fold(base, |acc, &i| acc * 100 + i);
    match ty {
        ElemType::Int => Value::Int(v),
        _ => Value::Real(v as f64 + 0.25),
    }
}

/// A machine holding `names` as arrays of layout `l`, ghost width 2 on
/// every side, each owned element set from its global index.
fn setup(l: &Layout, ty: ElemType, names: &[&str]) -> (Machine, Dad) {
    let dad = dad_of(l);
    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(l.grid));
    let ghosts = vec![GHOST; l.shape.len()];
    for (base, name) in names.iter().enumerate() {
        for rank in 0..m.nranks() {
            let coords = m.grid.coords_of(rank);
            let mut la = LocalArray::with_ghost(ty, &dad.local_shape(), &ghosts, &ghosts);
            let seg = la.segment();
            dad.for_each_owned(&coords, &seg, |g, off| {
                la.set_flat(off, element(ty, base as i64 + 1, g))
            });
            m.mems[rank as usize].insert_array(*name, la);
        }
    }
    (m, dad)
}

/// A same-local-shape temporary without ghosts, on every rank.
fn alloc_shift_tmp(m: &mut Machine, dad: &Dad, ty: ElemType) {
    for mem in &mut m.mems {
        mem.insert_array("TMP", LocalArray::zeros(ty, &dad.local_shape()));
    }
}

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Everything a collective may change, in one number.
fn fingerprint(m: &Machine) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325;
    for mem in &m.mems {
        let mut names: Vec<&str> = mem.array_names().collect();
        names.sort_unstable();
        for name in names {
            let a = mem.array(name);
            let padded: i64 = (0..a.rank()).map(|d| a.padded_extent(d)).product();
            for off in 0..padded as usize {
                match a.get_flat(off) {
                    Value::Int(i) => fnv(&mut h, i as u64),
                    Value::Real(r) => fnv(&mut h, r.to_bits()),
                    other => panic!("unexpected element {other:?}"),
                }
            }
        }
    }
    for c in &m.transport.clocks {
        fnv(&mut h, c.to_bits());
    }
    fnv(&mut h, m.transport.messages);
    fnv(&mut h, m.transport.bytes);
    h
}

/// The channel-lifetime rule: nothing in flight, nothing awaited, and
/// no entry left behind for either.
fn assert_drained(m: &Machine, what: &str) {
    m.transport
        .quiescent_check()
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(m.transport.channels_len(), 0, "{what}: channels left");
}

/// The ghost exchange (`overlap_shift`) of `arr` by `c` along `d`, by
/// `rs`'s plan for it: `driver::ghost_exchange`, or — periodic, which
/// the compiler never emits for ghost cells — the same steps by hand.
/// With a fresh `rs` it is a one-shot that plans on the spot.
fn ghost_fill(
    m: &mut Machine,
    rs: &mut RunSchedules,
    arr: &str,
    dad: &Dad,
    d: usize,
    c: i64,
    periodic: bool,
) {
    if periodic {
        m.stats.record("overlap_shift");
        let plan = rs.shift_plan(m, arr, None, dad, d, c, true);
        exchange(m, arr, arr, &plan).unwrap();
    } else {
        driver::ghost_exchange(m, rs, arr, dad, d, c).unwrap();
    }
}

/// One inspector + executor of an unstructured read of `B` into the
/// sequential buffers `TMP`: `subs[rank]` are that rank's global
/// subscripts in iteration order.
fn run_gather(
    m: &mut Machine,
    rs: &mut RunSchedules,
    dad: &Dad,
    ty: ElemType,
    subs: &[Vec<Vec<i64>>],
    local_only: bool,
) {
    let mut reqs = GatherRequests::new(m, "B", dad);
    for (rank, list) in subs.iter().enumerate() {
        for g in list {
            reqs.push(rank as i64, g).unwrap();
        }
    }
    let stmt = StmtId::Gather {
        forall: 0,
        gather: 0,
    };
    reqs.execute(m, rs, stmt, "TMP", ty, local_only).unwrap();
}

/// One post-loop vector-subscripted write into `B`: `writes[rank]` are
/// that rank's `(global subscripts, value)` pairs in iteration order.
fn run_scatter(
    m: &mut Machine,
    rs: &mut RunSchedules,
    dad: &Dad,
    ty: ElemType,
    writes: &[Vec<(Vec<i64>, Value)>],
    invertible: bool,
) {
    let outputs: Vec<ScatterOut> = writes
        .iter()
        .map(|pairs| {
            let mut out = ScatterOut::new(ty);
            for (g, v) in pairs {
                out.push(g, *v);
            }
            out
        })
        .collect();
    let stmt = StmtId::Scatter { forall: 0 };
    driver::scatter(m, rs, stmt, "B", dad, &outputs, invertible).unwrap();
}

/// The layouts of the unstructured scenarios: every structured one, and
/// a BLOCK vector replicated along the second axis of a 2 x 2 grid
/// (every write lands on both copies).
fn unstructured_layouts() -> Vec<&'static Layout> {
    const REPLICATED: Layout = Layout {
        name: "block_replicated",
        shape: &[10],
        kinds: &[Block],
        grid: &[2, 2],
    };
    LAYOUTS.iter().chain([&REPLICATED]).collect()
}

/// Element number `i` (row-major) of an array of shape `shape`.
fn unflatten(mut i: i64, shape: &[i64]) -> Vec<i64> {
    let mut g = vec![0; shape.len()];
    for d in (0..shape.len()).rev() {
        g[d] = i % shape[d];
        i /= shape[d];
    }
    g
}

/// Gather, `precomp_read`, scatter and `postcomp_write` on every
/// layout, each executed twice through one `RunSchedules`.
fn unstructured_scenarios(record: &mut impl FnMut(String, &Machine)) {
    for l in unstructured_layouts() {
        let types: &[ElemType] = if l.name == "block_block" {
            &[ElemType::Real, ElemType::Int]
        } else {
            &[ElemType::Real]
        };
        let size: i64 = l.shape.iter().product();
        let nranks: i64 = l.grid.iter().product();
        for &ty in types {
            let tag = format!("{}/{ty:?}", l.name);
            // Rank 1 asks for nothing; squares repeat and run backwards
            // modulo the size.
            let subs: Vec<Vec<Vec<i64>>> = (0..nranks)
                .map(|r| {
                    let n = if r == 1 { 0 } else { 5 + (3 * r) % 7 };
                    (0..n)
                        .map(|k| unflatten((r * 31 + k * k * 7 + 3) % size, l.shape))
                        .collect()
                })
                .collect();
            for (what, local_only) in [("gather", false), ("precomp_read", true)] {
                let (mut m, dad) = setup(l, ty, &["B"]);
                let mut rs = RunSchedules::new();
                run_gather(&mut m, &mut rs, &dad, ty, &subs, local_only);
                record(format!("{tag}/{what}"), &m);
                run_gather(&mut m, &mut rs, &dad, ty, &subs, local_only);
                record(format!("{tag}/{what}/reused"), &m);
            }
            // Several ranks write one element (`k * 11` wraps onto
            // another rank's targets), and a rank writes one twice.
            let writes: Vec<Vec<(Vec<i64>, Value)>> = (0..nranks)
                .map(|r| {
                    let n = if r == 0 { 0 } else { 4 + (5 * r) % 6 };
                    (0..n)
                        .map(|k| {
                            let g = unflatten((r * 13 + (k % 5) * 11) % size, l.shape);
                            let v = element(ty, 7 + r, &[k]);
                            (g, v)
                        })
                        .collect()
                })
                .collect();
            for (what, invertible) in [("scatter", false), ("postcomp_write", true)] {
                let (mut m, dad) = setup(l, ty, &["B"]);
                let mut rs = RunSchedules::new();
                run_scatter(&mut m, &mut rs, &dad, ty, &writes, invertible);
                record(format!("{tag}/{what}"), &m);
                run_scatter(&mut m, &mut rs, &dad, ty, &writes, invertible);
                record(format!("{tag}/{what}/reused"), &m);
            }
        }
    }
}

/// Run every scenario; `(name, fingerprint)` in a fixed order.
fn scenarios() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut record = |name: String, m: &Machine| {
        assert_drained(m, &name);
        out.push((name, fingerprint(m)));
    };
    for l in &LAYOUTS {
        let types: &[ElemType] = if l.name == "block_block" {
            &[ElemType::Real, ElemType::Int]
        } else {
            &[ElemType::Real]
        };
        for &ty in types {
            let tag = format!("{}/{ty:?}", l.name);
            let dad = dad_of(l);
            let distributed: Vec<usize> = (0..dad.rank())
                .filter(|&d| dad.dims[d].is_distributed())
                .collect();
            for &d in &distributed {
                let (n, p) = (l.shape[d], dad.dims[d].dist.nprocs);
                for g in [0, n / 2 + 1, n - 1] {
                    let (mut m, dad) = setup(l, ty, &["B"]);
                    alloc_slab_tmp(&mut m, "TMP", &dad, d, ty);
                    multicast(&mut m, "B", &dad, "TMP", d, g).unwrap();
                    record(format!("{tag}/multicast/d{d}/g{g}"), &m);
                }
                for dst in [0, p - 1] {
                    let (mut m, dad) = setup(l, ty, &["B"]);
                    alloc_slab_tmp(&mut m, "TMP", &dad, d, ty);
                    transfer(&mut m, "B", &dad, "TMP", d, n / 2, dst).unwrap();
                    record(format!("{tag}/transfer/d{d}/to{dst}"), &m);
                }
                for (s, periodic) in [(3, false), (-1, false), (2, true), (-5, true)] {
                    let (mut m, dad) = setup(l, ty, &["B"]);
                    alloc_shift_tmp(&mut m, &dad, ty);
                    temporary_shift(&mut m, "B", &dad, "TMP", d, s, periodic).unwrap();
                    record(format!("{tag}/temporary_shift/d{d}/s{s}/p{periodic}"), &m);
                }
                if l.kinds[d] != Block {
                    continue;
                }
                for (c, periodic) in [(2, false), (-1, false), (1, true), (-2, true)] {
                    let (mut m, dad) = setup(l, ty, &["B"]);
                    ghost_fill(&mut m, &mut RunSchedules::new(), "B", &dad, d, c, periodic);
                    record(format!("{tag}/overlap_shift/d{d}/c{c}/p{periodic}"), &m);
                }
                // Two arrays one way, one of them also the other way:
                // the first pair's strips share a message.
                let (mut m, dad) = setup(l, ty, &["B", "C"]);
                let mut rs = RunSchedules::new();
                let items = [("B", 1), ("C", 1), ("C", -2)]
                    .into_iter()
                    .map(|(arr, c)| GhostSpec::new(&m, &mut rs, arr, &dad, d, c))
                    .collect();
                CommDriver::new().phase_exchange(&mut m, items).unwrap();
                record(format!("{tag}/phase_exchange/d{d}"), &m);
            }
            // Onto every rank, into an array of the other numeric type:
            // the deposit converts.
            let full_ty = match ty {
                ElemType::Int => ElemType::Real,
                _ => ElemType::Int,
            };
            for full_ty in [ty, full_ty] {
                let (mut m, dad) = setup(l, ty, &["B"]);
                for mem in &mut m.mems {
                    mem.insert_array("FULL", LocalArray::zeros(full_ty, l.shape));
                }
                concatenation(&mut m, "B", &dad, "FULL").unwrap();
                record(format!("{tag}/concatenation/{full_ty:?}"), &m);
            }
            if dad.rank() == 2 {
                let mcast = distributed[distributed.len() - 1];
                for s in [1, -2] {
                    let (mut m, dad) = setup(l, ty, &["B"]);
                    alloc_slab_tmp(&mut m, "TMP", &dad, mcast, ty);
                    let g = l.shape[mcast] / 2;
                    multicast_shift(&mut m, "B", &dad, "TMP", mcast, g, 1 - mcast, s).unwrap();
                    record(format!("{tag}/multicast_shift/d{mcast}/s{s}"), &m);
                }
            }
        }
    }
    unstructured_scenarios(&mut record);
    out
}

#[test]
fn primitives_reproduce_the_per_element_oracle() {
    let got = scenarios();
    let same = got.len() == GOLDEN.len()
        && got
            .iter()
            .zip(GOLDEN)
            .all(|((name, fp), (gname, gfp))| name == gname && fp == gfp);
    if !same {
        let table: String = got
            .iter()
            .map(|(name, fp)| format!("    (\"{name}\", {fp:#018x}),\n"))
            .collect();
        let moved: Vec<&str> = got
            .iter()
            .zip(GOLDEN)
            .filter(|((name, fp), (gname, gfp))| name != gname || fp != gfp)
            .map(|((name, _), _)| name.as_str())
            .collect();
        panic!(
            "{} scenario(s) against {} recorded; differing: {moved:?}\ncomputed table:\n{table}",
            got.len(),
            GOLDEN.len()
        );
    }
}

/// A shift replayed from a run's plan table is the one-shot primitive,
/// bit for bit — every padded cell, every rank clock, messages and
/// bytes — on every shape the pinned scenarios cover (positive,
/// negative, periodic, an edge that stays unfilled, `|c| = 2`), and
/// only the first call per key plans: the second array of the layout
/// and the repeat both replay.
#[test]
fn replayed_shifts_are_the_one_shot_primitives() {
    for l in &LAYOUTS {
        let dad = dad_of(l);
        let ty = ElemType::Real;
        for d in (0..dad.rank()).filter(|&d| dad.dims[d].is_distributed()) {
            let what = |prim: &str, s: i64, p: bool| format!("{}/{prim}/d{d}/s{s}/p{p}", l.name);
            for (s, periodic) in [(3, false), (-1, false), (2, true), (-5, true)] {
                let (mut one, _) = setup(l, ty, &["B"]);
                let (mut rep, _) = setup(l, ty, &["B"]);
                alloc_shift_tmp(&mut one, &dad, ty);
                alloc_shift_tmp(&mut rep, &dad, ty);
                let mut rs = RunSchedules::new();
                for _ in 0..2 {
                    temporary_shift(&mut one, "B", &dad, "TMP", d, s, periodic).unwrap();
                    if periodic {
                        rep.stats.record("temporary_shift");
                        let plan = rs.shift_plan(&rep, "B", Some("TMP"), &dad, d, s, true);
                        exchange(&mut rep, "B", "TMP", &plan).unwrap();
                    } else {
                        driver::temporary_shift(&mut rep, &mut rs, "B", &dad, "TMP", d, s).unwrap();
                    }
                }
                let what = what("temporary_shift", s, periodic);
                assert_eq!(fingerprint(&rep), fingerprint(&one), "{what}");
                assert_eq!(rep.stats.sorted(), one.stats.sorted(), "{what}");
                assert_eq!(rs.shift_plans(), (1, 1), "{what}");
                assert_drained(&rep, &what);
            }
            if l.kinds[d] != Block {
                continue;
            }
            for (c, periodic) in [(2, false), (-1, false), (1, false), (1, true), (-2, true)] {
                let (mut one, _) = setup(l, ty, &["B", "C"]);
                let (mut rep, _) = setup(l, ty, &["B", "C"]);
                let mut rs = RunSchedules::new();
                for arr in ["B", "C", "B"] {
                    ghost_fill(
                        &mut one,
                        &mut RunSchedules::new(),
                        arr,
                        &dad,
                        d,
                        c,
                        periodic,
                    );
                    ghost_fill(&mut rep, &mut rs, arr, &dad, d, c, periodic);
                }
                let what = what("overlap_shift", c, periodic);
                assert_eq!(fingerprint(&rep), fingerprint(&one), "{what}");
                assert_eq!(rep.stats.sorted(), one.stats.sorted(), "{what}");
                assert_eq!(rs.shift_plans(), (1, 2), "{what}");
                assert_drained(&rep, &what);
            }
        }
    }
}

/// The key of a kept plan is everything the planner reads: another
/// amount, another direction of the same width, another destination,
/// another layout of the same array and another ghost width are all
/// other plans — and each is still the one-shot primitive's.
#[test]
fn a_plan_is_not_replayed_across_anything_it_depends_on() {
    let l = &LAYOUTS[0];
    let ty = ElemType::Real;
    let (mut one, dad) = setup(l, ty, &["B"]);
    let (mut rep, _) = setup(l, ty, &["B"]);
    // "N": the layout of B with ghost width 1 instead of 2.
    for m in [&mut one, &mut rep] {
        alloc_shift_tmp(m, &dad, ty);
        for rank in 0..m.nranks() {
            let coords = m.grid.coords_of(rank);
            let mut la = LocalArray::with_ghost(ty, &dad.local_shape(), &[1], &[1]);
            let seg = la.segment();
            dad.for_each_owned(&coords, &seg, |g, off| la.set_flat(off, element(ty, 9, g)));
            m.mems[rank as usize].insert_array("N", la);
        }
    }
    let mut rs = RunSchedules::new();
    for (arr, c) in [("B", 1), ("B", -1), ("B", 2), ("N", 1), ("B", 1)] {
        ghost_fill(&mut one, &mut RunSchedules::new(), arr, &dad, 0, c, false);
        driver::ghost_exchange(&mut rep, &mut rs, arr, &dad, 0, c).unwrap();
    }
    assert_eq!(rs.shift_plans(), (4, 1));
    // A temporary shift by the same amount is not the ghost exchange.
    temporary_shift(&mut one, "B", &dad, "TMP", 0, 1, false).unwrap();
    driver::temporary_shift(&mut rep, &mut rs, "B", &dad, "TMP", 0, 1).unwrap();
    assert_eq!(rs.shift_plans(), (5, 1));
    // The same array, same shape, CYCLIC: what REDISTRIBUTE leaves.
    let cyclic = DadBuilder::new("B", l.shape)
        .distribute(&[Cyclic])
        .grid(ProcGrid::new(l.grid))
        .build()
        .unwrap();
    assert_eq!(cyclic.local_shape(), dad.local_shape());
    temporary_shift(&mut one, "B", &cyclic, "TMP", 0, 1, false).unwrap();
    driver::temporary_shift(&mut rep, &mut rs, "B", &cyclic, "TMP", 0, 1).unwrap();
    assert_eq!(rs.shift_plans(), (6, 1));
    assert_eq!(fingerprint(&rep), fingerprint(&one));
}

/// Recorded from the per-element implementation (see the module docs).
const GOLDEN: &[(&str, u64)] = &[
    ("block1d/Real/multicast/d0/g0", 0x2fbe52b3907b76ef),
    ("block1d/Real/multicast/d0/g19", 0x2ccf9ca6379027f5),
    ("block1d/Real/multicast/d0/g36", 0x9417343b0c0e3535),
    ("block1d/Real/transfer/d0/to0", 0x1af93432514df62f),
    ("block1d/Real/transfer/d0/to3", 0xc50d1783e2a23003),
    (
        "block1d/Real/temporary_shift/d0/s3/pfalse",
        0x90557e811d3a2a33,
    ),
    (
        "block1d/Real/temporary_shift/d0/s-1/pfalse",
        0xb516a5622d5b393c,
    ),
    (
        "block1d/Real/temporary_shift/d0/s2/ptrue",
        0x51366ede6baf4760,
    ),
    (
        "block1d/Real/temporary_shift/d0/s-5/ptrue",
        0x2884e4a9ded3025a,
    ),
    (
        "block1d/Real/overlap_shift/d0/c2/pfalse",
        0x76f4bf2e0632b27a,
    ),
    (
        "block1d/Real/overlap_shift/d0/c-1/pfalse",
        0x0b1334be0e83fc89,
    ),
    ("block1d/Real/overlap_shift/d0/c1/ptrue", 0xead7cfc4b9b1b6d0),
    (
        "block1d/Real/overlap_shift/d0/c-2/ptrue",
        0x43c607f1a00406b9,
    ),
    ("block1d/Real/phase_exchange/d0", 0xc8956b06c2f5aabe),
    ("block1d/Real/concatenation/Real", 0xc7b5a5d5d803ffc9),
    ("block1d/Real/concatenation/Int", 0x2a3261056e31a1b9),
    ("cyclic1d/Real/multicast/d0/g0", 0x2849a26b1097203f),
    ("cyclic1d/Real/multicast/d0/g19", 0x67ec6db2172d03d5),
    ("cyclic1d/Real/multicast/d0/g36", 0xdb28d31d2b99de9f),
    ("cyclic1d/Real/transfer/d0/to0", 0x37d401fc7fa9bd4f),
    ("cyclic1d/Real/transfer/d0/to3", 0xc017915838d017c3),
    (
        "cyclic1d/Real/temporary_shift/d0/s3/pfalse",
        0xd290231646bd9be4,
    ),
    (
        "cyclic1d/Real/temporary_shift/d0/s-1/pfalse",
        0x5bd15efffd72eae3,
    ),
    (
        "cyclic1d/Real/temporary_shift/d0/s2/ptrue",
        0xa694b3d1a23e65c8,
    ),
    (
        "cyclic1d/Real/temporary_shift/d0/s-5/ptrue",
        0xdeac9ea4e1faf505,
    ),
    ("cyclic1d/Real/concatenation/Real", 0xf5442db8b3329b5a),
    ("cyclic1d/Real/concatenation/Int", 0x8ec65a0ddc587a3a),
    ("block_block/Real/multicast/d0/g0", 0xc5fdbb7f8bcf6a19),
    ("block_block/Real/multicast/d0/g5", 0xb0582b5d09814bf1),
    ("block_block/Real/multicast/d0/g8", 0xac289404cda07371),
    ("block_block/Real/transfer/d0/to0", 0xbe8e564d146cbe5d),
    ("block_block/Real/transfer/d0/to1", 0xe398ad7627fbdb81),
    (
        "block_block/Real/temporary_shift/d0/s3/pfalse",
        0x7f12b67335135857,
    ),
    (
        "block_block/Real/temporary_shift/d0/s-1/pfalse",
        0x63a742f881941664,
    ),
    (
        "block_block/Real/temporary_shift/d0/s2/ptrue",
        0xc483c1d04a92290c,
    ),
    (
        "block_block/Real/temporary_shift/d0/s-5/ptrue",
        0xb62eaf7739be8f7c,
    ),
    (
        "block_block/Real/overlap_shift/d0/c2/pfalse",
        0x2876c406e068e727,
    ),
    (
        "block_block/Real/overlap_shift/d0/c-1/pfalse",
        0xb3c72a5b68c0c791,
    ),
    (
        "block_block/Real/overlap_shift/d0/c1/ptrue",
        0xfa2469ae8ca1c077,
    ),
    (
        "block_block/Real/overlap_shift/d0/c-2/ptrue",
        0xacecef58305d96f8,
    ),
    ("block_block/Real/phase_exchange/d0", 0x502300f6eeec6cd8),
    ("block_block/Real/multicast/d1/g0", 0x8a48a4ec3599477f),
    ("block_block/Real/multicast/d1/g6", 0x1af6b6ddd1ad6a95),
    ("block_block/Real/multicast/d1/g9", 0xf61dfababa03eb00),
    ("block_block/Real/transfer/d1/to0", 0x035c84e37e88819a),
    ("block_block/Real/transfer/d1/to2", 0x4d7c58b74688e269),
    (
        "block_block/Real/temporary_shift/d1/s3/pfalse",
        0x700d1f4dcc9e8d01,
    ),
    (
        "block_block/Real/temporary_shift/d1/s-1/pfalse",
        0xcb46b61892d347e6,
    ),
    (
        "block_block/Real/temporary_shift/d1/s2/ptrue",
        0x8cd40e2a3825ba87,
    ),
    (
        "block_block/Real/temporary_shift/d1/s-5/ptrue",
        0xb337781b3db65ee7,
    ),
    (
        "block_block/Real/overlap_shift/d1/c2/pfalse",
        0x9edd9e192f6084f1,
    ),
    (
        "block_block/Real/overlap_shift/d1/c-1/pfalse",
        0x0e34d9e5a4383e7d,
    ),
    (
        "block_block/Real/overlap_shift/d1/c1/ptrue",
        0xb672632bdc28bade,
    ),
    (
        "block_block/Real/overlap_shift/d1/c-2/ptrue",
        0x33256c13d65e5d6f,
    ),
    ("block_block/Real/phase_exchange/d1", 0x02dd8288bb2c00b3),
    ("block_block/Real/concatenation/Real", 0x69d85a5bba1fd712),
    ("block_block/Real/concatenation/Int", 0x252a9dc23598520a),
    ("block_block/Real/multicast_shift/d1/s1", 0xcfffb266e9484651),
    (
        "block_block/Real/multicast_shift/d1/s-2",
        0x2fd4b7a2cd6db737,
    ),
    ("block_block/Int/multicast/d0/g0", 0xb731f6f2f1954fbc),
    ("block_block/Int/multicast/d0/g5", 0x6a039e3c4a849f04),
    ("block_block/Int/multicast/d0/g8", 0xca88c2a521f9d21c),
    ("block_block/Int/transfer/d0/to0", 0x4cf31b616b7c28d9),
    ("block_block/Int/transfer/d0/to1", 0xf6851cb9dcde26c5),
    (
        "block_block/Int/temporary_shift/d0/s3/pfalse",
        0x12efdf5c514bb40e,
    ),
    (
        "block_block/Int/temporary_shift/d0/s-1/pfalse",
        0xb91428ae8cb92649,
    ),
    (
        "block_block/Int/temporary_shift/d0/s2/ptrue",
        0xfb03562ca385b914,
    ),
    (
        "block_block/Int/temporary_shift/d0/s-5/ptrue",
        0xd0148f604b081014,
    ),
    (
        "block_block/Int/overlap_shift/d0/c2/pfalse",
        0x683d46cb7692c70a,
    ),
    (
        "block_block/Int/overlap_shift/d0/c-1/pfalse",
        0xb713459b71eb7465,
    ),
    (
        "block_block/Int/overlap_shift/d0/c1/ptrue",
        0x1d57b7e1ab783846,
    ),
    (
        "block_block/Int/overlap_shift/d0/c-2/ptrue",
        0x803d962b41843d59,
    ),
    ("block_block/Int/phase_exchange/d0", 0xf65c757040448ee0),
    ("block_block/Int/multicast/d1/g0", 0xaeeaadce2673a8f4),
    ("block_block/Int/multicast/d1/g6", 0x663154029ef7bca1),
    ("block_block/Int/multicast/d1/g9", 0xb070e5cc861e0e76),
    ("block_block/Int/transfer/d1/to0", 0x7c5ec114ebb1f68a),
    ("block_block/Int/transfer/d1/to2", 0xe9170dcb037b2b79),
    (
        "block_block/Int/temporary_shift/d1/s3/pfalse",
        0x6a3125f92e655ce7,
    ),
    (
        "block_block/Int/temporary_shift/d1/s-1/pfalse",
        0xeff7143804d20279,
    ),
    (
        "block_block/Int/temporary_shift/d1/s2/ptrue",
        0xe0b9814c946aa56f,
    ),
    (
        "block_block/Int/temporary_shift/d1/s-5/ptrue",
        0xda5aa750fe546c27,
    ),
    (
        "block_block/Int/overlap_shift/d1/c2/pfalse",
        0x861499b7a84a4e00,
    ),
    (
        "block_block/Int/overlap_shift/d1/c-1/pfalse",
        0x6ec657f5f5f31516,
    ),
    (
        "block_block/Int/overlap_shift/d1/c1/ptrue",
        0xa6d29cbaab0b0af3,
    ),
    (
        "block_block/Int/overlap_shift/d1/c-2/ptrue",
        0xb9ffc240a3e0b0d7,
    ),
    ("block_block/Int/phase_exchange/d1", 0xe2d22bee8e0776e8),
    ("block_block/Int/concatenation/Int", 0x779ae1e8819db717),
    ("block_block/Int/concatenation/Real", 0xa3b227e69a7c8e87),
    ("block_block/Int/multicast_shift/d1/s1", 0x30b97c20ef7e0e00),
    ("block_block/Int/multicast_shift/d1/s-2", 0xb0d143ce17faec59),
    ("cyclic_block/Real/multicast/d0/g0", 0x49a32170da833e7c),
    ("cyclic_block/Real/multicast/d0/g6", 0x85f4aa7b84ff548b),
    ("cyclic_block/Real/multicast/d0/g9", 0x21bb0bee40ab2acc),
    ("cyclic_block/Real/transfer/d0/to0", 0x60d7cd1459b5630d),
    ("cyclic_block/Real/transfer/d0/to2", 0xed94898819ab5cda),
    (
        "cyclic_block/Real/temporary_shift/d0/s3/pfalse",
        0xd4967ec96a52c733,
    ),
    (
        "cyclic_block/Real/temporary_shift/d0/s-1/pfalse",
        0xa2808c1a342a0b5d,
    ),
    (
        "cyclic_block/Real/temporary_shift/d0/s2/ptrue",
        0x205bd41bf4cae04a,
    ),
    (
        "cyclic_block/Real/temporary_shift/d0/s-5/ptrue",
        0x2471821c8848207d,
    ),
    ("cyclic_block/Real/multicast/d1/g0", 0xe8a680bf95f6f6e6),
    ("cyclic_block/Real/multicast/d1/g5", 0x8ac8af959cad9e7a),
    ("cyclic_block/Real/multicast/d1/g8", 0x1d04c3431ef763f6),
    ("cyclic_block/Real/transfer/d1/to0", 0xdb7e746e9947ab6d),
    ("cyclic_block/Real/transfer/d1/to1", 0x74280bd5690be7d3),
    (
        "cyclic_block/Real/temporary_shift/d1/s3/pfalse",
        0x43c128d095dd3cd0,
    ),
    (
        "cyclic_block/Real/temporary_shift/d1/s-1/pfalse",
        0xc5738ca549f328aa,
    ),
    (
        "cyclic_block/Real/temporary_shift/d1/s2/ptrue",
        0x446024f8c7a9c51e,
    ),
    (
        "cyclic_block/Real/temporary_shift/d1/s-5/ptrue",
        0x87293dbc69c34430,
    ),
    (
        "cyclic_block/Real/overlap_shift/d1/c2/pfalse",
        0xcf62f7dca4065f04,
    ),
    (
        "cyclic_block/Real/overlap_shift/d1/c-1/pfalse",
        0xc213dc0efd6f0463,
    ),
    (
        "cyclic_block/Real/overlap_shift/d1/c1/ptrue",
        0xc59f487f0ce6435a,
    ),
    (
        "cyclic_block/Real/overlap_shift/d1/c-2/ptrue",
        0xc1bc03ca582a09c9,
    ),
    ("cyclic_block/Real/phase_exchange/d1", 0x4c43fc10b6dccbc8),
    ("cyclic_block/Real/concatenation/Real", 0x7f1cb8fca8d54372),
    ("cyclic_block/Real/concatenation/Int", 0x53645787816cb276),
    (
        "cyclic_block/Real/multicast_shift/d1/s1",
        0xb6dd7c43d31a21dc,
    ),
    (
        "cyclic_block/Real/multicast_shift/d1/s-2",
        0x2bffddb45d0f1596,
    ),
    ("star_block16/Real/multicast/d1/g0", 0x1860e63ebc43a2ab),
    ("star_block16/Real/multicast/d1/g21", 0xdf204e9d856b6227),
    ("star_block16/Real/multicast/d1/g39", 0x6f62c3d24eb98d90),
    ("star_block16/Real/transfer/d1/to0", 0xc0ed1a922fa0e4eb),
    ("star_block16/Real/transfer/d1/to15", 0x403ead1f775802db),
    (
        "star_block16/Real/temporary_shift/d1/s3/pfalse",
        0x0a09896b72866dec,
    ),
    (
        "star_block16/Real/temporary_shift/d1/s-1/pfalse",
        0x8111dab996548c95,
    ),
    (
        "star_block16/Real/temporary_shift/d1/s2/ptrue",
        0x3dd19a612f1de4d1,
    ),
    (
        "star_block16/Real/temporary_shift/d1/s-5/ptrue",
        0xbf66ab339be8b2bb,
    ),
    (
        "star_block16/Real/overlap_shift/d1/c2/pfalse",
        0x4ad6e16c4ab7310f,
    ),
    (
        "star_block16/Real/overlap_shift/d1/c-1/pfalse",
        0xd19db642f8a32533,
    ),
    (
        "star_block16/Real/overlap_shift/d1/c1/ptrue",
        0x93738c21187ac55a,
    ),
    (
        "star_block16/Real/overlap_shift/d1/c-2/ptrue",
        0xa8423f2e7c10277c,
    ),
    ("star_block16/Real/phase_exchange/d1", 0x98302ba2f41fe24c),
    ("star_block16/Real/concatenation/Real", 0xfd2d35f69e325c40),
    ("star_block16/Real/concatenation/Int", 0xc8a7d4dfe91565f0),
    (
        "star_block16/Real/multicast_shift/d1/s1",
        0x65c8cce3372bd2d9,
    ),
    (
        "star_block16/Real/multicast_shift/d1/s-2",
        0x8665997d79b22487,
    ),
    ("block_block16/Real/multicast/d0/g0", 0xfcc4ff5e7e8b1b36),
    ("block_block16/Real/multicast/d0/g9", 0xa6ef1efd687cbc76),
    ("block_block16/Real/multicast/d0/g15", 0x324e6c6b42dbce2e),
    ("block_block16/Real/transfer/d0/to0", 0x58ebf792f4bdcc29),
    ("block_block16/Real/transfer/d0/to3", 0x2ecac5d6dd966e29),
    (
        "block_block16/Real/temporary_shift/d0/s3/pfalse",
        0x5c5b6904dca3f29d,
    ),
    (
        "block_block16/Real/temporary_shift/d0/s-1/pfalse",
        0xb8b92dd7a4f99cfe,
    ),
    (
        "block_block16/Real/temporary_shift/d0/s2/ptrue",
        0xe9f594feb24f52d9,
    ),
    (
        "block_block16/Real/temporary_shift/d0/s-5/ptrue",
        0xdf850573f6aefd75,
    ),
    (
        "block_block16/Real/overlap_shift/d0/c2/pfalse",
        0x1e86301bdf166498,
    ),
    (
        "block_block16/Real/overlap_shift/d0/c-1/pfalse",
        0x315d626f55e55cee,
    ),
    (
        "block_block16/Real/overlap_shift/d0/c1/ptrue",
        0x1b26ed3194ce1a6f,
    ),
    (
        "block_block16/Real/overlap_shift/d0/c-2/ptrue",
        0xc50e258814e18f19,
    ),
    ("block_block16/Real/phase_exchange/d0", 0x0294ae10421ec68b),
    ("block_block16/Real/multicast/d1/g0", 0x6f94ebd3d5954016),
    ("block_block16/Real/multicast/d1/g9", 0xe04424e10c7ccbf6),
    ("block_block16/Real/multicast/d1/g15", 0xc7db09afab0e26ce),
    ("block_block16/Real/transfer/d1/to0", 0x82cf493a890f5005),
    ("block_block16/Real/transfer/d1/to3", 0x8bb59d86f70271d5),
    (
        "block_block16/Real/temporary_shift/d1/s3/pfalse",
        0x7a08148febcfea2d,
    ),
    (
        "block_block16/Real/temporary_shift/d1/s-1/pfalse",
        0x062e35de7585622e,
    ),
    (
        "block_block16/Real/temporary_shift/d1/s2/ptrue",
        0x571b3be02b935ad1,
    ),
    (
        "block_block16/Real/temporary_shift/d1/s-5/ptrue",
        0x31351edae84e95a5,
    ),
    (
        "block_block16/Real/overlap_shift/d1/c2/pfalse",
        0x94e690fbfae3da5c,
    ),
    (
        "block_block16/Real/overlap_shift/d1/c-1/pfalse",
        0x649373bef108fe36,
    ),
    (
        "block_block16/Real/overlap_shift/d1/c1/ptrue",
        0xb69ef08007822d2f,
    ),
    (
        "block_block16/Real/overlap_shift/d1/c-2/ptrue",
        0x119bd8ec895a2199,
    ),
    ("block_block16/Real/phase_exchange/d1", 0xe8de62c4fd5515ad),
    ("block_block16/Real/concatenation/Real", 0xf7240f4ea519afcc),
    ("block_block16/Real/concatenation/Int", 0x9eb3db77a087baac),
    (
        "block_block16/Real/multicast_shift/d1/s1",
        0x835d8c87137c4cac,
    ),
    (
        "block_block16/Real/multicast_shift/d1/s-2",
        0xa702a76373315b22,
    ),
    // Unstructured scenarios, recorded on the commit before the locate
    // and the flat scatter columns (see the module docs).
    ("block1d/Real/gather", 0xa0d5d94a9ec7fb86),
    ("block1d/Real/gather/reused", 0x1c95da79e1022c4a),
    ("block1d/Real/precomp_read", 0x18054890b713cfc1),
    ("block1d/Real/precomp_read/reused", 0x8f08009f549a0259),
    ("block1d/Real/scatter", 0xc54b744d8c5444b8),
    ("block1d/Real/scatter/reused", 0x5da4023ec33867ec),
    ("block1d/Real/postcomp_write", 0x69cd35ccac8b95c6),
    ("block1d/Real/postcomp_write/reused", 0x55c53672c849bef0),
    ("cyclic1d/Real/gather", 0xd626ff5fdd47f4f9),
    ("cyclic1d/Real/gather/reused", 0x44c684ac2ade3b65),
    ("cyclic1d/Real/precomp_read", 0x05470fd8fb0cba17),
    ("cyclic1d/Real/precomp_read/reused", 0xa3ff3817df12a467),
    ("cyclic1d/Real/scatter", 0xfc0b7849ec6cda0c),
    ("cyclic1d/Real/scatter/reused", 0xe9ed289d50327aae),
    ("cyclic1d/Real/postcomp_write", 0x3836890107db4fe8),
    ("cyclic1d/Real/postcomp_write/reused", 0x2385e4025c42a927),
    ("block_block/Real/gather", 0x8cbd73068b897336),
    ("block_block/Real/gather/reused", 0x71bfd88733d39645),
    ("block_block/Real/precomp_read", 0x3ffd689ea695055f),
    ("block_block/Real/precomp_read/reused", 0xdc8715c3c29a1256),
    ("block_block/Real/scatter", 0xc0b1abefc32c015a),
    ("block_block/Real/scatter/reused", 0x39aec068169d7a26),
    ("block_block/Real/postcomp_write", 0xc1858d2cedc0f2e7),
    ("block_block/Real/postcomp_write/reused", 0x8de5de86173ed18e),
    ("block_block/Int/gather", 0x3bd781515a0543d1),
    ("block_block/Int/gather/reused", 0x962c2fc22586d5ce),
    ("block_block/Int/precomp_read", 0x6f3f3e7ea09fa974),
    ("block_block/Int/precomp_read/reused", 0xdb04c26b2f9fa4fd),
    ("block_block/Int/scatter", 0xa985b52d40929333),
    ("block_block/Int/scatter/reused", 0x1ecdc83ad5deddbb),
    ("block_block/Int/postcomp_write", 0xd9d7e1a8b828f996),
    ("block_block/Int/postcomp_write/reused", 0x1ee7eb90506b7eb3),
    ("cyclic_block/Real/gather", 0xb4801fa67b8fbcdc),
    ("cyclic_block/Real/gather/reused", 0x137d92dfb1edae20),
    ("cyclic_block/Real/precomp_read", 0x062c089def30059c),
    ("cyclic_block/Real/precomp_read/reused", 0xc11dbf97f9e0ba3f),
    ("cyclic_block/Real/scatter", 0x060d48715e8b637b),
    ("cyclic_block/Real/scatter/reused", 0x231b0eca2f8b39c9),
    ("cyclic_block/Real/postcomp_write", 0xff16ddc82c4ba5c3),
    (
        "cyclic_block/Real/postcomp_write/reused",
        0x083afaa1253b55ba,
    ),
    ("star_block16/Real/gather", 0x2b3e2bac2fae6053),
    ("star_block16/Real/gather/reused", 0x8b55b86c74355fb8),
    ("star_block16/Real/precomp_read", 0x155d17c07968662e),
    ("star_block16/Real/precomp_read/reused", 0x336237bc865a806e),
    ("star_block16/Real/scatter", 0x7687d135576c2096),
    ("star_block16/Real/scatter/reused", 0xcdd4daefed97c583),
    ("star_block16/Real/postcomp_write", 0x24e8a220b26cd57a),
    (
        "star_block16/Real/postcomp_write/reused",
        0x1e3696288d320259,
    ),
    ("block_block16/Real/gather", 0x84b46071126ccda1),
    ("block_block16/Real/gather/reused", 0x370eb3becb87ae08),
    ("block_block16/Real/precomp_read", 0xfe72bffecd114801),
    ("block_block16/Real/precomp_read/reused", 0xb02c4825693d6e9c),
    ("block_block16/Real/scatter", 0x18780ee7bc3bbf91),
    ("block_block16/Real/scatter/reused", 0xb669c310c10d9edd),
    ("block_block16/Real/postcomp_write", 0x20368991ef86f723),
    (
        "block_block16/Real/postcomp_write/reused",
        0xccaad221ad5554fb,
    ),
    ("block_replicated/Real/gather", 0xff41053c2848b799),
    ("block_replicated/Real/gather/reused", 0xb1971bb1729fc377),
    ("block_replicated/Real/precomp_read", 0xf27ef70a402cfc25),
    (
        "block_replicated/Real/precomp_read/reused",
        0x9c9915c3d554dfe3,
    ),
    ("block_replicated/Real/scatter", 0x0a1f3d6f41bdb2e7),
    ("block_replicated/Real/scatter/reused", 0xea356e041ddf779f),
    ("block_replicated/Real/postcomp_write", 0x50f550baffcee97b),
    (
        "block_replicated/Real/postcomp_write/reused",
        0xc62502515d886cfd,
    ),
];
