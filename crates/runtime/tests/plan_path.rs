//! The element-wise planners' results, pinned: redistribution, the
//! index remaps (`TRANSPOSE`, `RESHAPE`, `SPREAD`), `PACK` / `UNPACK`
//! and Fox's `MATMUL`. Each scenario's fingerprint — every padded cell
//! of every array on every rank, every rank clock by `to_bits`,
//! `messages` and `bytes`, the same one `f90d-comm`'s
//! `message_path.rs` takes — must equal the value recorded in
//! [`GOLDEN`]. The cells pin where every element landed (ghost cells
//! included, so an offset off by the padding shows); the clocks pin
//! which pairs sent how many bytes in what order. The order of the
//! elements inside one message leaves no trace here — a payload is
//! deposited by offset — and is pinned where it is decided, by the unit
//! tests of `f90d_comm::helpers::ExchangePlan::of_moves`.
//!
//! The golden values were recorded by running this file against the
//! implementation that grouped every planner's moves in a `BTreeMap`
//! keyed by processor pair and located each element with
//! `Dad::owner_ranks` + `Dad::local_index` + a by-name segment lookup
//! (the commit before the shared move-list constructor), so they are
//! that implementation's output, not the current code's. To re-record
//! after an intended change of the cost model, empty `GOLDEN`: the
//! failure message prints the table to paste.

use f90d_comm::redist::redistribute;
use f90d_distrib::{
    AlignExpr, Alignment, AxisAlign, Dad, DadBuilder, DistKind, ProcGrid, Template,
};
use f90d_machine::{ElemType, LocalArray, Machine, MachineSpec, Transport, Value};
use f90d_runtime::intrinsics::multicast::spread;
use f90d_runtime::intrinsics::special::{matmul, MatmulAlgorithm};
use f90d_runtime::intrinsics::unstructured::{pack, reshape, transpose, unpack};
use f90d_runtime::DistArray;

use DistKind::{Block, BlockCyclic, Collapsed, Cyclic};

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h = (*h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Everything a primitive may change, in one number.
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
                    Value::Bool(b) => fnv(&mut h, u64::from(b)),
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

/// The value of global element `g` of the array numbered `base`.
fn element(ty: ElemType, base: i64, g: &[i64]) -> Value {
    let v = g.iter().fold(base, |acc, &i| acc * 100 + i);
    match ty {
        ElemType::Int => Value::Int(v),
        _ => Value::Real(v as f64 + 0.25),
    }
}

fn machine(grid: &[i64]) -> Machine {
    Machine::new(MachineSpec::ipsc860(), ProcGrid::new(grid))
}

/// The descriptor of `shape` distributed by `kinds` over `grid`,
/// identity-aligned onto a template of its own shape.
fn dad(shape: &[i64], kinds: &[DistKind], grid: &[i64]) -> Dad {
    DadBuilder::new("A", shape)
        .distribute(kinds)
        .grid(ProcGrid::new(grid))
        .build()
        .expect("valid layout")
}

/// A rank-1 array of `extent` aligned by `expr` into a template of
/// `template` cells distributed by `kind` over `grid`.
fn aligned_dad(extent: i64, expr: AlignExpr, template: i64, kind: DistKind, grid: &[i64]) -> Dad {
    let align = Alignment {
        axes: vec![AxisAlign::Aligned {
            template_dim: 0,
            expr,
        }],
        replicated_template_dims: Vec::new(),
    };
    DadBuilder::new("A", &[extent])
        .align(align)
        .template(Template::new("T", &[template]))
        .distribute(&[kind])
        .grid(ProcGrid::new(grid))
        .build()
        .expect("valid alignment")
}

/// Allocate `name` with `dad`'s local shape and `ghost` cells on both
/// sides of every dimension, on every rank, each owned element set from
/// its global index when `base` is given.
fn place(m: &mut Machine, name: &str, dad: &Dad, ty: ElemType, ghost: i64, base: Option<i64>) {
    let ghosts = vec![ghost; dad.rank()];
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        let mut la = LocalArray::with_ghost(ty, &dad.local_shape(), &ghosts, &ghosts);
        if let Some(base) = base {
            let seg = la.segment();
            dad.for_each_owned(&coords, &seg, |g, off| {
                la.set_flat(off, element(ty, base, g))
            });
        }
        m.mems[rank as usize].insert_array(name, la);
    }
}

/// `redistribute` of a filled `S` laid out by `from` (ghost width 1)
/// into a zeroed `D` laid out by `to` (ghost width 2).
fn run_redistribute(from: &Dad, to: &Dad, ty: ElemType) -> Machine {
    let mut m = Machine::new(MachineSpec::ipsc860(), from.grid.clone());
    place(&mut m, "S", from, ty, 1, Some(1));
    place(&mut m, "D", to, ty, 2, None);
    redistribute(&mut m, "S", from, "D", to).unwrap();
    m
}

/// A filled array through `DistArray` (ghost width `ghost` on its
/// distributed dimensions).
fn filled(
    m: &mut Machine,
    name: &str,
    ty: ElemType,
    shape: &[i64],
    kinds: &[DistKind],
    ghost: i64,
    base: i64,
) -> DistArray {
    let a = DistArray::create_with_ghost(m, name, ty, shape, kinds, ghost);
    a.fill_with(m, |g| element(ty, base, g));
    a
}

/// A mask whose true cells are ragged: a different count in every row
/// and on every rank.
fn ragged_mask(m: &mut Machine, shape: &[i64], kinds: &[DistKind]) -> DistArray {
    let mask = DistArray::create(m, "MASK", ElemType::Bool, shape, kinds);
    mask.fill_with(m, |g| {
        Value::Bool((g[0] * g[0] + 3 * g[1] + g[0] * g[1]) % 5 < 2)
    });
    mask
}

fn scenarios() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut record = |name: String, m: &Machine| {
        m.transport
            .quiescent_check()
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        out.push((name, fingerprint(m)));
    };

    // Redistribution between every pair of kinds the paper's §6 names,
    // CYCLIC(3) included, in 1-D and 2-D; into and out of layouts
    // replicated along a grid axis; and across alignments.
    let redistributions: Vec<(&str, Dad, Dad)> = vec![
        (
            "block_to_cyclic/1d",
            dad(&[37], &[Block], &[4]),
            dad(&[37], &[Cyclic], &[4]),
        ),
        (
            "cyclic_to_block/1d",
            dad(&[37], &[Cyclic], &[4]),
            dad(&[37], &[Block], &[4]),
        ),
        (
            "block_to_cyclic3/1d",
            dad(&[37], &[Block], &[4]),
            dad(&[37], &[BlockCyclic(3)], &[4]),
        ),
        (
            "cyclic3_to_cyclic/1d",
            dad(&[37], &[BlockCyclic(3)], &[4]),
            dad(&[37], &[Cyclic], &[4]),
        ),
        (
            "block_block_to_cyclic_block/2d",
            dad(&[9, 10], &[Block, Block], &[2, 3]),
            dad(&[9, 10], &[Cyclic, Block], &[2, 3]),
        ),
        (
            "cyclic3_block_to_block_cyclic/2d",
            dad(&[10, 9], &[BlockCyclic(3), Block], &[3, 2]),
            dad(&[10, 9], &[Block, Cyclic], &[3, 2]),
        ),
        (
            "block_block_to_cyclic_cyclic/4x4",
            dad(&[16, 12], &[Block, Block], &[4, 4]),
            dad(&[16, 12], &[Cyclic, Cyclic], &[4, 4]),
        ),
        (
            "star_block_to_block_star/16",
            dad(&[8, 40], &[Collapsed, Block], &[16]),
            dad(&[8, 40], &[Block, Collapsed], &[16]),
        ),
        (
            "block_to_replicated/1d",
            dad(&[9], &[Block], &[3]),
            dad(&[9], &[Collapsed], &[3]),
        ),
        (
            "cyclic_to_block/replicated_2x2",
            dad(&[10], &[Cyclic], &[2, 2]),
            dad(&[10], &[Block], &[2, 2]),
        ),
        (
            "aligned_cyclic3_to_reversed_block/1d",
            aligned_dad(17, AlignExpr::new(2, 1), 40, BlockCyclic(3), &[4]),
            aligned_dad(17, AlignExpr::new(-1, 19), 20, Block, &[4]),
        ),
    ];
    for (name, from, to) in &redistributions {
        let m = run_redistribute(from, to, ElemType::Real);
        record(format!("redistribute/{name}/Real"), &m);
    }
    let (from, to) = (&redistributions[4].1, &redistributions[4].2);
    let m = run_redistribute(from, to, ElemType::Int);
    record("redistribute/block_block_to_cyclic_block/2d/Int".into(), &m);

    // TRANSPOSE, RESHAPE and SPREAD: `remap` under three index maps.
    for (name, grid, kinds, shape) in [
        ("block_block/2x2", [2, 2], [Block, Block], [6, 9]),
        ("cyclic_block/4x4", [4, 4], [Cyclic, Block], [16, 12]),
        (
            "cyclic3_cyclic/2x2",
            [2, 2],
            [BlockCyclic(3), Cyclic],
            [11, 7],
        ),
    ] {
        let mut m = machine(&grid);
        let a = filled(&mut m, "A", ElemType::Real, &shape, &kinds, 1, 1);
        let b = DistArray::create_with_ghost(
            &mut m,
            "B",
            ElemType::Real,
            &[shape[1], shape[0]],
            &kinds,
            1,
        );
        transpose(&mut m, &a, &b);
        record(format!("transpose/{name}"), &m);
    }
    {
        let mut m = machine(&[2, 2]);
        let a = filled(&mut m, "A", ElemType::Int, &[6, 8], &[Block, Cyclic], 1, 1);
        let b = DistArray::create(&mut m, "B", ElemType::Int, &[48], &[Block]);
        reshape(&mut m, &a, &b);
        record("reshape/block_cyclic_to_replicated_block".into(), &m);
        let c = DistArray::create(&mut m, "C", ElemType::Int, &[4, 12], &[Cyclic, Block]);
        reshape(&mut m, &b, &c);
        record("reshape/replicated_block_to_cyclic_block".into(), &m);
    }
    {
        let mut m = machine(&[2, 2]);
        let v = filled(&mut m, "V", ElemType::Real, &[5], &[Cyclic], 0, 1);
        let d = DistArray::create(&mut m, "D", ElemType::Real, &[3, 5], &[Block, Block]);
        spread(&mut m, &v, &d, 0);
        record("spread/cyclic_to_rows".into(), &m);
        let e =
            DistArray::create_with_ghost(&mut m, "E", ElemType::Real, &[5, 4], &[Cyclic, Block], 1);
        spread(&mut m, &v, &e, 1);
        record("spread/cyclic_to_columns".into(), &m);
    }

    // PACK / UNPACK with a ragged mask, into vectors longer and shorter
    // than the count.
    for (name, grid, kinds) in [
        ("block_cyclic/2x2", vec![2, 2], vec![Block, Cyclic]),
        ("cyclic3_block/4", vec![4], vec![BlockCyclic(3), Collapsed]),
    ] {
        for (len, vkind) in [(40, Block), (9, Cyclic)] {
            let mut m = machine(&grid);
            let src = filled(&mut m, "SRC", ElemType::Real, &[7, 9], &kinds, 1, 1);
            let mask = ragged_mask(&mut m, &[7, 9], &kinds);
            let vec = DistArray::create(&mut m, "VEC", ElemType::Real, &[len], &[vkind]);
            let count = pack(&mut m, &src, &mask, &vec);
            record(format!("pack/{name}/len{len}/count{count}"), &m);
            let dst = filled(&mut m, "DST", ElemType::Real, &[7, 9], &kinds, 0, 2);
            unpack(&mut m, &vec, &mask, &dst);
            record(format!("unpack/{name}/len{len}"), &m);
        }
    }

    // Fox's broadcast-multiply-roll on a 2 x 2 and a 4 x 4 grid.
    for (q, n) in [(2, 6), (4, 8)] {
        let mut m = machine(&[q, q]);
        let kinds = [Block, Block];
        let a = filled(&mut m, "A", ElemType::Real, &[n, n], &kinds, 0, 1);
        let b = filled(&mut m, "B", ElemType::Real, &[n, n], &kinds, 0, 2);
        let c = DistArray::create(&mut m, "C", ElemType::Real, &[n, n], &kinds);
        assert_eq!(matmul(&mut m, &a, &b, &c), MatmulAlgorithm::Fox);
        record(format!("matmul/fox/{q}x{q}/n{n}"), &m);
    }
    out
}

#[test]
fn planners_reproduce_the_recorded_plans() {
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

const GOLDEN: &[(&str, u64)] = &[
    ("redistribute/block_to_cyclic/1d/Real", 0x388da57ea698c35b),
    ("redistribute/cyclic_to_block/1d/Real", 0xc39672f0391ec01c),
    ("redistribute/block_to_cyclic3/1d/Real", 0xf3a51633167dff7e),
    ("redistribute/cyclic3_to_cyclic/1d/Real", 0x6419a6631ec62efe),
    (
        "redistribute/block_block_to_cyclic_block/2d/Real",
        0xdf79923721a4721c,
    ),
    (
        "redistribute/cyclic3_block_to_block_cyclic/2d/Real",
        0x2adcd48373808c60,
    ),
    (
        "redistribute/block_block_to_cyclic_cyclic/4x4/Real",
        0x9a2a5e6d3483e9a2,
    ),
    (
        "redistribute/star_block_to_block_star/16/Real",
        0xff4c936349ea1abd,
    ),
    (
        "redistribute/block_to_replicated/1d/Real",
        0xe97374bcbfc7df76,
    ),
    (
        "redistribute/cyclic_to_block/replicated_2x2/Real",
        0xb8c93ef66cae5a1e,
    ),
    (
        "redistribute/aligned_cyclic3_to_reversed_block/1d/Real",
        0x507389668d3f414c,
    ),
    (
        "redistribute/block_block_to_cyclic_block/2d/Int",
        0xeb8c05f6382b166c,
    ),
    ("transpose/block_block/2x2", 0x236e347af5b7b1bb),
    ("transpose/cyclic_block/4x4", 0x162116a02ddb53df),
    ("transpose/cyclic3_cyclic/2x2", 0xf89ae53f37bd1cc6),
    (
        "reshape/block_cyclic_to_replicated_block",
        0x038be81a8317a296,
    ),
    (
        "reshape/replicated_block_to_cyclic_block",
        0x2fd288a1d23a1f14,
    ),
    ("spread/cyclic_to_rows", 0x0f9867be41ea9c55),
    ("spread/cyclic_to_columns", 0xa7035eb692a447af),
    ("pack/block_cyclic/2x2/len40/count24", 0x570b693c22f7f169),
    ("unpack/block_cyclic/2x2/len40", 0x9ba811e742d6cf2e),
    ("pack/block_cyclic/2x2/len9/count24", 0x2fef24a0b0982aab),
    ("unpack/block_cyclic/2x2/len9", 0x94d29806eff18458),
    ("pack/cyclic3_block/4/len40/count24", 0xa61cf58895b6d882),
    ("unpack/cyclic3_block/4/len40", 0xbf626e5638e5053e),
    ("pack/cyclic3_block/4/len9/count24", 0x4f2d7119582c762b),
    ("unpack/cyclic3_block/4/len9", 0x43fe7543fe334797),
    ("matmul/fox/2x2/n6", 0x242df63e0c9bbcea),
    ("matmul/fox/4x4/n8", 0xa362e56f416f3601),
];
