//! Category 2 — reduction intrinsics.
//!
//! "Computations based on local data followed by use of a reduction tree
//! on the processors involved" (paper §6). Full reductions return a
//! replicated scalar; `DIM=` reductions ([`reduce_dim`]) reduce along one
//! array dimension with a tree per grid fiber and produce a rank-lowered
//! distributed result replicated along the reduced grid axis.

use f90d_comm::reduce::{
    allreduce_along_axis, allreduce_int, allreduce_loc, allreduce_scalar, encode_value, ReduceOp,
};
use f90d_distrib::{row_major_strides, Dad, Locator, Runs};
use f90d_machine::{ArrayData, LocalArray, Machine, Value};

use crate::array::{flatten, DistArray};

/// Per-rank partial over canonically-owned elements: `op` folded from
/// its identity over the rank's elements in [`Dad::for_each_owned`]
/// order, strictly left to right. `logical` selects how an element
/// becomes the `f64` the reduction runs in: [`encode_value`] (a LOGICAL
/// counts 1.0 when true) or `Value::as_real`.
fn local_partial(m: &mut Machine, a: &DistArray, op: ReduceOp, logical: bool) -> Vec<f64> {
    partials(m, a, op.identity(), |arr, offs| {
        fold_owned(arr, offs, op, logical)
    })
}

/// [`local_partial`] of an INTEGER array, exact in `i64`.
fn local_partial_int(m: &mut Machine, a: &DistArray, op: ReduceOp) -> Vec<i64> {
    partials(m, a, op.identity_int(), |arr, offs| {
        let at = |off: usize| arr.get_flat(off).as_int();
        (offs.iter()).fold(op.identity_int(), |acc, &off| op.combine_int(acc, at(off)))
    })
}

/// Per rank, `fold` of the offsets of the elements its segment owns in
/// [`Dad::for_each_owned`] order (row-major, increasing global index) —
/// or `identity` on a rank holding a replicated copy that is not the
/// canonical one.
fn partials<T: Clone>(
    m: &mut Machine,
    a: &DistArray,
    identity: T,
    fold: impl Fn(&LocalArray, &[usize]) -> T,
) -> Vec<T> {
    let mut partials = Vec::with_capacity(m.nranks() as usize);
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        if a.dad.replicated_axes.iter().any(|&ax| coords[ax] != 0) {
            partials.push(identity.clone());
            continue;
        }
        let arr = m.mems[rank as usize].array(&a.name);
        let offs = a.dad.offsets(&a.dad.owned(&coords), &arr.segment());
        partials.push(fold(arr, &offs));
        m.transport.charge_elem_ops(rank, offs.len() as i64);
    }
    partials
}

/// `op` folded over the elements of segment `arr` at `offs`. The element
/// type is matched once: REAL and INTEGER segments fold from the raw
/// slice; LOGICAL and COMPLEX ones, and a lazy segment nothing has
/// written yet (every element reads as zero), one `Value` at a time.
fn fold_owned(arr: &LocalArray, offs: &[usize], op: ReduceOp, logical: bool) -> f64 {
    fn fold(offs: &[usize], op: ReduceOp, at: impl Fn(usize) -> f64) -> f64 {
        (offs.iter()).fold(op.identity(), |acc, &off| op.combine(acc, at(off)))
    }
    match arr.data() {
        ArrayData::Real(data) if arr.is_materialized() => fold(offs, op, |off| data[off]),
        ArrayData::Int(data) if arr.is_materialized() => fold(offs, op, |off| data[off] as f64),
        _ if logical => fold(offs, op, |off| encode_value(arr.get_flat(off))),
        _ => fold(offs, op, |off| arr.get_flat(off).as_real()),
    }
}

/// `SUM(a)` — full sum, replicated scalar result.
pub fn sum(m: &mut Machine, a: &DistArray) -> f64 {
    let p = local_partial(m, a, ReduceOp::Sum, false);
    allreduce_scalar(m, ReduceOp::Sum, p).expect("collective is internally matched")
}

/// `PRODUCT(a)`.
pub fn product(m: &mut Machine, a: &DistArray) -> f64 {
    let p = local_partial(m, a, ReduceOp::Prod, false);
    allreduce_scalar(m, ReduceOp::Prod, p).expect("collective is internally matched")
}

/// `MAXVAL(a)`.
pub fn maxval(m: &mut Machine, a: &DistArray) -> f64 {
    let p = local_partial(m, a, ReduceOp::Max, false);
    allreduce_scalar(m, ReduceOp::Max, p).expect("collective is internally matched")
}

/// `MINVAL(a)`.
pub fn minval(m: &mut Machine, a: &DistArray) -> f64 {
    let p = local_partial(m, a, ReduceOp::Min, false);
    allreduce_scalar(m, ReduceOp::Min, p).expect("collective is internally matched")
}

/// `SUM`, `PRODUCT`, `MAXVAL` or `MINVAL` (`op`) of an INTEGER array,
/// exact: INTEGER `+` and `*` wrap, so neither the order of the ranks nor
/// that of the tree can show in the result.
pub fn reduce_int(m: &mut Machine, a: &DistArray, op: ReduceOp) -> i64 {
    let p = local_partial_int(m, a, op);
    allreduce_int(m, op, p).expect("collective is internally matched")
}

/// `COUNT(mask)` — number of `.TRUE.` elements of a LOGICAL array.
pub fn count(m: &mut Machine, mask: &DistArray) -> i64 {
    let p = local_partial(m, mask, ReduceOp::Sum, true);
    allreduce_scalar(m, ReduceOp::Sum, p).expect("collective is internally matched") as i64
}

/// `ALL(mask)`.
pub fn all(m: &mut Machine, mask: &DistArray) -> bool {
    let p = local_partial(m, mask, ReduceOp::And, true);
    allreduce_scalar(m, ReduceOp::And, p).expect("collective is internally matched") != 0.0
}

/// `ANY(mask)`.
pub fn any(m: &mut Machine, mask: &DistArray) -> bool {
    let p = local_partial(m, mask, ReduceOp::Or, true);
    allreduce_scalar(m, ReduceOp::Or, p).expect("collective is internally matched") != 0.0
}

/// `DOTPRODUCT(a, b)` of two conforming 1-D arrays with identical
/// mappings: local multiply-accumulate, then one tree reduction.
pub fn dotproduct(m: &mut Machine, a: &DistArray, b: &DistArray) -> f64 {
    assert_eq!(a.shape(), b.shape(), "DOTPRODUCT operands must conform");
    let mut partials = Vec::with_capacity(m.nranks() as usize);
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        let canonical = !a.dad.replicated_axes.iter().any(|&ax| coords[ax] != 0);
        let mut acc = 0.0;
        if canonical {
            let mem = &m.mems[rank as usize];
            let (aa, bb) = (mem.array(&a.name), mem.array(&b.name));
            let at_b = Locator::new(&b.dad, &bb.shape, &bb.ghost_lo, &bb.ghost_hi);
            let n = a.dad.for_each_owned(&coords, &aa.segment(), |g, off| {
                acc += aa.get_flat(off).as_real() * bb.get_flat(at_b.locate(g).1).as_real();
            });
            m.transport.charge_elem_ops(rank, 2 * n as i64);
        }
        partials.push(acc);
    }
    allreduce_scalar(m, ReduceOp::Sum, partials).expect("collective is internally matched")
}

fn loc_reduce(m: &mut Machine, a: &DistArray, op: ReduceOp) -> Vec<i64> {
    let strides = row_major_strides(a.shape());
    let mut partials = Vec::with_capacity(m.nranks() as usize);
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        let canonical = !a.dad.replicated_axes.iter().any(|&ax| coords[ax] != 0);
        let mut best = (op.identity(), -1i64);
        if canonical {
            let arr = m.mems[rank as usize].array(&a.name);
            let n = a.dad.for_each_owned(&coords, &arr.segment(), |g, off| {
                let v = arr.get_flat(off).as_real();
                let flat = flatten(g, &strides) as i64;
                let better = match op {
                    ReduceOp::MaxLoc => {
                        v > best.0 || (v == best.0 && (best.1 < 0 || flat < best.1))
                    }
                    ReduceOp::MinLoc => {
                        v < best.0 || (v == best.0 && (best.1 < 0 || flat < best.1))
                    }
                    _ => unreachable!(),
                };
                if better {
                    best = (v, flat);
                }
            });
            m.transport.charge_elem_ops(rank, n as i64);
        }
        partials.push(best);
    }
    let (_, flat) = allreduce_loc(m, op, partials).expect("collective is internally matched");
    crate::array::unflatten(flat, a.shape())
}

/// `MAXLOC(a)` — global index (0-based, one entry per dimension) of the
/// maximum; ties resolve to the first element in array-element order.
pub fn maxloc(m: &mut Machine, a: &DistArray) -> Vec<i64> {
    loc_reduce(m, a, ReduceOp::MaxLoc)
}

/// `MINLOC(a)`.
pub fn minloc(m: &mut Machine, a: &DistArray) -> Vec<i64> {
    loc_reduce(m, a, ReduceOp::MinLoc)
}

/// The descriptor of `REDUCE(a, DIM=dim)`: dimension `dim` removed, its
/// grid axis becomes a replication axis.
pub fn reduced_dad(a: &Dad, dim: usize) -> Dad {
    let mut dims = a.dims.clone();
    let removed = dims.remove(dim);
    let mut shape = a.shape.clone();
    shape.remove(dim);
    let mut replicated = a.replicated_axes.clone();
    if let Some(ax) = removed.grid_axis {
        replicated.push(ax);
        replicated.sort_unstable();
        replicated.dedup();
    }
    Dad {
        name: format!("{}_red{}", a.name, dim),
        shape,
        dims,
        replicated_axes: replicated,
        grid: a.grid.clone(),
    }
}

/// `op(a, DIM=dim)` → `dst`, which must have been allocated from
/// [`reduced_dad`] (use [`DistArray::from_dad`]). Supports `Sum`, `Prod`,
/// `Max`, `Min`, `And`, `Or`.
pub fn reduce_dim(m: &mut Machine, a: &DistArray, dst: &DistArray, dim: usize, op: ReduceOp) {
    assert!(!op.is_loc(), "use maxloc/minloc for location reductions");
    // Phase 1: local partials over the reduced dimension, one per
    // element of the remaining dims' product, in its row-major order —
    // the order `dst`'s owned elements are walked in on every fiber
    // member. Walking `a` row-major visits each partial's elements in
    // increasing index along `dim`: element `k` of the walk adds to
    // partial `k / (red · inner) · inner + k mod inner`.
    let nranks = m.nranks();
    let mut per_rank: Vec<Vec<f64>> = Vec::with_capacity(nranks as usize);
    for rank in 0..nranks {
        let coords = m.grid.coords_of(rank);
        let arr = m.mems[rank as usize].array(&a.name);
        let owned = a.dad.owned(&coords);
        let red = owned[dim].len();
        let inner: usize = owned[dim + 1..].iter().map(Runs::len).product();
        let slots = (owned.iter().enumerate())
            .filter(|&(d, _)| d != dim)
            .map(|(_, runs)| runs.len())
            .product();
        let mut partial = vec![op.identity(); slots];
        let mut k = 0;
        a.dad.walk(&owned, &arr.segment(), |_, off| {
            let slot = &mut partial[k / (red * inner) * inner + k % inner];
            let mut acc = [*slot];
            op.fold(&mut acc, &[encode_value(arr.get_flat(off))]);
            *slot = acc[0];
            k += 1;
        });
        m.transport
            .charge_elem_ops(rank, (partial.len() * red.max(1)) as i64);
        per_rank.push(partial);
    }
    // Phase 2: tree-combine along the reduced dimension's grid axis.
    let combined = match a.dad.dims[dim].grid_axis {
        Some(axis) if a.dad.dims[dim].is_distributed() => {
            allreduce_along_axis(m, axis, op, per_rank).expect("collective is internally matched")
        }
        _ => per_rank,
    };
    // Phase 3: store into dst's owned elements, in the same order.
    for rank in 0..nranks {
        let coords = m.grid.coords_of(rank);
        let mut vals = combined[rank as usize].iter();
        let arr = m.mems[rank as usize].array_mut(&dst.name);
        let (seg, ty) = (arr.segment(), arr.elem_type());
        dst.dad.for_each_owned(&coords, &seg, |_, off| {
            let v = vals.next().expect("one partial per element");
            arr.set_flat(off, Value::Real(*v).convert_to(ty));
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::{DistKind, ProcGrid};
    use f90d_machine::{ArrayData, ElemType, MachineSpec};

    fn arr_1d(m: &mut Machine, vals: &[f64], kind: DistKind) -> DistArray {
        let a = DistArray::create(m, "A", ElemType::Real, &[vals.len() as i64], &[kind]);
        a.scatter_host(m, &ArrayData::Real(vals.to_vec()));
        a
    }

    #[test]
    fn full_reductions() {
        for kind in [DistKind::Block, DistKind::Cyclic, DistKind::Collapsed] {
            let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[4]));
            let a = arr_1d(&mut m, &[3.0, -1.0, 4.0, 1.0, 5.0, -9.0, 2.0], kind);
            assert_eq!(sum(&mut m, &a), 5.0, "{kind:?}");
            assert_eq!(maxval(&mut m, &a), 5.0);
            assert_eq!(minval(&mut m, &a), -9.0);
            assert_eq!(product(&mut m, &a), -3.0 * 4.0 * 5.0 * -9.0 * 2.0);
        }
    }

    /// The per-rank partials fold the rank's elements in the order
    /// `for_each_owned` visits them — row-major by global index — bit for
    /// bit on values whose sum depends on the order, and charge one
    /// element operation per owned element.
    #[test]
    fn partials_fold_in_owned_element_order() {
        let shape = [7i64, 10];
        for kind in [DistKind::Block, DistKind::Cyclic, DistKind::BlockCyclic(3)] {
            let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[2, 2]));
            let a = DistArray::create(&mut m, "A", ElemType::Real, &shape, &[kind, kind]);
            a.fill_with(&mut m, |g| {
                let x = (g[0] * 10 + g[1]) as f64;
                Value::Real(if g[1] % 3 == 0 {
                    1e16 - x
                } else {
                    0.1 * x - 1e16
                })
            });
            m.reset_time();
            let got = local_partial(&mut m, &a, ReduceOp::Sum, false);
            let mut charged = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[2, 2]));
            for rank in 0..m.nranks() {
                let arr = m.mems[rank as usize].array("A");
                let (mut want, mut owned) = ([ReduceOp::Sum.identity()], 0);
                for flat in 0..a.dad.size() {
                    let g = crate::array::unflatten(flat, &shape);
                    if a.dad.is_owner(rank, &g) {
                        let v = arr.get(&a.dad.local_index(&g)).as_real();
                        ReduceOp::Sum.fold(&mut want, &[v]);
                        owned += 1;
                    }
                }
                let held = a.dad.owned(&m.grid.coords_of(rank));
                assert_eq!(
                    held.iter().map(Runs::len).product::<usize>(),
                    owned as usize
                );
                assert_eq!(
                    got[rank as usize].to_bits(),
                    want[0].to_bits(),
                    "{kind:?} rank {rank}"
                );
                charged.transport.charge_elem_ops(rank, owned);
                assert_eq!(
                    m.transport.clock(rank).to_bits(),
                    charged.transport.clock(rank).to_bits(),
                    "{kind:?} rank {rank} element-op charge"
                );
            }
        }
    }

    /// What `local_partial` replaced, kept as the oracle: one `Value`
    /// per element through `for_each_owned`, folded a slot at a time.
    fn local_partial_oracle(
        m: &mut Machine,
        a: &DistArray,
        op: ReduceOp,
        map: impl Fn(Value) -> f64,
    ) -> Vec<f64> {
        let mut partials = Vec::with_capacity(m.nranks() as usize);
        for rank in 0..m.nranks() {
            let coords = m.grid.coords_of(rank);
            let canonical = !a.dad.replicated_axes.iter().any(|&ax| coords[ax] != 0);
            let mut acc = op.identity();
            if canonical {
                let arr = m.mems[rank as usize].array(&a.name);
                let n = a.dad.for_each_owned(&coords, &arr.segment(), |_, off| {
                    let mut slot = [acc];
                    op.fold(&mut slot, &[map(arr.get_flat(off))]);
                    acc = slot[0];
                });
                m.transport.charge_elem_ops(rank, n as i64);
            }
            partials.push(acc);
        }
        partials
    }

    /// All seven reductions × REAL / INTEGER / LOGICAL × a `(BLOCK,
    /// BLOCK)` array with ghost cells, a `(CYCLIC(3), CYCLIC(3))` one, a
    /// vector replicated along a grid axis and a lazy segment nothing
    /// has written: every rank's partial and every rank's clock are the
    /// per-element fold's, bit for bit.
    #[test]
    fn typed_partials_equal_the_per_element_fold() {
        // (op, LOGICAL encoding) of SUM, PRODUCT, MAXVAL, MINVAL, COUNT,
        // ALL, ANY.
        let reductions = [
            (ReduceOp::Sum, false),
            (ReduceOp::Prod, false),
            (ReduceOp::Max, false),
            (ReduceOp::Min, false),
            (ReduceOp::Sum, true),
            (ReduceOp::And, true),
            (ReduceOp::Or, true),
        ];
        let bc3 = DistKind::BlockCyclic(3);
        let layouts: [(&[i64], &[DistKind], i64); 3] = [
            (&[7, 10], &[DistKind::Block, DistKind::Block], 1),
            (&[7, 10], &[bc3, bc3], 0),
            (&[11], &[bc3], 0), // replicated along grid axis 1
        ];
        for ty in [ElemType::Real, ElemType::Int, ElemType::Bool] {
            for (shape, kinds, ghost) in layouts {
                for written in [true, false] {
                    let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[2, 2]));
                    let dad = f90d_distrib::DadBuilder::new("A", shape)
                        .distribute(kinds)
                        .grid(m.grid.clone())
                        .build()
                        .unwrap();
                    let a = DistArray::from_dad(&mut m, "A", ty, dad, ghost);
                    if written {
                        a.fill_with(&mut m, |g| {
                            let x = g.iter().fold(3, |x, &i| x * 10 + i);
                            match ty {
                                // Sums that depend on the order of the adds.
                                ElemType::Real if x % 3 == 0 => Value::Real(1e16 - x as f64),
                                ElemType::Real => Value::Real(0.1 * x as f64 - 1e16),
                                ElemType::Int => Value::Int(x % 7 - 3),
                                _ => Value::Bool(x % 5 != 0),
                            }
                        });
                    } else {
                        for mem in &mut m.mems {
                            let seg = mem.array("A");
                            let lazy = LocalArray::with_ghost_lazy(
                                ty,
                                &seg.shape,
                                &seg.ghost_lo,
                                &seg.ghost_hi,
                            );
                            mem.insert_array("A", lazy);
                        }
                    }
                    for (op, logical) in reductions {
                        if ty == ElemType::Bool && !logical {
                            continue; // a LOGICAL in a numeric reduction is a compiler bug
                        }
                        let label = format!("{ty:?} {kinds:?} written={written} {op:?}");
                        m.reset_time();
                        let want = if logical {
                            local_partial_oracle(&mut m, &a, op, encode_value)
                        } else {
                            local_partial_oracle(&mut m, &a, op, |v| v.as_real())
                        };
                        let clocks: Vec<u64> = (0..m.nranks())
                            .map(|r| m.transport.clock(r).to_bits())
                            .collect();
                        m.reset_time();
                        let got = local_partial(&mut m, &a, op, logical);
                        for rank in 0..m.nranks() as usize {
                            assert_eq!(got[rank].to_bits(), want[rank].to_bits(), "{label}");
                            assert_eq!(
                                m.transport.clock(rank as i64).to_bits(),
                                clocks[rank],
                                "{label}: element-op charge"
                            );
                        }
                        assert_eq!(
                            m.mems[0].array("A").is_materialized(),
                            written,
                            "{label}: reading allocates nothing"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn logical_reductions() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[3]));
        let mk = DistArray::create(&mut m, "M", ElemType::Bool, &[6], &[DistKind::Block]);
        mk.scatter_host(
            &mut m,
            &ArrayData::Bool(vec![true, false, true, true, false, true]),
        );
        assert_eq!(count(&mut m, &mk), 4);
        assert!(!all(&mut m, &mk));
        assert!(any(&mut m, &mk));
        let t = DistArray::create(&mut m, "T", ElemType::Bool, &[4], &[DistKind::Block]);
        t.scatter_host(&mut m, &ArrayData::Bool(vec![true; 4]));
        assert!(all(&mut m, &t));
    }

    #[test]
    fn dot_product() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2]));
        let a = DistArray::create(&mut m, "A", ElemType::Real, &[4], &[DistKind::Block]);
        let b = DistArray::create(&mut m, "B", ElemType::Real, &[4], &[DistKind::Block]);
        a.scatter_host(&mut m, &ArrayData::Real(vec![1.0, 2.0, 3.0, 4.0]));
        b.scatter_host(&mut m, &ArrayData::Real(vec![10.0, 20.0, 30.0, 40.0]));
        assert_eq!(dotproduct(&mut m, &a, &b), 300.0);
    }

    #[test]
    fn maxloc_minloc_first_tie_wins() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[4]));
        let a = arr_1d(&mut m, &[1.0, 7.0, 3.0, 7.0, 0.0, -2.0], DistKind::Cyclic);
        assert_eq!(maxloc(&mut m, &a), vec![1]);
        let b = DistArray::create(&mut m, "B", ElemType::Real, &[6], &[DistKind::Cyclic]);
        b.scatter_host(
            &mut m,
            &ArrayData::Real(vec![1.0, -2.0, 3.0, -2.0, 0.0, 5.0]),
        );
        assert_eq!(minloc(&mut m, &b), vec![1]);
    }

    #[test]
    fn maxloc_2d_returns_index_vector() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2, 2]));
        let a = DistArray::create(
            &mut m,
            "A",
            ElemType::Real,
            &[4, 4],
            &[DistKind::Block, DistKind::Block],
        );
        a.fill_with(&mut m, |g| Value::Real((g[0] * 4 + g[1]) as f64));
        a.set_global(&mut m, &[1, 2], Value::Real(100.0));
        assert_eq!(maxloc(&mut m, &a), vec![1, 2]);
    }

    #[test]
    fn reduce_dim_sum_2d() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2, 2]));
        let a = DistArray::create(
            &mut m,
            "A",
            ElemType::Real,
            &[4, 6],
            &[DistKind::Block, DistKind::Block],
        );
        a.fill_with(&mut m, |g| {
            Value::Real((g[0] + 1) as f64 * (g[1] + 1) as f64)
        });
        // SUM over dim 0: result(j) = (1+2+3+4)*(j+1) = 10*(j+1)
        let rdad = reduced_dad(&a.dad, 0);
        let dst = DistArray::from_dad(&mut m, "R", ElemType::Real, rdad, 0);
        reduce_dim(&mut m, &a, &dst, 0, ReduceOp::Sum);
        for j in 0..6i64 {
            assert_eq!(
                dst.get_global(&m, &[j]),
                Value::Real((10 * (j + 1)) as f64),
                "col {j}"
            );
        }
        // Result is replicated along grid axis 0: both rows hold it.
        for rank in 0..4 {
            let coords = m.grid.coords_of(rank);
            let arr = m.mems[rank as usize].array("R");
            dst.dad.for_each_owned(&coords, &arr.segment(), |g, off| {
                assert_eq!(arr.get_flat(off), Value::Real((10 * (g[0] + 1)) as f64));
            });
        }
    }

    #[test]
    fn reduce_dim_max_along_undistributed() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2]));
        let a = DistArray::create(
            &mut m,
            "A",
            ElemType::Real,
            &[4, 3],
            &[DistKind::Block, DistKind::Collapsed],
        );
        a.fill_with(&mut m, |g| Value::Real((g[0] * 10 + g[1]) as f64));
        // MAX over dim 1 (undistributed): result(i) = 10i + 2
        let rdad = reduced_dad(&a.dad, 1);
        let dst = DistArray::from_dad(&mut m, "R", ElemType::Real, rdad, 0);
        reduce_dim(&mut m, &a, &dst, 1, ReduceOp::Max);
        for i in 0..4i64 {
            assert_eq!(dst.get_global(&m, &[i]), Value::Real((10 * i + 2) as f64));
        }
    }

    #[test]
    fn reduction_uses_tree_not_chain() {
        let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[16]));
        let a = DistArray::create(&mut m, "A", ElemType::Real, &[16], &[DistKind::Block]);
        a.fill_with(&mut m, |_| Value::Real(1.0));
        m.reset_time();
        let s = sum(&mut m, &a);
        assert_eq!(s, 16.0);
        // log-tree: ~8 stages round trip; chain would be 15+15 startups.
        assert!(m.elapsed() < 12.0 * m.spec().alpha + 1e-3);
    }
}
