//! Category 4 — unstructured-communication intrinsics:
//! `PACK`, `UNPACK`, `RESHAPE`, `TRANSPOSE`.
//!
//! `TRANSPOSE` and `RESHAPE` are static index remaps executed with
//! vectorized pairwise messages. `PACK`/`UNPACK` depend on a *data-value*
//! (the mask), so their send/receive sets require a counting pass — here
//! an exclusive prefix over per-rank mask counts obtained with a tree
//! reduction, followed by a scheduled exchange; this is the classic
//! PARTI-style two-phase approach.

use f90d_comm::helpers::{exchange, locator, ExchangePlan};
use f90d_comm::reduce::{allreduce, ReduceOp};
use f90d_comm::schedule::ElementReq;
use f90d_machine::Machine;
#[cfg(test)]
use f90d_machine::Value;

use f90d_distrib::row_major_strides;

use crate::array::{flatten, unflatten_into, DistArray};
use crate::remap::remap;

/// `dst = TRANSPOSE(src)` for rank-2 arrays.
pub fn transpose(m: &mut Machine, src: &DistArray, dst: &DistArray) {
    m.stats.record("transpose");
    assert_eq!(src.rank(), 2, "TRANSPOSE needs a rank-2 array");
    assert_eq!(dst.shape()[0], src.shape()[1]);
    assert_eq!(dst.shape()[1], src.shape()[0]);
    remap(m, src, dst, |g, sg| {
        sg.copy_from_slice(&[g[1], g[0]]);
        true
    });
}

/// `dst = RESHAPE(src, SHAPE(dst))` — array-element order (row-major in
/// our 0-based internal convention) is preserved.
pub fn reshape(m: &mut Machine, src: &DistArray, dst: &DistArray) {
    m.stats.record("reshape");
    assert_eq!(src.size(), dst.size(), "RESHAPE must preserve size");
    let dst_strides = row_major_strides(dst.shape());
    remap(m, src, dst, |g, sg| {
        unflatten_into(flatten(g, &dst_strides) as i64, src.shape(), sg);
        true
    });
}

/// One selected (mask-true) element: its packed stream position and
/// global index.
struct MaskPick {
    /// Position in the packed (array-element-order) stream.
    pos: i64,
    /// Global index in the mask/src array.
    global: Vec<i64>,
}

/// The counting pass shared by PACK and UNPACK: per rank, the mask-true
/// elements it owns with their positions in the packed stream
/// (array-element order). Charges the local scan plus the count
/// allreduce the real inspector would perform.
fn mask_picks(m: &mut Machine, mask: &DistArray) -> Vec<Vec<MaskPick>> {
    let nranks = m.nranks() as usize;
    let strides = row_major_strides(mask.shape());
    let mut selected: Vec<Vec<(i64, Vec<i64>)>> = Vec::with_capacity(nranks);
    let mut counts = vec![0f64; nranks];
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        let canonical = !mask.dad.replicated_axes.iter().any(|&ax| coords[ax] != 0);
        let mut sel = Vec::new();
        if canonical {
            let arr = m.mems[rank as usize].array(&mask.name);
            let owned = mask.dad.for_each_owned(&coords, &arr.segment(), |g, off| {
                if arr.get_flat(off).as_bool() {
                    sel.push((flatten(g, &strides) as i64, g.to_vec()));
                }
            });
            m.transport.charge_elem_ops(rank, owned as i64);
        }
        counts[rank as usize] = sel.len() as f64;
        sel.sort_by_key(|&(f, _)| f);
        selected.push(sel);
    }
    // Global packed positions: rank the flat indices across all nodes.
    let mut flagged: Vec<(i64, usize, usize)> = Vec::new(); // (flat, rank, k)
    for (r, sel) in selected.iter().enumerate() {
        for (k, &(f, _)) in sel.iter().enumerate() {
            flagged.push((f, r, k));
        }
    }
    flagged.sort_unstable();
    let mut pos_of: Vec<Vec<i64>> = selected.iter().map(|s| vec![0; s.len()]).collect();
    for (pos, &(_, r, k)) in flagged.iter().enumerate() {
        pos_of[r][k] = pos as i64;
    }
    // Charge the counting exchange (one scalar allreduce).
    let _ = allreduce(m, ReduceOp::Sum, counts.iter().map(|&c| vec![c]).collect())
        .expect("collective is internally matched");
    selected
        .into_iter()
        .zip(pos_of)
        .map(|(sel, poss)| {
            sel.into_iter()
                .zip(poss)
                .map(|((_, global), pos)| MaskPick { pos, global })
                .collect()
        })
        .collect()
}

/// `dst = PACK(src, mask)`: gather the elements of `src` where `mask` is
/// true, in array-element order, into the 1-D distributed array `dst`
/// (length ≥ COUNT(mask); excess positions are untouched). Returns the
/// number of packed elements.
pub fn pack(m: &mut Machine, src: &DistArray, mask: &DistArray, dst: &DistArray) -> i64 {
    m.stats.record("pack");
    assert_eq!(src.shape(), mask.shape(), "PACK mask must conform");
    assert_eq!(dst.rank(), 1, "PACK result is rank-1");
    let placed = mask_picks(m, mask);
    let (from, to) = (
        locator(m, &src.name, &src.dad),
        locator(m, &dst.name, &dst.dad),
    );
    let mut moves = Vec::new();
    let mut total = 0i64;
    for (rank, sel) in (0..).zip(&placed) {
        for pick in sel {
            total += 1;
            if pick.pos >= dst.shape()[0] {
                continue;
            }
            let (_, src_off) = from.locate(&pick.global);
            let (owner, dst_off) = to.locate(&[pick.pos]);
            for replica in to.replicas() {
                moves.push(ElementReq::moving(rank, owner + replica, src_off, dst_off));
            }
        }
    }
    let plan = ExchangePlan::of_moves(&moves);
    exchange(m, &src.name, &dst.name, &plan).expect("collective is internally matched");
    total
}

/// `dst = UNPACK(vec, mask, dst)`: scatter `vec`'s elements into the
/// positions of `dst` where `mask` is true (array-element order);
/// positions with a false mask keep their current (field) values.
pub fn unpack(m: &mut Machine, vec: &DistArray, mask: &DistArray, dst: &DistArray) {
    m.stats.record("unpack");
    assert_eq!(dst.shape(), mask.shape(), "UNPACK mask must conform");
    assert_eq!(vec.rank(), 1, "UNPACK vector is rank-1");
    let placed = mask_picks(m, mask);
    let (from, to) = (
        locator(m, &vec.name, &vec.dad),
        locator(m, &dst.name, &dst.dad),
    );
    let mut moves = Vec::new();
    for pick in placed.iter().flatten() {
        if pick.pos >= vec.shape()[0] {
            continue;
        }
        let (src_rank, src_off) = from.locate(&[pick.pos]);
        let (owner, dst_off) = to.locate(&pick.global);
        for replica in to.replicas() {
            moves.push(ElementReq::moving(
                src_rank,
                owner + replica,
                src_off,
                dst_off,
            ));
        }
    }
    let plan = ExchangePlan::of_moves(&moves);
    exchange(m, &vec.name, &dst.name, &plan).expect("collective is internally matched");
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::{DistKind, ProcGrid};
    use f90d_machine::{ArrayData, ElemType, MachineSpec};

    #[test]
    fn transpose_2d() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2, 2]));
        let dist = [DistKind::Block, DistKind::Block];
        let a = DistArray::create(&mut m, "A", ElemType::Real, &[3, 5], &dist);
        let b = DistArray::create(&mut m, "B", ElemType::Real, &[5, 3], &dist);
        a.fill_with(&mut m, |g| Value::Real((g[0] * 100 + g[1]) as f64));
        transpose(&mut m, &a, &b);
        for i in 0..5i64 {
            for j in 0..3i64 {
                assert_eq!(
                    b.get_global(&m, &[i, j]),
                    Value::Real((j * 100 + i) as f64),
                    "({i},{j})"
                );
            }
        }
    }

    #[test]
    fn reshape_preserves_element_order() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2]));
        let a = DistArray::create(&mut m, "A", ElemType::Int, &[12], &[DistKind::Block]);
        a.scatter_host(&mut m, &ArrayData::Int((0..12).collect()));
        let b = DistArray::create(
            &mut m,
            "B",
            ElemType::Int,
            &[3, 4],
            &[DistKind::Block, DistKind::Collapsed],
        );
        reshape(&mut m, &a, &b);
        for i in 0..3i64 {
            for j in 0..4i64 {
                assert_eq!(b.get_global(&m, &[i, j]), Value::Int(i * 4 + j));
            }
        }
    }

    #[test]
    fn pack_gathers_in_element_order() {
        for kind in [DistKind::Block, DistKind::Cyclic] {
            let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[3]));
            let a = DistArray::create(&mut m, "A", ElemType::Real, &[9], &[kind]);
            let mk = DistArray::create(&mut m, "M", ElemType::Bool, &[9], &[kind]);
            a.scatter_host(
                &mut m,
                &ArrayData::Real((0..9).map(|x| x as f64 * 10.0).collect()),
            );
            mk.scatter_host(
                &mut m,
                &ArrayData::Bool(vec![
                    false, true, false, true, true, false, false, false, true,
                ]),
            );
            let d = DistArray::create(&mut m, "D", ElemType::Real, &[4], &[DistKind::Block]);
            let n = pack(&mut m, &a, &mk, &d);
            assert_eq!(n, 4, "{kind:?}");
            let host = d.gather_host(&mut m);
            assert_eq!(
                host,
                ArrayData::Real(vec![10.0, 30.0, 40.0, 80.0]),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn unpack_scatters_into_mask_positions() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2]));
        let v = DistArray::create(&mut m, "V", ElemType::Real, &[3], &[DistKind::Block]);
        v.scatter_host(&mut m, &ArrayData::Real(vec![7.0, 8.0, 9.0]));
        let mk = DistArray::create(&mut m, "M", ElemType::Bool, &[6], &[DistKind::Block]);
        mk.scatter_host(
            &mut m,
            &ArrayData::Bool(vec![true, false, false, true, false, true]),
        );
        let d = DistArray::create(&mut m, "D", ElemType::Real, &[6], &[DistKind::Block]);
        d.fill_with(&mut m, |_| Value::Real(-1.0));
        unpack(&mut m, &v, &mk, &d);
        let host = d.gather_host(&mut m);
        assert_eq!(host, ArrayData::Real(vec![7.0, -1.0, -1.0, 8.0, -1.0, 9.0]));
    }
}
