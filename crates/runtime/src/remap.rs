//! Generic index-remapping exchange.
//!
//! Many Table-3 intrinsics are, at bottom, "destination element `g`
//! receives source element `φ(g)`" for a statically known index map `φ`:
//! `TRANSPOSE` (`φ([i,j]) = [j,i]`), `RESHAPE` (row-major flat-index
//! preservation), `SPREAD` (drop the new dimension). [`remap`] executes
//! any such map with vectorized pairwise messages, honouring both arrays'
//! full three-stage mappings.

use f90d_comm::helpers::{exchange, locator, ExchangePlan};
use f90d_comm::schedule::ElementReq;
use f90d_machine::Machine;

use crate::array::DistArray;

/// For every global index `g` of `dst`, fetch `src[φ(g)]`: `f(g, sg)`
/// writes `φ(g)` into `sg`, a buffer of `src`'s rank the call owns, and
/// returns `false` to leave `g` alone. Vectorized: one message per
/// (owner, requester) pair.
pub fn remap(
    m: &mut Machine,
    src: &DistArray,
    dst: &DistArray,
    mut f: impl FnMut(&[i64], &mut [i64]) -> bool,
) {
    m.stats.record("remap");
    let from = locator(m, &src.name, &src.dad);
    let mut sg = vec![0; src.rank()];
    let mut moves = Vec::new();
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        let dst_arr = m.mems[rank as usize].array(&dst.name);
        dst.dad
            .for_each_owned(&coords, &dst_arr.segment(), |g, dst_off| {
                if f(g, &mut sg) {
                    let (owner, src_off) = from.locate(&sg);
                    moves.push(ElementReq::moving(owner, rank, src_off, dst_off));
                }
            });
    }
    let plan = ExchangePlan::of_moves(&moves);
    exchange(m, &src.name, &dst.name, &plan).expect("collective is internally matched");
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::{DistKind, ProcGrid};
    use f90d_machine::{ArrayData, ElemType, MachineSpec};

    #[test]
    fn remap_reverse() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[3]));
        let a = DistArray::create(&mut m, "A", ElemType::Real, &[9], &[DistKind::Block]);
        let b = DistArray::create(&mut m, "B", ElemType::Real, &[9], &[DistKind::Cyclic]);
        a.scatter_host(&mut m, &ArrayData::Real((0..9).map(|x| x as f64).collect()));
        remap(&mut m, &a, &b, |g, sg| {
            sg[0] = 8 - g[0];
            true
        });
        let host = b.gather_host(&mut m);
        assert_eq!(
            host,
            ArrayData::Real((0..9).map(|x| (8 - x) as f64).collect())
        );
    }

    #[test]
    fn remap_partial_leaves_zeros() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2]));
        let a = DistArray::create(&mut m, "A", ElemType::Int, &[4], &[DistKind::Block]);
        let b = DistArray::create(&mut m, "B", ElemType::Int, &[4], &[DistKind::Block]);
        a.fill_with(&mut m, |g| f90d_machine::Value::Int(g[0] + 1));
        remap(&mut m, &a, &b, |g, sg| {
            sg[0] = g[0];
            g[0] % 2 == 0
        });
        let host = b.gather_host(&mut m);
        assert_eq!(host, ArrayData::Int(vec![1, 0, 3, 0]));
    }
}
