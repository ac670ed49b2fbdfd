//! Category 3 — multicasting intrinsics: `SPREAD`.
//!
//! "The third category uses multiple broadcast trees to spread data"
//! (paper §6). `SPREAD(src, DIM=dim, NCOPIES=n)` inserts a new dimension
//! of extent `n`; when that dimension is distributed, each source owner
//! feeds a broadcast tree along the new grid axis.

use f90d_machine::Machine;

use crate::array::DistArray;
use crate::remap::remap;

/// `dst = SPREAD(src, DIM=dim, NCOPIES=dst.shape()[dim])` (0-based
/// `dim`). `dst` must have `src`'s shape with one extra dimension `dim`.
pub fn spread(m: &mut Machine, src: &DistArray, dst: &DistArray, dim: usize) {
    m.stats.record("spread");
    assert_eq!(dst.rank(), src.rank() + 1, "SPREAD adds one dimension");
    let mut expect = dst.shape().to_vec();
    expect.remove(dim);
    assert_eq!(expect, src.shape(), "SPREAD shapes must conform");
    remap(m, src, dst, |g, sg| {
        sg[..dim].copy_from_slice(&g[..dim]);
        sg[dim..].copy_from_slice(&g[dim + 1..]);
        true
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::{DistKind, ProcGrid};
    use f90d_machine::{ArrayData, ElemType, MachineSpec, Value};

    #[test]
    fn spread_vector_to_matrix_rows() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2, 2]));
        let v = DistArray::create(&mut m, "V", ElemType::Real, &[4], &[DistKind::Block]);
        v.scatter_host(&mut m, &ArrayData::Real(vec![1.0, 2.0, 3.0, 4.0]));
        // SPREAD(V, DIM=0, NCOPIES=3): dst(i,j) = V(j)
        let d = DistArray::create(
            &mut m,
            "D",
            ElemType::Real,
            &[3, 4],
            &[DistKind::Block, DistKind::Block],
        );
        spread(&mut m, &v, &d, 0);
        for i in 0..3i64 {
            for j in 0..4i64 {
                assert_eq!(d.get_global(&m, &[i, j]), Value::Real((j + 1) as f64));
            }
        }
    }

    #[test]
    fn spread_new_last_dim() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2]));
        let v = DistArray::create(&mut m, "V", ElemType::Int, &[4], &[DistKind::Cyclic]);
        v.fill_with(&mut m, |g| Value::Int(g[0] * 7));
        let d = DistArray::create(
            &mut m,
            "D",
            ElemType::Int,
            &[4, 2],
            &[DistKind::Cyclic, DistKind::Collapsed],
        );
        spread(&mut m, &v, &d, 1);
        for i in 0..4i64 {
            for j in 0..2i64 {
                assert_eq!(d.get_global(&m, &[i, j]), Value::Int(i * 7));
            }
        }
    }
}
