//! Category 1 — structured-communication intrinsics: `CSHIFT`, `EOSHIFT`.
//!
//! These map directly onto the structured shift primitives: data moves
//! "using with less overhead structured shift communications operations"
//! (paper §6). A shift along an undistributed dimension is a pure local
//! permutation.

use f90d_comm::structured::temporary_shift;
use f90d_machine::{Machine, Value};

use crate::array::DistArray;

/// `dst = CSHIFT(src, SHIFT=shift, DIM=dim)` (0-based `dim`):
/// `dst(.., i, ..) = src(.., (i + shift) mod N, ..)`.
///
/// `src` and `dst` must share a mapping (same DAD shape/distribution).
pub fn cshift(m: &mut Machine, src: &DistArray, dst: &DistArray, dim: usize, shift: i64) {
    assert_eq!(src.shape(), dst.shape(), "CSHIFT result must conform");
    let n = src.shape()[dim];
    let s = shift.rem_euclid(n);
    if src.dad.dims[dim].is_distributed() {
        temporary_shift(m, &src.name, &src.dad, &dst.name, dim, s, true)
            .expect("collective is internally matched");
    } else {
        local_shift(m, src, dst, dim, s, None);
    }
}

/// `dst = EOSHIFT(src, SHIFT=shift, BOUNDARY=boundary, DIM=dim)`:
/// end-off shift — vacated positions are filled with `boundary`.
pub fn eoshift(
    m: &mut Machine,
    src: &DistArray,
    dst: &DistArray,
    dim: usize,
    shift: i64,
    boundary: Value,
) {
    assert_eq!(src.shape(), dst.shape(), "EOSHIFT result must conform");
    let n = src.shape()[dim];
    if src.dad.dims[dim].is_distributed() {
        temporary_shift(m, &src.name, &src.dad, &dst.name, dim, shift, false)
            .expect("collective is internally matched");
        // Fill vacated positions with the boundary value in a local phase.
        fill_vacated(m, dst, dim, shift, n, boundary);
    } else {
        local_shift(m, src, dst, dim, shift, Some(boundary));
    }
}

fn fill_vacated(m: &mut Machine, dst: &DistArray, dim: usize, shift: i64, n: i64, boundary: Value) {
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        let mut ops = 0i64;
        let arr = m.mems[rank as usize].array_mut(&dst.name);
        let seg = arr.segment();
        dst.dad.for_each_owned(&coords, &seg, |g, off| {
            if !(0..n).contains(&(g[dim] + shift)) {
                arr.set_flat(off, boundary);
                ops += 1;
            }
        });
        m.transport.charge_elem_ops(rank, ops);
    }
}

/// Local (undistributed-dimension) shift executed entirely in node
/// memories. `boundary = None` wraps (CSHIFT); `Some(v)` end-off fills.
fn local_shift(
    m: &mut Machine,
    src: &DistArray,
    dst: &DistArray,
    dim: usize,
    shift: i64,
    boundary: Option<Value>,
) {
    let n = src.shape()[dim];
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        // `dim` is held whole, at local index = global index: the source
        // of an element sits `gs - g[dim]` steps along it in `src`.
        let s_arr = m.mems[rank as usize].array(&src.name);
        let seg = s_arr.segment();
        let at = |off: usize, g: i64, gs: i64| (off as i64 + (gs - g) * seg.strides[dim]) as usize;
        let mut vals = Vec::new();
        src.dad.for_each_owned(&coords, &seg, |g, off| {
            let gs = g[dim] + shift;
            vals.push(if (0..n).contains(&gs) {
                s_arr.get_flat(at(off, g[dim], gs))
            } else {
                match boundary {
                    Some(b) => b,
                    None => s_arr.get_flat(at(off, g[dim], gs.rem_euclid(n))),
                }
            });
        });
        let d_arr = m.mems[rank as usize].array_mut(&dst.name);
        let d_seg = d_arr.segment();
        let mut vals_in = vals.iter();
        let ops = src.dad.for_each_owned(&coords, &d_seg, |_, off| {
            d_arr.set_flat(off, *vals_in.next().expect("one value per element"));
        });
        m.transport.charge_elem_ops(rank, ops as i64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::{DistKind, ProcGrid};
    use f90d_machine::{ArrayData, ElemType, MachineSpec};

    fn setup(n: i64, p: i64, kind: DistKind) -> (Machine, DistArray, DistArray) {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[p]));
        let a = DistArray::create(&mut m, "A", ElemType::Real, &[n], &[kind]);
        let b = DistArray::create(&mut m, "B", ElemType::Real, &[n], &[kind]);
        a.scatter_host(&mut m, &ArrayData::Real((0..n).map(|x| x as f64).collect()));
        (m, a, b)
    }

    #[test]
    fn cshift_matches_fortran_semantics() {
        for kind in [DistKind::Block, DistKind::Cyclic, DistKind::Collapsed] {
            for shift in [1i64, -2, 5, 0, 13] {
                let (mut m, a, b) = setup(10, 2, kind);
                cshift(&mut m, &a, &b, 0, shift);
                let host = b.gather_host(&mut m);
                for i in 0..10i64 {
                    let expect = (i + shift).rem_euclid(10) as f64;
                    assert_eq!(
                        host.get(i as usize),
                        Value::Real(expect),
                        "{kind:?} shift {shift} at {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn eoshift_fills_boundary() {
        for kind in [DistKind::Block, DistKind::Collapsed] {
            let (mut m, a, b) = setup(8, 2, kind);
            eoshift(&mut m, &a, &b, 0, 3, Value::Real(-1.0));
            let host = b.gather_host(&mut m);
            for i in 0..8i64 {
                let expect = if i + 3 < 8 { (i + 3) as f64 } else { -1.0 };
                assert_eq!(host.get(i as usize), Value::Real(expect), "{kind:?} at {i}");
            }
        }
    }

    #[test]
    fn eoshift_negative_shift() {
        let (mut m, a, b) = setup(8, 4, DistKind::Block);
        eoshift(&mut m, &a, &b, 0, -2, Value::Real(99.0));
        let host = b.gather_host(&mut m);
        assert_eq!(host.get(0), Value::Real(99.0));
        assert_eq!(host.get(1), Value::Real(99.0));
        assert_eq!(host.get(2), Value::Real(0.0));
        assert_eq!(host.get(7), Value::Real(5.0));
    }

    #[test]
    fn cshift_2d_along_each_dim() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2, 2]));
        let dist = [DistKind::Block, DistKind::Block];
        let a = DistArray::create(&mut m, "A", ElemType::Real, &[4, 4], &dist);
        let b = DistArray::create(&mut m, "B", ElemType::Real, &[4, 4], &dist);
        a.fill_with(&mut m, |g| Value::Real((g[0] * 10 + g[1]) as f64));
        cshift(&mut m, &a, &b, 0, 1);
        for i in 0..4i64 {
            for j in 0..4i64 {
                assert_eq!(
                    b.get_global(&m, &[i, j]),
                    Value::Real((((i + 1) % 4) * 10 + j) as f64)
                );
            }
        }
        cshift(&mut m, &a, &b, 1, -1);
        for i in 0..4i64 {
            for j in 0..4i64 {
                assert_eq!(
                    b.get_global(&m, &[i, j]),
                    Value::Real((i * 10 + (j - 1).rem_euclid(4)) as f64)
                );
            }
        }
    }

    #[test]
    fn distributed_cshift_communicates_only_boundaries() {
        let (mut m, a, b) = setup(64, 4, DistKind::Block);
        m.reset_time();
        cshift(&mut m, &a, &b, 0, 1);
        // Only 16 boundary elements... shift by 1 moves 1 element per
        // neighbour pair + wrap: 4 messages of 1 element... each node needs
        // exactly one non-local element.
        assert_eq!(m.transport.messages, 4);
    }
}
