//! Category 5 — special routines: `MATMUL`.
//!
//! "The fifth category is implemented using existing research on parallel
//! matrix algorithms \[12\]" — the reference is Fox et al., *Solving
//! Problems on Concurrent Processors*, whose broadcast-multiply-roll
//! algorithm we implement for square processor grids with conforming
//! (BLOCK, BLOCK) operands. Other layouts fall back to a
//! replicate-operands algorithm (concatenate + local multiply), which is
//! always correct but moves `O(N²)` data per node.

use f90d_comm::helpers::{exchange, fiber_through, tree_broadcast, ExchangePlan};
use f90d_comm::schedule::ElementReq;
use f90d_comm::structured::concatenation;
use f90d_distrib::DistKind;
use f90d_machine::{ArrayData, ElemType, LocalArray, Machine, Value};

use crate::array::DistArray;

/// Which parallel algorithm `matmul` selected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatmulAlgorithm {
    /// Fox's broadcast-multiply-roll on a square grid.
    Fox,
    /// Replicate both operands, compute owned result elements locally.
    Replicate,
}

fn is_fox_eligible(m: &Machine, a: &DistArray, b: &DistArray, c: &DistArray) -> bool {
    // Square q×q grid, square N×N matrices with N % q == 0, all three
    // (BLOCK, BLOCK) with identity alignment.
    if m.grid.rank() != 2 || m.grid.extent(0) != m.grid.extent(1) {
        return false;
    }
    let q = m.grid.extent(0);
    let n = a.shape()[0];
    for arr in [a, b, c] {
        if arr.rank() != 2 || arr.shape() != [n, n] || n % q != 0 {
            return false;
        }
        if !arr.dad.dims.iter().all(|d| {
            matches!(d.dist.kind, DistKind::Block) && d.align.is_identity() && d.is_distributed()
        }) {
            return false;
        }
    }
    true
}

/// `c = MATMUL(a, b)` for rank-2 REAL arrays. Returns the algorithm used.
pub fn matmul(m: &mut Machine, a: &DistArray, b: &DistArray, c: &DistArray) -> MatmulAlgorithm {
    m.stats.record("matmul");
    assert_eq!(a.rank(), 2);
    assert_eq!(b.rank(), 2);
    assert_eq!(c.rank(), 2);
    assert_eq!(a.shape()[1], b.shape()[0], "MATMUL inner dimensions");
    assert_eq!(c.shape()[0], a.shape()[0]);
    assert_eq!(c.shape()[1], b.shape()[1]);
    if is_fox_eligible(m, a, b, c) {
        matmul_fox(m, a, b, c);
        MatmulAlgorithm::Fox
    } else {
        matmul_replicate(m, a, b, c);
        MatmulAlgorithm::Replicate
    }
}

/// Fox's algorithm: at stage `k`, processor row `i` broadcasts its
/// diagonal-offset A block `(i, (i+k) mod q)` along the row, every node
/// multiplies it into its accumulator with its current B block, then B
/// blocks roll upward one processor. `q` stages, each `O(log q)`
/// broadcast + one shift.
fn matmul_fox(m: &mut Machine, a: &DistArray, b: &DistArray, c: &DistArray) {
    let q = m.grid.extent(0);
    let n = a.shape()[0];
    let blk = n / q;
    // Staging areas on every node.
    for mem in &mut m.mems {
        mem.insert_array("MM_ABLK", LocalArray::zeros(ElemType::Real, &[blk, blk]));
        mem.insert_array("MM_BROLL", LocalArray::zeros(ElemType::Real, &[blk, blk]));
    }
    // Zero C.
    for rank in 0..m.nranks() {
        let arr = m.mems[rank as usize].array_mut(&c.name);
        for i in 0..blk {
            for j in 0..blk {
                arr.set(&[i, j], Value::Real(0.0));
            }
        }
    }
    let pack_block = |m: &Machine, rank: i64, name: &str| -> ArrayData {
        let arr = m.mems[rank as usize].array(name);
        let mut d = ArrayData::zeros(ElemType::Real, (blk * blk) as usize);
        let mut k = 0;
        for i in 0..blk {
            for j in 0..blk {
                d.set(k, arr.get(&[i, j]));
                k += 1;
            }
        }
        d
    };
    for stage in 0..q {
        // Broadcast A block from column (row + stage) % q along each row.
        for row in 0..q {
            let src_col = (row + stage) % q;
            let root = m.grid.rank_of(&[row, src_col]);
            let payload = pack_block(m, root, &a.name);
            let (members, root_pos) = {
                let coords = vec![row, src_col];
                fiber_through(m, &coords, 1)
            };
            debug_assert_eq!(members[root_pos], root);
            tree_broadcast(m, &members, root_pos, payload, |m, r, data| {
                let arr = m.mems[r as usize].array_mut("MM_ABLK");
                let mut k = 0;
                for i in 0..blk {
                    for j in 0..blk {
                        arr.set(&[i, j], data.get(k));
                        k += 1;
                    }
                }
            })
            .expect("collective is internally matched");
        }
        // Local multiply-accumulate: C += ABLK * B, charged 2·blk³ ops.
        for rank in 0..m.nranks() {
            let mem = &mut m.mems[rank as usize];
            let bvals: Vec<f64> = {
                let barr = mem.array(&b.name);
                (0..blk * blk)
                    .map(|f| barr.get(&[f / blk, f % blk]).as_real())
                    .collect()
            };
            let avals: Vec<f64> = {
                let aarr = mem.array("MM_ABLK");
                (0..blk * blk)
                    .map(|f| aarr.get(&[f / blk, f % blk]).as_real())
                    .collect()
            };
            let carr = mem.array_mut(&c.name);
            for i in 0..blk as usize {
                for kk in 0..blk as usize {
                    let av = avals[i * blk as usize + kk];
                    if av == 0.0 {
                        continue;
                    }
                    for j in 0..blk as usize {
                        let prev = carr.get(&[i as i64, j as i64]).as_real();
                        carr.set(
                            &[i as i64, j as i64],
                            Value::Real(prev + av * bvals[kk * blk as usize + j]),
                        );
                    }
                }
            }
            m.transport.charge_elem_ops(rank, 2 * blk * blk * blk);
        }
        // Roll B upward; after the last stage the roll is the one that
        // brings B back to where it started.
        if q > 1 {
            roll_up(m, &b.name, q, blk);
        }
    }
    for mem in &mut m.mems {
        mem.remove_array("MM_ABLK");
        mem.remove_array("MM_BROLL");
    }
}

/// One roll of Fox's algorithm on a `q × q` grid of `blk × blk`
/// blocks: the block of array `b` at grid row `r` moves to row `r - 1`
/// (wrapping), staged through `MM_BROLL` and copied back into `b`.
fn roll_up(m: &mut Machine, b: &str, q: i64, blk: i64) {
    let mut moves = Vec::with_capacity((m.nranks() * blk * blk) as usize);
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        let dst = m.grid.rank_of(&[(coords[0] - 1).rem_euclid(q), coords[1]]);
        let src_arr = m.mems[rank as usize].array(b);
        let dst_arr = m.mems[dst as usize].array("MM_BROLL");
        for i in 0..blk {
            for j in 0..blk {
                let (src_off, dst_off) = (src_arr.offset(&[i, j]), dst_arr.offset(&[i, j]));
                moves.push(ElementReq::moving(rank, dst, src_off, dst_off));
            }
        }
    }
    let plan = ExchangePlan::of_moves(&moves);
    exchange(m, b, "MM_BROLL", &plan).expect("collective is internally matched");
    for mem in &mut m.mems {
        let vals: Vec<Value> = {
            let roll = mem.array("MM_BROLL");
            (0..blk * blk)
                .map(|f| roll.get(&[f / blk, f % blk]))
                .collect()
        };
        let barr = mem.array_mut(b);
        for (f, v) in vals.into_iter().enumerate() {
            barr.set(&[f as i64 / blk, f as i64 % blk], v);
        }
    }
}

/// Fallback algorithm: concatenate A and B onto every node, then compute
/// owned C elements locally.
fn matmul_replicate(m: &mut Machine, a: &DistArray, b: &DistArray, c: &DistArray) {
    let (an, ak) = (a.shape()[0], a.shape()[1]);
    let bk = b.shape()[1];
    for mem in &mut m.mems {
        mem.insert_array("MM_AFULL", LocalArray::zeros(ElemType::Real, &[an, ak]));
        mem.insert_array("MM_BFULL", LocalArray::zeros(ElemType::Real, &[ak, bk]));
    }
    concatenation(m, &a.name, &a.dad, "MM_AFULL").expect("collective is internally matched");
    concatenation(m, &b.name, &b.dad, "MM_BFULL").expect("collective is internally matched");
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        let mem = &mut m.mems[rank as usize];
        let mut writes = Vec::new();
        {
            let af = mem.array("MM_AFULL");
            let bf = mem.array("MM_BFULL");
            c.dad
                .for_each_owned(&coords, &mem.array(&c.name).segment(), |g, off| {
                    let (i, j) = (g[0], g[1]);
                    let mut acc = 0.0;
                    for kk in 0..ak {
                        acc += af.get(&[i, kk]).as_real() * bf.get(&[kk, j]).as_real();
                    }
                    writes.push((off, acc));
                });
        }
        let nops = 2 * ak * writes.len() as i64;
        let carr = mem.array_mut(&c.name);
        for (off, v) in writes {
            carr.set_flat(off, Value::Real(v));
        }
        m.transport.charge_elem_ops(rank, nops);
    }
    for mem in &mut m.mems {
        mem.remove_array("MM_AFULL");
        mem.remove_array("MM_BFULL");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::ProcGrid;
    use f90d_machine::MachineSpec;

    fn reference(a: &[Vec<f64>], b: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let n = a.len();
        let k = b.len();
        let p = b[0].len();
        let mut c = vec![vec![0.0; p]; n];
        for i in 0..n {
            for kk in 0..k {
                for j in 0..p {
                    c[i][j] += a[i][kk] * b[kk][j];
                }
            }
        }
        c
    }

    fn fill(m: &mut Machine, arr: &DistArray, data: &[Vec<f64>]) {
        arr.fill_with(m, |g| Value::Real(data[g[0] as usize][g[1] as usize]));
    }

    #[test]
    fn fox_on_square_grid() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2, 2]));
        let dist = [DistKind::Block, DistKind::Block];
        let a = DistArray::create(&mut m, "A", ElemType::Real, &[8, 8], &dist);
        let b = DistArray::create(&mut m, "B", ElemType::Real, &[8, 8], &dist);
        let c = DistArray::create(&mut m, "C", ElemType::Real, &[8, 8], &dist);
        let ad: Vec<Vec<f64>> = (0..8)
            .map(|i| (0..8).map(|j| (i * 8 + j) as f64 * 0.5).collect())
            .collect();
        let bd: Vec<Vec<f64>> = (0..8)
            .map(|i| (0..8).map(|j| ((i + j) % 5) as f64 - 2.0).collect())
            .collect();
        fill(&mut m, &a, &ad);
        fill(&mut m, &b, &bd);
        let algo = matmul(&mut m, &a, &b, &c);
        assert_eq!(algo, MatmulAlgorithm::Fox);
        let cref = reference(&ad, &bd);
        for i in 0..8i64 {
            for j in 0..8i64 {
                let got = c.get_global(&m, &[i, j]).as_real();
                assert!(
                    (got - cref[i as usize][j as usize]).abs() < 1e-9,
                    "C({i},{j}) = {got}, want {}",
                    cref[i as usize][j as usize]
                );
            }
        }
        // B must be restored.
        for i in 0..8i64 {
            for j in 0..8i64 {
                assert_eq!(
                    b.get_global(&m, &[i, j]).as_real(),
                    bd[i as usize][j as usize]
                );
            }
        }
    }

    #[test]
    fn replicate_fallback_rectangular() {
        let mut m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[4]));
        let a = DistArray::create(
            &mut m,
            "A",
            ElemType::Real,
            &[3, 5],
            &[DistKind::Block, DistKind::Collapsed],
        );
        let b = DistArray::create(
            &mut m,
            "B",
            ElemType::Real,
            &[5, 2],
            &[DistKind::Block, DistKind::Collapsed],
        );
        let c = DistArray::create(
            &mut m,
            "C",
            ElemType::Real,
            &[3, 2],
            &[DistKind::Block, DistKind::Collapsed],
        );
        let ad: Vec<Vec<f64>> = (0..3)
            .map(|i| (0..5).map(|j| (i + j) as f64).collect())
            .collect();
        let bd: Vec<Vec<f64>> = (0..5)
            .map(|i| (0..2).map(|j| (i * 2 + j) as f64).collect())
            .collect();
        fill(&mut m, &a, &ad);
        fill(&mut m, &b, &bd);
        let algo = matmul(&mut m, &a, &b, &c);
        assert_eq!(algo, MatmulAlgorithm::Replicate);
        let cref = reference(&ad, &bd);
        for i in 0..3i64 {
            for j in 0..2i64 {
                assert!(
                    (c.get_global(&m, &[i, j]).as_real() - cref[i as usize][j as usize]).abs()
                        < 1e-9
                );
            }
        }
    }

    #[test]
    fn fox_matches_replicate_cost_structurally() {
        // Fox should send far fewer bytes than replicate on a 4x4 grid.
        let n = 16i64;
        let mk = || {
            let mut m = Machine::new(MachineSpec::ipsc860(), ProcGrid::new(&[4, 4]));
            let dist = [DistKind::Block, DistKind::Block];
            let a = DistArray::create(&mut m, "A", ElemType::Real, &[n, n], &dist);
            let b = DistArray::create(&mut m, "B", ElemType::Real, &[n, n], &dist);
            let c = DistArray::create(&mut m, "C", ElemType::Real, &[n, n], &dist);
            a.fill_with(&mut m, |g| Value::Real((g[0] + g[1]) as f64));
            b.fill_with(&mut m, |g| Value::Real((g[0] * g[1] % 7) as f64));
            (m, a, b, c)
        };
        let (mut m1, a1, b1, c1) = mk();
        m1.reset_time();
        matmul_fox(&mut m1, &a1, &b1, &c1);
        let fox_bytes = m1.transport.bytes;
        let (mut m2, a2, b2, c2) = mk();
        m2.reset_time();
        matmul_replicate(&mut m2, &a2, &b2, &c2);
        let rep_bytes = m2.transport.bytes;
        assert!(
            fox_bytes < rep_bytes,
            "fox {fox_bytes} bytes !< replicate {rep_bytes} bytes"
        );
        // And both agree.
        for i in 0..n {
            for j in 0..n {
                assert_eq!(
                    c1.get_global(&m1, &[i, j]).as_real(),
                    c2.get_global(&m2, &[i, j]).as_real()
                );
            }
        }
    }
}
