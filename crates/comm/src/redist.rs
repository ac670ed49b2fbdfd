//! Redistribution primitives (paper §6).
//!
//! "A dummy argument which is distributed differently than its actual
//! argument in the calling routine is automatically redistributed upon
//! entry to the subroutine …and is automatically redistributed back …at
//! subroutine exit. These operations are performed by the redistribution
//! primitives which transform from block to cyclic or vice versa."
//!
//! [`redistribute`] works between **any** two mappings of the same global
//! shape on the same machine (block↔cyclic, different grids, changed
//! alignment): each node enumerates its owned elements under the source
//! descriptor, groups them by destination owner, and ships one vectorized
//! message per processor pair.

use f90d_distrib::Dad;
use f90d_machine::{LocalArray, Machine};

use crate::helpers::{exchange, locator, ExchangePlan};
use crate::op::CommResult;
use crate::schedule::ElementReq;

/// Redistribute array data from layout `src_dad` (stored in array
/// `src`) to layout `dst_dad` (stored in array `dst`, which must already
/// be allocated with `dst_dad.local_shape()` on every node).
///
/// `src` and `dst` must be different array names — redistribution stages
/// through the destination allocation, never in place.
pub fn redistribute(
    m: &mut Machine,
    src: &str,
    src_dad: &Dad,
    dst: &str,
    dst_dad: &Dad,
) -> CommResult<()> {
    m.stats.record("redistribute");
    assert_eq!(
        src_dad.shape, dst_dad.shape,
        "redistribution cannot change the global shape"
    );
    assert_ne!(src, dst, "redistribution stages through a fresh array");
    let to = locator(m, dst, dst_dad);
    let mut moves = Vec::new();
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        // Skip replica copies: the canonical copy (coordinate 0 on every
        // replicated axis) is the one that travels.
        if src_dad.replicated_axes.iter().any(|&ax| coords[ax] != 0) {
            continue;
        }
        let src_arr = m.mems[rank as usize].array(src);
        src_dad.for_each_owned(&coords, &src_arr.segment(), |g, src_off| {
            let (owner, dst_off) = to.locate(g);
            for replica in to.replicas() {
                moves.push(ElementReq::moving(rank, owner + replica, src_off, dst_off));
            }
        });
    }
    exchange(m, src, dst, &ExchangePlan::of_moves(&moves))
}

/// Allocate `name` on every node with `dad.local_shape()` (no ghosts) and
/// the given element type — the standard allocation for a redistribution
/// target.
pub fn alloc_for(m: &mut Machine, name: &str, dad: &Dad, ty: f90d_machine::ElemType) {
    let shape = dad.local_shape();
    for mem in &mut m.mems {
        mem.insert_array(name, LocalArray::zeros(ty, &shape));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use f90d_distrib::{DadBuilder, DistKind, ProcGrid};
    use f90d_machine::{ElemType, MachineSpec, Value};

    fn fill(m: &mut Machine, name: &str, dad: &Dad) {
        for rank in 0..m.nranks() {
            let coords = m.grid.coords_of(rank);
            let arr = m.mems[rank as usize].array_mut(name);
            let seg = arr.segment();
            dad.for_each_owned(&coords, &seg, |g, off| {
                let v = g.iter().fold(0i64, |acc, &x| acc * 1000 + x);
                arr.set_flat(off, Value::Real(v as f64));
            });
        }
    }

    fn verify(m: &Machine, name: &str, dad: &Dad) {
        for rank in 0..m.nranks() {
            let coords = m.grid.coords_of(rank);
            let arr = m.mems[rank as usize].array(name);
            dad.for_each_owned(&coords, &arr.segment(), |g, off| {
                let v = g.iter().fold(0i64, |acc, &x| acc * 1000 + x);
                assert_eq!(
                    arr.get_flat(off),
                    Value::Real(v as f64),
                    "rank {rank} global {g:?}"
                );
            });
        }
    }

    #[test]
    fn block_to_cyclic_roundtrip() {
        let grid = ProcGrid::new(&[4]);
        let mut m = Machine::new(MachineSpec::ideal(), grid.clone());
        let block = DadBuilder::new("A", &[19])
            .distribute(&[DistKind::Block])
            .grid(grid.clone())
            .build()
            .unwrap();
        let cyclic = DadBuilder::new("A", &[19])
            .distribute(&[DistKind::Cyclic])
            .grid(grid)
            .build()
            .unwrap();
        alloc_for(&mut m, "A", &block, ElemType::Real);
        alloc_for(&mut m, "B", &cyclic, ElemType::Real);
        alloc_for(&mut m, "C", &block, ElemType::Real);
        fill(&mut m, "A", &block);
        redistribute(&mut m, "A", &block, "B", &cyclic).unwrap();
        verify(&m, "B", &cyclic);
        redistribute(&mut m, "B", &cyclic, "C", &block).unwrap();
        verify(&m, "C", &block);
    }

    #[test]
    fn two_d_block_block_to_star_block() {
        // The subroutine-boundary case: (BLOCK, BLOCK) actual passed to a
        // (*, BLOCK) dummy on a 1-D grid view is not expressible on one
        // grid; instead test (BLOCK, BLOCK) → (CYCLIC, BLOCK) on the same
        // 2x2 grid.
        let grid = ProcGrid::new(&[2, 2]);
        let mut m = Machine::new(MachineSpec::ideal(), grid.clone());
        let a = DadBuilder::new("A", &[6, 6])
            .distribute(&[DistKind::Block, DistKind::Block])
            .grid(grid.clone())
            .build()
            .unwrap();
        let b = DadBuilder::new("A", &[6, 6])
            .distribute(&[DistKind::Cyclic, DistKind::Block])
            .grid(grid)
            .build()
            .unwrap();
        alloc_for(&mut m, "A", &a, ElemType::Real);
        alloc_for(&mut m, "B", &b, ElemType::Real);
        fill(&mut m, "A", &a);
        redistribute(&mut m, "A", &a, "B", &b).unwrap();
        verify(&m, "B", &b);
    }

    #[test]
    fn redistribute_to_replicated() {
        let grid = ProcGrid::new(&[3]);
        let mut m = Machine::new(MachineSpec::ideal(), grid.clone());
        let block = DadBuilder::new("A", &[9])
            .distribute(&[DistKind::Block])
            .grid(grid.clone())
            .build()
            .unwrap();
        let repl = DadBuilder::new("A", &[9])
            .distribute(&[DistKind::Collapsed])
            .grid(grid)
            .build()
            .unwrap();
        alloc_for(&mut m, "A", &block, ElemType::Real);
        alloc_for(&mut m, "R", &repl, ElemType::Real);
        fill(&mut m, "A", &block);
        redistribute(&mut m, "A", &block, "R", &repl).unwrap();
        // every node holds the whole array
        verify(&m, "R", &repl);
        for rank in 0..3 {
            for g in 0..9 {
                assert_eq!(
                    m.mems[rank as usize].array("R").get(&[g]),
                    Value::Real(g as f64)
                );
            }
        }
    }

    #[test]
    fn messages_vectorized_pairwise() {
        let grid = ProcGrid::new(&[4]);
        let mut m = Machine::new(MachineSpec::ideal(), grid.clone());
        let block = DadBuilder::new("A", &[64])
            .distribute(&[DistKind::Block])
            .grid(grid.clone())
            .build()
            .unwrap();
        let cyclic = DadBuilder::new("A", &[64])
            .distribute(&[DistKind::Cyclic])
            .grid(grid)
            .build()
            .unwrap();
        alloc_for(&mut m, "A", &block, ElemType::Real);
        alloc_for(&mut m, "B", &cyclic, ElemType::Real);
        fill(&mut m, "A", &block);
        redistribute(&mut m, "A", &block, "B", &cyclic).unwrap();
        // At most P*(P-1) = 12 messages regardless of 64 elements.
        assert!(
            m.transport.messages <= 12,
            "{} messages",
            m.transport.messages
        );
        verify(&m, "B", &cyclic);
    }
}
