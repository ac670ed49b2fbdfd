//! A multicast that replays a run's kept plan (`driver::multicast`)
//! moves and charges exactly what the one-shot `structured::multicast`
//! does: the same temporary on every rank, the same clocks by bits, the
//! same messages and bytes — over a 1-D and a 2-D grid, owners that
//! multicast several steps and then hand over, and a slot move between
//! two steps (an array removed from every memory moves the temporary's
//! slot; a kept fiber must notice and be planned again).

use f90d_comm::structured::{alloc_slab_tmp, multicast};
use f90d_comm::{driver, RunSchedules};
use f90d_distrib::{Dad, DadBuilder, DistKind, ProcGrid};
use f90d_machine::{ElemType, LocalArray, Machine, MachineSpec, Value};

/// An `n × n` REAL matrix `A(i, j) = 100 i + j` distributed `kinds` over
/// `grid` on a 2-ary fat tree, a spare array `X` and then the slab
/// temporary `TMP` over dimension 1 allocated after it.
fn machine(grid: &[i64], n: i64, kinds: &[DistKind]) -> (Machine, Dad) {
    let grid = ProcGrid::new(grid);
    let spec = MachineSpec::fat_tree(2, 3).expect("valid fat tree");
    let mut m = Machine::new(spec, grid.clone());
    m.set_contention(true);
    let dad = DadBuilder::new("A", &[n, n])
        .distribute(kinds)
        .grid(grid)
        .build()
        .expect("valid descriptor");
    for rank in 0..m.nranks() {
        let coords = m.grid.coords_of(rank);
        let mut la = LocalArray::zeros(ElemType::Real, &dad.local_shape());
        let seg = la.segment();
        dad.for_each_owned(&coords, &seg, |g, off| {
            la.set_flat(off, Value::Real((100 * g[0] + g[1]) as f64))
        });
        let mem = &mut m.mems[rank as usize];
        mem.insert_array("A", la);
        mem.insert_array("X", LocalArray::zeros(ElemType::Real, &[3]));
    }
    alloc_slab_tmp(&mut m, "TMP", &dad, 1, ElemType::Real);
    (m, dad)
}

fn assert_same(kept: &Machine, once: &Machine, step: i64) {
    let bits =
        |m: &Machine| -> Vec<u64> { m.transport.clocks.iter().map(|c| c.to_bits()).collect() };
    assert_eq!(bits(kept), bits(once), "clocks after step {step}");
    assert_eq!(kept.transport.messages, once.transport.messages);
    assert_eq!(kept.transport.bytes, once.transport.bytes);
    for (a, b) in kept.mems.iter().zip(&once.mems) {
        assert_eq!(a.array("TMP"), b.array("TMP"), "TMP after step {step}");
        assert_eq!(a.array("A"), b.array("A"), "A after step {step}");
    }
}

/// Multicast every column in turn on both machines, removing `X` from
/// every memory halfway: `TMP`, allocated last, moves into its slot.
/// Returns the replays the kept plans counted.
fn replay_matches_one_shot(grid: &[i64], n: i64, kinds: &[DistKind]) -> u64 {
    let (mut kept, dad) = machine(grid, n, kinds);
    let (mut once, _) = machine(grid, n, kinds);
    let mut rs = RunSchedules::new();
    for g in 0..n {
        if g == n / 2 {
            for m in [&mut kept, &mut once] {
                for mem in &mut m.mems {
                    mem.remove_array("X");
                }
            }
        }
        driver::multicast(&mut kept, &mut rs, "A", &dad, "TMP", 1, g).expect("kept multicast");
        multicast(&mut once, "A", &dad, "TMP", 1, g).expect("one-shot multicast");
        assert_same(&kept, &once, g);
    }
    rs.multicasts_replayed()
}

#[test]
fn kept_multicast_plans_replay_what_one_shots_do() {
    let cols = [DistKind::Collapsed, DistKind::Block];
    // One fiber of 8: 16 steps, the first and the first after the slot
    // move plan it.
    assert_eq!(replay_matches_one_shot(&[8], 16, &cols), 14);
    // A cyclic owner comes back every 8 steps.
    let cyclic = [DistKind::Collapsed, DistKind::Cyclic];
    assert_eq!(replay_matches_one_shot(&[8], 16, &cyclic), 14);
    // Two fibers along the column axis of a 2 × 4 grid, one broadcast
    // each per step: each planned at the first step and again after
    // the move.
    let both = [DistKind::Block, DistKind::Block];
    assert_eq!(replay_matches_one_shot(&[2, 4], 12, &both), 2 * 12 - 4);
}
