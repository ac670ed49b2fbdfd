//! Broadcasts shaped by the fat tree: the Gaussian elimination's column
//! multicasts (N = 64, `(*, BLOCK)` on 256 ranks of a 4-ary 4-level fat
//! tree, `gauss-fattree256`'s shape) keep their traffic under the lowest
//! common switch, so turning the per-link contention model on costs
//! little. A binomial over the rank list sends whole rounds of up to 128
//! messages through the root switch and queues them on its links.

use f90d_comm::structured::{alloc_slab_tmp, multicast};
use f90d_distrib::{DadBuilder, DistKind, ProcGrid};
use f90d_machine::{ElemType, LocalArray, Machine, MachineSpec, Value};

/// Modelled seconds and messages of the 63 column multicasts of one
/// elimination, contention model `on` or off.
fn column_multicasts(on: bool) -> (f64, u64) {
    let (n, p) = (64, 256);
    let grid = ProcGrid::new(&[p]);
    let mut m = Machine::new(MachineSpec::fat_tree(4, 4).unwrap(), grid.clone());
    m.set_contention(on);
    let dad = DadBuilder::new("A", &[n, n])
        .distribute(&[DistKind::Collapsed, DistKind::Block])
        .grid(grid)
        .build()
        .unwrap();
    for rank in 0..p {
        let coords = m.grid.coords_of(rank);
        let mut la = LocalArray::zeros(ElemType::Real, &dad.local_shape());
        let seg = la.segment();
        dad.for_each_owned(&coords, &seg, |g, off| {
            la.set_flat(off, Value::Real((100 * g[0] + g[1]) as f64))
        });
        m.mems[rank as usize].insert_array("A", la);
    }
    alloc_slab_tmp(&mut m, "COL", &dad, 1, ElemType::Real);
    for k in 0..n - 1 {
        multicast(&mut m, "A", &dad, "COL", 1, k).unwrap();
        for rank in [0, 77, p - 1] {
            let got = m.mems[rank as usize].array("COL").get(&[n - 1]);
            assert_eq!(got, Value::Real((100 * (n - 1) + k) as f64), "rank {rank}");
        }
    }
    (m.elapsed(), m.transport.messages)
}

#[test]
fn column_multicasts_barely_queue_on_the_fat_tree() {
    let (off, messages_off) = column_multicasts(false);
    let (on, messages_on) = column_multicasts(true);
    assert_eq!(messages_off, 63 * 255);
    assert_eq!(messages_on, messages_off);
    assert!(on >= off, "contention never helps: {on} < {off}");
    assert!(
        on <= 3.0 * off,
        "contention-on {on} s is {:.2}× contention-off {off} s",
        on / off
    );
}
