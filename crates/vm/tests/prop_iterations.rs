//! Property test of the shared `set_BOUND` iteration partitioning
//! (`f90d_vm::dispatch::iterations_for`), the one implementation both
//! executors partition every FORALL with: over BLOCK / CYCLIC /
//! CYCLIC(K) distributions, alignment strides ±1..3 with an offset, LHS
//! subscripts `a*v + b` and loop strides 1..3, the per-rank iteration
//! lists of an owner-computes loop are sorted, pairwise disjoint, and
//! their union is exactly `lb..=ub step st` — every iteration runs on
//! exactly one rank.

use f90d_distrib::{AlignExpr, Alignment, AxisAlign, DadBuilder, DistKind, ProcGrid, Template};
use f90d_machine::ElemType;
use f90d_runtime::DistArray;
use f90d_vm::dispatch::iterations_for;
use f90d_vm::stmt::Partition;
use proptest::prelude::*;

fn dist_kind() -> impl Strategy<Value = DistKind> {
    prop_oneof![
        Just(DistKind::Block),
        Just(DistKind::Cyclic),
        (2i64..5).prop_map(DistKind::BlockCyclic),
    ]
}

fn nonzero(lo: i64, hi: i64) -> impl Strategy<Value = i64> {
    prop_oneof![lo..0i64, 1i64..hi + 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn owner_dim_lists_partition_the_iteration_space(
        kind in dist_kind(),
        p in 1i64..7,
        align_stride in nonzero(-3, 3),
        align_offset in 0i64..5,
        a in nonzero(-2, 2),
        b_slack in 0i64..3,
        lb in 0i64..5,
        count in 1i64..13,
        st in 1i64..4,
        ub_slack in 0i64..3,
    ) {
        // The loop runs lb..=ub step st; ub need not lie on the stride.
        let ub = lb + (count - 1) * st + ub_slack.min(st - 1);
        // LHS subscript a*v + b, shifted so the smallest index is b_slack.
        let b = b_slack - (a * lb).min(a * ub);
        let n = (a * lb + b).max(a * ub + b) + 1 + b_slack;
        // Template cell of array index i: align_stride*i + offset ≥ 0.
        let offset = align_offset - (align_stride * (n - 1)).min(0);
        let t_extent = align_stride.abs() * (n - 1) + align_offset + 1 + p;
        let grid = ProcGrid::new(&[p]);
        let dad = DadBuilder::new("A", &[n])
            .template(Template::new("T", &[t_extent]))
            .align(Alignment {
                axes: vec![AxisAlign::Aligned {
                    template_dim: 0,
                    expr: AlignExpr::new(align_stride, offset),
                }],
                replicated_template_dims: vec![],
            })
            .distribute(&[kind])
            .grid(grid.clone())
            .build()
            .unwrap();
        let arrays = [DistArray { name: "A".into(), dad, ty: ElemType::Real }];
        let part = Partition::OwnerDim { arr: 0, dim: 0, a, b };

        let mut all: Vec<i64> = Vec::new();
        for rank in 0..p {
            let list = iterations_for(&part, [lb, ub, st], &arrays, &grid, rank);
            prop_assert!(list.windows(2).all(|w| w[0] < w[1]), "rank {} unsorted: {:?}", rank, list);
            // Owner computes: the rank owns every LHS element it iterates.
            for &v in &list {
                prop_assert!(arrays[0].dad.is_owner(rank, &[a * v + b]), "rank {} runs unowned v={}", rank, v);
            }
            all.extend(list);
        }
        all.sort_unstable();
        let want: Vec<i64> = (lb..=ub).step_by(st as usize).collect();
        // Equal to the duplicate-free expected list ⇒ disjoint and complete.
        prop_assert_eq!(all, want);
    }
}
