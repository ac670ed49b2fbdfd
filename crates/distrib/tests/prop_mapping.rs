//! Property tests for the three-stage mapping invariants (README.md,
//! "Tests"): ownership partitions, `μ⁻¹∘μ = id`, `set_BOUND` covers
//! iteration spaces exactly and disjointly for every distribution kind —
//! in maximal runs, equal to the reference walk — an array dimension's
//! owned runs are the slot-by-slot filter they replaced, and the product
//! walk visits row-major in increasing array index — its runs, expanded,
//! being the elements one at a time.

use f90d_distrib::bounds::set_bound_reference;
use f90d_distrib::{
    owned_cells, set_bound, AlignExpr, Alignment, ArrayDimMap, AxisAlign, Dad, DadBuilder, DimDist,
    DistKind, ProcGrid, Runs, Segment, Template,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

/// BLOCK, CYCLIC, CYCLIC(1..4) — CYCLIC(1) is CYCLIC — or collapsed.
fn any_kind() -> impl Strategy<Value = DistKind> {
    prop_oneof![
        Just(DistKind::Block),
        Just(DistKind::Cyclic),
        (1i64..5).prop_map(DistKind::BlockCyclic),
        Just(DistKind::Collapsed),
    ]
}

/// No run continues the one before it, and each is a progression.
fn maximal(runs: &Runs) -> bool {
    let ascending = (runs.runs().iter()).all(|p| p.len >= 1 && (p.len == 1 || p.stride > 0));
    ascending
        && runs.runs().windows(2).all(|w| {
            !w[1]
                .first
                .checked_sub(w[0].last())
                .is_some_and(|gap| gap > 0 && (w[0].len == 1 || gap == w[0].stride))
        })
}

/// One array dimension: `extent` elements aligned at `stride` (either
/// sign) with `lead` / `tail` template cells of slack, distributed `kind`.
#[derive(Debug, Clone, Copy)]
struct DimCase {
    kind: DistKind,
    extent: i64,
    stride: i64,
    lead: i64,
    tail: i64,
}

fn dim_case() -> impl Strategy<Value = DimCase> {
    (
        any_kind(),
        1i64..30,
        prop_oneof![-3i64..0, 1i64..4],
        0i64..5,
        0i64..5,
    )
        .prop_map(|(kind, extent, stride, lead, tail)| DimCase {
            kind,
            extent,
            stride,
            lead,
            tail,
        })
}

/// A descriptor of one dimension per case over a grid of `procs`.
fn dad_of(cases: &[DimCase], procs: &[i64]) -> Dad {
    let span = |c: &DimCase| c.stride.abs() * (c.extent - 1);
    let align = |c: &DimCase| {
        let offset = if c.stride > 0 {
            c.lead
        } else {
            span(c) + c.lead
        };
        AlignExpr::new(c.stride, offset)
    };
    let distributed = cases.iter().filter(|c| c.kind.is_distributed()).count();
    DadBuilder::new("A", &cases.iter().map(|c| c.extent).collect::<Vec<_>>())
        .template(Template::new(
            "T",
            &(cases.iter())
                .map(|c| span(c) + c.lead + c.tail + 1)
                .collect::<Vec<_>>(),
        ))
        .align(Alignment {
            axes: (cases.iter().enumerate())
                .map(|(template_dim, c)| AxisAlign::Aligned {
                    template_dim,
                    expr: align(c),
                })
                .collect(),
            replicated_template_dims: vec![],
        })
        .distribute(&cases.iter().map(|c| c.kind).collect::<Vec<_>>())
        .grid(ProcGrid::new(&procs[..distributed.max(1)]))
        .build()
        .unwrap()
}

/// The slot-by-slot walk `ArrayDimMap::owned` replaced, kept as its
/// oracle: the coordinate's template slots through `array_index_of`, in
/// increasing array index; an undistributed dimension whole.
fn owned_by_filter(dm: &ArrayDimMap, p: i64) -> Vec<i64> {
    if !dm.is_distributed() {
        return (0..dm.extent).collect();
    }
    let mut owned: Vec<i64> = (0..dm.dist.local_count(p))
        .filter_map(|l| dm.array_index_of(p, l))
        .collect();
    if dm.align.stride < 0 {
        owned.reverse();
    }
    owned
}

/// The elements the node at grid `rank` holds, one at a time: every
/// array index in row-major order, kept when `is_owner`, with the offset
/// of its local index vector in `seg`.
fn held_one_at_a_time(dad: &Dad, rank: i64, seg: &Segment) -> Vec<(Vec<i64>, usize)> {
    let mut held = Vec::new();
    let size = dad.size().max(0);
    for flat in 0..size {
        let mut rest = flat;
        let mut g = vec![0; dad.rank()];
        for d in (0..dad.rank()).rev() {
            g[d] = rest % dad.shape[d];
            rest /= dad.shape[d];
        }
        if dad.is_owner(rank, &g) {
            held.push((g.clone(), seg.offset(&dad.local_index(&g))));
        }
    }
    held
}

/// `Dad::walk`'s runs over the node at `rank`, each expanded an element
/// at a time by its index and offset steps, against the elements one at
/// a time, `for_each_owned` and `offsets`. Returns how many elements the
/// node holds.
fn check_run_walk(dad: &Dad, rank: i64, seg: &Segment) -> Result<usize, TestCaseError> {
    let coords = dad.grid.coords_of(rank);
    let owned = dad.owned(&coords);
    let mut expanded: Vec<(Vec<i64>, usize)> = Vec::new();
    let mut bad_run = None;
    let n = dad.walk(&owned, seg, |index, run| {
        if run.len == 0 || run.dim >= index.len().max(1) {
            bad_run = Some(run);
        }
        for k in 0..run.len {
            let mut g = index.to_vec();
            if let Some(at) = g.get_mut(run.dim) {
                *at += k as i64 * run.index_step;
            }
            expanded.push((g, run.offset(k)));
        }
    });
    prop_assert_eq!(bad_run, None);
    prop_assert_eq!(n, expanded.len());
    prop_assert_eq!(&expanded, &held_one_at_a_time(dad, rank, seg));
    let mut elements = Vec::new();
    dad.for_each_owned(&coords, seg, |g, off| elements.push((g.to_vec(), off)));
    prop_assert_eq!(&elements, &expanded);
    let offsets: Vec<usize> = expanded.iter().map(|e| e.1).collect();
    prop_assert_eq!(dad.offsets(&owned, seg), offsets);
    Ok(n)
}

fn dist_kind() -> impl Strategy<Value = DistKind> {
    prop_oneof![
        Just(DistKind::Block),
        Just(DistKind::Cyclic),
        (2i64..6).prop_map(DistKind::BlockCyclic),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// μ⁻¹(μ(g)) = g and ownership is a partition for every kind.
    #[test]
    fn mu_roundtrip_and_partition(
        kind in dist_kind(),
        extent in 1i64..200,
        nprocs in 1i64..17,
    ) {
        let d = DimDist::new(kind, extent, nprocs);
        let mut owned = 0;
        for p in 0..nprocs {
            let held = owned_cells(&d, p, 0, extent - 1, 1);
            for g in held.values() {
                prop_assert_eq!(d.proc_of(g), p);
                let l = d.local_of(g);
                prop_assert_eq!(d.global_to_local(g), (p, l));
                prop_assert_eq!(d.global_of(p, l), Some(g));
                owned += 1;
            }
            prop_assert_eq!(d.local_count(p), held.len() as i64);
        }
        prop_assert_eq!(owned, extent);
    }

    /// set_BOUND returns exactly the owned subset of the global range,
    /// for any sub-range and stride, and the union over processors is the
    /// whole iteration space with no overlaps.
    #[test]
    fn set_bound_partitions_iteration_space(
        kind in dist_kind(),
        extent in 1i64..120,
        nprocs in 1i64..9,
        lb_frac in 0.0f64..1.0,
        len in 0i64..120,
        gst in 1i64..7,
    ) {
        let d = DimDist::new(kind, extent, nprocs);
        let glb = ((extent - 1) as f64 * lb_frac) as i64;
        let gub = (glb + len).min(extent - 1);

        // Global iterations, in order.
        let mut globals = Vec::new();
        let mut g = glb;
        while g <= gub {
            globals.push(g);
            g += gst;
        }

        let mut seen: Vec<i64> = Vec::new();
        for p in 0..nprocs {
            let locals: Vec<i64> = set_bound(&d, p, glb, gub, gst).values().collect();
            // Every returned local maps back to an owned global in range.
            for &l in &locals {
                let back = d.global_of(p, l);
                prop_assert!(back.is_some(), "local {l} on p{p} maps to nothing");
                let back = back.unwrap();
                prop_assert!(globals.contains(&back));
                seen.push(back);
            }
        }
        seen.sort_unstable();
        let mut expect = globals.clone();
        expect.sort_unstable();
        prop_assert_eq!(seen, expect, "iterations lost or duplicated");
    }

    /// Affine alignment composed with distribution still partitions the
    /// array: each element owned by exactly one (non-replicated) node.
    #[test]
    fn aligned_dad_partitions(
        stride in prop_oneof![Just(1i64), Just(2i64), Just(-1i64)],
        offset in 0i64..5,
        extent in 1i64..40,
        kind in dist_kind(),
        nprocs in 1i64..7,
    ) {
        // Template big enough to hold the affine image.
        let lo = if stride > 0 { offset } else { stride * (extent - 1) + offset };
        prop_assume!(lo >= 0);
        let hi = if stride > 0 { stride * (extent - 1) + offset } else { offset };
        let text = hi + 1;
        let a = Alignment {
            axes: vec![AxisAlign::Aligned {
                template_dim: 0,
                expr: AlignExpr::new(stride, offset),
            }],
            replicated_template_dims: vec![],
        };
        let dad = DadBuilder::new("A", &[extent])
            .template(Template::new("T", &[text]))
            .align(a)
            .distribute(&[kind])
            .grid(ProcGrid::new(&[nprocs]))
            .build()
            .unwrap();

        let mut owners = vec![0usize; extent as usize];
        let seg = Segment::padded(&dad.local_shape(), &[0], &[0]);
        for rank in 0..nprocs {
            let coords = dad.grid.coords_of(rank);
            let mut held = Vec::new();
            dad.for_each_owned(&coords, &seg, |g, off| held.push((g[0], off as i64)));
            for (g, l) in held {
                owners[g as usize] += 1;
                prop_assert_eq!(dad.global_index(&coords, &[l]), Some(vec![g]));
            }
        }
        prop_assert!(owners.iter().all(|&c| c == 1));
    }

    /// 2-D BLOCK×CYCLIC DADs: local shapes bound every local index.
    #[test]
    fn local_shape_bounds_all_locals(
        n in 1i64..24,
        m in 1i64..24,
        p in 1i64..5,
        q in 1i64..5,
        k0 in dist_kind(),
        k1 in dist_kind(),
    ) {
        let dad = DadBuilder::new("A", &[n, m])
            .distribute(&[k0, k1])
            .grid(ProcGrid::new(&[p, q]))
            .build()
            .unwrap();
        let shape = dad.local_shape();
        for rank in 0..dad.grid.size() {
            let coords = dad.grid.coords_of(rank);
            let mut locals = Vec::new();
            dad.for_each_owned(&coords, &Segment::padded(&shape, &[0, 0], &[0, 0]), |g, _| {
                locals.push(dad.local_index(g));
            });
            for l in locals {
                for (d, (&li, &sh)) in l.iter().zip(&shape).enumerate() {
                    prop_assert!(li < sh, "dim {d}: local {li} >= alloc {sh}");
                }
            }
        }
    }

    /// `set_bound`, expanded, is the reference walk over the global
    /// range, in maximal runs — under every kind, `CYCLIC(K)` at a
    /// stride above 1 included, odd extents and 1..8 processors.
    #[test]
    fn set_bound_is_the_reference_in_maximal_runs(
        kind in any_kind(),
        extent in 1i64..90,
        nprocs in 1i64..9,
        glb in -3i64..90,
        len in -2i64..90,
        gst in 1i64..8,
    ) {
        let nprocs = if kind.is_distributed() { nprocs } else { 1 };
        let d = DimDist::new(kind, extent, nprocs);
        for p in 0..nprocs {
            let runs = set_bound(&d, p, glb, glb + len, gst);
            prop_assert!(maximal(&runs), "{:?}", runs);
            let values: Vec<i64> = runs.values().collect();
            prop_assert_eq!(values.len(), runs.len());
            prop_assert_eq!(values, set_bound_reference(&d, p, glb, glb + len, gst));
        }
    }

    /// An array dimension's owned runs, expanded, are the slot-by-slot
    /// filter they replaced, maximal, and their `locals` are each
    /// element's local index — under every kind and alignment stride
    /// ±1..3 with offsets.
    #[test]
    fn owned_runs_are_the_slot_filter(case in dim_case(), nprocs in 1i64..9) {
        let dad = dad_of(&[case], &[nprocs]);
        let dm = &dad.dims[0];
        let mut total = 0;
        for p in 0..dad.grid.size() {
            let owned = dm.owned(p);
            prop_assert!(maximal(&owned), "{:?}", owned);
            prop_assert_eq!(owned.values().collect::<Vec<_>>(), owned_by_filter(dm, p));
            for run in owned.runs() {
                let (first, step) = dm.locals(run);
                for (k, i) in run.iter().enumerate() {
                    prop_assert_eq!(dm.local(i), first + k as i64 * step, "{:?}", run);
                }
            }
            total += owned.len() as i64;
        }
        let copies = if dm.is_distributed() { 1 } else { dad.grid.size() };
        prop_assert_eq!(total, case.extent * copies);
    }

    /// `for_each_owned` visits the product of the dimensions' owned
    /// runs in row-major order of increasing array index, each with the
    /// offset of its local index vector in a ghosted segment.
    #[test]
    fn for_each_owned_is_row_major_in_array_index(
        cases in (dim_case(), dim_case(), dim_case()),
        rank in 1usize..4,
        procs in (1i64..5, 1i64..5, 1i64..5),
        ghost in 0i64..3,
    ) {
        let dad = dad_of(&[cases.0, cases.1, cases.2][..rank], &[procs.0, procs.1, procs.2]);
        let ghosts = vec![ghost; dad.rank()];
        let seg = Segment::padded(&dad.local_shape(), &ghosts, &ghosts);
        for rank in 0..dad.grid.size() {
            let coords = dad.grid.coords_of(rank);
            let mut seen: Vec<Vec<i64>> = Vec::new();
            let n = dad.for_each_owned(&coords, &seg, |g, off| {
                assert_eq!(off, seg.offset(&dad.local_index(g)), "{g:?}");
                seen.push(g.to_vec());
            });
            prop_assert_eq!(n, seen.len());
            let want: usize = dad.owned(&coords).iter().map(Runs::len).product();
            prop_assert_eq!(n, want);
            prop_assert!(seen.windows(2).all(|w| w[0] < w[1]), "not row-major");
            prop_assert!(seen.iter().all(|g| dad.is_owner(rank, g)));
        }
    }

    /// `Dad::walk`, its runs expanded, visits exactly the elements one at
    /// a time — the same index vectors and offsets, in the same order —
    /// and `for_each_owned` and `offsets` are that expansion: 1-D to 3-D,
    /// every kind (CYCLIC(K) included), alignment strides of either
    /// sign, ghost-padded segments and ranks that own nothing.
    #[test]
    fn the_run_walk_expanded_is_the_element_walk(
        cases in (dim_case(), dim_case(), dim_case()),
        rank in 1usize..4,
        procs in (1i64..5, 1i64..5, 1i64..5),
        ghost in (0i64..3, 0i64..3),
    ) {
        let dad = dad_of(&[cases.0, cases.1, cases.2][..rank], &[procs.0, procs.1, procs.2]);
        let (lo, hi) = (vec![ghost.0; dad.rank()], vec![ghost.1; dad.rank()]);
        let seg = Segment::padded(&dad.local_shape(), &lo, &hi);
        for r in 0..dad.grid.size() {
            check_run_walk(&dad, r, &seg)?;
        }
    }
}

/// The layouts the run walk is most likely to get wrong, named: a
/// CYCLIC(3) dimension aligned at stride −2 (offsets descending along
/// ascending indices), a BLOCK dimension whose last grid coordinate owns
/// nothing, ghost cells on both sides.
#[test]
fn the_run_walk_covers_negative_strides_cyclic_ghosts_and_empty_ranks() {
    let cyclic3 = DimCase {
        kind: DistKind::BlockCyclic(3),
        extent: 11,
        stride: -2,
        lead: 1,
        tail: 2,
    };
    let short_block = DimCase {
        kind: DistKind::Block,
        extent: 5,
        stride: 1,
        lead: 0,
        tail: 0,
    };
    for cases in [
        vec![cyclic3],
        vec![cyclic3, short_block],
        vec![short_block, cyclic3],
    ] {
        let dad = dad_of(&cases, &[4, 4]);
        let ghosts = vec![2; dad.rank()];
        let seg = Segment::padded(&dad.local_shape(), &ghosts, &[1; 2][..dad.rank()]);
        let held: Vec<usize> = (0..dad.grid.size())
            .map(|r| check_run_walk(&dad, r, &seg).unwrap_or_else(|e| panic!("{cases:?}: {e:?}")))
            .collect();
        assert_eq!(held.iter().sum::<usize>() as i64, dad.size(), "{cases:?}");
        if cases.len() == 2 {
            assert!(held.contains(&0), "{cases:?}: a rank owns nothing");
        }
    }
}
