//! Property test of the shared `set_BOUND` iteration partitioning
//! (`f90d_vm::dispatch::iteration_spaces`), the one implementation both
//! executors partition every FORALL with. Every rank's space holds, per
//! variable, ascending maximal progressions: expanded, they must equal
//! [`iterations_for`] — the list implementation the progressions
//! replaced, kept here as the oracle — and no run may continue the one
//! before it. Over BLOCK / CYCLIC / CYCLIC(K) distributions, alignment
//! strides ±1..3 with an offset, LHS subscripts `a*v + b` and loop
//! strides 1..3, the per-rank values of an owner-computes loop are
//! sorted, pairwise disjoint, and their union is exactly
//! `lb..=ub step st` — every iteration runs on exactly one rank — and
//! each list equals what the implementation `iterations_for` replaced
//! computes ([`iterations_oracle`]: every local of `set_bound` through
//! μ⁻¹, filtered, sorted). A second property pins the branch that
//! reverses instead of sorting: a negative template stride over
//! CYCLIC(K) with `ub` off the loop's stride, where a rank's values are
//! several runs. Both hold the whole FORALL: beside the partitioned
//! variable a replicated one, found once, must read on every rank that
//! runs as `iterations_for` says — and a rank with no share of the
//! partitioned one gets no space at all. A third property puts the
//! bounds at the ends of `i64` — a span past `i64::MAX` included — and
//! holds the `Replicate` and `BlockIter` values to the trips enumerated
//! in `i128`. A fourth moves to a two-axis grid under either embedding,
//! with an owner filter or a second partitioned variable, where
//! `iteration_spaces` masks idle ranks before partitioning: the values
//! are still `iterations_for`'s, every tuple runs once, and no rank
//! outside the window of ranks that can own an iteration is visited.
//! A fifth holds the plan a `DO` loop keeps for a FORALL whose bounds
//! move with the loop variable (`SpacePlan`) to `iteration_spaces` at
//! every step of the loop.

use f90d_distrib::{
    set_bound, AlignExpr, Alignment, AxisAlign, DadBuilder, DistKind, GridEmbedding, ProcGrid,
    Progression, Template,
};
use f90d_machine::{ElemType, Machine, MachineSpec};
use f90d_runtime::DistArray;
use f90d_vm::dispatch::{iteration_spaces, Dispatched, SpacePlan};
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

/// The iterations of one FORALL variable over `lb..=ub` step `st`
/// assigned to `rank` as the executors listed them before they kept
/// progressions: global iteration values in ascending order.
fn iterations_for(
    part: &Partition,
    [lb, ub, st]: [i64; 3],
    arrays: &[DistArray],
    grid: &ProcGrid,
    rank: i64,
) -> Vec<i64> {
    if lb > ub {
        return vec![];
    }
    let (nranks, coords) = (grid.size(), grid.coords_of(rank));
    let count = u128::from(ub.abs_diff(lb) / st as u64) + 1;
    let ub = lb.wrapping_add(((count - 1) as i64).wrapping_mul(st));
    let at = |k: u128| lb.wrapping_add((k as i64).wrapping_mul(st));
    let all = || (lb..=ub).step_by(st as usize).collect();
    match part {
        Partition::Replicate => all(),
        Partition::BlockIter => {
            let chunk = count.div_ceil(nranks as u128);
            let first = rank as u128 * chunk;
            let last = ((rank as u128 + 1) * chunk).min(count);
            (first..last).map(at).collect()
        }
        Partition::OwnerDim { arr, dim, a, b } => {
            let dm = &arrays[*arr].dad.dims[*dim];
            if !dm.is_distributed() {
                return all();
            }
            let coord = coords[dm.grid_axis.unwrap()];
            let (s, o) = (dm.align.stride * a, dm.align.stride * b + dm.align.offset);
            let (t1, t2) = (s * lb + o, s * ub + o);
            let li = set_bound(&dm.dist, coord, t1.min(t2), t1.max(t2), (s * st).abs());
            let cell =
                |l: i64| (dm.dist.global_of(coord, l)).expect("set_bound local maps to global");
            let on_stride = |t: i64| {
                let (num, v) = (t - o, (t - o) / s);
                (num % s == 0 && (v - lb) % st == 0).then_some(v)
            };
            let each = |l: i64| on_stride(cell(l)).filter(|v| (lb..=ub).contains(v));
            let mut out: Vec<i64> = li.values().filter_map(each).collect();
            if s < 0 {
                out.reverse();
            }
            out
        }
    }
}

/// Rank `rank`'s space expanded to per-variable value lists, after
/// checking that every variable's runs are ascending progressions none
/// of which continues the one before it.
fn expanded(done: &Dispatched, rank: i64) -> Result<Vec<Vec<i64>>, TestCaseError> {
    let space = done.spaces.space(rank as usize);
    for runs in space {
        prop_assert!(!runs.is_empty(), "rank {}: an empty variable", rank);
        for p in runs.runs() {
            prop_assert!(p.len >= 1 && (p.len == 1 || p.stride > 0), "{:?}", p);
        }
        for w in runs.runs().windows(2) {
            let continues = w[1]
                .first
                .checked_sub(w[0].last())
                .is_some_and(|gap| gap > 0 && (w[0].len == 1 || gap == w[0].stride));
            prop_assert!(!continues, "rank {}: {:?} continues {:?}", rank, w[1], w[0]);
        }
    }
    Ok(space.iter().map(|r| r.values().collect()).collect())
}

/// The owner-computes branch of `iterations_for` as it was before it
/// stopped materializing its list three times: kept as the oracle.
fn iterations_oracle(
    (a, b): (i64, i64),
    [lb, ub, st]: [i64; 3],
    array: &DistArray,
    grid: &ProcGrid,
    rank: i64,
) -> Vec<i64> {
    if lb > ub {
        return vec![];
    }
    let ub = lb + (ub - lb) / st * st;
    let dm = &array.dad.dims[0];
    if !dm.is_distributed() {
        return (lb..=ub).step_by(st as usize).collect();
    }
    let coord = grid.coords_of(rank)[dm.grid_axis.unwrap()];
    let s = dm.align.stride * a;
    let o = dm.align.stride * b + dm.align.offset;
    let (t1, t2) = (s * lb + o, s * ub + o);
    let li = set_bound(&dm.dist, coord, t1.min(t2), t1.max(t2), (s * st).abs());
    let mut out = Vec::with_capacity(li.len());
    for l in li.values() {
        let t = dm
            .dist
            .global_of(coord, l)
            .expect("set_bound local maps to global");
        let num = t - o;
        if num % s != 0 {
            continue;
        }
        let v = num / s;
        if v >= lb && v <= ub && (v - lb) % st == 0 {
            out.push(v);
        }
    }
    out.sort_unstable();
    out
}

/// Bounds at the ends of `i64`: `lb` within 1000 of `i64::MIN`, `ub`
/// within 1000 of `i64::MAX`, or both — a span past `i64::MAX` — at
/// strides up to 2^62, with at most a thousand or so trips.
fn edge_bounds() -> impl Strategy<Value = [i64; 3]> {
    let stride = prop_oneof![1i64..4, (1i64 << 58)..(1i64 << 62), Just(1i64 << 62)];
    (stride, 0i64..1000, 0i64..1000, 0i64..12, 0i64..3).prop_map(|(st, a, b, trips, end)| {
        let reach = trips as i128 * st as i128 + b as i128;
        let clamp = |x: i128| x.clamp(i64::MIN.into(), i64::MAX.into()) as i64;
        match end {
            0 => [
                i64::MIN + a,
                clamp(i64::MIN as i128 + a as i128 + reach),
                st,
            ],
            1 => [
                clamp(i64::MAX as i128 - a as i128 - reach),
                i64::MAX - a,
                st,
            ],
            _ => [i64::MIN + a, i64::MAX - b, st.max(1 << 58)],
        }
    })
}

/// `lb..=ub step st` enumerated in `i128`, where no iterate overflows.
fn trips_i128([lb, ub, st]: [i64; 3]) -> Vec<i64> {
    let (mut v, ub, st) = (i128::from(lb), i128::from(ub), i128::from(st));
    let mut out = Vec::new();
    while v <= ub {
        out.push(v as i64);
        v += st;
    }
    out
}

/// The owner-computes loop `lb..=ub step st` over `A(a*v + b)`, `A`
/// aligned `align_stride*i + offset` to a template distributed `kind`
/// over `p` ranks: every rank's list is sorted, owned and the oracle's,
/// and together they are the loop.
fn check_partition(
    kind: DistKind,
    p: i64,
    (align_stride, align_offset): (i64, i64),
    (a, b_slack): (i64, i64),
    [lb, ub, st]: [i64; 3],
) -> Result<(), TestCaseError> {
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
    let arrays = [DistArray {
        name: "A".into(),
        dad,
        ty: ElemType::Real,
    }];
    let part = Partition::OwnerDim {
        arr: 0,
        dim: 0,
        a,
        b,
    };

    // The same loop with a replicated variable beside it, as one FORALL.
    let inner = [ub - lb, ub + st, st];
    let m = Machine::new(MachineSpec::ideal(), grid.clone());
    let loops = [(&part, [lb, ub, st]), (&Partition::Replicate, inner)];
    let done = iteration_spaces(&m, &arrays, &loops, &[]).unwrap();

    let mut all: Vec<i64> = Vec::new();
    for rank in 0..p {
        let list = iterations_for(&part, [lb, ub, st], &arrays, &grid, rank);
        let shared = iterations_for(&Partition::Replicate, inner, &arrays, &grid, rank);
        let want = if list.is_empty() {
            vec![]
        } else {
            vec![list.clone(), shared]
        };
        prop_assert_eq!(&expanded(&done, rank)?, &want, "rank {}", rank);
        // A BLOCK or CYCLIC share, and the replicated variable, are one
        // progression each; only CYCLIC(K) may take several.
        let space = done.spaces.space(rank as usize);
        let cyclic_k = matches!(kind, DistKind::BlockCyclic(_));
        prop_assert!(space
            .iter()
            .skip(cyclic_k as usize)
            .all(|r| r.runs().len() == 1));
        prop_assert!(
            list.windows(2).all(|w| w[0] < w[1]),
            "rank {} unsorted: {:?}",
            rank,
            list
        );
        // Owner computes: the rank owns every LHS element it iterates.
        for &v in &list {
            prop_assert!(
                arrays[0].dad.is_owner(rank, &[a * v + b]),
                "rank {} runs unowned v={}",
                rank,
                v
            );
        }
        let oracle = iterations_oracle((a, b), [lb, ub, st], &arrays[0], &grid, rank);
        prop_assert_eq!(&list, &oracle);
        all.extend(list);
    }
    all.sort_unstable();
    let want: Vec<i64> = (lb..=ub).step_by(st as usize).collect();
    // Equal to the duplicate-free expected list ⇒ disjoint and complete.
    prop_assert_eq!(all, want);
    Ok(())
}

/// A FORALL over `A(n0, n1)` on a two-axis `grid`: dimension 0
/// distributed `kinds[0]` with the identity alignment, dimension 1
/// `kinds[1]` aligned `align_stride*i + offset`. The variable `v` runs
/// `bounds` with the LHS subscript `a*v + b` on dimension 1; on
/// dimension 0 either the owner filter fixes the row `Ok(g)`, or a
/// second, outer variable `u` runs `Err(rows)` as the subscript itself.
/// Every rank's lists are `iterations_for`'s — no lists at all where
/// one is empty or the filter's row is not the rank's — the tuples run
/// are the loop's, each once, and the partitioning visits at most `P`
/// ranks, exactly the active ones when both windows are tight (BLOCK at
/// a unit template step).
fn check_grid_partition(
    grid: ProcGrid,
    kinds: [DistKind; 2],
    [n0, n1]: [i64; 2],
    (align_stride, align_offset): (i64, i64),
    (a, b_slack): (i64, i64),
    [lb, ub, st]: [i64; 3],
    row: Result<i64, [i64; 3]>,
) -> Result<(), TestCaseError> {
    let b = b_slack - (a * lb).min(a * ub);
    let n1 = n1.max((a * lb + b).max(a * ub + b) + 1);
    let offset = align_offset - (align_stride * (n1 - 1)).min(0);
    let t_extent = align_stride.abs() * (n1 - 1) + offset + 1;
    let dad = DadBuilder::new("A", &[n0, n1])
        .template(Template::new("T", &[n0, t_extent]))
        .align(Alignment {
            axes: vec![
                AxisAlign::Aligned {
                    template_dim: 0,
                    expr: AlignExpr::new(1, 0),
                },
                AxisAlign::Aligned {
                    template_dim: 1,
                    expr: AlignExpr::new(align_stride, offset),
                },
            ],
            replicated_template_dims: vec![],
        })
        .distribute(&kinds)
        .grid(grid.clone())
        .build()
        .unwrap();
    let arrays = [DistArray {
        name: "A".into(),
        dad,
        ty: ElemType::Real,
    }];
    let cols = Partition::OwnerDim {
        arr: 0,
        dim: 1,
        a,
        b,
    };
    let rows = Partition::OwnerDim {
        arr: 0,
        dim: 0,
        a: 1,
        b: 0,
    };
    let m = Machine::new(MachineSpec::ideal(), grid.clone());
    let (loops, filter) = match row {
        Ok(g) => (vec![(&cols, [lb, ub, st])], vec![(0, 0, g)]),
        Err(u) => (vec![(&rows, u), (&cols, [lb, ub, st])], vec![]),
    };
    let done = iteration_spaces(&m, &arrays, &loops, &filter).unwrap();
    let dm = &arrays[0].dad.dims;
    let mut run: Vec<(i64, i64)> = Vec::new();
    let mut active = 0;
    for rank in 0..grid.size() {
        let coords = grid.coords_of(rank);
        let on_row = match row {
            Ok(g) => !dm[0].is_distributed() || coords[0] == dm[0].proc_of(g),
            Err(_) => true,
        };
        let lists: Vec<Vec<i64>> = (loops.iter())
            .map(|&(part, bounds)| iterations_for(part, bounds, &arrays, &grid, rank))
            .collect();
        let runs = on_row && lists.iter().all(|l| !l.is_empty());
        let want = if runs { lists } else { vec![] };
        prop_assert_eq!(
            &expanded(&done, rank)?,
            &want,
            "rank {} at {:?}",
            rank,
            coords
        );
        active += !want.is_empty() as u64;
        match row {
            Ok(g) => run.extend(want.iter().flatten().map(|&v| (g, v))),
            Err(_) if runs => {
                run.extend((want[0].iter()).flat_map(|&u| want[1].iter().map(move |&v| (u, v))))
            }
            Err(_) => {}
        }
    }
    run.sort_unstable();
    let trips = |[lb, ub, st]: [i64; 3]| (lb..=ub).step_by(st as usize).collect::<Vec<_>>();
    let want: Vec<(i64, i64)> = match row {
        Ok(g) => trips([lb, ub, st]).into_iter().map(|v| (g, v)).collect(),
        Err(u) => (trips(u).into_iter())
            .flat_map(|r| trips([lb, ub, st]).into_iter().map(move |v| (r, v)))
            .collect(),
    };
    prop_assert_eq!(run, want, "every tuple once");
    prop_assert!(done.visited <= grid.size() as u64 && done.visited >= active);
    let unit = (align_stride * a * st).abs() == 1 && row.map_or_else(|u| u[2] == 1, |_| true);
    if kinds == [DistKind::Block; 2] && unit {
        prop_assert_eq!(
            done.visited,
            active,
            "a tight window visits the active ranks only"
        );
    }
    Ok(())
}

/// A hostile trip count costs nothing: `2^40` trips of a replicated and
/// of a `BlockIter` variable are one progression per variable and rank,
/// found at once — where the lists they replaced asked for 8 TiB.
#[test]
fn trips_past_memory_are_one_progression_per_rank() {
    let bounds = [1, 1i64 << 40, 1];
    let grid = ProcGrid::new(&[4]);
    let m = Machine::new(MachineSpec::ideal(), grid);
    let loops = [
        (&Partition::BlockIter, bounds),
        (&Partition::Replicate, bounds),
    ];
    let done = iteration_spaces(&m, &[], &loops, &[]).unwrap();
    let share = 1usize << 38;
    for rank in 0..4 {
        let space = done.spaces.space(rank);
        let first = 1 + (rank * share) as i64;
        assert_eq!(space[0].runs(), [Progression::new(first, 1, share)]);
        assert_eq!(space[1].runs(), [Progression::new(1, 1, 1 << 40)]);
    }
    // Past `usize::MAX` trips is a structured error, not an abort.
    let whole = [(&Partition::Replicate, [i64::MIN, i64::MAX, 1])];
    let err = iteration_spaces(&m, &[], &whole, &[]).unwrap_err();
    assert!(err.0.contains("trip count"), "{err}");
}

/// CYCLIC(2) under a loop stride of 3 leaves every rank several runs
/// (the blocks of the cycle cut the progression), and a negative
/// alignment stride runs them downwards: both still the oracle's values.
#[test]
fn cyclic_k_with_a_stride_gives_several_runs() {
    for align_stride in [1, -1] {
        check_partition(
            DistKind::BlockCyclic(2),
            4,
            (align_stride, 0),
            (1, 0),
            [0, 90, 3],
        )
        .unwrap();
    }
    let grid = ProcGrid::new(&[4]);
    let dad = DadBuilder::new("A", &[96])
        .distribute(&[DistKind::BlockCyclic(2)])
        .grid(grid.clone())
        .build()
        .unwrap();
    let arrays = [DistArray {
        name: "A".into(),
        dad,
        ty: ElemType::Real,
    }];
    let part = Partition::OwnerDim {
        arr: 0,
        dim: 0,
        a: 1,
        b: 0,
    };
    let m = Machine::new(MachineSpec::ideal(), grid);
    let done = iteration_spaces(&m, &arrays, &[(&part, [0, 95, 3])], &[]).unwrap();
    assert!((0..4).all(|rank| done.spaces.space(rank)[0].runs().len() > 1));
}

/// A FORALL `(I = lbs[0] + sl[0]·K : ubs[0] - su[0]·K, J = …)` inside
/// `DO K = k0, k0 + dk·(steps - 1), dk` over a 2-D array under
/// `(*,BLOCK)`, `(BLOCK,*)` or `(BLOCK,BLOCK)` — `J` at subscript
/// `a·J + b` on a dimension aligned at offset `align_offset` — with its
/// plan derived at the first step: at every step, every rank's space
/// must be what `iteration_spaces` partitions from scratch — across the
/// steps where a bound crosses a block boundary and the step a rank
/// goes idle — and an active rank's corners must be affine in the step
/// up to [`SpacePlan::until`], which the binding's pieces rely on.
fn check_do_plan(
    layout: usize,
    p: [i64; 2],
    n: [i64; 2],
    align_offset: i64,
    (a, b): (i64, i64),
    (lbs, sl): ([i64; 2], [i64; 2]),
    (ubs, su): ([i64; 2], [i64; 2]),
    (k0, dk, steps): (i64, i64, i64),
) -> Result<(), TestCaseError> {
    let (kinds, shape): ([DistKind; 2], Vec<i64>) = match layout {
        0 => ([DistKind::Collapsed, DistKind::Block], vec![p[1]]),
        1 => ([DistKind::Block, DistKind::Collapsed], vec![p[0]]),
        _ => ([DistKind::Block, DistKind::Block], vec![p[0], p[1]]),
    };
    let grid = ProcGrid::new(&shape);
    let t_extent = n[1] + align_offset;
    let dad = DadBuilder::new("A", &n)
        .template(Template::new("T", &[n[0], t_extent]))
        .align(Alignment {
            axes: vec![
                AxisAlign::Aligned {
                    template_dim: 0,
                    expr: AlignExpr::new(1, 0),
                },
                AxisAlign::Aligned {
                    template_dim: 1,
                    expr: AlignExpr::new(1, align_offset),
                },
            ],
            replicated_template_dims: vec![],
        })
        .distribute(&kinds)
        .grid(grid.clone())
        .build()
        .unwrap();
    let arrays = [DistArray {
        name: "A".into(),
        dad,
        ty: ElemType::Real,
    }];
    let rows = Partition::OwnerDim {
        arr: 0,
        dim: 0,
        a: 1,
        b: 0,
    };
    let cols = Partition::OwnerDim {
        arr: 0,
        dim: 1,
        a,
        b,
    };
    let m = Machine::new(MachineSpec::ideal(), grid.clone());
    let at = |t: i64| {
        let k = k0 + dk * t;
        let bounds = |j: usize| [lbs[j] + sl[j] * k, ubs[j] - su[j] * k, 1];
        vec![(&rows, bounds(0)), (&cols, bounds(1))]
    };
    let first = iteration_spaces(&m, &arrays, &at(0), &[]).unwrap();
    let slopes = [0, 1].map(|j| [sl[j] * dk, -su[j] * dk]);
    let plan = SpacePlan::new(&m, &arrays, &at(0), &slopes, &first.spaces, steps - 1);
    let Some(plan) = plan else {
        return Err(TestCaseError(
            "BLOCK at a unit template stride has a plan".into(),
        ));
    };
    let nvars = plan.nvars();
    for t in 0..steps {
        let done = iteration_spaces(&m, &arrays, &at(t), &[]).unwrap();
        let planned = plan.at(t);
        for rank in 0..grid.size() as usize {
            prop_assert_eq!(
                planned.spaces.space(rank),
                done.spaces.space(rank),
                "rank {} at step {}",
                rank,
                t
            );
        }
        prop_assert_eq!(planned.visited, done.spaces.active() as u64);
        let corners = |h: usize, t: i64| {
            let (mut lo, mut hi) = ([0; 2], [0; 2]);
            plan.corners(h, t, &mut lo, &mut hi)
                .then_some([lo[0], lo[1], hi[0], hi[1]])
        };
        for h in 0..plan.len() {
            let Some(here) = corners(h, t) else {
                continue;
            };
            let until = plan.until(h, t).min(steps - 1);
            prop_assert!(until >= t, "an active rank's piece holds its step");
            let Some(next) = corners(h, t + 1).filter(|_| until > t) else {
                continue;
            };
            for s in t..=until {
                let affine = (0..4).map(|c| here[c] + (next[c] - here[c]) * (s - t));
                let want: Vec<i64> = affine.collect();
                let got = corners(h, s).map(Vec::from);
                prop_assert_eq!(
                    got,
                    Some(want),
                    "rank {} affine from step {} to {}",
                    plan.rank(h),
                    t,
                    s
                );
            }
        }
        prop_assert_eq!(nvars, 2);
    }
    Ok(())
}

/// A bound whose value would leave `i64` within the loop's run wraps when
/// evaluated, and a wrapped bound is not affine in the step: no plan. A
/// lower bound 5 below `i64::MAX`, rising by one a step, plans 5 more
/// steps and not 6.
#[test]
fn a_bound_that_would_leave_i64_within_the_run_has_no_plan() {
    let m = Machine::new(MachineSpec::ideal(), ProcGrid::new(&[2]));
    let loops = [(&Partition::Replicate, [i64::MAX - 5, 16, 1])];
    let first = iteration_spaces(&m, &[], &loops, &[]).unwrap();
    let plan = |last| SpacePlan::new(&m, &[], &loops, &[[1, 0]], &first.spaces, last);
    assert!(plan(5).is_some());
    assert!(plan(6).is_none());
}

fn embedding() -> impl Strategy<Value = GridEmbedding> {
    prop_oneof![Just(GridEmbedding::RowMajor), Just(GridEmbedding::GrayCode)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Two grid axes under either embedding, each distributed BLOCK,
    /// CYCLIC or CYCLIC(K), a negative alignment stride among the
    /// strides, often fewer columns than ranks along the column axis,
    /// and the row fixed by an owner filter or run by an outer
    /// variable.
    #[test]
    fn lists_on_a_two_axis_grid_with_an_owner_filter(
        p in (0u32..3, 0u32..3),
        embedding in embedding(),
        kinds in (dist_kind(), dist_kind()),
        n in (1i64..9, 1i64..9),
        align_stride in nonzero(-2, 2),
        align_offset in 0i64..3,
        a in nonzero(-2, 2),
        b_slack in 0i64..3,
        lb in 0i64..4,
        count in 1i64..7,
        st in 1i64..3,
        row in prop_oneof![
            (0i64..8).prop_map(Ok),
            (0i64..4, 0i64..5, 1i64..3).prop_map(|(lb, len, st)| Err([lb, lb + len, st])),
        ],
    ) {
        let grid = ProcGrid::with_embedding(&[1 << p.0, 1 << p.1], embedding);
        let ub = lb + (count - 1) * st;
        let n0 = match row {
            Ok(g) => n.0.max(g + 1),
            Err([_, ub, _]) => n.0.max(ub + 1),
        };
        check_grid_partition(
            grid,
            [kinds.0, kinds.1],
            [n0, n.1],
            (align_stride, align_offset),
            (a, b_slack),
            [lb, ub, st],
            row,
        )?;
    }

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
        check_partition(kind, p, (align_stride, align_offset), (a, b_slack), [lb, ub, st])?;
    }

    /// The template progression runs downwards (a negative alignment
    /// stride under a positive subscript stride, so the lists come out
    /// of `set_bound` descending and are reversed), the distribution is
    /// CYCLIC(K) (several runs per rank, μ⁻¹ affine only within a
    /// cycle block) and `ub` is off
    /// the loop's stride (the progression is anchored at the last
    /// iterate, not at `ub`).
    #[test]
    fn reversed_lists_under_a_negative_template_stride(
        k in 2i64..5,
        p in 2i64..7,
        align_stride in -3i64..0,
        align_offset in 0i64..5,
        a in 1i64..3,
        b_slack in 0i64..3,
        lb in 0i64..5,
        count in 2i64..25,
        st in 2i64..4,
        ub_slack in 1i64..3,
    ) {
        let ub = lb + (count - 1) * st + ub_slack.min(st - 1);
        let kind = DistKind::BlockCyclic(k);
        check_partition(kind, p, (align_stride, align_offset), (a, b_slack), [lb, ub, st])?;
    }

    /// [`check_do_plan`] over random layouts, grids, alignment offsets,
    /// subscripts, bounds that move inwards and `DO` ranges.
    #[test]
    fn do_plans_give_the_partitioned_spaces_at_every_step(
        layout in 0usize..3,
        p in (0u32..3, 0u32..3),
        n in (1i64..24, 1i64..24),
        align_offset in 0i64..4,
        a in prop_oneof![Just(1i64), Just(-1i64)],
        b in 0i64..6,
        lbs in (-3i64..6, -3i64..6),
        sl in (0i64..3, 0i64..3),
        ubs in (0i64..30, 0i64..30),
        su in (0i64..3, 0i64..3),
        k0 in 0i64..4,
        dk in 1i64..3,
        steps in 1i64..14,
    ) {
        // `a = -1` walks the columns downwards from `b + n - 1`.
        let b = if a == 1 { b } else { b + n.1 - 1 };
        check_do_plan(
            layout,
            [1 << p.0, 1 << p.1],
            [n.0, n.1],
            align_offset,
            (a, b),
            ([lbs.0, lbs.1], [sl.0, sl.1]),
            ([ubs.0, ubs.1], [su.0, su.1]),
            (k0, dk, steps),
        )?;
    }

    /// Bounds at the ends of `i64`: every rank's `Replicate` list is
    /// every trip, and the `BlockIter` lists are the trips' consecutive
    /// shares of ⌈trips / p⌉ in rank order — per rank, and in the
    /// whole-FORALL form with a replicated variable beside the split one.
    #[test]
    fn lists_at_the_ends_of_i64_are_the_i128_trips(bounds in edge_bounds(), p in 1i64..7) {
        let want = trips_i128(bounds);
        let grid = ProcGrid::new(&[p]);
        let share = want.len().div_ceil(p as usize);
        let m = Machine::new(MachineSpec::ideal(), grid.clone());
        let loops = [(&Partition::BlockIter, bounds), (&Partition::Replicate, bounds)];
        let done = iteration_spaces(&m, &[], &loops, &[]).unwrap();
        for rank in 0..p {
            let replicated = iterations_for(&Partition::Replicate, bounds, &[], &grid, rank);
            prop_assert_eq!(&replicated, &want, "Replicate, rank {}", rank);
            let split = iterations_for(&Partition::BlockIter, bounds, &[], &grid, rank);
            let r = rank as usize;
            let mine = &want[(r * share).min(want.len())..((r + 1) * share).min(want.len())];
            prop_assert_eq!(&split[..], mine, "BlockIter, rank {}", rank);
            let whole = if split.is_empty() { vec![] } else { vec![split, want.clone()] };
            prop_assert_eq!(&expanded(&done, rank)?, &whole, "iteration_spaces, rank {}", rank);
            // One progression per variable: nothing grows with the trips.
            prop_assert!(done.spaces.space(r).iter().all(|runs| runs.runs().len() == 1));
        }
    }
}
