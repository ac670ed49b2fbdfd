//! Per-layer microbench for the native tier's element loop: ns per
//! element of every fused box kernel and of the generic tree evaluator.
//! Operands stay in L1 or L2, so this is the loop itself — what a change
//! to `f90d_vm::native` moves before anything at the job level.
//!
//! Two families of rows. **One-row boxes** at the row lengths the repo
//! benchmark produces (12 = gauss-ipsc16's columns per rank, 64, 254 = a
//! Jacobi interior row), unit-stride and strided: one kernel call per
//! row, so the per-call cost shows. **Whole boxes** at the shapes a rank
//! of the benchmark jobs runs per FORALL: the Gaussian rank-1 update at
//! 180 × 12 (`gauss-ipsc16`) and 60 × 1 (`gauss-fattree256`), the
//! four-point stencil at 64 × 64 (`stencil-ghost`), the tree evaluator at
//! 180 × 12 — with the updated operand read from another array (`/far`)
//! and as the element the box overwrites (`/own`, the in-place update).
//!
//! Each sample runs 1 000 000 element updates, so the reported time in
//! ms reads directly as **ns per element**. [`run_box`] is the only
//! function that names the kernel API: rewrite it (one call per row,
//! a row's descriptors `start + r·row_step`) to time an older checkout
//! — or, for one that has box kernels but predates the shared column
//! pool, import its `Scratch as Pool`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use f90d_frontend::ast::BinOp::{self, Add, Div, Mul, Sub};
use f90d_vm::native::{
    compose, match_template, BoxArgs, BoxFn, BoxOut, BoxRead, NExpr, Pool, Walk,
};

const ELEMENTS: usize = 1_000_000;
const STRIDE: i64 = 3;

fn bin(op: BinOp, l: NExpr, r: NExpr) -> NExpr {
    NExpr::Bin(op, Box::new(l), Box::new(r))
}

/// A walk as plain numbers: `(start, row_step, step)`.
type Site = (i64, i64, i64);

/// One timed box: `reads[k]` walks `data[arrays[k]]` — or, for `own`, is
/// the element the box overwrites — and rows of `len` are written
/// `pitch` apart.
struct BoxCase<'a> {
    rows: usize,
    len: usize,
    reads: &'a [Site],
    arrays: [usize; 4],
    own: Option<usize>,
    lin: Site,
    pitch: usize,
}

/// Run the kernel over the box until [`ELEMENTS`] updates are done.
fn run_box(f: &BoxFn, case: &BoxCase<'_>, data: &[Vec<f64>], out: &mut [f64], pool: &mut Pool) {
    let walk = |&(start, row_step, step): &Site| Walk {
        start,
        row_step,
        step,
    };
    let reads: Vec<BoxRead<'_>> = (case.reads.iter().zip(case.arrays))
        .enumerate()
        .map(|(k, (site, array))| BoxRead {
            data: (case.own != Some(k)).then_some(&data[array][..]),
            walk: walk(site),
        })
        .collect();
    let args = BoxArgs {
        rows: case.rows,
        len: case.len,
        reads: &reads,
        lins: &[walk(&case.lin)],
        scalars: &[0.75],
    };
    for _ in 0..ELEMENTS / (case.rows * case.len) {
        let mut out = BoxOut {
            data: &mut *out,
            start: 0,
            row_step: case.pitch as isize,
        };
        f(black_box(&args), &mut out, pool);
        black_box(&mut out.data);
    }
}

fn stencil() -> NExpr {
    use NExpr::{Lit, Read};
    bin(
        Mul,
        Lit(0.25),
        bin(Add, bin(Add, bin(Add, Read(0), Read(1)), Read(2)), Read(3)),
    )
}

fn rank1() -> NExpr {
    use NExpr::Read;
    bin(Sub, Read(0), bin(Mul, bin(Div, Read(1), Read(2)), Read(3)))
}

/// No fused template: `(r0*r0 - r1/s) + (r2 - 2.0)*REAL(i)`.
fn generic() -> NExpr {
    use NExpr::{Lin, Lit, Read, Scalar};
    bin(
        Add,
        bin(
            Sub,
            bin(Mul, Read(0), Read(0)),
            bin(Div, Read(1), Scalar(0)),
        ),
        bin(Mul, bin(Sub, Read(2), Lit(2.0)), Lin(0)),
    )
}

/// `(label, reduced RHS, sites that do not depend on the inner variable)`
/// — the invariant sites are stride 0 in both layouts, as they are in
/// the programs the shape comes from. A `_generic` row is a hot shape
/// with no fused template of its own, and `rank1_update_varying` (a
/// multiplier that moves along the row) is the rank-1 template handing
/// the box to the generic kernel.
fn shapes() -> Vec<(&'static str, NExpr, &'static [usize])> {
    use NExpr::{Lin, Lit, Read, Scalar};
    vec![
        ("stencil4_scale", stencil(), &[]),
        ("rank1_update", rank1(), &[1, 2]),
        ("rank1_update_varying", rank1(), &[]),
        ("reduce_accumulate_generic", bin(Add, Read(0), Read(1)), &[]),
        (
            "reduce_accumulate_scaled_generic",
            bin(Add, Read(0), bin(Mul, Scalar(0), Read(1))),
            &[],
        ),
        (
            "axpy_generic",
            bin(Add, Read(0), bin(Mul, Lit(1.5), Read(1))),
            &[],
        ),
        (
            "multiply_accumulate_generic",
            bin(Add, Read(0), bin(Mul, Read(1), Read(2))),
            &[],
        ),
        ("copy", Read(0), &[]),
        ("index_cast", Lin(0), &[]),
        ("generic", generic(), &[]),
    ]
}

/// One whole-box case: `(label, reduced RHS, rows, len, read sites, the
/// array each walks, the site an in-place update reads its own element
/// through)`.
type WholeBox = (
    &'static str,
    NExpr,
    usize,
    usize,
    Vec<Site>,
    [usize; 4],
    Option<usize>,
);

/// The whole-box cases. The Gaussian segment is 12 (or 1) columns wide
/// with no ghost cells; the stencil reads the four neighbours in one
/// 66 × 66 segment (a ghost cell either side).
fn boxes() -> Vec<WholeBox> {
    // The Gaussian update: the updated element, the multicast column
    // (one multiplier per row), the pivot, row K.
    let gauss = |pitch: i64| vec![(0, pitch, 1), (3, 1, 0), (1, 0, 0), (5, 0, 1)];
    let apart = [0, 1, 2, 3];
    vec![
        ("rank1_update", rank1(), 180, 12, gauss(12), apart, Some(0)),
        ("rank1_update", rank1(), 60, 1, gauss(1), apart, Some(0)),
        (
            "stencil4_scale",
            stencil(),
            64,
            64,
            vec![(1, 66, 1), (133, 66, 1), (66, 66, 1), (68, 66, 1)],
            [0; 4],
            None,
        ),
        (
            "generic",
            generic(),
            180,
            12,
            vec![(0, 12, 1), (7, 12, 1), (19, 12, 1)],
            apart,
            Some(0),
        ),
    ]
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("native_rows");
    g.sample_size(15);
    let data: Vec<Vec<f64>> = (0..4)
        .map(|k| {
            (0..4608)
                .map(|x| 1.0 + ((x * 7 + k * 3) % 19) as f64 / 8.0)
                .collect()
        })
        .collect();
    let mut pool = Pool::default();
    for (label, expr, invariant) in shapes() {
        // The stencil's expression through both evaluators shows what
        // fusing one pass buys over the tree evaluator's row per node.
        let mut kernels = vec![(label, match_template(&expr).1)];
        if label == "stencil4_scale" {
            kernels.push(("stencil4_scale_as_generic", compose(&expr)));
        }
        for (label, f) in &kernels {
            for n in [12usize, 64, 254] {
                for (layout, step) in [("unit", 1), ("strided", STRIDE)] {
                    let reads: Vec<Site> = (0..4)
                        .map(|k| {
                            (
                                8 + k,
                                0,
                                if invariant.contains(&(k as usize)) {
                                    0
                                } else {
                                    step
                                },
                            )
                        })
                        .collect();
                    let case = BoxCase {
                        rows: 1,
                        len: n,
                        reads: &reads,
                        arrays: [0, 1, 2, 3],
                        own: None,
                        lin: (5, 0, step),
                        pitch: n,
                    };
                    let mut out = vec![0.0f64; n];
                    g.bench_function(BenchmarkId::new(format!("{label}/{layout}"), n), |b| {
                        b.iter(|| run_box(f, &case, &data, &mut out, &mut pool))
                    });
                }
            }
        }
    }
    for (label, expr, rows, len, reads, arrays, in_place) in boxes() {
        let f = match_template(&expr).1;
        for (aliasing, own) in [("far", None), ("own", in_place)] {
            if aliasing == "own" && own.is_none() {
                continue;
            }
            // Written where the updated operand is read: same pitch.
            let pitch = reads[0].1 as usize;
            let case = BoxCase {
                rows,
                len,
                reads: &reads,
                arrays,
                own,
                lin: (5, 1, 1),
                pitch,
            };
            // Values an in-place update keeps finite over a sample.
            let mut out = vec![1.0f64; rows * pitch];
            let id = BenchmarkId::new(format!("{label}/box/{aliasing}"), format!("{rows}x{len}"));
            g.bench_function(id, |b| {
                b.iter(|| run_box(&f, &case, &data, &mut out, &mut pool))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
