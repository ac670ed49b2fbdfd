//! Per-layer microbench for the native tier's element loop: ns per
//! element of every fused row kernel and of the generic tree evaluator,
//! at the row lengths the repo benchmark produces (12 = gauss-ipsc16's
//! columns per rank, 64, 254 = a Jacobi interior row), unit-stride and
//! strided. Operands stay in L1, so this is the loop itself — what a
//! change to `f90d_vm::native` moves before anything at the job level.
//!
//! Each sample runs 1 000 000 element updates, so the reported time in
//! ms reads directly as **ns per element**.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use f90d_frontend::ast::BinOp::{self, Add, Div, Mul, Sub};
use f90d_vm::native::{compose, match_template, NExpr, RowArgs, RowFn, RowRead, Scratch};

const ELEMENTS: usize = 1_000_000;
const STRIDE: isize = 3;

fn bin(op: BinOp, l: NExpr, r: NExpr) -> NExpr {
    NExpr::Bin(op, Box::new(l), Box::new(r))
}

/// `(label, reduced RHS, sites that do not depend on the inner variable)`
/// — the invariant sites are stride 0 in both layouts, as they are in
/// the programs the shape comes from.
fn shapes() -> Vec<(&'static str, NExpr, &'static [usize])> {
    use NExpr::{Cast, Lit, Read, Scalar};
    let stencil = bin(
        Mul,
        Lit(0.25),
        bin(Add, bin(Add, bin(Add, Read(0), Read(1)), Read(2)), Read(3)),
    );
    let rank1 = bin(Sub, Read(0), bin(Mul, bin(Div, Read(1), Read(2)), Read(3)));
    vec![
        ("stencil4_scale", stencil, &[]),
        ("rank1_update", rank1.clone(), &[1, 2]),
        ("rank1_update_varying", rank1, &[]),
        ("reduce_accumulate", bin(Add, Read(0), Read(1)), &[]),
        (
            "reduce_accumulate_scaled",
            bin(Add, Read(0), bin(Mul, Scalar(0), Read(1))),
            &[],
        ),
        ("axpy", bin(Add, Read(0), bin(Mul, Lit(1.5), Read(1))), &[]),
        (
            "multiply_accumulate",
            bin(Add, Read(0), bin(Mul, Read(1), Read(2))),
            &[],
        ),
        ("copy", Read(0), &[]),
        ("index_cast", Cast(0), &[]),
        // No fused template: `(r0*r0 - r1/s) + (r2 - 2.0)*REAL(i)`.
        (
            "generic",
            bin(
                Add,
                bin(
                    Sub,
                    bin(Mul, Read(0), Read(0)),
                    bin(Div, Read(1), Scalar(0)),
                ),
                bin(Mul, bin(Sub, Read(2), Lit(2.0)), Cast(0)),
            ),
            &[],
        ),
    ]
}

fn run_rows(f: &RowFn, args: &RowArgs<'_>, out: &mut [f64], scratch: &mut Scratch) {
    for _ in 0..ELEMENTS / out.len() {
        f(black_box(args), out, scratch);
        black_box(&mut *out);
    }
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("native_rows");
    g.sample_size(15);
    let data: Vec<Vec<f64>> = (0..4)
        .map(|k| {
            (0..1024)
                .map(|x| 1.0 + ((x * 7 + k * 3) % 19) as f64 / 8.0)
                .collect()
        })
        .collect();
    let mut scratch = Scratch::default();
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
                    let reads: Vec<RowRead<'_>> = (0..4)
                        .map(|k| RowRead {
                            data: &data[k],
                            start: 8 + k,
                            step: if invariant.contains(&k) { 0 } else { step },
                        })
                        .collect();
                    let args = RowArgs {
                        reads: &reads,
                        ireads: &[],
                        lins: &[(5, step as i64)],
                        scalars: &[0.75],
                    };
                    let mut out = vec![0.0f64; n];
                    g.bench_with_input(
                        BenchmarkId::new(format!("{label}/{layout}"), n),
                        &args,
                        |b, args| b.iter(|| run_rows(f, args, &mut out, &mut scratch)),
                    );
                }
            }
        }
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
