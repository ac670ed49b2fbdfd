//! The generator's own properties: it covers the grammar and both values
//! of every fact a differential property is gated on, every program
//! compiles on every grid of its configuration, the exactness budget
//! holds in the values a program really computes, and the shrinker
//! minimizes.

use std::collections::BTreeSet;

use f90d_core::codegen::lower;
use f90d_core::reference::run_reference;
use f90d_core::{compile, CompileOptions};
use f90d_frontend::compile_front;
use f90d_machine::ArrayData;
use f90d_progen::{generate, shrink, Config, Stmt, CONFIGS};

const SEEDS: u64 = 256;

/// Every grammar item a configuration can draw: each statement form,
/// distribution and shape the differential properties rely on.
const GRAMMAR: [&str; 43] = [
    "stencil",
    "inplace",
    "repeat",
    "array",
    "where",
    "section",
    "reversed",
    "indirect",
    "irregular",
    "intfill",
    "intedge",
    "redistribute",
    "do",
    "multistencil",
    "manytoone",
    "2-D",
    "BLOCK",
    "CYCLIC",
    "CYCLIC(3)",
    "*",
    "shift3",
    "stride",
    "mask",
    "invariant",
    "pivot",
    "elsewhere",
    "maskedforall",
    "sum",
    "maxval",
    "dovar",
    "redistinloop",
    "offstride",
    "gather",
    "scatter",
    "sink",
    "div-negative",
    "div-1",
    "div-scalar",
    "div-column",
    "div-edge",
    "pow",
    "wrap",
    "long",
];

#[test]
fn every_grammar_item_appears() {
    let (mut seen, mut long, mut programs) = (BTreeSet::new(), 0, 0);
    // Programs each fact a property is gated on holds of.
    let mut gated = [0; 4];
    for cfg in &CONFIGS {
        for seed in 0..SEEDS {
            let p = generate(cfg, seed);
            let (kinds, f) = (p.kinds(), p.facts());
            long += kinds.iter().filter(|k| **k == "long").count();
            programs += 1;
            seen.extend(kinds);
            let facts = [f.overlap, f.coalesce, f.masked, f.two_sums];
            (gated.iter_mut().zip(facts)).for_each(|(n, holds)| *n += holds as usize);
        }
    }
    let missing: Vec<_> = GRAMMAR.iter().filter(|k| !seen.contains(*k)).collect();
    assert!(missing.is_empty(), "never generated: {missing:?}");
    let both = gated.iter().all(|n| (1..programs).contains(n));
    assert!(
        both,
        "overlap/coalesce/masked/two_sums: {gated:?} of {programs}"
    );
    // The chunk tier works `CHUNK` = 512 iterations at a time.
    assert!(
        long >= programs,
        "{long} FORALLs of more than 512 iterations in {programs} programs"
    );
}

/// Every program of `cfg` compiles on every grid of its rank: it parses
/// once, and the code generation that depends on the grid runs per grid.
fn compiles_everywhere(name: &str) {
    let cfg = CONFIGS
        .iter()
        .find(|c| c.name == name)
        .expect("a configuration");
    for seed in 0..SEEDS {
        let p = generate(cfg, seed);
        assert!(p.exact(), "{name} program {seed} leaves the budget");
        let src = p.source();
        let analyzed = compile_front(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
        for grid in cfg.grids.iter().filter(|g| g.len() == p.grid.len()) {
            if let Err(e) = lower(&analyzed, &CompileOptions::on_grid(grid)) {
                panic!("{name} program {seed} on {grid:?}: {e}\n{src}");
            }
        }
    }
}

#[test]
fn regular_programs_compile() {
    compiles_everywhere("regular");
}

#[test]
fn irregular_programs_compile() {
    compiles_everywhere("irregular");
}

#[test]
fn comm_programs_compile() {
    compiles_everywhere("comm");
}

#[test]
fn cold_programs_compile() {
    compiles_everywhere("cold");
}

/// What the budget is for: in the arrays the reference interpreter
/// leaves, every REAL sum is the same in any order, and finite.
#[test]
fn reals_sum_exactly_in_any_order() {
    for cfg in &CONFIGS {
        for seed in 0..8 {
            let p = generate(cfg, seed);
            let src = p.source();
            let compiled = compile(&src, &CompileOptions::on_grid(&p.grid)).expect("compiles");
            let state = run_reference(&compiled.analyzed, &Default::default()).expect("runs");
            for a in p.arrays.iter().filter(|a| **a != "Z") {
                let ArrayData::Real(v) = &state.arrays[*a].data else {
                    continue;
                };
                let forward = v.iter().fold(0.0, |s, x| s + x);
                let backward = v.iter().rev().fold(0.0, |s, x| s + x);
                let halves = v.chunks(3).map(|c| c.iter().sum::<f64>()).sum::<f64>();
                assert!(forward.is_finite(), "{} program {seed}: {a}", cfg.name);
                assert_eq!(
                    [backward, halves].map(f64::to_bits),
                    [forward.to_bits(); 2],
                    "{} program {seed}: the sum of {a} depends on the order\n{src}",
                    cfg.name
                );
            }
        }
    }
}

/// A planted failure, "the source holds ELSEWHERE", shrinks a program of
/// 100 statements to its header and one WHERE block.
#[test]
fn a_planted_failure_shrinks_to_one_where_block() {
    let cold = CONFIGS.iter().find(|c| c.name == "cold").expect("cold");
    let cfg = Config {
        statements: (100, 100),
        ..*cold
    };
    let p = (0..)
        .map(|seed| generate(&cfg, seed))
        .find(|p| p.source().contains("ELSEWHERE"))
        .expect("a WHERE block");
    assert!(p.source().lines().count() > 100);
    let small = shrink(&p, |q| q.source().contains("ELSEWHERE"));
    let [Stmt::Leaf(block)] = &small.body[..] else {
        panic!("not one statement:\n{}", small.source());
    };
    assert!(block.text.starts_with("WHERE") && block.text.ends_with("END WHERE"));
    assert!(block.text.contains("ELSEWHERE"));
}
