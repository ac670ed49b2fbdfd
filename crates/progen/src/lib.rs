//! One seeded generator of Fortran 90D/HPF programs for the differential
//! tests, and a shrinker for the programs it makes.
//!
//! [`generate`] draws a [`Program`] from a [`Config`]: a statement mix, a
//! size range, grids and machines. A program is a header (declarations,
//! directives, a fill of every array) and a list of [`Stmt`]s. Besides its
//! source it states the [`Facts`] the properties need, worked out from the
//! statements it holds, so they stay true of what [`shrink`] leaves.
//!
//! Every REAL value stays inside an exactness budget: a multiple of
//! `2^-frac` below `2^mag`, with `mag + frac` small enough that every sum
//! over an array is exact. No reduction depends on the order the ranks
//! combine it in, and the sequential reference interpreter's arrays and
//! PRINT lines are the only right answer on every grid, but for an array
//! a many-to-one scatter writes across ranks ([`Facts::compare`]).
//!
//! Beside the grammar, [`workloads`] holds the fixed programs the
//! evaluation runs (Gaussian elimination, Jacobi, the FFT butterfly, the
//! irregular kernel, the two stencil sweeps): one copy of each source,
//! for `f90d-bench` and for the tests of the crates below it.

mod grammar;
pub mod workloads;

pub use grammar::{generate, Config, CONFIGS};

/// SplitMix64 from a seed.
#[derive(Debug, Clone, Default)]
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let z = (self.0 ^ (self.0 >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as i64
    }

    /// True with probability `1/n`.
    fn one_in(&mut self, n: u64) -> bool {
        self.next_u64().is_multiple_of(n)
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.range(0, items.len() as i64 - 1) as usize]
    }
}

/// The offset of a shifted subscript: `+c`, `-c`, or nothing for 0.
fn offset(c: i64) -> String {
    match c {
        0 => String::new(),
        c if c > 0 => format!("+{c}"),
        c => c.to_string(),
    }
}

/// Value range `(mag, frac)` of a REAL array or scalar: every element is
/// a multiple of `2^-frac` below `2^mag` in magnitude.
type Bits = (u32, u32);

/// What an assignment does to the value ranges: its values are at most
/// `grow` bits wider than the widest slot it reads, and at least `floor`
/// bits. One that writes only some elements keeps the others, so the old
/// and new ranges join.
#[derive(Debug, Clone)]
struct Effect {
    target: usize,
    reads: Vec<usize>,
    floor: u32,
    grow: Bits,
    whole: bool,
}

impl Effect {
    /// Apply to `bits`: false if the new values leave the budget.
    fn apply(&self, bits: &mut [Bits], limit: u32) -> bool {
        let (mut mag, mut frac) = (self.floor, 0);
        for &s in &self.reads {
            (mag, frac) = (mag.max(bits[s].0), frac.max(bits[s].1));
        }
        let (mag, frac) = (mag + self.grow.0, frac + self.grow.1);
        let old = [bits[self.target], (0, 0)][self.whole as usize];
        bits[self.target] = (old.0.max(mag), old.1.max(frac));
        mag + frac <= limit
    }
}

/// One statement of a program's body: what the shrinker drops.
#[derive(Debug, Clone)]
pub enum Stmt {
    Leaf(Leaf),
    /// A `DO` loop (`trips` times), or a REDISTRIBUTE round trip (`open`
    /// and `close` its directives), around statements the shrinker may
    /// thin or drop with it.
    Block {
        open: String,
        close: String,
        trips: u32,
        kind: &'static str,
        body: Vec<Stmt>,
    },
}

/// A statement, or lines the shrinker keeps together (a WHERE block, a
/// reduction and its PRINT, a sweep's stencils and copy-backs), and what
/// the facts need to know of it.
#[derive(Debug, Clone, Default)]
pub struct Leaf {
    pub text: String,
    /// Its grammar items, `gather`, `scatter` and `sink` included.
    kinds: Vec<&'static str>,
    effects: Vec<Effect>,
    /// FORALL executions whose iteration lists the next trip of a `DO`
    /// reuses; `None` where that count is not known.
    reuse: Option<u64>,
    /// A 1-D sweep of unmasked stencils, each shifted on a BLOCK dimension
    /// over several ranks.
    overlap: bool,
    /// A sweep of two or more stencils on distinct arrays, each shifted
    /// the same way on a first BLOCK dimension over several ranks.
    coalesce: bool,
    /// It reads a shifted subscript, and is not a 1-D sweep.
    two_sums: bool,
}

/// What the properties need to know of a program besides its source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Facts {
    /// The arrays that must equal the reference interpreter's: all but
    /// one a many-to-one scatter across ranks wrote (message order wins).
    pub compare: Vec<&'static str>,
    /// It has an unstructured gather and an unstructured scatter.
    pub gather_scatter: bool,
    /// A 1-D program that ends with a sweep of shifted, unmasked BLOCK
    /// stencils, which overlap shortens. (A later exchange could hide the
    /// saving behind a rank that saved nothing, and so can the compute of
    /// a 2-D block: a receiver that is also the slowest rank does not
    /// wait.)
    pub overlap: bool,
    /// A `DO` holds two or more independent stencils whose ghost strips
    /// go to one neighbour, which `comm_plan` must coalesce into fewer
    /// wire messages.
    pub coalesce: bool,
    /// Every ghost strip is a few elements (a 1-D program), so a startup
    /// that coalescing saves outweighs the bytes it makes a receiver wait
    /// for before its first statement: `comm_plan` adds no time.
    pub narrow: bool,
    /// It holds a masked FORALL or a WHERE, whose ranks compute unequal
    /// shares: a message saved on a rank that waits for none saves no time.
    pub masked: bool,
    /// It reads a shifted subscript outside the 1-D sweeps, whose ranks
    /// wait for their strips (or, on one rank, have no boundary). Overlap
    /// may split such a statement into an interior and a boundary charged
    /// as two sums, which may round up the clock of a rank that waits for
    /// nothing.
    pub two_sums: bool,
    /// FORALL executions that reuse the iteration lists of their previous
    /// execution, when that count is known.
    pub dispatch_reused: Option<u64>,
}

/// A generated program.
#[derive(Debug, Clone)]
pub struct Program {
    /// The processor grid it is generated for.
    pub grid: Vec<i64>,
    /// Every array it declares, to gather after a run.
    pub arrays: Vec<&'static str>,
    pub body: Vec<Stmt>,
    head: String,
    head_kinds: Vec<&'static str>,
    /// The value ranges after the header, and the budget of every value.
    init: [Bits; grammar::SLOTS],
    limit: u32,
}

fn leaves<'a>(stmts: &'a [Stmt], out: &mut Vec<&'a Leaf>) {
    for s in stmts {
        match s {
            Stmt::Leaf(l) => out.push(l),
            Stmt::Block { body, .. } => leaves(body, out),
        }
    }
}

/// Run the statements' effects over `bits`: false if a value leaves the
/// budget.
fn walk(stmts: &[Stmt], bits: &mut [Bits], limit: u32) -> bool {
    stmts.iter().all(|s| match s {
        Stmt::Leaf(l) => l.effects.iter().all(|e| e.apply(bits, limit)),
        Stmt::Block { trips, body, .. } => (0..*trips).all(|_| walk(body, bits, limit)),
    })
}

impl Program {
    pub fn source(&self) -> String {
        fn render(stmts: &[Stmt]) -> String {
            let line = |s: &Stmt| match s {
                Stmt::Leaf(l) => format!("{}\n", l.text),
                Stmt::Block {
                    open, close, body, ..
                } => format!("{open}\n{}{close}\n", render(body)),
            };
            stmts.iter().map(line).collect()
        }
        format!("{}{}END\n", self.head, render(&self.body))
    }

    /// Every grammar item the program holds, once per occurrence.
    pub fn kinds(&self) -> Vec<&'static str> {
        fn items(stmts: &[Stmt]) -> Vec<&'static str> {
            let of = |s: &Stmt| match s {
                Stmt::Leaf(l) => l.kinds.clone(),
                Stmt::Block { kind, body, .. } => [&[*kind][..], &items(body)].concat(),
            };
            stmts.iter().flat_map(of).collect()
        }
        [&self.head_kinds[..], &items(&self.body)].concat()
    }

    /// Every REAL value stays inside the budget.
    pub fn exact(&self) -> bool {
        walk(&self.body, &mut self.init.clone(), self.limit)
    }

    pub fn facts(&self) -> Facts {
        let mut all = Vec::new();
        leaves(&self.body, &mut all);
        let has = |kind| all.iter().any(|l| l.kinds.contains(&kind));
        let sink = has("sink");
        // A sweep that ends the program: nothing after it communicates.
        let last = match self.body.last() {
            Some(Stmt::Block { body, .. }) => body.last(),
            _ => None,
        };
        let mut dispatch_reused = Some(0);
        for s in &self.body {
            let Stmt::Block {
                open, trips, body, ..
            } = s
            else {
                continue;
            };
            // A REDISTRIBUTE drops every kept iteration list.
            if open.starts_with("DO") && !body.iter().any(|s| matches!(s, Stmt::Block { .. })) {
                let mut inner = Vec::new();
                leaves(body, &mut inner);
                let per_trip: Option<u64> = inner.iter().map(|l| l.reuse).sum();
                let reused = dispatch_reused.zip(per_trip);
                dispatch_reused = reused.map(|(n, k)| n + (*trips as u64 - 1) * k);
            }
        }
        Facts {
            compare: self
                .arrays
                .iter()
                .copied()
                .filter(|a| !sink || *a != "Z")
                .collect(),
            gather_scatter: has("gather") && has("scatter"),
            overlap: matches!(last, Some(Stmt::Leaf(l)) if l.overlap),
            coalesce: all.iter().any(|l| l.coalesce),
            narrow: !self.head_kinds.contains(&"2-D"),
            masked: has("mask") || has("where") || has("maskedforall"),
            two_sums: all.iter().any(|l| l.two_sums),
            dispatch_reused,
        }
    }

    /// This program without its `at`-th statement, counting blocks and
    /// what they hold in source order.
    fn without(&self, at: usize) -> Option<Program> {
        fn remove(stmts: &mut Vec<Stmt>, k: &mut usize) -> bool {
            for i in 0..stmts.len() {
                if *k == 0 {
                    stmts.remove(i);
                    return true;
                }
                *k -= 1;
                if let Stmt::Block { body, .. } = &mut stmts[i] {
                    if remove(body, k) {
                        return true;
                    }
                }
            }
            false
        }
        let mut p = self.clone();
        remove(&mut p.body, &mut { at }).then_some(p)
    }
}

/// The smallest program the shrinker reaches from `program` while
/// `still_fails`: it drops statements one at a time, blocks (a `DO`, a
/// REDISTRIBUTE round trip) whole before what they hold, keeping a drop
/// that stays inside the exactness budget and still fails, until no single
/// drop does.
pub fn shrink(program: &Program, still_fails: impl Fn(&Program) -> bool) -> Program {
    let mut best = program.clone();
    loop {
        let (mut at, mut dropped) = (0, false);
        while let Some(candidate) = best.without(at) {
            if candidate.exact() && still_fails(&candidate) {
                (best, dropped) = (candidate, true);
            } else {
                at += 1;
            }
        }
        if !dropped {
            return best;
        }
    }
}
