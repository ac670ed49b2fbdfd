//! The statement grammar: the configurations and the generator.

use crate::{offset, walk, Bits, Effect, Leaf, Program, Rng, Stmt};

/// The REAL arrays every program declares, in bits slots `0..6`, then the
/// REAL scalar `S`. `Z`, the sink of many-to-one scatters, is never read.
const REALS: [&str; 6] = ["A", "B", "C", "D", "E", "F"];
const S: usize = 6;
pub(crate) const SLOTS: usize = 7;
/// How much wider than the widest value it reads a statement's values can
/// be: its coefficients lie between 1/4 and 2, its sums have four terms.
const GROW: Bits = (3, 2);
const COEFS: [&str; 5] = ["0.5*", "0.25*", "2.0*", "-2.0*", ""];
const DISTS: [&str; 3] = ["BLOCK", "CYCLIC", "CYCLIC(3)"];

/// What a set of programs is drawn from.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub name: &'static str,
    /// Statement forms and their weights.
    pub mix: &'static [(&'static str, i64)],
    /// Statements per program, before the closing reductions.
    pub statements: (i64, i64),
    /// End with a reduction and a PRINT of every array.
    pub closing: bool,
    /// Ranges of `N` for 1-D and for 2-D programs (a range is drawn, then
    /// `N` in it); an empty list makes no program of that rank.
    pub n1: &'static [(i64, i64)],
    pub n2: &'static [(i64, i64)],
    pub dists: &'static [&'static str],
    /// The grids; a 2-D program on a 1-D grid keeps one dimension local.
    pub grids: &'static [&'static [i64]],
    /// The machine models the properties run it on.
    pub machines: &'static [&'static str],
}

/// The configurations the differential properties draw from.
pub const CONFIGS: [Config; 4] = [
    // FORALL shapes over every distribution and grid: shifts, strides,
    // masks, in-place and pivot-row reads, the `DO` repeat, the edges.
    Config {
        name: "regular",
        mix: &[
            ("stencil", 4),
            ("inplace", 3),
            ("repeat", 3),
            ("array", 1),
            ("where", 1),
            ("section", 1),
            ("reversed", 1),
            ("sum", 1),
            ("redistribute", 1),
            ("do", 1),
            ("manytoone", 3),
        ],
        statements: (3, 8),
        closing: true,
        n1: &[(10, 40), (10, 40), (513, 1100)],
        n2: &[(10, 22), (23, 36)],
        dists: &DISTS,
        grids: &[&[1], &[2], &[3], &[4], &[5], &[1, 1], &[2, 1], &[2, 2]],
        machines: &["ideal", "ipsc860"],
    },
    // The irregular path: gathers and scatters through permutations and
    // through many-to-one index vectors, behind INTEGER `/` and `MOD`.
    Config {
        name: "irregular",
        mix: &[
            ("irregular", 4),
            ("intfill", 3),
            ("indirect", 2),
            ("intedge", 2),
            ("do", 2),
            ("sum", 1),
            ("stencil", 1),
        ],
        statements: (3, 10),
        closing: true,
        n1: &[(8, 40), (8, 40), (513, 700)],
        n2: &[],
        dists: &DISTS,
        grids: &[&[1], &[2], &[3], &[4], &[5]],
        machines: &["ipsc860"],
    },
    // Shift stencils in sweep loops on BLOCK, what the comm optimizers act
    // on, on machines where a message costs time. A closing reduction
    // would hide what overlap saves.
    Config {
        name: "comm",
        mix: &[("multistencil", 4), ("stencil", 1), ("section", 1)],
        statements: (1, 4),
        closing: false,
        n1: &[(16, 56)],
        n2: &[(12, 28)],
        dists: &["BLOCK"],
        grids: &[&[1], &[2], &[4], &[2, 1], &[2, 2]],
        machines: &["ipsc860", "ncube2"],
    },
    // The benchmark's cold-daemon programs: long runs of aligned array
    // syntax and WHERE over small BLOCK arrays.
    Config {
        name: "cold",
        mix: &[
            ("array", 16),
            ("where", 12),
            ("stencil", 1),
            ("section", 1),
            ("indirect", 1),
            ("sum", 1),
            ("do", 1),
        ],
        statements: (24, 48),
        closing: true,
        n1: &[(8, 8)],
        n2: &[],
        dists: &["BLOCK"],
        grids: &[&[1], &[2], &[4]],
        machines: &["ideal", "ipsc860"],
    },
];

/// The program `seed` of configuration `cfg`.
pub fn generate(cfg: &Config, seed: u64) -> Program {
    let mut r = Rng(seed << 16 ^ cfg.name.bytes().map(u64::from).sum::<u64>());
    let two_d = cfg.n1.is_empty() || (!cfg.n2.is_empty() && r.one_in(2));
    let grids: Vec<_> = cfg.grids.iter().filter(|g| two_d || g.len() < 2).collect();
    let grid = r.pick(&grids).to_vec();
    let (lo, hi) = r.pick(if two_d { cfg.n2 } else { cfg.n1 });
    let (n, d) = (r.range(lo, hi), r.pick(cfg.dists));
    let dist = match (two_d, grid.len()) {
        (false, _) => vec![d],
        (true, 1) if r.one_in(2) => vec!["*", d],
        (true, 1) => vec![d, "*"],
        _ => vec![d, r.pick(cfg.dists)],
    };
    let mut g = Gen::default();
    (g.r, g.n, g.dist, g.grid) = (r, n, dist, grid.clone());
    g.limit = 52 - bit_len(if two_d { n * n } else { n });
    let (head, mut head_kinds) = g.head();
    let (init, lo, hi) = (g.bits, cfg.statements.0, cfg.statements.1);
    let statements = g.r.range(lo, hi) as usize;
    while count(&g.out) < statements {
        let mut at = g.r.range(1, cfg.mix.iter().map(|m| m.1).sum());
        let weighed = |m: &&(&str, i64)| {
            at -= m.1;
            at <= 0
        };
        g.form(cfg.mix.iter().find(weighed).expect("a form").0);
    }
    if cfg.closing {
        g.closing();
    }
    head_kinds.extend(g.dist.iter().copied().chain(two_d.then_some("2-D")));
    let extra = ["Z", "K", "IP", "IU"];
    let arrays = [&REALS[..], &extra[..4 * !two_d as usize]].concat();
    let (body, limit) = (g.out, g.limit);
    let program = Program {
        grid,
        arrays,
        body,
        head,
        head_kinds,
        init,
        limit,
    };
    debug_assert!(program.exact(), "{}", program.source());
    program
}

fn count(stmts: &[Stmt]) -> usize {
    let one = |s: &Stmt| match s {
        Stmt::Leaf(_) => 1,
        Stmt::Block { body, .. } => 1 + count(body),
    };
    stmts.iter().map(one).sum()
}

/// The bit length of `x`: a bound on the bits of its magnitude.
fn bit_len(x: i64) -> u32 {
    64 - x.leading_zeros()
}

/// The grammar items of `flags` that hold.
fn held(flags: &[(bool, &'static str)]) -> Vec<&'static str> {
    flags.iter().filter(|f| f.0).map(|f| f.1).collect()
}

/// `text` where `flag` holds, else nothing.
fn when(flag: bool, text: String) -> String {
    if flag {
        text
    } else {
        String::new()
    }
}

/// The leaf of `text`, its grammar items and its effects; callers change
/// what differs.
fn leaf(text: String, kinds: &[&'static str], effects: Vec<Effect>) -> Leaf {
    let mut leaf = Leaf::default();
    (leaf.text, leaf.kinds, leaf.effects) = (text, kinds.to_vec(), effects);
    leaf
}

/// `target` takes values at most `grow` wider than the widest of `reads`,
/// and at least `floor` bits; `whole`, in every element.
fn effect(target: usize, reads: &[usize], floor: u32, grow: Bits, whole: bool) -> Effect {
    let reads = reads.to_vec();
    Effect {
        target,
        reads,
        floor,
        grow,
        whole,
    }
}

/// [`effect`] on some elements.
fn assign(target: usize, reads: &[usize], floor: u32, grow: Bits) -> Effect {
    effect(target, reads, floor, grow, false)
}

#[derive(Default)]
struct Gen {
    r: Rng,
    n: i64,
    /// The template's distribution, and the grid it is spread over.
    dist: Vec<&'static str>,
    grid: Vec<i64>,
    bits: [Bits; SLOTS],
    limit: u32,
    /// Where statements go: the body, or the block being built.
    out: Vec<Stmt>,
    /// The grammar item of the next block.
    kind: &'static str,
}

impl Gen {
    fn two_d(&self) -> bool {
        self.dist.len() == 2
    }

    /// Ranks along dimension `d`: distributed ones take the grid's axes
    /// in order.
    fn spread(&self, d: usize) -> i64 {
        let axis = self.dist[..d].iter().filter(|x| **x != "*").count();
        match self.dist[d] {
            "*" => 1,
            _ => self.grid[axis],
        }
    }

    /// `X(I)` or `X(I,J)`, shifted by `c` along dimension `dim`.
    fn at(&self, x: usize, dim: usize, c: i64) -> String {
        let (i, j) = [(c, 0), (0, c)][dim];
        let j = when(self.two_d(), format!(",J{}", offset(j)));
        format!("{}(I{}{j})", REALS[x], offset(i))
    }

    /// The index ranges of a FORALL over `lo:hi`, stride `st` on the
    /// innermost index, and its grammar items.
    fn space(&self, lo: i64, hi: i64, st: i64) -> (String, Vec<&'static str>) {
        let (stride, inner) = (when(st > 1, format!(":{st}")), (hi - lo) / st + 1);
        let (text, iters) = match self.two_d() {
            false => (format!("I={lo}:{hi}{stride}"), inner),
            true => (
                format!("I={lo}:{hi}, J={lo}:{hi}{stride}"),
                (hi - lo + 1) * inner,
            ),
        };
        (text, held(&[(iters > 512, "long"), (st > 1, "stride")]))
    }

    fn stride(&mut self) -> i64 {
        self.r.pick(&[1, 1, 2, 3])
    }

    /// `K` distinct REAL arrays.
    fn arrays<const K: usize>(&mut self) -> [usize; K] {
        let mut pool: Vec<usize> = (0..REALS.len()).collect();
        std::array::from_fn(|_| pool.remove(self.r.range(0, pool.len() as i64 - 1) as usize))
    }

    /// Append `leaf`, refilling what it reads first while its values would
    /// leave the budget.
    fn emit(&mut self, leaf: Leaf) {
        loop {
            let mut bits = self.bits;
            let Some(e) = (leaf.effects.iter()).find(|e| !e.apply(&mut bits, self.limit)) else {
                self.bits = bits;
                break;
            };
            let width = |s: &&usize| self.bits[**s].0 + self.bits[**s].1;
            let widest = *e
                .reads
                .iter()
                .max_by_key(width)
                .expect("what overflows reads");
            self.refill(widest);
        }
        self.out.push(Stmt::Leaf(leaf));
    }

    /// Reset slot `s` to small values.
    fn refill(&mut self, s: usize) {
        if s < REALS.len() {
            return self.fill(s);
        }
        let zero = effect(S, &[], 0, (0, 0), true);
        self.emit(leaf("S = 0.0".into(), &[], vec![zero]));
    }

    /// A block (of kind `self.kind`) around what `body` emits, run `trips`
    /// times. Where the trips would leave the budget, the block starts
    /// with a refill of every slot, so that each trip starts from small
    /// values.
    fn block(&mut self, open: String, close: &str, trips: u32, body: impl FnOnce(&mut Gen)) {
        let (kind, entry, outer) = (self.kind, self.bits, std::mem::take(&mut self.out));
        body(self);
        let mut body = std::mem::replace(&mut self.out, outer);
        let fits = |g: &mut Gen, body: &[Stmt]| {
            g.bits = entry;
            (0..trips).all(|_| walk(body, &mut g.bits, g.limit))
        };
        if !fits(self, &body) {
            let outer = std::mem::take(&mut self.out);
            (0..SLOTS).for_each(|s| self.refill(s));
            body.splice(0..0, std::mem::replace(&mut self.out, outer));
            assert!(fits(self, &body), "a block from small values fits");
        }
        let close = close.to_string();
        self.out.push(Stmt::Block {
            open,
            close,
            trips,
            kind,
            body,
        });
    }

    /// A `DO IT` of `trips` around what `body` emits.
    fn do_loop(&mut self, trips: u32, body: impl FnOnce(&mut Gen)) {
        self.block(format!("DO IT = 1, {trips}"), "END DO", trips, body)
    }

    /// The header's source, and the grammar items of its fills.
    fn head(&mut self) -> (String, Vec<&'static str>) {
        let (shape, sub) = [("(N)", "(I)"), ("(N,N)", "(I,J)")][self.two_d() as usize];
        let decls: Vec<String> = REALS.iter().map(|a| format!("{a}{shape}")).collect();
        let (n, decls) = (self.n, decls.join(", "));
        let mut src = format!("PROGRAM GEN\nINTEGER, PARAMETER :: N = {n}\nREAL {decls}, S, MX\n");
        src += "INTEGER IT, M, KE, KD, KS\n";
        src += ["REAL Z(N)\nINTEGER K(N), IP(N), IU(N)\n", ""][self.two_d() as usize];
        // The index vectors are replicated or distributed.
        let one_d = ["Z", "K", "IP", "IU"][..self.r.pick(&[2, 4])].to_vec();
        let aligned = [&REALS[..], if self.two_d() { &[] } else { &one_d[..] }].concat();
        src += &format!("C$ TEMPLATE T{shape}\n");
        for a in aligned {
            src += &format!("C$ ALIGN {a}{sub} WITH T{sub}\n");
        }
        let (kd, m) = (self.r.pick(&[-3, 4, 5]), self.r.pick(&[-1, 3, -2]));
        let (dist, ke) = (self.dist.join(", "), self.r.range(60, 66));
        src += &format!("C$ DISTRIBUTE T({dist})\nKD = {kd}\nM = {m}\nKE = {ke}\n");
        (0..REALS.len()).for_each(|x| self.fill(x));
        if !self.two_d() {
            let (c, u) = (self.r.range(0, 9), self.r.range(1, 8));
            src += &format!("FORALL (I=1:N) K(I) = I - {c}\n");
            src += &format!("FORALL (I=1:N) IU(I) = MOD(I*{u} + {c}, N) + 1\n");
            self.permutation();
        }
        let mut kinds = Vec::new();
        for s in std::mem::take(&mut self.out) {
            if let Stmt::Leaf(l) = s {
                src += &format!("{}\n", l.text);
                kinds.extend(l.kinds);
            }
        }
        (src, kinds)
    }

    /// `IP` becomes a permutation of `1..N`.
    fn permutation(&mut self) {
        let (pick, c) = (self.r.range(0, 3) as usize, self.r.range(0, 9));
        let coprime = |k: &i64| (2..=*k).all(|d| k % d != 0 || self.n % d != 0);
        let coprime: Vec<i64> = (2..self.n).filter(coprime).take(4).collect();
        let k = coprime.get(pick).copied().unwrap_or(1);
        let text = format!("FORALL (I=1:N) IP(I) = MOD(I*{k} + {c}, N) + 1");
        self.emit(leaf(text, &[], vec![]));
    }

    /// Every element of `x` becomes a small integer.
    fn fill(&mut self, x: usize) {
        let (k, c) = (self.r.range(1, 7), self.r.range(0, 9));
        let m = self.r.pick(&[8, 16, 32]);
        let j = when(self.two_d(), format!(" + J*{}", self.r.range(1, 5)));
        let ((space, kinds), at) = (self.space(1, self.n, 1), self.at(x, 0, 0));
        let text = format!("FORALL ({space}) {at} = REAL(MOD(I*{k}{j} + {c}, {m}))");
        let effects = vec![effect(x, &[], 5, (0, 0), true)];
        self.emit(leaf(text, &kinds, effects));
    }

    /// The closing reductions and PRINTs.
    fn closing(&mut self) {
        for (x, a) in REALS.iter().enumerate() {
            let text = format!("S = SUM({a})\nPRINT *, 'SUM{a}', S");
            self.emit(leaf(text, &["sum"], vec![self.sum(x)]));
        }
        let text = "MX = MAXVAL(B)\nPRINT *, 'MAXB', MX".to_string();
        self.emit(leaf(text, &["maxval"], vec![]));
        if !self.two_d() {
            let text = "KS = SUM(K)\nPRINT *, 'KS', KS, M, K(1), K(N), IU(N)".to_string();
            self.emit(leaf(text, &[], vec![]));
        }
    }

    /// `S` becomes the sum of array `x`.
    fn sum(&self, x: usize) -> Effect {
        let elems = if self.two_d() {
            self.n * self.n
        } else {
            self.n
        };
        effect(S, &[x], 0, (bit_len(elems), 0), true)
    }

    fn form(&mut self, form: &'static str) {
        let [x, y, z, w] = self.arrays();
        let (trips, two_d) = (self.r.range(1, 3) as u32, self.two_d());
        self.kind = form;
        match form {
            "indirect" | "irregular" | "intfill" | "intedge" if two_d => self.stencil(x, y, z),
            "stencil" => self.stencil(x, y, z),
            "inplace" => self.in_place(x, y, z),
            "repeat" => self.do_loop(trips.min(2), |g| {
                g.stencil(x, y, z);
                g.in_place(z, x, y);
            }),
            "array" => self.array_syntax(x, y, z, w),
            "where" => self.where_(x, y, z, trips - 1),
            "section" => self.section(x, y),
            "reversed" => self.reversed(x, y),
            "sum" => self.sum_form(x, y),
            "indirect" => self.indirect(x, y),
            "irregular" => self.irregular(x, y, z),
            "intfill" => self.int_fill(x, y),
            "intedge" => self.int_edge(),
            "redistribute" => self.redistribute(x, |g| {
                g.moved(x);
                for _ in 0..g.r.range(0, 2) {
                    if g.r.one_in(2) {
                        g.stencil(y, z, w)
                    } else {
                        g.section(z, w)
                    }
                }
            }),
            "do" => self.do_loop(trips, |g| g.do_body(x, y, z, w)),
            "multistencil" => self.multi_stencil(),
            "manytoone" => self.many_to_one(x, y),
            _ => unreachable!("{form} is not a statement form"),
        }
    }

    /// `X = c*Y(I+s1) + Z(J+s2) - Y [+ Y(lo)]` over a strided, maybe
    /// masked interior (the tier battery's first statement).
    fn stencil(&mut self, x: usize, y: usize, z: usize) {
        let (s1, s2) = (self.r.range(-3, 3), self.r.range(-3, 3));
        let (st, c, d2) = (self.stride(), self.r.pick(&COEFS), self.two_d() as usize);
        let (masked, inv) = (self.r.one_in(4), self.r.one_in(4));
        let pad = s1.abs().max(s2.abs());
        let (space, mut kinds) = self.space(1 + pad, self.n - pad, st);
        let sites = [(x, 0, 0), (y, 0, 0), (y, 0, s1), (z, d2, s2)];
        let [ax, ay, ay1, az2] = sites.map(|(a, d, c)| self.at(a, d, c));
        let (mask, lo) = (when(masked, format!(", {ay} > 0.0")), ["", "I,"][d2]);
        let inv_read = when(inv, format!(" + {}({lo}{})", REALS[y], 1 + pad));
        let text = format!("FORALL ({space}{mask}) {ax} = {c}{ay1} + {az2} - {ay}{inv_read}");
        kinds.extend(held(&[(pad == 3, "shift3"), (masked, "mask")]));
        kinds.extend(held(&[(inv, "invariant"), (true, "stencil")]));
        let mut stencil = leaf(text, &kinds, vec![assign(x, &[y, z], 0, GROW)]);
        stencil.two_sums = pad > 0;
        self.emit(stencil);
    }

    /// `T = W + OWN(J+s) [- 0.5*T(row)]`, where `OWN` is `T` itself (in
    /// place) or `O`, and `row` lies below the rows written (the tier
    /// battery's second statement).
    fn in_place(&mut self, t: usize, w: usize, o: usize) {
        let (s, st, d2) = (self.r.range(-3, 3), self.stride(), self.two_d() as usize);
        let (own, pivot) = (self.r.pick(&[o, t]), self.r.one_in(3));
        let pad = s.abs().max(1);
        let (space, mut kinds) = self.space(1 + pad, self.n - pad, st);
        let j = ["", ",J"][d2];
        let row = when(pivot, format!(" - 0.5*{}({pad}{j})", REALS[t]));
        let sites = [(t, 0, 0), (w, 0, 0), (own, d2, s)];
        let [at, aw, aown] = sites.map(|(a, d, c)| self.at(a, d, c));
        let text = format!("FORALL ({space}) {at} = {aw} + {aown}{row}");
        kinds.extend(held(&[(own == t, "inplace"), (pivot, "pivot")]));
        kinds.extend(held(&[(pad == 3, "shift3")]));
        let mut statement = leaf(text, &kinds, vec![assign(t, &[t, w, own], 0, GROW)]);
        statement.two_sums = s != 0;
        self.emit(statement);
    }

    /// `X = a*Y + b*Z - W + c` in array syntax.
    fn array_syntax(&mut self, x: usize, y: usize, z: usize, w: usize) {
        let (ca, cb, c) = (self.r.pick(&COEFS), self.r.pick(&COEFS), self.r.range(1, 9));
        let [ax, ay, az, aw] = [x, y, z, w].map(|i| REALS[i]);
        let text = format!("{ax} = {ca}{ay} + {cb}{az} - {aw} + {c}.0");
        let kinds = [&self.space(1, self.n, 1).1[..], &["array"]].concat();
        let effect = assign(x, &[y, z, w], 4, GROW);
        self.emit(leaf(text, &kinds, vec![effect]));
    }

    /// A WHERE statement, a WHERE / ELSEWHERE block, or a masked FORALL.
    fn where_(&mut self, x: usize, y: usize, z: usize, variant: u32) {
        let [ax, ay, az] = [x, y, z].map(|a| REALS[a]);
        let [sx, sy, sz] = [x, y, z].map(|a| self.at(a, 0, 0));
        let (c, cz) = (self.r.range(0, 12), self.r.pick(&COEFS));
        let (space, mut kinds) = self.space(1, self.n, 1);
        let text = match variant {
            0 => format!("WHERE ({ay} > {c}.0) {ax} = {cz}{az} + {ay}"),
            1 => format!(
                "WHERE ({ay} > {c}.0)\n  {ax} = {cz}{az} + {ay}\nELSEWHERE\n  \
                 {ax} = {ay} - {cz}{az}\nEND WHERE"
            ),
            _ => format!("FORALL ({space}, {sy} > {c}.0) {sx} = {cz}{sz} + {sy}"),
        };
        kinds.push("maskedforall");
        let kinds = [vec!["where"], vec!["where", "elsewhere"], kinds][variant as usize].clone();
        let effect = assign(x, &[y, z], 0, GROW);
        self.emit(leaf(text, &kinds, vec![effect]));
    }

    /// `X(1+s:N) = Y(1:N-s)`, along either dimension of a 2-D array.
    fn section(&mut self, x: usize, y: usize) {
        let s = self.r.range(1, 3);
        let dim = (self.two_d() && self.r.one_in(2)) as usize;
        let (to, from) = (format!("{}:N", 1 + s), format!("1:N-{s}"));
        let (to, from) = match (self.two_d(), dim) {
            (false, _) => (to, from),
            (true, 0) => (to + ",:", from + ",:"),
            _ => (format!(":,{to}"), format!(":,{from}")),
        };
        let text = format!("{}({to}) = {}({from})", REALS[x], REALS[y]);
        let mut statement = leaf(text, &["section"], vec![assign(x, &[y], 0, (0, 0))]);
        statement.two_sums = true;
        self.emit(statement);
    }

    /// A strided FORALL whose upper bound is off the stride, writing
    /// through a reversed subscript.
    fn reversed(&mut self, x: usize, y: usize) {
        let (lo, st, ax, ay) = (self.r.range(1, 3), self.r.range(2, 4), REALS[x], REALS[y]);
        let text = match self.two_d() {
            false => format!("FORALL (I={lo}:N:{st}) {ax}(N+1-I) = {ay}(I) + REAL(I)"),
            true => format!("FORALL (I=1:N, J={lo}:N:{st}) {ax}(I,N+1-J) = {ay}(I,J) + REAL(J)"),
        };
        let kinds = held(&[(true, "reversed"), ((self.n - lo) % st != 0, "offstride")]);
        let effect = assign(x, &[y], bit_len(self.n), (1, 0));
        self.emit(leaf(text, &kinds, vec![effect]));
    }

    /// `S = SUM(Y)`, then a FORALL that reads it.
    fn sum_form(&mut self, x: usize, y: usize) {
        let text = format!("S = SUM({})", REALS[y]);
        self.emit(leaf(text, &["sum"], vec![self.sum(y)]));
        let (space, at) = (self.space(1, self.n, 1).0, self.at(x, 0, 0));
        let text = format!("FORALL ({space}) {at} = {at} + S");
        let effect = assign(x, &[x, S], 0, (1, 0));
        self.emit(leaf(text, &[], vec![effect]));
    }

    /// A gather or a scatter through `IP` (a permutation) or `IU`.
    fn indirect(&mut self, x: usize, y: usize) {
        if self.r.one_in(3) {
            self.permutation();
        }
        let (ax, ay, variant) = (REALS[x], REALS[y], self.r.range(0, 2));
        let text = match variant {
            0 => format!("{ax}(I) = {ay}(IP(I))"),
            1 => format!("{ax}(I) = {ay}(IU(I))"),
            _ => format!("{ax}(IP(I)) = {ay}(I)"),
        };
        let kind = ["gather", "scatter"][variant as usize / 2];
        let text = format!("FORALL (I=1:N) {text} + REAL(I)");
        let effect = assign(x, &[y], bit_len(self.n), (1, 0));
        self.emit(leaf(text, &["indirect", kind], vec![effect]));
    }

    /// The paper's §4 example 3, `A(U(I)) = B(V(I)) + C(I)`, maybe
    /// masked; a scatter through `IU` writes the sink.
    fn irregular(&mut self, x: usize, y: usize, w: usize) {
        let (masked, sink) = (self.r.one_in(3), self.r.one_in(3));
        let [ax, ay, aw] = [x, y, w].map(|a| REALS[a]);
        let mask = when(masked, ", K(I) > -2".into());
        let text = match sink {
            true => format!("FORALL (I=1:N{mask}) Z(IU(I)) = {ay}(IP(I)) + {aw}(I)"),
            false => format!("FORALL (I=1:N{mask}) {ax}(IP(I)) = {ay}(IU(I)) + {aw}(I)"),
        };
        let effects = vec![assign(x, &[y, w], 0, (1, 0)); !sink as usize];
        let mut kinds = held(&[(masked, "mask"), (sink, "sink")]);
        kinds.extend(["irregular", "gather", "scatter"]);
        self.emit(leaf(text, &kinds, effects));
    }

    /// An INTEGER fill: `MOD` and `/` by a constant (negative, `-1`) or a
    /// scalar, or by a column; an index vector; a REAL read of `K`.
    fn int_fill(&mut self, x: usize, y: usize) {
        let (u, c, variant) = (self.r.range(1, 8), self.r.range(0, 8), self.r.range(0, 5));
        let div = self
            .r
            .pick(&["(-5)", "(-2)", "(-1)", "KD", "(2)", "(3)", "(7)"]);
        let [ax, ay] = [x, y].map(|a| REALS[a]);
        let text = match variant {
            0 => format!("K(I) = MOD(I*3 - N, {div}) + (I - 7)/{div} - MOD(-I, 5)"),
            1 => format!("IU(I) = MOD(I*{u} + {c}, N) + 1"),
            2 => format!("IU(I) = MOD(I*{u} + MOD(K(I), N) + N, N) + 1"),
            3 => "K(I) = (K(I) - 7*I)/IP(I) + MOD(K(I), IP(I))".into(),
            4 => format!("{ax}(I) = {ay}(I) + REAL(MOD(K(I), 16))"),
            _ => return self.permutation(),
        };
        let kind = match (variant, div) {
            (0, "(-1)") => "div-1",
            (0, "KD") => "div-scalar",
            (0, "(-5)" | "(-2)") => "div-negative",
            (3, _) => "div-column",
            _ => "intfill",
        };
        let effects = vec![assign(x, &[y], 4, (1, 0)); (variant == 4) as usize];
        let text = format!("FORALL (I=1:N) {text}");
        self.emit(leaf(text, &["intfill", kind], effects));
    }

    /// INTEGER `+ - *`, `/`, `MOD`, `**` and `ABS` past the ends of `i64`.
    fn int_edge(&mut self) {
        let (c, variant) = (self.r.range(1, 9), self.r.range(0, 3) as usize);
        let text = match variant {
            0 => format!("M = M*3**39 + 2**62 + {c}\nPRINT *, 'M', M"),
            1 => format!("K(I) = ABS(K(I) - 9223372036854775807 - {c}) + K(I)*2**62"),
            2 => "K(I) = (-9223372036854775807 - MOD(I, 2))/(-1) + MOD(K(I), -1)".into(),
            _ => "K(I) = M**I * 2**MOD(I, 60) + (-1)**(I + KE) + 2**KE".into(),
        };
        let forall = ["", "FORALL (I=1:N) "][(variant > 0) as usize];
        let kind = ["wrap", "wrap", "div-edge", "pow"][variant];
        let text = format!("{forall}{text}");
        self.emit(leaf(text, &["intedge", kind], vec![]));
    }

    /// A statement on `x` alone and unshifted: what may read an array a
    /// REDISTRIBUTE holds off the layout its statements were compiled for.
    fn moved(&mut self, x: usize) {
        let ((space, kinds), at) = (self.space(1, self.n, 1), self.at(x, 0, 0));
        let text = format!("FORALL ({space}) {at} = {at}*2.0 + REAL(I)");
        let effect = assign(x, &[x], bit_len(self.n), (2, 0));
        self.emit(leaf(text, &kinds, vec![effect]));
    }

    /// `C$ REDISTRIBUTE X(...)` to another layout, what `body` emits, and
    /// back: in a loop, a round trip each trip. Statements in between read
    /// `X` only through [`Gen::moved`]; the others were compiled for its
    /// declared layout.
    fn redistribute(&mut self, x: usize, body: impl FnOnce(&mut Gen)) {
        let mut other = Vec::new();
        for d in self.dist.clone() {
            let moved: Vec<&str> = DISTS.iter().copied().filter(|m| *m != d).collect();
            other.push(if d == "*" { d } else { self.r.pick(&moved) });
        }
        let to = |dist: &[&str]| format!("C$ REDISTRIBUTE {}({})", REALS[x], dist.join(", "));
        self.block(to(&other), &to(&self.dist), 1, body);
    }

    /// A sweep that reads its variable around a smoothing stencil, and
    /// more: an irregular FORALL, a masked FORALL, array syntax, a
    /// REDISTRIBUTE round trip.
    fn do_body(&mut self, x: usize, y: usize, z: usize, w: usize) {
        let j = when(self.two_d(), ", J=1:N".into());
        let sites = [(x, 0), (y, 0), (y, -1), (y, 1)];
        let [ax, ay, lo, hi] = sites.map(|(a, c)| self.at(a, 0, c));
        let text = format!("FORALL (I=2:N-1{j}) {ax} = 0.5*({lo} + {hi})");
        let mut smooth = leaf(text, &[], vec![assign(x, &[y], 0, GROW)]);
        smooth.two_sums = true;
        self.emit(smooth);
        let text = format!("FORALL (I=2:N-1{j}) {ay} = {ax} + REAL(IT)");
        let effect = assign(y, &[x], 2, (1, 0));
        self.emit(leaf(text, &["dovar"], vec![effect]));
        for _ in 0..self.r.range(0, 2) {
            match self.r.range(0, 3) {
                0 if !self.two_d() => self.irregular(z, x, w),
                1 => self.where_(z, w, x, 2),
                2 => {
                    self.kind = "redistinloop";
                    self.redistribute(w, |g| (0..g.r.range(0, 1)).for_each(|_| g.moved(w)))
                }
                _ => self.array_syntax(z, w, x, y),
            }
        }
    }

    /// `DO IT` around a sweep: `k` independent two-shift stencils
    /// `Aj = f(Bj)`, whose first shifts go one way, then their copy-backs,
    /// which keep every `Bj` loop-varying.
    fn multi_stencil(&mut self) {
        let (k, trips) = (self.r.range(1, 3) as usize, self.r.range(1, 3) as u32);
        let (pairs, sign): ([usize; 6], i64) = (self.arrays(), self.r.pick(&[-1, 1]));
        let shifts: Vec<[i64; 2]> = (0..k)
            .map(|_| [sign * self.r.range(1, 3), self.r.range(-3, 3)])
            .collect();
        let pad = shifts.iter().flatten().fold(1, |p, s| p.max(s.abs()));
        // Ghost strips on the first dimension travel between ranks.
        let wire = self.dist[0] == "BLOCK" && self.spread(0) > 1;
        self.kind = ["do", "multistencil"][(k > 1) as usize];
        self.do_loop(trips, |g| {
            let (space, mut kinds) = g.space(1 + pad, g.n - pad, 1);
            kinds.extend((pad == 3).then_some("shift3"));
            let (d2, mut lines, mut effects) = (g.two_d() as usize, Vec::new(), Vec::new());
            for (pair, &[s1, s2]) in pairs.chunks(2).zip(&shifts) {
                let (a, b, c1, c2) = (pair[0], pair[1], g.r.pick(&COEFS), g.r.pick(&COEFS));
                let own = when(g.r.one_in(2), format!(" - {}", g.at(b, 0, 0)));
                let sites = [(a, 0, 0), (b, 0, s1), (b, d2, s2)];
                let [aa, b1, b2] = sites.map(|(x, d, c)| g.at(x, d, c));
                lines.push(format!("FORALL ({space}) {aa} = {c1}{b1} + {c2}{b2}{own}"));
                effects.push(assign(a, &[b], 0, GROW));
            }
            for pair in pairs.chunks(2).take(k) {
                let (a, b) = (g.at(pair[0], 0, 0), g.at(pair[1], 0, 0));
                lines.push(format!("FORALL ({space}) {b} = {a}"));
                effects.push(assign(pair[1], &[pair[0]], 0, (0, 0)));
            }
            let mut sweep = leaf(lines.join("\n"), &kinds, effects);
            sweep.two_sums = d2 == 1;
            (sweep.overlap, sweep.coalesce) = (wire && d2 == 0, wire && k > 1);
            g.emit(sweep);
        });
    }

    /// A FORALL that writes each element once per value of its inner or
    /// its outer index (in 1-D up to `M` values, or spanning past
    /// `i64::MAX`): the last iteration's value stays.
    fn many_to_one(&mut self, x: usize, y: usize) {
        let ((ax, ay), m) = ((REALS[x], REALS[y]), self.r.range(2, 8));
        let text = match (self.two_d(), self.r.range(0, 2)) {
            (false, 0) => format!("FORALL (J=1:{m}, I=1:N) {ax}(I) = {ax}(I) + {ay}(J)"),
            (false, 1) => format!("FORALL (I=1:N, J=1:{m}) {ax}(I) = {ax}(I) + {ay}(J)"),
            (false, _) => format!("FORALL (J=-2**62:2**62:2**62, I=1:N) {ax}(I) = {ax}(I) + 1.0"),
            (true, 0) => format!("FORALL (I=1:N, J=1:N) {ax}(1,J) = {ax}(1,J) + {ay}(I,J)"),
            (true, _) => format!("FORALL (I=1:N, J=1:N) {ax}(I,1) = {ax}(I,1) + {ay}(I,J)"),
        };
        let kinds = held(&[(true, "manytoone"), (self.two_d() && self.n > 22, "long")]);
        let effect = assign(x, &[x, y], 0, (1, 0));
        self.emit(leaf(text, &kinds, vec![effect]));
    }
}
