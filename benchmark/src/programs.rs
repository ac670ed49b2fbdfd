//! The benchmark's input programs. The program under test sees only the
//! source text produced here: four templates under `benchmark/programs/`
//! instantiated with seeded parameters, and a seeded generator of
//! never-seen programs for the cold daemon workload.

use std::fmt::Write as _;

/// SplitMix64: a small, well-mixed generator, so that every input is a
/// pure function of `--seed` and the op number.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one op of one stream: op `i` of a run never
    /// depends on how many ops ran before it.
    pub fn for_op(seed: u64, stream: u64, op: u64) -> Self {
        let mut r = Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let a = r.next_u64();
        Rng(a ^ op.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo + 1) as u64) as i64
    }

    /// An odd number in `3..n` (a unit modulo a power of two; never 1,
    /// which the compiler folds away, changing the program's shape).
    pub fn odd_below(&mut self, n: u64) -> u64 {
        self.below(n / 2 - 1) * 2 + 3
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// One generated job: the source text the program under test sees, and
/// what the benchmark itself knows about it.
#[derive(Debug, Clone)]
pub struct Program {
    pub source: String,
    /// Array elements assigned by one run, worked out from the
    /// program's extents (`vm.ns_per_elem_update` divides by it).
    pub elem_updates: u64,
    /// Extent and (1-based) values of the index vector of the program's
    /// gather, if it has one: what the inspector probe builds a
    /// schedule for.
    pub gather: Option<Vec<i64>>,
}

/// Fill `@KEY@` placeholders and drop the template's `!` header lines
/// (they document the template, not the job).
fn instantiate(template: &str, params: &[(&str, String)]) -> String {
    let mut out = String::with_capacity(template.len());
    for line in template.lines().filter(|l| !l.starts_with('!')) {
        out.push_str(line);
        out.push('\n');
    }
    for (key, value) in params {
        out = out.replace(&format!("@{key}@"), value);
    }
    assert!(!out.contains('@'), "unfilled placeholder in:\n{out}");
    out
}

/// `MOD(I*a + b, n) + 1` for `I = 1..=n`, as the templates compute it.
fn affine_pattern(n: i64, a: i64, b: i64) -> Vec<i64> {
    (1..=n).map(|i| (i * a + b) % n + 1).collect()
}

/// Gaussian elimination of order `n`; the seed perturbs matrix values
/// only, never the communication pattern. (Seeded constants are never 0
/// or 1: the compiler folds those, and a seed must not change the shape
/// of a fixed-source program.)
pub fn gauss(n: i64, seed: u64) -> Program {
    let mut r = Rng::for_op(seed, 1, 0);
    let source = instantiate(
        include_str!("../programs/gauss.f90d"),
        &[
            ("N", n.to_string()),
            ("S", r.range(1, 15).to_string()),
            ("D", format!("{}.0", r.range(2, 5))),
        ],
    );
    let n = n as u64;
    // Two initialisations, then an (N-k)^2 update for k = 1..N-1.
    let elim = (n - 1) * n * (2 * n - 1) / 6;
    Program {
        source,
        elem_updates: n * n + n + elim,
        gather: None,
    }
}

/// Two-field Jacobi, `n` by `n`, `iters` sweeps.
pub fn stencil2(n: i64, iters: i64, seed: u64) -> Program {
    let mut r = Rng::for_op(seed, 2, 0);
    let source = instantiate(
        include_str!("../programs/stencil2.f90d"),
        &[
            ("N", n.to_string()),
            ("ITERS", iters.to_string()),
            ("A", r.range(2, 31).to_string()),
            ("B", r.range(2, 31).to_string()),
            ("C", r.range(2, 31).to_string()),
        ],
    );
    let (n, iters) = (n as u64, iters as u64);
    Program {
        source,
        elem_updates: 4 * n * n + iters * 4 * (n - 2) * (n - 2),
        gather: None,
    }
}

/// The irregular kernel over `n` elements (`n` a power of two) with the
/// (U,V) pattern of op number `op`: a fresh pattern for every op.
pub fn irregular(n: i64, seed: u64, op: u64) -> Program {
    assert!(n > 0 && n & (n - 1) == 0, "n must be a power of two");
    let mut r = Rng::for_op(seed, 3, op);
    let (ua, ub) = (r.odd_below(n as u64) as i64, r.below(n as u64) as i64);
    let (va, vb) = (r.odd_below(n as u64) as i64, r.below(n as u64) as i64);
    let source = instantiate(
        include_str!("../programs/irregular.f90d"),
        &[
            ("N", n.to_string()),
            ("UA", ua.to_string()),
            ("UB", ub.to_string()),
            ("VA", va.to_string()),
            ("VB", vb.to_string()),
        ],
    );
    Program {
        source,
        // B, C, U, V, four sweeps of A, then W.
        elem_updates: 9 * n as u64,
        gather: Some(affine_pattern(n, va, vb)),
    }
}

/// The warm daemon job (one fixed source per seed).
pub fn composite(n: i64, m: i64, steps: i64, seed: u64) -> Program {
    assert!(n > 0 && n & (n - 1) == 0, "n must be a power of two");
    assert!(steps < m);
    let mut r = Rng::for_op(seed, 4, 0);
    let (pa, pb) = (r.odd_below(n as u64) as i64, r.below(n as u64) as i64);
    let source = instantiate(
        include_str!("../programs/composite.f90d"),
        &[
            ("N", n.to_string()),
            ("M", m.to_string()),
            ("STEPS", steps.to_string()),
            ("A", r.range(2, 15).to_string()),
            ("B", r.range(2, 15).to_string()),
            ("PA", pa.to_string()),
            ("PB", pb.to_string()),
        ],
    );
    let (nu, mu) = (n as u64, m as u64);
    let elim: u64 = (1..=steps as u64).map(|k| (mu - k) * (mu - k)).sum();
    Program {
        source,
        elem_updates: 5 * nu + 4 * 4 * (nu - 2) + nu + mu * mu + mu + elim,
        gather: Some(affine_pattern(n, pa, pb)),
    }
}

/// Value range of one array of a generated program: every element is a
/// multiple of `2^-frac` below `2^mag` in magnitude. The generator keeps
/// both small enough that every element operation and every 8-element
/// sum is exact in REAL, so a reduction cannot depend on the order the
/// ranks combine it in and the reference interpreter's PRINT lines are
/// the only right answer.
#[derive(Debug, Clone, Copy)]
struct Bits {
    mag: u32,
    frac: u32,
}

const COLD_N: i64 = 8;
const COLD_ARRAYS: [&str; 4] = ["A", "B", "C", "D"];
/// A statement adds at most 5 bits of magnitude and 2 of fraction to the
/// widest ranges it reads, and an 8-element sum 3 more: 36 + 10 < 53.
const COLD_BUDGET: u32 = 36;

struct ColdGen {
    r: Rng,
    src: String,
    bits: [Bits; 4],
    stmts: usize,
    elem_updates: u64,
}

impl ColdGen {
    /// Emit one statement that assigns `updates` array elements.
    fn line(&mut self, text: &str, updates: i64) {
        self.src.push_str(text);
        self.src.push('\n');
        self.stmts += 1;
        self.elem_updates += updates as u64;
    }

    fn two(&mut self) -> (usize, usize) {
        let x = self.r.below(4) as usize;
        let y = (x + 1 + self.r.below(3) as usize) % 4;
        (x, y)
    }

    fn three(&mut self) -> (usize, usize, usize) {
        let (x, y) = self.two();
        let z = (0..4)
            .filter(|k| *k != x && *k != y)
            .nth(self.r.below(2) as usize)
            .expect("two arrays remain");
        (x, y, z)
    }

    fn init(&mut self, x: usize) {
        let (k, c) = (self.r.range(1, 7), self.r.range(0, 9));
        let m = *self.r.pick(&[8i64, 16, 32]);
        let text = format!(
            "FORALL (I=1:N) {}(I) = REAL(MOD(I*{k} + {c}, {m}))",
            COLD_ARRAYS[x]
        );
        self.line(&text, COLD_N);
        self.bits[x] = Bits { mag: 5, frac: 0 };
    }

    /// Re-initialise the widest arrays until the next statement, reading
    /// any of them, must stay exact.
    fn renormalise(&mut self) {
        loop {
            let mag = self.bits.iter().map(|b| b.mag).max().expect("four arrays");
            let frac = self.bits.iter().map(|b| b.frac).max().expect("four arrays");
            if mag + frac <= COLD_BUDGET {
                return;
            }
            let widest = (0..4)
                .max_by_key(|&i| self.bits[i].mag + self.bits[i].frac)
                .expect("four arrays");
            self.init(widest);
        }
    }

    /// Record that `x` now also holds values of range `new` (a partial
    /// assignment keeps some old elements, so the ranges join).
    fn widen(&mut self, x: usize, new: Bits) {
        let b = &mut self.bits[x];
        b.mag = b.mag.max(new.mag);
        b.frac = b.frac.max(new.frac);
    }

    fn stencil(&mut self) {
        let (x, y) = self.two();
        let (ax, ay) = (COLD_ARRAYS[x], COLD_ARRAYS[y]);
        let Bits { mag, frac } = self.bits[y];
        let (text, new) = match self.r.below(3) {
            0 => (
                format!("FORALL (I=2:N-1) {ax}(I) = 0.5*({ay}(I-1) + {ay}(I+1))"),
                Bits {
                    mag,
                    frac: frac + 1,
                },
            ),
            1 => (
                format!("FORALL (I=2:N-1) {ax}(I) = 0.25*({ay}(I-1) + 2.0*{ay}(I) + {ay}(I+1))"),
                Bits {
                    mag,
                    frac: frac + 2,
                },
            ),
            _ => (
                format!("FORALL (I=3:N) {ax}(I) = {ay}(I-2) - {ay}(I-1)"),
                Bits { mag: mag + 1, frac },
            ),
        };
        self.line(&text, COLD_N - 2);
        self.widen(x, new);
    }

    /// A dyadic coefficient and the bits it adds to (magnitude, fraction).
    fn coefficient(&mut self) -> (&'static str, u32, u32) {
        *self
            .r
            .pick(&[("0.5*", 0, 1), ("0.25*", 0, 2), ("2.0*", 1, 0), ("", 0, 0)])
    }

    /// `X = a*Y + b*Z - W + c` in array syntax: aligned, so it costs the
    /// compiler a long expression and the machine no message.
    fn array_syntax(&mut self) {
        let (x, y, z) = self.three();
        let w = 6 - x - y - z;
        let [ax, ay, az, aw] = [x, y, z, w].map(|i| COLD_ARRAYS[i]);
        let (ca, ma, fa) = self.coefficient();
        let (cb, mb, fb) = self.coefficient();
        let c = self.r.range(1, 9);
        let (by, bz, bw) = (self.bits[y], self.bits[z], self.bits[w]);
        self.line(
            &format!("{ax} = {ca}{ay} + {cb}{az} - {aw} + {c}.0"),
            COLD_N,
        );
        self.widen(
            x,
            Bits {
                mag: (by.mag + ma).max(bz.mag + mb).max(bw.mag).max(4) + 2,
                frac: (by.frac + fa).max(bz.frac + fb).max(bw.frac),
            },
        );
    }

    fn where_stmt(&mut self) {
        let (x, y, z) = self.three();
        let (ax, ay, az) = (COLD_ARRAYS[x], COLD_ARRAYS[y], COLD_ARRAYS[z]);
        let c = self.r.range(0, 12);
        let (cz, mz, fz) = self.coefficient();
        match self.r.below(3) {
            0 => self.line(
                &format!("WHERE ({ay} > {c}.0) {ax} = {cz}{az} + {ay}"),
                COLD_N,
            ),
            1 => {
                self.line(&format!("WHERE ({ay} > {c}.0)"), 0);
                self.line(&format!("  {ax} = {cz}{az} + {ay}"), COLD_N);
                self.line("ELSEWHERE", 0);
                self.line(&format!("  {ax} = {ay} - {cz}{az}"), 0);
                self.line("END WHERE", 0);
            }
            _ => self.line(
                &format!("FORALL (I=1:N, {ay}(I) > {c}.0) {ax}(I) = {cz}{az}(I) + {ay}(I)"),
                COLD_N,
            ),
        }
        let (by, bz) = (self.bits[y], self.bits[z]);
        self.widen(
            x,
            Bits {
                mag: (bz.mag + mz).max(by.mag) + 1,
                frac: (bz.frac + fz).max(by.frac),
            },
        );
    }

    fn shift_section(&mut self) {
        let (x, y) = self.two();
        let text = format!("{}(2:N) = {}(1:N-1)", COLD_ARRAYS[x], COLD_ARRAYS[y]);
        self.line(&text, COLD_N - 1);
        self.widen(x, self.bits[y]);
    }

    fn indirect(&mut self) {
        let (x, y) = self.two();
        let (ax, ay) = (COLD_ARRAYS[x], COLD_ARRAYS[y]);
        if self.r.below(3) == 0 {
            let (k, c) = (self.r.odd_below(COLD_N as u64), self.r.below(COLD_N as u64));
            self.line(
                &format!("FORALL (I=1:N) IX(I) = MOD(I*{k} + {c}, N) + 1"),
                COLD_N,
            );
        }
        let text = if self.r.below(2) == 0 {
            format!("FORALL (I=1:N) {ax}(I) = {ay}(IX(I)) + REAL(I)")
        } else {
            format!("FORALL (I=1:N) {ax}(IX(I)) = {ay}(I) + REAL(I)")
        };
        self.line(&text, COLD_N);
        let Bits { mag, frac } = self.bits[y];
        self.widen(
            x,
            Bits {
                mag: mag.max(3) + 1,
                frac,
            },
        );
    }

    fn reduction(&mut self) {
        let (x, y) = self.two();
        let (ax, ay) = (COLD_ARRAYS[x], COLD_ARRAYS[y]);
        let Bits { mag, frac } = self.bits[y];
        if self.r.below(2) == 0 {
            self.line(&format!("S = SUM({ay})"), 0);
            self.line(&format!("FORALL (I=1:N) {ax}(I) = {ax}(I) + S"), COLD_N);
            let mag = self.bits[x].mag.max(mag + 3) + 1;
            self.widen(x, Bits { mag, frac });
        } else {
            self.line(&format!("MX = MAXVAL({ay})"), 0);
            self.line(&format!("FORALL (I=1:N) {ax}(I) = MX - {ay}(I)"), COLD_N);
            self.widen(x, Bits { mag: mag + 1, frac });
        }
    }

    /// A sequential DO around a stencil and a copy-back that reads the
    /// loop variable; both arrays start the loop fresh so that three
    /// trips stay far inside the budget.
    fn do_loop(&mut self) {
        let trips = self.r.range(2, 3);
        let (x, y) = self.two();
        self.init(x);
        self.init(y);
        let (ax, ay) = (COLD_ARRAYS[x], COLD_ARRAYS[y]);
        self.line(&format!("DO K = 1, {trips}"), 0);
        self.line(
            &format!("  FORALL (I=2:N-1) {ax}(I) = 0.5*({ay}(I-1) + {ay}(I+1))"),
            trips * (COLD_N - 2),
        );
        self.line(
            &format!("  FORALL (I=2:N-1) {ay}(I) = {ax}(I) + REAL(K)"),
            trips * (COLD_N - 2),
        );
        self.line("END DO", 0);
        // Each trip adds at most one bit of each kind to either array.
        let t = trips as u32;
        for i in [x, y] {
            self.bits[i] = Bits {
                mag: 5 + t,
                frac: t,
            };
        }
    }
}

/// A never-seen program for op `op` of the cold daemon workload: about
/// `statements` statements mixing shift stencils, array-syntax and
/// section assignments, WHERE and masked FORALL, indirect subscripts, a
/// DO loop and reductions, over four 8-element BLOCK arrays.
pub fn cold(seed: u64, op: u64, statements: usize) -> Program {
    let mut g = ColdGen {
        r: Rng::for_op(seed, 5, op),
        src: String::new(),
        bits: [Bits { mag: 5, frac: 0 }; 4],
        stmts: 0,
        elem_updates: 0,
    };
    let _ = write!(
        g.src,
        "PROGRAM COLD\n\
         INTEGER, PARAMETER :: N = {COLD_N}, JOB = {op}\n\
         REAL A(N), B(N), C(N), D(N)\n\
         REAL S, MX\n\
         INTEGER IX(N)\n\
         INTEGER K\n\
         C$ TEMPLATE T(N)\n\
         C$ ALIGN A(I) WITH T(I)\n\
         C$ ALIGN B(I) WITH T(I)\n\
         C$ ALIGN C(I) WITH T(I)\n\
         C$ ALIGN D(I) WITH T(I)\n\
         C$ DISTRIBUTE T(BLOCK)\n"
    );
    // JOB makes the text (and the first array) unique to this op even
    // if two ops drew the same statements.
    g.line("FORALL (I=1:N) A(I) = REAL(MOD(I*3 + JOB, 16))", COLD_N);
    for x in 1..4 {
        g.init(x);
    }
    g.line("FORALL (I=1:N) IX(I) = MOD(I*5 + JOB, N) + 1", COLD_N);
    let gather = affine_pattern(COLD_N, 5, (op % COLD_N as u64) as i64);
    let mut looped = false;
    while g.stmts < statements {
        g.renormalise();
        if !looped && g.stmts >= statements / 2 {
            looped = true;
            g.do_loop();
            continue;
        }
        // Mostly aligned statements: at N=8 a job's run time is its
        // message count, and this workload is about compiling.
        match g.r.below(32) {
            0..=15 => g.array_syntax(),
            16..=27 => g.where_stmt(),
            28 => g.stencil(),
            29 => g.shift_section(),
            30 => g.indirect(),
            _ => g.reduction(),
        }
    }
    for (i, a) in COLD_ARRAYS.iter().enumerate() {
        g.line(&format!("S = SUM({a})"), 0);
        g.line(&format!("PRINT *, 'SUM{i}', S"), 0);
    }
    g.line("MX = MAXVAL(B)", 0);
    g.line("PRINT *, 'MAXB', MX", 0);
    g.src.push_str("END\n");
    Program {
        source: g.src,
        elem_updates: g.elem_updates,
        gather: Some(gather),
    }
}
