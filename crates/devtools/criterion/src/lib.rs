//! Offline stand-in for `criterion`: a tiny wall-clock bench harness with
//! the same macro/entry-point surface the in-tree benches use.
//!
//! Each benchmark runs one warm-up iteration, then `sample_size` timed
//! iterations, and prints `name  time: [min median max]`. There is no
//! statistical analysis, HTML report, or baseline comparison — see
//! `crates/devtools/README.md`.
//!
//! The command line is criterion's (`cargo bench --bench B -- ARGS`):
//! a first positional argument runs only the benchmarks whose full name
//! (`group/id`) holds it at the start of the name or of one of its
//! `/`-separated parts (`reduce/` runs `reduce/sum` but not
//! `tree_reduce/fattree256`; `fattree256` runs both `*/fattree256*`).
//! Real criterion matches a regex anywhere in the name; the stand-in
//! anchors the filter at a part so that one group's prefix does not run
//! another group whose name ends in it. `--warm-up-time S` repeats the
//! warm-up iteration until `S` seconds have passed; `--measurement-time
//! S` stops taking samples once the timed ones add up to `S` seconds
//! (one is always taken). Other flags, `--bench` among them, are
//! ignored.

use std::fmt::Display;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Default number of timed samples per benchmark.
const DEFAULT_SAMPLES: usize = 10;

/// Identifier of one benchmark within a group.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { id: s.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { id: s }
    }
}

/// What the command line asks of every benchmark of the run.
#[derive(Debug, Default, PartialEq)]
struct Settings {
    /// Run only the benchmarks whose full name has this at its start
    /// or at the start of one of its `/`-separated parts.
    filter: Option<String>,
    /// Repeat the warm-up iteration for at least this long.
    warm_up: Option<Duration>,
    /// Stop sampling once the samples add up to this.
    measurement: Option<Duration>,
}

impl Settings {
    /// The settings of `args`, the arguments after the program name.
    fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut settings = Settings::default();
        let mut args = args.into_iter();
        let seconds = |value: Option<String>, flag: &str| {
            let value = value.unwrap_or_else(|| panic!("{flag} needs a value in seconds"));
            let s: f64 = (value.parse()).unwrap_or_else(|_| panic!("{flag} {value}: not seconds"));
            Duration::from_secs_f64(s)
        };
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--warm-up-time" => settings.warm_up = Some(seconds(args.next(), &arg)),
                "--measurement-time" => settings.measurement = Some(seconds(args.next(), &arg)),
                flag if flag.starts_with('-') => {}
                _ if settings.filter.is_none() => settings.filter = Some(arg),
                _ => {}
            }
        }
        settings
    }

    /// The settings of this process's command line, read once.
    fn of_process() -> &'static Settings {
        static SETTINGS: OnceLock<Settings> = OnceLock::new();
        SETTINGS.get_or_init(|| Settings::parse(std::env::args().skip(1)))
    }

    /// `true` when the benchmark named `name` is to run: the filter
    /// starts the name or one of its `/`-separated parts.
    fn runs(&self, name: &str) -> bool {
        let Some(filter) = &self.filter else {
            return true;
        };
        (name.match_indices(filter.as_str())).any(|(at, _)| at == 0 || name[..at].ends_with('/'))
    }
}

/// Passed to the benchmark closure; `iter` times the payload.
pub struct Bencher {
    samples: usize,
    results: Vec<Duration>,
}

impl Bencher {
    /// Run and time `f`: warm up (once, or for the `--warm-up-time`),
    /// then take `samples` timed runs, fewer if they reach the
    /// `--measurement-time` first.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let settings = Settings::of_process();
        let warm_up = Instant::now();
        loop {
            black_box(f());
            if settings.warm_up.is_none_or(|t| warm_up.elapsed() >= t) {
                break;
            }
        }
        self.results.clear();
        let mut measured = Duration::ZERO;
        for _ in 0..self.samples {
            let t0 = Instant::now();
            black_box(f());
            let took = t0.elapsed();
            self.results.push(took);
            measured += took;
            if settings.measurement.is_some_and(|t| measured >= t) {
                break;
            }
        }
    }
}

/// Run `f` under a fresh [`Bencher`] and report it as `name`, unless the
/// command line's filter leaves it out.
fn run(name: &str, samples: usize, f: impl FnOnce(&mut Bencher)) {
    if !Settings::of_process().runs(name) {
        return;
    }
    let mut b = Bencher {
        samples,
        results: Vec::new(),
    };
    f(&mut b);
    report(name, &mut b.results);
}

fn report(name: &str, results: &mut [Duration]) {
    if results.is_empty() {
        return;
    }
    results.sort_unstable();
    let (min, med, max) = (
        results[0],
        results[results.len() / 2],
        results[results.len() - 1],
    );
    println!(
        "{name:<40} time: [{} {} {}]",
        fmt_dur(min),
        fmt_dur(med),
        fmt_dur(max)
    );
}

fn fmt_dur(d: Duration) -> String {
    let s = d.as_secs_f64();
    if s >= 1.0 {
        format!("{s:.4} s")
    } else if s >= 1e-3 {
        format!("{:.4} ms", s * 1e3)
    } else {
        format!("{:.4} µs", s * 1e6)
    }
}

/// The top-level harness handle.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Run one stand-alone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, mut f: F) {
        run(&id.into().id, DEFAULT_SAMPLES, |b| f(b));
    }

    /// Open a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            _c: self,
            name: name.into(),
            samples: DEFAULT_SAMPLES,
        }
    }
}

/// A group of related benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    _c: &'a mut Criterion,
    name: String,
    samples: usize,
}

impl BenchmarkGroup<'_> {
    /// Set the number of timed samples for subsequent benchmarks.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n.max(1);
        self
    }

    /// Run one benchmark in this group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: impl Into<BenchmarkId>, mut f: F) {
        let name = format!("{}/{}", self.name, id.into().id);
        run(&name, self.samples, |b| f(b));
    }

    /// Run one benchmark with an input value.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) {
        let name = format!("{}/{}", self.name, id.id);
        run(&name, self.samples, |b| f(b, input));
    }

    /// Finish the group (no-op in the stand-in).
    pub fn finish(self) {}
}

/// Define a benchmark group entry point.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Define `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Settings {
        Settings::parse(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn reads_criterions_command_line() {
        let s = parse(&[
            "--bench",
            "reduce/",
            "--warm-up-time",
            "0.05",
            "--measurement-time",
            "0.1",
        ]);
        assert_eq!(s.filter.as_deref(), Some("reduce/"));
        assert_eq!(s.warm_up, Some(Duration::from_millis(50)));
        assert_eq!(s.measurement, Some(Duration::from_millis(100)));
        assert!(s.runs("reduce/sum_256x256_4x4"));
        assert!(!s.runs("multicast/ipsc16_192x12"));
        assert!(!s.runs("tree_reduce/fattree256"));
        let by_shape = parse(&["fattree256"]);
        assert!(by_shape.runs("tree_reduce/fattree256"));
        assert!(by_shape.runs("multicast/fattree256_64x1"));
        assert!(!by_shape.runs("route_transfer/hypercube16"));
        assert_eq!(parse(&["--bench"]), Settings::default());
        assert!(Settings::default().runs("anything"));
    }
}
