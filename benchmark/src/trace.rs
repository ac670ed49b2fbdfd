//! Spans recorded by the benchmark's own code around the calls into each
//! layer, kept in memory and written out when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::json::Json;

use crate::measure::median;

pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<SpanId>,
    /// Spans of one job share its op number.
    pub job: u64,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Placed from the daemon's response telemetry, not from a clock
    /// read at the boundary: the duration is measured, the position
    /// inside the parent is not.
    pub from_telemetry: bool,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, job: u64) -> SpanId {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            job,
            start_ns,
            end_ns: start_ns,
            from_telemetry: false,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a child span of `parent`.
    pub fn span<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let job = self.spans[parent].job;
        let id = self.begin(name, Some(parent), job);
        let r = f();
        self.end(id);
        r
    }

    /// Add child spans of known duration back to back from the parent's
    /// start (the daemon reports how long each stage took, not when).
    pub fn telemetry_children(&mut self, parent: SpanId, stages: &[(&'static str, f64)]) {
        let job = self.spans[parent].job;
        let mut at = self.spans[parent].start_ns;
        for &(name, ms) in stages {
            let end = at + (ms * 1e6) as u64;
            self.spans.push(Span {
                name,
                parent: Some(parent),
                job,
                start_ns: at,
                end_ns: end,
                from_telemetry: true,
            });
            at = end;
        }
    }

    /// Per span name: every duration and every self time (duration minus
    /// what the span's direct children cover), in milliseconds.
    pub fn by_name(&self) -> BTreeMap<&'static str, SpanTimes> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTimes> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            let entry = out.entry(s.name).or_default();
            entry.total_ms.push(total as f64 / 1e6);
            entry
                .self_ms
                .push(total.saturating_sub(children) as f64 / 1e6);
        }
        out
    }

    /// The trace file: per-name summary, then the spans of the first
    /// `max_jobs` jobs (enough to read a job end to end; the summary
    /// covers all of them).
    pub fn to_json(&self, workload: &str, seed: u64, max_jobs: usize) -> Json {
        let n = |x: f64| Json::Num(x);
        let summary = self
            .by_name()
            .into_iter()
            .map(|(name, mut t)| {
                let sum: f64 = t.self_ms.iter().sum();
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("count".into(), n(t.total_ms.len() as f64)),
                        ("median_ms".into(), n(median(&mut t.total_ms))),
                        ("self_median_ms".into(), n(median(&mut t.self_ms))),
                        ("self_sum_ms".into(), n(sum)),
                    ]),
                )
            })
            .collect();
        let mut jobs_seen = Vec::new();
        let spans = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                if !jobs_seen.contains(&s.job) && jobs_seen.len() < max_jobs {
                    jobs_seen.push(s.job);
                }
                jobs_seen.contains(&s.job)
            })
            .map(|(id, s)| {
                Json::Obj(vec![
                    ("id".into(), n(id as f64)),
                    (
                        "parent".into(),
                        s.parent.map_or(Json::Null, |p| n(p as f64)),
                    ),
                    ("job".into(), n(s.job as f64)),
                    ("name".into(), Json::Str(s.name.into())),
                    ("start_us".into(), n(s.start_ns as f64 / 1e3)),
                    ("end_us".into(), n(s.end_ns as f64 / 1e3)),
                    ("from_telemetry".into(), Json::Bool(s.from_telemetry)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Str("f90d-benchmark-trace/v1".into())),
            ("workload".into(), Json::Str(workload.into())),
            ("seed".into(), n(seed as f64)),
            ("spans_recorded".into(), n(self.spans.len() as f64)),
            ("by_name".into(), Json::Obj(summary)),
            ("spans".into(), Json::Arr(spans)),
        ])
    }
}

#[derive(Debug, Default)]
pub struct SpanTimes {
    pub total_ms: Vec<f64>,
    pub self_ms: Vec<f64>,
}
