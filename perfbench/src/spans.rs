//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, a start, an end, its parent (the span open when it
//! began) and the day it belongs to: every span of one served or simulated
//! day carries that day as its id. Spans stay in memory until the run ends
//! and are then written out as JSON lines. The tracer is shared behind a
//! mutex so wrappers running inside the program's own threads (an A3C
//! worker, a simulate shard) can record into it.

use serde::Serialize;
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub day: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// A cloneable handle to one run's span list.
#[derive(Clone, Debug)]
pub struct Tracer(Arc<Mutex<Recorder>>);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer(Arc::new(Mutex::new(Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        })))
    }

    fn lock(&self) -> MutexGuard<'_, Recorder> {
        self.0.lock().expect("a thread panicked while recording a span")
    }

    /// Runs `f` inside a span named `name`. Spans begun while `f` runs
    /// become its children.
    pub fn span<T>(&self, name: &'static str, day: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = {
            let mut rec = self.lock();
            let id = rec.spans.len();
            let parent = rec.open.last().copied();
            let start_ns = rec.now_ns();
            rec.spans.push(Span { name, day, start_ns, end_ns: start_ns, parent });
            rec.open.push(id);
            id
        };
        let out = f();
        let mut rec = self.lock();
        rec.spans[id].end_ns = rec.now_ns();
        rec.open.retain(|&open| open != id);
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        for s in &self.lock().spans {
            out.push_str(&serde_json::to_string(s).map_err(std::io::Error::other)?);
            out.push('\n');
        }
        std::fs::write(path, out)
    }
}

/// Durations in ms of every span named `name`, in recording order.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(Span::ms).collect()
}

/// Total duration in ms of every span named `name` (+0.0 when none).
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    durations_ms(spans, name).iter().fold(0.0, |acc, ms| acc + ms)
}

/// Self time in ms of every span named `name`: each span's duration minus
/// the durations of its direct children.
pub fn self_ms(spans: &[Span], name: &str) -> f64 {
    let mut child_ms = vec![0.0f64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.ms();
        }
    }
    let own = spans.iter().zip(&child_ms).filter(|(s, _)| s.name == name);
    own.fold(0.0, |acc, (s, c)| acc + s.ms() - c)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, day: Some(0), start_ns, end_ns, parent }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // serve [0, 10ms]
        //   decide [1, 3ms]
        //   migrate [4, 8ms]
        //     vdev [5, 7ms]
        // serve [20, 25ms] with no children
        let ms = 1_000_000;
        let spans = vec![
            span("serve", 0, 10 * ms, None),
            span("decide", ms, 3 * ms, Some(0)),
            span("migrate", 4 * ms, 8 * ms, Some(0)),
            span("vdev", 5 * ms, 7 * ms, Some(2)),
            span("serve", 20 * ms, 25 * ms, None),
        ];
        assert_eq!(self_ms(&spans, "serve"), 4.0 + 5.0);
        assert_eq!(self_ms(&spans, "decide"), 2.0);
        assert_eq!(self_ms(&spans, "migrate"), 2.0);
        assert_eq!(self_ms(&spans, "vdev"), 2.0);
        assert_eq!(total_ms(&spans, "serve"), 15.0);
        assert_eq!(durations_ms(&spans, "serve"), vec![10.0, 5.0]);
        assert!(self_ms(&spans, "absent").is_sign_positive());
        assert!(total_ms(&spans, "absent").is_sign_positive());
    }

    #[test]
    fn nested_spans_record_their_parent_and_day() {
        let tracer = Tracer::new();
        tracer.span("outer", None, || {
            tracer.span("inner", Some(3), || {});
            tracer.span("inner", Some(4), || {});
        });
        tracer.span("after", None, || {});
        let spans = tracer.spans();
        let parents: Vec<Option<usize>> = spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0), None]);
        assert_eq!(spans[1].day, Some(3));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert!(spans[0].end_ns >= spans[2].end_ns && spans[3].start_ns >= spans[0].end_ns);
        let sum_inner = total_ms(&spans, "inner");
        assert!((self_ms(&spans, "outer") - (spans[0].ms() - sum_inner)).abs() < 1e-9);
    }
}
