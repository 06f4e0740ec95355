//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent span and request id (the
//! rep, call or epoch it belongs to). Spans are opened on the benchmark's
//! own thread only, so a stack gives each its parent. Nothing is recorded
//! until [`start`] is called: the untraced runs pay one thread-local read
//! per call site. The layer of a span is its name up to the first `.`
//! (`blocking.fit_dedup` belongs to `blocking`).

use crate::stats::{median, percentile, quartiles, self_times};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span; times are seconds since the trace started.
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// An open span, closed when dropped — so a panic inside a span (caught
/// and counted as a failed op) still leaves a well-nested trace.
#[must_use = "the span closes when this guard is dropped"]
pub struct Open(Option<usize>);

impl Drop for Open {
    fn drop(&mut self) {
        if let Some(id) = self.0 {
            TRACER.with(|t| {
                if let Some(tr) = t.borrow_mut().as_mut() {
                    tr.spans[id].end = tr.epoch.elapsed().as_secs_f64();
                    tr.stack.pop();
                }
            });
        }
    }
}

/// Opens a span named `name` for request `req`, closed when the guard
/// drops (a no-op while no trace is active).
pub fn enter(name: &'static str, req: u64) -> Open {
    Open(TRACER.with(|t| {
        t.borrow_mut().as_mut().map(|tr| {
            let id = tr.spans.len();
            let start = tr.epoch.elapsed().as_secs_f64();
            tr.spans.push(Span { name, req, parent: tr.stack.last().copied(), start, end: start });
            tr.stack.push(id);
            id
        })
    }))
}

/// Runs `f` inside a span named `name` for request `req`.
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    let _open = enter(name, req);
    f()
}

/// Whether spans are being recorded on this thread.
pub fn active() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Starts recording spans on this thread.
pub fn start() {
    TRACER.with(|t| {
        *t.borrow_mut() =
            Some(Tracer { epoch: Instant::now(), spans: Vec::new(), stack: Vec::new() });
    });
}

/// Stops recording and returns the spans with the trace's wall time.
pub fn finish() -> Trace {
    let tr = TRACER.with(|t| t.borrow_mut().take()).expect("finish() follows start()");
    Trace { wall_s: tr.epoch.elapsed().as_secs_f64(), spans: tr.spans }
}

/// A finished trace.
pub struct Trace {
    pub spans: Vec<Span>,
    pub wall_s: f64,
}

fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

impl Trace {
    fn self_times(&self) -> Vec<f64> {
        let tuples: Vec<_> = self.spans.iter().map(|s| (s.start, s.end, s.parent)).collect();
        self_times(&tuples)
    }

    /// Seconds of self time per layer.
    pub fn self_by_layer(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(self.self_times()) {
            *out.entry(layer(s.name)).or_insert(0.0) += st;
        }
        out
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.end - s.start).collect()
    }

    /// Total seconds spent in spans named `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Total self time in seconds of spans named `name`.
    pub fn self_total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// The self times of all layers must add up to the traced wall time
    /// within 5%: otherwise a call went untraced or spans overlap.
    pub fn check_coverage(&self) -> Result<(), String> {
        let covered: f64 = self.self_by_layer().values().sum();
        let gap = (covered - self.wall_s).abs() / self.wall_s.max(f64::MIN_POSITIVE);
        if gap <= 0.05 {
            Ok(())
        } else {
            Err(format!(
                "traced self times sum to {covered:.4} s against {:.4} s of traced wall time",
                self.wall_s
            ))
        }
    }

    /// The trace as JSON: every span, plus a per-name summary (count,
    /// total and self seconds, duration quartiles and p99 in µs) and the
    /// self time of each layer.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let selfs = self.self_times();
        let mut by_name: BTreeMap<&str, (Vec<f64>, f64)> = BTreeMap::new();
        for (s, st) in self.spans.iter().zip(&selfs) {
            let e = by_name.entry(s.name).or_default();
            e.0.push(s.end - s.start);
            e.1 += st;
        }
        let mut j = String::new();
        let _ = write!(
            j,
            "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"wall_s\": {}, \"layer_self_s\": {{",
            self.wall_s
        );
        let layers: Vec<String> =
            self.self_by_layer().iter().map(|(l, s)| format!("\"{l}\": {s}")).collect();
        j.push_str(&layers.join(", "));
        j.push_str("},\n\"summary\": [\n");
        let rows: Vec<String> = by_name
            .iter()
            .map(|(name, (d, st))| {
                let (q1, q3) = quartiles(d);
                format!(
                    "  {{\"name\": \"{name}\", \"count\": {}, \"total_s\": {}, \"self_s\": {st}, \
                     \"q1_us\": {}, \"p50_us\": {}, \"q3_us\": {}, \"p99_us\": {}}}",
                    d.len(),
                    d.iter().sum::<f64>(),
                    q1 * 1e6,
                    median(d) * 1e6,
                    q3 * 1e6,
                    percentile(d, 99.0) * 1e6
                )
            })
            .collect();
        j.push_str(&rows.join(",\n"));
        j.push_str("\n],\n\"spans\": [\n");
        let spans: Vec<String> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "  {{\"id\": {i}, \"name\": \"{}\", \"req\": {}, \"parent\": {parent}, \
                     \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                    s.name,
                    s.req,
                    s.start * 1e6,
                    s.end * 1e6
                )
            })
            .collect();
        j.push_str(&spans.join(",\n"));
        j.push_str("\n]}\n");
        j
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_cover_the_trace() {
        start();
        span("bench.root", 0, || {
            span("blocking.fit", 0, || std::thread::sleep(std::time::Duration::from_millis(5)));
            span("runtime.resolve", 0, || {
                span("blocking.retrieve", 0, || {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                });
            });
        });
        let t = finish();
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[3].parent, Some(2));
        assert!(t.self_by_layer()["blocking"] >= 0.007);
        t.check_coverage().expect("one root span covers the whole trace");
        assert!(!active(), "finish() stops recording");
        assert!(t.to_json("w", 1).contains("\"name\": \"blocking.retrieve\""));
    }

    #[test]
    fn a_panic_inside_a_span_still_closes_it() {
        start();
        let caught = std::panic::catch_unwind(|| span("core.step", 3, || panic!("boom")));
        assert!(caught.is_err());
        span("core.step", 4, || ());
        let t = finish();
        assert_eq!(t.spans[1].parent, None, "the panicked span was popped");
        assert!(t.spans[0].end >= t.spans[0].start);
    }

    #[test]
    fn untraced_spans_record_nothing() {
        assert!(!active());
        assert_eq!(span("text.top_n", 0, || 7), 7);
    }
}
