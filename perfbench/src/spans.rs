//! Benchmark-side spans for the traced replay: kept in memory while the
//! replay runs, reduced to per-layer self times, and written out once as
//! Chrome trace-event JSON (loadable in Perfetto).

use serde_json::{json, Value};
use std::time::Instant;

/// One recorded call. `name` is `<layer>.<call>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    pub iteration: usize,
}

impl Span {
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }

    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A stack-structured recorder: spans opened inside an open span become
/// its children.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: usize,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Attribute spans opened from now on to `iteration`.
    pub fn set_iteration(&mut self, iteration: usize) {
        self.iteration = iteration;
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_us: 0.0,
            end_us: 0.0,
            parent: self.open.last().copied(),
            iteration: self.iteration,
        });
        self.open.push(id);
        // Read the clock last, so the bookkeeping above is not inside
        // the span.
        self.spans[id].start_us = self.now_us();
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let end = self.now_us();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost first"
        );
        self.spans[id].end_us = end;
    }

    /// Record one leaf call.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the durations of its direct
/// children. Children of one span never overlap (the replay is serial), so
/// the sum is exactly the part of the interval they cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut out: Vec<f64> = spans.iter().map(Span::duration_us).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] -= s.duration_us();
        }
    }
    out
}

/// Σ self time per span name, in first-seen order.
pub fn self_time_by_name(spans: &[Span]) -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        match out.iter_mut().find(|(n, _)| *n == s.name) {
            Some((_, sum)) => *sum += t,
            None => out.push((s.name, t)),
        }
    }
    out
}

/// Chrome trace-event JSON: one complete (`"X"`) event per span on a
/// single track, with the layer as category and the parent and iteration
/// as arguments.
pub fn chrome_trace<'a>(spans: impl IntoIterator<Item = &'a Span>) -> Value {
    let events: Vec<Value> = spans
        .into_iter()
        .enumerate()
        .map(|(id, s)| {
            let args = json!({"id": id, "parent": s.parent, "iteration": s.iteration});
            json!({
                "name": s.name,
                "cat": s.layer(),
                "ph": "X",
                "ts": s.start_us,
                "dur": s.duration_us(),
                "pid": 1,
                "tid": 1,
                "args": args,
            })
        })
        .collect();
    json!({"displayTimeUnit": "ms", "traceEvents": events})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            iteration: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root [0,100] ⊃ a [10,40] ⊃ b [15,25]; root ⊃ c [50,90].
        let spans = vec![
            span("replay.iteration", 0.0, 100.0, None),
            span("x.a", 10.0, 40.0, Some(0)),
            span("x.b", 15.0, 25.0, Some(1)),
            span("x.c", 50.0, 90.0, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30.0, 20.0, 10.0, 40.0]);
        // Self times of a tree sum to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<f64>(), 100.0);
    }

    #[test]
    fn self_time_by_name_sums_repeated_calls() {
        let spans = vec![
            span("replay.iteration", 0.0, 10.0, None),
            span("batcher.kk", 1.0, 2.0, Some(0)),
            span("batcher.kk", 3.0, 6.0, Some(0)),
        ];
        assert_eq!(
            self_time_by_name(&spans),
            vec![("replay.iteration", 6.0), ("batcher.kk", 4.0)]
        );
    }

    #[test]
    fn recorder_nests_and_attributes_iterations() {
        let mut rec = Recorder::new();
        rec.set_iteration(3);
        let root = rec.open("replay.iteration");
        let v = rec.time("data.batch", || 7);
        rec.close(root);
        assert_eq!(v, 7);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].iteration, 3);
        assert_eq!(s[1].layer(), "data");
        assert!(s[0].start_us <= s[1].start_us && s[1].end_us <= s[0].end_us);
    }

    #[test]
    fn chrome_trace_has_one_complete_event_per_span() {
        let spans = vec![
            span("replay.iteration", 0.0, 5.0, None),
            span("core.plan", 1.0, 2.0, Some(0)),
        ];
        let text = chrome_trace(&spans).to_json();
        assert_eq!(text.matches("\"ph\":\"X\"").count(), 2);
        assert!(text.contains("\"cat\":\"core\""));
        assert!(text.contains("\"parent\":0"));
    }
}
