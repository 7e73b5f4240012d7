//! Wall-clock spans around the benchmark's calls into the simulator.
//!
//! Spans are recorded only by a traced episode and kept in memory; the
//! untraced episode gets a disabled tracer whose `begin`/`end` read no
//! clock, so its timings carry no tracing cost.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span: wall nanoseconds from the tracer's origin.
#[derive(Clone, Debug)]
pub struct Span {
    /// The layer call this span wraps, e.g. `cluster.epoch`.
    pub name: &'static str,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Handle to an open span; [`SpanId::ROOT`] stands for "no parent".
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The parent of top-level spans.
    pub const ROOT: SpanId = SpanId(None);
}

/// Span recorder.
pub struct Tracer {
    origin: Option<Instant>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or ignores every span.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: enabled.then(Instant::now),
            spans: Vec::new(),
        }
    }

    /// Opens a span under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let Some(origin) = self.origin else {
            return SpanId::ROOT;
        };
        let now = origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: parent.0,
        });
        SpanId(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, id: SpanId) {
        if let (Some(origin), Some(i)) = (self.origin, id.0) {
            self.spans[i].end_ns = origin.elapsed().as_nanos() as u64;
        }
    }

    /// Every span recorded, in opening order.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations in µs of the spans named `name`.
pub fn durations_us(spans: &[&Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect()
}

/// JSON lines, one span per line: `{"id","name","start_ns","end_ns","parent"}`.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for (id, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
            s.name, s.start_ns, s.end_ns
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let s = t.begin("setup", SpanId::ROOT);
        t.end(s);
        assert!(t.into_spans().is_empty());
    }

    #[test]
    fn spans_nest_under_their_parent() {
        let mut t = Tracer::new(true);
        let outer = t.begin("measure", SpanId::ROOT);
        let inner = t.begin("cluster.epoch", outer);
        t.end(inner);
        t.end(outer);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert!(to_jsonl(&spans).lines().count() == 2);
    }
}
