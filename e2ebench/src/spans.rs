//! The benchmark's own tracer: spans around calls into the program's
//! public functions, recorded from outside the program.
//!
//! A span has a name, start, end, the span that caused it, and the trace
//! id of the operation it belongs to. Spans stay in memory and are
//! written out as JSONL when the run ends. A disabled recorder records
//! nothing, so the untraced window pays one branch per call site.

use mcgp_runtime::Json;
use std::time::Instant;

/// Handle of an open span; [`NO_SPAN`] from a disabled recorder.
pub type SpanId = usize;
pub const NO_SPAN: SpanId = usize::MAX;

#[derive(Clone, Debug)]
pub struct Span {
    pub trace: u64,
    pub parent: Option<SpanId>,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end_s - self.start_s
    }
}

pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// `epoch` is shared by every recorder of a run so spans from client
    /// threads line up.
    pub fn new(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            epoch,
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, trace: u64, parent: Option<SpanId>, name: &'static str) -> SpanId {
        if !self.enabled {
            return NO_SPAN;
        }
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            trace,
            parent: parent.filter(|&p| p != NO_SPAN),
            name,
            start_s: now,
            end_s: now,
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        if id != NO_SPAN {
            self.spans[id].end_s = self.epoch.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a span and returns its result.
    pub fn time<T>(
        &mut self,
        trace: u64,
        parent: Option<SpanId>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(trace, parent, name);
        let out = f();
        self.end(id);
        out
    }

    /// Moves another recorder's spans into this one (parent ids are
    /// rebased).
    pub fn absorb(&mut self, other: Recorder) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Seconds spent in spans named `name`, over all traces.
    pub fn total(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .sum()
    }

    /// Seconds spent in spans named `name` under trace `trace`.
    pub fn secs(&self, trace: u64, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.trace == trace && s.name == name)
            .map(Span::secs)
            .sum()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSONL, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("id", Json::UInt(id as u64)),
                ("trace", Json::UInt(s.trace)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::UInt(p as u64)),
                ),
                ("name", Json::Str(s.name.to_string())),
                ("start_s", Json::Float(s.start_s)),
                ("end_s", Json::Float(s.end_s)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut r = Recorder::new(false, Instant::now());
        let id = r.begin(1, None, "x");
        r.end(id);
        assert_eq!(r.time(1, None, "y", || 7), 7);
        assert!(r.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Recorder::new(true, epoch);
        let root = a.begin(1, None, "op");
        a.time(1, Some(root), "layer", || ());
        a.end(root);
        let mut b = Recorder::new(true, epoch);
        let root_b = b.begin(2, None, "op");
        b.time(2, Some(root_b), "layer", || ());
        b.end(root_b);
        a.absorb(b);
        assert_eq!(a.spans().len(), 4);
        assert_eq!(a.spans()[3].parent, Some(2));
        assert!(a.total("layer") >= a.secs(1, "layer"));
        assert!(a.secs(1, "op") >= a.secs(1, "layer"));
        assert_eq!(a.to_jsonl().lines().count(), 4);
    }
}
