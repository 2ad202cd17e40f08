//! In-memory spans recorded from the benchmark's side of each layer
//! boundary.
//!
//! A span has a name (`layer.operation`), start and end (ns since the
//! recorder's epoch), the span that caused it, and the request it
//! belongs to — spans of one request share that id. Spans stay in memory
//! and are written as JSON lines when the run ends. A layer's *self
//! time* is its span's duration minus the part of that interval its
//! child spans cover.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Recorder`].
pub type SpanId = u32;

/// `parent` of a root span.
pub const NO_PARENT: SpanId = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: SpanId,
    pub request: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span sink. A disabled recorder (the untraced binary's) or a paused
/// one costs one branch per call and records nothing.
pub struct Recorder {
    epoch: Instant,
    enabled: bool,
    paused: bool,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            epoch: Instant::now(),
            enabled,
            paused: false,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Stops (or resumes) recording between two repetitions; every span
    /// must be closed before the switch.
    pub fn pause(&mut self, paused: bool) {
        self.paused = paused;
    }

    pub fn paused(&self) -> bool {
        self.paused
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId, request: u32) -> SpanId {
        if !self.enabled || self.paused {
            return NO_PARENT;
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            request,
            start_ns: now,
            end_ns: now,
        });
        (self.spans.len() - 1) as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        if self.enabled && !self.paused {
            let now = self.now_ns();
            if let Some(span) = self.spans.get_mut(id as usize) {
                span.end_ns = now;
            }
        }
    }

    /// Renames a span whose kind was only known once it had run (a decode
    /// is named after the message it produced, a report after its verdict).
    pub fn rename(&mut self, id: SpanId, name: &'static str) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.name = name;
        }
    }

    /// Records a span around `f`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        request: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Computes every span's self time once, for the queries below.
    pub fn self_times(&self) -> SelfTimes<'_> {
        SelfTimes {
            spans: &self.spans,
            self_ns: self_times(&self.spans),
        }
    }
}

/// The spans of a finished run with their self times.
pub struct SelfTimes<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
}

impl SelfTimes<'_> {
    /// Median self time (ns) of the spans named any of `names`; `None` if
    /// there are none.
    pub fn median_ns(&self, names: &[&str]) -> Option<f64> {
        self.percentile_ns(names, 50.0)
    }

    /// Nearest-rank percentile `p` of the self times (ns) of the spans
    /// named any of `names`.
    pub fn percentile_ns(&self, names: &[&str], p: f64) -> Option<f64> {
        let mut matching: Vec<u64> = self
            .spans
            .iter()
            .zip(&self.self_ns)
            .filter(|(s, _)| names.contains(&s.name))
            .map(|(_, &ns)| ns)
            .collect();
        matching.sort_unstable();
        crate::stats::percentile(&matching, p).map(|ns| ns as f64)
    }

    /// Sum of self times (ns) per span name, in first-seen order — which
    /// layer the wall time of a run went to.
    pub fn by_name(&self) -> Vec<(&'static str, u64)> {
        let mut totals: Vec<(&'static str, u64)> = Vec::new();
        for (span, &ns) in self.spans.iter().zip(&self.self_ns) {
            match totals.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, total)) => *total += ns,
                None => totals.push((span.name, ns)),
            }
        }
        totals
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, (s, self_ns)) in self.spans.iter().zip(&self.self_ns).enumerate() {
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals, clipped to the span.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(list) = children.get_mut(s.parent as usize) {
            list.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (start, end) in kids {
                let start = start.max(cursor);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("request", NO_PARENT, 0, 100),
            span("decode", 0, 10, 30),
            span("state", 0, 30, 70),
            span("journal", 2, 40, 60),
            // Overlaps `state` and sticks out past the parent: only the
            // uncovered, in-parent part (70..100) counts.
            span("encode", 0, 60, 120),
        ];
        assert_eq!(self_times(&spans), vec![10, 20, 20, 20, 60]);
    }

    #[test]
    fn childless_span_keeps_its_whole_duration() {
        let spans = vec![span("only", NO_PARENT, 5, 12)];
        assert_eq!(self_times(&spans), vec![7]);
    }

    #[test]
    fn disabled_or_paused_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let v = rec.span("x", NO_PARENT, 0, || 7);
        assert_eq!(v, 7);
        assert!(rec.spans().is_empty());
        let mut rec = Recorder::new(true);
        rec.pause(true);
        rec.span("x", NO_PARENT, 0, || ());
        assert!(rec.spans().is_empty());
        rec.pause(false);
        rec.span("x", NO_PARENT, 0, || ());
        assert_eq!(rec.spans().len(), 1);
    }

    #[test]
    fn recorder_attributes_medians_by_name() {
        let mut rec = Recorder::new(true);
        let root = rec.open("request", NO_PARENT, 1);
        rec.span("leaf", root, 1, || std::hint::black_box(1 + 1));
        rec.close(root);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, root);
        let times = rec.self_times();
        assert!(times.median_ns(&["leaf"]).is_some());
        assert!(times.median_ns(&["absent"]).is_none());
        let total: u64 = times.by_name().iter().map(|&(_, ns)| ns).sum();
        assert_eq!(total, rec.spans()[0].duration_ns());
    }
}
