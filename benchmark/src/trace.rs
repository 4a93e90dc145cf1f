//! In-memory wall-clock spans recorded from the benchmark's own files,
//! around the calls into each layer.
//!
//! Spans are kept in a flat vector while the run is live (a parent is
//! always begun before its children, so vector order is parents-first)
//! and only converted to [`cnr_obs::Span`]s, validated and written out
//! when the run ends.

use check_n_run::obs::span::validate_tree;
use check_n_run::obs::{export, Obs, Span, SpanId, SpanKind};
use std::time::{Duration, Instant};

/// One recorded span; ids are indices into [`Tracer::spans`].
#[derive(Debug, Clone)]
pub struct RawSpan {
    /// Taxonomy name, `<layer>.<what>`.
    pub name: &'static str,
    /// Parent span index.
    pub parent: Option<usize>,
    /// Start, since the tracer's epoch.
    pub start: Duration,
    /// End, since the tracer's epoch.
    pub end: Duration,
    /// Whether the span may overlap its siblings (worker threads).
    pub concurrent: bool,
}

impl RawSpan {
    /// Span length in seconds.
    pub fn secs(&self) -> f64 {
        self.end.saturating_sub(self.start).as_secs_f64()
    }
}

/// What [`Tracer::time`] measured.
#[derive(Debug)]
pub struct Timed<T> {
    /// The timed call's result.
    pub out: T,
    /// Its wall time, seconds.
    pub secs: f64,
    /// Its (closed) span.
    pub span: usize,
}

/// Span recorder on one wall-clock epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    /// Every span so far, parents before children.
    pub spans: Vec<RawSpan>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The epoch every stamp is relative to.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Opens a span now; close it with [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.epoch.elapsed();
        self.spans.push(RawSpan {
            name,
            parent,
            start: now,
            end: now,
            concurrent: false,
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now and returns its length in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.epoch.elapsed();
        let span = &mut self.spans[id];
        span.end = now.max(span.start);
        span.secs()
    }

    /// Records an already measured child interval (a store call seen by
    /// `TimedStore`, possibly on a worker thread), clamped into its parent.
    pub fn record_child(
        &mut self,
        name: &'static str,
        parent: usize,
        start: Duration,
        end: Duration,
    ) -> usize {
        let (ps, pe) = (self.spans[parent].start, self.spans[parent].end);
        let start = start.clamp(ps, pe);
        let end = end.clamp(start, pe);
        self.spans.push(RawSpan {
            name,
            parent: Some(parent),
            start,
            end,
            concurrent: true,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a child span of `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> Timed<T> {
        let span = self.begin(name, parent);
        let out = f();
        let secs = self.end(span);
        Timed { out, secs, span }
    }

    /// Self time of span `id`: its duration minus the part of that
    /// interval its direct children cover (overlapping children count
    /// once).
    pub fn self_secs(&self, id: usize) -> f64 {
        self_time(&self.spans, id)
    }

    /// Converts to [`cnr_obs::Span`]s (ids assigned parents-first by a
    /// wall-clock [`Obs`]).
    pub fn to_obs_spans(&self) -> Vec<Span> {
        let obs = Obs::wall();
        let mut ids: Vec<SpanId> = Vec::with_capacity(self.spans.len());
        for raw in &self.spans {
            let mut span = Span::new(raw.name, raw.start, raw.end);
            if let Some(p) = raw.parent {
                span = span.with_parent(ids[p]);
            }
            if raw.concurrent {
                span = span.with_kind(SpanKind::Concurrent);
            }
            ids.push(obs.record(span));
        }
        obs.spans()
    }

    /// Validates the span tree; `Err` names the first violation.
    pub fn validate(&self) -> Result<(), String> {
        validate_tree(&self.to_obs_spans())
    }

    /// The trace as Chrome `trace_event` JSONL.
    pub fn to_jsonl(&self) -> String {
        export::chrome_trace_jsonl(&self.to_obs_spans())
    }
}

/// Self time of `spans[id]` in seconds: duration minus the union of its
/// direct children's intervals.
pub fn self_time(spans: &[RawSpan], id: usize) -> f64 {
    let me = &spans[id];
    let mut kids: Vec<(Duration, Duration)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .map(|s| (s.start.max(me.start), s.end.min(me.end)))
        .filter(|(s, e)| e > s)
        .collect();
    kids.sort();
    let mut covered = Duration::ZERO;
    let mut cursor = me.start;
    for (s, e) in kids {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (me.end.saturating_sub(me.start))
        .saturating_sub(covered)
        .as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ms: u64, end_ms: u64, concurrent: bool) -> RawSpan {
        RawSpan {
            name: "t",
            parent,
            start: Duration::from_millis(start_ms),
            end: Duration::from_millis(end_ms),
            concurrent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(None, 0, 100, false),
            // Two sequential children and a grandchild that must not count
            // against the root.
            span(Some(0), 10, 30, false),
            span(Some(0), 50, 70, false),
            span(Some(1), 12, 28, false),
        ];
        assert!((self_time(&spans, 0) - 0.060).abs() < 1e-9);
        assert!((self_time(&spans, 1) - 0.004).abs() < 1e-9);
        assert!((self_time(&spans, 3) - 0.016).abs() < 1e-9);
    }

    #[test]
    fn overlapping_children_are_covered_once() {
        let spans = vec![
            span(None, 0, 100, false),
            span(Some(0), 10, 60, true),
            span(Some(0), 40, 80, true),
            span(Some(0), 45, 50, true),
        ];
        // Children cover [10, 80): self time is 30 ms, not 100 - 95.
        assert!((self_time(&spans, 0) - 0.030).abs() < 1e-9);
    }

    #[test]
    fn recorded_trees_validate_and_export() {
        let mut t = Tracer::new();
        let root = t.begin("cycle", None);
        let timed = t.time("write.checkpoint", Some(root), || {
            std::thread::sleep(Duration::from_millis(2));
            7
        });
        assert_eq!(timed.out, 7);
        assert!(timed.secs >= 0.002);
        // Store calls are logged elsewhere and attached once the parent
        // has closed; one that overshoots is clamped into it.
        let (start, end) = (t.spans[timed.span].start, t.spans[timed.span].end);
        let child = t.record_child(
            "storage.put",
            timed.span,
            start,
            end + Duration::from_secs(1),
        );
        assert_eq!(t.spans[child].end, end);
        assert!(t.self_secs(timed.span) < 1e-9);
        t.end(root);
        t.validate().unwrap();
        let doc = t.to_jsonl();
        assert_eq!(doc.lines().count(), 3);
        export::validate_trace_jsonl(&doc).unwrap();
    }
}
