//! Spans: named, parented time intervals.
//!
//! A [`Span`] is one phase of work — a snapshot stall, a shard fetch, a WAL
//! replay — with an explicit parent edge. The engine's phase durations are
//! known *after* the fact (the simulator computes a phase's length and then
//! advances the clock past it), so recording is retrospective: build a
//! [`Span`] with explicit `start`/`end` stamps and [`Obs::record`] it.
//!
//! # Tree invariants
//!
//! Recorded spans form a forest. Producers in this workspace maintain, and
//! [`validate_tree`] checks:
//!
//! 1. ids are unique and every `parent` id was recorded earlier;
//! 2. a child's `[start, end]` lies within its parent's;
//! 3. per parent, the summed duration of [`SpanKind::Sync`] children never
//!    exceeds the parent's duration (sync children are laid out
//!    sequentially; [`SpanKind::Concurrent`] children overlap each other —
//!    per-host fetches, background uploads — and are exempt from the sum
//!    rule, though each must still fit inside the parent).

use crate::clock::{Clock, WallClock};
use crate::metrics::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Identifier of a recorded span, unique within one [`Obs`] handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

/// How a span relates to its siblings under the same parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpanKind {
    /// Sequential phase: sync siblings partition the parent's duration, so
    /// their summed length must not exceed it.
    #[default]
    Sync,
    /// Overlapping work (per-host fetches, background upload drains, lazy
    /// fault-in): bounded by the parent but exempt from the sibling sum
    /// rule.
    Concurrent,
}

/// One named, parented time interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id, assigned by [`Obs::record`] (zero until recorded).
    pub id: SpanId,
    /// Parent edge; `None` for roots.
    pub parent: Option<SpanId>,
    /// Taxonomy name, e.g. `"restore.fetch"` (see README's span table).
    pub name: &'static str,
    /// Start stamp, in the recording clock's epoch.
    pub start: Duration,
    /// End stamp; `end >= start`.
    pub end: Duration,
    /// Sibling relation; see [`SpanKind`].
    pub kind: SpanKind,
    /// Display lane (Chrome trace `tid`); hosts map to lanes.
    pub track: u64,
    /// Free-form key/value annotations.
    pub attrs: Vec<(&'static str, String)>,
}

impl Span {
    /// A root sync span on track 0 with no attrs; chain the `with_*`
    /// builders and pass to [`Obs::record`].
    pub fn new(name: &'static str, start: Duration, end: Duration) -> Self {
        debug_assert!(end >= start, "span {name} ends before it starts");
        Self {
            id: SpanId(0),
            parent: None,
            name,
            start,
            end,
            kind: SpanKind::Sync,
            track: 0,
            attrs: Vec::new(),
        }
    }

    /// Sets the parent edge.
    pub fn with_parent(mut self, parent: SpanId) -> Self {
        self.parent = Some(parent);
        self
    }

    /// Sets the sibling relation.
    pub fn with_kind(mut self, kind: SpanKind) -> Self {
        self.kind = kind;
        self
    }

    /// Sets the display lane.
    pub fn with_track(mut self, track: u64) -> Self {
        self.track = track;
        self
    }

    /// Appends one annotation.
    pub fn with_attr(mut self, key: &'static str, value: impl Into<String>) -> Self {
        self.attrs.push((key, value.into()));
        self
    }

    /// Span length.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

struct ObsInner {
    clock: Arc<dyn Clock>,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    registry: MetricsRegistry,
}

/// Cheaply clonable observability handle: a clock, a span buffer and a
/// metrics registry.
///
/// All clones share state; the engine owns one and threads clones through
/// its subsystems.
#[derive(Clone)]
pub struct Obs {
    inner: Arc<ObsInner>,
}

impl std::fmt::Debug for Obs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Obs")
            .field("spans", &self.inner.spans.lock().expect("span buffer poisoned").len())
            .finish_non_exhaustive()
    }
}

impl Obs {
    /// An observability handle stamping time from `clock`.
    pub fn new(clock: Arc<dyn Clock>) -> Self {
        Self {
            inner: Arc::new(ObsInner {
                clock,
                next_id: AtomicU64::new(1),
                spans: Mutex::new(Vec::new()),
                registry: MetricsRegistry::new(),
            }),
        }
    }

    /// A handle on wall-clock time (epoch = now); convenient for tests and
    /// CPU-phase measurement outside the simulator.
    pub fn wall() -> Self {
        Self::new(Arc::new(WallClock::new()))
    }

    /// Current time on the recording clock.
    pub fn now(&self) -> Duration {
        self.inner.clock.now()
    }

    /// The shared metrics registry.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.inner.registry
    }

    /// Records a completed span, assigning its id.
    pub fn record(&self, mut span: Span) -> SpanId {
        let id = SpanId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        span.id = id;
        let mut spans = self.inner.spans.lock().expect("span buffer poisoned");
        spans.push(span);
        id
    }

    /// Snapshot of every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Checks the tree invariants over a recorded span set (see module docs);
/// returns a description of the first violation.
pub fn validate_tree(spans: &[Span]) -> Result<(), String> {
    use std::collections::BTreeMap;
    let mut by_id: BTreeMap<SpanId, &Span> = BTreeMap::new();
    for s in spans {
        if s.id.0 == 0 {
            return Err(format!("span {:?} was never recorded (id 0)", s.name));
        }
        if s.end < s.start {
            return Err(format!("span {} ends before it starts", s.name));
        }
        if by_id.insert(s.id, s).is_some() {
            return Err(format!("duplicate span id {:?}", s.id));
        }
    }
    let mut sync_sums: BTreeMap<SpanId, Duration> = BTreeMap::new();
    for s in spans {
        if let Some(pid) = s.parent {
            let parent = by_id
                .get(&pid)
                .ok_or_else(|| format!("span {} references unknown parent {:?}", s.name, pid))?;
            if pid >= s.id {
                return Err(format!("span {} recorded before its parent {}", s.name, parent.name));
            }
            if s.start < parent.start || s.end > parent.end {
                return Err(format!(
                    "child {} [{:?}, {:?}] escapes parent {} [{:?}, {:?}]",
                    s.name, s.start, s.end, parent.name, parent.start, parent.end
                ));
            }
            if s.kind == SpanKind::Sync {
                *sync_sums.entry(pid).or_default() += s.duration();
            }
        }
    }
    for (pid, sum) in sync_sums {
        let parent = by_id[&pid];
        if sum > parent.duration() {
            return Err(format!(
                "sync children of {} sum to {:?}, exceeding parent duration {:?}",
                parent.name,
                sum,
                parent.duration()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;

    fn manual_obs() -> Obs {
        Obs::new(Arc::new(ManualClock::new()))
    }

    #[test]
    fn record_assigns_increasing_ids_and_keeps_order() {
        let obs = manual_obs();
        let a = obs.record(Span::new("a", Duration::ZERO, Duration::from_secs(1)));
        let b = obs.record(Span::new("b", Duration::ZERO, Duration::from_secs(1)));
        assert!(b > a);
        let spans = obs.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "a");
        assert_eq!(spans[0].id, a);
    }

    #[test]
    fn validate_accepts_sequential_children() {
        let obs = manual_obs();
        let s = |a: u64, b: u64| (Duration::from_millis(a), Duration::from_millis(b));
        let (rs, re) = s(0, 10);
        let root = obs.record(Span::new("root", rs, re));
        let (a, b) = s(0, 4);
        obs.record(Span::new("x", a, b).with_parent(root));
        let (a, b) = s(4, 10);
        obs.record(Span::new("y", a, b).with_parent(root));
        validate_tree(&obs.spans()).unwrap();
    }

    #[test]
    fn validate_rejects_escaping_child() {
        let obs = manual_obs();
        let root = obs.record(Span::new("root", Duration::ZERO, Duration::from_millis(5)));
        obs.record(
            Span::new("late", Duration::from_millis(4), Duration::from_millis(9)).with_parent(root),
        );
        assert!(validate_tree(&obs.spans()).unwrap_err().contains("escapes"));
    }

    #[test]
    fn validate_rejects_oversubscribed_sync_children() {
        let obs = manual_obs();
        let root = obs.record(Span::new("root", Duration::ZERO, Duration::from_millis(5)));
        for _ in 0..2 {
            obs.record(
                Span::new("c", Duration::ZERO, Duration::from_millis(4)).with_parent(root),
            );
        }
        assert!(validate_tree(&obs.spans()).unwrap_err().contains("sync children"));
    }

    #[test]
    fn validate_allows_overlapping_concurrent_children() {
        let obs = manual_obs();
        let root = obs.record(Span::new("root", Duration::ZERO, Duration::from_millis(5)));
        for _ in 0..3 {
            obs.record(
                Span::new("host", Duration::ZERO, Duration::from_millis(5))
                    .with_parent(root)
                    .with_kind(SpanKind::Concurrent),
            );
        }
        validate_tree(&obs.spans()).unwrap();
    }

    #[test]
    fn validate_rejects_unknown_parent() {
        let obs = manual_obs();
        obs.record(Span::new("orphan", Duration::ZERO, Duration::ZERO).with_parent(SpanId(42)));
        assert!(validate_tree(&obs.spans()).unwrap_err().contains("unknown parent"));
    }
}
