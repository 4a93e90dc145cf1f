//! Embedding-access traces: record once, replay anywhere.
//!
//! Two uses in this repository:
//!
//! 1. **Analysis** — Figures 5 and 6 of the paper are computed from access
//!    traces (which rows were touched when). Recording the trace once and
//!    replaying it against different window sizes is far cheaper than
//!    re-running training per window length.
//! 2. **Reproducibility** — a trace captured from one experiment can be
//!    replayed as the access stream of another (e.g. feeding the tracking
//!    ablation benches), removing model math from micro-benchmarks.


/// One embedding access: table `table`, row `row`, during batch `batch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Global batch index in which the access happened.
    pub batch: u64,
    /// Embedding table id.
    pub table: u32,
    /// Row index within the table.
    pub row: u32,
}

/// A compact in-memory access trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AccessTrace {
    events: Vec<TraceEvent>,
}

impl AccessTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a trace with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            events: Vec::with_capacity(cap),
        }
    }

    /// Appends an access event. Events must be appended in non-decreasing
    /// batch order; this is asserted in debug builds because the windowed
    /// replay below depends on it.
    pub fn record(&mut self, batch: u64, table: u32, row: u32) {
        debug_assert!(
            self.events.last().is_none_or(|e| e.batch <= batch),
            "trace events must be appended in batch order"
        );
        self.events.push(TraceEvent { batch, table, row });
    }

    /// All events in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events were recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Iterates over events whose batch index lies in `[from, to)`.
    pub fn window(&self, from: u64, to: u64) -> impl Iterator<Item = &TraceEvent> {
        let start = self.events.partition_point(|e| e.batch < from);
        let end = self.events.partition_point(|e| e.batch < to);
        self.events[start..end].iter()
    }

    /// Largest batch index present, or `None` for an empty trace.
    pub fn last_batch(&self) -> Option<u64> {
        self.events.last().map(|e| e.batch)
    }

    /// Counts distinct `(table, row)` pairs in `[from, to)`. This is the
    /// "fraction of model modified in a window" numerator of Figure 6.
    pub fn distinct_rows_in_window(&self, from: u64, to: u64) -> usize {
        let mut seen = std::collections::HashSet::new();
        for e in self.window(from, to) {
            seen.insert(((e.table as u64) << 32) | e.row as u64);
        }
        seen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> AccessTrace {
        let mut t = AccessTrace::new();
        t.record(0, 0, 5);
        t.record(0, 1, 5);
        t.record(1, 0, 5);
        t.record(1, 0, 6);
        t.record(3, 0, 7);
        t
    }

    #[test]
    fn window_selects_batch_range() {
        let t = sample_trace();
        let w: Vec<_> = t.window(1, 3).collect();
        assert_eq!(w.len(), 2);
        assert!(w.iter().all(|e| e.batch == 1));
    }

    #[test]
    fn window_bounds_are_half_open() {
        let t = sample_trace();
        assert_eq!(t.window(0, 1).count(), 2);
        assert_eq!(t.window(3, 4).count(), 1);
        assert_eq!(t.window(4, 100).count(), 0);
    }

    #[test]
    fn distinct_rows_deduplicates_within_window() {
        let t = sample_trace();
        // Batches [0,2): rows are (0,5), (1,5), (0,5), (0,6) -> 3 distinct.
        assert_eq!(t.distinct_rows_in_window(0, 2), 3);
    }

    #[test]
    fn distinct_rows_separates_tables() {
        let t = sample_trace();
        // (0,5) and (1,5) are different rows even though row id matches.
        assert_eq!(t.distinct_rows_in_window(0, 1), 2);
    }

    #[test]
    fn last_batch_and_len() {
        let t = sample_trace();
        assert_eq!(t.last_batch(), Some(3));
        assert_eq!(t.len(), 5);
        assert!(!t.is_empty());
        assert!(AccessTrace::new().is_empty());
        assert_eq!(AccessTrace::new().last_batch(), None);
    }
}
