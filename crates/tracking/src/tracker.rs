//! Per-model modification tracker.
//!
//! One [`AtomicBitVec`] per embedding table. The trainer marks rows during
//! the forward pass (the paper tracks reads as a proxy for writes, §5.1.1);
//! at a checkpoint boundary, the Check-N-Run engine takes a
//! [`TrackerSnapshot`] (optionally resetting the tracker for consecutive-
//! style deltas).

use crate::bitvec::{AtomicBitVec, BitVec};

/// Tracks which rows of which embedding tables were touched since the last
/// reset. Shared across trainer threads behind an `Arc`.
#[derive(Debug)]
pub struct ModificationTracker {
    tables: Vec<AtomicBitVec>,
}

impl ModificationTracker {
    /// Creates a tracker for tables with the given row counts.
    pub fn new(row_counts: &[usize]) -> Self {
        Self {
            tables: row_counts.iter().map(|&n| AtomicBitVec::new(n)).collect(),
        }
    }

    /// Number of tracked tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Rows in table `t`.
    pub fn rows_of(&self, t: usize) -> usize {
        self.tables[t].len()
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|b| b.len()).sum()
    }

    /// Marks row `row` of table `table` as modified. Lock-free.
    #[inline]
    pub fn mark(&self, table: usize, row: usize) {
        self.tables[table].set(row);
    }

    /// Marks a batch of rows of one table.
    pub fn mark_rows(&self, table: usize, rows: impl IntoIterator<Item = usize>) {
        let bv = &self.tables[table];
        for r in rows {
            bv.set(r);
        }
    }

    /// Rows currently marked (exact when trainers are quiesced).
    pub fn modified_rows(&self) -> usize {
        self.tables.iter().map(|b| b.count_ones()).sum()
    }

    /// Fraction of all rows currently marked.
    pub fn fraction_modified(&self) -> f64 {
        let total = self.total_rows();
        if total == 0 {
            0.0
        } else {
            self.modified_rows() as f64 / total as f64
        }
    }

    /// Copies the current state without resetting (one-shot incremental mode:
    /// the bit-vector keeps accumulating against the original baseline).
    pub fn snapshot(&self) -> TrackerSnapshot {
        TrackerSnapshot {
            tables: self.tables.iter().map(|b| b.snapshot()).collect(),
        }
    }

    /// Reads out the current state and resets all bits (consecutive
    /// incremental mode: each interval's delta starts from zero).
    ///
    /// Callers must quiesce trainers first; see
    /// [`AtomicBitVec::snapshot_and_reset`].
    pub fn snapshot_and_reset(&self) -> TrackerSnapshot {
        TrackerSnapshot {
            tables: self.tables.iter().map(|b| b.snapshot_and_reset()).collect(),
        }
    }

    /// Resets all bits without reading them.
    pub fn reset(&self) {
        for b in &self.tables {
            b.clear_all();
        }
    }

    /// Tracker memory footprint as a fraction of the model's embedding bytes
    /// (`dim` f32 values per row). The paper quotes <0.05%; with dim=64 this
    /// evaluates to 1/(64·4·8) ≈ 0.049%, matching.
    pub fn overhead_fraction(&self, dim: usize) -> f64 {
        let model_bytes: usize = self
            .tables
            .iter()
            .map(|b| b.len() * dim * std::mem::size_of::<f32>())
            .sum();
        if model_bytes == 0 {
            return 0.0;
        }
        let tracker_bytes: usize = self.tables.iter().map(|b| b.byte_size()).sum();
        tracker_bytes as f64 / model_bytes as f64
    }
}

/// An immutable snapshot of tracker state: one [`BitVec`] per table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackerSnapshot {
    /// Modified-row masks, indexed by table id.
    pub tables: Vec<BitVec>,
}

impl TrackerSnapshot {
    /// An all-zero snapshot with the given table sizes.
    pub fn empty(row_counts: &[usize]) -> Self {
        Self {
            tables: row_counts.iter().map(|&n| BitVec::new(n)).collect(),
        }
    }

    /// A snapshot with every row marked (used to express full checkpoints as
    /// a degenerate delta).
    pub fn full(row_counts: &[usize]) -> Self {
        let mut s = Self::empty(row_counts);
        for bv in &mut s.tables {
            for i in 0..bv.len() {
                bv.set(i);
            }
        }
        s
    }

    /// Number of marked rows across all tables.
    pub fn modified_rows(&self) -> usize {
        self.tables.iter().map(|b| b.count_ones()).sum()
    }

    /// Total rows across all tables.
    pub fn total_rows(&self) -> usize {
        self.tables.iter().map(|b| b.len()).sum()
    }

    /// Fraction of rows marked.
    pub fn fraction_modified(&self) -> f64 {
        let total = self.total_rows();
        if total == 0 {
            0.0
        } else {
            self.modified_rows() as f64 / total as f64
        }
    }

    /// Merges another snapshot into this one (union of modified sets).
    /// Table layouts must match.
    pub fn union_with(&mut self, other: &TrackerSnapshot) {
        assert_eq!(
            self.tables.len(),
            other.tables.len(),
            "snapshot table count mismatch"
        );
        for (a, b) in self.tables.iter_mut().zip(&other.tables) {
            a.union_with(b);
        }
    }

    /// Marked row indices of table `t`.
    pub fn rows_of(&self, t: usize) -> impl Iterator<Item = usize> + '_ {
        self.tables[t].iter_ones()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mark_and_fraction() {
        let t = ModificationTracker::new(&[100, 300]);
        assert_eq!(t.total_rows(), 400);
        t.mark(0, 5);
        t.mark(1, 299);
        t.mark(1, 299); // idempotent
        assert_eq!(t.modified_rows(), 2);
        assert!((t.fraction_modified() - 2.0 / 400.0).abs() < 1e-12);
    }

    #[test]
    fn snapshot_preserves_reset_clears() {
        let t = ModificationTracker::new(&[64]);
        t.mark(0, 1);
        t.mark(0, 63);
        let snap = t.snapshot();
        assert_eq!(snap.modified_rows(), 2);
        assert_eq!(t.modified_rows(), 2, "plain snapshot must not reset");
        let snap2 = t.snapshot_and_reset();
        assert_eq!(snap2, snap);
        assert_eq!(t.modified_rows(), 0);
    }

    #[test]
    fn mark_rows_bulk() {
        let t = ModificationTracker::new(&[50]);
        t.mark_rows(0, [1, 2, 3, 2, 1]);
        assert_eq!(t.modified_rows(), 3);
    }

    #[test]
    fn concurrent_marking_from_many_threads() {
        let t = Arc::new(ModificationTracker::new(&[10_000, 10_000]));
        let mut handles = Vec::new();
        for thread in 0..4usize {
            let t = Arc::clone(&t);
            handles.push(std::thread::spawn(move || {
                for i in 0..10_000usize {
                    if i % 4 == thread {
                        t.mark(0, i);
                        t.mark(1, i);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(t.modified_rows(), 20_000);
    }

    #[test]
    fn snapshot_union() {
        let mut a = TrackerSnapshot::empty(&[10]);
        let mut b = TrackerSnapshot::empty(&[10]);
        a.tables[0].set(1);
        b.tables[0].set(2);
        a.union_with(&b);
        assert_eq!(a.rows_of(0).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn full_snapshot_marks_everything() {
        let s = TrackerSnapshot::full(&[5, 7]);
        assert_eq!(s.modified_rows(), 12);
        assert!((s.fraction_modified() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overhead_fraction_matches_paper_claim() {
        // dim=64 f32 rows: 1 bit per 256 bytes = 0.0488% < 0.05% (paper §5.1.1).
        let t = ModificationTracker::new(&[1_000_000]);
        let f = t.overhead_fraction(64);
        assert!(f < 0.0005, "tracker overhead {f} exceeds paper bound");
        assert!(f > 0.0001, "tracker overhead {f} suspiciously small");
    }

    #[test]
    fn empty_tracker_edge_cases() {
        let t = ModificationTracker::new(&[]);
        assert_eq!(t.total_rows(), 0);
        assert_eq!(t.fraction_modified(), 0.0);
        assert_eq!(t.overhead_fraction(64), 0.0);
    }
}
