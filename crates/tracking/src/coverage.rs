//! Coverage: which rows of the model have been touched, and what fraction.
//!
//! The lazy restore planner's heat boost reads a [`CoverageAnalyzer`]: the
//! engine feeds it the tracker's modified rows, and
//! `RowHeat::boost_covered` ranks the rows it saw above the Zipf prior.
//! The analyzer consumes `(table, row)` access events; callers decide what
//! an "event" is (every lookup, or one event per modified row per batch).
//! The figure code that plots the paper's coverage curves (Figures 5 and
//! 6) runs its own loops over an analyzer.

use crate::bitvec::BitVec;

/// Incrementally computes the fraction of model rows touched.
#[derive(Debug, Clone)]
pub struct CoverageAnalyzer {
    tables: Vec<BitVec>,
    total_rows: usize,
    touched: usize,
}

impl CoverageAnalyzer {
    /// Creates an analyzer for tables with the given row counts.
    pub fn new(row_counts: &[usize]) -> Self {
        let total_rows = row_counts.iter().sum();
        Self {
            tables: row_counts.iter().map(|&n| BitVec::new(n)).collect(),
            total_rows,
            touched: 0,
        }
    }

    /// Observes an access to `(table, row)`.
    #[inline]
    pub fn observe(&mut self, table: usize, row: usize) {
        let bv = &mut self.tables[table];
        if !bv.get(row) {
            bv.set(row);
            self.touched += 1;
        }
    }

    /// Whether `(table, row)` has been observed since the last reset. The
    /// restore planner's heat model consults this to boost rows the current
    /// access window actually touched when ranking fetch priority.
    #[inline]
    pub fn is_touched(&self, table: usize, row: usize) -> bool {
        self.tables[table].get(row)
    }

    /// The rows of `table` observed since the last reset, ascending (none
    /// for a table the analyzer does not know): one step per set bit, so a
    /// caller that acts on touched rows only pays for those.
    pub fn touched_rows(&self, table: usize) -> impl Iterator<Item = usize> + '_ {
        self.tables.get(table).into_iter().flat_map(BitVec::iter_ones)
    }

    /// Current coverage fraction in `[0, 1]`.
    pub fn fraction(&self) -> f64 {
        if self.total_rows == 0 {
            0.0
        } else {
            self.touched as f64 / self.total_rows as f64
        }
    }

    /// Resets the analyzer (start of a new window or new starting point).
    pub fn reset(&mut self) {
        for bv in &mut self.tables {
            bv.clear_all();
        }
        self.touched = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn observe_deduplicates() {
        let mut a = CoverageAnalyzer::new(&[10, 10]);
        a.observe(0, 3);
        a.observe(0, 3);
        a.observe(1, 3);
        assert!((a.fraction() - 0.1).abs() < 1e-12, "two of twenty rows");
        assert!(a.is_touched(0, 3) && a.is_touched(1, 3));
        assert!(!a.is_touched(0, 4));
        assert_eq!(a.touched_rows(0).collect::<Vec<_>>(), vec![3]);
        assert_eq!(a.touched_rows(2).count(), 0, "unknown table");
    }

    #[test]
    fn reset_zeroes_coverage() {
        let mut a = CoverageAnalyzer::new(&[4]);
        a.observe(0, 0);
        a.reset();
        assert_eq!(a.fraction(), 0.0);
        assert!(!a.is_touched(0, 0));
        a.observe(0, 0);
        assert_eq!(a.fraction(), 0.25, "reset must clear the bit mask too");
    }

    #[test]
    fn zipf_like_stream_saturates_sublinearly() {
        // A skewed synthetic stream: hot rows repeat, so coverage at 2x the
        // samples is < 2x the coverage (sublinearity the paper relies on).
        let rows = 1000usize;
        let mut a = CoverageAnalyzer::new(&[rows]);
        let mut quarter = 0.0;
        for s in 0..4000u64 {
            if s == 1000 {
                quarter = a.fraction();
            }
            // crude skew: half the accesses hit the first 50 rows
            let row = if s % 2 == 0 {
                (s / 2 % 50) as usize
            } else {
                (s % rows as u64) as usize
            };
            a.observe(0, row);
        }
        let full = a.fraction();
        // 4x the samples yields far less than 4x the coverage: the repeated
        // hot rows stop contributing new coverage after the first window.
        assert!(quarter > 0.2, "early coverage too small: {quarter}");
        assert!(full < 2.0 * quarter, "coverage should grow sublinearly");
        assert!(full >= quarter, "cumulative coverage cannot shrink");
    }
}
