//! Wasted-work accounting for the fleet demo.
//!
//! The paper motivates checkpoint frequency with re-training cost (§1
//! criterion 2: "taking a checkpoint every 1000 batches may lead to wasting
//! time re-training those 1000 batches"). This module quantifies that
//! trade-off for a given checkpoint interval and failure history — the math
//! behind the `failure_recovery` example.

use std::time::Duration;

/// Accounting summary for one training run with failures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecoveryAccounting {
    /// Productive training time (equals the job's work requirement).
    pub useful_work: Duration,
    /// Time spent re-training lost progress.
    pub wasted_work: Duration,
    /// Time spent restoring checkpoints (restore latency × restore count).
    pub restore_time: Duration,
    /// Number of failures encountered.
    pub failures: usize,
    /// Total wall-clock time: useful + wasted + restores.
    pub total_time: Duration,
}

impl RecoveryAccounting {
    /// Fraction of total time wasted (re-training + restores).
    pub fn overhead_fraction(&self) -> f64 {
        if self.total_time.is_zero() {
            return 0.0;
        }
        let overhead = self.total_time - self.useful_work;
        overhead.as_secs_f64() / self.total_time.as_secs_f64()
    }
}

/// Computes recovery accounting for a job of `work` duration.
///
/// `failure_offsets` are times-to-failure measured from each (re)start (the
/// renewal-process view); `interval` is the checkpoint interval; `restore`
/// is the per-restore latency (load + de-quantize + warm-up).
pub fn account(
    work: Duration,
    failure_offsets: &[Duration],
    interval: Duration,
    restore: Duration,
) -> RecoveryAccounting {
    assert!(!interval.is_zero(), "checkpoint interval must be positive");
    let mut done = Duration::ZERO;
    let mut wasted = Duration::ZERO;
    let mut failures = 0usize;
    for &ttf in failure_offsets {
        if done >= work {
            break;
        }
        let progress_this_run = ttf.min(work - done);
        if progress_this_run < work - done {
            // Failed mid-run: keep whole intervals, lose the tail.
            let preserved_micros =
                (progress_this_run.as_micros() / interval.as_micros()) * interval.as_micros();
            let preserved = Duration::from_micros(preserved_micros as u64);
            done += preserved;
            wasted += progress_this_run - preserved;
            failures += 1;
        } else {
            done = work;
        }
    }
    // Run to completion after the last failure.
    let useful = work;
    let restore_time = restore * failures as u32;
    RecoveryAccounting {
        useful_work: useful,
        wasted_work: wasted,
        restore_time,
        failures,
        total_time: useful + wasted + restore_time,
    }
}

/// Expected wasted work per failure for a given interval, assuming failures
/// land uniformly inside an interval: `interval / 2`.
pub fn expected_waste_per_failure(interval: Duration) -> Duration {
    interval / 2
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: Duration = Duration::from_secs(3600);
    const MIN: Duration = Duration::from_secs(60);

    #[test]
    fn no_failures_no_overhead() {
        let acc = account(10 * HOUR, &[100 * HOUR], 30 * MIN, 5 * MIN);
        assert_eq!(acc.failures, 0);
        assert_eq!(acc.wasted_work, Duration::ZERO);
        assert_eq!(acc.total_time, 10 * HOUR);
        assert_eq!(acc.overhead_fraction(), 0.0);
    }

    #[test]
    fn failure_wastes_partial_interval() {
        // Fails after 45 minutes with 30-minute checkpoints: 15 minutes lost.
        let acc = account(10 * HOUR, &[45 * MIN, 100 * HOUR], 30 * MIN, MIN);
        assert_eq!(acc.failures, 1);
        assert_eq!(acc.wasted_work, 15 * MIN);
        assert_eq!(acc.restore_time, MIN);
        assert_eq!(acc.total_time, 10 * HOUR + 15 * MIN + MIN);
    }

    #[test]
    fn failure_just_after_checkpoint_wastes_nothing() {
        let acc = account(10 * HOUR, &[30 * MIN, 100 * HOUR], 30 * MIN, MIN);
        assert_eq!(acc.wasted_work, Duration::ZERO);
        assert_eq!(acc.failures, 1);
    }

    #[test]
    fn repeated_early_failures_accumulate() {
        // Three failures at 10 minutes into each run: 30 minutes wasted total,
        // nothing ever preserved (interval 30 min > 10 min progress).
        let acc = account(
            HOUR,
            &[10 * MIN, 10 * MIN, 10 * MIN, 100 * HOUR],
            30 * MIN,
            MIN,
        );
        assert_eq!(acc.failures, 3);
        assert_eq!(acc.wasted_work, 30 * MIN);
    }

    #[test]
    fn shorter_intervals_waste_less() {
        let failures = [47 * MIN, 23 * MIN, 55 * MIN, 100 * HOUR];
        let overhead: Vec<f64> = [5 * MIN, 30 * MIN, 2 * HOUR]
            .into_iter()
            .map(|ivl| account(8 * HOUR, &failures, ivl, MIN).overhead_fraction())
            .collect();
        assert!(overhead[0] <= overhead[1], "5min should waste <= 30min");
        assert!(overhead[1] <= overhead[2], "30min should waste <= 2h");
    }

    #[test]
    fn expected_waste_is_half_interval() {
        assert_eq!(expected_waste_per_failure(30 * MIN), 15 * MIN);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_panics() {
        account(HOUR, &[], Duration::ZERO, MIN);
    }
}
