//! Wasted-work and recovery-time accounting.
//!
//! The paper motivates checkpoint frequency with re-training cost (§1
//! criterion 2: "taking a checkpoint every 1000 batches may lead to wasting
//! time re-training those 1000 batches"). This module quantifies that
//! trade-off for a given checkpoint interval and failure history — the math
//! behind the `failure_recovery` example and the interval-sweep ablation.
//!
//! It also owns the cluster-side view of the *restore* path: the paper's
//! downtime model (§2, §5) counts not just lost training but the time a
//! preempted job spends fetching, de-quantizing, and rebuilding model state
//! before it is ready to train again. [`ResumeBreakdown`] is one sharded
//! restore's fetch/decode/merge accounting; the engine records each one
//! once, as a `ResumeStats` row of its run statistics (reader-host deaths
//! mid-restore are sampled straight from a
//! [`FailureModel`](crate::failure::FailureModel), the way writer-host
//! deaths are).

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

/// Where a recovery landed the job, relative to the failure instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestorePoint {
    /// Restored to the last full checkpoint; everything trained since is
    /// lost (the paper's baseline recovery semantics).
    Checkpoint,
    /// Restored to the last full checkpoint *plus* the replayed tail of
    /// the delta WAL — lost work collapses to at most the iterations after
    /// the last durable log frame.
    WalTip,
}

/// How a restore brought the model back before training resumed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreMode {
    /// Every chunk of the chain was applied before the first batch
    /// (all-or-nothing restore — the paper's baseline semantics).
    Eager,
    /// Training resumed once the dense layers and the hot top-K rows were
    /// applied (CPR-style partial recovery); the cold tail drained in the
    /// background, with misses fault-ing rows in on demand.
    Lazy,
}

/// Time-to-resume accounting of one sharded restore: how long each stage
/// of the recovery pipeline took before the job was ready to train again.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResumeBreakdown {
    /// Simulated time between the failure instant and the durability point
    /// of the checkpoint being restored. With overlapped interval
    /// boundaries a failure can land while the newest checkpoint's upload
    /// drain is still in flight; the engine assumes the decoupled upload
    /// path outlives the preempted job (§4.3/§4.4 relaxation, documented
    /// on `Engine::simulate_failure_and_restore`) and waits the drain out
    /// — this field makes that wait explicit in time-to-resume instead of
    /// silently shifting the resume clock. Zero when the checkpoint was
    /// already durable at the failure instant.
    pub drain_wait: Duration,
    /// Simulated time the parallel chunk fetch occupied the reader hosts'
    /// downlinks (the bandwidth-bound stage that sharding attacks).
    pub fetch: Duration,
    /// CPU time spent decoding + de-quantizing chunk payloads — each row
    /// straight into its place in the model state — summed over decode
    /// threads (overlapped with fetch inside each shard reader, reported
    /// un-overlapped).
    pub decode: Duration,
    /// Time of the serial tail that closes the merge once every row is in
    /// place: completeness, incremental-row union, zeroing unwritten rows.
    pub merge: Duration,
    /// Reader hosts that participated in the fetch.
    pub reader_hosts: usize,
    /// Logical bytes fetched from the store.
    pub bytes_fetched: u64,
    /// Chunks fetched across the whole restore chain.
    pub chunks_fetched: u64,
    /// Chunks re-sharded onto surviving hosts after a reader host died
    /// mid-restore (zero in the failure-free case).
    pub rescheduled_chunks: u64,
    /// Envelope verification failures detected while fetching (each failed
    /// verification counts, including repeat failures of one chunk).
    pub corruption_detected: u64,
    /// Chunks that failed verification and were then served clean by a
    /// re-fetch from another replica.
    pub corruption_repaired: u64,
    /// Whole-chunk re-fetches performed to heal (or attempt to heal)
    /// corruption — distinct from transient I/O retries of single ranges.
    pub corruption_refetches: u64,
    /// Where this recovery landed: the bare checkpoint, or the WAL tip.
    pub restore_point: RestorePoint,
    /// Simulated time spent replaying the delta-WAL tail (zero when the
    /// WAL is disabled or empty).
    pub wal_replay: Duration,
    /// Iterations recovered by replaying the WAL on top of the checkpoint.
    pub wal_replayed_iterations: u64,
    /// Iterations of training lost despite recovery: the gap between the
    /// model iteration at the failure instant and the restored iteration.
    /// With the WAL enabled and synced per iteration this is ≤ 1; without
    /// it, up to a whole checkpoint interval.
    pub lost_iterations: u64,
    /// Time until the first training batch could run. For an eager restore
    /// this equals [`Self::time_to_resume`]; for a lazy one it stops at the
    /// hot set's arrival (plus decode/merge/WAL replay) while the cold tail
    /// keeps draining past it.
    pub time_to_first_batch: Duration,
    /// Whether this restore was eager (all chunks before first batch) or
    /// lazy (hot set only, cold tail deferred).
    pub mode: RestoreMode,
}

impl ResumeBreakdown {
    /// Total time-to-resume: any wait for the restored checkpoint's upload
    /// drain, plus the simulated fetch, plus the CPU-bound decode and
    /// merge stages, plus any WAL tail replay.
    pub fn time_to_resume(&self) -> Duration {
        self.drain_wait + self.fetch + self.decode + self.merge + self.wal_replay
    }

    /// The sequential phases of [`Self::time_to_resume`], in execution
    /// order, as `(span name, duration)` pairs. This is the single source
    /// of truth for the restore span layout: the observability layer lays
    /// these end to end under the `restore` root span, so their sum is the
    /// root's duration *by construction* and the span-tree invariant checks
    /// reduce to this identity.
    pub fn phases(&self) -> [(&'static str, Duration); 5] {
        [
            ("restore.drain_wait", self.drain_wait),
            ("restore.fetch", self.fetch),
            ("restore.decode", self.decode),
            ("restore.merge", self.merge),
            ("restore.wal_replay", self.wal_replay),
        ]
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

/// Sweeps checkpoint intervals and reports total overhead fraction for each,
/// given a fixed failure history. Demonstrates the frequency/bandwidth
/// trade-off that Check-N-Run's bandwidth savings relax.
pub fn interval_sweep(
    work: Duration,
    failure_offsets: &[Duration],
    intervals: &[Duration],
    restore: Duration,
) -> Vec<(Duration, f64)> {
    intervals
        .iter()
        .map(|&ivl| {
            let acc = account(work, failure_offsets, ivl, restore);
            (ivl, acc.overhead_fraction())
        })
        .collect()
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
        let sweep = interval_sweep(
            8 * HOUR,
            &failures,
            &[5 * MIN, 30 * MIN, 2 * HOUR],
            MIN,
        );
        assert!(sweep[0].1 <= sweep[1].1, "5min should waste <= 30min");
        assert!(sweep[1].1 <= sweep[2].1, "30min should waste <= 2h");
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

    fn breakdown(fetch_s: u64, decode_ms: u64, merge_ms: u64) -> ResumeBreakdown {
        ResumeBreakdown {
            drain_wait: Duration::ZERO,
            fetch: Duration::from_secs(fetch_s),
            decode: Duration::from_millis(decode_ms),
            merge: Duration::from_millis(merge_ms),
            reader_hosts: 4,
            bytes_fetched: 1 << 20,
            chunks_fetched: 16,
            rescheduled_chunks: 0,
            corruption_detected: 0,
            corruption_repaired: 0,
            corruption_refetches: 0,
            restore_point: RestorePoint::Checkpoint,
            wal_replay: Duration::ZERO,
            wal_replayed_iterations: 0,
            lost_iterations: 0,
            time_to_first_batch: Duration::from_secs(fetch_s)
                + Duration::from_millis(decode_ms + merge_ms),
            mode: RestoreMode::Eager,
        }
    }

    #[test]
    fn breakdown_totals_all_stages() {
        let b = breakdown(10, 500, 250);
        assert_eq!(b.time_to_resume(), Duration::from_millis(10_750));
        // A failure that lands mid-drain pays the wait in time-to-resume.
        let waited = ResumeBreakdown {
            drain_wait: Duration::from_secs(2),
            ..b
        };
        assert_eq!(waited.time_to_resume(), Duration::from_millis(12_750));
        // WAL tail replay is part of time-to-resume too.
        let replayed = ResumeBreakdown {
            wal_replay: Duration::from_millis(250),
            restore_point: RestorePoint::WalTip,
            wal_replayed_iterations: 7,
            ..b
        };
        assert_eq!(replayed.time_to_resume(), Duration::from_millis(11_000));
    }
}
