//! Restore accounting: where a recovery landed and what it cost.
//!
//! The paper's downtime model (§2, §5) counts not just lost training but
//! the time a preempted job spends fetching, de-quantizing, and rebuilding
//! model state before it is ready to train again. [`ResumeBreakdown`] is
//! one sharded restore's fetch/decode/merge accounting; the engine records
//! each one once, as a `ResumeStats` row of its run statistics, and lays
//! its [`ResumeBreakdown::phases`] out as the `restore` span tree.

use cnr_obs::names;
use std::time::Duration;

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
            (names::SPAN_RESTORE_DRAIN_WAIT, self.drain_wait),
            (names::SPAN_RESTORE_FETCH, self.fetch),
            (names::SPAN_RESTORE_DECODE, self.decode),
            (names::SPAN_RESTORE_MERGE, self.merge),
            (names::SPAN_RESTORE_WAL_REPLAY, self.wal_replay),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
