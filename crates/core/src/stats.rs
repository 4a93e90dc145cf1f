//! Per-interval bandwidth and capacity accounting (Figures 15–17).
//!
//! The paper reports every storage result normalized to the model size:
//! checkpoint bytes per interval as "% of model size" (bandwidth proxy,
//! Figure 15), live bytes per interval (capacity, Figure 16), and
//! combined-technique reduction factors vs an unquantized full-checkpoint
//! baseline (Figure 17). [`RunStats`] accumulates exactly those series,
//! beside one [`ResumeStats`] record per recovery.

use crate::manifest::{CheckpointId, CheckpointKind};
use cnr_obs::names;
use std::time::Duration;

/// Accounting for one checkpoint interval.
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalStats {
    /// Interval number (0-based).
    pub interval: u32,
    /// Checkpoint taken at the end of this interval.
    pub checkpoint: CheckpointId,
    /// Full baseline or incremental.
    pub kind: CheckpointKind,
    /// Logical bytes stored for this checkpoint (chunks, dense object and
    /// manifest).
    pub stored_bytes: u64,
    /// `stored_bytes` as a fraction of the FP32 full-model reference.
    pub stored_fraction: f64,
    /// Live bytes across all retained checkpoints after retention.
    pub capacity_bytes: u64,
    /// `capacity_bytes` as a fraction of the FP32 full-model reference.
    pub capacity_fraction: f64,
    /// Simulated time for the checkpoint to become durable.
    pub write_latency: Duration,
    /// Training stall charged by the snapshot.
    pub stall: Duration,
    /// Time spent quantizing: each chunk's wall-clock quantize and encode
    /// time, summed over the workers. Not CPU time: a worker waiting for
    /// a core counts.
    pub quantize_cpu_time: Duration,
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

/// The one record of a recovery (restore) event — the time-to-resume
/// breakdown of the paper's downtime model (§2, §5): a preempted job is
/// down until its state is fetched, de-quantized, and merged.
///
/// The sharded restore fills it ([`crate::read::ShardedRestore::breakdown`]);
/// the engine completes it in place (`resume`, `drain_wait`, the WAL
/// fields), pushes it into its run statistics, mirrors it into the
/// registry and lays its [`ResumeStats::phases`] out as the `restore` span
/// tree — so the row, the metrics and the spans can only agree.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeStats {
    /// Resume number (0-based).
    pub resume: u32,
    /// Checkpoint the job resumed from.
    pub checkpoint: CheckpointId,
    /// Reader hosts that fetched the chain in parallel.
    pub reader_hosts: usize,
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
    /// Simulated time the sharded fetch took (restore start → last byte
    /// on the reader hosts' downlinks): the manifest walk, the write-ahead
    /// log's segments (at the head of the hosts' lists) and the chunks.
    pub fetch: Duration,
    /// CPU time spent decoding + de-quantizing chunks into the model's
    /// tables, summed over decode threads (overlapped with fetch inside
    /// each shard reader, reported un-overlapped).
    pub decode: Duration,
    /// Time of the merge's serial tail (completeness, incremental-row
    /// union, zeroing rows no chunk wrote).
    pub merge: Duration,
    /// Logical bytes fetched (chunks, manifests, the newest level's dense
    /// object and write-ahead log segments).
    pub bytes_fetched: u64,
    /// Chunks fetched across the whole restore chain.
    pub chunks_fetched: u64,
    /// Chunks re-sharded onto surviving hosts after a reader host died
    /// mid-restore (zero in the failure-free case).
    pub rescheduled_chunks: u64,
    /// Envelope verification failures detected while fetching (each failed
    /// verification counts, including repeat failures of one chunk).
    pub corruption_detected: u64,
    /// Corrupt chunks healed by re-fetching from another replica.
    pub corruption_repaired: u64,
    /// Whole-chunk re-fetches performed to heal corruption, kept separate
    /// from transient I/O retries so flaky networks and rotten replicas
    /// stay distinguishable in the run record.
    pub corruption_refetches: u64,
    /// Whether the job resumed at the bare checkpoint or at the WAL tip.
    pub restore_point: RestorePoint,
    /// Simulated time a delta-WAL replay adds after the fetch: zero. The
    /// log's segments are items of the restore's fetch plan, read inside
    /// [`Self::fetch`] (the `restore.wal_replay` span under `restore.fetch`
    /// shows their arrival), so this is not one of [`Self::phases`]; the
    /// field stays for readers that sum it.
    pub wal_replay: Duration,
    /// Iterations recovered by WAL replay on top of the checkpoint.
    pub wal_replayed_iterations: u64,
    /// Iterations lost despite recovery (failure-instant iteration minus
    /// restored iteration). ≤ 1 with a per-iteration WAL; up to a whole
    /// interval without one.
    pub lost_iterations: u64,
    /// Time until the first training batch could run: equal to
    /// [`Self::time_to_resume`] for eager restores; for a lazy one it stops
    /// at the arrival of the log's segments and the hot set (plus
    /// drain wait, decode and merge) while the cold tail keeps draining
    /// past it.
    pub time_to_first_batch: Duration,
    /// Whether the restore was eager or lazy (CPR-style partial recovery).
    pub mode: RestoreMode,
    /// Rows faulted in synchronously because training touched them before
    /// the background drain finished (lazy restores only; counted, never
    /// silently dropped).
    pub fault_in_fetches: u64,
    /// Simulated time charged to those synchronous fault-in fetches.
    pub fault_in_time: Duration,
}

impl ResumeStats {
    /// Total time-to-resume: any wait for the restored checkpoint's upload
    /// drain, plus the simulated fetch (the WAL tail's reads included),
    /// plus the CPU-bound decode and merge stages. Lazy restores additionally
    /// pay [`Self::fault_in_time`] *after* resuming — that cost accrues to
    /// the training timeline, not to this total.
    pub fn time_to_resume(&self) -> Duration {
        self.phases().iter().map(|&(_, d)| d).sum()
    }

    /// The sequential phases of [`Self::time_to_resume`], in execution
    /// order, as `(span name, duration)` pairs. This is the single source
    /// of truth for the restore span layout: the observability layer lays
    /// these end to end under the `restore` root span, so their sum is the
    /// root's duration *by construction* and the span-tree invariant checks
    /// reduce to this identity.
    pub fn phases(&self) -> [(&'static str, Duration); 4] {
        [
            (names::SPAN_RESTORE_DRAIN_WAIT, self.drain_wait),
            (names::SPAN_RESTORE_FETCH, self.fetch),
            (names::SPAN_RESTORE_DECODE, self.decode),
            (names::SPAN_RESTORE_MERGE, self.merge),
        ]
    }
}

/// Writer-side delta-WAL accounting for a whole run (all zeros when the
/// WAL is disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalRunStats {
    /// Delta records appended.
    pub appends: u64,
    /// Durability syncs performed.
    pub syncs: u64,
    /// Frame bytes appended to the log.
    pub bytes_appended: u64,
    /// Segments put: one per successful sync, so it equals `syncs`.
    pub segments_rotated: u64,
    /// Log truncations: one per registered checkpoint, full or
    /// incremental — each supersedes the log. A truncate that failed
    /// counts too.
    pub truncations: u64,
    /// Simulated training time charged for syncs — the WAL's steady-state
    /// overhead numerator.
    pub sync_time: Duration,
}

/// Accounting for one background scrub sweep over the job's live objects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScrubStats {
    /// Sweep number (0-based).
    pub sweep: u32,
    /// Simulated time at which the sweep ran.
    pub at: Duration,
    /// What the sweep found and fixed.
    pub findings: cnr_cluster::ScrubFindings,
}

/// Accumulated statistics of one training run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Reference size: the FP32 cost of checkpointing the whole model once
    /// (embeddings + optimizer state + MLPs).
    pub full_reference_bytes: u64,
    /// Per-interval records in order.
    pub intervals: Vec<IntervalStats>,
    /// Per-recovery records in order.
    pub resumes: Vec<ResumeStats>,
    /// Per-scrub-sweep records in order.
    pub scrubs: Vec<ScrubStats>,
    /// Writer-side delta-WAL accounting (all zeros when disabled).
    pub wal: WalRunStats,
}

impl RunStats {
    /// Creates stats with the FP32 full-model reference size.
    pub fn new(full_reference_bytes: u64) -> Self {
        Self {
            full_reference_bytes,
            intervals: Vec::new(),
            resumes: Vec::new(),
            scrubs: Vec::new(),
            wal: WalRunStats::default(),
        }
    }

    /// Appends one interval record.
    pub fn push(&mut self, stats: IntervalStats) {
        self.intervals.push(stats);
    }

    /// Appends one recovery record.
    pub fn push_resume(&mut self, stats: ResumeStats) {
        self.resumes.push(stats);
    }

    /// Appends one scrub-sweep record.
    pub fn push_scrub(&mut self, stats: ScrubStats) {
        self.scrubs.push(stats);
    }

    /// Aggregate scrub findings across every recorded sweep.
    pub fn scrub_totals(&self) -> cnr_cluster::ScrubFindings {
        let mut total = cnr_cluster::ScrubFindings::default();
        for s in &self.scrubs {
            total.accumulate(s.findings);
        }
        total
    }

    /// Total time the run spent resuming from checkpoints.
    pub fn total_resume_time(&self) -> Duration {
        self.resumes.iter().map(ResumeStats::time_to_resume).sum()
    }

    /// Mean bytes stored per interval — the average write bandwidth proxy —
    /// or `None` when no interval has completed: the typed empty state
    /// ("no intervals" is not "empty checkpoints").
    pub fn try_mean_stored_bytes(&self) -> Option<f64> {
        (!self.intervals.is_empty()).then(|| {
            self.intervals.iter().map(|i| i.stored_bytes as f64).sum::<f64>()
                / self.intervals.len() as f64
        })
    }

    /// Mean stored fraction per interval (Figure 15's average height), or
    /// `None` when no interval has completed — the typed empty state.
    pub fn try_mean_stored_fraction(&self) -> Option<f64> {
        (!self.intervals.is_empty()).then(|| {
            self.intervals.iter().map(|i| i.stored_fraction).sum::<f64>()
                / self.intervals.len() as f64
        })
    }

    /// Peak capacity fraction across intervals (Figure 16's max height, the
    /// quantity Figure 17 reports reductions against).
    pub fn peak_capacity_fraction(&self) -> f64 {
        self.intervals
            .iter()
            .map(|i| i.capacity_fraction)
            .fold(0.0, f64::max)
    }

    /// Average-bandwidth reduction factor vs a baseline that writes a full
    /// FP32 checkpoint every interval (Figure 17, left bars): +∞ when the
    /// mean stored size is zero, `None` when no interval has completed
    /// (the reduction of an empty run is undefined, not infinite).
    pub fn try_bandwidth_reduction_vs_full(&self) -> Option<f64> {
        let mean = self.try_mean_stored_bytes()?;
        Some(if mean == 0.0 { f64::INFINITY } else { self.full_reference_bytes as f64 / mean })
    }

    /// Peak-capacity reduction factor vs a baseline that keeps one full
    /// FP32 checkpoint (Figure 17, right bars): +∞ when the peak capacity
    /// fraction is zero, `None` when no interval has completed.
    pub fn try_capacity_reduction_vs_full(&self) -> Option<f64> {
        if self.intervals.is_empty() {
            return None;
        }
        let peak = self.peak_capacity_fraction();
        Some(if peak == 0.0 { f64::INFINITY } else { 1.0 / peak })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(i: u32, kind: CheckpointKind, stored: u64, capacity: u64) -> IntervalStats {
        IntervalStats {
            interval: i,
            checkpoint: CheckpointId(i as u64),
            kind,
            stored_bytes: stored,
            stored_fraction: stored as f64 / 1000.0,
            capacity_bytes: capacity,
            capacity_fraction: capacity as f64 / 1000.0,
            write_latency: Duration::from_secs(1),
            stall: Duration::from_millis(10),
            quantize_cpu_time: Duration::from_millis(5),
        }
    }

    #[test]
    fn means_and_peaks() {
        let mut s = RunStats::new(1000);
        s.push(interval(0, CheckpointKind::Full, 1000, 1000));
        s.push(interval(1, CheckpointKind::Incremental, 250, 1250));
        s.push(interval(2, CheckpointKind::Incremental, 350, 1350));
        assert!((s.try_mean_stored_bytes().unwrap() - 533.333).abs() < 0.01);
        assert!((s.try_mean_stored_fraction().unwrap() - 0.5333).abs() < 0.001);
        assert!((s.peak_capacity_fraction() - 1.35).abs() < 1e-9);
    }

    #[test]
    fn reduction_factors() {
        let mut s = RunStats::new(1000);
        s.push(interval(0, CheckpointKind::Full, 100, 100));
        s.push(interval(1, CheckpointKind::Incremental, 100, 200));
        // Mean stored = 100 -> 10x bandwidth reduction.
        assert!((s.try_bandwidth_reduction_vs_full().unwrap() - 10.0).abs() < 1e-9);
        // Peak capacity fraction = 0.2 -> 5x capacity reduction.
        assert!((s.try_capacity_reduction_vs_full().unwrap() - 5.0).abs() < 1e-9);
        // A zero-byte (but present) interval series is INFINITY, not None:
        // the distinction the typed aggregates exist to draw.
        let mut z = RunStats::new(1000);
        z.push(interval(0, CheckpointKind::Full, 0, 0));
        assert_eq!(z.try_bandwidth_reduction_vs_full(), Some(f64::INFINITY));
        assert_eq!(z.try_capacity_reduction_vs_full(), Some(f64::INFINITY));
    }

    #[test]
    fn empty_stats_are_safe() {
        let s = RunStats::new(1000);
        assert_eq!(s.peak_capacity_fraction(), 0.0);
        assert_eq!(s.total_resume_time(), Duration::ZERO);
    }

    #[test]
    fn empty_series_report_typed_none_not_zero_division() {
        let s = RunStats::new(1000);
        assert_eq!(s.try_mean_stored_bytes(), None);
        assert_eq!(s.try_mean_stored_fraction(), None);
        assert_eq!(s.try_bandwidth_reduction_vs_full(), None);
        assert_eq!(s.try_capacity_reduction_vs_full(), None);
    }

    fn resume(fetch_s: u64, decode_ms: u64, merge_ms: u64) -> ResumeStats {
        ResumeStats {
            resume: 0,
            checkpoint: CheckpointId(0),
            reader_hosts: 4,
            drain_wait: Duration::ZERO,
            fetch: Duration::from_secs(fetch_s),
            decode: Duration::from_millis(decode_ms),
            merge: Duration::from_millis(merge_ms),
            bytes_fetched: 1 << 20,
            chunks_fetched: 16,
            rescheduled_chunks: 0,
            corruption_detected: 2,
            corruption_repaired: 2,
            corruption_refetches: 2,
            restore_point: RestorePoint::Checkpoint,
            wal_replay: Duration::ZERO,
            wal_replayed_iterations: 0,
            lost_iterations: 0,
            time_to_first_batch: Duration::from_secs(fetch_s)
                + Duration::from_millis(decode_ms + merge_ms),
            mode: RestoreMode::Eager,
            fault_in_fetches: 0,
            fault_in_time: Duration::ZERO,
        }
    }

    #[test]
    fn time_to_resume_totals_all_stages() {
        let r = resume(10, 500, 250);
        assert_eq!(r.time_to_resume(), Duration::from_millis(10_750));
        // A failure that lands mid-drain pays the wait in time-to-resume.
        let waited = ResumeStats {
            drain_wait: Duration::from_secs(2),
            ..r.clone()
        };
        assert_eq!(waited.time_to_resume(), Duration::from_millis(12_750));
        // A WAL tail's reads are part of the fetch, not a phase of their
        // own: what they add to time-to-resume is what they add to it.
        let replayed = ResumeStats {
            fetch: Duration::from_millis(10_250),
            restore_point: RestorePoint::WalTip,
            wal_replayed_iterations: 7,
            ..r
        };
        assert_eq!(replayed.time_to_resume(), Duration::from_millis(11_000));
        assert!(replayed.phases().iter().all(|&(name, _)| name != names::SPAN_RESTORE_WAL_REPLAY));
    }

    #[test]
    fn resume_stats_accumulate() {
        let mut s = RunStats::new(1000);
        for (i, fetch_s) in [4u64, 8].iter().enumerate() {
            s.push_resume(ResumeStats {
                resume: i as u32,
                checkpoint: CheckpointId(i as u64),
                ..resume(*fetch_s, 500, 500)
            });
        }
        assert_eq!(s.resumes.len(), 2);
        assert_eq!(s.total_resume_time(), Duration::from_secs(14));
    }

    #[test]
    fn scrub_stats_accumulate() {
        use cnr_cluster::ScrubFindings;
        let mut s = RunStats::new(1000);
        assert_eq!(s.scrub_totals(), ScrubFindings::default());
        for (i, corrupt) in [2u64, 1].iter().enumerate() {
            s.push_scrub(ScrubStats {
                sweep: i as u32,
                at: Duration::from_secs(60 * (i as u64 + 1)),
                findings: ScrubFindings {
                    scanned: 10,
                    clean: 10 - corrupt,
                    corrupt_detected: *corrupt,
                    repaired: *corrupt,
                    ..ScrubFindings::default()
                },
            });
        }
        let t = s.scrub_totals();
        assert_eq!(t.scanned, 20);
        assert_eq!(t.corrupt_detected, 3);
        assert_eq!(t.repaired, 3);
    }
}
