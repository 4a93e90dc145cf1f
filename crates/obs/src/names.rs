//! Canonical span and metric names for the Check-N-Run workspace.
//!
//! `cnr_storage` feeds the registry (WAL, scrub) and `cnr_core`
//! derives `RunStats`/`WalRunStats` back out of it; both sides must agree on
//! names, and this module is the single place they are spelled. The README's
//! "Observability" section documents the taxonomy; keep the three in sync.
//!
//! Histogram metrics suffixed `_ns` observe whole nanoseconds (see
//! [`crate::metrics`] for why sums stay exact); counters follow the
//! Prometheus `_total` convention.

// ---- Span names: checkpoint lifecycle -------------------------------------

/// Root span of one checkpoint interval (snapshot → … → GC).
pub const SPAN_CHECKPOINT: &str = "checkpoint";
/// Training stall while the consistent snapshot is taken.
pub const SPAN_CHECKPOINT_SNAPSHOT: &str = "checkpoint.snapshot";
/// CPU time quantizing the snapshot (concurrent: overlaps the previous
/// interval's upload drain, §4.3).
pub const SPAN_CHECKPOINT_QUANTIZE: &str = "checkpoint.quantize";
/// Chunk planning / shard assignment across writer hosts.
pub const SPAN_CHECKPOINT_SHARD: &str = "checkpoint.shard";
/// Decoupled multipart upload drain (concurrent with training).
pub const SPAN_CHECKPOINT_UPLOAD: &str = "checkpoint.upload";
/// Controller registration of the new checkpoint.
pub const SPAN_CHECKPOINT_REGISTER: &str = "checkpoint.register";
/// Orphan/retention garbage collection triggered by registration.
pub const SPAN_CHECKPOINT_GC: &str = "checkpoint.gc";

// ---- Span names: restore pipeline -----------------------------------------

/// Root span of one restore; its duration equals `time_to_resume`.
pub const SPAN_RESTORE: &str = "restore";
/// Manifest-chain walk planning the fetch.
pub const SPAN_RESTORE_PLAN: &str = "restore.plan";
/// Wait for the restored checkpoint's upload drain (PR 7's misattribution
/// bug made this phase first-class).
pub const SPAN_RESTORE_DRAIN_WAIT: &str = "restore.drain_wait";
/// Bandwidth-bound parallel chunk fetch across reader hosts.
pub const SPAN_RESTORE_FETCH: &str = "restore.fetch";
/// One reader host's slice of the fetch (concurrent under
/// [`SPAN_RESTORE_FETCH`]).
pub const SPAN_RESTORE_FETCH_HOST: &str = "restore.fetch.host";
/// CPU decode + de-quantize of fetched chunks.
pub const SPAN_RESTORE_DECODE: &str = "restore.decode";
/// Merging decoded rows into model state.
pub const SPAN_RESTORE_MERGE: &str = "restore.merge";
/// Replaying the delta-WAL tail on top of the checkpoint.
pub const SPAN_RESTORE_WAL_REPLAY: &str = "restore.wal_replay";
/// First trainable batch (zero-length marker, concurrent).
pub const SPAN_RESTORE_FIRST_BATCH: &str = "restore.first_batch";
/// Background cold-tail drain of a lazy restore (root-level: it outlives
/// the restore span).
pub const SPAN_RESTORE_LAZY_DRAIN: &str = "restore.lazy_drain";

// ---- Span names: WAL and scrub --------------------------------------------

/// One WAL sync point: the simulated time charged for making buffered
/// appends durable.
pub const SPAN_WAL_SYNC: &str = "wal.sync";
/// Whole-log truncation at checkpoint registration (zero-length marker).
pub const SPAN_WAL_TRUNCATE: &str = "wal.truncate";
/// One scrub sweep over live objects (zero-length marker in simulated
/// time: scrubbing is background work on spare cycles).
pub const SPAN_SCRUB_SWEEP: &str = "scrub.sweep";

// ---- Metrics: checkpoint --------------------------------------------------

/// Counter: checkpoint intervals completed.
pub const CKPT_INTERVALS: &str = "cnr_checkpoint_intervals_total";
/// Counter: full (non-incremental) checkpoints.
pub const CKPT_FULL: &str = "cnr_checkpoint_full_total";
/// Counter: incremental checkpoints.
pub const CKPT_INCREMENTAL: &str = "cnr_checkpoint_incremental_total";
/// Counter: stored bytes across all checkpoints.
pub const CKPT_STORED_BYTES: &str = "cnr_checkpoint_stored_bytes_total";
/// Histogram (ns): end-to-end write latency per interval.
pub const CKPT_WRITE_LATENCY_NS: &str = "cnr_checkpoint_write_latency_ns";
/// Histogram (ns): training stall per interval.
pub const CKPT_STALL_NS: &str = "cnr_checkpoint_stall_ns";
/// Histogram (ns): quantization time per interval — each chunk's
/// wall-clock quantize and encode time, summed over the workers.
pub const CKPT_QUANTIZE_CPU_NS: &str = "cnr_checkpoint_quantize_cpu_ns";
/// Histogram (bytes): stored size per interval.
pub const CKPT_STORED_BYTES_HIST: &str = "cnr_checkpoint_stored_bytes";
/// Gauge: live bytes pinned in the store after the latest registration.
pub const CKPT_CAPACITY_BYTES: &str = "cnr_checkpoint_capacity_bytes";
/// Gauge: capacity fraction vs. an unquantized full checkpoint.
pub const CKPT_CAPACITY_FRACTION: &str = "cnr_checkpoint_capacity_fraction";

// ---- Metrics: restore -----------------------------------------------------

/// Counter: restores completed.
pub const RESTORE_RESUMES: &str = "cnr_restore_resumes_total";
/// Counter: lazy-mode restores.
pub const RESTORE_LAZY: &str = "cnr_restore_lazy_total";
/// Counter: logical bytes fetched.
pub const RESTORE_BYTES_FETCHED: &str = "cnr_restore_bytes_fetched_total";
/// Counter: chunks fetched.
pub const RESTORE_CHUNKS_FETCHED: &str = "cnr_restore_chunks_fetched_total";
/// Counter: chunks re-sharded onto survivors after reader death.
pub const RESTORE_RESCHEDULED: &str = "cnr_restore_rescheduled_chunks_total";
/// Counter: envelope verification failures while fetching.
pub const RESTORE_CORRUPTION_DETECTED: &str = "cnr_restore_corruption_detected_total";
/// Counter: corrupt chunks healed by replica re-fetch.
pub const RESTORE_CORRUPTION_REPAIRED: &str = "cnr_restore_corruption_repaired_total";
/// Counter: whole-chunk re-fetches performed to heal corruption.
pub const RESTORE_CORRUPTION_REFETCHES: &str = "cnr_restore_corruption_refetches_total";
/// Counter: iterations recovered from the WAL tail.
pub const RESTORE_WAL_REPLAYED_ITERATIONS: &str = "cnr_restore_wal_replayed_iterations_total";
/// Counter: training iterations lost despite recovery.
pub const RESTORE_LOST_ITERATIONS: &str = "cnr_restore_lost_iterations_total";
/// Counter: on-demand cold-row fault-in fetches after lazy resumes.
pub const RESTORE_FAULT_IN_FETCHES: &str = "cnr_restore_fault_in_fetches_total";
/// Counter: embedding rows de-quantized into the model by restores — their
/// placed chunks and their log's records — and by lazy drains, a row once
/// per chunk or record that wrote it (fault-ins are not counted). Reader
/// hosts and the drain take the newest level first, so an older copy of a
/// row is mostly skipped undecoded. With more than one reader host or
/// decode worker the count depends on worker timing; with one host and one
/// worker it is exact, the same on every run — for an eager restore
/// without a log, the distinct rows its chain names.
pub const RESTORE_ROWS_LANDED: &str = "cnr_restore_rows_landed_total";
/// Histogram (ns): time-to-resume per restore.
pub const RESTORE_TIME_TO_RESUME_NS: &str = "cnr_restore_time_to_resume_ns";
/// Histogram (ns): time-to-first-batch per restore.
pub const RESTORE_TIME_TO_FIRST_BATCH_NS: &str = "cnr_restore_time_to_first_batch_ns";
/// Histogram (ns): upload-drain wait per restore.
pub const RESTORE_DRAIN_WAIT_NS: &str = "cnr_restore_drain_wait_ns";
/// Histogram (ns): fetch phase per restore.
pub const RESTORE_FETCH_NS: &str = "cnr_restore_fetch_ns";
/// Histogram (ns): decode phase per restore.
pub const RESTORE_DECODE_NS: &str = "cnr_restore_decode_ns";
/// Histogram (ns): merge phase per restore.
pub const RESTORE_MERGE_NS: &str = "cnr_restore_merge_ns";
/// Histogram (ns): simulated fetch time charged to one faulting batch — one
/// observation per batch whose cold rows a lazy restore fetched on demand
/// (the per-restore total is `ResumeStats::fault_in_time`).
pub const RESTORE_FAULT_IN_NS: &str = "cnr_restore_fault_in_ns";
/// Histogram (count): transient I/O retries of ranged reads per restore
/// (`FetchStatus::retries_performed`); corruption-healing re-fetches are
/// counted apart, in [`RESTORE_CORRUPTION_REFETCHES`].
pub const RESTORE_FETCH_RETRIES: &str = "cnr_restore_fetch_retries";

// ---- Metrics: WAL ---------------------------------------------------------

/// Counter: records appended.
pub const WAL_APPENDS: &str = "cnr_wal_appends_total";
/// Counter: sync points performed — one segment put each, holding the
/// frames that sync made durable.
pub const WAL_SYNCS: &str = "cnr_wal_syncs_total";
/// Counter: frame bytes appended.
pub const WAL_BYTES_APPENDED: &str = "cnr_wal_bytes_appended_total";
/// Counter: bytes pushed through the store by syncs (write amplification).
pub const WAL_BYTES_SYNCED: &str = "cnr_wal_bytes_synced_total";
/// Counter: whole-log truncations.
pub const WAL_TRUNCATIONS: &str = "cnr_wal_truncations_total";
/// Counter: truncations that erred with segments left to delete.
pub const WAL_TRUNCATE_FAILURES: &str = "cnr_wal_truncate_failures_total";
/// Counter (ns): simulated time charged to WAL syncs.
pub const WAL_SYNC_TIME_NS: &str = "cnr_wal_sync_time_ns_total";

// ---- Metrics: scrub -------------------------------------------------------

/// Counter: sweeps run.
pub const SCRUB_SWEEPS: &str = "cnr_scrub_sweeps_total";
/// Counter: objects examined.
pub const SCRUB_SCANNED: &str = "cnr_scrub_scanned_total";
/// Counter: objects clean on first read.
pub const SCRUB_CLEAN: &str = "cnr_scrub_clean_total";
/// Counter: envelope verification failures.
pub const SCRUB_CORRUPT_DETECTED: &str = "cnr_scrub_corrupt_detected_total";
/// Counter: corrupt objects healed from a replica.
pub const SCRUB_REPAIRED: &str = "cnr_scrub_repaired_total";
/// Counter: corrupt objects no source could heal.
pub const SCRUB_UNREPAIRABLE: &str = "cnr_scrub_unrepairable_total";

