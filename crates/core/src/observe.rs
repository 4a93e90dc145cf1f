//! Bridges the engine into the [`cnr_obs`] observability layer.
//!
//! The engine does not hand-accumulate run statistics and *separately*
//! emit telemetry: every checkpoint interval, restore, WAL sync, and
//! fault-in is recorded into the [`cnr_obs::MetricsRegistry`] here, and
//! [`crate::stats::WalRunStats`] is derived *back out* of the registry
//! ([`wal_run_stats`]) so the two can never drift. The equality between
//! `RunStats` and the registry is asserted in the engine's tests.
//!
//! Span emission is retrospective: the engine knows the exact simulated
//! start/end of every phase only once the phase accounting is final, so
//! each lifecycle records its whole span tree at completion, laid out on
//! the simulated timeline. The restore tree reuses
//! [`ResumeStats::phases`] — the same single source of truth that
//! defines [`ResumeStats::time_to_resume`] — which makes the root restore
//! span's duration equal `time_to_resume` *by construction*
//! (property-tested in `tests/obs_span_tree.rs`).

use std::time::Duration;

use cnr_obs::names;
use cnr_obs::{MetricsRegistry, Obs, Span, SpanId, SpanKind};

use crate::manifest::CheckpointKind;
use crate::read::{DrainOutcome, HostActivity};
use crate::stats::{IntervalStats, RestoreMode, ResumeStats, WalRunStats};
use crate::write::CheckpointRecord;

/// Mirrors one completed checkpoint interval into the registry. Called
/// with exactly the [`IntervalStats`] row pushed into `RunStats`, so the
/// registry's checkpoint aggregates equal the row-wise aggregates.
pub fn record_interval(obs: &Obs, s: &IntervalStats) {
    let reg = obs.registry();
    reg.counter_add(names::CKPT_INTERVALS, 1);
    match s.kind {
        CheckpointKind::Full => reg.counter_add(names::CKPT_FULL, 1),
        CheckpointKind::Incremental => reg.counter_add(names::CKPT_INCREMENTAL, 1),
    }
    reg.counter_add(names::CKPT_STORED_BYTES, s.stored_bytes);
    reg.observe_duration(names::CKPT_WRITE_LATENCY_NS, s.write_latency);
    reg.observe_duration(names::CKPT_STALL_NS, s.stall);
    reg.observe_duration(names::CKPT_QUANTIZE_CPU_NS, s.quantize_cpu_time);
    reg.observe(
        names::CKPT_STORED_BYTES_HIST,
        s.stored_bytes as f64,
        cnr_obs::metrics::BYTES_BOUNDS,
    );
    reg.gauge_set(names::CKPT_CAPACITY_BYTES, s.capacity_bytes as f64);
    reg.gauge_set(names::CKPT_CAPACITY_FRACTION, s.capacity_fraction);
}

/// Mirrors one completed restore into the registry. `fetch_retries` rides
/// along from the fetch scheduler's counters and `rows_landed` from the
/// restore's outcome ([`ResumeStats`] carries neither).
pub fn record_resume(obs: &Obs, row: &ResumeStats, fetch_retries: u64, rows_landed: u64) {
    let reg = obs.registry();
    reg.counter_add(names::RESTORE_RESUMES, 1);
    reg.counter_add(names::RESTORE_ROWS_LANDED, rows_landed);
    if row.mode == RestoreMode::Lazy {
        reg.counter_add(names::RESTORE_LAZY, 1);
    }
    reg.counter_add(names::RESTORE_BYTES_FETCHED, row.bytes_fetched);
    reg.counter_add(names::RESTORE_CHUNKS_FETCHED, row.chunks_fetched);
    reg.counter_add(names::RESTORE_RESCHEDULED, row.rescheduled_chunks);
    reg.counter_add(names::RESTORE_CORRUPTION_DETECTED, row.corruption_detected);
    reg.counter_add(names::RESTORE_CORRUPTION_REPAIRED, row.corruption_repaired);
    reg.counter_add(names::RESTORE_CORRUPTION_REFETCHES, row.corruption_refetches);
    reg.counter_add(
        names::RESTORE_WAL_REPLAYED_ITERATIONS,
        row.wal_replayed_iterations,
    );
    reg.counter_add(names::RESTORE_LOST_ITERATIONS, row.lost_iterations);
    reg.observe_duration(names::RESTORE_TIME_TO_RESUME_NS, row.time_to_resume());
    reg.observe_duration(names::RESTORE_TIME_TO_FIRST_BATCH_NS, row.time_to_first_batch);
    reg.observe_duration(names::RESTORE_DRAIN_WAIT_NS, row.drain_wait);
    reg.observe_duration(names::RESTORE_FETCH_NS, row.fetch);
    reg.observe_duration(names::RESTORE_DECODE_NS, row.decode);
    reg.observe_duration(names::RESTORE_MERGE_NS, row.merge);
    reg.observe(
        names::RESTORE_FETCH_RETRIES,
        fetch_retries as f64,
        cnr_obs::metrics::COUNT_BOUNDS,
    );
}

/// Mirrors one batch's on-demand fault-ins (a lazy restore's synchronous
/// cold-row fetches) into the registry, alongside the [`ResumeStats`] row's
/// `fault_in_fetches`/`fault_in_time` increments.
pub fn record_fault_in(obs: &Obs, fetches: u64, cost: Duration) {
    let reg = obs.registry();
    reg.counter_add(names::RESTORE_FAULT_IN_FETCHES, fetches);
    reg.observe_duration(names::RESTORE_FAULT_IN_NS, cost);
}

/// Derives [`WalRunStats`] from the registry. The WAL writer keeps its
/// counts only in the registry, updated on every append and truncate
/// (see `cnr_storage::wal`), and the engine charges sync time via
/// [`names::WAL_SYNC_TIME_NS`]; this readback is the *only* way the
/// engine's `stats.wal` is populated — there is no parallel hand
/// accumulation to drift from.
pub fn wal_run_stats(reg: &MetricsRegistry) -> WalRunStats {
    WalRunStats {
        appends: reg.counter(names::WAL_APPENDS),
        syncs: reg.counter(names::WAL_SYNCS),
        bytes_appended: reg.counter(names::WAL_BYTES_APPENDED),
        // A segment is put by every successful sync and nothing else.
        segments_rotated: reg.counter(names::WAL_SYNCS),
        truncations: reg.counter(names::WAL_TRUNCATIONS),
        sync_time: Duration::from_nanos(reg.counter(names::WAL_SYNC_TIME_NS)),
    }
}

/// Records the span tree of one checkpoint interval: snapshot (the only
/// synchronous child — its stall is the training-visible cost), then
/// quantize / shard / upload as concurrent children (§4.3 decoupling),
/// then zero-length register and GC markers. `row` is the interval's
/// [`IntervalStats`] row and `write` the write that produced it; what only
/// the boundary knows is when it began (`boundary_at`, snapshot begin) and
/// when the controller registered the manifest (`registered_at`). Returns
/// the root span id.
pub fn record_checkpoint_spans(
    obs: &Obs,
    row: &IntervalStats,
    write: &CheckpointRecord,
    boundary_at: Duration,
    registered_at: Duration,
) -> SpanId {
    let stored_bytes = row.stored_bytes.to_string();
    let snap_end = boundary_at + row.stall;
    let quant_end = snap_end + row.quantize_cpu_time;
    // The write was issued `write_latency` before it became durable
    // (uploads may still queue behind the previous interval's durability
    // point after this).
    let issued_at = write.completed_at.saturating_sub(write.write_latency);
    let upload_start = issued_at.clamp(boundary_at, write.completed_at.max(boundary_at));
    let upload_end = write.completed_at.max(upload_start);
    let reg_at = registered_at.max(boundary_at);
    let root_end = upload_end.max(quant_end).max(reg_at);
    let root = obs.record(
        Span::new(names::SPAN_CHECKPOINT, boundary_at, root_end)
            .with_attr("interval", row.interval.to_string())
            .with_attr("stored_bytes", stored_bytes.clone()),
    );
    obs.record(Span::new(names::SPAN_CHECKPOINT_SNAPSHOT, boundary_at, snap_end).with_parent(root));
    obs.record(
        Span::new(names::SPAN_CHECKPOINT_QUANTIZE, snap_end, quant_end)
            .with_parent(root)
            .with_kind(SpanKind::Concurrent)
            .with_track(1),
    );
    obs.record(
        Span::new(names::SPAN_CHECKPOINT_SHARD, snap_end, snap_end)
            .with_parent(root)
            .with_kind(SpanKind::Concurrent)
            .with_attr("chunks", write.manifest.chunks.len().to_string()),
    );
    obs.record(
        Span::new(names::SPAN_CHECKPOINT_UPLOAD, upload_start, upload_end)
            .with_parent(root)
            .with_kind(SpanKind::Concurrent)
            .with_track(2)
            .with_attr("parts", write.parts.to_string())
            .with_attr("stored_bytes", stored_bytes),
    );
    obs.record(Span::new(names::SPAN_CHECKPOINT_REGISTER, reg_at, reg_at).with_parent(root));
    obs.record(
        Span::new(names::SPAN_CHECKPOINT_GC, reg_at, reg_at)
            .with_parent(root)
            .with_attr("live_bytes", row.capacity_bytes.to_string()),
    );
    root
}

/// Records the span tree of one completed restore and returns the root
/// span id.
///
/// The root covers `[failed_at, failed_at + time_to_resume]`; its
/// synchronous children are exactly [`ResumeStats::phases`], laid
/// end-to-end, so their durations sum to the root's *by construction*.
/// Under the fetch phase sit a plan child (manifest chain walk), when the
/// restore replayed a write-ahead log a `wal_replay` child from the plan's
/// end to `log_arrived_at` (the log's segments head the hosts' lists), and
/// one concurrent child per reader host. A zero-length `first_batch`
/// marker sits at `time_to_first_batch` from the root start.
#[allow(clippy::too_many_arguments)]
pub fn record_restore_spans(
    obs: &Obs,
    failed_at: Duration,
    b: &ResumeStats,
    hosts: &[HostActivity],
    plan_ready_at: Duration,
    log_arrived_at: Option<Duration>,
    started_at: Duration,
) -> SpanId {
    let root_end = failed_at + b.time_to_resume();
    let root = obs.record(
        Span::new(names::SPAN_RESTORE, failed_at, root_end)
            .with_attr("resume", b.resume.to_string())
            .with_attr("mode", format!("{:?}", b.mode))
            .with_attr("restore_point", format!("{:?}", b.restore_point))
            .with_attr("reader_hosts", b.reader_hosts.to_string()),
    );
    let mut cursor = failed_at;
    for (name, dur) in b.phases() {
        let span_end = cursor + dur;
        let id = obs.record(Span::new(name, cursor, span_end).with_parent(root));
        if name == names::SPAN_RESTORE_FETCH {
            // The fetch phase's internal structure: the plan (manifest
            // chain walk) runs first, then the log's segments arrive at the
            // head of the hosts' lists, and each host's slice of the fetch
            // runs in parallel. Offsets are relative to `started_at` (the
            // pipeline's own time base) mapped onto the phase span.
            let plan_dur = plan_ready_at.saturating_sub(started_at).min(dur);
            obs.record(
                Span::new(names::SPAN_RESTORE_PLAN, cursor, cursor + plan_dur).with_parent(id),
            );
            if let Some(log_at) = log_arrived_at {
                let log_dur = log_at.saturating_sub(started_at).clamp(plan_dur, dur);
                obs.record(
                    Span::new(names::SPAN_RESTORE_WAL_REPLAY, cursor + plan_dur, cursor + log_dur)
                        .with_parent(id),
                );
            }
            for h in hosts {
                let host_dur = h.last_arrival.saturating_sub(started_at).min(dur);
                obs.record(
                    Span::new(names::SPAN_RESTORE_FETCH_HOST, cursor, cursor + host_dur)
                        .with_parent(id)
                        .with_kind(SpanKind::Concurrent)
                        .with_track(u64::from(h.host) + 1)
                        .with_attr("host", h.host.to_string())
                        .with_attr("chunks", h.chunks.to_string())
                        .with_attr("log_segments", h.log_segments.to_string())
                        .with_attr("bytes", h.bytes.to_string()),
                );
            }
        }
        cursor = span_end;
    }
    let first_batch_at = (failed_at + b.time_to_first_batch).min(root_end);
    obs.record(
        Span::new(names::SPAN_RESTORE_FIRST_BATCH, first_batch_at, first_batch_at)
            .with_parent(root),
    );
    root
}

/// Records the background cold-tail drain of a lazy restore: the rows it
/// de-quantized, and a root-level concurrent span — it outlives the
/// restore span (training has already resumed) so it cannot nest under it.
pub fn record_lazy_drain(obs: &Obs, start: Duration, end: Duration, outcome: DrainOutcome) {
    obs.registry().counter_add(names::RESTORE_ROWS_LANDED, outcome.rows_landed);
    obs.record(
        Span::new(names::SPAN_RESTORE_LAZY_DRAIN, start, end.max(start))
            .with_kind(SpanKind::Concurrent)
            .with_track(1)
            .with_attr("rows_materialized", outcome.rows_materialized.to_string()),
    );
}
