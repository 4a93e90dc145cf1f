//! The sharded, pipelined checkpoint *recovery* path — the read-side
//! mirror of [`crate::write`].
//!
//! The paper's downtime model (§2, §5) is dominated by how quickly a
//! preempted job can resume: fetch, de-quantize, and rebuild model state
//! across hosts. The serial [`crate::restore`] walks the chain and decodes
//! chunks one at a time on one host; this module restores the same chain
//! with the write path's structure inverted:
//!
//! ```text
//! planner ──▶ shard readers (one per reader host) ──▶ serial tail
//!   rank the      ranged fetches over the host's        completeness per
//!   chain's       own downlink, none before the plan    level, union of
//!   chunks in     exists (fetch scheduler); each        incremental rows;
//!   serial        verified chunk is de-quantized        the WAL tail placed
//!   order,        row by row *into the destination      as the newest level;
//!   assign them   tables*, a row written iff the        zero the rows no
//!   to hosts      chunk outranks the row's stamp        chunk names (a lazy
//!   by bytes                                            restore's cold rows
//!                                                       stay stale)
//! ```
//!
//! * [`planner`] gives every chunk of the restore chain its rank in the
//!   serial `(level, key)` application order and assigns it to a reader
//!   host, balancing bytes, using the manifest's `ChunkMeta.parts` as the
//!   ranged-fetch plan.
//! * `shard_reader` takes one chunk of a host's share through the
//!   [`scheduler::FetchScheduler`], which issues ranged reads
//!   ([`cnr_storage::ObjectStore::get_part`]) floored at the plan's
//!   completion, with bounded transient-failure retries, and decodes it
//!   where it belongs. A host killed mid-restore hands its unread chunks
//!   back.
//! * `merge` owns the destination — the caller's tables, striped under
//!   locks, with a per-row rank stamp that makes newest-wins hold for any
//!   arrival order — and the serial tail.
//! * The write-ahead log, when the caller asks for it, is the chain's last
//!   level: its live records ([`WalTail::live`]) embed stored chunks'
//!   frames, and the serial tail places them through the same
//!   `merge::Destination::place`, ranked above every chunk and newest
//!   first, before the zero step — so each row the log holds is written
//!   once and is final, in an eager and a lazy restore alike.
//! * [`lazy`] is what a lazy restore hands back instead of finishing: the
//!   chunks it did not place, kept as the verified bytes the fetch
//!   returned, and the stamps as they stood. The rows those chunks owe are
//!   stale until they land — the zero step skips them. Draining runs
//!   `merge`'s placement over those bytes on the same decode workers — the
//!   restore is one code path, stopped early and resumed; eager is
//!   `hot_fraction = 1`.
//!
//! **The destination is an argument.** [`restore_sharded_into`] writes
//! each embedding row once, into memory the caller already holds: there is
//! no per-chunk value buffer, no state template and no merge copy, and
//! (measured) the cost that leaves with them is first-touch page faults on
//! fresh memory as much as the copies themselves. The engine passes the
//! trainer's own tables — the failure already destroyed their contents —
//! and gets `report.state.tables` back empty; [`restore_sharded`] and
//! [`restore_sharded_with_heat`] allocate a zero state, restore into it and
//! return it in `report.state`, for callers that want a detached state.
//! Either way the destination ends up bit-identical to what the serial
//! restore builds, and an `Err` leaves it partly written: its contents are
//! then meaningless and the caller must not use them.
//!
//! The coordinator here re-shards a dead reader host's remaining chunks
//! onto the survivors (through `crate::hosts`, the pool the write side's
//! [`cnr_cluster::HostKill`] handling runs on too) and fills the restore's
//! [`ResumeStats`] record — fetch/decode/merge — which the engine completes
//! with what only it knows (drain wait, the log's simulated read).

pub mod lazy;
pub(crate) mod merge;
pub mod planner;
pub mod scheduler;
pub(crate) mod shard_reader;

pub use lazy::{DrainOutcome, LazyRestore};
pub use planner::{FetchItem, RowHeat};
pub use scheduler::{FetchScheduler, FetchStatus};

use crate::delta_log::WalTail;
use crate::error::{CnrError, Result};
use crate::hosts::run_hosts;
use crate::manifest::{CheckpointId, Manifest};
use crate::restore::{validate_geometry, validate_shard_summaries, walk_chain, RestoreReport};
use shard_reader::{DecodedChunk, ShardReader};
use crate::stats::{RestoreMode, RestorePoint, ResumeStats};
use cnr_cluster::HostKill;
use cnr_model::config::ModelConfig;
use cnr_model::state::{ModelState, TableState};
use cnr_model::TableViewMut;
use cnr_storage::{wal, ObjectStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Configuration of a sharded restore.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RestoreOptions {
    /// Simulated reader hosts: each fetches its share of the chain over
    /// its own downlink. 1 = the single-host path.
    pub reader_hosts: usize,
    /// Decode worker threads, spread across reader hosts exactly like the
    /// write path's quantize workers.
    pub decode_workers: usize,
    /// Transient read-failure retries per ranged fetch before the restore
    /// fails.
    pub fetch_retries: u32,
    /// Lazy (CPR-style) restore: fetch in priority order, place only hot
    /// chunks before declaring first batch, and hand the cold tail back —
    /// verified, checked, still encoded — as a [`LazyRestore`] for fault-in
    /// or background drain.
    pub lazy: bool,
    /// Fraction of rows (by heat rank) that must be applied before first
    /// batch in lazy mode; `1.0` makes lazy equivalent to eager.
    pub hot_fraction: f64,
}

impl Default for RestoreOptions {
    fn default() -> Self {
        Self {
            reader_hosts: 1,
            decode_workers: 2,
            fetch_retries: 2,
            lazy: false,
            hot_fraction: 0.1,
        }
    }
}

impl RestoreOptions {
    /// Validates the options.
    pub fn validate(&self) -> std::result::Result<(), String> {
        if self.reader_hosts == 0 {
            return Err("need at least one reader host".into());
        }
        if self.reader_hosts > u16::MAX as usize {
            return Err("reader_hosts exceeds the shard id space".into());
        }
        if self.decode_workers == 0 {
            return Err("need at least one decode worker".into());
        }
        if !self.hot_fraction.is_finite() || !(0.0..=1.0).contains(&self.hot_fraction) {
            return Err("hot_fraction must lie in [0, 1]".into());
        }
        Ok(())
    }
}

/// Fetch activity of one reader host during a sharded restore, for
/// per-host timeline spans and load-balance diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostActivity {
    /// Reader host id (shard index).
    pub host: u16,
    /// Chunks this host fetched and decoded (including rescued chunks it
    /// absorbed from a dead host).
    pub chunks: u64,
    /// Total chunk payload bytes this host fetched.
    pub bytes: u64,
    /// Absolute simulated time of this host's last chunk arrival.
    pub last_arrival: Duration,
}

/// The write-ahead log a restore replayed as the chain's newest level.
#[derive(Debug, Clone)]
pub struct ReplayedLog {
    /// The live records, oldest first: the dense layers, iteration and
    /// reader cursor of the last one are the caller's to set.
    pub tail: WalTail,
    /// Bytes of the log's segments read.
    pub bytes_read: u64,
    /// Embedding rows the records wrote: each row the log holds, once.
    pub rows_landed: u64,
}

/// Outcome of a sharded restore: the serial-compatible report plus the
/// recovery pipeline's accounting.
#[derive(Debug, Clone)]
pub struct ShardedRestore {
    /// Same shape as the serial path's report — the restored state is
    /// bit-identical to [`crate::restore::restore`]. After
    /// [`restore_sharded_into`] `report.state.tables` is empty: the
    /// embedding rows are in the destination the caller passed.
    pub report: RestoreReport,
    /// The restore's record: fetch/decode/merge time-to-resume and what
    /// was fetched. `resume` is 0 and the drain-wait and WAL fields are
    /// empty: the engine fills them in place.
    pub breakdown: ResumeStats,
    /// Absolute simulated time at which the last ranged fetch arrived.
    pub ready_at: Duration,
    /// Absolute simulated time at which training may resume: for an eager
    /// restore this equals `ready_at`; for a lazy one it is when the last
    /// *hot* chunk landed (the cold tail keeps draining past it).
    pub first_batch_at: Duration,
    /// The cold tail of a lazy restore (rows not yet applied, awaiting
    /// fault-in or drain); `None` for eager restores.
    pub lazy: Option<LazyRestore>,
    /// The log [`restore_sharded_into`] replayed when asked to; `None`
    /// otherwise. The report describes the checkpoint alone.
    pub wal: Option<ReplayedLog>,
    /// Reader hosts that died mid-restore (their remaining chunks were
    /// re-sharded onto the survivors).
    pub killed_hosts: Vec<u16>,
    /// Final fetch-scheduler counters (parts, retries, corruption).
    pub fetch_status: FetchStatus,
    /// Per-host fetch activity (one entry per host that fetched at least
    /// one chunk, ordered by host id).
    pub host_activity: Vec<HostActivity>,
    /// Absolute simulated time at which the restore plan existed: the
    /// manifest chain was walked and validated, so chunk fetches could
    /// begin. Equals the fetch floor the scheduler enforces.
    pub plan_ready_at: Duration,
}

/// Restores checkpoint `target` across `options.reader_hosts` parallel
/// reader hosts, bit-identically to the serial [`crate::restore::restore`],
/// into a freshly allocated state returned in `report.state`. It replays no
/// write-ahead log. `started_at` is the simulated time the recovery began
/// (the failure instant); the reported fetch time is measured from it.
pub fn restore_sharded(
    store: &dyn ObjectStore,
    job: &str,
    target: CheckpointId,
    config: &ModelConfig,
    options: &RestoreOptions,
    started_at: Duration,
) -> Result<ShardedRestore> {
    restore_sharded_with_heat(store, job, target, config, options, started_at, None, None)
}

/// [`restore_sharded`] with the two things the engine adds (the engine
/// itself calls [`restore_sharded_into`], with its trainer's tables as
/// the destination and, if it runs one, its log).
///
/// *Reader-host failure injection:* the host named by `kill` dies after
/// fetching `kill.after_chunks` chunks; its remaining chunks are re-sharded
/// onto the surviving hosts and the restore still completes
/// bit-identically.
///
/// *An explicit access-heat model for priority planning:* `heat` matters
/// only when `options.lazy` is set; a lazy restore without one falls back
/// to uniform heat (priority order degenerates to key order, but the hot
/// cutoff still bounds the first batch's working set).
#[allow(clippy::too_many_arguments)]
pub fn restore_sharded_with_heat(
    store: &dyn ObjectStore,
    job: &str,
    target: CheckpointId,
    config: &ModelConfig,
    options: &RestoreOptions,
    started_at: Duration,
    kill: Option<HostKill>,
    heat: Option<&RowHeat>,
) -> Result<ShardedRestore> {
    let mut tables: Vec<TableState> = config
        .tables
        .iter()
        .map(|t| TableState::zeroed(t.rows as usize, t.dim, config.optimizer.has_state()))
        .collect();
    let dest = tables.iter_mut().map(TableState::view_mut).collect();
    let mut restored = restore_sharded_into(
        store, job, target, config, options, started_at, kill, heat, dest, false,
    )?;
    restored.report.state.tables = tables;
    Ok(restored)
}

/// The one sharded restore: [`restore_sharded_with_heat`] with the
/// destination chosen by the caller. Every embedding row is de-quantized
/// straight into `dest` (one view per table, in table order, exactly the
/// geometry of the checkpoint) by the decode workers; when this returns
/// `Ok`, `dest` holds what `report.state.tables` of the allocating entry
/// points holds — rows no chunk of the chain names zeroed, whatever they
/// held before — and `report.state.tables` is empty. A lazy restore's rows
/// that a held-back chunk still owes are *stale* instead: they keep what
/// `dest` held until [`LazyRestore::fault_in`] or [`LazyRestore::drain`]
/// lands them. Everything else of the
/// report (dense layers, `iteration`, `reader`, `incremental_rows`,
/// `rows_applied`, `bytes_read`) is unchanged. On `Err` `dest` may be
/// partly written.
///
/// With `replay_wal`, `job`'s write-ahead log is read once the chunks are
/// in, and the records that build on `target` past its iteration are
/// placed into `dest` as the chain's newest level, before the zero step:
/// `dest` then holds the log's rows too, each final (a lazy restore never
/// owes one), and [`ShardedRestore::wal`] returns the records, whose dense
/// layers and reader cursor the caller sets ([`WalTail::set_dense`]).
#[allow(clippy::too_many_arguments)]
pub fn restore_sharded_into(
    store: &dyn ObjectStore,
    job: &str,
    target: CheckpointId,
    config: &ModelConfig,
    options: &RestoreOptions,
    started_at: Duration,
    kill: Option<HostKill>,
    heat: Option<&RowHeat>,
    dest: Vec<TableViewMut<'_>>,
    replay_wal: bool,
) -> Result<ShardedRestore> {
    options.validate().map_err(CnrError::Config)?;
    let hosts = options.reader_hosts.max(1);
    let fetch_sched = FetchScheduler::new(store, hosts, options.fetch_retries, started_at);

    // --- Plan: walk the chain, validate, assign chunks to hosts. --------
    // Manifests download through the timed path too (serialized on host
    // 0's downlink — each base pointer is only known once its successor
    // decodes), so chain-walk latency lands in the fetch accounting.
    let mut manifest_bytes = 0u64;
    let chain = walk_chain(target, |id| {
        let key = Manifest::key(job, id);
        let size = store.head(&key).map_err(CnrError::from)?.size;
        let (object, _arrived) = fetch_sched.fetch_chunk(0, &key, size, 1)?;
        manifest_bytes += object.object().len() as u64;
        Manifest::decode_verified(&object)
    })?;
    let newest = chain.last().unwrap().clone();
    validate_geometry(&newest, config)?;
    for manifest in &chain {
        validate_shard_summaries(manifest)?;
    }
    // Chunk fetches may not start before the plan that names them exists.
    fetch_sched.set_floor(fetch_sched.ready_at());
    let plan_floor = fetch_sched.ready_at();
    let row_counts: Vec<usize> = newest.tables.iter().map(|t| t.rows as usize).collect();
    let uniform_heat;
    let assignments = if options.lazy {
        let heat = match heat {
            Some(h) => h,
            None => {
                uniform_heat = RowHeat::uniform(&row_counts);
                &uniform_heat
            }
        };
        planner::plan_priority(&chain, hosts, heat, options.hot_fraction)
    } else {
        planner::plan(&chain, hosts)
    };

    // --- Fetch: every host fetches its own share and decodes it into ---
    // the destination. A dead host's leftovers go to the survivors as
    // they are.
    let mut applied_rank: Vec<Vec<u32>> = row_counts.iter().map(|&n| vec![0; n]).collect();
    let mut dest = merge::Destination::new(dest, &newest.tables, &mut applied_rank)?;
    let decode_nanos = AtomicU64::new(0);
    let reader = ShardReader {
        scheduler: &fetch_sched,
        dest: &dest,
        decode_nanos: &decode_nanos,
    };
    let fetched = run_hosts(
        assignments,
        options.decode_workers,
        kill,
        |host, item| reader.read_one(host, item),
        |host, item| reader.die_mid_fetch(host, item),
        |_, _| {},
        "every reader host died mid-restore",
    )?;
    let killed_hosts = fetched.killed_hosts;
    let rescheduled_chunks = fetched.resharded;
    let mut decoded: Vec<DecodedChunk> = Vec::new();
    let mut host_activity: Vec<HostActivity> = Vec::new();
    for (host, chunks) in fetched.done {
        note_activity(&mut host_activity, host, &chunks);
        decoded.extend(chunks);
    }

    // --- Serial tail: what is left once every row is where it lives. ----
    // (Lazy mode placed hot chunks only; the cold tail becomes the
    // LazyRestore, and first batch is stamped at the last hot arrival.)
    let chunks_fetched = decoded.len() as u64;
    let chunk_bytes: u64 = decoded.iter().map(|d| d.bytes).sum();
    let hot_ready = decoded
        .iter()
        .filter(|d| d.cold.is_none())
        .map(|d| d.arrived_at)
        .max()
        .unwrap_or(plan_floor);
    host_activity.sort_by_key(|a| a.host);
    let merge_t0 = Instant::now();
    let merged = merge::tally(&chain, &decoded)?;
    let mut merge_time = merge_t0.elapsed();
    let log = if replay_wal {
        Some(place_log(store, job, &newest, decoded.len() as u32, &dest)?)
    } else {
        None
    };
    let zero_t0 = Instant::now();
    let lazy_tail = if options.lazy {
        // The rows the cold chunks owe are left stale, not zeroed: a
        // fault-in or the drain writes each of them once.
        let pending = lazy::Pending::of(&decoded, &row_counts, &mut dest);
        dest.zero_unwritten(Some(&pending.materialized))?;
        Some(LazyRestore::new(
            decoded,
            newest.tables.clone(),
            applied_rank,
            pending,
            options.decode_workers,
        ))
    } else {
        dest.zero_unwritten(None)?;
        None
    };
    merge_time += zero_t0.elapsed();

    let bytes_read = chunk_bytes + manifest_bytes;
    let shards_merged = chain.iter().map(|m| m.shards.len()).sum();
    let ready_at = fetch_sched.ready_at();
    let first_batch_at = if options.lazy {
        hot_ready.max(plan_floor)
    } else {
        ready_at
    };
    let fetch_status = fetch_sched.status();

    let breakdown = ResumeStats {
        resume: 0,
        checkpoint: target,
        // The restore pipeline starts at `started_at`; any wait between
        // the failure instant and that point (an in-flight upload drain)
        // is the engine's to account — it fills this in.
        drain_wait: Duration::ZERO,
        fetch: ready_at.saturating_sub(started_at),
        decode: Duration::from_nanos(decode_nanos.load(Ordering::Relaxed)),
        merge: merge_time,
        reader_hosts: hosts,
        bytes_fetched: bytes_read,
        chunks_fetched,
        rescheduled_chunks,
        corruption_detected: fetch_status.corruption_detected,
        corruption_repaired: fetch_status.corruption_repaired,
        corruption_refetches: fetch_status.corruption_refetches,
        // The engine charges the log's read (if any) and fills these in.
        restore_point: RestorePoint::Checkpoint,
        wal_replay: Duration::ZERO,
        wal_replayed_iterations: 0,
        lost_iterations: 0,
        // Eager: first batch == fully resumed. Lazy: first batch when the
        // hot set landed; the engine adds drain-wait and WAL replay.
        time_to_first_batch: first_batch_at.saturating_sub(started_at)
            + Duration::from_nanos(decode_nanos.load(Ordering::Relaxed))
            + merge_time,
        mode: if options.lazy {
            RestoreMode::Lazy
        } else {
            RestoreMode::Eager
        },
        // Fault-ins happen after training resumes; they accrue here.
        fault_in_fetches: 0,
        fault_in_time: Duration::ZERO,
    };

    Ok(ShardedRestore {
        report: RestoreReport {
            chain: chain.iter().map(|m| m.id).collect(),
            state: ModelState {
                tables: Vec::new(),
                bottom: newest.bottom_mlp.clone(),
                top: newest.top_mlp.clone(),
                iteration: newest.iteration,
            },
            reader: newest.reader_state,
            scheme: newest.scheme,
            rows_applied: merged.rows_applied,
            shards_merged,
            bytes_read,
            incremental_rows: merged.incremental_rows,
        },
        breakdown,
        ready_at,
        first_batch_at,
        lazy: lazy_tail,
        wal: log,
        killed_hosts,
        fetch_status,
        host_activity,
        plan_ready_at: plan_floor,
    })
}

/// Reads `job`'s write-ahead log and places its live tail — the records
/// that build on `newest` past its iteration — into `dest` as the chain's
/// newest level: record `i` (oldest first) ranks `chain_ranks + 1 + i`,
/// above every chunk, and the records are placed newest first, so each row
/// the log holds is written once, from the newest record naming it, and no
/// chunk lands over it afterwards.
fn place_log(
    store: &dyn ObjectStore,
    job: &str,
    newest: &Manifest,
    chain_ranks: u32,
    dest: &merge::Destination<'_>,
) -> Result<ReplayedLog> {
    let log = wal::replay(store, job)?;
    let tail = WalTail::live(
        log.records.iter().map(|record| &record.payload[..]),
        newest.id,
        newest.iteration,
    );
    let mut rows_landed = 0;
    for (i, record) in tail.records().iter().enumerate().rev() {
        let key = format!("of WAL record {}", record.iteration);
        for chunk in &record.chunks {
            rows_landed += dest.place(chunk.opened(), chain_ranks + 1 + i as u32, &key)?;
        }
    }
    Ok(ReplayedLog {
        tail,
        bytes_read: log.bytes_read,
        rows_landed,
    })
}

/// Folds one host's fetch-pass outcome into the per-host activity table
/// (a killed host's partial work and a survivor's rescue share both
/// accrue to the host that actually fetched the chunks).
fn note_activity(activity: &mut Vec<HostActivity>, host: u16, decoded: &[DecodedChunk]) {
    if decoded.is_empty() {
        return;
    }
    let chunks = decoded.len() as u64;
    let bytes: u64 = decoded.iter().map(|d| d.bytes).sum();
    let last = decoded.iter().map(|d| d.arrived_at).max().unwrap_or_default();
    match activity.iter_mut().find(|a| a.host == host) {
        Some(a) => {
            a.chunks += chunks;
            a.bytes += bytes;
            a.last_arrival = a.last_arrival.max(last);
        }
        None => activity.push(HostActivity {
            host,
            chunks,
            bytes,
            last_arrival: last,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CheckpointConfig;
    use crate::delta_log::DeltaRecord;
    use crate::manifest::CheckpointKind;
    use crate::policy::{Decision, TrackerAction};
    use crate::restore::restore;
    use crate::snapshot::{SnapshotTaker, TrainingSnapshot};
    use cnr_cluster::SimClock;
    use cnr_model::{DlrmModel, ModelConfig, ShardPlan};
    use cnr_quant::QuantScheme;
    use cnr_reader::ReaderState;
    use cnr_storage::{FailureMode, FlakyStore, InMemoryStore, RemoteConfig, SimulatedRemoteStore};
    use cnr_workload::{DatasetSpec, SyntheticDataset};
    use std::collections::BTreeSet;

    fn snapshot_after(batches: u64, dim: usize) -> (ModelConfig, TrainingSnapshot) {
        let cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(321), dim);
        let (snap, _) = snapshot_of(cfg.clone(), batches);
        (cfg, snap)
    }

    /// A full snapshot of a `cfg` model trained on `batches` batches of
    /// the tests' dataset, and the model it was taken of.
    fn snapshot_of(cfg: ModelConfig, batches: u64) -> (TrainingSnapshot, DlrmModel) {
        let ds = SyntheticDataset::new(DatasetSpec::tiny(321));
        let model = DlrmModel::new(cfg.clone());
        let mut trainer = cnr_trainer::Trainer::new(
            model,
            SimClock::new(),
            cnr_trainer::TrainerConfig::default(),
        );
        for i in 0..batches {
            trainer.train_one(&ds.batch(i));
        }
        let snap = SnapshotTaker::new(ShardPlan::balanced(&cfg, 1, 2)).take(
            &mut trainer,
            ReaderState::at(batches),
            Decision {
                kind: CheckpointKind::Full,
                tracker: TrackerAction::SnapshotReset,
            },
            &CheckpointConfig::default(),
        );
        (snap, trainer.model().clone())
    }

    fn write_to(store: &dyn cnr_storage::ObjectStore, snap: &TrainingSnapshot, hosts: usize) {
        write_to_with_parts(store, snap, hosts, 1 << 20);
    }

    fn write_to_with_parts(
        store: &dyn cnr_storage::ObjectStore,
        snap: &TrainingSnapshot,
        hosts: usize,
        part_bytes: usize,
    ) {
        let writer = crate::write::CheckpointWriter::new(store, "job");
        let cfg = CheckpointConfig {
            chunk_rows: 100,
            writer_hosts: hosts,
            part_bytes,
            ..CheckpointConfig::default()
        };
        writer
            .write(snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
            .unwrap();
    }

    fn opts(hosts: usize) -> RestoreOptions {
        RestoreOptions {
            reader_hosts: hosts,
            ..RestoreOptions::default()
        }
    }

    #[test]
    fn sharded_restore_matches_serial_report() {
        let (model_cfg, snap) = snapshot_after(3, 8);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 3);
        let serial = restore(&store, "job", CheckpointId(0), &model_cfg).unwrap();
        for hosts in [1usize, 2, 4, 7] {
            let sharded = restore_sharded(
                &store,
                "job",
                CheckpointId(0),
                &model_cfg,
                &opts(hosts),
                Duration::ZERO,
            )
            .unwrap();
            assert_eq!(sharded.report.state, serial.state, "hosts={hosts}");
            assert_eq!(sharded.report.chain, serial.chain);
            assert_eq!(sharded.report.rows_applied, serial.rows_applied);
            assert_eq!(sharded.report.shards_merged, serial.shards_merged);
            assert_eq!(sharded.report.bytes_read, serial.bytes_read);
            assert_eq!(
                sharded.report.incremental_rows.modified_rows(),
                serial.incremental_rows.modified_rows()
            );
            assert_eq!(sharded.breakdown.reader_hosts, hosts);
            let manifest =
                crate::restore::load_manifest(&store, "job", CheckpointId(0)).unwrap();
            assert_eq!(
                sharded.breakdown.chunks_fetched as usize,
                manifest.chunks.len(),
                "every chunk of the chain fetched exactly once"
            );
            // The byte count is summed from what the chain walk fetched;
            // it equals what re-encoding the manifest would have counted.
            let chunk_bytes: u64 = manifest.chunks.iter().map(|c| c.bytes).sum();
            assert_eq!(
                sharded.breakdown.bytes_fetched,
                chunk_bytes + manifest.encode_enveloped().len() as u64
            );
            assert!(sharded.killed_hosts.is_empty());
        }
    }

    #[test]
    fn eight_reader_hosts_reach_ready_to_train_sooner() {
        let (model_cfg, snap) = snapshot_after(3, 16);
        let ready_with = |hosts: usize| {
            let clock = SimClock::new();
            let store = SimulatedRemoteStore::new(
                RemoteConfig {
                    bandwidth_bytes_per_sec: 1024.0 * 1024.0, // 1 MB/s per downlink
                    base_latency: Duration::from_micros(50),
                    replication: 1,
                    channels: hosts as u32,
                },
                clock.clone(),
            );
            write_to(&store, &snap, 1); // written single-host either way
            // The failure hits after the write drained: no fetch may start
            // before it (matching the engine, which advances the clock).
            let write_drained = store.wait_for_drain();
            let sharded = restore_sharded(
                &store,
                "job",
                CheckpointId(0),
                &model_cfg,
                &opts(hosts),
                write_drained,
            )
            .unwrap();
            assert_eq!(sharded.report.state, snap.model, "fp32 bit-exact");
            sharded.ready_at.saturating_sub(write_drained)
        };
        let one = ready_with(1);
        let eight = ready_with(8);
        assert!(
            eight.as_secs_f64() < 0.25 * one.as_secs_f64(),
            "8 downlinks should approach 8x faster ready-to-train: 1-host {one:?}, 8-host {eight:?}"
        );
    }

    #[test]
    fn killed_reader_host_reshards_onto_survivors() {
        let (model_cfg, snap) = snapshot_after(3, 8);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 2);
        let kill = HostKill {
            host: 1,
            after_chunks: 1,
        };
        let sharded = restore_sharded_with_heat(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &opts(4),
            Duration::ZERO,
            Some(kill),
            None,
        )
        .unwrap();
        assert_eq!(sharded.killed_hosts, vec![1]);
        assert!(sharded.breakdown.rescheduled_chunks > 0);
        // Bit-identical despite the death.
        let serial = restore(&store, "job", CheckpointId(0), &model_cfg).unwrap();
        assert_eq!(sharded.report.state, serial.state);
        assert_eq!(sharded.report.rows_applied, serial.rows_applied);
    }

    #[test]
    fn all_reader_hosts_dead_is_an_error() {
        let (model_cfg, snap) = snapshot_after(2, 8);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 1);
        let result = restore_sharded_with_heat(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &opts(1),
            Duration::ZERO,
            Some(HostKill {
                host: 0,
                after_chunks: 0,
            }),
            None,
        );
        assert!(matches!(result, Err(CnrError::Pipeline(_))));
    }

    #[test]
    fn transient_read_failures_heal_under_retries() {
        let (model_cfg, snap) = snapshot_after(3, 8);
        let inner = InMemoryStore::new();
        write_to(&inner, &snap, 2);
        let store = FlakyStore::failing_reads(inner, FailureMode::Every(5));
        let options = RestoreOptions {
            reader_hosts: 2,
            fetch_retries: 3,
            ..RestoreOptions::default()
        };
        let sharded = restore_sharded(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &options,
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!(sharded.report.state, snap.model);
        assert!(sharded.fetch_status.retries_performed > 0);
        assert!(store.read_failures_injected() > 0);
    }

    #[test]
    fn invalid_options_are_rejected() {
        let (model_cfg, snap) = snapshot_after(1, 8);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 1);
        for bad in [
            RestoreOptions {
                reader_hosts: 0,
                ..RestoreOptions::default()
            },
            RestoreOptions {
                decode_workers: 0,
                ..RestoreOptions::default()
            },
            RestoreOptions {
                hot_fraction: -0.1,
                ..RestoreOptions::default()
            },
            RestoreOptions {
                hot_fraction: 1.5,
                ..RestoreOptions::default()
            },
            RestoreOptions {
                hot_fraction: f64::NAN,
                ..RestoreOptions::default()
            },
        ] {
            assert!(matches!(
                restore_sharded(
                    &store,
                    "job",
                    CheckpointId(0),
                    &model_cfg,
                    &bad,
                    Duration::ZERO
                ),
                Err(CnrError::Config(_))
            ));
        }
    }

    #[test]
    fn decode_workers_do_not_change_the_result() {
        let (model_cfg, snap) = snapshot_after(3, 8);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 3);
        let run = |workers: usize| {
            restore_sharded(
                &store,
                "job",
                CheckpointId(0),
                &model_cfg,
                &RestoreOptions {
                    reader_hosts: 3,
                    decode_workers: workers,
                    ..RestoreOptions::default()
                },
                Duration::ZERO,
            )
            .unwrap()
            .report
            .state
        };
        assert_eq!(run(1), run(6), "worker count must not change output");
    }

    /// Simulated fetch timing is a property of the plan and the store, not
    /// of how decode threads interleave: a host's ranged reads queue on its
    /// own downlink in whatever order its workers issue them, so
    /// `ready_at` and time-to-resume do not move with the worker count.
    /// (Decode and merge are wall-clock CPU time and are left out.)
    #[test]
    fn fetch_timing_does_not_depend_on_the_decode_workers() {
        let (model_cfg, snap) = snapshot_after(3, 16);
        for hosts in [1usize, 2] {
            let timing = |workers: usize| {
                let store = SimulatedRemoteStore::new(
                    RemoteConfig {
                        bandwidth_bytes_per_sec: 1024.0 * 1024.0,
                        base_latency: Duration::from_micros(50),
                        replication: 1,
                        channels: hosts as u32,
                    },
                    SimClock::new(),
                );
                // Small parts: every chunk is several ranged reads.
                write_to_with_parts(&store, &snap, 2, 4096);
                let drained = store.wait_for_drain();
                let options = RestoreOptions {
                    reader_hosts: hosts,
                    decode_workers: workers,
                    ..RestoreOptions::default()
                };
                let sharded =
                    restore_sharded(&store, "job", CheckpointId(0), &model_cfg, &options, drained)
                        .unwrap();
                assert_eq!(sharded.report.state, snap.model, "hosts={hosts} workers={workers}");
                let simulated = ResumeStats {
                    decode: Duration::ZERO,
                    merge: Duration::ZERO,
                    ..sharded.breakdown
                };
                (sharded.ready_at, simulated.time_to_resume())
            };
            let one = timing(1);
            for workers in [2usize, 4] {
                assert_eq!(timing(workers), one, "hosts={hosts} workers={workers}");
            }
        }
    }

    #[test]
    fn lazy_restore_plus_drain_is_bit_identical_to_eager() {
        use cnr_model::state::ModelState;
        let (model_cfg, snap) = snapshot_after(3, 8);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 2);
        let eager = restore_sharded(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &opts(2),
            Duration::ZERO,
        )
        .unwrap();
        let row_counts: Vec<usize> = model_cfg.tables.iter().map(|t| t.rows as usize).collect();
        let heat = RowHeat::zipf(&row_counts, 1.05);
        for (hot_fraction, decode_workers) in [0.0, 0.05, 0.5, 1.0]
            .into_iter()
            .flat_map(|f| [1, 2, 4].map(|w| (f, w)))
        {
            let options = RestoreOptions {
                reader_hosts: 2,
                decode_workers,
                lazy: true,
                hot_fraction,
                ..RestoreOptions::default()
            };
            let sharded = restore_sharded_with_heat(
                &store,
                "job",
                CheckpointId(0),
                &model_cfg,
                &options,
                Duration::ZERO,
                None,
                Some(&heat),
            )
            .unwrap();
            assert!(
                sharded.report.rows_applied <= eager.report.rows_applied,
                "lazy applies at most the eager row count before first batch"
            );
            if hot_fraction == 0.0 {
                assert_eq!(sharded.report.rows_applied, 0, "nothing is hot at K=0");
            }
            let mut tail = sharded.lazy.expect("lazy restore returns its cold tail");
            let mut model = DlrmModel::new(model_cfg.clone());
            sharded.report.state.restore(&mut model);
            tail.drain(&mut model).unwrap();
            assert!(tail.is_drained());
            assert_eq!(
                ModelState::extract(&model),
                eager.report.state,
                "drained lazy restore bit-identical to eager \
                 (hot_fraction={hot_fraction}, decode_workers={decode_workers})"
            );
            // Chain metadata is mode-independent.
            assert_eq!(sharded.report.chain, eager.report.chain);
            assert_eq!(sharded.report.bytes_read, eager.report.bytes_read);
            assert_eq!(
                sharded.report.incremental_rows.modified_rows(),
                eager.report.incremental_rows.modified_rows(),
                "tracker reseed must see cold incremental rows too"
            );
        }
    }

    #[test]
    fn lazy_restore_reaches_first_batch_before_full_ready() {
        let (model_cfg, snap) = snapshot_after(3, 16);
        let clock = SimClock::new();
        let store = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: 1024.0 * 1024.0,
                base_latency: Duration::from_micros(50),
                replication: 1,
                channels: 2,
            },
            clock.clone(),
        );
        write_to(&store, &snap, 1);
        let write_drained = store.wait_for_drain();
        let row_counts: Vec<usize> = model_cfg.tables.iter().map(|t| t.rows as usize).collect();
        let heat = RowHeat::zipf(&row_counts, 1.05);
        let options = RestoreOptions {
            reader_hosts: 2,
            lazy: true,
            hot_fraction: 0.1,
            ..RestoreOptions::default()
        };
        let sharded = restore_sharded_with_heat(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &options,
            write_drained,
            None,
            Some(&heat),
        )
        .unwrap();
        assert!(
            sharded.first_batch_at < sharded.ready_at,
            "hot set lands before the cold tail: first_batch={:?} ready={:?}",
            sharded.first_batch_at,
            sharded.ready_at
        );
        assert!(sharded.breakdown.time_to_first_batch < sharded.breakdown.time_to_resume());
        let tail = sharded.lazy.expect("cold tail present");
        assert!(tail.pending_rows() > 0, "something was actually deferred");
    }

    #[test]
    fn restore_heals_a_corrupt_read_and_reports_it() {
        use cnr_storage::{CorruptionKind, CorruptionSpec, FlakyStore};
        let (model_cfg, snap) = snapshot_after(3, 8);
        let inner = InMemoryStore::new();
        write_to(&inner, &snap, 2);
        let clean = restore(&inner, "job", CheckpointId(0), &model_cfg).unwrap();
        // One chunk read comes back bit-flipped; the refetch is healthy.
        let store = FlakyStore::corrupting_reads(
            inner,
            CorruptionSpec::once(CorruptionKind::BitFlip, 1),
        )
        .with_corrupt_key_filter("-chunk-");
        let sharded = restore_sharded(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &RestoreOptions {
                reader_hosts: 2,
                fetch_retries: 2,
                ..RestoreOptions::default()
            },
            Duration::ZERO,
        )
        .unwrap();
        assert_eq!(sharded.report.state, clean.state, "healed restore is bit-identical");
        assert_eq!(sharded.breakdown.corruption_detected, 1);
        assert_eq!(sharded.breakdown.corruption_repaired, 1);
        assert_eq!(sharded.breakdown.corruption_refetches, 1);
        assert_eq!(
            sharded.fetch_status.retries_performed, 0,
            "healing must not masquerade as transient retries"
        );
    }

    /// A checkpoint written with the retired k-means scheme (manifest
    /// scheme tag 3) does not restore — serial, sharded or lazy: the error
    /// is typed and names the tag.
    #[test]
    fn a_kmeans_era_checkpoint_is_corrupt_naming_the_tag() {
        use cnr_storage::envelope;
        let (model_cfg, snap) = snapshot_after(2, 8);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 1);
        let manifest = crate::restore::load_manifest(&store, "job", CheckpointId(0)).unwrap();
        let body = crate::manifest::kmeans_era_body(&manifest);
        let stored = envelope::wrap_with_flags(&body, envelope::FLAG_MANIFEST);
        store.put(&Manifest::key("job", CheckpointId(0)), stored.into()).unwrap();
        let names_the_tag =
            |e: CnrError| matches!(&e, CnrError::Corrupt(why) if why.contains("scheme tag 3"));
        let serial = restore(&store, "job", CheckpointId(0), &model_cfg);
        assert!(names_the_tag(serial.unwrap_err()));
        for lazy in [false, true] {
            let options = RestoreOptions { lazy, ..opts(2) };
            let sharded =
                restore_sharded(&store, "job", CheckpointId(0), &model_cfg, &options, Duration::ZERO);
            assert!(names_the_tag(sharded.unwrap_err()), "lazy={lazy}");
        }
    }

    #[test]
    fn unhealable_corruption_fails_the_restore_with_a_typed_error() {
        use crate::error::CnrError;
        use cnr_storage::{CorruptionKind, CorruptionSpec, FlakyStore};
        let (model_cfg, snap) = snapshot_after(3, 8);
        let inner = InMemoryStore::new();
        write_to(&inner, &snap, 2);
        // Every replica of every chunk read is damaged: no retry budget
        // can heal it, and the restore must refuse to return garbage.
        let store = FlakyStore::corrupting_reads(
            inner,
            CorruptionSpec::every(CorruptionKind::BitFlip, 1),
        )
        .with_corrupt_key_filter("-chunk-");
        let err = restore_sharded(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &RestoreOptions {
                reader_hosts: 2,
                fetch_retries: 2,
                ..RestoreOptions::default()
            },
            Duration::ZERO,
        )
        .unwrap_err();
        assert!(
            matches!(err, CnrError::Corrupt(_)),
            "typed corruption error, got {err:?}"
        );
    }

    /// Checkpoint 0 — `cfg` after 3 batches — in a store of its own, with
    /// the payloads `log` makes of the records of iterations 4..=9 (logged
    /// past it under `scheme`, in iteration order) written to the job's
    /// log. Returns the store and the records.
    fn checkpoint_with_log(
        cfg: &ModelConfig,
        scheme: QuantScheme,
        log: impl FnOnce(&[DeltaRecord]) -> Vec<Vec<u8>>,
    ) -> (std::sync::Arc<InMemoryStore>, Vec<DeltaRecord>) {
        let (snap, mut model) = snapshot_of(cfg.clone(), 3);
        let store = std::sync::Arc::new(InMemoryStore::new());
        write_to(store.as_ref(), &snap, 2);
        let ds = SyntheticDataset::new(DatasetSpec::tiny(321));
        let records: Vec<DeltaRecord> = (3..9u64)
            .map(|i| {
                let batch = ds.batch(i);
                model.train_batch(&batch, |_, _| {});
                DeltaRecord::capture(&model, &batch, &scheme, CheckpointId(0), i + 1)
            })
            .collect();
        let mut writer = cnr_storage::WalWriter::new(store.clone(), "job", cnr_storage::WalConfig);
        for payload in log(&records) {
            writer.append(&payload).unwrap();
        }
        (store, records)
    }

    /// Options for the log tests: two reader hosts, `workers` decode
    /// workers, eager or 5%-hot lazy.
    fn log_opts(workers: usize, lazy: bool) -> RestoreOptions {
        RestoreOptions {
            reader_hosts: 2,
            decode_workers: workers,
            lazy,
            hot_fraction: 0.05,
            ..RestoreOptions::default()
        }
    }

    /// Restores checkpoint 0 of `store`, with its log, into a model whose
    /// tables held NaN (so a row left stale or unwritten shows), and sets
    /// the dense layers — the report's, then the log's.
    fn restore_with_log(
        store: &InMemoryStore,
        cfg: &ModelConfig,
        options: &RestoreOptions,
    ) -> Result<(DlrmModel, ShardedRestore)> {
        let mut model = DlrmModel::new(cfg.clone());
        for table in model.tables_mut() {
            for r in 0..table.rows() {
                table.row_mut(r).fill(f32::NAN);
            }
        }
        let heat = RowHeat::zipf(&cfg.row_counts(), 1.05);
        let restored = restore_sharded_into(
            store,
            "job",
            CheckpointId(0),
            cfg,
            options,
            Duration::ZERO,
            None,
            Some(&heat),
            model.table_views_mut(),
            true,
        )?;
        restored.report.state.restore_dense(&mut model);
        restored.wal.as_ref().expect("the log was read").tail.set_dense(&mut model)?;
        Ok((model, restored))
    }

    /// The distinct `(table, row)`s `records` hold.
    fn log_rows<'a>(records: impl IntoIterator<Item = &'a DeltaRecord>) -> BTreeSet<(u16, u32)> {
        records
            .into_iter()
            .flat_map(|r| &r.chunks)
            .flat_map(|c| c.row_indices().iter().map(move |&row| (c.table(), row)))
            .collect()
    }

    /// A log holding a stale-base record, a duplicate, two out-of-order
    /// iterations and an undecodable record lands, through the restore,
    /// as restoring without it and applying its live records in order with
    /// [`DeltaRecord::apply`] does — rows, accumulators, MLPs and iteration
    /// — for a lossy record scheme too, eager and lazy (drained), on 1, 2
    /// and 4 decode workers. Each row the log holds is written once, by the
    /// newest record naming it, and none is left owed to a cold chunk.
    #[test]
    fn the_log_lands_as_applying_it_in_order() {
        let cfg = ModelConfig {
            optimizer: cnr_model::OptimizerConfig::RowWiseAdagrad { lr: 0.05, eps: 1e-8 },
            ..ModelConfig::for_dataset(&DatasetSpec::tiny(321), 8)
        };
        for scheme in [QuantScheme::Fp32, QuantScheme::Asymmetric { bits: 4 }] {
            // Records 0..6 are iterations 4..=9; the checkpoint is at 3.
            let (store, records) = checkpoint_with_log(&cfg, scheme, |records| {
                let mut stale = records[2].clone();
                stale.base = CheckpointId(1);
                vec![
                    records[0].encode(), // 4
                    stale.encode(),      // a stale base at 6
                    records[1].encode(), // 5
                    records[1].encode(), // 5 again
                    records[0].encode(), // 4: out of order
                    records[2].encode(), // 6
                    records[4].encode(), // 8
                    records[3].encode(), // 7: out of order, below 8
                    vec![1, 2, 3],       // undecodable: the tail ends here
                    records[5].encode(), // 9: never replayed
                ]
            });
            let live = [&records[0], &records[1], &records[2], &records[4]];

            let mut in_order = DlrmModel::new(cfg.clone());
            let restored = restore_sharded(
                store.as_ref(),
                "job",
                CheckpointId(0),
                &cfg,
                &opts(2),
                Duration::ZERO,
            )
            .unwrap();
            assert!(restored.wal.is_none(), "the allocating restore replays no log");
            restored.report.state.restore(&mut in_order);
            for record in live {
                record.apply(&mut in_order).unwrap();
            }
            assert_eq!(in_order.iteration(), 8);

            let rows = log_rows(live);
            let touched: u64 = live.iter().map(|r| r.touched_rows()).sum();
            assert!((rows.len() as u64) < touched, "the records share rows");
            for (workers, lazy) in [1, 2, 4].into_iter().flat_map(|w| [(w, false), (w, true)]) {
                let what = format!("{scheme} workers={workers} lazy={lazy}");
                let (mut model, restored) =
                    restore_with_log(store.as_ref(), &cfg, &log_opts(workers, lazy)).unwrap();
                let log = restored.wal.unwrap();
                let iterations: Vec<u64> =
                    log.tail.records().iter().map(|r| r.iteration).collect();
                assert_eq!(iterations, vec![4, 5, 6, 8], "{what}");
                assert_eq!(log.rows_landed, rows.len() as u64, "{what}: each row written once");
                assert_eq!(restored.report.state.iteration, 3, "{what}: the checkpoint's report");
                if let Some(mut tail) = restored.lazy {
                    assert!(tail.pending_rows() > 0, "{what}");
                    for &(t, r) in &rows {
                        assert!(tail.is_materialized(t, r), "{what}: ({t}, {r}) is final");
                    }
                    tail.drain(&mut model).unwrap();
                }
                assert_eq!(model.iteration(), 8, "{what}");
                assert_eq!(model.state_hash(), in_order.state_hash(), "{what}");
            }
        }
    }

    /// A live record whose chunk does not fit the model — a row past its
    /// table, an optimizer state the table lacks, a row named twice, rows
    /// out of order — fails the restore typed, as a stored chunk does,
    /// eager and lazy. Such a record is checksum-clean and decodes: a
    /// repeated row would otherwise land one of its two bodies silently.
    #[test]
    fn the_log_refuses_chunks_that_do_not_fit_the_model() {
        type Edit = fn(&mut Vec<u32>, &mut Option<Vec<f32>>, &mut Vec<u8>);
        let cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(321), 8);
        let edits: [(&str, Edit); 4] = [
            ("a row past its table", |rows, _, _| *rows.last_mut().unwrap() = u32::MAX),
            ("an optimizer state the table lacks", |rows, acc, _| {
                *acc = Some(vec![1.0; rows.len()])
            }),
            ("a row named twice", |rows, _, _| rows[1] = rows[0]),
            ("rows out of order", |rows, _, _| rows.swap(0, 1)),
        ];
        for (what, edit) in edits {
            let (store, _) = checkpoint_with_log(&cfg, QuantScheme::Fp32, |records| {
                let mut bad = records[0].clone();
                assert!(bad.chunks[0].row_indices().len() >= 2);
                bad.chunks[0] = bad.chunks[0].edited(edit);
                let payload = bad.encode();
                assert_eq!(DeltaRecord::decode(&payload).unwrap(), bad, "{what}");
                vec![payload]
            });
            for lazy in [false, true] {
                let err = restore_with_log(store.as_ref(), &cfg, &log_opts(2, lazy)).unwrap_err();
                assert!(matches!(err, CnrError::Corrupt(_)), "{what}, lazy={lazy}: {err:?}");
            }
        }
        // The record as captured lands.
        let (store, _) = checkpoint_with_log(&cfg, QuantScheme::Fp32, |records| {
            vec![records[0].encode()]
        });
        for lazy in [false, true] {
            assert!(restore_with_log(store.as_ref(), &cfg, &log_opts(2, lazy)).is_ok());
        }
    }

    /// A row the log placed is final in a lazy restore that held every
    /// chunk back: it is no longer pending, a fault-in fetches nothing for
    /// it and leaves it as the log wrote it, and neither a fault-in of its
    /// neighbours nor the drain lands a cold chunk over it — on 1, 2 and 4
    /// decode workers.
    #[test]
    fn a_row_the_log_placed_is_final_and_never_landed_over() {
        let cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(321), 8);
        let (store, records) = checkpoint_with_log(&cfg, QuantScheme::Fp32, |records| {
            records[..3].iter().map(DeltaRecord::encode).collect()
        });
        let rows = log_rows(&records[..3]);
        let total: u64 = cfg.row_counts().iter().map(|&n| n as u64).sum();
        let value = |model: &DlrmModel, (t, r): (u16, u32)| {
            model.tables()[t as usize].row(r as usize).to_vec()
        };
        for workers in [1, 2, 4] {
            let options = RestoreOptions { hot_fraction: 0.0, ..log_opts(workers, true) };
            let (mut model, restored) = restore_with_log(store.as_ref(), &cfg, &options).unwrap();
            assert_eq!(restored.wal.unwrap().rows_landed, rows.len() as u64);
            let mut tail = restored.lazy.unwrap();
            assert_eq!(tail.pending_rows(), total - rows.len() as u64, "workers={workers}");
            let placed: Vec<Vec<f32>> = rows.iter().map(|&at| value(&model, at)).collect();
            assert!(placed.iter().flatten().all(|v| v.is_finite()), "workers={workers}");
            for &(t, r) in &rows {
                assert_eq!(tail.fault_in(&mut model, t, r).unwrap(), 0, "nothing to fetch");
                let neighbour = (r + 1).min(cfg.tables[t as usize].rows as u32 - 1);
                tail.fault_in(&mut model, t, neighbour).unwrap();
            }
            tail.drain(&mut model).unwrap();
            let after: Vec<Vec<f32>> = rows.iter().map(|&at| value(&model, at)).collect();
            assert!(after == placed, "workers={workers}: a cold chunk landed over the log");
            let (eager, _) =
                restore_with_log(store.as_ref(), &cfg, &log_opts(workers, false)).unwrap();
            assert_eq!(model.state_hash(), eager.state_hash(), "workers={workers}");
        }
    }
}
