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
//!   the log's     ranged fetches over the host's        completeness per
//!   segments,     own downlink in list order, none      level, union of
//!   then the      before the plan exists (fetch         incremental rows;
//!   newest dense  scheduler); each verified hot chunk   the fetched log
//!   object first; is de-quantized row by row *into      walked, its tail
//!   rank the      the destination tables*, a row        placed as the newest
//!   chain's       written iff the chunk outranks the    level; zero the rows
//!   chunks in     row's stamp; a cold chunk is kept     no chunk names (rows
//!   serial order, as its frame, a log segment as        a cold chunk owes
//!   mark the top  fetched, the dense object decoded     stay stale)
//!   fraction hot,
//!   deal them to
//!   hosts by heat
//!   and bytes
//! ```
//!
//! * [`planner`] gives every chunk of the restore chain its rank in the
//!   serial `(level, key)` application order, marks the chunks covering
//!   the top `hot_fraction` of rows hot, and deals them to reader hosts in
//!   heat order, balancing bytes, using the manifest's `ChunkMeta.parts`
//!   as the ranged-fetch plan. Each host then reads its hot chunks before
//!   its cold ones, each newest level first, so an older level's copy of a
//!   row finds the newer stamp and is skipped undecoded. An eager restore
//!   is the plan at `hot_fraction = 1` with no heat model: every chunk hot,
//!   dealt in rank order.
//! * The dense layers are one object per checkpoint, and a restore reads
//!   only the newest level's: the chain walk fetches manifests alone, and
//!   the dense object is an item of the plan, dealt hot before any chunk
//!   and fetched like one. First batch waits for it.
//! * `shard_reader` takes one chunk of a host's share through the
//!   [`scheduler::FetchScheduler`], which issues ranged reads
//!   ([`cnr_storage::ObjectStore::get_part`]) floored at the plan's
//!   completion, in its turn of the host's list whatever its decode
//!   workers do, with bounded transient-failure retries, and decodes it
//!   where it belongs. A host killed mid-restore hands its unread chunks
//!   back, to go behind each adopter's own list.
//! * `merge` owns the destination — the caller's tables, striped under
//!   locks, with a per-row rank stamp that makes newest-wins hold for any
//!   arrival order — and the serial tail.
//! * The write-ahead log, when the caller asks for it, is the chain's last
//!   level. Its live segments are items of the plan, dealt before any
//!   chunk to the lightest hosts and fetched at the head of their lists
//!   through the same scheduler — the log adds no serial read phase. A
//!   record's MLPs ride in a trailer frame behind its body, and only the
//!   last live record's are read: every segment but the newest is an item
//!   of the prefix in front of its last trailer, sized from the newest
//!   manifest's parameter counts. Its live records ([`WalTail::live`])
//!   embed stored chunks' frames, and the serial tail places them through
//!   the same `merge::Destination::place`, ranked above every chunk and
//!   newest first, before the zero step — so each row the log holds is
//!   written once and is final, in an eager and a lazy restore alike.
//! * [`lazy`] is what a restore whose plan held chunks back hands back
//!   instead of finishing: those chunks, kept as the verified frames the
//!   fetch returned, and the stamps as they stood. The rows those chunks
//!   owe are stale until they land — the zero step skips them. Draining
//!   runs `merge`'s placement over those frames on the same decode workers
//!   — the restore is one code path, stopped early and resumed. An all-hot
//!   plan holds nothing back and returns no tail.
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
//! [`ResumeStats`] record — fetch (the log's segments included), decode,
//! merge — which the engine completes with what only it knows (drain wait,
//! the replayed iterations).

pub mod lazy;
pub(crate) mod merge;
pub mod planner;
pub mod scheduler;
pub(crate) mod shard_reader;

pub use lazy::{DrainOutcome, LazyRestore};
pub(crate) use lazy::DrainFailure;
pub use planner::{FetchItem, FetchKind, RowHeat};
pub use scheduler::{FetchScheduler, FetchStatus};

use crate::delta_log::{self, WalTail};
use crate::error::{CnrError, Result};
use crate::hosts::run_hosts;
use crate::manifest::{CheckpointId, DenseMeta, Manifest};
use crate::restore::{validate_geometry, walk_chain, RestoreReport};
use shard_reader::{DecodedChunk, Fetched, FetchedDense, FetchedSegment, ShardReader};
use crate::stats::{RestoreMode, RestorePoint, ResumeStats};
use cnr_cluster::HostKill;
use cnr_model::config::ModelConfig;
use cnr_model::state::{ModelState, TableState};
use cnr_model::TableViewMut;
use cnr_storage::{envelope, wal, ObjectStore, StorageError};
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
    /// Transient read-failure retries per ranged fetch, and per `head`
    /// that sizes a manifest, before the restore fails.
    pub fetch_retries: u32,
    /// Lazy (CPR-style) restore: fetch in heat order, place only the hot
    /// chunks before declaring first batch, and hand any cold tail back —
    /// verified, checked, still encoded — as a [`LazyRestore`] for fault-in
    /// or background drain. Eager is the same restore at `hot_fraction = 1`
    /// with no heat model; the flag labels the [`RestoreMode`] too.
    pub lazy: bool,
    /// Fraction of rows (by heat rank) whose chunks must be applied before
    /// first batch in a lazy restore; `1.0` makes lazy equivalent to eager.
    /// Ignored by an eager restore.
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
    /// Write-ahead log segments this host fetched (the heads of its lists).
    pub log_segments: u64,
    /// Total bytes this host fetched: chunks, log segments and the dense
    /// object.
    pub bytes: u64,
    /// Absolute simulated time at which this host's downlink freed: its
    /// last arrival, and never before the plan's completion.
    pub last_arrival: Duration,
}

/// The write-ahead log a restore replayed as the chain's newest level.
#[derive(Debug, Clone)]
pub struct ReplayedLog {
    /// The live records, oldest first: the dense layers, iteration and
    /// reader cursor of the last one are the caller's to set.
    pub tail: WalTail,
    /// Bytes of the log fetched: what the plan read of every segment it
    /// held — also those behind a tear, which the walk never reached — and
    /// any trailer read after.
    pub bytes_read: u64,
    /// Embedding rows the records wrote: each row the log holds, once.
    pub rows_landed: u64,
    /// Absolute simulated time at which the log's last segment, or the
    /// trailer read after them, arrived; the plan's completion when it had
    /// none. First batch waits for it.
    pub arrived_at: Duration,
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
    /// Absolute simulated time at which training may resume: when the last
    /// *hot* chunk, the dense object and the log's segments landed (a cold
    /// tail keeps draining past it). When every chunk was hot — every eager
    /// restore — this equals `ready_at`.
    pub first_batch_at: Duration,
    /// Embedding rows the restore de-quantized into the destination — its
    /// placed chunks' and its log records' — a row once per chunk or
    /// record that wrote it (what the registry's
    /// `cnr_restore_rows_landed_total` adds up). Each reader host reads its
    /// chunks newest level first ([`planner::plan_priority`]), so an older
    /// copy of a row is mostly skipped undecoded; with more than one
    /// reader host or decode worker, how often it is not depends on worker
    /// timing. With one host and one worker, and no log, an eager
    /// restore's count is exact: the distinct rows its chain names.
    pub rows_landed: u64,
    /// The cold tail (rows not yet applied, awaiting fault-in or drain):
    /// `Some` iff the plan held a chunk back, so never for an eager
    /// restore, nor for a lazy one at `hot_fraction = 1`.
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
    /// one item or a trailer, ordered by host id).
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
/// fetching `kill.after_chunks` items of its list (log segments, which
/// head it, count too); its remaining items are re-sharded onto the
/// surviving hosts and the restore still completes bit-identically.
///
/// *An explicit access-heat model for the deal:* `heat` matters only when
/// `options.lazy` is set; without one every row ties, so the chunks are
/// dealt in rank order and all are hot unless `hot_fraction` is 0. Either
/// way each host reads its share newest level first
/// ([`planner::plan_priority`]).
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
/// `rows_applied`, `bytes_read`) is unchanged: the dense layers are the
/// newest level's dense object, fetched as an item of the plan, and
/// `rows_applied` counts the rows the placed chunks name, with
/// multiplicity — the serial oracle's count, not the rows written
/// ([`ShardedRestore::rows_landed`] is that). On `Err` `dest` may be
/// partly written.
///
/// With `replay_wal`, `job`'s write-ahead log is listed once the manifest
/// chain is walked, and its live segments are items of the fetch plan:
/// dealt before any chunk to the lightest reader hosts, at the head of
/// their lists, each one ranged read on its host's downlink — so the log's
/// reads are part of [`ResumeStats::fetch`] and first batch waits for the
/// last of them. Only the newest segment is read whole: every older one is
/// read as the prefix in front of its last record's MLP trailer, whose
/// length the newest manifest's parameter counts give. Once everything is
/// in, the segments are walked with the log's one parser
/// ([`wal::walk_segments`]) and the records that build on `target` past its
/// iteration are placed into `dest` as the chain's newest level, before
/// the zero step: `dest` then holds the log's rows too, each final (a lazy
/// restore never owes one), and [`ShardedRestore::wal`] returns the
/// records, whose dense layers and reader cursor the caller sets
/// ([`WalTail::set_dense`]).
///
/// The dense layers are the last live record's trailer. A record of a
/// segment read whole that ends in front of its trailer is torn there and
/// not live. When the last live record's trailer was left unread — its
/// segment was read short because the newest one is torn, holds only
/// stale records, or vanished after the list — it is read with one more
/// ranged read on the downlink of the live reader host that frees first,
/// floored at the log's arrival, and first batch waits for it; a trailer
/// that does not verify ends the tail in front of its record, and the next
/// older record's is read the same way. An empty log costs no read.
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
    // decodes), so chain-walk latency lands in the fetch accounting. The
    // walk reads manifests only: the dense layers are an item of the plan.
    let mut manifest_bytes = 0u64;
    let chain = walk_chain(target, |id| {
        let key = Manifest::key(job, id);
        let size = fetch_sched.retrying(|| store.head(&key))?.size;
        let (object, _arrived) = fetch_sched.fetch_chunk(0, None, &key, size, 1)?;
        manifest_bytes += object.object().len() as u64;
        Manifest::decode_verified(&object)
    })?;
    let newest = chain.last().unwrap().clone();
    validate_geometry(&newest, config)?;
    // Fetches may not start before the plan that names them exists.
    fetch_sched.set_floor(fetch_sched.ready_at());
    let plan_floor = fetch_sched.ready_at();
    // The log's live segments are items of the plan, ahead of every chunk:
    // all of the newest, and of each older one the prefix in front of its
    // last trailer.
    let segment_sizes = if replay_wal {
        size_segments(store, job, &fetch_sched)?
    } else {
        Vec::new()
    };
    let log = log_items(&segment_sizes, &newest.dense);
    let row_counts: Vec<usize> = newest.tables.iter().map(|t| t.rows as usize).collect();
    // An eager restore is the all-hot plan: no heat, every chunk placed.
    let (heat, hot_fraction) = if options.lazy {
        (heat, options.hot_fraction)
    } else {
        (None, 1.0)
    };
    let assignments = planner::plan_priority(&chain, &log, hosts, heat, hot_fraction);

    // --- Fetch: every host fetches its own share and decodes it into ---
    // the destination, each item in its turn. A dead host's leftovers go
    // to the survivors as they are.
    let mut applied_rank: Vec<Vec<u32>> = row_counts.iter().map(|&n| vec![0; n]).collect();
    let mut dest = merge::Destination::new(dest, &newest.tables, &mut applied_rank)?;
    let decode_nanos = AtomicU64::new(0);
    let rows_landed = AtomicU64::new(0);
    let reader = ShardReader {
        scheduler: &fetch_sched,
        dest: &dest,
        newest: &newest,
        decode_nanos: &decode_nanos,
        rows_landed: &rows_landed,
    };
    let fetched = run_hosts(
        assignments,
        options.decode_workers,
        kill,
        fetch_sched.links(),
        |host, turn, item| reader.read_one(host, turn, item),
        |host, _, item| reader.die_mid_fetch(host, item),
        "every reader host died mid-restore",
    )?;
    let killed_hosts = fetched.killed_hosts;
    let rescheduled_chunks = fetched.resharded;
    let mut decoded: Vec<DecodedChunk> = Vec::new();
    let mut segments: Vec<FetchedSegment> = Vec::new();
    let mut dense: Option<FetchedDense> = None;
    let mut host_activity: Vec<HostActivity> = Vec::new();
    for (host, items) in fetched.done {
        note_activity(&mut host_activity, host, &items);
        for item in items {
            match item {
                Fetched::Chunk(chunk) => decoded.push(chunk),
                Fetched::Segment(segment) => segments.push(segment),
                Fetched::Dense(fetched) => dense = Some(fetched),
            }
        }
    }
    let dense = dense.expect("the plan holds the newest level's dense object");

    // --- Serial tail: what is left once every row is where it lives. ----
    // (Only hot chunks were placed; the cold ones become the LazyRestore,
    // and first batch is stamped at the last hot arrival — the log's
    // segments, a trailer read after them and the dense object included —
    // for an all-hot plan, the last arrival.)
    let chunks_fetched = decoded.len() as u64;
    let chunk_bytes: u64 = decoded.iter().map(|d| d.bytes).sum();
    segments.sort_by_key(|s| s.index);
    let log_arrived_at = segments
        .iter()
        .filter_map(|s| s.fetched.as_ref().map(|&(_, at)| at))
        .fold(plan_floor, Duration::max);
    let merge_t0 = Instant::now();
    let merged = merge::tally(&chain, &decoded)?;
    let mut merge_time = merge_t0.elapsed();
    let log = if replay_wal {
        let sizes: Vec<u64> = segment_sizes.iter().map(|&(_, size)| size).collect();
        let placed = LogPlacement {
            newest: &newest,
            chain_ranks: decoded.len() as u32,
            dest: &dest,
            fetch_sched: &fetch_sched,
            live_hosts: (0..hosts as u16).filter(|h| !killed_hosts.contains(h)).collect(),
        };
        Some(placed.place(segments, &sizes, log_arrived_at, &mut host_activity)?)
    } else {
        None
    };
    // A host's downlink frees at its last arrival, never before the plan.
    for a in &mut host_activity {
        a.last_arrival = fetch_sched.links().frees_at(a.host);
    }
    let first_batch_at = decoded
        .iter()
        .filter(|d| d.cold.is_none())
        .map(|d| d.arrived_at)
        .fold(
            log.as_ref().map_or(log_arrived_at, |log| log.arrived_at).max(dense.arrived_at),
            Duration::max,
        );
    let zero_t0 = Instant::now();
    // The rows a held-back chunk owes are left stale, not zeroed: a fault-in
    // or the drain writes each of them once.
    let pending = decoded
        .iter()
        .any(|d| d.cold.is_some())
        .then(|| lazy::Pending::of(&decoded, &row_counts, &mut dest));
    dest.zero_unwritten(pending.as_ref().map(|p| &p.materialized[..]))?;
    let lazy_tail = pending.map(|pending| {
        LazyRestore::new(
            decoded,
            newest.tables.clone(),
            applied_rank,
            pending,
            options.decode_workers,
        )
    });
    merge_time += zero_t0.elapsed();

    let bytes_read = chunk_bytes + manifest_bytes + dense.bytes;
    let log_bytes = log.as_ref().map_or(0, |log| log.bytes_read);
    let rows_landed = rows_landed.into_inner() + log.as_ref().map_or(0, |log| log.rows_landed);
    let ready_at = fetch_sched.ready_at();
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
        bytes_fetched: bytes_read + log_bytes,
        chunks_fetched,
        rescheduled_chunks,
        corruption_detected: fetch_status.corruption_detected,
        corruption_repaired: fetch_status.corruption_repaired,
        corruption_refetches: fetch_status.corruption_refetches,
        // The log's reads are inside `fetch`; the engine fills these in.
        restore_point: RestorePoint::Checkpoint,
        wal_replay: Duration::ZERO,
        wal_replayed_iterations: 0,
        lost_iterations: 0,
        // First batch when the log and the hot set landed — fully
        // resumed, for an all-hot plan; the engine adds drain-wait.
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
                bottom: dense.layers.bottom,
                top: dense.layers.top,
                iteration: newest.iteration,
            },
            reader: newest.reader_state,
            rows_applied: merged.rows_applied,
            bytes_read,
            incremental_rows: merged.incremental_rows,
        },
        breakdown,
        ready_at,
        first_batch_at,
        rows_landed,
        lazy: lazy_tail,
        wal: log,
        killed_hosts,
        fetch_status,
        host_activity,
        plan_ready_at: plan_floor,
    })
}

/// Lists `job`'s write-ahead log and sizes each live segment (a `head`,
/// retried like a manifest's), oldest first: the log's items of the fetch
/// plan. A segment gone since the list (raced with truncation) ends the
/// log in front of it.
fn size_segments(
    store: &dyn ObjectStore,
    job: &str,
    fetch_sched: &FetchScheduler<'_>,
) -> Result<Vec<(String, u64)>> {
    let mut sized = Vec::new();
    for key in wal::list_segments(store, job)? {
        match fetch_sched.retrying(|| store.head(&key)) {
            Ok(meta) => sized.push((key, meta.size)),
            Err(CnrError::Storage(StorageError::NotFound(_))) => break,
            Err(e) => return Err(e),
        }
    }
    Ok(sized)
}

/// The log's items of the fetch plan: the `sized` segments (oldest first,
/// with their stored sizes), the newest read whole and each older one as
/// the prefix in front of its last trailer — one frame holding MLPs of
/// `dense`'s parameter counts. A segment too short to hold that trailer is
/// read whole.
fn log_items(sized: &[(String, u64)], dense: &DenseMeta) -> Vec<(String, u64)> {
    let trailer = envelope::HEADER_LEN
        + delta_log::trailer_len(dense.bottom_params as usize, dense.top_params as usize);
    let newest = sized.len().saturating_sub(1);
    sized
        .iter()
        .enumerate()
        .map(|(i, (key, size))| {
            let prefix = size.checked_sub(trailer as u64).filter(|&p| i < newest && p > 0);
            (key.clone(), prefix.unwrap_or(*size))
        })
        .collect()
}

/// What placing the log needs of the restore around it.
struct LogPlacement<'r, 'd> {
    /// The chain's newest manifest: the records that build on it past its
    /// iteration are live.
    newest: &'r Manifest,
    /// The chain's ranks: record `i` (oldest first) ranks above them all.
    chain_ranks: u32,
    dest: &'r merge::Destination<'d>,
    /// Reads a trailer the plan left unread.
    fetch_sched: &'r FetchScheduler<'r>,
    /// The reader hosts still alive, one of which reads it.
    live_hosts: Vec<u16>,
}

impl LogPlacement<'_, '_> {
    /// Walks the log's fetched `segments` (in list order, up to the first
    /// one that was gone; stored `sizes` long; the last arrived at
    /// `arrived_at`) and places its live tail — the records that build on
    /// `newest` past its iteration and, for the last, have their MLPs —
    /// into `dest` as the chain's newest level: record `i` (oldest first)
    /// ranks `chain_ranks + 1 + i`, above every chunk, and the records are
    /// placed newest first, so each row the log holds is written once,
    /// from the newest record naming it, and no chunk lands over it
    /// afterwards. A torn segment ends the walk there, whatever was
    /// fetched behind it.
    ///
    /// The last live record's trailer is the one walked behind its body,
    /// or, for the last record of a segment read short of its last trailer
    /// and walked to that point, read now ([`Self::read_trailer`]); any
    /// other record without one is torn inside it and not live.
    fn place(
        &self,
        segments: Vec<FetchedSegment>,
        sizes: &[u64],
        arrived_at: Duration,
        activity: &mut Vec<HostActivity>,
    ) -> Result<ReplayedLog> {
        let mut bytes_read = segments
            .iter()
            .filter_map(|s| s.fetched.as_ref())
            .map(|(bytes, _)| bytes.len() as u64)
            .sum();
        let log = wal::walk_segments(segments.iter().map_while(|s| {
            s.fetched.as_ref().map(|(bytes, _)| (s.key.clone(), bytes.clone()))
        }));
        let torn_in = match &log.tail {
            wal::WalTail::Torn { segment, .. } => Some(segment.as_str()),
            wal::WalTail::Clean => None,
        };
        let mut arrived_at = arrived_at;
        let mut failed = None;
        let records = &log.records;
        let tail = WalTail::live(
            records.iter().map(|record| &record.payload[..]),
            self.newest.id,
            self.newest.iteration,
            |i| {
                let record = &records[i];
                if record.trailer.is_some() {
                    return record.trailer.clone();
                }
                let segment = &segments[record.segment];
                let (prefix, _) = segment.fetched.as_ref()?;
                let (cut, size) = (prefix.len() as u64, sizes[segment.index as usize]);
                let last_in_segment =
                    records.get(i + 1).is_none_or(|next| next.segment != record.segment);
                if cut == size || !last_in_segment || torn_in == Some(segment.key.as_str()) {
                    return None;
                }
                match self.read_trailer(&segment.key, cut, size - cut, arrived_at, activity) {
                    Ok(Some((frame, at))) => {
                        bytes_read += frame.len() as u64;
                        arrived_at = arrived_at.max(at);
                        wal::open_trailer(&frame).ok()
                    }
                    Ok(None) => None,
                    Err(e) => {
                        failed = Some(e);
                        None
                    }
                }
            },
        );
        if let Some(e) = failed {
            return Err(e);
        }
        let mut rows_landed = 0;
        for (i, record) in tail.records().iter().enumerate().rev() {
            let key = format!("of WAL record {}", record.iteration);
            for chunk in &record.chunks {
                let rank = self.chain_ranks + 1 + i as u32;
                rows_landed += self.dest.place(chunk.opened(), rank, &key)?;
            }
        }
        Ok(ReplayedLog {
            tail,
            bytes_read,
            rows_landed,
            arrived_at,
        })
    }

    /// Reads the `len`-byte trailer at `offset` of segment `key` — the one
    /// the plan left unread — with one ranged read on the downlink of the
    /// live host that frees first (ties to the lowest index), floored at
    /// `not_before`, and counts it to that host. `None` when the segment is
    /// gone by now.
    fn read_trailer(
        &self,
        key: &str,
        offset: u64,
        len: u64,
        not_before: Duration,
        activity: &mut Vec<HostActivity>,
    ) -> Result<Option<(bytes::Bytes, Duration)>> {
        let host = self.fetch_sched.links().earliest_free(&self.live_hosts);
        let (frame, at) = match self.fetch_sched.fetch_range(host, key, offset, len, not_before) {
            Ok(read) => read,
            Err(CnrError::Storage(StorageError::NotFound(_))) => return Ok(None),
            Err(e) => return Err(e),
        };
        activity_of(activity, host).bytes += frame.len() as u64;
        Ok(Some((frame, at)))
    }
}

/// Folds one host's fetch-pass outcome into the per-host activity table
/// (a killed host's partial work and a survivor's rescue share both
/// accrue to the host that actually fetched the items).
fn note_activity(activity: &mut Vec<HostActivity>, host: u16, fetched: &[Fetched]) {
    if fetched.is_empty() {
        return;
    }
    let a = activity_of(activity, host);
    for item in fetched {
        a.bytes += match item {
            Fetched::Chunk(chunk) => {
                a.chunks += 1;
                chunk.bytes
            }
            Fetched::Segment(segment) => {
                a.log_segments += 1;
                segment.fetched.as_ref().map_or(0, |(bytes, _)| bytes.len() as u64)
            }
            Fetched::Dense(dense) => dense.bytes,
        };
    }
}

/// `host`'s entry of the activity table, ordered by host id, added empty
/// if it has none.
fn activity_of(activity: &mut Vec<HostActivity>, host: u16) -> &mut HostActivity {
    let i = activity.partition_point(|a| a.host < host);
    if activity.get(i).is_none_or(|a| a.host != host) {
        let idle = HostActivity { host, chunks: 0, log_segments: 0, bytes: 0, last_arrival: Duration::ZERO };
        activity.insert(i, idle);
    }
    &mut activity[i]
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
    use cnr_model::{DlrmModel, ModelConfig, ModelState, ShardPlan, TableState};
    use cnr_quant::QuantScheme;
    use cnr_reader::ReaderState;
    use cnr_storage::{
        FailureMode, Fault, FlakyStore, InMemoryStore, Op, RemoteConfig, SimulatedRemoteStore,
    };
    use cnr_workload::{DatasetSpec, SyntheticDataset};
    use std::collections::BTreeSet;

    fn snapshot_after(batches: u64, dim: usize) -> (ModelConfig, ModelState) {
        let cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(321), dim);
        let (saved, _) = snapshot_of(cfg.clone(), batches);
        (cfg, saved)
    }

    /// The state of a `cfg` model trained on `batches` batches of the
    /// tests' dataset, and the model.
    fn snapshot_of(cfg: ModelConfig, batches: u64) -> (ModelState, DlrmModel) {
        let ds = SyntheticDataset::new(DatasetSpec::tiny(321));
        let mut model = DlrmModel::new(cfg);
        for i in 0..batches {
            model.train_batch(&ds.batch(i), |_, _| {});
        }
        (ModelState::extract(&model), model)
    }

    /// A full snapshot of `saved`, the state of a `cfg` model, over tables
    /// the test holds: what `SnapshotTaker::take` records at its iteration.
    fn full_snapshot<'s>(cfg: &ModelConfig, saved: &'s ModelState) -> TrainingSnapshot<'s> {
        TrainingSnapshot {
            model: ModelState {
                tables: Vec::new(),
                bottom: saved.bottom.clone(),
                top: saved.top.clone(),
                iteration: saved.iteration,
            },
            tables: saved.tables.iter().map(TableState::view).collect(),
            geometry: crate::manifest::TableMeta::for_model(cfg),
            delta: cnr_tracking::TrackerSnapshot::full(&cfg.row_counts()),
            reader: ReaderState::at(saved.iteration),
            kind: CheckpointKind::Full,
            taken_at: Duration::ZERO,
            stall: Duration::ZERO,
        }
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

    /// A remote over `backing` of `channels` 1 MiB/s downlinks,
    /// `latency_us` per read and one replica.
    fn remote_over(
        backing: std::sync::Arc<dyn cnr_storage::ObjectStore>,
        channels: usize,
        latency_us: u64,
    ) -> SimulatedRemoteStore {
        let config = RemoteConfig {
            bandwidth_bytes_per_sec: 1024.0 * 1024.0,
            base_latency: Duration::from_micros(latency_us),
            replication: 1,
            channels: channels as u32,
        };
        SimulatedRemoteStore::over(backing, config, SimClock::new())
    }

    fn remote(channels: usize, latency_us: u64) -> SimulatedRemoteStore {
        remote_over(std::sync::Arc::new(InMemoryStore::new()), channels, latency_us)
    }

    fn opts(hosts: usize) -> RestoreOptions {
        RestoreOptions {
            reader_hosts: hosts,
            ..RestoreOptions::default()
        }
    }

    #[test]
    fn sharded_restore_matches_serial_report() {
        let (model_cfg, saved) = snapshot_after(3, 8);
        let snap = full_snapshot(&model_cfg, &saved);
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
            // The byte count is summed from what the chain walk and the
            // plan fetched; it equals what re-encoding the manifest would
            // have counted, plus the chunks and the one dense object.
            let chunk_bytes: u64 = manifest.chunks.iter().map(|c| c.bytes).sum();
            assert_eq!(
                sharded.breakdown.bytes_fetched,
                chunk_bytes + manifest.dense.bytes + manifest.encode_enveloped().len() as u64
            );
            assert!(sharded.killed_hosts.is_empty());
        }
    }

    #[test]
    fn eight_reader_hosts_reach_ready_to_train_sooner() {
        let (model_cfg, saved) = snapshot_after(3, 16);
        let snap = full_snapshot(&model_cfg, &saved);
        let ready_with = |hosts: usize| {
            let store = remote(hosts, 50);
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
            assert_eq!(sharded.report.state, saved, "fp32 bit-exact");
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
        let (model_cfg, saved) = snapshot_after(3, 8);
        let snap = full_snapshot(&model_cfg, &saved);
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
        let (model_cfg, saved) = snapshot_after(2, 8);
        let snap = full_snapshot(&model_cfg, &saved);
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
        let (model_cfg, saved) = snapshot_after(3, 8);
        let snap = full_snapshot(&model_cfg, &saved);
        let inner = InMemoryStore::new();
        write_to(&inner, &snap, 2);
        let store = FlakyStore::new(inner, [Fault::fail(Op::Read, FailureMode::Every(5))]);
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
        assert_eq!(sharded.report.state, saved);
        assert!(sharded.fetch_status.retries_performed > 0);
        assert!(store.injected(0) > 0);
    }

    #[test]
    fn invalid_options_are_rejected() {
        let (model_cfg, saved) = snapshot_after(1, 8);
        let snap = full_snapshot(&model_cfg, &saved);
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
        let (model_cfg, saved) = snapshot_after(3, 8);
        let snap = full_snapshot(&model_cfg, &saved);
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

    /// The payloads of the records of iterations `4..4 + n`, logged past a
    /// checkpoint of `model` at iteration 3 (fp32, base 0), training
    /// `model` on to the log's tip.
    fn logged_past(model: &mut DlrmModel, n: u64) -> Vec<Vec<u8>> {
        let ds = SyntheticDataset::new(DatasetSpec::tiny(321));
        (3..3 + n)
            .map(|i| {
                let batch = ds.batch(i);
                model.train_batch(&batch, |_, _| {});
                DeltaRecord::capture(model, &batch, &QuantScheme::Fp32, CheckpointId(0), i + 1)
                    .encode()
            })
            .collect()
    }

    /// Appends `payloads` to `job`'s log in `store`, one segment each: a
    /// payload that decodes as a record as the engine logs it, body and
    /// MLP trailer ([`DeltaRecord::append_to`]), any other as one frame.
    fn append_log(store: std::sync::Arc<dyn cnr_storage::ObjectStore>, payloads: &[Vec<u8>]) {
        let mut writer = cnr_storage::WalWriter::new(store, "job", cnr_storage::WalConfig);
        for payload in payloads {
            match DeltaRecord::decode(payload) {
                Ok(record) => record.append_to(&mut writer).unwrap(),
                Err(_) => writer.append(payload).unwrap(),
            };
        }
    }

    fn is_segment(item: &FetchItem) -> bool {
        matches!(item.kind, FetchKind::LogSegment(_))
    }

    /// `job`'s log segments in `store` with their sizes, oldest first.
    fn sized_segments(store: &dyn cnr_storage::ObjectStore) -> Vec<(String, u64)> {
        let keys = cnr_storage::wal::list_segments(store, "job").unwrap();
        keys.into_iter()
            .map(|key| {
                let size = store.head(&key).unwrap().size;
                (key, size)
            })
            .collect()
    }

    /// The log's items of a fetch plan of checkpoint `newest` from
    /// `store`: every segment but the newest read short of its last
    /// trailer.
    fn planned_segments(
        store: &dyn cnr_storage::ObjectStore,
        newest: &Manifest,
    ) -> Vec<(String, u64)> {
        log_items(&sized_segments(store), &newest.dense)
    }

    /// Simulated fetch timing is a property of the plan and the store, not
    /// of how decode threads interleave: a host's ranged reads take its
    /// downlink in the order of its fetch list, whichever worker reaches
    /// them first — here the first item's first read (the dense object's,
    /// or with a log the first segment's) is held 100-200 ms of wall time,
    /// so another worker reaches the host's later items first. So
    /// `ready_at`, a lazy restore's first batch and its held-back rows, the
    /// log's arrival and time-to-resume do not move with the worker count.
    /// (Decode and merge are wall-clock CPU time and are left out.) And an
    /// eager restore is a lazy one at `hot_fraction = 1`: the same rows,
    /// report, clocks, hosts and fetches.
    #[test]
    fn fetch_timing_does_not_depend_on_the_decode_workers() {
        let model_cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(321), 16);
        let (saved, mut tip) = snapshot_of(model_cfg.clone(), 3);
        let snap = full_snapshot(&model_cfg, &saved);
        let log = logged_past(&mut tip, 3);
        let tip = cnr_model::state::ModelState::extract(&tip);
        let heat = RowHeat::zipf(&model_cfg.row_counts(), 1.05);
        for (hosts, with_log) in [1usize, 2].into_iter().flat_map(|h| [(h, false), (h, true)]) {
            let (head, head_key) = if with_log {
                (FetchKind::LogSegment(0), cnr_storage::wal::segment_key("job", 0))
            } else {
                (FetchKind::Dense, Manifest::dense_key("job", CheckpointId(0)))
            };
            let timing = |workers: usize, lazy: bool, hot_fraction: f64| {
                // The head item's first read sleeps 100-200 ms of wall time,
                // so its worker falls behind another worker of its host.
                let stall = Fault::delay(Op::Read, Duration::from_millis(200), FailureMode::Once(1));
                let stall = stall.on_keys(head_key.clone());
                let store = std::sync::Arc::new(FlakyStore::new(remote(hosts, 50), [stall]));
                // Small parts: every chunk is several ranged reads.
                write_to_with_parts(store.as_ref(), &snap, 2, 4096);
                if with_log {
                    append_log(store.clone(), &log);
                }
                let drained = store.inner().wait_for_drain();
                let options = RestoreOptions {
                    reader_hosts: hosts,
                    decode_workers: workers,
                    lazy,
                    hot_fraction,
                    ..RestoreOptions::default()
                };
                let heat = (hot_fraction < 1.0).then_some(&heat);
                let chain = [crate::restore::load_manifest(store.as_ref(), "job", CheckpointId(0)).unwrap()];
                let segments = planned_segments(store.as_ref(), &chain[0]);
                let first = &planner::plan_priority(&chain, &segments, hosts, heat, hot_fraction)[0][0];
                assert_eq!(first.kind, head, "the log, else the dense object, heads the list");
                let what = format!(
                    "hosts={hosts} log={with_log} workers={workers} lazy={lazy} hot={hot_fraction}"
                );
                assert_eq!((&first.key, store.injected(0)), (&head_key, 0), "{what}: not read yet");
                let mut state = DlrmModel::new(model_cfg.clone());
                let sharded = restore_sharded_into(
                    store.as_ref(),
                    "job",
                    CheckpointId(0),
                    &model_cfg,
                    &options,
                    drained,
                    None,
                    heat,
                    state.table_views_mut(),
                    with_log,
                )
                .unwrap();
                assert_eq!(store.injected(0), 1, "{what}");
                let simulated = ResumeStats {
                    decode: Duration::ZERO,
                    merge: Duration::ZERO,
                    ..sharded.breakdown
                };
                let report = &sharded.report;
                report.state.restore_dense(&mut state);
                let replayed = sharded.wal.map(|log| {
                    log.tail.set_dense(&mut state).unwrap();
                    (log.tail.records().len(), log.bytes_read, log.rows_landed, log.arrived_at)
                });
                assert_eq!(replayed.is_some(), with_log, "{what}");
                let held_back = sharded.lazy.map(|mut tail| {
                    let pending = (tail.pending_rows(), tail.pending_keys());
                    tail.drain(&mut state).unwrap();
                    pending
                });
                let expected = if with_log { &tip } else { &saved };
                assert!(cnr_model::state::ModelState::extract(&state) == *expected, "{what}");
                (
                    (report.chain.clone(), report.rows_applied),
                    (report.bytes_read, report.incremental_rows.modified_rows()),
                    (sharded.ready_at, sharded.first_batch_at, sharded.plan_ready_at),
                    simulated.time_to_resume(),
                    (sharded.host_activity, sharded.fetch_status, held_back),
                    replayed,
                )
            };
            let eager = timing(1, false, 1.0);
            let what = format!("hosts={hosts} log={with_log}");
            assert_eq!(eager.2 .0, eager.2 .1, "{what}: all hot, first batch at the end");
            assert_eq!(timing(1, true, 1.0), eager, "{what}: eager is lazy at 1");
            let lazy = timing(1, true, 0.05);
            assert!(lazy.4 .2.is_some(), "{what}: something was held back");
            assert!(lazy.2 .1 < lazy.2 .0, "{what}: first batch before the end");
            if let Some((records, _, _, log_arrived_at)) = lazy.5 {
                assert_eq!(records, log.len(), "{what}");
                assert!(log_arrived_at > lazy.2 .2, "{what}: the log takes its reads");
                assert!(lazy.2 .1 >= log_arrived_at, "{what}: first batch waits for the log");
            }
            for workers in [2usize, 4] {
                assert_eq!(timing(workers, false, 1.0), eager, "{what} workers={workers}");
                assert_eq!(timing(workers, true, 0.05), lazy, "{what} workers={workers}");
            }
        }
    }

    /// The log's segments are items of the fetch plan: dealt before any
    /// chunk, each to the lightest of two reader hosts, they head those
    /// hosts' lists and come down as one ranged read each on the host's
    /// own downlink from the plan's completion. So the fetch ends exactly
    /// where the two channels' schedules, worked out read by read from
    /// the plan, end; the log has arrived when its last segment has; and
    /// first batch waits for it.
    #[test]
    fn the_log_heads_the_lightest_hosts_lists_and_rides_their_downlinks() {
        let cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(321), 16);
        let (saved, mut tip) = snapshot_of(cfg.clone(), 3);
        let snap = full_snapshot(&cfg, &saved);
        let k = 5;
        let log = logged_past(&mut tip, k);
        let store = std::sync::Arc::new(remote(2, 50));
        write_to_with_parts(store.as_ref(), &snap, 2, 4096);
        append_log(store.clone(), &log);
        let drained = store.wait_for_drain();
        let chain = [crate::restore::load_manifest(store.as_ref(), "job", CheckpointId(0)).unwrap()];
        let segments = planned_segments(store.as_ref(), &chain[0]);
        assert_eq!(segments.len(), k as usize);
        // Every segment but the newest is read short of its trailer frame:
        // the MLPs, behind an envelope header.
        let params = tip.bottom().param_count() + tip.top().param_count();
        let trailer = envelope::HEADER_LEN + 8 + 4 * params;
        for ((key, size), (_, read)) in sized_segments(store.as_ref()).iter().zip(&segments) {
            let newest = key == &segments[k as usize - 1].0;
            assert_eq!(*read, if newest { *size } else { size - trailer as u64 }, "{key}");
        }

        // The plan: segment i to the lightest host, in front of any chunk.
        let plan = planner::plan_priority(&chain, &segments, 2, None, 1.0);
        let mut load = [0u64; 2];
        for (i, (key, bytes)) in segments.iter().enumerate() {
            let h = if load[1] < load[0] { 1 } else { 0 };
            load[h] += bytes;
            let at = plan[h].iter().position(|item| &item.key == key).unwrap();
            assert_eq!(plan[h][at].kind, FetchKind::LogSegment(i as u32));
            assert!(plan[h][at].hot);
        }
        for list in &plan {
            let heads = list.iter().take_while(|item| is_segment(item)).count();
            assert!(!list[heads..].iter().any(is_segment), "segments head");
        }
        assert!(plan.iter().all(|list| is_segment(&list[0])), "both hosts read the log");

        let mut model = DlrmModel::new(cfg.clone());
        let sharded = restore_sharded_into(
            store.as_ref(),
            "job",
            CheckpointId(0),
            &cfg,
            &opts(2),
            drained,
            None,
            None,
            model.table_views_mut(),
            true,
        )
        .unwrap();
        sharded.report.state.restore_dense(&mut model);
        let replayed = sharded.wal.unwrap();
        replayed.tail.set_dense(&mut model).unwrap();
        assert_eq!(model.state_hash(), tip.state_hash(), "restored to the log's tip");

        // The two channels' schedules, read by read: from the plan's
        // completion, each host's list in turn order, each part one
        // `read_transfer_time` after the last.
        let mut log_arrivals = Vec::new();
        let mut ends = Vec::new();
        for list in &plan {
            let mut t = sharded.plan_ready_at;
            for item in list {
                let part = item.bytes.div_ceil(item.parts as u64).max(1);
                let mut offset = 0;
                while offset < item.bytes {
                    t += store.read_transfer_time(part.min(item.bytes - offset));
                    offset += part;
                }
                if is_segment(item) {
                    log_arrivals.push(t);
                }
            }
            ends.push(t);
        }
        let ready = ends.into_iter().max().unwrap();
        assert_eq!(sharded.ready_at, ready);
        assert_eq!(sharded.breakdown.fetch, ready - drained, "fetch is the two-channel schedule");
        assert_eq!(Some(&replayed.arrived_at), log_arrivals.iter().max());
        for &at in &log_arrivals {
            assert!(sharded.first_batch_at >= at, "first batch waits for every segment");
        }
        let log_bytes: u64 = segments.iter().map(|(_, bytes)| bytes).sum();
        assert_eq!(replayed.bytes_read, log_bytes);
        assert_eq!(sharded.breakdown.bytes_fetched, sharded.report.bytes_read + log_bytes);
        let per_host: Vec<u64> = sharded.host_activity.iter().map(|a| a.log_segments).collect();
        let planned: Vec<u64> = plan
            .iter()
            .map(|list| list.iter().filter(|item| is_segment(item)).count() as u64)
            .collect();
        assert_eq!(per_host, planned);
    }

    #[test]
    fn lazy_restore_plus_drain_is_bit_identical_to_eager() {
        use cnr_model::state::ModelState;
        let (model_cfg, saved) = snapshot_after(3, 8);
        let snap = full_snapshot(&model_cfg, &saved);
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
            let held_back = sharded.report.rows_applied < eager.report.rows_applied;
            assert_eq!(
                sharded.lazy.is_some(),
                held_back,
                "a tail iff a chunk was held back (hot_fraction={hot_fraction})"
            );
            assert_eq!(held_back, hot_fraction < 1.0, "hot_fraction={hot_fraction}");
            let mut model = DlrmModel::new(model_cfg.clone());
            sharded.report.state.restore(&mut model);
            if let Some(mut tail) = sharded.lazy {
                tail.drain(&mut model).unwrap();
                assert!(tail.is_drained());
            }
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
        let (model_cfg, saved) = snapshot_after(3, 16);
        let snap = full_snapshot(&model_cfg, &saved);
        let store = remote(2, 50);
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
        use cnr_storage::CorruptionKind;
        let (model_cfg, saved) = snapshot_after(3, 8);
        let snap = full_snapshot(&model_cfg, &saved);
        let inner = InMemoryStore::new();
        write_to(&inner, &snap, 2);
        let clean = restore(&inner, "job", CheckpointId(0), &model_cfg).unwrap();
        // One chunk read comes back bit-flipped; the refetch is healthy.
        let bit_flip = Fault::corrupt(CorruptionKind::BitFlip, FailureMode::Once(1));
        let store = FlakyStore::new(inner, [bit_flip.on_keys("-chunk-")]);
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

    /// A checkpoint whose manifest a v7 writer stored (body v7, with its
    /// scheme and per-host summaries) does not restore — serial, sharded or
    /// lazy: the error is typed and names the version.
    #[test]
    fn a_v7_manifest_is_corrupt_naming_its_version() {
        use cnr_storage::envelope;
        let (model_cfg, saved) = snapshot_after(2, 8);
        let snap = full_snapshot(&model_cfg, &saved);
        let store = InMemoryStore::new();
        write_to(&store, &snap, 1);
        let manifest = crate::restore::load_manifest(&store, "job", CheckpointId(0)).unwrap();
        let body = crate::manifest::tests::v7_body(&manifest);
        let stored = envelope::wrap_with_flags(&body, envelope::FLAG_MANIFEST);
        store.put(&Manifest::key("job", CheckpointId(0)), stored.into()).unwrap();
        let names_the_version = |e: CnrError| {
            matches!(&e, CnrError::Corrupt(why) if why.contains("unsupported manifest version 7 "))
        };
        let serial = restore(&store, "job", CheckpointId(0), &model_cfg);
        assert!(names_the_version(serial.unwrap_err()));
        for lazy in [false, true] {
            let options = RestoreOptions { lazy, ..opts(2) };
            let sharded =
                restore_sharded(&store, "job", CheckpointId(0), &model_cfg, &options, Duration::ZERO);
            assert!(names_the_version(sharded.unwrap_err()), "lazy={lazy}");
        }
    }

    #[test]
    fn unhealable_corruption_fails_the_restore_with_a_typed_error() {
        use crate::error::CnrError;
        use cnr_storage::CorruptionKind;
        let (model_cfg, saved) = snapshot_after(3, 8);
        let snap = full_snapshot(&model_cfg, &saved);
        let inner = InMemoryStore::new();
        write_to(&inner, &snap, 2);
        // Every replica of every chunk read is damaged: no retry budget
        // can heal it, and the restore must refuse to return garbage.
        let bit_flip = Fault::corrupt(CorruptionKind::BitFlip, FailureMode::Every(1));
        let store = FlakyStore::new(inner, [bit_flip.on_keys("-chunk-")]);
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
    /// log ([`append_log`]). Returns the store and the records.
    fn checkpoint_with_log(
        cfg: &ModelConfig,
        scheme: QuantScheme,
        log: impl FnOnce(&[DeltaRecord]) -> Vec<Vec<u8>>,
    ) -> (std::sync::Arc<InMemoryStore>, Vec<DeltaRecord>) {
        let (saved, mut model) = snapshot_of(cfg.clone(), 3);
        let snap = full_snapshot(cfg, &saved);
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
        append_log(store.clone(), &log(&records));
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
    /// table, an optimizer state the table lacks — fails the restore
    /// typed, as a stored chunk does, eager and lazy. Such a record is
    /// checksum-clean and decodes. (A row named twice or rows out of order
    /// have no encoding: `wire::put_indices` refuses them.)
    #[test]
    fn the_log_refuses_chunks_that_do_not_fit_the_model() {
        type Edit = fn(&mut Vec<u32>, &mut Option<Vec<f32>>, &mut Vec<u8>);
        let cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(321), 8);
        let edits: [(&str, Edit); 2] = [
            ("a row past its table", |rows, _, _| *rows.last_mut().unwrap() = u32::MAX),
            ("an optimizer state the table lacks", |rows, acc, _| {
                *acc = Some(vec![1.0; rows.len()])
            }),
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

    /// A restore asked to replay a log that has no live segment fetches
    /// nothing more than one that is not: the same clocks and fetches.
    #[test]
    fn an_empty_log_costs_no_read() {
        let (cfg, saved) = snapshot_after(3, 8);
        let snap = full_snapshot(&cfg, &saved);
        let restore = |replay_wal: bool| {
            let store = remote(2, 20_000);
            write_to(&store, &snap, 2);
            let drained = store.wait_for_drain();
            let mut model = DlrmModel::new(cfg.clone());
            let sharded = restore_sharded_into(
                &store,
                "job",
                CheckpointId(0),
                &cfg,
                &opts(2),
                drained,
                None,
                None,
                model.table_views_mut(),
                replay_wal,
            )
            .unwrap();
            assert_eq!(sharded.wal.is_some(), replay_wal);
            if let Some(log) = &sharded.wal {
                assert!(log.tail.records().is_empty());
                assert_eq!((log.bytes_read, log.arrived_at), (0, sharded.plan_ready_at));
            }
            let simulated = (sharded.breakdown.fetch, sharded.breakdown.bytes_fetched);
            (simulated, sharded.ready_at, sharded.first_batch_at, sharded.fetch_status)
        };
        assert_eq!(restore(true), restore(false));
    }

    /// When the last live record sits in a segment the plan read short of
    /// its trailer — the newest segment is torn mid-body, holds only a
    /// record of a stale base, or is gone after the list — that trailer is
    /// read after the walk, on the downlink of the reader host that frees
    /// first (ties to the lowest index), behind that host's list and no
    /// earlier than the log's arrival; first batch waits for it; and the
    /// MLPs it lands are the ones applying the live records in order
    /// leaves, eager and lazy (all hot, or with a cold tail, whose chunks a
    /// host's list fetches too, so that host frees later). A trailer so
    /// read that fails verification ends the tail in front of its record,
    /// and the next older record's trailer is read the same way, once the
    /// first has arrived.
    #[test]
    fn a_trailer_left_unread_is_read_after_the_walk() {
        let cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(321), 16);
        let (saved, mut tip) = snapshot_of(cfg.clone(), 3);
        let snap = full_snapshot(&cfg, &saved);
        let mut in_order = vec![tip.clone()];
        let log = logged_past(&mut tip, 4); // iterations 4..=7
        for payload in &log[..3] {
            let mut next = in_order.last().unwrap().clone();
            DeltaRecord::decode(payload).unwrap().apply(&mut next).unwrap();
            in_order.push(next);
        }
        // Each case: what befalls the log, the records left live, and the
        // segments whose trailers are read after the walk, in order.
        let cases: [(&str, usize, &[usize]); 4] = [
            ("torn mid-body", 3, &[2]),
            ("stale base", 3, &[2]),
            ("gone", 3, &[2]),
            ("torn mid-body, third trailer flipped", 2, &[2, 1]),
        ];
        let key = |i| cnr_storage::wal::segment_key("job", i);
        let newest = key(3);
        let heat = RowHeat::zipf(&cfg.row_counts(), 1.05);
        for (case, live, trailers_read) in cases {
            let gone = (case == "gone")
                .then(|| Fault::gone(Op::Read, FailureMode::Every(1)).on_keys(newest.clone()));
            let store = std::sync::Arc::new(FlakyStore::new(remote(2, 50), gone));
            write_to_with_parts(store.as_ref(), &snap, 2, 4096);
            let mut payloads = log.clone();
            if case == "stale base" {
                let mut stale = DeltaRecord::decode(&payloads[3]).unwrap();
                stale.base = CheckpointId(1);
                payloads[3] = stale.encode();
            }
            append_log(store.clone(), &payloads);
            if case.starts_with("torn mid-body") {
                let whole = store.get(&newest).unwrap();
                store.put(&newest, whole.slice(..envelope::HEADER_LEN + 12)).unwrap();
            }
            if case.ends_with("trailer flipped") {
                let mut third = store.get(&key(2)).unwrap().to_vec();
                *third.last_mut().unwrap() ^= 0x01;
                store.put(&key(2), third.into()).unwrap();
            }

            let newest_manifest =
                crate::restore::load_manifest(store.as_ref(), "job", CheckpointId(0)).unwrap();
            let chain = [newest_manifest];
            let segments = planned_segments(store.as_ref(), &chain[0]);
            let trailer = sized_segments(store.as_ref())[2].1 - segments[2].1;
            for (lazy, heat) in [(false, None), (true, None), (true, Some(&heat))] {
                let what = format!("{case} lazy={lazy} heat={}", heat.is_some());
                let plan = planner::plan_priority(&chain, &segments, 2, heat, 0.05);
                let before_restore = store.inner().wait_for_drain();
                let mut model = DlrmModel::new(cfg.clone());
                let sharded = restore_sharded_into(
                    store.as_ref(),
                    "job",
                    CheckpointId(0),
                    &cfg,
                    &log_opts(2, lazy),
                    before_restore,
                    None,
                    heat,
                    model.table_views_mut(),
                    true,
                )
                .unwrap();
                sharded.report.state.restore_dense(&mut model);
                let replayed = sharded.wal.unwrap();
                replayed.tail.set_dense(&mut model).unwrap();
                assert_eq!(sharded.lazy.is_some(), heat.is_some(), "{what}: a cold tail");
                if let Some(mut tail) = sharded.lazy {
                    tail.drain(&mut model).unwrap();
                }
                let iterations: Vec<u64> =
                    replayed.tail.records().iter().map(|r| r.iteration).collect();
                assert_eq!(iterations, (4..4 + live as u64).collect::<Vec<_>>(), "{what}");
                assert_eq!(model.state_hash(), in_order[live].state_hash(), "{what}");

                // The channels' schedules, read by read, as the plan lays
                // them out from its completion (the segment gone at its
                // read takes no time), then the trailer reads, each on the
                // host that frees first, no earlier than the log's arrival.
                let read_time = |bytes| store.inner().read_transfer_time(bytes);
                let mut ends = Vec::new();
                let mut log_arrived = sharded.plan_ready_at;
                for list in &plan {
                    let mut t = sharded.plan_ready_at;
                    for item in list {
                        if case == "gone" && item.key == newest {
                            continue;
                        }
                        let part = item.bytes.div_ceil(item.parts as u64).max(1);
                        let mut offset = 0;
                        while offset < item.bytes {
                            t += read_time(part.min(item.bytes - offset));
                            offset += part;
                        }
                        if is_segment(item) {
                            log_arrived = log_arrived.max(t);
                        }
                    }
                    ends.push(t);
                }
                let mut trailer_at = log_arrived;
                let mut read_on = Vec::new();
                for _ in trailers_read {
                    let host = (0..ends.len()).min_by_key(|&host| (ends[host], host)).unwrap();
                    trailer_at = ends[host].max(trailer_at) + read_time(trailer);
                    ends[host] = trailer_at;
                    read_on.push(host);
                }
                for &host in &read_on {
                    let activity = sharded.host_activity.iter().find(|a| a.host == host as u16);
                    assert_eq!(activity.unwrap().last_arrival, ends[host], "{what}");
                }
                if case == "gone" && heat.is_some() {
                    // The host that fetched the segment ends its list, cold
                    // chunks included, after the other host: the trailer is
                    // read on the other and lands before that list ends.
                    let segment = key(trailers_read[0] as u64);
                    let fetched_on =
                        plan.iter().position(|list| list.iter().any(|i| i.key == segment));
                    assert_ne!(fetched_on, Some(read_on[0]), "{what}");
                    assert!(trailer_at < ends[fetched_on.unwrap()], "{what}");
                }
                assert_eq!(replayed.arrived_at, trailer_at, "{what}");
                assert!(sharded.first_batch_at >= trailer_at, "{what}: first batch waits for it");
                assert_eq!(sharded.ready_at, ends.into_iter().max().unwrap(), "{what}");
                let read: u64 = segments
                    .iter()
                    .filter(|(key, _)| case != "gone" || *key != newest)
                    .map(|(_, bytes)| bytes)
                    .sum();
                let trailers = trailer * trailers_read.len() as u64;
                assert_eq!(replayed.bytes_read, read + trailers, "{what}");
            }
        }
    }

    /// A reader host whose only item is a log segment gone since the list
    /// read nothing, and its downlink frees when the plan existed, not
    /// before: no host's last arrival is earlier than the plan.
    #[test]
    fn a_host_whose_only_item_is_a_gone_segment_frees_at_the_plan() {
        let cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(321), 16);
        let (saved, mut tip) = snapshot_of(cfg.clone(), 3);
        let snap = full_snapshot(&cfg, &saved);
        let log = logged_past(&mut tip, 3);
        let first = cnr_storage::wal::segment_key("job", 0);
        let gone = Fault::gone(Op::Read, FailureMode::Every(1)).on_keys(first.clone());
        let store = std::sync::Arc::new(FlakyStore::new(remote(2, 50), [gone]));
        write_to(store.as_ref(), &snap, 2);
        append_log(store.clone(), &log);
        // More reader hosts than the plan has items: each holds one at most.
        let options = RestoreOptions { reader_hosts: 64, ..log_opts(2, false) };
        let chain = [crate::restore::load_manifest(store.as_ref(), "job", CheckpointId(0)).unwrap()];
        let plan = planner::plan_priority(&chain, &planned_segments(store.as_ref(), &chain[0]), 64, None, 1.0);
        let host = plan.iter().position(|list| list.iter().any(|item| item.key == first)).unwrap();
        assert_eq!(plan[host].len(), 1, "the gone segment is its host's only item");

        let before_restore = store.inner().wait_for_drain();
        let mut model = DlrmModel::new(cfg.clone());
        let sharded = restore_sharded_into(
            store.as_ref(),
            "job",
            CheckpointId(0),
            &cfg,
            &options,
            before_restore,
            None,
            None,
            model.table_views_mut(),
            true,
        )
        .unwrap();
        assert!(sharded.wal.unwrap().tail.records().is_empty(), "the log ends in front of it");
        assert!(sharded.plan_ready_at > before_restore);
        let idle = sharded.host_activity.iter().find(|a| a.host == host as u16).unwrap();
        assert_eq!((idle.log_segments, idle.bytes), (1, 0));
        assert_eq!(idle.last_arrival, sharded.plan_ready_at);
        for a in &sharded.host_activity {
            assert!(a.last_arrival >= sharded.plan_ready_at, "{a:?}");
        }
    }

    /// A segment that is gone after the list ends the log in front of it,
    /// as `wal::replay` ends it: the records before it land, none behind
    /// it — fetched or not — and the restore succeeds, eager and lazy.
    #[test]
    fn a_segment_gone_after_the_list_ends_the_log_there() {
        let cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(321), 8);
        let (store, records) = checkpoint_with_log(&cfg, QuantScheme::Fp32, |records| {
            records.iter().map(DeltaRecord::encode).collect()
        });
        let mut in_order = DlrmModel::new(cfg.clone());
        let restored =
            restore_sharded(store.as_ref(), "job", CheckpointId(0), &cfg, &opts(2), Duration::ZERO)
                .unwrap();
        restored.report.state.restore(&mut in_order);
        for record in &records[..2] {
            record.apply(&mut in_order).unwrap();
        }
        for at_head in [true, false] {
            // Listed but gone: at the `head` that sizes it for the plan,
            // or at the read itself — a truncation racing the restore.
            let op = if at_head { Op::Head } else { Op::Read };
            let gone = Fault::gone(op, FailureMode::Every(1));
            let key = cnr_storage::wal::segment_key("job", 2);
            let vanished = FlakyStore::new(InMemoryStore::new(), [gone.on_keys(key)]);
            for key in store.list("job/").unwrap() {
                vanished.inner().put(&key, store.get(&key).unwrap()).unwrap();
            }
            if !at_head {
                let replayed = cnr_storage::wal::replay(&vanished, "job").unwrap();
                assert_eq!(replayed.records.len(), 2, "replay ends there too");
            }
            for lazy in [false, true] {
                let what = format!("at_head={at_head} lazy={lazy}");
                let mut model = DlrmModel::new(cfg.clone());
                let restored = restore_sharded_into(
                    &vanished,
                    "job",
                    CheckpointId(0),
                    &cfg,
                    &log_opts(2, lazy),
                    Duration::ZERO,
                    None,
                    Some(&RowHeat::zipf(&cfg.row_counts(), 1.05)),
                    model.table_views_mut(),
                    true,
                )
                .unwrap();
                restored.report.state.restore_dense(&mut model);
                let log = restored.wal.unwrap();
                log.tail.set_dense(&mut model).unwrap();
                let iterations: Vec<u64> = log.tail.records().iter().map(|r| r.iteration).collect();
                assert_eq!(iterations, [4, 5], "{what}");
                if let Some(mut tail) = restored.lazy {
                    tail.drain(&mut model).unwrap();
                }
                assert_eq!(model.state_hash(), in_order.state_hash(), "{what}");
            }
        }
    }

    /// A torn middle segment stops the log at the tear although every
    /// segment behind it was fetched too (and counted): the records in
    /// front of the tear land, none behind it — as `wal::replay` stops.
    /// The last of them is the first segment's, read short of its trailer:
    /// that trailer is read after the walk, and counted too.
    #[test]
    fn a_torn_middle_segment_stops_the_log_at_the_tear() {
        let cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(321), 8);
        let (store, records) = checkpoint_with_log(&cfg, QuantScheme::Fp32, |records| {
            records[..4].iter().map(DeltaRecord::encode).collect()
        });
        let segments = sized_segments(store.as_ref());
        let torn_key = &segments[1].0;
        let whole = store.get(torn_key).unwrap();
        store.put(torn_key, whole.slice(..whole.len() / 2)).unwrap();
        let manifest =
            crate::restore::load_manifest(store.as_ref(), "job", CheckpointId(0)).unwrap();
        let planned = planned_segments(store.as_ref(), &manifest);
        let first_trailer = segments[0].1 - planned[0].1;
        let torn_bytes = planned.iter().map(|(_, bytes)| bytes).sum::<u64>() + first_trailer;
        // Replay, which reads each segment whole, stops at the tear too:
        // the first record comes back with its trailer, any of the torn
        // segment without.
        let replayed = cnr_storage::wal::replay(store.as_ref(), "job").unwrap();
        assert!(replayed.records[0].trailer.is_some());
        assert!(replayed.records[1..].iter().all(|r| r.segment == 1 && r.trailer.is_none()));
        assert!(matches!(
            replayed.tail,
            cnr_storage::WalTail::Torn { ref segment, .. } if segment == torn_key
        ));

        let mut in_order = DlrmModel::new(cfg.clone());
        let restored =
            restore_sharded(store.as_ref(), "job", CheckpointId(0), &cfg, &opts(2), Duration::ZERO)
                .unwrap();
        restored.report.state.restore(&mut in_order);
        records[0].apply(&mut in_order).unwrap();
        for lazy in [false, true] {
            let (mut model, restored) =
                restore_with_log(store.as_ref(), &cfg, &log_opts(2, lazy)).unwrap();
            let log = restored.wal.unwrap();
            let iterations: Vec<u64> = log.tail.records().iter().map(|r| r.iteration).collect();
            assert_eq!(iterations, [4], "lazy={lazy}");
            assert_eq!(log.bytes_read, torn_bytes, "lazy={lazy}: every segment was fetched");
            assert!(log.arrived_at <= restored.first_batch_at, "lazy={lazy}");
            assert_eq!(
                restored.breakdown.bytes_fetched,
                restored.report.bytes_read + torn_bytes,
                "lazy={lazy}"
            );
            if let Some(mut tail) = restored.lazy {
                tail.drain(&mut model).unwrap();
            }
            assert_eq!(model.state_hash(), in_order.state_hash(), "lazy={lazy}");
        }
    }

    /// Checkpoints `0..levels` of one training run of `cfg`, fp32, written
    /// by two hosts: a full baseline, then consecutive incrementals, one
    /// batch apart. Returns the newest id and the model at it.
    fn write_consecutive(
        store: &dyn cnr_storage::ObjectStore,
        cfg: &ModelConfig,
        levels: u64,
    ) -> (CheckpointId, DlrmModel) {
        let ds = SyntheticDataset::new(DatasetSpec::tiny(321));
        let model = DlrmModel::new(cfg.clone());
        let mut trainer =
            cnr_trainer::Trainer::new(model, SimClock::new(), cnr_trainer::TrainerConfig::default());
        let taker = SnapshotTaker::new(ShardPlan::balanced(cfg, 1, 2));
        let writer = crate::write::CheckpointWriter::new(store, "job");
        let write_cfg = CheckpointConfig {
            chunk_rows: 100,
            writer_hosts: 2,
            ..CheckpointConfig::default()
        };
        for level in 0..levels {
            trainer.train_one(&ds.batch(level));
            let kind = if level == 0 { CheckpointKind::Full } else { CheckpointKind::Incremental };
            let decision = Decision { kind, tracker: TrackerAction::SnapshotReset };
            let snap = taker.take(
                &mut trainer,
                ReaderState::at(level + 1),
                decision,
                &CheckpointConfig::default(),
            );
            let base = level.checked_sub(1).map(CheckpointId);
            writer
                .write(&snap, CheckpointId(level), base, QuantScheme::Fp32, &write_cfg)
                .unwrap();
        }
        (CheckpointId(levels - 1), trainer.model().clone())
    }

    /// The chain walk reads manifests and nothing else, one after another
    /// on host 0's downlink: the plan exists exactly Σ
    /// `read_transfer_time(manifest)` after the restore began, whatever the
    /// chain's length or the host count. The dense layers are read once —
    /// the newest level's object, as an item of the plan — so the restore
    /// fetches its chunks, its manifests and that one object.
    #[test]
    fn the_walk_reads_manifests_only_and_the_plan_one_dense_object() {
        let cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(321), 8);
        for (levels, hosts) in [1u64, 3, 6].into_iter().flat_map(|l| [(l, 1usize), (l, 4)]) {
            let what = format!("levels={levels} hosts={hosts}");
            let backing = std::sync::Arc::new(FlakyStore::new(InMemoryStore::new(), []));
            let store = remote_over(backing.clone(), hosts, 20_000);
            let (newest, model) = write_consecutive(&store, &cfg, levels);
            let drained = store.wait_for_drain();
            backing.take_journal();
            let sharded =
                restore_sharded(&store, "job", newest, &cfg, &opts(hosts), drained).unwrap();
            assert!(sharded.report.state == cnr_model::state::ModelState::extract(&model), "{what}");
            assert_eq!(sharded.report.chain.len() as u64, levels, "{what}");

            let chain: Vec<Manifest> = sharded
                .report
                .chain
                .iter()
                .map(|&id| crate::restore::load_manifest(&store, "job", id).unwrap())
                .collect();
            let manifest_lens: Vec<u64> = chain
                .iter()
                .map(|m| store.head(&Manifest::key("job", m.id)).unwrap().size)
                .collect();
            let walk: Duration =
                manifest_lens.iter().map(|&len| store.read_transfer_time(len)).sum();
            assert_eq!(sharded.plan_ready_at - drained, walk, "{what}");

            let reads: Vec<String> = backing
                .take_journal()
                .into_iter()
                .filter(|call| matches!(call.method, "get" | "get_range"))
                .map(|call| call.key)
                .collect();
            let dense: Vec<&String> = reads.iter().filter(|k| k.ends_with("/dense")).collect();
            let newest_dense = &chain.last().unwrap().dense;
            assert_eq!(dense, [&newest_dense.key], "{what}: one dense object, the newest");
            let chunk_bytes: u64 = chain.iter().flat_map(|m| &m.chunks).map(|c| c.bytes).sum();
            let manifest_bytes: u64 = manifest_lens.iter().sum();
            assert_eq!(
                sharded.breakdown.bytes_fetched,
                chunk_bytes + manifest_bytes + newest_dense.bytes,
                "{what}"
            );
        }
    }

    /// A checkpoint whose MLPs are not the model's shape fails typed —
    /// serial and sharded, eager and lazy — before anything but the
    /// manifests is fetched, instead of panicking when the layers are set.
    #[test]
    fn other_mlps_than_the_models_fail_typed_before_any_fetch() {
        let (written, saved) = snapshot_after(2, 8);
        let snap = full_snapshot(&written, &saved);
        let inner = InMemoryStore::new();
        write_to(&inner, &snap, 2);
        let store = FlakyStore::new(
            inner,
            [
                Fault::fail(Op::Read, FailureMode::Every(1)).on_keys("/dense"),
                Fault::fail(Op::Read, FailureMode::Every(1)).on_keys("-chunk-"),
            ],
        );
        let other = ModelConfig {
            bottom_hidden: vec![written.bottom_hidden[0] + 1],
            ..written.clone()
        };
        let mismatch = |e: CnrError| {
            matches!(&e, CnrError::ShapeMismatch(why) if why.starts_with("MLPs: checkpoint"))
        };
        assert!(mismatch(restore(&store, "job", CheckpointId(0), &other).unwrap_err()));
        for lazy in [false, true] {
            let options = RestoreOptions { lazy, ..opts(2) };
            let sharded =
                restore_sharded(&store, "job", CheckpointId(0), &other, &options, Duration::ZERO);
            assert!(mismatch(sharded.unwrap_err()), "lazy={lazy}");
        }
        assert_eq!((store.injected(0), store.injected(1)), (0, 0), "nothing else was read");
        // The model it was written by restores.
        let restored =
            restore_sharded(store.inner(), "job", CheckpointId(0), &written, &opts(2), Duration::ZERO);
        assert_eq!(restored.unwrap().report.state, saved);
    }

    /// The newest level's dense object must be its own: another
    /// checkpoint's under its key is corrupt by the id check, and a
    /// missing one is the store's typed error — serial and sharded.
    #[test]
    fn the_dense_object_must_be_the_checkpoints_own_and_present() {
        let cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(321), 8);
        let store = InMemoryStore::new();
        let (newest, _) = write_consecutive(&store, &cfg, 2);
        let key = Manifest::dense_key("job", newest);
        let own = store.get(&key).unwrap();
        let restores = |store: &InMemoryStore| {
            let serial = restore(store, "job", newest, &cfg).map(|_| ());
            let sharded = [false, true].map(|lazy| {
                let options = RestoreOptions { lazy, ..opts(2) };
                restore_sharded(store, "job", newest, &cfg, &options, Duration::ZERO).map(|_| ())
            });
            [serial].into_iter().chain(sharded).map(Result::unwrap_err).collect::<Vec<_>>()
        };

        let baseline = store.get(&Manifest::dense_key("job", CheckpointId(0))).unwrap();
        store.put(&key, baseline).unwrap();
        for err in restores(&store) {
            assert!(
                matches!(&err, CnrError::Corrupt(why)
                    if why.starts_with("dense object of ckpt-00000000 at iteration 1 under ckpt-00000001")),
                "{err:?}"
            );
        }
        store.delete(&key).unwrap();
        for err in restores(&store) {
            assert!(matches!(&err, CnrError::Storage(StorageError::NotFound(k)) if *k == key), "{err:?}");
        }
        store.put(&key, own).unwrap();
        assert!(restore(&store, "job", newest, &cfg).is_ok());
    }
}
