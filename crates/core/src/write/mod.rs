//! The sharded, pipelined checkpoint write path (§4.4 steps 2–3).
//!
//! A write reads the tables its snapshot borrows from the trainer, so in
//! wall-clock time training waits for it; the simulated clock charges
//! training only the snapshot's stall (§4.2's decoupled design) and drains
//! the uploads behind it. Work flows through three stages, one submodule
//! each:
//!
//! ```text
//! chunker ──▶ shard writers (one per simulated host) ──▶ upload scheduler
//!   split         quantize + encode each chunk             multipart puts:
//!   rows into     of the host's row-range                  a chunk's parts on
//!   per-host                                               its host's uplink,
//!   chunks                                                 the dense object's
//!                                                          dealt over every
//!                                                          live uplink; all
//!                                                          floored at the
//!                                                          last drain
//! ```
//!
//! * [`chunker`] partitions every table's rows over `writer_hosts`
//!   contiguous shards and batches modified rows into chunks — lists of
//!   row indices; the rows stay in the snapshot's tables.
//! * [`shard_writer`] is one host's side of a chunk: quantize the rows it
//!   names straight from the table, encode, upload. A host killed mid-upload
//!   aborts its in-flight multipart transfer and hands its unfinished
//!   chunks back.
//! * [`scheduler`] streams each chunk as a multipart object over the
//!   owning host's uplink in the chunk's turn, deals the dense object's
//!   parts over the live hosts' uplinks (each part to the one that frees
//!   first), and keeps the running durability point the engine reads
//!   (§4.3 non-overlap without blocking). Its upload *floor* is how
//!   overlapped checkpoints stay legal: a write issued while the previous
//!   drain is still in flight ([`CheckpointWriter::write_overlapping`])
//!   quantizes immediately but queues every part behind the previous
//!   durability point.
//!
//! The coordinator here ([`CheckpointWriter`]) plans the shards, fans them
//! out over `quantize_workers` threads and re-shards the work of any host
//! that died onto the survivors (both through `crate::hosts`, which the
//! read path shares); a chunk is named by its host and *turn*, its place
//! in that host's list. Once every chunk is accounted for it uploads the
//! checkpoint's dense object (its MLPs, which every trainer holds) through
//! the scheduler, dealt over the hosts that survived, and, last, puts the
//! manifest — the §4.4 validity rule: a checkpoint exists only when all of
//! it is durable.

pub mod chunker;
pub mod scheduler;
pub mod shard_writer;

pub use chunker::{shard_range, WorkItem};
pub use scheduler::UploadScheduler;

use crate::config::CheckpointConfig;
use crate::error::{CnrError, Result};
use crate::hosts::run_hosts;
use crate::manifest::{CheckpointId, ChunkMeta, DenseLayers, DenseMeta, Manifest};
use crate::snapshot::TrainingSnapshot;
use bytes::Bytes;
use cnr_cluster::HostKill;
use cnr_quant::QuantScheme;
use cnr_storage::ObjectStore;
use shard_writer::ShardWriter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Result of writing one checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointRecord {
    /// The stored manifest.
    pub manifest: Manifest,
    /// Key of the manifest object.
    pub manifest_key: String,
    /// Logical bytes stored (chunks, dense object and manifest).
    pub stored_bytes: u64,
    /// Simulated time at which the checkpoint became fully durable.
    pub completed_at: Duration,
    /// Simulated write latency (durable time − issue time); the §4.3 "time
    /// it takes a checkpoint to become valid".
    pub write_latency: Duration,
    /// Each chunk's wall-clock quantize and encode time, summed over all
    /// workers. Not CPU time, despite the name: a worker waiting for a
    /// core counts.
    pub quantize_cpu_time: Duration,
    /// Multipart parts uploaded into the manifest's chunks.
    pub parts: u32,
    /// Writer hosts that died mid-upload (their remaining rows were
    /// re-sharded onto the survivors).
    pub killed_hosts: Vec<u16>,
}

/// Checks the shapes the plan relies on: every table `rows × dim`, with
/// accumulators iff its geometry announces them, and every mask `rows`
/// bits. The snapshot's fields are public; a table or a delta edited after
/// `take` must fail here, typed, instead of reading past a table.
fn check_tables(snapshot: &TrainingSnapshot) -> Result<()> {
    let (tables, metas, masks) = (&snapshot.tables, &snapshot.geometry, &snapshot.delta.tables);
    if tables.len() != metas.len() || masks.len() != metas.len() {
        return Err(CnrError::ShapeMismatch(format!(
            "snapshot has {} tables and {} masks for {} tables",
            tables.len(),
            masks.len(),
            metas.len()
        )));
    }
    for (t, ((table, meta), mask)) in tables.iter().zip(metas).zip(masks).enumerate() {
        let rows = meta.rows as usize;
        let accumulators = table.adagrad.map(<[f32]>::len);
        if mask.len() != rows
            || table.data.len() != rows * meta.dim as usize
            || accumulators != meta.has_optimizer_state.then_some(rows)
        {
            return Err(CnrError::ShapeMismatch(format!(
                "snapshot table {t} is {}x{} (accumulators {}): it holds {} values and {:?} \
                 accumulators, and its delta masks {} rows",
                meta.rows,
                meta.dim,
                meta.has_optimizer_state,
                table.data.len(),
                accumulators,
                mask.len()
            )));
        }
    }
    Ok(())
}

/// Writes checkpoints for one job onto one store.
pub struct CheckpointWriter<'a> {
    store: &'a dyn ObjectStore,
    job: String,
}

impl<'a> CheckpointWriter<'a> {
    /// Creates a writer for `job`.
    pub fn new(store: &'a dyn ObjectStore, job: impl Into<String>) -> Self {
        Self {
            store,
            job: job.into(),
        }
    }

    /// Writes `snapshot` as checkpoint `id` (delta base `base`) using
    /// `scheme`, sharded over `config.writer_hosts` simulated hosts.
    pub fn write(
        &self,
        snapshot: &TrainingSnapshot,
        id: CheckpointId,
        base: Option<CheckpointId>,
        scheme: QuantScheme,
        config: &CheckpointConfig,
    ) -> Result<CheckpointRecord> {
        self.write_overlapping(snapshot, id, base, scheme, config, None, Duration::ZERO)
    }

    /// [`CheckpointWriter::write`] with the two things the engine adds.
    ///
    /// *Writer-host failure injection:* the host named by `kill` dies
    /// mid-upload, its in-flight chunk is aborted, and its unfinished rows
    /// are re-sharded onto the surviving hosts. The resulting checkpoint is
    /// complete and restores exactly.
    ///
    /// *The §4.3 relaxation:* quantization and encoding proceed immediately
    /// (they overlap the previous checkpoint's upload drain on background
    /// CPU), but no part of this checkpoint may start transferring before
    /// `uploads_after` — the previous checkpoint's durability point —
    /// because uploads themselves must never overlap.
    #[allow(clippy::too_many_arguments)]
    pub fn write_overlapping(
        &self,
        snapshot: &TrainingSnapshot,
        id: CheckpointId,
        base: Option<CheckpointId>,
        scheme: QuantScheme,
        config: &CheckpointConfig,
        kill: Option<HostKill>,
        uploads_after: Duration,
    ) -> Result<CheckpointRecord> {
        let issue_time = snapshot.taken_at;
        let quantize_nanos = AtomicU64::new(0);
        let hosts = config.writer_hosts.max(1);
        let scheduler = UploadScheduler::new(self.store, hosts, config.part_bytes);
        scheduler.set_floor(uploads_after);

        // --- Plan: shard and chunk the delta. ---------------------------
        check_tables(snapshot)?;
        let shards = chunker::plan(snapshot, config);

        // --- Upload: every host its own shard. --------------------------
        // A chunk is named by its host and turn; a dead host's leftovers
        // continue their adopter's turns.
        let writer = ShardWriter {
            job: &self.job,
            id,
            scheme,
            tables: &snapshot.tables,
            scheduler: &scheduler,
            quantize_nanos: &quantize_nanos,
        };
        let uploaded = run_hosts(
            shards,
            config.quantize_workers,
            kill,
            scheduler.links(),
            |host, turn, item| writer.upload_one(host, turn, item),
            |host, turn, item| writer.die_mid_upload(host, turn, item),
            "every writer host died mid-upload",
        )?;
        let killed_hosts = uploaded.killed_hosts;
        let mut metas: Vec<ChunkMeta> =
            uploaded.done.into_iter().flat_map(|(_, chunks)| chunks).collect();

        // Deterministic order: keys embed (host, turn) zero-padded.
        metas.sort_by(|a, b| a.key.cmp(&b.key));
        let payload_bytes: u64 = metas.iter().map(|c| c.bytes).sum();
        let parts: u32 = metas.iter().map(|c| c.parts).sum();

        // --- The dense object over the live uplinks; the manifest last. --
        let layers = DenseLayers {
            id,
            iteration: snapshot.model.iteration,
            bottom: snapshot.model.bottom.clone(),
            top: snapshot.model.top.clone(),
        };
        let dense_object = layers.encode_enveloped();
        let dense = DenseMeta {
            key: Manifest::dense_key(&self.job, id),
            bytes: dense_object.len() as u64,
            bottom_params: layers.bottom.len() as u32,
            top_params: layers.top.len() as u32,
        };
        // Every host holds the MLPs, so the dense object's parts ride
        // every live host's uplink, each where one frees first.
        let live: Vec<u16> = (0..hosts as u16)
            .filter(|h| !killed_hosts.contains(h))
            .collect();
        scheduler.upload_dealt(&live, &dense.key, Bytes::from(dense_object))?;
        let manifest = Manifest {
            id,
            kind: snapshot.kind,
            base,
            iteration: snapshot.model.iteration,
            reader_state: snapshot.reader,
            tables: snapshot.geometry.clone(),
            dense,
            chunks: metas,
            payload_bytes,
        };
        let manifest_key = Manifest::key(&self.job, id);
        let manifest_bytes = manifest.encode_enveloped();
        let manifest_len = manifest_bytes.len() as u64;
        let receipt = self.store.put(&manifest_key, Bytes::from(manifest_bytes))?;
        // The scheduler's durability point covers every chunk and the dense
        // object, and is never before the drain it queued behind.
        let completed_at = receipt.completed_at.max(scheduler.durable_at());

        Ok(CheckpointRecord {
            stored_bytes: payload_bytes + manifest.dense.bytes + manifest_len,
            manifest,
            manifest_key,
            completed_at,
            write_latency: completed_at.saturating_sub(issue_time),
            quantize_cpu_time: Duration::from_nanos(quantize_nanos.load(Ordering::Relaxed)),
            parts,
            killed_hosts,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::CnrError;
    use crate::manifest::CheckpointKind;
    use crate::policy::{Decision, TrackerAction};
    use crate::restore;
    use crate::snapshot::SnapshotTaker;
    use cnr_cluster::SimClock;
    use cnr_model::{DlrmModel, ModelConfig, ModelState, ShardPlan};
    use cnr_reader::ReaderState;
    use cnr_storage::{InMemoryStore, RemoteConfig, SimulatedRemoteStore};
    use cnr_trainer::{Trainer, TrainerConfig};
    use cnr_workload::{DatasetSpec, SyntheticDataset};

    /// A remote of one 1 MiB/s uplink per writer host, 100 µs per put.
    fn uplinks(hosts: usize) -> SimulatedRemoteStore {
        let config = RemoteConfig {
            bandwidth_bytes_per_sec: 1024.0 * 1024.0,
            base_latency: Duration::from_micros(100),
            replication: 1,
            channels: hosts as u32,
        };
        SimulatedRemoteStore::new(config, SimClock::new())
    }

    /// Chunks of `manifest` that writer host `host` uploaded: its chunk
    /// keys name it ([`Manifest::chunk_key`]).
    fn chunks_of(manifest: &Manifest, host: u16) -> usize {
        let named = format!("/shard-{host:05}-");
        manifest.chunks.iter().filter(|c| c.key.contains(&named)).count()
    }

    /// A trainer over a tiny model of `dim`-wide rows after `batches`
    /// batches, and the model's configuration.
    fn trained(batches: u64, dim: usize) -> (ModelConfig, Trainer) {
        let spec = DatasetSpec::tiny(77);
        let ds = SyntheticDataset::new(spec.clone());
        let cfg = ModelConfig::for_dataset(&spec, dim);
        let model = DlrmModel::new(cfg.clone());
        let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
        for i in 0..batches {
            trainer.train_one(&ds.batch(i));
        }
        (cfg, trainer)
    }

    /// Snapshots `trainer` as `kind`; an incremental keeps the tracker.
    fn take(trainer: &mut Trainer, kind: CheckpointKind) -> TrainingSnapshot<'_> {
        let decision = Decision {
            kind,
            tracker: match kind {
                CheckpointKind::Full => TrackerAction::SnapshotReset,
                CheckpointKind::Incremental => TrackerAction::SnapshotKeep,
            },
        };
        let plan = ShardPlan::balanced(trainer.model().config(), 1, 2);
        let batches = trainer.model().iteration();
        SnapshotTaker::new(plan).take(
            trainer,
            ReaderState::at(batches),
            decision,
            &CheckpointConfig::default(),
        )
    }

    #[test]
    fn full_checkpoint_stores_every_row() {
        let store = InMemoryStore::new();
        let (_, mut trainer) = trained(3, 8);
        let snap = take(&mut trainer, CheckpointKind::Full);
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig {
            chunk_rows: 128,
            ..Default::default()
        };
        let rec = writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
            .unwrap();
        let total_rows: u32 = rec.manifest.chunks.iter().map(|c| c.rows).sum();
        assert_eq!(total_rows as usize, snap.delta.total_rows());
        // 1000 + 500 rows at 128/chunk = 8 + 4 chunks.
        assert_eq!(rec.manifest.chunks.len(), 12);
        assert_eq!(rec.manifest.kind, CheckpointKind::Full);
        // Single-host write: host 0 uploaded every chunk.
        assert_eq!(chunks_of(&rec.manifest, 0), 12);
        // Every chunk object exists in the store.
        for c in &rec.manifest.chunks {
            assert_eq!(store.head(&c.key).unwrap().size, c.bytes);
        }
        assert!(store.get(&rec.manifest_key).is_ok());
    }

    #[test]
    fn incremental_checkpoint_stores_only_delta() {
        let store = InMemoryStore::new();
        let (_, mut trainer) = trained(2, 8);
        let snap = take(&mut trainer, CheckpointKind::Incremental);
        let delta_rows = snap.delta.modified_rows();
        assert!(delta_rows > 0 && delta_rows < snap.delta.total_rows());
        let writer = CheckpointWriter::new(&store, "job");
        let rec = writer
            .write(
                &snap,
                CheckpointId(1),
                Some(CheckpointId(0)),
                QuantScheme::Fp32,
                &CheckpointConfig::default(),
            )
            .unwrap();
        let total_rows: u32 = rec.manifest.chunks.iter().map(|c| c.rows).sum();
        assert_eq!(total_rows as usize, delta_rows);
        assert_eq!(rec.manifest.base, Some(CheckpointId(0)));
    }

    #[test]
    fn a_delta_edited_after_take_fails_typed() {
        let write = |snap: &TrainingSnapshot| {
            let store = InMemoryStore::new();
            let result = CheckpointWriter::new(&store, "job").write(
                snap,
                CheckpointId(1),
                Some(CheckpointId(0)),
                QuantScheme::Fp32,
                &CheckpointConfig::default(),
            );
            if result.is_err() {
                assert!(store.list("").unwrap().is_empty(), "nothing may be stored");
            }
            result
        };
        let (_, mut trainer) = trained(2, 8);
        let taken = take(&mut trainer, CheckpointKind::Incremental);
        write(&taken).expect("the snapshot as taken writes");

        // A mask of another table's length.
        let mut snap = taken.clone();
        snap.delta.tables.swap(0, 1);
        assert!(matches!(write(&snap), Err(CnrError::ShapeMismatch(_))));
        // A mask too few.
        let mut snap = taken.clone();
        snap.delta.tables.pop();
        assert!(matches!(write(&snap), Err(CnrError::ShapeMismatch(_))));
        // Accumulators the geometry does not announce, and a short table.
        let accumulators = vec![0.0; taken.geometry[0].rows as usize];
        let mut snap = taken.clone();
        snap.tables[0].adagrad = Some(&accumulators);
        assert!(matches!(write(&snap), Err(CnrError::ShapeMismatch(_))));
        let mut snap = taken.clone();
        snap.tables[1].data = &taken.tables[1].data[1..];
        assert!(matches!(write(&snap), Err(CnrError::ShapeMismatch(_))));
    }

    #[test]
    fn quantized_checkpoint_is_smaller() {
        let store = InMemoryStore::new();
        // Realistic embedding dim so per-row metadata (indices + quant
        // params) does not mask the payload reduction — the paper makes the
        // same caveat about metadata in §6.3.2.
        let (_, mut trainer) = trained(3, 32);
        let snap = take(&mut trainer, CheckpointKind::Full);
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig::default();
        let fp32 = writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
            .unwrap();
        let q4 = writer
            .write(
                &snap,
                CheckpointId(1),
                None,
                QuantScheme::Asymmetric { bits: 4 },
                &cfg,
            )
            .unwrap();
        let ratio = fp32.stored_bytes as f64 / q4.stored_bytes as f64;
        assert!(
            ratio > 2.0,
            "4-bit should be much smaller than fp32, got {ratio}x"
        );
    }

    #[test]
    fn chunk_payloads_decode_and_match_snapshot() {
        use crate::manifest::ChunkPayload;
        let store = InMemoryStore::new();
        let (_, mut trainer) = trained(2, 8);
        let snap = take(&mut trainer, CheckpointKind::Full);
        let writer = CheckpointWriter::new(&store, "job");
        let rec = writer
            .write(
                &snap,
                CheckpointId(0),
                None,
                QuantScheme::Fp32,
                &CheckpointConfig::default(),
            )
            .unwrap();
        // Decode the first chunk and verify rows are bit-exact (fp32).
        let chunk_bytes = store.get(&rec.manifest.chunks[0].key).unwrap();
        let chunk = ChunkPayload::decode(&chunk_bytes).unwrap();
        let t = chunk.table as usize;
        let dim = rec.manifest.tables[t].dim as usize;
        for (i, &row_idx) in chunk.row_indices.iter().enumerate() {
            let original = &snap.tables[t].data[row_idx as usize * dim..(row_idx as usize + 1) * dim];
            assert_eq!(chunk.rows[i].dequantize(), original);
        }
    }

    #[test]
    fn parallel_workers_produce_identical_checkpoints() {
        let (_, mut trainer) = trained(3, 8);
        let snap = take(&mut trainer, CheckpointKind::Full);
        let run = |workers: usize, hosts: usize| -> Manifest {
            let store = InMemoryStore::new();
            let writer = CheckpointWriter::new(&store, "job");
            let cfg = CheckpointConfig {
                quantize_workers: workers,
                writer_hosts: hosts,
                ..Default::default()
            };
            writer
                .write(
                    &snap,
                    CheckpointId(0),
                    None,
                    QuantScheme::Asymmetric { bits: 4 },
                    &cfg,
                )
                .unwrap()
                .manifest
        };
        assert_eq!(run(1, 1), run(4, 1), "worker count must not change output");
        assert_eq!(run(1, 4), run(4, 4), "worker count must not change output");
    }

    #[test]
    fn sharded_restore_is_bit_identical_to_single_shard() {
        let (model_cfg, mut trainer) = trained(3, 8);
        let live = ModelState::extract(trainer.model());
        let snap = take(&mut trainer, CheckpointKind::Full);
        let restore_with_hosts = |hosts: usize| {
            let store = InMemoryStore::new();
            let writer = CheckpointWriter::new(&store, "job");
            let cfg = CheckpointConfig {
                chunk_rows: 100,
                writer_hosts: hosts,
                ..Default::default()
            };
            let rec = writer
                .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
                .unwrap();
            assert!((0..hosts as u16).all(|h| chunks_of(&rec.manifest, h) > 0));
            restore::restore(&store, "job", CheckpointId(0), &model_cfg)
                .unwrap()
                .state
        };
        let single = restore_with_hosts(1);
        for hosts in [2usize, 4, 7] {
            assert_eq!(
                restore_with_hosts(hosts),
                single,
                "{hosts}-shard restore must be bit-identical"
            );
        }
        assert_eq!(single, live, "fp32 restore is bit-exact");
    }

    #[test]
    fn eight_shards_reach_durability_faster_than_one() {
        let (_, mut trainer) = trained(3, 16);
        let snap = take(&mut trainer, CheckpointKind::Full);
        let durable = |hosts: usize| {
            let store = uplinks(hosts);
            let writer = CheckpointWriter::new(&store, "job");
            let cfg = CheckpointConfig {
                chunk_rows: 64,
                writer_hosts: hosts,
                ..Default::default()
            };
            writer
                .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
                .unwrap()
                .completed_at
        };
        let one = durable(1);
        let eight = durable(8);
        assert!(
            eight.as_secs_f64() < 0.5 * one.as_secs_f64(),
            "8 uplinks must be measurably faster: 1-shard {one:?}, 8-shard {eight:?}"
        );
    }

    #[test]
    fn overlapped_write_queues_uploads_behind_the_previous_drain() {
        let clock = SimClock::new();
        let store = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: 1024.0 * 1024.0, // 1 MB/s: slow drain
                base_latency: Duration::ZERO,
                replication: 1,
                channels: 1,
            },
            clock.clone(),
        );
        let (_, mut trainer) = trained(2, 8);
        let snap = take(&mut trainer, CheckpointKind::Full);
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig::default();
        let first = writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
            .unwrap();
        assert!(first.completed_at > clock.now(), "drain is still in flight");
        // Without advancing the clock (training continues), issue the next
        // checkpoint floored at the first's durability point: quantization
        // overlaps the drain, uploads do not.
        let second = writer
            .write_overlapping(
                &snap,
                CheckpointId(1),
                None,
                QuantScheme::Fp32,
                &cfg,
                None,
                first.completed_at,
            )
            .unwrap();
        assert!(
            second.completed_at >= first.completed_at + first.completed_at / 2,
            "second drain must queue entirely behind the first: {:?} vs {:?}",
            second.completed_at,
            first.completed_at
        );
        // The §4.3 validity clock starts at issue time, so the latency of an
        // overlapped checkpoint includes the drain it waited out.
        assert!(second.write_latency >= second.completed_at - first.completed_at);
    }

    #[test]
    fn killed_host_aborts_and_survivors_reshard() {
        let (model_cfg, mut trainer) = trained(3, 8);
        let live = ModelState::extract(trainer.model());
        let snap = take(&mut trainer, CheckpointKind::Full);
        let store = InMemoryStore::new();
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig {
            chunk_rows: 64,
            writer_hosts: 4,
            ..Default::default()
        };
        let kill = HostKill {
            host: 2,
            after_chunks: 1,
        };
        let rec = writer
            .write_overlapping(
                &snap,
                CheckpointId(0),
                None,
                QuantScheme::Fp32,
                &cfg,
                Some(kill),
                Duration::ZERO,
            )
            .unwrap();
        assert_eq!(rec.killed_hosts, vec![2]);
        // Every row is still covered...
        let total_rows: u32 = rec.manifest.chunks.iter().map(|c| c.rows).sum();
        assert_eq!(total_rows as usize, snap.delta.total_rows());
        // ...the dead host contributed only its pre-death chunk...
        assert_eq!(chunks_of(&rec.manifest, 2), 1);
        // ...survivors adopted the rest...
        assert!([0, 1, 3].iter().all(|&h| chunks_of(&rec.manifest, h) > 0));
        // ...the aborted in-flight chunk left nothing visible...
        let aborted_key = Manifest::chunk_key("job", CheckpointId(0), 2, 1);
        assert!(store.get(&aborted_key).is_err());
        // ...and the checkpoint restores bit-exactly.
        let report = restore::restore(&store, "job", CheckpointId(0), &model_cfg).unwrap();
        assert_eq!(report.state, live);
    }

    #[test]
    fn a_dead_host_carries_no_dense_part() {
        // Host 1 dies after its first chunk: its uplink then idles while
        // the survivors carry its leftovers, so it frees first of all, and
        // still no part of the dense object may ride it.
        let (model_cfg, mut trainer) = trained(3, 8);
        let live = ModelState::extract(trainer.model());
        let snap = take(&mut trainer, CheckpointKind::Full);
        let store = cnr_storage::FlakyStore::new(uplinks(4), []);
        let cfg = CheckpointConfig {
            chunk_rows: 64,
            writer_hosts: 4,
            ..Default::default()
        };
        let kill = HostKill {
            host: 1,
            after_chunks: 1,
        };
        let rec = CheckpointWriter::new(&store, "job")
            .write_overlapping(
                &snap,
                CheckpointId(0),
                None,
                QuantScheme::Fp32,
                &cfg,
                Some(kill),
                Duration::ZERO,
            )
            .unwrap();
        assert_eq!(rec.killed_hosts, vec![1]);
        let dense = super::scheduler::tests::sent_parts(&store, &rec.manifest.dense.key);
        let channels: Vec<u32> = dense.iter().map(|(channel, _)| *channel).collect();
        assert!(
            dense.len() >= 3,
            "one part per live host at least: {channels:?}"
        );
        assert!(
            !channels.contains(&1),
            "a dense part rode the dead host: {channels:?}"
        );
        let report = restore::restore(&store, "job", CheckpointId(0), &model_cfg).unwrap();
        assert_eq!(report.state, live, "restores bit-identically");
    }

    #[test]
    fn all_hosts_dead_is_an_error() {
        let (_, mut trainer) = trained(2, 8);
        let snap = take(&mut trainer, CheckpointKind::Full);
        let store = InMemoryStore::new();
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig {
            writer_hosts: 1,
            ..Default::default()
        };
        let result = writer.write_overlapping(
            &snap,
            CheckpointId(0),
            None,
            QuantScheme::Fp32,
            &cfg,
            Some(HostKill {
                host: 0,
                after_chunks: 0,
            }),
            Duration::ZERO,
        );
        assert!(matches!(result, Err(CnrError::Pipeline(_))));
    }

    #[test]
    fn simulated_store_reports_write_latency() {
        let clock = SimClock::new();
        let store = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: 1024.0 * 1024.0, // 1 MB/s: slow
                base_latency: Duration::from_millis(1),
                replication: 1,
                channels: 1,
            },
            clock.clone(),
        );
        let (_, mut trainer) = trained(2, 8);
        let snap = take(&mut trainer, CheckpointKind::Full);
        let writer = CheckpointWriter::new(&store, "job");
        let rec = writer
            .write(
                &snap,
                CheckpointId(0),
                None,
                QuantScheme::Fp32,
                &CheckpointConfig::default(),
            )
            .unwrap();
        // ~1500 rows * 8 dim * 4B ≈ 48 KB -> tens of ms at 1 MB/s.
        assert!(rec.write_latency > Duration::from_millis(10));
        // Durability covers every transfer the store has queued, plus the
        // multipart commit round trip of the last chunk.
        assert!(rec.completed_at >= store.drained_at());
        assert!(rec.quantize_cpu_time > Duration::ZERO);
        assert!(rec.parts >= rec.manifest.chunks.len() as u32);
    }

    #[test]
    fn large_chunks_split_into_multiple_parts() {
        let store = InMemoryStore::new();
        let (_, mut trainer) = trained(3, 32);
        let snap = take(&mut trainer, CheckpointKind::Full);
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig {
            chunk_rows: 4096,
            part_bytes: 4 * 1024, // tiny parts: every chunk is multipart
            ..Default::default()
        };
        let rec = writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
            .unwrap();
        assert!(
            rec.parts > rec.manifest.chunks.len() as u32,
            "4 KiB parts must split 100+ KiB chunks"
        );
        for c in &rec.manifest.chunks {
            assert_eq!(c.parts, (c.bytes as usize).div_ceil(4 * 1024) as u32);
            assert_eq!(store.head(&c.key).unwrap().size, c.bytes);
        }
    }
}
