//! Shadow probes: each layer's public functions, timed from outside.
//!
//! A traced round keeps a *shadow pipeline* beside the engine: the
//! benchmark's own `Trainer`, `SimClock`, `TimedStore`, controller, WAL
//! writer and reader. After every engine boundary and restore the shadow
//! repeats the same step on a copy of the engine's model and tracker bits,
//! one public function at a time, each under its own span. The shadow
//! never touches the engine's store or clock, so a traced round's
//! simulated metrics equal an untraced round's.
//!
//! What the probes cannot explain of an engine call's wall time is the
//! `*_unattributed_frac` metrics.

use crate::timed_store::{StoreTotals, TimedStore};
use crate::trace::Tracer;
use crate::workloads::{Workload, JOB};
use check_n_run::cluster::SimClock;
use check_n_run::core::config::{CheckpointConfig, PolicyKind};
use check_n_run::core::controller::CheckpointController;
use check_n_run::core::delta_log::DeltaRecord;
use check_n_run::core::engine::Engine;
use check_n_run::core::manifest::{CheckpointId, CheckpointKind};
use check_n_run::core::policy::{Decision, TrackerAction};
use check_n_run::core::read::{restore_sharded_with_heat, RowHeat};
use check_n_run::core::snapshot::SnapshotTaker;
use check_n_run::core::write::CheckpointWriter;
use check_n_run::model::{DlrmModel, ModelConfig, ShardPlan};
use check_n_run::quant::{QuantScheme, QuantizedRow};
use check_n_run::reader::{ReaderMaster, ReaderState};
use check_n_run::storage::{envelope, wal, ObjectStore, Scrubber, SimulatedRemoteStore, WalWriter};
use check_n_run::tracking::{CoverageAnalyzer, TrackerSnapshot};
use check_n_run::trainer::{Trainer, TrainerConfig};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Batches trained per boundary by the reader/trainer/tracking probe.
const TRAIN_PROBE_BATCHES: u64 = 12;
/// Rows the quantization kernels are timed over.
const QUANT_PROBE_ROWS: usize = 2048;
/// Buffer size the envelope is timed over.
const ENVELOPE_PROBE_BYTES: usize = 1 << 20;

type ShadowStore = TimedStore<SimulatedRemoteStore>;

/// Everything the probes measured, pooled over traced rounds. Times are
/// seconds unless the name says otherwise.
#[derive(Debug, Default, Clone)]
pub struct ProbeSamples {
    /// Engine boundary wall times that were probed.
    pub boundary_wall: Vec<f64>,
    /// Share of each probed boundary the probes explain.
    pub boundary_attributed: Vec<f64>,
    /// Engine restore wall times that were probed.
    pub restore_wall: Vec<f64>,
    /// Share of each probed restore the probes explain.
    pub restore_attributed: Vec<f64>,
    /// `SnapshotTaker::take`.
    pub snapshot_take: Vec<f64>,
    /// Model bytes each snapshot copied.
    pub snapshot_bytes: Vec<f64>,
    /// Fraction of rows marked when the snapshot was taken (incrementals).
    pub modified_frac: Vec<f64>,
    /// `CheckpointWriter::write`, whole call.
    pub write_wall: Vec<f64>,
    /// `CheckpointWriter::write` minus the store calls inside it.
    pub write_self: Vec<f64>,
    /// Rows written per checkpoint.
    pub write_rows: Vec<f64>,
    /// `CheckpointRecord::quantize_cpu_time` per checkpoint.
    pub write_quantize_cpu: Vec<f64>,
    /// Chunks per checkpoint.
    pub write_chunks: Vec<f64>,
    /// Multipart parts per checkpoint.
    pub write_parts: Vec<f64>,
    /// Payload bytes per checkpoint.
    pub write_payload_bytes: Vec<f64>,
    /// `CheckpointController::register`.
    pub register: Vec<f64>,
    /// `WalWriter::truncate` at a boundary.
    pub wal_truncate: Vec<f64>,
    /// `DeltaRecord::capture` plus `encode`, per batch.
    pub wal_capture: Vec<f64>,
    /// `WalWriter::append`, per batch.
    pub wal_append: Vec<f64>,
    /// `wal::replay` plus decode and apply, per restore.
    pub wal_replay: Vec<f64>,
    /// `Scrubber::sweep`.
    pub scrub_sweep: Vec<f64>,
    /// Bytes each sweep read.
    pub scrub_bytes: Vec<f64>,
    /// `restore_sharded*`, whole call.
    pub read_restore: Vec<f64>,
    /// `restore_sharded*` minus the store calls inside it.
    pub read_self: Vec<f64>,
    /// `ResumeBreakdown::decode` per restore (summed over threads).
    pub read_decode_cpu: Vec<f64>,
    /// `ResumeBreakdown::merge` per restore.
    pub read_merge: Vec<f64>,
    /// Manifests walked per restore.
    pub read_manifests: Vec<f64>,
    /// Chunks fetched per restore.
    pub read_chunks: Vec<f64>,
    /// Bytes fetched per restore.
    pub read_bytes: Vec<f64>,
    /// Fetch retries, total.
    pub read_retries: u64,
    /// `LazyRestore::fault_in`, per fetch.
    pub fault_in: Vec<f64>,
    /// `LazyRestore::drain`.
    pub lazy_drain: Vec<f64>,
    /// `ReaderMaster::next_batch` wait, per batch.
    pub reader_wait: Vec<f64>,
    /// `Trainer::train_one` with tracking on, per batch.
    pub train_tracked: Vec<f64>,
    /// `Trainer::train_one` with tracking off, per batch.
    pub train_plain: Vec<f64>,
    /// `ModificationTracker::mark`, seconds per mark.
    pub tracker_mark: Vec<f64>,
    /// `ModificationTracker::snapshot`.
    pub tracker_snapshot: Vec<f64>,
    /// `QuantScheme::quantize_row`, seconds per row, workload scheme.
    pub quantize_row: Vec<f64>,
    /// `QuantizedRow::encode_into`, seconds per row, workload scheme.
    pub encode_row: Vec<f64>,
    /// `QuantizedRow::decode_from` plus `dequantize`, seconds per row.
    pub decode_row: Vec<f64>,
    /// `quantize_row` per row at fp32, the within-run baseline.
    pub quantize_row_fp32: Vec<f64>,
    /// Decode per row at fp32.
    pub decode_row_fp32: Vec<f64>,
    /// `envelope::wrap`, bytes per second.
    pub envelope_wrap_bps: Vec<f64>,
    /// `envelope::open`, bytes per second.
    pub envelope_open_bps: Vec<f64>,
    /// Store call totals of the shadow store, summed over rounds.
    pub store: StoreTotals,
    /// Shadow-side errors (a probe that failed leaves its samples out).
    pub errors: Vec<String>,
}

/// One round's shadow pipeline.
struct World {
    clock: SimClock,
    store: Arc<ShadowStore>,
    tracked: Trainer,
    plain: Trainer,
    taker: SnapshotTaker,
    controller: CheckpointController,
    wal: Option<WalWriter>,
    reader: ReaderMaster,
    config: CheckpointConfig,
    model_cfg: ModelConfig,
    next_id: u64,
    baseline: Option<CheckpointId>,
    pre_tracker: Option<TrackerSnapshot>,
    kernels_probed: bool,
}

/// The shadow pipeline and the samples it has produced.
pub struct Shadow {
    w: Workload,
    world: Option<World>,
    /// Samples as they stood when the round began; the warm-up's probes
    /// are rolled back to this.
    before_round: Option<ProbeSamples>,
    /// Samples pooled over every traced round so far.
    pub samples: ProbeSamples,
}

fn add_totals(into: &mut StoreTotals, t: StoreTotals) {
    for (a, b) in [
        (&mut into.put, t.put),
        (&mut into.get, t.get),
        (&mut into.delete, t.delete),
        (&mut into.meta, t.meta),
    ] {
        a.calls += b.calls;
        a.bytes += b.bytes;
        a.busy += b.busy;
    }
}

impl Shadow {
    /// A shadow for workload `w`; [`Shadow::attach`] builds its pipeline.
    pub fn new(w: &Workload) -> Self {
        Self {
            w: *w,
            world: None,
            before_round: None,
            samples: ProbeSamples::default(),
        }
    }

    /// Builds a fresh pipeline shaped like `engine`'s (start of a round).
    pub fn attach(&mut self, engine: &Engine, tracer: &Tracer) {
        self.before_round = Some(self.samples.clone());
        let model_cfg = engine.trainer().model().config().clone();
        let clock = SimClock::new();
        let store = Arc::new(TimedStore::new(
            SimulatedRemoteStore::new(engine.store().config(), clock.clone()),
            tracer.epoch(),
        ));
        let dyn_store: Arc<dyn ObjectStore> = store.clone();
        let config = engine.config().clone();
        let trainer = |track| {
            Trainer::new(
                DlrmModel::new(model_cfg.clone()),
                clock.clone(),
                TrainerConfig {
                    track,
                    ..self.w.trainer_config(track)
                },
            )
        };
        self.world = Some(World {
            tracked: trainer(true),
            plain: trainer(false),
            // The engine's default cluster shape: one node of eight devices.
            taker: SnapshotTaker::new(ShardPlan::balanced(&model_cfg, 1, 8)),
            controller: CheckpointController::new(dyn_store.clone(), JOB, config.retained_chains),
            wal: config
                .delta_wal
                .map(|c| WalWriter::new(dyn_store, JOB, c.writer_config())),
            reader: ReaderMaster::new(engine.dataset().clone(), Workload::reader_config()),
            config,
            model_cfg,
            next_id: 0,
            baseline: None,
            pre_tracker: None,
            kernels_probed: false,
            store,
            clock,
        });
    }

    /// Drops the warm-up's samples; the pipeline's state is kept.
    pub fn warmup_done(&mut self) {
        let errors = std::mem::take(&mut self.samples.errors);
        self.samples = self.before_round.take().unwrap_or_default();
        self.samples.errors = errors;
        if let Some(world) = &mut self.world {
            world.store.reset();
            world.kernels_probed = false;
        }
    }

    /// Folds the round's store totals in and drops the pipeline.
    pub fn detach(&mut self) {
        if let Some(world) = self.world.take() {
            add_totals(&mut self.samples.store, world.store.totals());
        }
    }

    /// Remembers the tracker bits the engine's snapshot is about to see.
    pub fn before_boundary(&mut self, engine: &Engine) {
        if let Some(world) = &mut self.world {
            world.pre_tracker = Some(engine.trainer().tracker().snapshot());
        }
    }

    /// Mirrors the WAL appends of the `k` batches the engine just trained
    /// (iterations `first..first + k`), timing capture and append.
    pub fn after_train(
        &mut self,
        engine: &Engine,
        tracer: &mut Tracer,
        parent: Option<usize>,
        first: u64,
        k: u64,
    ) {
        let Some(world) = &mut self.world else { return };
        let (Some(writer), Some(base)) = (world.wal.as_mut(), world.controller.latest()) else {
            return;
        };
        let scheme = self.w.scheme();
        for i in first..first + k {
            let batch = engine.dataset().batch(i);
            let capture = tracer.time("wal.capture", parent, || {
                DeltaRecord::capture(engine.trainer().model(), &batch, &scheme, base, i + 1)
                    .encode()
            });
            let append = tracer.time("wal.append", parent, || writer.append(&capture.out));
            match append.out {
                Ok(_) => {
                    self.samples.wal_capture.push(capture.secs);
                    self.samples.wal_append.push(append.secs);
                }
                Err(e) => self.samples.errors.push(format!("wal append: {e}")),
            }
        }
        world.store.drain_log();
    }

    /// Repeats the boundary the engine just ran (`wall` seconds long) on
    /// the shadow pipeline, layer by layer.
    pub fn after_boundary(
        &mut self,
        engine: &Engine,
        tracer: &mut Tracer,
        parent: Option<usize>,
        wall: f64,
        scrubbed: bool,
        batch_secs: f64,
    ) {
        let Some(world) = &mut self.world else { return };
        let Some(row) = engine.stats().intervals.last() else {
            return;
        };
        let kind = row.kind;
        let root = tracer.begin("probe.boundary", parent);
        let s = &mut self.samples;

        // Untimed: bring the shadow model and tracker to the engine's state.
        let sync = tracer.begin("probe.sync", Some(root));
        sync_model(engine.trainer().model(), world.tracked.model_mut());
        world.tracked.tracker().reset();
        if let Some(pre) = world.pre_tracker.take() {
            if kind == CheckpointKind::Incremental {
                s.modified_frac.push(pre.fraction_modified());
            }
            for (t, mask) in pre.tables.iter().enumerate() {
                world.tracked.tracker().mark_rows(t, mask.iter_ones());
            }
        }
        tracer.end(sync);

        let policy = engine.policy().kind();
        let decision = Decision {
            kind,
            tracker: match (kind, policy) {
                (CheckpointKind::Full, _) | (_, PolicyKind::Consecutive) => {
                    TrackerAction::SnapshotReset
                }
                _ => TrackerAction::SnapshotKeep,
            },
        };
        let base = match (kind, policy) {
            (CheckpointKind::Full, _) => None,
            (_, PolicyKind::Consecutive) => world.controller.latest(),
            _ => world.baseline,
        };
        let reader_state = ReaderState::at(engine.trainer().model().iteration());
        let take = tracer.time("snapshot.take", Some(root), || {
            world
                .taker
                .take(&mut world.tracked, reader_state, decision, &world.config)
        });
        let snapshot = take.out;
        s.snapshot_take.push(take.secs);
        s.snapshot_bytes.push(snapshot.model.byte_size() as f64);

        let id = CheckpointId(world.next_id);
        world.next_id += 1;
        world.store.drain_log();
        let write = tracer.time("write.checkpoint", Some(root), || {
            CheckpointWriter::new(world.store.as_ref(), JOB).write(
                &snapshot,
                id,
                base,
                self.w.scheme(),
                &world.config,
            )
        });
        record_store_calls(tracer, write.span, &world.store);
        drop(snapshot);
        let record = match write.out {
            Ok(r) => r,
            Err(e) => {
                s.errors.push(format!("shadow write: {e}"));
                tracer.end(root);
                return;
            }
        };
        if kind == CheckpointKind::Full {
            world.baseline = Some(id);
        }
        s.write_wall.push(write.secs);
        s.write_self.push(tracer.self_secs(write.span));
        s.write_rows.push(
            record
                .manifest
                .chunks
                .iter()
                .map(|c| f64::from(c.rows))
                .sum(),
        );
        s.write_quantize_cpu
            .push(record.quantize_cpu_time.as_secs_f64());
        s.write_chunks.push(record.manifest.chunks.len() as f64);
        s.write_parts.push(f64::from(record.parts));
        s.write_payload_bytes
            .push(record.manifest.payload_bytes as f64);

        let register = tracer.time("controller.register", Some(root), || {
            world
                .controller
                .register(&record.manifest, &record.manifest_key)
        });
        record_store_calls(tracer, register.span, &world.store);
        match register.out {
            Ok(_) => s.register.push(register.secs),
            Err(e) => s.errors.push(format!("shadow register: {e}")),
        }

        let mut attributed = take.secs + write.secs + register.secs + batch_secs;
        if let Some(writer) = world.wal.as_mut() {
            let truncate = tracer.time("wal.truncate", Some(root), || writer.truncate());
            record_store_calls(tracer, truncate.span, &world.store);
            match truncate.out {
                Ok(_) => {
                    s.wal_truncate.push(truncate.secs);
                    attributed += truncate.secs;
                }
                Err(e) => s.errors.push(format!("shadow wal truncate: {e}")),
            }
            world.controller.set_wal_segments(writer.live_segments());
        }
        if scrubbed {
            let keys = world.controller.live_keys();
            let read_before = world.store.totals().get.bytes;
            let sweep = tracer.time("scrub.sweep", Some(root), || {
                Scrubber::new(world.store.as_ref()).sweep(keys.iter().map(String::as_str))
            });
            record_store_calls(tracer, sweep.span, &world.store);
            s.scrub_sweep.push(sweep.secs);
            s.scrub_bytes
                .push((world.store.totals().get.bytes - read_before) as f64);
            attributed += sweep.secs;
        }
        s.boundary_wall.push(wall);
        s.boundary_attributed.push(attributed / wall);

        // Beside the boundary: the steady-state layers, a few batches each.
        probe_training(world, s, tracer, root);
        if !world.kernels_probed {
            world.kernels_probed = true;
            probe_kernels(world, s, tracer, root, self.w.scheme());
        }
        world.store.drain_log();
        tracer.end(root);
    }

    /// Repeats the restore the engine just ran (`wall` seconds long) on
    /// the shadow pipeline.
    pub fn after_restore(
        &mut self,
        engine: &Engine,
        tracer: &mut Tracer,
        parent: Option<usize>,
        wall: f64,
    ) {
        let Some(world) = &mut self.world else { return };
        let Some(latest) = world.controller.latest() else {
            return;
        };
        let s = &mut self.samples;
        let root = tracer.begin("probe.restore", parent);
        let options = world.config.restore_options();
        let row_counts = world.model_cfg.row_counts();
        let mut attributed = 0.0;

        // The engine ranks rows for a lazy restore before it fetches.
        let heat = options.lazy.then(|| {
            let heat = tracer.time("read.heat", Some(root), || {
                let tables = &engine.dataset().spec().tables;
                let exponent =
                    tables.iter().map(|t| t.zipf_exponent).sum::<f64>() / tables.len() as f64;
                let mut heat = RowHeat::zipf(&row_counts, exponent);
                let snap = world.tracked.tracker().snapshot();
                let mut coverage = CoverageAnalyzer::new(&row_counts);
                for (t, mask) in snap.tables.iter().enumerate() {
                    for row in mask.iter_ones() {
                        coverage.observe(t, row);
                    }
                }
                heat.boost_covered(&coverage, 1.0);
                heat
            });
            attributed += heat.secs;
            heat.out
        });

        world.store.drain_log();
        let started_at = world.clock.now();
        let restore = tracer.time("read.restore", Some(root), || {
            restore_sharded_with_heat(
                world.store.as_ref(),
                JOB,
                latest,
                &world.model_cfg,
                &options,
                started_at,
                None,
                heat.as_ref(),
            )
        });
        record_store_calls(tracer, restore.span, &world.store);
        let sharded = match restore.out {
            Ok(r) => r,
            Err(e) => {
                s.errors.push(format!("shadow restore: {e}"));
                tracer.end(root);
                return;
            }
        };
        attributed += restore.secs;
        s.read_restore.push(restore.secs);
        s.read_self.push(tracer.self_secs(restore.span));
        s.read_decode_cpu
            .push(sharded.breakdown.decode.as_secs_f64());
        s.read_merge.push(sharded.breakdown.merge.as_secs_f64());
        s.read_manifests.push(sharded.report.chain.len() as f64);
        s.read_chunks.push(sharded.breakdown.chunks_fetched as f64);
        s.read_bytes.push(sharded.breakdown.bytes_fetched as f64);
        s.read_retries += sharded.fetch_status.retries_performed;

        let report = sharded.report;
        let mut lazy = sharded.lazy;
        let apply = tracer.time("read.apply", Some(root), || {
            report.state.restore(world.tracked.model_mut());
            world.tracked.tracker().reset();
            if matches!(
                self.w.policy,
                PolicyKind::OneShot | PolicyKind::Intermittent
            ) {
                for (t, mask) in report.incremental_rows.tables.iter().enumerate() {
                    world.tracked.tracker().mark_rows(t, mask.iter_ones());
                }
            }
        });
        attributed += apply.secs;

        let mut cursor = report.reader;
        if world.wal.is_some() {
            let replay = tracer.time("wal.replay", Some(root), || {
                replay_wal(world, latest, lazy.as_mut(), &mut cursor)
            });
            record_store_calls(tracer, replay.span, &world.store);
            match replay.out {
                Ok(()) => {
                    s.wal_replay.push(replay.secs);
                    attributed += replay.secs;
                }
                Err(e) => s.errors.push(format!("shadow wal replay: {e}")),
            }
        }

        let rebuild = tracer.time("reader.rebuild", Some(root), || {
            world.reader = ReaderMaster::from_state(
                engine.dataset().clone(),
                cursor,
                Workload::reader_config(),
            );
            world
                .reader
                .preload(Workload::reader_config().queue_depth as u64);
        });
        attributed += rebuild.secs;
        s.restore_wall.push(wall);
        s.restore_attributed.push(attributed / wall);

        // Beside the restore: what the recovery batches will pay.
        if let Some(tail) = lazy.as_mut() {
            let batch = engine.dataset().batch(cursor.next_batch);
            let fault = tracer.begin("read.fault_in", Some(root));
            for (t, rows) in batch.sparse.iter().enumerate() {
                for &row in rows {
                    if tail.is_materialized(t as u16, row) {
                        continue;
                    }
                    let t0 = Instant::now();
                    let out = tail.fault_in(world.tracked.model_mut(), t as u16, row);
                    let secs = t0.elapsed().as_secs_f64();
                    match out {
                        Ok(_) => s.fault_in.push(secs),
                        Err(e) => s.errors.push(format!("shadow fault-in: {e}")),
                    }
                }
            }
            tracer.end(fault);
            let drain = tracer.time("read.lazy_drain", Some(root), || {
                tail.drain(world.tracked.model_mut())
            });
            match drain.out {
                Ok(_) => s.lazy_drain.push(drain.secs),
                Err(e) => s.errors.push(format!("shadow drain: {e}")),
            }
        }
        world.store.drain_log();
        tracer.end(root);
    }
}

/// Copies `from`'s parameters into `to` (same configuration).
fn sync_model(from: &DlrmModel, to: &mut DlrmModel) {
    for (src, dst) in from.tables().iter().zip(to.tables_mut()) {
        dst.data_mut().copy_from_slice(src.data());
        if let (Some(s), Some(d)) = (src.adagrad(), dst.adagrad_mut()) {
            d.copy_from_slice(s);
        }
    }
    let (bottom, top) = to.mlps_mut();
    bottom.unflatten(&from.bottom().flatten());
    top.unflatten(&from.top().flatten());
    to.set_iteration(from.iteration());
}

/// Turns the store calls logged since the last drain into child spans of
/// `parent` (which must already be closed).
fn record_store_calls(tracer: &mut Tracer, parent: usize, store: &ShadowStore) {
    for call in store.drain_log() {
        tracer.record_child(call.op.span_name(), parent, call.start, call.end);
    }
}

/// Replays the shadow WAL the way the engine's restore does.
fn replay_wal(
    world: &mut World,
    latest: CheckpointId,
    mut lazy: Option<&mut check_n_run::core::read::LazyRestore>,
    cursor: &mut ReaderState,
) -> Result<(), String> {
    let log = wal::replay(world.store.as_ref(), JOB).map_err(|e| e.to_string())?;
    let model = world.tracked.model_mut();
    for rec in &log.records {
        let Ok(delta) = DeltaRecord::decode(&rec.payload) else {
            break;
        };
        if delta.base != latest || delta.iteration <= model.iteration() {
            continue;
        }
        match lazy.as_deref_mut() {
            Some(tail) => {
                let (_, deferred) = delta
                    .apply_partial(model, |t, r| !tail.is_materialized(t, r))
                    .map_err(|e| e.to_string())?;
                for (t, r, values, acc) in deferred {
                    tail.defer_delta(t, r, values, acc);
                }
            }
            None => {
                delta.apply(model).map_err(|e| e.to_string())?;
            }
        }
        *cursor = ReaderState::at(delta.reader_next);
    }
    Ok(())
}

/// Reader wait, `train_one` with tracking on and off, and the tracker's
/// own calls, over a few batches on the shadow trainers.
fn probe_training(world: &mut World, s: &mut ProbeSamples, tracer: &mut Tracer, root: usize) {
    let span = tracer.begin("probe.training", Some(root));
    world.reader.extend_budget(TRAIN_PROBE_BATCHES);
    for _ in 0..TRAIN_PROBE_BATCHES {
        let t0 = Instant::now();
        let batch = world.reader.next_batch();
        let t1 = Instant::now();
        black_box(world.tracked.train_one(&batch));
        let t2 = Instant::now();
        black_box(world.plain.train_one(&batch));
        let t3 = Instant::now();
        s.reader_wait.push((t1 - t0).as_secs_f64());
        s.train_tracked.push((t2 - t1).as_secs_f64());
        s.train_plain.push((t3 - t2).as_secs_f64());

        let tracker = world.tracked.tracker();
        let marks: usize = batch.sparse.iter().map(Vec::len).sum();
        let t4 = Instant::now();
        for (t, rows) in batch.sparse.iter().enumerate() {
            for &row in rows {
                tracker.mark(t, row as usize);
            }
        }
        s.tracker_mark
            .push(t4.elapsed().as_secs_f64() / marks.max(1) as f64);
    }
    let t5 = Instant::now();
    black_box(world.tracked.tracker().snapshot());
    s.tracker_snapshot.push(t5.elapsed().as_secs_f64());
    tracer.end(span);
}

fn per_row(rows: usize, f: impl FnOnce()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() / rows.max(1) as f64
}

/// The quantization kernels and the envelope, on rows of the shadow model.
fn probe_kernels(
    world: &mut World,
    s: &mut ProbeSamples,
    tracer: &mut Tracer,
    root: usize,
    scheme: QuantScheme,
) {
    let span = tracer.begin("probe.kernels", Some(root));
    let table = &world.tracked.model().tables()[0];
    let n = QUANT_PROBE_ROWS.min(table.rows());
    for (scheme, quantize, encode, decode) in [
        (
            scheme,
            &mut s.quantize_row,
            Some(&mut s.encode_row),
            &mut s.decode_row,
        ),
        (
            QuantScheme::Fp32,
            &mut s.quantize_row_fp32,
            None,
            &mut s.decode_row_fp32,
        ),
    ] {
        let mut rows: Vec<QuantizedRow> = Vec::with_capacity(n);
        quantize.push(per_row(n, || {
            for r in 0..n {
                rows.push(scheme.quantize_row(black_box(table.row(r))));
            }
        }));
        let mut buf = Vec::with_capacity(rows.iter().map(QuantizedRow::byte_size).sum());
        let encode_secs = per_row(n, || {
            for row in &rows {
                row.encode_into(&mut buf);
            }
        });
        if let Some(encode) = encode {
            encode.push(encode_secs);
        }
        decode.push(per_row(n, || {
            let mut cursor = &buf[..];
            for _ in 0..n {
                let row = QuantizedRow::decode_from(&mut cursor).expect("just encoded");
                black_box(row.dequantize());
            }
        }));
    }

    let payload = vec![0x5Au8; ENVELOPE_PROBE_BYTES];
    let t0 = Instant::now();
    let wrapped = envelope::wrap(black_box(&payload));
    s.envelope_wrap_bps
        .push(ENVELOPE_PROBE_BYTES as f64 / t0.elapsed().as_secs_f64());
    let t1 = Instant::now();
    let opened = envelope::open(black_box(&wrapped)).map(<[u8]>::len);
    s.envelope_open_bps
        .push(ENVELOPE_PROBE_BYTES as f64 / t1.elapsed().as_secs_f64());
    if opened.ok() != Some(ENVELOPE_PROBE_BYTES) {
        s.errors.push("envelope round trip".into());
    }
    tracer.end(span);
}
