//! The Check-N-Run engine: training loop, interval scheduling, budgets,
//! non-overlap, checkpointing, and failure recovery (§4).
//!
//! One [`Engine`] drives one training job end to end:
//!
//! 1. each interval, extend the reader budget by exactly
//!    `interval_batches` (§4.1 gap avoidance);
//! 2. train; the tracker marks modified rows (§5.1.1);
//! 3. at the interval boundary: collect the reader state, ask the policy
//!    for full-vs-incremental, stall-and-snapshot (§4.2), and hand the
//!    snapshot to the background writer pipeline (§4.4). Under the §4.3
//!    relaxation the new interval's snapshot and quantization *overlap*
//!    any still-draining upload of the previous checkpoint — the writer
//!    floors the new uploads at the previous durability point, so the
//!    uploads themselves never overlap;
//! 4. when the write is durable, register it with the controller, which
//!    applies retention (§4.4);
//! 5. on failure ([`Engine::simulate_failure_and_restore`]): restore the
//!    newest chain, re-seed the tracker, rebuild the reader at the stored
//!    position, and count the restore against the bit-width budget
//!    (§6.2.1 fallback). Whether the model is live, lost to a failed
//!    restore, or draining a lazy restore's cold tail is one state, kept
//!    in `recovery`.

mod recovery;

use crate::bitwidth::BitwidthSelector;
use crate::config::{CheckpointConfig, DeltaWalConfig, PolicyKind, QuantMode};
use crate::controller::CheckpointController;
use crate::delta_log::DeltaRecord;
use crate::error::{CnrError, Result};
use crate::manifest::{CheckpointId, CheckpointKind};
use crate::observe;
use crate::policy::PolicyEngine;
use crate::read;
use crate::restore::RestoreReport;
use crate::snapshot::SnapshotTaker;
use crate::stats::{IntervalStats, RestorePoint, RunStats, ScrubStats};
use crate::write::{CheckpointRecord, CheckpointWriter};
use cnr_cluster::{HostKill, ScrubFindings, ScrubScheduler, SimClock};
use cnr_model::{DlrmModel, ModelConfig, ShardPlan};
use cnr_quant::QuantScheme;
use cnr_reader::{ReaderConfig, ReaderMaster, ReaderState};
use cnr_storage::{
    InMemoryStore, ObjectStore, RemoteConfig, Scrubber, SimulatedRemoteStore, WalWriter,
};
use cnr_trainer::{evaluate, EvalReport, Trainer, TrainerConfig};
use cnr_workload::{Batch, DatasetSpec, SyntheticDataset};
use recovery::Recovery;
use std::sync::Arc;
use std::time::Duration;

/// Builder for [`Engine`].
pub struct EngineBuilder {
    spec: DatasetSpec,
    model_cfg: ModelConfig,
    ckpt: CheckpointConfig,
    remote: RemoteConfig,
    backing: Arc<dyn ObjectStore>,
    reader_cfg: ReaderConfig,
    trainer_cfg: TrainerConfig,
    job: String,
    nodes: u32,
    gpus_per_node: u32,
    scrub_interval: Option<Duration>,
}

impl EngineBuilder {
    /// Starts a builder from a dataset spec and model config.
    pub fn new(spec: DatasetSpec, model_cfg: ModelConfig) -> Self {
        Self {
            spec,
            model_cfg,
            ckpt: CheckpointConfig::default(),
            remote: RemoteConfig::default(),
            backing: Arc::new(InMemoryStore::new()),
            reader_cfg: ReaderConfig::default(),
            trainer_cfg: TrainerConfig::default(),
            job: "job".to_string(),
            nodes: 1,
            gpus_per_node: 8,
            scrub_interval: None,
        }
    }

    /// Sets the checkpoint interval in batches.
    pub fn checkpoint_every_batches(mut self, n: u64) -> Self {
        self.ckpt.interval_batches = n;
        self
    }

    /// Sets the incremental policy.
    pub fn policy(mut self, p: PolicyKind) -> Self {
        self.ckpt.policy = p;
        self
    }

    /// Sets the quantization mode.
    pub fn quantization(mut self, q: QuantMode) -> Self {
        self.ckpt.quant = q;
        self
    }

    /// Replaces the whole checkpoint config.
    pub fn checkpoint_config(mut self, c: CheckpointConfig) -> Self {
        self.ckpt = c;
        self
    }

    /// Configures the simulated remote store.
    pub fn remote_config(mut self, r: RemoteConfig) -> Self {
        self.remote = r;
        self
    }

    /// Sets where the simulated remote keeps its bytes — deployment
    /// wiring: an in-memory store by default, a [`cnr_storage::FsStore`]
    /// for a run that leaves its checkpoints on disk, a
    /// [`cnr_storage::FlakyStore`] around either to put store faults under
    /// the engine. Bandwidth, latency, replication and every simulated
    /// number come from [`EngineBuilder::remote_config`] whatever the
    /// backing is; [`Engine::store`] is the simulated remote over it.
    pub fn backing_store(mut self, backing: Arc<dyn ObjectStore>) -> Self {
        self.backing = backing;
        self
    }

    /// Configures the reader tier.
    pub fn reader_config(mut self, r: ReaderConfig) -> Self {
        self.reader_cfg = r;
        self
    }

    /// Configures the trainer.
    pub fn trainer_config(mut self, t: TrainerConfig) -> Self {
        self.trainer_cfg = t;
        self
    }

    /// Names the job (prefix of all storage keys).
    pub fn job_name(mut self, name: impl Into<String>) -> Self {
        self.job = name.into();
        self
    }

    /// Sets the simulated cluster shape for sharding and snapshot stalls.
    pub fn cluster_shape(mut self, nodes: u32, gpus_per_node: u32) -> Self {
        self.nodes = nodes;
        self.gpus_per_node = gpus_per_node;
        self
    }

    /// Shards the checkpoint writer over `hosts` simulated hosts, each
    /// uploading its own row-range of every table over its own uplink.
    /// Also raises the remote store's channel count to `hosts` (call
    /// [`EngineBuilder::remote_config`] afterwards to override).
    pub fn writer_hosts(mut self, hosts: usize) -> Self {
        self.ckpt.writer_hosts = hosts;
        self.remote.channels = self.remote.channels.max(hosts as u32);
        self
    }

    /// Shards restores over `hosts` simulated reader hosts, each fetching
    /// its share of the checkpoint chain over its own downlink — the read
    /// mirror of [`EngineBuilder::writer_hosts`]. Also raises the remote
    /// store's channel count to `hosts`.
    pub fn reader_hosts(mut self, hosts: usize) -> Self {
        self.ckpt.reader_hosts = hosts;
        self.remote.channels = self.remote.channels.max(hosts as u32);
        self
    }

    /// Enables the per-iteration delta WAL between checkpoints: every
    /// trained batch appends its touched-row delta (quantized with the
    /// current checkpoint scheme) to a segmented, checksummed log, and
    /// restore replays the log tail on top of the last checkpoint — a
    /// failure then loses at most one iteration instead of the whole
    /// interval since the last checkpoint. Off by default (the paper's
    /// behaviour).
    pub fn delta_wal(mut self, wal: DeltaWalConfig) -> Self {
        self.ckpt.delta_wal = Some(wal);
        self
    }

    /// Enables lazy (CPR-style) eager-resume restore: training resumes as
    /// soon as the dense layers plus the hottest `hot_fraction` of
    /// embedding rows are applied, while a background drain keeps fetching
    /// the cold tail and any cold row a batch touches first faults in
    /// on-demand (a synchronous targeted fetch, counted separately in
    /// [`ResumeStats`](crate::stats::ResumeStats)). Bit-identical to the
    /// eager path once the drain completes.
    pub fn lazy_restore(mut self, hot_fraction: f64) -> Self {
        self.ckpt.lazy_hot_fraction = Some(hot_fraction);
        self
    }

    /// Enables background scrubbing: whenever a checkpoint interval
    /// boundary finds a sweep due (every `interval` of simulated time),
    /// the engine walks every live checkpoint object, verifies its
    /// envelope, and heals what it can ([`Engine::scrub_now`] runs one
    /// sweep on demand, optionally against a replica). Off by default.
    pub fn scrub_every(mut self, interval: Duration) -> Self {
        self.scrub_interval = Some(interval);
        self
    }

    /// Builds the engine.
    pub fn build(self) -> Result<Engine> {
        self.ckpt.validate().map_err(CnrError::Config)?;
        self.model_cfg.validate().map_err(CnrError::Config)?;
        if self.model_cfg.tables.len() != self.spec.tables.len() {
            return Err(CnrError::Config(
                "model tables do not match dataset sparse features".into(),
            ));
        }

        let clock = SimClock::new();
        let store = Arc::new(SimulatedRemoteStore::over(
            self.backing,
            self.remote,
            clock.clone(),
        ));
        let dataset = SyntheticDataset::new(self.spec);
        let reader = ReaderMaster::new(dataset.clone(), self.reader_cfg);
        let model = DlrmModel::new(self.model_cfg.clone());
        let full_reference_bytes = model.state_bytes() as u64;
        let trainer = Trainer::new(model, clock.clone(), self.trainer_cfg);
        let shard_plan = ShardPlan::balanced(&self.model_cfg, self.nodes, self.gpus_per_node);
        let expected_restores = match self.ckpt.quant {
            QuantMode::Dynamic { expected_restores } => expected_restores,
            _ => 0,
        };
        let controller = CheckpointController::new(
            store.clone() as Arc<dyn ObjectStore>,
            self.job.clone(),
            self.ckpt.retained_chains,
        );
        // The engine's telemetry pipeline reads the same simulated clock
        // the run does, so spans land on the simulation timeline. The WAL
        // writer keeps its counts only in this registry — `stats.wal` is
        // then *derived* from it, never hand-accumulated.
        let obs = cnr_obs::Obs::new(Arc::new(clock.clone()));
        let wal = self.ckpt.delta_wal.map(|w| {
            let mut writer = WalWriter::new(
                store.clone() as Arc<dyn ObjectStore>,
                &self.job,
                w.writer_config(),
            );
            writer.set_obs(obs.clone());
            writer
        });
        let recovery = Recovery::new(&self.ckpt, &self.model_cfg, dataset.spec());
        Ok(Engine {
            obs,
            dataset,
            reader,
            trainer,
            taker: SnapshotTaker::new(shard_plan),
            policy: PolicyEngine::new(self.ckpt.policy),
            bitwidth: BitwidthSelector::new(expected_restores),
            controller,
            store,
            clock,
            config: self.ckpt,
            job: self.job,
            reader_cfg: self.reader_cfg,
            next_ckpt_id: 0,
            current_baseline: None,
            last_full_payload: None,
            stats: RunStats::new(full_reference_bytes),
            batches_into_interval: 0,
            uploads_durable_at: Duration::ZERO,
            scrub_schedule: self.scrub_interval.map(ScrubScheduler::new),
            wal,
            recovery,
        })
    }
}

/// The running engine.
pub struct Engine {
    /// Telemetry pipeline: spans + metrics registry on the simulated
    /// clock. `stats.wal` is derived from its registry; the checkpoint
    /// and restore lifecycles record span trees into it.
    obs: cnr_obs::Obs,
    dataset: SyntheticDataset,
    reader: ReaderMaster,
    trainer: Trainer,
    taker: SnapshotTaker,
    policy: PolicyEngine,
    bitwidth: BitwidthSelector,
    controller: CheckpointController,
    store: Arc<SimulatedRemoteStore>,
    clock: SimClock,
    config: CheckpointConfig,
    job: String,
    reader_cfg: ReaderConfig,
    next_ckpt_id: u64,
    /// The most recent full baseline (delta base for one-shot/intermittent).
    current_baseline: Option<CheckpointId>,
    /// Payload bytes of the most recent full checkpoint — the `S₀ = 1`
    /// normalizer of the intermittent predictor.
    last_full_payload: Option<u64>,
    stats: RunStats,
    batches_into_interval: u64,
    /// Simulated time at which the most recent checkpoint's uploads become
    /// durable. The engine polls this at interval boundaries (§4.3
    /// non-overlap) instead of blocking on the store.
    uploads_durable_at: Duration,
    /// Background-scrub cadence; `None` disables scheduled scrubbing. (What
    /// the sweeps found is in `stats.scrubs`, once.)
    scrub_schedule: Option<ScrubScheduler>,
    /// Per-iteration delta WAL writer; `Some` iff `config.delta_wal` is.
    wal: Option<WalWriter>,
    /// Whether the model is live, lost to a failed restore, or draining a
    /// lazy restore's cold tail.
    recovery: Recovery,
}

impl Engine {
    /// Trains `n` batches, checkpointing at each interval boundary.
    pub fn train_batches(&mut self, n: u64) -> Result<()> {
        self.recovery.require_live()?;
        let mut remaining = n;
        while remaining > 0 {
            let until_ckpt = self.config.interval_batches - self.batches_into_interval;
            let run = until_ckpt.min(remaining);
            // A run an error cut short left part of its grant unconsumed:
            // grant only what this run needs beyond it, so the budget
            // still ends at the interval boundary.
            self.reader
                .extend_budget(run.saturating_sub(self.reader.remaining_budget()));
            for _ in 0..run {
                let batch = self.reader.next_batch();
                // The interval position moves with the reader's, batch by
                // batch, so an error below leaves the two in step.
                self.batches_into_interval += 1;
                self.fault_in_for_batch(&batch)?;
                self.trainer.train_one(&batch);
                self.wal_append(&batch)?;
            }
            remaining -= run;
            if self.batches_into_interval == self.config.interval_batches {
                self.checkpoint_now()?;
                self.batches_into_interval = 0;
            }
        }
        Ok(())
    }

    /// Appends the just-trained batch's delta record to the WAL. No-op
    /// when the WAL is disabled or no checkpoint exists yet to build on (a
    /// failure before the first checkpoint has nothing to restore).
    /// Every append syncs; the sync's simulated log-device time, for the
    /// bytes it made durable, is charged to the training clock — that
    /// charge is the WAL's steady-state overhead.
    fn wal_append(&mut self, batch: &Batch) -> Result<()> {
        if self.wal.is_none() {
            return Ok(());
        }
        let Some(base) = self.controller.latest() else {
            return Ok(());
        };
        let scheme = self.current_scheme();
        let writer = self.wal.as_mut().expect("checked above");
        let model = self.trainer.model();
        let (_, made_durable) =
            DeltaRecord::capture_into(model, batch, &scheme, base, batch.index + 1, writer)?;
        let cost = DeltaWalConfig.sync_cost(made_durable);
        let sync_start = self.clock.now();
        self.clock.advance(cost);
        self.obs
            .registry()
            .counter_add(cnr_obs::names::WAL_SYNC_TIME_NS, cost.as_nanos() as u64);
        self.obs.record(
            cnr_obs::Span::new(cnr_obs::names::SPAN_WAL_SYNC, sync_start, sync_start + cost)
                .with_attr("iteration", (batch.index + 1).to_string()),
        );
        self.refresh_wal_stats();
        Ok(())
    }

    /// Re-derives `stats.wal` from the metrics registry. The WAL writer
    /// counts into the registry as it goes (see `cnr_storage::wal`) and
    /// [`Engine::wal_append`] charges sync time there, so the registry is
    /// the single accumulation point and
    /// [`crate::stats::WalRunStats`] is a pure readback of it.
    fn refresh_wal_stats(&mut self) {
        if self.wal.is_some() {
            self.stats.wal = observe::wal_run_stats(self.obs.registry());
        }
    }

    /// Takes a checkpoint immediately (normally called at interval
    /// boundaries by [`Engine::train_batches`]).
    pub fn checkpoint_now(&mut self) -> Result<CheckpointRecord> {
        self.checkpoint_inner(None)
    }

    /// Takes a checkpoint during which writer host `kill.host` dies
    /// mid-upload: its in-flight chunk is aborted and its unfinished rows
    /// are re-sharded onto the surviving hosts, so the checkpoint still
    /// completes and restores exactly (§4.4 validity under node failures).
    /// Errors if the engine has a single writer host (no survivors).
    pub fn checkpoint_now_killing_host(&mut self, kill: HostKill) -> Result<CheckpointRecord> {
        self.checkpoint_inner(Some(kill))
    }

    fn checkpoint_inner(&mut self, kill: Option<HostKill>) -> Result<CheckpointRecord> {
        self.recovery.require_live()?;
        // A snapshot must capture fully materialized state: finish any
        // in-progress lazy restore first (waiting out its background
        // drain), otherwise the checkpoint would persist stale cold rows.
        self.drain_lazy_restore()?;
        // §4.3, relaxed: interval N+1's snapshot and quantization are CPU
        // work and may overlap interval N's upload drain — only the
        // *uploads* must not overlap. Instead of blocking the clock on the
        // pending durability point, pass it down as the writer's upload
        // floor: every part of the new checkpoint queues behind it, while
        // the stall and quantize below happen concurrently with the drain.
        let uploads_after = self.uploads_durable_at;

        let boundary_at = self.clock.now();
        let reader_state = self.reader.collect_state();
        let decision = self.policy.decide();
        let scheme = self.current_scheme();
        let snapshot = self
            .taker
            .take(&mut self.trainer, reader_state, decision, &self.config);

        let id = CheckpointId(self.next_ckpt_id);
        self.next_ckpt_id += 1;
        let base = match decision.kind {
            CheckpointKind::Full => None,
            CheckpointKind::Incremental => match self.policy.kind() {
                PolicyKind::Consecutive => self.controller.latest(),
                _ => self.current_baseline,
            },
        };
        if decision.kind == CheckpointKind::Incremental && base.is_none() {
            return Err(CnrError::Config(
                "incremental checkpoint without a baseline".into(),
            ));
        }

        let writer = CheckpointWriter::new(self.store.as_ref(), &self.job);
        let written =
            writer.write_overlapping(&snapshot, id, base, scheme, &self.config, kill, uploads_after);
        let (stall, delta) = (snapshot.stall, snapshot.delta);
        // The tables are the trainer's again. On a failed write the snapshot
        // may have reset the tracker, and nothing was stored: the rows it
        // took go back, or the retried incremental would leave them out and
        // a later restore be silently stale. (A failed full marks every row
        // — a superset; the retry is a full again and resets it.) Policy,
        // baseline and durability point have not moved; the debris is the
        // next registration's orphan sweep's.
        let record = written.inspect_err(|_| self.mark_rows(&delta))?;
        self.uploads_durable_at = record.completed_at;

        // Feed the intermittent predictor with the size as a fraction of the
        // last full checkpoint in the same encoding.
        let fraction_of_full = match decision.kind {
            CheckpointKind::Full => {
                self.last_full_payload = Some(record.manifest.payload_bytes.max(1));
                self.current_baseline = Some(id);
                1.0
            }
            CheckpointKind::Incremental => {
                let full = self
                    .last_full_payload
                    .unwrap_or(self.stats.full_reference_bytes.max(1));
                record.manifest.payload_bytes as f64 / full as f64
            }
        };
        self.policy.record(decision.kind, fraction_of_full);

        self.controller
            .register(&record.manifest, &record.manifest_key)?;

        // The registered checkpoint supersedes the delta log: truncate it.
        // A truncate that errs does not undo the checkpoint — it stands,
        // and this boundary finishes. What the truncate left behind is
        // harmless (replay skips records whose base is not the latest
        // checkpoint), the next record goes to a segment of its own, the
        // scrubber keeps covering the leftovers, the registry counts the
        // failure, and the next boundary's truncate collects them.
        if let Some(writer) = self.wal.as_mut() {
            let _ = writer.truncate();
            let live = writer.live_segments();
            self.controller.set_wal_segments(live);
            self.refresh_wal_stats();
        }

        let full_ref = self.stats.full_reference_bytes.max(1) as f64;
        let row = IntervalStats {
            interval: self.stats.intervals.len() as u32,
            checkpoint: id,
            kind: decision.kind,
            stored_bytes: record.stored_bytes,
            stored_fraction: record.stored_bytes as f64 / full_ref,
            capacity_bytes: self.controller.live_bytes(),
            capacity_fraction: self.controller.live_bytes() as f64 / full_ref,
            write_latency: record.write_latency,
            stall,
            quantize_cpu_time: record.quantize_cpu_time,
        };
        observe::record_interval(&self.obs, &row);
        observe::record_checkpoint_spans(&self.obs, &row, &record, boundary_at, self.clock.now());
        self.stats.push(row);

        // Background scrub: interval boundaries are where the job has spare
        // cycles, so a due sweep piggybacks here.
        if self
            .scrub_schedule
            .as_ref()
            .is_some_and(|s| s.due(self.clock.now()))
        {
            self.scrub_now(None)?;
        }
        Ok(record)
    }

    /// Runs one background scrub sweep over every live checkpoint object
    /// and WAL segment: verifies each envelope and heals damaged objects —
    /// by re-reading the primary (a different replica serves the retry)
    /// and, when `replica` is given, from that replica store. Findings are
    /// recorded into the run stats ([`RunStats::scrubs`]); when scrubbing
    /// is scheduled ([`EngineBuilder::scrub_every`]) the next sweep comes
    /// due a full interval after this one.
    pub fn scrub_now(&mut self, replica: Option<&dyn ObjectStore>) -> Result<ScrubFindings> {
        // The controller hears of the WAL segments synced since the last
        // truncate here, where its list is read, not on every append.
        if let Some(writer) = &self.wal {
            self.controller.set_wal_segments(writer.live_segments());
        }
        let keys = self.controller.live_keys();
        // The scrubber records its findings (SCRUB_* counters + the sweep
        // span) into the engine's registry itself — single accumulation
        // point, no mirroring here.
        let mut scrubber = Scrubber::new(self.store.as_ref()).with_obs(self.obs.clone());
        if let Some(r) = replica {
            scrubber = scrubber.with_replica(r);
        }
        let report = scrubber.sweep(keys.iter().map(String::as_str));
        let findings = report.findings();
        let now = self.clock.now();
        if let Some(s) = &mut self.scrub_schedule {
            s.record(now);
        }
        self.stats.push_scrub(ScrubStats {
            sweep: self.stats.scrubs.len() as u32,
            at: now,
            findings,
        });
        Ok(findings)
    }

    /// Faults in the cold rows `batch` touches mid-drain (see
    /// [`Engine::pending_lazy`]), before anything reads them.
    fn fault_in_for_batch(&mut self, batch: &Batch) -> Result<()> {
        let resume = self.stats.resumes.last_mut();
        let model = self.trainer.model_mut();
        self.recovery
            .fault_in(batch, model, &self.clock, &self.store, &self.obs, resume)
    }

    /// Forces an in-progress lazy restore to finish: waits out the
    /// background fetch (advancing the simulated clock to its completion
    /// point), applies every remaining cold row (placed on the restore's
    /// decode workers; a row the WAL replay landed is already final), and
    /// retires the lazy state.
    /// Until then the cold rows are stale. Returns the rows materialized
    /// (zero when no lazy restore is pending). Called automatically when
    /// training catches up with the drain and before every checkpoint. A
    /// drain into a model of another shape is refused before it writes a
    /// row ([`CnrError::ShapeMismatch`]) and keeps the tail. A drain that
    /// fails placing rows has dropped the tail: training and checkpointing
    /// then fail with [`CnrError::TrainingStateLost`] until a restore
    /// succeeds.
    pub fn drain_lazy_restore(&mut self) -> Result<u64> {
        self.recovery
            .drain(self.trainer.model_mut(), &self.clock, &self.obs)
    }

    /// Marks every row of `rows` modified in the trainer's tracker.
    fn mark_rows(&self, rows: &cnr_tracking::TrackerSnapshot) {
        for (t, mask) in rows.tables.iter().enumerate() {
            self.trainer.tracker().mark_rows(t, mask.iter_ones());
        }
    }

    /// The in-progress lazy restore's cold tail, if any.
    pub fn pending_lazy(&self) -> Option<&read::LazyRestore> {
        self.recovery.pending()
    }

    /// Simulates a failure: discards live training state and restores from
    /// the newest valid checkpoint across `config.reader_hosts` parallel
    /// reader hosts (the sharded [`crate::read`] pipeline — bit-identical
    /// to the serial restore). No reader host dies on the way; see
    /// [`Engine::simulate_failure_and_restore_killing_reader`] for that.
    ///
    /// The restore decodes straight into the trainer's own tables (the
    /// failure destroyed their contents anyway; see [`crate::read`]), so
    /// the returned report's `state.tables` is **empty** — the embedding
    /// rows are in [`Engine::trainer`]'s model. Everything else of the
    /// report is as the allocating [`read::restore_sharded`] returns it:
    /// dense layers, `iteration`, `reader`, `incremental_rows`,
    /// `rows_applied` (the rows the placed chunks name, with multiplicity:
    /// the serial oracle's count, not the rows written), `bytes_read`.
    ///
    /// If the restore or the WAL replay after it fails, the model is left
    /// partly written: [`Engine::train_batches`] and
    /// [`Engine::checkpoint_now`] then return
    /// [`CnrError::TrainingStateLost`] until a restore succeeds.
    ///
    /// # Failures that land mid-drain (§4.4 relaxation)
    ///
    /// With overlapped interval boundaries (§4.3) the failure instant can
    /// fall while the newest checkpoint's upload drain is still in flight
    /// — strictly, that checkpoint "does not exist yet" (§4.4). The engine
    /// models the upload path as decoupled from the training job (the
    /// in-flight drain completes even though the trainers died, as with an
    /// external uploader service), so the restore targets the newest
    /// checkpoint and *waits out* its drain. That wait is not hidden: it
    /// is charged to time-to-resume as
    /// [`ResumeStats::drain_wait`](crate::stats::ResumeStats), and the
    /// recovery event is recorded at the true failure instant. The
    /// alternative — falling back to the newest checkpoint durable at the
    /// failure instant — is unrepresentable under default retention
    /// (`retained_chains: 1` deletes the predecessor chain at
    /// registration), so the engine makes the drain-survival assumption
    /// explicit instead of silently shifting the resume clock.
    pub fn simulate_failure_and_restore(&mut self) -> Result<RestoreReport> {
        self.restore_inner(None)
    }

    /// [`Engine::simulate_failure_and_restore`] with explicit reader-host
    /// failure injection: the named host dies after fetching
    /// `kill.after_chunks` items of its list — with a WAL, the log's
    /// segments at its head count too. Errors if the engine has a single
    /// reader host (no survivors to re-shard onto).
    pub fn simulate_failure_and_restore_killing_reader(
        &mut self,
        kill: HostKill,
    ) -> Result<RestoreReport> {
        self.restore_inner(Some(kill))
    }

    fn restore_inner(&mut self, kill: Option<HostKill>) -> Result<RestoreReport> {
        let latest = self.controller.latest().ok_or(CnrError::NothingToRestore)?;
        // Iteration count at the failure instant — the minuend of
        // `lost_iterations` once the restore (and any WAL replay) lands.
        let failed_iteration = self.trainer.model().iteration();
        // §4.4 validity: the newest checkpoint only *exists* once all of
        // its uploads are durable. With overlapped boundaries a drain may
        // still be in flight at the failure instant; the decoupled upload
        // path outlives the job (see `simulate_failure_and_restore` docs),
        // so the restore waits the drain out — and charges that wait to
        // time-to-resume as `drain_wait` instead of hiding it by starting
        // the resume clock at the durability point.
        let failed_at = self.clock.now();
        let drain_wait = self.uploads_durable_at.saturating_sub(failed_at);
        self.clock.advance_to(self.uploads_durable_at);
        let started_at = self.clock.now();
        // Until the restore and the WAL tail's dense step below succeed,
        // the model is not one to train on or checkpoint.
        let sharded = self.recovery.restore(
            self.store.as_ref(),
            &self.job,
            latest,
            started_at,
            kill,
            &mut self.trainer,
        )?;
        let report = sharded.report;

        // Rebuild the rest of the trainer-side state (the embedding rows
        // are already in place).
        report.state.restore_dense(self.trainer.model_mut());
        self.trainer.tracker().reset();
        match self.policy.kind() {
            PolicyKind::OneShot | PolicyKind::Intermittent => {
                // Re-seed "modified since baseline" so future one-shot
                // incrementals stay supersets of the restored delta.
                self.mark_rows(&report.incremental_rows);
            }
            PolicyKind::Consecutive | PolicyKind::FullOnly => {}
        }

        // The delta-WAL tail: the restore fetched its segments at the head
        // of the reader hosts' lists and placed its live records' rows as
        // the chain's newest level (each final, so it never faults in);
        // what is left is the dense step, the tracker and the reader cursor.
        let mut wal_replayed = 0u64;
        let mut reader_state = report.reader;
        if let Some(log) = &sharded.wal {
            let tail = &log.tail;
            tail.set_dense(self.trainer.model_mut())?;
            if matches!(
                self.policy.kind(),
                PolicyKind::OneShot | PolicyKind::Intermittent
            ) {
                // Replayed rows diverge from the baseline exactly like
                // trained rows do: future one-shot incrementals must
                // contain them.
                for chunk in tail.records().iter().flat_map(|rec| &rec.chunks) {
                    let rows = chunk.row_indices().iter().map(|&row| row as usize);
                    self.trainer.tracker().mark_rows(chunk.table() as usize, rows);
                }
            }
            if let Some(last) = tail.records().last() {
                reader_state = ReaderState::at(last.reader_next);
            }
            wal_replayed = tail.records().len() as u64;
        }

        // Rebuild the reader tier at the stored position and warm its
        // queue while the (simulated) fetch drains — reader warm-up
        // overlaps the restore instead of adding to time-to-resume.
        self.reader = ReaderMaster::from_state(self.dataset.clone(), reader_state, self.reader_cfg);
        self.reader.preload(self.reader_cfg.queue_depth as u64);
        // WAL records exist only since the last checkpoint (registration
        // truncates), so the replayed count is the restored position's
        // progress into the current interval. A boundary whose checkpoint
        // failed is retried before any further batch, so that is at most a
        // whole interval — and a whole one means the boundary is owed, as
        // it was at the failure.
        debug_assert!(wal_replayed <= self.config.interval_batches);
        self.batches_into_interval = wal_replayed;

        // Charge the sharded fetch to the clock: training resumes at the
        // first-batch point (the log's segments, dense and hot rows
        // applied) while any cold tail keeps arriving in the background
        // until `ready_at`. An all-hot restore's first batch is its last
        // arrival. The log's reads are inside the fetch: there is no
        // separate replay phase to charge.
        self.clock.advance_to(sharded.first_batch_at);

        // Complete the restore's record, timestamped at the true failure
        // instant (not the durability point), with any drain wait explicit
        // in it.
        let mut row = sharded.breakdown;
        row.resume = self.stats.resumes.len() as u32;
        row.drain_wait = drain_wait;
        // First-batch shares the drain wait with full resume; for eager
        // restores it stays equal to time-to-resume.
        row.time_to_first_batch += drain_wait;
        row.wal_replayed_iterations = wal_replayed;
        row.lost_iterations = failed_iteration.saturating_sub(self.trainer.model().iteration());
        row.restore_point = if wal_replayed > 0 {
            RestorePoint::WalTip
        } else {
            RestorePoint::Checkpoint
        };
        // One record: the stats row (fault-in fields accumulate on it per
        // batch), the registry and the span tree laid out from its phases
        // all read it, so the three can only agree.
        observe::record_resume(
            &self.obs,
            &row,
            sharded.fetch_status.retries_performed,
            sharded.rows_landed,
        );
        observe::record_restore_spans(
            &self.obs,
            failed_at,
            &row,
            &sharded.host_activity,
            sharded.plan_ready_at,
            sharded.wal.as_ref().map(|log| log.arrived_at),
            started_at,
        );
        self.stats.push_resume(row);

        // Count against the quantization budget (§6.2.1 fallback).
        self.bitwidth.on_restore();
        // Stash the cold tail: batches fault rows in on demand until the
        // background fetch ends at `ready_at`.
        self.recovery.resumed(sharded.lazy, sharded.ready_at);
        Ok(report)
    }

    /// The quantization scheme the next checkpoint will use.
    pub fn current_scheme(&self) -> QuantScheme {
        match self.config.quant {
            QuantMode::None => QuantScheme::Fp32,
            QuantMode::Fixed(s) => s,
            QuantMode::Dynamic { .. } => self.bitwidth.scheme(),
        }
    }

    /// Evaluates the current model on held-out batches `[from, to)`.
    ///
    /// Mid-drain, each batch first faults in the cold rows it touches —
    /// the fetches training pays, charged to the clock and counted in
    /// [`ResumeStats`](crate::stats::ResumeStats) the same way — so the
    /// number is the restored model's, never a stale row's. A model a
    /// failed restore left partly written is refused with
    /// [`CnrError::TrainingStateLost`].
    pub fn evaluate(&mut self, from: u64, to: u64) -> Result<EvalReport> {
        self.recovery.require_live()?;
        for i in from..to {
            if self.recovery.pending().is_none() {
                break;
            }
            let batch = self.dataset.batch(i);
            self.fault_in_for_batch(&batch)?;
        }
        Ok(evaluate(self.trainer.model(), &self.dataset, from, to))
    }

    /// Run statistics so far.
    pub fn stats(&self) -> &RunStats {
        &self.stats
    }

    /// The telemetry pipeline: recorded spans and the metrics registry
    /// every lifecycle event feeds (the source [`RunStats`] aggregates
    /// are derived from). Export with [`cnr_obs::export`].
    pub fn obs(&self) -> &cnr_obs::Obs {
        &self.obs
    }

    /// The trainer. Mid-drain (see [`Engine::pending_lazy`]) its model's
    /// cold rows are stale — whatever the tables held before the restore —
    /// until a batch faults them in or [`Engine::drain_lazy_restore`]
    /// lands them; [`Engine::train_batches`] and [`Engine::evaluate`]
    /// never read one.
    pub fn trainer(&self) -> &Trainer {
        &self.trainer
    }

    /// Mutable trainer access (advanced integrations and tests; normal
    /// training goes through [`Engine::train_batches`]).
    pub fn trainer_mut(&mut self) -> &mut Trainer {
        &mut self.trainer
    }

    /// The checkpoint controller.
    pub fn controller(&self) -> &CheckpointController {
        &self.controller
    }

    /// The simulated remote store.
    pub fn store(&self) -> &Arc<SimulatedRemoteStore> {
        &self.store
    }

    /// The shared clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// The dataset.
    pub fn dataset(&self) -> &SyntheticDataset {
        &self.dataset
    }

    /// The policy engine.
    pub fn policy(&self) -> &PolicyEngine {
        &self.policy
    }

    /// The bit-width selector.
    pub fn bitwidth(&self) -> &BitwidthSelector {
        &self.bitwidth
    }

    /// Remaining simulated upload time of the most recent checkpoint: zero
    /// once training has run past its durability point. This is the poll
    /// the §4.3 non-overlap rule turns into a wait only when positive.
    pub fn upload_backlog(&self) -> Duration {
        self.uploads_durable_at.saturating_sub(self.clock.now())
    }

    /// The engine's checkpoint configuration.
    pub fn config(&self) -> &CheckpointConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::RestoreMode;
    use cnr_cluster::FailureModel;
    use cnr_storage::wal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The root span of the most recent restore.
    fn last_restore_span(e: &Engine) -> cnr_obs::Span {
        let spans = e.obs().spans();
        let root = spans.iter().rev().find(|s| s.name == cnr_obs::names::SPAN_RESTORE);
        root.expect("a restore was recorded").clone()
    }

    fn builder() -> EngineBuilder {
        let spec = DatasetSpec::tiny(101);
        let model_cfg = ModelConfig::for_dataset(&spec, 8);
        EngineBuilder::new(spec, model_cfg)
            .checkpoint_every_batches(5)
            .cluster_shape(1, 2)
    }

    #[test]
    fn trains_and_checkpoints_at_intervals() {
        let mut e = builder().build().unwrap();
        e.train_batches(20).unwrap();
        assert_eq!(e.trainer().trained_batches(), 20);
        // 20 batches at interval 5 = 4 checkpoints.
        assert_eq!(e.stats().intervals.len(), 4);
        assert_eq!(e.stats().intervals[0].kind, CheckpointKind::Full);
    }

    #[test]
    fn partial_interval_takes_no_checkpoint() {
        let mut e = builder().build().unwrap();
        e.train_batches(7).unwrap();
        assert_eq!(e.stats().intervals.len(), 1, "only the 5-batch boundary");
        e.train_batches(3).unwrap();
        assert_eq!(e.stats().intervals.len(), 2, "7+3 completes interval 2");
    }

    /// A uniform grid stores binary16 parameters, which cap its
    /// resolution: a fixed uniform scheme wider than 8 bits does not
    /// build, and the error names the form that holds such widths.
    #[test]
    fn a_uniform_scheme_wider_than_8_bits_does_not_build() {
        let with = |scheme| builder().quantization(QuantMode::Fixed(scheme)).build();
        for scheme in [
            QuantScheme::Asymmetric { bits: 16 },
            QuantScheme::Symmetric { bits: 16 },
        ] {
            match with(scheme) {
                Err(CnrError::Config(why)) => assert!(why.contains("Fp16"), "{why}"),
                Err(other) => panic!("{scheme:?}: {other:?}"),
                Ok(_) => panic!("{scheme:?} built"),
            }
        }
        assert!(with(QuantScheme::Fp16).is_ok());
    }

    #[test]
    fn one_shot_policy_produces_full_then_incrementals() {
        let mut e = builder().policy(PolicyKind::OneShot).build().unwrap();
        e.train_batches(20).unwrap();
        let kinds: Vec<CheckpointKind> =
            e.stats().intervals.iter().map(|i| i.kind).collect();
        assert_eq!(kinds[0], CheckpointKind::Full);
        assert!(kinds[1..]
            .iter()
            .all(|k| *k == CheckpointKind::Incremental));
        // Incrementals are smaller than the baseline.
        assert!(e.stats().intervals[1].stored_bytes < e.stats().intervals[0].stored_bytes);
    }

    #[test]
    fn restore_resumes_identical_training() {
        // Engine A: train 10, checkpoint at 5 and 10, fail, restore, train 5.
        // Engine B: train 15 without failure. Identical batches => identical
        // final state (fp32 checkpoints are bit-exact).
        let mut a = builder().build().unwrap();
        a.train_batches(10).unwrap();
        let hash_at_10 = a.trainer().model().state_hash();
        a.train_batches(3).unwrap(); // progress past the checkpoint...
        let report = a.simulate_failure_and_restore().unwrap(); // ...and lose it
        assert_eq!(report.state.iteration, 10);
        assert_eq!(a.trainer().model().state_hash(), hash_at_10);
        a.train_batches(5).unwrap();

        let mut b = builder().build().unwrap();
        b.train_batches(15).unwrap();
        assert_eq!(
            a.trainer().model().state_hash(),
            b.trainer().model().state_hash(),
            "restored run must be indistinguishable"
        );
    }

    #[test]
    fn mid_drain_failure_charges_the_drain_wait_to_time_to_resume() {
        let mut e = builder().build().unwrap();
        e.train_batches(10).unwrap();
        // The boundary checkpoint's upload drain far outlasts the few
        // milliseconds of simulated training, so this failure lands
        // mid-drain by construction.
        let failed_at = e.clock().now();
        let backlog = e.upload_backlog();
        assert!(backlog > Duration::ZERO, "failure must land mid-drain");
        e.simulate_failure_and_restore().unwrap();
        let resume = e.stats().resumes.last().unwrap();
        assert_eq!(resume.drain_wait, backlog, "wait made explicit");
        assert_eq!(
            resume.time_to_resume(),
            resume.drain_wait + resume.fetch + resume.decode + resume.merge,
            "drain wait is part of time-to-resume, not hidden before it"
        );
        let restore = last_restore_span(&e);
        assert_eq!(
            restore.start, failed_at,
            "recovery timestamped at the failure instant, not the durability \
             point"
        );
        assert_eq!(restore.duration(), resume.time_to_resume());
        // A failure after the drain has fully settled pays no drain wait.
        let mut settled = builder().build().unwrap();
        settled.train_batches(10).unwrap();
        settled.clock().advance(Duration::from_secs(3600));
        assert_eq!(settled.upload_backlog(), Duration::ZERO);
        settled.simulate_failure_and_restore().unwrap();
        assert_eq!(
            settled.stats().resumes.last().unwrap().drain_wait,
            Duration::ZERO
        );
    }

    #[test]
    fn restore_without_checkpoint_errors() {
        let mut e = builder().build().unwrap();
        assert!(matches!(
            e.simulate_failure_and_restore(),
            Err(CnrError::NothingToRestore)
        ));
    }

    #[test]
    fn quantized_run_reduces_stored_bytes() {
        // Dim 32 and tables large enough that the FP32 MLPs stored in the
        // dense object do not mask the embedding payload reduction (in
        // production models embeddings are >99% of bytes, §2.1).
        let spec = cnr_workload::DatasetSpec {
            seed: 101,
            batch_size: 8,
            dense_dim: 4,
            tables: vec![
                cnr_workload::TableAccessSpec::new(8000, 2, 1.05),
                cnr_workload::TableAccessSpec::new(4000, 1, 0.9),
            ],
            concept_seed: None,
        };
        let wide = |q: QuantMode| {
            EngineBuilder::new(spec.clone(), ModelConfig::for_dataset(&spec, 32))
                .checkpoint_every_batches(5)
                .cluster_shape(1, 2)
                .quantization(q)
                .build()
                .unwrap()
        };
        let mut fp32 = wide(QuantMode::None);
        fp32.train_batches(10).unwrap();
        let mut q4 = wide(QuantMode::Fixed(QuantScheme::Asymmetric { bits: 4 }));
        q4.train_batches(10).unwrap();
        let f = fp32.stats().intervals[0].stored_bytes;
        let q = q4.stats().intervals[0].stored_bytes;
        assert!(q * 3 < f, "4-bit full ckpt should be >3x smaller: {f} vs {q}");
    }

    #[test]
    fn dynamic_bitwidth_follows_restores() {
        let mut e = builder()
            .quantization(QuantMode::Dynamic {
                expected_restores: 1,
            })
            .build()
            .unwrap();
        assert_eq!(e.current_scheme().bits(), 2);
        e.train_batches(5).unwrap();
        e.simulate_failure_and_restore().unwrap();
        assert_eq!(e.current_scheme().bits(), 2, "within budget");
        e.simulate_failure_and_restore().unwrap();
        assert_eq!(e.current_scheme().bits(), 3, "fallback after excess restore");
    }

    #[test]
    fn intermittent_policy_rebaselines_eventually() {
        // Tiny tables + long run: deltas grow toward full size, so the
        // predictor must re-baseline at some point.
        let mut e = builder().policy(PolicyKind::Intermittent).build().unwrap();
        e.train_batches(100).unwrap();
        let kinds: Vec<CheckpointKind> =
            e.stats().intervals.iter().map(|i| i.kind).collect();
        let fulls = kinds.iter().filter(|k| **k == CheckpointKind::Full).count();
        assert!(
            fulls >= 2,
            "expected a re-baseline in 20 intervals, kinds: {kinds:?}"
        );
    }

    #[test]
    fn stall_fraction_is_small() {
        // Interval length matters: the paper's <0.4% holds for 30-minute
        // intervals; proportionally, 50 batches per interval on the tiny
        // model keeps the simulated stall far below the bound.
        let spec = DatasetSpec::tiny(101);
        let mut e = EngineBuilder::new(spec.clone(), ModelConfig::for_dataset(&spec, 8))
            .checkpoint_every_batches(50)
            .cluster_shape(1, 2)
            .build()
            .unwrap();
        e.train_batches(100).unwrap();
        assert!(e.trainer().stall_fraction() < 0.004);
    }

    #[test]
    fn sharded_engine_checkpoints_and_restores_identically() {
        let mut sharded = builder().writer_hosts(4).build().unwrap();
        sharded.train_batches(10).unwrap();
        let hash = sharded.trainer().model().state_hash();
        sharded.train_batches(3).unwrap();
        let report = sharded.simulate_failure_and_restore().unwrap();
        assert_eq!(report.state.iteration, 10);
        let newest = *report.chain.last().unwrap();
        let manifest = crate::restore::load_manifest(sharded.store().as_ref(), "job", newest).unwrap();
        assert!(
            (0..4).all(|h| manifest.chunks.iter().any(|c| c.key.contains(&format!("/shard-{h:05}-")))),
            "every writer host stored chunks of the restored checkpoint"
        );
        assert_eq!(sharded.trainer().model().state_hash(), hash);

        // Sharding is invisible to training semantics: same batches, same
        // model state as a single-host engine.
        let mut single = builder().build().unwrap();
        single.train_batches(10).unwrap();
        assert_eq!(single.trainer().model().state_hash(), hash);
    }

    #[test]
    fn engine_survives_writer_host_death_mid_upload() {
        let mut e = builder().writer_hosts(4).build().unwrap();
        // Stop short of the interval boundary: the manual checkpoint below
        // is the first (full) one, so every host owns chunks to lose.
        e.train_batches(4).unwrap();
        let hash = e.trainer().model().state_hash();
        let rec = e
            .checkpoint_now_killing_host(HostKill {
                host: 1,
                after_chunks: 0,
            })
            .unwrap();
        assert_eq!(rec.killed_hosts, vec![1]);
        // The checkpoint completed despite the death and restores exactly.
        let report = e.simulate_failure_and_restore().unwrap();
        assert_eq!(report.state.iteration, 4);
        assert_eq!(e.trainer().model().state_hash(), hash);
    }

    #[test]
    fn restore_records_time_to_resume_breakdown() {
        let mut e = builder().reader_hosts(4).build().unwrap();
        e.train_batches(10).unwrap();
        e.simulate_failure_and_restore().unwrap();
        assert_eq!(e.stats().resumes.len(), 1);
        let r = &e.stats().resumes[0];
        assert_eq!(r.reader_hosts, 4);
        assert!(r.bytes_fetched > 0);
        assert!(r.fetch > Duration::ZERO, "remote fetch takes simulated time");
        assert_eq!(
            r.time_to_resume(),
            r.drain_wait + r.fetch + r.decode + r.merge
        );
        // The span tree recorded the same event.
        assert_eq!(last_restore_span(&e).duration(), r.time_to_resume());
        assert!(r.time_to_resume() > Duration::ZERO);
    }

    #[test]
    fn more_reader_hosts_resume_sooner() {
        let time_to_resume = |hosts: usize| {
            let mut e = builder()
                .checkpoint_config(CheckpointConfig {
                    interval_batches: 5,
                    chunk_rows: 64, // ~24 chunks: enough to spread over 8 hosts
                    ..CheckpointConfig::default()
                })
                .reader_hosts(hosts)
                .remote_config(RemoteConfig {
                    bandwidth_bytes_per_sec: 64.0 * 1024.0, // slow: fetch dominates
                    base_latency: Duration::from_micros(100),
                    replication: 1,
                    channels: hosts as u32,
                })
                .build()
                .unwrap();
            e.train_batches(10).unwrap();
            let hash = e.trainer().model().state_hash();
            e.simulate_failure_and_restore().unwrap();
            assert_eq!(e.trainer().model().state_hash(), hash, "exact restore");
            e.stats().resumes[0].fetch
        };
        let one = time_to_resume(1);
        let eight = time_to_resume(8);
        assert!(
            eight.as_secs_f64() < 0.5 * one.as_secs_f64(),
            "8 reader hosts must resume measurably sooner: {one:?} vs {eight:?}"
        );
    }

    #[test]
    fn engine_survives_reader_host_death_mid_restore() {
        let mut e = builder().reader_hosts(4).build().unwrap();
        e.train_batches(10).unwrap();
        let hash = e.trainer().model().state_hash();
        let report = e
            .simulate_failure_and_restore_killing_reader(HostKill {
                host: 2,
                after_chunks: 1,
            })
            .unwrap();
        assert_eq!(report.state.iteration, 10);
        assert_eq!(e.trainer().model().state_hash(), hash);
        assert_eq!(e.stats().resumes.len(), 1);
    }

    /// A reader host dying mid-log — its first segment fetched, the next
    /// one abandoned — hands the rest of its list, log segments first, to
    /// the survivor: the restore still lands at the WAL tip, bit-identical
    /// to the serial restore of the checkpoint with the log applied in
    /// order.
    #[test]
    fn a_reader_dying_mid_log_still_restores_the_wal_tip() {
        let mut e = builder()
            .reader_hosts(2)
            .delta_wal(DeltaWalConfig)
            .build()
            .unwrap();
        e.train_batches(9).unwrap(); // checkpoint at 5, then 4 logged deltas
        let hash_at_tip = e.trainer().model().state_hash();
        let latest = e.controller().latest().unwrap();
        let config = e.trainer().model().config().clone();
        let serial = crate::restore::restore(e.store().as_ref(), "job", latest, &config).unwrap();
        let mut reference = DlrmModel::new(config);
        serial.state.restore(&mut reference);
        for record in wal::replay(e.store().as_ref(), "job").unwrap().records {
            DeltaRecord::decode_logged(&record).unwrap().apply(&mut reference).unwrap();
        }
        assert_eq!(reference.state_hash(), hash_at_tip, "the serial reference is the tip");
        // Dealt to the lighter host in turn, host 0's list opens with two
        // segments: it dies fetching its second.
        let mut load = [0u64; 2];
        let mut on_host_0 = 0;
        for key in wal::list_segments(e.store().as_ref(), "job").unwrap() {
            let h = usize::from(load[1] < load[0]);
            load[h] += e.store().head(&key).unwrap().size;
            on_host_0 += u32::from(h == 0);
        }
        assert!(on_host_0 >= 2, "host 0 holds {on_host_0} segments");

        e.simulate_failure_and_restore_killing_reader(HostKill {
            host: 0,
            after_chunks: 1,
        })
        .unwrap();
        assert_eq!(e.trainer().model().iteration(), 9);
        assert_eq!(e.trainer().model().state_hash(), reference.state_hash());
        let r = e.stats().resumes.last().unwrap();
        assert_eq!((r.restore_point, r.wal_replayed_iterations), (RestorePoint::WalTip, 4));
        assert!(r.rescheduled_chunks > 0, "host 0's list went to the survivor");
        let hosts: Vec<_> = e
            .obs()
            .spans()
            .into_iter()
            .filter(|s| s.name == cnr_obs::names::SPAN_RESTORE_FETCH_HOST)
            .collect();
        let segments: u64 = hosts
            .iter()
            .flat_map(|s| &s.attrs)
            .filter(|(k, _)| *k == "log_segments")
            .map(|(_, v)| v.parse::<u64>().unwrap())
            .sum();
        assert_eq!(segments, 4, "every segment fetched once, by some host");
        let host_0 = hosts.iter().find(|s| s.attrs.iter().any(|(k, v)| *k == "host" && v == "0"));
        let attr = |k: &str| host_0.unwrap().attrs.iter().find(|(a, _)| *a == k).unwrap().1.clone();
        assert_eq!((attr("log_segments"), attr("chunks")), ("1".into(), "0".into()));
    }

    /// The plan deals the dense object first, to host 0: killed before
    /// it reads anything, host 0 hands it to the survivor with the rest of
    /// its list, and the restore is still exact.
    #[test]
    fn a_reader_killed_holding_the_dense_object_still_restores_exactly() {
        let mut e = builder().reader_hosts(2).build().unwrap();
        e.train_batches(10).unwrap();
        let hash = e.trainer().model().state_hash();
        let latest = e.controller().latest().unwrap();
        let chain: Vec<crate::manifest::Manifest> = e
            .controller()
            .chain_of(latest)
            .unwrap()
            .into_iter()
            .map(|id| crate::restore::load_manifest(e.store().as_ref(), "job", id).unwrap())
            .collect();
        let plan = read::planner::plan_priority(&chain, &[], 2, None, 1.0);
        assert_eq!(plan[0][0].kind, read::FetchKind::Dense, "host 0's list opens with it");

        e.simulate_failure_and_restore_killing_reader(HostKill {
            host: 0,
            after_chunks: 0,
        })
        .unwrap();
        assert_eq!(e.trainer().model().state_hash(), hash);
        assert!(e.stats().resumes.last().unwrap().rescheduled_chunks > 0);
        e.train_batches(1).unwrap();
    }

    #[test]
    fn sampled_reader_kills_still_restore_exactly() {
        // Whichever reader host dies, and however far into its share, the
        // restore must still complete bit-exactly by re-sharding.
        use rand::Rng;
        let mut e = builder().reader_hosts(4).build().unwrap();
        e.train_batches(10).unwrap();
        let hash = e.trainer().model().state_hash();
        let mut rng = StdRng::seed_from_u64(0x5EED_4EC0);
        for _ in 0..4 {
            let kill = HostKill {
                host: rng.gen_range(0..4),
                after_chunks: rng.gen_range(0..2),
            };
            e.simulate_failure_and_restore_killing_reader(kill).unwrap();
            assert_eq!(e.trainer().model().state_hash(), hash, "{kill:?}");
        }
        let rescheduled = e.obs().registry().counter(cnr_obs::names::RESTORE_RESCHEDULED);
        assert!(rescheduled > 0, "a dead host's chunks went to the survivors");
    }

    #[test]
    fn upload_backlog_is_polled_not_blocked_on() {
        let mut e = builder().build().unwrap();
        assert_eq!(e.upload_backlog(), Duration::ZERO, "nothing written yet");
        e.train_batches(5).unwrap();
        // Right after the interval's checkpoint the uploads are still
        // draining in the background.
        let backlog = e.upload_backlog();
        assert!(backlog > Duration::ZERO);
        // Training advances the clock; the backlog only shrinks, and the
        // next boundary waits out at most what is left.
        e.train_batches(2).unwrap();
        assert!(e.upload_backlog() <= backlog);
    }

    #[test]
    fn interval_boundaries_overlap_quantize_with_the_previous_drain() {
        // Slow uplink + full checkpoints: each drain far outlasts an
        // interval of training. Under the §4.3 relaxation the boundary no
        // longer waits the drain out — it snapshots immediately and queues
        // the new uploads behind the old — so by the third checkpoint the
        // backlog has *accumulated* past what any single drain could leave
        // behind. (The pre-relaxation engine advanced the clock to the
        // previous durability point first, capping the backlog at one
        // checkpoint's write latency.)
        let spec = DatasetSpec::tiny(101);
        let mut e = EngineBuilder::new(spec.clone(), ModelConfig::for_dataset(&spec, 8))
            .checkpoint_every_batches(5)
            .cluster_shape(1, 2)
            .policy(PolicyKind::FullOnly)
            .remote_config(RemoteConfig {
                bandwidth_bytes_per_sec: 64.0 * 1024.0, // slow: drain ≫ interval
                base_latency: Duration::from_micros(100),
                replication: 1,
                channels: 1,
            })
            .build()
            .unwrap();
        e.train_batches(15).unwrap();
        assert_eq!(e.stats().intervals.len(), 3);
        let one_drain = e.stats().intervals[0].write_latency;
        assert!(
            e.upload_backlog() > one_drain + one_drain / 2,
            "backlog must accumulate across overlapped boundaries: {:?} vs one drain {:?}",
            e.upload_backlog(),
            one_drain
        );
        // Durability is still strictly ordered: each checkpoint's validity
        // clock includes the drains it queued behind.
        let latencies: Vec<Duration> =
            e.stats().intervals.iter().map(|i| i.write_latency).collect();
        assert!(
            latencies.windows(2).all(|w| w[1] > w[0]),
            "overlapped writes queue strictly behind their predecessors: {latencies:?}"
        );
    }

    #[test]
    fn scrub_now_reports_clean_checkpoints() {
        let mut e = builder().build().unwrap();
        e.train_batches(10).unwrap();
        let findings = e.scrub_now(None).unwrap();
        assert!(findings.scanned > 0, "live objects were swept");
        assert_eq!(findings.clean, findings.scanned, "fresh writes verify clean");
        assert_eq!(findings.corrupt_detected, 0);
        assert_eq!(e.stats().scrubs.len(), 1);
        assert_eq!(e.stats().scrub_totals(), findings);
    }

    /// Bit rot: flips one bit of the object stored at `key`, so the damage
    /// persists across re-reads.
    fn poison_at_rest(e: &Engine, key: &str) {
        let mut b = e.store().get(key).unwrap().to_vec();
        let mid = b.len() / 2;
        b[mid] ^= 0x40;
        e.store().put(key, bytes::Bytes::from(b)).unwrap();
    }

    #[test]
    fn scrub_heals_poisoned_objects_from_a_replica() {
        use cnr_storage::InMemoryStore;
        let mut e = builder().build().unwrap();
        e.train_batches(10).unwrap();
        let hash = e.trainer().model().state_hash();
        // Replicate every live object, then poison N chunks at rest on the
        // primary (bit rot: the damage persists across re-reads).
        let replica = InMemoryStore::new();
        let keys = e.controller().live_keys();
        for k in &keys {
            replica.put(k, e.store().get(k).unwrap()).unwrap();
        }
        let poisoned: Vec<String> = keys
            .iter()
            .filter(|k| !k.ends_with("/manifest"))
            .cloned()
            .collect();
        let n = poisoned.len() as u64;
        assert!(n >= 3, "need several chunk objects to poison, got {n}");
        for k in &poisoned {
            poison_at_rest(&e, k);
        }
        let findings = e.scrub_now(Some(&replica)).unwrap();
        assert_eq!(findings.corrupt_detected, n, "every poisoned object found");
        assert_eq!(findings.repaired, n, "every poisoned object healed");
        assert_eq!(findings.unrepairable, 0);
        assert_eq!(e.stats().scrub_totals().repaired, n, "reported in run stats");
        // A second sweep finds nothing wrong, and the healed checkpoint
        // still restores bit-exactly.
        let again = e.scrub_now(Some(&replica)).unwrap();
        assert_eq!(again.corrupt_detected, 0);
        assert_eq!(again.clean, again.scanned);
        e.simulate_failure_and_restore().unwrap();
        assert_eq!(e.trainer().model().state_hash(), hash);
    }

    /// A restore that fails has already torn up the trainer's tables (it
    /// decodes into them) and thrown away any lazy tail: the engine must
    /// refuse, typed, to train on or checkpoint that model, and a later
    /// successful restore must bring everything back.
    #[test]
    fn failed_restore_refuses_training_until_a_restore_succeeds() {
        use bytes::Bytes;
        for mid_lazy_drain in [false, true] {
            let mut e = if mid_lazy_drain {
                lazy_builder(0.05).build().unwrap()
            } else {
                builder().build().unwrap()
            };
            e.train_batches(10).unwrap();
            let hash_at_10 = e.trainer().model().state_hash();
            e.train_batches(2).unwrap();
            if mid_lazy_drain {
                e.simulate_failure_and_restore().unwrap();
                assert!(e.pending_lazy().is_some(), "the next failure lands mid-drain");
            }
            // Every chunk rots at rest: no retry can heal it.
            let healthy: Vec<(String, Bytes)> = e
                .controller()
                .live_keys()
                .into_iter()
                .filter(|k| !k.ends_with("/manifest"))
                .map(|k| {
                    let bytes = e.store().get(&k).unwrap();
                    (k, bytes)
                })
                .collect();
            assert!(healthy.len() >= 3);
            for (k, _) in &healthy {
                poison_at_rest(&e, k);
            }
            let err = e.simulate_failure_and_restore().unwrap_err();
            assert!(matches!(err, CnrError::Corrupt(_)), "typed corruption, got {err:?}");
            assert!(e.pending_lazy().is_none());
            let (intervals, resumes) = (e.stats().intervals.len(), e.stats().resumes.len());
            assert!(matches!(e.train_batches(1), Err(CnrError::TrainingStateLost)));
            assert!(matches!(e.checkpoint_now(), Err(CnrError::TrainingStateLost)));
            assert_eq!(e.trainer().trained_batches(), 12, "no batch touched the torn model");
            assert_eq!(e.stats().intervals.len(), intervals, "and no checkpoint captured it");
            // A second failed restore changes nothing.
            assert!(e.simulate_failure_and_restore().is_err());
            assert!(matches!(e.train_batches(1), Err(CnrError::TrainingStateLost)));
            assert_eq!(e.stats().resumes.len(), resumes, "failed restores record no resume");

            for (k, bytes) in healthy {
                e.store().put(&k, bytes).unwrap();
            }
            e.simulate_failure_and_restore().unwrap();
            e.drain_lazy_restore().unwrap();
            assert_eq!(e.trainer().model().state_hash(), hash_at_10);
            e.train_batches(3).unwrap();
            e.checkpoint_now().unwrap();
        }
    }

    /// A cold chunk with a malformed row — envelope and frame verify, the
    /// last row body is short — is never de-quantized by the restore that
    /// holds it back. The *restore* must fail all the same (typed, state
    /// lost), not a fault-in some batches into training.
    #[test]
    fn a_malformed_cold_row_fails_the_restore_not_a_later_batch() {
        use crate::manifest::{ChunkPayload, Manifest};
        let mut e = lazy_builder(0.05).build().unwrap();
        e.train_batches(10).unwrap();
        let hash_at_10 = e.trainer().model().state_hash();
        e.train_batches(3).unwrap(); // a working set for the planner to prefer
        // A clean restore shows which chunks this checkpoint's restore
        // holds back.
        e.simulate_failure_and_restore().unwrap();
        let tail = e.pending_lazy().expect("cold tail pending");
        let cold_key = tail.pending_keys().pop().expect("a cold chunk");
        let manifest_key = format!("{}/manifest", cold_key.rsplit_once('/').unwrap().0);
        let healthy = [&cold_key, &manifest_key].map(|k| (k.clone(), e.store().get(k).unwrap()));

        let mut chunk = ChunkPayload::decode(&healthy[0].1).unwrap();
        chunk.rows.last_mut().unwrap().payload.pop();
        let short = chunk.encode_enveloped();
        let mut manifest = Manifest::decode(&healthy[1].1).unwrap();
        let meta = manifest.chunks.iter_mut().find(|c| c.key == cold_key).unwrap();
        meta.bytes = short.len() as u64;
        e.store().put(&cold_key, short.into()).unwrap();
        e.store()
            .put(&manifest_key, manifest.encode_enveloped().into())
            .unwrap();

        let err = e.simulate_failure_and_restore().unwrap_err();
        assert!(
            matches!(&err, CnrError::Corrupt(why) if why.contains("row bodies truncated")),
            "{err:?}"
        );
        assert!(e.pending_lazy().is_none(), "no tail to fault in from");
        assert!(matches!(e.train_batches(1), Err(CnrError::TrainingStateLost)));

        for (k, bytes) in healthy {
            e.store().put(&k, bytes).unwrap();
        }
        e.simulate_failure_and_restore().unwrap();
        e.drain_lazy_restore().unwrap();
        assert_eq!(e.trainer().model().state_hash(), hash_at_10);
        e.train_batches(3).unwrap();
    }

    #[test]
    fn scheduled_scrubs_run_at_interval_boundaries() {
        let mut e = builder()
            .scrub_every(Duration::from_millis(1))
            .build()
            .unwrap();
        e.train_batches(20).unwrap();
        assert!(!e.stats().scrubs.is_empty(), "sweeps came due during training");
        let totals = e.stats().scrub_totals();
        assert!(totals.scanned > 0);
        assert_eq!(totals.corrupt_detected, 0, "healthy store scrubs clean");
        // Each sweep pushed the next one a full interval out.
        for pair in e.stats().scrubs.windows(2) {
            assert!(pair[1].at >= pair[0].at + Duration::from_millis(1));
        }
    }

    #[test]
    fn wal_restore_resumes_at_the_tip_losing_no_synced_work() {
        let mut e = builder().delta_wal(DeltaWalConfig).build().unwrap();
        e.train_batches(8).unwrap(); // checkpoint at 5, then 3 logged deltas
        let hash_at_tip = e.trainer().model().state_hash();
        let segments = wal::list_segments(e.store().as_ref(), "job").unwrap();
        assert_eq!(segments.len(), 3, "one segment per logged delta");
        let smallest = segments
            .iter()
            .map(|key| e.store().head(key).unwrap().size)
            .min()
            .unwrap();
        e.simulate_failure_and_restore().unwrap();
        // Every append syncs: every iteration was durable, none lost.
        assert_eq!(e.trainer().model().iteration(), 8, "restored to the WAL tip");
        assert_eq!(e.trainer().model().state_hash(), hash_at_tip, "bit-identical replay");
        let r = e.stats().resumes.last().unwrap();
        assert_eq!(r.restore_point, RestorePoint::WalTip);
        assert_eq!(r.wal_replayed_iterations, 3);
        assert_eq!(r.lost_iterations, 0, "a WAL-enabled failure loses ≤ 1 iteration");
        // The log's reads are items of the fetch, not a phase after it.
        assert_eq!(r.wal_replay, Duration::ZERO);
        assert!(
            r.fetch >= e.store().read_transfer_time(smallest),
            "the fetch takes at least one segment's read"
        );
        assert_eq!(
            r.time_to_resume(),
            r.drain_wait + r.fetch + r.decode + r.merge,
            "replay is part of time-to-resume, not hidden"
        );
        assert!(
            last_restore_span(&e)
                .attrs
                .iter()
                .any(|(k, v)| *k == "restore_point" && v == "WalTip"),
            "the span tree distinguishes tip restores from checkpoint restores"
        );
        // Writer-side accounting made it into the run stats.
        assert_eq!(e.stats().wal.appends, 3);
        assert_eq!(e.stats().wal.syncs, 3);
        assert_eq!(e.stats().wal.truncations, 1);
        assert!(e.stats().wal.sync_time > Duration::ZERO);
        // Continuing from the replayed tip is indistinguishable from a
        // run that never failed.
        e.train_batches(7).unwrap();
        let mut clean = builder().delta_wal(DeltaWalConfig).build().unwrap();
        clean.train_batches(15).unwrap();
        assert_eq!(
            e.trainer().model().state_hash(),
            clean.trainer().model().state_hash()
        );
    }

    #[test]
    fn wal_torn_tail_loses_at_most_the_unsynced_iteration() {
        let mut e = builder().delta_wal(DeltaWalConfig).build().unwrap();
        e.train_batches(8).unwrap();
        // Tear the newest segment mid-frame: the classic torn write — the
        // last append died partway to the device.
        let segments = wal_segments(&e);
        assert_eq!(segments.len(), 3, "one segment per logged iteration");
        let key = segments.last().unwrap();
        let buf = e.store().get(key).unwrap();
        e.store().put(key, buf.slice(..buf.len() - 3)).unwrap();
        e.simulate_failure_and_restore().unwrap();
        assert_eq!(e.trainer().model().iteration(), 7, "clean prefix of 2 records");
        let r = e.stats().resumes.last().unwrap();
        assert_eq!(r.wal_replayed_iterations, 2);
        assert_eq!(r.lost_iterations, 1, "only the torn iteration is lost");
        assert_eq!(r.restore_point, RestorePoint::WalTip);
        // Retraining the lost iteration converges to the clean run.
        e.train_batches(8).unwrap();
        let mut clean = builder().delta_wal(DeltaWalConfig).build().unwrap();
        clean.train_batches(15).unwrap();
        assert_eq!(
            e.trainer().model().state_hash(),
            clean.trainer().model().state_hash()
        );
    }

    /// The job's WAL segments, oldest first, as the store lists them.
    fn wal_segments(e: &Engine) -> Vec<String> {
        wal::list_segments(e.store().as_ref(), &e.job).unwrap()
    }

    #[test]
    fn wal_damage_matrix_always_recovers_the_clean_prefix() {
        // For every segment: tear it inside its body frame or inside its
        // MLP trailer, or flip a byte in its body. Restore must always
        // succeed, recover exactly the records before the damage — none
        // from the clean segments behind it — and report the rest as lost:
        // typed clean-prefix recovery, never an error and never silent
        // garbage. A record torn inside its trailer is torn: an older
        // segment is read short of its trailer, so the cut lands in the
        // body read; the newest is read whole and ends without one.
        use cnr_storage::envelope;
        #[derive(Debug, Clone, Copy)]
        enum Damage {
            TornMidHeader,
            TornInTrailer,
            FlippedBodyByte,
        }
        for frame in 0..3usize {
            for damage in [Damage::TornMidHeader, Damage::TornInTrailer, Damage::FlippedBodyByte] {
                let mut e =
                    builder().delta_wal(DeltaWalConfig).build().unwrap();
                e.train_batches(8).unwrap(); // ckpt at 5 + records 6, 7, 8
                let segments = wal_segments(&e);
                assert_eq!(segments.len(), 3, "one segment per record");
                let key = &segments[frame];
                let buf = e.store().get(key).unwrap().to_vec();
                assert_eq!(cnr_storage::wal::validate_segment(&buf), Ok(1));
                let damaged = match damage {
                    Damage::TornMidHeader => buf[..5].to_vec(),
                    Damage::TornInTrailer => buf[..buf.len() - 3].to_vec(),
                    Damage::FlippedBodyByte => {
                        let mut b = buf.clone();
                        b[envelope::HEADER_LEN + 4] ^= 0x01;
                        b
                    }
                };
                e.store().put(key, bytes::Bytes::from(damaged)).unwrap();
                e.simulate_failure_and_restore().unwrap();
                let expect = 5 + frame as u64;
                assert_eq!(
                    e.trainer().model().iteration(),
                    expect,
                    "frame={frame} damage={damage:?}"
                );
                let r = e.stats().resumes.last().unwrap();
                assert_eq!(r.wal_replayed_iterations, frame as u64);
                assert_eq!(r.lost_iterations, 3 - frame as u64);
                let expected_point = if frame == 0 {
                    RestorePoint::Checkpoint
                } else {
                    RestorePoint::WalTip
                };
                assert_eq!(r.restore_point, expected_point);
            }
        }
    }

    #[test]
    fn wal_collapses_wasted_work_under_injected_failures() {
        let mut e = builder().delta_wal(DeltaWalConfig).build().unwrap();
        // Get past the first checkpoint so every failure has a base to
        // replay onto.
        e.train_batches(5).unwrap();
        // Failures ~10 batches apart: a 20 s MTBF at 2 s per batch.
        let failure_model = FailureModel::Exponential {
            mtbf: Duration::from_secs(20),
        };
        let mut rng = StdRng::seed_from_u64(7);
        let (mut failures, mut wasted) = (0u64, 0u64);
        while e.trainer().model().iteration() < 60 {
            let ttf = failure_model.sample(&mut rng).unwrap().time_to_failure;
            let gap = (ttf.as_secs_f64() / 2.0).ceil() as u64;
            e.train_batches(gap.max(1)).unwrap();
            let before = e.trainer().model().iteration();
            e.simulate_failure_and_restore().unwrap();
            wasted += before - e.trainer().model().iteration();
            failures += 1;
        }
        assert!(failures > 1, "failures must have been injected");
        assert!(
            wasted <= failures,
            "per-iteration WAL loses at most 1 batch per failure: wasted {wasted} over \
             {failures} failures"
        );
        // Every restore in the run reports the typed ≤1 bound too.
        assert_eq!(e.stats().resumes.len() as u64, failures);
        for r in &e.stats().resumes {
            assert!(r.lost_iterations <= 1);
        }
    }

    /// A scrub mid-interval covers every WAL segment synced since the
    /// last truncate, though no append told the controller about it.
    #[test]
    fn scrubber_covers_live_wal_segments() {
        let mut e = builder().delta_wal(DeltaWalConfig).build().unwrap();
        e.train_batches(8).unwrap();
        let segments = wal_segments(&e);
        assert_eq!(segments.len(), 3);
        let checkpoint_keys = e.controller().live_keys().len();
        let findings = e.scrub_now(None).unwrap();
        assert_eq!(findings.scanned as usize, checkpoint_keys + segments.len());
        let live = e.controller().live_keys();
        assert!(segments.iter().all(|k| live.contains(k)), "{segments:?} in {live:?}");
        assert_eq!(findings.clean, findings.scanned, "WAL segments verify clean");
        assert_eq!(findings.corrupt_detected, 0);
        // One segment rots: the next sweep finds it.
        poison_at_rest(&e, &segments[1]);
        let findings = e.scrub_now(None).unwrap();
        assert_eq!(findings.corrupt_detected, 1);
    }

    #[test]
    fn capacity_tracks_live_checkpoints() {
        let mut e = builder().policy(PolicyKind::Consecutive).build().unwrap();
        e.train_batches(20).unwrap();
        let caps: Vec<u64> = e.stats().intervals.iter().map(|i| i.capacity_bytes).collect();
        // Consecutive retention never deletes: capacity must be increasing.
        for w in caps.windows(2) {
            assert!(w[1] > w[0], "consecutive capacity must grow: {caps:?}");
        }
        assert_eq!(e.store().total_bytes(), *caps.last().unwrap());
    }

    /// On one reader host and one decode worker, a restore of a
    /// consecutive chain de-quantizes each row once: the registry's
    /// `cnr_restore_rows_landed_total` reads the model's row count (the
    /// full baseline names every row), while the chain's chunks name more.
    #[test]
    fn one_reader_host_and_worker_land_each_row_once() {
        use cnr_obs::names;
        let config = CheckpointConfig {
            interval_batches: 5,
            policy: PolicyKind::Consecutive,
            quantize_workers: 1,
            reader_hosts: 1,
            ..CheckpointConfig::default()
        };
        let mut e = builder().checkpoint_config(config).build().unwrap();
        e.train_batches(20).unwrap();
        let report = e.simulate_failure_and_restore().unwrap();
        let rows = e.trainer().model().config().row_counts().iter().sum::<usize>() as u64;
        assert_eq!(report.chain.len(), 4);
        assert!(report.rows_applied > rows, "{} named", report.rows_applied);
        assert_eq!(e.obs().registry().counter(names::RESTORE_ROWS_LANDED), rows);
    }

    /// A lazy-restore engine over a slow store: 4 writer hosts shard every
    /// table into row ranges (so the priority planner has cold chunks to
    /// defer), 2 reader hosts fetch, and the downlink is slow enough that
    /// the hot/cold arrival gap is visible in simulated time.
    fn lazy_builder(hot_fraction: f64) -> EngineBuilder {
        builder()
            .writer_hosts(4)
            .reader_hosts(2)
            .lazy_restore(hot_fraction)
            .remote_config(RemoteConfig {
                bandwidth_bytes_per_sec: 64.0 * 1024.0, // slow: fetch dominates
                base_latency: Duration::from_micros(100),
                replication: 1,
                channels: 2,
            })
    }

    #[test]
    fn lazy_restore_trains_before_the_drain_and_converges_bit_identically() {
        let mut a = lazy_builder(0.05).build().unwrap();
        a.train_batches(10).unwrap();
        let hash_at_10 = a.trainer().model().state_hash();
        a.train_batches(3).unwrap(); // progress past the checkpoint...
        a.simulate_failure_and_restore().unwrap(); // ...and lose it
        let resume = a.stats().resumes.last().unwrap();
        assert_eq!(resume.mode, RestoreMode::Lazy);
        assert!(
            resume.time_to_first_batch < resume.time_to_resume(),
            "lazy first-batch ({:?}) must beat full resume ({:?})",
            resume.time_to_first_batch,
            resume.time_to_resume()
        );
        let pending = a.pending_lazy().expect("cold tail pending").pending_rows();
        assert!(pending > 0, "some rows still cold at first-batch time");
        let materialized = a.drain_lazy_restore().unwrap();
        assert!(materialized > 0);
        assert_eq!(
            a.trainer().model().state_hash(),
            hash_at_10,
            "lazy restore + drain is bit-identical to the checkpoint"
        );
        a.train_batches(5).unwrap();

        let mut b = builder().build().unwrap();
        b.train_batches(15).unwrap();
        assert_eq!(
            a.trainer().model().state_hash(),
            b.trainer().model().state_hash(),
            "lazily restored run must be indistinguishable"
        );

        // Eager control: first-batch coincides with full resume and no
        // fault-ins happen.
        let mut c = builder().build().unwrap();
        c.train_batches(10).unwrap();
        c.simulate_failure_and_restore().unwrap();
        let r = c.stats().resumes.last().unwrap();
        assert_eq!(r.mode, RestoreMode::Eager);
        assert_eq!(r.time_to_first_batch, r.time_to_resume());
        assert_eq!(r.fault_in_fetches, 0);
        assert!(c.pending_lazy().is_none());
    }

    #[test]
    fn lazy_fault_ins_are_counted_and_charged() {
        // 13 batches: the restore lands on the checkpoint at 10, and the
        // tracker's 3-batch working set outnumbers the top-K cutoff so the
        // coverage boost leaves genuinely cold shards (restoring *exactly*
        // at a boundary on this tiny model marks every shard hot — each
        // holds some recently touched row).
        let mut a = lazy_builder(0.05).build().unwrap();
        a.train_batches(13).unwrap();
        a.simulate_failure_and_restore().unwrap();
        assert!(a.pending_lazy().is_some());
        // Four batches stay inside the interval (no boundary, no forced
        // drain); the slow store keeps the clock short of the background
        // drain's completion, so every cold row a batch touches faults in.
        a.train_batches(4).unwrap();
        let resume = a.stats().resumes.last().unwrap();
        assert!(
            resume.fault_in_fetches > 0,
            "batches over a Zipf tail must touch some cold rows"
        );
        assert!(resume.fault_in_time > Duration::ZERO, "fault-ins are charged");

        // Bit-identity holds after the drain even though training ran
        // mid-drain: faulted rows carried checkpoint bytes, cold rows the
        // drain filled in.
        a.drain_lazy_restore().unwrap();
        let mut b = builder()
            .writer_hosts(4)
            .reader_hosts(2)
            .remote_config(RemoteConfig {
                bandwidth_bytes_per_sec: 64.0 * 1024.0,
                base_latency: Duration::from_micros(100),
                replication: 1,
                channels: 2,
            })
            .build()
            .unwrap();
        b.train_batches(13).unwrap();
        b.simulate_failure_and_restore().unwrap();
        b.train_batches(4).unwrap();
        assert_eq!(
            a.trainer().model().state_hash(),
            b.trainer().model().state_hash(),
            "training mid-drain must not diverge from the eager path"
        );
    }

    /// A held-out evaluation mid-drain scores the restored model, not its
    /// stale cold rows: each batch faults in the cold rows it touches
    /// first, counted like training's, so the logloss has the bits the
    /// same evaluation has after the drain.
    #[test]
    fn mid_drain_evaluation_scores_the_restored_model() {
        let restored = || {
            let mut e = lazy_builder(0.05).build().unwrap();
            e.train_batches(13).unwrap();
            e.simulate_failure_and_restore().unwrap();
            assert!(e.pending_lazy().is_some());
            e
        };
        let (from, to) = (5_000, 5_004);
        let mut drained = restored();
        drained.drain_lazy_restore().unwrap();
        let want = drained.evaluate(from, to).unwrap();

        let mut mid = restored();
        let got = mid.evaluate(from, to).unwrap();
        assert!(mid.pending_lazy().is_some(), "the evaluation ran mid-drain");
        let resume = mid.stats().resumes.last().unwrap();
        assert!(resume.fault_in_fetches > 0, "held-out batches touch cold rows");
        assert!(resume.fault_in_time > Duration::ZERO, "and pay for them");
        assert_eq!(got.logloss.to_bits(), want.logloss.to_bits());
        assert_eq!(got, want);
    }

    #[test]
    fn checkpoint_mid_drain_forces_materialization_first() {
        let mut e = lazy_builder(0.05).build().unwrap();
        e.train_batches(10).unwrap();
        let hash_at_10 = e.trainer().model().state_hash();
        e.train_batches(2).unwrap();
        e.simulate_failure_and_restore().unwrap();
        assert!(e.pending_lazy().is_some());
        e.checkpoint_now().unwrap();
        assert!(
            e.pending_lazy().is_none(),
            "a snapshot must never capture unmaterialized rows"
        );
        // The forced checkpoint captured complete state: restoring from it
        // (and draining) lands back on the exact pre-failure weights.
        e.simulate_failure_and_restore().unwrap();
        e.drain_lazy_restore().unwrap();
        assert_eq!(e.trainer().model().state_hash(), hash_at_10);
    }

    /// A lazy restore's cold tail is verified bytes in memory: a sweep
    /// mid-drain scans the tail's objects like any other and heals one
    /// rotted at rest, and the drain, which never reads the store, still
    /// lands the checkpoint.
    #[test]
    fn scrub_mid_drain_heals_a_cold_chunk_and_the_drain_is_untouched() {
        use cnr_storage::InMemoryStore;
        let mut e = lazy_builder(0.05).build().unwrap();
        e.train_batches(10).unwrap();
        let hash_at_10 = e.trainer().model().state_hash();
        e.train_batches(2).unwrap(); // past the boundary: cold shards exist
        e.simulate_failure_and_restore().unwrap();
        let live = e.controller().live_keys();
        let replica = InMemoryStore::new();
        for k in &live {
            replica.put(k, e.store().get(k).unwrap()).unwrap();
        }
        let cold = e.pending_lazy().expect("cold tail").pending_keys().pop().expect("a cold chunk");
        poison_at_rest(&e, &cold);
        let findings = e.scrub_now(Some(&replica)).unwrap();
        assert_eq!(findings.scanned, live.len() as u64, "every live key, the tail's included");
        assert_eq!((findings.corrupt_detected, findings.repaired), (1, 1));
        assert!(e.pending_lazy().is_some(), "the sweep leaves the drain alone");
        e.drain_lazy_restore().unwrap();
        assert_eq!(e.trainer().model().state_hash(), hash_at_10);
    }

    /// A drain into a model of another shape is refused before it writes a
    /// row, and the tail stays: with the right model back, the drain lands
    /// the checkpoint — no second restore, no store read.
    #[test]
    fn a_refused_drain_keeps_its_tail() {
        let mut e = lazy_builder(0.05).build().unwrap();
        e.train_batches(10).unwrap();
        let hash_at_10 = e.trainer().model().state_hash();
        e.train_batches(2).unwrap();
        e.simulate_failure_and_restore().unwrap();
        let pending = e.pending_lazy().expect("cold tail").pending_keys();
        assert!(!pending.is_empty());
        let mut config = e.trainer().model().config().clone();
        config.tables[0].rows += 1;
        let restored = std::mem::replace(e.trainer_mut().model_mut(), DlrmModel::new(config));

        let gets = e.store().metrics().snapshot().gets;
        let err = e.drain_lazy_restore().unwrap_err();
        assert!(matches!(err, CnrError::ShapeMismatch(_)), "{err:?}");
        let kept = e.pending_lazy().expect("a refused drain keeps the tail");
        assert_eq!(kept.pending_keys(), pending);

        *e.trainer_mut().model_mut() = restored;
        assert!(e.drain_lazy_restore().unwrap() > 0);
        assert!(e.pending_lazy().is_none());
        assert_eq!(e.trainer().model().state_hash(), hash_at_10);
        assert_eq!(e.store().metrics().snapshot().gets, gets, "no store read");
        assert_eq!(e.stats().resumes.len(), 1, "no second restore");
        e.train_batches(3).unwrap();
    }

    #[test]
    fn lazy_restore_composes_with_wal_tail_replay() {
        let mut a = lazy_builder(0.05)
            .delta_wal(DeltaWalConfig)
            .build()
            .unwrap();
        a.train_batches(13).unwrap(); // checkpoints at 5 and 10; 3-record tail
        let hash_at_13 = a.trainer().model().state_hash();
        a.simulate_failure_and_restore().unwrap();
        let resume = a.stats().resumes.last().unwrap();
        assert_eq!(resume.mode, RestoreMode::Lazy);
        assert_eq!(resume.restore_point, RestorePoint::WalTip);
        assert_eq!(resume.wal_replayed_iterations, 3);
        assert!(resume.time_to_first_batch < resume.time_to_resume());
        // The replayed rows, dense weights and cursor landed with the
        // restore, and the drain leaves those rows alone — back to the
        // exact failed state.
        a.drain_lazy_restore().unwrap();
        assert_eq!(
            a.trainer().model().state_hash(),
            hash_at_13,
            "lazy + WAL tail + drain must be bit-identical to the tip"
        );
        assert_eq!(a.trainer().model().iteration(), 13);
    }

    /// The `ResumeStats::time_to_resume` doc promise: the total is exactly
    /// the sum of the four phases — WAL replay inside the fetch — in every
    /// mode, and lazy fault-in time is accounted *outside* it.
    #[test]
    fn time_to_resume_is_the_sum_of_its_phases_in_every_mode() {
        let engines: Vec<Engine> = vec![
            builder().build().unwrap(),
            builder().delta_wal(DeltaWalConfig).build().unwrap(),
            lazy_builder(0.05).build().unwrap(),
            lazy_builder(0.05)
                .delta_wal(DeltaWalConfig)
                .build()
                .unwrap(),
        ];
        for mut e in engines {
            e.train_batches(13).unwrap();
            e.simulate_failure_and_restore().unwrap();
            e.train_batches(2).unwrap(); // lazy modes accrue fault-in time
            let r = e.stats().resumes.last().unwrap();
            assert_eq!(
                r.time_to_resume(),
                r.drain_wait + r.fetch + r.decode + r.merge,
                "time_to_resume must equal its documented phase sum ({:?})",
                r.mode,
            );
            assert_eq!(r.wal_replay, Duration::ZERO, "no phase after the fetch");
            let restore = last_restore_span(&e);
            let phase_sum: Duration = e
                .obs()
                .spans()
                .iter()
                .filter(|s| s.parent == Some(restore.id) && s.kind == cnr_obs::SpanKind::Sync)
                .map(|s| s.duration())
                .sum();
            assert_eq!(phase_sum, r.time_to_resume(), "the phase spans are the same identity");
            assert!(r.time_to_first_batch <= r.time_to_resume());
        }
    }

    /// The tentpole contract: `RunStats` aggregates equal the metrics
    /// registry's, because both are fed from (or derived out of) the same
    /// single accumulation points.
    #[test]
    fn run_stats_agree_with_the_metrics_registry() {
        use cnr_obs::names;
        let mut e = lazy_builder(0.05)
            .delta_wal(DeltaWalConfig)
            .scrub_every(Duration::from_millis(1))
            .build()
            .unwrap();
        e.train_batches(13).unwrap();
        e.simulate_failure_and_restore().unwrap();
        e.train_batches(4).unwrap(); // crosses a boundary: another checkpoint
        e.scrub_now(None).unwrap();
        let reg = e.obs().registry();
        let s = e.stats();

        // Checkpoint intervals.
        assert_eq!(reg.counter(names::CKPT_INTERVALS), s.intervals.len() as u64);
        assert_eq!(
            reg.counter(names::CKPT_FULL) + reg.counter(names::CKPT_INCREMENTAL),
            s.intervals.len() as u64
        );
        assert_eq!(
            reg.counter(names::CKPT_STORED_BYTES),
            s.intervals.iter().map(|i| i.stored_bytes).sum::<u64>()
        );
        let lat_sum: Duration = s.intervals.iter().map(|i| i.write_latency).sum();
        assert_eq!(reg.duration_sum(names::CKPT_WRITE_LATENCY_NS), lat_sum);
        let stall_sum: Duration = s.intervals.iter().map(|i| i.stall).sum();
        assert_eq!(reg.duration_sum(names::CKPT_STALL_NS), stall_sum);
        assert_eq!(
            reg.gauge(names::CKPT_CAPACITY_BYTES),
            Some(s.intervals.last().unwrap().capacity_bytes as f64)
        );

        // Restores, including fault-in accrued after the resume row landed.
        assert_eq!(reg.counter(names::RESTORE_RESUMES), s.resumes.len() as u64);
        assert_eq!(reg.counter(names::RESTORE_LAZY), 1);
        assert_eq!(
            reg.counter(names::RESTORE_BYTES_FETCHED),
            s.resumes.iter().map(|r| r.bytes_fetched).sum::<u64>()
        );
        let ttr_sum: Duration = s.resumes.iter().map(|r| r.time_to_resume()).sum();
        assert_eq!(reg.duration_sum(names::RESTORE_TIME_TO_RESUME_NS), ttr_sum);
        assert_eq!(
            reg.counter(names::RESTORE_WAL_REPLAYED_ITERATIONS),
            s.resumes.iter().map(|r| r.wal_replayed_iterations).sum::<u64>()
        );
        // WAL: `stats.wal` *is* the registry readback; spot-check the
        // registry against the writer-visible truth.
        assert_eq!(s.wal, observe::wal_run_stats(reg));
        assert!(s.wal.appends > 0);
        assert_eq!(reg.counter(names::WAL_APPENDS), s.wal.appends);
        assert_eq!(
            Duration::from_nanos(reg.counter(names::WAL_SYNC_TIME_NS)),
            s.wal.sync_time
        );

        // Scrub sweeps.
        assert_eq!(reg.counter(names::SCRUB_SWEEPS), s.scrubs.len() as u64);
        assert_eq!(
            reg.counter(names::SCRUB_SCANNED),
            s.scrubs.iter().map(|x| x.findings.scanned).sum::<u64>()
        );

        // Fault-in accrues *after* the resume row lands — assert the
        // registry keeps pace using the WAL-free recipe (WAL replay time
        // closes the drain window before a batch can fault in).
        let mut f = lazy_builder(0.05).build().unwrap();
        f.train_batches(13).unwrap();
        f.simulate_failure_and_restore().unwrap();
        f.train_batches(4).unwrap();
        let (reg, s) = (f.obs().registry(), f.stats());
        let fault_fetches: u64 = s.resumes.iter().map(|r| r.fault_in_fetches).sum();
        assert!(fault_fetches > 0, "lazy run must exercise fault-in");
        assert_eq!(reg.counter(names::RESTORE_FAULT_IN_FETCHES), fault_fetches);
        let fault_time: Duration = s.resumes.iter().map(|r| r.fault_in_time).sum();
        assert_eq!(reg.duration_sum(names::RESTORE_FAULT_IN_NS), fault_time);
    }

    /// The full lifecycle (checkpoints, failure, lazy restore, WAL replay,
    /// fault-in, drain, scrub) emits a structurally valid span tree whose
    /// restore root equals `time_to_resume`, and both exporters accept it.
    #[test]
    fn full_lifecycle_emits_a_valid_exportable_span_tree() {
        use cnr_obs::names;
        let mut e = lazy_builder(0.05)
            .delta_wal(DeltaWalConfig)
            .scrub_every(Duration::from_millis(1))
            .build()
            .unwrap();
        e.train_batches(13).unwrap();
        e.simulate_failure_and_restore().unwrap();
        e.train_batches(2).unwrap();
        e.drain_lazy_restore().unwrap();
        e.scrub_now(None).unwrap();

        let spans = e.obs().spans();
        cnr_obs::span::validate_tree(&spans).expect("span tree invariants");
        for name in [
            names::SPAN_CHECKPOINT,
            names::SPAN_CHECKPOINT_SNAPSHOT,
            names::SPAN_CHECKPOINT_QUANTIZE,
            names::SPAN_CHECKPOINT_UPLOAD,
            names::SPAN_CHECKPOINT_REGISTER,
            names::SPAN_RESTORE,
            names::SPAN_RESTORE_PLAN,
            names::SPAN_RESTORE_DRAIN_WAIT,
            names::SPAN_RESTORE_FETCH,
            names::SPAN_RESTORE_FETCH_HOST,
            names::SPAN_RESTORE_WAL_REPLAY,
            names::SPAN_RESTORE_FIRST_BATCH,
            names::SPAN_RESTORE_LAZY_DRAIN,
            names::SPAN_WAL_SYNC,
            names::SPAN_WAL_TRUNCATE,
            names::SPAN_SCRUB_SWEEP,
        ] {
            assert!(
                spans.iter().any(|s| s.name == name),
                "lifecycle must emit a {name} span"
            );
        }
        let root = spans.iter().find(|s| s.name == names::SPAN_RESTORE).unwrap();
        assert_eq!(
            root.duration(),
            e.stats().resumes[0].time_to_resume(),
            "restore root duration is time_to_resume by construction"
        );
        let phase_sum: Duration = spans
            .iter()
            .filter(|s| s.parent == Some(root.id) && s.kind == cnr_obs::SpanKind::Sync)
            .map(|s| s.duration())
            .sum();
        assert_eq!(phase_sum, root.duration(), "phases tile the root exactly");

        let trace = cnr_obs::export::chrome_trace_jsonl(&spans);
        cnr_obs::export::validate_trace_jsonl(&trace).expect("chrome trace schema");
        let prom = cnr_obs::export::prometheus_text(&e.obs().registry().snapshot());
        assert!(prom.contains("cnr_restore_resumes_total 1"));
        assert!(prom.contains("cnr_checkpoint_intervals_total"));
    }
}
