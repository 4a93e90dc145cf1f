//! Atomic in-memory snapshots (§4.2, *decoupled checkpointing*).
//!
//! Training stalls only while the model state is copied from (simulated)
//! device memory to host memory; quantization, serialization and upload
//! then work from that host copy. All devices copy their shards
//! concurrently, so the stall is bounded by the largest shard, not the
//! model size: the reason the paper's stall stays <7 s on 128 GPUs
//! regardless of scale.
//!
//! **The host copy is the trainer's own tables.** A snapshot borrows them
//! for as long as it lives, and the writer quantizes each chunk straight
//! from the rows the delta names, by table-absolute row index: no
//! embedding row is copied before it is encoded. The borrow is what makes
//! a copy unnecessary — while a snapshot lives the trainer cannot train,
//! so the rows cannot move under the writer, and the compiler checks it.
//! The dense layers, the iteration counter and the reader position are
//! copied whole; they are small.
//!
//! The *simulated* stall does not depend on what is copied here: it
//! models the paper's device→host copy of the largest shard
//! ([`CheckpointConfig::snapshot_stall`]), which the production system
//! pays at every boundary whatever the checkpoint then stores.

use crate::config::CheckpointConfig;
use crate::manifest::{CheckpointKind, TableMeta};
use crate::policy::{Decision, TrackerAction};
use cnr_model::{EmbeddingTable, ModelState, ShardPlan, TableView};
use cnr_reader::ReaderState;
use cnr_tracking::TrackerSnapshot;
use cnr_trainer::Trainer;
use std::time::Duration;

/// Everything a checkpoint needs, captured at one consistent instant, over
/// tables borrowed for `'m`.
///
/// The fields are public, so the writer re-checks the shapes before it
/// plans: every table `rows × dim` with accumulators iff its geometry says
/// so, every mask `rows` bits ([`crate::error::CnrError::ShapeMismatch`]).
#[derive(Debug, Clone)]
pub struct TrainingSnapshot<'m> {
    /// The dense layers and the iteration at the snapshot instant. Its
    /// `tables` is empty: the embedding tables are [`Self::tables`], as a
    /// restore into tables the caller holds leaves its report's state
    /// without them.
    pub model: ModelState,
    /// Every table, whole: the writer reads the rows `delta` names from
    /// here by row index.
    pub tables: Vec<TableView<'m>>,
    /// Geometry of every table, from the model configuration.
    pub geometry: Vec<TableMeta>,
    /// Rows to include: all rows for full checkpoints, the tracked delta for
    /// incrementals.
    pub delta: TrackerSnapshot,
    /// Reader position, gap-free by the §4.1 budget protocol.
    pub reader: ReaderState,
    /// Kind this snapshot was taken for.
    pub kind: CheckpointKind,
    /// Simulated time when the snapshot completed.
    pub taken_at: Duration,
    /// How long training was stalled for the copy.
    pub stall: Duration,
}

/// Takes snapshots according to a shard plan and config.
#[derive(Debug, Clone)]
pub struct SnapshotTaker {
    shard_plan: ShardPlan,
}

impl SnapshotTaker {
    /// Creates a taker with the given device layout.
    pub fn new(shard_plan: ShardPlan) -> Self {
        Self { shard_plan }
    }

    /// The shard plan in use.
    pub fn shard_plan(&self) -> &ShardPlan {
        &self.shard_plan
    }

    /// Stalls the trainer, applies the policy's tracker action, copies the
    /// dense layers and lends the tables. `reader_state` must already be
    /// collected (the budget must be drained) — passing it in keeps the
    /// protocol order explicit in the engine.
    ///
    /// The snapshot borrows `trainer` until it is dropped, so no batch
    /// trains while a writer reads the tables:
    ///
    /// ```compile_fail,E0499
    /// # use cnr_core::{config::CheckpointConfig, manifest::CheckpointKind, snapshot::SnapshotTaker};
    /// # use cnr_core::policy::{Decision, TrackerAction};
    /// # use cnr_model::{DlrmModel, ModelConfig, ShardPlan};
    /// # use cnr_trainer::{Trainer, TrainerConfig};
    /// # let spec = cnr_workload::DatasetSpec::tiny(1);
    /// # let config = ModelConfig::for_dataset(&spec, 8);
    /// # let taker = SnapshotTaker::new(ShardPlan::balanced(&config, 1, 1));
    /// # let clock = cnr_cluster::SimClock::new();
    /// # let mut trainer = Trainer::new(DlrmModel::new(config), clock, TrainerConfig::default());
    /// # let decision = Decision { kind: CheckpointKind::Full, tracker: TrackerAction::SnapshotReset };
    /// # let reader = cnr_reader::ReaderState::at(0);
    /// let snapshot = taker.take(&mut trainer, reader, decision, &CheckpointConfig::default());
    /// trainer.train_one(&cnr_workload::SyntheticDataset::new(spec).batch(0)); // the tables are lent out
    /// drop(snapshot);
    /// ```
    pub fn take<'m>(
        &self,
        trainer: &'m mut Trainer,
        reader_state: ReaderState,
        decision: Decision,
        config: &CheckpointConfig,
    ) -> TrainingSnapshot<'m> {
        // Stall = largest shard / host-copy bandwidth (§4.2).
        let max_shard = self.shard_plan.max_device_bytes(trainer.model().config());
        let stall = config.snapshot_stall(max_shard);
        trainer.stall(stall);

        let row_counts = trainer.model().config().row_counts();
        let delta = match (decision.kind, decision.tracker) {
            (CheckpointKind::Full, TrackerAction::SnapshotReset) => {
                trainer.tracker().reset();
                TrackerSnapshot::full(&row_counts)
            }
            (CheckpointKind::Full, TrackerAction::SnapshotKeep) => {
                TrackerSnapshot::full(&row_counts)
            }
            (CheckpointKind::Incremental, TrackerAction::SnapshotKeep) => {
                trainer.tracker().snapshot()
            }
            (CheckpointKind::Incremental, TrackerAction::SnapshotReset) => {
                trainer.tracker().snapshot_and_reset()
            }
        };

        let trainer: &'m Trainer = trainer;
        let model = trainer.model();
        TrainingSnapshot {
            model: ModelState {
                tables: Vec::new(),
                bottom: model.bottom().flatten(),
                top: model.top().flatten(),
                iteration: model.iteration(),
            },
            tables: model.tables().iter().map(EmbeddingTable::view).collect(),
            geometry: TableMeta::for_model(model.config()),
            delta,
            reader: reader_state,
            kind: decision.kind,
            taken_at: trainer.clock().now(),
            stall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnr_cluster::SimClock;
    use cnr_model::{DlrmModel, ModelConfig, TableState};
    use cnr_trainer::TrainerConfig;
    use cnr_workload::{DatasetSpec, SyntheticDataset};

    fn setup() -> (SyntheticDataset, Trainer, SnapshotTaker, CheckpointConfig) {
        let spec = DatasetSpec::tiny(55);
        let ds = SyntheticDataset::new(spec.clone());
        let cfg = ModelConfig::for_dataset(&spec, 8);
        let plan = ShardPlan::balanced(&cfg, 1, 2);
        let model = DlrmModel::new(cfg);
        let trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
        (ds, trainer, SnapshotTaker::new(plan), CheckpointConfig::default())
    }

    fn full_decision() -> Decision {
        Decision {
            kind: CheckpointKind::Full,
            tracker: TrackerAction::SnapshotReset,
        }
    }

    fn incr_keep() -> Decision {
        Decision {
            kind: CheckpointKind::Incremental,
            tracker: TrackerAction::SnapshotKeep,
        }
    }

    fn incr_reset() -> Decision {
        Decision {
            kind: CheckpointKind::Incremental,
            tracker: TrackerAction::SnapshotReset,
        }
    }

    #[test]
    fn full_snapshot_includes_all_rows_and_resets_tracker() {
        let (ds, mut trainer, taker, cfg) = setup();
        for i in 0..5 {
            trainer.train_one(&ds.batch(i));
        }
        assert!(trainer.tracker().modified_rows() > 0);
        let snap = taker.take(&mut trainer, ReaderState::at(5), full_decision(), &cfg);
        assert_eq!(snap.kind, CheckpointKind::Full);
        assert!((snap.delta.fraction_modified() - 1.0).abs() < 1e-12);
        assert_eq!(snap.reader.next_batch, 5);
        assert_eq!(snap.model.iteration, 5);
        drop(snap);
        assert_eq!(trainer.tracker().modified_rows(), 0, "baseline resets tracking");
    }

    #[test]
    fn incremental_keep_accumulates() {
        let (ds, mut trainer, taker, cfg) = setup();
        trainer.train_one(&ds.batch(0));
        let delta1 = taker.take(&mut trainer, ReaderState::at(1), incr_keep(), &cfg).delta;
        trainer.train_one(&ds.batch(1));
        let delta2 = taker.take(&mut trainer, ReaderState::at(2), incr_keep(), &cfg).delta;
        // One-shot semantics: later delta is a superset.
        assert!(delta2.modified_rows() >= delta1.modified_rows());
    }

    #[test]
    fn incremental_reset_isolates_intervals() {
        let (ds, mut trainer, taker, cfg) = setup();
        trainer.train_one(&ds.batch(0));
        let delta1 = taker.take(&mut trainer, ReaderState::at(1), incr_reset(), &cfg).delta;
        assert!(delta1.modified_rows() > 0);
        assert_eq!(trainer.tracker().modified_rows(), 0);
        trainer.train_one(&ds.batch(1));
        let delta2 = taker.take(&mut trainer, ReaderState::at(2), incr_reset(), &cfg).delta;
        // Consecutive semantics: the second delta covers only interval 2.
        let b1 = ds.batch(1);
        let mut distinct = std::collections::HashSet::new();
        for (t, idx) in b1.sparse.iter().enumerate() {
            for &r in idx {
                distinct.insert((t, r));
            }
        }
        assert_eq!(delta2.modified_rows(), distinct.len());
    }

    #[test]
    fn stall_is_accounted_on_the_trainer() {
        let (ds, mut trainer, taker, cfg) = setup();
        trainer.train_one(&ds.batch(0));
        let before = trainer.stall_time();
        let snap = taker.take(&mut trainer, ReaderState::at(1), full_decision(), &cfg);
        let (stall, taken_at) = (snap.stall, snap.taken_at);
        assert!(stall > Duration::ZERO);
        assert_eq!(trainer.stall_time() - before, stall);
        assert_eq!(taken_at, trainer.clock().now());
    }

    /// Whatever the delta names, a snapshot lends every table whole —
    /// weights and accumulators — and copies the dense layers and the
    /// iteration.
    #[test]
    fn a_snapshot_lends_the_whole_tables_and_copies_the_dense_layers() {
        let spec = DatasetSpec::tiny(55);
        let ds = SyntheticDataset::new(spec.clone());
        let mut model_cfg = ModelConfig::for_dataset(&spec, 8);
        model_cfg.optimizer = cnr_model::OptimizerConfig::RowWiseAdagrad { lr: 0.1, eps: 1e-8 };
        let taker = SnapshotTaker::new(ShardPlan::balanced(&model_cfg, 1, 2));
        let mut trainer =
            Trainer::new(DlrmModel::new(model_cfg.clone()), SimClock::new(), TrainerConfig::default());
        for i in 0..3 {
            trainer.train_one(&ds.batch(i));
        }
        let live = ModelState::extract(trainer.model());
        for decision in [incr_keep(), full_decision()] {
            let snap = taker.take(&mut trainer, ReaderState::at(3), decision, &CheckpointConfig::default());
            assert!(snap.delta.modified_rows() > 0);
            let tables: Vec<_> = live.tables.iter().map(TableState::view).collect();
            assert_eq!(snap.tables, tables);
            assert!(snap.tables.iter().all(|t| t.adagrad.is_some_and(|a| a.iter().any(|&v| v > 0.0))));
            assert_eq!(snap.model, ModelState { tables: Vec::new(), ..live.clone() });
            assert_eq!(snap.geometry, TableMeta::for_model(&model_cfg));
        }
    }
}
