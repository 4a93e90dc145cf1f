//! Atomic in-memory snapshots (§4.2, *decoupled checkpointing*).
//!
//! Training stalls only while the model state is copied from (simulated)
//! device memory to host memory; everything downstream — quantization,
//! serialization, upload — happens in background processes against the
//! immutable copy. All devices copy their shards concurrently, so the stall
//! is bounded by the largest shard, not the model size: the reason the
//! paper's stall stays <7 s on 128 GPUs regardless of scale.
//!
//! **The copy holds exactly what the checkpoint writes.** A snapshot's
//! tables are *slabs*: for every table, the rows its `delta` names and no
//! others, densely packed in ascending row order (accumulators alike). A
//! full snapshot names every row, so its slab is the table; an incremental
//! one costs what the interval modified (§3), on the real clock as well as
//! in stored bytes. The dense layers, the iteration counter and the reader
//! position are always whole.
//!
//! The *simulated* stall is a different thing and does not depend on the
//! bytes copied here: it models the paper's device→host copy of the largest
//! shard ([`CheckpointConfig::snapshot_stall`]), which the production
//! system pays at every boundary whatever the checkpoint then stores.

use crate::config::CheckpointConfig;
use crate::manifest::{CheckpointKind, TableMeta};
use crate::policy::{Decision, TrackerAction};
use cnr_model::{EmbeddingTable, ModelState, ShardPlan, TableState};
use cnr_reader::ReaderState;
use cnr_tracking::{BitVec, TrackerSnapshot};
use cnr_trainer::Trainer;
use std::time::Duration;

/// Everything a checkpoint needs, captured at one consistent instant.
///
/// Invariant: **slab row `k` of table `t` is the `k`-th set bit of
/// `delta.tables[t]`** — `model.tables[t]` holds `count_ones()` rows (and
/// as many accumulators, when `geometry[t].has_optimizer_state`), not
/// `geometry[t].rows`. The fields are public, so the writer re-checks the
/// lengths before it plans ([`crate::error::CnrError::ShapeMismatch`]).
#[derive(Debug, Clone)]
pub struct TrainingSnapshot {
    /// Model state at the snapshot instant: per table the slab of rows
    /// `delta` names (see the invariant above), plus the whole dense
    /// layers and the iteration. For a full snapshot this *is* the
    /// complete model state.
    pub model: ModelState,
    /// Geometry of every table, from the model configuration — never
    /// derived from slab lengths, which say nothing about a table no row
    /// of which was tracked.
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

/// Copies the rows of `table` that `mask` names into a slab, one
/// `extend_from_slice` per run of set bits: an all-ones mask is a single
/// copy of the whole table.
fn gather(table: &EmbeddingTable, mask: &BitVec) -> TableState {
    let (dim, count) = (table.dim(), mask.count_ones());
    let mut data = Vec::with_capacity(count * dim);
    let mut adagrad = table.adagrad().map(|acc| (acc, Vec::with_capacity(count)));
    for run in mask.iter_runs() {
        data.extend_from_slice(&table.data()[run.start * dim..run.end * dim]);
        if let Some((acc, slab)) = &mut adagrad {
            slab.extend_from_slice(&acc[run]);
        }
    }
    TableState {
        data,
        adagrad: adagrad.map(|(_, slab)| slab),
    }
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
    /// rows the resulting delta names (and the dense layers), and resumes.
    /// `reader_state` must already be collected (the
    /// budget must be drained) — passing it in keeps the protocol order
    /// explicit in the engine.
    pub fn take(
        &self,
        trainer: &mut Trainer,
        reader_state: ReaderState,
        decision: Decision,
        config: &CheckpointConfig,
    ) -> TrainingSnapshot {
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

        let model = trainer.model();
        TrainingSnapshot {
            model: ModelState {
                tables: model
                    .tables()
                    .iter()
                    .zip(&delta.tables)
                    .map(|(table, mask)| gather(table, mask))
                    .collect(),
                bottom: model.bottom().flatten(),
                top: model.top().flatten(),
                iteration: model.iteration(),
            },
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
    use cnr_model::{DlrmModel, ModelConfig};
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
        assert_eq!(trainer.tracker().modified_rows(), 0, "baseline resets tracking");
        assert_eq!(snap.reader.next_batch, 5);
        assert_eq!(snap.model.iteration, 5);
    }

    #[test]
    fn incremental_keep_accumulates() {
        let (ds, mut trainer, taker, cfg) = setup();
        trainer.train_one(&ds.batch(0));
        let snap1 = taker.take(&mut trainer, ReaderState::at(1), incr_keep(), &cfg);
        trainer.train_one(&ds.batch(1));
        let snap2 = taker.take(&mut trainer, ReaderState::at(2), incr_keep(), &cfg);
        // One-shot semantics: later delta is a superset.
        assert!(snap2.delta.modified_rows() >= snap1.delta.modified_rows());
    }

    #[test]
    fn incremental_reset_isolates_intervals() {
        let (ds, mut trainer, taker, cfg) = setup();
        trainer.train_one(&ds.batch(0));
        let snap1 = taker.take(&mut trainer, ReaderState::at(1), incr_reset(), &cfg);
        assert!(snap1.delta.modified_rows() > 0);
        assert_eq!(trainer.tracker().modified_rows(), 0);
        trainer.train_one(&ds.batch(1));
        let snap2 = taker.take(&mut trainer, ReaderState::at(2), incr_reset(), &cfg);
        // Consecutive semantics: the second delta covers only interval 2.
        let b1 = ds.batch(1);
        let mut distinct = std::collections::HashSet::new();
        for (t, idx) in b1.sparse.iter().enumerate() {
            for &r in idx {
                distinct.insert((t, r));
            }
        }
        assert_eq!(snap2.delta.modified_rows(), distinct.len());
    }

    #[test]
    fn stall_is_accounted_on_the_trainer() {
        let (ds, mut trainer, taker, cfg) = setup();
        trainer.train_one(&ds.batch(0));
        let before = trainer.stall_time();
        let snap = taker.take(&mut trainer, ReaderState::at(1), full_decision(), &cfg);
        assert!(snap.stall > Duration::ZERO);
        assert_eq!(trainer.stall_time() - before, snap.stall);
        assert_eq!(snap.taken_at, trainer.clock().now());
    }

    #[test]
    fn snapshot_is_immutable_copy() {
        for decision in [full_decision(), incr_keep(), incr_reset()] {
            let (ds, mut trainer, taker, cfg) = setup();
            trainer.train_one(&ds.batch(0));
            let snap = taker.take(&mut trainer, ReaderState::at(1), decision, &cfg);
            let hash_before = trainer.model().state_hash();
            // Continue training; snapshot must not change.
            let frozen = snap.model.clone();
            for i in 1..5 {
                trainer.train_one(&ds.batch(i));
            }
            assert_ne!(trainer.model().state_hash(), hash_before);
            assert_eq!(snap.model, frozen);
        }
    }

    #[test]
    fn slab_row_k_is_the_kth_tracked_row() {
        let (ds, mut trainer, taker, cfg) = setup();
        for i in 0..3 {
            trainer.train_one(&ds.batch(i));
        }
        let live = ModelState::extract(trainer.model());
        let full = taker.take(
            &mut trainer,
            ReaderState::at(3),
            Decision {
                kind: CheckpointKind::Full,
                tracker: TrackerAction::SnapshotKeep,
            },
            &cfg,
        );
        assert_eq!(full.model, live, "a full snapshot's slabs are the tables");

        let snap = taker.take(&mut trainer, ReaderState::at(3), incr_keep(), &cfg);
        assert!(snap.delta.modified_rows() > 0);
        assert!(snap.model.byte_size() < live.byte_size());
        assert_eq!((&snap.model.bottom, &snap.model.top), (&live.bottom, &live.top));
        assert_eq!(snap.geometry, full.geometry);
        for (t, slab) in snap.model.tables.iter().enumerate() {
            let dim = snap.geometry[t].dim as usize;
            assert_eq!(snap.geometry[t].rows as usize, snap.delta.tables[t].len());
            assert_eq!(slab.data.len(), snap.delta.tables[t].count_ones() * dim);
            assert!(slab.adagrad.is_none() && !snap.geometry[t].has_optimizer_state);
            for (k, row) in snap.delta.tables[t].iter_ones().enumerate() {
                assert_eq!(
                    slab.data[k * dim..(k + 1) * dim],
                    live.tables[t].data[row * dim..(row + 1) * dim],
                    "table {t}, slab row {k} = row {row}"
                );
            }
        }
    }

    #[test]
    fn accumulators_are_gathered_with_their_rows() {
        let spec = DatasetSpec::tiny(55);
        let ds = SyntheticDataset::new(spec.clone());
        let mut model_cfg = ModelConfig::for_dataset(&spec, 8);
        model_cfg.optimizer = cnr_model::OptimizerConfig::RowWiseAdagrad { lr: 0.1, eps: 1e-8 };
        let taker = SnapshotTaker::new(ShardPlan::balanced(&model_cfg, 1, 2));
        let mut trainer =
            Trainer::new(DlrmModel::new(model_cfg), SimClock::new(), TrainerConfig::default());
        for i in 0..3 {
            trainer.train_one(&ds.batch(i));
        }
        let snap =
            taker.take(&mut trainer, ReaderState::at(3), incr_keep(), &CheckpointConfig::default());
        for (t, slab) in snap.model.tables.iter().enumerate() {
            assert!(snap.geometry[t].has_optimizer_state);
            let want: Vec<f32> = snap.delta.tables[t]
                .iter_ones()
                .map(|row| trainer.model().tables()[t].adagrad().unwrap()[row])
                .collect();
            assert!(want.iter().any(|&a| a > 0.0), "trained rows have accumulated");
            assert_eq!(slab.adagrad.as_deref(), Some(want.as_slice()));
        }
    }
}
