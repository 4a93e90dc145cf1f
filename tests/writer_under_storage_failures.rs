//! The writer pipeline under storage failures: errors propagate cleanly
//! (no panics, no hangs), nothing half-written is ever registered, and the
//! checkpoint succeeds when retried against healthy storage.

use check_n_run::core::controller::CheckpointController;
use check_n_run::core::manifest::{CheckpointId, CheckpointKind};
use check_n_run::core::policy::{Decision, TrackerAction};
use check_n_run::core::restore::restore;
use check_n_run::core::snapshot::SnapshotTaker;
use check_n_run::core::write::CheckpointWriter;
use check_n_run::core::{CheckpointConfig, CnrError, TrainingSnapshot};
use check_n_run::cluster::SimClock;
use check_n_run::model::{DlrmModel, ModelConfig, ShardPlan};
use check_n_run::quant::QuantScheme;
use check_n_run::reader::ReaderState;
use check_n_run::storage::{FailureMode, Fault, FlakyStore, InMemoryStore, ObjectStore, Op};
use check_n_run::trainer::{Trainer, TrainerConfig};
use check_n_run::workload::{DatasetSpec, SyntheticDataset};
use std::sync::Arc;

/// A trained model's configuration, its trainer and its state hash.
fn trained() -> (ModelConfig, Trainer, u64) {
    let spec = DatasetSpec::tiny(777);
    let ds = SyntheticDataset::new(spec.clone());
    let model_cfg = ModelConfig::for_dataset(&spec, 8);
    let model = DlrmModel::new(model_cfg.clone());
    let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
    for i in 0..4 {
        trainer.train_one(&ds.batch(i));
    }
    let hash = trainer.model().state_hash();
    (model_cfg, trainer, hash)
}

/// A full snapshot of `trainer`.
fn full_snapshot(trainer: &mut Trainer) -> TrainingSnapshot<'_> {
    let plan = ShardPlan::balanced(trainer.model().config(), 1, 2);
    SnapshotTaker::new(plan).take(
        trainer,
        ReaderState::at(4),
        Decision {
            kind: CheckpointKind::Full,
            tracker: TrackerAction::SnapshotReset,
        },
        &CheckpointConfig::default(),
    )
}

#[test]
fn put_failures_surface_as_pipeline_errors() {
    let (_, mut trainer, _) = trained();
    let snap = full_snapshot(&mut trainer);
    // Fail the second put: with several chunks, one worker errors while
    // others succeed; write() must return the error, not panic or hang.
    let store =
        FlakyStore::new(InMemoryStore::new(), [Fault::fail(Op::Put, FailureMode::Every(2))]);
    let cfg = CheckpointConfig {
        chunk_rows: 128,
        quantize_workers: 3,
        ..CheckpointConfig::default()
    };
    let writer = CheckpointWriter::new(&store, "job");
    let result = writer.write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg);
    assert!(
        matches!(result, Err(CnrError::Storage(_))),
        "expected a storage error, got {result:?}"
    );
    assert!(store.injected(0) > 0);
}

#[test]
fn failed_checkpoint_is_never_registered_and_retry_succeeds() {
    let (model_cfg, mut trainer, hash) = trained();
    let snap = full_snapshot(&mut trainer);
    // Transient outage: the first few puts fail, then storage heals.
    let outage = Fault::fail(Op::Put, FailureMode::FirstN(7));
    let store = Arc::new(FlakyStore::new(InMemoryStore::new(), [outage]));
    let mut controller = CheckpointController::new(
        store.clone() as Arc<dyn ObjectStore>,
        "job",
        1,
    );
    let cfg = CheckpointConfig {
        chunk_rows: 128,
        ..CheckpointConfig::default()
    };

    // Attempt until one write fully succeeds (the engine's caller-side
    // retry; each attempt uses a fresh checkpoint id like a real retry
    // under a new interval).
    let mut id = 0u64;
    let record = loop {
        let writer = CheckpointWriter::new(store.as_ref(), "job");
        match writer.write(&snap, CheckpointId(id), None, QuantScheme::Fp32, &cfg) {
            Ok(rec) => break rec,
            Err(CnrError::Storage(_)) => {
                id += 1;
                assert!(id < 20, "retries should converge quickly");
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    };
    controller
        .register(&record.manifest, &record.manifest_key)
        .unwrap();
    assert_eq!(controller.live(), vec![CheckpointId(id)]);

    // The registered checkpoint restores exactly, regardless of the debris
    // left by failed attempts.
    let report = restore(store.as_ref(), "job", CheckpointId(id), &model_cfg).unwrap();
    let mut model = DlrmModel::new(model_cfg);
    report.state.restore(&mut model);
    assert_eq!(model.state_hash(), hash);
}

#[test]
fn manifest_put_failure_leaves_checkpoint_unreadable() {
    let (model_cfg, mut trainer, _) = trained();
    let snap = full_snapshot(&mut trainer);
    // One chunk per table (+1 manifest): fail exactly the manifest put.
    let cfg = CheckpointConfig {
        chunk_rows: 1 << 20, // larger than any table: one chunk per table
        quantize_workers: 1,
        ..CheckpointConfig::default()
    };
    // Count objects first with a clean run.
    let clean = InMemoryStore::new();
    let n_objects = {
        let writer = CheckpointWriter::new(&clean, "job");
        let rec = writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
            .unwrap();
        rec.manifest.chunks.len() + 1
    };
    let store = FlakyStore::new(
        InMemoryStore::new(),
        [Fault::fail(Op::Put, FailureMode::Every(n_objects as u64))],
    );
    let writer = CheckpointWriter::new(&store, "job");
    let result = writer.write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg);
    assert!(result.is_err(), "manifest put failure must fail the write");
    // Without a manifest the checkpoint does not exist for restore purposes.
    assert!(restore(&store, "job", CheckpointId(0), &model_cfg).is_err());
}
