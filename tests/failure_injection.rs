//! Failure injection on the storage path: corruption is always detected,
//! deletes keep bookkeeping honest, and the filesystem backend behaves like
//! the in-memory one under the full checkpoint stack.

use bytes::Bytes;
use check_n_run::core::manifest::{CheckpointId, CheckpointKind, Manifest};
use check_n_run::core::policy::{Decision, TrackerAction};
use check_n_run::core::restore::restore;
use check_n_run::core::snapshot::SnapshotTaker;
use check_n_run::core::write::CheckpointWriter;
use check_n_run::core::{CheckpointConfig, CnrError, TrainingSnapshot};
use check_n_run::cluster::SimClock;
use check_n_run::model::{DlrmModel, ModelConfig, ShardPlan};
use check_n_run::quant::QuantScheme;
use check_n_run::reader::ReaderState;
use check_n_run::storage::{FsStore, InMemoryStore, ObjectStore};
use check_n_run::trainer::{Trainer, TrainerConfig};
use check_n_run::workload::{DatasetSpec, SyntheticDataset};

/// A model's configuration after `batches` batches, its trainer and its
/// state hash.
fn trained(batches: u64) -> (ModelConfig, Trainer, u64) {
    let spec = DatasetSpec::tiny(404);
    let ds = SyntheticDataset::new(spec.clone());
    let model_cfg = ModelConfig::for_dataset(&spec, 8);
    let model = DlrmModel::new(model_cfg.clone());
    let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
    for i in 0..batches {
        trainer.train_one(&ds.batch(i));
    }
    let hash = trainer.model().state_hash();
    (model_cfg, trainer, hash)
}

/// A full snapshot of `trainer`.
fn full_snapshot(trainer: &mut Trainer) -> TrainingSnapshot<'_> {
    let plan = ShardPlan::balanced(trainer.model().config(), 1, 2);
    let batches = trainer.model().iteration();
    SnapshotTaker::new(plan).take(
        trainer,
        ReaderState::at(batches),
        Decision {
            kind: CheckpointKind::Full,
            tracker: TrackerAction::SnapshotReset,
        },
        &CheckpointConfig::default(),
    )
}

#[test]
fn every_corrupted_object_fails_restore_loudly() {
    let (model_cfg, mut trainer, _) = trained(3);
    let snap = full_snapshot(&mut trainer);
    let store = InMemoryStore::new();
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

    // Corrupt each stored object in turn; every restore attempt must error.
    let mut keys: Vec<String> = rec.manifest.chunks.iter().map(|c| c.key.clone()).collect();
    keys.push(rec.manifest_key.clone());
    for key in keys {
        let original = store.get(&key).unwrap();
        let mut corrupted = original.to_vec();
        let mid = corrupted.len() / 2;
        corrupted[mid] ^= 0x80;
        store.put(&key, Bytes::from(corrupted)).unwrap();
        let result = restore(&store, "job", CheckpointId(0), &model_cfg);
        assert!(
            matches!(result, Err(CnrError::Corrupt(_))),
            "corrupting {key} was not detected"
        );
        store.put(&key, original).unwrap(); // heal for the next round
    }
    // Healed store restores fine.
    assert!(restore(&store, "job", CheckpointId(0), &model_cfg).is_ok());
}

#[test]
fn missing_chunk_fails_restore() {
    let (model_cfg, mut trainer, _) = trained(2);
    let snap = full_snapshot(&mut trainer);
    let store = InMemoryStore::new();
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
    store.delete(&rec.manifest.chunks[0].key).unwrap();
    assert!(matches!(
        restore(&store, "job", CheckpointId(0), &model_cfg),
        Err(CnrError::Storage(_))
    ));
}

#[test]
fn fs_store_runs_the_full_checkpoint_stack() {
    let dir = std::env::temp_dir().join(format!(
        "cnr-e2e-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let store = FsStore::open(&dir).unwrap();

    let (model_cfg, mut trainer, hash) = trained(4);
    let snap = full_snapshot(&mut trainer);
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

    // Reopen the directory as a new store (process restart) and restore.
    drop(store);
    let store2 = FsStore::open(&dir).unwrap();
    let manifest = Manifest::decode(&store2.get(&rec.manifest_key).unwrap()).unwrap();
    assert_eq!(manifest.id, CheckpointId(0));
    let report = restore(&store2, "job", CheckpointId(0), &model_cfg).unwrap();
    let mut model = DlrmModel::new(model_cfg);
    report.state.restore(&mut model);
    assert_eq!(model.state_hash(), hash, "fs-backed restore must be exact");

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn truncated_manifest_fails_decode() {
    let (_, mut trainer, _) = trained(2);
    let snap = full_snapshot(&mut trainer);
    let store = InMemoryStore::new();
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
    let bytes = store.get(&rec.manifest_key).unwrap();
    for cut in [0, 1, 4, 7, bytes.len() / 2, bytes.len() - 1] {
        assert!(
            Manifest::decode(&bytes[..cut]).is_err(),
            "truncation at {cut} accepted"
        );
    }
}
