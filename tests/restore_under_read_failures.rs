//! Sharded restore under transient *read* failures.
//!
//! Remote reads time out in practice just like writes do. The fetch
//! scheduler retries each ranged read a bounded number of times
//! (`RestoreOptions::fetch_retries`); these suites drive the whole restore
//! pipeline through a `FlakyStore` that injects deterministic read
//! failures and assert that (a) transient failures are absorbed without
//! corrupting the restored state, and (b) persistent failures surface as
//! errors rather than silent zero-filled rows.

use check_n_run::cluster::HostKill;
use check_n_run::core::config::CheckpointConfig;
use check_n_run::core::manifest::{CheckpointId, CheckpointKind};
use check_n_run::core::policy::{Decision, TrackerAction};
use check_n_run::core::read::{restore_sharded, restore_sharded_with_heat, RestoreOptions};
use check_n_run::core::snapshot::SnapshotTaker;
use check_n_run::core::write::CheckpointWriter;
use check_n_run::core::CnrError;
use check_n_run::model::{DlrmModel, ModelConfig, ModelState, ShardPlan};
use check_n_run::quant::QuantScheme;
use check_n_run::reader::ReaderState;
use check_n_run::storage::{FailureMode, Fault, FlakyStore, InMemoryStore, Op};
use check_n_run::trainer::{Trainer, TrainerConfig};
use check_n_run::workload::{DatasetSpec, SyntheticDataset};
use std::time::Duration;

/// A model's configuration, its state, and a store holding a full
/// checkpoint of it.
fn checkpointed() -> (ModelConfig, ModelState, InMemoryStore) {
    let spec = DatasetSpec::tiny(5150);
    let ds = SyntheticDataset::new(spec.clone());
    let model_cfg = ModelConfig::for_dataset(&spec, 8);
    let model = DlrmModel::new(model_cfg.clone());
    let mut trainer = Trainer::new(model, check_n_run::cluster::SimClock::new(), TrainerConfig::default());
    for i in 0..3 {
        trainer.train_one(&ds.batch(i));
    }
    let saved = ModelState::extract(trainer.model());
    let snap = SnapshotTaker::new(ShardPlan::balanced(&model_cfg, 1, 2)).take(
        &mut trainer,
        ReaderState::at(3),
        Decision {
            kind: CheckpointKind::Full,
            tracker: TrackerAction::SnapshotReset,
        },
        &CheckpointConfig::default(),
    );
    let store = InMemoryStore::new();
    let writer = CheckpointWriter::new(&store, "job");
    let cfg = CheckpointConfig {
        chunk_rows: 100,
        writer_hosts: 2,
        ..CheckpointConfig::default()
    };
    writer
        .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
        .expect("write");
    (model_cfg, saved, store)
}

fn options(reader_hosts: usize, retries: u32) -> RestoreOptions {
    RestoreOptions {
        reader_hosts,
        fetch_retries: retries,
        ..RestoreOptions::default()
    }
}

#[test]
fn periodic_read_timeouts_are_absorbed_by_retries() {
    let (model_cfg, saved, inner) = checkpointed();
    let store = FlakyStore::new(inner, [Fault::fail(Op::Read, FailureMode::Every(4))]);
    let sharded = restore_sharded(
        &store,
        "job",
        CheckpointId(0),
        &model_cfg,
        &options(4, 3),
        Duration::ZERO,
    )
    .expect("retries must absorb periodic timeouts");
    assert_eq!(sharded.report.state, saved, "bit-exact despite timeouts");
    assert!(store.injected(0) > 0, "failures actually fired");
    assert!(sharded.fetch_status.retries_performed >= store.injected(0) - 1);
    assert_eq!(
        sharded.fetch_status.corruption_refetches, 0,
        "transient timeouts are range retries, never whole-chunk heals"
    );
}

#[test]
fn transient_outage_at_restore_start_heals() {
    // An outage long enough to exhaust the manifest fetch's retries fails
    // the first restore attempt loudly; once the store heals, a second
    // attempt succeeds — exactly how an operator-level retry loop would
    // drive it. A *shorter* outage is absorbed inside one attempt, since
    // manifest reads go through the same retrying fetch path as chunks.
    let (model_cfg, saved, inner) = checkpointed();
    let store = FlakyStore::new(inner, [Fault::fail(Op::Read, FailureMode::FirstN(3))]);
    let first = restore_sharded(
        &store,
        "job",
        CheckpointId(0),
        &model_cfg,
        &options(2, 2), // 2 retries = 3 attempts, all inside the outage
        Duration::ZERO,
    );
    assert!(first.is_err(), "outage outlasts the manifest fetch retries");
    let second = restore_sharded(
        &store,
        "job",
        CheckpointId(0),
        &model_cfg,
        &options(2, 2),
        Duration::ZERO,
    )
    .expect("healed store restores");
    assert_eq!(second.report.state, saved);

    // The shorter outage: two failing reads are absorbed by the manifest
    // fetch's own retries and the restore completes first try.
    let (model_cfg2, saved2, inner2) = checkpointed();
    let store2 = FlakyStore::new(inner2, [Fault::fail(Op::Read, FailureMode::FirstN(2))]);
    let absorbed = restore_sharded(
        &store2,
        "job",
        CheckpointId(0),
        &model_cfg2,
        &options(2, 2),
        Duration::ZERO,
    )
    .expect("short outage absorbed in place");
    assert_eq!(absorbed.report.state, saved2);
}

#[test]
fn persistent_read_failures_error_rather_than_zero_fill() {
    let (model_cfg, _, inner) = checkpointed();
    let store = FlakyStore::new(inner, [Fault::fail(Op::Read, FailureMode::Every(1))]);
    let result = restore_sharded(
        &store,
        "job",
        CheckpointId(0),
        &model_cfg,
        &options(4, 2),
        Duration::ZERO,
    );
    assert!(
        matches!(result, Err(CnrError::Storage(_))),
        "exhausted retries must fail the restore loudly"
    );
}

#[test]
fn read_failures_and_reader_death_compose() {
    // A flaky store *and* a reader host dying mid-restore: retries absorb
    // the timeouts, survivors adopt the dead host's chunks, and the state
    // is still bit-exact.
    let (model_cfg, saved, inner) = checkpointed();
    let store = FlakyStore::new(inner, [Fault::fail(Op::Read, FailureMode::Every(6))]);
    let sharded = restore_sharded_with_heat(
        &store,
        "job",
        CheckpointId(0),
        &model_cfg,
        &options(4, 4),
        Duration::ZERO,
        Some(HostKill {
            host: 0,
            after_chunks: 1,
        }),
        None,
    )
    .expect("retries + re-sharding must both engage");
    assert_eq!(sharded.report.state, saved);
    assert_eq!(sharded.killed_hosts, vec![0]);
    assert!(sharded.breakdown.rescheduled_chunks > 0);
}

#[test]
fn a_head_timeout_is_retried_like_a_read() {
    // The chain walk sizes each manifest with a `head` before it fetches
    // it. One timed-out `head` costs one retry, counted with the reads'.
    let (model_cfg, saved, inner) = checkpointed();
    let store = FlakyStore::new(inner, [Fault::fail(Op::Head, FailureMode::Once(1))]);
    let sharded = restore_sharded(
        &store,
        "job",
        CheckpointId(0),
        &model_cfg,
        &options(2, 1),
        Duration::ZERO,
    )
    .expect("one head timeout is absorbed");
    assert_eq!(sharded.report.state, saved, "bit-exact despite the timeout");
    assert_eq!(store.injected(0), 1);
    assert_eq!(sharded.fetch_status.retries_performed, 1);

    // An outage that outlasts the budget fails the restore, typed.
    for retries in [0, 2] {
        let (model_cfg, _, inner) = checkpointed();
        let outage = Fault::fail(Op::Head, FailureMode::FirstN(retries as u64 + 1));
        let store = FlakyStore::new(inner, [outage]);
        let result = restore_sharded(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &options(2, retries),
            Duration::ZERO,
        );
        assert!(
            matches!(result, Err(CnrError::Storage(_))),
            "retries={retries}: exhausted head retries must fail the restore"
        );
        assert_eq!(store.injected(0), retries as u64 + 1);
    }
}
