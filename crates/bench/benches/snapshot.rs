//! Snapshot and writer-pipeline benchmarks: the §4.2 stall path — what
//! `SnapshotTaker::take` does at a boundary (the tracker action, a copy of
//! the dense layers, the tables lent to the writer), for a full snapshot
//! and for an incremental that tracked a twentieth of the rows — and the
//! §4.4 pipeline.

use cnr_bench::workloads::trained_model;
use cnr_core::config::CheckpointConfig;
use cnr_core::manifest::{CheckpointId, CheckpointKind};
use cnr_core::policy::{Decision, TrackerAction};
use cnr_core::snapshot::SnapshotTaker;
use cnr_core::write::CheckpointWriter;
use cnr_cluster::SimClock;
use cnr_model::ShardPlan;
use cnr_quant::QuantScheme;
use cnr_reader::ReaderState;
use cnr_storage::InMemoryStore;
use cnr_trainer::{Trainer, TrainerConfig};
use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

fn snapshot_take(c: &mut Criterion) {
    let (_, model) = trained_model(1, 50, 16);
    let taker = SnapshotTaker::new(ShardPlan::balanced(model.config(), 1, 4));
    let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
    // Scattered rows, as an interval's are: every twentieth of each table.
    for (t, rows) in trainer.model().config().row_counts().into_iter().enumerate() {
        trainer.tracker().mark_rows(t, (0..rows).step_by(20));
    }
    let cfg = CheckpointConfig::default();
    let mut group = c.benchmark_group("snapshot_take");
    for (name, kind) in [
        ("full", CheckpointKind::Full),
        ("incremental_5pct", CheckpointKind::Incremental),
    ] {
        // `SnapshotKeep`: every iteration sees the same tracked rows.
        let decision = Decision {
            kind,
            tracker: TrackerAction::SnapshotKeep,
        };
        group.bench_function(name, |b| {
            b.iter(|| {
                black_box(taker.take(&mut trainer, ReaderState::at(50), decision, &cfg));
            })
        });
    }
    group.finish();
}

fn writer_pipeline(c: &mut Criterion) {
    let (ds, model) = trained_model(1, 50, 16);
    let model_cfg = model.config().clone();
    let plan = ShardPlan::balanced(&model_cfg, 1, 4);
    let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
    for i in 50..60 {
        trainer.train_one(&ds.batch(i));
    }
    let taker = SnapshotTaker::new(plan);
    let cfg = CheckpointConfig::default();
    let snapshot = taker.take(
        &mut trainer,
        ReaderState::at(60),
        Decision {
            kind: CheckpointKind::Full,
            tracker: TrackerAction::SnapshotKeep,
        },
        &cfg,
    );

    let mut group = c.benchmark_group("writer_full_ckpt");
    group.sample_size(10);
    for workers in [1usize, 4] {
        group.bench_function(format!("workers_{workers}"), |b| {
            let cfg = CheckpointConfig {
                quantize_workers: workers,
                ..CheckpointConfig::default()
            };
            b.iter(|| {
                let store = InMemoryStore::new();
                let writer = CheckpointWriter::new(&store, "bench");
                black_box(
                    writer
                        .write(
                            &snapshot,
                            CheckpointId(0),
                            None,
                            QuantScheme::Asymmetric { bits: 4 },
                            &cfg,
                        )
                        .unwrap(),
                )
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = snapshot_take, writer_pipeline
}
criterion_main!(benches);
