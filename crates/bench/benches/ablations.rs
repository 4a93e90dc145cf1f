//! Ablation benches for the design choices called out in DESIGN.md §5:
//! chunk size in the writer pipeline and tracking granularity.

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
use cnr_tracking::AtomicBitVec;
use cnr_trainer::{Trainer, TrainerConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

/// Ablation 1: chunk size — pipelining granularity vs per-chunk overhead.
fn chunk_size(c: &mut Criterion) {
    let (ds, model) = trained_model(1, 50, 16);
    let model_cfg = model.config().clone();
    let plan = ShardPlan::balanced(&model_cfg, 1, 4);
    let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
    for i in 50..55 {
        trainer.train_one(&ds.batch(i));
    }
    let snapshot = SnapshotTaker::new(plan).take(
        &mut trainer,
        ReaderState::at(55),
        Decision {
            kind: CheckpointKind::Full,
            tracker: TrackerAction::SnapshotKeep,
        },
        &CheckpointConfig::default(),
    );
    let mut group = c.benchmark_group("ablation_chunk_rows");
    group.sample_size(10);
    for chunk_rows in [256usize, 4096, 65536] {
        group.bench_with_input(
            BenchmarkId::from_parameter(chunk_rows),
            &chunk_rows,
            |b, &chunk_rows| {
                let cfg = CheckpointConfig {
                    chunk_rows,
                    quantize_workers: 2,
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
            },
        );
    }
    group.finish();
}

/// Ablation 2: tracking granularity — one bit per row vs one bit per group
/// of rows (smaller bit-vector, coarser deltas).
fn tracking_granularity(c: &mut Criterion) {
    let rows = 1_000_000usize;
    let mut group = c.benchmark_group("ablation_tracking_granularity");
    for group_size in [1usize, 8, 64] {
        let bv = AtomicBitVec::new(rows / group_size);
        group.bench_with_input(
            BenchmarkId::from_parameter(group_size),
            &group_size,
            |b, &gs| {
                let mut i = 0usize;
                b.iter(|| {
                    bv.set(((i * 7919) % rows) / gs);
                    i += 1;
                })
            },
        );
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = chunk_size, tracking_granularity
}
criterion_main!(benches);
