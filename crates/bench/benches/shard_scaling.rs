//! Shard-scaling bench: the same snapshot written over 1/2/4/8 writer
//! hosts.
//!
//! Two quantities matter and the bench reports both:
//!
//! * **wall time** (criterion's measurement) — the bookkeeping cost of the
//!   sharded pipeline; and
//! * **simulated durability time** (printed once per host count) — the
//!   §4.3 write latency, which drops near-linearly with hosts because each
//!   host streams its shard over its own uplink and the dense object's
//!   parts are dealt over all of them. Wherever the bench runs (CI's smoke
//!   step included) it asserts that `n` hosts are durable within 1.3× of
//!   the one-host time ÷ `n`: the write-side mirror of `restore_scaling`'s
//!   guard.

use cnr_bench::trajectory::full_snapshot;
use cnr_cluster::SimClock;
use cnr_core::config::CheckpointConfig;
use cnr_core::manifest::CheckpointId;
use cnr_core::write::CheckpointWriter;
use cnr_core::TrainingSnapshot;
use cnr_model::{DlrmModel, ModelConfig};
use cnr_quant::QuantScheme;
use cnr_storage::{RemoteConfig, SimulatedRemoteStore};
use cnr_trainer::{Trainer, TrainerConfig};
use cnr_workload::{DatasetSpec, SyntheticDataset};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

/// A trainer over a tiny model after three batches.
fn trained() -> Trainer {
    let spec = DatasetSpec::tiny(4242);
    let ds = SyntheticDataset::new(spec.clone());
    let model = DlrmModel::new(ModelConfig::for_dataset(&spec, 16));
    let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
    for i in 0..3 {
        trainer.train_one(&ds.batch(i));
    }
    trainer
}

fn write_once(snap: &TrainingSnapshot, hosts: usize) -> Duration {
    let store = SimulatedRemoteStore::new(
        RemoteConfig {
            bandwidth_bytes_per_sec: 4.0 * 1024.0 * 1024.0,
            base_latency: Duration::from_micros(200),
            replication: 1,
            channels: hosts as u32,
        },
        SimClock::new(),
    );
    let writer = CheckpointWriter::new(&store, "bench");
    let cfg = CheckpointConfig {
        chunk_rows: 128,
        writer_hosts: hosts,
        ..CheckpointConfig::default()
    };
    writer
        .write(snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
        .expect("write")
        .completed_at
}

fn shard_scaling(c: &mut Criterion) {
    let mut trainer = trained();
    let snap = full_snapshot(&mut trainer);
    let mut group = c.benchmark_group("shard_write");
    group.sample_size(10);
    let mut durable = Vec::new();
    for hosts in [1usize, 2, 4, 8] {
        let t = write_once(&snap, hosts);
        println!("# shard_write/{hosts}: simulated durability {t:?}");
        durable.push((hosts, t));
        group.bench_with_input(BenchmarkId::from_parameter(hosts), &hosts, |b, &hosts| {
            b.iter(|| write_once(&snap, hosts));
        });
    }
    group.finish();
    let one = durable[0].1.as_secs_f64();
    for &(hosts, t) in &durable[1..] {
        let ideal = one / hosts as f64;
        assert!(
            t.as_secs_f64() <= 1.3 * ideal,
            "{hosts} writer hosts must be durable within 1.3x of 1/{hosts} the \
             one-host time ({:.2}x): {durable:?}",
            t.as_secs_f64() / ideal
        );
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = shard_scaling
}
criterion_main!(benches);
