//! Storage backend micro-benchmarks.

use bytes::Bytes;
use cnr_cluster::SimClock;
use cnr_core::delta_log::DeltaRecord;
use cnr_core::manifest::CheckpointId;
use cnr_model::{DlrmModel, ModelConfig};
use cnr_quant::QuantScheme;
use cnr_storage::wal::{self, WalConfig, WalWriter};
use cnr_storage::{envelope, InMemoryStore, ObjectStore, RemoteConfig, SimulatedRemoteStore};
use cnr_workload::{DatasetSpec, SyntheticDataset, TableAccessSpec};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

fn memory_put_get(c: &mut Criterion) {
    let store = InMemoryStore::new();
    let payload = Bytes::from(vec![0u8; 64 * 1024]);
    let mut group = c.benchmark_group("memory_store");
    group.throughput(Throughput::Bytes(64 * 1024));
    group.bench_function("put_64k", |b| {
        let mut i = 0u64;
        b.iter(|| {
            store
                .put(&format!("bench/{}", i % 128), payload.clone())
                .unwrap();
            i += 1;
        })
    });
    store.put("bench/get", payload).unwrap();
    group.bench_function("get_64k", |b| {
        b.iter(|| black_box(store.get("bench/get").unwrap()))
    });
    group.finish();
}

fn remote_put(c: &mut Criterion) {
    // Wall-clock cost of the *simulation bookkeeping* (transfers are
    // simulated-time, not wall-time).
    let store = SimulatedRemoteStore::new(RemoteConfig::default(), SimClock::new());
    let payload = Bytes::from(vec![0u8; 64 * 1024]);
    c.bench_function("remote_put_64k_bookkeeping", |b| {
        let mut i = 0u64;
        b.iter(|| {
            store
                .put(&format!("bench/{}", i % 128), payload.clone())
                .unwrap();
            i += 1;
        })
    });
}

/// The one checksum pass each stored byte takes on the way out and on
/// the way back: sealing a 1 MiB payload in place (what a chunk writer
/// does behind its reserved header) and verifying it.
fn envelope_seal_open(c: &mut Criterion) {
    const PAYLOAD: usize = 1 << 20;
    let mut object = vec![0u8; envelope::HEADER_LEN + PAYLOAD];
    for (i, b) in object[envelope::HEADER_LEN..].iter_mut().enumerate() {
        *b = (i * 151 + 43) as u8;
    }
    let mut group = c.benchmark_group("envelope");
    group.throughput(Throughput::Bytes(PAYLOAD as u64));
    group.bench_function("envelope_seal_1m", |b| {
        b.iter(|| envelope::seal_in_place(black_box(&mut object), 0))
    });
    group.bench_function("envelope_open_1m", |b| {
        b.iter(|| black_box(envelope::open(black_box(&object)).unwrap().len()))
    });
    group.finish();
}

/// One iteration's WAL record on the lifecycle benchmark's model shape —
/// four tables of R, R/2, R/4 and R/10 rows at R = 200k, dim 32, fp32,
/// batches of 128 — from model to stored segment, two ways: `fused`
/// captures it straight into the segment the sync puts
/// (`DeltaRecord::capture_into`); `capture_encode_append` builds the
/// record, encodes it and appends the encoding as body and MLP trailer
/// (`DeltaRecord::append_to`). Both leave the same bytes
/// in the store (asserted). Each iteration truncates the log again, so the
/// store holds one segment at a time.
fn wal_append_record(c: &mut Criterion) {
    const R: u64 = 200_000;
    let table = |rows, hot, zipf| TableAccessSpec::new(rows, hot, zipf).with_active_fraction(0.55);
    let spec = DatasetSpec {
        seed: 7,
        batch_size: 128,
        dense_dim: 13,
        tables: vec![
            table(R, 1, 1.05),
            table(R / 2, 4, 1.0),
            table(R / 4, 2, 0.95),
            table(R / 10, 1, 1.1),
        ],
        concept_seed: None,
    };
    let model = DlrmModel::new(ModelConfig::for_dataset(&spec, 32));
    let batch = SyntheticDataset::new(spec).batch(0);
    let (scheme, base) = (QuantScheme::Fp32, CheckpointId(0));
    let log = || {
        let store = Arc::new(InMemoryStore::new());
        (store.clone(), WalWriter::new(store, "bench", WalConfig))
    };
    let (fused_store, mut fused) = log();
    let (_, made_durable) =
        DeltaRecord::capture_into(&model, &batch, &scheme, base, 1, &mut fused).unwrap();
    let (oracle_store, mut oracle) = log();
    let record = DeltaRecord::capture(&model, &batch, &scheme, base, 1);
    record.append_to(&mut oracle).unwrap();
    let key = wal::segment_key("bench", 0);
    assert_eq!(
        fused_store.get(&key).unwrap(),
        oracle_store.get(&key).unwrap(),
        "both paths store the same segment"
    );

    let mut group = c.benchmark_group("wal/append_record");
    group.throughput(Throughput::Bytes(made_durable));
    group.bench_function("fused", |b| {
        b.iter(|| {
            DeltaRecord::capture_into(&model, &batch, &scheme, base, 1, &mut fused).unwrap();
            fused.truncate().unwrap()
        })
    });
    group.bench_function("capture_encode_append", |b| {
        b.iter(|| {
            let record = DeltaRecord::capture(&model, &batch, &scheme, base, 1);
            record.append_to(&mut oracle).unwrap();
            oracle.truncate().unwrap()
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = memory_put_get, remote_put, envelope_seal_open, wal_append_record
}
criterion_main!(benches);
