//! Storage backend micro-benchmarks.

use bytes::Bytes;
use cnr_cluster::SimClock;
use cnr_storage::{envelope, InMemoryStore, ObjectStore, RemoteConfig, SimulatedRemoteStore};
use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;

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

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = memory_put_get, remote_put, envelope_seal_open
}
criterion_main!(benches);
