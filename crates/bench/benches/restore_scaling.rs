//! Restore-scaling bench: the same checkpoint restored over 1/2/4/8
//! reader hosts, plus the serial-vs-threaded decode comparison.
//!
//! Three quantities matter and the bench reports all of them:
//!
//! * **wall time** (criterion's measurement) — the bookkeeping cost of the
//!   sharded recovery pipeline;
//! * **simulated ready-to-train time** (printed once per host count, and
//!   asserted: multi-host must beat single-host) — the §2/§5 downtime the
//!   paper's availability model cares about, which drops near-linearly
//!   with hosts because each host fetches its share over its own downlink;
//! * **chunk placement wall-clock per scheme** (`decode/place_chunk_*`) —
//!   one full checkpoint in 4096-row chunks restored in place on one
//!   decode worker: the de-quantization kernel as a restore runs it;
//! * **lazy drain wall-clock, 1 vs 2 workers** (`lazy/drain_workers_*`)
//!   — a lazy restore that held back every chunk, drained: the cold tail
//!   placed on the restore's decode workers (each iteration drains a fresh
//!   clone of the tail, stamps included);
//! * **decode wall-clock, 1 vs 4 worker threads** — the CPU half of
//!   time-to-resume. The ratio is *reported*, not asserted: whether four
//!   threads beat one is a property of the machine (core count, CPU
//!   quota, co-tenants), so a hard wall-clock assertion would fail
//!   deterministically on single-core hosts and flakily on shared CI
//!   runners. The checked-in `BENCH_restore.json` records both values
//!   alongside the emitting machine's core count, so the trajectory stays
//!   interpretable; the only assertion here is a generous pathology guard
//!   against convoying (threaded decode catastrophically slower than
//!   serial, e.g. a lock held across the decode stage).
//!
//! The measurement functions live in `cnr_bench::trajectory`, shared with
//! the `cnr_bench` binary that writes the checked-in `BENCH_restore.json`.

use cnr_bench::trajectory::{
    chunk_store, decode_snapshot, decode_store, decode_wall_clock, place_wall_clock,
    restore_snapshot, simulated_ready_to_train,
};
use cnr_core::manifest::CheckpointId;
use cnr_core::read::{restore_sharded_into, RestoreOptions};
use cnr_model::DlrmModel;
use cnr_quant::QuantScheme;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::time::Duration;

fn restore_scaling(c: &mut Criterion) {
    let (model_cfg, snap) = restore_snapshot();
    let mut group = c.benchmark_group("restore");
    group.sample_size(10);
    let mut ready = Vec::new();
    for hosts in [1usize, 2, 4, 8] {
        let t = simulated_ready_to_train(&model_cfg, &snap, hosts);
        println!("# restore/{hosts}: simulated ready-to-train {t:?}");
        ready.push((hosts, t));
        group.bench_with_input(BenchmarkId::from_parameter(hosts), &hosts, |b, &hosts| {
            b.iter(|| simulated_ready_to_train(&model_cfg, &snap, hosts));
        });
    }
    group.finish();
    // The acceptance property, enforced wherever the bench runs (including
    // CI's smoke step): multi-host restore beats single-host.
    let one = ready[0].1;
    let eight = ready[3].1;
    assert!(
        eight.as_secs_f64() < 0.5 * one.as_secs_f64(),
        "8-host restore must beat 1-host: {ready:?}"
    );
}

fn decode_scaling(c: &mut Criterion) {
    // `cargo test` runs this in smoke mode (no `--bench` in args): use the
    // quick workload and fewer rounds so the smoke pass stays cheap.
    let full = std::env::args().any(|a| a == "--bench");
    let (model_cfg, snap) = decode_snapshot(!full);
    let store = decode_store(&snap);
    let rounds = if full { 5 } else { 2 };
    let serial = decode_wall_clock(&store, &model_cfg, 1, rounds);
    let threaded = decode_wall_clock(&store, &model_cfg, 4, rounds);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ratio = threaded.as_secs_f64() / serial.as_secs_f64().max(f64::EPSILON);
    println!(
        "# decode wall-clock on {cores} core(s): 1 worker {serial:?}, \
         4 workers {threaded:?} (threaded/serial = {ratio:.3})"
    );
    // Pathology guard, not a speedup claim: wall-clock orderings are
    // machine-dependent (on a 1-core host threading can only lose by its
    // overhead), but threaded decode running *several times* slower than
    // serial means the workers convoyed — e.g. the per-host issuance lock
    // held across the decode stage. The additive slack absorbs thread
    // spawn/join overhead on the smoke-mode workload.
    assert!(
        threaded < serial * 3 + Duration::from_millis(50),
        "threaded decode convoyed: 1 worker {serial:?}, 4 workers {threaded:?}"
    );
    let mut group = c.benchmark_group("decode");
    group.sample_size(10);
    for (name, scheme) in [
        ("place_chunk_fp32", QuantScheme::Fp32),
        ("place_chunk_asym4", QuantScheme::Asymmetric { bits: 4 }),
    ] {
        let store = chunk_store(&snap, scheme);
        group.bench_function(name, |b| {
            b.iter(|| place_wall_clock(&store, &model_cfg, 1));
        });
    }
    for workers in [1usize, 4] {
        group.bench_with_input(
            BenchmarkId::from_parameter(workers),
            &workers,
            |b, &workers| {
                b.iter(|| decode_wall_clock(&store, &model_cfg, workers, 1));
            },
        );
    }
    group.finish();
}

fn drain_scaling(c: &mut Criterion) {
    let full = std::env::args().any(|a| a == "--bench");
    let (model_cfg, snap) = decode_snapshot(!full);
    // fp32 in 4096-row chunks: the lazy lifecycle workload's checkpoints.
    let store = chunk_store(&snap, QuantScheme::Fp32);
    let mut group = c.benchmark_group("lazy");
    group.sample_size(10);
    for workers in [1usize, 2] {
        let mut model = DlrmModel::new(model_cfg.clone());
        let options = RestoreOptions {
            decode_workers: workers,
            lazy: true,
            hot_fraction: 0.0,
            ..RestoreOptions::default()
        };
        let tail = restore_sharded_into(
            &store,
            "bench",
            CheckpointId(0),
            &model_cfg,
            &options,
            Duration::ZERO,
            None,
            None,
            model.table_views_mut(),
        )
        .expect("restore")
        .lazy
        .expect("a lazy restore returns its tail");
        assert!(tail.pending_rows() > 0, "every chunk is held back");
        group.bench_function(format!("drain_workers_{workers}"), |b| {
            b.iter(|| tail.clone().drain(&mut model).expect("drain"));
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = restore_scaling, decode_scaling, drain_scaling
}
criterion_main!(benches);
