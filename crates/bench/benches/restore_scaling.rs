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
//! * **a lazy restore with a WAL tail** (`lazy/wal_tail/{land,defer}`) —
//!   a 5%-hot lazy restore of the lifecycle workload's geometry (four
//!   tables of 200k, 100k, 50k and 20k rows, dim 32, batch 128) with 25
//!   logged iterations past the checkpoint: the log placed by the restore
//!   as the chain's newest level (what the engine runs), or the restore
//!   without it, then the log applied in order with the rows a cold chunk
//!   owes deferred (what the lifecycle benchmark's WAL probe still runs).
//!   Both end bit-identical after the drain, which is asserted;
//! * **hot cutoff over ≈ 370k scores** (`planner/hot_cutoff/rows=370k`) —
//!   the planner's radix selection beside the copy-and-select it replaced,
//!   asserted to return the same bits;
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
use cnr_cluster::SimClock;
use cnr_core::config::CheckpointConfig;
use cnr_core::delta_log::DeltaRecord;
use cnr_core::manifest::{CheckpointId, CheckpointKind};
use cnr_core::policy::{Decision, TrackerAction};
use cnr_core::read::{restore_sharded_into, LazyRestore, RestoreOptions, RowHeat};
use cnr_core::ShardedRestore;
use cnr_core::snapshot::SnapshotTaker;
use cnr_core::write::CheckpointWriter;
use cnr_model::{DlrmModel, ModelConfig, ShardPlan};
use cnr_quant::QuantScheme;
use cnr_reader::ReaderState;
use cnr_storage::{wal, InMemoryStore, WalConfig, WalWriter};
use cnr_tracking::CoverageAnalyzer;
use cnr_trainer::{Trainer, TrainerConfig};
use cnr_workload::{DatasetSpec, SyntheticDataset, TableAccessSpec};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::Arc;
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
            false,
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

/// The lifecycle workload's geometry: four tables of R, R/2, R/4 and R/10
/// rows at R = 200k, dim 32, 128 samples a batch.
fn workload_spec() -> DatasetSpec {
    let table = |rows, hot, zipf| TableAccessSpec::new(rows, hot, zipf).with_active_fraction(0.55);
    DatasetSpec {
        seed: 7,
        batch_size: 128,
        dense_dim: 13,
        tables: vec![
            table(200_000, 1, 1.05),
            table(100_000, 4, 1.0),
            table(50_000, 2, 0.95),
            table(20_000, 1, 1.1),
        ],
        concept_seed: None,
    }
}

/// A full fp32 checkpoint of the workload's model after one batch, in
/// 4096-row chunks, and the log of the 25 iterations trained past it.
fn wal_tail_fixture() -> (ModelConfig, Arc<InMemoryStore>) {
    let spec = workload_spec();
    let dataset = SyntheticDataset::new(spec.clone());
    let model_cfg = ModelConfig::for_dataset(&spec, 32);
    let mut trainer = Trainer::new(
        DlrmModel::new(model_cfg.clone()),
        SimClock::new(),
        TrainerConfig::default(),
    );
    trainer.train_one(&dataset.batch(0));
    let config = CheckpointConfig {
        chunk_rows: 4096,
        ..CheckpointConfig::default()
    };
    let snap = SnapshotTaker::new(ShardPlan::balanced(&model_cfg, 1, 2)).take(
        &mut trainer,
        ReaderState::at(1),
        Decision {
            kind: CheckpointKind::Full,
            tracker: TrackerAction::SnapshotReset,
        },
        &config,
    );
    let store = Arc::new(InMemoryStore::new());
    CheckpointWriter::new(store.as_ref(), "bench")
        .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &config)
        .expect("write");
    let mut log = WalWriter::new(store.clone(), "bench", WalConfig);
    let mut model = trainer.model().clone();
    for i in 1..26u64 {
        let batch = dataset.batch(i);
        model.train_batch(&batch, |_, _| {});
        let record =
            DeltaRecord::capture(&model, &batch, &QuantScheme::Fp32, CheckpointId(0), i + 1);
        log.append(&record.encode()).expect("append");
    }
    (model_cfg, store)
}

/// A 5%-hot lazy restore of the fixture into `model`, dense layers
/// included, with the log placed as the chain's newest level (`with_log`,
/// what the engine runs) or not replayed.
fn lazy_restore(
    store: &InMemoryStore,
    model: &mut DlrmModel,
    heat: &RowHeat,
    with_log: bool,
) -> ShardedRestore {
    let options = RestoreOptions {
        lazy: true,
        hot_fraction: 0.05,
        ..RestoreOptions::default()
    };
    let config = model.config().clone();
    let restored = restore_sharded_into(
        store,
        "bench",
        CheckpointId(0),
        &config,
        &options,
        Duration::ZERO,
        None,
        Some(heat),
        model.table_views_mut(),
        with_log,
    )
    .expect("restore");
    restored.report.state.restore_dense(model);
    if let Some(log) = &restored.wal {
        log.tail.set_dense(model).expect("dense step");
    }
    restored
}

/// The replay loop the lifecycle benchmark's WAL probe runs: the log read,
/// each live record applied in order, the rows the tail still owes
/// deferred to it.
fn replay_deferring(store: &InMemoryStore, model: &mut DlrmModel, tail: &mut LazyRestore) {
    for record in &wal::replay(store, "bench").expect("log").records {
        let Ok(delta) = DeltaRecord::decode(&record.payload) else {
            break;
        };
        if delta.base != CheckpointId(0) || delta.iteration <= model.iteration() {
            continue;
        }
        let (_, deferred) = delta
            .apply_partial(model, |t, r| !tail.is_materialized(t, r))
            .expect("apply");
        for (t, r, values, acc) in deferred {
            tail.defer_delta(t, r, values, acc);
        }
    }
}

fn wal_tail_replay(c: &mut Criterion) {
    let (model_cfg, store) = wal_tail_fixture();
    let heat = RowHeat::zipf(&model_cfg.row_counts(), 1.0);

    // Both ways end where the other does, bit for bit, once drained.
    let mut landed = DlrmModel::new(model_cfg.clone());
    let restored = lazy_restore(&store, &mut landed, &heat, true);
    assert_eq!(restored.wal.expect("the log was read").tail.records().len(), 25);
    let mut tail = restored.lazy.expect("a lazy restore returns its tail");
    assert!(tail.pending_rows() > 0, "a cold tail behind the log");
    tail.drain(&mut landed).expect("drain");
    let mut deferred = DlrmModel::new(model_cfg.clone());
    let mut tail = lazy_restore(&store, &mut deferred, &heat, false).lazy.expect("tail");
    replay_deferring(&store, &mut deferred, &mut tail);
    tail.drain(&mut deferred).expect("drain");
    assert_eq!(deferred.iteration(), 26);
    assert_eq!(landed.state_hash(), deferred.state_hash(), "land and defer diverged");

    // Each iteration restores into the same model: the rows it writes are
    // the same every time.
    let mut group = c.benchmark_group("lazy/wal_tail");
    group.sample_size(10);
    group.bench_function("land", |b| {
        b.iter(|| lazy_restore(&store, &mut landed, &heat, true).wal.map(|log| log.rows_landed));
    });
    group.bench_function("defer", |b| {
        b.iter(|| {
            let mut tail = lazy_restore(&store, &mut deferred, &heat, false).lazy.expect("tail");
            replay_deferring(&store, &mut deferred, &mut tail);
            tail.pending_rows()
        });
    });
    group.finish();
}

/// The cutoff as the planner computed it before the radix selection:
/// copy every score, select the order statistic from the copy.
fn copy_and_select_cutoff(heat: &RowHeat, hot_fraction: f64) -> f32 {
    let mut all: Vec<f32> = heat.scores().iter().flatten().copied().collect();
    let k = (hot_fraction * all.len() as f64).ceil() as usize;
    *all.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a)).1
}

fn hot_cutoff(c: &mut Criterion) {
    // The workload's heat: its Zipf prior, boosted over a tracked window.
    let row_counts = ModelConfig::for_dataset(&workload_spec(), 32).row_counts();
    let mut heat = RowHeat::zipf(&row_counts, 1.025);
    let mut window = CoverageAnalyzer::new(&row_counts);
    for (t, &rows) in row_counts.iter().enumerate() {
        for row in (0..rows).step_by(11 + t) {
            window.observe(t, row);
        }
    }
    heat.boost_covered(&window, 1.0);
    let rows = heat.total_rows();
    assert!((369_000..=371_000).contains(&rows), "{rows} rows");
    assert_eq!(
        heat.hot_cutoff(0.05).to_bits(),
        copy_and_select_cutoff(&heat, 0.05).to_bits(),
        "the radix selection must return the oracle's bits"
    );
    let mut group = c.benchmark_group("planner/hot_cutoff");
    group.sample_size(10);
    group.bench_function("rows=370k", |b| b.iter(|| heat.hot_cutoff(0.05)));
    group.bench_function("rows=370k/copy_and_select", |b| {
        b.iter(|| copy_and_select_cutoff(&heat, 0.05))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = restore_scaling, decode_scaling, drain_scaling, wal_tail_replay, hot_cutoff
}
criterion_main!(benches);
