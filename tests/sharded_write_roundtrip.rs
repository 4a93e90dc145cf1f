//! Sharded write path invariants, property-tested end to end: for random
//! models and configurations, a sharded write followed by a merged restore
//! is bit-identical to the single-shard path — across 1/2/4/7 writer hosts,
//! including row counts that don't divide evenly.
//!
//! A snapshot borrows the trainer's tables, and the writer reads the rows
//! its delta names there by row index.
//! `gathered_snapshot_stores_the_live_models_bytes` is the property that
//! guards that: whatever the mask, the host count, a host kill or the
//! scheme, every stored chunk is byte for byte the row-object encoding of
//! the *live model's* rows at `take` time, the manifest is the one computed
//! from the live model and its configuration alone, and the chain restores
//! to the reference computed row by row.
//!
//! `write_timing_does_not_depend_on_put_delays_or_the_quantize_workers`
//! stalls the write's puts for seeded stretches of wall time
//! (`Fault::delay`) and checks every simulated output against the
//! undelayed one-worker write's.

use check_n_run::cluster::{HostKill, SimClock};
use check_n_run::core::config::CheckpointConfig;
use check_n_run::core::manifest::{
    CheckpointId, CheckpointKind, ChunkMeta, ChunkPayload, DenseLayers, DenseMeta, Manifest,
    TableMeta,
};
use check_n_run::core::policy::{Decision, TrackerAction};
use check_n_run::core::restore::restore;
use check_n_run::core::snapshot::SnapshotTaker;
use check_n_run::core::write::{shard_range, CheckpointWriter};
use check_n_run::core::TrainingSnapshot;
use check_n_run::model::{DlrmModel, ModelConfig, ModelState, OptimizerConfig, ShardPlan, TableState};
use check_n_run::quant::QuantScheme;
use check_n_run::reader::ReaderState;
use check_n_run::storage::{
    FailureMode, Fault, FlakyStore, InMemoryStore, ObjectStore, Op, RemoteConfig,
    SimulatedRemoteStore,
};
use check_n_run::tracking::TrackerSnapshot;
use check_n_run::trainer::{Trainer, TrainerConfig};
use check_n_run::workload::{DatasetSpec, SyntheticDataset, TableAccessSpec};
use proptest::prelude::*;
use std::time::Duration;

/// A dataset over two tables of `rows_a` and `rows_b` rows.
fn two_tables(seed: u64, rows_a: usize, rows_b: usize) -> DatasetSpec {
    DatasetSpec {
        seed,
        batch_size: 16,
        dense_dim: 4,
        tables: vec![
            TableAccessSpec::new(rows_a as u64, 2, 1.0),
            TableAccessSpec::new(rows_b as u64, 1, 0.9),
        ],
        concept_seed: None,
    }
}

/// Trains a small random model.
fn trained(
    seed: u64,
    rows_a: usize,
    rows_b: usize,
    dim: usize,
    batches: u64,
) -> (ModelConfig, Trainer) {
    let spec = two_tables(seed, rows_a, rows_b);
    let ds = SyntheticDataset::new(spec.clone());
    let model_cfg = ModelConfig::for_dataset(&spec, dim);
    let model = DlrmModel::new(model_cfg.clone());
    let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
    for i in 0..batches {
        trainer.train_one(&ds.batch(i));
    }
    (model_cfg, trainer)
}

/// Snapshots `trainer` as `kind` with `tracker`.
fn take(trainer: &mut Trainer, kind: CheckpointKind, tracker: TrackerAction) -> TrainingSnapshot<'_> {
    let plan = ShardPlan::balanced(trainer.model().config(), 1, 2);
    let batches = trainer.model().iteration();
    SnapshotTaker::new(plan).take(
        trainer,
        ReaderState::at(batches),
        Decision { kind, tracker },
        &CheckpointConfig::default(),
    )
}

/// Writes a snapshot of `trainer` as `kind` over `hosts` writer hosts and
/// restores it. An incremental first gets a full baseline of the same
/// instant — taken leaving the tracker alone — as a fixed single-shard
/// full checkpoint (identical across comparisons) so its chain restores;
/// the shard count under test applies to the newest checkpoint.
fn roundtrip(
    model_cfg: &ModelConfig,
    trainer: &mut Trainer,
    kind: CheckpointKind,
    hosts: usize,
    chunk_rows: usize,
) -> (ModelState, Vec<CheckpointId>) {
    let store = InMemoryStore::new();
    let writer = CheckpointWriter::new(&store, "job");
    let cfg = CheckpointConfig {
        chunk_rows,
        writer_hosts: hosts,
        ..CheckpointConfig::default()
    };
    let (id, base, tracker) = if kind == CheckpointKind::Incremental {
        let base_cfg = CheckpointConfig {
            chunk_rows,
            writer_hosts: 1,
            ..CheckpointConfig::default()
        };
        let baseline = take(trainer, CheckpointKind::Full, TrackerAction::SnapshotKeep);
        writer
            .write(&baseline, CheckpointId(0), None, QuantScheme::Fp32, &base_cfg)
            .expect("baseline write");
        (CheckpointId(1), Some(CheckpointId(0)), TrackerAction::SnapshotKeep)
    } else {
        (CheckpointId(0), None, TrackerAction::SnapshotReset)
    };
    let snap = take(trainer, kind, tracker);
    let rec = writer
        .write(&snap, id, base, QuantScheme::Fp32, &cfg)
        .expect("write");
    // The chunks account for every row of the delta.
    let chunk_rows_total: u64 = rec.manifest.chunks.iter().map(|c| c.rows as u64).sum();
    assert_eq!(chunk_rows_total, snap.delta.modified_rows() as u64);
    let report = restore(&store, "job", id, model_cfg).expect("restore");
    (report.state, report.chain)
}

proptest! {
    /// Sharded write → merged restore equals the single-shard path bit for
    /// bit, for random geometries (including non-divisible row counts),
    /// chunk sizes, and 1/2/4/7 hosts.
    #[test]
    fn sharded_roundtrip_is_bit_identical(
        seed in any::<u64>(),
        rows_a in 8usize..300,
        rows_b in 1usize..120,
        dim_pow in 0u32..4,
        batches in 1u64..4,
        chunk_rows in 1usize..80,
        full in 0u8..2,
    ) {
        let dim = 1usize << dim_pow;
        let kind = if full == 1 { CheckpointKind::Full } else { CheckpointKind::Incremental };
        let (model_cfg, mut trainer) = trained(seed, rows_a, rows_b, dim, batches);
        let live = ModelState::extract(trainer.model());
        let (single, chain_single) = roundtrip(&model_cfg, &mut trainer, kind, 1, chunk_rows);
        // Full = one manifest; incremental adds its baseline.
        prop_assert_eq!(chain_single.len(), if kind == CheckpointKind::Full { 1 } else { 2 });
        if kind == CheckpointKind::Full {
            // FP32 full restores are bit-exact against the live model.
            prop_assert_eq!(&single, &live);
        }
        for hosts in [2usize, 4, 7] {
            let (sharded, chain) = roundtrip(&model_cfg, &mut trainer, kind, hosts, chunk_rows);
            prop_assert_eq!(&sharded, &single, "hosts={}", hosts);
            prop_assert_eq!(&chain, &chain_single, "hosts={}", hosts);
        }
    }
}

/// The schemes `shard_writer`'s unit tests encode with.
fn schemes() -> Vec<QuantScheme> {
    vec![
        QuantScheme::Fp32,
        QuantScheme::Fp16,
        QuantScheme::Symmetric { bits: 8 },
        QuantScheme::Asymmetric { bits: 4 },
        QuantScheme::Asymmetric { bits: 3 },
        QuantScheme::recommended_for_bits(2),
        QuantScheme::recommended_for_bits(4),
    ]
}

/// A deterministic stream of integers.
fn stream(seed: u64) -> impl FnMut() -> usize {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 33) as usize
    }
}

/// The tracked rows of a `rows`-row table, by `shape`: none, all,
/// alternating, one long run across every shard boundary of 2, 4 and 7
/// hosts (and, being longer than a chunk, across chunk boundaries), random
/// runs about a chunk long, and scattered single rows.
fn tracked_rows(shape: u8, rows: usize, chunk_rows: usize, seed: u64) -> Vec<usize> {
    let mut next = stream(seed);
    match shape {
        0 => Vec::new(),
        1 => (0..rows).collect(),
        2 => (0..rows).step_by(2).collect(),
        3 => (rows / 8..rows - rows / 8).collect(),
        4 => {
            let mut out = Vec::new();
            let mut at = next() % (chunk_rows + 1);
            while at < rows {
                let len = 1 + next() % (2 * chunk_rows);
                out.extend(at..(at + len).min(rows));
                at += len + 1 + next() % (chunk_rows + 1);
            }
            out
        }
        _ => (0..rows).filter(|_| next().is_multiple_of(5)).collect(),
    }
}

/// The chunk a writer must store for `indices` of table `t`: the
/// row-object encoding of the live model's rows.
fn chunk_from_live(
    live: &ModelState,
    dim: usize,
    t: usize,
    indices: &[u32],
    scheme: &QuantScheme,
) -> ChunkPayload {
    let table = &live.tables[t];
    ChunkPayload {
        table: t as u16,
        row_indices: indices.to_vec(),
        optimizer_state: table
            .adagrad
            .as_ref()
            .map(|acc| indices.iter().map(|&r| acc[r as usize]).collect()),
        rows: indices
            .iter()
            .map(|&r| scheme.quantize_row(&table.data[r as usize * dim..(r as usize + 1) * dim]))
            .collect(),
    }
}

/// What a restore of `live`, stored whole under `scheme`, reads back.
fn through_scheme(live: &ModelState, dim: usize, scheme: &QuantScheme) -> ModelState {
    let mut out = live.clone();
    for table in &mut out.tables {
        for row in table.data.chunks_mut(dim) {
            let stored = scheme.quantize_row(row).dequantize();
            row.copy_from_slice(&stored);
        }
    }
    out
}

proptest! {
    /// Read by row index from the borrowed tables ≡ a whole-model copy: a
    /// baseline, then every row of the model changes, then an incremental
    /// over an arbitrary mask.
    #[test]
    fn gathered_snapshot_stores_the_live_models_bytes(
        seed in any::<u64>(),
        rows_a in 8usize..300,
        rows_b in 1usize..120,
        dim_pow in 0u32..4,
        chunk_rows in 1usize..80,
        shape_a in 0u8..6,
        shape_b in 0u8..6,
        with_acc in any::<bool>(),
        kill_host in 0u16..7,
        kill_after in 0u32..4,
    ) {
        let dim = 1usize << dim_pow;
        let spec = two_tables(seed, rows_a, rows_b);
        let ds = SyntheticDataset::new(spec.clone());
        let mut model_cfg = ModelConfig::for_dataset(&spec, dim);
        if with_acc {
            model_cfg.optimizer = OptimizerConfig::RowWiseAdagrad { lr: 0.05, eps: 1e-8 };
        }
        let taker = SnapshotTaker::new(ShardPlan::balanced(&model_cfg, 1, 2));
        let mut trainer = Trainer::new(
            DlrmModel::new(model_cfg.clone()),
            SimClock::new(),
            TrainerConfig::default(),
        );
        let write_cfg = CheckpointConfig::default();
        trainer.train_one(&ds.batch(0));
        let old = ModelState::extract(trainer.model());
        let baseline = taker.take(
            &mut trainer,
            ReaderState::at(1),
            Decision { kind: CheckpointKind::Full, tracker: TrackerAction::SnapshotReset },
            &write_cfg,
        );
        prop_assert!(baseline.tables == old.tables.iter().map(TableState::view).collect::<Vec<_>>());
        // The baseline under every scheme, each in a store of its own.
        let stores: Vec<InMemoryStore> = schemes()
            .into_iter()
            .map(|scheme| {
                let store = InMemoryStore::new();
                CheckpointWriter::new(&store, "job")
                    .write(&baseline, CheckpointId(0), None, scheme, &CheckpointConfig {
                        chunk_rows,
                        ..CheckpointConfig::default()
                    })
                    .expect("baseline write");
                store
            })
            .collect();

        // Every row moves, tracked or not: a row the incremental must not
        // carry shows in the restore if it does.
        trainer.train_one(&ds.batch(1));
        for table in trainer.model_mut().tables_mut() {
            for (i, v) in table.data_mut().iter_mut().enumerate() {
                *v += 0.01 * ((i % 7) as f32 - 3.5);
            }
            if let Some(acc) = table.adagrad_mut() {
                acc.iter_mut().enumerate().for_each(|(i, a)| *a += 1.0 + (i % 3) as f32);
            }
        }
        let mut mask = TrackerSnapshot::empty(&model_cfg.row_counts());
        for (t, (shape, rows)) in [(shape_a, rows_a), (shape_b, rows_b)].into_iter().enumerate() {
            for row in tracked_rows(shape, rows, chunk_rows, seed ^ t as u64) {
                mask.tables[t].set(row);
            }
        }
        trainer.tracker().reset();
        for (t, table) in mask.tables.iter().enumerate() {
            trainer.tracker().mark_rows(t, table.iter_ones());
        }
        let live = ModelState::extract(trainer.model());
        let snap = taker.take(
            &mut trainer,
            ReaderState::at(2),
            Decision { kind: CheckpointKind::Incremental, tracker: TrackerAction::SnapshotReset },
            &write_cfg,
        );
        prop_assert_eq!(&snap.delta, &mask);

        for (scheme, store) in schemes().into_iter().zip(&stores) {
            let writer = CheckpointWriter::new(store, "job");

            // The reference restore, row by row: the baseline's stored
            // values, overwritten where — and only where — the mask says.
            let (was, now) = (through_scheme(&old, dim, &scheme), through_scheme(&live, dim, &scheme));
            let mut want = was;
            for (t, table) in want.tables.iter_mut().enumerate() {
                for row in mask.tables[t].iter_ones() {
                    table.data[row * dim..(row + 1) * dim]
                        .copy_from_slice(&now.tables[t].data[row * dim..(row + 1) * dim]);
                    if let Some(acc) = &mut table.adagrad {
                        acc[row] = now.tables[t].adagrad.as_ref().unwrap()[row];
                    }
                }
            }
            (want.bottom, want.top, want.iteration) = (now.bottom, now.top, now.iteration);

            let mut next_id = 1u64;
            for hosts in [1usize, 2, 4, 7] {
                let cfg = CheckpointConfig { chunk_rows, writer_hosts: hosts, ..CheckpointConfig::default() };
                // The plan, from the mask alone: per table, per host range,
                // the tracked rows in chunks of `chunk_rows`.
                let mut planned: Vec<(u16, u32, usize, Vec<u32>)> = Vec::new();
                let mut seqs = vec![0u32; hosts];
                for (t, table) in mask.tables.iter().enumerate() {
                    for (h, seq) in seqs.iter_mut().enumerate() {
                        let range = shard_range(table.len(), hosts, h);
                        let owned: Vec<u32> =
                            table.iter_ones().filter(|r| range.contains(r)).map(|r| r as u32).collect();
                        for run in owned.chunks(chunk_rows) {
                            planned.push((h as u16, *seq, t, run.to_vec()));
                            *seq += 1;
                        }
                    }
                }
                // A lone host has no survivor to take its rows.
                let killing = (hosts > 1).then_some(HostKill {
                    host: kill_host % hosts as u16,
                    after_chunks: kill_after,
                });
                for kill in std::iter::once(None).chain(killing.map(Some)) {
                    let id = CheckpointId(next_id);
                    next_id += 1;
                    let what = format!("{scheme}, hosts={hosts}, kill={kill:?}");
                    let rec = writer
                        .write_overlapping(&snap, id, Some(CheckpointId(0)), scheme, &cfg, kill, Duration::ZERO)
                        .expect("write");

                    // Every stored chunk is the live model's rows, encoded.
                    let mut stored_runs = Vec::new();
                    for c in &rec.manifest.chunks {
                        let bytes = store.get(&c.key).expect("chunk object");
                        let chunk = ChunkPayload::decode(&bytes).expect("chunk decodes");
                        let from_live = chunk_from_live(&live, dim, chunk.table as usize, &chunk.row_indices, &scheme);
                        prop_assert!(bytes[..] == from_live.encode_enveloped()[..], "{}: {}", what, c.key);
                        stored_runs.push((chunk.table as usize, chunk.row_indices));
                    }
                    // Re-sharding moves planned runs whole; nothing else changes them.
                    let mut planned_runs: Vec<_> = planned.iter().map(|(_, _, t, run)| (*t, run.clone())).collect();
                    planned_runs.sort();
                    stored_runs.sort();
                    prop_assert_eq!(&stored_runs, &planned_runs, "{}", what);

                    // The dense object holds the live model's MLPs.
                    let want_dense = DenseLayers {
                        id,
                        iteration: live.iteration,
                        bottom: live.bottom.clone(),
                        top: live.top.clone(),
                    };
                    let dense_key = Manifest::dense_key("job", id);
                    let dense_object = store.get(&dense_key).expect("dense object");
                    prop_assert!(dense_object[..] == want_dense.encode_enveloped()[..], "{}", what);

                    // The manifest, from the live model and its configuration.
                    let mut want_manifest = Manifest {
                        id,
                        kind: CheckpointKind::Incremental,
                        base: Some(CheckpointId(0)),
                        iteration: live.iteration,
                        reader_state: ReaderState::at(2),
                        tables: TableMeta::for_model(&model_cfg),
                        dense: DenseMeta {
                            key: dense_key,
                            bytes: dense_object.len() as u64,
                            bottom_params: live.bottom.len() as u32,
                            top_params: live.top.len() as u32,
                        },
                        chunks: rec.manifest.chunks.clone(),
                        payload_bytes: rec.manifest.chunks.iter().map(|c| c.bytes).sum(),
                    };
                    if rec.killed_hosts.is_empty() {
                        want_manifest.chunks = planned
                            .iter()
                            .map(|(h, seq, t, run)| {
                                let bytes = chunk_from_live(&live, dim, *t, run, &scheme).encode_enveloped().len();
                                ChunkMeta {
                                    key: Manifest::chunk_key("job", id, *h, *seq),
                                    rows: run.len() as u32,
                                    bytes: bytes as u64,
                                    parts: bytes.div_ceil(cfg.part_bytes).max(1) as u32,
                                    table: *t as u16,
                                    first_row: run[0],
                                    last_row: *run.last().unwrap(),
                                }
                            })
                            .collect();
                        want_manifest.chunks.sort_by(|a, b| a.key.cmp(&b.key));
                        want_manifest.payload_bytes = want_manifest.chunks.iter().map(|c| c.bytes).sum();
                    }
                    prop_assert_eq!(&rec.manifest, &want_manifest, "{}", what);
                    let stored = Manifest::decode(&store.get(&rec.manifest_key).expect("manifest object"));
                    prop_assert_eq!(&stored.expect("manifest decodes"), &want_manifest, "{}", what);
                    let dense = DenseLayers::decode(&dense_object, &want_manifest).expect("dense decodes");
                    prop_assert_eq!(&dense, &want_dense, "{}", what);

                    let restored = restore(store, "job", id, &model_cfg).expect("restore");
                    prop_assert!(restored.state == want, "{}: restore differs from the reference", what);
                    prop_assert_eq!(&restored.incremental_rows, &mask, "{}", what);
                }
            }
        }
    }
}

/// A remote of one 2 MiB/s uplink per writer host, doubly replicated.
fn remote(hosts: usize) -> SimulatedRemoteStore {
    let config = RemoteConfig {
        bandwidth_bytes_per_sec: 2.0 * 1024.0 * 1024.0,
        base_latency: Duration::from_micros(100),
        replication: 2,
        channels: hosts as u32,
    };
    SimulatedRemoteStore::new(config, SimClock::new())
}

/// The headline acceptance property at the facade level: with one uplink
/// per writer host, an 8-shard write of the same snapshot reaches
/// durability in measurably less simulated time than a single shard, and
/// restores identically.
#[test]
fn eight_shards_reach_durability_sooner_and_restore_identically() {
    let (model_cfg, mut trainer) = trained(7, 2000, 900, 16, 3);
    let live = ModelState::extract(trainer.model());
    let snap = take(&mut trainer, CheckpointKind::Full, TrackerAction::SnapshotReset);
    let write = |hosts: usize| {
        let store = remote(hosts);
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig {
            chunk_rows: 128,
            writer_hosts: hosts,
            ..CheckpointConfig::default()
        };
        let rec = writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
            .expect("write");
        let state = restore(&store, "job", CheckpointId(0), &model_cfg)
            .expect("restore")
            .state;
        (rec.completed_at, state)
    };
    let (t1, s1) = write(1);
    let (t8, s8) = write(8);
    assert_eq!(s1, s8, "sharding must not change the restored state");
    assert_eq!(s1, live, "fp32 restore is bit-exact");
    assert!(
        t8.as_secs_f64() < 0.35 * t1.as_secs_f64(),
        "8 uplinks should approach 8x faster durability: 1-shard {t1:?}, 8-shard {t8:?}"
    );
}

/// Simulated write timing does not follow thread timing: a checkpoint
/// written at 1 and 4 writer hosts with 1, 2 and 4 quantize workers, under
/// seeded wall-clock delays on its puts, records the completion, write
/// latency, parts, stored bytes, manifest and simulated store busy time of
/// the undelayed one-worker write, and every part rides the same uplink
/// and lands at the same instant — also where workers share a host: a
/// host's chunks take its uplink in its list order, whichever worker
/// quantized them first.
#[test]
fn write_timing_does_not_depend_on_put_delays_or_the_quantize_workers() {
    let (_, mut trainer) = trained(7, 2000, 900, 16, 3);
    let snap = take(&mut trainer, CheckpointKind::Full, TrackerAction::SnapshotReset);
    for hosts in [1usize, 4] {
        let write = |workers: usize, seed: Option<u64>| {
            let delay = |seed| {
                Fault::delay(Op::Put, Duration::from_millis(3), FailureMode::Every(2)).seeded(seed)
            };
            let store = FlakyStore::new(remote(hosts), seed.map(delay));
            let cfg = CheckpointConfig {
                chunk_rows: 128,
                writer_hosts: hosts,
                quantize_workers: workers,
                part_bytes: 4096,
                ..CheckpointConfig::default()
            };
            let rec = CheckpointWriter::new(&store, "job")
                .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
                .expect("write");
            assert!(seed.is_none() || store.injected(0) > 0, "delays were injected");
            let manifest = store.inner().get(&rec.manifest_key).unwrap();
            let busy = store.inner().metrics().snapshot().busy_time;
            // Each object's parts in the order they were sent: one thread
            // sends an object's parts, so that order is fixed.
            let mut parts: Vec<_> = store
                .take_journal()
                .into_iter()
                .filter(|call| call.method == "put_part")
                .map(|call| (call.key, call.channel, call.receipt))
                .collect();
            parts.sort_by(|a, b| a.0.cmp(&b.0));
            let record = (rec.completed_at, rec.write_latency, rec.parts, rec.stored_bytes);
            ((record, manifest, busy), parts)
        };
        let (undelayed, parts) = write(1, None);
        for workers in [1usize, 2, 4] {
            for seed in [1u64, 2] {
                let what = format!("hosts={hosts} workers={workers} seed={seed}");
                let (simulated, delayed_parts) = write(workers, Some(seed));
                assert_eq!(simulated, undelayed, "{what}");
                assert_eq!(delayed_parts, parts, "{what}");
            }
        }
    }
}
