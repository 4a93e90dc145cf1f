//! Sharded *restore* path invariants, property-tested end to end: for
//! random models and configurations, the parallel `cnr_core::read`
//! pipeline reconstructs exactly the state the serial restore does —
//! across 1/2/4/7 reader hosts and 1–4 decode worker threads, including
//! row counts that don't divide evenly and checkpoints written by a
//! different number of writer hosts than are restoring. The decode-worker
//! dimension is the threaded-decode acceptance property: multi-threaded
//! dequantization must be bit-identical to the serial path.
//!
//! The restore writes rows where they live, from several threads, in
//! whatever order chunks arrive; `multi_level_overwrite_is_order_independent`
//! is the property that guards that: over chains whose levels rewrite each
//! other's rows, a destination pre-filled with a sentinel ends up equal to
//! the serial restore bit for bit for any host count, worker count, reader
//! kill and hot fraction.

use check_n_run::cluster::SimClock;
use check_n_run::core::config::CheckpointConfig;
use check_n_run::core::manifest::{
    CheckpointId, CheckpointKind, ChunkPayload, Manifest, TableMeta,
};
use check_n_run::core::read::{DrainOutcome, ShardedRestore};
use check_n_run::core::restore::load_manifest;
use check_n_run::core::CnrError;
use check_n_run::storage::ObjectStore;
use check_n_run::tracking::CoverageAnalyzer;
use check_n_run::core::policy::{Decision, TrackerAction};
use check_n_run::cluster::HostKill;
use check_n_run::core::read::{restore_sharded, restore_sharded_into, RestoreOptions, RowHeat};
use check_n_run::core::restore::restore;
use check_n_run::core::snapshot::SnapshotTaker;
use check_n_run::core::write::CheckpointWriter;
use check_n_run::core::TrainingSnapshot;
use check_n_run::model::state::{ModelState, TableState};
use check_n_run::model::{DlrmModel, ModelConfig, OptimizerConfig, ShardPlan};
use check_n_run::tracking::TrackerSnapshot;
use check_n_run::quant::QuantScheme;
use check_n_run::reader::ReaderState;
use check_n_run::storage::{InMemoryStore, RemoteConfig, SimulatedRemoteStore};
use check_n_run::trainer::{Trainer, TrainerConfig};
use check_n_run::workload::{DatasetSpec, SyntheticDataset, TableAccessSpec};
use proptest::prelude::*;
use std::time::Duration;

/// Trains a small random model and snapshots it twice at the same instant:
/// as `kind`, and — first, leaving the tracker alone — as the full baseline
/// an incremental's chain starts from.
fn snapshot_for(
    seed: u64,
    rows_a: usize,
    rows_b: usize,
    dim: usize,
    batches: u64,
    kind: CheckpointKind,
) -> (ModelConfig, TrainingSnapshot, TrainingSnapshot) {
    let spec = DatasetSpec {
        seed,
        batch_size: 16,
        dense_dim: 4,
        tables: vec![
            TableAccessSpec::new(rows_a as u64, 2, 1.0),
            TableAccessSpec::new(rows_b as u64, 1, 0.9),
        ],
        concept_seed: None,
    };
    let ds = SyntheticDataset::new(spec.clone());
    let model_cfg = ModelConfig::for_dataset(&spec, dim);
    let model = DlrmModel::new(model_cfg.clone());
    let mut trainer = Trainer::new(model, SimClock::new(), TrainerConfig::default());
    for i in 0..batches {
        trainer.train_one(&ds.batch(i));
    }
    let decision = match kind {
        CheckpointKind::Full => Decision {
            kind,
            tracker: TrackerAction::SnapshotReset,
        },
        CheckpointKind::Incremental => Decision {
            kind,
            tracker: TrackerAction::SnapshotKeep,
        },
    };
    let taker = SnapshotTaker::new(ShardPlan::balanced(&model_cfg, 1, 2));
    let mut take = |decision| {
        taker.take(
            &mut trainer,
            ReaderState::at(batches),
            decision,
            &CheckpointConfig::default(),
        )
    };
    let baseline = take(Decision {
        kind: CheckpointKind::Full,
        tracker: TrackerAction::SnapshotKeep,
    });
    let snap = take(decision);
    (model_cfg, snap, baseline)
}

/// Writes `snap` (with `baseline`, single-shard, first when it is
/// incremental, so the chain restores) over `writer_hosts`.
fn write_chain(
    store: &InMemoryStore,
    snap: &TrainingSnapshot,
    baseline: &TrainingSnapshot,
    writer_hosts: usize,
    chunk_rows: usize,
) -> CheckpointId {
    let writer = CheckpointWriter::new(store, "job");
    let cfg = CheckpointConfig {
        chunk_rows,
        writer_hosts,
        ..CheckpointConfig::default()
    };
    let (id, base) = if snap.kind == CheckpointKind::Incremental {
        let base_cfg = CheckpointConfig {
            chunk_rows,
            writer_hosts: 1,
            ..CheckpointConfig::default()
        };
        writer
            .write(baseline, CheckpointId(0), None, QuantScheme::Fp32, &base_cfg)
            .expect("baseline write");
        (CheckpointId(1), Some(CheckpointId(0)))
    } else {
        (CheckpointId(0), None)
    };
    writer
        .write(snap, id, base, QuantScheme::Fp32, &cfg)
        .expect("write");
    id
}

proptest! {
    /// Sharded restore equals the serial path bit for bit, for random
    /// geometries (including non-divisible row counts), chunk sizes,
    /// writer shard counts, and 1/2/4/7 reader hosts.
    #[test]
    fn sharded_restore_is_bit_identical(
        seed in any::<u64>(),
        rows_a in 8usize..300,
        rows_b in 1usize..120,
        dim_pow in 0u32..4,
        batches in 1u64..4,
        chunk_rows in 1usize..80,
        writer_hosts in 1usize..6,
        decode_workers in 1usize..5,
        full in 0u8..2,
    ) {
        let dim = 1usize << dim_pow;
        let kind = if full == 1 { CheckpointKind::Full } else { CheckpointKind::Incremental };
        let (model_cfg, snap, baseline) = snapshot_for(seed, rows_a, rows_b, dim, batches, kind);
        let store = InMemoryStore::new();
        let id = write_chain(&store, &snap, &baseline, writer_hosts, chunk_rows);
        let serial = restore(&store, "job", id, &model_cfg).expect("serial restore");
        if kind == CheckpointKind::Full {
            // FP32 full restores are bit-exact against the live model.
            prop_assert_eq!(&serial.state, &snap.model);
        }
        for reader_hosts in [1usize, 2, 4, 7] {
            let sharded = restore_sharded(
                &store,
                "job",
                id,
                &model_cfg,
                &RestoreOptions {
                    reader_hosts,
                    decode_workers,
                    ..RestoreOptions::default()
                },
                Duration::ZERO,
            )
            .expect("sharded restore");
            prop_assert_eq!(&sharded.report.state, &serial.state,
                "reader_hosts={} decode_workers={}", reader_hosts, decode_workers);
            prop_assert_eq!(sharded.report.rows_applied, serial.rows_applied);
            prop_assert_eq!(sharded.report.shards_merged, serial.shards_merged);
            prop_assert_eq!(sharded.report.bytes_read, serial.bytes_read);
            prop_assert_eq!(
                sharded.report.incremental_rows.modified_rows(),
                serial.incremental_rows.modified_rows()
            );
            prop_assert_eq!(sharded.breakdown.reader_hosts, reader_hosts);
        }
    }
}

/// A deterministic stream of 24-bit fractions in `[0, 1)`.
fn fractions(seed: u64) -> impl FnMut() -> f32 {
    let mut state = seed | 1;
    move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// Whole tables of `cfg` filled from `next`.
fn whole_tables(cfg: &ModelConfig, next: &mut impl FnMut() -> f32) -> Vec<TableState> {
    cfg.tables
        .iter()
        .map(|t| TableState {
            data: (0..t.rows as usize * t.dim).map(|_| next() - 0.5).collect(),
            adagrad: cfg
                .optimizer
                .has_state()
                .then(|| (0..t.rows).map(|_| next()).collect()),
        })
        .collect()
}

/// The snapshot of level `level` whose model is `whole` and whose delta is
/// `delta`: the rows `delta` names, picked out of `whole` one by one into
/// the layout `SnapshotTaker::take` produces (slab row `k` is the `k`-th
/// set bit).
fn snapshot_of(
    cfg: &ModelConfig,
    level: u64,
    whole: &[TableState],
    delta: TrackerSnapshot,
) -> TrainingSnapshot {
    let slabs = whole
        .iter()
        .zip(&delta.tables)
        .zip(&cfg.tables)
        .map(|((table, mask), spec)| TableState {
            data: mask
                .iter_ones()
                .flat_map(|row| &table.data[row * spec.dim..(row + 1) * spec.dim])
                .copied()
                .collect(),
            adagrad: table
                .adagrad
                .as_ref()
                .map(|acc| mask.iter_ones().map(|row| acc[row]).collect()),
        })
        .collect();
    TrainingSnapshot {
        model: ModelState {
            tables: slabs,
            bottom: vec![level as f32],
            top: vec![-(level as f32)],
            iteration: level,
        },
        geometry: TableMeta::for_model(cfg),
        delta,
        reader: ReaderState::at(level),
        kind: if level == 0 {
            CheckpointKind::Full
        } else {
            CheckpointKind::Incremental
        },
        taken_at: Duration::ZERO,
        stall: Duration::ZERO,
    }
}

/// Level `level` of a synthetic chain: every value depends on the level,
/// so which level wrote a row last is visible in the row, and each row is
/// in the level's delta with probability `density`.
fn level_snapshot(cfg: &ModelConfig, seed: u64, level: u64, density: f32) -> TrainingSnapshot {
    let mut next = fractions(seed ^ (level + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let whole = whole_tables(cfg, &mut next);
    let mut delta = TrackerSnapshot::empty(&cfg.row_counts());
    for (t, table) in cfg.tables.iter().enumerate() {
        for row in 0..table.rows as usize {
            if next() < density {
                delta.tables[t].set(row);
            }
        }
    }
    snapshot_of(cfg, level, &whole, delta)
}

/// A model of `cfg` whose every embedding value and accumulator is NaN: a
/// destination that shows any row a restore failed to write or to zero.
fn sentinel_model(cfg: &ModelConfig) -> DlrmModel {
    let mut model = DlrmModel::new(cfg.clone());
    for table in model.tables_mut() {
        table.data_mut().fill(f32::NAN);
        if let Some(acc) = table.adagrad_mut() {
            acc.fill(f32::NAN);
        }
    }
    model
}

/// Index and bit patterns of the first element where `got` and `want`
/// differ (a sentinel NaN that survived differs from anything).
fn first_difference(got: &[f32], want: &[f32]) -> Option<(usize, u32, u32)> {
    assert_eq!(got.len(), want.len());
    got.iter()
        .zip(want)
        .position(|(g, w)| g.to_bits() != w.to_bits())
        .map(|i| (i, got[i].to_bits(), want[i].to_bits()))
}

proptest! {
    /// The hazard of decoding in place: several levels name the same row,
    /// their chunks land in any order on any thread, and the destination
    /// starts out dirty. Whatever the interleaving, every row must end up
    /// holding its newest level's value, rows no chunk names must end up
    /// zero, and the report must match the serial restore's.
    #[test]
    fn multi_level_overwrite_is_order_independent(
        seed in any::<u64>(),
        rows_a in 8usize..400,
        rows_b in 1usize..90,
        dim_pow in 0u32..4,
        incrementals in 1u64..=5,
        chunk_rows in 1usize..80,
        writer_hosts in 1usize..5,
        decode_workers in 1usize..5,
        four_bit in any::<bool>(),
        with_acc in any::<bool>(),
        kill_reader in any::<bool>(),
        kill_host in 0u16..7,
        kill_after in 0u32..6,
        mode in 0usize..5,
    ) {
        let spec = DatasetSpec {
            seed,
            batch_size: 4,
            dense_dim: 2,
            tables: vec![
                TableAccessSpec::new(rows_a as u64, 1, 1.0),
                TableAccessSpec::new(rows_b as u64, 1, 1.0),
            ],
            concept_seed: None,
        };
        let mut cfg = ModelConfig::for_dataset(&spec, 1 << dim_pow);
        if with_acc {
            cfg.optimizer = OptimizerConfig::RowWiseAdagrad { lr: 0.05, eps: 1e-8 };
        }
        let scheme = if four_bit { QuantScheme::Asymmetric { bits: 4 } } else { QuantScheme::Fp32 };
        let store = InMemoryStore::new();
        let writer = CheckpointWriter::new(&store, "job");
        let write_cfg = CheckpointConfig { chunk_rows, writer_hosts, ..CheckpointConfig::default() };
        // The baseline leaves a tenth of the rows out: some stay uncovered,
        // some are first written by an incremental.
        let mut densities = fractions(seed ^ 0xD1CE);
        for level in 0..=incrementals {
            let density = if level == 0 { 0.9 } else { 0.05 + 0.6 * densities() };
            let snap = level_snapshot(&cfg, seed, level, density);
            let base = level.checked_sub(1).map(CheckpointId);
            writer.write(&snap, CheckpointId(level), base, scheme, &write_cfg).expect("write");
        }
        let target = CheckpointId(incrementals);
        let serial = restore(&store, "job", target, &cfg).expect("serial restore");

        // mode 0 is eager; 1..=4 are lazy at a hot fraction, then drained.
        let hot_fraction = [1.0, 0.0, 0.05, 0.5, 1.0][mode];
        let heat = RowHeat::zipf(&cfg.row_counts(), 1.05);
        for reader_hosts in [1usize, 2, 4, 7] {
            // A lone host has no survivor to hand its chunks to.
            let kill = (kill_reader && reader_hosts > 1).then_some(HostKill {
                host: kill_host % reader_hosts as u16,
                after_chunks: kill_after,
            });
            let mut model = sentinel_model(&cfg);
            let options = RestoreOptions {
                reader_hosts,
                decode_workers,
                lazy: mode > 0,
                hot_fraction,
                ..RestoreOptions::default()
            };
            let sharded = restore_sharded_into(
                &store, "job", target, &cfg, &options, Duration::ZERO,
                kill, Some(&heat), model.table_views_mut(), false,
            )
            .expect("sharded restore");
            let what = format!(
                "reader_hosts={reader_hosts} decode_workers={decode_workers} kill={kill:?} mode={mode}"
            );
            prop_assert!(sharded.report.state.tables.is_empty(), "{}", what);
            if hot_fraction == 1.0 {
                prop_assert_eq!(sharded.report.rows_applied, serial.rows_applied, "{}", what);
            } else {
                prop_assert!(sharded.report.rows_applied <= serial.rows_applied, "{}", what);
            }
            match sharded.lazy {
                Some(mut tail) => {
                    tail.drain(&mut model).expect("drain");
                    prop_assert!(tail.is_drained(), "{}", what);
                }
                None => prop_assert_eq!(mode, 0),
            }
            for (got, want) in model.tables().iter().zip(&serial.state.tables) {
                prop_assert_eq!(first_difference(got.data(), &want.data), None, "{}", what);
                prop_assert_eq!(
                    first_difference(
                        got.adagrad().unwrap_or_default(),
                        want.adagrad.as_deref().unwrap_or_default(),
                    ),
                    None,
                    "accumulators, {}", what
                );
            }
            prop_assert_eq!(&sharded.report.state.bottom, &serial.state.bottom);
            prop_assert_eq!(sharded.report.state.iteration, serial.state.iteration);
            prop_assert_eq!(sharded.report.reader, serial.reader);
            prop_assert_eq!(&sharded.report.chain, &serial.chain);
            prop_assert_eq!(sharded.report.shards_merged, serial.shards_merged);
            prop_assert_eq!(sharded.report.bytes_read, serial.bytes_read, "{}", what);
            prop_assert_eq!(&sharded.report.incremental_rows, &serial.incremental_rows, "{}", what);
        }
    }
}

/// Level `level` of a chain over `cfg` whose delta is exactly `rows` of
/// table 0 (`None`: every row of every table).
fn level_with_rows(cfg: &ModelConfig, level: u64, rows: Option<&[usize]>) -> TrainingSnapshot {
    let mut next = fractions(0xC01D ^ (level + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let whole = whole_tables(cfg, &mut next);
    let delta = match rows {
        None => TrackerSnapshot::full(&cfg.row_counts()),
        Some(rows) => {
            let mut delta = TrackerSnapshot::empty(&cfg.row_counts());
            rows.iter().for_each(|&row| delta.tables[0].set(row));
            delta
        }
    };
    snapshot_of(cfg, level, &whole, delta)
}

/// A store holding `deltas` as a chain of 32-row chunks over a 96 + 8 row
/// model with accumulators, and a lazy restore of its newest level — into a
/// sentinel-filled model — under a heat model whose one hot row is row 5
/// of table 0: a chunk is hot iff its row range spans row 5.
struct OneHotRow {
    cfg: ModelConfig,
    store: InMemoryStore,
    target: CheckpointId,
}

impl OneHotRow {
    fn write(deltas: &[Option<&[usize]>], scheme: QuantScheme) -> Self {
        let spec = DatasetSpec {
            seed: 1,
            batch_size: 4,
            dense_dim: 2,
            tables: vec![TableAccessSpec::new(96, 1, 1.0), TableAccessSpec::new(8, 1, 1.0)],
            concept_seed: None,
        };
        let mut cfg = ModelConfig::for_dataset(&spec, 4);
        cfg.optimizer = OptimizerConfig::RowWiseAdagrad { lr: 0.05, eps: 1e-8 };
        let store = InMemoryStore::new();
        let write_cfg = CheckpointConfig {
            chunk_rows: 32,
            ..CheckpointConfig::default()
        };
        for (level, rows) in deltas.iter().enumerate() {
            let level = level as u64;
            let base = level.checked_sub(1).map(CheckpointId);
            CheckpointWriter::new(&store, "job")
                .write(&level_with_rows(&cfg, level, *rows), CheckpointId(level), base, scheme, &write_cfg)
                .expect("write");
        }
        let target = CheckpointId(deltas.len() as u64 - 1);
        Self { cfg, store, target }
    }

    fn lazy_restore(&self) -> Result<(DlrmModel, ShardedRestore), CnrError> {
        let mut heat = RowHeat::uniform(&self.cfg.row_counts());
        let mut coverage = CoverageAnalyzer::new(&self.cfg.row_counts());
        coverage.observe(0, 5);
        heat.boost_covered(&coverage, 10.0);
        let options = RestoreOptions {
            reader_hosts: 2,
            lazy: true,
            hot_fraction: 0.005, // the top 1 of 104 rows
            ..RestoreOptions::default()
        };
        let mut model = sentinel_model(&self.cfg);
        let restored = restore_sharded_into(
            &self.store,
            "job",
            self.target,
            &self.cfg,
            &options,
            Duration::ZERO,
            None,
            Some(&heat),
            model.table_views_mut(),
            false,
        )?;
        Ok((model, restored))
    }
}

/// Level 0 is full; level 1 rewrites rows {50, 60}; level 2 rewrites rows
/// {5, 50} — and, spanning the hot row, is hot, as is level 0's first
/// chunk. So at first batch row 50 is covered by two cold levels and
/// shadowed by the newer hot one (final: nothing cold may ever touch it),
/// row 60 waits on two cold levels, row 40 on one. Faulting rows in,
/// draining, and draining again must each leave exactly the serial
/// oracle's bits, for fp32 and for 4-bit rows.
#[test]
fn two_cold_levels_under_a_newer_hot_one_materialize_to_the_oracles_bits() {
    for scheme in [QuantScheme::Fp32, QuantScheme::Asymmetric { bits: 4 }] {
        let chain = OneHotRow::write(&[None, Some(&[50, 60]), Some(&[5, 50])], scheme);
        let oracle = restore(&chain.store, "job", chain.target, &chain.cfg).expect("serial").state;
        let row_of = |state: &ModelState, row: usize| -> (Vec<u32>, u32) {
            let t = &state.tables[0];
            (
                t.data[row * 4..(row + 1) * 4].iter().map(|v| v.to_bits()).collect(),
                t.adagrad.as_ref().unwrap()[row].to_bits(),
            )
        };
        let equals_oracle = |model: &DlrmModel| ModelState::extract(model).tables == oracle.tables;
        // What `sentinel_model` put in every row: a row nothing has landed
        // in yet is stale and still holds it.
        let sentinel = (vec![f32::NAN.to_bits(); 4], f32::NAN.to_bits());

        let (mut model, restored) = chain.lazy_restore().unwrap();
        let mut tail = restored.lazy.expect("cold tail");
        // Hot: level 0's rows 0..32 and level 2's two rows.
        assert_eq!(restored.report.rows_applied, 32 + 2, "{scheme}");
        assert_eq!(tail.pending_rows(), (64 - 1) + 8, "{scheme}");
        let live = ModelState::extract(&model);
        assert!(tail.is_materialized(0, 50), "shadowed by the newer hot level");
        assert_eq!(row_of(&live, 50), row_of(&oracle, 50), "{scheme}");
        for cold in [40, 60] {
            assert!(!tail.is_materialized(0, cold as u32));
            assert_eq!(row_of(&live, cold), sentinel, "cold rows are stale until they land");
        }

        // The shadowed row is a no-op; row 60 lands level 0 then level 1,
        // row 40 level 0 only.
        assert_eq!(tail.fault_in(&mut model, 0, 50).unwrap(), 0);
        let two_levels = tail.fault_in(&mut model, 0, 60).unwrap();
        let one_level = tail.fault_in(&mut model, 0, 40).unwrap();
        assert!(two_levels > one_level && one_level > 0, "{two_levels} vs {one_level}");
        assert!(tail.is_materialized(0, 40) && tail.is_materialized(0, 60));
        let live = ModelState::extract(&model);
        for row in [5, 40, 50, 60] {
            assert_eq!(row_of(&live, row), row_of(&oracle, row), "{scheme}: row {row}");
        }
        assert_eq!(row_of(&live, 70), sentinel, "untouched cold rows are still stale");

        // The drain finishes the rest, and finishing twice changes nothing.
        let drained = tail.drain(&mut model).unwrap();
        assert_eq!(drained.rows_materialized, (64 - 1) + 8 - 2);
        assert!(tail.is_drained() && equals_oracle(&model), "{scheme}: fault-ins + drain");
        assert_eq!(tail.drain(&mut model).unwrap(), DrainOutcome::default());
        assert!(equals_oracle(&model), "{scheme}: second drain");

        // Drain alone, from a fresh restore, gets to the same place.
        let (mut model, restored) = chain.lazy_restore().unwrap();
        restored.lazy.unwrap().drain(&mut model).unwrap();
        assert!(equals_oracle(&model), "{scheme}: drain only");
    }
}

/// A cold chunk whose envelope and frame verify but whose last row body is
/// short — a writer's bug, not bit rot: no checksum sees it. It is held
/// back, never de-quantized by the restore; the restore must fail anyway,
/// typed, rather than hand back a tail whose fault-in fails mid-training.
#[test]
fn a_malformed_row_in_a_cold_chunk_fails_the_restore_not_a_fault_in() {
    let chain = OneHotRow::write(&[None], QuantScheme::Fp32);
    let (_, clean) = chain.lazy_restore().unwrap();
    assert!(!clean.lazy.unwrap().is_materialized(0, 95), "rows 64..96 are held back");

    let store = &chain.store;
    let mut manifest = load_manifest(store, "job", chain.target).unwrap();
    let cold = manifest
        .chunks
        .iter_mut()
        .find(|c| c.table == 0 && c.first_row == 64)
        .expect("the chunk of rows 64..96");
    let mut chunk = ChunkPayload::decode(&store.get(&cold.key).unwrap()).unwrap();
    chunk.rows.last_mut().unwrap().payload.pop();
    let short = chunk.encode_enveloped();
    cold.bytes = short.len() as u64;
    store.put(&cold.key, short.into()).unwrap();
    store
        .put(&Manifest::key("job", chain.target), manifest.encode_enveloped().into())
        .unwrap();

    let err = chain.lazy_restore().map(|_| ()).unwrap_err();
    assert!(
        matches!(&err, CnrError::Corrupt(why) if why.contains("row bodies truncated")),
        "{err:?}"
    );
    // Eager, the same chunk is placed instead of held — same verdict.
    assert!(matches!(
        restore_sharded(store, "job", chain.target, &chain.cfg, &RestoreOptions::default(), Duration::ZERO),
        Err(CnrError::Corrupt(_))
    ));
}

/// The headline acceptance property at the facade level: with one downlink
/// per reader host, an 8-host restore of the same checkpoint reaches
/// ready-to-train in measurably (~8x) less simulated time than a single
/// host, while remaining bit-identical to the serial restore.
#[test]
fn eight_reader_hosts_reach_ready_to_train_sooner_and_restore_identically() {
    let (model_cfg, snap, _) = snapshot_for(13, 2000, 900, 16, 3, CheckpointKind::Full);
    let run = |reader_hosts: usize| {
        let clock = SimClock::new();
        let store = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: 2.0 * 1024.0 * 1024.0,
                base_latency: Duration::from_micros(100),
                replication: 2, // writes amplified; reads fetch one replica
                channels: reader_hosts as u32,
            },
            clock,
        );
        let writer = CheckpointWriter::new(&store, "job");
        let cfg = CheckpointConfig {
            chunk_rows: 128,
            ..CheckpointConfig::default()
        };
        writer
            .write(&snap, CheckpointId(0), None, QuantScheme::Fp32, &cfg)
            .expect("write");
        let failed_at = store.wait_for_drain();
        let sharded = restore_sharded(
            &store,
            "job",
            CheckpointId(0),
            &model_cfg,
            &RestoreOptions {
                reader_hosts,
                ..RestoreOptions::default()
            },
            failed_at,
        )
        .expect("restore");
        (sharded.breakdown.fetch, sharded.report.state)
    };
    let (t1, s1) = run(1);
    let (t8, s8) = run(8);
    assert_eq!(s1, s8, "reader sharding must not change the restored state");
    assert_eq!(s1, snap.model, "fp32 restore is bit-exact");
    assert!(
        t8.as_secs_f64() < 0.25 * t1.as_secs_f64(),
        "8 downlinks should approach 8x faster ready-to-train: 1-host {t1:?}, 8-host {t8:?}"
    );
}
