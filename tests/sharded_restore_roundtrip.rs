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
//! kill and hot fraction. `one_host_and_one_worker_decode_each_row_once`
//! shows what the newest-level-first read order buys: on one reader host
//! and one decode worker each row is de-quantized once.
//!
//! Rows holding values no 4-bit grid describes (NaN, `±∞`, `1e6`) restore
//! with their exact bits through an engine — eager, lazy by fault-in and
//! by drain, and from the delta WAL — and a chunk of the retired row tag 1
//! fails a restore typed, eager and lazy.

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
use bytes::BufMut;
use check_n_run::core::wire;
use check_n_run::core::{DeltaWalConfig, Engine, EngineBuilder, QuantMode};
use check_n_run::quant::{QuantParams, QuantScheme};
use check_n_run::reader::ReaderState;
use check_n_run::storage::envelope;
use check_n_run::storage::{InMemoryStore, RemoteConfig, SimulatedRemoteStore};
use check_n_run::trainer::{Trainer, TrainerConfig};
use check_n_run::workload::{DatasetSpec, SyntheticDataset, TableAccessSpec};
use proptest::prelude::*;
use std::time::Duration;

/// Trains a small random model.
fn trained(
    seed: u64,
    rows_a: usize,
    rows_b: usize,
    dim: usize,
    batches: u64,
) -> (ModelConfig, Trainer) {
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

/// Writes a snapshot of `trainer` as `kind` over `writer_hosts` — first,
/// when it is incremental, a single-shard full baseline of the same
/// instant, taken leaving the tracker alone, so the chain restores.
fn write_chain(
    store: &InMemoryStore,
    trainer: &mut Trainer,
    kind: CheckpointKind,
    writer_hosts: usize,
    chunk_rows: usize,
) -> CheckpointId {
    let writer = CheckpointWriter::new(store, "job");
    let cfg = CheckpointConfig {
        chunk_rows,
        writer_hosts,
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
    writer
        .write(&take(trainer, kind, tracker), id, base, QuantScheme::Fp32, &cfg)
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
        let (model_cfg, mut trainer) = trained(seed, rows_a, rows_b, dim, batches);
        let live = ModelState::extract(trainer.model());
        let store = InMemoryStore::new();
        let id = write_chain(&store, &mut trainer, kind, writer_hosts, chunk_rows);
        let serial = restore(&store, "job", id, &model_cfg).expect("serial restore");
        if kind == CheckpointKind::Full {
            // FP32 full restores are bit-exact against the live model.
            prop_assert_eq!(&serial.state, &live);
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

/// The snapshot of level `level` over the tables `whole`, whose delta is
/// `delta`: what `SnapshotTaker::take` records.
fn snapshot_of<'w>(
    cfg: &ModelConfig,
    level: u64,
    whole: &'w [TableState],
    delta: TrackerSnapshot,
) -> TrainingSnapshot<'w> {
    // Dense layers of the model's shape (a restore refuses any other),
    // every parameter the level's number.
    let (bottom, top) = cfg.mlp_param_counts();
    TrainingSnapshot {
        model: ModelState {
            tables: Vec::new(),
            bottom: vec![level as f32; bottom],
            top: vec![-(level as f32); top],
            iteration: level,
        },
        tables: whole.iter().map(TableState::view).collect(),
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

/// The tables and the delta of level `level` of a synthetic chain: every
/// value depends on the level, so which level wrote a row last is visible
/// in the row, and each row is in the level's delta with probability
/// `density`.
fn level_tables(
    cfg: &ModelConfig,
    seed: u64,
    level: u64,
    density: f32,
) -> (Vec<TableState>, TrackerSnapshot) {
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
    (whole, delta)
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
            let (whole, delta) = level_tables(&cfg, seed, level, density);
            let snap = snapshot_of(&cfg, level, &whole, delta);
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
            // A tail iff the plan held a chunk back: never at fraction 1.
            let held_back = sharded.report.rows_applied < serial.rows_applied;
            prop_assert_eq!(sharded.lazy.is_some(), held_back, "{}", what);
            if let Some(mut tail) = sharded.lazy {
                tail.drain(&mut model).expect("drain");
                prop_assert!(tail.is_drained(), "{}", what);
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
            prop_assert_eq!(sharded.report.bytes_read, serial.bytes_read, "{}", what);
            prop_assert_eq!(&sharded.report.incremental_rows, &serial.incremental_rows, "{}", what);
        }
    }
}

proptest! {
    /// One reader host and one decode worker restore a three-level chain
    /// whose levels rewrite each other's rows. The host reads its chunks
    /// newest level first, so every older copy of a row fails the stamp
    /// check before it is decoded: the rows de-quantized are exactly the
    /// distinct rows the chain names, fewer than the rows its chunks name,
    /// and the destination holds the serial restore's bits.
    #[test]
    fn one_host_and_one_worker_decode_each_row_once(
        seed in any::<u64>(),
        rows_a in 8usize..400,
        rows_b in 1usize..90,
        chunk_rows in 1usize..80,
        writer_hosts in 1usize..5,
        four_bit in any::<bool>(),
        with_acc in any::<bool>(),
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
        let mut cfg = ModelConfig::for_dataset(&spec, 4);
        if with_acc {
            cfg.optimizer = OptimizerConfig::RowWiseAdagrad { lr: 0.05, eps: 1e-8 };
        }
        let scheme = if four_bit { QuantScheme::Asymmetric { bits: 4 } } else { QuantScheme::Fp32 };
        let store = InMemoryStore::new();
        let writer = CheckpointWriter::new(&store, "job");
        let write_cfg = CheckpointConfig { chunk_rows, writer_hosts, ..CheckpointConfig::default() };
        let mut named = TrackerSnapshot::empty(&cfg.row_counts());
        for (level, density) in [(0u64, 0.9), (1, 0.6), (2, 0.5)] {
            let (whole, delta) = level_tables(&cfg, seed, level, density);
            let snap = snapshot_of(&cfg, level, &whole, delta);
            named.union_with(&snap.delta);
            let base = level.checked_sub(1).map(CheckpointId);
            writer.write(&snap, CheckpointId(level), base, scheme, &write_cfg).expect("write");
        }
        let target = CheckpointId(2);
        let serial = restore(&store, "job", target, &cfg).expect("serial restore");

        let mut model = sentinel_model(&cfg);
        let options = RestoreOptions { reader_hosts: 1, decode_workers: 1, ..RestoreOptions::default() };
        let sharded = restore_sharded_into(
            &store, "job", target, &cfg, &options, Duration::ZERO,
            None, None, model.table_views_mut(), false,
        )
        .expect("sharded restore");
        prop_assert_eq!(sharded.rows_landed, named.modified_rows() as u64);
        prop_assert_eq!(sharded.report.rows_applied, serial.rows_applied);
        prop_assert!(sharded.rows_landed <= serial.rows_applied);
        for (got, want) in model.tables().iter().zip(&serial.state.tables) {
            prop_assert_eq!(first_difference(got.data(), &want.data), None);
            prop_assert_eq!(
                first_difference(
                    got.adagrad().unwrap_or_default(),
                    want.adagrad.as_deref().unwrap_or_default(),
                ),
                None,
                "accumulators"
            );
        }
    }
}

/// The tables and the delta of level `level` of a chain over `cfg` whose
/// delta is exactly `rows` of table 0 (`None`: every row of every table).
fn level_with_rows(
    cfg: &ModelConfig,
    level: u64,
    rows: Option<&[usize]>,
) -> (Vec<TableState>, TrackerSnapshot) {
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
    (whole, delta)
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
            let (whole, delta) = level_with_rows(&cfg, level, *rows);
            CheckpointWriter::new(&store, "job")
                .write(&snapshot_of(&cfg, level, &whole, delta), CheckpointId(level), base, scheme, &write_cfg)
                .expect("write");
        }
        let target = CheckpointId(deltas.len() as u64 - 1);
        Self { cfg, store, target }
    }

    fn lazy_restore(&self) -> Result<(DlrmModel, ShardedRestore), CnrError> {
        let mut heat = RowHeat::zipf(&self.cfg.row_counts(), 0.0); // every row ties
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
    let (model_cfg, mut trainer) = trained(13, 2000, 900, 16, 3);
    let live = ModelState::extract(trainer.model());
    let snap = take(&mut trainer, CheckpointKind::Full, TrackerAction::SnapshotReset);
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
    assert_eq!(s1, live, "fp32 restore is bit-exact");
    assert!(
        t8.as_secs_f64() < 0.25 * t1.as_secs_f64(),
        "8 downlinks should approach 8x faster ready-to-train: 1-host {t1:?}, 8-host {t8:?}"
    );
}

/// NaN, both infinities and a value beyond every binary16 grid: what no
/// uniform row describes.
const UNDESCRIBABLE: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1e6];

/// A 4-writer-shard engine at fixed 4-bit adaptive quantization over a
/// slow store, in 32-row chunks. Its first checkpoint, at batch 5, is full, so a row written
/// through `trainer_mut` before it — which the tracker never sees — is in
/// it.
fn adaptive4_engine(lazy: bool, wal: bool) -> Engine {
    let spec = DatasetSpec::tiny(31);
    let model_cfg = ModelConfig::for_dataset(&spec, 8);
    let mut b = EngineBuilder::new(spec, model_cfg)
        .checkpoint_config(CheckpointConfig {
            chunk_rows: 32,
            ..CheckpointConfig::default()
        })
        .checkpoint_every_batches(5)
        .cluster_shape(1, 2)
        .writer_hosts(4)
        .reader_hosts(2)
        .quantization(QuantMode::Fixed(QuantScheme::recommended_for_bits(4)))
        .remote_config(RemoteConfig {
            bandwidth_bytes_per_sec: 64.0 * 1024.0,
            base_latency: Duration::from_micros(100),
            replication: 1,
            channels: 2,
        });
    if lazy {
        b = b.lazy_restore(0.05);
    }
    if wal {
        b = b.delta_wal(DeltaWalConfig);
    }
    b.build().expect("engine")
}

fn row_bits(e: &Engine, row: u32) -> Vec<u32> {
    e.trainer().model().tables()[0].row(row as usize).iter().map(|v| v.to_bits()).collect()
}

/// Writes [`UNDESCRIBABLE`] over the first values of table 0's `row`.
fn poison(e: &mut Engine, row: u32) {
    let table = &mut e.trainer_mut().model_mut().tables_mut()[0];
    table.row_mut(row as usize)[..4].copy_from_slice(&UNDESCRIBABLE);
}

/// Trains to batch 4, poisons table 0's `row` — one batch 4 does not
/// touch — and trains batch 4, whose boundary checkpoints it; then loses
/// three batches of progress to a failure and restores. Returns the row's
/// bits at the boundary.
fn poison_checkpoint_and_restore(e: &mut Engine, row: u32) -> Vec<u32> {
    e.train_batches(4).unwrap();
    assert!(!e.dataset().batch(4).sparse[0].contains(&row));
    poison(e, row);
    e.train_batches(1).unwrap();
    let at_boundary = row_bits(e, row);
    e.train_batches(3).unwrap();
    e.simulate_failure_and_restore().unwrap();
    at_boundary
}

/// A chunk holding values its 4-bit scheme cannot describe is stored as
/// exact fp32 rows, so the row restores with the bits it had at the
/// boundary — eager, and lazy with its chunk cold, by a fault-in and by
/// the drain — where a uniform grid would restore garbage (NaN, `±inf`
/// and `1e6` collapsing onto one grid end).
#[test]
fn values_no_grid_describes_restore_bit_exactly() {
    // A row batch 4 does not touch, in a cold chunk, that a later batch
    // touches, for the fault-in.
    let probe = adaptive4_engine(false, false);
    let untouched = |r: &u32| !probe.dataset().batch(4).sparse[0].contains(r);
    let (row, eval_at) = (2000..40_000u64)
        .find_map(|b| {
            let touched = &probe.dataset().batch(b).sparse[0];
            touched.iter().copied().find(|r| *r >= 700 && untouched(r)).map(|r| (r, b))
        })
        .expect("some batch touches the tail");

    let mut eager = adaptive4_engine(false, false);
    let want = poison_checkpoint_and_restore(&mut eager, row);
    assert!(eager.pending_lazy().is_none());
    assert_eq!(row_bits(&eager, row), want, "eager");

    let mut faulted = adaptive4_engine(true, false);
    let want = poison_checkpoint_and_restore(&mut faulted, row);
    let tail = faulted.pending_lazy().expect("a cold tail");
    assert!(!tail.is_materialized(0, row), "the poisoned row's chunk is cold");
    faulted.evaluate(eval_at, eval_at + 1).unwrap();
    let tail = faulted.pending_lazy().expect("other rows still cold");
    assert!(tail.is_materialized(0, row), "batch {eval_at} faulted it in");
    assert_eq!(row_bits(&faulted, row), want, "fault-in");

    let mut drained = adaptive4_engine(true, false);
    let want = poison_checkpoint_and_restore(&mut drained, row);
    assert!(!drained.pending_lazy().unwrap().is_materialized(0, row));
    drained.drain_lazy_restore().unwrap();
    assert_eq!(row_bits(&drained, row), want, "drain");
}

/// The same with the delta WAL on: the poisoned row is one the batch after
/// the boundary touches, so its record embeds the row's chunk, and the
/// restore places it from there.
#[test]
fn values_no_grid_describes_replay_bit_exactly_from_the_wal() {
    let mut e = adaptive4_engine(false, true);
    e.train_batches(5).unwrap();
    let row = e.dataset().batch(5).sparse[0][0];
    poison(&mut e, row);
    e.train_batches(1).unwrap();
    let want = row_bits(&e, row);
    let undescribable = want.iter().any(|&b| !f32::from_bits(b).is_finite());
    assert!(undescribable, "training left it a row no grid describes");
    e.simulate_failure_and_restore().unwrap();
    assert_eq!(e.stats().resumes.last().unwrap().wal_replayed_iterations, 1);
    assert_eq!(row_bits(&e, row), want);
}

/// `chunk` (tag-4 rows) as the retired row tag 1 stored it: each row's
/// binary16 scale and zero point widened to `f32`s ahead of the same
/// codes — a chunk that restored to the same values before tag 1 was
/// retired.
fn with_f32_params(chunk: &ChunkPayload) -> Vec<u8> {
    let first = chunk.rows.first().expect("a row");
    let mut frame = Vec::new();
    let at = wire::begin_frame(&mut frame);
    frame.put_u16_le(chunk.table);
    frame.put_u32_le(chunk.rows.len() as u32);
    frame.put_u8(chunk.optimizer_state.is_some() as u8);
    frame.extend_from_slice(&[1, first.bits]);
    frame.put_u16_le(first.dim as u16);
    wire::put_indices(&mut frame, &chunk.row_indices);
    if let Some(acc) = &chunk.optimizer_state {
        acc.iter().for_each(|a| frame.put_f32_le(*a));
    }
    for row in &chunk.rows {
        let QuantParams::Uniform { scale, zero_point } = row.params else {
            panic!("a uniform row");
        };
        frame.put_f32_le(scale);
        frame.put_f32_le(zero_point);
        frame.extend_from_slice(&row.payload);
    }
    wire::end_frame(&mut frame, at);
    envelope::wrap(&frame)
}

impl OneHotRow {
    /// Stores `stored(chunk)` in place of the chunk of table 0's rows
    /// 64..96 — one the lazy restore holds back — and records its size in
    /// the manifest.
    fn replace_cold_chunk(&self, stored: impl FnOnce(&ChunkPayload) -> Vec<u8>) {
        let (_, clean) = self.lazy_restore().unwrap();
        assert!(!clean.lazy.unwrap().is_materialized(0, 95), "rows 64..96 are held back");
        let store = &self.store;
        let mut manifest = load_manifest(store, "job", self.target).unwrap();
        let cold = manifest
            .chunks
            .iter_mut()
            .find(|c| c.table == 0 && c.first_row == 64)
            .expect("the chunk of rows 64..96");
        let chunk = ChunkPayload::decode(&store.get(&cold.key).unwrap()).unwrap();
        let replaced = stored(&chunk);
        cold.bytes = replaced.len() as u64;
        store.put(&cold.key, replaced.into()).unwrap();
        store
            .put(&Manifest::key("job", self.target), manifest.encode_enveloped().into())
            .unwrap();
    }

    /// Asserts that the lazy and the eager restore both fail `Corrupt`
    /// for a reason `names` recognizes.
    fn assert_both_restores_fail(&self, names: &str) {
        let named = |err: &CnrError| matches!(err, CnrError::Corrupt(why) if why.contains(names));
        let err = self.lazy_restore().map(|_| ()).unwrap_err();
        assert!(named(&err), "lazy: {err:?}");
        let options = RestoreOptions::default();
        let eager =
            restore_sharded(&self.store, "job", self.target, &self.cfg, &options, Duration::ZERO);
        let err = eager.map(|_| ()).unwrap_err();
        assert!(named(&err), "eager: {err:?}");
    }
}

/// Row tag 1 is retired: a chunk stored with it fails the restore typed,
/// naming the tag — eagerly, and lazily with the chunk cold at restore
/// time, not at a later fault-in.
#[test]
fn a_chunk_with_the_retired_row_tag_1_fails_the_restore() {
    let chain = OneHotRow::write(&[None], QuantScheme::Asymmetric { bits: 4 });
    chain.replace_cold_chunk(with_f32_params);
    chain.assert_both_restores_fail("unknown row tag 1");
}

/// A chunk exactly as the v6 writer stored it — rows 64 and 65 of table 0,
/// fp32 with accumulators, each row index a delta varint of its own —
/// behind its own envelope, version 6, with an XXH64 valid for it.
const V6_CHUNK: &[u8] = b"CNR6\x06\x00\x00\x00\x3a\x00\x00\x00\xe8\xb1\xb3\xb3\x9f\xc8\xb3\xae\
    \x36\x00\x00\x00\x00\x00\x02\x00\x00\x00\x01\x00\x20\x04\x00\x80\x01\x02\x00\x00\x00\x3f\
    \x00\x00\x80\x3e\x00\x00\x80\x3f\x00\x00\x00\xc0\x00\x00\x00\x3f\x00\x00\x00\x00\x00\x00\
    \x80\x3e\x00\x00\x40\x40\x00\x00\xc0\xbf\x00\x00\x00\x41";

/// Since wire v7 a chunk's row indices are runs, and no v7 reader decodes
/// a v6 chunk: a store holding one fails the restore by version, before
/// any payload codec sees it — eagerly, and lazily with the chunk cold at
/// restore time.
#[test]
fn a_chunk_the_v6_writer_stored_fails_the_restore_by_version() {
    assert_eq!(V6_CHUNK.len(), 78);
    let chain = OneHotRow::write(&[None], QuantScheme::Fp32);
    chain.replace_cold_chunk(|_| V6_CHUNK.to_vec());
    chain.assert_both_restores_fail("unsupported envelope version 6 ");
}

/// A chunk frame reads the same under wire v9 as under v8, but a chunk the
/// v8 writer stored sits behind the v8 envelope: the restore fails it by
/// version, which is read before the checksum — eagerly, and lazily with
/// the chunk cold at restore time.
#[test]
fn a_chunk_the_v8_writer_stored_fails_the_restore_by_version() {
    let chain = OneHotRow::write(&[None], QuantScheme::Fp32);
    chain.replace_cold_chunk(|chunk| {
        let mut v8 = chunk.encode_enveloped();
        v8[..4].copy_from_slice(b"CNR8");
        v8[4..6].copy_from_slice(&8u16.to_le_bytes());
        v8
    });
    chain.assert_both_restores_fail("unsupported envelope version 8 ");
}
