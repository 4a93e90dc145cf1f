//! Sharded write path invariants, property-tested end to end: for random
//! models and configurations, a sharded write followed by a merged restore
//! is bit-identical to the single-shard path — across 1/2/4/7 writer hosts,
//! including row counts that don't divide evenly.

use check_n_run::cluster::SimClock;
use check_n_run::core::config::CheckpointConfig;
use check_n_run::core::manifest::{CheckpointId, CheckpointKind};
use check_n_run::core::policy::{Decision, TrackerAction};
use check_n_run::core::restore::restore;
use check_n_run::core::snapshot::SnapshotTaker;
use check_n_run::core::write::CheckpointWriter;
use check_n_run::core::TrainingSnapshot;
use check_n_run::model::{DlrmModel, ModelConfig, ModelState, ShardPlan};
use check_n_run::quant::QuantScheme;
use check_n_run::reader::ReaderState;
use check_n_run::storage::{InMemoryStore, RemoteConfig, SimulatedRemoteStore};
use check_n_run::trainer::{Trainer, TrainerConfig};
use check_n_run::workload::{DatasetSpec, SyntheticDataset, TableAccessSpec};
use proptest::prelude::*;
use std::time::Duration;

/// Trains a small random model and snapshots it.
fn snapshot_for(
    seed: u64,
    rows_a: usize,
    rows_b: usize,
    dim: usize,
    batches: u64,
    kind: CheckpointKind,
) -> (ModelConfig, TrainingSnapshot) {
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
    let snap = SnapshotTaker::new(ShardPlan::balanced(&model_cfg, 1, 2)).take(
        &mut trainer,
        ReaderState::at(batches),
        decision,
        &CheckpointConfig::default(),
    );
    (model_cfg, snap)
}

/// Writes `snap` over `hosts` writer hosts and restores it. An incremental
/// snapshot first gets a fixed single-shard full baseline (identical across
/// comparisons) so its chain restores; the shard count under test applies
/// to the newest checkpoint.
fn roundtrip(
    model_cfg: &ModelConfig,
    snap: &TrainingSnapshot,
    hosts: usize,
    chunk_rows: usize,
) -> (ModelState, usize) {
    let store = InMemoryStore::new();
    let writer = CheckpointWriter::new(&store, "job");
    let cfg = CheckpointConfig {
        chunk_rows,
        writer_hosts: hosts,
        ..CheckpointConfig::default()
    };
    let (id, base) = if snap.kind == CheckpointKind::Incremental {
        let mut full = snap.clone();
        full.kind = CheckpointKind::Full;
        full.delta = check_n_run::tracking::TrackerSnapshot::full(
            &model_cfg.row_counts(),
        );
        let base_cfg = CheckpointConfig {
            chunk_rows,
            writer_hosts: 1,
            ..CheckpointConfig::default()
        };
        writer
            .write(&full, CheckpointId(0), None, QuantScheme::Fp32, &base_cfg)
            .expect("baseline write");
        (CheckpointId(1), Some(CheckpointId(0)))
    } else {
        (CheckpointId(0), None)
    };
    let rec = writer
        .write(snap, id, base, QuantScheme::Fp32, &cfg)
        .expect("write");
    // Shard summaries account for every chunk.
    let shard_rows: u64 = rec.manifest.shards.iter().map(|s| s.rows).sum();
    let chunk_rows_total: u64 = rec.manifest.chunks.iter().map(|c| c.rows as u64).sum();
    assert_eq!(shard_rows, chunk_rows_total);
    let report = restore(&store, "job", id, model_cfg).expect("restore");
    (report.state, report.shards_merged)
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
        let (model_cfg, snap) = snapshot_for(seed, rows_a, rows_b, dim, batches, kind);
        let (single, merged_single) = roundtrip(&model_cfg, &snap, 1, chunk_rows);
        // Full = one manifest, one shard; incremental adds its baseline.
        prop_assert_eq!(merged_single, if kind == CheckpointKind::Full { 1 } else { 2 });
        if kind == CheckpointKind::Full {
            // FP32 full restores are bit-exact against the live model.
            prop_assert_eq!(&single, &snap.model);
        }
        for hosts in [2usize, 4, 7] {
            let (sharded, merged) = roundtrip(&model_cfg, &snap, hosts, chunk_rows);
            prop_assert_eq!(&sharded, &single, "hosts={}", hosts);
            // A chain merges the shards of every manifest it applies: up to
            // `hosts` for the target plus 1 for an incremental's baseline.
            prop_assert!(merged >= 1 && merged <= hosts + 1);
        }
    }
}

/// The headline acceptance property at the facade level: with one uplink
/// per writer host, an 8-shard write of the same snapshot reaches
/// durability in measurably less simulated time than a single shard, and
/// restores identically.
#[test]
fn eight_shards_reach_durability_sooner_and_restore_identically() {
    let (model_cfg, snap) = snapshot_for(7, 2000, 900, 16, 3, CheckpointKind::Full);
    let write = |hosts: usize| {
        let store = SimulatedRemoteStore::new(
            RemoteConfig {
                bandwidth_bytes_per_sec: 2.0 * 1024.0 * 1024.0,
                base_latency: Duration::from_micros(100),
                replication: 2,
                channels: hosts as u32,
            },
            SimClock::new(),
        );
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
    assert_eq!(s1, snap.model, "fp32 restore is bit-exact");
    assert!(
        t8.as_secs_f64() < 0.35 * t1.as_secs_f64(),
        "8 uplinks should approach 8x faster durability: 1-shard {t1:?}, 8-shard {t8:?}"
    );
}
