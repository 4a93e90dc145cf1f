//! Policy explorer: compare the three incremental policies and quantization
//! modes on one workload — a miniature of the paper's Figures 15–17.
//!
//! ```text
//! cargo run --release --example policy_explorer
//! ```

use check_n_run::core::{CheckpointConfig, EngineBuilder, PolicyKind, QuantMode};
use check_n_run::model::ModelConfig;
use check_n_run::quant::QuantScheme;
use check_n_run::workload::{DatasetSpec, TableAccessSpec};

fn spec() -> DatasetSpec {
    DatasetSpec {
        seed: 11,
        batch_size: 128,
        dense_dim: 4,
        tables: vec![
            TableAccessSpec::new(30_000, 1, 0.85),
            TableAccessSpec::new(15_000, 1, 0.8),
        ],
        concept_seed: None,
    }
}

fn run(policy: PolicyKind, quant: QuantMode, label: &str) {
    let s = spec();
    let model_cfg = ModelConfig::for_dataset(&s, 16);
    let mut engine = EngineBuilder::new(s, model_cfg)
        .checkpoint_config(CheckpointConfig {
            interval_batches: 100,
            policy,
            quant,
            ..CheckpointConfig::default()
        })
        .job_name(label)
        .build()
        .expect("engine");
    engine.train_batches(10 * 100).expect("training");

    const RAN: &str = "ten intervals completed";
    let stats = engine.stats();
    let kinds: String = stats
        .intervals
        .iter()
        .map(|i| match i.kind {
            check_n_run::core::CheckpointKind::Full => 'F',
            check_n_run::core::CheckpointKind::Incremental => 'i',
        })
        .collect();
    println!(
        "{label:<28} kinds={kinds} mean_size={:>5.1}% peak_capacity={:>6.1}% bw_reduction={:>5.1}x cap_reduction={:>4.1}x",
        stats.try_mean_stored_fraction().expect(RAN) * 100.0,
        stats.peak_capacity_fraction() * 100.0,
        stats.try_bandwidth_reduction_vs_full().expect(RAN),
        stats.try_capacity_reduction_vs_full().expect(RAN),
    );
}

fn main() {
    println!("# 10 intervals of 100 batches; reductions vs full-fp32-every-interval\n");
    println!("-- incremental policies (no quantization), Figures 15/16 in miniature --");
    run(PolicyKind::FullOnly, QuantMode::None, "full-only");
    run(PolicyKind::OneShot, QuantMode::None, "one-shot");
    run(PolicyKind::Consecutive, QuantMode::None, "consecutive");
    run(PolicyKind::Intermittent, QuantMode::None, "intermittent");

    println!("\n-- quantization on top of intermittent, Figure 17 in miniature --");
    for (bits, expected) in [(2u8, 1u32), (3, 3), (4, 10), (8, 30)] {
        run(
            PolicyKind::Intermittent,
            QuantMode::Dynamic {
                expected_restores: expected,
            },
            &format!("intermittent+{bits}bit(L={expected})"),
        );
    }

    println!("\n-- fixed schemes for reference --");
    run(
        PolicyKind::Intermittent,
        QuantMode::Fixed(QuantScheme::Fp16),
        "intermittent+fp16",
    );
    run(
        PolicyKind::Intermittent,
        QuantMode::Fixed(QuantScheme::Asymmetric { bits: 4 }),
        "intermittent+asymmetric4",
    );
}
