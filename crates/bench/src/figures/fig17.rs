//! Figure 17: overall bandwidth and capacity reduction.
//!
//! Paper: combining intermittent incremental checkpointing with dynamically
//! selected quantization, relative to a baseline writing full FP32
//! checkpoints every interval:
//!
//! | restores L | bits | bandwidth | capacity |
//! |------------|------|-----------|----------|
//! | L ≤ 1      | 2    | 17×       | 8×       |
//! | 1 < L ≤ 3  | 3    | ~13×      | ~6×      |
//! | 3 < L < 20 | 4    | ~10×      | ~4.5×    |
//! | 20 ≤ L     | 8    | 6×        | 2.5×     |
//!
//! (Middle rows are visual estimates from the figure.) Savings are not
//! proportional to bit-width because of per-row metadata — reproduced here
//! by honest byte accounting in the chunk codec.

use crate::workloads::{incremental_spec, INCREMENTAL_INTERVAL_BATCHES};
use crate::{f, print_csv};
use cnr_core::{CheckpointConfig, EngineBuilder, PolicyKind, QuantMode};
use cnr_model::ModelConfig;

/// One Figure 17 bar pair.
#[derive(Debug, Clone)]
pub struct Fig17Row {
    /// Human-readable restore bucket.
    pub bucket: &'static str,
    /// Expected restores driving the bit-width selection.
    pub expected_restores: u32,
    /// Bit-width the selector chose.
    pub bits: u8,
    /// Average write-bandwidth reduction vs full-FP32-every-interval.
    pub bandwidth_reduction: f64,
    /// Peak-capacity reduction vs one full FP32 checkpoint.
    pub capacity_reduction: f64,
}

/// The paper's four buckets with representative expected-restore counts.
pub fn buckets() -> Vec<(&'static str, u32)> {
    vec![
        ("L<=1", 1),
        ("1<L<=3", 3),
        ("3<L<20", 10),
        ("20<=L", 30),
    ]
}

/// Runs the combined experiment for each bucket.
///
/// Uses production-like dim-64 embeddings: the reduction factors depend on
/// the payload-to-metadata ratio, and the paper's tables are dim ~64.
pub fn run(intervals: u64, seed: u64) -> Vec<Fig17Row> {
    buckets()
        .into_iter()
        .map(|(bucket, expected_restores)| {
            let spec = incremental_spec(seed);
            let model_cfg = ModelConfig::for_dataset(&spec, 64);
            let mut engine = EngineBuilder::new(spec, model_cfg)
                .checkpoint_config(CheckpointConfig {
                    interval_batches: INCREMENTAL_INTERVAL_BATCHES,
                    policy: PolicyKind::Intermittent,
                    quant: QuantMode::Dynamic { expected_restores },
                    ..CheckpointConfig::default()
                })
                .cluster_shape(1, 4)
                .build()
                .expect("engine");
            let bits = engine.current_scheme().bits();
            engine
                .train_batches(intervals * INCREMENTAL_INTERVAL_BATCHES)
                .expect("training");
            let stats = engine.stats();
            Fig17Row {
                bucket,
                expected_restores,
                bits,
                bandwidth_reduction: stats
                    .try_bandwidth_reduction_vs_full()
                    .expect("the run completed intervals"),
                capacity_reduction: stats
                    .try_capacity_reduction_vs_full()
                    .expect("the run completed intervals"),
            }
        })
        .collect()
}

/// Prints the figure.
pub fn print() {
    let rows = run(12, 33);
    let out: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{},{},{},{},{}",
                r.bucket,
                r.expected_restores,
                r.bits,
                f(r.bandwidth_reduction),
                f(r.capacity_reduction)
            )
        })
        .collect();
    print_csv(
        "fig17: overall reduction vs full-fp32-every-interval baseline (paper: bandwidth 17x..6x, capacity 8x..2.5x)",
        "bucket,expected_restores,bits,bandwidth_reduction_x,capacity_reduction_x",
        &out,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[ignore = "slow full-scale figure reproduction; CI runs it via `cargo test -- --ignored`"]
    fn reductions_shrink_as_restores_grow() {
        let rows = run(8, 5);
        assert_eq!(rows[0].bits, 2);
        assert_eq!(rows[3].bits, 8);
        for w in rows.windows(2) {
            assert!(
                w[0].bandwidth_reduction >= w[1].bandwidth_reduction,
                "bandwidth reduction must decrease with wider bits: {:?}",
                rows.iter()
                    .map(|r| r.bandwidth_reduction)
                    .collect::<Vec<_>>()
            );
        }
    }

    #[test]
    #[ignore = "slow full-scale figure reproduction; CI runs it via `cargo test -- --ignored`"]
    fn reductions_are_in_the_papers_ballpark() {
        let rows = run(12, 5);
        let best = &rows[0];
        let worst = &rows[3];
        // Shape targets (generous bands around the paper's 17x/6x bandwidth
        // and 8x/2.5x capacity): best bucket far above worst; both well
        // above 1x.
        assert!(
            best.bandwidth_reduction > 8.0,
            "2-bit bucket bandwidth {}x too low (paper 17x)",
            best.bandwidth_reduction
        );
        assert!(
            worst.bandwidth_reduction > 3.0,
            "8-bit bucket bandwidth {}x too low (paper 6x)",
            worst.bandwidth_reduction
        );
        assert!(
            best.capacity_reduction > 3.0,
            "2-bit bucket capacity {}x too low (paper 8x)",
            best.capacity_reduction
        );
        assert!(best.capacity_reduction > worst.capacity_reduction);
        assert!(
            worst.capacity_reduction > 1.3,
            "8-bit bucket capacity {}x too low (paper 2.5x)",
            worst.capacity_reduction
        );
    }
}
