//! Quickstart: train a recommendation model with Check-N-Run checkpointing,
//! kill it, and resume exactly where it left off.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use check_n_run::core::{EngineBuilder, PolicyKind, QuantMode};
use check_n_run::model::ModelConfig;
use check_n_run::workload::DatasetSpec;

fn main() {
    // 1. A synthetic CTR dataset and a DLRM-lite model sized to match it.
    let spec = DatasetSpec::medium(42);
    let model_cfg = ModelConfig::for_dataset(&spec, 16);
    println!(
        "model: {} embedding rows across {} tables ({} MB fp32)",
        model_cfg.embedding_params() / 16,
        model_cfg.tables.len(),
        model_cfg.embedding_bytes() / (1024 * 1024)
    );

    // 2. An engine with intermittent incremental checkpoints, quantized at a
    //    bit-width chosen for one expected restore (=> 2-bit, per §6.2.1).
    let mut engine = EngineBuilder::new(spec, model_cfg)
        .checkpoint_every_batches(200)
        .policy(PolicyKind::Intermittent)
        .quantization(QuantMode::Dynamic {
            expected_restores: 1,
        })
        .job_name("quickstart")
        .build()
        .expect("engine construction");
    println!("first checkpoint scheme: {}", engine.current_scheme());

    // 3. Train through five checkpoint intervals.
    engine.train_batches(1000).expect("training");
    let before = engine.evaluate(50_000, 50_040).expect("evaluation");
    println!(
        "after 1000 batches: logloss {:.4}, {} checkpoints, {} KB written",
        before.logloss,
        engine.stats().intervals.len(),
        engine.store().metrics().snapshot().bytes_put / 1024
    );

    // 4. Simulate a crash: everything in memory is lost, the engine restores
    //    from the newest valid checkpoint (baseline + delta, de-quantized).
    engine.train_batches(150).expect("training"); // progress that will be lost
    let report = engine
        .simulate_failure_and_restore()
        .expect("restore from checkpoint");
    println!(
        "crash! restored chain {:?} at iteration {} ({} KB read)",
        report.chain,
        report.state.iteration,
        report.bytes_read / 1024
    );

    // 5. Training continues from the checkpoint; the reader resumes at the
    //    exact batch recorded in the manifest (no gap, no duplicates).
    engine.train_batches(200).expect("training");
    let after = engine.evaluate(50_000, 50_040).expect("evaluation");
    println!(
        "resumed to iteration {}: logloss {:.4} (stall overhead {:.4}%)",
        engine.trainer().model().iteration(),
        after.logloss,
        engine.trainer().stall_fraction() * 100.0
    );

    // 6. Storage accounting: what checkpointing actually cost.
    let stats = engine.stats();
    println!(
        "mean checkpoint size: {:.1}% of model; bandwidth reduction vs naive full-fp32: {:.1}x",
        stats
            .try_mean_stored_fraction()
            .expect("checkpoints were taken")
            * 100.0,
        stats
            .try_bandwidth_reduction_vs_full()
            .expect("checkpoints were taken")
    );
}
