//! Restore-degradation experiment (Figure 14, §6.2).
//!
//! Quantization only touches accuracy when a run actually *restores* from a
//! quantized checkpoint. The experiment runs two models in lockstep over the
//! identical batch stream: a control (never perturbed) and a treatment that,
//! at uniformly spaced points, has its embedding tables replaced by their
//! quantize-dequantize image — exactly what a restore-from-quantized-
//! checkpoint does. The reported degradation is the held-out logloss gap,
//! the analogue of the paper's "lifetime accuracy degradation".

use cnr_model::{DlrmModel, ModelConfig};
use cnr_quant::QuantScheme;
use cnr_trainer::evaluate;
use cnr_workload::{DatasetSpec, SyntheticDataset};
use std::collections::BTreeSet;

/// Configuration of one degradation run.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationConfig {
    /// Batches to train.
    pub total_batches: u64,
    /// Number of restore events, spread uniformly through the run (the
    /// paper distributes failures uniformly, §6.2).
    pub restores: u32,
    /// Quantization scheme applied at each restore.
    pub scheme: QuantScheme,
    /// Number of evaluation points along the run.
    pub eval_points: u32,
    /// Held-out batches per evaluation.
    pub eval_batches: u64,
}

/// One point of the degradation curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegradationPoint {
    /// Training records (samples) completed at this point.
    pub records: u64,
    /// Held-out logloss of the unperturbed control model.
    pub control_logloss: f64,
    /// Held-out logloss of the restore-perturbed model.
    pub treated_logloss: f64,
    /// `treated - control`: the accuracy degradation.
    pub degradation: f64,
}

/// Applies a quantize→dequantize cycle to every embedding row in place —
/// the state a training job sees right after restoring from a quantized
/// checkpoint (MLPs are stored FP32 and stay exact).
pub fn quantize_restore_in_place(model: &mut DlrmModel, scheme: &QuantScheme) {
    for table in model.tables_mut() {
        for r in 0..table.rows() {
            let q = scheme.quantize_row(table.row(r));
            let back = q.dequantize();
            table.row_mut(r).copy_from_slice(&back);
        }
    }
}

/// Runs the control/treatment pair and returns the degradation curve.
pub fn restore_degradation(
    spec: &DatasetSpec,
    model_cfg: &ModelConfig,
    cfg: &DegradationConfig,
) -> Vec<DegradationPoint> {
    assert!(cfg.total_batches > 0 && cfg.eval_points > 0);
    let ds = SyntheticDataset::new(spec.clone());
    let mut control = DlrmModel::new(model_cfg.clone());
    let mut treated = DlrmModel::new(model_cfg.clone());

    // Restore events at k·T/(R+1), k = 1..=R (uniform, never at the end).
    let restore_at: BTreeSet<u64> = (1..=cfg.restores as u64)
        .map(|k| k * cfg.total_batches / (cfg.restores as u64 + 1))
        .collect();
    // Eval points at k·T/P.
    let eval_at: BTreeSet<u64> = (1..=cfg.eval_points as u64)
        .map(|k| k * cfg.total_batches / cfg.eval_points as u64)
        .collect();
    // Held-out range sits beyond the training stream.
    let eval_from = cfg.total_batches + 100;
    let eval_to = eval_from + cfg.eval_batches;

    let mut curve = Vec::new();
    for i in 0..cfg.total_batches {
        let batch = ds.batch(i);
        control.train_batch(&batch, |_, _| {});
        treated.train_batch(&batch, |_, _| {});
        let done = i + 1;
        if restore_at.contains(&done) {
            quantize_restore_in_place(&mut treated, &cfg.scheme);
        }
        if eval_at.contains(&done) {
            let c = evaluate(&control, &ds, eval_from, eval_to);
            let t = evaluate(&treated, &ds, eval_from, eval_to);
            curve.push(DegradationPoint {
                records: done * spec.batch_size as u64,
                control_logloss: c.logloss,
                treated_logloss: t.logloss,
                degradation: t.logloss - c.logloss,
            });
        }
    }
    curve
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> DatasetSpec {
        DatasetSpec::tiny(131)
    }

    fn run(restores: u32, bits: u8) -> Vec<DegradationPoint> {
        let s = spec();
        let cfg = ModelConfig::for_dataset(&s, 8);
        restore_degradation(
            &s,
            &cfg,
            &DegradationConfig {
                total_batches: 300,
                restores,
                scheme: QuantScheme::Asymmetric { bits },
                eval_points: 3,
                eval_batches: 30,
            },
        )
    }

    #[test]
    fn zero_restores_means_zero_degradation() {
        let curve = run(0, 2);
        for p in curve {
            assert_eq!(
                p.degradation, 0.0,
                "without restores the models are identical"
            );
        }
    }

    #[test]
    fn quantize_restore_perturbs_model() {
        let s = spec();
        let mut m = DlrmModel::new(ModelConfig::for_dataset(&s, 8));
        let before = m.state_hash();
        quantize_restore_in_place(&mut m, &QuantScheme::Asymmetric { bits: 4 });
        assert_ne!(m.state_hash(), before);
        // FP32 passthrough is a no-op.
        let h = m.state_hash();
        quantize_restore_in_place(&mut m, &QuantScheme::Fp32);
        assert_eq!(m.state_hash(), h);
    }

    #[test]
    fn degradation_grows_with_restores() {
        // More restores at the same bit-width → more accumulated error.
        let few = run(1, 2);
        let many = run(5, 2);
        let last = |c: &[DegradationPoint]| c.last().unwrap().degradation.abs();
        assert!(
            last(&many) >= last(&few) * 0.5,
            "5 restores ({}) should not be cleanly below 1 restore ({})",
            last(&many),
            last(&few)
        );
    }

    #[test]
    fn higher_bits_degrade_less() {
        let coarse = run(3, 2);
        let fine = run(3, 8);
        let mean = |c: &[DegradationPoint]| {
            c.iter().map(|p| p.degradation.abs()).sum::<f64>() / c.len() as f64
        };
        assert!(
            mean(&fine) < mean(&coarse),
            "8-bit ({}) must beat 2-bit ({})",
            mean(&fine),
            mean(&coarse)
        );
    }

    #[test]
    fn curve_has_requested_points() {
        let curve = run(1, 4);
        assert_eq!(curve.len(), 3);
        assert!(curve.windows(2).all(|w| w[0].records < w[1].records));
    }
}
