//! Held-out evaluation.
//!
//! The paper's accuracy budget is brutal: quantized-checkpoint restores must
//! cost less than 0.01% of prediction quality (§1, §4). Detecting shifts
//! that small requires a stable metric over a fixed held-out set; we use
//! mean logloss plus *normalized entropy* (logloss divided by the entropy of
//! the base rate), the standard CTR-model quality metric at Facebook — an
//! NE delta is directly comparable to the paper's "accuracy degradation".

use cnr_model::DlrmModel;
use cnr_workload::SyntheticDataset;

/// Evaluation results over a held-out batch range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalReport {
    /// Mean binary cross-entropy.
    pub logloss: f64,
    /// Fraction of correct hard predictions.
    pub accuracy: f64,
    /// Logloss normalized by base-rate entropy (lower is better; 1.0 means
    /// "no better than predicting the base rate").
    pub normalized_entropy: f64,
    /// Positive-label base rate of the evaluated set.
    pub base_rate: f64,
    /// Number of samples evaluated.
    pub samples: u64,
}

/// Evaluates `model` on batches `[from, to)` of `dataset` (held-out: choose
/// a range the model never trains on).
pub fn evaluate(model: &DlrmModel, dataset: &SyntheticDataset, from: u64, to: u64) -> EvalReport {
    assert!(to > from, "empty evaluation range");
    let mut loss = 0.0f64;
    let mut correct = 0u64;
    let mut positives = 0u64;
    let mut samples = 0u64;
    for i in from..to {
        let batch = dataset.batch(i);
        let preds = model.predict(&batch);
        for (p, &y) in preds.iter().zip(&batch.labels) {
            let pc = (*p as f64).clamp(1e-7, 1.0 - 1e-7);
            loss += -(y as f64 * pc.ln() + (1.0 - y as f64) * (1.0 - pc).ln());
            if (*p >= 0.5) == (y >= 0.5) {
                correct += 1;
            }
            if y >= 0.5 {
                positives += 1;
            }
            samples += 1;
        }
    }
    let logloss = loss / samples as f64;
    let base_rate = positives as f64 / samples as f64;
    let base_entropy = entropy(base_rate);
    EvalReport {
        logloss,
        accuracy: correct as f64 / samples as f64,
        normalized_entropy: if base_entropy > 0.0 {
            logloss / base_entropy
        } else {
            f64::INFINITY
        },
        base_rate,
        samples,
    }
}

/// Binary entropy of rate `p` in nats.
fn entropy(p: f64) -> f64 {
    if p <= 0.0 || p >= 1.0 {
        return 0.0;
    }
    -(p * p.ln() + (1.0 - p) * (1.0 - p).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnr_model::ModelConfig;
    use cnr_workload::DatasetSpec;

    fn setup() -> (SyntheticDataset, DlrmModel) {
        let spec = DatasetSpec::tiny(31);
        (
            SyntheticDataset::new(spec.clone()),
            DlrmModel::new(ModelConfig::for_dataset(&spec, 8)),
        )
    }

    #[test]
    fn untrained_model_is_near_chance() {
        let (ds, model) = setup();
        let r = evaluate(&model, &ds, 1000, 1020);
        // Untrained logloss should be near ln 2 (random logits near 0).
        assert!(r.logloss > 0.5 && r.logloss < 1.0, "logloss {}", r.logloss);
        assert!(r.normalized_entropy > 0.9, "NE {}", r.normalized_entropy);
        assert_eq!(r.samples, 20 * 8);
    }

    #[test]
    fn training_improves_ne() {
        let (ds, mut model) = setup();
        let before = evaluate(&model, &ds, 1000, 1050);
        for i in 0..500 {
            model.train_batch(&ds.batch(i), |_, _| {});
        }
        let after = evaluate(&model, &ds, 1000, 1050);
        assert!(
            after.normalized_entropy < before.normalized_entropy,
            "NE {} -> {}",
            before.normalized_entropy,
            after.normalized_entropy
        );
        assert!(after.logloss < before.logloss);
    }

    #[test]
    fn evaluation_is_deterministic() {
        let (ds, model) = setup();
        assert_eq!(
            evaluate(&model, &ds, 100, 110),
            evaluate(&model, &ds, 100, 110)
        );
    }

    #[test]
    fn entropy_function() {
        assert_eq!(entropy(0.0), 0.0);
        assert_eq!(entropy(1.0), 0.0);
        assert!((entropy(0.5) - std::f64::consts::LN_2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "empty evaluation range")]
    fn empty_range_panics() {
        let (ds, model) = setup();
        evaluate(&model, &ds, 5, 5);
    }
}
