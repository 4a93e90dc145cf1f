//! The DLRM-lite model: lookups → pooling → interaction → MLPs → logit.
//!
//! Architecture (Figure 1 of the paper, laptop-sized):
//!
//! ```text
//! dense x ──▶ bottom MLP ──▶ h ∈ R^dim ─┐
//! sparse idx[t] ──▶ table[t] mean-pool ─┴▶ concat ▶ top MLP ▶ logit ▶ σ
//! ```
//!
//! Training is mini-batch SGD on binary cross-entropy. Embedding-row updates
//! invoke a caller-supplied callback so the trainer can mark the
//! modification tracker — the paper's forward-pass tracking hook (§5.1.1).

use crate::config::{ModelConfig, OptimizerConfig};
use crate::mlp::{Mlp, MlpTrace};
use crate::table::{EmbeddingTable, TableViewMut};
use cnr_workload::teacher::sigmoid;
use cnr_workload::Batch;

/// Per-batch training statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchStats {
    /// Mean binary cross-entropy over the batch.
    pub loss: f64,
    /// Fraction of samples where `round(p) == label`.
    pub accuracy: f64,
    /// Number of embedding-row updates applied (with multiplicity).
    pub row_updates: usize,
}

/// The model.
#[derive(Debug, Clone, PartialEq)]
pub struct DlrmModel {
    config: ModelConfig,
    tables: Vec<EmbeddingTable>,
    bottom: Mlp,
    top: Mlp,
    iteration: u64,
}

impl DlrmModel {
    /// Builds a model from a validated config.
    pub fn new(config: ModelConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid model config: {e}"));
        let tables: Vec<EmbeddingTable> = config
            .tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                EmbeddingTable::new(
                    t.rows as usize,
                    t.dim,
                    config.seed ^ (i as u64),
                    0.05,
                    config.optimizer,
                )
            })
            .collect();
        let [(b_in, b_hidden, b_out), (t_in, t_hidden, t_out)] = config.mlp_shapes();
        let bottom = Mlp::new(b_in, b_hidden, b_out, config.seed ^ 0xB0);
        let top = Mlp::new(t_in, t_hidden, t_out, config.seed ^ 0x70);
        Self {
            config,
            tables,
            bottom,
            top,
            iteration: 0,
        }
    }

    /// The model's configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// Embedding tables (read access for checkpointing).
    pub fn tables(&self) -> &[EmbeddingTable] {
        &self.tables
    }

    /// Mutable embedding tables (checkpoint restore).
    pub fn tables_mut(&mut self) -> &mut [EmbeddingTable] {
        &mut self.tables
    }

    /// A mutable view of every table, in table order: the destination a
    /// restore decodes straight into.
    pub fn table_views_mut(&mut self) -> Vec<TableViewMut<'_>> {
        self.tables.iter_mut().map(EmbeddingTable::view_mut).collect()
    }

    /// Bottom MLP.
    pub fn bottom(&self) -> &Mlp {
        &self.bottom
    }

    /// Top MLP.
    pub fn top(&self) -> &Mlp {
        &self.top
    }

    /// Mutable MLP access (restore).
    pub fn mlps_mut(&mut self) -> (&mut Mlp, &mut Mlp) {
        (&mut self.bottom, &mut self.top)
    }

    /// Completed training iterations (batches).
    pub fn iteration(&self) -> u64 {
        self.iteration
    }

    /// Sets the iteration counter (restore).
    pub fn set_iteration(&mut self, it: u64) {
        self.iteration = it;
    }

    /// Predicted click probability per sample (inference).
    pub fn predict(&self, batch: &Batch) -> Vec<f32> {
        let dim = self.config.dim();
        let mut pooled = vec![0.0f32; dim];
        let mut features = vec![0.0f32; self.top.in_dim()];
        (0..batch.batch_size)
            .map(|s| {
                let h = self.bottom.infer(batch.dense_of(s));
                features[..dim].copy_from_slice(&h);
                for (t, table) in self.tables.iter().enumerate() {
                    table.pool_mean(batch.sparse_of(t, s), &mut pooled);
                    features[dim * (t + 1)..dim * (t + 2)].copy_from_slice(&pooled);
                }
                sigmoid(self.top.infer(&features)[0])
            })
            .collect()
    }

    /// One synchronous training step on `batch`.
    ///
    /// `on_row_update(table, row)` fires once per embedding row the backward
    /// pass writes — the hook the modification tracker attaches to.
    pub fn train_batch(
        &mut self,
        batch: &Batch,
        mut on_row_update: impl FnMut(usize, u32),
    ) -> BatchStats {
        debug_assert_eq!(batch.num_tables(), self.tables.len());
        let dim = self.config.dim();
        let lr = match self.config.optimizer {
            OptimizerConfig::Sgd { lr } => lr,
            OptimizerConfig::RowWiseAdagrad { lr, .. } => lr,
        };
        let opt = self.config.optimizer;

        let mut bottom_trace = MlpTrace::default();
        let mut top_trace = MlpTrace::default();
        let mut pooled = vec![0.0f32; dim];
        let mut features = vec![0.0f32; self.top.in_dim()];
        let mut grad_row = vec![0.0f32; dim];

        let mut loss = 0.0f64;
        let mut correct = 0usize;
        let mut row_updates = 0usize;

        for s in 0..batch.batch_size {
            // Forward.
            let h = self.bottom.forward(batch.dense_of(s), &mut bottom_trace);
            features[..dim].copy_from_slice(&h);
            for (t, table) in self.tables.iter().enumerate() {
                table.pool_mean(batch.sparse_of(t, s), &mut pooled);
                features[dim * (t + 1)..dim * (t + 2)].copy_from_slice(&pooled);
            }
            let logit = self.top.forward(&features, &mut top_trace)[0];
            let p = sigmoid(logit);
            let y = batch.labels[s];
            loss += bce(p, y);
            if (p >= 0.5) == (y >= 0.5) {
                correct += 1;
            }

            // Backward: dL/dlogit = p - y for BCE + sigmoid.
            let dlogit = p - y;
            let dfeatures = self.top.backward(&top_trace, &[dlogit]);
            // Bottom MLP gradient flows through the first `dim` features.
            self.bottom.backward(&bottom_trace, &dfeatures[..dim]);
            // Embedding gradients: each table's pooled slice, divided among
            // its contributing rows (mean pooling).
            for (t, table) in self.tables.iter_mut().enumerate() {
                let idx = batch.sparse_of(t, s);
                if idx.is_empty() {
                    continue;
                }
                let dslice = &dfeatures[dim * (t + 1)..dim * (t + 2)];
                let inv = 1.0 / idx.len() as f32;
                for (g, d) in grad_row.iter_mut().zip(dslice) {
                    *g = d * inv;
                }
                for &row in idx {
                    table.apply_grad(row as usize, &grad_row, opt);
                    on_row_update(t, row);
                    row_updates += 1;
                }
            }
        }

        // Apply accumulated MLP gradients once per batch (synchronous SGD:
        // this is the per-batch AllReduce equivalent).
        self.bottom.apply_grads(lr, batch.batch_size);
        self.top.apply_grads(lr, batch.batch_size);
        self.iteration += 1;

        BatchStats {
            loss: loss / batch.batch_size as f64,
            accuracy: correct as f64 / batch.batch_size as f64,
            row_updates,
        }
    }

    /// Total checkpointable bytes (embeddings dominate, §2.1).
    pub fn state_bytes(&self) -> usize {
        let emb: usize = self.tables.iter().map(|t| t.state_bytes()).sum();
        emb + (self.bottom.param_count() + self.top.param_count()) * 4
    }

    /// A content hash of the full model state, for bit-exactness assertions.
    pub fn state_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64; // FNV offset basis
        let mut feed = |x: f32| {
            for b in x.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        };
        for t in &self.tables {
            for &v in t.data() {
                feed(v);
            }
            if let Some(acc) = t.adagrad() {
                for &v in acc {
                    feed(v);
                }
            }
        }
        for v in self.bottom.flatten() {
            feed(v);
        }
        for v in self.top.flatten() {
            feed(v);
        }
        h ^= self.iteration;
        h
    }
}

/// Binary cross-entropy of prediction `p` against label `y`, clamped away
/// from 0/1 for numerical safety.
fn bce(p: f32, y: f32) -> f64 {
    let p = (p as f64).clamp(1e-7, 1.0 - 1e-7);
    let y = y as f64;
    -(y * p.ln() + (1.0 - y) * (1.0 - p).ln())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnr_workload::{DatasetSpec, SyntheticDataset};

    /// The config's parameter counts are what the built MLPs flatten to,
    /// whatever the hidden layers.
    #[test]
    fn config_counts_the_mlps_parameters() {
        for (dim, bottom_hidden, top_hidden) in
            [(8, vec![16], vec![16, 8]), (4, vec![], vec![]), (16, vec![3, 5, 7], vec![2])]
        {
            let config = ModelConfig {
                bottom_hidden,
                top_hidden,
                ..ModelConfig::for_dataset(&DatasetSpec::tiny(5), dim)
            };
            let model = DlrmModel::new(config.clone());
            let built = (model.bottom().flatten().len(), model.top().flatten().len());
            assert_eq!(config.mlp_param_counts(), built, "dim {dim}");
        }
    }

    /// Mean BCE of `m`'s predictions on `batch` (no parameter updates).
    fn loss_on(m: &DlrmModel, batch: &Batch) -> f64 {
        let preds = m.predict(batch);
        preds
            .iter()
            .zip(&batch.labels)
            .map(|(&p, &y)| bce(p, y))
            .sum::<f64>()
            / batch.batch_size as f64
    }

    fn tiny_setup() -> (SyntheticDataset, DlrmModel) {
        let spec = DatasetSpec::tiny(42);
        let ds = SyntheticDataset::new(spec.clone());
        let model = DlrmModel::new(ModelConfig::for_dataset(&spec, 8));
        (ds, model)
    }

    #[test]
    fn construction_matches_dataset() {
        let (ds, model) = tiny_setup();
        assert_eq!(model.tables().len(), ds.spec().tables.len());
        assert_eq!(model.tables()[0].rows() as u64, ds.spec().tables[0].rows);
    }

    #[test]
    fn predictions_are_probabilities() {
        let (ds, model) = tiny_setup();
        for p in model.predict(&ds.batch(0)) {
            assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn training_reduces_loss() {
        let (ds, mut model) = tiny_setup();
        // Evaluate on held-out batches before/after training.
        let eval = |m: &DlrmModel| -> f64 {
            (1000..1010).map(|i| loss_on(m, &ds.batch(i))).sum::<f64>() / 10.0
        };
        let before = eval(&model);
        for i in 0..400 {
            model.train_batch(&ds.batch(i), |_, _| {});
        }
        let after = eval(&model);
        assert!(
            after < before - 0.01,
            "training failed to learn: {before} -> {after}"
        );
    }

    #[test]
    fn row_update_callback_matches_batch_indices() {
        let (ds, mut model) = tiny_setup();
        let batch = ds.batch(3);
        let mut seen: Vec<(usize, u32)> = Vec::new();
        let stats = model.train_batch(&batch, |t, r| seen.push((t, r)));
        assert_eq!(stats.row_updates, seen.len());
        let lookups: usize = batch.sparse.iter().map(Vec::len).sum();
        assert_eq!(seen.len(), lookups);
        // Every reported row must actually appear in the batch.
        for (t, r) in seen {
            assert!(batch.sparse[t].contains(&r));
        }
    }

    #[test]
    fn train_is_deterministic() {
        let (ds, mut m1) = tiny_setup();
        let (_, mut m2) = tiny_setup();
        assert_eq!(m1.state_hash(), m2.state_hash());
        for i in 0..20 {
            m1.train_batch(&ds.batch(i), |_, _| {});
            m2.train_batch(&ds.batch(i), |_, _| {});
        }
        assert_eq!(m1.state_hash(), m2.state_hash(), "training must be deterministic");
    }

    #[test]
    fn state_hash_sensitive_to_any_weight() {
        let (_, mut model) = tiny_setup();
        let h0 = model.state_hash();
        model.tables_mut()[0].row_mut(5)[0] += 1e-4;
        assert_ne!(model.state_hash(), h0);
    }

    #[test]
    fn iteration_counts_batches() {
        let (ds, mut model) = tiny_setup();
        assert_eq!(model.iteration(), 0);
        model.train_batch(&ds.batch(0), |_, _| {});
        model.train_batch(&ds.batch(1), |_, _| {});
        assert_eq!(model.iteration(), 2);
    }

    #[test]
    fn embeddings_dominate_state_bytes() {
        let spec = DatasetSpec::medium(1);
        let model = DlrmModel::new(ModelConfig::for_dataset(&spec, 16));
        let emb_bytes: usize = model.tables().iter().map(|t| t.state_bytes()).sum();
        let frac = emb_bytes as f64 / model.state_bytes() as f64;
        assert!(frac > 0.99, "embeddings are {frac} of state; paper says >99%");
    }

    #[test]
    fn adagrad_model_trains_too() {
        let spec = DatasetSpec::tiny(9);
        let ds = SyntheticDataset::new(spec.clone());
        let mut cfg = ModelConfig::for_dataset(&spec, 8);
        cfg.optimizer = OptimizerConfig::RowWiseAdagrad { lr: 0.03, eps: 1e-6 };
        let mut model = DlrmModel::new(cfg);
        let before: f64 = (500..520).map(|i| loss_on(&model, &ds.batch(i))).sum();
        for i in 0..400 {
            model.train_batch(&ds.batch(i), |_, _| {});
        }
        let after: f64 = (500..520).map(|i| loss_on(&model, &ds.batch(i))).sum();
        assert!(after < before, "AdaGrad training should learn: {before} -> {after}");
    }
}
