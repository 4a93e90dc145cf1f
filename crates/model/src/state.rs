//! Complete checkpointable model state.
//!
//! [`ModelState`] is the in-memory snapshot the Check-N-Run engine copies out
//! of the (simulated) devices while training is stalled (§4.2): embedding
//! weights, optimizer accumulators, MLP parameters, and the iteration
//! counter. (A checkpoint snapshot holds no tables — it borrows the
//! model's, see `cnr_core::snapshot`; a restored state's hold every row.)
//! Extraction and restoration are exact (bit-level) so that unquantized
//! checkpoints provably lose nothing.

use crate::dlrm::DlrmModel;
use crate::table::{TableView, TableViewMut};

/// Snapshot of one embedding table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableState {
    /// Row-major weights.
    pub data: Vec<f32>,
    /// Row-wise AdaGrad accumulators, when present.
    pub adagrad: Option<Vec<f32>>,
}

impl TableState {
    /// An all-zero table of `rows × dim`, with accumulators iff
    /// `has_optimizer_state`.
    pub fn zeroed(rows: usize, dim: usize, has_optimizer_state: bool) -> Self {
        Self {
            data: vec![0.0; rows * dim],
            adagrad: has_optimizer_state.then(|| vec![0.0; rows]),
        }
    }

    /// Weights and accumulators together (checkpoint write).
    pub fn view(&self) -> TableView<'_> {
        TableView { data: &self.data, adagrad: self.adagrad.as_deref() }
    }

    /// Weights and accumulators together, mutably (checkpoint restore).
    pub fn view_mut(&mut self) -> TableViewMut<'_> {
        TableViewMut {
            data: &mut self.data,
            adagrad: self.adagrad.as_deref_mut(),
        }
    }
}

/// Snapshot of the full model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelState {
    /// Per-table snapshots, index-aligned with the model's tables.
    pub tables: Vec<TableState>,
    /// Flattened bottom-MLP parameters.
    pub bottom: Vec<f32>,
    /// Flattened top-MLP parameters.
    pub top: Vec<f32>,
    /// Training iteration (batch count) at snapshot time.
    pub iteration: u64,
}

impl ModelState {
    /// Copies the full state out of a model.
    ///
    /// No engine code calls this: a checkpoint snapshot borrows the
    /// model's tables (`cnr_core::snapshot`), and a restore decodes into
    /// the model in place. It is the whole-model oracle the tests
    /// compare both against.
    pub fn extract(model: &DlrmModel) -> Self {
        Self {
            tables: model
                .tables()
                .iter()
                .map(|t| TableState {
                    data: t.data().to_vec(),
                    adagrad: t.adagrad().map(|a| a.to_vec()),
                })
                .collect(),
            bottom: model.bottom().flatten(),
            top: model.top().flatten(),
            iteration: model.iteration(),
        }
    }

    /// Restores this state into `model`. Panics on shape mismatch — loading
    /// a checkpoint into the wrong architecture must never proceed silently.
    pub fn restore(&self, model: &mut DlrmModel) {
        assert_eq!(
            self.tables.len(),
            model.tables().len(),
            "checkpoint table count mismatch"
        );
        for (snap, table) in self.tables.iter().zip(model.tables_mut()) {
            assert_eq!(
                snap.data.len(),
                table.data().len(),
                "checkpoint table shape mismatch"
            );
            table.data_mut().copy_from_slice(&snap.data);
            match (&snap.adagrad, table.adagrad_mut()) {
                (Some(src), Some(dst)) => dst.copy_from_slice(src),
                (None, None) => {}
                _ => panic!("checkpoint optimizer state mismatch"),
            }
        }
        self.restore_dense(model);
    }

    /// Restores everything but the embedding tables — the MLPs and the
    /// iteration counter — into `model`: the rest of [`Self::restore`] for
    /// a caller whose tables were already written in place.
    pub fn restore_dense(&self, model: &mut DlrmModel) {
        let (bottom, top) = model.mlps_mut();
        bottom.unflatten(&self.bottom);
        top.unflatten(&self.top);
        model.set_iteration(self.iteration);
    }

    /// Total bytes of this snapshot.
    pub fn byte_size(&self) -> usize {
        let emb: usize = self
            .tables
            .iter()
            .map(|t| t.data.len() * 4 + t.adagrad.as_ref().map_or(0, |a| a.len() * 4))
            .sum();
        emb + (self.bottom.len() + self.top.len()) * 4 + 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ModelConfig, OptimizerConfig};
    use cnr_workload::{DatasetSpec, SyntheticDataset};

    fn trained_model(steps: u64) -> (SyntheticDataset, DlrmModel) {
        let spec = DatasetSpec::tiny(17);
        let ds = SyntheticDataset::new(spec.clone());
        let mut model = DlrmModel::new(ModelConfig::for_dataset(&spec, 8));
        for i in 0..steps {
            model.train_batch(&ds.batch(i), |_, _| {});
        }
        (ds, model)
    }

    #[test]
    fn extract_restore_is_bit_exact() {
        let (ds, mut model) = trained_model(50);
        let state = ModelState::extract(&model);
        let hash_before = model.state_hash();
        // Diverge the model, then restore.
        for i in 50..80 {
            model.train_batch(&ds.batch(i), |_, _| {});
        }
        assert_ne!(model.state_hash(), hash_before);
        state.restore(&mut model);
        assert_eq!(model.state_hash(), hash_before, "restore must be bit-exact");
    }

    #[test]
    fn restored_model_continues_identically() {
        // Train A 50 steps, snapshot, train A to 60.
        // Restore into B, train B 50->60 with the same batches: identical.
        let (ds, mut a) = trained_model(50);
        let state = ModelState::extract(&a);
        for i in 50..60 {
            a.train_batch(&ds.batch(i), |_, _| {});
        }
        let spec = DatasetSpec::tiny(17);
        let mut b = DlrmModel::new(ModelConfig::for_dataset(&spec, 8));
        state.restore(&mut b);
        for i in 50..60 {
            b.train_batch(&ds.batch(i), |_, _| {});
        }
        assert_eq!(a.state_hash(), b.state_hash());
    }

    #[test]
    fn byte_size_matches_model_accounting() {
        let (_, model) = trained_model(1);
        let state = ModelState::extract(&model);
        // iteration counter adds 8 bytes over the model's state_bytes.
        assert_eq!(state.byte_size(), model.state_bytes() + 8);
    }

    #[test]
    #[should_panic(expected = "table count mismatch")]
    fn restore_into_wrong_model_panics() {
        let (_, model) = trained_model(1);
        let state = ModelState::extract(&model);
        let mut other = DlrmModel::new(ModelConfig::for_dataset(&DatasetSpec::medium(3), 8));
        state.restore(&mut other);
    }

    #[test]
    fn adagrad_state_roundtrips() {
        let spec = DatasetSpec::tiny(5);
        let ds = SyntheticDataset::new(spec.clone());
        let mut cfg = ModelConfig::for_dataset(&spec, 8);
        cfg.optimizer = OptimizerConfig::RowWiseAdagrad { lr: 0.1, eps: 1e-8 };
        let mut model = DlrmModel::new(cfg);
        for i in 0..20 {
            model.train_batch(&ds.batch(i), |_, _| {});
        }
        let state = ModelState::extract(&model);
        assert!(state.tables[0].adagrad.is_some());
        let h = model.state_hash();
        model.tables_mut()[0].adagrad_mut().unwrap()[0] += 1.0;
        assert_ne!(model.state_hash(), h, "hash must cover optimizer state");
        state.restore(&mut model);
        assert_eq!(model.state_hash(), h);
    }
}
