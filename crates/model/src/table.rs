//! Embedding tables.
//!
//! Row-major f32 storage. >99% of a recommendation model's bytes live here
//! (§2.1), which is why Check-N-Run's incremental tracking and quantization
//! both operate at embedding-row granularity.

use crate::config::OptimizerConfig;
use cnr_workload::mix_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One embedding table with optional row-wise AdaGrad state.
#[derive(Debug, Clone, PartialEq)]
pub struct EmbeddingTable {
    dim: usize,
    data: Vec<f32>,
    /// Row-wise AdaGrad accumulators (one per row) when the optimizer needs
    /// them. Checkpointed together with the weights.
    adagrad: Option<Vec<f32>>,
}

/// Read-only view of one table's checkpointable state — what a checkpoint
/// writer encodes from; [`TableViewMut`] is its mutable twin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TableView<'a> {
    /// Row-major weights.
    pub data: &'a [f32],
    /// Row-wise AdaGrad accumulators, when the table keeps them.
    pub adagrad: Option<&'a [f32]>,
}

/// Mutable view of one table's checkpointable state — what a restore
/// writes into. A live [`EmbeddingTable`] and a detached
/// [`crate::state::TableState`] both lend one of each, so the recovery path
/// decodes into either without knowing which it has.
#[derive(Debug)]
pub struct TableViewMut<'a> {
    /// Row-major weights.
    pub data: &'a mut [f32],
    /// Row-wise AdaGrad accumulators, when the table keeps them.
    pub adagrad: Option<&'a mut [f32]>,
}

impl EmbeddingTable {
    /// Creates a table of `rows × dim`, initialized uniformly in
    /// `[-init_scale, init_scale)` from a deterministic seed.
    pub fn new(rows: usize, dim: usize, seed: u64, init_scale: f32, opt: OptimizerConfig) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert!(init_scale >= 0.0, "init_scale must be non-negative");
        let mut rng = StdRng::seed_from_u64(mix_seed(seed, rows as u64 ^ 0xE9B));
        let data = if init_scale > 0.0 {
            (0..rows * dim)
                .map(|_| rng.gen_range(-init_scale..init_scale))
                .collect()
        } else {
            vec![0.0; rows * dim]
        };
        let adagrad = opt.has_state().then(|| vec![0.0f32; rows]);
        Self { dim, data, adagrad }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Immutable view of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Mutable view of row `i`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// The whole table, row-major.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the whole table (used by checkpoint restore).
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// AdaGrad accumulators, if the optimizer keeps them.
    pub fn adagrad(&self) -> Option<&[f32]> {
        self.adagrad.as_deref()
    }

    /// Mutable AdaGrad accumulators (checkpoint restore).
    pub fn adagrad_mut(&mut self) -> Option<&mut [f32]> {
        self.adagrad.as_deref_mut()
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

    /// Applies a gradient to row `i` under the given optimizer.
    pub fn apply_grad(&mut self, i: usize, grad: &[f32], opt: OptimizerConfig) {
        debug_assert_eq!(grad.len(), self.dim);
        match opt {
            OptimizerConfig::Sgd { lr } => {
                let row = self.row_mut(i);
                for (w, g) in row.iter_mut().zip(grad) {
                    *w -= lr * g;
                }
            }
            OptimizerConfig::RowWiseAdagrad { lr, eps } => {
                let g_sq_mean =
                    grad.iter().map(|g| g * g).sum::<f32>() / self.dim as f32;
                let acc = self
                    .adagrad
                    .as_mut()
                    .expect("AdaGrad optimizer requires accumulator state");
                acc[i] += g_sq_mean;
                let step = lr / (acc[i].sqrt() + eps);
                let row = &mut self.data[i * self.dim..(i + 1) * self.dim];
                for (w, g) in row.iter_mut().zip(grad) {
                    *w -= step * g;
                }
            }
        }
    }

    /// Mean-pools the rows at `indices` into `out` (multi-hot lookup).
    pub fn pool_mean(&self, indices: &[u32], out: &mut [f32]) {
        debug_assert_eq!(out.len(), self.dim);
        out.fill(0.0);
        if indices.is_empty() {
            return;
        }
        for &idx in indices {
            let row = self.row(idx as usize);
            for (o, v) in out.iter_mut().zip(row) {
                *o += v;
            }
        }
        let inv = 1.0 / indices.len() as f32;
        for o in out.iter_mut() {
            *o *= inv;
        }
    }

    /// Bytes of checkpointable state (weights + optimizer state).
    pub fn state_bytes(&self) -> usize {
        self.data.len() * 4 + self.adagrad.as_ref().map_or(0, |a| a.len() * 4)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SGD: OptimizerConfig = OptimizerConfig::Sgd { lr: 0.1 };
    const ADA: OptimizerConfig = OptimizerConfig::RowWiseAdagrad { lr: 0.1, eps: 1e-8 };

    #[test]
    fn init_is_deterministic_and_bounded() {
        let a = EmbeddingTable::new(10, 4, 42, 0.05, SGD);
        let b = EmbeddingTable::new(10, 4, 42, 0.05, SGD);
        assert_eq!(a, b);
        assert!(a.data().iter().all(|v| v.abs() <= 0.05));
        let c = EmbeddingTable::new(10, 4, 43, 0.05, SGD);
        assert_ne!(a, c);
    }

    #[test]
    fn sgd_update_moves_against_gradient() {
        let mut t = EmbeddingTable::new(4, 3, 1, 0.0, SGD);
        t.apply_grad(2, &[1.0, -2.0, 0.5], SGD);
        assert_eq!(t.row(2), &[-0.1, 0.2, -0.05]);
        // Other rows untouched.
        assert_eq!(t.row(0), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn adagrad_steps_shrink_over_time() {
        let mut t = EmbeddingTable::new(2, 2, 1, 0.0, ADA);
        t.apply_grad(0, &[1.0, 1.0], ADA);
        let first = t.row(0)[0].abs();
        let before = t.row(0)[0];
        t.apply_grad(0, &[1.0, 1.0], ADA);
        let second = (t.row(0)[0] - before).abs();
        assert!(second < first, "AdaGrad steps must shrink: {first} -> {second}");
        assert!(t.adagrad().unwrap()[0] > 0.0);
        assert_eq!(t.adagrad().unwrap()[1], 0.0, "row 1 never updated");
    }

    #[test]
    fn pool_mean_averages_rows() {
        let mut t = EmbeddingTable::new(3, 2, 1, 0.0, SGD);
        t.row_mut(0).copy_from_slice(&[1.0, 2.0]);
        t.row_mut(1).copy_from_slice(&[3.0, 4.0]);
        let mut out = [0.0f32; 2];
        t.pool_mean(&[0, 1], &mut out);
        assert_eq!(out, [2.0, 3.0]);
        // Single index is identity.
        t.pool_mean(&[1], &mut out);
        assert_eq!(out, [3.0, 4.0]);
        // Empty pooling zeroes.
        t.pool_mean(&[], &mut out);
        assert_eq!(out, [0.0, 0.0]);
    }

    #[test]
    fn state_bytes_counts_optimizer_state() {
        let sgd = EmbeddingTable::new(10, 4, 1, 0.1, SGD);
        let ada = EmbeddingTable::new(10, 4, 1, 0.1, ADA);
        assert_eq!(sgd.state_bytes(), 160);
        assert_eq!(ada.state_bytes(), 160 + 40);
    }

    #[test]
    #[should_panic(expected = "AdaGrad optimizer requires accumulator state")]
    fn adagrad_update_without_state_panics() {
        let mut t = EmbeddingTable::new(2, 2, 1, 0.0, SGD);
        t.apply_grad(0, &[1.0, 1.0], ADA);
    }
}
