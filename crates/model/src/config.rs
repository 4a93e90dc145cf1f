//! Model configuration.

use cnr_workload::DatasetSpec;

/// Shape of one embedding table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TableSpec {
    /// Number of rows (categories).
    pub rows: u64,
    /// Embedding dimensionality.
    pub dim: usize,
}

/// Optimizer for the embedding tables (MLPs always use plain SGD; embedding
/// optimizer state is what matters for checkpoint size).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OptimizerConfig {
    /// Plain SGD with a learning rate.
    Sgd {
        /// Learning rate.
        lr: f32,
    },
    /// Row-wise AdaGrad (DLRM's standard embedding optimizer): one
    /// accumulator per row.
    RowWiseAdagrad {
        /// Learning rate.
        lr: f32,
        /// Division guard.
        eps: f32,
    },
}

impl OptimizerConfig {
    /// Whether this optimizer carries per-row state that must be
    /// checkpointed.
    pub fn has_state(&self) -> bool {
        matches!(self, OptimizerConfig::RowWiseAdagrad { .. })
    }
}

/// Full model configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Embedding tables, index-aligned with the dataset's sparse features.
    pub tables: Vec<TableSpec>,
    /// Dense feature dimensionality.
    pub dense_dim: usize,
    /// Bottom MLP hidden sizes; its output dimension always equals the
    /// embedding dim so features interact in one space.
    pub bottom_hidden: Vec<usize>,
    /// Top MLP hidden sizes; output is always 1 logit.
    pub top_hidden: Vec<usize>,
    /// Weight-initialization seed.
    pub seed: u64,
    /// Embedding optimizer.
    pub optimizer: OptimizerConfig,
}

impl ModelConfig {
    /// Builds a config whose tables match `spec`'s sparse features, with the
    /// given embedding dimension.
    pub fn for_dataset(spec: &DatasetSpec, dim: usize) -> Self {
        Self {
            tables: spec
                .tables
                .iter()
                .map(|t| TableSpec { rows: t.rows, dim })
                .collect(),
            dense_dim: spec.dense_dim,
            bottom_hidden: vec![dim * 2],
            top_hidden: vec![dim * 2, dim],
            seed: spec.seed ^ MODEL_SEED_STREAM,
            optimizer: OptimizerConfig::Sgd { lr: 0.05 },
        }
    }

    /// Embedding dimension (all tables share one dim).
    pub fn dim(&self) -> usize {
        self.tables.first().map(|t| t.dim).unwrap_or(0)
    }

    /// Total embedding parameters.
    pub fn embedding_params(&self) -> u64 {
        self.tables.iter().map(|t| t.rows * t.dim as u64).sum()
    }

    /// Embedding bytes at FP32 (the ">99% of model size" the paper cites).
    pub fn embedding_bytes(&self) -> u64 {
        self.embedding_params() * 4
    }

    /// `(input, hidden, output)` sizes of the bottom and top MLPs of a
    /// model built from this config: the bottom maps the dense features to
    /// the embedding dim, the top maps the concatenated features (bottom
    /// output and one pooled embedding per table) to one logit.
    pub fn mlp_shapes(&self) -> [(usize, &[usize], usize); 2] {
        let dim = self.dim();
        [
            (self.dense_dim, &self.bottom_hidden, dim),
            (dim * (self.tables.len() + 1), &self.top_hidden, 1),
        ]
    }

    /// Parameters of the bottom and top MLPs of a model built from this
    /// config: the lengths `Mlp::flatten` returns for each.
    pub fn mlp_param_counts(&self) -> (usize, usize) {
        let params = |(input, hidden, output): (usize, &[usize], usize)| {
            let mut prev = input;
            let mut total = 0;
            for &h in hidden.iter().chain([&output]) {
                total += prev * h + h;
                prev = h;
            }
            total
        };
        let [bottom, top] = self.mlp_shapes();
        (params(bottom), params(top))
    }

    /// Row counts per table, as used by trackers and coverage analyzers.
    pub fn row_counts(&self) -> Vec<usize> {
        self.tables.iter().map(|t| t.rows as usize).collect()
    }

    /// Validates internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.tables.is_empty() {
            return Err("model needs at least one embedding table".into());
        }
        let dim = self.tables[0].dim;
        if dim == 0 {
            return Err("embedding dim must be positive".into());
        }
        if self.tables.iter().any(|t| t.dim != dim) {
            return Err("all tables must share one embedding dim".into());
        }
        if self.tables.iter().any(|t| t.rows == 0) {
            return Err("tables must have at least one row".into());
        }
        if self.dense_dim == 0 {
            return Err("dense_dim must be positive".into());
        }
        Ok(())
    }
}

/// Seed stream reserved for model weight initialization.
const MODEL_SEED_STREAM: u64 = 0x5EED_0D31;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn for_dataset_aligns_tables() {
        let spec = DatasetSpec::tiny(7);
        let cfg = ModelConfig::for_dataset(&spec, 8);
        assert_eq!(cfg.tables.len(), spec.tables.len());
        assert_eq!(cfg.tables[0].rows, spec.tables[0].rows);
        assert_eq!(cfg.dim(), 8);
        assert_eq!(cfg.dense_dim, spec.dense_dim);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn embedding_accounting() {
        let cfg = ModelConfig {
            tables: vec![
                TableSpec { rows: 100, dim: 4 },
                TableSpec { rows: 50, dim: 4 },
            ],
            dense_dim: 3,
            bottom_hidden: vec![8],
            top_hidden: vec![8],
            seed: 1,
            optimizer: OptimizerConfig::Sgd { lr: 0.1 },
        };
        assert_eq!(cfg.embedding_params(), 600);
        assert_eq!(cfg.embedding_bytes(), 2400);
        assert_eq!(cfg.row_counts(), vec![100, 50]);
    }

    #[test]
    fn validate_catches_mismatched_dims() {
        let mut cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(1), 8);
        cfg.tables[1].dim = 16;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn validate_catches_empty_model() {
        let mut cfg = ModelConfig::for_dataset(&DatasetSpec::tiny(1), 8);
        cfg.tables.clear();
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn optimizer_state_flag() {
        assert!(!OptimizerConfig::Sgd { lr: 0.1 }.has_state());
        assert!(OptimizerConfig::RowWiseAdagrad { lr: 0.1, eps: 1e-8 }.has_state());
    }
}
