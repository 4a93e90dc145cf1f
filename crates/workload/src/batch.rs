//! A mini-batch of training samples.
//!
//! The layout mirrors how DLRM-style trainers consume data: one dense feature
//! block, one multi-hot sparse index block per embedding table, and one label
//! per sample. Everything is stored flattened for cache friendliness; the
//! accessors recover per-sample views.

/// One mini-batch of CTR training samples.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Global index of this batch within its dataset (0-based).
    pub index: u64,
    /// Number of samples in the batch.
    pub batch_size: usize,
    /// Dense feature dimensionality per sample.
    pub dense_dim: usize,
    /// Multi-hot lookups per table per sample (`hot[t]` indices per sample).
    pub hot: Vec<usize>,
    /// Flattened dense features, `batch_size * dense_dim`.
    pub dense: Vec<f32>,
    /// Per table: flattened sparse indices, `batch_size * hot[t]`.
    pub sparse: Vec<Vec<u32>>,
    /// Binary labels in `{0.0, 1.0}`, one per sample.
    pub labels: Vec<f32>,
}

impl Batch {
    /// Dense feature slice of sample `i`.
    #[inline]
    pub fn dense_of(&self, i: usize) -> &[f32] {
        let d = self.dense_dim;
        &self.dense[i * d..(i + 1) * d]
    }

    /// Sparse indices of sample `i` into table `t`.
    #[inline]
    pub fn sparse_of(&self, t: usize, i: usize) -> &[u32] {
        let h = self.hot[t];
        &self.sparse[t][i * h..(i + 1) * h]
    }

    /// Number of embedding tables this batch addresses.
    #[inline]
    pub fn num_tables(&self) -> usize {
        self.sparse.len()
    }

    /// Validates internal consistency (lengths agree with the header fields).
    ///
    /// Used by tests and by the reader tier after deserialization.
    pub fn validate(&self) -> Result<(), String> {
        if self.dense.len() != self.batch_size * self.dense_dim {
            return Err(format!(
                "dense len {} != batch_size {} * dense_dim {}",
                self.dense.len(),
                self.batch_size,
                self.dense_dim
            ));
        }
        if self.labels.len() != self.batch_size {
            return Err(format!(
                "labels len {} != batch_size {}",
                self.labels.len(),
                self.batch_size
            ));
        }
        if self.sparse.len() != self.hot.len() {
            return Err(format!(
                "sparse tables {} != hot spec {}",
                self.sparse.len(),
                self.hot.len()
            ));
        }
        for (t, (idx, h)) in self.sparse.iter().zip(self.hot.iter()).enumerate() {
            if idx.len() != self.batch_size * h {
                return Err(format!(
                    "table {t}: sparse len {} != batch_size {} * hot {}",
                    idx.len(),
                    self.batch_size,
                    h
                ));
            }
        }
        for &l in &self.labels {
            if l != 0.0 && l != 1.0 {
                return Err(format!("label {l} is not binary"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_batch() -> Batch {
        Batch {
            index: 5,
            batch_size: 2,
            dense_dim: 3,
            hot: vec![2, 1],
            dense: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            sparse: vec![vec![1, 2, 3, 4], vec![9, 8]],
            labels: vec![1.0, 0.0],
        }
    }

    #[test]
    fn accessors_slice_correctly() {
        let b = tiny_batch();
        assert_eq!(b.dense_of(0), &[0.1, 0.2, 0.3]);
        assert_eq!(b.dense_of(1), &[0.4, 0.5, 0.6]);
        assert_eq!(b.sparse_of(0, 0), &[1, 2]);
        assert_eq!(b.sparse_of(0, 1), &[3, 4]);
        assert_eq!(b.sparse_of(1, 1), &[8]);
        assert_eq!(b.num_tables(), 2);
    }

    #[test]
    fn validate_accepts_consistent_batch() {
        assert!(tiny_batch().validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_dense_len() {
        let mut b = tiny_batch();
        b.dense.pop();
        assert!(b.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_sparse_len() {
        let mut b = tiny_batch();
        b.sparse[1].pop();
        assert!(b.validate().is_err());
    }

    #[test]
    fn validate_rejects_non_binary_label() {
        let mut b = tiny_batch();
        b.labels[0] = 0.5;
        assert!(b.validate().is_err());
    }
}
