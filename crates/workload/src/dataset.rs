//! Deterministic synthetic CTR dataset.
//!
//! `SyntheticDataset::batch(i)` always returns the same contents for the same
//! `(spec, i)` pair, on any machine, in any order. Determinism is not a
//! convenience here — it is what makes the paper's reader/trainer consistency
//! protocol (§4.1) *testable*: after restoring a checkpoint that says "the
//! reader had produced N batches", re-reading from batch N must continue the
//! exact sample stream the failed run would have seen.

use crate::batch::Batch;
use crate::mix_seed;
use crate::teacher::TeacherModel;
use crate::zipf::ZipfSampler;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Access pattern of one embedding table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableAccessSpec {
    /// Number of rows in the table.
    pub rows: u64,
    /// Multi-hot lookups per sample (e.g. 1 for "user id", 20 for "recent posts").
    pub hot: usize,
    /// Zipf exponent of the row-popularity distribution.
    pub zipf_exponent: f64,
    /// Fraction of rows that are ever accessed, in `(0, 1]`. Production
    /// tables carry a large dead mass — categories provisioned but never
    /// seen — which is why the paper's Figure 5 coverage saturates near 52%
    /// instead of approaching 100%.
    pub active_fraction: f64,
}

impl TableAccessSpec {
    /// Convenience constructor with every row active.
    pub fn new(rows: u64, hot: usize, zipf_exponent: f64) -> Self {
        Self {
            rows,
            hot,
            zipf_exponent,
            active_fraction: 1.0,
        }
    }

    /// Limits the ever-accessed set to a fraction of rows.
    pub fn with_active_fraction(mut self, f: f64) -> Self {
        assert!(f > 0.0 && f <= 1.0, "active_fraction must be in (0,1]: {f}");
        self.active_fraction = f;
        self
    }

    /// Number of rows that can ever be accessed (zero only for degenerate
    /// zero-row tables, which dataset construction rejects).
    pub fn active_rows(&self) -> u64 {
        if self.rows == 0 {
            return 0;
        }
        ((self.rows as f64 * self.active_fraction).round() as u64).clamp(1, self.rows)
    }
}

/// Bijectively spreads indices `[0, active)` across `[0, rows)` so the
/// active set is not a contiguous prefix (a multiplicative stride coprime
/// with `rows`).
#[derive(Debug, Clone, Copy)]
pub(crate) struct SpreadMap {
    rows: u64,
    stride: u64,
}

impl SpreadMap {
    pub(crate) fn new(rows: u64) -> Self {
        // Knuth's multiplicative constant, bumped until coprime with rows.
        let mut stride = 2_654_435_761u64 % rows.max(1);
        if stride == 0 {
            stride = 1;
        }
        while gcd(stride, rows) != 1 {
            stride += 1;
        }
        Self { rows, stride }
    }

    #[inline]
    pub(crate) fn map(&self, i: u64) -> u64 {
        (i as u128 * self.stride as u128 % self.rows as u128) as u64
    }
}

fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Full specification of a synthetic dataset. Two datasets built from equal
/// specs are identical sample-for-sample.
#[derive(Debug, Clone, PartialEq)]
pub struct DatasetSpec {
    /// Master seed; every batch derives its own RNG from this.
    pub seed: u64,
    /// Samples per batch.
    pub batch_size: usize,
    /// Dense features per sample.
    pub dense_dim: usize,
    /// One entry per embedding table.
    pub tables: Vec<TableAccessSpec>,
    /// Seed of the hidden ground-truth concept (teacher model). Defaults to
    /// `seed`. Setting it separately models *domain shift*: two datasets
    /// with the same `concept_seed` but different `seed`s share the label
    /// function while drawing different samples — the transfer-learning
    /// scenario of the paper's §1.
    pub concept_seed: Option<u64>,
}

impl DatasetSpec {
    /// A small spec suitable for unit tests: 2 tables, tiny batch.
    pub fn tiny(seed: u64) -> Self {
        Self {
            seed,
            batch_size: 8,
            dense_dim: 4,
            tables: vec![
                TableAccessSpec::new(1000, 2, 1.05),
                TableAccessSpec::new(500, 1, 0.9),
            ],
            concept_seed: None,
        }
    }

    /// A medium spec used by integration tests and examples.
    pub fn medium(seed: u64) -> Self {
        Self {
            seed,
            batch_size: 128,
            dense_dim: 13,
            tables: vec![
                TableAccessSpec::new(200_000, 1, 1.05),
                TableAccessSpec::new(100_000, 4, 1.0),
                TableAccessSpec::new(50_000, 2, 0.95),
                TableAccessSpec::new(20_000, 1, 1.1),
            ],
            concept_seed: None,
        }
    }

    /// The seed of the hidden concept (teacher model).
    pub fn effective_concept_seed(&self) -> u64 {
        self.concept_seed.unwrap_or(self.seed)
    }
}

/// Deterministic synthetic dataset; cheap to clone (samplers are small).
#[derive(Debug, Clone)]
pub struct SyntheticDataset {
    spec: DatasetSpec,
    samplers: Vec<ZipfSampler>,
    spreads: Vec<SpreadMap>,
    teacher: TeacherModel,
}

impl SyntheticDataset {
    /// Builds the dataset. Panics if any table spec is degenerate, because a
    /// dataset that silently drops tables would invalidate every experiment.
    pub fn new(spec: DatasetSpec) -> Self {
        let samplers = spec
            .tables
            .iter()
            .map(|t| {
                ZipfSampler::new(t.active_rows(), t.zipf_exponent).unwrap_or_else(|| {
                    panic!(
                        "invalid table spec: rows={} zipf_exponent={}",
                        t.rows, t.zipf_exponent
                    )
                })
            })
            .collect();
        let spreads = spec.tables.iter().map(|t| SpreadMap::new(t.rows)).collect();
        let teacher = TeacherModel::new(spec.effective_concept_seed(), spec.dense_dim);
        Self {
            spec,
            samplers,
            spreads,
            teacher,
        }
    }

    /// The dataset specification.
    pub fn spec(&self) -> &DatasetSpec {
        &self.spec
    }

    /// The hidden ground-truth model (exposed for analysis/tests).
    pub fn teacher(&self) -> &TeacherModel {
        &self.teacher
    }

    /// Generates batch `index`. Deterministic in `(spec, index)`.
    pub fn batch(&self, index: u64) -> Batch {
        let spec = &self.spec;
        let mut rng = StdRng::seed_from_u64(mix_seed(spec.seed, index ^ BATCH_STREAM));
        let bs = spec.batch_size;
        let mut dense = Vec::with_capacity(bs * spec.dense_dim);
        let mut sparse: Vec<Vec<u32>> = spec
            .tables
            .iter()
            .map(|t| Vec::with_capacity(bs * t.hot))
            .collect();
        let mut labels = Vec::with_capacity(bs);

        // Scratch space for the per-sample teacher call.
        let mut sample_dense = vec![0.0f32; spec.dense_dim];
        for _ in 0..bs {
            for d in sample_dense.iter_mut() {
                *d = rng.gen_range(-1.0f32..1.0);
            }
            dense.extend_from_slice(&sample_dense);

            let mut sample_sparse: Vec<Vec<u32>> = Vec::with_capacity(spec.tables.len());
            for (t, table) in spec.tables.iter().enumerate() {
                let mut idx = Vec::with_capacity(table.hot);
                for _ in 0..table.hot {
                    let draw = self.samplers[t].sample(&mut rng);
                    idx.push(self.spreads[t].map(draw) as u32);
                }
                sparse[t].extend_from_slice(&idx);
                sample_sparse.push(idx);
            }
            let views: Vec<&[u32]> = sample_sparse.iter().map(|v| v.as_slice()).collect();
            labels.push(self.teacher.label(&sample_dense, &views, &mut rng));
        }

        Batch {
            index,
            batch_size: bs,
            dense_dim: spec.dense_dim,
            hot: spec.tables.iter().map(|t| t.hot).collect(),
            dense,
            sparse,
            labels,
        }
    }
}

/// RNG stream id reserved for batch generation.
const BATCH_STREAM: u64 = 0xBA7C_0002;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_are_deterministic() {
        let ds1 = SyntheticDataset::new(DatasetSpec::tiny(77));
        let ds2 = SyntheticDataset::new(DatasetSpec::tiny(77));
        for i in [0u64, 1, 5, 1000] {
            assert_eq!(ds1.batch(i), ds2.batch(i), "batch {i} differs");
        }
    }

    #[test]
    fn batches_are_order_independent() {
        let ds = SyntheticDataset::new(DatasetSpec::tiny(3));
        let early = ds.batch(10);
        let _ = ds.batch(11);
        let _ = ds.batch(0);
        assert_eq!(early, ds.batch(10));
    }

    #[test]
    fn different_seeds_give_different_data() {
        let a = SyntheticDataset::new(DatasetSpec::tiny(1)).batch(0);
        let b = SyntheticDataset::new(DatasetSpec::tiny(2)).batch(0);
        assert_ne!(a, b);
    }

    #[test]
    fn different_indices_give_different_data() {
        let ds = SyntheticDataset::new(DatasetSpec::tiny(1));
        assert_ne!(ds.batch(0), ds.batch(1));
    }

    #[test]
    fn batches_validate() {
        let ds = SyntheticDataset::new(DatasetSpec::medium(5));
        for i in 0..3 {
            ds.batch(i).validate().expect("generated batch invalid");
        }
    }

    #[test]
    fn indices_respect_table_bounds() {
        let ds = SyntheticDataset::new(DatasetSpec::tiny(9));
        let b = ds.batch(4);
        for (t, spec) in ds.spec().tables.iter().enumerate() {
            for &idx in &b.sparse[t] {
                assert!((idx as u64) < spec.rows);
            }
        }
    }

    #[test]
    fn ctr_is_nontrivial() {
        // The teacher should produce a base rate away from 0 and 1 so that
        // logloss training has signal.
        let ds = SyntheticDataset::new(DatasetSpec::tiny(123));
        let labels: Vec<f32> = (0..50).flat_map(|i| ds.batch(i).labels).collect();
        let ctr = labels.iter().filter(|&&l| l == 1.0).count() as f64 / labels.len() as f64;
        assert!(ctr > 0.05 && ctr < 0.95, "degenerate CTR {ctr}");
    }

    #[test]
    #[should_panic(expected = "invalid table spec")]
    fn degenerate_table_spec_panics() {
        let mut spec = DatasetSpec::tiny(1);
        spec.tables[0].rows = 0;
        let _ = SyntheticDataset::new(spec);
    }

    #[test]
    fn active_fraction_caps_distinct_rows() {
        let mut spec = DatasetSpec::tiny(8);
        spec.tables[0] = TableAccessSpec::new(1000, 2, 0.5).with_active_fraction(0.2);
        let ds = SyntheticDataset::new(spec);
        let mut seen = std::collections::HashSet::new();
        for i in 0..400 {
            let b = ds.batch(i);
            for &r in &b.sparse[0] {
                seen.insert(r);
            }
        }
        assert!(
            seen.len() <= 200,
            "active fraction 0.2 of 1000 rows allows at most 200 distinct, saw {}",
            seen.len()
        );
        assert!(seen.len() > 100, "flat zipf should cover most of the active set");
        // The active set is spread across the table, not a prefix.
        assert!(seen.iter().any(|&r| r > 500));
    }

    #[test]
    fn spread_map_is_bijective() {
        for rows in [7u64, 100, 1000, 65536] {
            let m = SpreadMap::new(rows);
            let mut seen = std::collections::HashSet::new();
            for i in 0..rows {
                assert!(seen.insert(m.map(i)), "collision at {i} (rows={rows})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "active_fraction must be in (0,1]")]
    fn zero_active_fraction_panics() {
        let _ = TableAccessSpec::new(10, 1, 1.0).with_active_fraction(0.0);
    }

    #[test]
    fn concept_seed_shares_labels_across_distributions() {
        // Same concept, different seed: identical inputs get identical
        // ground-truth probabilities, while the sample streams differ.
        let a = SyntheticDataset::new(DatasetSpec::tiny(1));
        let mut spec_b = DatasetSpec::tiny(2);
        spec_b.concept_seed = Some(1);
        let b = SyntheticDataset::new(spec_b);
        let dense = [0.3f32, -0.1, 0.4, 0.2];
        let sparse: &[&[u32]] = &[&[5, 9], &[3]];
        assert_eq!(
            a.teacher().probability(&dense, sparse),
            b.teacher().probability(&dense, sparse),
            "shared concept must produce identical label functions"
        );
        assert_ne!(a.batch(0), b.batch(0), "streams must still differ");
        // Without concept sharing, the label functions differ.
        let c = SyntheticDataset::new(DatasetSpec::tiny(2));
        assert_ne!(
            a.teacher().probability(&dense, sparse),
            c.teacher().probability(&dense, sparse)
        );
    }
}
