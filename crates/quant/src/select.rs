//! Sampling-based parameter selection for adaptive quantization (§5.2,
//! "Parameter selection").
//!
//! The greedy search has two knobs (`num_bins`, `ratio`), and sweeping them
//! on a full multi-terabyte checkpoint is infeasible. The paper's insight:
//! the mean ℓ2 error can be estimated on a tiny uniform sample (0.001% by
//! default) of the checkpoint's rows, and the sampled estimate picks the same
//! parameters as the full computation. The selector sweeps candidates on the
//! sample and chooses the point where improvement tapers off.

use crate::error::mean_l2_error_of_rows;
use crate::scheme::QuantScheme;
use crate::RowSource;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Chosen adaptive parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveParams {
    /// Selected `num_bins` for the greedy search.
    pub num_bins: u32,
    /// Selected `ratio` for the greedy search.
    pub ratio: f64,
}

/// One candidate evaluated during selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidatePoint {
    /// The candidate value (bins or ratio, depending on the sweep).
    pub value: f64,
    /// Mean ℓ2 error measured on the sample.
    pub mean_l2: f64,
    /// Relative improvement over the naive asymmetric baseline, in [0, 1].
    pub improvement: f64,
}

/// Full record of a selection run (kept for observability/EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq)]
pub struct SelectionReport {
    /// Number of rows sampled.
    pub sample_size: usize,
    /// Naive asymmetric baseline error on the sample.
    pub baseline_l2: f64,
    /// The bins sweep.
    pub bins_curve: Vec<CandidatePoint>,
    /// The ratio sweep (at the chosen bins).
    pub ratio_curve: Vec<CandidatePoint>,
    /// Final selection.
    pub chosen: AdaptiveParams,
}

/// Sampling-based parameter selector.
#[derive(Debug, Clone)]
pub struct ParamSelector {
    /// Fraction of rows to sample (paper default: 1e-5, i.e. 0.001%).
    pub sample_fraction: f64,
    /// Minimum sample size, so small tables still get a usable estimate.
    pub min_sample: usize,
    /// Candidate bin counts, ascending.
    pub bins_candidates: Vec<u32>,
    /// Candidate ratios, ascending.
    pub ratio_candidates: Vec<f64>,
    /// Stop when marginal improvement between consecutive candidates drops
    /// below this fraction of the baseline error.
    pub taper_threshold: f64,
    /// RNG seed for the uniform row sample.
    pub seed: u64,
}

impl Default for ParamSelector {
    fn default() -> Self {
        Self {
            sample_fraction: 1e-5,
            min_sample: 64,
            bins_candidates: vec![5, 10, 15, 20, 25, 30, 35, 40, 45, 50],
            ratio_candidates: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0],
            taper_threshold: 0.005,
            seed: 0xC4EC,
        }
    }
}

impl ParamSelector {
    /// Uniformly samples row indices from `source`.
    pub fn sample_rows<S: RowSource + ?Sized>(&self, source: &S) -> Vec<usize> {
        let n = source.num_rows();
        if n == 0 {
            return Vec::new();
        }
        let target = ((n as f64 * self.sample_fraction).ceil() as usize)
            .max(self.min_sample.min(n))
            .min(n);
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut rows: Vec<usize> = (0..target).map(|_| rng.gen_range(0..n)).collect();
        rows.sort_unstable();
        rows.dedup();
        rows
    }

    /// Selects `(num_bins, ratio)` for `bits`-wide adaptive quantization of
    /// `source`, sweeping candidates on a uniform sample.
    pub fn select<S: RowSource + ?Sized>(&self, source: &S, bits: u8) -> SelectionReport {
        assert!(
            !self.bins_candidates.is_empty() && !self.ratio_candidates.is_empty(),
            "selector needs at least one candidate per sweep"
        );
        let rows = self.sample_rows(source);
        let baseline_l2 =
            mean_l2_error_of_rows(source, &rows, &QuantScheme::Asymmetric { bits });

        // Sweep bins at ratio = 1.0 (full search), then stop at the taper.
        let mut bins_curve = Vec::new();
        let mut chosen_bins = *self.bins_candidates.first().unwrap();
        let mut prev_improvement = 0.0f64;
        for (i, &bins) in self.bins_candidates.iter().enumerate() {
            let scheme = QuantScheme::AdaptiveAsymmetric {
                bits,
                num_bins: bins,
                ratio: 1.0,
            };
            let l2 = mean_l2_error_of_rows(source, &rows, &scheme);
            let improvement = relative_improvement(baseline_l2, l2);
            bins_curve.push(CandidatePoint {
                value: bins as f64,
                mean_l2: l2,
                improvement,
            });
            if improvement >= prev_improvement {
                chosen_bins = bins;
            }
            // Taper: the marginal gain from the previous candidate is small.
            if i > 0 && (improvement - prev_improvement).abs() < self.taper_threshold {
                chosen_bins = bins.min(chosen_bins.max(self.bins_candidates[i - 1]));
                // keep sweeping to fill the curve for reporting
            }
            prev_improvement = prev_improvement.max(improvement);
        }

        // Sweep ratio at the chosen bins; pick the smallest ratio within the
        // taper threshold of the best improvement (lower ratio = faster).
        let mut ratio_curve = Vec::new();
        for &ratio in &self.ratio_candidates {
            let scheme = QuantScheme::AdaptiveAsymmetric {
                bits,
                num_bins: chosen_bins,
                ratio,
            };
            let l2 = mean_l2_error_of_rows(source, &rows, &scheme);
            ratio_curve.push(CandidatePoint {
                value: ratio,
                mean_l2: l2,
                improvement: relative_improvement(baseline_l2, l2),
            });
        }
        let best_improvement = ratio_curve
            .iter()
            .map(|p| p.improvement)
            .fold(0.0f64, f64::max);
        let chosen_ratio = ratio_curve
            .iter()
            .find(|p| p.improvement >= best_improvement - self.taper_threshold)
            .map(|p| p.value)
            .unwrap_or(1.0);

        SelectionReport {
            sample_size: rows.len(),
            baseline_l2,
            bins_curve,
            ratio_curve,
            chosen: AdaptiveParams {
                num_bins: chosen_bins,
                ratio: chosen_ratio,
            },
        }
    }
}

/// `(baseline - value) / baseline`, clamped to 0 when baseline is ~zero.
fn relative_improvement(baseline: f64, value: f64) -> f64 {
    if baseline <= f64::EPSILON {
        0.0
    } else {
        (baseline - value) / baseline
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatRows;

    /// Rows with occasional outliers — the regime where adaptive wins.
    fn outlier_table(rows: usize, dim: usize) -> FlatRows {
        let mut data = Vec::with_capacity(rows * dim);
        for r in 0..rows {
            for i in 0..dim {
                let base = ((r * 31 + i * 7) % 97) as f32 / 97.0 * 0.1;
                data.push(base);
            }
            // One outlier per row.
            let last = data.len() - 1;
            data[last] = 2.0 + (r % 5) as f32 * 0.1;
        }
        FlatRows::new(data, dim)
    }

    #[test]
    fn sample_rows_respects_bounds() {
        let table = outlier_table(1000, 8);
        let sel = ParamSelector {
            sample_fraction: 0.01,
            min_sample: 5,
            ..Default::default()
        };
        let rows = sel.sample_rows(&table);
        assert!(!rows.is_empty());
        assert!(rows.len() <= 1000);
        assert!(rows.iter().all(|&r| r < 1000));
        // Sorted and deduplicated.
        assert!(rows.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn sample_of_empty_table_is_empty() {
        let table = FlatRows::new(vec![], 4);
        let sel = ParamSelector::default();
        assert!(sel.sample_rows(&table).is_empty());
    }

    #[test]
    fn selection_improves_over_baseline() {
        let table = outlier_table(300, 16);
        let sel = ParamSelector {
            sample_fraction: 0.2,
            min_sample: 32,
            bins_candidates: vec![5, 15, 25],
            ratio_candidates: vec![0.5, 1.0],
            ..Default::default()
        };
        let report = sel.select(&table, 2);
        assert!(report.sample_size > 0);
        assert!(report.baseline_l2 > 0.0);
        let chosen_curve_best = report
            .bins_curve
            .iter()
            .map(|p| p.improvement)
            .fold(0.0f64, f64::max);
        assert!(
            chosen_curve_best > 0.05,
            "adaptive should improve on outlier data, got {chosen_curve_best}"
        );
    }

    #[test]
    fn sampled_selection_matches_full_selection() {
        // The paper's claim: the sampled estimate picks the same parameter as
        // the full checkpoint. Verify on a moderate table.
        let table = outlier_table(400, 8);
        let candidates = vec![5u32, 25];
        let sampled = ParamSelector {
            sample_fraction: 0.1,
            min_sample: 40,
            bins_candidates: candidates.clone(),
            ratio_candidates: vec![1.0],
            ..Default::default()
        }
        .select(&table, 2);
        let full = ParamSelector {
            sample_fraction: 1.0,
            min_sample: 400,
            bins_candidates: candidates,
            ratio_candidates: vec![1.0],
            ..Default::default()
        }
        .select(&table, 2);
        assert_eq!(sampled.chosen.num_bins, full.chosen.num_bins);
    }

    #[test]
    fn ratio_prefers_cheapest_within_taper() {
        let table = outlier_table(200, 8);
        let sel = ParamSelector {
            sample_fraction: 0.5,
            min_sample: 50,
            bins_candidates: vec![25],
            ratio_candidates: vec![0.25, 0.5, 1.0],
            taper_threshold: 0.5, // huge threshold: everything qualifies
            ..Default::default()
        };
        let report = sel.select(&table, 2);
        assert_eq!(
            report.chosen.ratio, 0.25,
            "with a generous taper the cheapest ratio should win"
        );
    }
}
