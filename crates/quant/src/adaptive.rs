//! Adaptive asymmetric quantization (§5.2, Approach 3) — Check-N-Run's
//! default scheme for bit-widths of 4 and below.
//!
//! Naive asymmetric quantization wastes precision when a vector has one
//! outlier: the grid stretches to cover it and every other element lands on a
//! coarse grid. The adaptive scheme greedily shrinks the range: at each step
//! it tries moving either endpoint inward by `step_size = range/num_bins`,
//! keeps whichever trial has lower ℓ2 error (out-of-range elements clip), and
//! finally returns the best range seen over the whole search. The search
//! stops after covering `ratio` of the original range, so its cost is
//! `O(ratio · num_bins)` trial quantizations — the knobs behind the latency
//! curves in Figures 12 and 13.

use crate::kernel::{l2_errors, Grid, BLOCK};
use crate::params::QuantParams;
use crate::uniform::{min_max, quantize_with_range};

/// Result of the greedy range search for one vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveRange {
    /// Chosen lower clipping bound.
    pub xmin: f32,
    /// Chosen upper clipping bound.
    pub xmax: f32,
    /// ℓ2 error achieved with the chosen range.
    pub l2_error: f64,
    /// Greedy steps actually executed.
    pub steps: usize,
}

/// Runs the greedy search and returns the best clipping range for `row`.
///
/// `num_bins` controls the step granularity, `ratio ∈ (0, 1]` the fraction of
/// the original range the search may consume (paper §5.2).
///
/// A trial never materializes codes or a de-quantized row: it is one pass
/// of [`l2_errors`] over the row, and both trials of a greedy step share
/// that pass. Nothing is allocated.
pub fn search_range(row: &[f32], bits: u8, num_bins: u32, ratio: f64) -> AdaptiveRange {
    assert!(num_bins >= 1, "num_bins must be >= 1");
    assert!(
        ratio > 0.0 && ratio <= 1.0,
        "ratio must be in (0, 1], got {ratio}"
    );
    let (full_min, full_max) = min_max(row);
    let range = full_max - full_min;

    let [full_error] = l2_errors(
        row,
        [Grid::for_range(full_min, full_max, bits)],
        &mut [[0.0; BLOCK]],
    );
    let mut best = AdaptiveRange {
        xmin: full_min,
        xmax: full_max,
        l2_error: full_error,
        steps: 0,
    };
    if range <= 0.0 || !range.is_finite() {
        return best; // constant vector: naive range is already exact
    }

    let step = range / num_bins as f32;
    let budget = ratio * range as f64;
    let mut lo = full_min;
    let mut hi = full_max;
    let mut consumed = 0.0f64;
    let mut steps = 0usize;
    let mut scratch = [[0.0f32; BLOCK]; 2];

    while consumed + step as f64 <= budget + 1e-12 && hi - lo > step {
        let [err_lo, err_hi] = l2_errors(
            row,
            [
                Grid::for_range(lo + step, hi, bits),
                Grid::for_range(lo, hi - step, bits),
            ],
            &mut scratch,
        );
        if err_lo <= err_hi {
            lo += step;
            if err_lo < best.l2_error {
                best = AdaptiveRange {
                    xmin: lo,
                    xmax: hi,
                    l2_error: err_lo,
                    steps,
                };
            }
        } else {
            hi -= step;
            if err_hi < best.l2_error {
                best = AdaptiveRange {
                    xmin: lo,
                    xmax: hi,
                    l2_error: err_hi,
                    steps,
                };
            }
        }
        consumed += step as f64;
        steps += 1;
    }
    best.steps = steps;
    best
}

/// Quantizes `row` with the adaptive asymmetric scheme.
pub fn quantize_adaptive(
    row: &[f32],
    bits: u8,
    num_bins: u32,
    ratio: f64,
) -> (Vec<u16>, QuantParams) {
    let r = search_range(row, bits, num_bins, ratio);
    quantize_with_range(row, r.xmin, r.xmax, bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::row_l2_error;
    use crate::uniform::{dequantize, quantize_asymmetric};

    /// A vector with one moderate outlier: the motivating case from the
    /// paper. The bulk of the values spread uniformly over [0, 1] so the
    /// coarse-grid cost of the stretched range is large relative to the cost
    /// of clipping the single outlier.
    fn outlier_row() -> Vec<f32> {
        let mut v: Vec<f32> = (0..63).map(|i| (i * 37 % 63) as f32 / 63.0).collect();
        v.push(3.0);
        v
    }

    fn err_of(codes: &[u16], params: &QuantParams, row: &[f32]) -> f64 {
        row_l2_error(row, &dequantize(codes, params))
    }

    #[test]
    fn never_worse_than_naive_asymmetric() {
        // The search starts from the naive range and only keeps improvements.
        for bits in [2u8, 3, 4] {
            for seed in 0..5u32 {
                let row: Vec<f32> = (0..64)
                    .map(|i| ((i * 13 + seed * 7) as f32 * 0.17).sin() * 0.1)
                    .collect();
                let (nc, np) = quantize_asymmetric(&row, bits);
                let naive = err_of(&nc, &np, &row);
                let (ac, ap) = quantize_adaptive(&row, bits, 25, 1.0);
                let adaptive = err_of(&ac, &ap, &row);
                assert!(
                    adaptive <= naive + 1e-9,
                    "adaptive {adaptive} worse than naive {naive} at {bits} bits"
                );
            }
        }
    }

    #[test]
    fn big_win_on_outlier_vectors() {
        let row = outlier_row();
        let (nc, np) = quantize_asymmetric(&row, 2);
        let naive = err_of(&nc, &np, &row);
        let (ac, ap) = quantize_adaptive(&row, 2, 25, 1.0);
        let adaptive = err_of(&ac, &ap, &row);
        assert!(
            adaptive < naive * 0.9,
            "expected >10% improvement, naive {naive} adaptive {adaptive}"
        );
    }

    #[test]
    fn ratio_limits_search_budget() {
        let row = outlier_row();
        let full = search_range(&row, 2, 50, 1.0);
        let tiny = search_range(&row, 2, 50, 0.1);
        assert!(tiny.steps <= 5, "ratio 0.1 with 50 bins = at most 5 steps");
        assert!(full.steps > tiny.steps);
        assert!(tiny.l2_error >= full.l2_error - 1e-12);
    }

    #[test]
    fn more_bins_never_hurts_error() {
        let row = outlier_row();
        let coarse = search_range(&row, 3, 5, 1.0);
        let fine = search_range(&row, 3, 45, 1.0);
        // Finer steps explore a superset of the coarse grid's vicinity; allow
        // tiny slack for greedy path divergence.
        assert!(fine.l2_error <= coarse.l2_error * 1.05);
    }

    #[test]
    fn constant_vector_short_circuits() {
        let row = vec![0.5f32; 32];
        let r = search_range(&row, 4, 25, 1.0);
        assert_eq!(r.steps, 0);
        assert_eq!(r.l2_error, 0.0);
    }

    #[test]
    fn chosen_range_is_within_original() {
        let row = outlier_row();
        let (full_min, full_max) = min_max(&row);
        let r = search_range(&row, 2, 25, 1.0);
        assert!(r.xmin >= full_min - 1e-6);
        assert!(r.xmax <= full_max + 1e-6);
        assert!(r.xmin < r.xmax);
    }

    #[test]
    #[should_panic(expected = "ratio must be in (0, 1]")]
    fn zero_ratio_panics() {
        search_range(&[0.0, 1.0], 2, 10, 0.0);
    }
}
