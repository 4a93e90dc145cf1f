//! Adaptive asymmetric quantization (§5.2, Approach 3) — Check-N-Run's
//! default scheme for bit-widths of 4 and below.
//!
//! Naive asymmetric quantization wastes precision when a vector has one
//! outlier: the grid stretches to cover it and every other element lands on a
//! coarse grid. The adaptive scheme greedily shrinks the range: at each step
//! it tries moving either endpoint inward by `step_size = range/num_bins`,
//! keeps whichever trial has lower ℓ2 error (out-of-range elements clip), and
//! finally returns the best range seen over the whole search. The search may
//! cover `ratio` of the original range, which budgets it `ratio · num_bins`
//! steps of two trial quantizations each — the knobs behind the latency
//! curves in Figures 12 and 13.
//!
//! The budget is a ceiling, not the cost. The ranges a search visits are
//! nested, so what the *current* range already clips — the part of the row
//! outside it — is clipped at least as hard by every range still to come:
//! its ℓ2 norm is a lower bound on the error of every later trial. Once
//! that bound reaches the best error seen, no later trial can replace the
//! best (a replacement must be strictly better), and the search stops with
//! the result the full budget would have produced. The bound holds in
//! floating point as executed, not just over the reals (the argument sits
//! beside the code, on `kernel::l2_errors`), so the chosen range — and
//! every stored byte — is the same; only [`AdaptiveRange::steps`] shows
//! the difference. On embedding-like rows at the engine's 4-bit default
//! (45 bins, ratio 1) about 6 of the 44 budgeted steps run.

use crate::kernel::{clip_slack, l2_errors, Grid, Trial, BLOCK};
use crate::uniform::min_max;

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
/// of `kernel::l2_errors` over the row, both trials of a greedy step share that
/// pass, and the pass also yields the clip bound that ends the search
/// early. Nothing is allocated.
pub fn search_range(row: &[f32], bits: u8, num_bins: u32, ratio: f64) -> AdaptiveRange {
    search_within(row, min_max(row), bits, num_bins, ratio)
}

/// [`search_range`] for a caller that has the row's range, `(min, max)`,
/// at hand.
pub(crate) fn search_within(
    row: &[f32],
    (full_min, full_max): (f32, f32),
    bits: u8,
    num_bins: u32,
    ratio: f64,
) -> AdaptiveRange {
    assert!(num_bins >= 1, "num_bins must be >= 1");
    assert!(
        ratio > 0.0 && ratio <= 1.0,
        "ratio must be in (0, 1], got {ratio}"
    );
    let range = full_max - full_min;
    let slack = clip_slack(full_min, full_max, bits);

    let mut scratch = [[[0.0f32; BLOCK]; 2]; 2];
    let [full] = l2_errors(
        row,
        [Trial::for_range(full_min, full_max, bits, slack)],
        std::array::from_mut(&mut scratch[0]),
    );
    let mut best = AdaptiveRange {
        xmin: full_min,
        xmax: full_max,
        l2_error: full.error,
        steps: 0,
    };
    if range <= 0.0 || !range.is_finite() {
        return best; // constant vector: naive range is already exact
    }

    let step = range / num_bins as f32;
    let budget = ratio * range as f64;
    let mut lo = full_min;
    let mut hi = full_max;
    // What `[lo, hi]` clips: no later trial can have a smaller error.
    let mut clip = full.clip;
    let mut consumed = 0.0f64;
    let mut steps = 0usize;

    while consumed + step as f64 <= budget + 1e-12 && hi - lo > step {
        // `best` is only ever replaced by a strictly smaller error, so it
        // is final. A NaN error (a NaN element) compares false: such a row
        // runs its whole budget, as it always has.
        if clip >= best.l2_error {
            break;
        }
        let [shrink_lo, shrink_hi] = l2_errors(
            row,
            [
                Trial::for_range(lo + step, hi, bits, slack),
                Trial::for_range(lo, hi - step, bits, slack),
            ],
            &mut scratch,
        );
        let before = (lo, hi);
        let taken = if shrink_lo.error <= shrink_hi.error {
            lo += step;
            shrink_lo
        } else {
            hi -= step;
            shrink_hi
        };
        if taken.error < best.l2_error {
            best = AdaptiveRange {
                xmin: lo,
                xmax: hi,
                l2_error: taken.error,
                steps,
            };
        }
        clip = taken.clip;
        consumed += step as f64;
        steps += 1;
        // A step smaller than half an ulp of the end point it was added to
        // (or one that underflowed to zero) moves nothing, and the next
        // step would be this one again. On a range under `1e-12` the
        // budget test above cannot end that.
        if (lo, hi) == before {
            break;
        }
    }
    best.steps = steps;
    best
}

/// The grid the adaptive scheme stores `row` on with binary16 parameters,
/// given its searched range `r` and its full range `full`: the searched
/// range rounded once ([`Grid::half_for_range`]), unless rounding the full
/// range gives a strictly smaller error — the search compared `f32` grids,
/// and the rounding can reorder two close ones. So the stored grid is
/// never worse than the naive asymmetric one, which is the full range
/// rounded. One measuring pass over the row, and none when the search kept
/// the full range.
pub(crate) fn half_grid(row: &[f32], r: &AdaptiveRange, full: (f32, f32), bits: u8) -> Grid {
    let searched = Grid::half_for_range(r.xmin, r.xmax, bits);
    if (r.xmin, r.xmax) == full {
        return searched;
    }
    let naive = Grid::half_for_range(full.0, full.1, bits);
    let trial = |grid| Trial {
        grid,
        ceil: f32::INFINITY,
    };
    let mut scratch = [[[0.0f32; BLOCK]; 2]; 2];
    let [s, n] = l2_errors(row, [searched, naive].map(trial), &mut scratch);
    if n.error < s.error {
        naive
    } else {
        searched
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::row_l2_error;
    use crate::QuantScheme;

    /// A vector with one moderate outlier: the motivating case from the
    /// paper. The bulk of the values spread uniformly over [0, 1] so the
    /// coarse-grid cost of the stretched range is large relative to the cost
    /// of clipping the single outlier.
    fn outlier_row() -> Vec<f32> {
        let mut v: Vec<f32> = (0..63).map(|i| (i * 37 % 63) as f32 / 63.0).collect();
        v.push(3.0);
        v
    }

    /// ℓ2 error of `row` stored under `scheme` and restored.
    fn err_of(scheme: QuantScheme, row: &[f32]) -> f64 {
        row_l2_error(row, &scheme.quantize_row(row).dequantize())
    }

    fn adaptive_scheme(bits: u8) -> QuantScheme {
        QuantScheme::AdaptiveAsymmetric {
            bits,
            num_bins: 25,
            ratio: 1.0,
        }
    }

    #[test]
    fn never_worse_than_naive_asymmetric() {
        // The search starts from the naive range and only keeps
        // improvements, and the stored grid is the better of the rounded
        // searched range and the rounded naive one (`half_grid`).
        for bits in [2u8, 3, 4] {
            for seed in 0..5u32 {
                let row: Vec<f32> = (0..64)
                    .map(|i| ((i * 13 + seed * 7) as f32 * 0.17).sin() * 0.1)
                    .collect();
                let naive = err_of(QuantScheme::Asymmetric { bits }, &row);
                let adaptive = err_of(adaptive_scheme(bits), &row);
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
        let naive = err_of(QuantScheme::Asymmetric { bits: 2 }, &row);
        let adaptive = err_of(adaptive_scheme(2), &row);
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
