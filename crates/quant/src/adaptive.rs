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
//! beside the code, on `kernel::measure`), so the chosen range — and
//! every stored byte — is the same; only [`AdaptiveRange::steps`] shows
//! the difference. On the trained rows the quantization bench samples, at
//! the engine's 4-bit default (45 bins, ratio 1), 4.25 of the 44 budgeted
//! steps run per row: the `search_steps/adaptive4_b45` record of
//! `BENCH_quant.json`.
//!
//! ℓ2 is one sum here, the one [`crate::row_l2_error`] computes: each
//! residual squared in `f32`, element `i` added into lane `i % 8`, the
//! lanes combined in a fixed tree, the `sqrt` taken in `f64`. A trial is
//! one vectorized pass that computes it (`kernel::measure`), and every
//! decision of the search — which trial a step takes, whether it beats
//! the best, whether the clip bound ends the search — compares such sums.
//! The paper leaves the summation order open; fixing it once makes the
//! error a search reports the error the crate measures.

use crate::kernel::{clip_slack, measure, norm, Grid, Trial};
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
/// over the row (`kernel::measure`), which also measures the clip that
/// ends the search early. Nothing is allocated.
pub fn search_range(row: &[f32], bits: u8, num_bins: u32, ratio: f64) -> AdaptiveRange {
    let found = search(row, bits, num_bins, ratio);
    let (xmin, xmax) = found.range;
    AdaptiveRange {
        xmin,
        xmax,
        l2_error: norm(found.error),
        steps: found.steps,
    }
}

/// What the search of one row found: the chosen range and the full range
/// it started from, each with its error.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Searched {
    /// The chosen range, `(xmin, xmax)`.
    pub range: (f32, f32),
    /// Greedy steps executed.
    pub steps: usize,
    /// The chosen range's error, a sum of squares ([`norm`]).
    pub error: f32,
    /// The row's full range, `(min, max)`.
    pub full: (f32, f32),
    /// The error of the row on the full range's `f32` grid, likewise.
    pub full_error: f32,
    /// The `f32` grids the two errors are of: the chosen range's, the
    /// full range's.
    grids: [Grid; 2],
    /// The full range rounded to binary16 parameters, the naive
    /// asymmetric grid: rounded before the search's first pass, which
    /// it overlaps.
    naive: Grid,
}

/// The greedy search of [`search_range`]. Inlined into its callers: as a
/// call of its own it measured about 15% slower per row.
#[inline(always)]
pub(crate) fn search(row: &[f32], bits: u8, num_bins: u32, ratio: f64) -> Searched {
    assert!(num_bins >= 1, "num_bins must be >= 1");
    assert!(
        ratio > 0.0 && ratio <= 1.0,
        "ratio must be in (0, 1], got {ratio}"
    );
    let full = min_max(row);
    let (full_min, full_max) = full;
    let naive = Grid::half_for_range(full_min, full_max, bits);
    let range = full_max - full_min;
    let slack = clip_slack(full_min, full_max, bits);
    let trial = |(lo, hi)| Trial::for_range(lo, hi, bits, slack);
    let whole = trial(full);
    let step = range / num_bins as f32;
    let budget = ratio * range as f64;
    let steps_on = |consumed: f64, (lo, hi): (f32, f32)| {
        consumed + step as f64 <= budget + 1e-12 && hi - lo > step
    };
    // A constant vector's naive range is already exact.
    let searching = range > 0.0 && range.is_finite() && steps_on(0.0, full);
    let first = measure(row, whole);
    let (mut best, mut best_error, mut best_grid) = (full, first.error, whole.grid);
    let mut steps = 0usize;
    if searching {
        let (mut lo, mut hi) = full;
        // What `[lo, hi]` clips: no later trial can have a smaller error.
        let mut clip = first.clip;
        let mut consumed = 0.0f64;
        while steps_on(consumed, (lo, hi)) {
            // The best is only ever replaced by a strictly smaller error,
            // so once the clip reaches it, it is final. A NaN error (a NaN
            // element) compares false: such a row runs its whole budget,
            // as it always has.
            if best_error <= clip {
                break;
            }
            // `lo` moved up a step, `hi` moved down one.
            let shrink_lo = trial((lo + step, hi));
            let shrink_hi = trial((lo, hi - step));
            let (lo_cost, hi_cost) = (measure(row, shrink_lo), measure(row, shrink_hi));
            let before = (lo, hi);
            let (taken, cost) = if lo_cost.error <= hi_cost.error {
                lo += step;
                (shrink_lo, lo_cost)
            } else {
                hi -= step;
                (shrink_hi, hi_cost)
            };
            if cost.error < best_error {
                (best, best_error, best_grid) = ((lo, hi), cost.error, taken.grid);
            }
            clip = cost.clip;
            consumed += step as f64;
            steps += 1;
            // A step smaller than half an ulp of the end point it was
            // added to (or one that underflowed to zero) moves nothing,
            // and the next step would be this one again. On a range under
            // `1e-12` the budget test above cannot end that.
            if (lo, hi) == before {
                break;
            }
        }
    }
    Searched {
        range: best,
        steps,
        error: best_error,
        full,
        full_error: first.error,
        grids: [best_grid, whole.grid],
        naive,
    }
}

/// The grid the adaptive scheme stores `row` on: its search, then its
/// binary16 grid ([`half_grid`]).
pub(crate) fn grid(row: &[f32], bits: u8, num_bins: u32, ratio: f64) -> Grid {
    half_grid(row, &search(row, bits, num_bins, ratio), bits)
}

/// The grid the adaptive scheme stores `row` on with binary16 parameters,
/// given its search: the searched range rounded once
/// ([`Grid::half_for_range`]), unless rounding the full range gives a
/// strictly smaller error — the search compared `f32` grids, and the
/// rounding can reorder two close ones. So the stored grid is never worse
/// than the naive asymmetric one, which is the full range rounded.
///
/// One measuring pass over the row at most, and none when the search
/// kept the full range, or when its own errors already order the two
/// grids by more than rounding can move them ([`ordered_by_search`]).
pub(crate) fn half_grid(row: &[f32], found: &Searched, bits: u8) -> Grid {
    let naive = found.naive;
    if found.range == found.full {
        return naive;
    }
    let (xmin, xmax) = found.range;
    let chosen = Grid::half_for_range(xmin, xmax, bits);
    if ordered_by_search(row.len(), found, (chosen, naive)) {
        return chosen;
    }
    let [n, s] = [naive, chosen].map(|g| measure(row, Trial::unclipped(g)).error);
    if n < s {
        naive
    } else {
        chosen
    }
}

/// Whether the search's errors already decide the comparison of
/// [`half_grid`] for a row of `n` values: the rounded full range's
/// computed error cannot be strictly smaller than the rounded searched
/// range's, so the comparison would keep the searched one.
///
/// Rounding moves each point `c` of a grid by at most `δ`, the sum of
/// `|Δzero_point|` and `levels · |Δscale|`, so each element's distance to
/// its nearest grid point moves by at most `δ`. A computed residual
/// differs from that exact distance by at most `14u·M` (`u = 2^-24`, `M`
/// the largest magnitude among the row and the grid's ends): the computed
/// code is the nearest one but for an element within `2.01u` codes of a
/// midpoint, which costs at most `4.02u · |x - zero_point| ≤ 8.04u·M`,
/// and the reconstruction and subtraction round by at most `5u·M` more
/// (plus `2^-149` when a product underflows). Over the row, by the
/// triangle inequality, the norm of the residuals on a rounded grid is
/// within `√n · (δ + 28u·M + 2^-148)` of the norm on its `f32` grid.
///
/// A computed error is that norm to within a relative `r = (n + 48) ·
/// 2^-28` and an absolute `√n · 2^-75`: a term passes through its
/// rounded square and at most `n/8 + 3` rounded additions of
/// non-negative values, each off by `u` relative (a square that
/// underflows by `2^-150` absolute instead), and the `sqrt` halves the
/// relative part and rounds once more. Chaining the four errors — the two
/// the search computed, the two the comparison would — the test below
/// asks for the gap between the search's errors to exceed both grids'
/// moves with `2^-17·M` for the residual roundings and `2^-71` for the
/// absolute parts (each times `√n`), and a relative `(n + 64) · 2^-25 ≥
/// 6r` of the errors for the relative parts and its own `f64`
/// arithmetic. A NaN or an infinity fails it, and the comparison runs.
fn ordered_by_search(n: usize, found: &Searched, (chosen, naive): (Grid, Grid)) -> bool {
    let (full_min, full_max) = found.full;
    let unrounded = found.grids;
    let levels = chosen.levels as f64;
    let end = |g: Grid| (g.zero_point as f64).abs() + g.scale as f64 * levels;
    let moved = |a: Grid, b: Grid| {
        (a.zero_point as f64 - b.zero_point as f64).abs()
            + levels * (a.scale as f64 - b.scale as f64).abs()
    };
    let m = [chosen, naive, unrounded[0], unrounded[1]]
        .map(end)
        .into_iter()
        .fold(full_min.abs().max(full_max.abs()) as f64, f64::max);
    let relative = (n as f64 + 64.0) * 2f64.powi(-25);
    let moves = moved(chosen, unrounded[0]) + moved(naive, unrounded[1]);
    let bound = (n as f64).sqrt() * (moves + m * 2f64.powi(-17) + 2f64.powi(-71));
    let (full, searched) = (norm(found.full_error), norm(found.error));
    full - searched > bound * (1.0 + relative) + relative * full
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
                    adaptive <= naive,
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
