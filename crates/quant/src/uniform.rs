//! Uniform quantization: symmetric and asymmetric (§5.2, Approach 1).
//!
//! * **Symmetric**: the range is `[-max|x|, +max|x|]`. Simple, but embedding
//!   values are not symmetrically distributed, so half the code space is
//!   often wasted — the paper finds it consistently worst (Figure 9).
//! * **Asymmetric**: the range is `[min x, max x]` of the actual vector, at
//!   the cost of storing both endpoints. The paper's default for 8-bit
//!   checkpoints.

use crate::kernel::Grid;
use crate::params::QuantParams;

/// Quantizes `row` with a symmetric range derived from its maximum absolute
/// value. Returns per-element codes plus the parameters.
pub fn quantize_symmetric(row: &[f32], bits: u8) -> (Vec<u16>, QuantParams) {
    let xmax = max_abs(row);
    quantize_with_range(row, -xmax, xmax, bits)
}

/// Largest absolute value of a slice (0 when empty): the symmetric
/// scheme's range is `[-max_abs, +max_abs]`.
pub fn max_abs(row: &[f32]) -> f32 {
    row.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
}

/// Quantizes `row` with the asymmetric range `[min, max]` of its elements.
pub fn quantize_asymmetric(row: &[f32], bits: u8) -> (Vec<u16>, QuantParams) {
    let (xmin, xmax) = min_max(row);
    quantize_with_range(row, xmin, xmax, bits)
}

/// The paper's `FQ(x, xmin, xmax)`: quantizes `row` against an explicit
/// range, clipping elements that fall outside it. Exposed publicly because
/// the adaptive scheme calls it with shrunken ranges.
pub fn quantize_with_range(row: &[f32], xmin: f32, xmax: f32, bits: u8) -> (Vec<u16>, QuantParams) {
    let grid = Grid::for_range(xmin, xmax, bits);
    let codes = row.iter().map(|&x| grid.code_of(x) as u16).collect();
    (codes, grid.params())
}

/// Independent accumulators of a range scan. `min` and `max` over values
/// that are not NaN are exactly associative, so eight running results
/// folded in a fixed shape give the bits of one in-order chain — without
/// its 32 dependent operations per 32-element row.
const LANES: usize = 8;

/// `x` where it is strictly less than `m`, else `m`: a NaN `x` is skipped,
/// a tie keeps `m`. One `minps` per four lanes.
#[inline(always)]
fn lesser(m: f32, x: f32) -> f32 {
    if x < m {
        x
    } else {
        m
    }
}

/// `x` where it is strictly greater than `m`, else `m`.
#[inline(always)]
fn greater(m: f32, x: f32) -> f32 {
    if x > m {
        x
    } else {
        m
    }
}

/// Folds `pick` over `row` from `init`: lane-wise over whole blocks, the
/// tail into the first lanes, then an 8 → 4 → 2 → 1 tree.
#[inline(always)]
fn scan(row: &[f32], init: f32, pick: impl Fn(f32, f32) -> f32) -> f32 {
    let mut acc = [init; LANES];
    let mut blocks = row.chunks_exact(LANES);
    for xs in &mut blocks {
        for (m, &x) in acc.iter_mut().zip(xs) {
            *m = pick(*m, x);
        }
    }
    for (m, &x) in acc.iter_mut().zip(blocks.remainder()) {
        *m = pick(*m, x);
    }
    let [a, b, c, d, e, f, g, h] = acc;
    pick(pick(pick(a, e), pick(c, g)), pick(pick(b, f), pick(d, h)))
}

/// Minimum and maximum of a slice, NaN elements skipped. Empty slices
/// report `(0, 0)`, which quantizes to the degenerate constant-zero range;
/// a slice of nothing but NaN reports `(+∞, -∞)`.
///
/// An end point that is zero has the sign of the row's first zero element
/// (`-0.0 == 0.0`, so "the" minimum of `[0.0, -0.0]` is a choice): that is
/// what an in-order chain that keeps the earlier operand on a tie yields,
/// and the end points are stored, so the choice is part of the format.
pub fn min_max(row: &[f32]) -> (f32, f32) {
    if row.is_empty() {
        return (0.0, 0.0);
    }
    let mut lo = scan(row, f32::INFINITY, lesser);
    let mut hi = scan(row, f32::NEG_INFINITY, greater);
    if lo == 0.0 || hi == 0.0 {
        // Which of several zeros a lane-wise scan ends on depends on the
        // lane count; the first one in the row does not.
        let zero = row.iter().copied().find(|&x| x == 0.0);
        let zero = zero.expect("a zero end point is an element of the row");
        if lo == 0.0 {
            lo = zero;
        }
        if hi == 0.0 {
            hi = zero;
        }
    }
    (lo, hi)
}

/// De-quantizes codes produced by any uniform scheme.
pub fn dequantize(codes: &[u16], params: &QuantParams) -> Vec<f32> {
    let mut out = vec![0.0; codes.len()];
    params.dequantize_codes_to(codes, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::row_l2_error;

    fn skewed_row() -> Vec<f32> {
        // Asymmetric distribution: mostly small positives, one large value.
        vec![0.01, 0.02, 0.05, 0.03, 0.04, 0.9, 0.02, 0.01]
    }

    #[test]
    fn asymmetric_beats_symmetric_on_skewed_data() {
        let row = skewed_row();
        for bits in [2u8, 3, 4, 8] {
            let (cs, ps) = quantize_symmetric(&row, bits);
            let (ca, pa) = quantize_asymmetric(&row, bits);
            let es = row_l2_error(&row, &dequantize(&cs, &ps));
            let ea = row_l2_error(&row, &dequantize(&ca, &pa));
            assert!(
                ea <= es,
                "asymmetric ({ea}) should not lose to symmetric ({es}) at {bits} bits"
            );
        }
    }

    #[test]
    fn symmetric_range_is_symmetric() {
        let row = vec![-0.5f32, 0.25, 0.1];
        let (_, p) = quantize_symmetric(&row, 8);
        if let QuantParams::Uniform { scale, zero_point } = p {
            // zero_point = -max|x| = -0.5 and range = 1.0.
            assert!((zero_point + 0.5).abs() < 1e-6);
            assert!((scale - 1.0 / 255.0).abs() < 1e-6);
        } else {
            panic!("expected uniform");
        }
    }

    #[test]
    fn asymmetric_endpoints_are_exactly_representable() {
        let row = vec![-0.3f32, 0.7, 0.1, 0.2];
        let (codes, p) = quantize_asymmetric(&row, 4);
        let back = dequantize(&codes, &p);
        // min and max of the row are grid points, so they roundtrip to within
        // float arithmetic error.
        assert!((back[0] + 0.3).abs() < 1e-5);
        assert!((back[1] - 0.7).abs() < 1e-5);
    }

    #[test]
    fn error_shrinks_with_more_bits() {
        let row: Vec<f32> = (0..64).map(|i| ((i * 37) % 64) as f32 / 64.0 - 0.3).collect();
        let mut prev = f64::INFINITY;
        for bits in [2u8, 3, 4, 8] {
            let (c, p) = quantize_asymmetric(&row, bits);
            let e = row_l2_error(&row, &dequantize(&c, &p));
            assert!(e < prev, "error should drop as bits increase");
            prev = e;
        }
    }

    #[test]
    fn constant_row_is_exact() {
        let row = vec![0.42f32; 16];
        let (c, p) = quantize_asymmetric(&row, 2);
        let back = dequantize(&c, &p);
        assert_eq!(back, row);
    }

    #[test]
    fn empty_row() {
        let (c, _p) = quantize_asymmetric(&[], 4);
        assert!(c.is_empty());
    }

    #[test]
    fn one_bit_snaps_to_nearer_endpoint() {
        // The 1-bit edge width: the code space is {xmin, xmax}, so every
        // element lands on whichever endpoint is nearer.
        let row = vec![0.0f32, 0.1, 0.9, 1.0];
        let (codes, p) = quantize_asymmetric(&row, 1);
        let back = dequantize(&codes, &p);
        assert_eq!(back, vec![0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn sixteen_bit_roundtrip_is_tight() {
        // Width-16 edge: the grid has 65535 steps, so roundtrip error is
        // bounded by half of range/65535 — plus f32 rounding slack, which
        // at this width is within an order of magnitude of the step itself.
        let row: Vec<f32> = (0..128).map(|i| (i as f32).sin()).collect();
        let (codes, p) = quantize_asymmetric(&row, 16);
        let back = dequantize(&codes, &p);
        let half_step = 2.0 / 65535.0 / 2.0 * 1.05 + 1e-6;
        for (x, y) in row.iter().zip(&back) {
            assert!((x - y).abs() <= half_step, "error {} at 16 bits", (x - y).abs());
        }
    }

    #[test]
    fn empty_row_roundtrips_through_every_entry_point() {
        for bits in [1u8, 8, 16] {
            let (cs, ps) = quantize_symmetric(&[], bits);
            assert!(cs.is_empty() && dequantize(&cs, &ps).is_empty());
            let (cr, pr) = quantize_with_range(&[], -1.0, 1.0, bits);
            assert!(cr.is_empty() && dequantize(&cr, &pr).is_empty());
        }
        assert_eq!(min_max(&[]), (0.0, 0.0));
    }

    #[test]
    fn out_of_range_values_clip() {
        let row = vec![0.0f32, 1.0];
        let (codes, p) = quantize_with_range(&row, 0.25, 0.75, 2);
        let back = dequantize(&codes, &p);
        assert!((back[0] - 0.25).abs() < 1e-6, "below range clips to xmin");
        assert!((back[1] - 0.75).abs() < 1e-6, "above range clips to xmax");
    }
}
