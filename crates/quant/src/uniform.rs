//! Uniform quantization: symmetric and asymmetric (§5.2, Approach 1).
//!
//! * **Symmetric**: the range is `[-max|x|, +max|x|]`. Simple, but embedding
//!   values are not symmetrically distributed, so half the code space is
//!   often wasted — the paper finds it consistently worst (Figure 9).
//! * **Asymmetric**: the range is `[min x, max x]` of the actual vector, at
//!   the cost of storing both endpoints. The paper's default for 8-bit
//!   checkpoints.
//!
//! This module holds the two range scans; a row is quantized through
//! [`crate::QuantScheme::quantize_row`], which rounds the chosen range
//! once to the binary16 grid a row stores (`kernel::Grid::half_for_range`).

/// Largest absolute value of a slice (0 when empty): the symmetric
/// scheme's range is `[-max_abs, +max_abs]`.
pub fn max_abs(row: &[f32]) -> f32 {
    row.iter().fold(0.0f32, |m, &x| m.max(x.abs()))
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::row_l2_error;
    use crate::{QuantParams, QuantScheme};

    fn skewed_row() -> Vec<f32> {
        // Asymmetric distribution: mostly small positives, one large value.
        vec![0.01, 0.02, 0.05, 0.03, 0.04, 0.9, 0.02, 0.01]
    }

    /// `row` quantized under `scheme` and restored, with the stored
    /// `(scale, zero_point)`.
    fn roundtrip(scheme: QuantScheme, row: &[f32]) -> (Vec<f32>, f32, f32) {
        let q = scheme.quantize_row(row);
        let QuantParams::Uniform { scale, zero_point } = q.params else {
            panic!("{scheme}: expected uniform parameters, got {:?}", q.params);
        };
        (q.dequantize(), scale, zero_point)
    }

    /// The least binary16 value above `x`'s nearest one, minus that
    /// nearest one: how far a zero point rounded up can lie above `x`.
    fn half_gap(x: f32) -> f32 {
        let h = crate::half::f32_to_f16_bits(x.abs());
        crate::half::f16_bits_to_f32(h + 1) - crate::half::f16_bits_to_f32(h)
    }

    #[test]
    fn asymmetric_beats_symmetric_on_skewed_data() {
        let row = skewed_row();
        for bits in [2u8, 3, 4, 8] {
            let (bs, _, _) = roundtrip(QuantScheme::Symmetric { bits }, &row);
            let (ba, _, _) = roundtrip(QuantScheme::Asymmetric { bits }, &row);
            let es = row_l2_error(&row, &bs);
            let ea = row_l2_error(&row, &ba);
            assert!(
                ea <= es,
                "asymmetric ({ea}) should not lose to symmetric ({es}) at {bits} bits"
            );
        }
    }

    #[test]
    fn symmetric_range_is_symmetric() {
        let row = vec![-0.5f32, 0.25, 0.1];
        let (_, scale, zero_point) = roundtrip(QuantScheme::Symmetric { bits: 8 }, &row);
        // zero_point = -max|x| = -0.5 (a binary16 value) and range = 1.0:
        // the scale is the binary16 nearest 1/255.
        assert_eq!(zero_point, -0.5);
        assert!((scale - 1.0 / 255.0).abs() <= 1.0 / 255.0 / 2048.0, "{scale}");
    }

    /// The row's minimum lands on code 0, which reconstructs the zero
    /// point — its binary16 rounding up — exactly, and its maximum on the
    /// top code.
    #[test]
    fn asymmetric_endpoints_are_exactly_representable() {
        let row = vec![-0.3f32, 0.7, 0.1, 0.2];
        let (back, scale, zero_point) = roundtrip(QuantScheme::Asymmetric { bits: 4 }, &row);
        assert_eq!(back[0], zero_point);
        assert!(zero_point >= -0.3 && zero_point + 0.3 < half_gap(-0.3));
        assert_eq!(back[1], scale * 15.0 + zero_point);
        assert!((back[1] - 0.7).abs() <= scale / 2.0);
    }

    #[test]
    fn error_shrinks_with_more_bits() {
        let row: Vec<f32> = (0..64).map(|i| ((i * 37) % 64) as f32 / 64.0 - 0.3).collect();
        let mut prev = f64::INFINITY;
        for bits in [2u8, 3, 4, 8] {
            let (back, _, _) = roundtrip(QuantScheme::Asymmetric { bits }, &row);
            let e = row_l2_error(&row, &back);
            assert!(e < prev, "error should drop as bits increase");
            prev = e;
        }
    }

    /// A constant row collapses to its zero point: exact when the value is
    /// a binary16 one, otherwise its binary16 rounding up.
    #[test]
    fn constant_row_is_exact() {
        let row = vec![0.375f32; 16];
        let (back, scale, _) = roundtrip(QuantScheme::Asymmetric { bits: 2 }, &row);
        assert_eq!(scale, 0.0);
        assert_eq!(back, row);
        let (back, scale, zero_point) = roundtrip(QuantScheme::Asymmetric { bits: 2 }, &[0.42; 16]);
        assert_eq!(scale, 0.0);
        assert!(back.iter().all(|&v| v == zero_point));
        assert!(zero_point >= 0.42 && zero_point - 0.42 < half_gap(0.42));
    }

    #[test]
    fn empty_row() {
        let q = QuantScheme::Asymmetric { bits: 4 }.quantize_row(&[]);
        assert!(q.payload.is_empty() && q.dequantize().is_empty());
    }

    #[test]
    fn one_bit_snaps_to_nearer_endpoint() {
        // The 1-bit edge width: the code space is {xmin, xmax}, so every
        // element lands on whichever endpoint is nearer.
        let row = vec![0.0f32, 0.1, 0.9, 1.0];
        let (back, _, _) = roundtrip(QuantScheme::Asymmetric { bits: 1 }, &row);
        assert_eq!(back, vec![0.0, 0.0, 1.0, 1.0]);
    }

    /// Width-16 edge: the grid has 65535 steps of about `2/65535 ≈ 3.05e-5`,
    /// a binary16 subnormal, held to the nearest `2^-24`. The top grid
    /// point therefore misses the row's maximum by up to `65535 · 2^-24`,
    /// and the zero point lies up to a binary16 step (`2^-11` near 1) above
    /// the minimum: a value on the grid is within half a step of its
    /// restored value (plus `f32` rounding, under an order of magnitude of
    /// the step at this width), one outside it clamps to the nearer end.
    #[test]
    fn sixteen_bit_roundtrip_is_tight() {
        let row: Vec<f32> = (0..128).map(|i| (i as f32).sin()).collect();
        let (back, scale, zero_point) = roundtrip(QuantScheme::Asymmetric { bits: 16 }, &row);
        let top = scale * 65535.0 + zero_point;
        let (xmin, xmax) = min_max(&row);
        assert!(xmax - top <= 65535.0 * f32::from_bits(0x3380_0000), "top {top} of {xmax}");
        assert!(zero_point >= xmin && zero_point - xmin < half_gap(xmin));
        let half_step = scale / 2.0 * 1.05 + 1e-6;
        for (x, y) in row.iter().zip(&back) {
            let error = (x - y).abs();
            if *x < zero_point {
                assert_eq!(*y, zero_point, "{x} below the grid clamps to its zero point");
            } else if *x > top {
                assert_eq!(*y, top, "{x} above the grid clamps to its top");
            } else {
                assert!(error <= half_step, "error {error} at 16 bits");
            }
        }
    }

    #[test]
    fn empty_row_roundtrips_through_every_entry_point() {
        for bits in [1u8, 8, 16] {
            for scheme in [
                QuantScheme::Symmetric { bits },
                QuantScheme::Asymmetric { bits },
                QuantScheme::recommended_for_bits(bits),
            ] {
                let q = scheme.quantize_row(&[]);
                assert!(q.payload.is_empty() && q.dequantize().is_empty(), "{scheme}");
            }
        }
        assert_eq!(min_max(&[]), (0.0, 0.0));
        assert_eq!(max_abs(&[]), 0.0);
    }

    /// Values outside the range a row is stored on clip to its ends: the
    /// adaptive search drops the outlier and the two points below the
    /// bulk from the range, and they restore to the top and bottom codes.
    #[test]
    fn out_of_range_values_clip() {
        let mut row: Vec<f32> = (0..60).map(|i| 0.25 + 0.5 * (i as f32 / 59.0)).collect();
        row.extend([0.0, 0.01, 1.0]);
        let scheme = QuantScheme::AdaptiveAsymmetric { bits: 2, num_bins: 20, ratio: 1.0 };
        let (back, scale, zero_point) = roundtrip(scheme, &row);
        let top = scale * 3.0 + zero_point;
        assert!(zero_point > 0.01 && top < 1.0, "grid [{zero_point}, {top}]");
        assert_eq!(back[60], zero_point, "below range clips to the zero point");
        assert_eq!(back[61], zero_point);
        assert_eq!(back[62], top, "above range clips to the top");
    }
}
