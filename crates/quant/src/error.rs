//! ℓ2 error metrics (§5.2).
//!
//! The paper uses the mean ℓ2 error over all embedding vectors of a
//! checkpoint — `1/m · Σ ‖Xᵢ − Qᵢ‖₂` — as its proxy for accuracy loss, and
//! all of Figures 9–11 are plotted in this metric. Note the inner term is the
//! euclidean *norm* (not its square), matching the paper's definition.

use crate::kernel::{self, LANES};
use crate::scheme::QuantScheme;
use crate::RowSource;

/// Euclidean distance between an original row and its de-quantized twin,
/// computed the one way this crate computes an ℓ2: each difference is
/// squared in `f32` and added into lane `i % 8` of eight `f32` sums, the
/// lanes are combined in a fixed tree, and the `sqrt` is taken in `f64`.
/// The adaptive search decides on this sum (its trials' errors are this
/// function of their de-quantized rows, bit for bit), so the paper's
/// "lower ℓ2 error" means one thing everywhere. A sum that overflows
/// `f32` is `+∞`.
pub fn row_l2_error(original: &[f32], dequantized: &[f32]) -> f64 {
    assert_eq!(
        original.len(),
        dequantized.len(),
        "row length mismatch in l2 error"
    );
    let mut lanes = [0.0f32; LANES];
    for (i, (&a, &b)) in original.iter().zip(dequantized).enumerate() {
        let d = a - b;
        lanes[i % LANES] += d * d;
    }
    kernel::norm(kernel::total(lanes))
}

/// Mean ℓ2 error of quantizing every row of `source` with `scheme`.
pub fn mean_l2_error<S: RowSource + ?Sized>(source: &S, scheme: &QuantScheme) -> f64 {
    let n = source.num_rows();
    if n == 0 {
        return 0.0;
    }
    let mut total = 0.0f64;
    for i in 0..n {
        let row = source.row(i);
        let q = scheme.quantize_row(row);
        total += row_l2_error(row, &q.dequantize());
    }
    total / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FlatRows;

    #[test]
    fn identical_rows_have_zero_error() {
        assert_eq!(row_l2_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn unit_offset_has_sqrt_n_error() {
        let a = vec![0.0f32; 9];
        let b = vec![1.0f32; 9];
        assert!((row_l2_error(&a, &b) - 3.0).abs() < 1e-9);
    }

    /// The sum is the one the search decides on, not an in-order `f64`
    /// one: squares of `2^-12` (`2^-24`, half an ulp of 1) vanish into a
    /// lane holding 1 when added one at a time, and count when the tree
    /// pairs them first. In-order `f64` sums would give `√(1 + 2^-23)`
    /// and `√(1 + 3·2^-24)`.
    #[test]
    fn sums_in_lanes_then_the_fixed_tree() {
        let tiny = 2f32.powi(-12);
        let mut by_lane = vec![0.0f32; 17];
        (by_lane[0], by_lane[8], by_lane[16]) = (1.0, tiny, tiny);
        let err = row_l2_error(&by_lane, &[0.0; 17]);
        assert_eq!(err.to_bits(), 1.0f64.to_bits());
        assert_ne!(err, (1.0 + 2f64.powi(-23)).sqrt());

        // Lanes 0, 2, 4 and 6: (0 + 4) + (2 + 6) keeps what 0 + 2 + 4 + 6
        // loses.
        let mut by_tree = vec![0.0f32; 9];
        (by_tree[0], by_tree[2], by_tree[4], by_tree[6]) = (1.0, tiny, tiny, tiny);
        let err = row_l2_error(&[0.0; 9], &by_tree);
        assert_eq!(err.to_bits(), (1.0 + 2f64.powi(-23)).sqrt().to_bits());
        assert_ne!(err, (1.0 + 3.0 * 2f64.powi(-24)).sqrt());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        row_l2_error(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn mean_error_zero_for_fp32_passthrough() {
        let rows = FlatRows::new(vec![0.1, -0.7, 0.3, 0.9, -0.2, 0.5], 3);
        assert_eq!(mean_l2_error(&rows, &QuantScheme::Fp32), 0.0);
    }

    #[test]
    fn mean_error_positive_for_lossy_scheme() {
        let rows = FlatRows::new(
            (0..64).map(|i| (i as f32 * 0.37).sin() * 0.1).collect(),
            8,
        );
        let e = mean_l2_error(&rows, &QuantScheme::Asymmetric { bits: 2 });
        assert!(e > 0.0);
    }

    #[test]
    fn empty_source_reports_zero() {
        let rows = FlatRows::new(vec![], 4);
        assert_eq!(
            mean_l2_error(&rows, &QuantScheme::Asymmetric { bits: 4 }),
            0.0
        );
    }
}
