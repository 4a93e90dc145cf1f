//! ℓ2 error metrics (§5.2).
//!
//! The paper uses the mean ℓ2 error over all embedding vectors of a
//! checkpoint — `1/m · Σ ‖Xᵢ − Qᵢ‖₂` — as its proxy for accuracy loss, and
//! all of Figures 9–11 are plotted in this metric. Note the inner term is the
//! euclidean *norm* (not its square), matching the paper's definition.

use crate::scheme::QuantScheme;
use crate::RowSource;

/// Euclidean distance between an original row and its de-quantized twin.
pub fn row_l2_error(original: &[f32], dequantized: &[f32]) -> f64 {
    assert_eq!(
        original.len(),
        dequantized.len(),
        "row length mismatch in l2 error"
    );
    original
        .iter()
        .zip(dequantized)
        .map(|(&a, &b)| {
            let d = (a - b) as f64;
            d * d
        })
        .sum::<f64>()
        .sqrt()
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
