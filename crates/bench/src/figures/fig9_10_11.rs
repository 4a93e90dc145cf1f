//! Figures 9–11: quantization quality sweeps on a trained checkpoint.
//!
//! * **Figure 9** — mean ℓ2 error of symmetric / asymmetric / k-means /
//!   adaptive-asymmetric at 2/3/4/8 bits. Paper: asymmetric ≫ symmetric;
//!   k-means ≈ adaptive, both best; ordering stable across widths.
//! * **Figure 10** — ℓ2 improvement of adaptive over naive asymmetric as a
//!   function of `num_bins` (paper: tapers off; optima ~25 bins for 2–3
//!   bits, ~45 for 4 bits; up to ~25% improvement at 2 bits).
//! * **Figure 11** — improvement vs `ratio` at the optimal bins (paper:
//!   lower bit-widths are more ratio-sensitive).

use crate::workloads::{sampled_rows, trained_model};
use crate::{f, print_csv};
use cnr_quant::{mean_l2_error, FlatRows, QuantScheme};

/// Mean ℓ2 errors for one bit-width (Figure 9 bar group).
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Quantization width.
    pub bits: u8,
    /// Uniform symmetric error.
    pub symmetric: f64,
    /// Uniform asymmetric error.
    pub asymmetric: f64,
    /// K-means (15 Lloyd iterations) error.
    pub kmeans: f64,
    /// Adaptive asymmetric error (paper-optimal bins, ratio 1.0).
    pub adaptive: f64,
}

/// The checkpoint rows all three figures sweep over.
pub fn checkpoint_rows(train_batches: u64, rows_per_table: usize) -> FlatRows {
    let (_, model) = trained_model(42, train_batches, 16);
    sampled_rows(&model, rows_per_table)
}

/// Paper-optimal bins per bit-width (Figure 10's tapering points).
pub fn optimal_bins(bits: u8) -> u32 {
    if bits >= 4 {
        45
    } else {
        25
    }
}

/// Runs Figure 9 on the given rows.
pub fn run_fig9(rows: &FlatRows) -> Vec<Fig9Row> {
    [2u8, 3, 4, 8]
        .into_iter()
        .map(|bits| Fig9Row {
            bits,
            symmetric: mean_l2_error(rows, &QuantScheme::Symmetric { bits }),
            asymmetric: mean_l2_error(rows, &QuantScheme::Asymmetric { bits }),
            kmeans: crate::kmeans::mean_l2_error(rows, bits),
            adaptive: mean_l2_error(
                rows,
                &QuantScheme::AdaptiveAsymmetric {
                    bits,
                    num_bins: optimal_bins(bits),
                    ratio: 1.0,
                },
            ),
        })
        .collect()
}

/// Runs Figure 10: `(bits, bins, improvement)` triples.
pub fn run_fig10(rows: &FlatRows, bins_sweep: &[u32]) -> Vec<(u8, u32, f64)> {
    let mut out = Vec::new();
    for bits in [2u8, 3, 4] {
        let baseline = mean_l2_error(rows, &QuantScheme::Asymmetric { bits });
        for &bins in bins_sweep {
            let err = mean_l2_error(
                rows,
                &QuantScheme::AdaptiveAsymmetric {
                    bits,
                    num_bins: bins,
                    ratio: 1.0,
                },
            );
            out.push((bits, bins, improvement(baseline, err)));
        }
    }
    out
}

/// Runs Figure 11: `(bits, ratio, improvement)` triples at optimal bins.
pub fn run_fig11(rows: &FlatRows, ratio_sweep: &[f64]) -> Vec<(u8, f64, f64)> {
    let mut out = Vec::new();
    for bits in [2u8, 3, 4] {
        let baseline = mean_l2_error(rows, &QuantScheme::Asymmetric { bits });
        for &ratio in ratio_sweep {
            let err = mean_l2_error(
                rows,
                &QuantScheme::AdaptiveAsymmetric {
                    bits,
                    num_bins: optimal_bins(bits),
                    ratio,
                },
            );
            out.push((bits, ratio, improvement(baseline, err)));
        }
    }
    out
}

fn improvement(baseline: f64, err: f64) -> f64 {
    if baseline <= f64::EPSILON {
        0.0
    } else {
        (baseline - err) / baseline
    }
}

/// Prints all three figures.
pub fn print() {
    let rows = checkpoint_rows(800, 700);

    let fig9 = run_fig9(&rows);
    let out: Vec<String> = fig9
        .iter()
        .map(|r| {
            format!(
                "{},{},{},{},{}",
                r.bits,
                f(r.symmetric),
                f(r.asymmetric),
                f(r.kmeans),
                f(r.adaptive)
            )
        })
        .collect();
    print_csv(
        "fig9: mean L2 error by scheme (paper: sym worst; kmeans ~ adaptive best)",
        "bits,symmetric,asymmetric,kmeans,adaptive",
        &out,
    );

    let bins_sweep = [5u32, 10, 15, 20, 25, 30, 35, 40, 45, 50];
    let fig10 = run_fig10(&rows, &bins_sweep);
    let out10: Vec<String> = fig10
        .iter()
        .map(|(bits, bins, imp)| format!("{bits},{bins},{}", f(*imp * 100.0)))
        .collect();
    print_csv(
        "fig10: adaptive L2 improvement over naive asymmetric vs num_bins (%) (paper: tapers; 2-bit gains most)",
        "bits,num_bins,improvement_pct",
        &out10,
    );

    let ratio_sweep = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let fig11 = run_fig11(&rows, &ratio_sweep);
    let out11: Vec<String> = fig11
        .iter()
        .map(|(bits, ratio, imp)| format!("{bits},{ratio},{}", f(*imp * 100.0)))
        .collect();
    print_csv(
        "fig11: improvement vs ratio at optimal bins (%) (paper: low bit-widths most ratio-sensitive)",
        "bits,ratio,improvement_pct",
        &out11,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> FlatRows {
        checkpoint_rows(150, 150)
    }

    #[test]
    fn fig9_ordering_matches_paper() {
        let results = run_fig9(&rows());
        for r in &results {
            assert!(
                r.asymmetric <= r.symmetric,
                "bits {}: asym {} > sym {}",
                r.bits,
                r.asymmetric,
                r.symmetric
            );
            assert!(
                r.adaptive <= r.asymmetric + 1e-12,
                "bits {}: adaptive must not lose to naive",
                r.bits
            );
        }
        // Error decreases with bit-width for every scheme.
        for w in results.windows(2) {
            assert!(w[1].asymmetric < w[0].asymmetric);
        }
    }

    #[test]
    fn fig10_improvement_is_positive_and_tapers() {
        let sweep = run_fig10(&rows(), &[5, 25, 50]);
        let two_bit: Vec<f64> = sweep
            .iter()
            .filter(|(b, _, _)| *b == 2)
            .map(|(_, _, i)| *i)
            .collect();
        assert!(two_bit[1] > 0.01, "2-bit adaptive should improve >1%");
        // Going 25 -> 50 bins gains much less than 5 -> 25.
        let early_gain = two_bit[1] - two_bit[0];
        let late_gain = (two_bit[2] - two_bit[1]).abs();
        assert!(late_gain < early_gain.max(0.01), "no taper: {two_bit:?}");
    }

    #[test]
    fn fig11_ratio_one_recovers_full_improvement() {
        let r = rows();
        let full = run_fig10(&r, &[25]);
        let sweep = run_fig11(&r, &[1.0]);
        let f10 = full.iter().find(|(b, _, _)| *b == 2).unwrap().2;
        let f11 = sweep.iter().find(|(b, _, _)| *b == 2).unwrap().2;
        assert!((f10 - f11).abs() < 1e-9, "ratio=1 must equal the bins sweep");
    }
}
