//! Figures 12 and 13: adaptive quantization latency.
//!
//! Paper (on a production checkpoint): ≤600 s at 50 bins; asymmetric-only
//! ≈126 s; latency grows with `num_bins` (Figure 12) and with `ratio`
//! (Figure 13, shown at 25 and 45 bins). Absolute seconds depend on
//! checkpoint size, so we report wall-clock on a fixed scaled table *and*
//! the ratio to the asymmetric-only baseline, which is scale-free (paper:
//! adaptive "at least doubles" quantization latency).
//!
//! The paper's curves are the search *budget*: `ratio · num_bins` greedy
//! steps per row. The search here stops as soon as what the current range
//! clips already costs more than the best range found (see
//! `cnr_quant::adaptive`), so each point also reports the steps actually
//! executed: the budget column is the paper's growth, the executed column
//! and the wall time show where the bound flattens it.

use crate::workloads::{sampled_rows, trained_model};
use crate::{f, print_csv};
use cnr_quant::adaptive::search_range;
use cnr_quant::{FlatRows, QuantScheme, RowSource};
use std::time::{Duration, Instant};

/// Quantizes every row of `rows` with `scheme`, returning wall time.
pub fn quantize_all(rows: &FlatRows, scheme: &QuantScheme) -> Duration {
    let t0 = Instant::now();
    for i in 0..rows.num_rows() {
        let q = scheme.quantize_row(rows.row(i));
        std::hint::black_box(&q);
    }
    t0.elapsed()
}

/// Greedy steps the range search executes over all of `rows`: a count,
/// identical on every machine.
pub fn executed_steps(rows: &FlatRows, bits: u8, num_bins: u32, ratio: f64) -> usize {
    (0..rows.num_rows())
        .map(|i| search_range(rows.row(i), bits, num_bins, ratio).steps)
        .sum()
}

/// One point of a sweep: the adaptive scheme at `(num_bins, ratio)` over a
/// fixed set of rows.
#[derive(Debug, Clone, Copy)]
pub struct SweepPoint {
    /// Step granularity of the search.
    pub num_bins: u32,
    /// Fraction of the range the search may consume.
    pub ratio: f64,
    /// Steps the budget allows per row, `⌊ratio · num_bins⌋`: the paper's
    /// cost curve.
    pub budgeted_steps: usize,
    /// Steps executed, summed over the rows.
    pub executed_steps: usize,
    /// Wall time to quantize the rows.
    pub latency: Duration,
}

fn measure(rows: &FlatRows, bits: u8, num_bins: u32, ratio: f64) -> SweepPoint {
    let scheme = QuantScheme::AdaptiveAsymmetric {
        bits,
        num_bins,
        ratio,
    };
    SweepPoint {
        num_bins,
        ratio,
        budgeted_steps: (ratio * num_bins as f64).floor() as usize,
        executed_steps: executed_steps(rows, bits, num_bins, ratio),
        latency: quantize_all(rows, &scheme),
    }
}

/// Sweep over bins (Figure 12) at ratio 1.0.
pub fn run_fig12(rows: &FlatRows, bins_sweep: &[u32], bits: u8) -> Vec<SweepPoint> {
    bins_sweep
        .iter()
        .map(|&bins| measure(rows, bits, bins, 1.0))
        .collect()
}

/// Sweep over ratio (Figure 13) at fixed bins.
pub fn run_fig13(rows: &FlatRows, ratios: &[f64], bins: u32, bits: u8) -> Vec<SweepPoint> {
    ratios
        .iter()
        .map(|&ratio| measure(rows, bits, bins, ratio))
        .collect()
}

/// Prints both figures.
pub fn print() {
    let (_, model) = trained_model(42, 300, 16);
    let rows = sampled_rows(&model, 4000);
    let baseline = quantize_all(&rows, &QuantScheme::Asymmetric { bits: 4 });
    println!(
        "# asymmetric-only baseline on {} rows: {} ms (paper: 126 s on a production checkpoint)",
        rows.num_rows(),
        baseline.as_millis()
    );
    let line = |p: &SweepPoint| {
        format!(
            "{},{},{},{},{},{}",
            p.num_bins,
            p.ratio,
            p.budgeted_steps,
            f(p.executed_steps as f64 / rows.num_rows() as f64),
            p.latency.as_millis(),
            f(p.latency.as_secs_f64() / baseline.as_secs_f64())
        )
    };
    let header = "num_bins,ratio,budgeted_steps_per_row,executed_steps_per_row,latency_ms,x_vs_asymmetric";

    let bins_sweep = [5u32, 10, 15, 20, 25, 30, 35, 40, 45, 50];
    let out: Vec<String> = run_fig12(&rows, &bins_sweep, 4).iter().map(line).collect();
    print_csv(
        "fig12: adaptive quantization cost vs bins, ratio=1.0 (paper: latency grows with bins, <=600s @ 50 bins vs 126s baseline ~ 4.8x; here the budget grows and the clip bound ends the search after a handful of steps)",
        header,
        &out,
    );

    let ratios = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    let mut rows13 = Vec::new();
    for bins in [25u32, 45] {
        rows13.extend(run_fig13(&rows, &ratios, bins, 4).iter().map(line));
    }
    print_csv(
        "fig13: cost vs ratio at 25 and 45 bins (paper: latency grows with ratio; here executed steps level off once the budget exceeds what the bound lets run)",
        header,
        &rows13,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> FlatRows {
        let (_, model) = trained_model(9, 50, 16);
        sampled_rows(&model, 200)
    }

    // The two growth tests assert cost as executed steps, a count that
    // repeats exactly: with the clip bound the two ends of each sweep are
    // a few steps apart, which wall time on a shared 2-core machine cannot
    // resolve.

    #[test]
    fn latency_grows_with_bins() {
        let r = rows();
        let sweep = run_fig12(&r, &[5, 50], 4);
        assert!(
            sweep[1].executed_steps > sweep[0].executed_steps,
            "50 bins ({}) should run more steps than 5 ({})",
            sweep[1].executed_steps,
            sweep[0].executed_steps
        );
        assert!(sweep[1].budgeted_steps > sweep[0].budgeted_steps);
    }

    #[test]
    fn latency_grows_with_ratio() {
        let r = rows();
        let sweep = run_fig13(&r, &[0.1, 1.0], 45, 4);
        assert!(
            sweep[1].executed_steps > sweep[0].executed_steps,
            "ratio 1.0 ({}) should run more steps than 0.1 ({})",
            sweep[1].executed_steps,
            sweep[0].executed_steps
        );
    }

    #[test]
    fn executed_steps_stay_within_the_budget() {
        let r = rows();
        for p in run_fig13(&r, &[0.1, 0.5, 1.0], 45, 4) {
            assert!(p.executed_steps <= p.budgeted_steps * r.num_rows());
            assert!(p.executed_steps > 0);
        }
    }

    #[test]
    fn adaptive_costs_more_than_naive() {
        let r = rows();
        let naive = quantize_all(&r, &QuantScheme::Asymmetric { bits: 4 });
        let adaptive = run_fig12(&r, &[45], 4)[0].latency;
        assert!(
            adaptive > naive * 2,
            "paper: adaptive at least doubles latency ({naive:?} vs {adaptive:?})"
        );
    }
}
