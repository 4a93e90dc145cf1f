//! Figure 4: normalized model size over two years (paper: >3× growth).
//!
//! Illustrative motivation data — the paper's exact sizes are confidential,
//! so the series is normalized; ours reproduces the shape (exponential
//! growth punctuated by feature launches, 3.3× total).

use crate::growth::{paper_series, GrowthPoint};
use crate::{f, print_csv};

/// Runs the experiment.
pub fn run() -> Vec<GrowthPoint> {
    paper_series()
}

/// Prints the figure data.
pub fn print() {
    let series = run();
    let rows: Vec<String> = series
        .iter()
        .map(|p| format!("{},{}", p.month, f(p.normalized_size)))
        .collect();
    print_csv(
        "fig4: normalized model size over 24 months (paper: >3x)",
        "month,normalized_size",
        &rows,
    );
}

#[cfg(test)]
mod tests {
    #[test]
    fn final_growth_exceeds_3x() {
        let series = super::run();
        assert!(series.last().unwrap().normalized_size > 3.0);
    }
}
