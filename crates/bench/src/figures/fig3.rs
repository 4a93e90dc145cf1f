//! Figure 3: training-job failure CDF.
//!
//! Paper: 21 clusters over one month; jobs failing within 5 minutes are
//! excluded; the longest 10% of failed jobs ran ≥13.5 h, the top 1% ≥53.9 h.
//! We drive the paper-calibrated log-normal failure model through the fleet
//! scheduler and report the empirical CDF plus those two checkpoints.

use crate::failure::empirical_cdf;
use crate::{f, print_csv};
use cnr_cluster::FailureModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

/// Result of the Figure 3 experiment.
pub struct Fig3 {
    /// `(hours, cumulative fraction)` CDF points.
    pub cdf: Vec<(f64, f64)>,
    /// Time-to-failure at the 90th percentile (paper: 13.5 h).
    pub p90_hours: f64,
    /// Time-to-failure at the 99th percentile (paper: 53.9 h).
    pub p99_hours: f64,
}

/// Runs the experiment with `jobs` sampled failures.
pub fn run(jobs: usize, seed: u64) -> Fig3 {
    let model = FailureModel::paper_calibrated();
    let mut rng = StdRng::seed_from_u64(seed);
    let samples: Vec<Duration> = (0..jobs)
        .filter_map(|_| model.sample(&mut rng))
        .map(|s| s.time_to_failure)
        .collect();
    let cdf = empirical_cdf(&samples, Duration::from_secs(300), 100);
    let at = |q: f64| {
        cdf.iter()
            .find(|(_, frac)| *frac >= q)
            .map(|(h, _)| *h)
            .unwrap_or(f64::NAN)
    };
    Fig3 {
        p90_hours: at(0.90),
        p99_hours: at(0.99),
        cdf,
    }
}

/// Prints the figure data.
pub fn print() {
    let r = run(100_000, 3);
    let rows: Vec<String> = r
        .cdf
        .iter()
        .map(|(h, frac)| format!("{},{}", f(*h), f(*frac)))
        .collect();
    print_csv(
        "fig3: training job failure CDF (paper: P90=13.5h, P99=53.9h)",
        "hours,cum_fraction",
        &rows,
    );
    println!("# measured P90 = {} h (paper 13.5)", f(r.p90_hours));
    println!("# measured P99 = {} h (paper 53.9)", f(r.p99_hours));
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_match_paper() {
        let r = run(200_000, 1);
        assert!((r.p90_hours - 13.5).abs() < 1.5, "P90 {}", r.p90_hours);
        assert!((r.p99_hours - 53.9).abs() < 6.0, "P99 {}", r.p99_hours);
    }

    #[test]
    fn cdf_is_monotone() {
        let r = run(10_000, 2);
        for w in r.cdf.windows(2) {
            assert!(w[0].0 <= w[1].0 && w[0].1 < w[1].1);
        }
    }
}
