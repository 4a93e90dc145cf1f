//! Figure 3's empirical failure CDF.
//!
//! The failure *model* is engine code (`cnr_cluster::failure`); turning its
//! samples into the plotted CDF is figure code and lives here.

use std::time::Duration;

/// Builds an empirical CDF from samples: returns `(hours, fraction ≤ hours)`
/// pairs at the requested quantile resolution. Samples shorter than
/// `min_duration` are dropped, mirroring the paper's exclusion of <5-minute
/// setup failures.
pub fn empirical_cdf(
    samples: &[Duration],
    min_duration: Duration,
    points: usize,
) -> Vec<(f64, f64)> {
    let mut hours: Vec<f64> = samples
        .iter()
        .filter(|d| **d >= min_duration)
        .map(|d| d.as_secs_f64() / 3600.0)
        .collect();
    hours.sort_by(|a, b| a.partial_cmp(b).unwrap());
    if hours.is_empty() {
        return Vec::new();
    }
    (1..=points)
        .map(|i| {
            let q = i as f64 / points as f64;
            let idx = ((q * hours.len() as f64).ceil() as usize).clamp(1, hours.len()) - 1;
            (hours[idx], q)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_cdf_monotone_and_filtered() {
        let samples: Vec<Duration> = (1..=100)
            .map(|i| Duration::from_secs(i * 360)) // 0.1h .. 10h
            .chain(std::iter::once(Duration::from_secs(60))) // dropped (<5 min)
            .collect();
        let cdf = empirical_cdf(&samples, Duration::from_secs(300), 10);
        assert_eq!(cdf.len(), 10);
        for w in cdf.windows(2) {
            assert!(w[0].0 <= w[1].0, "hours must be non-decreasing");
            assert!(w[0].1 < w[1].1, "quantiles must increase");
        }
        // The 60-second sample was filtered: minimum hour > 0.08.
        assert!(cdf[0].0 > 0.08);
    }

    #[test]
    fn empirical_cdf_empty_after_filter() {
        let samples = vec![Duration::from_secs(10)];
        assert!(empirical_cdf(&samples, Duration::from_secs(300), 5).is_empty());
    }
}
