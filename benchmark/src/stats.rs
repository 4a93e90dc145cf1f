//! Sample statistics: nearest-rank percentiles, the "ten samples beyond"
//! rule, and the interquartile spread used by the noise sentinel.

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Arithmetic mean; `None` for an empty series.
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated quantile `q` in `[0, 1]`; `None` for an empty series.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(v[lo] + (v[hi] - v[lo]) * (pos - lo as f64))
}

/// Median; `None` for an empty series.
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// Whether percentile `p` (in percent) of `n` samples has at least
/// [`MIN_BEYOND`] samples beyond it.
pub fn percentile_supported(n: usize, p: u32) -> bool {
    p < 100 && n * (100 - p as usize) >= MIN_BEYOND * 100
}

/// The highest of `candidates` (percent, any order) that `n` samples
/// support under the ten-beyond rule.
pub fn highest_supported_percentile(n: usize, candidates: &[u32]) -> Option<u32> {
    candidates
        .iter()
        .copied()
        .filter(|&p| percentile_supported(n, p))
        .max()
}

/// Interquartile range as a share of the median (the noise sentinel's
/// spread); `None` below four samples or for a zero median.
pub fn iqr_over_median(values: &[f64]) -> Option<f64> {
    if values.len() < 4 {
        return None;
    }
    let med = median(values)?;
    if med == 0.0 {
        return None;
    }
    Some((quantile(values, 0.75)? - quantile(values, 0.25)?) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // p50 needs 20 samples, p75 needs 40, p90 needs 100, p99 needs 1000.
        assert!(!percentile_supported(19, 50));
        assert!(percentile_supported(20, 50));
        assert!(!percentile_supported(39, 75));
        assert!(percentile_supported(40, 75));
        assert!(!percentile_supported(99, 90));
        assert!(percentile_supported(100, 90));
        assert!(!percentile_supported(999, 99));
        assert!(percentile_supported(1000, 99));
        assert!(!percentile_supported(1_000_000, 100));
    }

    #[test]
    fn highest_supported_percentile_picks_the_top_candidate() {
        let c = [50, 75, 90, 99];
        assert_eq!(highest_supported_percentile(9, &c), None);
        assert_eq!(highest_supported_percentile(24, &c), Some(50));
        assert_eq!(highest_supported_percentile(40, &c), Some(75));
        assert_eq!(highest_supported_percentile(250, &c), Some(90));
        assert_eq!(highest_supported_percentile(5000, &c), Some(99));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(quantile(&v, 0.75), Some(3.25));
        assert_eq!(mean(&v), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn iqr_spread_is_relative_to_the_median() {
        let v = [90.0, 100.0, 100.0, 100.0, 110.0];
        let s = iqr_over_median(&v).unwrap();
        assert!((s - 0.0).abs() < 1e-12, "quartiles both sit on 100: {s}");
        let w = [80.0, 90.0, 100.0, 110.0, 120.0];
        assert!((iqr_over_median(&w).unwrap() - 0.2).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[1.0, 2.0, 3.0]), None);
    }
}
