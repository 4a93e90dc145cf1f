//! Normalized model-size growth (Figure 4).
//!
//! The paper shows the recommendation model growing more than 3× over two
//! years (exact sizes confidential, so the figure is normalized). We generate
//! an equivalent normalized series: exponential capacity growth punctuated by
//! step jumps when new sparse features launch — the documented industry
//! pattern behind the curve. This is *illustrative motivation data*, not an
//! algorithmic result; it exists so `repro fig4` covers every figure.


/// One point of the growth series.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrowthPoint {
    /// Months since the start of the observation window.
    pub month: u32,
    /// Model size normalized to month 0.
    pub normalized_size: f64,
}

/// Generates a normalized growth series over `months` months reaching
/// `final_ratio`× the starting size, with feature-launch step jumps at the
/// given months (fraction of growth delivered as steps vs smooth growth).
pub fn growth_series(months: u32, final_ratio: f64, step_months: &[u32]) -> Vec<GrowthPoint> {
    assert!(months >= 1, "need at least one month");
    assert!(final_ratio >= 1.0, "model sizes do not shrink in this model");
    // Allocate half of the (log) growth to steps, half to smooth growth.
    let total_log = final_ratio.ln();
    let steps_in_range: Vec<u32> = step_months.iter().copied().filter(|&m| m < months).collect();
    let step_log = if steps_in_range.is_empty() {
        0.0
    } else {
        total_log * 0.5 / steps_in_range.len() as f64
    };
    let smooth_log = (total_log - step_log * steps_in_range.len() as f64) / months as f64;

    let mut series = Vec::with_capacity(months as usize + 1);
    let mut log_size = 0.0f64;
    for month in 0..=months {
        series.push(GrowthPoint {
            month,
            normalized_size: log_size.exp(),
        });
        if month < months {
            log_size += smooth_log;
            if steps_in_range.contains(&month) {
                log_size += step_log;
            }
        }
    }
    series
}

/// The paper-shaped series: 24 months, 3.3× growth, feature launches at
/// months 6, 12, and 18.
pub fn paper_series() -> Vec<GrowthPoint> {
    growth_series(24, 3.3, &[6, 12, 18])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_series_reaches_3_3x() {
        let s = paper_series();
        assert_eq!(s.first().unwrap().normalized_size, 1.0);
        let last = s.last().unwrap().normalized_size;
        assert!((last - 3.3).abs() < 0.01, "final ratio {last}");
    }

    #[test]
    fn series_is_monotonically_increasing() {
        let s = paper_series();
        for w in s.windows(2) {
            assert!(w[1].normalized_size > w[0].normalized_size);
        }
    }

    #[test]
    fn steps_create_visible_jumps() {
        let s = paper_series();
        // Growth across a step month exceeds growth across a smooth month.
        let growth = |m: usize| s[m + 1].normalized_size / s[m].normalized_size;
        assert!(growth(6) > growth(5) * 1.01);
    }

    #[test]
    fn no_steps_is_pure_exponential() {
        let s = growth_series(12, 2.0, &[]);
        let ratios: Vec<f64> = s
            .windows(2)
            .map(|w| w[1].normalized_size / w[0].normalized_size)
            .collect();
        for w in ratios.windows(2) {
            assert!((w[0] - w[1]).abs() < 1e-9, "uneven exponential growth");
        }
    }

    #[test]
    #[should_panic(expected = "at least one month")]
    fn zero_months_panics() {
        growth_series(0, 2.0, &[]);
    }
}
