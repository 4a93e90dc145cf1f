//! Mapping between sample counts and simulated wall-clock time.
//!
//! The paper reports several results against *time* (Figure 6: model fraction
//! modified per 10/20/30/60-minute window; 30-minute checkpoint intervals)
//! while the trainer operates in *samples*. Production training at Facebook
//! runs at ~500K queries per second (§2.2); this model performs that unit
//! conversion so experiments can sweep "interval minutes" without a real
//! cluster.

use std::time::Duration;

/// Constant-rate throughput model: `qps` training samples per second.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QpsModel {
    qps: f64,
}

impl QpsModel {
    /// Creates a throughput model. Panics on non-positive rates, which would
    /// make every downstream duration infinite.
    pub fn new(qps: f64) -> Self {
        assert!(qps.is_finite() && qps > 0.0, "qps must be positive: {qps}");
        Self { qps }
    }

    /// How many whole samples complete within `d`.
    pub fn samples_in(&self, d: Duration) -> u64 {
        (self.qps * d.as_secs_f64()).floor() as u64
    }

    /// Time required to process `samples`.
    pub fn duration_for_samples(&self, samples: u64) -> Duration {
        Duration::from_secs_f64(samples as f64 / self.qps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirty_minutes_of_batches() {
        let m = QpsModel::new(1000.0);
        assert_eq!(m.duration_for_samples(600 * 100), Duration::from_secs(60));
    }

    #[test]
    fn roundtrip_samples_duration() {
        let m = QpsModel::new(12_345.0);
        let d = m.duration_for_samples(1_000_000);
        let back = m.samples_in(d);
        assert!((back as i64 - 1_000_000i64).abs() <= 1);
    }

    #[test]
    #[should_panic(expected = "qps must be positive")]
    fn zero_rate_panics() {
        let _ = QpsModel::new(0.0);
    }
}
