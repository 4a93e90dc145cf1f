//! Checkpoint frequency planning (§4.3).
//!
//! "The checkpointing frequency is bounded by the available write bandwidth
//! to remote storage … two consecutive checkpoints cannot overlap." Given a
//! storage configuration and an expected checkpoint size, this module
//! computes the maximum sustainable frequency and validates a configured
//! interval against it — the planning arithmetic behind the paper's claim
//! that bandwidth reduction is what *enables* frequent checkpoints.

use cnr_storage::RemoteConfig;
use std::time::Duration;

/// A frequency plan for one training job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrequencyPlan {
    /// Expected bytes written per checkpoint.
    pub checkpoint_bytes: u64,
    /// Time the storage channel needs per checkpoint.
    pub write_time: Duration,
    /// Minimum interval that satisfies the non-overlap rule, with headroom.
    pub min_interval: Duration,
    /// Maximum sustainable checkpoints per hour.
    pub max_per_hour: f64,
}

/// Fraction of the interval the storage channel may be busy; the remainder
/// is headroom for retries, competing jobs, and manifest writes.
pub const CHANNEL_UTILIZATION_TARGET: f64 = 0.8;

/// Computes the sustainable checkpoint frequency for `checkpoint_bytes`
/// checkpoints on a store configured as `remote`.
pub fn plan(checkpoint_bytes: u64, remote: &RemoteConfig) -> FrequencyPlan {
    let physical = checkpoint_bytes.saturating_mul(remote.replication as u64);
    let write_time = remote.base_latency
        + Duration::from_secs_f64(physical as f64 / remote.bandwidth_bytes_per_sec);
    let min_interval =
        Duration::from_secs_f64(write_time.as_secs_f64() / CHANNEL_UTILIZATION_TARGET);
    FrequencyPlan {
        checkpoint_bytes,
        write_time,
        min_interval,
        max_per_hour: 3600.0 / min_interval.as_secs_f64().max(1e-9),
    }
}

/// Checks a configured interval against the plan. Returns the write-to-
/// interval utilization in `[0, ∞)`; values above
/// [`CHANNEL_UTILIZATION_TARGET`] mean the interval is too aggressive and
/// checkpoints will queue behind each other (the engine's non-overlap wait
/// will eat into training time).
pub fn utilization(plan: &FrequencyPlan, interval: Duration) -> f64 {
    plan.write_time.as_secs_f64() / interval.as_secs_f64().max(1e-9)
}

/// How much more frequently a job can checkpoint after a size reduction —
/// the paper's headline claim inverted: a 17× smaller checkpoint supports
/// 17× the frequency on the same channel (minus the fixed latency).
pub fn frequency_gain(
    before_bytes: u64,
    after_bytes: u64,
    remote: &RemoteConfig,
) -> f64 {
    let before = plan(before_bytes, remote);
    let after = plan(after_bytes, remote);
    after.max_per_hour / before.max_per_hour.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn remote(bw_mb: f64) -> RemoteConfig {
        RemoteConfig {
            bandwidth_bytes_per_sec: bw_mb * 1024.0 * 1024.0,
            base_latency: Duration::from_millis(10),
            replication: 3,
            channels: 1,
        }
    }

    #[test]
    fn write_time_includes_replication() {
        // 100 MB checkpoint, 3x replication, 100 MB/s => 3s + latency.
        let p = plan(100 * 1024 * 1024, &remote(100.0));
        assert!((p.write_time.as_secs_f64() - 3.01).abs() < 0.01);
        assert!(p.min_interval > p.write_time, "headroom required");
    }

    #[test]
    fn max_per_hour_is_consistent() {
        let p = plan(100 * 1024 * 1024, &remote(100.0));
        let expected = 3600.0 / p.min_interval.as_secs_f64();
        assert!((p.max_per_hour - expected).abs() < 1e-9);
    }

    #[test]
    fn utilization_flags_aggressive_intervals() {
        let p = plan(100 * 1024 * 1024, &remote(100.0));
        assert!(utilization(&p, Duration::from_secs(30)) < CHANNEL_UTILIZATION_TARGET);
        assert!(utilization(&p, Duration::from_secs(3)) > CHANNEL_UTILIZATION_TARGET);
    }

    #[test]
    fn seventeenfold_reduction_buys_near_seventeenfold_frequency() {
        let r = remote(100.0);
        let gain = frequency_gain(17 * 100 * 1024 * 1024, 100 * 1024 * 1024, &r);
        assert!(
            gain > 14.0 && gain <= 17.0,
            "gain {gain} should approach 17x (fixed latency eats a little)"
        );
    }

    #[test]
    fn zero_size_checkpoint_is_latency_bound() {
        let p = plan(0, &remote(100.0));
        assert_eq!(p.write_time, Duration::from_millis(10));
        assert!(p.max_per_hour.is_finite());
    }
}
