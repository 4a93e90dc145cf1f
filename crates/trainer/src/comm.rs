//! Communication and overhead cost model.
//!
//! The paper's training iteration interleaves computation with two
//! collectives (§2.2): **AlltoAll** for embedding vectors (forward) and
//! embedding gradients (backward), and **AllReduce** for MLP gradients.
//! Check-N-Run schedules its tracking work inside the AlltoAll window to use
//! idle GPU cycles (§5.1.1), bringing tracking overhead to ≈1% of iteration
//! time. This module is the analytic model behind those claims: it exists
//! so `repro overheads` can report the same ratios the paper quotes, and so
//! ablation benches can vary the hiding assumption.

use std::time::Duration;

/// Cost breakdown of one synchronous training iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IterationCosts {
    /// Pure compute (forward + backward) time.
    pub compute: Duration,
    /// AlltoAll window (embedding exchange).
    pub alltoall: Duration,
    /// AllReduce window (MLP gradients).
    pub allreduce: Duration,
    /// Tracking work (bit-vector marking).
    pub tracking: Duration,
}

impl IterationCosts {
    /// Iteration time when tracking hides inside AlltoAll: only the excess
    /// over the AlltoAll window shows up.
    pub fn iteration_time_hidden(&self) -> Duration {
        let visible_tracking = self.tracking.saturating_sub(self.alltoall);
        self.compute + self.alltoall + self.allreduce + visible_tracking
    }

    /// Iteration time when tracking runs serially (no hiding).
    pub fn iteration_time_naive(&self) -> Duration {
        self.compute + self.alltoall + self.allreduce + self.tracking
    }

    /// Tracking overhead fraction with hiding, relative to the untracked
    /// iteration. The paper reports ≈1% (§5.1.1).
    pub fn tracking_overhead_hidden(&self) -> f64 {
        let base = (self.compute + self.alltoall + self.allreduce).as_secs_f64();
        if base == 0.0 {
            return 0.0;
        }
        (self.iteration_time_hidden().as_secs_f64() - base) / base
    }

    /// Tracking overhead fraction without hiding.
    pub fn tracking_overhead_naive(&self) -> f64 {
        let base = (self.compute + self.alltoall + self.allreduce).as_secs_f64();
        if base == 0.0 {
            return 0.0;
        }
        self.tracking.as_secs_f64() / base
    }
}

/// Analytic cost model for one cluster configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommModel {
    /// Per-iteration compute time.
    pub compute_per_iter: Duration,
    /// Bytes exchanged in AlltoAll per iteration (lookups × dim × 4 × 2
    /// directions, roughly).
    pub alltoall_bytes: u64,
    /// Bytes reduced in AllReduce per iteration (MLP params × 4).
    pub allreduce_bytes: u64,
    /// Interconnect bandwidth in bytes/second.
    pub link_bandwidth: f64,
    /// Cost of marking one row in the tracker.
    pub mark_cost: Duration,
}

impl CommModel {
    /// A configuration shaped like the paper's clusters: iteration times of
    /// a few milliseconds, collectives comparable to compute.
    pub fn paper_like() -> Self {
        Self {
            compute_per_iter: Duration::from_micros(2500),
            alltoall_bytes: 64 * 1024 * 1024 / 16, // per-device share
            allreduce_bytes: 8 * 1024 * 1024,
            link_bandwidth: 12.0e9, // NVLink-class
            mark_cost: Duration::from_nanos(4),
        }
    }

    /// Costs of one iteration that marks `rows_marked` rows.
    pub fn iteration(&self, rows_marked: u64) -> IterationCosts {
        IterationCosts {
            compute: self.compute_per_iter,
            alltoall: Duration::from_secs_f64(self.alltoall_bytes as f64 / self.link_bandwidth),
            allreduce: Duration::from_secs_f64(self.allreduce_bytes as f64 / self.link_bandwidth),
            tracking: self.mark_cost * rows_marked as u32,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hiding_absorbs_tracking_inside_alltoall() {
        let costs = IterationCosts {
            compute: Duration::from_micros(1000),
            alltoall: Duration::from_micros(400),
            allreduce: Duration::from_micros(100),
            tracking: Duration::from_micros(300), // < alltoall: fully hidden
        };
        assert_eq!(costs.iteration_time_hidden(), Duration::from_micros(1500));
        assert_eq!(costs.iteration_time_naive(), Duration::from_micros(1800));
        assert_eq!(costs.tracking_overhead_hidden(), 0.0);
        assert!(costs.tracking_overhead_naive() > 0.19);
    }

    #[test]
    fn excess_tracking_leaks_out() {
        let costs = IterationCosts {
            compute: Duration::from_micros(1000),
            alltoall: Duration::from_micros(200),
            allreduce: Duration::from_micros(100),
            tracking: Duration::from_micros(500),
        };
        // 300us of tracking is visible.
        assert_eq!(costs.iteration_time_hidden(), Duration::from_micros(1600));
        let f = costs.tracking_overhead_hidden();
        assert!((f - 300.0 / 1300.0).abs() < 1e-9);
    }

    #[test]
    fn paper_like_tracking_overhead_is_about_one_percent() {
        let model = CommModel::paper_like();
        // A large batch touching ~100k rows per device per iteration.
        let costs = model.iteration(100_000);
        let hidden = costs.tracking_overhead_hidden();
        let naive = costs.tracking_overhead_naive();
        assert!(
            hidden < 0.02,
            "hidden tracking overhead {hidden} should be ~1% (paper §5.1.1)"
        );
        assert!(naive > hidden, "hiding must help");
    }

    #[test]
    fn zero_base_time_is_safe() {
        let costs = IterationCosts {
            compute: Duration::ZERO,
            alltoall: Duration::ZERO,
            allreduce: Duration::ZERO,
            tracking: Duration::ZERO,
        };
        assert_eq!(costs.tracking_overhead_hidden(), 0.0);
        assert_eq!(costs.tracking_overhead_naive(), 0.0);
    }
}
