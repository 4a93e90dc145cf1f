//! Time sources for span timestamps.
//!
//! Everything in this crate stamps time as a [`Duration`] since an arbitrary
//! per-clock epoch. That is exactly the shape of the workspace's simulated
//! clock (`cnr_cluster::SimClock::now`), and wall clocks are adapted to it by
//! measuring from a fixed origin [`Instant`]. Spans recorded against
//! different clocks must not be mixed in one trace; the engine always uses
//! its simulated clock.

#[cfg(test)]
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A monotonic time source with an arbitrary epoch.
///
/// Implementations must be monotone non-decreasing: two calls `a` then `b`
/// on the same clock observe `a <= b`. The trait is object-safe so an
/// [`crate::Obs`] handle can hold `Arc<dyn Clock>`.
pub trait Clock: Send + Sync {
    /// Time elapsed since this clock's epoch.
    fn now(&self) -> Duration;
}

/// Wall-clock time measured from the moment the clock was created.
#[derive(Debug, Clone)]
pub struct WallClock {
    origin: Instant,
}

impl WallClock {
    /// A wall clock whose epoch is "now".
    pub fn new() -> Self {
        Self { origin: Instant::now() }
    }
}

impl Default for WallClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for WallClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }
}

/// A hand-advanced clock for this crate's tests.
///
/// Cloning is cheap; clones share the same time, mirroring
/// `cnr_cluster::SimClock` (which cannot be used here without a dependency
/// cycle).
#[cfg(test)]
#[derive(Debug, Clone, Default)]
pub(crate) struct ManualClock {
    micros: std::sync::Arc<AtomicU64>,
}

#[cfg(test)]
impl ManualClock {
    /// A manual clock at time zero.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `d`.
    pub(crate) fn advance(&self, d: Duration) {
        let add = d.as_micros().min(u128::from(u64::MAX)) as u64;
        self.micros.fetch_add(add, Ordering::AcqRel);
    }
}

#[cfg(test)]
impl Clock for ManualClock {
    fn now(&self) -> Duration {
        Duration::from_micros(self.micros.load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn wall_clock_is_monotone() {
        let c = WallClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_clones_share_time() {
        let c = ManualClock::new();
        let c2 = c.clone();
        c.advance(Duration::from_millis(3));
        assert_eq!(c2.now(), Duration::from_millis(3));
    }

    #[test]
    fn clock_is_object_safe() {
        let c: Arc<dyn Clock> = Arc::new(ManualClock::new());
        assert_eq!(c.now(), Duration::ZERO);
    }
}
