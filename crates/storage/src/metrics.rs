//! Storage metrics: transfer accounting.
//!
//! Figures 15–17 of the paper are measured in exactly two quantities:
//! *bytes written per checkpoint interval* (write bandwidth proxy) and
//! *bytes held at each interval* (storage capacity). [`StoreMetrics`]
//! accumulates the first; the second is the checkpoint controller's live
//! byte count, read at each registration.

use parking_lot::Mutex;
use std::time::Duration;

/// Cumulative counters for one store.
#[derive(Debug, Default)]
pub struct StoreMetrics {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default, Clone)]
struct Inner {
    bytes_put: u64,
    bytes_got: u64,
    puts: u64,
    gets: u64,
    deletes: u64,
    busy_time: Duration,
}

/// A snapshot of the counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Total logical bytes written via `put`.
    pub bytes_put: u64,
    /// Total logical bytes read via `get`.
    pub bytes_got: u64,
    /// Number of `put` operations.
    pub puts: u64,
    /// Number of `get` operations.
    pub gets: u64,
    /// Number of `delete` operations.
    pub deletes: u64,
    /// Total time the transfer channel was busy.
    pub busy_time: Duration,
}

impl StoreMetrics {
    /// Creates zeroed metrics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a put of `bytes` that kept the channel busy for `busy`.
    pub fn record_put(&self, bytes: u64, busy: Duration) {
        let mut m = self.inner.lock();
        m.bytes_put += bytes;
        m.puts += 1;
        m.busy_time += busy;
    }

    /// Records a get of `bytes`.
    pub fn record_get(&self, bytes: u64) {
        let mut m = self.inner.lock();
        m.bytes_got += bytes;
        m.gets += 1;
    }

    /// Records a delete.
    pub fn record_delete(&self) {
        self.inner.lock().deletes += 1;
    }

    /// Snapshot of the cumulative counters.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let m = self.inner.lock();
        MetricsSnapshot {
            bytes_put: m.bytes_put,
            bytes_got: m.bytes_got,
            puts: m.puts,
            gets: m.gets,
            deletes: m.deletes,
            busy_time: m.busy_time,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = StoreMetrics::new();
        m.record_put(100, Duration::from_millis(10));
        m.record_put(50, Duration::from_millis(5));
        m.record_get(30);
        m.record_delete();
        let s = m.snapshot();
        assert_eq!(s.bytes_put, 150);
        assert_eq!(s.puts, 2);
        assert_eq!(s.bytes_got, 30);
        assert_eq!(s.gets, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.busy_time, Duration::from_millis(15));
    }

    #[test]
    fn empty_metrics() {
        let m = StoreMetrics::new();
        assert_eq!(m.snapshot().bytes_put, 0);
    }
}
