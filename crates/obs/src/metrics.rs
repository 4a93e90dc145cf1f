//! Counters, gauges, and fixed-bucket histograms.
//!
//! The registry is the single accumulation point for run-level numbers:
//! `cnr_core`'s `RunStats`/`WalRunStats` aggregates are *derived from* these
//! metrics (and test-asserted equal to them) instead of being
//! hand-accumulated in parallel at every call site.
//!
//! # Exactness
//!
//! Histograms keep their running `sum` as an `f64` of the observed values.
//! Durations are observed in **whole nanoseconds**; integer-valued sums stay
//! exact under f64 addition while below 2^53 (≈104 days of simulated time),
//! which is what lets tests assert strict equality between a histogram sum
//! and a `Duration` total.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// Bucket upper bounds (nanoseconds) for duration histograms: a 1–2–5
/// series from 1µs to 1h, plus the implicit overflow bucket.
pub const DURATION_BOUNDS_NS: &[f64] = &[
    1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5, 2e5, 5e5, 1e6, 2e6, 5e6, 1e7, 2e7, 5e7, 1e8, 2e8, 5e8,
    1e9, 2e9, 5e9, 1e10, 2e10, 5e10, 1e11, 2e11, 5e11, 1e12, 3.6e12,
];

/// Bucket upper bounds for small-count histograms (retries, fault-ins).
pub const COUNT_BOUNDS: &[f64] = &[0.0, 1.0, 2.0, 3.0, 5.0, 8.0, 13.0, 21.0, 34.0, 55.0, 100.0, 1000.0];

/// Bucket upper bounds for byte-size histograms: 1KiB..1TiB, powers of 4.
pub const BYTES_BOUNDS: &[f64] = &[
    1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0, 4194304.0, 16777216.0, 67108864.0,
    268435456.0, 1073741824.0, 4294967296.0, 17179869184.0, 68719476736.0, 274877906944.0,
    1099511627776.0,
];

#[derive(Debug, Clone)]
enum Metric {
    Counter(u64),
    Gauge(f64),
    Histogram(Histogram),
}

#[derive(Debug, Clone)]
struct Histogram {
    bounds: &'static [f64],
    /// One count per bound, plus a trailing overflow bucket.
    buckets: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    fn new(bounds: &'static [f64]) -> Self {
        Self {
            bounds,
            buckets: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    fn observe(&mut self, v: f64) {
        let idx = self.bounds.iter().position(|&b| v <= b).unwrap_or(self.bounds.len());
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }
}

/// Point-in-time copy of one histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Bucket upper bounds; the overflow bucket is implicit.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts (`bounds.len() + 1` entries).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Exact running sum of observed values (see module docs).
    pub sum: f64,
    /// Smallest observation, or +inf when empty.
    pub min: f64,
    /// Largest observation, or -inf when empty.
    pub max: f64,
}

impl HistogramSnapshot {
    /// The histogram sum reinterpreted as a duration (valid for histograms
    /// fed by [`MetricsRegistry::observe_duration`]).
    pub fn sum_duration(&self) -> Duration {
        Duration::from_nanos(self.sum.max(0.0).min(u64::MAX as f64) as u64)
    }
}

/// Point-in-time value of one metric, as returned by
/// [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone event count.
    Counter(u64),
    /// Last-write-wins level.
    Gauge(f64),
    /// Fixed-bucket distribution.
    Histogram(HistogramSnapshot),
}

/// Named counters, gauges, and histograms behind one lock.
///
/// Names are flat strings (`"cnr_wal_appends_total"`); a name is bound to
/// its metric type (and, for histograms, its bucket bounds) on first use,
/// and later calls with a conflicting type panic — that is a programming
/// error, not a runtime condition.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn with_metric<R>(&self, name: &str, init: impl FnOnce() -> Metric, f: impl FnOnce(&mut Metric) -> R) -> R {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        if !metrics.contains_key(name) {
            metrics.insert(name.to_string(), init());
        }
        f(metrics.get_mut(name).expect("just inserted"))
    }

    /// Adds `v` to the named counter (created at zero on first use).
    pub fn counter_add(&self, name: &str, v: u64) {
        self.with_metric(name, || Metric::Counter(0), |m| match m {
            Metric::Counter(c) => *c = c.saturating_add(v),
            _ => panic!("metric {name} is not a counter"),
        })
    }

    /// Current value of the named counter (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.lock().expect("metrics registry poisoned").get(name) {
            Some(Metric::Counter(c)) => *c,
            Some(_) => panic!("metric {name} is not a counter"),
            None => 0,
        }
    }

    /// Sets the named gauge.
    pub fn gauge_set(&self, name: &str, v: f64) {
        self.with_metric(name, || Metric::Gauge(0.0), |m| match m {
            Metric::Gauge(g) => *g = v,
            _ => panic!("metric {name} is not a gauge"),
        })
    }

    /// Current value of the named gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.metrics.lock().expect("metrics registry poisoned").get(name) {
            Some(Metric::Gauge(g)) => Some(*g),
            Some(_) => panic!("metric {name} is not a gauge"),
            None => None,
        }
    }

    /// Records `v` into the named histogram, binding `bounds` on first use.
    pub fn observe(&self, name: &str, v: f64, bounds: &'static [f64]) {
        self.with_metric(name, || Metric::Histogram(Histogram::new(bounds)), |m| match m {
            Metric::Histogram(h) => h.observe(v),
            _ => panic!("metric {name} is not a histogram"),
        })
    }

    /// Records a duration (in whole nanoseconds) into the named histogram
    /// with [`DURATION_BOUNDS_NS`].
    pub fn observe_duration(&self, name: &str, d: Duration) {
        self.observe(name, d.as_nanos().min(u128::from(u64::MAX)) as f64, DURATION_BOUNDS_NS);
    }

    /// Snapshot of the named histogram, if it exists.
    pub fn histogram(&self, name: &str) -> Option<HistogramSnapshot> {
        match self.metrics.lock().expect("metrics registry poisoned").get(name) {
            Some(Metric::Histogram(h)) => Some(HistogramSnapshot {
                bounds: h.bounds.to_vec(),
                buckets: h.buckets.clone(),
                count: h.count,
                sum: h.sum,
                min: h.min,
                max: h.max,
            }),
            Some(_) => panic!("metric {name} is not a histogram"),
            None => None,
        }
    }

    /// Sum of a duration histogram as a [`Duration`] (zero if absent).
    pub fn duration_sum(&self, name: &str) -> Duration {
        self.histogram(name).map(|h| h.sum_duration()).unwrap_or(Duration::ZERO)
    }

    /// Point-in-time copy of every metric, name-sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        MetricsSnapshot {
            metrics: metrics
                .iter()
                .map(|(name, m)| {
                    let v = match m {
                        Metric::Counter(c) => MetricValue::Counter(*c),
                        Metric::Gauge(g) => MetricValue::Gauge(*g),
                        Metric::Histogram(h) => MetricValue::Histogram(HistogramSnapshot {
                            bounds: h.bounds.to_vec(),
                            buckets: h.buckets.clone(),
                            count: h.count,
                            sum: h.sum,
                            min: h.min,
                            max: h.max,
                        }),
                    };
                    (name.clone(), v)
                })
                .collect(),
        }
    }
}

/// Point-in-time copy of a whole registry (name → value, name-sorted).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// All metrics by name.
    pub metrics: BTreeMap<String, MetricValue>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let r = MetricsRegistry::new();
        assert_eq!(r.counter("x"), 0);
        r.counter_add("x", 2);
        r.counter_add("x", 3);
        assert_eq!(r.counter("x"), 5);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let r = MetricsRegistry::new();
        assert_eq!(r.gauge("g"), None);
        r.gauge_set("g", 1.5);
        r.gauge_set("g", 0.25);
        assert_eq!(r.gauge("g"), Some(0.25));
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_conflicts_panic() {
        let r = MetricsRegistry::new();
        r.gauge_set("m", 1.0);
        r.counter_add("m", 1);
    }

    #[test]
    fn duration_sums_are_exact() {
        let r = MetricsRegistry::new();
        let durations = [
            Duration::from_nanos(123_456_789),
            Duration::from_micros(7),
            Duration::from_secs(3600),
            Duration::from_nanos(1),
        ];
        let mut total = Duration::ZERO;
        for d in durations {
            r.observe_duration("lat", d);
            total += d;
        }
        assert_eq!(r.duration_sum("lat"), total);
        assert_eq!(r.histogram("lat").unwrap().count, 4);
    }

    #[test]
    fn overflow_bucket_reports_observed_max() {
        let r = MetricsRegistry::new();
        r.observe("big", 1e15, DURATION_BOUNDS_NS);
        let h = r.histogram("big").unwrap();
        assert_eq!(*h.buckets.last().unwrap(), 1);
        assert_eq!(h.max, 1e15);
    }

    #[test]
    fn custom_bounds_bind_on_first_use() {
        const TENTHS: &[f64] = &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
        let r = MetricsRegistry::new();
        r.observe("hit_rate", 0.73, TENTHS);
        let h = r.histogram("hit_rate").unwrap();
        assert_eq!(h.bounds, TENTHS.to_vec());
        assert_eq!(h.buckets[7], 1); // 0.73 <= 0.8
    }

    #[test]
    fn snapshot_is_name_sorted_and_complete() {
        let r = MetricsRegistry::new();
        r.counter_add("b", 1);
        r.gauge_set("a", 2.0);
        r.observe("c", 3.0, COUNT_BOUNDS);
        let snap = r.snapshot();
        let names: Vec<_> = snap.metrics.keys().cloned().collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(snap.metrics["b"], MetricValue::Counter(1));
    }
}
