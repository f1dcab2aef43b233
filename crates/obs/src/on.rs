//! The metrics registry: counters, gauges, histograms and stopwatches.
//!
//! Layout: registration is the slow path (a `Mutex` over the series list,
//! hit once per call site thanks to `OnceLock` caching in the macros and
//! the pre-registered handle structs in instrumented crates); reads and
//! writes are the hot path — a handle is a `Copy` wrapper around a
//! `&'static` atomic cell leaked at registration, so `Counter::add` is one
//! relaxed `fetch_add` with no locks, no hashing, and no allocation.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::types::{
    bucket_bound, bucket_index, HistogramSnapshot, MetricPoint, MetricValue, MetricsSnapshot,
    HISTOGRAM_BUCKETS,
};

/// A monotone counter. `Copy` — grab one at startup (or through the
/// `counter!` macro's per-site cache) and bump it forever.
#[derive(Debug, Clone, Copy)]
pub struct Counter {
    cell: &'static AtomicU64,
}

impl Counter {
    /// Adds `n` (relaxed; the hot path).
    #[inline]
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed gauge.
#[derive(Debug, Clone, Copy)]
pub struct Gauge {
    cell: &'static AtomicI64,
}

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.cell.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    #[inline]
    pub fn add(&self, delta: i64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// The atomic state behind a histogram handle.
#[derive(Debug)]
struct HistogramCells {
    // One slot per finite bucket plus the +Inf overflow slot.
    buckets: [AtomicU64; HISTOGRAM_BUCKETS + 1],
    sum: AtomicU64,
    count: AtomicU64,
}

/// A fixed-log-bucket histogram: bucket = bit length of the observed
/// value, so `observe` is a `leading_zeros` plus three relaxed atomic
/// adds — no floats, no binary search, no locks.
#[derive(Debug, Clone, Copy)]
pub struct Histogram {
    cells: &'static HistogramCells,
}

impl Histogram {
    /// Records one observation (the hot path).
    #[inline]
    pub fn observe(&self, value: u64) {
        self.cells.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.cells.sum.fetch_add(value, Ordering::Relaxed);
        self.cells.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the elapsed nanoseconds of a [`Stopwatch`].
    #[inline]
    pub fn observe_elapsed(&self, sw: Stopwatch) {
        self.observe(sw.elapsed_ns());
    }

    /// Total observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.cells.count.load(Ordering::Relaxed)
    }

    /// Sum of observed values.
    #[inline]
    pub fn sum(&self) -> u64 {
        self.cells.sum.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut cumulative = 0u64;
        let mut buckets = Vec::with_capacity(HISTOGRAM_BUCKETS);
        for (b, cell) in self.cells.buckets[..HISTOGRAM_BUCKETS].iter().enumerate() {
            cumulative += cell.load(Ordering::Relaxed);
            buckets.push((bucket_bound(b), cumulative));
        }
        HistogramSnapshot {
            buckets,
            count: self.count(),
            sum: self.sum(),
        }
    }
}

/// A started wall-clock timer; pair with [`Histogram::observe_elapsed`].
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts timing now.
    #[inline]
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Nanoseconds since [`Stopwatch::start`], saturated to `u64`.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.started.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// The handle variants a series can hold.
#[derive(Debug, Clone, Copy)]
enum Handle {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

impl Handle {
    fn kind(&self) -> &'static str {
        match self {
            Handle::Counter(_) => "counter",
            Handle::Gauge(_) => "gauge",
            Handle::Histogram(_) => "histogram",
        }
    }
}

/// One registered series.
#[derive(Debug)]
struct Series {
    name: &'static str,
    label: Option<(&'static str, &'static str)>,
    handle: Handle,
}

/// The process-global metrics registry.
///
/// Registration (`counter` / `gauge` / `histogram`) takes a mutex and is
/// idempotent: the same `(name, label)` always returns the same handle,
/// and re-registering under a different metric kind or label key panics —
/// that is a programming error that would corrupt the exposition.
/// Snapshot/render walk the series list under the same mutex; the handles
/// they read are lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    series: Mutex<Vec<Series>>,
}

impl MetricsRegistry {
    /// Creates an empty registry. Prefer [`registry`] (the process
    /// global); separate registries exist for tests.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: &'static str) -> Counter {
        self.counter_with(name, None)
    }

    /// Registers (or retrieves) a counter labeled `key="value"`. All
    /// series of one name must share the label key.
    pub fn counter_labeled(
        &self,
        name: &'static str,
        key: &'static str,
        value: &'static str,
    ) -> Counter {
        self.counter_with(name, Some((key, value)))
    }

    fn counter_with(
        &self,
        name: &'static str,
        label: Option<(&'static str, &'static str)>,
    ) -> Counter {
        match self.register(name, label, || {
            Handle::Counter(Counter {
                cell: Box::leak(Box::new(AtomicU64::new(0))),
            })
        }) {
            Handle::Counter(c) => c,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Registers (or retrieves) an unlabeled gauge.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        match self.register(name, None, || {
            Handle::Gauge(Gauge {
                cell: Box::leak(Box::new(AtomicI64::new(0))),
            })
        }) {
            Handle::Gauge(g) => g,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    /// Registers (or retrieves) an unlabeled histogram.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        self.histogram_with(name, None)
    }

    /// Registers (or retrieves) a histogram labeled `key="value"`.
    pub fn histogram_labeled(
        &self,
        name: &'static str,
        key: &'static str,
        value: &'static str,
    ) -> Histogram {
        self.histogram_with(name, Some((key, value)))
    }

    fn histogram_with(
        &self,
        name: &'static str,
        label: Option<(&'static str, &'static str)>,
    ) -> Histogram {
        match self.register(name, label, || {
            Handle::Histogram(Histogram {
                cells: Box::leak(Box::new(HistogramCells {
                    buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS + 1],
                    sum: AtomicU64::new(0),
                    count: AtomicU64::new(0),
                })),
            })
        }) {
            Handle::Histogram(h) => h,
            other => panic!("metric `{name}` already registered as a {}", other.kind()),
        }
    }

    fn register(
        &self,
        name: &'static str,
        label: Option<(&'static str, &'static str)>,
        make: impl FnOnce() -> Handle,
    ) -> Handle {
        let mut series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        for s in series.iter() {
            if s.name == name {
                if s.label.map(|(k, _)| k) != label.map(|(k, _)| k) {
                    panic!("metric `{name}` registered with conflicting label keys");
                }
                if s.label == label {
                    return s.handle;
                }
            }
        }
        let handle = make();
        series.push(Series {
            name,
            label,
            handle,
        });
        handle
    }

    /// Reads every series into a sorted [`MetricsSnapshot`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        let series = self.series.lock().unwrap_or_else(|e| e.into_inner());
        let mut points: Vec<MetricPoint> = series
            .iter()
            .map(|s| MetricPoint {
                name: s.name,
                label: s.label,
                value: match s.handle {
                    Handle::Counter(c) => MetricValue::Counter(c.get()),
                    Handle::Gauge(g) => MetricValue::Gauge(g.get()),
                    Handle::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                },
            })
            .collect();
        points.sort_by(|a, b| {
            (a.name, a.label.map(|(_, v)| v)).cmp(&(b.name, b.label.map(|(_, v)| v)))
        });
        MetricsSnapshot { points }
    }

    /// Snapshot + render in one call (what the scrape endpoint serves).
    pub fn render_prometheus(&self) -> String {
        self.snapshot().render_prometheus()
    }
}

/// The process-global registry every macro and instrumented crate uses.
pub fn registry() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_are_idempotent_and_shared() {
        let r = MetricsRegistry::new();
        let a = r.counter("on.test.shared");
        let b = r.counter("on.test.shared");
        a.add(2);
        b.inc();
        assert_eq!(a.get(), 3);
        assert_eq!(b.get(), 3);
    }

    #[test]
    fn labeled_series_are_distinct() {
        let r = MetricsRegistry::new();
        let x = r.counter_labeled("on.test.labeled", "kind", "x");
        let y = r.counter_labeled("on.test.labeled", "kind", "y");
        x.add(5);
        y.add(7);
        assert_eq!(x.get(), 5);
        assert_eq!(y.get(), 7);
        assert_eq!(r.snapshot().points.len(), 2);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter("on.test.kind");
        r.gauge("on.test.kind");
    }

    #[test]
    #[should_panic(expected = "conflicting label keys")]
    fn label_key_mismatch_panics() {
        let r = MetricsRegistry::new();
        r.counter_labeled("on.test.labelkey", "kind", "x");
        r.counter_labeled("on.test.labelkey", "node", "0");
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let r = MetricsRegistry::new();
        let h = r.histogram("on.test.hist");
        for v in [0u64, 1, 2, 3, 900, u64::MAX] {
            h.observe(v);
        }
        let snap = match &r.snapshot().points[0].value {
            MetricValue::Histogram(h) => h.clone(),
            other => panic!("expected histogram, got {other:?}"),
        };
        assert_eq!(snap.count, 6);
        assert_eq!(
            snap.sum,
            0u64.wrapping_add(1 + 2 + 3 + 900).wrapping_add(u64::MAX)
        );
        // le=0 holds the single zero; le=1 adds the single 1; le=3 adds 2
        // and 3; u64::MAX lives in +Inf so the last finite bucket is 5.
        assert_eq!(snap.buckets[0], (0, 1));
        assert_eq!(snap.buckets[1], (1, 2));
        assert_eq!(snap.buckets[2], (3, 4));
        assert_eq!(snap.buckets[HISTOGRAM_BUCKETS - 1].1, 5);
        // Cumulativity: counts never decrease along the bucket list.
        for w in snap.buckets.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
    }

    #[test]
    fn stopwatch_measures_something() {
        let sw = Stopwatch::start();
        std::hint::black_box((0..1000).sum::<u64>());
        let r = MetricsRegistry::new();
        let h = r.histogram("on.test.sw");
        h.observe_elapsed(sw);
        assert_eq!(h.count(), 1);
    }
}
