//! Snapshot types and the Prometheus text renderer.
//!
//! The registry produces a [`MetricsSnapshot`]; everything downstream of
//! the atomics — ordering, name mangling, label escaping, bucket
//! cumulativity — lives here, so the exposition format can be pinned
//! byte for byte on handcrafted snapshots.

use std::fmt::Write as _;

/// Number of finite histogram buckets. Bucket `b < HISTOGRAM_BUCKETS`
/// counts values whose bit length is `b` — i.e. values `v ≤ 2^b − 1`, so
/// the bucket's Prometheus `le` bound is exactly `2^b − 1` (bucket 0 holds
/// only zeros). One extra overflow bucket catches everything else
/// (`le="+Inf"`). With 40 finite buckets the largest finite bound is
/// `2^39 − 1` ≈ 5.5 · 10¹¹ — about nine minutes in nanoseconds, or half a
/// terabyte in bytes, with +Inf absorbing the pathological tail.
pub const HISTOGRAM_BUCKETS: usize = 40;

/// The finite `le` bound of histogram bucket `b` (see
/// [`HISTOGRAM_BUCKETS`]).
#[inline]
pub fn bucket_bound(b: usize) -> u64 {
    debug_assert!(b < HISTOGRAM_BUCKETS);
    (1u64 << b) - 1
}

/// The bucket a value falls into: its bit length, clamped to the overflow
/// bucket.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS)
}

/// A histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// `(le, cumulative_count)` per finite bucket, in bound order; the
    /// implicit `+Inf` bucket's cumulative count is [`Self::count`].
    pub buckets: Vec<(u64, u64)>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values (wrapping `u64` arithmetic).
    pub sum: u64,
}

/// One metric's value at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Monotone counter.
    Counter(u64),
    /// Point-in-time signed gauge.
    Gauge(i64),
    /// Fixed-log-bucket histogram.
    Histogram(HistogramSnapshot),
}

/// One registered series: a metric name, an optional `key="value"` label,
/// and the value read at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricPoint {
    /// The registration name (dotted, e.g. `server.requests`).
    pub name: &'static str,
    /// The series label, if the metric was registered with one.
    pub label: Option<(&'static str, &'static str)>,
    /// The value.
    pub value: MetricValue,
}

/// A point-in-time view of a whole registry, sorted by `(name, label)` so
/// repeated snapshots of unchanged state render byte-identically.
///
/// Consistency: values are read with relaxed atomics, one series at a
/// time — a snapshot is *per-series* exact but not a cross-series
/// consistent cut (scrape-grade, like every Prometheus exposition).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// The series, sorted by `(name, label value)`.
    pub points: Vec<MetricPoint>,
}

impl MetricsSnapshot {
    /// Renders the snapshot in Prometheus text exposition format
    /// (version 0.0.4): one `# TYPE` line per family, then one sample
    /// line per series (histograms expand to `_bucket`/`_sum`/`_count`),
    /// with registration names mangled to valid Prometheus names
    /// ([`prometheus_name`]) and label values escaped
    /// ([`escape_label_value`]).
    pub fn render_prometheus(&self) -> String {
        let mut out = String::with_capacity(1024);
        let mut last_family: Option<&str> = None;
        for point in &self.points {
            let prom = prometheus_name(point.name);
            if last_family != Some(point.name) {
                let kind = match point.value {
                    MetricValue::Counter(_) => "counter",
                    MetricValue::Gauge(_) => "gauge",
                    MetricValue::Histogram(_) => "histogram",
                };
                let _ = writeln!(out, "# TYPE {prom} {kind}");
                last_family = Some(point.name);
            }
            match &point.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{prom}{} {v}", label_set(point.label, None));
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{prom}{} {v}", label_set(point.label, None));
                }
                MetricValue::Histogram(h) => {
                    for &(le, cum) in &h.buckets {
                        let _ = writeln!(
                            out,
                            "{prom}_bucket{} {cum}",
                            label_set(point.label, Some(&le.to_string()))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{prom}_bucket{} {}",
                        label_set(point.label, Some("+Inf")),
                        h.count
                    );
                    let _ = writeln!(out, "{prom}_sum{} {}", label_set(point.label, None), h.sum);
                    let _ = writeln!(
                        out,
                        "{prom}_count{} {}",
                        label_set(point.label, None),
                        h.count
                    );
                }
            }
        }
        out
    }
}

/// Renders a `{key="value",le="…"}` label set ("" when empty).
fn label_set(label: Option<(&str, &str)>, le: Option<&str>) -> String {
    match (label, le) {
        (None, None) => String::new(),
        (Some((k, v)), None) => format!("{{{k}=\"{}\"}}", escape_label_value(v)),
        (None, Some(le)) => format!("{{le=\"{le}\"}}"),
        (Some((k, v)), Some(le)) => {
            format!("{{{k}=\"{}\",le=\"{le}\"}}", escape_label_value(v))
        }
    }
}

/// Mangles a dotted registration name into a valid Prometheus metric name:
/// `pts_` prefix, dots (and any other non-`[a-zA-Z0-9_]` byte) become
/// underscores. The prefix also guarantees the first character is legal
/// regardless of the registration name.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    out.push_str("pts_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escapes a label value for the text exposition format: backslash,
/// double quote, and line feed (the three characters the format reserves).
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_matches_bounds() {
        // Every value must land in the bucket whose `le` bound is the
        // smallest bound ≥ the value — the definition of cumulativity.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let b = bucket_index(v);
            if b < HISTOGRAM_BUCKETS {
                assert!(v <= bucket_bound(b), "v={v} above its bucket bound");
                if b > 0 {
                    assert!(v > bucket_bound(b - 1), "v={v} not above prior bound");
                }
            } else {
                assert!(v > bucket_bound(HISTOGRAM_BUCKETS - 1));
            }
        }
    }

    #[test]
    fn names_are_mangled_and_prefixed() {
        assert_eq!(prometheus_name("server.requests"), "pts_server_requests");
        assert_eq!(prometheus_name("a-b c"), "pts_a_b_c");
    }

    #[test]
    fn label_values_escape_reserved_characters() {
        assert_eq!(escape_label_value("a\\b\"c\nd"), "a\\\\b\\\"c\\nd");
    }
}
