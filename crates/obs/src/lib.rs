//! # pts-obs — zero-dependency observability for the sampling stack
//!
//! A process-global, lock-free-on-the-hot-path metrics registry
//! ([`Counter`] / [`Gauge`] / fixed-log-bucket [`Histogram`]), a bounded
//! structured [`EventRing`], and a hand-rolled Prometheus-text scrape
//! endpoint ([`MetricsServer`]) — all plain `std`, because the sandbox
//! this repo grows in has no package registry and the instrumented hot
//! paths (per-update ingest, per-draw sampling) cannot afford a
//! dependency-grade metrics pipeline anyway.
//!
//! ## Cost model
//!
//! * **Hot path** (`Counter::add`, `Gauge::add`, `Histogram::observe`):
//!   one to three relaxed atomic RMWs on `&'static` cells leaked at
//!   registration. No locks, no hashing, no allocation, no branches on
//!   label strings — a labeled series is just a *different handle*,
//!   resolved once at registration.
//! * **Slow path** (registration, snapshot, render, event recording): a
//!   short `Mutex`. Registration happens once per call site — macros
//!   cache the handle in a per-site `OnceLock`, and the instrumented
//!   crates pre-register handle structs at first use.
//! * **One build**: instrumentation cannot be compiled out — compiling
//!   it out saved less than measurement noise (the retired experiment
//!   `o1`, whose table is in the git history of `EXPERIMENTS.md`).
//!   Tracing is the one run-time switch: an untraced request gets a
//!   [`Span::noop`].
//!
//! ## Quickstart
//!
//! ```
//! use pts_obs::{counter, registry, MetricsServer};
//!
//! counter!("demo.requests");                   // unlabeled, +1
//! counter!("demo.requests.by_kind", kind = "sample"); // labeled series
//!
//! // In-process consumers:
//! let text = registry().render_prometheus();
//! assert!(text.contains("pts_demo_requests 1"));
//!
//! // Network consumers — curl http://<addr>/metrics:
//! let server = MetricsServer::bind("127.0.0.1:0").unwrap();
//! let _addr = server.local_addr();
//! server.join();
//! ```
//!
//! See `DESIGN.md` §11 for the registry design and the full metric name
//! inventory (S36+).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(clippy::print_stdout, clippy::print_stderr)]

mod events;
mod io;
mod on;
mod scrape;
mod trace;
mod types;

pub use events::{drain_events, event, events, Event, EventRing, GLOBAL_RING_CAPACITY};
pub use io::{CountingReader, CountingWriter};
pub use on::{registry, Counter, Gauge, Histogram, MetricsRegistry, Stopwatch};
pub use scrape::{MetricsServer, MetricsServerConfig};
pub use trace::{
    render_trace_spans, render_traces, traces, Span, SpanRecord, TraceRing, TraceServer, Tracer,
    SLOW_SPAN_THRESHOLD, TRACE_RING_CAPACITY,
};
pub use types::{
    bucket_bound, bucket_index, escape_label_value, prometheus_name, HistogramSnapshot,
    MetricPoint, MetricValue, MetricsSnapshot, HISTOGRAM_BUCKETS,
};

/// Always `true`: observability is always compiled in. Kept because the
/// benchmark harness (`perfbench/harness/src/main.rs`) writes it into
/// every benchmark stamp; nothing in the workspace needs to check it.
pub const fn enabled() -> bool {
    true
}

/// Renders the process-global registry in Prometheus text format (what
/// the scrape endpoint serves).
pub fn render_prometheus() -> String {
    registry().render_prometheus()
}

/// Bumps a counter on the process-global registry, caching the handle in
/// a per-call-site `OnceLock` so steady-state cost is one relaxed
/// `fetch_add`.
///
/// Forms: `counter!("name")` (+1), `counter!("name", n)` (+n),
/// `counter!("name", key = "value")` (+1 on the labeled series),
/// `counter!("name", key = "value", n)`.
#[macro_export]
macro_rules! counter {
    ($name:literal, $key:ident = $value:literal, $n:expr) => {{
        static SITE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        SITE.get_or_init(|| {
            $crate::registry().counter_labeled($name, ::core::stringify!($key), $value)
        })
        .add($n);
    }};
    ($name:literal, $key:ident = $value:literal) => {
        $crate::counter!($name, $key = $value, 1)
    };
    ($name:literal, $n:expr) => {{
        static SITE: ::std::sync::OnceLock<$crate::Counter> = ::std::sync::OnceLock::new();
        SITE.get_or_init(|| $crate::registry().counter($name))
            .add($n);
    }};
    ($name:literal) => {
        $crate::counter!($name, 1)
    };
}

/// Sets a gauge on the process-global registry (same per-site caching as
/// [`counter!`]): `gauge!("name", value)`.
#[macro_export]
macro_rules! gauge {
    ($name:literal, $v:expr) => {{
        static SITE: ::std::sync::OnceLock<$crate::Gauge> = ::std::sync::OnceLock::new();
        SITE.get_or_init(|| $crate::registry().gauge($name)).set($v);
    }};
}

/// Observes a value on a histogram on the process-global registry (same
/// per-site caching as [`counter!`]): `histogram!("name", value)`.
#[macro_export]
macro_rules! histogram {
    ($name:literal, $v:expr) => {{
        static SITE: ::std::sync::OnceLock<$crate::Histogram> = ::std::sync::OnceLock::new();
        SITE.get_or_init(|| $crate::registry().histogram($name))
            .observe($v);
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_register_on_the_global_registry() {
        super::counter!("lib.test.macro");
        super::counter!("lib.test.macro", 4);
        super::counter!("lib.test.macro.labeled", kind = "a");
        super::gauge!("lib.test.gauge", -3);
        super::histogram!("lib.test.hist", 100);
        let text = super::render_prometheus();
        assert!(text.contains("pts_lib_test_macro 5"), "{text}");
        assert!(
            text.contains("pts_lib_test_macro_labeled{kind=\"a\"} 1"),
            "{text}"
        );
        assert!(text.contains("pts_lib_test_gauge -3"), "{text}");
        assert!(text.contains("pts_lib_test_hist_count 1"), "{text}");
    }
}
