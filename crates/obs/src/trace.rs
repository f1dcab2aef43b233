//! Distributed request tracing: sampling, span handles, the bounded
//! trace ring, and a traces endpoint.
//!
//! Metrics say *that* latency exists; traces say *where* one request
//! spent it. A [`Tracer`] deterministically samples 1-in-N requests into
//! a trace; each stage that touches a sampled request opens a [`Span`]
//! and the finished spans land in the process-global [`TraceRing`]
//! (bounded, oldest evicted and counted — same discipline as the event
//! ring). Untraced requests cost one branch: [`Span::noop`] handles do
//! not allocate, do not read the clock, and record nothing.
//!
//! Surfacing is threefold:
//!
//! * the [`TraceRing`], rendered as deterministic text by
//!   [`render_traces`] and served by [`TraceServer`] (the scrape
//!   endpoint's "never parse, always answer" contract, second listener);
//! * slow spans — duration at or over [`SLOW_SPAN_THRESHOLD`] — are
//!   promoted into the structured event ring as `trace.slow` events;
//! * drop accounting (`obs.trace.spans` / `obs.trace.dropped` counters)
//!   keeps silent span loss visible on the metrics endpoint.
//!
//! Span ids are process-global and allocated once per span, so in a
//! loopback deployment (tests, benches) one ring holds a whole
//! multi-node trace tree; in a real deployment each node's ring holds
//! its shard of the tree and trace ids stitch them together.

use std::collections::VecDeque;
use std::sync::{
    atomic::{AtomicU64, Ordering},
    Mutex, OnceLock,
};
use std::time::{Duration, Instant};

/// Capacity of the process-global ring returned by [`traces`].
pub const TRACE_RING_CAPACITY: usize = 4096;

/// Slow-span threshold (100 ms): spans at or over it are promoted into
/// the event ring as `trace.slow` events.
pub const SLOW_SPAN_THRESHOLD: Duration = Duration::from_millis(100);

/// The process epoch every span timestamp is measured from — fixed at
/// first use, so `start_ns`/`end_ns` are comparable across threads.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Allocates a fresh process-unique nonzero trace id.
fn next_trace_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Allocates a fresh process-unique nonzero span id.
fn next_span_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Self-instrumentation handles.
struct TraceObs {
    spans: crate::Counter,
    dropped: crate::Counter,
    scrapes: crate::Counter,
}

fn trace_obs() -> &'static TraceObs {
    static OBS: OnceLock<TraceObs> = OnceLock::new();
    OBS.get_or_init(|| TraceObs {
        spans: crate::registry().counter("obs.trace.spans"),
        dropped: crate::registry().counter("obs.trace.dropped"),
        scrapes: crate::registry().counter("obs.trace.scrapes"),
    })
}

/// Deterministic 1-in-N request sampling.
///
/// A tracer decides, per request, whether the request joins a new
/// distributed trace. The decision is a modular counter — request `k`
/// (0-based) is sampled iff `k ≡ seed (mod every)` — so a fixed seed and
/// request sequence always sample the same requests: reproducible in
/// tests, evenly spread in production, and free of RNG state on the hot
/// path. `every = 0` disables sampling; `every = 1` samples everything.
///
/// Each connection owns its tracer (seeded per connection), so two
/// connections sample independently but each is individually
/// deterministic.
#[derive(Debug)]
pub struct Tracer {
    every: u64,
    offset: u64,
    seen: AtomicU64,
}

impl Tracer {
    /// A tracer sampling 1 in `every` requests, phase-shifted by `seed`
    /// (`every = 0` never samples).
    pub fn new(seed: u64, every: u64) -> Self {
        Tracer {
            every,
            offset: if every == 0 { 0 } else { seed % every },
            seen: AtomicU64::new(0),
        }
    }

    /// A tracer that never samples.
    pub fn disabled() -> Self {
        Tracer::new(0, 0)
    }

    /// Counts one request; returns `Some(trace_id)` (fresh, nonzero) if
    /// this request is sampled into a new trace, `None` otherwise.
    pub fn sample(&self) -> Option<u64> {
        if self.every == 0 {
            return None;
        }
        let k = self.seen.fetch_add(1, Ordering::Relaxed);
        (k % self.every == self.offset).then(next_trace_id)
    }
}

/// One completed span: a named, timed segment of one request's journey,
/// linked into its trace by `trace_id` and `parent_span_id`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// The distributed trace this span belongs to (≥ 1).
    pub trace_id: u64,
    /// This span's process-unique id (≥ 1).
    pub span_id: u64,
    /// The span this one nests under (0 = a trace root).
    pub parent_span_id: u64,
    /// Static stage name, dotted like metric names (e.g.
    /// `server.queue_wait`).
    pub name: &'static str,
    /// Free-form tags (e.g. `kind=sample ns=7`). Empty if none were set.
    pub detail: String,
    /// Start time, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// End time, nanoseconds since the process trace epoch.
    pub end_ns: u64,
}

impl SpanRecord {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
struct SpanInner {
    trace_id: u64,
    span_id: u64,
    parent_span_id: u64,
    name: &'static str,
    detail: String,
    start_ns: u64,
}

/// A live span handle. Created by [`Span::start`]; the span records
/// itself into the process-global [`TraceRing`] when the handle drops
/// (or [`Span::finish`] is called, which is the explicit spelling of the
/// same thing) — so error paths close their spans for free.
///
/// A no-op handle ([`Span::noop`], or any span started with trace id 0)
/// costs one branch and records nothing.
#[derive(Debug, Default)]
pub struct Span {
    inner: Option<SpanInner>,
}

impl Span {
    /// A handle that records nothing.
    pub fn noop() -> Span {
        Span::default()
    }

    /// Opens a span in `trace_id` under `parent_span_id` (0 = this is a
    /// trace root). Passing trace id 0 — the wire's *untraced* marker —
    /// yields a no-op handle, so call sites can start spans
    /// unconditionally.
    pub fn start(trace_id: u64, parent_span_id: u64, name: &'static str) -> Span {
        if trace_id == 0 {
            return Span::default();
        }
        Span {
            inner: Some(SpanInner {
                trace_id,
                span_id: next_span_id(),
                parent_span_id,
                name,
                detail: String::new(),
                start_ns: now_ns(),
            }),
        }
    }

    /// Whether this handle actually records (false for no-ops).
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// This span's id, for parenting child spans (0 for no-ops — child
    /// spans of a no-op started with that 0 parent in a real trace
    /// simply become roots).
    pub fn id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.span_id)
    }

    /// The trace this span records into (0 for no-ops).
    pub fn trace_id(&self) -> u64 {
        self.inner.as_ref().map_or(0, |s| s.trace_id)
    }

    /// Replaces the span's free-form tag string (e.g. `kind=sample
    /// ns=7`). A no-op on no-op handles — the `impl Into<String>` is
    /// only materialized when recording.
    pub fn tag(&mut self, detail: impl Into<String>) {
        if let Some(inner) = self.inner.as_mut() {
            inner.detail = detail.into();
        }
    }

    /// Closes the span, recording it into the global [`TraceRing`]
    /// (explicit spelling of dropping the handle).
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let end_ns = now_ns();
        let record = SpanRecord {
            trace_id: inner.trace_id,
            span_id: inner.span_id,
            parent_span_id: inner.parent_span_id,
            name: inner.name,
            detail: inner.detail,
            start_ns: inner.start_ns,
            end_ns,
        };
        let duration_ns = record.duration_ns();
        if Duration::from_nanos(duration_ns) >= SLOW_SPAN_THRESHOLD {
            crate::event(
                "trace.slow",
                format!(
                    "trace={} span={} name={} dur_ms={} {}",
                    record.trace_id,
                    record.span_id,
                    record.name,
                    duration_ns / 1_000_000,
                    record.detail
                ),
            );
        }
        traces().record(record);
    }
}

#[derive(Debug, Default)]
struct TraceRingState {
    spans: VecDeque<SpanRecord>,
    recorded: u64,
    dropped: u64,
}

/// A bounded ring of completed [`SpanRecord`]s — the landing zone for
/// every finished span. Oldest spans are evicted when full and the drop
/// is counted ([`TraceRing::totals`], plus the `obs.trace.dropped`
/// counter for the global ring's evictions), so a burst of traced
/// requests can never grow memory unboundedly or hide its own loss.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    state: Mutex<TraceRingState>,
}

impl TraceRing {
    /// Creates a ring holding at most `capacity` spans (min 1).
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            capacity: capacity.max(1),
            state: Mutex::new(TraceRingState::default()),
        }
    }

    /// Records a completed span, evicting the oldest if the ring is
    /// full. (Span handles call this on drop; tests may call it
    /// directly.)
    pub fn record(&self, span: SpanRecord) {
        let obs = trace_obs();
        obs.spans.inc();
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.recorded += 1;
        if state.spans.len() == self.capacity {
            state.spans.pop_front();
            state.dropped += 1;
            obs.dropped.inc();
        }
        state.spans.push_back(span);
    }

    /// Removes and returns every pending span, oldest first.
    pub fn drain(&self) -> Vec<SpanRecord> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.spans.drain(..).collect()
    }

    /// Clones every pending span, oldest first, without consuming them
    /// (what the traces endpoint renders).
    pub fn snapshot(&self) -> Vec<SpanRecord> {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.spans.iter().cloned().collect()
    }

    /// Pending (undrained) span count.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .spans
            .len()
    }

    /// Whether no spans are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Totals since process start: `(recorded, dropped)`.
    pub fn totals(&self) -> (u64, u64) {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        (state.recorded, state.dropped)
    }
}

/// The process-global trace ring (capacity [`TRACE_RING_CAPACITY`]).
pub fn traces() -> &'static TraceRing {
    static GLOBAL: std::sync::OnceLock<TraceRing> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(|| TraceRing::new(TRACE_RING_CAPACITY))
}

/// Renders the global [`TraceRing`] as deterministic text: one block per
/// trace (ascending trace id), spans as an indented tree under their
/// parents, siblings ordered by `(start_ns, span_id)`. A span whose
/// parent is absent from the ring (still open, evicted, or recorded on
/// another node) renders at the trace's top level. Empty (one header
/// line) when nothing is pending.
pub fn render_traces() -> String {
    render_trace_spans(&traces().snapshot())
}

/// [`render_traces`] over an explicit span list (what tests pin).
pub fn render_trace_spans(spans: &[SpanRecord]) -> String {
    use std::fmt::Write as _;
    let mut trace_ids: Vec<u64> = spans.iter().map(|s| s.trace_id).collect();
    trace_ids.sort_unstable();
    trace_ids.dedup();
    let mut out = format!("traces {}\n", trace_ids.len());
    for trace_id in trace_ids {
        let mut members: Vec<&SpanRecord> =
            spans.iter().filter(|s| s.trace_id == trace_id).collect();
        members.sort_by_key(|s| (s.start_ns, s.span_id));
        let ids: std::collections::HashSet<u64> = members.iter().map(|s| s.span_id).collect();
        let start = members.iter().map(|s| s.start_ns).min().unwrap_or(0);
        let end = members.iter().map(|s| s.end_ns).max().unwrap_or(0);
        let _ = writeln!(
            out,
            "trace {} spans={} duration_ns={}",
            trace_id,
            members.len(),
            end.saturating_sub(start)
        );
        // Depth-first from the top-level spans; explicit stack, siblings
        // already in deterministic order.
        let mut stack: Vec<(&SpanRecord, usize)> = members
            .iter()
            .rev()
            .filter(|s| s.parent_span_id == 0 || !ids.contains(&s.parent_span_id))
            .map(|s| (*s, 1))
            .collect();
        while let Some((span, depth)) = stack.pop() {
            let _ = writeln!(
                out,
                "{}{} span={} parent={} start_ns={} dur_ns={}{}{}",
                "  ".repeat(depth),
                span.name,
                span.span_id,
                span.parent_span_id,
                span.start_ns.saturating_sub(start),
                span.duration_ns(),
                if span.detail.is_empty() { "" } else { " " },
                span.detail
            );
            for child in members
                .iter()
                .rev()
                .filter(|s| s.parent_span_id == span.span_id)
            {
                stack.push((child, depth + 1));
            }
        }
    }
    out
}

/// A running traces endpoint: [`MetricsServer`](crate::MetricsServer)'s
/// sibling listener, serving [`render_traces`] instead of the metric
/// exposition under the identical "never parse, always answer" contract
/// (and the same teardown discipline — drop or
/// [`TraceServer::join`] shuts down and joins every handler).
#[derive(Debug)]
pub struct TraceServer {
    inner: crate::scrape::TextServer,
}

impl TraceServer {
    /// Binds a traces endpoint with default limits. Use port 0 for an
    /// ephemeral port; read it back with [`TraceServer::local_addr`].
    pub fn bind<A: std::net::ToSocketAddrs>(addr: A) -> std::io::Result<TraceServer> {
        Self::bind_with(addr, crate::MetricsServerConfig::default())
    }

    /// Binds a traces endpoint with explicit limits (shared with the
    /// scrape endpoint's [`crate::MetricsServerConfig`]).
    pub fn bind_with<A: std::net::ToSocketAddrs>(
        addr: A,
        config: crate::MetricsServerConfig,
    ) -> std::io::Result<TraceServer> {
        Ok(TraceServer {
            inner: crate::scrape::TextServer::bind_with(addr, config, || {
                trace_obs().scrapes.inc();
                render_traces()
            })?,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::net::SocketAddr {
        self.inner.local_addr()
    }

    /// Flags shutdown and wakes the blocking accept. Returns
    /// immediately; use [`TraceServer::join`] to wait.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }

    /// Blocks until the accept loop and every handler have exited.
    pub fn join(self) {
        self.inner.join();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes every test that records into, drains or counts the
    /// process-global [`traces`] ring: the harness runs tests on parallel
    /// threads, and one test's `drain` would otherwise steal another's
    /// spans (or its recording would move another's `totals`).
    static GLOBAL_RING: Mutex<()> = Mutex::new(());

    fn global_ring() -> std::sync::MutexGuard<'static, ()> {
        GLOBAL_RING.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn rec(trace: u64, span: u64, parent: u64, name: &'static str, t0: u64, t1: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: span,
            parent_span_id: parent,
            name,
            detail: String::new(),
            start_ns: t0,
            end_ns: t1,
        }
    }

    #[test]
    fn render_is_deterministic_and_tree_shaped() {
        let mut spans = vec![
            rec(2, 10, 0, "client.submit", 0, 100),
            rec(2, 11, 10, "server.queue_wait", 5, 20),
            rec(2, 12, 10, "server.engine", 20, 80),
            rec(1, 3, 0, "cluster.sample_many", 0, 50),
        ];
        let text = render_trace_spans(&spans);
        assert_eq!(
            text,
            "traces 2\n\
             trace 1 spans=1 duration_ns=50\n\
             \x20 cluster.sample_many span=3 parent=0 start_ns=0 dur_ns=50\n\
             trace 2 spans=3 duration_ns=100\n\
             \x20 client.submit span=10 parent=0 start_ns=0 dur_ns=100\n\
             \x20   server.queue_wait span=11 parent=10 start_ns=5 dur_ns=15\n\
             \x20   server.engine span=12 parent=10 start_ns=20 dur_ns=60\n"
        );
        // Order of recording must not matter.
        spans.reverse();
        assert_eq!(render_trace_spans(&spans), text);
    }

    #[test]
    fn orphan_spans_render_at_top_level() {
        let spans = vec![rec(7, 2, 99, "server.engine", 10, 30)];
        let text = render_trace_spans(&spans);
        assert!(
            text.contains("\n  server.engine span=2 parent=99 start_ns=0 dur_ns=20\n"),
            "{text}"
        );
    }

    #[test]
    fn tracer_samples_deterministically_one_in_n() {
        let tracer = Tracer::new(3, 4); // offset 3 % 4 = 3
        let hits: Vec<bool> = (0..12).map(|_| tracer.sample().is_some()).collect();
        assert_eq!(
            hits,
            [false, false, false, true, false, false, false, true, false, false, false, true]
        );
        // Sampled trace ids are fresh and nonzero.
        let t = Tracer::new(0, 1);
        let a = t.sample().unwrap();
        let b = t.sample().unwrap();
        assert!(a >= 1 && b > a);
        // every = 0 and disabled() never sample.
        assert!(Tracer::new(5, 0).sample().is_none());
        assert!(Tracer::disabled().sample().is_none());
    }

    #[test]
    fn spans_record_into_the_global_ring_on_drop() {
        let _ring = global_ring();
        let before = traces().totals().0;
        let mut root = Span::start(next_trace_id(), 0, "test.root");
        root.tag("kind=test");
        let trace_id = root.trace_id();
        let child = Span::start(trace_id, root.id(), "test.child");
        assert!(root.is_recording() && child.is_recording());
        let (root_id, child_id) = (root.id(), child.id());
        assert!(root_id >= 1 && child_id > root_id);
        child.finish();
        root.finish();
        assert!(traces().totals().0 >= before + 2);
        let ours: Vec<SpanRecord> = traces()
            .drain()
            .into_iter()
            .filter(|s| s.trace_id == trace_id)
            .collect();
        assert_eq!(ours.len(), 2);
        let root_rec = ours.iter().find(|s| s.span_id == root_id).unwrap();
        let child_rec = ours.iter().find(|s| s.span_id == child_id).unwrap();
        assert_eq!(root_rec.name, "test.root");
        assert_eq!(root_rec.detail, "kind=test");
        assert_eq!(root_rec.parent_span_id, 0);
        assert_eq!(child_rec.parent_span_id, root_id);
        assert!(child_rec.end_ns >= child_rec.start_ns);
    }

    #[test]
    fn noop_spans_record_nothing() {
        let _ring = global_ring();
        let before = traces().totals().0;
        let mut span = Span::noop();
        assert!(!span.is_recording());
        assert_eq!((span.id(), span.trace_id()), (0, 0));
        span.tag("ignored");
        span.finish();
        Span::start(0, 5, "test.untraced").finish();
        assert_eq!(traces().totals().0, before);
    }

    #[test]
    fn ring_bounds_and_counts_drops() {
        let ring = TraceRing::new(2);
        for i in 0..5u64 {
            ring.record(rec(1, i + 1, 0, "test.span", i, i + 1));
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.totals(), (5, 3));
        let spans = ring.snapshot();
        assert_eq!(
            spans.iter().map(|s| s.span_id).collect::<Vec<_>>(),
            vec![4, 5],
            "oldest evicted first"
        );
        assert_eq!(ring.drain().len(), 2);
        assert!(ring.is_empty());
    }

    #[test]
    fn slow_spans_promote_into_the_event_ring() {
        let _ring = global_ring();
        let trace_id = next_trace_id();
        let mut span = Span::start(trace_id, 0, "test.slow");
        span.tag("kind=stats ns=0");
        std::thread::sleep(SLOW_SPAN_THRESHOLD);
        span.finish();
        let slow: Vec<_> = crate::drain_events()
            .into_iter()
            .filter(|e| {
                e.kind == "trace.slow" && e.detail.starts_with(&format!("trace={trace_id} "))
            })
            .collect();
        assert_eq!(slow.len(), 1, "exactly one promotion per span");
        assert!(slow[0].detail.contains("name=test.slow"));
        assert!(slow[0].detail.contains("kind=stats ns=0"));
        traces().drain();
    }

    #[test]
    fn trace_server_answers_any_request() {
        use std::io::{Read as _, Write as _};
        let server = TraceServer::bind("127.0.0.1:0").unwrap();
        let mut conn = std::net::TcpStream::connect(server.local_addr()).unwrap();
        conn.write_all(b"GET /traces HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
        assert!(response.contains("\r\n\r\ntraces "), "{response}");
        server.join();
    }
}
