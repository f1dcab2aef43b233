//! Server instrumentation: pre-registered `pts-obs` handles.
//!
//! Same shape as the engine's: one struct of `Copy` handles behind a
//! `OnceLock`, so per-request cost is a relaxed atomic per touched metric.
//! Request kinds are a closed set, so each kind gets its own pre-labeled
//! series — the label is resolved at registration, never on the request
//! path. Metric names are inventoried in DESIGN.md §11.

use pts_obs::{registry, Counter, Gauge, Histogram};
use pts_util::protocol::Request;
use std::sync::OnceLock;

/// Per-request-kind handles: a count and a dispatch-latency histogram.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ReqObs {
    /// `server.requests{kind=…}`.
    pub count: Counter,
    /// `server.request.ns{kind=…}` — time inside `dispatch`, engine lock
    /// included (that wait is part of what a client experiences).
    pub ns: Histogram,
}

/// The server's metric handles.
#[derive(Debug)]
pub(crate) struct ServerObs {
    pub ingest: ReqObs,
    pub sample: ReqObs,
    pub snapshot: ReqObs,
    pub stats: ReqObs,
    pub checkpoint: ReqObs,
    pub restore: ReqObs,
    pub shutdown: ReqObs,
    pub create_namespace: ReqObs,
    pub drop_namespace: ReqObs,
    pub list_namespaces: ReqObs,
    /// `server.tenants.active` — namespaces currently hosted (the
    /// default tenant included).
    pub tenants_active: Gauge,
    /// `server.tenant.bytes` — per-tenant checkpoint sizes: the
    /// serialized full-state footprint observed whenever a tenant is
    /// checkpointed (`perfbench`'s `tenants` workload fills it: 10⁴
    /// tenants, with `Checkpoint` at 5% of the request mix).
    pub tenant_bytes: Histogram,
    /// `server.conn.opened` / `server.conn.closed` — connection lifecycle.
    pub conn_opened: Counter,
    pub conn_closed: Counter,
    /// `server.conn.active` — currently open connections.
    pub conn_active: Gauge,
    /// `server.conn.frame_timeouts` — whole-frame deadlines tripped.
    pub conn_timeouts: Counter,
    /// `server.panics` — dispatches that panicked inside an engine and
    /// were answered `Internal` instead of killing a worker.
    pub panics: Counter,
    /// `server.requests.inflight` — requests enqueued (demuxed off a
    /// connection) but not yet answered, across all connections.
    pub inflight: Gauge,
    /// `server.frame_errors{class=…}` — the three `FrameError` classes
    /// plus sound frames whose payload failed to decode.
    pub frame_recoverable: Counter,
    pub frame_fatal: Counter,
    pub frame_too_large: Counter,
    pub frame_payload: Counter,
    /// `server.bytes.in` / `server.bytes.out` — request bytes read and
    /// response bytes flushed.
    pub bytes_in: Counter,
    pub bytes_out: Counter,
    /// `server.stage.ns{stage=…}` — per-stage latency split of one
    /// request's server-side journey (wire v5 tracing's histogram view):
    /// time queued behind the connection's FIFO, time waiting on the
    /// tenant's engine lock, time doing engine work, time writing the
    /// response.
    pub stage_queue_wait: Histogram,
    pub stage_lock_wait: Histogram,
    pub stage_engine: Histogram,
    pub stage_write: Histogram,
    /// `server.client.resolve.ns` — the client-side submit→resolve
    /// latency per pending id (registered here because the reference
    /// client lives in this crate).
    pub client_resolve: Histogram,
}

impl ServerObs {
    /// The handles for one request's kind.
    pub fn req(&self, request: &Request) -> ReqObs {
        match request {
            Request::IngestBatch(_) => self.ingest,
            Request::Sample { .. } => self.sample,
            Request::Snapshot => self.snapshot,
            Request::Stats => self.stats,
            Request::Checkpoint => self.checkpoint,
            Request::Restore(_) => self.restore,
            Request::Shutdown => self.shutdown,
            Request::CreateNamespace => self.create_namespace,
            Request::DropNamespace => self.drop_namespace,
            Request::ListNamespaces => self.list_namespaces,
        }
    }
}

/// A request kind's label value — the same strings the labeled series
/// are registered with, reused as span tags (`kind=…`) so the trace and
/// metric views of one request agree.
pub(crate) fn kind_name(request: &Request) -> &'static str {
    match request {
        Request::IngestBatch(_) => "ingest",
        Request::Sample { .. } => "sample",
        Request::Snapshot => "snapshot",
        Request::Stats => "stats",
        Request::Checkpoint => "checkpoint",
        Request::Restore(_) => "restore",
        Request::Shutdown => "shutdown",
        Request::CreateNamespace => "create_namespace",
        Request::DropNamespace => "drop_namespace",
        Request::ListNamespaces => "list_namespaces",
    }
}

fn req(kind: &'static str) -> ReqObs {
    let r = registry();
    ReqObs {
        count: r.counter_labeled("server.requests", "kind", kind),
        ns: r.histogram_labeled("server.request.ns", "kind", kind),
    }
}

/// The process-global server handles.
pub(crate) fn obs() -> &'static ServerObs {
    static OBS: OnceLock<ServerObs> = OnceLock::new();
    OBS.get_or_init(|| {
        let r = registry();
        ServerObs {
            ingest: req("ingest"),
            sample: req("sample"),
            snapshot: req("snapshot"),
            stats: req("stats"),
            checkpoint: req("checkpoint"),
            restore: req("restore"),
            shutdown: req("shutdown"),
            create_namespace: req("create_namespace"),
            drop_namespace: req("drop_namespace"),
            list_namespaces: req("list_namespaces"),
            tenants_active: r.gauge("server.tenants.active"),
            tenant_bytes: r.histogram("server.tenant.bytes"),
            conn_opened: r.counter("server.conn.opened"),
            conn_closed: r.counter("server.conn.closed"),
            conn_active: r.gauge("server.conn.active"),
            conn_timeouts: r.counter("server.conn.frame_timeouts"),
            panics: r.counter("server.panics"),
            inflight: r.gauge("server.requests.inflight"),
            frame_recoverable: r.counter_labeled("server.frame_errors", "class", "recoverable"),
            frame_fatal: r.counter_labeled("server.frame_errors", "class", "fatal"),
            frame_too_large: r.counter_labeled("server.frame_errors", "class", "too_large"),
            frame_payload: r.counter_labeled("server.frame_errors", "class", "payload"),
            bytes_in: r.counter("server.bytes.in"),
            bytes_out: r.counter("server.bytes.out"),
            stage_queue_wait: r.histogram_labeled("server.stage.ns", "stage", "queue_wait"),
            stage_lock_wait: r.histogram_labeled("server.stage.ns", "stage", "lock_wait"),
            stage_engine: r.histogram_labeled("server.stage.ns", "stage", "engine"),
            stage_write: r.histogram_labeled("server.stage.ns", "stage", "write"),
            client_resolve: r.histogram("server.client.resolve.ns"),
        }
    })
}
