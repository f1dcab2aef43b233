//! The client: one typed submit method per request verb over one
//! multiplexed connection.
//!
//! Since wire v3 a connection is **multiplexed**: every request carries a
//! client-assigned id its response echoes, so many requests can be in
//! flight at once and responses may complete out of order. The [`Client`]
//! owns the write half plus a background reader thread that demuxes
//! incoming responses into per-request slots:
//!
//! ```text
//!  submit_*() ──write frame──►  TCP  ──►  server
//!      │ returns                 │
//!      ▼                         ▼
//!  Pending<T> ◄──slot◄── reader thread (demux by echoed id)
//!      │
//!      └─ wait() blocks until *this* id resolves
//! ```
//!
//! Every `submit_*` method returns a [`Pending`] at once: keep up to
//! [`ClientConfig::max_in_flight`] submitted before waiting any, and the
//! connection amortizes one round trip over the whole window. A blocking
//! call is `submit_…(…)?.wait()` — one request in flight.
//!
//! Every engine-scoped request is addressed to a **namespace** (wire v4:
//! a logical tenant engine on the server) — pass
//! [`pts_util::protocol::DEFAULT_NAMESPACE`] (0) for the default tenant.
//! [`Client::submit_create_namespace`] / [`Client::submit_drop_namespace`]
//! / [`Client::submit_list_namespaces`] manage the tenant set itself.
//!
//! The recoverable/fatal error split is preserved *per request*: an
//! in-band error response resolves only its own id (as
//! [`ClientError::Server`]); a connection-level failure (I/O error,
//! undecodable response stream) is fatal and fails every outstanding
//! [`Pending`] with a connection error — see
//! [`ClientError::is_recoverable`].
//!
//! Protocol payloads convert back into engine types at the boundary: raw
//! `(index, delta)` pairs become [`pts_stream::Update`]s on the way out
//! and [`pts_samplers::Sample`]s on the way back, snapshot bytes decode
//! into [`pts_engine::EngineSnapshot`].

use crate::obs::{kind_name, obs};
use pts_engine::EngineSnapshot;
use pts_obs::{Span, Stopwatch, Tracer};
use pts_samplers::Sample;
use pts_stream::Update;
use pts_util::protocol::{
    read_response, write_request, Request, RequestHeader, Response, ServiceError, ServiceStats,
    TraceContext, DEFAULT_NAMESPACE,
};
use pts_util::wire::WireError;
use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default [`ClientConfig::max_in_flight`]: deep enough to saturate a
/// loopback connection (the `m1` experiment sweeps D ∈ {1, 4, 16, 64}).
pub const DEFAULT_MAX_IN_FLIGHT: usize = 64;

/// How many responses to ids nobody is waiting on (duplicate ids, ids
/// never submitted) the demux buffers before discarding the oldest —
/// a hostile or buggy server must not grow client memory unboundedly.
const STRAY_BUFFER: usize = 1024;

/// Connection-level knobs for a [`Client`], builder-style.
///
/// The defaults reproduce the client's historical behavior exactly:
/// no deadline anywhere (connect, read, and write all block as long as
/// the OS lets them), plus a [`DEFAULT_MAX_IN_FLIGHT`] pipelining window.
/// Latency-sensitive callers — the `pts-cluster` coordinator above all,
/// which must *detect* a dead node rather than hang on it — tighten the
/// deadlines:
///
/// ```no_run
/// use pts_server::{Client, ClientConfig};
/// use std::time::Duration;
///
/// let config = ClientConfig::new()
///     .connect_timeout(Duration::from_secs(1))
///     .read_timeout(Duration::from_secs(5))
///     .write_timeout(Duration::from_secs(5))
///     .max_in_flight(16);
/// let client = Client::connect_with("127.0.0.1:4000", &config).unwrap();
/// # let _ = client;
/// ```
///
/// Timeout semantics: `read_timeout` is a **response deadline** — the
/// connection is declared dead (failing every outstanding request) only
/// when requests are in flight and no response frame has arrived within
/// the window; an idle multiplexed connection never times out. A write
/// deadline expires in the submitting call itself. After any expiry the
/// stream position is unknowable — discard the client and reconnect; do
/// not retry on the same connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClientConfig {
    /// Deadline for establishing the TCP connection (`None` = OS default).
    pub connect_timeout: Option<Duration>,
    /// Response deadline: with requests in flight, how long the reader
    /// waits for the next response frame before declaring the connection
    /// dead (`None` = block indefinitely).
    pub read_timeout: Option<Duration>,
    /// Per-write socket deadline while sending request bytes
    /// (`None` = block indefinitely).
    pub write_timeout: Option<Duration>,
    /// Pipelining window: how many requests may be awaiting responses on
    /// this connection before `submit_*` blocks for a slot. Minimum 1
    /// (a zero is treated as 1 — lockstep).
    pub max_in_flight: usize,
    /// Trace sampling rate (wire v5): a `submit_*` call with no explicit
    /// parent trace starts a fresh distributed trace on every
    /// `trace_every`-th request. 0 (the default) disables sampling; in
    /// the obs-off build nothing is ever sampled regardless.
    pub trace_every: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: None,
            read_timeout: None,
            write_timeout: None,
            max_in_flight: DEFAULT_MAX_IN_FLIGHT,
            trace_every: 0,
        }
    }
}

impl ClientConfig {
    /// The default configuration: no deadlines, matching
    /// [`Client::connect`]'s historical behavior, and a
    /// [`DEFAULT_MAX_IN_FLIGHT`] pipelining window.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the connect deadline.
    pub fn connect_timeout(mut self, timeout: Duration) -> Self {
        self.connect_timeout = Some(timeout);
        self
    }

    /// Sets the response deadline (see the type docs for its multiplexed
    /// semantics).
    pub fn read_timeout(mut self, timeout: Duration) -> Self {
        self.read_timeout = Some(timeout);
        self
    }

    /// Sets the per-write deadline.
    pub fn write_timeout(mut self, timeout: Duration) -> Self {
        self.write_timeout = Some(timeout);
        self
    }

    /// Sets the pipelining window (clamped to ≥ 1; 1 = lockstep).
    pub fn max_in_flight(mut self, depth: usize) -> Self {
        self.max_in_flight = depth.max(1);
        self
    }

    /// Enables trace sampling: one in `every` submitted requests starts
    /// a distributed trace (0 disables — the default).
    pub fn trace_sampling(mut self, every: u64) -> Self {
        self.trace_every = every;
        self
    }
}

/// Everything a client call can fail with.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed at the socket level (or a fatal connection
    /// error observed by the reader thread — every outstanding request
    /// resolves with one of these).
    Io(std::io::Error),
    /// The server's bytes could not be decoded as a response frame.
    Wire(WireError),
    /// The server answered with an in-band error response.
    Server(ServiceError),
    /// The server answered with a well-formed response of the wrong kind
    /// for the request that was sent.
    UnexpectedResponse(&'static str),
    /// A checkpoint too large to ship in one `Restore` request
    /// ([`pts_util::protocol::MAX_RESTORE_BYTES`]); restore it out-of-band
    /// by starting the replacement server from the bytes directly
    /// (`ShardedEngine::restore`). Detected
    /// client-side, before anything is sent, so the connection survives.
    CheckpointTooLarge {
        /// The oversized checkpoint's byte count.
        bytes: usize,
    },
}

impl ClientError {
    /// The uniform recoverability classification shared across the
    /// stack's error surfaces (`pts_util::wire::FrameError` and
    /// `pts_cluster::ClusterError` follow the same contract): `true`
    /// means the failure was scoped to one request and the **connection
    /// is still usable** — keep submitting on it; `false` means the
    /// connection's stream state is lost — discard the client and
    /// reconnect.
    ///
    /// Recoverable: [`ClientError::Server`] (an in-band error response,
    /// resolved under its own request id), [`ClientError::UnexpectedResponse`]
    /// (the frame demuxed cleanly; the payload kind was wrong for one
    /// request), and [`ClientError::CheckpointTooLarge`] (rejected before
    /// anything was sent). Fatal: [`ClientError::Io`] and
    /// [`ClientError::Wire`] — after either, response frames can no
    /// longer be attributed to requests.
    pub fn is_recoverable(&self) -> bool {
        match self {
            ClientError::Io(_) | ClientError::Wire(_) => false,
            ClientError::Server(_)
            | ClientError::UnexpectedResponse(_)
            | ClientError::CheckpointTooLarge { .. } => true,
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Wire(e) => write!(f, "protocol decode error: {e}"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::UnexpectedResponse(what) => {
                write!(f, "unexpected response kind (wanted {what})")
            }
            ClientError::CheckpointTooLarge { bytes } => write!(
                f,
                "checkpoint of {bytes} bytes exceeds the Restore request cap \
                 ({} bytes); restore it out-of-band",
                pts_util::protocol::MAX_RESTORE_BYTES
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

/// Why the connection died, kept cloneable so every waiter can receive
/// its own [`ClientError::Io`] rendering of the same root cause.
#[derive(Debug, Clone)]
struct DeadReason {
    kind: std::io::ErrorKind,
    detail: String,
}

impl DeadReason {
    fn to_error(&self) -> ClientError {
        ClientError::Io(std::io::Error::new(self.kind, self.detail.clone()))
    }
}

/// One request's slot in the demux table.
#[derive(Debug)]
enum Slot {
    /// Submitted; its response has not arrived. The stopwatch started at
    /// submit and feeds `server.client.resolve.ns` when the response
    /// arrives — not when the caller gets round to claiming it.
    Waiting(Stopwatch),
    /// The response arrived before anyone waited.
    Ready(Response),
}

/// The state the reader thread and all [`Pending`] handles share.
#[derive(Debug, Default)]
struct DemuxState {
    /// Outstanding requests by id.
    slots: HashMap<u64, Slot>,
    /// How many slots are still [`Slot::Waiting`] (drives the response
    /// deadline: only unanswered requests arm it).
    waiting: usize,
    /// When the current wait-for-a-response window started: set when the
    /// connection goes from idle to having waiters, refreshed by every
    /// arriving response frame, cleared when the last waiter resolves.
    pending_since: Option<Instant>,
    /// Responses to ids nobody was waiting on (bounded; see
    /// [`STRAY_BUFFER`]). [`Client::recv_response`] drains it.
    stray: VecDeque<(u64, Response)>,
    /// `Some` once the connection is dead; every present and future
    /// waiter resolves with this.
    dead: Option<DeadReason>,
}

/// The demux table plus its wakeup signal.
#[derive(Debug, Default)]
struct Demux {
    state: Mutex<DemuxState>,
    cv: Condvar,
}

impl Demux {
    /// Routes one arrived response: resolves its slot if someone is
    /// waiting on the id, otherwise buffers it as stray.
    fn deliver(&self, id: u64, resp: Response) {
        let Ok(mut s) = self.state.lock() else {
            return;
        };
        match s.slots.get(&id) {
            Some(&Slot::Waiting(sw)) => {
                // Submit→resolve ends here, however late the caller
                // claims the response.
                obs().client_resolve.observe_elapsed(sw);
                s.slots.insert(id, Slot::Ready(resp));
                s.waiting -= 1;
                s.pending_since = if s.waiting == 0 {
                    None
                } else {
                    Some(Instant::now())
                };
            }
            _ => {
                if s.stray.len() >= STRAY_BUFFER {
                    s.stray.pop_front();
                }
                s.stray.push_back((id, resp));
                // A frame arrived — the connection is alive; re-arm the
                // response deadline for whoever is still waiting.
                if s.waiting > 0 {
                    s.pending_since = Some(Instant::now());
                }
            }
        }
        drop(s);
        self.cv.notify_all();
    }

    /// Marks the connection dead (first cause wins) and wakes every
    /// waiter — each resolves with a connection error.
    fn die(&self, kind: std::io::ErrorKind, detail: impl Into<String>) {
        if let Ok(mut s) = self.state.lock() {
            if s.dead.is_none() {
                s.dead = Some(DeadReason {
                    kind,
                    detail: detail.into(),
                });
            }
        }
        self.cv.notify_all();
    }

    /// Whether the response deadline has expired: some request has been
    /// waiting and no frame has arrived for at least `timeout`.
    fn overdue(&self, timeout: Option<Duration>) -> bool {
        let (Some(timeout), Ok(s)) = (timeout, self.state.lock()) else {
            return false;
        };
        matches!(s.pending_since, Some(since) if since.elapsed() >= timeout)
    }
}

/// A handle to one in-flight request: resolves to the typed result via
/// [`Pending::wait`]. Dropping it without waiting abandons the request
/// (the response, when it arrives, is discarded) — it does **not** cancel
/// anything server-side.
#[must_use = "a Pending resolves only through wait(); dropping it abandons the request"]
#[derive(Debug)]
pub struct Pending<T> {
    demux: Arc<Demux>,
    id: u64,
    decode: fn(Response) -> Result<T, ClientError>,
    done: bool,
    /// The `client.submit` span covering submit→resolve (a no-op handle
    /// for untraced requests); records when this handle resolves or is
    /// abandoned.
    span: Span,
}

impl<T> Pending<T> {
    /// The request id this handle is waiting on (ids are assigned
    /// sequentially from 1 per connection).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Blocks until this request's response arrives (in any order
    /// relative to other in-flight requests) and decodes it. An in-band
    /// error response resolves as [`ClientError::Server`] — scoped to
    /// this request only; a connection-level failure resolves every
    /// outstanding `Pending` as [`ClientError::Io`].
    pub fn wait(self) -> Result<T, ClientError> {
        self.wait_deadline(None)
            .map(|resolved| resolved.expect("no deadline: wait_deadline resolves or errors"))
    }

    /// [`Pending::wait`] with a per-call deadline: `Ok(Some(value))` when
    /// the response arrives in time, `Ok(None)` when the deadline expires
    /// first, `Err` exactly like [`Pending::wait`].
    ///
    /// Expiry abandons **this request only** — identical to dropping the
    /// handle: the slot is released, the **connection stays usable** (the
    /// late response, if it ever arrives, lands in the bounded stray
    /// buffer and is discarded), and nothing is cancelled server-side.
    /// This is scoped backpressure, not failure detection — for declaring
    /// a connection dead use [`ClientConfig::read_timeout`], which fails
    /// every outstanding request when no frame arrives in the window.
    pub fn wait_timeout(self, timeout: Duration) -> Result<Option<T>, ClientError> {
        self.wait_deadline(Some(Instant::now() + timeout))
    }

    fn wait_deadline(mut self, deadline: Option<Instant>) -> Result<Option<T>, ClientError> {
        self.done = true;
        let poisoned = || ClientError::Io(std::io::Error::other("client demux poisoned"));
        let Ok(mut s) = self.demux.state.lock() else {
            return Err(poisoned());
        };
        let resp = loop {
            match s.slots.remove(&self.id) {
                Some(Slot::Ready(resp)) => break resp,
                Some(waiting @ Slot::Waiting(_)) => {
                    s.slots.insert(self.id, waiting);
                }
                // Only reachable dead: the reader cleared nothing, but a
                // poisoned path may have; fall through to the dead check.
                None => {}
            }
            if let Some(dead) = &s.dead {
                let err = dead.to_error();
                if matches!(s.slots.remove(&self.id), Some(Slot::Waiting(_))) {
                    s.waiting -= 1;
                }
                drop(s);
                self.demux.cv.notify_all();
                return Err(err);
            }
            s = match deadline {
                None => match self.demux.cv.wait(s) {
                    Ok(guard) => guard,
                    Err(_) => return Err(poisoned()),
                },
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // Expired: release the slot exactly like Drop
                        // does, so the connection keeps working and the
                        // late response becomes a bounded stray.
                        if matches!(s.slots.remove(&self.id), Some(Slot::Waiting(_))) {
                            s.waiting -= 1;
                            if s.waiting == 0 {
                                s.pending_since = None;
                            }
                        }
                        drop(s);
                        self.demux.cv.notify_all();
                        return Ok(None);
                    }
                    match self.demux.cv.wait_timeout(s, d - now) {
                        Ok((guard, _)) => guard,
                        Err(_) => return Err(poisoned()),
                    }
                }
            };
        };
        drop(s);
        // A slot freed: a submit blocked on the in-flight cap can run.
        self.demux.cv.notify_all();
        // Resolved: close the submit→resolve span before decoding (decode
        // cost is the caller's, not the wire's).
        std::mem::take(&mut self.span).finish();
        match resp {
            Response::Error(e) => Err(ClientError::Server(e)),
            other => (self.decode)(other).map(Some),
        }
    }
}

impl<T> Drop for Pending<T> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        if let Ok(mut s) = self.demux.state.lock() {
            if matches!(s.slots.remove(&self.id), Some(Slot::Waiting(_))) {
                s.waiting -= 1;
                if s.waiting == 0 {
                    s.pending_since = None;
                }
            }
        }
        self.demux.cv.notify_all();
    }
}

/// A multiplexed connection to a [`crate::Server`]: a writer owned by the
/// caller plus a background reader thread demuxing responses by id (see
/// the module docs for the two API layers).
///
/// Not `Clone` and not `Sync` by design: one `Client` is one submission
/// stream. Pipelining happens through [`Pending`] handles, not through
/// sharing the client across threads.
#[derive(Debug)]
pub struct Client {
    writer: BufWriter<TcpStream>,
    /// A separate handle for `Drop`'s socket shutdown (unblocks the
    /// reader thread).
    stream: TcpStream,
    demux: Arc<Demux>,
    reader: Option<JoinHandle<()>>,
    /// The next request id to assign (sequential from 1; id 0 is
    /// reserved on the wire).
    next_id: u64,
    max_in_flight: usize,
    /// Starts a fresh trace on every [`ClientConfig::trace_every`]-th
    /// submit that carries no explicit parent context (disabled by
    /// default — and always in the obs-off build).
    tracer: Tracer,
}

impl Client {
    /// Connects to a server with the default [`ClientConfig`] (no
    /// deadlines).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        Self::connect_with(addr, &ClientConfig::default())
    }

    /// Connects to a server under the given connection configuration.
    ///
    /// With a `connect_timeout`, every resolved address is tried in turn
    /// under its own deadline (mirroring `TcpStream::connect`'s
    /// multi-address behavior); the last failure is reported if none
    /// accepts.
    pub fn connect_with(addr: impl ToSocketAddrs, config: &ClientConfig) -> std::io::Result<Self> {
        let stream = match config.connect_timeout {
            None => TcpStream::connect(addr)?,
            Some(timeout) => {
                let mut last_err = None;
                let mut stream = None;
                for resolved in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&resolved, timeout) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        return Err(last_err.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                "address resolved to no endpoints",
                            )
                        }))
                    }
                }
            }
        };
        stream.set_nodelay(true)?;
        stream.set_write_timeout(config.write_timeout)?;
        let read_half = stream.try_clone()?;
        // The reader polls in short slices so the response deadline is
        // judged against *pending requests*, not against idle time (an
        // idle multiplexed connection must not time out).
        read_half.set_read_timeout(Some(
            config
                .read_timeout
                .unwrap_or(Duration::from_millis(100))
                .min(Duration::from_millis(100)),
        ))?;
        let demux = Arc::new(Demux::default());
        let reader_demux = Arc::clone(&demux);
        let read_timeout = config.read_timeout;
        let reader = std::thread::Builder::new()
            .name("pts-client-reader".into())
            .spawn(move || reader_loop(read_half, reader_demux, read_timeout))?;
        Ok(Self {
            writer: BufWriter::new(stream.try_clone()?),
            stream,
            demux,
            reader: Some(reader),
            next_id: 1,
            max_in_flight: config.max_in_flight.max(1),
            tracer: Tracer::new(0, config.trace_every),
        })
    }

    /// The one submit path: assigns an id, registers its slot (blocking
    /// while the connection is at [`ClientConfig::max_in_flight`]), and
    /// writes one request frame addressed to `ns` carrying the request's
    /// trace context (wire v5). An explicit `parent` — the coordinator
    /// propagating its scatter trace — wins; otherwise the connection's
    /// own [`Tracer`] may start a fresh trace; untraced requests carry
    /// the `0` marker and a no-op span. A write failure is fatal: the
    /// stream position is torn, so the connection is poisoned and every
    /// outstanding request fails.
    fn submit<T>(
        &mut self,
        ns: u64,
        parent: Option<TraceContext>,
        request: &Request,
        decode: fn(Response) -> Result<T, ClientError>,
    ) -> Result<Pending<T>, ClientError> {
        let mut span = match parent {
            Some(ctx) => Span::start(ctx.trace_id, ctx.parent_span_id, "client.submit"),
            None => match self.tracer.sample() {
                Some(trace_id) => Span::start(trace_id, 0, "client.submit"),
                None => Span::noop(),
            },
        };
        let trace = span.is_recording().then(|| TraceContext {
            trace_id: span.trace_id(),
            parent_span_id: span.id(),
        });
        let sw = Stopwatch::start();
        let id = {
            let Ok(mut s) = self.demux.state.lock() else {
                return Err(ClientError::Io(std::io::Error::other(
                    "client demux poisoned",
                )));
            };
            loop {
                if let Some(dead) = &s.dead {
                    return Err(dead.to_error());
                }
                // Gate on *unanswered* requests, not table size: a slot
                // whose response arrived but hasn't been claimed by its
                // `wait()` yet is no longer in flight on the wire, and
                // counting it would deadlock a submit-all-then-wait-all
                // caller at the cap.
                if s.waiting < self.max_in_flight {
                    break;
                }
                s = match self.demux.cv.wait(s) {
                    Ok(guard) => guard,
                    Err(_) => {
                        return Err(ClientError::Io(std::io::Error::other(
                            "client demux poisoned",
                        )))
                    }
                };
            }
            let id = self.next_id;
            self.next_id += 1;
            s.slots.insert(id, Slot::Waiting(sw));
            s.waiting += 1;
            if s.pending_since.is_none() {
                s.pending_since = Some(Instant::now());
            }
            id
        };
        if span.is_recording() {
            span.tag(format!("kind={} ns={ns} id={id}", kind_name(request)));
        }
        let header = RequestHeader { id, ns, trace };
        match write_request(&header, request, &mut self.writer).and_then(|()| self.writer.flush()) {
            Ok(()) => Ok(Pending {
                demux: Arc::clone(&self.demux),
                id,
                decode,
                done: false,
                span,
            }),
            Err(e) => {
                if let Ok(mut s) = self.demux.state.lock() {
                    if matches!(s.slots.remove(&id), Some(Slot::Waiting(_))) {
                        s.waiting -= 1;
                    }
                }
                self.demux
                    .die(e.kind(), format!("request write failed: {e}"));
                Err(ClientError::Io(e))
            }
        }
    }

    // ---- the request API: one submit per verb -------------------------
    //
    // Each returns a `Pending` at once; a blocking call is
    // `submit_…(…)?.wait()`. Engine-scoped verbs address namespace `ns`
    // (`DEFAULT_NAMESPACE` is the default tenant).

    /// Submits a batch of turnstile updates to namespace `ns`; resolves
    /// to the accepted count.
    pub fn submit_ingest_batch_ns(
        &mut self,
        ns: u64,
        batch: &[Update],
    ) -> Result<Pending<u64>, ClientError> {
        let pairs = batch.iter().map(|u| (u.index, u.delta)).collect();
        self.submit(ns, None, &Request::IngestBatch(pairs), decode_ingested)
    }

    /// Submits a `count`-draw sample request to namespace `ns`; resolves
    /// to the draws in draw order (`None` is the paper's ⊥).
    pub fn submit_sample_many_ns(
        &mut self,
        ns: u64,
        count: u64,
    ) -> Result<Pending<Vec<Option<Sample>>>, ClientError> {
        self.submit_sample_many_ns_traced(ns, count, None)
    }

    /// [`Client::submit_sample_many_ns`] carrying an explicit parent
    /// trace context — how the coordinator's gather propagates its trace
    /// into per-node fetches; `None` falls back to this connection's own
    /// sampler.
    pub fn submit_sample_many_ns_traced(
        &mut self,
        ns: u64,
        count: u64,
        parent: Option<TraceContext>,
    ) -> Result<Pending<Vec<Option<Sample>>>, ClientError> {
        self.submit(ns, parent, &Request::Sample { count }, decode_samples)
    }

    /// Submits a request for namespace `ns`'s compact mergeable
    /// snapshot.
    pub fn submit_snapshot_ns(&mut self, ns: u64) -> Result<Pending<EngineSnapshot>, ClientError> {
        self.submit(ns, None, &Request::Snapshot, decode_snapshot)
    }

    /// Submits a stats request to namespace `ns` — stats are per-tenant
    /// (each namespace has its own counters, mass, support).
    pub fn submit_stats_ns(&mut self, ns: u64) -> Result<Pending<ServiceStats>, ClientError> {
        self.submit_stats_ns_traced(ns, None)
    }

    /// [`Client::submit_stats_ns`] carrying an explicit parent trace
    /// context — how the coordinator's mass scatter propagates its trace
    /// into per-node queries; `None` falls back to this connection's own
    /// sampler.
    pub fn submit_stats_ns_traced(
        &mut self,
        ns: u64,
        parent: Option<TraceContext>,
    ) -> Result<Pending<ServiceStats>, ClientError> {
        self.submit(ns, parent, &Request::Stats, decode_stats)
    }

    /// Submits a pull of namespace `ns`'s complete engine checkpoint (a
    /// framed `KIND_ENGINE` payload — feed it to an engine `restore`,
    /// persist it, or send it back via [`Client::submit_restore_ns`]).
    /// Checkpoints are per-tenant, which is what makes individual tenants
    /// migratable.
    pub fn submit_checkpoint_ns(&mut self, ns: u64) -> Result<Pending<Vec<u8>>, ClientError> {
        self.submit(ns, None, &Request::Checkpoint, decode_checkpoint)
    }

    /// Submits a restore of namespace `ns` from a previously captured
    /// checkpoint — how a migrated tenant's state lands on its new node.
    /// Checkpoints above [`pts_util::protocol::MAX_RESTORE_BYTES`] are
    /// refused here, before anything is sent (shipping one would hit the
    /// server's frame cap and fatally close the connection); restore
    /// those out-of-band via the engine's own `restore`.
    pub fn submit_restore_ns(
        &mut self,
        ns: u64,
        checkpoint: &[u8],
    ) -> Result<Pending<()>, ClientError> {
        if checkpoint.len() as u64 > pts_util::protocol::MAX_RESTORE_BYTES {
            return Err(ClientError::CheckpointTooLarge {
                bytes: checkpoint.len(),
            });
        }
        let request = Request::Restore(checkpoint.to_vec());
        self.submit(ns, None, &request, decode_restored)
    }

    /// Submits a server shutdown request (server-scoped: no namespace to
    /// address); acknowledged before the server's accept loop exits.
    pub fn submit_shutdown(&mut self) -> Result<Pending<()>, ClientError> {
        self.submit(DEFAULT_NAMESPACE, None, &Request::Shutdown, decode_shutdown)
    }

    /// Submits a namespace creation. The server builds the tenant's
    /// engine through its spawner; creating an existing namespace (or 0)
    /// resolves as a recoverable server error.
    pub fn submit_create_namespace(&mut self, ns: u64) -> Result<Pending<()>, ClientError> {
        self.submit(ns, None, &Request::CreateNamespace, decode_ns_created)
    }

    /// Submits a namespace drop, releasing its tenant engine. Dropping
    /// namespace 0 or a namespace the server does not host resolves as a
    /// recoverable server error.
    pub fn submit_drop_namespace(&mut self, ns: u64) -> Result<Pending<()>, ClientError> {
        self.submit(ns, None, &Request::DropNamespace, decode_ns_dropped)
    }

    /// Submits a namespace listing; resolves to the hosted namespaces in
    /// ascending order (always containing 0).
    pub fn submit_list_namespaces(&mut self) -> Result<Pending<Vec<u64>>, ClientError> {
        let request = Request::ListNamespaces;
        self.submit(DEFAULT_NAMESPACE, None, &request, decode_namespaces)
    }

    // ---- fuzz-only hooks ----------------------------------------------

    /// Sends raw bytes **instead of** a well-formed request frame — the
    /// fuzz tests' hostile-client hook. The server's reply (if any) is
    /// read with [`Client::recv_response`].
    #[doc(hidden)]
    pub fn send_raw(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.writer.write_all(bytes)?;
        self.writer.flush()
    }

    /// Pops the next response no [`Pending`] claimed (in arrival order),
    /// with its echoed request id — how the fuzz tests observe the
    /// server's answers to hostile frames sent via [`Client::send_raw`].
    /// Blocks until a stray response arrives or the connection dies.
    #[doc(hidden)]
    pub fn recv_response(&mut self) -> Result<(u64, Response), ClientError> {
        let Ok(mut s) = self.demux.state.lock() else {
            return Err(ClientError::Io(std::io::Error::other(
                "client demux poisoned",
            )));
        };
        loop {
            if let Some(hit) = s.stray.pop_front() {
                return Ok(hit);
            }
            if let Some(dead) = &s.dead {
                return Err(dead.to_error());
            }
            s = match self.demux.cv.wait(s) {
                Ok(guard) => guard,
                Err(_) => {
                    return Err(ClientError::Io(std::io::Error::other(
                        "client demux poisoned",
                    )))
                }
            };
        }
    }
}

impl Drop for Client {
    fn drop(&mut self) {
        // Unblock the reader (it sees EOF/reset), mark the connection
        // dead for any surviving Pending handles, and reap the thread.
        let _ = self.stream.shutdown(Shutdown::Both);
        self.demux
            .die(std::io::ErrorKind::ConnectionAborted, "client dropped");
        if let Some(handle) = self.reader.take() {
            let _ = handle.join();
        }
    }
}

/// The background demux loop: reads response frames and routes each by
/// its echoed id until EOF, a decode failure, an I/O error, or an expired
/// response deadline (judged against pending requests — see
/// [`ClientConfig::read_timeout`]).
fn reader_loop(stream: TcpStream, demux: Arc<Demux>, read_timeout: Option<Duration>) {
    /// Retries the socket's short poll timeouts mid-frame until the
    /// whole-frame deadline passes — a response frame gets `read_timeout`
    /// from its first byte, not per read.
    struct PatientReader<'a> {
        inner: &'a mut BufReader<TcpStream>,
        deadline: Option<Instant>,
    }
    impl Read for PatientReader<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            loop {
                if matches!(self.deadline, Some(d) if Instant::now() >= d) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "response deadline expired mid-frame",
                    ));
                }
                match self.inner.read(buf) {
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    other => return other,
                }
            }
        }
    }

    let mut reader = BufReader::new(stream);
    loop {
        // Poll for the first byte of the next frame in short slices so an
        // idle connection never trips the response deadline.
        let mut first = [0u8; 1];
        match reader.read(&mut first) {
            Ok(0) => {
                return demux.die(
                    std::io::ErrorKind::ConnectionAborted,
                    "connection closed by server",
                )
            }
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if demux.overdue(read_timeout) {
                    return demux.die(
                        std::io::ErrorKind::TimedOut,
                        "response deadline expired with requests in flight",
                    );
                }
                continue;
            }
            Err(e) => return demux.die(e.kind(), format!("read failed: {e}")),
        }
        let body = PatientReader {
            inner: &mut reader,
            deadline: read_timeout.map(|t| Instant::now() + t),
        };
        let mut src = std::io::Cursor::new(first).chain(body);
        match read_response(&mut src) {
            Ok((id, resp)) => demux.deliver(id, resp),
            // Any torn/undecodable frame desyncs the stream — after it,
            // responses can no longer be attributed to requests.
            Err(e) => {
                return demux.die(
                    std::io::ErrorKind::InvalidData,
                    format!("response stream desynced: {e}"),
                )
            }
        }
    }
}

// ---- typed response decoders (free fns so Pending stays a plain fn
// pointer, no per-request allocation) ----------------------------------

fn decode_ingested(resp: Response) -> Result<u64, ClientError> {
    match resp {
        Response::Ingested { accepted } => Ok(accepted),
        _ => Err(ClientError::UnexpectedResponse("Ingested")),
    }
}

fn decode_samples(resp: Response) -> Result<Vec<Option<Sample>>, ClientError> {
    match resp {
        Response::Samples(draws) => Ok(draws
            .into_iter()
            .map(|d| d.map(|(index, estimate)| Sample { index, estimate }))
            .collect()),
        _ => Err(ClientError::UnexpectedResponse("Samples")),
    }
}

fn decode_snapshot(resp: Response) -> Result<EngineSnapshot, ClientError> {
    match resp {
        Response::Snapshot(bytes) => Ok(EngineSnapshot::from_bytes(&bytes)?),
        _ => Err(ClientError::UnexpectedResponse("Snapshot")),
    }
}

fn decode_stats(resp: Response) -> Result<ServiceStats, ClientError> {
    match resp {
        Response::Stats(stats) => Ok(stats),
        _ => Err(ClientError::UnexpectedResponse("Stats")),
    }
}

fn decode_checkpoint(resp: Response) -> Result<Vec<u8>, ClientError> {
    match resp {
        Response::Checkpoint(bytes) => Ok(bytes),
        _ => Err(ClientError::UnexpectedResponse("Checkpoint")),
    }
}

fn decode_restored(resp: Response) -> Result<(), ClientError> {
    match resp {
        Response::Restored => Ok(()),
        _ => Err(ClientError::UnexpectedResponse("Restored")),
    }
}

fn decode_shutdown(resp: Response) -> Result<(), ClientError> {
    match resp {
        Response::ShuttingDown => Ok(()),
        _ => Err(ClientError::UnexpectedResponse("ShuttingDown")),
    }
}

fn decode_ns_created(resp: Response) -> Result<(), ClientError> {
    match resp {
        Response::NamespaceCreated => Ok(()),
        _ => Err(ClientError::UnexpectedResponse("NamespaceCreated")),
    }
}

fn decode_ns_dropped(resp: Response) -> Result<(), ClientError> {
    match resp {
        Response::NamespaceDropped => Ok(()),
        _ => Err(ClientError::UnexpectedResponse("NamespaceDropped")),
    }
}

fn decode_namespaces(resp: Response) -> Result<Vec<u64>, ClientError> {
    match resp {
        Response::Namespaces(ids) => Ok(ids),
        _ => Err(ClientError::UnexpectedResponse("Namespaces")),
    }
}
