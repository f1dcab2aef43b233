//! The server: accept loop, per-connection demux readers, a bounded
//! worker pool, and the request dispatcher over a `TenantMap` of
//! [`SamplingService`] engines.
//!
//! Threading model (wire v3): each accepted connection gets one reader
//! thread that frames and demuxes requests — decoding each payload's
//! request header (id, namespace, trace) — into the connection's FIFO
//! queue; a **bounded pool** of `WORKER_THREADS` workers drains those
//! queues and
//! writes each response (under the echoed id) through the connection's
//! write lock. At most one worker owns a connection's FIFO at a time, so
//! one connection's requests are processed **in submission order** — the
//! ordering the cluster coordinator's pipelined ingest relies on — while
//! different connections proceed in parallel up to the pool width.
//! Responses on one connection may still be *observed* out of order by a
//! multiplexed peer only in the trivial sense that the protocol permits
//! it; this server's per-connection FIFO is an implementation choice,
//! not a wire guarantee (PROTOCOL.md §4).
//!
//! Tenancy model (wire v4): the engines live in a `TenantMap` — a
//! sharded-lock map from namespace id to `Arc<Mutex<engine>>`. A worker
//! holds a map shard's lock only long enough to clone the tenant's Arc,
//! then dispatches under that tenant's own mutex, so requests to
//! *different* tenants proceed in parallel across the pool while
//! requests to the *same* tenant serialize — per-tenant, every response
//! reflects all previously answered requests, across connections.
//! Tenants are cheap lazily-created engines sharing the existing worker
//! pool: **no per-tenant threads**, which is what makes millions of
//! namespaces per node viable (the paper's samplers are tiny).
//! Namespace 0 is the default tenant, created at bind from the engine
//! passed in; `CreateNamespace` builds additional tenants through the
//! spawner given to [`Server::bind_with_spawner`].
//!
//! Panic containment: a worker runs each dispatch under `catch_unwind`,
//! so an engine that panics costs one `Internal` error response — under
//! the request's own id — and a poisoned tenant mutex, never a worker.
//! Later requests to that tenant answer `Internal` ("engine lock
//! poisoned") until a `DropNamespace` + `CreateNamespace` replaces it;
//! every other tenant, and the rest of the connection's FIFO, is
//! untouched.
//!
//! Shutdown: a `Shutdown` request (or [`Server::shutdown`]) sets a shared
//! flag; the accept loop is woken by a loopback connection, joins the
//! connection readers (which observe the flag at their next idle poll),
//! drops the job channel so the workers exit, and joins those too.
//! [`Server::join`] then completes once everything has returned.

use crate::obs::{kind_name, obs};
use pts_engine::SamplingService;
use pts_obs::{event, CountingWriter, Span, Stopwatch};
use pts_stream::Update;
use pts_util::protocol::{
    decode_request, read_frame_lenient, write_response, ErrorCode, FrameError, Request,
    RequestError, RequestHeader, Response, ServiceError, TraceContext, DEFAULT_NAMESPACE,
    MAX_FRAME_BYTES,
};
use pts_util::wire::{WireError, KIND_REQUEST};
use std::collections::{HashMap, VecDeque};
use std::io::{BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a reader blocks waiting for the *first* byte of a request
/// before re-checking the shutdown flag. Bounds shutdown latency without
/// burning CPU on idle connections.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// The whole-frame deadline: once a request's first byte has arrived, the
/// complete frame must follow within this window. A peer that stalls — or
/// trickles bytes to keep individual reads alive — is treated as gone
/// when the deadline passes (fatal; the connection closes) rather than
/// pinning the reader, and [`FrameBodyReader`] re-checks the shutdown
/// flag on every retry so teardown never waits on a slow peer.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// Dispatch workers shared by all connections. A bounded pool — not a
/// thread per request — so a flood of pipelined requests queues instead
/// of spawning unboundedly; the engine mutex means more workers buy
/// cross-connection overlap of framing/encoding, not engine parallelism.
const WORKER_THREADS: usize = 4;

/// Per-connection cap on decoded-but-undispatched requests. The reader
/// blocks at the cap (TCP backpressure does the rest), so a client
/// pipelining faster than the engine drains cannot grow server memory
/// without bound.
const MAX_QUEUED_PER_CONN: usize = 1024;

/// Wraps the mid-frame reads of a connection: retries the socket's short
/// [`IDLE_POLL`] timeouts until data arrives, the whole-frame `deadline`
/// passes, or shutdown is flagged — converting both expiries into a
/// `TimedOut` error the frame reader classifies as fatal. The deadline
/// is fixed at construction — a **per-frame budget**: nothing a peer
/// sends can extend it, so a byte-trickler is cut off at the same
/// deadline as a silent staller (regression-tested below).
struct FrameBodyReader<'a, R: Read> {
    stream: &'a mut R,
    deadline: Instant,
    shutdown: &'a AtomicBool,
}

impl<R: Read> Read for FrameBodyReader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "server shutting down mid-frame",
                ));
            }
            if Instant::now() >= self.deadline {
                obs().conn_timeouts.inc();
                event("server.conn.frame_timeout", "whole-frame deadline exceeded");
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "frame deadline exceeded",
                ));
            }
            match self.stream.read(buf) {
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    continue
                }
                Ok(n) => {
                    obs().bytes_in.add(n as u64);
                    return Ok(n);
                }
                other => return other,
            }
        }
    }
}

/// How many independently locked buckets the [`TenantMap`] spreads
/// namespaces over. A tenant lookup contends only with lookups hashing
/// to the same bucket, never with another tenant's *dispatch* (that runs
/// under the tenant's own mutex after the bucket lock is released).
const TENANT_SHARDS: usize = 64;

/// The sharded-lock namespace → engine map (wire v4). Engines are held
/// behind `Arc<Mutex<_>>` so a worker can clone a tenant's handle under
/// the brief bucket lock and then dispatch without blocking any other
/// tenant — including a concurrent `DropNamespace`, which merely removes
/// the map entry (in-flight requests on the dropped tenant finish
/// against the orphaned Arc; subsequent lookups answer
/// `unknown-namespace`).
struct TenantMap<E> {
    buckets: Vec<Mutex<HashMap<u64, Arc<Mutex<E>>>>>,
    /// Live tenant count, mirrored into the `server.tenants.active`
    /// gauge (an atomic because `len` would otherwise need every bucket
    /// lock).
    count: AtomicU64,
}

impl<E> TenantMap<E> {
    /// A map hosting only the default tenant (namespace 0), built from
    /// the engine the server was bound with.
    fn new(default_engine: E) -> Self {
        let map = Self {
            buckets: (0..TENANT_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect(),
            count: AtomicU64::new(0),
        };
        map.insert(DEFAULT_NAMESPACE, default_engine);
        map
    }

    fn bucket(&self, ns: u64) -> &Mutex<HashMap<u64, Arc<Mutex<E>>>> {
        &self.buckets[(ns as usize) & (TENANT_SHARDS - 1)]
    }

    /// The tenant's engine handle, if the namespace exists.
    fn get(&self, ns: u64) -> Option<Arc<Mutex<E>>> {
        self.bucket(ns).lock().ok()?.get(&ns).cloned()
    }

    /// Inserts a fresh tenant; `false` if the namespace already exists
    /// (the existing engine is left untouched).
    fn insert(&self, ns: u64, engine: E) -> bool {
        let Ok(mut bucket) = self.bucket(ns).lock() else {
            return false;
        };
        if bucket.contains_key(&ns) {
            return false;
        }
        bucket.insert(ns, Arc::new(Mutex::new(engine)));
        drop(bucket);
        let live = self.count.fetch_add(1, Ordering::Relaxed) + 1;
        obs().tenants_active.set(live as i64);
        true
    }

    /// Removes a tenant, releasing the map's reference to its engine.
    fn remove(&self, ns: u64) -> Option<Arc<Mutex<E>>> {
        let removed = self.bucket(ns).lock().ok()?.remove(&ns)?;
        let live = self.count.fetch_sub(1, Ordering::Relaxed) - 1;
        obs().tenants_active.set(live as i64);
        Some(removed)
    }

    /// Every live namespace, ascending (the order the wire response
    /// promises).
    fn list(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .buckets
            .iter()
            .filter_map(|b| b.lock().ok())
            .flat_map(|b| b.keys().copied().collect::<Vec<_>>())
            .collect();
        ids.sort_unstable();
        ids
    }
}

/// The tenant-spawning hook: builds the engine for a newly created
/// namespace (the namespace id is passed so multi-tenant deployments can
/// vary configuration per tenant).
type Spawner<E> = Box<dyn Fn(u64) -> E + Send + Sync>;

/// The state all connection readers and workers share. The shutdown flag
/// lives in its own `Arc` so the non-generic [`Server`] handle can hold
/// it too.
struct Shared<E> {
    tenants: TenantMap<E>,
    /// How `CreateNamespace` builds a tenant's engine; `None` (plain
    /// [`Server::bind`]) means the tenant set is fixed at the default
    /// namespace and creation requests are answered `unsupported`.
    spawner: Option<Spawner<E>>,
    shutdown: Arc<AtomicBool>,
    /// The listener's address — what a worker pokes to wake a blocking
    /// `accept` after flagging shutdown.
    listen_addr: SocketAddr,
    /// When this server started serving (feeds the local-view
    /// `ServiceStats::uptime_secs`).
    start: Instant,
    /// Requests answered by this server, all kinds (feeds the local-view
    /// `ServiceStats::requests_served`; monotonic, never on the wire).
    requests: AtomicU64,
}

/// One connection's demux state: the FIFO of decoded requests awaiting a
/// worker, and the write half every response goes through.
struct Conn {
    queue: Mutex<ConnQueue>,
    /// Signals the reader blocked at [`MAX_QUEUED_PER_CONN`] that a job
    /// was drained.
    drained: Condvar,
    writer: Mutex<ConnWriter>,
}

/// The FIFO plus its scheduling token.
struct ConnQueue {
    jobs: VecDeque<(u64, Job)>,
    /// Whether a worker currently owns this FIFO. At most one at a time —
    /// that single-consumer rule is what makes per-connection processing
    /// order equal submission order.
    scheduled: bool,
}

/// The buffered write half plus the byte count already credited to
/// `server.bytes.out`.
struct ConnWriter {
    sink: BufWriter<CountingWriter<TcpStream>>,
    flushed: u64,
}

/// A running sampling service bound to a TCP listener.
///
/// Dropping the server shuts it down and joins every thread; use
/// [`Server::join`] for an explicit, blocking teardown.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

/// Binds `addr` and serves `engine` until shut down — the one-call entry
/// point (`examples/serve_demo.rs` is the tour). Equivalent to
/// [`Server::bind`].
pub fn serve<E>(addr: impl ToSocketAddrs, engine: E) -> std::io::Result<Server>
where
    E: SamplingService + Send + 'static,
{
    Server::bind(addr, engine)
}

/// Binds `addr` and serves a multi-tenant endpoint: `engine` becomes the
/// default namespace (0) and `spawner` builds the engine for every
/// namespace a client creates. Equivalent to [`Server::bind_with_spawner`].
pub fn serve_with_spawner<E, S>(
    addr: impl ToSocketAddrs,
    engine: E,
    spawner: S,
) -> std::io::Result<Server>
where
    E: SamplingService + Send + 'static,
    S: Fn(u64) -> E + Send + Sync + 'static,
{
    Server::bind_with_spawner(addr, engine, spawner)
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral loopback port) and starts
    /// the accept loop on a background thread. The engine moves into the
    /// server as the default namespace (0); clients observe and mutate it
    /// only through the protocol. Without a spawner the tenant set is
    /// fixed: `CreateNamespace` requests are answered `unsupported` (use
    /// [`Server::bind_with_spawner`] for a dynamic tenant set).
    pub fn bind<E>(addr: impl ToSocketAddrs, engine: E) -> std::io::Result<Self>
    where
        E: SamplingService + Send + 'static,
    {
        Self::bind_inner(addr, engine, None)
    }

    /// Binds `addr` with a dynamic tenant set: `engine` serves namespace
    /// 0 and `spawner(ns)` builds the engine behind every namespace a
    /// client creates — the namespace id is passed so deployments can
    /// vary universe, factory, or seed per tenant. Spawned engines share
    /// the existing worker pool; creating a tenant spawns no threads.
    pub fn bind_with_spawner<E, S>(
        addr: impl ToSocketAddrs,
        engine: E,
        spawner: S,
    ) -> std::io::Result<Self>
    where
        E: SamplingService + Send + 'static,
        S: Fn(u64) -> E + Send + Sync + 'static,
    {
        Self::bind_inner(addr, engine, Some(Box::new(spawner)))
    }

    fn bind_inner<E>(
        addr: impl ToSocketAddrs,
        engine: E,
        spawner: Option<Spawner<E>>,
    ) -> std::io::Result<Self>
    where
        E: SamplingService + Send + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let shared = Arc::new(Shared {
            tenants: TenantMap::new(engine),
            spawner,
            shutdown: Arc::clone(&shutdown),
            listen_addr: addr,
            start: Instant::now(),
            requests: AtomicU64::new(0),
        });
        let accept = std::thread::Builder::new()
            .name("pts-server-accept".into())
            .spawn(move || accept_loop(listener, shared))?;
        Ok(Self {
            addr,
            shutdown,
            accept: Some(accept),
        })
    }

    /// The address the server is listening on (with the real port when
    /// bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a shutdown (request-driven or programmatic) has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Initiates shutdown without a client: sets the flag and wakes the
    /// accept loop. Returns immediately; use [`Server::join`] to wait.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake a blocking accept; if the listener is already gone the
        // connect fails, which is equally fine.
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until the accept loop, every connection reader, and the
    /// worker pool have exited. (A `Shutdown` request from a client
    /// triggers the same teardown.)
    pub fn join(mut self) {
        self.shutdown();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// Accepts connections until the shutdown flag is set, then joins every
/// connection reader it spawned, closes the job channel, and joins the
/// worker pool.
fn accept_loop<E>(listener: TcpListener, shared: Arc<Shared<E>>)
where
    E: SamplingService + Send + 'static,
{
    // The ready channel carries "this connection's FIFO is non-empty and
    // unowned" tokens; a worker claiming one owns the FIFO until empty.
    let (ready_tx, ready_rx) = mpsc::channel::<Arc<Conn>>();
    let ready_rx = Arc::new(Mutex::new(ready_rx));
    let mut workers: Vec<JoinHandle<()>> = Vec::with_capacity(WORKER_THREADS);
    for _ in 0..WORKER_THREADS {
        let rx = Arc::clone(&ready_rx);
        let shared = Arc::clone(&shared);
        if let Ok(handle) = std::thread::Builder::new()
            .name("pts-server-worker".into())
            .spawn(move || worker_loop(rx, shared))
        {
            workers.push(handle);
        }
    }
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let conn = listener.accept();
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok((stream, _peer)) => {
                // Pipelined responses are many small frames back-to-back;
                // Nagle would hold each behind the previous one's ACK.
                let _ = stream.set_nodelay(true);
                let shared = Arc::clone(&shared);
                let ready = ready_tx.clone();
                if let Ok(handle) = std::thread::Builder::new()
                    .name("pts-server-conn".into())
                    .spawn(move || handle_connection(stream, shared, ready))
                {
                    readers.push(handle);
                }
            }
            // Transient accept errors (peer reset mid-handshake, fd
            // pressure) should not kill the service.
            Err(_) => continue,
        }
        // Reap finished readers so a long-lived server does not
        // accumulate joinable threads.
        readers.retain(|h| !h.is_finished());
    }
    for handle in readers {
        let _ = handle.join();
    }
    // No reader holds a sender anymore: dropping ours disconnects the
    // channel and the workers exit after draining what's left.
    drop(ready_tx);
    for handle in workers {
        let _ = handle.join();
    }
}

/// Serves one connection's read half: frames requests, decodes each
/// payload into its header and body, and enqueues decoded requests for
/// the worker pool — until EOF, a fatal framing error, or shutdown.
/// Frame-level and id-level failures are answered inline (under id 0 —
/// unattributable); later decode failures are answered under the
/// request's own id, which by then *was* readable.
fn handle_connection<E: SamplingService>(
    stream: TcpStream,
    shared: Arc<Shared<E>>,
    ready: mpsc::Sender<Arc<Conn>>,
) {
    let o = obs();
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into());
    o.conn_opened.inc();
    o.conn_active.add(1);
    event("server.conn.open", peer.clone());
    // Balance the lifecycle metrics on *every* exit path.
    struct ConnGuard(String);
    impl Drop for ConnGuard {
        fn drop(&mut self) {
            let o = obs();
            o.conn_closed.inc();
            o.conn_active.add(-1);
            event("server.conn.close", std::mem::take(&mut self.0));
        }
    }
    let _guard = ConnGuard(peer);
    let Ok(mut reader) = stream.try_clone() else {
        return;
    };
    let conn = Arc::new(Conn {
        queue: Mutex::new(ConnQueue {
            jobs: VecDeque::new(),
            scheduled: false,
        }),
        drained: Condvar::new(),
        writer: Mutex::new(ConnWriter {
            sink: BufWriter::new(CountingWriter::new(stream)),
            flushed: 0,
        }),
    });
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        // Wait for the first byte with a short poll so shutdown stays
        // responsive, then read the rest of the frame under a whole-frame
        // deadline: the socket keeps its short timeout and the body
        // reader re-checks the deadline and the shutdown flag on every
        // retry, so neither a stalled peer nor one trickling a byte at a
        // time can pin the reader past FRAME_TIMEOUT (or past shutdown).
        let first = match poll_first_byte(&mut reader, &shared.shutdown) {
            Ok(Some(b)) => b,
            Ok(None) => return, // EOF or shutdown
            Err(_) => return,
        };
        let body = FrameBodyReader {
            stream: &mut reader,
            deadline: Instant::now() + FRAME_TIMEOUT,
            shutdown: &shared.shutdown,
        };
        let mut src = std::io::Cursor::new([first]).chain(body);
        let outcome = read_frame_lenient(KIND_REQUEST, MAX_FRAME_BYTES, &mut src);
        match outcome {
            Ok(payload) => match decode_request(&payload) {
                Ok((header, request)) => {
                    let queue_span = stage_span(
                        header.trace,
                        "server.queue_wait",
                        kind_name(&request),
                        header.ns,
                    );
                    let job = Job::Dispatch(DispatchJob {
                        header,
                        request,
                        queue_span,
                        queued: Stopwatch::start(),
                    });
                    if enqueue(&conn, &ready, &shared, header.id, job).is_err() {
                        return;
                    }
                }
                // The id was sound but the namespace, the trace context,
                // or the body was not: answer under the request's own id,
                // in queue order (errors must not overtake earlier
                // responses).
                Err(RequestError {
                    id: Some(id),
                    error,
                }) => {
                    obs().frame_payload.inc();
                    event("server.frame_error.payload", error.to_string());
                    let response = error_response(ErrorCode::Malformed, &error);
                    if enqueue(&conn, &ready, &shared, id, Job::Reply(response)).is_err() {
                        return;
                    }
                }
                // The id itself was unreadable (or the reserved 0):
                // answer unattributably, keep the connection.
                Err(RequestError { id: None, error }) => {
                    obs().frame_payload.inc();
                    event("server.frame_error.payload", error.to_string());
                    let response = error_response(ErrorCode::Malformed, &error);
                    if respond(&conn, 0, &response).is_err() {
                        return;
                    }
                }
            },
            // Frame boundary survived: report under id 0 and continue.
            Err(FrameError::Recoverable(err)) => {
                obs().frame_recoverable.inc();
                event("server.frame_error.recoverable", err.to_string());
                if respond(&conn, 0, &error_response(ErrorCode::Malformed, &err)).is_err() {
                    return;
                }
            }
            // Framing destroyed: best-effort report under id 0, close.
            Err(FrameError::Fatal(err)) => {
                obs().frame_fatal.inc();
                event("server.frame_error.fatal", err.to_string());
                let _ = respond(&conn, 0, &error_response(ErrorCode::Malformed, &err));
                return;
            }
            Err(FrameError::TooLarge(err)) => {
                obs().frame_too_large.inc();
                event("server.frame_error.too_large", err.to_string());
                let _ = respond(&conn, 0, &error_response(ErrorCode::TooLarge, &err));
                return;
            }
        }
    }
}

/// One unit of connection work, in FIFO position.
enum Job {
    /// A decoded request, addressed to a namespace, to run through
    /// [`dispatch`].
    Dispatch(DispatchJob),
    /// A pre-built response (a namespace, trace, or body decode error)
    /// that must keep its place in the response order.
    Reply(Response),
}

/// A decoded request in flight between the reader and a worker: its
/// header (namespace and wire trace context), and the queue-wait stage
/// span opened at enqueue time (closed when a worker pops the job).
struct DispatchJob {
    header: RequestHeader,
    request: Request,
    queue_span: Span,
    queued: Stopwatch,
}

/// Opens one server-side stage span of a traced request, tagged
/// `kind=… ns=…`. Untraced requests get a free no-op handle — the tag
/// string is never even built.
fn stage_span(
    trace: Option<TraceContext>,
    name: &'static str,
    kind: &'static str,
    ns: u64,
) -> Span {
    let Some(ctx) = trace else {
        return Span::noop();
    };
    let mut span = Span::start(ctx.trace_id, ctx.parent_span_id, name);
    if span.is_recording() {
        span.tag(format!("kind={kind} ns={ns}"));
    }
    span
}

/// Appends a job to the connection FIFO (blocking at
/// [`MAX_QUEUED_PER_CONN`]) and hands the connection to the worker pool
/// if no worker owns it yet. `Err` means the connection should close
/// (poisoned lock or the pool is gone at shutdown).
fn enqueue<E>(
    conn: &Arc<Conn>,
    ready: &mpsc::Sender<Arc<Conn>>,
    shared: &Shared<E>,
    id: u64,
    job: Job,
) -> Result<(), ()> {
    let Ok(mut q) = conn.queue.lock() else {
        return Err(());
    };
    while q.jobs.len() >= MAX_QUEUED_PER_CONN {
        if shared.shutdown.load(Ordering::SeqCst) {
            return Err(());
        }
        q = match conn.drained.wait_timeout(q, IDLE_POLL) {
            Ok((guard, _)) => guard,
            Err(_) => return Err(()),
        };
    }
    q.jobs.push_back((id, job));
    obs().inflight.add(1);
    let kick = !q.scheduled;
    if kick {
        q.scheduled = true;
    }
    drop(q);
    if kick && ready.send(Arc::clone(conn)).is_err() {
        return Err(());
    }
    Ok(())
}

/// A worker: claims connections off the ready channel and drains each
/// FIFO it owns, one job at a time.
fn worker_loop<E: SamplingService>(
    ready: Arc<Mutex<mpsc::Receiver<Arc<Conn>>>>,
    shared: Arc<Shared<E>>,
) {
    loop {
        let conn = {
            let Ok(rx) = ready.lock() else {
                return;
            };
            match rx.recv() {
                Ok(conn) => conn,
                Err(_) => return, // channel closed: shutdown
            }
        };
        drain_connection(&conn, &shared);
    }
}

/// Drains one connection's FIFO: pops jobs in order, dispatches, and
/// writes each response under the connection's write lock. Releases
/// ownership (`scheduled = false`) when the queue empties so the reader
/// re-schedules the connection on its next enqueue. A panicking dispatch
/// is answered `Internal` under its own id and draining continues: an
/// unwinding worker would leave this FIFO owned by nobody (`scheduled`
/// stuck true) and shrink the pool for every connection.
fn drain_connection<E: SamplingService>(conn: &Conn, shared: &Arc<Shared<E>>) {
    loop {
        let (id, job) = {
            let Ok(mut q) = conn.queue.lock() else {
                return;
            };
            match q.jobs.pop_front() {
                Some(job) => job,
                None => {
                    q.scheduled = false;
                    return;
                }
            }
        };
        conn.drained.notify_all();
        let (response, wants_shutdown, trace, kind, ns) = match job {
            Job::Dispatch(job) => {
                // The queue-wait stage ends here: a worker owns the job.
                obs().stage_queue_wait.observe_elapsed(job.queued);
                drop(job.queue_span);
                let RequestHeader { ns, trace, .. } = job.header;
                let kind = kind_name(&job.request);
                let request = job.request;
                let (response, wants_shutdown) =
                    catch_unwind(AssertUnwindSafe(|| dispatch(shared, ns, trace, request)))
                        .unwrap_or_else(|payload| {
                            obs().panics.inc();
                            let what = panic_message(payload.as_ref());
                            event("server.panic", format!("ns={ns} kind={kind}: {what}"));
                            let message = format!("engine panicked: {what}");
                            let error = ServiceError::new(ErrorCode::Internal, message);
                            (Response::Error(error), false)
                        });
                (response, wants_shutdown, trace, kind, ns)
            }
            Job::Reply(response) => (response, false, None, "error", 0),
        };
        let write_sw = Stopwatch::start();
        let write_span = stage_span(trace, "server.write", kind, ns);
        let write_ok = respond(conn, id, &response).is_ok();
        drop(write_span);
        obs().stage_write.observe_elapsed(write_sw);
        obs().inflight.add(-1);
        if wants_shutdown {
            shared.shutdown.store(true, Ordering::SeqCst);
            event("server.shutdown", "shutdown request accepted");
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(shared.listen_addr);
        }
        if !write_ok {
            // The peer is gone: drop the rest of this queue (the reader
            // learns via EOF/reset) and release ownership.
            let Ok(mut q) = conn.queue.lock() else {
                return;
            };
            obs().inflight.add(-(q.jobs.len() as i64));
            q.jobs.clear();
            q.scheduled = false;
            drop(q);
            conn.drained.notify_all();
            return;
        }
    }
}

/// Blocks (in [`IDLE_POLL`] slices) until one byte arrives, the peer
/// closes, or shutdown is flagged. `Ok(None)` means "close this
/// connection quietly".
fn poll_first_byte(reader: &mut TcpStream, shutdown: &AtomicBool) -> std::io::Result<Option<u8>> {
    reader.set_read_timeout(Some(IDLE_POLL))?;
    let mut byte = [0u8; 1];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return Ok(None);
        }
        match reader.read(&mut byte) {
            Ok(0) => return Ok(None), // EOF
            Ok(_) => {
                obs().bytes_in.inc();
                return Ok(Some(byte[0]));
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(e) => return Err(e),
        }
    }
}

/// Writes one response frame under `request_id` through the connection's
/// write lock, flushes it, and credits the newly flushed bytes to
/// `server.bytes.out`. The frame is encoded *before* taking the lock;
/// the guarded region is exactly the serialized write+flush (both the
/// reader — answering frame errors inline — and any pool worker write
/// here, so responses never interleave mid-frame). The lock-io analyzer
/// pass flags socket I/O under a guard by design; these two calls are
/// allowlisted as the per-connection write serialization point — this is
/// not the engine lock, and blocking here only ever blocks this
/// connection's other responses.
fn respond(conn: &Conn, request_id: u64, response: &Response) -> std::io::Result<()> {
    let mut frame = Vec::new();
    write_response(request_id, response, &mut frame)?;
    let Ok(mut w) = conn.writer.lock() else {
        return Err(std::io::Error::other("connection writer poisoned"));
    };
    w.sink.write_all(&frame)?;
    w.sink.flush()?;
    let total = w.sink.get_ref().count();
    obs().bytes_out.add(total - w.flushed);
    w.flushed = total;
    Ok(())
}

/// The text of a caught panic's payload (the `&str` or `String` every
/// `panic!` with a message carries).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// An error response carrying the wire error's rendering as its message.
fn error_response(code: ErrorCode, err: &dyn std::fmt::Display) -> Response {
    Response::Error(ServiceError::new(code, err.to_string()))
}

/// Executes one request against its addressee. Server-scoped requests
/// (`Shutdown` and the namespace-management trio) run against the tenant
/// map itself; engine-scoped requests resolve their namespace to a
/// tenant engine first — a missing tenant is the in-band recoverable
/// `unknown-namespace` error. A traced request (wire v5) additionally
/// records its lock-wait and engine-work stage spans here (queue-wait
/// and response-write bracket this call in [`drain_connection`]).
/// Returns the response plus whether the server should shut down
/// afterwards.
fn dispatch<E: SamplingService>(
    shared: &Shared<E>,
    ns: u64,
    trace: Option<TraceContext>,
    request: Request,
) -> (Response, bool) {
    // Count the request up front so the Stats arm's local view includes
    // the Stats request itself; time the whole dispatch, lock wait
    // included — that wait is part of what the client experiences.
    let sw = Stopwatch::start();
    let served = shared.requests.fetch_add(1, Ordering::Relaxed) + 1;
    let req_obs = obs().req(&request);
    req_obs.count.inc();
    let kind = kind_name(&request);

    // Server-scoped requests never touch a tenant engine; `Shutdown` and
    // `ListNamespaces` ignore their namespace field, while the header
    // namespace is the create/drop operand (PROTOCOL.md §2). There is no
    // lock wait, so the whole arm is the engine-work stage.
    match request {
        Request::Shutdown => {
            let _stage = stage_span(trace, "server.engine", kind, ns);
            req_obs.ns.observe_elapsed(sw);
            return (Response::ShuttingDown, true);
        }
        Request::CreateNamespace => {
            let _stage = stage_span(trace, "server.engine", kind, ns);
            let response = if ns == DEFAULT_NAMESPACE {
                Response::Error(ServiceError::new(
                    ErrorCode::Unsupported,
                    "namespace 0 is the default tenant and always exists",
                ))
            } else {
                match &shared.spawner {
                    None => Response::Error(ServiceError::new(
                        ErrorCode::Unsupported,
                        "this server hosts a fixed tenant set (no spawner)",
                    )),
                    Some(spawn) => {
                        if shared.tenants.insert(ns, spawn(ns)) {
                            event("server.tenant.create", ns.to_string());
                            Response::NamespaceCreated
                        } else {
                            Response::Error(ServiceError::new(
                                ErrorCode::Unsupported,
                                format!("namespace {ns} already exists"),
                            ))
                        }
                    }
                }
            };
            req_obs.ns.observe_elapsed(sw);
            return (response, false);
        }
        Request::DropNamespace => {
            let _stage = stage_span(trace, "server.engine", kind, ns);
            let response = if ns == DEFAULT_NAMESPACE {
                Response::Error(ServiceError::new(
                    ErrorCode::Unsupported,
                    "namespace 0 is the default tenant and cannot be dropped",
                ))
            } else if shared.tenants.remove(ns).is_some() {
                event("server.tenant.drop", ns.to_string());
                Response::NamespaceDropped
            } else {
                unknown_namespace(ns)
            };
            req_obs.ns.observe_elapsed(sw);
            return (response, false);
        }
        Request::ListNamespaces => {
            let _stage = stage_span(trace, "server.engine", kind, ns);
            let response = Response::Namespaces(shared.tenants.list());
            req_obs.ns.observe_elapsed(sw);
            return (response, false);
        }
        _ => {}
    }

    // Engine-scoped: resolve the namespace (brief bucket lock, Arc
    // clone), then dispatch under the tenant's own mutex — other tenants
    // proceed in parallel on the remaining workers. The lock-wait stage
    // covers both waits; the engine-work stage starts once the tenant
    // mutex is held.
    let lock_sw = Stopwatch::start();
    let lock_span = stage_span(trace, "server.lock_wait", kind, ns);
    let Some(tenant) = shared.tenants.get(ns) else {
        drop(lock_span);
        obs().stage_lock_wait.observe_elapsed(lock_sw);
        req_obs.ns.observe_elapsed(sw);
        return (unknown_namespace(ns), false);
    };
    let Ok(mut engine) = tenant.lock() else {
        return (
            Response::Error(ServiceError::new(
                ErrorCode::Internal,
                "engine lock poisoned",
            )),
            false,
        );
    };
    drop(lock_span);
    obs().stage_lock_wait.observe_elapsed(lock_sw);
    let engine_sw = Stopwatch::start();
    let engine_span = stage_span(trace, "server.engine", kind, ns);
    let response = match request {
        // Unreachable through the wire (the decoder rejects an empty
        // batch), but the dispatcher is also reachable by in-process
        // callers: keep the no-silent-no-op rule at both layers.
        Request::IngestBatch(pairs) if pairs.is_empty() => Response::Error(ServiceError::new(
            ErrorCode::Malformed,
            "empty ingest batch",
        )),
        Request::IngestBatch(pairs) => {
            // Validate before touching the engine: an out-of-universe
            // index must become an in-band error, not an engine panic,
            // and a rejected batch must not be partially applied.
            let universe = engine.universe() as u64;
            match pairs.iter().find(|&&(index, _)| index >= universe) {
                Some(&(index, _)) => Response::Error(ServiceError::new(
                    ErrorCode::OutOfUniverse,
                    format!("index {index} outside universe [0, {universe})"),
                )),
                None => {
                    let batch: Vec<Update> = pairs
                        .iter()
                        .map(|&(index, delta)| Update::new(index, delta))
                        .collect();
                    engine.ingest_batch(&batch);
                    Response::Ingested {
                        accepted: batch.len() as u64,
                    }
                }
            }
        }
        Request::Sample { count } => {
            let draws = (0..count)
                .map(|_| engine.sample().map(|s| (s.index, s.estimate)))
                .collect();
            Response::Samples(draws)
        }
        Request::Snapshot => Response::Snapshot(engine.snapshot().to_bytes()),
        Request::Stats => {
            let mut stats = engine.service_stats();
            // The local-view fields (never on the wire — PROTOCOL.md §3):
            // this server's own request count and uptime.
            stats.requests_served = served;
            stats.uptime_secs = shared.start.elapsed().as_secs();
            Response::Stats(stats)
        }
        Request::Checkpoint => match engine.checkpoint_bytes() {
            Ok(bytes) => {
                // The one moment a tenant's full footprint is in hand:
                // feed the bytes/tenant distribution.
                obs().tenant_bytes.observe(bytes.len() as u64);
                Response::Checkpoint(bytes)
            }
            Err(err) => error_response(checkpoint_error_code(&err), &err),
        },
        Request::Restore(bytes) => match engine.restore_bytes(&bytes) {
            Ok(()) => Response::Restored,
            Err(err @ WireError::Unsupported(_)) => error_response(ErrorCode::Unsupported, &err),
            Err(err) => error_response(ErrorCode::Malformed, &err),
        },
        // Server-scoped requests returned above; kept exhaustive without
        // a wildcard so a new request variant is a compile error here.
        Request::Shutdown
        | Request::CreateNamespace
        | Request::DropNamespace
        | Request::ListNamespaces => Response::Error(ServiceError::new(
            ErrorCode::Internal,
            "server-scoped request reached the engine dispatcher",
        )),
    };
    drop(engine_span);
    obs().stage_engine.observe_elapsed(engine_sw);
    req_obs.ns.observe_elapsed(sw);
    (response, false)
}

/// The in-band answer for an engine-scoped request naming a namespace
/// this server does not host. Recoverable by design: the client can
/// create the namespace and retry on the same connection.
fn unknown_namespace(ns: u64) -> Response {
    Response::Error(ServiceError::new(
        ErrorCode::UnknownNamespace,
        format!("namespace {ns} does not exist on this server"),
    ))
}

/// Classifies a checkpoint failure: a factory that cannot cross the wire
/// (custom G closure) is the client's problem (`Unsupported`); anything
/// else is the server's (`Internal`).
fn checkpoint_error_code(err: &std::io::Error) -> ErrorCode {
    match err.get_ref().and_then(|e| e.downcast_ref::<WireError>()) {
        Some(WireError::Unsupported(_)) => ErrorCode::Unsupported,
        _ => ErrorCode::Internal,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The satellite regression: a peer that delivers exactly one byte
    /// per read must not extend the whole-frame budget — the deadline is
    /// fixed at frame start, so the read fails within ~the budget even
    /// though every individual read "succeeds".
    #[test]
    fn frame_deadline_is_a_per_frame_budget_against_byte_tricklers() {
        /// Serves a plausible frame prefix then trickles payload bytes
        /// forever, one per poll interval — the adversary the deadline
        /// exists for: every individual read "succeeds", so only a fixed
        /// per-frame budget can cut it off.
        struct Trickler {
            head: Vec<u8>,
            pos: usize,
        }
        impl Read for Trickler {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if buf.is_empty() {
                    return Ok(0);
                }
                buf[0] = if self.pos < self.head.len() {
                    self.head[self.pos]
                } else {
                    // Past the header, pace the trickle like a real
                    // 1-byte-per-poll peer.
                    std::thread::sleep(Duration::from_millis(1));
                    0x5A // endless "payload"
                };
                self.pos += 1;
                Ok(1)
            }
        }
        // magic | version | kind | len = 1 MiB, then a trickle that never
        // delivers the full payload.
        let mut head = Vec::new();
        head.extend_from_slice(&pts_util::wire::WIRE_MAGIC);
        head.push(pts_util::wire::WIRE_VERSION);
        head.push(KIND_REQUEST);
        head.extend_from_slice(&[0x80, 0x80, 0x40]); // varint 1 << 20
        let mut trickler = Trickler { head, pos: 0 };
        let shutdown = AtomicBool::new(false);
        let budget = Duration::from_millis(100);
        let started = Instant::now();
        let mut body = FrameBodyReader {
            stream: &mut trickler,
            deadline: Instant::now() + budget,
            shutdown: &shutdown,
        };
        let outcome = read_frame_lenient(KIND_REQUEST, MAX_FRAME_BYTES, &mut body);
        let elapsed = started.elapsed();
        assert!(
            matches!(outcome, Err(FrameError::Fatal(_))),
            "trickled frame must die fatally, got {outcome:?}"
        );
        // Must cut off near the budget: far before the 10 s FRAME_TIMEOUT
        // and certainly not never. Generous upper bound for slow CI.
        assert!(
            elapsed >= budget && elapsed < Duration::from_secs(5),
            "deadline not honored: took {elapsed:?} for a {budget:?} budget"
        );
    }

    /// Shutdown must also cut a trickled frame short, budget remaining or
    /// not.
    #[test]
    fn shutdown_interrupts_mid_frame_reads() {
        struct Endless;
        impl Read for Endless {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if buf.is_empty() {
                    return Ok(0);
                }
                buf[0] = 0;
                Ok(1)
            }
        }
        let shutdown = AtomicBool::new(true);
        let mut endless = Endless;
        let mut body = FrameBodyReader {
            stream: &mut endless,
            deadline: Instant::now() + Duration::from_secs(60),
            shutdown: &shutdown,
        };
        let mut buf = [0u8; 1];
        let err = body.read(&mut buf).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
    }
}
