//! The server: accept loop, one reader and one dispatcher thread per
//! connection, and the request dispatcher over a `TenantMap` of
//! [`SamplingService`] engines.
//!
//! Threading model: each half of a socket has one owner. A connection's
//! reader frames requests, decodes each payload's header (id, namespace,
//! trace), and sends every job — a decoded request, or an error reply
//! already built, id-0 ones included — down a bounded channel to the
//! connection's dispatcher, a thread started with its first job. The
//! reader never writes. The dispatcher is the channel's only consumer and
//! the socket's only writer, so one connection's responses go out **in
//! submission order** without a lock (the order the cluster coordinator's
//! pipelined ingest relies on; an implementation choice, not a wire
//! guarantee — PROTOCOL.md §4). Connections share no thread: a peer that
//! stops reading stalls only its own dispatcher, and its connection
//! closes once a response frame has waited `FRAME_TIMEOUT`.
//!
//! Tenancy model (wire v4): the engines live in a `TenantMap` — one
//! locked map from namespace id to `Arc<Mutex<engine>>`. A dispatcher
//! holds the map's lock only long enough to clone the tenant's Arc, then
//! dispatches under that tenant's own mutex, so requests to *different*
//! tenants proceed in parallel while requests to the *same* tenant
//! serialize — per-tenant, every response reflects all previously
//! answered requests, across connections. Tenants are cheap
//! lazily-created engines with **no per-tenant threads**, which is what
//! makes millions of namespaces per node viable (the paper's samplers
//! are tiny). Namespace 0 is the default tenant, created at bind from
//! the engine passed in; `CreateNamespace` builds additional tenants
//! through the spawner given to [`serve_with_spawner`].
//!
//! Panic containment: a dispatcher runs each dispatch under
//! `catch_unwind`, so an engine that panics costs one `Internal` error
//! response — under the request's own id — and a poisoned tenant mutex,
//! never a thread. Later requests to that tenant answer `Internal`
//! ("engine lock poisoned") until a `DropNamespace` + `CreateNamespace`
//! replaces it; every other tenant, and the rest of the connection's
//! FIFO, is untouched.
//!
//! Shutdown: a `Shutdown` request (or [`Server::shutdown`]) sets a shared
//! flag, and a loopback connection wakes the accept loop. The accept loop
//! keeps a handle on every connection's socket; once it sees the flag it
//! shuts each socket down, then joins the connections. A blocked read
//! then sees EOF and a blocked write fails at once, so no I/O loop polls
//! the flag. Dispatchers drop what is still queued, and one that waited
//! on a tenant's mutex drops its request once it holds the lock.
//! [`Server::join`] completes once everything has returned.

use crate::obs::{kind_name, obs};
use pts_engine::SamplingService;
use pts_obs::{event, Span, Stopwatch};
use pts_stream::Update;
use pts_util::protocol::{
    decode_request, read_frame_lenient, write_response, ErrorCode, FrameError, Request,
    RequestError, RequestHeader, Response, ServiceError, TraceContext, DEFAULT_NAMESPACE,
    MAX_FRAME_BYTES,
};
use pts_util::wire::{WireError, KIND_REQUEST};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The socket timeout of every connection: how often a blocked read or
/// write wakes to re-check its frame's [`FRAME_TIMEOUT`] deadline.
/// Teardown does not wait for it: it shuts the sockets down.
const IDLE_POLL: Duration = Duration::from_millis(50);

/// The whole-frame deadline, in both directions: once a request's first
/// byte has arrived the rest must follow, and once a response's write has
/// begun the peer must take all of it, within this window. A peer that
/// stalls — or trickles bytes to keep individual reads and writes alive —
/// is treated as gone when it passes (fatal; the connection closes)
/// rather than pinning a thread; [`FrameBodyReader`] and [`FrameWriter`]
/// re-check it on every retry.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-connection cap on decoded-but-unanswered jobs: the capacity of the
/// reader → dispatcher channel. The reader blocks at the cap (TCP
/// backpressure does the rest), so a client pipelining faster than the
/// engine drains cannot grow server memory without bound.
const MAX_QUEUED_PER_CONN: usize = 1024;

/// Wraps the mid-frame reads of a connection: retries the socket's short
/// [`IDLE_POLL`] timeouts until data arrives or the whole-frame `deadline`
/// passes, turning the expiry into a `TimedOut` error the frame reader
/// classifies as fatal. The deadline is fixed at construction — a
/// **per-frame budget**: nothing a peer sends can extend it, so a
/// byte-trickler is cut off at the same deadline as a silent staller
/// (regression-tested below).
struct FrameBodyReader<R: Read> {
    stream: R,
    deadline: Instant,
}

impl<R: Read> Read for FrameBodyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        loop {
            frame_expiry(self.deadline)?;
            match self.stream.read(buf) {
                Err(e) if is_poll_timeout(&e) => continue,
                Ok(n) => {
                    obs().bytes_in.add(n as u64);
                    return Ok(n);
                }
                other => return other,
            }
        }
    }
}

/// The write-side twin of [`FrameBodyReader`] for one response frame:
/// every attempt (the first, a retry after a blocked write, or the rest
/// of a partial one) first checks the per-frame `deadline`, so a peer
/// taking a few bytes at a time cannot extend the budget either.
struct FrameWriter<W: Write> {
    stream: W,
    deadline: Instant,
}

impl<W: Write> Write for FrameWriter<W> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            frame_expiry(self.deadline)?;
            match self.stream.write(buf) {
                Err(e) if is_poll_timeout(&e) => continue,
                Ok(n) => {
                    obs().bytes_out.add(n as u64);
                    return Ok(n);
                }
                other => return other,
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Whether a socket error is just its [`IDLE_POLL`] timeout expiring.
fn is_poll_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut)
}

/// The error that ends a blocked mid-frame read or write once the frame's
/// `deadline` has passed; `Ok` means retry.
fn frame_expiry(deadline: Instant) -> std::io::Result<()> {
    if Instant::now() < deadline {
        return Ok(());
    }
    obs().conn_timeouts.inc();
    event("server.conn.frame_timeout", "whole-frame deadline exceeded");
    Err(std::io::Error::new(
        ErrorKind::TimedOut,
        "frame deadline exceeded",
    ))
}

/// The namespace → engine map (wire v4), under one lock. Engines are held
/// behind `Arc<Mutex<_>>` so a dispatcher can clone a tenant's handle
/// under the brief map lock and then dispatch without blocking any other
/// tenant — including a concurrent `DropNamespace`, which merely removes
/// the map entry (in-flight requests on the dropped tenant finish
/// against the orphaned Arc; subsequent lookups answer
/// `unknown-namespace`).
struct TenantMap<E> {
    tenants: Mutex<HashMap<u64, Arc<Mutex<E>>>>,
}

impl<E> TenantMap<E> {
    /// A map hosting only the default tenant (namespace 0), built from
    /// the engine the server was bound with.
    fn new(default_engine: E) -> Self {
        let map = Self {
            tenants: Mutex::new(HashMap::new()),
        };
        map.insert(DEFAULT_NAMESPACE, default_engine);
        map
    }

    /// The tenant's engine handle, if the namespace exists.
    fn get(&self, ns: u64) -> Option<Arc<Mutex<E>>> {
        self.tenants.lock().ok()?.get(&ns).cloned()
    }

    /// Inserts a fresh tenant; `false` if the namespace already exists
    /// (the existing engine is left untouched).
    fn insert(&self, ns: u64, engine: E) -> bool {
        let Ok(mut tenants) = self.tenants.lock() else {
            return false;
        };
        if tenants.contains_key(&ns) {
            return false;
        }
        tenants.insert(ns, Arc::new(Mutex::new(engine)));
        obs().tenants_active.set(tenants.len() as i64);
        true
    }

    /// Removes a tenant, handing the map's reference to its engine to the
    /// caller (so the engine is not dropped under the map lock).
    fn remove(&self, ns: u64) -> Option<Arc<Mutex<E>>> {
        let mut tenants = self.tenants.lock().ok()?;
        let removed = tenants.remove(&ns)?;
        obs().tenants_active.set(tenants.len() as i64);
        Some(removed)
    }

    /// Every live namespace, ascending (the order the wire response
    /// promises).
    fn list(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self
            .tenants
            .lock()
            .map(|tenants| tenants.keys().copied().collect())
            .unwrap_or_default();
        ids.sort_unstable();
        ids
    }
}

/// The tenant-spawning hook: builds the engine for a newly created
/// namespace (the namespace id is passed so multi-tenant deployments can
/// vary configuration per tenant).
type Spawner<E> = Box<dyn Fn(u64) -> E + Send + Sync>;

/// The state every connection shares. The shutdown flag lives in its own
/// `Arc` so the non-generic [`Server`] handle can hold it too.
struct Shared<E> {
    tenants: TenantMap<E>,
    /// How `CreateNamespace` builds a tenant's engine; `None` (plain
    /// [`serve`]) means the tenant set is fixed at the default
    /// namespace and creation requests are answered `unsupported`.
    spawner: Option<Spawner<E>>,
    shutdown: Arc<AtomicBool>,
    /// The listener's address — what a dispatcher pokes to wake a
    /// blocking `accept` after flagging shutdown.
    listen_addr: SocketAddr,
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

/// Binds `addr` (use port 0 for an ephemeral loopback port) and serves
/// `engine` until shut down — the one-call entry point
/// (`examples/serve_demo.rs` is the tour). The accept loop runs on a
/// background thread. The engine moves into the server as the default
/// namespace (0); clients observe and mutate it only through the
/// protocol. Without a spawner the tenant set is fixed: `CreateNamespace`
/// requests are answered `unsupported` (use [`serve_with_spawner`] for a
/// dynamic tenant set).
pub fn serve<E>(addr: impl ToSocketAddrs, engine: E) -> std::io::Result<Server>
where
    E: SamplingService + Send + 'static,
{
    Server::bind_inner(addr, engine, None)
}

/// Binds `addr` and serves a multi-tenant endpoint: `engine` serves
/// namespace 0 and `spawner(ns)` builds the engine behind every namespace
/// a client creates — the namespace id is passed so deployments can vary
/// universe, factory, or seed per tenant. Threads belong to connections,
/// not tenants: creating a tenant spawns none, and any connection's
/// dispatcher can address any tenant.
pub fn serve_with_spawner<E, S>(
    addr: impl ToSocketAddrs,
    engine: E,
    spawner: S,
) -> std::io::Result<Server>
where
    E: SamplingService + Send + 'static,
    S: Fn(u64) -> E + Send + Sync + 'static,
{
    Server::bind_inner(addr, engine, Some(Box::new(spawner)))
}

impl Server {
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

    /// Initiates shutdown without a client: sets the flag and wakes the
    /// accept loop. Returns immediately; use [`Server::join`] to wait.
    pub fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake a blocking accept; if the listener is already gone the
        // connect fails, which is equally fine.
        let _ = TcpStream::connect(self.addr);
    }

    /// Blocks until the accept loop and every connection's reader and
    /// dispatcher have exited; neither a long pipeline (requests not yet
    /// dispatched are dropped) nor a peer that stops reading can hold it
    /// up. (A `Shutdown` request from a client triggers the same
    /// teardown.)
    pub fn join(self) {
        drop(self);
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

/// Accepts connections until the shutdown flag is set, then shuts every
/// connection's socket down and joins the connections.
fn accept_loop<E>(listener: TcpListener, shared: Arc<Shared<E>>)
where
    E: SamplingService + Send + 'static,
{
    // Each connection's thread, with a handle on its socket for teardown.
    let mut conns: Vec<(JoinHandle<()>, TcpStream)> = Vec::new();
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
                let Ok(socket) = stream.try_clone() else {
                    continue;
                };
                let shared = Arc::clone(&shared);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("pts-server-conn".into())
                    .spawn(move || handle_connection(stream, &shared))
                {
                    conns.push((handle, socket));
                }
            }
            // Transient accept errors (peer reset mid-handshake, fd
            // pressure) should not kill the service.
            Err(_) => continue,
        }
        // Reap finished connections so a long-lived server does not
        // accumulate joinable threads (or their sockets).
        conns.retain(|(handle, _)| !handle.is_finished());
    }
    // A blocked read now sees EOF and a blocked write fails, so every
    // connection winds down without waiting on its peer or on a poll.
    for (_, socket) in &conns {
        let _ = socket.shutdown(Shutdown::Both);
    }
    for (handle, _) in conns {
        let _ = handle.join();
    }
}

/// Serves one connection: runs the read half on this thread and the
/// dispatcher on a scoped one, and returns once both are done — the
/// reader at EOF (teardown's shutdown of the socket included) or after a
/// fatal framing error; the dispatcher once the reader has hung up and
/// the channel is drained.
fn handle_connection<E: SamplingService + Send>(stream: TcpStream, shared: &Shared<E>) {
    let o = obs();
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "<unknown>".into());
    o.conn_opened.inc();
    o.conn_active.add(1);
    event("server.conn.open", peer.clone());
    // On *every* exit path: shut the socket and balance the lifecycle
    // metrics. The accept loop holds a handle on the socket too, so
    // merely dropping ours would leave a connection the server is done
    // with half-open, and its peer would never see EOF.
    struct ConnGuard {
        stream: TcpStream,
        peer: String,
    }
    impl Drop for ConnGuard {
        fn drop(&mut self) {
            let _ = self.stream.shutdown(Shutdown::Both);
            let o = obs();
            o.conn_closed.inc();
            o.conn_active.add(-1);
            event("server.conn.close", std::mem::take(&mut self.peer));
        }
    }
    let conn = ConnGuard { stream, peer };
    // Every blocked mid-frame read or write wakes each IDLE_POLL to
    // re-check its frame deadline.
    let poll = Some(IDLE_POLL);
    if conn.stream.set_read_timeout(poll).is_err() || conn.stream.set_write_timeout(poll).is_err() {
        return;
    }
    std::thread::scope(|scope| read_loop(scope, &conn.stream, shared));
}

/// A connection's read half: frames requests, decodes each payload into
/// its header and body, and sends each job to the dispatcher — until EOF
/// or a fatal framing error. It never writes: an error it detects goes
/// down the channel as a reply, so it keeps its place in the response
/// order. A frame-level or id-level failure is answered under id 0
/// (unattributable); a later decode failure under the request's own id,
/// which by then *was* readable. The dispatcher starts with the first
/// job, so a connection that sends nothing costs one thread. Returning
/// drops the channel's sender, which hangs it up.
fn read_loop<'scope, E: SamplingService + Send>(
    scope: &'scope std::thread::Scope<'scope, '_>,
    stream: &'scope TcpStream,
    shared: &'scope Shared<E>,
) {
    let mut jobs = None;
    loop {
        // Wait for the first byte, then read the rest of the frame under
        // a whole-frame deadline: the socket keeps its short timeout and
        // the body reader re-checks the deadline on every retry, so
        // neither a stalled peer nor one trickling a byte at a time can
        // pin the reader past FRAME_TIMEOUT.
        let Ok(Some(first)) = poll_first_byte(stream) else {
            return; // EOF, teardown, or a socket error
        };
        let body = FrameBodyReader {
            stream,
            deadline: Instant::now() + FRAME_TIMEOUT,
        };
        let mut src = std::io::Cursor::new([first]).chain(body);
        let outcome = read_frame_lenient(KIND_REQUEST, MAX_FRAME_BYTES, &mut src);
        // A fatal error destroyed framing: its reply is the last job.
        let mut fatal = false;
        let job = match outcome {
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
                    (header.id, job)
                }
                // The connection survives. If the id was sound (the
                // namespace, the trace context, or the body failed) the
                // error is answered under it; if the id was unreadable (or
                // the reserved 0), under id 0.
                Err(RequestError { id, error }) => {
                    obs().frame_payload.inc();
                    event("server.frame_error.payload", error.to_string());
                    let reply = error_response(ErrorCode::Malformed, &error);
                    (id.unwrap_or(0), Job::Reply(reply))
                }
            },
            // Frame boundary survived: report under id 0 and continue.
            Err(FrameError::Recoverable(err)) => {
                obs().frame_recoverable.inc();
                event("server.frame_error.recoverable", err.to_string());
                (0, Job::Reply(error_response(ErrorCode::Malformed, &err)))
            }
            // Framing destroyed: report under id 0, then close.
            Err(FrameError::Fatal(err)) => {
                obs().frame_fatal.inc();
                event("server.frame_error.fatal", err.to_string());
                fatal = true;
                (0, Job::Reply(error_response(ErrorCode::Malformed, &err)))
            }
            Err(FrameError::TooLarge(err)) => {
                obs().frame_too_large.inc();
                event("server.frame_error.too_large", err.to_string());
                fatal = true;
                (0, Job::Reply(error_response(ErrorCode::TooLarge, &err)))
            }
        };
        if jobs.is_none() {
            let (sender, queue) = mpsc::sync_channel(MAX_QUEUED_PER_CONN);
            let dispatcher = std::thread::Builder::new()
                .name("pts-server-dispatch".into())
                .spawn_scoped(scope, move || dispatch_loop(queue, stream, shared));
            jobs = dispatcher.is_ok().then_some(sender);
        }
        let Some(queue) = &jobs else {
            return;
        };
        // Blocks at MAX_QUEUED_PER_CONN. The dispatcher consumes until
        // this sender is dropped, so the send only fails if it is gone.
        obs().inflight.add(1);
        if queue.send(job).is_err() {
            obs().inflight.add(-1);
            return;
        }
        if fatal {
            return;
        }
    }
}

/// One unit of connection work, in FIFO position.
enum Job {
    /// A decoded request, addressed to a namespace, to run through
    /// [`dispatch`].
    Dispatch(DispatchJob),
    /// A pre-built response (a frame, id, namespace, trace, or body
    /// decode error) that must keep its place in the response order.
    Reply(Response),
}

/// A decoded request in flight between the reader and the dispatcher: its
/// header (namespace and wire trace context), and the queue-wait stage
/// span opened when the reader sent it (closed when the dispatcher takes
/// it).
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

/// A connection's dispatcher, and the only thread that writes its
/// socket: answers jobs in submission order until the reader hangs up.
/// Once a write fails (the connection is then closed, see [`respond`]) or
/// shutdown is flagged, the jobs still queued are dropped: a long
/// pipeline must not hold up teardown with engine work nobody will read.
fn dispatch_loop<E: SamplingService>(
    queue: mpsc::Receiver<(u64, Job)>,
    stream: &TcpStream,
    shared: &Shared<E>,
) {
    let mut open = true;
    for (id, job) in queue {
        open = open && !shared.shutdown.load(Ordering::SeqCst) && answer(stream, shared, id, job);
        obs().inflight.add(-1);
    }
}

/// Runs one job — a dispatch under `catch_unwind`, whose panic is
/// answered `Internal` under the job's id — and writes its response;
/// `false` if the write failed or the dispatch dropped the request at
/// teardown.
fn answer<E: SamplingService>(stream: &TcpStream, shared: &Shared<E>, id: u64, job: Job) -> bool {
    let (response, wants_shutdown, trace, kind, ns) = match job {
        Job::Dispatch(job) => {
            // The queue-wait stage ends here: the dispatcher owns the job.
            obs().stage_queue_wait.observe_elapsed(job.queued);
            drop(job.queue_span);
            let RequestHeader { ns, trace, .. } = job.header;
            let kind = kind_name(&job.request);
            let request = job.request;
            let dispatched =
                catch_unwind(AssertUnwindSafe(|| dispatch(shared, ns, trace, request)))
                    .unwrap_or_else(|payload| {
                        obs().panics.inc();
                        let what = panic_message(payload.as_ref());
                        event("server.panic", format!("ns={ns} kind={kind}: {what}"));
                        let message = format!("engine panicked: {what}");
                        let error = ServiceError::new(ErrorCode::Internal, message);
                        Some((Response::Error(error), false))
                    });
            let Some((response, wants_shutdown)) = dispatched else {
                return false;
            };
            (response, wants_shutdown, trace, kind, ns)
        }
        Job::Reply(response) => (response, false, None, "error", 0),
    };
    let write_sw = Stopwatch::start();
    let write_span = stage_span(trace, "server.write", kind, ns);
    let write_ok = respond(stream, id, &response).is_ok();
    drop(write_span);
    obs().stage_write.observe_elapsed(write_sw);
    if wants_shutdown {
        shared.shutdown.store(true, Ordering::SeqCst);
        event("server.shutdown", "shutdown request accepted");
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(shared.listen_addr);
    }
    write_ok
}

/// Blocks until one byte arrives (`Ok(Some)`) or the peer closes
/// (`Ok(None)`; teardown's shutdown of the socket reads as a close too).
/// An [`IDLE_POLL`] timeout just retries: no deadline runs before a
/// frame's first byte.
fn poll_first_byte(mut stream: &TcpStream) -> std::io::Result<Option<u8>> {
    let mut byte = [0u8; 1];
    loop {
        match stream.read(&mut byte) {
            Ok(0) => return Ok(None),
            Ok(_) => {
                obs().bytes_in.inc();
                return Ok(Some(byte[0]));
            }
            Err(e) if is_poll_timeout(&e) => continue,
            Err(e) => return Err(e),
        }
    }
}

/// Writes one response frame under `request_id` within a [`FrameWriter`]
/// budget. Only the connection's dispatcher writes, so frames never
/// interleave and no lock is taken; the frame is encoded first and goes
/// out as one `write_all`. A failed write shuts the socket: a frame cut
/// off midway leaves the stream unframeable, and the shutdown wakes the
/// reader.
fn respond(stream: &TcpStream, request_id: u64, response: &Response) -> std::io::Result<()> {
    let mut frame = Vec::new();
    write_response(request_id, response, &mut frame)?;
    let written = FrameWriter {
        stream,
        deadline: Instant::now() + FRAME_TIMEOUT,
    }
    .write_all(&frame);
    if written.is_err() {
        let _ = stream.shutdown(Shutdown::Both);
    }
    written
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
/// and response-write bracket this call in [`answer`]).
/// Returns the response plus whether the server should shut down
/// afterwards, or `None` for a request dropped at teardown.
fn dispatch<E: SamplingService>(
    shared: &Shared<E>,
    ns: u64,
    trace: Option<TraceContext>,
    request: Request,
) -> Option<(Response, bool)> {
    // Time the whole dispatch, lock wait included — that wait is part of
    // what the client experiences.
    let sw = Stopwatch::start();
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
            return Some((Response::ShuttingDown, true));
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
            return Some((response, false));
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
            return Some((response, false));
        }
        Request::ListNamespaces => {
            let _stage = stage_span(trace, "server.engine", kind, ns);
            let response = Response::Namespaces(shared.tenants.list());
            req_obs.ns.observe_elapsed(sw);
            return Some((response, false));
        }
        _ => {}
    }

    // Engine-scoped: resolve the namespace (brief map lock, Arc clone),
    // then dispatch under the tenant's own mutex — other tenants proceed
    // in parallel on other connections' dispatchers. The lock-wait stage
    // covers both waits; the engine-work stage starts once the tenant
    // mutex is held.
    let lock_sw = Stopwatch::start();
    let lock_span = stage_span(trace, "server.lock_wait", kind, ns);
    let Some(tenant) = shared.tenants.get(ns) else {
        drop(lock_span);
        obs().stage_lock_wait.observe_elapsed(lock_sw);
        req_obs.ns.observe_elapsed(sw);
        return Some((unknown_namespace(ns), false));
    };
    let Ok(mut engine) = tenant.lock() else {
        return Some((
            Response::Error(ServiceError::new(
                ErrorCode::Internal,
                "engine lock poisoned",
            )),
            false,
        ));
    };
    // A request that waited out shutdown on the tenant lock is dropped
    // unanswered, like one still queued (PROTOCOL.md §4): teardown must
    // not wait for engine work nobody will read.
    if shared.shutdown.load(Ordering::SeqCst) {
        return None;
    }
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
            // index or an overflowing net value must become an in-band
            // error, not an engine panic, and a rejected batch must not be
            // partially applied.
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
                    match engine.check_values(&batch) {
                        Err(overflow) => Response::Error(ServiceError::new(
                            ErrorCode::ValueOverflow,
                            overflow.to_string(),
                        )),
                        Ok(()) => {
                            engine.ingest_batch(&batch);
                            Response::Ingested {
                                accepted: batch.len() as u64,
                            }
                        }
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
        Request::Stats => Response::Stats(engine.service_stats()),
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
    Some((response, false))
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
        let budget = Duration::from_millis(100);
        let started = Instant::now();
        let mut body = FrameBodyReader {
            stream: &mut trickler,
            deadline: Instant::now() + budget,
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

    /// The response side of the per-frame budget: a peer that takes one
    /// byte per write cannot stretch a frame past its deadline.
    #[test]
    fn response_writes_keep_the_frame_budget() {
        /// Takes up to `per_call` bytes per write, `room` in all, then
        /// blocks like a full socket buffer.
        struct Peer(usize, usize);
        impl Write for Peer {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                std::thread::sleep(Duration::from_millis(1));
                let n = buf.len().min(self.0).min(self.1);
                if n == 0 {
                    return Err(ErrorKind::WouldBlock.into());
                }
                self.1 -= n;
                Ok(n)
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let write = |mut peer: Peer, len: usize, budget: Duration| {
            let started = Instant::now();
            let written = FrameWriter {
                stream: &mut peer,
                deadline: started + budget,
            }
            .write_all(&vec![0; len]);
            (written.map_err(|e| e.kind()), started.elapsed())
        };
        let budget = Duration::from_millis(100);
        let (written, took) = write(Peer(1, usize::MAX), 8 << 10, budget);
        assert_eq!(written, Err(ErrorKind::TimedOut));
        assert!(
            took >= budget && took < Duration::from_secs(5),
            "deadline not honored: took {took:?} for a {budget:?} budget"
        );
    }
}
