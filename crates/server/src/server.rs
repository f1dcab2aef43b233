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
//! closes once a response frame has waited `FRAME_TIMEOUT`. The reader is
//! one `BufReader` over the socket: idle, it blocks in one read with no
//! timeout and never wakes; once a frame's first bytes are buffered, each
//! read the frame still needs waits at most its time left.
//!
//! Tenancy model (wire v4): the engines live in a `TenantMap` — one
//! locked map from namespace id to a tenant's engine mutex. A dispatcher
//! holds the map's lock only long enough to clone the tenant's Arc, then
//! dispatches under that tenant's own mutex, so requests to *different*
//! tenants proceed in parallel while requests to the *same* tenant
//! serialize — per-tenant, every response reflects all previously
//! answered requests, across connections. A `Sample` takes the mutex once
//! per draw, so no request holds a tenant for longer than one draw.
//! Tenants are cheap lazily-created engines with **no per-tenant
//! threads**, which is what makes millions of namespaces per node viable
//! (the paper's samplers are tiny). Namespace 0 is the default tenant,
//! created at bind from the engine passed in; `CreateNamespace` builds
//! additional tenants through the spawner given to [`serve_with_spawner`].
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
//! the flag. Dispatchers drop what is still queued, and a request drops
//! what is left of it the next time it holds its tenant's mutex.
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
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The whole-frame deadline, in both directions: once a request's first
/// bytes are buffered the rest must follow, and once a response's write
/// has begun the peer must take all of it, within this window. A peer
/// that stalls — or trickles bytes to keep individual reads and writes
/// alive — is treated as gone when it passes (fatal; the connection
/// closes) rather than pinning a thread. The deadline is fixed when the
/// frame starts and every socket wait the frame still needs is bounded by
/// the time left ([`FrameReader`], [`FrameWriter`]), so nothing a peer
/// sends extends it.
const FRAME_TIMEOUT: Duration = Duration::from_secs(10);

/// Per-connection cap on decoded-but-unanswered jobs: the capacity of the
/// reader → dispatcher channel. The reader blocks at the cap (TCP
/// backpressure does the rest), so a client pipelining faster than the
/// engine drains cannot grow server memory without bound.
const MAX_QUEUED_PER_CONN: usize = 1024;

/// A connection's socket as its reader sees it, under the deadline of the
/// frame being read. Between frames (`deadline` is `None`) a read blocks
/// with no timeout, so an idle connection never wakes; teardown's
/// shutdown of the socket ends that read as EOF. Within a frame, a read
/// first checks the deadline and then waits at most the time left, as
/// the socket's read timeout: set only when a frame needs another read,
/// and cleared before the next idle one. Behind a `BufReader`, a frame
/// that has arrived whole costs no read of its own and no timeout call.
struct FrameReader<'a> {
    stream: &'a TcpStream,
    deadline: Option<Instant>,
    /// Whether the socket still carries a frame's read timeout.
    timed: bool,
}

impl Read for FrameReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let wait = self.deadline.map(time_left).transpose()?;
        if wait.is_some() || self.timed {
            self.stream.set_read_timeout(wait)?;
            self.timed = wait.is_some();
        }
        let mut stream = self.stream;
        let n = stream.read(buf).map_err(judge_wait)?;
        obs().bytes_in.add(n as u64);
        Ok(n)
    }
}

/// The write side of the per-frame budget, for one response frame. Its
/// first write is bounded by the connection's write timeout, which is the
/// whole budget; each later one (the rest of a partial write) by the time
/// left, so a peer taking a few bytes at a time cannot extend the budget.
struct FrameWriter<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    /// Writes so far; after the first, the socket's write timeout is the
    /// frame's time left.
    writes: usize,
}

impl Write for FrameWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.writes > 0 {
            self.stream
                .set_write_timeout(Some(time_left(self.deadline)?))?;
        }
        self.writes += 1;
        let mut stream = self.stream;
        let n = stream.write(buf).map_err(judge_wait)?;
        obs().bytes_out.add(n as u64);
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// The time left before a frame's `deadline`, or the frame's timeout once
/// it has passed.
fn time_left(deadline: Instant) -> std::io::Result<Duration> {
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(frame_timeout());
    }
    Ok(left)
}

/// Judges a socket wait that failed. Only a frame's waits carry a
/// timeout, and it is the frame's time left, so a wait that ran out is
/// the frame's timeout; any other error stands.
fn judge_wait(e: std::io::Error) -> std::io::Error {
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => frame_timeout(),
        _ => e,
    }
}

/// The error that ends a frame whose deadline has passed (fatal; the
/// connection closes).
fn frame_timeout() -> std::io::Error {
    obs().conn_timeouts.inc();
    event("server.conn.frame_timeout", "whole-frame deadline exceeded");
    std::io::Error::new(ErrorKind::TimedOut, "frame deadline exceeded")
}

/// One tenant's engine, behind a lock taken in turns. `std`'s mutex is not
/// fair: a dispatcher that re-takes it between the draws of one request
/// wins against the waiter it has just woken, every time. So each taker
/// holds `turn` while it waits for `engine`: at most one thread waits on
/// `engine` itself, and one that comes back for its next draw queues at
/// `turn` behind it.
struct Tenant<E> {
    turn: Mutex<()>,
    engine: Mutex<E>,
}

impl<E> Tenant<E> {
    /// Takes the engine lock for one step of a request. `Err(Some(_))`
    /// answers a poisoned lock; `Err(None)` drops a request that outlived
    /// shutdown unanswered (PROTOCOL.md §4): nobody will read its answer.
    fn hold(&self, shutdown: &AtomicBool) -> Result<MutexGuard<'_, E>, Option<Response>> {
        let turn = self.turn.lock();
        let poisoned = |_| Some(error_response(ErrorCode::Internal, "engine lock poisoned"));
        let engine = self.engine.lock().map_err(poisoned)?;
        drop(turn);
        if shutdown.load(Ordering::SeqCst) {
            return Err(None);
        }
        Ok(engine)
    }
}

/// The namespace → engine map (wire v4), under one lock. Tenants are held
/// behind `Arc` so a dispatcher can clone a tenant's handle
/// under the brief map lock and then dispatch without blocking any other
/// tenant — including a concurrent `DropNamespace`, which merely removes
/// the map entry (in-flight requests on the dropped tenant finish
/// against the orphaned Arc; subsequent lookups answer
/// `unknown-namespace`).
struct TenantMap<E> {
    tenants: Mutex<HashMap<u64, Arc<Tenant<E>>>>,
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
    fn get(&self, ns: u64) -> Option<Arc<Tenant<E>>> {
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
        let turn = Mutex::new(());
        let engine = Mutex::new(engine);
        tenants.insert(ns, Arc::new(Tenant { turn, engine }));
        obs().tenants_active.set(tenants.len() as i64);
        true
    }

    /// Removes a tenant, handing the map's reference to its engine to the
    /// caller (so the engine is not dropped under the map lock).
    fn remove(&self, ns: u64) -> Option<Arc<Tenant<E>>> {
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
    // A response frame's first write may take the whole budget.
    if conn.stream.set_write_timeout(Some(FRAME_TIMEOUT)).is_err() {
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
    let mut src = BufReader::new(FrameReader {
        stream,
        deadline: None,
        timed: false,
    });
    loop {
        // Idle until a frame's first bytes are buffered; from then on the
        // frame runs against its deadline.
        src.get_mut().deadline = None;
        let Ok([_, ..]) = src.fill_buf() else {
            return; // EOF, teardown, or a socket error
        };
        src.get_mut().deadline = Some(Instant::now() + FRAME_TIMEOUT);
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

/// Writes one response frame under `request_id` within a [`FrameWriter`]
/// budget. Only the connection's dispatcher writes, so frames never
/// interleave and no lock is taken; the frame is encoded first and goes
/// out as one `write_all`. A failed write shuts the socket: a frame cut
/// off midway leaves the stream unframeable, and the shutdown wakes the
/// reader.
fn respond(stream: &TcpStream, request_id: u64, response: &Response) -> std::io::Result<()> {
    let mut frame = Vec::new();
    write_response(request_id, response, &mut frame)?;
    let mut writer = FrameWriter {
        stream,
        deadline: Instant::now() + FRAME_TIMEOUT,
        writes: 0,
    };
    let mut written = writer.write_all(&frame);
    if written.is_ok() && writer.writes > 1 {
        // The next frame's first write gets the whole budget again.
        written = stream.set_write_timeout(Some(FRAME_TIMEOUT));
    }
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

/// An error response carrying `message`'s rendering.
fn error_response(code: ErrorCode, message: impl std::fmt::Display) -> Response {
    Response::Error(ServiceError::new(code, message.to_string()))
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
    if let Request::Shutdown
    | Request::CreateNamespace
    | Request::DropNamespace
    | Request::ListNamespaces = request
    {
        let _stage = stage_span(trace, "server.engine", kind, ns);
        let response = match request {
            Request::Shutdown => Response::ShuttingDown,
            Request::CreateNamespace => match &shared.spawner {
                _ if ns == DEFAULT_NAMESPACE => error_response(
                    ErrorCode::Unsupported,
                    "namespace 0 is the default tenant and always exists",
                ),
                None => error_response(
                    ErrorCode::Unsupported,
                    "this server hosts a fixed tenant set (no spawner)",
                ),
                Some(spawn) if shared.tenants.insert(ns, spawn(ns)) => {
                    event("server.tenant.create", ns.to_string());
                    Response::NamespaceCreated
                }
                Some(_) => error_response(
                    ErrorCode::Unsupported,
                    format!("namespace {ns} already exists"),
                ),
            },
            Request::DropNamespace if ns == DEFAULT_NAMESPACE => error_response(
                ErrorCode::Unsupported,
                "namespace 0 is the default tenant and cannot be dropped",
            ),
            Request::DropNamespace if shared.tenants.remove(ns).is_some() => {
                event("server.tenant.drop", ns.to_string());
                Response::NamespaceDropped
            }
            Request::DropNamespace => unknown_namespace(ns),
            _ => Response::Namespaces(shared.tenants.list()),
        };
        req_obs.ns.observe_elapsed(sw);
        let shutdown = matches!(response, Response::ShuttingDown);
        return Some((response, shutdown));
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
    let mut engine = match tenant.hold(&shared.shutdown) {
        Ok(engine) => engine,
        Err(dropped) => return dropped.map(|response| (response, false)),
    };
    drop(lock_span);
    obs().stage_lock_wait.observe_elapsed(lock_sw);
    let engine_sw = Stopwatch::start();
    let engine_span = stage_span(trace, "server.engine", kind, ns);
    let response = match request {
        // Unreachable through the wire (the decoder rejects an empty
        // batch), but the dispatcher is also reachable by in-process
        // callers: keep the no-silent-no-op rule at both layers.
        Request::IngestBatch(pairs) if pairs.is_empty() => {
            error_response(ErrorCode::Malformed, "empty ingest batch")
        }
        Request::IngestBatch(pairs) => {
            // Validate before touching the engine: an out-of-universe
            // index or an overflowing net value must become an in-band
            // error, not an engine panic, and a rejected batch must not be
            // partially applied.
            let universe = engine.universe() as u64;
            match pairs.iter().find(|&&(index, _)| index >= universe) {
                Some(&(index, _)) => error_response(
                    ErrorCode::OutOfUniverse,
                    format!("index {index} outside universe [0, {universe})"),
                ),
                None => {
                    let batch: Vec<Update> = pairs
                        .iter()
                        .map(|&(index, delta)| Update::new(index, delta))
                        .collect();
                    match engine.check_values(&batch) {
                        Err(overflow) => error_response(ErrorCode::ValueOverflow, overflow),
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
        // One draw per hold of the tenant lock, re-taken within the engine
        // stage: other requests may land between draws, each draw sees the
        // state at its own time, and teardown drops the rest (PROTOCOL.md §4).
        Request::Sample { count } => {
            drop(engine);
            let mut draws = Vec::with_capacity(count as usize);
            for _ in 0..count {
                match tenant.hold(&shared.shutdown) {
                    Ok(mut engine) => draws.push(engine.sample().map(|s| (s.index, s.estimate))),
                    Err(dropped) => return dropped.map(|response| (response, false)),
                }
            }
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
        | Request::ListNamespaces => error_response(
            ErrorCode::Internal,
            "server-scoped request reached the engine dispatcher",
        ),
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
    error_response(
        ErrorCode::UnknownNamespace,
        format!("namespace {ns} does not exist on this server"),
    )
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

    const BUDGET: Duration = Duration::from_millis(100);

    /// A connected loopback pair: the server's end, then the peer's.
    fn socket_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        (listener.accept().unwrap().0, peer)
    }

    /// Reads one request frame off `socket` under a [`BUDGET`]-long frame
    /// deadline, as the connection reader does; returns the outcome and
    /// the time it took.
    fn read_one_frame(socket: &TcpStream) -> (Result<Vec<u8>, FrameError>, Duration) {
        let started = Instant::now();
        let mut src = BufReader::new(FrameReader {
            stream: socket,
            deadline: Some(started + BUDGET),
            timed: false,
        });
        let outcome = read_frame_lenient(KIND_REQUEST, MAX_FRAME_BYTES, &mut src);
        (outcome, started.elapsed())
    }

    /// magic | version | kind | a varint length of 1 MiB.
    fn frame_head() -> Vec<u8> {
        let mut head = pts_util::wire::WIRE_MAGIC.to_vec();
        head.extend_from_slice(&[pts_util::wire::WIRE_VERSION, KIND_REQUEST, 0x80, 0x80, 0x40]);
        head
    }

    /// A frame that misses its deadline dies fatally, at the deadline:
    /// not before it, and far before the 10 s `FRAME_TIMEOUT` (generous
    /// upper bound for slow CI).
    fn assert_cut_off_at_budget(outcome: Result<Vec<u8>, FrameError>, took: Duration) {
        assert!(
            matches!(outcome, Err(FrameError::Fatal(_))),
            "the frame must die fatally, got {outcome:?}"
        );
        assert!(
            took >= BUDGET && took < Duration::from_secs(5),
            "deadline not honored: took {took:?} for a {BUDGET:?} budget"
        );
    }

    /// A peer that sends a frame head and then a payload byte every
    /// millisecond must not extend the whole-frame budget: every read
    /// "succeeds", so only a deadline fixed at frame start cuts it off.
    #[test]
    fn frame_deadline_is_a_per_frame_budget_against_byte_tricklers() {
        let (ours, mut peer) = socket_pair();
        let trickler = std::thread::spawn(move || {
            peer.write_all(&frame_head()).unwrap();
            let started = Instant::now();
            // Ends once the reader hangs up (or after 5 s).
            while started.elapsed() < Duration::from_secs(5) && peer.write_all(&[0x5A]).is_ok() {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let (outcome, took) = read_one_frame(&ours);
        drop(ours);
        trickler.join().unwrap();
        assert_cut_off_at_budget(outcome, took);
    }

    /// A peer that sends 7 bytes of a frame's header (magic, version,
    /// kind and the first byte of its length) and then goes silent: the
    /// socket's read timeout, set to the frame's time left, ends the wait.
    #[test]
    fn a_header_that_stops_midway_times_out() {
        let (ours, mut peer) = socket_pair();
        peer.write_all(&frame_head()[..7]).unwrap();
        let (outcome, took) = read_one_frame(&ours);
        assert_cut_off_at_budget(outcome, took);
    }

    /// The response side of the per-frame budget: a peer that takes one
    /// byte at a time cannot stretch a frame past its deadline.
    #[test]
    fn response_writes_keep_the_frame_budget() {
        let (ours, mut peer) = socket_pair();
        let (hang_up, hung_up) = mpsc::channel::<()>();
        let taking = std::thread::spawn(move || {
            let mut byte = [0u8; 1];
            // Ends once the writer hangs up.
            while matches!(hung_up.try_recv(), Err(mpsc::TryRecvError::Empty))
                && matches!(peer.read(&mut byte), Ok(1))
            {
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        // The connection's write timeout is the whole budget, as
        // `handle_connection` sets it; the frame outgrows the socket
        // buffers of both ends.
        ours.set_write_timeout(Some(BUDGET)).unwrap();
        let started = Instant::now();
        let written = FrameWriter {
            stream: &ours,
            deadline: started + BUDGET,
            writes: 0,
        }
        .write_all(&vec![0; 16 << 20]);
        let took = started.elapsed();
        drop((hang_up, ours));
        taking.join().unwrap();
        assert_eq!(written.map_err(|e| e.kind()), Err(ErrorKind::TimedOut));
        assert!(
            took >= BUDGET && took < Duration::from_secs(5),
            "deadline not honored: took {took:?} for a {BUDGET:?} budget"
        );
    }
}
