//! The scrape endpoint: a tiny side TCP listener serving the global
//! registry in Prometheus text exposition format.
//!
//! Design rule: **never parse, always answer**. A Prometheus scraper
//! sends `GET /metrics HTTP/1.1`, but an adversary (or a port scanner,
//! or `nc` piping `/dev/urandom`) may send anything — so the handler does
//! not interpret the request at all. It drains bytes until it sees the
//! end of an HTTP header block (blank line), hits EOF, hits a hard
//! deadline, or hits a size cap — then writes one fixed, well-formed
//! `HTTP/1.0 200` response with the current exposition and closes. Every
//! outcome (including a deadline or cap trip) gets the same valid
//! response; nothing the peer sends can change the response grammar,
//! allocate unboundedly, or pin the handler thread past the deadline.
//!
//! The listener/handler machinery is [`TextServer`], shared with the
//! traces endpoint ([`crate::TraceServer`]) — one render-a-string
//! contract, two expositions.

use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::registry;

/// Limits for one scrape connection. Defaults are generous for a real
/// scraper and stingy for an adversary.
#[derive(Debug, Clone, Copy)]
pub struct MetricsServerConfig {
    /// Hard wall-clock deadline for draining the request before the
    /// response is written regardless (default 2 s). A slow-trickle
    /// client gets its exposition early; it cannot pin the thread.
    pub read_deadline: Duration,
    /// Request bytes drained before giving up and answering anyway
    /// (default 8 KiB). An oversized request is truncated, not buffered.
    pub max_request_bytes: usize,
}

impl Default for MetricsServerConfig {
    fn default() -> Self {
        MetricsServerConfig {
            read_deadline: Duration::from_secs(2),
            max_request_bytes: 8 * 1024,
        }
    }
}

/// The shared drain-then-answer listener: accepts connections, drains
/// each request without interpreting it, and answers with whatever the
/// render callback produces at that moment. [`MetricsServer`] and
/// [`crate::TraceServer`] are this with different callbacks.
#[derive(Debug)]
pub(crate) struct TextServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
}

impl TextServer {
    pub(crate) fn bind_with<A: ToSocketAddrs, F>(
        addr: A,
        config: MetricsServerConfig,
        render: F,
    ) -> std::io::Result<TextServer>
    where
        F: Fn() -> String + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let render: Arc<dyn Fn() -> String + Send + Sync> = Arc::new(render);
        let accept = std::thread::Builder::new()
            .name("pts-obs-scrape".into())
            .spawn(move || accept_loop(listener, flag, config, render))?;
        Ok(TextServer {
            addr,
            shutdown,
            accept: Some(accept),
        })
    }

    pub(crate) fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    pub(crate) fn shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
    }

    pub(crate) fn join(mut self) {
        self.shutdown();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TextServer {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(handle) = self.accept.take() {
            let _ = handle.join();
        }
    }
}

/// A running scrape endpoint. Dropping it (or calling
/// [`MetricsServer::join`]) shuts the listener down and joins every
/// handler thread — same teardown discipline as `pts-server`.
#[derive(Debug)]
pub struct MetricsServer {
    inner: TextServer,
}

impl MetricsServer {
    /// Binds a scrape endpoint with default limits. Use port 0 for an
    /// ephemeral port; read it back with [`MetricsServer::local_addr`].
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<MetricsServer> {
        Self::bind_with(addr, MetricsServerConfig::default())
    }

    /// Binds a scrape endpoint with explicit limits.
    pub fn bind_with<A: ToSocketAddrs>(
        addr: A,
        config: MetricsServerConfig,
    ) -> std::io::Result<MetricsServer> {
        Ok(MetricsServer {
            inner: TextServer::bind_with(addr, config, || {
                let obs = scrape_obs();
                obs.scrapes.inc();
                let body = registry().render_prometheus();
                obs.bytes_out.add(body.len() as u64);
                body
            })?,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr()
    }

    /// Flags shutdown and wakes the blocking accept. Returns
    /// immediately; use [`MetricsServer::join`] to wait.
    pub fn shutdown(&self) {
        self.inner.shutdown();
    }

    /// Blocks until the accept loop and every handler have exited.
    pub fn join(self) {
        self.inner.join();
    }
}

fn accept_loop(
    listener: TcpListener,
    shutdown: Arc<AtomicBool>,
    config: MetricsServerConfig,
    render: Arc<dyn Fn() -> String + Send + Sync>,
) {
    let mut handlers: Vec<JoinHandle<()>> = Vec::new();
    loop {
        let conn = listener.accept();
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok((stream, _peer)) => {
                let render = Arc::clone(&render);
                if let Ok(handle) = std::thread::Builder::new()
                    .name("pts-obs-conn".into())
                    .spawn(move || serve_text(stream, config, &*render))
                {
                    handlers.push(handle);
                }
            }
            Err(_) => continue,
        }
        handlers.retain(|h| !h.is_finished());
    }
    for handle in handlers {
        let _ = handle.join();
    }
}

/// Serves one connection (see the module docs for the contract): drain
/// without parsing, then answer with one fixed `HTTP/1.0 200` carrying
/// the rendered exposition.
fn serve_text(mut stream: TcpStream, config: MetricsServerConfig, render: &dyn Fn() -> String) {
    drain_request(&mut stream, config);
    let body = render();
    let header = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream
        .write_all(header.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .and_then(|()| stream.flush());
    let _ = stream.shutdown(Shutdown::Both);
}

/// Drains the request until a blank line ends an HTTP header block, EOF,
/// the deadline, or the byte cap — whichever comes first. The blank line
/// is looked for after every byte, so bytes that follow it in the same
/// read (a pipelined request, a stray body) cannot hide it. Errors are
/// treated like EOF: the caller answers regardless.
fn drain_request(stream: &mut TcpStream, config: MetricsServerConfig) {
    // Short poll timeout so the hard deadline is honored even against a
    // peer that trickles one byte per second forever.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let start = Instant::now();
    let mut seen = 0usize;
    let mut tail = [0u8; 4]; // last 4 bytes seen, for \r\n\r\n / \n\n
    let mut buf = [0u8; 512];
    while start.elapsed() < config.read_deadline && seen < config.max_request_bytes {
        match stream.read(&mut buf) {
            Ok(0) => break, // EOF
            Ok(n) => {
                seen += n;
                for &b in &buf[..n] {
                    tail.rotate_left(1);
                    tail[3] = b;
                    if &tail == b"\r\n\r\n" || &tail[2..] == b"\n\n" {
                        return; // end of an HTTP header block
                    }
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue
            }
            Err(_) => break,
        }
    }
}

/// Self-instrumentation handles.
struct ScrapeObs {
    scrapes: crate::Counter,
    bytes_out: crate::Counter,
}

fn scrape_obs() -> &'static ScrapeObs {
    static OBS: std::sync::OnceLock<ScrapeObs> = std::sync::OnceLock::new();
    OBS.get_or_init(|| ScrapeObs {
        scrapes: registry().counter("obs.scrapes"),
        bytes_out: registry().counter("obs.scrape.bytes_out"),
    })
}
