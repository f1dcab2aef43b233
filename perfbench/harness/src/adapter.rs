//! The one place the benchmark calls into the client and the
//! coordinator. Every request the generators send goes through here, so
//! a change to the client's submit API edits this file only.
//!
//! In a traced run each call is wrapped in a benchmark-side span; spans
//! live in a per-thread [`Recorder`] and are written out when the run
//! ends.

use pts_cluster::{ClusterConfig, ClusterError, ClusterStats, Coordinator};
use pts_samplers::Sample;
use pts_server::{Client, ClientConfig, ClientError, Pending};
use pts_stream::Update;
use pts_util::protocol::ServiceStats;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One recorded span: `req` ties the submit and wait spans of one
/// request together.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    pub name: &'static str,
    pub req: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Per-thread span sink. A disabled recorder records nothing.
#[derive(Debug)]
pub struct Recorder {
    on: bool,
    origin: Instant,
    next_req: u64,
    pub spans: Vec<SpanRec>,
}

impl Recorder {
    pub fn new(on: bool, origin: Instant) -> Self {
        Self {
            on,
            origin,
            next_req: 0,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn req_id(&mut self) -> u64 {
        self.next_req += 1;
        self.next_req
    }

    fn record(&mut self, name: &'static str, req: u64, start: Instant) {
        if self.on {
            self.spans.push(SpanRec {
                name,
                req,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                dur_ns: start.elapsed().as_nanos() as u64,
            });
        }
    }

    /// Mean duration in µs of the spans named `name` (0 when none).
    pub fn mean_us(&self, name: &str) -> f64 {
        let (n, sum) = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0u64, 0u64), |(n, sum), s| (n + 1, sum + s.dur_ns));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64 / 1e3
        }
    }
}

/// Client deadlines: a stalled server becomes an error, never a hang.
fn client_config(depth: usize, trace_every: u64) -> ClientConfig {
    ClientConfig::new()
        .connect_timeout(Duration::from_secs(5))
        .read_timeout(Duration::from_secs(30))
        .write_timeout(Duration::from_secs(30))
        .max_in_flight(depth)
        .trace_sampling(trace_every)
}

/// One submitted request; [`Req::wait`] resolves it.
pub struct Req<T> {
    pending: Pending<T>,
    req: u64,
}

impl<T> Req<T> {
    pub fn wait(self, rec: &mut Recorder) -> Result<T, ClientError> {
        let t0 = Instant::now();
        let out = self.pending.wait();
        rec.record("client.wait", self.req, t0);
        out
    }
}

/// One multiplexed connection to a served engine.
pub struct Conn {
    client: Client,
}

impl Conn {
    /// Connects with a pipelining window of `depth`; `trace_every > 0`
    /// also samples 1 in `trace_every` requests into wire traces.
    pub fn connect(addr: SocketAddr, depth: usize, trace_every: u64) -> std::io::Result<Self> {
        Ok(Self {
            client: Client::connect_with(addr, &client_config(depth, trace_every))?,
        })
    }

    fn submit<T>(
        &mut self,
        rec: &mut Recorder,
        f: impl FnOnce(&mut Client) -> Result<Pending<T>, ClientError>,
    ) -> Result<Req<T>, ClientError> {
        let req = rec.req_id();
        let t0 = Instant::now();
        let pending = f(&mut self.client)?;
        rec.record("client.submit", req, t0);
        Ok(Req { pending, req })
    }

    pub fn ingest(
        &mut self,
        rec: &mut Recorder,
        ns: u64,
        batch: &[Update],
    ) -> Result<Req<u64>, ClientError> {
        self.submit(rec, |c| c.submit_ingest_batch_ns(ns, batch))
    }

    pub fn sample(
        &mut self,
        rec: &mut Recorder,
        ns: u64,
    ) -> Result<Req<Vec<Option<Sample>>>, ClientError> {
        self.submit(rec, |c| c.submit_sample_many_ns(ns, 1))
    }

    pub fn stats(&mut self, rec: &mut Recorder, ns: u64) -> Result<Req<ServiceStats>, ClientError> {
        self.submit(rec, |c| c.submit_stats_ns(ns))
    }

    pub fn checkpoint(&mut self, rec: &mut Recorder, ns: u64) -> Result<Req<Vec<u8>>, ClientError> {
        self.submit(rec, |c| c.submit_checkpoint_ns(ns))
    }

    pub fn create_namespace(
        &mut self,
        rec: &mut Recorder,
        ns: u64,
    ) -> Result<Req<()>, ClientError> {
        self.submit(rec, |c| c.submit_create_namespace(ns))
    }
}

/// A coordinator over loopback nodes.
pub struct Cluster {
    coord: Coordinator,
}

impl Cluster {
    pub fn connect(universe: usize, nodes: &[SocketAddr], seed: u64) -> Result<Self, ClusterError> {
        let mut config = ClusterConfig::new(universe)
            .seed(seed)
            .client(client_config(16, 0));
        for addr in nodes {
            config = config.node(addr.to_string());
        }
        Ok(Self {
            coord: Coordinator::connect(config)?,
        })
    }

    pub fn ingest(&mut self, rec: &mut Recorder, batch: &[Update]) -> Result<u64, ClusterError> {
        let req = rec.req_id();
        let t0 = Instant::now();
        let out = self.coord.ingest_batch(batch);
        rec.record("cluster.ingest", req, t0);
        out
    }

    pub fn sample(&mut self, rec: &mut Recorder) -> Result<Option<Sample>, ClusterError> {
        let req = rec.req_id();
        let t0 = Instant::now();
        let out = self.coord.sample();
        rec.record("cluster.sample", req, t0);
        out
    }

    /// One mass scatter over every node.
    pub fn mass(&mut self, rec: &mut Recorder) -> Result<f64, ClusterError> {
        let req = rec.req_id();
        let t0 = Instant::now();
        let out = self.coord.mass();
        rec.record("cluster.scatter", req, t0);
        out
    }

    pub fn stats(&mut self) -> ClusterStats {
        self.coord.stats()
    }
}
