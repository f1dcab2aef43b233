//! How the coordinator tells a node's failures apart, against real
//! loopback servers.
//!
//! * `a_panicking_node_answers_internal_and_stays_up`: node 1's engine
//!   panics inside `sample`. The server answers `Internal` in band, so the
//!   error is recoverable and node 1 stays `Up` (no failover).
//! * `a_stalled_node_times_out_and_goes_down`: node 1's engine sleeps 2 s
//!   inside `sample`. The client's response deadline (300 ms) ends the
//!   draw in `Io(TimedOut)`, which is not recoverable, and node 1 is
//!   marked `Down` in about the window.
//! * `an_overflowing_batch_lands_on_the_nodes_it_does_not_overflow`: the
//!   coordinator checks the universe for the whole batch, but each node
//!   checks overflow only on its own slice. A batch that overflows a value
//!   on node 1 still applies node 0's updates.
//!
//! Every draw lands on node 1: only node 1's slice holds mass.

use pts_cluster::{ClusterConfig, ClusterError, Coordinator, NodeHealth};
use pts_engine::{
    EngineConfig, EngineSnapshot, EngineStats, L0Factory, SamplingService, ShardedEngine,
};
use pts_samplers::Sample;
use pts_server::{serve, Client, ClientConfig, ClientError, Pending, Server};
use pts_stream::Update;
use pts_util::protocol::{ErrorCode, DEFAULT_NAMESPACE};
use pts_util::wire::WireError;
use std::io::ErrorKind;
use std::time::{Duration, Instant};

const UNIVERSE: usize = 64;
const WINDOW: Duration = Duration::from_millis(300);
const STALL: Duration = Duration::from_secs(2);

/// What node 1's engine does when asked for a draw.
#[derive(Clone, Copy)]
enum Fault {
    Panic,
    Stall,
}

/// A real engine whose `sample` panics or stalls.
struct Faulty {
    inner: ShardedEngine<L0Factory>,
    fault: Fault,
}

impl SamplingService for Faulty {
    fn universe(&self) -> usize {
        self.inner.universe()
    }
    fn ingest_batch(&mut self, batch: &[Update]) {
        SamplingService::ingest_batch(&mut self.inner, batch);
    }
    fn sample(&mut self) -> Option<Sample> {
        match self.fault {
            Fault::Panic => panic!("injected engine fault"),
            Fault::Stall => std::thread::sleep(STALL),
        }
        SamplingService::sample(&mut self.inner)
    }
    fn snapshot(&self) -> EngineSnapshot {
        SamplingService::snapshot(&self.inner)
    }
    fn stats(&self) -> EngineStats {
        SamplingService::stats(&self.inner)
    }
    fn mass(&self) -> f64 {
        SamplingService::mass(&self.inner)
    }
    fn support(&self) -> usize {
        SamplingService::support(&self.inner)
    }
    fn checkpoint_bytes(&self) -> std::io::Result<Vec<u8>> {
        self.inner.checkpoint_bytes()
    }
    fn restore_bytes(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.inner.restore_bytes(bytes)
    }
}

fn engine(seed: u64) -> ShardedEngine<L0Factory> {
    ShardedEngine::new(
        EngineConfig::new(UNIVERSE)
            .shards(2)
            .pool_size(2)
            .seed(seed),
        L0Factory::default(),
    )
}

/// A 2-node cluster over `servers` with a `WINDOW` response deadline.
fn cluster(servers: &[&Server]) -> Coordinator {
    let mut config = ClusterConfig::new(UNIVERSE).seed(9).client(
        ClientConfig::new()
            .connect_timeout(Duration::from_secs(5))
            .read_timeout(WINDOW)
            .write_timeout(Duration::from_secs(5)),
    );
    for server in servers {
        config = config.node(server.local_addr().to_string());
    }
    Coordinator::connect(config).expect("connect")
}

/// A cluster whose node 1 carries `fault`, with mass only on node 1's
/// slice (indices 32..64), so every pick lands there.
fn cluster_with_faulty_node(fault: Fault) -> (Coordinator, Server, Server) {
    let healthy = serve("127.0.0.1:0", engine(1)).expect("bind node 0");
    let faulty = Faulty {
        inner: engine(2),
        fault,
    };
    let faulty = serve("127.0.0.1:0", faulty).expect("bind node 1");
    let mut cluster = cluster(&[&healthy, &faulty]);
    assert_eq!(cluster.slice_range(1), (32, 64));
    let batch: Vec<Update> = [(40u64, 3i64), (50, -2)]
        .iter()
        .map(|&(i, v)| Update::new(i, v))
        .collect();
    cluster.ingest_batch(&batch).expect("ingest");
    (cluster, healthy, faulty)
}

#[test]
fn a_panicking_node_answers_internal_and_stays_up() {
    let (mut cluster, _healthy, _faulty) = cluster_with_faulty_node(Fault::Panic);
    let err = cluster.sample().expect_err("node 1's engine panics");
    match &err {
        ClusterError::Node {
            node: 1,
            source: ClientError::Server(e),
            ..
        } => assert_eq!(e.code, ErrorCode::Internal, "{err}"),
        other => panic!("expected node 1's in-band Internal, got {other:?}"),
    }
    assert!(err.is_recoverable(), "{err}");
    assert_eq!(cluster.node_health(1), NodeHealth::Up);
}

#[test]
fn a_stalled_node_times_out_and_goes_down() {
    let (mut cluster, _healthy, _faulty) = cluster_with_faulty_node(Fault::Stall);
    let asked = Instant::now();
    let err = cluster.sample().expect_err("node 1's engine stalls");
    let elapsed = asked.elapsed();
    match &err {
        ClusterError::Node {
            node: 1,
            source: ClientError::Io(e),
            ..
        } => assert_eq!(e.kind(), ErrorKind::TimedOut, "{err}"),
        other => panic!("expected node 1's Io(TimedOut), got {other:?}"),
    }
    assert!(!err.is_recoverable(), "{err}");
    assert_eq!(cluster.node_health(1), NodeHealth::Down);
    assert!(
        elapsed >= WINDOW && elapsed <= WINDOW + Duration::from_secs(1),
        "node 1 went down after {elapsed:?}"
    );
}

/// Node `server`'s default-namespace entries, read over its own
/// connection.
fn entries(server: &Server) -> Vec<(u64, i64)> {
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let snapshot = client
        .submit_snapshot_ns(DEFAULT_NAMESPACE)
        .and_then(Pending::wait)
        .expect("snapshot");
    snapshot.entries().to_vec()
}

#[test]
fn an_overflowing_batch_lands_on_the_nodes_it_does_not_overflow() {
    let node0 = serve("127.0.0.1:0", engine(1)).expect("bind node 0");
    let node1 = serve("127.0.0.1:0", engine(2)).expect("bind node 1");
    let mut cluster = cluster(&[&node0, &node1]);
    cluster
        .ingest_batch(&[Update::new(40, i64::MAX - 1)])
        .expect("ingest");
    let batch = [Update::new(3, 5), Update::new(40, 5)];
    let err = cluster
        .ingest_batch(&batch)
        .expect_err("index 40 overflows");
    match &err {
        ClusterError::Node {
            node: 1,
            source: ClientError::Server(e),
            ..
        } => assert_eq!(e.code, ErrorCode::ValueOverflow, "{err}"),
        other => panic!("expected node 1's in-band ValueOverflow, got {other:?}"),
    }
    assert!(err.is_recoverable(), "{err}");
    assert_eq!(entries(&node0), [(3, 5)], "node 0 applies its slice");
    assert_eq!(entries(&node1), [(40, i64::MAX - 1)], "node 1 is unchanged");
    assert_eq!(cluster.node_health(0), NodeHealth::Up);
    assert_eq!(cluster.node_health(1), NodeHealth::Up);
}
