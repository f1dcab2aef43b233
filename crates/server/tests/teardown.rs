//! Teardown does not wait out a tenant's lock queue.
//!
//! Eight raw peers each send one `Snapshot` to the same tenant, whose
//! `snapshot` takes 300 ms. The first holds the tenant's engine mutex; the
//! other seven dispatchers wait on it. `Server::join` must then return
//! after the running call, not after all eight: a dispatcher that gets the
//! lock after shutdown was flagged drops its request unanswered
//! (PROTOCOL.md §4). The join runs on a helper thread and is awaited with
//! a timeout, so a regression fails instead of hanging.

use pts_engine::{
    EngineConfig, EngineSnapshot, EngineStats, L0Factory, SamplingService, ShardedEngine,
};
use pts_samplers::Sample;
use pts_server::serve;
use pts_stream::Update;
use pts_util::protocol::{write_request, Request, RequestHeader, DEFAULT_NAMESPACE};
use pts_util::wire::WireError;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const QUEUED: usize = 8;
const SLOW: Duration = Duration::from_millis(300);

/// A real engine whose `snapshot` takes [`SLOW`], counting its calls.
struct Slow {
    inner: ShardedEngine<L0Factory>,
    snapshots: Arc<AtomicUsize>,
}

impl SamplingService for Slow {
    fn universe(&self) -> usize {
        self.inner.universe()
    }
    fn ingest_batch(&mut self, batch: &[Update]) {
        SamplingService::ingest_batch(&mut self.inner, batch);
    }
    fn sample(&mut self) -> Option<Sample> {
        SamplingService::sample(&mut self.inner)
    }
    fn snapshot(&self) -> EngineSnapshot {
        self.snapshots.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(SLOW);
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

#[test]
fn join_drops_requests_waiting_on_a_tenant_lock() {
    let snapshots = Arc::new(AtomicUsize::new(0));
    let engine = Slow {
        inner: ShardedEngine::new(
            EngineConfig::new(64).shards(2).pool_size(1).seed(3),
            L0Factory::default(),
        ),
        snapshots: Arc::clone(&snapshots),
    };
    let server = serve("127.0.0.1:0", engine).unwrap();
    let mut request = Vec::new();
    let header = RequestHeader {
        id: 1,
        ns: DEFAULT_NAMESPACE,
        trace: None,
    };
    write_request(&header, &Request::Snapshot, &mut request).unwrap();
    let peers: Vec<TcpStream> = (0..QUEUED)
        .map(|_| {
            let mut peer = TcpStream::connect(server.local_addr()).unwrap();
            peer.write_all(&request).unwrap();
            peer
        })
        .collect();

    // Wait for the first snapshot to start, then give the other
    // dispatchers time to queue on the tenant's mutex behind it.
    let started = Instant::now();
    while snapshots.load(Ordering::SeqCst) == 0 {
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "no snapshot ran"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    std::thread::sleep(SLOW / 3);

    let (joined_tx, joined_rx) = mpsc::channel();
    let joining = Instant::now();
    let joiner = std::thread::spawn(move || {
        server.join();
        let _ = joined_tx.send(joining.elapsed());
    });
    let joined_in = joined_rx.recv_timeout(SLOW * QUEUED as u32 * 2);
    drop(peers);
    joiner.join().unwrap();

    let bound = SLOW * QUEUED as u32 / 2;
    let ran = snapshots.load(Ordering::SeqCst);
    match joined_in {
        Ok(took) => assert!(
            took < bound,
            "Server::join took {took:?} (bound {bound:?}); {ran} of {QUEUED} snapshots ran"
        ),
        Err(_) => panic!("Server::join did not return; {ran} of {QUEUED} snapshots ran"),
    }
}
