//! No request holds a tenant for longer than one draw.
//!
//! A raw peer sends one `Sample { count: 300 }` to a tenant whose
//! `sample` takes 10 ms, so the request runs for about 3 s. The server
//! takes the tenant's engine lock once per draw and re-checks the
//! shutdown flag between draws. So while it runs, (a) a neighbour's
//! `Stats` to the same tenant is answered within about one draw, and
//! (b) `Server::join` returns within about one draw, and the rest of the
//! request is dropped unanswered. Holding the lock for the whole request
//! would make each of them wait out the 3 s. The join runs on a helper
//! thread and is awaited with a timeout, so a regression fails instead of
//! hanging.

use pts_engine::{
    EngineConfig, EngineSnapshot, EngineStats, L0Factory, SamplingService, ShardedEngine,
};
use pts_samplers::Sample;
use pts_server::{serve, Client, ClientConfig};
use pts_stream::Update;
use pts_util::protocol::{write_request, Request, RequestHeader, DEFAULT_NAMESPACE};
use pts_util::wire::WireError;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

const DRAWS: u64 = 300;
const DRAW: Duration = Duration::from_millis(10);
const BOUND: Duration = Duration::from_millis(100);

/// A real engine whose `sample` takes [`DRAW`], counting its calls.
struct SlowDraws {
    inner: ShardedEngine<L0Factory>,
    draws: Arc<AtomicUsize>,
}

impl SamplingService for SlowDraws {
    fn universe(&self) -> usize {
        self.inner.universe()
    }
    fn ingest_batch(&mut self, batch: &[Update]) {
        SamplingService::ingest_batch(&mut self.inner, batch);
    }
    fn sample(&mut self) -> Option<Sample> {
        self.draws.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(DRAW);
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

#[test]
fn a_long_sample_yields_the_tenant_between_draws() {
    let draws = Arc::new(AtomicUsize::new(0));
    let mut inner = ShardedEngine::new(
        EngineConfig::new(64).shards(2).pool_size(1).seed(7),
        L0Factory::default(),
    );
    let batch: Vec<Update> = (0..64).map(|i| Update::new(i, 1)).collect();
    SamplingService::ingest_batch(&mut inner, &batch);
    let engine = SlowDraws {
        inner,
        draws: Arc::clone(&draws),
    };
    let server = serve("127.0.0.1:0", engine).unwrap();
    let config = ClientConfig::default().read_timeout(Duration::from_secs(10));
    let mut neighbour = Client::connect_with(server.local_addr(), &config).unwrap();
    neighbour
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .unwrap()
        .wait()
        .unwrap();

    let header = RequestHeader {
        id: 1,
        ns: DEFAULT_NAMESPACE,
        trace: None,
    };
    let mut request = Vec::new();
    write_request(&header, &Request::Sample { count: DRAWS }, &mut request).unwrap();
    let mut peer = TcpStream::connect(server.local_addr()).unwrap();
    peer.write_all(&request).unwrap();
    let started = Instant::now();
    while draws.load(Ordering::SeqCst) < 3 {
        assert!(started.elapsed() < Duration::from_secs(5), "no draw ran");
        std::thread::sleep(Duration::from_millis(1));
    }

    // (a) A neighbour's request to the same tenant lands between draws.
    let asking = Instant::now();
    let stats = neighbour
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .unwrap()
        .wait()
        .unwrap();
    let answered_in = asking.elapsed();
    assert_eq!(stats.universe, 64);
    assert!(
        answered_in < BOUND,
        "a neighbour's Stats took {answered_in:?} behind a {DRAWS}-draw Sample (bound {BOUND:?})"
    );

    // (b) Teardown drops the rest of the request.
    let (joined_tx, joined_rx) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        let joining = Instant::now();
        server.join();
        let _ = joined_tx.send(joining.elapsed());
    });
    let joined_in = joined_rx.recv_timeout(DRAW * DRAWS as u32 * 2);
    drop((peer, neighbour));
    joiner.join().unwrap();
    let ran = draws.load(Ordering::SeqCst);
    let took = joined_in.unwrap_or_else(|_| panic!("Server::join did not return; {ran} draws ran"));
    assert!(
        took < BOUND,
        "Server::join took {took:?} (bound {BOUND:?}); {ran} of {DRAWS} draws ran"
    );
    assert!(ran < DRAWS as usize, "all {DRAWS} draws ran after shutdown");
}
