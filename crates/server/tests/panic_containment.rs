//! Panic containment: an engine that panics inside `dispatch` must cost
//! one `Internal` error response, not a server thread.
//!
//! Each connection's requests run on that connection's one dispatcher
//! thread. If a panic unwound out of it, nothing would answer the rest
//! of the connection's requests, queued or yet to come. This test sends
//! ten panicking requests down one connection and then checks that (a)
//! every one of them was answered, (b)
//! healthy tenants on the same connection keep serving their exact draw
//! streams, and (c) a fresh connection can still complete a blocking
//! `CreateNamespace`. Every client read carries a deadline, so a
//! regression fails instead of hanging.

use pts_engine::{
    EngineConfig, EngineSnapshot, EngineStats, L0Factory, SamplingService, ShardedEngine,
};
use pts_samplers::Sample;
use pts_server::{serve_with_spawner, Client, ClientConfig, ClientError, Pending};
use pts_stream::Update;
use pts_util::protocol::ErrorCode;
use pts_util::wire::WireError;
use std::time::Duration;

/// The namespace whose engine panics on every draw.
const POISONED: u64 = 7;

/// Panicking requests sent down one connection.
const PANICKING_REQUESTS: usize = 10;

/// A real engine whose `sample` panics when `panics` is set.
struct Panicky {
    inner: ShardedEngine<L0Factory>,
    panics: bool,
}

impl SamplingService for Panicky {
    fn universe(&self) -> usize {
        self.inner.universe()
    }
    fn ingest_batch(&mut self, batch: &[Update]) {
        SamplingService::ingest_batch(&mut self.inner, batch);
    }
    fn sample(&mut self) -> Option<Sample> {
        assert!(!self.panics, "injected engine fault");
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

/// Tenant `ns`'s healthy engine: a pure function of the namespace, so an
/// in-process control reproduces its draw stream exactly.
fn healthy(ns: u64) -> ShardedEngine<L0Factory> {
    ShardedEngine::new(
        EngineConfig::new(64).shards(2).pool_size(2).seed(500 + ns),
        L0Factory::default(),
    )
}

fn spawn(ns: u64) -> Panicky {
    Panicky {
        inner: healthy(ns),
        panics: ns == POISONED,
    }
}

fn client(addr: std::net::SocketAddr) -> Client {
    let config = ClientConfig::new()
        .connect_timeout(Duration::from_secs(5))
        .read_timeout(Duration::from_secs(20))
        .write_timeout(Duration::from_secs(20));
    Client::connect_with(addr, &config).expect("connect")
}

fn assert_internal(result: Result<Vec<Option<Sample>>, ClientError>, what: &str) {
    match result {
        Err(ClientError::Server(err)) => assert_eq!(err.code, ErrorCode::Internal, "{what}"),
        other => panic!("{what}: expected an in-band Internal error, got {other:?}"),
    }
}

#[test]
fn panicking_tenant_costs_error_responses_not_workers() {
    let server = serve_with_spawner("127.0.0.1:0", spawn(0), spawn).expect("bind");
    let addr = server.local_addr();
    let mut c = client(addr);

    let healthy_ns = [1u64, 2];
    let batch: Vec<Update> = [(3u64, 5i64), (17, -2), (40, 9), (41, 1)]
        .iter()
        .map(|&(i, v)| Update::new(i, v))
        .collect();
    let mut controls: Vec<ShardedEngine<L0Factory>> = Vec::new();
    for ns in healthy_ns.into_iter().chain([POISONED]) {
        c.submit_create_namespace(ns)
            .and_then(Pending::wait)
            .expect("create tenant");
        c.submit_ingest_batch_ns(ns, &batch)
            .and_then(Pending::wait)
            .expect("ingest");
    }
    for ns in healthy_ns {
        let mut control = healthy(ns);
        control.ingest_batch(&batch);
        controls.push(control);
    }

    // Pipeline every panicking draw, interleaved with healthy draws, on
    // one connection: the healthy responses sit behind the panics in the
    // connection's FIFO.
    let mut poisoned = Vec::new();
    let mut fine = Vec::new();
    for round in 0..PANICKING_REQUESTS {
        poisoned.push(c.submit_sample_many_ns(POISONED, 1).expect("submit"));
        let ns = healthy_ns[round % healthy_ns.len()];
        fine.push((ns, c.submit_sample_many_ns(ns, 2).expect("submit")));
    }

    // (a) Every panicking request is answered, in band, under its own id.
    for (k, pending) in poisoned.into_iter().enumerate() {
        assert_internal(pending.wait(), &format!("poisoned draw {k}"));
    }
    // (b) Healthy tenants keep their exact draw streams.
    for (k, (ns, pending)) in fine.into_iter().enumerate() {
        let draws = pending.wait().expect("healthy tenant answers");
        let control = &mut controls[(ns - 1) as usize];
        let want: Vec<Option<Sample>> = (0..2).map(|_| control.sample()).collect();
        assert_eq!(draws, want, "healthy draw {k} (ns {ns}) diverged");
    }
    // The connection that carried the panics still works.
    assert_eq!(
        c.submit_stats_ns(1)
            .and_then(Pending::wait)
            .expect("stats")
            .updates,
        batch.len() as u64
    );

    // (c) A fresh connection completes a blocking create.
    let mut fresh = client(addr);
    fresh
        .submit_create_namespace(9)
        .and_then(Pending::wait)
        .expect("create after panics");
    fresh
        .submit_ingest_batch_ns(9, &batch)
        .and_then(Pending::wait)
        .expect("ingest after panics");

    // The poisoned tenant keeps answering Internal; drop + re-create
    // replaces it with a fresh engine.
    assert_internal(
        c.submit_sample_many_ns(POISONED, 1).and_then(Pending::wait),
        "poisoned after the burst",
    );
    c.submit_drop_namespace(POISONED)
        .and_then(Pending::wait)
        .expect("drop poisoned tenant");
    c.submit_create_namespace(POISONED)
        .and_then(Pending::wait)
        .expect("re-create tenant");
    assert_eq!(
        c.submit_stats_ns(POISONED)
            .and_then(Pending::wait)
            .expect("fresh stats")
            .updates,
        0
    );

    c.submit_shutdown()
        .and_then(Pending::wait)
        .expect("shutdown");
    server.join();
}
