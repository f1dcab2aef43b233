//! Wire v4 multiplexing contract, pinned from the client's side against
//! **scripted** servers (hand-written frame scripts over a raw listener,
//! so response order and failure timing are exactly controlled) plus one
//! live pipelined run over a real server.
//!
//! The load-bearing pins:
//! * one connection sustains ≥ 16 concurrent in-flight requests and the
//!   demux resolves them correctly when the responses come back in
//!   **reverse** order (matched by id, not by arrival position);
//! * a recoverable in-band error resolves only its own request id — the
//!   other in-flight requests and the connection itself are unaffected;
//! * a fatal connection failure resolves **every** outstanding `Pending`
//!   with a connection error;
//! * `max_in_flight` backpressures `submit_*` instead of growing the
//!   demux table without bound.

use pts_engine::{EngineConfig, L0Factory, ShardedEngine};
use pts_server::{serve, Client, ClientConfig, ClientError};
use pts_stream::Update;
use pts_util::protocol::{
    read_request, write_response, ErrorCode, Response, ServiceError, ServiceStats,
    DEFAULT_NAMESPACE,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A raw loopback listener running `script` against its first accepted
/// connection — a fake server whose response order is the test's choice.
fn scripted_server<F>(script: F) -> (SocketAddr, JoinHandle<()>)
where
    F: FnOnce(TcpStream) + Send + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let handle = std::thread::spawn(move || {
        let (stream, _) = listener.accept().unwrap();
        script(stream);
    });
    (addr, handle)
}

/// A `Stats` response whose universe encodes `id`, so a test can prove a
/// response resolved the *right* request regardless of arrival order.
fn stats_marked(id: u64) -> Response {
    Response::Stats(ServiceStats {
        universe: 1000 + id,
        updates: 0,
        batches: 0,
        samples: 0,
        fails: 0,
        merges: 0,
        mass: 0.0,
        support: 0,
        requests_served: 0,
        uptime_secs: 0,
    })
}

/// The acceptance pin: 16 concurrent in-flight requests on one
/// connection, answered in **reverse** submission order, each resolving
/// to its own request's response.
#[test]
fn sixteen_in_flight_resolve_out_of_order_by_id() {
    const DEPTH: u64 = 16;
    let (addr, server) = scripted_server(move |mut stream| {
        // Collect the whole burst before answering anything…
        let mut ids = Vec::new();
        for _ in 0..DEPTH {
            let id = read_request(&mut stream).unwrap().0.id;
            ids.push(id);
        }
        // …then answer strictly in reverse: the last-submitted request
        // completes first.
        for &id in ids.iter().rev() {
            write_response(id, &stats_marked(id), &mut stream).unwrap();
        }
    });
    let mut client = Client::connect(addr).unwrap();
    let mut pending = Vec::new();
    for _ in 0..DEPTH {
        pending.push(client.submit_stats_ns(DEFAULT_NAMESPACE).unwrap());
    }
    let ids: Vec<u64> = pending.iter().map(|p| p.id()).collect();
    assert_eq!(
        ids.len() as u64,
        DEPTH,
        "all {DEPTH} submissions must be in flight at once"
    );
    // Wait in *submission* order — the opposite of arrival order — and
    // check each handle got its own request's response.
    for (pending, id) in pending.into_iter().zip(ids) {
        let stats = pending.wait().unwrap();
        assert_eq!(
            stats.universe,
            1000 + id,
            "response for id {id} resolved the wrong handle"
        );
    }
    drop(client);
    server.join().unwrap();
}

/// A recoverable in-band error resolves only its own id: the requests
/// around it still succeed, on the same connection.
#[test]
fn recoverable_error_resolves_only_its_own_id() {
    let (addr, server) = scripted_server(|mut stream| {
        let mut ids = Vec::new();
        for _ in 0..3 {
            let id = read_request(&mut stream).unwrap().0.id;
            ids.push(id);
        }
        // Fail the middle request in-band; answer its neighbors normally,
        // out of order for good measure.
        write_response(
            ids[1],
            &Response::Error(ServiceError::new(ErrorCode::Internal, "scripted failure")),
            &mut stream,
        )
        .unwrap();
        write_response(ids[2], &stats_marked(ids[2]), &mut stream).unwrap();
        write_response(ids[0], &stats_marked(ids[0]), &mut stream).unwrap();
    });
    let mut client = Client::connect(addr).unwrap();
    let first = client.submit_stats_ns(DEFAULT_NAMESPACE).unwrap();
    let second = client.submit_stats_ns(DEFAULT_NAMESPACE).unwrap();
    let third = client.submit_stats_ns(DEFAULT_NAMESPACE).unwrap();
    let (first_id, third_id) = (first.id(), third.id());

    let err = second.wait().expect_err("scripted failure must surface");
    match &err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Internal),
        other => panic!("wanted in-band server error, got {other:?}"),
    }
    assert!(
        err.is_recoverable(),
        "an in-band error is scoped to its request"
    );

    assert_eq!(first.wait().unwrap().universe, 1000 + first_id);
    assert_eq!(third.wait().unwrap().universe, 1000 + third_id);
    drop(client);
    server.join().unwrap();
}

/// A connection-level failure (the peer dies mid-conversation) resolves
/// every outstanding `Pending` with a non-recoverable connection error.
#[test]
fn fatal_failure_resolves_all_pending() {
    let (addr, server) = scripted_server(|mut stream| {
        // Read the burst, answer nothing, drop the socket.
        for _ in 0..4 {
            let _ = read_request(&mut stream).unwrap();
        }
    });
    let mut client = Client::connect(addr).unwrap();
    let pending: Vec<_> = (0..4)
        .map(|_| client.submit_stats_ns(DEFAULT_NAMESPACE).unwrap())
        .collect();
    for (i, p) in pending.into_iter().enumerate() {
        let err = p.wait().expect_err("dead peer must fail the request");
        assert!(
            !err.is_recoverable(),
            "request {i}: a connection failure is not recoverable, got {err:?}"
        );
    }
    // The connection is poisoned: new submissions fail immediately.
    assert!(client.submit_stats_ns(DEFAULT_NAMESPACE).is_err());
    server.join().unwrap();
}

/// `max_in_flight` backpressures: the (depth+1)-th submit blocks until a
/// response frees a slot. One-sided timing — a slow machine only makes
/// the measured wait longer.
#[test]
fn max_in_flight_backpressures_submit() {
    const HOLD: Duration = Duration::from_millis(200);
    let (addr, server) = scripted_server(|mut stream| {
        let first = read_request(&mut stream).unwrap().0.id;
        let second = read_request(&mut stream).unwrap().0.id;
        // Hold both slots hostage, then release one.
        std::thread::sleep(HOLD);
        write_response(first, &stats_marked(first), &mut stream).unwrap();
        let third = read_request(&mut stream).unwrap().0.id;
        write_response(second, &stats_marked(second), &mut stream).unwrap();
        write_response(third, &stats_marked(third), &mut stream).unwrap();
    });
    let config = ClientConfig::default().max_in_flight(2);
    let mut client = Client::connect_with(addr, &config).unwrap();
    let first = client.submit_stats_ns(DEFAULT_NAMESPACE).unwrap();
    let second = client.submit_stats_ns(DEFAULT_NAMESPACE).unwrap();
    let blocked_at = Instant::now();
    let third = client.submit_stats_ns(DEFAULT_NAMESPACE).unwrap(); // must wait for a slot
    assert!(
        blocked_at.elapsed() >= HOLD / 2,
        "third submit should have blocked at max_in_flight=2, returned in {:?}",
        blocked_at.elapsed()
    );
    first.wait().unwrap();
    second.wait().unwrap();
    third.wait().unwrap();
    drop(client);
    server.join().unwrap();
}

/// `Pending::wait_timeout` gives up cleanly: an expiry returns
/// `Ok(None)` without poisoning the connection — the late response is
/// absorbed as a stray, and later requests on the same connection still
/// resolve (including through `wait_timeout` itself).
#[test]
fn wait_timeout_expires_cleanly_and_connection_survives() {
    const HOLD: Duration = Duration::from_millis(200);
    let (addr, server) = scripted_server(move |mut stream| {
        let slow = read_request(&mut stream).unwrap().0.id;
        // Let the client's deadline expire before anything is answered.
        std::thread::sleep(HOLD);
        let fast = read_request(&mut stream).unwrap().0.id;
        // The expired request's response arrives late — it must be
        // swallowed as a stray, not resolve the later handle.
        write_response(slow, &stats_marked(slow), &mut stream).unwrap();
        write_response(fast, &stats_marked(fast), &mut stream).unwrap();
    });
    let mut client = Client::connect(addr).unwrap();
    let slow = client.submit_stats_ns(DEFAULT_NAMESPACE).unwrap();
    let started = Instant::now();
    assert!(
        slow.wait_timeout(Duration::from_millis(25))
            .unwrap()
            .is_none(),
        "no response inside the deadline must resolve to None"
    );
    assert!(
        started.elapsed() < HOLD,
        "wait_timeout must return at its own deadline, not the response's"
    );
    let fast = client.submit_stats_ns(DEFAULT_NAMESPACE).unwrap();
    let fast_id = fast.id();
    let stats = fast
        .wait_timeout(Duration::from_secs(5))
        .unwrap()
        .expect("an answered request resolves within a generous deadline");
    assert_eq!(stats.universe, 1000 + fast_id);
    drop(client);
    server.join().unwrap();
}

/// Pipelining against a **real** server: a burst of ingests and a burst
/// of sample fetches all in flight at once, every ack correct, totals
/// exactly right afterwards.
#[test]
fn live_pipelined_bursts_land_exactly() {
    let engine = ShardedEngine::new(
        EngineConfig::new(256).shards(2).pool_size(1).seed(21),
        L0Factory::default(),
    );
    let server = serve("127.0.0.1:0", engine).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // 32 single-update batches submitted before any ack is awaited.
    let pending: Vec<_> = (0..32)
        .map(|i| {
            client
                .submit_ingest_batch_ns(DEFAULT_NAMESPACE, &[Update::new(i as u64, i + 1)])
                .unwrap()
        })
        .collect();
    let accepted: u64 = pending.into_iter().map(|p| p.wait().unwrap()).sum();
    assert_eq!(accepted, 32, "every pipelined batch must ack exactly once");
    assert_eq!(
        client
            .submit_stats_ns(DEFAULT_NAMESPACE)
            .unwrap()
            .wait()
            .unwrap()
            .updates,
        32
    );

    // A mixed in-flight burst: samples and stats interleaved.
    let draws = client.submit_sample_many_ns(DEFAULT_NAMESPACE, 8).unwrap();
    let stats = client.submit_stats_ns(DEFAULT_NAMESPACE).unwrap();
    let more = client.submit_sample_many_ns(DEFAULT_NAMESPACE, 4).unwrap();
    assert_eq!(draws.wait().unwrap().len(), 8);
    assert_eq!(stats.wait().unwrap().updates, 32);
    assert_eq!(more.wait().unwrap().len(), 4);

    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}
