//! Slow-reader isolation: a peer that pipelines requests and never reads
//! the responses must stall only its own connection.
//!
//! Eight raw peers each pipeline 64 `Snapshot` requests against a
//! 200,000-entry L₀ tenant and never read, so every one of their
//! response writes eventually blocks on a full socket. Then (a) another
//! client's `Stats` must still be answered within its 5 s read deadline,
//! and (b) `Server::join` must return within 5 s while a non-reading peer
//! is still connected. The join runs on a helper thread and is awaited
//! with a timeout before the peers are closed, so a regression fails
//! instead of hanging.

use pts_engine::{EngineConfig, L0Factory, ShardedEngine};
use pts_server::{serve, Client, ClientConfig};
use pts_stream::Update;
use pts_util::protocol::{write_request, Request, RequestHeader, DEFAULT_NAMESPACE};
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::{Duration, Instant};

const PEERS: usize = 8;
const PIPELINED: u64 = 64;
const ENTRIES: usize = 200_000;
const DEADLINE: Duration = Duration::from_secs(5);

#[test]
fn a_peer_that_never_reads_stalls_only_itself() {
    let mut engine = ShardedEngine::new(
        EngineConfig::new(ENTRIES).shards(4).pool_size(1).seed(11),
        L0Factory::default(),
    );
    let batch: Vec<Update> = (0..ENTRIES as u64).map(|i| Update::new(i, 1)).collect();
    engine.ingest_batch(&batch);
    let server = serve("127.0.0.1:0", engine).unwrap();
    let addr = server.local_addr();

    // Every peer's whole pipeline goes out in one write, and none of them
    // ever reads a byte back.
    let mut burst = Vec::new();
    for id in 1..=PIPELINED {
        let header = RequestHeader {
            id,
            ns: DEFAULT_NAMESPACE,
            trace: None,
        };
        write_request(&header, &Request::Snapshot, &mut burst).unwrap();
    }
    let peers: Vec<TcpStream> = (0..PEERS)
        .map(|_| {
            let mut peer = TcpStream::connect(addr).unwrap();
            peer.write_all(&burst).unwrap();
            peer
        })
        .collect();

    let config = ClientConfig::new().read_timeout(DEADLINE);
    let mut client = Client::connect_with(addr, &config).unwrap();
    let asked = Instant::now();
    let stats = client
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .and_then(|pending| pending.wait());
    let answered_in = asked.elapsed();
    drop(client);

    let (joined_tx, joined_rx) = mpsc::channel();
    let joiner = std::thread::spawn(move || {
        server.join();
        let _ = joined_tx.send(());
    });
    let joined = joined_rx.recv_timeout(DEADLINE).is_ok();
    // Closing the peers unblocks a server that would otherwise wait on
    // them forever, so the test ends either way.
    drop(peers);

    assert!(
        stats.is_ok(),
        "Stats behind {PEERS} non-reading peers failed after {answered_in:?}: {stats:?}"
    );
    assert_eq!(stats.unwrap().support, ENTRIES as u64);
    assert!(
        joined,
        "Server::join did not return within {DEADLINE:?} with a non-reading peer connected"
    );
    joiner.join().unwrap();
}
