//! Each half of a connection's socket has one owner: the dispatcher is
//! its only writer, and teardown shuts sockets down instead of waiting
//! for every reader to poll a flag.
//!
//! * `join_does_not_wait_for_idle_reads`: `Server::join` returns at once
//!   with two idle clients and one raw peer stalled mid-frame connected.
//!   A reader that only noticed shutdown when a poll timer next woke it
//!   would hold the join up for most of a tick.
//! * `id_zero_errors_keep_their_fifo_place`: a garbage frame sent after
//!   pipelined requests is answered under id 0 *after* their responses,
//!   because the reader queues its error instead of writing it.

use pts_engine::{EngineConfig, L0Factory, ShardedEngine};
use pts_server::{serve, Client};
use pts_stream::Update;
use pts_util::protocol::{
    read_response, write_request, ErrorCode, Request, RequestHeader, Response, DEFAULT_NAMESPACE,
};
use pts_util::wire::{KIND_REQUEST, WIRE_MAGIC, WIRE_VERSION};
use std::io::Write;
use std::net::TcpStream;
use std::sync::mpsc;
use std::time::Duration;

fn small_engine() -> ShardedEngine<L0Factory> {
    ShardedEngine::new(
        EngineConfig::new(64).shards(2).pool_size(1).seed(5),
        L0Factory::default(),
    )
}

fn request_frame(id: u64, request: &Request) -> Vec<u8> {
    let header = RequestHeader {
        id,
        ns: DEFAULT_NAMESPACE,
        trace: None,
    };
    let mut frame = Vec::new();
    write_request(&header, request, &mut frame).unwrap();
    frame
}

#[test]
fn join_does_not_wait_for_idle_reads() {
    const RUNS: usize = 5;
    const BOUND: Duration = Duration::from_millis(25);
    let mut fastest = Duration::MAX;
    for _ in 0..RUNS {
        let server = serve("127.0.0.1:0", small_engine()).unwrap();
        let addr = server.local_addr();
        // A frame header promising 1 KiB of payload, and 3 bytes of it.
        let mut stalled = TcpStream::connect(addr).unwrap();
        let mut partial = WIRE_MAGIC.to_vec();
        partial.extend_from_slice(&[WIRE_VERSION, KIND_REQUEST, 0x80, 0x08, 1, 2, 3]);
        stalled.write_all(&partial).unwrap();
        let mut clients: Vec<Client> = (0..2).map(|_| Client::connect(addr).unwrap()).collect();
        // A round trip each, just before the join: their readers have just
        // gone back to waiting for a first byte, so a reader that polled
        // a flag would wait out most of a poll.
        for client in &mut clients {
            client
                .submit_stats_ns(DEFAULT_NAMESPACE)
                .unwrap()
                .wait()
                .unwrap();
        }

        let (joined_tx, joined_rx) = mpsc::channel();
        let joiner = std::thread::spawn(move || {
            let joining = std::time::Instant::now();
            server.join();
            let _ = joined_tx.send(joining.elapsed());
        });
        let took = joined_rx.recv_timeout(Duration::from_secs(5));
        // Closing the peers unblocks a server that would otherwise wait on
        // them, so the test ends either way.
        drop((stalled, clients));
        joiner.join().unwrap();
        let took = took.expect("Server::join did not return within 5 s");
        fastest = fastest.min(took);
    }
    assert!(
        fastest < BOUND,
        "Server::join took at least {fastest:?} in {RUNS} runs (bound {BOUND:?})"
    );
}

#[test]
fn id_zero_errors_keep_their_fifo_place() {
    const PIPELINED: u64 = 16;
    const ENTRIES: u64 = 20_000;
    let mut engine = ShardedEngine::new(
        EngineConfig::new(ENTRIES as usize)
            .shards(2)
            .pool_size(1)
            .seed(5),
        L0Factory::default(),
    );
    let batch: Vec<Update> = (0..ENTRIES).map(|i| Update::new(i, 1)).collect();
    engine.ingest_batch(&batch);
    let server = serve("127.0.0.1:0", engine).unwrap();

    // Slow requests first, then a frame whose checksum is broken (answered
    // under id 0, the connection survives), then one more request.
    let mut burst = Vec::new();
    for id in 1..=PIPELINED {
        burst.extend(request_frame(id, &Request::Snapshot));
    }
    let mut garbage = request_frame(PIPELINED + 1, &Request::Stats);
    *garbage.last_mut().unwrap() ^= 0xFF;
    burst.extend(garbage);
    burst.extend(request_frame(PIPELINED + 2, &Request::Stats));
    let mut peer = TcpStream::connect(server.local_addr()).unwrap();
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    peer.write_all(&burst).unwrap();

    let ids: Vec<u64> = (0..PIPELINED + 2)
        .map(|_| {
            let (id, response) = read_response(&mut peer).unwrap();
            if id == 0 {
                assert!(
                    matches!(&response, Response::Error(e) if e.code == ErrorCode::Malformed),
                    "id 0 answered {response:?}"
                );
            }
            id
        })
        .collect();
    let expected: Vec<u64> = (1..=PIPELINED).chain([0, PIPELINED + 2]).collect();
    assert_eq!(ids, expected, "responses out of submission order");
    drop(peer);
    server.join();
}
