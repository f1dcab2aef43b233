//! The client's response deadline (`ClientConfig::read_timeout`), against
//! a scripted peer that plays the server.
//!
//! With requests in flight and no response frame within the window, the
//! connection is dead: every waiter, and a `submit` blocked on the
//! in-flight cap, fails with `ClientError::Io` of kind `TimedOut`. An idle
//! connection never times out.
//!
//! * `a_request_never_answered_times_out`: the peer reads the request and
//!   never answers.
//! * `a_response_stalled_mid_frame_times_out`: the peer writes half of the
//!   response frame, then stalls.
//! * `an_idle_connection_does_not_time_out`: the connection sits idle for
//!   three windows before a request, which is answered.
//! * `a_submit_blocked_at_the_cap_times_out`: at `max_in_flight` = 1, the
//!   second submit waits behind a stalled request and fails with it.
//!
//! Each failure must land between one window and one window plus a
//! second after the (first) submit.

use pts_server::{Client, ClientConfig, ClientError};
use pts_util::protocol::{
    read_request, write_response, Request, Response, ServiceStats, DEFAULT_NAMESPACE,
};
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const WINDOW: Duration = Duration::from_millis(300);
const SLACK: Duration = Duration::from_secs(1);

/// A one-connection peer: accepts the client and runs `script` on the
/// socket. Returns the client connected with `config` and the peer thread.
fn scripted(
    config: ClientConfig,
    script: impl FnOnce(TcpStream) + Send + 'static,
) -> (Client, JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (socket, _) = listener.accept().unwrap();
        script(socket);
    });
    (Client::connect_with(addr, &config).unwrap(), peer)
}

/// Reads one request frame and checks it is a `Stats`; returns its id.
fn read_stats_request(socket: &mut TcpStream) -> u64 {
    let (header, request) = read_request(socket).unwrap();
    assert_eq!(request, Request::Stats);
    header.id
}

/// Holds the socket open, reading nothing useful, until the client hangs
/// up (EOF or a reset).
fn until_closed(mut socket: TcpStream) {
    let mut sink = [0u8; 256];
    while matches!(socket.read(&mut sink), Ok(n) if n > 0) {}
}

fn stats_frame(id: u64) -> Vec<u8> {
    let stats = ServiceStats {
        universe: 64,
        mass: 2.5,
        support: 2,
        ..ServiceStats::default()
    };
    let mut frame = Vec::new();
    write_response(id, &Response::Stats(stats), &mut frame).unwrap();
    frame
}

fn config() -> ClientConfig {
    ClientConfig::new().read_timeout(WINDOW)
}

/// Asserts `result` is a timed-out connection error.
fn expect_timed_out<T: std::fmt::Debug>(result: Result<T, ClientError>) {
    match result {
        Err(ClientError::Io(e)) => assert_eq!(e.kind(), ErrorKind::TimedOut, "{e}"),
        other => panic!("expected an Io(TimedOut) error, got {other:?}"),
    }
}

/// Asserts `result` is a timed-out connection error that landed inside
/// the window's bounds, measured from `since`.
fn assert_timed_out<T: std::fmt::Debug>(result: Result<T, ClientError>, since: Instant) {
    let elapsed = since.elapsed();
    expect_timed_out(result);
    assert!(
        elapsed >= WINDOW && elapsed <= WINDOW + SLACK,
        "timed out after {elapsed:?}, outside [{WINDOW:?}, {:?}]",
        WINDOW + SLACK
    );
}

#[test]
fn a_request_never_answered_times_out() {
    let (mut client, peer) = scripted(config(), |mut socket| {
        read_stats_request(&mut socket);
        until_closed(socket);
    });
    let submitted = Instant::now();
    let result = client
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .and_then(|pending| pending.wait());
    assert_timed_out(result, submitted);
    drop(client);
    peer.join().unwrap();
}

#[test]
fn a_response_stalled_mid_frame_times_out() {
    let (mut client, peer) = scripted(config(), |mut socket| {
        let id = read_stats_request(&mut socket);
        let frame = stats_frame(id);
        socket.write_all(&frame[..frame.len() / 2]).unwrap();
        until_closed(socket);
    });
    let submitted = Instant::now();
    let result = client
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .and_then(|pending| pending.wait());
    assert_timed_out(result, submitted);
    drop(client);
    peer.join().unwrap();
}

#[test]
fn an_idle_connection_does_not_time_out() {
    let (mut client, peer) = scripted(config(), |mut socket| {
        let id = read_stats_request(&mut socket);
        socket.write_all(&stats_frame(id)).unwrap();
        until_closed(socket);
    });
    std::thread::sleep(Duration::from_secs(1));
    let stats = client
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .and_then(|pending| pending.wait())
        .expect("an idle connection answers its next request");
    assert_eq!((stats.universe, stats.support, stats.mass), (64, 2, 2.5));
    drop(client);
    peer.join().unwrap();
}

#[test]
fn a_submit_blocked_at_the_cap_times_out() {
    let (mut client, peer) = scripted(config().max_in_flight(1), |mut socket| {
        read_stats_request(&mut socket);
        until_closed(socket);
    });
    let submitted = Instant::now();
    let stalled = client.submit_stats_ns(DEFAULT_NAMESPACE).unwrap();
    let blocked = client.submit_stats_ns(DEFAULT_NAMESPACE);
    assert_timed_out(blocked, submitted);
    expect_timed_out(stalled.wait());
    drop(client);
    peer.join().unwrap();
}
