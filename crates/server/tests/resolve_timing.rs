//! `server.client.resolve.ns` measures submit → response arrival, not
//! submit → the caller's `wait()`: a pipelined caller that claims its
//! answer late must not inflate the wire latency the histogram reports.
//!
//! A test binary of its own because the metrics registry is
//! process-global: no other test in this process observes into the
//! histogram while this one reads its sum.

use pts_obs::MetricValue;
use pts_server::Client;
use pts_util::protocol::{read_request, write_response, Response, ServiceStats, DEFAULT_NAMESPACE};
use std::net::TcpListener;
use std::time::Duration;

/// The running sum of `server.client.resolve.ns`, in nanoseconds (0
/// before the series is first registered).
fn resolve_sum_ns() -> u64 {
    pts_obs::registry()
        .snapshot()
        .points
        .into_iter()
        .find_map(|p| match p.value {
            MetricValue::Histogram(h) if p.name == "server.client.resolve.ns" => Some(h.sum),
            _ => None,
        })
        .unwrap_or(0)
}

#[test]
fn resolve_time_stops_when_the_response_arrives() {
    // A scripted server that answers the one request at once.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let id = read_request(&mut stream).unwrap().0.id;
        let stats = Response::Stats(ServiceStats::default());
        write_response(id, &stats, &mut stream).unwrap();
    });
    let mut client = Client::connect(addr).unwrap();
    let before = resolve_sum_ns();
    let pending = client.submit_stats_ns(DEFAULT_NAMESPACE).unwrap();
    // The answer lands within microseconds; the caller claims it late.
    let late = Duration::from_millis(200);
    std::thread::sleep(late);
    pending.wait().unwrap();
    let grew = resolve_sum_ns() - before;
    assert!(grew > 0, "the resolved request was never observed");
    assert!(
        grew < late.as_nanos() as u64,
        "resolve time {grew} ns includes the caller's {late:?} of lateness"
    );
    server.join().unwrap();
}
