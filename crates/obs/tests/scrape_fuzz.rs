//! Adversarial-input fuzzing of the scrape endpoint.
//!
//! The `MetricsServer` contract is "never parse, always answer": whatever
//! a peer sends — a real HTTP request, random bytes, one byte per poll
//! interval, or megabytes of garbage — it must receive exactly one
//! well-formed `HTTP/1.0 200` response carrying a valid Prometheus text
//! exposition, within the configured deadline, and never crash, hang, or
//! vary the response grammar. These tests are the enforcement.

use pts_obs::{MetricsServer, MetricsServerConfig};
use pts_util::Xoshiro256pp;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Connects, writes `payload`, then reads the full response to EOF.
fn exchange(server: &MetricsServer, payload: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(payload).expect("request written");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("response read");
    response
}

/// Asserts the response is one well-formed `HTTP/1.0 200` with a
/// `Content-Length` that matches the body, and that the body is a valid
/// exposition page: every line is a `# TYPE` comment or a
/// `pts_<name>[{labels}] <numeric value>` sample.
fn assert_valid_scrape_response(response: &[u8]) {
    let text = std::str::from_utf8(response).expect("response is UTF-8");
    assert!(
        text.starts_with("HTTP/1.0 200 OK\r\n"),
        "bad status line: {:?}",
        &text[..text.len().min(60)]
    );
    let (header, body) = text.split_once("\r\n\r\n").expect("header/body split");
    assert!(
        header.contains("Content-Type: text/plain; version=0.0.4"),
        "missing exposition content type: {header}"
    );
    let declared: usize = header
        .lines()
        .find_map(|l| l.strip_prefix("Content-Length: "))
        .expect("Content-Length header")
        .trim()
        .parse()
        .expect("numeric Content-Length");
    assert_eq!(declared, body.len(), "Content-Length mismatch");
    for line in body.lines() {
        if line.is_empty() || line.starts_with("# TYPE pts_") {
            continue;
        }
        assert!(line.starts_with("pts_"), "unprefixed sample line: {line}");
        let value = line.rsplit(' ').next().expect("sample has a value");
        assert!(
            value.parse::<f64>().is_ok(),
            "non-numeric sample value in line: {line}"
        );
    }
}

#[test]
fn honest_get_gets_a_valid_exposition() {
    // Ensure at least one series exists so the body-validating loop has
    // lines to chew on.
    pts_obs::registry().counter("fuzz.priming").add(42);
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
    let response = exchange(&server, b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert_valid_scrape_response(&response);
    assert!(
        std::str::from_utf8(&response)
            .unwrap()
            .contains("pts_fuzz_priming 42"),
        "primed counter missing from exposition"
    );
    server.join();
}

#[test]
fn bytes_after_the_blank_line_do_not_delay_the_answer() {
    // The default 2 s deadline is the stall this pins: the blank line must
    // be seen even when more bytes (a pipelined request, a stray body)
    // arrive in the same segment.
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    stream
        .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\nEXTRA")
        .expect("request written");
    // The socket stays open: only the blank line can end the drain.
    let mut first = [0u8; 17];
    stream.read_exact(&mut first).expect("response starts");
    let waited = started.elapsed();
    assert_eq!(&first, b"HTTP/1.0 200 OK\r\n");
    assert!(
        waited < Duration::from_millis(500),
        "answer waited for the deadline: {waited:?}"
    );
    drop(stream);
    server.join();
}

#[test]
fn random_byte_soup_always_gets_a_valid_response() {
    let server = MetricsServer::bind_with(
        "127.0.0.1:0",
        MetricsServerConfig {
            // Soup rarely contains a header terminator; keep the
            // answer-anyway deadline short so the test stays fast.
            read_deadline: Duration::from_millis(200),
            max_request_bytes: 4096,
        },
    )
    .expect("bind");
    let mut rng = Xoshiro256pp::new(0xF00D);
    for round in 0..8 {
        let len = 1 + (rng.next_u64() % 2048) as usize;
        let mut soup = Vec::with_capacity(len);
        while soup.len() < len {
            soup.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        soup.truncate(len);
        let response = exchange(&server, &soup);
        assert_valid_scrape_response(&response);
        assert!(!response.is_empty(), "round {round} got no response");
    }
    server.join();
}

#[test]
fn slow_trickle_cannot_pin_the_handler_past_the_deadline() {
    let server = MetricsServer::bind_with(
        "127.0.0.1:0",
        MetricsServerConfig {
            read_deadline: Duration::from_millis(300),
            max_request_bytes: 8 * 1024,
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // Trickle one byte at a time, never completing a header block; the
    // server must answer at its deadline, not wait for us.
    let writer = std::thread::spawn(move || {
        let mut trickle = TcpStream::connect(addr).expect("trickle connect");
        for _ in 0..50 {
            if trickle.write_all(b"G").is_err() {
                break; // server already answered and closed — expected
            }
            std::thread::sleep(Duration::from_millis(20));
        }
    });
    let started = Instant::now();
    stream.write_all(b"G").unwrap();
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("response read");
    let waited = started.elapsed();
    assert_valid_scrape_response(&response);
    assert!(
        waited < Duration::from_secs(5),
        "deadline did not fire: waited {waited:?}"
    );
    writer.join().unwrap();
    server.join();
}

#[test]
fn oversized_request_is_truncated_not_buffered() {
    let server = MetricsServer::bind_with(
        "127.0.0.1:0",
        MetricsServerConfig {
            read_deadline: Duration::from_secs(2),
            max_request_bytes: 1024,
        },
    )
    .expect("bind");
    // 256 KiB of header-less garbage: the byte cap must answer long
    // before the deadline would.
    let blob = vec![b'A'; 256 * 1024];
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    // The server may close its read side mid-write once the cap trips;
    // a write error then is acceptable, the response is not optional.
    let _ = stream.write_all(&blob);
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("response read");
    assert_valid_scrape_response(&response);
    server.join();
}

#[test]
fn concurrent_scrapers_all_get_valid_responses() {
    pts_obs::registry().counter("fuzz.concurrent").inc();
    let server = MetricsServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let scrapers: Vec<_> = (0..8)
        .map(|_| {
            std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                stream
                    .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
                    .expect("request");
                let mut response = Vec::new();
                stream.read_to_end(&mut response).expect("response");
                response
            })
        })
        .collect();
    for scraper in scrapers {
        assert_valid_scrape_response(&scraper.join().expect("scraper thread"));
    }
    server.join();
}
