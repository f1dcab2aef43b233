//! The law under observation: a chi-squared sampling-law pin served
//! end-to-end through an instrumented server **while a concurrent
//! scraper hammers the metrics endpoint**.
//!
//! Observability must be a pure observer — registry atomics and scrape
//! traffic on a side listener cannot perturb the engine's sampling law or
//! the serving path. This test runs the `loopback.rs` chi-squared pin
//! with a scraper thread polling throughout, then checks the exposition
//! actually carried the instrumentation the traffic generated.

use pts_engine::{EngineConfig, L0Factory, SamplerFactory, ShardedEngine};
use pts_obs::MetricsServer;
use pts_server::{serve, Client};
use pts_stream::{FrequencyVector, Update};
use pts_util::protocol::DEFAULT_NAMESPACE;
use pts_util::stats::chi_square_test;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One scrape: GET, read to EOF, return the body after basic validation.
fn scrape(addr: std::net::SocketAddr) -> String {
    let mut stream = TcpStream::connect(addr).expect("scrape connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("scrape request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("scrape read");
    assert!(
        response.starts_with("HTTP/1.0 200 OK\r\n"),
        "scrape answered {:?}",
        &response[..response.len().min(40)]
    );
    response
        .split_once("\r\n\r\n")
        .expect("header/body split")
        .1
        .to_string()
}

#[test]
fn law_holds_while_a_concurrent_scraper_polls() {
    let mut values = vec![0i64; 24];
    for (k, &i) in [1usize, 4, 7, 11, 13, 17, 20, 23].iter().enumerate() {
        values[i] = if k % 2 == 0 { 1 << k } else { -(3 + k as i64) };
    }
    let x = FrequencyVector::from_values(values);
    let factory = L0Factory::default();
    let weights: Vec<f64> = x.values().iter().map(|&v| factory.weight(v)).collect();
    let total: f64 = weights.iter().sum();
    let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();

    let engine = ShardedEngine::new(
        EngineConfig::new(x.n()).shards(2).pool_size(2).seed(11),
        factory,
    );
    let server = serve("127.0.0.1:0", engine).unwrap();
    let metrics = MetricsServer::bind("127.0.0.1:0").unwrap();
    let metrics_addr = metrics.local_addr();

    // The concurrent scraper: polls as fast as responses come back for
    // the whole duration of the law run.
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let scraper = std::thread::spawn(move || {
        let mut polls = 0u64;
        while !stop_flag.load(Ordering::SeqCst) {
            let _ = scrape(metrics_addr);
            polls += 1;
            std::thread::sleep(Duration::from_millis(2));
        }
        polls
    });

    let mut client = Client::connect(server.local_addr()).unwrap();
    let updates: Vec<Update> = x.iter_nonzero().map(|(i, v)| Update::new(i, v)).collect();
    client
        .submit_ingest_batch_ns(DEFAULT_NAMESPACE, &updates)
        .unwrap()
        .wait()
        .unwrap();

    let trials = 3_000u64;
    let mut counts = vec![0u64; x.n()];
    let mut fails = 0u64;
    let mut remaining = trials;
    while remaining > 0 {
        let take = remaining.min(500);
        for draw in client
            .submit_sample_many_ns(DEFAULT_NAMESPACE, take)
            .unwrap()
            .wait()
            .unwrap()
        {
            match draw {
                Some(s) => counts[s.index as usize] += 1,
                None => fails += 1,
            }
        }
        remaining -= take;
    }
    assert!(
        (fails as f64) < trials as f64 * 0.05,
        "fails {fails}/{trials}"
    );
    let chi = chi_square_test(&counts, &probs, 5.0);
    assert!(
        chi.p_value > 1e-4,
        "law under scrape load off: chi2 {:.2} p {:.6}",
        chi.statistic,
        chi.p_value
    );

    stop.store(true, Ordering::SeqCst);
    let polls = scraper.join().expect("scraper thread");
    assert!(polls > 0, "the scraper never completed a poll");

    // The exposition must reflect the traffic the law run generated.
    let body = scrape(metrics_addr);
    for series in [
        "pts_server_requests{kind=\"sample\"}",
        "pts_server_requests{kind=\"ingest\"}",
        "pts_server_conn_opened",
        "pts_engine_ingest_updates",
        "pts_engine_draw_ns_count",
        "pts_obs_scrapes",
    ] {
        assert!(body.contains(series), "missing {series} in:\n{body}");
    }

    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
    metrics.join();
}
