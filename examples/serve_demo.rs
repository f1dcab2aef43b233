//! The engine as a network service: a real TCP session over loopback.
//!
//! Everything previous examples did in-process now crosses a socket:
//! a `pts-server` hosts a `ShardedEngine`, and a blocking `Client`
//! drives it through the framed request/response protocol (PROTOCOL.md) —
//! batched turnstile ingest, mid-stream sampling, live stats, and a full
//! engine checkpoint pulled *over the wire*.
//!
//! The second act is the crash-recovery story at service granularity:
//! the demo **kills the server process-equivalent** (shuts it down and
//! drops it), brings up a fresh server on a new port hosting a blank
//! stand-in engine, and restores the checkpoint into it with one request.
//! The restored service then serves **exactly** the draws the killed one
//! would have — asserted draw for draw, the S29 bit-identity contract
//! measured through two sockets and a restart.
//!
//! Run with: `cargo run --release --example serve_demo`
//!
//! Add `--metrics-addr 127.0.0.1:9184` to also expose the process-global
//! metrics registry as a Prometheus-text scrape endpoint for the session
//! (`curl http://127.0.0.1:9184/metrics` while it runs).

use perfect_sampling::{prelude::*, pts_obs};
use pts_server::{serve, Client};

fn main() {
    // Opt-in observability: a side scrape endpoint over the same registry
    // every instrumented layer below writes into.
    let metrics = std::env::args()
        .skip_while(|a| a != "--metrics-addr")
        .nth(1)
        .map(|addr| {
            let endpoint = MetricsServer::bind(&addr).expect("bind metrics endpoint");
            println!(
                "metrics on http://{}/metrics (scrape it mid-run)",
                endpoint.local_addr()
            );
            endpoint
        });

    // ---- Act 1: a live sampling service -------------------------------
    let universe = 1 << 12;
    let config = EngineConfig::new(universe).shards(4).pool_size(2).seed(42);
    let factory = LpLe2Factory::for_universe(universe, 2.0);
    let engine = ShardedEngine::new(config, factory);

    // Port 0 = ephemeral: the OS picks a free loopback port.
    let server = serve("127.0.0.1:0", engine).expect("bind loopback");
    let addr = server.local_addr();
    println!("server A listening on {addr}");

    let mut client = Client::connect(addr).expect("connect");

    // A zipfian turnstile workload, ingested in batches like a real feed.
    let x = pts_stream::gen::zipf_vector(universe, 1.1, 800, 7);
    let updates: Vec<Update> = x.iter_nonzero().map(|(i, v)| Update::new(i, v)).collect();
    for chunk in updates.chunks(256) {
        client
            .submit_ingest_batch_ns(DEFAULT_NAMESPACE, chunk)
            .and_then(Pending::wait)
            .expect("ingest");
    }

    let stats = client
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .and_then(Pending::wait)
        .expect("stats");
    println!(
        "ingested {} updates over {} batches; mass {:.1}, support {}",
        stats.updates, stats.batches, stats.mass, stats.support
    );

    // Sample mid-stream, over the wire.
    print!("6 draws from the L2 law:");
    for draw in client
        .submit_sample_many_ns(DEFAULT_NAMESPACE, 6)
        .and_then(Pending::wait)
        .expect("sample")
    {
        match draw {
            Some(s) => print!("  {}:{}", s.index, s.estimate),
            None => print!("  ⊥"),
        }
    }
    println!();

    // ---- Act 2: checkpoint over the wire, kill, restore ---------------
    let checkpoint = client
        .submit_checkpoint_ns(DEFAULT_NAMESPACE)
        .and_then(Pending::wait)
        .expect("checkpoint");
    println!("pulled a {}-byte engine checkpoint", checkpoint.len());

    // What would the service serve next? Record it, then kill the server.
    let expected: Vec<Option<Sample>> = client
        .submit_sample_many_ns(DEFAULT_NAMESPACE, 8)
        .and_then(Pending::wait)
        .expect("post-checkpoint draws");
    client
        .submit_shutdown()
        .and_then(Pending::wait)
        .expect("shutdown");
    server.join();
    println!("server A is gone (accept loop exited, handlers joined)");

    // A fresh server, fresh port, hosting a blank engine of the same
    // type — one Restore request replaces its state wholesale.
    let stand_in = ShardedEngine::new(config.seed(999), factory);
    let server_b = serve("127.0.0.1:0", stand_in).expect("bind replacement");
    let mut client_b = Client::connect(server_b.local_addr()).expect("reconnect");
    client_b
        .submit_restore_ns(DEFAULT_NAMESPACE, &checkpoint)
        .and_then(Pending::wait)
        .expect("restore");
    println!(
        "server B restored the checkpoint on {}",
        server_b.local_addr()
    );

    let replayed = client_b
        .submit_sample_many_ns(DEFAULT_NAMESPACE, 8)
        .and_then(Pending::wait)
        .expect("replayed draws");
    assert_eq!(
        replayed, expected,
        "restored service must serve identical draws"
    );
    print!("8 post-restart draws, identical to the killed server's:");
    for draw in &replayed {
        match draw {
            Some(s) => print!("  {}:{}", s.index, s.estimate),
            None => print!("  ⊥"),
        }
    }
    println!();

    client_b
        .submit_shutdown()
        .and_then(Pending::wait)
        .expect("shutdown B");
    server_b.join();
    println!("crash-recovered service verified: draw-for-draw identical ✔");

    if let Some(endpoint) = metrics {
        println!("\nwhat the session looked like to a scraper:");
        for line in pts_obs::render_prometheus()
            .lines()
            .filter(|l| l.starts_with("pts_server_requests") || l.starts_with("pts_engine_ingest"))
        {
            println!("  {line}");
        }
        endpoint.join();
    }
}
