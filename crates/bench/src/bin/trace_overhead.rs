//! `trace_overhead` — one side of the `tr1` measurement.
//!
//! Drives the m1 depth-16 pipelined `Stats` workload against one loopback
//! server in *this* build and prints machine-parsable lines; experiment
//! `tr1` runs this binary three times — obs-off (`--no-default-features`),
//! obs-on untraced, and obs-on with `--traced` (1/256 request sampling) —
//! and compares the reported rates. The split exists because
//! observability is a compile-time feature and trace sampling is a
//! per-connection config: one process run measures exactly one
//! configuration.
//!
//! ```text
//! trace_overhead [--traced] [--full]
//! ```
//!
//! Output contract (parsed by `experiments::trace`):
//!
//! ```text
//! obs=on|off
//! traced=on|off
//! trial workload=d16 i=0 requests=4000 seconds=0.021 rate=190000
//! ...
//! best workload=d16 requests_per_sec=195000
//! ```

use pts_engine::{EngineConfig, L0Factory, ShardedEngine};
use pts_server::{serve, Client, ClientConfig, Pending};
use pts_util::protocol::DEFAULT_NAMESPACE;
use std::collections::VecDeque;
use std::time::Instant;

/// The m1 sweet spot: deep enough to amortize round trips, small enough
/// that the server's dispatch path, not the demux table, is what's timed.
const DEPTH: usize = 16;
/// 1-in-N request sampling for the traced side — the rate the ≤5%
/// overhead gate is defined at.
const TRACE_EVERY: u64 = 256;

/// Drives `total` Stats requests through a window of `DEPTH` in-flight
/// handles; returns elapsed seconds.
fn run_pass(client: &mut Client, total: u64) -> f64 {
    let started = Instant::now();
    let mut window = VecDeque::with_capacity(DEPTH);
    for _ in 0..total {
        if window.len() == DEPTH {
            let front: pts_server::Pending<_> = window.pop_front().expect("non-empty window");
            front.wait().expect("stats response");
        }
        window.push_back(
            client
                .submit_stats_ns(DEFAULT_NAMESPACE)
                .expect("submit stats"),
        );
    }
    for pending in window {
        pending.wait().expect("stats response");
    }
    started.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let full = args.iter().any(|a| a == "--full");
    let traced = args.iter().any(|a| a == "--traced");
    let trials = if full { 7 } else { 5 };
    let total: u64 = if full { 20_000 } else { 4_000 };

    let engine = ShardedEngine::new(
        EngineConfig::new(1 << 10).shards(2).pool_size(1).seed(4242),
        L0Factory::default(),
    );
    let server = serve("127.0.0.1:0", engine).expect("bind loopback server");
    let mut config = ClientConfig::new().max_in_flight(DEPTH);
    if traced {
        config = config.trace_sampling(TRACE_EVERY);
    }
    let mut client = Client::connect_with(server.local_addr(), &config).expect("connect");

    println!("obs={}", if pts_obs::enabled() { "on" } else { "off" });
    println!("traced={}", if traced { "on" } else { "off" });
    // One discarded warmup pass: cold caches and CPU frequency ramp are
    // not what best-of-N should see.
    let _ = run_pass(&mut client, total);
    let mut best = 0.0f64;
    for i in 0..trials {
        let secs = run_pass(&mut client, total);
        let rate = total as f64 / secs;
        best = best.max(rate);
        println!("trial workload=d16 i={i} requests={total} seconds={secs:.3} rate={rate:.0}");
    }
    println!("best workload=d16 requests_per_sec={best:.0}");
    client
        .submit_shutdown()
        .and_then(Pending::wait)
        .expect("shutdown");
    server.join();
}
