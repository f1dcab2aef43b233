//! M1: wire v3 multiplexing — requests/sec vs in-flight depth, plus the
//! cluster scatter's round-trip collapse.
//!
//! Two measurements of the same mechanism:
//!
//! * **Depth sweep** — one loopback server, one connection, `Stats`
//!   requests driven through a sliding window of `D ∈ {1, 4, 16, 64}`
//!   in-flight [`pts_server::Pending`] handles. `D = 1` *is* the lockstep
//!   baseline (submit, wait, repeat — exactly the pre-v3 conversation);
//!   larger windows amortize one round trip over `D` requests, so
//!   requests/sec should improve monotonically with depth until the
//!   server's dispatch path saturates.
//! * **Scatter rows** — a real `pts-cluster` coordinator over
//!   `N ∈ {1, 2, 4}` loopback nodes, timing [`Coordinator::mass`] (one
//!   pipelined `Stats` scatter over all slice owners). Under lockstep
//!   this cost `N · RTT`; the v3 scatter submits every node's request
//!   before awaiting any answer, so wall-clock per scatter should stay
//!   ~flat as `N` grows — the property that makes cluster draws
//!   affordable on real networks.
//!
//! Loopback RTTs are microseconds, so the absolute ratios here understate
//! what a datacenter network would show; the *shape* (monotone in depth,
//! flat in N) is the reproducible claim.

use pts_cluster::{ClusterConfig, Coordinator};
use pts_engine::{EngineConfig, L0Factory, ShardedEngine};
use pts_server::{serve, Client, ClientConfig, Server};
use pts_util::protocol::DEFAULT_NAMESPACE;
use pts_util::table::fmt_sig;
use pts_util::Table;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// The in-flight depths swept (1 = the lockstep baseline).
const DEPTHS: [usize; 4] = [1, 4, 16, 64];
/// The scatter node counts swept.
const NODE_COUNTS: [usize; 3] = [1, 2, 4];

/// A small served engine — the request path, not the sampler, is the
/// thing under test.
pub(crate) fn small_engine(seed: u64) -> ShardedEngine<L0Factory> {
    ShardedEngine::new(
        EngineConfig::new(1 << 10).shards(2).pool_size(1).seed(seed),
        L0Factory::default(),
    )
}

/// Drives `total` Stats requests through a window of `depth` in-flight
/// handles; returns elapsed seconds.
pub(crate) fn depth_run(client: &mut Client, total: u64, depth: usize) -> f64 {
    let started = Instant::now();
    let mut window = VecDeque::with_capacity(depth);
    for _ in 0..total {
        if window.len() == depth {
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

/// Spawns `nodes` loopback servers behind a coordinator (no ingest — the
/// scatter itself is the thing being timed, and `Stats` on an empty
/// engine exercises the identical path).
fn spawn_cluster(nodes: usize) -> (Vec<Server>, Coordinator) {
    let n = 1 << 10;
    let servers: Vec<Server> = (0..nodes)
        .map(|i| serve("127.0.0.1:0", small_engine(8100 + i as u64)).expect("bind node"))
        .collect();
    let mut config = ClusterConfig::new(n).seed(17).client(
        ClientConfig::new()
            .connect_timeout(Duration::from_secs(5))
            .read_timeout(Duration::from_secs(30))
            .write_timeout(Duration::from_secs(30)),
    );
    for server in &servers {
        config = config.node(server.local_addr().to_string());
    }
    let cluster = Coordinator::connect(config).expect("connect cluster");
    (servers, cluster)
}

/// M1 runner.
pub fn m1_multiplexing(quick: bool) -> Table {
    let requests: u64 = if quick { 2_000 } else { 20_000 };
    let scatters: u64 = if quick { 200 } else { 2_000 };
    let mut table = Table::new(["mode", "depth", "nodes", "ops", "seconds", "ops/sec"]);

    // Depth sweep: one server, one connection per depth (a fresh
    // connection keeps ids and demux state comparable across rows).
    let server = serve("127.0.0.1:0", small_engine(8000)).expect("bind server");
    for depth in DEPTHS {
        let config = ClientConfig::new().max_in_flight(depth);
        let mut client = Client::connect_with(server.local_addr(), &config).expect("connect");
        let secs = depth_run(&mut client, requests, depth);
        let rate = requests as f64 / secs;
        println!(
            "  pipeline D={depth}: {requests} requests in {secs:.3}s = {} req/s",
            fmt_sig(rate, 3)
        );
        table.push_row([
            "pipeline".into(),
            depth.to_string(),
            "1".into(),
            requests.to_string(),
            fmt_sig(secs, 3),
            fmt_sig(rate, 3),
        ]);
    }
    server.join();

    // Scatter rows: wall-clock per pipelined Stats scatter vs node count.
    for nodes in NODE_COUNTS {
        let (servers, mut cluster) = spawn_cluster(nodes);
        let started = Instant::now();
        for _ in 0..scatters {
            let _ = cluster.mass().expect("mass scatter");
        }
        let secs = started.elapsed().as_secs_f64();
        let rate = scatters as f64 / secs;
        println!(
            "  scatter N={nodes}: {scatters} scatters in {secs:.3}s = {} scatters/s ({} µs each)",
            fmt_sig(rate, 3),
            fmt_sig(secs * 1e6 / scatters as f64, 3)
        );
        table.push_row([
            "scatter".into(),
            "-".into(),
            nodes.to_string(),
            scatters.to_string(),
            fmt_sig(secs, 3),
            fmt_sig(rate, 3),
        ]);
        drop(cluster);
        for server in servers {
            server.join();
        }
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Shape only — no timing asserts (CI machines are noisy and may be
    /// single-core; the monotone-in-depth / flat-in-N claims live in the
    /// recorded EXPERIMENTS.md runs).
    #[test]
    fn m1_reports_every_depth_and_node_count() {
        let t = m1_multiplexing(true);
        assert_eq!(t.len(), DEPTHS.len() + NODE_COUNTS.len());
        let rows = t.rows();
        for (row, depth) in rows.iter().zip(DEPTHS) {
            assert_eq!(row[0], "pipeline", "row order drifted: {row:?}");
            assert_eq!(row[1], depth.to_string(), "missing depth row D={depth}");
            assert_eq!(row[2], "1", "depth rows are single-node");
        }
        for (row, nodes) in rows.iter().skip(DEPTHS.len()).zip(NODE_COUNTS) {
            assert_eq!(row[0], "scatter", "row order drifted: {row:?}");
            assert_eq!(row[2], nodes.to_string(), "missing scatter row N={nodes}");
        }
        // Every depth row drove the identical request count.
        assert!(rows[..DEPTHS.len()].iter().all(|r| r[3] == rows[0][3]));
    }
}
