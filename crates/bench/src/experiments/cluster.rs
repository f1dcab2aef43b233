//! C1: cluster throughput and sample latency vs node count.
//!
//! Drives the `s1`/`n1` zipfian turnstile workload through a real
//! `pts-cluster` coordinator over `N ∈ {1, 2, 4}` loopback `pts-server`
//! nodes (batched ingest routed per slice owner — one `IngestBatch`
//! request per touched node per batch), then times the scatter–gather
//! draw path: each `sample()` is one `Stats` scatter (`N` round trips
//! for the exact per-node masses) plus one `Sample` fetch from the
//! picked node, so the draw column directly prices the coordinator's
//! consistency protocol as a function of `N`. The last row repeats the
//! identical workload **in-process** on one `ShardedEngine` (no
//! sockets, direct calls) — the single-engine reference the cluster's
//! law is pinned against in `crates/cluster/tests/cluster_law.rs`.
//!
//! Timing is gated on cluster-side completion: every ingest run ends
//! with a mass scatter before the clock stops (the `Stats` answer
//! observes every previously acknowledged apply on each node), the
//! cluster analogue of `n1`'s final `Stats` round trip.

use pts_cluster::{ClusterConfig, Coordinator};
use pts_engine::{EngineConfig, LpLe2Factory, ShardedEngine};
use pts_server::{serve, ClientConfig, Server};
use pts_stream::gen::zipf_vector;
use pts_stream::{Stream, StreamStyle};
use pts_util::table::fmt_sig;
use pts_util::{Table, Xoshiro256pp};
use std::time::{Duration, Instant};

/// The node counts swept.
const NODE_COUNTS: [usize; 3] = [1, 2, 4];
/// Ingest batch size (the `n1` sweet spot).
const BATCH: usize = 1024;

/// The fixed workload (the `s1`/`n1` shape).
fn workload(quick: bool) -> (Stream, usize, usize) {
    let n = 1 << 12;
    let target_updates = if quick { 60_000 } else { 600_000 };
    let x = zipf_vector(n, 1.0, 500, 4242);
    let mut rng = Xoshiro256pp::new(4243);
    let base = Stream::from_target(&x, StreamStyle::Turnstile { churn: 1.0 }, &mut rng);
    let reps = target_updates / base.len().max(1) + 1;
    (base, reps, n)
}

fn node_engine(n: usize, seed: u64) -> ShardedEngine<LpLe2Factory> {
    let factory = LpLe2Factory::for_universe(n, 2.0);
    ShardedEngine::new(
        EngineConfig::new(n).shards(2).pool_size(2).seed(seed),
        factory,
    )
}

fn spawn_cluster(n: usize, nodes: usize) -> (Vec<Server>, Coordinator) {
    let servers: Vec<Server> = (0..nodes)
        .map(|i| serve("127.0.0.1:0", node_engine(n, 7000 + i as u64)).expect("bind node"))
        .collect();
    let mut config = ClusterConfig::new(n).seed(99).client(
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

/// C1 runner.
pub fn c1_cluster_scaling(quick: bool) -> Table {
    let (base, reps, n) = workload(quick);
    let draw_trials: u64 = if quick { 200 } else { 1_000 };
    let mut table = Table::new([
        "topology",
        "nodes",
        "updates",
        "seconds",
        "updates/sec",
        "draws",
        "draw_us",
    ]);

    for nodes in NODE_COUNTS {
        let (servers, mut cluster) = spawn_cluster(n, nodes);

        let started = Instant::now();
        for _ in 0..reps {
            for batch in base.batches(BATCH) {
                cluster.ingest_batch(batch).expect("cluster ingest");
            }
        }
        // Cluster-side completion gate (see module docs).
        let _ = cluster.mass().expect("mass scatter");
        let ingest_secs = started.elapsed().as_secs_f64();
        let updates = cluster.stats().total_updates;

        let started = Instant::now();
        for _ in 0..draw_trials {
            let _ = cluster.sample().expect("scatter-gather draw");
        }
        let draw_us = started.elapsed().as_secs_f64() * 1e6 / draw_trials as f64;

        let upd_rate = updates as f64 / ingest_secs;
        println!(
            "  cluster N={nodes}: {updates} updates in {ingest_secs:.2}s = {} upd/s; {draw_trials} draws at {} µs each",
            fmt_sig(upd_rate, 3),
            fmt_sig(draw_us, 3)
        );
        table.push_row([
            "cluster".into(),
            nodes.to_string(),
            updates.to_string(),
            fmt_sig(ingest_secs, 3),
            fmt_sig(upd_rate, 3),
            draw_trials.to_string(),
            fmt_sig(draw_us, 3),
        ]);

        drop(cluster);
        for server in servers {
            server.join();
        }
    }

    // The no-socket reference: one engine, direct calls, same workload
    // and the same draw count.
    let mut direct = node_engine(n, 7000);
    let started = Instant::now();
    for _ in 0..reps {
        for batch in base.batches(BATCH) {
            direct.ingest_batch(batch);
        }
    }
    let ingest_secs = started.elapsed().as_secs_f64();
    let updates = direct.stats().updates;
    let started = Instant::now();
    for _ in 0..draw_trials {
        let _ = direct.sample();
    }
    let draw_us = started.elapsed().as_secs_f64() * 1e6 / draw_trials as f64;
    let upd_rate = updates as f64 / ingest_secs;
    println!(
        "  in-proc N=1: {updates} updates in {ingest_secs:.2}s = {} upd/s; {draw_trials} draws at {} µs each",
        fmt_sig(upd_rate, 3),
        fmt_sig(draw_us, 3)
    );
    table.push_row([
        "in-proc".into(),
        "1".into(),
        updates.to_string(),
        fmt_sig(ingest_secs, 3),
        fmt_sig(upd_rate, 3),
        draw_trials.to_string(),
        fmt_sig(draw_us, 3),
    ]);
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn c1_reports_every_node_count_plus_reference() {
        let t = c1_cluster_scaling(true);
        assert_eq!(t.len(), NODE_COUNTS.len() + 1);
        let rows = t.rows();
        for (row, nodes) in rows.iter().zip(NODE_COUNTS) {
            assert_eq!(row[0], "cluster", "row order drifted: {row:?}");
            assert_eq!(row[1], nodes.to_string(), "missing cluster row N={nodes}");
        }
        let reference = rows.last().expect("non-empty table");
        assert_eq!(reference[0], "in-proc", "missing reference row");
        // Every topology saw the identical workload.
        assert!(rows.iter().all(|r| r[2] == rows[0][2]));
    }
}
