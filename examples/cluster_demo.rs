//! Three servers, one sampler: the full `pts-cluster` arc over loopback.
//!
//! Act 1 — a 3-node cluster as **one logical perfect sampler**: the
//! coordinator routes batched turnstile ingest to each update's slice
//! owner and serves draws by the distributed two-stage law (a `Stats`
//! scatter for the exact per-node `G`-masses, a node pick ∝ mass, a
//! `Sample` fetch from the picked node).
//!
//! Act 2 — **failover**: checkpoint one node over the wire, kill its
//! server, watch the cluster degrade honestly (typed errors, per-node
//! health), bring up a replacement on a fresh port, and `rejoin` it from
//! the checkpoint. A control cluster that never lost the node runs the
//! identical call sequence throughout — and the demo asserts the
//! recovered cluster's draws match the control's **draw for draw**: the
//! failure is invisible in the sampling record.
//!
//! Run with: `cargo run --release --example cluster_demo`
//!
//! Add `--metrics-addr 127.0.0.1:9185` to also expose the process-global
//! metrics registry (coordinator scatter/gather latency, node health
//! transitions, rebalance bytes, …) as a Prometheus-text scrape endpoint.

use perfect_sampling::{prelude::*, pts_obs};
use pts_server::serve;
use std::time::Duration;

/// Spawns one cluster's worth of loopback servers (seeds per slot, so the
/// subject and control clusters are twins).
fn spawn_nodes(universe: usize, count: usize) -> Vec<pts_server::Server> {
    (0..count)
        .map(|i| {
            let engine = ShardedEngine::new(
                EngineConfig::new(universe)
                    .shards(2)
                    .pool_size(2)
                    .seed(500 + i as u64),
                LpLe2Factory::for_universe(universe, 2.0),
            );
            serve("127.0.0.1:0", engine).expect("bind loopback node")
        })
        .collect()
}

fn cluster_over(universe: usize, servers: &[pts_server::Server]) -> Coordinator {
    let mut config = ClusterConfig::new(universe).seed(4242).client(
        ClientConfig::new()
            .connect_timeout(Duration::from_secs(2))
            .read_timeout(Duration::from_secs(5))
            .write_timeout(Duration::from_secs(5)),
    );
    for server in servers {
        config = config.node(server.local_addr().to_string());
    }
    Coordinator::connect(config).expect("connect cluster")
}

fn main() {
    let universe = 1 << 12;

    // Opt-in observability: one scrape endpoint over the registry the
    // coordinator, its client connections, and both demo clusters' node
    // servers all share (everything here is one process).
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

    // ---- Act 1: three nodes, one sampling law --------------------------
    let mut subject_servers = spawn_nodes(universe, 3);
    let control_servers = spawn_nodes(universe, 3);
    let mut cluster = cluster_over(universe, &subject_servers);
    let mut control = cluster_over(universe, &control_servers);
    for (node, server) in subject_servers.iter().enumerate() {
        let (lo, hi) = cluster.slice_range(node);
        println!("node {node} on {} owns [{lo}, {hi})", server.local_addr());
    }

    let x = pts_stream::gen::zipf_vector(universe, 1.1, 900, 11);
    let updates: Vec<Update> = x.iter_nonzero().map(|(i, v)| Update::new(i, v)).collect();
    for chunk in updates.chunks(256) {
        cluster.ingest_batch(chunk).expect("ingest");
        control.ingest_batch(chunk).expect("ingest control");
    }

    let stats = cluster.stats();
    println!(
        "ingested {} updates across {} nodes; cluster mass {:.1}, support {}",
        stats.total_updates,
        stats.nodes.len(),
        stats.total_mass,
        stats.total_support
    );

    print!("6 draws from the cluster-wide L2 law:");
    for draw in cluster.sample_many(6).expect("scatter-gather draws") {
        match draw {
            Some(s) => print!("  {}:{}", s.index, s.estimate),
            None => print!("  ⊥"),
        }
    }
    println!();
    let _ = control.sample_many(6).expect("control keeps lockstep");

    // ---- Act 2: kill a node, degrade honestly, rejoin identically ------
    let checkpoint = cluster.checkpoint_node(1).expect("checkpoint node 1");
    println!(
        "pulled node 1's {}-byte checkpoint; killing its server",
        checkpoint.len()
    );
    subject_servers.remove(1).join();

    match cluster.sample() {
        Err(err) => println!("degraded as designed: {err}"),
        Ok(_) => unreachable!("a draw cannot be served without node 1's mass"),
    }
    let degraded = cluster.stats();
    assert!(degraded.degraded());
    for (node, status) in degraded.nodes.iter().enumerate() {
        println!(
            "  node {node} {:?} (slice {:?})",
            status.health, status.slice
        );
    }

    let replacement = serve(
        "127.0.0.1:0",
        ShardedEngine::new(
            EngineConfig::new(universe).shards(2).pool_size(2).seed(999),
            LpLe2Factory::for_universe(universe, 2.0),
        ),
    )
    .expect("bind replacement");
    cluster
        .rejoin(1, replacement.local_addr().to_string(), &checkpoint)
        .expect("rejoin from checkpoint");
    println!(
        "node 1 rejoined on {} from its checkpoint",
        replacement.local_addr()
    );
    assert!(!cluster.stats().degraded());

    // The proof: the recovered cluster and the never-interrupted control
    // serve identical draws from here on.
    let recovered = cluster.sample_many(8).expect("post-rejoin draws");
    let expected = control.sample_many(8).expect("control draws");
    assert_eq!(
        recovered, expected,
        "recovered cluster must match the uninterrupted control"
    );
    print!("8 post-failover draws, identical to the control cluster's:");
    for draw in &recovered {
        match draw {
            Some(s) => print!("  {}:{}", s.index, s.estimate),
            None => print!("  ⊥"),
        }
    }
    println!();

    drop(cluster);
    drop(control);
    replacement.join();
    for server in subject_servers.into_iter().chain(control_servers) {
        server.join();
    }
    println!("failover-recovered cluster verified: draw-for-draw identical ✔");

    if let Some(endpoint) = metrics {
        println!("\nwhat the failover looked like to a scraper:");
        for line in pts_obs::render_prometheus()
            .lines()
            .filter(|l| l.starts_with("pts_cluster_node") || l.starts_with("pts_cluster_scatter"))
        {
            println!("  {line}");
        }
        println!("and to the event ring:");
        for event in pts_obs::drain_events()
            .iter()
            .filter(|e| e.kind.starts_with("cluster."))
        {
            println!("  [{}] {}: {}", event.seq, event.kind, event.detail);
        }
        endpoint.join();
    }
}
