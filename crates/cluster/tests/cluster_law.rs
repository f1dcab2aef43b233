//! The cluster acceptance pins, against **real loopback servers**:
//!
//! * **Sampling law** — draws served by a 2-node (and 3-node) cluster fit
//!   the ideal single-engine law `G(x_i)/Σ_j G(x_j)` by chi-squared: the
//!   coordinator's node-pick ∝ exact-mass stage composed with each node's
//!   own two-stage draw must be indistinguishable from one engine over
//!   the whole stream.
//! * **Failover identity** — checkpoint a node, kill its server, bring up
//!   a replacement, `rejoin` from the checkpoint: the recovered cluster
//!   serves **draw-for-draw** the same samples as an uninterrupted
//!   control cluster driven through the identical call sequence.
//! * **Rebalance mid-stream** — migrating a slice to a standby between
//!   two halves of a stream preserves the sampling law over the final
//!   vector.
//! * **Tenant migration identity** — checkpoint one tenant on one node,
//!   shed it there, restore it onto a *different* node: that tenant (and
//!   every other namespace) continues draw-for-draw identical to an
//!   uninterrupted control cluster.

use pts_cluster::{ClusterConfig, ClusterError, Coordinator, NodeHealth};
use pts_engine::{EngineConfig, L0Factory, LpLe2Factory, SamplerFactory, ShardedEngine};
use pts_server::{serve, serve_with_spawner, ClientConfig, Server};
use pts_stream::{FrequencyVector, Update};
use pts_util::protocol::DEFAULT_NAMESPACE;
use pts_util::stats::chi_square_test;
use pts_util::{Decode, Encode};
use std::time::Duration;

fn updates_of(x: &FrequencyVector) -> Vec<Update> {
    x.iter_nonzero().map(|(i, v)| Update::new(i, v)).collect()
}

/// Spawns `count` loopback servers over `factory`, seeds `100 + i`.
fn spawn_nodes<F>(universe: usize, count: usize, factory: F) -> Vec<Server>
where
    F: SamplerFactory + Encode + Decode + Send + 'static,
    F::Sampler: Encode + Decode + Send + 'static,
{
    (0..count)
        .map(|i| {
            let engine = ShardedEngine::new(
                EngineConfig::new(universe)
                    .shards(2)
                    .pool_size(2)
                    .seed(100 + i as u64),
                factory.clone(),
            );
            serve("127.0.0.1:0", engine).expect("bind loopback node")
        })
        .collect()
}

/// Spawns `count` tenant-capable loopback servers: the default engine is
/// seeded `100 + i` like [`spawn_nodes`], and each server's spawner
/// builds tenant engines over the same universe/factory with a seed
/// that is a pure function of `(i, ns)` — so two clusters spawned this
/// way build bit-identical tenants and can be compared draw for draw.
fn spawn_tenant_nodes<F>(universe: usize, count: usize, factory: F) -> Vec<Server>
where
    F: SamplerFactory + Encode + Decode + Send + Sync + 'static,
    F::Sampler: Encode + Decode + Send + 'static,
{
    (0..count)
        .map(|i| {
            let engine = ShardedEngine::new(
                EngineConfig::new(universe)
                    .shards(2)
                    .pool_size(2)
                    .seed(100 + i as u64),
                factory.clone(),
            );
            let tenant_factory = factory.clone();
            serve_with_spawner("127.0.0.1:0", engine, move |ns| {
                ShardedEngine::new(
                    EngineConfig::new(universe)
                        .shards(2)
                        .pool_size(2)
                        .seed(100 + i as u64 + 7919 * (ns + 1)),
                    tenant_factory.clone(),
                )
            })
            .expect("bind tenant-capable loopback node")
        })
        .collect()
}

/// A cluster config over the given servers (all active), with real
/// client deadlines so a dead node is detected, not hung on.
fn cluster_over(universe: usize, servers: &[Server], seed: u64) -> ClusterConfig {
    let mut config = ClusterConfig::new(universe).seed(seed).client(
        ClientConfig::new()
            .connect_timeout(Duration::from_secs(5))
            .read_timeout(Duration::from_secs(10))
            .write_timeout(Duration::from_secs(10)),
    );
    for server in servers {
        config = config.node(server.local_addr().to_string());
    }
    config
}

/// Cluster draws over `nodes` real servers fit the ideal law of `x`.
fn law_through_cluster<F>(x: &FrequencyVector, factory: F, nodes: usize, trials: u64, max_fail: f64)
where
    F: SamplerFactory + Encode + Decode + Send + 'static,
    F::Sampler: Encode + Decode + Send + 'static,
{
    let weights: Vec<f64> = x.values().iter().map(|&v| factory.weight(v)).collect();
    let total: f64 = weights.iter().sum();
    let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();

    let servers = spawn_nodes(x.n(), nodes, factory);
    let mut cluster = Coordinator::connect(cluster_over(x.n(), &servers, 42)).expect("connect");
    cluster.ingest_batch(&updates_of(x)).expect("ingest");

    // The exact masses must decompose the global mass across nodes.
    let mass = cluster.mass().expect("mass scatter");
    assert!(
        (mass - total).abs() < 1e-6 * total.max(1.0),
        "mass {mass} vs {total}"
    );

    let mut counts = vec![0u64; x.n()];
    let mut fails = 0u64;
    let mut remaining = trials;
    while remaining > 0 {
        let take = remaining.min(500);
        for draw in cluster.sample_many(take).expect("scatter-gather draw") {
            match draw {
                Some(s) => counts[s.index as usize] += 1,
                None => fails += 1,
            }
        }
        remaining -= take;
    }
    assert!(
        (fails as f64) < trials as f64 * max_fail,
        "fails {fails}/{trials}"
    );
    let chi = chi_square_test(&counts, &probs, 5.0);
    assert!(
        chi.p_value > 1e-4,
        "cluster law off ({nodes} nodes): chi2 {:.2} p {:.6}",
        chi.statistic,
        chi.p_value
    );
    drop(cluster);
    for server in servers {
        server.join();
    }
}

#[test]
fn two_node_cluster_serves_the_l0_law() {
    let mut values = vec![0i64; 24];
    for (k, &i) in [1usize, 4, 7, 11, 13, 17, 20, 23].iter().enumerate() {
        values[i] = if k % 2 == 0 { 1 << k } else { -(3 + k as i64) };
    }
    law_through_cluster(
        &FrequencyVector::from_values(values),
        L0Factory::default(),
        2,
        3_000,
        0.05,
    );
}

#[test]
fn three_node_cluster_serves_the_l2_law() {
    let x = FrequencyVector::from_values(vec![10, -20, 30, 5, 0, 15, -8, 12, 25, -6, 9, 14]);
    let factory = LpLe2Factory::for_universe(x.n(), 2.0);
    law_through_cluster(&x, factory, 3, 1_500, 0.25);
}

#[test]
fn ingest_routes_each_update_to_its_slice_owner() {
    let n = 96;
    let servers = spawn_nodes(n, 3, L0Factory::default());
    let mut cluster = Coordinator::connect(cluster_over(n, &servers, 5)).expect("connect");
    // One update per coordinate: node i must hold exactly its slice.
    let updates: Vec<Update> = (0..n as u64)
        .map(|i| Update::new(i, 1 + i as i64))
        .collect();
    assert_eq!(cluster.ingest_batch(&updates).unwrap(), n as u64);

    let stats = cluster.stats();
    assert!(!stats.degraded());
    assert_eq!(stats.total_support, n as u64);
    for (node, status) in stats.nodes.iter().enumerate() {
        let (lo, hi) = cluster.slice_range(status.slice.expect("all nodes own slices"));
        let service = status.service.as_ref().expect("node is up");
        assert_eq!(
            service.support,
            hi - lo,
            "node {node} holds the wrong slice"
        );
        assert_eq!(service.universe, n as u64);
    }

    // Out-of-universe rejection is atomic: nothing is sent.
    let before = cluster.stats().total_updates;
    let err = cluster
        .ingest_batch(&[Update::new(0, 1), Update::new(n as u64, 1)])
        .unwrap_err();
    assert!(matches!(err, ClusterError::OutOfUniverse { index } if index == n as u64));
    assert_eq!(cluster.stats().total_updates, before);

    drop(cluster);
    for server in servers {
        server.join();
    }
}

/// The acceptance scenario: two identical 3-node clusters driven through
/// the identical call sequence; the subject loses a node and recovers it
/// from a checkpoint, the control never does — and every draw after the
/// recovery point matches draw for draw.
#[test]
fn kill_restore_rejoin_is_draw_for_draw_identical_to_control() {
    let n = 192;
    let factory = LpLe2Factory::for_universe(n, 2.0);
    let x = pts_stream::gen::zipf_vector(n, 1.1, 90, 13);

    let mut subject_servers = spawn_nodes(n, 3, factory);
    let control_servers = spawn_nodes(n, 3, factory);
    let mut subject = Coordinator::connect(cluster_over(n, &subject_servers, 77)).unwrap();
    let mut control = Coordinator::connect(cluster_over(n, &control_servers, 77)).unwrap();

    for cluster in [&mut subject, &mut control] {
        cluster.ingest_batch(&updates_of(&x)).unwrap();
    }
    // Warm-up draws consume pool state on the nodes (the checkpoint must
    // carry *mid-life* sampler state, not a fresh pool).
    assert_eq!(
        subject.sample_many(6).unwrap(),
        control.sample_many(6).unwrap(),
        "same seeds must serve the same draws before any failure"
    );

    // Checkpoint node 1, then kill its server with no intervening ops
    // (join = accept loop and every handler gone, connection closed).
    let checkpoint = subject.checkpoint_node(1).unwrap();
    subject_servers.remove(1).join();

    // The dead node yields a typed error and degraded per-node health.
    let err = subject.sample().unwrap_err();
    assert!(
        matches!(
            err,
            ClusterError::Node { node: 1, .. } | ClusterError::NodeDown { node: 1, .. }
        ),
        "wrong failure: {err}"
    );
    let stats = subject.stats();
    assert!(stats.degraded());
    assert_eq!(stats.nodes[1].health, NodeHealth::Down);
    assert_eq!(stats.nodes[0].health, NodeHealth::Up);

    // Ingest to the dead node's slice is a typed error too; a batch
    // touching only live slices still lands.
    let (lo, _) = cluster_slice_of(&subject, 1);
    assert!(subject
        .ingest_batch(&[Update::new(lo, 1), Update::new(lo, -1)])
        .is_err());

    // A replacement server (blank engine, different seed) + rejoin from
    // the checkpoint.
    let replacement = serve(
        "127.0.0.1:0",
        ShardedEngine::new(
            EngineConfig::new(n).shards(2).pool_size(2).seed(9999),
            factory,
        ),
    )
    .unwrap();
    subject
        .rejoin(1, replacement.local_addr().to_string(), &checkpoint)
        .unwrap();
    assert!(!subject.stats().degraded());

    // From here on: identical draws, masses, and ingest across both
    // clusters — the failure is invisible in the sampling record.
    assert_eq!(subject.mass().unwrap(), control.mass().unwrap());
    let churn: Vec<Update> = x
        .iter_nonzero()
        .take(30)
        .map(|(i, v)| Update::new(i, -v.signum()))
        .collect();
    subject.ingest_batch(&churn).unwrap();
    control.ingest_batch(&churn).unwrap();
    let subject_draws = subject.sample_many(40).unwrap();
    let control_draws = control.sample_many(40).unwrap();
    assert_eq!(
        subject_draws, control_draws,
        "recovered cluster diverged from the uninterrupted control"
    );

    drop(subject);
    drop(control);
    replacement.join();
    for server in subject_servers.into_iter().chain(control_servers) {
        server.join();
    }
}

/// The slice range owned by `node` (helper: nodes start 1:1 with slices).
fn cluster_slice_of(cluster: &Coordinator, node: usize) -> (u64, u64) {
    cluster.slice_range(cluster.node_slice(node).expect("node owns a slice"))
}

/// Rebalancing a slice to a standby mid-stream preserves the sampling
/// law over the final vector (and flips ownership/health bookkeeping).
#[test]
fn rebalance_mid_stream_preserves_the_law() {
    let n = 32;
    let factory = L0Factory::default();
    let servers = spawn_nodes(n, 3, factory);
    let mut config = ClusterConfig::new(n).seed(21).client(
        ClientConfig::new()
            .connect_timeout(Duration::from_secs(5))
            .read_timeout(Duration::from_secs(10)),
    );
    // Nodes 0 and 1 active, node 2 standby.
    config = config
        .node(servers[0].local_addr().to_string())
        .node(servers[1].local_addr().to_string())
        .standby(servers[2].local_addr().to_string());
    let mut cluster = Coordinator::connect(config).expect("connect");
    assert_eq!(cluster.slices(), 2);
    assert_eq!(cluster.node_slice(2), None);

    // First half of the stream...
    let x = pts_stream::gen::zipf_vector(n, 1.0, 40, 3);
    let first = updates_of(&x);
    cluster.ingest_batch(&first).unwrap();
    let mass_before = cluster.mass().unwrap();

    // ...migrate node 0's slice onto the standby, mid-stream...
    cluster.rebalance(0, 2).unwrap();
    assert_eq!(cluster.node_slice(0), None, "source drained");
    assert_eq!(cluster.node_slice(2), Some(0), "standby owns the slice");
    assert_eq!(cluster.stats().rebalances, 1);
    assert_eq!(
        cluster.mass().unwrap(),
        mass_before,
        "migration must preserve the exact mass decomposition"
    );

    // Misuse is typed: the drained source cannot receive a second slice
    // owner's state while... actually it *can* now (it is standby); but
    // rebalancing from a standby cannot.
    assert!(matches!(
        cluster.rebalance(0, 1),
        Err(ClusterError::Topology(_))
    ));

    // ...second half, routed under the new ownership.
    let y = pts_stream::gen::zipf_vector(n, 1.0, 40, 4);
    cluster.ingest_batch(&updates_of(&y)).unwrap();
    let z = x.add(&y);

    let weights: Vec<f64> = z.values().iter().map(|&v| factory.weight(v)).collect();
    let total: f64 = weights.iter().sum();
    let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();
    let trials = 2_500u64;
    let mut counts = vec![0u64; n];
    let mut fails = 0u64;
    for draw in cluster.sample_many(trials).expect("post-rebalance draws") {
        match draw {
            Some(s) => counts[s.index as usize] += 1,
            None => fails += 1,
        }
    }
    assert!((fails as f64) < trials as f64 * 0.05, "fails {fails}");
    let chi = chi_square_test(&counts, &probs, 5.0);
    assert!(
        chi.p_value > 1e-4,
        "post-rebalance law off: chi2 {:.2} p {:.6}",
        chi.statistic,
        chi.p_value
    );

    drop(cluster);
    for server in servers {
        server.join();
    }
}

/// `reconnect` is the lossless revival path: when the *connection*
/// breaks but the server's state survives at the same address, the node
/// comes back with nothing restored and nothing lost.
#[test]
fn reconnect_revives_a_node_without_a_restore() {
    let n = 64;
    let mut servers = spawn_nodes(n, 2, L0Factory::default());
    let mut cluster = Coordinator::connect(cluster_over(n, &servers, 31)).expect("connect");
    let updates: Vec<Update> = (0..n as u64)
        .map(|i| Update::new(i, 1 + i as i64))
        .collect();
    cluster.ingest_batch(&updates).unwrap();
    let mass_before = cluster.mass().unwrap();

    // Preserve node 1's state and address, then kill its server — the
    // closest a test can get to "the connection died, the state did
    // not": an identical server comes back on the *same* address.
    let checkpoint = cluster.checkpoint_node(1).unwrap();
    let addr = cluster.node_addr(1).to_string();
    servers.remove(1).join();
    assert!(cluster.sample().is_err(), "dead node must be detected");
    assert_eq!(cluster.node_health(1), NodeHealth::Down);
    // While down, reconnect fails typed and the node stays down.
    assert!(cluster.reconnect(1).is_err());
    assert_eq!(cluster.node_health(1), NodeHealth::Down);

    // Revive at the same address, state restored out-of-band (operator
    // side) — from the coordinator's perspective the server is simply
    // back, state intact.
    let revived = serve(
        addr.as_str(),
        ShardedEngine::new(
            EngineConfig::new(n).shards(2).pool_size(2).seed(101),
            L0Factory::default(),
        ),
    )
    .expect("rebind the freed port");
    let mut direct = pts_server::Client::connect(&addr).unwrap();
    direct
        .submit_restore_ns(DEFAULT_NAMESPACE, &checkpoint)
        .unwrap()
        .wait()
        .unwrap();
    drop(direct);

    // reconnect: no restore through the coordinator, nothing lost.
    cluster.reconnect(1).expect("lossless revival");
    assert_eq!(cluster.node_health(1), NodeHealth::Up);
    assert_eq!(cluster.node_slice(1), Some(1), "ownership unchanged");
    assert_eq!(cluster.mass().unwrap(), mass_before, "nothing lost");
    assert!(cluster.sample().unwrap().is_some());

    drop(cluster);
    revived.join();
    for server in servers {
        server.join();
    }
}

/// A burst larger than one `Sample` request may carry
/// (`MAX_SAMPLE_COUNT`) splits into protocol-sized chunks per node
/// instead of dying on a server-side count rejection.
#[test]
fn bursts_beyond_the_protocol_sample_cap_are_chunked() {
    let n = 16;
    let servers = spawn_nodes(n, 1, L0Factory::default());
    let mut cluster = Coordinator::connect(cluster_over(n, &servers, 17)).expect("connect");
    cluster.ingest_batch(&[Update::new(3, 7)]).unwrap();

    let count = pts_util::protocol::MAX_SAMPLE_COUNT + 5;
    let draws = cluster.sample_many(count).expect("chunked burst");
    assert_eq!(draws.len(), count as usize);
    assert!(
        draws.iter().all(|d| matches!(d, Some(s) if s.index == 3)),
        "singleton support must dominate every draw"
    );

    drop(cluster);
    for server in servers {
        server.join();
    }
}

/// `rejoin` must reject a checkpoint from a different universe *after*
/// the restore — the blank replacement passes the connect-time check,
/// so the restored state is what needs validating.
#[test]
fn rejoin_rejects_a_foreign_universe_checkpoint() {
    let n = 128;
    let mut servers = spawn_nodes(n, 1, L0Factory::default());
    let mut cluster = Coordinator::connect(cluster_over(n, &servers, 8)).expect("connect");
    cluster.ingest_batch(&[Update::new(5, 2)]).unwrap();

    // A checkpoint from a universe-64 engine of the same factory type.
    let mut foreign = Vec::new();
    ShardedEngine::new(
        EngineConfig::new(64).shards(2).pool_size(2).seed(100),
        L0Factory::default(),
    )
    .checkpoint(&mut foreign)
    .unwrap();

    servers.remove(0).join();
    assert!(cluster.sample().is_err());

    // The replacement serves universe 128 (passes the attach check);
    // the foreign checkpoint would shrink it to 64 — rejected, and the
    // node stays out of the scatter set.
    let replacement = serve(
        "127.0.0.1:0",
        ShardedEngine::new(
            EngineConfig::new(n).shards(2).pool_size(2).seed(9),
            L0Factory::default(),
        ),
    )
    .unwrap();
    match cluster.rejoin(0, replacement.local_addr().to_string(), &foreign) {
        Err(ClusterError::UniverseMismatch {
            node: 0,
            got: 64,
            want: 128,
        }) => {}
        other => panic!("wanted a post-restore universe mismatch, got {other:?}"),
    }
    assert_eq!(cluster.node_health(0), NodeHealth::Down);

    drop(cluster);
    replacement.join();
    for server in servers {
        server.join();
    }
}

#[test]
fn universe_mismatch_is_detected_at_connect() {
    let servers = spawn_nodes(64, 1, L0Factory::default());
    let config = ClusterConfig::new(128)
        .node(servers[0].local_addr().to_string())
        .client(ClientConfig::new().read_timeout(Duration::from_secs(5)));
    match Coordinator::connect(config) {
        Err(ClusterError::UniverseMismatch {
            node: 0,
            got: 64,
            want: 128,
        }) => {}
        other => panic!("wanted a universe mismatch, got {other:?}"),
    }
    for server in servers {
        server.join();
    }
}

/// The tenant-granular acceptance scenario: two identical clusters (two
/// owners + a standby each) hosting namespaces 0 and 7. The subject
/// checkpoints tenant 7 on node 0, sheds it there, and restores it onto
/// the standby; the control never does. Tenant 7 *and* namespace 0 then
/// continue draw-for-draw identical to the control, a second tenant
/// migrated with the one-call `migrate_tenant` stays identical too, and
/// the topology guard rails are typed.
#[test]
fn tenant_checkpoint_restore_on_another_node_is_draw_for_draw_identical() {
    let n = 96;
    let factory = LpLe2Factory::for_universe(n, 2.0);

    let tenant_cluster = |servers: &[Server]| {
        let config = ClusterConfig::new(n)
            .seed(55)
            .client(
                ClientConfig::new()
                    .connect_timeout(Duration::from_secs(5))
                    .read_timeout(Duration::from_secs(10)),
            )
            .node(servers[0].local_addr().to_string())
            .node(servers[1].local_addr().to_string())
            .standby(servers[2].local_addr().to_string());
        Coordinator::connect(config).expect("connect")
    };
    let subject_servers = spawn_tenant_nodes(n, 3, factory);
    let control_servers = spawn_tenant_nodes(n, 3, factory);
    let mut subject = tenant_cluster(&subject_servers);
    let mut control = tenant_cluster(&control_servers);

    let base = pts_stream::gen::zipf_vector(n, 1.1, 60, 5);
    let tenant = pts_stream::gen::zipf_vector(n, 1.0, 50, 6);
    for cluster in [&mut subject, &mut control] {
        cluster.create_namespace(7).unwrap();
        cluster.ingest_batch(&updates_of(&base)).unwrap();
        cluster.ingest_batch_ns(7, &updates_of(&tenant)).unwrap();
    }

    // Per-tenant isolation at the mass level: each namespace reports
    // exactly its own stream's mass.
    let tenant_mass: f64 = tenant.values().iter().map(|&v| factory.weight(v)).sum();
    let got = subject.mass_ns(7).unwrap();
    assert!(
        (got - tenant_mass).abs() < 1e-6 * tenant_mass.max(1.0),
        "tenant mass {got} vs {tenant_mass}"
    );
    assert_eq!(got, control.mass_ns(7).unwrap());

    // Warm-up: both namespaces identical across clusters, and pool state
    // is mid-life (the checkpoint must carry it).
    assert_eq!(
        subject.sample_many_ns(7, 6).unwrap(),
        control.sample_many_ns(7, 6).unwrap()
    );
    assert_eq!(
        subject.sample_many(6).unwrap(),
        control.sample_many(6).unwrap()
    );

    // Checkpoint tenant 7's node-0 share, shed it there (server-side —
    // node 0 keeps serving namespace 0), restore onto the standby.
    let bytes = subject.checkpoint_tenant(0, 7).unwrap();
    let mut direct = pts_server::Client::connect(subject.node_addr(0)).unwrap();
    direct.submit_drop_namespace(7).unwrap().wait().unwrap();
    drop(direct);
    subject.restore_tenant(7, 0, 2, &bytes).unwrap();

    // Tenant 7 now scatters to (standby, node 1); namespace 0 still
    // lives on (0, 1). Under continued churn, every draw matches the
    // uninterrupted control — per tenant.
    let churn: Vec<Update> = tenant
        .iter_nonzero()
        .take(20)
        .map(|(i, v)| Update::new(i, -v.signum()))
        .collect();
    subject.ingest_batch_ns(7, &churn).unwrap();
    control.ingest_batch_ns(7, &churn).unwrap();
    assert_eq!(subject.mass_ns(7).unwrap(), control.mass_ns(7).unwrap());
    assert_eq!(
        subject.sample_many_ns(7, 40).unwrap(),
        control.sample_many_ns(7, 40).unwrap(),
        "restored tenant diverged from the uninterrupted control"
    );
    assert_eq!(
        subject.sample_many(40).unwrap(),
        control.sample_many(40).unwrap(),
        "namespace 0 must be untouched by the tenant migration"
    );

    // The one-call migration (checkpoint → restore → shed) on a second
    // tenant: same identity, counted as a rebalance.
    for cluster in [&mut subject, &mut control] {
        cluster.create_namespace(9).unwrap();
        cluster.ingest_batch_ns(9, &updates_of(&base)).unwrap();
    }
    subject.migrate_tenant(9, 1, 2).unwrap();
    assert_eq!(
        subject.sample_many_ns(9, 24).unwrap(),
        control.sample_many_ns(9, 24).unwrap(),
        "one-call migrated tenant diverged"
    );
    assert_eq!(subject.stats().rebalances, 1);

    // Guard rails: the default tenant is managed via rebalance/rejoin,
    // and a target already hosting the namespace is typed misuse.
    assert!(matches!(
        subject.create_namespace(0),
        Err(ClusterError::Topology(_))
    ));
    assert!(matches!(
        subject.migrate_tenant(0, 0, 2),
        Err(ClusterError::Topology(_))
    ));
    assert!(matches!(
        subject.migrate_tenant(7, 1, 2),
        Err(ClusterError::Topology(_))
    ));

    // Dropping tenant 7 cluster-wide sheds its engines; namespace 0
    // keeps serving, still identical to the control.
    subject.drop_namespace(7).unwrap();
    control.drop_namespace(7).unwrap();
    assert!(
        matches!(subject.sample_ns(7), Err(ClusterError::Node { .. })),
        "a dropped tenant must answer unknown-namespace in-band"
    );
    assert_eq!(
        subject.sample_many(10).unwrap(),
        control.sample_many(10).unwrap()
    );

    drop(subject);
    drop(control);
    for server in subject_servers.into_iter().chain(control_servers) {
        server.join();
    }
}
