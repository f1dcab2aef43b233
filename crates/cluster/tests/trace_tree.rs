//! The wire v5 distributed-tracing acceptance pin: one traced
//! [`Coordinator::sample_many`] through a **3-node loopback cluster**
//! yields one span tree — coordinator root, scatter/gather children,
//! per-node client submits, and each node's server-side stage spans
//! (queue-wait, lock-wait, engine work, response write) — all under a
//! single trace id, correctly parented across three real sockets.

use pts_cluster::{ClusterConfig, Coordinator};
use pts_engine::{EngineConfig, L0Factory, ShardedEngine};
use pts_obs::SpanRecord;
use pts_server::{serve, ClientConfig, Server};
use pts_stream::Update;
use std::collections::BTreeSet;
use std::time::{Duration, Instant};

const UNIVERSE: usize = 300;
const NODES: usize = 3;

fn spawn_nodes() -> Vec<Server> {
    (0..NODES)
        .map(|i| {
            let engine = ShardedEngine::new(
                EngineConfig::new(UNIVERSE)
                    .shards(2)
                    .pool_size(2)
                    .seed(100 + i as u64),
                L0Factory::default(),
            );
            serve("127.0.0.1:0", engine).expect("bind loopback node")
        })
        .collect()
}

#[test]
fn traced_sample_many_builds_one_tree_across_three_nodes() {
    let servers = spawn_nodes();
    let mut config = ClusterConfig::new(UNIVERSE).seed(7).client(
        ClientConfig::new()
            .connect_timeout(Duration::from_secs(5))
            .read_timeout(Duration::from_secs(10))
            .write_timeout(Duration::from_secs(10)),
    );
    for server in &servers {
        config = config.node(server.local_addr().to_string());
    }
    let mut cluster = Coordinator::connect(config).unwrap();

    // Mass on every slice, so the scatter has something to weigh and the
    // gather can land anywhere. All of this is untraced setup.
    let updates: Vec<Update> = (0..UNIVERSE as u64)
        .step_by(3)
        .map(|i| Update::new(i, 2))
        .collect();
    cluster.ingest_batch(&updates).unwrap();
    pts_obs::traces().drain(); // discard anything recorded before the burst

    cluster.set_trace_sampling(1);
    let draws = cluster.sample_many(8).unwrap();
    assert_eq!(draws.len(), 8);

    // The coordinator side alone contributes root + scatter + gather +
    // 3 scatter submits + ≥1 gather submit; each of the ≥4 submits drags
    // 4 server stage spans. Find the root first, then collect its trace.
    // (The root records the moment `sample_many` returns, but collect
    // under a deadline anyway — the drain races nothing else here.)
    let mut swept: Vec<SpanRecord> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    let root = loop {
        swept.extend(pts_obs::traces().drain());
        if let Some(root) = swept.iter().find(|s| s.name == "cluster.sample_many") {
            break root.clone();
        }
        assert!(
            Instant::now() < deadline,
            "traced burst must record a cluster.sample_many root"
        );
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(root.parent_span_id, 0, "the burst root parents to nothing");
    assert!(root.detail.contains("count=8"), "{}", root.detail);

    // Top up until the tree is complete: every client.submit observed so
    // far must have dragged all four server stages into the ring. A fixed
    // span-count target would race — the gather submit count depends on
    // where the 8 draws landed, and each server's write-stage span
    // records a hair *after* the response flushes, so the client can
    // resolve (and the root close) before the last stage hits the ring.
    let mut spans: Vec<SpanRecord> = swept
        .into_iter()
        .filter(|s| s.trace_id == root.trace_id)
        .collect();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        spans.extend(
            pts_obs::traces()
                .drain()
                .into_iter()
                .filter(|s| s.trace_id == root.trace_id),
        );
        let submits = spans.iter().filter(|s| s.name == "client.submit").count();
        let complete = submits > NODES
            && [
                "server.queue_wait",
                "server.lock_wait",
                "server.engine",
                "server.write",
            ]
            .iter()
            .all(|stage| spans.iter().filter(|s| s.name == *stage).count() == submits);
        if complete || Instant::now() >= deadline {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }

    let names: BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
    for required in [
        "cluster.sample_many",
        "cluster.scatter",
        "cluster.gather",
        "client.submit",
        "server.queue_wait",
        "server.lock_wait",
        "server.engine",
        "server.write",
    ] {
        assert!(
            names.contains(required),
            "missing span {required}: {names:?}"
        );
    }

    // Every span belongs to the one trace, and the parent edges form the
    // expected tree: scatter/gather under the root, submits under
    // scatter or gather, server stages under a submit.
    let scatter: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "cluster.scatter")
        .collect();
    let gather: Vec<&SpanRecord> = spans
        .iter()
        .filter(|s| s.name == "cluster.gather")
        .collect();
    assert_eq!(scatter.len(), 1, "one scatter per burst");
    assert_eq!(gather.len(), 1, "one gather per burst");
    assert_eq!(scatter[0].parent_span_id, root.span_id);
    assert_eq!(gather[0].parent_span_id, root.span_id);

    let submits: Vec<&SpanRecord> = spans.iter().filter(|s| s.name == "client.submit").collect();
    assert!(
        submits.len() > NODES,
        "3 scatter submits + ≥1 gather submit, got {}",
        submits.len()
    );
    let fanout: BTreeSet<u64> = [scatter[0].span_id, gather[0].span_id].into();
    let submit_ids: BTreeSet<u64> = submits.iter().map(|s| s.span_id).collect();
    for submit in &submits {
        assert!(
            fanout.contains(&submit.parent_span_id),
            "client.submit must parent to scatter or gather: {submit:?}"
        );
        assert!(
            submit.detail.contains("kind=stats") || submit.detail.contains("kind=sample"),
            "submit spans are tagged with their kind: {}",
            submit.detail
        );
    }
    let scatter_submits = submits
        .iter()
        .filter(|s| s.parent_span_id == scatter[0].span_id)
        .count();
    assert_eq!(
        scatter_submits, NODES,
        "the mass scatter touches every node"
    );

    for stage in &spans {
        assert_eq!(stage.trace_id, root.trace_id, "one trace id everywhere");
        if stage.name.starts_with("server.") {
            assert!(
                submit_ids.contains(&stage.parent_span_id),
                "{} must parent to a client.submit: {stage:?}",
                stage.name
            );
            assert!(
                stage.detail.contains("kind=") && stage.detail.contains("ns=0"),
                "server stages are tagged {{kind, ns}}: {stage:?}"
            );
        }
    }

    // Each traced server-side request contributes all four stages.
    for want in [
        "server.queue_wait",
        "server.lock_wait",
        "server.engine",
        "server.write",
    ] {
        let count = spans.iter().filter(|s| s.name == want).count();
        assert_eq!(
            count,
            submits.len(),
            "every traced request passes through {want}"
        );
    }

    // An untraced burst afterwards adds nothing: sampling is 1-in-N of
    // *coordinator bursts*, and 0 disables.
    cluster.set_trace_sampling(0);
    cluster.sample_many(4).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let stray: Vec<SpanRecord> = pts_obs::traces()
        .drain()
        .into_iter()
        .filter(|s| s.trace_id == root.trace_id || s.name.starts_with("cluster."))
        .collect();
    assert!(stray.is_empty(), "untraced burst leaked spans: {stray:?}");
}
