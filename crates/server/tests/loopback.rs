//! End-to-end loopback sessions: real TCP, real frames, real engine.
//!
//! The two headline pins, mirroring the engine's own acceptance tests
//! through the socket boundary:
//!
//! * **Sampling law** — draws served over the wire fit the ideal
//!   `G(x_i)/Σ_j G(x_j)` law by chi-squared, for both the L0 and the L2
//!   factory (the socket must be a transparent window onto the engine's
//!   perfect-sampling guarantee).
//! * **Checkpoint/restart** — a checkpoint pulled over the wire, restored
//!   into a *different* server process-worth of state, continues
//!   draw-for-draw identical to the original (the durable-snapshot
//!   contract of `checkpoint_restore.rs`, now spanning a kill).

use pts_engine::{EngineConfig, L0Factory, LpLe2Factory, SamplerFactory, ShardedEngine};
use pts_server::{serve, Client, ClientError, Pending};
use pts_stream::{FrequencyVector, Update};
use pts_util::protocol::{ErrorCode, DEFAULT_NAMESPACE};
use pts_util::stats::chi_square_test;

fn updates_of(x: &FrequencyVector) -> Vec<Update> {
    x.iter_nonzero().map(|(i, v)| Update::new(i, v)).collect()
}

#[test]
fn session_ingest_sample_stats_snapshot() {
    let engine = ShardedEngine::new(
        EngineConfig::new(64).shards(2).pool_size(2).seed(7),
        L0Factory::default(),
    );
    let server = serve("127.0.0.1:0", engine).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let accepted = client
        .submit_ingest_batch_ns(
            DEFAULT_NAMESPACE,
            &[Update::new(3, 5), Update::new(17, -2), Update::new(40, 1)],
        )
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(accepted, 3);

    let draw = client
        .submit_sample_many_ns(DEFAULT_NAMESPACE, 1)
        .unwrap()
        .wait()
        .unwrap()
        .pop()
        .flatten()
        .expect("non-zero state samples");
    assert!([3, 17, 40].contains(&draw.index));

    let stats = client
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(stats.updates, 3);
    assert_eq!(stats.batches, 1);
    assert_eq!(stats.samples + stats.fails, 1);
    assert_eq!(stats.support, 3);
    assert_eq!(stats.mass, 3.0, "L0 mass is the support");

    let snapshot = client
        .submit_snapshot_ns(DEFAULT_NAMESPACE)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(snapshot.entries(), &[(3, 5), (17, -2), (40, 1)]);

    // A second connection observes the same engine.
    let mut other = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        other
            .submit_stats_ns(DEFAULT_NAMESPACE)
            .unwrap()
            .wait()
            .unwrap()
            .support,
        3
    );

    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

/// Draws through the socket obey the target law `G(x_i)/Σ G(x_j)` — the
/// chi-squared pin from `sharding_law.rs`, served over TCP.
fn law_through_socket<F>(x: &FrequencyVector, factory: F, trials: u64, max_fail_fraction: f64)
where
    F: SamplerFactory + pts_util::Encode + pts_util::Decode + Send + 'static,
    F::Sampler: pts_util::Encode + pts_util::Decode + Send + 'static,
{
    let weights: Vec<f64> = x.values().iter().map(|&v| factory.weight(v)).collect();
    let total: f64 = weights.iter().sum();
    let probs: Vec<f64> = weights.iter().map(|w| w / total).collect();

    let engine = ShardedEngine::new(
        EngineConfig::new(x.n()).shards(2).pool_size(2).seed(11),
        factory,
    );
    let server = serve("127.0.0.1:0", engine).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .submit_ingest_batch_ns(DEFAULT_NAMESPACE, &updates_of(x))
        .unwrap()
        .wait()
        .unwrap();

    let mut counts = vec![0u64; x.n()];
    let mut fails = 0u64;
    // Batched draws: a few hundred per round trip, like a real consumer.
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
        (fails as f64) < trials as f64 * max_fail_fraction,
        "fails {fails}/{trials}"
    );
    let chi = chi_square_test(&counts, &probs, 5.0);
    assert!(
        chi.p_value > 1e-4,
        "served law off: chi2 {:.2} p {:.6}",
        chi.statistic,
        chi.p_value
    );
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

#[test]
fn served_l0_law_matches_ideal() {
    let mut values = vec![0i64; 24];
    for (k, &i) in [1usize, 4, 7, 11, 13, 17, 20, 23].iter().enumerate() {
        values[i] = if k % 2 == 0 { 1 << k } else { -(3 + k as i64) };
    }
    law_through_socket(
        &FrequencyVector::from_values(values),
        L0Factory::default(),
        3_000,
        0.05,
    );
}

#[test]
fn served_l2_law_matches_ideal() {
    let x = FrequencyVector::from_values(vec![10, -20, 30, 5, 0, 15, -8, 12]);
    let factory = LpLe2Factory::for_universe(x.n(), 2.0);
    law_through_socket(&x, factory, 1_200, 0.25);
}

/// The acceptance scenario: ingest → sample → checkpoint → **kill** →
/// restore into a fresh server → identical draws thereafter.
#[test]
fn checkpoint_kill_restore_continues_identically() {
    let config = EngineConfig::new(128).shards(2).pool_size(2).seed(21);
    let factory = LpLe2Factory::for_universe(128, 2.0);

    let server_a = serve("127.0.0.1:0", ShardedEngine::new(config, factory)).unwrap();
    let mut client_a = Client::connect(server_a.local_addr()).unwrap();
    let x = pts_stream::gen::zipf_vector(128, 1.1, 60, 5);
    client_a
        .submit_ingest_batch_ns(DEFAULT_NAMESPACE, &updates_of(&x))
        .unwrap()
        .wait()
        .unwrap();
    let _warmup = client_a
        .submit_sample_many_ns(DEFAULT_NAMESPACE, 3)
        .unwrap()
        .wait()
        .unwrap(); // consume pool state

    // Pull the full engine state over the wire...
    let checkpoint = client_a
        .submit_checkpoint_ns(DEFAULT_NAMESPACE)
        .unwrap()
        .wait()
        .unwrap();
    // ...record what the original will serve next...
    let expected_draws = client_a
        .submit_sample_many_ns(DEFAULT_NAMESPACE, 20)
        .unwrap()
        .wait()
        .unwrap();
    let expected_stats = client_a
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .unwrap()
        .wait()
        .unwrap();
    // ...and kill it.
    client_a.submit_shutdown().unwrap().wait().unwrap();
    server_a.join();

    // A fresh server hosting a *different* engine (different seed,
    // nothing ingested) — the restore replaces all of it by the S29
    // contract.
    let stand_in = ShardedEngine::new(config.seed(9999), factory);
    let server_b = serve("127.0.0.1:0", stand_in).unwrap();
    let mut client_b = Client::connect(server_b.local_addr()).unwrap();
    client_b
        .submit_restore_ns(DEFAULT_NAMESPACE, &checkpoint)
        .unwrap()
        .wait()
        .unwrap();

    let replay_draws = client_b
        .submit_sample_many_ns(DEFAULT_NAMESPACE, 20)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(
        replay_draws, expected_draws,
        "restored server diverged from the killed original"
    );
    let replay_stats = client_b
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(replay_stats, expected_stats);
    client_b.submit_shutdown().unwrap().wait().unwrap();
    server_b.join();
}

#[test]
fn out_of_universe_ingest_is_in_band_and_atomic() {
    let engine = ShardedEngine::new(
        EngineConfig::new(16).shards(2).pool_size(1).seed(3),
        L0Factory::default(),
    );
    let server = serve("127.0.0.1:0", engine).unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // One bad index poisons the whole batch: nothing is applied, the
    // error is in-band (the engine would have panicked), and the
    // connection survives.
    let err = client
        .submit_ingest_batch_ns(DEFAULT_NAMESPACE, &[Update::new(2, 1), Update::new(16, 1)])
        .and_then(Pending::wait)
        .unwrap_err();
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::OutOfUniverse),
        other => panic!("wrong error kind: {other}"),
    }
    let stats = client
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(stats.updates, 0, "rejected batch must not partially apply");
    assert_eq!(
        client
            .submit_ingest_batch_ns(DEFAULT_NAMESPACE, &[Update::new(2, 1)])
            .unwrap()
            .wait()
            .unwrap(),
        1
    );
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

#[test]
fn restore_rejects_garbage_and_wrong_factory_in_band() {
    let config = EngineConfig::new(32).shards(1).pool_size(1).seed(4);
    let server = serve(
        "127.0.0.1:0",
        ShardedEngine::new(config, L0Factory::default()),
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    client
        .submit_ingest_batch_ns(DEFAULT_NAMESPACE, &[Update::new(5, 2)])
        .unwrap()
        .wait()
        .unwrap();

    // Garbage bytes: in-band Malformed, engine untouched.
    let err = client
        .submit_restore_ns(DEFAULT_NAMESPACE, &[0xDE, 0xAD, 0xBE, 0xEF])
        .and_then(Pending::wait)
        .unwrap_err();
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Malformed),
        other => panic!("wrong error kind: {other}"),
    }

    // A checkpoint from a *different factory type*: decodes as a frame but
    // fails the factory tag check — still in-band, engine still untouched.
    let mut foreign = Vec::new();
    ShardedEngine::new(config, LpLe2Factory::for_universe(32, 2.0))
        .checkpoint(&mut foreign)
        .unwrap();
    let err = client
        .submit_restore_ns(DEFAULT_NAMESPACE, &foreign)
        .and_then(Pending::wait)
        .unwrap_err();
    match err {
        ClientError::Server(e) => assert_eq!(e.code, ErrorCode::Malformed),
        other => panic!("wrong error kind: {other}"),
    }

    assert_eq!(
        client
            .submit_stats_ns(DEFAULT_NAMESPACE)
            .unwrap()
            .wait()
            .unwrap()
            .support,
        1,
        "state survived"
    );
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

#[test]
fn concurrent_clients_all_land_their_updates() {
    let engine = ShardedEngine::new(
        EngineConfig::new(1 << 10).shards(4).pool_size(1).seed(8),
        L0Factory::default(),
    );
    let server = serve("127.0.0.1:0", engine).unwrap();
    let addr = server.local_addr();

    let threads: Vec<_> = (0..4u64)
        .map(|t| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                // Disjoint coordinate ranges per client.
                for i in 0..64 {
                    client
                        .submit_ingest_batch_ns(
                            DEFAULT_NAMESPACE,
                            &[Update::new(t * 256 + i, 1 + i as i64)],
                        )
                        .unwrap()
                        .wait()
                        .unwrap();
                }
                let s = client
                    .submit_sample_many_ns(DEFAULT_NAMESPACE, 1)
                    .unwrap()
                    .wait()
                    .unwrap()
                    .pop()
                    .flatten();
                assert!(s.is_some(), "well-populated engine must sample");
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }

    let mut client = Client::connect(addr).unwrap();
    let stats = client
        .submit_stats_ns(DEFAULT_NAMESPACE)
        .unwrap()
        .wait()
        .unwrap();
    assert_eq!(stats.updates, 4 * 64);
    assert_eq!(stats.support, 4 * 64);
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
}

#[test]
fn shutdown_request_stops_the_accept_loop() {
    let engine = ShardedEngine::new(
        EngineConfig::new(16).shards(1).pool_size(1).seed(1),
        L0Factory::default(),
    );
    let server = serve("127.0.0.1:0", engine).unwrap();
    let addr = server.local_addr();
    let mut client = Client::connect(addr).unwrap();
    client.submit_shutdown().unwrap().wait().unwrap();
    server.join();
    // The listener is gone: a fresh connect must fail (the port was
    // ephemeral, so nothing else is listening there).
    assert!(Client::connect(addr).is_err());
}
