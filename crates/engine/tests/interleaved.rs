//! Interleaved ingest→sample→ingest regression: the serving pattern the
//! `sharding_law.rs` battery does not cover (it only queries after all
//! ingest). Mid-stream draws advance each pool's seed stream and cursor,
//! and the second ingest phase moves the net vector under them, so later
//! draws respawn from a state that changed since the pool was last touched
//! — the chi-squared tests here pin both query phases to the exact law of
//! the vector at that point of the stream, for S ∈ {1, 4}.

use pts_engine::{EngineConfig, L0Factory, SamplerFactory, ShardedEngine};
use pts_stream::{FrequencyVector, Stream, StreamStyle, Update};
use pts_util::stats::chi_square_test;
use pts_util::Xoshiro256pp;

/// Normalized ideal law for a factory over `x` (empty if mass is zero).
fn ideal_probs<F: SamplerFactory>(x: &FrequencyVector, factory: &F) -> Vec<f64> {
    let weights: Vec<f64> = x.values().iter().map(|&v| factory.weight(v)).collect();
    let total: f64 = weights.iter().sum();
    weights.iter().map(|w| w / total).collect()
}

/// The net vector after applying `updates` to the zero vector.
fn net_of(n: usize, updates: &[Update]) -> FrequencyVector {
    let mut x = FrequencyVector::zeros(n);
    for &u in updates {
        x.apply(u);
    }
    x
}

#[test]
fn interleaved_ingest_sample_ingest_holds_the_law_both_times() {
    // A support with uneven magnitudes; the L0 law stays uniform over
    // whatever the support is *at query time*.
    let mut values = vec![0i64; 24];
    for (k, &i) in [0usize, 3, 6, 9, 12, 15, 18, 21].iter().enumerate() {
        values[i] = if k % 2 == 0 {
            5 + k as i64
        } else {
            -(2 + 2 * k as i64)
        };
    }
    let x = FrequencyVector::from_values(values);
    let factory = L0Factory::default();
    let mut rng = Xoshiro256pp::new(0xA11CE);
    let stream = Stream::from_target(&x, StreamStyle::Turnstile { churn: 0.8 }, &mut rng);
    let updates = stream.updates();
    let split = updates.len() / 2;
    let (first, second) = updates.split_at(split);
    let mid = net_of(x.n(), first);
    let mid_probs = ideal_probs(&mid, &factory);
    let end_probs = ideal_probs(&x, &factory);
    let trials = 1_500usize;

    for shards in [1usize, 4] {
        let config = EngineConfig::new(x.n())
            .shards(shards)
            .pool_size(2)
            .seed(400 + shards as u64);
        let mut engine = ShardedEngine::new(config, factory);

        // Phase 1: half the stream, then a full query burst mid-stream.
        for chunk in first.chunks(48) {
            engine.ingest_batch(chunk);
        }
        let mut mid_counts = vec![0u64; x.n()];
        let mut mid_fails = 0u64;
        for _ in 0..trials {
            match engine.sample() {
                Some(s) => mid_counts[s.index as usize] += 1,
                None => mid_fails += 1,
            }
        }
        assert!(
            mid_fails < trials as u64 / 20,
            "S={shards}: mid-stream fails {mid_fails}/{trials}"
        );
        let chi_mid = chi_square_test(&mid_counts, &mid_probs, 5.0);
        assert!(
            chi_mid.p_value > 1e-4,
            "S={shards}: mid-stream law broken, chi2 {:.2} p {:.6}",
            chi_mid.statistic,
            chi_mid.p_value
        );

        // Phase 2: the rest of the stream lands on a pool that the query
        // burst consumed — every later draw is served by a respawn that
        // caught up mid-stream — then the final law must hold too.
        for chunk in second.chunks(48) {
            engine.ingest_batch(chunk);
        }
        let mut end_counts = vec![0u64; x.n()];
        let mut end_fails = 0u64;
        for _ in 0..trials {
            match engine.sample() {
                Some(s) => end_counts[s.index as usize] += 1,
                None => end_fails += 1,
            }
        }
        assert!(
            end_fails < trials as u64 / 20,
            "S={shards}: end fails {end_fails}/{trials}"
        );
        let chi_end = chi_square_test(&end_counts, &end_probs, 5.0);
        assert!(
            chi_end.p_value > 1e-4,
            "S={shards}: post-interleave law broken, chi2 {:.2} p {:.6}",
            chi_end.statistic,
            chi_end.p_value
        );
        assert!(
            engine.respawns() > 0,
            "S={shards}: the burst must have forced mid-stream respawns"
        );
    }
}

#[test]
fn interleaved_prime_matches_the_final_law() {
    // Same interleaving on the L2 factory, S = 4: ingest, query burst
    // (advancing the pools' seed streams mid-stream), ingest the rest,
    // then chi-squared on the final law.
    let x = FrequencyVector::from_values(vec![10, -20, 30, 5, 0, 15, -8, 12]);
    let factory = pts_engine::LpLe2Factory::for_universe(x.n(), 2.0);
    let probs = ideal_probs(&x, &factory);
    let mut rng = Xoshiro256pp::new(0xBEE);
    let stream = Stream::from_target(&x, StreamStyle::Turnstile { churn: 0.8 }, &mut rng);
    let updates = stream.updates();
    let (first, second) = updates.split_at(updates.len() / 2);

    let config = EngineConfig::new(x.n()).shards(4).pool_size(2).seed(77);
    let mut engine = ShardedEngine::new(config, factory);
    for chunk in first.chunks(32) {
        engine.ingest_batch(chunk);
    }
    for _ in 0..40 {
        let _ = engine.sample();
    }
    for chunk in second.chunks(32) {
        engine.ingest_batch(chunk);
    }
    let trials = 1_200usize;
    let mut counts = vec![0u64; x.n()];
    let mut fails = 0u64;
    for _ in 0..trials {
        match engine.sample() {
            Some(s) => counts[s.index as usize] += 1,
            None => fails += 1,
        }
    }
    assert!(fails < trials as u64 / 4, "fails {fails}/{trials}");
    let chi = chi_square_test(&counts, &probs, 5.0);
    assert!(
        chi.p_value > 1e-4,
        "L2 interleave law broken, chi2 {:.2} p {:.6}",
        chi.statistic,
        chi.p_value
    );
}
