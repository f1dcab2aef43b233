//! The engine's headline correctness property: a sharded engine over
//! `S ∈ {1, 2, 8}` shards produces the **same sampling law** as a single
//! unsharded sampler, verified by chi-squared goodness-of-fit against the
//! ideal law `G(x_i)/Σ_j G(x_j)` over a small universe with seeded RNG.
//! Every factory is covered: L₀ and L₂ at `S ∈ {1, 2, 8}`, and the
//! rejection-loop factories (the paper's `p = 3` sampler and the log
//! G-sampler), whose respawn draws run lazily, at `S ∈ {1, 4}`.
//!
//! Two flavours:
//! * a deterministic battery at realistic draw counts (the acceptance
//!   test), and
//! * a proptest sweep over random vectors (smaller draw counts, looser
//!   threshold) to probe unusual supports — cancellations, single
//!   survivors, sign flips.

use proptest::prelude::*;
use pts_engine::{
    EngineConfig, L0Factory, LogGFactory, LpLe2Factory, PerfectLpFactory, SamplerFactory,
    ShardedEngine,
};
use pts_samplers::{L0Params, PerfectL0Sampler, TurnstileSampler};
use pts_stream::{FrequencyVector, Stream, StreamStyle};
use pts_util::stats::chi_square_test;
use pts_util::Xoshiro256pp;

/// Draws `trials` samples from one engine over the (churny, batched)
/// stream of `x` and returns per-index counts.
fn engine_counts<F: SamplerFactory>(
    x: &FrequencyVector,
    shards: usize,
    pool: usize,
    factory: F,
    trials: usize,
    seed: u64,
) -> (Vec<u64>, u64) {
    let config = EngineConfig::new(x.n())
        .shards(shards)
        .pool_size(pool)
        .seed(seed);
    let mut engine = ShardedEngine::new(config, factory);
    let mut rng = Xoshiro256pp::new(seed ^ 0xFACE);
    let stream = Stream::from_target(x, StreamStyle::Turnstile { churn: 0.8 }, &mut rng);
    engine.ingest_stream(&stream, 64);
    let mut counts = vec![0u64; x.n()];
    let mut fails = 0;
    for _ in 0..trials {
        match engine.sample() {
            Some(s) => counts[s.index as usize] += 1,
            None => fails += 1,
        }
    }
    (counts, fails)
}

/// The ideal (unnormalized) law for a factory over `x`.
fn ideal_weights<F: SamplerFactory>(x: &FrequencyVector, factory: &F) -> Vec<f64> {
    x.values().iter().map(|&v| factory.weight(v)).collect()
}

/// The ideal law for a factory over `x`, normalized.
fn ideal_probs<F: SamplerFactory>(x: &FrequencyVector, factory: &F) -> Vec<f64> {
    let weights = ideal_weights(x, factory);
    let total: f64 = weights.iter().sum();
    weights.iter().map(|w| w / total).collect()
}

/// At each shard count `S`, `trials` engine draws (seed `seed0 + S`) fit
/// the ideal law with fewer than `max_fails` ⊥.
fn assert_law_across_shards<F: SamplerFactory + Copy>(
    x: &FrequencyVector,
    factory: F,
    shard_counts: &[usize],
    trials: usize,
    seed0: u64,
    max_fails: u64,
) {
    let probs = ideal_probs(x, &factory);
    for &shards in shard_counts {
        let (counts, fails) = engine_counts(x, shards, 2, factory, trials, seed0 + shards as u64);
        let drawn: u64 = counts.iter().sum();
        assert!(fails < max_fails, "S={shards}: fails {fails}/{trials}");
        let chi = chi_square_test(&counts, &probs, 5.0);
        assert!(
            chi.p_value > 1e-4,
            "S={shards}: chi2 stat {:.2} p {:.6} over {drawn} draws",
            chi.statistic,
            chi.p_value
        );
    }
}

#[test]
fn l0_law_matches_unsharded_sampler_across_shard_counts() {
    // A support with wildly uneven magnitudes: the L0 law must stay uniform
    // over the support regardless of values or shard count.
    let mut values = vec![0i64; 24];
    for (k, &i) in [1usize, 4, 7, 11, 13, 17, 20, 23].iter().enumerate() {
        values[i] = if k % 2 == 0 { 1 << k } else { -(3 + k as i64) };
    }
    let x = FrequencyVector::from_values(values);
    let factory = L0Factory::default();
    let probs = ideal_probs(&x, &factory);
    let trials = 3_000;

    // The unsharded baseline: independent one-shot samplers, as the paper
    // runs them.
    let mut baseline = vec![0u64; x.n()];
    for t in 0..trials as u64 {
        let mut s = PerfectL0Sampler::new(x.n(), L0Params::default(), 50_000 + t);
        s.ingest_vector(&x);
        if let Some(sample) = s.sample() {
            baseline[sample.index as usize] += 1;
        }
    }
    let chi_base = chi_square_test(&baseline, &probs, 5.0);
    assert!(chi_base.p_value > 1e-4, "baseline p {}", chi_base.p_value);

    assert_law_across_shards(&x, factory, &[1, 2, 8], trials, 97, trials as u64 / 20);
}

#[test]
fn l2_law_matches_ideal_across_shard_counts() {
    let x = FrequencyVector::from_values(vec![10, -20, 30, 5, 0, 15, -8, 12]);
    let factory = LpLe2Factory::for_universe(x.n(), 2.0);
    let trials = 1_200;
    assert_law_across_shards(&x, factory, &[1, 2, 8], trials, 300, trials as u64 / 4);
}

#[test]
fn perfect_lp_law_matches_ideal_across_shard_counts() {
    let x = FrequencyVector::from_values(vec![4, -8, 12, 2, 0, 6, -10, 3]);
    let factory = PerfectLpFactory::for_universe(x.n(), 3.0);
    let trials = 1_200;
    assert_law_across_shards(&x, factory, &[1, 4], trials, 500, trials as u64 / 4);
}

#[test]
fn log_g_law_matches_ideal_across_shard_counts() {
    let x = FrequencyVector::from_values(vec![1, 10, 100, 1000, 0, -50, 3, -7]);
    let factory = LogGFactory {
        stream_bound_m: 1000,
    };
    let trials = 2_000;
    assert_law_across_shards(&x, factory, &[1, 4], trials, 700, trials as u64 / 10);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random sparse vectors, every shard count: the engine's empirical L0
    /// law fits the uniform-over-support ideal.
    #[test]
    fn l0_law_holds_on_random_vectors(
        values in proptest::collection::vec(-40i64..=40, 12..=20),
        seed in 0u64..10_000,
    ) {
        let x = FrequencyVector::from_values(values);
        let factory = L0Factory::default();
        let weights = ideal_weights(&x, &factory);
        let mass: f64 = weights.iter().sum();
        for shards in [1usize, 2, 8] {
            let (counts, fails) = engine_counts(&x, shards, 2, factory, 600, seed);
            if mass == 0.0 {
                prop_assert_eq!(counts.iter().sum::<u64>(), 0);
                continue;
            }
            prop_assert!(fails < 60, "S={} fails {}", shards, fails);
            let probs: Vec<f64> = weights.iter().map(|w| w / mass).collect();
            let chi = chi_square_test(&counts, &probs, 5.0);
            prop_assert!(
                chi.p_value > 1e-5,
                "S={} p {} stat {}", shards, chi.p_value, chi.statistic
            );
        }
    }
}
