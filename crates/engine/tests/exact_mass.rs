//! The shard pick is only as exact as each shard's `G`-mass. Large
//! entries that come and go must not take the small survivors' weight with
//! them: after any stream, `mass()` is the mass of the net vector.
//!
//! Two repros of a float mass that was updated by adding and subtracting
//! weights (a cancelled large entry left the survivors' mass at zero or
//! short of it), then a property test over churny streams with values up
//! to 2⁴⁰ against an exact recomputation.

use proptest::prelude::*;
use pts_engine::{EngineConfig, L0Factory, LpLe2Factory, PerfectLpFactory, ShardedEngine};
use pts_stream::{FrequencyVector, Stream, StreamStyle, Update};
use pts_util::Xoshiro256pp;

/// p = 3, one shard: a cancelled 2²⁰ must leave `3³ + 5³` behind, and
/// every draw must find it.
#[test]
fn p3_mass_survives_a_cancelled_large_entry() {
    let config = EngineConfig::new(64).shards(1).pool_size(2).seed(3);
    let mut engine = ShardedEngine::new(config, PerfectLpFactory::for_universe(64, 3.0));
    engine.ingest_batch(&[
        Update::new(0, 1 << 20),
        Update::new(1, 3),
        Update::new(2, 5),
    ]);
    engine.ingest_batch(&[Update::new(0, -(1 << 20))]);
    assert_eq!(engine.support(), 2);
    assert_eq!(engine.mass(), 152.0);
    for d in 0..20 {
        let s = engine
            .sample()
            .unwrap_or_else(|| panic!("draw {d} returned ⊥"));
        assert!(s.index == 1 || s.index == 2, "draw {d}: index {}", s.index);
    }
}

/// p = 2, two shards: 62 entries of 3 survive two entries of 2³⁰ that are
/// inserted and deleted, and every one of them is drawn.
#[test]
fn l2_mass_survives_cancelled_large_entries() {
    let config = EngineConfig::new(64).shards(2).pool_size(2).seed(4);
    let mut engine = ShardedEngine::new(config, LpLe2Factory::for_universe(64, 2.0));
    let live: Vec<Update> = (0..62).map(|i| Update::new(i, 3)).collect();
    engine.ingest_batch(&live);
    engine.ingest_batch(&[Update::new(62, 1 << 30), Update::new(63, 1 << 30)]);
    engine.ingest_batch(&[Update::new(62, -(1 << 30)), Update::new(63, -(1 << 30))]);
    assert_eq!(engine.support(), 62);
    assert_eq!(engine.mass(), 558.0);
    let mut seen = [false; 64];
    for _ in 0..4_000 {
        if let Some(s) = engine.sample() {
            seen[s.index as usize] = true;
        }
    }
    let missed: Vec<usize> = (0..62).filter(|&i| !seen[i]).collect();
    assert!(missed.is_empty(), "live indices never drawn: {missed:?}");
    assert!(!seen[62] && !seen[63], "a cancelled index was drawn");
}

/// The exact `Σ v²` of a vector, in `i128`.
fn exact_f2(x: &FrequencyVector) -> i128 {
    x.values().iter().map(|&v| (v as i128) * (v as i128)).sum()
}

/// `got` is `exact` up to the rounding of summing `n` non-negative terms.
fn close(got: f64, exact: i128) -> bool {
    let exact = exact as f64;
    (got - exact).abs() <= 1e-12 * exact
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Survivors of every magnitude from 0 to 2⁴⁰, a churny stream to
    /// reach them, and transient entries of up to 2⁴⁰ inserted mid-stream
    /// and fully cancelled at the end. After every batch `mass()` matches
    /// the reference vector: the support count for L₀ exactly, `Σ v²` for
    /// p = 2 up to summation rounding.
    #[test]
    fn mass_equals_exact_recomputation_on_churny_streams(
        raw in proptest::collection::vec(-(1i64 << 40)..=(1 << 40), 16..=16),
        shift in proptest::collection::vec(0u32..=40, 16..=16),
        transient in proptest::collection::vec(-(1i64 << 40)..=(1 << 40), 16..=16),
        seed in 0u64..10_000,
    ) {
        let n = 16;
        let x = FrequencyVector::from_values(
            raw.iter().zip(&shift).map(|(&v, &s)| v >> s).collect(),
        );
        let mut rng = Xoshiro256pp::new(seed);
        let stream = Stream::from_target(&x, StreamStyle::Turnstile { churn: 0.8 }, &mut rng);
        let (early, late) = stream.updates().split_at(stream.len() / 2);
        let surge: Vec<Update> = (0..n as u64).map(|i| Update::new(i, transient[i as usize])).collect();
        let ebb: Vec<Update> = surge.iter().map(|u| Update::new(u.index, -u.delta)).collect();
        let mut batches: Vec<&[Update]> = early.chunks(5).collect();
        batches.push(&surge);
        batches.extend(late.chunks(5));
        batches.push(&ebb);

        for shards in [1usize, 4] {
            let config = EngineConfig::new(n).shards(shards).pool_size(1).seed(seed);
            let mut l0 = ShardedEngine::new(config, L0Factory::default());
            let mut l2 = ShardedEngine::new(config, LpLe2Factory::for_universe(n, 2.0));
            let mut reference = FrequencyVector::zeros(n);
            for batch in &batches {
                l0.ingest_batch(batch);
                l2.ingest_batch(batch);
                for &u in *batch {
                    reference.apply(u);
                }
                prop_assert_eq!(l0.mass(), reference.f0() as f64);
                let f2 = exact_f2(&reference);
                prop_assert!(
                    close(l2.mass(), f2),
                    "S={}: mass {} exact {}", shards, l2.mass(), f2
                );
            }
            prop_assert_eq!(l2.snapshot().to_vector(), x.clone());
        }
    }
}
