//! Net values never wrap. A batch whose coalesced delta or new net value
//! leaves the range `(-2^63, 2^63)` (`i64::MIN` included: its `abs` wraps
//! and every factory's weight would be NaN) fails
//! `ShardedEngine::check_values` with a typed [`ValueOverflow`], and
//! `ingest_batch` panics on it before any shard changes — in release builds
//! too, where a plain `+` would wrap silently.

use pts_engine::{
    EngineConfig, L0Factory, PerfectLpFactory, SamplerFactory, ShardedEngine, ValueOverflow,
};
use pts_stream::Update;
use std::panic::{catch_unwind, AssertUnwindSafe};

const N: usize = 64;

fn engines(shards: usize) -> (ShardedEngine<L0Factory>, ShardedEngine<PerfectLpFactory>) {
    let config = EngineConfig::new(N).shards(shards).pool_size(2).seed(31);
    (
        ShardedEngine::new(config, L0Factory::default()),
        ShardedEngine::new(config, PerfectLpFactory::for_universe(N, 2.5)),
    )
}

fn batch(pairs: &[(u64, i64)]) -> Vec<Update> {
    pairs.iter().map(|&(i, d)| Update::new(i, d)).collect()
}

/// Ingests `prefix` (which must be accepted), then asserts `bad` is
/// rejected at `index`: a typed error from `check_values`, a panic from
/// `ingest_batch`, and the same snapshot, stats and mass afterwards. The
/// engine still ingests and draws.
fn assert_rejected<F: SamplerFactory>(
    engine: &mut ShardedEngine<F>,
    prefix: &[(u64, i64)],
    bad: &[(u64, i64)],
    index: u64,
) {
    let prefix = batch(prefix);
    assert_eq!(engine.check_values(&prefix), Ok(()));
    engine.ingest_batch(&prefix);
    let before = engine.snapshot();
    let stats = engine.stats();
    let mass = engine.mass();

    let bad = batch(bad);
    assert_eq!(engine.check_values(&bad), Err(ValueOverflow { index }));
    let panic = catch_unwind(AssertUnwindSafe(|| engine.ingest_batch(&bad)))
        .expect_err("an overflowing batch must not apply");
    let message = panic
        .downcast_ref::<String>()
        .expect("panic carries the overflow message");
    assert!(message.contains(&format!("index {index}")), "{message}");

    assert_eq!(engine.snapshot().entries(), before.entries());
    assert_eq!(engine.stats(), stats);
    assert_eq!(engine.mass().to_bits(), mass.to_bits());
    assert!(engine.mass().is_finite() && engine.mass() > 0.0);
    engine.ingest_batch(&batch(&[(40, 3)]));
    assert!(engine.sample().is_some());
}

#[test]
fn max_then_two_is_rejected_whole() {
    for shards in [1, 4] {
        let (mut l0, mut lp) = engines(shards);
        // The overflowing update rides with an innocent one that must not
        // land either.
        let bad = [(9, 5), (0, 2)];
        assert_rejected(&mut l0, &[(0, i64::MAX)], &bad, 0);
        assert_rejected(&mut lp, &[(0, 7), (0, i64::MAX - 7)], &bad, 0);
    }
}

#[test]
fn min_alone_is_rejected() {
    for shards in [1, 4] {
        let (mut l0, mut lp) = engines(shards);
        assert_rejected(&mut l0, &[(3, 1)], &[(1, i64::MIN)], 1);
        assert_rejected(&mut lp, &[(3, 1)], &[(1, i64::MIN)], 1);
        // Reaching i64::MIN from a stored value is the same rejection.
        assert_rejected(&mut lp, &[(2, -i64::MAX)], &[(2, -1)], 2);
    }
}

#[test]
fn pair_overflowing_while_coalesced_is_rejected() {
    for shards in [1, 4] {
        let (mut l0, mut lp) = engines(shards);
        let pair = [(5, i64::MAX), (6, 1), (5, 1)];
        assert_rejected(&mut l0, &[(6, 2)], &pair, 5);
        assert_rejected(&mut lp, &[(6, 2)], &pair, 5);
        // The coalesced delta must itself fit, even where the new value
        // would: -MAX + (MAX + 2) = 2.
        assert_rejected(&mut lp, &[(8, -i64::MAX)], &[(8, i64::MAX), (8, 2)], 8);
    }
}

#[test]
fn extreme_values_inside_the_range_are_accepted_exactly() {
    for shards in [1, 4] {
        let (mut l0, _) = engines(shards);
        // Partial sums leave i64 in some orders; the coalesced sum does not.
        let b = batch(&[
            (1, i64::MAX),
            (1, 1),
            (1, -1),
            (2, -i64::MAX),
            (3, i64::MIN),
            (3, 1),
        ]);
        assert_eq!(l0.check_values(&b), Ok(()));
        l0.ingest_batch(&b);
        assert_eq!(
            l0.snapshot().entries(),
            &[(1, i64::MAX), (2, -i64::MAX), (3, i64::MIN + 1)]
        );
        // Extreme values cancel exactly.
        let b = batch(&[(1, -i64::MAX), (2, i64::MAX), (3, i64::MAX - 1)]);
        assert_eq!(l0.check_values(&b), Ok(()));
        l0.ingest_batch(&b);
        assert_eq!(l0.snapshot().entries(), &[(3, -1)]);
    }
}
