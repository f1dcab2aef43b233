//! The merge contract, per sketch: merging two same-seeded sketches that
//! saw two halves of a stream equals one sketch ingesting the concatenated
//! stream. This is the exact property the sharded engine's correctness
//! rests on, so it is tested for every `LinearSketch` implementation.

use pts_sketch::{
    AmsF2, CountSketch, CountSketchParams, FpMaxStab, FpMaxStabParams, FpTaylor, FpTaylorParams,
    LinearSketch, ModCountSketch, SparseRecovery,
};
use pts_stream::gen::zipf_vector;
use pts_stream::{Stream, StreamStyle};
use pts_util::Xoshiro256pp;

const N: usize = 128;

/// Ingests the two halves of a churny turnstile stream into `a` and `b`,
/// merges `b` into `a`, ingests the whole stream into `whole`, and hands
/// the pair to a type-specific equality check.
fn check_merge<S: LinearSketch + Clone>(
    mut a: S,
    mut whole: S,
    workload_seed: u64,
    assert_same: impl Fn(&S, &S),
) {
    let x = zipf_vector(N, 1.0, 200, workload_seed);
    let mut rng = Xoshiro256pp::new(workload_seed ^ 0xBEEF);
    let stream = Stream::from_target(&x, StreamStyle::Turnstile { churn: 1.0 }, &mut rng);
    let updates = stream.updates();
    let (left, right) = updates.split_at(updates.len() / 2);

    let mut b = a.clone();
    for u in left {
        a.update(u.index, u.delta as f64);
    }
    for u in right {
        b.update(u.index, u.delta as f64);
    }
    a.merge(&b);
    for u in updates {
        whole.update(u.index, u.delta as f64);
    }
    assert_same(&a, &whole);
}

fn tables_close(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() < 1e-6, "{x} vs {y}");
    }
}

#[test]
fn countsketch_merge_equals_concatenated_stream() {
    let params = CountSketchParams {
        rows: 5,
        buckets: 64,
    };
    check_merge(
        CountSketch::new(params, 7),
        CountSketch::new(params, 7),
        1,
        |m, w| tables_close(m.table(), w.table()),
    );
}

#[test]
fn mod_countsketch_merge_equals_concatenated_stream() {
    check_merge(
        ModCountSketch::new(5, 64, 8),
        ModCountSketch::new(5, 64, 8),
        2,
        |m, w| tables_close(m.table(), w.table()),
    );
}

#[test]
fn ams_merge_equals_concatenated_stream() {
    check_merge(AmsF2::new(5, 8, 9), AmsF2::new(5, 8, 9), 3, |m, w| {
        assert!((m.estimate() - w.estimate()).abs() < 1e-6);
    });
}

#[test]
fn fp_taylor_merge_equals_concatenated_stream() {
    let params = FpTaylorParams::for_universe(N, 3.0);
    check_merge(
        FpTaylor::new(N, params, 11),
        FpTaylor::new(N, params, 11),
        5,
        |m, w| {
            assert!((m.estimate() - w.estimate()).abs() < 1e-6 * (1.0 + w.estimate().abs()));
        },
    );
}

#[test]
fn fp_maxstab_merge_equals_concatenated_stream() {
    let params = FpMaxStabParams::for_universe(N, 3.0);
    check_merge(
        FpMaxStab::new(N, params, 12),
        FpMaxStab::new(N, params, 12),
        6,
        |m, w| {
            assert!((m.lp_estimate() - w.lp_estimate()).abs() < 1e-6 * (1.0 + w.lp_estimate()),);
        },
    );
}

#[test]
fn sparse_recovery_merge_equals_concatenated_stream() {
    // Sparse input so recovery succeeds; merge must recover the same set.
    let mut a = SparseRecovery::new(12, 4, 14);
    let mut b = SparseRecovery::new(12, 4, 14);
    let mut whole = SparseRecovery::new(12, 4, 14);
    let support = [(5u64, 3i64), (77, -9), (100, 40), (90, 1)];
    for (k, &(i, v)) in support.iter().enumerate() {
        // Split each value across the two halves to exercise cross-shard
        // partial sums (including a coordinate that cancels entirely).
        a.update_int(i, v - k as i64);
        b.update_int(i, k as i64);
        whole.update_int(i, v);
    }
    a.update_int(33, 6);
    b.update_int(33, -6);
    a.merge(&b);
    let merged = a.recover().expect("merged state is sparse");
    let direct = whole.recover().expect("direct state is sparse");
    assert_eq!(merged, direct);
    let mut want = support.to_vec();
    want.sort_unstable();
    assert_eq!(merged, want);
}

#[test]
#[should_panic(expected = "seed mismatch")]
fn sparse_recovery_merge_rejects_different_seeds() {
    let mut a = SparseRecovery::new(4, 2, 1);
    let b = SparseRecovery::new(4, 2, 2);
    a.merge(&b);
}
