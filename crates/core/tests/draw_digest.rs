//! Golden digest of respawn draws.
//!
//! The lazy-vs-eager and pool identity tests compare two drivers that share
//! every sketch kernel, so a kernel change that moves a bit moves both sides
//! and passes them. This test pins the draws themselves: fnv1a64 over
//! `(index, estimate.to_bits())` of seeded `PerfectLpSampler::draw_from`
//! (p = 3 and p = 2.5, n = 64) and `LpLe2Batch::draw_from` (n = 4096) draws,
//! and over the build-replay-sample draws of `PerfectL0Sampler`, the
//! default respawn path every L₀ engine draw takes. A third digest pins
//! draws on sparse supports, where the respawn decodes over the net
//! vector's non-zero entries instead of the universe. A kernel change must
//! leave the digests where they are.

use pts_core::{PerfectLpParams, PerfectLpSampler};
use pts_samplers::{L0Params, LpLe2Batch, LpLe2Params, PerfectL0Sampler, Sample, TurnstileSampler};
use pts_stream::gen::zipf_vector;
use pts_util::wire::fnv1a64;

/// Appends one draw to the digest input: a tag byte, then the index and the
/// estimate's bits (little-endian) for a sample.
fn push_draw(bytes: &mut Vec<u8>, draw: Option<Sample>) {
    match draw {
        Some(s) => {
            bytes.push(1);
            bytes.extend_from_slice(&s.index.to_le_bytes());
            bytes.extend_from_slice(&s.estimate.to_bits().to_le_bytes());
        }
        None => bytes.push(0),
    }
}

#[test]
fn respawn_draws_match_pinned_digest() {
    let mut bytes = Vec::new();
    let mut drawn = 0;

    let n = 64;
    let x = zipf_vector(n, 1.1, 60, 0xD16E);
    let net: Vec<(u64, i64)> = x.iter_nonzero().collect();
    for p in [3.0, 2.5] {
        let params = PerfectLpParams::for_universe(n, p);
        for seed in 0..128u64 {
            let draw = PerfectLpSampler::draw_from(n, params, 0x5EED + seed, net.iter().copied());
            drawn += usize::from(draw.is_some());
            push_draw(&mut bytes, draw);
        }
    }

    let n = 4096;
    let x = zipf_vector(n, 1.0, 500, 0xD16F);
    let net: Vec<(u64, i64)> = x.iter_nonzero().collect();
    let params = LpLe2Params::for_universe(n, 2.0);
    for seed in 0..32u64 {
        let draw = LpLe2Batch::draw_from(n, params, 8, 0xBA7C + seed, net.iter().copied());
        drawn += usize::from(draw.is_some());
        push_draw(&mut bytes, draw);
    }

    // Most draws succeed, so the digest covers estimates, not just ⊥ tags.
    assert!(drawn >= 200, "only {drawn}/288 draws succeeded");
    // Recorded at the commit before the point-queried estimator replicas,
    // shared-power AMS signs and allocation-free CountSketch estimates.
    assert_eq!(fnv1a64(&bytes), 0x8235_c6dd_4730_19c7, "draw digest moved");
}

/// `support` non-zero entries of a zipf vector over `[0, n)`, spread evenly.
fn sparse_net(n: usize, support: usize, seed: u64) -> Vec<(u64, i64)> {
    let x = zipf_vector(n, 1.0, 500, seed);
    let net: Vec<(u64, i64)> = x
        .iter_nonzero()
        .step_by(n / support)
        .take(support)
        .collect();
    assert_eq!(net.len(), support);
    net
}

/// The digest above has full support, where the support decode and the
/// universe decode are the same scan. This one pins draws whose net vector
/// leaves most of the universe at zero, so it covers the support decode.
#[test]
fn sparse_support_draws_match_pinned_digest() {
    let mut bytes = Vec::new();
    let mut drawn = 0;
    let mut record = |net: &[(u64, i64)], draw: Option<Sample>| {
        if let Some(s) = draw {
            assert!(
                net.iter().any(|&(i, _)| i == s.index),
                "{s:?} off the support"
            );
            drawn += 1;
        }
        push_draw(&mut bytes, draw);
    };

    // The `ingest` universe at support 200, with the default sketch and
    // with a narrow 3 × 64 one, whose collision noise on the zero
    // coordinates would move the universe decode's draws.
    let n = 4096;
    let net = sparse_net(n, 200, 0x5A01);
    let wide = LpLe2Params::for_universe(n, 2.0);
    let narrow = LpLe2Params {
        rows: 3,
        buckets: 64,
        ..wide
    };
    for params in [wide, narrow] {
        for seed in 0..64u64 {
            let draw = LpLe2Batch::draw_from(n, params, 8, 0x5BA7 + seed, net.iter().copied());
            record(&net, draw);
        }
    }

    let n = 256;
    let net = sparse_net(n, 24, 0x5A02);
    let params = PerfectLpParams::for_universe(n, 3.0);
    for seed in 0..64u64 {
        let draw = PerfectLpSampler::draw_from(n, params, 0x55EE + seed, net.iter().copied());
        record(&net, draw);
    }

    assert!(drawn >= 160, "only {drawn}/192 draws succeeded");
    // Recorded with the support decode. The universe decode gives the same
    // draws on the default sketches but not on the narrow one.
    assert_eq!(
        fnv1a64(&bytes),
        0xd4f1_4f56_496b_4ad1,
        "sparse draw digest moved"
    );
}

#[test]
fn l0_respawn_draws_match_pinned_digest() {
    let mut bytes = Vec::new();
    let mut drawn = 0;
    let n = 64;
    // Support 32 and 64 of n = 64: the sparse-recovery levels that decode
    // see many colliding entries, as on the `tenants` benchmark shape.
    for (support, vseed) in [(32, 0x10D1), (64, 0x10D2)] {
        let x = zipf_vector(n, 1.1, 60, vseed);
        let net: Vec<(u64, i64)> = x.iter_nonzero().step_by(n / support).collect();
        assert_eq!(net.len(), support);
        for seed in 0..96u64 {
            let mut s = PerfectL0Sampler::new(n, L0Params::default(), 0x1005 + seed);
            s.ingest_entries(net.iter().copied());
            let draw = s.sample();
            drawn += usize::from(draw.is_some());
            push_draw(&mut bytes, draw);
        }
    }
    assert!(drawn >= 150, "only {drawn}/192 draws succeeded");
    // Recorded at the commit before `SparseRecovery::update_int` shared one
    // modular power across its rows.
    assert_eq!(
        fnv1a64(&bytes),
        0x1c63_4b40_74c4_bf7f,
        "L0 draw digest moved"
    );
}
