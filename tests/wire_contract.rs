//! Wire contract for the engine factories' configurations and for the
//! sampler instances of the L₀, L_p≤2 batch and perfect L_p factories:
//! each compact state round-trips bit-exactly (`decode(encode(x))`
//! re-encodes to the same bytes **and** produces the same draw), and
//! truncations and byte soup fail cleanly.

use perfect_sampling::prelude::*;
use pts_util::wire::{Decode, Encode};

fn feed<S: TurnstileSampler>(s: &mut S, n: u64, updates: u64, seed: u64) {
    let mut rng = pts_util::Xoshiro256pp::new(seed);
    for _ in 0..updates {
        let i = rng.next_below(n);
        let delta = rng.next_sign() * (1 + rng.next_below(20) as i64);
        s.process(Update::new(i, delta));
    }
}

/// Round-trip plus truncation fuzz; returns the decoded twin for
/// behavioral comparison.
fn roundtrip<T: Encode + Decode>(x: &T) -> T {
    let bytes = x.to_wire_bytes().expect("must encode");
    let back = T::from_wire_bytes(&bytes).expect("own encoding must decode");
    assert_eq!(
        back.to_wire_bytes().unwrap(),
        bytes,
        "re-encode diverged from original"
    );
    let stride = (bytes.len() / 48).max(1);
    for cut in (0..bytes.len()).step_by(stride) {
        assert!(
            T::from_wire_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} decoded"
        );
    }
    back
}

#[test]
fn perfect_l0_roundtrips_with_identical_draw() {
    let mut s = PerfectL0Sampler::new(64, L0Params::default(), 7);
    feed(&mut s, 64, 50, 1);
    let mut twin = roundtrip(&s);
    assert_eq!(s.sample(), twin.sample());
}

#[test]
fn lp_le2_batch_roundtrips_with_identical_draw() {
    let params = LpLe2Params::for_universe(64, 1.5).with_extra_estimators(2);
    let mut s = LpLe2Batch::new(64, params, 3, 11);
    feed(&mut s, 64, 60, 2);
    let mut twin = roundtrip(&s);
    assert_eq!(s.sample(), twin.sample());
}

#[test]
fn perfect_lp_sampler_roundtrips_with_identical_draw() {
    let params = PerfectLpParams::for_universe(16, 3.0);
    let mut s = PerfectLpSampler::new(16, params, 17);
    feed(&mut s, 16, 40, 4);
    let mut twin = roundtrip(&s);
    assert_eq!(s.sample(), twin.sample());
}

/// Deterministic pseudo-random garbage of many lengths through the
/// factory decoders `Restore` reaches and the sampler decoders kept beside
/// them: each must return a value or an error, never panic or hang.
#[test]
fn restore_reachable_decoders_survive_byte_soup() {
    fn soup_decode<T: Decode>(soup: &[u8]) {
        let _ = T::from_wire_bytes(soup);
    }
    let decoders: [fn(&[u8]); 7] = [
        soup_decode::<PerfectL0Sampler>,
        soup_decode::<LpLe2Batch>,
        soup_decode::<PerfectLpSampler>,
        soup_decode::<L0Factory>,
        soup_decode::<LpLe2Factory>,
        soup_decode::<PerfectLpFactory>,
        soup_decode::<LogGFactory>,
    ];
    let mut rng = pts_util::Xoshiro256pp::new(0x50_0F);
    for len in [0usize, 1, 7, 64, 513] {
        for _ in 0..20 {
            let soup: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            for decode in decoders {
                decode(&soup);
            }
        }
    }
}
