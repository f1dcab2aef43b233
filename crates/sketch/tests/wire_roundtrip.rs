//! Wire-contract property tests for every sketch that a sampler checkpoint
//! carries (CountSketch, AMS, F_p-Taylor, sparse recovery): `decode(encode(x))`
//! reproduces `x` bit-for-bit (checked through re-encoding, since sketches
//! deliberately do not implement `PartialEq`), and malformed bytes —
//! truncations and single-byte corruptions at every offset — return a
//! `WireError` or a differently-valued object, but never panic.

use proptest::prelude::*;
use pts_sketch::countsketch::MAX_ROWS;
use pts_sketch::{
    AmsF2, CountSketch, CountSketchParams, FpTaylor, FpTaylorParams, LinearSketch, SparseRecovery,
};
use pts_util::wire::{Decode, Encode, WireError, WireReader, WireWriter};
use pts_util::KWiseHash;

/// Round-trips `x` and asserts byte-identical state via re-encode; then
/// fuzzes the encoding: every truncation must fail cleanly, and a byte flip
/// at every position must either fail cleanly or decode to *some* value —
/// under no circumstances panic.
fn assert_wire_contract<T: Encode + Decode>(x: &T) {
    let bytes = x.to_wire_bytes().expect("sketches always encode");
    let back = T::from_wire_bytes(&bytes).expect("own encoding must decode");
    assert_eq!(
        back.to_wire_bytes().unwrap(),
        bytes,
        "re-encode diverged from original encoding"
    );
    // Sample ~64 positions (always including the edges) so the fuzz pass
    // stays fast on multi-kilobyte encodings.
    let stride = (bytes.len() / 64).max(1);
    for cut in (0..bytes.len()).step_by(stride).chain([bytes.len() - 1]) {
        assert!(
            T::from_wire_bytes(&bytes[..cut]).is_err(),
            "truncation at {cut} decoded"
        );
    }
    for i in (0..bytes.len()).step_by(stride) {
        let mut flipped = bytes.clone();
        flipped[i] ^= 0x55;
        // No checksum at this layer: a flip may still decode (to different
        // state) or fail — both fine; panicking or looping is the bug.
        let _ = T::from_wire_bytes(&flipped);
    }
}

/// Feeds a deterministic batch of signed updates derived from `seed`.
fn feed<S: LinearSketch>(s: &mut S, n: u64, updates: u64, seed: u64) {
    let mut rng = pts_util::Xoshiro256pp::new(seed);
    for _ in 0..updates {
        let i = rng.next_below(n);
        let delta = rng.next_sign() * (1 + rng.next_below(50) as i64);
        s.update(i, delta as f64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn countsketch_wire_contract(seed in 0u64..1000, rows in 1usize..6, buckets in 4usize..40) {
        let mut cs = CountSketch::new(CountSketchParams { rows, buckets }, seed);
        feed(&mut cs, 256, 60, seed ^ 1);
        assert_wire_contract(&cs);
    }

    #[test]
    fn ams_wire_contract(seed in 0u64..1000, rows in 1usize..4, cols in 1usize..8) {
        let mut ams = AmsF2::new(rows, cols, seed);
        feed(&mut ams, 128, 40, seed ^ 3);
        assert_wire_contract(&ams);
        let decoded = AmsF2::from_wire_bytes(&ams.to_wire_bytes().unwrap()).unwrap();
        prop_assert_eq!(decoded.estimate().to_bits(), ams.estimate().to_bits());
    }

    #[test]
    fn sparse_recovery_wire_contract(seed in 0u64..1000, sparsity in 1usize..8, rows in 1usize..4) {
        let mut sr = SparseRecovery::new(sparsity, rows, seed);
        sr.update_int(3, 17);
        sr.update_int(90, -4);
        sr.update_int(3, -17);
        assert_wire_contract(&sr);
        let decoded = SparseRecovery::from_wire_bytes(&sr.to_wire_bytes().unwrap()).unwrap();
        prop_assert_eq!(decoded.recover(), sr.recover());
    }

    #[test]
    fn fp_taylor_wire_contract(seed in 0u64..1000, p_tenths in 21u64..50) {
        let p = p_tenths as f64 / 10.0;
        let mut est = FpTaylor::new(64, FpTaylorParams::for_universe(64, p), seed);
        feed(&mut est, 64, 50, seed ^ 5);
        assert_wire_contract(&est);
        let decoded = FpTaylor::from_wire_bytes(&est.to_wire_bytes().unwrap()).unwrap();
        prop_assert_eq!(decoded.estimate().to_bits(), est.estimate().to_bits());
    }
}

#[test]
fn decode_rejects_byte_soup_without_panicking() {
    // Deterministic pseudo-random garbage of many lengths: every decoder
    // must return (usually an error), never panic or hang.
    let mut rng = pts_util::Xoshiro256pp::new(0xF00D);
    for len in [0usize, 1, 7, 64, 513] {
        for _ in 0..20 {
            let soup: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut r = WireReader::new(&soup);
            let _ = CountSketch::decode(&mut r);
            let _ = AmsF2::from_wire_bytes(&soup);
            let _ = SparseRecovery::from_wire_bytes(&soup);
            let _ = FpTaylor::from_wire_bytes(&soup);
        }
    }
}

/// A `CountSketch` encoding with the given shape and table.
fn countsketch_bytes(rows: usize, buckets: usize, table: &[f64]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_usize(rows);
    w.put_usize(buckets);
    w.put_u64(7);
    w.put_f64s(table);
    w.into_bytes()
}

/// An `AmsF2` encoding with the given counters and sign-hash coefficients.
fn ams_bytes(rows: usize, cols: usize, counters: &[f64], signs: &[Vec<u64>]) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_usize(rows);
    w.put_usize(cols);
    w.put_f64s(counters);
    w.put_usize(signs.len());
    for coeffs in signs {
        w.put_u64s(coeffs);
    }
    w.into_bytes()
}

fn is_invalid<T>(decoded: Result<T, WireError>) -> bool {
    matches!(decoded, Err(WireError::Invalid(_)))
}

#[test]
fn countsketch_decode_bounds_rows_by_max_rows() {
    let ok = countsketch_bytes(MAX_ROWS, 2, &vec![1.0; MAX_ROWS * 2]);
    let cs = CountSketch::from_wire_bytes(&ok).expect("MAX_ROWS rows decode");
    assert_eq!(cs.rows(), MAX_ROWS);
    let over = countsketch_bytes(MAX_ROWS + 1, 2, &vec![1.0; (MAX_ROWS + 1) * 2]);
    assert!(is_invalid(CountSketch::from_wire_bytes(&over)));
}

#[test]
#[should_panic(expected = "exceed MAX_ROWS")]
fn countsketch_new_rejects_rows_above_max_rows() {
    let _ = CountSketch::new(
        CountSketchParams {
            rows: MAX_ROWS + 1,
            buckets: 4,
        },
        1,
    );
}

#[test]
fn decoders_reject_non_finite_cells() {
    // A NaN or ±inf cell would reach a live sampler's estimates.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut table = vec![0.5; 3 * 4];
        table[5] = bad;
        let cs = countsketch_bytes(3, 4, &table);
        assert!(is_invalid(CountSketch::from_wire_bytes(&cs)), "cell {bad}");

        let signs = vec![vec![1, 2, 3, 4]; 2];
        let ams = ams_bytes(1, 2, &[1.0, bad], &signs);
        assert!(is_invalid(AmsF2::from_wire_bytes(&ams)), "counter {bad}");
    }
    // The same encodings with finite cells decode.
    assert!(CountSketch::from_wire_bytes(&countsketch_bytes(3, 4, &[0.5; 12])).is_ok());
    let signs = vec![vec![1, 2, 3, 4]; 2];
    assert!(AmsF2::from_wire_bytes(&ams_bytes(1, 2, &[1.0, -2.0], &signs)).is_ok());
}

#[test]
fn ams_decode_rejects_sign_hash_of_other_degree() {
    for coeffs in [vec![1, 2, 3], vec![1, 2, 3, 4, 5], vec![9]] {
        let signs = vec![vec![1, 2, 3, 4], coeffs.clone()];
        let bytes = ams_bytes(1, 2, &[0.0, 0.0], &signs);
        assert!(
            is_invalid(AmsF2::from_wire_bytes(&bytes)),
            "{} coefficients",
            coeffs.len()
        );
    }
}

#[test]
fn ams_encoding_keeps_the_kwise_hash_layout() {
    // Each sign hash is encoded exactly as the `KWiseHash` it stands for,
    // so checkpoints written before the flat coefficient store still read.
    let ams = AmsF2::new(2, 3, 41);
    let mut rng = pts_util::Xoshiro256pp::new(pts_util::derive_seed(41, 0xA352));
    let mut w = WireWriter::new();
    w.put_usize(2);
    w.put_usize(3);
    w.put_f64s(&[0.0; 6]);
    w.put_usize(6);
    for _ in 0..6 {
        KWiseHash::new(4, &mut rng).encode(&mut w).unwrap();
    }
    assert_eq!(ams.to_wire_bytes().unwrap(), w.into_bytes());
}
