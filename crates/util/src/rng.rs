//! Deterministic, seedable pseudo-random number generation.
//!
//! Every random choice in the perfect-sampling stack flows from a single
//! `u64` master seed through [`derive_seed`] into independent
//! [`Xoshiro256pp`] streams. Sketches additionally need *keyed* randomness —
//! "the exponential variable attached to index `i`" must be recomputable at
//! every stream update without per-index state — which is provided by
//! [`keyed_u64`] (a splitmix-style finalizer over `(seed, key)`).
//!
//! We deliberately do not depend on the `rand` crate: reproducibility across
//! crate versions and the ability to hash a key directly into a stream
//! position matter more here than a generic RNG abstraction.

/// SplitMix64: a tiny, high-quality 64-bit mixer/generator.
///
/// Used to (a) expand a master seed into sub-seeds and (b) seed
/// [`Xoshiro256pp`] state, exactly as recommended by the xoshiro authors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator with the given seed.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Stateless splitmix-style finalizer: mixes a single `u64` to avalanche.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an independent sub-seed from a master seed and a stream id.
///
/// Two invocations with different `(seed, stream)` pairs produce seeds whose
/// generated streams are computationally independent; this is how one master
/// seed fans out into the many sketch instances the algorithms require.
#[inline]
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    // Feistel-ish double mix so that (seed, stream) and (stream, seed)
    // collide with negligible probability.
    mix64(seed ^ mix64(stream ^ 0xA076_1D64_78BD_642F))
}

/// Keyed stateless randomness: a pseudo-random `u64` determined by
/// `(seed, key)`.
///
/// This is the primitive behind "the exponential random variable of
/// coordinate `i`": re-evaluating it at every stream update yields the same
/// variate without storing anything per index.
#[inline]
pub fn keyed_u64(seed: u64, key: u64) -> u64 {
    mix64(seed.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ mix64(key.wrapping_add(0x2545_F491_4F6C_DD1D)))
}

/// Keyed randomness over a pair of keys (e.g. `(index, repetition)`).
#[inline]
pub fn keyed2_u64(seed: u64, key1: u64, key2: u64) -> u64 {
    keyed_u64(keyed_u64(seed, key1), key2 ^ 0x9E6C_63D0_876A_68EE)
}

/// xoshiro256++ 1.0 — the workhorse sequential generator.
///
/// Period 2^256 − 1, passes BigCrush; `++` scrambler output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the state from `seed` via SplitMix64 (never all-zero).
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()];
        if s == [0, 0, 0, 0] {
            s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
        }
        Self { s }
    }

    /// Convenience: a generator for sub-stream `stream` of a master seed.
    pub fn from_seed_stream(seed: u64, stream: u64) -> Self {
        Self::new(derive_seed(seed, stream))
    }

    /// The raw 256-bit generator state (for checkpointing; see `wire`).
    #[inline]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuilds a generator from a captured [`Xoshiro256pp::state`].
    /// The all-zero state is a fixed point of xoshiro, so it maps to the
    /// same non-zero fallback `new` uses.
    pub fn from_state(s: [u64; 4]) -> Self {
        if s == [0, 0, 0, 0] {
            Self {
                s: [0x9E37_79B9_7F4A_7C15, 1, 2, 3],
            }
        } else {
            Self { s }
        }
    }

    /// Returns the next 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in the *open* interval `(0, 1)`.
    ///
    /// Needed wherever a logarithm of the variate is taken (exponentials).
    #[inline]
    pub fn next_f64_open(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, bound)` using Lemire's rejection method.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: bound must be positive");
        // Lemire's multiply-shift with rejection to remove modulo bias.
        let mut x = self.next_u64();
        let mut m = (x as u128).wrapping_mul(bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128).wrapping_mul(bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform index in `[0, len)`.
    #[inline]
    pub fn next_index(&mut self, len: usize) -> usize {
        self.next_below(len as u64) as usize
    }

    /// Random sign in `{-1, +1}`.
    #[inline]
    pub fn next_sign(&mut self) -> i64 {
        if self.next_u64() & 1 == 0 {
            1
        } else {
            -1
        }
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_index(i + 1);
            xs.swap(i, j);
        }
    }

    /// Draws `k` distinct indices from `[0, n)` (reservoir over the range).
    ///
    /// # Panics
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k must be <= n");
        // Floyd's algorithm: O(k) expected insertions, ordered output.
        let mut chosen = std::collections::BTreeSet::new();
        for j in (n - k)..n {
            let t = self.next_index(j + 1);
            if !chosen.insert(t) {
                chosen.insert(j);
            }
        }
        chosen.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain C code.
        let mut sm = SplitMix64::new(1234567);
        let got: Vec<u64> = (0..3).map(|_| sm.next_u64()).collect();
        assert_eq!(got[0], 6457827717110365317);
        assert_eq!(got[1], 3203168211198807973);
        assert_eq!(got[2], 9817491932198370423);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let mut a = Xoshiro256pp::new(42);
        let mut b = Xoshiro256pp::new(42);
        let mut c = Xoshiro256pp::new(43);
        let va: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Xoshiro256pp::new(7);
        for _ in 0..10_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn next_f64_mean_is_half() {
        let mut rng = Xoshiro256pp::new(11);
        let n = 100_000;
        let sum: f64 = (0..n).map(|_| rng.next_f64()).sum();
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn next_below_is_unbiased_over_small_range() {
        let mut rng = Xoshiro256pp::new(99);
        let mut counts = [0u32; 7];
        let trials = 70_000;
        for _ in 0..trials {
            counts[rng.next_below(7) as usize] += 1;
        }
        let expected = trials as f64 / 7.0;
        for (v, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.05, "value {v} count {c} vs expected {expected}");
        }
    }

    #[test]
    fn next_sign_is_balanced() {
        let mut rng = Xoshiro256pp::new(5);
        let sum: i64 = (0..100_000).map(|_| rng.next_sign()).sum();
        assert!(sum.abs() < 2_000, "sum {sum}");
    }

    #[test]
    fn derive_seed_separates_streams() {
        let s = 0xDEADBEEF;
        let mut streams: Vec<u64> = (0..100).map(|i| derive_seed(s, i)).collect();
        streams.sort_unstable();
        streams.dedup();
        assert_eq!(streams.len(), 100, "sub-seeds must be distinct");
    }

    #[test]
    fn keyed_u64_is_stable_and_key_sensitive() {
        assert_eq!(keyed_u64(1, 2), keyed_u64(1, 2));
        assert_ne!(keyed_u64(1, 2), keyed_u64(1, 3));
        assert_ne!(keyed_u64(1, 2), keyed_u64(2, 2));
    }

    #[test]
    fn keyed_u64_bits_look_uniform() {
        // Count set bits over many keys; should concentrate near 32/64.
        let mut ones = 0u64;
        let keys = 10_000u64;
        for k in 0..keys {
            ones += keyed_u64(77, k).count_ones() as u64;
        }
        let mean = ones as f64 / keys as f64;
        assert!((mean - 32.0).abs() < 0.5, "mean bit count {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Xoshiro256pp::new(3);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Xoshiro256pp::new(8);
        for _ in 0..100 {
            let ix = rng.sample_indices(30, 10);
            assert_eq!(ix.len(), 10);
            let mut dedup = ix.clone();
            dedup.dedup();
            assert_eq!(dedup.len(), 10);
            assert!(ix.iter().all(|&i| i < 30));
        }
    }

    #[test]
    fn sample_indices_full_range() {
        let mut rng = Xoshiro256pp::new(8);
        let ix = rng.sample_indices(5, 5);
        assert_eq!(ix, vec![0, 1, 2, 3, 4]);
    }
}
