//! k-wise independent hash families.
//!
//! CountSketch and its relatives only need limited independence: pairwise for
//! the bucket map, 4-wise for the sign map's second-moment analysis. We use
//! the classic polynomial construction over the Mersenne prime
//! `p = 2^61 − 1`: a degree-`(k−1)` polynomial with uniformly random
//! coefficients evaluated with fast Mersenne reduction is exactly k-wise
//! independent on `[p]`.

use crate::rng::Xoshiro256pp;

/// The Mersenne prime `2^61 − 1`.
pub const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// Reduces `x` modulo `2^61 − 1` (for `x < 2^122`).
#[inline]
fn mod_mersenne(x: u128) -> u64 {
    // x = hi * 2^61 + lo  =>  x ≡ hi + lo (mod 2^61 − 1)
    let lo = (x & (MERSENNE_P as u128)) as u64;
    let hi = (x >> 61) as u64;
    let mut s = lo + hi;
    if s >= MERSENNE_P {
        s -= MERSENNE_P;
    }
    s
}

/// Multiplies two residues modulo `2^61 − 1`.
#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    mod_mersenne((a as u128) * (b as u128))
}

/// A k-wise independent hash function `h : u64 → [2^61 − 1)`.
///
/// Evaluation is Horner's rule over the Mersenne prime, ~k multiplications.
#[derive(Debug, Clone)]
pub struct KWiseHash {
    /// Polynomial coefficients, constant term last; `coeffs.len() == k`.
    coeffs: Vec<u64>,
}

impl KWiseHash {
    /// Draws a fresh function from the k-wise independent family.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize, rng: &mut Xoshiro256pp) -> Self {
        assert!(k >= 1, "independence parameter k must be >= 1");
        let coeffs = (0..k)
            .map(|i| draw_coefficient(rng, i == 0 && k > 1))
            .collect();
        Self { coeffs }
    }

    /// Draws the coefficients of a fresh 4-wise independent function
    /// (constant term last) without allocating: the same draws
    /// `new(4, rng)` makes. Evaluate them with [`eval_cubic`].
    pub fn draw_4wise(rng: &mut Xoshiro256pp) -> [u64; 4] {
        std::array::from_fn(|i| draw_coefficient(rng, i == 0))
    }

    /// Convenience: a fresh function seeded deterministically.
    pub fn from_seed(k: usize, seed: u64) -> Self {
        let mut rng = Xoshiro256pp::new(seed);
        Self::new(k, &mut rng)
    }

    /// The independence parameter `k` this function was drawn with.
    #[inline]
    pub fn independence(&self) -> usize {
        self.coeffs.len()
    }

    /// The polynomial coefficients (constant term last) — the function's
    /// complete seed material, exposed for wire encoding.
    #[inline]
    pub fn coefficients(&self) -> &[u64] {
        &self.coeffs
    }

    /// Rebuilds a function from captured [`KWiseHash::coefficients`].
    ///
    /// # Panics
    /// Panics if `coeffs` is empty (callers on the decode path validate
    /// first and return a `WireError` instead).
    pub fn from_coefficients(coeffs: Vec<u64>) -> Self {
        assert!(!coeffs.is_empty(), "hash needs at least one coefficient");
        Self { coeffs }
    }

    /// Evaluates the hash: a value uniform on `[0, 2^61 − 1)`.
    #[inline]
    pub fn hash(&self, x: u64) -> u64 {
        // Map the 64-bit input into the field first.
        let x = mod_mersenne(x as u128);
        let mut acc = 0u64;
        for &c in &self.coeffs {
            acc = mul_mod(acc, x);
            acc += c;
            if acc >= MERSENNE_P {
                acc -= MERSENNE_P;
            }
        }
        acc
    }

    /// Hash reduced to a bucket in `[0, buckets)`.
    ///
    /// # Panics
    /// Panics if `buckets == 0`.
    #[inline]
    pub fn bucket(&self, x: u64, buckets: usize) -> usize {
        assert!(buckets > 0, "bucket count must be positive");
        // Multiply-shift style reduction avoids the modulo bias that plain
        // `% buckets` would introduce (negligible here, but free to avoid).
        let h = self.hash(x) as u128;
        ((h * buckets as u128) >> 61) as usize
    }

    /// Hash reduced to a sign in `{−1, +1}`.
    #[inline]
    pub fn sign(&self, x: u64) -> i64 {
        if self.hash(x) & 1 == 0 {
            1
        } else {
            -1
        }
    }

    /// Hash reduced to a uniform `f64` in `[0, 1)`.
    #[inline]
    pub fn unit(&self, x: u64) -> f64 {
        self.hash(x) as f64 / MERSENNE_P as f64
    }

    /// Number of bits needed to store this function (its seed material).
    #[inline]
    pub fn space_bits(&self) -> usize {
        self.coeffs.len() * 61
    }
}

/// One coefficient draw. A leading coefficient is redrawn until non-zero,
/// which keeps the polynomial degree exact; any other residue is fine.
fn draw_coefficient(rng: &mut Xoshiro256pp, leading: bool) -> u64 {
    loop {
        let c = rng.next_below(MERSENNE_P);
        if !leading || c != 0 {
            break c;
        }
    }
}

/// The powers `[x³, x², x]` of `x` mapped into the field as
/// [`KWiseHash::hash`] maps it. Computed once per index, they are shared by
/// every degree-3 polynomial evaluated there ([`eval_cubic`]).
#[inline]
pub fn cubic_powers(x: u64) -> [u64; 3] {
    let x1 = mod_mersenne(x as u128);
    let x2 = mul_mod(x1, x1);
    [mul_mod(x2, x1), x2, x1]
}

/// `c₀x³ + c₁x² + c₂x + c₃ mod 2^61 − 1` from shared [`cubic_powers`]:
/// the canonical residue, so it equals [`KWiseHash::hash`] (Horner's rule)
/// with the same coefficients bit for bit. Coefficients must lie in the
/// field, as every drawn or decoded `KWiseHash` coefficient does.
#[inline]
pub fn eval_cubic(c: &[u64; 4], powers: &[u64; 3]) -> u64 {
    // Three products below 2^122 plus c₃ stay below 2^124.
    let sum = c[0] as u128 * powers[0] as u128
        + c[1] as u128 * powers[1] as u128
        + c[2] as u128 * powers[2] as u128
        + c[3] as u128;
    // Fold twice (2^124 → below 2^64 → at most p + 7), then subtract once.
    let once = (sum & MERSENNE_P as u128) as u64 + (sum >> 61) as u64;
    let mut s = (once & MERSENNE_P) + (once >> 61);
    if s >= MERSENNE_P {
        s -= MERSENNE_P;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mod_mersenne_agrees_with_naive() {
        let cases: [u128; 6] = [
            0,
            1,
            MERSENNE_P as u128,
            (MERSENNE_P as u128) + 5,
            u64::MAX as u128,
            (MERSENNE_P as u128) * (MERSENNE_P as u128),
        ];
        for &x in &cases {
            assert_eq!(mod_mersenne(x) as u128, x % (MERSENNE_P as u128), "x={x}");
        }
    }

    #[test]
    fn eval_cubic_matches_horner_at_field_extremes() {
        // Largest residues everywhere maximize every intermediate sum.
        let top = MERSENNE_P - 1;
        let mut rng = Xoshiro256pp::new(9);
        let mut coeff_sets = vec![[top; 4], [0, 0, 0, top], [top, 0, top, 0], [1, 0, 0, 0]];
        coeff_sets.extend((0..50).map(|_| KWiseHash::draw_4wise(&mut rng)));
        let xs = [0, 1, top, MERSENNE_P, MERSENNE_P + 1, u64::MAX, 1 << 63];
        for c in &coeff_sets {
            let h = KWiseHash::from_coefficients(c.to_vec());
            for x in xs.into_iter().chain((0..200).map(|_| rng.next_u64())) {
                assert_eq!(eval_cubic(c, &cubic_powers(x)), h.hash(x), "{c:?} at {x}");
            }
        }
    }

    #[test]
    fn draw_4wise_makes_the_draws_of_new() {
        let mut a = Xoshiro256pp::new(5);
        let mut b = Xoshiro256pp::new(5);
        for _ in 0..100 {
            let h = KWiseHash::new(4, &mut a);
            assert_eq!(h.coefficients(), KWiseHash::draw_4wise(&mut b));
        }
    }

    #[test]
    fn mul_mod_matches_u128_arithmetic() {
        let mut rng = Xoshiro256pp::new(1);
        for _ in 0..1000 {
            let a = rng.next_below(MERSENNE_P);
            let b = rng.next_below(MERSENNE_P);
            let expect = ((a as u128 * b as u128) % MERSENNE_P as u128) as u64;
            assert_eq!(mul_mod(a, b), expect);
        }
    }

    #[test]
    fn hash_is_deterministic() {
        let h = KWiseHash::from_seed(4, 123);
        assert_eq!(h.hash(42), h.hash(42));
        let h2 = KWiseHash::from_seed(4, 123);
        assert_eq!(h.hash(42), h2.hash(42));
    }

    #[test]
    fn different_seeds_give_different_functions() {
        let h1 = KWiseHash::from_seed(2, 1);
        let h2 = KWiseHash::from_seed(2, 2);
        let differs = (0..100u64).any(|x| h1.hash(x) != h2.hash(x));
        assert!(differs);
    }

    #[test]
    fn buckets_are_roughly_uniform() {
        let h = KWiseHash::from_seed(2, 777);
        let buckets = 16;
        let mut counts = vec![0u32; buckets];
        let n = 64_000u64;
        for x in 0..n {
            counts[h.bucket(x, buckets)] += 1;
        }
        let expected = n as f64 / buckets as f64;
        for (b, &c) in counts.iter().enumerate() {
            let rel = (c as f64 - expected).abs() / expected;
            assert!(rel < 0.1, "bucket {b}: {c} vs {expected}");
        }
    }

    #[test]
    fn signs_are_roughly_balanced_and_pairwise_uncorrelated() {
        let h = KWiseHash::from_seed(4, 31337);
        let n = 40_000u64;
        let sum: i64 = (0..n).map(|x| h.sign(x)).sum();
        assert!(sum.abs() < 1_200, "sign sum {sum}");
        // Pairwise product of signs at (x, x+1) should also be balanced.
        let prod_sum: i64 = (0..n - 1).map(|x| h.sign(x) * h.sign(x + 1)).sum();
        assert!(prod_sum.abs() < 1_200, "pair product sum {prod_sum}");
    }

    #[test]
    fn pairwise_collision_rate_matches_theory() {
        // For a pairwise-independent family, Pr[h(x)=h(y)] into B buckets is
        // ~1/B. Estimate over many fresh functions on a fixed pair.
        let buckets = 8;
        let trials = 8_000;
        let mut collisions = 0;
        let mut rng = Xoshiro256pp::new(5);
        for _ in 0..trials {
            let h = KWiseHash::new(2, &mut rng);
            if h.bucket(3, buckets) == h.bucket(9, buckets) {
                collisions += 1;
            }
        }
        let rate = collisions as f64 / trials as f64;
        let ideal = 1.0 / buckets as f64;
        assert!((rate - ideal).abs() < 0.02, "rate {rate} vs {ideal}");
    }

    #[test]
    fn bucket_panics_on_zero() {
        let h = KWiseHash::from_seed(2, 1);
        let r = std::panic::catch_unwind(|| h.bucket(1, 0));
        assert!(r.is_err());
    }

    #[test]
    fn space_bits_scales_with_k() {
        assert_eq!(KWiseHash::from_seed(2, 1).space_bits(), 122);
        assert_eq!(KWiseHash::from_seed(4, 1).space_bits(), 244);
    }
}
