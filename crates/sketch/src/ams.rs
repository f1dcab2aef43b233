//! AMS F₂ estimation \[AMS99\].
//!
//! `AmsF2` is the classic median-of-means tug-of-war sketch: each counter
//! holds `Σ σ_i x_i` for 4-wise independent signs; squaring is unbiased for
//! `F₂` with variance `2F₂²`, means over columns shrink the variance,
//! medians over rows boost confidence. Algorithm 1 uses it for `F̂₂`.
//! Each sign is the low bit of a degree-3 polynomial over `2^61 − 1`
//! ([`KWiseHash`]'s family); an update maps its index to `x, x², x³` once
//! and evaluates every counter's polynomial from those shared powers, which
//! reaches the same residue as Horner's rule.

use crate::countsketch::{median_in_place, signed};
use crate::traits::LinearSketch;
use pts_util::wire::{Decode, Encode, WireError, WireReader, WireWriter};
use pts_util::{cubic_powers, derive_seed, eval_cubic, KWiseHash, Xoshiro256pp};

/// Median of `|N(0,1)|`, i.e. `Φ^{-1}(3/4)` — the normalizer for
/// median-based Gaussian (2-stable) norm estimation: a counter holding
/// `Σ φ_i x_i` with i.i.d. Gaussians is `N(0, ‖x‖₂²)`, so
/// `median_j |counter_j| / Φ^{-1}(3/4)` estimates `‖x‖₂`.
pub const GAUSSIAN_ABS_MEDIAN: f64 = 0.674_489_750_196_081_7;

/// AMS tug-of-war sketch for `F₂ = ‖x‖₂²`.
#[derive(Debug, Clone)]
pub struct AmsF2 {
    rows: usize,
    cols: usize,
    counters: Vec<f64>,
    /// Per-counter sign polynomial coefficients, constant term last.
    signs: Vec<[u64; 4]>,
}

impl AmsF2 {
    /// `rows × cols` counters: relative error `O(1/√cols)` with failure
    /// probability `2^{−Ω(rows)}`.
    ///
    /// # Panics
    /// Panics on a degenerate configuration.
    pub fn new(rows: usize, cols: usize, seed: u64) -> Self {
        assert!(rows > 0 && cols > 0, "degenerate AMS configuration");
        let mut rng = Xoshiro256pp::new(derive_seed(seed, 0xA352));
        let signs = (0..rows * cols)
            .map(|_| KWiseHash::draw_4wise(&mut rng))
            .collect();
        Self {
            rows,
            cols,
            counters: vec![0.0; rows * cols],
            signs,
        }
    }

    /// Standard configuration for a 2-approximation w.h.p. at universe `n`.
    pub fn for_2_approx(n: usize, seed: u64) -> Self {
        Self::new(rows_for_2_approx(n), COLS_FOR_2_APPROX, seed)
    }

    /// The [`space_bits`](LinearSketch::space_bits) of
    /// [`for_2_approx`](Self::for_2_approx)`(n, _)`, without building it.
    pub fn space_bits_for_2_approx(n: usize) -> usize {
        table_space_bits(rows_for_2_approx(n), COLS_FOR_2_APPROX)
    }

    /// The `F₂` estimate: median over rows of the mean over columns of the
    /// squared counters.
    pub fn estimate(&self) -> f64 {
        let mut row_means: Vec<f64> = (0..self.rows)
            .map(|r| {
                let row = &self.counters[r * self.cols..(r + 1) * self.cols];
                row.iter().map(|c| c * c).sum::<f64>() / self.cols as f64
            })
            .collect();
        median_in_place(&mut row_means)
    }
}

impl LinearSketch for AmsF2 {
    #[inline]
    fn update(&mut self, index: u64, delta: f64) {
        let powers = cubic_powers(index);
        for (c, h) in self.counters.iter_mut().zip(&self.signs) {
            // The hash's low bit, moved to the sign bit, negates `delta`.
            *c += signed(delta, eval_cubic(h, &powers) << 63);
        }
    }

    /// Merges a compatible sketch (same seed/shape).
    ///
    /// # Panics
    /// Panics if shapes differ (seed compatibility is the caller's
    /// responsibility and is checked indirectly via shape).
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.rows, other.rows, "row mismatch");
        assert_eq!(self.cols, other.cols, "col mismatch");
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            *a += b;
        }
    }

    fn space_bits(&self) -> usize {
        table_space_bits(self.rows, self.cols)
    }
}

/// Columns of [`AmsF2::for_2_approx`].
const COLS_FOR_2_APPROX: usize = 24;

/// Rows of [`AmsF2::for_2_approx`] at universe `n`.
fn rows_for_2_approx(n: usize) -> usize {
    ((n.max(2) as f64).ln().ceil() as usize).clamp(5, 9) | 1
}

/// The space of a `rows × cols` sketch: a 64-bit counter and a sign hash
/// of 4 coefficients of 61 bits per counter.
fn table_space_bits(rows: usize, cols: usize) -> usize {
    rows * cols * (64 + 4 * 61)
}

impl Encode for AmsF2 {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_usize(self.rows);
        w.put_usize(self.cols);
        w.put_f64s(&self.counters);
        w.put_usize(self.signs.len());
        // Each sign hash in `KWiseHash`'s layout (a length-prefixed
        // coefficient array).
        for h in &self.signs {
            w.put_u64s(h);
        }
        Ok(())
    }
}

impl Decode for AmsF2 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let rows = r.get_usize()?;
        let cols = r.get_usize()?;
        if !(1..=1024).contains(&rows) || !(1..=1 << 20).contains(&cols) {
            return Err(WireError::Invalid("ams shape"));
        }
        let cells = rows
            .checked_mul(cols)
            .ok_or(WireError::Invalid("ams shape overflow"))?;
        let counters = r.get_f64s()?;
        if counters.len() != cells {
            return Err(WireError::Invalid("ams counter length"));
        }
        if !counters.iter().all(|c| c.is_finite()) {
            return Err(WireError::Invalid("ams counter not finite"));
        }
        let sign_count = r.get_len(2)?;
        if sign_count != cells {
            return Err(WireError::Invalid("ams sign-hash length"));
        }
        let mut signs = Vec::with_capacity(sign_count);
        for _ in 0..sign_count {
            let h = KWiseHash::decode(r)?;
            let coeffs = h
                .coefficients()
                .try_into()
                .map_err(|_| WireError::Invalid("ams sign-hash degree"))?;
            signs.push(coeffs);
        }
        Ok(Self {
            rows,
            cols,
            counters,
            signs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_stream::gen::{uniform_vector, zipf_vector};
    use pts_stream::{Stream, StreamStyle};

    #[test]
    fn ams_is_2_approx_on_batteries() {
        for (seed, x) in [
            (1u64, zipf_vector(256, 1.1, 400, 21)),
            (2, uniform_vector(256, 30, 22)),
        ] {
            let truth = x.f2();
            let mut ok = 0;
            let trials = 30;
            for t in 0..trials {
                let mut ams = AmsF2::for_2_approx(256, seed * 1000 + t);
                ams.ingest_vector(&x);
                let est = ams.estimate();
                if est >= truth / 2.0 && est <= truth * 2.0 {
                    ok += 1;
                }
            }
            assert!(ok >= trials - 1, "2-approx held {ok}/{trials}");
        }
    }

    #[test]
    fn ams_estimate_is_unbiased_in_expectation() {
        let x = zipf_vector(128, 1.0, 200, 23);
        let truth = x.f2();
        let reps = 300;
        // Single counter per sketch isolates the raw estimator.
        let mean: f64 = (0..reps)
            .map(|r| {
                let mut a = AmsF2::new(1, 1, 5000 + r);
                a.ingest_vector(&x);
                a.estimate()
            })
            .sum::<f64>()
            / reps as f64;
        // Var = 2 F2²; standard error = sqrt(2/reps)·F2.
        let tol = 3.0 * (2.0 / reps as f64).sqrt() * truth;
        assert!((mean - truth).abs() < tol, "mean {mean} vs truth {truth}");
    }

    #[test]
    fn ams_stream_vs_vector_agree() {
        let x = zipf_vector(64, 1.2, 100, 24);
        let mut rng = pts_util::Xoshiro256pp::new(25);
        let s = Stream::from_target(&x, StreamStyle::Turnstile { churn: 1.0 }, &mut rng);
        let mut a = AmsF2::new(5, 8, 7);
        a.ingest_stream(&s);
        let mut b = AmsF2::new(5, 8, 7);
        b.ingest_vector(&x);
        assert!((a.estimate() - b.estimate()).abs() < 1e-6);
    }

    #[test]
    fn ams_merge_linearity() {
        let x = uniform_vector(64, 10, 26);
        let y = uniform_vector(64, 10, 27);
        let mut sx = AmsF2::new(5, 8, 9);
        sx.ingest_vector(&x);
        let mut sy = AmsF2::new(5, 8, 9);
        sy.ingest_vector(&y);
        sx.merge(&sy);
        let mut sxy = AmsF2::new(5, 8, 9);
        sxy.ingest_vector(&x.add(&y));
        assert!((sx.estimate() - sxy.estimate()).abs() < 1e-6);
    }

    #[test]
    fn shared_power_signs_equal_horner_signs() {
        // Edge indices around the field modulus, then random ones.
        let mut indices = vec![
            0,
            1,
            (1u64 << 61) - 2,
            (1u64 << 61) - 1,
            1u64 << 61,
            u64::MAX,
        ];
        let mut rng = Xoshiro256pp::new(0x5167);
        indices.extend((0..10_000).map(|_| rng.next_u64()));
        let ams = AmsF2::new(3, 5, 77);
        let horner: Vec<KWiseHash> = ams
            .signs
            .iter()
            .map(|c| KWiseHash::from_coefficients(c.to_vec()))
            .collect();
        for &x in &indices {
            let powers = cubic_powers(x);
            for (c, h) in ams.signs.iter().zip(&horner) {
                let shared = eval_cubic(c, &powers);
                assert_eq!(shared, h.hash(x), "index {x}");
                let sign = if shared & 1 == 0 { 1 } else { -1 };
                assert_eq!(sign, h.sign(x), "index {x}");
            }
        }
    }

    #[test]
    fn counters_equal_signed_sums_of_the_hash_bits() {
        let deltas = [3.0, -2.5, 0.0, -0.0, -7.0, 1e-300, -1e300, 0.125];
        let mut rng = Xoshiro256pp::new(0xA5);
        let updates: Vec<(u64, f64)> = (0..400)
            .map(|k| (rng.next_u64() % 97, deltas[k % deltas.len()]))
            .collect();
        let mut ams = AmsF2::new(3, 5, 31);
        let horner: Vec<KWiseHash> = ams
            .signs
            .iter()
            .map(|c| KWiseHash::from_coefficients(c.to_vec()))
            .collect();
        let mut want = vec![0.0f64; ams.counters.len()];
        for &(i, delta) in &updates {
            ams.update(i, delta);
            for (w, h) in want.iter_mut().zip(&horner) {
                let sign = if h.hash(i) & 1 == 0 { 1.0 } else { -1.0 };
                *w += sign * delta;
            }
        }
        let bits = |v: &[f64]| v.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&ams.counters), bits(&want));
        // A sum from `+0.0` hides the sign of a zero term, so check the
        // terms themselves too.
        for delta in deltas {
            for (bit, sign) in [(0u64, 1.0), (1, -1.0)] {
                assert_eq!(signed(delta, bit << 63).to_bits(), (sign * delta).to_bits());
            }
        }
    }

    #[test]
    fn space_bits_accounting() {
        let a = AmsF2::new(2, 3, 1);
        assert_eq!(a.space_bits(), 6 * 64 + 6 * 4 * 61);
    }
}
