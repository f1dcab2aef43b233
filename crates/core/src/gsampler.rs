//! Perfect G-samplers for bounded functions (§5.2–5.3; Algorithms 6, 7, 8).
//!
//! The rejection framework of Theorem 5.7: a perfect L₀ sample reveals a
//! uniformly random non-zero coordinate *together with its exact value*
//! `x_i`; accepting it with probability `G(x_i)/H` (for any upper bound
//! `H ≥ max G`) converts the uniform law into the `G(x_i)/Σ_j G(x_j)` law
//! with zero distortion beyond L₀'s own `1/poly(n)`. `O(H/Q)` repetitions
//! guarantee a sample when `G ≥ Q` on the support.
//!
//! Instantiations shipped here:
//! * `log`: `G(z) = log(1+|z|)`, `H = log(1+m)` (Algorithm 6, Theorem 5.5);
//! * `cap`: `G(z) = min(T, |z|^p)`, `H = T` (Algorithm 7, Theorem 5.6);
//! * M-estimators (Huber / Fair / L1−L2) via the general framework — the
//!   functions \[JWZ22\] handles only on insertion-only streams, now on
//!   turnstile streams.

use pts_samplers::{L0Params, PerfectL0Sampler, Sample, TurnstileSampler};
use pts_stream::Update;
use pts_util::derive_seed;
use pts_util::variates::keyed_unit;
use std::sync::Arc;

/// A non-negative measurement function `G` with `G(0) = 0`.
pub type GFunction = Arc<dyn Fn(f64) -> f64 + Send + Sync>;

/// The general rejection G-sampler (Algorithm 8).
pub struct RejectionGSampler {
    g: GFunction,
    upper_h: f64,
    l0_samples: Vec<PerfectL0Sampler>,
    accept_seed: u64,
    label: &'static str,
}

impl Clone for RejectionGSampler {
    fn clone(&self) -> Self {
        Self {
            g: Arc::clone(&self.g),
            upper_h: self.upper_h,
            l0_samples: self.l0_samples.clone(),
            accept_seed: self.accept_seed,
            label: self.label,
        }
    }
}

impl std::fmt::Debug for RejectionGSampler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RejectionGSampler")
            .field("label", &self.label)
            .field("upper_h", &self.upper_h)
            .field("repetitions", &self.l0_samples.len())
            .finish()
    }
}

impl RejectionGSampler {
    /// Builds the sampler over universe `[0, n)` with `repetitions`
    /// independent L₀ samplers and acceptance `G(x)/H`.
    ///
    /// # Panics
    /// Panics if `H ≤ 0` or `repetitions == 0`.
    pub fn new(n: usize, g: GFunction, upper_h: f64, repetitions: usize, seed: u64) -> Self {
        Self::labelled(n, g, upper_h, repetitions, seed, "custom")
    }

    fn labelled(
        n: usize,
        g: GFunction,
        upper_h: f64,
        repetitions: usize,
        seed: u64,
        label: &'static str,
    ) -> Self {
        assert!(upper_h > 0.0, "upper bound H must be positive");
        assert!(repetitions >= 1, "need at least one L0 repetition");
        let l0_samples = (0..repetitions)
            .map(|r| PerfectL0Sampler::new(n, L0Params::default(), derive_seed(seed, r as u64)))
            .collect();
        Self {
            g,
            upper_h,
            l0_samples,
            accept_seed: derive_seed(seed, 0x6ACC),
            label,
        }
    }

    /// Algorithm 6: the logarithmic sampler `G(z) = log(1+|z|)`.
    ///
    /// `stream_bound_m` bounds the magnitude any coordinate can reach (the
    /// paper's stream length `m`), giving `H = log(1+m)`; acceptance is at
    /// least `log 2 / log(1+m)`, so `O(log m)` repetitions suffice.
    pub fn log_sampler(n: usize, stream_bound_m: u64, seed: u64) -> Self {
        assert!(stream_bound_m >= 1);
        let h = (1.0 + stream_bound_m as f64).ln();
        let reps = ((4.0 * h / std::f64::consts::LN_2).ceil() as usize).max(8);
        let g: GFunction = Arc::new(|z: f64| (1.0 + z.abs()).ln());
        Self::labelled(n, g, h, reps, seed, "log(1+|z|)")
    }

    /// Algorithm 7: the cap sampler `G(z) = min(T, |z|^p)`, `H = T`;
    /// acceptance is at least `1/T` on integer streams, so `O(T)`
    /// repetitions suffice.
    pub fn cap_sampler(n: usize, threshold_t: f64, p: f64, seed: u64) -> Self {
        assert!(threshold_t >= 1.0, "cap threshold must be >= 1");
        assert!(p > 0.0);
        let reps = ((4.0 * threshold_t).ceil() as usize).max(8);
        let g: GFunction = Arc::new(move |z: f64| z.abs().powf(p).min(threshold_t));
        Self::labelled(n, g, threshold_t, reps, seed, "min(T,|z|^p)")
    }

    /// The Huber estimator `G(z) = z²/(2τ)` for `|z| ≤ τ`, else `|z| − τ/2`,
    /// bounded by its value at the stream bound `m`.
    pub fn huber_sampler(n: usize, tau: f64, stream_bound_m: u64, seed: u64) -> Self {
        assert!(tau > 0.0);
        let g: GFunction = Arc::new(move |z: f64| {
            let a = z.abs();
            if a <= tau {
                a * a / (2.0 * tau)
            } else {
                a - tau / 2.0
            }
        });
        let h = g(stream_bound_m as f64);
        let q = g(1.0); // minimum over non-zero integer values
        let reps = ((3.0 * h / q).ceil() as usize).clamp(8, 4096);
        Self::labelled(n, g, h, reps, seed, "huber")
    }

    /// The Fair estimator `G(z) = τ|z| − τ² log(1 + |z|/τ)`.
    pub fn fair_sampler(n: usize, tau: f64, stream_bound_m: u64, seed: u64) -> Self {
        assert!(tau > 0.0);
        let g: GFunction = Arc::new(move |z: f64| {
            let a = z.abs();
            tau * a - tau * tau * (1.0 + a / tau).ln()
        });
        let h = g(stream_bound_m as f64);
        let q = g(1.0);
        assert!(q > 0.0, "fair estimator degenerate at this tau");
        let reps = ((3.0 * h / q).ceil() as usize).clamp(8, 4096);
        Self::labelled(n, g, h, reps, seed, "fair")
    }

    /// The soft-cap function `G(z) = 1 − e^{−τ|z|}` (the \[PW25\] family's
    /// flagship, there limited to insertion-only streams with a random
    /// oracle; here on general turnstile streams). `H = 1` always, and
    /// `G(1) = 1 − e^{−τ}` lower-bounds acceptance on integer streams.
    pub fn soft_cap_sampler(n: usize, tau: f64, seed: u64) -> Self {
        assert!(tau > 0.0);
        let q = 1.0 - (-tau).exp();
        let reps = ((3.0 / q).ceil() as usize).clamp(8, 4096);
        let g: GFunction = Arc::new(move |z: f64| 1.0 - (-tau * z.abs()).exp());
        Self::labelled(n, g, 1.0, reps, seed, "soft-cap")
    }

    /// The L1−L2 estimator `G(z) = 2(√(1+z²/2) − 1)`.
    pub fn l1l2_sampler(n: usize, stream_bound_m: u64, seed: u64) -> Self {
        let g: GFunction = Arc::new(|z: f64| 2.0 * ((1.0 + z * z / 2.0).sqrt() - 1.0));
        let h = g(stream_bound_m as f64);
        let q = g(1.0);
        let reps = ((3.0 * h / q).ceil() as usize).clamp(8, 4096);
        Self::labelled(n, g, h, reps, seed, "l1-l2")
    }

    /// Number of L₀ repetitions held.
    pub fn repetitions(&self) -> usize {
        self.l0_samples.len()
    }

    /// The configured upper bound `H`.
    pub fn upper_bound(&self) -> f64 {
        self.upper_h
    }
}

impl TurnstileSampler for RejectionGSampler {
    fn process(&mut self, u: Update) {
        for s in &mut self.l0_samples {
            s.process(u);
        }
    }

    fn sample(&mut self) -> Option<Sample> {
        for r in 0..self.l0_samples.len() {
            let Some(candidate) = self.l0_samples[r].sample() else {
                continue;
            };
            // L0 gives the exact value, so G evaluates exactly; acceptance
            // G(x)/H needs no clamping beyond guarding H mis-specification.
            let gval = (self.g)(candidate.estimate);
            debug_assert!(gval >= 0.0, "G must be non-negative");
            let r_acc = (gval / self.upper_h).min(1.0);
            if keyed_unit(self.accept_seed, r as u64) < r_acc {
                return Some(candidate);
            }
        }
        None
    }

    fn space_bits(&self) -> usize {
        self.l0_samples
            .iter()
            .map(TurnstileSampler::space_bits)
            .sum::<usize>()
            + 64
    }

    /// Merges a same-seeded shard sampler: the underlying L₀ repetitions
    /// are linear sketches, and `G`/`H` are construction-time constants.
    /// `G` itself is an opaque closure that cannot be compared, so the
    /// acceptance bound `H`, the label, and the repetition count stand in
    /// as the configuration fingerprint.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.accept_seed, other.accept_seed, "seed mismatch");
        assert_eq!(self.upper_h, other.upper_h, "acceptance bound mismatch");
        assert_eq!(self.label, other.label, "G-function mismatch");
        assert_eq!(
            self.l0_samples.len(),
            other.l0_samples.len(),
            "repetition mismatch"
        );
        for (a, b) in self.l0_samples.iter_mut().zip(&other.l0_samples) {
            a.merge(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_stream::FrequencyVector;
    use pts_util::stats::tv_distance;

    fn g_distribution(
        x: &FrequencyVector,
        build: impl Fn(u64) -> RejectionGSampler,
        trials: u64,
    ) -> (Vec<u64>, u64) {
        let mut counts = vec![0u64; x.n()];
        let mut fails = 0;
        for t in 0..trials {
            let mut s = build(t);
            s.ingest_vector(x);
            match s.sample() {
                Some(sample) => {
                    assert_eq!(
                        sample.estimate,
                        x.value(sample.index) as f64,
                        "L0 must return exact values"
                    );
                    counts[sample.index as usize] += 1;
                }
                None => fails += 1,
            }
        }
        (counts, fails)
    }

    #[test]
    fn log_sampler_follows_log_law() {
        let x = FrequencyVector::from_values(vec![1, 10, 100, 1000, 0, -50]);
        let weights: Vec<f64> = x
            .values()
            .iter()
            .map(|&v| (1.0 + (v as f64).abs()).ln())
            .collect();
        let (counts, fails) = g_distribution(
            &x,
            |t| RejectionGSampler::log_sampler(6, 1000, 900 + t),
            8_000,
        );
        let accepted: u64 = counts.iter().sum();
        assert!(fails < 8_000 / 10, "fails {fails}");
        let tv = tv_distance(&counts, &weights);
        assert!(tv < 0.03, "tv {tv} over {accepted} samples");
    }

    #[test]
    fn cap_sampler_follows_capped_law() {
        // T = 8, p = 2: values 1,2,3,10 → G = 1, 4, 8, 8.
        let x = FrequencyVector::from_values(vec![1, 2, -3, 10, 0]);
        let weights = [1.0, 4.0, 8.0, 8.0, 0.0];
        let (counts, fails) = g_distribution(
            &x,
            |t| RejectionGSampler::cap_sampler(5, 8.0, 2.0, 300 + t),
            8_000,
        );
        assert!(fails < 8_000 / 10, "fails {fails}");
        let tv = tv_distance(&counts, &weights);
        assert!(tv < 0.03, "tv {tv}");
    }

    #[test]
    fn huber_sampler_follows_huber_law() {
        let tau = 3.0;
        let huber = |z: f64| {
            let a = z.abs();
            if a <= tau {
                a * a / (2.0 * tau)
            } else {
                a - tau / 2.0
            }
        };
        let x = FrequencyVector::from_values(vec![1, -2, 5, 20, 0, 3]);
        let weights: Vec<f64> = x.values().iter().map(|&v| huber(v as f64)).collect();
        let (counts, fails) = g_distribution(
            &x,
            |t| RejectionGSampler::huber_sampler(6, tau, 20, 500 + t),
            8_000,
        );
        assert!(fails < 8_000 / 5, "fails {fails}");
        let tv = tv_distance(&counts, &weights);
        assert!(tv < 0.03, "tv {tv}");
    }

    #[test]
    fn fair_and_l1l2_accept_and_sample() {
        let x = FrequencyVector::from_values(vec![2, -7, 13, 0]);
        for build in [
            |t| RejectionGSampler::fair_sampler(4, 2.0, 13, 40 + t),
            |t| RejectionGSampler::l1l2_sampler(4, 13, 80 + t),
        ] {
            let (counts, fails) = g_distribution(&x, build, 500);
            let accepted: u64 = counts.iter().sum();
            assert!(accepted > 350, "accepted {accepted}, fails {fails}");
            assert_eq!(counts[3], 0, "zero coordinate must never be sampled");
        }
    }

    #[test]
    fn soft_cap_follows_saturating_law() {
        // τ = 1: G(1) ≈ 0.632, G(3) ≈ 0.950, G(50) ≈ 1 — big values saturate
        // toward uniform, unlike any L_p law.
        let x = FrequencyVector::from_values(vec![1, 3, -50, 0]);
        let tau = 1.0;
        let weights: Vec<f64> = x
            .values()
            .iter()
            .map(|&v| 1.0 - (-tau * (v as f64).abs()).exp())
            .collect();
        let (counts, fails) = g_distribution(
            &x,
            |t| RejectionGSampler::soft_cap_sampler(4, tau, 700 + t),
            8_000,
        );
        assert!(fails < 8_000 / 10, "fails {fails}");
        let tv = tv_distance(&counts, &weights);
        assert!(tv < 0.03, "tv {tv}");
        // The two saturated coordinates must be nearly equally likely even
        // though their magnitudes differ 16×.
        let got: u64 = counts.iter().sum();
        let r3 = counts[1] as f64 / got as f64;
        let r50 = counts[2] as f64 / got as f64;
        assert!(
            (r3 - r50).abs() < 0.05,
            "saturation violated: {r3} vs {r50}"
        );
    }

    #[test]
    fn deletions_are_respected() {
        // Insert a large value then delete it; G-law must reflect the final
        // vector only — this is the turnstile capability \[JWZ22\] lacks.
        let mut s = RejectionGSampler::log_sampler(8, 1000, 77);
        s.process(Update::new(2, 500));
        s.process(Update::new(5, 3));
        s.process(Update::new(2, -500));
        let mut found_5 = false;
        for _ in 0..20 {
            if let Some(sample) = s.sample() {
                assert_eq!(sample.index, 5);
                found_5 = true;
                break;
            }
        }
        assert!(found_5, "survivor must be sampled within 20 queries");
    }

    #[test]
    fn zero_vector_fails() {
        let mut s = RejectionGSampler::cap_sampler(8, 4.0, 2.0, 9);
        assert!(s.sample().is_none());
    }

    #[test]
    fn repetitions_scale_with_bounds() {
        let small = RejectionGSampler::cap_sampler(8, 2.0, 2.0, 1);
        let large = RejectionGSampler::cap_sampler(8, 64.0, 2.0, 1);
        assert!(large.repetitions() > 10 * small.repetitions());
        assert_eq!(large.upper_bound(), 64.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_bad_h() {
        let _ = RejectionGSampler::new(8, std::sync::Arc::new(|z| z.abs()), 0.0, 4, 1);
    }
}
