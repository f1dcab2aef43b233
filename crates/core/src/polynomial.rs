//! **Perfect polynomial sampling** (Theorem 1.5 / 2.14; Algorithm 3) — the
//! first perfect sampler for a class of functions that is *not*
//! scale-invariant.
//!
//! For `G(z) = Σ_{d∈[D]} α_d |z|^{p_d}` with `0 < p_1 < … < p_D = p`,
//! draw perfect L_p samples (p the top degree) and accept index `j` with
//! probability `Σ_d α_d |x̂_j|^{p_d−p} / (slack·D·M)`. Every exponent
//! `p_d − p ≤ 0`, so on integer-valued streams (`|x_j| ≥ 1`) each term is at
//! most `α_d ≤ M` and the probability is well-defined; the acceptance
//! reweights `|x_j|^p` into `G(x_j)` exactly.
//!
//! Scale matters: `G(2x)/G(x)` varies across coordinates unless `G` is a
//! single power, so the output law of this sampler *changes* when the input
//! is scaled — experiment E8 demonstrates it (and that the sampler tracks
//! the changed law), which no L_p sampler can do.

use crate::perfect::{PerfectLpParams, PerfectLpSampler};
use pts_samplers::{LpLe2Batch, LpLe2Params, Sample, TurnstileSampler};
use pts_stream::Update;
use pts_util::derive_seed;
use pts_util::variates::keyed_unit;

/// A sampling polynomial `G(z) = Σ_d α_d |z|^{p_d}`.
#[derive(Debug, Clone, PartialEq)]
pub struct Polynomial {
    /// `(α_d, p_d)` pairs, strictly increasing in `p_d`, all `α_d > 0`.
    terms: Vec<(f64, f64)>,
}

impl Polynomial {
    /// Builds a polynomial from `(coefficient, power)` pairs.
    ///
    /// # Panics
    /// Panics unless powers are strictly increasing and positive and all
    /// coefficients are positive.
    pub fn new(terms: Vec<(f64, f64)>) -> Self {
        assert!(!terms.is_empty(), "polynomial needs at least one term");
        let mut prev = 0.0;
        for &(alpha, power) in &terms {
            assert!(alpha > 0.0, "coefficients must be positive");
            assert!(
                power > prev,
                "powers must be strictly increasing and positive"
            );
            prev = power;
        }
        Self { terms }
    }

    /// The terms `(α_d, p_d)`.
    pub fn terms(&self) -> &[(f64, f64)] {
        &self.terms
    }

    /// The leading power `p = p_D`.
    pub fn degree(&self) -> f64 {
        self.terms.last().expect("non-empty").1
    }

    /// The number of terms `D`.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// The largest coefficient `M`.
    pub fn max_coeff(&self) -> f64 {
        self.terms.iter().map(|&(a, _)| a).fold(0.0, f64::max)
    }

    /// Evaluates `G(z) = Σ_d α_d |z|^{p_d}` (so `G(0) = 0`).
    pub fn eval(&self, z: f64) -> f64 {
        let az = z.abs();
        if az == 0.0 {
            return 0.0;
        }
        self.terms.iter().map(|&(a, p)| a * az.powf(p)).sum()
    }
}

/// The inner L_p engine: Algorithm 1/2 for `p > 2`, the JW18 sampler below.
#[derive(Debug, Clone)]
enum InnerLp {
    High(Box<PerfectLpSampler>),
    Low(LpLe2Batch),
}

impl InnerLp {
    fn process(&mut self, u: Update) {
        match self {
            InnerLp::High(s) => s.process(u),
            InnerLp::Low(s) => s.process(u),
        }
    }

    fn sample(&mut self) -> Option<Sample> {
        match self {
            InnerLp::High(s) => s.sample(),
            InnerLp::Low(s) => s.sample(),
        }
    }

    fn space_bits(&self) -> usize {
        match self {
            InnerLp::High(s) => s.space_bits(),
            InnerLp::Low(s) => s.space_bits(),
        }
    }
}

/// Parameters for [`PolynomialSampler`].
#[derive(Debug, Clone)]
pub struct PolynomialParams {
    /// The polynomial `G`.
    pub poly: Polynomial,
    /// Number of inner L_p samples (`N = O(log n)`; acceptance is `Ω(1)`).
    pub samples: usize,
    /// Acceptance headroom (the `5` of Algorithm 3 line 7).
    pub slack: f64,
}

impl PolynomialParams {
    /// Defaults for universe `n`.
    ///
    /// The acceptance probability per inner sample is at least
    /// `α_D / (slack·D·M)` (Lemma 2.12's `Ω(1)`, with the polynomial's
    /// constants spelled out), so the inner-sample count scales with its
    /// inverse times the usual `O(log n)`.
    pub fn for_universe(n: usize, poly: Polynomial) -> Self {
        let slack = 1.0;
        let d = poly.num_terms() as f64;
        let m = poly.max_coeff();
        let alpha_d = poly.terms().last().expect("non-empty").0;
        let accept_inv = (slack * d * m / alpha_d).max(1.0);
        let samples = ((((n.max(4) as f64).ln() + 4.0) * accept_inv).ceil() as usize).clamp(6, 256);
        Self {
            poly,
            samples,
            slack,
        }
    }
}

/// The perfect polynomial sampler (Algorithm 3).
#[derive(Debug, Clone)]
pub struct PolynomialSampler {
    params: PolynomialParams,
    inners: Vec<InnerLp>,
    accept_seed: u64,
}

impl PolynomialSampler {
    /// Builds the sampler over universe `[0, n)`.
    pub fn new(n: usize, params: PolynomialParams, seed: u64) -> Self {
        assert!(params.samples >= 1, "need at least one inner sample");
        assert!(params.slack >= 1.0, "slack must be at least 1");
        let p = params.poly.degree();
        let inners = (0..params.samples)
            .map(|t| {
                let s = derive_seed(seed, t as u64);
                if p > 2.0 {
                    InnerLp::High(Box::new(PerfectLpSampler::new(
                        n,
                        PerfectLpParams::for_universe(n, p),
                        s,
                    )))
                } else {
                    InnerLp::Low(LpLe2Batch::new(n, LpLe2Params::for_universe(n, p), 6, s))
                }
            })
            .collect();
        Self {
            params,
            inners,
            accept_seed: derive_seed(seed, 0xACCE),
        }
    }

    /// The polynomial being sampled.
    pub fn polynomial(&self) -> &Polynomial {
        &self.params.poly
    }
}

impl TurnstileSampler for PolynomialSampler {
    fn process(&mut self, u: Update) {
        for inner in &mut self.inners {
            inner.process(u);
        }
    }

    fn sample(&mut self) -> Option<Sample> {
        let p = self.params.poly.degree();
        let d = self.params.poly.num_terms() as f64;
        let m = self.params.poly.max_coeff();
        let denom = self.params.slack * d * m;
        for t in 0..self.inners.len() {
            let Some(candidate) = self.inners[t].sample() else {
                continue;
            };
            // Acceptance: Σ_d α_d |x̂|^{p_d − p} / (slack·D·M). For |x̂| ≥ 1
            // every term is ≤ α_d so the ratio is a probability.
            let mag = candidate.estimate.abs().max(1.0);
            let weight: f64 = self
                .params
                .poly
                .terms()
                .iter()
                .map(|&(alpha, pd)| alpha * mag.powf(pd - p))
                .sum();
            let r = (weight / denom).min(1.0);
            if keyed_unit(self.accept_seed, t as u64) < r {
                return Some(candidate);
            }
        }
        None
    }

    fn space_bits(&self) -> usize {
        self.inners.iter().map(InnerLp::space_bits).sum::<usize>() + 64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_stream::FrequencyVector;
    use pts_util::stats::tv_distance;

    #[test]
    fn polynomial_validation() {
        let g = Polynomial::new(vec![(1.0, 2.0), (3.0, 3.0)]);
        assert_eq!(g.degree(), 3.0);
        assert_eq!(g.num_terms(), 2);
        assert_eq!(g.max_coeff(), 3.0);
        assert_eq!(g.eval(0.0), 0.0);
        assert!((g.eval(2.0) - (4.0 + 24.0)).abs() < 1e-12);
        assert!((g.eval(-2.0) - g.eval(2.0)).abs() < 1e-12, "even in |z|");
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_powers() {
        let _ = Polynomial::new(vec![(1.0, 3.0), (1.0, 2.0)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_coeff() {
        let _ = Polynomial::new(vec![(0.0, 2.0)]);
    }

    fn poly_distribution(
        x: &FrequencyVector,
        poly: Polynomial,
        trials: u64,
        seed0: u64,
    ) -> (Vec<u64>, u64) {
        let n = x.n();
        let params = PolynomialParams::for_universe(n, poly);
        let mut counts = vec![0u64; n];
        let mut fails = 0;
        for t in 0..trials {
            let mut s = PolynomialSampler::new(n, params.clone(), seed0 + t * 31);
            s.ingest_vector(x);
            match s.sample() {
                Some(sample) => counts[sample.index as usize] += 1,
                None => fails += 1,
            }
        }
        (counts, fails)
    }

    #[test]
    fn follows_polynomial_law_low_degree() {
        // G(z) = |z| + 2 z²  (degree ≤ 2 → JW18 inner engine).
        let g = Polynomial::new(vec![(1.0, 1.0), (2.0, 2.0)]);
        let x = FrequencyVector::from_values(vec![1, -3, 5, 2, 0, 4]);
        let weights: Vec<f64> = x.values().iter().map(|&v| g.eval(v as f64)).collect();
        let (counts, fails) = poly_distribution(&x, g, 3_000, 11);
        let accepted: u64 = counts.iter().sum();
        assert!(accepted > 2_000, "accepted {accepted} fails {fails}");
        let tv = tv_distance(&counts, &weights);
        assert!(tv < 0.05, "tv {tv}");
    }

    #[test]
    fn follows_polynomial_law_high_degree() {
        // G(z) = z² + 3|z|³ (degree 3 → Algorithm 1 inner engine).
        let g = Polynomial::new(vec![(1.0, 2.0), (3.0, 3.0)]);
        let x = FrequencyVector::from_values(vec![2, -4, 6, 1, 0, 3]);
        let weights: Vec<f64> = x.values().iter().map(|&v| g.eval(v as f64)).collect();
        let (counts, fails) = poly_distribution(&x, g, 400, 77);
        let accepted: u64 = counts.iter().sum();
        assert!(accepted > 330, "accepted {accepted} fails {fails}");
        let tv = tv_distance(&counts, &weights);
        assert!(tv < 0.1, "tv {tv}");
    }

    #[test]
    fn law_is_not_scale_invariant() {
        // The defining feature (E8): doubling the vector shifts mass toward
        // the high-degree term, changing the *normalized* law. Compare the
        // ideal laws first, then check the sampler tracks the scaled law.
        let g = Polynomial::new(vec![(1.0, 1.0), (0.2, 2.0)]);
        let x1 = FrequencyVector::from_values(vec![1, 8, 3, 0]);
        let x2 = FrequencyVector::from_values(vec![8, 64, 24, 0]);
        let w1: Vec<f64> = x1.values().iter().map(|&v| g.eval(v as f64)).collect();
        let w2: Vec<f64> = x2.values().iter().map(|&v| g.eval(v as f64)).collect();
        let t1: f64 = w1.iter().sum();
        let t2: f64 = w2.iter().sum();
        // Ideal laws differ measurably between x and 2x.
        let ideal_shift: f64 = w1
            .iter()
            .zip(&w2)
            .map(|(a, b)| (a / t1 - b / t2).abs())
            .sum::<f64>()
            / 2.0;
        assert!(ideal_shift > 0.02, "shift {ideal_shift}");
        // Sampler on the scaled vector matches the scaled law, not the
        // unscaled one.
        let (counts, _) = poly_distribution(&x2, g, 2_000, 201);
        let tv_scaled = tv_distance(&counts, &w2);
        let tv_unscaled = tv_distance(&counts, &w1);
        assert!(tv_scaled < 0.06, "tv vs own law {tv_scaled}");
        assert!(
            tv_unscaled > tv_scaled + ideal_shift / 2.0,
            "scaled {tv_scaled} vs unscaled {tv_unscaled}"
        );
    }

    #[test]
    fn zero_vector_fails() {
        let g = Polynomial::new(vec![(1.0, 3.0)]);
        let mut s = PolynomialSampler::new(8, PolynomialParams::for_universe(8, g), 5);
        assert!(s.sample().is_none());
    }
}
