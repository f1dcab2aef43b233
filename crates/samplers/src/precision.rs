//! Precision sampling: the *approximate* L_p sampler for `p ∈ (0, 2]`
//! (the \[JST11\]/\[AKO11\] row of Table 1).
//!
//! Each repetition scales `z_i = x_i / u_i^{1/p}` with `u_i ~ U(0,1)` keyed
//! per index. Coordinate `i` clears a threshold `t` iff `u_i ≤ (|x_i|/t)^p`,
//! an event of probability `|x_i|^p / t^p` — proportional to the target law.
//! With `t = (‖x‖_p / ε)^{1/p}`-style thresholds each repetition yields a
//! sample with probability `≈ ε`, and the relative distortion (from
//! CountSketch recovery error and multi-crossing collisions) is `O(ε)` —
//! the `(1±ε)` multiplicative error that separates *approximate* from
//! *perfect* samplers and that experiment T1 measures head-to-head.

use crate::traits::{Sample, TurnstileSampler};
use pts_sketch::{CountSketch, CountSketchParams, FpMaxStab, FpMaxStabParams, LinearSketch};
use pts_stream::Update;
use pts_util::derive_seed;
use pts_util::variates::keyed_unit;

/// Parameters for [`PrecisionSampler`].
#[derive(Debug, Clone, Copy)]
pub struct PrecisionParams {
    /// Moment order `p ∈ (0, 2]`.
    pub p: f64,
    /// Target relative distortion ε (drives the repetition count `Θ(1/ε)`).
    pub epsilon: f64,
    /// CountSketch rows per repetition.
    pub rows: usize,
    /// CountSketch buckets per repetition.
    pub buckets: usize,
}

impl PrecisionParams {
    /// Defaults for universe `n` at distortion `epsilon`.
    pub fn for_universe(n: usize, p: f64, epsilon: f64) -> Self {
        assert!(p > 0.0 && p <= 2.0, "precision sampler handles p in (0,2]");
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        let log2n = (n.max(4) as f64).log2();
        Self {
            p,
            epsilon,
            rows: 5,
            buckets: ((8.0 * log2n * log2n).ceil() as usize).max(32),
        }
    }
}

/// One scaling repetition: a CountSketch over the uniformly-scaled vector.
#[derive(Debug, Clone)]
struct Repetition {
    cs: CountSketch,
    scale_seed: u64,
}

/// The approximate precision sampler.
#[derive(Debug, Clone)]
pub struct PrecisionSampler {
    params: PrecisionParams,
    universe: usize,
    reps: Vec<Repetition>,
    norm_est: FpMaxStab,
}

impl PrecisionSampler {
    /// Builds the sampler over universe `[0, n)`; holds `⌈2/ε⌉` repetitions
    /// plus a norm estimator to place the threshold.
    pub fn new(n: usize, params: PrecisionParams, seed: u64) -> Self {
        assert!(n >= 2, "universe too small");
        let rep_count = (2.0 / params.epsilon).ceil() as usize;
        let cs_params = CountSketchParams {
            rows: params.rows,
            buckets: params.buckets,
        };
        let reps = (0..rep_count)
            .map(|r| Repetition {
                cs: CountSketch::new(cs_params, derive_seed(seed, 2 * r as u64)),
                scale_seed: derive_seed(seed, 2 * r as u64 + 1),
            })
            .collect();
        let norm_est = FpMaxStab::new(
            n,
            FpMaxStabParams::for_universe(n, params.p),
            derive_seed(seed, 0xF0E5),
        );
        Self {
            params,
            universe: n,
            reps,
            norm_est,
        }
    }

    #[inline]
    fn scale(&self, rep: usize, i: u64) -> f64 {
        1.0 / keyed_unit(self.reps[rep].scale_seed, i).powf(1.0 / self.params.p)
    }
}

impl TurnstileSampler for PrecisionSampler {
    fn process(&mut self, u: Update) {
        if u.delta == 0 {
            return;
        }
        for r in 0..self.reps.len() {
            let scaled = u.delta as f64 * self.scale(r, u.index);
            self.reps[r].cs.update(u.index, scaled);
        }
        self.norm_est.update(u.index, u.delta as f64);
    }

    fn sample(&mut self) -> Option<Sample> {
        let lp = self.norm_est.lp_estimate();
        if lp <= 0.0 {
            return None;
        }
        // Threshold: crossing probability for the whole vector is ≈ ε per
        // repetition, so some repetition succeeds with constant probability.
        let threshold = lp / self.params.epsilon.powf(1.0 / self.params.p);
        for r in 0..self.reps.len() {
            let (i, est) = self.reps[r].cs.argmax(self.universe);
            if est.abs() > threshold {
                return Some(Sample {
                    index: i,
                    estimate: est / self.scale(r, i),
                });
            }
        }
        None
    }

    fn space_bits(&self) -> usize {
        self.reps
            .iter()
            .map(|r| r.cs.space_bits() + 64)
            .sum::<usize>()
            + self.norm_est.space_bits()
    }

    /// Merges a same-seeded shard sampler (all repetitions and the norm
    /// estimator are linear sketches).
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.universe, other.universe, "universe mismatch");
        assert_eq!(self.reps.len(), other.reps.len(), "repetition mismatch");
        for (a, b) in self.reps.iter_mut().zip(&other.reps) {
            assert_eq!(a.scale_seed, b.scale_seed, "seed mismatch");
            a.cs.merge(&b.cs);
        }
        self.norm_est.merge(&other.norm_est);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_stream::FrequencyVector;
    use pts_util::stats::tv_distance;

    #[test]
    fn approximately_follows_lp_law() {
        let x = FrequencyVector::from_values(vec![5, -10, 20, 40, 2, 0, 8, 30]);
        let weights = x.lp_weights(2.0);
        let mut counts = vec![0u64; 8];
        let mut fails = 0u64;
        let trials = 3_000u64;
        for t in 0..trials {
            let mut s = PrecisionSampler::new(8, PrecisionParams::for_universe(8, 2.0, 0.3), t);
            s.ingest_vector(&x);
            match s.sample() {
                Some(sample) => counts[sample.index as usize] += 1,
                None => fails += 1,
            }
        }
        assert!(fails < trials / 2, "fails {fails}/{trials}");
        let tv = tv_distance(&counts, &weights);
        // Approximate sampler: distortion up to ~ε expected, but the law
        // must still be recognizably L2.
        assert!(tv < 0.15, "tv {tv}");
    }

    #[test]
    fn estimate_tracks_truth() {
        let x = FrequencyVector::from_values(vec![100, 50, -200, 25]);
        let mut hits = 0;
        for t in 0..200u64 {
            let mut s =
                PrecisionSampler::new(4, PrecisionParams::for_universe(4, 2.0, 0.3), 900 + t);
            s.ingest_vector(&x);
            if let Some(sample) = s.sample() {
                let truth = x.value(sample.index) as f64;
                let rel = (sample.estimate - truth).abs() / truth.abs();
                assert!(rel < 0.5, "estimate {} vs {truth}", sample.estimate);
                hits += 1;
            }
        }
        assert!(hits > 50, "hits {hits}");
    }

    #[test]
    fn empty_vector_fails() {
        let mut s = PrecisionSampler::new(8, PrecisionParams::for_universe(8, 2.0, 0.3), 3);
        assert!(s.sample().is_none());
    }

    #[test]
    fn smaller_epsilon_uses_more_space() {
        let coarse = PrecisionSampler::new(64, PrecisionParams::for_universe(64, 2.0, 0.5), 1);
        let fine = PrecisionSampler::new(64, PrecisionParams::for_universe(64, 2.0, 0.05), 1);
        assert!(fine.space_bits() > 5 * coarse.space_bits());
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn rejects_bad_epsilon() {
        let _ = PrecisionParams::for_universe(8, 2.0, 0.0);
    }
}
