//! Perfect L_p sampling for `p ∈ (0, 2]` on turnstile streams — our
//! instantiation of the JW18 sampler (Theorem 1.10), the substrate
//! Algorithms 1–3 consume as a black box.
//!
//! Construction. Scale every coordinate by an inverse exponential,
//! `z_i = x_i · (n^c / e_i)^{1/p}` with `e_i ~ Exp(1)` keyed per index.
//! Lemma 1.16: `Pr[argmax_i |z_i| = i] = |x_i|^p / ‖x‖_p^p` **exactly** —
//! perfectness lives in the scaling, and the `n^c` factor is the paper's
//! duplication applied through max-stability (Prop 1.13): the largest of the
//! `n^c` virtual copies of `i` is `x_i (n^c/e_i)^{1/p}` in distribution.
//!
//! The sketch part: one CountSketch over `z` recovers the argmax (the max is
//! an L₂ heavy hitter of `z` by Lemma 1.17) and doubles as an `F₂(z)`
//! estimator (row sums of squared cells are unbiased for `‖z‖₂²` — the
//! signs make cross terms vanish), which calibrates the anti-concentration
//! gap test: FAIL unless `|ẑ_(1)| − |ẑ_(2)| > τ·μ·‖z‖₂/√buckets`, with
//! `μ ~ U[½, 3/2]` smoothing the threshold exactly as Algorithm 4 does.
//!
//! Duplication in the gap test. The paper's reason for duplicating is that
//! `Pr[FAIL | D(1) = i]` must not depend on `i` (§3's `(100n, 1, …, 1)`
//! example). We reproduce the decoupling device exactly where it bites: the
//! "second max" in the gap test is the larger of (a) the best *other* index
//! and (b) the **second-largest virtual copy of the winner itself** — by the
//! order statistics of `n^c` i.i.d. exponentials the top two copies of `i`
//! are `x_i (n^c/e_i)^{1/p}` and `x_i (n^c/(e_i+e'_i))^{1/p}` with fresh
//! `e'_i ~ Exp(1)`. When one coordinate dominates, the gap is then governed
//! by `(E₁, E₂)` alone, independent of which index won. The duplicated
//! *bucket noise* (Lemma 3.8's full tail) is not simulated here; ablation A1
//! measures the residual conditional-failure dependence as `dup_c` varies.

use crate::traits::{Sample, TurnstileSampler};
use pts_sketch::{CountSketch, CountSketchParams, LinearSketch};
use pts_stream::Update;
use pts_util::variates::keyed_exponential;
use pts_util::wire::{Decode, Encode, WireError, WireReader, WireWriter};
use pts_util::{derive_seed, keyed_u64};

/// Parameters for [`PerfectLpLe2Sampler`].
#[derive(Debug, Clone, Copy)]
pub struct LpLe2Params {
    /// The moment order `p ∈ (0, 2]`.
    pub p: f64,
    /// CountSketch rows.
    pub rows: usize,
    /// CountSketch buckets per row (`Θ(log² n)` for the heavy-hitter
    /// guarantee; more buckets tighten the value estimate).
    pub buckets: usize,
    /// Duplication exponent `c ≥ 0`: virtual universe `n^{c+1}` applied via
    /// max-stability.
    pub dup_c: f64,
    /// Gap-test strictness `τ`: larger τ fails more often but guarantees the
    /// recovered argmax harder.
    pub test_factor: f64,
    /// Extra independent CountSketch instances over the same scaled vector,
    /// for the near-unbiased estimates Algorithms 1–2 need (may be 0).
    pub extra_estimators: usize,
}

impl LpLe2Params {
    /// Paper-shaped defaults for universe `n`: `Θ(log² n)` buckets,
    /// `Θ(log n)` rows, duplication `c = 1`, no extra estimators.
    pub fn for_universe(n: usize, p: f64) -> Self {
        assert!(p > 0.0 && p <= 2.0, "this sampler handles p in (0,2]");
        let log2n = (n.max(4) as f64).log2();
        Self {
            p,
            rows: (log2n.ceil() as usize).clamp(3, 9) | 1,
            buckets: ((16.0 * log2n * log2n).ceil() as usize).max(64),
            dup_c: 1.0,
            test_factor: 4.0,
            extra_estimators: 0,
        }
    }

    /// Same, with `extra` additional estimator instances.
    pub fn with_extra_estimators(mut self, extra: usize) -> Self {
        self.extra_estimators = extra;
        self
    }
}

/// The perfect L_p (p ≤ 2) sampler.
#[derive(Debug, Clone)]
pub struct PerfectLpLe2Sampler {
    params: LpLe2Params,
    universe: usize,
    /// Common duplication factor `(n^c)^{1/p}` folded into every scale.
    dup_factor: f64,
    scale_seed: u64,
    /// Seed for the winner's second-copy exponential `e'_i`.
    second_copy_seed: u64,
    main: CountSketch,
    extra: Vec<CountSketch>,
    /// Threshold smoother `μ ∈ [½, 3/2]`, drawn at construction.
    mu: f64,
}

impl PerfectLpLe2Sampler {
    /// Builds the sampler over universe `[0, n)`.
    ///
    /// # Panics
    /// Panics if `p ∉ (0, 2]` or the configuration is degenerate.
    pub fn new(n: usize, params: LpLe2Params, seed: u64) -> Self {
        assert!(
            params.p > 0.0 && params.p <= 2.0,
            "p must lie in (0, 2], got {}",
            params.p
        );
        assert!(params.dup_c >= 0.0, "duplication exponent must be >= 0");
        assert!(n >= 2, "universe too small");
        let cs_params = CountSketchParams {
            rows: params.rows,
            buckets: params.buckets,
        };
        let main = CountSketch::new(cs_params, derive_seed(seed, 1));
        let extra = (0..params.extra_estimators)
            .map(|k| CountSketch::new(cs_params, derive_seed(seed, 100 + k as u64)))
            .collect();
        let mu = 0.5 + (keyed_u64(seed, 0x3B5) as f64 / u64::MAX as f64);
        let dup_factor = (n as f64).powf(params.dup_c / params.p);
        Self {
            params,
            universe: n,
            dup_factor,
            scale_seed: derive_seed(seed, 0xE4B),
            second_copy_seed: derive_seed(seed, 0x2ED),
            main,
            extra,
            mu,
        }
    }

    /// The (strictly positive) scale factor of index `i`:
    /// `(n^c / e_i)^{1/p}`.
    #[inline]
    pub fn scale(&self, i: u64) -> f64 {
        self.dup_factor / keyed_exponential(self.scale_seed, i).powf(1.0 / self.params.p)
    }

    /// Number of extra estimator instances.
    pub fn extra_count(&self) -> usize {
        self.extra.len()
    }

    /// Near-unbiased estimate of `x_i` from extra instance `k`
    /// (CountSketch estimates are unbiased; dividing by the known scale
    /// keeps them so).
    ///
    /// # Panics
    /// Panics if `k` is out of range.
    pub fn unbiased_estimate(&self, k: usize, i: u64) -> f64 {
        self.extra[k].estimate(i) / self.scale(i)
    }

    /// Mean of extra instances `[from, to)` — the "mean of polylog(n)
    /// CountSketch instances" of Algorithm 1 line 9 / Algorithm 2 line 12.
    ///
    /// # Panics
    /// Panics if the range is empty or out of bounds.
    pub fn mean_estimate(&self, from: usize, to: usize, i: u64) -> f64 {
        assert!(from < to && to <= self.extra.len(), "bad estimator range");
        let scale = self.scale(i);
        let sum: f64 = self.extra[from..to].iter().map(|cs| cs.estimate(i)).sum();
        sum / ((to - from) as f64 * scale)
    }

    /// `F₂(z)` estimate read off the main table: median over rows of
    /// `Σ_b A_{r,b}²` (unbiased per row, cross terms cancel in expectation).
    /// Not used by the gap test (see `sample` for why); exposed for
    /// diagnostics and the threshold-calibration ablation.
    pub fn scaled_f2_estimate(&self) -> f64 {
        let rows = self.params.rows;
        let buckets = self.params.buckets;
        let table = self.main.table();
        let mut row_sums: Vec<f64> = (0..rows)
            .map(|r| {
                table[r * buckets..(r + 1) * buckets]
                    .iter()
                    .map(|c| c * c)
                    .sum()
            })
            .collect();
        row_sums.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        row_sums[rows / 2]
    }

    /// The decoded top-two magnitudes of the scaled vector.
    fn top_two(&self) -> ((u64, f64), f64) {
        let mut best_i = 0u64;
        let mut best = f64::NEG_INFINITY;
        let mut best_signed = 0.0;
        let mut second = f64::NEG_INFINITY;
        for i in 0..self.universe as u64 {
            let est = self.main.estimate(i);
            let mag = est.abs();
            if mag > best {
                second = best;
                best = mag;
                best_i = i;
                best_signed = est;
            } else if mag > second {
                second = mag;
            }
        }
        ((best_i, best_signed), second.max(0.0))
    }
}

impl TurnstileSampler for PerfectLpLe2Sampler {
    #[inline]
    fn process(&mut self, u: Update) {
        if u.delta == 0 {
            return;
        }
        let scaled = u.delta as f64 * self.scale(u.index);
        self.main.update(u.index, scaled);
        for cs in &mut self.extra {
            cs.update(u.index, scaled);
        }
    }

    fn sample(&mut self) -> Option<Sample> {
        let ((i_star, z_hat), second) = self.top_two();
        if z_hat == 0.0 {
            return None;
        }
        // Duplication: the winner's own second-largest virtual copy competes
        // in the gap test. Top two of n^c exponentials are e_i/n^c and
        // (e_i + e'_i)/n^c, so the copy ratio is (e_i/(e_i+e'_i))^{1/p}.
        let second = if self.params.dup_c > 0.0 {
            let e = keyed_exponential(self.scale_seed, i_star);
            let e2 = keyed_exponential(self.second_copy_seed, i_star);
            let own_second = z_hat.abs() * (e / (e + e2)).powf(1.0 / self.params.p);
            second.max(own_second)
        } else {
            second
        };
        // Threshold calibration must not leak the winner's identity — the
        // tail F₂ conditioned on `D(1) = i` shifts with `‖x_{-i}‖` and would
        // bias the FAIL event exactly as §3 warns. We calibrate on `|ẑ_(1)|`
        // alone: its law is identity-independent (Lemma 1.16), and by the
        // heavy-hitter property (Lemma 1.17) it dominates the true decode
        // noise `‖z_tail‖/√buckets` up to the log factors absorbed in τ.
        // `scaled_f2_estimate` stays available for diagnostics/ablations.
        let noise = z_hat.abs() / (self.params.buckets as f64).sqrt();
        let gap = z_hat.abs() - second;
        // Anti-concentration test: the decoded argmax is trustworthy only
        // when the gap clears the CountSketch noise floor.
        if gap <= self.params.test_factor * self.mu * noise {
            return None;
        }
        Some(Sample {
            index: i_star,
            estimate: z_hat / self.scale(i_star),
        })
    }

    fn space_bits(&self) -> usize {
        self.main.space_bits()
            + self
                .extra
                .iter()
                .map(LinearSketch::space_bits)
                .sum::<usize>()
            + 128
    }

    /// Merges a shard sampler built with the same parameters and seed: the
    /// scaled sketches are linear, so shard-and-merge equals processing the
    /// concatenated stream (the distributed-databases deployment of §1.3).
    ///
    /// # Panics
    /// Panics if the shards were built with different seeds/parameters.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.scale_seed, other.scale_seed, "seed mismatch");
        assert_eq!(self.universe, other.universe, "universe mismatch");
        assert_eq!(self.extra.len(), other.extra.len(), "estimator mismatch");
        self.main.merge(&other.main);
        for (a, b) in self.extra.iter_mut().zip(&other.extra) {
            a.merge(b);
        }
    }
}

impl Encode for LpLe2Params {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_f64(self.p);
        w.put_usize(self.rows);
        w.put_usize(self.buckets);
        w.put_f64(self.dup_c);
        w.put_f64(self.test_factor);
        w.put_usize(self.extra_estimators);
        Ok(())
    }
}

impl Decode for LpLe2Params {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let p = r.get_f64()?;
        let rows = r.get_usize()?;
        let buckets = r.get_usize()?;
        let dup_c = r.get_f64()?;
        let test_factor = r.get_f64()?;
        let extra_estimators = r.get_usize()?;
        // Ranges mirror the constructor asserts, turned into errors so a
        // hostile payload cannot reach a panicking constructor.
        let p_ok = p.is_finite() && p > 0.0 && p <= 2.0;
        let dup_ok = dup_c.is_finite() && dup_c >= 0.0;
        if !p_ok || !dup_ok || !test_factor.is_finite() {
            return Err(WireError::Invalid("lp-le2 parameters"));
        }
        if !(1..=1024).contains(&rows) || buckets == 0 || extra_estimators > 1 << 16 {
            return Err(WireError::Invalid("lp-le2 shape"));
        }
        Ok(Self {
            p,
            rows,
            buckets,
            dup_c,
            test_factor,
            extra_estimators,
        })
    }
}

impl Encode for PerfectLpLe2Sampler {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        self.params.encode(w)?;
        w.put_usize(self.universe);
        w.put_f64(self.dup_factor);
        w.put_u64(self.scale_seed);
        w.put_u64(self.second_copy_seed);
        w.put_f64(self.mu);
        self.main.encode(w)?;
        for cs in &self.extra {
            cs.encode(w)?;
        }
        Ok(())
    }
}

impl Decode for PerfectLpLe2Sampler {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let params = LpLe2Params::decode(r)?;
        let universe = r.get_usize()?;
        if universe < 2 {
            return Err(WireError::Invalid("lp-le2 universe"));
        }
        let dup_factor = r.get_f64()?;
        let scale_seed = r.get_u64()?;
        let second_copy_seed = r.get_u64()?;
        let mu = r.get_f64()?;
        let main = CountSketch::decode(r)?;
        let mut extra = Vec::with_capacity(params.extra_estimators);
        for _ in 0..params.extra_estimators {
            extra.push(CountSketch::decode(r)?);
        }
        Ok(Self {
            params,
            universe,
            dup_factor,
            scale_seed,
            second_copy_seed,
            main,
            extra,
            mu,
        })
    }
}

impl Encode for LpLe2Batch {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_usize(self.instances.len());
        for inst in &self.instances {
            inst.encode(w)?;
        }
        Ok(())
    }
}

impl Decode for LpLe2Batch {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let k = r.get_len(16)?;
        if k == 0 {
            return Err(WireError::Invalid("empty lp-le2 batch"));
        }
        let mut instances = Vec::with_capacity(k);
        for _ in 0..k {
            instances.push(PerfectLpLe2Sampler::decode(r)?);
        }
        Ok(Self { instances })
    }
}

/// Batch instance `j`, seeded by `(seed, j)` alone — shared by
/// [`LpLe2Batch::new`] and [`LpLe2Batch::draw_from`].
fn batch_instance(n: usize, params: LpLe2Params, seed: u64, j: usize) -> PerfectLpLe2Sampler {
    PerfectLpLe2Sampler::new(n, params, derive_seed(seed, j as u64))
}

/// A success-boosted perfect L_p (p ≤ 2) sample: `k` independent sampler
/// instances, first non-FAIL wins. Failure probability decays as
/// `δ^k` (Theorem 1.10's `log(1/δ₁)` factor).
#[derive(Debug, Clone)]
pub struct LpLe2Batch {
    instances: Vec<PerfectLpLe2Sampler>,
}

impl LpLe2Batch {
    /// `k` independent instances.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(n: usize, params: LpLe2Params, k: usize, seed: u64) -> Self {
        assert!(k >= 1, "batch needs at least one instance");
        let instances = (0..k).map(|j| batch_instance(n, params, seed, j)).collect();
        Self { instances }
    }

    /// The draw that `new(n, params, k, seed)`, fed `net` one update per
    /// entry, would return from `sample()` — computed lazily: instance `j`
    /// is built and replayed only when every instance before it FAILed.
    ///
    /// The answer is bit-identical to the eager batch's: instance `j`'s seed
    /// depends on `(seed, j)` alone, and the first non-⊥ instance wins.
    /// `net` is iterated once per instance built.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn draw_from<I>(
        n: usize,
        params: LpLe2Params,
        k: usize,
        seed: u64,
        net: I,
    ) -> Option<Sample>
    where
        I: IntoIterator<Item = (u64, i64)> + Clone,
    {
        assert!(k >= 1, "batch needs at least one instance");
        (0..k).find_map(|j| {
            let mut inst = batch_instance(n, params, seed, j);
            inst.ingest_entries(net.clone());
            inst.sample()
        })
    }

    /// Immutable access to the instance that produced a sample, for
    /// follow-up estimate queries.
    pub fn instance(&self, j: usize) -> &PerfectLpLe2Sampler {
        &self.instances[j]
    }

    /// Draws the first successful sample, returning the winning instance's
    /// index alongside it.
    pub fn sample_with_instance(&mut self) -> Option<(usize, Sample)> {
        for j in 0..self.instances.len() {
            if let Some(s) = self.instances[j].sample() {
                return Some((j, s));
            }
        }
        None
    }
}

impl TurnstileSampler for LpLe2Batch {
    fn process(&mut self, u: Update) {
        for inst in &mut self.instances {
            inst.process(u);
        }
    }

    fn sample(&mut self) -> Option<Sample> {
        self.sample_with_instance().map(|(_, s)| s)
    }

    fn space_bits(&self) -> usize {
        self.instances
            .iter()
            .map(TurnstileSampler::space_bits)
            .sum()
    }

    /// Merges instance-wise (both batches must share seed and shape).
    fn merge(&mut self, other: &Self) {
        assert_eq!(
            self.instances.len(),
            other.instances.len(),
            "batch size mismatch"
        );
        for (a, b) in self.instances.iter_mut().zip(&other.instances) {
            a.merge(b);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_stream::gen::zipf_vector;
    use pts_stream::{FrequencyVector, Stream, StreamStyle};
    use pts_util::stats::{chi_square_test, tv_distance};

    fn sample_distribution(
        x: &FrequencyVector,
        p: f64,
        trials: u64,
        seed0: u64,
    ) -> (Vec<u64>, u64) {
        let n = x.n();
        let params = LpLe2Params::for_universe(n, p);
        let mut counts = vec![0u64; n];
        let mut fails = 0;
        for t in 0..trials {
            let mut b = LpLe2Batch::new(n, params, 8, seed0 + t);
            b.ingest_vector(x);
            match b.sample() {
                Some(s) => counts[s.index as usize] += 1,
                None => fails += 1,
            }
        }
        (counts, fails)
    }

    #[test]
    fn l2_law_on_small_vector() {
        let x = FrequencyVector::from_values(vec![10, -20, 30, 5, 0, 15]);
        let weights = x.lp_weights(2.0);
        let (counts, fails) = sample_distribution(&x, 2.0, 4_000, 1);
        assert!(fails < 200, "fails {fails}");
        let tv = tv_distance(&counts, &weights);
        assert!(tv < 0.035, "tv {tv}");
        let probs: Vec<f64> = weights.iter().map(|w| w / x.fp_moment(2.0)).collect();
        let chi = chi_square_test(&counts, &probs, 5.0);
        assert!(chi.p_value > 1e-4, "chi2 p {}", chi.p_value);
    }

    #[test]
    fn l1_law_on_small_vector() {
        let x = FrequencyVector::from_values(vec![1, 2, 3, 4, 10]);
        let weights = x.lp_weights(1.0);
        let (counts, fails) = sample_distribution(&x, 1.0, 4_000, 50_000);
        assert!(fails < 400, "fails {fails}");
        let tv = tv_distance(&counts, &weights);
        assert!(tv < 0.04, "tv {tv}");
    }

    #[test]
    fn estimates_are_accurate_when_sampled() {
        let x = zipf_vector(64, 1.1, 200, 3);
        for t in 0..200u64 {
            let mut b = LpLe2Batch::new(64, LpLe2Params::for_universe(64, 2.0), 8, 90_000 + t);
            b.ingest_vector(&x);
            if let Some(s) = b.sample() {
                let truth = x.value(s.index) as f64;
                let rel = (s.estimate - truth).abs() / truth.abs().max(1.0);
                assert!(rel < 0.35, "trial {t}: est {} vs {truth}", s.estimate);
            }
        }
    }

    #[test]
    fn extra_estimators_are_near_unbiased() {
        let x = zipf_vector(64, 1.0, 100, 4);
        let i = 7u64;
        let truth = x.value(i) as f64;
        let reps = 300;
        let mut sum = 0.0;
        for t in 0..reps {
            let params = LpLe2Params::for_universe(64, 2.0).with_extra_estimators(4);
            let mut s = PerfectLpLe2Sampler::new(64, params, 70_000 + t);
            s.ingest_vector(&x);
            sum += s.mean_estimate(0, 4, i);
        }
        let mean = sum / reps as f64;
        assert!(
            (mean - truth).abs() / truth.abs() < 0.1,
            "mean {mean} vs {truth}"
        );
    }

    #[test]
    fn zero_vector_always_fails() {
        let mut s = PerfectLpLe2Sampler::new(16, LpLe2Params::for_universe(16, 2.0), 5);
        assert!(s.sample().is_none());
        s.process(Update::new(3, 7));
        s.process(Update::new(3, -7));
        assert!(s.sample().is_none());
    }

    #[test]
    fn stream_vs_vector_agree() {
        let x = zipf_vector(64, 1.0, 80, 6);
        let mut rng = pts_util::Xoshiro256pp::new(7);
        let stream = Stream::from_target(&x, StreamStyle::Turnstile { churn: 1.0 }, &mut rng);
        let params = LpLe2Params::for_universe(64, 2.0);
        let mut a = PerfectLpLe2Sampler::new(64, params, 8);
        a.ingest_stream(&stream);
        let mut b = PerfectLpLe2Sampler::new(64, params, 8);
        b.ingest_vector(&x);
        // Same decision and index; estimates agree up to f64 associativity.
        match (a.sample(), b.sample()) {
            (None, None) => {}
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.index, sb.index);
                assert!((sa.estimate - sb.estimate).abs() < 1e-6);
            }
            (a, b) => panic!("outcomes diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    fn single_coordinate_always_wins() {
        // With duplication the winner's own second copy competes in the gap
        // test, so even a one-hot vector FAILs occasionally — but when a
        // sample is produced it must be the only non-zero coordinate.
        let mut x = vec![0i64; 32];
        x[13] = 999;
        let x = FrequencyVector::from_values(x);
        let mut successes = 0;
        for t in 0..100 {
            let mut b = LpLe2Batch::new(32, LpLe2Params::for_universe(32, 2.0), 8, 200 + t);
            b.ingest_vector(&x);
            if let Some(s) = b.sample() {
                assert_eq!(s.index, 13);
                successes += 1;
            }
        }
        assert!(successes >= 95, "successes {successes}/100");
    }

    #[test]
    fn scale_is_deterministic_and_positive() {
        let s = PerfectLpLe2Sampler::new(16, LpLe2Params::for_universe(16, 2.0), 9);
        for i in 0..16u64 {
            assert!(s.scale(i) > 0.0);
            assert_eq!(s.scale(i), s.scale(i));
        }
    }

    #[test]
    #[should_panic(expected = "p in (0,2]")]
    fn rejects_p_above_two() {
        let _ = LpLe2Params::for_universe(16, 3.0);
    }

    #[test]
    fn shard_merge_equals_whole_stream() {
        let x = zipf_vector(64, 1.0, 90, 14);
        let y = zipf_vector(64, 1.0, 90, 15);
        let params = LpLe2Params::for_universe(64, 2.0).with_extra_estimators(2);
        let mut whole = PerfectLpLe2Sampler::new(64, params, 77);
        whole.ingest_vector(&x.add(&y));
        let mut shard_a = PerfectLpLe2Sampler::new(64, params, 77);
        shard_a.ingest_vector(&x);
        let mut shard_b = PerfectLpLe2Sampler::new(64, params, 77);
        shard_b.ingest_vector(&y);
        shard_a.merge(&shard_b);
        match (whole.sample(), shard_a.sample()) {
            (None, None) => {}
            (Some(a), Some(b)) => {
                assert_eq!(a.index, b.index);
                assert!((a.estimate - b.estimate).abs() < 1e-6 * (1.0 + b.estimate.abs()));
            }
            (a, b) => panic!("merge diverged: {a:?} vs {b:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "seed mismatch")]
    fn merge_rejects_mismatched_seeds() {
        let params = LpLe2Params::for_universe(16, 2.0);
        let mut a = PerfectLpLe2Sampler::new(16, params, 1);
        let b = PerfectLpLe2Sampler::new(16, params, 2);
        a.merge(&b);
    }

    #[test]
    fn lazy_batch_draws_equal_eager_draws() {
        let x = zipf_vector(32, 1.1, 60, 5);
        let zero = FrequencyVector::from_values(vec![0; 32]);
        let params = LpLe2Params::for_universe(32, 2.0);
        // A gap test no candidate can clear: every instance is ⊥.
        let mut never = params;
        never.test_factor = 1e12;
        for (x, params, expect_drawn) in [
            (&x, params, 56..=64),
            (&zero, params, 0..=0),
            (&x, never, 0..=0),
        ] {
            let net: Vec<(u64, i64)> = x.iter_nonzero().collect();
            let mut drawn = 0;
            for seed in 0..64u64 {
                let mut eager = LpLe2Batch::new(32, params, 4, 300 + seed);
                eager.ingest_vector(x);
                let want = eager.sample();
                let got = LpLe2Batch::draw_from(32, params, 4, 300 + seed, net.iter().copied());
                let bits = |s: Option<Sample>| s.map(|s| (s.index, s.estimate.to_bits()));
                assert_eq!(bits(got), bits(want), "seed {seed}");
                drawn += usize::from(want.is_some());
            }
            assert!(expect_drawn.contains(&drawn), "{drawn}/64 seeds drew");
        }
    }

    #[test]
    fn batch_space_scales_with_k() {
        let params = LpLe2Params::for_universe(64, 2.0);
        let b1 = LpLe2Batch::new(64, params, 1, 1);
        let b4 = LpLe2Batch::new(64, params, 4, 1);
        assert_eq!(b4.space_bits(), 4 * b1.space_bits());
    }
}
