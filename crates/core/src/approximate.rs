//! **Approximate L_p sampling for `p > 2` with fast update time**
//! (Theorem 1.3 / 3.21; Algorithm 4, §3).
//!
//! The paper's duplication device — `M = n^c` virtual copies of every
//! coordinate, scaled by i.i.d. inverse exponentials — is *simulated*, never
//! materialized:
//!
//! * the **maximum copy** of index `i` is exact via max-stability
//!   (Prop 1.13): `v_i = x_i · rnd_η((M/e_i)^{1/p})` with one keyed
//!   exponential `e_i`;
//! * the **tail copies** (all `M−1` non-maxima) are summarized per index by
//!   binomial counts over the `rnd_η` support grid: conditioned on the
//!   minimum exponential `e_i`, each tail copy's exponential is
//!   `e_i + Exp(1)` (memorylessness), so the count of tail copies rounding
//!   to grid value `I_q` is `Bin(M−1, p_q(e_i))` with a closed-form cell
//!   probability — exactly the fast-update scheme of §3 (Lemma 3.17);
//! * the tail's hit on a CountSketch₂ cell is a keyed Gaussian with
//!   variance `T₂(i)/L` (the CLT collapse of the per-copy Rademacher sum;
//!   `L` = the virtual table width `(nM)^{1−2/p}`), and the 2-stable `L₂`
//!   estimator `R` over the full duplicated vector needs only
//!   `√(T₂(i) + v_scale(i)²)` per update.
//!
//! Stage 1 (`CountSketch₁`, modified hashing) recovers the candidate set
//! `B` of large discretized maxima; stage 2 adds the duplicated-table noise
//! to `B`'s estimates and applies the anti-concentration gap test
//! `y_(1) − y_(2) > factor·R/(μ·(nM)^{1/2−1/p})` (line 16).
//!
//! Decode cost: both stage-1 recovery and the gap test's runner-up scan
//! run over the sampler's *touched-coordinate set* (every index the stream
//! ever addressed), never the full universe — query time is
//! `O(support · rows)` regardless of `n`. A never-touched coordinate is
//! exactly zero in the duplicated vector, so skipping it drops nothing but
//! `O(n)` work and pure sketch-collision noise.

use pts_samplers::{Sample, TurnstileSampler};
use pts_sketch::ams::GAUSSIAN_ABS_MEDIAN;
use pts_sketch::{FpMaxStab, FpMaxStabParams, LinearSketch, ModCountSketch};
use pts_stream::Update;
use pts_util::variates::{binomial, keyed_gaussian, keyed_sign};
use pts_util::{derive_seed, keyed_u64, EtaGrid, Xoshiro256pp};
use std::collections::{BTreeSet, HashMap};

/// Parameters for [`ApproxLpSampler`].
#[derive(Debug, Clone, Copy)]
pub struct ApproxLpParams {
    /// Moment order `p > 2`.
    pub p: f64,
    /// Target distortion ε.
    pub epsilon: f64,
    /// Duplication exponent `c`: `M = n^c` virtual copies per index.
    pub dup_c: f64,
    /// Rows in both CountSketch stages.
    pub rows: usize,
    /// Stage-1 buckets (`n^{1−2/p} log(1/ε)` shaped).
    pub cs1_buckets: usize,
    /// Materialized width of the stage-2 kept region (`polylog(1/ε)`).
    pub kept_buckets: usize,
    /// Repetitions of the 2-stable `‖u‖₂` estimator.
    pub gauss_reps: usize,
    /// Gap-test strictness (the paper's `100`, tuned for laptop `n`).
    pub threshold_factor: f64,
    /// Stage-1 candidate threshold divisor (the paper's `200 log(1/ε)`).
    pub b_threshold_div: f64,
    /// Constant multiplier on the virtual stage-2 width
    /// `(nM)^{1−2/p}` — the explicit form of the constants hiding in the
    /// paper's `O(n^{1−2/p})` bucket counts. Larger = less duplicated-table
    /// noise; asymptotics unchanged.
    pub width_const: f64,
}

impl ApproxLpParams {
    /// Paper-shaped defaults for universe `n` at distortion `epsilon`.
    ///
    /// # Panics
    /// Panics unless `p > 2` and `0 < ε < 1`.
    pub fn for_universe(n: usize, p: f64, epsilon: f64) -> Self {
        assert!(p > 2.0, "approximate sampler requires p > 2");
        assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0,1)");
        let nf = n.max(4) as f64;
        let log2n = nf.log2();
        let log1e = (1.0 / epsilon).ln().max(1.0);
        Self {
            p,
            epsilon,
            dup_c: 2.0,
            rows: (log2n.ceil() as usize).clamp(5, 9) | 1,
            cs1_buckets: ((8.0 * nf.powf(1.0 - 2.0 / p) * log2n * log1e).ceil() as usize).max(256),
            kept_buckets: ((4.0 * log1e * log1e).ceil() as usize).clamp(12, 64),
            gauss_reps: 15,
            // Tuned on the zipf battery: 1.0 minimizes both TV and max
            // relative bias (0.5 lets noise-level gaps through, ≥2 fails
            // conservatively without improving fidelity) — see the probe
            // tests under crates/core/tests/.
            threshold_factor: 1.0,
            b_threshold_div: (8.0 * log1e).max(8.0),
            width_const: 1024.0,
        }
    }
}

/// Per-index derived constants of the duplication simulation. These are
/// pure functions of `(seed, index)` — the cache trades recomputation time
/// for memory and is *not* part of the sketch state (see DESIGN.md §4:
/// the paper's PRG plays the same role).
#[derive(Debug, Clone, Copy)]
struct IndexConsts {
    /// `rnd_η((M/e_i)^{1/p})` — the discretized max-copy scale.
    v_scale: f64,
    /// `rnd_η((M/(e_i+e'_i))^{1/p})` — the *second*-largest copy's scale
    /// (top-two order statistics of `M` exponentials); competes in the gap
    /// test so that `Pr[FAIL | D(1)=i]` does not depend on `i`
    /// (Lemma 3.10's decoupling, same device as the perfect L₂ sampler).
    second_scale: f64,
    /// `Σ_q I_q² · D_q(i)` over the tail copies.
    t2_tail: f64,
}

/// The approximate L_p sampler (Algorithm 4).
#[derive(Debug, Clone)]
pub struct ApproxLpSampler {
    params: ApproxLpParams,
    universe: usize,
    copies_m: f64,
    /// Width of the *virtual* stage-2 table `(nM)^{1−2/p}` (only the first
    /// `kept_buckets` columns are materialized).
    virtual_width: f64,
    grid: EtaGrid,
    seed: u64,
    cs1: ModCountSketch,
    /// Stage-2 kept region: rows × kept_buckets.
    cs2: Vec<f64>,
    gauss_counters: Vec<f64>,
    fp_est: FpMaxStab,
    mu: f64,
    consts_cache: HashMap<u64, IndexConsts>,
    /// Every coordinate the stream has ever addressed (sorted for
    /// deterministic decode order). Decode scans this set instead of the
    /// whole universe: a never-touched coordinate is exactly zero in the
    /// duplicated vector, so it can neither be a candidate nor the gap
    /// test's true runner-up — scanning its sketch estimate only added
    /// `O(n)` query cost and pure collision noise. Unlike the consts cache
    /// this *is* sketch state (it survives merges), and it is `O(support)`
    /// of the stream, not `O(n)`.
    touched: BTreeSet<u64>,
}

impl ApproxLpSampler {
    /// Builds the sampler over universe `[0, n)`.
    pub fn new(n: usize, params: ApproxLpParams, seed: u64) -> Self {
        assert!(n >= 2, "universe too small");
        let nf = n as f64;
        let copies_m = nf.powf(params.dup_c).max(2.0);
        let virtual_width = (params.width_const * (nf * copies_m).powf(1.0 - 2.0 / params.p))
            .max(params.kept_buckets as f64);
        let eta = (params.epsilon / (nf.log2().sqrt())).clamp(1e-4, 0.25);
        // Dynamic range: (M/e)^{1/p} spans ~M^{1/p} · poly; cover generously.
        let decades = ((copies_m.log10() / params.p).ceil() as u32) + 8;
        let grid = EtaGrid::new(eta, decades);
        let cs1 = ModCountSketch::new(params.rows, params.cs1_buckets, derive_seed(seed, 1));
        let fp_est = FpMaxStab::new(
            n,
            FpMaxStabParams::for_universe(n, params.p),
            derive_seed(seed, 2),
        );
        let mu = 0.5 + (keyed_u64(seed, 0x3B7) as f64 / u64::MAX as f64);
        Self {
            params,
            universe: n,
            copies_m,
            virtual_width,
            grid,
            seed,
            cs1,
            cs2: vec![0.0; params.rows * params.kept_buckets],
            gauss_counters: vec![0.0; params.gauss_reps],
            fp_est,
            mu,
            consts_cache: HashMap::new(),
            touched: BTreeSet::new(),
        }
    }

    /// Derives (or recalls) the per-index simulation constants.
    fn index_consts(&mut self, i: u64) -> IndexConsts {
        if let Some(&c) = self.consts_cache.get(&i) {
            return c;
        }
        let c = self.derive_index_consts(i);
        self.consts_cache.insert(i, c);
        c
    }

    /// Derives the constants from scratch: one exponential for the max copy
    /// plus one keyed binomial per grid cell for the tail histogram.
    fn derive_index_consts(&self, i: u64) -> IndexConsts {
        let p = self.params.p;
        let m = self.copies_m;
        let e_i = pts_util::variates::keyed_exponential(derive_seed(self.seed, 0xE), i);
        let v_scale = self.grid.round_down((m / e_i).powf(1.0 / p));
        let e_second = pts_util::variates::keyed_exponential(derive_seed(self.seed, 0xE2), i);
        let second_scale = self.grid.round_down((m / (e_i + e_second)).powf(1.0 / p));
        // Tail copies: conditioned on the minimum exponential e_i, every
        // other copy is e_i + Exp(1); its scaled value (M/(e_i+f))^{1/p}
        // rounds to I_q with probability cdf(I_{q+1}) − cdf(I_q) where
        // cdf(t) = Pr[(M/(e_i+f))^{1/p} ≤ t] = min(1, exp(e_i − M·t^{−p})).
        let cdf = |t: f64| (e_i - m * t.powf(-p)).exp().min(1.0);
        let mut rng = Xoshiro256pp::new(derive_seed(derive_seed(self.seed, 0xD9), i));
        let mut t2_tail = 0.0;
        let q_lo = *self.grid.q_range().start();
        let q_hi = *self.grid.q_range().end();
        for q in q_lo..=q_hi {
            let lo = if q == q_lo {
                0.0
            } else {
                cdf(self.grid.value(q))
            };
            let hi = if q == q_hi {
                1.0
            } else {
                cdf(self.grid.value(q + 1))
            };
            let pq = (hi - lo).max(0.0);
            if pq <= 0.0 {
                continue;
            }
            let count = binomial(&mut rng, m - 1.0, pq);
            if count > 0.0 {
                let iq = self.grid.value(q);
                t2_tail += iq * iq * count;
            }
        }
        IndexConsts {
            v_scale,
            second_scale,
            t2_tail,
        }
    }

    /// The stage-2 kept bucket of index `i` in row `r`.
    #[inline]
    fn cs2_bucket(&self, r: usize, i: u64) -> usize {
        (keyed_u64(derive_seed(self.seed, 0xB2 + r as u64), i) % self.params.kept_buckets as u64)
            as usize
    }

    /// The stage-2 Rademacher sign of index `i` in row `r`.
    #[inline]
    fn cs2_sign(&self, r: usize, i: u64) -> f64 {
        keyed_sign(derive_seed(self.seed, 0x512 + r as u64), i) as f64
    }

    /// Reads the stage-2 noise estimate at index `i` (median over rows).
    fn cs2_read(&self, i: u64) -> f64 {
        let mut vals: Vec<f64> = (0..self.params.rows)
            .map(|r| {
                self.cs2_sign(r, i) * self.cs2[r * self.params.kept_buckets + self.cs2_bucket(r, i)]
            })
            .collect();
        vals.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        vals[vals.len() / 2]
    }

    /// The conservative `‖u‖₂` estimate `R` (line 14).
    fn r_estimate(&self) -> f64 {
        let mut mags: Vec<f64> = self.gauss_counters.iter().map(|c| c.abs()).collect();
        mags.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        1.25 * mags[mags.len() / 2] / GAUSSIAN_ABS_MEDIAN
    }

    /// The candidate set `B` (stage-1 indices above the heaviness
    /// threshold), largest first, capped at the kept width. Decodes over
    /// the touched set, so query cost is `O(support · rows)`, independent
    /// of the universe size.
    fn candidate_set(&self) -> Vec<(u64, f64)> {
        let lp_hat = self.fp_est.lp_estimate();
        if lp_hat <= 0.0 {
            return Vec::new();
        }
        let threshold =
            self.copies_m.powf(1.0 / self.params.p) * lp_hat / self.params.b_threshold_div;
        let mut out: Vec<(u64, f64)> = self
            .touched
            .iter()
            .filter_map(|&i| {
                let est = self.cs1.estimate(i)?;
                (est.abs() >= threshold).then_some((i, est))
            })
            .collect();
        out.sort_by(|a, b| {
            b.1.abs()
                .partial_cmp(&a.1.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        out.truncate(self.params.kept_buckets);
        out
    }
}

impl TurnstileSampler for ApproxLpSampler {
    fn process(&mut self, u: Update) {
        if u.delta == 0 {
            return;
        }
        let i = u.index;
        let delta = u.delta as f64;
        self.touched.insert(i);
        let consts = self.index_consts(i);
        // Stage 1: the discretized maximum copy.
        self.cs1.update(i, delta * consts.v_scale);
        // Stage 2: the tail copies' hit on every kept cell collapses to one
        // keyed Gaussian of variance T₂(i)/L per cell (CLT over the
        // independent per-copy Rademacher terms).
        let tail_sd = (consts.t2_tail / self.virtual_width).sqrt();
        if tail_sd > 0.0 {
            let rows = self.params.rows;
            let kept = self.params.kept_buckets;
            for r in 0..rows {
                let row_seed = derive_seed(derive_seed(self.seed, 0x7A11 + r as u64), i);
                for b in 0..kept {
                    let g = keyed_gaussian(row_seed, b as u64);
                    self.cs2[r * kept + b] += delta * g * tail_sd;
                }
            }
        }
        // The 2-stable ‖u‖₂ estimator over *all* copies of i.
        let full_sd = (consts.t2_tail + consts.v_scale * consts.v_scale).sqrt();
        for (k, c) in self.gauss_counters.iter_mut().enumerate() {
            *c += delta * keyed_gaussian(derive_seed(self.seed, 0x6A05 + k as u64), i) * full_sd;
        }
        // The ‖x‖_p estimate for the stage-1 threshold.
        self.fp_est.update(i, delta);
    }

    fn sample(&mut self) -> Option<Sample> {
        let candidates = self.candidate_set();
        if candidates.is_empty() {
            return None; // line 9: B empty → FAIL
        }
        // y = stage-1 estimate + stage-2 duplicated-table noise (lines 10–12).
        let mut ys: Vec<(u64, f64, f64)> = candidates
            .iter()
            .map(|&(i, v_hat)| {
                let y = v_hat + self.cs2_read(i);
                (i, y, v_hat)
            })
            .collect();
        ys.sort_by(|a, b| {
            b.1.abs()
                .partial_cmp(&a.1.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let (i_star, y1, v1) = ys[0];
        // The runner-up in the gap test is the second max of the *whole*
        // duplicated vector (the paper's y_{D(2)}), not merely of the
        // thresholded set B — when every other coordinate falls below the
        // B-threshold a light winner would otherwise face no competitor and
        // pass unconditionally, biasing the law. Never-touched coordinates
        // are exactly zero in the duplicated vector, so the scan covers the
        // touched set only.
        let y2_distinct = self
            .touched
            .iter()
            .filter(|&&i| i != i_star)
            .filter_map(|&i| self.cs1.estimate(i).map(|v| (v + self.cs2_read(i)).abs()))
            .fold(0.0f64, f64::max);
        // The winner's own second-largest virtual copy also competes: by the
        // top-two order statistics of its M exponentials its value is
        // `|x_i|·second_scale`, i.e. `|y1|·second_scale/v_scale`. Without it
        // the runner-up is always a *different* index and the FAIL event
        // leaks the winner's identity (measured as a ~35% undersampling of
        // light coordinates before this fix — see ablation A1). The copy is
        // read through the same noisy channel as every sketch estimate
        // (keyed Gaussian at the table's noise scale) — an exact reading
        // would re-introduce an identity-dependent measurement asymmetry.
        let winner_consts = self.index_consts(i_star);
        let own_second = y1.abs() * winner_consts.second_scale / winner_consts.v_scale
            + keyed_gaussian(derive_seed(self.seed, 0x2EAD), i_star) * self.cs1.noise_scale();
        let y2 = y2_distinct.max(own_second.abs());
        let r = self.r_estimate();
        // The paper's `100R/(μ N^{1/2−1/p})` with the virtual width spelled
        // out: `N^{1/2−1/p} = √(N^{1−2/p})` is exactly √(CS₂ bucket count).
        let threshold = self.params.threshold_factor * r / (self.mu * self.virtual_width.sqrt());
        if y1.abs() - y2 <= threshold {
            return None; // line 16: insufficient anti-concentration → FAIL
        }
        Some(Sample {
            index: i_star,
            estimate: v1 / winner_consts.v_scale,
        })
    }

    fn space_bits(&self) -> usize {
        // CS1 + kept CS2 region + Gaussian counters + Fp estimator + the
        // touched-coordinate index (64 bits per stream coordinate — the
        // honest price of universe-independent decode) + seeds.
        self.cs1.space_bits()
            + self.cs2.len() * 64
            + self.gauss_counters.len() * 64
            + self.fp_est.space_bits()
            + self.touched.len() * 64
            + 192
    }

    /// Merges a same-seeded shard sampler: every component (stage-1 table,
    /// kept stage-2 region, Gaussian counters, norm estimator) is a linear
    /// accumulator over the stream.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.seed, other.seed, "seed mismatch");
        assert_eq!(self.universe, other.universe, "universe mismatch");
        self.cs1.merge(&other.cs1);
        assert_eq!(self.cs2.len(), other.cs2.len(), "stage-2 shape mismatch");
        for (a, b) in self.cs2.iter_mut().zip(&other.cs2) {
            *a += b;
        }
        assert_eq!(
            self.gauss_counters.len(),
            other.gauss_counters.len(),
            "gaussian counter mismatch"
        );
        for (a, b) in self.gauss_counters.iter_mut().zip(&other.gauss_counters) {
            *a += b;
        }
        self.fp_est.merge(&other.fp_est);
        self.touched.extend(&other.touched);
    }
}

/// Success-boosted approximate sampler: `k` independent instances, first
/// non-FAIL wins. Drives the FAIL probability to `Pr[FAIL]^k` (the paper's
/// "at most 0.1" operating point) without touching the conditional law —
/// the gap test's FAIL event is anti-rank-independent by Lemma 3.10.
#[derive(Debug, Clone)]
pub struct ApproxLpBatch {
    instances: Vec<ApproxLpSampler>,
}

impl ApproxLpBatch {
    /// Builds `k` independent instances.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(n: usize, params: ApproxLpParams, k: usize, seed: u64) -> Self {
        assert!(k >= 1, "batch needs at least one instance");
        let instances = (0..k)
            .map(|j| ApproxLpSampler::new(n, params, derive_seed(seed, 0xBA7C + j as u64)))
            .collect();
        Self { instances }
    }
}

impl TurnstileSampler for ApproxLpBatch {
    fn process(&mut self, u: Update) {
        for inst in &mut self.instances {
            inst.process(u);
        }
    }

    fn sample(&mut self) -> Option<Sample> {
        self.instances.iter_mut().find_map(ApproxLpSampler::sample)
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

    fn space_bits(&self) -> usize {
        self.instances
            .iter()
            .map(TurnstileSampler::space_bits)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_stream::gen::{planted_vector, zipf_vector};
    use pts_stream::{FrequencyVector, Stream, StreamStyle};
    use pts_util::stats::tv_distance;

    fn approx_distribution(
        x: &FrequencyVector,
        p: f64,
        epsilon: f64,
        trials: u64,
        seed0: u64,
    ) -> (Vec<u64>, u64) {
        let n = x.n();
        let params = ApproxLpParams::for_universe(n, p, epsilon);
        let mut counts = vec![0u64; n];
        let mut fails = 0;
        for t in 0..trials {
            let mut s = ApproxLpSampler::new(n, params, seed0 + t * 13);
            s.ingest_vector(x);
            match s.sample() {
                Some(sample) => counts[sample.index as usize] += 1,
                None => fails += 1,
            }
        }
        (counts, fails)
    }

    #[test]
    fn follows_lp_law_within_epsilon() {
        let x = FrequencyVector::from_values(vec![4, -8, 12, 2, 0, 6, -10, 3]);
        let weights = x.lp_weights(3.0);
        let (counts, fails) = approx_distribution(&x, 3.0, 0.3, 3_000, 1);
        let accepted: u64 = counts.iter().sum();
        assert!(
            fails < 3_000 * 6 / 10,
            "FAIL rate too high: {fails}/3000 (accepted {accepted})"
        );
        let tv = tv_distance(&counts, &weights);
        assert!(tv < 0.12, "tv {tv}");
    }

    #[test]
    fn planted_heavy_wins_overwhelmingly() {
        let x = planted_vector(64, 1, 500, 5, 42);
        let heavy = x.values().iter().position(|v| v.abs() == 500).unwrap() as u64;
        let (counts, fails) = approx_distribution(&x, 4.0, 0.3, 300, 99);
        let accepted: u64 = counts.iter().sum();
        assert!(accepted > 150, "accepted {accepted} fails {fails}");
        let rate = counts[heavy as usize] as f64 / accepted as f64;
        assert!(rate > 0.97, "heavy rate {rate}");
    }

    #[test]
    fn estimate_is_epsilon_accurate_on_heavy() {
        let x = planted_vector(64, 1, 800, 3, 7);
        let params = ApproxLpParams::for_universe(64, 3.0, 0.2);
        let mut ok = 0;
        let mut total = 0;
        for t in 0..100u64 {
            let mut s = ApproxLpBatch::new(64, params, 4, 5_000 + t);
            s.ingest_vector(&x);
            if let Some(sample) = s.sample() {
                total += 1;
                let truth = x.value(sample.index) as f64;
                let rel = (sample.estimate - truth).abs() / truth.abs();
                if rel < 0.35 {
                    ok += 1;
                }
            }
        }
        assert!(total > 50, "total {total}");
        assert!(ok * 10 >= total * 9, "ok {ok}/{total}");
    }

    #[test]
    fn stream_vs_vector_agree() {
        let x = zipf_vector(32, 1.1, 60, 3);
        let mut rng = Xoshiro256pp::new(4);
        let stream = Stream::from_target(&x, StreamStyle::Turnstile { churn: 1.0 }, &mut rng);
        let params = ApproxLpParams::for_universe(32, 3.0, 0.3);
        let mut a = ApproxLpSampler::new(32, params, 5);
        a.ingest_stream(&stream);
        let mut b = ApproxLpSampler::new(32, params, 5);
        b.ingest_vector(&x);
        match (a.sample(), b.sample()) {
            (None, None) => {}
            (Some(sa), Some(sb)) => {
                assert_eq!(sa.index, sb.index);
                assert!((sa.estimate - sb.estimate).abs() < 1e-6_f64.max(sb.estimate.abs() * 1e-9));
            }
            (x, y) => panic!("diverged: {x:?} vs {y:?}"),
        }
    }

    #[test]
    fn zero_vector_fails() {
        let params = ApproxLpParams::for_universe(16, 3.0, 0.3);
        let mut s = ApproxLpSampler::new(16, params, 6);
        assert!(s.sample().is_none());
        s.process(Update::new(3, 9));
        s.process(Update::new(3, -9));
        assert!(s.sample().is_none());
    }

    /// The pre-fix dense decode, replicated verbatim as a reference: scan
    /// every universe coordinate for candidates and for the gap test's
    /// runner-up. Used to pin the sparse (touched-set) decode to the dense
    /// scan's output.
    fn dense_sample(s: &mut ApproxLpSampler) -> Option<Sample> {
        let lp_hat = s.fp_est.lp_estimate();
        let candidates: Vec<(u64, f64)> = if lp_hat <= 0.0 {
            Vec::new()
        } else {
            let threshold = s.copies_m.powf(1.0 / s.params.p) * lp_hat / s.params.b_threshold_div;
            let mut out: Vec<(u64, f64)> = (0..s.universe as u64)
                .filter_map(|i| {
                    let est = s.cs1.estimate(i)?;
                    (est.abs() >= threshold).then_some((i, est))
                })
                .collect();
            out.sort_by(|a, b| {
                b.1.abs()
                    .partial_cmp(&a.1.abs())
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            out.truncate(s.params.kept_buckets);
            out
        };
        if candidates.is_empty() {
            return None;
        }
        let mut ys: Vec<(u64, f64, f64)> = candidates
            .iter()
            .map(|&(i, v_hat)| (i, v_hat + s.cs2_read(i), v_hat))
            .collect();
        ys.sort_by(|a, b| {
            b.1.abs()
                .partial_cmp(&a.1.abs())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let (i_star, y1, v1) = ys[0];
        let y2_distinct = (0..s.universe as u64)
            .filter(|&i| i != i_star)
            .filter_map(|i| s.cs1.estimate(i).map(|v| (v + s.cs2_read(i)).abs()))
            .fold(0.0f64, f64::max);
        let winner_consts = s.index_consts(i_star);
        let own_second = y1.abs() * winner_consts.second_scale / winner_consts.v_scale
            + keyed_gaussian(derive_seed(s.seed, 0x2EAD), i_star) * s.cs1.noise_scale();
        let y2 = y2_distinct.max(own_second.abs());
        let r = s.r_estimate();
        let threshold = s.params.threshold_factor * r / (s.mu * s.virtual_width.sqrt());
        if y1.abs() - y2 <= threshold {
            return None;
        }
        Some(Sample {
            index: i_star,
            estimate: v1 / winner_consts.v_scale,
        })
    }

    #[test]
    fn sparse_decode_matches_dense_scan_on_planted_workload() {
        // Regression for the O(n) decode paths: the touched-set decode must
        // return exactly what the full-universe scan returned, while the
        // candidate scan itself covers support-many coordinates, not n.
        let x = planted_vector(256, 1, 800, 5, 17);
        let params = ApproxLpParams::for_universe(256, 4.0, 0.3);
        let mut agreements = 0;
        for t in 0..30u64 {
            let mut s = ApproxLpSampler::new(512, params, 40_000 + t);
            s.ingest_vector(&x);
            assert_eq!(s.touched.len(), x.f0(), "touched must track the support");
            let sparse = s.sample();
            let dense = dense_sample(&mut s);
            assert_eq!(sparse, dense, "seed {t}: sparse and dense decode diverged");
            if sparse.is_some() {
                agreements += 1;
            }
        }
        assert!(
            agreements > 10,
            "only {agreements}/30 accepted — workload too hard"
        );
    }

    #[test]
    fn merge_unions_touched_sets() {
        let params = ApproxLpParams::for_universe(64, 3.0, 0.3);
        let mut a = ApproxLpSampler::new(64, params, 9);
        let mut b = ApproxLpSampler::new(64, params, 9);
        a.process(Update::new(3, 50));
        b.process(Update::new(40, -20));
        b.process(Update::new(3, 10));
        a.merge(&b);
        assert_eq!(
            a.touched.iter().copied().collect::<Vec<_>>(),
            vec![3, 40],
            "merge must union the touched sets"
        );
        // The merged sampler decodes the coordinate only the shard saw.
        let mut whole = ApproxLpSampler::new(64, params, 9);
        whole.process(Update::new(3, 60));
        whole.process(Update::new(40, -20));
        assert_eq!(
            a.sample(),
            whole.sample(),
            "merge must equal whole-stream state"
        );
    }

    #[test]
    fn index_consts_are_deterministic() {
        let params = ApproxLpParams::for_universe(32, 3.0, 0.3);
        let s = ApproxLpSampler::new(32, params, 7);
        let a = s.derive_index_consts(11);
        let b = s.derive_index_consts(11);
        assert_eq!(a.v_scale, b.v_scale);
        assert_eq!(a.t2_tail, b.t2_tail);
        assert!(a.v_scale > 0.0 && a.t2_tail >= 0.0);
    }

    #[test]
    fn tail_mass_scales_with_copies() {
        // More virtual copies → more tail mass; mean of t2_tail over many
        // indices must grow roughly linearly in M.
        let mk = |dup_c: f64| {
            let mut params = ApproxLpParams::for_universe(32, 4.0, 0.3);
            params.dup_c = dup_c;
            ApproxLpSampler::new(32, params, 8)
        };
        let small = mk(1.0);
        let large = mk(2.0);
        let mean_t2 = |s: &ApproxLpSampler| -> f64 {
            (0..32u64)
                .map(|i| s.derive_index_consts(i).t2_tail)
                .sum::<f64>()
                / 32.0
        };
        let ratio = mean_t2(&large) / mean_t2(&small);
        // M grew 32×; the Γ(1−2/p)-scaled tail mass should track it.
        assert!(ratio > 8.0, "tail mass ratio {ratio}");
    }

    #[test]
    fn batch_reduces_fail_rate() {
        let x = FrequencyVector::from_values(vec![4, -8, 12, 2, 0, 6, -10, 3]);
        let params = ApproxLpParams::for_universe(8, 3.0, 0.3);
        let trials = 300u64;
        let mut single_fails = 0;
        let mut batch_fails = 0;
        for t in 0..trials {
            let mut s = ApproxLpSampler::new(8, params, 60_000 + t);
            s.ingest_vector(&x);
            if s.sample().is_none() {
                single_fails += 1;
            }
            let mut b = ApproxLpBatch::new(8, params, 6, 60_000 + t);
            b.ingest_vector(&x);
            if b.sample().is_none() {
                batch_fails += 1;
            }
        }
        assert!(
            batch_fails as f64 <= trials as f64 / 10.0,
            "batch FAIL {batch_fails}/{trials} must meet the ≤0.1 contract \
             (single: {single_fails})"
        );
    }

    #[test]
    fn space_is_sublinear_in_universe() {
        let params_small = ApproxLpParams::for_universe(256, 4.0, 0.2);
        let params_big = ApproxLpParams::for_universe(4096, 4.0, 0.2);
        let small = ApproxLpSampler::new(256, params_small, 1).space_bits();
        let big = ApproxLpSampler::new(4096, params_big, 1).space_bits();
        // Universe grew 16×; n^{1/2}·log n growth is ≤ ~6×.
        let ratio = big as f64 / small as f64;
        assert!(ratio < 8.0, "ratio {ratio}");
    }
}
