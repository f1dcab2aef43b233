//! **The paper's headline result**: perfect L_p sampling for `p > 2` on
//! turnstile streams (Theorems 1.2 / 2.6 / 2.10; Algorithms 1 and 2).
//!
//! Sampling-and-rejection: draw perfect L₂ samples, then accept a drawn
//! index `j` with probability
//!
//! ```text
//!   F̂₂ / (slack · n^{1−2/p} · F̂_p) · |x̂_j^{p−2}|
//! ```
//!
//! which converts the L₂ law `x_j²/F₂` into the L_p law `|x_j|^p/F_p`. The
//! correction factor is ≤ 1 once `F̂₂`, `F̂_p` are constant-factor
//! approximations (the `n^{1−2/p}` headroom is exactly Hölder's inequality:
//! `x_j^{p−2}F₂/F_p ≤ n^{1−2/p}`), and because the *same* `F̂₂/F̂_p` ratio
//! multiplies every attempt, any approximation error cancels in the
//! conditional output law — it only moves the acceptance rate.
//!
//! `x̂_j^{p−2}` comes from independent CountSketch replicas on the winning
//! L₂ instance's scaled vector (Corollary 2.3: the winner is a heavy hitter
//! there, so the estimates have small relative variance):
//! * integer `p`: the product of `p−2` independent group means
//!   (Algorithm 1) — exactly unbiased for `x_j^{p−2}`;
//! * fractional `p`: the truncated Taylor expansion of `|x|^{p−2}` around
//!   the anchor `y = ` the sampler's own estimate (Algorithm 2 /
//!   Lemma 2.7), with independent estimate groups supplying the
//!   `(x̂^{(a)} − y)` factors.
//!
//! ## The lazy driver
//!
//! [`PerfectLpSampler::draw_from`] returns the draw of a sampler built from
//! a seed and caught up from a net vector without building all `N`
//! attempts: the moment estimators are built and replayed once, then
//! attempt `t` is built, replayed and tried only when the loop reaches it.
//! Attempt `t` is seeded by `derive_seed(seed, t)` and its accept coin is
//! `keyed_unit(accept_seed, t)`, so nothing about attempt `t` depends on
//! the attempts after it, and the loop stops at the first accept. Both
//! drivers share the seed helpers and the per-candidate accept step below.
//! A respawned engine draw (`PerfectLpFactory::draw_from`) takes this path.
//!
//! The lazy driver holds the exact net vector. It collects the non-zero
//! entries once per draw; they feed the moment estimators, and every
//! attempt replays them and decodes over them
//! ([`PerfectLpLe2Sampler::replay_and_decide`]) where the eager `sample()`
//! scans the universe. The replay records each entry's cell in every row,
//! in one buffer the attempts share, and the decode reads those cells, so
//! an attempt hashes each entry once. A zero coordinate can neither be
//! output nor set an attempt's runner-up through collision noise. When the
//! support is the whole universe the two scans are the same, and the lazy
//! draw is the eager `sample()`, bit for bit; on any support it never
//! returns an index outside it.
//!
//! The lazy driver builds each attempt without its estimator replicas.
//! They are read only at a candidate `j`, and only through the power
//! estimate, so it point-queries all `groups × reps` of them from the net
//! entries in one pass ([`PerfectLpLe2Sampler::net_replica_estimates`]),
//! and both drivers average each group's slice of those estimates with
//! [`PerfectLpLe2Sampler::mean_of`]. That is bit-identical to the
//! materialized replicas:
//! * leaving the replicas out moves nothing else, because the main sketch,
//!   `μ` and the scales have seeds of their own;
//! * replica `k`'s seed comes from the same rule in both cases;
//! * in every (replica, row) lane, the point query sums the signed, scaled
//!   deltas of the entries that share `j`'s bucket, in net order and from
//!   `0.0`. That is the float sequence the materialized cell receives;
//! * an entry's scale is computed once, on the first lane it collides in,
//!   whatever the number of lanes; and each group mean sums its replicas
//!   in order, as the materialized mean does.
//!
//! Most candidates are rejected, and the lazy driver reads a candidate's
//! coin before its replicas. The coin is keyed by `(accept_seed, t)`
//! alone, so it is known before anything about `j` is computed. The
//! integer-`p` estimate has a free ceiling: every replica cell at `j` is a
//! signed sum of a subset of the scaled entries, so each group mean is at
//! most `‖z‖₁ / scale(j)` in magnitude, and the replay already computes
//! `‖z‖₁` ([`PerfectLpLe2Sampler::replay_and_decide`]). A coin at or above
//! `base` times that ceiling to the power `p − 2` rejects without the
//! query. This is the full step's answer, bit for bit: the ceiling carries
//! a rounding margin, so it bounds the *computed* estimate; rounding is
//! monotone, so the computed ratio is at most the coin; and the coin is
//! below 1, so no clamp is skipped. The `RejectionStats` match too. The
//! eager `sample()` reads materialized replicas and checks no ceiling, and
//! neither driver has one for the Taylor estimator (`power_ceiling` says
//! why).

use pts_samplers::{LpLe2Params, PerfectLpLe2Sampler, Sample, TurnstileSampler};
use pts_sketch::{AmsF2, FpTaylor, FpTaylorParams, LinearSketch};
use pts_stream::Update;
use pts_util::derive_seed;
use pts_util::variates::keyed_unit;
use pts_util::wire::{Decode, Encode, WireError, WireReader, WireWriter};

/// How `x̂^{p−2}` is estimated in the rejection step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PowerEstimator {
    /// Algorithm 1: product of `p−2` independent estimate-group means
    /// (requires integer `p ≥ 3`).
    IntegerProduct,
    /// Algorithm 2: truncated Taylor expansion with the given number of
    /// terms `Q` (works for every real `p > 2`).
    Taylor {
        /// Number of Taylor terms (`Q = O(log n)` in the paper).
        terms: usize,
    },
}

/// Parameters for [`PerfectLpSampler`].
#[derive(Debug, Clone, Copy)]
pub struct PerfectLpParams {
    /// Moment order `p > 2`.
    pub p: f64,
    /// Number of inner perfect-L₂ attempts (`N = Θ(n^{1−2/p} polylog n)`).
    pub attempts: usize,
    /// Rejection headroom (the `8` of Algorithm 1 line 10); the effective
    /// denominator is `slack · n^{1−2/p}`.
    pub slack: f64,
    /// CountSketch replicas averaged per estimate group (the "polylog(n)
    /// instances" of Algorithm 1 line 8).
    pub reps_per_group: usize,
    /// The `x^{p−2}` estimator variant.
    pub estimator: PowerEstimator,
    /// Inner L₂ sampler configuration.
    pub l2: LpLe2Params,
}

impl PerfectLpParams {
    /// Paper-shaped defaults for universe `n` (integer `p` picks
    /// Algorithm 1's product estimator, fractional `p` the Taylor variant).
    ///
    /// # Panics
    /// Panics unless `p > 2`.
    pub fn for_universe(n: usize, p: f64) -> Self {
        assert!(p > 2.0, "the perfect sampler of Theorem 1.2 requires p > 2");
        let nf = n.max(4) as f64;
        let slack = 4.0;
        let attempts = ((2.0 * slack * nf.powf(1.0 - 2.0 / p) * nf.ln()).ceil() as usize).max(8);
        // The product estimator needs `round(p) − 2 ≥ 1` groups, so it is
        // only valid for integer `p ≥ 3`. Values just above the `p > 2`
        // gate (e.g. `p = 2 + 1e-10`) round to 2 and would yield **zero**
        // estimate groups — a degenerate, always-1 power estimate — so they
        // take the Taylor route like any other non-integer `p`.
        let is_integer = (p - p.round()).abs() < 1e-9 && p.round() >= 3.0;
        let estimator = if is_integer {
            PowerEstimator::IntegerProduct
        } else {
            // Q = O(log n) terms; the anchor is within ~10% of x_j, so the
            // truncation tail decays like 0.1^Q (Lemma 2.7) — 12 terms put
            // it below f64 resolution at any laptop n.
            PowerEstimator::Taylor {
                terms: (nf.log2().ceil() as usize + 2).min(12),
            }
        };
        let reps_per_group = 4;
        let groups = match estimator {
            PowerEstimator::IntegerProduct => (p.round() as usize) - 2,
            PowerEstimator::Taylor { terms } => terms,
        };
        let l2 = LpLe2Params::for_universe(n, 2.0).with_extra_estimators(groups * reps_per_group);
        Self {
            p,
            attempts,
            slack,
            reps_per_group,
            estimator,
            l2,
        }
    }

    /// Number of estimate groups implied by the estimator choice.
    pub fn groups(&self) -> usize {
        match self.estimator {
            PowerEstimator::IntegerProduct => (self.p.round() as usize) - 2,
            PowerEstimator::Taylor { terms } => terms,
        }
    }
}

impl Encode for PowerEstimator {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        match *self {
            PowerEstimator::IntegerProduct => w.put_u8(0),
            PowerEstimator::Taylor { terms } => {
                w.put_u8(1);
                w.put_usize(terms);
            }
        }
        Ok(())
    }
}

impl Decode for PowerEstimator {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(PowerEstimator::IntegerProduct),
            1 => {
                let terms = r.get_usize()?;
                if !(1..=64).contains(&terms) {
                    return Err(WireError::Invalid("taylor term count"));
                }
                Ok(PowerEstimator::Taylor { terms })
            }
            _ => Err(WireError::Invalid("power estimator tag")),
        }
    }
}

impl Encode for PerfectLpParams {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_f64(self.p);
        w.put_usize(self.attempts);
        w.put_f64(self.slack);
        w.put_usize(self.reps_per_group);
        self.estimator.encode(w)?;
        self.l2.encode(w)
    }
}

impl Decode for PerfectLpParams {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let p = r.get_f64()?;
        let attempts = r.get_usize()?;
        let slack = r.get_f64()?;
        let reps_per_group = r.get_usize()?;
        let estimator = PowerEstimator::decode(r)?;
        let l2 = LpLe2Params::decode(r)?;
        // The constructor asserts these invariants; the decode path turns
        // each into an error so malformed payloads cannot reach a panic.
        if !(p.is_finite() && p > 2.0 && slack.is_finite()) {
            return Err(WireError::Invalid("perfect-lp moment order"));
        }
        if !(1..=1 << 24).contains(&attempts) || !(1..=1 << 12).contains(&reps_per_group) {
            return Err(WireError::Invalid("perfect-lp shape"));
        }
        if estimator == PowerEstimator::IntegerProduct
            && !((p - p.round()).abs() < 1e-9 && p.round() >= 3.0)
        {
            return Err(WireError::Invalid("integer estimator with fractional p"));
        }
        let params = Self {
            p,
            attempts,
            slack,
            reps_per_group,
            estimator,
            l2,
        };
        if params.l2.extra_estimators != params.groups() * params.reps_per_group {
            return Err(WireError::Invalid("estimator replica arity"));
        }
        Ok(params)
    }
}

/// Diagnostics of the most recent [`PerfectLpSampler::sample`] call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RejectionStats {
    /// Inner L₂ attempts that produced a candidate.
    pub candidates: u64,
    /// Candidates whose rejection probability exceeded 1 and was clamped
    /// (each clamp is a potential distortion event; Lemma 2.4 proves they
    /// are `1/poly(n)`-rare under well-calibrated moment estimates).
    pub clamps: u64,
    /// The attempt index that produced the accepted sample, if any.
    pub accepted_at: Option<usize>,
}

/// The perfect L_p sampler for `p > 2` (Algorithms 1 & 2).
#[derive(Debug, Clone)]
pub struct PerfectLpSampler {
    params: PerfectLpParams,
    universe: usize,
    attempts: Vec<PerfectLpLe2Sampler>,
    f2_est: AmsF2,
    fp_est: FpTaylor,
    accept_seed: u64,
    stats: RejectionStats,
}

impl PerfectLpSampler {
    /// Builds the sampler over universe `[0, n)`.
    ///
    /// # Panics
    /// Panics on inconsistent parameters (`p ≤ 2`, no attempts, integer
    /// estimator with fractional `p`).
    pub fn new(n: usize, params: PerfectLpParams, seed: u64) -> Self {
        check_params(&params);
        let attempts = (0..params.attempts)
            .map(|t| PerfectLpLe2Sampler::new(n, params.l2, attempt_seed(seed, t)))
            .collect();
        let (f2_est, fp_est) = moment_estimators(n, &params, seed);
        Self {
            params,
            universe: n,
            attempts,
            f2_est,
            fp_est,
            accept_seed: accept_seed(seed),
            stats: RejectionStats::default(),
        }
    }

    /// The draw of `new(n, params, seed)` caught up from the net vector
    /// `net` (each index at most once, in ascending order), computed
    /// lazily: the moment estimators are built and caught up once, attempt
    /// `t` is built (without its estimator replicas), replayed and decoded
    /// over the support of `net` only when the rejection loop reaches it,
    /// and a candidate's replica estimates are point-queried from the net
    /// entries, all in one pass, unless its coin already rejects it
    /// against a ceiling on the estimate.
    ///
    /// When the support is the whole universe the answer is the eager
    /// sampler's, bit for bit; on any support it never returns an index
    /// outside it (module docs, "The lazy driver"). `net` is iterated once,
    /// into its non-zero entries, which feed the estimators, every attempt
    /// built and every replica queried.
    ///
    /// # Panics
    /// Panics on the same inconsistent parameters as [`PerfectLpSampler::new`].
    pub fn draw_from<I>(n: usize, params: PerfectLpParams, seed: u64, net: I) -> Option<Sample>
    where
        I: IntoIterator<Item = (u64, i64)>,
    {
        draw_with_stats(n, params, seed, net).0
    }

    /// Diagnostics of the most recent `sample()` call.
    pub fn stats(&self) -> RejectionStats {
        self.stats
    }

    /// The sketch size this configuration would occupy, computed from the
    /// shapes alone: no sampler, sketch or estimator is built (the size is
    /// deterministic in the parameters; the space-scaling experiment E2
    /// asks it at universes where building even one inner sampler would
    /// allocate gigabytes).
    pub fn projected_space_bits(n: usize, params: PerfectLpParams) -> usize {
        let f2 = AmsF2::space_bits_for_2_approx(n);
        let fp = FpTaylorParams::for_universe(n, params.p).space_bits(n);
        params.attempts * params.l2.space_bits() + f2 + fp + 64
    }

    /// The generalized binomial coefficient `C(a, q)` for real `a`
    /// (the Taylor coefficients of Lemma 2.7; public for the truncation
    /// ablation A2).
    pub fn gen_binom(a: f64, q: usize) -> f64 {
        let mut acc = 1.0;
        for k in 0..q {
            acc *= (a - k as f64) / (k + 1) as f64;
        }
        acc
    }

    /// The truncated Taylor expansion of `x^a` around `y` with `terms`
    /// terms beyond the constant: `Σ_{q=0}^{terms} C(a,q) y^{a−q} (x−y)^q`
    /// (Lemma 2.7's estimator evaluated at exact inputs; the sampler's
    /// rejection step evaluates the same series with independent estimates
    /// in place of the `(x−y)` factors).
    pub fn taylor_power(a: f64, x: f64, y: f64, terms: usize) -> f64 {
        assert!(x > 0.0 && y > 0.0, "taylor_power is defined on positives");
        let mut total = 0.0;
        let mut factor = 1.0;
        for q in 0..=terms {
            total += Self::gen_binom(a, q) * y.powf(a - q as f64) * factor;
            factor *= x - y;
        }
        total
    }
}

// The eager sampler and the lazy `draw_from` share every seed and the
// accept step below, which is what makes their draws bit-identical on a
// full support.

/// [`PerfectLpSampler::draw_from`] with the [`RejectionStats`] the eager
/// `sample()` would report.
fn draw_with_stats<I>(
    n: usize,
    params: PerfectLpParams,
    seed: u64,
    net: I,
) -> (Option<Sample>, RejectionStats)
where
    I: IntoIterator<Item = (u64, i64)>,
{
    check_params(&params);
    let mut stats = RejectionStats::default();
    let (mut f2_est, mut fp_est) = moment_estimators(n, &params, seed);
    let entries: Vec<(u64, i64)> = net.into_iter().filter(|&(_, v)| v != 0).collect();
    for &(i, v) in &entries {
        update_moments(&mut f2_est, &mut fp_est, Update::new(i, v));
    }
    let Some(base) = correction_base(&params, n, &f2_est, &fp_est) else {
        return (None, stats);
    };
    let accept_seed = accept_seed(seed);
    // Replicas are read only at a candidate, so the attempts skip them.
    let lean = params.l2.with_extra_estimators(0);
    let (replicas, reps) = (params.l2.extra_estimators, params.reps_per_group);
    let mut cells = Vec::new();
    let mut estimates = Vec::new();
    let drawn = (0..params.attempts).find_map(|t| {
        let inner_seed = attempt_seed(seed, t);
        let mut inner = PerfectLpLe2Sampler::new(n, lean, inner_seed);
        let (candidate, l1) = inner.replay_and_decide(&entries, &mut cells)?;
        let (j, anchor) = (candidate.index, candidate.estimate);
        let ceiling = power_ceiling(&params, l1, entries.len(), inner.scale(j));
        let power = || {
            inner.net_replica_estimates(inner_seed, replicas, &entries, j, &mut estimates);
            let group_mean = |g: usize| inner.mean_of(j, &estimates[g * reps..(g + 1) * reps]);
            power_estimate(&params, group_mean, anchor)
        };
        try_attempt(base, accept_seed, t, candidate, ceiling, power, &mut stats)
    });
    (drawn, stats)
}

/// Asserts the parameter invariants both drivers rely on.
fn check_params(params: &PerfectLpParams) {
    assert!(params.p > 2.0, "p must exceed 2");
    assert!(params.attempts >= 1, "need at least one attempt");
    if params.estimator == PowerEstimator::IntegerProduct {
        assert!(
            (params.p - params.p.round()).abs() < 1e-9 && params.p.round() >= 3.0,
            "IntegerProduct requires integer p >= 3"
        );
    }
    assert_eq!(
        params.l2.extra_estimators,
        params.groups() * params.reps_per_group,
        "inner L2 sampler must carry groups×reps estimator replicas"
    );
}

/// The seed of inner perfect-L₂ attempt `t`: `(seed, t)` alone.
fn attempt_seed(seed: u64, t: usize) -> u64 {
    derive_seed(seed, t as u64)
}

/// The `F̂₂` and `F̂_p` estimators of a sampler built from `seed`.
fn moment_estimators(n: usize, params: &PerfectLpParams, seed: u64) -> (AmsF2, FpTaylor) {
    let f2_est = AmsF2::for_2_approx(n, derive_seed(seed, 0xF2E5));
    let fp_est = FpTaylor::new(
        n,
        FpTaylorParams::for_universe(n, params.p),
        derive_seed(seed, 0xF9E5),
    );
    (f2_est, fp_est)
}

/// The key of the accept coins of a sampler built from `seed`.
fn accept_seed(seed: u64) -> u64 {
    derive_seed(seed, 0xACC3)
}

/// Feeds one update to the moment estimators (zero deltas are skipped,
/// as `process` skips them).
fn update_moments(f2_est: &mut AmsF2, fp_est: &mut FpTaylor, u: Update) {
    if u.delta == 0 {
        return;
    }
    f2_est.update(u.index, u.delta as f64);
    fp_est.update(u.index, u.delta as f64);
}

/// The shared correction base `F̂₂ / (slack · n^{1−2/p} · F̂_p)`, or `None`
/// (⊥) when either moment estimate is not positive. Being shared across
/// attempts, its error cancels in the output law.
fn correction_base(
    params: &PerfectLpParams,
    n: usize,
    f2_est: &AmsF2,
    fp_est: &FpTaylor,
) -> Option<f64> {
    let f2_hat = f2_est.estimate().max(0.0);
    let fp_hat = fp_est.estimate();
    if fp_hat <= 0.0 || f2_hat <= 0.0 {
        return None;
    }
    Some(f2_hat / (params.slack * (n as f64).powf(1.0 - 2.0 / params.p) * fp_hat))
}

/// One step of the rejection loop: attempt `t`'s candidate is accepted
/// with probability `min(1, base · |x̂_j|^{p−2})` against the coin keyed by
/// `(accept_seed, t)`. `power()` computes the candidate's `|x̂_j|^{p−2}`
/// ([`power_estimate`]), and `ceiling` bounds what it can return
/// ([`power_ceiling`]; `f64::INFINITY` when there is no cheap bound).
/// Updates `stats` as `sample()` reports them.
///
/// A coin at or above `base · ceiling` rejects without calling `power()`,
/// with the same outcome and `stats` as the full step: rounding is
/// monotone, so the computed `r ≤ base · ceiling ≤ coin` is a rejection
/// either way, and as the coin is below 1, no `r > 1` can have been
/// clamped. No coin clears an infinite or NaN `base · ceiling`.
fn try_attempt(
    base: f64,
    accept_seed: u64,
    t: usize,
    candidate: Sample,
    ceiling: f64,
    power: impl FnOnce() -> f64,
    stats: &mut RejectionStats,
) -> Option<Sample> {
    stats.candidates += 1;
    let coin = keyed_unit(accept_seed, t as u64);
    if coin >= base * ceiling {
        return None;
    }
    let r = base * power();
    let r_clamped = if r > 1.0 {
        stats.clamps += 1;
        1.0
    } else {
        r
    };
    if coin < r_clamped {
        stats.accepted_at = Some(t);
        Some(candidate)
    } else {
        None
    }
}

/// A ceiling on the computed [`power_estimate`] of candidate `j`, from
/// the attempt's `l1 = ‖z‖₁` (the magnitudes of its `nnz` scaled entries,
/// summed in entry order) and `scale = scale(j)`, or `f64::INFINITY`.
///
/// Every replica cell at `j` is a signed sum of a subset of the scaled
/// entries, so a row median, a replica estimate and a group mean of `x_j`
/// are at most `‖z‖₁ / scale(j)` in magnitude, and the product of the
/// `groups` means at most that to the power `groups`. The margin makes
/// this hold for the computed values. With unit roundoff `u = ε/2`, each
/// rounding moves a value by at most a factor `1 ± u`:
/// * the estimate's side gains `(1 + u)^{nnz + reps}`: a cell sums at most
///   `nnz` terms from `0.0` (`nnz − 1` roundings), an even-row median
///   averages two rows (1), a group sums `reps` estimates (`reps − 1`) and
///   divides (1). The divisor `reps · scale(j)` rounds once more (a factor
///   `1 / (1 − u)`), and the product of the means `groups − 1` times;
/// * the ceiling's side loses `(1 − u)^{nnz − 1}` in the computed `l1`, two
///   roundings in `l1 / scale · margin` and `groups − 1` in the power.
///
/// Per group (the `groups`-th root), `margin ≥ (1 + u)^{nnz + reps + 1} /
/// (1 − u)^{nnz + 3}` suffices. With `k = 2·nnz + reps + 4` that ratio is
/// below `exp(k·u·(1 + 2u)) ≤ 1 + 2·k·u = 1 + k·ε` while `k·u ≤ 1/4`, and
/// `1 + k·ε` is exact in `f64`. Underflow cannot break the bound: a result
/// below the normal range is off by at most `2^-1074`, and the ceiling is
/// at least about 1 (`l1 ≥ |z_j| = |x_j|·scale(j)` with `|x_j| ≥ 1`).
///
/// The Taylor estimator gets no ceiling. Its series can only be bounded
/// term by term, and with a cell bound `M ≥ y` for the anchor `y`, each
/// factor `|x̂ − y|` only by `M + y ≥ 2y`. That bound is at least
/// `y^{p−2} · Σ_q |C(p−2, q)|·2^q`, over 11× the ratio it bounds at
/// p = 2.5 with 8 terms, so it would almost never reject.
fn power_ceiling(params: &PerfectLpParams, l1: f64, nnz: usize, scale: f64) -> f64 {
    match params.estimator {
        PowerEstimator::IntegerProduct => {
            let margin = 1.0 + (2 * nnz + params.reps_per_group + 4) as f64 * f64::EPSILON;
            let group_ceiling = l1 / scale * margin;
            let mut ceiling = 1.0;
            for _ in 0..params.groups() {
                ceiling *= group_ceiling;
            }
            ceiling
        }
        PowerEstimator::Taylor { .. } => f64::INFINITY,
    }
}

/// The `|x̂_j|^{p−2}` estimate from the winning attempt's replicas, given
/// as `group_mean(g)`: the mean estimate of `x_j` over group `g`.
fn power_estimate(params: &PerfectLpParams, group_mean: impl Fn(usize) -> f64, anchor: f64) -> f64 {
    match params.estimator {
        PowerEstimator::IntegerProduct => {
            // Π over p−2 independent group means: unbiased for x^{p−2}.
            let groups = params.groups();
            let mut prod = 1.0;
            for g in 0..groups {
                prod *= group_mean(g);
            }
            prod.abs()
        }
        PowerEstimator::Taylor { terms } => {
            // Truncated Taylor expansion of |x|^{p−2} around |anchor|,
            // with independent estimates supplying each (x̂ − y) factor
            // (Algorithm 2 line 13). Signs are pinned to the anchor so
            // the expansion runs on magnitudes.
            let a = params.p - 2.0;
            let sign = if anchor < 0.0 { -1.0 } else { 1.0 };
            let y = anchor.abs().max(f64::MIN_POSITIVE);
            let mut total = y.powf(a); // q = 0 term
            let mut factor_prod = 1.0;
            for q in 1..=terms {
                let est = sign * group_mean(q - 1); // ≈ |x_j|
                factor_prod *= est - y;
                total += PerfectLpSampler::gen_binom(a, q) * y.powf(a - q as f64) * factor_prod;
            }
            total.abs()
        }
    }
}

impl TurnstileSampler for PerfectLpSampler {
    fn process(&mut self, u: Update) {
        if u.delta == 0 {
            return;
        }
        for inner in &mut self.attempts {
            inner.process(u);
        }
        update_moments(&mut self.f2_est, &mut self.fp_est, u);
    }

    fn sample(&mut self) -> Option<Sample> {
        self.stats = RejectionStats::default();
        let base = correction_base(&self.params, self.universe, &self.f2_est, &self.fp_est)?;
        let (params, accept_seed, stats) = (&self.params, self.accept_seed, &mut self.stats);
        let reps = params.reps_per_group;
        let mut estimates = Vec::new();
        self.attempts.iter_mut().enumerate().find_map(|(t, inner)| {
            let candidate = inner.sample()?;
            let (j, anchor) = (candidate.index, candidate.estimate);
            // The replicas are materialized and cheap to read: no ceiling.
            let power = || {
                inner.replica_estimates(j, &mut estimates);
                let group_mean = |g: usize| inner.mean_of(j, &estimates[g * reps..(g + 1) * reps]);
                power_estimate(params, group_mean, anchor)
            };
            try_attempt(base, accept_seed, t, candidate, f64::INFINITY, power, stats)
        })
    }

    fn space_bits(&self) -> usize {
        self.attempts
            .iter()
            .map(TurnstileSampler::space_bits)
            .sum::<usize>()
            + self.f2_est.space_bits()
            + self.fp_est.space_bits()
            + 64
    }

    /// Merges a shard sampler built with the same parameters and seed —
    /// every component is a linear sketch, so a fleet of shards aggregates
    /// into exactly the sampler that saw the whole stream (§1.3's
    /// distributed-databases deployment).
    ///
    /// # Panics
    /// Panics if shards were built with different seeds or parameters.
    fn merge(&mut self, other: &Self) {
        assert_eq!(self.accept_seed, other.accept_seed, "seed mismatch");
        assert_eq!(self.universe, other.universe, "universe mismatch");
        assert_eq!(
            self.attempts.len(),
            other.attempts.len(),
            "attempt mismatch"
        );
        for (a, b) in self.attempts.iter_mut().zip(&other.attempts) {
            a.merge(b);
        }
        self.f2_est.merge(&other.f2_est);
        self.fp_est.merge(&other.fp_est);
    }
}

impl Encode for PerfectLpSampler {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        self.params.encode(w)?;
        w.put_usize(self.universe);
        w.put_u64(self.accept_seed);
        for attempt in &self.attempts {
            attempt.encode(w)?;
        }
        self.f2_est.encode(w)?;
        self.fp_est.encode(w)
    }
}

impl Decode for PerfectLpSampler {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let params = PerfectLpParams::decode(r)?;
        let universe = r.get_usize()?;
        if universe < 2 {
            return Err(WireError::Invalid("perfect-lp universe"));
        }
        let accept_seed = r.get_u64()?;
        // Each inner attempt is ≥ 60 wire bytes; reject attempt counts the
        // input cannot hold before reserving the vector.
        if params.attempts.saturating_mul(60) > r.remaining() {
            return Err(WireError::Truncated);
        }
        let mut attempts = Vec::with_capacity(params.attempts);
        for _ in 0..params.attempts {
            attempts.push(PerfectLpLe2Sampler::decode(r)?);
        }
        let f2_est = AmsF2::decode(r)?;
        let fp_est = FpTaylor::decode(r)?;
        Ok(Self {
            params,
            universe,
            attempts,
            f2_est,
            fp_est,
            accept_seed,
            // Last-call diagnostics are transient; `sample()` resets them
            // before reading, so restoring defaults preserves bit-identical
            // behavior going forward.
            stats: RejectionStats::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pts_stream::gen::zipf_vector;
    use pts_stream::FrequencyVector;
    use pts_util::stats::tv_distance;

    fn run_distribution(
        x: &FrequencyVector,
        p: f64,
        trials: u64,
        seed0: u64,
    ) -> (Vec<u64>, u64, u64) {
        let n = x.n();
        let params = PerfectLpParams::for_universe(n, p);
        let mut counts = vec![0u64; n];
        let mut fails = 0;
        let mut clamps = 0;
        for t in 0..trials {
            let mut s = PerfectLpSampler::new(n, params, seed0 + t * 7919);
            s.ingest_vector(x);
            match s.sample() {
                Some(sample) => counts[sample.index as usize] += 1,
                None => fails += 1,
            }
            clamps += s.stats().clamps;
        }
        (counts, fails, clamps)
    }

    #[test]
    fn integer_p_law_small_vector() {
        let x = FrequencyVector::from_values(vec![4, -8, 12, 2, 0, 6, -10, 3]);
        let weights = x.lp_weights(3.0);
        let (counts, fails, clamps) = run_distribution(&x, 3.0, 1_200, 1);
        let accepted: u64 = counts.iter().sum();
        assert!(accepted > 900, "accepted {accepted}, fails {fails}");
        let tv = tv_distance(&counts, &weights);
        assert!(tv < 0.06, "tv {tv}");
        assert!(clamps < accepted / 10, "clamps {clamps}");
    }

    #[test]
    fn integer_p4_law() {
        let x = FrequencyVector::from_values(vec![3, 9, -6, 12, 1, 0]);
        let weights = x.lp_weights(4.0);
        let (counts, fails, _) = run_distribution(&x, 4.0, 1_000, 50);
        let accepted: u64 = counts.iter().sum();
        assert!(accepted > 700, "accepted {accepted}, fails {fails}");
        let tv = tv_distance(&counts, &weights);
        assert!(tv < 0.07, "tv {tv}");
    }

    #[test]
    fn fractional_p_law() {
        let x = FrequencyVector::from_values(vec![4, -8, 12, 2, 0, 6, -10, 3]);
        let weights = x.lp_weights(2.5);
        let (counts, fails, _) = run_distribution(&x, 2.5, 1_000, 99);
        let accepted: u64 = counts.iter().sum();
        assert!(accepted > 700, "accepted {accepted}, fails {fails}");
        let tv = tv_distance(&counts, &weights);
        assert!(tv < 0.07, "tv {tv}");
    }

    #[test]
    fn estimates_track_sampled_value() {
        let x = zipf_vector(32, 1.1, 100, 7);
        let params = PerfectLpParams::for_universe(32, 3.0);
        let mut good = 0;
        let mut total = 0;
        for t in 0..60u64 {
            let mut s = PerfectLpSampler::new(32, params, 10_000 + t);
            s.ingest_vector(&x);
            if let Some(sample) = s.sample() {
                total += 1;
                let truth = x.value(sample.index) as f64;
                if (sample.estimate - truth).abs() / truth.abs().max(1.0) < 0.4 {
                    good += 1;
                }
            }
        }
        assert!(total >= 40, "total {total}");
        assert!(good * 10 >= total * 9, "good {good}/{total}");
    }

    #[test]
    fn heavy_coordinate_dominates_for_large_p() {
        // p = 4 on a vector whose top coordinate holds ~97% of F4.
        let x = FrequencyVector::from_values(vec![20, 8, 7, 6, 5, 5, 4, 4]);
        let share = (20f64).powi(4) / x.fp_moment(4.0);
        let (counts, _, _) = run_distribution(&x, 4.0, 400, 321);
        let accepted: u64 = counts.iter().sum();
        let top_rate = counts[0] as f64 / accepted as f64;
        assert!(
            (top_rate - share).abs() < 0.07,
            "top rate {top_rate} vs share {share}"
        );
    }

    #[test]
    fn gen_binom_matches_integer_binomials() {
        assert_eq!(PerfectLpSampler::gen_binom(5.0, 2), 10.0);
        assert_eq!(PerfectLpSampler::gen_binom(5.0, 0), 1.0);
        // C(0.5, 2) = 0.5·(−0.5)/2 = −0.125.
        assert!((PerfectLpSampler::gen_binom(0.5, 2) + 0.125).abs() < 1e-12);
    }

    #[test]
    fn zero_vector_fails() {
        let params = PerfectLpParams::for_universe(8, 3.0);
        let mut s = PerfectLpSampler::new(8, params, 5);
        assert!(s.sample().is_none());
    }

    #[test]
    #[should_panic(expected = "p > 2")]
    fn rejects_small_p() {
        let _ = PerfectLpParams::for_universe(8, 2.0);
    }

    #[test]
    fn p_just_above_two_gets_nondegenerate_taylor_estimator() {
        // Regression: `p = 2 + 1e-10` passes the `p > 2` gate and rounds to
        // an "integer" within the 1e-9 tolerance, but the product estimator
        // would then have `round(p) − 2 = 0` groups — a constant power
        // estimate that silently breaks the rejection step. The boundary
        // must fall back to the Taylor estimator with ≥ 1 group.
        for p in [2.0 + 1e-10, 2.0 + 9e-10] {
            let params = PerfectLpParams::for_universe(64, p);
            assert!(
                matches!(params.estimator, PowerEstimator::Taylor { .. }),
                "p = {p} must take the Taylor route, got {:?}",
                params.estimator
            );
            assert!(params.groups() >= 1, "p = {p}: degenerate group count");
            assert_eq!(
                params.l2.extra_estimators,
                params.groups() * params.reps_per_group
            );
        }
        // True integers stay on Algorithm 1's product estimator.
        let p3 = PerfectLpParams::for_universe(64, 3.0);
        assert_eq!(p3.estimator, PowerEstimator::IntegerProduct);
        assert_eq!(p3.groups(), 1);
        // An integer reached from below (still within rounding tolerance)
        // is an integer: it must both classify as IntegerProduct *and*
        // construct a working sampler.
        let nudged = PerfectLpParams::for_universe(64, 3.0 - 1e-10);
        assert_eq!(nudged.estimator, PowerEstimator::IntegerProduct);
        assert_eq!(nudged.groups(), 1);
        let _ = PerfectLpSampler::new(64, nudged, 1);
    }

    #[test]
    fn p_just_above_two_sampler_works_end_to_end() {
        // The boundary configuration must build and sample; its law is
        // within noise of L2 (p − 2 ≈ 0), so just check it answers sanely.
        let x = FrequencyVector::from_values(vec![4, -8, 12, 0, 6]);
        let params = PerfectLpParams::for_universe(5, 2.0 + 1e-10);
        let mut accepted = 0;
        for t in 0..40u64 {
            let mut s = PerfectLpSampler::new(5, params, 9_000 + t);
            s.ingest_vector(&x);
            if let Some(sample) = s.sample() {
                accepted += 1;
                assert_ne!(sample.index, 3, "zero coordinate sampled");
            }
        }
        assert!(accepted > 10, "accepted {accepted}/40");
    }

    #[test]
    fn shard_merge_matches_whole_stream() {
        let x = zipf_vector(16, 1.0, 40, 31);
        let y = zipf_vector(16, 1.0, 40, 32);
        let params = PerfectLpParams::for_universe(16, 3.0);
        let mut whole = PerfectLpSampler::new(16, params, 55);
        whole.ingest_vector(&x.add(&y));
        let mut a = PerfectLpSampler::new(16, params, 55);
        a.ingest_vector(&x);
        let b = {
            let mut b = PerfectLpSampler::new(16, params, 55);
            b.ingest_vector(&y);
            b
        };
        a.merge(&b);
        match (whole.sample(), a.sample()) {
            (None, None) => {}
            (Some(sa), Some(sb)) => assert_eq!(sa.index, sb.index),
            (sa, sb) => panic!("merge diverged: {sa:?} vs {sb:?}"),
        }
    }

    /// Lazy vs eager at seed `4_000 + seed`: the same outcome, index and
    /// estimate bits, and the same `RejectionStats`. Returns the eager
    /// sampler after its draw.
    fn lazy_matches_eager_at(
        x: &FrequencyVector,
        params: PerfectLpParams,
        seed: u64,
    ) -> PerfectLpSampler {
        let n = x.n();
        let mut eager = PerfectLpSampler::new(n, params, 4_000 + seed);
        eager.ingest_vector(x);
        let want = eager.sample();
        let (got, stats) = draw_with_stats(n, params, 4_000 + seed, x.iter_nonzero());
        let bits = |s: Option<Sample>| s.map(|s| (s.index, s.estimate.to_bits()));
        assert_eq!(bits(got), bits(want), "p = {} seed {seed}", params.p);
        assert_eq!(stats, eager.stats(), "p = {} seed {seed}", params.p);
        eager
    }

    /// [`lazy_matches_eager_at`] over `seeds`. Returns how many seeds drew a
    /// sample.
    fn lazy_matches_eager(x: &FrequencyVector, params: PerfectLpParams, seeds: u64) -> usize {
        (0..seeds)
            .filter(|&seed| {
                lazy_matches_eager_at(x, params, seed)
                    .stats()
                    .accepted_at
                    .is_some()
            })
            .count()
    }

    #[test]
    fn lazy_draws_equal_eager_draws() {
        for (n, p) in [(32, 3.0), (24, 4.0), (24, 2.5)] {
            let x = zipf_vector(n, 1.1, 60, 17);
            let params = PerfectLpParams::for_universe(n, p);
            let drawn = lazy_matches_eager(&x, params, 64);
            assert!(drawn >= 32, "p = {p}: only {drawn}/64 seeds drew");
        }
    }

    #[test]
    fn lazy_draws_equal_eager_on_zero_vector_and_all_fail() {
        let params = PerfectLpParams::for_universe(24, 3.0);
        let zero = FrequencyVector::from_values(vec![0; 24]);
        assert_eq!(lazy_matches_eager(&zero, params, 64), 0);
        // A gap test no candidate can clear: every attempt is ⊥.
        let mut never = params;
        never.l2.test_factor = 1e12;
        let x = zipf_vector(24, 1.1, 60, 17);
        assert_eq!(lazy_matches_eager(&x, never, 64), 0);
        let mut eager = PerfectLpSampler::new(24, never, 1);
        eager.ingest_vector(&x);
        assert!(eager.sample().is_none());
        assert_eq!(
            eager.stats().candidates,
            0,
            "an attempt produced a candidate"
        );
    }

    /// Replays the eager sampler `eager` (built from `seed` over `x`)
    /// attempt by attempt: asserts that each candidate's power estimate,
    /// from the materialized replicas, is under its ceiling, and counts the
    /// candidates whose coin cleared the ceiling, which the lazy driver
    /// rejects without a replica query.
    fn cleared_ceilings(x: &FrequencyVector, eager: &PerfectLpSampler, seed: u64) -> u64 {
        let (n, params) = (x.n(), eager.params);
        let entries: Vec<(u64, i64)> = x.iter_nonzero().collect();
        let Some(base) = correction_base(&params, n, &eager.f2_est, &eager.fp_est) else {
            return 0;
        };
        let last = eager.stats().accepted_at.unwrap_or(params.attempts - 1);
        let lean = params.l2.with_extra_estimators(0);
        let reps = params.reps_per_group;
        let (mut cells, mut estimates) = (Vec::new(), Vec::new());
        let mut cleared = 0;
        for (t, inner) in eager.attempts[..=last].iter().enumerate() {
            let mut replayed = PerfectLpLe2Sampler::new(n, lean, attempt_seed(seed, t));
            let Some((candidate, l1)) = replayed.replay_and_decide(&entries, &mut cells) else {
                continue;
            };
            let j = candidate.index;
            let ceiling = power_ceiling(&params, l1, entries.len(), replayed.scale(j));
            inner.replica_estimates(j, &mut estimates);
            let group_mean = |g: usize| inner.mean_of(j, &estimates[g * reps..(g + 1) * reps]);
            let power = power_estimate(&params, group_mean, candidate.estimate);
            assert!(
                power <= ceiling,
                "seed {seed} attempt {t}: {power} > {ceiling}"
            );
            cleared += u64::from(keyed_unit(eager.accept_seed, t as u64) >= base * ceiling);
        }
        cleared
    }

    #[test]
    fn ceiling_holds_where_it_is_tightest() {
        // Single-entry supports: ‖z‖₁ = |z_j| and every replica estimate is
        // z_j, so only the rounding margin separates the ceiling from r.
        // With 3 replicas per group the group sum and its divisor round, and
        // a ceiling without the margin falls below some estimates.
        // One row and one bucket: every entry shares j's cell, so each cell
        // sums all of them. Every index then ties, and a gap test every
        // candidate clears makes index 0 the candidate of every attempt;
        // x_0 dominates, so its ceiling is often below the coin.
        let n = 24;
        for p in [3.0, 4.0] {
            let mut params = PerfectLpParams::for_universe(n, p);
            params.reps_per_group = 3;
            params.l2.extra_estimators = 3 * params.groups();
            let mut one_cell = PerfectLpParams::for_universe(n, p);
            one_cell.l2.rows = 1;
            one_cell.l2.buckets = 1;
            one_cell.l2.test_factor = -1.0;
            let dominant = FrequencyVector::from_values(
                (0..n as i64)
                    .map(|i| if i == 0 { 400 } else { 1 + i % 3 })
                    .collect(),
            );
            let mut cleared = [0u64; 2];
            for seed in 0..256u64 {
                let mut single = vec![0i64; n];
                let v = 1 + (seed * 7_919 % 997) as i64;
                single[(seed % n as u64) as usize] = if seed % 2 == 0 { v } else { -v };
                let single = FrequencyVector::from_values(single);
                for (shape, (x, params)) in [(&single, params), (&dominant, one_cell)]
                    .into_iter()
                    .enumerate()
                {
                    let eager = lazy_matches_eager_at(x, params, seed);
                    cleared[shape] += cleared_ceilings(x, &eager, 4_000 + seed);
                }
            }
            assert!(
                cleared.iter().all(|&c| c > 0),
                "p = {p}: cleared {cleared:?}"
            );
        }
    }

    #[test]
    fn taylor_replica_queries_equal_materialized_replicas() {
        // p = 2.5 at n = 64: 8 Taylor groups × 4 replicas, all 32 read in
        // one pass per candidate, on a full and on a sparse support.
        let n = 64;
        let mut params = PerfectLpParams::for_universe(n, 2.5);
        params.attempts = 3;
        assert_eq!(params.groups(), 8);
        let replicas = params.l2.extra_estimators;
        let reps = params.reps_per_group;
        let full = zipf_vector(n, 1.1, 60, 23);
        let sparse = FrequencyVector::from_values(
            (0..n as u64)
                .map(|i| if i % 4 == 0 { full.value(i) } else { 0 })
                .collect(),
        );
        let (mut want, mut got) = (Vec::new(), Vec::new());
        for x in [&full, &sparse] {
            let entries: Vec<(u64, i64)> = x.iter_nonzero().collect();
            let mut eager = PerfectLpSampler::new(n, params, 31);
            eager.ingest_vector(x);
            for (t, inner) in eager.attempts.iter().enumerate() {
                let inner_seed = attempt_seed(31, t);
                let lean =
                    PerfectLpLe2Sampler::new(n, params.l2.with_extra_estimators(0), inner_seed);
                for j in [0u64, 4, 17, 63] {
                    inner.replica_estimates(j, &mut want);
                    lean.net_replica_estimates(inner_seed, replicas, &entries, j, &mut got);
                    let bits = |e: &[f64]| e.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&got), bits(&want), "attempt {t} index {j}");
                    for g in 0..params.groups() {
                        let mean = lean.mean_of(j, &got[g * reps..(g + 1) * reps]);
                        let materialized = inner.mean_estimate(g * reps, (g + 1) * reps, j);
                        assert_eq!(mean.to_bits(), materialized.to_bits(), "group {g}");
                    }
                }
            }
        }
    }

    #[test]
    fn projected_space_matches_actual() {
        let params = PerfectLpParams::for_universe(32, 3.0);
        let actual = PerfectLpSampler::new(32, params, 9).space_bits();
        let projected = PerfectLpSampler::projected_space_bits(32, params);
        assert_eq!(actual, projected);
    }

    #[test]
    fn projected_space_needs_no_allocation_at_huge_universes() {
        // At n = 2^48 the F_p estimator alone exceeds MAX_CELLS for p ≥ 3,
        // and p = 2.5's replicas would take about 130 MB per inner sampler.
        let n = 1usize << 48;
        for p in [2.5, 3.0, 4.0] {
            let params = PerfectLpParams::for_universe(n, p);
            let bits = PerfectLpSampler::projected_space_bits(n, params);
            assert!(bits > params.attempts * params.l2.space_bits(), "p = {p}");
        }
    }

    #[test]
    fn space_grows_sublinearly_in_universe() {
        // The dominant term is attempts × CS tables; attempts scale as
        // n^{1−2/p} ln n, far below n for p = 3.
        let small = PerfectLpSampler::new(64, PerfectLpParams::for_universe(64, 3.0), 1);
        let big = PerfectLpSampler::new(512, PerfectLpParams::for_universe(512, 3.0), 1);
        let ratio = big.space_bits() as f64 / small.space_bits() as f64;
        // Universe grew 8×; n^{1/3} · ln n · log² n growth stays well below
        // the linear 8× (measured ≈ 8.6 owing to the bucket-rounding steps
        // at small n; the clean exponent fit is experiment E2's job).
        assert!(ratio < 8.0 * 8.0f64.powf(1.0 / 3.0), "space ratio {ratio}");
    }
}
