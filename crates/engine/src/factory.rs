//! Sampler factories: how the engine spawns fresh sampler instances and
//! evaluates the sampling law `G` they target.
//!
//! The engine is generic over a [`SamplerFactory`]: a recipe producing
//! independent, identically-configured samplers from fresh seeds, plus the
//! measurement function `G` defining the law `G(x_i)/Σ_j G(x_j)` the
//! sampler draws from. The factory's `G` drives the merge layer's
//! shard-selection step (sample a shard with probability proportional to
//! its exact `G`-mass, then sample within the shard), so it must match the
//! sampler's own law for the two-stage draw to compose into the global law.

use pts_core::{PerfectLpParams, PerfectLpSampler, RejectionGSampler};
use pts_samplers::{L0Params, LpLe2Batch, LpLe2Params, PerfectL0Sampler, Sample, TurnstileSampler};
use pts_util::wire::{Decode, Encode, WireError, WireReader, WireWriter};
use std::collections::BTreeMap;

/// A recipe for spawning independent sampler instances over `[0, n)`.
///
/// `Clone` is a supertrait because every shard owns its own copy of the
/// factory (a shard owns everything it needs to evolve); factories are
/// parameter bundles, so cloning is cheap.
pub trait SamplerFactory: Clone {
    /// The sampler type produced. `Clone + Debug` because pooled instances
    /// live inside clonable, debuggable engine state.
    type Sampler: TurnstileSampler + Clone + std::fmt::Debug;

    /// Builds a fresh instance with the given seed. Instances built from
    /// different seeds must be independent; instances built from the same
    /// seed must be identical (the merge contract).
    fn build(&self, universe: usize, seed: u64) -> Self::Sampler;

    /// The draw of a fresh instance built from `seed` and caught up from
    /// the sparse net vector `net`. The default is exactly `build`, replay
    /// every entry, `sample()`. The L_p samplers override it to build and
    /// replay only the attempts their loop reaches, and to decode over the
    /// support of `net` instead of the universe. An override must return
    /// the default's draw, bit for bit, when the support is the whole
    /// universe, and must never return an index outside the support.
    fn draw_from(&self, universe: usize, seed: u64, net: &BTreeMap<u64, i64>) -> Option<Sample> {
        let mut s = self.build(universe, seed);
        s.ingest_entries(entries(net));
        s.sample()
    }

    /// The measurement function `G` evaluated at an exact coordinate value —
    /// the unnormalized weight of a coordinate under the target law.
    fn weight(&self, value: i64) -> f64;
}

/// The net vector as the `(index, value)` pairs a sampler replays to catch
/// up (exact, by linearity).
pub(crate) fn entries(net: &BTreeMap<u64, i64>) -> impl Iterator<Item = (u64, i64)> + Clone + '_ {
    net.iter().map(|(&i, &v)| (i, v))
}

/// Perfect L₀ sampling: uniform over the support, exact values (JST11).
#[derive(Debug, Clone, Copy, Default)]
pub struct L0Factory {
    /// Substrate parameters.
    pub params: L0Params,
}

impl SamplerFactory for L0Factory {
    type Sampler = PerfectL0Sampler;

    fn build(&self, universe: usize, seed: u64) -> PerfectL0Sampler {
        PerfectL0Sampler::new(universe, self.params, seed)
    }

    fn weight(&self, value: i64) -> f64 {
        if value != 0 {
            1.0
        } else {
            0.0
        }
    }
}

/// Perfect L_p sampling for `p ∈ (0, 2]` (JW18), success-boosted with `k`
/// inner instances per engine instance.
#[derive(Debug, Clone, Copy)]
pub struct LpLe2Factory {
    /// Sampler parameters (carries `p`).
    pub params: LpLe2Params,
    /// Inner success-boosting batch width.
    pub batch: usize,
}

impl LpLe2Factory {
    /// Paper-shaped defaults for universe `n` and moment `p ∈ (0, 2]`.
    pub fn for_universe(n: usize, p: f64) -> Self {
        Self {
            params: LpLe2Params::for_universe(n, p),
            batch: 8,
        }
    }
}

impl SamplerFactory for LpLe2Factory {
    type Sampler = LpLe2Batch;

    fn build(&self, universe: usize, seed: u64) -> LpLe2Batch {
        LpLe2Batch::new(universe, self.params, self.batch, seed)
    }

    fn draw_from(&self, universe: usize, seed: u64, net: &BTreeMap<u64, i64>) -> Option<Sample> {
        LpLe2Batch::draw_from(universe, self.params, self.batch, seed, entries(net))
    }

    fn weight(&self, value: i64) -> f64 {
        (value.abs() as f64).powf(self.params.p)
    }
}

/// The paper's headline perfect L_p sampler for `p > 2` (Algorithms 1–2).
#[derive(Debug, Clone, Copy)]
pub struct PerfectLpFactory {
    /// Sampler parameters (carries `p > 2`).
    pub params: PerfectLpParams,
}

impl PerfectLpFactory {
    /// Paper-shaped defaults for universe `n` and moment `p > 2`.
    pub fn for_universe(n: usize, p: f64) -> Self {
        Self {
            params: PerfectLpParams::for_universe(n, p),
        }
    }
}

impl SamplerFactory for PerfectLpFactory {
    type Sampler = PerfectLpSampler;

    fn build(&self, universe: usize, seed: u64) -> PerfectLpSampler {
        PerfectLpSampler::new(universe, self.params, seed)
    }

    fn draw_from(&self, universe: usize, seed: u64, net: &BTreeMap<u64, i64>) -> Option<Sample> {
        PerfectLpSampler::draw_from(universe, self.params, seed, entries(net))
    }

    fn weight(&self, value: i64) -> f64 {
        (value.abs() as f64).powf(self.params.p)
    }
}

/// The logarithmic G-sampler `G(z) = log(1 + |z|)` (Algorithm 6) — the
/// concave law network monitoring wants (dampens elephant flows without
/// ignoring mice).
#[derive(Debug, Clone, Copy)]
pub struct LogGFactory {
    /// Bound on any coordinate's magnitude (the paper's stream length `m`).
    pub stream_bound_m: u64,
}

impl SamplerFactory for LogGFactory {
    type Sampler = RejectionGSampler;

    fn build(&self, universe: usize, seed: u64) -> RejectionGSampler {
        RejectionGSampler::log_sampler(universe, self.stream_bound_m, seed)
    }

    fn weight(&self, value: i64) -> f64 {
        if value == 0 {
            0.0
        } else {
            (1.0 + (value.abs() as f64)).ln()
        }
    }
}

// Factory wire encodings open with a one-byte kind tag, so restoring a
// checkpoint into an engine parameterized by the *wrong* factory type fails
// with a clean `WireError` instead of misreading parameter bytes.

/// Wire tag of [`L0Factory`].
const TAG_L0: u8 = 1;
/// Wire tag of [`LpLe2Factory`].
const TAG_LPLE2: u8 = 2;
/// Wire tag of [`PerfectLpFactory`].
const TAG_PERFECT_LP: u8 = 3;
/// Wire tag of [`LogGFactory`].
const TAG_LOG_G: u8 = 4;

fn expect_tag(r: &mut WireReader<'_>, want: u8) -> Result<(), WireError> {
    if r.get_u8()? == want {
        Ok(())
    } else {
        Err(WireError::Invalid("factory kind mismatch"))
    }
}

impl Encode for L0Factory {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u8(TAG_L0);
        self.params.encode(w)
    }
}

impl Decode for L0Factory {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        expect_tag(r, TAG_L0)?;
        Ok(Self {
            params: L0Params::decode(r)?,
        })
    }
}

impl Encode for LpLe2Factory {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u8(TAG_LPLE2);
        self.params.encode(w)?;
        w.put_usize(self.batch);
        Ok(())
    }
}

impl Decode for LpLe2Factory {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        expect_tag(r, TAG_LPLE2)?;
        let params = LpLe2Params::decode(r)?;
        let batch = r.get_usize()?;
        if !(1..=1 << 16).contains(&batch) {
            return Err(WireError::Invalid("batch width"));
        }
        Ok(Self { params, batch })
    }
}

impl Encode for PerfectLpFactory {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u8(TAG_PERFECT_LP);
        self.params.encode(w)
    }
}

impl Decode for PerfectLpFactory {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        expect_tag(r, TAG_PERFECT_LP)?;
        Ok(Self {
            params: PerfectLpParams::decode(r)?,
        })
    }
}

impl Encode for LogGFactory {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u8(TAG_LOG_G);
        w.put_u64(self.stream_bound_m);
        Ok(())
    }
}

impl Decode for LogGFactory {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        expect_tag(r, TAG_LOG_G)?;
        let stream_bound_m = r.get_u64()?;
        if stream_bound_m == 0 {
            return Err(WireError::Invalid("stream bound"));
        }
        Ok(Self { stream_bound_m })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weights_match_laws() {
        let l0 = L0Factory::default();
        assert_eq!(l0.weight(0), 0.0);
        assert_eq!(l0.weight(-7), 1.0);

        let l2 = LpLe2Factory::for_universe(64, 2.0);
        assert_eq!(l2.weight(-3), 9.0);

        let l3 = PerfectLpFactory::for_universe(64, 3.0);
        assert_eq!(l3.weight(2), 8.0);

        let log = LogGFactory {
            stream_bound_m: 100,
        };
        assert_eq!(log.weight(0), 0.0);
        assert!((log.weight(9) - 10f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn factories_build_working_samplers() {
        use pts_stream::Update;
        let f = L0Factory::default();
        let mut s = f.build(16, 1);
        s.process(Update::new(3, 5));
        let got = s.sample().expect("one non-zero must sample");
        assert_eq!(got.index, 3);
        assert_eq!(got.estimate, 5.0);
    }
}
