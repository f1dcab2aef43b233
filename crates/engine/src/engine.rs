//! The sharded engine: continuously-ingesting, continuously-queryable
//! perfect sampling.
//!
//! The two-stage draw is what makes sharding *correct* rather than merely
//! fast. A query first picks a shard with probability proportional to the
//! shard's exact `G`-mass, then draws within the shard from its pool:
//!
//! ```text
//! Pr[i] = (mass_s / Σ_t mass_t) · G(x_i) / mass_s = G(x_i) / Σ_j G(x_j)
//! ```
//!
//! — the global law, for any shard count, whenever every shard pool
//! answers. The one caveat is ⊥: a shard's FAIL probability `δ_s` depends
//! on its slice (denser slices fail more), so *conditioned on success* the
//! law carries a per-shard factor `(1 − δ_s^k)`. No retry scheme removes
//! this (re-picking a shard renormalizes to the same weighting), which is
//! why `sample()` returns ⊥ honestly instead of silently re-picking; the
//! pool's within-shard retries drive the residual bias to `δ^k`, which is
//! what the `S ∈ {1, 2, 8}` chi-squared property tests bound in practice.

use crate::config::EngineConfig;
use crate::factory::SamplerFactory;
use crate::obs::obs;
use crate::router::ShardRouter;
use crate::shard::Shard;
use crate::snapshot::EngineSnapshot;
use pts_samplers::Sample;
use pts_stream::{Stream, Update};
use pts_util::wire::{
    read_frame, write_frame, Decode, Encode, WireError, WireReader, WireWriter, KIND_ENGINE,
};
use pts_util::{derive_seed, Xoshiro256pp};
use std::io::{Read, Write};

/// Mass-proportional pick over `masses`: the first stage of every
/// two-stage draw in this stack. The engine uses it to choose a shard,
/// and the `pts-cluster` coordinator uses the *same code* to choose a
/// node — the bit-identical contracts (restored engine or cluster vs
/// uninterrupted control) ride on this arithmetic being one
/// implementation, not copies kept in sync by hand: one RNG draw scaled
/// by `total`, then a left-to-right subtraction scan with the last entry
/// absorbing any floating-point residue.
///
/// `total` must be the caller's sum of `masses` (passed in, not
/// recomputed, so the caller's zero-total early-out and the pick agree on
/// the same value). `masses` must be non-empty.
pub fn pick_by_mass(rng: &mut Xoshiro256pp, masses: &[f64], total: f64) -> usize {
    let mut r = rng.next_f64() * total;
    let mut chosen = masses.len() - 1;
    for (s, &mass) in masses.iter().enumerate() {
        r -= mass;
        if r < 0.0 {
            chosen = s;
            break;
        }
    }
    chosen
}

/// Running counters exposed for benches and monitoring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Updates ingested (pre-coalescing).
    pub updates: u64,
    /// Batches ingested.
    pub batches: u64,
    /// Successful samples served.
    pub samples: u64,
    /// Queries that returned ⊥ after exhausting a shard's pool.
    pub fails: u64,
    /// Snapshots merged in (their entries do not count as ingested
    /// updates).
    pub merges: u64,
}

impl Encode for EngineStats {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_u64(self.updates);
        w.put_u64(self.batches);
        w.put_u64(self.samples);
        w.put_u64(self.fails);
        w.put_u64(self.merges);
        Ok(())
    }
}

impl Decode for EngineStats {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            updates: r.get_u64()?,
            batches: r.get_u64()?,
            samples: r.get_u64()?,
            fails: r.get_u64()?,
            merges: r.get_u64()?,
        })
    }
}

/// A sharded, mergeable, always-queryable sampling engine.
///
/// See the crate docs for the architecture; the short version:
/// [`ShardRouter`] hash-partitions updates across [`Shard`]s, each shard
/// holds a pool of independently seeded one-shot samplers plus the compact
/// exact state that respawns them, and queries compose a mass-weighted
/// shard pick with an in-shard draw.
#[derive(Debug, Clone)]
pub struct ShardedEngine<F: SamplerFactory> {
    config: EngineConfig,
    factory: F,
    router: ShardRouter,
    shards: Vec<Shard<F>>,
    /// Reusable per-shard scatter buffers for batched ingest.
    plan: Vec<Vec<Update>>,
    /// Drives shard selection at query time.
    rng: Xoshiro256pp,
    stats: EngineStats,
}

impl<F: SamplerFactory> ShardedEngine<F> {
    /// Builds an engine: `S` shards, each with a primed pool of `k`
    /// samplers over the full universe `[0, n)`.
    ///
    /// # Panics
    /// Panics on a degenerate configuration.
    pub fn new(config: EngineConfig, factory: F) -> Self {
        config.validate();
        let router = ShardRouter::new(config.shards, derive_seed(config.seed, 0x5A4D));
        let shards = (0..config.shards)
            .map(|s| {
                Shard::new(
                    factory.clone(),
                    config.universe,
                    config.pool_size,
                    derive_seed(config.seed, 0x10_000 + s as u64),
                )
            })
            .collect();
        let plan = (0..config.shards).map(|_| Vec::new()).collect();
        let rng = Xoshiro256pp::from_seed_stream(config.seed, 0xD4A3);
        Self {
            config,
            factory,
            router,
            shards,
            plan,
            rng,
            stats: EngineStats::default(),
        }
    }

    /// The configuration the engine was built with.
    pub fn config(&self) -> EngineConfig {
        self.config
    }

    /// The sampler factory.
    pub fn factory(&self) -> &F {
        &self.factory
    }

    /// Running counters.
    pub fn stats(&self) -> EngineStats {
        self.stats
    }

    /// Ingests a batch of turnstile updates: routed to shards, reordered
    /// and coalesced per shard, then applied to compact state and live
    /// pool instances. This is the engine's hot path.
    ///
    /// # Panics
    /// Panics if any update addresses a coordinate outside the universe.
    pub fn ingest_batch(&mut self, batch: &[Update]) {
        self.apply_batch(batch);
        self.stats.updates += batch.len() as u64;
        self.stats.batches += 1;
        let o = obs();
        o.ingest_updates.add(batch.len() as u64);
        o.ingest_batches.inc();
    }

    /// Routes and applies a batch without touching the ingest counters
    /// (shared by stream ingest and snapshot merging).
    fn apply_batch(&mut self, batch: &[Update]) {
        assert!(
            batch
                .iter()
                .all(|u| (u.index as usize) < self.config.universe),
            "update outside universe"
        );
        self.router.plan_batch(batch, &mut self.plan);
        for (shard, run) in self.shards.iter_mut().zip(&self.plan) {
            shard.apply_run(run);
        }
    }

    /// Ingests a single update (a one-element batch; prefer
    /// [`ShardedEngine::ingest_batch`] on the hot path).
    pub fn process(&mut self, u: Update) {
        self.ingest_batch(&[u]);
    }

    /// Ingests a whole stream in batches of `batch_len`.
    pub fn ingest_stream(&mut self, stream: &Stream, batch_len: usize) {
        for chunk in stream.batches(batch_len) {
            self.ingest_batch(chunk);
        }
    }

    /// The exact global `G`-mass `Σ_j G(x_j)` of everything ingested.
    pub fn mass(&self) -> f64 {
        self.shards.iter().map(Shard::mass).sum()
    }

    /// Per-shard masses (diagnostics; order matches shard ids).
    pub fn shard_masses(&self) -> Vec<f64> {
        self.shards.iter().map(Shard::mass).collect()
    }

    /// Number of non-zero coordinates across all shards.
    pub fn support(&self) -> usize {
        self.shards.iter().map(Shard::support).sum()
    }

    /// Draws one sample from the global law `G(x_i)/Σ_j G(x_j)` — at any
    /// point of the stream, as many times as desired.
    ///
    /// Two-stage: shard ∝ exact mass, then the shard's pool draws (⊥
    /// retried across the pool; consumed instances respawn lazily). Returns
    /// `None` on the zero vector or when the chosen shard's entire pool
    /// FAILs (bounded probability, part of the samplers' contract; see the
    /// module docs for the `δ_s^k` conditional-law caveat this implies).
    pub fn sample(&mut self) -> Option<Sample> {
        let sw = pts_obs::Stopwatch::start();
        let masses: Vec<f64> = self.shards.iter().map(Shard::mass).collect();
        let total: f64 = masses.iter().sum();
        if total <= 0.0 {
            return None;
        }
        let chosen = pick_by_mass(&mut self.rng, &masses, total);
        let out = self.shards[chosen].draw();
        let o = obs();
        o.draw_ns.observe_elapsed(sw);
        match out {
            Some(_) => self.stats.samples += 1,
            None => {
                self.stats.fails += 1;
                o.draw_fail.inc();
            }
        }
        out
    }

    /// Captures the engine's compact exact state for shipping to another
    /// engine (see [`EngineSnapshot`]).
    pub fn snapshot(&self) -> EngineSnapshot {
        let entries: Vec<(u64, i64)> = self.shards.iter().flat_map(|s| s.entries()).collect();
        EngineSnapshot::from_entries(self.config.universe, entries)
    }

    /// Merges another engine's snapshot into this one. By linearity this is
    /// exactly equivalent to having ingested the other engine's stream;
    /// shard counts need not match because entries re-route through this
    /// engine's own router. Merged entries are tracked in
    /// [`EngineStats::merges`], not in the ingest counters.
    ///
    /// # Panics
    /// Panics on universe mismatch.
    pub fn merge(&mut self, snapshot: &EngineSnapshot) {
        assert_eq!(
            self.config.universe,
            snapshot.universe(),
            "universe mismatch"
        );
        // Bounded batches keep the scatter buffers' peak size independent
        // of snapshot support.
        let updates = snapshot.to_updates();
        for chunk in updates.chunks(4096) {
            self.apply_batch(chunk);
        }
        self.stats.merges += 1;
        obs().merges.inc();
    }

    /// Serializes the engine's **complete** state — config, factory, query
    /// RNG, stats, and every shard's net vector, mass, and pool (live
    /// sampler instances included, bit-for-bit) — as one framed,
    /// checksummed wire payload.
    ///
    /// The restored engine ([`ShardedEngine::restore`]) is bit-identical
    /// going forward: the same subsequent call sequence produces the same
    /// draws, masses, and snapshots as the uninterrupted original.
    pub fn checkpoint<W: Write>(&self, sink: &mut W) -> std::io::Result<()>
    where
        F: Encode,
        F::Sampler: Encode,
    {
        let mut payload = WireWriter::new();
        self.config.encode(&mut payload)?;
        self.factory.encode(&mut payload)?;
        self.rng.encode(&mut payload)?;
        self.stats.encode(&mut payload)?;
        for shard in &self.shards {
            shard.encode(&mut payload)?;
        }
        let mut counted = pts_obs::CountingWriter::new(sink);
        write_frame(KIND_ENGINE, payload.as_bytes(), &mut counted)?;
        obs().checkpoint_bytes.add(counted.count());
        Ok(())
    }

    /// Rebuilds an engine from a [`ShardedEngine::checkpoint`] payload.
    /// Malformed input — truncation, corruption, a bumped format version,
    /// a different factory type — returns a [`WireError`] and never
    /// panics.
    pub fn restore<R: Read>(src: &mut R) -> Result<Self, WireError>
    where
        F: Decode,
        F::Sampler: Decode,
    {
        let mut counted = pts_obs::CountingReader::new(src);
        let payload = read_frame(KIND_ENGINE, &mut counted)?;
        let mut r = WireReader::new(&payload);
        let config = EngineConfig::decode(&mut r)?;
        let factory = F::decode(&mut r)?;
        let rng = Xoshiro256pp::decode(&mut r)?;
        let stats = EngineStats::decode(&mut r)?;
        let mut shards = Vec::with_capacity(config.shards);
        for _ in 0..config.shards {
            let shard: Shard<F> = Shard::decode(&mut r)?;
            if shard.universe() != config.universe {
                return Err(WireError::Invalid("shard universe mismatch"));
            }
            if shard.pool_len() != config.pool_size {
                return Err(WireError::Invalid("shard pool-size mismatch"));
            }
            shards.push(shard);
        }
        r.finish()?;
        obs().restore_bytes.add(counted.count());
        let router = ShardRouter::new(config.shards, derive_seed(config.seed, 0x5A4D));
        let plan = (0..config.shards).map(|_| Vec::new()).collect();
        Ok(Self {
            config,
            factory,
            router,
            shards,
            plan,
            rng,
            stats,
        })
    }

    /// Eagerly respawns every consumed pool slot in every shard as a full
    /// instance, so a query burst finds live instances. Returns the number
    /// of slots refilled. It pays off only for factories on the default
    /// [`SamplerFactory::draw_from`]; see [`Shard::prime`].
    pub fn prime(&mut self) -> usize {
        self.shards.iter_mut().map(Shard::prime).sum()
    }

    /// Total lazy respawns across all shard pools.
    pub fn respawns(&self) -> u64 {
        self.shards.iter().map(Shard::respawns).sum()
    }

    /// Engine state size in bits: live sampler sketches plus compact state.
    pub fn space_bits(&self) -> usize {
        self.shards.iter().map(Shard::space_bits).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{L0Factory, LpLe2Factory};
    use pts_stream::FrequencyVector;

    fn config(n: usize, shards: usize) -> EngineConfig {
        EngineConfig::new(n).shards(shards).pool_size(2).seed(11)
    }

    #[test]
    fn ingest_and_mass_match_ground_truth() {
        let f = LpLe2Factory::for_universe(64, 2.0);
        let mut e = ShardedEngine::new(config(64, 4), f);
        let x = pts_stream::gen::zipf_vector(64, 1.0, 50, 21);
        let updates: Vec<Update> = x.iter_nonzero().map(|(i, v)| Update::new(i, v)).collect();
        e.ingest_batch(&updates);
        assert!((e.mass() - x.f2()).abs() < 1e-6 * x.f2());
        assert_eq!(e.support(), x.f0());
        assert_eq!(e.stats().updates, updates.len() as u64);
    }

    #[test]
    fn sample_mid_stream_and_repeatedly() {
        let f = L0Factory::default();
        let mut e = ShardedEngine::new(config(32, 2), f);
        e.ingest_batch(&[Update::new(3, 5), Update::new(17, -2)]);
        // Query mid-stream...
        let s1 = e.sample().expect("non-zero state must sample");
        assert!(s1.index == 3 || s1.index == 17);
        // ...keep streaming, query again (many times — pool respawns).
        e.ingest_batch(&[Update::new(3, -5)]);
        for _ in 0..8 {
            let s = e.sample().expect("index 17 survives");
            assert_eq!(s.index, 17);
            assert_eq!(s.estimate, -2.0);
        }
        assert!(e.respawns() > 0, "repeated draws must trigger respawns");
    }

    #[test]
    fn zero_vector_returns_none() {
        let f = L0Factory::default();
        let mut e = ShardedEngine::new(config(16, 2), f);
        assert!(e.sample().is_none());
        e.ingest_batch(&[Update::new(4, 9), Update::new(4, -9)]);
        assert!(e.sample().is_none());
        assert_eq!(e.mass(), 0.0);
    }

    #[test]
    fn snapshot_merge_equals_direct_ingest() {
        let f = L0Factory::default();
        let x = pts_stream::gen::zipf_vector(64, 1.1, 40, 31);
        let y = pts_stream::gen::zipf_vector(64, 1.1, 40, 32);

        // Engine A sees x, engine B sees y (different shard count!).
        let mut a = ShardedEngine::new(config(64, 4), f);
        let xu: Vec<Update> = x.iter_nonzero().map(|(i, v)| Update::new(i, v)).collect();
        a.ingest_batch(&xu);
        let mut b = ShardedEngine::new(config(64, 2).seed(99), f);
        let yu: Vec<Update> = y.iter_nonzero().map(|(i, v)| Update::new(i, v)).collect();
        b.ingest_batch(&yu);

        // A absorbs B; its state must equal x + y exactly, and merged
        // entries must not masquerade as ingested updates.
        let ingested_before = a.stats().updates;
        a.merge(&b.snapshot());
        assert_eq!(a.snapshot().to_vector(), x.add(&y));
        assert_eq!(a.stats().updates, ingested_before);
        assert_eq!(a.stats().merges, 1);
    }

    #[test]
    fn snapshot_roundtrips_through_fresh_engine() {
        let f = L0Factory::default();
        let mut e = ShardedEngine::new(config(32, 8), f);
        e.ingest_batch(&[Update::new(1, 7), Update::new(30, -4), Update::new(9, 2)]);
        let snap = e.snapshot();
        let mut fresh = ShardedEngine::new(config(32, 1), f);
        fresh.merge(&snap);
        assert_eq!(fresh.snapshot(), snap);
        let want = FrequencyVector::from_values({
            let mut v = vec![0i64; 32];
            v[1] = 7;
            v[30] = -4;
            v[9] = 2;
            v
        });
        assert_eq!(fresh.snapshot().to_vector(), want);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn out_of_universe_updates_rejected() {
        let f = L0Factory::default();
        let mut e = ShardedEngine::new(config(16, 2), f);
        e.ingest_batch(&[Update::new(16, 1)]);
    }
}
