//! Engine configuration.

use pts_util::wire::{Decode, Encode, WireError, WireReader, WireWriter};

/// Configuration for a [`crate::ShardedEngine`].
///
/// The defaults are sized for "always queryable at modest cost": a handful
/// of shards and a small per-shard sampler pool. Production deployments tune
/// `shards` to the ingest parallelism they need and `pool_size` to the
/// query rate they must absorb between respawns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Universe size `n`: every update index must lie in `[0, n)`.
    pub universe: usize,
    /// Number of shards `S` the universe is hash-partitioned across.
    pub shards: usize,
    /// Pool slots per shard (`k`): a query tries up to `k` independently
    /// seeded samplers, each respawned from the shard's compact state, so
    /// ⊥ is retried `k` times.
    pub pool_size: usize,
    /// Master seed; all shard/instance seeds derive from it.
    pub seed: u64,
}

impl EngineConfig {
    /// A config over universe `[0, n)` with the default shape
    /// (4 shards × 3 samplers).
    pub fn new(universe: usize) -> Self {
        Self {
            universe,
            shards: 4,
            pool_size: 3,
            seed: 0,
        }
    }

    /// Sets the shard count.
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Sets the per-shard pool size.
    pub fn pool_size(mut self, pool_size: usize) -> Self {
        self.pool_size = pool_size;
        self
    }

    /// Sets the master seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Validates the configuration.
    ///
    /// # Panics
    /// Panics on a degenerate configuration.
    pub fn validate(&self) {
        assert!(self.universe >= 2, "universe too small");
        assert!(self.shards >= 1, "need at least one shard");
        assert!(self.pool_size >= 1, "need at least one sampler per shard");
    }
}

impl Encode for EngineConfig {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        w.put_usize(self.universe);
        w.put_usize(self.shards);
        w.put_usize(self.pool_size);
        w.put_u64(self.seed);
        Ok(())
    }
}

impl Decode for EngineConfig {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let universe = r.get_usize()?;
        let shards = r.get_usize()?;
        let pool_size = r.get_usize()?;
        let seed = r.get_u64()?;
        // `validate()` panics by design at construction time; the decode
        // path rejects the same degenerate shapes as errors (plus sanity
        // caps so corrupt counts cannot drive huge allocations).
        if universe < 2 || !(1..=1 << 16).contains(&shards) || !(1..=1 << 16).contains(&pool_size) {
            return Err(WireError::Invalid("engine configuration"));
        }
        Ok(Self {
            universe,
            shards,
            pool_size,
            seed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let c = EngineConfig::new(64).shards(8).pool_size(2).seed(9);
        assert_eq!(c.universe, 64);
        assert_eq!(c.shards, 8);
        assert_eq!(c.pool_size, 2);
        assert_eq!(c.seed, 9);
        c.validate();
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        EngineConfig::new(64).shards(0).validate();
    }
}
