//! One shard: the sparse net vector of its slice of the universe, plus
//! the pool seed stream that draws from it.
//!
//! The shard keeps the *net frequency vector of its own slice of the
//! universe* as a sparse map. This single structure serves three roles:
//!
//! 1. **Replay buffer** for respawn — every draw catches a freshly seeded
//!    sampler up from the net vector, which by linearity is exactly the
//!    state it would have reached streaming from the start.
//! 2. **Mass oracle** for the merge layer — the exact `Σ_i G(x_i)` over the
//!    shard's slice, summed from the entries whenever it is read, is the
//!    weight the engine uses to pick a shard before sampling within it.
//! 3. **Snapshot payload** — the entries are what `snapshot()` ships to a
//!    coordinator.
//!
//! ## Ownership model
//!
//! A shard **owns everything it needs to evolve**: its factory copy, its
//! universe bound, its pool's seed stream, and its net vector. Nothing
//! outside the shard may mutate the net vector — every mutation goes
//! through [`Shard::apply_run`]. [`Shard::draw`] only advances the pool's
//! seed stream and never touches the net vector. A shard has no codec of
//! its own: the engine's checkpoint writes every shard's entries as one
//! [`crate::EngineSnapshot`] and each pool's place in its seed stream,
//! and derives the rest from the engine's config and factory.
//!
//! No sampler instance lives in a shard: every draw respawns from the net
//! vector, so the net vector is the shard's whole state. The mass is a
//! pure function of it (a sum of non-negative weights in index order, with
//! no subtraction a cancellation could destroy), the same after any
//! update order, merge or restore.
//!
//! Space accounting: the sparse net state is `O(nnz)` for the shard's
//! slice — the price of always-queryable respawn and a mass that no
//! cancellation can corrupt.

use crate::factory::SamplerFactory;
use crate::pool::SamplerPool;
use pts_samplers::Sample;
use pts_stream::Update;
use pts_util::wire::WireError;
use std::collections::BTreeMap;

/// A shard: factory + pool seed stream + sparse net vector.
#[derive(Debug, Clone)]
pub struct Shard<F: SamplerFactory> {
    factory: F,
    universe: usize,
    pool: SamplerPool<F::Sampler>,
    /// Sparse net values of this shard's slice (zero entries removed).
    net: BTreeMap<u64, i64>,
    /// The largest `|value|` ever stored in `net` (deletions do not lower
    /// it): an upper bound that lets the engine clear an ordinary batch of
    /// overflow without reading the net vector.
    value_bound: u64,
}

impl<F: SamplerFactory> Shard<F> {
    /// An empty shard owning its copy of the factory, with `pool_size`
    /// empty slots: every draw respawns a sampler from the net vector.
    pub fn new(factory: F, universe: usize, pool_size: usize, seed: u64) -> Self {
        Self {
            factory,
            universe,
            pool: SamplerPool::new(pool_size, seed),
            net: BTreeMap::new(),
            value_bound: 0,
        }
    }

    /// Applies a coalesced run of updates to the net vector.
    ///
    /// # Panics
    /// Panics if a net value would leave the `i64` range or become
    /// `i64::MIN` ([`crate::ShardedEngine::check_values`] tests a batch
    /// for this before any shard changes).
    pub fn apply_run(&mut self, run: &[Update]) {
        for &u in run {
            debug_assert!(u.delta != 0, "router must drop zero deltas");
            let old = self.value(u.index);
            let new = old
                .checked_add(u.delta)
                .filter(|&v| v != i64::MIN)
                .expect("net value overflows i64");
            self.value_bound = self.value_bound.max(new.unsigned_abs());
            if new == 0 {
                self.net.remove(&u.index);
            } else {
                self.net.insert(u.index, new);
            }
        }
    }

    /// The `G`-mass of this shard's slice: `Σ_i G(x_i)` over the net
    /// vector, summed in index order from `+0.0` (an empty slice weighs
    /// `+0.0`, not the `-0.0` of `Sum`). Every term is non-negative, so no
    /// cancellation can lose a survivor's weight, and the value depends on
    /// the net vector alone.
    pub fn mass(&self) -> f64 {
        self.net
            .values()
            .fold(0.0, |mass, &v| mass + self.factory.weight(v))
    }

    /// The net value of `index` (zero off the support).
    pub(crate) fn value(&self, index: u64) -> i64 {
        self.net.get(&index).copied().unwrap_or(0)
    }

    /// An upper bound on every `|value|` in the slice.
    pub(crate) fn value_bound(&self) -> u64 {
        self.value_bound
    }

    /// Number of non-zero coordinates in the slice.
    pub fn support(&self) -> usize {
        self.net.len()
    }

    /// The sparse net entries (sorted by index).
    pub fn entries(&self) -> impl Iterator<Item = (u64, i64)> + '_ {
        self.net.iter().map(|(&i, &v)| (i, v))
    }

    /// Draws one sample from this shard's slice (⊥ retried across the
    /// pool; every tried slot respawns from the net vector).
    pub fn draw(&mut self) -> Option<Sample> {
        self.pool.draw(&self.factory, self.universe, &self.net)
    }

    /// Lazy respawns performed by this shard's pool.
    pub fn respawns(&self) -> u64 {
        self.pool.respawns()
    }

    /// The pool's place in its seed stream (see
    /// [`SamplerPool::counters`]).
    pub(crate) fn pool_counters(&self) -> Result<(u64, usize), WireError> {
        self.pool.counters()
    }

    /// Moves a fresh shard's pool to a checkpointed place in its seed
    /// stream.
    pub(crate) fn set_pool_counters(&mut self, spawned: u64, cursor: usize) {
        self.pool.set_counters(spawned, cursor);
    }

    /// Compact-state bits: 128 per net entry (index + value).
    pub fn space_bits(&self) -> usize {
        self.net.len() * 128
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{L0Factory, LpLe2Factory};

    #[test]
    fn mass_tracks_updates_incrementally() {
        let f = LpLe2Factory::for_universe(64, 2.0);
        let mut shard = Shard::new(f, 64, 1, 3);
        shard.apply_run(&[Update::new(5, 3)]);
        assert!((shard.mass() - 9.0).abs() < 1e-9);
        shard.apply_run(&[Update::new(5, -1), Update::new(9, 2)]);
        assert!((shard.mass() - (4.0 + 4.0)).abs() < 1e-9);
        // Full cancellation: support and mass return to exactly zero.
        shard.apply_run(&[Update::new(5, -2), Update::new(9, -2)]);
        assert_eq!(shard.support(), 0);
        assert_eq!(shard.mass(), 0.0);
    }

    #[test]
    fn entries_are_net_values() {
        let f = L0Factory::default();
        let mut shard = Shard::new(f, 32, 1, 4);
        shard.apply_run(&[Update::new(8, 10)]);
        shard.apply_run(&[Update::new(8, -3), Update::new(2, 1)]);
        let got: Vec<(u64, i64)> = shard.entries().collect();
        assert_eq!(got, vec![(2, 1), (8, 7)]);
    }

    #[test]
    fn draw_returns_exact_values_for_l0() {
        let f = L0Factory::default();
        let mut shard = Shard::new(f, 32, 2, 5);
        shard.apply_run(&[Update::new(3, -4), Update::new(21, 6)]);
        for _ in 0..10 {
            let s = shard.draw().expect("sparse slice must sample");
            let want = if s.index == 3 { -4.0 } else { 6.0 };
            assert_eq!(s.estimate, want);
        }
    }
}
