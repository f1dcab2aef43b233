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
//! seed stream and never touches the net vector.
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
use pts_util::wire::{Decode, Encode, WireError, WireReader, WireWriter};
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

    /// The universe bound this shard was built over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of pool slots.
    pub fn pool_len(&self) -> usize {
        self.pool.len()
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

    /// Compact-state bits: 128 per net entry (index + value).
    pub fn space_bits(&self) -> usize {
        self.net.len() * 128
    }
}

impl<F: SamplerFactory + Encode> Encode for Shard<F> {
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        self.factory.encode(w)?;
        w.put_usize(self.universe);
        w.put_f64(self.mass());
        w.put_usize(self.net.len());
        let mut prev = 0u64;
        for (k, (&i, &v)) in self.net.iter().enumerate() {
            w.put_u64(if k == 0 { i } else { i - prev - 1 });
            w.put_i64(v);
            prev = i;
        }
        self.pool.encode(w)
    }
}

impl<F: SamplerFactory + Decode> Decode for Shard<F> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let factory = F::decode(r)?;
        let universe = r.get_usize()?;
        if universe < 2 {
            return Err(WireError::Invalid("shard universe"));
        }
        // The stored mass is read only to keep the layout: `mass()`
        // recomputes it from the entries.
        r.get_f64()?;
        let support = r.get_len(2)?;
        let mut net = BTreeMap::new();
        let mut prev = 0u64;
        for k in 0..support {
            let gap = r.get_u64()?;
            let i = if k == 0 {
                gap
            } else {
                prev.checked_add(gap)
                    .and_then(|v| v.checked_add(1))
                    .ok_or(WireError::Invalid("net-vector gap overflow"))?
            };
            let v = r.get_i64()?;
            if v == 0 {
                return Err(WireError::Invalid("zero entry in net vector"));
            }
            // `i64::MIN` has no `abs`: every factory's weight would be NaN.
            if v == i64::MIN {
                return Err(WireError::Invalid("net value i64::MIN"));
            }
            // Out-of-universe entries would panic later in dense
            // materialization (`snapshot().to_vector()`); the never-panic
            // decode contract requires rejecting them here.
            if (i as u128) >= universe as u128 {
                return Err(WireError::Invalid("net entry outside universe"));
            }
            net.insert(i, v);
            prev = i;
        }
        let pool = SamplerPool::decode(r)?;
        let value_bound = net.values().map(|v| v.unsigned_abs()).max().unwrap_or(0);
        Ok(Self {
            factory,
            universe,
            pool,
            net,
            value_bound,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{L0Factory, LpLe2Factory};

    #[test]
    fn decode_rejects_a_net_value_of_i64_min() {
        let bytes = |v: i64| {
            let mut w = WireWriter::new();
            L0Factory::default().encode(&mut w).unwrap();
            w.put_usize(32);
            w.put_f64(1.0);
            w.put_usize(1);
            w.put_u64(3);
            w.put_i64(v);
            let pool = SamplerPool::<<L0Factory as SamplerFactory>::Sampler>::new(1, 7);
            pool.encode(&mut w).unwrap();
            w.into_bytes()
        };
        assert!(Shard::<L0Factory>::from_wire_bytes(&bytes(-i64::MAX)).is_ok());
        let min = Shard::<L0Factory>::from_wire_bytes(&bytes(i64::MIN));
        assert!(matches!(min, Err(WireError::Invalid(_))));
    }

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
