//! One shard: a sampler pool plus the compact exact state that makes the
//! pool respawnable and the shard's `G`-mass known.
//!
//! The shard keeps the *net frequency vector of its own slice of the
//! universe* as a sparse map. This single structure serves three roles:
//!
//! 1. **Replay buffer** for lazy respawn — a fresh sampler instance catches
//!    up by ingesting the net vector, which by linearity is exactly the
//!    state it would have reached streaming from the start.
//! 2. **Mass oracle** for the merge layer — the exact `Σ_i G(x_i)` over the
//!    shard's slice, maintained incrementally per update, is the weight the
//!    engine uses to pick a shard before sampling within it.
//! 3. **Snapshot payload** — the entries are what `snapshot()` ships to a
//!    coordinator.
//!
//! ## Ownership model
//!
//! A shard **owns everything it needs to evolve**: its factory copy, its
//! universe bound, its pool, and its net state. Nothing outside the shard
//! may mutate the net vector or the live instances — every mutation goes
//! through [`Shard::apply_run`] (which advances compact state, mass, and
//! live instances *in lockstep*) or [`Shard::draw`]/[`Shard::prime`] (which
//! only consume/respawn pool instances and never touch the net state), so
//! the lockstep invariant cannot be violated from outside.
//!
//! Space accounting: the sparse net state is `O(nnz)` for the shard's
//! slice — this is the price of always-queryable respawn, paid once per
//! shard regardless of pool size, and it is the engine's only non-sketch
//! state.

use crate::factory::SamplerFactory;
use crate::pool::SamplerPool;
use pts_samplers::Sample;
use pts_stream::Update;
use pts_util::wire::{Decode, Encode, WireError, WireReader, WireWriter};
use std::collections::BTreeMap;

/// A shard: factory + pool + compact state + incremental mass.
#[derive(Debug, Clone)]
pub struct Shard<F: SamplerFactory> {
    factory: F,
    universe: usize,
    pool: SamplerPool<F::Sampler>,
    /// Sparse net values of this shard's slice (zero entries removed).
    net: BTreeMap<u64, i64>,
    /// Incrementally maintained `Σ_i G(x_i)` over the slice.
    mass: f64,
}

impl<F: SamplerFactory> Shard<F> {
    /// A shard with a primed pool of `pool_size` instances, owning its copy
    /// of the factory.
    pub fn new(factory: F, universe: usize, pool_size: usize, seed: u64) -> Self {
        let mut pool = SamplerPool::new(pool_size, seed);
        let net = BTreeMap::new();
        pool.prime(&factory, universe, &net);
        Self {
            factory,
            universe,
            pool,
            net,
            mass: 0.0,
        }
    }

    /// Applies a coalesced run of updates: compact state, mass, and every
    /// live pool instance advance together.
    pub fn apply_run(&mut self, run: &[Update]) {
        for &u in run {
            debug_assert!(u.delta != 0, "router must drop zero deltas");
            let old = self.net.get(&u.index).copied().unwrap_or(0);
            let new = old + u.delta;
            self.mass += self.factory.weight(new) - self.factory.weight(old);
            if new == 0 {
                self.net.remove(&u.index);
            } else {
                self.net.insert(u.index, new);
            }
            self.pool.process_live(u);
        }
    }

    /// The exact `G`-mass of this shard's slice. Incremental float updates
    /// can leave ~ulp-scale residue once the true mass returns to zero, so
    /// an empty slice reports exactly zero.
    pub fn mass(&self) -> f64 {
        if self.net.is_empty() {
            0.0
        } else {
            self.mass.max(0.0)
        }
    }

    /// Number of non-zero coordinates in the slice.
    pub fn support(&self) -> usize {
        self.net.len()
    }

    /// The universe bound this shard was built over.
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of pool slots (live or consumed).
    pub fn pool_len(&self) -> usize {
        self.pool.len()
    }

    /// The sparse net entries (sorted by index).
    pub fn entries(&self) -> impl Iterator<Item = (u64, i64)> + '_ {
        self.net.iter().map(|(&i, &v)| (i, v))
    }

    /// Draws one sample from this shard's slice (⊥ retried across the
    /// pool; consumed instances respawn lazily from the compact state).
    pub fn draw(&mut self) -> Option<Sample> {
        self.pool.draw(&self.factory, self.universe, &self.net)
    }

    /// Eagerly respawns every consumed pool slot by replaying the net
    /// vector (the same catch-up a lazy respawn would do at the next draw,
    /// done now so draws find live instances). Returns the number of slots
    /// refilled.
    pub fn prime(&mut self) -> usize {
        self.pool.refill(&self.factory, self.universe, &self.net)
    }

    /// Lazy respawns performed by this shard's pool.
    pub fn respawns(&self) -> u64 {
        self.pool.respawns()
    }

    /// Live pool instances.
    pub fn live(&self) -> usize {
        self.pool.live()
    }

    /// Sketch bits of live instances plus compact-state bits (128 per
    /// entry: index + value).
    pub fn space_bits(&self) -> usize {
        self.pool.space_bits() + self.net.len() * 128
    }
}

impl<F> Encode for Shard<F>
where
    F: SamplerFactory + Encode,
    F::Sampler: Encode,
{
    fn encode(&self, w: &mut WireWriter) -> Result<(), WireError> {
        self.factory.encode(w)?;
        w.put_usize(self.universe);
        // Raw bits: the incrementally maintained mass carries its exact
        // float history, which recomputation from `net` would not.
        w.put_f64(self.mass);
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

impl<F> Decode for Shard<F>
where
    F: SamplerFactory + Decode,
    F::Sampler: Decode,
{
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let factory = F::decode(r)?;
        let universe = r.get_usize()?;
        if universe < 2 {
            return Err(WireError::Invalid("shard universe"));
        }
        let mass = r.get_f64()?;
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
        Ok(Self {
            factory,
            universe,
            pool,
            net,
            mass,
        })
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

    #[test]
    fn prime_refills_consumed_slots() {
        let f = L0Factory::default();
        let mut shard = Shard::new(f, 32, 2, 6);
        shard.apply_run(&[Update::new(4, 9)]);
        assert_eq!(shard.live(), 2);
        let _ = shard.draw();
        let _ = shard.draw();
        assert_eq!(shard.live(), 0);
        // Eager catch-up: both slots respawn from the net state now.
        assert_eq!(shard.prime(), 2);
        assert_eq!(shard.live(), 2);
        assert_eq!(shard.respawns(), 2);
        // The refilled instances reflect the net vector exactly.
        let s = shard.draw().expect("primed instance samples");
        assert_eq!(s.index, 4);
        assert_eq!(s.estimate, 9.0);
    }
}
